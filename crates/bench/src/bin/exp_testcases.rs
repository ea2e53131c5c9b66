//! Regenerates the paper's `exp_testcases` result. Pass --quick for reduced scale.
fn main() {
    behaviot_bench::experiment_main("exp_testcases", behaviot_bench::experiments::exp_testcases);
}
