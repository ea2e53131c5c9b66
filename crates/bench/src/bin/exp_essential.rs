//! Regenerates the paper's `exp_essential` result. Pass --quick for reduced scale.
fn main() {
    behaviot_bench::experiment_main("exp_essential", behaviot_bench::experiments::exp_essential);
}
