//! Regenerates the paper's `fig3` result. Pass --quick for reduced scale.
fn main() {
    behaviot_bench::experiment_main("fig3", behaviot_bench::experiments::fig3);
}
