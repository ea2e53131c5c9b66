//! Regenerates the paper's `fig5` result. Pass --quick for reduced scale.
fn main() {
    behaviot_bench::experiment_main("fig5", behaviot_bench::experiments::fig5);
}
