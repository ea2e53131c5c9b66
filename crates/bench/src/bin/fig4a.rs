//! Regenerates the paper's `fig4a` result. Pass --quick for reduced scale.
fn main() {
    behaviot_bench::experiment_main("fig4a", behaviot_bench::experiments::fig4a);
}
