//! Regenerates the paper's `fig4b` result. Pass --quick for reduced scale.
fn main() {
    behaviot_bench::experiment_main("fig4b", behaviot_bench::experiments::fig4b);
}
