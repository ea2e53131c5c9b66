//! Regenerates the paper's `fig4c` result. Pass --quick for reduced scale.
fn main() {
    behaviot_bench::experiment_main("fig4c", behaviot_bench::experiments::fig4c);
}
