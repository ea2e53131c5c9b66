//! Regenerates the paper's `table9` result. Pass --quick for reduced scale.
fn main() {
    behaviot_bench::experiment_main("table9", behaviot_bench::experiments::table9);
}
