//! Regenerates the paper's `table5` result. Pass --quick for reduced scale.
fn main() {
    behaviot_bench::experiment_main("table5", behaviot_bench::experiments::table5);
}
