//! Regenerates the paper's `table3` result. Pass --quick for reduced scale.
fn main() {
    behaviot_bench::experiment_main("table3", behaviot_bench::experiments::table3);
}
