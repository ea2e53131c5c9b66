//! Regenerates the paper's `table4` result. Pass --quick for reduced scale.
fn main() {
    behaviot_bench::experiment_main("table4", behaviot_bench::experiments::table4);
}
