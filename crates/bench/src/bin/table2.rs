//! Regenerates the paper's `table2` result. Pass --quick for reduced scale.
fn main() {
    behaviot_bench::experiment_main("table2", behaviot_bench::experiments::table2);
}
