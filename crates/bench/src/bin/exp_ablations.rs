//! Ablation study of the design choices called out in DESIGN.md.
fn main() {
    behaviot_bench::experiment_main("exp_ablations", behaviot_bench::experiments::exp_ablations);
}
