//! Regenerates the paper's `exp_fnr_fpr` result. Pass --quick for reduced scale.
fn main() {
    behaviot_bench::experiment_main("exp_fnr_fpr", behaviot_bench::experiments::exp_fnr_fpr);
}
