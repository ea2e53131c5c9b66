//! Regenerates the paper's `exp_pfsm_props` result. Pass --quick for reduced scale.
fn main() {
    behaviot_bench::experiment_main(
        "exp_pfsm_props",
        behaviot_bench::experiments::exp_pfsm_props,
    );
}
