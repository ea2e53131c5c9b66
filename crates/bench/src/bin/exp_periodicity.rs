//! §5.1 synthetic periodicity experiment (100/100/100 sequences).
const USAGE: &str = "usage: exp_periodicity [--trace spans.json] [--metrics-out metrics.jsonl] \
[--openmetrics-out metrics.prom]";

fn main() {
    behaviot_bench::refuse_unknown_args(USAGE, &[], &[]);
    let obs = behaviot_bench::ObsSession::from_args();
    println!("{}", behaviot_bench::experiments::exp_periodicity(0x5EED));
    obs.finish();
}
