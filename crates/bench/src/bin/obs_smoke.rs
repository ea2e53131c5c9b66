//! One full pipeline pass through every instrumented stage, for exercising
//! the observability plumbing end to end:
//!
//! ```text
//! obs_smoke [--threads auto|off|N] [--trace spans.json] [--metrics-out metrics.jsonl]
//!           [--ledger-out ledger.jsonl] [--openmetrics-out metrics.prom]
//! ```
//!
//! The trace file is Chrome Trace Event Format (load it at
//! <https://ui.perfetto.dev>); the metrics file is one JSON object per line;
//! the ledger is the monitor window's deviation audit records; the
//! OpenMetrics file is the Prometheus text exposition of the same metrics
//! registry. All four are byte-identical under every `--threads` policy.
use behaviot_bench::{parallelism_from_args, refuse_unknown_args, smoke, ObsSession};

const USAGE: &str = "usage: obs_smoke [--threads auto|off|N] [--trace spans.json] \
[--metrics-out metrics.jsonl] [--ledger-out ledger.jsonl] [--openmetrics-out metrics.prom]";

fn main() {
    refuse_unknown_args(USAGE, &["--threads"], &[]);
    let obs = ObsSession::from_args_with_ledger();
    let par = parallelism_from_args();
    let mut sink = obs.ledger_sink();
    println!("{}", smoke::run_smoke_audited(par, sink.as_mut()));
    obs.finish_ledger(sink.as_mut());
    obs.finish();
}
