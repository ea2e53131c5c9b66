//! Shared experiment harness: dataset preparation, model training,
//! train/test folds, accuracy bookkeeping, and plain-text table/CDF
//! rendering used by every `table*`/`fig*`/`exp_*` binary.
//!
//! Each experiment lives in [`experiments`] as a function returning a
//! printable report, so `--bin all` can regenerate the paper's entire
//! evaluation in one run, and each `--bin tableN` stays a thin wrapper.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod obs;
pub mod prep;
pub mod report;
pub mod smoke;

pub use behaviot_par::Parallelism;
pub use obs::{flag_from_args, refuse_unknown_args, ObsSession};
pub use prep::{Prepared, Scale};

/// `main` of the experiment binary `name` over the prepared datasets: it
/// refuses unknown arguments ([`refuse_unknown_args`]), builds the
/// datasets at the scale of `--quick` under the `--threads` policy, and
/// prints what `report` makes of them.
pub fn experiment_main(name: &str, report: impl FnOnce(&Prepared) -> String) {
    let usage = format!(
        "usage: {name} [--quick] [--threads auto|off|N] [--trace spans.json] \
         [--metrics-out metrics.jsonl] [--openmetrics-out metrics.prom]"
    );
    refuse_unknown_args(&usage, &["--threads"], &["--quick"]);
    let obs = ObsSession::from_args();
    let p = Prepared::build_with(scale_from_args(), parallelism_from_args());
    println!("{}", report(&p));
    obs.finish();
}

/// Parse the common CLI convention of the experiment binaries: `--quick`
/// selects the reduced-scale datasets (used in CI); without it a run is at
/// the full scale of the paper.
pub fn scale_from_args() -> Scale {
    if std::env::args().any(|a| a == "--quick") {
        Scale::quick()
    } else {
        Scale::full()
    }
}

/// Parse the thread policy of the experiment binaries: `--threads auto|off|N`
/// (also `--threads=N`), falling back to the `BEHAVIOT_THREADS` environment
/// variable, then to `auto`. Every policy produces identical results; `off`
/// pins the whole run to one thread for timing baselines and debugging.
pub fn parallelism_from_args() -> Parallelism {
    let Some(v) = flag_from_args("--threads") else {
        return Parallelism::from_env();
    };
    v.parse().unwrap_or_else(|e| {
        eprintln!("invalid --threads {v:?}: {e}");
        std::process::exit(2);
    })
}
