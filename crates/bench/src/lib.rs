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
pub use obs::{check_args, flag_from_args, ArgCheck, ObsSession};
pub use prep::{Prepared, Scale};

/// Parse the common CLI convention of the experiment binaries: `--quick`
/// selects the reduced-scale datasets (used in CI); anything else runs the
/// full scale of the paper.
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
