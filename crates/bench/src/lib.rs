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
pub use obs::ObsSession;
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
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        let value = if a == "--threads" {
            let v = args.next();
            if v.is_none() {
                eprintln!("--threads requires a value: auto|off|N");
                std::process::exit(2);
            }
            v
        } else {
            a.strip_prefix("--threads=").map(str::to_string)
        };
        if let Some(v) = value {
            match v.parse() {
                Ok(p) => return p,
                Err(e) => {
                    eprintln!("invalid --threads {v:?}: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
    Parallelism::from_env()
}
