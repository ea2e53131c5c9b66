//! CLI plumbing shared by every experiment binary: the one `--flag VALUE`
//! parser ([`flag_from_args`]), and the observability outputs `--trace
//! <path>`, `--metrics-out <path>`, `--ledger-out <path>`,
//! `--openmetrics-out <path>` with the `BEHAVIOT_TRACE` environment
//! variable.
//!
//! Construct an [`ObsSession`] at the top of `main` (it enables span
//! recording if a trace destination was requested) and call
//! [`ObsSession::finish`] before exiting (it writes the Chrome Trace Event
//! file, the JSONL metrics snapshot, and the OpenMetrics exposition).
//! Binaries that replay a monitor construct it with
//! [`ObsSession::from_args_with_ledger`], fetch the deviation-ledger sink
//! via [`ObsSession::ledger_sink`] and pass it to
//! `Monitor::process_window_audited`; every other binary has no ledger to
//! write, and [`ObsSession::from_args`] rejects `--ledger-out` there.
//! Binaries whose argument parsers tolerate unknown flags need no further
//! changes; strict parsers must also accept the flags.

use behaviot_obs::{FileSink, LedgerSink, NullSink};
use std::path::PathBuf;

/// Where this run's observability output goes, parsed from the CLI.
pub struct ObsSession {
    trace_path: Option<PathBuf>,
    metrics_path: Option<PathBuf>,
    ledger_path: Option<PathBuf>,
    openmetrics_path: Option<PathBuf>,
}

/// The value `flag` takes in `args` by [`flag_from_args`]'s rule,
/// `Ok(None)` when it is absent.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let eq = format!("{flag}=");
    let mut found = None;
    for (i, a) in args.iter().enumerate() {
        let v = if a == flag {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => v.as_str(),
                _ => return Err(format!("{flag} requires a value")),
            }
        } else if let Some(v) = a.strip_prefix(&eq) {
            v
        } else {
            continue;
        };
        found = found.or_else(|| Some(v.to_string()));
    }
    Ok(found)
}

/// The value of `flag` in the process arguments: the one `--flag VALUE`
/// parser of every binary. The first occurrence wins. In the separate form
/// (`--flag VALUE`) a missing value, or one that is itself a flag (`--…`),
/// ends the process with exit status 2 at any occurrence; the
/// `--flag=VALUE` form takes its value as written.
pub fn flag_from_args(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    flag_value(&args, flag).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

impl ObsSession {
    /// Parse `--trace`, `--metrics-out` and `--openmetrics-out` from the
    /// process arguments ([`flag_from_args`]) for a binary that runs no
    /// monitor: `--ledger-out` ends the process with exit status 2 before
    /// any work is done, since such a run has no ledger to write. The
    /// `BEHAVIOT_TRACE` environment variable supplies the trace path when
    /// the flag is absent. Enables span recording on the global tracer iff
    /// a trace destination was requested (metrics recording is on by
    /// default regardless).
    pub fn from_args() -> Self {
        Self::from_process_args(false)
    }

    /// [`ObsSession::from_args`] for a binary that replays a monitor: it
    /// also accepts `--ledger-out`, the destination of
    /// [`ObsSession::ledger_sink`].
    pub fn from_args_with_ledger() -> Self {
        Self::from_process_args(true)
    }

    fn from_process_args(ledger: bool) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut session = Self::parse(&args, ledger).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        if session.trace_path.is_none() {
            session.trace_path = std::env::var("BEHAVIOT_TRACE")
                .ok()
                .filter(|v| !v.is_empty())
                .map(PathBuf::from);
        }
        if session.trace_path.is_some() {
            behaviot_obs::tracer().set_enabled(true);
        }
        session
    }

    /// The output flags in `args`; `--ledger-out` is an error unless the
    /// binary writes a `ledger`.
    fn parse(args: &[String], ledger: bool) -> Result<Self, String> {
        let path = |flag: &str| flag_value(args, flag).map(|v| v.map(PathBuf::from));
        let trace_path = path("--trace")?;
        let metrics_path = path("--metrics-out")?;
        let ledger_path = path("--ledger-out")?;
        if ledger_path.is_some() && !ledger {
            return Err("--ledger-out is not accepted: this binary runs no monitor".into());
        }
        Ok(Self {
            trace_path,
            metrics_path,
            ledger_path,
            openmetrics_path: path("--openmetrics-out")?,
        })
    }

    /// The deviation-ledger destination: a buffered [`FileSink`] when
    /// `--ledger-out` was given, a [`NullSink`] otherwise. The caller owns
    /// the sink (pass it to `process_window_audited`) and must hand it back
    /// to [`ObsSession::finish_ledger`] so write errors surface.
    pub fn ledger_sink(&self) -> Box<dyn LedgerSink> {
        match &self.ledger_path {
            Some(path) => match FileSink::create(path) {
                Ok(sink) => Box::new(sink),
                Err(e) => {
                    eprintln!("failed to create ledger {}: {e}", path.display());
                    std::process::exit(1);
                }
            },
            None => Box::new(NullSink),
        }
    }

    /// Flush a sink obtained from [`ObsSession::ledger_sink`]. Like the
    /// other outputs, failures are fatal.
    pub fn finish_ledger(&self, sink: &mut dyn LedgerSink) {
        if let Err(e) = sink.flush() {
            eprintln!("failed to write ledger: {e}");
            std::process::exit(1);
        }
        if let Some(path) = &self.ledger_path {
            eprintln!("[obs] ledger written to {}", path.display());
        }
    }

    /// Write the requested outputs: a Perfetto-loadable Chrome Trace Event
    /// file for `--trace`, a JSONL metrics snapshot (deterministic metrics
    /// only) for `--metrics-out`. Failures are fatal — a run asked to
    /// produce telemetry must not silently drop it.
    pub fn finish(&self) {
        if let Some(path) = &self.trace_path {
            let json = behaviot_obs::tracer().export_chrome();
            std::fs::write(path, json).unwrap_or_else(|e| {
                eprintln!("failed to write trace {}: {e}", path.display());
                std::process::exit(1);
            });
            eprintln!("[obs] trace written to {}", path.display());
        }
        if let Some(path) = &self.metrics_path {
            let jsonl = behaviot_obs::metrics().snapshot().to_jsonl();
            std::fs::write(path, jsonl).unwrap_or_else(|e| {
                eprintln!("failed to write metrics {}: {e}", path.display());
                std::process::exit(1);
            });
            eprintln!("[obs] metrics written to {}", path.display());
        }
        if let Some(path) = &self.openmetrics_path {
            let text = behaviot_obs::openmetrics::render(&behaviot_obs::metrics().snapshot());
            std::fs::write(path, text).unwrap_or_else(|e| {
                eprintln!("failed to write openmetrics {}: {e}", path.display());
                std::process::exit(1);
            });
            eprintln!("[obs] openmetrics written to {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{flag_value, ObsSession};

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn separate_value_that_is_a_flag_is_a_missing_path() {
        let a = args(&["--trace", "--metrics-out", "m"]);
        assert_eq!(
            flag_value(&a, "--trace"),
            Err("--trace requires a value".into())
        );
        assert_eq!(flag_value(&a, "--metrics-out"), Ok(Some("m".into())));
        assert_eq!(flag_value(&a[1..], "--trace"), Ok(None));
        let dangling = args(&["--ledger-out"]);
        assert_eq!(
            flag_value(&dangling, "--ledger-out"),
            Err("--ledger-out requires a value".into())
        );
    }

    #[test]
    fn equals_form_takes_its_value_as_written() {
        let a = args(&["--trace=--x"]);
        assert_eq!(flag_value(&a, "--trace"), Ok(Some("--x".into())));
        assert_eq!(flag_value(&a, "--metrics-out"), Ok(None));
    }

    #[test]
    fn a_flag_never_takes_the_next_flag_as_its_value() {
        let a = args(&[
            "--quick",
            "--days",
            "2",
            "--store",
            "--ledger-out",
            "l.jsonl",
        ]);
        assert_eq!(
            flag_value(&a, "--store"),
            Err("--store requires a value".into())
        );
        assert_eq!(flag_value(&a, "--days"), Ok(Some("2".into())));
        assert_eq!(flag_value(&a, "--ledger-out"), Ok(Some("l.jsonl".into())));
        let a = args(&["--threads", "--quick"]);
        assert_eq!(
            flag_value(&a, "--threads"),
            Err("--threads requires a value".into())
        );
    }

    #[test]
    fn first_occurrence_wins_and_every_occurrence_is_checked() {
        let a = args(&["--threads=2", "--threads", "off"]);
        assert_eq!(flag_value(&a, "--threads"), Ok(Some("2".into())));
        let a = args(&["--threads", "2", "--threads"]);
        assert_eq!(
            flag_value(&a, "--threads"),
            Err("--threads requires a value".into())
        );
        // A prefix of a longer flag is a different flag.
        let a = args(&["--threadsx=3", "--threads-max", "4"]);
        assert_eq!(flag_value(&a, "--threads"), Ok(None));
    }

    #[test]
    fn ledger_out_is_rejected_where_no_monitor_runs() {
        for a in [
            args(&["--quick", "--ledger-out", "t.jsonl"]),
            args(&["--seeds", "1", "--ledger-out=led.jsonl"]),
        ] {
            let err = ObsSession::parse(&a, false).err().expect("rejected");
            assert!(err.starts_with("--ledger-out "), "{err}");
            let session = ObsSession::parse(&a, true).expect("accepted");
            assert!(session.ledger_path.is_some());
        }
        let a = args(&["--quick", "--metrics-out", "m.jsonl"]);
        let session = ObsSession::parse(&a, false).expect("no ledger asked for");
        assert!(session.ledger_path.is_none() && session.metrics_path.is_some());
        // A value error is reported as before, whether or not a ledger is
        // accepted.
        let a = args(&["--ledger-out"]);
        for ledger in [false, true] {
            assert_eq!(
                ObsSession::parse(&a, ledger).err(),
                Some("--ledger-out requires a value".into())
            );
        }
    }
}
