//! CLI plumbing for observability: `--trace <path>`, `--metrics-out <path>`,
//! `--ledger-out <path>`, `--openmetrics-out <path>` and the
//! `BEHAVIOT_TRACE` environment variable, shared by every experiment binary.
//!
//! Construct an [`ObsSession`] at the top of `main` (it enables span
//! recording if a trace destination was requested) and call
//! [`ObsSession::finish`] before exiting (it writes the Chrome Trace Event
//! file, the JSONL metrics snapshot, and the OpenMetrics exposition).
//! Binaries that replay a monitor additionally fetch the deviation-ledger
//! sink via [`ObsSession::ledger_sink`] and pass it to
//! `Monitor::process_window_audited`. Binaries whose argument parsers
//! tolerate unknown flags need no further changes; strict parsers must also
//! accept the flags.

use behaviot_obs::{FileSink, LedgerSink, NullSink};
use std::path::PathBuf;

/// Where this run's observability output goes, parsed from the CLI.
pub struct ObsSession {
    trace_path: Option<PathBuf>,
    metrics_path: Option<PathBuf>,
    ledger_path: Option<PathBuf>,
    openmetrics_path: Option<PathBuf>,
}

/// The value `args[i]` gives `flag`: `Ok(None)` when `args[i]` is some
/// other argument. In the separate form (`--flag VALUE`) a missing value,
/// or one that is itself a flag (`--…`), is an error; the `--flag=VALUE`
/// form takes its value as written.
fn flag_value(args: &[String], i: usize, flag: &str) -> Result<Option<String>, String> {
    let a = &args[i];
    if a == flag {
        match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
            _ => Err(format!("{flag} requires a path")),
        }
    } else {
        Ok(a.strip_prefix(&format!("{flag}=")).map(str::to_string))
    }
}

impl ObsSession {
    /// Parse `--trace <path>` / `--trace=<path>` and `--metrics-out <path>`
    /// / `--metrics-out=<path>` from the process arguments; the `BEHAVIOT_TRACE`
    /// environment variable supplies the trace path when the flag is absent.
    /// Enables span recording on the global tracer iff a trace destination
    /// was requested (metrics recording is on by default regardless).
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut trace_path: Option<PathBuf> = None;
        let mut metrics_path: Option<PathBuf> = None;
        let mut ledger_path: Option<PathBuf> = None;
        let mut openmetrics_path: Option<PathBuf> = None;
        for i in 0..args.len() {
            for (flag, path) in [
                ("--trace", &mut trace_path),
                ("--metrics-out", &mut metrics_path),
                ("--ledger-out", &mut ledger_path),
                ("--openmetrics-out", &mut openmetrics_path),
            ] {
                match flag_value(&args, i, flag) {
                    Ok(Some(v)) => *path = Some(PathBuf::from(v)),
                    Ok(None) => {}
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                }
            }
        }
        if trace_path.is_none() {
            if let Ok(v) = std::env::var("BEHAVIOT_TRACE") {
                if !v.is_empty() {
                    trace_path = Some(PathBuf::from(v));
                }
            }
        }
        if trace_path.is_some() {
            behaviot_obs::tracer().set_enabled(true);
        }
        Self {
            trace_path,
            metrics_path,
            ledger_path,
            openmetrics_path,
        }
    }

    /// Is any observability output destination active?
    pub fn active(&self) -> bool {
        self.trace_path.is_some()
            || self.metrics_path.is_some()
            || self.ledger_path.is_some()
            || self.openmetrics_path.is_some()
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
    use super::flag_value;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn separate_value_that_is_a_flag_is_a_missing_path() {
        let a = args(&["--trace", "--metrics-out", "m"]);
        assert_eq!(
            flag_value(&a, 0, "--trace"),
            Err("--trace requires a path".into())
        );
        assert_eq!(flag_value(&a, 1, "--metrics-out"), Ok(Some("m".into())));
        assert_eq!(flag_value(&a, 1, "--trace"), Ok(None));
        let dangling = args(&["--ledger-out"]);
        assert_eq!(
            flag_value(&dangling, 0, "--ledger-out"),
            Err("--ledger-out requires a path".into())
        );
    }

    #[test]
    fn equals_form_takes_its_value_as_written() {
        let a = args(&["--trace=--x"]);
        assert_eq!(flag_value(&a, 0, "--trace"), Ok(Some("--x".into())));
        assert_eq!(flag_value(&a, 0, "--metrics-out"), Ok(None));
    }
}
