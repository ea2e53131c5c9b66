//! The deviation audit ledger: an append-only JSONL stream where every
//! record is one complete JSON object, rendered by the producer and
//! delivered through a [`LedgerSink`].
//!
//! # Contract
//!
//! The ledger is part of the deterministic output set: producers (the
//! monitor's audited serving path) render each line from policy-invariant
//! state only — no wall-clock readings, no hash-map iteration over
//! unordered keys, floats in shortest-round-trip form — so ledger bytes
//! are identical under `Parallelism::Off/Fixed(N)/Auto` (pinned by
//! `tests/ledger_determinism.rs`). Sinks never reorder, buffer-merge, or
//! rewrite lines: [`LedgerSink::append`] takes a finished line and the
//! sink's only freedom is *where* the bytes go (memory, a buffered file,
//! nowhere).
//!
//! Producers are expected to render into a reused scratch `String`, so a
//! window that emits no records costs the sink nothing — the healthy-window
//! zero-allocation contract (`crates/core/tests/monitor_alloc.rs`) holds
//! with a ledger attached.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Destination for ledger records. `line` is one complete JSON object
/// **without** a trailing newline; the sink appends the `\n`.
pub trait LedgerSink {
    /// Append one record.
    fn append(&mut self, line: &str);

    /// Flush buffered records to their destination. In-memory sinks are
    /// always flushed.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Discards every record: the sink for `Monitor::process_window_audited`
/// callers that keep no ledger.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl LedgerSink for NullSink {
    fn append(&mut self, _line: &str) {}
}

/// Collects records in memory — the test sink, and the byte source for
/// determinism comparisons.
#[derive(Debug, Default, Clone)]
pub struct MemorySink {
    buf: String,
}

impl MemorySink {
    /// An empty in-memory ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated ledger bytes (newline-terminated lines).
    pub fn as_str(&self) -> &str {
        &self.buf
    }

    /// Iterate over the accumulated lines.
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.buf.lines()
    }

    /// Number of records appended so far.
    pub fn len(&self) -> usize {
        self.buf.lines().count()
    }

    /// No records yet?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Take the accumulated bytes, leaving the sink empty.
    pub fn take(&mut self) -> String {
        std::mem::take(&mut self.buf)
    }
}

impl LedgerSink for MemorySink {
    fn append(&mut self, line: &str) {
        self.buf.push_str(line);
        self.buf.push('\n');
    }
}

/// Buffered-file sink for binaries (`--ledger-out`). Write errors are
/// sticky: the first one is kept and reported by [`FileSink::finish`] (or
/// `flush`), so a long replay is not interrupted mid-window by a full disk.
#[derive(Debug)]
pub struct FileSink {
    writer: BufWriter<File>,
    path: PathBuf,
    error: Option<io::Error>,
}

impl FileSink {
    /// Create (truncate) the ledger file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        Ok(Self {
            writer: BufWriter::new(File::create(&path)?),
            path,
            error: None,
        })
    }

    /// The file this sink writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Flush and surface any write error recorded along the way.
    pub fn finish(mut self) -> io::Result<()> {
        LedgerSink::flush(&mut self)
    }
}

impl LedgerSink for FileSink {
    fn append(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        let res = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"));
        if let Err(e) = res {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()
    }
}

/// Append `s` to `out` as a quoted, escaped JSON string. Exposed for
/// ledger producers outside this crate (the monitor renders its own
/// records).
pub fn write_json_str(out: &mut String, s: &str) {
    crate::json::write_str(out, s);
}

/// Append `v` to `out` as a JSON number in shortest-round-trip form
/// (Rust's `{:?}` float formatting — the same rendering the store's float
/// artifacts use, so ledger bytes are reproducible and parse back exactly).
/// Non-finite values render as `null` (no deviation score is NaN/inf by
/// construction; `null` keeps the line parseable if that ever breaks).
pub fn write_json_f64(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_accumulates_lines() {
        let mut sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.append("{\"a\":1}");
        sink.append("{\"b\":2}");
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.as_str(), "{\"a\":1}\n{\"b\":2}\n");
        assert_eq!(sink.lines().collect::<Vec<_>>(), ["{\"a\":1}", "{\"b\":2}"]);
        let taken = sink.take();
        assert_eq!(taken, "{\"a\":1}\n{\"b\":2}\n");
        assert!(sink.is_empty());
    }

    #[test]
    fn null_sink_discards() {
        let mut sink = NullSink;
        sink.append("{\"a\":1}");
        assert!(sink.flush().is_ok());
    }

    #[test]
    fn file_sink_round_trips() {
        let dir = std::env::temp_dir().join(format!("behaviot-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.jsonl");
        let mut sink = FileSink::create(&path).unwrap();
        sink.append("{\"a\":1}");
        sink.append("{\"b\":2}");
        sink.finish().unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"a\":1}\n{\"b\":2}\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_f64_is_shortest_round_trip() {
        let mut out = String::new();
        write_json_f64(&mut out, 1.5);
        out.push(' ');
        write_json_f64(&mut out, 0.1);
        out.push(' ');
        write_json_f64(&mut out, -3.0);
        out.push(' ');
        write_json_f64(&mut out, f64::INFINITY);
        assert_eq!(out, "1.5 0.1 -3.0 null");
    }
}
