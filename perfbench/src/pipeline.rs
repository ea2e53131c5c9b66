//! The calls into the library, each wrapped in a benchmark span, and the
//! serving loop both workloads share.

use crate::fold::Span;
use crate::inputs::Window;
use crate::report::{Counters, Tallies};
use behaviot::{HealthConfig, HealthState, HealthTransition, Monitor};
use behaviot_flows::ingest::{ingest_pcap_bytes, IngestOptions};
use behaviot_flows::{assemble_flows, DomainTable, FlowConfig, FlowRecord};
use behaviot_intern::{FxHashSet, Symbol};
use behaviot_net::pcap::PcapReader;
use behaviot_net::IngestReport;
use behaviot_obs::MemorySink;
use behaviot_sim::{Catalog, ExpectedIncident, ExpectedSignal};
use behaviot_store::{ModelStore, SnapshotSpec};
use std::net::Ipv4Addr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// Run `f` inside a benchmark span named `name`, returning its result and
/// wall time. The span is inert while the tracer is off.
pub fn call<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let _span = behaviot_obs::tracer().span(name);
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// What [`traced`] observed.
pub struct Traced<T> {
    pub value: T,
    pub spans: Vec<Span>,
    pub counters: Counters,
    pub wall_ns: u64,
}

/// Run `f` with zeroed metrics and the tracer recording; return its spans,
/// the counters it moved, and its wall time.
pub fn traced<T>(f: impl FnOnce() -> T) -> Traced<T> {
    let tracer = behaviot_obs::tracer();
    behaviot_obs::metrics().reset();
    tracer.clear();
    tracer.set_enabled(true);
    let t0 = Instant::now();
    let value = f();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    tracer.set_enabled(false);
    Traced {
        value,
        spans: tracer.take_spans().iter().map(Span::from).collect(),
        counters: Counters::of(&behaviot_obs::metrics().snapshot()),
        wall_ns,
    }
}

/// Open (creating) a snapshot directory.
pub fn open_store(dir: &Path) -> Result<ModelStore, String> {
    ModelStore::open(dir).map_err(|e| format!("cannot open store {}: {e}", dir.display()))
}

/// A gateway's naming table: reverse DNS known up front, to which every
/// DNS answer and TLS server name seen in the capture is added.
pub fn naming(rdns: &[(Ipv4Addr, String)]) -> DomainTable {
    let mut table = DomainTable::new();
    table.preload_rdns(rdns.iter().cloned());
    table
}

/// Pcap records seen by ingest, and the ones it dropped.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestTally {
    pub records: u64,
    pub dropped: u64,
}

/// A window's bytes through `ingest_pcap_bytes` and `assemble_flows`,
/// naming remote ends with everything `names` has learned so far.
pub fn ingest_and_assemble(
    bytes: &[u8],
    names: &mut DomainTable,
    tally: &mut IngestTally,
) -> Result<(Vec<FlowRecord>, IngestReport, u64), String> {
    let (ingested, _) = call("call.ingest_pcap_bytes", || {
        ingest_pcap_bytes(bytes, &IngestOptions::default())
    });
    let ingested = ingested.map_err(|e| format!("ingest failed: {e}"))?;
    tally.records += ingested.records_seen;
    tally.dropped += ingested.report.dropped_records();
    names.merge(&ingested.domains);
    let (flows, _) = call("call.assemble_flows", || {
        assemble_flows(&ingested.packets, names, &FlowConfig::default())
    });
    Ok((flows, ingested.report, ingested.records_seen))
}

/// What the read-only reader probe saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetTally {
    pub records: u64,
    pub resyncs: u64,
    pub resync_skipped_bytes: u64,
}

/// Read `bytes` with a recovering `PcapReader` and nothing else: the
/// reader's share of `ingest_pcap_bytes`, measured apart.
pub fn net_probe(bytes: &[u8], tally: &mut NetTally) {
    let ((records, report), _) = call("call.net_read", || {
        let mut records = 0u64;
        let Ok(mut reader) = PcapReader::new_recovering(bytes) else {
            return (0, IngestReport::new());
        };
        while let Ok(Some(_)) = reader.next_record_borrowed() {
            records += 1;
        }
        (records, reader.take_report())
    });
    tally.records += records;
    tally.resyncs += report.resyncs;
    tally.resync_skipped_bytes += report.resync_skipped_bytes;
}

/// The serving set-up: `ModelStore::load`, `into_monitor`, `enable_health`.
pub fn setup_monitor(store: &ModelStore) -> Result<(Monitor, Duration), String> {
    let t0 = Instant::now();
    let (snapshot, _) = call("call.load", || store.load());
    let snapshot = snapshot.map_err(|e| format!("load failed: {e}"))?;
    let (monitor, _) = call("call.into_monitor", || snapshot.into_monitor());
    let mut monitor = monitor.ok_or("snapshot holds no monitor")?;
    call("call.enable_health", || {
        monitor.enable_health(HealthConfig::default())
    });
    Ok((monitor, t0.elapsed()))
}

/// `ModelStore::checkpoint` of a serving monitor. Models do not change
/// while serving, so no device is marked changed.
fn checkpoint(store: &ModelStore, monitor: &Monitor) -> Result<Duration, String> {
    let (res, dt) = call("call.checkpoint", || {
        let spec = SnapshotSpec {
            system: Some(monitor.system()),
            monitor: Some((monitor.config(), monitor.export_state())),
            health: monitor.health().map(|h| h.export()),
            ..SnapshotSpec::new(monitor.models())
        };
        store.checkpoint(&spec, &FxHashSet::default())
    });
    res.map_err(|e| format!("checkpoint failed: {e}"))?;
    Ok(dt)
}

/// Everything one served stretch of windows produced.
#[derive(Default)]
pub struct Served {
    /// Latency of each window: bytes handed to ingest until
    /// `process_window_audited` returned.
    pub window_ms: Vec<f64>,
    /// Windows plus the closing checkpoint, per simulated day.
    pub day_ms: Vec<f64>,
    /// The closing checkpoint alone, per simulated day.
    pub checkpoint_ms: Vec<f64>,
    /// All timed work: windows and checkpoints.
    pub timed: Duration,
    pub attempted: u64,
    pub failed: u64,
    /// Why windows failed.
    pub failures: Vec<String>,
    pub ingest: IngestTally,
    pub net: NetTally,
    pub bursts: u64,
    /// Windows that appended to the ledger.
    pub nonquiet: u64,
    /// Deviations rendered with `{:?}`, per day.
    pub day_devs: Vec<Vec<String>>,
    /// Ledger length at each day's end.
    pub day_ledger_len: Vec<usize>,
    /// Health transitions with their day, and non-healthy device-days.
    pub timeline: Vec<(usize, HealthTransition)>,
    pub bad_days: Vec<(usize, Symbol, HealthState)>,
}

impl Served {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// The per-layer tallies of this stretch.
    pub fn tallies(
        &self,
        ledger_bytes: usize,
        truth: &[ExpectedIncident],
        catalog: &Catalog,
    ) -> Tallies {
        Tallies {
            net_records: self.net.records,
            net_resyncs: self.net.resyncs,
            net_resync_skipped_bytes: self.net.resync_skipped_bytes,
            ingest_records: self.ingest.records,
            ingest_dropped: self.ingest.dropped,
            bursts: self.bursts,
            windows: self.attempted,
            nonquiet_windows: self.nonquiet,
            ledger_bytes: ledger_bytes as u64,
            snapshot_bytes: 0,
            incidents: truth.len() as u64,
            incidents_covered: incidents_covered(truth, self, catalog) as u64,
        }
    }
}

/// Serve `windows` through `monitor` in a closed loop, one window at a
/// time, checkpointing into `store` at the end of every simulated day.
/// With `probe`, each window's bytes are first read by [`net_probe`],
/// outside the window's timing.
pub fn serve_windows(
    monitor: &mut Monitor,
    windows: &[Window],
    rdns: &[(Ipv4Addr, String)],
    store: Option<&ModelStore>,
    sink: &mut MemorySink,
    probe: bool,
) -> Served {
    let mut out = Served::default();
    let mut names = naming(rdns);
    let mut day_timed = Duration::ZERO;
    for (i, w) in windows.iter().enumerate() {
        if out.day_devs.len() <= w.day {
            out.day_devs.resize_with(w.day + 1, Vec::new);
        }
        if probe {
            net_probe(&w.bytes, &mut out.net);
        }
        out.attempted += 1;
        let ledger_before = sink.as_str().len();
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _span = behaviot_obs::tracer().span("op.window");
            let (flows, report, records) =
                ingest_and_assemble(&w.bytes, &mut names, &mut out.ingest)?;
            let ingest = behaviot::WindowIngest {
                report: &report,
                records_total: records,
            };
            let (devs, _) = call("call.process_window_audited", || {
                monitor.process_window_audited(&flows, w.start, w.end, Some(ingest), sink)
            });
            Ok::<_, String>((devs, report, flows.len()))
        }));
        let dt = t0.elapsed();
        day_timed += dt;
        out.window_ms.push(dt.as_secs_f64() * 1e3);
        match result {
            Err(_) => out.fail(format!("window {i} panicked")),
            Ok(Err(e)) => out.fail(format!("window {i}: {e}")),
            Ok(Ok((devs, report, bursts))) => {
                if let Some(expected) = &w.expected {
                    if !expected.matches(&report) {
                        out.fail(format!(
                            "window {i}: {report} differs from the fault plan's {expected:?}"
                        ));
                    }
                }
                out.bursts += bursts as u64;
                out.day_devs[w.day].extend(devs.iter().map(|d| format!("{d:?}")));
            }
        }
        if sink.as_str().len() > ledger_before {
            out.nonquiet += 1;
        }
        if let Some(h) = monitor.health() {
            out.timeline
                .extend(h.last_transitions().iter().map(|&t| (w.day, t)));
            out.bad_days.extend(
                h.iter()
                    .filter(|&(_, s)| s != HealthState::Healthy)
                    .map(|(d, s)| (w.day, d, s)),
            );
        }
        if windows.get(i + 1).is_none_or(|next| next.day != w.day) {
            if let Some(store) = store {
                match checkpoint(store, monitor) {
                    Ok(dt) => {
                        day_timed += dt;
                        out.checkpoint_ms.push(dt.as_secs_f64() * 1e3);
                    }
                    Err(e) => out.fail(e),
                }
            }
            out.day_ms.push(day_timed.as_secs_f64() * 1e3);
            out.timed += day_timed;
            day_timed = Duration::ZERO;
            out.day_ledger_len.push(sink.as_str().len());
        }
    }
    out
}

/// Detection lag accepted past an incident's scripted days: absence needs
/// the window to end, staleness needs consecutive silent windows.
const LAG_DAYS: usize = 3;

/// Scripted incidents the health timeline covers, by the `fleet-health`
/// rule: a matching transition on the implicated device within the
/// incident's days (plus lag), or the device already holding a matching bad
/// state then. Window hours map to their simulated day.
fn incidents_covered(truth: &[ExpectedIncident], served: &Served, catalog: &Catalog) -> usize {
    truth
        .iter()
        .filter(|e| {
            let device = e.device.map(|di| Symbol::intern(&catalog.devices[di].name));
            let in_range =
                |day: usize| day >= e.day_from && day < e.day_to.saturating_add(LAG_DAYS);
            let hit = served.timeline.iter().any(|(day, t)| {
                let signal_ok = match e.signal {
                    ExpectedSignal::Periodic => t.reason == "deviation:periodic",
                    ExpectedSignal::System => t.reason.starts_with("deviation:"),
                    ExpectedSignal::Silence => {
                        t.to == HealthState::Stale || t.reason == "deviation:periodic"
                    }
                };
                in_range(*day) && device.is_none_or(|d| t.device == d) && signal_ok
            });
            hit || served.bad_days.iter().any(|&(day, dev, state)| {
                let state_ok = match e.signal {
                    ExpectedSignal::Periodic | ExpectedSignal::System => {
                        state == HealthState::Deviant
                    }
                    ExpectedSignal::Silence => {
                        state == HealthState::Stale || state == HealthState::Deviant
                    }
                };
                in_range(day) && device.is_none_or(|d| dev == d) && state_ok
            })
        })
        .count()
}

/// Total bytes of the files in a store directory.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A fresh copy of the snapshot in `from`, at `to`.
pub fn fresh_copy(from: &Path, to: &Path) -> Result<ModelStore, String> {
    let copy = || -> std::io::Result<()> {
        if to.exists() {
            std::fs::remove_dir_all(to)?;
        }
        std::fs::create_dir_all(to)?;
        for entry in std::fs::read_dir(from)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                std::fs::copy(entry.path(), to.join(entry.file_name()))?;
            }
        }
        Ok(())
    };
    copy().map_err(|e| format!("cannot copy {} to {}: {e}", from.display(), to.display()))?;
    open_store(to)
}
