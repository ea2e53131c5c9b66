//! The behavior monitor: applies the deviation metrics to streaming
//! capture windows and reports significant deviations (§4.3/§6.2).
//!
//! Each [`Deviation`] carries a typed [`DeviationCause`]: the evidence
//! captured while its metric was computed and the devices it implicates.
//! The audit ledger and the health registry read those fields; the
//! report strings ([`Deviation::subject`], [`Deviation::detail`]) are
//! renderings of them.
//!
//! The serving path is symbol-native and allocation-disciplined: steady
//! state (warmed scratch, healthy traffic) performs **zero** heap
//! allocations per window — pinned by `tests/monitor_alloc.rs`; the
//! rendered deviation stream is byte-identical to the pre-rewrite String
//! pipeline — pinned by `tests/monitor_parity.rs`.

use crate::deviation::{
    long_term_threshold, periodic_metric_multi_explain, LongTermAccumulator, PERIODIC_THRESHOLD,
};
use crate::event::{user_label, EventKind, InferredEvent};
use crate::events::{BehavIoT, EventScratch};
use crate::health::{HealthConfig, HealthExport, HealthRegistry};
use crate::periodic::GroupKey;
use crate::system::SystemModel;
use behaviot_flows::FlowRecord;
use behaviot_intern::{FxHashMap, FxHashSet, Symbol};
use behaviot_net::IngestReport;
use behaviot_obs::ledger::{write_json_f64, write_json_str};
use behaviot_obs::LedgerSink;
use behaviot_pfsm::{EventId, ScoreScratch};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::sync::OnceLock;

/// Counter handles for the monitor, resolved once process-wide (the
/// per-call registry lookup is lock-guarded; the serving path just
/// increments atomics).
struct MonitorMetrics {
    deviations: behaviot_obs::Counter,
    traces: behaviot_obs::Counter,
    ledger_records: behaviot_obs::Counter,
}

fn monitor_metrics() -> &'static MonitorMetrics {
    static METRICS: OnceLock<MonitorMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let m = behaviot_obs::metrics();
        MonitorMetrics {
            deviations: m.counter("monitor.deviations"),
            traces: m.counter("monitor.traces"),
            ledger_records: m.counter("monitor.ledger_records"),
        }
    })
}

/// Which metric raised a deviation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviationKind {
    /// Periodic-event deviation (per-device metric).
    PeriodicTiming,
    /// Short-term (per-trace) system deviation.
    ShortTerm,
    /// Long-term (transition-frequency) system deviation.
    LongTerm,
}

impl DeviationKind {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            DeviationKind::PeriodicTiming => "periodic",
            DeviationKind::ShortTerm => "short-term",
            DeviationKind::LongTerm => "long-term",
        }
    }
}

/// A reported deviation: when, how large, and the typed cause a human
/// (or an anomaly-detection system, §7.2) can act on.
#[derive(Debug, Clone)]
pub struct Deviation {
    /// Time the deviation was measured (window-relative events use their
    /// own time; absence checks use the window end).
    pub ts: f64,
    /// Metric value.
    pub score: f64,
    /// Threshold it exceeded.
    pub threshold: f64,
    /// What raised it: the evidence and the implicated devices.
    pub cause: DeviationCause,
}

/// Why a [`Deviation`] was raised. The evidence is captured from the
/// metric computation itself — the timer and period behind a periodic
/// score, the Viterbi probability behind a trace score, the z-test inputs
/// behind a long-term score — and the implicated devices are resolved
/// when the deviation is emitted. Device symbols are the labels the
/// health registry is keyed by: the device name when known, the dotted
/// address otherwise.
#[derive(Debug, Clone)]
pub enum DeviationCause {
    /// An observed inter-event gap scored off schedule.
    Gap {
        /// The device of the periodic group.
        device: Symbol,
        /// The group's destination.
        dest: Symbol,
        /// Observed gap (seconds).
        gap: f64,
        /// Best-matching period (seconds).
        period: f64,
    },
    /// A silent periodic group's count-up timer ran past its period.
    Absence {
        /// The device of the periodic group.
        device: Symbol,
        /// The group's destination.
        dest: Symbol,
        /// Silence up to the window end (seconds).
        elapsed: f64,
        /// Best-matching period (seconds).
        period: f64,
    },
    /// The testbed-outage collapse of many simultaneous absences.
    Outage {
        /// Every silent device, sorted by name.
        devices: Vec<Symbol>,
    },
    /// A user-event trace scored improbable under the PFSM.
    Trace {
        /// `(label, device)` of each kept user event, in trace order.
        events: Vec<(Symbol, Symbol)>,
        /// Viterbi log10-probability of the trace.
        log10_prob: f64,
    },
    /// A transition frequency failed the long-term z-test.
    Transition {
        /// Source state label.
        from: Symbol,
        /// Destination state label.
        to: Symbol,
        /// Device of the source state's event (`None` for INITIAL).
        from_device: Option<Symbol>,
        /// Device of the destination state's event (`None` for FINAL).
        to_device: Option<Symbol>,
        /// Observed transition probability in the window.
        observed_p: f64,
        /// Transition probability in the model.
        model_p: f64,
        /// Departures from the source state in the window.
        n: usize,
    },
}

impl Deviation {
    /// The metric that raised the deviation.
    pub fn kind(&self) -> DeviationKind {
        match self.cause {
            DeviationCause::Gap { .. }
            | DeviationCause::Absence { .. }
            | DeviationCause::Outage { .. } => DeviationKind::PeriodicTiming,
            DeviationCause::Trace { .. } => DeviationKind::ShortTerm,
            DeviationCause::Transition { .. } => DeviationKind::LongTerm,
        }
    }

    /// Does the cause implicate `device`?
    pub fn implicates(&self, device: Symbol) -> bool {
        match &self.cause {
            DeviationCause::Gap { device: d, .. } | DeviationCause::Absence { device: d, .. } => {
                *d == device
            }
            DeviationCause::Outage { devices } => devices.contains(&device),
            DeviationCause::Trace { events, .. } => events.iter().any(|&(_, d)| d == device),
            DeviationCause::Transition {
                from_device,
                to_device,
                ..
            } => *from_device == Some(device) || *to_device == Some(device),
        }
    }

    /// Affected subject: device name, outage size, trace, or transition.
    pub fn subject(&self) -> String {
        match &self.cause {
            DeviationCause::Gap { device, .. } | DeviationCause::Absence { device, .. } => {
                device.as_str().to_string()
            }
            DeviationCause::Outage { devices } => format!("{} devices", devices.len()),
            DeviationCause::Trace { events, .. } => {
                let labels: Vec<&str> = events.iter().map(|(label, _)| label.as_str()).collect();
                labels.join(" -> ")
            }
            DeviationCause::Transition { from, to, .. } => format!("{from} -> {to}"),
        }
    }

    /// Human-readable explanation.
    pub fn detail(&self) -> String {
        match &self.cause {
            DeviationCause::Gap { dest, .. } => {
                format!("periodic traffic to {dest} arrived off schedule")
            }
            DeviationCause::Absence { dest, .. } => {
                format!("periodic traffic to {dest} is overdue (possible outage)")
            }
            DeviationCause::Outage { .. } => {
                "periodic traffic overdue across the testbed (network outage)".to_string()
            }
            DeviationCause::Trace { .. } => {
                "user-event trace is improbable under the system model".to_string()
            }
            DeviationCause::Transition {
                observed_p,
                model_p,
                n,
                ..
            } => format!(
                "transition frequency {observed_p:.2} deviates from modeled {model_p:.2} over {n} departures"
            ),
        }
    }
}

/// Monitor thresholds/configuration (defaults = the paper's §5.3 choices).
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Periodic-event metric threshold (knee of the CDF → 1.61).
    pub periodic_threshold: f64,
    /// Short-term threshold is `μ + n·σ` with this `n` (3 in the paper).
    pub short_sigma: f64,
    /// Long-term confidence interval (0.95 in the paper).
    pub long_confidence: f64,
    /// Minimum departures from a state before the long-term z-test is
    /// trusted (small-sample guard).
    pub long_min_n: usize,
    /// Minimum absolute difference between observed and expected
    /// transition *counts* — keeps borderline z-scores from spamming
    /// reports when many transitions are tested per window.
    pub long_min_count_diff: f64,
    /// Gap separating user-event traces (60 s).
    pub trace_gap: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            periodic_threshold: PERIODIC_THRESHOLD,
            short_sigma: 3.0,
            long_confidence: 0.95,
            long_min_n: 8,
            long_min_count_diff: 5.0,
            trace_gap: 60.0,
        }
    }
}

/// The monitor's cross-window streaming state, exported for durable
/// checkpoints. All three collections are sorted on export so the encoding
/// is deterministic regardless of hash-map iteration order; restoring them
/// into a fresh [`Monitor`] reproduces the exact deviation stream the
/// uninterrupted monitor would have emitted (pinned by
/// `tests/store_replay.rs`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MonitorState {
    /// Per-group count-up timers: last event time per periodic group.
    pub last_seen: Vec<(GroupKey, f64)>,
    /// Devices whose ongoing silence has already been reported.
    pub absence_flagged: Vec<Ipv4Addr>,
    /// Long-term transitions currently in the deviating state.
    pub long_flagged: Vec<(Symbol, Symbol)>,
    /// Windows processed so far — the audit ledger's sequence counter, so
    /// a restored monitor's ledger records continue the numbering instead
    /// of restarting at zero.
    pub windows: u64,
}

/// Per-window scratch owned by the monitor: every buffer the serving path
/// needs, reused window after window so steady-state processing allocates
/// nothing. Maps that feed *emission order* (worst-gap/absent aggregation,
/// the still-deviating set) are deliberately **not** here — a reused map's
/// grown capacity would change its iteration order and break byte-parity
/// with the pre-rewrite deviation stream; fresh `FxHashMap::default()`
/// allocates nothing until first insert, so healthy windows stay free.
#[derive(Default)]
struct MonitorScratch {
    /// Inferred events of the current window.
    events: Vec<InferredEvent>,
    /// Event-inference scratch (sort index, user hits, periodic timers).
    infer: EventScratch,
    /// User events awaiting trace segmentation: `(ts, arrival index,
    /// label, device, device is known to the system model)`.
    user_buf: Vec<(f64, u32, Symbol, Symbol, bool)>,
    /// `(device, activity)` → `(label, device, keep)` — renders
    /// `"<device>:<act>"` once per pair instead of once per event.
    label_cache: FxHashMap<(Ipv4Addr, Symbol), (Symbol, Symbol, bool)>,
    /// Kept trace labels, all traces concatenated (CSR values).
    trace_labels: Vec<Symbol>,
    /// Device of each entry of `trace_labels`, pushed alongside it.
    trace_devices: Vec<Symbol>,
    /// CSR row bounds into `trace_labels`; trace `i` spans
    /// `trace_bounds[i]..trace_bounds[i + 1]`.
    trace_bounds: Vec<u32>,
    /// Resolved event ids of the trace being scored.
    resolved: Vec<Option<EventId>>,
    /// Viterbi scratch.
    score: ScoreScratch,
    /// Long-term transition-counting scratch.
    longterm: LongTermAccumulator,
    /// Ledger line render buffer, reused record to record.
    line: String,
    /// Devices with at least one inferred event this window.
    seen: FxHashSet<Symbol>,
}

/// A device's label: its name when known, its dotted address otherwise —
/// the prefix of its `"<device>:<activity>"` trace labels and its key in
/// the health registry.
fn device_sym(names: &HashMap<Ipv4Addr, String>, ip: Ipv4Addr) -> Symbol {
    match names.get(&ip) {
        Some(name) => Symbol::intern(name),
        None => Symbol::intern_ipv4(ip),
    }
}

/// Ingest accounting in effect for one monitor window: the gate counters
/// plus the record total they are measured against, recorded into the
/// audit ledger's window header.
#[derive(Debug, Clone, Copy)]
pub struct WindowIngest<'a> {
    /// Gate counters accumulated while ingesting this window's capture.
    pub report: &'a IngestReport,
    /// Total records the counters are a fraction of.
    pub records_total: u64,
}

impl<'a> WindowIngest<'a> {
    /// Fraction of records the gates dropped.
    pub fn drop_frac(&self) -> f64 {
        self.report.drop_frac(self.records_total)
    }
}

/// The streaming monitor. Feed it capture windows (e.g. one day at a
/// time); it keeps per-group count-up timers across windows.
pub struct Monitor {
    models: BehavIoT,
    system: SystemModel,
    cfg: MonitorConfig,
    /// Last event time per periodic traffic group (persists across
    /// windows — this is the count-up timer of §4.3). `GroupKey` is `Copy`
    /// now that destinations are interned, so timer upkeep allocates
    /// nothing.
    last_seen: FxHashMap<GroupKey, f64>,
    /// Devices whose silence has already been reported (cleared when the
    /// device produces traffic again) — a multi-day outage is one
    /// deviation, not one per window.
    absence_flagged: FxHashSet<Ipv4Addr>,
    /// Long-term transitions currently in the deviating state; only the
    /// transition *entering* that state is reported.
    long_flagged: FxHashSet<(Symbol, Symbol)>,
    /// `max_missed` of the periodic config, hoisted out of the per-event
    /// loop.
    max_missed: u32,
    /// Distinct devices with at least one periodic model, computed at
    /// construction (the outage-collapse denominator).
    n_devices_with_models: usize,
    /// Short-term threshold `μ + nσ`, fixed once the system model is.
    st_threshold: f64,
    /// Long-term critical z-value, fixed by the configuration.
    lt_crit: f64,
    /// Device address → label ([`device_sym`]) of every named device and
    /// every device with a periodic model, built at construction so
    /// emission and the health fold never allocate per window.
    device_syms: FxHashMap<Ipv4Addr, Symbol>,
    /// Optional per-device health state machine (see [`HealthRegistry`]).
    health: Option<HealthRegistry>,
    /// Windows processed (the ledger sequence counter).
    windows: u64,
    scratch: MonitorScratch,
}

impl Monitor {
    /// Create a monitor from trained device models and a system model.
    pub fn new(models: BehavIoT, system: SystemModel, cfg: MonitorConfig) -> Self {
        let max_missed = models.periodic.config().max_missed;
        let devices: FxHashSet<Ipv4Addr> = models.periodic.iter().map(|m| m.device).collect();
        let st_threshold = system.short_term_threshold(cfg.short_sigma);
        let lt_crit = long_term_threshold(cfg.long_confidence);
        // Every device the monitor can say anything about: named devices
        // plus devices with periodic models, interned in address order
        // rather than the name map's per-process hash order.
        let mut ips: Vec<Ipv4Addr> = models.names.keys().chain(&devices).copied().collect();
        ips.sort_unstable();
        let device_syms: FxHashMap<Ipv4Addr, Symbol> = ips
            .into_iter()
            .map(|ip| (ip, device_sym(&models.names, ip)))
            .collect();
        Self {
            models,
            system,
            cfg,
            last_seen: FxHashMap::default(),
            absence_flagged: FxHashSet::default(),
            long_flagged: FxHashSet::default(),
            max_missed,
            n_devices_with_models: devices.len(),
            st_threshold,
            lt_crit,
            device_syms,
            health: None,
            windows: 0,
            scratch: MonitorScratch::default(),
        }
    }

    /// The device models.
    pub fn models(&self) -> &BehavIoT {
        &self.models
    }

    /// The system model.
    pub fn system(&self) -> &SystemModel {
        &self.system
    }

    /// The monitor configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// Attach a per-device health state machine: every device the monitor
    /// has models for is registered (Healthy), and each processed window is
    /// folded into it — deviations, silence, and the ingest drop budget.
    /// State transitions are recorded into the audit ledger.
    pub fn enable_health(&mut self, cfg: HealthConfig) {
        let mut registry = HealthRegistry::new(cfg);
        for &sym in self.device_syms.values() {
            registry.register(sym);
        }
        self.health = Some(registry);
    }

    /// The health registry, when [`Self::enable_health`] (or
    /// [`Self::restore_health`]) attached one.
    pub fn health(&self) -> Option<&HealthRegistry> {
        self.health.as_ref()
    }

    /// Re-attach a health registry from a durable checkpoint (the store's
    /// optional `health` artifact), continuing its timeline exactly.
    pub fn restore_health(&mut self, export: HealthExport) {
        self.health = Some(HealthRegistry::restore(export));
    }

    /// Snapshot the cross-window streaming state, sorted deterministically
    /// (timers by group key, flags by address / transition labels).
    pub fn export_state(&self) -> MonitorState {
        let mut last_seen: Vec<(GroupKey, f64)> =
            self.last_seen.iter().map(|(&k, &t)| (k, t)).collect();
        last_seen.sort_by_key(|&(k, _)| k);
        let mut absence_flagged: Vec<Ipv4Addr> = self.absence_flagged.iter().copied().collect();
        absence_flagged.sort();
        let mut long_flagged: Vec<(Symbol, Symbol)> = self.long_flagged.iter().copied().collect();
        long_flagged.sort();
        MonitorState {
            last_seen,
            absence_flagged,
            long_flagged,
            windows: self.windows,
        }
    }

    /// Rebuild a monitor from models plus previously exported streaming
    /// state. `restore(m, s, c, monitor.export_state())` continues the
    /// deviation stream exactly where `monitor` left off.
    pub fn restore(
        models: BehavIoT,
        system: SystemModel,
        cfg: MonitorConfig,
        state: MonitorState,
    ) -> Self {
        let mut monitor = Self::new(models, system, cfg);
        monitor.last_seen = state.last_seen.into_iter().collect();
        monitor.absence_flagged = state.absence_flagged.into_iter().collect();
        monitor.long_flagged = state.long_flagged.into_iter().collect();
        monitor.windows = state.windows;
        monitor
    }

    /// The label of a device with a periodic model. Every such device is
    /// keyed in `device_syms` at construction, so the index cannot miss.
    fn model_device(&self, ip: Ipv4Addr) -> Symbol {
        self.device_syms[&ip]
    }

    /// Process one window of flows covering `[window_start, window_end)`.
    /// Returns the significant deviations, most severe first within each
    /// kind.
    ///
    /// The audit surface rides along: one JSONL record per deviation
    /// carrying its causal evidence, a window header with the ingest-gate
    /// counters in effect (`ingest`, when the caller has one), and
    /// per-device health transitions when [`Self::enable_health`] attached
    /// a registry — all appended to `sink` (see DESIGN.md §15 for the
    /// record schema). Callers with no ledger pass `None` and a
    /// [`behaviot_obs::NullSink`].
    ///
    /// Ledger bytes are deterministic: records derive only from
    /// policy-invariant state, in emission order, with floats in
    /// shortest-round-trip form (`tests/ledger_determinism.rs`). A healthy
    /// window with clean ingest appends nothing and allocates nothing
    /// (`tests/monitor_alloc.rs`).
    pub fn process_window_audited(
        &mut self,
        flows: &[FlowRecord],
        window_start: f64,
        window_end: f64,
        ingest: Option<WindowIngest<'_>>,
        sink: &mut dyn LedgerSink,
    ) -> Vec<Deviation> {
        let mut span = behaviot_obs::span!("monitor.window", flows = flows.len());
        // Flow times the inference stage clamped: the caller's ingest
        // report cannot have counted them.
        let clamped = self
            .models
            .infer_events_into(flows, &mut self.scratch.infer, &mut self.scratch.events)
            .clamped_events;
        let mut out = Vec::new();
        self.scratch.seen.clear();
        if self.health.is_some() {
            for e in &self.scratch.events {
                if let Some(&sym) = self.device_syms.get(&e.device) {
                    self.scratch.seen.insert(sym);
                }
            }
        }

        // ---- periodic-event deviations --------------------------------
        // Observed events advance the per-group timer; each gap larger
        // than the threshold (relative to the best-matching period) is a
        // deviation. At window end, silent groups are checked too
        // (absence = outage/malfunction; cases 6-9 of §6.2). Both paths
        // are aggregated per device to keep reports readable. The maps are
        // fresh per window on purpose: empty `FxHashMap`s allocate nothing
        // until first insert (free on healthy windows), and their
        // iteration order — which fixes the emission order — stays
        // capacity-independent.
        // The map values carry the ledger evidence (gap/elapsed and the
        // best-matching period) alongside the score that fixes emission;
        // `periodic_metric_multi_explain` computes the identical score.
        let mut worst_gap: FxHashMap<Ipv4Addr, (f64, f64, Symbol, f64, f64)> = FxHashMap::default(); // device -> (score, ts, dest, gap, period)
        let mut worst_absent: FxHashMap<Ipv4Addr, (f64, Symbol, f64, f64)> = FxHashMap::default();
        for e in &self.scratch.events {
            let key: GroupKey = (e.device, e.destination, e.proto);
            let Some(model) = self.models.periodic.get(&key) else {
                continue;
            };
            // The device is talking again: a future silence is a new
            // deviation.
            self.absence_flagged.remove(&e.device);
            if let Some(prev) = self.last_seen.insert(key, e.ts) {
                let gap = e.ts - prev;
                let (score, period) =
                    periodic_metric_multi_explain(gap, &model.periods, self.max_missed);
                if score > self.cfg.periodic_threshold {
                    let entry = worst_gap.entry(e.device).or_insert((
                        0.0,
                        e.ts,
                        e.destination,
                        gap,
                        period,
                    ));
                    if score > entry.0 {
                        *entry = (score, e.ts, e.destination, gap, period);
                    }
                }
            }
        }
        for model in self.models.periodic.iter() {
            let key: GroupKey = (model.device, model.destination, model.proto);
            let Some(&last) = self.last_seen.get(&key) else {
                continue;
            };
            let elapsed = window_end - last;
            let (score, period) =
                periodic_metric_multi_explain(elapsed, &model.periods, self.max_missed);
            // Only meaningful when the group has actually fallen silent
            // beyond its period, and only reported once per silence.
            if elapsed > model.period()
                && score > self.cfg.periodic_threshold
                && !self.absence_flagged.contains(&model.device)
            {
                let entry = worst_absent.entry(model.device).or_insert((
                    0.0,
                    model.destination,
                    elapsed,
                    period,
                ));
                if score > entry.0 {
                    *entry = (score, model.destination, elapsed, period);
                }
            }
        }
        for device in worst_absent.keys() {
            self.absence_flagged.insert(*device);
        }
        for (device, (score, ts, dest, gap, period)) in worst_gap {
            out.push(Deviation {
                ts,
                score,
                threshold: self.cfg.periodic_threshold,
                cause: DeviationCause::Gap {
                    device: self.model_device(device),
                    dest,
                    gap,
                    period,
                },
            });
        }
        // A testbed-wide outage silences (nearly) every device at once:
        // collapse it into a single deviation instead of 49.
        if worst_absent.len() >= 5 && worst_absent.len() * 10 >= self.n_devices_with_models * 8 {
            let worst = worst_absent
                .values()
                .map(|(s, _, _, _)| *s)
                .fold(f64::NEG_INFINITY, f64::max);
            let mut devices: Vec<Symbol> = worst_absent
                .keys()
                .map(|&device| self.model_device(device))
                .collect();
            devices.sort_unstable();
            out.push(Deviation {
                ts: window_end,
                score: worst,
                threshold: self.cfg.periodic_threshold,
                cause: DeviationCause::Outage { devices },
            });
        } else {
            for (device, (score, dest, elapsed, period)) in worst_absent {
                out.push(Deviation {
                    ts: window_end,
                    score,
                    threshold: self.cfg.periodic_threshold,
                    cause: DeviationCause::Absence {
                        device: self.model_device(device),
                        dest,
                        elapsed,
                        period,
                    },
                });
            }
        }

        // ---- trace assembly (symbol-native) ----------------------------
        // Single pass replicating the String pipeline exactly: segment on
        // gaps between *all* user events, keep only labels of devices the
        // system model covers (the PFSM is built over the observation
        // period's devices and cannot judge others — their events would
        // read as perpetual "new states"), drop traces left empty.
        self.scratch.user_buf.clear();
        for e in &self.scratch.events {
            let EventKind::User { activity, .. } = &e.kind else {
                continue;
            };
            let activity = *activity;
            let (label, device, keep) = match self.scratch.label_cache.entry((e.device, activity)) {
                std::collections::hash_map::Entry::Occupied(o) => *o.get(),
                std::collections::hash_map::Entry::Vacant(v) => {
                    // Cold path: first sight of this (device, activity)
                    // pair — render and intern once.
                    let label = Symbol::intern(&user_label(e.device, activity, &self.models.names));
                    let device = device_sym(&self.models.names, e.device);
                    let keep = self.system.known_device_syms().contains(&device);
                    *v.insert((label, device, keep))
                }
            };
            let idx = self.scratch.user_buf.len() as u32;
            self.scratch.user_buf.push((e.ts, idx, label, device, keep));
        }
        // Unstable sort keyed (ts, arrival index) = the stable sort of the
        // String pipeline, without its merge buffer.
        self.scratch
            .user_buf
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        self.scratch.trace_labels.clear();
        self.scratch.trace_devices.clear();
        self.scratch.trace_bounds.clear();
        self.scratch.trace_bounds.push(0);
        let mut last_ts = f64::NEG_INFINITY;
        let mut any_user = false;
        let mut row_start = 0u32;
        for &(ts, _, label, device, keep) in &self.scratch.user_buf {
            if any_user && ts - last_ts > self.cfg.trace_gap {
                // Close the segment; filtered-empty segments leave no row.
                let row_end = self.scratch.trace_labels.len() as u32;
                if row_end > row_start {
                    self.scratch.trace_bounds.push(row_end);
                    row_start = row_end;
                }
            }
            if keep {
                self.scratch.trace_labels.push(label);
                self.scratch.trace_devices.push(device);
            }
            last_ts = ts;
            any_user = true;
        }
        let row_end = self.scratch.trace_labels.len() as u32;
        if row_end > row_start {
            self.scratch.trace_bounds.push(row_end);
        }
        let n_traces = self.scratch.trace_bounds.len() - 1;

        // ---- short-term + long-term scoring (one Viterbi per trace) ----
        // Short-term deviations are emitted in trace order here; long-term
        // results are counted per trace and emitted after, exactly like
        // the two-pass String pipeline (which re-scored every trace).
        self.scratch.longterm.reset();
        for i in 0..n_traces {
            let row =
                self.scratch.trace_bounds[i] as usize..self.scratch.trace_bounds[i + 1] as usize;
            let trace = &self.scratch.trace_labels[row.clone()];
            self.system
                .log
                .resolve_syms_into(trace, &mut self.scratch.resolved);
            let log10_prob = self
                .system
                .pfsm
                .score_into(&self.scratch.resolved, &mut self.scratch.score);
            let score = 1.0 - log10_prob;
            if score > self.st_threshold {
                let devices = &self.scratch.trace_devices[row];
                out.push(Deviation {
                    ts: window_start,
                    score,
                    threshold: self.st_threshold,
                    cause: DeviationCause::Trace {
                        events: trace.iter().copied().zip(devices.iter().copied()).collect(),
                        log10_prob,
                    },
                });
            }
            self.scratch
                .longterm
                .observe_path(self.scratch.score.path());
        }

        // ---- long-term system deviations --------------------------------
        let crit = self.lt_crit;
        let mut still_deviating: FxHashSet<(Symbol, Symbol)> = FxHashSet::default();
        for r in self.scratch.longterm.finalize(&self.system) {
            if r.n < self.cfg.long_min_n {
                continue;
            }
            let count_diff = (r.observed_p - r.model_p).abs() * r.n as f64;
            if r.z > crit && count_diff >= self.cfg.long_min_count_diff {
                let key = (r.from, r.to);
                still_deviating.insert(key);
                // A persistent frequency shift (e.g. a relocated camera's
                // permanently elevated motion rate) is one deviation at
                // onset, not one per window.
                if self.long_flagged.contains(&key) {
                    continue;
                }
                out.push(Deviation {
                    ts: window_start,
                    score: r.z,
                    threshold: crit,
                    cause: DeviationCause::Transition {
                        from: r.from,
                        to: r.to,
                        from_device: r.from_device,
                        to_device: r.to_device,
                        observed_p: r.observed_p,
                        model_p: r.model_p,
                        n: r.n,
                    },
                });
            }
        }
        self.long_flagged = still_deviating;

        // ---- health fold + ledger emission ------------------------------
        let seq = self.windows;
        self.windows += 1;
        let drop_frac = ingest.as_ref().map(WindowIngest::drop_frac).unwrap_or(0.0);
        let transitions = match &mut self.health {
            Some(h) => h.observe_window(&out, &self.scratch.seen, drop_frac),
            None => &[],
        };
        let dirty_ingest = ingest
            .as_ref()
            .is_some_and(|wi| !wi.report.is_clean() || clamped > 0);
        let mut n_records = 0u64;
        if !out.is_empty() || !transitions.is_empty() || dirty_ingest {
            let line = &mut self.scratch.line;
            line.clear();
            let _ = write!(line, "{{\"record\":\"window\",\"seq\":{seq},\"start\":");
            write_json_f64(line, window_start);
            line.push_str(",\"end\":");
            write_json_f64(line, window_end);
            let _ = write!(
                line,
                ",\"deviations\":{},\"transitions\":{}",
                out.len(),
                transitions.len()
            );
            if let Some(wi) = &ingest {
                let _ = write!(
                    line,
                    ",\"ingest\":{{\"records\":{},\"dropped\":{},\"drop_frac\":",
                    wi.records_total,
                    wi.report.dropped_records()
                );
                write_json_f64(line, drop_frac);
                let _ = write!(
                    line,
                    ",\"reordered\":{},\"clamped\":{}}}",
                    wi.report.reordered,
                    wi.report.clamped_events + clamped
                );
            }
            line.push('}');
            sink.append(line);
            n_records += 1;
            for d in &out {
                line.clear();
                let _ = write!(
                    line,
                    "{{\"record\":\"deviation\",\"seq\":{seq},\"kind\":\"{}\",\"ts\":",
                    d.kind().label()
                );
                write_json_f64(line, d.ts);
                line.push_str(",\"score\":");
                write_json_f64(line, d.score);
                line.push_str(",\"threshold\":");
                write_json_f64(line, d.threshold);
                line.push_str(",\"subject\":");
                write_json_str(line, &d.subject());
                line.push_str(",\"evidence\":");
                match &d.cause {
                    DeviationCause::Gap {
                        device,
                        dest,
                        gap,
                        period,
                    } => {
                        line.push_str("{\"cause\":\"gap\",\"device\":");
                        write_json_str(line, device.as_str());
                        line.push_str(",\"dest\":");
                        write_json_str(line, dest.as_str());
                        line.push_str(",\"gap\":");
                        write_json_f64(line, *gap);
                        line.push_str(",\"period\":");
                        write_json_f64(line, *period);
                        line.push('}');
                    }
                    DeviationCause::Absence {
                        device,
                        dest,
                        elapsed,
                        period,
                    } => {
                        line.push_str("{\"cause\":\"absence\",\"device\":");
                        write_json_str(line, device.as_str());
                        line.push_str(",\"dest\":");
                        write_json_str(line, dest.as_str());
                        line.push_str(",\"elapsed\":");
                        write_json_f64(line, *elapsed);
                        line.push_str(",\"period\":");
                        write_json_f64(line, *period);
                        line.push('}');
                    }
                    DeviationCause::Outage { devices } => {
                        let _ = write!(
                            line,
                            "{{\"cause\":\"outage\",\"devices\":{}}}",
                            devices.len()
                        );
                    }
                    DeviationCause::Trace { events, log10_prob } => {
                        let _ = write!(
                            line,
                            "{{\"cause\":\"trace\",\"events\":{},\"log10_prob\":",
                            events.len()
                        );
                        write_json_f64(line, *log10_prob);
                        line.push('}');
                    }
                    DeviationCause::Transition {
                        from,
                        to,
                        observed_p,
                        model_p,
                        n,
                        ..
                    } => {
                        line.push_str("{\"cause\":\"transition\",\"from\":");
                        write_json_str(line, from.as_str());
                        line.push_str(",\"to\":");
                        write_json_str(line, to.as_str());
                        line.push_str(",\"observed_p\":");
                        write_json_f64(line, *observed_p);
                        line.push_str(",\"model_p\":");
                        write_json_f64(line, *model_p);
                        let _ = write!(line, ",\"n\":{n}}}");
                    }
                }
                line.push('}');
                sink.append(line);
                n_records += 1;
            }
            for t in transitions {
                line.clear();
                let _ = write!(line, "{{\"record\":\"health\",\"seq\":{seq},\"device\":");
                write_json_str(line, t.device.as_str());
                let _ = write!(
                    line,
                    ",\"from\":\"{}\",\"to\":\"{}\",\"reason\":\"{}\"}}",
                    t.from.label(),
                    t.to.label(),
                    t.reason
                );
                sink.append(line);
                n_records += 1;
            }
        }

        monitor_metrics().traces.add(n_traces as u64);
        monitor_metrics().deviations.add(out.len() as u64);
        monitor_metrics().ledger_records.add(n_records);
        span.record("traces", n_traces);
        span.record("deviations", out.len());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{TrainConfig, TrainingData};
    use behaviot_flows::N_FEATURES;
    use behaviot_net::Proto;
    use behaviot_obs::{MemorySink, NullSink};
    use std::collections::HashMap as Map;

    const DEV: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);

    fn flow(dest: &str, start: f64, size: f64) -> FlowRecord {
        let mut features = [0.0; N_FEATURES];
        features[0] = size;
        features[1] = size;
        features[2] = size;
        features[11] = 2.0;
        FlowRecord {
            device: DEV,
            remote: Ipv4Addr::new(52, 0, 0, 1),
            device_port: 30000,
            remote_port: 443,
            proto: Proto::Tcp,
            domain: Some(dest.into()),
            start,
            end: start + 0.1,
            n_packets: 4,
            total_bytes: size as u64 * 4,
            features,
        }
    }

    fn monitor() -> Monitor {
        // Heartbeat every 100 s + one user activity at size 800.
        let idle: Vec<FlowRecord> = (0..600)
            .map(|i| flow("hb.cloud.com", i as f64 * 100.0, 120.0))
            .collect();
        let activity: Vec<(FlowRecord, Option<String>)> = (0..40)
            .flat_map(|i| {
                vec![
                    (
                        flow("ctl.cloud.com", i as f64 * 75.0, 800.0),
                        Some("on_off".to_string()),
                    ),
                    (flow("hb.cloud.com", 10.0 + i as f64 * 75.0, 120.0), None),
                ]
            })
            .collect();
        let refs: Vec<(&FlowRecord, Option<&str>)> =
            activity.iter().map(|(f, l)| (f, l.as_deref())).collect();
        let mut names = Map::new();
        names.insert(DEV, "plug".to_string());
        let data = TrainingData::from_flows(idle, refs, names);
        let models = BehavIoT::train(&data, &TrainConfig::default());

        // System model trained on regular "plug:on_off" traces.
        let traces: Vec<Vec<String>> = (0..30).map(|_| vec!["plug:on_off".to_string()]).collect();
        let system =
            SystemModel::from_traces(&traces, &crate::system::SystemModelConfig::default());
        Monitor::new(models, system, MonitorConfig::default())
    }

    #[test]
    fn healthy_window_is_quiet() {
        let mut m = monitor();
        let flows: Vec<FlowRecord> = (0..86)
            .map(|i| flow("hb.cloud.com", i as f64 * 100.0, 120.0))
            .collect();
        let devs = m.process_window_audited(&flows, 0.0, 8600.0, None, &mut NullSink);
        assert!(devs.is_empty(), "{devs:#?}");
    }

    #[test]
    fn outage_raises_periodic_deviation() {
        let mut m = monitor();
        // Heartbeats for the first 2000 s, then silence until 10000 s.
        let flows: Vec<FlowRecord> = (0..20)
            .map(|i| flow("hb.cloud.com", i as f64 * 100.0, 120.0))
            .collect();
        let devs = m.process_window_audited(&flows, 0.0, 10_000.0, None, &mut NullSink);
        let periodic: Vec<_> = devs
            .iter()
            .filter(|d| d.kind() == DeviationKind::PeriodicTiming)
            .collect();
        assert!(!periodic.is_empty(), "{devs:#?}");
        assert!(periodic[0].subject() == "plug");
        assert!(periodic[0].detail().contains("overdue"));
    }

    #[test]
    fn late_heartbeat_raises_timing_deviation() {
        let mut m = monitor();
        // Regular heartbeats then one arriving 8 periods late (and the
        // window closes right after, so absence isn't also flagged).
        let mut flows: Vec<FlowRecord> = (0..10)
            .map(|i| flow("hb.cloud.com", i as f64 * 100.0, 120.0))
            .collect();
        flows.push(flow("hb.cloud.com", 900.0 + 800.0, 120.0));
        let devs = m.process_window_audited(&flows, 0.0, 1800.0, None, &mut NullSink);
        assert!(
            devs.iter()
                .any(|d| d.kind() == DeviationKind::PeriodicTiming
                    && d.detail().contains("off schedule")),
            "{devs:#?}"
        );
    }

    #[test]
    fn misactivation_burst_raises_system_deviation() {
        let mut m = monitor();
        // 50 user events in quick succession (all within one trace-gap
        // chain would be one long trace; space them to form many traces).
        let mut flows = Vec::new();
        for i in 0..50 {
            flows.push(flow("ctl.cloud.com", i as f64 * 120.0, 800.0));
        }
        // Keep heartbeats alive so no periodic deviation fires.
        for i in 0..60 {
            flows.push(flow("hb.cloud.com", i as f64 * 100.0, 120.0));
        }
        let devs = m.process_window_audited(&flows, 0.0, 6000.0, None, &mut NullSink);
        // The repeated single-event traces match training (plug:on_off),
        // so short-term stays quiet; that is exactly the case the
        // long-term metric exists for — but here frequencies match the
        // model too (every trace is the modeled trace), so nothing fires.
        // Now replay with *pairs* of on_off per trace (unseen structure).
        let mut flows2 = Vec::new();
        for i in 0..30 {
            flows2.push(flow("ctl.cloud.com", 10_000.0 + i as f64 * 120.0, 800.0));
            flows2.push(flow("ctl.cloud.com", 10_005.0 + i as f64 * 120.0, 800.0));
        }
        for i in 0..60 {
            flows2.push(flow("hb.cloud.com", 6000.0 + i as f64 * 100.0, 120.0));
        }
        let devs2 = m.process_window_audited(&flows2, 6000.0, 14_000.0, None, &mut NullSink);
        assert!(
            devs2
                .iter()
                .any(|d| matches!(d.kind(), DeviationKind::ShortTerm | DeviationKind::LongTerm)),
            "quiet: {devs:#?} then {devs2:#?}"
        );
    }

    #[test]
    fn timers_persist_across_windows() {
        let mut m = monitor();
        let flows: Vec<FlowRecord> = (0..20)
            .map(|i| flow("hb.cloud.com", i as f64 * 100.0, 120.0))
            .collect();
        let w1 = m.process_window_audited(&flows, 0.0, 2000.0, None, &mut NullSink);
        assert!(w1.is_empty(), "{w1:#?}");
        // Next window has no heartbeats at all: the timer from window 1
        // must still trigger the absence check.
        let w2 = m.process_window_audited(&[], 2000.0, 12_000.0, None, &mut NullSink);
        assert!(
            w2.iter().any(|d| d.kind() == DeviationKind::PeriodicTiming),
            "{w2:#?}"
        );
    }

    #[test]
    fn inference_clamps_reach_the_ledger_header() {
        // A clean caller-side ingest report, but a flow whose start time
        // the inference stage has to clamp: the window is dirty.
        let mut m = monitor();
        let report = IngestReport::new();
        let ingest = WindowIngest {
            report: &report,
            records_total: 1,
        };
        let mut sink = MemorySink::new();
        let flows = [flow("rare.cloud.com", f64::NAN, 300.0)];
        let devs = m.process_window_audited(&flows, 0.0, 50.0, Some(ingest), &mut sink);
        assert!(devs.is_empty(), "{devs:#?}");
        let lines: Vec<&str> = sink.lines().collect();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(
            lines[0].starts_with("{\"record\":\"window\""),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"clamped\":1}"), "{}", lines[0]);
    }

    #[test]
    fn kind_labels() {
        assert_eq!(DeviationKind::PeriodicTiming.label(), "periodic");
        assert_eq!(DeviationKind::ShortTerm.label(), "short-term");
        assert_eq!(DeviationKind::LongTerm.label(), "long-term");
    }
}
