//! Per-device fleet health: a deterministic state machine folding the
//! monitor's deviation stream and the ingest-gate drop budget into one
//! operator-facing state per device, with fleet rollup metrics.
//!
//! # States and hysteresis
//!
//! - **Healthy** — recent windows carried traffic, no deviations, ingest
//!   drops within budget.
//! - **Deviant** — a deviation implicated the device this window, or the
//!   device has not yet strung together [`HealthConfig::recover_after`]
//!   clean windows since one did.
//! - **Degraded** — no deviation, but the ingest gates dropped more than
//!   [`HealthConfig::degrade_drop_frac`] of the window's records, so a
//!   quiet verdict is not trustworthy evidence of health.
//! - **Stale** — no traffic at all for [`HealthConfig::stale_after`]
//!   consecutive windows; the models have nothing to judge.
//!
//! Recovery is hysteretic: a device leaves Deviant/Degraded/Stale only
//! after `recover_after` consecutive *clean* windows — windows where it was
//! seen, implicated in nothing, and under the drop budget. Deviations and
//! over-budget windows reset the streak; silent windows freeze it (absence
//! of evidence is not evidence of recovery). This keeps a device that
//! deviates every few windows pinned at Deviant instead of oscillating.
//!
//! # Determinism
//!
//! The registry is keyed and iterated via `BTreeMap<Symbol, _>` — [`Symbol`]
//! ordering is resolved-string ordering — so per-window transition records
//! and the exported state are in device-name order regardless of how the
//! per-window seen set was accumulated. All inputs (deviation stream, drop
//! counters) are themselves policy-invariant, so health outputs inherit
//! the byte-determinism contract.

use crate::monitor::{Deviation, DeviationKind};
use behaviot_intern::{FxHashSet, Symbol};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Fleet rollup gauges + transition counter, resolved once process-wide.
struct FleetMetrics {
    healthy: behaviot_obs::Gauge,
    degraded: behaviot_obs::Gauge,
    deviant: behaviot_obs::Gauge,
    stale: behaviot_obs::Gauge,
    transitions: behaviot_obs::Counter,
}

fn fleet_metrics() -> &'static FleetMetrics {
    static METRICS: OnceLock<FleetMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let m = behaviot_obs::metrics();
        FleetMetrics {
            healthy: m.gauge("fleet.healthy"),
            degraded: m.gauge("fleet.degraded"),
            deviant: m.gauge("fleet.deviant"),
            stale: m.gauge("fleet.stale"),
            transitions: m.counter("fleet.transitions"),
        }
    })
}

/// Operator-facing device state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Traffic present, no deviations, drops within budget.
    Healthy,
    /// Quiet, but ingest drops exceeded the budget — verdict untrusted.
    Degraded,
    /// Implicated in a deviation, not yet recovered.
    Deviant,
    /// No traffic for `stale_after` consecutive windows.
    Stale,
}

impl HealthState {
    /// Stable lowercase label (ledger records, store artifact).
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Deviant => "deviant",
            HealthState::Stale => "stale",
        }
    }

    /// Parse a [`Self::label`] back.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "healthy" => HealthState::Healthy,
            "degraded" => HealthState::Degraded,
            "deviant" => HealthState::Deviant,
            "stale" => HealthState::Stale,
            _ => return None,
        })
    }
}

/// Hysteresis thresholds of the health state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// Ingest drop fraction above which a quiet window marks the device
    /// Degraded instead of counting toward recovery.
    pub degrade_drop_frac: f64,
    /// Consecutive clean windows required to return to Healthy.
    pub recover_after: u32,
    /// Consecutive silent windows before a device is Stale.
    pub stale_after: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            degrade_drop_frac: 0.01,
            recover_after: 3,
            stale_after: 3,
        }
    }
}

/// Per-device fold state.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DeviceHealth {
    state: HealthState,
    /// Consecutive clean windows (seen + no deviation + under budget).
    clean_streak: u32,
    /// Consecutive windows without any traffic from the device.
    silent_windows: u32,
}

impl DeviceHealth {
    fn fresh() -> Self {
        Self {
            state: HealthState::Healthy,
            clean_streak: 0,
            silent_windows: 0,
        }
    }
}

/// One state change, in device-name order within the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthTransition {
    /// Device label.
    pub device: Symbol,
    /// State before this window.
    pub from: HealthState,
    /// State after this window.
    pub to: HealthState,
    /// Stable cause tag: `deviation:<kind>`, `ingest-drops`, `stale`, or
    /// `recovered`.
    pub reason: &'static str,
}

/// Exported registry state for durable checkpoints (the store's optional
/// `health` artifact). Records are sorted by device label.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthExport {
    /// The hysteresis configuration in effect.
    pub cfg: HealthConfig,
    /// Per-device `(device, state, clean_streak, silent_windows)` rows in
    /// device-name order.
    pub records: Vec<(Symbol, HealthState, u32, u32)>,
}

/// The fleet health registry: one [`HealthState`] per registered device,
/// folded window by window from the monitor's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthRegistry {
    cfg: HealthConfig,
    devices: BTreeMap<Symbol, DeviceHealth>,
    /// Transitions of the most recent window (reused buffer).
    transitions: Vec<HealthTransition>,
}

impl HealthRegistry {
    /// An empty registry with the given hysteresis configuration.
    pub fn new(cfg: HealthConfig) -> Self {
        Self {
            cfg,
            devices: BTreeMap::new(),
            transitions: Vec::new(),
        }
    }

    /// The hysteresis configuration.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Register a device (idempotent; new devices start Healthy).
    pub fn register(&mut self, device: Symbol) {
        self.devices
            .entry(device)
            .or_insert_with(DeviceHealth::fresh);
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// No devices registered?
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Current state of a device, if registered.
    pub fn state(&self, device: Symbol) -> Option<HealthState> {
        self.devices.get(&device).map(|d| d.state)
    }

    /// Iterate `(device, state)` in device-name order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, HealthState)> + '_ {
        self.devices.iter().map(|(&d, h)| (d, h.state))
    }

    /// Fold one window into every registered device and return the state
    /// transitions it caused, in device-name order.
    ///
    /// - `deviations`: the window's deviations in emission order. A device
    ///   is implicated when a deviation's cause names it; the kind of the
    ///   first such deviation tags the transition reason. Implicated
    ///   devices that are not registered are ignored.
    /// - `seen`: devices with at least one inferred event this window.
    /// - `drop_frac`: the ingest gates' drop fraction for this window
    ///   (0 when no ingest report is in scope).
    ///
    /// Allocation-free once the transition buffer has grown to its
    /// high-water mark and no transitions fire (the healthy steady state).
    pub fn observe_window(
        &mut self,
        deviations: &[Deviation],
        seen: &FxHashSet<Symbol>,
        drop_frac: f64,
    ) -> &[HealthTransition] {
        self.transitions.clear();
        let over_budget = drop_frac > self.cfg.degrade_drop_frac;
        for (&device, h) in self.devices.iter_mut() {
            let before = h.state;
            let is_seen = seen.contains(&device);
            if is_seen {
                h.silent_windows = 0;
            } else {
                h.silent_windows = h.silent_windows.saturating_add(1);
            }
            let mut reason = "";
            if let Some(d) = deviations.iter().find(|d| d.implicates(device)) {
                h.clean_streak = 0;
                h.state = HealthState::Deviant;
                reason = match d.kind() {
                    DeviationKind::PeriodicTiming => "deviation:periodic",
                    DeviationKind::ShortTerm => "deviation:short-term",
                    DeviationKind::LongTerm => "deviation:long-term",
                };
            } else if over_budget {
                // The verdict on this window is untrustworthy: freeze any
                // recovery and degrade devices that were Healthy (worse
                // states keep their worse verdict).
                h.clean_streak = 0;
                if h.state == HealthState::Healthy {
                    h.state = HealthState::Degraded;
                    reason = "ingest-drops";
                }
            } else if h.silent_windows >= self.cfg.stale_after {
                h.state = HealthState::Stale;
                reason = "stale";
            } else if is_seen {
                h.clean_streak = h.clean_streak.saturating_add(1);
                if h.state != HealthState::Healthy && h.clean_streak >= self.cfg.recover_after {
                    h.state = HealthState::Healthy;
                    reason = "recovered";
                }
            }
            // A silent-but-not-yet-stale window changes nothing: the clean
            // streak is frozen, not reset.
            if h.state != before {
                self.transitions.push(HealthTransition {
                    device,
                    from: before,
                    to: h.state,
                    reason,
                });
            }
        }
        fleet_metrics()
            .transitions
            .add(self.transitions.len() as u64);
        self.publish_rollup();
        &self.transitions
    }

    /// Transitions of the most recent window (same slice
    /// [`Self::observe_window`] returned).
    pub fn last_transitions(&self) -> &[HealthTransition] {
        &self.transitions
    }

    /// Count devices per state: `(healthy, degraded, deviant, stale)`.
    pub fn rollup(&self) -> (usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0);
        for h in self.devices.values() {
            match h.state {
                HealthState::Healthy => counts.0 += 1,
                HealthState::Degraded => counts.1 += 1,
                HealthState::Deviant => counts.2 += 1,
                HealthState::Stale => counts.3 += 1,
            }
        }
        counts
    }

    /// Publish the rollup to the `fleet.*` gauges.
    pub fn publish_rollup(&self) {
        let (healthy, degraded, deviant, stale) = self.rollup();
        let m = fleet_metrics();
        m.healthy.set(healthy as i64);
        m.degraded.set(degraded as i64);
        m.deviant.set(deviant as i64);
        m.stale.set(stale as i64);
    }

    /// Snapshot the registry for a durable checkpoint, rows in device-name
    /// order.
    pub fn export(&self) -> HealthExport {
        HealthExport {
            cfg: self.cfg.clone(),
            records: self
                .devices
                .iter()
                .map(|(&d, h)| (d, h.state, h.clean_streak, h.silent_windows))
                .collect(),
        }
    }

    /// Rebuild a registry from an export. Continues the health timeline
    /// exactly where the exporting registry left off.
    pub fn restore(export: HealthExport) -> Self {
        let mut reg = Self::new(export.cfg);
        for (device, state, clean_streak, silent_windows) in export.records {
            reg.devices.insert(
                device,
                DeviceHealth {
                    state,
                    clean_streak,
                    silent_windows,
                },
            );
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::DeviationCause;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    /// A deviation of `kind` implicating `device` alone.
    fn implicating(device: &str, kind: DeviationKind) -> Deviation {
        let device = sym(device);
        let cause = match kind {
            DeviationKind::PeriodicTiming => DeviationCause::Gap {
                device,
                dest: sym("cloud.example"),
                gap: 500.0,
                period: 100.0,
            },
            DeviationKind::ShortTerm => DeviationCause::Trace {
                events: vec![(sym("label"), device)],
                log10_prob: -9.0,
            },
            DeviationKind::LongTerm => DeviationCause::Transition {
                from: sym("INITIAL"),
                to: sym("label"),
                from_device: None,
                to_device: Some(device),
                observed_p: 0.9,
                model_p: 0.1,
                n: 20,
            },
        };
        Deviation {
            ts: 0.0,
            score: 10.0,
            threshold: 1.0,
            cause,
        }
    }

    fn observe(
        reg: &mut HealthRegistry,
        deviant: &[(&str, DeviationKind)],
        seen: &[&str],
        drop_frac: f64,
    ) -> Vec<HealthTransition> {
        let deviations: Vec<Deviation> = deviant.iter().map(|&(d, k)| implicating(d, k)).collect();
        let seen: FxHashSet<Symbol> = seen.iter().map(|&d| sym(d)).collect();
        reg.observe_window(&deviations, &seen, drop_frac).to_vec()
    }

    #[test]
    fn state_labels_round_trip() {
        for s in [
            HealthState::Healthy,
            HealthState::Degraded,
            HealthState::Deviant,
            HealthState::Stale,
        ] {
            assert_eq!(HealthState::parse(s.label()), Some(s));
        }
        assert_eq!(HealthState::parse("zombie"), None);
    }

    #[test]
    fn deviation_marks_deviant_and_recovery_is_hysteretic() {
        let mut reg = HealthRegistry::new(HealthConfig::default());
        reg.register(sym("plug"));
        // Deviation: Healthy -> Deviant.
        let t = observe(
            &mut reg,
            &[("plug", DeviationKind::PeriodicTiming)],
            &["plug"],
            0.0,
        );
        assert_eq!(t.len(), 1);
        assert_eq!(
            (t[0].from, t[0].to),
            (HealthState::Healthy, HealthState::Deviant)
        );
        assert_eq!(t[0].reason, "deviation:periodic");
        // Two clean windows: still Deviant (recover_after = 3).
        for _ in 0..2 {
            let t = observe(&mut reg, &[], &["plug"], 0.0);
            assert!(t.is_empty(), "{t:?}");
            assert_eq!(reg.state(sym("plug")), Some(HealthState::Deviant));
        }
        // Third clean window: recovered.
        let t = observe(&mut reg, &[], &["plug"], 0.0);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].to, HealthState::Healthy);
        assert_eq!(t[0].reason, "recovered");
    }

    #[test]
    fn deviation_resets_recovery_streak() {
        let mut reg = HealthRegistry::new(HealthConfig::default());
        reg.register(sym("cam"));
        observe(&mut reg, &[("cam", DeviationKind::LongTerm)], &["cam"], 0.0);
        observe(&mut reg, &[], &["cam"], 0.0);
        observe(&mut reg, &[], &["cam"], 0.0);
        // A fresh deviation on the verge of recovery restarts the count.
        observe(&mut reg, &[("cam", DeviationKind::LongTerm)], &["cam"], 0.0);
        for _ in 0..2 {
            observe(&mut reg, &[], &["cam"], 0.0);
            assert_eq!(reg.state(sym("cam")), Some(HealthState::Deviant));
        }
        observe(&mut reg, &[], &["cam"], 0.0);
        assert_eq!(reg.state(sym("cam")), Some(HealthState::Healthy));
    }

    #[test]
    fn drop_budget_degrades_quiet_devices_only() {
        let mut reg = HealthRegistry::new(HealthConfig::default());
        reg.register(sym("plug"));
        reg.register(sym("cam"));
        let t = observe(
            &mut reg,
            &[("cam", DeviationKind::ShortTerm)],
            &["plug", "cam"],
            0.5,
        );
        // cam: deviation wins over drops; plug: degraded.
        assert_eq!(reg.state(sym("cam")), Some(HealthState::Deviant));
        assert_eq!(reg.state(sym("plug")), Some(HealthState::Degraded));
        // Transitions are in device-name order (cam < plug).
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].device, sym("cam"));
        assert_eq!(t[1].device, sym("plug"));
        assert_eq!(t[1].reason, "ingest-drops");
        // Recovery once drops subside.
        for _ in 0..3 {
            observe(&mut reg, &[], &["plug", "cam"], 0.0);
        }
        assert_eq!(reg.state(sym("plug")), Some(HealthState::Healthy));
        assert_eq!(reg.state(sym("cam")), Some(HealthState::Healthy));
    }

    #[test]
    fn prolonged_silence_goes_stale_and_freezes_recovery() {
        let mut reg = HealthRegistry::new(HealthConfig::default());
        reg.register(sym("hub"));
        observe(
            &mut reg,
            &[("hub", DeviationKind::PeriodicTiming)],
            &[],
            0.0,
        );
        assert_eq!(reg.state(sym("hub")), Some(HealthState::Deviant));
        // Silent (not yet stale): state frozen, no sneaky recovery.
        observe(&mut reg, &[], &[], 0.0);
        assert_eq!(reg.state(sym("hub")), Some(HealthState::Deviant));
        // Third consecutive silent window: Stale.
        let t = observe(&mut reg, &[], &[], 0.0);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].to, HealthState::Stale);
        assert_eq!(t[0].reason, "stale");
        // Traffic resumes: three clean windows back to Healthy.
        observe(&mut reg, &[], &["hub"], 0.0);
        observe(&mut reg, &[], &["hub"], 0.0);
        let t = observe(&mut reg, &[], &["hub"], 0.0);
        assert_eq!(t.len(), 1);
        assert_eq!(
            (t[0].from, t[0].to),
            (HealthState::Stale, HealthState::Healthy)
        );
    }

    #[test]
    fn rollup_counts_all_states() {
        let mut reg = HealthRegistry::new(HealthConfig::default());
        for d in ["a", "b", "c", "d"] {
            reg.register(sym(d));
        }
        observe(
            &mut reg,
            &[("a", DeviationKind::ShortTerm)],
            &["a", "b"],
            0.0,
        );
        observe(&mut reg, &[], &["a", "b"], 0.0);
        observe(&mut reg, &[], &["a", "b"], 0.0);
        // a: Deviant; b: Healthy; c, d: Stale after 3 silent windows.
        assert_eq!(reg.rollup(), (1, 0, 1, 2));
    }

    #[test]
    fn export_restore_round_trips() {
        let mut reg = HealthRegistry::new(HealthConfig {
            degrade_drop_frac: 0.05,
            recover_after: 2,
            stale_after: 4,
        });
        reg.register(sym("b"));
        reg.register(sym("a"));
        observe(&mut reg, &[("a", DeviationKind::LongTerm)], &["a"], 0.0);
        let export = reg.export();
        // Export rows are device-name ordered.
        assert_eq!(export.records[0].0, sym("a"));
        let restored = HealthRegistry::restore(export.clone());
        assert_eq!(restored.export(), export);
        assert_eq!(restored.state(sym("a")), Some(HealthState::Deviant));
        // The restored registry continues the same timeline.
        let mut orig = reg;
        let mut rest = restored;
        for _ in 0..3 {
            let a = observe(&mut orig, &[], &["a", "b"], 0.0);
            let b = observe(&mut rest, &[], &["a", "b"], 0.0);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn first_implicating_deviation_names_the_reason() {
        let mut reg = HealthRegistry::new(HealthConfig::default());
        for d in ["cam", "hub", "plug"] {
            reg.register(sym(d));
        }
        // Emission order: a gap on the hub, then a trace through cam and
        // hub, then a transition into plug.
        let trace = Deviation {
            cause: DeviationCause::Trace {
                events: vec![(sym("cam:motion"), sym("cam")), (sym("hub:on"), sym("hub"))],
                log10_prob: -9.0,
            },
            ..implicating("cam", DeviationKind::ShortTerm)
        };
        let deviations = [
            implicating("hub", DeviationKind::PeriodicTiming),
            trace,
            implicating("plug", DeviationKind::LongTerm),
        ];
        let seen: FxHashSet<Symbol> = FxHashSet::default();
        let t = reg.observe_window(&deviations, &seen, 0.0).to_vec();
        let reasons: Vec<(&str, &str)> = t.iter().map(|t| (t.device.as_str(), t.reason)).collect();
        assert_eq!(
            reasons,
            [
                ("cam", "deviation:short-term"),
                ("hub", "deviation:periodic"),
                ("plug", "deviation:long-term"),
            ]
        );
    }

    #[test]
    fn unregistered_deviants_are_ignored() {
        let mut reg = HealthRegistry::new(HealthConfig::default());
        reg.register(sym("known"));
        let t = observe(
            &mut reg,
            &[("ghost", DeviationKind::ShortTerm)],
            &["known"],
            0.0,
        );
        assert!(t.is_empty());
        assert_eq!(reg.state(sym("ghost")), None);
    }
}
