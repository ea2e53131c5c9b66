//! The combined event-inference pipeline: every flow burst becomes exactly
//! one of **user event**, **periodic event**, or **aperiodic event**
//! (§4.1's disjoint partition of the traffic).

use crate::event::{EventKind, InferredEvent};
use crate::periodic::{PeriodicModelSet, PeriodicTimers, PeriodicTrainConfig};
use crate::user_action::{TrainingSample, UserActionModels, UserActionTrainConfig};
use behaviot_flows::FlowRecord;
use behaviot_intern::{FxHashMap, Symbol};
use behaviot_par::{par_map, Parallelism};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Everything needed to train the device behavior models.
#[derive(Debug, Clone, Default)]
pub struct TrainingData {
    /// Flows from the idle dataset (no user interactions) — trains the
    /// periodic models and supplies negative samples.
    pub idle_flows: Vec<FlowRecord>,
    /// Labeled samples from the activity dataset.
    pub user_samples: Vec<TrainingSample>,
    /// Optional device display names for reporting.
    pub names: HashMap<Ipv4Addr, String>,
}

impl TrainingData {
    /// Assemble training data from idle flows plus activity-dataset flows
    /// with their ground-truth labels (`Some(activity)` for user events,
    /// `None` for background).
    pub fn from_flows<'a>(
        idle_flows: Vec<FlowRecord>,
        activity_flows: impl IntoIterator<Item = (&'a FlowRecord, Option<&'a str>)>,
        names: HashMap<Ipv4Addr, String>,
    ) -> Self {
        let user_samples = activity_flows
            .into_iter()
            .map(|(f, label)| TrainingSample {
                device: f.device,
                activity: label.map(Symbol::intern),
                features: f.features,
            })
            .collect();
        Self {
            idle_flows,
            user_samples,
            names,
        }
    }
}

/// Training configuration for both device-model families.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Periodic-model settings.
    pub periodic: PeriodicTrainConfig,
    /// User-action-model settings.
    pub user: UserActionTrainConfig,
    /// How many idle-dataset flows per device to add as extra negative
    /// samples for the user-action classifiers (evenly subsampled). Idle
    /// traffic is guaranteed non-user, so it sharpens the user/background
    /// boundary and keeps the §5.1 false-positive rate low.
    pub idle_negatives_per_device: usize,
    /// Thread policy for every pipeline stage (`auto`/`off`/fixed count).
    /// Results are identical under every setting; `off` is the
    /// debugging/equivalence mode.
    pub parallelism: Parallelism,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            periodic: PeriodicTrainConfig::default(),
            user: UserActionTrainConfig::default(),
            idle_negatives_per_device: 400,
            parallelism: Parallelism::Auto,
        }
    }
}

/// The trained device behavior models of a deployment.
#[derive(Debug, Clone)]
pub struct BehavIoT {
    /// Periodic models (timers + DBSCAN).
    pub periodic: PeriodicModelSet,
    /// User-action models (random forests).
    pub user: UserActionModels,
    /// Device display names.
    pub names: HashMap<Ipv4Addr, String>,
}

impl BehavIoT {
    /// Train both model families.
    pub fn train(data: &TrainingData, cfg: &TrainConfig) -> Self {
        // Augment the user-action training set with idle flows as known
        // negatives, evenly subsampled per device.
        let mut samples = data.user_samples.clone();
        if cfg.idle_negatives_per_device > 0 {
            let mut per_device: FxHashMap<Ipv4Addr, Vec<&FlowRecord>> = FxHashMap::default();
            for f in &data.idle_flows {
                per_device.entry(f.device).or_default().push(f);
            }
            for (device, flows) in per_device {
                let stride = flows
                    .len()
                    .checked_div(cfg.idle_negatives_per_device)
                    .unwrap_or(1)
                    .max(1);
                for f in flows.into_iter().step_by(stride) {
                    samples.push(TrainingSample {
                        device,
                        activity: None,
                        features: f.features,
                    });
                }
            }
        }
        // The per-(device, activity) forests honor the pipeline-wide thread
        // policy.
        let mut user_cfg = cfg.user.clone();
        user_cfg.forest.parallelism = cfg.parallelism;
        BehavIoT {
            periodic: PeriodicModelSet::train_with(
                &data.idle_flows,
                &cfg.periodic,
                cfg.parallelism,
            ),
            user: UserActionModels::train(&samples, &user_cfg),
            names: data.names.clone(),
        }
    }

    /// Partition flows into events with the default thread policy. See
    /// [`Self::infer_events_with`].
    pub fn infer_events(&self, flows: &[FlowRecord]) -> Vec<InferredEvent> {
        self.infer_events_with(flows, Parallelism::Auto)
    }

    /// Partition flows into events. Flows are processed in chronological
    /// order; the user-action models run first (they are the only
    /// supervised signal), the periodic timer+cluster stage second, and
    /// whatever matches neither is aperiodic.
    ///
    /// Runs in two phases: per-flow user-action classification is pure, so
    /// it fans out over worker threads; the timer/cluster pass is stateful
    /// (count-up timers advance in flow order) and stays serial. The result
    /// is identical for every thread policy.
    pub fn infer_events_with(&self, flows: &[FlowRecord], par: Parallelism) -> Vec<InferredEvent> {
        self.infer_events_with_report(flows, par).0
    }

    /// [`Self::infer_events_with`] plus ingest accounting: flows carrying a
    /// non-finite start/end or a negative duration (possible when the flow
    /// assembly upstream ran over a corrupted capture) are clamped to a
    /// sane zero-duration form instead of panicking, and each clamp is
    /// counted in the returned [`behaviot_net::IngestReport`]. On
    /// well-formed input the report is all-zero and the events are
    /// identical to [`Self::infer_events_with`].
    pub fn infer_events_with_report(
        &self,
        flows: &[FlowRecord],
        par: Parallelism,
    ) -> (Vec<InferredEvent>, behaviot_net::IngestReport) {
        let mut scratch = EventScratch::new();
        let mut out = Vec::with_capacity(flows.len());
        let report = self.infer_events_in(flows, &mut scratch, &mut out, |flows, order, hits| {
            *hits = par_map(par, order, |&i| self.user_hit(&flows[i as usize]));
        });
        (out, report)
    }

    /// [`Self::infer_events_with_report`] over caller-owned scratch — the
    /// monitor's serving-path variant. Steady state (well-formed flows,
    /// warmed scratch) performs zero heap allocations: the sort runs over a
    /// reusable index buffer, per-flow user hits land in a reusable buffer,
    /// and the periodic timers are reset in place rather than rebuilt.
    /// Sanitizing corrupted flows is the one cold path that still allocates.
    ///
    /// Runs the user-action classifiers serially; by the executor's
    /// serial-equivalence contract the events are identical to
    /// [`Self::infer_events_with`] under every thread policy.
    pub fn infer_events_into(
        &self,
        flows: &[FlowRecord],
        scratch: &mut EventScratch,
        out: &mut Vec<InferredEvent>,
    ) -> behaviot_net::IngestReport {
        self.infer_events_in(flows, scratch, out, |flows, order, hits| {
            hits.clear();
            hits.extend(order.iter().map(|&i| self.user_hit(&flows[i as usize])));
        })
    }

    fn user_hit(&self, f: &FlowRecord) -> Option<(Symbol, f64)> {
        self.user.classify(f.device, &f.features)
    }

    /// The one event-inference body behind both entry points: sanitize,
    /// order chronologically, classify user actions (`user_hits` fills one
    /// verdict per flow of the given order — in parallel for the batch
    /// entry, serially into reused scratch for the serving entry), then the
    /// stateful periodic-timer pass and the counters.
    fn infer_events_in(
        &self,
        flows: &[FlowRecord],
        scratch: &mut EventScratch,
        out: &mut Vec<InferredEvent>,
        user_hits: impl FnOnce(&[FlowRecord], &[u32], &mut Vec<Option<(Symbol, f64)>>),
    ) -> behaviot_net::IngestReport {
        let mut span = behaviot_obs::span!("events.infer", flows = flows.len());
        let mut report = behaviot_net::IngestReport::new();
        let sanitized = sanitize_flows(flows, &mut report);
        let flows: &[FlowRecord] = sanitized.as_deref().unwrap_or(flows);
        // Keyed on (start, original index): an unstable sort that orders
        // exactly like a stable sort on start.
        scratch.order.clear();
        scratch.order.extend(0..flows.len() as u32);
        scratch.order.sort_unstable_by(|&a, &b| {
            flows[a as usize]
                .start
                .total_cmp(&flows[b as usize].start)
                .then(a.cmp(&b))
        });
        user_hits(flows, &scratch.order, &mut scratch.user_hits);
        scratch.timers.reset();
        out.clear();
        for (&i, &user_hit) in scratch.order.iter().zip(&scratch.user_hits) {
            let f = &flows[i as usize];
            let (destination, proto) = f.group_key();
            let kind = if let Some((activity, confidence)) = user_hit {
                // Still advance the periodic timer for this group: the flow
                // occupies the wire whatever we call it.
                let _ = scratch.timers.classify(&self.periodic, f);
                EventKind::User {
                    activity,
                    confidence,
                }
            } else if scratch.timers.classify(&self.periodic, f) {
                EventKind::Periodic { destination, proto }
            } else {
                EventKind::Aperiodic
            };
            out.push(InferredEvent {
                ts: f.start,
                device: f.device,
                destination,
                proto,
                kind,
            });
        }
        let counts = EventCounts::of(out);
        let m = behaviot_obs::metrics();
        m.counter("events.user").add(counts.user as u64);
        m.counter("events.periodic").add(counts.periodic as u64);
        m.counter("events.aperiodic").add(counts.aperiodic as u64);
        span.record("user", counts.user);
        span.record("periodic", counts.periodic);
        span.record("aperiodic", counts.aperiodic);
        report
    }
}

/// Reusable scratch for [`BehavIoT::infer_events_into`]: chronological-order
/// index buffer, per-flow user-action hits, and the streaming periodic
/// timers. Hold one per monitor (or per worker) and reuse it every window.
#[derive(Debug, Default)]
pub struct EventScratch {
    order: Vec<u32>,
    user_hits: Vec<Option<(Symbol, f64)>>,
    timers: PeriodicTimers,
}

impl EventScratch {
    /// New empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Clamp flows carrying a non-finite start/end or a negative duration,
/// noting each clamp in `report`. Returns `None` when nothing needed
/// sanitizing (the overwhelmingly common case — no allocation).
fn sanitize_flows(
    flows: &[FlowRecord],
    report: &mut behaviot_net::IngestReport,
) -> Option<Vec<FlowRecord>> {
    let needs_clamp =
        |f: &FlowRecord| !f.start.is_finite() || !f.end.is_finite() || f.end < f.start;
    if !flows.iter().any(needs_clamp) {
        return None;
    }
    Some(
        flows
            .iter()
            .enumerate()
            .map(|(i, f)| {
                if !needs_clamp(f) {
                    return f.clone();
                }
                let mut f = f.clone();
                if !f.start.is_finite() {
                    f.start = 0.0;
                }
                if !f.end.is_finite() || f.end < f.start {
                    f.end = f.start;
                }
                report.note(
                    behaviot_net::IngestCategory::ClampedEvent,
                    i as u64,
                    f.start,
                    "non-finite or negative flow duration clamped",
                );
                f
            })
            .collect(),
    )
}

/// Per-class event counts, the bookkeeping behind Tables 2 and 9.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EventCounts {
    /// User events.
    pub user: usize,
    /// Periodic events.
    pub periodic: usize,
    /// Aperiodic events.
    pub aperiodic: usize,
}

impl EventCounts {
    /// Count the classes of a batch of events.
    pub fn of(events: &[InferredEvent]) -> Self {
        let mut c = EventCounts::default();
        for e in events {
            match e.kind {
                EventKind::User { .. } => c.user += 1,
                EventKind::Periodic { .. } => c.periodic += 1,
                EventKind::Aperiodic => c.aperiodic += 1,
            }
        }
        c
    }

    /// Total events.
    pub fn total(&self) -> usize {
        self.user + self.periodic + self.aperiodic
    }

    /// Fraction of periodic events.
    pub fn periodic_frac(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.periodic as f64 / self.total() as f64
        }
    }

    /// Fraction of aperiodic events.
    pub fn aperiodic_frac(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.aperiodic as f64 / self.total() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use behaviot_flows::N_FEATURES;
    use behaviot_net::Proto;

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

    fn training_data() -> TrainingData {
        // Idle: heartbeat every 100 s (small size).
        let idle: Vec<FlowRecord> = (0..600)
            .map(|i| flow("hb.cloud.com", i as f64 * 100.0, 120.0))
            .collect();
        // Activity: "on_off" flows (large size) + background negatives.
        let mut activity: Vec<(FlowRecord, Option<String>)> = Vec::new();
        for i in 0..40 {
            activity.push((
                flow("ctl.cloud.com", i as f64 * 75.0, 800.0 + (i % 4) as f64),
                Some("on_off".into()),
            ));
            activity.push((flow("hb.cloud.com", 10.0 + i as f64 * 75.0, 120.0), None));
        }
        let refs: Vec<(&FlowRecord, Option<&str>)> =
            activity.iter().map(|(f, l)| (f, l.as_deref())).collect();
        TrainingData::from_flows(idle, refs, HashMap::new())
    }

    #[test]
    fn pipeline_partitions_disjointly() {
        let models = BehavIoT::train(&training_data(), &TrainConfig::default());
        assert!(!models.periodic.is_empty());
        assert!(models.user.n_models() >= 1);

        // Fresh traffic: 10 heartbeats + 2 user events + 1 oddball.
        let mut test: Vec<FlowRecord> = (0..10)
            .map(|i| flow("hb.cloud.com", 50.0 + i as f64 * 100.0, 120.0))
            .collect();
        test.push(flow("ctl.cloud.com", 333.0, 801.0));
        test.push(flow("ctl.cloud.com", 555.0, 799.0));
        // Background-sized flow to an unmodeled destination: not a user
        // event (classifiers reject background sizes) and not periodic
        // (group unknown) -> aperiodic.
        test.push(flow("weird.example.org", 700.0, 95.0));
        let events = models.infer_events(&test);
        let c = EventCounts::of(&events);
        assert_eq!(c.total(), 13);
        assert_eq!(c.user, 2, "{events:#?}");
        assert!(c.periodic >= 9, "periodic {}", c.periodic);
        assert!(c.aperiodic >= 1);
    }

    #[test]
    fn counts_helpers() {
        let c = EventCounts {
            user: 2,
            periodic: 6,
            aperiodic: 2,
        };
        assert_eq!(c.total(), 10);
        assert!((c.periodic_frac() - 0.6).abs() < 1e-12);
        assert!((c.aperiodic_frac() - 0.2).abs() < 1e-12);
        assert_eq!(EventCounts::default().periodic_frac(), 0.0);
    }

    #[test]
    fn events_sorted_by_time() {
        let models = BehavIoT::train(&training_data(), &TrainConfig::default());
        let test = vec![
            flow("hb.cloud.com", 500.0, 120.0),
            flow("hb.cloud.com", 100.0, 120.0),
        ];
        let events = models.infer_events(&test);
        assert!(events[0].ts <= events[1].ts);
    }

    #[test]
    fn non_finite_durations_clamped_not_panicking() {
        let models = BehavIoT::train(&training_data(), &TrainConfig::default());
        let mut bad_start = flow("hb.cloud.com", 100.0, 120.0);
        bad_start.start = f64::NAN;
        let mut bad_end = flow("hb.cloud.com", 200.0, 120.0);
        bad_end.end = f64::NEG_INFINITY;
        let mut negative = flow("hb.cloud.com", 300.0, 120.0);
        negative.end = negative.start - 5.0;
        let good = flow("hb.cloud.com", 400.0, 120.0);
        let flows = vec![bad_start, bad_end, negative, good.clone()];
        let (events, report) = models.infer_events_with_report(&flows, Parallelism::Off);
        assert_eq!(events.len(), 4);
        assert_eq!(report.clamped_events, 3);
        assert!(events.iter().all(|e| e.ts.is_finite()));
        // A NaN start clamps to 0.0 and therefore sorts first.
        assert_eq!(events[0].ts, 0.0);

        // Well-formed input: all-zero report, identical events.
        let (clean_events, clean_report) =
            models.infer_events_with_report(std::slice::from_ref(&good), Parallelism::Off);
        assert!(clean_report.is_clean());
        assert_eq!(clean_events, models.infer_events(&[good]));
    }

    #[test]
    fn infer_events_into_matches_batch_path() {
        let models = BehavIoT::train(&training_data(), &TrainConfig::default());
        let mut scratch = EventScratch::new();
        let mut out = Vec::new();
        // Several windows through one scratch, including unsorted input,
        // ties, and a corrupt flow.
        let mut corrupt = flow("hb.cloud.com", 300.0, 120.0);
        corrupt.end = f64::NAN;
        let windows: Vec<Vec<FlowRecord>> = vec![
            (0..10)
                .map(|i| flow("hb.cloud.com", 50.0 + i as f64 * 100.0, 120.0))
                .collect(),
            vec![
                flow("ctl.cloud.com", 555.0, 799.0),
                flow("hb.cloud.com", 100.0, 120.0),
                flow("hb.cloud.com", 100.0, 121.0),
            ],
            vec![corrupt, flow("ctl.cloud.com", 333.0, 801.0)],
            vec![],
        ];
        for w in &windows {
            let (expected, expected_report) =
                models.infer_events_with_report(w, Parallelism::Fixed(2));
            let report = models.infer_events_into(w, &mut scratch, &mut out);
            assert_eq!(out, expected);
            assert_eq!(report.clamped_events, expected_report.clamped_events);
        }
    }

    #[test]
    fn empty_everything() {
        let models = BehavIoT::train(&TrainingData::default(), &TrainConfig::default());
        assert!(models.infer_events(&[]).is_empty());
        let events = models.infer_events(&[flow("x.com", 1.0, 10.0)]);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Aperiodic);
    }
}
