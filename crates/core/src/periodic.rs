//! Periodic model inference and classification (§4.1).
//!
//! Training (on the idle dataset): flows are grouped per device by
//! `(destination domain, protocol)`; each group's burst-start timestamps go
//! through the DFT + autocorrelation period detector. Groups with validated
//! periods become *periodic models*.
//!
//! Classification (on future traffic): a flow of a modeled group is a
//! periodic event if the count-up timer since the group's previous event
//! matches a model period; the remainder is checked against a DBSCAN
//! clustering of the group's idle-time features (non-deterministic factors
//! such as congestion defeat pure timers — the motivation for the second
//! stage, ablated in `bench`).

use behaviot_cluster::{Dbscan, DbscanModel, FeatureMatrix, Standardizer};
use behaviot_dsp::period::{PeriodConfig, PeriodDetector};
use behaviot_flows::FlowRecord;
use behaviot_intern::{FxHashMap, Symbol};
use behaviot_net::Proto;
use behaviot_par::{par_map_init, Parallelism};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::OnceLock;

/// Cached handles for the clustering-stage metrics: the registry resolves
/// names through a locked map (and allocates on first insert), so the
/// per-group and per-flow paths look them up once.
struct ClusterMetrics {
    fit_points: behaviot_obs::Histogram,
    match_cores: behaviot_obs::Histogram,
}

fn cluster_metrics() -> &'static ClusterMetrics {
    static M: OnceLock<ClusterMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = behaviot_obs::metrics();
        ClusterMetrics {
            fit_points: r.histogram("cluster.fit"),
            // perfbench reports this histogram's count as
            // `cluster.predict_calls`, so it keeps its name.
            match_cores: r.histogram("cluster.predict"),
        }
    })
}

/// Key of one traffic group: device + destination + protocol. The
/// destination is an interned [`Symbol`], so the key is `Copy` and hashes
/// in O(1).
pub type GroupKey = (Ipv4Addr, Symbol, Proto);

/// The coarse shard of a group key — storing models and timers as
/// `(device, proto) -> destination -> value` two-level maps keeps the
/// per-destination maps small and lets the classifier hot path reuse the
/// shard lookup across stages.
type Shard = (Ipv4Addr, Proto);

/// Configuration for periodic-model training.
#[derive(Debug, Clone)]
pub struct PeriodicTrainConfig {
    /// Period-detector settings.
    pub detector: PeriodConfig,
    /// Timer tolerance: a gap `g` matches period `T` when
    /// `|g − kT|/T ≤ tol` for some integer `k ≥ 1` (k ≤ `max_missed`).
    pub timer_tolerance: f64,
    /// Maximum multiples of the period the timer will bridge (missed
    /// occurrences).
    pub max_missed: u32,
    /// DBSCAN neighborhood radius on standardized features.
    pub dbscan_eps: f64,
    /// DBSCAN core-point density.
    pub dbscan_min_pts: usize,
    /// Cap on DBSCAN training points per group (subsampled evenly).
    pub dbscan_max_train: usize,
}

impl Default for PeriodicTrainConfig {
    fn default() -> Self {
        Self {
            detector: PeriodConfig::default(),
            timer_tolerance: 0.3,
            max_missed: 3,
            dbscan_eps: 1.0,
            dbscan_min_pts: 4,
            dbscan_max_train: 1500,
        }
    }
}

/// One periodic model: a traffic group with validated period(s).
#[derive(Debug, Clone)]
pub struct PeriodicModel {
    /// Device address.
    pub device: Ipv4Addr,
    /// Destination domain (or raw IP), interned.
    pub destination: Symbol,
    /// Transport protocol.
    pub proto: Proto,
    /// Validated periods, strongest first.
    pub periods: Vec<f64>,
    /// Number of idle flows the model was trained on.
    pub n_train: usize,
    standardizer: Standardizer,
    cluster: DbscanModel,
}

impl PeriodicModel {
    /// The dominant (strongest) period.
    pub fn period(&self) -> f64 {
        self.periods[0]
    }

    /// Does a count-up-timer gap match one of the model periods?
    pub fn timer_matches(&self, gap: f64, cfg: &PeriodicTrainConfig) -> bool {
        if gap <= 0.0 {
            // Simultaneous with the previous event: several bursts of one
            // occurrence (possible when congestion merges groups) — accept.
            return true;
        }
        self.periods.iter().any(|&t| {
            let k = (gap / t).round();
            k >= 1.0 && k <= cfg.max_missed as f64 && (gap - k * t).abs() / t <= cfg.timer_tolerance
        })
    }

    /// Does the flow's feature vector fall into one of the idle-traffic
    /// clusters?
    ///
    /// Allocation-free: `scratch` holds the standardized point between
    /// calls (it grows to the feature dimension once and is then reused).
    /// This is the per-flow monitor-path check — the membership test
    /// early-exits at the first core point within `eps`.
    pub fn cluster_matches_with(&self, features: &[f64], scratch: &mut Vec<f64>) -> bool {
        self.standardizer.transform_into(features, scratch);
        cluster_metrics()
            .match_cores
            .record(self.cluster.n_core_points() as u64);
        self.cluster.matches(scratch)
    }

    /// The fitted feature standardizer (serialization surface).
    pub fn standardizer(&self) -> &Standardizer {
        &self.standardizer
    }

    /// The fitted idle-traffic DBSCAN model (serialization surface).
    pub fn cluster(&self) -> &DbscanModel {
        &self.cluster
    }

    /// Rebuild a model from previously exported parts. The standardizer and
    /// cluster carry their own structural validation (see
    /// [`Standardizer::from_params`] / [`DbscanModel::from_parts`]); this
    /// checks the pieces agree with each other and the period list is
    /// usable.
    pub fn from_parts(
        device: Ipv4Addr,
        destination: Symbol,
        proto: Proto,
        periods: Vec<f64>,
        n_train: usize,
        standardizer: Standardizer,
        cluster: DbscanModel,
    ) -> Result<Self, &'static str> {
        if periods.is_empty() {
            return Err("empty period list");
        }
        if periods.iter().any(|p| !p.is_finite() || *p <= 0.0) {
            return Err("non-finite or non-positive period");
        }
        if standardizer.dim() != cluster.dim() {
            return Err("standardizer/cluster dimension mismatch");
        }
        Ok(Self {
            device,
            destination,
            proto,
            periods,
            n_train,
            standardizer,
            cluster,
        })
    }
}

/// The set of periodic models of a deployment, keyed by traffic group.
#[derive(Debug, Clone)]
pub struct PeriodicModelSet {
    models: FxHashMap<Shard, FxHashMap<Symbol, PeriodicModel>>,
    n_models: usize,
    cfg: PeriodicTrainConfig,
    /// Fraction of training flows whose group exhibited periodicity
    /// ("Periodic Coverage" in Table 2).
    pub train_coverage: f64,
}

impl PeriodicModelSet {
    /// Train periodic models from idle-dataset flows with the default
    /// thread policy ([`Parallelism::Auto`]).
    pub fn train(idle_flows: &[FlowRecord], cfg: &PeriodicTrainConfig) -> Self {
        Self::train_with(idle_flows, cfg, Parallelism::Auto)
    }

    /// Train periodic models from idle-dataset flows.
    ///
    /// Traffic groups are independent, so each group's period detection and
    /// DBSCAN fit runs as one unit of work on the executor; groups are
    /// processed in sorted-key order and joined back in that order, making
    /// the result identical for every thread policy.
    pub fn train_with(
        idle_flows: &[FlowRecord],
        cfg: &PeriodicTrainConfig,
        par: Parallelism,
    ) -> Self {
        let mut span = behaviot_obs::span!("periodic.train", flows = idle_flows.len());
        let mut groups: FxHashMap<GroupKey, Vec<&FlowRecord>> = FxHashMap::default();
        for f in idle_flows {
            let (dest, proto) = f.group_key();
            groups.entry((f.device, dest, proto)).or_default().push(f);
        }
        let mut jobs: Vec<(GroupKey, Vec<&FlowRecord>)> = groups.into_iter().collect();
        // `Symbol: Ord` compares by resolved string, so this order (and with
        // it every downstream artifact) is identical to the pre-intern
        // string-keyed pipeline.
        jobs.sort_by_key(|j| j.0);

        let trained: Vec<Option<PeriodicModel>> = par_map_init(
            par,
            &jobs,
            || PeriodDetector::new(cfg.detector.clone()),
            |detector, _, (key, flows)| train_group(key, flows, cfg, detector),
        );

        let mut models: FxHashMap<Shard, FxHashMap<Symbol, PeriodicModel>> = FxHashMap::default();
        let mut n_models = 0usize;
        let mut covered = 0usize;
        for (model, (key, flows)) in trained.into_iter().zip(&jobs) {
            let Some(model) = model else { continue };
            covered += flows.len();
            n_models += 1;
            models
                .entry((key.0, key.2))
                .or_default()
                .insert(key.1, model);
        }
        let train_coverage = if idle_flows.is_empty() {
            0.0
        } else {
            covered as f64 / idle_flows.len() as f64
        };
        let m = behaviot_obs::metrics();
        m.counter("periodic.groups").add(jobs.len() as u64);
        m.counter("periodic.models").add(n_models as u64);
        span.record("groups", jobs.len());
        span.record("models", n_models);
        PeriodicModelSet {
            models,
            n_models,
            cfg: cfg.clone(),
            train_coverage,
        }
    }

    /// Number of periodic models (the quantity of Table 4).
    pub fn len(&self) -> usize {
        self.n_models
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.n_models == 0
    }

    /// Look up the model of a group.
    pub fn get(&self, key: &GroupKey) -> Option<&PeriodicModel> {
        self.models.get(&(key.0, key.2))?.get(&key.1)
    }

    /// Iterate over all models.
    pub fn iter(&self) -> impl Iterator<Item = &PeriodicModel> {
        self.models.values().flat_map(|by_dest| by_dest.values())
    }

    /// Models per device, in device order.
    ///
    /// This crosses a report boundary (Table 4/9 regeneration), so the
    /// return type is a `BTreeMap`: iteration order is the device address
    /// order, not whatever a hash map's seed happens to produce.
    pub fn per_device(&self) -> BTreeMap<Ipv4Addr, usize> {
        let mut out: BTreeMap<Ipv4Addr, usize> = BTreeMap::new();
        for m in self.iter() {
            *out.entry(m.device).or_insert(0) += 1;
        }
        out
    }

    /// Training configuration (exposed for the ablation experiments).
    pub fn config(&self) -> &PeriodicTrainConfig {
        &self.cfg
    }

    /// Rebuild a model set from previously exported models plus the
    /// training configuration and coverage. Two models for the same
    /// `(device, destination, proto)` group are a hard error — silently
    /// letting the last one win would mask a corrupted or hand-edited
    /// snapshot — and the duplicated [`GroupKey`] is returned so the caller
    /// can name it.
    pub fn from_models(
        models: Vec<PeriodicModel>,
        cfg: PeriodicTrainConfig,
        train_coverage: f64,
    ) -> Result<Self, GroupKey> {
        let mut map: FxHashMap<Shard, FxHashMap<Symbol, PeriodicModel>> = FxHashMap::default();
        let mut n_models = 0usize;
        for m in models {
            let key: GroupKey = (m.device, m.destination, m.proto);
            let by_dest = map.entry((key.0, key.2)).or_default();
            if by_dest.contains_key(&key.1) {
                return Err(key);
            }
            by_dest.insert(key.1, m);
            n_models += 1;
        }
        Ok(Self {
            models: map,
            n_models,
            cfg,
            train_coverage,
        })
    }
}

/// Train one traffic group: detect periods; if any validate, fit the
/// standardizer + DBSCAN second stage. Pure function of its inputs (the
/// detector is reusable scratch), so groups can run on any thread.
fn train_group(
    key: &GroupKey,
    flows: &[&FlowRecord],
    cfg: &PeriodicTrainConfig,
    detector: &mut PeriodDetector,
) -> Option<PeriodicModel> {
    let times: Vec<f64> = flows.iter().map(|f| f.start).collect();
    let periods = detector.detect(&times);
    if periods.is_empty() {
        return None;
    }
    // Build the training matrix straight from the flows' inline feature
    // arrays — one flat allocation, no per-flow `Vec`. Subsampling strides
    // over row indices exactly as the old materialize-then-`step_by` did.
    let stride = if flows.len() > cfg.dbscan_max_train {
        flows.len() / cfg.dbscan_max_train + 1
    } else {
        1
    };
    let n_rows = flows.len().div_ceil(stride);
    let mut matrix = FeatureMatrix::with_capacity(behaviot_flows::N_FEATURES, n_rows);
    for f in flows.iter().step_by(stride) {
        matrix.push_row(&f.features);
    }
    let standardizer = Standardizer::fit_matrix(&matrix).expect("non-empty group");
    standardizer.transform_matrix(&mut matrix);
    let cluster = Dbscan {
        eps: cfg.dbscan_eps,
        min_pts: cfg.dbscan_min_pts,
    }
    .fit_matrix(&matrix);
    cluster_metrics().fit_points.record(matrix.n_rows() as u64);
    Some(PeriodicModel {
        device: key.0,
        destination: key.1,
        proto: key.2,
        periods: periods.iter().map(|p| p.period).collect(),
        n_train: flows.len(),
        standardizer,
        cluster,
    })
}

/// Owned timer/scratch state of a streaming periodic classifier, decoupled
/// from the model set it classifies against so long-lived holders (the
/// monitor's per-window scratch) need no borrow of the set.
///
/// The per-flow path is allocation-free once warm: destinations are
/// interned `Symbol`s taken straight from [`FlowRecord::group_key`], so
/// both the model lookup and the timer-table key are 4-byte copies.
///
/// [`Self::reset`] clears the timers in place, keeping the per-shard map
/// capacities: "fresh classifier" semantics without the re-allocation.
#[derive(Debug, Default)]
pub struct PeriodicTimers {
    last_seen: FxHashMap<Shard, FxHashMap<Symbol, f64>>,
    /// Standardized-features scratch for the cluster stage: reused across
    /// flows so the steady-state classify path performs zero allocations
    /// (pinned by `tests/classify_alloc.rs`).
    scratch: Vec<f64>,
}

impl PeriodicTimers {
    /// New empty timer state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear all timers in place without dropping map capacity.
    pub fn reset(&mut self) {
        for timers in self.last_seen.values_mut() {
            timers.clear();
        }
    }

    /// Classify one flow against `set` (flows must arrive in chronological
    /// order): the count-up timer first, then the DBSCAN second stage.
    pub fn classify(&mut self, set: &PeriodicModelSet, flow: &FlowRecord) -> bool {
        let (dest, _) = flow.group_key();
        let shard = (flow.device, flow.proto);
        let Some(model) = set
            .models
            .get(&shard)
            .and_then(|by_dest| by_dest.get(&dest))
        else {
            return false;
        };
        let timers = self.last_seen.entry(shard).or_default();
        let prev = match timers.get_mut(&dest) {
            Some(slot) => Some(std::mem::replace(slot, flow.start)),
            None => {
                timers.insert(dest, flow.start);
                None
            }
        };
        let timer_hit = match prev {
            Some(last) => model.timer_matches(flow.start - last, &set.cfg),
            // First sighting in this stream: the timer has no reference
            // yet; defer to the cluster check.
            None => false,
        };
        timer_hit || model.cluster_matches_with(&flow.features, &mut self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use behaviot_flows::N_FEATURES;

    fn flow(device: u8, dest: &str, start: f64, size: f64) -> FlowRecord {
        let mut features = [0.0; N_FEATURES];
        features[0] = size; // meanBytes
        features[1] = size;
        features[2] = size;
        features[11] = 1.0;
        FlowRecord {
            device: Ipv4Addr::new(192, 168, 1, device),
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

    fn periodic_flows(device: u8, dest: &str, period: f64, n: usize) -> Vec<FlowRecord> {
        (0..n)
            .map(|i| flow(device, dest, 100.0 + i as f64 * period, 150.0))
            .collect()
    }

    /// Classify a chronological run of flows with fresh timers.
    fn classify_all(set: &PeriodicModelSet, flows: &[FlowRecord]) -> Vec<bool> {
        let mut timers = PeriodicTimers::new();
        flows.iter().map(|f| timers.classify(set, f)).collect()
    }

    #[test]
    fn trains_model_for_periodic_group() {
        let flows = periodic_flows(10, "devs.cloud.com", 120.0, 400);
        let set = PeriodicModelSet::train(&flows, &PeriodicTrainConfig::default());
        assert_eq!(set.len(), 1);
        let m = set.iter().next().unwrap();
        assert!((m.period() - 120.0).abs() < 5.0, "{}", m.period());
        assert!((set.train_coverage - 1.0).abs() < 1e-9);
    }

    #[test]
    fn aperiodic_group_gets_no_model() {
        // Irregular gaps.
        let mut t = 0.0;
        let flows: Vec<FlowRecord> = (0..200)
            .map(|i| {
                t += 37.0 + ((i * 7919) % 613) as f64;
                flow(10, "rand.example.com", t, 200.0)
            })
            .collect();
        let set = PeriodicModelSet::train(&flows, &PeriodicTrainConfig::default());
        assert!(set.is_empty());
        assert_eq!(set.train_coverage, 0.0);
    }

    #[test]
    fn classify_timer_hits() {
        let train = periodic_flows(10, "d.com", 100.0, 400);
        let set = PeriodicModelSet::train(&train, &PeriodicTrainConfig::default());
        let test = periodic_flows(10, "d.com", 100.0, 20);
        let labels = classify_all(&set, &test);
        // All but possibly the very first (no timer reference, but cluster
        // catches it) must be periodic.
        assert!(labels.iter().filter(|&&b| b).count() >= 19);
    }

    #[test]
    fn classify_congested_flow_caught_by_cluster() {
        let train = periodic_flows(10, "d.com", 100.0, 400);
        let set = PeriodicModelSet::train(&train, &PeriodicTrainConfig::default());
        // A flow arriving completely off-schedule but with idle-like
        // features.
        let odd = vec![
            flow(10, "d.com", 50.0, 150.0),
            flow(10, "d.com", 95.0, 150.0),
        ];
        let labels = classify_all(&set, &odd);
        assert!(labels[1], "cluster stage should catch off-timer flow");
        // The timer alone misses it: 45 s is no multiple of the period.
        let key = (odd[1].device, Symbol::intern("d.com"), Proto::Tcp);
        let model = set.get(&key).unwrap();
        assert!(!model.timer_matches(odd[1].start - odd[0].start, set.config()));
    }

    #[test]
    fn unknown_group_never_periodic() {
        let train = periodic_flows(10, "d.com", 100.0, 400);
        let set = PeriodicModelSet::train(&train, &PeriodicTrainConfig::default());
        let other = vec![flow(10, "other.com", 100.0, 150.0)];
        assert_eq!(classify_all(&set, &other), vec![false]);
        // Same destination, different device: separate group.
        let other_dev = vec![flow(11, "d.com", 100.0, 150.0)];
        assert_eq!(classify_all(&set, &other_dev), vec![false]);
    }

    #[test]
    fn user_like_flow_rejected_by_cluster() {
        let train = periodic_flows(10, "d.com", 100.0, 400);
        let set = PeriodicModelSet::train(&train, &PeriodicTrainConfig::default());
        // Off schedule AND very different features.
        let user = vec![
            flow(10, "d.com", 42.0, 150.0),
            flow(10, "d.com", 77.0, 2000.0),
        ];
        let labels = classify_all(&set, &user);
        assert!(!labels[1]);
    }

    #[test]
    fn timer_bridges_missed_occurrences() {
        let cfg = PeriodicTrainConfig::default();
        let train = periodic_flows(10, "d.com", 100.0, 400);
        let set = PeriodicModelSet::train(&train, &cfg);
        let m = set.iter().next().unwrap();
        assert!(m.timer_matches(100.0, &cfg));
        assert!(m.timer_matches(200.0, &cfg)); // one missed
        assert!(m.timer_matches(300.0, &cfg)); // two missed
        assert!(!m.timer_matches(460.0, &cfg)); // beyond max_missed & off multiple
        assert!(!m.timer_matches(151.0, &cfg));
    }

    #[test]
    fn per_device_counts() {
        let mut flows = periodic_flows(10, "a.com", 100.0, 300);
        flows.extend(periodic_flows(10, "b.com", 300.0, 150));
        flows.extend(periodic_flows(11, "a.com", 60.0, 500));
        let set = PeriodicModelSet::train(&flows, &PeriodicTrainConfig::default());
        let pd = set.per_device();
        assert_eq!(pd[&Ipv4Addr::new(192, 168, 1, 10)], 2);
        assert_eq!(pd[&Ipv4Addr::new(192, 168, 1, 11)], 1);
    }

    #[test]
    fn empty_training() {
        let set = PeriodicModelSet::train(&[], &PeriodicTrainConfig::default());
        assert!(set.is_empty());
        assert_eq!(set.train_coverage, 0.0);
    }

    #[test]
    fn parallel_train_equals_serial() {
        // Many groups with mixed periodic/aperiodic behavior.
        let mut flows = Vec::new();
        for d in 0..6u8 {
            flows.extend(periodic_flows(10 + d, "a.com", 60.0 + d as f64 * 13.0, 300));
            flows.extend(periodic_flows(10 + d, "b.com", 240.0, 120));
            let mut t = 0.0;
            flows.extend((0..150).map(|i| {
                t += 29.0 + ((i * 7919 + d as usize * 37) % 431) as f64;
                flow(10 + d, "noise.com", t, 300.0)
            }));
        }
        let cfg = PeriodicTrainConfig::default();
        let serial = PeriodicModelSet::train_with(&flows, &cfg, Parallelism::Off);
        for par in [
            Parallelism::Fixed(2),
            Parallelism::Fixed(7),
            Parallelism::Auto,
        ] {
            let p = PeriodicModelSet::train_with(&flows, &cfg, par);
            assert_eq!(p.len(), serial.len());
            assert_eq!(p.train_coverage, serial.train_coverage);
            for m in serial.iter() {
                let key = (m.device, m.destination, m.proto);
                let pm = p.get(&key).expect("model missing in parallel train");
                assert_eq!(pm.periods, m.periods);
                assert_eq!(pm.n_train, m.n_train);
            }
            // Classification behavior must match exactly too.
            let labels_s = classify_all(&serial, &flows);
            let labels_p = classify_all(&p, &flows);
            assert_eq!(labels_s, labels_p);
        }
    }

    #[test]
    fn get_finds_only_the_trained_group() {
        let flows = periodic_flows(10, "devs.cloud.com", 120.0, 400);
        let set = PeriodicModelSet::train(&flows, &PeriodicTrainConfig::default());
        let key = (
            Ipv4Addr::new(192, 168, 1, 10),
            Symbol::intern("devs.cloud.com"),
            Proto::Tcp,
        );
        assert!(set.get(&key).is_some());
        assert!(set
            .get(&(key.0, Symbol::intern("other.com"), Proto::Tcp))
            .is_none());
        assert!(set.get(&(key.0, key.1, Proto::Udp)).is_none());
    }

    #[test]
    fn classifier_handles_ip_fallback_groups() {
        // Flows without DNS resolution group by the interned dotted-quad of
        // the remote IP; the classifier must produce the same keys.
        let mut flows = periodic_flows(10, "ignored", 90.0, 400);
        for f in &mut flows {
            f.domain = None;
        }
        let set = PeriodicModelSet::train(&flows, &PeriodicTrainConfig::default());
        assert_eq!(set.len(), 1);
        let labels = classify_all(&set, &flows);
        assert!(labels.iter().filter(|&&b| b).count() >= flows.len() - 1);
    }
}
