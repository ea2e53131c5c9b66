//! User-action models (§4.1 + Appendix B).
//!
//! One binary Random Forest per `(device, activity)` over the 21 flow
//! features. At prediction time every classifier of the device is offered
//! the flow; the most confident positive wins, and a flow with no positive
//! classifier is *not* a user event (it falls through to the
//! periodic/aperiodic stages). A classifier stops walking its trees as soon
//! as its mean can no longer reach the confidence threshold or beat the
//! best so far ([`RandomForest::predict_proba_reaching`]); one that still
//! can is summed in full, so the winner and its confidence are exactly
//! those of walking every tree.

use behaviot_flows::{FeatureVector, N_FEATURES};
use behaviot_forest::{RandomForest, RandomForestConfig};
use behaviot_intern::{FxHashMap, Symbol};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::OnceLock;

/// Cached handle so the per-flow classify path pays one atomic load, not a
/// registry lookup, per call.
fn predictions_counter() -> &'static behaviot_obs::Counter {
    static C: OnceLock<behaviot_obs::Counter> = OnceLock::new();
    C.get_or_init(|| behaviot_obs::metrics().counter("forest.predictions"))
}

/// Training configuration.
#[derive(Debug, Clone)]
pub struct UserActionTrainConfig {
    /// Forest hyperparameters (seed is re-derived per model).
    pub forest: RandomForestConfig,
    /// Negative samples are capped at this multiple of the positives.
    pub max_negative_ratio: f64,
    /// Activities with fewer positive samples than this are skipped.
    pub min_positives: usize,
    /// Minimum positive-classifier confidence for a flow to be called a
    /// user event. Raising this trades false positives (idle flows that
    /// resemble activities, §5.1's FPR) against false negatives.
    pub confidence_threshold: f64,
}

impl Default for UserActionTrainConfig {
    fn default() -> Self {
        Self {
            forest: RandomForestConfig {
                n_trees: 60,
                ..Default::default()
            },
            max_negative_ratio: 15.0,
            min_positives: 4,
            confidence_threshold: 0.7,
        }
    }
}

/// One training sample: a flow's features plus its ground truth — the
/// activity name for labeled user-event flows, `None` for background
/// (periodic/aperiodic) flows of the same device.
#[derive(Debug, Clone)]
pub struct TrainingSample {
    /// Device address.
    pub device: Ipv4Addr,
    /// `Some(activity)` for user events, `None` for background.
    pub activity: Option<Symbol>,
    /// The 21 features.
    pub features: FeatureVector,
}

/// The per-device set of binary user-action classifiers.
#[derive(Debug, Clone)]
pub struct UserActionModels {
    models: FxHashMap<Ipv4Addr, Vec<(Symbol, RandomForest)>>,
    confidence_threshold: f64,
}

impl UserActionModels {
    /// Train from labeled samples.
    pub fn train(samples: &[TrainingSample], cfg: &UserActionTrainConfig) -> Self {
        let mut per_device: HashMap<Ipv4Addr, Vec<&TrainingSample>> = HashMap::new();
        for s in samples {
            per_device.entry(s.device).or_default().push(s);
        }
        let mut models: FxHashMap<Ipv4Addr, Vec<(Symbol, RandomForest)>> = FxHashMap::default();
        for (device, dev_samples) in per_device {
            // `Symbol: Ord` compares by resolved string, so the BTreeSet
            // yields activities in the same order the string-keyed code did
            // — which keeps the per-model derived seeds (indexed by `ai`)
            // stable.
            let mut activities: Vec<Symbol> = dev_samples
                .iter()
                .filter_map(|s| s.activity)
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            activities.sort();
            let mut dev_models = Vec::new();
            for (ai, &act) in activities.iter().enumerate() {
                let positives: Vec<&&TrainingSample> = dev_samples
                    .iter()
                    .filter(|s| s.activity == Some(act))
                    .collect();
                if positives.len() < cfg.min_positives {
                    continue;
                }
                // Other activities of the same device are the hard
                // negatives — keep every one of them (they are few and
                // subsampling them away would let this classifier claim a
                // sibling activity's flows). Only the plentiful background
                // negatives are subsampled.
                let rival_neg: Vec<&&TrainingSample> = dev_samples
                    .iter()
                    .filter(|s| s.activity.is_some() && s.activity != Some(act))
                    .collect();
                let background: Vec<&&TrainingSample> = dev_samples
                    .iter()
                    .filter(|s| s.activity.is_none())
                    .collect();
                let max_neg = ((positives.len() as f64 * cfg.max_negative_ratio) as usize).max(1);
                let neg_stride = (background.len() / max_neg).max(1);
                let mut kept_neg: Vec<&&TrainingSample> = rival_neg;
                kept_neg.extend(background.iter().step_by(neg_stride).copied());

                let mut x: Vec<Vec<f64>> = Vec::with_capacity(positives.len() + kept_neg.len());
                let mut y: Vec<bool> = Vec::with_capacity(x.capacity());
                for s in &positives {
                    x.push(s.features.to_vec());
                    y.push(true);
                }
                for s in &kept_neg {
                    x.push(s.features.to_vec());
                    y.push(false);
                }
                let seed = cfg
                    .forest
                    .seed
                    .wrapping_add(u64::from(u32::from(device)))
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add(ai as u64);
                let forest = RandomForest::fit(&x, &y, &RandomForestConfig { seed, ..cfg.forest });
                dev_models.push((act, forest));
            }
            if !dev_models.is_empty() {
                models.insert(device, dev_models);
            }
        }
        UserActionModels {
            models,
            confidence_threshold: cfg.confidence_threshold,
        }
    }

    /// Total number of user-action models (the "57 user-action models"
    /// statistic of §6.1).
    pub fn n_models(&self) -> usize {
        self.models.values().map(|v| v.len()).sum()
    }

    /// Number of devices with at least one model.
    pub fn n_devices(&self) -> usize {
        self.models.len()
    }

    /// Activity names modeled for a device.
    pub fn activities(&self, device: Ipv4Addr) -> Vec<&'static str> {
        self.models
            .get(&device)
            .map(|v| v.iter().map(|(a, _)| a.as_str()).collect())
            .unwrap_or_default()
    }

    /// Classify a flow of `device`: the most confident positive classifier
    /// wins, and the first of equally confident ones; `None` when no
    /// classifier fires (not a user event). The returned label is an
    /// interned [`Symbol`] — no allocation per call. Each classifier counts
    /// as one `forest.predictions`, whether or not its walk stops early.
    pub fn classify(&self, device: Ipv4Addr, features: &FeatureVector) -> Option<(Symbol, f64)> {
        debug_assert_eq!(features.len(), N_FEATURES);
        let dev_models = self.models.get(&device)?;
        predictions_counter().add(dev_models.len() as u64);
        let mut best: Option<(Symbol, f64)> = None;
        for (act, forest) in dev_models {
            // A best so far is at least the threshold, so it is the bound.
            let bound = best.map_or(self.confidence_threshold, |(_, bp)| bp);
            let Some(p) = forest.predict_proba_reaching(features, bound) else {
                continue;
            };
            if p >= self.confidence_threshold && best.is_none_or(|(_, bp)| p > bp) {
                best = Some((*act, p));
            }
        }
        best
    }

    /// The confidence threshold the classifiers were configured with
    /// (serialization surface).
    pub fn confidence_threshold(&self) -> f64 {
        self.confidence_threshold
    }

    /// Every device's `(activity, forest)` list, sorted by device address
    /// (serialization surface — deterministic order regardless of hash-map
    /// iteration).
    pub fn device_models(&self) -> Vec<(Ipv4Addr, &[(Symbol, RandomForest)])> {
        let mut out: Vec<(Ipv4Addr, &[(Symbol, RandomForest)])> = self
            .models
            .iter()
            .map(|(&d, v)| (d, v.as_slice()))
            .collect();
        out.sort_by_key(|(d, _)| *d);
        out
    }

    /// Rebuild from previously exported per-device model lists. Two entries
    /// for the same device are a hard error (the duplicated address is
    /// returned); silently merging or last-wins would mask a corrupted
    /// snapshot.
    pub fn from_parts(
        device_models: Vec<(Ipv4Addr, Vec<(Symbol, RandomForest)>)>,
        confidence_threshold: f64,
    ) -> Result<Self, Ipv4Addr> {
        let mut models: FxHashMap<Ipv4Addr, Vec<(Symbol, RandomForest)>> = FxHashMap::default();
        for (device, list) in device_models {
            if models.contains_key(&device) {
                return Err(device);
            }
            models.insert(device, list);
        }
        Ok(Self {
            models,
            confidence_threshold,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEV: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);

    fn sample(
        device: Ipv4Addr,
        activity: Option<&str>,
        mean_bytes: f64,
        n_out: f64,
    ) -> TrainingSample {
        let mut features = [0.0; N_FEATURES];
        features[0] = mean_bytes;
        features[1] = mean_bytes - 10.0;
        features[2] = mean_bytes + 10.0;
        features[11] = n_out;
        features[13] = n_out * 2.0;
        TrainingSample {
            device,
            activity: activity.map(Symbol::intern),
            features,
        }
    }

    fn dataset() -> Vec<TrainingSample> {
        let mut out = Vec::new();
        for i in 0..30 {
            let wiggle = (i % 5) as f64;
            out.push(sample(DEV, Some("on_off"), 200.0 + wiggle, 2.0));
            out.push(sample(DEV, Some("color"), 400.0 + wiggle, 3.0));
            // background heartbeats
            out.push(sample(DEV, None, 90.0 + wiggle, 1.0));
            out.push(sample(DEV, None, 95.0 + wiggle, 1.0));
        }
        out
    }

    #[test]
    fn learns_and_classifies_activities() {
        let m = UserActionModels::train(&dataset(), &UserActionTrainConfig::default());
        assert_eq!(m.n_models(), 2);
        assert_eq!(m.n_devices(), 1);
        let (act, conf) = m
            .classify(DEV, &sample(DEV, None, 201.0, 2.0).features)
            .unwrap();
        assert_eq!(act, "on_off");
        assert!(conf >= 0.5);
        let (act, _) = m
            .classify(DEV, &sample(DEV, None, 398.0, 3.0).features)
            .unwrap();
        assert_eq!(act, "color");
    }

    #[test]
    fn background_not_user_event() {
        let m = UserActionModels::train(&dataset(), &UserActionTrainConfig::default());
        assert!(m
            .classify(DEV, &sample(DEV, None, 92.0, 1.0).features)
            .is_none());
    }

    #[test]
    fn unknown_device_none() {
        let m = UserActionModels::train(&dataset(), &UserActionTrainConfig::default());
        let other = Ipv4Addr::new(192, 168, 1, 99);
        assert!(m
            .classify(other, &sample(DEV, None, 200.0, 2.0).features)
            .is_none());
    }

    #[test]
    fn min_positives_skips_rare_activities() {
        let mut data = dataset();
        data.push(sample(DEV, Some("rare"), 999.0, 9.0));
        let m = UserActionModels::train(&data, &UserActionTrainConfig::default());
        assert_eq!(m.n_models(), 2);
        assert!(!m.activities(DEV).contains(&"rare"));
    }

    #[test]
    fn deterministic_training() {
        let cfg = UserActionTrainConfig::default();
        let m1 = UserActionModels::train(&dataset(), &cfg);
        let m2 = UserActionModels::train(&dataset(), &cfg);
        let probe = sample(DEV, None, 210.0, 2.0).features;
        assert_eq!(m1.classify(DEV, &probe), m2.classify(DEV, &probe));
    }

    #[test]
    fn devices_are_isolated() {
        let dev2 = Ipv4Addr::new(192, 168, 1, 11);
        let mut data = dataset();
        for i in 0..30 {
            data.push(sample(dev2, Some("ring"), 600.0 + (i % 3) as f64, 4.0));
            data.push(sample(dev2, None, 100.0, 1.0));
        }
        let m = UserActionModels::train(&data, &UserActionTrainConfig::default());
        // DEV's classifier set doesn't know "ring".
        assert!(!m.activities(DEV).contains(&"ring"));
        let (act, _) = m
            .classify(dev2, &sample(dev2, None, 600.0, 4.0).features)
            .unwrap();
        assert_eq!(act, "ring");
    }

    #[test]
    fn empty_training_set() {
        let m = UserActionModels::train(&[], &UserActionTrainConfig::default());
        assert_eq!(m.n_models(), 0);
        assert!(m.classify(DEV, &[0.0; N_FEATURES]).is_none());
    }
}
