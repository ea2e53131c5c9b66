//! Dataset generation + model training shared by the experiments.

use behaviot::{BehavIoT, TrainConfig, TrainingData};
use behaviot_flows::{assemble_flows, FlowConfig, FlowRecord};
use behaviot_par::Parallelism;
use behaviot_sim::{self as sim, Catalog, LabeledFlow, TruthLabel};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Dataset scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Idle-dataset length in days (5 in the paper).
    pub idle_days: f64,
    /// Repetitions per activity in the controlled experiments (≥30 in the
    /// paper).
    pub activity_reps: usize,
    /// Routine-dataset length in days (7 in the paper).
    pub routine_days: usize,
    /// Uncontrolled-experiment length in days (87 in the paper).
    pub uncontrolled_days: usize,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// The paper's dataset sizes.
    pub fn full() -> Self {
        Self {
            idle_days: 5.0,
            activity_reps: 30,
            routine_days: 7,
            uncontrolled_days: 87,
            seed: 0xB07,
        }
    }

    /// Reduced sizes for CI / smoke runs.
    pub fn quick() -> Self {
        Self {
            idle_days: 1.5,
            activity_reps: 12,
            routine_days: 3,
            uncontrolled_days: 20,
            seed: 0xB07,
        }
    }
}

/// Everything the experiments need, built once.
pub struct Prepared {
    /// The testbed.
    pub catalog: Catalog,
    /// Scale used.
    pub scale: Scale,
    /// Idle dataset: labeled flows, chronological.
    pub idle: Vec<LabeledFlow>,
    /// Activity dataset: labeled flows, chronological.
    pub activity: Vec<LabeledFlow>,
    /// Routine dataset: labeled flows, chronological.
    pub routine: Vec<LabeledFlow>,
    /// Device display names by address.
    pub names: HashMap<Ipv4Addr, String>,
    /// Models trained on the full idle + activity datasets.
    pub models: BehavIoT,
    /// Thread policy used for training; experiments that retrain on folds
    /// reuse it so a whole run honors one setting.
    pub parallelism: Parallelism,
}

fn assemble_labeled(cap: &sim::Capture, catalog: &Catalog) -> Vec<LabeledFlow> {
    let flows = assemble_flows(&cap.packets, &cap.domains, &FlowConfig::default());
    sim::label_flows(&flows, cap, catalog, 0.75)
}

impl Prepared {
    /// Generate datasets and train the models with the environment's
    /// thread policy (`BEHAVIOT_THREADS`, default `auto`).
    pub fn build(scale: Scale) -> Self {
        Self::build_with(scale, Parallelism::from_env())
    }

    /// Generate datasets and train the models under an explicit thread
    /// policy. The trained models are identical for every policy.
    pub fn build_with(scale: Scale, parallelism: Parallelism) -> Self {
        let mut span = behaviot_obs::span!("prep.build", idle_days = scale.idle_days);
        let catalog = Catalog::standard();
        let idle_cap = sim::idle_dataset(&catalog, scale.seed, scale.idle_days);
        let activity_cap = sim::activity_dataset(&catalog, scale.seed + 1, scale.activity_reps);
        let routine_cap = sim::routine_dataset(&catalog, scale.seed + 2, scale.routine_days);

        let idle = assemble_labeled(&idle_cap, &catalog);
        let activity = assemble_labeled(&activity_cap, &catalog);
        let routine = assemble_labeled(&routine_cap, &catalog);

        let names: HashMap<Ipv4Addr, String> = (0..catalog.devices.len())
            .map(|i| (catalog.device_ip(i), catalog.devices[i].name.clone()))
            .collect();

        let models = train_on_with(&idle, &activity, &names, parallelism);
        span.record("idle_flows", idle.len());
        span.record("activity_flows", activity.len());
        Prepared {
            catalog,
            scale,
            idle,
            activity,
            routine,
            names,
            models,
            parallelism,
        }
    }

    /// Category label of a device address.
    pub fn category_of(&self, ip: Ipv4Addr) -> String {
        self.catalog
            .device_of_ip(ip)
            .map(|i| self.catalog.devices[i].category.label().to_string())
            .unwrap_or_else(|| "Unknown".to_string())
    }

    /// Device name of an address.
    pub fn name_of(&self, ip: Ipv4Addr) -> String {
        self.names
            .get(&ip)
            .cloned()
            .unwrap_or_else(|| ip.to_string())
    }
}

/// Train device models under an explicit thread policy.
pub fn train_on_with(
    idle: &[LabeledFlow],
    activity: &[LabeledFlow],
    names: &HashMap<Ipv4Addr, String>,
    parallelism: Parallelism,
) -> BehavIoT {
    let idle_flows: Vec<FlowRecord> = idle.iter().map(|l| l.flow.clone()).collect();
    let samples = activity.iter().map(|l| {
        let act = match &l.label {
            Some(TruthLabel::User(a)) => Some(a.as_str()),
            _ => None,
        };
        (&l.flow, act)
    });
    let data = TrainingData::from_flows(idle_flows, samples, names.clone());
    BehavIoT::train(
        &data,
        &TrainConfig {
            parallelism,
            ..Default::default()
        },
    )
}

/// Ground-truth activity of a labeled flow, if it is a user event.
pub fn truth_activity(l: &LabeledFlow) -> Option<&str> {
    match &l.label {
        Some(TruthLabel::User(a)) => Some(a.as_str()),
        _ => None,
    }
}

/// Split a chronologically sorted slice into `k` contiguous time folds.
pub fn time_folds<T: Clone>(items: &[T], k: usize) -> Vec<Vec<T>> {
    let k = k.max(1);
    let per = items.len().div_ceil(k).max(1);
    items.chunks(per).map(|c| c.to_vec()).collect()
}
