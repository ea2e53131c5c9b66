//! Determinism of the parallel pipeline: every thread policy — `off`,
//! fixed counts, `auto` — must produce byte-identical models and events.
//! This is the contract that makes `Parallelism` purely a performance
//! knob: the executor shards work but joins results in input order, so
//! parallel output equals the serial reference exactly (no tolerance).

use behaviot::periodic::{PeriodicModelSet, PeriodicTrainConfig};
use behaviot::{BehavIoT, TrainConfig, TrainingData};
use behaviot_dsp::{detect_periods, detect_periods_batch, PeriodConfig};
use behaviot_flows::{assemble_flows, FlowConfig, FlowRecord};
use behaviot_forest::{RandomForest, RandomForestConfig};
use behaviot_par::Parallelism;
use behaviot_sim::{self as sim, Catalog, TruthLabel};
use proptest::prelude::*;
use std::collections::HashMap;

/// The non-serial policies under test. Odd fixed counts exercise uneven
/// chunk deals; `Auto` exercises whatever the host machine has.
const PARALLEL_POLICIES: [Parallelism; 3] = [
    Parallelism::Fixed(2),
    Parallelism::Fixed(7),
    Parallelism::Auto,
];

struct World {
    idle: Vec<FlowRecord>,
    data: TrainingData,
    test_flows: Vec<FlowRecord>,
}

/// A reduced 49-device world: idle + activity training sets and a held-out
/// mixed test window.
fn build_world() -> World {
    let catalog = Catalog::standard();
    let fc = FlowConfig::default();
    let idle_cap = sim::idle_dataset(&catalog, 21, 0.6);
    let act_cap = sim::activity_dataset(&catalog, 22, 5);
    let routine_cap = sim::routine_dataset(&catalog, 23, 1);

    let idle = assemble_flows(&idle_cap.packets, &idle_cap.domains, &fc);
    let act = assemble_flows(&act_cap.packets, &act_cap.domains, &fc);
    let test_flows = assemble_flows(&routine_cap.packets, &routine_cap.domains, &fc);

    let labeled = sim::label_flows(&act, &act_cap, &catalog, 0.75);
    let names: HashMap<_, _> = (0..catalog.devices.len())
        .map(|i| (catalog.device_ip(i), catalog.devices[i].name.clone()))
        .collect();
    let samples = labeled.iter().map(|l| {
        let a = match &l.label {
            Some(TruthLabel::User(a)) => Some(a.as_str()),
            _ => None,
        };
        (&l.flow, a)
    });
    let data = TrainingData::from_flows(idle.clone(), samples, names);
    World {
        idle,
        data,
        test_flows,
    }
}

/// Full pipeline: training under any parallel policy yields models whose
/// inferred events match the `threads: off` reference event-for-event, and
/// inference itself is policy-invariant too.
#[test]
fn pipeline_output_identical_to_serial() {
    let w = build_world();
    let serial_cfg = TrainConfig {
        parallelism: Parallelism::Off,
        ..Default::default()
    };
    let reference = BehavIoT::train(&w.data, &serial_cfg);
    let ref_events = reference.infer_events_with(&w.test_flows, Parallelism::Off);
    assert!(!ref_events.is_empty(), "test window produced no events");

    for par in PARALLEL_POLICIES {
        let cfg = TrainConfig {
            parallelism: par,
            ..Default::default()
        };
        let models = BehavIoT::train(&w.data, &cfg);
        assert_eq!(
            models.periodic.len(),
            reference.periodic.len(),
            "periodic model count differs under {par}"
        );
        for model in reference.periodic.iter() {
            let got = models
                .periodic
                .get(&(model.device, model.destination, model.proto))
                .unwrap_or_else(|| {
                    panic!(
                        "periodic model for {}/{} missing under {par}",
                        model.device, model.destination
                    )
                });
            assert_eq!(
                got.periods, model.periods,
                "periods differ for {} under {par}",
                model.destination
            );
            assert_eq!(
                got.n_train, model.n_train,
                "n_train differs for {} under {par}",
                model.destination
            );
        }
        // Events compare with `==`: same order, same kinds, same
        // user-action confidences to the last bit.
        let events = models.infer_events_with(&w.test_flows, par);
        assert_eq!(events, ref_events, "events differ under {par}");
    }
}

/// The periodic stage alone, over the raw idle dataset.
#[test]
fn periodic_training_identical_to_serial() {
    let w = build_world();
    let cfg = PeriodicTrainConfig::default();
    let reference = PeriodicModelSet::train_with(&w.idle, &cfg, Parallelism::Off);
    for par in PARALLEL_POLICIES {
        let got = PeriodicModelSet::train_with(&w.idle, &cfg, par);
        assert_eq!(
            got.len(),
            reference.len(),
            "model count differs under {par}"
        );
        assert_eq!(
            got.train_coverage, reference.train_coverage,
            "coverage differs under {par}"
        );
        for model in reference.iter() {
            let g = got
                .get(&(model.device, model.destination, model.proto))
                .expect("missing group");
            assert_eq!(
                g.periods, model.periods,
                "{} under {par}",
                model.destination
            );
        }
    }
}

/// The forest stage alone: per-tree training and batch scoring.
#[test]
fn forest_identical_to_serial() {
    let x: Vec<Vec<f64>> = (0..240)
        .map(|i| {
            let base = if i % 2 == 0 { 120.0 } else { 640.0 };
            (0..21)
                .map(|j| base + ((i * 31 + j * 7) % 17) as f64)
                .collect()
        })
        .collect();
    let y: Vec<bool> = (0..240).map(|i| i % 2 == 0).collect();
    let serial = RandomForest::fit(
        &x,
        &y,
        &RandomForestConfig {
            n_trees: 24,
            parallelism: Parallelism::Off,
            ..Default::default()
        },
    );
    let ref_probs = serial.predict_proba_batch(&x, Parallelism::Off);
    for par in PARALLEL_POLICIES {
        let forest = RandomForest::fit(
            &x,
            &y,
            &RandomForestConfig {
                n_trees: 24,
                parallelism: par,
                ..Default::default()
            },
        );
        let probs = forest.predict_proba_batch(&x, par);
        assert_eq!(probs, ref_probs, "forest probabilities differ under {par}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: batch period detection over randomly sized/spaced series
    /// equals the per-series serial detector under every thread count.
    #[test]
    fn period_batch_matches_serial(
        periods in proptest::collection::vec(20.0f64..900.0, 1..12),
        lens in proptest::collection::vec(50usize..300, 1..12),
    ) {
        let n = periods.len().min(lens.len());
        let series: Vec<Vec<f64>> = (0..n)
            .map(|s| (0..lens[s]).map(|k| k as f64 * periods[s]).collect())
            .collect();
        let cfg = PeriodConfig::default();
        let expect: Vec<_> = series.iter().map(|ts| detect_periods(ts, &cfg)).collect();
        for par in [Parallelism::Off, Parallelism::Fixed(3), Parallelism::Auto] {
            let got = detect_periods_batch(&series, &cfg, par);
            prop_assert_eq!(&got, &expect);
        }
    }
}
