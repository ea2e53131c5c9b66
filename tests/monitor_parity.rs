//! Byte-parity contract of the symbol-native monitor serving path: over
//! full simulated deployments — training, then multi-day uncontrolled
//! streams with the paper-like incident script injected — the live
//! [`Monitor`] must emit a deviation stream **byte-identical** (`{:#?}`
//! per window) to the pre-rewrite String pipeline, kept in
//! `tests/support/monitor_baseline.rs`. Three
//! differently-seeded datasets (distinct catalogs of incidents firing)
//! and both training thread policies (`Off`, `Fixed(2)`) are covered; the
//! per-window comparison catches ordering drift, not just set drift —
//! emission order is part of the contract.

use behaviot::system::{traces_from_events_syms, SystemModel, SystemModelConfig};
use behaviot::{BehavIoT, DeviationKind, Monitor, MonitorConfig, TrainConfig, TrainingData};
use behaviot_flows::{assemble_flows, FlowConfig};
use behaviot_par::Parallelism;
use behaviot_sim::{self as sim, Catalog, IncidentScript, TruthLabel, UncontrolledConfig};
use std::collections::HashMap;

/// The pre-rewrite String pipeline (see the module for provenance).
#[path = "support/monitor_baseline.rs"]
mod baseline;

/// Train device models + system model from a full simulated observation
/// period under the given thread policy (the symbol-native trace path is
/// used for the system model on both sides — the parity subject is the
/// serving path, and `traces_from_events_syms` is itself pinned equal to
/// the String form by `system::tests`).
fn trained(catalog: &Catalog, par: Parallelism) -> (BehavIoT, SystemModel) {
    let fc = FlowConfig::default();
    let idle = sim::idle_dataset(catalog, 31, 0.5);
    let activity = sim::activity_dataset(catalog, 32, 5);
    let routine = sim::routine_dataset(catalog, 33, 2);

    let idle_flows = assemble_flows(&idle.packets, &idle.domains, &fc);
    let act_flows = assemble_flows(&activity.packets, &activity.domains, &fc);
    let labeled = sim::label_flows(&act_flows, &activity, catalog, 0.75);
    let names: HashMap<_, _> = (0..catalog.devices.len())
        .map(|i| (catalog.device_ip(i), catalog.devices[i].name.clone()))
        .collect();
    let samples = labeled.iter().map(|l| {
        let act = match &l.label {
            Some(TruthLabel::User(a)) => Some(a.as_str()),
            _ => None,
        };
        (&l.flow, act)
    });
    let models = BehavIoT::train(
        &TrainingData::from_flows(idle_flows, samples, names.clone()),
        &TrainConfig {
            parallelism: par,
            ..Default::default()
        },
    );
    let routine_flows = assemble_flows(&routine.packets, &routine.domains, &fc);
    let events = models.infer_events(&routine_flows);
    let traces = traces_from_events_syms(&events, &names, 60.0);
    let system = SystemModel::from_traces(&traces, &SystemModelConfig::default());
    (models, system)
}

#[test]
fn deviation_stream_matches_string_pipeline() {
    let catalog = Catalog::standard();
    // Both training policies are checked over the same served days, so
    // each day's flows are built once and fed to every policy's monitors.
    let policies: Vec<(Parallelism, BehavIoT, SystemModel)> =
        [Parallelism::Off, Parallelism::Fixed(2)]
            .into_iter()
            .map(|par| {
                let (models, system) = trained(&catalog, par);
                (par, models, system)
            })
            .collect();
    // Deviations per policy, counted by `DeviationKind` in declaration
    // order (periodic, short-term, long-term).
    let mut totals = vec![[0usize; 3]; policies.len()];

    // Three distinct uncontrolled datasets: different seeds, and the
    // paper-like incident script (relocations, resets, outages,
    // malfunctions, removals) firing on different days.
    for (dataset, seed) in [(0u64, 34u64), (1, 89), (2, 144)] {
        let days = 4;
        let cfg = UncontrolledConfig {
            incidents: IncidentScript::paper_like_scaled(&catalog, days),
            ..Default::default()
        };
        let mut monitors: Vec<(Monitor, baseline::BaselineMonitor)> = policies
            .iter()
            .map(|(_, models, system)| {
                let fast = Monitor::new(models.clone(), system.clone(), MonitorConfig::default());
                let base = baseline::BaselineMonitor::new(
                    models.clone(),
                    system.clone(),
                    MonitorConfig::default(),
                );
                (fast, base)
            })
            .collect();
        for day in 0..days {
            let cap = sim::uncontrolled_day(&catalog, seed, day, &cfg);
            let flows = assemble_flows(&cap.packets, &cap.domains, &FlowConfig::default());
            for (((par, _, _), (fast, base)), total) in
                policies.iter().zip(&mut monitors).zip(&mut totals)
            {
                let got = fast.process_window(&flows, cap.start, cap.end);
                let want = base.process_window(&flows, cap.start, cap.end);
                assert_eq!(
                    format!("{got:#?}"),
                    format!("{want:#?}"),
                    "dataset {dataset} day {day} ({par:?}): deviation streams diverged"
                );
                for d in &got {
                    total[d.kind as usize] += 1;
                }
            }
        }
    }
    // The incident script must make every metric fire: a kind that never
    // appears would leave that metric's parity unchecked.
    let kinds = [
        DeviationKind::PeriodicTiming,
        DeviationKind::ShortTerm,
        DeviationKind::LongTerm,
    ];
    for ((par, _, _), total) in policies.iter().zip(totals) {
        for (kind, n) in kinds.iter().zip(total) {
            assert!(
                n > 0,
                "no {} deviations across any dataset ({par:?})",
                kind.label()
            );
        }
    }
}
