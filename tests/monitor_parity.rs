//! Byte-parity contract of the symbol-native monitor serving path: over
//! full simulated deployments — training, then multi-day uncontrolled
//! streams with the paper-like incident script injected — the live
//! [`Monitor`] must emit a deviation stream **byte-identical** (`{:#?}`
//! per window) to the pre-rewrite String pipeline, kept in
//! `tests/support/monitor_baseline.rs`. Each live deviation is projected
//! onto the predecessor's six fields (`ts`, `kind`, `score`, `threshold`,
//! `subject`, `detail`) for the comparison. Three
//! differently-seeded datasets (distinct catalogs of incidents firing)
//! and both training thread policies (`Off`, `Fixed(2)`) are covered; the
//! per-window comparison catches ordering drift, not just set drift —
//! emission order is part of the contract.
//!
//! The live monitor is served through the audited path with health
//! enabled, and its ledger bytes are pinned across versions: their FNV-1a
//! digest over every dataset and policy must equal a constant recorded
//! before deviations carried typed causes. That covers the evidence
//! objects and which device each health transition names, and why.

use behaviot::system::{traces_from_events_syms, SystemModel, SystemModelConfig};
use behaviot::{
    BehavIoT, Deviation, DeviationKind, HealthConfig, Monitor, MonitorConfig, TrainConfig,
    TrainingData,
};
use behaviot_flows::{assemble_flows, FlowConfig};
use behaviot_obs::MemorySink;
use behaviot_par::Parallelism;
use behaviot_sim::{self as sim, Catalog, IncidentScript, TruthLabel, UncontrolledConfig};
use std::collections::{BTreeSet, HashMap};

/// The pre-rewrite String pipeline (see the module for provenance).
#[path = "support/monitor_baseline.rs"]
mod baseline;

/// FNV-1a digest of the audited ledgers of every dataset and policy,
/// recorded by the same test run on the build before deviations carried
/// typed causes.
const LEDGER_DIGEST: u64 = 0x5ba4_3f92_d1d2_8be3;

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

/// A live deviation as the predecessor's six-field record.
fn project(d: &Deviation) -> baseline::Deviation {
    baseline::Deviation {
        ts: d.ts,
        kind: d.kind(),
        score: d.score,
        threshold: d.threshold,
        subject: d.subject(),
        detail: d.detail(),
    }
}

/// FNV-1a over bytes: written out here, not `DefaultHasher`, whose
/// output may change between Rust releases.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
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
    let mut ledger_digest = 0xcbf29ce484222325u64;
    let mut reasons: BTreeSet<&str> = BTreeSet::new();

    // Three distinct uncontrolled datasets: different seeds, and the
    // paper-like incident script (relocations, resets, outages,
    // malfunctions, removals) firing on different days.
    for (dataset, seed) in [(0u64, 34u64), (1, 89), (2, 144)] {
        let days = 4;
        let cfg = UncontrolledConfig {
            incidents: IncidentScript::paper_like_scaled(&catalog, days),
            ..Default::default()
        };
        let mut monitors: Vec<(Monitor, baseline::BaselineMonitor, MemorySink)> = policies
            .iter()
            .map(|(_, models, system)| {
                let mut fast =
                    Monitor::new(models.clone(), system.clone(), MonitorConfig::default());
                fast.enable_health(HealthConfig::default());
                let base = baseline::BaselineMonitor::new(
                    models.clone(),
                    system.clone(),
                    MonitorConfig::default(),
                );
                (fast, base, MemorySink::new())
            })
            .collect();
        for day in 0..days {
            let cap = sim::uncontrolled_day(&catalog, seed, day, &cfg);
            let flows = assemble_flows(&cap.packets, &cap.domains, &FlowConfig::default());
            for (((par, _, _), (fast, base, sink)), total) in
                policies.iter().zip(&mut monitors).zip(&mut totals)
            {
                let got = fast.process_window_audited(&flows, cap.start, cap.end, None, sink);
                let want = base.process_window(&flows, cap.start, cap.end);
                assert_eq!(
                    format!("{:#?}", got.iter().map(project).collect::<Vec<_>>()),
                    format!("{want:#?}"),
                    "dataset {dataset} day {day} ({par:?}): deviation streams diverged"
                );
                for d in &got {
                    total[d.kind() as usize] += 1;
                }
                let health = fast.health().expect("health enabled");
                reasons.extend(health.last_transitions().iter().map(|t| t.reason));
            }
        }
        for (_, _, sink) in &monitors {
            ledger_digest = fnv1a(ledger_digest, sink.as_str().as_bytes());
        }
    }
    // Every metric must move a device's health, or the attribution of
    // that metric's causes would go unchecked by the digest.
    for reason in [
        "deviation:periodic",
        "deviation:short-term",
        "deviation:long-term",
    ] {
        assert!(
            reasons.contains(reason),
            "no {reason} transition: {reasons:?}"
        );
    }
    assert_eq!(
        ledger_digest, LEDGER_DIGEST,
        "audited ledger bytes diverged from the recorded digest ({ledger_digest:#018x})"
    );
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
