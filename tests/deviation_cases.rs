//! The §5.3 deviation test cases and §6.2 incident classes, exercised
//! through the full monitor rather than metric-level shortcuts.

use behaviot::system::{traces_from_events_syms, SystemModel, SystemModelConfig};
use behaviot::{BehavIoT, DeviationKind, Monitor, MonitorConfig, TrainConfig, TrainingData};
use behaviot_flows::{assemble_flows, FlowConfig};
use behaviot_obs::NullSink;
use behaviot_sim::{self as sim, Catalog, TruthLabel, UncontrolledConfig};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Every case starts from the same trained models: train them once per
/// test binary and hand each test a fresh monitor over a copy.
fn trained_monitor(catalog: &Catalog) -> Monitor {
    static TRAINED: OnceLock<(BehavIoT, SystemModel)> = OnceLock::new();
    let (models, system) = TRAINED.get_or_init(|| train(catalog));
    Monitor::new(models.clone(), system.clone(), MonitorConfig::default())
}

fn train(catalog: &Catalog) -> (BehavIoT, SystemModel) {
    let fc = FlowConfig::default();
    let idle = sim::idle_dataset(catalog, 31, 0.75);
    let activity = sim::activity_dataset(catalog, 32, 6);
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
        &TrainConfig::default(),
    );
    let routine_flows = assemble_flows(&routine.packets, &routine.domains, &fc);
    let events = models.infer_events(&routine_flows);
    let traces = traces_from_events_syms(&events, &names, 60.0);
    let system = SystemModel::from_traces(&traces, &SystemModelConfig::default());
    (models, system)
}

fn run_day(
    monitor: &mut Monitor,
    catalog: &Catalog,
    day: usize,
    cfg: &UncontrolledConfig,
) -> Vec<behaviot::Deviation> {
    let cap = sim::uncontrolled_day(catalog, 34, day, cfg);
    let flows = assemble_flows(&cap.packets, &cap.domains, &FlowConfig::default());
    monitor.process_window_audited(&flows, cap.start, cap.end, None, &mut NullSink)
}

#[test]
fn misactivation_burst_detected() {
    let catalog = Catalog::standard();
    let mut monitor = trained_monitor(&catalog);
    let spot = catalog.device_index("Echo Spot").unwrap();
    let mut cfg = UncontrolledConfig::default();
    // Warm up one clean day so the long-term state is settled.
    let _ = run_day(&mut monitor, &catalog, 0, &cfg);
    cfg.incidents
        .lab_experiments
        .push((1, spot, "voice".into(), 50, 0.5));
    let devs = run_day(&mut monitor, &catalog, 1, &cfg);
    assert!(
        devs.iter().any(
            |d| matches!(d.kind(), DeviationKind::ShortTerm | DeviationKind::LongTerm)
                && d.subject().contains("Echo Spot")
        ),
        "misactivation missed: {devs:#?}"
    );
}

#[test]
fn network_outage_detected_as_periodic_deviation() {
    let catalog = Catalog::standard();
    let mut monitor = trained_monitor(&catalog);
    let mut cfg = UncontrolledConfig::default();
    let _ = run_day(&mut monitor, &catalog, 0, &cfg);
    cfg.incidents.outages.push((1, 0.0, 24.0, None));
    let devs = run_day(&mut monitor, &catalog, 1, &cfg);
    let periodic: Vec<_> = devs
        .iter()
        .filter(|d| d.kind() == DeviationKind::PeriodicTiming)
        .collect();
    assert!(!periodic.is_empty(), "{devs:#?}");
    // A full-day testbed outage collapses into one merged report.
    assert!(
        periodic
            .iter()
            .any(|d| d.detail().contains("network outage")),
        "{periodic:#?}"
    );
}

#[test]
fn camera_relocation_detected_by_long_term_metric() {
    let catalog = Catalog::standard();
    let mut monitor = trained_monitor(&catalog);
    let wyze = catalog.device_index("Wyze Camera").unwrap();
    let mut cfg = UncontrolledConfig::default();
    let _ = run_day(&mut monitor, &catalog, 0, &cfg);
    cfg.incidents.relocations.push((wyze, 1, 40.0));
    let devs = run_day(&mut monitor, &catalog, 1, &cfg);
    assert!(
        devs.iter()
            .any(|d| d.kind() == DeviationKind::LongTerm && d.subject().contains("Wyze")),
        "relocation missed: {devs:#?}"
    );
}

#[test]
fn device_malfunction_detected() {
    let catalog = Catalog::standard();
    let mut monitor = trained_monitor(&catalog);
    let hub = catalog.device_index("SwitchBot Hub").unwrap();
    let mut cfg = UncontrolledConfig::default();
    let _ = run_day(&mut monitor, &catalog, 0, &cfg);
    cfg.incidents.malfunctions.push((hub, 1, 3, 3.0, 60.0));
    let d1 = run_day(&mut monitor, &catalog, 1, &cfg);
    let d2 = run_day(&mut monitor, &catalog, 2, &cfg);
    assert!(
        d1.iter()
            .chain(d2.iter())
            .any(|d| d.kind() == DeviationKind::PeriodicTiming && d.subject().contains("SwitchBot")),
        "malfunction missed: {d1:#?} {d2:#?}"
    );
}
