//! End-to-end integration: simulator → flow assembly → model training →
//! event inference → system model → monitor, asserting the accuracy
//! properties the paper's evaluation depends on (at reduced scale).

use behaviot::event::EventKind;
use behaviot::system::{traces_from_events_syms, SystemModel, SystemModelConfig};
use behaviot::{BehavIoT, Monitor, MonitorConfig, TrainConfig, TrainingData};
use behaviot_flows::{assemble_flows, FlowConfig};
use behaviot_obs::NullSink;
use behaviot_sim::{self as sim, Catalog, TruthLabel};
use std::collections::HashMap;

struct World {
    catalog: Catalog,
    names: HashMap<std::net::Ipv4Addr, String>,
    models: BehavIoT,
    idle_test: Vec<sim::LabeledFlow>,
    act_test: Vec<sim::LabeledFlow>,
}

fn build_world() -> World {
    let catalog = Catalog::standard();
    let fc = FlowConfig::default();
    let idle = sim::idle_dataset(&catalog, 11, 1.0);
    let activity = sim::activity_dataset(&catalog, 12, 8);

    let idle_flows = assemble_flows(&idle.packets, &idle.domains, &fc);
    let idle_labeled = sim::label_flows(&idle_flows, &idle, &catalog, 0.75);
    let act_flows = assemble_flows(&activity.packets, &activity.domains, &fc);
    let act_labeled = sim::label_flows(&act_flows, &activity, &catalog, 0.75);

    // Time split for idle; alternating split for activity.
    let cut = idle_labeled.len() * 6 / 10;
    let (idle_train, idle_test) = idle_labeled.split_at(cut);
    let mut counters: HashMap<(usize, Option<behaviot_intern::Symbol>), usize> = HashMap::new();
    let mut act_train = Vec::new();
    let mut act_test = Vec::new();
    for l in &act_labeled {
        let label = match l.label {
            Some(TruthLabel::User(a)) => Some(a),
            _ => None,
        };
        let c = counters.entry((l.device, label)).or_insert(0);
        if (*c).is_multiple_of(2) {
            act_train.push(l.clone());
        } else {
            act_test.push(l.clone());
        }
        *c += 1;
    }

    let names: HashMap<_, _> = (0..catalog.devices.len())
        .map(|i| (catalog.device_ip(i), catalog.devices[i].name.clone()))
        .collect();
    let samples = act_train.iter().map(|l| {
        let act = match &l.label {
            Some(TruthLabel::User(a)) => Some(a.as_str()),
            _ => None,
        };
        (&l.flow, act)
    });
    let training = TrainingData::from_flows(
        idle_train.iter().map(|l| l.flow.clone()).collect(),
        samples,
        names.clone(),
    );
    let models = BehavIoT::train(&training, &TrainConfig::default());
    World {
        catalog,
        names,
        models,
        idle_test: idle_test.to_vec(),
        act_test,
    }
}

#[test]
fn full_pipeline_accuracy_bounds() {
    let w = build_world();

    // Model inventory sanity (Table 4 shapes).
    assert!(
        w.models.periodic.len() > 300,
        "periodic models: {}",
        w.models.periodic.len()
    );
    assert!(
        w.models.user.n_models() > 40,
        "user models: {}",
        w.models.user.n_models()
    );

    // Periodic event accuracy on held-out idle traffic (paper: 99.2%).
    let idle_flows: Vec<_> = w.idle_test.iter().map(|l| l.flow.clone()).collect();
    let events = w.models.infer_events(&idle_flows);
    let mut periodic_truth = 0;
    let mut periodic_ok = 0;
    let mut user_fp = 0;
    for (l, e) in w.idle_test.iter().zip(&events) {
        if matches!(l.label, Some(TruthLabel::Periodic(..))) {
            periodic_truth += 1;
            if matches!(e.kind, EventKind::Periodic { .. }) {
                periodic_ok += 1;
            }
        }
        if matches!(e.kind, EventKind::User { .. }) {
            user_fp += 1;
        }
    }
    let acc = periodic_ok as f64 / periodic_truth.max(1) as f64;
    assert!(acc > 0.97, "periodic event accuracy {acc}");
    // FPR (paper: 0.09%).
    let fpr = user_fp as f64 / events.len().max(1) as f64;
    assert!(fpr < 0.005, "user-event FPR {fpr}");

    // User event accuracy on held-out activity traffic (paper: 98.9%;
    // the SmartThings-Hub pathology caps what is reachable).
    let act_flows: Vec<_> = w.act_test.iter().map(|l| l.flow.clone()).collect();
    let events = w.models.infer_events(&act_flows);
    let mut user_truth = 0;
    let mut user_ok = 0;
    for (l, e) in w.act_test.iter().zip(&events) {
        if let Some(TruthLabel::User(a)) = &l.label {
            user_truth += 1;
            if matches!(&e.kind, EventKind::User { activity, .. } if activity == a) {
                user_ok += 1;
            }
        }
    }
    let acc = user_ok as f64 / user_truth.max(1) as f64;
    assert!(acc > 0.8, "user event accuracy {acc}");
}

#[test]
fn routine_to_system_model_and_monitor() {
    let w = build_world();
    let fc = FlowConfig::default();
    let routine = sim::routine_dataset(&w.catalog, 13, 2);
    let flows = assemble_flows(&routine.packets, &routine.domains, &fc);
    let events = w.models.infer_events(&flows);
    let traces = traces_from_events_syms(&events, &w.names, 60.0);
    assert!(traces.len() > 20, "traces: {}", traces.len());
    let system = SystemModel::from_traces(&traces, &SystemModelConfig::default());

    // §5.2 property 1: every training trace is accepted.
    for t in &traces {
        assert!(system.accepts(t), "training trace rejected: {t:?}");
    }
    // The PFSM is compact relative to the raw event count.
    assert!(
        system.pfsm.n_states() < traces.iter().map(Vec::len).sum::<usize>(),
        "PFSM not compact"
    );

    // A healthy day produces few or no deviations; a dead day produces a
    // testbed-wide periodic deviation.
    let mut monitor = Monitor::new(w.models.clone(), system, MonitorConfig::default());
    let cfg = sim::UncontrolledConfig::default();
    let day = sim::uncontrolled_day(&w.catalog, 14, 0, &cfg);
    let day_flows = assemble_flows(&day.packets, &day.domains, &fc);
    let quiet = monitor.process_window_audited(&day_flows, day.start, day.end, None, &mut NullSink);
    assert!(quiet.len() < 15, "healthy day too noisy: {quiet:#?}");

    let dead =
        monitor.process_window_audited(&[], day.end, day.end + 86_400.0, None, &mut NullSink);
    assert!(
        dead.iter()
            .any(|d| d.kind() == behaviot::DeviationKind::PeriodicTiming),
        "outage not detected"
    );
}

#[test]
fn deterministic_end_to_end() {
    // The entire pipeline is seed-deterministic: run twice, compare.
    let run = || {
        let catalog = Catalog::standard();
        let idle = sim::idle_dataset(&catalog, 21, 0.25);
        let flows = assemble_flows(&idle.packets, &idle.domains, &FlowConfig::default());
        let names = HashMap::new();
        let training = TrainingData::from_flows(flows.clone(), std::iter::empty(), names);
        let models = BehavIoT::train(&training, &TrainConfig::default());
        let events = models.infer_events(&flows);
        (flows.len(), models.periodic.len(), events.len())
    };
    assert_eq!(run(), run());
}
