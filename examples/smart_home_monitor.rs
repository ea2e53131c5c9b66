//! A smart-home behavior monitor: train on an observation period, then
//! watch day-by-day traffic for significant deviations (§4.3/§6.2),
//! including injected incidents (a network outage and a misbehaving hub).
//!
//! ```sh
//! cargo run --release --example smart_home_monitor
//! ```

use behaviot::system::{traces_from_events_syms, SystemModel, SystemModelConfig};
use behaviot::{Monitor, MonitorConfig};
use behaviot_flows::{assemble_flows, FlowConfig};
use behaviot_obs::NullSink;
use behaviot_sim::{self as sim, Catalog, IncidentScript, TruthLabel, UncontrolledConfig};
use std::collections::HashMap;

fn main() {
    let catalog = Catalog::standard();
    let fc = FlowConfig::default();
    let names: HashMap<_, _> = (0..catalog.devices.len())
        .map(|i| (catalog.device_ip(i), catalog.devices[i].name.clone()))
        .collect();

    // ---- Observation period: idle + activity + routine ----------------
    println!("[observe] generating observation datasets...");
    let idle = sim::idle_dataset(&catalog, 1, 0.75);
    let activity = sim::activity_dataset(&catalog, 2, 8);
    let routine = sim::routine_dataset(&catalog, 3, 2);

    let idle_flows = assemble_flows(&idle.packets, &idle.domains, &fc);
    let act_flows = assemble_flows(&activity.packets, &activity.domains, &fc);
    let labeled = sim::label_flows(&act_flows, &activity, &catalog, 0.75);
    let samples = labeled.iter().map(|l| {
        let act = match &l.label {
            Some(TruthLabel::User(a)) => Some(a.as_str()),
            _ => None,
        };
        (&l.flow, act)
    });
    let training = behaviot::TrainingData::from_flows(idle_flows, samples, names.clone());
    let models = behaviot::BehavIoT::train(&training, &behaviot::TrainConfig::default());

    let routine_flows = assemble_flows(&routine.packets, &routine.domains, &fc);
    let routine_events = models.infer_events(&routine_flows);
    let traces = traces_from_events_syms(&routine_events, &names, 60.0);
    let system = SystemModel::from_traces(&traces, &SystemModelConfig::default());
    println!(
        "[observe] {} periodic models, {} user-action models, PFSM {} states / {} transitions",
        models.periodic.len(),
        models.user.n_models(),
        system.pfsm.n_states(),
        system.pfsm.n_transitions()
    );

    // ---- Monitoring period: 6 days with two injected incidents --------
    let mut incidents = IncidentScript::default();
    incidents.outages.push((2, 10.0, 3.0, None)); // 3 h network outage on day 2
    let switchbot = catalog.device_index("SwitchBot Hub").unwrap();
    incidents.malfunctions.push((switchbot, 4, 6, 2.0, 30.0)); // flapping hub
    let cfg = UncontrolledConfig {
        incidents,
        ..Default::default()
    };

    let mut monitor = Monitor::new(models, system, MonitorConfig::default());
    for day in 0..6 {
        let cap = sim::uncontrolled_day(&catalog, 77, day, &cfg);
        let flows = assemble_flows(&cap.packets, &cap.domains, &fc);
        let deviations =
            monitor.process_window_audited(&flows, cap.start, cap.end, None, &mut NullSink);
        println!("\n== day {day}: {} deviation(s)", deviations.len());
        for d in deviations.iter().take(6) {
            println!(
                "  [{}] {}  score {:.2} (> {:.2})\n        {}",
                d.kind().label(),
                d.subject(),
                d.score,
                d.threshold,
                d.detail()
            );
        }
        if deviations.len() > 6 {
            println!("  ... and {} more", deviations.len() - 6);
        }
    }
}
