//! Figure 5: behavior deviations over the uncontrolled experiment (§6.2).
//!
//! Streams the 87 simulated days through the [`behaviot::Monitor`] one day
//! at a time, with the paper-like incident script injected (camera
//! relocation, lab experiment, resets, outages, SwitchBot malfunction,
//! device removals), and reports per-day deviation counts split by metric —
//! the two panels of Fig. 5.

use crate::prep::Prepared;
use behaviot::system::{SystemModel, SystemModelConfig};
use behaviot::{DeviationKind, Monitor, MonitorConfig};
use behaviot_flows::{assemble_flows, FlowConfig};
use behaviot_obs::NullSink;
use behaviot_sim::{self as sim, IncidentScript, UncontrolledConfig};

/// Run the uncontrolled experiment and render both Fig. 5 panels.
pub fn fig5(p: &Prepared) -> String {
    // System model from the routine observation period.
    let system = SystemModel::build(&p.routine_events(), &p.names, &SystemModelConfig::default());
    let mut monitor = Monitor::new(p.models.clone(), system, MonitorConfig::default());

    let days = p.scale.uncontrolled_days;
    let cfg = UncontrolledConfig {
        incidents: IncidentScript::paper_like_scaled(&p.catalog, days),
        ..Default::default()
    };
    let seed = p.scale.seed + 9;

    let mut user_rows: Vec<String> = Vec::new();
    let mut periodic_rows: Vec<String> = Vec::new();
    let mut tot_short = 0usize;
    let mut tot_long = 0usize;
    let mut tot_periodic = 0usize;
    let mut days_with_periodic = 0usize;

    for day in 0..days {
        let cap = sim::uncontrolled_day(&p.catalog, seed, day, &cfg);
        let flows = assemble_flows(&cap.packets, &cap.domains, &FlowConfig::default());
        let devs = monitor.process_window_audited(&flows, cap.start, cap.end, None, &mut NullSink);
        let n_short = devs
            .iter()
            .filter(|d| d.kind() == DeviationKind::ShortTerm)
            .count();
        let n_long = devs
            .iter()
            .filter(|d| d.kind() == DeviationKind::LongTerm)
            .count();
        let n_per = devs
            .iter()
            .filter(|d| d.kind() == DeviationKind::PeriodicTiming)
            .count();
        tot_short += n_short;
        tot_long += n_long;
        tot_periodic += n_per;
        if n_per > 0 {
            days_with_periodic += 1;
        }
        let note = incident_note(&cfg.incidents, day);
        if n_short + n_long > 0 || !note.is_empty() {
            let subjects: Vec<String> = devs
                .iter()
                .filter(|d| d.kind() != DeviationKind::PeriodicTiming)
                .take(2)
                .map(|d| d.subject())
                .collect();
            user_rows.push(format!(
                "day {day:>3}: short-term {n_short:>2}  long-term {n_long:>2}  {note}{}",
                if subjects.is_empty() {
                    String::new()
                } else {
                    format!(" [{}]", subjects.join("; "))
                }
            ));
        }
        if n_per > 0 || !note.is_empty() {
            let subjects: Vec<String> = devs
                .iter()
                .filter(|d| d.kind() == DeviationKind::PeriodicTiming)
                .take(3)
                .map(|d| d.subject())
                .collect();
            periodic_rows.push(format!(
                "day {day:>3}: periodic {n_per:>2}  {note}{}",
                if subjects.is_empty() {
                    String::new()
                } else {
                    format!(" [{}]", subjects.join("; "))
                }
            ));
        }
    }

    let mut out = String::from("== Figure 5: deviations in uncontrolled experiments ==\n");
    out.push_str(&crate::report::paper_vs_measured(&[
        (
            "user-event deviations (5a)",
            "40 over 87 days (4 short-term, 36 long-term)",
            format!(
                "{} over {days} days ({tot_short} short-term, {tot_long} long-term)",
                tot_short + tot_long
            ),
        ),
        (
            "periodic deviations (5b)",
            "137 over 87 days, on 31 of 87 days",
            format!("{tot_periodic} over {days} days, on {days_with_periodic} days"),
        ),
    ]));
    out.push_str("\n--- Fig 5a: user-event deviations per day ---\n");
    for r in &user_rows {
        out.push_str(r);
        out.push('\n');
    }
    out.push_str("\n--- Fig 5b: periodic deviations per day ---\n");
    for r in &periodic_rows {
        out.push_str(r);
        out.push('\n');
    }
    out
}

fn incident_note(inc: &IncidentScript, day: usize) -> String {
    let mut notes: Vec<String> = Vec::new();
    for &(_, from, _) in &inc.relocations {
        if day == from {
            notes.push("<- camera relocated (cases 1/4/5)".to_string());
        }
    }
    for (d, _, _, n, _) in &inc.lab_experiments {
        if *d == day {
            notes.push(format!("<- lab experiment: {n} activations (case 2)"));
        }
    }
    for (d, _, _, _) in &inc.resets {
        if *d == day {
            notes.push("<- device resets (case 3)".to_string());
        }
    }
    for &(d, _, _, _) in &inc.outages {
        if d == day {
            notes.push("<- network outage (cases 6-8)".to_string());
        }
    }
    for &(_, from, to, _, _) in &inc.malfunctions {
        if day == from {
            notes.push(format!(
                "<- malfunction window starts (case 9, until day {to})"
            ));
        }
    }
    for &(_, from, to) in &inc.removals {
        if day == from {
            notes.push(format!("<- device removed until day {to}"));
        }
    }
    notes.join(" ")
}
