//! `fleet-health`: replay the §6.2 uncontrolled experiment (or continue a
//! stored monitor snapshot) through the audited serving path and render a
//! per-device health timeline plus a fleet summary — the operator's view of
//! the testbed the resident daemon (ROADMAP.md, deferred "Resident sharded
//! daemon") will serve.
//!
//! ```text
//! fleet-health [--quick] [--days N] [--threads auto|off|N] [--store DIR]
//!              [--ledger-out ledger.jsonl] [--openmetrics-out metrics.prom]
//!              [--trace spans.json] [--metrics-out metrics.jsonl]
//! ```
//!
//! Flags take their value as `--flag VALUE` or `--flag=VALUE`. Any other
//! argument prints the usage line and exits 2 before any work, so a
//! misspelt `--store DIR` never trains and serves without its store;
//! `--help` prints the usage line and exits 0.
//!
//! With `--store DIR`: if `DIR` holds a snapshot (a `MANIFEST`), the monitor
//! (timers, dedup flags, health registry, ledger sequence) is restored from
//! it and the replay continues at the day after the last processed window;
//! otherwise models are trained fresh. Either way the final state is saved
//! back to `DIR`, so repeated runs extend one continuous health timeline.
//! A snapshot that fails to load, or carries no monitor, ends the run with
//! its error and exit status 1 before any work, and `DIR` is left as it is:
//! training over it would overwrite the snapshot.
//!
//! The report ends with a coverage check of the incident script's ledger
//! ground truth: every scripted §6.2 case should have left a matching
//! health transition (deviation or staleness) on the implicated device.

use behaviot::system::{SystemModel, SystemModelConfig};
use behaviot::{HealthConfig, HealthState, HealthTransition, Monitor, MonitorConfig};
use behaviot_bench::{
    flag_from_args, parallelism_from_args, refuse_unknown_args, scale_from_args, ObsSession,
    Prepared,
};
use behaviot_flows::{assemble_flows, FlowConfig};
use behaviot_intern::Symbol;
use behaviot_obs::SnapshotDiff;
use behaviot_sim::{self as sim, ExpectedSignal, IncidentScript, UncontrolledConfig};
use behaviot_store::{ModelStore, SnapshotSpec};
use std::fmt::Write as _;

const USAGE: &str = "usage: fleet-health [--quick] [--days N] [--threads auto|off|N] \
[--store DIR] [--ledger-out ledger.jsonl] [--openmetrics-out metrics.prom] \
[--trace spans.json] [--metrics-out metrics.jsonl]";

fn main() {
    refuse_unknown_args(USAGE, &["--days", "--threads", "--store"], &["--quick"]);
    let obs = ObsSession::from_args_with_ledger();
    let par = parallelism_from_args();
    let mut scale = scale_from_args();
    if let Some(days) = flag_from_args("--days") {
        scale.uncontrolled_days = days.parse().unwrap_or_else(|e| {
            eprintln!("invalid --days {days:?}: {e}");
            std::process::exit(2);
        });
    }
    let store_dir = flag_from_args("--store");

    // Restore the monitor from the store when it holds a snapshot, train it
    // otherwise.
    let catalog = sim::Catalog::standard();
    let restored = store_dir.as_deref().and_then(restore_monitor);
    let mut monitor = restored.unwrap_or_else(|| {
        let p = Prepared::build_with(scale, par);
        let system =
            SystemModel::build(&p.routine_events(), &p.names, &SystemModelConfig::default());
        let mut m = Monitor::new(p.models.clone(), system, MonitorConfig::default());
        m.enable_health(HealthConfig::default());
        m
    });
    if monitor.health().is_none() {
        monitor.enable_health(HealthConfig::default());
    }

    // Continue the day counter where the restored monitor stopped: the
    // ledger sequence is the number of windows (days) already folded in.
    let day0 = monitor.export_state().windows as usize;
    let days = scale.uncontrolled_days;
    let incidents = IncidentScript::paper_like_scaled(&catalog, day0 + days);
    let truth = incidents.ledger_ground_truth();
    let cfg = UncontrolledConfig {
        incidents,
        ..Default::default()
    };
    let seed = scale.seed + 9;
    let window_flows = behaviot_obs::metrics().histogram("fleet.window_flows");

    let before = behaviot_obs::metrics().snapshot();
    let mut sink = obs.ledger_sink();
    let mut timeline: Vec<(usize, HealthTransition)> = Vec::new();
    // Every non-healthy device-day, for incident attribution: a device
    // that is already Deviant when a second incident hits produces no new
    // transition, but these rows still implicate it.
    let mut bad_days: Vec<(usize, Symbol, HealthState)> = Vec::new();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== fleet-health: {} devices over days {day0}..{} ==",
        monitor.health().map_or(0, |h| h.len()),
        day0 + days
    );
    for day in day0..day0 + days {
        let cap = sim::uncontrolled_day(&catalog, seed, day, &cfg);
        let flows = assemble_flows(&cap.packets, &cap.domains, &FlowConfig::default());
        window_flows.record(flows.len() as u64);
        let devs = monitor.process_window_audited(&flows, cap.start, cap.end, None, sink.as_mut());
        let transitions = monitor
            .health()
            .map(|h| h.last_transitions().to_vec())
            .unwrap_or_default();
        if !devs.is_empty() || !transitions.is_empty() {
            let (he, dg, dv, st) = monitor.health().map_or((0, 0, 0, 0), |h| h.rollup());
            let notes: Vec<String> = transitions
                .iter()
                .map(|t| {
                    format!(
                        "{} {}->{} ({})",
                        t.device.as_str(),
                        t.from.label(),
                        t.to.label(),
                        t.reason
                    )
                })
                .collect();
            let _ = writeln!(
                out,
                "day {day:>3}: deviations {:>2}  fleet {he}/{dg}/{dv}/{st}  {}",
                devs.len(),
                notes.join(", ")
            );
        }
        for t in transitions {
            timeline.push((day, t));
        }
        if let Some(h) = monitor.health() {
            bad_days.extend(
                h.iter()
                    .filter(|&(_, s)| s != HealthState::Healthy)
                    .map(|(d, s)| (day, d, s)),
            );
        }
    }
    obs.finish_ledger(sink.as_mut());

    // ---- fleet summary ---------------------------------------------------
    let health = monitor.health().expect("health enabled above");
    let (he, dg, dv, st) = health.rollup();
    let _ = writeln!(out, "\n--- fleet rollup (end of replay) ---");
    let _ = writeln!(
        out,
        "healthy {he}  degraded {dg}  deviant {dv}  stale {st}  ({} devices)",
        health.len()
    );
    let unhealthy: Vec<(Symbol, HealthState)> = health
        .iter()
        .filter(|&(_, s)| s != HealthState::Healthy)
        .collect();
    if !unhealthy.is_empty() {
        let _ = writeln!(out, "--- devices needing attention ---");
        for (device, state) in unhealthy {
            let last = timeline
                .iter()
                .rev()
                .find(|(_, t)| t.device == device)
                .map(|&(day, t)| format!("since day {day} ({})", t.reason))
                .unwrap_or_else(|| "carried over from restored snapshot".to_string());
            let _ = writeln!(out, "{:<24} {:<9} {last}", device.as_str(), state.label());
        }
    }

    // ---- incident-script coverage ---------------------------------------
    // Detection lag: absence needs the window to end, staleness needs
    // `stale_after` consecutive silent windows — accept transitions up to 3
    // days past the scripted range.
    const LAG_DAYS: usize = 3;
    let _ = writeln!(out, "\n--- incident script vs health timeline ---");
    let mut covered = 0usize;
    for e in &truth {
        let device_sym = e.device.map(|di| Symbol::intern(&catalog.devices[di].name));
        let hit = timeline.iter().find(|&&(day, ref t)| {
            let in_range = day >= e.day_from && day < e.day_to.saturating_add(LAG_DAYS);
            let device_ok = device_sym.is_none_or(|d| t.device == d);
            let signal_ok = match e.signal {
                ExpectedSignal::Periodic => t.reason == "deviation:periodic",
                ExpectedSignal::System => t.reason.starts_with("deviation:"),
                ExpectedSignal::Silence => {
                    t.to == HealthState::Stale || t.reason == "deviation:periodic"
                }
            };
            in_range && device_ok && signal_ok
        });
        // Fallback: the device held a matching bad state during the range
        // even though the transition into it predates the incident.
        let held = hit.is_none().then(|| {
            bad_days.iter().find(|&&(day, dev, state)| {
                let in_range = day >= e.day_from && day < e.day_to.saturating_add(LAG_DAYS);
                let device_ok = device_sym.is_none_or(|d| dev == d);
                let state_ok = match e.signal {
                    ExpectedSignal::Periodic | ExpectedSignal::System => {
                        state == HealthState::Deviant
                    }
                    ExpectedSignal::Silence => {
                        state == HealthState::Stale || state == HealthState::Deviant
                    }
                };
                in_range && device_ok && state_ok
            })
        });
        let held = held.flatten();
        if hit.is_some() || held.is_some() {
            covered += 1;
        }
        let span = if e.day_to == usize::MAX {
            format!("day {}+", e.day_from)
        } else {
            format!("days {}..{}", e.day_from, e.day_to)
        };
        let who = e
            .device
            .map(|di| catalog.devices[di].name.clone())
            .unwrap_or_else(|| "testbed-wide".to_string());
        let _ = writeln!(
            out,
            "{:<14} {who:<24} {span:<14} {}",
            e.case,
            match (hit, held) {
                (Some((day, t)), _) => format!("detected day {day} ({})", t.reason),
                (None, Some(&(day, _, state))) =>
                    format!("implicated day {day} (already {})", state.label()),
                (None, None) => "NOT DETECTED".to_string(),
            }
        );
    }
    let _ = writeln!(out, "covered {covered}/{} scripted incidents", truth.len());

    // ---- windowed metric rates -------------------------------------------
    let diff = SnapshotDiff::between(&before, &behaviot_obs::metrics().snapshot());
    let _ = writeln!(out, "\n--- replay metrics ({days} windows) ---");
    for name in [
        "monitor.deviations",
        "monitor.ledger_records",
        "fleet.transitions",
    ] {
        if let Some(c) = diff.counter(name) {
            let _ = writeln!(
                out,
                "{name:<24} {c:>8} total  {:>8.2}/day",
                c as f64 / days.max(1) as f64
            );
        }
    }
    if let Some(s) = window_flows.summary() {
        let _ = writeln!(
            out,
            "flows per window         p50 {}  p95 {}  p99 {}",
            s.p50, s.p95, s.p99
        );
    }
    print!("{out}");

    // ---- durable checkpoint ----------------------------------------------
    if let Some(dir) = store_dir {
        let store = ModelStore::open(&dir).unwrap_or_else(|e| {
            eprintln!("cannot open store {dir}: {e}");
            std::process::exit(1);
        });
        let spec = SnapshotSpec {
            system: Some(monitor.system()),
            monitor: Some((monitor.config(), monitor.export_state())),
            health: monitor.health().map(|h| h.export()),
            ..SnapshotSpec::new(monitor.models())
        };
        store.save(&spec).unwrap_or_else(|e| {
            eprintln!("failed to save snapshot to {dir}: {e}");
            std::process::exit(1);
        });
        eprintln!("[fleet-health] snapshot saved to {dir}");
    }
    obs.finish();
}

/// The monitor saved in `dir`, or `None` when `dir` holds no snapshot yet.
/// Exits 1, writing nothing, when the snapshot does not load or carries no
/// monitor.
fn restore_monitor(dir: &str) -> Option<Monitor> {
    let refuse = |why: &dyn std::fmt::Display| -> ! {
        eprintln!("[fleet-health] cannot restore the monitor from {dir}: {why}");
        std::process::exit(1);
    };
    let store = ModelStore::open(dir).unwrap_or_else(|e| refuse(&e));
    if !store.has_snapshot() {
        return None;
    }
    let snapshot = store.load().unwrap_or_else(|e| refuse(&e));
    let monitor = snapshot
        .into_monitor()
        .unwrap_or_else(|| refuse(&"the snapshot carries no monitor"));
    eprintln!("[fleet-health] restored monitor from {dir}");
    Some(monitor)
}
