//! Byte-determinism contracts for the deviation audit ledger (DESIGN.md
//! §15), on the same single-plug window stream as `store_replay.rs`:
//!
//! * **Thread-policy invariance** — the ledger JSONL a full audited replay
//!   appends, the deviation stream it returns, and the final health
//!   registry state are byte-identical whether the models were trained
//!   (and the windows served) under `Parallelism::Off`, `Fixed(2)`, or
//!   `Auto`.
//! * **Kill-and-restore invariance** — killing the monitor at any covered
//!   point, snapshotting through `behaviot-store`, restoring from disk,
//!   and finishing the replay yields ledger bytes (pre-kill ++ post-kill)
//!   identical to the uninterrupted run's, with the `seq` counter and
//!   health hysteresis continuing seamlessly across the restore. The
//!   restored ledger is the uninterrupted ledger — an auditor cannot tell
//!   a crash happened.
//!
//! The fixture deliberately exercises every record family: healthy windows
//! (which must append *nothing*), silent windows 3-4 (absence deviation +
//! staleness bookkeeping), and flooded windows 5-6 (long-term deviation +
//! health transitions to Deviant).

use behaviot::{BehavIoT, HealthConfig, Monitor, MonitorConfig, SystemModel, SystemModelConfig};
use behaviot::{TrainConfig, TrainingData};
use behaviot_flows::{FlowRecord, N_FEATURES};
use behaviot_net::Proto;
use behaviot_obs::MemorySink;
use behaviot_par::Parallelism;
use behaviot_store::{ModelStore, SnapshotSpec};
use std::collections::HashMap;
use std::fs;
use std::net::Ipv4Addr;
use std::path::PathBuf;

const DEV: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);

fn flow(dest: &str, start: f64, size: f64) -> FlowRecord {
    let mut features = [0.0; N_FEATURES];
    features[0] = size;
    features[1] = size;
    features[2] = size;
    features[11] = 2.0;
    FlowRecord {
        device: DEV,
        remote: Ipv4Addr::new(52, 0, 0, 1),
        device_port: 30000,
        remote_port: 443,
        proto: Proto::Tcp,
        domain: Some(dest.into()),
        start,
        end: start + 0.1,
        n_packets: 4,
        total_bytes: size as u64 * 4,
        features,
    }
}

/// One plug: heartbeat to `hb.cloud.com` every 100 s, a learnable
/// `on_off` activity, and a system model of single-event traces — the
/// `store_replay.rs` fixture.
fn trained(par: Parallelism) -> (BehavIoT, SystemModel) {
    let idle: Vec<FlowRecord> = (0..600)
        .map(|i| flow("hb.cloud.com", i as f64 * 100.0, 120.0))
        .collect();
    let activity: Vec<(FlowRecord, Option<String>)> = (0..40)
        .flat_map(|i| {
            vec![
                (
                    flow("ctl.cloud.com", i as f64 * 75.0, 800.0),
                    Some("on_off".to_string()),
                ),
                (flow("hb.cloud.com", 10.0 + i as f64 * 75.0, 120.0), None),
            ]
        })
        .collect();
    let refs: Vec<(&FlowRecord, Option<&str>)> =
        activity.iter().map(|(f, l)| (f, l.as_deref())).collect();
    let mut names = HashMap::new();
    names.insert(DEV, "plug".to_string());
    let data = TrainingData::from_flows(idle, refs, names);
    let cfg = TrainConfig {
        parallelism: par,
        ..Default::default()
    };
    let models = BehavIoT::train(&data, &cfg);
    let traces: Vec<Vec<String>> = (0..30).map(|_| vec!["plug:on_off".to_string()]).collect();
    let system = SystemModel::from_traces(&traces, &SystemModelConfig::default());
    (models, system)
}

const WINDOW: f64 = 2000.0;
const N_WINDOWS: usize = 10;

/// Windows 3-4 silent, 5-6 flooded with doubled `on_off` pairs, the rest
/// healthy heartbeats (`ctl` ping on even windows).
fn window_flows(w: usize) -> Vec<FlowRecord> {
    let t0 = w as f64 * WINDOW;
    let mut flows = Vec::new();
    match w {
        3 | 4 => {}
        5 | 6 => {
            for i in 0..20 {
                flows.push(flow("hb.cloud.com", t0 + i as f64 * 100.0, 120.0));
            }
            for i in 0..8 {
                let t = t0 + 100.0 + i as f64 * 200.0;
                flows.push(flow("ctl.cloud.com", t, 800.0));
                flows.push(flow("ctl.cloud.com", t + 5.0, 800.0));
            }
        }
        _ => {
            for i in 0..20 {
                flows.push(flow("hb.cloud.com", t0 + i as f64 * 100.0, 120.0));
            }
            if w.is_multiple_of(2) {
                flows.push(flow("ctl.cloud.com", t0 + 1500.0, 800.0));
            }
        }
    }
    flows
}

fn audited_monitor(par: Parallelism) -> Monitor {
    let (models, system) = trained(par);
    let mut m = Monitor::new(models, system, MonitorConfig::default());
    m.enable_health(HealthConfig::default());
    m
}

/// Replay `range` through the audited path; returns the per-window
/// rendered deviation streams (the ledger bytes accumulate in `sink`).
fn run_audited(
    monitor: &mut Monitor,
    range: std::ops::Range<usize>,
    sink: &mut MemorySink,
) -> Vec<String> {
    range
        .map(|w| {
            let t0 = w as f64 * WINDOW;
            let devs =
                monitor.process_window_audited(&window_flows(w), t0, t0 + WINDOW, None, sink);
            devs.iter()
                .map(|d| {
                    format!(
                        "{:?}|{:?}|{:?}|{:?}|{}|{}",
                        d.ts,
                        d.kind(),
                        d.score,
                        d.threshold,
                        d.subject(),
                        d.detail()
                    )
                })
                .collect::<Vec<_>>()
                .join("\n")
        })
        .collect()
}

/// Interner-independent rendering of the health registry's final state:
/// resolved device names (not `Symbol` ids, which depend on interning
/// order) plus the raw hysteresis counters.
fn render_health(monitor: &Monitor) -> String {
    let export = monitor.health().expect("health enabled").export();
    export
        .records
        .iter()
        .map(|&(device, state, clean, silent)| {
            format!("{}|{}|{clean}|{silent}", device.as_str(), state.label())
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "behaviot-ledger-determinism-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn save_monitor(store: &ModelStore, monitor: &Monitor) {
    let spec = SnapshotSpec {
        models: monitor.models(),
        system: Some(monitor.system()),
        monitor: Some((monitor.config(), monitor.export_state())),
        health: monitor.health().map(|h| h.export()),
    };
    store.save(&spec).unwrap();
}

/// Structural sanity of one full replay's ledger, so the byte-equality
/// assertions below compare something with teeth.
fn check_ledger_shape(ledger: &str) {
    assert!(!ledger.is_empty(), "fixture appended no ledger records");
    let mut kinds = HashMap::new();
    let mut last_seq: Option<u64> = None;
    for line in ledger.lines() {
        assert!(
            line.starts_with("{\"record\":\"") && line.ends_with('}'),
            "malformed ledger line: {line}"
        );
        let kind = &line["{\"record\":\"".len()..][..line["{\"record\":\"".len()..]
            .find('"')
            .expect("record kind terminated")];
        *kinds.entry(kind.to_string()).or_insert(0usize) += 1;
        // `seq` stamps every record with its window; it must never move
        // backwards in emission order.
        let seq: u64 = line
            .split("\"seq\":")
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("ledger line lacks a numeric seq: {line}"));
        assert!(last_seq.is_none_or(|p| seq >= p), "seq regressed: {line}");
        last_seq = Some(seq);
    }
    for kind in ["window", "deviation", "health"] {
        assert!(
            kinds.get(kind).copied().unwrap_or(0) > 0,
            "no {kind:?} records in ledger (got {kinds:?})"
        );
    }
    // Healthy windows append nothing: with deviations in only a few
    // windows, window headers must cover a strict subset of the replay.
    assert!(
        kinds["window"] < N_WINDOWS,
        "every window emitted a header — healthy windows are not silent"
    );
}

/// Ledger bytes, deviation stream, and final health state are identical
/// across `Off`, `Fixed(2)`, and `Auto` — training parallelism and the
/// serving executor must leave no fingerprint in the audit trail.
#[test]
fn ledger_bytes_policy_invariant() {
    let mut runs = Vec::new();
    for par in [Parallelism::Off, Parallelism::Fixed(2), Parallelism::Auto] {
        let mut monitor = audited_monitor(par);
        let mut sink = MemorySink::new();
        let stream = run_audited(&mut monitor, 0..N_WINDOWS, &mut sink);
        runs.push((par, sink.take(), stream, render_health(&monitor)));
    }
    check_ledger_shape(&runs[0].1);
    let (_, ref ledger0, ref stream0, ref health0) = runs[0];
    for (par, ledger, stream, health) in &runs[1..] {
        assert_eq!(ledger, ledger0, "ledger bytes differ under {par}");
        assert_eq!(stream, stream0, "deviation stream differs under {par}");
        assert_eq!(health, health0, "health state differs under {par}");
    }
}

/// Kill → snapshot → restore → finish leaves the concatenated ledger
/// byte-identical to the uninterrupted run's: the `seq` counter, absence
/// and long-term dedup flags, and health hysteresis all survive the trip
/// through the store. Kill points cover mid-absence (4), mid-long-term
/// flag (6), and the healthy tails (1, 8).
#[test]
fn ledger_bytes_survive_kill_and_restore() {
    let mut reference = audited_monitor(Parallelism::Off);
    let mut ref_sink = MemorySink::new();
    let ref_stream = run_audited(&mut reference, 0..N_WINDOWS, &mut ref_sink);
    let ref_ledger = ref_sink.take();
    check_ledger_shape(&ref_ledger);
    let ref_health = render_health(&reference);

    for kill in [1, 4, 6, 8] {
        let mut first = audited_monitor(Parallelism::Off);
        let mut sink = MemorySink::new();
        let pre_stream = run_audited(&mut first, 0..kill, &mut sink);
        assert_eq!(pre_stream, ref_stream[..kill], "pre-kill stream diverged");
        let pre_ledger = sink.take();

        let dir = temp_store(&format!("k{kill}"));
        let store = ModelStore::open(&dir).unwrap();
        save_monitor(&store, &first);
        drop(first); // the "kill": nothing survives but the snapshot

        let mut restored = store
            .load()
            .unwrap()
            .into_monitor()
            .expect("snapshot carried a monitor");
        assert!(
            restored.health().is_some(),
            "health registry lost across the store round-trip (k={kill})"
        );
        let mut sink = MemorySink::new();
        let post_stream = run_audited(&mut restored, kill..N_WINDOWS, &mut sink);
        assert_eq!(
            post_stream,
            ref_stream[kill..],
            "post-restore stream diverged (k={kill})"
        );
        assert_eq!(
            format!("{pre_ledger}{}", sink.take()),
            ref_ledger,
            "restored ledger differs from the uninterrupted run's (k={kill})"
        );
        assert_eq!(
            render_health(&restored),
            ref_health,
            "restored health state diverged (k={kill})"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
