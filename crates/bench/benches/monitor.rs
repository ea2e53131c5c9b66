//! Monitor serving-path benchmarks: pre-rewrite String pipeline vs. the
//! symbol-native zero-alloc window path. `scripts/bench_monitor.sh` runs
//! this bench with `CRITERION_JSON` set to produce `BENCH_monitor.json`.
//!
//! * `monitor_window`: a multi-window serving stream (heartbeats + routine
//!   user traces, with one misactivation window and one late-heartbeat
//!   window so every deviation metric fires) through a fully warmed
//!   monitor. The `baseline` entry runs the [`baseline`] module — a
//!   faithful vendored copy of `Monitor::process_window` as it stood
//!   before the rewrite, including its since-removed String helpers
//!   (`infer_events` + `traces_from_events` + `long_term_deviations`, one
//!   String per event, two Viterbi passes per trace) — and the `fast`
//!   entry runs the live [`behaviot::Monitor`].
//!
//! * `sweep_monitor_window/tN`: the same stream served by 8 independent
//!   monitor shards (multi-tenant serving), fanned out at each thread
//!   count of [`behaviot_par::sweep_thread_counts`].
//!
//! The acceptance bar (enforced by the script) is `fast` ≥ 1.5× on
//! `monitor_window`. Before timing anything, both implementations process
//! the full stream from a cold start and their deviation streams are
//! asserted **byte-identical** (`{:#?}` of every window's output) — the
//! timings are only comparable because the outputs are indistinguishable.

use behaviot::{
    BehavIoT, Deviation, Monitor, MonitorConfig, SystemModel, SystemModelConfig, TrainConfig,
    TrainingData,
};
use behaviot_flows::{FlowRecord, N_FEATURES};
use behaviot_intern::Symbol;
use behaviot_par::{par_map, sweep_thread_counts, Parallelism};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::net::Ipv4Addr;
use std::sync::Mutex;

/// The monitor serving path exactly as it was before the symbol-native
/// rewrite, shared with `tests/monitor_parity.rs`, so the speedup is
/// measured against the same predecessor the parity test pins.
#[path = "../../../tests/support/monitor_baseline.rs"]
mod baseline;

// ---------------------------------------------------------------------------
// Workload: a small smart-home testbed with per-device heartbeats and a
// routine of multi-device user traces, deterministic end to end.

const N_DEV: usize = 6;
const N_WINDOWS: usize = 6;
const WINDOW_SECS: f64 = 3600.0;
/// Routine trace shapes over device indices (all trained into the PFSM).
const PATTERNS: &[&[usize]] = &[&[0, 1], &[1, 2, 3], &[2, 0], &[3, 4, 5, 0], &[4, 5], &[5, 3]];

fn dev_ip(d: usize) -> Ipv4Addr {
    Ipv4Addr::new(192, 168, 1, 10 + d as u8)
}

fn flow(d: usize, dest: &str, start: f64, size: f64) -> FlowRecord {
    let mut features = [0.0; N_FEATURES];
    features[0] = size;
    features[1] = size;
    features[2] = size;
    features[11] = 2.0;
    FlowRecord {
        device: dev_ip(d),
        remote: Ipv4Addr::new(52, 0, 0, 1),
        device_port: 30000,
        remote_port: 443,
        proto: behaviot_net::Proto::Tcp,
        domain: Some(Symbol::intern(dest)),
        start,
        end: start + 0.1,
        n_packets: 4,
        total_bytes: size as u64 * 4,
        features,
    }
}

fn hb_dest(d: usize) -> String {
    format!("hb{d}.cloud.com")
}

fn trained() -> (BehavIoT, SystemModel) {
    // Idle: one heartbeat group per device, period 100 s.
    let mut idle = Vec::new();
    for d in 0..N_DEV {
        for i in 0..600 {
            idle.push(flow(d, &hb_dest(d), i as f64 * 100.0, 120.0));
        }
    }
    // Activity: per device, "on_off" events at size 800 (clear positives).
    let mut activity: Vec<(FlowRecord, Option<&str>)> = Vec::new();
    let mut act_flows = Vec::new();
    for d in 0..N_DEV {
        for i in 0..60 {
            act_flows.push(flow(d, "ctl.cloud.com", i as f64 * 75.0, 800.0));
        }
    }
    for f in &act_flows {
        activity.push((f.clone(), Some("on_off")));
    }
    let names: std::collections::HashMap<Ipv4Addr, String> =
        (0..N_DEV).map(|d| (dev_ip(d), format!("dev{d}"))).collect();
    let data = TrainingData::from_flows(idle, activity.iter().map(|(f, l)| (f, *l)), names);
    // Small forests keep total bench runtime inside CI budgets; flow
    // classification cost is identical on both sides of the comparison.
    let mut cfg = TrainConfig {
        parallelism: Parallelism::Off,
        ..Default::default()
    };
    cfg.user.forest.n_trees = 12;
    let models = BehavIoT::train(&data, &cfg);

    // System model: the routine patterns, repeated.
    let mut traces: Vec<Vec<String>> = Vec::new();
    for _ in 0..30 {
        for pat in PATTERNS {
            traces.push(pat.iter().map(|&d| format!("dev{d}:on_off")).collect());
        }
    }
    let system = SystemModel::from_traces(&traces, &SystemModelConfig::default());
    (models, system)
}

/// The serving stream: `N_WINDOWS` hour-long windows. Every window carries
/// heartbeats and a routine of user traces; window 3 adds misactivation
/// bursts (unseen repeated pairs → short/long-term deviations) and window 4
/// delays one heartbeat by 8 periods (→ off-schedule periodic deviation).
fn windows() -> Vec<(Vec<FlowRecord>, f64, f64)> {
    let mut out = Vec::new();
    for w in 0..N_WINDOWS {
        let t0 = w as f64 * WINDOW_SECS;
        let mut flows = Vec::new();
        for d in 0..N_DEV {
            for i in 0..36 {
                let ts = t0 + i as f64 * 100.0;
                if w == 4 && d == 2 && (18..26).contains(&i) {
                    continue; // 8 skipped beats: the resume arrives 9 periods late
                }
                flows.push(flow(d, &hb_dest(d), ts, 120.0));
            }
        }
        // Routine user traces: each pattern three times per window, events
        // 5 s apart within a trace, traces 120 s apart.
        let mut t = t0 + 30.0;
        for rep in 0..3 {
            for pat in PATTERNS {
                for (j, &d) in pat.iter().enumerate() {
                    flows.push(flow(d, "ctl.cloud.com", t + j as f64 * 5.0, 800.0));
                }
                t += 120.0;
            }
            let _ = rep;
        }
        if w == 3 {
            // Misactivation: dev0 firing in unseen triples, many times.
            for k in 0..20 {
                let base = t + k as f64 * 120.0;
                for j in 0..3 {
                    flows.push(flow(0, "ctl.cloud.com", base + j as f64 * 5.0, 800.0));
                }
            }
        }
        flows.sort_by(|a, b| a.start.total_cmp(&b.start));
        out.push((flows, t0, t0 + WINDOW_SECS));
    }
    out
}

fn bench_monitor(c: &mut Criterion) {
    let (models, system) = trained();
    let cfg = MonitorConfig::default();
    let stream = windows();
    let total_flows: u64 = stream.iter().map(|(f, _, _)| f.len() as u64).sum();

    // Agreement gate: from a cold start, the two implementations must emit
    // byte-identical deviation streams over the full workload — and the
    // workload must actually exercise every metric.
    let mut base = baseline::BaselineMonitor::new(models.clone(), system.clone(), cfg.clone());
    let mut fast = Monitor::new(models.clone(), system.clone(), cfg.clone());
    let mut base_stream: Vec<Vec<Deviation>> = Vec::new();
    let mut fast_stream: Vec<Vec<Deviation>> = Vec::new();
    for (flows, s, e) in &stream {
        base_stream.push(base.process_window(flows, *s, *e));
        fast_stream.push(fast.process_window(flows, *s, *e));
    }
    assert_eq!(
        format!("{base_stream:#?}"),
        format!("{fast_stream:#?}"),
        "deviation streams diverged between baseline and fast monitors"
    );
    let kinds: std::collections::HashSet<&str> = fast_stream
        .iter()
        .flatten()
        .map(|d| d.kind.label())
        .collect();
    for need in ["periodic", "short-term", "long-term"] {
        assert!(
            kinds.contains(need),
            "bench workload must raise a {need} deviation (got {kinds:?})"
        );
    }

    // Timed region: replay the same stream through warmed monitors. The
    // replays are identical work iteration over iteration (timers overwrite
    // the same keys, the same deviations re-emit), so both entries measure
    // the steady-state serving cost of the full window pipeline.
    let mut g = c.benchmark_group("monitor_window");
    g.sample_size(10);
    g.throughput(Throughput::Elements(total_flows));
    g.bench_function("baseline", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for (flows, s, e) in &stream {
                n += base.process_window(black_box(flows), *s, *e).len();
            }
            n
        })
    });
    g.bench_function("fast", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for (flows, s, e) in &stream {
                n += fast.process_window(black_box(flows), *s, *e).len();
            }
            n
        })
    });
    g.finish();

    // Thread sweep: 8 independent monitor shards (multi-tenant serving),
    // each replaying the stream, fanned out with the pipeline executor.
    let shards: Vec<Mutex<Monitor>> = (0..8)
        .map(|_| Mutex::new(Monitor::new(models.clone(), system.clone(), cfg.clone())))
        .collect();
    let idxs: Vec<usize> = (0..shards.len()).collect();
    let serve = |par: Parallelism| {
        par_map(par, &idxs, |&i| {
            let mut m = shards[i].lock().unwrap();
            let mut n = 0usize;
            for (flows, s, e) in &stream {
                n += m.process_window(flows, *s, *e).len();
            }
            n
        })
    };
    serve(Parallelism::Off); // warm every shard's scratch
    let mut g = c.benchmark_group("sweep_monitor_window");
    g.sample_size(10);
    g.throughput(Throughput::Elements(total_flows * shards.len() as u64));
    for &n in &sweep_thread_counts() {
        g.bench_function(format!("t{n}"), |b| {
            b.iter(|| serve(Parallelism::Fixed(n)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_monitor);
criterion_main!(benches);
