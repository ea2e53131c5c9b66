//! Pins the steady-state allocation contract of the symbol-native monitor
//! serving path: after warm-up, [`Monitor::process_window_audited`]
//! performs **zero** heap allocations on a healthy window — event
//! inference over reusable scratch, per-group timer upkeep, trace
//! assembly, one Viterbi per trace, and the long-term transition census
//! included. Only emitted deviations allocate (their causes and the
//! returned `Vec`), and a healthy window emits none. The bar holds with
//! no ledger and no health registry, and with the health registry
//! enabled and a ledger sink attached: a healthy window appends no
//! records and allocates nothing — the health fold scans the window's
//! (empty) deviation slice in pre-sized registry slots, and ledger
//! rendering only engages when there is something to record.
//!
//! A counting global allocator makes the contract checkable (same rig as
//! `classify_alloc.rs`; keep this file single-test — the counter is
//! process-global). The warm-up pass interns every label, fills the
//! `(device, activity)` label cache, grows every scratch buffer to the
//! window's high-water mark, and registers the `monitor.*` metric handles;
//! the measured pass then replays the identical windows — byte-identical
//! work, so any count regression is a real allocation sneaking back into
//! the serving path. Both monitors (models trained under
//! `Parallelism::Off` and `Fixed(2)`) are held to the same bar: the
//! serving path itself is serial by contract, and training policy must not
//! change its allocation behavior.

use behaviot::{
    BehavIoT, HealthConfig, Monitor, MonitorConfig, SystemModel, SystemModelConfig, TrainConfig,
    TrainingData,
};
use behaviot_flows::{FlowRecord, N_FEATURES};
use behaviot_intern::Symbol;
use behaviot_obs::{MemorySink, NullSink};
use behaviot_par::Parallelism;
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

const N_DEV: usize = 4;
/// Routine trace shapes over device indices, all trained into the PFSM.
const PATTERNS: &[&[usize]] = &[&[0, 1], &[1, 2, 3], &[2, 0], &[3, 1]];

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

/// A trained monitor: per-device heartbeat groups (period 100 s), one
/// user activity per device, and a PFSM over the routine patterns.
fn monitor(par: Parallelism) -> Monitor {
    let mut idle = Vec::new();
    for d in 0..N_DEV {
        for i in 0..600 {
            idle.push(flow(
                d,
                &format!("hb{d}.cloud.com"),
                i as f64 * 100.0,
                120.0,
            ));
        }
    }
    let mut act_flows = Vec::new();
    for d in 0..N_DEV {
        for i in 0..60 {
            act_flows.push(flow(d, "ctl.cloud.com", i as f64 * 75.0, 800.0));
        }
    }
    let names: std::collections::HashMap<Ipv4Addr, String> =
        (0..N_DEV).map(|d| (dev_ip(d), format!("dev{d}"))).collect();
    let data = TrainingData::from_flows(idle, act_flows.iter().map(|f| (f, Some("on_off"))), names);
    let cfg = TrainConfig {
        parallelism: par,
        ..Default::default()
    };
    let models = BehavIoT::train(&data, &cfg);

    let mut traces: Vec<Vec<String>> = Vec::new();
    for _ in 0..30 {
        for pat in PATTERNS {
            traces.push(pat.iter().map(|&d| format!("dev{d}:on_off")).collect());
        }
    }
    let system = SystemModel::from_traces(&traces, &SystemModelConfig::default());
    Monitor::new(models, system, MonitorConfig::default())
}

/// Healthy serving windows: heartbeats on schedule plus routine user
/// traces matching the trained patterns. Consecutive hour-long windows —
/// the heartbeat schedule runs straight through the window boundaries, so
/// later windows are structurally identical to earlier ones (same flow
/// counts, labels, timer keys, trace shapes) with time advancing.
/// Pre-constructed so flow building (first-sight symbol interning) is
/// outside the measured region.
fn healthy_windows() -> Vec<(Vec<FlowRecord>, f64, f64)> {
    let mut out = Vec::new();
    for w in 0..6 {
        let t0 = w as f64 * 3600.0;
        let mut flows = Vec::new();
        for d in 0..N_DEV {
            for i in 0..36 {
                flows.push(flow(
                    d,
                    &format!("hb{d}.cloud.com"),
                    t0 + i as f64 * 100.0,
                    120.0,
                ));
            }
        }
        let mut t = t0 + 30.0;
        for _ in 0..3 {
            for pat in PATTERNS {
                for (j, &d) in pat.iter().enumerate() {
                    flows.push(flow(d, "ctl.cloud.com", t + j as f64 * 5.0, 800.0));
                }
                t += 120.0;
            }
        }
        flows.sort_by(|a, b| a.start.total_cmp(&b.start));
        out.push((flows, t0, t0 + 3600.0));
    }
    out
}

#[test]
fn process_window_is_allocation_free_after_warmup() {
    let windows = healthy_windows();
    for par in [Parallelism::Off, Parallelism::Fixed(2)] {
        let mut m = monitor(par);

        // Warm-up: the first three windows fill the label cache, grow
        // every scratch buffer to the stream's high-water mark, insert
        // every timer key, and resolve the monitor.* metric handles.
        let (warm, steady) = windows.split_at(3);
        for (flows, s, e) in warm {
            let devs = m.process_window_audited(flows, *s, *e, None, &mut NullSink);
            assert!(
                devs.is_empty(),
                "warm-up must be healthy ({par:?}): {devs:#?}"
            );
        }

        // Steady state: the remaining windows repeat the warm-up windows'
        // structure exactly (time advancing) — and must not allocate at
        // all.
        for (w, (flows, s, e)) in steady.iter().enumerate() {
            let before = alloc_count();
            let devs = m.process_window_audited(flows, *s, *e, None, &mut NullSink);
            let after = alloc_count();
            assert!(devs.is_empty(), "steady state must stay healthy: {devs:#?}");
            assert_eq!(
                after - before,
                0,
                "window {w} ({par:?}): {} allocations on the steady-state \
                 serving path ({} flows)",
                after - before,
                flows.len()
            );
        }

        // Audited path, same bar: health registry enabled, ledger sink
        // attached. A healthy window appends nothing, so even a capturing
        // MemorySink sees no writes — and the whole audited window must
        // still be allocation-free. (The first audited window warms the
        // registry's transition scratch; it is part of warm-up.)
        let mut m = monitor(par);
        m.enable_health(HealthConfig::default());
        let mut sink = MemorySink::new();
        for (flows, s, e) in warm {
            let devs = m.process_window_audited(flows, *s, *e, None, &mut sink);
            assert!(
                devs.is_empty(),
                "audited warm-up must be healthy: {devs:#?}"
            );
        }
        assert!(
            sink.is_empty(),
            "healthy windows appended ledger records: {:?}",
            sink.as_str()
        );
        for (w, (flows, s, e)) in steady.iter().enumerate() {
            let before = alloc_count();
            let devs = m.process_window_audited(flows, *s, *e, None, &mut NullSink);
            let after = alloc_count();
            assert!(devs.is_empty(), "audited steady state must stay healthy");
            assert_eq!(
                after - before,
                0,
                "window {w} ({par:?}): {} allocations on the audited \
                 steady-state path ({} flows)",
                after - before,
                flows.len()
            );
        }
    }
}
