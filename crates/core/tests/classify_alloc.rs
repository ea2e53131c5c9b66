//! Pins the steady-state allocation contract of the per-flow monitor hot
//! path: after warm-up, [`PeriodicTimers::classify`] performs **zero**
//! heap allocations — for timer hits, cluster hits, cluster rejections, and
//! unknown-group flows alike.
//!
//! A counting global allocator makes the contract checkable (same rig as
//! `crates/dsp/tests/alloc_steady_state.rs`; keep this file single-test —
//! the counter is process-global). The warm-up pass interns every
//! destination, inserts every timer-table key, grows the standardized-
//! features scratch, and registers the `cluster.*` metric handles; the
//! measured rounds then stream fresh (pre-constructed) flows through every
//! classify branch and fail with the exact allocation count on regression —
//! an allocating transform sneaking back in, a per-flow `Vec`, a metric
//! handle resolved per call.

use behaviot::periodic::{PeriodicModelSet, PeriodicTimers, PeriodicTrainConfig};
use behaviot_flows::{FlowRecord, N_FEATURES};
use behaviot_intern::Symbol;
use behaviot_net::Proto;
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

fn flow(device: u8, dest: &str, start: f64, size: f64) -> FlowRecord {
    let mut features = [0.0; N_FEATURES];
    features[0] = size;
    features[1] = size;
    features[2] = size;
    features[11] = 1.0;
    FlowRecord {
        device: Ipv4Addr::new(192, 168, 1, device),
        remote: Ipv4Addr::new(52, 0, 0, 1),
        device_port: 30000,
        remote_port: 443,
        proto: Proto::Tcp,
        domain: Some(Symbol::intern(dest)),
        start,
        end: start + 0.1,
        n_packets: 4,
        total_bytes: size as u64 * 4,
        features,
    }
}

fn periodic_flows(device: u8, dest: &str, period: f64, n: usize, t0: f64) -> Vec<FlowRecord> {
    (0..n)
        .map(|i| flow(device, dest, t0 + i as f64 * period, 150.0))
        .collect()
}

/// One round of monitor traffic starting at `t0`, exercising every classify
/// branch: on-timer periodic flows, an off-schedule flow with idle-like
/// features (caught by the DBSCAN stage), an off-schedule flow with
/// user-like features (rejected by it), and an unmodeled group.
fn monitor_round(t0: f64) -> Vec<FlowRecord> {
    let mut out = Vec::new();
    out.extend(periodic_flows(10, "hb.cloud.com", 100.0, 12, t0));
    out.extend(periodic_flows(11, "ctl.cloud.com", 60.0, 12, t0));
    out.push(flow(10, "hb.cloud.com", t0 + 1233.0, 150.0)); // off-timer, idle-like
    out.push(flow(10, "hb.cloud.com", t0 + 1277.0, 2000.0)); // off-timer, user-like
    out.push(flow(10, "unknown.example.com", t0 + 1300.0, 150.0)); // no model
    out.sort_by(|a, b| a.start.total_cmp(&b.start));
    out
}

#[test]
fn classify_is_allocation_free_after_warmup() {
    let mut train = periodic_flows(10, "hb.cloud.com", 100.0, 400, 0.0);
    train.extend(periodic_flows(11, "ctl.cloud.com", 60.0, 400, 0.0));
    let set =
        PeriodicModelSet::train_with(&train, &PeriodicTrainConfig::default(), Parallelism::Off);
    assert_eq!(set.len(), 2, "both training groups must produce models");

    // Pre-construct every flow of every round: FlowRecord construction
    // (symbol interning on first sight) is not part of the contract.
    let rounds: Vec<Vec<FlowRecord>> = (0..4)
        .map(|r| monitor_round(50_000.0 + r as f64 * 2_000.0))
        .collect();

    let mut timers = PeriodicTimers::new();

    // Warm-up: first round inserts timer-table keys, grows the cluster
    // scratch, and registers metric handles.
    let expected: Vec<bool> = rounds[0]
        .iter()
        .map(|f| timers.classify(&set, f, false))
        .collect();
    assert!(
        expected.iter().any(|&b| b) && expected.iter().any(|&b| !b),
        "warm-up round must exercise both outcomes: {expected:?}"
    );

    // Steady state: fresh timestamps, same groups — zero allocations per
    // flow, on every branch.
    for (r, round) in rounds.iter().enumerate().skip(1) {
        for (i, f) in round.iter().enumerate() {
            let before = alloc_count();
            let got = timers.classify(&set, f, false);
            let after = alloc_count();
            assert_eq!(
                after - before,
                0,
                "round {r} flow {i} ({:?}): {} allocations on the steady-state \
                 classify path (result {got})",
                f.domain_str(),
                after - before
            );
        }
    }
}
