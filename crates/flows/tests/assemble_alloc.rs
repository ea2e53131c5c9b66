//! Pins the allocation contract of flow assembly: [`assemble_flows`] works
//! in a fixed set of flat buffers, so its heap allocations grow only with
//! their doublings, never with the number of flows. A window of 5,000 flows
//! (30,000 packets, 10,000 bursts) must allocate fewer than 100 times, and
//! one tenth that size at most 32 times fewer.
//!
//! A counting global allocator makes the contract checkable (same rig as
//! `classify_frame_alloc.rs`; keep this file single-test — the counter is
//! process-global). It fails with both counts on regression, e.g. one
//! `Vec` per flow.

use behaviot_flows::{assemble_flows, DomainTable, FlowConfig, GatewayPacket};
use behaviot_net::Proto;
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

const SRV: Ipv4Addr = Ipv4Addr::new(52, 10, 20, 30);

/// `flows` TCP flows of six packets each, in two bursts of three ten
/// seconds apart; the flows' packets interleave in time and alternate
/// direction.
fn window(flows: usize) -> Vec<GatewayPacket> {
    let mut out = Vec::with_capacity(flows * 6);
    for burst in 0..2 {
        for k in 0..3 {
            for f in 0..flows {
                let device = Ipv4Addr::new(192, 168, 1 + (f / 200) as u8, 10 + (f % 200) as u8);
                let port = 40000 + (f % 7) as u16;
                let ts = burst as f64 * 10.0 + k as f64 * 0.2 + f as f64 * 1e-4;
                let bytes = 60 + (f % 13) as u32 * 40 + k * 100;
                out.push(if k % 2 == 0 {
                    GatewayPacket {
                        ts,
                        src: device,
                        dst: SRV,
                        src_port: port,
                        dst_port: 443,
                        proto: Proto::Tcp,
                        bytes,
                    }
                } else {
                    GatewayPacket {
                        ts,
                        src: SRV,
                        dst: device,
                        src_port: 443,
                        dst_port: port,
                        proto: Proto::Tcp,
                        bytes,
                    }
                });
            }
        }
    }
    out
}

#[test]
fn assembly_allocations_do_not_grow_with_flows() {
    let mut domains = DomainTable::new();
    domains.learn_dns(SRV, "api.example.com");
    let cfg = FlowConfig::default();
    let measure = |flows: usize| -> usize {
        let packets = window(flows);
        let before = alloc_count();
        let out = assemble_flows(&packets, &domains, &cfg);
        let allocs = alloc_count() - before;
        assert_eq!(out.len(), 2 * flows, "two bursts per flow");
        assert!(out.iter().all(|f| f.n_packets == 3));
        allocs
    };
    // Warm-up: the metrics registry and anything else set up on first use.
    measure(10);

    let large = measure(5_000);
    let small = measure(500);
    assert!(
        large < 100,
        "5,000 flows: {large} heap allocations (500 flows: {small})"
    );
    assert!(
        large <= small + 32,
        "allocations grow with flows: {small} for 500, {large} for 5,000"
    );
}
