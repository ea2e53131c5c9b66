//! Pins the allocation contract of frame classification: after one warm-up
//! call, [`classify_frame`] performs **zero** heap allocations on TCP data
//! frames, UDP frames that are not DNS, ARP frames and TCP frames with a
//! corrupt checksum — the bulk of a capture and its commonest corruption.
//! Only frames that teach a name (DNS answers, TLS server names) allocate,
//! to hold that name.
//!
//! A counting global allocator makes the contract checkable (same rig as
//! `crates/core/tests/classify_alloc.rs`; keep this file single-test — the
//! counter is process-global). It fails with the exact allocation count on
//! regression, e.g. a checksum check that copies the segment.

use behaviot_flows::{classify_frame, FrameClass};
use behaviot_net::tcp::{self, TcpFlags};
use behaviot_net::{arp, ethernet, ipv4, ntp, udp, MacAddr};
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

const DEV: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);
const SRV: Ipv4Addr = Ipv4Addr::new(52, 10, 20, 30);
const GW: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 1);

fn ip_frame(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, transport: &[u8]) -> Vec<u8> {
    ethernet::encode(
        MacAddr::from_index(1),
        MacAddr::from_index(0),
        ethernet::ETHERTYPE_IPV4,
        &ipv4::encode(src, dst, protocol, 7, transport),
    )
}

fn tcp_data_frame() -> Vec<u8> {
    // Application data, as most TLS traffic after the handshake.
    let mut payload = vec![0x17, 0x03, 0x03, 0x01, 0x00];
    payload.extend((0..256).map(|i| (i * 31) as u8));
    let seg = tcp::encode(DEV, SRV, 40000, 443, 1, 1, TcpFlags::DATA, &payload);
    ip_frame(DEV, SRV, 6, &seg)
}

#[test]
fn classify_frame_is_allocation_free_after_warmup() {
    let ntp_query = ntp::encode(ntp::Mode::Client, 0, 1_700_000_000.0);
    let udp_frame = ip_frame(DEV, GW, 17, &udp::encode(DEV, GW, 40123, 123, &ntp_query));
    let arp_frame = ethernet::encode(
        MacAddr::BROADCAST,
        MacAddr::from_index(1),
        ethernet::ETHERTYPE_ARP,
        &arp::encode(
            arp::Operation::Request,
            MacAddr::from_index(1),
            DEV,
            MacAddr([0; 6]),
            GW,
        ),
    );
    let mut corrupt_frame = tcp_data_frame();
    *corrupt_frame.last_mut().unwrap() ^= 0x01; // payload byte: checksum fails
    let frames: [(&str, Vec<u8>); 4] = [
        ("tcp data", tcp_data_frame()),
        ("udp, not dns", udp_frame),
        ("arp", arp_frame),
        ("tcp, corrupt checksum", corrupt_frame),
    ];

    for (name, frame) in &frames {
        // Warm-up: anything lazily initialized on first use.
        let class = classify_frame(0.5, frame);
        let want_flow = !matches!(*name, "arp" | "tcp, corrupt checksum");
        assert_eq!(
            matches!(class, FrameClass::Flow(_)),
            want_flow,
            "{name}: {class:?}"
        );
        drop(class);

        let before = alloc_count();
        for round in 0..3 {
            let class = classify_frame(1.0 + round as f64, frame);
            std::hint::black_box(&class);
        }
        let allocs = alloc_count() - before;
        assert_eq!(allocs, 0, "{name}: {allocs} heap allocations in 3 calls");
    }
}
