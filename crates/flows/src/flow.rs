//! Flow assembly and burst splitting.

use crate::domain::DomainTable;
use crate::features::{extract_with, FeatureScratch, FeatureVector, PacketView};
use crate::packet::GatewayPacket;
use crate::{is_local, FlowKey};
use behaviot_intern::{FxHashMap, Symbol};
use behaviot_net::Proto;
use std::net::Ipv4Addr;

/// Flow-assembly configuration.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Split a flow into bursts when consecutive packets are separated by
    /// more than this many seconds (1 s in the paper, after \[66, 76\]).
    pub burst_gap: f64,
    /// LAN subnet base address.
    pub subnet: Ipv4Addr,
    /// LAN prefix length.
    pub prefix_len: u8,
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self {
            burst_gap: 1.0,
            subnet: Ipv4Addr::new(192, 168, 0, 0),
            prefix_len: 16,
        }
    }
}

/// One flow burst with its annotations — the unit every later pipeline
/// stage ("event inference", "deviation metrics") operates on. The paper
/// refers to flow bursts simply as flows.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    /// The device (local endpoint) this flow belongs to.
    pub device: Ipv4Addr,
    /// Remote endpoint.
    pub remote: Ipv4Addr,
    /// Device-side port.
    pub device_port: u16,
    /// Remote-side port.
    pub remote_port: u16,
    /// Transport protocol.
    pub proto: Proto,
    /// Destination domain, when resolvable (interned).
    pub domain: Option<Symbol>,
    /// Burst start time.
    pub start: f64,
    /// Burst end time.
    pub end: f64,
    /// Number of packets.
    pub n_packets: usize,
    /// Total IP bytes.
    pub total_bytes: u64,
    /// The 21 features of Table 8.
    pub features: FeatureVector,
}

impl FlowRecord {
    /// Burst duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// The traffic-group key used by periodic modeling: destination domain
    /// (or the raw IP when unresolved) plus protocol. Copyable — no
    /// allocation per call; the IP fallback formats into a stack buffer and
    /// hits the interner's read-lock fast path after first sight.
    pub fn group_key(&self) -> (Symbol, Proto) {
        let dest = self
            .domain
            .unwrap_or_else(|| Symbol::intern_ipv4(self.remote));
        (dest, self.proto)
    }

    /// The destination domain as a string, when resolvable.
    pub fn domain_str(&self) -> Option<&'static str> {
        self.domain.map(Symbol::as_str)
    }
}

/// The flow-id key of a packet: its lower `(ip, port)` end in bits
/// 56..104, the higher in bits 8..56 and the IP protocol number in bits
/// 0..8, so both directions of a flow share one key.
fn unordered_key(p: &GatewayPacket) -> u128 {
    let end = |ip: Ipv4Addr, port: u16| u64::from(u32::from(ip)) << 16 | u64::from(port);
    let (x, y) = (end(p.src, p.src_port), end(p.dst, p.dst_port));
    u128::from(x.min(y)) << 56 | u128::from(x.max(y)) << 8 | u128::from(p.proto.number())
}

/// The packets `views[begin..end]` of one burst of flow `flow`.
struct Burst {
    flow: u32,
    begin: u32,
    end: u32,
}

/// Assemble packets into per-flow bursts with features and domain
/// annotations, ordered by burst start (ties keep the order in which the
/// flows were first seen).
///
/// Packets not involving any local address are dropped (transit noise),
/// and so are packets whose timestamp is not finite: the result equals
/// assembling only the finite packets. For device-to-device flows, the
/// flow is attributed to the endpoint that sent the first packet (the
/// initiator).
///
/// The work is done in a handful of flat buffers, so the number of heap
/// allocations grows only with their doublings, not with the number of
/// flows: packet indices sorted by `(ts, index)` (the order a stable sort
/// by time gives), one flow id per packed endpoint-pair key in first-sight
/// order, the packets of every flow counting-sorted into one buffer, and
/// the bursts, found while that buffer fills in time order and so listed
/// in start order.
///
/// # Panics
///
/// If `packets` holds more than `u32::MAX` packets (over 128 GiB of them).
pub fn assemble_flows(
    packets: &[GatewayPacket],
    domains: &DomainTable,
    cfg: &FlowConfig,
) -> Vec<FlowRecord> {
    let mut span = behaviot_obs::span!("flows.assemble", packets = packets.len());
    assert!(
        packets.len() <= u32::MAX as usize,
        "a window holds at most u32::MAX packets"
    );
    let local = |ip| is_local(ip, cfg.subnet, cfg.prefix_len);

    // Chronological order over the packets that can join a flow.
    let mut order: Vec<u32> = Vec::with_capacity(packets.len());
    for (i, p) in packets.iter().enumerate() {
        if p.ts.is_finite() && (local(p.src) || local(p.dst)) {
            order.push(i as u32);
        }
    }
    order.sort_unstable_by(|&a, &b| {
        let (pa, pb) = (&packets[a as usize], &packets[b as usize]);
        pa.ts.total_cmp(&pb.ts).then(a.cmp(&b))
    });

    // Flow ids in first-sight order; orientation is fixed at first sight.
    let mut ids: FxHashMap<u128, u32> = FxHashMap::default();
    let mut keys: Vec<FlowKey> = Vec::new();
    let mut flow_of: Vec<u32> = Vec::with_capacity(order.len());
    for &i in &order {
        let p = &packets[i as usize];
        let id = *ids.entry(unordered_key(p)).or_insert_with(|| {
            // Prefer the local src as the device; if the sender is remote,
            // the local dst is the device.
            keys.push(if local(p.src) {
                FlowKey {
                    device: p.src,
                    remote: p.dst,
                    device_port: p.src_port,
                    remote_port: p.dst_port,
                    proto: p.proto,
                }
            } else {
                FlowKey {
                    device: p.dst,
                    remote: p.src,
                    device_port: p.dst_port,
                    remote_port: p.src_port,
                    proto: p.proto,
                }
            });
            (keys.len() - 1) as u32
        });
        flow_of.push(id);
    }

    // Counting sort: flow `f` owns `views[fill[f]..fill[f + 1]]` and fills
    // it in time order, `fill[f]` moving to the flow's end as it does.
    let mut fill: Vec<u32> = vec![0; keys.len() + 1];
    for &f in &flow_of {
        fill[f as usize + 1] += 1;
    }
    for f in 0..keys.len() {
        fill[f + 1] += fill[f];
    }
    let blank = PacketView {
        ts: 0.0,
        bytes: 0,
        outbound: false,
        remote_is_local: false,
    };
    let mut views = vec![blank; order.len()];
    // A packet opens a burst when it is its flow's first, or comes more
    // than `burst_gap` after the flow's previous packet, so bursts open in
    // start order; a run of bitwise-equal starts is put in `(flow, begin)`
    // order once it ends. Ids follow first sight, so flow `f`'s first packet
    // is the first the walk meets after those of flows `0..f`.
    let mut bursts: Vec<Burst> = Vec::with_capacity(keys.len());
    let (mut seen, mut run, mut run_start) = (0, 0, f64::NAN);
    for (&i, &f) in order.iter().zip(&flow_of) {
        let p = &packets[i as usize];
        let key = &keys[f as usize];
        let at = fill[f as usize];
        let first = f == seen;
        seen += u32::from(first);
        if first || p.ts - views[at as usize - 1].ts > cfg.burst_gap {
            if p.ts.to_bits() != run_start.to_bits() {
                bursts[run..].sort_unstable_by_key(|b| (b.flow, b.begin));
                (run, run_start) = (bursts.len(), p.ts);
            }
            bursts.push(Burst {
                flow: f,
                begin: at,
                end: 0,
            });
        }
        views[at as usize] = PacketView {
            ts: p.ts,
            bytes: p.bytes,
            outbound: p.src == key.device && p.src_port == key.device_port,
            remote_is_local: local(key.remote),
        };
        fill[f as usize] += 1;
    }
    bursts[run..].sort_unstable_by_key(|b| (b.flow, b.begin));
    // Each burst ends where its flow's next one begins; the last at the
    // flow's end, where the walk left `fill`.
    for b in bursts.iter_mut().rev() {
        b.end = fill[b.flow as usize];
        fill[b.flow as usize] = b.begin;
    }

    // The table does not change during the call: one lookup per flow.
    let names: Vec<Option<Symbol>> = keys.iter().map(|k| domains.resolve(k.remote)).collect();
    // One scratch serves every extraction.
    let mut scratch = FeatureScratch::new();
    let mut out = Vec::with_capacity(bursts.len());
    for b in &bursts {
        let key = &keys[b.flow as usize];
        let burst = &views[b.begin as usize..b.end as usize];
        out.push(FlowRecord {
            device: key.device,
            remote: key.remote,
            device_port: key.device_port,
            remote_port: key.remote_port,
            proto: key.proto,
            domain: names[b.flow as usize],
            start: burst[0].ts,
            end: burst[burst.len() - 1].ts,
            n_packets: burst.len(),
            total_bytes: burst.iter().map(|p| p.bytes as u64).sum(),
            features: extract_with(burst, &mut scratch),
        });
    }
    behaviot_obs::metrics()
        .counter("flows.assembled")
        .add(out.len() as u64);
    span.record("bursts", out.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEV: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);
    const DEV2: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 11);
    const SRV: Ipv4Addr = Ipv4Addr::new(52, 1, 1, 1);

    fn pkt(ts: f64, src: Ipv4Addr, sp: u16, dst: Ipv4Addr, dp: u16, bytes: u32) -> GatewayPacket {
        GatewayPacket {
            ts,
            src,
            dst,
            src_port: sp,
            dst_port: dp,
            proto: Proto::Tcp,
            bytes,
        }
    }

    fn cfg() -> FlowConfig {
        FlowConfig::default()
    }

    #[test]
    fn bidirectional_packets_one_flow() {
        let pkts = [
            pkt(0.0, DEV, 40000, SRV, 443, 100),
            pkt(0.1, SRV, 443, DEV, 40000, 500),
            pkt(0.2, DEV, 40000, SRV, 443, 60),
        ];
        let flows = assemble_flows(&pkts, &DomainTable::new(), &cfg());
        assert_eq!(flows.len(), 1);
        let f = &flows[0];
        assert_eq!(f.device, DEV);
        assert_eq!(f.remote, SRV);
        assert_eq!(f.n_packets, 3);
        assert_eq!(f.total_bytes, 660);
        assert_eq!(f.features[11], 2.0); // out external
        assert_eq!(f.features[12], 1.0); // in external
    }

    #[test]
    fn burst_split_at_one_second() {
        let pkts = [
            pkt(0.0, DEV, 40000, SRV, 443, 100),
            pkt(0.5, DEV, 40000, SRV, 443, 100),
            pkt(5.0, DEV, 40000, SRV, 443, 100), // 4.5 s gap -> new burst
            pkt(5.2, DEV, 40000, SRV, 443, 100),
        ];
        let flows = assemble_flows(&pkts, &DomainTable::new(), &cfg());
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].n_packets, 2);
        assert_eq!(flows[1].n_packets, 2);
        assert!((flows[1].start - 5.0).abs() < 1e-9);
    }

    #[test]
    fn gap_exactly_at_threshold_not_split() {
        let pkts = [
            pkt(0.0, DEV, 40000, SRV, 443, 100),
            pkt(1.0, DEV, 40000, SRV, 443, 100),
        ];
        let flows = assemble_flows(&pkts, &DomainTable::new(), &cfg());
        assert_eq!(flows.len(), 1);
    }

    #[test]
    fn response_initiated_flow_attributed_to_device() {
        // First observed packet comes from the server (e.g. push).
        let pkts = [
            pkt(0.0, SRV, 443, DEV, 40000, 200),
            pkt(0.1, DEV, 40000, SRV, 443, 60),
        ];
        let flows = assemble_flows(&pkts, &DomainTable::new(), &cfg());
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].device, DEV);
        assert_eq!(flows[0].features[12], 1.0); // inbound external
        assert_eq!(flows[0].features[11], 1.0);
    }

    #[test]
    fn local_flow_attributed_to_initiator() {
        let pkts = [
            pkt(0.0, DEV, 5000, DEV2, 80, 100),
            pkt(0.1, DEV2, 80, DEV, 5000, 300),
        ];
        let flows = assemble_flows(&pkts, &DomainTable::new(), &cfg());
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].device, DEV);
        assert_eq!(flows[0].features[14], 2.0); // network_local
        assert_eq!(flows[0].features[13], 0.0); // network_external
    }

    #[test]
    fn transit_traffic_dropped() {
        let pkts = [pkt(0.0, SRV, 1, Ipv4Addr::new(8, 8, 8, 8), 2, 100)];
        assert!(assemble_flows(&pkts, &DomainTable::new(), &cfg()).is_empty());
    }

    #[test]
    fn domain_annotation_and_group_key() {
        let mut d = DomainTable::new();
        d.learn_dns(SRV, "devs.tplinkcloud.com");
        let pkts = [pkt(0.0, DEV, 40000, SRV, 443, 100)];
        let flows = assemble_flows(&pkts, &d, &cfg());
        assert_eq!(flows[0].domain_str(), Some("devs.tplinkcloud.com"));
        assert_eq!(
            flows[0].group_key(),
            (Symbol::intern("devs.tplinkcloud.com"), Proto::Tcp)
        );
        // Without DNS: group key falls back to IP, and the key is Copy —
        // repeated calls return the identical symbol with no allocation.
        let flows2 = assemble_flows(&pkts, &DomainTable::new(), &cfg());
        let (dest, proto) = flows2[0].group_key();
        assert_eq!(dest.as_str(), "52.1.1.1");
        assert_eq!(proto, Proto::Tcp);
        assert_eq!(flows2[0].group_key(), (dest, proto));
    }

    #[test]
    fn unsorted_input_handled() {
        let pkts = [
            pkt(5.0, DEV, 40000, SRV, 443, 100),
            pkt(0.0, DEV, 40000, SRV, 443, 100),
            pkt(0.3, DEV, 40000, SRV, 443, 100),
        ];
        let flows = assemble_flows(&pkts, &DomainTable::new(), &cfg());
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].n_packets, 2);
    }

    #[test]
    fn distinct_ports_distinct_flows() {
        let pkts = [
            pkt(0.0, DEV, 40000, SRV, 443, 100),
            pkt(0.1, DEV, 40001, SRV, 443, 100),
        ];
        let flows = assemble_flows(&pkts, &DomainTable::new(), &cfg());
        assert_eq!(flows.len(), 2);
    }

    #[test]
    fn empty_input() {
        assert!(assemble_flows(&[], &DomainTable::new(), &cfg()).is_empty());
    }

    #[test]
    fn non_finite_timestamps_are_skipped() {
        let at = |ts| pkt(ts, DEV, 40000, SRV, 443, 100);
        let cases = [
            vec![at(0.0), at(0.1), at(f64::NAN), at(0.2)],
            vec![
                at(0.0),
                at(f64::INFINITY),
                at(f64::INFINITY),
                at(f64::INFINITY),
            ],
            vec![at(-f64::NAN), at(f64::NEG_INFINITY), at(3.0), at(0.5)],
        ];
        for pkts in cases {
            let finite: Vec<GatewayPacket> =
                pkts.iter().filter(|p| p.ts.is_finite()).cloned().collect();
            let got = assemble_flows(&pkts, &DomainTable::new(), &cfg());
            let want = assemble_flows(&finite, &DomainTable::new(), &cfg());
            assert!(!want.is_empty());
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
    }

    #[test]
    fn equal_starts_keep_first_sight_order() {
        // Bursts that start at the same instant come in the order their
        // flows were first seen; at equal times the lower input index is
        // seen first. DEV2's flow is seen at 0.0, before DEV's port 40001
        // at 3.0, so its second burst leads the 3.0 tie.
        let pkts = [
            pkt(3.0, DEV, 40001, SRV, 443, 100),
            pkt(0.0, DEV, 40000, SRV, 443, 100),
            pkt(0.0, DEV2, 40000, SRV, 443, 100),
            pkt(3.0, DEV2, 40000, SRV, 443, 100),
        ];
        let flows = assemble_flows(&pkts, &DomainTable::new(), &cfg());
        let seen: Vec<(Ipv4Addr, u16, f64)> = flows
            .iter()
            .map(|f| (f.device, f.device_port, f.start))
            .collect();
        assert_eq!(
            seen,
            [
                (DEV, 40000, 0.0),
                (DEV2, 40000, 0.0),
                (DEV2, 40000, 3.0),
                (DEV, 40001, 3.0),
            ]
        );
    }

    /// `(device port, start, end, packets, bytes)` of each burst, in
    /// output order.
    fn bursts(flows: &[FlowRecord]) -> Vec<(u16, f64, f64, usize, u64)> {
        flows
            .iter()
            .map(|f| (f.device_port, f.start, f.end, f.n_packets, f.total_bytes))
            .collect()
    }

    #[test]
    fn tied_starts_follow_first_sight_not_packet_index() {
        // Ports 1, 2 and 3 are first seen at 0.0, 0.5 and 0.7, but their
        // packets at 2.0 come in the reverse index order. All three open a
        // burst at 2.0, in first-sight order. Port 4's packet at 2.0
        // continues the burst it opened at 1.5.
        let at = |ts, port, bytes| pkt(ts, DEV, port, SRV, 443, bytes);
        let pkts = [
            at(5.0, 1, 12),
            at(2.0, 3, 30),
            at(2.0, 4, 40),
            at(2.0, 2, 20),
            at(2.0, 1, 10),
            at(0.0, 1, 11),
            at(0.5, 2, 21),
            at(0.7, 3, 31),
            at(1.5, 4, 41),
            at(2.4, 2, 22),
        ];
        let flows = assemble_flows(&pkts, &DomainTable::new(), &cfg());
        assert_eq!(
            bursts(&flows),
            [
                (1, 0.0, 0.0, 1, 11),
                (2, 0.5, 0.5, 1, 21),
                (3, 0.7, 0.7, 1, 31),
                (4, 1.5, 2.0, 2, 81),
                (1, 2.0, 2.0, 1, 10),
                (2, 2.0, 2.4, 2, 42),
                (3, 2.0, 2.0, 1, 30),
                (1, 5.0, 5.0, 1, 12),
            ]
        );
    }

    #[test]
    fn zero_and_negative_gaps_split_same_instant_packets_only_below_zero() {
        let at = |ts, bytes| pkt(ts, DEV, 40000, SRV, 443, bytes);
        let pkts = [at(1.0, 100), at(1.0, 200), at(0.5, 50)];
        let with_gap = |burst_gap| FlowConfig { burst_gap, ..cfg() };
        // A gap of 0 is not more than 0: the two packets at 1.0 share a
        // burst.
        let flows = assemble_flows(&pkts, &DomainTable::new(), &with_gap(0.0));
        assert_eq!(
            bursts(&flows),
            [(40000, 0.5, 0.5, 1, 50), (40000, 1.0, 1.0, 2, 300)]
        );
        // Below zero every packet is its own burst, same-instant packets in
        // packet order.
        let flows = assemble_flows(&pkts, &DomainTable::new(), &with_gap(-1.0));
        assert_eq!(
            bursts(&flows),
            [
                (40000, 0.5, 0.5, 1, 50),
                (40000, 1.0, 1.0, 1, 100),
                (40000, 1.0, 1.0, 1, 200),
            ]
        );
    }

    #[test]
    fn nan_gap_never_splits() {
        let at = |ts| pkt(ts, DEV, 40000, SRV, 443, 100);
        let nan = FlowConfig {
            burst_gap: f64::NAN,
            ..cfg()
        };
        let flows = assemble_flows(&[at(100.0), at(0.0), at(5.0)], &DomainTable::new(), &nan);
        assert_eq!(bursts(&flows), [(40000, 0.0, 100.0, 3, 300)]);
    }
}
