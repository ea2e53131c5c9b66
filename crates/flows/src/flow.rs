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

/// Unordered endpoint pair used to unify both directions of a flow.
#[derive(PartialEq, Eq, Hash, Clone, Copy)]
struct Unordered {
    a: (Ipv4Addr, u16),
    b: (Ipv4Addr, u16),
    proto: Proto,
}

impl Unordered {
    fn of(p: &GatewayPacket) -> Self {
        let x = (p.src, p.src_port);
        let y = (p.dst, p.dst_port);
        if x <= y {
            Self {
                a: x,
                b: y,
                proto: p.proto,
            }
        } else {
            Self {
                a: y,
                b: x,
                proto: p.proto,
            }
        }
    }
}

/// Assemble packets into per-flow bursts with features and domain
/// annotations.
///
/// Packets not involving any local address are dropped (transit noise).
/// For device-to-device flows, the flow is attributed to the endpoint that
/// sent the first packet (the initiator).
pub fn assemble_flows(
    packets: &[GatewayPacket],
    domains: &DomainTable,
    cfg: &FlowConfig,
) -> Vec<FlowRecord> {
    let mut span = behaviot_obs::span!("flows.assemble", packets = packets.len());
    let mut sorted: Vec<&GatewayPacket> = packets.iter().collect();
    sorted.sort_by(|a, b| a.ts.total_cmp(&b.ts));

    // Group by unordered 5-tuple, fixing orientation at first sight.
    let mut flows: FxHashMap<Unordered, (FlowKey, Vec<PacketView>)> = FxHashMap::default();
    let mut order: Vec<Unordered> = Vec::new();
    for p in sorted {
        let src_local = is_local(p.src, cfg.subnet, cfg.prefix_len);
        let dst_local = is_local(p.dst, cfg.subnet, cfg.prefix_len);
        if !src_local && !dst_local {
            continue;
        }
        let uk = Unordered::of(p);
        let entry = flows.entry(uk).or_insert_with(|| {
            order.push(uk);
            // Orientation: prefer the local src as the device; if the
            // sender is remote, the local dst is the device.
            let key = if src_local {
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
            };
            (key, Vec::new())
        });
        let key = &entry.0;
        entry.1.push(PacketView {
            ts: p.ts,
            bytes: p.bytes,
            outbound: p.src == key.device && p.src_port == key.device_port,
            remote_is_local: is_local(key.remote, cfg.subnet, cfg.prefix_len),
        });
    }

    // Split each flow into bursts and annotate. One scratch serves every
    // extraction — this loop runs once per burst over the whole capture.
    let mut scratch = FeatureScratch::new();
    let mut out = Vec::new();
    for uk in order {
        let (key, pkts) = &flows[&uk];
        let mut burst_start = 0usize;
        for i in 1..=pkts.len() {
            let split = i == pkts.len() || pkts[i].ts - pkts[i - 1].ts > cfg.burst_gap;
            if !split {
                continue;
            }
            let burst = &pkts[burst_start..i];
            burst_start = i;
            if burst.is_empty() {
                continue;
            }
            let features = extract_with(burst, &mut scratch);
            out.push(FlowRecord {
                device: key.device,
                remote: key.remote,
                device_port: key.device_port,
                remote_port: key.remote_port,
                proto: key.proto,
                domain: domains.resolve(key.remote),
                start: burst[0].ts,
                end: burst[burst.len() - 1].ts,
                n_packets: burst.len(),
                total_bytes: burst.iter().map(|p| p.bytes as u64).sum(),
                features,
            });
        }
    }
    out.sort_by(|a, b| a.start.total_cmp(&b.start));
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
}
