//! Property-based tests on cross-crate invariants (proptest).

use behaviot_dsp::period::{detect_periods, PeriodConfig};
use behaviot_dsp::Ecdf;
use behaviot_flows::features::{extract, PacketView};
use behaviot_flows::{assemble_flows, DomainTable, FlowConfig, GatewayPacket};
use behaviot_net::{dns, ipv4, tcp, tls, udp, Proto};
use behaviot_pfsm::{Pfsm, PfsmConfig, TraceLog};
use proptest::prelude::*;
use std::net::Ipv4Addr;

const DEV: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);
const SRV: Ipv4Addr = Ipv4Addr::new(52, 1, 1, 1);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flow assembly conserves packets: every local packet lands in exactly
    /// one burst.
    #[test]
    fn flow_assembly_conserves_packets(
        times in proptest::collection::vec(0.0f64..500.0, 1..120),
        sizes in proptest::collection::vec(40u32..1500, 1..120),
    ) {
        let n = times.len().min(sizes.len());
        let packets: Vec<GatewayPacket> = (0..n)
            .map(|i| GatewayPacket {
                ts: times[i],
                src: DEV,
                dst: SRV,
                src_port: 40000 + (i % 3) as u16,
                dst_port: 443,
                proto: Proto::Tcp,
                bytes: sizes[i],
            })
            .collect();
        let flows = assemble_flows(&packets, &DomainTable::new(), &FlowConfig::default());
        let total: usize = flows.iter().map(|f| f.n_packets).sum();
        prop_assert_eq!(total, n);
        let bytes: u64 = flows.iter().map(|f| f.total_bytes).sum();
        prop_assert_eq!(bytes, packets.iter().map(|p| p.bytes as u64).sum::<u64>());
        // Bursts are internally gap-bounded and non-overlapping per flow.
        for f in &flows {
            prop_assert!(f.end >= f.start);
        }
    }

    /// Feature extraction is permutation-independent for directional
    /// counters and bounded for size statistics.
    #[test]
    fn features_are_sane(
        pkts in proptest::collection::vec((0.0f64..10.0, 40u32..1500, any::<bool>()), 1..40)
    ) {
        let mut views: Vec<PacketView> = pkts
            .iter()
            .map(|&(ts, bytes, outbound)| PacketView {
                ts, bytes, outbound, remote_is_local: false,
            })
            .collect();
        views.sort_by(|a, b| a.ts.partial_cmp(&b.ts).unwrap());
        let f = extract(&views);
        prop_assert!(f[1] <= f[0] && f[0] <= f[2], "min <= mean <= max");
        prop_assert_eq!(f[13], views.len() as f64);
        prop_assert_eq!(f[14], 0.0);
        prop_assert!(f.iter().all(|x| x.is_finite()));
    }

    /// TCP and UDP encode/parse round-trip for arbitrary payloads/ports.
    #[test]
    fn transport_roundtrip(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        sp in 1u16..65535,
        dp in 1u16..65535,
    ) {
        let seg = tcp::encode(DEV, SRV, sp, dp, 7, 9, tcp::TcpFlags::DATA, &payload);
        let parsed = tcp::parse(DEV, SRV, &seg).unwrap();
        prop_assert_eq!(parsed.src_port, sp);
        prop_assert_eq!(parsed.payload, &payload[..]);

        let dg = udp::encode(DEV, SRV, sp, dp, &payload);
        let parsed = udp::parse(DEV, SRV, &dg).unwrap();
        prop_assert_eq!(parsed.dst_port, dp);
        prop_assert_eq!(parsed.payload, &payload[..]);

        let ip = ipv4::encode(DEV, SRV, 6, 1, &seg);
        let parsed = ipv4::parse(&ip).unwrap();
        prop_assert_eq!(parsed.payload, &seg[..]);
    }

    /// Parsers never panic on arbitrary bytes.
    #[test]
    fn parsers_are_total(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        let _ = ipv4::parse(&bytes);
        let _ = tcp::parse(DEV, SRV, &bytes);
        let _ = udp::parse(DEV, SRV, &bytes);
        let _ = dns::parse(&bytes);
        let _ = tls::extract_sni(&bytes);
        let _ = behaviot_flows::classify_frame(0.0, &bytes);
    }

    /// DNS name round-trip through query building and parsing.
    #[test]
    fn dns_name_roundtrip(labels in proptest::collection::vec("[a-z][a-z0-9]{0,10}", 1..5)) {
        let name = labels.join(".");
        let q = dns::build_query(7, &name).unwrap();
        let msg = dns::parse(&q).unwrap();
        prop_assert_eq!(&msg.questions[0], &name);
    }

    /// The PFSM accepts every trace of any log it was inferred from, and
    /// scoring is finite with smoothing.
    #[test]
    fn pfsm_accepts_its_log(
        traces in proptest::collection::vec(
            proptest::collection::vec(0u8..6, 1..8),
            1..20
        )
    ) {
        let mut log = TraceLog::new();
        for t in &traces {
            let labels: Vec<String> = t.iter().map(|e| format!("e{e}")).collect();
            log.push_trace(&labels);
        }
        let m = Pfsm::infer(&log, &PfsmConfig::default());
        for t in &log.traces {
            let resolved: Vec<_> = t.iter().map(|&e| Some(e)).collect();
            prop_assert!(m.accepts(&resolved));
            prop_assert!(m.score(&resolved).log10_prob.is_finite());
        }
        // Probabilities out of each state sum to ~1.
        let mut sums = std::collections::HashMap::new();
        for (from, _, _, p) in m.transitions() {
            *sums.entry(from).or_insert(0.0) += p;
        }
        for (_, s) in sums {
            prop_assert!((s - 1.0f64).abs() < 1e-9);
        }
    }

    /// Period detection finds planted periods and ECDFs are monotone.
    #[test]
    fn period_detection_on_planted_signal(period in 40.0f64..400.0, phase in 0.0f64..1.0) {
        let span = period * 200.0;
        let ts: Vec<f64> = (0..200).map(|k| phase * period + k as f64 * period).collect();
        let found = detect_periods(&ts, &PeriodConfig::default());
        prop_assert!(!found.is_empty());
        prop_assert!((found[0].period - period).abs() / period < 0.05,
            "planted {period}, found {}", found[0].period);
        let _ = span;
    }

    /// ECDF quantile/eval are mutually consistent.
    #[test]
    fn ecdf_consistency(sample in proptest::collection::vec(-100.0f64..100.0, 1..200)) {
        let e = Ecdf::new(sample.clone());
        // Quantiles interpolate between order statistics, so F(Q(q)) may
        // undershoot q by at most one sample's mass.
        let slack = 1.0 / sample.len() as f64 + 1e-9;
        for &q in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            let x = e.quantile(q);
            let f = e.eval(x);
            prop_assert!(f >= q - slack, "F(Q({q})) = {f}");
            prop_assert!(f <= 1.0 + 1e-9);
        }
    }
}
