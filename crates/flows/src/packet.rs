//! Gateway packet representation and raw-frame parsing.

use behaviot_net::{dns, ethernet, ipv4, tcp, tls, udp, Proto};
use std::net::Ipv4Addr;

/// A packet as the gateway observes it — addresses, ports, protocol, size
/// and timestamp. This is the pivot type between raw captures, the
/// simulator, and flow assembly. Sizes are IP total length (headers +
/// payload), matching what a header-only observer can measure.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayPacket {
    /// Capture timestamp, seconds since start of capture.
    pub ts: f64,
    /// IP source.
    pub src: Ipv4Addr,
    /// IP destination.
    pub dst: Ipv4Addr,
    /// Transport source port.
    pub src_port: u16,
    /// Transport destination port.
    pub dst_port: u16,
    /// Transport protocol.
    pub proto: Proto,
    /// IP total length in bytes.
    pub bytes: u32,
}

/// Result of parsing one link-layer frame: the flow-level packet plus any
/// in-band naming information (DNS answers / TLS SNI) discovered in it.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedFrame {
    /// The flow-level view.
    pub packet: GatewayPacket,
    /// `(ip, domain)` pairs from DNS answers in this frame.
    pub dns_mappings: Vec<(Ipv4Addr, String)>,
    /// SNI host if the frame carries a TLS ClientHello.
    pub sni: Option<String>,
}

/// How a link-layer frame relates to the flow pipeline.
///
/// The distinction between [`FrameClass::NonIp`] and [`FrameClass::Corrupt`]
/// matters for ingest accounting: a clean capture is full of ARP/ICMP/IPv6
/// chatter the pipeline legitimately ignores, but a *mangled* IPv4 TCP/UDP
/// frame is evidence of capture corruption and must be counted.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameClass {
    /// An IPv4 TCP/UDP frame the pipeline models.
    Flow(ParsedFrame),
    /// A well-formed frame of a kind the pipeline does not model
    /// (ARP, IPv6, ICMP, ...).
    NonIp,
    /// A frame that claims to be (or should be) IPv4 TCP/UDP but fails
    /// structural or checksum validation.
    Corrupt(&'static str),
}

/// Classify an Ethernet frame captured at time `ts`: parse it into a
/// [`ParsedFrame`] if it is a well-formed IPv4 TCP/UDP frame, report it as
/// [`FrameClass::NonIp`] if it is a frame kind the pipeline does not model,
/// and as [`FrameClass::Corrupt`] if it fails validation. Never panics.
pub fn classify_frame(ts: f64, frame: &[u8]) -> FrameClass {
    let eth = match ethernet::parse(frame) {
        Ok(e) => e,
        Err(_) => return FrameClass::Corrupt("short ethernet frame"),
    };
    if eth.ethertype != ethernet::ETHERTYPE_IPV4 {
        return FrameClass::NonIp;
    }
    let ip = match ipv4::parse(eth.payload) {
        Ok(ip) => ip,
        Err(_) => return FrameClass::Corrupt("ipv4 header invalid"),
    };
    let Some(proto) = ip.proto() else {
        return FrameClass::NonIp;
    };
    let (src_port, dst_port, payload): (u16, u16, &[u8]) = match proto {
        Proto::Tcp => match tcp::parse(ip.src, ip.dst, ip.payload) {
            Ok(seg) => (seg.src_port, seg.dst_port, seg.payload),
            Err(_) => return FrameClass::Corrupt("tcp segment invalid"),
        },
        Proto::Udp => match udp::parse(ip.src, ip.dst, ip.payload) {
            Ok(dg) => (dg.src_port, dg.dst_port, dg.payload),
            Err(_) => return FrameClass::Corrupt("udp datagram invalid"),
        },
    };

    let mut dns_mappings = Vec::new();
    if proto == Proto::Udp && (src_port == 53 || dst_port == 53) {
        if let Ok(msg) = dns::parse(payload) {
            if msg.is_response {
                for ans in msg.answers {
                    dns_mappings.push((ans.addr, ans.name));
                }
            }
        }
    }
    let sni = if proto == Proto::Tcp && !payload.is_empty() {
        tls::extract_sni(payload).ok().flatten()
    } else {
        None
    };

    FrameClass::Flow(ParsedFrame {
        packet: GatewayPacket {
            ts,
            src: ip.src,
            dst: ip.dst,
            src_port,
            dst_port,
            proto,
            bytes: ip.total_len as u32,
        },
        dns_mappings,
        sni,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use behaviot_net::tcp::TcpFlags;
    use behaviot_net::MacAddr;

    const DEV: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);
    const SRV: Ipv4Addr = Ipv4Addr::new(52, 10, 20, 30);

    /// The parsed form of a frame that must classify as a flow frame.
    fn flow(ts: f64, frame: &[u8]) -> ParsedFrame {
        match classify_frame(ts, frame) {
            FrameClass::Flow(parsed) => parsed,
            other => panic!("not a flow frame: {other:?}"),
        }
    }

    fn wrap_ip(ip_payload: Vec<u8>) -> Vec<u8> {
        ethernet::encode(
            MacAddr::from_index(0),
            MacAddr::from_index(1),
            ethernet::ETHERTYPE_IPV4,
            &ip_payload,
        )
    }

    #[test]
    fn parses_tcp_frame() {
        let seg = tcp::encode(DEV, SRV, 40000, 443, 1, 0, TcpFlags::DATA, b"data");
        let frame = wrap_ip(ipv4::encode(DEV, SRV, 6, 7, &seg));
        let parsed = flow(3.25, &frame);
        assert_eq!(parsed.packet.ts, 3.25);
        assert_eq!(parsed.packet.src, DEV);
        assert_eq!(parsed.packet.dst, SRV);
        assert_eq!(parsed.packet.src_port, 40000);
        assert_eq!(parsed.packet.dst_port, 443);
        assert_eq!(parsed.packet.proto, Proto::Tcp);
        assert_eq!(parsed.packet.bytes as usize, 20 + 20 + 4);
        assert!(parsed.dns_mappings.is_empty());
        assert!(parsed.sni.is_none());
    }

    #[test]
    fn extracts_sni_from_client_hello() {
        let hello = tls::build_client_hello("iot.us-east-1.amazonaws.com", 5);
        let seg = tcp::encode(DEV, SRV, 40001, 443, 1, 0, TcpFlags::DATA, &hello);
        let frame = wrap_ip(ipv4::encode(DEV, SRV, 6, 8, &seg));
        let parsed = flow(0.0, &frame);
        assert_eq!(parsed.sni.as_deref(), Some("iot.us-east-1.amazonaws.com"));
    }

    #[test]
    fn extracts_dns_answers() {
        let resp = dns::build_response(1, "devs.tplinkcloud.com", &[SRV], 300).unwrap();
        let dg = udp::encode(Ipv4Addr::new(192, 168, 1, 1), DEV, 53, 5353, &resp);
        let frame = wrap_ip(ipv4::encode(Ipv4Addr::new(192, 168, 1, 1), DEV, 17, 9, &dg));
        let parsed = flow(0.0, &frame);
        assert_eq!(
            parsed.dns_mappings,
            vec![(SRV, "devs.tplinkcloud.com".to_string())]
        );
    }

    #[test]
    fn dns_query_yields_no_mappings() {
        let q = dns::build_query(2, "example.com").unwrap();
        let dg = udp::encode(DEV, Ipv4Addr::new(192, 168, 1, 1), 5353, 53, &q);
        let frame = wrap_ip(ipv4::encode(
            DEV,
            Ipv4Addr::new(192, 168, 1, 1),
            17,
            10,
            &dg,
        ));
        let parsed = flow(0.0, &frame);
        assert!(parsed.dns_mappings.is_empty());
    }

    #[test]
    fn non_ipv4_skipped() {
        let frame = ethernet::encode(
            MacAddr::BROADCAST,
            MacAddr::from_index(1),
            ethernet::ETHERTYPE_ARP,
            &[0u8; 28],
        );
        assert_eq!(classify_frame(0.0, &frame), FrameClass::NonIp);
    }

    #[test]
    fn garbage_skipped_without_panic() {
        let short = FrameClass::Corrupt("short ethernet frame");
        assert_eq!(classify_frame(0.0, &[]), short);
        assert_eq!(classify_frame(0.0, &[0xde; 7]), short);
        // Ethertype 0xdede is not IPv4.
        assert_eq!(classify_frame(0.0, &[0xde; 200]), FrameClass::NonIp);
    }

    #[test]
    fn icmp_skipped() {
        let frame = wrap_ip(ipv4::encode(DEV, SRV, 1, 11, &[0u8; 8]));
        assert_eq!(classify_frame(0.0, &frame), FrameClass::NonIp);
    }

    #[test]
    fn classify_distinguishes_non_ip_from_corrupt() {
        // ARP and ICMP are well-formed non-flow traffic.
        let arp = ethernet::encode(
            MacAddr::BROADCAST,
            MacAddr::from_index(1),
            ethernet::ETHERTYPE_ARP,
            &[0u8; 28],
        );
        assert_eq!(classify_frame(0.0, &arp), FrameClass::NonIp);
        let icmp = wrap_ip(ipv4::encode(DEV, SRV, 1, 11, &[0u8; 8]));
        assert_eq!(classify_frame(0.0, &icmp), FrameClass::NonIp);

        // A valid TCP frame classifies as Flow...
        let seg = tcp::encode(DEV, SRV, 40000, 443, 1, 0, TcpFlags::DATA, b"data");
        let mut frame = wrap_ip(ipv4::encode(DEV, SRV, 6, 7, &seg));
        assert!(matches!(
            classify_frame(1.0, &frame),
            FrameClass::Flow(p) if p.packet.dst_port == 443
        ));

        // ...and flipping any byte past the Ethernet header breaks a
        // checksum, turning it into Corrupt.
        frame[30] ^= 0xff;
        assert!(matches!(
            classify_frame(1.0, &frame),
            FrameClass::Corrupt(_)
        ));

        // Truncated to less than an Ethernet header is Corrupt too.
        assert!(matches!(
            classify_frame(0.0, &frame[..7]),
            FrameClass::Corrupt(_)
        ));
    }
}
