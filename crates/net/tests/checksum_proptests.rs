//! Pins the checksum acceptance rule of `tcp::parse` and `udp::parse`.
//!
//! Both sum the segment around its checksum field in place. They must
//! accept exactly the segments the reference rule accepts: the transport
//! checksum of a copy of the segment with its checksum field zeroed must
//! equal the stored value, where a computed 0 is sent as 0xffff (RFC 768),
//! and for UDP a stored 0 means "no checksum". The reference is written out
//! below, word by word. The cases include segments whose computed checksum
//! is that substituted 0xffff, so a "whole segment sums to 0xffff" shortcut,
//! which would also accept a stored 0x0000 over TCP, fails here.

use behaviot_net::{tcp, udp};
use proptest::prelude::*;
use std::net::Ipv4Addr;

const TCP: u8 = 6;
const UDP: u8 = 17;
/// Offsets of the checksum fields.
const TCP_FIELD: usize = 16;
const UDP_FIELD: usize = 6;

/// Folded one's-complement sum of the IPv4 pseudo-header and a copy of
/// `segment` with the checksum field at `field` zeroed, 16 bits at a time.
fn reference_sum(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, segment: &[u8], field: usize) -> u16 {
    let mut seg = segment.to_vec();
    seg[field..field + 2].fill(0);
    let mut pseudo = Vec::with_capacity(12);
    pseudo.extend_from_slice(&src.octets());
    pseudo.extend_from_slice(&dst.octets());
    pseudo.extend_from_slice(&[0, protocol]);
    pseudo.extend_from_slice(&(seg.len() as u16).to_be_bytes());
    let mut sum = 0u32;
    for w in pseudo.chunks(2).chain(seg.chunks(2)) {
        sum += u32::from(u16::from_be_bytes([w[0], w.get(1).copied().unwrap_or(0)]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// The checksum `segment` should carry: the complemented sum, with a
/// computed 0 sent as 0xffff.
fn reference_checksum(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: u8,
    segment: &[u8],
    field: usize,
) -> u16 {
    match !reference_sum(src, dst, protocol, segment, field) {
        0 => 0xffff,
        ck => ck,
    }
}

/// Set the 16-bit word at the even offset `word` so that the segment sums
/// to 0 modulo 0xffff: its computed checksum is then 0, sent as 0xffff.
fn force_zero_sum(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: u8,
    segment: &mut [u8],
    field: usize,
    word: usize,
) {
    segment[word..word + 2].fill(0);
    let rest = reference_sum(src, dst, protocol, segment, field);
    segment[word..word + 2].copy_from_slice(&(0xffff - rest).to_be_bytes());
}

/// The stored checksum a case tests: the correct one, 0x0000, 0xffff, or
/// an arbitrary value.
fn stored_value(kind: u8, correct: u16, arbitrary: u16) -> u16 {
    match kind % 4 {
        0 => correct,
        1 => 0x0000,
        2 => 0xffff,
        _ => arbitrary,
    }
}

/// A TCP segment with a valid data offset (5 words) around random bytes.
fn tcp_segment(mut bytes: Vec<u8>) -> Vec<u8> {
    bytes[12] = 0x50 | (bytes[12] & 0x0f);
    bytes
}

/// A UDP datagram whose length field covers its first `len` bytes.
fn udp_datagram(mut bytes: Vec<u8>, len: usize) -> Vec<u8> {
    bytes[4..6].copy_from_slice(&(len as u16).to_be_bytes());
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn tcp_accepts_exactly_when_the_reference_rule_does(
        addrs in (any::<u32>(), any::<u32>()),
        bytes in proptest::collection::vec(any::<u8>(), 20..1501),
        stored in (0u8..4, any::<u16>()),
        zero_sum in any::<bool>()
    ) {
        let (src, dst) = (Ipv4Addr::from(addrs.0), Ipv4Addr::from(addrs.1));
        let mut seg = tcp_segment(bytes);
        if zero_sum {
            // The urgent pointer is the adjustable word.
            force_zero_sum(src, dst, TCP, &mut seg, TCP_FIELD, 18);
        }
        let correct = reference_checksum(src, dst, TCP, &seg, TCP_FIELD);
        let stored = stored_value(stored.0, correct, stored.1);
        seg[TCP_FIELD..TCP_FIELD + 2].copy_from_slice(&stored.to_be_bytes());
        prop_assert_eq!(
            tcp::parse(src, dst, &seg).is_ok(),
            stored == correct,
            "len {} stored {:#06x} correct {:#06x}",
            seg.len(),
            stored,
            correct
        );
    }

    #[test]
    fn udp_accepts_exactly_when_the_reference_rule_does(
        addrs in (any::<u32>(), any::<u32>()),
        shape in (proptest::collection::vec(any::<u8>(), 8..1501), any::<usize>()),
        stored in (0u8..4, any::<u16>()),
        zero_sum in any::<bool>()
    ) {
        let (src, dst) = (Ipv4Addr::from(addrs.0), Ipv4Addr::from(addrs.1));
        // The length field may stop short of the bytes: the checksum covers
        // the datagram it declares.
        let (bytes, cut) = shape;
        let len = 8 + cut % (bytes.len() - 7);
        let mut dg = udp_datagram(bytes, len);
        if zero_sum {
            // The source port is the adjustable word.
            force_zero_sum(src, dst, UDP, &mut dg[..len], UDP_FIELD, 0);
        }
        let correct = reference_checksum(src, dst, UDP, &dg[..len], UDP_FIELD);
        let stored = stored_value(stored.0, correct, stored.1);
        dg[UDP_FIELD..UDP_FIELD + 2].copy_from_slice(&stored.to_be_bytes());
        prop_assert_eq!(
            udp::parse(src, dst, &dg).is_ok(),
            stored == 0 || stored == correct,
            "len {} of {} stored {:#06x} correct {:#06x}",
            len,
            dg.len(),
            stored,
            correct
        );
    }
}

/// The ±0 corner on its own: a segment whose computed checksum is the
/// substituted 0xffff accepts a stored 0xffff, and a stored 0x0000 only
/// over UDP.
#[test]
fn substituted_ffff_accepts_ffff_and_rejects_tcp_zero() {
    let (src, dst) = (
        Ipv4Addr::new(192, 168, 1, 10),
        Ipv4Addr::new(52, 10, 20, 30),
    );
    for len in [20, 21, 64, 65, 1500] {
        let mut seg = tcp_segment((0..len).map(|i| (i * 37 + 11) as u8).collect());
        force_zero_sum(src, dst, TCP, &mut seg, TCP_FIELD, 18);
        assert_eq!(reference_checksum(src, dst, TCP, &seg, TCP_FIELD), 0xffff);
        seg[TCP_FIELD..TCP_FIELD + 2].copy_from_slice(&[0xff, 0xff]);
        assert!(
            tcp::parse(src, dst, &seg).is_ok(),
            "tcp len {len}: 0xffff refused"
        );
        seg[TCP_FIELD..TCP_FIELD + 2].copy_from_slice(&[0, 0]);
        assert!(
            tcp::parse(src, dst, &seg).is_err(),
            "tcp len {len}: 0x0000 accepted"
        );

        let mut dg = udp_datagram((0..len).map(|i| (i * 53 + 7) as u8).collect(), len);
        force_zero_sum(src, dst, UDP, &mut dg, UDP_FIELD, 0);
        assert_eq!(reference_checksum(src, dst, UDP, &dg, UDP_FIELD), 0xffff);
        dg[UDP_FIELD..UDP_FIELD + 2].copy_from_slice(&[0xff, 0xff]);
        assert!(
            udp::parse(src, dst, &dg).is_ok(),
            "udp len {len}: 0xffff refused"
        );
        dg[UDP_FIELD..UDP_FIELD + 2].copy_from_slice(&[0, 0]);
        assert!(
            udp::parse(src, dst, &dg).is_ok(),
            "udp len {len}: no-checksum refused"
        );
    }
}
