//! IPv4 header encoding and parsing, including header checksums.

use crate::{NetError, Proto, Result};
use std::net::Ipv4Addr;

/// Minimum (and, for our traffic, the only) IPv4 header length.
pub const HEADER_LEN: usize = 20;

/// A parsed IPv4 header plus a view of the payload (options are accepted on
/// parse but never generated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet<'a> {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Transport protocol number (see [`Proto::from_number`]).
    pub protocol: u8,
    /// Time-to-live.
    pub ttl: u8,
    /// Identification field.
    pub ident: u16,
    /// Total length as declared by the header.
    pub total_len: u16,
    /// Transport payload.
    pub payload: &'a [u8],
}

impl Ipv4Packet<'_> {
    /// The transport protocol, if it is one BehavIoT models.
    pub fn proto(&self) -> Option<Proto> {
        Proto::from_number(self.protocol)
    }
}

/// Add `data`, read as big-endian 16-bit words (an odd last byte padded
/// with zero), to the unfolded one's-complement sum `acc` (RFC 1071). The
/// checksum routines of this crate all sum through here and fold once at
/// the end ([`fold`]).
///
/// Four bytes are added at a time: the big-endian `u32` of two words is
/// `hi·2¹⁶ + lo ≡ hi + lo (mod 0xffff)`, and [`fold`] depends only on the
/// sum modulo 0xffff and on whether it is zero, so the result equals the
/// word-by-word sum. Chaining calls keeps the word pairing as long as every
/// slice but the last has even length. The `u64` cannot overflow below
/// 2³² four-byte steps (16 GiB).
fn sum_words(mut acc: u64, data: &[u8]) -> u64 {
    let mut quads = data.chunks_exact(4);
    for q in &mut quads {
        acc += u64::from(u32::from_be_bytes([q[0], q[1], q[2], q[3]]));
    }
    acc + match *quads.remainder() {
        [a, b, c] => u64::from(u16::from_be_bytes([a, b])) + u64::from(u16::from_be_bytes([c, 0])),
        [a, b] => u64::from(u16::from_be_bytes([a, b])),
        [a] => u64::from(u16::from_be_bytes([a, 0])),
        _ => 0,
    }
}

/// Fold a wide one's-complement sum into 16 bits (end-around carry).
fn fold(mut acc: u64) -> u16 {
    while acc > 0xffff {
        acc = (acc & 0xffff) + (acc >> 16);
    }
    acc as u16
}

/// Internet checksum (RFC 1071) over `data`.
pub fn checksum(data: &[u8]) -> u16 {
    !fold(sum_words(0, data))
}

/// Encode an IPv4 packet (no options, DF set, TTL 64) around `payload`.
pub fn encode(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, ident: u16, payload: &[u8]) -> Vec<u8> {
    let total_len = (HEADER_LEN + payload.len()) as u16;
    let mut hdr = [0u8; HEADER_LEN];
    hdr[0] = 0x45; // version 4, IHL 5
    hdr[1] = 0; // DSCP/ECN
    hdr[2..4].copy_from_slice(&total_len.to_be_bytes());
    hdr[4..6].copy_from_slice(&ident.to_be_bytes());
    hdr[6..8].copy_from_slice(&0x4000u16.to_be_bytes()); // DF
    hdr[8] = 64; // TTL
    hdr[9] = protocol;
    // checksum at [10..12], zero during computation
    hdr[12..16].copy_from_slice(&src.octets());
    hdr[16..20].copy_from_slice(&dst.octets());
    let ck = checksum(&hdr);
    hdr[10..12].copy_from_slice(&ck.to_be_bytes());

    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&hdr);
    out.extend_from_slice(payload);
    out
}

/// Parse an IPv4 packet, verifying version, lengths and the header checksum.
pub fn parse(bytes: &[u8]) -> Result<Ipv4Packet<'_>> {
    if bytes.len() < HEADER_LEN {
        return Err(NetError::Truncated {
            what: "ipv4",
            needed: HEADER_LEN,
            got: bytes.len(),
        });
    }
    let version = bytes[0] >> 4;
    if version != 4 {
        return Err(NetError::Invalid {
            what: "ipv4",
            reason: "version is not 4",
        });
    }
    let ihl = (bytes[0] & 0x0f) as usize * 4;
    if ihl < HEADER_LEN {
        return Err(NetError::Invalid {
            what: "ipv4",
            reason: "IHL below minimum",
        });
    }
    if bytes.len() < ihl {
        return Err(NetError::Truncated {
            what: "ipv4 options",
            needed: ihl,
            got: bytes.len(),
        });
    }
    if checksum(&bytes[..ihl]) != 0 {
        return Err(NetError::Invalid {
            what: "ipv4",
            reason: "header checksum mismatch",
        });
    }
    let total_len = u16::from_be_bytes([bytes[2], bytes[3]]);
    if (total_len as usize) < ihl || bytes.len() < total_len as usize {
        return Err(NetError::Invalid {
            what: "ipv4",
            reason: "total length inconsistent",
        });
    }
    Ok(Ipv4Packet {
        src: Ipv4Addr::new(bytes[12], bytes[13], bytes[14], bytes[15]),
        dst: Ipv4Addr::new(bytes[16], bytes[17], bytes[18], bytes[19]),
        protocol: bytes[9],
        ttl: bytes[8],
        ident: u16::from_be_bytes([bytes[4], bytes[5]]),
        total_len,
        payload: &bytes[ihl..total_len as usize],
    })
}

/// Pseudo-header checksum seed for TCP/UDP checksums over IPv4.
fn pseudo_header_sum(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, len: u16) -> u64 {
    let acc = sum_words(u64::from(protocol) + u64::from(len), &src.octets());
    sum_words(acc, &dst.octets())
}

/// The transport checksum of `segment`, including the IPv4 pseudo-header,
/// computed as if its 2-byte checksum field at `field` held zero. The sum
/// runs around the field, so verifying a received segment needs no zeroed
/// copy. `field` must be even (TCP 16, UDP 6), so that the words after it
/// pair up as in the whole segment, and `field + 2 <= segment.len()`.
pub(crate) fn transport_checksum(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: u8,
    segment: &[u8],
    field: usize,
) -> u16 {
    debug_assert!(
        field.is_multiple_of(2),
        "checksum field at odd offset {field}"
    );
    let acc = pseudo_header_sum(src, dst, protocol, segment.len() as u16);
    let acc = sum_words(sum_words(acc, &segment[..field]), &segment[field + 2..]);
    // Per RFC 768 a computed zero checksum is transmitted as all-ones.
    match !fold(acc) {
        0 => 0xffff,
        ck => ck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);
    const B: Ipv4Addr = Ipv4Addr::new(52, 119, 1, 2);

    #[test]
    fn roundtrip() {
        let pkt = encode(A, B, 6, 0x1234, b"payload!");
        let parsed = parse(&pkt).unwrap();
        assert_eq!(parsed.src, A);
        assert_eq!(parsed.dst, B);
        assert_eq!(parsed.protocol, 6);
        assert_eq!(parsed.proto(), Some(Proto::Tcp));
        assert_eq!(parsed.ident, 0x1234);
        assert_eq!(parsed.payload, b"payload!");
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut pkt = encode(A, B, 17, 1, b"x");
        pkt[8] ^= 0xff; // corrupt TTL
        assert!(matches!(parse(&pkt), Err(NetError::Invalid { .. })));
    }

    #[test]
    fn rfc1071_example() {
        // Example from RFC 1071: sum of 00 01 f2 03 f4 f5 f6 f7 -> checksum
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), !0xddf2u16);
    }

    #[test]
    fn odd_length_checksum() {
        let data = [0xab, 0xcd, 0xef];
        // Manually: abcd + ef00 = 1_9acd -> 9ace -> !0x9ace
        assert_eq!(checksum(&data), !0x9aceu16);
    }

    #[test]
    fn truncated_and_bad_version() {
        assert!(matches!(parse(&[0u8; 10]), Err(NetError::Truncated { .. })));
        let mut pkt = encode(A, B, 6, 0, b"");
        pkt[0] = 0x65; // version 6
        assert!(matches!(parse(&pkt), Err(NetError::Invalid { .. })));
    }

    #[test]
    fn total_len_bounds_payload() {
        // Extra trailing bytes beyond total_len must be excluded.
        let mut pkt = encode(A, B, 6, 0, b"abcd");
        pkt.extend_from_slice(b"JUNK");
        let parsed = parse(&pkt).unwrap();
        assert_eq!(parsed.payload, b"abcd");
    }
}
