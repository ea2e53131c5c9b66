//! UDP datagram encoding and parsing.

use crate::ipv4::transport_checksum;
use crate::{NetError, Result};
use std::net::Ipv4Addr;

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// A parsed UDP datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram<'a> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: &'a [u8],
}

/// Encode a UDP datagram with a valid checksum.
pub fn encode(
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Vec<u8> {
    let len = (HEADER_LEN + payload.len()) as u16;
    let mut dg = Vec::with_capacity(len as usize);
    dg.extend_from_slice(&src_port.to_be_bytes());
    dg.extend_from_slice(&dst_port.to_be_bytes());
    dg.extend_from_slice(&len.to_be_bytes());
    dg.extend_from_slice(&[0, 0]); // checksum placeholder
    dg.extend_from_slice(payload);
    let ck = transport_checksum(src_ip, dst_ip, 17, &dg, 6);
    dg[6..8].copy_from_slice(&ck.to_be_bytes());
    dg
}

/// Parse a UDP datagram, verifying length and (if nonzero) checksum.
pub fn parse<'a>(src_ip: Ipv4Addr, dst_ip: Ipv4Addr, bytes: &'a [u8]) -> Result<UdpDatagram<'a>> {
    if bytes.len() < HEADER_LEN {
        return Err(NetError::Truncated {
            what: "udp",
            needed: HEADER_LEN,
            got: bytes.len(),
        });
    }
    let len = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
    if len < HEADER_LEN || bytes.len() < len {
        return Err(NetError::Invalid {
            what: "udp",
            reason: "length inconsistent",
        });
    }
    // A stored zero means the sender computed no checksum.
    let expect = u16::from_be_bytes([bytes[6], bytes[7]]);
    if expect != 0 && transport_checksum(src_ip, dst_ip, 17, &bytes[..len], 6) != expect {
        return Err(NetError::Invalid {
            what: "udp",
            reason: "checksum mismatch",
        });
    }
    Ok(UdpDatagram {
        src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
        dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
        payload: &bytes[HEADER_LEN..len],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 5);
    const B: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);

    #[test]
    fn roundtrip() {
        let dg = encode(A, B, 5353, 53, b"dns query");
        let parsed = parse(A, B, &dg).unwrap();
        assert_eq!(parsed.src_port, 5353);
        assert_eq!(parsed.dst_port, 53);
        assert_eq!(parsed.payload, b"dns query");
    }

    #[test]
    fn zero_checksum_accepted() {
        let mut dg = encode(A, B, 1, 2, b"x");
        dg[6] = 0;
        dg[7] = 0;
        assert!(parse(A, B, &dg).is_ok());
    }

    #[test]
    fn corruption_detected() {
        let mut dg = encode(A, B, 1, 2, b"payload");
        *dg.last_mut().unwrap() ^= 0x80;
        assert!(parse(A, B, &dg).is_err());
    }

    #[test]
    fn length_field_bounds_payload() {
        let mut dg = encode(A, B, 1, 2, b"abc");
        dg.extend_from_slice(b"trailing-junk");
        let parsed = parse(A, B, &dg).unwrap();
        assert_eq!(parsed.payload, b"abc");
    }

    #[test]
    fn truncated() {
        assert!(matches!(
            parse(A, B, &[1, 2, 3]),
            Err(NetError::Truncated { .. })
        ));
    }
}
