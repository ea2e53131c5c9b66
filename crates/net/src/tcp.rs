//! TCP segment encoding and parsing (header + flags + checksum).

use crate::ipv4::transport_checksum;
use crate::{NetError, Result};
use std::net::Ipv4Addr;

/// Minimum TCP header length (no options).
pub const HEADER_LEN: usize = 20;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// FIN flag.
    pub fin: bool,
    /// SYN flag.
    pub syn: bool,
    /// RST flag.
    pub rst: bool,
    /// PSH flag.
    pub psh: bool,
    /// ACK flag.
    pub ack: bool,
}

impl TcpFlags {
    /// A plain data segment (`PSH|ACK`).
    pub const DATA: TcpFlags = TcpFlags {
        fin: false,
        syn: false,
        rst: false,
        psh: true,
        ack: true,
    };
    /// Connection-opening `SYN`.
    pub const SYN: TcpFlags = TcpFlags {
        fin: false,
        syn: true,
        rst: false,
        psh: false,
        ack: false,
    };
    /// `SYN|ACK` reply.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        fin: false,
        syn: true,
        rst: false,
        psh: false,
        ack: true,
    };
    /// Pure `ACK`.
    pub const ACK: TcpFlags = TcpFlags {
        fin: false,
        syn: false,
        rst: false,
        psh: false,
        ack: true,
    };
    /// `FIN|ACK` teardown.
    pub const FIN_ACK: TcpFlags = TcpFlags {
        fin: true,
        syn: false,
        rst: false,
        psh: false,
        ack: true,
    };

    fn to_byte(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
    }

    fn from_byte(b: u8) -> Self {
        TcpFlags {
            fin: b & 1 != 0,
            syn: b & 2 != 0,
            rst: b & 4 != 0,
            psh: b & 8 != 0,
            ack: b & 16 != 0,
        }
    }
}

/// A parsed TCP segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment<'a> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Advertised window.
    pub window: u16,
    /// Payload bytes.
    pub payload: &'a [u8],
}

/// Encode a TCP segment; addresses are needed for the pseudo-header
/// checksum.
#[allow(clippy::too_many_arguments)]
pub fn encode(
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    flags: TcpFlags,
    payload: &[u8],
) -> Vec<u8> {
    let mut seg = Vec::with_capacity(HEADER_LEN + payload.len());
    seg.extend_from_slice(&src_port.to_be_bytes());
    seg.extend_from_slice(&dst_port.to_be_bytes());
    seg.extend_from_slice(&seq.to_be_bytes());
    seg.extend_from_slice(&ack.to_be_bytes());
    seg.push(0x50); // data offset 5, no options
    seg.push(flags.to_byte());
    seg.extend_from_slice(&0xffffu16.to_be_bytes()); // window
    seg.extend_from_slice(&[0, 0]); // checksum placeholder
    seg.extend_from_slice(&[0, 0]); // urgent pointer
    seg.extend_from_slice(payload);
    let ck = transport_checksum(src_ip, dst_ip, 6, &seg, 16);
    seg[16..18].copy_from_slice(&ck.to_be_bytes());
    seg
}

/// Parse a TCP segment and verify its checksum against the given addresses.
pub fn parse<'a>(src_ip: Ipv4Addr, dst_ip: Ipv4Addr, bytes: &'a [u8]) -> Result<TcpSegment<'a>> {
    if bytes.len() < HEADER_LEN {
        return Err(NetError::Truncated {
            what: "tcp",
            needed: HEADER_LEN,
            got: bytes.len(),
        });
    }
    let data_off = (bytes[12] >> 4) as usize * 4;
    if data_off < HEADER_LEN || bytes.len() < data_off {
        return Err(NetError::Invalid {
            what: "tcp",
            reason: "bad data offset",
        });
    }
    let expect = u16::from_be_bytes([bytes[16], bytes[17]]);
    if transport_checksum(src_ip, dst_ip, 6, bytes, 16) != expect {
        return Err(NetError::Invalid {
            what: "tcp",
            reason: "checksum mismatch",
        });
    }
    Ok(TcpSegment {
        src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
        dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
        seq: u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
        ack: u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
        flags: TcpFlags::from_byte(bytes[13]),
        window: u16::from_be_bytes([bytes[14], bytes[15]]),
        payload: &bytes[data_off..],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn roundtrip() {
        let seg = encode(A, B, 50000, 443, 1000, 2000, TcpFlags::DATA, b"tls bytes");
        let parsed = parse(A, B, &seg).unwrap();
        assert_eq!(parsed.src_port, 50000);
        assert_eq!(parsed.dst_port, 443);
        assert_eq!(parsed.seq, 1000);
        assert_eq!(parsed.ack, 2000);
        assert!(parsed.flags.psh && parsed.flags.ack);
        assert_eq!(parsed.payload, b"tls bytes");
    }

    #[test]
    fn checksum_binds_addresses() {
        let seg = encode(A, B, 1, 2, 0, 0, TcpFlags::SYN, b"");
        // Same bytes, wrong pseudo-header -> checksum mismatch. (Note that
        // merely swapping src/dst keeps the one's-complement sum identical,
        // so we use a genuinely different address.)
        let c = Ipv4Addr::new(10, 0, 0, 7);
        assert!(parse(A, c, &seg).is_err());
        assert!(parse(A, B, &seg).is_ok());
    }

    #[test]
    fn corrupted_payload_detected() {
        let mut seg = encode(A, B, 1, 2, 9, 9, TcpFlags::DATA, b"hello");
        *seg.last_mut().unwrap() ^= 0x01;
        assert!(matches!(parse(A, B, &seg), Err(NetError::Invalid { .. })));
    }

    #[test]
    fn flags_roundtrip() {
        for flags in [
            TcpFlags::SYN,
            TcpFlags::SYN_ACK,
            TcpFlags::ACK,
            TcpFlags::FIN_ACK,
        ] {
            let seg = encode(A, B, 1, 2, 0, 0, flags, b"");
            assert_eq!(parse(A, B, &seg).unwrap().flags, flags);
        }
    }

    #[test]
    fn truncated() {
        assert!(matches!(
            parse(A, B, &[0u8; 12]),
            Err(NetError::Truncated { .. })
        ));
    }
}
