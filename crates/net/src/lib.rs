//! Network substrate for BehavIoT.
//!
//! BehavIoT observes (often encrypted) IP traffic at the home gateway and
//! never inspects payloads beyond protocol headers, DNS responses and the
//! TLS Server Name Indication. This crate provides everything the pipeline
//! and the testbed simulator need to produce and consume such traffic:
//!
//! * packet header encoding/parsing for Ethernet II, IPv4, TCP and UDP with
//!   correct checksums ([`ethernet`], [`ipv4`], [`tcp`], [`udp`]),
//! * a libpcap classic file reader/writer ([`pcap`]),
//! * a DNS message builder/parser sufficient to extract `IP → domain`
//!   mappings from responses ([`dns`]),
//! * a TLS ClientHello builder/parser for SNI extraction ([`tls`]),
//! * NTP, ARP and ICMP-echo codecs for the remaining LAN chatter a real
//!   capture contains ([`ntp`], [`arp`], [`icmp`]).
//!
//! All parsers are total: malformed input yields an error, never a panic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arp;
pub mod dns;
pub mod ethernet;
pub mod icmp;
pub mod ipv4;
pub mod ntp;
pub mod pcap;
pub mod report;
pub mod tcp;
pub mod tls;
pub mod udp;

pub use report::{IngestCategory, IngestReport, IngestSample};

use std::fmt;

/// Errors produced by the parsers in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Input ended before the structure was complete.
    Truncated {
        /// Which structure was being parsed.
        what: &'static str,
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// A field held a value the parser cannot accept.
    Invalid {
        /// Which structure was being parsed.
        what: &'static str,
        /// Human-readable description of the problem.
        reason: &'static str,
    },
    /// Wrapped I/O error (pcap file reading/writing).
    Io(String),
    /// A lossy-tolerant ingest run dropped more records than its configured
    /// error budget allows (`--max-drop-frac`).
    BudgetExceeded {
        /// Records dropped across all corruption categories.
        dropped: u64,
        /// Total records the stream was expected to carry.
        total: u64,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Truncated { what, needed, got } => {
                write!(f, "truncated {what}: needed {needed} bytes, got {got}")
            }
            NetError::Invalid { what, reason } => write!(f, "invalid {what}: {reason}"),
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::BudgetExceeded { dropped, total } => write!(
                f,
                "ingest error budget exceeded: dropped {dropped} of {total} records"
            ),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, NetError>;

/// A 48-bit Ethernet MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// Deterministic locally-administered MAC derived from an index — used
    /// by the simulator to give each testbed device a stable address.
    pub fn from_index(idx: u32) -> Self {
        let b = idx.to_be_bytes();
        MacAddr([0x02, 0x42, b[0], b[1], b[2], b[3]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = &self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            m[0], m[1], m[2], m[3], m[4], m[5]
        )
    }
}

/// Transport protocol of a flow, as BehavIoT distinguishes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Proto {
    /// TCP (IP protocol 6).
    Tcp,
    /// UDP (IP protocol 17).
    Udp,
}

impl Proto {
    /// IP protocol number.
    pub fn number(self) -> u8 {
        match self {
            Proto::Tcp => 6,
            Proto::Udp => 17,
        }
    }

    /// From an IP protocol number.
    pub fn from_number(n: u8) -> Option<Self> {
        match n {
            6 => Some(Proto::Tcp),
            17 => Some(Proto::Udp),
            _ => None,
        }
    }
}

impl fmt::Display for Proto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Proto::Tcp => write!(f, "TCP"),
            Proto::Udp => write!(f, "UDP"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_display() {
        assert_eq!(
            MacAddr([0, 1, 2, 0xaa, 0xbb, 0xcc]).to_string(),
            "00:01:02:aa:bb:cc"
        );
    }

    #[test]
    fn mac_from_index_stable_and_unique() {
        assert_eq!(MacAddr::from_index(7), MacAddr::from_index(7));
        assert_ne!(MacAddr::from_index(7), MacAddr::from_index(8));
    }

    #[test]
    fn proto_roundtrip() {
        assert_eq!(Proto::from_number(Proto::Tcp.number()), Some(Proto::Tcp));
        assert_eq!(Proto::from_number(Proto::Udp.number()), Some(Proto::Udp));
        assert_eq!(Proto::from_number(1), None);
    }

    #[test]
    fn error_display() {
        let e = NetError::Truncated {
            what: "ipv4",
            needed: 20,
            got: 3,
        };
        assert!(e.to_string().contains("ipv4"));
    }
}
