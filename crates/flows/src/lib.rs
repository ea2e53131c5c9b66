//! Traffic partitioning and annotation (§4.1 of the paper).
//!
//! The pipeline turns a gateway capture into annotated *flow bursts*:
//!
//! 1. packets are grouped into **flows** — chronologically ordered packets
//!    sharing a 5-tuple (source IP, source port, destination IP, destination
//!    port, transport protocol);
//! 2. long flows are split into **flow bursts** at inter-packet gaps larger
//!    than 1 second (the paper calls bursts "flows" from then on, and so do
//!    we: [`FlowRecord`] is a burst);
//! 3. each burst is annotated with start time, duration, protocol,
//!    destination domain (from DNS answers, TLS SNI, or a reverse-DNS
//!    table) and the 21 features of Table 8.
//!
//! The capture comes either as pcap bytes, which
//! [`ingest::ingest_pcap_bytes`] turns into packets (each frame through
//! [`classify_frame`]), or directly from the testbed simulator as
//! [`GatewayPacket`]s.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod domain;
pub mod features;
pub mod flow;
pub mod ingest;
pub mod packet;

pub use domain::DomainTable;
pub use features::{FeatureScratch, FeatureVector, FEATURE_NAMES, N_FEATURES};
pub use flow::{assemble_flows, FlowConfig, FlowRecord};
pub use ingest::{IngestOptions, Ingested};
pub use packet::{classify_frame, FrameClass, GatewayPacket, ParsedFrame};

// Re-exported so downstream pipeline crates share the same interner types
// without a separate dependency line.
pub use behaviot_intern::{FxHashMap, FxHashSet, Symbol};

use behaviot_net::Proto;
use std::net::Ipv4Addr;

/// Is an address on the smart-home LAN? BehavIoT distinguishes
/// local-network traffic from traffic to external servers (Table 8's
/// `network_local` vs `network_external` features).
pub fn is_local(ip: Ipv4Addr, subnet: Ipv4Addr, prefix_len: u8) -> bool {
    let mask = if prefix_len == 0 {
        0
    } else {
        u32::MAX << (32 - prefix_len as u32)
    };
    (u32::from(ip) & mask) == (u32::from(subnet) & mask)
}

/// The key identifying a flow from the observing device's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// The local (device) endpoint.
    pub device: Ipv4Addr,
    /// The remote endpoint (may itself be local for device-to-device
    /// traffic).
    pub remote: Ipv4Addr,
    /// Device-side port.
    pub device_port: u16,
    /// Remote-side port.
    pub remote_port: u16,
    /// Transport protocol.
    pub proto: Proto,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_subnet_membership() {
        let subnet = Ipv4Addr::new(192, 168, 0, 0);
        assert!(is_local(Ipv4Addr::new(192, 168, 1, 55), subnet, 16));
        assert!(!is_local(Ipv4Addr::new(8, 8, 8, 8), subnet, 16));
        assert!(is_local(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 0),
            8
        ));
        // prefix 0 matches everything
        assert!(is_local(Ipv4Addr::new(1, 2, 3, 4), subnet, 0));
    }
}
