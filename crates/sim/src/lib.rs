//! Deterministic smart-home IoT testbed simulator.
//!
//! The paper's evaluation runs on a physical testbed of 49 consumer IoT
//! devices (Table 1) captured at a gateway over months. This crate
//! substitutes that testbed with a discrete-event traffic simulator whose
//! devices reproduce the *behavioral structure* the pipeline consumes:
//!
//! * per-device **periodic endpoints** (heartbeats, telemetry, DNS, NTP)
//!   with stable destination domains, parties (first/support/third) and
//!   periods — including the concrete models the paper reports (e.g.
//!   TP-Link Plug: TCP `*.tplinkcloud.com` @ 236 s, DNS @ 3603 s, NTP @
//!   3603 s),
//! * **user activities** with device/activity-specific packet-size
//!   signatures (learnable by the user-action models, §4.1), including the
//!   pathologies §5.1/§6.1 report: indistinguishable on/off pairs, the
//!   SmartThings Hub's user traffic hiding inside its background TCP
//!   connection, and Echo Show 5 idle flows that mimic user events,
//! * the 16 **automations** of Table 7 for the routine dataset,
//! * the four **datasets** of §3 (idle, activity, routine, uncontrolled)
//!   plus the §6.2 incident script (camera relocation, lab experiment,
//!   device resets, outages, SwitchBot malfunction).
//!
//! Everything is reproducible from a `u64` seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod automation;
pub mod catalog;
pub mod datasets;
pub mod faults;
pub mod gen;
pub mod label;
pub mod types;

pub use catalog::Catalog;
pub use datasets::{
    activity_dataset, idle_dataset, routine_dataset, uncontrolled_day, ExpectedIncident,
    ExpectedSignal, IncidentScript, UncontrolledConfig,
};
pub use faults::{mutate_bytes, write_pcap, ExpectedCounts, Fault, FaultPlan, CLOCK_JUMP_DELTA};
pub use gen::{Capture, TrafficGenerator};
pub use label::{label_flows, LabeledFlow};
pub use types::{
    ActivitySpec, Category, DeviceSpec, PacketPattern, Party, PeriodicSpec, TruthEvent, TruthLabel,
};
