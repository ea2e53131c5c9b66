//! **BehavIoT** — network-inferred IoT behavior models and deviation
//! metrics.
//!
//! A from-scratch Rust reproduction of *"BehavIoT: Measuring Smart Home IoT
//! Behavior Using Network-Inferred Behavior Models"* (IMC 2023). The
//! library models the complete behavior of a smart-home IoT deployment from
//! (encrypted) gateway traffic only:
//!
//! 1. **Traffic partitioning** (`behaviot-flows`): packets → flows → 1 s
//!    bursts annotated with destination domains and the 21 features of
//!    Table 8.
//! 2. **Device behavior models** (§4.1): [`periodic`] infers *periodic
//!    models* per (destination, protocol) traffic group via DFT +
//!    autocorrelation, and classifies future flows with a count-up timer
//!    plus DBSCAN; [`user_action`] trains one binary random forest per user
//!    activity. [`events`] combines them to partition every flow into
//!    **user**, **periodic**, or **aperiodic** events.
//! 3. **System behavior model** (§4.2): [`system`] splits user events into
//!    traces at 60 s gaps and infers a probabilistic finite state machine
//!    (`behaviot-pfsm`).
//! 4. **Deviation metrics** (§4.3): [`deviation`] implements the
//!    periodic-event metric `Mp = ln(|T0−T|/T + 1)`, the short-term metric
//!    `A_T = 1 − log P_T`, and the long-term z-score metric, with the §5.3
//!    significance thresholds. [`monitor`] runs them over streaming capture
//!    windows.
//! 5. **Applications** (§7.2): [`destinations`] reproduces the destination
//!    party/essentiality analysis; [`profile`] exports MUD-like profiles;
//!    the `behaviot-store` crate ships lab-trained models to gateway
//!    deployments.
//!
//! # Quickstart
//!
//! ```
//! use behaviot::{BehavIoT, TrainConfig, TrainingData};
//! use behaviot_sim::{self as sim, Catalog, TruthLabel};
//! use behaviot_flows::{assemble_flows, FlowConfig};
//!
//! // Simulated testbed captures (stand-ins for gateway pcaps).
//! let catalog = Catalog::standard();
//! let idle = sim::idle_dataset(&catalog, 1, 0.2);
//! let activity = sim::activity_dataset(&catalog, 2, 2);
//!
//! let fc = FlowConfig::default();
//! let idle_flows = assemble_flows(&idle.packets, &idle.domains, &fc);
//! let act_flows = assemble_flows(&activity.packets, &activity.domains, &fc);
//! let labeled = sim::label_flows(&act_flows, &activity, &catalog, 0.75);
//!
//! // Train device behavior models (simulator labels become samples).
//! let samples = labeled.iter().map(|l| {
//!     let activity = match &l.label {
//!         Some(TruthLabel::User(a)) => Some(a.as_str()),
//!         _ => None,
//!     };
//!     (&l.flow, activity)
//! });
//! let names = (0..catalog.devices.len())
//!     .map(|i| (catalog.device_ip(i), catalog.devices[i].name.clone()))
//!     .collect();
//! let training = TrainingData::from_flows(idle_flows.clone(), samples, names);
//! let models = BehavIoT::train(&training, &TrainConfig::default());
//!
//! // Partition unseen traffic into user/periodic/aperiodic events.
//! let events = models.infer_events(&idle_flows);
//! assert!(!events.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod destinations;
pub mod deviation;
pub mod event;
pub mod events;
pub mod health;
pub mod monitor;
pub mod periodic;
pub mod profile;
pub mod system;
pub mod user_action;

pub use event::{EventKind, InferredEvent};
pub use events::{BehavIoT, EventScratch, TrainConfig, TrainingData};
pub use health::{HealthConfig, HealthExport, HealthRegistry, HealthState, HealthTransition};
pub use monitor::{
    Deviation, DeviationCause, DeviationKind, Monitor, MonitorConfig, MonitorState, WindowIngest,
};
pub use periodic::{
    GroupKey, PeriodicModel, PeriodicModelSet, PeriodicTimers, PeriodicTrainConfig,
};
pub use system::{SystemModel, SystemModelConfig};
pub use user_action::{UserActionModels, UserActionTrainConfig};

/// The width of every feature vector the models score: periodic clusters
/// and user-action forests of any other width cannot serve a flow.
pub use behaviot_flows::N_FEATURES;
