//! Inferred event types — the output of the device-behavior inference step.

use behaviot_intern::Symbol;
use behaviot_net::Proto;
use std::net::Ipv4Addr;

/// The three disjoint event classes of §4.1.
///
/// Labels are interned [`Symbol`]s: event construction on the per-flow hot
/// path is allocation-free, and the strings resolve at report boundaries.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A user event: activity label plus classifier confidence.
    User {
        /// Activity name (e.g. `"on_off"`), interned.
        activity: Symbol,
        /// Positive-classifier confidence in `[0, 1]`.
        confidence: f64,
    },
    /// A periodic event of the traffic group `(destination, proto)`.
    Periodic {
        /// Destination domain (or raw IP when unresolved), interned.
        destination: Symbol,
        /// Transport protocol.
        proto: Proto,
    },
    /// Neither user nor periodic.
    Aperiodic,
}

impl EventKind {
    /// Short class label ("user"/"periodic"/"aperiodic").
    pub fn class(&self) -> &'static str {
        match self {
            EventKind::User { .. } => "user",
            EventKind::Periodic { .. } => "periodic",
            EventKind::Aperiodic => "aperiodic",
        }
    }
}

/// One inferred event: a classified flow burst.
#[derive(Debug, Clone, PartialEq)]
pub struct InferredEvent {
    /// Burst start time.
    pub ts: f64,
    /// Owning device.
    pub device: Ipv4Addr,
    /// Destination domain (or raw IP), interned.
    pub destination: Symbol,
    /// Transport protocol.
    pub proto: Proto,
    /// The inferred class.
    pub kind: EventKind,
}

/// PFSM label of `device`'s user `activity`: `"<device>:<activity>"`, with
/// the device rendered through `names` when available.
pub(crate) fn user_label(
    device: Ipv4Addr,
    activity: Symbol,
    names: &std::collections::HashMap<Ipv4Addr, String>,
) -> String {
    match names.get(&device) {
        Some(name) => format!("{name}:{activity}"),
        None => format!("{device}:{activity}"),
    }
}

impl InferredEvent {
    /// PFSM label for user events: `"<device>:<activity>"`, with the device
    /// rendered through `names` when available.
    pub fn pfsm_label(
        &self,
        names: &std::collections::HashMap<Ipv4Addr, String>,
    ) -> Option<String> {
        match self.kind {
            EventKind::User { activity, .. } => Some(user_label(self.device, activity, names)),
            _ => None,
        }
    }

    /// [`Self::pfsm_label`] as an interned [`Symbol`] — the symbol-native
    /// trace pipeline's label form. Renders and interns on first sight of a
    /// `(device, activity)` pair; batch callers that need to stay
    /// allocation-free should cache the result per pair (the monitor does).
    pub fn pfsm_label_sym(
        &self,
        names: &std::collections::HashMap<Ipv4Addr, String>,
    ) -> Option<Symbol> {
        self.pfsm_label(names).map(|l| Symbol::intern(&l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn event_class_labels() {
        assert_eq!(EventKind::Aperiodic.class(), "aperiodic");
        assert_eq!(
            EventKind::User {
                activity: "x".into(),
                confidence: 0.9
            }
            .class(),
            "user"
        );
        assert_eq!(
            EventKind::Periodic {
                destination: "d".into(),
                proto: Proto::Tcp
            }
            .class(),
            "periodic"
        );
    }

    #[test]
    fn pfsm_label_only_for_user_events() {
        let ip = Ipv4Addr::new(192, 168, 1, 10);
        let mut names = HashMap::new();
        names.insert(ip, "Wemo Plug".to_string());
        let ev = InferredEvent {
            ts: 0.0,
            device: ip,
            destination: "d".into(),
            proto: Proto::Tcp,
            kind: EventKind::User {
                activity: "on_off".into(),
                confidence: 1.0,
            },
        };
        assert_eq!(ev.pfsm_label(&names).as_deref(), Some("Wemo Plug:on_off"));
        let pe = InferredEvent {
            kind: EventKind::Aperiodic,
            ..ev
        };
        assert_eq!(pe.pfsm_label(&names), None);
    }
}
