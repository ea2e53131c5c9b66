//! Destination analysis (§6.1): which parties each event class talks to,
//! and how events correlate with destination essentiality.

use crate::event::InferredEvent;
use behaviot_intern::{FxHashMap, FxHashSet, Symbol};
use std::net::Ipv4Addr;

/// Destination party, as in Table 5. The caller supplies the mapping
/// (WHOIS-derived in the paper; the simulator catalog here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Party {
    /// Device vendor or affiliate.
    First,
    /// Cloud/CDN supporting the device function.
    Support,
    /// Anyone else.
    Third,
}

impl Party {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Party::First => "first",
            Party::Support => "support",
            Party::Third => "third",
        }
    }
}

/// Distinct-destination counts per `(event class, category, party)` — the
/// exact structure of Table 5. "Destination" means a distinct
/// `(device, domain)` pair, as the same domain contacted by two devices
/// shows up once per device in the paper's accounting.
#[derive(Debug, Clone, Default)]
pub struct PartyTable {
    counts: FxHashMap<(Symbol, Symbol, Party), usize>,
}

impl PartyTable {
    /// Count destination parties over inferred events.
    ///
    /// * `party_of(domain)` — party mapping; unknown domains are skipped.
    /// * `category_of(device)` — device category label (e.g. "Camera").
    pub fn build(
        events: &[InferredEvent],
        party_of: impl Fn(&str) -> Option<Party>,
        category_of: impl Fn(Ipv4Addr) -> String,
    ) -> Self {
        let mut seen: FxHashSet<(Symbol, Ipv4Addr, Symbol)> = FxHashSet::default();
        let mut counts: FxHashMap<(Symbol, Symbol, Party), usize> = FxHashMap::default();
        for e in events {
            let class = Symbol::intern(e.kind.class());
            if !seen.insert((class, e.device, e.destination)) {
                continue;
            }
            let Some(party) = party_of(e.destination.as_str()) else {
                continue;
            };
            let cat = Symbol::intern(&category_of(e.device));
            *counts.entry((class, cat, party)).or_insert(0) += 1;
        }
        PartyTable { counts }
    }

    /// Count for one cell.
    pub fn get(&self, class: &str, category: &str, party: Party) -> usize {
        let (Some(class), Some(category)) = (Symbol::lookup(class), Symbol::lookup(category))
        else {
            return 0;
        };
        self.counts
            .get(&(class, category, party))
            .copied()
            .unwrap_or(0)
    }

    /// Total destinations of a class per party (the "Total" rows).
    pub fn class_total(&self, class: &str, party: Party) -> usize {
        let Some(class) = Symbol::lookup(class) else {
            return 0;
        };
        self.counts
            .iter()
            .filter(|((c, _, p), _)| *c == class && *p == party)
            .map(|(_, n)| n)
            .sum()
    }

    /// Fraction of a class's destinations operated by a party (e.g. the
    /// "15.0 % of periodic destinations are third party" headline).
    pub fn party_share(&self, class: &str, party: Party) -> f64 {
        let total: usize = [Party::First, Party::Support, Party::Third]
            .iter()
            .map(|&p| self.class_total(class, p))
            .sum();
        if total == 0 {
            0.0
        } else {
            self.class_total(class, party) as f64 / total as f64
        }
    }

    /// All category labels present.
    pub fn categories(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .counts
            .keys()
            .map(|(_, c, _)| c.as_str().to_string())
            .collect::<FxHashSet<_>>()
            .into_iter()
            .collect();
        v.sort();
        v
    }
}

/// Essentiality breakdown per event class (the §6.1 non-essential
/// destination analysis): distinct destinations whose domain is flagged
/// essential / non-essential by the provided list.
#[derive(Debug, Clone, Default)]
pub struct EssentialBreakdown {
    /// `(class, essential?) -> distinct destinations`.
    pub counts: FxHashMap<(Symbol, bool), usize>,
}

impl EssentialBreakdown {
    /// Build from events; domains absent from the essentiality map are
    /// skipped (the paper could match only a subset against IoTrim's
    /// lists).
    pub fn build(events: &[InferredEvent], essential_of: impl Fn(&str) -> Option<bool>) -> Self {
        let mut seen: FxHashSet<(Symbol, Ipv4Addr, Symbol)> = FxHashSet::default();
        let mut counts: FxHashMap<(Symbol, bool), usize> = FxHashMap::default();
        for e in events {
            let class = Symbol::intern(e.kind.class());
            if !seen.insert((class, e.device, e.destination)) {
                continue;
            }
            if let Some(ess) = essential_of(e.destination.as_str()) {
                *counts.entry((class, ess)).or_insert(0) += 1;
            }
        }
        EssentialBreakdown { counts }
    }

    /// Count for a class/flag.
    pub fn get(&self, class: &str, essential: bool) -> usize {
        let Some(class) = Symbol::lookup(class) else {
            return 0;
        };
        self.counts.get(&(class, essential)).copied().unwrap_or(0)
    }

    /// Fraction of a class's (matched) destinations that are non-essential.
    pub fn non_essential_share(&self, class: &str) -> f64 {
        let ne = self.get(class, false);
        let total = ne + self.get(class, true);
        if total == 0 {
            0.0
        } else {
            ne as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use behaviot_net::Proto;

    fn ev(dev: u8, dest: &str, kind: EventKind) -> InferredEvent {
        InferredEvent {
            ts: 0.0,
            device: Ipv4Addr::new(192, 168, 1, dev),
            destination: dest.into(),
            proto: Proto::Tcp,
            kind,
        }
    }

    fn periodic(dev: u8, dest: &str) -> InferredEvent {
        ev(
            dev,
            dest,
            EventKind::Periodic {
                destination: dest.into(),
                proto: Proto::Tcp,
            },
        )
    }

    fn user(dev: u8, dest: &str) -> InferredEvent {
        ev(
            dev,
            dest,
            EventKind::User {
                activity: "x".into(),
                confidence: 1.0,
            },
        )
    }

    fn party_map(d: &str) -> Option<Party> {
        match d {
            "vendor.com" => Some(Party::First),
            "cdn.net" => Some(Party::Support),
            "tracker.io" => Some(Party::Third),
            _ => None,
        }
    }

    #[test]
    fn party_table_counts_distinct_destinations() {
        let events = vec![
            periodic(10, "vendor.com"),
            periodic(10, "vendor.com"), // duplicate: not counted twice
            periodic(10, "tracker.io"),
            periodic(11, "vendor.com"), // other device: separate destination
            user(10, "cdn.net"),
        ];
        let t = PartyTable::build(&events, party_map, |_| "Cat".to_string());
        assert_eq!(t.get("periodic", "Cat", Party::First), 2);
        assert_eq!(t.get("periodic", "Cat", Party::Third), 1);
        assert_eq!(t.get("user", "Cat", Party::Support), 1);
        assert_eq!(t.class_total("periodic", Party::First), 2);
        assert!((t.party_share("periodic", Party::Third) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_party_skipped() {
        let events = vec![periodic(10, "mystery.example")];
        let t = PartyTable::build(&events, party_map, |_| "Cat".to_string());
        assert_eq!(t.class_total("periodic", Party::First), 0);
        assert_eq!(t.party_share("periodic", Party::First), 0.0);
    }

    #[test]
    fn essential_breakdown() {
        let ess = |d: &str| match d {
            "vendor.com" => Some(true),
            "tracker.io" => Some(false),
            _ => None,
        };
        let events = vec![
            periodic(10, "vendor.com"),
            periodic(10, "tracker.io"),
            periodic(11, "tracker.io"),
            user(10, "vendor.com"),
        ];
        let b = EssentialBreakdown::build(&events, ess);
        assert_eq!(b.get("periodic", true), 1);
        assert_eq!(b.get("periodic", false), 2);
        assert!((b.non_essential_share("periodic") - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(b.non_essential_share("user"), 0.0);
        assert_eq!(b.non_essential_share("aperiodic"), 0.0);
    }

    #[test]
    fn categories_listed() {
        let events = vec![periodic(10, "vendor.com"), periodic(20, "vendor.com")];
        let t = PartyTable::build(&events, party_map, |ip| {
            if ip.octets()[3] < 15 {
                "A".into()
            } else {
                "B".into()
            }
        });
        assert_eq!(t.categories(), vec!["A".to_string(), "B".to_string()]);
    }
}
