//! Temporal invariant mining (the Synoptic invariant families).
//!
//! Synoptic mines three kinds of invariants from a trace log and uses them
//! to steer model refinement. We mine the same three:
//!
//! * `a AlwaysFollowedBy b` — in every trace, every `a` is eventually
//!   followed by a `b`,
//! * `a NeverFollowedBy b` — in no trace is an `a` ever followed by a `b`,
//! * `a AlwaysPrecedes b` — in every trace, every `b` is preceded by an `a`.
//!
//! Beyond steering the model, mined invariants are interesting system
//! documentation on their own (e.g. "Ring Camera motion is always followed
//! by Gosund Bulb on" — the programmed automation of §6.1).

use crate::{EventId, TraceLog};
use behaviot_intern::{FxHashMap, FxHashSet};

/// The mined invariant sets. Pairs `(a, b)` are event ids of the log's
/// vocabulary.
#[derive(Debug, Clone, Default)]
pub struct Invariants {
    /// `a AlwaysFollowedBy b`.
    pub always_followed_by: FxHashSet<(EventId, EventId)>,
    /// `a NeverFollowedBy b`.
    pub never_followed_by: FxHashSet<(EventId, EventId)>,
    /// `a AlwaysPrecedes b`.
    pub always_precedes: FxHashSet<(EventId, EventId)>,
}

/// Mine the three invariant families from a log.
///
/// Implementation: one pass per trace maintaining, for each event type seen
/// so far, which types followed/preceded it; then intersect across
/// occurrences and traces. Complexity is `O(total_events × alphabet)`.
pub fn mine_invariants(log: &TraceLog) -> Invariants {
    let alphabet: Vec<EventId> = (0..log.vocab.len() as u32).map(EventId).collect();
    if alphabet.is_empty() {
        return Invariants::default();
    }

    // followed_by_all[a] = set of b that followed EVERY occurrence of a
    //   (intersection over occurrences, across all traces).
    // ever_followed[a] = set of b that followed SOME occurrence of a.
    // preceded_by_all[b] = set of a present before EVERY occurrence of b.
    let mut followed_by_all: FxHashMap<EventId, FxHashSet<EventId>> = FxHashMap::default();
    let mut ever_followed: FxHashMap<EventId, FxHashSet<EventId>> = FxHashMap::default();
    let mut preceded_by_all: FxHashMap<EventId, FxHashSet<EventId>> = FxHashMap::default();
    let mut occurs: FxHashSet<EventId> = FxHashSet::default();

    for trace in &log.traces {
        // Suffix sets: events occurring strictly after position i.
        let n = trace.len();
        let mut suffix: Vec<FxHashSet<EventId>> = vec![FxHashSet::default(); n];
        let mut acc: FxHashSet<EventId> = FxHashSet::default();
        for i in (0..n).rev() {
            suffix[i] = acc.clone();
            acc.insert(trace[i]);
        }
        // Prefix sets: events occurring strictly before position i.
        let mut prefix_acc: FxHashSet<EventId> = FxHashSet::default();
        for i in 0..n {
            let ev = trace[i];
            occurs.insert(ev);
            // AFby: intersect follower sets over occurrences.
            followed_by_all
                .entry(ev)
                .and_modify(|s| s.retain(|x| suffix[i].contains(x)))
                .or_insert_with(|| suffix[i].clone());
            ever_followed
                .entry(ev)
                .or_default()
                .extend(suffix[i].iter().copied());
            // AP: intersect predecessor sets over occurrences of ev-as-b.
            preceded_by_all
                .entry(ev)
                .and_modify(|s| s.retain(|x| prefix_acc.contains(x)))
                .or_insert_with(|| prefix_acc.clone());
            prefix_acc.insert(ev);
        }
    }

    let mut inv = Invariants::default();
    for &a in &alphabet {
        if !occurs.contains(&a) {
            continue;
        }
        if let Some(set) = followed_by_all.get(&a) {
            for &b in set {
                inv.always_followed_by.insert((a, b));
            }
        }
        let ever = ever_followed.get(&a);
        for &b in &alphabet {
            if !occurs.contains(&b) {
                continue;
            }
            if ever.is_none_or(|s| !s.contains(&b)) {
                inv.never_followed_by.insert((a, b));
            }
        }
        if let Some(set) = preceded_by_all.get(&a) {
            for &b in set {
                // every occurrence of `a` is preceded by `b`  =>  b AP a
                inv.always_precedes.insert((b, a));
            }
        }
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(traces: &[&[&str]]) -> TraceLog {
        let mut l = TraceLog::new();
        for t in traces {
            l.push_trace(t);
        }
        l
    }

    fn has(log: &TraceLog, set: &FxHashSet<(EventId, EventId)>, a: &str, b: &str) -> bool {
        match (log.vocab.get(a), log.vocab.get(b)) {
            (Some(a), Some(b)) => set.contains(&(a, b)),
            _ => false,
        }
    }

    #[test]
    fn afby_simple() {
        let l = log(&[&["motion", "light_on"], &["motion", "ring", "light_on"]]);
        let inv = mine_invariants(&l);
        assert!(has(&l, &inv.always_followed_by, "motion", "light_on"));
        // ring is not always followed by motion
        assert!(!has(&l, &inv.always_followed_by, "light_on", "motion"));
    }

    #[test]
    fn afby_broken_by_one_occurrence() {
        let l = log(&[&["a", "b"], &["a"]]);
        let inv = mine_invariants(&l);
        assert!(!has(&l, &inv.always_followed_by, "a", "b"));
    }

    #[test]
    fn nfby() {
        let l = log(&[&["open", "close"], &["open", "alarm", "close"]]);
        let inv = mine_invariants(&l);
        // close is never followed by open in this log
        assert!(has(&l, &inv.never_followed_by, "close", "open"));
        assert!(!has(&l, &inv.never_followed_by, "open", "close"));
        // nothing follows close at all
        assert!(has(&l, &inv.never_followed_by, "close", "alarm"));
    }

    #[test]
    fn always_precedes() {
        let l = log(&[&["unlock", "enter"], &["unlock", "knock", "enter"]]);
        let inv = mine_invariants(&l);
        assert!(has(&l, &inv.always_precedes, "unlock", "enter"));
        // knock does not always precede enter (missing in trace 1)
        assert!(!has(&l, &inv.always_precedes, "knock", "enter"));
    }

    #[test]
    fn self_relations() {
        let l = log(&[&["x", "x"]]);
        let inv = mine_invariants(&l);
        // second x is not followed by x -> not AFby(x,x); and x IS followed
        // by x somewhere, so not NFby(x,x) either.
        assert!(!has(&l, &inv.always_followed_by, "x", "x"));
        assert!(!has(&l, &inv.never_followed_by, "x", "x"));
    }

    #[test]
    fn empty_log() {
        let inv = mine_invariants(&TraceLog::new());
        assert!(inv.always_followed_by.is_empty());
        assert!(inv.never_followed_by.is_empty());
        assert!(inv.always_precedes.is_empty());
    }

    #[test]
    fn automation_example() {
        // R8: Ring Camera motion -> Gosund Bulb on (always, programmed).
        let l = log(&[
            &["ring_cam:motion", "gosund:on"][..],
            &["echo:voice", "ring_cam:motion", "gosund:on", "gosund:off"][..],
            &["ring_cam:motion", "gosund:on", "echo:voice"][..],
        ]);
        let inv = mine_invariants(&l);
        assert!(has(
            &l,
            &inv.always_followed_by,
            "ring_cam:motion",
            "gosund:on"
        ));
        assert!(has(
            &l,
            &inv.always_precedes,
            "ring_cam:motion",
            "gosund:on"
        ));
    }
}
