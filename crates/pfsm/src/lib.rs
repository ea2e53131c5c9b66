//! Probabilistic finite-state-machine inference for BehavIoT system
//! behavior models (§4.2 of the paper).
//!
//! The paper feeds user-event traces to Synoptic \[17\], which produces a
//! PFSM whose states abstract user activities and whose transition
//! probabilities capture temporal/causal structure. This crate reimplements
//! that functionality from scratch:
//!
//! * [`EventVocab`] / [`TraceLog`] — interned event labels and trace sets,
//! * [`invariants`] — mining of the Synoptic temporal invariants
//!   (AlwaysFollowedBy, NeverFollowedBy, AlwaysPrecedes),
//! * [`model::Pfsm`] — PFSM inference by partitioning event instances on
//!   their event type and k-step future (a deterministic variant of kTails
//!   state merging), transition probabilities with additive smoothing,
//!   acceptance and Viterbi trace scoring,
//! * [`seqgraph::SeqGraph`] — the naive "parallel event sequences" baseline
//!   the paper compares model sizes against in Fig. 3.
//!
//! Properties reproduced from §5.2: the PFSM accepts every trace used to
//! build it; it also accepts unseen recombinations/permutations of seen
//! behavior; and it is far more compact than the sequence-graph baseline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod invariants;
pub mod model;
pub mod seqgraph;

pub use invariants::{mine_invariants, Invariants};
pub use model::{Pfsm, PfsmConfig, ScoreScratch, StateId, TraceScore};
pub use seqgraph::SeqGraph;

use behaviot_intern::{FxHashMap, Symbol};

/// Interned event label — a *dense* per-vocabulary index (0, 1, 2, ...)
/// suitable for array-indexed transition tables, unlike the process-global
/// [`Symbol`] ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub u32);

/// Bidirectional event-label interner.
///
/// Label storage is backed by the process-global symbol table: the vocab
/// maps `Symbol -> EventId` and keeps the dense id order of first
/// insertion, so interning a known label is a 4-byte hash probe and
/// `name()` resolves without owning any string data.
#[derive(Debug, Clone, Default)]
pub struct EventVocab {
    names: Vec<Symbol>,
    map: FxHashMap<Symbol, EventId>,
}

impl EventVocab {
    /// New empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a label, returning its id (existing id if already present).
    pub fn intern(&mut self, name: &str) -> EventId {
        let sym = Symbol::intern(name);
        if let Some(&id) = self.map.get(&sym) {
            return id;
        }
        let id = EventId(self.names.len() as u32);
        self.names.push(sym);
        self.map.insert(sym, id);
        id
    }

    /// Look up an existing label without interning.
    pub fn get(&self, name: &str) -> Option<EventId> {
        let sym = Symbol::lookup(name)?;
        self.map.get(&sym).copied()
    }

    /// Look up an already-interned label without the string hash of
    /// [`Self::get`] — a 4-byte probe, the serving-path lookup.
    pub fn get_sym(&self, sym: Symbol) -> Option<EventId> {
        self.map.get(&sym).copied()
    }

    /// The label for an id. Panics on a foreign id.
    pub fn name(&self, id: EventId) -> &'static str {
        self.names[id.0 as usize].as_str()
    }

    /// The interned symbol for an id. Panics on a foreign id.
    pub fn symbol(&self, id: EventId) -> Symbol {
        self.names[id.0 as usize]
    }

    /// Number of distinct labels.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the vocabulary empty?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A set of event traces over a shared vocabulary.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// Interner shared by all traces.
    pub vocab: EventVocab,
    /// The traces (sequences of interned events). Empty traces are skipped
    /// on insertion.
    pub traces: Vec<Vec<EventId>>,
}

impl TraceLog {
    /// New empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a trace of string labels. Empty traces are ignored.
    pub fn push_trace<S: AsRef<str>>(&mut self, events: &[S]) {
        if events.is_empty() {
            return;
        }
        let t: Vec<EventId> = events
            .iter()
            .map(|e| self.vocab.intern(e.as_ref()))
            .collect();
        self.traces.push(t);
    }

    /// Total number of event instances across traces.
    pub fn event_count(&self) -> usize {
        self.traces.iter().map(|t| t.len()).sum()
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Resolve a string-labeled trace against this log's vocabulary.
    /// Unknown labels map to `None` (they represent never-seen events).
    pub fn resolve<S: AsRef<str>>(&self, events: &[S]) -> Vec<Option<EventId>> {
        events.iter().map(|e| self.vocab.get(e.as_ref())).collect()
    }

    /// Resolve a symbol-labeled trace into a caller-owned buffer without
    /// allocating or hashing any string bytes — the monitor's serving-path
    /// variant of [`Self::resolve`]. For interned labels the result is
    /// identical to `resolve` on the rendered strings (the global interner
    /// is injective, so symbol equality is string equality).
    pub fn resolve_syms_into(&self, events: &[Symbol], out: &mut Vec<Option<EventId>>) {
        out.clear();
        out.extend(events.iter().map(|&sym| self.vocab.get_sym(sym)));
    }

    /// Every trace as string labels, in insertion order — the serialization
    /// surface used by the model store. Feeding the result back through
    /// [`Self::push_trace`] on a fresh log reproduces an equivalent log
    /// (same traces, same dense-id assignment).
    pub fn labeled_traces(&self) -> Vec<Vec<&'static str>> {
        self.traces
            .iter()
            .map(|t| t.iter().map(|&id| self.vocab.name(id)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocab_interning() {
        let mut v = EventVocab::new();
        let a = v.intern("bulb:on");
        let b = v.intern("bulb:off");
        assert_ne!(a, b);
        assert_eq!(v.intern("bulb:on"), a);
        assert_eq!(v.name(a), "bulb:on");
        assert_eq!(v.get("bulb:off"), Some(b));
        assert_eq!(v.get("nope"), None);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn trace_log_basics() {
        let mut log = TraceLog::new();
        log.push_trace(&["a", "b", "a"]);
        log.push_trace(&["b"]);
        log.push_trace::<&str>(&[]);
        assert_eq!(log.len(), 2);
        assert_eq!(log.event_count(), 4);
        assert_eq!(log.vocab.len(), 2);
        let r = log.resolve(&["a", "zzz"]);
        assert!(r[0].is_some() && r[1].is_none());
    }

    #[test]
    fn symbol_resolution_matches_string_resolution() {
        let mut log = TraceLog::new();
        log.push_trace(&["cam:motion", "bulb:on"]);
        let syms = [
            Symbol::intern("cam:motion"),
            Symbol::intern("ghost:event"),
            Symbol::intern("bulb:on"),
        ];
        let strings: Vec<&str> = syms.iter().map(|s| s.as_str()).collect();
        let mut resolved = vec![None; 99]; // stale content must be cleared
        log.resolve_syms_into(&syms, &mut resolved);
        assert_eq!(resolved, log.resolve(&strings));
        assert_eq!(resolved.len(), 3);
        let id = log.vocab.get("cam:motion").unwrap();
        assert_eq!(log.vocab.get_sym(Symbol::intern("cam:motion")), Some(id));
        assert_eq!(log.vocab.symbol(id).as_str(), "cam:motion");
        assert_eq!(log.vocab.get_sym(Symbol::intern("nope")), None);
    }

    #[test]
    fn labeled_traces_roundtrip() {
        let mut log = TraceLog::new();
        log.push_trace(&["a", "b", "a"]);
        log.push_trace(&["c"]);
        let labels = log.labeled_traces();
        assert_eq!(labels, vec![vec!["a", "b", "a"], vec!["c"]]);
        let mut log2 = TraceLog::new();
        for t in &labels {
            log2.push_trace(t);
        }
        assert_eq!(log2.traces, log.traces);
        assert_eq!(log2.vocab.len(), log.vocab.len());
    }
}
