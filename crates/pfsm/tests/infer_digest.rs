//! Pins `Pfsm::infer` to a digest over a seeded corpus of trace logs.
//!
//! Each log is drawn from a sparse random Markov chain (2–40 labels, 1–400
//! traces of 0–20 events), so many invariants hold and refinement splits
//! partitions. Every log is inferred with refinement off, and with it on at
//! `max_splits` 0, 1, 2 and 64. Each model folds into one `FxHasher`
//! digest: its state count, the event of every state, its transitions
//! sorted by `(from, to)` with their counts, and its split count.
//!
//! The constant was recorded on the refinement that rebuilt the abstract
//! partition graph for every query. Neighbour iteration order picks the
//! BFS path and so the split, so a change to the graph's construction,
//! the queries, their order, the BFS or the split rule that alters any
//! model's states, transitions or split count moves the digest.
//! The corpus must also stop some logs at the split budgets 1 and 2 (the
//! round is cut in the middle) and take some log to at least 10 splits.

use behaviot_intern::FxHasher;
use behaviot_pfsm::{EventId, Pfsm, PfsmConfig, StateId, TraceLog};
use std::hash::Hasher;

const SEED: u64 = 0x005E_ED0F_F5A1;
const N_LOGS: usize = 200;
const EXPECTED: u64 = 0x19a9_92b4_c911_217c;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    /// In `lo..=hi`, skewed towards `lo`: the corpus keeps its extremes
    /// while most logs stay small.
    fn skewed(&mut self, lo: usize, hi: usize) -> usize {
        let a = self.range(0, hi - lo);
        let b = self.range(0, hi - lo);
        lo + a * b / (hi - lo).max(1)
    }
}

/// One log drawn from a sparse Markov chain: each label has one to three
/// successors and the traces start at one of at most three labels. Empty
/// traces go into the log as they are.
fn random_log(rng: &mut XorShift) -> TraceLog {
    let n_labels = rng.range(2, 40);
    let n_traces = rng.skewed(1, 400);
    let mut log = TraceLog::new();
    let ids: Vec<EventId> = (0..n_labels)
        .map(|l| log.vocab.intern(&format!("ev{l}")))
        .collect();
    let succ: Vec<Vec<usize>> = (0..n_labels)
        .map(|_| {
            (0..rng.range(1, 3))
                .map(|_| rng.range(0, n_labels - 1))
                .collect()
        })
        .collect();
    let starts: Vec<usize> = (0..rng.range(1, 3))
        .map(|_| rng.range(0, n_labels - 1))
        .collect();
    for _ in 0..n_traces {
        let len = rng.range(0, 20);
        let mut trace = Vec::with_capacity(len);
        let mut cur = starts[rng.range(0, starts.len() - 1)];
        for _ in 0..len {
            trace.push(ids[cur]);
            let next = &succ[cur];
            cur = next[rng.range(0, next.len() - 1)];
        }
        log.traces.push(trace);
    }
    log
}

fn fold(h: &mut FxHasher, m: &Pfsm) {
    h.write_u64(m.n_states() as u64);
    for s in 0..m.n_states() {
        let ev = m.event_of(StateId(s as u32));
        h.write_u64(ev.map_or(u64::MAX, |e| u64::from(e.0)));
    }
    let mut trans: Vec<(StateId, StateId, u64)> =
        m.transitions().map(|(f, t, c, _)| (f, t, c)).collect();
    trans.sort_unstable();
    h.write_u64(trans.len() as u64);
    for (from, to, count) in trans {
        h.write_u64(u64::from(from.0));
        h.write_u64(u64::from(to.0));
        h.write_u64(count);
    }
    h.write_u64(m.n_splits() as u64);
}

#[test]
fn inferred_models_match_recorded_digest() {
    let mut rng = XorShift(SEED);
    let mut h = FxHasher::default();
    let off = PfsmConfig {
        refine: false,
        ..PfsmConfig::default()
    };
    let budgets = [0usize, 1, 2, 64];
    let mut capped = [0usize; 4];
    let mut most_splits = 0;
    for _ in 0..N_LOGS {
        let log = random_log(&mut rng);
        let plain = Pfsm::infer(&log, &off);
        assert_eq!(plain.n_splits(), 0);
        fold(&mut h, &plain);
        for (k, &max_splits) in budgets.iter().enumerate() {
            let cfg = PfsmConfig {
                max_splits,
                ..PfsmConfig::default()
            };
            let m = Pfsm::infer(&log, &cfg);
            assert!(m.n_splits() <= max_splits);
            capped[k] += usize::from(max_splits > 0 && m.n_splits() == max_splits);
            most_splits = most_splits.max(m.n_splits());
            fold(&mut h, &m);
        }
    }
    assert!(capped[1] > 0, "no log stops at the split budget 1");
    assert!(capped[2] > 0, "no log stops at the split budget 2");
    assert!(
        most_splits >= 10,
        "the most splits of any log is {most_splits}"
    );
    assert_eq!(h.finish(), EXPECTED, "digest {:#018x}", h.finish());
}
