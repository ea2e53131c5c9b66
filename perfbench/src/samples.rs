//! Timing samples of an untraced measurement, passed from each measuring
//! process to the parent as plain text and pooled there.

use crate::stats::Best;
use std::hash::{DefaultHasher, Hash, Hasher};

#[derive(Debug, Default, PartialEq)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    /// Every timed operation as it ran.
    pub op_ms: Vec<f64>,
    /// The distinct operation each timed unit (a window, a checkpoint, a
    /// step after the windows) belongs to.
    pub unit_op: Vec<usize>,
    /// Each unit's best time over the process's repetitions (see
    /// [`Best`]); once pooled, over every process's.
    pub unit_best_ms: Vec<f64>,
    /// Each distinct window's best time over the process's repetitions.
    pub window_best_ms: Vec<f64>,
    /// Pcap records in one repetition of the distinct operations.
    pub records: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks.
    pub problems: Vec<String>,
    /// Hash of the deterministic output (ledger or snapshot manifest):
    /// every process must agree on it.
    pub digest: u64,
    /// Hash of the first simulated day's deviations and ledger.
    pub first_day: u64,
    /// Peak resident-set growth of each timed operation, in MiB.
    pub rss_growth_mb: Vec<f64>,
}

/// A stable hash of `parts` (the same in every process of one build).
pub fn digest<T: Hash + ?Sized>(parts: &T) -> u64 {
    let mut h = DefaultHasher::new();
    parts.hash(&mut h);
    h.finish()
}

fn floats(xs: &[f64]) -> String {
    xs.iter().map(|x| format!(" {x:?}")).collect()
}

fn indices(xs: &[usize]) -> String {
    xs.iter().map(|x| format!(" {x}")).collect()
}

impl Samples {
    pub fn render(&self) -> String {
        let mut out = format!(
            "setup_s{}\nop_ms{}\nunit_op{}\nunit_best_ms{}\nwindow_best_ms{}\nrss_growth_mb{}\nrecords {}\nattempted {}\nfailed {}\ndigest {}\nfirst_day {}\n",
            floats(&self.setup_s),
            floats(&self.op_ms),
            indices(&self.unit_op),
            floats(&self.unit_best_ms),
            floats(&self.window_best_ms),
            floats(&self.rss_growth_mb),
            self.records,
            self.attempted,
            self.failed,
            self.digest,
            self.first_day,
        );
        for p in &self.problems {
            out.push_str(&format!("problem {}\n", p.replace('\n', " ")));
        }
        out
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let mut s = Samples::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let bad = |e: &dyn std::fmt::Display| format!("bad samples line {line:?}: {e}");
            let list = || -> Result<Vec<f64>, String> {
                rest.split_whitespace()
                    .map(|v| v.parse::<f64>().map_err(|e| bad(&e)))
                    .collect()
            };
            let index_list = || -> Result<Vec<usize>, String> {
                rest.split_whitespace()
                    .map(|v| v.parse::<usize>().map_err(|e| bad(&e)))
                    .collect()
            };
            match key {
                "setup_s" => s.setup_s = list()?,
                "op_ms" => s.op_ms = list()?,
                "unit_op" => s.unit_op = index_list()?,
                "unit_best_ms" => s.unit_best_ms = list()?,
                "window_best_ms" => s.window_best_ms = list()?,
                "rss_growth_mb" => s.rss_growth_mb = list()?,
                "records" => s.records = rest.parse().map_err(|e| bad(&e))?,
                "attempted" => s.attempted = rest.parse().map_err(|e| bad(&e))?,
                "failed" => s.failed = rest.parse().map_err(|e| bad(&e))?,
                "digest" => s.digest = rest.parse().map_err(|e| bad(&e))?,
                "first_day" => s.first_day = rest.parse().map_err(|e| bad(&e))?,
                "problem" => s.problems.push(rest.to_string()),
                _ => return Err(bad(&"unknown key")),
            }
        }
        Ok(s)
    }

    /// Each distinct operation's cost: the sum of its units' best times.
    pub fn op_best_ms(&self) -> Vec<f64> {
        let mut ops = vec![0.0; self.unit_op.iter().max().map_or(0, |&op| op + 1)];
        for (&op, ms) in self.unit_op.iter().zip(&self.unit_best_ms) {
            ops[op] += ms;
        }
        ops
    }

    /// Pool the samples of several processes: each unit keeps its best time
    /// over all of them, the other samples are concatenated. Their
    /// deterministic outputs and their units must agree.
    pub fn pool(parts: Vec<Samples>) -> Samples {
        let mut all = Samples::default();
        let mut units = Best::default();
        for (i, p) in parts.into_iter().enumerate() {
            if i == 0 {
                all.digest = p.digest;
                all.first_day = p.first_day;
                all.records = p.records;
                all.unit_op = p.unit_op.clone();
            }
            if (p.digest, p.first_day) != (all.digest, all.first_day) {
                all.problems.push(format!(
                    "measuring process {i} produced different output from process 0"
                ));
            }
            if (p.records, &p.unit_op) == (all.records, &all.unit_op)
                && p.unit_best_ms.len() == p.unit_op.len()
            {
                units.add(&p.unit_best_ms);
            } else {
                all.problems.push(format!(
                    "measuring process {i} timed different units from process 0"
                ));
            }
            all.setup_s.extend(p.setup_s);
            all.op_ms.extend(p.op_ms);
            all.window_best_ms.extend(p.window_best_ms);
            all.rss_growth_mb.extend(p.rss_growth_mb);
            all.attempted += p.attempted;
            all.failed += p.failed;
            all.problems.extend(p.problems);
        }
        all.unit_best_ms = units.0;
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(digest: u64) -> Samples {
        Samples {
            setup_s: vec![0.25, 1e-5],
            op_ms: vec![700.125],
            unit_op: vec![0, 0, 1],
            unit_best_ms: vec![650.5, 1.0 / 3.0, 2.5],
            window_best_ms: vec![30.5, 31.0, 0.1 + 0.2],
            records: 12,
            attempted: 3,
            failed: 1,
            problems: vec!["ledger\ndiffers".into()],
            digest,
            first_day: 7,
            rss_growth_mb: vec![61.25],
        }
    }

    #[test]
    fn render_parse_round_trips_exactly() {
        let s = sample(u64::MAX);
        let mut back = Samples::parse(&s.render()).unwrap();
        assert_eq!(back.problems, vec!["ledger differs".to_string()]);
        back.problems = s.problems.clone();
        assert_eq!(back, s);
        assert!(Samples::parse("bogus 1").is_err());
        assert!(Samples::parse("records x").is_err());
    }

    #[test]
    fn pool_keeps_best_units_and_flags_disagreement() {
        let mut other = sample(1);
        other.unit_best_ms[0] = 649.5;
        let all = Samples::pool(vec![sample(1), other]);
        assert_eq!(all.window_best_ms.len(), 6);
        assert_eq!(all.unit_best_ms, vec![649.5, 1.0 / 3.0, 2.5]);
        assert_eq!(all.op_best_ms(), vec![649.5 + 1.0 / 3.0, 2.5]);
        assert_eq!((all.records, all.attempted, all.failed), (12, 6, 2));
        assert_eq!(all.problems.len(), 2);
        let all = Samples::pool(vec![sample(1), sample(2)]);
        assert_eq!(all.problems.len(), 3, "{:?}", all.problems);
        let mut other = sample(1);
        other.unit_op = vec![0, 1, 1];
        let all = Samples::pool(vec![sample(1), other]);
        assert_eq!(all.problems.len(), 3, "{:?}", all.problems);
        assert_eq!(all.unit_best_ms, sample(1).unit_best_ms);
    }
}
