//! Span fold: turns a flat list of completed spans into inclusive and self
//! time per stage path.
//!
//! Spans carry no parent id, so parents are inferred per thread by interval
//! containment: a span's parent is the innermost span on the same thread
//! whose `[start, end]` interval contains it. Spans that start together
//! nest longest-first. A span's self time is its duration minus the part
//! of its interval its children cover; time inside a traced region that no
//! root span covers is reported as [`UNOWNED`].

use std::collections::BTreeMap;

/// Path of the row holding wall time no span owns.
pub const UNOWNED: &str = "(unowned)";

/// One completed span, as the fold needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub tid: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl Span {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    fn contains(&self, other: &Span) -> bool {
        self.start_ns <= other.start_ns && other.end_ns() <= self.end_ns()
    }
}

impl From<&behaviot_obs::SpanRecord> for Span {
    fn from(s: &behaviot_obs::SpanRecord) -> Self {
        Span {
            name: s.name,
            tid: s.tid,
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
        }
    }
}

/// Totals of every span folded into one stage path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Row {
    pub count: u64,
    pub inclusive_ns: u64,
    pub self_ns: u64,
}

/// Inclusive and self time per stage path (`root/child/grandchild`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    pub rows: BTreeMap<String, Row>,
}

/// Length of the union of `intervals` (sorted by start) clipped to
/// `[lo, hi]`.
fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

impl Profile {
    /// Fold `spans` (any thread, any order).
    #[cfg(test)]
    pub fn fold(spans: &[Span]) -> Self {
        Self::fold_with_roots(spans).0
    }

    /// [`Self::fold`], plus the intervals of the root spans, sorted.
    fn fold_with_roots(spans: &[Span]) -> (Self, Vec<(u64, u64)>) {
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_by_key(|&i| {
            let s = &spans[i];
            (s.tid, s.start_ns, std::cmp::Reverse(s.dur_ns), i)
        });
        let mut parent: Vec<Option<usize>> = vec![None; spans.len()];
        let mut path: Vec<String> = vec![String::new(); spans.len()];
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        let mut stack: Vec<usize> = Vec::new();
        let mut tid = None;
        for &i in &order {
            let s = &spans[i];
            if tid != Some(s.tid) {
                stack.clear();
                tid = Some(s.tid);
            }
            while let Some(&top) = stack.last() {
                if spans[top].contains(s) {
                    break;
                }
                stack.pop();
            }
            parent[i] = stack.last().copied();
            path[i] = match parent[i] {
                Some(p) => {
                    children[p].push((s.start_ns, s.end_ns()));
                    format!("{}/{}", path[p], s.name)
                }
                None => s.name.to_string(),
            };
            stack.push(i);
        }
        let mut roots: Vec<(u64, u64)> = Vec::new();
        let mut rows: BTreeMap<String, Row> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if parent[i].is_none() {
                roots.push((s.start_ns, s.end_ns()));
            }
            let row = rows.entry(std::mem::take(&mut path[i])).or_default();
            row.count += 1;
            row.inclusive_ns += s.dur_ns;
            row.self_ns += s.dur_ns - covered(&children[i], s.start_ns, s.end_ns());
        }
        roots.sort_unstable();
        (Profile { rows }, roots)
    }

    /// Fold spans recorded during a region that took `wall_ns` by an outside
    /// clock; the part of the wall no root span covers becomes the
    /// [`UNOWNED`] row (zero when the spans cover it all).
    pub fn fold_region(spans: &[Span], wall_ns: u64) -> Self {
        let (mut p, roots) = Self::fold_with_roots(spans);
        let owned = covered(&roots, 0, u64::MAX);
        p.rows.insert(
            UNOWNED.to_string(),
            Row {
                count: 1,
                inclusive_ns: wall_ns.saturating_sub(owned),
                self_ns: wall_ns.saturating_sub(owned),
            },
        );
        p
    }

    /// Sum of every row's self time.
    pub fn self_total_ns(&self) -> u64 {
        self.rows.values().map(|r| r.self_ns).sum()
    }

    /// Inclusive time of every span named `name` that has no ancestor of
    /// the same name (so recursion is not counted twice).
    pub fn inclusive_of(&self, name: &str) -> u64 {
        self.rows
            .iter()
            .filter(|(path, _)| {
                let mut segs = path.split('/');
                segs.next_back() == Some(name) && segs.all(|s| s != name)
            })
            .map(|(_, r)| r.inclusive_ns)
            .sum()
    }

    /// Self time of every span named `name`.
    pub fn self_of(&self, name: &str) -> u64 {
        self.rows
            .iter()
            .filter(|(path, _)| path.rsplit('/').next() == Some(name))
            .map(|(_, r)| r.self_ns)
            .sum()
    }

    /// Inclusive time of spans named `name` lying below a span named
    /// `ancestor`.
    pub fn inclusive_under(&self, ancestor: &str, name: &str) -> u64 {
        self.rows
            .iter()
            .filter(|(path, _)| {
                let segs: Vec<&str> = path.split('/').collect();
                let (last, above) = segs.split_last().expect("paths are non-empty");
                *last == name && above.contains(&ancestor) && !above.contains(&name)
            })
            .map(|(_, r)| r.inclusive_ns)
            .sum()
    }

    /// Render the table, one line per path in path order.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let total = self.self_total_ns().max(1) as f64;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>8} {:>12} {:>12} {:>7}  path",
            "count", "incl_ms", "self_ms", "self%"
        );
        for (path, r) in &self.rows {
            let _ = writeln!(
                out,
                "{:>8} {:>12.3} {:>12.3} {:>6.2}%  {path}",
                r.count,
                r.inclusive_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6,
                100.0 * r.self_ns as f64 / total
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            tid: 1,
            start_ns,
            dur_ns: end_ns - start_ns,
        }
    }

    fn row(p: &Profile, path: &str) -> Row {
        *p.rows
            .get(path)
            .unwrap_or_else(|| panic!("no row {path}: {:?}", p.rows))
    }

    #[test]
    fn nesting_gives_exact_self_times() {
        // Spans arrive in drop order (children first), as the tracer
        // records them.
        let spans = [span("c", 20, 30), span("b", 10, 60), span("a", 0, 100)];
        let p = Profile::fold(&spans);
        assert_eq!(
            row(&p, "a"),
            Row {
                count: 1,
                inclusive_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            row(&p, "a/b"),
            Row {
                count: 1,
                inclusive_ns: 50,
                self_ns: 40
            }
        );
        assert_eq!(
            row(&p, "a/b/c"),
            Row {
                count: 1,
                inclusive_ns: 10,
                self_ns: 10
            }
        );
        assert_eq!(p.self_total_ns(), 100);
    }

    #[test]
    fn siblings_aggregate_by_path() {
        let spans = [
            span("w", 0, 10),
            span("w", 10, 25),
            span("op", 0, 40),
            span("w", 50, 55),
        ];
        let p = Profile::fold(&spans);
        assert_eq!(
            row(&p, "op/w"),
            Row {
                count: 2,
                inclusive_ns: 25,
                self_ns: 25
            }
        );
        assert_eq!(
            row(&p, "op"),
            Row {
                count: 1,
                inclusive_ns: 40,
                self_ns: 15
            }
        );
        // Outside `op`: a root of its own.
        assert_eq!(
            row(&p, "w"),
            Row {
                count: 1,
                inclusive_ns: 5,
                self_ns: 5
            }
        );
        assert_eq!(p.inclusive_of("w"), 30);
        assert_eq!(p.inclusive_under("op", "w"), 25);
        assert_eq!(p.self_total_ns(), 45);
    }

    #[test]
    fn zero_length_spans_nest_and_cost_nothing() {
        let spans = [
            span("z", 10, 10),
            span("z", 0, 0),
            span("p", 0, 20),
            span("z", 20, 20),
        ];
        let p = Profile::fold(&spans);
        // A parent that starts together with a zero-length span encloses
        // it, and so does one it ends together with.
        assert_eq!(
            row(&p, "p/z"),
            Row {
                count: 3,
                inclusive_ns: 0,
                self_ns: 0
            }
        );
        assert_eq!(
            row(&p, "p"),
            Row {
                count: 1,
                inclusive_ns: 20,
                self_ns: 20
            }
        );
    }

    #[test]
    fn equal_starts_nest_longest_first() {
        let spans = [span("inner", 5, 8), span("outer", 5, 9)];
        let p = Profile::fold(&spans);
        assert_eq!(row(&p, "outer/inner").self_ns, 3);
        assert_eq!(row(&p, "outer").self_ns, 1);
    }

    #[test]
    fn threads_fold_separately() {
        let mut other = span("t2", 1, 99);
        other.tid = 2;
        let spans = [span("a", 0, 100), other];
        let p = Profile::fold(&spans);
        assert!(p.rows.contains_key("t2"), "{:?}", p.rows);
        assert_eq!(row(&p, "a").self_ns, 100);
    }

    #[test]
    fn recursion_counted_once_inclusive() {
        let spans = [span("r", 2, 4), span("r", 0, 10)];
        let p = Profile::fold(&spans);
        assert_eq!(p.inclusive_of("r"), 10);
        assert_eq!(p.self_of("r"), 10);
    }

    #[test]
    fn region_reports_unowned_wall() {
        let spans = [
            span("a", 100, 200),
            span("b", 250, 300),
            span("c", 120, 130),
        ];
        let p = Profile::fold_region(&spans, 400);
        assert_eq!(row(&p, UNOWNED).self_ns, 250);
        // Self times plus the unowned row add up to the wall exactly.
        assert_eq!(p.self_total_ns(), 400);
    }

    #[test]
    fn covered_merges_overlaps() {
        assert_eq!(covered(&[(0, 10), (5, 15), (20, 25)], 0, 100), 20);
        assert_eq!(covered(&[(0, 10), (5, 15)], 3, 12), 9);
        assert_eq!(covered(&[], 0, 10), 0);
    }
}
