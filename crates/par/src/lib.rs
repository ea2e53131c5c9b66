//! Deterministic parallel executor for the BehavIoT train/infer pipeline.
//!
//! The pipeline is embarrassingly parallel by construction: periodic-model
//! training, period detection, and user-action forests are all built per
//! `(device, traffic-group)` over the testbed. This crate provides the one
//! primitive they all need — a *deterministic parallel map*: the input is
//! cut into contiguous chunks, scoped worker threads claim the next
//! unclaimed chunk from a shared cursor, and the caller joins the chunks
//! back in input order. The output is therefore **byte-identical to the
//! serial map** whenever the per-item function is itself deterministic,
//! which makes `threads: off` a debugging/equivalence mode rather than a
//! different code path.
//!
//! Built on `std::thread::scope` only — no external dependencies — so every
//! crate in the workspace (dsp, forest, flows, core, bench) can depend on
//! it without cycles.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use behaviot_obs::Counter;

/// Executor metrics, counted before the thread-count branch, so their
/// totals are identical under every [`Parallelism`] policy.
struct ParMetrics {
    maps: Counter,
    items: Counter,
}

fn par_metrics() -> &'static ParMetrics {
    static M: OnceLock<ParMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = behaviot_obs::metrics();
        ParMetrics {
            maps: r.counter("par.maps"),
            items: r.counter("par.items"),
        }
    })
}

/// Thread-count policy for pipeline stages (`threads: auto|N|off`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One worker per available CPU (the production default).
    #[default]
    Auto,
    /// Serial execution on the calling thread. Exactly equivalent results,
    /// useful for debugging and determinism tests.
    Off,
    /// A fixed number of worker threads (clamped to at least 1; `1` behaves
    /// like [`Parallelism::Off`]).
    Fixed(usize),
}

impl Parallelism {
    /// Resolve the policy to a concrete worker count (≥ 1).
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Off => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|v| v.get())
                .unwrap_or(1),
        }
    }

    /// Read the policy from the `BEHAVIOT_THREADS` environment variable
    /// (`auto`, `off`, or a thread count); defaults to [`Parallelism::Auto`].
    pub fn from_env() -> Self {
        match std::env::var("BEHAVIOT_THREADS") {
            Ok(v) => v.parse().unwrap_or(Parallelism::Auto),
            Err(_) => Parallelism::Auto,
        }
    }
}

impl FromStr for Parallelism {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" | "" => Ok(Parallelism::Auto),
            "off" | "serial" | "none" => Ok(Parallelism::Off),
            n => n
                .parse::<usize>()
                .map(Parallelism::Fixed)
                .map_err(|_| format!("invalid parallelism {s:?}: expected auto|off|N")),
        }
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parallelism::Auto => write!(f, "auto"),
            Parallelism::Off => write!(f, "off"),
            Parallelism::Fixed(n) => write!(f, "{n}"),
        }
    }
}

/// Deterministic parallel map preserving input order:
/// `out[i] == f(&items[i])` for every `i`, regardless of thread count.
///
/// With `Parallelism::Off`, one worker thread, or at most one item, the map
/// runs serially on the calling thread. A panic in `f` reaches the caller
/// with its own payload.
pub fn par_map<T, U, F>(par: Parallelism, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_init(par, items, || (), |(), _, item| f(item))
}

/// [`par_map`] with per-worker scratch state and the item index.
///
/// `init` builds one scratch value per worker thread (e.g. preallocated FFT
/// buffers); `f` receives the worker's scratch, the item index, and the
/// item. Scratch must not influence results — it exists so hot loops can
/// reuse allocations across items without giving up determinism.
pub fn par_map_init<T, U, S, F, I>(par: Parallelism, items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    let n = items.len();
    let m = par_metrics();
    m.maps.inc();
    m.items.add(n as u64);
    let threads = par.threads().min(n.max(1));
    if threads <= 1 || n <= 1 {
        let mut scratch = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut scratch, i, item))
            .collect();
    }

    // About four contiguous chunks per worker: fine enough that idle
    // workers take up the slack behind a slow item, coarse enough that the
    // shared cursor is touched rarely. Each worker claims the next
    // unclaimed chunk until the cursor passes the end. The cursor only
    // hands out disjoint ranges and the join publishes the results, so
    // `Relaxed` is enough.
    let chunk_size = n.div_ceil(threads * 4);
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut scratch = init();
        let mut done = Vec::new();
        loop {
            let start = cursor.fetch_add(chunk_size, Ordering::Relaxed);
            if start >= n {
                return done;
            }
            let end = (start + chunk_size).min(n);
            let out: Vec<U> = (start..end)
                .map(|i| f(&mut scratch, i, &items[i]))
                .collect();
            done.push((start, out));
        }
    };
    let mut chunks: Vec<(usize, Vec<U>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
        let mut chunks = Vec::new();
        for h in handles {
            // Re-raise a worker's own panic: left unjoined, the scope would
            // replace it with a generic "a scoped thread panicked".
            chunks.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        chunks
    });

    chunks.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, part) in chunks {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_policy() {
        assert_eq!("auto".parse::<Parallelism>().unwrap(), Parallelism::Auto);
        assert_eq!("off".parse::<Parallelism>().unwrap(), Parallelism::Off);
        assert_eq!("3".parse::<Parallelism>().unwrap(), Parallelism::Fixed(3));
        assert!("x7".parse::<Parallelism>().is_err());
        assert_eq!(Parallelism::Off.threads(), 1);
        assert_eq!(Parallelism::Fixed(0).threads(), 1);
        assert!(Parallelism::Auto.threads() >= 1);
    }

    #[test]
    fn map_preserves_order_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for par in [
            Parallelism::Off,
            Parallelism::Fixed(2),
            Parallelism::Fixed(3),
            Parallelism::Fixed(8),
            Parallelism::Auto,
        ] {
            let got = par_map(par, &items, |x| x * x + 1);
            assert_eq!(got, expect, "{par}");
        }
    }

    #[test]
    fn indexed_map_sees_correct_indices() {
        let items = vec!["a", "b", "c", "d", "e"];
        let got = par_map_init(
            Parallelism::Fixed(2),
            &items,
            || (),
            |(), i, s| format!("{i}:{s}"),
        );
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn uneven_work_is_spread() {
        // One pathologically slow item; the rest must be spread across
        // workers rather than serialized behind it.
        let items: Vec<usize> = (0..64).collect();
        let got = par_map(Parallelism::Fixed(4), &items, |&x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            x * 2
        });
        assert_eq!(got, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn scratch_is_per_worker_and_reused() {
        let inits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..256).collect();
        let got = par_map_init(
            Parallelism::Fixed(4),
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<f64>::new()
            },
            |scratch, _, &x| {
                scratch.clear();
                scratch.extend((0..8).map(|k| (x * k) as f64));
                scratch.iter().sum::<f64>()
            },
        );
        let expect: Vec<f64> = items.iter().map(|&x| (x * 28) as f64).collect();
        assert_eq!(got, expect);
        assert!(
            inits.load(Ordering::Relaxed) <= 4,
            "scratch built once per worker"
        );
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<i32> = vec![];
        assert!(par_map(Parallelism::Auto, &empty, |x| *x).is_empty());
        assert_eq!(par_map(Parallelism::Fixed(8), &[7], |x| x + 1), vec![8]);
    }

    #[test]
    fn panics_propagate() {
        let items: Vec<usize> = (0..32).collect();
        let res = std::panic::catch_unwind(|| {
            par_map(Parallelism::Fixed(2), &items, |&x| {
                assert!(x != 17, "boom");
                x
            })
        });
        assert!(res.is_err());
    }

    #[test]
    fn worker_panic_keeps_its_message() {
        let items: Vec<usize> = (0..32).collect();
        let err = std::panic::catch_unwind(|| {
            par_map(Parallelism::Fixed(2), &items, |&x| {
                if x == 17 {
                    panic!("boom at {x}");
                }
                x
            })
        })
        .unwrap_err();
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("boom at 17")
        );
    }

    #[test]
    fn every_size_and_thread_count_matches_serial() {
        // Covers fewer items than workers and a short last chunk.
        for threads in [2, 3, 4, 8] {
            for n in 0..=70usize {
                let items: Vec<usize> = (100..100 + n).collect();
                let inits = AtomicUsize::new(0);
                let got = par_map_init(
                    Parallelism::Fixed(threads),
                    &items,
                    || inits.fetch_add(1, Ordering::Relaxed),
                    |_, i, &x| (i, x),
                );
                let expect: Vec<(usize, usize)> = items.iter().copied().enumerate().collect();
                assert_eq!(got, expect, "n={n} threads={threads}");
                assert!(
                    inits.load(Ordering::Relaxed) <= threads,
                    "n={n} threads={threads}"
                );
            }
        }
    }
}
