//! Deterministic work-stealing parallel executor for the BehavIoT
//! train/infer pipeline.
//!
//! The pipeline is embarrassingly parallel by construction: periodic-model
//! training, period detection, and user-action forests are all built per
//! `(device, traffic-group)` over the testbed. This crate provides the one
//! primitive they all need — a *deterministic parallel map*: work items are
//! sharded into chunks, distributed over scoped worker threads with
//! work-stealing (each worker owns a deque of chunks; idle workers steal
//! from the back of the busiest victim), and every result is written to the
//! slot of its input index. The output is therefore **byte-identical to the
//! serial map** whenever the per-item function is itself deterministic,
//! which makes `threads: off` a debugging/equivalence mode rather than a
//! different code path.
//!
//! Built on `std::thread::scope` only — no external dependencies — so every
//! crate in the workspace (dsp, forest, flows, core, bench) can depend on
//! it without cycles.

#![warn(missing_docs)]

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use behaviot_obs::{Counter, Gauge, Histogram, Volatility};

/// Executor metrics. `par.maps` / `par.items` are counted before the
/// thread-count branch, so their totals are identical under every
/// [`Parallelism`] policy. Steal counts and per-worker distributions are
/// scheduling artifacts and therefore [`Volatility::Volatile`] — excluded
/// from the deterministic snapshot.
struct ParMetrics {
    maps: Counter,
    items: Counter,
    steals: Counter,
    workers: Gauge,
    worker_items: Histogram,
}

fn par_metrics() -> &'static ParMetrics {
    static M: OnceLock<ParMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = behaviot_obs::metrics();
        ParMetrics {
            maps: r.counter("par.maps"),
            items: r.counter("par.items"),
            steals: r.counter_with("par.steals", Volatility::Volatile),
            workers: r.gauge_with("par.workers", Volatility::Volatile),
            worker_items: r.histogram_with("par.worker_items", Volatility::Volatile),
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

/// One result slot. Safety: each slot index is claimed by exactly one chunk
/// and each chunk is executed by exactly one worker, so a slot is written at
/// most once and only read after the scope joins all workers.
struct Slot<U>(UnsafeCell<Option<U>>);

// SAFETY: see `Slot` — disjoint-index writes, reads only after join.
unsafe impl<U: Send> Sync for Slot<U> {}

/// A half-open range of item indices owned by one worker's deque.
type Chunk = std::ops::Range<usize>;

/// Per-worker state: a deque of chunks. The owner pops from the front,
/// thieves steal from the back (largest remaining runs of work), which keeps
/// owner locality and makes steals coarse.
struct WorkerQueue {
    deque: Mutex<VecDeque<Chunk>>,
}

/// Deterministic parallel map preserving input order:
/// `out[i] == f(i, &items[i])` for every `i`, regardless of thread count.
///
/// Work is split into chunks of roughly `len / (threads * 4)` items
/// (at least 1), dealt round-robin to the worker deques, and executed with
/// work-stealing. With `Parallelism::Off`, one worker thread count, or a
/// single item, the map runs serially on the calling thread.
pub fn par_map_indexed<T, U, F>(par: Parallelism, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_init(par, items, || (), |(), i, item| f(i, item))
}

/// [`par_map_indexed`] without the index argument.
pub fn par_map<T, U, F>(par: Parallelism, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_init(par, items, || (), |(), _, item| f(item))
}

/// Deterministic parallel map with per-worker scratch state.
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
    m.workers.set(threads as i64);
    if threads <= 1 || n <= 1 {
        let mut scratch = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut scratch, i, item))
            .collect();
    }

    // Shard into chunks: fine enough that uneven items balance via
    // stealing, coarse enough that deque traffic stays negligible.
    let chunk_size = n.div_ceil(threads * 4).max(1);
    let queues: Vec<WorkerQueue> = (0..threads)
        .map(|_| WorkerQueue {
            deque: Mutex::new(VecDeque::new()),
        })
        .collect();
    for (c, start) in (0..n).step_by(chunk_size).enumerate() {
        let chunk = start..(start + chunk_size).min(n);
        queues[c % threads]
            .deque
            .lock()
            .expect("queue poisoned")
            .push_back(chunk);
    }

    let slots: Vec<Slot<U>> = (0..n).map(|_| Slot(UnsafeCell::new(None))).collect();
    // Unclaimed items. Decremented when a chunk is *claimed* (popped), not
    // when it finishes: once zero, every chunk has an owner, so idle workers
    // exit instead of spinning — including when an owner panics, which would
    // otherwise leave its count in place and livelock the siblings until the
    // scope's join. Slot writes are published by the scope join, not by this
    // counter.
    let remaining = AtomicUsize::new(n);

    std::thread::scope(|s| {
        for w in 0..threads {
            let queues = &queues;
            let slots = &slots;
            let remaining = &remaining;
            let f = &f;
            let init = &init;
            s.spawn(move || {
                let mut scratch = init();
                let mut done_items = 0u64;
                let mut run = |chunk: Chunk| {
                    remaining.fetch_sub(chunk.len(), Ordering::Release);
                    done_items += chunk.len() as u64;
                    for i in chunk {
                        let v = f(&mut scratch, i, &items[i]);
                        // SAFETY: index `i` belongs to exactly one chunk and
                        // this worker owns the chunk; no other thread
                        // touches slot `i` until after the scope joins.
                        unsafe { *slots[i].0.get() = Some(v) };
                    }
                };
                loop {
                    // Drain our own deque from the front...
                    let own = queues[w].deque.lock().expect("queue poisoned").pop_front();
                    if let Some(chunk) = own {
                        run(chunk);
                        continue;
                    }
                    // ...then steal from the back of the fullest victim.
                    if remaining.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    let victim = (0..threads)
                        .filter(|&v| v != w)
                        .max_by_key(|&v| queues[v].deque.lock().expect("queue poisoned").len());
                    let stolen = victim.and_then(|v| {
                        queues[v].deque.lock().expect("queue poisoned").pop_back()
                    });
                    match stolen {
                        Some(chunk) => {
                            m.steals.inc();
                            run(chunk)
                        }
                        // Nothing to steal: another worker is finishing the
                        // last chunks. Yield and re-check until done.
                        None => std::thread::yield_now(),
                    }
                }
                m.worker_items.record(done_items);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| slot.0.into_inner().expect("unfilled parallel map slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        let got = par_map_indexed(Parallelism::Fixed(2), &items, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn uneven_work_is_stolen() {
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
}
