//! Deterministic string interning for the pipeline's hot keys.
//!
//! Every layer of the BehavIoT pipeline keys maps on small, heavily
//! repeated strings: destination domains, device/activity labels, PFSM
//! event labels. Keying those maps on owned `String`s means a heap
//! allocation per key construction and a full byte-wise hash/compare per
//! lookup — a measurable serial tax on the per-flow data-plane path.
//!
//! [`Symbol`] replaces those keys with a `Copy` 4-byte handle into a
//! process-wide, append-only table:
//!
//! * **Interning is deterministic.** A fresh [`Interner`] assigns ids
//!   `0, 1, 2, …` in first-insertion order, so identical insertion
//!   sequences produce identical ids — the property that keeps parallel
//!   pipeline output bit-identical to serial (PR 1's executor joins
//!   results in input order, so insertion order itself is stable).
//! * **Ids never leak into output.** [`Symbol`] compares (`Ord`) and
//!   displays by its *resolved string*, never by id, so sort orders and
//!   serialized artifacts are identical no matter which process (or test
//!   interleaving) assigned the ids. Only `Eq`/`Hash` use the id, which is
//!   sound because interning is injective.
//! * **Resolution is `&'static str`.** Each new string is copied once into
//!   its own leaked allocation that lives for the rest of the process
//!   (symbols are process-lifetime by design; the unique-string working set
//!   of a deployment is small), so resolving never copies and the result
//!   can be held across calls.
//! * **A poisoned lock is not fatal.** The one panic in an update (the id
//!   space running out) comes before the tables change, so they are whole
//!   after any panic and the interner keeps serving from them.
//!
//! The crate also provides [`FxHasher`] — the FxHash multiply-rotate hash
//! used by rustc — as the default hasher for symbol- and small-struct-keyed
//! maps ([`FxHashMap`]/[`FxHashSet`]), since SipHash dominates the profile
//! once the keys themselves are cheap.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::net::Ipv4Addr;
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

// ---------------------------------------------------------------------------
// FxHash
// ---------------------------------------------------------------------------

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash function: a fast, non-cryptographic, deterministic hasher
/// (the rustc workhorse). Not DoS-resistant — use for trusted keys on hot
/// paths, which is exactly the pipeline's situation.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]: zero-sized, deterministic (no per-map
/// random state).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

// ---------------------------------------------------------------------------
// Interner
// ---------------------------------------------------------------------------

struct Inner {
    map: HashMap<&'static str, u32, FxBuildHasher>,
    strings: Vec<&'static str>,
}

/// A deterministic string interner.
///
/// Ids are assigned sequentially in first-insertion order; identical
/// insertion sequences therefore produce identical ids ("stable under
/// identical insertion order"). Lookups take a shared lock; only the first
/// sighting of a string takes the exclusive lock.
///
/// The pipeline uses the process-global instance through [`Symbol::intern`];
/// standalone instances exist for tests and tooling. Both leak their
/// strings (process-lifetime by design).
pub struct Interner {
    inner: RwLock<Inner>,
}

impl Interner {
    /// New empty interner.
    pub const fn new() -> Self {
        Self {
            inner: RwLock::new(Inner {
                map: HashMap::with_hasher(BuildHasherDefault::new()),
                strings: Vec::new(),
            }),
        }
    }

    /// Shared access to the tables. They are whole after any panic (see
    /// the crate docs), so a poisoned lock is used as is.
    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Intern a string, returning its [`Symbol`] (the existing one if the
    /// string was seen before).
    pub fn intern(&self, s: &str) -> Symbol {
        if let Some(&id) = self.read().map.get(s) {
            return Symbol(id);
        }
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        // Re-check: another thread may have interned between the locks.
        if let Some(&id) = inner.map.get(s) {
            return Symbol(id);
        }
        let id = u32::try_from(inner.strings.len()).expect("interner full");
        // Leaked on purpose: symbols are process-lifetime, which is what
        // makes resolving one to `&'static str` sound.
        let stored: &'static str = Box::leak(s.into());
        inner.strings.push(stored);
        inner.map.insert(stored, id);
        Symbol(id)
    }

    /// Look up a string without interning it on a miss. Keeps cold paths
    /// (e.g. querying a model set for a destination never seen in traffic)
    /// from growing the table.
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        self.read().map.get(s).map(|&id| Symbol(id))
    }

    /// Resolve a symbol previously returned by [`Self::intern`].
    ///
    /// # Panics
    /// On a symbol from a *different* interner with an id this one has not
    /// assigned yet (mixing interners is a bug; the pipeline only uses the
    /// global one).
    pub fn resolve(&self, sym: Symbol) -> &'static str {
        self.read().strings[sym.0 as usize]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.read().strings.len()
    }

    /// Is the interner empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for Interner {
    fn default() -> Self {
        Self::new()
    }
}

static GLOBAL: Interner = Interner::new();

// ---------------------------------------------------------------------------
// Symbol
// ---------------------------------------------------------------------------

/// A `Copy` handle to a string in the process-global interner.
///
/// * `Eq`/`Hash` use the 4-byte id — O(1), and consistent with string
///   equality because interning is injective.
/// * `Ord` and `Display` use the **resolved string**, so sort orders and
///   rendered output never depend on which insertion order assigned the
///   ids. Serialization boundaries (the model store, reports) therefore stay
///   byte-identical to the pre-intern string pipeline.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// Intern `s` in the global interner.
    #[inline]
    pub fn intern(s: &str) -> Symbol {
        GLOBAL.intern(s)
    }

    /// Look up `s` in the global interner without inserting on a miss.
    #[inline]
    pub fn lookup(s: &str) -> Option<Symbol> {
        GLOBAL.lookup(s)
    }

    /// Intern the dotted-quad rendering of an IPv4 address without going
    /// through a heap-allocated `String` (the fallback group key for flows
    /// whose destination never resolved to a domain).
    pub fn intern_ipv4(ip: Ipv4Addr) -> Symbol {
        let mut buf = [0u8; 15]; // "255.255.255.255"
        let mut n = 0;
        for (i, oct) in ip.octets().into_iter().enumerate() {
            if i > 0 {
                buf[n] = b'.';
                n += 1;
            }
            if oct >= 100 {
                buf[n] = b'0' + oct / 100;
                n += 1;
            }
            if oct >= 10 {
                buf[n] = b'0' + (oct / 10) % 10;
                n += 1;
            }
            buf[n] = b'0' + oct % 10;
            n += 1;
        }
        let s = std::str::from_utf8(&buf[..n]).expect("ASCII dotted quad");
        GLOBAL.intern(s)
    }

    /// The interned string. Free of copies; valid for the process lifetime.
    #[inline]
    pub fn as_str(self) -> &'static str {
        GLOBAL.resolve(self)
    }

    /// The raw id. Deterministic only for identical insertion orders —
    /// never serialize it or let it pick an output order; that is what
    /// `Ord`-by-string is for.
    #[inline]
    pub fn id(self) -> u32 {
        self.0
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

// `Debug` renders the resolved string (ids are an implementation detail).
impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::intern(s)
    }
}

// Lets `S: AsRef<str>` APIs (trace logs, label pipelines) accept symbol
// traces and string traces interchangeably.
impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_round_trip_and_dedup() {
        let a = Symbol::intern("devs.tplinkcloud.com");
        let b = Symbol::intern("devs.tplinkcloud.com");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "devs.tplinkcloud.com");
        let c = Symbol::intern("other.example.com");
        assert_ne!(a, c);
    }

    #[test]
    fn fresh_interner_ids_sequential_in_insertion_order() {
        let it = Interner::new();
        for (i, s) in ["a", "b", "c", "a", "d", "b"].iter().enumerate() {
            let sym = it.intern(s);
            let expect = match i {
                3 => 0,
                5 => 1,
                i if i < 3 => i as u32,
                _ => 3,
            };
            assert_eq!(sym.id(), expect, "insert #{i} ({s})");
        }
        assert_eq!(it.len(), 4);
        assert_eq!(it.resolve(Symbol(2)), "c");
    }

    #[test]
    fn ord_is_string_order_not_id_order() {
        // Interned in reverse lexicographic order: ids disagree with
        // string order, Ord must follow the strings.
        let z = Symbol::intern("zzz-ord-test");
        let a = Symbol::intern("aaa-ord-test");
        assert!(a < z);
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v, vec![a, z]);
    }

    #[test]
    fn ipv4_interning_matches_display() {
        for ip in [
            Ipv4Addr::new(192, 168, 1, 10),
            Ipv4Addr::new(8, 8, 8, 8),
            Ipv4Addr::new(255, 255, 255, 255),
            Ipv4Addr::new(0, 0, 0, 0),
            Ipv4Addr::new(10, 0, 99, 100),
        ] {
            assert_eq!(Symbol::intern_ipv4(ip).as_str(), ip.to_string());
        }
    }

    #[test]
    fn lookup_does_not_insert() {
        let it = Interner::new();
        assert_eq!(it.lookup("never-seen"), None);
        assert_eq!(it.len(), 0);
        let s = it.intern("seen");
        assert_eq!(it.lookup("seen"), Some(s));
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn long_and_many_strings_resolve() {
        let it = Interner::new();
        let big = "x".repeat(16 * 1024 + 17);
        let huge = it.intern(&big);
        let small = it.intern("small-after-huge");
        assert_eq!(it.resolve(huge), big);
        assert_eq!(it.resolve(small), "small-after-huge");
        // Many distinct strings of varying length.
        let syms: Vec<(Symbol, String)> = (0..4000)
            .map(|i| {
                let s = format!("chunk-span-{i:04}-{}", "pad".repeat(i % 7));
                (it.intern(&s), s)
            })
            .collect();
        for (sym, s) in &syms {
            assert_eq!(it.resolve(*sym), s);
        }
    }

    #[test]
    fn poisoned_lock_still_interns_and_resolves() {
        let it = Interner::new();
        let before = it.intern("before-poison");
        let poisoned = std::panic::catch_unwind(|| {
            let _guard = it.inner.write().unwrap();
            panic!("poison the interner lock");
        });
        assert!(poisoned.is_err() && it.inner.is_poisoned());
        let after = it.intern("after-poison");
        assert_eq!(it.intern("before-poison"), before);
        assert_eq!(it.lookup("after-poison"), Some(after));
        assert_eq!(it.resolve(before), "before-poison");
        assert_eq!(it.resolve(after), "after-poison");
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn fx_hasher_is_deterministic_and_spreads() {
        use std::hash::BuildHasher;
        let bh = FxBuildHasher::default();
        let h = |s: &str| bh.hash_one(s);
        assert_eq!(h("abc"), h("abc"));
        assert_ne!(h("abc"), h("abd"));
        let mut m: FxHashMap<&str, i32> = FxHashMap::default();
        m.insert("k", 1);
        assert_eq!(m["k"], 1);
    }

    #[test]
    fn symbol_str_comparisons() {
        let s = Symbol::intern("cmp.example.com");
        assert_eq!(s, "cmp.example.com");
        assert_eq!(s, *"cmp.example.com");
        assert_eq!(format!("{s}"), "cmp.example.com");
        assert_eq!(format!("{s:?}"), "Symbol(\"cmp.example.com\")");
    }
}
