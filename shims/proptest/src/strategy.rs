//! Value-generation strategies.

use crate::TestRng;
use rand::Rng;
use std::marker::PhantomData;
use std::ops::Range;

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

/// Strategy for "any value of `T`" (from [`any`]).
pub struct Any<T>(PhantomData<T>);

/// Any value of `T` — the shim supports the primitive types the tests use.
pub fn any<T>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! impl_any {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen()
            }
        }
    )*};
}
impl_any!(bool, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.start..self.end)
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy!((S0.0, S1.1)(S0.0, S1.1, S2.2)(S0.0, S1.1, S2.2, S3.3));

/// Vector strategy from [`crate::collection::vec`].
pub struct VecStrategy<S> {
    /// Element strategy.
    pub element: S,
    /// Length range (half-open).
    pub size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.gen_range(self.size.start..self.size.end);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// String pattern strategy: a `&str` used as a strategy is interpreted as a
/// small regex subset — literal characters, `[a-z0-9_]`-style classes (with
/// ranges), and the quantifiers `{m}`, `{m,n}`, `*`, `+`, `?` (unquantified
/// atoms emit exactly once). This covers the patterns the workspace uses.
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let atoms = parse_pattern(self);
        let mut out = String::new();
        for (chars, min, max) in &atoms {
            let n = if min == max {
                *min
            } else {
                rng.gen_range(*min..=*max)
            };
            for _ in 0..n {
                out.push(chars[rng.gen_range(0..chars.len())]);
            }
        }
        out
    }
}

/// One pattern atom: the candidate characters and a repetition range.
type Atom = (Vec<char>, usize, usize);

fn parse_pattern(pat: &str) -> Vec<Atom> {
    let chars: Vec<char> = pat.chars().collect();
    let mut atoms: Vec<Atom> = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        // Atom: a class or a literal.
        let set: Vec<char> = if chars[i] == '[' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == ']')
                .expect("unterminated character class")
                + i;
            let body = &chars[i + 1..close];
            i = close + 1;
            expand_class(body)
        } else {
            let c = if chars[i] == '\\' && i + 1 < chars.len() {
                i += 1;
                chars[i]
            } else {
                chars[i]
            };
            i += 1;
            vec![c]
        };
        // Quantifier.
        let (min, max) = if i < chars.len() {
            match chars[i] {
                '{' => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == '}')
                        .expect("unterminated quantifier")
                        + i;
                    let body: String = chars[i + 1..close].iter().collect();
                    i = close + 1;
                    match body.split_once(',') {
                        Some((lo, hi)) => (
                            lo.trim().parse().expect("bad quantifier"),
                            hi.trim().parse().expect("bad quantifier"),
                        ),
                        None => {
                            let n = body.trim().parse().expect("bad quantifier");
                            (n, n)
                        }
                    }
                }
                '*' => {
                    i += 1;
                    (0, 8)
                }
                '+' => {
                    i += 1;
                    (1, 8)
                }
                '?' => {
                    i += 1;
                    (0, 1)
                }
                _ => (1, 1),
            }
        } else {
            (1, 1)
        };
        assert!(!set.is_empty(), "empty character class in pattern {pat:?}");
        atoms.push((set, min, max));
    }
    atoms
}

fn expand_class(body: &[char]) -> Vec<char> {
    let mut set = Vec::new();
    let mut j = 0;
    while j < body.len() {
        if j + 2 < body.len() && body[j + 1] == '-' {
            let (lo, hi) = (body[j] as u32, body[j + 2] as u32);
            assert!(lo <= hi, "inverted class range");
            for c in lo..=hi {
                set.push(char::from_u32(c).expect("bad class range"));
            }
            j += 3;
        } else {
            set.push(body[j]);
            j += 1;
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_for;

    #[test]
    fn pattern_generates_matching_strings() {
        let mut rng = rng_for("pattern_test");
        let strat = "[a-z][a-z0-9]{0,10}";
        for _ in 0..200 {
            let s = Strategy::generate(&strat, &mut rng);
            assert!(!s.is_empty() && s.len() <= 11, "{s:?}");
            let mut cs = s.chars();
            assert!(cs.next().unwrap().is_ascii_lowercase());
            assert!(cs.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
        }
    }

    #[test]
    fn vec_strategy_respects_bounds() {
        let mut rng = rng_for("vec_test");
        let strat = crate::collection::vec(0.0f64..500.0, 1..120);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!(!v.is_empty() && v.len() < 120);
            assert!(v.iter().all(|x| (0.0..500.0).contains(x)));
        }
    }

    #[test]
    fn tuple_strategy() {
        let mut rng = rng_for("tuple_test");
        let strat = (0.0f64..10.0, 40u32..1500, any::<bool>());
        let (a, b, _c) = strat.generate(&mut rng);
        assert!((0.0..10.0).contains(&a));
        assert!((40..1500).contains(&b));
    }
}
