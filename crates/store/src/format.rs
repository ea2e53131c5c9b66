//! Line-level encoding primitives shared by every artifact format.
//!
//! The store's files are pipe-separated text: human-diffable, line
//! oriented, and byte-deterministic. Two primitives make that possible:
//!
//! * **Float canonicalization** — [`fmt_f64`] renders with Rust's
//!   shortest-round-trip `{:?}` formatting, which is guaranteed to parse
//!   back to the identical bit pattern (including `-0.0` and subnormals).
//!   Save→load→save is therefore byte-stable, and restored models compute
//!   bit-identical results. Non-finite values are rejected at both ends:
//!   a model containing NaN/∞ is corrupt and must not round-trip silently.
//! * **Percent escaping** — [`escape`] protects the bytes with structural
//!   meaning (`|` field separator, `\n` record separator, `\r` — which
//!   `str::lines` would silently strip before a `\n` — and `%` itself), so
//!   arbitrary destination domains, device names, and activity labels
//!   survive unchanged.

/// Canonical text encoding of a finite `f64`. Returns `None` for NaN and
/// infinities — non-finite values never enter a snapshot.
pub fn fmt_f64(v: f64) -> Option<String> {
    if !v.is_finite() {
        return None;
    }
    Some(format!("{v:?}"))
}

/// Parse a float previously written by [`fmt_f64`]. Returns `None` on
/// malformed input *or* a non-finite value (a corrupted file must not
/// smuggle NaN into a model).
pub fn parse_f64(s: &str) -> Option<f64> {
    let v: f64 = s.parse().ok()?;
    if !v.is_finite() {
        return None;
    }
    Some(v)
}

/// Escape `%`, `|`, `\n`, and `\r` so arbitrary strings can live in one
/// pipe-separated field. `\r` must be escaped because all parsers split on
/// `str::lines`, which strips a `\r` preceding each `\n` — unescaped, a
/// string ending in `\r` would lose that byte on load.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            '|' => out.push_str("%7C"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            c => out.push(c),
        }
    }
    out
}

/// Invert [`escape`]. Returns `None` on a malformed or unknown escape
/// sequence.
pub fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            match s.get(i..i + 3)? {
                "%25" => out.push('%'),
                "%7C" => out.push('|'),
                "%0A" => out.push('\n'),
                "%0D" => out.push('\r'),
                _ => return None,
            }
            i += 3;
        } else {
            let c = s[i..].chars().next()?;
            out.push(c);
            i += c.len_utf8();
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_round_trip_bit_exact() {
        for v in [
            0.0,
            -0.0,
            1.5,
            -123.456789,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 8.0, // subnormal
            f64::MAX,
            1.0 / 3.0,
            2.2250738585072014e-308,
        ] {
            let s = fmt_f64(v).unwrap();
            let back = parse_f64(&s).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?} -> {s}");
        }
    }

    #[test]
    fn non_finite_rejected_both_ways() {
        assert!(fmt_f64(f64::NAN).is_none());
        assert!(fmt_f64(f64::INFINITY).is_none());
        assert!(fmt_f64(f64::NEG_INFINITY).is_none());
        assert!(parse_f64("NaN").is_none());
        assert!(parse_f64("inf").is_none());
        assert!(parse_f64("-inf").is_none());
        assert!(parse_f64("garbage").is_none());
        assert!(parse_f64("").is_none());
    }

    #[test]
    fn escaping_round_trips() {
        for s in [
            "",
            "plain",
            "a|b",
            "100%|done",
            "line\nbreak",
            "%7C",
            "%",
            "trailing\r",
            "crlf\r\nmid",
            "\r",
        ] {
            let e = escape(s);
            assert!(!e.contains('|') && !e.contains('\n') && !e.contains('\r'));
            assert_eq!(unescape(&e).unwrap(), s);
        }
        assert!(unescape("%7").is_none());
        assert!(unescape("%zz").is_none());
    }
}
