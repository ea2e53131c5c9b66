//! The 21 flow features of Table 8 (Appendix B).
//!
//! Features fall into three groups: packet-size statistics, inter-packet
//! timing statistics, and directional packet/byte counts split by
//! external-server vs local-network traffic. IP addresses and ports are
//! deliberately *not* features (they are too dynamic); destination domain
//! and protocol are carried as annotations, not in the vector.

/// Number of features (Table 8 lists exactly 21).
pub const N_FEATURES: usize = 21;

/// Feature names in vector order, matching Table 8.
pub const FEATURE_NAMES: [&str; N_FEATURES] = [
    "meanBytes",
    "minBytes",
    "maxBytes",
    "medAbsDev",
    "skewLength",
    "kurtosisLength",
    "meanTBP",
    "varTBP",
    "medianTBP",
    "kurtosisTBP",
    "skewTBP",
    "network_out_external",
    "network_in_external",
    "network_external",
    "network_local",
    "network_out_local",
    "network_in_local",
    "meanBytes_out_external",
    "meanBytes_in_external",
    "meanBytes_out_local",
    "meanBytes_in_local",
];

/// A feature vector over one flow burst.
pub type FeatureVector = [f64; N_FEATURES];

/// Per-packet view needed by the feature extractor.
#[derive(Debug, Clone, Copy)]
pub struct PacketView {
    /// Timestamp (seconds).
    pub ts: f64,
    /// IP total length.
    pub bytes: u32,
    /// Sent by the device (out) vs received (in).
    pub outbound: bool,
    /// Remote endpoint on the local network (vs an external server).
    pub remote_is_local: bool,
}

/// Reusable working memory for [`extract_with`]: the size and
/// inter-packet-gap columns of the burst under extraction. Assembling the
/// testbed traces runs one extraction per burst — hundreds of thousands of
/// calls — so reusing these two columns removes the only allocations on
/// that path.
#[derive(Debug, Default)]
pub struct FeatureScratch {
    sizes: Vec<f64>,
    tbp: Vec<f64>,
}

impl FeatureScratch {
    /// An empty scratch; columns grow lazily to the largest burst seen.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Compute the 21 features over the packets of one burst (assumed sorted by
/// time; empty input yields the zero vector). Allocation-free once
/// `scratch` has warmed up to the largest burst size.
///
/// An inter-packet gap that involves a non-finite timestamp is left out of
/// the timing features (6–10); a burst with no finite gap gets zero timing
/// features, like a one-packet burst. The size and count features do not
/// read timestamps.
///
/// One pass over the packets fills the size and finite-gap columns and
/// counts the size range and the four (direction, locality) classes; each
/// column then takes a mean pass, a variance pass and one joint pass for
/// its third and fourth moments, and a sort for its median.
pub fn extract_with(packets: &[PacketView], scratch: &mut FeatureScratch) -> FeatureVector {
    let mut f = [0.0f64; N_FEATURES];
    if packets.is_empty() {
        return f;
    }
    let FeatureScratch { sizes, tbp } = scratch;
    sizes.clear();
    tbp.clear();
    let (mut min, mut max) = (u32::MAX, u32::MIN);
    // Per class `outbound | remote_is_local << 1`: in and out external,
    // then in and out local.
    let mut count = [0u32; 4];
    let mut bytes = [0u64; 4];
    // The first packet's gap, against NaN, is not finite.
    let mut prev = f64::NAN;
    for p in packets {
        sizes.push(f64::from(p.bytes));
        min = min.min(p.bytes);
        max = max.max(p.bytes);
        let class = usize::from(p.outbound) | usize::from(p.remote_is_local) << 1;
        count[class] += 1;
        bytes[class] += u64::from(p.bytes);
        let gap = p.ts - prev;
        if gap.is_finite() {
            tbp.push(gap);
        }
        prev = p.ts;
    }

    let [mean, _, skew, kurtosis] = moments(sizes);
    f[0] = mean;
    f[1] = f64::from(min);
    f[2] = f64::from(max);
    f[4] = skew;
    f[5] = kurtosis;
    // Overwrites the size column, so it comes after the moments.
    f[3] = median_abs_dev(sizes);
    if !tbp.is_empty() {
        let [mean, var, skew, kurtosis] = moments(tbp);
        f[6] = mean;
        f[7] = var;
        f[8] = median(tbp);
        f[9] = kurtosis;
        f[10] = skew;
    }

    let [in_ext, out_ext, in_loc, out_loc] = count;
    f[11] = out_ext as f64;
    f[12] = in_ext as f64;
    f[13] = (out_ext + in_ext) as f64;
    f[14] = (out_loc + in_loc) as f64;
    f[15] = out_loc as f64;
    f[16] = in_loc as f64;
    let mean_bytes = |class: usize| match count[class] {
        0 => 0.0,
        c => bytes[class] as f64 / c as f64,
    };
    f[17] = mean_bytes(1);
    f[18] = mean_bytes(0);
    f[19] = mean_bytes(3);
    f[20] = mean_bytes(2);
    f
}

/// Mean, population variance, skewness (Fisher-Pearson, population form)
/// and excess kurtosis of a non-empty column; the three spread statistics
/// are zero for fewer than two values or zero variance. Every sum runs in
/// column order from `-0.0`, where `Iterator::sum` starts, so each value
/// is bit for bit that of a pass of its own.
fn moments(xs: &[f64]) -> [f64; 4] {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return [mean, 0.0, 0.0, 0.0];
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    let sd = var.sqrt();
    if sd == 0.0 {
        return [mean, var, 0.0, 0.0];
    }
    let (mut cubes, mut fourths) = (-0.0, -0.0);
    for x in xs {
        let z = (x - mean) / sd;
        let z2 = z * z;
        cubes += z2 * z;
        fourths += z2 * z2;
    }
    [mean, var, cubes / n, fourths / n - 3.0]
}

/// Median of a non-empty column, sorting it in place.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_unstable_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        0.5 * (xs[mid - 1] + xs[mid])
    }
}

/// Median absolute deviation of a non-empty column, which it overwrites
/// with the absolute deviations.
fn median_abs_dev(xs: &mut [f64]) -> f64 {
    let med = median(xs);
    for x in xs.iter_mut() {
        *x = (*x - med).abs();
    }
    median(xs)
}

/// Allocating convenience wrapper around [`extract_with`]; burst-assembly
/// loops should hold a [`FeatureScratch`] instead.
pub fn extract(packets: &[PacketView]) -> FeatureVector {
    extract_with(packets, &mut FeatureScratch::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(ts: f64, bytes: u32, outbound: bool, local: bool) -> PacketView {
        PacketView {
            ts,
            bytes,
            outbound,
            remote_is_local: local,
        }
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(extract(&[]), [0.0; N_FEATURES]);
    }

    #[test]
    fn size_stats() {
        let pkts = [pkt(0.0, 100, true, false), pkt(0.1, 300, false, false)];
        let f = extract(&pkts);
        assert_eq!(f[0], 200.0); // mean
        assert_eq!(f[1], 100.0); // min
        assert_eq!(f[2], 300.0); // max
        assert_eq!(f[3], 100.0); // MAD around median 200
    }

    #[test]
    fn mad_is_robust() {
        // median = 2, |x-2| = [1,1,0,0,2,4,7], median = 1
        let pkts: Vec<PacketView> = [1, 1, 2, 2, 4, 6, 9]
            .iter()
            .map(|&b| pkt(0.0, b, true, false))
            .collect();
        assert_eq!(extract(&pkts)[3], 1.0);
    }

    #[test]
    fn skew_kurtosis_symmetric() {
        // Sizes 1..=5 and gaps 1..=5: symmetric, and flat (platykurtic,
        // negative excess kurtosis).
        let f = extract(&[1, 2, 3, 4, 5].map(|b| pkt(0.0, b, true, false)));
        assert!(f[4].abs() < 1e-12 && f[5] < 0.0, "{f:?}");
        let f = extract(&[0.0, 1.0, 3.0, 6.0, 10.0, 15.0].map(|ts| pkt(ts, 60, true, false)));
        assert!(f[10].abs() < 1e-12 && f[9] < 0.0, "{f:?}");
    }

    #[test]
    fn skew_positive_for_right_tail() {
        let f = extract(&[1, 1, 1, 1, 10].map(|b| pkt(0.0, b, true, false)));
        assert!(f[4] > 0.0);
        let f = extract(&[0.0, 1.0, 2.0, 3.0, 4.0, 14.0].map(|ts| pkt(ts, 60, true, false)));
        assert!(f[10] > 0.0);
    }

    #[test]
    fn timing_stats() {
        let pkts = [
            pkt(0.0, 100, true, false),
            pkt(1.0, 100, false, false),
            pkt(3.0, 100, true, false),
        ];
        let f = extract(&pkts);
        assert!((f[6] - 1.5).abs() < 1e-12); // meanTBP of [1,2]
        assert!((f[8] - 1.5).abs() < 1e-12); // medianTBP
        assert!((f[7] - 0.25).abs() < 1e-12); // varTBP
    }

    #[test]
    fn single_packet_no_tbp() {
        let f = extract(&[pkt(5.0, 64, true, false)]);
        assert_eq!(f[6], 0.0);
        assert_eq!(f[7], 0.0);
        assert_eq!(f[11], 1.0);
        assert_eq!(f[12], 0.0);
    }

    #[test]
    fn directional_counters() {
        let pkts = [
            pkt(0.0, 100, true, false),  // out external
            pkt(0.1, 200, false, false), // in external
            pkt(0.2, 300, false, false), // in external
            pkt(0.3, 50, true, true),    // out local
            pkt(0.4, 60, false, true),   // in local
        ];
        let f = extract(&pkts);
        assert_eq!(f[11], 1.0);
        assert_eq!(f[12], 2.0);
        assert_eq!(f[13], 3.0);
        assert_eq!(f[14], 2.0);
        assert_eq!(f[15], 1.0);
        assert_eq!(f[16], 1.0);
        assert_eq!(f[17], 100.0);
        assert_eq!(f[18], 250.0);
        assert_eq!(f[19], 50.0);
        assert_eq!(f[20], 60.0);
    }

    #[test]
    fn scratch_reuse_matches_fresh() {
        let bursts: Vec<Vec<PacketView>> = vec![
            vec![pkt(0.0, 100, true, false), pkt(0.1, 300, false, false)],
            vec![pkt(5.0, 64, true, true)],
            vec![],
            (0..50)
                .map(|i| pkt(i as f64 * 0.2, 60 + i * 17, i % 2 == 0, i % 3 == 0))
                .collect(),
            vec![pkt(9.0, 1500, false, false)],
        ];
        let mut scratch = FeatureScratch::new();
        for b in &bursts {
            assert_eq!(extract_with(b, &mut scratch), extract(b));
        }
    }

    #[test]
    fn non_finite_timestamps_leave_the_timing_features() {
        // Gaps 1, NaN, NaN, 2, inf: only 1 and 2 are timing evidence, so
        // the timing columns equal those of a burst with gaps [1, 2].
        let pkts = [
            pkt(0.0, 100, true, false),
            pkt(1.0, 200, false, false),
            pkt(f64::NAN, 300, true, false),
            pkt(3.0, 400, false, false),
            pkt(5.0, 500, true, false),
            pkt(f64::INFINITY, 600, false, false),
        ];
        let f = extract(&pkts);
        let finite = extract(&[
            pkt(0.0, 100, true, false),
            pkt(1.0, 100, false, false),
            pkt(3.0, 100, true, false),
        ]);
        assert_eq!(f[6..=10], finite[6..=10]);
        assert!(f.iter().all(|x| x.is_finite()), "{f:?}");
        assert_eq!(f[0], 350.0); // sizes are unaffected
                                 // No finite gap at all: zero timing features.
        let f = extract(&[pkt(f64::NAN, 100, true, false), pkt(1.0, 100, false, false)]);
        assert_eq!(f[6..=10], [0.0; 5]);
    }

    #[test]
    fn names_match_count_and_are_unique() {
        assert_eq!(FEATURE_NAMES.len(), N_FEATURES);
        let set: std::collections::HashSet<_> = FEATURE_NAMES.iter().collect();
        assert_eq!(set.len(), N_FEATURES);
    }

    #[test]
    fn identical_flows_identical_features() {
        let a = [pkt(10.0, 100, true, false), pkt(10.2, 400, false, false)];
        // Same deltas/sizes, shifted in time: features must match (features
        // never encode absolute time). Deltas are computed by subtraction at
        // different magnitudes, so compare approximately.
        let b = [pkt(99.0, 100, true, false), pkt(99.2, 400, false, false)];
        for (x, y) in extract(&a).iter().zip(extract(&b).iter()) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }
}
