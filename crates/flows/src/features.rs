//! The 21 flow features of Table 8 (Appendix B).
//!
//! Features fall into three groups: packet-size statistics, inter-packet
//! timing statistics, and directional packet/byte counts split by
//! external-server vs local-network traffic. IP addresses and ports are
//! deliberately *not* features (they are too dynamic); destination domain
//! and protocol are carried as annotations, not in the vector.

use behaviot_dsp::stats;

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
pub fn extract_with(packets: &[PacketView], scratch: &mut FeatureScratch) -> FeatureVector {
    let mut f = [0.0f64; N_FEATURES];
    if packets.is_empty() {
        return f;
    }
    let sizes = &mut scratch.sizes;
    sizes.clear();
    sizes.extend(packets.iter().map(|p| p.bytes as f64));
    f[0] = stats::mean(sizes);
    f[1] = sizes.iter().cloned().fold(f64::INFINITY, f64::min);
    f[2] = sizes.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    f[4] = stats::skewness(sizes);
    f[5] = stats::kurtosis(sizes);
    // Destructive (overwrites the size column) — keep it after the moment
    // stats above.
    f[3] = stats::median_abs_dev_in_place(sizes);

    let tbp = &mut scratch.tbp;
    tbp.clear();
    tbp.extend(
        packets
            .windows(2)
            .map(|w| w[1].ts - w[0].ts)
            .filter(|gap| gap.is_finite()),
    );
    if !tbp.is_empty() {
        f[6] = stats::mean(tbp);
        f[7] = stats::variance(tbp);
        f[9] = stats::kurtosis(tbp);
        f[10] = stats::skewness(tbp);
        // Sorts the gap column in place; order is no longer needed.
        f[8] = stats::median_in_place(tbp);
    }

    let mut out_ext = 0u32;
    let mut in_ext = 0u32;
    let mut out_loc = 0u32;
    let mut in_loc = 0u32;
    let mut bytes_out_ext = 0u64;
    let mut bytes_in_ext = 0u64;
    let mut bytes_out_loc = 0u64;
    let mut bytes_in_loc = 0u64;
    for p in packets {
        match (p.outbound, p.remote_is_local) {
            (true, false) => {
                out_ext += 1;
                bytes_out_ext += p.bytes as u64;
            }
            (false, false) => {
                in_ext += 1;
                bytes_in_ext += p.bytes as u64;
            }
            (true, true) => {
                out_loc += 1;
                bytes_out_loc += p.bytes as u64;
            }
            (false, true) => {
                in_loc += 1;
                bytes_in_loc += p.bytes as u64;
            }
        }
    }
    f[11] = out_ext as f64;
    f[12] = in_ext as f64;
    f[13] = (out_ext + in_ext) as f64;
    f[14] = (out_loc + in_loc) as f64;
    f[15] = out_loc as f64;
    f[16] = in_loc as f64;
    f[17] = if out_ext > 0 {
        bytes_out_ext as f64 / out_ext as f64
    } else {
        0.0
    };
    f[18] = if in_ext > 0 {
        bytes_in_ext as f64 / in_ext as f64
    } else {
        0.0
    };
    f[19] = if out_loc > 0 {
        bytes_out_loc as f64 / out_loc as f64
    } else {
        0.0
    };
    f[20] = if in_loc > 0 {
        bytes_in_loc as f64 / in_loc as f64
    } else {
        0.0
    };
    f
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
