//! Clustering-core benchmarks: pre-rewrite baseline vs. the flat-matrix /
//! grid-indexed implementation. `scripts/bench_cluster.sh` runs this bench
//! with `CRITERION_JSON` set to produce `BENCH_cluster.json`.
//!
//! Two groups, each with a `baseline` and a `fast` entry:
//!
//! * `dbscan_fit`: full DBSCAN training on a standardized 1200×21 multi-blob
//!   feature matrix. The `baseline` entry runs the [`baseline`] module — a
//!   faithful vendored copy of the crate as it stood before the rewrite
//!   (`Vec<Vec<f64>>` points, O(n) full-scan neighbor queries recomputed up
//!   to three times per point) — and the `fast` entry runs the live
//!   grid-indexed [`behaviot_cluster::Dbscan::fit_matrix`].
//!
//! * `classify_stream`: the steady-state monitor path — standardize one
//!   flow's features and test them against the trained cluster model, over a
//!   mixed hit/miss stream. `baseline` allocates a transformed `Vec` per
//!   flow and runs the first-match-wins full scan; `fast` reuses a scratch
//!   buffer (`transform_into`) and early-exits via `matches`.
//!
//! The acceptance bar (enforced by the script) is `fast` ≥ 1.5× on both
//! groups. Before timing anything the two implementations are checked for
//! agreement on every bench input: identical labels, identical per-flow
//! stream verdicts.

use behaviot_cluster::{Dbscan, FeatureMatrix, Standardizer};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The clustering core exactly as it was before the flat-matrix rewrite,
/// shared with the crate's parity test, so the speedup is measured against
/// the same predecessor the parity proptests pin (its parity-only
/// accessors go unused here).
#[path = "../../cluster/tests/baseline/mod.rs"]
#[allow(dead_code)]
mod baseline;

const DIM: usize = 21;
const N_TRAIN: usize = 1200;
const EPS: f64 = 1.0;
const MIN_PTS: usize = 4;

/// Multi-blob training set shaped like standardized flow features: three
/// dense event clusters plus a sprinkle of outliers.
fn train_points() -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..N_TRAIN)
        .map(|i| {
            if i % 97 == 11 {
                // Outlier: far from every blob, becomes noise.
                (0..DIM).map(|_| rng.gen_range(-40.0..40.0)).collect()
            } else {
                let c = (i % 3) as f64 * 10.0;
                (0..DIM).map(|_| c + rng.gen_range(-0.5..0.5)).collect()
            }
        })
        .collect()
}

/// Monitor-path stream: mostly near-blob flows (cluster hits) with a
/// fraction of user-like outliers (misses), in raw feature space.
fn stream_points() -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(8);
    (0..256)
        .map(|i| {
            if i % 5 == 0 {
                (0..DIM).map(|_| rng.gen_range(-40.0..40.0)).collect()
            } else {
                let c = (i % 3) as f64 * 10.0;
                (0..DIM).map(|_| c + rng.gen_range(-0.5..0.5)).collect()
            }
        })
        .collect()
}

fn bench_cluster(c: &mut Criterion) {
    let points = train_points();
    let stream = stream_points();

    // Baseline pipeline.
    let old_std = baseline::Standardizer::fit(&points).unwrap();
    let old_t = old_std.transform_all(&points);
    let old_dbscan = baseline::Dbscan {
        eps: EPS,
        min_pts: MIN_PTS,
    };
    let (old_labels, old_model) = old_dbscan.fit(&old_t);

    // Flat-matrix pipeline.
    let mut matrix = FeatureMatrix::from_rows(&points);
    let std = Standardizer::fit_matrix(&matrix).unwrap();
    std.transform_matrix(&mut matrix);
    let dbscan = Dbscan {
        eps: EPS,
        min_pts: MIN_PTS,
    };
    let (new_labels, new_model) = dbscan.fit_matrix(&matrix);

    // Agreement gate: never time two kernels that disagree.
    assert_eq!(new_labels, old_labels, "fit disagreement on bench input");
    assert!(
        old_labels.contains(&baseline::NOISE) && new_model.n_clusters() == 3,
        "bench input must produce 3 clusters plus noise"
    );
    let mut scratch = Vec::new();
    for (i, p) in stream.iter().enumerate() {
        let old_hit = old_model.predict(&old_std.transform(p)).is_some();
        std.transform_into(p, &mut scratch);
        assert_eq!(
            new_model.matches(&scratch),
            old_hit,
            "stream disagreement on flow {i}"
        );
    }

    let mut g = c.benchmark_group("dbscan_fit");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N_TRAIN as u64));
    g.bench_function("baseline", |b| b.iter(|| old_dbscan.fit(black_box(&old_t))));
    g.bench_function("fast", |b| b.iter(|| dbscan.fit_matrix(black_box(&matrix))));
    g.finish();

    let mut g = c.benchmark_group("classify_stream");
    g.throughput(Throughput::Elements(stream.len() as u64));
    g.bench_function("baseline", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for p in &stream {
                let t = old_std.transform(black_box(p));
                if old_model.predict(&t).is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });
    g.bench_function("fast", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for p in &stream {
                std.transform_into(black_box(p), &mut scratch);
                if new_model.matches(&scratch) {
                    hits += 1;
                }
            }
            hits
        })
    });
    g.finish();
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);
