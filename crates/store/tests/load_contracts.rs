//! What `ModelStore::load` accepts, and how what it accepts serves:
//!
//! * A `periodic@` artifact whose `core|` rows repeat bitwise copies — what
//!   a fit that kept every core point, not each distinct core value once,
//!   would write — loads unchanged. Its models match exactly like the
//!   deduplicated model on every probe, and saving the loaded set gives
//!   back the same bytes, because a load never rewrites.
//! * A v3 `periodic@` artifact carrying a v2 record — an `offsets|` line,
//!   or a `core|` line with a training index before its row — is a
//!   `StoreError::BadRecord`.
//! * A model whose feature width is not `N_FEATURES` — a periodic model
//!   with 20-wide `cluster|`/`std|`/`core|` rows, a forest with
//!   `tree|20|…` — is a `StoreError::BadRecord`: accepted, it would load
//!   and then panic in the serving path at its first flow. `save` never
//!   writes such a model, so these fixtures rewrite one artifact of a
//!   valid snapshot and re-stamp its `MANIFEST` entry.
//! * `save` and `checkpoint` refuse such a model with
//!   `StoreError::BadWidth` naming its artifact, before the manifest is
//!   written: a store that held a snapshot keeps it, byte for byte, and
//!   still loads it.

use behaviot::{
    BehavIoT, PeriodicModel, PeriodicModelSet, PeriodicTrainConfig, UserActionModels, N_FEATURES,
};
use behaviot_cluster::{Dbscan, DbscanModel, FeatureMatrix, Standardizer};
use behaviot_forest::{DecisionTree, NodeSpec, RandomForest};
use behaviot_intern::{FxHashSet, FxHasher, Symbol};
use behaviot_net::Proto;
use behaviot_store::{ModelStore, SnapshotSpec, StoreError};
use std::collections::HashMap;
use std::fs;
use std::hash::Hasher;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

const DEV: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "behaviot-store-load-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn snapshot_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|x| x.to_bits()).collect()
}

fn models_of(periodic: Vec<PeriodicModel>, user: UserActionModels) -> BehavIoT {
    BehavIoT {
        periodic: PeriodicModelSet::from_models(periodic, PeriodicTrainConfig::default(), 0.5)
            .unwrap(),
        user,
        names: HashMap::from([(DEV, "plug".to_string())]),
    }
}

fn periodic_model(dest: &str, standardizer: Standardizer, cluster: DbscanModel) -> PeriodicModel {
    PeriodicModel::from_parts(
        DEV,
        Symbol::intern(dest),
        Proto::Tcp,
        vec![60.0],
        40,
        standardizer,
        cluster,
    )
    .unwrap()
}

/// Four distinct 21-wide values repeated 3–40 times each, shuffled, plus
/// six singletons: with `min_pts` 4 the singletons are noise and the
/// repeated values are core points.
fn training_points() -> Vec<Vec<f64>> {
    let value = |k: usize| -> Vec<f64> {
        (0..N_FEATURES)
            .map(|d| ((k * 7 + d * 3) % 11) as f64 * 0.25 + k as f64)
            .collect()
    };
    let mut points = Vec::new();
    for (k, copies) in [40usize, 3, 17, 25].into_iter().enumerate() {
        points.extend(std::iter::repeat_n(value(k), copies));
    }
    for k in 10..16 {
        points.push(value(k));
    }
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..points.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        points.swap(i, (state % (i as u64 + 1)) as usize);
    }
    points
}

/// The model with every core training point, in training order, not each
/// distinct core value once. A training point is a core point exactly when
/// its value is stored, since bitwise copies share one neighborhood.
fn with_every_copy(model: &DbscanModel, points: &FeatureMatrix) -> DbscanModel {
    let dim = model.dim();
    let stored: Vec<Vec<u64>> = model.cores().chunks_exact(dim).map(bits).collect();
    let mut cores = Vec::new();
    for row in points.iter() {
        if stored.contains(&bits(row)) {
            cores.extend_from_slice(row);
        }
    }
    DbscanModel::from_parts(model.eps(), dim, cores).unwrap()
}

#[test]
fn snapshot_with_duplicate_cores_serves_like_its_deduplicated_form() {
    let points = FeatureMatrix::from_rows(&training_points());
    let standardizer = Standardizer::fit_matrix(&points).unwrap();
    let mut scaled = points.clone();
    standardizer.transform_matrix(&mut scaled);
    let deduplicated = Dbscan {
        eps: 0.5,
        min_pts: 4,
    }
    .fit_matrix(&scaled);
    let copies = with_every_copy(&deduplicated, &scaled);
    assert_eq!(deduplicated.n_core_points(), 3, "three values are core");
    assert_eq!(copies.n_core_points(), 40 + 17 + 25);

    let dir_a = temp_dir("dups-a");
    let store_a = ModelStore::open(&dir_a).unwrap();
    let old = models_of(
        vec![periodic_model("hb.cloud.com", standardizer.clone(), copies)],
        UserActionModels::from_parts(vec![], 0.9).unwrap(),
    );
    store_a.save(&SnapshotSpec::new(&old)).unwrap();
    let artifact = snapshot_bytes(&dir_a)
        .into_iter()
        .find(|(name, _)| name.starts_with("periodic@"))
        .map(|(_, bytes)| String::from_utf8(bytes).unwrap())
        .unwrap();
    let core_lines: Vec<&str> = artifact
        .lines()
        .filter(|l| l.starts_with("core|"))
        .collect();
    assert_eq!(core_lines.len(), 82, "the artifact repeats core values");

    let loaded = store_a.load().unwrap();
    let model = loaded.models.periodic.iter().next().unwrap();
    assert_eq!(
        model.cluster().n_core_points(),
        82,
        "a load keeps every row"
    );

    // Probes: every training point, the midpoint of every pair of them, and
    // points far from all clusters.
    let mut probes: Vec<Vec<f64>> = scaled.iter().map(<[f64]>::to_vec).collect();
    for a in 0..scaled.n_rows() {
        for b in a + 1..scaled.n_rows() {
            let mid = scaled
                .row(a)
                .iter()
                .zip(scaled.row(b))
                .map(|(x, y)| (x + y) / 2.0)
                .collect();
            probes.push(mid);
        }
    }
    probes.push(vec![1e3; N_FEATURES]);
    probes.push(vec![-0.0; N_FEATURES]);
    let mut hits = 0;
    for (k, p) in probes.iter().enumerate() {
        let want = deduplicated.matches(p);
        assert_eq!(
            model.cluster().matches(p),
            want,
            "matches diverged on probe {k}"
        );
        hits += usize::from(want);
    }
    assert!(hits > scaled.n_rows(), "probes must reach the clusters");

    // save(load(snapshot)) is the snapshot, byte for byte.
    let dir_b = temp_dir("dups-b");
    ModelStore::open(&dir_b)
        .unwrap()
        .save(&SnapshotSpec::new(&loaded.models))
        .unwrap();
    assert_eq!(snapshot_bytes(&dir_a), snapshot_bytes(&dir_b));
    fs::remove_dir_all(&dir_a).unwrap();
    fs::remove_dir_all(&dir_b).unwrap();
}

/// The store's content hash: `FxHasher` over the bytes.
fn hash_bytes(b: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(b);
    h.finish()
}

/// Rewrite the artifact whose name starts with `prefix` through `edit`,
/// then re-stamp its `MANIFEST` entry with the new byte count and hash and
/// the manifest's closing `check|` line, so the snapshot passes every
/// integrity check and the edited bytes reach the parser.
fn rewrite_artifact(dir: &Path, prefix: &str, edit: fn(&str) -> String) {
    let manifest = fs::read_to_string(dir.join("MANIFEST")).unwrap();
    let mut out = String::new();
    let mut rewritten = 0;
    for line in manifest.lines() {
        let fields: Vec<&str> = line.split('|').collect();
        match fields[0] {
            "artifact" if fields[1].starts_with(prefix) => {
                let path = dir.join(fields[2]);
                let old = fs::read_to_string(&path).unwrap();
                let new = edit(&old);
                assert_ne!(new, old, "the edit must change {}", fields[1]);
                fs::write(&path, &new).unwrap();
                let (name, file) = (fields[1], fields[2]);
                let (hash, len) = (hash_bytes(new.as_bytes()), new.len());
                out.push_str(&format!("artifact|{name}|{file}|{hash:016x}|{len}\n"));
                rewritten += 1;
            }
            "check" => {}
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    assert_eq!(rewritten, 1, "one {prefix} artifact");
    out.push_str(&format!("check|{:016x}\n", hash_bytes(out.as_bytes())));
    fs::write(dir.join("MANIFEST"), out).unwrap();
}

/// A comma-joined float list without its last value.
fn drop_last(list: &str) -> &str {
    list.rsplit_once(',').unwrap().0
}

/// The `periodic@` artifact's models, one feature narrower: the `cluster|`
/// dimension and every `std|` and `core|` row lose their last feature.
fn narrow_periodic(artifact: &str) -> String {
    let mut out = String::new();
    for line in artifact.lines() {
        let fields: Vec<&str> = line.split('|').collect();
        let narrowed = match fields[0] {
            "std" => format!("std|{}|{}", drop_last(fields[1]), drop_last(fields[2])),
            "cluster" => format!("cluster|{}|{}", fields[1], N_FEATURES - 1),
            "core" => format!("core|{}", drop_last(fields[1])),
            _ => line.to_string(),
        };
        out.push_str(&narrowed);
        out.push('\n');
    }
    out
}

/// The `periodic@` artifact with a v2 `offsets|` line after each
/// `cluster|` line.
fn with_offsets_line(artifact: &str) -> String {
    let mut out = String::new();
    for line in artifact.lines() {
        out.push_str(line);
        out.push('\n');
        if line.starts_with("cluster|") {
            out.push_str("offsets|0|1\n");
        }
    }
    out
}

/// The `periodic@` artifact with each `core|` row led by a v2 training
/// index.
fn with_core_origin(artifact: &str) -> String {
    artifact.replace("\ncore|", "\ncore|0|")
}

/// The `user@` artifact's trees, declared one feature narrower.
fn narrow_forest(artifact: &str) -> String {
    artifact.replace(
        &format!("tree|{N_FEATURES}|"),
        &format!("tree|{}|", N_FEATURES - 1),
    )
}

fn assert_bad_record(models: &BehavIoT, prefix: &str, narrow: fn(&str) -> String) {
    let dir = temp_dir(prefix);
    let store = ModelStore::open(&dir).unwrap();
    store.save(&SnapshotSpec::new(models)).unwrap();
    store.load().unwrap();
    rewrite_artifact(&dir, prefix, narrow);
    match store.load().map(|_| ()).unwrap_err() {
        StoreError::BadRecord { artifact, .. } => assert_eq!(artifact, format!("{prefix}{DEV}")),
        other => panic!("expected BadRecord on {prefix}{DEV}, got {other:?}"),
    }
    fs::remove_dir_all(&dir).unwrap();
}

fn periodic_of_width(dim: usize) -> PeriodicModel {
    let standardizer = Standardizer::from_params(vec![0.0; dim], vec![1.0; dim]).unwrap();
    let cluster = DbscanModel::from_parts(0.5, dim, vec![0.25; dim]).unwrap();
    periodic_model("hb.cloud.com", standardizer, cluster)
}

fn user_of_width(n_features: usize) -> UserActionModels {
    let tree = DecisionTree::from_nodes(
        vec![
            NodeSpec::Split {
                feature: 0,
                threshold: 0.5,
                left: 1,
                right: 2,
            },
            NodeSpec::Leaf { prob: 0.25 },
            NodeSpec::Leaf { prob: 0.75 },
        ],
        n_features,
    )
    .unwrap();
    let forest = RandomForest::from_trees(vec![tree], None).unwrap();
    UserActionModels::from_parts(vec![(DEV, vec![(Symbol::intern("on_off"), forest)])], 0.9)
        .unwrap()
}

#[test]
fn periodic_model_of_wrong_width_is_a_bad_record() {
    let models = models_of(
        vec![periodic_of_width(N_FEATURES)],
        UserActionModels::from_parts(vec![], 0.9).unwrap(),
    );
    assert_bad_record(&models, "periodic@", narrow_periodic);
}

#[test]
fn v2_periodic_records_are_bad_records() {
    let models = models_of(
        vec![periodic_of_width(N_FEATURES)],
        UserActionModels::from_parts(vec![], 0.9).unwrap(),
    );
    assert_bad_record(&models, "periodic@", with_offsets_line);
    assert_bad_record(&models, "periodic@", with_core_origin);
}

#[test]
fn forest_of_wrong_width_is_a_bad_record() {
    let models = models_of(vec![], user_of_width(N_FEATURES));
    assert_bad_record(&models, "user@", narrow_forest);
}

#[test]
fn save_and_checkpoint_refuse_a_model_of_wrong_width() {
    let dir = temp_dir("width");
    let store = ModelStore::open(&dir).unwrap();
    let good = models_of(
        vec![periodic_of_width(N_FEATURES)],
        user_of_width(N_FEATURES),
    );
    store.save(&SnapshotSpec::new(&good)).unwrap();
    let committed = snapshot_bytes(&dir);
    let changed: FxHashSet<Symbol> = [Symbol::intern_ipv4(DEV)].into_iter().collect();
    let narrow = N_FEATURES - 1;
    let cases = [
        (
            models_of(vec![periodic_of_width(narrow)], user_of_width(N_FEATURES)),
            "periodic@",
        ),
        (
            models_of(vec![periodic_of_width(N_FEATURES)], user_of_width(narrow)),
            "user@",
        ),
    ];
    for (models, prefix) in &cases {
        let spec = SnapshotSpec::new(models);
        for refused in [store.save(&spec), store.checkpoint(&spec, &changed)] {
            match refused.unwrap_err() {
                StoreError::BadWidth { artifact, width } => {
                    assert_eq!(artifact, format!("{prefix}{DEV}"));
                    assert_eq!(width, narrow);
                }
                other => panic!("expected BadWidth on {prefix}{DEV}, got {other:?}"),
            }
        }
        assert_eq!(snapshot_bytes(&dir), committed, "the refused save wrote");
        let loaded = store.load().unwrap();
        let dir_b = temp_dir("width-b");
        ModelStore::open(&dir_b)
            .unwrap()
            .save(&SnapshotSpec::new(&loaded.models))
            .unwrap();
        assert_eq!(snapshot_bytes(&dir_b), committed, "the snapshot changed");
        fs::remove_dir_all(&dir_b).unwrap();
    }
    fs::remove_dir_all(&dir).unwrap();
}
