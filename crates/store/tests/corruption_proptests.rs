//! Corruption properties: mutate any byte of any snapshot file — flip,
//! insert, or truncate, via the same `behaviot_sim::faults::mutate_bytes`
//! primitive the fault-tolerance suite uses — and every `load` must return
//! a typed [`StoreError`], never panic, with the error pinpointing the
//! mutated artifact whenever the mutation hit an artifact file (the
//! manifest's per-artifact length + FxHash64 make that detection exact,
//! and the manifest's own trailing check line covers mutations of the
//! manifest itself, artifact names included).

use behaviot::{
    BehavIoT, HealthConfig, HealthExport, HealthState, MonitorConfig, MonitorState, PeriodicModel,
    PeriodicModelSet, PeriodicTrainConfig, SystemModel, SystemModelConfig, UserActionModels,
    N_FEATURES,
};
use behaviot_cluster::{DbscanModel, Standardizer};
use behaviot_forest::{DecisionTree, NodeSpec, RandomForest};
use behaviot_intern::Symbol;
use behaviot_net::Proto;
use behaviot_sim::faults::mutate_bytes;
use behaviot_store::{ModelStore, SnapshotSpec, StoreError};
use proptest::prelude::*;
use std::collections::HashMap;
use std::fs;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "behaviot-store-corrupt-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Small two-device fixture built straight through the `from_parts` APIs
/// (no training) so each proptest case is cheap. Every artifact kind is
/// present: periodic + user device files, all three global configs, the
/// system model, monitor state, and the health checkpoint. Models are
/// `N_FEATURES` wide, the only width a load accepts.
fn fixture() -> (BehavIoT, SystemModel) {
    let dim = N_FEATURES;
    let mk_periodic = |ip: Ipv4Addr, dest: &str, n_cores: usize| {
        let std = Standardizer::from_params(vec![0.5; dim], vec![1.25; dim]).unwrap();
        let cluster = DbscanModel::from_parts(0.75, dim, vec![1.5; n_cores * dim]).unwrap();
        PeriodicModel::from_parts(
            ip,
            Symbol::intern(dest),
            Proto::Tcp,
            vec![120.0, 3603.5],
            40,
            std,
            cluster,
        )
        .unwrap()
    };
    let a = Ipv4Addr::new(10, 0, 0, 1);
    let b = Ipv4Addr::new(10, 0, 0, 2);
    let periodic = PeriodicModelSet::from_models(
        vec![
            mk_periodic(a, "hb.cloud.com", 2),
            mk_periodic(b, "tele.cloud.com", 1),
        ],
        PeriodicTrainConfig::default(),
        0.875,
    )
    .unwrap();
    let tree = DecisionTree::from_nodes(
        vec![
            NodeSpec::Split {
                feature: 1,
                threshold: 0.25,
                left: 1,
                right: 2,
            },
            NodeSpec::Leaf { prob: 0.125 },
            NodeSpec::Leaf { prob: 0.875 },
        ],
        dim,
    )
    .unwrap();
    let forest = RandomForest::from_trees(vec![tree], Some(0.75)).unwrap();
    let user =
        UserActionModels::from_parts(vec![(a, vec![(Symbol::intern("on_off"), forest)])], 0.9)
            .unwrap();
    let mut names = HashMap::new();
    names.insert(a, "plug".to_string());
    names.insert(b, "camera".to_string());
    let system = SystemModel::from_traces(
        &[vec!["plug:on_off".to_string()]],
        &SystemModelConfig::default(),
    );
    (
        BehavIoT {
            periodic,
            user,
            names,
        },
        system,
    )
}

fn save_fixture(store: &ModelStore, models: &BehavIoT, system: &SystemModel) {
    let cfg = MonitorConfig::default();
    let state = MonitorState {
        last_seen: vec![(
            (
                Ipv4Addr::new(10, 0, 0, 1),
                Symbol::intern("hb.cloud.com"),
                Proto::Tcp,
            ),
            1234.5,
        )],
        absence_flagged: vec![Ipv4Addr::new(10, 0, 0, 2)],
        long_flagged: vec![(Symbol::intern("plug:on_off"), Symbol::intern("FINAL"))],
        windows: 7,
    };
    let health = HealthExport {
        cfg: HealthConfig::default(),
        records: vec![
            (Symbol::intern("camera"), HealthState::Stale, 0, 4),
            (Symbol::intern("plug"), HealthState::Deviant, 0, 0),
        ],
    };
    let spec = SnapshotSpec {
        models,
        system: Some(system),
        monitor: Some((&cfg, state)),
        health: Some(health),
    };
    store.save(&spec).unwrap();
}

fn hash_bytes(b: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = behaviot_intern::FxHasher::default();
    h.write(b);
    h.finish()
}

/// Re-pin the manifest's per-artifact hash/length fields and its check
/// line to whatever is on disk, so a test can hand-edit artifact content
/// and still reach the record parsers behind the integrity layer.
fn rehash_manifest(dir: &std::path::Path) {
    let manifest = fs::read_to_string(dir.join("MANIFEST")).unwrap();
    let mut out = String::new();
    for line in manifest.lines() {
        let f: Vec<&str> = line.split('|').collect();
        if f.len() == 5 && f[0] == "artifact" {
            let bytes = fs::read(dir.join(f[2])).unwrap();
            out.push_str(&format!(
                "artifact|{}|{}|{:016x}|{}\n",
                f[1],
                f[2],
                hash_bytes(&bytes),
                bytes.len()
            ));
        } else if f[0] != "check" {
            out.push_str(line);
            out.push('\n');
        }
    }
    out.push_str(&format!("check|{:016x}\n", hash_bytes(out.as_bytes())));
    fs::write(dir.join("MANIFEST"), out).unwrap();
}

/// file → artifact-name mapping, read from the pristine manifest (file
/// names are content-addressed, so they aren't predictable up front).
fn artifact_by_file(dir: &std::path::Path) -> HashMap<String, String> {
    fs::read_to_string(dir.join("MANIFEST"))
        .unwrap()
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split('|').collect();
            (f.len() == 5 && f[0] == "artifact").then(|| (f[2].to_string(), f[1].to_string()))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Flip / insert / truncate anywhere in any snapshot file: load always
    /// returns `StoreError` (no panic, no silent success), and when the
    /// mutation hit an artifact file the error names exactly that
    /// artifact.
    #[test]
    fn mutated_snapshot_always_errors(
        file_sel in any::<usize>(),
        kind in any::<u8>(),
        pos in any::<usize>(),
        value in any::<u8>(),
    ) {
        let (models, system) = fixture();
        let dir = temp_dir();
        let store = ModelStore::open(&dir).unwrap();
        save_fixture(&store, &models, &system);
        store.load().expect("pristine snapshot must load");
        let artifacts = artifact_by_file(&dir);

        let mut files: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        let target = files[file_sel % files.len()].clone();
        let path = dir.join(&target);
        let mut bytes = fs::read(&path).unwrap();
        let before = bytes.clone();
        mutate_bytes(&mut bytes, kind, pos, value);
        prop_assert!(bytes != before, "mutation must change the file");
        fs::write(&path, &bytes).unwrap();

        let err = store.load().map(|_| ()).expect_err("corruption must not load");
        if target != "MANIFEST" {
            let expected = &artifacts[&target];
            prop_assert_eq!(
                err.artifact(),
                Some(expected.as_str()),
                "wrong artifact pinpointed for {} ({:?})",
                target,
                err
            );
            match err {
                StoreError::HashMismatch { .. } | StoreError::Io { .. } => {}
                other => panic!("artifact corruption should fail integrity, got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// A deleted artifact file errors (with the artifact named) instead of
/// panicking or loading partially.
#[test]
fn deleted_artifact_file_errors() {
    let (models, system) = fixture();
    let dir = temp_dir();
    let store = ModelStore::open(&dir).unwrap();
    save_fixture(&store, &models, &system);

    let names_file = artifact_by_file(&dir)
        .into_iter()
        .find(|(_, a)| a == "names")
        .map(|(f, _)| f)
        .unwrap();
    fs::remove_file(dir.join(names_file)).unwrap();
    let err = store.load().map(|_| ()).unwrap_err();
    assert_eq!(err.artifact(), Some("names"), "{err:?}");

    fs::remove_dir_all(&dir).unwrap();
}

/// Duplicated monitor records (timer / absent / long) are a hard
/// `StoreError::Duplicate`, not last-wins: `Monitor::restore` collapses
/// these records into maps/sets, so accepting repeats would silently mask
/// a corrupted or hand-edited snapshot — the same policy every other
/// artifact already enforces.
#[test]
fn duplicate_monitor_records_rejected() {
    for kind in ["timer|", "absent|", "long|"] {
        let (models, system) = fixture();
        let dir = temp_dir();
        let store = ModelStore::open(&dir).unwrap();
        save_fixture(&store, &models, &system);

        let monitor_file = artifact_by_file(&dir)
            .into_iter()
            .find(|(_, a)| a == "monitor")
            .map(|(f, _)| f)
            .unwrap();
        let path = dir.join(&monitor_file);
        let text = fs::read_to_string(&path).unwrap();
        let line = text
            .lines()
            .find(|l| l.starts_with(kind))
            .expect("fixture carries one record of each kind");
        fs::write(&path, format!("{text}{line}\n")).unwrap();
        rehash_manifest(&dir);

        match store.load().map(|_| ()).unwrap_err() {
            StoreError::Duplicate { ref artifact, .. } => assert_eq!(artifact, "monitor"),
            other => panic!("expected Duplicate for repeated {kind} record, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// A duplicated health `dev|` record is likewise a hard
/// `StoreError::Duplicate` — the registry restores rows into a per-device
/// map, so last-wins would silently mask snapshot corruption.
#[test]
fn duplicate_health_records_rejected() {
    let (models, system) = fixture();
    let dir = temp_dir();
    let store = ModelStore::open(&dir).unwrap();
    save_fixture(&store, &models, &system);

    let health_file = artifact_by_file(&dir)
        .into_iter()
        .find(|(_, a)| a == "health")
        .map(|(f, _)| f)
        .unwrap();
    let path = dir.join(&health_file);
    let text = fs::read_to_string(&path).unwrap();
    let line = text
        .lines()
        .find(|l| l.starts_with("dev|"))
        .expect("fixture carries health device rows");
    fs::write(&path, format!("{text}{line}\n")).unwrap();
    rehash_manifest(&dir);

    match store.load().map(|_| ()).unwrap_err() {
        StoreError::Duplicate { ref artifact, .. } => assert_eq!(artifact, "health"),
        other => panic!("expected Duplicate for repeated health dev record, got {other:?}"),
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// An empty manifest is a `BadManifest`, not a panic; a missing manifest
/// is an `Io` on `MANIFEST`.
#[test]
fn degenerate_manifests_error() {
    let (models, system) = fixture();
    let dir = temp_dir();
    let store = ModelStore::open(&dir).unwrap();
    save_fixture(&store, &models, &system);

    fs::write(dir.join("MANIFEST"), b"").unwrap();
    assert!(matches!(
        store.load().map(|_| ()).unwrap_err(),
        StoreError::BadManifest { .. }
    ));

    fs::remove_file(dir.join("MANIFEST")).unwrap();
    let err = store.load().map(|_| ()).unwrap_err();
    assert_eq!(err.artifact(), Some("MANIFEST"));

    fs::remove_dir_all(&dir).unwrap();
}

/// Any format version other than the current one — the retired v1 and v2
/// or a future one — is refused up front.
#[test]
fn future_version_refused() {
    for version in [99, 1, 2] {
        let (models, system) = fixture();
        let dir = temp_dir();
        let store = ModelStore::open(&dir).unwrap();
        save_fixture(&store, &models, &system);

        let manifest = fs::read_to_string(dir.join("MANIFEST")).unwrap();
        let bumped = manifest.replacen(
            "behaviot-store|v3",
            &format!("behaviot-store|v{version}"),
            1,
        );
        assert_ne!(bumped, manifest, "the manifest declares v3");
        fs::write(dir.join("MANIFEST"), bumped).unwrap();
        assert_eq!(
            store.load().map(|_| ()).unwrap_err(),
            StoreError::BadVersion(version)
        );

        fs::remove_dir_all(&dir).unwrap();
    }
}

/// The post-commit orphan sweep deletes only files in the store's own
/// content-addressed naming scheme. Foreign files survive a save, among
/// them a name in the retired pre-hash form (`names.tsv`) and a `.jsonl`
/// file no artifact uses any more — while a superseded content-addressed
/// artifact and a stale staging file are removed.
#[test]
fn orphan_sweep_leaves_foreign_files_alone() {
    let (models, system) = fixture();
    let dir = temp_dir();
    let store = ModelStore::open(&dir).unwrap();
    save_fixture(&store, &models, &system);

    let foreign = ["names.tsv", "notes.jsonl", "periodic.cfg", "README"];
    for name in foreign {
        fs::write(dir.join(name), b"not the store's\n").unwrap();
    }
    let stale = [
        "names-0123456789abcdef.tsv",
        "system-0123456789abcdef.tsv.tmp",
    ];
    for name in stale {
        fs::write(dir.join(name), b"superseded\n").unwrap();
    }
    save_fixture(&store, &models, &system);
    store.load().expect("snapshot must still load");

    for name in foreign {
        assert_eq!(
            fs::read(dir.join(name)).unwrap(),
            b"not the store's\n",
            "sweep touched foreign file {name}"
        );
    }
    for name in stale {
        assert!(!dir.join(name).exists(), "sweep left orphan {name}");
    }
    fs::remove_dir_all(&dir).unwrap();
}
