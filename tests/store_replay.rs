//! Replay-invariant contract tests for `behaviot-store` (the durable model
//! store).
//!
//! The headline contract: a monitor that is **killed mid-stream, snapshotted,
//! and restored from disk** emits *exactly* the deviation stream the
//! uninterrupted monitor would have emitted — and its final snapshot is
//! **byte-for-byte identical** to the uninterrupted run's. That holds under
//! `Parallelism::Off` and `Parallelism::Fixed(2)` training alike, across
//! kill points that land mid-absence-flag and mid-long-term-flag.
//!
//! Also pinned here:
//! * save → load → save is a byte fixed point (canonical rendering),
//! * a kill at *any point mid-save* — any prefix of the new snapshot's
//!   artifact files staged, manifest rename never reached — leaves the
//!   previously committed snapshot loadable and byte-identical (artifact
//!   files are content-addressed; the manifest rename is the sole commit
//!   point),
//! * `checkpoint` genuinely skips unchanged devices (proved behaviorally:
//!   corrupt an unchanged device's file on disk, checkpoint, and the stale
//!   bytes — and stale manifest hash — are still there),
//! * a snapshot of models trained through the pipeline on the quick
//!   dataset stores each core value of a periodic model once.

use behaviot::{BehavIoT, Deviation, Monitor, MonitorConfig, SystemModel, SystemModelConfig};
use behaviot::{TrainConfig, TrainingData};
use behaviot_bench::{Prepared, Scale};
use behaviot_flows::{FlowRecord, N_FEATURES};
use behaviot_intern::{FxHashSet, Symbol};
use behaviot_net::Proto;
use behaviot_obs::NullSink;
use behaviot_par::Parallelism;
use behaviot_store::{ModelStore, SnapshotSpec, StoreError};
use std::collections::HashMap;
use std::fs;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

const DEV: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);
const DEV_B: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 11);

fn flow_from(device: Ipv4Addr, dest: &str, start: f64, size: f64) -> FlowRecord {
    let mut features = [0.0; N_FEATURES];
    features[0] = size;
    features[1] = size;
    features[2] = size;
    features[11] = 2.0;
    FlowRecord {
        device,
        remote: Ipv4Addr::new(52, 0, 0, 1),
        device_port: 30000,
        remote_port: 443,
        proto: Proto::Tcp,
        domain: Some(dest.into()),
        start,
        end: start + 0.1,
        n_packets: 4,
        total_bytes: size as u64 * 4,
        features,
    }
}

fn flow(dest: &str, start: f64, size: f64) -> FlowRecord {
    flow_from(DEV, dest, start, size)
}

/// One plug: heartbeat to `hb.cloud.com` every 100 s, a learnable
/// `on_off` activity on `ctl.cloud.com`, and a system model trained on
/// regular single-event traces.
fn trained(par: Parallelism) -> (BehavIoT, SystemModel) {
    let idle: Vec<FlowRecord> = (0..600)
        .map(|i| flow("hb.cloud.com", i as f64 * 100.0, 120.0))
        .collect();
    let activity: Vec<(FlowRecord, Option<String>)> = (0..40)
        .flat_map(|i| {
            vec![
                (
                    flow("ctl.cloud.com", i as f64 * 75.0, 800.0),
                    Some("on_off".to_string()),
                ),
                (flow("hb.cloud.com", 10.0 + i as f64 * 75.0, 120.0), None),
            ]
        })
        .collect();
    let refs: Vec<(&FlowRecord, Option<&str>)> =
        activity.iter().map(|(f, l)| (f, l.as_deref())).collect();
    let mut names = HashMap::new();
    names.insert(DEV, "plug".to_string());
    let data = TrainingData::from_flows(idle, refs, names);
    let cfg = TrainConfig {
        parallelism: par,
        ..Default::default()
    };
    let models = BehavIoT::train(&data, &cfg);
    let traces: Vec<Vec<String>> = (0..30).map(|_| vec!["plug:on_off".to_string()]).collect();
    let system = SystemModel::from_traces(&traces, &SystemModelConfig::default());
    (models, system)
}

const WINDOW: f64 = 2000.0;
const N_WINDOWS: usize = 10;

/// Deterministic 10-window stream exercising every piece of cross-window
/// monitor state: windows 3-4 are silent (absence flagged once, then the
/// flag suppresses the repeat), window 5 resumes traffic and floods
/// doubled `on_off` pairs (long-term flag set), window 6 keeps flooding
/// (flag suppresses the repeat), the rest are healthy heartbeats.
fn window_flows(w: usize) -> Vec<FlowRecord> {
    let t0 = w as f64 * WINDOW;
    let mut flows = Vec::new();
    match w {
        3 | 4 => {}
        5 | 6 => {
            for i in 0..20 {
                flows.push(flow("hb.cloud.com", t0 + i as f64 * 100.0, 120.0));
            }
            for i in 0..8 {
                let t = t0 + 100.0 + i as f64 * 200.0;
                flows.push(flow("ctl.cloud.com", t, 800.0));
                flows.push(flow("ctl.cloud.com", t + 5.0, 800.0));
            }
        }
        _ => {
            for i in 0..20 {
                flows.push(flow("hb.cloud.com", t0 + i as f64 * 100.0, 120.0));
            }
            if w.is_multiple_of(2) {
                flows.push(flow("ctl.cloud.com", t0 + 1500.0, 800.0));
            }
        }
    }
    flows
}

/// Stable textual rendering of a deviation stream. `{:?}` floats are
/// shortest-round-trip, so equal strings mean bit-equal scores.
fn render(devs: &[Deviation]) -> String {
    devs.iter()
        .map(|d| {
            format!(
                "{:?}|{:?}|{:?}|{:?}|{}|{}",
                d.ts,
                d.kind(),
                d.score,
                d.threshold,
                d.subject(),
                d.detail()
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn run_windows(monitor: &mut Monitor, range: std::ops::Range<usize>) -> Vec<String> {
    range
        .map(|w| {
            let t0 = w as f64 * WINDOW;
            render(&monitor.process_window_audited(
                &window_flows(w),
                t0,
                t0 + WINDOW,
                None,
                &mut NullSink,
            ))
        })
        .collect()
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "behaviot-store-replay-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Every file in the snapshot directory, sorted by name, with its bytes.
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

/// The on-disk file of the artifact whose file name starts with `prefix`
/// (file names are content-addressed, so the exact name isn't predictable).
fn find_artifact_file(dir: &Path, prefix: &str) -> PathBuf {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix))
        })
        .unwrap_or_else(|| panic!("no file matching {prefix}* in {dir:?}"))
}

fn save_monitor(store: &ModelStore, monitor: &Monitor) {
    let spec = SnapshotSpec {
        models: monitor.models(),
        system: Some(monitor.system()),
        monitor: Some((monitor.config(), monitor.export_state())),
        health: monitor.health().map(|h| h.export()),
    };
    store.save(&spec).unwrap();
}

/// The headline differential: for each kill point, run to the kill,
/// snapshot, restore from disk, and finish — the post-kill deviation
/// stream and the final snapshot must match the uninterrupted run
/// exactly.
fn kill_and_restore(par: Parallelism, tag: &str) {
    let (models, system) = trained(par);

    // Uninterrupted reference run.
    let mut reference = Monitor::new(models.clone(), system.clone(), MonitorConfig::default());
    let ref_stream = run_windows(&mut reference, 0..N_WINDOWS);
    assert!(
        ref_stream.iter().any(|w| !w.is_empty()),
        "fixture produced no deviations at all: {ref_stream:?}"
    );
    let ref_dir = temp_store(&format!("{tag}-ref"));
    let ref_store = ModelStore::open(&ref_dir).unwrap();
    save_monitor(&ref_store, &reference);
    let ref_final = snapshot_bytes(&ref_dir);

    // Kill points covering mid-absence (4) and mid-long-term-flag (6).
    for kill in [1, 4, 6, 8] {
        let mut first = Monitor::new(models.clone(), system.clone(), MonitorConfig::default());
        let pre = run_windows(&mut first, 0..kill);
        assert_eq!(
            pre,
            ref_stream[..kill],
            "pre-kill stream diverged (k={kill})"
        );

        let dir = temp_store(&format!("{tag}-k{kill}"));
        let store = ModelStore::open(&dir).unwrap();
        save_monitor(&store, &first);
        drop(first); // the "kill": nothing survives but the snapshot

        let loaded = store.load().unwrap();
        let mut restored = loaded.into_monitor().expect("snapshot carried a monitor");
        let post = run_windows(&mut restored, kill..N_WINDOWS);
        assert_eq!(
            post,
            ref_stream[kill..],
            "post-restore stream diverged (k={kill}, {par})"
        );

        save_monitor(&store, &restored);
        assert_eq!(
            snapshot_bytes(&dir),
            ref_final,
            "final snapshot differs from uninterrupted run's (k={kill}, {par})"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::remove_dir_all(&ref_dir).unwrap();
}

#[test]
fn kill_and_restore_matches_uninterrupted_serial() {
    kill_and_restore(Parallelism::Off, "off");
}

#[test]
fn kill_and_restore_matches_uninterrupted_fixed2() {
    kill_and_restore(Parallelism::Fixed(2), "fixed2");
}

/// save → load → save into a second directory is a byte fixed point:
/// loading loses nothing and re-rendering is canonical.
#[test]
fn snapshot_restore_snapshot_fixed_point() {
    let (models, system) = trained(Parallelism::Off);
    let mut monitor = Monitor::new(models, system, MonitorConfig::default());
    let _ = run_windows(&mut monitor, 0..7); // accumulate non-trivial state

    let dir_a = temp_store("fixed-point-a");
    let store_a = ModelStore::open(&dir_a).unwrap();
    save_monitor(&store_a, &monitor);

    let restored = store_a.load().unwrap().into_monitor().unwrap();
    let dir_b = temp_store("fixed-point-b");
    let store_b = ModelStore::open(&dir_b).unwrap();
    save_monitor(&store_b, &restored);

    assert_eq!(snapshot_bytes(&dir_a), snapshot_bytes(&dir_b));
    fs::remove_dir_all(&dir_a).unwrap();
    fs::remove_dir_all(&dir_b).unwrap();
}

/// Crashing *between* completed saves is the easy case; the hard one is a
/// kill mid-staging: some of the next snapshot's artifact files have
/// landed on disk, but the manifest rename never happened. Because
/// artifact files are content-addressed and the manifest rename is the
/// sole commit point, every such prefix state must leave the previously
/// committed snapshot loadable — and a retried save must converge to
/// exactly the snapshot the crashed one was writing.
#[test]
fn mid_save_kill_leaves_previous_snapshot_loadable() {
    let (models, system) = trained(Parallelism::Off);
    let mut monitor = Monitor::new(models, system, MonitorConfig::default());
    let _ = run_windows(&mut monitor, 0..3);

    // Snapshot A: committed, and its canonical bytes pinned from a twin
    // directory (the main dir will accumulate staged debris below).
    let dir = temp_store("midsave");
    let store = ModelStore::open(&dir).unwrap();
    save_monitor(&store, &monitor);
    let manifest_a = fs::read(dir.join("MANIFEST")).unwrap();
    let pristine_a = temp_store("midsave-pristine");
    save_monitor(&ModelStore::open(&pristine_a).unwrap(), &monitor);
    let bytes_a = snapshot_bytes(&pristine_a);

    // Snapshot B = the same monitor a few windows later. Content-addressed
    // file names are directory-independent, so saving B into a sibling
    // directory yields byte-for-byte the files a save of B would stage in
    // `dir` before its manifest rename.
    let _ = run_windows(&mut monitor, 3..7);
    let side = temp_store("midsave-side");
    save_monitor(&ModelStore::open(&side).unwrap(), &monitor);
    let staged: Vec<(String, Vec<u8>)> = snapshot_bytes(&side)
        .into_iter()
        .filter(|(name, _)| name != "MANIFEST")
        .collect();
    assert!(
        staged.iter().any(|(name, _)| !dir.join(name).exists()),
        "fixture must stage at least one genuinely new artifact file"
    );

    // Kill after every prefix of the staging sequence: k files landed,
    // manifest rename never reached.
    for k in 0..=staged.len() {
        for (name, bytes) in &staged[..k] {
            fs::write(dir.join(name), bytes).unwrap();
        }
        assert_eq!(
            fs::read(dir.join("MANIFEST")).unwrap(),
            manifest_a,
            "staging must never touch the committed manifest (k={k})"
        );
        let loaded = ModelStore::open(&dir).unwrap().load().unwrap_or_else(|e| {
            panic!("previous snapshot must stay loadable after mid-save kill (k={k}): {e}")
        });
        // ...and not just loadable: byte-identically snapshot A.
        let resave = temp_store("midsave-resave");
        save_monitor(
            &ModelStore::open(&resave).unwrap(),
            &loaded.into_monitor().unwrap(),
        );
        assert_eq!(
            snapshot_bytes(&resave),
            bytes_a,
            "loaded snapshot drifted from A after mid-save kill (k={k})"
        );
        fs::remove_dir_all(&resave).unwrap();
    }

    // Recovery: retrying the interrupted save commits B and sweeps A's
    // superseded files — the directory converges to a clean save of B.
    save_monitor(&store, &monitor);
    assert_eq!(snapshot_bytes(&dir), snapshot_bytes(&side));

    for d in [dir, pristine_a, side] {
        fs::remove_dir_all(&d).unwrap();
    }
}

/// `checkpoint` must be O(changed devices): artifacts of devices outside
/// the changed set are *not* re-rendered or re-written. Proved
/// behaviorally — corrupt device A's file on disk, checkpoint with only B
/// changed, and the corruption (plus the stale manifest entry) survives;
/// checkpoint with A changed and the file heals.
#[test]
fn checkpoint_skips_unchanged_devices() {
    // Two devices so "changed" can be a strict subset.
    let idle: Vec<FlowRecord> = (0..600)
        .flat_map(|i| {
            vec![
                flow_from(DEV, "hb.cloud.com", i as f64 * 100.0, 120.0),
                flow_from(DEV_B, "tele.cloud.com", i as f64 * 150.0, 200.0),
            ]
        })
        .collect();
    let mut names = HashMap::new();
    names.insert(DEV, "plug".to_string());
    names.insert(DEV_B, "camera".to_string());
    let data = TrainingData::from_flows(idle, std::iter::empty(), names);
    let models = BehavIoT::train(&data, &TrainConfig::default());
    assert!(
        models.periodic.iter().any(|m| m.device == DEV)
            && models.periodic.iter().any(|m| m.device == DEV_B),
        "fixture needs periodic models on both devices"
    );

    let dir = temp_store("checkpoint");
    let store = ModelStore::open(&dir).unwrap();
    let spec = SnapshotSpec::new(&models);
    store.save(&spec).unwrap();
    store.load().unwrap();

    // Corrupt device A's periodic artifact behind the store's back.
    let victim = find_artifact_file(&dir, &format!("periodic@{DEV}-"));
    let mut bytes = fs::read(&victim).unwrap();
    bytes.push(b'x');
    fs::write(&victim, &bytes).unwrap();

    // Checkpoint with only B changed: A must be carried over untouched,
    // so the corruption is still on disk and still detected.
    let mut changed: FxHashSet<Symbol> = FxHashSet::default();
    changed.insert(Symbol::intern_ipv4(DEV_B));
    store.checkpoint(&spec, &changed).unwrap();
    let err = store.load().map(|_| ()).unwrap_err();
    assert_eq!(
        err,
        StoreError::HashMismatch {
            artifact: format!("periodic@{DEV}"),
        },
        "unchanged device was unexpectedly re-written"
    );

    // Checkpoint with A changed: its artifact is re-rendered and the
    // snapshot is whole again.
    let mut changed: FxHashSet<Symbol> = FxHashSet::default();
    changed.insert(Symbol::intern_ipv4(DEV));
    store.checkpoint(&spec, &changed).unwrap();
    store.load().unwrap();

    fs::remove_dir_all(&dir).unwrap();
}

/// The DBSCAN fit keeps one row per distinct core value, so no `core|` row
/// of a periodic model in a trained snapshot repeats another's value. Floats
/// are written in shortest round-trip form, so equal text is equal bits.
#[test]
fn trained_snapshot_stores_each_core_value_once() {
    let p = Prepared::build_with(Scale::quick(), Parallelism::Off);
    let dir = temp_store("distinct-cores");
    let store = ModelStore::open(&dir).unwrap();
    store.save(&SnapshotSpec::new(&p.models)).unwrap();
    let (mut models, mut rows) = (0usize, 0usize);
    for (name, bytes) in snapshot_bytes(&dir) {
        if !name.starts_with("periodic@") {
            continue;
        }
        let text = String::from_utf8(bytes).unwrap();
        let mut values: FxHashSet<&str> = FxHashSet::default();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with("model|") {
                models += 1;
                values.clear();
            } else if let Some(core) = line.strip_prefix("core|") {
                rows += 1;
                let (_, value) = core.split_once('|').unwrap();
                assert!(
                    values.insert(value),
                    "{name}:{}: a core row repeats a value of its model",
                    n + 1
                );
            }
        }
    }
    assert_eq!(models, p.models.periodic.len());
    assert!(rows > 0, "no core rows in {models} models");
    fs::remove_dir_all(&dir).unwrap();
}
