//! Round-trip properties for every persisted artifact: `save → load →
//! save` must be **byte-equal** for arbitrary (valid) models — including
//! empty model sets, subnormal and negative-zero floats. Models are
//! `N_FEATURES` (21) wide, the only width a load accepts. Built in the
//! style of `crates/cluster/tests/parity.rs`: models are constructed
//! directly through the `from_parts` validation APIs (no training), so the
//! generated space is much wider than anything the trainer produces.

use behaviot::{
    BehavIoT, HealthConfig, HealthExport, HealthState, MonitorConfig, MonitorState, PeriodicModel,
    PeriodicModelSet, PeriodicTrainConfig, SystemModel, SystemModelConfig, UserActionModels,
    N_FEATURES,
};
use behaviot_cluster::{DbscanModel, Standardizer};
use behaviot_forest::{DecisionTree, NodeSpec, RandomForest};
use behaviot_intern::Symbol;
use behaviot_net::Proto;
use behaviot_store::{format, ModelStore, SnapshotSpec, StoreError};
use proptest::prelude::*;
use std::collections::HashMap;
use std::fs;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "behaviot-store-rt-{tag}-{}-{}",
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

/// Any finite f64 from raw bits — keeps subnormals, -0.0, and extreme
/// exponents; folds inf/NaN onto an always-finite fallback.
fn finite(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        v
    } else {
        (bits >> 12) as f64 - 1e15
    }
}

/// Finite and strictly positive (periods, stds, eps).
fn positive(bits: u64) -> f64 {
    let v = finite(bits).abs();
    if v > 0.0 {
        v
    } else {
        1.0
    }
}

fn prob(bits: u64) -> f64 {
    (bits % 1_000_001) as f64 / 1_000_000.0
}

fn periodic_model(
    device: Ipv4Addr,
    dest: &str,
    proto: Proto,
    dim: usize,
    n_cores: usize,
    seeds: &[u64],
) -> PeriodicModel {
    let s = |i: usize| seeds[i % seeds.len()].wrapping_mul(i as u64 | 1);
    let std = Standardizer::from_params(
        (0..dim).map(|i| finite(s(i))).collect(),
        (0..dim).map(|i| positive(s(i + dim))).collect(),
    )
    .unwrap();
    let cores: Vec<f64> = (0..n_cores * dim).map(|i| finite(s(i + 7))).collect();
    let cluster = DbscanModel::from_parts(positive(s(3)), dim, cores).unwrap();
    let periods: Vec<f64> = (0..1 + seeds.len() % 3)
        .map(|i| positive(s(i + 11)))
        .collect();
    PeriodicModel::from_parts(
        device,
        Symbol::intern(dest),
        proto,
        periods,
        seeds.len(),
        std,
        cluster,
    )
    .unwrap()
}

fn forest(n_features: usize, seeds: &[u64]) -> RandomForest {
    let trees: Vec<DecisionTree> = (0..1 + seeds.len() % 3)
        .map(|t| {
            let s = seeds[t % seeds.len()];
            let nodes = vec![
                NodeSpec::Split {
                    feature: (s as usize) % n_features,
                    threshold: finite(s.rotate_left(17)),
                    left: 1,
                    right: 2,
                },
                NodeSpec::Leaf { prob: prob(s) },
                NodeSpec::Leaf {
                    prob: prob(s.rotate_left(31)),
                },
            ];
            DecisionTree::from_nodes(nodes, n_features).unwrap()
        })
        .collect();
    let oob = if seeds[0].is_multiple_of(2) {
        Some(prob(seeds[0]))
    } else {
        None
    };
    RandomForest::from_trees(trees, oob).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The float codec is bit-exact for every finite f64 (incl. -0.0 and
    /// subnormals) and refuses every non-finite one — the foundation of
    /// byte-stable snapshots.
    #[test]
    fn fmt_parse_f64_bit_exact(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        match format::fmt_f64(v) {
            Some(text) => {
                prop_assert!(v.is_finite());
                let back = format::parse_f64(&text).unwrap();
                prop_assert_eq!(back.to_bits(), v.to_bits(), "{}", text);
            }
            None => prop_assert!(!v.is_finite()),
        }
        // Forcing the exponent to all-ones makes it non-finite: always
        // rejected on the way out.
        let nf = f64::from_bits(bits | 0x7ff0_0000_0000_0000);
        prop_assert!(format::fmt_f64(nf).is_none());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// save → load → save is byte-equal for arbitrary valid model sets:
    /// varying device counts (including zero models), core counts, forest
    /// shapes, optional system/monitor/health artifacts, and full-spectrum
    /// float values.
    #[test]
    fn snapshot_roundtrip_byte_equal(
        seeds in proptest::collection::vec(any::<u64>(), 1..12),
        n_devices in 0usize..4,
        with_system in any::<bool>(),
        with_monitor in any::<bool>(),
        with_health in any::<bool>(),
    ) {
        let dim = N_FEATURES;
        let mut models = Vec::new();
        let mut users = Vec::new();
        let mut names = HashMap::new();
        for d in 0..n_devices {
            let ip = Ipv4Addr::new(10, 0, 0, 1 + d as u8);
            // A trailing \r is the nastiest string case: unescaped it would
            // be silently eaten by `str::lines` on load.
            names.insert(ip, format!("dev-{d}\r"));
            let n_cores = (seeds.len() + d) % 3;
            models.push(periodic_model(ip, &format!("p{d}.example|.com"), Proto::Tcp, dim, n_cores, &seeds));
            if d % 2 == 0 {
                models.push(periodic_model(ip, &format!("q{d}.example.com"), Proto::Udp, dim, 1, &seeds));
            }
            if d % 2 == 1 {
                users.push((ip, vec![
                    (Symbol::intern("on_off"), forest(dim, &seeds)),
                    (Symbol::intern("mo%tion"), forest(dim, &seeds)),
                ]));
            }
        }
        let periodic = PeriodicModelSet::from_models(
            models,
            PeriodicTrainConfig::default(),
            prob(seeds[0]),
        ).unwrap();
        let user = UserActionModels::from_parts(users, prob(seeds[seeds.len() - 1])).unwrap();
        let behaviot = BehavIoT { periodic, user, names };

        let system = SystemModel::from_traces(
            &[vec!["dev-1:on_off".to_string()], vec!["dev-1:mo%tion\r".to_string(), "dev-1:on_off".to_string()]],
            &SystemModelConfig::default(),
        );
        let state = MonitorState {
            last_seen: (0..n_devices)
                .map(|d| {
                    let ip = Ipv4Addr::new(10, 0, 0, 1 + d as u8);
                    ((ip, Symbol::intern(&format!("p{d}.example|.com")), Proto::Tcp), finite(seeds[d % seeds.len()]))
                })
                .collect(),
            absence_flagged: (0..n_devices / 2).map(|d| Ipv4Addr::new(10, 0, 0, 1 + d as u8)).collect(),
            long_flagged: vec![(Symbol::intern("a:x\r"), Symbol::intern("b:\r\ny"))],
            windows: n_devices as u64,
        };
        let cfg = MonitorConfig::default();
        let health = HealthExport {
            cfg: HealthConfig {
                degrade_drop_frac: prob(seeds[0]),
                recover_after: (seeds[0] % 5) as u32,
                stale_after: 1 + (seeds[0] % 7) as u32,
            },
            records: vec![
                (Symbol::intern("cam|era\r"), HealthState::Stale, 0, (seeds[0] % 9) as u32),
                (Symbol::intern("plug"), HealthState::Degraded, 2, 0),
            ],
        };
        let spec = SnapshotSpec {
            models: &behaviot,
            system: with_system.then_some(&system),
            monitor: with_monitor.then_some((&cfg, state)),
            health: with_health.then_some(health),
        };

        let dir_a = temp_dir("a");
        let store_a = ModelStore::open(&dir_a).unwrap();
        store_a.save(&spec).unwrap();
        let loaded = store_a.load().unwrap();
        prop_assert_eq!(loaded.models.periodic.len(), behaviot.periodic.len());
        prop_assert_eq!(loaded.system.is_some(), with_system);
        prop_assert_eq!(loaded.monitor_state.is_some(), with_monitor);
        prop_assert_eq!(loaded.health.is_some(), with_health);

        let dir_b = temp_dir("b");
        let store_b = ModelStore::open(&dir_b).unwrap();
        let respec = SnapshotSpec {
            models: &loaded.models,
            system: loaded.system.as_ref(),
            monitor: loaded.monitor_cfg.as_ref().map(|c| (c, loaded.monitor_state.clone().unwrap())),
            health: loaded.health.clone(),
        };
        store_b.save(&respec).unwrap();
        prop_assert_eq!(snapshot_bytes(&dir_a), snapshot_bytes(&dir_b));
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A model already corrupt in memory (NaN/inf smuggled into a public
    /// field) is refused at save time with `NonFinite` naming the artifact
    /// — it never reaches the disk.
    #[test]
    fn non_finite_models_refused_on_save(bits in any::<u64>(), in_monitor in any::<bool>()) {
        let nf = f64::from_bits(bits | 0x7ff0_0000_0000_0000);
        let dir = temp_dir("nf");
        let store = ModelStore::open(&dir).unwrap();
        let mut periodic = PeriodicModelSet::from_models(
            vec![],
            PeriodicTrainConfig::default(),
            0.5,
        ).unwrap();
        let user = UserActionModels::from_parts(vec![], 0.9).unwrap();
        let err = if in_monitor {
            let behaviot = BehavIoT { periodic, user, names: HashMap::new() };
            let cfg = MonitorConfig::default();
            let state = MonitorState {
                last_seen: vec![((Ipv4Addr::new(10, 0, 0, 1), Symbol::intern("d.com"), Proto::Tcp), nf)],
                absence_flagged: vec![],
                long_flagged: vec![],
                windows: 0,
            };
            let spec = SnapshotSpec {
                monitor: Some((&cfg, state)),
                ..SnapshotSpec::new(&behaviot)
            };
            store.save(&spec).map(|_| ()).unwrap_err()
        } else {
            periodic.train_coverage = nf;
            let behaviot = BehavIoT { periodic, user, names: HashMap::new() };
            store.save(&SnapshotSpec::new(&behaviot)).map(|_| ()).unwrap_err()
        };
        let expected = if in_monitor { "monitor" } else { "periodic.cfg" };
        prop_assert_eq!(err.artifact(), Some(expected), "{:?}", err);
        match err {
            StoreError::NonFinite { .. } => {}
            other => panic!("expected NonFinite, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
