//! **behaviot-store** — durable, versioned, schema-validated snapshots of
//! every model the BehavIoT pipeline produces.
//!
//! A snapshot is a directory of small pipe-separated text artifacts plus a
//! `MANIFEST` that pins the format version and the byte length and FxHash64
//! content hash of every artifact. The store guarantees:
//!
//! * **Atomicity** — artifact files are **content-addressed**
//!   (`<stem>-<fxhash64>.<ext>`), so a save never overwrites a file the
//!   committed manifest references with different bytes; each file is
//!   written to a `.tmp` sibling, fsynced, and `rename`d into place, the
//!   directory is fsynced, and only then is the manifest renamed in — the
//!   manifest rename is the *sole* commit point, so a crash (or power
//!   loss) at any instant mid-save leaves the previous snapshot loadable.
//!   Files from superseded snapshots are swept only after commit, and the
//!   sweep touches nothing but the store's own naming scheme.
//! * **Replay invariance** — floats use shortest-round-trip canonical text
//!   ([`format::fmt_f64`]), collections are sorted before rendering, and
//!   the PFSM is re-inferred deterministically from its persisted training
//!   traces. A restored [`behaviot::Monitor`] therefore continues the exact
//!   deviation stream of the uninterrupted run (`tests/store_replay.rs`).
//! * **Corruption detection, never panics** — any byte flip, insertion, or
//!   truncation in any artifact surfaces as a typed [`StoreError`] whose
//!   [`StoreError::artifact`] pinpoints the failing artifact (manifests
//!   store length + hash; parses are fully validated, down to each model's
//!   feature width, which must be [`behaviot::N_FEATURES`] for the model to
//!   serve a flow). A save refuses a model of any other width
//!   ([`StoreError::BadWidth`]), so it never writes a snapshot that no load
//!   accepts.
//! * **O(changed-devices) checkpoints** — [`ModelStore::checkpoint`]
//!   re-renders only the per-device artifacts whose device is in the
//!   caller's changed set, reusing the previous manifest entries (and
//!   on-disk files) for the rest.
//!
//! There is one format version, [`FORMAT_VERSION`]; a manifest declaring
//! any other version fails to load with [`StoreError::BadVersion`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod format;

mod artifacts;

use behaviot::{BehavIoT, HealthExport, Monitor, MonitorConfig, MonitorState, SystemModel};
use behaviot_intern::{FxHashMap, FxHashSet, FxHasher, Symbol};
use std::fmt;
use std::fs;
use std::hash::Hasher;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

/// The snapshot format version, the only one this build reads or writes.
/// Its manifest pins every artifact's byte length and content hash, so any
/// single-byte corruption is detected before parsing. In v3 a periodic
/// model's cluster is its core rows alone: `cluster|eps|dim` and one
/// `core|<row>` line per row.
pub const FORMAT_VERSION: u32 = 3;

const MANIFEST_FILE: &str = "MANIFEST";
const MANIFEST_MAGIC: &str = "behaviot-store";

/// Everything that can go wrong saving or loading a snapshot. Loads never
/// panic: corrupted, truncated, or hand-mangled snapshots all surface here,
/// and [`StoreError::artifact`] names the failing artifact when one is
/// known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem error reading or writing an artifact.
    Io {
        /// Artifact (or `MANIFEST`) being accessed.
        artifact: String,
        /// Stringified OS error.
        detail: String,
    },
    /// The manifest itself is malformed.
    BadManifest {
        /// 1-based manifest line.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The manifest declares a format version this build cannot read.
    BadVersion(u32),
    /// A required artifact is absent from the manifest.
    MissingArtifact {
        /// The missing artifact's name.
        artifact: String,
    },
    /// An artifact's bytes disagree with the manifest's recorded length or
    /// content hash.
    HashMismatch {
        /// The corrupted artifact.
        artifact: String,
    },
    /// A record inside an artifact failed validation.
    BadRecord {
        /// The artifact containing the record.
        artifact: String,
        /// 1-based line within the artifact.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// Two records claim the same logical key (model group, activity,
    /// device) — last-wins would mask a corrupted or hand-edited snapshot,
    /// so this is a hard error.
    Duplicate {
        /// The artifact containing the duplicate.
        artifact: String,
        /// The duplicated key.
        key: String,
    },
    /// A model to be saved contains a non-finite float — it is already
    /// corrupt in memory and must not be persisted.
    NonFinite {
        /// The artifact being rendered.
        artifact: String,
    },
    /// A model to be saved has a feature width other than
    /// [`behaviot::N_FEATURES`]. Every load refuses such a model, so the
    /// snapshot would never restore; it must not be persisted.
    BadWidth {
        /// The artifact being rendered.
        artifact: String,
        /// The model's feature width.
        width: usize,
    },
}

impl StoreError {
    /// The artifact this error pinpoints, when one is known.
    pub fn artifact(&self) -> Option<&str> {
        match self {
            StoreError::Io { artifact, .. }
            | StoreError::MissingArtifact { artifact }
            | StoreError::HashMismatch { artifact }
            | StoreError::BadRecord { artifact, .. }
            | StoreError::Duplicate { artifact, .. }
            | StoreError::NonFinite { artifact }
            | StoreError::BadWidth { artifact, .. } => Some(artifact),
            StoreError::BadManifest { .. } | StoreError::BadVersion(_) => None,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { artifact, detail } => write!(f, "io error on {artifact}: {detail}"),
            StoreError::BadManifest { line, reason } => {
                write!(f, "bad manifest (line {line}): {reason}")
            }
            StoreError::BadVersion(v) => write!(f, "unsupported snapshot format version {v}"),
            StoreError::MissingArtifact { artifact } => {
                write!(f, "required artifact {artifact} missing from manifest")
            }
            StoreError::HashMismatch { artifact } => {
                write!(f, "artifact {artifact} failed its integrity check")
            }
            StoreError::BadRecord {
                artifact,
                line,
                reason,
            } => write!(f, "bad record in {artifact} (line {line}): {reason}"),
            StoreError::Duplicate { artifact, key } => {
                write!(f, "duplicate key {key} in {artifact}")
            }
            StoreError::NonFinite { artifact } => {
                write!(f, "non-finite value while rendering {artifact}")
            }
            StoreError::BadWidth { artifact, width } => write!(
                f,
                "model of feature width {width} while rendering {artifact}; a snapshot holds only width {}",
                behaviot::N_FEATURES
            ),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(artifact: &str, e: std::io::Error) -> StoreError {
    StoreError::Io {
        artifact: artifact.to_string(),
        detail: e.to_string(),
    }
}

/// What to persist in a snapshot. The device models are mandatory; the
/// system model, monitor state, and health checkpoint are opt-in.
pub struct SnapshotSpec<'a> {
    /// The trained device behavior models.
    pub models: &'a BehavIoT,
    /// The system behavior model, if one was inferred.
    pub system: Option<&'a SystemModel>,
    /// Streaming-monitor configuration + exported state, for kill/restore.
    pub monitor: Option<(&'a MonitorConfig, MonitorState)>,
    /// Fleet health registry checkpoint, so restored monitors resume the
    /// per-device hysteresis state instead of re-learning it.
    pub health: Option<HealthExport>,
}

impl<'a> SnapshotSpec<'a> {
    /// Minimal spec: just the device models.
    pub fn new(models: &'a BehavIoT) -> Self {
        Self {
            models,
            system: None,
            monitor: None,
            health: None,
        }
    }
}

/// Everything a snapshot contained, reconstructed.
pub struct LoadedSnapshot {
    /// The device behavior models.
    pub models: BehavIoT,
    /// The system model, if persisted.
    pub system: Option<SystemModel>,
    /// Monitor configuration, if persisted.
    pub monitor_cfg: Option<MonitorConfig>,
    /// Monitor streaming state, if persisted.
    pub monitor_state: Option<MonitorState>,
    /// Fleet health registry checkpoint, if persisted.
    pub health: Option<HealthExport>,
}

impl LoadedSnapshot {
    /// Rebuild the streaming monitor, continuing exactly where the saved
    /// one left off. `None` when the snapshot carried no system model or no
    /// monitor artifact.
    pub fn into_monitor(self) -> Option<Monitor> {
        let system = self.system?;
        let cfg = self.monitor_cfg?;
        let state = self.monitor_state.unwrap_or_default();
        let mut monitor = Monitor::restore(self.models, system, cfg, state);
        if let Some(health) = self.health {
            monitor.restore_health(health);
        }
        Some(monitor)
    }
}

/// One artifact ready to hit the disk (or reused from the old manifest).
struct Entry {
    name: String,
    file: String,
    hash: u64,
    bytes: u64,
}

/// The snapshot directory handle.
pub struct ModelStore {
    root: PathBuf,
}

fn hash_bytes(b: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(b);
    h.finish()
}

/// Classification of a manifest artifact name. Unknown names are an error:
/// accepting them would let a corrupted *name* silently drop an optional
/// artifact from the load.
enum ArtifactKind {
    PeriodicCfg,
    PeriodicDevice(Ipv4Addr),
    UserCfg,
    UserDevice(Ipv4Addr),
    Names,
    System,
    Monitor,
    Health,
}

fn classify_artifact(name: &str) -> Option<ArtifactKind> {
    match name {
        "periodic.cfg" => Some(ArtifactKind::PeriodicCfg),
        "user.cfg" => Some(ArtifactKind::UserCfg),
        "names" => Some(ArtifactKind::Names),
        "system" => Some(ArtifactKind::System),
        "monitor" => Some(ArtifactKind::Monitor),
        "health" => Some(ArtifactKind::Health),
        _ => {
            if let Some(ip) = name.strip_prefix("periodic@") {
                return ip.parse().ok().map(ArtifactKind::PeriodicDevice);
            }
            if let Some(ip) = name.strip_prefix("user@") {
                return ip.parse().ok().map(ArtifactKind::UserDevice);
            }
            None
        }
    }
}

/// The on-disk stem + extension an artifact's files use (the content hash
/// goes between them: `<stem>-<fxhash64:016x>.<ext>`).
fn artifact_stem_ext(name: &str) -> (&str, &str) {
    match name {
        "periodic.cfg" => ("periodic", "cfg"),
        "user.cfg" => ("user", "cfg"),
        _ => (name, "tsv"),
    }
}

/// The logical artifact a store-written file name belongs to: the
/// content-addressed form `<stem>-<16 hex>.<ext>`. `None` for anything the
/// store would never write itself.
fn file_artifact_name(file: &str) -> Option<String> {
    let (stem, ext) = file.rsplit_once('.')?;
    let (stem, hash) = stem.rsplit_once('-')?;
    if hash.len() != 16 || !hash.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let name = if ext == "cfg" {
        format!("{stem}.cfg")
    } else {
        stem.to_string()
    };
    classify_artifact(&name)?;
    (artifact_stem_ext(&name) == (stem, ext)).then_some(name)
}

impl ModelStore {
    /// Open (creating if needed) a snapshot directory.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| io_err("<root>", e))?;
        Ok(Self { root })
    }

    /// The snapshot directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Does the directory hold a committed snapshot (a `MANIFEST`)? One
    /// that does either loads or fails [`Self::load`] with a
    /// [`StoreError`]; one that does not has never been saved to.
    pub fn has_snapshot(&self) -> bool {
        self.root.join(MANIFEST_FILE).exists()
    }

    /// Write a full snapshot (every artifact re-rendered).
    pub fn save(&self, spec: &SnapshotSpec<'_>) -> Result<(), StoreError> {
        self.write_snapshot(spec, None)
    }

    /// Incremental snapshot: per-device artifacts whose device symbol
    /// (`Symbol::intern_ipv4`) is *not* in `changed` are carried over from
    /// the previous manifest without being re-rendered, re-hashed, or
    /// re-written — the save cost is O(changed devices + globals), not
    /// O(fleet). Devices present in `changed` but absent from the spec are
    /// dropped from the manifest. Global artifacts are always re-rendered.
    pub fn checkpoint(
        &self,
        spec: &SnapshotSpec<'_>,
        changed: &FxHashSet<Symbol>,
    ) -> Result<(), StoreError> {
        self.write_snapshot(spec, Some(changed))
    }

    fn write_snapshot(
        &self,
        spec: &SnapshotSpec<'_>,
        changed: Option<&FxHashSet<Symbol>>,
    ) -> Result<(), StoreError> {
        let mut span = behaviot_obs::span!("store.save");
        let m = behaviot_obs::metrics();
        m.counter("store.saves").inc();

        // Previous manifest entries, reusable only for checkpoints.
        let old: FxHashMap<String, Entry> = match changed {
            Some(_) => self
                .read_manifest_entries()
                .map(|entries| entries.into_iter().map(|e| (e.name.clone(), e)).collect())
                .unwrap_or_default(),
            None => FxHashMap::default(),
        };
        let reusable = |device: Ipv4Addr, name: &str| -> Option<&Entry> {
            let changed = changed?;
            if changed.contains(&Symbol::intern_ipv4(device)) {
                return None;
            }
            old.get(name)
        };

        let mut entries: Vec<Entry> = Vec::new();
        let mut written = 0u64;
        let mut reused = 0u64;

        // -- global artifacts (always re-rendered) -----------------------
        let models = spec.models;
        let pc = artifacts::render_periodic_cfg(
            "periodic.cfg",
            models.periodic.config(),
            models.periodic.train_coverage,
        )?;
        entries.push(self.put("periodic.cfg", &pc)?);
        let uc = artifacts::render_user_cfg("user.cfg", models.user.confidence_threshold())?;
        entries.push(self.put("user.cfg", &uc)?);
        entries.push(self.put("names", &artifacts::render_names(&models.names))?);
        written += 3;
        if let Some(system) = spec.system {
            let body = artifacts::render_system("system", system)?;
            entries.push(self.put("system", &body)?);
            written += 1;
        }
        if let Some((cfg, state)) = &spec.monitor {
            let body = artifacts::render_monitor("monitor", cfg, state)?;
            entries.push(self.put("monitor", &body)?);
            written += 1;
        }
        if let Some(health) = &spec.health {
            let body = artifacts::render_health("health", health)?;
            entries.push(self.put("health", &body)?);
            written += 1;
        }

        // -- per-device artifacts (reused when unchanged) ----------------
        let mut periodic_by_dev: std::collections::BTreeMap<
            Ipv4Addr,
            Vec<&behaviot::PeriodicModel>,
        > = std::collections::BTreeMap::new();
        for pm in models.periodic.iter() {
            periodic_by_dev.entry(pm.device).or_default().push(pm);
        }
        for (device, mut dev_models) in periodic_by_dev {
            dev_models.sort_by_key(|pm| (pm.destination, pm.proto));
            let name = format!("periodic@{device}");
            if let Some(e) = reusable(device, &name) {
                entries.push(Entry::clone_of(e));
                reused += 1;
                continue;
            }
            let body = artifacts::render_periodic_device(&name, &dev_models)?;
            let e = self.put(&name, &body)?;
            entries.push(e);
            written += 1;
        }
        for (device, list) in models.user.device_models() {
            let name = format!("user@{device}");
            if let Some(e) = reusable(device, &name) {
                entries.push(Entry::clone_of(e));
                reused += 1;
                continue;
            }
            let body = artifacts::render_user_device(&name, list)?;
            let e = self.put(&name, &body)?;
            entries.push(e);
            written += 1;
        }

        // -- manifest (last: its rename is the sole commit point) --------
        // Make every staged artifact durable *before* the commit: a power
        // loss after the manifest rename must not be able to lose an
        // artifact rename that the manifest now depends on.
        self.sync_dir().map_err(|e| io_err("<root>", e))?;
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        let mut manifest = format!("{MANIFEST_MAGIC}|v{FORMAT_VERSION}\n");
        for e in &entries {
            manifest.push_str(&format!(
                "artifact|{}|{}|{:016x}|{}\n",
                e.name, e.file, e.hash, e.bytes
            ));
        }
        // The manifest protects the artifacts, and this line protects the
        // manifest — without it a byte flip inside an artifact *name* (say,
        // one digit of a device address) could redirect a hash check at
        // intact bytes and load the wrong model silently.
        manifest.push_str(&format!("check|{:016x}\n", hash_bytes(manifest.as_bytes())));
        self.write_atomic(MANIFEST_FILE, manifest.as_bytes())
            .map_err(|e| io_err(MANIFEST_FILE, e))?;
        self.sync_dir().map_err(|e| io_err("<root>", e))?;

        // Best-effort cleanup of files from superseded snapshots (e.g. a
        // device dropped between checkpoints, or a changed artifact's old
        // content-addressed file). Strictly after commit, and failure is
        // not an error: the manifest already excludes them.
        self.sweep_orphans(&entries);

        m.counter("store.artifacts_written").add(written);
        m.counter("store.artifacts_reused").add(reused);
        span.record("written", written as usize);
        span.record("reused", reused as usize);
        Ok(())
    }

    /// Stage one artifact under its content-addressed file name, returning
    /// its manifest entry. Because the name embeds the content hash, a
    /// file referenced by the committed manifest is only ever overwritten
    /// with byte-identical content — the staged file cannot corrupt the
    /// previous snapshot.
    fn put(&self, name: &str, body: &str) -> Result<Entry, StoreError> {
        let hash = hash_bytes(body.as_bytes());
        let (stem, ext) = artifact_stem_ext(name);
        let file = format!("{stem}-{hash:016x}.{ext}");
        self.write_atomic(&file, body.as_bytes())
            .map_err(|e| io_err(name, e))?;
        Ok(Entry {
            name: name.to_string(),
            file,
            hash,
            bytes: body.len() as u64,
        })
    }

    /// Write to a `.tmp` sibling, fsync, and rename into place, so `file`
    /// is only ever observed whole — even across power loss.
    fn write_atomic(&self, file: &str, bytes: &[u8]) -> std::io::Result<()> {
        let tmp = self.root.join(format!("{file}.tmp"));
        let dst = self.root.join(file);
        let mut f = fs::File::create(&tmp)?;
        std::io::Write::write_all(&mut f, bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, &dst)
    }

    /// Fsync the snapshot directory itself, making completed renames
    /// durable. No-op where directories cannot be opened for sync.
    fn sync_dir(&self) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            fs::File::open(&self.root)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            Ok(())
        }
    }

    /// Remove files from superseded snapshots. Runs only after the new
    /// manifest has committed, and deletes *only* unreferenced files
    /// matching the store's own naming scheme ([`file_artifact_name`], or
    /// a `.tmp` staging sibling of one) — a store opened on a directory
    /// containing foreign files never touches them.
    fn sweep_orphans(&self, entries: &[Entry]) {
        let referenced: FxHashSet<&str> = entries.iter().map(|e| e.file.as_str()).collect();
        let Ok(dir) = fs::read_dir(&self.root) else {
            return;
        };
        for d in dir.flatten() {
            let fname = d.file_name();
            let Some(fname) = fname.to_str() else {
                continue;
            };
            if fname == MANIFEST_FILE || referenced.contains(fname) {
                continue;
            }
            let base = fname.strip_suffix(".tmp").unwrap_or(fname);
            let ours = base == MANIFEST_FILE && base != fname;
            if ours || file_artifact_name(base).is_some() {
                let _ = fs::remove_file(d.path());
            }
        }
    }

    /// Parse and integrity-check the manifest into its artifact entries.
    fn read_manifest_entries(&self) -> Result<Vec<Entry>, StoreError> {
        let raw = fs::read_to_string(self.root.join(MANIFEST_FILE))
            .map_err(|e| io_err(MANIFEST_FILE, e))?;
        let Some(header) = raw.lines().next() else {
            return Err(StoreError::BadManifest {
                line: 1,
                reason: "empty manifest".to_string(),
            });
        };
        match header.split_once('|') {
            Some((MANIFEST_MAGIC, v)) => {
                let n: u32 = v
                    .strip_prefix('v')
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| StoreError::BadManifest {
                        line: 1,
                        reason: "bad version field".to_string(),
                    })?;
                if n != FORMAT_VERSION {
                    return Err(StoreError::BadVersion(n));
                }
            }
            _ => {
                return Err(StoreError::BadManifest {
                    line: 1,
                    reason: "bad magic".to_string(),
                })
            }
        }
        // The manifest ends with a `check|<hash>` line over everything
        // before it: the artifact hashes protect the artifact bytes, this
        // protects the manifest itself (artifact names included).
        let n_lines = raw.lines().count();
        let bad_check = || StoreError::BadManifest {
            line: n_lines,
            reason: "missing or malformed integrity check line".to_string(),
        };
        let trimmed = raw.strip_suffix('\n').unwrap_or(&raw);
        let (body, last) = trimmed
            .rfind('\n')
            .map(|p| (&raw[..p + 1], &trimmed[p + 1..]))
            .ok_or_else(bad_check)?;
        let expect = last
            .strip_prefix("check|")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(bad_check)?;
        if hash_bytes(body.as_bytes()) != expect {
            return Err(StoreError::BadManifest {
                line: n_lines,
                reason: "manifest failed its integrity check".to_string(),
            });
        }
        let mut entries = Vec::new();
        let mut seen: FxHashSet<String> = FxHashSet::default();
        for (i, line) in body.lines().enumerate().skip(1) {
            let ln = i + 1;
            let fields: Vec<&str> = line.split('|').collect();
            if fields.len() != 5 || fields[0] != "artifact" {
                return Err(StoreError::BadManifest {
                    line: ln,
                    reason: "bad artifact line".to_string(),
                });
            }
            let name = fields[1].to_string();
            if classify_artifact(&name).is_none() {
                return Err(StoreError::BadManifest {
                    line: ln,
                    reason: format!("unknown artifact name {name}"),
                });
            }
            if !seen.insert(name.clone()) {
                return Err(StoreError::BadManifest {
                    line: ln,
                    reason: format!("duplicate artifact {name}"),
                });
            }
            // The file field must be a plain name inside the store root —
            // a mangled manifest must not be able to read files elsewhere
            // on disk or shadow the manifest itself.
            let file = fields[2];
            if file.is_empty()
                || file == MANIFEST_FILE
                || file.contains('/')
                || file.contains('\\')
                || file.contains("..")
            {
                return Err(StoreError::BadManifest {
                    line: ln,
                    reason: format!("bad artifact file name {file}"),
                });
            }
            let hash = u64::from_str_radix(fields[3], 16).map_err(|_| StoreError::BadManifest {
                line: ln,
                reason: "bad content hash".to_string(),
            })?;
            let bytes: u64 = fields[4].parse().map_err(|_| StoreError::BadManifest {
                line: ln,
                reason: "bad byte count".to_string(),
            })?;
            entries.push(Entry {
                name,
                file: fields[2].to_string(),
                hash,
                bytes,
            });
        }
        Ok(entries)
    }

    /// Load and validate the snapshot. Every failure mode — missing files,
    /// corrupt bytes, malformed records, duplicate keys — returns a typed
    /// [`StoreError`]; this function never panics on untrusted input.
    pub fn load(&self) -> Result<LoadedSnapshot, StoreError> {
        let mut span = behaviot_obs::span!("store.load");
        behaviot_obs::metrics().counter("store.loads").inc();
        let read = behaviot_obs::span!("store.read");
        let entries = self.read_manifest_entries()?;
        span.record("artifacts", entries.len());

        // Read + integrity-check every artifact up front: a load either
        // sees a fully consistent snapshot or fails.
        let mut contents: FxHashMap<String, String> = FxHashMap::default();
        for e in &entries {
            let raw = fs::read(self.root.join(&e.file)).map_err(|err| io_err(&e.name, err))?;
            if raw.len() as u64 != e.bytes || hash_bytes(&raw) != e.hash {
                return Err(StoreError::HashMismatch {
                    artifact: e.name.clone(),
                });
            }
            let text = String::from_utf8(raw).map_err(|_| StoreError::BadRecord {
                artifact: e.name.clone(),
                line: 0,
                reason: "artifact is not valid UTF-8".to_string(),
            })?;
            contents.insert(e.name.clone(), text);
        }
        drop(read);
        for required in ["periodic.cfg", "user.cfg", "names"] {
            if !contents.contains_key(required) {
                return Err(StoreError::MissingArtifact {
                    artifact: required.to_string(),
                });
            }
        }

        let parse = behaviot_obs::span!("store.parse");
        let (pcfg, coverage) =
            artifacts::parse_periodic_cfg("periodic.cfg", &contents["periodic.cfg"])?;
        let confidence = artifacts::parse_user_cfg("user.cfg", &contents["user.cfg"])?;
        let names = artifacts::parse_names("names", &contents["names"])?;

        let mut periodic_models = Vec::new();
        let mut user_models: Vec<(Ipv4Addr, Vec<(Symbol, behaviot_forest::RandomForest)>)> =
            Vec::new();
        for e in &entries {
            match classify_artifact(&e.name) {
                Some(ArtifactKind::PeriodicDevice(ip)) => {
                    periodic_models.extend(artifacts::parse_periodic_device(
                        &e.name,
                        ip,
                        &contents[&e.name],
                    )?);
                }
                Some(ArtifactKind::UserDevice(ip)) => {
                    user_models.push((
                        ip,
                        artifacts::parse_user_device(&e.name, &contents[&e.name])?,
                    ));
                }
                _ => {}
            }
        }
        let periodic = behaviot::PeriodicModelSet::from_models(periodic_models, pcfg, coverage)
            .map_err(|(device, dest, proto)| StoreError::Duplicate {
                artifact: format!("periodic@{device}"),
                key: format!("{dest}|{proto}"),
            })?;
        let user =
            behaviot::UserActionModels::from_parts(user_models, confidence).map_err(|device| {
                StoreError::Duplicate {
                    artifact: format!("user@{device}"),
                    key: device.to_string(),
                }
            })?;
        drop(parse);

        let system = match contents.get("system") {
            Some(body) => Some(artifacts::parse_system("system", body)?),
            None => None,
        };
        let (monitor_cfg, monitor_state) = match contents.get("monitor") {
            Some(body) => {
                let (cfg, state) = artifacts::parse_monitor("monitor", body)?;
                (Some(cfg), Some(state))
            }
            None => (None, None),
        };
        let health = match contents.get("health") {
            Some(body) => Some(artifacts::parse_health("health", body)?),
            None => None,
        };

        Ok(LoadedSnapshot {
            models: BehavIoT {
                periodic,
                user,
                names,
            },
            system,
            monitor_cfg,
            monitor_state,
            health,
        })
    }
}

impl Entry {
    fn clone_of(e: &Entry) -> Entry {
        Entry {
            name: e.name.clone(),
            file: e.file.clone(),
            hash: e.hash,
            bytes: e.bytes,
        }
    }
}
