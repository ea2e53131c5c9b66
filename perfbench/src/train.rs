//! `train_lab`: labeled lab captures, as pcap bytes, to a committed model
//! snapshot.

use crate::fold::Profile;
use crate::inputs::{self, LabCapture, LabInputs, SERVE_DAYS};
use crate::pipeline::{
    call, dir_bytes, ingest_and_assemble, naming, net_probe, open_store, serve_windows,
    setup_monitor, traced, IngestTally, NetTally,
};
use crate::report::{fold_rows, layer_values, ratio, Outcome, Tallies};
use crate::samples::{digest, Samples};
use crate::stats::{median, Best};
use crate::{end_to_end, rss, Ctx};
use behaviot::system::SystemModelConfig;
use behaviot::{
    BehavIoT, HealthConfig, Monitor, MonitorConfig, MonitorState, SystemModel, TrainConfig,
    TrainingData,
};
use behaviot_flows::DomainTable;
use behaviot_obs::MemorySink;
use behaviot_par::Parallelism;
use behaviot_sim::{label_flows, Catalog, TruthLabel};
use behaviot_store::{ModelStore, SnapshotSpec};
use std::net::Ipv4Addr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// One training run's products and timings.
pub struct Trained {
    pub models: BehavIoT,
    pub system: SystemModel,
    /// Ingest + assembly latency of each one-hour capture window.
    pub window_ms: Vec<f64>,
    /// Labeled pcap bytes to committed snapshot, `label_flows` excluded.
    pub train: Duration,
    /// The steps of `train` after the last window, in milliseconds:
    /// training, routine events, system model, save.
    pub fit_ms: [f64; 4],
    /// `label_flows`, timed apart.
    pub label: Duration,
    pub ingest: IngestTally,
    pub net: NetTally,
    pub bursts: u64,
}

/// Train the device and system models from the lab captures and save them
/// to `store`. With `probe`, each window's bytes are first read by the
/// reader probe, outside the timing.
pub fn train_once(
    lab: &LabInputs,
    catalog: &Catalog,
    naming: &DomainTable,
    store: &ModelStore,
    probe: bool,
) -> Result<Trained, String> {
    let _span = behaviot_obs::tracer().span("op.train");
    let mut window_ms = Vec::with_capacity(lab.windows.len());
    let mut windows_time = Duration::ZERO;
    let mut ingest = IngestTally::default();
    let mut net = NetTally::default();
    let (mut idle, mut activity, mut routine) = (Vec::new(), Vec::new(), Vec::new());
    let mut current = None;
    let mut names = naming.clone();
    for (kind, w) in &lab.windows {
        // Each capture is its own recording with its own naming knowledge.
        if current != Some(*kind) {
            names = naming.clone();
            current = Some(*kind);
        }
        if probe {
            net_probe(&w.bytes, &mut net);
        }
        let t0 = Instant::now();
        let (flows, _, _) = {
            let _span = behaviot_obs::tracer().span("op.window");
            ingest_and_assemble(&w.bytes, &mut names, &mut ingest)?
        };
        let dt = t0.elapsed();
        windows_time += dt;
        window_ms.push(dt.as_secs_f64() * 1e3);
        match kind {
            LabCapture::Idle => idle.extend(flows),
            LabCapture::Activity => activity.extend(flows),
            LabCapture::Routine => routine.extend(flows),
        }
    }
    let bursts = (idle.len() + activity.len() + routine.len()) as u64;

    // Ground truth from the generator: not part of the program.
    let (labeled, label) = call("sim.label_flows", || {
        label_flows(&activity, &lab.activity_truth, catalog, 0.75)
    });

    let cfg = TrainConfig {
        parallelism: Parallelism::Off,
        ..TrainConfig::default()
    };
    let (models, train_dt) = call("call.train", || {
        let samples = labeled.iter().map(|l| {
            let act = match &l.label {
                Some(TruthLabel::User(a)) => Some(a.as_str()),
                _ => None,
            };
            (&l.flow, act)
        });
        let data = TrainingData::from_flows(idle, samples, lab.names.clone());
        BehavIoT::train(&data, &cfg)
    });
    let (events, events_dt) = call("call.infer_events", || {
        models.infer_events_with(&routine, Parallelism::Off)
    });
    let (system, system_dt) = call("call.system_build", || {
        SystemModel::build(&events, &models.names, &SystemModelConfig::default())
    });
    let (saved, save_dt) = call("call.save", || {
        store.save(&SnapshotSpec {
            system: Some(&system),
            monitor: Some((&MonitorConfig::default(), MonitorState::default())),
            ..SnapshotSpec::new(&models)
        })
    });
    saved.map_err(|e| format!("save failed: {e}"))?;
    let fit = [train_dt, events_dt, system_dt, save_dt];
    Ok(Trained {
        models,
        system,
        window_ms,
        train: windows_time + fit.iter().sum::<Duration>(),
        fit_ms: fit.map(|dt| dt.as_secs_f64() * 1e3),
        label,
        ingest,
        net,
        bursts,
    })
}

/// Set-up samples timed for `setup_s` before each training run, so that
/// they spread over the whole measurement; each is the least of
/// `SETUP_BATCH` set-ups in a row: one set-up takes tens of microseconds,
/// so a single interruption would set a mean.
const SETUP_SAMPLES: usize = 20;
const SETUP_BATCH: usize = 25;

fn manifest(dir: &Path) -> Result<String, String> {
    std::fs::read_to_string(dir.join("MANIFEST"))
        .map_err(|e| format!("cannot read the manifest in {}: {e}", dir.display()))
}

/// The inputs of a `train_lab` run: the lab captures to train on.
struct Inputs {
    catalog: Catalog,
    rdns: Vec<(Ipv4Addr, String)>,
    lab: LabInputs,
    gen_s: f64,
}

fn generate(seed: u64) -> Inputs {
    let catalog = Catalog::standard();
    let t = Instant::now();
    let lab = inputs::lab(&catalog, inputs::lab_seed(seed));
    Inputs {
        rdns: catalog.rdns_entries(),
        gen_s: t.elapsed().as_secs_f64(),
        catalog,
        lab,
    }
}

/// Untraced training for `budget` seconds: training runs, each after its
/// set-ups, while the previous run's length would end the next one at most
/// half a run past the budget. Every run does the same work, so each window
/// and each step after the windows are reported by their best times over
/// the runs. Returns the samples and the first run, whose snapshot stays in
/// the directory `op-0`.
fn measure(ctx: &Ctx, inp: &Inputs, budget: f64) -> Result<(Samples, Trained), String> {
    let mut s = Samples::default();
    let t0 = Instant::now();
    let mut first: Option<(Trained, String)> = None;
    let (mut windows, mut fit) = (Best::default(), Best::default());
    let mut last_run = 0.0;
    while s.op_ms.is_empty() || t0.elapsed().as_secs_f64() + last_run / 2.0 <= budget {
        // Set-up is opening the run's store directory and building the
        // naming table.
        let mut names = DomainTable::new();
        for _ in 0..SETUP_SAMPLES {
            let mut least = Duration::MAX;
            for _ in 0..SETUP_BATCH {
                let t = Instant::now();
                open_store(&ctx.dir)?;
                names = naming(&inp.rdns);
                least = least.min(t.elapsed());
            }
            s.setup_s.push(least.as_secs_f64());
        }
        let dir = ctx.dir.join(format!("op-{}", s.attempted));
        let store = open_store(&dir)?;
        s.attempted += 1;
        let base = rss::restart_peak()?;
        let tr = match catch_unwind(AssertUnwindSafe(|| {
            train_once(&inp.lab, &inp.catalog, &names, &store, false)
        })) {
            Ok(Ok(tr)) => tr,
            Ok(Err(e)) => return Err(e),
            Err(_) => return Err(format!("training run {} panicked", s.attempted)),
        };
        let growth = rss::peak()? - base;
        last_run = tr.train.as_secs_f64();
        s.op_ms.push(tr.train.as_secs_f64() * 1e3);
        s.rss_growth_mb.push(growth);
        windows.add(&tr.window_ms);
        fit.add(&tr.fit_ms);
        s.records = tr.ingest.records;
        let m = manifest(&dir)?;
        match &first {
            None => first = Some((tr, m)),
            Some((_, m0)) => {
                if *m0 != m {
                    s.problems.push(
                        "training runs over the same captures committed different snapshots".into(),
                    );
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
    // One operation: the windows and the steps after them.
    s.unit_best_ms = [&windows.0[..], &fit.0].concat();
    s.unit_op = vec![0; s.unit_best_ms.len()];
    s.window_best_ms = windows.0;
    let (first, manifest0) = first.expect("the loop runs at least once");
    s.digest = digest(&manifest0);
    Ok((s, first))
}

/// The restore check on the first run's snapshot: a monitor restored
/// from it must judge the first uncontrolled day exactly like the monitor
/// built in memory from the same models. Returns the failed checks.
fn restore_check(ctx: &Ctx, inp: &Inputs, first: Trained) -> Result<Vec<String>, String> {
    let check_day = inputs::serve(&inp.catalog, ctx.seed, 1, SERVE_DAYS, false)?;
    let dir = ctx.dir.join("op-0");
    let store = open_store(&dir)?;
    let (mut restored, _) = setup_monitor(&store)?;
    let mut memory = Monitor::new(first.models, first.system, MonitorConfig::default());
    memory.enable_health(HealthConfig::default());
    let (mut a, mut b) = (MemorySink::new(), MemorySink::new());
    let windows = &check_day.windows;
    let mem = serve_windows(&mut memory, windows, &inp.rdns, None, &mut a, false);
    let rest = serve_windows(
        &mut restored,
        windows,
        &inp.rdns,
        Some(&store),
        &mut b,
        false,
    );
    let mut problems: Vec<String> = mem
        .failures
        .iter()
        .chain(&rest.failures)
        .map(|f| format!("restore check: {f}"))
        .collect();
    if mem.day_devs != rest.day_devs || a.take() != b.take() {
        problems.push(
            "a monitor restored from the snapshot judged the first day differently from the in-memory one"
                .into(),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(problems)
}

/// One measuring process of an untraced `train_lab` run; the first one
/// also makes the restore check.
pub fn child(ctx: &Ctx) -> Result<Samples, String> {
    let inp = generate(ctx.seed);
    let (mut s, first) = measure(ctx, &inp, ctx.budget())?;
    if ctx.part == 0 {
        s.problems.extend(restore_check(ctx, &inp, first)?);
    }
    Ok(s)
}

/// The `train_lab` workload; `children` runs the untraced measurement in
/// fresh processes.
pub fn run(ctx: &Ctx, children: impl Fn() -> Result<Samples, String>) -> Result<Outcome, String> {
    if !ctx.trace {
        let s = children()?;
        return Ok(Outcome {
            attempted: s.attempted,
            failed: s.failed,
            metrics: end_to_end(&s)?,
            problems: s.problems,
        });
    }
    let inp = generate(ctx.seed);
    let (s, first) = measure(ctx, &inp, ctx.budget())?;
    let mut out = Outcome {
        attempted: s.attempted + 1,
        failed: s.failed,
        problems: s.problems,
        ..Outcome::default()
    };
    out.problems.extend(restore_check(ctx, &inp, first)?);
    let dir = ctx.dir.join("traced");
    let store = open_store(&dir)?;
    let names = naming(&inp.rdns);
    let region = traced(|| train_once(&inp.lab, &inp.catalog, &names, &store, true));
    let tr = region.value?;
    if digest(&manifest(&dir)?) != s.digest {
        out.problems
            .push("the traced training run committed a different snapshot".into());
    }
    let pass = Profile::fold_region(&region.spans, region.wall_ns);
    let tallies = Tallies {
        net_records: tr.net.records,
        net_resyncs: tr.net.resyncs,
        net_resync_skipped_bytes: tr.net.resync_skipped_bytes,
        ingest_records: tr.ingest.records,
        ingest_dropped: tr.ingest.dropped,
        bursts: tr.bursts,
        snapshot_bytes: dir_bytes(&dir),
        ..Tallies::default()
    };
    let mut m = layer_values(&pass, &region.counters, &tallies);
    let overhead = tr.train.as_secs_f64() * 1e3 / median(&s.op_ms) - 1.0;
    fold_rows(&mut m, &pass, region.wall_ns, overhead, &mut out.problems);
    m.insert("sim.gen_s", inp.gen_s);
    m.insert("sim.label_s", tr.label.as_secs_f64());
    m.insert(
        "ops_failed_frac",
        ratio(out.failed as f64, out.attempted as f64),
    );
    eprintln!("-- traced training run --\n{}", pass.render());
    out.metrics = m;
    Ok(out)
}
