//! `serve_clean` and `serve_faulty`: a monitor restored from a snapshot
//! judges uncontrolled days of the 49-device home, one hour of pcap bytes
//! at a time, checkpointing at the end of every simulated day.

use crate::fold::Profile;
use crate::inputs::{self, ServeInputs, FAULT_KINDS, SERVE_DAYS};
use crate::pipeline::{
    dir_bytes, fresh_copy, naming, open_store, serve_windows, setup_monitor, traced, Served,
};
use crate::report::{fold_rows, layer_values, ratio, Outcome, Tallies};
use crate::samples::{digest, Samples};
use crate::stats::{median, Best};
use crate::train::train_once;
use crate::{end_to_end, rss, Ctx};
use behaviot::{HealthConfig, Monitor, MonitorConfig};
use behaviot_obs::MemorySink;
use behaviot_sim::Catalog;
use std::net::Ipv4Addr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups in a row that make one `setup_s` sample, their least: one sample
/// before the first window and one at every timed pass, so that the
/// samples spread over the whole measurement.
const SETUP_REPS: usize = 2;

/// Number of leading windows that make up the first simulated day.
fn first_day(days: &ServeInputs) -> usize {
    days.windows.iter().take_while(|w| w.day == 0).count()
}

/// What a stretch of served windows is checked by: its deviations and its
/// ledger bytes.
fn judged(served: &Served, ledger: &str) -> u64 {
    digest(&(&served.day_devs, ledger))
}

/// Untraced serving for `budget` seconds: set-ups, a warm-up over the first
/// day (checked, not timed), then whole passes over `days`, each by a
/// monitor freshly restored from the snapshot in `models_dir` and
/// checkpointing into a fresh copy of it. A pass starts only while the
/// previous one's length would end it at most half a pass past the budget.
/// Every pass does the same work window by window, so each window and each
/// checkpoint is reported by its best time over the passes.
fn measure(
    ctx: &Ctx,
    models_dir: &Path,
    days: &ServeInputs,
    faulty: bool,
    rdns: &[(Ipv4Addr, String)],
    budget: f64,
) -> Result<Samples, String> {
    let mut s = Samples::default();
    if faulty && days.fault_kinds != FAULT_KINDS {
        s.problems.push(format!(
            "the fault plans placed {} of the {FAULT_KINDS} fault kinds",
            days.fault_kinds
        ));
    }
    let t0 = Instant::now();
    let models = open_store(models_dir)?;
    let mut least = Duration::MAX;
    for _ in 0..SETUP_REPS {
        least = least.min(setup_monitor(&models)?.1);
    }
    s.setup_s.push(least.as_secs_f64());
    let pass_dir = ctx.dir.join("pass");
    let pass = |windows: &[inputs::Window], s: &mut Samples| {
        let store = fresh_copy(models_dir, &pass_dir)?;
        let (mut monitor, dt) = setup_monitor(&models)?;
        let mut sink = MemorySink::new();
        let served = serve_windows(&mut monitor, windows, rdns, Some(&store), &mut sink, false);
        s.attempted += served.attempted;
        s.failed += served.failed;
        for f in served.failures.iter().take(5) {
            eprintln!("window failed: {f}");
        }
        Ok::<_, String>((served, sink.take(), dt))
    };

    let (warm, ledger, _) = pass(&days.windows[..first_day(days)], &mut s)?;
    s.first_day = judged(&warm, &ledger);
    let (mut windows, mut checkpoints) = (Best::default(), Best::default());
    let mut last_pass = 0.0;
    let mut pass_s = Vec::new();
    while pass_s.is_empty() || t0.elapsed().as_secs_f64() + last_pass / 2.0 <= budget {
        // The pass's own set-up is the last of the sample's.
        let mut least = Duration::MAX;
        for _ in 1..SETUP_REPS {
            least = least.min(setup_monitor(&models)?.1);
        }
        let t = Instant::now();
        let base = rss::restart_peak()?;
        let (served, ledger, dt) = pass(&days.windows, &mut s)?;
        s.rss_growth_mb.push(rss::peak()? - base);
        last_pass = t.elapsed().as_secs_f64();
        let d = digest(&ledger);
        if pass_s.is_empty() {
            s.digest = d;
        } else if d != s.digest {
            s.problems
                .push("two passes over the same windows wrote different ledgers".into());
        }
        pass_s.push(served.timed.as_secs_f64());
        s.setup_s.push(least.min(dt).as_secs_f64());
        s.op_ms.extend_from_slice(&served.day_ms);
        windows.add(&served.window_ms);
        checkpoints.add(&served.checkpoint_ms);
        s.records = served.ingest.records;
    }
    // A day's units: its windows and its checkpoint.
    s.unit_op = days.windows.iter().map(|w| w.day).collect();
    s.unit_op.extend(0..checkpoints.0.len());
    s.unit_best_ms = [&windows.0[..], &checkpoints.0].concat();
    s.window_best_ms = windows.0;
    let pass_s: Vec<String> = pass_s.iter().map(|t| format!("{t:.3}")).collect();
    eprintln!("timed seconds per pass: {}", pass_s.join(" "));
    Ok(s)
}

/// One measuring process of an untraced serving run: the days are
/// generated again from the seed, the snapshot is the parent's.
pub fn child(ctx: &Ctx, faulty: bool) -> Result<Samples, String> {
    let catalog = Catalog::standard();
    let days = inputs::serve(&catalog, ctx.seed, SERVE_DAYS, SERVE_DAYS, faulty)?;
    measure(
        ctx,
        &ctx.dir.join("models"),
        &days,
        faulty,
        &catalog.rdns_entries(),
        ctx.budget(),
    )
}

/// The `serve_clean` (`faulty == false`) and `serve_faulty` workloads;
/// `children` runs the untraced measurement in fresh processes.
pub fn run(
    ctx: &Ctx,
    faulty: bool,
    children: impl Fn() -> Result<Samples, String>,
) -> Result<Outcome, String> {
    let catalog = Catalog::standard();
    let rdns = catalog.rdns_entries();

    // Untimed preamble: train the deployed models, commit the snapshot the
    // monitor is restored from, generate the days to serve (after the lab
    // captures are dropped, to bound memory; only the first one when the
    // measuring processes generate their own), and record how a monitor
    // built in memory judges the first day.
    let t = Instant::now();
    let lab = inputs::lab(&catalog, inputs::DEPLOYMENT_SEED);
    let mut gen_s = t.elapsed().as_secs_f64();
    let models_dir = ctx.dir.join("models");
    let trained = train_once(
        &lab,
        &catalog,
        &naming(&rdns),
        &open_store(&models_dir)?,
        false,
    )?;
    drop(lab);
    let t = Instant::now();
    let n_days = if ctx.trace { SERVE_DAYS } else { 1 };
    let days = inputs::serve(&catalog, ctx.seed, n_days, SERVE_DAYS, faulty)?;
    gen_s += t.elapsed().as_secs_f64();
    let mut monitor = Monitor::new(trained.models, trained.system, MonitorConfig::default());
    monitor.enable_health(HealthConfig::default());
    let mut sink = MemorySink::new();
    let windows = &days.windows[..first_day(&days)];
    let reference = serve_windows(&mut monitor, windows, &rdns, None, &mut sink, false);
    let reference = judged(&reference, &sink.take());

    let s = if ctx.trace {
        measure(ctx, &models_dir, &days, faulty, &rdns, ctx.budget())?
    } else {
        children()?
    };
    let mut out = Outcome {
        attempted: s.attempted,
        failed: s.failed,
        problems: s.problems,
        ..Outcome::default()
    };
    // Output check: the restored monitor judged the first day exactly like
    // the monitor built in memory.
    if s.first_day != reference {
        out.problems.push(
            "the monitor restored from the snapshot judged the first day differently from the in-memory one"
                .into(),
        );
    }
    if !ctx.trace {
        out.metrics = end_to_end(&Samples {
            problems: Vec::new(),
            ..s
        })?;
        return Ok(out);
    }

    let pass_dir = ctx.dir.join("traced");
    let store = fresh_copy(&models_dir, &pass_dir)?;
    let models = open_store(&models_dir)?;
    let region = traced(|| -> Result<_, String> {
        let _span = behaviot_obs::tracer().span("op.pass");
        let (mut monitor, _) = setup_monitor(&models)?;
        let mut sink = MemorySink::new();
        let served = serve_windows(
            &mut monitor,
            &days.windows,
            &rdns,
            Some(&store),
            &mut sink,
            true,
        );
        Ok((served, sink.take()))
    });
    let (served, text) = region.value?;
    out.attempted += served.attempted;
    out.failed += served.failed;
    if digest(&text) != s.digest {
        out.problems
            .push("the traced pass wrote a different ledger from the untraced passes".into());
    }
    let truth = days.incidents.ledger_ground_truth();
    let pass = Profile::fold_region(&region.spans, region.wall_ns);
    let tallies = Tallies {
        snapshot_bytes: dir_bytes(&pass_dir),
        ..served.tallies(text.len(), &truth, &catalog)
    };
    let mut m = layer_values(&pass, &region.counters, &tallies);
    let overhead = median(&served.day_ms) / median(&s.op_ms) - 1.0;
    fold_rows(&mut m, &pass, region.wall_ns, overhead, &mut out.problems);
    m.insert("sim.gen_s", gen_s);
    m.insert("sim.label_s", trained.label.as_secs_f64());
    m.insert(
        "ops_failed_frac",
        ratio(out.failed as f64, out.attempted as f64),
    );
    eprintln!("-- traced serving pass --\n{}", pass.render());
    out.metrics = m;
    Ok(out)
}
