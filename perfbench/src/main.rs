//! Capture-to-ledger benchmark for the BehavIoT pipeline (see README.md).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_lab|serve_clean|serve_faulty --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human summary on stderr and, as the last line of stdout, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod fold;
mod inputs;
mod pipeline;
mod report;
mod rss;
mod samples;
mod serve;
mod stats;
mod train;

use samples::Samples;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

const USAGE: &str = "usage: behaviot-perfbench --workload train_lab|serve_clean|serve_faulty \
                     --seed N --seconds S --trace 0|1";

/// Processes an untraced run's measurement is split across, one after
/// another. Each starts from a fresh heap, so no one process's memory
/// layout sets a run's figures.
pub const PROCESSES: usize = 2;

/// What a workload run needs to know.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory of this run, removed at exit.
    pub dir: PathBuf,
    /// Index of a measuring process among its run's (0 in the parent).
    pub part: usize,
}

impl Ctx {
    /// Seconds of untraced measurement: the whole run, or half of it when
    /// a traced pass follows.
    pub fn budget(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

#[derive(Clone, Copy)]
enum Workload {
    TrainLab,
    ServeClean,
    ServeFaulty,
}

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a measuring process: the parent's scratch directory.
    child: Option<PathBuf>,
    part: usize,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut workload_name = String::new();
    let mut child = None;
    let mut part = 0;
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--child" => child = Some(PathBuf::from(value)),
            "--part" => part = value.parse().map_err(|e| format!("invalid --part: {e}"))?,
            "--workload" => {
                workload_name = value.clone();
                workload = Some(match value.as_str() {
                    "train_lab" => Workload::TrainLab,
                    "serve_clean" => Workload::ServeClean,
                    "serve_faulty" => Workload::ServeFaulty,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("invalid --seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("invalid --seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("invalid --trace {other:?}: expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        workload_name,
        child,
        part,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The end-to-end metrics of an untraced run. Timings other than set-up
/// come from per-unit best times (see [`stats::Best`]).
pub fn end_to_end(s: &Samples) -> Result<BTreeMap<&'static str, f64>, String> {
    let op_best_ms = s.op_best_ms();
    eprintln!(
        "samples: {} set-ups; {} operations timed; best times of {} units in {} operations, and of {} windows",
        s.setup_s.len(),
        s.op_ms.len(),
        s.unit_best_ms.len(),
        op_best_ms.len(),
        s.window_best_ms.len()
    );
    let best_s: f64 = op_best_ms.iter().sum::<f64>() / 1e3;
    Ok(BTreeMap::from([
        ("setup_s", stats::median(&s.setup_s)),
        ("op_p50_ms", stats::median(&op_best_ms)),
        ("window_p50_ms", stats::percentile(&s.window_best_ms, 0.5)?),
        ("window_p90_ms", stats::percentile(&s.window_best_ms, 0.9)?),
        ("records_per_s", s.records as f64 / best_s),
        ("peak_rss_growth_mb", stats::median(&s.rss_growth_mb)),
    ]))
}

/// Run the untraced measurement in `PROCESSES` fresh processes, one after
/// another, and pool their samples.
fn measure_in_children(args: &Args, dir: &std::path::Path) -> Result<Samples, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let seconds = (args.seconds / PROCESSES as f64).to_string();
    let mut parts = Vec::new();
    for part in 0..PROCESSES {
        let out = Command::new(&exe)
            .args([
                "--workload",
                &args.workload_name,
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--seconds", &seconds, "--trace", "0"])
            .args(["--part", &part.to_string(), "--child"])
            .arg(dir)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start a measuring process: {e}"))?;
        if !out.status.success() {
            return Err(format!("a measuring process failed ({})", out.status));
        }
        parts.push(Samples::parse(&String::from_utf8_lossy(&out.stdout))?);
    }
    Ok(Samples::pool(parts))
}

/// A measuring process: print the samples for the parent.
fn child_main(args: &Args, dir: PathBuf) {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: false,
        dir,
        part: args.part,
    };
    let samples = match args.workload {
        Workload::TrainLab => train::child(&ctx),
        Workload::ServeClean => serve::child(&ctx, false),
        Workload::ServeFaulty => serve::child(&ctx, true),
    };
    match samples {
        Ok(s) => print!("{}", s.render()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Some(dir) = args.child.clone() {
        return child_main(&args, dir);
    }
    let work = PathBuf::from(".bench_work");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: work.join(format!("run-{}", std::process::id())),
        part: 0,
    };
    let result = std::fs::create_dir_all(&ctx.dir)
        .map_err(|e| format!("cannot create {}: {e}", ctx.dir.display()))
        .and_then(|()| {
            let children = || measure_in_children(&args, &ctx.dir);
            match args.workload {
                Workload::TrainLab => train::run(&ctx, children),
                Workload::ServeClean => serve::run(&ctx, false, children),
                Workload::ServeFaulty => serve::run(&ctx, true, children),
            }
        });
    let _ = std::fs::remove_dir_all(&ctx.dir);
    // Succeeds only once no other run is using the directory.
    let _ = std::fs::remove_dir(&work);
    let line = result.and_then(|o| o.json(args.trace).map(|line| (o, line)));
    match line {
        Ok((outcome, line)) => {
            for (name, value) in &outcome.metrics {
                eprintln!("{name:<34} {value}");
            }
            for p in &outcome.problems {
                eprintln!("check failed: {p}");
            }
            println!("{line}");
            if !outcome.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
