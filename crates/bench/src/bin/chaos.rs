//! Chaos-ingest smoke and sweep harness.
//!
//! Default mode runs `--seeds N` (default 3) independent fault plans over a
//! simulated capture, pushes the corrupted bytes through the recovery-mode
//! ingest path, and enforces the differential contract: the surviving
//! packet stream must equal a clean ingest of exactly the records the plan
//! says survive, and the `IngestReport` counters must match the plan's
//! ground-truth expectations. Exits non-zero on any violation (including a
//! tripped `--max-drop-frac` error budget).
//!
//! `--sweep` instead runs one seed through an intensity ladder of fault
//! counts and reports drop fraction vs. deviation of the inferred event
//! table from the fault-free run (the EXPERIMENTS.md numbers).
use behaviot::{BehavIoT, TrainConfig, TrainingData};
use behaviot_bench::{flag_from_args, refuse_unknown_args};
use behaviot_flows::ingest::{ingest_pcap_bytes, IngestOptions};
use behaviot_flows::{assemble_flows, classify_frame, FlowConfig, FrameClass};
use behaviot_net::pcap::PcapRecord;
use behaviot_sim::gen::{capture_to_frames, GenOptions};
use behaviot_sim::{write_pcap, Catalog, FaultPlan, TrafficGenerator};
use std::collections::HashMap;
use std::net::Ipv4Addr;

const USAGE: &str = "usage: chaos [--seeds N] [--faults N] [--max-drop-frac F] [--sweep] \
[--trace PATH] [--metrics-out PATH] [--openmetrics-out PATH]";

struct Args {
    seeds: u64,
    faults: usize,
    max_drop_frac: Option<f64>,
    sweep: bool,
}

/// `flag`'s value parsed as a `T`; `what` names the expected form in the
/// error.
fn parsed<T: std::str::FromStr>(flag: &str, what: &str) -> Option<T> {
    flag_from_args(flag).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("{flag} requires {what}");
            std::process::exit(2);
        })
    })
}

fn parse_args() -> Args {
    let seeds = parsed("--seeds", "an integer").unwrap_or(3);
    let faults = parsed("--faults", "an integer").unwrap_or(24);
    let max_drop_frac: Option<f64> = parsed("--max-drop-frac", "a number in [0, 1]");
    if max_drop_frac.is_some_and(|v| !(0.0..=1.0).contains(&v)) {
        eprintln!("--max-drop-frac requires a number in [0, 1]");
        std::process::exit(2);
    }
    Args {
        seeds,
        faults,
        max_drop_frac,
        sweep: std::env::args().any(|a| a == "--sweep"),
    }
}

fn sim_records(catalog: &Catalog, seed: u64, secs: f64) -> Vec<PcapRecord> {
    let g = TrafficGenerator::new(catalog, seed);
    let cap = g.generate(0.0, secs, &[], &GenOptions::default());
    capture_to_frames(&cap, catalog)
}

fn flow_mask(records: &[PcapRecord]) -> Vec<bool> {
    records
        .iter()
        .map(|r| matches!(classify_frame(r.ts, &r.data), FrameClass::Flow(_)))
        .collect()
}

/// One seeded chaos round: corrupt, ingest, enforce the differential
/// contract. Returns false (after printing why) on any violation.
fn run_seed(catalog: &Catalog, seed: u64, faults: usize, max_drop_frac: Option<f64>) -> bool {
    let records = sim_records(catalog, 0xC4A0 ^ seed, 1500.0);
    let mask = flow_mask(&records);
    let plan = FaultPlan::generate(seed, &records, &mask, faults);

    let opts = IngestOptions { max_drop_frac };
    let corrupted = match ingest_pcap_bytes(&plan.corrupt(&records), &opts) {
        Ok(i) => i,
        Err(e) => {
            println!("[seed {seed}] FAIL: {e}");
            return false;
        }
    };
    if !plan.expected.matches(&corrupted.report) {
        println!(
            "[seed {seed}] FAIL: counters diverge from plan\n  expected {:?}\n  actual {}",
            plan.expected, corrupted.report
        );
        return false;
    }

    let reference = ingest_pcap_bytes(
        &write_pcap(&plan.surviving_records(&records)),
        &IngestOptions::default(),
    )
    .expect("clean reference ingest must not error");
    if !reference.report.is_clean() {
        println!(
            "[seed {seed}] FAIL: reference ingest not clean: {}",
            reference.report
        );
        return false;
    }
    if corrupted.packets != reference.packets {
        println!(
            "[seed {seed}] FAIL: packet stream diverges ({} vs {} packets)",
            corrupted.packets.len(),
            reference.packets.len()
        );
        return false;
    }

    println!(
        "[seed {seed}] ok: {} records, {} faults, {}, {} packets survive",
        records.len(),
        plan.faults.len(),
        corrupted.report.drop_summary(corrupted.records_seen),
        corrupted.packets.len()
    );
    println!("  {}", corrupted.report);
    true
}

/// Per-device event counts of a model run over one ingested stream.
fn event_counts(
    models: &BehavIoT,
    flows: &[behaviot_flows::FlowRecord],
) -> HashMap<Ipv4Addr, usize> {
    let mut counts = HashMap::new();
    for ev in models.infer_events(flows) {
        *counts.entry(ev.device).or_insert(0) += 1;
    }
    counts
}

/// Intensity ladder: drop fraction vs deviation of the inferred event
/// table from the fault-free run.
fn run_sweep(catalog: &Catalog, seed: u64, max_drop_frac: Option<f64>) {
    let records = sim_records(catalog, 0xC4A0 ^ seed, 1500.0);
    let mask = flow_mask(&records);
    let fc = FlowConfig::default();

    let clean = ingest_pcap_bytes(&write_pcap(&records), &IngestOptions::default())
        .expect("clean ingest must not error");
    let clean_flows = assemble_flows(&clean.packets, &clean.domains, &fc);
    let names: HashMap<_, _> = (0..catalog.devices.len())
        .map(|i| (catalog.device_ip(i), catalog.devices[i].name.clone()))
        .collect();
    let training = TrainingData::from_flows(clean_flows.clone(), std::iter::empty(), names);
    let models = BehavIoT::train(&training, &TrainConfig::default());
    let clean_counts = event_counts(&models, &clean_flows);
    let clean_total: usize = clean_counts.values().sum();

    println!(
        "chaos sweep: seed {seed}, {} records, {} clean events",
        records.len(),
        clean_total
    );
    println!(
        "{:>8} {:>10} {:>10} {:>8} {:>10}",
        "faults", "dropped", "drop_frac", "events", "deviation"
    );
    for intensity in [0usize, 8, 16, 32, 64, 128] {
        let plan = FaultPlan::generate(seed, &records, &mask, intensity);
        let opts = IngestOptions { max_drop_frac };
        let ingested = match ingest_pcap_bytes(&plan.corrupt(&records), &opts) {
            Ok(i) => i,
            Err(e) => {
                println!("{intensity:>8} budget exceeded: {e}");
                continue;
            }
        };
        let flows = assemble_flows(&ingested.packets, &ingested.domains, &fc);
        let counts = event_counts(&models, &flows);
        let total: usize = counts.values().sum();
        let deviation: usize = clean_counts
            .keys()
            .chain(counts.keys())
            .collect::<std::collections::HashSet<_>>()
            .into_iter()
            .map(|d| {
                clean_counts
                    .get(d)
                    .copied()
                    .unwrap_or(0)
                    .abs_diff(counts.get(d).copied().unwrap_or(0))
            })
            .sum();
        println!(
            "{:>8} {:>10} {:>9.4}% {:>8} {:>9.4}%",
            plan.faults.len(),
            ingested.report.dropped_records(),
            ingested.report.drop_frac(ingested.records_seen) * 100.0,
            total,
            100.0 * deviation as f64 / clean_total.max(1) as f64
        );
    }
}

fn main() {
    refuse_unknown_args(
        USAGE,
        &["--seeds", "--faults", "--max-drop-frac"],
        &["--sweep"],
    );
    let obs = behaviot_bench::ObsSession::from_args();
    let args = parse_args();
    let catalog = Catalog::standard();
    if args.sweep {
        run_sweep(&catalog, 1, args.max_drop_frac);
        obs.finish();
        return;
    }
    let mut ok = true;
    for seed in 1..=args.seeds {
        ok &= run_seed(&catalog, seed, args.faults, args.max_drop_frac);
    }
    obs.finish();
    if !ok {
        std::process::exit(1);
    }
    println!(
        "chaos: all {} seeds upheld the differential contract",
        args.seeds
    );
}
