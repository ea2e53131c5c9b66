//! Differential fault-tolerance battery (ISSUE PR 3).
//!
//! Ten seeded [`FaultPlan`]s rewrite a clean simulated capture into
//! corrupted bytes together with a ground-truth prediction of exactly which
//! records must still parse. The contract proven here:
//!
//! 1. the recovery-mode ingest of the corrupted bytes yields *precisely*
//!    the packets of a clean ingest of the surviving records — no more, no
//!    fewer, none altered;
//! 2. the [`IngestReport`] counters equal the plan's expectations;
//! 3. the downstream event table inferred from the corrupted stream is
//!    byte-identical under `Parallelism::Off` and `Parallelism::Fixed(2)`;
//! 4. a clean capture reports an all-zero `IngestReport`.

use behaviot::{BehavIoT, TrainConfig, TrainingData};
use behaviot_flows::ingest::{ingest_pcap_bytes, IngestOptions};
use behaviot_flows::{assemble_flows, classify_frame, FlowConfig, FlowRecord, FrameClass};
use behaviot_net::pcap::PcapRecord;
use behaviot_par::Parallelism;
use behaviot_sim::gen::{capture_to_frames, GenOptions};
use behaviot_sim::{write_pcap, Catalog, FaultPlan, TrafficGenerator};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

fn sim_records(catalog: &Catalog, seed: u64) -> Vec<PcapRecord> {
    let g = TrafficGenerator::new(catalog, seed);
    let cap = g.generate(0.0, 900.0, &[], &GenOptions::default());
    capture_to_frames(&cap, catalog)
}

fn flow_mask(records: &[PcapRecord]) -> Vec<bool> {
    records
        .iter()
        .map(|r| matches!(classify_frame(r.ts, &r.data), FrameClass::Flow(_)))
        .collect()
}

fn device_names(catalog: &Catalog) -> HashMap<Ipv4Addr, String> {
    (0..catalog.devices.len())
        .map(|i| (catalog.device_ip(i), catalog.devices[i].name.clone()))
        .collect()
}

/// Background-only model trained once on a clean capture; enough for the
/// event-table differential, which only needs deterministic inference.
fn train_model(catalog: &Catalog) -> BehavIoT {
    let records = sim_records(catalog, 0xBEEF);
    let clean = ingest_pcap_bytes(&write_pcap(&records), &IngestOptions::default())
        .expect("clean ingest must not error");
    let flows = assemble_flows(&clean.packets, &clean.domains, &FlowConfig::default());
    let training = TrainingData::from_flows(flows, std::iter::empty(), device_names(catalog));
    BehavIoT::train(&training, &TrainConfig::default())
}

/// Render per-device event counts into a stable, comparable table string.
fn event_table(models: &BehavIoT, flows: &[FlowRecord], par: Parallelism) -> String {
    let mut per_device: BTreeMap<Ipv4Addr, (usize, usize, usize)> = BTreeMap::new();
    for ev in models.infer_events_with(flows, par) {
        let slot = per_device.entry(ev.device).or_insert((0, 0, 0));
        match ev.kind {
            behaviot::EventKind::User { .. } => slot.0 += 1,
            behaviot::EventKind::Periodic { .. } => slot.1 += 1,
            _ => slot.2 += 1,
        }
    }
    let mut out = String::new();
    for (device, (user, periodic, other)) in per_device {
        out.push_str(&format!(
            "{device} user={user} periodic={periodic} other={other}\n"
        ));
    }
    out
}

#[test]
fn clean_capture_reports_all_zero() {
    let catalog = Catalog::standard();
    let records = sim_records(&catalog, 0x0C1EA);
    let mask = flow_mask(&records);
    let ingested = ingest_pcap_bytes(&write_pcap(&records), &IngestOptions::default())
        .expect("clean ingest must not error");
    assert!(
        ingested.report.is_clean(),
        "clean capture must produce an all-zero report, got {}",
        ingested.report
    );
    assert_eq!(ingested.records_seen, records.len() as u64);
    assert_eq!(
        ingested.packets.len(),
        mask.iter().filter(|&&f| f).count(),
        "every flow-class frame of a clean capture must survive"
    );
}

#[test]
fn ten_seeded_plans_uphold_differential_contract() {
    let catalog = Catalog::standard();
    let models = train_model(&catalog);
    let fc = FlowConfig::default();

    for seed in 1..=10u64 {
        let records = sim_records(&catalog, 0xD1FF ^ seed);
        let mask = flow_mask(&records);
        let plan = FaultPlan::generate(seed, &records, &mask, 24);
        assert!(
            plan.faults.len() >= 12,
            "seed {seed}: plan placed only {} of 24 requested faults",
            plan.faults.len()
        );

        let corrupted = ingest_pcap_bytes(&plan.corrupt(&records), &IngestOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed}: lossy ingest errored: {e}"));
        assert!(
            plan.expected.matches(&corrupted.report),
            "seed {seed}: counters diverge from plan\n  expected {:?}\n  actual {}",
            plan.expected,
            corrupted.report
        );

        let reference = ingest_pcap_bytes(
            &write_pcap(&plan.surviving_records(&records)),
            &IngestOptions::default(),
        )
        .unwrap_or_else(|e| panic!("seed {seed}: reference ingest errored: {e}"));
        assert!(
            reference.report.is_clean(),
            "seed {seed}: reference ingest must be clean, got {}",
            reference.report
        );
        assert_eq!(
            corrupted.packets, reference.packets,
            "seed {seed}: corrupted ingest must equal clean-minus-dropped"
        );

        // Downstream differential: identical flows, identical event table,
        // and the table itself is byte-identical across thread policies.
        let flows_c = assemble_flows(&corrupted.packets, &corrupted.domains, &fc);
        let flows_r = assemble_flows(&reference.packets, &reference.domains, &fc);
        assert_eq!(
            flows_c.len(),
            flows_r.len(),
            "seed {seed}: flow count diverged"
        );

        let table_off = event_table(&models, &flows_c, Parallelism::Off);
        let table_two = event_table(&models, &flows_c, Parallelism::Fixed(2));
        assert_eq!(
            table_off, table_two,
            "seed {seed}: event table differs between Off and Fixed(2)"
        );
        let table_ref = event_table(&models, &flows_r, Parallelism::Off);
        assert_eq!(
            table_off, table_ref,
            "seed {seed}: corrupted event table differs from clean reference"
        );
    }
}

#[test]
fn error_budget_fails_loudly_on_heavy_corruption() {
    let catalog = Catalog::standard();
    let records = sim_records(&catalog, 0xFEE1);
    let mask = flow_mask(&records);
    let plan = FaultPlan::generate(99, &records, &mask, 64);
    let strict = IngestOptions {
        max_drop_frac: Some(0.0),
    };
    let err = ingest_pcap_bytes(&plan.corrupt(&records), &strict)
        .expect_err("a zero error budget must reject any corruption");
    assert!(
        err.to_string().contains("ingest error budget exceeded"),
        "unexpected error: {err}"
    );
}
