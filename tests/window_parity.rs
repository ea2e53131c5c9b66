//! Pins the serving window's two per-flow stages to their exhaustive
//! definitions.
//!
//! 1. Flow assembly: a digest over every field of every [`FlowRecord`] the
//!    assembler emits, in output order, for the simulator's idle, activity
//!    and routine captures plus one capture window corrupted by a
//!    [`FaultPlan`] and read back through `ingest_pcap_bytes`. The constant
//!    was recorded from the per-5-tuple assembler that kept one `Vec` per
//!    flow and stable-sorted the finished records; any change to a record,
//!    its order or its count changes the digest.
//! 2. User-action classification: `UserActionModels::classify`, which
//!    stops walking a forest once it cannot win, must return exactly what
//!    the exhaustive loop over every tree of every forest returns, on every
//!    flow of a simulated activity capture and a simulated routine capture.

use behaviot_bench::{Prepared, Scale};
use behaviot_flows::ingest::{ingest_pcap_bytes, IngestOptions};
use behaviot_flows::{assemble_flows, classify_frame, FlowConfig, FlowRecord, FrameClass};
use behaviot_intern::Symbol;
use behaviot_par::Parallelism;
use behaviot_sim::gen::{capture_to_frames, GenOptions};
use behaviot_sim::{self as sim, Catalog, FaultPlan, TrafficGenerator};
use std::collections::HashMap;
use std::net::Ipv4Addr;

const SEED: u64 = 0xA55E;

/// FNV-1a over bytes: written out here, not `DefaultHasher`, whose
/// algorithm may change between toolchains.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn record(&mut self, f: &FlowRecord) {
        self.bytes(&f.device.octets());
        self.bytes(&f.remote.octets());
        self.bytes(&f.device_port.to_le_bytes());
        self.bytes(&f.remote_port.to_le_bytes());
        self.bytes(&[f.proto.number()]);
        // The domain by its text: symbol ids depend on interning order.
        match f.domain {
            Some(d) => {
                self.u64(d.as_str().len() as u64 + 1);
                self.bytes(d.as_str().as_bytes());
            }
            None => self.u64(0),
        }
        self.u64(f.start.to_bits());
        self.u64(f.end.to_bits());
        self.u64(f.n_packets as u64);
        self.u64(f.total_bytes);
        for x in &f.features {
            self.u64(x.to_bits());
        }
    }

    fn flows(&mut self, flows: &[FlowRecord]) {
        self.u64(flows.len() as u64);
        for f in flows {
            self.record(f);
        }
    }
}

/// One 15-minute window of the standard testbed, corrupted by a seeded
/// fault plan and ingested through the recovery path.
fn corrupted_window(catalog: &Catalog) -> Vec<FlowRecord> {
    let cap =
        TrafficGenerator::new(catalog, SEED).generate(0.0, 900.0, &[], &GenOptions::default());
    let records = capture_to_frames(&cap, catalog);
    let mask: Vec<bool> = records
        .iter()
        .map(|r| matches!(classify_frame(r.ts, &r.data), FrameClass::Flow(_)))
        .collect();
    let plan = FaultPlan::generate(SEED, &records, &mask, 16);
    let ingested = ingest_pcap_bytes(&plan.corrupt(&records), &IngestOptions::default())
        .expect("a 16-fault window stays within the default ingest options");
    assert!(
        !ingested.report.is_clean(),
        "the plan must corrupt the window"
    );
    assemble_flows(&ingested.packets, &ingested.domains, &FlowConfig::default())
}

#[test]
fn assembled_flows_match_recorded_digest() {
    let catalog = Catalog::standard();
    let captures = [
        sim::idle_dataset(&catalog, SEED, 0.2),
        sim::activity_dataset(&catalog, SEED + 1, 4),
        sim::routine_dataset(&catalog, SEED + 2, 1),
    ];
    let mut digest = Fnv(0xcbf29ce484222325);
    let mut total = 0;
    for cap in &captures {
        let flows = assemble_flows(&cap.packets, &cap.domains, &FlowConfig::default());
        total += flows.len();
        digest.flows(&flows);
    }
    let corrupted = corrupted_window(&catalog);
    total += corrupted.len();
    digest.flows(&corrupted);
    assert_eq!(
        (total, digest.0),
        (255_373, 0x83b5_8915_f9bd_fd4b),
        "assembled flows diverged from the recorded (count, digest)"
    );
}

fn tiny_scale() -> Scale {
    Scale {
        idle_days: 0.2,
        activity_reps: 4,
        routine_days: 1,
        uncontrolled_days: 1,
        seed: SEED,
    }
}

#[test]
fn classify_equals_exhaustive_loop() {
    let p = Prepared::build_with(tiny_scale(), Parallelism::Off);
    let user = &p.models.user;
    let threshold = user.confidence_threshold();
    let by_device: HashMap<Ipv4Addr, _> = user.device_models().into_iter().collect();
    let (mut fired, mut silent) = (0usize, 0usize);
    for flow in p.activity.iter().chain(&p.routine).map(|l| &l.flow) {
        // The loop `classify` replaced: every tree of every forest.
        let mut want: Option<(Symbol, f64)> = None;
        for (act, forest) in by_device.get(&flow.device).copied().unwrap_or_default() {
            let prob = forest.predict_proba(&flow.features);
            if prob >= threshold && want.is_none_or(|(_, bp)| prob > bp) {
                want = Some((*act, prob));
            }
        }
        let got = user.classify(flow.device, &flow.features);
        assert_eq!(
            got.map(|(a, q)| (a, q.to_bits())),
            want.map(|(a, q)| (a, q.to_bits())),
            "flow of {} at {}",
            flow.device,
            flow.start
        );
        if got.is_some() {
            fired += 1;
        } else if by_device.contains_key(&flow.device) {
            silent += 1;
        }
    }
    assert!(
        fired > 0 && silent > 0,
        "both outcomes must occur: {fired} fired, {silent} silent on modelled devices"
    );
}
