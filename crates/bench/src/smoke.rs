//! One full pipeline pass touching every instrumented stage — the workload
//! behind `--bin obs_smoke`, the metrics-determinism test, and the
//! trace-smoke step of `scripts/verify.sh`.
//!
//! Stages exercised (and the spans/metrics they emit): pcap ingest
//! (`ingest.*`), flow assembly (`flows.*`), periodic
//! training with period detection (`periodic.*`, `dsp.*`), forest training
//! and prediction (`forest.*`), event inference (`events.*`), and PFSM
//! refinement (`system.*`, `pfsm.*`), and one monitor window over the live
//! serving path (`monitor.*`). Every number in the returned summary
//! is policy-invariant, so the summary — like the deterministic metrics
//! snapshot — is byte-identical under every [`Parallelism`] setting.

use crate::prep::{Prepared, Scale};
use behaviot::{
    HealthConfig, Monitor, MonitorConfig, SystemModel, SystemModelConfig, WindowIngest,
};
use behaviot_flows::ingest::{ingest_pcap_bytes, IngestOptions};
use behaviot_flows::{assemble_flows, FlowConfig};
use behaviot_obs::{LedgerSink, NullSink};
use behaviot_par::Parallelism;
use behaviot_sim::gen::{capture_to_frames, GenOptions};
use behaviot_sim::{write_pcap, Catalog, TrafficGenerator};

/// Dataset scale for the smoke pipeline: small enough for CI, large enough
/// that every stage does real work (periodic groups form, forests train).
fn smoke_scale() -> Scale {
    Scale {
        idle_days: 0.2,
        activity_reps: 4,
        routine_days: 1,
        uncontrolled_days: 1,
        seed: 0xB07,
    }
}

/// Run the full instrumented pipeline once under `par` and return a
/// one-line summary. Deterministic across thread policies.
pub fn run_smoke(par: Parallelism) -> String {
    run_smoke_audited(par, &mut NullSink)
}

/// [`run_smoke`] with the audit surface attached: the monitor window runs
/// through `process_window_audited` with health tracking enabled and the
/// window's ingest-gate counters in scope, so `--ledger-out` captures a
/// real ledger (window header + deviations + health transitions). The
/// summary line — and the ledger bytes — stay policy-invariant.
pub fn run_smoke_audited(par: Parallelism, sink: &mut dyn LedgerSink) -> String {
    // 1. Capture → pcap bytes → lossy-tolerant ingest (ingest.pcap).
    let catalog = Catalog::standard();
    let gen = TrafficGenerator::new(&catalog, 0x0B5);
    let cap = gen.generate(0.0, 1800.0, &[], &GenOptions::default());
    let records = capture_to_frames(&cap, &catalog);
    let ingested = ingest_pcap_bytes(&write_pcap(&records), &IngestOptions::default())
        .expect("smoke capture must ingest cleanly");

    // 2. Flow assembly (flows.assemble).
    let flows = assemble_flows(&ingested.packets, &ingested.domains, &FlowConfig::default());

    // 3. Model training: periodic models (periodic.train → dsp.period_detect)
    // and user-action forests (forest.fit).
    let prepared = Prepared::build_with(smoke_scale(), par);

    // 4. Event inference over the ingested flows (events.infer,
    // forest.predictions); publish any clamp accounting.
    let (events, report) = prepared.models.infer_events_with_report(&flows, par);
    report.emit_metrics();

    // 5. System-level PFSM over the routine dataset's user events
    // (system.pfsm → pfsm.infer). Routine flows carry real user actions, so
    // the trace log is non-trivial.
    let routine_flows: Vec<_> = prepared.routine.iter().map(|l| l.flow.clone()).collect();
    let (routine_events, routine_report) = prepared
        .models
        .infer_events_with_report(&routine_flows, par);
    routine_report.emit_metrics();
    let system = SystemModel::build(
        &routine_events,
        &prepared.names,
        &SystemModelConfig::default(),
    );

    // 6. One monitor window over the routine flows — the symbol-native
    // serving path (monitor.window span, monitor.traces / monitor.deviations
    // counters), audited: health tracking on, the pcap ingest's gate
    // counters in scope, ledger records into `sink`. The window path is
    // serial by contract, so the deviation count is policy-invariant like
    // everything else here.
    let mut monitor = Monitor::new(
        prepared.models.clone(),
        system.clone(),
        MonitorConfig::default(),
    );
    monitor.enable_health(HealthConfig::default());
    let w_start = routine_flows
        .iter()
        .map(|f| f.start)
        .fold(f64::MAX, f64::min);
    let w_end = routine_flows.iter().map(|f| f.end).fold(f64::MIN, f64::max);
    let ingest = WindowIngest {
        report: &ingested.report,
        records_total: ingested.packets.len() as u64 + ingested.report.dropped_records(),
    };
    let deviations =
        monitor.process_window_audited(&routine_flows, w_start, w_end, Some(ingest), sink);

    format!(
        "obs smoke: {} packets -> {} flows, {} events, {} routine events, pfsm {} states / {} transitions, {} monitor deviations",
        ingested.packets.len(),
        flows.len(),
        events.len(),
        routine_events.len(),
        system.pfsm.n_states(),
        system.pfsm.n_transitions(),
        deviations.len(),
    )
}
