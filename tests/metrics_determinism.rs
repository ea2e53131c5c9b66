//! Observability contracts over the full pipeline:
//!
//! 1. The deterministic metrics snapshot after a complete pipeline run is
//!    **byte-identical** under `Parallelism::Off`, `Fixed(2)`, and `Auto`.
//! 2. Tracing changes no experiment output: `table2`/`fig3` render
//!    identically with the tracer on and off, which — combined with
//!    `golden_parity` (which runs with the tracer off) — pins the golden
//!    outputs as observability-invariant. The metrics registry has no
//!    switch; it records in every run, the golden ones included.
//!
//! Everything lives in ONE `#[test]` fn: the metrics registry and tracer
//! are process-global, and sibling tests in the same binary run on
//! parallel threads — splitting this up would let one test's `reset()`
//! zero another's counters mid-run.

use behaviot_bench::{experiments, smoke, Prepared, Scale};
use behaviot_par::Parallelism;

fn tiny_scale() -> Scale {
    Scale {
        idle_days: 0.2,
        activity_reps: 4,
        routine_days: 1,
        uncontrolled_days: 1,
        seed: 0xB07,
    }
}

#[test]
fn snapshots_policy_invariant_and_observability_invisible() {
    let m = behaviot_obs::metrics();

    // --- 1. Byte-identical snapshots across thread policies -------------
    // Both renderings of the deterministic snapshot are pinned: the JSONL
    // form and the OpenMetrics text exposition served to scrapers.
    let mut snapshots = Vec::new();
    let mut expositions = Vec::new();
    let mut summaries = Vec::new();
    for par in [Parallelism::Off, Parallelism::Fixed(2), Parallelism::Auto] {
        m.reset();
        summaries.push(smoke::run_smoke(par));
        snapshots.push(m.snapshot().to_jsonl());
        expositions.push(behaviot_obs::openmetrics::render(&m.snapshot()));
    }
    assert_eq!(
        snapshots[0], snapshots[1],
        "Off vs Fixed(2) snapshots differ"
    );
    assert_eq!(snapshots[0], snapshots[2], "Off vs Auto snapshots differ");
    assert_eq!(
        expositions[0], expositions[1],
        "OpenMetrics text policy-variant"
    );
    assert_eq!(
        expositions[0], expositions[2],
        "OpenMetrics text policy-variant"
    );
    assert_eq!(summaries[0], summaries[1], "pipeline output policy-variant");
    assert_eq!(summaries[0], summaries[2], "pipeline output policy-variant");

    assert!(
        expositions[0].ends_with("# EOF\n"),
        "OpenMetrics exposition must be EOF-terminated"
    );

    // Every pipeline stage must have reported: the snapshot is the
    // cross-layer telemetry contract, not a grab bag.
    let snap = m.snapshot();
    for name in [
        "ingest.records_seen",
        "ingest.packets",
        "ingest.corrupt_frames",
        "flows.assembled",
        "events.user",
        "events.periodic",
        "events.aperiodic",
        "periodic.groups",
        "periodic.models",
        "dsp.period_detections",
        "forest.fits",
        "forest.trees",
        "forest.predictions",
        "pfsm.infers",
        "pfsm.states",
        "pfsm.transitions",
        "system.traces",
        "monitor.traces",
        "monitor.deviations",
        "par.maps",
        "par.items",
    ] {
        assert!(snap.counter(name).is_some(), "counter {name} missing");
    }
    for nonzero in [
        "ingest.records_seen",
        "flows.assembled",
        "periodic.models",
        "dsp.period_detections",
        "forest.fits",
        "forest.predictions",
        "pfsm.infers",
        "monitor.traces",
        "par.maps",
    ] {
        assert!(
            snap.counter(nonzero).unwrap() > 0,
            "counter {nonzero} is zero"
        );
    }
    assert!(
        snap.histogram("dsp.series_len")
            .is_some_and(|h| h.count > 0),
        "dsp.series_len histogram empty"
    );

    // --- 2. Tracing on/off changes no experiment output ------------------
    behaviot_obs::tracer().set_enabled(true);
    let p_on = Prepared::build_with(tiny_scale(), Parallelism::Fixed(2));
    let table2_on = experiments::table2(&p_on);
    let fig3_on = experiments::fig3(&p_on);
    assert!(
        !behaviot_obs::tracer().take_spans().is_empty(),
        "tracing enabled but no spans recorded"
    );
    behaviot_obs::tracer().set_enabled(false);
    let p_off = Prepared::build_with(tiny_scale(), Parallelism::Fixed(2));
    let table2_off = experiments::table2(&p_off);
    let fig3_off = experiments::fig3(&p_off);
    assert_eq!(table2_on, table2_off, "tracing changed table2");
    assert_eq!(fig3_on, fig3_off, "tracing changed fig3");
}
