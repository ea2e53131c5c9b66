# Recipes mirror scripts/; `just` is optional, the scripts are the source
# of truth for CI-less environments.

# Build + full tests + determinism (threads 2 and off) + clippy -D warnings
verify:
    scripts/verify.sh

# Serial-vs-parallel pipeline benches -> BENCH_pipeline.json
bench-pipeline:
    scripts/bench_pipeline.sh

# Ingest-path bench (string baseline vs interned zero-copy) -> BENCH_ingest.json
bench-ingest:
    scripts/bench_ingest.sh

# Fast smoke run of the ingest bench (tiny per-sample time budget; still
# asserts the two ingest paths agree) — the CI-friendly subset of bench-ingest
bench-smoke:
    CRITERION_SAMPLE_MS=5 cargo bench -p behaviot-bench --bench ingest

# Three-seed chaos smoke: corrupted captures must ingest to exactly the
# plan's predicted survivors, within a 25% drop-fraction error budget
chaos:
    cargo run --release -q -p behaviot-bench --bin chaos -- --seeds 3 --max-drop-frac 0.25

# Full instrumented pipeline pass -> trace.json (Chrome Trace Event Format,
# open in https://ui.perfetto.dev) + metrics.jsonl (deterministic snapshot)
trace:
    cargo run --release -q -p behaviot-bench --bin obs_smoke -- --trace trace.json --metrics-out metrics.jsonl

# Observability overhead bench (registry+tracer on vs off over the same
# ingest workload) -> BENCH_obs.json; enforces the ≤5% overhead bar
bench-obs:
    scripts/bench_obs.sh

# DSP kernel benches (pre-rewrite baseline vs current rfft/table kernels,
# plus 1/2/4/8-thread sweep curves) -> BENCH_dsp.json; enforces the ≥1.5x
# single-thread kernel speedup bar and host metadata on every row
bench-dsp:
    scripts/bench_dsp.sh

# Clustering-core benches (pre-rewrite baseline vs flat-matrix grid-indexed
# DBSCAN + alloc-free classify stream) -> BENCH_cluster.json; enforces the
# ≥1.5x speedup bar on both groups and host metadata on every row
bench-cluster:
    scripts/bench_cluster.sh

# Monitor serving-path benches (vendored pre-rewrite String pipeline vs the
# symbol-native zero-alloc window path, plus the multi-tenant thread sweep)
# -> BENCH_monitor.json; gates on byte-identical deviation streams before
# timing and enforces the ≥1.5x serving speedup bar
bench-monitor:
    scripts/bench_monitor.sh

# Durable-store contract suite: kill-and-restore replay invariance, byte
# fixed point, plus the round-trip and corruption proptests
store-replay:
    cargo test --release -q -p behaviot-harness --test store_replay
    cargo test --release -q -p behaviot-store --test roundtrip_proptests
    cargo test --release -q -p behaviot-store --test corruption_proptests

# Replay the §6.2 uncontrolled experiment through the audited serving path:
# per-device health timeline, fleet rollup, incident-script coverage, and a
# durable checkpoint in ./fleet-store (rerun to extend the timeline); the
# deviation ledger and OpenMetrics exposition land next to it
fleet-health:
    cargo run --release -q -p behaviot-bench --bin fleet-health -- \
      --store fleet-store --ledger-out fleet-store/ledger.jsonl \
      --openmetrics-out fleet-store/metrics.prom

# Ledger byte-determinism suite: audit trail identical across thread
# policies and across kill-and-restore through the store
ledger-determinism:
    cargo test --release -q -p behaviot-harness --test ledger_determinism

# Tier-1 gate only
test:
    cargo build --release && cargo test -q
