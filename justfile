# Recipes mirror scripts/; `just` is optional, the scripts are the source
# of truth for CI-less environments.

# rustfmt check + build + full tests + determinism (threads 2 and off) +
# alloc contracts + clippy -D warnings + rustdoc -D warnings
verify:
    scripts/verify.sh

# Three-seed chaos smoke: corrupted captures must ingest to exactly the
# plan's predicted survivors, within a 25% drop-fraction error budget
chaos:
    cargo run --release -q -p behaviot-bench --bin chaos -- --seeds 3 --max-drop-frac 0.25

# Full instrumented pipeline pass -> trace.json (Chrome Trace Event Format,
# open in https://ui.perfetto.dev) + metrics.jsonl (deterministic snapshot)
trace:
    cargo run --release -q -p behaviot-bench --bin obs_smoke -- --trace trace.json --metrics-out metrics.jsonl

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
