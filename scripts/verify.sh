#!/usr/bin/env bash
# Repo verification gate: rustfmt (the tree must be `cargo fmt`-clean),
# build, full test suite, the parallel-determinism contract under an
# explicit thread count and under `off`, the allocation contracts, the
# PFSM inference and Table 8 feature digests, the argument smokes
# (fleet-health and table2 refuse a misspelt flag), the fleet-health
# store smokes (distinct core rows, refusal of a corrupt store,
# continuation), clippy with warnings denied on every workspace crate,
# rustdoc with warnings denied (dangling doc links fail), and the parity
# references the rewritten DSP and clustering cores are checked against.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> rustfmt: the workspace is formatted"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release --all-targets

echo "==> perfbench (outside the workspace) still builds against the library APIs"
cargo check --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench unit tests"
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test (full suite)"
cargo test --release -q

echo "==> determinism: BEHAVIOT_THREADS=2"
BEHAVIOT_THREADS=2 cargo test --release -q -p behaviot-harness --test parallel_determinism

echo "==> determinism: BEHAVIOT_THREADS=off"
BEHAVIOT_THREADS=off cargo test --release -q -p behaviot-harness --test parallel_determinism

echo "==> fault tolerance: seeded chaos differential battery"
cargo test --release -q -p behaviot-harness --test fault_tolerance
cargo test --release -q -p behaviot-net --test recovery_proptests

echo "==> chaos smoke: 3 seeds through the corrupted-ingest contract"
cargo run --release -q -p behaviot-bench --bin chaos -- --seeds 3 --max-drop-frac 0.25

echo "==> metrics determinism: snapshots identical under off/fixed/auto"
cargo test --release -q -p behaviot-harness --test metrics_determinism

echo "==> alloc contract: steady-state classify performs zero heap allocations"
cargo test --release -q -p behaviot --test classify_alloc

echo "==> alloc contract: frame classification (TCP/UDP/ARP/corrupt TCP) allocates nothing"
cargo test --release -q -p behaviot-flows --test classify_frame_alloc

echo "==> alloc contract: flow assembly allocates per buffer doubling, not per flow"
cargo test --release -q -p behaviot-flows --test assemble_alloc

echo "==> alloc contract: steady-state monitor windows (plain + audited) allocate nothing"
cargo test --release -q -p behaviot --test monitor_alloc

echo "==> PFSM digest: inference over a seeded corpus of trace logs matches the recorded models"
cargo test --release -q -p behaviot-pfsm --test infer_digest

echo "==> feature digest: the Table 8 kernel over a seeded corpus of bursts matches the recorded bits"
cargo test --release -q -p behaviot-flows --test extract_digest

echo "==> monitor parity: symbol-native serving path matches the String pipeline byte-for-byte"
cargo test --release -q -p behaviot-harness --test monitor_parity

echo "==> store: replay-invariant contract suite (kill/restore, fixed point)"
cargo test --release -q -p behaviot-harness --test store_replay

echo "==> store: corrupt-load smoke (byte-flip/insert/truncate proptests never panic)"
cargo test --release -q -p behaviot-store --test corruption_proptests
cargo test --release -q -p behaviot-store --test roundtrip_proptests
cargo test --release -q -p behaviot-store --test load_contracts

echo "==> ledger determinism: audit bytes identical across policies and kill/restore"
cargo test --release -q -p behaviot-harness --test ledger_determinism

echo "==> trace smoke: obs_smoke must emit every stage's spans + metrics"
obs_tmp="$(mktemp -d)"
trap 'rm -rf "$obs_tmp"' EXIT
cargo run --release -q -p behaviot-bench --bin obs_smoke -- \
  --trace "$obs_tmp/trace.json" --metrics-out "$obs_tmp/metrics.jsonl"
python3 - "$obs_tmp/trace.json" "$obs_tmp/metrics.jsonl" <<'EOF'
import json, sys

events = json.load(open(sys.argv[1]))
spans = {ev["name"] for ev in events}
need_spans = {
    "ingest.pcap", "flows.assemble", "prep.build", "periodic.train",
    "dsp.period_detect", "forest.fit", "events.infer", "system.pfsm",
    "pfsm.infer", "monitor.window",
}
missing = need_spans - spans
assert not missing, f"trace missing spans: {sorted(missing)}"

# Refinement builds its abstract partition graph once, then once more
# after each split: a count, so it holds on any host.
for ev in events:
    if ev["name"] == "pfsm.infer":
        a = ev["args"]
        assert a["graphs"] <= a["splits"] + 1, (
            f"pfsm.infer built {a['graphs']} graphs for {a['splits']} splits "
            f"({a['queries']} queries)"
        )

metrics = {json.loads(l)["metric"] for l in open(sys.argv[2]) if l.strip()}
need_prefixes = {
    "ingest.", "flows.", "events.", "periodic.", "dsp.", "forest.",
    "pfsm.", "system.", "par.", "cluster.", "monitor.",
}
bare = {p for p in need_prefixes if not any(m.startswith(p) for m in metrics)}
assert not bare, f"metrics missing stage prefixes: {sorted(bare)}"
print(f"trace smoke: {len(spans)} span names, {len(metrics)} metrics ok")
EOF

echo "==> argument smoke: fleet-health refuses a misspelt flag before any work"
status=0
cargo run --release -q -p behaviot-bench --bin fleet-health -- \
  --quick --stor "$obs_tmp/misspelt" > "$obs_tmp/misspelt.txt" 2> "$obs_tmp/misspelt.err" || status=$?
[ "$status" -eq 2 ] || {
  echo "fleet-health --stor exited $status, not 2:"
  cat "$obs_tmp/misspelt.err"
  exit 1
}
grep -q 'unknown argument "--stor"' "$obs_tmp/misspelt.err" || {
  echo "fleet-health --stor did not name the unknown argument:"
  cat "$obs_tmp/misspelt.err"
  exit 1
}
[ ! -e "$obs_tmp/misspelt" ] || {
  echo "fleet-health --stor created $obs_tmp/misspelt"
  exit 1
}
echo "argument smoke: --stor refused with exit 2, nothing created"

echo "==> argument smoke: an experiment binary refuses a misspelt flag before any work"
status=0
timeout 10 cargo run --release -q -p behaviot-bench --bin table2 -- \
  --quik > "$obs_tmp/quik.txt" 2> "$obs_tmp/quik.err" || status=$?
[ "$status" -eq 2 ] || {
  echo "table2 --quik exited $status, not 2:"
  cat "$obs_tmp/quik.err"
  exit 1
}
grep -q 'unknown argument "--quik"' "$obs_tmp/quik.err" || {
  echo "table2 --quik did not name the unknown argument:"
  cat "$obs_tmp/quik.err"
  exit 1
}
echo "argument smoke: table2 --quik refused with exit 2"

echo "==> health smoke: fleet-health replay with ledger + OpenMetrics artifacts, saved to a store"
cargo run --release -q -p behaviot-bench --bin fleet-health -- \
  --quick --days 6 --threads 2 --store "$obs_tmp/store" \
  --ledger-out "$obs_tmp/ledger.jsonl" --openmetrics-out "$obs_tmp/metrics.prom" \
  > "$obs_tmp/fleet.txt"
python3 - "$obs_tmp/fleet.txt" "$obs_tmp/ledger.jsonl" <<'EOF'
import json, re, sys

# The report must end in full incident coverage: every scripted §6.2 case
# left a matching health transition or held bad state on its device.
report = open(sys.argv[1]).read()
m = re.search(r"covered (\d+)/(\d+) scripted incidents", report)
assert m, "fleet-health report lacks the coverage line"
covered, total = int(m.group(1)), int(m.group(2))
assert total > 0 and covered == total, f"incident coverage {covered}/{total}"
assert "fleet rollup" in report, "fleet-health report lacks the rollup"

# Ledger lint: every line is a JSON record of a known family, carrying a
# never-decreasing window sequence number. Each window header counts the
# deviation and health records of its seq; each deviation's kind is the
# metric of its evidence cause (a trace's event count is the number of
# labels in its subject); each health reason is a known tag.
metric_of = {
    "gap": "periodic", "absence": "periodic", "outage": "periodic",
    "trace": "short-term", "transition": "long-term",
}
reasons = {
    "deviation:periodic", "deviation:short-term", "deviation:long-term",
    "ingest-drops", "stale", "recovered",
}
kinds, last_seq, headers, tally = {}, -1, {}, {}
for line in open(sys.argv[2]):
    rec = json.loads(line)
    kind = rec["record"]
    assert kind in {"window", "deviation", "health"}, f"unknown record {kind}"
    kinds[kind] = kinds.get(kind, 0) + 1
    seq = rec["seq"]
    assert seq >= last_seq, f"seq regressed: {line.strip()}"
    last_seq = seq
    if kind == "window":
        assert seq not in headers, f"second header for seq {seq}"
        headers[seq] = (rec["deviations"], rec["transitions"])
        continue
    assert seq in headers, f"record before its window header: {line.strip()}"
    counts = tally.setdefault(seq, [0, 0])
    if kind == "deviation":
        counts[0] += 1
        evidence = rec["evidence"]
        cause = evidence["cause"]
        assert cause in metric_of, cause
        assert rec["kind"] == metric_of[cause], f"{cause} evidence on a {rec['kind']} deviation"
        if cause == "trace":
            labels = len(rec["subject"].split(" -> "))
            assert evidence["events"] == labels, f"trace of {labels} labels: {line.strip()}"
    else:
        counts[1] += 1
        assert rec["reason"] in reasons, f"unknown health reason: {line.strip()}"
for seq, counted in headers.items():
    assert counted == tuple(tally.get(seq, (0, 0))), f"window {seq} header {counted} vs records {tally.get(seq)}"
for kind in ("window", "deviation", "health"):
    assert kinds.get(kind), f"ledger has no {kind} records ({kinds})"
print(f"health smoke: covered {covered}/{total}, ledger {kinds} ok")
EOF

echo "==> store lint: no periodic model stores a core value twice"
python3 - "$obs_tmp/store" <<'EOF'
import glob, os, sys

# Floats are written in shortest round-trip form, so equal text is equal
# bits: a repeated `core|` value within one `model|` group is a copy the
# DBSCAN fit should have dropped.
files = sorted(glob.glob(os.path.join(sys.argv[1], "periodic@*.tsv")))
assert files, "the saved store holds no periodic@ artifact"
models = rows = 0
for path in files:
    values = set()
    for n, line in enumerate(open(path), 1):
        if line.startswith("model|"):
            models += 1
            values = set()
        elif line.startswith("core|"):
            rows += 1
            value = line.rstrip("\n").split("|", 1)[1]
            assert value not in values, f"{os.path.basename(path)}:{n}: core row repeats a value of its model"
            values.add(value)
print(f"store lint: {len(files)} periodic@ artifacts, {models} models, {rows} distinct core rows ok")
EOF

echo "==> store smoke: fleet-health refuses a corrupt store and leaves it as it was"
cp -r "$obs_tmp/store" "$obs_tmp/corrupt"
python3 - "$obs_tmp/corrupt" <<'EOF'
import glob, sys

path = sorted(glob.glob(sys.argv[1] + "/periodic@*.tsv"))[0]
data = bytearray(open(path, "rb").read())
data[len(data) // 2] ^= 0x01
open(path, "wb").write(bytes(data))
EOF
store_state() { (cd "$1" && find . -printf '%p %s %T@\n' | sort && find . -type f -exec sha256sum {} + | sort); }
corrupt_before="$(store_state "$obs_tmp/corrupt")"
if cargo run --release -q -p behaviot-bench --bin fleet-health -- \
  --quick --days 1 --threads 2 --store "$obs_tmp/corrupt" \
  > "$obs_tmp/corrupt.txt" 2> "$obs_tmp/corrupt.err"; then
  echo "fleet-health exited 0 on a store with a flipped byte"
  exit 1
fi
grep -q "cannot restore the monitor from $obs_tmp/corrupt" "$obs_tmp/corrupt.err" || {
  echo "fleet-health failed on the corrupt store without naming it:"
  cat "$obs_tmp/corrupt.err"
  exit 1
}
[ "$(store_state "$obs_tmp/corrupt")" = "$corrupt_before" ] || {
  echo "fleet-health wrote to a store it could not load"
  exit 1
}
echo "store smoke: corrupt store refused and left as it was: $(tail -n 1 "$obs_tmp/corrupt.err")"

echo "==> store smoke: a 1-day continuation restores the saved monitor"
cargo run --release -q -p behaviot-bench --bin fleet-health -- \
  --quick --days 1 --threads 2 --store "$obs_tmp/store" \
  > "$obs_tmp/fleet-next.txt" 2> "$obs_tmp/fleet-next.err"
grep -q "restored monitor from $obs_tmp/store" "$obs_tmp/fleet-next.err" || {
  echo "the continuation did not restore the saved monitor:"
  cat "$obs_tmp/fleet-next.err"
  exit 1
}
grep -q "over days 6\.\.7 ==" "$obs_tmp/fleet-next.txt" || {
  echo "the continuation did not resume at day 6:"
  head -n 1 "$obs_tmp/fleet-next.txt"
  exit 1
}
echo "store smoke: the continuation restored the monitor and resumed at day 6"

echo "==> OpenMetrics lint: exposition well-formed and EOF-terminated"
python3 - "$obs_tmp/metrics.prom" <<'EOF'
import re, sys

lines = open(sys.argv[1]).read().splitlines()
assert lines and lines[-1] == "# EOF", "exposition must end with # EOF"
name_re = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
typed = set()
samples = 0
for line in lines[:-1]:
    if line.startswith("# TYPE "):
        name, kind = line[len("# TYPE "):].rsplit(" ", 1)
        assert name_re.match(name), f"bad metric name: {name}"
        assert kind in {"counter", "gauge", "histogram"}, f"bad type: {kind}"
        assert name not in typed, f"duplicate TYPE for {name}"
        typed.add(name)
        continue
    if line.startswith("# HELP ") or line == "# EOF":
        continue
    assert not line.startswith("#"), f"unexpected comment: {line}"
    m = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$", line)
    assert m, f"malformed sample line: {line}"
    family = re.sub(r"_(total|bucket|sum|count)$", "", m.group(1))
    assert family in typed, f"sample before its TYPE: {line}"
    samples += 1
assert samples > 0, "exposition has no samples"
print(f"openmetrics lint: {len(typed)} families, {samples} samples ok")
EOF

echo "==> clippy -D warnings (every workspace crate)"
cargo clippy --release -q --workspace --all-targets -- -D warnings

echo "==> rustdoc -D warnings (no broken or ambiguous doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace \
  --exclude rand --exclude proptest

echo "==> parity references: live DSP and clustering cores match their vendored predecessors"
cargo test --release -q -p behaviot-dsp --test period_parity
cargo test --release -q -p behaviot-cluster --test parity

echo "verify: OK"
