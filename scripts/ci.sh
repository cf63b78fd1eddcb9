#!/usr/bin/env bash
# CI gate for the workspace:
#   1. clippy over every crate and target, warnings denied — in the dev
#      profile and again in release, because cfg(debug_assertions)
#      gates enough code that the two profiles lint different surfaces;
#   2. a release build with rustc warnings denied — clippy's set and
#      rustc's set overlap but are not identical, and release codegen
#      surfaces warnings (dead branches behind debug_assertions) that
#      the dev profile hides;
#   3. the full test suite in the dev profile, which compiles with
#      debug-assertions (and overflow checks) enabled — the runtime
#      invariant checks in fabric/core rely on them firing;
#   4. the fifoms-lint source disciplines gated against the committed
#      baseline, with the JSON report schema-validated as a by-product
#      (lintcmd self-checks it against schemas/lint.schema.json);
#   5. a smoke run of the self-profiling harness plus schema validation
#      of the benchmark artifacts it writes (schemas/ must stay in sync
#      with the emitters);
#   6. the bench regression gate: a smoke core bench compared against the
#      committed BENCH_core.json baseline (wide tolerance — smoke runs
#      are short and noisy; the gate exists to catch order-of-magnitude
#      slumps, not jitter);
#   7. an analyze smoke: a tiny packet-traced sweep piped through
#      `fifoms-repro analyze --json`, validated against
#      schemas/analysis.schema.json;
#   8. a chaos smoke campaign: seeded egress-fault scenarios plus the
#      finite-buffer buffer-pressure cells through the invariant checker
#      — the command exits nonzero on any invariant violation, deadlock,
#      watchdog timeout, or unreconciled fanout counter, and we also
#      grep the report for its explicit all-clear line;
#   9. an overload smoke: the finite-buffer loss-rate sweep with its
#      fifoms-overload-v1 artifact self-validated against
#      schemas/overload.schema.json (the command fails if the emitted
#      JSON violates the schema), plus a sanity grep that the
#      inadmissible end of the grid actually shed copies;
#  10. the allocation audit: the CLI rebuilt with the counting global
#      allocator (`--features alloc-audit`) must report a steady-state
#      slot loop with zero heap allocations for FIFOMS and iSLIP alike,
#      at N=8 and at N=64 (the command exits nonzero on any allocating
#      phase);
#  11. a perf-diff self-check: the freshly profiled v2 artifact diffed
#      against itself must gate clean (zero slots/sec delta), proving
#      the attribution path parses its own output;
#  12. a live-telemetry smoke: a sweep with the windowed time-series,
#      snapshot and Prometheus outputs attached, the JSONL stream
#      schema-validated record-by-record and the snapshot rendered by
#      `fifoms-repro top --once` (the consumer path: the snapshot is
#      validated against schemas/snapshot.schema.json before rendering);
#  13. a kill-and-recover smoke: `serve --die-at-slot` crashes the first
#      worker attempt mid-run, the supervisor restarts it from the
#      newest checkpoint, and the recovered statistics line must equal
#      an uninterrupted reference run's byte-for-byte (the bit-identical
#      recovery invariant, end to end through the CLI); the supervisor's
#      recovery_started/recovery_completed JSONL log is also checked.
#      (The chaos smoke in stage 8 already runs the checkpoint-corruption
#      campaign — torn write, bit flip, truncation, stale tmp — as part
#      of the same invocation.)
#
# Run from anywhere inside the repository.

set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== clippy (release profile, deny warnings) =="
cargo clippy --workspace --release -- -D warnings

echo "== release build (rustc warnings denied) =="
RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --release --workspace

echo "== tests (dev profile, debug-assertions on) =="
cargo test --workspace --quiet

echo "== lint gate (source disciplines vs committed baseline) =="
cargo run --release --quiet -p fifoms-cli -- lint \
  --baseline lint-baseline.json --json "$tmp/lint.json" \
  --stats --ledger "$tmp/lint_ledger.jsonl"
test -s "$tmp/lint.json"
grep -q '"schema":"fifoms-lint-stats-v1"' "$tmp/lint_ledger.jsonl"

echo "== profile smoke + artifact schema validation =="
cargo run --release --quiet -p fifoms-cli -- profile --slots 10000
cargo run --release --quiet -p fifoms-cli -- check-bench
grep -q '"schema": *"fifoms-bench-profile-v2"' BENCH_profile.json
grep -q '"path": *"schedule/' BENCH_profile.json

echo "== perf-diff self-check (artifact diffed against itself) =="
cargo run --release --quiet -p fifoms-cli -- perf-diff \
  BENCH_profile.json BENCH_profile.json

echo "== alloc audit (counting allocator, FIFOMS + iSLIP must be clean) =="
cargo run --release --quiet -p fifoms-cli --features alloc-audit -- \
  alloc-audit --n 8 --slots 4000 --json "$tmp/alloc-audit.json"
grep -q '"clean": *true' "$tmp/alloc-audit.json"
cargo run --release --quiet -p fifoms-cli --features alloc-audit -- \
  alloc-audit --n 64 --slots 4000 --json "$tmp/alloc-audit-64.json"
grep -q '"clean": *true' "$tmp/alloc-audit-64.json"

echo "== bench regression gate (smoke vs committed baseline) =="
BENCH_SMOKE=1 BENCH_CORE_OUT="$tmp/BENCH_core.json" \
  cargo bench -p fifoms-bench --bench core
cargo run --release --quiet -p fifoms-cli -- check-bench \
  --baseline BENCH_core.json --current "$tmp/BENCH_core.json" --tolerance 0.5

echo "== analyze smoke (packet trace -> forensics report) =="
cargo run --release --quiet -p fifoms-cli -- sweep --quick --n 8 --points 2 \
  --trace-out "$tmp/trace.jsonl" --packet-trace all
cargo run --release --quiet -p fifoms-cli -- analyze "$tmp/trace.jsonl" \
  --json "$tmp/analysis.json" > /dev/null
test -s "$tmp/analysis.json"

echo "== chaos smoke campaign (egress faults under the invariant checker) =="
cargo run --release --quiet -p fifoms-cli -- chaos --smoke --seed 2026 \
  | tee "$tmp/chaos.txt"
grep -q "zero invariant violations, zero unreconciled fanout counters" \
  "$tmp/chaos.txt"

echo "== overload smoke (finite-buffer loss sweep + artifact schema) =="
cargo run --release --quiet -p fifoms-cli -- overload --n 8 --slots 3000 \
  --points 3 --voq-cap 8 --input-cap 24 --json "$tmp/overload.json" \
  | tee "$tmp/overload.txt"
test -s "$tmp/overload.json"
grep -q '"schema":"fifoms-overload-v1"' "$tmp/overload.json"
grep -q "all conservation checks passed" "$tmp/overload.txt"

echo "== telemetry smoke (time-series + snapshot + top --once) =="
cargo run --release --quiet -p fifoms-cli -- sweep --quick --n 8 --points 2 \
  --timeseries-out "$tmp/ts.jsonl" --snapshot-out "$tmp/snap.json" \
  --prom-out "$tmp/metrics.prom" --window 200
grep -q '"schema":"fifoms-timeseries-v1"' "$tmp/ts.jsonl"
grep -q 'fifoms_slots_total' "$tmp/metrics.prom"
cargo run --release --quiet -p fifoms-cli -- top "$tmp/snap.json" --once \
  --timeseries "$tmp/ts.jsonl" | tee "$tmp/top.txt"
grep -q "window" "$tmp/top.txt"

echo "== kill-and-recover smoke (serve crash + bit-identical resume) =="
cargo run --release --quiet -p fifoms-cli -- serve \
  --state-dir "$tmp/serve-ref" --n 8 --slots 12000 --checkpoint-every 3000 \
  --seed 2026 | tee "$tmp/serve-ref.txt"
cargo run --release --quiet -p fifoms-cli -- serve \
  --state-dir "$tmp/serve-kill" --n 8 --slots 12000 --checkpoint-every 3000 \
  --seed 2026 --die-at-slot 10000 --out "$tmp/supervisor.jsonl" \
  | tee "$tmp/serve-kill.txt"
grep -q "resumed from checkpoint seq 3" "$tmp/serve-kill.txt"
grep -q '"event":"recovery_started"' "$tmp/supervisor.jsonl"
grep -q '"event":"recovery_completed"' "$tmp/supervisor.jsonl"
# The statistics line of the recovered session must match the
# uninterrupted reference exactly — bit-identical recovery.
diff <(grep "admitted" "$tmp/serve-ref.txt") \
     <(grep "admitted" "$tmp/serve-kill.txt")
grep -q "checkpoint-corruption campaign" "$tmp/chaos.txt"

echo "CI checks passed."
