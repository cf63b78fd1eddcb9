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
#      with the emitters); the smoke run overwrites BENCH_profile.json,
#      so the committed 100,000-slot artifact is put back from a copy on
#      exit, like layerbench/Cargo.lock in stage 13;
#   6. an analyze smoke: a tiny packet-traced sweep piped through
#      `fifoms-repro analyze --json`, validated against
#      schemas/analysis.schema.json;
#   7. a chaos smoke campaign: seeded egress-fault scenarios plus the
#      finite-buffer buffer-pressure cells through the invariant checker
#      — the command exits nonzero on any invariant violation, deadlock,
#      watchdog timeout, or unreconciled fanout counter, and we also
#      grep the report for its explicit all-clear line;
#   8. an overload smoke: the finite-buffer loss-rate sweep with its
#      fifoms-overload-v1 artifact self-validated against
#      schemas/overload.schema.json (the command fails if the emitted
#      JSON violates the schema), plus a sanity grep that the
#      inadmissible end of the grid actually shed copies;
#   9. the allocation audit: the CLI rebuilt with the counting global
#      allocator (`--features alloc-audit`) must report a steady-state
#      slot loop with zero heap allocations for FIFOMS and iSLIP alike,
#      at N=8 and at N=64 (the command exits nonzero on any allocating
#      phase);
#  10. a perf-diff self-check: the freshly profiled v2 artifact diffed
#      against itself must gate clean (zero slots/sec delta), proving
#      the attribution path parses its own output;
#  11. a live-telemetry smoke: a sweep with the windowed time-series,
#      snapshot and Prometheus outputs attached, the JSONL stream
#      schema-validated record-by-record and the snapshot rendered by
#      `fifoms-repro top --once` (the consumer path: the snapshot is
#      validated against schemas/snapshot.schema.json before rendering);
#      the final snapshot of the 4-thread sweep must mark every scope
#      complete: every completing publication reached the file before
#      the command exited;
#  12. a kill-and-recover smoke: `serve --die-at-slot` crashes the first
#      worker attempt mid-run, the supervisor restarts it from the
#      newest checkpoint, and the recovered statistics line must equal
#      an uninterrupted reference run's byte-for-byte (the bit-identical
#      recovery invariant, end to end through the CLI); the supervisor's
#      recovery_started/recovery_completed JSONL log is also checked.
#      (The chaos smoke in stage 7 already runs the checkpoint-corruption
#      campaign — torn write, bit flip, truncation, stale tmp — as part
#      of the same invocation.)
#  13. a layered-benchmark smoke: layerbench/ compiles against the
#      simulator's public API and pins seed-1 RunResults for all three
#      workloads, so an API or behaviour break fails here rather than
#      only in the benchmark pipeline. Each workload runs for one second
#      and must report "correct":true with zero failed checks, and the
#      self-test must catch its planted sabotage. campaign-n8 also runs
#      once traced, because only the traced run costs the end state by
#      calling SnapshotBus::publish, WalWriter::append and
#      CheckpointStore::save directly. The build goes to a temporary
#      target directory, and layerbench/Cargo.lock, which a build
#      rewrites when the workspace's dependency graph has moved past
#      it, is put back from a copy on exit, so the checkout stays as it
#      was. One run also goes through scripts/ledger-layerbench.sh into
#      a scratch ledger, whose row must hold the same verdict.
#  14. a journal kill-and-resume smoke: a sweep journals every cell, the
#      journal is cut to two thirds of its bytes (a killed process tears
#      its last record anywhere), and two resumes of the cut file must
#      each print the uninterrupted run's stdout from line 2 on; the
#      first resume cuts the torn record off, so the second finds none.
#      Resuming under another seed must fail with a journal mismatch.
#
# No stage times anything against a baseline: wall-clock samples on a
# shared machine are too noisy to gate. The scheduler's work is gated
# exactly instead, by tests/work_counts.rs in stage 3, and clippy in
# stage 1 still compiles the core bench (`--all-targets`).
#
# No stage may leave the checkout changed. After stage 14 the script
# puts back the committed files that stages 5 and 13 are known to
# rewrite (BENCH_profile.json and layerbench/Cargo.lock, which the exit
# trap also restores), then fails, printing the difference, if
# `git status --porcelain` no longer matches its output at the start.
# Outside a git work tree the check is skipped.
#
# Run from anywhere inside the repository.

set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
cp layerbench/Cargo.lock "$tmp/layerbench-Cargo.lock"
cp BENCH_profile.json "$tmp/BENCH_profile.json"
# Put back the committed files that stages are known to rewrite.
restore_checkout() {
  cp "$tmp/layerbench-Cargo.lock" layerbench/Cargo.lock
  cp "$tmp/BENCH_profile.json" BENCH_profile.json
}
trap 'restore_checkout; rm -rf "$tmp"' EXIT
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  git status --porcelain > "$tmp/status-start.txt"
fi

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
# `set -e` ignores a negated command's status, so test it explicitly.
if grep -q '"complete":false' "$tmp/snap.json"; then
  echo "final snapshot holds a scope not marked complete" >&2
  exit 1
fi
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

echo "== layered benchmark smoke (pinned results + sabotage self-test) =="
CARGO_TARGET_DIR="$tmp/layerbench" scripts/ledger-layerbench.sh \
  "$tmp/bench_ledger.jsonl" burst-n16 1 1 > /dev/null
grep -q '"correct":true' "$tmp/bench_ledger.jsonl"
grep -q '"failed":0[,}]' "$tmp/bench_ledger.jsonl"
for w in bernoulli-n64 burst-n16 campaign-n8; do
  CARGO_TARGET_DIR="$tmp/layerbench" python3 layerbench/run.py \
    --workload "$w" --seed 1 --seconds 1 --trace 0 > "$tmp/lb-$w.txt"
  tail -n 1 "$tmp/lb-$w.txt" > "$tmp/lb-$w.json"
  cut -c 1-160 "$tmp/lb-$w.json"
  grep -q '"correct":true' "$tmp/lb-$w.json"
  grep -q '"failed":0[,}]' "$tmp/lb-$w.json"
done
CARGO_TARGET_DIR="$tmp/layerbench" python3 layerbench/run.py \
  --workload campaign-n8 --seed 1 --seconds 1 --trace 1 > "$tmp/lb-traced.txt"
tail -n 1 "$tmp/lb-traced.txt" > "$tmp/lb-traced.json"
grep -q '"correct":true' "$tmp/lb-traced.json"
grep -q '"failed":0[,}]' "$tmp/lb-traced.json"
# The self-test's stderr lists the checks its planted sabotage failed.
CARGO_TARGET_DIR="$tmp/layerbench" python3 layerbench/run.py --self-test \
  > "$tmp/lb-self-test.txt" 2> "$tmp/lb-self-test.err"
tail -n 1 "$tmp/lb-self-test.txt" > "$tmp/lb-self-test.json"
grep -q '"sabotage_caught":true' "$tmp/lb-self-test.json"

echo "== journal kill-and-resume smoke (byte cut + two resumes + mismatch) =="
sweep=(cargo run --release --quiet -p fifoms-cli -- sweep --quick --n 8 --points 3 --threads 1)
"${sweep[@]}" --seed 9 --journal "$tmp/s.journal" > "$tmp/journal-full.txt"
size=$(wc -c < "$tmp/s.journal")
head -c $((size * 2 / 3)) "$tmp/s.journal" > "$tmp/cut.journal"
for i in 1 2; do
  "${sweep[@]}" --seed 9 --resume "$tmp/cut.journal" \
    > "$tmp/journal-resume-$i.txt" 2> "$tmp/journal-resume-$i.err"
  diff <(tail -n +2 "$tmp/journal-full.txt") <(tail -n +2 "$tmp/journal-resume-$i.txt")
done
if grep -q "torn byte" "$tmp/journal-resume-2.err"; then
  echo "the first resume left torn journal bytes behind" >&2
  exit 1
fi
# `set -e` ignores a negated command's status, so test it explicitly.
if "${sweep[@]}" --seed 10 --resume "$tmp/cut.journal" \
  > /dev/null 2> "$tmp/journal-mismatch.err"; then
  echo "a journal resumed under another seed" >&2
  exit 1
fi
grep -q "checkpoint journal mismatch" "$tmp/journal-mismatch.err"

echo "== checkout unchanged (git status as at the start) =="
restore_checkout
if [ -f "$tmp/status-start.txt" ]; then
  git status --porcelain > "$tmp/status-end.txt"
  if ! diff "$tmp/status-start.txt" "$tmp/status-end.txt"; then
    echo "a stage left the checkout changed (git status --porcelain, start vs now)" >&2
    exit 1
  fi
fi

echo "CI checks passed."
