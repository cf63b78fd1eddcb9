#!/usr/bin/env bash
# Benchmark driver for the workspace: the core bench (BENCH_core.json)
# and the self-profile (BENCH_profile.json), then schema validation via
# `check-bench`, which also appends the core bench's slots/sec rows to
# results/bench_ledger.jsonl.
#
#   scripts/bench.sh
#
# Artifacts land in the repository root and validate against the schemas
# under schemas/.

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 0 ]]; then
  echo "usage: scripts/bench.sh" >&2
  exit 2
fi

echo "== core bench (FIFOMS vs iSLIP slots/sec) =="
cargo bench -p fifoms-bench --bench core

echo "== self-profile (engine phase breakdown) =="
cargo run --release --quiet -p fifoms-cli -- profile --slots 100000

echo "== validate artifacts against schemas/ =="
mkdir -p results
cargo run --release --quiet -p fifoms-cli -- check-bench \
  --ledger results/bench_ledger.jsonl \
  --ledger-note "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

echo "bench artifacts written: BENCH_core.json BENCH_profile.json"
echo "bench ledger appended:   results/bench_ledger.jsonl"
