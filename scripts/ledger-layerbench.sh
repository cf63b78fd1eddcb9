#!/usr/bin/env bash
# Run one layered-benchmark workload and append its result to a ledger:
#
#   scripts/ledger-layerbench.sh LEDGER WORKLOAD [SEED] [SECONDS]
#
# Runs `layerbench/run.py --workload WORKLOAD --seed SEED --seconds SECONDS
# --trace 0` (seed 1 and 30 s unless given) and appends one JSON line to
# LEDGER (for example results/bench_ledger.jsonl) holding the commit id,
# with `-dirty` when tracked files differ from HEAD, the workload, seed
# and seconds, and the benchmark's final JSON line. The result line is
# also printed. CARGO_TARGET_DIR, if set, is where the benchmark builds.
#
# layerbench/run.py builds without --locked, so a build rewrites
# layerbench/Cargo.lock whenever the workspace's dependency graph has
# moved past it; the file is put back as it was however the script ends.
#
# Run from anywhere inside the repository.

set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
  echo "usage: $0 LEDGER WORKLOAD [SEED] [SECONDS]" >&2
  exit 2
fi
ledger="$(realpath -m "$1")"
workload="$2"
seed="${3:-1}"
seconds="${4:-30}"
# Both land in the ledger as bare JSON numbers.
if ! [[ "$seed" =~ ^[0-9]+$ && "$seconds" =~ ^[0-9]+([.][0-9]+)?$ ]]; then
  echo "$0: SEED must be an integer and SECONDS a number" >&2
  exit 2
fi
cd "$(dirname "$0")/.."

commit="$(git rev-parse --short HEAD)"
if ! git diff --quiet HEAD --; then
  commit="$commit-dirty"
fi

lock=layerbench/Cargo.lock
saved="$(mktemp)"
cp "$lock" "$saved"
trap 'cp "$saved" "$lock"; rm -f "$saved"' EXIT

result="$(python3 layerbench/run.py --workload "$workload" --seed "$seed" \
  --seconds "$seconds" --trace 0 | tail -n 1)"
if [[ "$result" != "{"* ]]; then
  echo "$0: layerbench printed no JSON result" >&2
  exit 1
fi
printf '{"schema":"fifoms-layerbench-ledger-v1","commit":"%s","workload":"%s","seed":%s,"seconds":%s,"layerbench":%s}\n' \
  "$commit" "$workload" "$seed" "$seconds" "$result" >> "$ledger"
printf '%s\n' "$result"
