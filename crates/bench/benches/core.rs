//! The headline end-to-end cost benchmark: whole-engine slots/sec of
//! FIFOMS vs iSLIP at three operating points and two switch sizes,
//! emitted machine-readable.
//!
//! This target writes `BENCH_core.json` at the workspace root (schema
//! `schemas/bench_core.schema.json`) so perf PRs can diff slots/sec
//! numerically. Each row carries its own `n` (the scaling axis: N = 16
//! and N = 64); the doc-level `n` stays at 16 for v1 consumers.
//!
//! Run with `cargo bench -p fifoms-bench --bench core`.

use std::hint::black_box;
use std::time::Instant;

use fifoms_obs::Json;
use fifoms_sim::{try_simulate, RunConfig, RunResult, SwitchKind, TrafficKind};

const SIZES: [usize; 2] = [16, 64];
const B: f64 = 0.2;
const LOADS: [f64; 3] = [0.3, 0.6, 0.9];
/// Slots per N = 16 cell, and timed runs per cell.
const SLOTS: u64 = 100_000;
const SAMPLES: usize = 3;

fn one_sample(sk: SwitchKind, n: usize, load: f64, slots: u64) -> (RunResult, u64) {
    let mut sw = sk.build(n, 1);
    let mut tr = TrafficKind::bernoulli_at_load(load, B, n).build(n, 2);
    let cfg = RunConfig::paper(slots);
    let started = Instant::now();
    let result = try_simulate(sw.as_mut(), tr.as_mut(), &cfg).expect("bench cell runs");
    let elapsed_ns = started.elapsed().as_nanos() as u64;
    (black_box(result), elapsed_ns.max(1))
}

fn main() {
    // Cargo runs bench binaries with the package dir as CWD; write the
    // artifact to the workspace root so `check-bench` finds it there.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_core.json");

    let mut rows = Vec::new();
    for n in SIZES {
        // The N = 64 rows run a quarter of the slots, which bounds the
        // bench's wall time; slots/sec stays comparable across sizes.
        let slots = if n > 16 { SLOTS / 4 } else { SLOTS };
        for sk in [SwitchKind::Fifoms, SwitchKind::Islip(None)] {
            for load in LOADS {
                // Median elapsed time over `SAMPLES` identical runs (the
                // runs are deterministic, so only the timing varies).
                let mut timed: Vec<(RunResult, u64)> =
                    (0..SAMPLES).map(|_| one_sample(sk, n, load, slots)).collect();
                timed.sort_by_key(|(_, ns)| *ns);
                let (result, elapsed_ns) = timed.swap_remove(SAMPLES / 2);
                let slots_per_sec = result.slots_run as f64 / (elapsed_ns as f64 / 1e9);
                println!(
                    "core/{:<6} n {n:>2} load {load:.1}: {slots_per_sec:>10.0} slots/s \
                     (mean rounds {:.3}, throughput {:.4})",
                    sk.label(),
                    result.mean_rounds,
                    result.throughput
                );
                let mut row = Json::object();
                row.set("switch", sk.label());
                row.set("n", n);
                row.set("load", load);
                row.set("slots_run", result.slots_run);
                row.set("elapsed_ns", elapsed_ns);
                row.set("slots_per_sec", slots_per_sec);
                row.set("mean_rounds", result.mean_rounds);
                row.set("throughput", result.throughput);
                rows.push(row);
            }
        }
    }

    let mut doc = Json::object();
    doc.set("schema", "fifoms-bench-core-v1");
    doc.set("n", SIZES[0]);
    doc.set("slots", SLOTS);
    doc.set("rows", Json::Arr(rows));
    std::fs::write(out, format!("{doc}\n")).expect("write core bench output");
    println!("wrote {out}");
}
