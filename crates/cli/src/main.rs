//! `fifoms-repro` — regenerate every figure of the paper.
//!
//! ```text
//! fifoms-repro <fig4|fig5|fig6|fig7|fig8|all|ablation|throughput|sweep|...> [options]
//!
//! Options:
//!   --n <N>            switch size                      [default: 16]
//!   --slots <S>        slots per run                    [default: 100000]
//!   --seed <K>         base RNG seed                    [default: 1]
//!   --points <P>       load points per sweep            [default: 10]
//!   --threads <T>      worker threads                   [default: 4]
//!   --csv-dir <DIR>    also write per-figure CSV files
//!   --quick            1/10th slots (smoke runs)
//!
//! sweep (fault-isolated Fig. 4 grid) additionally accepts:
//!   --journal <PATH>     journal completed cells to PATH (fresh run)
//!   --resume <PATH>      resume from PATH, skipping journaled cells
//!   --check-every <K>    runtime invariant validation; conservation every K slots
//!   --cell-timeout <SEC> per-cell wall-clock watchdog
//!   --inject-faults      deterministic crosspoint/output-port faults
//!   --retries <R>        retry budget for panicked/timed-out cells
//!   --trace-out <PATH>   stream per-slot scheduler events as JSONL to PATH
//!   --metrics-out <PATH> write aggregated sweep metrics as JSON to PATH
//!   --progress           periodic progress line on stderr (slots/s, ETA)
//!   --packet-trace <M>   packet flight recorder: all, 1/K or ring:C [default: off]
//!
//! profile (self-profiling harness) additionally accepts:
//!   --out <PATH>         output path               [default: BENCH_profile.json]
//!   --sample-every <K>   time every K-th slot      [default: 16]
//!
//! check-bench validates BENCH_profile.json / BENCH_core.json against the
//! schemas under schemas/ (it compares no slots/sec; --baseline is an
//! error):
//!   --current <PATH>     core-bench artifact       [default: BENCH_core.json]
//!
//! perf-diff <baseline.json> <current.json> attributes a slots/sec delta
//! between two `fifoms-repro profile` artifacts to named spans
//! (exclusive ns/call per span), failing past the tolerance and naming
//! the span whose per-call cost grew the most:
//!   --tolerance <F>      allowed fractional slots/sec drop [default: 0.15]
//!
//! alloc-audit proves the steady-state slot loop (FIFOMS and iSLIP at
//! the reference operating point) performs zero heap allocations per
//! slot after warmup. Requires the counting allocator:
//!   cargo run --release -p fifoms-cli --features alloc-audit -- alloc-audit
//!   --json <PATH>        write the fifoms-alloc-audit-v1 report
//!
//! analyze <trace.jsonl> reconstructs packet lifecycles from a
//! --trace-out file: delay decomposition (HOL / contention / split
//! residue), the Theorem 1 starvation audit, convergence histograms and
//! fanout-split tables.
//!   --compare <PATH>     diff against a second trace (e.g. iSLIP run)
//!   --json <PATH>        also write the report as JSON
//!
//! chaos runs a seeded egress-fault campaign through the invariant
//! checker and exits nonzero on any violation, deadlock or unreconciled
//! fanout counter; failing scenarios are shrunk to a minimal
//! `--scenario` reproducer:
//!   --scenarios <C>      scenarios per campaign    [default: 12]
//!   --smoke              shortened CI campaign (seconds, not minutes)
//!   --scenario <SPEC>    run one scenario, e.g.
//!                        crosspoint_faults=2,crosspoint_duration=never
//!
//! overload runs the finite-buffer loss-rate / stability sweep: every
//! load point against the infinite-buffer baseline and the drop-tail,
//! stamp-preserving pushout and fair-shed admission policies, each cell
//! proving the extended conservation law under `CheckedSwitch`:
//!   --voq-cap <C>        per-VOQ address-cell cap   [default: 16]
//!   --input-cap <C>      per-input aggregate cap    [default: 64]
//!   --json <PATH>        write the fifoms-overload-v1 artifact
//!                        (schema-checked against schemas/overload.schema.json)
//!
//! sweep, chaos and overload accept the live-telemetry flags, which
//! attach windowed observation without perturbing results (runs stay
//! bit-identical, asserted by the telemetry test suite):
//!   --timeseries-out <PATH> stream fifoms-timeseries-v1 window JSONL
//!   --snapshot-out <PATH>   publish the live snapshot JSON (atomic rewrite)
//!   --prom-out <PATH>       publish Prometheus-style text exposition
//!   --window <S>            window stride in slots    [default: 1000]
//!
//! top <snapshot.json> renders an in-terminal live view of a running
//! campaign from its --snapshot-out file — windowed slots/sec,
//! delivered/admitted, tail percentiles, overload level and the
//! per-input fault scoreboard — refreshing until every scope completes:
//!   --once               render one frame and exit (CI / scripting)
//!   --interval-ms <MS>   refresh period            [default: 500]
//!   --timeseries <PATH>  also validate a --timeseries-out stream
//!
//! serve runs a supervised, checkpointed long-running session: periodic
//! crash-safe checkpoints plus a write-ahead arrival log in the state
//! directory, a watchdog-guarded worker, and restart-from-checkpoint
//! with exponential backoff until the budget is exhausted. Killing the
//! process and re-running the command resumes bit-identically:
//!   --state-dir <DIR>       checkpoint/WAL directory (required)
//!   --checkpoint-every <K>  checkpoint interval in slots [default: 10000]
//!   --max-restarts <R>      supervisor restart budget    [default: 3]
//!   --load <P>              per-slot arrival probability [default: 0.6]
//!   --die-at-slot <T>       deliberately crash the first attempt at T
//!   --cell-timeout <SEC>    per-attempt worker watchdog
//!   --out <PATH>            supervisor recovery-event JSONL log
//!
//! check-bench additionally maintains a running slots/sec ledger:
//!   --ledger <PATH>      append a fifoms-bench-ledger-v1 row to PATH
//!   --ledger-note <S>    free-form note stored with the row
//!
//! lint runs the fifoms-lint source disciplines (R1 determinism, R2
//! timestamp preservation, R3 panic freedom, R4 event vocabulary, R5
//! SAFETY/INVARIANT audit, R6 fingerprint floats, R7 wrapper forwarding,
//! R8 checkpoint coverage, R9 schema drift, R10 guarded indexing) over
//! the workspace and exits nonzero on any finding beyond the baseline:
//!   --baseline <PATH>    grandfathered-findings allowlist to gate against
//!   --json <PATH>        write the fifoms-lint-v1 report (schema-checked)
//!   --write-baseline     regenerate the baseline (and the R8 state
//!                        fingerprint manifest) from current findings
//!   --explain <RULE>     print one rule's documentation card and exit
//!   --stats              append a fifoms-lint-stats-v1 rule-hit row to
//!                        results/bench_ledger.jsonl (--ledger overrides)
//! ```
//!
//! Each figure command prints the paper's four statistics (input-oriented
//! delay, output-oriented delay, average queue size, maximum queue size)
//! as load-by-scheduler tables; values measured beyond a scheduler's
//! stability region are suffixed `*`. `fig5` prints convergence rounds for
//! FIFOMS and iSLIP.

mod analyze;
mod args;
mod auditcmd;
mod chaoscmd;
mod figures;
mod lintcmd;
mod obscmd;
mod overloadcmd;
mod servecmd;
mod topcmd;
mod traces;

use std::process::ExitCode;

use args::Options;
use fifoms_types::SimError;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, opts) = match args::parse(&argv) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: fifoms-repro <fig4|fig5|fig6|fig7|fig8|all|ablation|throughput|scaling|fairness|oq-speedup|mixed|record|replay|sweep|profile|check-bench|perf-diff|alloc-audit|analyze|chaos|lint|overload|top|serve> [--n N] [--slots S] [--seed K] [--points P] [--threads T] [--csv-dir DIR] [--plot] [--quick] [--journal PATH] [--resume PATH] [--check-every K] [--cell-timeout SEC] [--inject-faults] [--retries R] [--trace-out PATH] [--metrics-out PATH] [--progress] [--packet-trace all|1/K|ring:C] [--out PATH] [--sample-every K] [--baseline PATH] [--current PATH] [--tolerance F] [--compare PATH] [--json PATH] [--scenarios C] [--smoke] [--scenario SPEC] [--write-baseline] [--explain RULE] [--stats] [--voq-cap C] [--input-cap C] [--timeseries-out PATH] [--snapshot-out PATH] [--prom-out PATH] [--window S] [--once] [--interval-ms MS] [--timeseries PATH] [--ledger PATH] [--ledger-note S] [--state-dir DIR] [--checkpoint-every K] [--die-at-slot T] [--max-restarts R] [--load P]");
            return ExitCode::FAILURE;
        }
    };
    match run(&command, &opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(command: &str, opts: &Options) -> Result<(), SimError> {
    match command {
        "fig4" => figures::fig4(opts),
        "fig5" => figures::fig5(opts),
        "fig6" => figures::fig6(opts),
        "fig7" => figures::fig7(opts),
        "fig8" => figures::fig8(opts),
        "ablation" => figures::ablation(opts),
        "throughput" => figures::throughput(opts),
        "scaling" => figures::scaling(opts),
        "fairness" => figures::fairness(opts),
        "oq-speedup" => figures::oq_speedup(opts),
        "mixed" => figures::mixed(opts),
        "sweep" => figures::sweep_cmd(opts),
        "profile" => obscmd::profile(opts),
        "check-bench" => obscmd::check_bench(opts),
        "perf-diff" => obscmd::perf_diff(opts),
        "alloc-audit" => auditcmd::alloc_audit_cmd(opts),
        "analyze" => analyze::analyze(opts),
        "chaos" => chaoscmd::chaos(opts),
        "lint" => lintcmd::lint(opts),
        "overload" => overloadcmd::overload(opts),
        "serve" => servecmd::serve_cmd(opts),
        "top" => topcmd::top(opts),
        "record" => traces::record(opts),
        "replay" => traces::replay(opts),
        "all" => {
            figures::fig4(opts)?;
            figures::fig5(opts)?;
            figures::fig6(opts)?;
            figures::fig7(opts)?;
            figures::fig8(opts)
        }
        _ => unreachable!("parse validated the command"),
    }
}
