//! Minimal dependency-free argument parsing.

use fifoms_sim::PacketTraceMode;

/// Parsed command-line options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Switch size `N`.
    pub n: usize,
    /// Slots per simulation run.
    pub slots: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Load points per sweep.
    pub points: usize,
    /// Worker threads.
    pub threads: usize,
    /// Directory for CSV output, if requested.
    pub csv_dir: Option<String>,
    /// Render ASCII charts after the tables.
    pub plot: bool,
    /// Checkpoint journal path for the `sweep` command.
    pub journal: Option<String>,
    /// Resume from the journal instead of restarting it.
    pub resume: bool,
    /// Verify fabric invariants each slot, conservation every K slots.
    pub check_every: Option<u64>,
    /// Per-cell wall-clock budget, in seconds.
    pub cell_timeout: Option<u64>,
    /// Inject deterministic fabric faults (crosspoint failures and
    /// output-port flaps) into every cell.
    pub inject_faults: bool,
    /// Retry budget for panicked or timed-out cells.
    pub retries: u32,
    /// Stream per-slot scheduler events as JSONL to this path.
    pub trace_out: Option<String>,
    /// Write aggregated sweep metrics as JSON to this path.
    pub metrics_out: Option<String>,
    /// Output path override (`profile` writes `BENCH_profile.json` by
    /// default).
    pub out: Option<String>,
    /// Print a periodic progress line to stderr during sweeps.
    pub progress: bool,
    /// Profiling stride: time every `k`-th slot in `profile`.
    pub sample_every: u64,
    /// Packet-level flight recorder mode for traced sweeps.
    pub packet_trace: PacketTraceMode,
    /// Positional input file (`analyze <trace.jsonl>`).
    pub input: Option<String>,
    /// Second trace to diff against (`analyze --compare`).
    pub compare: Option<String>,
    /// Write the analysis report as JSON to this path (`analyze --json`).
    pub json_out: Option<String>,
    /// Baseline artifact: `perf-diff`'s first profile, or the lint
    /// findings allowlist (`check-bench` refuses it).
    pub baseline: Option<String>,
    /// Current artifact: `perf-diff`'s second profile, or the core-bench
    /// artifact `check-bench` validates.
    pub current: Option<String>,
    /// Allowed fractional slots/sec regression before `perf-diff` fails.
    pub tolerance: f64,
    /// Run the shortened CI chaos campaign (`chaos --smoke`).
    pub smoke: bool,
    /// Scenarios per chaos campaign.
    pub scenarios: usize,
    /// Run a single chaos scenario from a `name=value,...` spec.
    pub scenario: Option<String>,
    /// Regenerate the lint baseline instead of gating (`lint
    /// --write-baseline`).
    pub write_baseline: bool,
    /// Print the documentation for one lint rule and exit (`lint
    /// --explain R7`).
    pub explain: Option<String>,
    /// Append a `fifoms-lint-stats-v1` rule-hit row to the results
    /// ledger (`lint --stats`).
    pub stats: bool,
    /// Per-VOQ address-cell cap for `overload` (`0` = unbounded).
    pub voq_cap: usize,
    /// Per-input aggregate copy cap for `overload` (`0` = unbounded).
    pub input_cap: usize,
    /// Stream windowed telemetry as `fifoms-timeseries-v1` JSONL here.
    pub timeseries_out: Option<String>,
    /// Publish the live telemetry snapshot JSON document here.
    pub snapshot_out: Option<String>,
    /// Publish Prometheus-style text exposition here.
    pub prom_out: Option<String>,
    /// Telemetry window stride in slots.
    pub window: u64,
    /// Render one frame and exit (`top --once`).
    pub once: bool,
    /// Refresh period for the live `top` view, in milliseconds.
    pub interval_ms: u64,
    /// Validate/show the windowed time-series alongside the snapshot
    /// (`top --timeseries <file.jsonl>`).
    pub timeseries: Option<String>,
    /// Append a bench-ledger row to this JSONL path (`check-bench
    /// --ledger`).
    pub ledger: Option<String>,
    /// Free-form note stored with the ledger row (e.g. a commit id).
    pub ledger_note: Option<String>,
    /// Checkpoint/WAL state directory for the supervised `serve` run.
    pub state_dir: Option<String>,
    /// Checkpoint interval in slots for `serve`.
    pub checkpoint_every: u64,
    /// Crash-injection hook: kill the first `serve` worker attempt at
    /// this slot (testing/demo).
    pub die_at: Option<u64>,
    /// Supervisor restart budget for `serve`.
    pub max_restarts: u32,
    /// Per-slot arrival probability of the `serve` workload.
    pub load: f64,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            n: 16,
            slots: 100_000,
            seed: 1,
            points: 10,
            threads: 4,
            csv_dir: None,
            plot: false,
            journal: None,
            resume: false,
            check_every: None,
            cell_timeout: None,
            inject_faults: false,
            retries: 0,
            trace_out: None,
            metrics_out: None,
            out: None,
            progress: false,
            sample_every: 16,
            packet_trace: PacketTraceMode::Off,
            input: None,
            compare: None,
            json_out: None,
            baseline: None,
            current: None,
            tolerance: 0.15,
            smoke: false,
            scenarios: 12,
            scenario: None,
            write_baseline: false,
            explain: None,
            stats: false,
            voq_cap: 16,
            input_cap: 64,
            timeseries_out: None,
            snapshot_out: None,
            prom_out: None,
            window: 1_000,
            once: false,
            interval_ms: 500,
            timeseries: None,
            ledger: None,
            ledger_note: None,
            state_dir: None,
            checkpoint_every: 10_000,
            die_at: None,
            max_restarts: 3,
            load: 0.6,
        }
    }
}

const COMMANDS: &[&str] = &[
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "all",
    "ablation",
    "throughput",
    "scaling",
    "fairness",
    "oq-speedup",
    "mixed",
    "record",
    "replay",
    "sweep",
    "profile",
    "check-bench",
    "analyze",
    "chaos",
    "lint",
    "overload",
    "perf-diff",
    "alloc-audit",
    "top",
    "serve",
];

/// Parse `argv` into `(command, options)`.
pub fn parse(argv: &[String]) -> Result<(String, Options), String> {
    let mut opts = Options::default();
    let mut command = None;
    let mut quick = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--smoke" => opts.smoke = true,
            "--write-baseline" => opts.write_baseline = true,
            "--stats" => opts.stats = true,
            "--plot" => opts.plot = true,
            "--inject-faults" => opts.inject_faults = true,
            "--progress" => opts.progress = true,
            "--once" => opts.once = true,
            "--n" | "--slots" | "--seed" | "--points" | "--threads" | "--csv-dir"
            | "--journal" | "--resume" | "--check-every" | "--cell-timeout" | "--retries"
            | "--trace-out" | "--metrics-out" | "--out" | "--sample-every" | "--packet-trace"
            | "--compare" | "--json" | "--baseline" | "--current" | "--tolerance"
            | "--scenarios" | "--scenario" | "--voq-cap" | "--input-cap"
            | "--timeseries-out" | "--snapshot-out" | "--prom-out" | "--window"
            | "--interval-ms" | "--timeseries" | "--ledger" | "--ledger-note"
            | "--state-dir" | "--checkpoint-every" | "--die-at-slot" | "--max-restarts"
            | "--load" | "--explain" => {
                let value = it
                    .next()
                    .ok_or_else(|| format!("{arg} requires a value"))?;
                match arg.as_str() {
                    "--n" => opts.n = parse_num(arg, value)?,
                    "--slots" => opts.slots = parse_num(arg, value)?,
                    "--seed" => opts.seed = parse_num(arg, value)?,
                    "--points" => opts.points = parse_num(arg, value)?,
                    "--threads" => opts.threads = parse_num(arg, value)?,
                    "--csv-dir" => opts.csv_dir = Some(value.clone()),
                    "--journal" => opts.journal = Some(value.clone()),
                    "--resume" => {
                        opts.journal = Some(value.clone());
                        opts.resume = true;
                    }
                    "--check-every" => opts.check_every = Some(parse_num(arg, value)?),
                    "--cell-timeout" => opts.cell_timeout = Some(parse_num(arg, value)?),
                    "--retries" => opts.retries = parse_num(arg, value)?,
                    "--trace-out" => opts.trace_out = Some(value.clone()),
                    "--metrics-out" => opts.metrics_out = Some(value.clone()),
                    "--out" => opts.out = Some(value.clone()),
                    "--sample-every" => opts.sample_every = parse_num(arg, value)?,
                    "--packet-trace" => opts.packet_trace = parse_packet_trace(value)?,
                    "--compare" => opts.compare = Some(value.clone()),
                    "--json" => opts.json_out = Some(value.clone()),
                    "--baseline" => opts.baseline = Some(value.clone()),
                    "--current" => opts.current = Some(value.clone()),
                    "--tolerance" => opts.tolerance = parse_num(arg, value)?,
                    "--scenarios" => opts.scenarios = parse_num(arg, value)?,
                    "--scenario" => opts.scenario = Some(value.clone()),
                    "--voq-cap" => opts.voq_cap = parse_num(arg, value)?,
                    "--input-cap" => opts.input_cap = parse_num(arg, value)?,
                    "--timeseries-out" => opts.timeseries_out = Some(value.clone()),
                    "--snapshot-out" => opts.snapshot_out = Some(value.clone()),
                    "--prom-out" => opts.prom_out = Some(value.clone()),
                    "--window" => opts.window = parse_num(arg, value)?,
                    "--interval-ms" => opts.interval_ms = parse_num(arg, value)?,
                    "--timeseries" => opts.timeseries = Some(value.clone()),
                    "--ledger" => opts.ledger = Some(value.clone()),
                    "--ledger-note" => opts.ledger_note = Some(value.clone()),
                    "--state-dir" => opts.state_dir = Some(value.clone()),
                    "--checkpoint-every" => opts.checkpoint_every = parse_num(arg, value)?,
                    "--die-at-slot" => opts.die_at = Some(parse_num(arg, value)?),
                    "--max-restarts" => opts.max_restarts = parse_num(arg, value)?,
                    "--load" => opts.load = parse_num(arg, value)?,
                    "--explain" => opts.explain = Some(value.clone()),
                    _ => unreachable!(),
                }
            }
            cmd if COMMANDS.contains(&cmd) => {
                if command.replace(cmd.to_string()).is_some() {
                    return Err(format!("duplicate command {cmd}"));
                }
            }
            // `analyze` and `top` take their input file as a positional
            // argument, like `analyze trace.jsonl` / `top snapshot.json`.
            path if matches!(command.as_deref(), Some("analyze") | Some("top"))
                && opts.input.is_none()
                && !path.starts_with('-') =>
            {
                opts.input = Some(path.to_string());
            }
            // `perf-diff` takes its two profile artifacts positionally:
            // `perf-diff <baseline.json> <current.json>`.
            path if command.as_deref() == Some("perf-diff")
                && opts.current.is_none()
                && !path.starts_with('-') =>
            {
                if opts.baseline.is_none() {
                    opts.baseline = Some(path.to_string());
                } else {
                    opts.current = Some(path.to_string());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if quick {
        opts.slots = (opts.slots / 10).max(1_000);
    }
    if opts.n == 0 || opts.points == 0 || opts.slots < 10 {
        return Err("n, points and slots must be positive (slots >= 10)".into());
    }
    if opts.check_every == Some(0) {
        return Err("--check-every must be positive".into());
    }
    if opts.cell_timeout == Some(0) {
        return Err("--cell-timeout must be positive".into());
    }
    if opts.sample_every == 0 {
        return Err("--sample-every must be positive".into());
    }
    if !opts.tolerance.is_finite() || opts.tolerance <= 0.0 {
        return Err("--tolerance must be a positive number".into());
    }
    if opts.scenarios == 0 {
        return Err("--scenarios must be positive".into());
    }
    if opts.window == 0 {
        return Err("--window must be positive".into());
    }
    if opts.interval_ms == 0 {
        return Err("--interval-ms must be positive".into());
    }
    let command = command.ok_or("missing command")?;
    if command == "analyze" && opts.input.is_none() {
        return Err("analyze requires a trace file: analyze <trace.jsonl>".into());
    }
    if command == "top" && opts.input.is_none() {
        return Err("top requires a snapshot file: top <snapshot.json>".into());
    }
    if command == "overload" && (opts.voq_cap == 0 || opts.input_cap == 0) {
        return Err("overload requires finite --voq-cap and --input-cap".into());
    }
    if command == "serve" {
        if opts.state_dir.is_none() {
            return Err("serve requires a state directory: serve --state-dir <DIR>".into());
        }
        if opts.checkpoint_every == 0 {
            return Err("--checkpoint-every must be positive".into());
        }
        if !opts.load.is_finite() || opts.load <= 0.0 || opts.load > 1.0 {
            return Err("--load must be a probability in (0, 1]".into());
        }
    }
    if command == "perf-diff" && (opts.baseline.is_none() || opts.current.is_none()) {
        return Err(
            "perf-diff requires two profile artifacts: perf-diff <baseline.json> <current.json>"
                .into(),
        );
    }
    Ok((command, opts))
}

/// Parse a `--packet-trace` mode: `off`, `all`, `1/K` (keep every K-th
/// packet) or `ring:C` (retain the last C events).
fn parse_packet_trace(value: &str) -> Result<PacketTraceMode, String> {
    let bad = || format!("invalid --packet-trace {value:?} (expected off, all, 1/K or ring:C)");
    match value {
        "off" => Ok(PacketTraceMode::Off),
        "all" => Ok(PacketTraceMode::All),
        _ => {
            if let Some(k) = value.strip_prefix("1/") {
                let k: u64 = k.parse().map_err(|_| bad())?;
                if k == 0 {
                    return Err(bad());
                }
                Ok(PacketTraceMode::OneIn(k))
            } else if let Some(cap) = value.strip_prefix("ring:") {
                let cap: usize = cap.parse().map_err(|_| bad())?;
                if cap == 0 {
                    return Err(bad());
                }
                Ok(PacketTraceMode::Ring(cap))
            } else {
                Err(bad())
            }
        }
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value {value} for {flag}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults() {
        let (cmd, o) = parse(&argv("fig4")).unwrap();
        assert_eq!(cmd, "fig4");
        assert_eq!(o.n, 16);
        assert_eq!(o.slots, 100_000);
        assert_eq!(o.points, 10);
        assert!(o.csv_dir.is_none());
    }

    #[test]
    fn all_flags() {
        let (cmd, o) =
            parse(&argv("fig8 --n 8 --slots 5000 --seed 9 --points 5 --threads 2 --csv-dir /tmp/x"))
                .unwrap();
        assert_eq!(cmd, "fig8");
        assert_eq!(o.n, 8);
        assert_eq!(o.slots, 5000);
        assert_eq!(o.seed, 9);
        assert_eq!(o.points, 5);
        assert_eq!(o.threads, 2);
        assert_eq!(o.csv_dir.as_deref(), Some("/tmp/x"));
    }

    #[test]
    fn quick_divides_slots() {
        let (_, o) = parse(&argv("fig4 --slots 50000 --quick")).unwrap();
        assert_eq!(o.slots, 5_000);
        // floor at 1000
        let (_, o) = parse(&argv("fig4 --slots 100 --quick")).unwrap();
        assert_eq!(o.slots, 1_000);
    }

    #[test]
    fn errors() {
        assert!(parse(&argv("")).is_err());
        assert!(parse(&argv("fig9")).is_err());
        assert!(parse(&argv("fig4 fig5")).is_err());
        assert!(parse(&argv("fig4 --n")).is_err());
        assert!(parse(&argv("fig4 --n zero")).is_err());
        assert!(parse(&argv("fig4 --n 0")).is_err());
        assert!(parse(&argv("sweep --check-every 0")).is_err());
        assert!(parse(&argv("sweep --cell-timeout 0")).is_err());
        assert!(parse(&argv("sweep --resume")).is_err());
    }

    #[test]
    fn sweep_flags() {
        let (cmd, o) = parse(&argv(
            "sweep --journal /tmp/j.txt --check-every 500 --cell-timeout 30 \
             --inject-faults --retries 2",
        ))
        .unwrap();
        assert_eq!(cmd, "sweep");
        assert_eq!(o.journal.as_deref(), Some("/tmp/j.txt"));
        assert!(!o.resume);
        assert_eq!(o.check_every, Some(500));
        assert_eq!(o.cell_timeout, Some(30));
        assert!(o.inject_faults);
        assert_eq!(o.retries, 2);
    }

    #[test]
    fn observability_flags() {
        let (cmd, o) = parse(&argv(
            "sweep --trace-out events.jsonl --metrics-out metrics.json --progress",
        ))
        .unwrap();
        assert_eq!(cmd, "sweep");
        assert_eq!(o.trace_out.as_deref(), Some("events.jsonl"));
        assert_eq!(o.metrics_out.as_deref(), Some("metrics.json"));
        assert!(o.progress);

        let (cmd, o) = parse(&argv("profile --out /tmp/p.json --sample-every 4")).unwrap();
        assert_eq!(cmd, "profile");
        assert_eq!(o.out.as_deref(), Some("/tmp/p.json"));
        assert_eq!(o.sample_every, 4);
        assert!(parse(&argv("profile --sample-every 0")).is_err());

        let (cmd, _) = parse(&argv("check-bench")).unwrap();
        assert_eq!(cmd, "check-bench");
    }

    #[test]
    fn analyze_takes_a_positional_trace() {
        let (cmd, o) = parse(&argv("analyze trace.jsonl")).unwrap();
        assert_eq!(cmd, "analyze");
        assert_eq!(o.input.as_deref(), Some("trace.jsonl"));

        let (_, o) =
            parse(&argv("analyze a.jsonl --compare b.jsonl --json out.json")).unwrap();
        assert_eq!(o.input.as_deref(), Some("a.jsonl"));
        assert_eq!(o.compare.as_deref(), Some("b.jsonl"));
        assert_eq!(o.json_out.as_deref(), Some("out.json"));

        // Missing trace, stray second positional, positional without the
        // command.
        assert!(parse(&argv("analyze")).is_err());
        assert!(parse(&argv("analyze a.jsonl b.jsonl")).is_err());
        assert!(parse(&argv("trace.jsonl analyze")).is_err());
        // Commands still cannot be repeated.
        assert!(parse(&argv("fig4 fig5")).is_err());
    }

    #[test]
    fn packet_trace_modes() {
        use fifoms_sim::PacketTraceMode;
        let (_, o) = parse(&argv("sweep --packet-trace all")).unwrap();
        assert_eq!(o.packet_trace, PacketTraceMode::All);
        let (_, o) = parse(&argv("sweep --packet-trace 1/8")).unwrap();
        assert_eq!(o.packet_trace, PacketTraceMode::OneIn(8));
        let (_, o) = parse(&argv("sweep --packet-trace ring:4096")).unwrap();
        assert_eq!(o.packet_trace, PacketTraceMode::Ring(4096));
        let (_, o) = parse(&argv("sweep --packet-trace off")).unwrap();
        assert_eq!(o.packet_trace, PacketTraceMode::Off);
        for bad in ["1/0", "ring:0", "some", "ring:", "1/x"] {
            assert!(
                parse(&argv(&format!("sweep --packet-trace {bad}"))).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn check_bench_gate_flags() {
        let (cmd, o) = parse(&argv(
            "check-bench --baseline base.json --current cur.json --tolerance 0.5",
        ))
        .unwrap();
        assert_eq!(cmd, "check-bench");
        assert_eq!(o.baseline.as_deref(), Some("base.json"));
        assert_eq!(o.current.as_deref(), Some("cur.json"));
        assert_eq!(o.tolerance, 0.5);
        assert!(parse(&argv("check-bench --tolerance 0")).is_err());
        assert!(parse(&argv("check-bench --tolerance -0.1")).is_err());
    }

    #[test]
    fn perf_diff_takes_two_positionals() {
        let (cmd, o) = parse(&argv("perf-diff base.json cur.json")).unwrap();
        assert_eq!(cmd, "perf-diff");
        assert_eq!(o.baseline.as_deref(), Some("base.json"));
        assert_eq!(o.current.as_deref(), Some("cur.json"));

        let (_, o) = parse(&argv("perf-diff base.json cur.json --tolerance 0.3")).unwrap();
        assert_eq!(o.tolerance, 0.3);

        // Missing artifacts, stray third positional.
        assert!(parse(&argv("perf-diff")).is_err());
        assert!(parse(&argv("perf-diff base.json")).is_err());
        assert!(parse(&argv("perf-diff a.json b.json c.json")).is_err());
    }

    #[test]
    fn alloc_audit_parses() {
        let (cmd, o) = parse(&argv("alloc-audit --n 8 --slots 4000")).unwrap();
        assert_eq!(cmd, "alloc-audit");
        assert_eq!(o.n, 8);
        assert_eq!(o.slots, 4000);
    }

    #[test]
    fn chaos_flags() {
        let (cmd, o) = parse(&argv("chaos --smoke --seed 7")).unwrap();
        assert_eq!(cmd, "chaos");
        assert!(o.smoke);
        assert_eq!(o.seed, 7);
        assert_eq!(o.scenarios, 12);

        let (_, o) = parse(&argv(
            "chaos --scenarios 3 --scenario crosspoint_faults=2,retry_budget=1",
        ))
        .unwrap();
        assert_eq!(o.scenarios, 3);
        assert_eq!(
            o.scenario.as_deref(),
            Some("crosspoint_faults=2,retry_budget=1")
        );

        assert!(parse(&argv("chaos --scenarios 0")).is_err());
        assert!(parse(&argv("chaos --scenario")).is_err());
    }

    #[test]
    fn overload_flags() {
        let (cmd, o) = parse(&argv("overload --n 8 --points 4")).unwrap();
        assert_eq!(cmd, "overload");
        assert_eq!(o.voq_cap, 16);
        assert_eq!(o.input_cap, 64);
        let (_, o) = parse(&argv(
            "overload --voq-cap 4 --input-cap 32 --json loss.json",
        ))
        .unwrap();
        assert_eq!(o.voq_cap, 4);
        assert_eq!(o.input_cap, 32);
        assert_eq!(o.json_out.as_deref(), Some("loss.json"));
        assert!(parse(&argv("overload --voq-cap 0")).is_err());
        assert!(parse(&argv("overload --input-cap 0")).is_err());
    }

    #[test]
    fn telemetry_flags() {
        let (cmd, o) = parse(&argv(
            "sweep --timeseries-out ts.jsonl --snapshot-out snap.json \
             --prom-out metrics.prom --window 200",
        ))
        .unwrap();
        assert_eq!(cmd, "sweep");
        assert_eq!(o.timeseries_out.as_deref(), Some("ts.jsonl"));
        assert_eq!(o.snapshot_out.as_deref(), Some("snap.json"));
        assert_eq!(o.prom_out.as_deref(), Some("metrics.prom"));
        assert_eq!(o.window, 200);
        assert!(parse(&argv("sweep --window 0")).is_err());

        let (_, o) = parse(&argv("chaos --smoke --snapshot-out s.json")).unwrap();
        assert_eq!(o.snapshot_out.as_deref(), Some("s.json"));
        assert_eq!(o.window, 1_000, "window defaults to 1000 slots");
    }

    #[test]
    fn top_takes_a_positional_snapshot() {
        let (cmd, o) = parse(&argv("top snap.json")).unwrap();
        assert_eq!(cmd, "top");
        assert_eq!(o.input.as_deref(), Some("snap.json"));
        assert!(!o.once);
        assert_eq!(o.interval_ms, 500);

        let (_, o) = parse(&argv("top snap.json --once --timeseries ts.jsonl")).unwrap();
        assert!(o.once);
        assert_eq!(o.timeseries.as_deref(), Some("ts.jsonl"));

        let (_, o) = parse(&argv("top snap.json --interval-ms 100")).unwrap();
        assert_eq!(o.interval_ms, 100);

        assert!(parse(&argv("top")).is_err(), "top needs a snapshot path");
        assert!(parse(&argv("top a.json --interval-ms 0")).is_err());
    }

    #[test]
    fn check_bench_ledger_flags() {
        let (cmd, o) = parse(&argv(
            "check-bench --ledger results/bench_ledger.jsonl --ledger-note abc123",
        ))
        .unwrap();
        assert_eq!(cmd, "check-bench");
        assert_eq!(o.ledger.as_deref(), Some("results/bench_ledger.jsonl"));
        assert_eq!(o.ledger_note.as_deref(), Some("abc123"));
        assert!(parse(&argv("check-bench --ledger")).is_err());
    }

    #[test]
    fn lint_flags() {
        let (cmd, o) = parse(&argv("lint --explain R7")).unwrap();
        assert_eq!(cmd, "lint");
        assert_eq!(o.explain.as_deref(), Some("R7"));
        assert!(!o.stats);

        let (_, o) = parse(&argv("lint --stats --ledger results/l.jsonl")).unwrap();
        assert!(o.stats);
        assert_eq!(o.ledger.as_deref(), Some("results/l.jsonl"));

        assert!(parse(&argv("lint --explain")).is_err());
    }

    #[test]
    fn resume_implies_journal() {
        let (_, o) = parse(&argv("sweep --resume /tmp/j.txt")).unwrap();
        assert_eq!(o.journal.as_deref(), Some("/tmp/j.txt"));
        assert!(o.resume);
    }
}
