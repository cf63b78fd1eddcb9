//! Layered benchmark of the FIFOMS simulator.
//!
//! ```text
//! fifoms-layerbench --workload <bernoulli-n64|burst-n16|campaign-n8>
//!                   [--seed N] [--seconds S] [--trace 0|1] [--state-root DIR]
//! fifoms-layerbench --self-test [--state-root DIR]
//! ```
//!
//! One invocation first runs a counted repetition of the workload (no
//! clocks: the reference `RunResult`, the conservation check, the work
//! counts and the peak RSS), then repeats the workload until `--seconds`
//! of host time have passed. Untraced repetitions give the end-to-end
//! metrics: slot times are per-slot minima over blocks of repetitions,
//! set-up is the median. With `--trace 1`, traced repetitions interleaved
//! with them give the per-layer split. Every repetition is closed-loop and
//! single-threaded: the engine starts a slot only when the previous one
//! has finished. `layerbench/BASELINE.md` defines every metric.
//!
//! Human-readable lines come first; the last line of stdout is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`, where
//! `attempted`/`failed` count output checks (their ratio is `error_rate`).
//! `--self-test` runs every workload with a shim that swallows one
//! departure and exits 0 only if the checks report `error_rate > 0`.

mod layers;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fifoms_obs::Json;

use layers::{
    Call, LayerStats, Mode, Tracer, CALL_NAMES, CHECKED, CORE, FAULTY, INSTRUMENTED, LAYER_NAMES,
};
use stats::{median, peak_rss_mib, quantile};
use workloads::{
    canonical, cost_end_state, newest_checkpoint_seq, pinned, remove_dir, run_rep, Costs, Rep,
    RepSpec, Seeds, Workload, DEFAULT_SEED,
};

/// Untraced repetitions per block of per-slot minima. The minimum keeps
/// falling as repetitions are added (by under 1% past eight on the bare
/// workloads, by several percent on campaign-n8, whose slots write files),
/// so a fixed count keeps the estimate independent of how many
/// repetitions a commit fits into `--seconds`. An untraced run completes at
/// least one block, even past `--seconds`.
const BLOCK_REPS: usize = 8;
/// Traced runs report no end-to-end metric; they stop at `--seconds` once
/// this many untraced repetitions (for the tracing overhead) have run.
const MIN_TRACED_RUN_REPS: usize = 3;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    state_root: PathBuf,
    self_test: bool,
}

const USAGE: &str = "usage: fifoms-layerbench --workload <bernoulli-n64|burst-n16|campaign-n8> \
[--seed N] [--seconds S] [--trace 0|1] [--state-root DIR] | --self-test [--state-root DIR]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        state_root: PathBuf::from(".layerbench-state"),
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} '{value}'");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Workload::from_name(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad("not a positive duration"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--state-root" => args.state_root = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Output checks; `failed / attempted` is the run's `error_rate`.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Record one repetition's checks. A repetition whose engine call
    /// errored fails every check it would have run.
    fn record(&mut self, label: &str, rep: &Rep, list: Vec<(&'static str, bool, String)>) {
        let errored = rep.result.is_err();
        for (name, ok, detail) in list {
            self.attempted += 1;
            if errored || !ok {
                self.failed += 1;
                eprintln!("check failed [{label}] {name}: {detail}");
            }
        }
    }

    fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// Switch layers a workload's stack has, outermost first.
fn present_layers(w: Workload) -> &'static [usize] {
    if w.is_campaign() {
        &[CHECKED, FAULTY, INSTRUMENTED, CORE]
    } else {
        &[CORE]
    }
}

/// One or more traced repetitions reduced to layer self times. Spans nest,
/// so a layer's self time is its shim's span minus the next shim's, and
/// the engine's is the slot time left outside the traffic model and the
/// outermost switch shim.
#[derive(Clone, Copy, Default)]
struct Split {
    slots: u64,
    loop_ns: u64,
    traffic_ns: u64,
    layers: [LayerStats; 4],
}

impl Split {
    fn from_tracer(t: &Tracer) -> Split {
        Split {
            slots: t.slots(),
            loop_ns: t.loop_ns(),
            traffic_ns: t.traffic_ns(),
            layers: t.layers(),
        }
    }

    fn add(&mut self, other: &Split) {
        self.slots += other.slots;
        self.loop_ns += other.loop_ns;
        self.traffic_ns += other.traffic_ns;
        for (mine, theirs) in self.layers.iter_mut().zip(&other.layers) {
            mine.add(theirs);
        }
    }

    /// Self ns of every switch layer (0 for layers the stack lacks).
    fn self_ns(&self, w: Workload) -> [i128; 4] {
        let present = present_layers(w);
        let mut out = [0i128; 4];
        for (k, &l) in present.iter().enumerate() {
            let inner = present.get(k + 1).map_or(0, |&i| self.layers[i].total_ns());
            out[l] = i128::from(self.layers[l].total_ns()) - i128::from(inner);
        }
        out
    }

    fn engine_ns(&self, w: Workload) -> i128 {
        let outermost = self.layers[present_layers(w)[0]].total_ns();
        i128::from(self.loop_ns) - i128::from(self.traffic_ns) - i128::from(outermost)
    }

    /// Every self time is non-negative and they sum to the slot time.
    fn consistent(&self, w: Workload) -> Result<(), String> {
        let selfs = self.self_ns(w);
        let engine = self.engine_ns(w);
        if let Some(l) = (0..4).find(|&l| selfs[l] < 0) {
            return Err(format!("{} self time {} ns < 0", LAYER_NAMES[l], selfs[l]));
        }
        if engine < 0 {
            return Err(format!("engine self time {engine} ns < 0"));
        }
        let sum = selfs.iter().sum::<i128>() + i128::from(self.traffic_ns) + engine;
        if sum != i128::from(self.loop_ns) {
            return Err(format!(
                "layer sum {sum} ns != slot time {} ns",
                self.loop_ns
            ));
        }
        Ok(())
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn rep_checks(
    w: Workload,
    seeds: &Seeds,
    rep: &Rep,
    reference: Option<&str>,
) -> Vec<(&'static str, bool, String)> {
    let cfg = w.run_config();
    let mut list = Vec::new();
    let result = rep.result.as_ref();
    list.push((
        "engine returned Ok",
        result.is_ok(),
        result.err().map_or(String::new(), ToString::to_string),
    ));
    let canon = result.map(canonical).unwrap_or_default();
    list.push((
        "verdict is stable",
        result.is_ok_and(|r| r.is_stable()),
        result.map_or(String::new(), |r| format!("{:?}", r.verdict)),
    ));
    list.push((
        "slots_run equals the requested length",
        result.is_ok_and(|r| r.slots_run == cfg.slots),
        result.map_or(String::new(), |r| {
            format!("{} of {}", r.slots_run, cfg.slots)
        }),
    ));
    match reference {
        Some(reference) => list.push((
            "RunResult identical to the counted run's",
            canon == reference,
            format!("{canon} != {reference}"),
        )),
        None if seeds.workload == DEFAULT_SEED => list.push((
            "RunResult equals the pinned default-seed result",
            canon == pinned(w),
            format!("got {canon}"),
        )),
        None => {}
    }
    if let Some(c) = &rep.campaign {
        list.push((
            "CheckedSwitch::violation() is None",
            c.violation.is_none(),
            c.violation.clone().unwrap_or_default(),
        ));
        list.push((
            "snapshot bus reports zero write errors",
            c.bus_write_errors == 0,
            format!("{} write errors", c.bus_write_errors),
        ));
        let expected = newest_checkpoint_seq(cfg.slots);
        list.push((
            "RecoveryRuntime::open resumes from the newest checkpoint",
            c.resumed_seq == Ok(Some(expected)),
            format!("resumed {:?}, expected seq {expected}", c.resumed_seq),
        ));
    }
    match rep.tracer.mode() {
        Mode::Counted => {
            let offered = rep.tracer.copies();
            let delivered = rep.tracer.layers()[present_layers(w)[0]].departures;
            let accounted = delivered + rep.backlog + rep.reconciled_drops + rep.admission_drops;
            list.push((
                "copies offered = delivered + backlog + reconciled drops + admission drops",
                offered == accounted,
                format!(
                    "offered {offered}, delivered {delivered} + backlog {} + reconciled {} + \
                     admission {} = {accounted}",
                    rep.backlog, rep.reconciled_drops, rep.admission_drops
                ),
            ));
        }
        Mode::Traced => {
            let split = Split::from_tracer(&rep.tracer);
            let verdict = split.consistent(w);
            list.push((
                "layer self times are non-negative and sum to the slot time",
                verdict.is_ok(),
                verdict.err().unwrap_or_default(),
            ));
        }
        Mode::Plain => {}
    }
    list
}

/// End-to-end figures of one untraced repetition.
struct PlainSample {
    setup_ns: u64,
    slots_per_sec: f64,
    slot_ns: f64,
}

impl PlainSample {
    fn of(rep: &Rep) -> PlainSample {
        let t = &rep.tracer;
        PlainSample {
            setup_ns: rep.setup_ns,
            slots_per_sec: t.slots() as f64 / (t.loop_ns() as f64 / 1e9),
            slot_ns: t.loop_ns() as f64 / t.slots() as f64,
        }
    }
}

type Metric = (&'static str, f64, &'static str);

/// `[slots/s, p50 us, p99 us, p99.9 us]` of one block's per-slot minima
/// (see `Tracer::new`): throughput divides the slots by their sum, which is
/// the first-slot-to-end time with every slot at its fastest observed
/// time; the quantiles are exact order statistics.
fn block_stats(slot_min: &[u32]) -> [f64; 4] {
    let mut slots: Vec<u32> = slot_min
        .iter()
        .copied()
        .filter(|&ns| ns != u32::MAX)
        .collect();
    slots.sort_unstable();
    let total_s = slots.iter().map(|&ns| f64::from(ns)).sum::<f64>() / 1e9;
    let q = |p| quantile(&slots, p) / 1e3;
    [slots.len() as f64 / total_s, q(0.5), q(0.99), q(0.999)]
}

/// Slot-time metrics are medians over blocks; set-up is the median over
/// repetitions.
fn end_to_end(plain: &[PlainSample], blocks: &[[f64; 4]], peak_rss: f64) -> Vec<Metric> {
    let over_blocks = |i: usize| median(&mut blocks.iter().map(|b| b[i]).collect::<Vec<_>>());
    let setup_s = median(
        &mut plain
            .iter()
            .map(|p| p.setup_ns as f64 / 1e9)
            .collect::<Vec<_>>(),
    );
    vec![
        ("slots_per_sec", over_blocks(0), "slots/s"),
        ("slot_us_p50", over_blocks(1), "us"),
        ("slot_us_p99", over_blocks(2), "us"),
        ("slot_us_p999", over_blocks(3), "us"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss, "MiB"),
    ]
}

fn per_layer(
    w: Workload,
    split: &Split,
    counted: &Rep,
    costs: &Costs,
    overhead: f64,
) -> Vec<Metric> {
    let slots = split.slots as f64;
    let selfs = split.self_ns(w);
    let core = &split.layers[CORE];
    let c = &counted.tracer;
    let cslots = c.slots() as f64;
    let counts = c.layers();
    let outer = &counts[present_layers(w)[0]];
    let hol = c.hol();
    let faults = counted
        .campaign
        .as_ref()
        .map(|e| e.faults)
        .unwrap_or_default();
    let per_slot = |ns: i128| ns as f64 / slots;
    vec![
        ("traffic.ns_per_slot", split.traffic_ns as f64 / slots, "ns"),
        (
            "traffic.copies_per_slot",
            c.copies() as f64 / cslots,
            "count",
        ),
        ("core.ns_per_slot", per_slot(selfs[CORE]), "ns"),
        (
            "core.run_slot_ns",
            core.ns[Call::RunSlot as usize] as f64 / slots,
            "ns",
        ),
        (
            "core.admit_ns_per_packet",
            ratio(
                core.ns[Call::Admit as usize] as f64,
                core.calls[Call::Admit as usize] as f64,
            ),
            "ns",
        ),
        (
            "core.query_ns_per_slot",
            core.ns[Call::Query as usize] as f64 / slots,
            "ns",
        ),
        (
            "core.rounds_per_slot",
            counts[CORE].rounds as f64 / cslots,
            "count",
        ),
        (
            "core.hol_cells_per_slot",
            hol.hol_cells as f64 / cslots,
            "count",
        ),
        (
            "core.hol_cells_per_stamp",
            ratio(hol.hol_cells as f64, hol.stamps as f64),
            "ratio",
        ),
        (
            "core.served_per_hol_cell",
            ratio(counts[CORE].connections as f64, hol.hol_cells as f64),
            "ratio",
        ),
        (
            "core.live_data_cells",
            ratio(hol.live_cells as f64, hol.busy_inputs as f64),
            "count",
        ),
        ("fabric.checked.ns_per_slot", per_slot(selfs[CHECKED]), "ns"),
        ("fabric.faulty.ns_per_slot", per_slot(selfs[FAULTY]), "ns"),
        (
            "fabric.instrumented.ns_per_slot",
            per_slot(selfs[INSTRUMENTED]),
            "ns",
        ),
        (
            "fabric.hook_calls_per_slot",
            outer.total_calls() as f64 / cslots,
            "count",
        ),
        (
            "fabric.events_per_slot",
            outer.events as f64 / cslots,
            "count",
        ),
        (
            "fabric.faulty.copies_killed_per_kslot",
            faults.copies_killed as f64 * 1e3 / cslots,
            "count",
        ),
        (
            "fabric.faulty.requeued_per_killed",
            ratio(faults.copies_requeued as f64, faults.copies_killed as f64),
            "ratio",
        ),
        ("obs.telemetry.publish_us", costs.publish_us, "us"),
        (
            "obs.telemetry.snapshot_bytes",
            costs.snapshot_bytes,
            "bytes",
        ),
        ("sim.recover.checkpoint_ms", costs.checkpoint_ms, "ms"),
        (
            "sim.recover.checkpoint_bytes",
            costs.checkpoint_bytes,
            "bytes",
        ),
        ("sim.recover.wal_append_ns", costs.wal_append_ns, "ns"),
        (
            "sim.recover.wal_bytes_per_slot",
            costs.wal_bytes_per_slot,
            "bytes",
        ),
        (
            "sim.engine.self_ns_per_slot",
            per_slot(split.engine_ns(w)),
            "ns",
        ),
        ("sim.engine.slot_ns", split.loop_ns as f64 / slots, "ns"),
        ("sim.engine.tracing_overhead", overhead, "ratio"),
    ]
}

/// The traced repetitions' spans, aggregated per layer and call class.
fn trace_dump(split: &Split, reps: usize) -> Json {
    let mut layers = Json::object();
    for (l, name) in LAYER_NAMES.iter().enumerate() {
        let mut calls = Json::object();
        for (c, call) in CALL_NAMES.iter().enumerate() {
            let mut entry = Json::object();
            entry.set("ns", split.layers[l].ns[c]);
            entry.set("calls", split.layers[l].calls[c]);
            calls.set(call, entry);
        }
        layers.set(name, calls);
    }
    let mut doc = Json::object();
    doc.set("reps", reps);
    doc.set("slots", split.slots);
    doc.set("slot_ns_total", split.loop_ns);
    doc.set("traffic_next_slot_ns", split.traffic_ns);
    doc.set("switch_shims", layers);
    let mut out = Json::object();
    out.set("trace", doc);
    out
}

fn print_metrics(metrics: &[Metric]) {
    for (name, value, unit) in metrics {
        println!("metric {name:<40} {value:>24} {unit}");
    }
}

fn result_line(correct: bool, checks: &Checks, metrics: &[Metric]) -> Json {
    let mut m = Json::object();
    for (name, value, unit) in metrics {
        let mut entry = Json::object();
        entry.set("value", *value);
        entry.set("unit", *unit);
        m.set(name, entry);
    }
    let mut doc = Json::object();
    doc.set("correct", correct);
    doc.set("attempted", checks.attempted);
    doc.set("failed", checks.failed);
    doc.set("metrics", m);
    doc
}

/// Per-repetition state directories under `root`.
struct StateDirs {
    root: PathBuf,
    prefix: String,
    next: u64,
}

impl StateDirs {
    fn new(root: &std::path::Path, w: Workload) -> StateDirs {
        StateDirs {
            root: root.to_path_buf(),
            prefix: format!("{}-{}", w.name(), std::process::id()),
            next: 0,
        }
    }

    fn next(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{}-{}", self.prefix, self.next))
    }

    /// Remove the root if this run left it empty.
    fn close(&self) {
        let _ = std::fs::remove_dir(&self.root);
    }
}

fn spec<'a>(w: Workload, seeds: &'a Seeds, mode: Mode, dirs: &mut StateDirs) -> RepSpec<'a> {
    RepSpec {
        workload: w,
        seeds,
        mode,
        dir: dirs.next(),
        sabotage: false,
        retain: false,
        slot_min: Vec::new(),
    }
}

fn bench(args: &Args, w: Workload) -> ExitCode {
    let seeds = Seeds::derive(args.seed);
    let mut dirs = StateDirs::new(&args.state_root, w);
    let mut checks = Checks::default();

    let mut counted_spec = spec(w, &seeds, Mode::Counted, &mut dirs);
    counted_spec.retain = args.trace && w.is_campaign();
    let mut counted = run_rep(counted_spec);
    // The high-water mark of one full run of the workload, read before the
    // timing repetitions allocate the slot recorder.
    let peak_rss = peak_rss_mib().unwrap_or(f64::NAN);
    checks.record("counted", &counted, rep_checks(w, &seeds, &counted, None));
    let reference = counted.result.as_ref().ok().map(canonical);
    let reference = reference.as_deref().unwrap_or("counted run failed");

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut plain = Vec::new();
    let mut slot_min = vec![u32::MAX; w.run_config().slots as usize];
    let mut blocks = Vec::new();
    let mut traced = Split::default();
    let mut traced_slot_ns = Vec::new();
    loop {
        let mut plain_spec = spec(w, &seeds, Mode::Plain, &mut dirs);
        plain_spec.slot_min = slot_min;
        let rep = run_rep(plain_spec);
        slot_min = rep.tracer.take_slot_min();
        if (plain.len() + 1) % BLOCK_REPS == 0 {
            let block = block_stats(&slot_min);
            eprintln!(
                "block {:>2}: {:>10.1} slots/s  p50 {:.3} us  p99 {:.3} us  p999 {:.3} us",
                blocks.len() + 1,
                block[0],
                block[1],
                block[2],
                block[3]
            );
            blocks.push(block);
            slot_min.fill(u32::MAX);
        }
        checks.record(
            "untraced",
            &rep,
            rep_checks(w, &seeds, &rep, Some(reference)),
        );
        let sample = PlainSample::of(&rep);
        eprintln!(
            "rep {:>3}: setup {:>8.1} us  {:>10.1} slots/s",
            plain.len() + 1,
            sample.setup_ns as f64 / 1e3,
            sample.slots_per_sec,
        );
        plain.push(sample);
        if args.trace {
            let rep = run_rep(spec(w, &seeds, Mode::Traced, &mut dirs));
            checks.record("traced", &rep, rep_checks(w, &seeds, &rep, Some(reference)));
            let split = Split::from_tracer(&rep.tracer);
            traced_slot_ns.push(split.loop_ns as f64 / split.slots.max(1) as f64);
            traced.add(&split);
        }
        let min_reps = if args.trace {
            MIN_TRACED_RUN_REPS
        } else {
            BLOCK_REPS
        };
        if started.elapsed() >= budget && plain.len() >= min_reps {
            break;
        }
    }
    if blocks.is_empty() {
        // A traced run's end-to-end lines are informational; give them the
        // partial block.
        blocks.push(block_stats(&slot_min));
    }
    let measured_s = started.elapsed().as_secs_f64();

    let mut costs = Costs::default();
    if let Some(kept) = counted.retained.take() {
        let outcome = cost_end_state(w, &seeds, &kept);
        checks.attempted += 1;
        match outcome {
            Ok(c) => costs = c,
            Err(e) => {
                checks.failed += 1;
                eprintln!("check failed [costing] end-state layer calls succeed: {e}");
            }
        }
        remove_dir(&kept.dir);
    }
    dirs.close();

    let mut provenance = Json::object();
    provenance.set("benchmark", "fifoms-layerbench");
    provenance.set("mode", if args.trace { "traced" } else { "untraced" });
    provenance.set("loop", "closed, single-threaded, one process");
    provenance.set("workload", w.provenance(&seeds));
    provenance.set("untraced_reps", plain.len());
    provenance.set("traced_reps", traced_slot_ns.len());
    provenance.set("measured_s", measured_s);
    provenance.set("slot_samples", slot_min.len());
    provenance.set("block_reps", BLOCK_REPS);
    provenance.set("blocks", blocks.len());
    provenance.set(
        "rep_slots_per_sec_median",
        median(&mut plain.iter().map(|p| p.slots_per_sec).collect::<Vec<_>>()),
    );
    provenance.set(
        "host_cpus",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!("{provenance}");

    let e2e = end_to_end(&plain, &blocks, peak_rss);
    print_metrics(&e2e);
    println!(
        "metric {:<40} {:>24} ratio ({} of {} checks failed)",
        "error_rate",
        checks.error_rate(),
        checks.failed,
        checks.attempted
    );
    let reported = if args.trace {
        let untraced_slot_ns = median(&mut plain.iter().map(|p| p.slot_ns).collect::<Vec<_>>());
        let overhead = median(&mut traced_slot_ns) / untraced_slot_ns - 1.0;
        let layers = per_layer(w, &traced, &counted, &costs, overhead);
        print_metrics(&layers);
        println!("{}", trace_dump(&traced, traced_slot_ns.len()));
        layers
    } else {
        e2e
    };
    let finite = reported.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        checks.attempted += 1;
        checks.failed += 1;
        eprintln!("check failed: every metric is a finite number");
    }
    println!("{}", result_line(checks.failed == 0, &checks, &reported));
    ExitCode::SUCCESS
}

/// Run every workload with a shim that swallows one departure after
/// warmup; the checks must notice.
fn self_test(args: &Args) -> ExitCode {
    let seeds = Seeds::derive(DEFAULT_SEED);
    let mut rates = Json::object();
    let mut caught = true;
    for w in Workload::ALL {
        let mut dirs = StateDirs::new(&args.state_root, w);
        let mut checks = Checks::default();
        let mut sabotaged = spec(w, &seeds, Mode::Counted, &mut dirs);
        sabotaged.sabotage = true;
        let counted = run_rep(sabotaged);
        checks.record("sabotaged", &counted, rep_checks(w, &seeds, &counted, None));
        let reference = counted.result.as_ref().map(canonical).unwrap_or_default();
        let rep = run_rep(spec(w, &seeds, Mode::Plain, &mut dirs));
        checks.record(
            "untraced",
            &rep,
            rep_checks(w, &seeds, &rep, Some(&reference)),
        );
        dirs.close();
        println!(
            "self-test {:<14} error_rate {:.4} ({} of {} checks failed)",
            w.name(),
            checks.error_rate(),
            checks.failed,
            checks.attempted
        );
        caught &= checks.failed > 0;
        rates.set(w.name(), checks.error_rate());
    }
    let mut doc = Json::object();
    doc.set("self_test", rates);
    doc.set("sabotage_caught", caught);
    println!("{doc}");
    if caught {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return self_test(&args);
    }
    match args.workload {
        Some(w) => bench(&args, w),
        None => {
            eprintln!("error: --workload is required\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
