//! One function per paper figure, plus extension experiments.

use std::ops::ControlFlow;
use std::sync::Arc;

use fifoms_obs::{EventSink, Json, JsonlSink, MetricsRegistry, ProgressMeter};
use fifoms_sim::report::{figure_table, sweep_csv, Metric};
use fifoms_sim::{
    run, CellOutcome, CellPolicy, FaultConfig, Observer, RunConfig, SlotHook, Sweep, SweepObserver,
    SweepRow, SwitchKind, TrafficKind,
};
use fifoms_stats::FairnessTracker;
use fifoms_types::{SimError, Slot, SlotOutcome};

use crate::args::Options;

/// Evenly spaced loads in `[lo, hi]` with `points` points.
fn loads(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    if points == 1 {
        return vec![hi];
    }
    (0..points)
        .map(|i| lo + (hi - lo) * i as f64 / (points - 1) as f64)
        .collect()
}

fn run_config(opts: &Options) -> RunConfig {
    RunConfig::paper(opts.slots)
}

fn execute(opts: &Options, sweep: &Sweep) -> Vec<SweepRow> {
    sweep.run_parallel(opts.threads)
}

fn print_figure(
    title: &str,
    rows: &[SweepRow],
    switches: &[SwitchKind],
    metrics: &[Metric],
    opts: &Options,
    csv_name: &str,
) {
    println!("\n=== {title} ===");
    for metric in metrics {
        println!("\n--- {} ---", metric.title());
        print!("{}", figure_table(rows, switches, *metric).render());
        if opts.plot {
            let chart = fifoms_sim::plot::ascii_plot(
                rows,
                switches,
                *metric,
                &fifoms_sim::plot::PlotOptions::default(),
            );
            if !chart.is_empty() {
                println!("\n{chart}");
            }
        }
    }
    println!("(* = operating point beyond the scheduler's stability region)");
    if let Some(dir) = &opts.csv_dir {
        let path = format!("{dir}/{csv_name}.csv");
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, sweep_csv(rows)))
        {
            eprintln!("warning: could not write {path}: {e}");
        } else {
            println!("wrote {path}");
        }
    }
}

const FOUR_PANELS: &[Metric] = &[
    Metric::InputDelay,
    Metric::OutputDelay,
    Metric::AvgQueue,
    Metric::MaxQueue,
];

/// Fig. 4: 16×16, Bernoulli b=0.2, loads 0.1..1.0.
pub fn fig4(opts: &Options) -> Result<(), SimError> {
    let b = 0.2;
    let sweep = Sweep {
        n: opts.n,
        switches: SwitchKind::paper_set(),
        points: loads(0.1, 1.0, opts.points)
            .into_iter()
            .map(|l| (l, TrafficKind::bernoulli_at_load(l, b, opts.n)))
            .collect(),
        run: run_config(opts),
        seed: opts.seed,
    };
    let rows = execute(opts, &sweep);
    print_figure(
        &format!("Fig. 4: {0}x{0} switch, Bernoulli traffic, b = {b}", opts.n),
        &rows,
        &sweep.switches,
        FOUR_PANELS,
        opts,
        "fig4",
    );
    Ok(())
}

/// Fig. 5: convergence rounds of FIFOMS vs iSLIP under the Fig. 4 traffic.
pub fn fig5(opts: &Options) -> Result<(), SimError> {
    let b = 0.2;
    let switches = vec![SwitchKind::Fifoms, SwitchKind::Islip(None)];
    let sweep = Sweep {
        n: opts.n,
        switches: switches.clone(),
        points: loads(0.1, 1.0, opts.points)
            .into_iter()
            .map(|l| (l, TrafficKind::bernoulli_at_load(l, b, opts.n)))
            .collect(),
        run: run_config(opts),
        seed: opts.seed,
    };
    let rows = execute(opts, &sweep);
    print_figure(
        &format!(
            "Fig. 5: average convergence rounds, {0}x{0} switch, Bernoulli b = {b}",
            opts.n
        ),
        &rows,
        &switches,
        &[Metric::Rounds],
        opts,
        "fig5",
    );
    Ok(())
}

/// Fig. 6: uniform traffic, maxFanout = 1 (pure unicast).
pub fn fig6(opts: &Options) -> Result<(), SimError> {
    uniform_figure(opts, 1, "Fig. 6", "fig6")
}

/// Fig. 7: uniform traffic, maxFanout = 8.
pub fn fig7(opts: &Options) -> Result<(), SimError> {
    uniform_figure(opts, 8, "Fig. 7", "fig7")
}

fn uniform_figure(opts: &Options, max_fanout: usize, title: &str, csv: &str) -> Result<(), SimError> {
    let sweep = Sweep {
        n: opts.n,
        switches: SwitchKind::paper_set(),
        points: loads(0.1, 1.0, opts.points)
            .into_iter()
            .map(|l| (l, TrafficKind::uniform_at_load(l, max_fanout)))
            .collect(),
        run: run_config(opts),
        seed: opts.seed,
    };
    let rows = execute(opts, &sweep);
    print_figure(
        &format!(
            "{title}: {0}x{0} switch, uniform traffic, maxFanout = {max_fanout}",
            opts.n
        ),
        &rows,
        &sweep.switches,
        FOUR_PANELS,
        opts,
        csv,
    );
    Ok(())
}

/// Fig. 8: burst traffic, E_on = 16, b = 0.5.
pub fn fig8(opts: &Options) -> Result<(), SimError> {
    let (e_on, b) = (16.0, 0.5);
    let sweep = Sweep {
        n: opts.n,
        switches: SwitchKind::paper_set(),
        points: loads(0.1, 0.9, opts.points)
            .into_iter()
            .map(|l| (l, TrafficKind::burst_at_load(l, e_on, b, opts.n)))
            .collect(),
        run: run_config(opts),
        seed: opts.seed,
    };
    let rows = execute(opts, &sweep);
    print_figure(
        &format!(
            "Fig. 8: {0}x{0} switch, burst traffic, E_on = {e_on}, b = {b}",
            opts.n
        ),
        &rows,
        &sweep.switches,
        FOUR_PANELS,
        opts,
        "fig8",
    );
    Ok(())
}

/// Extension: FIFOMS design-choice ablations under the Fig. 4 workload.
pub fn ablation(opts: &Options) -> Result<(), SimError> {
    use fifoms_core::TieBreak;
    let b = 0.2;
    let switches = vec![
        SwitchKind::Fifoms,
        SwitchKind::FifomsSingleRequest,
        SwitchKind::FifomsMaxRounds(1),
        SwitchKind::FifomsMaxRounds(2),
        SwitchKind::FifomsTieBreak(TieBreak::LowestInput),
        SwitchKind::FifomsTieBreak(TieBreak::Rotating),
        SwitchKind::McFifo { splitting: true },
        SwitchKind::McFifo { splitting: false },
        SwitchKind::Wba,
    ];
    let sweep = Sweep {
        n: opts.n,
        switches: switches.clone(),
        points: loads(0.2, 0.9, opts.points.min(6))
            .into_iter()
            .map(|l| (l, TrafficKind::bernoulli_at_load(l, b, opts.n)))
            .collect(),
        run: run_config(opts),
        seed: opts.seed,
    };
    let rows = execute(opts, &sweep);
    print_figure(
        &format!(
            "Ablations: {0}x{0} switch, Bernoulli b = {b} (FIFOMS variants and naive baselines)",
            opts.n
        ),
        &rows,
        &switches,
        &[Metric::OutputDelay, Metric::Throughput],
        opts,
        "ablation",
    );
    Ok(())
}

/// Extension: mixed unicast/multicast traffic (the introduction's hard
/// case for single-input-queued schedulers: "especially when the incoming
/// traffic has mixed multicast and unicast packets").
pub fn mixed(opts: &Options) -> Result<(), SimError> {
    let n = opts.n;
    let switches = vec![
        SwitchKind::Fifoms,
        SwitchKind::Tatra,
        SwitchKind::Wba,
        SwitchKind::Islip(None),
        SwitchKind::OqFifo,
    ];
    // Fix the effective load at 0.7 and sweep the multicast fraction: the
    // mean fanout rises with the fraction, so p falls correspondingly.
    let load = 0.7;
    let b = 0.2;
    let fractions = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0];
    let mut points: Vec<(f64, TrafficKind)> = Vec::with_capacity(fractions.len());
    for frac in fractions {
        // compute p so p * mean_fanout == load, using the model itself;
        // invalid combinations surface as a diagnostic, not a panic
        let probe = fifoms_traffic::MixedTraffic::new(n, 1.0, frac, b, 0)?;
        let p = load / probe.mean_fanout();
        let tk = TrafficKind::Mixed {
            p,
            frac_multicast: frac,
            b,
        };
        points.push((frac, tk));
    }
    let sweep = Sweep {
        n,
        switches: switches.clone(),
        points,
        run: run_config(opts),
        seed: opts.seed,
    };
    let rows = execute(opts, &sweep);
    println!(
        "\n=== Mixed traffic: {n}x{n} switch, effective load {load}, x-axis = multicast fraction ==="
    );
    for metric in [Metric::InputDelay, Metric::OutputDelay, Metric::AvgQueue] {
        println!("\n--- {} (x = multicast fraction) ---", metric.title());
        print!("{}", figure_table(&rows, &switches, metric).render());
    }
    println!("(* = operating point beyond the scheduler's stability region)");
    Ok(())
}

/// Extension: how the comparison scales with switch size `N` at a fixed
/// effective load.
pub fn scaling(opts: &Options) -> Result<(), SimError> {
    let (load, b_fanout) = (0.7, 4.0); // average fanout 4 at every N
    let switches = SwitchKind::paper_set();
    println!("\n=== Scaling: delay vs switch size at load {load}, mean fanout 4 ===");
    let mut table = fifoms_sim::report::Table::new(
        std::iter::once("N".to_string())
            .chain(switches.iter().map(|s| s.label()))
            .collect::<Vec<_>>(),
    );
    for n in [8usize, 16, 32, 64] {
        let sweep = Sweep {
            n,
            switches: switches.clone(),
            points: vec![(load, TrafficKind::bernoulli_at_load(load, b_fanout / n as f64, n))],
            run: run_config(opts),
            seed: opts.seed,
        };
        let rows = execute(opts, &sweep);
        let mut cells = vec![format!("{n}")];
        for sk in &switches {
            // A missing cell renders as a dash instead of panicking.
            cells.push(match rows.iter().find(|r| r.switch == *sk) {
                Some(r) => {
                    let star = if r.result.is_stable() { "" } else { "*" };
                    format!("{:.3}{star}", r.result.delay.mean_output_oriented)
                }
                None => "-".to_string(),
            });
        }
        table.push_row(cells);
    }
    print!("{}", table.render());
    println!("(output-oriented delay in slots; * = unstable)");
    Ok(())
}

/// Extension: Jain fairness of per-input service under asymmetric demand.
pub fn fairness(opts: &Options) -> Result<(), SimError> {
    let n = opts.n;
    println!("\n=== Fairness: Jain index of per-input delivered copies (uniform multicast, load 0.9) ===");
    let mut table = fifoms_sim::report::Table::new(vec![
        "scheduler".to_string(),
        "jain-index".to_string(),
        "max/min".to_string(),
    ]);
    // The table compares service shares, so no backlog cap cuts a run
    // short.
    let cfg = RunConfig {
        slots: opts.slots,
        warmup: opts.slots / 2,
        backlog_cap: usize::MAX,
        sample_every: 100,
    };
    for sk in [
        SwitchKind::Fifoms,
        SwitchKind::Tatra,
        SwitchKind::Wba,
        SwitchKind::Islip(None),
        SwitchKind::TwoDrr,
        SwitchKind::OqFifo,
    ] {
        let mut sw = sk.build(n, opts.seed);
        let mut tr = TrafficKind::bernoulli_at_load(0.9, 0.2, n).build(n, opts.seed ^ 0xF00D);
        let mut hook = FairnessHook {
            tracker: FairnessTracker::new(n),
            warmup: cfg.warmup,
        };
        run(
            sw.as_mut(),
            tr.as_mut(),
            &cfg,
            &mut Observer::none(),
            None,
            &mut hook,
        )?;
        table.push_row(vec![
            sk.label(),
            format!("{:.5}", hook.tracker.jain_index()),
            format!("{:.3}", hook.tracker.max_min_ratio()),
        ]);
    }
    print!("{}", table.render());
    println!("(1.0 = perfectly equal service across inputs)");
    Ok(())
}

/// Counts each input's delivered copies after warmup.
struct FairnessHook {
    tracker: FairnessTracker,
    warmup: u64,
}

impl<S: ?Sized> SlotHook<S> for FairnessHook {
    fn after_slot(&mut self, _: &mut S, now: Slot, outcome: &SlotOutcome) -> ControlFlow<()> {
        if now.0 >= self.warmup {
            for d in &outcome.departures {
                self.tracker.record(d.input.index(), 1);
            }
        }
        ControlFlow::Continue(())
    }
}

/// Extension: the §I claim that output queueing needs internal speedup N —
/// sweep the speedup of the OQ switch and watch throughput/delay degrade.
pub fn oq_speedup(opts: &Options) -> Result<(), SimError> {
    let n = opts.n;
    let switches: Vec<SwitchKind> = [1usize, 2, 4, 8, n]
        .iter()
        .map(|&s| SwitchKind::OqSpeedup(s))
        .chain([SwitchKind::Fifoms, SwitchKind::OqFifo])
        .collect();
    let sweep = Sweep {
        n,
        switches: switches.clone(),
        points: loads(0.3, 0.95, opts.points.min(6))
            .into_iter()
            .map(|l| (l, TrafficKind::bernoulli_at_load(l, 0.2, n)))
            .collect(),
        run: run_config(opts),
        seed: opts.seed,
    };
    let rows = execute(opts, &sweep);
    print_figure(
        &format!(
            "OQ speedup requirement: {n}x{n} switch, Bernoulli b = 0.2 (§I: OQ needs S = N)"
        ),
        &rows,
        &switches,
        &[Metric::OutputDelay, Metric::Throughput],
        opts,
        "oq_speedup",
    );
    Ok(())
}

/// Extension: sustained-throughput comparison at overload.
pub fn throughput(opts: &Options) -> Result<(), SimError> {
    let b = 0.2;
    let switches = vec![
        SwitchKind::Fifoms,
        SwitchKind::Tatra,
        SwitchKind::Islip(None),
        SwitchKind::Pim(None),
        SwitchKind::Wba,
        SwitchKind::OqFifo,
        SwitchKind::McFifo { splitting: true },
        SwitchKind::McFifo { splitting: false },
    ];
    let sweep = Sweep {
        n: opts.n,
        switches: switches.clone(),
        points: loads(0.5, 1.2, opts.points.min(8))
            .into_iter()
            .map(|l| (l, TrafficKind::bernoulli_at_load(l, b, opts.n)))
            .collect(),
        run: run_config(opts),
        seed: opts.seed,
    };
    let rows = execute(opts, &sweep);
    print_figure(
        &format!(
            "Throughput: {0}x{0} switch, Bernoulli b = {b}, offered load up to 1.2",
            opts.n
        ),
        &rows,
        &switches,
        &[Metric::Throughput],
        opts,
        "throughput",
    );
    Ok(())
}

/// The `sweep` command: the Fig. 4 grid under the fault-isolated runner,
/// with optional checkpoint journaling (`--journal` / `--resume`),
/// runtime invariant validation (`--check-every`), per-cell watchdog
/// (`--cell-timeout`), fault injection (`--inject-faults`) and bounded
/// retries (`--retries`). Failed cells are reported as rows, not crashes.
/// Aggregate a finished grid into the `--metrics-out` document:
/// sweep-level counters and per-cell gauges from a [`MetricsRegistry`],
/// plus one self-describing row per cell carrying the workload parameters
/// the cell actually ran with (so a metrics file needs no side-channel to
/// interpret its loads).
fn sweep_metrics(sweep: &Sweep, outcomes: &[CellOutcome]) -> Json {
    let registry = MetricsRegistry::new();
    registry.counter_add("cells_total", outcomes.len() as u64);
    let mut rows = Vec::new();
    for outcome in outcomes {
        match outcome {
            CellOutcome::Completed(row) => {
                let r = &row.result;
                registry.counter_add("cells_completed", 1);
                registry.counter_add("slots_run", r.slots_run);
                registry.counter_add("packets_admitted", r.packets_admitted);
                registry.counter_add("copies_delivered", r.copies_delivered);
                let scope = format!("{}@{}", row.switch.label(), row.load);
                registry.gauge_set(&format!("throughput/{scope}"), r.throughput);
                let mut obj = Json::object();
                obj.set("switch", r.switch_name.as_str());
                obj.set("traffic", r.traffic_name.as_str());
                obj.set("load", row.load);
                obj.set("offered_load", r.offered_load);
                let mut wl = Json::object();
                for (k, v) in &r.workload {
                    wl.set(k, *v);
                }
                obj.set("workload", wl);
                obj.set("throughput", r.throughput);
                obj.set("mean_delay_out", r.delay.mean_output_oriented);
                obj.set("mean_rounds", r.mean_rounds);
                obj.set("slots_run", r.slots_run);
                obj.set("stable", r.is_stable());
                rows.push(obj);
            }
            CellOutcome::Failed(f) => {
                registry.counter_add("cells_failed", 1);
                let mut obj = Json::object();
                obj.set("switch", f.switch.label());
                obj.set("load", f.load);
                obj.set("failed", true);
                obj.set("reason", f.reason.to_string());
                rows.push(obj);
            }
        }
    }
    let mut doc = registry.snapshot();
    doc.set("schema", "fifoms-metrics-v1");
    doc.set("n", sweep.n);
    doc.set("seed", sweep.seed);
    doc.set("rows", Json::Arr(rows));
    doc
}

pub fn sweep_cmd(opts: &Options) -> Result<(), SimError> {
    let b = 0.2;
    let sweep = Sweep {
        n: opts.n,
        switches: SwitchKind::paper_set(),
        points: loads(0.1, 1.0, opts.points)
            .into_iter()
            .map(|l| (l, TrafficKind::bernoulli_at_load(l, b, opts.n)))
            .collect(),
        run: run_config(opts),
        seed: opts.seed,
    };
    let policy = CellPolicy {
        timeout: opts.cell_timeout.map(std::time::Duration::from_secs),
        retries: opts.retries,
        check_every: opts.check_every,
        faults: opts
            .inject_faults
            .then(|| FaultConfig::moderate(opts.seed)),
    };
    let trace: Option<Arc<dyn EventSink>> = match &opts.trace_out {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| SimError::Usage(format!("cannot create {path}: {e}")))?;
            Some(Arc::new(JsonlSink::new(std::io::BufWriter::new(file))))
        }
        None => None,
    };
    let cells = (sweep.switches.len() * sweep.points.len()) as u64;
    let observer = SweepObserver {
        trace,
        progress: opts
            .progress
            .then(|| Arc::new(ProgressMeter::new(cells, std::time::Duration::from_secs(2)))),
        packet_trace: opts.packet_trace,
        telemetry: crate::topcmd::telemetry_spec(opts)?,
    };
    let outcomes = match &opts.journal {
        Some(path) => {
            let verb = if opts.resume { "resuming from" } else { "journaling to" };
            println!("{verb} {path}");
            sweep.run_checkpointed_observed(opts.threads, &policy, path, opts.resume, &observer)?
        }
        None => sweep.run_robust_observed(opts.threads, &policy, &observer),
    };
    if let Some(path) = &opts.trace_out {
        println!("wrote {path}");
    }
    crate::topcmd::report_telemetry_outputs(opts);
    if let Some(path) = &opts.metrics_out {
        std::fs::write(path, sweep_metrics(&sweep, &outcomes).to_string() + "\n")
            .map_err(|e| SimError::Usage(format!("cannot write {path}: {e}")))?;
        println!("wrote {path}");
    }
    let rows: Vec<SweepRow> = outcomes.iter().filter_map(|o| o.row().cloned()).collect();
    let failures: Vec<_> = outcomes.iter().filter_map(|o| o.failure()).collect();
    let mut title = format!(
        "Robust sweep: {0}x{0} switch, Bernoulli traffic, b = {b}",
        opts.n
    );
    if policy.faults.is_some() {
        title.push_str(" (faults injected)");
    }
    print_figure(
        &title,
        &rows,
        &sweep.switches,
        FOUR_PANELS,
        opts,
        "sweep",
    );
    println!(
        "grid: {} cells, {} completed, {} failed",
        outcomes.len(),
        rows.len(),
        failures.len()
    );
    if !failures.is_empty() {
        let mut table = fifoms_sim::report::Table::new(vec![
            "scheduler".to_string(),
            "load".to_string(),
            "attempts".to_string(),
            "failure".to_string(),
        ]);
        for f in &failures {
            table.push_row(vec![
                f.switch.label(),
                format!("{:.3}", f.load),
                format!("{}", f.attempts),
                format!("{}", f.reason),
            ]);
        }
        print!("{}", table.render());
    }
    Ok(())
}
