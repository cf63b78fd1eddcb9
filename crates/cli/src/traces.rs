//! `record` / `replay` subcommands: capture a workload to a trace file
//! and compare schedulers on identical recorded arrivals.

use fifoms_sim::report::Table;
use fifoms_sim::{run, Observer, RunConfig, RunResult, SlotHook, SwitchKind};
use fifoms_traffic::{Trace, TraceSource};
use fifoms_types::SimError;

use crate::args::Options;

/// `fifoms-repro record --csv-dir DIR`: record the paper's Fig. 4
/// workload (Bernoulli b = 0.2 at 70% load) for `--slots` slots into
/// `DIR/trace.txt`. `--seed` selects the stream.
pub fn record(opts: &Options) -> Result<(), SimError> {
    let Some(dir) = &opts.csv_dir else {
        return Err(SimError::Usage(
            "record requires --csv-dir <DIR> (the trace is written there)".into(),
        ));
    };
    let n = opts.n;
    let p = fifoms_traffic::BernoulliMulticast::p_for_load(0.7, n, 0.2);
    let mut model = fifoms_traffic::BernoulliMulticast::new(n, p, 0.2, opts.seed)?;
    let trace = Trace::record(&mut model, opts.slots);
    let path = format!("{dir}/trace.txt");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace.to_text()))
        .map_err(|e| SimError::Usage(format!("could not write {path}: {e}")))?;
    println!(
        "recorded {} packets over {} slots ({}x{n}, load 0.70) to {path}",
        trace.packets(),
        trace.len_slots(),
        n
    );
    Ok(())
}

/// `fifoms-repro replay --csv-dir DIR`: load `DIR/trace.txt` and run the
/// paper's four schedulers on the identical arrival sequence, reporting
/// variance-free deltas.
pub fn replay(opts: &Options) -> Result<(), SimError> {
    let Some(dir) = &opts.csv_dir else {
        return Err(SimError::Usage(
            "replay requires --csv-dir <DIR> (containing trace.txt from `record`)".into(),
        ));
    };
    let path = format!("{dir}/trace.txt");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| SimError::Usage(format!("could not read {path}: {e} (run `record` first)")))?;
    let trace = Trace::from_text(&text)
        .map_err(|e| SimError::Usage(format!("{path} is not a valid trace: {e}")))?;
    println!(
        "replaying {} packets / {} slots from {path}\n",
        trace.packets(),
        trace.len_slots()
    );
    let mut table = Table::new(vec![
        "scheduler",
        "in-delay",
        "out-delay",
        "copies",
        "drain-slot",
    ]);
    for sk in SwitchKind::paper_set() {
        let r = replay_one(&trace, sk, opts.seed)?;
        table.push_row(vec![
            sk.label(),
            format!("{:.3}", r.delay.mean_input_oriented),
            format!("{:.3}", r.delay.mean_output_oriented),
            format!("{}", r.delay.delivered_copies),
            format!("{}", r.slots_run),
        ]);
    }
    print!("{}", table.render());
    println!("\n(identical arrivals for every scheduler: deltas are pure scheduling)");
    Ok(())
}

/// Slots a replay's drain phase may pass without the backlog falling
/// before the scheduler is declared unable to drain the trace.
const REPLAY_STALL_WINDOW: u64 = 10_000;

/// Run the trace's arrivals through `sk`, then drain it: delays count
/// from slot 0, and `slots_run` is the first slot at or after the trace's
/// end with an empty backlog.
fn replay_one(trace: &Trace, sk: SwitchKind, seed: u64) -> Result<RunResult, SimError> {
    let mut sw = sk.build(trace.ports(), seed);
    let mut src = TraceSource::new(trace.clone());
    let cfg = RunConfig {
        slots: trace.len_slots().max(1),
        warmup: 0,
        backlog_cap: usize::MAX,
        sample_every: 100,
    };
    let mut obs = Observer::none();
    let result = run(sw.as_mut(), &mut src, &cfg, &mut obs, None, &mut Drain)?;
    if !sw.backlog().is_empty() {
        return Err(SimError::Usage(format!(
            "{} failed to drain the trace: {} copies still queued after {REPLAY_STALL_WINDOW} \
             slots without progress",
            sw.name(),
            sw.backlog().copies
        )));
    }
    Ok(result)
}

/// A replay's hook: only the drain phase.
struct Drain;

impl<S: ?Sized> SlotHook<S> for Drain {
    fn drain_window(&self) -> Option<u64> {
        Some(REPLAY_STALL_WINDOW)
    }
}
