//! Grids of simulations: (scheduler × load point), optionally threaded.
//!
//! Beyond the plain serial/parallel runners, this module provides the
//! **fault-isolated** runner used by long sweeps: every grid cell executes
//! under the shared cell guard ([`guarded`]: panic containment plus an
//! optional wall-clock watchdog) with a bounded retry budget, so one
//! crashing or hung scheduler configuration becomes a structured
//! [`CellOutcome::Failed`] row instead of taking the whole grid down.
//! Combined with the [checkpoint journal](crate::checkpoint), a killed
//! sweep resumes from its last finished cell and provably reproduces the
//! identical result set, because every cell is independently and
//! deterministically seeded.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use fifoms_fabric::{
    CheckedSwitch, FaultConfig, FaultyFabric, InstrumentedSwitch, PacketTraceMode, Switch,
};
use fifoms_obs::{EventSink, ProgressMeter};
use fifoms_types::SimError;

use crate::checkpoint::CheckpointJournal;
use crate::engine::{run, Observer, RunConfig, RunResult, TelemetrySpec};
use crate::guard::{guarded, CellFailureReason};
use crate::spec::{SwitchKind, TrafficKind};

/// One completed grid cell.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// The scheduler that ran.
    pub switch: SwitchKind,
    /// The nominal load of the point (the x-axis of the paper's figures).
    pub load: f64,
    /// The full measurement.
    pub result: RunResult,
}

/// How the fault-isolated runner treats each grid cell.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellPolicy {
    /// Wall-clock budget per cell attempt. `None` disables the watchdog;
    /// with a budget set, each cell runs on its own worker thread and a
    /// cell that exceeds the budget is abandoned (the stuck thread is
    /// detached and leaked — it cannot be killed safely) and reported as
    /// [`CellFailureReason::Timeout`].
    pub timeout: Option<Duration>,
    /// Extra attempts after a panic or timeout (errors from invalid
    /// parameters are deterministic and never retried).
    pub retries: u32,
    /// Run every cell inside a [`CheckedSwitch`], verifying fabric
    /// invariants each slot and full cell conservation every `k` checked
    /// slots. An invariant violation fails the cell.
    pub check_every: Option<u64>,
    /// Inject fabric faults into every cell (see [`FaultConfig`]). Fault
    /// injection changes results, so it participates in the checkpoint
    /// journal's grid identity; the other fields do not.
    pub faults: Option<FaultConfig>,
}

impl CellPolicy {
    /// Isolation only: catch panics, no watchdog, no checking, no faults.
    pub fn isolated() -> CellPolicy {
        CellPolicy::default()
    }

    /// Isolation plus per-slot invariant checking with conservation
    /// verified every `k` slots.
    pub fn checked(k: u64) -> CellPolicy {
        CellPolicy {
            check_every: Some(k),
            ..CellPolicy::default()
        }
    }
}

/// A grid cell that did not produce a result.
#[derive(Clone, Debug)]
pub struct FailedCell {
    /// The scheduler of the failed cell.
    pub switch: SwitchKind,
    /// The nominal load of the failed cell.
    pub load: f64,
    /// Attempts made (1 + retries actually used).
    pub attempts: u32,
    /// The last attempt's failure.
    pub reason: CellFailureReason,
}

/// The outcome of one isolated grid cell.
#[derive(Clone, Debug)]
pub enum CellOutcome {
    /// The cell ran to completion.
    Completed(SweepRow),
    /// Every attempt at the cell failed.
    Failed(FailedCell),
}

impl CellOutcome {
    /// The completed row, if any.
    pub fn row(&self) -> Option<&SweepRow> {
        match self {
            CellOutcome::Completed(row) => Some(row),
            CellOutcome::Failed(_) => None,
        }
    }

    /// The failure, if any.
    pub fn failure(&self) -> Option<&FailedCell> {
        match self {
            CellOutcome::Completed(_) => None,
            CellOutcome::Failed(f) => Some(f),
        }
    }
}

/// Everything needed to execute one grid cell, owned and `'static` so a
/// watchdog-guarded cell can run on its own thread.
#[derive(Clone)]
struct CellSpec {
    n: usize,
    sk: SwitchKind,
    tk: TrafficKind,
    load: f64,
    run: RunConfig,
    traffic_seed: u64,
    switch_seed: u64,
    check_every: Option<u64>,
    faults: Option<FaultConfig>,
    /// Shared event sink for tracing; `None` runs the cell unobserved on
    /// the exact same code path (observation is opt-in per sweep).
    trace: Option<Arc<dyn EventSink>>,
    /// Packet-level sampling gate for the flight recorder (only
    /// meaningful when `trace` is set).
    packet_trace: PacketTraceMode,
    /// Live telemetry wiring: each cell builds its own windowed
    /// accumulator from the spec and streams under `scope`.
    telemetry: Option<TelemetrySpec>,
    /// Scope string stamped on every event of this cell (`label@load`).
    scope: String,
}

/// Run one cell, wrapping the switch per policy:
/// `FaultyFabric(CheckedSwitch(switch))` — the checker sits inside the
/// faulty fabric so it only sees traffic that actually entered the
/// switch, keeping conservation meaningful under fault-masking drops.
/// With tracing enabled, an [`InstrumentedSwitch`] sits innermost (so it
/// observes the scheduler itself, not the fault layer) and the fault
/// layer records its maskings as events.
fn exec_cell(spec: &CellSpec) -> Result<SweepRow, SimError> {
    let mut traffic = spec.tk.try_build(spec.n, spec.traffic_seed)?;
    let built = spec.sk.build(spec.n, spec.switch_seed);
    // Telemetry needs the same event-producing stack as tracing: the
    // instrumented wrapper innermost and fault-event recording on.
    let tracing = spec.trace.is_some() || spec.telemetry.is_some();
    let mut telemetry = spec
        .telemetry
        .as_ref()
        .map(|spec_t| spec_t.new_telemetry(spec.n));
    let mut obs = Observer {
        sink: spec
            .trace
            .as_deref()
            .map(|sink| (sink as &dyn EventSink, spec.scope.as_str())),
        profiler: None,
        telemetry: match (&spec.telemetry, telemetry.as_mut()) {
            (Some(spec_t), Some(t)) => Some(spec_t.channel(t, &spec.scope)),
            _ => None,
        },
    };
    let inner: Box<dyn Switch> = if tracing {
        Box::new(InstrumentedSwitch::with_packet_trace(
            built,
            spec.packet_trace,
        ))
    } else {
        built
    };
    let mut run_on =
        |sw: &mut dyn Switch| run(sw, traffic.as_mut(), &spec.run, &mut obs, None, &mut ());
    let result = match (spec.check_every, spec.faults) {
        (None, None) => {
            let mut sw = inner;
            run_on(sw.as_mut())?
        }
        (None, Some(fc)) => {
            let mut sw = FaultyFabric::new(inner, fc);
            if tracing {
                sw = sw.with_event_recording();
            }
            run_on(&mut sw)?
        }
        (Some(k), None) => {
            let mut sw = CheckedSwitch::with_check_every(inner, k);
            let r = run_on(&mut sw)?;
            if let Some(v) = sw.violation() {
                return Err(SimError::Invariant(v.clone()));
            }
            r
        }
        (Some(k), Some(fc)) => {
            let mut sw = FaultyFabric::new(CheckedSwitch::with_check_every(inner, k), fc);
            if tracing {
                sw = sw.with_event_recording();
            }
            let r = run_on(&mut sw)?;
            if let Some(v) = sw.inner().violation() {
                return Err(SimError::Invariant(v.clone()));
            }
            r
        }
    };
    Ok(SweepRow {
        switch: spec.sk,
        load: spec.load,
        result,
    })
}

/// Optional sweep-level observation shared across all grid cells.
///
/// [`SweepObserver::disabled`] carries neither a sink nor a meter, and the
/// observed runners then take exactly the unobserved code path — results
/// are bit-identical by construction, not by measurement.
#[derive(Clone, Default)]
pub struct SweepObserver {
    /// Shared event sink every traced cell writes into (e.g. a
    /// [`JsonlSink`](fifoms_obs::JsonlSink)). Events from concurrent
    /// cells interleave line-by-line; each carries its cell's scope.
    pub trace: Option<Arc<dyn EventSink>>,
    /// Progress meter rendered to stderr as cells finish.
    pub progress: Option<Arc<ProgressMeter>>,
    /// Packet-level flight-recorder gate, applied to every traced cell
    /// (ignored when `trace` is `None`). Defaults to
    /// [`PacketTraceMode::Off`]: slot aggregates only.
    pub packet_trace: PacketTraceMode,
    /// Live telemetry wiring (window stride plus time-series sink and/or
    /// snapshot bus), applied to every cell. `None` disables the
    /// windowed layer entirely.
    pub telemetry: Option<TelemetrySpec>,
}

impl SweepObserver {
    /// No tracing, no progress: observed runners behave like plain ones.
    pub fn disabled() -> SweepObserver {
        SweepObserver::default()
    }
}

/// A sweep specification: one figure's worth of simulations.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Switch size `N` (16 in the paper).
    pub n: usize,
    /// Schedulers to compare.
    pub switches: Vec<SwitchKind>,
    /// `(nominal_load, workload)` points, shared by every scheduler.
    pub points: Vec<(f64, TrafficKind)>,
    /// Per-run configuration.
    pub run: RunConfig,
    /// Base RNG seed; each grid cell derives a distinct deterministic
    /// seed, and the *same* workload seed is used across schedulers at a
    /// point so they face identical arrival processes.
    pub seed: u64,
}

impl Sweep {
    /// Execute every cell one at a time: [`Sweep::run_parallel`] with a
    /// single worker.
    ///
    /// # Panics
    ///
    /// Panics after the full grid has run if any cell failed.
    pub fn run_serial(&self) -> Vec<SweepRow> {
        self.run_parallel(1)
    }

    /// Execute the grid across `threads` worker threads (work-stealing by
    /// atomic index). Results come back in deterministic grid order and
    /// are identical to [`Sweep::run_serial`] because every cell is
    /// seeded independently.
    ///
    /// Cells run fault-isolated: a panicking cell no longer aborts (or
    /// poisons) the rest of the grid — every other cell still completes,
    /// after which the first failure is re-raised with its cell named.
    /// Callers that want failures as data use [`Sweep::run_robust`].
    ///
    /// # Panics
    ///
    /// Panics after the full grid has run if any cell failed.
    pub fn run_parallel(&self, threads: usize) -> Vec<SweepRow> {
        let outcomes = self.run_robust(threads, &CellPolicy::isolated());
        let mut rows = Vec::with_capacity(outcomes.len());
        let mut first_failure = None;
        for outcome in outcomes {
            match outcome {
                CellOutcome::Completed(row) => rows.push(row),
                CellOutcome::Failed(f) => {
                    first_failure.get_or_insert(f);
                }
            }
        }
        if let Some(f) = first_failure {
            panic!(
                "sweep cell {} at load {} failed after {} attempt(s): {}",
                f.switch.label(),
                f.load,
                f.attempts,
                f.reason
            );
        }
        rows
    }

    /// Execute the grid with fault isolation, returning per-cell
    /// [`CellOutcome`]s in deterministic grid order. Failures are data:
    /// a panicking, hung, or invalid cell yields a structured
    /// [`CellOutcome::Failed`] row while every other cell completes.
    pub fn run_robust(&self, threads: usize, policy: &CellPolicy) -> Vec<CellOutcome> {
        self.run_robust_observed(threads, policy, &SweepObserver::disabled())
    }

    /// [`Sweep::run_robust`] with sweep-level observation: per-slot events
    /// stream into `obs.trace` and cell completions tick `obs.progress`.
    pub fn run_robust_observed(
        &self,
        threads: usize,
        policy: &CellPolicy,
        obs: &SweepObserver,
    ) -> Vec<CellOutcome> {
        self.run_cells(threads, policy, Vec::new(), None, obs)
            .expect("no journal in use")
    }

    /// Execute the grid with fault isolation, journaling every completed
    /// cell to `journal_path`. With `resume`, an existing journal for this
    /// exact sweep is loaded first: its completed cells are returned
    /// as-is (bit-identical, since journal rows round-trip exactly) and
    /// only the other cells run. Failed cells are never journaled, so a
    /// resume always runs them again.
    pub fn run_checkpointed(
        &self,
        threads: usize,
        policy: &CellPolicy,
        journal_path: &str,
        resume: bool,
    ) -> Result<Vec<CellOutcome>, SimError> {
        self.run_checkpointed_observed(threads, policy, journal_path, resume, &SweepObserver::disabled())
    }

    /// [`Sweep::run_checkpointed`] with sweep-level observation. Cells
    /// satisfied from the journal still count toward progress (their
    /// recorded slot totals are credited) but emit no events — they never
    /// re-run.
    pub fn run_checkpointed_observed(
        &self,
        threads: usize,
        policy: &CellPolicy,
        journal_path: &str,
        resume: bool,
        obs: &SweepObserver,
    ) -> Result<Vec<CellOutcome>, SimError> {
        let (journal, loaded) = if resume {
            CheckpointJournal::resume(journal_path, self, policy)?
        } else {
            let journal = CheckpointJournal::create(journal_path, self, policy)?;
            (journal, Vec::new())
        };
        self.run_cells(threads, policy, loaded, Some(&journal), obs)
    }

    /// The shared grid engine. Per-cell results land in individual
    /// [`OnceLock`] slots, so a worker dying mid-cell cannot poison the
    /// result store — the remaining workers keep draining the grid.
    /// `preloaded` holds the rows a resumed journal already completed, by
    /// grid index (empty for a fresh grid).
    fn run_cells(
        &self,
        threads: usize,
        policy: &CellPolicy,
        preloaded: Vec<Option<SweepRow>>,
        journal: Option<&CheckpointJournal>,
        obs: &SweepObserver,
    ) -> Result<Vec<CellOutcome>, SimError> {
        let cells: Vec<(usize, usize)> = (0..self.switches.len())
            .flat_map(|si| (0..self.points.len()).map(move |pi| (si, pi)))
            .collect();
        let slots: Vec<OnceLock<CellOutcome>> = (0..cells.len()).map(|_| OnceLock::new()).collect();
        for (slot, row) in slots.iter().zip(preloaded) {
            let Some(row) = row else { continue };
            if let Some(p) = &obs.progress {
                p.add_slots(row.result.slots_run);
                if let Some(line) = p.cell_done() {
                    eprintln!("{line}");
                }
            }
            let _ = slot.set(CellOutcome::Completed(row));
        }
        let next = AtomicUsize::new(0);
        let journal_err: OnceLock<SimError> = OnceLock::new();
        std::thread::scope(|scope| {
            for _ in 0..threads.max(1).min(cells.len().max(1)) {
                scope.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(si, pi)) = cells.get(idx) else { break };
                    if slots[idx].get().is_some() {
                        continue; // already satisfied by the journal
                    }
                    let outcome = self.run_cell_observed(
                        si,
                        pi,
                        policy,
                        obs.trace.clone(),
                        obs.packet_trace,
                        obs.telemetry.clone(),
                    );
                    if let (Some(j), Some(row)) = (journal, outcome.row()) {
                        if let Err(e) = j.record(idx, row) {
                            let _ = journal_err.set(e);
                        }
                    }
                    if let Some(p) = &obs.progress {
                        if let Some(row) = outcome.row() {
                            p.add_slots(row.result.slots_run);
                        }
                        if let Some(line) = p.cell_done() {
                            eprintln!("{line}");
                        }
                    }
                    let _ = slots[idx].set(outcome);
                });
            }
        });
        if let Some(sink) = &obs.trace {
            sink.flush();
        }
        if let Some(series) = obs.telemetry.as_ref().and_then(|t| t.series.as_ref()) {
            series.flush();
        }
        if let Some(e) = journal_err.into_inner() {
            return Err(e);
        }
        Ok(slots
            .into_iter()
            .map(|s| s.into_inner().expect("every cell executed"))
            .collect())
    }

    fn run_cell_observed(
        &self,
        si: usize,
        pi: usize,
        policy: &CellPolicy,
        trace: Option<Arc<dyn EventSink>>,
        packet_trace: PacketTraceMode,
        telemetry: Option<TelemetrySpec>,
    ) -> CellOutcome {
        let spec = self.cell_spec(si, pi, policy, trace, packet_trace, telemetry);
        let mut attempts = 0;
        loop {
            attempts += 1;
            let owned = spec.clone();
            match guarded(policy.timeout, move || exec_cell(&owned)) {
                Ok(row) => return CellOutcome::Completed(row),
                Err(reason) => {
                    // Structured errors are deterministic — retrying them
                    // is pure waste; panics and timeouts get the budget.
                    let retryable = !matches!(reason, CellFailureReason::Error(_));
                    if !retryable || attempts > policy.retries {
                        return CellOutcome::Failed(FailedCell {
                            switch: spec.sk,
                            load: spec.load,
                            attempts,
                            reason,
                        });
                    }
                }
            }
        }
    }

    fn cell_spec(
        &self,
        si: usize,
        pi: usize,
        policy: &CellPolicy,
        trace: Option<Arc<dyn EventSink>>,
        packet_trace: PacketTraceMode,
        telemetry: Option<TelemetrySpec>,
    ) -> CellSpec {
        let (load, tk) = self.points[pi];
        // Workload seed depends only on the point → identical arrivals for
        // every scheduler; switch seed also varies by scheduler.
        let traffic_seed = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (pi as u64);
        let switch_seed = traffic_seed ^ ((si as u64 + 1) << 32);
        let scope = format!("{}@{load}", self.switches[si].label());
        CellSpec {
            n: self.n,
            sk: self.switches[si],
            tk,
            load,
            run: self.run,
            traffic_seed,
            switch_seed,
            check_every: policy.check_every,
            faults: policy.faults,
            trace,
            packet_trace,
            telemetry,
            scope,
        }
    }

    /// Rows of one scheduler, in point order, from a result set.
    pub fn rows_for(rows: &[SweepRow], sk: SwitchKind) -> Vec<&SweepRow> {
        rows.iter().filter(|r| r.switch == sk).collect()
    }

    /// Run the whole grid `replications` times with independent seeds and
    /// aggregate each cell across replications (mean and 95% half-width
    /// of the key metrics). Replications of different cells all share the
    /// work pool, so `threads` bounds total parallelism.
    pub fn run_replicated(&self, replications: usize, threads: usize) -> Vec<ReplicatedRow> {
        assert!(replications > 0, "need at least one replication");
        let mut all: Vec<Vec<SweepRow>> = Vec::with_capacity(replications);
        for rep in 0..replications {
            let mut sweep = self.clone();
            sweep.seed = self
                .seed
                .wrapping_add(0xD1B5_4A32_D192_ED03u64.wrapping_mul(rep as u64 + 1));
            all.push(sweep.run_parallel(threads));
        }
        let cells = all[0].len();
        (0..cells)
            .map(|c| {
                let samples: Vec<&SweepRow> = all.iter().map(|rows| &rows[c]).collect();
                ReplicatedRow::aggregate(&samples)
            })
            .collect()
    }
}

/// A grid cell aggregated over independent replications.
#[derive(Clone, Debug)]
pub struct ReplicatedRow {
    /// The scheduler that ran.
    pub switch: SwitchKind,
    /// The nominal load of the point.
    pub load: f64,
    /// Replications aggregated.
    pub replications: usize,
    /// Replications whose verdict was stable.
    pub stable_replications: usize,
    /// Mean of the per-replication mean output-oriented delays.
    pub out_delay_mean: f64,
    /// 95% half-width of the output-oriented delay across replications.
    pub out_delay_hw95: f64,
    /// Mean of the per-replication average queue sizes.
    pub avg_queue_mean: f64,
    /// 95% half-width of the average queue size across replications.
    pub avg_queue_hw95: f64,
}

impl ReplicatedRow {
    fn aggregate(samples: &[&SweepRow]) -> ReplicatedRow {
        use fifoms_stats::BatchMeans;
        assert!(!samples.is_empty());
        let mut delay = BatchMeans::new(1);
        let mut queue = BatchMeans::new(1);
        let mut stable = 0;
        for s in samples {
            delay.push(s.result.delay.mean_output_oriented);
            queue.push(s.result.occupancy.mean);
            if s.result.is_stable() {
                stable += 1;
            }
        }
        ReplicatedRow {
            switch: samples[0].switch,
            load: samples[0].load,
            replications: samples.len(),
            stable_replications: stable,
            out_delay_mean: delay.mean().expect("nonempty"),
            out_delay_hw95: delay.half_width_95().unwrap_or(0.0),
            avg_queue_mean: queue.mean().expect("nonempty"),
            avg_queue_hw95: queue.half_width_95().unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep() -> Sweep {
        Sweep {
            n: 8,
            switches: vec![SwitchKind::Fifoms, SwitchKind::OqFifo],
            points: vec![
                (0.2, TrafficKind::bernoulli_at_load(0.2, 0.25, 8)),
                (0.4, TrafficKind::bernoulli_at_load(0.4, 0.25, 8)),
            ],
            run: RunConfig::quick(4_000),
            seed: 7,
        }
    }

    #[test]
    fn serial_covers_grid() {
        let rows = tiny_sweep().run_serial();
        assert_eq!(rows.len(), 4);
        let fifoms = Sweep::rows_for(&rows, SwitchKind::Fifoms);
        assert_eq!(fifoms.len(), 2);
        assert_eq!(fifoms[0].load, 0.2);
        assert_eq!(fifoms[1].load, 0.4);
        assert!(rows.iter().all(|r| r.result.is_stable()));
    }

    #[test]
    fn parallel_equals_serial() {
        let sweep = tiny_sweep();
        let serial = sweep.run_serial();
        let parallel = sweep.run_parallel(4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.load, b.load);
            assert_eq!(a.result.switch_name, b.result.switch_name);
            assert_eq!(a.result.packets_admitted, b.result.packets_admitted);
            assert_eq!(
                a.result.delay.mean_output_oriented,
                b.result.delay.mean_output_oriented
            );
            assert_eq!(a.result.occupancy.max, b.result.occupancy.max);
        }
    }

    #[test]
    fn replications_aggregate_with_intervals() {
        let sweep = tiny_sweep();
        let rows = sweep.run_replicated(3, 4);
        assert_eq!(rows.len(), 4); // 2 switches × 2 points
        for r in &rows {
            assert_eq!(r.replications, 3);
            assert_eq!(r.stable_replications, 3, "{:?} at {}", r.switch, r.load);
            assert!(r.out_delay_mean >= 0.0);
            assert!(r.out_delay_hw95 >= 0.0);
            assert!(r.avg_queue_hw95 >= 0.0);
        }
        // higher load ⇒ higher mean delay for the same scheduler
        let fifoms: Vec<&ReplicatedRow> = rows
            .iter()
            .filter(|r| r.switch == SwitchKind::Fifoms)
            .collect();
        assert!(fifoms[0].out_delay_mean < fifoms[1].out_delay_mean);
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_rejected() {
        tiny_sweep().run_replicated(0, 1);
    }

    #[test]
    fn replications_use_distinct_seeds() {
        let sweep = tiny_sweep();
        let rows = sweep.run_replicated(2, 2);
        // with independent arrival streams the interval is (almost surely)
        // nonzero for a stochastic workload
        assert!(rows.iter().any(|r| r.out_delay_hw95 > 0.0));
    }

    #[test]
    fn panicking_cell_becomes_failed_row_while_others_complete() {
        let mut sweep = tiny_sweep();
        sweep.switches = vec![SwitchKind::Fifoms, SwitchKind::ChaosPanic { at: 100 }];
        let outcomes = sweep.run_robust(4, &CellPolicy::isolated());
        assert_eq!(outcomes.len(), 4);
        // Grid order: FIFOMS cells first, chaos cells last.
        for outcome in &outcomes[..2] {
            let row = outcome.row().expect("FIFOMS cells complete");
            assert_eq!(row.result.switch_name, "FIFOMS");
        }
        for outcome in &outcomes[2..] {
            let failure = outcome.failure().expect("chaos cells fail");
            assert_eq!(failure.attempts, 1);
            let CellFailureReason::Panic(msg) = &failure.reason else {
                panic!("expected a panic, got {:?}", failure.reason);
            };
            assert!(msg.contains("chaos switch"), "{msg}");
        }
    }

    #[test]
    fn run_parallel_raises_cell_failures_after_the_grid_finishes() {
        let mut sweep = tiny_sweep();
        sweep.switches = vec![SwitchKind::ChaosPanic { at: 100 }, SwitchKind::Fifoms];
        let err = std::panic::catch_unwind(|| sweep.run_parallel(2))
            .expect_err("a failed cell must still surface");
        let msg = crate::guard::panic_message(err.as_ref());
        assert!(msg.contains("chaos-panic@100"), "{msg}");
        assert!(!msg.contains("poisoned"), "{msg}");
    }

    #[test]
    fn hung_cell_times_out_under_the_watchdog() {
        let mut sweep = tiny_sweep();
        sweep.switches = vec![SwitchKind::ChaosStall { at: 0 }];
        sweep.points.truncate(1);
        let policy = CellPolicy {
            timeout: Some(Duration::from_millis(200)),
            ..CellPolicy::default()
        };
        let outcomes = sweep.run_robust(1, &policy);
        let failure = outcomes[0].failure().expect("stalled cell fails");
        assert_eq!(
            failure.reason,
            CellFailureReason::Timeout { millis: 200 },
            "{:?}",
            failure.reason
        );
    }

    #[test]
    fn retries_are_bounded_and_counted() {
        let mut sweep = tiny_sweep();
        sweep.switches = vec![SwitchKind::ChaosPanic { at: 0 }];
        sweep.points.truncate(1);
        let policy = CellPolicy {
            retries: 2,
            ..CellPolicy::default()
        };
        let outcomes = sweep.run_robust(1, &policy);
        assert_eq!(outcomes[0].failure().expect("still fails").attempts, 3);
    }

    #[test]
    fn invalid_cell_parameters_fail_structurally_without_retry() {
        let mut sweep = tiny_sweep();
        // Load 1.25 per output with b=0.25 on 4 ports needs p > 1.
        sweep.n = 4;
        sweep.switches = vec![SwitchKind::Fifoms];
        sweep.points = vec![(1.25, TrafficKind::bernoulli_at_load(1.25, 0.25, 4))];
        let policy = CellPolicy {
            retries: 5,
            ..CellPolicy::default()
        };
        let outcomes = sweep.run_robust(1, &policy);
        let failure = outcomes[0].failure().expect("invalid parameters fail");
        assert_eq!(failure.attempts, 1, "errors are not retried");
        assert!(matches!(failure.reason, CellFailureReason::Error(_)));
    }

    #[test]
    fn checked_policy_is_metrically_transparent() {
        let sweep = tiny_sweep();
        let plain = sweep.run_serial();
        let checked = sweep.run_robust(2, &CellPolicy::checked(50));
        assert_eq!(plain.len(), checked.len());
        for (a, b) in plain.iter().zip(&checked) {
            let b = b.row().expect("no violations in real schedulers");
            assert_eq!(a.result.switch_name, b.result.switch_name);
            assert_eq!(a.result.packets_admitted, b.result.packets_admitted);
            assert_eq!(
                a.result.delay.mean_output_oriented,
                b.result.delay.mean_output_oriented
            );
        }
    }

    #[test]
    fn fault_injection_policy_completes_every_cell() {
        let sweep = tiny_sweep();
        let policy = CellPolicy {
            check_every: Some(100),
            faults: Some(fifoms_fabric::FaultConfig::moderate(3)),
            ..CellPolicy::default()
        };
        for outcome in sweep.run_robust(2, &policy) {
            outcome.row().expect("faulty cells still complete");
        }
    }

    #[test]
    fn schedulers_see_identical_arrivals_at_a_point() {
        let rows = tiny_sweep().run_serial();
        let by_switch: Vec<u64> = rows
            .iter()
            .filter(|r| r.load == 0.2)
            .map(|r| r.result.packets_admitted)
            .collect();
        assert_eq!(by_switch[0], by_switch[1], "same workload seed per point");
    }
}
