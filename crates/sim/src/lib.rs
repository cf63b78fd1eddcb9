//! Slotted-time simulation engine, experiment specifications and report
//! generation for the FIFOMS study.
//!
//! This crate reproduces the paper's simulation methodology (§V):
//!
//! * synchronous slots, fixed-size cells;
//! * a warmup period (half the run by default) excluded from statistics;
//! * runs of 10^6 slots "unless the switch becomes unstable", which we
//!   detect with a backlog cap plus a growth-trend test
//!   ([`fifoms_stats::SaturationDetector`]);
//! * the four §V statistics (input/output-oriented delay, average and
//!   maximum queue size) plus the Fig. 5 convergence-round average.
//!
//! The pieces:
//!
//! * [`run`] drives one `(switch, traffic)` pair under a [`RunConfig`]
//!   and yields a [`RunResult`]: it is the one entry point of the one
//!   slot loop in the crate, and [`try_simulate`] and
//!   [`try_simulate_recoverable`] are one-line shims over it. Its
//!   attachments, an [`Observer`], a [`RecoveryRuntime`] and a
//!   [`SlotHook`], combine freely. The hook extends the loop per slot
//!   (drain phase, phase boundaries, early stop) and is how the chaos
//!   campaign, the allocation audit and the CLI's fairness and replay
//!   commands run;
//! * [`SwitchKind`] / [`TrafficKind`] are buildable specifications of
//!   every scheduler and workload in the workspace (the experiment
//!   harness and benches construct sweeps from these);
//! * [`Sweep`] runs a grid of (scheduler × load point) simulations,
//!   optionally across threads, producing [`SweepRow`]s — with a
//!   fault-isolated mode ([`Sweep::run_robust`]) where panicking, hung or
//!   invalid cells become structured [`CellOutcome::Failed`] rows, and a
//!   checkpointed mode ([`Sweep::run_checkpointed`]) that journals every
//!   completed cell so a killed sweep resumes where it stopped. Sweep
//!   cells, chaos cells and `serve` workers all run under one cell guard,
//!   [`guarded`];
//! * [`CheckpointJournal`] is that journal — append-only CRC-framed
//!   records in the arrival WAL's framing, payloads in the checkpoint
//!   codec, crash-tolerant, keyed to the exact sweep it belongs to;
//! * [`report`] renders aligned ASCII tables and CSV files;
//! * observability rides along opt-in: an [`Observer`] passed to [`run`]
//!   streams per-slot events into an
//!   [`EventSink`](fifoms_obs::EventSink) and/or samples phase timings,
//!   [`SweepObserver`] threads a shared sink and a progress meter through
//!   the sweep runners, and [`profile_run`] is the self-profiling harness
//!   behind `fifoms-repro profile`. The disabled path is the same loop
//!   with nothing attached, so unobserved results are bit-identical by
//!   construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod chaos;
mod checkpoint;
mod engine;
mod guard;
mod overload;
pub mod plot;
mod profile;
mod recover;
pub mod report;
mod serve;
mod spec;
mod sweep;

pub use audit::{alloc_audit, AllocAuditReport};
pub use chaos::{
    buffer_pressure_scenarios, campaign_scenarios, run_corruption_campaign, run_scenario,
    run_scenario_observed, run_scenario_on, shrink_scenario, shrink_scenario_guarded, ChaosOutcome,
    ChaosScenario, CheckpointFault, CorruptionOutcome,
};
pub use checkpoint::CheckpointJournal;
pub use engine::{
    run, try_simulate, try_simulate_recoverable, Observer, RunConfig, RunResult, SlotHook,
    TelemetryChannel, TelemetrySpec,
};
pub use guard::{guarded, CellFailureReason};
pub use overload::{loss_sweep, loss_sweep_observed, LossPoint, LossSweepConfig};
// Re-exported so sweep policies can be configured without a direct
// dependency on the fabric crate.
pub use fifoms_fabric::{
    CheckedSwitch, FaultConfig, FaultStats, FaultyFabric, InstrumentedSwitch, PacketTraceMode,
};
pub use profile::{profile_run, ProfileReport};
pub use recover::{
    read_wal, truncate_file, CheckpointConfig, CheckpointStore, RecoveryRuntime, ResumeInfo,
    WalWriter,
};
pub use serve::{serve, ServeConfig, ServeReport, SERVE_SCOPE};
pub use spec::{SwitchKind, TrafficKind};
pub use sweep::{CellOutcome, CellPolicy, FailedCell, Sweep, SweepObserver, SweepRow};
