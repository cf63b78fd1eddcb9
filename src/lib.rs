//! # fifoms — FIFO-based multicast scheduling for VOQ packet switches
//!
//! A complete, tested reproduction of *"FIFO Based Multicast Scheduling
//! Algorithm for VOQ Packet Switches"* (Deng Pan and Yuanyuan Yang,
//! ICPP 2004): the multicast VOQ queue structure (data cells + address
//! cells), the FIFOMS iterative scheduler, the paper's baselines (TATRA,
//! iSLIP, OQ-FIFO) and extensions (PIM, WBA, naive multicast FIFO), the
//! three traffic models of §V, and a simulation engine that regenerates
//! every figure of the evaluation.
//!
//! ## Quick start
//!
//! ```
//! use fifoms::prelude::*;
//!
//! // A 16x16 multicast VOQ switch running FIFOMS...
//! let mut switch = MulticastVoqSwitch::new(16, /*seed*/ 42);
//! // ...under the paper's Bernoulli multicast workload at 80% load.
//! let p = BernoulliMulticast::p_for_load(0.8, 16, 0.2);
//! let mut traffic = BernoulliMulticast::new(16, p, 0.2, 7).unwrap();
//!
//! let result = try_simulate(&mut switch, &mut traffic, &RunConfig::quick(5_000)).unwrap();
//! assert!(result.is_stable());
//! println!(
//!     "output-oriented delay: {:.2} slots, avg queue: {:.2} packets",
//!     result.delay.mean_output_oriented, result.occupancy.mean,
//! );
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`types`] | slots, ports, packets, destination bitsets |
//! | [`stats`] | Welford moments, histograms, delay/occupancy recorders, saturation detection |
//! | [`traffic`] | Bernoulli / uniform-fanout / burst models, unicast patterns, traces |
//! | [`fabric`] | the [`Switch`](fabric::Switch) trait and its checking, fault-injecting and instrumenting wrappers, the fault scoreboard |
//! | [`core`] | data/address cells, VOQ sets, the FIFOMS scheduler and switch |
//! | [`baselines`] | TATRA, iSLIP, OQ-FIFO, PIM, WBA, naive multicast FIFO |
//! | [`sim`] | the slot loop, experiment specs, parallel sweeps, report tables |
//! | [`obs`] | event sinks, metrics, phase profiling, JSONL traces, progress |
//! | [`analytic`] | Karol-1987 and M/D/1 closed forms for simulator validation |
//!
//! The `fifoms-repro` binary (crate `fifoms-cli`) regenerates Figs. 4–8;
//! see EXPERIMENTS.md for paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fifoms_analytic as analytic;
pub use fifoms_baselines as baselines;
pub use fifoms_core as core;
pub use fifoms_fabric as fabric;
pub use fifoms_obs as obs;
pub use fifoms_sim as sim;
pub use fifoms_stats as stats;
pub use fifoms_traffic as traffic;
pub use fifoms_types as types;

/// Everything needed for typical use: switches, traffic models, the
/// simulation entry points and the base vocabulary types.
pub mod prelude {
    pub use fifoms_baselines::{
        IslipSwitch, McFifoSwitch, OqFifoSwitch, PimSwitch, TatraSwitch, WbaSwitch,
    };
    pub use fifoms_core::{FifomsConfig, FifomsScheduler, MulticastVoqSwitch, TieBreak};
    pub use fifoms_fabric::{
        Backlog, CheckedSwitch, FaultConfig, FaultStats, FaultyFabric, InstrumentedSwitch,
        PacketTraceMode, Switch,
    };
    pub use fifoms_obs::{
        analysis::{analyze_trace, ScopeAnalysis, TraceAnalysis},
        EventSink, Json, JsonlSink, MetricsRegistry, NullSink, PhaseProfiler, ProgressMeter,
        RecordingSink, SnapshotBus, Telemetry,
    };
    pub use fifoms_sim::{
        alloc_audit, profile_run, run, try_simulate, AllocAuditReport, CellFailureReason,
        CellOutcome, CellPolicy, CheckpointJournal, FailedCell, Observer, ProfileReport, RunConfig,
        RunResult, Sweep, SweepObserver, SwitchKind, TelemetrySpec, TrafficKind,
    };
    pub use fifoms_stats::SaturationVerdict;
    pub use fifoms_types::{InvariantViolation, ObsEvent, SimError};
    pub use fifoms_traffic::{
        BernoulliMulticast, BurstTraffic, DiagonalUnicast, HotspotUnicast, Trace, TraceRecorder,
        TraceSource, TrafficModel, UniformFanout, UniformUnicast,
    };
    pub use fifoms_types::{Packet, PacketId, PortId, PortSet, Slot};
}
