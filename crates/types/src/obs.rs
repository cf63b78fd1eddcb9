//! Observability vocabulary: the structured events switches and fabric
//! wrappers can report about a run.
//!
//! The event types live here (rather than in `fifoms-obs`) so that the
//! fabric and scheduler crates can *emit* events without depending on any
//! sink, serialisation or metrics machinery. The `fifoms-obs` crate
//! provides the consuming side: sinks, JSONL export, metric registries and
//! the profiling harness.
//!
//! Events are plain data. Emitting one costs a `Vec::push`; when no trace
//! sink is attached, nothing in the workspace constructs per-slot events
//! at all, so the hot path pays only an untaken branch.

use crate::{DropCause, PacketId, PortId, Slot};

/// One structured observation about a run.
///
/// The taxonomy (see `DESIGN.md` §8):
///
/// * [`ObsEvent::RunMeta`] — once per run: who ran what, with the full
///   workload parameter provenance (`p`, `b`, fanout bounds, burst
///   lengths, ...) so a trace is self-describing even when the workload
///   has no closed-form offered load;
/// * [`ObsEvent::SlotSched`] — once per (non-idle) slot: the scheduler's
///   per-slot matching dynamics, derived generically from the
///   [`SlotOutcome`](crate::SlotOutcome) by an instrumentation wrapper;
/// * [`ObsEvent::FaultMasked`] — a fault-injection wrapper trimmed or
///   dropped an arriving packet;
/// * [`ObsEvent::InvariantViolated`] — a runtime invariant checker caught
///   a structural violation;
/// * [`ObsEvent::RecorderMeta`] / [`ObsEvent::PacketArrived`] /
///   [`ObsEvent::CopySent`] / [`ObsEvent::PacketCompleted`] — the
///   packet-level flight recorder (see `DESIGN.md` §9): per-packet
///   lifecycles behind a sampling gate, consumed by the `analysis`
///   module of `fifoms-obs`;
/// * [`ObsEvent::RunEnd`] — the engine's end-of-run marker. `SlotSched`
///   is skipped for idle slots, so without a terminator a trace consumer
///   could not tell an idle tail from a truncated file; `RunEnd` makes
///   idleness explicit: any slot in `[0, slots_run)` with no `SlotSched`
///   record is provably idle, and utilisation is computable exactly.
#[derive(Clone, PartialEq, Debug)]
pub enum ObsEvent {
    /// Identity and workload provenance of one run, emitted before slot 0.
    RunMeta {
        /// Scheduler name as reported by the switch.
        switch: String,
        /// Workload name as reported by the traffic model.
        traffic: String,
        /// Switch size `N` (ports), so trace consumers can compare
        /// convergence rounds against the `log2 N` reference.
        ports: u32,
        /// The workload's defining parameters as `(name, value)` pairs
        /// (e.g. `("p", 0.25)`, `("b", 0.2)`). Self-describing provenance
        /// for rows whose analytic `offered_load` is unknown.
        params: Vec<(String, f64)>,
    },
    /// Per-slot scheduler dynamics (the Fig. 5 view, per slot instead of
    /// averaged).
    SlotSched {
        /// The slot this record describes.
        slot: Slot,
        /// Ports with at least one queued packet before scheduling (the
        /// demand side of the request phase).
        active_ports: u32,
        /// Distinct inputs that transmitted at least one copy this slot.
        matched_inputs: u32,
        /// Request/grant iterations executed (iterations-to-convergence).
        rounds: u32,
        /// Crosspoint connections made (a fanout-`k` transfer counts `k`).
        connections: u32,
        /// Inputs that used the crossbar's native multicast (two or more
        /// copies in one slot).
        multicast_inputs: u32,
        /// Packets served *partially* this slot (fanout splitting: some
        /// copies sent, a residue stays queued).
        fanout_splits: u32,
        /// Packets whose final copy departed this slot.
        completed_packets: u32,
        /// Distinct packets still queued after the slot.
        backlog_packets: u64,
        /// Undelivered copies still queued after the slot.
        backlog_copies: u64,
        /// Age in slots of the oldest packet still queued after the slot
        /// (`None` when the switch drained): the starvation indicator.
        oldest_age: Option<u64>,
    },
    /// A fault-injection wrapper masked part or all of an arrival.
    FaultMasked {
        /// The arrival slot the fault applied to.
        slot: Slot,
        /// The input port the packet arrived on.
        input: PortId,
        /// Copies removed from the packet's fanout.
        copies_dropped: u32,
        /// Whether the whole packet was dropped (entire fanout dead).
        packet_dropped: bool,
    },
    /// An egress fault killed a scheduled copy at crosspoint-traversal
    /// time. Emitted by the fault injector; `requeued` tells whether the
    /// copy went back to the head of its VOQ (timestamp preserved) or was
    /// abandoned with its `fanoutCounter` reconciled.
    CopyKilled {
        /// The slot the transmission was killed.
        slot: Slot,
        /// The input port that was transmitting.
        input: PortId,
        /// The destination output the copy was bound for.
        output: PortId,
        /// The packet the copy belongs to.
        packet: PacketId,
        /// `true` if the copy was re-queued for retransmission, `false`
        /// if the retry budget was exhausted and it became a structured
        /// drop.
        requeued: bool,
        /// How many times this copy has now been killed (1 on the first
        /// failure).
        retry: u32,
    },
    /// A previously killed copy finally crossed the fabric.
    CopyRecovered {
        /// The slot the copy was delivered.
        slot: Slot,
        /// The input port that transmitted it.
        input: PortId,
        /// The destination output reached.
        output: PortId,
        /// The packet the copy belongs to.
        packet: PacketId,
        /// Total kills the copy survived before delivery.
        kills: u32,
        /// Slots between the first kill and the successful delivery
        /// (the copy's time-to-recover).
        latency: u64,
    },
    /// A runtime invariant checker recorded its (first, sticky) violation.
    InvariantViolated {
        /// The slot the violation was detected.
        slot: Slot,
        /// Human-readable rendering of the violation.
        detail: String,
    },
    /// Flight-recorder configuration, emitted once when packet-level
    /// tracing is enabled. Consumers use it to decide which analyses are
    /// sound: the starvation audit and delay decomposition require
    /// `mode == "all"` (every lifecycle present); sampled or ring traces
    /// only support per-copy statistics over the packets they kept.
    RecorderMeta {
        /// Sampling gate: `"all"`, `"sample"` (1-in-`param`) or `"ring"`
        /// (bounded buffer of the last `param` packet events).
        mode: String,
        /// The gate's parameter (`0` for `"all"`).
        param: u64,
    },
    /// A sampled packet entered the switch.
    PacketArrived {
        /// The packet's engine-assigned id.
        id: PacketId,
        /// Arrival slot (the packet's timestamp in FIFOMS terms).
        slot: Slot,
        /// Input port the packet arrived on.
        input: PortId,
        /// Number of destination outputs (fanout).
        fanout: u32,
    },
    /// One copy of a sampled packet crossed the fabric.
    CopySent {
        /// The packet the copy belongs to.
        id: PacketId,
        /// The slot the copy departed.
        slot: Slot,
        /// The destination output.
        output: PortId,
        /// Whether this was a *partial* service of the packet's residual
        /// fanout (fanout splitting: more copies remain queued after this
        /// slot).
        split: bool,
    },
    /// The final copy of a sampled packet departed.
    PacketCompleted {
        /// The packet that completed.
        id: PacketId,
        /// The slot its last copy departed.
        slot: Slot,
    },
    /// Finite-buffer admission control refused or evicted copies of a
    /// packet (drop-tail, pushout eviction, or fair shedding). One event
    /// summarises all copies of one packet removed by one policy decision;
    /// per-copy ledger records travel separately through
    /// `Switch::drain_admission_drops`. Emitted outside the flight
    /// recorder's sampling gate, so sampled and ring traces still carry
    /// every admission drop and `analyze` can reconcile loss exactly.
    AdmissionDropped {
        /// The slot the copies were refused or evicted.
        slot: Slot,
        /// The input port whose buffers were full.
        input: PortId,
        /// The packet that lost copies.
        packet: PacketId,
        /// Number of copies removed by this decision.
        copies: u32,
        /// The policy decision; traces carry its tag
        /// ([`DropCause::as_str`]): `"tail_full"`, `"pushout"` or
        /// `"fair_shed"`.
        cause: DropCause,
    },
    /// A virtual output queue crossed the soft high-water mark for the
    /// first time this run. Emitted even with finite-buffer limits
    /// disabled, so unbounded growth is visible in traces before it
    /// becomes an out-of-memory incident.
    VoqHighWater {
        /// The arrival slot that pushed the queue over the mark.
        slot: Slot,
        /// The input port owning the queue.
        input: PortId,
        /// The output the queue feeds.
        output: PortId,
        /// Queue depth (address cells) at the crossing.
        depth: u64,
    },
    /// Aggregated wall time of one named profiler phase (or nested
    /// span), emitted once at end-of-run by profiled runs that also
    /// carry a trace sink. Spans are identified by name; nested spans
    /// (e.g. `"grant"` under `"schedule"`) appear as their own records.
    PhaseTimed {
        /// The phase or span name (`"schedule"`, `"grant"`, ...).
        phase: String,
        /// Times the span was entered over the sampled slots.
        calls: u64,
        /// Wall time inside the span including children, in ns.
        inclusive_ns: u64,
        /// Wall time inside the span excluding children, in ns.
        exclusive_ns: u64,
    },
    /// Per-slot wall-time distribution summary over the sampled slots of
    /// a profiled run, emitted once at end-of-run. Quantiles come from a
    /// log₂-bucketed histogram, so they are conservative lower bounds
    /// (at most 2× below the true value); `max_ns` is exact.
    SlotTimeSummary {
        /// Slots whose wall time was sampled.
        samples: u64,
        /// Median slot wall time, in ns.
        p50_ns: u64,
        /// 99th-percentile slot wall time, in ns.
        p99_ns: u64,
        /// 99.9th-percentile slot wall time, in ns.
        p999_ns: u64,
        /// Worst sampled slot wall time, in ns.
        max_ns: u64,
    },
    /// Telemetry window configuration, emitted once per scope before the
    /// first [`ObsEvent::WindowSummary`] of a live-telemetry run. Makes a
    /// `fifoms-timeseries-v1` stream self-describing: consumers learn the
    /// window stride (slots per window) and the snapshot ring depth
    /// without out-of-band configuration.
    WindowMeta {
        /// Slots aggregated into each window.
        stride: u64,
        /// Closed windows retained in the live snapshot ring.
        ring: u32,
        /// Switch size `N`, for per-input scoreboard rendering.
        ports: u32,
    },
    /// One closed telemetry window: counters aggregated over `slots`
    /// consecutive slots starting at `start_slot`. All fields are
    /// integers so constructing and emitting a summary never allocates —
    /// the engine can close windows from inside the slot loop without
    /// perturbing the alloc-audit gate.
    WindowSummary {
        /// Zero-based window index within the run.
        window: u64,
        /// First slot aggregated into this window.
        start_slot: u64,
        /// Slots aggregated (equal to the stride except for a partial
        /// final window).
        slots: u64,
        /// Packets admitted by the traffic/admission path this window.
        admitted_packets: u64,
        /// Copies delivered across the fabric this window.
        delivered_copies: u64,
        /// Packets whose final copy departed this window.
        completed_packets: u64,
        /// Copies refused by drop-tail admission (`cause == "tail_full"`).
        drop_tail_full: u64,
        /// Copies evicted by pushout (`cause == "pushout"`).
        drop_pushout: u64,
        /// Copies shed by fair shedding (`cause == "fair_shed"`).
        drop_fair_shed: u64,
        /// Copies killed at crosspoint traversal by egress faults.
        copy_kills: u64,
        /// Previously killed copies that finally crossed the fabric.
        copy_recoveries: u64,
        /// Deepest VOQ high-water crossing observed this window (0 when
        /// no queue crossed the soft mark).
        voq_high_water: u64,
        /// Undelivered copies still queued when the window closed.
        backlog_copies: u64,
        /// `(input, output)` paths quarantined by the fault scoreboard
        /// when the window closed.
        quarantined_paths: u32,
        /// Wall time spent inside the scheduler's `run_slot` this window,
        /// in ns (0 when the engine does not time the schedule phase).
        sched_ns: u64,
        /// Wall time of the whole window's slot loop, in ns. Windowed
        /// slots/sec is `slots * 1e9 / wall_ns`.
        wall_ns: u64,
    },
    /// End-of-run marker: the number of slots actually executed. Emitted
    /// by the engine as the last event of an observed run; encodes idle
    /// slots explicitly (a slot below `slots_run` with no `SlotSched`
    /// record was idle, not lost).
    RunEnd {
        /// Slots executed (may be below the configured total if the
        /// backlog cap aborted the run).
        slots_run: u64,
    },
    /// The engine persisted a crash-recovery checkpoint (see `DESIGN.md`
    /// §15). Emitted *after* the trace byte offset stored inside the
    /// checkpoint was captured, so a recovery that truncates the trace to
    /// that offset and resumes re-emits this exact event — recovered and
    /// uninterrupted traces stay bit-identical.
    CheckpointWritten {
        /// The slot about to execute when the state was captured.
        slot: Slot,
        /// Monotonic checkpoint sequence number (`slot / interval`, so it
        /// is deterministic across recoveries).
        seq: u64,
        /// Size of the framed checkpoint blob in bytes.
        bytes: u64,
    },
    /// A supervisor began restoring a run from a checkpoint. Emitted to
    /// the *supervisor's* event log, never to the deterministic run trace
    /// (an uninterrupted run has no recoveries, so trace-level emission
    /// would break bit-identity).
    RecoveryStarted {
        /// The slot execution will resume from (the checkpoint's slot).
        slot: Slot,
        /// Sequence number of the checkpoint being restored.
        seq: u64,
    },
    /// A restore finished: state was loaded and the write-ahead arrival
    /// log replayed up to the crash frontier. Supervisor-log only, like
    /// [`ObsEvent::RecoveryStarted`].
    RecoveryCompleted {
        /// The first slot executed live after replay.
        slot: Slot,
        /// Write-ahead-log slots replayed deterministically.
        replayed: u64,
    },
}

impl ObsEvent {
    /// The event's kind as a stable lowercase tag (the `"event"` field of
    /// the JSONL export).
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::RunMeta { .. } => "run_meta",
            ObsEvent::SlotSched { .. } => "slot_sched",
            ObsEvent::FaultMasked { .. } => "fault_masked",
            ObsEvent::CopyKilled { .. } => "copy_killed",
            ObsEvent::CopyRecovered { .. } => "copy_recovered",
            ObsEvent::InvariantViolated { .. } => "invariant_violated",
            ObsEvent::RecorderMeta { .. } => "recorder_meta",
            ObsEvent::PacketArrived { .. } => "packet_arrived",
            ObsEvent::CopySent { .. } => "copy_sent",
            ObsEvent::PacketCompleted { .. } => "packet_completed",
            ObsEvent::AdmissionDropped { .. } => "admission_dropped",
            ObsEvent::VoqHighWater { .. } => "voq_high_water",
            ObsEvent::PhaseTimed { .. } => "phase_timed",
            ObsEvent::SlotTimeSummary { .. } => "slot_time",
            ObsEvent::WindowMeta { .. } => "window_meta",
            ObsEvent::WindowSummary { .. } => "window_summary",
            ObsEvent::RunEnd { .. } => "run_end",
            ObsEvent::CheckpointWritten { .. } => "checkpoint_written",
            ObsEvent::RecoveryStarted { .. } => "recovery_started",
            ObsEvent::RecoveryCompleted { .. } => "recovery_completed",
        }
    }

    /// The slot the event is anchored to, if it is slot-scoped.
    pub fn slot(&self) -> Option<Slot> {
        match self {
            ObsEvent::RunMeta { .. }
            | ObsEvent::RecorderMeta { .. }
            | ObsEvent::PhaseTimed { .. }
            | ObsEvent::SlotTimeSummary { .. }
            | ObsEvent::WindowMeta { .. }
            | ObsEvent::WindowSummary { .. }
            | ObsEvent::RunEnd { .. } => None,
            ObsEvent::SlotSched { slot, .. }
            | ObsEvent::FaultMasked { slot, .. }
            | ObsEvent::CopyKilled { slot, .. }
            | ObsEvent::CopyRecovered { slot, .. }
            | ObsEvent::InvariantViolated { slot, .. }
            | ObsEvent::PacketArrived { slot, .. }
            | ObsEvent::CopySent { slot, .. }
            | ObsEvent::PacketCompleted { slot, .. }
            | ObsEvent::AdmissionDropped { slot, .. }
            | ObsEvent::VoqHighWater { slot, .. }
            | ObsEvent::CheckpointWritten { slot, .. }
            | ObsEvent::RecoveryStarted { slot, .. }
            | ObsEvent::RecoveryCompleted { slot, .. } => Some(*slot),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable() {
        let meta = ObsEvent::RunMeta {
            switch: "FIFOMS".into(),
            traffic: "bernoulli".into(),
            ports: 16,
            params: vec![("p".into(), 0.2)],
        };
        assert_eq!(meta.kind(), "run_meta");
        assert_eq!(meta.slot(), None);
        let fault = ObsEvent::FaultMasked {
            slot: Slot(7),
            input: PortId(3),
            copies_dropped: 2,
            packet_dropped: false,
        };
        assert_eq!(fault.kind(), "fault_masked");
        assert_eq!(fault.slot(), Some(Slot(7)));
    }

    #[test]
    fn egress_fault_events_are_slot_scoped() {
        let killed = ObsEvent::CopyKilled {
            slot: Slot(12),
            input: PortId(0),
            output: PortId(5),
            packet: PacketId(42),
            requeued: true,
            retry: 1,
        };
        assert_eq!(killed.kind(), "copy_killed");
        assert_eq!(killed.slot(), Some(Slot(12)));
        let recovered = ObsEvent::CopyRecovered {
            slot: Slot(19),
            input: PortId(0),
            output: PortId(5),
            packet: PacketId(42),
            kills: 2,
            latency: 7,
        };
        assert_eq!(recovered.kind(), "copy_recovered");
        assert_eq!(recovered.slot(), Some(Slot(19)));
    }

    #[test]
    fn packet_events_are_slot_scoped() {
        let arrived = ObsEvent::PacketArrived {
            id: PacketId(9),
            slot: Slot(3),
            input: PortId(1),
            fanout: 4,
        };
        assert_eq!(arrived.kind(), "packet_arrived");
        assert_eq!(arrived.slot(), Some(Slot(3)));
        let sent = ObsEvent::CopySent {
            id: PacketId(9),
            slot: Slot(5),
            output: PortId(2),
            split: true,
        };
        assert_eq!(sent.kind(), "copy_sent");
        assert_eq!(sent.slot(), Some(Slot(5)));
        let done = ObsEvent::PacketCompleted {
            id: PacketId(9),
            slot: Slot(6),
        };
        assert_eq!(done.kind(), "packet_completed");
        assert_eq!(done.slot(), Some(Slot(6)));
        // Run-scoped markers carry no slot.
        let rec = ObsEvent::RecorderMeta {
            mode: "ring".into(),
            param: 1024,
        };
        assert_eq!(rec.kind(), "recorder_meta");
        assert_eq!(rec.slot(), None);
        let end = ObsEvent::RunEnd { slots_run: 1000 };
        assert_eq!(end.kind(), "run_end");
        assert_eq!(end.slot(), None);
    }

    #[test]
    fn profiler_events_are_run_scoped() {
        let phase = ObsEvent::PhaseTimed {
            phase: "grant".into(),
            calls: 625,
            inclusive_ns: 10_000,
            exclusive_ns: 9_000,
        };
        assert_eq!(phase.kind(), "phase_timed");
        assert_eq!(phase.slot(), None);
        let slot_time = ObsEvent::SlotTimeSummary {
            samples: 625,
            p50_ns: 2048,
            p99_ns: 8192,
            p999_ns: 16384,
            max_ns: 20000,
        };
        assert_eq!(slot_time.kind(), "slot_time");
        assert_eq!(slot_time.slot(), None);
    }

    #[test]
    fn telemetry_window_events_are_run_scoped() {
        let meta = ObsEvent::WindowMeta {
            stride: 1000,
            ring: 64,
            ports: 16,
        };
        assert_eq!(meta.kind(), "window_meta");
        assert_eq!(meta.slot(), None);
        let summary = ObsEvent::WindowSummary {
            window: 3,
            start_slot: 3000,
            slots: 1000,
            admitted_packets: 450,
            delivered_copies: 1800,
            completed_packets: 440,
            drop_tail_full: 12,
            drop_pushout: 0,
            drop_fair_shed: 3,
            copy_kills: 2,
            copy_recoveries: 2,
            voq_high_water: 48,
            backlog_copies: 90,
            quarantined_paths: 1,
            sched_ns: 1_000_000,
            wall_ns: 2_000_000,
        };
        assert_eq!(summary.kind(), "window_summary");
        assert_eq!(summary.slot(), None);
    }

    #[test]
    fn overload_events_are_slot_scoped() {
        let dropped = ObsEvent::AdmissionDropped {
            slot: Slot(4),
            input: PortId(2),
            packet: PacketId(11),
            copies: 3,
            cause: DropCause::TailFull,
        };
        assert_eq!(dropped.kind(), "admission_dropped");
        assert_eq!(dropped.slot(), Some(Slot(4)));
        let high = ObsEvent::VoqHighWater {
            slot: Slot(8),
            input: PortId(0),
            output: PortId(1),
            depth: 1024,
        };
        assert_eq!(high.kind(), "voq_high_water");
        assert_eq!(high.slot(), Some(Slot(8)));
    }
}
