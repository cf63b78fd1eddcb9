//! The per-run simulation loop.

use fifoms_fabric::Switch;
use fifoms_obs::{EventSink, PhaseProfiler, SnapshotBus, Telemetry};
use std::ops::ControlFlow;
use std::sync::Arc;
use fifoms_stats::{
    DelayStats, DelaySummary, OccupancySummary, OccupancyTracker, RunningStat,
    SaturationDetector, SaturationVerdict,
};
use fifoms_traffic::TrafficModel;
use fifoms_types::{
    Checkpoint, ObsEvent, Packet, PacketId, PortId, SimError, Slot, SlotOutcome, SpanSample,
    SpanTimer, StateError, StateReader, StateWriter, TypeError,
};

use crate::recover::RecoveryRuntime;

/// Parameters of one simulation run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Total slots to simulate (the paper uses 10^6).
    pub slots: u64,
    /// Slots excluded from statistics at the start (the paper uses half
    /// the run).
    pub warmup: u64,
    /// Hard cap on total queued copies; exceeding it aborts the run with
    /// [`SaturationVerdict::CapExceeded`].
    pub backlog_cap: usize,
    /// How often (in slots) to sample the backlog for the trend test.
    pub sample_every: u64,
}

impl RunConfig {
    /// The paper's configuration scaled to `slots` total slots: warmup is
    /// half the run, the backlog cap is 200k copies, backlog sampled every
    /// 100 slots.
    pub fn paper(slots: u64) -> RunConfig {
        RunConfig {
            slots,
            warmup: slots / 2,
            backlog_cap: 200_000,
            sample_every: 100,
        }
    }

    /// A quick configuration for tests and smoke benches.
    pub fn quick(slots: u64) -> RunConfig {
        RunConfig {
            slots,
            warmup: slots / 4,
            backlog_cap: 100_000,
            sample_every: 50,
        }
    }
}

/// Everything measured in one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Scheduler name as reported by the switch.
    pub switch_name: String,
    /// Workload name as reported by the traffic model.
    pub traffic_name: String,
    /// Analytic effective load of the workload, if known.
    pub offered_load: Option<f64>,
    /// The workload's defining parameters as `(name, value)` pairs (from
    /// [`TrafficModel::params`]). Makes a row self-describing even when
    /// `offered_load` is `None` — the provenance survives into checkpoint
    /// journals, metrics exports and traces.
    pub workload: Vec<(String, f64)>,
    /// Delay metrics (§V: input- and output-oriented averages).
    pub delay: DelaySummary,
    /// Queue-size metrics (§V: average and maximum queue size).
    pub occupancy: OccupancySummary,
    /// Mean convergence rounds over slots with at least one match (Fig. 5).
    pub mean_rounds: f64,
    /// Stability verdict; delay/queue numbers of saturated points are
    /// censored by the run length and flagged in reports.
    pub verdict: SaturationVerdict,
    /// Slots actually executed (less than requested if the cap aborted).
    pub slots_run: u64,
    /// Packets admitted over the whole run.
    pub packets_admitted: u64,
    /// Copies delivered after warmup.
    pub copies_delivered: u64,
    /// Delivered copies per output per post-warmup slot (throughput, in
    /// units of effective load).
    pub throughput: f64,
}

impl RunResult {
    /// Whether the operating point was sustainable.
    pub fn is_stable(&self) -> bool {
        !self.verdict.is_saturated()
    }
}

/// [`run`] with nothing attached: no observer, no recovery, no hook.
pub fn try_simulate(
    switch: &mut dyn Switch,
    traffic: &mut dyn TrafficModel,
    cfg: &RunConfig,
) -> Result<RunResult, SimError> {
    run(switch, traffic, cfg, &mut Observer::none(), None, &mut ())
}

/// Observation attachments for one run. Every channel defaults to off;
/// [`try_simulate`] is [`run`] with a disabled observer, so observation
/// can never perturb an unobserved result.
pub struct Observer<'a> {
    /// Event destination plus the scope label events are tagged with.
    /// When set, the engine emits one [`ObsEvent::RunMeta`] before slot 0
    /// and drains the switch stack's buffered events every slot.
    pub sink: Option<(&'a dyn EventSink, &'a str)>,
    /// Phase profiler plus its sampling stride `k`: every `k`-th slot has
    /// its engine phases (`traffic`, `admit`, `schedule`, `stats`, plus
    /// `persist` with recovery and `observe` with a sink or telemetry
    /// attached; see [`SlotHook::phase`]) timed. Sampling keeps clock
    /// reads off most slots so the profiled run stays representative.
    pub profiler: Option<(&'a mut PhaseProfiler, u64)>,
    /// Live telemetry channel (DESIGN.md §14). When set, the engine
    /// drains the switch stack's events every slot (feeding the windowed
    /// accumulator even with no `sink` attached), times each slot and its
    /// schedule phase, and closes a window every stride slots — emitting
    /// the summary to the channel's series sink and publishing a
    /// snapshot through its bus. Telemetry is read-only over the run's
    /// own counters, so results stay bit-identical when it is attached.
    pub telemetry: Option<TelemetryChannel<'a>>,
}

impl Observer<'_> {
    /// A fully disabled observer.
    pub fn none() -> Observer<'static> {
        Observer {
            sink: None,
            profiler: None,
            telemetry: None,
        }
    }
}

/// One run's wiring of the live telemetry layer: the windowed
/// accumulator plus where its outputs go. Both destinations are
/// optional — a caller may want only the JSONL time-series, only the
/// snapshot bus, or (in tests) just the filled [`Telemetry`].
pub struct TelemetryChannel<'a> {
    /// The windowed accumulator the engine feeds.
    pub telemetry: &'a mut Telemetry,
    /// Destination for `window_meta` / `window_summary` events plus the
    /// scope label they are tagged with (the `fifoms-timeseries-v1`
    /// stream). Kept separate from [`Observer::sink`]: the time-series
    /// is a different artifact from the event trace.
    pub series: Option<(&'a dyn EventSink, &'a str)>,
    /// Snapshot bus (plus this run's scope) publishing the whole-campaign
    /// live view on every window close.
    pub bus: Option<(&'a SnapshotBus, &'a str)>,
}

/// Shareable telemetry configuration for campaign runners (sweep, chaos,
/// overload): the owning side of [`TelemetryChannel`]. Cloned freely
/// across worker threads; each cell builds its own [`Telemetry`] and
/// borrows a per-run channel with [`TelemetrySpec::channel`].
#[derive(Clone, Default)]
pub struct TelemetrySpec {
    /// Shared sink for the `fifoms-timeseries-v1` JSONL stream.
    pub series: Option<Arc<dyn EventSink>>,
    /// Shared snapshot publisher.
    pub bus: Option<Arc<SnapshotBus>>,
    /// Slots per telemetry window.
    pub window: u64,
}

impl TelemetrySpec {
    /// A spec with the given window stride and no destinations (useful
    /// as a base for builder-style wiring).
    pub fn new(window: u64) -> TelemetrySpec {
        TelemetrySpec {
            series: None,
            bus: None,
            window,
        }
    }

    /// A fresh per-run accumulator sized for an `N`-port switch.
    pub fn new_telemetry(&self, ports: usize) -> Telemetry {
        Telemetry::new(ports, self.window)
    }

    /// Borrow a per-run channel feeding `telemetry`, tagging output with
    /// `scope`.
    pub fn channel<'a>(
        &'a self,
        telemetry: &'a mut Telemetry,
        scope: &'a str,
    ) -> TelemetryChannel<'a> {
        TelemetryChannel {
            telemetry,
            series: self.series.as_deref().map(|s| (s, scope)),
            bus: self.bus.as_deref().map(|b| (b, scope)),
        }
    }
}

/// [`run`] with crash-safe checkpointing attached (DESIGN.md §15) and
/// no hook.
pub fn try_simulate_recoverable(
    switch: &mut dyn Switch,
    traffic: &mut dyn TrafficModel,
    cfg: &RunConfig,
    obs: &mut Observer<'_>,
    recovery: &mut RecoveryRuntime,
) -> Result<RunResult, SimError> {
    run(switch, traffic, cfg, obs, Some(recovery), &mut ())
}

/// A caller's extension of the engine's slot loop (DESIGN.md §4): what a
/// chaos campaign, the allocation audit or a replay needs beyond loaded
/// slots and statistics, without a slot loop of its own. Every method
/// defaults to a no-op; `()` is the no-op hook the shims pass.
pub trait SlotHook<S: ?Sized> {
    /// The drain phase's stall window, or `None` (the default) to end the
    /// run after `cfg.slots` loaded slots. With a window, the engine keeps
    /// running slots without arrivals until the backlog is empty, or until
    /// `window` slots pass without the backlog falling below its lowest
    /// drained value.
    fn drain_window(&self) -> Option<u64> {
        None
    }

    /// The engine entered (`enter`) or left phase `name` of the current
    /// slot. In slot order: `persist` (checkpoint; recovery runs only),
    /// `traffic`, `persist` again (WAL), `admit`, `schedule`, `stats`, and
    /// `observe` (event forwarding and telemetry; only with a sink or
    /// telemetry attached). Sampled slots time the same phases in the
    /// profiler.
    fn phase(&mut self, _name: &'static str, _enter: bool) {}

    /// Called after every executed slot with the switch and the slot's
    /// outcome, before the outcome's buffers are recycled. Returning
    /// [`ControlFlow::Break`] ends the run after this slot.
    fn after_slot(
        &mut self,
        _switch: &mut S,
        _now: Slot,
        _outcome: &SlotOutcome,
    ) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
}

impl<S: ?Sized> SlotHook<S> for () {}

/// Mark one phase boundary: the profiler's span on sampled slots and the
/// hook's [`SlotHook::phase`] call both come from here.
#[inline(always)]
fn mark<S: Switch + ?Sized, H: SlotHook<S>>(
    obs: &mut Observer<'_>,
    hook: &mut H,
    timed: bool,
    name: &'static str,
    enter: bool,
) {
    if timed {
        if let Some((p, _)) = obs.profiler.as_mut() {
            if enter {
                p.enter(name);
            } else {
                p.exit(name);
            }
        }
    }
    hook.phase(name, enter);
}

/// Everything the slot loop accumulates over a run, checkpointed as one
/// component. A restore fills a value built by [`EngineState::new`] for
/// the same port count and [`RunConfig`].
pub(crate) struct EngineState {
    /// Packets admitted so far (the last packet id handed out).
    next_packet: u64,
    /// Copies delivered after warmup.
    copies_delivered: u64,
    /// Slots executed.
    slots_run: u64,
    delay: DelayStats,
    occupancy: OccupancyTracker,
    /// Convergence rounds of slots with at least one departure.
    rounds: RunningStat,
    detector: SaturationDetector,
    /// The drain cursor: the lowest backlog the drain phase has reached
    /// (`usize::MAX` before it starts) and the slot its stall window
    /// closes at.
    lowest_backlog: usize,
    drain_deadline: u64,
}

impl EngineState {
    fn new(ports: usize, cfg: &RunConfig) -> EngineState {
        let mut detector = SaturationDetector::new(cfg.backlog_cap);
        // Every backlog sample of the loaded phase, reserved before slot 0
        // so the sample vector never grows inside the loop.
        let samples = usize::try_from(cfg.slots / cfg.sample_every + 1).unwrap_or(usize::MAX);
        detector.reserve_samples(samples);
        EngineState {
            next_packet: 0,
            copies_delivered: 0,
            slots_run: 0,
            delay: DelayStats::new(),
            occupancy: OccupancyTracker::new(ports),
            rounds: RunningStat::new(),
            detector,
            lowest_backlog: usize::MAX,
            drain_deadline: 0,
        }
    }
}

impl Checkpoint for EngineState {
    fn state_kind(&self) -> &'static str {
        "fifoms-engine"
    }

    fn write_state(&self, w: &mut StateWriter) {
        w.put_u64(self.next_packet);
        w.put_u64(self.copies_delivered);
        w.put_u64(self.slots_run);
        self.delay.write_state(w);
        self.occupancy.write_state(w);
        self.rounds.write_state(w);
        self.detector.write_state(w);
        w.put_usize(self.lowest_backlog);
        w.put_u64(self.drain_deadline);
    }

    fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.next_packet = r.get_u64()?;
        self.copies_delivered = r.get_u64()?;
        self.slots_run = r.get_u64()?;
        self.delay.read_state(r)?;
        self.occupancy.read_state(r)?;
        self.rounds.read_state(r)?;
        self.detector.read_state(r)?;
        self.lowest_backlog = r.get_usize()?;
        self.drain_deadline = r.get_u64()?;
        Ok(())
    }
}

/// Run one `(switch, traffic)` pair to completion: the one entry point
/// of the slot loop.
///
/// Per slot: generate arrivals, [`Switch::admit`] each (preprocessing is
/// overlapped with scheduling, §IV-C), [`Switch::run_slot`], then record
/// post-warmup statistics and sample the backlog for saturation
/// detection. The attachments combine freely:
///
/// * `obs` streams events, samples phase timings and feeds live
///   telemetry (see [`Observer`]);
/// * `recovery` writes a checkpoint at the top of every due slot, logs
///   each slot's arrivals to the WAL, and, when opened over an existing
///   checkpoint, restores the run and resumes at the checkpointed slot,
///   verifying regenerated arrivals against the WAL across the replay
///   gap. A resumed run is bit-identical (trace, metrics, [`RunResult`])
///   to the uninterrupted one (DESIGN.md §15);
/// * `hook` sees every phase boundary and every finished slot, may stop
///   the run, and may ask for a drain phase after the loaded slots (see
///   [`SlotHook`]).
///
/// A checkpoint holds the engine's, the switch stack's, the traffic
/// model's and the telemetry's state. It does not hold the hook's own
/// fields, just as it holds no in-memory sink's state, nor any event the
/// stack has not handed on: a resumed run hands the hook only the slots
/// from the checkpoint on.
///
/// Fails with a [`SimError`] if `cfg.warmup >= cfg.slots`,
/// `cfg.sample_every == 0`, the traffic model's port count differs from
/// the switch's, or recovery fails.
pub fn run<S: Switch + ?Sized, H: SlotHook<S>>(
    switch: &mut S,
    traffic: &mut dyn TrafficModel,
    cfg: &RunConfig,
    obs: &mut Observer<'_>,
    mut recovery: Option<&mut RecoveryRuntime>,
    hook: &mut H,
) -> Result<RunResult, SimError> {
    if cfg.warmup >= cfg.slots {
        return Err(SimError::WarmupTooLong {
            warmup: cfg.warmup,
            slots: cfg.slots,
        });
    }
    if cfg.sample_every == 0 {
        return Err(SimError::Config(TypeError::NonPositive {
            name: "sample_every",
            got: 0.0,
        }));
    }
    if switch.ports() != traffic.ports() {
        return Err(SimError::SizeMismatch {
            switch_ports: switch.ports(),
            traffic_ports: traffic.ports(),
        });
    }
    let n = switch.ports();
    let mut st = EngineState::new(n, cfg);
    let mut arrivals: Vec<Option<_>> = Vec::with_capacity(n);
    let mut queue_buf: Vec<usize> = Vec::with_capacity(n);
    let mut event_buf: Vec<ObsEvent> = Vec::new();
    let mut span_buf: Vec<SpanSample> = Vec::new();
    // Pre-sized quarantine poll buffer: window closes must not allocate
    // (the N×N worst case is every path quarantined).
    let mut quarantine_buf: Vec<(PortId, PortId)> = Vec::new();
    if obs.telemetry.is_some() {
        quarantine_buf.reserve(n * n);
    }

    // A pending resume restores every component the checkpoint holds,
    // then the loop restarts at the checkpointed slot. Resumed runs skip
    // the run_meta/window_meta preamble — the truncated trace already
    // carries it.
    let mut start_slot = 0u64;
    if let Some(rec) = recovery.as_deref_mut() {
        let tele = obs.telemetry.as_mut().map(|tc| &mut *tc.telemetry);
        start_slot = rec.apply_resume(&mut st, switch, traffic, tele)?;
    }

    if start_slot == 0 {
        if let Some((sink, scope)) = obs.sink {
            sink.emit(
                scope,
                &ObsEvent::RunMeta {
                    switch: switch.name(),
                    traffic: traffic.name(),
                    ports: n as u32,
                    params: traffic
                        .params()
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect(),
                },
            );
        }
        if let Some(tc) = obs.telemetry.as_ref() {
            tc.begin();
        }
    }

    let observing = obs.sink.is_some() || obs.telemetry.is_some();
    let drain_window = hook.drain_window();
    let mut t = start_slot;
    loop {
        if t >= cfg.slots {
            // Drain phase, when the hook asks for one: no arrivals, and a
            // stall window that restarts whenever the backlog reaches a
            // new low. Once admissions stop the backlog cannot grow, so a
            // full window without a new low means no copy will move again.
            // The cursor is engine state, so a resumed drain keeps its
            // window.
            let Some(window) = drain_window else { break };
            let copies = switch.backlog().copies;
            if copies == 0 {
                break;
            }
            if copies < st.lowest_backlog {
                st.lowest_backlog = copies;
                st.drain_deadline = t.saturating_add(window);
            }
            if t >= st.drain_deadline {
                break;
            }
        }
        let now = Slot(t);
        let timed = match &obs.profiler {
            Some((_, every)) => t.is_multiple_of(*every.max(&1)),
            None => false,
        };
        // Wall-clock for the whole slot, feeding the tail histogram.
        let slot_timer = timed.then(SpanTimer::start);
        // Telemetry times every slot (one clock read; its wall time
        // feeds windowed slots/sec and the live tail histogram). Both
        // timers exist only when their consumer is attached, so the
        // plain path never reads a clock.
        let tele_active = obs.telemetry.is_some();
        let tele_timer = tele_active.then(SpanTimer::start);
        if let Some(rec) = recovery.as_deref_mut() {
            mark(obs, hook, timed, "persist", true);
            // Checkpoint at the top of the slot, *before* the traffic
            // draw, so a restart at `t` regenerates the slot in full.
            // The trace offset is captured before the checkpoint_written
            // event is emitted: on resume the due checkpoint re-fires,
            // idempotently rewriting the same file and re-emitting the
            // identical event, so the trace stays byte-for-byte equal to
            // the uninterrupted run's. Events the stack still buffers are
            // output, not state: they are handed on (or, unobserved,
            // dropped) first, so no checkpoint carries one.
            if rec.checkpoint_due(t) {
                forward_events(switch, obs, &mut event_buf);
                if let Some((sink, _)) = obs.sink {
                    sink.flush();
                }
                let telemetry = obs.telemetry.as_ref().map(|tc| &*tc.telemetry);
                let (seq, bytes) = rec.write_checkpoint(t, &st, switch, traffic, telemetry)?;
                let event = ObsEvent::CheckpointWritten {
                    slot: now,
                    seq,
                    bytes,
                };
                if let Some(tc) = obs.telemetry.as_mut() {
                    tc.telemetry.observe_event(&event);
                }
                if let Some((sink, scope)) = obs.sink {
                    sink.emit(scope, &event);
                }
            }
            mark(obs, hook, timed, "persist", false);
            // The deliberate crash hook fires after any due checkpoint —
            // exactly what a real crash between two checkpoints looks
            // like to the recovery path.
            if rec.kill_due(t) {
                if let Some((sink, _)) = obs.sink {
                    sink.flush();
                }
                return Err(SimError::Killed { slot: t });
            }
        }
        mark(obs, hook, timed, "traffic", true);
        if t < cfg.slots {
            traffic.next_slot(now, &mut arrivals);
        } else {
            // Drain slots admit nothing and log an empty arrival list,
            // however the run reached them.
            arrivals.clear();
        }
        mark(obs, hook, timed, "traffic", false);
        if let Some(rec) = recovery.as_deref_mut() {
            // Write-ahead log the raw arrivals; across a resume's replay
            // gap this also verifies the restored traffic model is
            // regenerating the logged pre-crash arrivals.
            mark(obs, hook, timed, "persist", true);
            rec.record_arrivals(t, &arrivals)?;
            mark(obs, hook, timed, "persist", false);
        }
        let admitted_before = st.next_packet;
        mark(obs, hook, timed, "admit", true);
        for (input, dests) in arrivals.iter_mut().enumerate() {
            if let Some(dests) = dests.take() {
                st.next_packet += 1;
                switch.admit(Packet::new(
                    PacketId(st.next_packet),
                    now,
                    PortId::new(input),
                    dests,
                ));
            }
        }
        mark(obs, hook, timed, "admit", false);
        if timed {
            switch.set_span_recording(true);
        }
        mark(obs, hook, timed, "schedule", true);
        let sched_timer = tele_active.then(SpanTimer::start);
        let outcome = switch.run_slot(now);
        let sched_ns = sched_timer.map_or(0, |tm| tm.elapsed_ns());
        mark(obs, hook, timed, "schedule", false);
        if timed {
            // Attach the switch's self-measured sub-phases (VOQ scan,
            // request build, grant arbitration, commit) as children of the
            // just-closed `schedule` span. Switches without sub-phase
            // instrumentation report nothing and the span stays flat.
            switch.set_span_recording(false);
            span_buf.clear();
            switch.drain_spans(&mut span_buf);
            if let Some((p, _)) = obs.profiler.as_mut() {
                for s in &span_buf {
                    p.record_child("schedule", s.name, s.ns);
                }
            }
        }
        st.slots_run = t + 1;

        mark(obs, hook, timed, "stats", true);
        if t >= cfg.warmup {
            for d in &outcome.departures {
                st.delay.record_copy(d.delay(now), d.last_copy);
            }
            st.copies_delivered += outcome.departures.len() as u64;
            if !outcome.departures.is_empty() {
                st.rounds.push_u64(outcome.rounds as u64);
            }
            switch.queue_sizes(&mut queue_buf);
            st.occupancy.sample(&queue_buf);
        }
        let capped =
            t.is_multiple_of(cfg.sample_every) && st.detector.observe(switch.backlog().copies);
        mark(obs, hook, timed, "stats", false);
        if observing {
            mark(obs, hook, timed, "observe", true);
            forward_events(switch, obs, &mut event_buf);
            if let Some(tc) = obs.telemetry.as_mut() {
                let wall_ns = tele_timer.map_or(0, |tm| tm.elapsed_ns());
                tc.end_slot(
                    switch,
                    now,
                    &outcome,
                    st.next_packet - admitted_before,
                    sched_ns,
                    wall_ns,
                    &mut quarantine_buf,
                );
            }
            mark(obs, hook, timed, "observe", false);
        }
        if let (Some(timer), Some((p, _))) = (slot_timer, obs.profiler.as_mut()) {
            p.record_slot_ns(timer.elapsed_ns());
        }
        let flow = hook.after_slot(switch, now, &outcome);
        // Hand the outcome's heap buffers back for the next slot. Runs on
        // every path (observed or not): recycling is memory reuse only,
        // so it cannot perturb results.
        switch.recycle(outcome);
        if capped || flow.is_break() {
            break; // backlog cap exceeded (the point is hopeless) or the hook stopped the run
        }
        t += 1;
    }

    if observing {
        // Let buffering wrappers (the ring-buffer flight recorder) move
        // retained events into the drain path, then a final drain catches
        // everything buffered during the last slot's teardown (e.g. a
        // violation recorded on the aborting slot). This block only runs
        // with observation attached, so unobserved runs stay bit-identical.
        switch.end_of_run();
        forward_events(switch, obs, &mut event_buf);
    }
    if let Some((sink, scope)) = obs.sink {
        // With a profiler also attached, surface its totals in the trace:
        // one PhaseTimed per phase name (aggregated over the span tree)
        // and the per-slot wall-time tail summary. Run-scoped, so they sit
        // with the other teardown records just before RunEnd.
        if let Some((p, _)) = obs.profiler.as_mut() {
            for (phase, stats) in p.phases() {
                sink.emit(
                    scope,
                    &ObsEvent::PhaseTimed {
                        phase: phase.to_string(),
                        calls: stats.calls,
                        inclusive_ns: stats.inclusive_ns,
                        exclusive_ns: stats.exclusive_ns,
                    },
                );
            }
            let slot_times = p.slot_times();
            if !slot_times.is_empty() {
                sink.emit(
                    scope,
                    &ObsEvent::SlotTimeSummary {
                        samples: slot_times.count(),
                        p50_ns: slot_times.quantile(0.5),
                        p99_ns: slot_times.quantile(0.99),
                        p999_ns: slot_times.quantile(0.999),
                        max_ns: slot_times.max(),
                    },
                );
            }
        }
        // Terminate the scope's stream: slots in [0, slots_run) with no
        // slot_sched record are idle, not missing — `analyze` relies on
        // this to compute utilisation without guessing.
        sink.emit(
            scope,
            &ObsEvent::RunEnd {
                slots_run: st.slots_run,
            },
        );
        sink.flush();
    }
    if let Some(tc) = obs.telemetry.as_mut() {
        tc.end_run(switch, st.slots_run, &mut quarantine_buf);
    }

    let measured_slots = st.slots_run.saturating_sub(cfg.warmup).max(1);
    Ok(RunResult {
        switch_name: switch.name(),
        traffic_name: traffic.name(),
        offered_load: traffic.effective_load(),
        workload: traffic
            .params()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        delay: st.delay.summary(),
        occupancy: st.occupancy.summary(),
        mean_rounds: st.rounds.mean(),
        verdict: st.detector.verdict(),
        slots_run: st.slots_run,
        packets_admitted: st.next_packet,
        copies_delivered: st.copies_delivered,
        throughput: st.copies_delivered as f64 / (measured_slots * n as u64) as f64,
    })
}

/// Drain the switch stack's buffered events into the telemetry window
/// and the trace sink, in that order.
fn forward_events<S: Switch + ?Sized>(
    switch: &mut S,
    obs: &mut Observer<'_>,
    buf: &mut Vec<ObsEvent>,
) {
    switch.drain_events(buf);
    for e in buf.drain(..) {
        if let Some(tc) = obs.telemetry.as_mut() {
            tc.telemetry.observe_event(&e);
        }
        if let Some((sink, scope)) = obs.sink {
            sink.emit(scope, &e);
        }
    }
}

impl TelemetryChannel<'_> {
    /// Open the time-series stream with its `window_meta` record.
    fn begin(&self) {
        if let Some((sink, scope)) = self.series {
            sink.emit(scope, &self.telemetry.meta_event());
        }
    }

    /// Fold one executed slot into the current window. On a full stride
    /// the window closes: the quarantine view is refreshed from
    /// `switch`, the summary goes to the series sink and the snapshot is
    /// published. All counter updates are integer field writes, `paths`
    /// is reserved to N×N up front, and a publication only copies
    /// counters into the bus's buffer, so nothing here allocates after
    /// the first publication.
    #[allow(clippy::too_many_arguments)]
    fn end_slot<S: Switch + ?Sized>(
        &mut self,
        switch: &S,
        now: Slot,
        outcome: &SlotOutcome,
        admitted_packets: u64,
        sched_ns: u64,
        wall_ns: u64,
        paths: &mut Vec<(PortId, PortId)>,
    ) {
        self.telemetry.record_slot(
            admitted_packets,
            outcome.departures.len() as u64,
            outcome.completed_packets() as u64,
            sched_ns,
            wall_ns,
        );
        if self.telemetry.window_full() {
            paths.clear();
            switch.quarantined_paths(now, paths);
            self.telemetry.set_path_state(paths);
            let summary = self.telemetry.close_window(switch.backlog().copies as u64);
            if let Some((sink, scope)) = self.series {
                sink.emit(scope, &summary);
            }
            if let Some((bus, scope)) = self.bus {
                bus.publish(scope, self.telemetry, false);
            }
        }
    }

    /// Close the partial final window (if any), flush the series stream,
    /// and publish the completion-marked snapshot so `top` can tell a
    /// finished scope from a stalled one.
    fn end_run<S: Switch + ?Sized>(
        &mut self,
        switch: &S,
        slots_run: u64,
        paths: &mut Vec<(PortId, PortId)>,
    ) {
        paths.clear();
        switch.quarantined_paths(Slot(slots_run.saturating_sub(1)), paths);
        self.telemetry.set_path_state(paths);
        if let Some(summary) = self.telemetry.finish(switch.backlog().copies as u64) {
            if let Some((sink, scope)) = self.series {
                sink.emit(scope, &summary);
            }
        }
        if let Some((sink, _)) = self.series {
            sink.flush();
        }
        if let Some((bus, scope)) = self.bus {
            bus.publish(scope, self.telemetry, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifoms_baselines::OqFifoSwitch;
    use fifoms_core::MulticastVoqSwitch;
    use fifoms_traffic::{BernoulliMulticast, UniformUnicast};

    #[test]
    fn idle_traffic_produces_empty_result() {
        let mut sw = MulticastVoqSwitch::new(4, 0);
        let mut tr = UniformUnicast::new(4, 0.0, 0).unwrap();
        let r = try_simulate(&mut sw, &mut tr, &RunConfig::quick(1000)).expect("run");
        assert_eq!(r.packets_admitted, 0);
        assert_eq!(r.copies_delivered, 0);
        assert_eq!(r.delay.delivered_copies, 0);
        assert_eq!(r.throughput, 0.0);
        assert!(r.is_stable());
        assert_eq!(r.slots_run, 1000);
    }

    #[test]
    fn light_load_fifoms_near_zero_delay() {
        let mut sw = MulticastVoqSwitch::new(8, 1);
        let mut tr = BernoulliMulticast::new(8, 0.05, 0.25, 2).unwrap();
        let r = try_simulate(&mut sw, &mut tr, &RunConfig::quick(20_000)).expect("run");
        assert!(r.is_stable());
        assert!(
            r.delay.mean_output_oriented < 1.0,
            "light-load delay {}",
            r.delay.mean_output_oriented
        );
        assert!(r.occupancy.mean < 1.0);
        assert!(r.delay.delivered_copies > 0);
    }

    #[test]
    fn throughput_matches_offered_load_when_stable() {
        let mut sw = OqFifoSwitch::new(8);
        let mut tr = BernoulliMulticast::new(8, 0.3, 0.25, 3).unwrap();
        let r = try_simulate(&mut sw, &mut tr, &RunConfig::quick(40_000)).expect("run");
        assert!(r.is_stable());
        // Empty-fanout resampling biases the true load above the nominal
        // p·b·N by 1/(1-(1-b)^N); compare against the corrected value.
        let corrected = r.offered_load.unwrap() / (1.0 - 0.75f64.powi(8));
        assert!(
            (r.throughput - corrected).abs() / corrected < 0.03,
            "throughput {} vs corrected offered {}",
            r.throughput,
            corrected
        );
    }

    #[test]
    fn overload_detected_as_saturated() {
        // Offered load 2.0 — no scheduler can sustain it.
        let mut sw = MulticastVoqSwitch::new(8, 1);
        let mut tr = BernoulliMulticast::new(8, 1.0, 0.25, 4).unwrap();
        let r = try_simulate(&mut sw, &mut tr, &RunConfig::quick(20_000)).expect("run");
        assert!(r.verdict.is_saturated());
        // throughput is capped near 1.0 per output
        assert!(r.throughput <= 1.01);
    }

    #[test]
    fn backlog_cap_aborts_early() {
        let mut sw = MulticastVoqSwitch::new(8, 1);
        let mut tr = BernoulliMulticast::new(8, 1.0, 0.5, 5).unwrap();
        let cfg = RunConfig {
            slots: 100_000,
            warmup: 50_000,
            backlog_cap: 2_000,
            sample_every: 10,
        };
        let r = try_simulate(&mut sw, &mut tr, &cfg).expect("run");
        assert_eq!(r.verdict, SaturationVerdict::CapExceeded);
        assert!(r.slots_run < 100_000, "run should abort early");
    }

    #[test]
    fn try_simulate_surfaces_precondition_errors() {
        let mut sw = MulticastVoqSwitch::new(4, 0);
        let mut tr = UniformUnicast::new(4, 0.1, 0).unwrap();
        let cfg = RunConfig {
            slots: 10,
            warmup: 10,
            backlog_cap: 100,
            sample_every: 1,
        };
        let e = try_simulate(&mut sw, &mut tr, &cfg).unwrap_err();
        assert_eq!(
            e,
            SimError::WarmupTooLong {
                warmup: 10,
                slots: 10
            }
        );
        let cfg = RunConfig {
            sample_every: 0,
            ..RunConfig::quick(100)
        };
        let e = try_simulate(&mut sw, &mut tr, &cfg).unwrap_err();
        assert_eq!(
            e,
            SimError::Config(TypeError::NonPositive {
                name: "sample_every",
                got: 0.0
            })
        );
        let mut tr8 = UniformUnicast::new(8, 0.1, 0).unwrap();
        let e = try_simulate(&mut sw, &mut tr8, &RunConfig::quick(100)).unwrap_err();
        assert_eq!(
            e,
            SimError::SizeMismatch {
                switch_ports: 4,
                traffic_ports: 8
            }
        );
    }

    #[test]
    fn oq_delay_lower_bounds_fifoms() {
        // At a moderate multicast load the OQ switch (speedup N) can only
        // be better (or equal) on output-oriented delay.
        let cfg = RunConfig::quick(30_000);
        let mut oq = OqFifoSwitch::new(8);
        let mut tr = BernoulliMulticast::new(8, 0.35, 0.25, 7).unwrap();
        let r_oq = try_simulate(&mut oq, &mut tr, &cfg).expect("run");
        let mut fs = MulticastVoqSwitch::new(8, 7);
        let mut tr = BernoulliMulticast::new(8, 0.35, 0.25, 7).unwrap();
        let r_fs = try_simulate(&mut fs, &mut tr, &cfg).expect("run");
        assert!(r_oq.is_stable() && r_fs.is_stable());
        assert!(
            r_oq.delay.mean_output_oriented <= r_fs.delay.mean_output_oriented + 0.05,
            "OQ {} vs FIFOMS {}",
            r_oq.delay.mean_output_oriented,
            r_fs.delay.mean_output_oriented
        );
    }

    /// Records the backlog after every slot, stops after slot `stop_after`
    /// when set, and asks for a drain phase when `window` is set.
    #[derive(Default)]
    struct Probe {
        window: Option<u64>,
        stop_after: Option<u64>,
        backlog_after: Vec<usize>,
        phases: Vec<(&'static str, bool)>,
    }

    impl<S: Switch + ?Sized> SlotHook<S> for Probe {
        fn drain_window(&self) -> Option<u64> {
            self.window
        }
        fn phase(&mut self, name: &'static str, enter: bool) {
            self.phases.push((name, enter));
        }
        fn after_slot(&mut self, switch: &mut S, now: Slot, _: &SlotOutcome) -> ControlFlow<()> {
            assert_eq!(
                now.0,
                self.backlog_after.len() as u64,
                "one call per slot, in order"
            );
            self.backlog_after.push(switch.backlog().copies);
            match self.stop_after {
                Some(k) if now.0 == k => ControlFlow::Break(()),
                _ => ControlFlow::Continue(()),
            }
        }
    }

    fn drain_config(slots: u64) -> RunConfig {
        RunConfig {
            slots,
            warmup: 0,
            backlog_cap: usize::MAX,
            sample_every: 10,
        }
    }

    #[test]
    fn drained_run_ends_at_the_first_empty_backlog_after_the_loaded_slots() {
        // Overload for 300 slots leaves a deep backlog to drain.
        let cfg = drain_config(300);
        let mut sw = MulticastVoqSwitch::new(8, 1);
        let mut tr = BernoulliMulticast::new(8, 1.0, 0.25, 4).unwrap();
        let mut probe = Probe {
            window: Some(1_000),
            ..Probe::default()
        };
        let r = run(
            &mut sw,
            &mut tr,
            &cfg,
            &mut Observer::none(),
            None,
            &mut probe,
        )
        .unwrap();
        assert!(
            r.slots_run > cfg.slots + 10,
            "the drain phase ran: {}",
            r.slots_run
        );
        assert_eq!(r.slots_run, probe.backlog_after.len() as u64);
        // Slot t's backlog is what the drain check at slot t + 1 sees.
        let last = r.slots_run as usize - 1;
        assert_eq!(probe.backlog_after[last], 0);
        for t in cfg.slots as usize - 1..last {
            assert!(probe.backlog_after[t] > 0, "slot {t} left an empty backlog");
        }
        assert!(sw.backlog().is_empty());

        // Without a window the same run stops at `cfg.slots`, having
        // admitted the same packets: the drain phase admits none.
        let mut sw = MulticastVoqSwitch::new(8, 1);
        let mut tr = BernoulliMulticast::new(8, 1.0, 0.25, 4).unwrap();
        let plain = try_simulate(&mut sw, &mut tr, &cfg).unwrap();
        assert_eq!(plain.slots_run, cfg.slots);
        assert_eq!(plain.packets_admitted, r.packets_admitted);
        assert!(!sw.backlog().is_empty());
    }

    /// Queues every copy it is given and never delivers one.
    struct Blackhole {
        queued: usize,
    }

    impl Switch for Blackhole {
        fn name(&self) -> String {
            "blackhole".into()
        }
        fn ports(&self) -> usize {
            4
        }
        fn admit(&mut self, packet: Packet) {
            self.queued += packet.fanout();
        }
        fn run_slot(&mut self, _now: Slot) -> SlotOutcome {
            SlotOutcome::idle()
        }
        fn queue_sizes(&self, out: &mut Vec<usize>) {
            out.clear();
            out.resize(4, 0);
        }
        fn backlog(&self) -> fifoms_fabric::Backlog {
            fifoms_fabric::Backlog {
                packets: self.queued.min(1),
                copies: self.queued,
            }
        }
        fn save_state(&self) -> Result<Vec<u8>, StateError> {
            let mut w = StateWriter::new();
            w.put_usize(self.queued);
            Ok(w.into_bytes())
        }
        fn load_state(&mut self, blob: &[u8]) -> Result<(), StateError> {
            self.queued = StateReader::new(blob).get_usize()?;
            Ok(())
        }
    }

    #[test]
    fn a_switch_that_never_delivers_stops_after_one_stall_window() {
        let cfg = drain_config(50);
        let mut sw = Blackhole { queued: 0 };
        let mut tr = BernoulliMulticast::new(4, 0.5, 0.5, 2).unwrap();
        let mut probe = Probe {
            window: Some(70),
            ..Probe::default()
        };
        let r = run(
            &mut sw,
            &mut tr,
            &cfg,
            &mut Observer::none(),
            None,
            &mut probe,
        )
        .unwrap();
        assert_eq!(r.slots_run, cfg.slots + 70);
        assert!(sw.backlog().copies > 0);
        assert_eq!(r.copies_delivered, 0);
    }

    /// A drain window and nothing else: a checkpoint holds no hook
    /// fields, so a resumed run can take a fresh one.
    struct Drain(u64);

    impl<S: Switch + ?Sized> SlotHook<S> for Drain {
        fn drain_window(&self) -> Option<u64> {
            Some(self.0)
        }
    }

    #[test]
    fn a_stalled_drain_killed_twice_keeps_its_stall_window() {
        let cfg = drain_config(50);
        let dir = std::env::temp_dir().join(format!("fifoms-stalled-drain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ck = crate::recover::CheckpointConfig {
            dir: dir.clone(),
            every: 20,
        };
        let attempt = |recovery: Option<(bool, Option<u64>)>| {
            let mut rec = recovery.map(|(resume, kill)| {
                let mut rec = if resume {
                    RecoveryRuntime::open(&ck)
                } else {
                    RecoveryRuntime::fresh(&ck)
                }
                .expect("state dir");
                if let Some(slot) = kill {
                    rec.kill_at(slot);
                }
                rec
            });
            let mut sw = Blackhole { queued: 0 };
            let mut tr = BernoulliMulticast::new(4, 0.5, 0.5, 2).unwrap();
            run(
                &mut sw,
                &mut tr,
                &cfg,
                &mut Observer::none(),
                rec.as_mut(),
                &mut Drain(70),
            )
            .map(|r| format!("{r:?}"))
        };
        let reference = attempt(None).expect("uninterrupted run");
        // The stall window opens at slot 50 and closes at 120. Checkpoints
        // at 60 and 100 fall inside it; the kills at 70 and 110 resume
        // from them.
        assert_eq!(
            attempt(Some((false, Some(70)))),
            Err(SimError::Killed { slot: 70 })
        );
        assert_eq!(
            attempt(Some((true, Some(110)))),
            Err(SimError::Killed { slot: 110 })
        );
        let recovered = attempt(Some((true, None))).expect("recovered run");
        assert_eq!(recovered, reference);
        assert!(reference.contains("slots_run: 120,"), "{reference}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_hook_that_breaks_after_slot_k_runs_k_plus_one_slots() {
        let mut sw = MulticastVoqSwitch::new(8, 1);
        let mut tr = BernoulliMulticast::new(8, 0.3, 0.25, 3).unwrap();
        let mut probe = Probe {
            stop_after: Some(37),
            ..Probe::default()
        };
        let r = run(
            &mut sw,
            &mut tr,
            &RunConfig::quick(1_000),
            &mut Observer::none(),
            None,
            &mut probe,
        )
        .unwrap();
        assert_eq!(r.slots_run, 38);
        assert_eq!(probe.backlog_after.len(), 38);
    }

    #[test]
    fn phases_are_marked_in_slot_order() {
        let mut sw = MulticastVoqSwitch::new(4, 1);
        let mut tr = BernoulliMulticast::new(4, 0.3, 0.5, 3).unwrap();
        let cfg = RunConfig::quick(4);
        let mut probe = Probe::default();
        run(
            &mut sw,
            &mut tr,
            &cfg,
            &mut Observer::none(),
            None,
            &mut probe,
        )
        .unwrap();
        let plain = ["traffic", "admit", "schedule", "stats"];
        let expect: Vec<_> = plain
            .iter()
            .flat_map(|p| [(*p, true), (*p, false)])
            .collect();
        assert_eq!(probe.phases.len(), 4 * expect.len());
        assert_eq!(probe.phases[..expect.len()], expect[..]);

        // Telemetry adds the observe phase after stats.
        let mut sw = MulticastVoqSwitch::new(4, 1);
        let mut tr = BernoulliMulticast::new(4, 0.3, 0.5, 3).unwrap();
        let mut telemetry = Telemetry::new(4, 2);
        let mut obs = Observer {
            sink: None,
            profiler: None,
            telemetry: Some(TelemetryChannel {
                telemetry: &mut telemetry,
                series: None,
                bus: None,
            }),
        };
        let mut probe = Probe::default();
        run(&mut sw, &mut tr, &cfg, &mut obs, None, &mut probe).unwrap();
        let observed: Vec<_> = plain
            .iter()
            .chain(&["observe"])
            .flat_map(|p| [(*p, true), (*p, false)])
            .collect();
        assert_eq!(probe.phases[..observed.len()], observed[..]);
    }
}
