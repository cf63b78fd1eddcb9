//! Steady-state allocation audit: does the slot loop touch the heap?
//!
//! The hot path's performance story (DESIGN.md §13) rests on a claim the
//! span profiler cannot prove: after warmup, a slot performs **zero**
//! heap allocations. [`alloc_audit`] proves it for the loop production
//! runs use: it runs the engine itself, with the caller's [`Observer`]
//! attached, and its [`SlotHook`] reads a caller-supplied monotonic
//! allocation counter at every phase boundary the engine marks.
//!
//! The counter is abstract (`&dyn Fn() -> u64`) so this crate stays free
//! of `unsafe`: the real counting [`GlobalAlloc`](std::alloc::GlobalAlloc)
//! lives in the binaries that opt in (`fifoms-repro` behind the
//! `alloc-audit` feature, and the root `alloc_audit` integration test).
//! Warmup slots are exempt — growing VOQs, scratch vectors and stats
//! buffers to steady-state size is exactly the amortization the audit is
//! meant to separate from per-slot cost.

use std::ops::ControlFlow;

use fifoms_fabric::Switch;
use fifoms_obs::Json;
use fifoms_traffic::TrafficModel;
use fifoms_types::{SimError, Slot, SlotOutcome};

use crate::engine::{run, Observer, RunConfig, SlotHook};

/// The engine's phases in slot order, as the audit reports them.
const PHASES: [&str; 6] = [
    "persist", "traffic", "admit", "schedule", "stats", "observe",
];

/// Per-phase allocation tallies over the measured window of one audit run.
#[derive(Clone, Debug)]
pub struct AllocAuditReport {
    /// Scheduler name as reported by the switch.
    pub switch_name: String,
    /// Workload name as reported by the traffic model.
    pub traffic_name: String,
    /// Slots excluded from counting at the start.
    pub warmup_slots: u64,
    /// Slots whose allocations were counted.
    pub measured_slots: u64,
    /// Allocations attributed to each engine phase over the measured
    /// window, in engine order: `persist`, `traffic`, `admit`,
    /// `schedule`, `stats`, `observe`. An audit never attaches recovery,
    /// so `persist` stays 0; `observe` counts only when the observer has
    /// a sink or telemetry attached.
    pub phase_allocs: [(&'static str, u64); 6],
    /// Packets admitted over the whole run (keeps the workload honest —
    /// an idle audit proves nothing).
    pub packets_admitted: u64,
    /// Copies delivered in the measured window, same role as
    /// `packets_admitted`.
    pub copies_delivered: u64,
}

impl AllocAuditReport {
    /// Total allocations across all phases in the measured window.
    pub fn total_allocs(&self) -> u64 {
        self.phase_allocs.iter().map(|(_, a)| a).sum()
    }

    /// Whether the steady-state slot loop was allocation-free.
    pub fn is_clean(&self) -> bool {
        self.total_allocs() == 0
    }

    /// Render as a `fifoms-alloc-audit-v1` JSON document.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("schema", "fifoms-alloc-audit-v1");
        obj.set("switch", self.switch_name.as_str());
        obj.set("traffic", self.traffic_name.as_str());
        obj.set("warmup_slots", self.warmup_slots);
        obj.set("measured_slots", self.measured_slots);
        obj.set("packets_admitted", self.packets_admitted);
        obj.set("copies_delivered", self.copies_delivered);
        obj.set("total_allocs", self.total_allocs());
        obj.set("clean", self.is_clean());
        let mut phases = Vec::new();
        for (phase, allocs) in self.phase_allocs {
            let mut row = Json::object();
            row.set("phase", phase);
            row.set("allocs", allocs);
            phases.push(row);
        }
        obj.set("phases", phases);
        obj
    }
}

/// Queued copies per input port pre-reserved before an audited run (via
/// [`Switch::reserve_steady_state`], split evenly over the port's `N`
/// VOQs: 512 per VOQ at N=8, 64 at N=64, 16 at N=256). Unbounded queues
/// keep setting new high-water marks — rarely, but forever — so without a
/// reservation the audit would report a slow trickle of genuine growth
/// allocations. The reservation turns the claim into the one that
/// matters: with buffers sized for the operating point, the slot loop
/// itself never allocates. Depth records past the reservation still show
/// up as failures. A per-port budget rather than a per-VOQ one keeps the
/// pre-reserved memory linear in `N`.
pub const AUDIT_RESERVE_PER_INPUT: usize = 4096;

/// Run `warmup + measure` slots of `(switch, traffic)` through the engine
/// under [`RunConfig::paper`] with `warmup` as its statistics warmup and
/// `obs` attached, attributing allocation-counter deltas of the last
/// `measure` slots to the engine's phases. Internal queues are
/// pre-reserved for [`AUDIT_RESERVE_PER_INPUT`] copies per input port
/// before slot 0.
///
/// `counter` must be monotonically non-decreasing and count allocation
/// *events* (not bytes); it is read at every phase entry and at the end
/// of every slot.
pub fn alloc_audit(
    switch: &mut dyn Switch,
    traffic: &mut dyn TrafficModel,
    warmup: u64,
    measure: u64,
    counter: &dyn Fn() -> u64,
    obs: &mut Observer<'_>,
) -> Result<AllocAuditReport, SimError> {
    let n = switch.ports();
    switch.reserve_steady_state((AUDIT_RESERVE_PER_INPUT / n.max(1)).max(1));
    let cfg = RunConfig {
        warmup,
        ..RunConfig::paper(warmup + measure)
    };
    let mut hook = AllocCounter {
        counter,
        warmup,
        measuring: warmup == 0,
        open: None,
        last: 0,
        allocs: [0; PHASES.len()],
    };
    let result = run(switch, traffic, &cfg, obs, None, &mut hook)?;
    let mut phase_allocs = PHASES.map(|phase| (phase, 0));
    for (row, allocs) in phase_allocs.iter_mut().zip(hook.allocs) {
        row.1 = allocs;
    }
    Ok(AllocAuditReport {
        switch_name: result.switch_name,
        traffic_name: result.traffic_name,
        warmup_slots: warmup,
        measured_slots: result.slots_run.saturating_sub(warmup),
        phase_allocs,
        packets_admitted: result.packets_admitted,
        copies_delivered: result.copies_delivered,
    })
}

/// The audit's hook. Each reading closes the phase that was open, so the
/// counter's whole movement between the first phase entry of a measured
/// slot and the end of the run is attributed — including the engine's
/// glue between phases, which lands on the phase before it.
struct AllocCounter<'a> {
    counter: &'a dyn Fn() -> u64,
    warmup: u64,
    measuring: bool,
    open: Option<usize>,
    last: u64,
    allocs: [u64; PHASES.len()],
}

impl AllocCounter<'_> {
    fn lap(&mut self) {
        let now = (self.counter)();
        if let (true, Some(phase)) = (self.measuring, self.open) {
            self.allocs[phase] += now.saturating_sub(self.last);
        }
        self.last = now;
    }
}

impl<S: ?Sized> SlotHook<S> for AllocCounter<'_> {
    fn phase(&mut self, name: &'static str, enter: bool) {
        if enter {
            self.lap();
            self.open = PHASES.iter().position(|p| *p == name);
        }
    }

    fn after_slot(
        &mut self,
        _switch: &mut S,
        now: Slot,
        _outcome: &SlotOutcome,
    ) -> ControlFlow<()> {
        self.lap();
        self.measuring = now.0 + 1 >= self.warmup;
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SwitchKind, TrafficKind};
    use std::cell::Cell;

    #[test]
    fn constant_counter_reports_clean() {
        let mut sw = SwitchKind::Fifoms.build(8, 1);
        let mut tr = TrafficKind::bernoulli_at_load(0.5, 0.25, 8).build(8, 2);
        let report = alloc_audit(
            sw.as_mut(),
            tr.as_mut(),
            500,
            500,
            &|| 0,
            &mut Observer::none(),
        )
        .unwrap();
        assert!(report.is_clean());
        assert_eq!(report.total_allocs(), 0);
        assert!(report.packets_admitted > 0, "audit must exercise real load");
        assert!(report.copies_delivered > 0);
    }

    #[test]
    fn advancing_counter_attributes_to_every_phase_the_run_enters() {
        let ticks = Cell::new(0u64);
        let counter = || {
            ticks.set(ticks.get() + 1);
            ticks.get()
        };
        let mut sw = SwitchKind::Fifoms.build(4, 1);
        let mut tr = TrafficKind::bernoulli_at_load(0.3, 0.5, 4).build(4, 2);
        let report = alloc_audit(
            sw.as_mut(),
            tr.as_mut(),
            10,
            10,
            &counter,
            &mut Observer::none(),
        )
        .unwrap();
        assert!(!report.is_clean());
        for (phase, allocs) in report.phase_allocs {
            // An unobserved run without recovery never enters these two.
            let entered = !matches!(phase, "persist" | "observe");
            assert_eq!(
                allocs > 0,
                entered,
                "phase {phase}: {:?}",
                report.phase_allocs
            );
        }

        // With telemetry attached the observe phase runs and is counted.
        let mut sw = SwitchKind::Fifoms.build(4, 1);
        let mut tr = TrafficKind::bernoulli_at_load(0.3, 0.5, 4).build(4, 2);
        let mut telemetry = fifoms_obs::Telemetry::new(4, 5);
        let mut obs = Observer {
            sink: None,
            profiler: None,
            telemetry: Some(crate::TelemetryChannel {
                telemetry: &mut telemetry,
                series: None,
                bus: None,
            }),
        };
        let report = alloc_audit(sw.as_mut(), tr.as_mut(), 10, 10, &counter, &mut obs).unwrap();
        let observe = report.phase_allocs.iter().find(|(p, _)| *p == "observe");
        assert!(
            observe.is_some_and(|(_, allocs)| *allocs > 0),
            "{:?}",
            report.phase_allocs
        );
    }

    #[test]
    fn warmup_slots_are_exempt() {
        // Counter advances only during the first 20 calls (the warmup
        // window uses none), so a warmup-only burst must report clean.
        let ticks = Cell::new(0u64);
        let calls = Cell::new(0u64);
        let counter = || {
            calls.set(calls.get() + 1);
            if calls.get() <= 20 {
                ticks.set(ticks.get() + 1);
            }
            ticks.get()
        };
        let mut sw = SwitchKind::Fifoms.build(4, 1);
        let mut tr = TrafficKind::bernoulli_at_load(0.3, 0.5, 4).build(4, 2);
        // 5 warmup slots * 5 counter reads (four phase entries and the
        // end of the slot) = 25 calls > 20, so all movement lands inside
        // warmup.
        let report = alloc_audit(
            sw.as_mut(),
            tr.as_mut(),
            5,
            50,
            &counter,
            &mut Observer::none(),
        )
        .unwrap();
        assert!(report.is_clean(), "warmup allocations must not count");
    }

    #[test]
    fn size_mismatch_is_an_error() {
        let mut sw = SwitchKind::Fifoms.build(4, 1);
        let mut tr = TrafficKind::bernoulli_at_load(0.3, 0.5, 8).build(8, 2);
        let e = alloc_audit(
            sw.as_mut(),
            tr.as_mut(),
            10,
            10,
            &|| 0,
            &mut Observer::none(),
        )
        .unwrap_err();
        assert!(matches!(e, SimError::SizeMismatch { .. }));
    }

    #[test]
    fn json_report_shape() {
        let mut sw = SwitchKind::Islip(None).build(4, 1);
        let mut tr = TrafficKind::bernoulli_at_load(0.2, 0.5, 4).build(4, 2);
        let report = alloc_audit(
            sw.as_mut(),
            tr.as_mut(),
            100,
            100,
            &|| 0,
            &mut Observer::none(),
        )
        .unwrap();
        let doc = report.to_json();
        let text = doc.to_string();
        assert!(text.contains("fifoms-alloc-audit-v1"));
        assert!(text.contains("\"clean\": true") || text.contains("\"clean\":true"));
    }
}
