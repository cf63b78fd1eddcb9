//! Forwarding shims that observe every trait call the engine makes, from
//! outside the program.
//!
//! A [`TrafficShim`] wraps the traffic model and a [`Shim`] sits at every
//! switch boundary (Checked ▸ shim ▸ Faulty ▸ shim ▸ Instrumented ▸ shim ▸
//! core). All shims of one repetition report into one shared [`Tracer`],
//! whose [`Mode`] decides what they do:
//!
//! * `Plain` — the end-to-end run. Only the traffic shim acts: it reads
//!   the clock once per slot at `next_slot`, the engine's first call in
//!   every slot, and folds the interval since the previous read into the
//!   block's per-slot minimum (see [`Tracer::new`]).
//! * `Traced` — every call crossing a shim is timed. A layer's self time
//!   is its shim's span minus the span of the shim below it.
//! * `Counted` — no clock at all: outcomes, drained events and the core's
//!   HOL state are tallied, so counts repeat exactly for a given seed.
//!
//! Shims forward every method of both traits, default-bodied hooks and
//! `save_state`/`load_state` included, and never alter an argument or a
//! result (except the self-test's deliberate sabotage), so a shimmed run
//! produces the same `RunResult` as a bare one.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use fifoms_core::MulticastVoqSwitch;
use fifoms_fabric::{Backlog, Switch};
use fifoms_traffic::TrafficModel;
use fifoms_types::{
    AdmissionDrop, Departure, DroppedCopy, ObsEvent, Packet, PortId, PortSet, RetryDisposition,
    Slot, SlotOutcome, SpanSample, StateError,
};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    Plain,
    Traced,
    Counted,
}

/// Switch layers, outermost first.
pub const CHECKED: usize = 0;
pub const FAULTY: usize = 1;
pub const INSTRUMENTED: usize = 2;
pub const CORE: usize = 3;
pub const LAYER_NAMES: [&str; 4] = ["checked", "faulty", "instrumented", "core"];

/// Call classes tallied separately at each boundary.
#[derive(Clone, Copy)]
pub enum Call {
    Admit,
    RunSlot,
    /// `queue_sizes` and `backlog`: the engine's statistics probes.
    Query,
    Other,
}
pub const CALL_NAMES: [&str; 4] = ["admit", "run_slot", "query", "other"];

#[derive(Clone, Copy, Default, Debug)]
pub struct LayerStats {
    pub ns: [u64; 4],
    pub calls: [u64; 4],
    /// Counted mode: departures, rounds and connections of the outcomes
    /// crossing this boundary, and events drained through it.
    pub departures: u64,
    pub rounds: u64,
    pub connections: u64,
    pub events: u64,
}

impl LayerStats {
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    pub fn add(&mut self, other: &LayerStats) {
        for c in 0..4 {
            self.ns[c] += other.ns[c];
            self.calls[c] += other.calls[c];
        }
        self.departures += other.departures;
        self.rounds += other.rounds;
        self.connections += other.connections;
        self.events += other.events;
    }
}

/// Counted mode: the core's head-of-line state at every `run_slot` entry.
#[derive(Clone, Copy, Default, Debug)]
pub struct HolStats {
    pub hol_cells: u64,
    /// Distinct `(input, time stamp)` pairs among the HOL cells.
    pub stamps: u64,
    /// Inputs holding at least one cell, summed over probes.
    pub busy_inputs: u64,
    /// Live data cells of those busy inputs, summed over probes.
    pub live_cells: u64,
}

/// Shared sink of one repetition's observations.
pub struct Tracer {
    mode: Mode,
    /// Set by the first `next_slot`, cleared by [`Tracer::finish`]: calls
    /// outside the slot loop (precondition checks, post-run inspection)
    /// are not recorded.
    armed: Cell<bool>,
    first: Cell<Option<Instant>>,
    last: Cell<Option<Instant>>,
    end: Cell<Option<Instant>>,
    slots: Cell<u64>,
    slot_min: RefCell<Vec<u32>>,
    traffic_ns: Cell<u64>,
    copies: Cell<u64>,
    layers: RefCell<[LayerStats; 4]>,
    hol: RefCell<HolStats>,
    stamp_scratch: RefCell<Vec<u64>>,
}

fn ns_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

impl Tracer {
    /// A tracer for one repetition of an `N`-port workload. In `Plain`
    /// mode, `slot_min[k]` is lowered to slot `k`'s host ns: repetitions
    /// replay identical slots, so across a run it converges on each slot's
    /// time without host interruptions, while the program's own slow slots
    /// (window publishes, checkpoints, heavy rounds) stay slow in every
    /// repetition. The array holds exact ns, 4 bytes per slot, and is
    /// sized before the run, so the slot clock never allocates.
    pub fn new(mode: Mode, ports: usize, slot_min: Vec<u32>) -> Rc<Tracer> {
        Rc::new(Tracer {
            mode,
            armed: Cell::new(false),
            first: Cell::new(None),
            last: Cell::new(None),
            end: Cell::new(None),
            slots: Cell::new(0),
            slot_min: RefCell::new(slot_min),
            traffic_ns: Cell::new(0),
            copies: Cell::new(0),
            layers: RefCell::new([LayerStats::default(); 4]),
            hol: RefCell::new(HolStats::default()),
            stamp_scratch: RefCell::new(Vec::with_capacity(ports)),
        })
    }

    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Slot `slots - 1` ended at `now`.
    #[inline]
    fn close_slot(&self, now: Instant) {
        if let (Some(prev), Mode::Plain) = (self.last.get(), self.mode) {
            let ns = u32::try_from(ns_between(prev, now)).unwrap_or(u32::MAX);
            let k = self.slots.get() as usize - 1;
            if let Some(min) = self.slot_min.borrow_mut().get_mut(k) {
                *min = (*min).min(ns);
            }
        }
    }

    /// A slot begins: called by the traffic shim on `next_slot` entry.
    #[inline]
    fn slot_boundary(&self, now: Instant) {
        if self.last.get().is_none() {
            self.first.set(Some(now));
            self.armed.set(true);
        } else {
            self.close_slot(now);
        }
        self.last.set(Some(now));
        self.slots.set(self.slots.get() + 1);
    }

    /// The engine returned at `end`: closes the last slot and disarms.
    pub fn finish(&self, end: Instant) {
        self.close_slot(end);
        self.end.set(Some(end));
        self.armed.set(false);
    }

    /// Hand the per-slot minima back for the next repetition.
    pub fn take_slot_min(&self) -> Vec<u32> {
        std::mem::take(&mut self.slot_min.borrow_mut())
    }

    pub fn first_slot(&self) -> Option<Instant> {
        self.first.get()
    }

    /// Host ns from the first slot to the end of the run.
    pub fn loop_ns(&self) -> u64 {
        match (self.first.get(), self.end.get()) {
            (Some(first), Some(end)) => ns_between(first, end),
            _ => 0,
        }
    }

    pub fn slots(&self) -> u64 {
        self.slots.get()
    }

    pub fn traffic_ns(&self) -> u64 {
        self.traffic_ns.get()
    }

    pub fn copies(&self) -> u64 {
        self.copies.get()
    }

    pub fn layers(&self) -> [LayerStats; 4] {
        *self.layers.borrow()
    }

    pub fn hol(&self) -> HolStats {
        *self.hol.borrow()
    }

    #[inline]
    fn enter(&self) -> Option<Instant> {
        (self.mode == Mode::Traced).then(Instant::now)
    }

    #[inline]
    fn exit(&self, layer: usize, call: Call, t0: Option<Instant>) {
        let ns = t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
        if !self.armed.get() {
            return;
        }
        let mut layers = self.layers.borrow_mut();
        layers[layer].calls[call as usize] += 1;
        layers[layer].ns[call as usize] += ns;
    }

    fn counting(&self) -> bool {
        self.mode == Mode::Counted && self.armed.get()
    }
}

/// Counted mode: tally the core's HOL state before it schedules a slot.
pub fn hol_probe(core: &MulticastVoqSwitch, tracer: &Tracer) {
    let mut hol = tracer.hol.borrow_mut();
    let mut stamps = tracer.stamp_scratch.borrow_mut();
    for input in 0..core.ports() {
        let port = core.port(input);
        stamps.clear();
        stamps.extend(port.voqs().hol_cells().map(|(_, cell)| cell.time_stamp.0));
        if stamps.is_empty() {
            continue;
        }
        hol.hol_cells += stamps.len() as u64;
        stamps.sort_unstable();
        stamps.dedup();
        hol.stamps += stamps.len() as u64;
        hol.busy_inputs += 1;
        hol.live_cells += port.slab().live() as u64;
    }
}

/// A forwarding shim at one switch boundary.
pub struct Shim<S> {
    inner: S,
    layer: usize,
    tracer: Rc<Tracer>,
    probe: Option<fn(&S, &Tracer)>,
    /// Self-test only: swallow one departure at or after this slot.
    sabotage: Option<Slot>,
}

impl<S: Switch> Shim<S> {
    pub fn new(inner: S, layer: usize, tracer: &Rc<Tracer>) -> Shim<S> {
        Shim {
            inner,
            layer,
            tracer: Rc::clone(tracer),
            probe: None,
            sabotage: None,
        }
    }

    /// Run `probe` on the wrapped switch at every counted `run_slot`
    /// entry, before the call is forwarded.
    pub fn with_probe(mut self, probe: fn(&S, &Tracer)) -> Shim<S> {
        self.probe = Some(probe);
        self
    }

    /// Drop one departure from the first non-empty outcome at or after
    /// `from` — the deliberate fault the self-test must catch.
    pub fn with_sabotage(mut self, from: Slot) -> Shim<S> {
        self.sabotage = Some(from);
        self
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: Switch> Switch for Shim<S> {
    fn name(&self) -> String {
        let t0 = self.tracer.enter();
        let r = self.inner.name();
        self.tracer.exit(self.layer, Call::Other, t0);
        r
    }

    fn ports(&self) -> usize {
        let t0 = self.tracer.enter();
        let r = self.inner.ports();
        self.tracer.exit(self.layer, Call::Other, t0);
        r
    }

    fn admit(&mut self, packet: Packet) {
        let t0 = self.tracer.enter();
        self.inner.admit(packet);
        self.tracer.exit(self.layer, Call::Admit, t0);
    }

    fn run_slot(&mut self, now: Slot) -> SlotOutcome {
        if let (true, Some(probe)) = (self.tracer.counting(), self.probe) {
            probe(&self.inner, &self.tracer);
        }
        let t0 = self.tracer.enter();
        let mut outcome = self.inner.run_slot(now);
        self.tracer.exit(self.layer, Call::RunSlot, t0);
        if self.sabotage.is_some_and(|from| now >= from) && outcome.departures.pop().is_some() {
            outcome.connections -= 1;
            self.sabotage = None;
        }
        if self.tracer.counting() {
            let mut layers = self.tracer.layers.borrow_mut();
            let l = &mut layers[self.layer];
            l.departures += outcome.departures.len() as u64;
            l.rounds += u64::from(outcome.rounds);
            l.connections += outcome.connections as u64;
        }
        outcome
    }

    fn queue_sizes(&self, out: &mut Vec<usize>) {
        let t0 = self.tracer.enter();
        self.inner.queue_sizes(out);
        self.tracer.exit(self.layer, Call::Query, t0);
    }

    fn backlog(&self) -> Backlog {
        let t0 = self.tracer.enter();
        let r = self.inner.backlog();
        self.tracer.exit(self.layer, Call::Query, t0);
        r
    }

    fn drain_events(&mut self, out: &mut Vec<ObsEvent>) {
        let before = out.len();
        let t0 = self.tracer.enter();
        self.inner.drain_events(out);
        self.tracer.exit(self.layer, Call::Other, t0);
        if self.tracer.counting() {
            self.tracer.layers.borrow_mut()[self.layer].events += (out.len() - before) as u64;
        }
    }

    fn end_of_run(&mut self) {
        let t0 = self.tracer.enter();
        self.inner.end_of_run();
        self.tracer.exit(self.layer, Call::Other, t0);
    }

    fn copy_failed(&mut self, d: &Departure, now: Slot, requeue: bool) -> RetryDisposition {
        let t0 = self.tracer.enter();
        let r = self.inner.copy_failed(d, now, requeue);
        self.tracer.exit(self.layer, Call::Other, t0);
        r
    }

    fn drain_reconciled_drops(&mut self, out: &mut Vec<DroppedCopy>) {
        let t0 = self.tracer.enter();
        self.inner.drain_reconciled_drops(out);
        self.tracer.exit(self.layer, Call::Other, t0);
    }

    fn drain_admission_drops(&mut self, out: &mut Vec<AdmissionDrop>) {
        let t0 = self.tracer.enter();
        self.inner.drain_admission_drops(out);
        self.tracer.exit(self.layer, Call::Other, t0);
    }

    fn backpressure(&self, input: PortId) -> bool {
        let t0 = self.tracer.enter();
        let r = self.inner.backpressure(input);
        self.tracer.exit(self.layer, Call::Other, t0);
        r
    }

    fn set_span_recording(&mut self, on: bool) {
        let t0 = self.tracer.enter();
        self.inner.set_span_recording(on);
        self.tracer.exit(self.layer, Call::Other, t0);
    }

    fn drain_spans(&mut self, out: &mut Vec<SpanSample>) {
        let t0 = self.tracer.enter();
        self.inner.drain_spans(out);
        self.tracer.exit(self.layer, Call::Other, t0);
    }

    fn recycle(&mut self, outcome: SlotOutcome) {
        let t0 = self.tracer.enter();
        self.inner.recycle(outcome);
        self.tracer.exit(self.layer, Call::Other, t0);
    }

    fn quarantined_paths(&self, now: Slot, out: &mut Vec<(PortId, PortId)>) {
        let t0 = self.tracer.enter();
        self.inner.quarantined_paths(now, out);
        self.tracer.exit(self.layer, Call::Other, t0);
    }

    fn reserve_steady_state(&mut self, copies_per_voq: usize) {
        let t0 = self.tracer.enter();
        self.inner.reserve_steady_state(copies_per_voq);
        self.tracer.exit(self.layer, Call::Other, t0);
    }

    fn save_state(&self) -> Result<Vec<u8>, StateError> {
        let t0 = self.tracer.enter();
        let r = self.inner.save_state();
        self.tracer.exit(self.layer, Call::Other, t0);
        r
    }

    fn load_state(&mut self, blob: &[u8]) -> Result<(), StateError> {
        let t0 = self.tracer.enter();
        let r = self.inner.load_state(blob);
        self.tracer.exit(self.layer, Call::Other, t0);
        r
    }
}

/// The forwarding shim around the traffic model; its `next_slot` entry is
/// the slot clock of every mode.
pub struct TrafficShim {
    inner: Box<dyn TrafficModel>,
    tracer: Rc<Tracer>,
}

impl TrafficShim {
    pub fn new(inner: Box<dyn TrafficModel>, tracer: &Rc<Tracer>) -> TrafficShim {
        TrafficShim {
            inner,
            tracer: Rc::clone(tracer),
        }
    }
}

impl TrafficModel for TrafficShim {
    fn ports(&self) -> usize {
        self.inner.ports()
    }

    fn next_slot(&mut self, now: Slot, arrivals: &mut Vec<Option<PortSet>>) {
        let t0 = Instant::now();
        self.tracer.slot_boundary(t0);
        self.inner.next_slot(now, arrivals);
        match self.tracer.mode {
            Mode::Plain => {}
            Mode::Traced => {
                let ns = t0.elapsed().as_nanos() as u64;
                self.tracer
                    .traffic_ns
                    .set(self.tracer.traffic_ns.get() + ns);
            }
            Mode::Counted => {
                let copies: usize = arrivals.iter().flatten().map(PortSet::len).sum();
                self.tracer
                    .copies
                    .set(self.tracer.copies.get() + copies as u64);
            }
        }
    }

    fn effective_load(&self) -> Option<f64> {
        self.inner.effective_load()
    }

    fn params(&self) -> Vec<(&'static str, f64)> {
        self.inner.params()
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn save_state(&self) -> Result<Vec<u8>, StateError> {
        self.inner.save_state()
    }

    fn load_state(&mut self, blob: &[u8]) -> Result<(), StateError> {
        self.inner.load_state(blob)
    }
}
