//! Generic scheduler instrumentation: one wrapper, every scheduler.
//!
//! [`InstrumentedSwitch`] derives the per-slot matching dynamics the paper
//! reasons about — request demand, matched inputs, iterations to
//! convergence (Fig. 5), native-multicast usage, fanout splitting,
//! crossbar utilisation, and starvation age — entirely from the
//! [`Switch`] trait surface ([`SlotOutcome`] + `queue_sizes`/`backlog`).
//! No scheduler carries its own tracing code, so FIFOMS, iSLIP, TATRA and
//! the OQ baselines are all observed identically and a new scheduler gets
//! instrumentation for free.
//!
//! The wrapper is read-only with respect to the schedule: it never
//! touches an RNG, reorders a call, or alters an outcome, so a wrapped
//! run produces bit-identical results to an unwrapped one (asserted by
//! the observability integration suite). Events are buffered internally
//! and handed to the engine via [`Switch::drain_events`]; the wrapper is
//! only constructed on traced paths, so untraced runs never allocate a
//! buffer at all.
//!
//! Beyond the per-slot aggregates, the wrapper doubles as the
//! **packet-level flight recorder** (DESIGN.md §9): with a
//! [`PacketTraceMode`] other than [`PacketTraceMode::Off`] it follows
//! individual packets from [`ObsEvent::PacketArrived`] through each
//! [`ObsEvent::CopySent`] to [`ObsEvent::PacketCompleted`], behind a
//! sampling gate — every packet, one-in-`k`, or a bounded ring buffer
//! that retains only the last `capacity` packet events (flushed at
//! [`Switch::end_of_run`]) so full-length runs stay `O(capacity)` in
//! memory.

use std::collections::{BTreeSet, VecDeque};

use fifoms_types::{
    AdmissionDrop, Checkpoint, Departure, DroppedCopy, ObsEvent, Packet, PacketId, PortId, PortSet,
    RetryDisposition, Slot, SlotOutcome, SpanSample, StateError, StateReader, StateWriter,
};

use crate::switch::{frame_stack, unframe_stack, Backlog, Switch};

/// The flight recorder's sampling gate.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub enum PacketTraceMode {
    /// No packet-level events (the default): only `SlotSched` aggregates.
    #[default]
    Off,
    /// Record every packet's full lifecycle. Required for the starvation
    /// audit and the delay decomposition of `fifoms-repro analyze`.
    All,
    /// Record packets whose id is divisible by `k` (deterministic 1-in-k
    /// sampling; `k` is clamped to at least 1).
    OneIn(u64),
    /// Flight-recorder mode: record every packet, but retain only the
    /// last `capacity` packet events in a ring buffer, flushed when the
    /// engine calls [`Switch::end_of_run`]. Memory stays `O(capacity)`
    /// regardless of run length; early lifecycles are evicted.
    Ring(usize),
}

impl PacketTraceMode {
    /// The `(mode, param)` pair advertised in [`ObsEvent::RecorderMeta`].
    fn meta(self) -> Option<(&'static str, u64)> {
        match self {
            PacketTraceMode::Off => None,
            PacketTraceMode::All => Some(("all", 0)),
            PacketTraceMode::OneIn(k) => Some(("sample", k.max(1))),
            PacketTraceMode::Ring(cap) => Some(("ring", cap as u64)),
        }
    }

    /// Whether the packet with `id` passes the sampling gate.
    fn samples(self, id: PacketId) -> bool {
        match self {
            PacketTraceMode::Off => false,
            PacketTraceMode::All | PacketTraceMode::Ring(_) => true,
            PacketTraceMode::OneIn(k) => id.0.is_multiple_of(k.max(1)),
        }
    }
}

/// A [`Switch`] wrapper that emits one [`ObsEvent::SlotSched`] per
/// non-idle slot, derived generically from the inner switch's outcome —
/// and, when a [`PacketTraceMode`] is set, per-packet lifecycle events.
#[derive(Debug)]
pub struct InstrumentedSwitch<S> {
    inner: S,
    events: Vec<ObsEvent>,
    /// In-flight packets ordered by arrival: `first()` is the oldest
    /// queued packet, whose age is the starvation indicator.
    ledger: BTreeSet<(Slot, PacketId)>,
    /// Scratch for `queue_sizes` so the per-slot probe does not allocate.
    scratch: Vec<usize>,
    /// Per-slot scratch of `derive_event`: inputs with at least one
    /// departure, inputs with at least two (sized once for the switch),
    /// and packets that sent a copy other than their last.
    matched: PortSet,
    multicast: PortSet,
    split_candidates: Vec<PacketId>,
    /// Per-slot scratch: the packets this slot completed, sorted (sized
    /// once, for one completion per output). Built by `derive_event`,
    /// then read by `record_departures`.
    completed: Vec<PacketId>,
    /// Packet-level sampling gate.
    mode: PacketTraceMode,
    /// Ids currently being followed (admitted through the gate, not yet
    /// completed) — bounded by the in-flight backlog.
    sampled: BTreeSet<PacketId>,
    /// Retained packet events in [`PacketTraceMode::Ring`] mode; other
    /// modes stream packet events through `events` like everything else.
    ring: VecDeque<ObsEvent>,
}

impl<S: Switch> InstrumentedSwitch<S> {
    /// Wrap `inner` with packet-level tracing off.
    pub fn new(inner: S) -> InstrumentedSwitch<S> {
        InstrumentedSwitch::with_packet_trace(inner, PacketTraceMode::Off)
    }

    /// Wrap `inner` with the given packet-level sampling gate. A mode
    /// other than [`PacketTraceMode::Off`] emits one
    /// [`ObsEvent::RecorderMeta`] so trace consumers know which analyses
    /// are sound.
    pub fn with_packet_trace(inner: S, mode: PacketTraceMode) -> InstrumentedSwitch<S> {
        let mut events = Vec::new();
        if let Some((m, param)) = mode.meta() {
            events.push(ObsEvent::RecorderMeta {
                mode: m.to_string(),
                param,
            });
        }
        let n = inner.ports();
        InstrumentedSwitch {
            inner,
            events,
            ledger: BTreeSet::new(),
            scratch: Vec::new(),
            matched: PortSet::with_capacity(n),
            multicast: PortSet::with_capacity(n),
            split_candidates: Vec::new(),
            completed: Vec::with_capacity(n),
            mode,
            sampled: BTreeSet::new(),
            ring: VecDeque::new(),
        }
    }

    /// Shared access to the wrapped switch.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Route one packet event per the mode: streamed with everything
    /// else, or retained in the bounded ring.
    fn record_packet_event(&mut self, event: ObsEvent) {
        match self.mode {
            PacketTraceMode::Ring(cap) => {
                if cap == 0 {
                    return;
                }
                if self.ring.len() == cap {
                    self.ring.pop_front();
                }
                self.ring.push_back(event);
            }
            _ => self.events.push(event),
        }
    }

    /// Emit the packet-scoped events for this slot's departures, after
    /// `derive_event` has sorted the slot's completed packets.
    fn record_departures(&mut self, now: Slot, outcome: &SlotOutcome) {
        // `split` is a per-packet property of the slot: at least one copy
        // went out but the final copy did not.
        let completed = std::mem::take(&mut self.completed);
        for d in &outcome.departures {
            if !self.sampled.contains(&d.packet) {
                continue;
            }
            let split = completed.binary_search(&d.packet).is_err();
            self.record_packet_event(ObsEvent::CopySent {
                id: d.packet,
                slot: now,
                output: d.output,
                split,
            });
        }
        for &id in &completed {
            if self.sampled.remove(&id) {
                self.record_packet_event(ObsEvent::PacketCompleted { id, slot: now });
            }
        }
        self.completed = completed;
    }

    /// Age in slots of the oldest packet still queued, as of `now`.
    fn oldest_age(&self, now: Slot) -> Option<u64> {
        self.ledger
            .first()
            .map(|(arrival, _)| now.0.saturating_sub(arrival.0))
    }

    fn derive_event(&mut self, now: Slot, active_ports: u32, outcome: &SlotOutcome) {
        // Matched inputs sent at least one copy; multicast inputs, a
        // second one. Single pass over the departures.
        self.matched.clear();
        self.multicast.clear();
        self.split_candidates.clear();
        self.completed.clear();
        for d in &outcome.departures {
            if !self.matched.insert(d.input) {
                self.multicast.insert(d.input);
            }
            if d.last_copy {
                self.completed.push(d.packet);
                self.ledger.remove(&(d.arrival, d.packet));
            } else {
                self.split_candidates.push(d.packet);
            }
        }
        // A packet was *split* this slot if it departed at least one copy
        // but its final copy did not go out: some residue stays queued.
        self.completed.sort_unstable();
        self.split_candidates.sort_unstable();
        self.split_candidates.dedup();
        let completed = &self.completed;
        let fanout_splits = self
            .split_candidates
            .iter()
            .filter(|p| completed.binary_search(p).is_err())
            .count() as u32;

        let matched_inputs = self.matched.len() as u32;
        let multicast_inputs = self.multicast.len() as u32;
        let backlog = self.inner.backlog();

        self.events.push(ObsEvent::SlotSched {
            slot: now,
            active_ports,
            matched_inputs,
            rounds: outcome.rounds,
            connections: outcome.connections as u32,
            multicast_inputs,
            fanout_splits,
            completed_packets: self.completed.len() as u32,
            backlog_packets: backlog.packets as u64,
            backlog_copies: backlog.copies as u64,
            oldest_age: self.oldest_age(now),
        });
    }
}

impl<S: Switch> Switch for InstrumentedSwitch<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn ports(&self) -> usize {
        self.inner.ports()
    }

    fn admit(&mut self, packet: Packet) {
        self.ledger.insert((packet.arrival, packet.id));
        if self.mode.samples(packet.id) {
            self.sampled.insert(packet.id);
            self.record_packet_event(ObsEvent::PacketArrived {
                id: packet.id,
                slot: packet.arrival,
                input: packet.input,
                fanout: packet.fanout() as u32,
            });
        }
        self.inner.admit(packet);
    }

    fn run_slot(&mut self, now: Slot) -> SlotOutcome {
        // Demand side, probed before scheduling: ports holding work.
        self.scratch.clear();
        self.inner.queue_sizes(&mut self.scratch);
        let active_ports = self.scratch.iter().filter(|&&q| q > 0).count() as u32;

        let outcome = self.inner.run_slot(now);

        // Idle slots (no demand, no service) get no record each; the
        // engine's final RunEnd marker makes the gaps decodable as
        // idleness (a slot below slots_run with no record was idle).
        if active_ports > 0 || !outcome.departures.is_empty() {
            self.derive_event(now, active_ports, &outcome);
            if self.mode != PacketTraceMode::Off {
                self.record_departures(now, &outcome);
            }
        }
        outcome
    }

    fn queue_sizes(&self, out: &mut Vec<usize>) {
        self.inner.queue_sizes(out)
    }

    fn backlog(&self) -> Backlog {
        self.inner.backlog()
    }

    fn drain_events(&mut self, out: &mut Vec<ObsEvent>) {
        out.append(&mut self.events);
        self.inner.drain_events(out);
    }

    fn end_of_run(&mut self) {
        // Flush the flight recorder: the retained window becomes ordinary
        // drainable events, picked up by the engine's final drain.
        self.events.extend(self.ring.drain(..));
        self.inner.end_of_run();
    }

    fn copy_failed(&mut self, d: &Departure, now: Slot, requeue: bool) -> RetryDisposition {
        // The retransmission request must reach the queue structure that
        // owns the cell; this wrapper sits between the fault injector and
        // the scheduler on instrumented runs.
        let disposition = self.inner.copy_failed(d, now, requeue);
        if disposition == RetryDisposition::Requeued {
            // If the killed copy was flagged `last_copy`, `derive_event`
            // already retired the packet from the starvation ledger;
            // restore it so `oldest_age` keeps seeing the requeued copy
            // (insert is idempotent for unflagged kills).
            self.ledger.insert((d.arrival, d.packet));
        }
        disposition
    }

    fn drain_reconciled_drops(&mut self, out: &mut Vec<DroppedCopy>) {
        self.inner.drain_reconciled_drops(out)
    }

    fn drain_admission_drops(&mut self, out: &mut Vec<AdmissionDrop>) {
        self.inner.drain_admission_drops(out)
    }

    fn backpressure(&self, input: PortId) -> bool {
        self.inner.backpressure(input)
    }

    fn set_span_recording(&mut self, on: bool) {
        self.inner.set_span_recording(on)
    }

    fn drain_spans(&mut self, out: &mut Vec<SpanSample>) {
        self.inner.drain_spans(out)
    }

    fn recycle(&mut self, outcome: SlotOutcome) {
        self.inner.recycle(outcome)
    }
    fn quarantined_paths(&self, now: Slot, out: &mut Vec<(PortId, PortId)>) {
        self.inner.quarantined_paths(now, out)
    }
    fn reserve_steady_state(&mut self, copies_per_voq: usize) {
        self.inner.reserve_steady_state(copies_per_voq)
    }

    fn save_state(&self) -> Result<Vec<u8>, StateError> {
        // The ring's packet events are handed on only at the end of the
        // run, so a checkpoint would have to carry them: refuse instead.
        if let PacketTraceMode::Ring(_) = self.mode {
            return Err(StateError::Unsupported {
                component: "the ring flight recorder".to_string(),
            });
        }
        let inner = self.inner.save_state()?;
        Ok(frame_stack(
            "instrumented-switch-stack",
            &Checkpoint::snapshot_state(self),
            &inner,
        ))
    }

    fn load_state(&mut self, blob: &[u8]) -> Result<(), StateError> {
        let (own, inner) = unframe_stack(blob, "instrumented-switch-stack")?;
        Checkpoint::restore_state(self, own)?;
        self.inner.load_state(inner)
    }
}

impl<S: Switch> Checkpoint for InstrumentedSwitch<S> {
    fn state_kind(&self) -> &'static str {
        "instrumented-switch"
    }

    // Version 2 added the per-slot scratch fields `matched`, `multicast`,
    // `split_candidates` and `completed`, which are not serialised, when
    // lint rule R8 still fingerprinted every field. Version 3 stopped
    // carrying pending events and the ring.
    fn state_version(&self) -> u16 {
        3
    }

    // Own state only: the starvation ledger and the set of packets
    // currently followed through the sampling gate. `events` is output,
    // not state: the engine hands it on before every checkpoint, and a
    // restore clears it, so a resumed recorder does not emit its
    // `RecorderMeta` again. `ring` is never saved, because `save_state`
    // refuses ring mode. `mode` is configuration, and the per-slot
    // scratch (`scratch`, `matched`, `multicast`, `split_candidates`,
    // `completed`) holds nothing between slots. BTreeSet iteration is
    // already ordered, so snapshots of equal states are byte-equal without
    // extra sorting.
    fn write_state(&self, w: &mut StateWriter) {
        w.put_usize(self.ledger.len());
        for (arrival, id) in &self.ledger {
            w.put_slot(*arrival);
            w.put_packet_id(*id);
        }
        w.put_usize(self.sampled.len());
        for id in &self.sampled {
            w.put_packet_id(*id);
        }
    }

    fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.events.clear();
        self.ring.clear();
        let ledger = r.get_usize()?;
        self.ledger.clear();
        for _ in 0..ledger {
            let arrival = r.get_slot()?;
            let id = r.get_packet_id()?;
            self.ledger.insert((arrival, id));
        }
        let sampled = r.get_usize()?;
        self.sampled.clear();
        for _ in 0..sampled {
            self.sampled.insert(r.get_packet_id()?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifoms_types::{Departure, PortId, PortSet};
    use std::collections::VecDeque;

    /// One-input FIFO that serves up to `per_slot` copies of the head
    /// packet per slot — `per_slot: 1` forces fanout splitting.
    struct SplittingFifo {
        queue: VecDeque<(Packet, PortSet)>,
        per_slot: usize,
        rounds: u32,
    }

    impl SplittingFifo {
        fn new(per_slot: usize, rounds: u32) -> Self {
            Self {
                queue: VecDeque::new(),
                per_slot,
                rounds,
            }
        }
    }

    impl Switch for SplittingFifo {
        fn name(&self) -> String {
            "splitting-fifo".into()
        }
        fn ports(&self) -> usize {
            4
        }
        fn admit(&mut self, packet: Packet) {
            let residual = packet.dests.clone();
            self.queue.push_back((packet, residual));
        }
        fn run_slot(&mut self, _now: Slot) -> SlotOutcome {
            let Some((p, residual)) = self.queue.front_mut() else {
                return SlotOutcome::idle();
            };
            let serve: Vec<PortId> = residual.iter().take(self.per_slot).collect();
            let mut departures = Vec::new();
            for &o in &serve {
                residual.remove(o);
                departures.push(Departure {
                    packet: p.id,
                    arrival: p.arrival,
                    input: p.input,
                    output: o,
                    last_copy: residual.is_empty(),
                });
            }
            if residual.is_empty() {
                self.queue.pop_front();
            }
            let connections = departures.len();
            SlotOutcome {
                departures,
                rounds: self.rounds,
                connections,
            }
        }
        fn queue_sizes(&self, out: &mut Vec<usize>) {
            out.clear();
            out.resize(4, 0);
            out[0] = self.queue.len();
        }
        fn backlog(&self) -> Backlog {
            Backlog {
                packets: self.queue.len(),
                copies: self.queue.iter().map(|(_, r)| r.len()).sum(),
            }
        }
    }

    /// Replays a fixed list of departures per slot on a `ports`-port
    /// switch, `(input, output, packet, last_copy)` each; admitted packets
    /// are ignored. The event counts derive from the departures alone, so
    /// a script pins them exactly.
    struct Scripted {
        ports: usize,
        slots: VecDeque<Vec<(usize, usize, u64, bool)>>,
    }

    impl Scripted {
        fn new(ports: usize, slots: Vec<Vec<(usize, usize, u64, bool)>>) -> Self {
            Self {
                ports,
                slots: slots.into(),
            }
        }
    }

    impl Switch for Scripted {
        fn name(&self) -> String {
            "scripted".into()
        }
        fn ports(&self) -> usize {
            self.ports
        }
        fn admit(&mut self, _packet: Packet) {}
        fn run_slot(&mut self, _now: Slot) -> SlotOutcome {
            let departures: Vec<Departure> = self
                .slots
                .pop_front()
                .unwrap_or_default()
                .into_iter()
                .map(|(input, output, packet, last_copy)| Departure {
                    packet: PacketId(packet),
                    arrival: Slot(0),
                    input: PortId::new(input),
                    output: PortId::new(output),
                    last_copy,
                })
                .collect();
            SlotOutcome {
                connections: departures.len(),
                rounds: 1,
                departures,
            }
        }
        fn queue_sizes(&self, out: &mut Vec<usize>) {
            out.clear();
            out.resize(self.ports, 0);
        }
        fn backlog(&self) -> Backlog {
            Backlog::default()
        }
    }

    /// `(matched_inputs, multicast_inputs, fanout_splits,
    /// completed_packets)` of every `SlotSched` event, in order.
    fn slot_counts(events: &[ObsEvent]) -> Vec<(u32, u32, u32, u32)> {
        events
            .iter()
            .filter_map(|e| match e {
                ObsEvent::SlotSched {
                    matched_inputs,
                    multicast_inputs,
                    fanout_splits,
                    completed_packets,
                    ..
                } => Some((
                    *matched_inputs,
                    *multicast_inputs,
                    *fanout_splits,
                    *completed_packets,
                )),
                _ => None,
            })
            .collect()
    }

    fn packet(id: u64, arrival: Slot, outputs: &[usize]) -> Packet {
        Packet::new(
            PacketId(id),
            arrival,
            PortId(0),
            outputs.iter().copied().collect(),
        )
    }

    fn drain(sw: &mut impl Switch) -> Vec<ObsEvent> {
        let mut out = Vec::new();
        sw.drain_events(&mut out);
        out
    }

    #[test]
    fn emits_one_event_per_busy_slot_and_none_when_idle() {
        let mut sw = InstrumentedSwitch::new(SplittingFifo::new(8, 1));
        sw.admit(packet(1, Slot(0), &[0, 1]));
        sw.run_slot(Slot(0)); // serves everything
        sw.run_slot(Slot(1)); // idle
        let events = drain(&mut sw);
        assert_eq!(events.len(), 1);
        let ObsEvent::SlotSched {
            slot,
            active_ports,
            matched_inputs,
            multicast_inputs,
            connections,
            completed_packets,
            oldest_age,
            ..
        } = &events[0]
        else {
            panic!("expected SlotSched, got {:?}", events[0]);
        };
        assert_eq!(*slot, Slot(0));
        assert_eq!(*active_ports, 1);
        assert_eq!(*matched_inputs, 1);
        assert_eq!(*multicast_inputs, 1, "2 copies in one slot = native multicast");
        assert_eq!(*connections, 2);
        assert_eq!(*completed_packets, 1);
        assert_eq!(*oldest_age, None, "switch drained");
        // buffer was moved out
        assert!(drain(&mut sw).is_empty());
    }

    #[test]
    fn fanout_splitting_and_starvation_age_are_tracked() {
        let mut sw = InstrumentedSwitch::new(SplittingFifo::new(1, 2));
        sw.admit(packet(1, Slot(0), &[0, 1, 2]));
        for t in 0..3 {
            sw.run_slot(Slot(t));
        }
        let events = drain(&mut sw);
        assert_eq!(events.len(), 3);
        let split_flags: Vec<u32> = events
            .iter()
            .map(|e| match e {
                ObsEvent::SlotSched { fanout_splits, .. } => *fanout_splits,
                _ => panic!(),
            })
            .collect();
        // slots 0 and 1 leave residue (split); slot 2 completes the packet
        assert_eq!(split_flags, vec![1, 1, 0]);
        let multicast: Vec<u32> = events
            .iter()
            .map(|e| match e {
                ObsEvent::SlotSched {
                    multicast_inputs, ..
                } => *multicast_inputs,
                _ => panic!(),
            })
            .collect();
        // one copy per slot is never native multicast, whatever the
        // input sent in earlier slots
        assert_eq!(multicast, vec![0, 0, 0]);
        let ages: Vec<Option<u64>> = events
            .iter()
            .map(|e| match e {
                ObsEvent::SlotSched { oldest_age, .. } => *oldest_age,
                _ => panic!(),
            })
            .collect();
        // the packet (arrival 0) ages while split; gone after completion
        assert_eq!(ages, vec![Some(0), Some(1), None]);
        let rounds: Vec<u32> = events
            .iter()
            .map(|e| match e {
                ObsEvent::SlotSched { rounds, .. } => *rounds,
                _ => panic!(),
            })
            .collect();
        assert_eq!(rounds, vec![2, 2, 2], "rounds forwarded from SlotOutcome");
    }

    #[test]
    fn wrapper_is_transparent_to_results() {
        let mut plain = SplittingFifo::new(1, 1);
        let mut wrapped = InstrumentedSwitch::new(SplittingFifo::new(1, 1));
        for p in [packet(1, Slot(0), &[0, 2]), packet(2, Slot(0), &[3])] {
            plain.admit(p.clone());
            wrapped.admit(p);
        }
        assert_eq!(plain.name(), wrapped.name());
        assert_eq!(plain.ports(), wrapped.ports());
        for t in 0..4 {
            let a = plain.run_slot(Slot(t));
            let b = wrapped.run_slot(Slot(t));
            assert_eq!(a.departures, b.departures);
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.connections, b.connections);
            assert_eq!(plain.backlog(), wrapped.backlog());
        }
    }

    /// Kinds of the packet-scoped events in a drained buffer, in order.
    fn packet_kinds(events: &[ObsEvent]) -> Vec<&'static str> {
        events
            .iter()
            .map(ObsEvent::kind)
            .filter(|k| {
                matches!(
                    *k,
                    "packet_arrived" | "copy_sent" | "packet_completed"
                )
            })
            .collect()
    }

    #[test]
    fn full_sampling_records_complete_lifecycles() {
        let mut sw =
            InstrumentedSwitch::with_packet_trace(SplittingFifo::new(1, 1), PacketTraceMode::All);
        sw.admit(packet(1, Slot(0), &[0, 1]));
        for t in 0..2 {
            sw.run_slot(Slot(t));
        }
        let events = drain(&mut sw);
        assert_eq!(events[0].kind(), "recorder_meta");
        assert_eq!(
            packet_kinds(&events),
            vec!["packet_arrived", "copy_sent", "copy_sent", "packet_completed"]
        );
        let splits: Vec<bool> = events
            .iter()
            .filter_map(|e| match e {
                ObsEvent::CopySent { split, .. } => Some(*split),
                _ => None,
            })
            .collect();
        assert_eq!(splits, vec![true, false], "residue then final copy");
        let ObsEvent::PacketArrived { fanout, input, .. } = events
            .iter()
            .find(|e| e.kind() == "packet_arrived")
            .unwrap()
        else {
            unreachable!()
        };
        assert_eq!(*fanout, 2);
        assert_eq!(*input, PortId(0));
    }

    #[test]
    fn one_in_k_gate_samples_by_id() {
        let mut sw =
            InstrumentedSwitch::with_packet_trace(SplittingFifo::new(8, 1), PacketTraceMode::OneIn(2));
        for id in 1..=4u64 {
            sw.admit(packet(id, Slot(0), &[0]));
        }
        for t in 0..4 {
            sw.run_slot(Slot(t));
        }
        let events = drain(&mut sw);
        let ids: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                ObsEvent::PacketArrived { id, .. } => Some(id.0),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![2, 4], "only ids divisible by k are followed");
        // Unsampled packets leave no copy_sent either.
        let copy_ids: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                ObsEvent::CopySent { id, .. } => Some(id.0),
                _ => None,
            })
            .collect();
        assert_eq!(copy_ids, vec![2, 4]);
    }

    #[test]
    fn ring_mode_retains_a_bounded_tail_until_end_of_run() {
        let mut sw =
            InstrumentedSwitch::with_packet_trace(SplittingFifo::new(8, 1), PacketTraceMode::Ring(3));
        for id in 1..=4u64 {
            sw.admit(packet(id, Slot(0), &[0]));
        }
        for t in 0..4 {
            sw.run_slot(Slot(t));
        }
        // Before end_of_run the ring holds its tail privately: the drain
        // sees aggregates (and recorder_meta) but no packet events.
        let mid = drain(&mut sw);
        assert_eq!(mid[0].kind(), "recorder_meta");
        assert!(packet_kinds(&mid).is_empty(), "{mid:?}");
        sw.end_of_run();
        let end = drain(&mut sw);
        let kinds = packet_kinds(&end);
        assert_eq!(kinds.len(), 3, "ring capped at 3 events: {kinds:?}");
        // The retained window is the most recent events, oldest evicted.
        assert_eq!(end.last().unwrap().kind(), "packet_completed");
    }

    #[test]
    fn off_mode_emits_no_packet_events_and_no_meta() {
        let mut sw = InstrumentedSwitch::new(SplittingFifo::new(8, 1));
        sw.admit(packet(1, Slot(0), &[0, 1]));
        sw.run_slot(Slot(0));
        sw.end_of_run();
        let events = drain(&mut sw);
        assert!(events.iter().all(|e| e.kind() == "slot_sched"), "{events:?}");
    }

    #[test]
    fn backlog_in_events_reflects_post_slot_state() {
        let mut sw = InstrumentedSwitch::new(SplittingFifo::new(1, 1));
        sw.admit(packet(1, Slot(0), &[0, 1]));
        sw.run_slot(Slot(0));
        let events = drain(&mut sw);
        let ObsEvent::SlotSched {
            backlog_packets,
            backlog_copies,
            ..
        } = events[0]
        else {
            panic!();
        };
        assert_eq!(backlog_packets, 1);
        assert_eq!(backlog_copies, 1, "one of two copies served");
    }

    #[test]
    fn slot_counts_start_afresh_each_slot() {
        // Slot 0: input 0 sends two copies of packet 1 and keeps residue,
        // input 2 completes packet 2. Later slots send one copy each, so
        // nothing of slot 0's matched, multicast or split inputs may count
        // again.
        let mut sw = InstrumentedSwitch::new(Scripted::new(
            4,
            vec![
                vec![(0, 0, 1, false), (0, 1, 1, false), (2, 3, 2, true)],
                vec![(1, 2, 3, true)],
                vec![(0, 2, 1, true)],
            ],
        ));
        for t in 0..3 {
            sw.run_slot(Slot(t));
        }
        assert_eq!(
            slot_counts(&drain(&mut sw)),
            vec![(2, 1, 1, 1), (1, 0, 0, 1), (1, 0, 0, 1)]
        );
    }

    #[test]
    fn slot_counts_hold_past_the_inline_port_set() {
        // A 200-port switch: inputs 64, 150 and 199 lie past the inline
        // words of the matched and multicast input sets.
        let mut sw = InstrumentedSwitch::new(Scripted::new(
            200,
            vec![
                vec![
                    (150, 10, 1, false),
                    (150, 199, 1, true),
                    (199, 0, 2, true),
                    (64, 64, 3, true),
                ],
                vec![(199, 5, 4, false), (199, 6, 4, false), (150, 7, 5, true)],
            ],
        ));
        for t in 0..2 {
            sw.run_slot(Slot(t));
        }
        assert_eq!(
            slot_counts(&drain(&mut sw)),
            vec![(3, 1, 0, 3), (2, 1, 1, 1)]
        );
    }

    #[test]
    fn split_flags_are_per_packet_within_a_slot() {
        // Slot 0 sends the first copy of packet 1 and the only copy of
        // packet 2; slot 1 sends packet 1's last copy.
        let mut sw = InstrumentedSwitch::with_packet_trace(
            Scripted::new(
                4,
                vec![
                    vec![(0, 0, 1, false), (1, 2, 2, true)],
                    vec![(0, 1, 1, true)],
                ],
            ),
            PacketTraceMode::All,
        );
        sw.admit(Packet::new(
            PacketId(1),
            Slot(0),
            PortId(0),
            [0usize, 1].into_iter().collect(),
        ));
        sw.admit(Packet::new(
            PacketId(2),
            Slot(0),
            PortId(1),
            PortSet::singleton(PortId(2)),
        ));
        for t in 0..2 {
            sw.run_slot(Slot(t));
        }
        let lifecycle: Vec<(&str, u64, u64, bool)> = drain(&mut sw)
            .iter()
            .filter_map(|e| match e {
                ObsEvent::CopySent {
                    id, slot, split, ..
                } => Some((e.kind(), id.0, slot.0, *split)),
                ObsEvent::PacketCompleted { id, slot } => Some((e.kind(), id.0, slot.0, false)),
                _ => None,
            })
            .collect();
        assert_eq!(
            lifecycle,
            vec![
                ("copy_sent", 1, 0, true),
                ("copy_sent", 2, 0, false),
                ("packet_completed", 2, 0, false),
                ("copy_sent", 1, 1, false),
                ("packet_completed", 1, 1, false),
            ]
        );
    }

    #[test]
    fn a_slot_of_mixed_packets_counts_splits_and_completions_once() {
        // One slot, three packets, departures interleaved: packet 1 sends
        // two copies, neither its last (split); packet 2 sends a sibling
        // copy and its last (completed); packet 3 sends its last copy
        // alone (completed).
        let mut sw = InstrumentedSwitch::with_packet_trace(
            Scripted::new(
                6,
                vec![vec![
                    (1, 3, 2, true),
                    (0, 0, 1, false),
                    (2, 4, 3, true),
                    (1, 2, 2, false),
                    (0, 1, 1, false),
                ]],
            ),
            PacketTraceMode::All,
        );
        for (id, input, dests) in [(1, 0, &[0usize, 1, 5][..]), (2, 1, &[2, 3]), (3, 2, &[4])] {
            sw.admit(Packet::new(
                PacketId(id),
                Slot(0),
                PortId(input),
                dests.iter().copied().collect(),
            ));
        }
        sw.run_slot(Slot(0));
        let events = drain(&mut sw);
        assert_eq!(slot_counts(&events), vec![(3, 2, 1, 2)]);
        let copies: Vec<(u64, bool)> = events
            .iter()
            .filter_map(|e| match e {
                ObsEvent::CopySent { id, split, .. } => Some((id.0, *split)),
                _ => None,
            })
            .collect();
        assert_eq!(
            copies,
            vec![(2, false), (1, true), (3, false), (2, false), (1, true)]
        );
        let completed: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                ObsEvent::PacketCompleted { id, .. } => Some(id.0),
                _ => None,
            })
            .collect();
        assert_eq!(completed, vec![2, 3]);
    }

    #[test]
    fn own_state_round_trips_mid_packet() {
        // Mid-split: one packet followed and on the starvation ledger, its
        // events undrained. A fresh wrapper restored from the snapshot
        // holds the same state, and none of the pending events: they are
        // output, which the engine hands on before every checkpoint.
        let build = || {
            InstrumentedSwitch::with_packet_trace(SplittingFifo::new(1, 1), PacketTraceMode::All)
        };
        let mut sw = build();
        sw.admit(packet(1, Slot(0), &[0, 1, 2]));
        sw.run_slot(Slot(0));
        let blob = Checkpoint::snapshot_state(&sw);
        let mut twin = build();
        Checkpoint::restore_state(&mut twin, &blob).unwrap();
        assert_eq!(Checkpoint::snapshot_state(&twin), blob);
        assert!(!drain(&mut sw).is_empty());
        assert_eq!(drain(&mut twin), Vec::new());
        assert_eq!(twin.oldest_age(Slot(4)), Some(4));
    }

    #[test]
    fn restore_drops_the_pending_recorder_meta() {
        // A freshly built recorder holds its `RecorderMeta` until the
        // first drain. A resumed run emitted it before the checkpoint, so
        // the restored recorder must not emit it again.
        let build = || {
            InstrumentedSwitch::with_packet_trace(SplittingFifo::new(1, 1), PacketTraceMode::All)
        };
        assert!(matches!(
            drain(&mut build()).as_slice(),
            [ObsEvent::RecorderMeta { .. }]
        ));
        let mut resumed = build();
        Checkpoint::restore_state(&mut resumed, &Checkpoint::snapshot_state(&build())).unwrap();
        assert_eq!(drain(&mut resumed), Vec::new());
    }

    #[test]
    fn ring_mode_refuses_to_checkpoint() {
        // The ring hands its packet events on only at the end of the run,
        // so a checkpoint would have to carry them. The wrapper refuses
        // before asking the inner switch, which in every other mode
        // answers for itself.
        let refusal = |mode| {
            let sw = InstrumentedSwitch::with_packet_trace(SplittingFifo::new(1, 1), mode);
            match sw.save_state() {
                Err(StateError::Unsupported { component }) => component,
                other => panic!("expected Unsupported, got {other:?}"),
            }
        };
        assert_eq!(refusal(PacketTraceMode::All), "splitting-fifo");
        assert_eq!(
            refusal(PacketTraceMode::Ring(8)),
            "the ring flight recorder"
        );
    }

    #[test]
    fn own_state_of_version_2_is_refused() {
        // A version-2 blob carries pending events before the ledger and
        // the ring after it; reading it as version 3 would misread it, so
        // it is refused before any field is read.
        let mut sw = InstrumentedSwitch::new(SplittingFifo::new(1, 1));
        sw.admit(packet(1, Slot(0), &[0, 1]));
        sw.run_slot(Slot(0));
        let blob = Checkpoint::snapshot_state(&sw);
        let (version, payload) = fifoms_types::unframe_state(&blob, "instrumented-switch").unwrap();
        assert_eq!(version, 3);
        let old = fifoms_types::frame_state("instrumented-switch", 2, payload);
        let mut fresh = InstrumentedSwitch::new(SplittingFifo::new(1, 1));
        assert!(matches!(
            Checkpoint::restore_state(&mut fresh, &old),
            Err(StateError::VersionUnsupported { got: 2, .. })
        ));
        Checkpoint::restore_state(&mut fresh, &blob).unwrap();
        assert_eq!(Checkpoint::snapshot_state(&fresh), blob);
    }
}
