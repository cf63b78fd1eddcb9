//! Deterministic fabric fault injection.
//!
//! [`FaultyFabric`] wraps any [`Switch`] and applies a seeded, fully
//! deterministic schedule of hardware faults:
//!
//! * **output-port flaps** — an output goes down at some slot and recovers
//!   a fixed number of slots later, periodically, with a per-output phase
//!   derived from the seed;
//! * **crosspoint failures** — specific `(input, output)` crosspoints fail
//!   at a configured slot and recover after a configured duration.
//!
//! The same timeline can be applied under two fault *models*
//! ([`FaultMode`]):
//!
//! * [`FaultMode::Ingress`] (PR 1): the line cards are omniscient, so a
//!   packet arriving while part of its fanout is unreachable is admitted
//!   with the dead outputs removed, and a packet whose whole fanout is
//!   unreachable is dropped. Nothing already queued is ever hit.
//! * [`FaultMode::Egress`]: faults are invisible at admission; instead a
//!   scheduled transmission whose path is down at crosspoint-traversal
//!   time is *killed in flight*. The fabric then asks the wrapped switch
//!   to retransmit the copy ([`Switch::copy_failed`]) up to
//!   [`FaultConfig::retry_budget`] times per copy; when the budget is
//!   exhausted (or the switch has no retransmission path) the copy
//!   becomes a structured [`DroppedCopy`] with its `fanoutCounter`
//!   reconciled, drained by checkers via
//!   [`Switch::drain_reconciled_drops`].
//!
//! Masked, killed, requeued, lost and recovered copies are tallied in
//! [`FaultStats`]; everything admitted remains subject to the (egress-
//! extended) conservation invariant, which is how the stress suite and
//! the chaos campaign assert schedulers degrade gracefully under faults.
//!
//! Determinism matters more than realism here: the same `FaultConfig`
//! yields the same fault timeline on every run, so faulty sweeps are
//! reproducible and checkpoint/resume remains bit-identical. A config
//! with [`FaultConfig::is_active`] `== false` leaves every code path
//! untouched — the wrapper is bit-identical to the bare switch.

use std::collections::HashMap;

use fifoms_types::{
    get_dropped_copy, put_dropped_copy, splitmix64, AdmissionDrop, Checkpoint, Departure,
    DroppedCopy, ObsEvent, Packet, PacketId, PortId, RetryDisposition, Slot, SlotOutcome,
    SpanSample, StateError, StateReader, StateWriter,
};

use crate::switch::{frame_stack, unframe_stack, Backlog, Switch};

/// Where in a copy's lifetime the fault timeline is applied.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub enum FaultMode {
    /// Omniscient line cards: dead destinations are trimmed from fanouts
    /// at admission; queued traffic is never hit (the PR 1 model).
    #[default]
    Ingress,
    /// Faults strike at crosspoint-traversal time: admission is
    /// untouched, scheduled transmissions on a down path are killed in
    /// flight and retried or reconciled.
    Egress,
}

/// Deterministic fault schedule parameters.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultConfig {
    /// Seed deriving every phase and crosspoint choice.
    pub seed: u64,
    /// Period of each output's flap cycle in slots; `0` disables flaps.
    pub flap_period: u64,
    /// Slots an output stays down within each period.
    pub flap_duration: u64,
    /// Number of distinct crosspoints to fail; `0` disables.
    pub crosspoint_faults: usize,
    /// Slot at which the crosspoint faults occur.
    pub crosspoint_at: u64,
    /// Slots after which a failed crosspoint recovers; `u64::MAX` never.
    pub crosspoint_duration: u64,
    /// Whether the timeline masks fanouts at admission (ingress) or
    /// kills scheduled transmissions in flight (egress).
    pub mode: FaultMode,
    /// Egress mode only: kills a copy survives before it is abandoned
    /// with its `fanoutCounter` reconciled. `0` drops on the first kill.
    pub retry_budget: u32,
}

impl FaultConfig {
    /// A disabled schedule (the wrapper becomes a transparent pass-through).
    pub fn none() -> FaultConfig {
        FaultConfig {
            seed: 0,
            flap_period: 0,
            flap_duration: 0,
            crosspoint_faults: 0,
            crosspoint_at: 0,
            crosspoint_duration: 0,
            mode: FaultMode::Ingress,
            retry_budget: 0,
        }
    }

    /// A moderate mixed schedule for stress testing: every output flaps
    /// down for 50 slots out of every 1000, and two crosspoints fail at
    /// slot 500 for 2000 slots.
    pub fn moderate(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            flap_period: 1_000,
            flap_duration: 50,
            crosspoint_faults: 2,
            crosspoint_at: 500,
            crosspoint_duration: 2_000,
            mode: FaultMode::Ingress,
            retry_budget: 0,
        }
    }

    /// The moderate timeline applied in egress mode with a small retry
    /// budget — the chaos campaign's baseline scenario.
    pub fn egress(seed: u64) -> FaultConfig {
        FaultConfig {
            mode: FaultMode::Egress,
            retry_budget: 3,
            ..FaultConfig::moderate(seed)
        }
    }

    /// Whether the schedule injects anything at all.
    pub fn is_active(&self) -> bool {
        (self.flap_period > 0 && self.flap_duration > 0) || self.crosspoint_faults > 0
    }
}

/// Tally of what the fault schedule did to the offered traffic.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct FaultStats {
    /// Packets offered to the faulty fabric.
    pub packets_offered: u64,
    /// Packets dropped whole (entire fanout unreachable on arrival;
    /// ingress mode only).
    pub packets_dropped: u64,
    /// Packets admitted with a reduced fanout (ingress mode only).
    pub packets_trimmed: u64,
    /// Copies removed from fanouts (including those of dropped packets;
    /// ingress mode only).
    pub copies_dropped: u64,
    /// Egress mode: transmissions killed at crosspoint-traversal time
    /// (every kill is either requeued or lost).
    pub copies_killed: u64,
    /// Egress mode: killed copies re-queued for retransmission.
    pub copies_requeued: u64,
    /// Egress mode: killed copies abandoned (budget exhausted or the
    /// switch has no retransmission path), reconciled as structured
    /// drops.
    pub copies_lost: u64,
    /// Egress mode: previously killed copies that were eventually
    /// delivered.
    pub copies_recovered: u64,
}

/// Retry bookkeeping for one in-flight copy (keyed `(packet, output)`).
#[derive(Clone, Copy, Debug)]
struct RetryState {
    /// Kills observed so far for this copy.
    kills: u32,
    /// Slot of the first kill (time-to-recover baseline).
    first_kill: Slot,
}

/// A [`Switch`] wrapper that injects the deterministic fault schedule of a
/// [`FaultConfig`] (see the module docs for the fault model).
#[derive(Debug)]
pub struct FaultyFabric<S> {
    inner: S,
    config: FaultConfig,
    crosspoints: Vec<(PortId, PortId)>,
    stats: FaultStats,
    /// Buffer [`ObsEvent::FaultMasked`] / [`ObsEvent::CopyKilled`] /
    /// [`ObsEvent::CopyRecovered`] events. Opt-in: the buffer only grows
    /// on traced runs, which drain it every slot; untraced runs never
    /// construct an event.
    record_events: bool,
    events: Vec<ObsEvent>,
    /// Egress mode: copies with at least one kill that are still queued
    /// for retransmission.
    retries: HashMap<(PacketId, PortId), RetryState>,
    /// Egress mode: reconciled drops awaiting `drain_reconciled_drops`.
    drops: Vec<DroppedCopy>,
    /// Per-slot scratch of `egress_pass`: packets with a requeued kill,
    /// and packets whose `last_copy`-flagged departure was killed.
    requeued_packets: Vec<PacketId>,
    flag_killed_packets: Vec<PacketId>,
}

impl<S: Switch> FaultyFabric<S> {
    /// Wrap `inner` under the fault schedule `config`.
    pub fn new(inner: S, config: FaultConfig) -> FaultyFabric<S> {
        let n = inner.ports();
        let mut crosspoints = Vec::with_capacity(config.crosspoint_faults);
        let mut k = 0u64;
        while crosspoints.len() < config.crosspoint_faults && n > 0 {
            let h = splitmix64(config.seed ^ 0xC0DE ^ k);
            let pair = (
                PortId::new((h as usize) % n),
                PortId::new(((h >> 32) as usize) % n),
            );
            if !crosspoints.contains(&pair) {
                crosspoints.push(pair);
            }
            k += 1;
            if k > 64 * config.crosspoint_faults as u64 + 64 {
                break; // tiny switch: fewer distinct crosspoints than asked
            }
        }
        FaultyFabric {
            inner,
            config,
            crosspoints,
            stats: FaultStats::default(),
            record_events: false,
            events: Vec::new(),
            retries: HashMap::new(),
            drops: Vec::new(),
            requeued_packets: Vec::new(),
            flag_killed_packets: Vec::new(),
        }
    }

    /// Enable buffering of [`ObsEvent::FaultMasked`] events (drained via
    /// [`Switch::drain_events`]). Off by default so untraced runs pay
    /// nothing.
    pub fn with_event_recording(mut self) -> FaultyFabric<S> {
        self.record_events = true;
        self
    }

    /// The fault tally so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The crosspoints this schedule fails.
    pub fn failed_crosspoints(&self) -> &[(PortId, PortId)] {
        &self.crosspoints
    }

    /// Shared access to the wrapped switch.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Whether output `o` is down at `slot` per the flap schedule.
    pub fn output_down(&self, o: PortId, slot: Slot) -> bool {
        let (period, down) = (self.config.flap_period, self.config.flap_duration);
        if period == 0 || down == 0 {
            return false;
        }
        let phase = splitmix64(self.config.seed ^ (o.index() as u64)) % period;
        (slot.0 + phase) % period < down.min(period)
    }

    /// Whether crosspoint `(input, output)` is down at `slot`.
    pub fn crosspoint_down(&self, input: PortId, output: PortId, slot: Slot) -> bool {
        if slot.0 < self.config.crosspoint_at {
            return false;
        }
        let elapsed = slot.0 - self.config.crosspoint_at;
        if elapsed >= self.config.crosspoint_duration {
            return false;
        }
        self.crosspoints.contains(&(input, output))
    }

    /// Whether the path `input → output` is down at `slot` (either the
    /// output flap or a failed crosspoint).
    pub fn path_down(&self, input: PortId, output: PortId, slot: Slot) -> bool {
        self.output_down(output, slot) || self.crosspoint_down(input, output, slot)
    }

    /// Copies currently awaiting retransmission (killed at least once,
    /// still queued).
    pub fn pending_retries(&self) -> usize {
        self.retries.len()
    }

    /// Egress mode: kill every departure whose path is down at `now`,
    /// asking the wrapped switch to retransmit within the retry budget
    /// and reconciling the rest as structured drops; detect recoveries;
    /// repair `last_copy` flags so the post-fault departure stream stays
    /// self-consistent.
    fn egress_pass(&mut self, outcome: &mut SlotOutcome, now: Slot) {
        let budget = self.config.retry_budget;
        // Packets with a kill this slot: did any of their kills requeue,
        // and was the `last_copy`-flagged departure among the killed?
        self.requeued_packets.clear();
        self.flag_killed_packets.clear();
        // Filter in place: the departures buffer keeps its capacity for
        // the wrapped switch's next slot.
        outcome.departures.retain(|d| {
            if !self.path_down(d.input, d.output, now) {
                // Delivered. If this copy had been killed before, it just
                // recovered.
                if let Some(state) = self.retries.remove(&(d.packet, d.output)) {
                    self.stats.copies_recovered += 1;
                    if self.record_events {
                        self.events.push(ObsEvent::CopyRecovered {
                            slot: now,
                            input: d.input,
                            output: d.output,
                            packet: d.packet,
                            kills: state.kills,
                            latency: now.0 - state.first_kill.0,
                        });
                    }
                }
                return true;
            }
            // Killed at the crosspoint.
            self.stats.copies_killed += 1;
            let key = (d.packet, d.output);
            let state = self.retries.entry(key).or_insert(RetryState {
                kills: 0,
                first_kill: now,
            });
            state.kills += 1;
            let kills = state.kills;
            let disposition = if kills <= budget {
                self.inner.copy_failed(d, now, true)
            } else {
                self.inner.copy_failed(d, now, false)
            };
            let requeued = disposition == RetryDisposition::Requeued;
            if requeued {
                self.stats.copies_requeued += 1;
                self.requeued_packets.push(d.packet);
            } else {
                // Budget exhausted, or the switch cannot retransmit:
                // structured drop. The copy's serve already reconciled
                // the fanout counter, so only the accounting record
                // remains.
                self.retries.remove(&key);
                self.stats.copies_lost += 1;
                self.drops.push(DroppedCopy {
                    packet: d.packet,
                    input: d.input,
                    output: d.output,
                    arrival: d.arrival,
                    slot: now,
                });
            }
            if d.last_copy {
                self.flag_killed_packets.push(d.packet);
            }
            if self.record_events {
                self.events.push(ObsEvent::CopyKilled {
                    slot: now,
                    input: d.input,
                    output: d.output,
                    packet: d.packet,
                    requeued,
                    retry: kills,
                });
            }
            false
        });
        // A killed copy still occupied its crosspoint; `connections` is a
        // fabric-usage metric, so it stays unchanged.
        //
        // Repair `last_copy` flags. Two cases per packet with a killed
        // flagged copy:
        //  * some kill was requeued → the packet still has queued copies,
        //    so no surviving departure may claim to be the last;
        //  * every kill became a drop → the fanout counter did reach zero
        //    this slot, so the packet's final *delivered* copy is the last
        //    surviving departure of this slot (if any — a packet resolved
        //    entirely by drops completes without a flagged departure).
        let survivors = &mut outcome.departures;
        for d in survivors.iter_mut() {
            if d.last_copy && self.requeued_packets.contains(&d.packet) {
                d.last_copy = false;
            }
        }
        for &p in &self.flag_killed_packets {
            if self.requeued_packets.contains(&p) {
                continue; // still pending; flags already cleared above
            }
            if let Some(d) = survivors.iter_mut().rev().find(|d| d.packet == p) {
                d.last_copy = true;
            }
        }
    }
}

impl<S: Switch> Switch for FaultyFabric<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn ports(&self) -> usize {
        self.inner.ports()
    }

    fn admit(&mut self, mut packet: Packet) {
        self.stats.packets_offered += 1;
        if self.config.mode == FaultMode::Egress {
            // Egress faults are invisible at admission: the full fanout
            // is queued and faults strike in flight instead.
            self.inner.admit(packet);
            return;
        }
        let slot = packet.arrival;
        let before = packet.fanout();
        let dead: Vec<PortId> = packet
            .dests
            .iter()
            .filter(|&o| self.output_down(o, slot) || self.crosspoint_down(packet.input, o, slot))
            .collect();
        for o in dead {
            packet.dests.remove(o);
        }
        let dropped = before - packet.fanout();
        self.stats.copies_dropped += dropped as u64;
        if self.record_events && dropped > 0 {
            self.events.push(ObsEvent::FaultMasked {
                slot,
                input: packet.input,
                copies_dropped: dropped as u32,
                packet_dropped: packet.dests.is_empty(),
            });
        }
        if packet.dests.is_empty() {
            self.stats.packets_dropped += 1;
            return;
        }
        if dropped > 0 {
            self.stats.packets_trimmed += 1;
        }
        self.inner.admit(packet);
    }

    fn run_slot(&mut self, now: Slot) -> SlotOutcome {
        let mut outcome = self.inner.run_slot(now);
        if self.config.mode == FaultMode::Egress
            && self.config.is_active()
            && !outcome.departures.is_empty()
        {
            self.egress_pass(&mut outcome, now);
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
        self.inner.end_of_run();
    }

    fn copy_failed(&mut self, d: &Departure, now: Slot, requeue: bool) -> RetryDisposition {
        self.inner.copy_failed(d, now, requeue)
    }

    fn drain_reconciled_drops(&mut self, out: &mut Vec<DroppedCopy>) {
        out.append(&mut self.drops);
        self.inner.drain_reconciled_drops(out);
    }

    fn drain_admission_drops(&mut self, out: &mut Vec<AdmissionDrop>) {
        self.inner.drain_admission_drops(out);
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
        let inner = self.inner.save_state()?;
        Ok(frame_stack(
            "faulty-fabric-stack",
            &Checkpoint::snapshot_state(self),
            &inner,
        ))
    }

    fn load_state(&mut self, blob: &[u8]) -> Result<(), StateError> {
        let (own, inner) = unframe_stack(blob, "faulty-fabric-stack")?;
        Checkpoint::restore_state(self, own)?;
        self.inner.load_state(inner)
    }
}

impl<S: Switch> Checkpoint for FaultyFabric<S> {
    fn state_kind(&self) -> &'static str {
        "faulty-fabric"
    }

    // Version 2 added the per-slot scratch fields `requeued_packets` and
    // `flag_killed_packets`, which are not serialised, when lint rule R8
    // still fingerprinted every field. Version 3 stopped carrying pending
    // events.
    fn state_version(&self) -> u16 {
        3
    }

    // Own state only: the fault tally, the per-copy retry scoreboard, and
    // the undrained reconciled-drop ledger. `events` is output, not
    // state: the engine hands it on before every checkpoint, and a
    // restore clears it. The fault timeline itself (`config`,
    // `crosspoints`) is a pure function of the configuration and is
    // rebuilt by the caller, as is the `record_events` observability
    // toggle. The `egress_pass` scratch holds nothing between slots.
    fn write_state(&self, w: &mut StateWriter) {
        w.put_u64(self.stats.packets_offered);
        w.put_u64(self.stats.packets_dropped);
        w.put_u64(self.stats.packets_trimmed);
        w.put_u64(self.stats.copies_dropped);
        w.put_u64(self.stats.copies_killed);
        w.put_u64(self.stats.copies_requeued);
        w.put_u64(self.stats.copies_lost);
        w.put_u64(self.stats.copies_recovered);
        // HashMap iteration order is nondeterministic: sort by key so
        // equal states snapshot to equal bytes.
        // fifoms-lint: allow(R1) collected then sorted by key before any emission
        let mut retry_entries: Vec<_> = self.retries.iter().collect();
        retry_entries.sort_unstable_by_key(|(k, _)| **k);
        w.put_usize(retry_entries.len());
        for ((packet, output), state) in retry_entries {
            w.put_packet_id(*packet);
            w.put_port(*output);
            w.put_u32(state.kills);
            w.put_slot(state.first_kill);
        }
        w.put_usize(self.drops.len());
        for d in &self.drops {
            put_dropped_copy(w, d);
        }
    }

    fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.stats = FaultStats {
            packets_offered: r.get_u64()?,
            packets_dropped: r.get_u64()?,
            packets_trimmed: r.get_u64()?,
            copies_dropped: r.get_u64()?,
            copies_killed: r.get_u64()?,
            copies_requeued: r.get_u64()?,
            copies_lost: r.get_u64()?,
            copies_recovered: r.get_u64()?,
        };
        self.events.clear();
        let retries = r.get_usize()?;
        self.retries.clear();
        self.retries.reserve(retries);
        for _ in 0..retries {
            let packet = r.get_packet_id()?;
            let output = r.get_port()?;
            let kills = r.get_u32()?;
            let first_kill = r.get_slot()?;
            self.retries
                .insert((packet, output), RetryState { kills, first_kill });
        }
        let drops = r.get_usize()?;
        self.drops.clear();
        self.drops.reserve(drops);
        for _ in 0..drops {
            self.drops.push(get_dropped_copy(r)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checked::CheckedSwitch;
    use fifoms_types::{PacketId, PortSet};
    use std::collections::VecDeque;

    /// Single shared FIFO serving one whole packet per slot.
    #[derive(Default)]
    struct FifoSwitch {
        queue: VecDeque<Packet>,
    }

    impl Switch for FifoSwitch {
        fn name(&self) -> String {
            "fifo".into()
        }
        fn ports(&self) -> usize {
            8
        }
        fn admit(&mut self, packet: Packet) {
            assert!(!packet.dests.is_empty(), "empty fanout admitted");
            self.queue.push_back(packet);
        }
        fn run_slot(&mut self, _now: Slot) -> SlotOutcome {
            let Some(p) = self.queue.pop_front() else {
                return SlotOutcome::idle();
            };
            let outputs: Vec<PortId> = p.dests.iter().collect();
            let departures: Vec<_> = outputs
                .iter()
                .enumerate()
                .map(|(i, &o)| fifoms_types::Departure {
                    packet: p.id,
                    arrival: p.arrival,
                    input: p.input,
                    output: o,
                    last_copy: i + 1 == outputs.len(),
                })
                .collect();
            let connections = departures.len();
            SlotOutcome {
                departures,
                rounds: 1,
                connections,
            }
        }
        fn queue_sizes(&self, out: &mut Vec<usize>) {
            out.clear();
            out.resize(8, 0);
            out[0] = self.queue.len();
        }
        fn backlog(&self) -> Backlog {
            Backlog {
                packets: self.queue.len(),
                copies: self.queue.iter().map(|p| p.fanout()).sum(),
            }
        }
    }

    fn packet_at(id: u64, slot: Slot, outputs: &[usize]) -> Packet {
        Packet::new(
            PacketId(id),
            slot,
            PortId(0),
            outputs.iter().copied().collect::<PortSet>(),
        )
    }

    #[test]
    fn disabled_schedule_is_transparent() {
        let mut sw = FaultyFabric::new(FifoSwitch::default(), FaultConfig::none());
        assert!(!FaultConfig::none().is_active());
        for t in 0..100 {
            sw.admit(packet_at(t, Slot(t), &[0, 3, 7]));
        }
        let stats = sw.stats();
        assert_eq!(stats.packets_offered, 100);
        assert_eq!(stats.packets_dropped, 0);
        assert_eq!(stats.copies_dropped, 0);
        assert_eq!(sw.backlog().copies, 300);
    }

    #[test]
    fn schedule_is_deterministic() {
        let cfg = FaultConfig::moderate(42);
        let a = FaultyFabric::new(FifoSwitch::default(), cfg);
        let b = FaultyFabric::new(FifoSwitch::default(), cfg);
        assert_eq!(a.failed_crosspoints(), b.failed_crosspoints());
        for t in (0..5_000).step_by(7) {
            for o in 0..8 {
                let o = PortId::new(o);
                assert_eq!(a.output_down(o, Slot(t)), b.output_down(o, Slot(t)));
            }
        }
    }

    #[test]
    fn flap_windows_match_period_and_duration() {
        let cfg = FaultConfig {
            seed: 9,
            flap_period: 100,
            flap_duration: 10,
            ..FaultConfig::none()
        };
        let sw = FaultyFabric::new(FifoSwitch::default(), cfg);
        for o in 0..8 {
            let o = PortId::new(o);
            let down: u64 = (0..1_000).filter(|&t| sw.output_down(o, Slot(t))).count() as u64;
            assert_eq!(down, 100, "output {o:?} down {down}/1000 slots");
        }
    }

    #[test]
    fn crosspoint_fails_and_recovers() {
        let cfg = FaultConfig {
            seed: 3,
            crosspoint_faults: 1,
            crosspoint_at: 100,
            crosspoint_duration: 50,
            ..FaultConfig::none()
        };
        let sw = FaultyFabric::new(FifoSwitch::default(), cfg);
        let &(i, o) = &sw.failed_crosspoints()[0];
        assert!(!sw.crosspoint_down(i, o, Slot(99)));
        assert!(sw.crosspoint_down(i, o, Slot(100)));
        assert!(sw.crosspoint_down(i, o, Slot(149)));
        assert!(!sw.crosspoint_down(i, o, Slot(150)));
        // an unrelated crosspoint never fails
        let other = (PortId::new((i.index() + 1) % 8), o);
        assert!(!sw.crosspoint_down(other.0, other.1, Slot(120)));
    }

    #[test]
    fn a_path_is_down_when_its_output_flaps_or_its_crosspoint_fails() {
        let cfg = FaultConfig {
            seed: 11,
            flap_period: 40,
            flap_duration: 5,
            crosspoint_faults: 2,
            crosspoint_at: 10,
            crosspoint_duration: 20,
            ..FaultConfig::none()
        };
        let sw = FaultyFabric::new(FifoSwitch::default(), cfg);
        let failed = sw.failed_crosspoints().to_vec();
        for t in 0..200 {
            let t = Slot(t);
            for i in 0..8 {
                for o in 0..8 {
                    let (i, o) = (PortId::new(i), PortId::new(o));
                    assert_eq!(
                        sw.path_down(i, o, t),
                        sw.output_down(o, t) || sw.crosspoint_down(i, o, t),
                        "{i:?}->{o:?} at {t:?}"
                    );
                }
            }
        }
        // A failed crosspoint takes its path down outside the output's
        // flap windows, and only inside the crosspoint window.
        let (i, o) = failed[0];
        let inside = (10..30)
            .map(Slot)
            .find(|&t| !sw.output_down(o, t))
            .expect("a flap-free slot inside the crosspoint window");
        assert!(sw.path_down(i, o, inside));
        let after = (30..200)
            .map(Slot)
            .find(|&t| !sw.output_down(o, t))
            .expect("a flap-free slot after the window");
        assert!(!sw.path_down(i, o, after));
        let none = FaultyFabric::new(FifoSwitch::default(), FaultConfig::none());
        assert!((0..100).all(|t| !none.path_down(i, o, Slot(t))));
    }

    #[test]
    fn wholly_masked_packets_drop_and_partial_fanouts_trim() {
        let cfg = FaultConfig {
            seed: 5,
            flap_period: 10,
            flap_duration: 10, // every output always down
            ..FaultConfig::none()
        };
        let mut sw = FaultyFabric::new(FifoSwitch::default(), cfg);
        sw.admit(packet_at(1, Slot(0), &[0, 1]));
        let stats = sw.stats();
        assert_eq!(stats.packets_dropped, 1);
        assert_eq!(stats.copies_dropped, 2);
        assert!(sw.backlog().is_empty());
    }

    /// [`FifoSwitch`] plus the minimal retransmission contract: a failed
    /// copy is re-queued at the *front* of the FIFO as a single-destination
    /// packet with its original arrival stamp.
    #[derive(Default)]
    struct RetryFifo {
        inner: FifoSwitch,
    }

    impl Switch for RetryFifo {
        fn name(&self) -> String {
            "retry-fifo".into()
        }
        fn ports(&self) -> usize {
            self.inner.ports()
        }
        fn admit(&mut self, packet: Packet) {
            self.inner.admit(packet);
        }
        fn run_slot(&mut self, now: Slot) -> SlotOutcome {
            self.inner.run_slot(now)
        }
        fn queue_sizes(&self, out: &mut Vec<usize>) {
            self.inner.queue_sizes(out);
        }
        fn backlog(&self) -> Backlog {
            self.inner.backlog()
        }
        fn copy_failed(&mut self, d: &Departure, _now: Slot, requeue: bool) -> RetryDisposition {
            if !requeue {
                return RetryDisposition::Dropped;
            }
            let dests: PortSet = [d.output.index()].into_iter().collect();
            self.inner
                .queue
                .push_front(Packet::new(d.packet, d.arrival, d.input, dests));
            RetryDisposition::Requeued
        }
    }

    #[test]
    fn egress_mode_admits_full_fanouts_and_reconciles_drops() {
        let cfg = FaultConfig {
            seed: 5,
            flap_period: 10,
            flap_duration: 10, // every output always down
            mode: FaultMode::Egress,
            ..FaultConfig::none()
        };
        let mut sw = FaultyFabric::new(FifoSwitch::default(), cfg);
        sw.admit(packet_at(1, Slot(0), &[0, 1]));
        // Nothing is masked at admission: the full fanout is queued.
        assert_eq!(sw.backlog().copies, 2);
        assert_eq!(sw.stats().copies_dropped, 0);
        let out = sw.run_slot(Slot(0));
        // Both transmissions were killed in flight; FifoSwitch has no
        // retransmission path, so both become structured drops.
        assert!(out.departures.is_empty());
        assert_eq!(out.connections, 2, "a killed copy still used its crosspoint");
        let stats = sw.stats();
        assert_eq!(stats.copies_killed, 2);
        assert_eq!(stats.copies_lost, 2);
        assert_eq!(stats.copies_requeued, 0);
        let mut drops = Vec::new();
        sw.drain_reconciled_drops(&mut drops);
        assert_eq!(drops.len(), 2);
        assert!(drops
            .iter()
            .all(|d| d.packet == PacketId(1) && d.arrival == Slot(0) && d.slot == Slot(0)));
        drops.clear();
        sw.drain_reconciled_drops(&mut drops);
        assert!(drops.is_empty(), "drops are drained at most once");
    }

    #[test]
    fn egress_retry_requeues_until_the_path_recovers() {
        let cfg = FaultConfig {
            seed: 3,
            crosspoint_faults: 1,
            crosspoint_at: 0,
            crosspoint_duration: 5,
            mode: FaultMode::Egress,
            retry_budget: 10,
            ..FaultConfig::none()
        };
        let mut sw = FaultyFabric::new(RetryFifo::default(), cfg).with_event_recording();
        let &(i, o) = &sw.failed_crosspoints()[0];
        let dests: PortSet = [o.index()].into_iter().collect();
        sw.admit(Packet::new(PacketId(7), Slot(0), i, dests));
        let mut delivered = Vec::new();
        for t in 0..=5 {
            delivered.extend(sw.run_slot(Slot(t)).departures);
        }
        // Killed (and requeued) in slots 0..5; the crosspoint recovers at
        // slot 5 and the copy finally crosses, timestamp intact.
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].arrival, Slot(0), "timestamp preserved across retries");
        assert!(delivered[0].last_copy);
        let stats = sw.stats();
        assert_eq!(stats.copies_killed, 5);
        assert_eq!(stats.copies_requeued, 5);
        assert_eq!(stats.copies_recovered, 1);
        assert_eq!(stats.copies_lost, 0);
        assert_eq!(sw.pending_retries(), 0);
        assert!(sw.backlog().is_empty());
        let mut events = Vec::new();
        sw.drain_events(&mut events);
        let recoveries: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, ObsEvent::CopyRecovered { .. }))
            .collect();
        assert_eq!(recoveries.len(), 1);
        match recoveries[0] {
            ObsEvent::CopyRecovered { kills, latency, .. } => {
                assert_eq!(*kills, 5);
                assert_eq!(*latency, 5);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn egress_retry_budget_escalates_to_a_structured_drop() {
        let cfg = FaultConfig {
            seed: 3,
            crosspoint_faults: 1,
            crosspoint_at: 0,
            crosspoint_duration: u64::MAX, // never recovers
            mode: FaultMode::Egress,
            retry_budget: 2,
            ..FaultConfig::none()
        };
        let mut sw = FaultyFabric::new(RetryFifo::default(), cfg);
        let &(i, o) = &sw.failed_crosspoints()[0];
        let dests: PortSet = [o.index()].into_iter().collect();
        sw.admit(Packet::new(PacketId(9), Slot(0), i, dests));
        for t in 0..4 {
            assert!(sw.run_slot(Slot(t)).departures.is_empty());
        }
        let stats = sw.stats();
        assert_eq!(stats.copies_killed, 3, "two retries then the fatal kill");
        assert_eq!(stats.copies_requeued, 2);
        assert_eq!(stats.copies_lost, 1);
        assert_eq!(sw.pending_retries(), 0);
        assert!(sw.backlog().is_empty());
        let mut drops = Vec::new();
        sw.drain_reconciled_drops(&mut drops);
        assert_eq!(
            drops,
            vec![DroppedCopy {
                packet: PacketId(9),
                input: i,
                output: o,
                arrival: Slot(0),
                slot: Slot(2),
            }]
        );
    }

    #[test]
    fn last_copy_flag_repaired_when_a_copy_is_requeued() {
        let cfg = FaultConfig {
            seed: 3,
            crosspoint_faults: 1,
            crosspoint_at: 0,
            crosspoint_duration: 3,
            mode: FaultMode::Egress,
            retry_budget: 10,
            ..FaultConfig::none()
        };
        let mut sw = FaultyFabric::new(RetryFifo::default(), cfg);
        let &(i, o_bad) = &sw.failed_crosspoints()[0];
        let o_other = PortId::new((o_bad.index() + 1) % 8);
        let dests: PortSet = [o_bad.index(), o_other.index()].into_iter().collect();
        sw.admit(Packet::new(PacketId(3), Slot(0), i, dests));
        let mut delivered = Vec::new();
        for t in 0..=3 {
            delivered.extend(sw.run_slot(Slot(t)).departures);
        }
        assert_eq!(delivered.len(), 2, "both copies eventually delivered");
        // The copy delivered while its sibling was still requeued must not
        // claim to be the last; the retried copy, delivered after the
        // window, is.
        assert!(!delivered[0].last_copy);
        assert_eq!(delivered[0].output, o_other);
        assert!(delivered[1].last_copy);
        assert_eq!(delivered[1].output, o_bad);
        assert_eq!(delivered[1].arrival, Slot(0));
        assert_eq!(sw.stats().copies_recovered, 1);
    }

    #[test]
    fn conservation_holds_for_admitted_cells_under_faults() {
        // FaultyFabric outside, CheckedSwitch inside: the checker sees the
        // trimmed traffic and must find no violation.
        let cfg = FaultConfig::moderate(11);
        let mut sw = FaultyFabric::new(CheckedSwitch::new(FifoSwitch::default()), cfg);
        let mut id = 0u64;
        for t in 0..3_000u64 {
            if t % 3 == 0 {
                id += 1;
                let dests = [
                    (t % 8) as usize,
                    ((t / 3) % 8) as usize,
                    ((t / 7) % 8) as usize,
                ];
                sw.admit(packet_at(id, Slot(t), &dests));
            }
            sw.run_slot(Slot(t));
        }
        let stats = sw.stats();
        assert!(stats.copies_dropped > 0, "schedule injected nothing");
        assert!(stats.packets_offered > stats.packets_dropped);
        assert_eq!(sw.inner().violation(), None);
    }

    #[test]
    fn checked_outside_faulty_egress_holds_invariants_on_the_post_fault_view() {
        // Satellite 3: the checker wraps the fault layer, so it audits
        // exactly what the rest of the system sees — killed copies are
        // absent from departures, requeues replay later with the original
        // stamp, drops arrive as reconciled DroppedCopy records, and the
        // repaired last_copy flags must satisfy every ledger check.
        let cfg = FaultConfig {
            retry_budget: 1, // kills escalate quickly: both paths exercised
            flap_period: 40,
            flap_duration: 8,
            crosspoint_faults: 3,
            crosspoint_at: 30,
            crosspoint_duration: 90,
            ..FaultConfig::egress(13)
        };
        let mut sw = CheckedSwitch::new(FaultyFabric::new(RetryFifo::default(), cfg));
        let mut drops = Vec::new();
        let mut id = 0u64;
        for t in 0..1_500u64 {
            if t % 2 == 0 {
                id += 1;
                let dests = [(t % 8) as usize, ((t / 5) % 8) as usize];
                sw.admit(packet_at(id, Slot(t), &dests));
            }
            sw.run_slot(Slot(t));
            assert_eq!(sw.violation(), None, "violation at slot {t}");
        }
        let mut t = 1_500u64;
        while !sw.backlog().is_empty() {
            sw.run_slot(Slot(t));
            assert_eq!(sw.violation(), None, "violation at drain slot {t}");
            t += 1;
            assert!(t < 20_000, "egress stack failed to drain");
        }
        sw.drain_reconciled_drops(&mut drops);
        let stats = sw.inner().stats();
        assert!(stats.copies_killed > 0, "schedule injected nothing");
        assert!(stats.copies_requeued > 0 && stats.copies_lost > 0);
        assert_eq!(drops.len() as u64, stats.copies_lost);
        // The egress conservation law on the checker's own ledger.
        assert_eq!(
            sw.admitted_copies(),
            sw.delivered_copies() + sw.reconciled_copies(),
            "admitted != delivered + reconciled after full drain"
        );
    }

    /// Inner fixture that only tallies what admission lets through.
    #[derive(Default)]
    struct AdmitCounter {
        packets: u64,
        copies: u64,
    }

    impl Switch for AdmitCounter {
        fn name(&self) -> String {
            "admit-counter".into()
        }
        fn ports(&self) -> usize {
            8
        }
        fn admit(&mut self, packet: Packet) {
            assert!(!packet.dests.is_empty(), "empty fanout admitted");
            self.packets += 1;
            self.copies += packet.fanout() as u64;
        }
        fn run_slot(&mut self, _now: Slot) -> SlotOutcome {
            SlotOutcome::idle()
        }
        fn queue_sizes(&self, out: &mut Vec<usize>) {
            out.clear();
        }
        fn backlog(&self) -> Backlog {
            Backlog::default()
        }
    }

    /// Offer a deterministic packet battery; assert the ingress
    /// conservation law: admitted + trimmed/dropped copies == offered.
    fn check_ingress_conservation(cfg: FaultConfig) {
        assert_eq!(cfg.mode, FaultMode::Ingress);
        let mut fab = FaultyFabric::new(AdmitCounter::default(), cfg);
        let mut offered_packets = 0u64;
        let mut offered_copies = 0u64;
        let mut r = cfg.seed ^ 0x0BA7_7E57;
        let mut id = 0u64;
        for t in 0..48u64 {
            for input in 0..8u16 {
                r = splitmix64(r.wrapping_add(1));
                if !r.is_multiple_of(3) {
                    continue;
                }
                let mut dests = PortSet::new();
                dests.insert(PortId(((r >> 8) % 8) as u16)); // never empty
                for o in 0..8u16 {
                    if (r >> (16 + o)) & 1 == 1 {
                        dests.insert(PortId(o));
                    }
                }
                offered_packets += 1;
                offered_copies += dests.len() as u64;
                id += 1;
                fab.admit(Packet::new(PacketId(id), Slot(t), PortId(input), dests));
            }
            fab.run_slot(Slot(t));
        }
        let stats = fab.stats();
        let inner = fab.inner();
        assert_eq!(stats.packets_offered, offered_packets);
        assert_eq!(
            inner.copies + stats.copies_dropped,
            offered_copies,
            "copies leaked or duplicated by admission trimming: {cfg:?}"
        );
        assert_eq!(
            inner.packets + stats.packets_dropped,
            offered_packets,
            "packets leaked or duplicated by admission trimming: {cfg:?}"
        );
        assert!(stats.packets_trimmed <= inner.packets);
    }

    /// Satellite property: across 100 random ingress fault schedules
    /// (flaps × crosspoint sets × phase derivations), admission trimming
    /// conserves cells exactly.
    #[test]
    fn prop_ingress_trimming_conserves_cells_over_100_random_configs() {
        let mut r = 0x0F_F1CE_u64;
        for case in 0..100u64 {
            r = splitmix64(r.wrapping_add(case));
            let flap_period = [0u64, 5, 16, 100, 1000][(r % 5) as usize];
            let crosspoint_duration = [0u64, 7, 40, u64::MAX][((r >> 3) % 4) as usize];
            let cfg = FaultConfig {
                seed: splitmix64(r),
                flap_period,
                flap_duration: if flap_period == 0 {
                    0
                } else {
                    (r >> 8) % flap_period
                },
                crosspoint_faults: ((r >> 24) % 11) as usize,
                crosspoint_at: (r >> 32) % 64,
                crosspoint_duration,
                ..FaultConfig::none()
            };
            check_ingress_conservation(cfg);
        }
    }

    #[test]
    fn save_state_propagates_unsupported_from_the_inner_switch() {
        // FifoSwitch has no checkpoint support: the wrapper stack must
        // surface a structured error naming the component, never panic or
        // silently write a partial snapshot.
        let sw = CheckedSwitch::new(FaultyFabric::new(
            FifoSwitch::default(),
            FaultConfig::moderate(1),
        ));
        match sw.save_state() {
            Err(fifoms_types::StateError::Unsupported { component }) => {
                assert_eq!(component, "fifo");
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn moderate_schedule_conserves_and_derives_crosspoints_per_seed() {
        for seed in 0..100u64 {
            check_ingress_conservation(FaultConfig::moderate(seed));
        }
        // The crosspoint-phase derivation is a pure function of the seed:
        // same seed, same failed set; and the derivation must actually
        // vary across seeds.
        let set = |seed: u64| {
            FaultyFabric::new(AdmitCounter::default(), FaultConfig::moderate(seed))
                .failed_crosspoints()
                .to_vec()
        };
        assert_eq!(set(3), set(3));
        assert!(
            (0..16).any(|s| set(s) != set(s + 16)),
            "crosspoint derivation ignores the seed"
        );
    }

    /// A wrapper whose one crosspoint is down for the first five slots,
    /// with a retry budget that outlasts it and event recording on.
    fn retrying_fabric() -> FaultyFabric<RetryFifo> {
        let cfg = FaultConfig {
            seed: 3,
            crosspoint_faults: 1,
            crosspoint_at: 0,
            crosspoint_duration: 5,
            mode: FaultMode::Egress,
            retry_budget: 10,
            ..FaultConfig::none()
        };
        FaultyFabric::new(RetryFifo::default(), cfg).with_event_recording()
    }

    #[test]
    fn own_state_round_trips_a_pending_retry() {
        let two_slots_in = || {
            let mut sw = retrying_fabric();
            let &(i, o) = &sw.failed_crosspoints()[0];
            sw.admit(Packet::new(PacketId(7), Slot(0), i, PortSet::singleton(o)));
            for t in 0..2 {
                assert!(sw.run_slot(Slot(t)).departures.is_empty());
            }
            sw
        };
        let mut sw = two_slots_in();
        assert_eq!(sw.pending_retries(), 1);
        let blob = Checkpoint::snapshot_state(&sw);
        let mut twin = retrying_fabric();
        Checkpoint::restore_state(&mut twin, &blob).unwrap();
        assert_eq!(Checkpoint::snapshot_state(&twin), blob);
        assert_eq!(twin.stats(), sw.stats());
        assert_eq!(twin.stats().copies_requeued, 2);
        assert_eq!(twin.pending_retries(), 1);
        // The kill events are output, not state: the restored twin holds
        // none, and a restore clears those a wrapper held.
        let mut again = two_slots_in();
        Checkpoint::restore_state(&mut again, &blob).unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        sw.drain_events(&mut a);
        assert!(!a.is_empty());
        for restored in [&mut twin, &mut again] {
            restored.drain_events(&mut b);
            assert!(b.is_empty(), "restored wrapper holds pending events: {b:?}");
        }
    }

    #[test]
    fn own_state_of_version_2_is_refused() {
        // A version-2 blob carries a pending-event list after the tally;
        // reading it as version 3 would misread every later field, so it
        // is refused before any field is read.
        let mut sw = retrying_fabric();
        let &(i, o) = &sw.failed_crosspoints()[0];
        sw.admit(Packet::new(PacketId(7), Slot(0), i, PortSet::singleton(o)));
        sw.run_slot(Slot(0));
        let blob = Checkpoint::snapshot_state(&sw);
        let (version, payload) = fifoms_types::unframe_state(&blob, "faulty-fabric").unwrap();
        assert_eq!(version, 3);
        let old = fifoms_types::frame_state("faulty-fabric", 2, payload);
        let mut fresh = retrying_fabric();
        assert!(matches!(
            Checkpoint::restore_state(&mut fresh, &old),
            Err(StateError::VersionUnsupported { got: 2, .. })
        ));
        assert_eq!(
            fresh.pending_retries(),
            0,
            "a refused blob restores nothing"
        );
        Checkpoint::restore_state(&mut fresh, &blob).unwrap();
        assert_eq!(fresh.pending_retries(), 1);
    }
}
