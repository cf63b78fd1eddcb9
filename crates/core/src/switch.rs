//! The complete multicast VOQ switch running FIFOMS.

use fifoms_fabric::{Backlog, FaultScoreboard, Switch};
use fifoms_types::{
    get_admission_drop, put_admission_drop, AdmissionDrop, Checkpoint, Departure, DropCause,
    ObsEvent, Packet, PortId, RetryDisposition, Slot, SlotOutcome, SpanSample, SpanTimer,
    StateError, StateReader, StateWriter, WorkCounts,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::buffer::{AdmissionPolicy, BufferConfig};
use crate::cell::AddressCell;
use crate::port::InputPort;
use crate::scheduler::{FifomsConfig, FifomsScheduler, ScheduleOutcome};

/// Default scoreboard quarantine window (slots): how long a path that
/// failed at the crosspoint is skipped by the scheduler before being
/// re-probed. Tunable via [`MulticastVoqSwitch::with_quarantine_slots`].
pub const DEFAULT_QUARANTINE_SLOTS: u64 = 200;

/// An `N×N` multicast VOQ switch scheduled by FIFOMS.
///
/// Owns the per-input [`InputPort`] buffering state and the
/// [`FifomsScheduler`]; each [`Switch::run_slot`] call executes one full
/// Table-2 cycle: iterative request/grant rounds, data transmission
/// through the crossbar, and post-transmission processing (popping served
/// address cells, decrementing fanout counters, destroying exhausted data
/// cells). The scheduler's grant sets are the crossbar setting: input `i`
/// drives exactly the outputs it was granted, one departure per output.
#[derive(Clone, Debug)]
pub struct MulticastVoqSwitch {
    ports: Vec<InputPort>,
    scheduler: FifomsScheduler,
    rng: SmallRng,
    scoreboard: FaultScoreboard,
    buffers: BufferConfig,
    // Per-copy ledger of admission-control drops, owed to
    // `drain_admission_drops`. Callers running finite buffers should wrap
    // the switch in `CheckedSwitch` (which drains every slot) or drain
    // regularly themselves; otherwise the ledger grows with the loss count.
    admission_drops: Vec<AdmissionDrop>,
    events: Vec<ObsEvent>,
    record_events: bool,
    // Reused buffers keeping the steady-state slot loop allocation-free:
    // the scheduling outcome (rounds, grants, work) and the departures vector
    // handed back through `Switch::recycle`.
    sched_out: ScheduleOutcome,
    spare_departures: Vec<Departure>,
    // Sub-phase timing (`Switch::set_span_recording`): off by default, so
    // unprofiled slots read no clock.
    span_recording: bool,
    spans: Vec<SpanSample>,
}

impl MulticastVoqSwitch {
    /// A switch with the paper's default FIFOMS configuration.
    pub fn new(n: usize, seed: u64) -> MulticastVoqSwitch {
        MulticastVoqSwitch::with_config(n, seed, FifomsConfig::default())
    }

    /// A switch with explicit scheduler options (ablations).
    pub fn with_config(n: usize, seed: u64, config: FifomsConfig) -> MulticastVoqSwitch {
        assert!(n > 0, "switch needs at least one port");
        MulticastVoqSwitch {
            ports: (0..n).map(|_| InputPort::new(n)).collect(),
            scheduler: FifomsScheduler::new(config),
            rng: SmallRng::seed_from_u64(seed),
            scoreboard: FaultScoreboard::new(n, DEFAULT_QUARANTINE_SLOTS),
            buffers: BufferConfig::unbounded(),
            admission_drops: Vec::new(),
            events: Vec::new(),
            record_events: false,
            sched_out: ScheduleOutcome::empty(n),
            spare_departures: Vec::new(),
            span_recording: false,
            spans: Vec::new(),
        }
    }

    /// Bound the queue structure with finite-buffer admission control
    /// (builder style). The default is [`BufferConfig::unbounded`], under
    /// which admission takes the exact unbounded code path.
    pub fn with_buffers(mut self, buffers: BufferConfig) -> MulticastVoqSwitch {
        self.buffers = buffers;
        self
    }

    /// Enable buffering of [`ObsEvent::AdmissionDropped`] events for trace
    /// sinks (builder style). Off by default so unobserved overloaded runs
    /// do not accumulate an event per dropped packet; the per-copy
    /// [`AdmissionDrop`] ledger is always kept regardless, because
    /// conservation checkers need it.
    pub fn with_event_recording(mut self) -> MulticastVoqSwitch {
        self.record_events = true;
        self
    }

    /// The active finite-buffer configuration.
    pub fn buffers(&self) -> &BufferConfig {
        &self.buffers
    }

    /// Replace the fault scoreboard's quarantine window (builder style).
    ///
    /// Only meaningful under an egress-fault fabric: the scoreboard stays
    /// empty (and the scheduler untouched) until a copy actually fails.
    pub fn with_quarantine_slots(mut self, slots: u64) -> MulticastVoqSwitch {
        self.scoreboard = FaultScoreboard::new(self.ports.len(), slots);
        self
    }

    /// The per-path fault scoreboard learned from observed copy failures.
    pub fn scoreboard(&self) -> &FaultScoreboard {
        &self.scoreboard
    }

    /// Read-only access to an input port's buffering state.
    pub fn port(&self, input: usize) -> &InputPort {
        debug_assert!(input < self.ports.len(), "input port id within the switch size");
        &self.ports[input]
    }

    /// The last slot's matching work ([`ScheduleOutcome::work`]), or
    /// `None` without debug assertions.
    pub fn last_work(&self) -> Option<WorkCounts> {
        cfg!(debug_assertions).then_some(self.sched_out.work)
    }

    /// Verify the cross-cell invariants of every port (tests/debugging).
    pub fn check_invariants(&self) {
        for port in &self.ports {
            port.check_invariants();
        }
    }
}

impl Switch for MulticastVoqSwitch {
    fn name(&self) -> String {
        let cfg = self.scheduler.config();
        let mut name = "FIFOMS".to_string();
        if cfg.single_request {
            name.push_str("(single-request)");
        }
        if let Some(k) = cfg.max_rounds {
            name.push_str(&format!("(rounds<={k})"));
        }
        if let Some(f) = cfg.max_grant_fanout {
            name.push_str(&format!("(fanout<={f})"));
        }
        if self.buffers.is_bounded() {
            let voq = self.buffers.voq_cap.map_or(0, |c| c);
            let agg = self.buffers.input_cap.map_or(0, |c| c);
            name.push_str(&format!(
                "(buf voq={voq} in={agg} {})",
                self.buffers.policy.as_str()
            ));
        }
        name
    }

    fn ports(&self) -> usize {
        self.ports.len()
    }

    fn admit(&mut self, packet: Packet) {
        assert!(
            packet.input.index() < self.ports.len(),
            "packet for input {} on {}-port switch",
            packet.input,
            self.ports.len()
        );
        assert!(
            packet.dests.iter().all(|d| d.index() < self.ports.len()),
            "destination out of range"
        );
        let input = packet.input;
        let slot = packet.arrival;
        let Some(port) = self.ports.get_mut(input.index()) else {
            return; // unreachable: the range assert above proved the bound
        };
        if self.buffers.is_bounded() {
            let outcome = port.admit_bounded(&packet, &self.buffers);
            if !outcome.shed.is_empty() {
                let cause = match self.buffers.policy {
                    AdmissionPolicy::FairShed => DropCause::FairShed,
                    _ => DropCause::TailFull,
                };
                for &output in &outcome.shed {
                    self.admission_drops.push(AdmissionDrop {
                        packet: packet.id,
                        input,
                        output,
                        arrival: slot,
                        slot,
                        cause,
                    });
                }
                if self.record_events {
                    self.events.push(ObsEvent::AdmissionDropped {
                        slot,
                        input,
                        packet: packet.id,
                        copies: outcome.shed.len() as u32,
                        cause,
                    });
                }
            }
            for victim in &outcome.evicted {
                self.admission_drops.push(AdmissionDrop {
                    packet: victim.packet,
                    input,
                    output: victim.output,
                    arrival: victim.arrival,
                    slot,
                    cause: DropCause::Pushout,
                });
                if self.record_events {
                    self.events.push(ObsEvent::AdmissionDropped {
                        slot,
                        input,
                        packet: victim.packet,
                        copies: 1,
                        cause: DropCause::Pushout,
                    });
                }
            }
        } else {
            port.admit(&packet);
        }
        // Soft high-water warnings fire on both paths: unbounded growth
        // must be visible in traces even with admission control disabled.
        let Some(port) = self.ports.get_mut(input.index()) else {
            return;
        };
        for dest in &packet.dests {
            if let Some(depth) = port.voqs_mut().take_high_water(dest) {
                debug_assert!(depth >= crate::buffer::SOFT_HIGH_WATER);
                self.events.push(ObsEvent::VoqHighWater {
                    slot,
                    input,
                    output: dest,
                    depth: depth as u64,
                });
            }
        }
    }

    fn run_slot(&mut self, now: Slot) -> SlotOutcome {
        // --- iterative scheduling (Table 2, request/grant rounds) ---
        // The scoreboard is consulted only once a failure has been
        // observed; with no marks the unfaulted schedule is bit-identical.
        let avoid = if self.scoreboard.is_empty() {
            None
        } else {
            Some((&self.scoreboard, now))
        };
        let spans = self.span_recording.then_some(&mut self.spans);
        self.scheduler
            .schedule_into(&self.ports, avoid, &mut self.rng, &mut self.sched_out, spans);
        let outcome = &self.sched_out;

        // --- data transmission and post-transmission processing ---
        let lap = self.span_recording.then(SpanTimer::start);
        let mut departures = std::mem::take(&mut self.spare_departures);
        departures.clear();
        for (i, grants) in outcome.grants.iter().enumerate() {
            if grants.is_empty() {
                continue;
            }
            debug_assert!(i < self.ports.len(), "grants vector and ports are both sized n");
            let port = &mut self.ports[i];
            // All granted address cells of this input must reference one
            // data cell (they share the smallest time stamp).
            let mut shared_key = None;
            for output in grants {
                let cell = port
                    .voqs_mut()
                    .pop_front(output)
                    // fifoms-lint: allow(R3) INVARIANT: requests are built from HOL cells, so the scheduler only grants non-empty VOQs
                    .expect("granted VOQ had no HOL cell");
                match shared_key {
                    None => shared_key = Some(cell.data),
                    Some(k) => debug_assert_eq!(
                        k, cell.data,
                        "input granted cells of two different packets"
                    ),
                }
                let data = *port.slab().get(cell.data);
                let last_copy = port.slab_mut().serve_destination(cell.data);
                departures.push(Departure {
                    packet: data.packet,
                    arrival: data.arrival,
                    input: fifoms_types::PortId::new(i),
                    output,
                    last_copy,
                });
            }
        }
        if let Some(t) = lap {
            self.spans.push(SpanSample {
                name: "commit",
                ns: t.elapsed_ns(),
            });
        }
        SlotOutcome {
            connections: departures.len(),
            rounds: outcome.rounds,
            departures,
        }
    }

    fn copy_failed(&mut self, d: &Departure, now: Slot, requeue: bool) -> RetryDisposition {
        self.scoreboard.record_failure(d.input, d.output, now);
        if !requeue {
            // Retry budget exhausted: the serve already decremented the
            // fanout counter, so abandoning the copy needs no repair here;
            // the fault layer records the structured drop.
            return RetryDisposition::Dropped;
        }
        debug_assert!(
            d.input.index() < self.ports.len(),
            "departures carry in-range input ports"
        );
        let port = &mut self.ports[d.input.index()];
        // Undo this copy's serve. If sibling copies are still queued the
        // packet's data cell is live — bump its counter back. If this was
        // the last copy the cell was destroyed — reallocate a fanout-1
        // cell with the ORIGINAL arrival so the FIFO weight survives.
        let live = port
            .slab()
            .iter_live()
            .find(|(_, cell)| cell.packet == d.packet)
            .map(|(key, _)| key);
        let key = match live {
            Some(key) => {
                port.slab_mut().restore_destination(key);
                key
            }
            None => port.slab_mut().alloc(d.packet, d.arrival, 1),
        };
        // Head-of-queue re-insertion preserves Theorem 1: the retried cell
        // was this VOQ's HOL, so its stamp is <= every cell behind it.
        port.voqs_mut().push_front(
            d.output,
            AddressCell {
                time_stamp: d.arrival,
                data: key,
            },
        );
        RetryDisposition::Requeued
    }

    fn queue_sizes(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.ports.iter().map(InputPort::held_packets));
    }

    fn backlog(&self) -> Backlog {
        Backlog {
            packets: self.ports.iter().map(InputPort::held_packets).sum(),
            copies: self.ports.iter().map(InputPort::queued_copies).sum(),
        }
    }

    fn drain_events(&mut self, out: &mut Vec<ObsEvent>) {
        out.append(&mut self.events);
    }

    fn drain_admission_drops(&mut self, out: &mut Vec<AdmissionDrop>) {
        out.append(&mut self.admission_drops);
    }

    fn set_span_recording(&mut self, on: bool) {
        self.span_recording = on;
    }

    fn drain_spans(&mut self, out: &mut Vec<SpanSample>) {
        out.append(&mut self.spans);
    }

    fn recycle(&mut self, outcome: SlotOutcome) {
        let mut v = outcome.departures;
        v.clear();
        self.spare_departures = v;
    }

    fn quarantined_paths(&self, now: Slot, out: &mut Vec<(PortId, PortId)>) {
        self.scoreboard.quarantined_paths_into(now, out);
    }

    fn reserve_steady_state(&mut self, copies_per_voq: usize) {
        let n = self.ports.len();
        for port in &mut self.ports {
            port.voqs_mut().reserve(copies_per_voq);
            // Worst case one data cell per queued copy (all-unicast
            // traffic): N queues of `copies_per_voq` copies each.
            port.slab_mut().reserve(n.saturating_mul(copies_per_voq));
        }
        // At most one departure per output per slot.
        self.spare_departures.reserve(n);
    }

    fn save_state(&self) -> Result<Vec<u8>, StateError> {
        Ok(Checkpoint::snapshot_state(self))
    }

    fn load_state(&mut self, blob: &[u8]) -> Result<(), StateError> {
        Checkpoint::restore_state(self, blob)
    }
}

impl Checkpoint for MulticastVoqSwitch {
    fn state_kind(&self) -> &'static str {
        "fifoms-core"
    }

    // Version 1 also carried five crossbar usage counters, which the
    // switch no longer keeps; version 2 also carried pending events.
    fn state_version(&self) -> u16 {
        3
    }

    // Serialised state is exactly the cross-slot mutable fields: per-port
    // slab + VOQs, RNG cursor, scheduler rotation, fault scoreboard, and
    // the undrained admission-drop ledger. `events` is output, not state:
    // the engine hands it on before every checkpoint, and a restore
    // clears it. The scratch buffers (`sched_out`, `spare_departures`,
    // `spans`) hold nothing between slots, and
    // `buffers`/`record_events`/`span_recording` are configuration the
    // caller rebuilds before restoring.
    fn write_state(&self, w: &mut StateWriter) {
        w.put_usize(self.ports.len());
        for port in &self.ports {
            port.slab().write_state(w);
            port.voqs().write_state(w);
        }
        for word in self.rng.state() {
            w.put_u64(word);
        }
        w.put_usize(self.scheduler.rotate());
        self.scoreboard.write_state(w);
        w.put_usize(self.admission_drops.len());
        for drop in &self.admission_drops {
            put_admission_drop(w, drop);
        }
    }

    fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let n = r.get_usize()?;
        if n != self.ports.len() {
            return Err(StateError::Malformed {
                what: format!("switch has {} ports, snapshot has {n}", self.ports.len()),
            });
        }
        for port in &mut self.ports {
            port.slab_mut().read_state(r)?;
            port.voqs_mut().read_state(r)?;
        }
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = r.get_u64()?;
        }
        self.rng = SmallRng::from_state(rng_state);
        let rotate = r.get_usize()?;
        self.scheduler.restore_rotate(rotate);
        self.scoreboard.read_state(r)?;
        let drops = r.get_usize()?;
        self.admission_drops.clear();
        self.admission_drops.reserve(drops);
        for _ in 0..drops {
            self.admission_drops.push(get_admission_drop(r)?);
        }
        self.events.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::oracle;
    use fifoms_types::{PacketId, PortId, PortSet};

    fn pkt(id: u64, arrival: u64, input: u16, dests: &[usize]) -> Packet {
        Packet::new(
            PacketId(id),
            Slot(arrival),
            PortId(input),
            dests.iter().copied().collect::<PortSet>(),
        )
    }

    #[test]
    fn idle_slot() {
        let mut sw = MulticastVoqSwitch::new(4, 0);
        let out = sw.run_slot(Slot(0));
        assert!(out.departures.is_empty());
        assert_eq!(out.rounds, 0);
        assert!(sw.backlog().is_empty());
    }

    #[test]
    fn multicast_delivered_in_one_slot() {
        let mut sw = MulticastVoqSwitch::new(4, 0);
        sw.admit(pkt(1, 0, 0, &[0, 1, 2]));
        let out = sw.run_slot(Slot(0));
        assert_eq!(out.departures.len(), 3);
        assert_eq!(out.completed_packets(), 1);
        assert!(out.departures.iter().all(|d| d.delay(Slot(0)) == 0));
        assert!(sw.backlog().is_empty());
        sw.check_invariants();
    }

    #[test]
    fn fanout_splitting_across_slots() {
        let mut sw = MulticastVoqSwitch::new(4, 0);
        // older unicast from input 1 blocks output 1 in slot 0
        sw.admit(pkt(1, 0, 1, &[1]));
        sw.run_slot(Slot(0)); // not yet: admit multicast in same slot
        let mut sw = MulticastVoqSwitch::new(4, 0);
        sw.admit(pkt(1, 0, 1, &[1]));
        sw.admit(pkt(2, 1, 0, &[0, 1]));
        // slot 1: input 1's cell (stamp 0) wins output 1; input 0 sends to
        // output 0 only (splitting)
        let out = sw.run_slot(Slot(1));
        let delivered: Vec<_> = out
            .departures
            .iter()
            .map(|d| (d.input.index(), d.output.index(), d.last_copy))
            .collect();
        assert!(delivered.contains(&(1, 1, true)));
        assert!(delivered.contains(&(0, 0, false)));
        assert_eq!(sw.backlog().copies, 1); // the residual copy to output 1
        // slot 2: the residue drains
        let out = sw.run_slot(Slot(2));
        assert_eq!(out.departures.len(), 1);
        assert!(out.departures[0].last_copy);
        assert_eq!(out.departures[0].output, PortId(1));
        assert!(sw.backlog().is_empty());
        sw.check_invariants();
    }

    #[test]
    fn conservation_under_random_load() {
        use rand::Rng;
        let mut sw = MulticastVoqSwitch::new(8, 3);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut admitted_copies = 0usize;
        let mut delivered = 0usize;
        let mut id = 0u64;
        for t in 0..200u64 {
            for input in 0..8u16 {
                if rng.gen_bool(0.3) {
                    let fanout = rng.gen_range(1..=4);
                    let mut dests = PortSet::new();
                    while dests.len() < fanout {
                        dests.insert(PortId(rng.gen_range(0..8)));
                    }
                    admitted_copies += dests.len();
                    id += 1;
                    sw.admit(Packet::new(PacketId(id), Slot(t), PortId(input), dests));
                }
            }
            delivered += sw.run_slot(Slot(t)).departures.len();
            sw.check_invariants();
        }
        // drain
        let mut t = 200u64;
        while !sw.backlog().is_empty() {
            delivered += sw.run_slot(Slot(t)).departures.len();
            t += 1;
            assert!(t < 10_000, "switch failed to drain");
        }
        assert_eq!(delivered, admitted_copies);
    }

    #[test]
    fn queue_sizes_report_data_cells() {
        let mut sw = MulticastVoqSwitch::new(4, 0);
        sw.admit(pkt(1, 0, 2, &[0, 1, 3]));
        sw.admit(pkt(2, 0, 3, &[0]));
        let mut q = Vec::new();
        sw.queue_sizes(&mut q);
        assert_eq!(q, vec![0, 0, 1, 1]);
        // Multicast counts once regardless of fanout — the whole point of
        // the separated data cell.
        assert_eq!(sw.backlog().packets, 2);
        assert_eq!(sw.backlog().copies, 4);
    }

    #[test]
    fn starvation_freedom_oldest_packet_departs() {
        // Saturate output 0 from all 4 inputs; the slot-0 packet of input 3
        // must still complete within bounded time (N·k slots), because its
        // stamp eventually becomes globally smallest among HOL cells.
        let mut sw = MulticastVoqSwitch::new(4, 5);
        let mut id = 0u64;
        let mut target_done = false;
        for t in 0..200u64 {
            for input in 0..4u16 {
                id += 1;
                sw.admit(pkt(id, t, input, &[0]));
            }
            let out = sw.run_slot(Slot(t));
            for d in &out.departures {
                if d.arrival == Slot(0) && d.input == PortId(3) {
                    target_done = true;
                }
            }
            if target_done {
                assert!(t <= 8, "slot-0 packet served unreasonably late: {t}");
                return;
            }
        }
        panic!("slot-0 packet starved");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut sw = MulticastVoqSwitch::new(4, seed);
            let mut log = Vec::new();
            for t in 0..20u64 {
                sw.admit(pkt(t * 2 + 1, t, 0, &[0, 1]));
                sw.admit(pkt(t * 2 + 2, t, 1, &[1, 2]));
                let out = sw.run_slot(Slot(t));
                let mut d: Vec<_> = out
                    .departures
                    .iter()
                    .map(|d| (d.packet.raw(), d.output.index()))
                    .collect();
                d.sort_unstable();
                log.push(d);
            }
            log
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    #[should_panic(expected = "destination out of range")]
    fn admit_validates_destinations() {
        let mut sw = MulticastVoqSwitch::new(4, 0);
        sw.admit(pkt(1, 0, 0, &[7]));
    }

    #[test]
    fn copy_failed_requeues_with_original_timestamp() {
        let mut sw = MulticastVoqSwitch::new(4, 0);
        sw.admit(pkt(1, 0, 0, &[1, 2]));
        let out = sw.run_slot(Slot(3));
        assert_eq!(out.departures.len(), 2);
        // Pretend the copy to output 2 died at the crosspoint.
        let failed = out.departures.iter().find(|d| d.output == PortId(2)).unwrap();
        let disp = sw.copy_failed(failed, Slot(3), true);
        assert_eq!(disp, RetryDisposition::Requeued);
        sw.check_invariants();
        assert_eq!(sw.backlog().copies, 1);
        assert!(!sw.scoreboard().is_empty());
        assert!(sw
            .scoreboard()
            .is_quarantined(PortId(0), PortId(2), Slot(4)));
        // Once the quarantine mark expires, redelivery carries the original
        // arrival stamp and closes out the packet.
        let probe = Slot(3 + DEFAULT_QUARANTINE_SLOTS);
        let out = sw.run_slot(probe);
        assert_eq!(out.departures.len(), 1);
        let d = &out.departures[0];
        assert_eq!((d.output, d.arrival, d.last_copy), (PortId(2), Slot(0), true));
        assert!(sw.backlog().is_empty());
        sw.check_invariants();
    }

    #[test]
    fn copy_failed_reallocates_a_destroyed_cell() {
        // Unicast: the departure was last_copy, so the data cell is gone
        // and the requeue must rebuild a fanout-1 cell.
        let mut sw = MulticastVoqSwitch::new(4, 0).with_quarantine_slots(2);
        sw.admit(pkt(7, 1, 2, &[3]));
        let out = sw.run_slot(Slot(1));
        assert!(out.departures[0].last_copy);
        assert_eq!(sw.copy_failed(&out.departures[0], Slot(1), true), RetryDisposition::Requeued);
        sw.check_invariants();
        assert_eq!(sw.backlog(), Backlog { packets: 1, copies: 1 });
        // Quarantined: the path is skipped, no departure.
        assert!(sw.run_slot(Slot(2)).departures.is_empty());
        // Mark expired: re-probe succeeds with the original stamp.
        let out = sw.run_slot(Slot(3));
        assert_eq!(out.departures.len(), 1);
        assert_eq!(out.departures[0].arrival, Slot(1));
        assert!(out.departures[0].last_copy);
        assert!(sw.backlog().is_empty());
    }

    #[test]
    fn copy_failed_without_requeue_records_only_the_scoreboard_mark() {
        let mut sw = MulticastVoqSwitch::new(4, 0);
        sw.admit(pkt(1, 0, 0, &[1]));
        let out = sw.run_slot(Slot(0));
        assert_eq!(sw.copy_failed(&out.departures[0], Slot(0), false), RetryDisposition::Dropped);
        // The copy is abandoned: no backlog, but the path is marked dead.
        assert!(sw.backlog().is_empty());
        assert!(sw.scoreboard().is_quarantined(PortId(0), PortId(1), Slot(1)));
        sw.check_invariants();
    }

    #[test]
    fn quarantine_diverts_traffic_to_live_paths() {
        let mut sw = MulticastVoqSwitch::new(4, 0);
        sw.admit(pkt(1, 0, 0, &[1]));
        let out = sw.run_slot(Slot(0));
        sw.copy_failed(&out.departures[0], Slot(0), true);
        // While (0 -> 1) is quarantined, a younger cell for a live output
        // is served instead of the stuck retry.
        sw.admit(pkt(2, 1, 0, &[2]));
        let out = sw.run_slot(Slot(1));
        assert_eq!(out.departures.len(), 1);
        assert_eq!(out.departures[0].output, PortId(2));
        assert_eq!(sw.backlog().copies, 1);
        sw.check_invariants();
    }

    #[test]
    fn unbounded_buffer_config_is_bit_identical_to_baseline() {
        // The default BufferConfig must route admission through the exact
        // unbounded path: schedules, stamps and RNG draws all unchanged.
        let run = |sw: &mut MulticastVoqSwitch| {
            let mut log = Vec::new();
            for t in 0..50u64 {
                sw.admit(pkt(t * 2 + 1, t, (t % 4) as u16, &[0, 1, 2]));
                sw.admit(pkt(t * 2 + 2, t, ((t + 1) % 4) as u16, &[1, 3]));
                let out = sw.run_slot(Slot(t));
                let mut d: Vec<_> = out
                    .departures
                    .iter()
                    .map(|d| (d.packet.raw(), d.output.index(), d.last_copy))
                    .collect();
                d.sort_unstable();
                log.push(d);
            }
            log
        };
        let mut base = MulticastVoqSwitch::new(4, 9);
        let mut buffered = MulticastVoqSwitch::new(4, 9)
            .with_buffers(crate::BufferConfig::unbounded())
            .with_event_recording();
        assert_eq!(run(&mut base), run(&mut buffered));
        let mut drops = Vec::new();
        buffered.drain_admission_drops(&mut drops);
        assert!(drops.is_empty());
        assert_eq!(base.name(), "FIFOMS");
        assert_eq!(buffered.name(), "FIFOMS");
    }

    #[test]
    fn finite_buffers_conserve_copies_through_the_drop_ledger() {
        // Saturate one input far beyond its aggregate cap and verify
        // admitted == delivered + backlog + admission drops at all times.
        let cfg = crate::BufferConfig::bounded(4, 8);
        let mut sw = MulticastVoqSwitch::new(4, 1).with_buffers(cfg);
        let mut admitted = 0u64;
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        let mut drops = Vec::new();
        let mut id = 0;
        for t in 0..100u64 {
            for _ in 0..3 {
                id += 1;
                sw.admit(pkt(id, t, 0, &[0, 1, 2, 3]));
                admitted += 4;
            }
            delivered += sw.run_slot(Slot(t)).departures.len() as u64;
            drops.clear();
            sw.drain_admission_drops(&mut drops);
            dropped += drops.len() as u64;
            sw.check_invariants();
            let backlog = sw.backlog().copies as u64;
            assert!(backlog <= cfg.max_copies(4).unwrap());
            assert_eq!(admitted, delivered + backlog + dropped);
        }
        assert!(dropped > 0, "overload must actually shed copies");
        assert_eq!(
            sw.name(),
            "FIFOMS(buf voq=4 in=8 drop_tail)",
            "bounded switches must advertise their limits"
        );
    }

    #[test]
    fn admission_events_record_sheds_and_pushouts() {
        let cfg = crate::BufferConfig {
            voq_cap: None,
            input_cap: Some(2),
            policy: crate::AdmissionPolicy::Pushout,
        };
        let mut sw = MulticastVoqSwitch::new(4, 1)
            .with_buffers(cfg)
            .with_event_recording();
        sw.admit(pkt(1, 0, 0, &[1]));
        sw.admit(pkt(2, 0, 0, &[1]));
        // Queue 1 is the longest; an arrival for queue 2 evicts its tail.
        sw.admit(pkt(3, 0, 0, &[2]));
        let mut events = Vec::new();
        sw.drain_events(&mut events);
        let kinds: Vec<_> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, vec!["admission_dropped"]);
        match &events[0] {
            fifoms_types::ObsEvent::AdmissionDropped {
                packet,
                copies,
                cause,
                ..
            } => {
                assert_eq!(*packet, PacketId(2));
                assert_eq!(*copies, 1);
                assert_eq!(*cause, DropCause::Pushout);
            }
            other => panic!("unexpected event {other:?}"),
        }
        let mut drops = Vec::new();
        sw.drain_admission_drops(&mut drops);
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].cause, fifoms_types::DropCause::Pushout);
        assert_eq!(drops[0].packet, PacketId(2));
        assert_eq!(drops[0].arrival, Slot(0));
    }

    #[test]
    fn soft_high_water_warning_fires_without_finite_buffers() {
        let mut sw = MulticastVoqSwitch::new(4, 1);
        for i in 0..crate::buffer::SOFT_HIGH_WATER as u64 {
            sw.admit(pkt(i + 1, i, 0, &[2]));
        }
        let mut events = Vec::new();
        sw.drain_events(&mut events);
        assert_eq!(events.len(), 1, "one latched crossing per queue per run");
        match &events[0] {
            fifoms_types::ObsEvent::VoqHighWater {
                input,
                output,
                depth,
                ..
            } => {
                assert_eq!((*input, *output), (PortId(0), PortId(2)));
                assert_eq!(*depth, crate::buffer::SOFT_HIGH_WATER as u64);
            }
            other => panic!("unexpected event {other:?}"),
        }
        // Further growth does not re-fire the latch.
        sw.admit(pkt(9999, 2000, 0, &[2]));
        events.clear();
        sw.drain_events(&mut events);
        assert!(events.is_empty());
    }

    #[test]
    fn span_recording_reports_scheduling_sub_phases() {
        let mut sw = MulticastVoqSwitch::new(4, 0);
        sw.admit(pkt(1, 0, 0, &[0, 1, 2]));
        // Off by default: no samples.
        sw.run_slot(Slot(0));
        let mut spans = Vec::new();
        sw.drain_spans(&mut spans);
        assert!(spans.is_empty());
        // On: one sample per sub-phase, drained oldest-first.
        sw.admit(pkt(2, 1, 1, &[2, 3]));
        sw.set_span_recording(true);
        let out = sw.run_slot(Slot(1));
        sw.drain_spans(&mut spans);
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["voq_scan", "request", "grant", "commit"]);
        // The buffer is handed over: a second drain yields nothing.
        let before = spans.len();
        sw.drain_spans(&mut spans);
        assert_eq!(spans.len(), before);
        sw.recycle(out);
        sw.set_span_recording(false);
        let out = sw.run_slot(Slot(2));
        spans.clear();
        sw.drain_spans(&mut spans);
        assert!(spans.is_empty(), "disabling stops sample production");
        sw.recycle(out);
    }

    #[test]
    fn span_recording_is_bit_identical_to_baseline() {
        // Timing reads clocks but must not consume RNG draws or reorder
        // arbitration: the departure log matches an untimed twin exactly.
        let run = |record: bool| {
            let mut sw = MulticastVoqSwitch::new(4, 9);
            sw.set_span_recording(record);
            let mut log = Vec::new();
            for t in 0..50u64 {
                sw.admit(pkt(t * 2 + 1, t, (t % 4) as u16, &[0, 1, 2]));
                sw.admit(pkt(t * 2 + 2, t, ((t + 1) % 4) as u16, &[1, 3]));
                let out = sw.run_slot(Slot(t));
                let mut d: Vec<_> = out
                    .departures
                    .iter()
                    .map(|d| (d.packet.raw(), d.output.index(), d.last_copy))
                    .collect();
                d.sort_unstable();
                log.push(d);
                let mut spans = Vec::new();
                sw.drain_spans(&mut spans);
                assert_eq!(spans.is_empty(), !record);
            }
            log
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn empty_scoreboard_is_bit_identical_to_baseline() {
        // Constructing with a different quarantine window must not perturb
        // scheduling when no failure was ever recorded.
        let run = |sw: &mut MulticastVoqSwitch| {
            let mut log = Vec::new();
            for t in 0..50u64 {
                sw.admit(pkt(t * 2 + 1, t, (t % 4) as u16, &[0, 1]));
                sw.admit(pkt(t * 2 + 2, t, ((t + 1) % 4) as u16, &[1, 3]));
                let out = sw.run_slot(Slot(t));
                let mut d: Vec<_> = out
                    .departures
                    .iter()
                    .map(|d| (d.packet.raw(), d.output.index(), d.last_copy))
                    .collect();
                d.sort_unstable();
                log.push(d);
            }
            log
        };
        let mut base = MulticastVoqSwitch::new(4, 9);
        let mut tuned = MulticastVoqSwitch::new(4, 9).with_quarantine_slots(1);
        assert_eq!(run(&mut base), run(&mut tuned));
    }

    /// Drive a switch under mixed load for `slots` starting at `from`,
    /// returning a canonical log of departures per slot.
    fn drive(sw: &mut MulticastVoqSwitch, from: u64, slots: u64) -> Vec<Vec<(u64, usize, bool)>> {
        let mut log = Vec::new();
        for t in from..from + slots {
            if t % 3 != 2 {
                sw.admit(pkt(t * 2 + 1, t, (t % 4) as u16, &[0, 2, 3]));
            }
            if t % 2 == 0 {
                sw.admit(pkt(t * 2 + 2, t, ((t + 1) % 4) as u16, &[1]));
            }
            let out = sw.run_slot(Slot(t));
            let mut d: Vec<_> = out
                .departures
                .iter()
                .map(|d| (d.packet.raw(), d.output.index(), d.last_copy))
                .collect();
            d.sort_unstable();
            log.push(d);
        }
        log
    }

    #[test]
    fn checkpoint_round_trip_is_bit_identical() {
        // Run 40 slots, snapshot, then continue the original and a twin
        // restored into a *fresh* switch: every subsequent departure must
        // match exactly (RNG cursor, rotation, stamps all preserved).
        let mut original = MulticastVoqSwitch::new(4, 7).with_event_recording();
        let _ = drive(&mut original, 0, 40);
        let blob = original.snapshot_state();

        // Twin gets a different seed on purpose: the restored RNG state
        // must fully override it.
        let mut twin = MulticastVoqSwitch::new(4, 999).with_event_recording();
        twin.restore_state(&blob).unwrap();

        twin.check_invariants();
        assert_eq!(twin.backlog(), original.backlog());
        assert_eq!(drive(&mut original, 40, 60), drive(&mut twin, 40, 60));
        // After identical continuation, re-snapshotting both yields
        // identical bytes.
        assert_eq!(original.snapshot_state(), twin.snapshot_state());
    }

    /// Run one slot and check its schedule against the Table 2 oracle run
    /// on the same queue state, rotation, scoreboard and RNG.
    fn run_slot_against_oracle(sw: &mut MulticastVoqSwitch, now: Slot) -> SlotOutcome {
        let avoid = (!sw.scoreboard.is_empty()).then_some((&sw.scoreboard, now));
        let mut rng = sw.rng.clone();
        let config = sw.scheduler.config();
        let want = oracle::table2(&config, sw.scheduler.rotate(), &sw.ports, avoid, &mut rng);
        let out = sw.run_slot(now);
        assert_eq!(sw.sched_out.grants, want.grants, "grants at {now}");
        assert_eq!(sw.sched_out.rounds, want.rounds, "rounds at {now}");
        assert_eq!(sw.rng.state(), rng.state(), "rng at {now}");
        sw.check_invariants();
        out
    }

    #[test]
    fn fast_path_matches_table2_oracle_across_slots() {
        // Multi-slot differential through the switch: overloaded random
        // multicast, unbounded and pushout admission, egress faults that
        // requeue or drop copies (so the scoreboard is consulted), and a
        // checkpoint restore into a fresh switch halfway.
        use crate::{AdmissionPolicy, BufferConfig, TieBreak};
        use rand::Rng;
        let configs = [
            FifomsConfig::default(),
            FifomsConfig {
                tie_break: TieBreak::Rotating,
                max_grant_fanout: Some(2),
                ..FifomsConfig::default()
            },
            FifomsConfig {
                tie_break: TieBreak::LowestInput,
                max_rounds: Some(1),
                single_request: true,
                ..FifomsConfig::default()
            },
        ];
        let pushout = BufferConfig {
            voq_cap: Some(6),
            input_cap: Some(20),
            policy: AdmissionPolicy::Pushout,
        };
        let n = 12;
        for (c, config) in configs.into_iter().enumerate() {
            for buffers in [BufferConfig::unbounded(), pushout] {
                let build = |seed| {
                    MulticastVoqSwitch::with_config(n, seed, config)
                        .with_buffers(buffers)
                        .with_quarantine_slots(3)
                };
                let mut sw = build(5);
                let mut r = SmallRng::seed_from_u64(c as u64);
                let (mut id, mut requeued, mut dropped) = (0u64, 0, 0);
                for t in 0..400u64 {
                    for input in 0..n {
                        if r.gen_bool(0.5) {
                            let mut dests = PortSet::new();
                            for _ in 0..r.gen_range(1..=4u32) {
                                dests.insert(PortId::new(r.gen_range(0..n)));
                            }
                            id += 1;
                            sw.admit(Packet::new(
                                PacketId(id),
                                Slot(t),
                                PortId::new(input),
                                dests,
                            ));
                        }
                    }
                    let out = run_slot_against_oracle(&mut sw, Slot(t));
                    for d in &out.departures {
                        if r.gen_range(0..8u32) == 0 {
                            match sw.copy_failed(d, Slot(t), r.gen_bool(0.5)) {
                                RetryDisposition::Requeued => requeued += 1,
                                RetryDisposition::Dropped => dropped += 1,
                                other => panic!("unexpected disposition {other:?}"),
                            }
                        }
                    }
                    sw.recycle(out);
                    if t == 200 {
                        let mut twin = build(999);
                        twin.restore_state(&sw.snapshot_state()).unwrap();
                        sw = twin;
                    }
                }
                assert!(
                    requeued > 0 && dropped > 0,
                    "faults must exercise both dispositions"
                );
                let mut drops = Vec::new();
                sw.drain_admission_drops(&mut drops);
                assert_eq!(drops.is_empty(), !buffers.is_bounded());
            }
        }
    }

    #[test]
    fn checkpoint_restore_rejects_port_mismatch() {
        let mut sw = MulticastVoqSwitch::new(4, 1);
        let blob = sw.snapshot_state();
        let mut other = MulticastVoqSwitch::new(8, 1);
        assert!(matches!(
            other.restore_state(&blob),
            Err(fifoms_types::StateError::Malformed { .. })
        ));
        // Same-shape restore still works.
        sw.restore_state(&blob).unwrap();
    }

    #[test]
    fn checkpoint_of_version_1_or_2_is_refused() {
        // A version-1 blob carries five more counters after the rotation
        // cursor, and a version-2 blob a pending-event list at the end;
        // reading either as version 3 would misread it, so the version
        // check must refuse both before any read.
        let mut sw = MulticastVoqSwitch::new(4, 1);
        sw.admit(pkt(1, 0, 0, &[1, 2]));
        let mut w = StateWriter::new();
        sw.write_state(&mut w);
        let payload = w.into_bytes();
        let mut fresh = MulticastVoqSwitch::new(4, 1);
        for version in [1, 2] {
            let old = fifoms_types::frame_state("fifoms-core", version, &payload);
            assert!(matches!(
                fresh.restore_state(&old),
                Err(StateError::VersionUnsupported { got, .. }) if got == version
            ));
        }
        // The same payload under the current version restores.
        let current = fifoms_types::frame_state("fifoms-core", 3, &payload);
        fresh.restore_state(&current).unwrap();
        assert_eq!(fresh.backlog(), sw.backlog());
    }

    #[test]
    #[should_panic(expected = "switch needs at least one port")]
    fn zero_port_switch_rejected() {
        let _ = MulticastVoqSwitch::new(0, 0);
    }

    #[test]
    fn departures_are_the_slots_grant_sets() {
        // Under random multicast load at N = 8 and past one PortSet word
        // (N = 70), each slot's departures are exactly the grant sets as
        // (input, output) pairs: one departure per granted output, no
        // output driven twice, and one packet per input.
        use rand::Rng;
        for n in [8usize, 70] {
            let mut sw = MulticastVoqSwitch::new(n, 11);
            let mut rng = SmallRng::seed_from_u64(n as u64);
            let mut id = 0u64;
            for t in 0..300u64 {
                for input in 0..n {
                    if rng.gen_bool(0.4) {
                        let mut dests = PortSet::new();
                        for _ in 0..rng.gen_range(1..=4u32) {
                            dests.insert(PortId::new(rng.gen_range(0..n)));
                        }
                        id += 1;
                        sw.admit(Packet::new(
                            PacketId(id),
                            Slot(t),
                            PortId::new(input),
                            dests,
                        ));
                    }
                }
                let out = sw.run_slot(Slot(t));
                assert_eq!(out.connections, out.departures.len());
                let mut sent = vec![PortSet::new(); n];
                let mut packet = vec![None; n];
                let mut driven = PortSet::new();
                for d in &out.departures {
                    assert!(
                        driven.insert(d.output),
                        "output {} driven twice at t{t}",
                        d.output
                    );
                    sent[d.input.index()].insert(d.output);
                    let first = *packet[d.input.index()].get_or_insert(d.packet);
                    assert_eq!(
                        first, d.packet,
                        "input {} sent two packets at t{t}",
                        d.input
                    );
                }
                assert_eq!(sent, sw.sched_out.grants, "departures vs grants at t{t}");
                sw.recycle(out);
            }
            sw.check_invariants();
        }
    }

    #[test]
    fn quickstart_scenario_sets_eleven_crosspoints_over_five_slots() {
        // The quickstart example's run (the Fig. 2 queue of input 0 plus
        // contention from input 1), counted from the departures as the
        // example counts them: one crosspoint per departure, and a
        // multicast slot when some input drove more than one output.
        let mut sw = MulticastVoqSwitch::new(4, 42);
        let packets: [(u64, u64, u16, &[usize]); 6] = [
            (1, 1, 0, &[0, 1, 2]),
            (2, 3, 0, &[2, 3]),
            (3, 4, 0, &[0, 3]),
            (4, 7, 0, &[1]),
            (5, 2, 1, &[2]),
            (6, 5, 1, &[0, 1]),
        ];
        for (id, arrival, input, dests) in packets {
            sw.admit(pkt(id, arrival, input, dests));
        }
        let (mut crosspoints, mut slots, mut multicast_slots) = (0, 0, 0);
        let mut now = Slot(8);
        while !sw.backlog().is_empty() {
            let out = sw.run_slot(now);
            let drivers: PortSet = out.departures.iter().map(|d| d.input).collect();
            crosspoints += out.departures.len();
            slots += 1;
            if drivers.len() < out.departures.len() {
                multicast_slots += 1;
            }
            now = now.next();
        }
        assert_eq!(now, Slot(13));
        assert_eq!((crosspoints, slots, multicast_slots), (11, 5, 3));
    }

    #[test]
    fn recycled_departures_carry_nothing_into_the_next_slot() {
        let mut sw = MulticastVoqSwitch::new(4, 0);
        sw.admit(pkt(1, 0, 0, &[0, 1, 2, 3]));
        let out = sw.run_slot(Slot(0));
        assert_eq!(out.departures.len(), 4);
        sw.recycle(out);
        sw.admit(pkt(2, 1, 1, &[2]));
        let out = sw.run_slot(Slot(1));
        assert_eq!(out.connections, 1);
        assert_eq!(out.departures.len(), 1);
        assert_eq!(
            (out.departures[0].packet, out.departures[0].input),
            (PacketId(2), PortId(1))
        );
        sw.recycle(out);
        let out = sw.run_slot(Slot(2));
        assert!(out.departures.is_empty());
        assert_eq!(out.connections, 0);
    }

    #[test]
    fn checkpoint_carries_undrained_ledgers() {
        use crate::buffer::BufferConfig;
        // Overload a tiny finite buffer so admission drops accumulate,
        // then verify the ledger survives the round trip without being
        // drained. Pending events are output, not state: the restored
        // twin holds none, and a restore clears those a switch held.
        let build = || {
            MulticastVoqSwitch::new(2, 3)
                .with_buffers(BufferConfig::bounded(2, 0))
                .with_event_recording()
        };
        let overloaded = || {
            let mut sw = build();
            for t in 0..30u64 {
                sw.admit(pkt(t * 2 + 1, t, (t % 2) as u16, &[0, 1]));
                sw.admit(pkt(t * 2 + 2, t, ((t + 1) % 2) as u16, &[0, 1]));
                let out = sw.run_slot(Slot(t));
                sw.recycle(out);
            }
            sw
        };
        let mut sw = overloaded();
        let blob = sw.snapshot_state();
        let mut twin = build();
        twin.restore_state(&blob).unwrap();

        let (mut a, mut b) = (Vec::new(), Vec::new());
        sw.drain_admission_drops(&mut a);
        twin.drain_admission_drops(&mut b);
        assert!(!a.is_empty(), "overloaded run should have dropped copies");
        assert_eq!(a, b);

        let mut again = overloaded();
        again.restore_state(&blob).unwrap();
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        sw.drain_events(&mut ea);
        assert!(!ea.is_empty(), "recorded drops should be pending as events");
        for restored in [&mut twin, &mut again] {
            restored.drain_events(&mut eb);
            assert!(
                eb.is_empty(),
                "restored switch holds pending events: {eb:?}"
            );
        }
    }
}
