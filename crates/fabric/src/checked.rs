//! Runtime invariant validation: a transparent [`Switch`] wrapper that
//! cross-checks every slot a scheduler produces against the fabric's
//! structural rules.
//!
//! [`CheckedSwitch`] shadows the inner switch's queue state with its own
//! per-packet residual-fanout ledger and verifies, per slot:
//!
//! 1. **Output exclusivity** — each output is granted to at most one input
//!    (the crossbar can deliver one cell per output per slot);
//! 2. **Fanout membership** — every departed copy targets an output that
//!    is still in the packet's residual fanout set (never an output the
//!    packet did not request, never one already served);
//! 3. **Counter discipline** — fanout counters decrement exactly by the
//!    served copies, and `last_copy` is flagged on precisely the departure
//!    that clears the counter;
//! 4. **Cell conservation** — admitted copies equal delivered copies plus
//!    reconciled drops plus the backlog the switch reports (checked every
//!    `check_every` slots, since it requires no per-departure context).
//!
//! Egress faults are accounted through the same ledger: a
//! [`DroppedCopy`] drained from the wrapped switch marks its output
//! served-by-drop (subject to the same fanout-membership and overrun
//! checks as a delivery), and a requeued retransmission
//! ([`Switch::copy_failed`] returning
//! [`RetryDisposition::Requeued`](fifoms_types::RetryDisposition))
//! un-serves the ledger so the copy is expected again.
//!
//! Violations are *sticky*: the first one is recorded as a structured
//! [`InvariantViolation`] and can be inspected with
//! [`CheckedSwitch::violation`] once the run completes. The wrapper never
//! panics — fault-isolated sweep cells turn a recorded violation into a
//! structured failed-cell outcome instead of tearing down the grid.

use std::collections::HashMap;

use fifoms_types::{
    get_admission_drop, get_dropped_copy, get_violation, put_admission_drop, put_dropped_copy,
    put_violation, AdmissionDrop, Checkpoint, Departure, DroppedCopy, InvariantViolation, ObsEvent,
    Packet, PacketId, PortId, PortSet, RetryDisposition, Slot, SlotOutcome, SpanSample, StateError,
    StateReader, StateWriter,
};

use crate::switch::{frame_stack, unframe_stack, Backlog, Switch};

/// Residual state of one in-flight packet.
#[derive(Clone, Debug)]
struct Tracked {
    /// The full destination set the packet was admitted with.
    requested: PortSet,
    /// Outputs already served.
    served: PortSet,
}

/// A [`Switch`] wrapper validating scheduler output against the fabric's
/// structural invariants (see the module docs for the list).
///
/// The wrapper is metrically transparent: `name`, `ports`, `queue_sizes`
/// and `backlog` delegate unchanged, so wrapped and unwrapped runs report
/// identical statistics.
#[derive(Debug)]
pub struct CheckedSwitch<S> {
    inner: S,
    check_every: u64,
    in_flight: HashMap<PacketId, Tracked>,
    admitted_copies: u64,
    delivered_copies: u64,
    /// Copies abandoned by the egress-fault path, accounted in the
    /// ledger as served-by-drop.
    reconciled_copies: u64,
    /// Accounted drops buffered for re-emission to outer drainers.
    drops: Vec<DroppedCopy>,
    /// Copies refused or evicted by finite-buffer admission control,
    /// accounted in the ledger as served-by-admission-drop.
    admission_dropped_copies: u64,
    /// Accounted admission drops buffered for re-emission.
    admission_drops: Vec<AdmissionDrop>,
    /// Declared whole-switch capacity in copies; a reported backlog above
    /// it is an invariant violation (`None` = unbounded, never checked).
    capacity: Option<u64>,
    slots_checked: u64,
    violation: Option<InvariantViolation>,
    /// Whether the sticky violation has already been surfaced through
    /// `drain_events` (so it is reported exactly once per run).
    violation_reported: bool,
}

impl<S: Switch> CheckedSwitch<S> {
    /// Wrap `inner`, checking conservation every slot.
    pub fn new(inner: S) -> CheckedSwitch<S> {
        CheckedSwitch::with_check_every(inner, 1)
    }

    /// Wrap `inner`, checking conservation every `check_every` slots
    /// (structural per-departure checks always run; `0` is treated as 1).
    pub fn with_check_every(inner: S, check_every: u64) -> CheckedSwitch<S> {
        CheckedSwitch {
            inner,
            check_every: check_every.max(1),
            in_flight: HashMap::new(),
            admitted_copies: 0,
            delivered_copies: 0,
            reconciled_copies: 0,
            drops: Vec::new(),
            admission_dropped_copies: 0,
            admission_drops: Vec::new(),
            capacity: None,
            slots_checked: 0,
            violation: None,
            violation_reported: false,
        }
    }

    /// Declare the wrapped switch's finite-buffer capacity in copies
    /// (builder style): whenever conservation is checked, a reported
    /// backlog above `capacity` records
    /// [`InvariantViolation::CapacityExceeded`].
    pub fn with_capacity(mut self, capacity: u64) -> CheckedSwitch<S> {
        self.capacity = Some(capacity);
        self
    }

    /// The first invariant violation observed, if any.
    pub fn violation(&self) -> Option<&InvariantViolation> {
        self.violation.as_ref()
    }

    /// Copies the egress-fault path abandoned and reconciled so far.
    pub fn reconciled_copies(&self) -> u64 {
        self.reconciled_copies
    }

    /// Copies delivered (visible departures accepted by the ledger).
    pub fn delivered_copies(&self) -> u64 {
        self.delivered_copies
    }

    /// Copies refused or evicted by finite-buffer admission control.
    pub fn admission_dropped_copies(&self) -> u64 {
        self.admission_dropped_copies
    }

    /// Copies admitted (post any ingress masking above this wrapper).
    pub fn admitted_copies(&self) -> u64 {
        self.admitted_copies
    }

    /// Consume the wrapper, yielding `Ok(inner)` if the run was clean.
    pub fn into_result(self) -> Result<S, InvariantViolation> {
        match self.violation {
            None => Ok(self.inner),
            Some(v) => Err(v),
        }
    }

    /// Shared access to the wrapped switch.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn record(&mut self, violation: InvariantViolation) {
        // Sticky: keep the first violation, which localises the root cause;
        // later ones are usually knock-on effects of the same bug.
        self.violation.get_or_insert(violation);
    }

    /// Resolve `output` of `packet`, by a delivery or by a drop, in the
    /// residual-fanout ledger: the output must be in the packet's residual
    /// fanout and not yet served. Returns the copies the packet still has
    /// outstanding, or `None` after recording the violation. A packet
    /// with none outstanding is retired — by a drop, without any flagged
    /// departure.
    fn resolve_copy(
        &mut self,
        slot: Slot,
        input: PortId,
        output: PortId,
        packet: PacketId,
    ) -> Option<usize> {
        match self.in_flight.get_mut(&packet) {
            Some(entry) if entry.requested.contains(output) => {
                if entry.served.insert(output) {
                    let remaining = entry.requested.len() - entry.served.len();
                    if remaining == 0 {
                        self.in_flight.remove(&packet);
                    }
                    return Some(remaining);
                }
                // Requested output, but served twice: the fanout counter
                // would decrement past its target.
                let violation = InvariantViolation::FanoutOverrun {
                    slot,
                    packet,
                    fanout: entry.requested.len(),
                    delivered: entry.served.len() + 1,
                };
                self.record(violation);
            }
            // An unknown or already-completed packet has an empty residual
            // fanout, so this copy, like one to an unrequested output, is
            // out of fanout.
            _ => self.record(InvariantViolation::GrantOutsideFanout {
                slot,
                input,
                output,
                packet,
            }),
        }
        None
    }

    /// Drain the wrapped switch's reconciled drops straight into `drops`
    /// (buffered for outer drainers) and resolve each one, counting the
    /// accepted ones toward `reconciled_copies`.
    fn absorb_inner_drops(&mut self) {
        let mut drops = std::mem::take(&mut self.drops);
        let seen = drops.len();
        self.inner.drain_reconciled_drops(&mut drops);
        for d in drops.iter().skip(seen) {
            if self
                .resolve_copy(d.slot, d.input, d.output, d.packet)
                .is_some()
            {
                self.reconciled_copies += 1;
            }
        }
        self.drops = drops;
    }

    /// Drain the wrapped switch's admission-control drops straight into
    /// `admission_drops` and resolve each one, counting the accepted ones
    /// toward `admission_dropped_copies`: a packet whose copies all
    /// resolve by admission drop completes without ever occupying a
    /// buffer.
    fn absorb_admission_drops(&mut self) {
        let mut drops = std::mem::take(&mut self.admission_drops);
        let seen = drops.len();
        self.inner.drain_admission_drops(&mut drops);
        for d in drops.iter().skip(seen) {
            if self
                .resolve_copy(d.slot, d.input, d.output, d.packet)
                .is_some()
            {
                self.admission_dropped_copies += 1;
            }
        }
        self.admission_drops = drops;
    }

    fn check_outcome(&mut self, now: Slot, outcome: &SlotOutcome) {
        let mut granted = PortSet::new();
        for (i, d) in outcome.departures.iter().enumerate() {
            if !granted.insert(d.output) {
                // A second grant of this output: find the input that had
                // it first among the earlier departures.
                let first = outcome
                    .departures
                    .iter()
                    .take(i)
                    .find(|e| e.output == d.output);
                if let Some(first) = first.filter(|e| e.input != d.input) {
                    self.record(InvariantViolation::DuplicateGrant {
                        slot: now,
                        output: d.output,
                        first_input: first.input,
                        second_input: d.input,
                    });
                }
            }

            if let Some(remaining) = self.resolve_copy(now, d.input, d.output, d.packet) {
                self.delivered_copies += 1;
                if d.last_copy != (remaining == 0) {
                    self.record(InvariantViolation::LastCopyMismatch {
                        slot: now,
                        packet: d.packet,
                        remaining,
                        flagged_last: d.last_copy,
                    });
                }
            }
        }

        self.slots_checked += 1;
        if self.slots_checked.is_multiple_of(self.check_every) {
            let backlog = self.inner.backlog().copies as u64;
            // The full law: admitted == delivered + backlog + reconciled
            // drops + admission drops. With no egress faults and unbounded
            // buffers both drop terms are 0 and this is the original check.
            let resolved =
                self.delivered_copies + self.reconciled_copies + self.admission_dropped_copies;
            if self.admitted_copies != resolved + backlog {
                self.record(InvariantViolation::ConservationMismatch {
                    slot: now,
                    admitted_copies: self.admitted_copies,
                    delivered_copies: resolved,
                    backlog_copies: backlog,
                });
            }
            if let Some(capacity) = self.capacity {
                if backlog > capacity {
                    self.record(InvariantViolation::CapacityExceeded {
                        slot: now,
                        backlog_copies: backlog,
                        capacity,
                    });
                }
            }
        }
    }
}

impl<S: Switch> Switch for CheckedSwitch<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn ports(&self) -> usize {
        self.inner.ports()
    }

    fn admit(&mut self, packet: Packet) {
        self.admitted_copies += packet.fanout() as u64;
        self.in_flight.insert(
            packet.id,
            Tracked {
                requested: packet.dests.clone(),
                served: PortSet::new(),
            },
        );
        self.inner.admit(packet);
    }

    fn run_slot(&mut self, now: Slot) -> SlotOutcome {
        // Admission drops recorded during this slot's admit phase must be
        // in the ledger before conservation runs, or the shed copies would
        // be counted as missing.
        self.absorb_admission_drops();
        let outcome = self.inner.run_slot(now);
        // Drops must be accounted before departures: when a packet's
        // flagged copy resolves by drop, the fault layer promotes its
        // final surviving departure to `last_copy`, and the ledger only
        // agrees once the dropped output is marked served.
        self.absorb_inner_drops();
        self.check_outcome(now, &outcome);
        outcome
    }

    fn queue_sizes(&self, out: &mut Vec<usize>) {
        self.inner.queue_sizes(out)
    }

    fn backlog(&self) -> Backlog {
        self.inner.backlog()
    }

    fn drain_events(&mut self, out: &mut Vec<ObsEvent>) {
        if let (false, Some(v)) = (self.violation_reported, &self.violation) {
            out.push(ObsEvent::InvariantViolated {
                slot: v.slot(),
                detail: v.to_string(),
            });
            self.violation_reported = true;
        }
        self.inner.drain_events(out);
    }

    fn end_of_run(&mut self) {
        self.inner.end_of_run();
    }

    fn copy_failed(&mut self, d: &Departure, now: Slot, requeue: bool) -> RetryDisposition {
        let disposition = self.inner.copy_failed(d, now, requeue);
        if disposition == RetryDisposition::Requeued {
            // The copy this wrapper counted as delivered is back in the
            // queue: un-serve the ledger so it is expected again (and so
            // conservation sees it in the backlog, not the delivered
            // count).
            match self.in_flight.get_mut(&d.packet) {
                Some(entry) => {
                    if entry.served.remove(d.output) {
                        self.delivered_copies = self.delivered_copies.saturating_sub(1);
                    }
                }
                None => {
                    // The packet had completed and was retired from the
                    // ledger; resurrect it with just the requeued output
                    // outstanding.
                    let mut requested = PortSet::new();
                    requested.insert(d.output);
                    self.in_flight.insert(
                        d.packet,
                        Tracked {
                            requested,
                            served: PortSet::new(),
                        },
                    );
                    self.delivered_copies = self.delivered_copies.saturating_sub(1);
                }
            }
        }
        disposition
    }

    fn drain_reconciled_drops(&mut self, out: &mut Vec<DroppedCopy>) {
        self.absorb_inner_drops();
        out.append(&mut self.drops);
    }

    fn drain_admission_drops(&mut self, out: &mut Vec<AdmissionDrop>) {
        self.absorb_admission_drops();
        out.append(&mut self.admission_drops);
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
            "checked-switch-stack",
            &Checkpoint::snapshot_state(self),
            &inner,
        ))
    }

    fn load_state(&mut self, blob: &[u8]) -> Result<(), StateError> {
        let (own, inner) = unframe_stack(blob, "checked-switch-stack")?;
        Checkpoint::restore_state(self, own)?;
        self.inner.load_state(inner)
    }
}

impl<S: Switch> Checkpoint for CheckedSwitch<S> {
    fn state_kind(&self) -> &'static str {
        "checked-switch"
    }

    // Own state only (the wrapped switch's blob travels alongside via
    // `frame_stack`): the residual-fanout ledger, the copy counters, the
    // undrained drop buffers, and the sticky violation. `check_every` and
    // `capacity` are configuration.
    fn write_state(&self, w: &mut StateWriter) {
        // HashMap iteration order is nondeterministic; snapshots of equal
        // states must be byte-equal, so write entries sorted by packet id.
        // fifoms-lint: allow(R1) collected then sorted by key before any emission
        let mut entries: Vec<(&PacketId, &Tracked)> = self.in_flight.iter().collect();
        entries.sort_unstable_by_key(|(id, _)| **id);
        w.put_usize(entries.len());
        for (id, tracked) in entries {
            w.put_packet_id(*id);
            w.put_port_set(&tracked.requested);
            w.put_port_set(&tracked.served);
        }
        w.put_u64(self.admitted_copies);
        w.put_u64(self.delivered_copies);
        w.put_u64(self.reconciled_copies);
        w.put_usize(self.drops.len());
        for d in &self.drops {
            put_dropped_copy(w, d);
        }
        w.put_u64(self.admission_dropped_copies);
        w.put_usize(self.admission_drops.len());
        for d in &self.admission_drops {
            put_admission_drop(w, d);
        }
        w.put_u64(self.slots_checked);
        match &self.violation {
            None => w.put_bool(false),
            Some(v) => {
                w.put_bool(true);
                put_violation(w, v);
            }
        }
        w.put_bool(self.violation_reported);
    }

    fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let tracked = r.get_usize()?;
        self.in_flight.clear();
        self.in_flight.reserve(tracked);
        for _ in 0..tracked {
            let id = r.get_packet_id()?;
            let requested = r.get_port_set()?;
            let served = r.get_port_set()?;
            self.in_flight.insert(id, Tracked { requested, served });
        }
        self.admitted_copies = r.get_u64()?;
        self.delivered_copies = r.get_u64()?;
        self.reconciled_copies = r.get_u64()?;
        let drops = r.get_usize()?;
        self.drops.clear();
        self.drops.reserve(drops);
        for _ in 0..drops {
            self.drops.push(get_dropped_copy(r)?);
        }
        self.admission_dropped_copies = r.get_u64()?;
        let admission_drops = r.get_usize()?;
        self.admission_drops.clear();
        self.admission_drops.reserve(admission_drops);
        for _ in 0..admission_drops {
            self.admission_drops.push(get_admission_drop(r)?);
        }
        self.slots_checked = r.get_u64()?;
        self.violation = if r.get_bool()? {
            Some(get_violation(r)?)
        } else {
            None
        };
        self.violation_reported = r.get_bool()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifoms_types::Departure;
    use std::collections::VecDeque;

    /// A configurable one-port switch whose bugs are injectable, used to
    /// prove each invariant actually trips.
    #[derive(Default)]
    struct RiggedSwitch {
        queue: VecDeque<Packet>,
        /// Deliver each copy twice.
        double_serve: bool,
        /// Send one copy to an output outside the fanout.
        stray_output: bool,
        /// Invert the `last_copy` flag.
        wrong_last: bool,
        /// Under-report the backlog by this many copies.
        hide_copies: usize,
        /// Grant the same output from two different inputs in one slot.
        duplicate_grant: bool,
        /// Admission control: shed each packet's last copy at admit time.
        shed_last_copy: bool,
        /// Admission control: swallow whole packets at admit time.
        vanish_packet: bool,
        /// Forget to record the AdmissionDrop ledger entries for shed
        /// copies (the accounting bug the conservation law must catch).
        leak_accounting: bool,
        admission_drops: Vec<AdmissionDrop>,
    }

    impl Switch for RiggedSwitch {
        fn name(&self) -> String {
            "rigged".into()
        }
        fn ports(&self) -> usize {
            4
        }
        fn admit(&mut self, mut packet: Packet) {
            let (id, input, arrival) = (packet.id, packet.input, packet.arrival);
            let drop_record = |output: PortId| AdmissionDrop {
                packet: id,
                input,
                output,
                arrival,
                slot: arrival,
                cause: fifoms_types::DropCause::TailFull,
            };
            if self.shed_last_copy && packet.dests.len() > 1 {
                let victim = packet.dests.iter().last().unwrap();
                packet.dests.remove(victim);
                if !self.leak_accounting {
                    self.admission_drops.push(drop_record(victim));
                }
            }
            if self.vanish_packet {
                if !self.leak_accounting {
                    for output in packet.dests.iter() {
                        self.admission_drops.push(drop_record(output));
                    }
                }
                return;
            }
            self.queue.push_back(packet);
        }
        fn run_slot(&mut self, now: Slot) -> SlotOutcome {
            let _ = now;
            let Some(p) = self.queue.pop_front() else {
                return SlotOutcome::idle();
            };
            let outputs: Vec<PortId> = p.dests.iter().collect();
            let mut departures = Vec::new();
            for (idx, &o) in outputs.iter().enumerate() {
                let last = idx + 1 == outputs.len();
                let output = if self.stray_output && last {
                    PortId::new((o.index() + 1) % self.ports())
                } else {
                    o
                };
                departures.push(Departure {
                    packet: p.id,
                    arrival: p.arrival,
                    input: p.input,
                    output,
                    last_copy: last != self.wrong_last,
                });
                if self.double_serve {
                    departures.push(Departure {
                        packet: p.id,
                        arrival: p.arrival,
                        input: p.input,
                        output,
                        last_copy: false,
                    });
                }
                if self.duplicate_grant {
                    departures.push(Departure {
                        packet: p.id,
                        arrival: p.arrival,
                        input: PortId::new((p.input.index() + 1) % self.ports()),
                        output,
                        last_copy: false,
                    });
                }
            }
            let connections = departures.len();
            SlotOutcome {
                departures,
                rounds: 1,
                connections,
            }
        }
        fn queue_sizes(&self, out: &mut Vec<usize>) {
            out.clear();
            out.resize(self.ports(), 0);
            out[0] = self.queue.len();
        }
        fn backlog(&self) -> Backlog {
            let copies: usize = self.queue.iter().map(|p| p.fanout()).sum();
            Backlog {
                packets: self.queue.len(),
                copies: copies.saturating_sub(self.hide_copies),
            }
        }
        fn drain_admission_drops(&mut self, out: &mut Vec<AdmissionDrop>) {
            out.append(&mut self.admission_drops);
        }
    }

    fn packet(id: u64, outputs: &[usize]) -> Packet {
        Packet::new(
            PacketId(id),
            Slot(0),
            PortId(0),
            outputs.iter().copied().collect(),
        )
    }

    fn run_rigged(rig: RiggedSwitch, packets: &[Packet]) -> Option<InvariantViolation> {
        let mut sw = CheckedSwitch::new(rig);
        for p in packets {
            sw.admit(p.clone());
        }
        let mut t = Slot(0);
        for _ in 0..8 {
            sw.run_slot(t);
            t = t.next();
        }
        sw.into_result().err()
    }

    #[test]
    fn clean_switch_passes_all_checks() {
        let v = run_rigged(
            RiggedSwitch::default(),
            &[packet(1, &[0, 2]), packet(2, &[1, 2, 3])],
        );
        assert_eq!(v, None);
    }

    #[test]
    fn duplicate_grant_detected() {
        let v = run_rigged(
            RiggedSwitch {
                duplicate_grant: true,
                ..Default::default()
            },
            &[packet(1, &[2])],
        );
        assert!(
            matches!(v, Some(InvariantViolation::DuplicateGrant { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn stray_output_detected() {
        let v = run_rigged(
            RiggedSwitch {
                stray_output: true,
                ..Default::default()
            },
            &[packet(1, &[0])],
        );
        assert!(
            matches!(v, Some(InvariantViolation::GrantOutsideFanout { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn double_service_detected_as_overrun() {
        // Two outputs: the duplicate of the first copy arrives while the
        // packet is still tracked, hitting the overrun path (a duplicate
        // after completion reports GrantOutsideFanout instead).
        let v = run_rigged(
            RiggedSwitch {
                double_serve: true,
                ..Default::default()
            },
            &[packet(1, &[1, 3])],
        );
        assert!(
            matches!(v, Some(InvariantViolation::FanoutOverrun { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn wrong_last_copy_flag_detected() {
        let v = run_rigged(
            RiggedSwitch {
                wrong_last: true,
                ..Default::default()
            },
            &[packet(1, &[0, 3])],
        );
        assert!(
            matches!(v, Some(InvariantViolation::LastCopyMismatch { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn hidden_backlog_breaks_conservation() {
        // Two packets: the first serves in slot 0; the second still queued
        // but one of its copies is hidden from backlog().
        let v = run_rigged(
            RiggedSwitch {
                hide_copies: 1,
                ..Default::default()
            },
            &[packet(1, &[0]), packet(2, &[1, 2])],
        );
        assert!(
            matches!(v, Some(InvariantViolation::ConservationMismatch { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn check_every_defers_conservation_check() {
        // With check_every = 8 and only 3 slots run, the hidden copy is
        // never noticed; with every-slot checking it is.
        let rig = RiggedSwitch {
            hide_copies: 1,
            ..Default::default()
        };
        let mut sw = CheckedSwitch::with_check_every(rig, 8);
        sw.admit(packet(1, &[0, 1]));
        for t in 0..3 {
            sw.run_slot(Slot(t));
        }
        assert!(sw.violation().is_none());
        // The structural checks still ran: serve a stray copy and it trips.
        let rig = RiggedSwitch {
            hide_copies: 1,
            stray_output: true,
            ..Default::default()
        };
        let mut sw = CheckedSwitch::with_check_every(rig, 8);
        sw.admit(packet(1, &[0]));
        sw.run_slot(Slot(0));
        assert!(matches!(
            sw.violation(),
            Some(InvariantViolation::GrantOutsideFanout { .. })
        ));
    }

    #[test]
    fn recorded_admission_sheds_satisfy_the_extended_law() {
        // Partial sheds (copy trimmed, ledger record kept) and deliveries
        // mix in one run without tripping any check.
        let rig = RiggedSwitch {
            shed_last_copy: true,
            ..Default::default()
        };
        let mut sw = CheckedSwitch::new(rig);
        sw.admit(packet(1, &[0, 1, 2]));
        sw.admit(packet(2, &[1, 3]));
        for t in 0..4 {
            sw.run_slot(Slot(t));
        }
        assert_eq!(sw.violation(), None);
        assert_eq!(sw.admitted_copies(), 5);
        assert_eq!(sw.delivered_copies(), 3);
        assert_eq!(sw.admission_dropped_copies(), 2);
        // Accounted records re-emit to outer drainers, like DroppedCopy.
        let mut drops = Vec::new();
        sw.drain_admission_drops(&mut drops);
        assert_eq!(drops.len(), 2);
    }

    #[test]
    fn leaked_admission_accounting_breaks_conservation() {
        // Packets vanish at admission with no AdmissionDrop records: the
        // extended law has a hole exactly as large as the leak.
        let v = run_rigged(
            RiggedSwitch {
                vanish_packet: true,
                leak_accounting: true,
                ..Default::default()
            },
            &[packet(1, &[0, 2])],
        );
        assert!(
            matches!(v, Some(InvariantViolation::ConservationMismatch { .. })),
            "{v:?}"
        );
        // The same shed WITH records is clean.
        let v = run_rigged(
            RiggedSwitch {
                vanish_packet: true,
                ..Default::default()
            },
            &[packet(1, &[0, 2])],
        );
        assert_eq!(v, None);
    }

    #[test]
    fn backlog_above_declared_capacity_detected() {
        let mut sw = CheckedSwitch::new(RiggedSwitch::default()).with_capacity(2);
        sw.admit(packet(1, &[0]));
        sw.admit(packet(2, &[1, 2, 3]));
        // Slot 0 serves packet 1; packet 2's three copies stay queued,
        // exceeding the declared two-copy capacity.
        sw.run_slot(Slot(0));
        assert!(
            matches!(
                sw.violation(),
                Some(InvariantViolation::CapacityExceeded {
                    backlog_copies: 3,
                    capacity: 2,
                    ..
                })
            ),
            "{:?}",
            sw.violation()
        );
    }

    #[test]
    fn wrapper_is_metrically_transparent() {
        let mut plain = RiggedSwitch::default();
        let mut checked = CheckedSwitch::new(RiggedSwitch::default());
        for p in [packet(1, &[0, 1, 2]), packet(2, &[3])] {
            plain.admit(p.clone());
            checked.admit(p);
        }
        assert_eq!(plain.name(), checked.name());
        assert_eq!(plain.ports(), checked.ports());
        assert_eq!(plain.backlog(), checked.backlog());
        let (mut qa, mut qb) = (Vec::new(), Vec::new());
        plain.queue_sizes(&mut qa);
        checked.queue_sizes(&mut qb);
        assert_eq!(qa, qb);
        let a = plain.run_slot(Slot(0));
        let b = checked.run_slot(Slot(0));
        assert_eq!(a.departures, b.departures);
    }

    #[test]
    fn works_through_boxed_switches() {
        let inner: Box<dyn Switch> = Box::new(RiggedSwitch::default());
        let mut sw = CheckedSwitch::new(inner);
        sw.admit(packet(1, &[0, 1]));
        sw.run_slot(Slot(0));
        sw.run_slot(Slot(1));
        assert!(sw.violation().is_none());
        assert!(sw.backlog().is_empty());
    }
}
