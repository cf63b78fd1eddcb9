//! The switch abstraction driven by the simulation engine.

use fifoms_types::{
    AdmissionDrop, Departure, DroppedCopy, ObsEvent, Packet, PortId, RetryDisposition, Slot,
    SlotOutcome, SpanSample, StateError,
};

/// Cells still queued inside a switch.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct Backlog {
    /// Distinct packets with at least one undelivered copy.
    pub packets: usize,
    /// Undelivered copies (a fanout-`k` packet with `j` copies delivered
    /// contributes `k - j`).
    pub copies: usize,
}

impl Backlog {
    /// Whether the switch is completely drained.
    pub fn is_empty(&self) -> bool {
        self.copies == 0
    }
}

/// A complete queueing-and-scheduling discipline for an `N×N` packet
/// switch, operated in synchronous slots.
///
/// The engine's per-slot protocol is:
///
/// 1. [`Switch::admit`] once for each packet arriving this slot (the
///    paper's *preprocessing* step — building address/data cells, VOQ
///    entries, or whatever the discipline queues);
/// 2. [`Switch::run_slot`] exactly once — the discipline computes its
///    matching, transfers cells across its fabric, performs
///    post-transmission processing, and reports the slot's
///    [`SlotOutcome`];
/// 3. [`Switch::queue_sizes`] / [`Switch::backlog`] for metric sampling.
///
/// Implementations must uphold **conservation**: every admitted packet
/// with fanout `k` eventually produces exactly `k`
/// [`Departure`](fifoms_types::Departure)s under continued `run_slot`
/// calls with no further admissions (no cell is lost or duplicated). The
/// integration suite verifies this for every switch in the workspace.
pub trait Switch {
    /// Human-readable scheduler name (e.g. `"FIFOMS"`).
    fn name(&self) -> String;

    /// Switch size `N`.
    fn ports(&self) -> usize;

    /// Admit one arriving packet (called during the packet's arrival slot,
    /// before `run_slot`). The packet is eligible for scheduling in the
    /// same slot it arrives — the paper overlaps preprocessing with
    /// scheduling (§IV-C).
    fn admit(&mut self, packet: Packet);

    /// Execute slot `now`: schedule, transfer, post-process.
    fn run_slot(&mut self, now: Slot) -> SlotOutcome;

    /// Fill `out` with the queue-size metric samples, one per monitored
    /// port. For input-queued disciplines this is the number of *unsent
    /// packets held per input port* (data cells, per §V of the paper); for
    /// the output-queued baseline it is the per-output queue length.
    fn queue_sizes(&self, out: &mut Vec<usize>);

    /// Total queued packets/copies (for conservation checks and
    /// saturation detection).
    fn backlog(&self) -> Backlog;

    /// Move any buffered [`ObsEvent`]s into `out` (oldest first).
    ///
    /// The default is a no-op: plain schedulers buffer nothing and pay
    /// nothing. Observability wrappers ([`InstrumentedSwitch`],
    /// [`FaultyFabric`] with event recording enabled, [`CheckedSwitch`])
    /// override it to hand over their own events *and* recurse into the
    /// switch they wrap, so the engine sees one merged stream no matter
    /// how deeply a traced cell is nested.
    ///
    /// The engine drains the stack after every observed slot, and also
    /// just before it writes each checkpoint, observed or not: buffered
    /// events are output, not state, so no checkpoint carries one and a
    /// restore clears them.
    ///
    /// [`InstrumentedSwitch`]: crate::InstrumentedSwitch
    /// [`FaultyFabric`]: crate::FaultyFabric
    /// [`CheckedSwitch`]: crate::CheckedSwitch
    fn drain_events(&mut self, out: &mut Vec<ObsEvent>) {
        let _ = out;
    }

    /// Called once by the engine after the final slot of an *observed*
    /// run, immediately before the final [`Switch::drain_events`]. Lets
    /// wrappers that buffer events beyond the per-slot drain (the
    /// ring-buffer flight recorder of
    /// [`InstrumentedSwitch`](crate::InstrumentedSwitch)) move their
    /// retained events into the drain buffer. The default does nothing,
    /// and the engine only invokes it when a sink is attached, so
    /// unobserved runs cannot be perturbed. Wrappers must forward it.
    fn end_of_run(&mut self) {}

    /// An egress fault killed the transmission described by `d` (which
    /// this switch reported in the current slot's
    /// [`SlotOutcome`](fifoms_types::SlotOutcome)). With `requeue == true`
    /// the switch should re-queue the copy for retransmission at the head
    /// of its queue *with its original timestamp* and return
    /// [`RetryDisposition::Requeued`]; with `requeue == false` (retry
    /// budget exhausted) it should abandon the copy, reconcile its
    /// `fanoutCounter`, and return [`RetryDisposition::Dropped`].
    ///
    /// The default returns [`RetryDisposition::Unsupported`]: disciplines
    /// without a retransmission path make the fault injector account the
    /// copy as a structured drop instead. Wrappers must forward this so
    /// the request reaches the queue structure that owns the cell.
    fn copy_failed(&mut self, d: &Departure, now: Slot, requeue: bool) -> RetryDisposition {
        let _ = (d, now, requeue);
        RetryDisposition::Unsupported
    }

    /// Move the [`DroppedCopy`] records of copies abandoned since the
    /// last call into `out` (oldest first). Conservation checkers add
    /// these to the delivered count: under egress faults the law is
    /// `admitted == delivered + backlog + reconciled drops`. The default
    /// is a no-op; wrappers must forward it.
    fn drain_reconciled_drops(&mut self, out: &mut Vec<DroppedCopy>) {
        let _ = out;
    }

    /// Move the [`AdmissionDrop`] records of copies refused or evicted by
    /// finite-buffer admission control since the last call into `out`
    /// (oldest first). With finite buffers the conservation law becomes
    /// `admitted == delivered + backlog + reconciled drops + admission
    /// drops`; checkers drain these records to account for the last term.
    /// The default is a no-op (unbounded switches never drop at
    /// admission); wrappers must forward it.
    fn drain_admission_drops(&mut self, out: &mut Vec<AdmissionDrop>) {
        let _ = out;
    }

    /// Whether the switch asks the traffic source feeding `input` to
    /// pause. No switch in this workspace raises it and the engine never
    /// consults it; the default is `false`. Wrappers forward it so a
    /// switch that did raise it would be seen through fault and
    /// instrumentation layers.
    fn backpressure(&self, input: PortId) -> bool {
        let _ = input;
        false
    }

    /// Ask the switch to time its internal scheduling sub-phases during
    /// subsequent [`Switch::run_slot`] calls (`on == true`) or stop
    /// (`on == false`). The profiling engine enables this only on sampled
    /// slots, so un-profiled runs never pay for a clock read. The default
    /// ignores the request: a switch with no sub-phase instrumentation
    /// simply reports nothing. Wrappers must forward it.
    fn set_span_recording(&mut self, on: bool) {
        let _ = on;
    }

    /// Move the [`SpanSample`]s recorded since the last call into `out`
    /// (appended; `out` is not cleared). Each sample names one scheduling
    /// sub-phase (e.g. `voq_scan`, `grant`) timed inside `run_slot` while
    /// span recording was on; the profiler attaches them as children of
    /// its `schedule` span. The default is a no-op; wrappers must forward
    /// it. Must not allocate in steady state — implementations reuse
    /// their sample buffer.
    fn drain_spans(&mut self, out: &mut Vec<SpanSample>) {
        let _ = out;
    }

    /// Return a consumed [`SlotOutcome`] to the switch so its heap
    /// buffers (the departures vector) can be reused by the next
    /// `run_slot`, keeping the steady-state slot loop allocation-free.
    /// The engine calls this after it has finished reading the outcome.
    /// The default drops the outcome (correct, just not allocation-free);
    /// wrappers must forward it. Implementations must not interpret the
    /// contents — `recycle` is a memory hand-back, not a signal.
    fn recycle(&mut self, outcome: SlotOutcome) {
        let _ = outcome;
    }

    /// Append the `(input, output)` paths currently quarantined by the
    /// switch's fault scoreboard to `out` (`out` is not cleared), in
    /// ascending `(input, output)` order. Live telemetry polls this at
    /// window close to render a per-input fault scoreboard; the caller
    /// pre-sizes `out`, so steady-state calls do not allocate. The
    /// default is a no-op (no scoreboard — nothing is ever quarantined);
    /// wrappers must forward it so the query reaches the switch that
    /// owns the scoreboard.
    fn quarantined_paths(&self, now: Slot, out: &mut Vec<(PortId, PortId)>) {
        let _ = (now, out);
    }

    /// Pre-size every internal queue, pool and map for a steady state of
    /// up to `copies_per_voq` queued copies per VOQ, so a subsequent run
    /// performs no heap allocation until that occupancy is exceeded.
    /// Growth past the reservation still works (and still allocates) —
    /// this is a capacity hint for the allocation audit and latency-
    /// sensitive deployments, never an admission limit, so it must not
    /// change scheduling behavior. The default is a no-op; wrappers must
    /// forward it.
    fn reserve_steady_state(&mut self, copies_per_voq: usize) {
        let _ = copies_per_voq;
    }

    /// Serialise the switch's complete mutable state into a framed,
    /// CRC-guarded blob (see [`fifoms_types::Checkpoint`]). The default
    /// reports [`StateError::Unsupported`]: a discipline that opted out of
    /// crash recovery fails a checkpointed run *loudly* at the first
    /// checkpoint instead of silently writing an empty snapshot. Wrappers
    /// must forward it — composing their own state around the inner
    /// switch's blob — so the request reaches every state owner in the
    /// stack.
    fn save_state(&self) -> Result<Vec<u8>, StateError> {
        Err(StateError::Unsupported {
            component: self.name(),
        })
    }

    /// Restore state captured by [`Switch::save_state`] into an
    /// identically configured switch. The default mirrors
    /// [`Switch::save_state`]'s refusal; wrappers must forward it.
    fn load_state(&mut self, blob: &[u8]) -> Result<(), StateError> {
        let _ = blob;
        Err(StateError::Unsupported {
            component: self.name(),
        })
    }
}

/// Frame a wrapper's `[own state][inner switch state]` pair into one
/// CRC-guarded blob. Wrappers implementing [`Switch::save_state`] compose
/// their own [`Checkpoint`](fifoms_types::Checkpoint) snapshot with the
/// inner switch's blob through this helper so every layer of a
/// `Checked(Faulty(MulticastVoq))` stack restores from a single file.
pub fn frame_stack(kind: &str, own: &[u8], inner: &[u8]) -> Vec<u8> {
    let mut w = fifoms_types::StateWriter::new();
    w.put_bytes(own);
    w.put_bytes(inner);
    fifoms_types::frame_state(kind, 1, &w.into_bytes())
}

/// Split a blob produced by [`frame_stack`] back into
/// `(own state, inner switch state)`.
pub fn unframe_stack<'a>(blob: &'a [u8], kind: &str) -> Result<(&'a [u8], &'a [u8]), StateError> {
    let (version, payload) = fifoms_types::unframe_state(blob, kind)?;
    if version != 1 {
        return Err(StateError::VersionUnsupported {
            kind: kind.to_string(),
            got: version,
        });
    }
    let mut r = fifoms_types::StateReader::new(payload);
    let own = r.get_bytes()?;
    let inner = r.get_bytes()?;
    r.expect_exhausted()?;
    Ok((own, inner))
}

impl<T: Switch + ?Sized> Switch for Box<T> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn ports(&self) -> usize {
        (**self).ports()
    }
    fn admit(&mut self, packet: Packet) {
        (**self).admit(packet)
    }
    fn run_slot(&mut self, now: Slot) -> SlotOutcome {
        (**self).run_slot(now)
    }
    fn queue_sizes(&self, out: &mut Vec<usize>) {
        (**self).queue_sizes(out)
    }
    fn backlog(&self) -> Backlog {
        (**self).backlog()
    }
    // Must forward explicitly: the default no-op body would otherwise
    // swallow the inner switch's buffered events behind every Box.
    fn drain_events(&mut self, out: &mut Vec<ObsEvent>) {
        (**self).drain_events(out)
    }
    fn end_of_run(&mut self) {
        (**self).end_of_run()
    }
    fn copy_failed(&mut self, d: &Departure, now: Slot, requeue: bool) -> RetryDisposition {
        (**self).copy_failed(d, now, requeue)
    }
    fn drain_reconciled_drops(&mut self, out: &mut Vec<DroppedCopy>) {
        (**self).drain_reconciled_drops(out)
    }
    fn drain_admission_drops(&mut self, out: &mut Vec<AdmissionDrop>) {
        (**self).drain_admission_drops(out)
    }
    fn backpressure(&self, input: PortId) -> bool {
        (**self).backpressure(input)
    }
    fn set_span_recording(&mut self, on: bool) {
        (**self).set_span_recording(on)
    }
    fn drain_spans(&mut self, out: &mut Vec<SpanSample>) {
        (**self).drain_spans(out)
    }
    fn recycle(&mut self, outcome: SlotOutcome) {
        (**self).recycle(outcome)
    }
    fn quarantined_paths(&self, now: Slot, out: &mut Vec<(PortId, PortId)>) {
        (**self).quarantined_paths(now, out)
    }
    fn reserve_steady_state(&mut self, copies_per_voq: usize) {
        (**self).reserve_steady_state(copies_per_voq)
    }
    fn save_state(&self) -> Result<Vec<u8>, StateError> {
        (**self).save_state()
    }
    fn load_state(&mut self, blob: &[u8]) -> Result<(), StateError> {
        (**self).load_state(blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifoms_types::{Departure, PacketId, PortId, PortSet};

    /// A minimal discipline used to validate the trait contract shape:
    /// one shared FIFO, serves the head packet to all its destinations at
    /// once (an idealised fanout-no-splitting switch with no contention —
    /// only usable with one input).
    struct ToySwitch {
        queue: std::collections::VecDeque<Packet>,
    }

    impl Switch for ToySwitch {
        fn name(&self) -> String {
            "toy".into()
        }
        fn ports(&self) -> usize {
            1
        }
        fn admit(&mut self, packet: Packet) {
            assert_eq!(packet.input, PortId(0));
            self.queue.push_back(packet);
        }
        fn run_slot(&mut self, now: Slot) -> SlotOutcome {
            match self.queue.pop_front() {
                None => SlotOutcome::idle(),
                Some(p) => {
                    let copies: Vec<_> = p.dests.iter().collect();
                    let departures = copies
                        .iter()
                        .enumerate()
                        .map(|(idx, &o)| Departure {
                            packet: p.id,
                            arrival: p.arrival,
                            input: p.input,
                            output: o,
                            last_copy: idx + 1 == copies.len(),
                        })
                        .collect::<Vec<_>>();
                    let connections = departures.len();
                    let _ = now;
                    SlotOutcome {
                        departures,
                        rounds: 1,
                        connections,
                    }
                }
            }
        }
        fn queue_sizes(&self, out: &mut Vec<usize>) {
            out.clear();
            out.push(self.queue.len());
        }
        fn backlog(&self) -> Backlog {
            Backlog {
                packets: self.queue.len(),
                copies: self.queue.iter().map(|p| p.fanout()).sum(),
            }
        }
    }

    #[test]
    fn backlog_empty() {
        assert!(Backlog::default().is_empty());
        assert!(!Backlog {
            packets: 1,
            copies: 2
        }
        .is_empty());
    }

    #[test]
    fn toy_switch_conserves_copies() {
        let mut sw = ToySwitch {
            queue: Default::default(),
        };
        let dests: PortSet = [0usize].into_iter().collect();
        for i in 0..5 {
            sw.admit(Packet::new(PacketId(i), Slot(0), PortId(0), dests.clone()));
        }
        assert_eq!(sw.backlog().copies, 5);
        let mut delivered = 0;
        let mut t = Slot(0);
        while !sw.backlog().is_empty() {
            let out = sw.run_slot(t);
            delivered += out.departures.len();
            t = t.next();
        }
        assert_eq!(delivered, 5);
        let mut q = Vec::new();
        sw.queue_sizes(&mut q);
        assert_eq!(q, vec![0]);
    }

    #[test]
    fn default_checkpoint_hooks_refuse_by_name_even_boxed() {
        let toy = || ToySwitch {
            queue: Default::default(),
        };
        let mut boxed: Box<dyn Switch> = Box::new(toy());
        for sw in [&mut toy() as &mut dyn Switch, &mut boxed] {
            assert_eq!(
                sw.save_state(),
                Err(StateError::Unsupported {
                    component: "toy".into()
                })
            );
            assert_eq!(
                sw.load_state(b"anything"),
                Err(StateError::Unsupported {
                    component: "toy".into()
                })
            );
        }
    }

    /// A one-port switch that owns state and buffers one event, for the
    /// hooks a `Box` must forward rather than take from the defaults.
    struct Stateful {
        counter: u64,
        pending: Vec<ObsEvent>,
    }

    impl Switch for Stateful {
        fn name(&self) -> String {
            "stateful".into()
        }
        fn ports(&self) -> usize {
            1
        }
        fn admit(&mut self, _packet: Packet) {}
        fn run_slot(&mut self, _now: Slot) -> SlotOutcome {
            SlotOutcome::idle()
        }
        fn queue_sizes(&self, out: &mut Vec<usize>) {
            out.clear();
            out.push(0);
        }
        fn backlog(&self) -> Backlog {
            Backlog::default()
        }
        fn drain_events(&mut self, out: &mut Vec<ObsEvent>) {
            out.append(&mut self.pending);
        }
        fn save_state(&self) -> Result<Vec<u8>, StateError> {
            Ok(self.counter.to_le_bytes().to_vec())
        }
        fn load_state(&mut self, blob: &[u8]) -> Result<(), StateError> {
            let bytes: [u8; 8] = blob.try_into().map_err(|_| StateError::Malformed {
                what: "counter".into(),
            })?;
            self.counter = u64::from_le_bytes(bytes);
            Ok(())
        }
    }

    #[test]
    fn boxed_switch_forwards_events_and_state() {
        let mut sw: Box<dyn Switch> = Box::new(Stateful {
            counter: 41,
            pending: vec![ObsEvent::RunEnd { slots_run: 3 }],
        });
        let mut events = Vec::new();
        sw.drain_events(&mut events);
        assert_eq!(events, [ObsEvent::RunEnd { slots_run: 3 }]);
        let blob = sw.save_state().expect("the inner switch saves");
        assert_eq!(blob, 41u64.to_le_bytes());
        let mut twin: Box<dyn Switch> = Box::new(Stateful {
            counter: 0,
            pending: Vec::new(),
        });
        twin.load_state(&blob).expect("the inner switch loads");
        assert_eq!(twin.save_state().expect("save"), blob);
        assert!(matches!(
            twin.load_state(&[1, 2]),
            Err(StateError::Malformed { .. })
        ));
    }

    #[test]
    fn stack_frames_split_back_and_guard_kind_version_and_length() {
        let blob = frame_stack("wrapper", b"own", b"inner state");
        let (own, inner) = unframe_stack(&blob, "wrapper").expect("unframe");
        assert_eq!((own, inner), (&b"own"[..], &b"inner state"[..]));
        let empty = frame_stack("wrapper", b"", b"");
        let (own, inner) = unframe_stack(&empty, "wrapper").expect("unframe");
        assert!(own.is_empty() && inner.is_empty());

        assert!(matches!(
            unframe_stack(&blob, "other"),
            Err(StateError::KindMismatch { .. })
        ));
        let mut w = fifoms_types::StateWriter::new();
        w.put_bytes(b"own");
        w.put_bytes(b"inner");
        let payload = w.into_bytes();
        let v2 = fifoms_types::frame_state("wrapper", 2, &payload);
        assert_eq!(
            unframe_stack(&v2, "wrapper"),
            Err(StateError::VersionUnsupported {
                kind: "wrapper".into(),
                got: 2
            })
        );
        let mut long = payload;
        long.push(0);
        let long = fifoms_types::frame_state("wrapper", 1, &long);
        assert_eq!(
            unframe_stack(&long, "wrapper"),
            Err(StateError::TrailingBytes { leftover: 1 })
        );
    }
}
