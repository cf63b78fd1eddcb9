//! The queue structures the baseline switches share, and the ledger that
//! recovers packet-level facts once a packet's copies are scattered.
//!
//! * [`UnicastVoqs`] — `N×N` VOQs of independent unicast copies (iSLIP,
//!   PIM, 2DRR);
//! * [`InputFifos`] — one FIFO of multicast cells per input, each cell
//!   tracking its unserved residue (TATRA, WBA, mcFIFO).

use std::collections::{HashMap, VecDeque};

use fifoms_fabric::Backlog;
use fifoms_types::{
    Departure, Packet, PacketId, PortId, PortSet, Slot, StateError, StateReader, StateWriter,
};

/// Tracks, per admitted packet, how many copies remain undelivered.
///
/// Schedulers like iSLIP, PIM and OQ-FIFO scatter a multicast packet's
/// copies into independent queues; the ledger reconstructs packet-level
/// facts the metric layer needs:
///
/// * `last_copy` detection for input-oriented delay;
/// * the "distinct packets held per input" queue-size metric (the paper
///   counts *data cells*, i.e. unsent packets, for FIFOMS and iSLIP
///   alike, so the comparison is apples-to-apples).
#[derive(Clone, Debug, Default)]
pub struct PacketLedger {
    remaining: HashMap<PacketId, u32>,
    held_per_input: Vec<usize>,
    input_of: HashMap<PacketId, usize>,
}

impl PacketLedger {
    /// Ledger for an `n`-input switch.
    pub fn new(n: usize) -> PacketLedger {
        PacketLedger {
            remaining: HashMap::new(),
            held_per_input: vec![0; n],
            input_of: HashMap::new(),
        }
    }

    /// Pre-size the maps for `packets` simultaneously live packets, so
    /// admissions up to that count never touch the heap. A capacity
    /// hint only — the ledger still grows past it.
    pub fn reserve(&mut self, packets: usize) {
        self.remaining.reserve(packets.saturating_sub(self.remaining.len()));
        self.input_of.reserve(packets.saturating_sub(self.input_of.len()));
    }

    /// Record an admitted packet with `fanout` copies at `input`.
    ///
    /// # Panics
    ///
    /// Panics on duplicate packet ids or zero fanout.
    pub fn admit(&mut self, packet: PacketId, input: usize, fanout: u32) {
        assert!(fanout > 0, "zero fanout");
        let prev = self.remaining.insert(packet, fanout);
        assert!(prev.is_none(), "duplicate packet {packet}");
        self.input_of.insert(packet, input);
        self.held_per_input[input] += 1;
    }

    /// Record one delivered copy; returns `true` if this was the packet's
    /// last copy (the packet is then forgotten).
    ///
    /// # Panics
    ///
    /// Panics if the packet is unknown (already completed or never
    /// admitted).
    pub fn deliver(&mut self, packet: PacketId) -> bool {
        let rem = self
            .remaining
            .get_mut(&packet)
            .unwrap_or_else(|| panic!("delivery for unknown packet {packet}"));
        *rem -= 1;
        if *rem == 0 {
            self.remaining.remove(&packet);
            let input = self.input_of.remove(&packet).expect("ledger input");
            self.held_per_input[input] -= 1;
            true
        } else {
            false
        }
    }

    /// Distinct packets with undelivered copies at `input`.
    pub fn held_at(&self, input: usize) -> usize {
        self.held_per_input[input]
    }

    /// Distinct packets with undelivered copies anywhere.
    pub fn packets(&self) -> usize {
        self.remaining.len()
    }

    /// Total undelivered copies.
    pub fn copies(&self) -> usize {
        self.remaining.values().map(|&r| r as usize).sum()
    }

    /// Whether nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.remaining.is_empty()
    }

    /// Serialise the ledger (checkpointing). HashMap iteration order is
    /// nondeterministic, so entries are written sorted by packet id —
    /// snapshots of equal states must be byte-equal.
    pub fn write_state(&self, w: &mut StateWriter) {
        let mut entries: Vec<(&PacketId, &u32)> = self.remaining.iter().collect();
        entries.sort_unstable_by_key(|(id, _)| **id);
        w.put_usize(entries.len());
        for (id, rem) in entries {
            w.put_packet_id(*id);
            w.put_u32(*rem);
        }
        w.put_usize(self.held_per_input.len());
        for held in &self.held_per_input {
            w.put_usize(*held);
        }
        let mut inputs: Vec<(&PacketId, &usize)> = self.input_of.iter().collect();
        inputs.sort_unstable_by_key(|(id, _)| **id);
        w.put_usize(inputs.len());
        for (id, input) in inputs {
            w.put_packet_id(*id);
            w.put_usize(*input);
        }
    }

    /// Restore state captured by [`PacketLedger::write_state`] into a
    /// ledger configured for the same number of inputs.
    pub fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let remaining = r.get_usize()?;
        self.remaining.clear();
        self.remaining.reserve(remaining);
        for _ in 0..remaining {
            let id = r.get_packet_id()?;
            let rem = r.get_u32()?;
            self.remaining.insert(id, rem);
        }
        let inputs_len = r.get_usize()?;
        if inputs_len != self.held_per_input.len() {
            return Err(StateError::Malformed {
                what: format!(
                    "ledger has {} inputs, snapshot has {inputs_len}",
                    self.held_per_input.len()
                ),
            });
        }
        for held in &mut self.held_per_input {
            *held = r.get_usize()?;
        }
        let input_of = r.get_usize()?;
        self.input_of.clear();
        self.input_of.reserve(input_of);
        for _ in 0..input_of {
            let id = r.get_packet_id()?;
            let input = r.get_usize()?;
            self.input_of.insert(id, input);
        }
        Ok(())
    }
}

/// Panic unless the packet's input and every destination are ports of an
/// `n`-port switch.
fn assert_in_range(packet: &Packet, n: usize) {
    assert!(packet.input.index() < n, "input out of range");
    assert!(
        packet.dests.iter().all(|d| d.index() < n),
        "destination out of range"
    );
}

#[derive(Clone, Copy, Debug)]
struct UnicastCopy {
    packet: PacketId,
    arrival: Slot,
}

/// The `N×N` virtual output queues of a switch that expands every
/// multicast packet into independent unicast copies at admission, as the
/// paper simulates iSLIP (§V). The queue-size metric still counts
/// *distinct packets held* per input, through the [`PacketLedger`].
#[derive(Clone, Debug)]
pub(crate) struct UnicastVoqs {
    voqs: Vec<Vec<VecDeque<UnicastCopy>>>,
    ledger: PacketLedger,
}

impl UnicastVoqs {
    /// Empty VOQs for an `n×n` switch.
    pub(crate) fn new(n: usize) -> UnicastVoqs {
        UnicastVoqs {
            voqs: (0..n)
                .map(|_| (0..n).map(|_| VecDeque::new()).collect())
                .collect(),
            ledger: PacketLedger::new(n),
        }
    }

    /// Queue one unicast copy per destination of `packet`.
    pub(crate) fn admit(&mut self, packet: Packet) {
        assert_in_range(&packet, self.voqs.len());
        self.ledger
            .admit(packet.id, packet.input.index(), packet.fanout() as u32);
        for dest in &packet.dests {
            self.voqs[packet.input.index()][dest.index()].push_back(UnicastCopy {
                packet: packet.id,
                arrival: packet.arrival,
            });
        }
    }

    /// Whether `input` holds no copy for `output`.
    pub(crate) fn is_empty(&self, input: usize, output: usize) -> bool {
        self.voqs[input][output].is_empty()
    }

    /// Send the head copy of VOQ (`input`, `output`), which must not be
    /// empty.
    pub(crate) fn serve(&mut self, input: usize, output: usize) -> Departure {
        let copy = self.voqs[input][output]
            .pop_front()
            .expect("matched VOQ was empty");
        Departure {
            packet: copy.packet,
            arrival: copy.arrival,
            input: PortId::new(input),
            output: PortId::new(output),
            last_copy: self.ledger.deliver(copy.packet),
        }
    }

    /// Distinct packets held per input.
    pub(crate) fn queue_sizes(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.voqs.len()).map(|i| self.ledger.held_at(i)));
    }

    /// Packets with undelivered copies, and the copies queued.
    pub(crate) fn backlog(&self) -> Backlog {
        Backlog {
            packets: self.ledger.packets(),
            copies: self
                .voqs
                .iter()
                .flat_map(|qs| qs.iter().map(VecDeque::len))
                .sum(),
        }
    }

    /// Pre-size every VOQ for `copies_per_voq` copies, and the ledger for
    /// one live packet per queued copy at one input's worth of queues
    /// (multicast expansion only lowers the packet count per copy).
    pub(crate) fn reserve(&mut self, copies_per_voq: usize) {
        for input in &mut self.voqs {
            for q in input {
                q.reserve(copies_per_voq.saturating_sub(q.len()));
            }
        }
        self.ledger
            .reserve(self.voqs.len().saturating_mul(copies_per_voq));
    }
}

/// One multicast cell in an input FIFO.
#[derive(Clone, Debug)]
pub(crate) struct FifoCell {
    pub(crate) packet: PacketId,
    pub(crate) arrival: Slot,
    /// Destinations not yet served.
    pub(crate) residue: PortSet,
}

/// One FIFO of multicast cells per input: only the head (HOL) cell of an
/// input may send, any subset of its residue per slot, and it leaves the
/// FIFO with its last copy. Whatever sits behind it waits — the HOL
/// blocking that FIFOMS's per-output address queues remove.
#[derive(Clone, Debug)]
pub(crate) struct InputFifos {
    fifos: Vec<VecDeque<FifoCell>>,
}

impl InputFifos {
    /// Empty FIFOs for an `n`-input switch.
    pub(crate) fn new(n: usize) -> InputFifos {
        InputFifos {
            fifos: vec![VecDeque::new(); n],
        }
    }

    /// Queue `packet` behind its input's FIFO.
    pub(crate) fn admit(&mut self, packet: Packet) {
        assert_in_range(&packet, self.fifos.len());
        self.fifos[packet.input.index()].push_back(FifoCell {
            packet: packet.id,
            arrival: packet.arrival,
            residue: packet.dests,
        });
    }

    /// The head cell of `input`'s FIFO.
    pub(crate) fn hol(&self, input: usize) -> Option<&FifoCell> {
        self.fifos[input].front()
    }

    /// Send the head cell of `input`, which must exist, to `output`; the
    /// cell leaves the FIFO with its last copy.
    pub(crate) fn serve(&mut self, input: usize, output: usize) -> Departure {
        let fifo = &mut self.fifos[input];
        let cell = fifo.front_mut().expect("served an empty FIFO");
        let removed = cell.residue.remove(PortId::new(output));
        debug_assert!(removed, "served a copy outside the HOL residue");
        let departure = Departure {
            packet: cell.packet,
            arrival: cell.arrival,
            input: PortId::new(input),
            output: PortId::new(output),
            last_copy: cell.residue.is_empty(),
        };
        if departure.last_copy {
            fifo.pop_front();
        }
        departure
    }

    /// Cells (packets) waiting in each input FIFO, HOL residue included.
    pub(crate) fn queue_sizes(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.fifos.iter().map(VecDeque::len));
    }

    /// Cells queued, and the copies their residues still owe.
    pub(crate) fn backlog(&self) -> Backlog {
        Backlog {
            packets: self.fifos.iter().map(VecDeque::len).sum(),
            copies: self
                .fifos
                .iter()
                .flat_map(|f| f.iter().map(|c| c.residue.len()))
                .sum(),
        }
    }

    /// Serialise every FIFO, head first (checkpointing).
    pub(crate) fn write_state(&self, w: &mut StateWriter) {
        w.put_usize(self.fifos.len());
        for fifo in &self.fifos {
            w.put_usize(fifo.len());
            for cell in fifo {
                w.put_packet_id(cell.packet);
                w.put_slot(cell.arrival);
                w.put_port_set(&cell.residue);
            }
        }
    }

    /// Restore FIFOs captured by [`InputFifos::write_state`] into FIFOs
    /// built for the same number of inputs.
    pub(crate) fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let inputs = r.get_usize()?;
        if inputs != self.fifos.len() {
            return Err(StateError::Malformed {
                what: format!(
                    "switch has {} inputs, snapshot has {inputs}",
                    self.fifos.len()
                ),
            });
        }
        for fifo in &mut self.fifos {
            let len = r.get_usize()?;
            fifo.clear();
            fifo.reserve(len);
            for _ in 0..len {
                fifo.push_back(FifoCell {
                    packet: r.get_packet_id()?,
                    arrival: r.get_slot()?,
                    residue: r.get_port_set()?,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_deliver_cycle() {
        let mut l = PacketLedger::new(4);
        l.admit(PacketId(1), 2, 3);
        l.admit(PacketId(2), 2, 1);
        assert_eq!(l.held_at(2), 2);
        assert_eq!(l.packets(), 2);
        assert_eq!(l.copies(), 4);
        assert!(!l.deliver(PacketId(1)));
        assert!(!l.deliver(PacketId(1)));
        assert!(l.deliver(PacketId(1)));
        assert_eq!(l.held_at(2), 1);
        assert!(l.deliver(PacketId(2)));
        assert!(l.is_empty());
        assert_eq!(l.held_at(2), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate packet")]
    fn duplicate_admit_rejected() {
        let mut l = PacketLedger::new(2);
        l.admit(PacketId(1), 0, 1);
        l.admit(PacketId(1), 1, 1);
    }

    #[test]
    #[should_panic(expected = "unknown packet")]
    fn over_delivery_rejected() {
        let mut l = PacketLedger::new(2);
        l.admit(PacketId(1), 0, 1);
        l.deliver(PacketId(1));
        l.deliver(PacketId(1));
    }

    #[test]
    #[should_panic(expected = "zero fanout")]
    fn zero_fanout_rejected() {
        let mut l = PacketLedger::new(2);
        l.admit(PacketId(1), 0, 0);
    }
}
