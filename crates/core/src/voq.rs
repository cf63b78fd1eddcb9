//! Virtual output queues of address cells.

use std::collections::VecDeque;

use fifoms_types::{PortId, PortSet, StateError, StateReader, StateWriter};

use crate::buffer::SOFT_HIGH_WATER;
use crate::cell::{AddressCell, DataCellKey};

/// One virtual output queue: the FIFO of address cells at some input port
/// destined for one particular output port.
///
/// Only the head-of-line cell is visible to the scheduler — deeper cells
/// cannot be scheduled (FIFO order is what makes FIFOMS starvation-free).
#[derive(Clone, Debug, Default)]
pub struct Voq {
    // INVARIANT: cells are ordered by nondecreasing time_stamp from head to
    // tail, so the HOL cell always carries the queue minimum — Theorem 1's
    // starvation bound quantifies over exactly that minimum.
    cells: VecDeque<AddressCell>,
    // INVARIANT: high_water_latched is set iff the queue has ever reached
    // SOFT_HIGH_WATER cells; pending_high_water holds the crossing depth
    // until an observer collects it.
    high_water_latched: bool,
    pending_high_water: Option<usize>,
}

impl Voq {
    /// An empty queue.
    pub fn new() -> Voq {
        Voq::default()
    }

    /// Append an address cell (packet preprocessing).
    pub fn push_back(&mut self, cell: AddressCell) {
        debug_assert!(
            self.cells
                .back()
                .is_none_or(|last| last.time_stamp <= cell.time_stamp),
            "VOQ FIFO order violated: appending older cell"
        );
        self.cells.push_back(cell);
        if !self.high_water_latched && self.cells.len() >= SOFT_HIGH_WATER {
            debug_assert!(
                self.pending_high_water.is_none(),
                "high-water crossing recorded twice"
            );
            self.high_water_latched = true;
            self.pending_high_water = Some(self.cells.len());
        }
    }

    /// Remove and return the *tail* cell (admission-control pushout).
    ///
    /// The tail carries the queue's youngest (largest) timestamp, so
    /// removing it cannot disturb the head-to-tail nondecreasing order —
    /// pushout eviction is stamp-preserving by construction.
    pub fn pop_back(&mut self) -> Option<AddressCell> {
        self.cells.pop_back()
    }

    /// The one-shot soft high-water crossing depth, if the queue crossed
    /// [`SOFT_HIGH_WATER`] since the last call. Latched: at most one
    /// crossing is ever reported per queue per run.
    pub fn take_high_water(&mut self) -> Option<usize> {
        self.pending_high_water.take()
    }

    /// Re-insert an address cell at the *head* of the queue
    /// (retransmission after an egress fault).
    ///
    /// The retried cell was the head-of-line cell when it was scheduled,
    /// so its timestamp is no larger than any cell behind it — pushing it
    /// back at the head restores exactly the pre-service FIFO order, which
    /// is what keeps Theorem 1's starvation argument intact.
    pub fn push_front(&mut self, cell: AddressCell) {
        debug_assert!(
            self.cells
                .front()
                .is_none_or(|hol| cell.time_stamp <= hol.time_stamp),
            "VOQ FIFO order violated: re-inserting cell younger than HOL"
        );
        self.cells.push_front(cell);
    }

    /// The head-of-line cell, if any.
    pub fn hol(&self) -> Option<&AddressCell> {
        self.cells.front()
    }

    /// Remove and return the head-of-line cell (post-transmission).
    pub fn pop_front(&mut self) -> Option<AddressCell> {
        self.cells.pop_front()
    }

    /// Queue length in address cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Ensure room for at least `cells` queued address cells, so pushes
    /// up to that depth never touch the heap.
    pub fn reserve(&mut self, cells: usize) {
        self.cells.reserve(cells.saturating_sub(self.cells.len()));
    }

    /// Iterate cells from head to tail (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &AddressCell> {
        self.cells.iter()
    }

    /// Serialise the queue: cells head-to-tail with original timestamps
    /// and slab keys, plus the one-shot high-water latch.
    pub fn write_state(&self, w: &mut StateWriter) {
        w.put_usize(self.cells.len());
        for cell in &self.cells {
            w.put_slot(cell.time_stamp);
            w.put_u32(cell.data.index);
            w.put_u32(cell.data.generation);
        }
        w.put_bool(self.high_water_latched);
        w.put_opt_u64(self.pending_high_water.map(|d| d as u64));
    }

    /// Restore state captured by [`Voq::write_state`].
    pub fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let count = r.get_usize()?;
        let mut cells = VecDeque::with_capacity(count);
        for _ in 0..count {
            cells.push_back(AddressCell {
                time_stamp: r.get_slot()?,
                data: DataCellKey {
                    index: r.get_u32()?,
                    generation: r.get_u32()?,
                },
            });
        }
        self.high_water_latched = r.get_bool()?;
        self.pending_high_water = match r.get_opt_u64()? {
            Some(d) => Some(usize::try_from(d).map_err(|_| StateError::Malformed {
                what: format!("high-water depth {d}"),
            })?),
            None => None,
        };
        self.cells = cells;
        Ok(())
    }
}

/// The `N` virtual output queues of one input port (paper §II: "there are
/// N virtual output queues to store the address cells for the N output
/// ports"), plus an occupancy mask of the non-empty ones.
///
/// The mask lets the scheduler find an input's head-of-line cells with
/// word operations instead of walking all `N` queues. Every mutation goes
/// through this set's `push_*`/`pop_*` methods, which keep the mask in
/// step; the mask is never serialised, [`VoqSet::read_state`] rebuilds it.
#[derive(Clone, Debug)]
pub struct VoqSet {
    queues: Vec<Voq>,
    // INVARIANT: bit o of heads is set iff queues[o] is non-empty.
    heads: PortSet,
}

impl VoqSet {
    /// `n` empty queues.
    pub fn new(n: usize) -> VoqSet {
        VoqSet {
            queues: (0..n).map(|_| Voq::new()).collect(),
            heads: PortSet::with_capacity(n),
        }
    }

    /// Number of queues (`N`).
    pub fn outputs(&self) -> usize {
        self.queues.len()
    }

    /// The queue toward `output`.
    pub fn queue(&self, output: PortId) -> &Voq {
        // fifoms-lint: allow(R10) PortId indices are produced by enumerate over the same fixed N this set was built with
        &self.queues[output.index()]
    }

    fn queue_mut(&mut self, output: PortId) -> &mut Voq {
        // fifoms-lint: allow(R10) PortId indices are produced by enumerate over the same fixed N this set was built with
        &mut self.queues[output.index()]
    }

    /// The outputs whose queues hold a head-of-line cell.
    #[inline]
    pub fn heads(&self) -> &PortSet {
        &self.heads
    }

    /// Append an address cell to the queue toward `output` (packet
    /// preprocessing).
    pub fn push_back(&mut self, output: PortId, cell: AddressCell) {
        self.queue_mut(output).push_back(cell);
        self.heads.insert(output);
    }

    /// Remove and return the head-of-line cell toward `output`
    /// (post-transmission).
    pub fn pop_front(&mut self, output: PortId) -> Option<AddressCell> {
        let q = self.queue_mut(output);
        let cell = q.pop_front();
        if q.is_empty() {
            self.heads.remove(output);
        }
        cell
    }

    /// Re-insert an address cell at the head of the queue toward `output`
    /// (retransmission after an egress fault; see [`Voq::push_front`]).
    pub fn push_front(&mut self, output: PortId, cell: AddressCell) {
        self.queue_mut(output).push_front(cell);
        self.heads.insert(output);
    }

    /// Remove and return the tail cell toward `output` (admission-control
    /// pushout; see [`Voq::pop_back`]).
    pub fn pop_back(&mut self, output: PortId) -> Option<AddressCell> {
        let q = self.queue_mut(output);
        let cell = q.pop_back();
        if q.is_empty() {
            self.heads.remove(output);
        }
        cell
    }

    /// The one-shot soft high-water crossing depth of the queue toward
    /// `output`, if it crossed since the last call (see
    /// [`Voq::take_high_water`]).
    pub fn take_high_water(&mut self, output: PortId) -> Option<usize> {
        self.queue_mut(output).take_high_water()
    }

    /// Total address cells across all queues (undelivered copies at this
    /// input).
    pub fn total_cells(&self) -> usize {
        self.queues.iter().map(Voq::len).sum()
    }

    /// Pre-size every queue for `cells_per_voq` queued address cells.
    pub fn reserve(&mut self, cells_per_voq: usize) {
        for q in &mut self.queues {
            q.reserve(cells_per_voq);
        }
    }

    /// Whether every queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Iterate `(output, hol cell)` over queues with a head-of-line cell,
    /// in ascending output order.
    pub fn hol_cells(&self) -> impl Iterator<Item = (PortId, &AddressCell)> {
        self.heads.iter().filter_map(move |o| {
            self.queues
                .get(o.index())
                .and_then(Voq::hol)
                .map(|c| (o, c))
        })
    }

    /// Serialise every queue in output order.
    pub fn write_state(&self, w: &mut StateWriter) {
        w.put_usize(self.queues.len());
        for q in &self.queues {
            q.write_state(w);
        }
    }

    /// Restore state captured by [`VoqSet::write_state`] and rebuild the
    /// occupancy mask from the restored queues. The queue count must match
    /// this set's configured `N`.
    pub fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let count = r.get_usize()?;
        if count != self.queues.len() {
            return Err(StateError::Malformed {
                what: format!(
                    "VOQ set has {} queues, snapshot has {count}",
                    self.queues.len()
                ),
            });
        }
        self.heads.clear();
        for (o, q) in self.queues.iter_mut().enumerate() {
            q.read_state(r)?;
            if !q.is_empty() {
                self.heads.insert(PortId::new(o));
            }
        }
        Ok(())
    }

    /// The output whose queue holds the most cells (ties broken toward
    /// the lowest index, for determinism), with that length. `None` when
    /// every queue is empty — pushout has no victim then.
    pub fn longest_queue(&self) -> Option<(PortId, usize)> {
        let mut best: Option<(PortId, usize)> = None;
        for (o, q) in self.queues.iter().enumerate() {
            let len = q.len();
            if len > 0 && best.is_none_or(|(_, b)| len > b) {
                best = Some((PortId::new(o), len));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::DataCellKey;
    use fifoms_types::Slot;

    fn cell(ts: u64, idx: u32) -> AddressCell {
        AddressCell {
            time_stamp: Slot(ts),
            data: DataCellKey {
                index: idx,
                generation: 0,
            },
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = Voq::new();
        q.push_back(cell(1, 0));
        q.push_back(cell(3, 1));
        q.push_back(cell(3, 2));
        assert_eq!(q.len(), 3);
        assert_eq!(q.hol().unwrap().time_stamp, Slot(1));
        assert_eq!(q.pop_front().unwrap().time_stamp, Slot(1));
        assert_eq!(q.pop_front().unwrap().data.index, 1);
        assert_eq!(q.pop_front().unwrap().data.index, 2);
        assert!(q.pop_front().is_none());
        assert!(q.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "FIFO order violated")]
    fn out_of_order_push_detected_in_debug() {
        let mut q = Voq::new();
        q.push_back(cell(5, 0));
        q.push_back(cell(3, 1));
    }

    #[test]
    fn push_front_restores_hol() {
        let mut q = Voq::new();
        q.push_back(cell(2, 0));
        q.push_back(cell(4, 1));
        let served = q.pop_front().unwrap();
        assert_eq!(served.time_stamp, Slot(2));
        // A failed transmission goes back to the head, timestamp intact.
        q.push_front(served);
        assert_eq!(q.hol().unwrap().time_stamp, Slot(2));
        assert_eq!(q.len(), 2);
        // Equal-stamp re-insertion is legal too (same-slot arrivals).
        let served = q.pop_front().unwrap();
        q.push_front(cell(2, 3));
        assert_eq!(q.hol().unwrap().data.index, 3);
        let _ = served;
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "FIFO order violated")]
    fn push_front_younger_than_hol_detected_in_debug() {
        let mut q = Voq::new();
        q.push_back(cell(3, 0));
        q.push_front(cell(5, 1));
    }

    #[test]
    fn voq_set_accessors() {
        let mut set = VoqSet::new(4);
        assert_eq!(set.outputs(), 4);
        assert!(set.is_empty());
        set.push_back(PortId(2), cell(1, 0));
        set.push_back(PortId(2), cell(2, 1));
        set.push_back(PortId(0), cell(2, 1));
        assert_eq!(set.total_cells(), 3);
        assert!(!set.is_empty());
        assert_eq!(set.queue(PortId(2)).len(), 2);
        assert_eq!(set.queue(PortId(1)).len(), 0);
    }

    #[test]
    fn hol_cells_iterates_nonempty_queues() {
        let mut set = VoqSet::new(4);
        set.push_back(PortId(3), cell(7, 0));
        set.push_back(PortId(1), cell(5, 1));
        let hols: Vec<(usize, u64)> = set
            .hol_cells()
            .map(|(o, c)| (o.index(), c.time_stamp.index()))
            .collect();
        assert_eq!(hols, vec![(1, 5), (3, 7)]);
    }

    /// The occupancy mask as the invariant defines it.
    fn nonempty(set: &VoqSet) -> PortSet {
        (0..set.outputs())
            .filter(|&o| !set.queue(PortId::new(o)).is_empty())
            .collect()
    }

    #[test]
    fn heads_track_every_mutation() {
        let mut set = VoqSet::new(200);
        set.push_back(PortId(150), cell(1, 0));
        set.push_back(PortId(3), cell(1, 0));
        set.push_back(PortId(3), cell(2, 1));
        assert_eq!(*set.heads(), nonempty(&set));
        // Popping one of two cells keeps the queue's bit.
        assert_eq!(set.pop_front(PortId(3)).unwrap().time_stamp, Slot(1));
        assert_eq!(*set.heads(), nonempty(&set));
        assert!(set.heads().contains(PortId(3)));
        // Draining a queue from either end clears it.
        assert_eq!(set.pop_back(PortId(3)).unwrap().time_stamp, Slot(2));
        assert_eq!(set.pop_front(PortId(150)).unwrap().time_stamp, Slot(1));
        assert!(set.heads().is_empty() && set.is_empty());
        // Popping an empty queue is a no-op, and a retry sets the bit again.
        assert!(set.pop_front(PortId(3)).is_none());
        assert!(set.pop_back(PortId(3)).is_none());
        set.push_front(PortId(7), cell(4, 2));
        assert_eq!(*set.heads(), PortSet::singleton(PortId(7)));
    }

    #[test]
    fn read_state_rebuilds_heads() {
        let mut set = VoqSet::new(130);
        set.push_back(PortId(129), cell(1, 0));
        set.push_back(PortId(4), cell(2, 1));
        let mut w = StateWriter::new();
        set.write_state(&mut w);
        let bytes = w.into_bytes();
        // The restoring set starts with a different occupancy.
        let mut restored = VoqSet::new(130);
        restored.push_back(PortId(0), cell(0, 0));
        restored.read_state(&mut StateReader::new(&bytes)).unwrap();
        assert_eq!(*restored.heads(), nonempty(&restored));
        assert_eq!(
            restored
                .heads()
                .iter()
                .map(PortId::index)
                .collect::<Vec<_>>(),
            vec![4, 129]
        );
    }

    #[test]
    fn pop_back_takes_the_youngest_stamp() {
        let mut q = Voq::new();
        q.push_back(cell(1, 0));
        q.push_back(cell(3, 1));
        q.push_back(cell(7, 2));
        let evicted = q.pop_back().unwrap();
        assert_eq!(evicted.time_stamp, Slot(7));
        // Order is untouched: head still carries the queue minimum, and a
        // fresh (younger-or-equal) arrival still appends legally.
        assert_eq!(q.hol().unwrap().time_stamp, Slot(1));
        q.push_back(cell(9, 3));
        assert_eq!(q.len(), 3);
        assert!(Voq::new().pop_back().is_none());
    }

    #[test]
    fn high_water_crossing_is_latched_once() {
        let mut q = Voq::new();
        for i in 0..SOFT_HIGH_WATER {
            q.push_back(cell(i as u64, i as u32));
        }
        assert_eq!(q.take_high_water(), Some(SOFT_HIGH_WATER));
        assert_eq!(q.take_high_water(), None);
        // Draining below the mark and refilling does not re-arm the latch:
        // one warning per queue per run.
        q.pop_front();
        q.push_back(cell(SOFT_HIGH_WATER as u64, 0));
        assert_eq!(q.take_high_water(), None);
    }

    #[test]
    fn voq_set_reports_crossings_and_longest_queue() {
        let mut set = VoqSet::new(4);
        assert_eq!(set.longest_queue(), None);
        for i in 0..SOFT_HIGH_WATER {
            set.push_back(PortId(2), cell(i as u64, i as u32));
        }
        set.push_back(PortId(0), cell(0, 0));
        assert_eq!(set.longest_queue(), Some((PortId(2), SOFT_HIGH_WATER)));
        assert_eq!(set.take_high_water(PortId(0)), None);
        assert_eq!(set.take_high_water(PortId(2)), Some(SOFT_HIGH_WATER));
        assert_eq!(set.take_high_water(PortId(2)), None);
    }

    #[test]
    fn iter_walks_head_to_tail() {
        let mut q = Voq::new();
        q.push_back(cell(1, 0));
        q.push_back(cell(2, 1));
        let stamps: Vec<u64> = q.iter().map(|c| c.time_stamp.index()).collect();
        assert_eq!(stamps, vec![1, 2]);
    }
}
