//! One input port: data-cell buffer plus `N` virtual output queues, with
//! the packet preprocessing of the paper's Table 1.

use fifoms_types::{Packet, PacketId, PortId, PortSet, Slot};

use crate::buffer::{AdmissionPolicy, BufferConfig};
use crate::cell::{AddressCell, DataCellKey};
use crate::slab::DataCellSlab;
use crate::voq::VoqSet;

/// A queued copy evicted by pushout admission to make room for an arrival.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EvictedCopy {
    /// The packet the evicted address cell belonged to.
    pub packet: PacketId,
    /// The evicted packet's original arrival slot (its FIFOMS stamp).
    pub arrival: Slot,
    /// The VOQ (destination output) the cell was evicted from.
    pub output: PortId,
}

/// What finite-buffer admission did with one arriving packet.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BoundedAdmission {
    /// The data cell allocated for the admitted copies (`None` when every
    /// copy was shed, in which case no buffer state was consumed at all).
    pub key: Option<DataCellKey>,
    /// Arriving copies refused (their destination outputs).
    pub shed: Vec<PortId>,
    /// Already-queued copies pushed out to make room (pushout policy).
    pub evicted: Vec<EvictedCopy>,
}

/// The buffering state of one input port of the multicast VOQ switch.
///
/// Combines the [`DataCellSlab`] (payloads, stored once) with the
/// [`VoqSet`] (address cells, one queue per output). [`InputPort::admit`]
/// is the preprocessing algorithm of Table 1:
///
/// ```text
/// Input: a new packet.
/// Output: data cell and address cells of the packet.
/// create a new data cell;
/// dataCell.fanoutCounter = fanout of the packet;
/// for each destination output port of the packet {
///     create a new address cell;
///     addressCell.timeStamp = current time slot;
///     addressCell.pDataCell = pointer to the data cell;
///     put the address cell at the end of the virtual output queue
///         corresponding to the output port;
/// }
/// ```
#[derive(Clone, Debug)]
pub struct InputPort {
    slab: DataCellSlab,
    voqs: VoqSet,
}

impl InputPort {
    /// An empty input port of an `n×n` switch.
    pub fn new(n: usize) -> InputPort {
        InputPort {
            slab: DataCellSlab::new(),
            voqs: VoqSet::new(n),
        }
    }

    /// Preprocess an arriving packet (Table 1): allocate its data cell and
    /// append one address cell per destination. Returns the data cell key.
    pub fn admit(&mut self, packet: &Packet) -> DataCellKey {
        let key = self
            .slab
            .alloc(packet.id, packet.arrival, packet.fanout() as u32);
        for dest in &packet.dests {
            self.voqs.push_back(
                dest,
                AddressCell {
                    time_stamp: packet.arrival,
                    data: key,
                },
            );
        }
        key
    }

    /// Preprocess an arriving packet against finite buffer limits: admit
    /// the copies the [`BufferConfig`] allows, shed or push out the rest.
    ///
    /// Policy semantics (all deterministic, all stamp-preserving):
    ///
    /// * every policy drop-tails at the per-VOQ limit — an arriving copy
    ///   whose own queue is full is refused (pushing out that queue's tail
    ///   for an even younger arrival would gain nothing);
    /// * when only the per-input aggregate binds, [`AdmissionPolicy::Pushout`]
    ///   evicts the tail of the *longest* VOQ (strictly longer than the
    ///   arriving copy's queue) instead of refusing the arrival, and
    ///   [`AdmissionPolicy::FairShed`] considers destinations shortest
    ///   queue first so the longest flows shed first;
    /// * [`AdmissionPolicy::DropTail`] refuses arriving copies in
    ///   destination order once the aggregate is full.
    pub fn admit_bounded(&mut self, packet: &Packet, cfg: &BufferConfig) -> BoundedAdmission {
        let mut admitted: Vec<PortId> = Vec::new();
        let mut shed: Vec<PortId> = Vec::new();
        let mut evicted: Vec<EvictedCopy> = Vec::new();
        let mut occupancy = self.voqs.total_cells();

        let mut order: Vec<PortId> = packet.dests.iter().collect();
        if cfg.policy == AdmissionPolicy::FairShed {
            // Stable sort by queue length: ties keep ascending port order.
            order.sort_by_key(|d| self.voqs.queue(*d).len());
        }
        for dest in order {
            let own_len = self.voqs.queue(dest).len();
            if cfg.voq_cap.is_some_and(|cap| own_len >= cap) {
                shed.push(dest);
                continue;
            }
            if cfg.input_cap.is_some_and(|cap| occupancy >= cap) {
                let victim = if cfg.policy == AdmissionPolicy::Pushout {
                    // Evict only from a strictly longer queue: equal-length
                    // eviction would just thrash copies between flows.
                    self.voqs.longest_queue().filter(|&(_, len)| len > own_len)
                } else {
                    None
                };
                // `longest_queue` reported the victim nonempty; if the
                // pop still comes back empty, shed instead of panicking.
                let popped = victim.and_then(|(victim_q, _)| {
                    self.voqs.pop_back(victim_q).map(|cell| (victim_q, cell))
                });
                match popped {
                    Some((victim_q, cell)) => {
                        let data = *self.slab.get(cell.data);
                        self.slab.serve_destination(cell.data);
                        evicted.push(EvictedCopy {
                            packet: data.packet,
                            arrival: data.arrival,
                            output: victim_q,
                        });
                        occupancy -= 1;
                    }
                    None => {
                        shed.push(dest);
                        continue;
                    }
                }
            }
            admitted.push(dest);
            occupancy += 1;
        }

        let key = if admitted.is_empty() {
            None
        } else {
            let key = self
                .slab
                .alloc(packet.id, packet.arrival, admitted.len() as u32);
            for dest in &admitted {
                self.voqs.push_back(
                    *dest,
                    AddressCell {
                        time_stamp: packet.arrival,
                        data: key,
                    },
                );
            }
            Some(key)
        };
        BoundedAdmission { key, shed, evicted }
    }

    /// The data-cell buffer.
    pub fn slab(&self) -> &DataCellSlab {
        &self.slab
    }

    /// Mutable data-cell buffer (used by the switch's post-transmission
    /// processing).
    pub fn slab_mut(&mut self) -> &mut DataCellSlab {
        &mut self.slab
    }

    /// The virtual output queues.
    pub fn voqs(&self) -> &VoqSet {
        &self.voqs
    }

    /// Mutable virtual output queues.
    pub fn voqs_mut(&mut self) -> &mut VoqSet {
        &mut self.voqs
    }

    /// Unsent packets held (the paper's queue-size metric for this port).
    pub fn held_packets(&self) -> usize {
        self.slab.live()
    }

    /// Undelivered copies queued at this port.
    pub fn queued_copies(&self) -> usize {
        self.voqs.total_cells()
    }

    /// Whether this port holds nothing.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty() && self.voqs.is_empty()
    }

    /// Structural invariant: the sum of fanout counters of live data cells
    /// equals the number of queued address cells, every queued address
    /// cell points at a live data cell, and the VOQ occupancy mask names
    /// exactly the non-empty queues. Used by tests and debug builds.
    pub fn check_invariants(&self) {
        let counter_sum: usize = self
            .slab
            .iter_live()
            .map(|(_, c)| c.fanout_counter as usize)
            .sum();
        assert_eq!(
            counter_sum,
            self.voqs.total_cells(),
            "fanout counters disagree with queued address cells"
        );
        let nonempty: PortSet = (0..self.voqs.outputs())
            .filter(|&o| !self.voqs.queue(PortId::new(o)).is_empty())
            .collect();
        assert_eq!(
            *self.voqs.heads(),
            nonempty,
            "VOQ occupancy mask disagrees with the non-empty queues"
        );
        for o in 0..self.voqs.outputs() {
            for cell in self.voqs.queue(PortId::new(o)).iter() {
                // get() panics on stale keys
                let data = self.slab.get(cell.data);
                assert_eq!(
                    data.arrival, cell.time_stamp,
                    "address cell stamp disagrees with data cell arrival"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifoms_types::{PacketId, Slot};

    fn packet(id: u64, arrival: u64, dests: &[usize]) -> Packet {
        Packet::new(
            PacketId(id),
            Slot(arrival),
            PortId(0),
            dests.iter().copied().collect::<PortSet>(),
        )
    }

    #[test]
    fn admit_creates_one_data_cell_and_fanout_address_cells() {
        let mut port = InputPort::new(4);
        let key = port.admit(&packet(1, 5, &[0, 2, 3]));
        assert_eq!(port.held_packets(), 1);
        assert_eq!(port.queued_copies(), 3);
        let data = port.slab().get(key);
        assert_eq!(data.fanout_counter, 3);
        // each destination queue got exactly one cell pointing at the key
        for o in [0usize, 2, 3] {
            let hol = port.voqs().queue(PortId::new(o)).hol().unwrap();
            assert_eq!(hol.data, key);
            assert_eq!(hol.time_stamp, Slot(5));
        }
        assert!(port.voqs().queue(PortId(1)).is_empty());
        port.check_invariants();
    }

    #[test]
    fn multiple_packets_queue_in_arrival_order() {
        let mut port = InputPort::new(4);
        port.admit(&packet(1, 1, &[0, 1]));
        port.admit(&packet(2, 3, &[1]));
        port.admit(&packet(3, 4, &[1, 2]));
        assert_eq!(port.held_packets(), 3);
        assert_eq!(port.queued_copies(), 5);
        let q1: Vec<u64> = port
            .voqs()
            .queue(PortId(1))
            .iter()
            .map(|c| c.time_stamp.index())
            .collect();
        assert_eq!(q1, vec![1, 3, 4]);
        port.check_invariants();
    }

    #[test]
    fn paper_figure_2_example() {
        // Fig. 2: input port 0 holds packets arrived at slots 1, 3, 4, 7:
        //   slot 1: fanout 3 → outputs {0,1,2}
        //   slot 3: outputs {2,3}
        //   slot 4: outputs {0,3}   (from the figure's queues)
        //   slot 7: unicast → output 1
        let mut port = InputPort::new(4);
        port.admit(&packet(1, 1, &[0, 1, 2]));
        port.admit(&packet(2, 3, &[2, 3]));
        port.admit(&packet(3, 4, &[0, 3]));
        port.admit(&packet(4, 7, &[1]));
        assert_eq!(port.held_packets(), 4);
        let stamps = |o: u16| -> Vec<u64> {
            port.voqs()
                .queue(PortId(o))
                .iter()
                .map(|c| c.time_stamp.index())
                .collect()
        };
        assert_eq!(stamps(0), vec![1, 4]);
        assert_eq!(stamps(1), vec![1, 7]);
        assert_eq!(stamps(2), vec![1, 3]);
        assert_eq!(stamps(3), vec![3, 4]);
        port.check_invariants();
    }

    #[test]
    fn empty_port_invariants() {
        let port = InputPort::new(8);
        assert!(port.is_empty());
        assert_eq!(port.held_packets(), 0);
        assert_eq!(port.queued_copies(), 0);
        port.check_invariants();
    }

    #[test]
    fn bounded_admit_with_room_matches_unbounded() {
        let cfg = BufferConfig::bounded(4, 16);
        let mut port = InputPort::new(4);
        let out = port.admit_bounded(&packet(1, 5, &[0, 2, 3]), &cfg);
        assert!(out.shed.is_empty());
        assert!(out.evicted.is_empty());
        let data = port.slab().get(out.key.unwrap());
        assert_eq!(data.fanout_counter, 3);
        assert_eq!(port.queued_copies(), 3);
        port.check_invariants();
    }

    #[test]
    fn drop_tail_refuses_copies_at_the_voq_cap() {
        let cfg = BufferConfig::bounded(2, 0);
        let mut port = InputPort::new(4);
        port.admit_bounded(&packet(1, 0, &[1]), &cfg);
        port.admit_bounded(&packet(2, 1, &[1]), &cfg);
        // VOQ 1 is full: the copy to 1 sheds, the copy to 2 still admits.
        let out = port.admit_bounded(&packet(3, 2, &[1, 2]), &cfg);
        assert_eq!(out.shed, vec![PortId(1)]);
        assert!(out.evicted.is_empty());
        assert_eq!(port.slab().get(out.key.unwrap()).fanout_counter, 1);
        assert_eq!(port.queued_copies(), 3);
        port.check_invariants();
    }

    #[test]
    fn drop_tail_refuses_everything_at_the_aggregate_cap() {
        let cfg = BufferConfig::bounded(0, 2);
        let mut port = InputPort::new(4);
        port.admit_bounded(&packet(1, 0, &[0, 1]), &cfg);
        let out = port.admit_bounded(&packet(2, 1, &[2, 3]), &cfg);
        assert_eq!(out.key, None, "fully shed packet must consume no buffer");
        assert_eq!(out.shed, vec![PortId(2), PortId(3)]);
        assert_eq!(port.held_packets(), 1);
        assert_eq!(port.queued_copies(), 2);
        port.check_invariants();
    }

    #[test]
    fn pushout_evicts_the_tail_of_the_longest_queue() {
        let cfg = BufferConfig {
            voq_cap: None,
            input_cap: Some(3),
            policy: AdmissionPolicy::Pushout,
        };
        let mut port = InputPort::new(4);
        port.admit_bounded(&packet(1, 0, &[1]), &cfg);
        port.admit_bounded(&packet(2, 1, &[1]), &cfg);
        port.admit_bounded(&packet(3, 2, &[1]), &cfg);
        // Aggregate full; queue 1 holds 3 cells. An arrival for the empty
        // queue 2 pushes out queue 1's tail (packet 3, the youngest stamp).
        let out = port.admit_bounded(&packet(4, 3, &[2]), &cfg);
        assert!(out.shed.is_empty());
        assert_eq!(
            out.evicted,
            vec![EvictedCopy {
                packet: PacketId(3),
                arrival: Slot(2),
                output: PortId(1),
            }]
        );
        assert_eq!(port.queued_copies(), 3);
        // Queue 1's FIFO head is untouched: stamps still nondecreasing.
        let stamps: Vec<u64> = port
            .voqs()
            .queue(PortId(1))
            .iter()
            .map(|c| c.time_stamp.index())
            .collect();
        assert_eq!(stamps, vec![0, 1]);
        port.check_invariants();
    }

    #[test]
    fn pushout_falls_back_to_drop_tail_against_its_own_queue() {
        let cfg = BufferConfig {
            voq_cap: None,
            input_cap: Some(2),
            policy: AdmissionPolicy::Pushout,
        };
        let mut port = InputPort::new(4);
        port.admit_bounded(&packet(1, 0, &[1]), &cfg);
        port.admit_bounded(&packet(2, 1, &[1]), &cfg);
        // The arriving copy's own queue IS the longest: no strictly longer
        // victim exists, so the arrival is refused instead of thrashing.
        let out = port.admit_bounded(&packet(3, 2, &[1]), &cfg);
        assert_eq!(out.shed, vec![PortId(1)]);
        assert!(out.evicted.is_empty());
        assert_eq!(port.queued_copies(), 2);
        port.check_invariants();
    }

    #[test]
    fn fair_shed_drops_copies_for_the_longest_queues_first() {
        let cfg = BufferConfig {
            voq_cap: None,
            input_cap: Some(4),
            policy: AdmissionPolicy::FairShed,
        };
        let mut port = InputPort::new(4);
        port.admit_bounded(&packet(1, 0, &[0]), &cfg);
        port.admit_bounded(&packet(2, 1, &[0]), &cfg);
        port.admit_bounded(&packet(3, 2, &[1]), &cfg);
        // One free slot, fanout-2 arrival {0, 3}: queue 3 (empty, shortest)
        // wins it; the copy for queue 0 (longest) is shed.
        let out = port.admit_bounded(&packet(4, 3, &[0, 3]), &cfg);
        assert_eq!(out.shed, vec![PortId(0)]);
        assert_eq!(port.voqs().queue(PortId(3)).len(), 1);
        assert_eq!(port.slab().get(out.key.unwrap()).fanout_counter, 1);
        port.check_invariants();
    }
}
