//! TATRA — Tetris-based multicast scheduling on a single-input-queued
//! switch (Ahuja, Prabhakar, McKeown; IEEE JSAC 1997).
//!
//! # Interpretation notes (see DESIGN.md)
//!
//! TATRA's published description maps scheduling onto the Tetris game:
//! each output port is a *column*; a HOL cell drops one block into every
//! column of its residue (the destinations still to serve); a block's
//! landing height is the number of slots until that copy departs; each
//! slot the bottom row departs and the pile falls by one. Fanout
//! splitting appears naturally: a cell's blocks may land at different
//! heights, so its copies depart in different slots.
//!
//! We realise this as an explicit departure-schedule grid:
//!
//! * `columns[o]` is the future departure schedule of output `o`; level
//!   `l` (0-based = this slot) holds at most one input index;
//! * when a cell reaches the head of its input's FIFO, each copy is
//!   packed at the **earliest free level** of its column;
//! * cells reaching HOL in the same slot are packed oldest-arrival-first
//!   (TATRA's strict-fairness rule: an earlier cell is never displaced by
//!   a later one — once placed, levels only fall).
//!
//! The single FIFO per input is the whole point of the comparison: the
//! HOL cell's residue blocks everything behind it, which caps unicast
//! throughput near the classic 0.586 and makes the switch unstable well
//! before FIFOMS under multicast load (paper Figs. 4, 6–8).

use std::collections::VecDeque;

use fifoms_fabric::{Backlog, Switch};
use fifoms_types::{Packet, PortSet, Slot, SlotOutcome};

use crate::common::InputFifos;

/// TATRA switch: one FIFO per input, Tetris departure-date packing.
#[derive(Clone, Debug)]
pub struct TatraSwitch {
    n: usize,
    fifos: InputFifos,
    /// Whether the current HOL cell of each input has been packed into the
    /// columns.
    hol_placed: Vec<bool>,
    /// `columns[o][l]` = input whose HOL cell departs to output `o` at
    /// level `l` (level 0 departs in the current slot).
    columns: Vec<VecDeque<Option<u16>>>,
}

impl TatraSwitch {
    /// An `n×n` TATRA switch.
    pub fn new(n: usize) -> TatraSwitch {
        assert!(n > 0, "switch needs at least one port");
        TatraSwitch {
            n,
            fifos: InputFifos::new(n),
            hol_placed: vec![false; n],
            columns: vec![VecDeque::new(); n],
        }
    }

    /// Pack every unplaced HOL cell into the columns, oldest arrival first.
    fn place_hol_cells(&mut self) {
        let mut order: Vec<(Slot, usize, PortSet)> = (0..self.n)
            .filter(|&i| !self.hol_placed[i])
            .filter_map(|i| self.fifos.hol(i).map(|c| (c.arrival, i, c.residue.clone())))
            .collect();
        order.sort_unstable_by_key(|&(arrival, i, _)| (arrival, i));
        for (_, i, residue) in order {
            for o in &residue {
                let col = &mut self.columns[o.index()];
                // earliest free level in this column
                let level = col.iter().position(Option::is_none).unwrap_or_else(|| {
                    col.push_back(None);
                    col.len() - 1
                });
                col[level] = Some(i as u16);
            }
            self.hol_placed[i] = true;
        }
    }

    /// Peak packed height across columns (diagnostic; the Tetris "pile
    /// height" — a lower bound on the time to drain the current HOLs).
    pub fn pile_height(&self) -> usize {
        self.columns.iter().map(VecDeque::len).max().unwrap_or(0)
    }
}

impl Switch for TatraSwitch {
    fn name(&self) -> String {
        "TATRA".to_string()
    }

    fn ports(&self) -> usize {
        self.n
    }

    fn admit(&mut self, packet: Packet) {
        self.fifos.admit(packet);
    }

    fn run_slot(&mut self, _now: Slot) -> SlotOutcome {
        // Pack any cell that became HOL since the last slot (including
        // fresh arrivals into empty FIFOs — they may depart this very
        // slot if their columns' level 0 is free).
        self.place_hol_cells();

        // Bottom row departs.
        let mut departures = Vec::new();
        for o in 0..self.n {
            let Some(slot0) = self.columns[o].pop_front() else {
                continue;
            };
            let Some(i) = slot0 else { continue };
            let i = i as usize;
            let departure = self.fifos.serve(i, o);
            if departure.last_copy {
                self.hol_placed[i] = false; // successor packs next slot
            }
            departures.push(departure);
        }
        SlotOutcome {
            connections: departures.len(),
            rounds: 0, // TATRA is not an iterative matcher
            departures,
        }
    }

    fn queue_sizes(&self, out: &mut Vec<usize>) {
        self.fifos.queue_sizes(out);
    }

    fn backlog(&self) -> Backlog {
        self.fifos.backlog()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifoms_types::{PacketId, PortId};

    fn pkt(id: u64, arrival: u64, input: u16, dests: &[usize]) -> Packet {
        Packet::new(
            PacketId(id),
            Slot(arrival),
            PortId(input),
            dests.iter().copied().collect::<PortSet>(),
        )
    }

    #[test]
    fn uncontended_multicast_departs_in_one_slot() {
        let mut sw = TatraSwitch::new(4);
        sw.admit(pkt(1, 0, 0, &[0, 1, 3]));
        let out = sw.run_slot(Slot(0));
        assert_eq!(out.departures.len(), 3);
        assert_eq!(out.completed_packets(), 1);
        assert!(sw.backlog().is_empty());
    }

    #[test]
    fn hol_blocking_demonstrated() {
        // Input 0: HOL cell to output 0 (contended), then a cell to the
        // free output 1. The second cell cannot leave until the first has
        // fully departed — even though output 1 idles. (FIFOMS would serve
        // it immediately: this is the paper's core claim.)
        let mut sw = TatraSwitch::new(4);
        sw.admit(pkt(1, 0, 1, &[0])); // older contender at input 1
        sw.admit(pkt(2, 1, 0, &[0])); // input 0 HOL, loses level 0
        sw.admit(pkt(3, 1, 0, &[1])); // blocked behind it
        // slot 1: input 1's older cell placed first, takes level 0 of col 0
        let out = sw.run_slot(Slot(1));
        let served: Vec<u64> = out.departures.iter().map(|d| d.packet.raw()).collect();
        assert_eq!(served, vec![1]);
        // output 1 idled despite packet 3 wanting it → HOL blocking
        // slot 2: packet 2 departs; packet 3 still waits (placed next slot)
        let out = sw.run_slot(Slot(2));
        let served: Vec<u64> = out.departures.iter().map(|d| d.packet.raw()).collect();
        assert_eq!(served, vec![2]);
        // slot 3: packet 3 finally goes
        let out = sw.run_slot(Slot(3));
        let served: Vec<u64> = out.departures.iter().map(|d| d.packet.raw()).collect();
        assert_eq!(served, vec![3]);
    }

    #[test]
    fn fanout_splitting_residue_stays_at_hol() {
        // Input 0 multicast {0,1}; output 0's level 0 stolen by input 1's
        // older unicast. The copy to output 1 departs first; the residue
        // to output 0 departs one slot later.
        let mut sw = TatraSwitch::new(4);
        sw.admit(pkt(1, 0, 1, &[0]));
        sw.admit(pkt(2, 1, 0, &[0, 1]));
        let out = sw.run_slot(Slot(1));
        let mut served: Vec<(u64, usize, bool)> = out
            .departures
            .iter()
            .map(|d| (d.packet.raw(), d.output.index(), d.last_copy))
            .collect();
        served.sort_unstable();
        assert_eq!(served, vec![(1, 0, true), (2, 1, false)]);
        let out = sw.run_slot(Slot(2));
        assert_eq!(out.departures.len(), 1);
        assert_eq!(out.departures[0].output, PortId(0));
        assert!(out.departures[0].last_copy);
        assert!(sw.backlog().is_empty());
    }

    #[test]
    fn strict_fairness_older_cell_packs_first() {
        // Two cells reach HOL in the same slot wanting the same output;
        // the older arrival gets the lower level.
        let mut sw = TatraSwitch::new(4);
        sw.admit(pkt(1, 0, 2, &[3]));
        sw.admit(pkt(2, 1, 0, &[3]));
        let out = sw.run_slot(Slot(1));
        assert_eq!(out.departures[0].packet, PacketId(1));
        let out = sw.run_slot(Slot(2));
        assert_eq!(out.departures[0].packet, PacketId(2));
    }

    #[test]
    fn conservation_under_random_load() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut sw = TatraSwitch::new(8);
        let mut rng = SmallRng::seed_from_u64(21);
        let mut admitted = 0usize;
        let mut delivered = 0usize;
        let mut id = 0u64;
        for t in 0..300u64 {
            for input in 0..8u16 {
                if rng.gen_bool(0.2) {
                    let fanout = rng.gen_range(1..=3);
                    let mut dests = PortSet::new();
                    while dests.len() < fanout {
                        dests.insert(PortId(rng.gen_range(0..8)));
                    }
                    admitted += dests.len();
                    id += 1;
                    sw.admit(Packet::new(PacketId(id), Slot(t), PortId(input), dests));
                }
            }
            delivered += sw.run_slot(Slot(t)).departures.len();
        }
        let mut t = 300u64;
        while !sw.backlog().is_empty() {
            delivered += sw.run_slot(Slot(t)).departures.len();
            t += 1;
            assert!(t < 50_000, "TATRA failed to drain");
        }
        assert_eq!(delivered, admitted);
    }

    #[test]
    fn one_cell_per_input_in_flight() {
        // At every slot, all departures from one input must carry the same
        // packet (single FIFO ⇒ only the HOL cell transmits).
        let mut sw = TatraSwitch::new(4);
        sw.admit(pkt(1, 0, 0, &[0, 1]));
        sw.admit(pkt(2, 1, 0, &[2, 3]));
        for t in 0..6u64 {
            let out = sw.run_slot(Slot(t));
            let mut per_input: std::collections::HashMap<u16, u64> = Default::default();
            for d in &out.departures {
                let prev = per_input.insert(d.input.0, d.packet.raw());
                if let Some(p) = prev {
                    assert_eq!(p, d.packet.raw(), "two packets from one input");
                }
            }
        }
        assert!(sw.backlog().is_empty());
    }

    #[test]
    fn queue_sizes_count_fifo_cells() {
        let mut sw = TatraSwitch::new(4);
        sw.admit(pkt(1, 0, 0, &[0, 1]));
        sw.admit(pkt(2, 0, 0, &[2]));
        sw.admit(pkt(3, 0, 3, &[2]));
        let mut q = Vec::new();
        sw.queue_sizes(&mut q);
        assert_eq!(q, vec![2, 0, 0, 1]);
        assert_eq!(sw.backlog().copies, 4);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Random batches of multicast cells: (input, dest-set) pairs.
        fn batch() -> impl Strategy<Value = Vec<(u16, Vec<usize>)>> {
            proptest::collection::vec(
                (0u16..6, proptest::collection::btree_set(0usize..6, 1..4)),
                1..24,
            )
            .prop_map(|v| {
                v.into_iter()
                    .map(|(i, d)| (i, d.into_iter().collect::<Vec<_>>()))
                    .collect()
            })
        }

        proptest! {
            /// Physical legality per slot: each output serves at most one
            /// copy; each input's departures all belong to its HOL cell;
            /// and the batch drains completely with exact copy counts.
            #[test]
            fn prop_legal_slots_and_exact_drain(batch in batch()) {
                let mut sw = TatraSwitch::new(6);
                let mut expected = 0usize;
                for (k, (input, dests)) in batch.iter().enumerate() {
                    expected += dests.len();
                    sw.admit(pkt(k as u64 + 1, k as u64 / 6, *input, dests));
                }
                let mut delivered = 0usize;
                let mut t = 100u64;
                while !sw.backlog().is_empty() {
                    let out = sw.run_slot(Slot(t));
                    let mut outputs = std::collections::HashSet::new();
                    let mut per_input: std::collections::HashMap<u16, u64> =
                        Default::default();
                    for d in &out.departures {
                        prop_assert!(outputs.insert(d.output.0), "output served twice");
                        if let Some(prev) = per_input.insert(d.input.0, d.packet.raw()) {
                            prop_assert_eq!(prev, d.packet.raw(), "two cells from one input");
                        }
                    }
                    delivered += out.departures.len();
                    t += 1;
                    prop_assert!(t < 10_000, "failed to drain");
                }
                prop_assert_eq!(delivered, expected);
            }

            /// FIFO discipline per input: completion order of cells from
            /// one input follows their queue order.
            #[test]
            fn prop_per_input_completion_order(batch in batch()) {
                let mut sw = TatraSwitch::new(6);
                for (k, (input, dests)) in batch.iter().enumerate() {
                    sw.admit(pkt(k as u64 + 1, k as u64 / 6, *input, dests));
                }
                // remember admission order per input
                let mut order: std::collections::HashMap<u16, Vec<u64>> = Default::default();
                for (k, (input, _)) in batch.iter().enumerate() {
                    order.entry(*input).or_default().push(k as u64 + 1);
                }
                let mut completed: std::collections::HashMap<u16, Vec<u64>> =
                    Default::default();
                let mut t = 100u64;
                while !sw.backlog().is_empty() {
                    for d in sw.run_slot(Slot(t)).departures {
                        if d.last_copy {
                            completed.entry(d.input.0).or_default().push(d.packet.raw());
                        }
                    }
                    t += 1;
                    prop_assert!(t < 10_000);
                }
                for (input, comp) in completed {
                    prop_assert_eq!(
                        comp,
                        order.remove(&input).unwrap(),
                        "input {} completed out of FIFO order",
                        input
                    );
                }
            }
        }
    }

    #[test]
    fn pile_height_reflects_contention() {
        let mut sw = TatraSwitch::new(4);
        for i in 0..4u16 {
            sw.admit(pkt(i as u64 + 1, 0, i, &[0]));
        }
        sw.place_hol_cells();
        assert_eq!(sw.pile_height(), 4, "four contenders stack in column 0");
    }
}
