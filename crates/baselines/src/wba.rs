//! WBA — weight-based multicast arbitration (Prabhakar, McKeown, Ahuja;
//! IEEE JSAC 1997), referenced by the paper's §IV-C for its O(1) parallel
//! comparator scheduling.
//!
//! WBA runs on the same single-input-FIFO switch as TATRA but arbitrates
//! per slot with weights instead of Tetris packing: each HOL cell is
//! assigned a weight that grows with its **age** (slots spent at HOL) and
//! shrinks with its **residual fanout** (favouring cells close to
//! completion, which frees inputs sooner); every output grants the
//! highest-weight requester, with ties broken randomly. Fanout splitting
//! is inherent — whatever subset of the residue wins departs.

use fifoms_fabric::{Backlog, Switch};
use fifoms_types::{Packet, PortId, PortSet, Slot, SlotOutcome};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{FifoCell, InputFifos};

/// Weight parameters for the WBA arbiter.
#[derive(Clone, Copy, Debug)]
pub struct WbaWeights {
    /// Weight per slot of HOL age (older wins).
    pub age: i64,
    /// Penalty per residual destination (smaller residue wins).
    pub fanout: i64,
}

impl Default for WbaWeights {
    fn default() -> WbaWeights {
        WbaWeights { age: 1, fanout: 1 }
    }
}

/// Single-input-queued multicast switch scheduled by WBA.
#[derive(Clone, Debug)]
pub struct WbaSwitch {
    n: usize,
    fifos: InputFifos,
    /// Slots the current HOL cell of each input has spent at the head.
    /// Only head cells age, so one counter per input suffices; it resets
    /// when the head leaves with its last copy.
    hol_age: Vec<u64>,
    weights: WbaWeights,
    rng: SmallRng,
}

impl WbaSwitch {
    /// An `n×n` WBA switch with default weights.
    pub fn new(n: usize, seed: u64) -> WbaSwitch {
        WbaSwitch::with_weights(n, seed, WbaWeights::default())
    }

    /// An `n×n` WBA switch with explicit weights (ablations).
    pub fn with_weights(n: usize, seed: u64, weights: WbaWeights) -> WbaSwitch {
        assert!(n > 0, "switch needs at least one port");
        WbaSwitch {
            n,
            fifos: InputFifos::new(n),
            hol_age: vec![0; n],
            weights,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn weight_of(&self, input: usize, cell: &FifoCell) -> i64 {
        self.weights.age * self.hol_age[input] as i64
            - self.weights.fanout * cell.residue.len() as i64
    }
}

impl Switch for WbaSwitch {
    fn name(&self) -> String {
        "WBA".to_string()
    }

    fn ports(&self) -> usize {
        self.n
    }

    fn admit(&mut self, packet: Packet) {
        self.fifos.admit(packet);
    }

    fn run_slot(&mut self, _now: Slot) -> SlotOutcome {
        // Arbitration: per output, the max-weight HOL requester wins.
        let mut departures = Vec::new();
        let weights: Vec<Option<i64>> = (0..self.n)
            .map(|i| self.fifos.hol(i).map(|c| self.weight_of(i, c)))
            .collect();
        let mut won: Vec<PortSet> = vec![PortSet::new(); self.n]; // per input
        for o in 0..self.n {
            let out = PortId::new(o);
            let mut best: Option<(i64, Vec<usize>)> = None;
            #[allow(clippy::needless_range_loop)] // `i` indexes fifos and weights
            for i in 0..self.n {
                let Some(cell) = self.fifos.hol(i) else {
                    continue;
                };
                if !cell.residue.contains(out) {
                    continue;
                }
                let w = weights[i].expect("front exists");
                match &mut best {
                    None => best = Some((w, vec![i])),
                    Some((bw, tied)) => {
                        if w > *bw {
                            best = Some((w, vec![i]));
                        } else if w == *bw {
                            tied.push(i);
                        }
                    }
                }
            }
            if let Some((_, tied)) = best {
                let winner = tied[self.rng.gen_range(0..tied.len())];
                won[winner].insert(out);
            }
        }
        // Transfer the won copies (fanout splitting).
        for (i, outs) in won.iter().enumerate() {
            for o in outs {
                let departure = self.fifos.serve(i, o.index());
                if departure.last_copy {
                    self.hol_age[i] = 0;
                }
                departures.push(departure);
            }
        }
        // Age surviving HOL cells.
        for (i, age) in self.hol_age.iter_mut().enumerate() {
            if self.fifos.hol(i).is_some() {
                *age += 1;
            }
        }
        SlotOutcome {
            connections: departures.len(),
            rounds: 1.min(departures.len() as u32), // single-phase arbiter
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
    use fifoms_types::PacketId;

    fn pkt(id: u64, arrival: u64, input: u16, dests: &[usize]) -> Packet {
        Packet::new(
            PacketId(id),
            Slot(arrival),
            PortId(input),
            dests.iter().copied().collect::<PortSet>(),
        )
    }

    #[test]
    fn uncontended_multicast_one_slot() {
        let mut sw = WbaSwitch::new(4, 0);
        sw.admit(pkt(1, 0, 0, &[0, 2, 3]));
        let out = sw.run_slot(Slot(0));
        assert_eq!(out.departures.len(), 3);
        assert_eq!(out.completed_packets(), 1);
        assert!(sw.backlog().is_empty());
    }

    #[test]
    fn smaller_residue_beats_equal_age() {
        // Both HOL cells age 0; input 0's residue is 1, input 1's is 3.
        // Weight = age - fanout ⇒ input 0 wins output 0.
        let mut sw = WbaSwitch::new(4, 7);
        sw.admit(pkt(1, 0, 0, &[0]));
        sw.admit(pkt(2, 0, 1, &[0, 1, 2]));
        let out = sw.run_slot(Slot(0));
        let d0 = out
            .departures
            .iter()
            .find(|d| d.output == PortId(0))
            .unwrap();
        assert_eq!(d0.input, PortId(0));
        // input 1 still gets outputs 1 and 2 (splitting)
        assert_eq!(
            out.departures.len(),
            3,
            "splitting must serve the uncontended copies"
        );
    }

    #[test]
    fn age_accumulates_and_wins() {
        // Input 0's fanout-2 cell keeps losing output 0 to a stream of
        // fresh unicasts? No — its age grows each slot it waits, so it
        // eventually outweighs the age-0 unicasts.
        let mut sw = WbaSwitch::new(4, 3);
        sw.admit(pkt(1, 0, 0, &[0, 1]));
        // fresh unicast contender for output 0 every slot
        let mut id = 10;
        let mut completed_at = None;
        for t in 0..10u64 {
            id += 1;
            sw.admit(pkt(id, t, 1, &[0]));
            let out = sw.run_slot(Slot(t));
            if out
                .departures
                .iter()
                .any(|d| d.packet == PacketId(1) && d.last_copy)
            {
                completed_at = Some(t);
                break;
            }
        }
        let t = completed_at.expect("multicast starved");
        assert!(t <= 3, "age weighting should win quickly, took {t}");
    }

    #[test]
    fn hol_blocking_still_present() {
        // WBA shares TATRA's single FIFO, so a blocked HOL cell still
        // blocks a deliverable one behind it.
        let mut sw = WbaSwitch::with_weights(
            4,
            0,
            WbaWeights { age: 1, fanout: 0 }, // pure age: older always wins
        );
        sw.admit(pkt(1, 0, 1, &[0]));
        sw.run_slot(Slot(0)); // pkt1 departs, ages nothing else
        sw.admit(pkt(2, 1, 1, &[0]));
        sw.admit(pkt(3, 1, 0, &[0])); // contends with pkt2
        sw.admit(pkt(4, 1, 0, &[1])); // blocked behind pkt3 at input 0
        let mut pkt4_done = None;
        for t in 1..10u64 {
            let out = sw.run_slot(Slot(t));
            if out.departures.iter().any(|d| d.packet == PacketId(4)) {
                pkt4_done = Some(t);
                break;
            }
        }
        // pkt4 could have left at slot 1 (output 1 idle) but had to wait
        // for pkt3 to win output 0 first.
        assert!(pkt4_done.unwrap() > 1, "HOL blocking absent?");
    }

    #[test]
    fn conservation_under_random_load() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut sw = WbaSwitch::new(8, 5);
        let mut rng = SmallRng::seed_from_u64(6);
        let (mut admitted, mut delivered, mut id) = (0usize, 0usize, 0u64);
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
            assert!(t < 50_000, "WBA failed to drain");
        }
        assert_eq!(delivered, admitted);
    }

    #[test]
    fn exactly_one_last_copy_per_packet() {
        let mut sw = WbaSwitch::new(4, 9);
        sw.admit(pkt(1, 0, 0, &[0, 1, 2, 3]));
        sw.admit(pkt(2, 0, 1, &[0, 1]));
        let mut last_copies = std::collections::HashMap::new();
        for t in 0..10u64 {
            for d in sw.run_slot(Slot(t)).departures {
                if d.last_copy {
                    *last_copies.entry(d.packet.raw()).or_insert(0) += 1;
                }
            }
            if sw.backlog().is_empty() {
                break;
            }
        }
        assert_eq!(last_copies.get(&1), Some(&1));
        assert_eq!(last_copies.get(&2), Some(&1));
    }
}
