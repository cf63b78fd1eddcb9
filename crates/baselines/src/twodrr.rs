//! 2DRR — the Two-Dimensional Round-Robin scheduler (LaMaire and
//! Serpanos, IEEE/ACM ToN 1994), referenced by the paper as one of the
//! classic VOQ unicast schedulers (\[9\]).
//!
//! 2DRR views the request matrix `R[i][j]` ("input `i` has a cell for
//! output `j`") as `N` *generalized diagonals* — diagonal `k` is the set
//! of matrix positions `{(i, (i+k) mod N)}`, which by construction is a
//! conflict-free matching pattern. Each slot the scheduler scans all `N`
//! diagonals, granting every requested position whose input and output
//! are still free; the *order* in which diagonals are scanned rotates
//! from slot to slot through a pattern sequence, which is what gives
//! every VOQ the same long-run service opportunity and full throughput
//! under uniform traffic.
//!
//! We implement the basic 2DRR of the original paper: the diagonal
//! scan order in slot `t` starts at diagonal `t mod N` and proceeds
//! cyclically. Multicast packets are expanded into independent unicast
//! copies at admission, exactly like the paper treats iSLIP (§V).

use fifoms_fabric::{Backlog, Switch};
use fifoms_types::{Packet, Slot, SlotOutcome};

use crate::common::UnicastVoqs;

/// A VOQ switch scheduled by two-dimensional round-robin.
#[derive(Clone, Debug)]
pub struct TwoDrrSwitch {
    n: usize,
    voqs: UnicastVoqs,
    /// Rotating start diagonal (advanced every slot).
    pattern: usize,
}

impl TwoDrrSwitch {
    /// An `n×n` 2DRR switch.
    pub fn new(n: usize) -> TwoDrrSwitch {
        assert!(n > 0, "switch needs at least one port");
        TwoDrrSwitch {
            n,
            voqs: UnicastVoqs::new(n),
            pattern: 0,
        }
    }

    /// The diagonal the next slot's scan starts from (test hook).
    pub fn pattern(&self) -> usize {
        self.pattern
    }
}

impl Switch for TwoDrrSwitch {
    fn name(&self) -> String {
        "2DRR".to_string()
    }

    fn ports(&self) -> usize {
        self.n
    }

    fn admit(&mut self, packet: Packet) {
        self.voqs.admit(packet);
    }

    fn run_slot(&mut self, _now: Slot) -> SlotOutcome {
        let n = self.n;
        let mut input_free = vec![true; n];
        let mut output_free = vec![true; n];
        let mut departures = Vec::new();
        // Scan the N generalized diagonals, starting at the rotating
        // pattern index; within a diagonal every position is conflict-free
        // by construction, so positions are examined in input order. A
        // matched pair frees neither port again, so its copy can leave at
        // once.
        for d in 0..n {
            let k = (self.pattern + d) % n;
            #[allow(clippy::needless_range_loop)] // `i` derives `j` too
            for i in 0..n {
                let j = (i + k) % n;
                if input_free[i] && output_free[j] && !self.voqs.is_empty(i, j) {
                    input_free[i] = false;
                    output_free[j] = false;
                    departures.push(self.voqs.serve(i, j));
                }
            }
        }
        self.pattern = (self.pattern + 1) % n;

        SlotOutcome {
            connections: departures.len(),
            rounds: 1.min(departures.len() as u32),
            departures,
        }
    }

    fn queue_sizes(&self, out: &mut Vec<usize>) {
        self.voqs.queue_sizes(out);
    }

    fn backlog(&self) -> Backlog {
        self.voqs.backlog()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn single_cell_served() {
        let mut sw = TwoDrrSwitch::new(4);
        sw.admit(pkt(1, 0, 0, &[2]));
        let out = sw.run_slot(Slot(0));
        assert_eq!(out.departures.len(), 1);
        assert_eq!(out.departures[0].output, PortId(2));
        assert!(sw.backlog().is_empty());
    }

    #[test]
    fn dense_demand_perfect_matching() {
        // Every VOQ non-empty: the diagonal scan must find a perfect
        // matching every slot (the 2DRR full-throughput property).
        let mut sw = TwoDrrSwitch::new(4);
        let mut id = 0;
        for i in 0..4u16 {
            for o in 0..4usize {
                for _ in 0..4 {
                    id += 1;
                    sw.admit(pkt(id, 0, i, &[o]));
                }
            }
        }
        for t in 0..8u64 {
            let out = sw.run_slot(Slot(t));
            assert_eq!(out.departures.len(), 4, "slot {t} not a perfect matching");
        }
    }

    #[test]
    fn pattern_rotates_every_slot() {
        let mut sw = TwoDrrSwitch::new(4);
        assert_eq!(sw.pattern(), 0);
        sw.run_slot(Slot(0));
        assert_eq!(sw.pattern(), 1);
        for t in 1..4u64 {
            sw.run_slot(Slot(t));
        }
        assert_eq!(sw.pattern(), 0, "pattern cycles mod N");
    }

    #[test]
    fn rotation_shares_service_between_contending_voqs() {
        // Inputs 0 and 1 both continuously loaded for outputs 0 and 1.
        // Over 2 consecutive slots the rotation must serve all four VOQs
        // rather than repeatedly favouring one diagonal.
        let mut sw = TwoDrrSwitch::new(2);
        let mut id = 0;
        for _ in 0..20 {
            for i in 0..2u16 {
                for o in 0..2usize {
                    id += 1;
                    sw.admit(pkt(id, 0, i, &[o]));
                }
            }
        }
        let mut served = std::collections::HashSet::new();
        for t in 0..2u64 {
            for d in sw.run_slot(Slot(t)).departures {
                served.insert((d.input.0, d.output.0));
            }
        }
        assert_eq!(served.len(), 4, "two slots must cover all four VOQs");
    }

    #[test]
    fn matching_legality() {
        // Random-ish demand: no input or output matched twice in a slot.
        let mut sw = TwoDrrSwitch::new(8);
        let mut id = 0;
        for i in 0..8u16 {
            for o in [(i as usize + 1) % 8, (i as usize + 3) % 8] {
                id += 1;
                sw.admit(pkt(id, 0, i, &[o]));
            }
        }
        let out = sw.run_slot(Slot(0));
        let mut ins = std::collections::HashSet::new();
        let mut outs = std::collections::HashSet::new();
        for d in &out.departures {
            assert!(ins.insert(d.input.0), "input matched twice");
            assert!(outs.insert(d.output.0), "output matched twice");
        }
    }

    #[test]
    fn conservation() {
        let mut sw = TwoDrrSwitch::new(4);
        let mut copies = 0;
        for i in 0..4u16 {
            sw.admit(pkt(i as u64 + 1, 0, i, &[0, 1, 2, 3]));
            copies += 4;
        }
        let mut delivered = 0;
        let mut t = 0;
        while !sw.backlog().is_empty() {
            delivered += sw.run_slot(Slot(t)).departures.len();
            t += 1;
            assert!(t < 100);
        }
        assert_eq!(delivered, copies);
    }
}
