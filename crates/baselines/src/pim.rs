//! PIM — Parallel Iterative Matching (Anderson, Owicki, Saxe, Thacker;
//! ACM TOCS 1993), the randomised ancestor of iSLIP.
//!
//! Same three-phase iteration as iSLIP, but the grant and accept arbiters
//! choose uniformly at random instead of round-robin. PIM converges to a
//! maximal matching in `O(log N)` expected iterations but, lacking pointer
//! desynchronisation, saturates around 63% with a single iteration;
//! iterated to convergence it is a solid unicast baseline and an ablation
//! point for "how much do iSLIP's pointers matter".
//!
//! Multicast is expanded to independent unicast copies at admission,
//! exactly like [`IslipSwitch`](crate::IslipSwitch).

use fifoms_fabric::{Backlog, Switch};
use fifoms_types::{Packet, Slot, SlotOutcome};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::UnicastVoqs;

/// A VOQ switch scheduled by Parallel Iterative Matching.
#[derive(Clone, Debug)]
pub struct PimSwitch {
    n: usize,
    voqs: UnicastVoqs,
    max_iterations: usize,
    rng: SmallRng,
}

impl PimSwitch {
    /// An `n×n` PIM switch iterating to convergence (≤ `n` iterations).
    pub fn new(n: usize, seed: u64) -> PimSwitch {
        PimSwitch::with_iterations(n, n, seed)
    }

    /// An `n×n` PIM switch with an iteration cap (1 iteration reproduces
    /// the classic 63% saturation result).
    pub fn with_iterations(n: usize, max_iterations: usize, seed: u64) -> PimSwitch {
        assert!(n > 0, "switch needs at least one port");
        assert!(max_iterations > 0, "need at least one iteration");
        PimSwitch {
            n,
            voqs: UnicastVoqs::new(n),
            max_iterations,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Switch for PimSwitch {
    fn name(&self) -> String {
        if self.max_iterations >= self.n {
            "PIM".to_string()
        } else {
            format!("PIM(iters={})", self.max_iterations)
        }
    }

    fn ports(&self) -> usize {
        self.n
    }

    fn admit(&mut self, packet: Packet) {
        self.voqs.admit(packet);
    }

    fn run_slot(&mut self, _now: Slot) -> SlotOutcome {
        let n = self.n;
        let mut matched_out: Vec<Option<usize>> = vec![None; n];
        let mut input_matched = vec![false; n];
        let mut rounds = 0u32;

        for _ in 0..self.max_iterations {
            // grant: each unmatched output picks a random requester
            let mut grants: Vec<Vec<usize>> = vec![Vec::new(); n];
            let mut any_grant = false;
            #[allow(clippy::needless_range_loop)] // `out` indexes several arrays
            for out in 0..n {
                if matched_out[out].is_some() {
                    continue;
                }
                let requesters: Vec<usize> = (0..n)
                    .filter(|&i| !input_matched[i] && !self.voqs.is_empty(i, out))
                    .collect();
                if let Some(&i) = requesters
                    .get(self.rng.gen_range(0..requesters.len().max(1)))
                    .filter(|_| !requesters.is_empty())
                {
                    grants[i].push(out);
                    any_grant = true;
                }
            }
            if !any_grant {
                break;
            }
            // accept: each input picks a random grant
            let mut any_accept = false;
            for (i, granting) in grants.iter().enumerate() {
                if granting.is_empty() || input_matched[i] {
                    continue;
                }
                let accepted = granting[self.rng.gen_range(0..granting.len())];
                matched_out[accepted] = Some(i);
                input_matched[i] = true;
                any_accept = true;
            }
            if !any_accept {
                break;
            }
            rounds += 1;
        }

        let mut departures = Vec::new();
        for (out, m) in matched_out.iter().enumerate() {
            if let Some(i) = m {
                departures.push(self.voqs.serve(*i, out));
            }
        }
        SlotOutcome {
            connections: departures.len(),
            rounds,
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
        let mut sw = PimSwitch::new(4, 0);
        sw.admit(pkt(1, 0, 0, &[3]));
        let out = sw.run_slot(Slot(0));
        assert_eq!(out.departures.len(), 1);
        assert!(sw.backlog().is_empty());
    }

    #[test]
    fn converged_matching_is_maximal() {
        let mut sw = PimSwitch::new(4, 1);
        let mut id = 0;
        for i in 0..4u16 {
            for o in 0..4usize {
                id += 1;
                sw.admit(pkt(id, 0, i, &[o]));
            }
        }
        // dense demand: converged PIM must find a perfect matching
        let out = sw.run_slot(Slot(0));
        assert_eq!(out.departures.len(), 4);
    }

    #[test]
    fn single_iteration_leaves_matches_on_table() {
        // With 1 iteration PIM frequently misses matches under dense
        // demand; over many slots its average matching is measurably below
        // the converged variant's.
        let run = |iters: usize| {
            let mut sw = PimSwitch::with_iterations(4, iters, 9);
            let mut id = 0u64;
            let mut delivered = 0usize;
            for t in 0..200u64 {
                for i in 0..4u16 {
                    for o in 0..4usize {
                        id += 1;
                        sw.admit(pkt(id, t, i, &[o]));
                    }
                }
                delivered += sw.run_slot(Slot(t)).departures.len();
            }
            delivered
        };
        let (one, full) = (run(1), run(4));
        assert_eq!(full, 4 * 200, "converged PIM keeps all outputs busy");
        assert!(one < full, "one-iteration PIM should lose throughput");
    }

    #[test]
    fn conservation() {
        let mut sw = PimSwitch::new(4, 3);
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
            assert!(t < 200);
        }
        assert_eq!(delivered, copies);
    }

    #[test]
    fn queue_sizes_count_distinct_packets() {
        let mut sw = PimSwitch::new(4, 0);
        sw.admit(pkt(1, 0, 1, &[0, 1, 2]));
        let mut q = Vec::new();
        sw.queue_sizes(&mut q);
        assert_eq!(q, vec![0, 1, 0, 0]);
        assert_eq!(sw.backlog().copies, 3);
    }
}
