//! The iSLIP scheduling algorithm (McKeown, IEEE/ACM ToN 1999).

use std::collections::VecDeque;

use fifoms_fabric::{Backlog, Switch};
use fifoms_types::{Departure, Packet, PacketId, PortId, Slot, SlotOutcome};

use crate::common::PacketLedger;

#[derive(Clone, Copy, Debug)]
struct UnicastCopy {
    packet: PacketId,
    arrival: Slot,
}

/// A VOQ switch scheduled by iterative round-robin SLIP.
///
/// iSLIP is the classic unicast VOQ scheduler: each iteration runs
/// *request* (every unmatched input requests every output with a
/// non-empty VOQ), *grant* (each unmatched output grants the requesting
/// input next in round-robin order from its grant pointer) and *accept*
/// (each input accepts the granting output next in round-robin order from
/// its accept pointer). Pointers advance one past the matched port — but
/// only for matches made in the *first* iteration, which is what
/// desynchronises the grant pointers and yields 100% throughput under
/// uniform unicast traffic.
///
/// Multicast handling follows the paper's simulation setup exactly
/// (§V): "iSLIP schedules a multicast packet as separate (independent)
/// unicast packets" — a fanout-`k` arrival is expanded into `k` unicast
/// copies at admission. The queue-size metric still counts *distinct
/// packets held* per input (data-cell equivalent) so buffer comparisons
/// against FIFOMS are apples-to-apples.
#[derive(Clone, Debug)]
pub struct IslipSwitch {
    n: usize,
    voqs: Vec<Vec<VecDeque<UnicastCopy>>>,
    grant_ptr: Vec<usize>,
    accept_ptr: Vec<usize>,
    ledger: PacketLedger,
    max_iterations: usize,
    // Scratch reused across slots so the steady-state matching loop stays
    // allocation-free (verified by the alloc-audit harness). Cleared at
    // the top of every `run_slot`.
    matched_out: Vec<Option<usize>>, // output -> matched input
    input_matched: Vec<bool>,
    grants: Vec<Vec<usize>>, // input -> granting outputs this iteration
    spare_departures: Vec<Departure>,
}

impl IslipSwitch {
    /// An `n×n` iSLIP switch iterating to convergence (up to `n`
    /// iterations per slot).
    pub fn new(n: usize) -> IslipSwitch {
        IslipSwitch::with_iterations(n, n)
    }

    /// An `n×n` iSLIP switch with an explicit per-slot iteration cap
    /// (hardware implementations typically run `log2(N)` iterations).
    pub fn with_iterations(n: usize, max_iterations: usize) -> IslipSwitch {
        assert!(n > 0, "switch needs at least one port");
        assert!(max_iterations > 0, "need at least one iteration");
        IslipSwitch {
            n,
            voqs: (0..n)
                .map(|_| (0..n).map(|_| VecDeque::new()).collect())
                .collect(),
            grant_ptr: vec![0; n],
            accept_ptr: vec![0; n],
            ledger: PacketLedger::new(n),
            max_iterations,
            matched_out: vec![None; n],
            input_matched: vec![false; n],
            grants: (0..n).map(|_| Vec::new()).collect(),
            spare_departures: Vec::new(),
        }
    }

    /// The grant pointer of `output` (for pointer-dynamics tests).
    pub fn grant_pointer(&self, output: usize) -> usize {
        self.grant_ptr[output]
    }

    /// The accept pointer of `input`.
    pub fn accept_pointer(&self, input: usize) -> usize {
        self.accept_ptr[input]
    }

    /// First port at or after `ptr` (cyclically) satisfying `pred`.
    fn round_robin_pick(n: usize, ptr: usize, mut pred: impl FnMut(usize) -> bool) -> Option<usize> {
        (0..n).map(|k| (ptr + k) % n).find(|&p| pred(p))
    }
}

impl Switch for IslipSwitch {
    fn name(&self) -> String {
        if self.max_iterations >= self.n {
            "iSLIP".to_string()
        } else {
            format!("iSLIP(iters={})", self.max_iterations)
        }
    }

    fn ports(&self) -> usize {
        self.n
    }

    fn admit(&mut self, packet: Packet) {
        assert!(packet.input.index() < self.n, "input out of range");
        assert!(
            packet.dests.iter().all(|d| d.index() < self.n),
            "destination out of range"
        );
        self.ledger
            .admit(packet.id, packet.input.index(), packet.fanout() as u32);
        // Multicast expansion: one independent unicast copy per destination.
        for dest in &packet.dests {
            self.voqs[packet.input.index()][dest.index()].push_back(UnicastCopy {
                packet: packet.id,
                arrival: packet.arrival,
            });
        }
    }

    fn run_slot(&mut self, _now: Slot) -> SlotOutcome {
        let n = self.n;
        self.matched_out.clear();
        self.matched_out.resize(n, None);
        self.input_matched.clear();
        self.input_matched.resize(n, false);
        let mut rounds = 0u32;

        for iter in 0..self.max_iterations {
            // --- grant phase: each unmatched output picks one requester ---
            let mut any_grant = false;
            for g in &mut self.grants {
                g.clear();
            }
            #[allow(clippy::needless_range_loop)] // `out` indexes several arrays
            for out in 0..n {
                if self.matched_out[out].is_some() {
                    continue;
                }
                let input_matched = &self.input_matched;
                let voqs = &self.voqs;
                let pick = Self::round_robin_pick(n, self.grant_ptr[out], |i| {
                    !input_matched[i] && !voqs[i][out].is_empty()
                });
                if let Some(i) = pick {
                    self.grants[i].push(out);
                    any_grant = true;
                }
            }
            if !any_grant {
                break;
            }
            // --- accept phase: each input picks one grant ---
            let mut any_accept = false;
            for (i, granting) in self.grants.iter().enumerate() {
                if granting.is_empty() || self.input_matched[i] {
                    continue;
                }
                let accepted = Self::round_robin_pick(n, self.accept_ptr[i], |o| {
                    granting.contains(&o)
                })
                .expect("nonempty grant list");
                self.matched_out[accepted] = Some(i);
                self.input_matched[i] = true;
                any_accept = true;
                if iter == 0 {
                    // Pointer update rule: one beyond the matched port,
                    // only for first-iteration accepts.
                    self.grant_ptr[accepted] = (i + 1) % n;
                    self.accept_ptr[i] = (accepted + 1) % n;
                }
            }
            if !any_accept {
                break;
            }
            rounds += 1;
        }

        // --- transfer matched HOL cells ---
        let mut departures = std::mem::take(&mut self.spare_departures);
        departures.clear();
        for (out, m) in self.matched_out.iter().enumerate() {
            if let Some(i) = m {
                let copy = self.voqs[*i][out]
                    .pop_front()
                    .expect("matched VOQ was empty");
                let last_copy = self.ledger.deliver(copy.packet);
                departures.push(Departure {
                    packet: copy.packet,
                    arrival: copy.arrival,
                    input: PortId::new(*i),
                    output: PortId::new(out),
                    last_copy,
                });
            }
        }
        SlotOutcome {
            connections: departures.len(),
            rounds,
            departures,
        }
    }

    fn queue_sizes(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.n).map(|i| self.ledger.held_at(i)));
    }

    fn backlog(&self) -> Backlog {
        Backlog {
            packets: self.ledger.packets(),
            copies: self
                .voqs
                .iter()
                .flat_map(|qs| qs.iter().map(VecDeque::len))
                .sum(),
        }
    }

    fn recycle(&mut self, outcome: SlotOutcome) {
        let mut v = outcome.departures;
        v.clear();
        self.spare_departures = v;
    }

    fn reserve_steady_state(&mut self, copies_per_voq: usize) {
        let n = self.n;
        for input in &mut self.voqs {
            for q in input {
                q.reserve(copies_per_voq.saturating_sub(q.len()));
            }
        }
        // Worst case one live packet per queued copy at one input's
        // worth of queues; multicast expansion only lowers the packet
        // count per copy.
        self.ledger.reserve(n.saturating_mul(copies_per_voq));
        // An input can be granted by every output in one iteration.
        for g in &mut self.grants {
            g.reserve(n);
        }
        self.spare_departures.reserve(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifoms_types::PortSet;

    fn pkt(id: u64, arrival: u64, input: u16, dests: &[usize]) -> Packet {
        Packet::new(
            PacketId(id),
            Slot(arrival),
            PortId(input),
            dests.iter().copied().collect::<PortSet>(),
        )
    }

    #[test]
    fn single_cell_served_immediately() {
        let mut sw = IslipSwitch::new(4);
        sw.admit(pkt(1, 0, 0, &[2]));
        let out = sw.run_slot(Slot(0));
        assert_eq!(out.departures.len(), 1);
        assert_eq!(out.departures[0].output, PortId(2));
        assert!(out.departures[0].last_copy);
        assert_eq!(out.rounds, 1);
        assert!(sw.backlog().is_empty());
    }

    #[test]
    fn multicast_expanded_to_unicast_copies() {
        let mut sw = IslipSwitch::new(4);
        sw.admit(pkt(1, 0, 0, &[0, 1, 2]));
        assert_eq!(sw.backlog().copies, 3);
        assert_eq!(sw.backlog().packets, 1);
        // one input serves at most one output per slot → 3 slots to finish
        let mut done_at = None;
        for t in 0..5u64 {
            let out = sw.run_slot(Slot(t));
            assert!(out.departures.len() <= 1, "input sent two cells in one slot");
            if out.departures.iter().any(|d| d.last_copy) {
                done_at = Some(t);
                break;
            }
        }
        assert_eq!(done_at, Some(2), "fanout-3 multicast needs 3 slots on iSLIP");
    }

    #[test]
    fn pointer_update_only_on_first_iteration_accept() {
        let mut sw = IslipSwitch::new(4);
        sw.admit(pkt(1, 0, 1, &[2]));
        sw.run_slot(Slot(0));
        // output 2 granted input 1 and was accepted → pointer = 2
        assert_eq!(sw.grant_pointer(2), 2);
        assert_eq!(sw.accept_pointer(1), 3);
        // untouched arbiters stay at 0
        assert_eq!(sw.grant_pointer(0), 0);
        assert_eq!(sw.accept_pointer(0), 0);
    }

    #[test]
    fn desynchronisation_reaches_full_throughput() {
        // 2x2, both inputs saturated with cells for both outputs. After the
        // initial synchronised slot, pointers desynchronise and the switch
        // serves 2 cells/slot.
        let mut sw = IslipSwitch::new(2);
        let mut id = 0;
        for t in 0..40u64 {
            for input in 0..2u16 {
                id += 1;
                sw.admit(pkt(id, t, input, &[0]));
                id += 1;
                sw.admit(pkt(id, t, input, &[1]));
            }
        }
        let mut served = 0;
        for t in 0..20u64 {
            served += sw.run_slot(Slot(t)).departures.len();
        }
        // ≥ 2/slot after at most one warmup slot
        assert!(served >= 39, "served {served} in 20 slots");
    }

    #[test]
    fn iteration_cap_respected() {
        // Input 0 has cells for outputs 0 and 1; inputs 1 also for 0.
        // With 1 iteration, at most one match per input/output pair set.
        let mut one = IslipSwitch::with_iterations(4, 1);
        let mut full = IslipSwitch::new(4);
        for sw in [&mut one, &mut full] {
            sw.admit(pkt(1, 0, 0, &[0]));
            sw.admit(pkt(2, 0, 0, &[1]));
            sw.admit(pkt(3, 0, 1, &[0]));
            sw.admit(pkt(4, 0, 1, &[1]));
        }
        let o1 = one.run_slot(Slot(0));
        let of = full.run_slot(Slot(0));
        assert!(o1.rounds <= 1);
        assert!(of.departures.len() >= o1.departures.len());
        // full iSLIP finds the maximal 2-match here
        assert_eq!(of.departures.len(), 2);
    }

    #[test]
    fn converged_matching_is_maximal() {
        let mut sw = IslipSwitch::new(4);
        // dense demand: every input has a cell for every output
        let mut id = 0;
        for i in 0..4u16 {
            for o in 0..4usize {
                id += 1;
                sw.admit(pkt(id, 0, i, &[o]));
            }
        }
        let out = sw.run_slot(Slot(0));
        assert_eq!(out.departures.len(), 4, "perfect matching exists");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Random demand matrices (copies per VOQ).
        fn demand() -> impl Strategy<Value = Vec<Vec<u8>>> {
            proptest::collection::vec(proptest::collection::vec(0u8..3, 6), 6)
        }

        fn filled(demand: &[Vec<u8>]) -> IslipSwitch {
            let mut sw = IslipSwitch::new(6);
            let mut id = 0;
            for (i, row) in demand.iter().enumerate() {
                for (o, &count) in row.iter().enumerate() {
                    for _ in 0..count {
                        id += 1;
                        sw.admit(pkt(id, 0, i as u16, &[o]));
                    }
                }
            }
            sw
        }

        proptest! {
            /// Converged iSLIP produces a maximal matching: after the
            /// slot, no unmatched input still holds a cell for an
            /// unmatched output.
            #[test]
            fn prop_converged_matching_is_maximal(demand in demand()) {
                let mut sw = filled(&demand);
                let out = sw.run_slot(Slot(0));
                let mut in_matched = [false; 6];
                let mut out_matched = [false; 6];
                for d in &out.departures {
                    prop_assert!(!in_matched[d.input.index()], "input matched twice");
                    prop_assert!(!out_matched[d.output.index()], "output matched twice");
                    in_matched[d.input.index()] = true;
                    out_matched[d.output.index()] = true;
                }
                for (i, row) in demand.iter().enumerate() {
                    for (o, &count) in row.iter().enumerate() {
                        let served = out
                            .departures
                            .iter()
                            .filter(|d| d.input.index() == i && d.output.index() == o)
                            .count() as u8;
                        if count > served && !in_matched[i] {
                            prop_assert!(
                                out_matched[o],
                                "unmatched pair ({i},{o}) with demand left"
                            );
                        }
                    }
                }
            }

            /// Slot departures never exceed demand, and draining the
            /// switch delivers exactly the total demand.
            #[test]
            fn prop_drain_equals_demand(demand in demand()) {
                let total: usize = demand.iter().flatten().map(|&c| c as usize).sum();
                let mut sw = filled(&demand);
                let mut delivered = 0;
                let mut t = 0;
                while !sw.backlog().is_empty() {
                    delivered += sw.run_slot(Slot(t)).departures.len();
                    t += 1;
                    prop_assert!(t < 500, "failed to drain");
                }
                prop_assert_eq!(delivered, total);
            }
        }
    }

    #[test]
    fn conservation_and_ledger() {
        let mut sw = IslipSwitch::new(4);
        let mut copies = 0;
        let mut id = 0;
        for i in 0..4u16 {
            id += 1;
            sw.admit(pkt(id, 0, i, &[0, 1, 2, 3]));
            copies += 4;
        }
        let mut q = Vec::new();
        sw.queue_sizes(&mut q);
        assert_eq!(q, vec![1, 1, 1, 1], "each input holds 1 distinct packet");
        let mut delivered = 0;
        let mut t = 0;
        while !sw.backlog().is_empty() {
            delivered += sw.run_slot(Slot(t)).departures.len();
            t += 1;
            assert!(t < 100);
        }
        assert_eq!(delivered, copies);
        // 4 inputs × fanout 4 = 16 copies, 4 outputs drain ≤4/slot ⇒ ≥4 slots
        assert!(t >= 4);
    }
}
