//! Output queueing with *finite* internal speedup.
//!
//! §I of the paper argues OQ switches don't scale because achieving full
//! throughput requires the fabric and output memories to run `N` times
//! faster than the line rate. [`OqFifoSwitch`](crate::OqFifoSwitch)
//! models the `S = N` idealisation (direct placement); this switch makes
//! the speedup explicit and finite so the claim can be *measured*: a slot
//! consists of `S` transfer phases, each a legal crossbar pass moving at
//! most one cell per input and per output from an input staging FIFO into
//! the output queues, which drain one cell per slot.
//!
//! With `S = 1` this degenerates to a FIFO input-queued switch (HOL
//! blocking and all); sweeping `S` between 1 and `N` traces exactly the
//! hardware-cost/performance trade-off the paper uses to motivate input
//! queueing. The `ablate_oq_speedup` bench and the `scaling` experiment
//! drive it.

use std::collections::VecDeque;

use fifoms_fabric::{Backlog, Switch};
use fifoms_types::{Departure, Packet, PacketId, PortId, Slot, SlotOutcome};

use crate::common::PacketLedger;

#[derive(Clone, Copy, Debug)]
struct QueuedCopy {
    packet: PacketId,
    arrival: Slot,
    input: PortId,
    output: PortId,
}

/// An output-queued switch whose fabric runs `S` phases per slot.
#[derive(Clone, Debug)]
pub struct SpeedupOqSwitch {
    n: usize,
    speedup: usize,
    /// Per-input staging FIFO of copies awaiting a fabric phase.
    staging: Vec<VecDeque<QueuedCopy>>,
    /// Per-output FIFO queues (the OQ buffers).
    outq: Vec<VecDeque<QueuedCopy>>,
    ledger: PacketLedger,
    /// Rotating input priority so phase contention is long-run fair.
    rr: usize,
}

impl SpeedupOqSwitch {
    /// An `n×n` output-queued switch with internal speedup `speedup`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `speedup == 0`.
    pub fn new(n: usize, speedup: usize) -> SpeedupOqSwitch {
        assert!(n > 0, "switch needs at least one port");
        assert!(speedup > 0, "speedup must be at least 1");
        SpeedupOqSwitch {
            n,
            speedup,
            staging: vec![VecDeque::new(); n],
            outq: vec![VecDeque::new(); n],
            ledger: PacketLedger::new(n),
            rr: 0,
        }
    }

    /// The configured speedup `S`.
    pub fn speedup(&self) -> usize {
        self.speedup
    }
}

impl Switch for SpeedupOqSwitch {
    fn name(&self) -> String {
        format!("OQ(S={})", self.speedup)
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
        // Replication at the input: one staged copy per destination.
        for dest in &packet.dests {
            self.staging[packet.input.index()].push_back(QueuedCopy {
                packet: packet.id,
                arrival: packet.arrival,
                input: packet.input,
                output: dest,
            });
        }
    }

    fn run_slot(&mut self, _now: Slot) -> SlotOutcome {
        let n = self.n;
        // --- S fabric phases: staging -> output queues ---
        for _phase in 0..self.speedup {
            let mut output_used = vec![false; n];
            let mut moved = false;
            for k in 0..n {
                let i = (self.rr + k) % n;
                let Some(head) = self.staging[i].front() else {
                    continue;
                };
                let o = head.output.index();
                if output_used[o] {
                    continue; // HOL copy blocked this phase
                }
                output_used[o] = true;
                let copy = self.staging[i].pop_front().expect("front exists");
                self.outq[o].push_back(copy);
                moved = true;
            }
            if !moved {
                break; // remaining phases would idle
            }
        }
        self.rr = (self.rr + 1) % n;

        // --- line-rate drain: each output sends one cell ---
        let mut departures = Vec::new();
        for q in &mut self.outq {
            if let Some(copy) = q.pop_front() {
                let last_copy = self.ledger.deliver(copy.packet);
                departures.push(Departure {
                    packet: copy.packet,
                    arrival: copy.arrival,
                    input: copy.input,
                    output: copy.output,
                    last_copy,
                });
            }
        }
        SlotOutcome {
            connections: departures.len(),
            rounds: 0,
            departures,
        }
    }

    fn queue_sizes(&self, out: &mut Vec<usize>) {
        // The OQ buffer requirement: output queue lengths (staging is the
        // fabric's problem and shows up in backlog/stability instead).
        out.clear();
        out.extend(self.outq.iter().map(VecDeque::len));
    }

    fn backlog(&self) -> Backlog {
        Backlog {
            packets: self.ledger.packets(),
            copies: self.staging.iter().map(VecDeque::len).sum::<usize>()
                + self.outq.iter().map(VecDeque::len).sum::<usize>(),
        }
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
    fn full_speedup_behaves_like_direct_placement() {
        // Three inputs send to output 1 in one slot; with S = N all three
        // reach the output queue immediately, then drain 1/slot — same
        // schedule the OqFifoSwitch produces.
        let mut sw = SpeedupOqSwitch::new(4, 4);
        sw.admit(pkt(1, 0, 0, &[1]));
        sw.admit(pkt(2, 0, 2, &[1]));
        sw.admit(pkt(3, 0, 3, &[1]));
        let served: Vec<u64> = (0..3u64)
            .flat_map(|t| {
                sw.run_slot(Slot(t))
                    .departures
                    .into_iter()
                    .map(|d| d.packet.raw())
            })
            .collect();
        assert_eq!(served.len(), 3);
        assert!(sw.backlog().is_empty());
    }

    #[test]
    fn speedup_one_has_hol_blocking() {
        // S = 1: input 0's HOL copy to the contended output 0 blocks its
        // second copy to the idle output 1 — input-queued behaviour.
        let mut sw = SpeedupOqSwitch::new(4, 1);
        sw.admit(pkt(1, 0, 1, &[0]));
        sw.admit(pkt(2, 0, 0, &[0]));
        sw.admit(pkt(3, 0, 0, &[1]));
        // slot 0: one phase. rr=0, so input 0 goes first and wins output 0.
        let out = sw.run_slot(Slot(0));
        assert_eq!(out.departures.len(), 1);
        // pkt3 (to idle output 1) cannot overtake pkt2 in input 0's staging
        assert!(out.departures.iter().all(|d| d.packet != PacketId(3)));
    }

    #[test]
    fn throughput_increases_with_speedup() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        // Uniform unicast at 95% load: S=1 (HOL-blocked) cannot sustain
        // it, larger S can.
        let run = |speedup: usize| {
            let mut sw = SpeedupOqSwitch::new(8, speedup);
            let mut rng = SmallRng::seed_from_u64(3);
            let mut id = 0u64;
            let mut delivered = 0usize;
            for t in 0..3_000u64 {
                for input in 0..8u16 {
                    if rng.gen_bool(0.95) {
                        id += 1;
                        sw.admit(pkt(
                            id,
                            t,
                            input,
                            &[rng.gen_range(0..8usize)],
                        ));
                    }
                }
                delivered += sw.run_slot(Slot(t)).departures.len();
            }
            delivered as f64 / (3_000.0 * 8.0)
        };
        let (s1, s2, s8) = (run(1), run(2), run(8));
        assert!(s1 < 0.75, "S=1 throughput {s1} should be HOL-bound");
        assert!(s2 > s1 + 0.1, "S=2 {s2} vs S=1 {s1}");
        assert!(s8 > 0.90, "S=8 throughput {s8}");
    }

    #[test]
    fn conservation() {
        let mut sw = SpeedupOqSwitch::new(4, 2);
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
    fn queue_metric_is_output_side() {
        let mut sw = SpeedupOqSwitch::new(4, 4);
        sw.admit(pkt(1, 0, 0, &[2]));
        sw.admit(pkt(2, 0, 1, &[2]));
        sw.run_slot(Slot(0)); // both staged copies reach output 2; one departs
        let mut q = Vec::new();
        sw.queue_sizes(&mut q);
        assert_eq!(q, vec![0, 0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "speedup must be at least 1")]
    fn zero_speedup_rejected() {
        let _ = SpeedupOqSwitch::new(4, 0);
    }

    #[test]
    #[should_panic(expected = "switch needs at least one port")]
    fn zero_port_switch_rejected() {
        let _ = SpeedupOqSwitch::new(0, 2);
    }

    #[test]
    fn speedup_caps_the_cells_one_output_receives_per_slot() {
        // Three inputs send to output 1 in slot 0. Each phase moves at most
        // one cell into an output, so S phases move min(S, 3) of them; one
        // departs at line rate, the rest wait in the output queue, and the
        // cells no phase reached stay staged at their inputs.
        for speedup in 1..=4usize {
            let mut sw = SpeedupOqSwitch::new(4, speedup);
            sw.admit(pkt(1, 0, 0, &[1]));
            sw.admit(pkt(2, 0, 2, &[1]));
            sw.admit(pkt(3, 0, 3, &[1]));
            let out = sw.run_slot(Slot(0));
            assert_eq!(out.departures.len(), 1, "S = {speedup}");
            let moved = speedup.min(3);
            let mut q = Vec::new();
            sw.queue_sizes(&mut q);
            assert_eq!(q, vec![0, moved - 1, 0, 0], "S = {speedup}");
            assert_eq!(sw.backlog().copies, 2, "S = {speedup}");
        }
    }
}
