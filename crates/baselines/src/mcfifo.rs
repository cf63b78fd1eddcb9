//! Naive multicast FIFO input-queued switches (ablation baselines).
//!
//! The simplest possible multicast IQ scheduler: one FIFO per input,
//! oldest-arrival-first arbitration at each output, optionally *without*
//! fanout splitting. The no-splitting mode is the ablation behind the
//! paper's §VI claim that "fanout splitting is necessary for an algorithm
//! to achieve high throughput under multicast traffic": a cell that must
//! win *all* its outputs simultaneously wastes every slot in which it wins
//! only some of them.

use fifoms_fabric::{Backlog, Switch};
use fifoms_types::{
    Checkpoint, Packet, PortSet, Slot, SlotOutcome, StateError, StateReader, StateWriter,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::InputFifos;

/// Single-input-FIFO multicast switch with oldest-first arbitration.
#[derive(Clone, Debug)]
pub struct McFifoSwitch {
    n: usize,
    fifos: InputFifos,
    splitting: bool,
    rng: SmallRng,
}

impl McFifoSwitch {
    /// An `n×n` switch with fanout splitting enabled.
    pub fn new(n: usize, seed: u64) -> McFifoSwitch {
        McFifoSwitch::with_splitting(n, seed, true)
    }

    /// An `n×n` switch, selecting whether partial (split) service is
    /// allowed.
    pub fn with_splitting(n: usize, seed: u64, splitting: bool) -> McFifoSwitch {
        assert!(n > 0, "switch needs at least one port");
        McFifoSwitch {
            n,
            fifos: InputFifos::new(n),
            splitting,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Whether fanout splitting is enabled.
    pub fn splitting(&self) -> bool {
        self.splitting
    }
}

impl Switch for McFifoSwitch {
    fn name(&self) -> String {
        if self.splitting {
            "mcFIFO".to_string()
        } else {
            "mcFIFO(no-split)".to_string()
        }
    }

    fn ports(&self) -> usize {
        self.n
    }

    fn admit(&mut self, packet: Packet) {
        self.fifos.admit(packet);
    }

    fn run_slot(&mut self, _now: Slot) -> SlotOutcome {
        // Oldest-first arbitration: process HOL cells in arrival order
        // (random tie-break) and let each claim whatever free outputs of
        // its residue remain. Without splitting, a cell claims either its
        // whole residue or nothing.
        let mut order: Vec<usize> = (0..self.n)
            .filter(|&i| self.fifos.hol(i).is_some())
            .collect();
        // Shuffle before the stable sort so equal arrivals are in random
        // relative order.
        for k in (1..order.len()).rev() {
            let j = self.rng.gen_range(0..=k);
            order.swap(k, j);
        }
        order.sort_by_key(|&i| self.fifos.hol(i).map(|c| c.arrival));

        let mut output_free = vec![true; self.n];
        let mut departures = Vec::new();
        for i in order {
            let residue = &self.fifos.hol(i).expect("nonempty").residue;
            let claim: PortSet = residue.iter().filter(|o| output_free[o.index()]).collect();
            // Without splitting the cell is all-or-nothing: a partial win
            // claims nothing.
            if !self.splitting && claim != *residue {
                continue;
            }
            for o in &claim {
                output_free[o.index()] = false;
                departures.push(self.fifos.serve(i, o.index()));
            }
        }
        SlotOutcome {
            connections: departures.len(),
            rounds: 1.min(departures.len() as u32),
            departures,
        }
    }

    fn queue_sizes(&self, out: &mut Vec<usize>) {
        self.fifos.queue_sizes(out);
    }

    fn backlog(&self) -> Backlog {
        self.fifos.backlog()
    }

    fn save_state(&self) -> Result<Vec<u8>, StateError> {
        Ok(Checkpoint::snapshot_state(self))
    }

    fn load_state(&mut self, blob: &[u8]) -> Result<(), StateError> {
        Checkpoint::restore_state(self, blob)
    }
}

impl Checkpoint for McFifoSwitch {
    fn state_kind(&self) -> &'static str {
        "mc-fifo"
    }

    // The payload layout is version 1's. The version moved to 2 because
    // `fifos` changed type, which changes the field fingerprint that lint
    // rule R8 pins to each version.
    fn state_version(&self) -> u16 {
        2
    }

    fn write_state(&self, w: &mut StateWriter) {
        // `n` and `splitting` are configuration (rebuilt by the caller);
        // the mutable state is the FIFO contents and the tie-break rng.
        self.fifos.write_state(w);
        for word in self.rng.state() {
            w.put_u64(word);
        }
    }

    fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.fifos.read_state(r)?;
        let rng = [r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?];
        self.rng = SmallRng::from_state(rng);
        Ok(())
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
    fn splitting_serves_partial_residue() {
        let mut sw = McFifoSwitch::new(4, 0);
        sw.admit(pkt(1, 0, 1, &[0])); // older, wins output 0
        sw.admit(pkt(2, 1, 0, &[0, 1]));
        let out = sw.run_slot(Slot(1));
        // pkt2 sends its copy to output 1 despite losing output 0
        assert!(out
            .departures
            .iter()
            .any(|d| d.packet == PacketId(2) && d.output == PortId(1)));
        assert_eq!(sw.backlog().copies, 1);
    }

    #[test]
    fn no_splitting_is_all_or_nothing() {
        let mut sw = McFifoSwitch::with_splitting(4, 0, false);
        sw.admit(pkt(1, 0, 1, &[0]));
        sw.admit(pkt(2, 1, 0, &[0, 1]));
        let out = sw.run_slot(Slot(1));
        // pkt2 sends nothing: output 0 lost, so output 1 goes unused
        assert_eq!(out.departures.len(), 1);
        assert_eq!(out.departures[0].packet, PacketId(1));
        assert_eq!(sw.backlog().copies, 2);
        // next slot both outputs free → full delivery
        let out = sw.run_slot(Slot(2));
        assert_eq!(out.departures.len(), 2);
        assert!(sw.backlog().is_empty());
    }

    #[test]
    fn no_split_throughput_strictly_worse_under_overload() {
        // Saturate the switch with random fanout-2 multicasts and compare
        // delivered copies: without splitting, slots in which a cell wins
        // only part of its residue deliver nothing from that input, so
        // sustained throughput drops (§VI: splitting is necessary for high
        // multicast throughput).
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let throughput = |splitting: bool| {
            let mut sw = McFifoSwitch::with_splitting(4, 1, splitting);
            let mut rng = SmallRng::seed_from_u64(99); // same arrivals both ways
            let mut id = 0u64;
            let mut delivered = 0usize;
            for t in 0..400u64 {
                for input in 0..4u16 {
                    let mut dests = PortSet::new();
                    while dests.len() < 2 {
                        dests.insert(PortId(rng.gen_range(0..4)));
                    }
                    id += 1;
                    sw.admit(Packet::new(PacketId(id), Slot(t), PortId(input), dests));
                }
                delivered += sw.run_slot(Slot(t)).departures.len();
            }
            delivered
        };
        let (split, nosplit) = (throughput(true), throughput(false));
        assert!(
            split as f64 > nosplit as f64 * 1.1,
            "splitting {split} vs no-split {nosplit}"
        );
    }

    #[test]
    fn oldest_first_priority() {
        let mut sw = McFifoSwitch::new(4, 0);
        sw.admit(pkt(1, 3, 0, &[2]));
        sw.admit(pkt(2, 1, 1, &[2])); // older wins
        let out = sw.run_slot(Slot(3));
        assert_eq!(
            out.departures
                .iter()
                .find(|d| d.output == PortId(2))
                .unwrap()
                .packet,
            PacketId(2)
        );
    }

    #[test]
    fn checkpoint_round_trip_is_bit_identical() {
        // The twin is seeded differently on purpose: restore must overwrite
        // the tie-break rng so both switches make identical random choices
        // after the snapshot point.
        let mut original = McFifoSwitch::new(4, 7);
        let mut id = 0u64;
        for t in 0..30u64 {
            for i in 0..4u16 {
                if (t + i as u64).is_multiple_of(2) {
                    id += 1;
                    sw_admit(&mut original, id, t, i);
                }
            }
            original.run_slot(Slot(t));
        }
        let blob = Checkpoint::snapshot_state(&original);
        let mut twin = McFifoSwitch::new(4, 999);
        twin.load_state(&blob).expect("restore");
        assert_eq!(Checkpoint::snapshot_state(&twin), blob);
        for t in 30..60u64 {
            for i in 0..4u16 {
                if (t + i as u64).is_multiple_of(2) {
                    id += 1;
                    sw_admit(&mut original, id, t, i);
                    sw_admit(&mut twin, id, t, i);
                }
            }
            let a = original.run_slot(Slot(t));
            let b = twin.run_slot(Slot(t));
            assert_eq!(a.departures, b.departures, "diverged at slot {t}");
        }
        assert_eq!(
            Checkpoint::snapshot_state(&original),
            Checkpoint::snapshot_state(&twin)
        );
    }

    fn sw_admit(sw: &mut McFifoSwitch, id: u64, t: u64, i: u16) {
        sw.admit(pkt(
            id,
            t,
            i,
            &[(i as usize + 1) % 4, (i as usize + 3) % 4],
        ));
    }

    #[test]
    fn checkpoint_restore_rejects_port_mismatch() {
        let small = McFifoSwitch::new(2, 0);
        let blob = Checkpoint::snapshot_state(&small);
        let mut big = McFifoSwitch::new(4, 0);
        assert!(matches!(
            big.load_state(&blob),
            Err(StateError::Malformed { .. })
        ));
    }

    #[test]
    fn conservation_under_random_load() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        for splitting in [true, false] {
            let mut sw = McFifoSwitch::with_splitting(8, 2, splitting);
            let mut rng = SmallRng::seed_from_u64(13);
            let (mut admitted, mut delivered, mut id) = (0usize, 0usize, 0u64);
            for t in 0..200u64 {
                for input in 0..8u16 {
                    if rng.gen_bool(0.15) {
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
            let mut t = 200u64;
            while !sw.backlog().is_empty() {
                delivered += sw.run_slot(Slot(t)).departures.len();
                t += 1;
                assert!(t < 50_000, "mcFIFO(splitting={splitting}) failed to drain");
            }
            assert_eq!(delivered, admitted);
        }
    }
}
