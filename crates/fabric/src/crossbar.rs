//! The crossbar fabric: applies schedules and keeps usage accounting.

use crate::CrossbarSchedule;

/// Cumulative fabric usage statistics.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
pub struct FabricStats {
    /// Slots applied.
    pub slots: u64,
    /// Total crosspoints set across all slots.
    pub crosspoints_set: u64,
    /// Slots in which at least one multicast (input driving >1 output)
    /// transfer occurred.
    pub multicast_slots: u64,
    /// Total transfers that were part of a multicast grant.
    pub multicast_connections: u64,
    /// Slots with no connection at all.
    pub idle_slots: u64,
}

impl FabricStats {
    /// Mean crosspoints set per slot.
    pub fn mean_connections(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.crosspoints_set as f64 / self.slots as f64
        }
    }

    /// Mean output utilisation per slot for an `n`-port fabric.
    pub fn utilisation(&self, n: usize) -> f64 {
        self.mean_connections() / n as f64
    }
}

/// An `N×N` multicast-capable crossbar.
///
/// The crossbar itself is stateless between slots (connections are torn
/// down at slot end); this type exists to validate schedules against the
/// fabric size and to accumulate [`FabricStats`] for reporting fabric
/// efficiency (e.g. how often schedulers exploit native multicast).
#[derive(Clone, Debug)]
pub struct Crossbar {
    n: usize,
    stats: FabricStats,
    // Scratch for `apply`: outputs driven per input in the slot being
    // applied. Sized on the first call and refilled every call, so it is
    // not checkpointed state.
    drives: Vec<u32>,
}

impl Crossbar {
    /// An `n×n` crossbar.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Crossbar {
        assert!(n > 0, "crossbar needs at least one port");
        Crossbar {
            n,
            stats: FabricStats::default(),
            drives: Vec::new(),
        }
    }

    /// Fabric size.
    pub fn ports(&self) -> usize {
        self.n
    }

    /// Apply one slot's schedule, updating accounting. Linear in `N`: one
    /// pass over the schedule's driver table, and no allocation after the
    /// first call.
    ///
    /// # Panics
    ///
    /// Panics if the schedule was built for a different fabric size — that
    /// is a programming error, not a runtime condition.
    pub fn apply(&mut self, schedule: &CrossbarSchedule) {
        assert_eq!(
            schedule.ports(),
            self.n,
            "schedule built for {}x{} fabric applied to {}x{}",
            schedule.ports(),
            schedule.ports(),
            self.n,
            self.n
        );
        self.stats.slots += 1;
        // One pass over the driver table counts the outputs each input
        // drives; inputs driving more than one are multicast transfers.
        self.drives.clear();
        self.drives.resize(self.n, 0);
        let mut conns = 0u64;
        for (input, _) in schedule.pairs() {
            if let Some(d) = self.drives.get_mut(input.index()) {
                *d += 1;
                conns += 1;
            }
        }
        self.stats.crosspoints_set += conns;
        if conns == 0 {
            self.stats.idle_slots += 1;
        }
        let mc_conns: u64 = self
            .drives
            .iter()
            .filter(|&&d| d > 1)
            .map(|&d| u64::from(d))
            .sum();
        if mc_conns > 0 {
            self.stats.multicast_slots += 1;
            self.stats.multicast_connections += mc_conns;
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Reset accounting (e.g. at the end of a warmup period).
    pub fn reset_stats(&mut self) {
        self.stats = FabricStats::default();
    }

    /// Replace the accumulated statistics (checkpoint restore — the
    /// crossbar holds no other mutable state).
    pub fn restore_stats(&mut self, stats: FabricStats) {
        self.stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifoms_types::{PortId, PortSet};
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_rejected() {
        let _ = Crossbar::new(0);
    }

    #[test]
    #[should_panic(expected = "applied to")]
    fn size_mismatch_panics() {
        let mut xb = Crossbar::new(4);
        xb.apply(&CrossbarSchedule::empty(8));
    }

    #[test]
    fn accounting_over_slots() {
        let mut xb = Crossbar::new(4);
        // slot 1: idle
        xb.apply(&CrossbarSchedule::empty(4));
        // slot 2: one unicast
        let mut b = CrossbarSchedule::builder(4);
        b.connect(PortId(0), PortId(1)).unwrap();
        xb.apply(&b.build());
        // slot 3: one multicast of fanout 3 + one unicast
        let mut b = CrossbarSchedule::builder(4);
        let d: PortSet = [0usize, 1, 2].into_iter().collect();
        b.connect_multicast(PortId(3), &d).unwrap();
        b.connect(PortId(0), PortId(3)).unwrap();
        xb.apply(&b.build());

        let s = xb.stats();
        assert_eq!(s.slots, 3);
        assert_eq!(s.idle_slots, 1);
        assert_eq!(s.crosspoints_set, 5);
        assert_eq!(s.multicast_slots, 1);
        assert_eq!(s.multicast_connections, 3);
        assert!((s.mean_connections() - 5.0 / 3.0).abs() < 1e-12);
        assert!((s.utilisation(4) - 5.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn reset_stats() {
        let mut xb = Crossbar::new(2);
        let mut b = CrossbarSchedule::builder(2);
        b.connect(PortId(0), PortId(0)).unwrap();
        xb.apply(&b.build());
        assert_eq!(xb.stats().slots, 1);
        xb.reset_stats();
        assert_eq!(xb.stats(), FabricStats::default());
    }

    #[test]
    fn empty_stats_ratios() {
        let xb = Crossbar::new(4);
        assert_eq!(xb.stats().mean_connections(), 0.0);
        assert_eq!(xb.stats().utilisation(4), 0.0);
    }

    /// The accounting as defined per input: a slot's multicast transfers
    /// are the connections of inputs whose `outputs_of` set has more than
    /// one output.
    fn reference_apply(stats: &mut FabricStats, schedule: &CrossbarSchedule) {
        stats.slots += 1;
        let conns = schedule.connections() as u64;
        stats.crosspoints_set += conns;
        if conns == 0 {
            stats.idle_slots += 1;
        }
        let mc_conns: u64 = (0..schedule.ports())
            .map(|i| schedule.outputs_of(PortId::new(i)).len() as u64)
            .filter(|&outs| outs > 1)
            .sum();
        if mc_conns > 0 {
            stats.multicast_slots += 1;
            stats.multicast_connections += mc_conns;
        }
    }

    proptest! {
        /// `apply`'s one-pass count matches the per-input definition over
        /// random legal schedules, inside and past the inline `PortSet`
        /// limit.
        #[test]
        fn prop_stats_match_outputs_of_definition(
            size in 0usize..2,
            slots in proptest::collection::vec(
                proptest::collection::vec((0u16..200, 0u16..200), 0..60),
                1..8,
            ),
        ) {
            let n = [8usize, 200][size];
            let mut xb = Crossbar::new(n);
            let mut want = FabricStats::default();
            for conns in slots {
                let mut b = CrossbarSchedule::builder(n);
                for (i, o) in conns {
                    // conflicts are simply rejected, keeping the schedule legal
                    let _ = b.connect(PortId(i % n as u16), PortId(o % n as u16));
                }
                let schedule = b.build();
                xb.apply(&schedule);
                reference_apply(&mut want, &schedule);
                prop_assert_eq!(xb.stats(), want);
            }
        }
    }
}
