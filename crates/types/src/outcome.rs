//! Per-slot results reported by every switch implementation.

use crate::{PacketId, PortId, Slot};

/// One delivered packet copy: `packet` was transferred from `input` to
/// `output` in some slot.
///
/// A multicast packet with fanout `k` produces exactly `k` departures over
/// its lifetime (possibly spread over several slots when fanout splitting
/// occurs). The metric layer derives:
///
/// * **output-oriented delay** — `depart - arrival` of every departure;
/// * **input-oriented delay** — `depart - arrival` of the departure with
///   `last_copy == true` (the slot the *sender* finishes, §V of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Departure {
    /// The packet this copy belongs to.
    pub packet: PacketId,
    /// The slot the packet arrived at the switch.
    pub arrival: Slot,
    /// Input port the copy left from.
    pub input: PortId,
    /// Output port the copy was delivered to.
    pub output: PortId,
    /// True when this departure completes the packet (its data cell's
    /// fanout counter reached zero in this slot).
    pub last_copy: bool,
}

impl Departure {
    /// Delay of this copy in slots, given the slot it departed.
    #[inline]
    pub fn delay(&self, departed: Slot) -> u64 {
        departed.delay_since(self.arrival)
    }
}

/// Everything a switch reports about one time slot.
#[derive(Clone, Debug, Default)]
pub struct SlotOutcome {
    /// Copies delivered this slot.
    pub departures: Vec<Departure>,
    /// Scheduler iterations executed this slot (the "convergence rounds"
    /// of Fig. 5). Defined as the number of request/grant rounds in which
    /// at least one new input–output pair was matched; a slot with no
    /// matchable traffic reports 0.
    pub rounds: u32,
    /// Number of input→output crosspoint connections made this slot (a
    /// multicast transfer of fanout `k` counts `k`).
    pub connections: usize,
}

impl SlotOutcome {
    /// An empty outcome (idle slot).
    pub fn idle() -> SlotOutcome {
        SlotOutcome::default()
    }

    /// Number of distinct packets that completed (all copies delivered)
    /// this slot.
    pub fn completed_packets(&self) -> usize {
        self.departures.iter().filter(|d| d.last_copy).count()
    }
}

/// The matching work of one slot in the units of the paper's Table 2,
/// counted only in builds with debug assertions. The counts are exact,
/// so a test can pin them where a wall-clock gate could not.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WorkCounts {
    /// Ports taken up: FIFOMS's free inputs per round, iSLIP's unmatched
    /// outputs per grant step.
    pub visited: u64,
    /// FIFOMS's candidate HOL cells read; iSLIP's pointer-scan tests.
    pub examined: u64,
    /// Requests sent (FIFOMS) or grants issued (iSLIP).
    pub requests: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn departure_delay() {
        let d = Departure {
            packet: PacketId(1),
            arrival: Slot(10),
            input: PortId(0),
            output: PortId(3),
            last_copy: true,
        };
        assert_eq!(d.delay(Slot(17)), 7);
        assert_eq!(d.delay(Slot(10)), 0);
    }

    #[test]
    fn idle_outcome_is_empty() {
        let o = SlotOutcome::idle();
        assert!(o.departures.is_empty());
        assert_eq!(o.rounds, 0);
        assert_eq!(o.connections, 0);
        assert_eq!(o.completed_packets(), 0);
    }

    #[test]
    fn completed_packets_counts_last_copies() {
        let mk = |pkt: u64, last| Departure {
            packet: PacketId(pkt),
            arrival: Slot(0),
            input: PortId(0),
            output: PortId(0),
            last_copy: last,
        };
        let o = SlotOutcome {
            departures: vec![mk(1, false), mk(1, true), mk(2, true), mk(3, false)],
            rounds: 2,
            connections: 4,
        };
        assert_eq!(o.completed_packets(), 2);
    }
}
