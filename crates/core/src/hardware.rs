//! Executable version of the paper's §IV hardware implementation and
//! complexity analysis.
//!
//! §IV describes the FIFOMS scheduler as two units (Fig. 3): a *control
//! unit* — per-input comparators selecting the smallest-stamp HOL address
//! cells, per-output comparators selecting the smallest-stamp request —
//! and a *data forwarding unit* — the data-cell buffer plus the crossbar.
//! §IV-B bounds the space cost (address cells are "an integer field and a
//! pointer field ... a small constant number of bytes"); §IV-C bounds the
//! time cost (`O(N)` serial selection, `O(1)`–`O(log N)` with parallel
//! comparator trees as in the WBA scheduler \[10\], worst-case `N`
//! convergence rounds).
//!
//! [`ControlUnitModel`] and [`QueueMemoryModel`] turn those arguments
//! into numbers: comparator counts, selection-tree depths, per-round and
//! per-slot latencies, and buffer sizing — so the §IV claims become
//! checkable assertions and the `hardware_cost` example can print the
//! cost tables for any `N`.

/// Comparator-level model of the FIFOMS control unit.
#[derive(Clone, Copy, Debug)]
pub struct ControlUnitModel {
    /// Switch size `N`.
    pub n: usize,
    /// Latency of one 2-input compare-select stage, in picoseconds.
    pub comparator_ps: u64,
    /// Whether selections use a parallel comparator tree (`O(log N)`
    /// depth, the WBA-style option of §IV-C) or a serial scan (`O(N)`).
    pub parallel: bool,
}

impl ControlUnitModel {
    /// A model with typical values (parallel trees, 50 ps compare-select).
    pub fn typical(n: usize) -> ControlUnitModel {
        ControlUnitModel {
            n,
            comparator_ps: 50,
            parallel: true,
        }
    }

    /// Number of 2-input comparators in one `N`-input minimum-selection
    /// unit (`N − 1`, independent of organisation).
    pub fn comparators_per_selector(&self) -> usize {
        self.n.saturating_sub(1)
    }

    /// Total comparators in the control unit: one selector per input port
    /// (HOL minimum) and one per output port (grant minimum) — `2N(N−1)`.
    pub fn total_comparators(&self) -> usize {
        2 * self.n * self.comparators_per_selector()
    }

    /// Depth (stages) of one minimum selection.
    pub fn selection_stages(&self) -> u32 {
        if self.n <= 1 {
            0
        } else if self.parallel {
            usize::BITS - (self.n - 1).leading_zeros() // ceil(log2 n)
        } else {
            (self.n - 1) as u32
        }
    }

    /// Latency of one request/grant round: an input-side selection, an
    /// output-side selection and the grant feedback to the inputs
    /// (modelled as one extra comparator delay).
    pub fn round_latency_ps(&self) -> u64 {
        let stages = self.selection_stages() as u64;
        (2 * stages + 1) * self.comparator_ps
    }

    /// Worst-case scheduling latency of a slot: `N` convergence rounds
    /// (§IV-C: "in each round at least one output port is scheduled").
    pub fn worst_slot_latency_ps(&self) -> u64 {
        self.n as u64 * self.round_latency_ps()
    }

    /// Expected slot latency given a measured mean round count (Fig. 5
    /// feeds real numbers into this).
    pub fn slot_latency_ps(&self, mean_rounds: f64) -> f64 {
        mean_rounds * self.round_latency_ps() as f64
    }

    /// The slot duration implied by a line rate, for fixed 64-byte cells.
    /// Scheduling must fit inside this to run at line rate.
    pub fn slot_budget_ps(line_rate_gbps: f64) -> f64 {
        const CELL_BITS: f64 = 64.0 * 8.0;
        CELL_BITS / line_rate_gbps * 1_000.0 // ps
    }
}

/// Memory sizing of the multicast VOQ queue structure (§IV-B).
#[derive(Clone, Copy, Debug)]
pub struct QueueMemoryModel {
    /// Switch size `N`.
    pub n: usize,
    /// Provisioned data cells per input port (buffer depth).
    pub buffer_depth: usize,
    /// Fixed cell payload size in bytes (64 for ATM-style cells).
    pub cell_bytes: usize,
    /// Time-stamp width in bits.
    pub timestamp_bits: usize,
}

impl QueueMemoryModel {
    /// A model with typical values: 64-byte cells, 32-bit stamps.
    pub fn typical(n: usize, buffer_depth: usize) -> QueueMemoryModel {
        QueueMemoryModel {
            n,
            buffer_depth,
            cell_bytes: 64,
            timestamp_bits: 32,
        }
    }

    /// Bits of one address cell: the time stamp plus a pointer able to
    /// index the data buffer (§IV-B: "an integer field and a pointer
    /// field").
    pub fn address_cell_bits(&self) -> usize {
        let pointer_bits = usize::BITS as usize
            - (self.buffer_depth.max(2) - 1).leading_zeros() as usize;
        self.timestamp_bits + pointer_bits
    }

    /// Worst-case address-cell memory per input port: every buffered
    /// packet could address all `N` outputs ("a single packet may need up
    /// to N times the size of an address cell").
    pub fn address_memory_bits_per_input(&self) -> usize {
        self.n * self.buffer_depth * self.address_cell_bits()
    }

    /// Data-cell memory per input port: payload plus a fanout counter
    /// wide enough for `N`.
    pub fn data_memory_bits_per_input(&self) -> usize {
        let counter_bits =
            usize::BITS as usize - self.n.leading_zeros() as usize; // log2(N)+1
        self.buffer_depth * (self.cell_bytes * 8 + counter_bits)
    }

    /// The multicast VOQ structure's total per-input memory.
    pub fn total_bits_per_input(&self) -> usize {
        self.address_memory_bits_per_input() + self.data_memory_bits_per_input()
    }

    /// Memory a *traditional* VOQ multicast switch would need for the
    /// same buffer depth: `2^N − 1` queues are infeasible, so the honest
    /// comparison the paper makes is copy-based storage — each of a
    /// packet's up-to-`N` copies stores the full payload (what iSLIP-style
    /// expansion costs).
    pub fn copy_based_bits_per_input(&self) -> usize {
        self.n * self.buffer_depth * self.cell_bytes * 8
    }

    /// The headline §IV-B ratio: address-cell overhead relative to
    /// storing payload copies. Small for any realistic cell size.
    pub fn overhead_ratio(&self) -> f64 {
        self.total_bits_per_input() as f64 / self.copy_based_bits_per_input() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparator_counts_match_closed_form() {
        let m = ControlUnitModel::typical(16);
        assert_eq!(m.comparators_per_selector(), 15);
        assert_eq!(m.total_comparators(), 2 * 16 * 15);
        let m1 = ControlUnitModel::typical(1);
        assert_eq!(m1.comparators_per_selector(), 0);
        assert_eq!(m1.total_comparators(), 0);
    }

    #[test]
    fn parallel_tree_is_log_depth() {
        for (n, stages) in [(2usize, 1u32), (4, 2), (8, 3), (16, 4), (17, 5), (32, 5)] {
            let m = ControlUnitModel {
                n,
                comparator_ps: 50,
                parallel: true,
            };
            assert_eq!(m.selection_stages(), stages, "n={n}");
        }
    }

    #[test]
    fn serial_scan_is_linear_depth() {
        let m = ControlUnitModel {
            n: 16,
            comparator_ps: 50,
            parallel: false,
        };
        assert_eq!(m.selection_stages(), 15);
        // §IV-C: parallel comparators reduce O(N) to O(log N)-ish
        let p = ControlUnitModel::typical(16);
        assert!(p.round_latency_ps() < m.round_latency_ps() / 3);
    }

    #[test]
    fn worst_case_slot_is_n_rounds() {
        let m = ControlUnitModel::typical(16);
        assert_eq!(m.worst_slot_latency_ps(), 16 * m.round_latency_ps());
        // Fig. 5 reality check: at ~2 mean rounds the expected latency is
        // an eighth of the worst case.
        assert!(m.slot_latency_ps(2.0) < m.worst_slot_latency_ps() as f64 / 7.9);
    }

    #[test]
    fn line_rate_budget() {
        // 10 Gb/s, 64-byte cells → 51.2 ns per slot.
        let budget = ControlUnitModel::slot_budget_ps(10.0);
        assert!((budget - 51_200.0).abs() < 1e-6);
        // a 16-port parallel FIFOMS scheduler at 2 rounds fits comfortably
        let m = ControlUnitModel::typical(16);
        assert!(m.slot_latency_ps(2.0) < budget);
    }

    #[test]
    fn address_cell_is_a_few_bytes() {
        // §IV-B: "a small constant number of bytes should be sufficient"
        let m = QueueMemoryModel::typical(16, 1024);
        let bits = m.address_cell_bits();
        assert!(bits <= 64, "address cell {bits} bits");
        assert_eq!(bits, 32 + 10); // 32-bit stamp + 10-bit pointer for 1024 cells
    }

    #[test]
    fn data_cell_holds_one_payload_and_a_counter_wide_enough_for_n() {
        // A fanoutCounter counts down from at most N, so it needs
        // floor(log2 N) + 1 bits: 5 for N = 16 (a value of 16 fits), 4 for 15.
        let m = QueueMemoryModel::typical(16, 1024);
        assert_eq!(m.data_memory_bits_per_input(), 1024 * (64 * 8 + 5));
        let m = QueueMemoryModel::typical(15, 1024);
        assert_eq!(m.data_memory_bits_per_input(), 1024 * (64 * 8 + 4));
        let m = QueueMemoryModel::typical(1, 2);
        assert_eq!(m.data_memory_bits_per_input(), 2 * (64 * 8 + 1));
        let m = QueueMemoryModel::typical(16, 1024);
        assert_eq!(
            m.total_bits_per_input(),
            m.address_memory_bits_per_input() + m.data_memory_bits_per_input()
        );
    }

    #[test]
    fn multicast_voq_memory_beats_copy_based() {
        // Storing one payload + N address cells must be much smaller than
        // N payload copies for 64-byte cells.
        let m = QueueMemoryModel::typical(16, 1024);
        assert!(m.overhead_ratio() < 0.2, "ratio {}", m.overhead_ratio());
        assert!(
            m.total_bits_per_input() < m.copy_based_bits_per_input() / 5,
            "{} vs {}",
            m.total_bits_per_input(),
            m.copy_based_bits_per_input()
        );
    }

    #[test]
    fn memory_scales_linearly_in_n_not_exponentially() {
        // The whole point of §II: per-input queue count is N, so memory is
        // Θ(N) in switch size for fixed depth — doubling N roughly doubles
        // the address memory.
        let m16 = QueueMemoryModel::typical(16, 256);
        let m32 = QueueMemoryModel::typical(32, 256);
        let ratio = m32.address_memory_bits_per_input() as f64
            / m16.address_memory_bits_per_input() as f64;
        assert!((1.8..=2.2).contains(&ratio), "ratio {ratio}");
    }
}
