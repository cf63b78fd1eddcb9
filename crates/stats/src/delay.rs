//! Composite recorder for the paper's two delay metrics.

use crate::{Histogram, RunningStat};
use fifoms_types::{Checkpoint, StateError, StateReader, StateWriter};

/// Default exact-bucket range for delay histograms (slots).
const DELAY_HIST_CAP: usize = 4096;

/// Records input-oriented and output-oriented cell delay.
///
/// Terminology follows §V of the paper:
///
/// * every delivered copy contributes one observation to the
///   **output-oriented** delay (receiver's view);
/// * the copy that *completes* a packet (its last destination) contributes
///   one observation to the **input-oriented** delay (sender's view; the
///   maximum delay over the packet's destinations).
///
/// The caller is responsible for warmup gating — only post-warmup
/// departures should be recorded.
///
/// # Examples
///
/// ```
/// use fifoms_stats::DelayStats;
///
/// let mut d = DelayStats::new();
/// // a fanout-2 multicast: copies delivered after 1 and 4 slots
/// d.record_copy(1, false);
/// d.record_copy(4, true); // last copy completes the packet
/// assert_eq!(d.mean_output_oriented(), 2.5);
/// assert_eq!(d.mean_input_oriented(), 4.0);
/// ```
#[derive(Clone, Debug)]
pub struct DelayStats {
    input_oriented: RunningStat,
    output_oriented: RunningStat,
    input_hist: Histogram,
    output_hist: Histogram,
}

impl Default for DelayStats {
    fn default() -> Self {
        DelayStats::new()
    }
}

impl DelayStats {
    /// An empty recorder.
    pub fn new() -> DelayStats {
        DelayStats {
            input_oriented: RunningStat::new(),
            output_oriented: RunningStat::new(),
            input_hist: Histogram::new(DELAY_HIST_CAP),
            output_hist: Histogram::new(DELAY_HIST_CAP),
        }
    }

    /// Record one delivered copy with delay `delay` (slots); `last_copy`
    /// marks whether this copy completed its packet.
    #[inline]
    pub fn record_copy(&mut self, delay: u64, last_copy: bool) {
        self.output_oriented.push_u64(delay);
        self.output_hist.record(delay);
        if last_copy {
            self.input_oriented.push_u64(delay);
            self.input_hist.record(delay);
        }
    }

    /// Average input-oriented delay (slots).
    pub fn mean_input_oriented(&self) -> f64 {
        self.input_oriented.mean()
    }

    /// Average output-oriented delay (slots).
    pub fn mean_output_oriented(&self) -> f64 {
        self.output_oriented.mean()
    }

    /// Number of completed packets observed.
    pub fn completed_packets(&self) -> u64 {
        self.input_oriented.count()
    }

    /// Number of delivered copies observed.
    pub fn delivered_copies(&self) -> u64 {
        self.output_oriented.count()
    }

    /// The `q`-quantile of the output-oriented delay distribution.
    pub fn output_quantile(&self, q: f64) -> Option<u64> {
        self.output_hist.quantile(q)
    }

    /// The `q`-quantile of the input-oriented delay distribution.
    pub fn input_quantile(&self, q: f64) -> Option<u64> {
        self.input_hist.quantile(q)
    }

    /// Immutable summary snapshot for reporting.
    pub fn summary(&self) -> DelaySummary {
        DelaySummary {
            mean_input_oriented: self.mean_input_oriented(),
            mean_output_oriented: self.mean_output_oriented(),
            p99_output: self.output_hist.quantile(0.99),
            max_output: self.output_oriented.max().map(|m| m as u64),
            completed_packets: self.completed_packets(),
            delivered_copies: self.delivered_copies(),
        }
    }

    /// Merge another recorder (parallel reduction across simulation shards).
    pub fn merge(&mut self, other: &DelayStats) {
        self.input_oriented.merge(&other.input_oriented);
        self.output_oriented.merge(&other.output_oriented);
        self.input_hist.merge(&other.input_hist);
        self.output_hist.merge(&other.output_hist);
    }
}

/// Snapshot of the delay metrics for one simulation run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DelaySummary {
    /// Mean delay until a packet's last destination was served.
    pub mean_input_oriented: f64,
    /// Mean delay over all delivered copies.
    pub mean_output_oriented: f64,
    /// 99th percentile of per-copy delay, if any copies were delivered.
    pub p99_output: Option<u64>,
    /// Largest per-copy delay observed.
    pub max_output: Option<u64>,
    /// Number of packets whose every copy was delivered.
    pub completed_packets: u64,
    /// Number of delivered copies.
    pub delivered_copies: u64,
}

impl Checkpoint for DelayStats {
    fn state_kind(&self) -> &'static str {
        "delay-stats"
    }

    fn write_state(&self, w: &mut StateWriter) {
        self.input_oriented.write_state(w);
        self.output_oriented.write_state(w);
        self.input_hist.write_state(w);
        self.output_hist.write_state(w);
    }

    fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.input_oriented.read_state(r)?;
        self.output_oriented.read_state(r)?;
        self.input_hist.read_state(r)?;
        self.output_hist.read_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder() {
        let d = DelayStats::new();
        assert_eq!(d.mean_input_oriented(), 0.0);
        assert_eq!(d.mean_output_oriented(), 0.0);
        assert_eq!(d.completed_packets(), 0);
        assert_eq!(d.delivered_copies(), 0);
        let s = d.summary();
        assert_eq!(s.p99_output, None);
        assert_eq!(s.max_output, None);
    }

    #[test]
    fn multicast_packet_delays() {
        // Packet with fanout 3: copies delivered with delays 1, 2, 5.
        // Output-oriented mean = (1+2+5)/3; input-oriented = 5 (the last copy).
        let mut d = DelayStats::new();
        d.record_copy(1, false);
        d.record_copy(2, false);
        d.record_copy(5, true);
        assert!((d.mean_output_oriented() - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(d.mean_input_oriented(), 5.0);
        assert_eq!(d.completed_packets(), 1);
        assert_eq!(d.delivered_copies(), 3);
    }

    #[test]
    fn input_oriented_le_relation() {
        // For any stream the mean input-oriented delay (max over copies) is
        // >= mean output-oriented delay when every packet has one completed
        // record; check on a hand-built stream of two packets.
        let mut d = DelayStats::new();
        // packet A: fanout 2, delays 3 then 7
        d.record_copy(3, false);
        d.record_copy(7, true);
        // packet B: unicast, delay 2
        d.record_copy(2, true);
        assert!(d.mean_input_oriented() >= d.mean_output_oriented());
        assert_eq!(d.mean_input_oriented(), 4.5);
        assert_eq!(d.mean_output_oriented(), 4.0);
    }

    #[test]
    fn quantiles_and_summary() {
        let mut d = DelayStats::new();
        for delay in 0..100 {
            d.record_copy(delay, delay % 2 == 0);
        }
        assert_eq!(d.output_quantile(0.5), Some(49));
        assert!(d.input_quantile(1.0).unwrap() >= 98);
        let s = d.summary();
        assert_eq!(s.delivered_copies, 100);
        assert_eq!(s.completed_packets, 50);
        assert_eq!(s.max_output, Some(99));
        assert_eq!(s.p99_output, Some(98));
    }

    #[test]
    fn merge_combines_streams() {
        let mut a = DelayStats::new();
        a.record_copy(2, true);
        let mut b = DelayStats::new();
        b.record_copy(4, true);
        b.record_copy(6, false);
        a.merge(&b);
        assert_eq!(a.delivered_copies(), 3);
        assert_eq!(a.completed_packets(), 2);
        assert_eq!(a.mean_output_oriented(), 4.0);
        assert_eq!(a.mean_input_oriented(), 3.0);
    }

    #[test]
    fn restore_carries_both_delay_views() {
        let mut live = DelayStats::new();
        for (delay, last) in [(1, false), (4, true), (2, true), (9000, true)] {
            live.record_copy(delay, last);
        }
        let mut back = DelayStats::new();
        back.restore_state(&live.snapshot_state()).expect("restore");
        assert_eq!(back.summary(), live.summary());
        assert_eq!(back.input_quantile(0.5), live.input_quantile(0.5));
        live.record_copy(3, true);
        back.record_copy(3, true);
        assert_eq!(back.snapshot_state(), live.snapshot_state());
        // A bare running-stat blob is another component's state.
        let err = back
            .restore_state(&RunningStat::new().snapshot_state())
            .unwrap_err();
        assert!(matches!(err, StateError::KindMismatch { .. }), "{err}");
    }
}
