//! Queue-occupancy tracking (average and maximum queue size).

use crate::RunningStat;
use fifoms_types::{Checkpoint, StateError, StateReader, StateWriter};

/// Tracks per-port queue occupancy over time.
///
/// The paper defines queue size as "the number of data cells in the buffer
/// of an input port", i.e. how many unsent packets the port holds (§V); for
/// the output-queued baseline the same statistic is taken over output
/// queues. One sample per port per slot is recorded after the slot's
/// transfers complete.
///
/// * **average queue size** = mean over all (slot, port) samples;
/// * **maximum queue size** = max over all samples.
#[derive(Clone, Debug)]
pub struct OccupancyTracker {
    per_port: Vec<RunningStat>,
    overall: RunningStat,
    max: usize,
}

impl OccupancyTracker {
    /// Tracker for `ports` queues.
    ///
    /// # Panics
    ///
    /// Panics if `ports == 0`.
    pub fn new(ports: usize) -> OccupancyTracker {
        assert!(ports > 0, "occupancy tracker needs at least one port");
        OccupancyTracker {
            per_port: vec![RunningStat::new(); ports],
            overall: RunningStat::new(),
            max: 0,
        }
    }

    /// Number of tracked ports.
    pub fn ports(&self) -> usize {
        self.per_port.len()
    }

    /// Record this slot's occupancy samples, one per port.
    ///
    /// # Panics
    ///
    /// Panics if `sizes.len()` differs from the configured port count.
    pub fn sample(&mut self, sizes: &[usize]) {
        assert_eq!(sizes.len(), self.per_port.len(), "port count mismatch");
        for (stat, &s) in self.per_port.iter_mut().zip(sizes) {
            stat.push_u64(s as u64);
            self.overall.push_u64(s as u64);
            self.max = self.max.max(s);
        }
    }

    /// Average queue size over all samples (ports × slots).
    pub fn mean(&self) -> f64 {
        self.overall.mean()
    }

    /// Largest queue size observed at any port in any slot.
    pub fn max(&self) -> usize {
        self.max
    }

    /// Average queue size of one port.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn port_mean(&self, port: usize) -> f64 {
        self.per_port[port].mean()
    }

    /// Number of slots sampled.
    pub fn samples(&self) -> u64 {
        self.per_port.first().map_or(0, |s| s.count())
    }

    /// Immutable summary snapshot for reporting.
    pub fn summary(&self) -> OccupancySummary {
        OccupancySummary {
            mean: self.mean(),
            max: self.max(),
            slots_sampled: self.samples(),
        }
    }
}

/// Snapshot of the occupancy metrics for one simulation run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OccupancySummary {
    /// Time- and port-averaged queue size.
    pub mean: f64,
    /// Peak queue size at any port.
    pub max: usize,
    /// Number of slots that contributed samples.
    pub slots_sampled: u64,
}

impl Checkpoint for OccupancyTracker {
    fn state_kind(&self) -> &'static str {
        "occupancy-tracker"
    }

    fn write_state(&self, w: &mut StateWriter) {
        w.put_usize(self.per_port.len());
        for s in &self.per_port {
            s.write_state(w);
        }
        self.overall.write_state(w);
        w.put_usize(self.max);
    }

    /// The port count is configuration: a snapshot of another port count
    /// is malformed.
    fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let ports = r.get_usize()?;
        if ports != self.per_port.len() {
            return Err(StateError::Malformed {
                what: format!(
                    "occupancy port count {ports}, expected {}",
                    self.per_port.len()
                ),
            });
        }
        for s in &mut self.per_port {
            s.read_state(r)?;
        }
        self.overall.read_state(r)?;
        self.max = r.get_usize()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker() {
        let t = OccupancyTracker::new(4);
        assert_eq!(t.ports(), 4);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.max(), 0);
        assert_eq!(t.samples(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_rejected() {
        let _ = OccupancyTracker::new(0);
    }

    #[test]
    #[should_panic(expected = "port count mismatch")]
    fn wrong_sample_width_rejected() {
        let mut t = OccupancyTracker::new(2);
        t.sample(&[1, 2, 3]);
    }

    #[test]
    fn averages_over_ports_and_slots() {
        let mut t = OccupancyTracker::new(2);
        t.sample(&[0, 4]); // slot 1
        t.sample(&[2, 2]); // slot 2
        assert_eq!(t.mean(), 2.0);
        assert_eq!(t.max(), 4);
        assert_eq!(t.samples(), 2);
        assert_eq!(t.port_mean(0), 1.0);
        assert_eq!(t.port_mean(1), 3.0);
    }

    #[test]
    fn state_round_trips_only_into_the_same_port_count() {
        let mut t = OccupancyTracker::new(2);
        t.sample(&[0, 4]);
        t.sample(&[3, 1]);
        let blob = t.snapshot_state();
        let mut back = OccupancyTracker::new(2);
        back.restore_state(&blob).expect("same shape");
        assert_eq!(back.snapshot_state(), blob);
        assert_eq!((back.mean(), back.max()), (t.mean(), t.max()));
        let err = OccupancyTracker::new(3).restore_state(&blob).unwrap_err();
        assert!(matches!(err, StateError::Malformed { .. }), "{err}");
    }

    #[test]
    fn summary_snapshot() {
        let mut t = OccupancyTracker::new(1);
        t.sample(&[7]);
        let s = t.summary();
        assert_eq!(
            s,
            OccupancySummary {
                mean: 7.0,
                max: 7,
                slots_sampled: 1
            }
        );
    }
}
