//! Backlog-growth detection (instability / saturation of an operating point).

use fifoms_types::{Checkpoint, StateError, StateReader, StateWriter};

/// Verdict of a [`SaturationDetector`] at the end of a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SaturationVerdict {
    /// Backlog stayed bounded; the measured statistics are meaningful.
    Stable,
    /// Backlog grew persistently over the measurement window: the offered
    /// load exceeds what the scheduler can sustain. Delay and queue-size
    /// statistics are censored (they depend on run length, not the system).
    Saturated,
    /// The hard backlog cap was hit and the run was cut short.
    CapExceeded,
}

impl SaturationVerdict {
    /// Whether the operating point was unsustainable.
    pub fn is_saturated(self) -> bool {
        !matches!(self, SaturationVerdict::Stable)
    }
}

/// Detects unbounded backlog growth.
///
/// The paper runs each point "unless the switch becomes unstable (i.e. it
/// reaches a stage where it is unable to sustain the offered load)" (§V).
/// We operationalise instability two ways:
///
/// 1. a **hard cap**: if total backlog ever exceeds `cap`, the point is
///    declared [`SaturationVerdict::CapExceeded`] immediately (lets sweeps
///    skip hopeless points fast);
/// 2. a **trend test**: backlog is sampled periodically; at end of run the
///    mean of the last quarter of samples is compared against the mean of
///    the second quarter (both after warmup). If the late mean exceeds the
///    early mean by more than `growth_factor`× *and* by an absolute margin
///    that rules out noise around an empty queue, the point is declared
///    [`SaturationVerdict::Saturated`].
#[derive(Clone, Debug)]
pub struct SaturationDetector {
    cap: usize,
    growth_factor: f64,
    absolute_margin: f64,
    samples: Vec<usize>,
    cap_hit: bool,
}

impl SaturationDetector {
    /// Detector with a hard backlog cap and default trend thresholds
    /// (growth factor 1.5×, absolute margin 50 cells).
    pub fn new(cap: usize) -> SaturationDetector {
        SaturationDetector {
            cap,
            growth_factor: 1.5,
            absolute_margin: 50.0,
            samples: Vec::new(),
            cap_hit: false,
        }
    }

    /// Override the trend-test thresholds.
    pub fn with_trend(mut self, growth_factor: f64, absolute_margin: f64) -> SaturationDetector {
        assert!(growth_factor >= 1.0, "growth factor must be >= 1");
        self.growth_factor = growth_factor;
        self.absolute_margin = absolute_margin;
        self
    }

    /// The configured hard cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Record a backlog sample (total cells queued in the switch); returns
    /// `true` if the hard cap is now exceeded and the caller should abort
    /// the run.
    pub fn observe(&mut self, backlog: usize) -> bool {
        self.samples.push(backlog);
        if backlog > self.cap {
            self.cap_hit = true;
        }
        self.cap_hit
    }

    /// Make room for `total` samples in all, so that [`observe`] does not
    /// allocate until that many have been recorded.
    ///
    /// [`observe`]: SaturationDetector::observe
    pub fn reserve_samples(&mut self, total: usize) {
        self.samples
            .reserve(total.saturating_sub(self.samples.len()));
    }

    /// Whether the cap has been hit so far.
    pub fn cap_hit(&self) -> bool {
        self.cap_hit
    }

    /// Final verdict over all recorded samples.
    pub fn verdict(&self) -> SaturationVerdict {
        if self.cap_hit {
            return SaturationVerdict::CapExceeded;
        }
        let n = self.samples.len();
        if n < 8 {
            // Too little data to call a trend; assume stable.
            return SaturationVerdict::Stable;
        }
        let quarter = n / 4;
        let early = &self.samples[quarter..2 * quarter];
        let late = &self.samples[3 * quarter..];
        let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
        let (e, l) = (mean(early), mean(late));
        if l > e * self.growth_factor && l - e > self.absolute_margin {
            SaturationVerdict::Saturated
        } else {
            SaturationVerdict::Stable
        }
    }
}

impl Checkpoint for SaturationDetector {
    fn state_kind(&self) -> &'static str {
        "saturation-detector"
    }

    // `cap`, `growth_factor` and `absolute_margin` are configuration,
    // rebuilt by the caller; the samples and the cap latch are state.
    fn write_state(&self, w: &mut StateWriter) {
        w.put_usize(self.samples.len());
        for &s in &self.samples {
            w.put_usize(s);
        }
        w.put_bool(self.cap_hit);
    }

    /// Refills the sample vector in place, so a reservation made before
    /// the restore survives it.
    fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let len = r.get_usize()?;
        if len > 1 << 32 {
            return Err(StateError::Malformed {
                what: format!("saturation sample count {len}"),
            });
        }
        self.samples.clear();
        for _ in 0..len {
            self.samples.push(r.get_usize()?);
        }
        self.cap_hit = r.get_bool()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_helpers() {
        assert!(!SaturationVerdict::Stable.is_saturated());
        assert!(SaturationVerdict::Saturated.is_saturated());
        assert!(SaturationVerdict::CapExceeded.is_saturated());
    }

    #[test]
    fn stable_flat_backlog() {
        let mut d = SaturationDetector::new(10_000);
        for i in 0..100 {
            assert!(!d.observe(10 + (i % 3)));
        }
        assert_eq!(d.verdict(), SaturationVerdict::Stable);
    }

    #[test]
    fn cap_exceeded_aborts() {
        let mut d = SaturationDetector::new(100);
        assert!(!d.observe(50));
        assert!(d.observe(101));
        assert!(d.cap_hit());
        // Cap verdict sticks even if backlog later drains.
        d.observe(0);
        assert_eq!(d.verdict(), SaturationVerdict::CapExceeded);
    }

    #[test]
    fn linear_growth_detected() {
        let mut d = SaturationDetector::new(1_000_000);
        for i in 0..200 {
            d.observe(i * 10);
        }
        assert_eq!(d.verdict(), SaturationVerdict::Saturated);
    }

    #[test]
    fn small_absolute_fluctuation_ignored() {
        // Growth from 2 to 4 cells is 2x but tiny in absolute terms — noise
        // around an almost-empty switch must not be flagged.
        let mut d = SaturationDetector::new(1_000_000);
        for i in 0..100 {
            d.observe(if i < 50 { 2 } else { 4 });
        }
        assert_eq!(d.verdict(), SaturationVerdict::Stable);
    }

    #[test]
    fn too_few_samples_stable() {
        let mut d = SaturationDetector::new(100);
        for _ in 0..4 {
            d.observe(1);
        }
        assert_eq!(d.verdict(), SaturationVerdict::Stable);
    }

    #[test]
    fn custom_trend_thresholds() {
        // With a lenient growth factor the same trace flips verdicts.
        let trace: Vec<usize> = (0..100).map(|i| 100 + i * 5).collect();
        let run = |gf: f64| {
            let mut d = SaturationDetector::new(1_000_000).with_trend(gf, 10.0);
            for &b in &trace {
                d.observe(b);
            }
            d.verdict()
        };
        assert_eq!(run(1.2), SaturationVerdict::Saturated);
        assert_eq!(run(5.0), SaturationVerdict::Stable);
    }

    #[test]
    #[should_panic(expected = "growth factor")]
    fn bad_growth_factor_rejected() {
        let _ = SaturationDetector::new(10).with_trend(0.5, 1.0);
    }

    #[test]
    fn reserved_samples_survive_until_the_reservation_is_used() {
        let mut d = SaturationDetector::new(100);
        d.reserve_samples(64);
        let ptr = d.samples.as_ptr();
        for _ in 0..64 {
            d.observe(1);
        }
        assert_eq!(
            d.samples.as_ptr(),
            ptr,
            "observe reallocated inside the reservation"
        );
        // A restore refills the reserved vector in place: the samples and
        // the latch come back, and the rest of the reservation stays.
        let mut saved = SaturationDetector::new(100);
        for b in [5, 7, 300] {
            saved.observe(b);
        }
        let mut d = SaturationDetector::new(100);
        d.reserve_samples(64);
        let ptr = d.samples.as_ptr();
        d.restore_state(&saved.snapshot_state()).expect("restore");
        assert_eq!(d.samples, [5, 7, 300]);
        assert!(d.cap_hit());
        assert_eq!(d.samples.as_ptr(), ptr, "the restore reallocated");
        for _ in 3..64 {
            d.observe(1);
        }
        assert_eq!(
            d.samples.as_ptr(),
            ptr,
            "observe reallocated after a restore"
        );
    }
}
