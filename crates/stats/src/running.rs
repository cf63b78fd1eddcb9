//! Numerically stable running moments (Welford's algorithm).

use core::fmt;

use fifoms_types::{Checkpoint, StateError, StateReader, StateWriter};

/// Single-pass mean/variance/min/max accumulator.
///
/// Uses Welford's online algorithm, which is numerically stable for the
/// very long sample streams a 10^6-slot simulation produces (naive
/// sum-of-squares accumulators lose precision catastrophically there).
///
/// # Examples
///
/// ```
/// use fifoms_stats::RunningStat;
///
/// let mut s = RunningStat::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.population_variance(), 4.0);
/// ```
#[derive(Clone, Copy, Default, Debug)]
pub struct RunningStat {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStat {
    /// An empty accumulator.
    pub fn new() -> RunningStat {
        RunningStat {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Add an integer observation (convenience for slot counts and queue
    /// lengths).
    #[inline]
    pub fn push_u64(&mut self, x: u64) {
        self.push(x as f64);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no observation has been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sample mean; 0 for an empty accumulator (convenient for reporting
    /// idle simulation runs).
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (`m2 / n`); 0 when fewer than one observation.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Unbiased sample variance (`m2 / (n-1)`); 0 when fewer than two
    /// observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation; `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel reduction), using
    /// Chan et al.'s pairwise update.
    pub fn merge(&mut self, other: &RunningStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Checkpoint for RunningStat {
    fn state_kind(&self) -> &'static str {
        "running-stat"
    }

    /// Floats travel as bit patterns, so a restore is bit-identical.
    fn write_state(&self, w: &mut StateWriter) {
        w.put_u64(self.count);
        w.put_f64(self.mean);
        w.put_f64(self.m2);
        w.put_f64(self.min);
        w.put_f64(self.max);
    }

    fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.count = r.get_u64()?;
        self.mean = r.get_f64()?;
        self.m2 = r.get_f64()?;
        self.min = r.get_f64()?;
        self.max = r.get_f64()?;
        Ok(())
    }
}

impl fmt::Display for RunningStat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min().unwrap_or(f64::NAN),
            self.max().unwrap_or(f64::NAN)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_stat_defaults() {
        let s = RunningStat::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn restore_resumes_bit_identically() {
        let mut live = RunningStat::new();
        for x in [0.1, -2.5, 1e-9, 3.0e7] {
            live.push(x);
        }
        let mut back = RunningStat::new();
        back.restore_state(&live.snapshot_state()).expect("restore");
        // Both accumulators take the same tail; every moment stays
        // bit-equal, which a decimal or rounded encoding would not give.
        for x in [7.25, -0.3] {
            live.push(x);
            back.push(x);
        }
        assert_eq!(back.count(), live.count());
        assert_eq!(back.mean().to_bits(), live.mean().to_bits());
        assert_eq!(back.std_dev().to_bits(), live.std_dev().to_bits());
        assert_eq!(back.min(), Some(-2.5));
        assert_eq!(back.max(), Some(3.0e7));
        assert_eq!(back.snapshot_state(), live.snapshot_state());
    }

    #[test]
    fn single_observation() {
        let mut s = RunningStat::new();
        s.push(3.5);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), Some(3.5));
        assert_eq!(s.max(), Some(3.5));
    }

    #[test]
    fn known_dataset_moments() {
        let mut s = RunningStat::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.mean(), 5.0);
        assert!((s.population_variance() - 4.0).abs() < 1e-12);
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn push_u64_matches_float_push() {
        let mut a = RunningStat::new();
        let mut b = RunningStat::new();
        for x in [1u64, 5, 7] {
            a.push_u64(x);
            b.push(x as f64);
        }
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.sample_variance(), b.sample_variance());
    }

    #[test]
    fn merge_empty_cases() {
        let mut a = RunningStat::new();
        let empty = RunningStat::new();
        a.merge(&empty);
        assert!(a.is_empty());
        let mut b = RunningStat::new();
        b.push(2.0);
        a.merge(&b);
        assert_eq!(a.mean(), 2.0);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn display_contains_fields() {
        let mut s = RunningStat::new();
        s.push(1.0);
        let d = s.to_string();
        assert!(d.contains("n=1"));
        assert!(d.contains("mean=1.0000"));
    }

    fn naive(values: &[f64]) -> (f64, f64) {
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    proptest! {
        #[test]
        fn prop_matches_naive_two_pass(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut s = RunningStat::new();
            for &v in &values {
                s.push(v);
            }
            let (mean, var) = naive(&values);
            prop_assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
            prop_assert!((s.population_variance() - var).abs() <= 1e-5 * (1.0 + var.abs()));
            prop_assert_eq!(s.count(), values.len() as u64);
        }

        #[test]
        fn prop_merge_equals_sequential(
            a in proptest::collection::vec(-1e3f64..1e3, 0..100),
            b in proptest::collection::vec(-1e3f64..1e3, 0..100),
        ) {
            let mut sa = RunningStat::new();
            for &v in &a { sa.push(v); }
            let mut sb = RunningStat::new();
            for &v in &b { sb.push(v); }
            let mut merged = sa;
            merged.merge(&sb);

            let mut seq = RunningStat::new();
            for &v in a.iter().chain(&b) { seq.push(v); }

            prop_assert_eq!(merged.count(), seq.count());
            prop_assert!((merged.mean() - seq.mean()).abs() <= 1e-9 * (1.0 + seq.mean().abs()));
            prop_assert!(
                (merged.population_variance() - seq.population_variance()).abs()
                    <= 1e-6 * (1.0 + seq.population_variance().abs())
            );
        }

        #[test]
        fn prop_min_max_bound_mean(values in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let mut s = RunningStat::new();
            for &v in &values { s.push(v); }
            let (min, max) = (s.min().unwrap(), s.max().unwrap());
            prop_assert!(min <= max);
            prop_assert!(s.mean() >= min - 1e-9 && s.mean() <= max + 1e-9);
        }
    }
}
