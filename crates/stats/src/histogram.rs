//! Fixed-width bucketed histogram over non-negative integer observations.

use fifoms_types::{Checkpoint, StateError, StateReader, StateWriter};

/// A histogram of `u64` observations with unit-width buckets up to a cap,
/// plus an overflow bucket.
///
/// Delays and queue lengths in this workload are small integers with a long
/// tail; unit buckets up to `cap` give exact counts for the body of the
/// distribution while the overflow bucket (with recorded sum) keeps the
/// mean exact even for the tail.
///
/// # Examples
///
/// ```
/// use fifoms_stats::Histogram;
///
/// let mut h = Histogram::new(16);
/// for delay in [0u64, 1, 1, 3, 40] {
///     h.record(delay);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.mean(), 9.0);       // exact, overflow included
/// assert_eq!(h.quantile(0.5), Some(1));
/// assert_eq!(h.overflow_count(), 1); // the 40
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    overflow_count: u64,
    overflow_sum: u128,
    total: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// Create a histogram with exact buckets for values `0..cap` and an
    /// overflow bucket for `>= cap`.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Histogram {
        assert!(cap > 0, "histogram cap must be positive");
        Histogram {
            buckets: vec![0; cap],
            overflow_count: 0,
            overflow_sum: 0,
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.total += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
        if (value as usize) < self.buckets.len() {
            self.buckets[value as usize] += 1;
        } else {
            self.overflow_count += 1;
            self.overflow_sum += value as u128;
        }
    }

    /// Total number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean of all observations (including overflowed ones); 0 when
    /// empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest observation; 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Number of observations that landed in the overflow bucket.
    pub fn overflow_count(&self) -> u64 {
        self.overflow_count
    }

    /// Count for the exact value `v`, or `None` if `v` is in overflow range.
    pub fn bucket(&self, v: u64) -> Option<u64> {
        self.buckets.get(v as usize).copied()
    }

    /// The `q`-quantile (`0 <= q <= 1`) computed over exact buckets; if the
    /// quantile falls in the overflow bucket, returns the bucket cap (a
    /// lower bound). `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        if self.total == 0 {
            return None;
        }
        // rank in 1..=total (nearest-rank definition)
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (v, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(v as u64);
            }
        }
        Some(self.buckets.len() as u64)
    }

    /// Fraction of observations `<= v` (treating overflow as `> v` whenever
    /// `v` is below the cap).
    pub fn cdf(&self, v: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut seen = 0u64;
        for (value, &c) in self.buckets.iter().enumerate() {
            if value as u64 > v {
                break;
            }
            seen += c;
        }
        if v as usize >= self.buckets.len() {
            seen += self.overflow_count;
        }
        seen as f64 / self.total as f64
    }

    /// Merge another histogram (must have the same cap).
    ///
    /// # Panics
    ///
    /// Panics on mismatched caps.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "histogram cap mismatch"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow_count += other.overflow_count;
        self.overflow_sum += other.overflow_sum;
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

impl Checkpoint for Histogram {
    fn state_kind(&self) -> &'static str {
        "histogram"
    }

    fn write_state(&self, w: &mut StateWriter) {
        w.put_usize(self.buckets.len());
        for &b in &self.buckets {
            w.put_u64(b);
        }
        w.put_u64(self.overflow_count);
        w.put_u128(self.overflow_sum);
        w.put_u64(self.total);
        w.put_u128(self.sum);
        w.put_u64(self.max);
    }

    /// The bucket count is the histogram's cap, which is configuration:
    /// a snapshot of another cap is malformed.
    fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let len = r.get_usize()?;
        if len != self.buckets.len() {
            return Err(StateError::Malformed {
                what: format!(
                    "histogram bucket count {len}, expected {}",
                    self.buckets.len()
                ),
            });
        }
        for b in &mut self.buckets {
            *b = r.get_u64()?;
        }
        self.overflow_count = r.get_u64()?;
        self.overflow_sum = r.get_u128()?;
        self.total = r.get_u64()?;
        self.sum = r.get_u128()?;
        self.max = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new(10);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.cdf(5), 0.0);
    }

    #[test]
    #[should_panic(expected = "cap must be positive")]
    fn zero_cap_rejected() {
        let _ = Histogram::new(0);
    }

    #[test]
    fn mean_includes_overflow_exactly() {
        let mut h = Histogram::new(4);
        h.record(1);
        h.record(100); // overflow bucket
        assert_eq!(h.count(), 2);
        assert_eq!(h.overflow_count(), 1);
        assert_eq!(h.mean(), 50.5);
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut h = Histogram::new(100);
        for v in [1u64, 2, 3, 4, 5] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(3));
        assert_eq!(h.quantile(1.0), Some(5));
        assert_eq!(h.quantile(0.2), Some(1));
        assert_eq!(h.quantile(0.21), Some(2));
    }

    #[test]
    fn quantile_in_overflow_returns_cap() {
        let mut h = Histogram::new(4);
        h.record(1000);
        assert_eq!(h.quantile(0.5), Some(4));
    }

    #[test]
    fn cdf_steps() {
        let mut h = Histogram::new(10);
        for v in [0u64, 0, 5] {
            h.record(v);
        }
        assert!((h.cdf(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((h.cdf(4) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.cdf(5), 1.0);
        assert_eq!(h.cdf(100), 1.0);
    }

    #[test]
    fn state_round_trips_only_into_the_same_cap() {
        let mut h = Histogram::new(8);
        for v in [0u64, 3, 3, 50] {
            h.record(v);
        }
        let blob = h.snapshot_state();
        let mut back = Histogram::new(8);
        back.restore_state(&blob).expect("same cap");
        assert_eq!(back.snapshot_state(), blob);
        assert_eq!((back.mean(), back.overflow_count()), (h.mean(), 1));
        let err = Histogram::new(4).restore_state(&blob).unwrap_err();
        assert!(matches!(err, StateError::Malformed { .. }), "{err}");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::new(8);
        a.record(1);
        a.record(20);
        let mut b = Histogram::new(8);
        b.record(3);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bucket(3), Some(1));
        assert_eq!(a.max(), 20);
        assert!((a.mean() - 8.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cap mismatch")]
    fn merge_cap_mismatch_panics() {
        let mut a = Histogram::new(4);
        let b = Histogram::new(8);
        a.merge(&b);
    }

    proptest! {
        #[test]
        fn prop_mean_max_match_reference(values in proptest::collection::vec(0u64..500, 1..200)) {
            let mut h = Histogram::new(64);
            for &v in &values { h.record(v); }
            let mean = values.iter().sum::<u64>() as f64 / values.len() as f64;
            prop_assert!((h.mean() - mean).abs() < 1e-9);
            prop_assert_eq!(h.max(), *values.iter().max().unwrap());
            prop_assert_eq!(h.count(), values.len() as u64);
        }

        #[test]
        fn prop_quantile_monotone(values in proptest::collection::vec(0u64..60, 1..100)) {
            let mut h = Histogram::new(64);
            for &v in &values { h.record(v); }
            let qs = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0];
            let got: Vec<u64> = qs.iter().map(|&q| h.quantile(q).unwrap()).collect();
            for w in got.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }

        #[test]
        fn prop_median_matches_sorted(values in proptest::collection::vec(0u64..60, 1..100)) {
            let mut h = Histogram::new(64);
            for &v in &values { h.record(v); }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            // nearest-rank median: element at ceil(0.5*n)-1
            let rank = ((0.5 * sorted.len() as f64).ceil() as usize).max(1);
            prop_assert_eq!(h.quantile(0.5).unwrap(), sorted[rank - 1]);
        }
    }
}
