//! Log₂-bucketed histograms for wide-dynamic-range durations.
//!
//! The unit-width [`Histogram`](crate::Histogram) is right for quantities
//! measured in slots (delays of 0..~10³), but per-slot wall times span
//! nanoseconds to milliseconds — six orders of magnitude — and a
//! unit-width array cannot hold that range. `Log2Histogram` buckets a
//! `u64` sample by its bit length, giving 65 fixed buckets (one for zero,
//! one per power of two) with O(1) recording, no allocation after
//! construction, and a bounded relative quantile error: a reported
//! quantile is the *lower bound* of the bucket containing the rank, so it
//! is at most 2× below the true value (and never above it).

use fifoms_types::{Checkpoint, StateError, StateReader, StateWriter};

/// A fixed 65-bucket base-2 histogram over `u64` samples.
///
/// Bucket `0` holds the value `0`; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i)`. Designed for duration tails: `record` is a couple of
/// integer ops, and `quantile` reports conservative (lower-bound)
/// percentiles.
///
/// # Examples
///
/// ```
/// use fifoms_stats::Log2Histogram;
///
/// let mut h = Log2Histogram::new();
/// for ns in [120u64, 130, 140, 150, 90_000] {
///     h.record(ns);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.max(), 90_000);
/// // The p50 falls in the [128, 256) bucket and reports its lower bound.
/// assert_eq!(h.quantile(0.5), 128);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram::new()
    }
}

/// The bucket index of a value: `0` for zero, else its bit length.
#[inline]
fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The smallest value a bucket can hold.
#[inline]
fn lower_bound(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else {
        1u64 << (bucket - 1)
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Log2Histogram {
        Log2Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The largest sample recorded (`0` when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample value (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The nearest-rank `q`-quantile, reported as the lower bound of the
    /// bucket holding that rank — a conservative estimate never above
    /// the true sample and at most 2× below it. `q` is clamped to
    /// `[0, 1]`; returns `0` when the histogram is empty. For the exact
    /// top of the distribution use [`Log2Histogram::max`].
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return lower_bound(i);
            }
        }
        self.max
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lower_bound, samples)` pairs, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (lower_bound(i), n))
    }
}

impl Checkpoint for Log2Histogram {
    fn state_kind(&self) -> &'static str {
        "log2-histogram"
    }

    fn write_state(&self, w: &mut StateWriter) {
        for &b in &self.buckets {
            w.put_u64(b);
        }
        w.put_u64(self.count);
        w.put_u64(self.sum);
        w.put_u64(self.max);
    }

    fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        for b in &mut self.buckets {
            *b = r.get_u64()?;
        }
        self.count = r.get_u64()?;
        self.sum = r.get_u64()?;
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
        let h = Log2Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.buckets().count(), 0);
    }

    #[test]
    fn restore_resumes_every_bucket() {
        let mut live = Log2Histogram::new();
        for v in [0u64, 1, 5, 5, 900, u64::MAX] {
            live.record(v);
        }
        let blob = live.snapshot_state();
        let mut back = Log2Histogram::new();
        back.record(3);
        back.restore_state(&blob).expect("restore");
        assert_eq!(
            back.buckets().collect::<Vec<_>>(),
            live.buckets().collect::<Vec<_>>()
        );
        assert_eq!(
            (back.count(), back.sum(), back.max()),
            (6, u64::MAX, u64::MAX)
        );
        live.record(64);
        back.record(64);
        assert_eq!(back.snapshot_state(), live.snapshot_state());
        // One bucket short is a truncated blob, not a shorter histogram.
        let short = fifoms_types::frame_state("log2-histogram", 1, &[0u8; 8 * 3]);
        let err = Log2Histogram::new().restore_state(&short).unwrap_err();
        assert!(matches!(err, StateError::UnexpectedEof { .. }), "{err}");
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(lower_bound(0), 0);
        assert_eq!(lower_bound(1), 1);
        assert_eq!(lower_bound(64), 1u64 << 63);
    }

    #[test]
    fn single_sample_quantiles() {
        let mut h = Log2Histogram::new();
        h.record(1000); // bucket [512, 1024)
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 512, "q={q}");
        }
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 1000.0);
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let mut h = Log2Histogram::new();
        h.record(5); // bucket [4, 8)
        h.record(1025); // bucket [1024, 2048)
        assert_eq!(h.quantile(0.5), 4, "p50 in the [4, 8) bucket");
        assert_eq!(h.quantile(1.0), 1024, "p100 in the [1024, 2048) bucket");
        assert_eq!(h.max(), 1025, "max is exact");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        a.record(10);
        a.record(20);
        b.record(3000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 3000);
        assert_eq!(a.sum(), 3030);
        assert_eq!(a.buckets().count(), 3);
    }

    #[test]
    fn zero_values_have_their_own_bucket() {
        let mut h = Log2Histogram::new();
        h.record(0);
        h.record(0);
        h.record(7);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 4, "p100 in the [4, 8) bucket");
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets[0], (0, 2));
    }

    /// Reference nearest-rank quantile over the raw samples.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    proptest! {
        #[test]
        fn prop_quantile_is_a_lower_bound_within_2x(
            raw in proptest::collection::vec(0u64..1_000_000_000, 1..200),
            q_millis in 0u64..=1000,
        ) {
            let q = q_millis as f64 / 1000.0;
            let mut h = Log2Histogram::new();
            for &s in &raw {
                h.record(s);
            }
            let mut samples = raw;
            samples.sort_unstable();
            let exact = exact_quantile(&samples, q);
            let approx = h.quantile(q);
            prop_assert!(approx <= exact, "approx {approx} > exact {exact}");
            if exact > 0 {
                prop_assert!(
                    approx.saturating_mul(2) > exact || approx == 0 && exact == 0,
                    "approx {approx} more than 2x below exact {exact}"
                );
            }
        }

        #[test]
        fn prop_count_sum_max_match_reference(
            samples in proptest::collection::vec(0u64..1_000_000, 0..100)
        ) {
            let mut h = Log2Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            prop_assert_eq!(h.count(), samples.len() as u64);
            prop_assert_eq!(h.sum(), samples.iter().sum::<u64>());
            prop_assert_eq!(h.max(), samples.iter().copied().max().unwrap_or(0));
            let bucket_total: u64 = h.buckets().map(|(_, n)| n).sum();
            prop_assert_eq!(bucket_total, h.count());
        }
    }
}
