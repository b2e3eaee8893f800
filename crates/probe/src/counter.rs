//! Saturating counters and power-of-two histograms.

/// Adds `delta` to `slot` without wrapping.
///
/// Every statistics counter in the simulator funnels through this helper:
/// release builds saturate at `u64::MAX` instead of silently wrapping (a
/// wrapped counter reads as a tiny value and corrupts every derived ratio),
/// and `sanitize` builds assert on the overflow so the bug is caught where
/// it happens.
#[inline]
pub fn saturating_count(slot: &mut u64, delta: u64) {
    #[cfg(feature = "sanitize")]
    debug_assert!(
        slot.checked_add(delta).is_some(),
        "sanitize: counter overflow ({slot} + {delta})"
    );
    *slot = slot.saturating_add(delta);
}

/// Number of power-of-two buckets in a [`Histogram`] (bit lengths 0..=64).
const BUCKETS: usize = 65;

/// A histogram over `u64` samples with power-of-two buckets.
///
/// Bucket `k` counts samples whose bit length is `k` (bucket 0 holds the
/// value zero, bucket 1 holds 1, bucket 2 holds 2–3, bucket 3 holds 4–7,
/// …). Alongside the buckets it keeps exact count, sum, min, and max, so
/// means are exact and only the shape is quantized. Fully deterministic.
///
/// # Example
///
/// ```
/// use hbc_probe::Histogram;
///
/// let mut h = Histogram::default();
/// for v in [1, 2, 3, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), 100);
/// assert!((h.mean() - 26.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; BUCKETS] }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples (used when folding an already-counted
    /// array, e.g. per-width issue tallies, into the registry).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        saturating_count(&mut self.count, n);
        saturating_count(&mut self.sum, value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let bucket = (u64::BITS - value.leading_zeros()) as usize;
        saturating_count(&mut self.buckets[bucket], n);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (zero when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (zero when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Occupancy of power-of-two bucket `k` (samples of bit length `k`).
    pub fn bucket(&self, k: usize) -> u64 {
        self.buckets.get(k).copied().unwrap_or(0)
    }

    /// Nearest-rank quantile estimate, `q` in `[0, 1]` (zero when empty).
    ///
    /// The histogram only retains power-of-two buckets, so the estimate
    /// returns the upper edge of the bucket containing the target rank —
    /// an upper bound within 2× of the true sample — clamped into the
    /// exact `[min, max]` range. `q = 0` returns the exact minimum and
    /// `q = 1` the exact maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest rank: the smallest rank r (1-based) with r >= q * count.
        #[expect(
            clippy::cast_possible_truncation,
            reason = "`q` is clamped to [0, 1], so the rank is at most `count`"
        )]
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (k, occupancy) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(*occupancy);
            if cumulative >= rank {
                // Upper edge of bucket k: values of bit length k are in
                // [2^(k-1), 2^k - 1]; bucket 0 holds only zero.
                let edge = if k == 0 { 0 } else { (1u64 << (k - 1)).saturating_mul(2) - 1 };
                return edge.clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// `(count, sum, min, max)` rendered as a JSON object fragment.
    pub(crate) fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.4}}}",
            self.count,
            self.sum,
            self.min(),
            self.max,
            self.mean()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // In sanitize debug builds overflow asserts instead of saturating
    // silently; the saturation path only exists for release figure runs.
    #[cfg(not(feature = "sanitize"))]
    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let mut slot = u64::MAX - 1;
        saturating_count(&mut slot, 10);
        assert_eq!(slot, u64::MAX, "must saturate, not wrap");
    }

    #[cfg(feature = "sanitize")]
    #[test]
    #[should_panic(expected = "counter overflow")]
    fn sanitize_asserts_on_overflow() {
        let mut slot = u64::MAX;
        saturating_count(&mut slot, 1);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        assert_eq!(h.bucket(0), 1); // value 0
        assert_eq!(h.bucket(1), 1); // value 1
        assert_eq!(h.bucket(2), 2); // values 2-3
        assert_eq!(h.bucket(3), 1); // values 4-7
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 4);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds_clamped_to_range() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0); // empty
        for v in 1..=100u64 {
            h.record(v);
        }
        // q=0 and q=1 are exact; mid quantiles are upper bucket edges
        // within 2x of the true sample and never outside [min, max].
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 100);
        for q in [0.5f64, 0.95, 0.99] {
            #[expect(clippy::cast_possible_truncation, reason = "a rank of at most 100")]
            let true_rank = (q * 100.0).ceil() as u64;
            let est = h.quantile(q);
            assert!(est >= true_rank, "q={q}: {est} < {true_rank}");
            assert!(est <= (true_rank * 2).min(100), "q={q}: {est} too high");
        }
        // Single-value histograms report that value at every quantile.
        let mut one = Histogram::default();
        one.record_n(37, 5);
        assert_eq!(one.quantile(0.5), 37);
        assert_eq!(one.quantile(0.99), 37);
    }

    #[test]
    fn histogram_record_n_and_empty() {
        let mut h = Histogram::default();
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
        h.record_n(8, 4);
        h.record_n(9, 0); // no-op
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 32);
        assert!((h.mean() - 8.0).abs() < 1e-12);
        assert!(h.to_json().contains("\"count\":4"));
    }
}
