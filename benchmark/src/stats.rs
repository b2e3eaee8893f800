//! Order statistics used by every report: nearest-rank percentiles for
//! latency samples, the percentile a sample count can support, and the
//! quartiles Python's `statistics.quantiles(values, n=4)` gives, which is
//! how run-to-run spread is judged.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`: the smallest
/// sample with at least `p`% of the samples at or below it. Zero for an
/// empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// [`percentile`] over an already sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match rank(sorted.len(), p) {
        0 => 0.0,
        r => sorted[r - 1],
    }
}

/// The 1-based nearest rank of percentile `p` in `n` samples.
fn rank(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    // The tolerance keeps float error (0.999 * 10000 = 9990.000000000002)
    // from pushing an exact rank up by one.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it in a sample of `n`, or `None` when even
/// the median has fewer.
pub fn supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0].into_iter().find(|&p| samples_beyond(n, p) >= 10)
}

/// The three cut points of `statistics.quantiles(values, n=4)` (the
/// default "exclusive" method), or `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Median of `values` (the middle quartile), or the single value.
pub fn median(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([_, q2, _]) => q2,
        None => values.first().copied().unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Unsorted input is sorted first; p0+ never underflows.
        assert_eq!(percentile(&[5.0, 4.0], 0.1), 4.0);
    }

    #[test]
    fn ten_beyond_rule() {
        // 100 sweeps: p90 leaves exactly ten behind it, p95 only five.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 95.0), 5);
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(1_000), Some(99.0));
        assert_eq!(supported_percentile(40), Some(75.0));
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(19), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // clamped index extrapolates past the ends.
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0]), 4.0);
        assert_eq!(median(&[1.0, 3.0, 2.0]), 2.0);
    }
}
