//! Order statistics for the report: medians, percentiles that refuse to
//! be read off too few samples, and the spread of the slice values.

/// A percentile is only reported when at least this many samples lie
/// beyond it; below that the value is one outlier, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Why [`percentile`] declined to answer.
#[derive(Debug, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples offered.
    pub have: usize,
    /// Samples needed for [`MIN_BEYOND`] of them to lie beyond `p`.
    pub need: usize,
}

/// Index of the `p`-quantile (`0 < p < 1`) in a sorted sample of `n`
/// values: the smallest rank with at least a share `p` of the sample at
/// or below it.
fn rank(n: usize, p: f64) -> usize {
    ((n as f64 * p).ceil() as usize).clamp(1, n) - 1
}

/// The `p`-quantile of an ascending-sorted sample, refused unless at
/// least [`MIN_BEYOND`] samples lie strictly beyond its rank.
pub fn percentile(sorted: &[u64], p: f64) -> Result<u64, TooFewSamples> {
    assert!(p > 0.0 && p < 1.0, "percentile wants 0 < p < 1");
    let need = (MIN_BEYOND as f64 / (1.0 - p)).ceil() as usize;
    if sorted.is_empty() || sorted.len() - 1 - rank(sorted.len(), p) < MIN_BEYOND {
        return Err(TooFewSamples {
            have: sorted.len(),
            need,
        });
    }
    Ok(sorted[rank(sorted.len(), p)])
}

/// The `p`-quantile, or — when the sample is too small for it — the
/// highest order statistic that still has [`MIN_BEYOND`] samples beyond
/// it. The second element says whether that fallback was taken. Keeps a
/// fixed metric name honest on a host too slow to collect the full tail.
pub fn tail_percentile(sorted: &[u64], p: f64) -> (u64, bool) {
    match percentile(sorted, p) {
        Ok(v) => (v, false),
        Err(_) if sorted.len() > MIN_BEYOND => (sorted[sorted.len() - 1 - MIN_BEYOND], true),
        Err(_) => (sorted.first().copied().unwrap_or(0), true),
    }
}

/// Median of an ascending-sorted integer sample (lower middle).
pub fn median_sorted(sorted: &[u64]) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        sorted[(sorted.len() - 1) / 2]
    }
}

/// Median of a small unsorted float sample (mean of the middle pair when
/// the count is even).
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max − min) ÷ median`: how far apart the slices of one run were.
pub fn spread(values: &[f64]) -> f64 {
    let med = median_f64(values);
    if values.is_empty() || med == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / med
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<u64> = (0..1000).collect();
        // p99 of 1000 samples has 10 beyond (ranks 990..=999): allowed.
        assert_eq!(percentile(&v, 0.99), Ok(989));
        // p99.9 of 1000 samples has one beyond: refused.
        assert_eq!(
            percentile(&v, 0.999),
            Err(TooFewSamples {
                have: 1000,
                need: 10_000
            })
        );
        let v: Vec<u64> = (0..999).collect();
        assert!(percentile(&v, 0.99).is_err(), "9 beyond is not enough");
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn tail_percentile_falls_back_to_supported_rank() {
        let v: Vec<u64> = (0..1000).collect();
        assert_eq!(tail_percentile(&v, 0.999), (989, true));
        let v: Vec<u64> = (0..20_000).collect();
        assert_eq!(tail_percentile(&v, 0.999), (19_979, false));
    }

    #[test]
    fn medians_and_spread() {
        assert_eq!(median_sorted(&[1, 2, 3, 4]), 2);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_f64(&[5.0, 1.0, 3.0]), 3.0);
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }
}
