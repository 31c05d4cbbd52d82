//! Order statistics over per-rep timing samples.

/// Median: the mean of the two middle values for an even count. Empty
/// input yields NaN so a missing sample set cannot masquerade as a
/// measurement.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Samples that must lie beyond the tail percentile for it to be a
/// measurement of the tail and not of one outlier.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail of a sample set: the highest percentile that still has at
/// least [`TAIL_MIN_BEYOND`] samples beyond it, and the value there — p95
/// at 200 samples, p83.3 at 60, p66.7 at 30. With 20 samples or fewer
/// there is no such percentile above the median (too few samples to say
/// anything about a tail), so the median is reported as p50.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    if n <= 2 * TAIL_MIN_BEYOND {
        return (50.0, median(samples));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - TAIL_MIN_BEYOND;
    (100.0 * rank as f64 / n as f64, sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picker_keeps_ten_samples_beyond() {
        for (n, pct) in [(200usize, 95.0), (60, 83.333), (30, 66.667), (21, 52.381)] {
            let samples: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
            let (got_pct, value) = tail(&samples);
            assert!((got_pct - pct).abs() < 0.01, "n = {n}: p{got_pct}");
            let beyond = samples.iter().filter(|&&s| s > value).count();
            assert_eq!(beyond, TAIL_MIN_BEYOND, "n = {n}");
        }
    }

    #[test]
    fn tail_never_drops_below_the_median() {
        for n in [1usize, 5, 10, 19, 20] {
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert_eq!(tail(&samples), (50.0, median(&samples)), "n = {n}");
        }
    }

    #[test]
    fn median_on_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
