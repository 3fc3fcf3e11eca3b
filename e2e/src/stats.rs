//! Small order-statistics helpers shared by the runner and the stages.

/// Median of `values` (mean of the middle two for an even count); 0 for an
/// empty slice, so an unexercised layer reports 0 rather than NaN.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of unsorted nanosecond samples, in the unit
/// `ns / div`; 0 when there are none.
pub fn quantile_ns(samples: &[u64], q: f64, div: f64) -> f64 {
    desim::stats::sample_quantile(samples, q).map_or(0.0, |x| x as f64 / div)
}

/// The percentiles a timing may be reported at.
pub const PERCENTILES: [f64; 6] = [0.5, 0.9, 0.95, 0.99, 0.999, 0.9999];

/// The highest of [`PERCENTILES`] that still has at least ten of `n`
/// samples beyond it — the tail a sample of that size can support. `None`
/// below twenty samples, where not even the median qualifies.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Ascending, so the first from the back that qualifies is the highest.
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|p| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_helper_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(9_999), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn median_and_quantile_handle_small_inputs() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile_ns(&[], 0.5, 1.0), 0.0);
        assert_eq!(quantile_ns(&[5_000, 1_000, 3_000], 0.5, 1_000.0), 3.0);
    }
}
