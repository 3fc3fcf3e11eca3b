//! Output analysis: running moments, confidence intervals, replications.
//!
//! The paper's stopping rule (§VI.A): repeat each experiment until the 95%
//! confidence interval of the mean turnaround time `T` is within ±1% of the
//! average. [`Replications`] implements exactly that check over per-run
//! sample means produced by [`Welford`] accumulators.

use serde::{Deserialize, Serialize};

/// Numerically stable running mean/variance (Welford's algorithm).
///
/// ```
/// use desim::stats::Welford;
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 6.0] { w.push(x); }
/// assert_eq!(w.mean(), 4.0);
/// assert_eq!(w.variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0.0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Merge two accumulators (parallel reduction; Chan et al. update).
    pub fn merge(&self, other: &Welford) -> Welford {
        if self.n == 0 {
            return *other;
        }
        if other.n == 0 {
            return *self;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        Welford { n, mean, m2 }
    }
}

/// Two-sided Student-t critical value for the given confidence level.
///
/// Table-driven for the common levels (0.95, 0.99) with linear interpolation
/// on degrees of freedom; falls back to the normal quantile above df = 120.
/// Accurate to ~1e-3, which is far tighter than simulation noise.
pub fn t_critical(df: u64, confidence: f64) -> f64 {
    // (df, t_{0.975}, t_{0.995})
    const TABLE: &[(u64, f64, f64)] = &[
        (1, 12.706, 63.657),
        (2, 4.303, 9.925),
        (3, 3.182, 5.841),
        (4, 2.776, 4.604),
        (5, 2.571, 4.032),
        (6, 2.447, 3.707),
        (7, 2.365, 3.499),
        (8, 2.306, 3.355),
        (9, 2.262, 3.250),
        (10, 2.228, 3.169),
        (12, 2.179, 3.055),
        (14, 2.145, 2.977),
        (16, 2.120, 2.921),
        (18, 2.101, 2.878),
        (20, 2.086, 2.845),
        (25, 2.060, 2.787),
        (30, 2.042, 2.750),
        (40, 2.021, 2.704),
        (60, 2.000, 2.660),
        (80, 1.990, 2.639),
        (100, 1.984, 2.626),
        (120, 1.980, 2.617),
    ];
    let pick = |lo: &(u64, f64, f64)| -> f64 {
        if confidence >= 0.99 {
            lo.2
        } else {
            lo.1
        }
    };
    assert!(
        (0.5..1.0).contains(&confidence),
        "confidence must be in [0.5, 1), got {confidence}"
    );
    if df == 0 {
        return f64::INFINITY;
    }
    if df >= 120 {
        return if confidence >= 0.99 { 2.576 } else { 1.960 };
    }
    let mut prev = &TABLE[0];
    for row in TABLE {
        if row.0 == df {
            return pick(row);
        }
        if row.0 > df {
            // linear interpolation between prev and row on df
            let f = (df - prev.0) as f64 / (row.0 - prev.0) as f64;
            return pick(prev) + f * (pick(row) - pick(prev));
        }
        prev = row;
    }
    pick(prev)
}

/// A mean with its half-width confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CiMean {
    /// Point estimate (mean over replications).
    pub mean: f64,
    /// Half-width of the confidence interval.
    pub half_width: f64,
    /// Number of replications behind the estimate.
    pub n: u64,
}

impl CiMean {
    /// Relative half-width (half_width / |mean|); infinite when the mean is 0.
    pub fn relative_half_width(&self) -> f64 {
        if self.mean == 0.0 {
            if self.half_width == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.half_width / self.mean.abs()
        }
    }
}

/// Aggregates one scalar metric over independent replications and reports a
/// Student-t confidence interval, implementing the paper's stopping rule.
///
/// ```
/// use desim::stats::Replications;
/// let mut t = Replications::new(0.95);
/// for run in [101.0, 99.5, 100.2, 99.8] { t.push(run); }
/// let est = t.estimate();
/// assert!((est.mean - 100.125).abs() < 1e-9);
/// assert!(est.half_width > 0.0);
/// // the paper's rule: repeat until the CI is within a target fraction
/// // of the mean (±1% in the paper; this noisy 4-run demo reaches ±2%)
/// assert!(t.converged(0.02, 4));
/// assert!(!t.converged(0.001, 4));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Replications {
    acc: Welford,
    confidence: f64,
}

impl Replications {
    /// New aggregator at the given confidence level (e.g. 0.95).
    pub fn new(confidence: f64) -> Self {
        Replications {
            acc: Welford::new(),
            confidence,
        }
    }

    /// Record the result of one replication.
    pub fn push(&mut self, value: f64) {
        self.acc.push(value);
    }

    /// Number of replications recorded.
    pub fn count(&self) -> u64 {
        self.acc.count()
    }

    /// Current mean and confidence half-width.
    pub fn estimate(&self) -> CiMean {
        let n = self.acc.count();
        let hw = if n < 2 {
            f64::INFINITY
        } else {
            t_critical(n - 1, self.confidence) * self.acc.std_err()
        };
        CiMean {
            mean: self.acc.mean(),
            half_width: hw,
            n,
        }
    }

    /// True once the relative half-width is at or below `target` (e.g. 0.01
    /// for the paper's ±1%), with at least `min_reps` replications.
    pub fn converged(&self, target: f64, min_reps: u64) -> bool {
        self.acc.count() >= min_reps.max(2) && self.estimate().relative_half_width() <= target
    }
}

/// Sample store with exact quantiles — for per-job distributions (e.g. the
/// turnaround tail) where the paper's mean-only reporting hides latency
/// outliers. O(n) memory; sorting is deferred and cached.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Tally {
    samples: Vec<f64>,
    #[serde(skip)]
    sorted: bool,
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// The `q`-quantile (nearest-rank; `q ∈ [0, 1]`), or `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0,1]");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
        let rank = ((q * self.samples.len() as f64).ceil() as usize).clamp(1, self.samples.len());
        Some(self.samples[rank - 1])
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&mut self) -> Option<f64> {
        self.quantile(1.0)
    }
}

/// Nearest-rank quantile over an unsorted sample set, `q` clamped to
/// [0, 1]; `None` when empty. The federation's round/failover latency
/// metrics use it, so every quantile printed by this workspace means the
/// same thing.
pub fn sample_quantile(samples: &[u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    Some(sorted[idx])
}

/// HDR-style log-bucketed latency histogram: fixed memory regardless of
/// sample count, with bounded relative error on quantiles. Buckets are
/// base-2 magnitudes split into `SUBBUCKETS` linear sub-buckets, giving a
/// worst-case quantile error of 1/SUBBUCKETS ≈ 3% — plenty for latency
/// reporting, and unlike [`Tally`] it never grows under a sustained load
/// test recording one sample per request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogHistogram {
    /// `counts[m * SUBBUCKETS + s]` = samples whose magnitude is `m` and
    /// sub-bucket `s`.
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
}

/// Linear sub-buckets per power-of-two magnitude (relative error 1/32).
const SUBBUCKETS: usize = 32;
/// Magnitudes tracked: values up to 2^40 (≈ 12.7 days in microseconds).
const MAGNITUDES: usize = 41;

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; MAGNITUDES * SUBBUCKETS],
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(value: u64) -> usize {
        // Magnitude = floor(log2(v)) for v >= SUBBUCKETS; small values get
        // exact buckets (one per integer) in the first magnitudes.
        let v = value.max(1);
        let mag = (63 - v.leading_zeros()) as usize;
        if mag < SUBBUCKETS.trailing_zeros() as usize {
            // v < SUBBUCKETS: exact.
            return v as usize;
        }
        let sub = ((v >> (mag - SUBBUCKETS.trailing_zeros() as usize)) as usize) - SUBBUCKETS;
        let idx = (mag - SUBBUCKETS.trailing_zeros() as usize + 1) * SUBBUCKETS + sub;
        idx.min(MAGNITUDES * SUBBUCKETS - 1)
    }

    /// Lower edge of the bucket holding `value` — the value a quantile
    /// query reports for samples in that bucket.
    fn bucket_floor(idx: usize) -> u64 {
        if idx < SUBBUCKETS {
            return idx as u64;
        }
        let mag = idx / SUBBUCKETS - 1 + SUBBUCKETS.trailing_zeros() as usize;
        let sub = (idx % SUBBUCKETS) as u64;
        (SUBBUCKETS as u64 + sub) << (mag - SUBBUCKETS.trailing_zeros() as usize)
    }

    /// Record one sample (e.g. a latency in microseconds).
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact largest recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Exact smallest recorded sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// The `q`-quantile (nearest-rank over buckets; `q` clamped to `[0,1]`),
    /// accurate to the bucket width (≤ ~3% relative error). `None` when
    /// empty. The extremes are exact: q=0 reports `min`, q=1 reports `max`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_floor(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merge another histogram into this one.
    pub fn absorb(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Welford::new();
        let mut a = Welford::new();
        let mut b = Welford::new();
        for (i, &x) in xs.iter().enumerate() {
            all.push(x);
            if i % 2 == 0 {
                a.push(x)
            } else {
                b.push(x)
            }
        }
        let merged = a.merge(&b);
        assert_eq!(merged.count(), all.count());
        assert!((merged.mean() - all.mean()).abs() < 1e-10);
        assert!((merged.variance() - all.variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Welford::new();
        a.push(1.0);
        a.push(3.0);
        let e = Welford::new();
        let m1 = a.merge(&e);
        let m2 = e.merge(&a);
        assert_eq!(m1.count(), 2);
        assert!((m1.mean() - 2.0).abs() < 1e-12);
        assert!((m2.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn t_critical_known_values() {
        assert!((t_critical(5, 0.95) - 2.571).abs() < 1e-9);
        assert!((t_critical(10, 0.99) - 3.169).abs() < 1e-9);
        assert!((t_critical(1_000, 0.95) - 1.960).abs() < 1e-9);
        // interpolated: df=11 between 10 and 12
        let t11 = t_critical(11, 0.95);
        assert!(t11 < t_critical(10, 0.95) && t11 > t_critical(12, 0.95));
        assert!(t_critical(0, 0.95).is_infinite());
    }

    #[test]
    fn replications_converge_on_constant_data() {
        let mut r = Replications::new(0.95);
        assert!(!r.converged(0.01, 2));
        r.push(10.0);
        assert!(!r.converged(0.01, 2));
        r.push(10.0);
        r.push(10.0);
        assert!(r.converged(0.01, 2));
        let e = r.estimate();
        assert_eq!(e.mean, 10.0);
        assert_eq!(e.half_width, 0.0);
    }

    #[test]
    fn replications_wide_on_noisy_data() {
        let mut r = Replications::new(0.95);
        r.push(1.0);
        r.push(100.0);
        assert!(!r.converged(0.01, 2));
        assert!(r.estimate().relative_half_width() > 1.0);
    }

    #[test]
    fn tally_quantiles_nearest_rank() {
        let mut t = Tally::new();
        for x in [5.0, 1.0, 3.0, 2.0, 4.0] {
            t.push(x);
        }
        assert_eq!(t.count(), 5);
        assert!((t.mean() - 3.0).abs() < 1e-12);
        assert_eq!(t.quantile(0.0), Some(1.0));
        assert_eq!(t.quantile(0.5), Some(3.0));
        assert_eq!(t.quantile(0.9), Some(5.0));
        assert_eq!(t.max(), Some(5.0));
        // push after sort invalidates cache correctly
        t.push(0.5);
        assert_eq!(t.quantile(0.0), Some(0.5));
        assert_eq!(Tally::new().quantile(0.5), None);
    }

    #[test]
    fn sample_quantile_nearest_rank() {
        assert_eq!(sample_quantile(&[], 0.5), None);
        assert_eq!(sample_quantile(&[7], 0.0), Some(7));
        assert_eq!(sample_quantile(&[7], 1.0), Some(7));
        let xs = [50, 10, 40, 20, 30];
        assert_eq!(sample_quantile(&xs, 0.0), Some(10));
        assert_eq!(sample_quantile(&xs, 0.5), Some(30));
        assert_eq!(sample_quantile(&xs, 1.0), Some(50));
        // q outside [0,1] clamps instead of panicking
        assert_eq!(sample_quantile(&xs, 2.0), Some(50));
        assert_eq!(sample_quantile(&xs, -1.0), Some(10));
    }

    #[test]
    fn log_histogram_small_values_exact() {
        let mut h = LogHistogram::new();
        for v in [5u64, 1, 3, 2, 4] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(5));
        // Values < 32 land in exact buckets, so quantiles are exact.
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(3));
        assert_eq!(h.quantile(1.0), Some(5));
        assert_eq!(LogHistogram::new().quantile(0.5), None);
    }

    #[test]
    fn log_histogram_quantile_relative_error_bounded() {
        let mut h = LogHistogram::new();
        // Deterministic spread over several magnitudes.
        let xs: Vec<u64> = (1..=2000).map(|i| (i * i * 37) % 900_000 + 1).collect();
        for &x in &xs {
            h.record(x);
        }
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99] {
            let exact = sorted[((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len()) - 1];
            let approx = h.quantile(q).unwrap();
            let rel = (approx as f64 - exact as f64).abs() / exact as f64;
            assert!(
                rel <= 1.0 / 32.0 + 1e-9,
                "q={q}: approx {approx} vs exact {exact} (rel {rel})"
            );
            assert!(approx <= exact, "bucket floor never overshoots");
        }
    }

    #[test]
    fn log_histogram_absorb_matches_combined() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for i in 0..500u64 {
            let v = i * 97 + 3;
            all.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.absorb(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn log_histogram_handles_extremes() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn ci_mean_relative_half_width_edge_cases() {
        let z = CiMean {
            mean: 0.0,
            half_width: 0.0,
            n: 5,
        };
        assert_eq!(z.relative_half_width(), 0.0);
        let inf = CiMean {
            mean: 0.0,
            half_width: 1.0,
            n: 5,
        };
        assert!(inf.relative_half_width().is_infinite());
    }
}
