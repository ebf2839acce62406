//! Summary statistics and histograms used by the performance analysis and
//! the delay expectation models.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// Running min / max / mean / standard deviation over `f64` samples
/// (Welford's algorithm, numerically stable for long runs).
///
/// # Examples
///
/// ```
/// use jmst_store::stats::SummaryStats;
///
/// let stats: SummaryStats = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
/// assert_eq!(stats.count(), 4);
/// assert_eq!(stats.mean(), 2.5);
/// assert_eq!(stats.min(), Some(1.0));
/// assert_eq!(stats.max(), Some(4.0));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SummaryStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl SummaryStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, sample: f64) {
        if self.count == 0 {
            self.min = sample;
            self.max = sample;
        } else {
            self.min = self.min.min(sample);
            self.max = self.max.max(sample);
        }
        self.count += 1;
        let delta = sample - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (sample - self.mean);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or zero with no samples.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance, or zero with fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample, or `None` with no samples.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` with no samples.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &SummaryStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for SummaryStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut stats = SummaryStats::new();
        for sample in iter {
            stats.push(sample);
        }
        stats
    }
}

impl Extend<f64> for SummaryStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for sample in iter {
            self.push(sample);
        }
    }
}

impl fmt::Display for SummaryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return f.write_str("no samples");
        }
        write!(
            f,
            "n={} mean={:.3} σ={:.3} min={:.3} max={:.3}",
            self.count,
            self.mean,
            self.std_dev(),
            self.min,
            self.max
        )
    }
}

/// A fixed-width histogram of durations, the structure behind the paper's
/// future-work suggestion of "constructing a histogram of message delays
/// throughout the run period" for a better expiry expectation model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayHistogram {
    bucket_width_nanos: u64,
    buckets: Vec<u64>,
    overflow: u64,
    /// Largest overflow sample, so quantiles that land in the overflow
    /// bucket can report a real upper bound instead of the bucket
    /// ceiling. Defaults to zero for histograms serialized before the
    /// field existed.
    #[serde(default)]
    overflow_max: u64,
    count: u64,
}

impl DelayHistogram {
    /// Creates a histogram of `buckets` buckets of `bucket_width` each;
    /// samples beyond the last bucket land in an overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero or `buckets` is zero.
    pub fn new(bucket_width: Duration, buckets: usize) -> Self {
        assert!(!bucket_width.is_zero(), "bucket width must be positive");
        assert!(buckets > 0, "need at least one bucket");
        Self {
            bucket_width_nanos: bucket_width.as_nanos() as u64,
            buckets: vec![0; buckets],
            overflow: 0,
            overflow_max: 0,
            count: 0,
        }
    }

    /// Adds one delay sample.
    pub fn push(&mut self, delay: Duration) {
        let nanos = delay.as_nanos() as u64;
        let index = (nanos / self.bucket_width_nanos) as usize;
        if index < self.buckets.len() {
            self.buckets[index] += 1;
        } else {
            self.overflow += 1;
            self.overflow_max = self.overflow_max.max(nanos);
        }
        self.count += 1;
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The fraction of samples that were `<= bound`, counting whole
    /// buckets (each sample is attributed to its bucket's upper edge, so
    /// the estimate is conservative for expiry: it never claims a delay
    /// was short when it might not have been). Overflow mass counts only
    /// once `bound` reaches the largest overflow sample — the one point
    /// at which the overflow bucket's contents are provably covered.
    pub fn fraction_at_most(&self, bound: Duration) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let full_buckets = (bound.as_nanos() as u64 / self.bucket_width_nanos) as usize;
        let mut covered: u64 = self.buckets.iter().take(full_buckets).sum();
        if self.overflow > 0 && bound.as_nanos() as u64 >= self.overflow_max {
            covered += self.overflow;
        }
        covered as f64 / self.count as f64
    }

    /// An upper estimate of the `q`-quantile (0 ≤ q ≤ 1) of the delays.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= target {
                return Some(Duration::from_nanos(
                    (index as u64 + 1) * self.bucket_width_nanos,
                ));
            }
        }
        // In the overflow bucket: the largest recorded overflow sample is
        // the sound upper bound. (The old behaviour reported the histogram
        // ceiling, *under*-stating any quantile that landed here.) The
        // ceiling survives only as a floor for pre-`overflow_max` data.
        Some(Duration::from_nanos(
            self.overflow_max
                .max(self.buckets.len() as u64 * self.bucket_width_nanos),
        ))
    }

    /// Bucket counts (for reports).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Samples beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The largest sample that landed in the overflow bucket, in
    /// nanoseconds; zero when nothing overflowed.
    pub fn overflow_max_nanos(&self) -> u64 {
        self.overflow_max
    }
}

/// Number of linear sub-buckets per power-of-two octave in a
/// [`LogHistogram`]: 2^5 = 32, bounding relative quantile error at
/// 1/32 ≈ 3.1%.
const SUB_BUCKET_BITS: u32 = 5;
/// Buckets per octave. Values below `SUB_BUCKETS` are stored exactly;
/// a u64 of nanoseconds has at most 64 significant bits, so the
/// remaining `64 - 5 = 59` octaves each get `SUB_BUCKETS` buckets, and
/// bucket indices run below `60 * SUB_BUCKETS`.
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

/// A log-bucketed (HDR-style) histogram of durations for open-loop load
/// measurement: full `u64` nanosecond range, ≤ ~3.1% relative quantile
/// error, and mergeable across worker threads.
///
/// The fixed-width [`DelayHistogram`] needs its range chosen up front —
/// fine for expiry models, useless for latency under overload where the
/// tail spans six orders of magnitude. This histogram uses 32 linear
/// sub-buckets per power-of-two octave, so bucket width scales with
/// magnitude and p50 through p99.9 are all resolved to a few percent.
///
/// Memory follows the samples, not the range: only the octaves between
/// the smallest and largest sample seen are stored (256 bytes each, at
/// most 60 of them), so a histogram of latencies from 1 µs to 10 ms
/// holds 15 octaves, and an empty one holds none.
///
/// # Examples
///
/// ```
/// use jmst_store::stats::LogHistogram;
/// use std::time::Duration;
///
/// let mut hist = LogHistogram::new();
/// for ms in 1..=1000u64 {
///     hist.record(Duration::from_millis(ms));
/// }
/// let p99 = hist.quantile(0.99).unwrap();
/// assert!(p99 >= Duration::from_millis(990) && p99 <= Duration::from_millis(1024));
/// ```
#[derive(Clone)]
pub struct LogHistogram {
    /// Counts of buckets `base .. base + counts.len()`, a whole number of
    /// octaves; empty until the first sample.
    counts: Vec<u64>,
    base: usize,
    count: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

impl LogHistogram {
    /// Creates an empty histogram covering the full `u64` nanosecond
    /// range. It allocates nothing until the first sample.
    pub fn new() -> Self {
        Self {
            counts: Vec::new(),
            base: 0,
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index for a value: exact below [`SUB_BUCKETS`], then 32
    /// linear sub-buckets per octave.
    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BUCKET_BITS;
        let sub = (value >> shift) - SUB_BUCKETS;
        (SUB_BUCKETS + u64::from(shift) * SUB_BUCKETS + sub) as usize
    }

    /// The largest value a bucket can hold (its inclusive upper edge).
    fn upper_edge(index: usize) -> u64 {
        if index < SUB_BUCKETS as usize {
            return index as u64;
        }
        let shift = (index as u64 - SUB_BUCKETS) / SUB_BUCKETS;
        let sub = (index as u64 - SUB_BUCKETS) % SUB_BUCKETS;
        // The bucket covers [(32 + sub) << shift, (32 + sub + 1) << shift).
        // The very top bucket's exclusive edge is 2^64, which wraps to 0;
        // wrapping_sub turns it into the correct u64::MAX.
        ((SUB_BUCKETS + sub + 1) << shift).wrapping_sub(1)
    }

    /// Records one duration sample.
    pub fn record(&mut self, sample: Duration) {
        self.record_nanos(sample.as_nanos() as u64);
    }

    /// Widens the stored span to include buckets `lo..hi`, both octave
    /// boundaries, adding zeroed octaves on either side.
    #[cold]
    fn cover(&mut self, lo: usize, hi: usize) {
        if self.counts.is_empty() {
            self.counts = vec![0; hi - lo];
            self.base = lo;
            return;
        }
        let lo = lo.min(self.base);
        let hi = hi.max(self.base + self.counts.len());
        let mut counts = vec![0; hi - lo];
        counts[self.base - lo..][..self.counts.len()].copy_from_slice(&self.counts);
        self.counts = counts;
        self.base = lo;
    }

    /// Records one sample given directly in nanoseconds.
    pub fn record_nanos(&mut self, nanos: u64) {
        let index = Self::index_of(nanos);
        if index.wrapping_sub(self.base) >= self.counts.len() {
            let octave = index - index % SUB_BUCKETS as usize;
            self.cover(octave, octave + SUB_BUCKETS as usize);
        }
        self.counts[index - self.base] += 1;
        self.count += 1;
        self.min = self.min.min(nanos);
        self.max = self.max.max(nanos);
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample, or `None` when empty. Exact.
    pub fn min(&self) -> Option<Duration> {
        (self.count > 0).then(|| Duration::from_nanos(self.min))
    }

    /// Largest recorded sample, or `None` when empty. Exact.
    pub fn max(&self) -> Option<Duration> {
        (self.count > 0).then(|| Duration::from_nanos(self.max))
    }

    /// The `q`-quantile (0 ≤ q ≤ 1): the upper edge of the bucket holding
    /// the rank-`ceil(q·count)` sample, clamped to the exact recorded
    /// maximum. Relative error is bounded by the sub-bucket width,
    /// ≈ 3.1%.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (slot, &bucket) in self.counts.iter().enumerate() {
            seen += bucket;
            if seen >= target {
                let edge = Self::upper_edge(self.base + slot);
                return Some(Duration::from_nanos(edge.min(self.max)));
            }
        }
        Some(Duration::from_nanos(self.max))
    }

    /// Merges another histogram into this one. Equivalent to having
    /// recorded both sample streams into a single histogram.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        let other_end = other.base + other.counts.len();
        if other.base < self.base || other_end > self.base + self.counts.len() {
            self.cover(other.base, other_end);
        }
        let mine = &mut self.counts[other.base - self.base..];
        for (mine, theirs) in mine.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The standard report line for benchmarks: p50/p90/p99/p99.9/max in
    /// milliseconds.
    pub fn percentile_summary(&self) -> String {
        let ms = |d: Option<Duration>| d.map_or(0.0, |d| d.as_secs_f64() * 1e3);
        format!(
            "p50={:.2}ms p90={:.2}ms p99={:.2}ms p99.9={:.2}ms max={:.2}ms",
            ms(self.quantile(0.50)),
            ms(self.quantile(0.90)),
            ms(self.quantile(0.99)),
            ms(self.quantile(0.999)),
            ms(self.max()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive_computation() {
        let samples = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let stats: SummaryStats = samples.into_iter().collect();
        let naive_mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let naive_var = samples
            .iter()
            .map(|x| (x - naive_mean).powi(2))
            .sum::<f64>()
            / samples.len() as f64;
        assert!((stats.mean() - naive_mean).abs() < 1e-12);
        assert!((stats.variance() - naive_var).abs() < 1e-12);
        assert_eq!(stats.min(), Some(1.0));
        assert_eq!(stats.max(), Some(9.0));
    }

    #[test]
    fn empty_stats_are_safe() {
        let stats = SummaryStats::new();
        assert_eq!(stats.count(), 0);
        assert_eq!(stats.mean(), 0.0);
        assert_eq!(stats.std_dev(), 0.0);
        assert_eq!(stats.min(), None);
        assert_eq!(stats.max(), None);
        assert_eq!(stats.to_string(), "no samples");
    }

    #[test]
    fn single_sample_has_zero_variance() {
        let stats: SummaryStats = [5.0].into_iter().collect();
        assert_eq!(stats.variance(), 0.0);
        assert_eq!(stats.mean(), 5.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let all: SummaryStats = (0..100).map(f64::from).collect();
        let mut left: SummaryStats = (0..37).map(f64::from).collect();
        let right: SummaryStats = (37..100).map(f64::from).collect();
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(left.min(), all.min());
        assert_eq!(left.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut stats: SummaryStats = [1.0, 2.0].into_iter().collect();
        let before = stats;
        stats.merge(&SummaryStats::new());
        assert_eq!(stats, before);
        let mut empty = SummaryStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn extend_accumulates() {
        let mut stats = SummaryStats::new();
        stats.extend([1.0, 2.0, 3.0]);
        assert_eq!(stats.count(), 3);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut histogram = DelayHistogram::new(Duration::from_millis(10), 5);
        histogram.push(Duration::from_millis(5)); // bucket 0
        histogram.push(Duration::from_millis(15)); // bucket 1
        histogram.push(Duration::from_millis(49)); // bucket 4
        histogram.push(Duration::from_millis(500)); // overflow
        assert_eq!(histogram.count(), 4);
        assert_eq!(histogram.buckets(), &[1, 1, 0, 0, 1]);
        assert_eq!(histogram.overflow(), 1);
    }

    #[test]
    fn fraction_at_most_counts_whole_buckets() {
        let mut histogram = DelayHistogram::new(Duration::from_millis(10), 10);
        for ms in [1u64, 2, 3, 25, 95] {
            histogram.push(Duration::from_millis(ms));
        }
        // Bound 10 ms covers bucket 0 only → 3 of 5 samples.
        assert!((histogram.fraction_at_most(Duration::from_millis(10)) - 0.6).abs() < 1e-12);
        // Bound 30 ms covers buckets 0..3 → 4 of 5.
        assert!((histogram.fraction_at_most(Duration::from_millis(30)) - 0.8).abs() < 1e-12);
        // Tiny bound covers nothing.
        assert_eq!(histogram.fraction_at_most(Duration::from_millis(5)), 0.0);
    }

    #[test]
    fn quantiles_are_upper_bounds() {
        let mut histogram = DelayHistogram::new(Duration::from_millis(1), 100);
        for ms in 0..100u64 {
            histogram.push(Duration::from_millis(ms));
        }
        let median = histogram.quantile(0.5).unwrap();
        assert!(median >= Duration::from_millis(49) && median <= Duration::from_millis(51));
        assert_eq!(histogram.quantile(0.0).unwrap(), Duration::from_millis(1));
        assert!(histogram.quantile(1.0).unwrap() >= Duration::from_millis(99));
        assert_eq!(
            DelayHistogram::new(Duration::from_millis(1), 1).quantile(0.5),
            None
        );
    }

    #[test]
    #[should_panic(expected = "bucket width must be positive")]
    fn zero_bucket_width_rejected() {
        DelayHistogram::new(Duration::ZERO, 5);
    }

    #[test]
    fn overflow_mass_is_accounted_in_quantiles() {
        // Regression: quantiles landing in the overflow bucket used to
        // report the histogram ceiling (50 ms here), *under*-stating the
        // quantile of a sample known to be ≥ the ceiling.
        let mut histogram = DelayHistogram::new(Duration::from_millis(10), 5);
        for ms in [1u64, 2, 3, 4] {
            histogram.push(Duration::from_millis(ms));
        }
        histogram.push(Duration::from_millis(800));
        histogram.push(Duration::from_millis(900));
        // p99 rank (6 of 6) lands in overflow: the answer must be the
        // largest overflow sample, not the 50 ms ceiling.
        assert_eq!(
            histogram.quantile(0.99).unwrap(),
            Duration::from_millis(900)
        );
        assert_eq!(histogram.quantile(1.0).unwrap(), Duration::from_millis(900));
        assert_eq!(histogram.overflow_max_nanos(), 900_000_000);
        // In-bucket quantiles are unchanged.
        assert_eq!(histogram.quantile(0.5).unwrap(), Duration::from_millis(10));
    }

    #[test]
    fn overflow_mass_is_accounted_in_fraction_at_most() {
        let mut histogram = DelayHistogram::new(Duration::from_millis(10), 5);
        histogram.push(Duration::from_millis(5));
        histogram.push(Duration::from_millis(500));
        // Below the largest overflow sample the overflow mass cannot be
        // credited…
        assert!((histogram.fraction_at_most(Duration::from_millis(100)) - 0.5).abs() < 1e-12);
        // …but a bound at or past it provably covers everything.
        assert!((histogram.fraction_at_most(Duration::from_millis(500)) - 1.0).abs() < 1e-12);
        assert!((histogram.fraction_at_most(Duration::from_secs(10)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_histogram_is_exact_below_32ns() {
        let mut hist = LogHistogram::new();
        for n in 0..32u64 {
            hist.record_nanos(n);
        }
        assert_eq!(hist.count(), 32);
        assert_eq!(hist.min(), Some(Duration::from_nanos(0)));
        assert_eq!(hist.max(), Some(Duration::from_nanos(31)));
        assert_eq!(hist.quantile(0.5).unwrap(), Duration::from_nanos(15));
    }

    #[test]
    fn log_histogram_quantile_error_is_bounded() {
        let mut hist = LogHistogram::new();
        // Samples spanning six orders of magnitude.
        for i in 1..=100_000u64 {
            hist.record_nanos(i * 997);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = ((q * 100_000f64).ceil() as u64) * 997;
            let measured = hist.quantile(q).unwrap().as_nanos() as u64;
            // The reported value is a bucket upper edge: never below the
            // exact quantile, and within one sub-bucket (~3.2%) above it.
            assert!(measured >= exact, "q={q}: {measured} < {exact}");
            let relative = (measured - exact) as f64 / exact as f64;
            assert!(relative <= 1.0 / 31.0, "q={q}: error {relative}");
        }
    }

    #[test]
    fn log_histogram_quantiles_clamp_to_exact_max() {
        let mut hist = LogHistogram::new();
        hist.record_nanos(1_000_003);
        assert_eq!(hist.quantile(1.0).unwrap(), Duration::from_nanos(1_000_003));
        assert_eq!(hist.quantile(0.5).unwrap(), Duration::from_nanos(1_000_003));
    }

    #[test]
    fn log_histogram_handles_extremes() {
        let mut hist = LogHistogram::new();
        hist.record_nanos(0);
        hist.record_nanos(u64::MAX);
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.quantile(0.0).unwrap(), Duration::from_nanos(0));
        assert_eq!(hist.quantile(1.0).unwrap(), Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn log_histogram_merge_equals_single_stream() {
        let samples: Vec<u64> = (0..10_000u64)
            .map(|i| i.wrapping_mul(2654435761) >> 16)
            .collect();
        let mut single = LogHistogram::new();
        for &s in &samples {
            single.record_nanos(s);
        }
        let mut left = LogHistogram::new();
        let mut right = LogHistogram::new();
        for (i, &s) in samples.iter().enumerate() {
            if i % 2 == 0 {
                left.record_nanos(s);
            } else {
                right.record_nanos(s);
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), single.count());
        assert_eq!(left.min(), single.min());
        assert_eq!(left.max(), single.max());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(left.quantile(q), single.quantile(q), "q={q}");
        }
    }

    #[test]
    fn log_histogram_empty_and_summary() {
        let empty = LogHistogram::new();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.quantile(0.5), None);
        assert_eq!(empty.min(), None);
        assert_eq!(empty.max(), None);
        let mut hist = LogHistogram::new();
        hist.record(Duration::from_millis(5));
        let summary = hist.percentile_summary();
        assert!(summary.contains("p99"), "{summary}");
        assert!(summary.contains("max=5.00ms"), "{summary}");
    }

    #[test]
    fn log_histogram_stores_only_the_octaves_it_has_seen() {
        let octave = SUB_BUCKETS as usize;
        let mut hist = LogHistogram::new();
        assert!(hist.counts.is_empty());
        hist.record(Duration::from_micros(3));
        assert_eq!(hist.counts.len(), octave);
        // 3 µs to 10 ms: twelve more octaves, grown upward.
        hist.record(Duration::from_millis(10));
        assert_eq!(hist.counts.len(), 13 * octave);
        // Grown downward, the stored counts keep their buckets.
        hist.record_nanos(40);
        assert_eq!(hist.counts.len(), 19 * octave);
        assert_eq!(hist.quantile(0.0).unwrap(), Duration::from_nanos(40));
        assert_eq!(hist.quantile(1.0).unwrap(), Duration::from_millis(10));
        let p50 = hist.quantile(0.5).unwrap().as_nanos() as f64;
        assert!((p50 / 3_000.0 - 1.0).abs() <= 1.0 / 31.0, "p50 {p50}");
        // The full range is 60 octaves.
        hist.record_nanos(0);
        hist.record_nanos(u64::MAX);
        assert_eq!(hist.counts.len(), 60 * octave);
        // A merge widens the receiver only to the union of both spans.
        let mut low = LogHistogram::new();
        low.record_nanos(5);
        let mut high = LogHistogram::new();
        high.record(Duration::from_secs(1));
        low.merge(&high);
        assert_eq!(low.counts.len(), 26 * octave);
        assert_eq!(low.quantile(0.5).unwrap(), Duration::from_nanos(5));
        assert_eq!(low.quantile(1.0).unwrap(), Duration::from_secs(1));
    }

    #[test]
    fn log_histogram_bucket_edges_are_consistent() {
        // Every value must land in a bucket whose upper edge is >= the
        // value and within the sub-bucket width of it.
        for &value in &[
            1u64,
            31,
            32,
            33,
            63,
            64,
            1_000,
            1_000_000,
            1_000_000_007,
            u64::MAX / 3,
            u64::MAX,
        ] {
            let index = LogHistogram::index_of(value);
            let edge = LogHistogram::upper_edge(index);
            assert!(edge >= value, "value {value}: edge {edge} below value");
            if index > 0 {
                let below = LogHistogram::upper_edge(index - 1);
                assert!(below < value, "value {value} fits earlier bucket {below}");
            }
        }
    }
}
