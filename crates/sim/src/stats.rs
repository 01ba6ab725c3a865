//! Latency histograms for the metrics layer.
//!
//! Access latencies and the per-phase transaction and recovery latencies
//! are recorded in a log₂-bucketed [`Histogram`]; its
//! [`HistogramSummary`] is what the metrics document exports. Rates,
//! per-10 000-reference counts and decompositions are plain arithmetic on
//! `RunMetrics` counters in `ftcoma-machine`.

/// A log₂-bucketed histogram for latency-style quantities.
///
/// Values land in bucket `floor(log2(v)) + 1` (zero in bucket 0), so the
/// histogram spans the full `u64` range in 65 buckets with ~2x resolution —
/// plenty for "how long do misses take" questions.
///
/// # Example
///
/// ```
/// use ftcoma_sim::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1, 18, 116, 124, 500] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.quantile(0.5) >= 18.0 && h.quantile(0.5) <= 256.0);
/// assert_eq!(h.max(), 500);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros()) as usize
        }
    }

    /// Records a value.
    pub fn record(&mut self, v: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; 65];
        }
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// containing the q-th value (within 2x of the true quantile).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if b == 0 {
                    0.0
                } else {
                    (1u128 << b) as f64 - 1.0
                };
            }
        }
        self.max as f64
    }

    /// Median (approximate, within 2x): `quantile(0.5)`.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile (approximate, within 2x).
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile (approximate, within 2x).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// The standard reporting summary: count, mean, p50/p90/p99, max.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            mean: self.mean(),
            p50: self.p50(),
            p90: self.p90(),
            p99: self.p99(),
            max: self.max,
        }
    }

    /// The non-empty log₂ buckets as `(upper_bound, count)` pairs, in
    /// ascending order. Bucket 0 holds only zeros (upper bound 0).
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (if b == 0 { 0 } else { ((1u128 << b) - 1) as u64 }, n))
            .collect()
    }

    /// Folds another histogram into this one: bucket counts, `count` and
    /// `sum` add, `max` takes the larger high-water mark. Used by the
    /// campaign aggregator to combine per-cell phase histograms; the
    /// operation is associative and commutative (property-tested in the
    /// integration suite), so aggregation order cannot affect a report.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 && other.max == 0 {
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = vec![0; 65];
        }
        for (i, slot) in self.buckets.iter_mut().enumerate() {
            *slot += other.buckets.get(i).copied().unwrap_or(0);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Counters accumulated since `base` (for warmup windows).
    ///
    /// # Panics
    ///
    /// Panics if `base` is not a prefix of `self` (a counter would go
    /// negative).
    pub fn delta_since(&self, base: &Histogram) -> Histogram {
        let mut buckets = vec![0u64; 65];
        for (i, slot) in buckets.iter_mut().enumerate() {
            let a = self.buckets.get(i).copied().unwrap_or(0);
            let b = base.buckets.get(i).copied().unwrap_or(0);
            assert!(a >= b, "histogram base is not a prefix");
            *slot = a - b;
        }
        Histogram {
            buckets,
            count: self.count - base.count,
            sum: self.sum - base.sum,
            max: self.max, // max is a high-water mark, kept as-is
        }
    }
}

/// A [`Histogram`]'s reporting summary, convenient for export.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (bucket upper bound, within 2x).
    pub p50: f64,
    /// 90th percentile (bucket upper bound, within 2x).
    pub p90: f64,
    /// 99th percentile (bucket upper bound, within 2x).
    pub p99: f64,
    /// Exact largest recorded value.
    pub max: u64,
}

impl HistogramSummary {
    /// Serializes as a JSON object with stable key order.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("count", Json::from(self.count)),
            ("mean", Json::from(self.mean)),
            ("p50", Json::from(self.p50)),
            ("p90", Json::from(self.p90)),
            ("p99", Json::from(self.p99)),
            ("max", Json::from(self.max)),
        ])
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::Histogram;

    #[test]
    fn buckets_are_log2() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 1024);
        assert!((h.mean() - 206.0).abs() < 1.0);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(18);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        assert!(h.quantile(0.5) >= 18.0 && h.quantile(0.5) < 64.0);
        assert!(h.quantile(0.99) >= 1000.0);
        assert_eq!(h.quantile(0.0), h.quantile(0.001));
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    /// Pins the percentile math on a known distribution: the integers
    /// 1..=1000 land in log₂ buckets whose cumulative counts are exactly
    /// computable, so p50/p90/p99 have known values (the containing
    /// bucket's upper bound).
    #[test]
    fn percentiles_pinned_on_known_distribution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // Cumulative counts by bucket upper bound: ..255 -> 255, ..511 ->
        // 511, ..1023 -> 1000. Targets: p50 -> 500th value (bucket 511),
        // p90 -> 900th, p99 -> 990th (both bucket 1023).
        assert_eq!(h.p50(), 511.0);
        assert_eq!(h.p90(), 1023.0);
        assert_eq!(h.p99(), 1023.0);
        assert_eq!(h.max(), 1000);
        let s = h.summary();
        assert_eq!(
            (s.count, s.p50, s.p90, s.p99, s.max),
            (1000, 511.0, 1023.0, 1023.0, 1000)
        );
        assert!((s.mean - 500.5).abs() < 1e-9);
    }

    #[test]
    fn nonzero_buckets_report_upper_bounds() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(5);
        h.record(6);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (7, 2)]);
    }

    #[test]
    fn merge_adds_counts_and_keeps_max() {
        let mut a = Histogram::new();
        a.record(5);
        a.record(100);
        let mut b = Histogram::new();
        b.record(7);
        b.record(3000);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.max(), 3000);
        assert!((a.mean() - (5.0 + 100.0 + 7.0 + 3000.0) / 4.0).abs() < 1e-9);
    }

    #[test]
    fn merge_handles_default_histograms() {
        // `Histogram::default()` has an *empty* bucket vector (it only
        // materialises on first record); merge must cope on both sides.
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.merge(&b); // empty into empty
        assert_eq!(a.count(), 0);
        b.record(42);
        a.merge(&b); // populated into empty
        assert_eq!(a.count(), 1);
        assert_eq!(a.max(), 42);
        let c = Histogram::default();
        a.merge(&c); // empty into populated
        assert_eq!(a.count(), 1);
        assert_eq!(a.summary().max, 42);
    }

    #[test]
    fn delta_since_subtracts() {
        let mut h = Histogram::new();
        h.record(5);
        let base = h.clone();
        h.record(7);
        h.record(100);
        let d = h.delta_since(&base);
        assert_eq!(d.count(), 2);
        assert!((d.mean() - 53.5).abs() < 1e-9);
    }
}
