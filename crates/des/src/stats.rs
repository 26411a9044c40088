//! Measurement primitives used by models and experiment harnesses.
//!
//! * [`Counter`] — a plain event counter.
//! * [`Summary`] — running min/max/mean/variance (Welford) of a sample set.
//! * [`Histogram`] — fixed-width bins plus quantile estimates.
//! * [`Utilization`] — the busy fraction of a single-server resource.
//! * [`BusyTime`] — accumulated busy spans, for models that know them.

use crate::time::{SimDuration, SimTime};

/// A plain monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use tsbus_des::stats::Counter;
///
/// let mut frames_sent = Counter::new();
/// frames_sent.add(3);
/// frames_sent.increment();
/// assert_eq!(frames_sent.count(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    count: u64,
}

impl Counter {
    /// Creates a zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn increment(&mut self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.count = self.count.saturating_add(n);
    }

    /// Removes `n`, saturating at zero — for compensating adjustments such
    /// as a transaction abort reinstating an entry that was counted taken.
    pub fn subtract(&mut self, n: u64) {
        self.count = self.count.saturating_sub(n);
    }

    /// The current count.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// Running summary statistics over an unweighted sample set, using Welford's
/// numerically stable online algorithm.
///
/// # Examples
///
/// ```
/// use tsbus_des::stats::Summary;
///
/// let mut latency = Summary::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     latency.record(x);
/// }
/// assert_eq!(latency.mean(), 2.5);
/// assert_eq!(latency.min(), Some(1.0));
/// assert_eq!(latency.max(), Some(4.0));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        if self.n == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.n += 1;
        let delta = value - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The sample mean (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The population variance (0.0 with fewer than two samples).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// The population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The smallest sample, if any.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// The largest sample, if any.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Folds another summary into this one (Chan's parallel combine of
    /// Welford states). Count, min and max combine exactly; mean and
    /// variance match a single-pass computation up to floating-point
    /// rounding.
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.mean += delta * other.n as f64 / n as f64;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.n = n;
    }
}

/// A fixed-width-bin histogram over `[low, high)` with under/overflow bins.
///
/// # Examples
///
/// ```
/// use tsbus_des::stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 10);
/// for x in [0.5, 1.5, 1.7, 25.0] {
///     h.record(x);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.overflow(), 1);
/// assert!(h.quantile(0.5).expect("non-empty") <= 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    low: f64,
    high: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram over `[low, high)` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high` or `bins == 0`.
    #[must_use]
    pub fn new(low: f64, high: f64, bins: usize) -> Self {
        assert!(low < high, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            low,
            high,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        if value < self.low {
            self.underflow += 1;
        } else if value >= self.high {
            self.overflow += 1;
        } else {
            let width = (self.high - self.low) / self.bins.len() as f64;
            let idx = ((value - self.low) / width) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total samples recorded (including under/overflow).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples below the range.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the range's upper bound.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Per-bin counts (excluding under/overflow).
    #[must_use]
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// The lower bound of the binned range.
    #[must_use]
    pub fn low(&self) -> f64 {
        self.low
    }

    /// The (exclusive) upper bound of the binned range.
    #[must_use]
    pub fn high(&self) -> f64 {
        self.high
    }

    /// Folds another histogram into this one, bin by bin. Exact: counts
    /// are integers, so merging is associative and commutative.
    ///
    /// # Panics
    ///
    /// Panics if the histograms do not share the same range and bin count.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.low == other.low && self.high == other.high && self.bins.len() == other.bins.len(),
            "histogram merge requires identical shape: [{}, {})×{} vs [{}, {})×{}",
            self.low,
            self.high,
            self.bins.len(),
            other.low,
            other.high,
            other.bins.len(),
        );
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            *mine += theirs;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
    }

    /// An estimate of the `q`-quantile (bin upper edge of the bin containing
    /// the quantile rank; underflow maps to `low`, overflow to `high`).
    ///
    /// Returns `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if rank <= seen {
            return Some(self.low);
        }
        let width = (self.high - self.low) / self.bins.len() as f64;
        for (i, &n) in self.bins.iter().enumerate() {
            seen += n;
            if rank <= seen {
                return Some(self.low + width * (i as f64 + 1.0));
            }
        }
        Some(self.high)
    }
}

/// Utilization of a single-server resource: fraction of time busy.
///
/// Fed busy/idle edges; the busy spans are integrated as they close.
#[derive(Debug, Clone, Copy)]
pub struct Utilization {
    start: SimTime,
    /// Seconds busy over the closed busy spans.
    busy_secs: f64,
    busy_since: Option<SimTime>,
}

impl Utilization {
    /// Starts observing (idle) at `start`.
    #[must_use]
    pub fn new(start: SimTime) -> Self {
        Utilization {
            start,
            busy_secs: 0.0,
            busy_since: None,
        }
    }

    /// Marks the resource busy at `now`. Idempotent while already busy.
    pub fn set_busy(&mut self, now: SimTime) {
        if self.busy_since.is_none() {
            self.busy_since = Some(now);
        }
    }

    /// Marks the resource idle at `now`. Idempotent while already idle.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the instant the resource became busy.
    pub fn set_idle(&mut self, now: SimTime) {
        if let Some(since) = self.busy_since.take() {
            self.busy_secs += now.duration_since(since).as_secs_f64();
        }
    }

    /// Whether the resource is currently busy.
    #[must_use]
    pub fn is_busy(&self) -> bool {
        self.busy_since.is_some()
    }

    /// Fraction of time busy in `[start, now]`, in `[0, 1]` (0.0 over an
    /// empty window).
    #[must_use]
    pub fn fraction_busy(&self, now: SimTime) -> f64 {
        let window = now.saturating_duration_since(self.start).as_secs_f64();
        if window <= 0.0 {
            return 0.0;
        }
        let open = self.busy_since.map_or(0.0, |since| {
            now.saturating_duration_since(since).as_secs_f64()
        });
        (self.busy_secs + open) / window
    }
}

/// Measures total busy time directly (durations accumulated by the caller),
/// for models that know transaction spans rather than busy/idle edges.
#[derive(Debug, Clone, Copy, Default)]
pub struct BusyTime {
    total: SimDuration,
}

impl BusyTime {
    /// Creates a zeroed accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one busy span.
    #[inline]
    pub fn add(&mut self, span: SimDuration) {
        self.total = SimDuration::from_nanos(self.total.as_nanos().saturating_add(span.as_nanos()));
    }

    /// The accumulated busy time.
    #[must_use]
    pub fn total(&self) -> SimDuration {
        self.total
    }

    /// Busy fraction of the window `[SimTime::ZERO, now]`.
    #[must_use]
    pub fn fraction_of(&self, now: SimTime) -> f64 {
        let window = now.as_secs_f64();
        if window <= 0.0 {
            0.0
        } else {
            (self.total.as_secs_f64() / window).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates() {
        let mut c = Counter::new();
        c.add(u64::MAX);
        c.increment();
        assert_eq!(c.count(), u64::MAX);
    }

    #[test]
    fn summary_matches_naive_computation() {
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = Summary::new();
        for &x in &data {
            s.record(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / data.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-9);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn summary_empty_is_well_behaved() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn histogram_quantiles_bracket_median() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(f64::from(i));
        }
        let median = h.quantile(0.5).expect("non-empty");
        assert!((49.0..=51.0).contains(&median), "median estimate {median}");
        assert_eq!(h.quantile(1.0), Some(100.0));
    }

    #[test]
    fn histogram_underflow_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-5.0);
        h.record(5.0);
        h.record(0.5);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.0).map(|q| q <= 0.0), Some(true));
    }

    #[test]
    fn summary_merge_matches_single_pass() {
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut whole = Summary::new();
        let mut left = Summary::new();
        let mut right = Summary::new();
        for (i, &x) in data.iter().enumerate() {
            whole.record(x);
            if i < 3 {
                left.record(x);
            } else {
                right.record(x);
            }
        }
        left.merge(&right);
        assert_eq!(left.len(), whole.len());
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn summary_merge_with_empty_is_identity() {
        let mut s = Summary::new();
        s.record(2.0);
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);
        let mut empty = Summary::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn histogram_merge_is_exact() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        let mut whole = Histogram::new(0.0, 10.0, 5);
        for x in [-1.0, 0.5, 3.3, 9.9, 12.0] {
            a.record(x);
            whole.record(x);
        }
        for x in [1.5, 7.7, 20.0] {
            b.record(x);
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    #[should_panic(expected = "identical shape")]
    fn histogram_merge_rejects_shape_mismatch() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let b = Histogram::new(0.0, 10.0, 6);
        a.merge(&b);
    }

    #[test]
    fn counter_subtract_saturates() {
        let mut c = Counter::new();
        c.add(2);
        c.subtract(1);
        assert_eq!(c.count(), 1);
        c.subtract(5);
        assert_eq!(c.count(), 0);
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut u = Utilization::new(SimTime::ZERO);
        u.set_busy(SimTime::from_secs(1));
        u.set_busy(SimTime::from_secs(2)); // idempotent
        u.set_idle(SimTime::from_secs(3));
        assert!(!u.is_busy());
        assert!((u.fraction_busy(SimTime::from_secs(4)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn busy_time_fraction() {
        let mut b = BusyTime::new();
        b.add(SimDuration::from_secs(2));
        b.add(SimDuration::from_secs(1));
        assert_eq!(b.total(), SimDuration::from_secs(3));
        assert!((b.fraction_of(SimTime::from_secs(6)) - 0.5).abs() < 1e-12);
        assert_eq!(b.fraction_of(SimTime::ZERO), 0.0);
    }
}
