//! The hierarchical metrics registry.
//!
//! A [`Registry`] maps `/`-scoped paths to typed instruments. Registration
//! happens once, at component construction, and returns a small index-typed
//! handle; every hot-path update is a bounds-checked vector index — no
//! hashing, no allocation. Paths are only walked again when a
//! [`Snapshot`] is taken.

use std::collections::BTreeMap;

use tsbus_des::stats::{BusyTime, Counter, Histogram, Summary, TimeWeighted, Utilization};
use tsbus_des::{SimDuration, SimTime};

use crate::snapshot::{MetricValue, Snapshot};

macro_rules! handles {
    ($($(#[$meta:meta])* $name:ident),+ $(,)?) => {
        $(
            $(#[$meta])*
            #[derive(Debug, Clone, Copy, PartialEq, Eq)]
            pub struct $name(pub(crate) usize);
        )+
    };
}

handles! {
    /// Handle to a registered [`Counter`].
    CounterId,
    /// Handle to a registered gauge (a plain `f64` level).
    GaugeId,
    /// Handle to a registered [`Summary`].
    SummaryId,
    /// Handle to a registered [`Histogram`].
    HistogramId,
    /// Handle to a registered [`TimeWeighted`] signal.
    TimeWeightedId,
    /// Handle to a registered [`BusyTime`] accumulator.
    BusyId,
    /// Handle to a registered [`Utilization`] tracker.
    UtilizationId,
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(f64),
    Summary(Summary),
    Histogram(Histogram),
    TimeWeighted(TimeWeighted),
    Busy(BusyTime),
    Utilization(Utilization),
}

#[derive(Debug, Clone)]
struct Slot {
    path: String,
    instrument: Instrument,
}

/// A set of named instruments owned by one component (or one layer).
///
/// Paths are `/`-separated, lower-case segments (`retry/control`,
/// `lane/0/busy`). The component prefix (`bus/0`, `space`) is *not* part of
/// the registered path — it is applied at harvest time via
/// [`Snapshot::prefixed`](crate::Snapshot::prefixed), so a component never
/// needs to know where it sits in the system.
///
/// # Examples
///
/// ```
/// use tsbus_obs::Registry;
/// use tsbus_des::SimTime;
///
/// let mut reg = Registry::new();
/// let polls = reg.counter("poll/total");
/// reg.add(polls, 3);
/// assert_eq!(reg.count(polls), 3);
/// assert_eq!(reg.snapshot(SimTime::ZERO).count("poll/total"), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    slots: Vec<Slot>,
    index: BTreeMap<String, usize>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered instruments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn register(&mut self, path: &str, instrument: Instrument) -> usize {
        assert!(
            !path.is_empty() && !path.starts_with('/') && !path.ends_with('/'),
            "instrument path must be non-empty without leading/trailing '/': {path:?}"
        );
        assert!(
            path.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "/_-".contains(c)),
            "instrument path must be lower-case [a-z0-9_/-]: {path:?}"
        );
        let idx = self.slots.len();
        assert!(
            self.index.insert(path.to_owned(), idx).is_none(),
            "duplicate instrument path {path:?}"
        );
        self.slots.push(Slot {
            path: path.to_owned(),
            instrument,
        });
        idx
    }

    /// Registers a monotonic event counter.
    ///
    /// # Panics
    ///
    /// Panics if `path` is malformed or already registered (all
    /// registration methods do).
    pub fn counter(&mut self, path: &str) -> CounterId {
        CounterId(self.register(path, Instrument::Counter(Counter::new())))
    }

    /// Registers a gauge: a plain instantaneous `f64` level.
    pub fn gauge(&mut self, path: &str) -> GaugeId {
        GaugeId(self.register(path, Instrument::Gauge(0.0)))
    }

    /// Registers a running [`Summary`] of samples.
    pub fn summary(&mut self, path: &str) -> SummaryId {
        SummaryId(self.register(path, Instrument::Summary(Summary::new())))
    }

    /// Registers a fixed-width-bin [`Histogram`] over `[low, high)`.
    pub fn histogram(&mut self, path: &str, low: f64, high: f64, bins: usize) -> HistogramId {
        HistogramId(self.register(path, Instrument::Histogram(Histogram::new(low, high, bins))))
    }

    /// Registers a [`TimeWeighted`] piecewise-constant signal starting at
    /// `start` with value `initial`.
    pub fn time_weighted(&mut self, path: &str, start: SimTime, initial: f64) -> TimeWeightedId {
        TimeWeightedId(self.register(
            path,
            Instrument::TimeWeighted(TimeWeighted::new(start, initial)),
        ))
    }

    /// Registers a [`BusyTime`] accumulator.
    pub fn busy_time(&mut self, path: &str) -> BusyId {
        BusyId(self.register(path, Instrument::Busy(BusyTime::new())))
    }

    /// Registers a [`Utilization`] (busy-fraction) tracker observing from
    /// `start`.
    pub fn utilization(&mut self, path: &str, start: SimTime) -> UtilizationId {
        UtilizationId(self.register(path, Instrument::Utilization(Utilization::new(start))))
    }

    /// Adds one to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        match &mut self.slots[id.0].instrument {
            Instrument::Counter(c) => c.add(n),
            other => unreachable!("handle type guarantees a counter, found {other:?}"),
        }
    }

    /// Subtracts `n` from a counter, saturating at zero — the compensation
    /// hook for undo paths (e.g. a transaction abort reinstating an entry
    /// that was already counted as taken).
    pub fn sub(&mut self, id: CounterId, n: u64) {
        match &mut self.slots[id.0].instrument {
            Instrument::Counter(c) => c.subtract(n),
            other => unreachable!("handle type guarantees a counter, found {other:?}"),
        }
    }

    /// The current value of a counter.
    #[must_use]
    pub fn count(&self, id: CounterId) -> u64 {
        match &self.slots[id.0].instrument {
            Instrument::Counter(c) => c.count(),
            other => unreachable!("handle type guarantees a counter, found {other:?}"),
        }
    }

    /// Sets a gauge's level.
    pub fn set_gauge(&mut self, id: GaugeId, value: f64) {
        match &mut self.slots[id.0].instrument {
            Instrument::Gauge(g) => *g = value,
            other => unreachable!("handle type guarantees a gauge, found {other:?}"),
        }
    }

    /// The current level of a gauge.
    #[must_use]
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        match &self.slots[id.0].instrument {
            Instrument::Gauge(g) => *g,
            other => unreachable!("handle type guarantees a gauge, found {other:?}"),
        }
    }

    /// Records one sample into a summary.
    pub fn observe(&mut self, id: SummaryId, value: f64) {
        match &mut self.slots[id.0].instrument {
            Instrument::Summary(s) => s.record(value),
            other => unreachable!("handle type guarantees a summary, found {other:?}"),
        }
    }

    /// The current state of a summary.
    #[must_use]
    pub fn summary_value(&self, id: SummaryId) -> Summary {
        match &self.slots[id.0].instrument {
            Instrument::Summary(s) => *s,
            other => unreachable!("handle type guarantees a summary, found {other:?}"),
        }
    }

    /// Records one sample into a histogram.
    pub fn record(&mut self, id: HistogramId, value: f64) {
        match &mut self.slots[id.0].instrument {
            Instrument::Histogram(h) => h.record(value),
            other => unreachable!("handle type guarantees a histogram, found {other:?}"),
        }
    }

    /// The current state of a histogram.
    #[must_use]
    pub fn histogram_value(&self, id: HistogramId) -> &Histogram {
        match &self.slots[id.0].instrument {
            Instrument::Histogram(h) => h,
            other => unreachable!("handle type guarantees a histogram, found {other:?}"),
        }
    }

    /// Records a change of a time-weighted signal to `value` at `now`.
    pub fn set_level(&mut self, id: TimeWeightedId, now: SimTime, value: f64) {
        match &mut self.slots[id.0].instrument {
            Instrument::TimeWeighted(tw) => tw.set(now, value),
            other => unreachable!("handle type guarantees a time-weighted signal, found {other:?}"),
        }
    }

    /// Adds `delta` to a time-weighted signal at `now`.
    pub fn adjust_level(&mut self, id: TimeWeightedId, now: SimTime, delta: f64) {
        match &mut self.slots[id.0].instrument {
            Instrument::TimeWeighted(tw) => tw.adjust(now, delta),
            other => unreachable!("handle type guarantees a time-weighted signal, found {other:?}"),
        }
    }

    /// Accumulates one busy span.
    #[inline]
    pub fn add_busy(&mut self, id: BusyId, span: SimDuration) {
        match &mut self.slots[id.0].instrument {
            Instrument::Busy(b) => b.add(span),
            other => {
                unreachable!("handle type guarantees a busy-time accumulator, found {other:?}")
            }
        }
    }

    /// Total accumulated busy time.
    #[must_use]
    pub fn busy_total(&self, id: BusyId) -> SimDuration {
        match &self.slots[id.0].instrument {
            Instrument::Busy(b) => b.total(),
            other => {
                unreachable!("handle type guarantees a busy-time accumulator, found {other:?}")
            }
        }
    }

    /// Marks a utilization-tracked resource busy at `now`.
    pub fn set_busy(&mut self, id: UtilizationId, now: SimTime) {
        match &mut self.slots[id.0].instrument {
            Instrument::Utilization(u) => u.set_busy(now),
            other => unreachable!("handle type guarantees a utilization tracker, found {other:?}"),
        }
    }

    /// Marks a utilization-tracked resource idle at `now`.
    pub fn set_idle(&mut self, id: UtilizationId, now: SimTime) {
        match &mut self.slots[id.0].instrument {
            Instrument::Utilization(u) => u.set_idle(now),
            other => unreachable!("handle type guarantees a utilization tracker, found {other:?}"),
        }
    }

    /// Busy fraction of a utilization tracker in `[start, now]`.
    #[must_use]
    pub fn fraction_busy(&self, id: UtilizationId, now: SimTime) -> f64 {
        match &self.slots[id.0].instrument {
            Instrument::Utilization(u) => u.fraction_busy(now),
            other => unreachable!("handle type guarantees a utilization tracker, found {other:?}"),
        }
    }

    /// Captures every instrument into a path-sorted, deterministic
    /// [`Snapshot`]. Time-parameterized instruments (time-weighted signals,
    /// utilization) are evaluated at `now`.
    #[must_use]
    pub fn snapshot(&self, now: SimTime) -> Snapshot {
        let rows = self
            .slots
            .iter()
            .map(|slot| {
                let value = match &slot.instrument {
                    Instrument::Counter(c) => MetricValue::Count(c.count()),
                    Instrument::Gauge(g) => MetricValue::Gauge(*g),
                    Instrument::Summary(s) => MetricValue::Summary(*s),
                    Instrument::Histogram(h) => MetricValue::Histogram(h.clone()),
                    Instrument::TimeWeighted(tw) => MetricValue::Gauge(tw.time_average(now)),
                    Instrument::Busy(b) => MetricValue::Duration(b.total()),
                    Instrument::Utilization(u) => MetricValue::Gauge(u.fraction_busy(now)),
                };
                (slot.path.clone(), value)
            })
            .collect();
        Snapshot::from_rows(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let mut reg = Registry::new();
        let c = reg.counter("a/count");
        let g = reg.gauge("a/level");
        reg.inc(c);
        reg.add(c, 2);
        reg.sub(c, 1);
        reg.set_gauge(g, 0.75);
        assert_eq!(reg.count(c), 2);
        assert!((reg.gauge_value(g) - 0.75).abs() < f64::EPSILON);
    }

    #[test]
    fn snapshot_evaluates_time_instruments_at_now() {
        let mut reg = Registry::new();
        let u = reg.utilization("util", SimTime::ZERO);
        let b = reg.busy_time("busy");
        reg.set_busy(u, SimTime::from_secs(1));
        reg.set_idle(u, SimTime::from_secs(2));
        reg.add_busy(b, SimDuration::from_secs(3));
        let snap = reg.snapshot(SimTime::from_secs(4));
        assert!((snap.gauge("util") - 0.25).abs() < 1e-12);
        assert_eq!(snap.duration("busy"), SimDuration::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "duplicate instrument path")]
    fn duplicate_paths_rejected() {
        let mut reg = Registry::new();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }

    #[test]
    #[should_panic(expected = "lower-case")]
    fn malformed_paths_rejected() {
        let mut reg = Registry::new();
        let _ = reg.counter("Bad Path");
    }

    #[test]
    fn summaries_and_histograms_record() {
        let mut reg = Registry::new();
        let s = reg.summary("lat");
        let h = reg.histogram("dist", 0.0, 10.0, 10);
        reg.observe(s, 1.0);
        reg.observe(s, 3.0);
        reg.record(h, 5.0);
        assert_eq!(reg.summary_value(s).len(), 2);
        assert!((reg.summary_value(s).mean() - 2.0).abs() < f64::EPSILON);
        assert_eq!(reg.histogram_value(h).count(), 1);
    }
}
