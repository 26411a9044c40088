//! The hierarchical metrics registry.
//!
//! A [`Registry`] maps `/`-scoped paths to typed instruments. Registration
//! happens once, at component construction, and returns a small index-typed
//! handle; every hot-path update is a bounds-checked vector index — no
//! hashing, no allocation. Paths are only walked again when a
//! [`Snapshot`] is taken.

use std::collections::BTreeMap;

use tsbus_des::stats::{BusyTime, Counter, Summary};
use tsbus_des::SimDuration;

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
    /// Handle to a registered [`Summary`].
    SummaryId,
    /// Handle to a registered [`BusyTime`] accumulator.
    BusyId,
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Summary(Summary),
    Busy(BusyTime),
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
/// assert_eq!(reg.snapshot().count("poll/total"), 3);
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

    /// Registers a running [`Summary`] of samples.
    pub fn summary(&mut self, path: &str) -> SummaryId {
        SummaryId(self.register(path, Instrument::Summary(Summary::new())))
    }

    /// Registers a [`BusyTime`] accumulator.
    pub fn busy_time(&mut self, path: &str) -> BusyId {
        BusyId(self.register(path, Instrument::Busy(BusyTime::new())))
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

    /// The current value of a counter.
    #[must_use]
    pub fn count(&self, id: CounterId) -> u64 {
        match &self.slots[id.0].instrument {
            Instrument::Counter(c) => c.count(),
            other => unreachable!("handle type guarantees a counter, found {other:?}"),
        }
    }

    /// Records one sample into a summary.
    pub fn observe(&mut self, id: SummaryId, value: f64) {
        match &mut self.slots[id.0].instrument {
            Instrument::Summary(s) => s.record(value),
            other => unreachable!("handle type guarantees a summary, found {other:?}"),
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

    /// Captures every instrument into a path-sorted, deterministic
    /// [`Snapshot`].
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let rows = self
            .slots
            .iter()
            .map(|slot| {
                let value = match &slot.instrument {
                    Instrument::Counter(c) => MetricValue::Count(c.count()),
                    Instrument::Summary(s) => MetricValue::Summary(*s),
                    Instrument::Busy(b) => MetricValue::Duration(b.total()),
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
    fn counters_and_summaries_round_trip() {
        let mut reg = Registry::new();
        let c = reg.counter("a/count");
        let s = reg.summary("a/level");
        reg.inc(c);
        reg.add(c, 2);
        reg.observe(s, 0.75);
        assert_eq!(reg.count(c), 3);
        assert_eq!(
            reg.snapshot().to_text(),
            "a/count 3\na/level/n 1\na/level/mean 0.75\na/level/min 0.75\na/level/max 0.75\n"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate instrument path")]
    fn duplicate_paths_rejected() {
        let mut reg = Registry::new();
        let _ = reg.counter("x");
        let _ = reg.summary("x");
    }

    #[test]
    #[should_panic(expected = "lower-case")]
    fn malformed_paths_rejected() {
        let mut reg = Registry::new();
        let _ = reg.counter("Bad Path");
    }
}
