//! In-memory event tracing, in the spirit of NS-2 trace files.
//!
//! Tracing is disabled by default and costs a single branch per potential
//! record when off. When enabled, the log keeps the most recent `capacity`
//! records in a ring; [`TraceLog::records`] returns them oldest-first.

use std::collections::VecDeque;
use std::fmt;

use crate::component::ComponentId;
use crate::time::SimTime;

/// One trace record: when, who, what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Instant the record was written.
    pub(crate) time: SimTime,
    /// Component the record is attributed to.
    pub(crate) component: ComponentId,
    /// Short machine-greppable label (`"sched"`, `"fire"`, `"tx"`, …).
    pub(crate) label: String,
    /// Free-form human-oriented detail.
    pub(crate) detail: String,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {}",
            self.time, self.component, self.label, self.detail
        )
    }
}

/// A bounded in-memory trace log.
///
/// # Examples
///
/// ```
/// use tsbus_des::{SimTime, Simulator};
///
/// let mut sim = Simulator::new();
/// sim.enable_trace(1024);
/// sim.run_until(SimTime::from_secs(1));
/// assert!(sim.trace().records().is_empty()); // nothing scheduled, nothing traced
/// ```
#[derive(Debug, Clone)]
pub struct TraceLog {
    enabled: bool,
    capacity: usize,
    records: VecDeque<TraceRecord>,
    dropped: u64,
}

impl TraceLog {
    /// A log that ignores all records.
    #[must_use]
    pub(crate) fn disabled() -> Self {
        TraceLog {
            enabled: false,
            capacity: 0,
            records: VecDeque::new(),
            dropped: 0,
        }
    }

    /// A log retaining the most recent `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub(crate) fn enabled(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        TraceLog {
            enabled: true,
            capacity,
            records: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
        }
    }

    /// Whether records are being kept.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends a record (no-op when disabled).
    #[inline]
    pub(crate) fn record(
        &mut self,
        time: SimTime,
        component: ComponentId,
        label: &str,
        detail: impl fmt::Display,
    ) {
        if self.enabled {
            self.push_record(time, component, label, detail);
        }
    }

    /// The body of [`record`](Self::record), kept out of line so the
    /// disabled check inlines into every caller.
    #[cold]
    #[inline(never)]
    fn push_record(
        &mut self,
        time: SimTime,
        component: ComponentId,
        label: &str,
        detail: impl fmt::Display,
    ) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(TraceRecord {
            time,
            component,
            label: label.to_owned(),
            detail: detail.to_string(),
        });
    }

    /// The retained records, oldest first.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        self.records.iter().cloned().collect()
    }

    /// Iterates over retained records matching `label`, oldest first.
    pub fn with_label<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a TraceRecord> + 'a {
        self.records.iter().filter(move |r| r.label == label)
    }

    /// Renders all retained records, one per line — NS-2-trace-file style.
    #[must_use]
    pub fn to_text(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        for r in &self.records {
            let _ = writeln!(out, "{r}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(i: usize) -> ComponentId {
        ComponentId::from_raw(i)
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::disabled();
        log.record(SimTime::ZERO, cid(0), "x", "y");
        assert!(log.records().is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut log = TraceLog::enabled(2);
        log.record(SimTime::from_nanos(1), cid(0), "a", 1);
        log.record(SimTime::from_nanos(2), cid(0), "b", 2);
        log.record(SimTime::from_nanos(3), cid(0), "c", 3);
        let records = log.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].label, "b");
        assert_eq!(records[1].label, "c");
    }

    #[test]
    fn label_filter_finds_matching_records() {
        let mut log = TraceLog::enabled(10);
        log.record(SimTime::ZERO, cid(0), "tx", "frame 1");
        log.record(SimTime::ZERO, cid(1), "rx", "frame 1");
        log.record(SimTime::ZERO, cid(0), "tx", "frame 2");
        assert_eq!(log.with_label("tx").count(), 2);
        assert_eq!(log.with_label("rx").count(), 1);
        assert_eq!(log.with_label("nope").count(), 0);
    }

    #[test]
    fn text_rendering_is_one_line_per_record() {
        let mut log = TraceLog::enabled(10);
        log.record(SimTime::from_secs(1), cid(2), "fire", "ev#9");
        let text = log.to_text();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("fire"));
        assert!(text.contains("c2"));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = TraceLog::enabled(0);
    }
}
