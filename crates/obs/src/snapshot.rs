//! Deterministic, path-sorted captures of a [`Registry`](crate::Registry).
//!
//! A [`Snapshot`] is the only way metrics leave a component: the scenario
//! harness takes one snapshot per component, prefixes each with the
//! component's place in the system (`bus/0`, `space`, …), and merges them
//! into the single record every figure and campaign exports from. Rows are
//! sorted by path and values flatten through a fixed rule set, so the same
//! simulation produces the same bytes regardless of thread count or
//! harvest order.

use std::fmt;

use tsbus_des::stats::Summary;
use tsbus_des::SimDuration;

/// The captured value of one instrument.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonic event count.
    Count(u64),
    /// An accumulated busy span.
    Duration(SimDuration),
    /// A full sample summary (n / mean / min / max / variance).
    Summary(Summary),
}

/// One scalar produced by [`Snapshot::flatten`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlatValue {
    /// An exact integer scalar.
    U64(u64),
    /// A floating-point scalar.
    F64(f64),
}

impl fmt::Display for FlatValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlatValue::U64(v) => write!(f, "{v}"),
            FlatValue::F64(v) => write!(f, "{v}"),
        }
    }
}

/// A path-sorted capture of metric values.
///
/// # Examples
///
/// ```
/// use tsbus_obs::Registry;
/// use tsbus_des::SimTime;
///
/// let mut bus = Registry::new();
/// let retries = bus.counter("retry/total");
/// bus.add(retries, 2);
/// let mut space = Registry::new();
/// let writes = space.counter("writes");
/// space.inc(writes);
///
/// let snap = bus
///     .snapshot()
///     .prefixed("bus/0")
///     .merge(space.snapshot().prefixed("space"));
/// assert_eq!(snap.count("bus/0/retry/total"), 2);
/// assert_eq!(snap.count("space/writes"), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    rows: Vec<(String, MetricValue)>,
}

impl Snapshot {
    /// Builds a snapshot from rows, sorting by path.
    ///
    /// # Panics
    ///
    /// Panics if two rows share a path.
    #[must_use]
    pub(crate) fn from_rows(mut rows: Vec<(String, MetricValue)>) -> Self {
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        for pair in rows.windows(2) {
            assert!(
                pair[0].0 != pair[1].0,
                "duplicate snapshot path {:?}",
                pair[0].0
            );
        }
        Snapshot { rows }
    }

    /// The rows, sorted by path.
    #[must_use]
    pub fn rows(&self) -> &[(String, MetricValue)] {
        &self.rows
    }

    /// Looks a row up by exact path.
    #[must_use]
    pub(crate) fn get(&self, path: &str) -> Option<&MetricValue> {
        self.rows
            .binary_search_by(|(p, _)| p.as_str().cmp(path))
            .ok()
            .map(|i| &self.rows[i].1)
    }

    /// Reads a [`MetricValue::Count`] row.
    ///
    /// # Panics
    ///
    /// Panics if the path is absent or not a count (the typed getters all
    /// do — a missing metric in a harvest is a wiring bug, not data).
    #[must_use]
    pub fn count(&self, path: &str) -> u64 {
        match self.get(path) {
            Some(MetricValue::Count(v)) => *v,
            other => panic!("snapshot row {path:?} is not a count: {other:?}"),
        }
    }

    /// Reads a [`MetricValue::Duration`] row.
    #[must_use]
    pub fn duration(&self, path: &str) -> SimDuration {
        match self.get(path) {
            Some(MetricValue::Duration(v)) => *v,
            other => panic!("snapshot row {path:?} is not a duration: {other:?}"),
        }
    }

    /// Returns the snapshot with `prefix/` prepended to every path — how a
    /// harvest places one component's registry into the system-wide
    /// namespace.
    #[must_use]
    pub fn prefixed(self, prefix: &str) -> Snapshot {
        Snapshot {
            rows: self
                .rows
                .into_iter()
                .map(|(path, value)| (format!("{prefix}/{path}"), value))
                .collect(),
        }
    }

    /// Merges two snapshots into one.
    ///
    /// # Panics
    ///
    /// Panics if any path appears in both — merged snapshots must come
    /// from disjoint (prefixed) namespaces, otherwise two layers would be
    /// counting into the same row.
    #[must_use]
    pub fn merge(self, other: Snapshot) -> Snapshot {
        let mut rows = self.rows;
        rows.extend(other.rows);
        Snapshot::from_rows(rows)
    }

    /// Flattens every row to scalar entries, in path order:
    ///
    /// * counts → one `U64` at the row's path;
    /// * durations → one `U64` of nanoseconds at `path/ns`;
    /// * summaries → `path/n`, `path/mean`, `path/min`, `path/max`
    ///   (`0` when empty).
    ///
    /// The flattening is the contract the `tsbus-lab` bridge and the
    /// golden snapshot files rely on: same simulation, same scalars, same
    /// order.
    #[must_use]
    pub fn flatten(&self) -> Vec<(String, FlatValue)> {
        let mut out = Vec::with_capacity(self.rows.len());
        for (path, value) in &self.rows {
            match value {
                MetricValue::Count(v) => out.push((path.clone(), FlatValue::U64(*v))),
                MetricValue::Duration(d) => {
                    out.push((format!("{path}/ns"), FlatValue::U64(d.as_nanos())));
                }
                MetricValue::Summary(s) => {
                    out.push((format!("{path}/n"), FlatValue::U64(s.len())));
                    out.push((format!("{path}/mean"), FlatValue::F64(s.mean())));
                    out.push((
                        format!("{path}/min"),
                        FlatValue::F64(s.min().unwrap_or(0.0)),
                    ));
                    out.push((
                        format!("{path}/max"),
                        FlatValue::F64(s.max().unwrap_or(0.0)),
                    ));
                }
            }
        }
        out
    }

    /// Renders the flattened rows as `path value` lines — the byte-stable
    /// text form golden files compare.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (path, value) in self.flatten() {
            out.push_str(&path);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> Snapshot {
        let mut reg = Registry::new();
        let c = reg.counter("retries");
        let s = reg.summary("lat");
        let b = reg.busy_time("busy");
        reg.add(c, 4);
        reg.observe(s, 1.0);
        reg.observe(s, 2.0);
        reg.add_busy(b, SimDuration::from_micros(7));
        reg.snapshot()
    }

    #[test]
    fn rows_are_sorted_and_queryable() {
        let snap = sample();
        let paths: Vec<&str> = snap.rows().iter().map(|(p, _)| p.as_str()).collect();
        let mut sorted = paths.clone();
        sorted.sort_unstable();
        assert_eq!(paths, sorted);
        assert_eq!(snap.count("retries"), 4);
        assert!(matches!(snap.get("lat"), Some(MetricValue::Summary(s)) if s.len() == 2));
        assert_eq!(snap.duration("busy"), SimDuration::from_micros(7));
        assert!(snap.get("absent").is_none());
    }

    #[test]
    fn prefix_and_merge_compose() {
        let merged = sample().prefixed("a").merge(sample().prefixed("b"));
        assert_eq!(merged.count("a/retries"), 4);
        assert_eq!(merged.count("b/retries"), 4);
        assert_eq!(merged.rows().len(), 2 * sample().rows().len());
    }

    #[test]
    #[should_panic(expected = "duplicate snapshot path")]
    fn merge_rejects_overlapping_paths() {
        let _ = sample().merge(sample());
    }

    #[test]
    fn flatten_and_text_are_deterministic() {
        let a = sample();
        let b = sample();
        assert_eq!(a.flatten(), b.flatten());
        assert_eq!(a.to_text(), b.to_text());
        let text = a.to_text();
        assert!(text.contains("retries 4\n"));
        assert!(text.contains("lat/n 2\n"));
        assert!(text.contains("lat/mean 1.5\n"));
        assert!(text.contains("busy/ns 7000\n"));
    }
}
