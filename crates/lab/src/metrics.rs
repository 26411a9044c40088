//! The measurement record one simulation run produces.
//!
//! A [`Metrics`] is an ordered list of named values — "middleware_time",
//! "retries", "out_of_time" — that round-trips through the JSONL cache
//! and feeds the replication statistics. Insertion order is preserved so
//! emitted tables and CSV columns come out in the order the experiment
//! recorded them.

use crate::json::Json;

/// An ordered map of metric name → value recorded by one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Metrics {
    entries: Vec<(String, Json)>,
}

impl Metrics {
    /// An empty record.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records a float metric (completion time, goodput…). Non-finite
    /// values are preserved through the cache as JSON `null`.
    #[must_use]
    pub fn f64(mut self, name: &str, value: f64) -> Self {
        self.push(name, Json::F64(value));
        self
    }

    /// Records an unsigned counter.
    #[must_use]
    pub fn u64(mut self, name: &str, value: u64) -> Self {
        self.push(name, Json::from(value));
        self
    }

    /// Records a boolean metric (out-of-time, stream-intact…).
    #[must_use]
    pub fn bool(mut self, name: &str, value: bool) -> Self {
        self.push(name, Json::Bool(value));
        self
    }

    /// Records a symbolic metric.
    #[must_use]
    pub fn str(mut self, name: &str, value: &str) -> Self {
        self.push(name, Json::Str(value.to_owned()));
        self
    }

    fn push(&mut self, name: &str, value: Json) {
        assert!(
            !self.entries.iter().any(|(n, _)| n == name),
            "duplicate metric '{name}'"
        );
        self.entries.push((name.to_owned(), value));
    }

    /// Reads a float metric (integer metrics widen; cached non-finite
    /// floats read back as `NaN`).
    ///
    /// # Panics
    ///
    /// Panics if the metric is missing or not numeric.
    #[must_use]
    pub fn get_f64(&self, name: &str) -> f64 {
        self.get(name)
            .as_f64()
            .unwrap_or_else(|| panic!("metric '{name}' is not numeric"))
    }

    /// Reads an integer metric.
    ///
    /// # Panics
    ///
    /// Panics if the metric is missing or not an integer.
    #[must_use]
    pub fn get_i64(&self, name: &str) -> i64 {
        self.get(name)
            .as_i64()
            .unwrap_or_else(|| panic!("metric '{name}' is not an integer"))
    }

    /// Reads a boolean metric.
    ///
    /// # Panics
    ///
    /// Panics if the metric is missing or not a boolean.
    #[must_use]
    pub fn get_bool(&self, name: &str) -> bool {
        self.get(name)
            .as_bool()
            .unwrap_or_else(|| panic!("metric '{name}' is not a boolean"))
    }

    /// Reads a symbolic metric.
    ///
    /// # Panics
    ///
    /// Panics if the metric is missing or not a string.
    #[must_use]
    pub fn get_str(&self, name: &str) -> &str {
        self.get(name)
            .as_str()
            .unwrap_or_else(|| panic!("metric '{name}' is not a string"))
    }

    fn get(&self, name: &str) -> &Json {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no metric '{name}' (have: {:?})", self.names()))
    }

    /// The metric names in recording order.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// The entries in recording order.
    #[must_use]
    pub fn entries(&self) -> &[(String, Json)] {
        &self.entries
    }

    /// The record as a JSON object.
    #[must_use]
    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(self.entries.clone())
    }

    /// Rebuilds a record from a cached JSON object.
    ///
    /// # Errors
    ///
    /// Fails if `json` is not an object.
    pub(crate) fn from_json(json: &Json) -> Result<Metrics, String> {
        match json {
            Json::Obj(members) => Ok(Metrics {
                entries: members.clone(),
            }),
            other => Err(format!("metrics must be a JSON object, got {other:?}")),
        }
    }
}

/// Flattens a registry [`Snapshot`](tsbus_obs::Snapshot) into a
/// [`Metrics`] record, one entry per flattened metric path in the
/// snapshot's deterministic order. Exact integers stay `u64`; derived
/// scalars (summary means, minima and maxima) become `f64`. This is the bridge
/// that lets a campaign cache, emit, and summarise a whole-stack registry
/// capture the same way it handles hand-picked per-run metrics.
#[must_use]
pub fn snapshot_to_metrics(snapshot: &tsbus_obs::Snapshot) -> Metrics {
    let mut out = Metrics::new();
    for (path, value) in snapshot.flatten() {
        out = match value {
            tsbus_obs::FlatValue::U64(v) => out.u64(&path, v),
            tsbus_obs::FlatValue::F64(v) => out.f64(&path, v),
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_getters() {
        let m = Metrics::new()
            .f64("time", 1.5)
            .u64("retries", 3)
            .bool("oot", false)
            .str("mode", "2-wire");
        assert!((m.get_f64("time") - 1.5).abs() < f64::EPSILON);
        assert_eq!(m.get_i64("retries"), 3);
        assert!(!m.get_bool("oot"));
        assert_eq!(m.get_str("mode"), "2-wire");
        assert_eq!(m.names(), ["time", "retries", "oot", "mode"]);
    }

    #[test]
    fn json_round_trip_preserves_order_and_nan() {
        let m = Metrics::new().f64("t", f64::NAN).u64("n", 2);
        let back = Metrics::from_json(&Json::parse(&m.to_json().encode()).unwrap()).unwrap();
        assert!(back.get_f64("t").is_nan());
        assert_eq!(back.get_i64("n"), 2);
        assert_eq!(back.names(), ["t", "n"]);
    }

    #[test]
    #[should_panic(expected = "duplicate metric")]
    fn duplicate_names_rejected() {
        let _ = Metrics::new().u64("x", 1).u64("x", 2);
    }

    #[test]
    #[should_panic(expected = "no metric")]
    fn missing_metric_panics() {
        let _ = Metrics::new().get_f64("absent");
    }

    #[test]
    fn snapshot_bridge_keeps_order_and_integer_exactness() {
        let mut reg = tsbus_obs::Registry::new();
        let txns = reg.counter("txn/total");
        reg.add(txns, 3);
        let depth = reg.summary("queue/depth");
        reg.observe(depth, 1.5);
        let m = snapshot_to_metrics(&reg.snapshot());
        assert_eq!(m.get_i64("txn/total"), 3);
        assert_eq!(m.get_i64("queue/depth/n"), 1);
        assert!((m.get_f64("queue/depth/mean") - 1.5).abs() < f64::EPSILON);
        assert_eq!(
            m.names(),
            [
                "queue/depth/n",
                "queue/depth/mean",
                "queue/depth/min",
                "queue/depth/max",
                "txn/total"
            ]
        );
    }

    #[test]
    fn integers_read_as_floats() {
        let m = Metrics::new().u64("n", 7);
        assert!((m.get_f64("n") - 7.0).abs() < f64::EPSILON);
    }
}
