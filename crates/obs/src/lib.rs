//! # tsbus-obs — the observability spine
//!
//! Every layer of the simulation (TpWIRE bus, packet links, tuplespace,
//! middleware client/server, fault injection) used to keep its own
//! hand-rolled stats struct and copy it field-by-field into the scenario
//! harvest. This crate replaces that with one spine:
//!
//! * [`Registry`] — a hierarchical, allocation-light metrics registry.
//!   Components register `/`-scoped instruments once (`txn/total`,
//!   `retry/control`, `lane/0/busy`), get back index-typed handles, and
//!   update them on the hot path with plain vector indexing — no hashing,
//!   no string formatting.
//! * [`Snapshot`] — a deterministic, path-sorted capture of a registry.
//!   Snapshots merge (with a per-component prefix), diff, and flatten to
//!   scalar rows, so the same bytes come out regardless of thread count or
//!   harvest order.
//! * [`Tracer`] / [`TraceEvent`] — a bounded (or unbounded) typed event
//!   ring replacing stringly-typed trace records. The cross-layer
//!   [`TraceEvent`] taxonomy covers frames, retries, faults, tuple
//!   operations, dedup decisions and lease renewals; layers with their own
//!   payload types (e.g. the tuplespace audit) instantiate [`Tracer`] with
//!   their own event type.
//!
//! Instruments reuse the measurement primitives of
//! [`tsbus_des::stats`] — [`Counter`](tsbus_des::stats::Counter),
//! [`Summary`](tsbus_des::stats::Summary),
//! [`Histogram`](tsbus_des::stats::Histogram),
//! [`BusyTime`](tsbus_des::stats::BusyTime) and
//! [`Utilization`](tsbus_des::stats::Utilization) — so a registry row
//! carries exactly the semantics the layer recorded.
//!
//! ## Example
//!
//! ```
//! use tsbus_obs::Registry;
//! use tsbus_des::SimTime;
//!
//! let mut reg = Registry::new();
//! let retries = reg.counter("retry/total");
//! let latency = reg.summary("latency");
//! reg.inc(retries);
//! reg.observe(latency, 2.5);
//! let snap = reg.snapshot(SimTime::ZERO).prefixed("bus/0");
//! assert_eq!(snap.count("bus/0/retry/total"), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod registry;
pub mod snapshot;
pub mod trace;

pub use registry::{BusyId, CounterId, GaugeId, HistogramId, Registry, SummaryId, UtilizationId};
pub use snapshot::{FlatValue, MetricValue, Snapshot};
pub use trace::{DedupDecision, LinkEffect, RetryClass, TraceEvent, Tracer, TupleOpKind};
