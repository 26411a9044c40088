//! # tsbus-lab — the experiment-campaign engine
//!
//! The paper's contribution is an *estimation methodology*: sweep
//! bus/middleware configurations until you find where the interconnect
//! saturates. This crate turns "sweep these parameter grids × these
//! seeds" into a work queue of independent simulation points and runs it
//! across a thread pool — each DES run stays single-threaded and
//! deterministic; campaigns are embarrassingly parallel.
//!
//! The pieces:
//!
//! * [`grid`] — declarative parameter grids (cartesian products of named
//!   axes) with canonical per-point config keys;
//! * [`run_campaign`] — the campaign runner: seed-stream replication
//!   (per-point seeds derived from the campaign seed via
//!   [`tsbus_des::derive_stream_seed`], so results are byte-identical
//!   regardless of thread count or execution order), work-queue
//!   execution, and per-point replication statistics;
//! * a config-hash-keyed JSONL result store behind
//!   [`ExecOpts::cache_dir`]: a re-run after editing one axis only
//!   re-simulates the changed points;
//! * [`Summary`] — mean / stddev / 95% CI across seed replications;
//! * [`Emitter`] — pluggable emitters: the ASCII table helper the bench
//!   binaries share ([`render_table`]), plus CSV and JSON Lines;
//! * [`LabArgs`] — the `--threads` / `--seeds` / `--cache-dir` flags every
//!   campaign binary speaks;
//! * [`json`] — the minimal canonical JSON round trip backing the cache
//!   and emitters (the workspace vendors its dependencies; no serde).
//!
//! ## Example
//!
//! ```
//! use tsbus_lab::{Campaign, ExecOpts, Grid, Metrics, run_campaign};
//!
//! let points = Grid::new().axis("load", [0.0, 0.5, 1.0]).points();
//! let campaign = Campaign::new("demo", points).with_replications(3);
//! let report = run_campaign(
//!     &campaign,
//!     &ExecOpts::serial(),
//!     tsbus_lab::grid::GridPoint::key,
//!     |point, ctx| {
//!         let mut rng = tsbus_des::SimRng::seeded(ctx.seed);
//!         Metrics::new().f64("latency", point.f64("load") + rng.uniform_f64())
//!     },
//! )
//! .expect("no cache dir, cannot fail");
//! let s = &report.points[2].summary["latency"];
//! assert_eq!(s.n, 3);
//! assert!(s.mean >= 1.0 && s.mean < 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod cli;
mod emit;
pub mod grid;
pub mod json;
mod metrics;
mod run;
mod stats;

pub use cli::LabArgs;
pub use emit::{fmt_secs, render_table, AsciiEmitter, CsvEmitter, Emitter, JsonlEmitter};
pub use grid::{Grid, GridPoint};
pub use metrics::{snapshot_to_metrics, Metrics};
pub use run::{run_campaign, Campaign, CampaignReport, ExecOpts, PointResult, RunCtx};
pub use stats::Summary;
