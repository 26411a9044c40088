//! # tsbus-bench — the experiment regeneration harness
//!
//! One binary per table/figure of the paper (run with
//! `cargo run -p tsbus-bench --release --bin <name>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table3` | Table 3 — NS-2/TpWIRE timing validation + scaling factor |
//! | `table4` | Table 4 — middleware impact vs CBR load, 1-wire vs 2-wire |
//! | `fig_scaling` | §3.2 — the *n*-wire scalability claim, both modes |
//! | `fig_cbr_sweep` | §5 — the out-of-time traffic threshold |
//! | `fig_chain` | §3.1 — relay cost and discovery vs daisy-chain length |
//! | `fig_farm` | §2.1 — producer/consumer farm scaling over the bus |
//! | `fig_fault_sweep` | burst-error severity × master retry policy |
//! | `fig_shard_sweep` | sharded-tier throughput vs shard count and replication |
//! | `tcp_baseline` | §4.3 — TpWIRE vs TCP/Ethernet for the same exchange |
//! | `stack_breakdown` | Figs. 3–5 — where the end-to-end time goes |
//! | `ablation_chunk` | relay service-slot size (design choice) |
//! | `ablation_dma` | DMA block transfers vs per-byte relay (design choice) |
//! | `ablation_encoding` | XML wire encoding vs a compact binary one |
//! | `ablation_polling` | master poll cadence (design choice) |
//! | `ablation_errors` | frame-error rate vs retries and goodput |
//! | `chaos` | exactly-once invariants under randomized fault storms |
//! | `shard_chaos` | sharded-tier invariants under randomized shard outages |
//! | `campaign` | the whole figure set, via the `tsbus-lab` engine |
//! | `perf` | hot-path speedup report (`BENCH_perf.json`) + CI regression gate |
//!
//! The sweep-style figures (`fig_cbr_sweep`, `fig_fault_sweep`,
//! `fig_scaling`, `fig_shard_sweep`, `chaos`, `shard_chaos`, `campaign`)
//! run on the [`tsbus_lab`] campaign engine: a thread-pool work queue with
//! seed-stream replication and an optional config-hash result cache
//! (`--threads`, `--seeds`, `--cache-dir`). A campaign run by more than
//! one binary is defined once, in this library ([`figures`],
//! [`dedup_cost`], [`supervision`]), so a cache entry means the same
//! thing whichever binary wrote it.
//!
//! Criterion micro-benchmarks (`cargo bench -p tsbus-bench`) cover the
//! simulation-kernel and codec hot paths.
//!
//! The table-formatting helpers the binaries share live in the lab's
//! emitter module and are re-exported here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dedup_cost;
pub mod figures;
pub mod perf;
pub mod storm;
pub mod supervision;
pub mod workload;

pub use tsbus_lab::{fmt_secs, render_table};

use tsbus_lab::CampaignReport;

/// Prints `<campaign>: N simulated / M cached` to stderr — how a re-run
/// against a warm `--cache-dir` shows that it simulated nothing.
pub fn log_cache_use<P>(report: &CampaignReport<P>) {
    eprintln!(
        "{}: {} simulated / {} cached",
        report.name, report.simulated, report.cached
    );
}

/// Strips a `--<name> on|off|both`-style mode axis (e.g. `--dedup`,
/// `--supervision`) from an argument list, returning the selected modes
/// and the remaining arguments. Defaults to `["off", "on"]` (both) when
/// the flag is absent; exits with usage on a malformed value, like the
/// lab parser does.
#[must_use]
pub fn strip_mode_axis(flag: &str, args: Vec<String>) -> (Vec<&'static str>, Vec<String>) {
    let mut modes = vec!["off", "on"];
    let mut rest = Vec::new();
    let mut argv = args.into_iter();
    while let Some(arg) = argv.next() {
        if arg == flag {
            modes = match argv.next().as_deref() {
                Some("on") => vec!["on"],
                Some("off") => vec!["off"],
                Some("both") => vec!["off", "on"],
                other => {
                    eprintln!(
                        "{flag} needs on|off|both (got {})",
                        other.unwrap_or("nothing")
                    );
                    std::process::exit(2);
                }
            };
        } else {
            rest.push(arg);
        }
    }
    (modes, rest)
}
