//! The batch driver the two storm binaries share: `chaos` (one bus
//! segment, `tsbus_core::chaos`) and `shard_chaos` (the sharded tier,
//! `tsbus_shard::chaos`).
//!
//! A storm runs one seed batch per arm through [`run_campaign`] (one
//! point per seed, key `seed=<n>`, one replication), so `--threads` and
//! `--cache-dir` behave as in every campaign binary and stdout is
//! byte-identical across both. [`run_batch`] prints each violating
//! seed's evidence and the batch verdict, and totals every integer and
//! boolean metric by name; the binaries keep only their arms, headers,
//! tables and assertions. This replaces the two hand-written per-binary
//! batch structs, their field-by-field sums and the copied seed-batch
//! parsing.

use std::collections::BTreeMap;

use tsbus_lab::json::Json;
use tsbus_lab::{run_campaign, Campaign, LabArgs, Metrics, PointResult};

/// Seeds in a default batch (no `--seed`, no `--seeds`).
const DEFAULT_SEEDS: u64 = 50;

/// The seed batch the flags select: `--seeds` sets its size (each seed is
/// one point with one replication) and `--seed` its base (default 0); a
/// pinned `--seed` without an explicit size replays that one seed.
#[must_use]
pub fn seed_batch(args: &LabArgs) -> Vec<u64> {
    let n = if args.seeds > 1 {
        u64::from(args.seeds)
    } else if args.seed.is_some() {
        1
    } else {
        DEFAULT_SEEDS
    };
    let base = args.seed.unwrap_or(0);
    (0..n).map(|i| base + i).collect()
}

/// Per-metric totals over a batch of trial records.
#[derive(Debug, Default)]
pub struct Batch {
    /// Records added (one per seed).
    pub seeds: usize,
    /// Seeds with at least one violation ([`run_batch`] only).
    pub violated_seeds: usize,
    totals: BTreeMap<String, u64>,
}

impl Batch {
    /// Adds one trial's record: each integer metric to its total, each
    /// boolean metric as 0 or 1.
    pub(crate) fn add(&mut self, record: &Metrics) {
        self.seeds += 1;
        for (metric, value) in record.entries() {
            let n = match value {
                Json::I64(n) => *n as u64,
                Json::Bool(b) => u64::from(*b),
                _ => continue,
            };
            *self.totals.entry(metric.clone()).or_default() += n;
        }
    }

    /// The batch total of an integer metric, or the number of seeds on
    /// which a boolean metric held.
    ///
    /// # Panics
    ///
    /// Panics if no added record had such a metric.
    #[must_use]
    pub fn total(&self, metric: &str) -> u64 {
        *self
            .totals
            .get(metric)
            .unwrap_or_else(|| panic!("no storm metric '{metric}'"))
    }
}

/// Runs `trial` on every seed as the campaign `name` and returns the
/// batch totals.
///
/// A seed violates when the `violations` metrics sum to more than zero;
/// its `detail` metric is printed as `  seed <n>: <detail>`. A storm with
/// several violation kinds then prints each kind's batch total, and a
/// clean batch ends with `  all <n> seeds clean`. The simulated/cached
/// job counts go to stderr.
///
/// # Panics
///
/// Panics on result-store I/O errors, or if a trial's metrics lack a
/// `violations` entry or `detail`.
pub fn run_batch<F>(
    name: &str,
    seeds: &[u64],
    args: &LabArgs,
    violations: &[&str],
    trial: F,
) -> Batch
where
    F: Fn(u64) -> Metrics + Sync,
{
    let campaign = Campaign::new(name, seeds.to_vec());
    let report = run_campaign(
        &campaign,
        &args.exec_opts(),
        |seed| format!("seed={seed}"),
        |seed, _ctx| trial(*seed),
    )
    .expect("result store I/O");
    crate::log_cache_use(&report);

    let mut batch = Batch::default();
    for PointResult { point, reps, .. } in &report.points {
        let m = &reps[0];
        if violations.iter().any(|v| m.get_i64(v) > 0) {
            batch.violated_seeds += 1;
            println!("  seed {point}: {}", m.get_str("detail"));
        }
        batch.add(m);
    }
    if violations.len() > 1 {
        for v in violations {
            println!("  {} violations: {}", v.replace('_', "-"), batch.total(v));
        }
    }
    if batch.violated_seeds == 0 {
        println!("  all {} seeds clean", batch.seeds);
    }
    batch
}
