//! The campaign runner: a work queue of independent `(point, replication)`
//! simulation jobs executed across a thread pool.
//!
//! Each DES run stays single-threaded and deterministic; a campaign is
//! embarrassingly parallel across its points and replications. Three
//! properties make a parallel campaign reproducible:
//!
//! 1. **Seed streams.** Every job's RNG seed is derived from the campaign
//!    seed, the point's stable identity, and the replication index
//!    ([`tsbus_des::derive_stream_seed`]) — never from thread identity or
//!    scheduling order.
//! 2. **Indexed result slots.** Workers write into a pre-sized slot
//!    vector by job index, so the report (and every emitter output) is in
//!    campaign order regardless of completion order.
//! 3. **Post-barrier cache writes.** New results are appended to the
//!    store after the parallel phase, in job order, so the store file's
//!    growth is also deterministic.
//!
//! Result: byte-identical output whether the campaign runs on 1 thread
//! or 16 (`tests/it/campaign.rs` locks this in).

use crate::cache::{config_hash, point_id, NewRecord, ResultStore};
use crate::metrics::Metrics;
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tsbus_des::derive_stream_seed;

/// A declarative campaign over points of type `P`.
#[derive(Debug, Clone)]
pub struct Campaign<P> {
    /// Campaign name (also the result-store file stem).
    pub(crate) name: String,
    /// The campaign master seed every job seed is derived from.
    pub(crate) seed: u64,
    /// Seed replications per point (≥ 1).
    pub(crate) replications: u32,
    /// The points to sweep, in presentation order.
    pub(crate) points: Vec<P>,
}

impl<P> Campaign<P> {
    /// A single-replication campaign with the default seed.
    #[must_use]
    pub fn new(name: &str, points: Vec<P>) -> Self {
        Campaign {
            name: name.to_owned(),
            seed: 0x7355_b5ed,
            replications: 1,
            points,
        }
    }

    /// Sets the campaign master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of seed replications per point.
    ///
    /// # Panics
    ///
    /// Panics if `replications` is zero.
    #[must_use]
    pub fn with_replications(mut self, replications: u32) -> Self {
        assert!(replications >= 1, "campaigns need at least one replication");
        self.replications = replications;
        self
    }
}

/// Execution options, typically parsed from `--threads` / `--cache-dir`.
#[derive(Debug, Clone, Default)]
pub struct ExecOpts {
    /// Worker threads (0 or unset = all available cores).
    pub threads: usize,
    /// Result-store directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
}

impl ExecOpts {
    /// Serial execution, no cache — the configuration migrated bench
    /// binaries use by default.
    #[must_use]
    pub fn serial() -> Self {
        ExecOpts {
            threads: 1,
            cache_dir: None,
        }
    }

    fn effective_threads(&self, jobs: usize) -> usize {
        let requested = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        };
        requested.clamp(1, jobs.max(1))
    }
}

/// The context one simulation job runs under.
#[derive(Debug, Clone, Copy)]
pub struct RunCtx {
    /// The derived stream seed for this `(point, replication)`. Seed a
    /// simulator (or [`tsbus_des::SimRng`]) with this for replicated
    /// runs; fully deterministic sweeps may ignore it.
    pub seed: u64,
}

/// Everything measured for one point: the per-replication records plus
/// summary statistics over every numeric metric.
#[derive(Debug, Clone)]
pub struct PointResult<P> {
    /// The swept point.
    pub point: P,
    /// Its canonical config key.
    pub key: String,
    /// Per-replication measurements, indexed by replication.
    pub reps: Vec<Metrics>,
    /// Mean / stddev / CI95 of each numeric metric across replications
    /// (metrics that are `NaN` in every replication are omitted).
    pub summary: BTreeMap<String, Summary>,
}

impl<P> PointResult<P> {
    /// The sole measurement of a single-replication campaign.
    ///
    /// # Panics
    ///
    /// Panics if the campaign ran more than one replication.
    #[must_use]
    pub fn single(&self) -> &Metrics {
        assert_eq!(
            self.reps.len(),
            1,
            "point '{}' has {} replications; use .reps / .summary",
            self.key,
            self.reps.len()
        );
        &self.reps[0]
    }
}

/// The outcome of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignReport<P> {
    /// Campaign name.
    pub name: String,
    /// Per-point results, in campaign point order.
    pub points: Vec<PointResult<P>>,
    /// Jobs actually simulated this run.
    pub simulated: usize,
    /// Jobs served from the result store.
    pub cached: usize,
    /// Wall-clock time of the run (including cache I/O). Diagnostics
    /// only: print it to stderr, never into exported tables, figure
    /// files or any other deterministic (diffed/golden) output.
    pub elapsed: Duration,
}

/// Runs a campaign: `key_fn` renders each point's canonical config key
/// (every parameter that affects the simulation must appear in it — it
/// is what the result cache hashes), `run_fn` simulates one
/// `(point, replication)` job.
///
/// `run_fn` executes on worker threads; panics propagate to the caller.
///
/// # Errors
///
/// Fails only on result-store I/O errors.
pub fn run_campaign<P, K, F>(
    campaign: &Campaign<P>,
    opts: &ExecOpts,
    key_fn: K,
    run_fn: F,
) -> io::Result<CampaignReport<P>>
where
    P: Clone + Sync,
    K: Fn(&P) -> String,
    F: Fn(&P, RunCtx) -> Metrics + Sync,
{
    assert!(campaign.replications >= 1);
    let started = Instant::now();
    let keys: Vec<String> = campaign.points.iter().map(&key_fn).collect();

    let mut store = match &opts.cache_dir {
        Some(dir) => Some(ResultStore::open(dir, &campaign.name)?),
        None => None,
    };

    // Enumerate jobs in campaign order; pull cached ones out up front.
    struct Job {
        point_index: usize,
        replication: u32,
        seed: u64,
        hash: String,
    }
    let mut slots: Vec<Option<Metrics>> =
        vec![None; campaign.points.len() * campaign.replications as usize];
    let mut jobs: Vec<Job> = Vec::new();
    for (point_index, key) in keys.iter().enumerate() {
        let pid = point_id(&campaign.name, key);
        for replication in 0..campaign.replications {
            let seed = derive_stream_seed(campaign.seed, pid, u64::from(replication));
            let hash = config_hash(&campaign.name, key, replication, seed);
            let slot = point_index * campaign.replications as usize + replication as usize;
            match store.as_ref().and_then(|s| s.get(&hash)) {
                Some(cached) => slots[slot] = Some(cached.clone()),
                None => jobs.push(Job {
                    point_index,
                    replication,
                    seed,
                    hash,
                }),
            }
        }
    }
    let cached = slots.iter().filter(|s| s.is_some()).count();

    // Execute the work queue. Workers claim jobs through an atomic
    // cursor and write into per-job slots; nothing about the results
    // depends on which worker ran which job.
    let threads = opts.effective_threads(jobs.len());
    let results: Vec<Option<Metrics>> = if jobs.is_empty() {
        Vec::new()
    } else if threads <= 1 {
        jobs.iter()
            .map(|job| {
                Some(run_fn(
                    &campaign.points[job.point_index],
                    RunCtx { seed: job.seed },
                ))
            })
            .collect()
    } else {
        let cursor = AtomicUsize::new(0);
        let out = Mutex::new(vec![None; jobs.len()]);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let metrics =
                        run_fn(&campaign.points[job.point_index], RunCtx { seed: job.seed });
                    out.lock().expect("result mutex")[i] = Some(metrics);
                });
            }
        });
        out.into_inner().expect("result mutex")
    };
    let simulated = results.len();

    // Persist fresh results (job order — deterministic), then fill slots.
    if let Some(store) = store.as_mut() {
        store.append(jobs.iter().zip(&results).map(|(job, m)| NewRecord {
            hash: job.hash.clone(),
            point_key: &keys[job.point_index],
            replication: job.replication,
            seed: job.seed,
            metrics: m.as_ref().expect("every job produced a result"),
        }))?;
    }
    for (job, metrics) in jobs.iter().zip(results) {
        let slot = job.point_index * campaign.replications as usize + job.replication as usize;
        slots[slot] = metrics;
    }

    // Assemble per-point results + replication summaries.
    let mut slots = slots.into_iter();
    let points = campaign
        .points
        .iter()
        .zip(keys)
        .map(|(point, key)| {
            let reps: Vec<Metrics> = (0..campaign.replications)
                .map(|_| slots.next().flatten().expect("slot filled"))
                .collect();
            let mut summary = BTreeMap::new();
            for name in reps[0].names() {
                let samples: Vec<f64> = reps
                    .iter()
                    .filter_map(|m| m.to_json().get(name).and_then(crate::json::Json::as_f64))
                    .collect();
                if samples.len() == reps.len() {
                    if let Some(s) = Summary::of(&samples) {
                        summary.insert(name.to_owned(), s);
                    }
                }
            }
            PointResult {
                point: point.clone(),
                key,
                reps,
                summary,
            }
        })
        .collect();

    Ok(CampaignReport {
        name: campaign.name.clone(),
        points,
        simulated,
        cached,
        elapsed: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_campaign() -> Campaign<i64> {
        Campaign::new("toy", vec![10, 20, 30]).with_replications(4)
    }

    fn toy_run(p: &i64, ctx: RunCtx) -> Metrics {
        let mut rng = tsbus_des::SimRng::seeded(ctx.seed);
        #[allow(clippy::cast_precision_loss)]
        Metrics::new()
            .f64("value", *p as f64 + rng.uniform_f64())
            .u64("seed", ctx.seed)
    }

    #[test]
    fn serial_and_parallel_agree() {
        let campaign = toy_campaign();
        let serial = run_campaign(
            &campaign,
            &ExecOpts::serial(),
            |p| format!("p={p}"),
            toy_run,
        )
        .expect("serial");
        let parallel = run_campaign(
            &campaign,
            &ExecOpts {
                threads: 4,
                cache_dir: None,
            },
            |p| format!("p={p}"),
            toy_run,
        )
        .expect("parallel");
        for (a, b) in serial.points.iter().zip(&parallel.points) {
            assert_eq!(a.reps, b.reps, "point {}", a.key);
        }
        assert_eq!(serial.simulated, 12);
        assert_eq!(parallel.simulated, 12);
    }

    #[test]
    fn summaries_cover_numeric_metrics() {
        let campaign = toy_campaign();
        let report = run_campaign(
            &campaign,
            &ExecOpts::serial(),
            |p| format!("p={p}"),
            toy_run,
        )
        .expect("run");
        let p0 = &report.points[0];
        let s = p0.summary.get("value").expect("summarized");
        assert_eq!(s.n, 4);
        assert!(s.mean > 10.0 && s.mean < 11.0, "mean {}", s.mean);
        // Integer metrics summarize too.
        assert_eq!(p0.summary["seed"].n, 4);
    }

    #[test]
    fn seeds_differ_across_points_and_replications() {
        let campaign = toy_campaign();
        let report = run_campaign(
            &campaign,
            &ExecOpts::serial(),
            |p| format!("p={p}"),
            toy_run,
        )
        .expect("run");
        // Same point: replications draw different values.
        let p0 = &report.points[0];
        let vals: Vec<f64> = p0.reps.iter().map(|m| m.get_f64("value")).collect();
        for w in vals.windows(2) {
            assert!(
                (w[0] - w[1]).abs() > 1e-9,
                "replications identical: {vals:?}"
            );
        }
    }

    #[test]
    fn cache_skips_everything_on_rerun() {
        let dir = std::env::temp_dir().join(format!("tsbus-lab-run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let campaign = toy_campaign();
        let opts = ExecOpts {
            threads: 1,
            cache_dir: Some(dir.clone()),
        };
        let first =
            run_campaign(&campaign, &opts, |p| format!("p={p}"), toy_run).expect("first run");
        assert_eq!((first.simulated, first.cached), (12, 0));
        let second =
            run_campaign(&campaign, &opts, |p| format!("p={p}"), toy_run).expect("second run");
        assert_eq!((second.simulated, second.cached), (0, 12));
        for (a, b) in first.points.iter().zip(&second.points) {
            assert_eq!(a.reps, b.reps);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_resimulates_only_changed_points() {
        let dir = std::env::temp_dir().join(format!("tsbus-lab-edit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ExecOpts {
            threads: 1,
            cache_dir: Some(dir.clone()),
        };
        let first = Campaign::new("edit", vec![1i64, 2, 3]).with_replications(2);
        let r1 = run_campaign(&first, &opts, |p| format!("p={p}"), toy_run).expect("run 1");
        assert_eq!((r1.simulated, r1.cached), (6, 0));
        // Edit the axis: drop 2, insert 4 ahead of 3. Points 1 and 3 keep
        // their identity (hash of the key, not the position).
        let second = Campaign::new("edit", vec![1i64, 4, 3]).with_replications(2);
        let r2 = run_campaign(&second, &opts, |p| format!("p={p}"), toy_run).expect("run 2");
        assert_eq!((r2.simulated, r2.cached), (2, 4));
        assert_eq!(r1.points[0].reps, r2.points[0].reps);
        assert_eq!(r1.points[2].reps, r2.points[2].reps);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_rejected() {
        let _ = Campaign::new("zero", vec![1i64]).with_replications(0);
    }
}
