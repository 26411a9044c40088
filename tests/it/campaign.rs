//! Campaign-engine guarantees over real DES workloads:
//!
//! 1. a campaign's canonical output is byte-identical whether it runs on
//!    1 thread or N (the JSONL emitter is order-normalized by
//!    construction — results land in campaign order, not completion
//!    order);
//! 2. seed-stream replication actually decorrelates replications;
//! 3. a no-op re-run against the result store skips every point and
//!    reproduces the same bytes.

use std::path::PathBuf;
use tsbus_bench::workload::{burst_bus, burst_channel, patient_policy, run_stream_workload};
use tsbus_lab::{
    run_campaign, Campaign, CsvEmitter, Emitter, ExecOpts, Grid, GridPoint, JsonlEmitter, Metrics,
};

/// The seed-replicated burst workload campaign the tests sweep: four
/// burst densities, three Gilbert-Elliott realizations each.
fn fault_campaign() -> Campaign<GridPoint> {
    Campaign::new(
        "campaign_it",
        Grid::new()
            .axis("gap", [800.0, 400.0, 200.0, 100.0])
            .points(),
    )
    .with_seed(0xDEC0DE)
    .with_replications(3)
}

fn run_fault_point(point: &GridPoint, ctx: tsbus_lab::RunCtx) -> Metrics {
    let params = burst_bus(Some(burst_channel(point.f64("gap"))), patient_policy());
    let o = run_stream_workload(params, 30, 64, ctx.seed);
    Metrics::new()
        .u64("delivered", o.delivered)
        .u64("retries", o.retries)
        .u64("backoff_events", o.backoff_events)
        .f64("elapsed", o.elapsed)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsbus-campaign-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn parallel_campaign_is_byte_identical_to_serial() {
    let campaign = fault_campaign();
    let serial = run_campaign(
        &campaign,
        &ExecOpts::serial(),
        GridPoint::key,
        run_fault_point,
    )
    .expect("no store");
    let parallel = run_campaign(
        &campaign,
        &ExecOpts {
            threads: 4,
            cache_dir: None,
        },
        GridPoint::key,
        run_fault_point,
    )
    .expect("no store");
    assert_eq!(serial.simulated, 12);
    assert_eq!(parallel.simulated, 12);
    assert_eq!(
        JsonlEmitter.format(&serial),
        JsonlEmitter.format(&parallel),
        "JSONL output must not depend on thread count"
    );
    assert_eq!(CsvEmitter.format(&serial), CsvEmitter.format(&parallel));
}

#[test]
fn replications_are_decorrelated_but_reproducible() {
    let campaign = fault_campaign();
    let report = run_campaign(
        &campaign,
        &ExecOpts::serial(),
        GridPoint::key,
        run_fault_point,
    )
    .expect("no store");
    // Same point, different seed streams: the burst realizations (and so
    // the retry counts) must differ across replications somewhere.
    let varies = report.points.iter().any(|p| {
        let retries: Vec<i64> = p.reps.iter().map(|m| m.get_i64("retries")).collect();
        retries.windows(2).any(|w| w[0] != w[1])
    });
    assert!(
        varies,
        "seed replication produced identical realizations everywhere"
    );
    // And the whole campaign is reproducible run-to-run.
    let again = run_campaign(
        &campaign,
        &ExecOpts::serial(),
        GridPoint::key,
        run_fault_point,
    )
    .expect("no store");
    assert_eq!(JsonlEmitter.format(&report), JsonlEmitter.format(&again));
}

#[test]
fn changing_the_master_seed_changes_realizations() {
    let a = run_campaign(
        &fault_campaign(),
        &ExecOpts::serial(),
        GridPoint::key,
        run_fault_point,
    )
    .expect("no store");
    let b = run_campaign(
        &fault_campaign().with_seed(0xBEEF),
        &ExecOpts::serial(),
        GridPoint::key,
        run_fault_point,
    )
    .expect("no store");
    assert_ne!(JsonlEmitter.format(&a), JsonlEmitter.format(&b));
}

#[test]
fn cache_hit_rerun_skips_all_points_and_reproduces_bytes() {
    let dir = tmp_dir("cache");
    let campaign = fault_campaign();
    let opts = ExecOpts {
        threads: 2,
        cache_dir: Some(dir.clone()),
    };
    let first = run_campaign(&campaign, &opts, GridPoint::key, run_fault_point).expect("store");
    assert_eq!((first.simulated, first.cached), (12, 0));
    let second = run_campaign(&campaign, &opts, GridPoint::key, run_fault_point).expect("store");
    assert_eq!(
        (second.simulated, second.cached),
        (0, 12),
        "a no-op re-run must be served entirely from the result store"
    );
    assert_eq!(JsonlEmitter.format(&first), JsonlEmitter.format(&second));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cached_and_fresh_results_are_interchangeable() {
    // Run half the grid, then the full grid: the first half must be
    // served from the store, the new half simulated, and the combined
    // output must equal an uncached full run.
    let dir = tmp_dir("half");
    let opts = ExecOpts {
        threads: 1,
        cache_dir: Some(dir.clone()),
    };
    let half = Campaign::new(
        "campaign_it",
        Grid::new().axis("gap", [800.0, 400.0]).points(),
    )
    .with_seed(0xDEC0DE)
    .with_replications(3);
    let r = run_campaign(&half, &opts, GridPoint::key, run_fault_point).expect("store");
    assert_eq!((r.simulated, r.cached), (6, 0));
    let full = fault_campaign();
    let mixed = run_campaign(&full, &opts, GridPoint::key, run_fault_point).expect("store");
    assert_eq!((mixed.simulated, mixed.cached), (6, 6));
    let uncached = run_campaign(&full, &ExecOpts::serial(), GridPoint::key, run_fault_point)
        .expect("no store");
    assert_eq!(JsonlEmitter.format(&mixed), JsonlEmitter.format(&uncached));
    let _ = std::fs::remove_dir_all(&dir);
}
