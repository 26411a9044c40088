//! Sharded-tier scaling figure: tuplespace throughput versus shard
//! count and replication factor.
//!
//! The paper's architecture serves the whole tuplespace from one
//! `SpaceServer` on one TpWIRE bus, so the server's service time bounds
//! aggregate throughput no matter how fast the bus gets. The sharded
//! tier (`tsbus-shard`) partitions tuples across N servers, each on its
//! own bus segment; this sweep quantifies what that buys — and what
//! replication factor R costs — on the canonical write-then-take
//! workload.
//!
//! Runs as a `tsbus-lab` campaign over the (shards × replication) grid
//! (accepting `--threads` / `--seeds` / `--seed` / `--cache-dir`). Each
//! point's cache key is its grid coordinates, shards and replication
//! factor, which together fix the partition map. Output is
//! byte-identical across thread counts and cache states.

use tsbus_bench::render_table;
use tsbus_des::SimDuration;
use tsbus_lab::{run_campaign, Campaign, Grid, GridPoint, LabArgs, Metrics, PointResult};
use tsbus_shard::{run_shard_trial, ReplicationConfig, ShardConfig, ShardTrialConfig};

#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn shard_config(point: &GridPoint) -> ShardConfig {
    let shards = point.i64("shards") as u8;
    let replicas = point.i64("repl") as u8;
    ShardConfig::new(shards, ReplicationConfig::mirrored(replicas))
        .expect("the sweep grid stays inside the validated range")
}

/// The swept trial: a bus-bound cluster. The bus is the paper's subject,
/// so the sweep keeps it the bottleneck — the speed-programmable line
/// runs at 1 Mbit/s and servers/endpoints are fast natives, which makes
/// each segment's serial wire (not request latency) the capacity limit
/// that extra shards then multiply.
fn trial_config(cfg: ShardConfig) -> ShardTrialConfig {
    let mut trial = ShardTrialConfig::new(cfg);
    trial.bus.bit_rate_hz = 1_000_000.0;
    trial.service_time = SimDuration::from_millis(2);
    trial.endpoint_cost = SimDuration::from_millis(1);
    trial.workload.window = 32;
    trial
}

fn mean(reps: &[Metrics], metric: &str) -> f64 {
    reps.iter().map(|m| m.get_f64(metric)).sum::<f64>() / reps.len() as f64
}

fn total(reps: &[Metrics], metric: &str) -> u64 {
    reps.iter().map(|m| m.get_i64(metric) as u64).sum()
}

fn main() {
    let args = LabArgs::from_env();
    println!("Figure — sharded tuplespace tier: throughput vs shards x replication\n");
    println!("Write-then-take workload (200 items, window 32), 1 Mbit/s segments,");
    println!("2 ms servers — the serial bus wire is the bottleneck shards multiply.\n");

    // R > N points are invalid (replicas must land on distinct shards);
    // the grid drops them rather than padding the table with dashes.
    let points: Vec<GridPoint> = Grid::new()
        .axis("shards", [1u8, 2, 4, 8])
        .axis("repl", [1u8, 2, 3])
        .points()
        .into_iter()
        .filter(|p| p.i64("repl") <= p.i64("shards"))
        .collect();

    let mut campaign =
        Campaign::new("fig_shard_sweep", points).with_replications(args.seeds.max(1));
    if let Some(seed) = args.seed {
        campaign = campaign.with_seed(seed);
    }
    let report = run_campaign(
        &campaign,
        &args.exec_opts(),
        GridPoint::key,
        |point, ctx| {
            let trial = trial_config(shard_config(point));
            let result = run_shard_trial(&trial, ctx.seed);
            let acked = result.write_acked.iter().filter(|a| **a).count() as u64;
            let taken = result.take_entry.iter().filter(|t| **t).count() as u64;
            Metrics::new()
                .bool("finished", result.finished)
                .f64("throughput", result.throughput)
                .u64("ops", result.ops_completed)
                .u64("acked", acked)
                .u64("taken", taken)
                .u64("attempts", result.attempts_total)
                .u64("quorum_acks", result.quorum_acks)
                .u64("replica_erases", result.replica_erases)
        },
    )
    .expect("result store I/O");
    // Cache accounting goes to stderr so stdout stays byte-identical
    // across cold and warm cache states (CI greps this line).
    eprintln!(
        "fig_shard_sweep: {} simulated / {} cached",
        report.simulated, report.cached
    );

    let throughput_at = |shards: i64, repl: i64| -> f64 {
        report
            .points
            .iter()
            .find(|p| p.point.i64("shards") == shards && p.point.i64("repl") == repl)
            .map(|p| mean(&p.reps, "throughput"))
            .expect("point swept")
    };
    let base = throughput_at(1, 1);

    let rows: Vec<Vec<String>> = report
        .points
        .iter()
        .map(|PointResult { point, reps, .. }| {
            let throughput = mean(reps, "throughput");
            vec![
                point.i64("shards").to_string(),
                point.i64("repl").to_string(),
                format!("{throughput:.1} ops/s"),
                format!("{:.2}x", throughput / base),
                format!("{:.0}", mean(reps, "attempts")),
                total(reps, "quorum_acks").to_string(),
                total(reps, "replica_erases").to_string(),
                if reps.iter().all(|m| m.get_bool("finished")) {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "shards",
                "repl",
                "throughput",
                "speedup",
                "sub-requests",
                "quorum acks",
                "replica erases",
                "finished",
            ],
            &rows
        )
    );

    for p in &report.points {
        assert!(
            p.reps.iter().all(|m| m.get_bool("finished")),
            "point {} must drain its workload before the horizon",
            p.key
        );
    }
    // The acceptance gate: at R = 1 the tier must actually scale —
    // every shard added up to 4 buys real throughput on this workload.
    let (t1, t2, t4) = (
        throughput_at(1, 1),
        throughput_at(2, 1),
        throughput_at(4, 1),
    );
    assert!(
        t1 < t2 && t2 < t4,
        "R=1 throughput must rise monotonically 1 -> 2 -> 4 shards \
         (got {t1:.1} / {t2:.1} / {t4:.1} ops/s)"
    );

    println!(
        "Scaling comes from parallel wires: each shard's serial 1 Mbit/s segment\n\
         carries only its own key range, so R=1 throughput climbs with the shard\n\
         count until the router's in-flight window (32) runs out of parallelism\n\
         to spend. Replication is the counterweight — every write fans out R\n\
         sub-requests and every take erases R-1 replica copies, so raising R buys\n\
         crash durability (see the sharded chaos campaign) at a visible cost."
    );
}
