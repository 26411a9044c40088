//! Sharded chaos campaign — tier invariants under randomized shard
//! outages and burst noise.
//!
//! Each seed deterministically derives per-segment fault schedules
//! (server crash/revive windows — every trial gets at least one) and
//! optional Gilbert-Elliott burst noise, then drives the write/take
//! workload through the full sharded cluster and checks the two tier
//! invariants against per-shard ground truth:
//!
//! * **split-ownership** — no tuple is ever owned by two shards: every
//!   copy stays inside its replica set, no shard applies a write twice,
//!   takes are admitted at the owner exactly once or not at all;
//! * **quorum-loss** — a write acknowledged at quorum W left (and,
//!   until taken, keeps) copies on at least W replica-set shards, so a
//!   single-shard crash cannot erase an acked write.
//!
//! The campaign runs the seed batch twice and is its own acceptance
//! gate: the replicated, exactly-once, supervised arm must be clean on
//! every seed, and the ablation arm (retries re-issued under fresh
//! identities, no supervision) must produce violations somewhere in a
//! real batch — proving the invariants can actually see the failure
//! mode they guard. Re-run any violating seed alone with `--seed <n>`.
//! Output is byte-identical regardless of `--threads`.

use tsbus_bench::render_table;
use tsbus_bench::storm::{run_batch, seed_batch, Batch};
use tsbus_lab::{LabArgs, Metrics};
use tsbus_shard::{run_shard_chaos_trial, ShardChaosConfig, ShardChaosTrial, ShardViolationKind};

fn to_metrics(t: &ShardChaosTrial) -> Metrics {
    let split = t
        .violations
        .iter()
        .filter(|v| v.kind == ShardViolationKind::SplitOwnership)
        .count() as u64;
    let quorum = t
        .violations
        .iter()
        .filter(|v| v.kind == ShardViolationKind::QuorumLoss)
        .count() as u64;
    let detail = t
        .violations
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("; ");
    Metrics::new()
        .u64("split_ownership", split)
        .u64("quorum_loss", quorum)
        .bool("finished", t.result.finished)
        .u64("fault_events", t.fault_events as u64)
        .u64("noisy_segments", t.noisy_segments as u64)
        .u64("degraded_ops", t.result.degraded_ops)
        .u64("quorum_acks", t.result.quorum_acks)
        .u64("quorum_failures", t.result.quorum_failures)
        .u64("read_repairs", t.result.read_repairs)
        .u64("degraded_reads", t.result.degraded_reads)
        .u64("repair_writes", t.result.repair_writes)
        .u64("retries", t.result.retries)
        .u64("fast_fails", t.result.fast_fails)
        .u64("stale_replies", t.result.stale_replies)
        .u64("parked_subops", t.result.parked_subops)
        .u64(
            "dedup_replays",
            t.result.shards.iter().map(|s| s.dedup_replays).sum(),
        )
        .u64(
            "breaker_trips",
            t.result.shards.iter().map(|s| s.breaker_trips).sum(),
        )
        .str("detail", &detail)
}

fn shard_batch(name: &str, cfg: &ShardChaosConfig, seeds: &[u64], args: &LabArgs) -> Batch {
    let violations = ["split_ownership", "quorum_loss"];
    run_batch(name, seeds, args, &violations, |seed| {
        to_metrics(&run_shard_chaos_trial(cfg, seed))
    })
}

fn row(label: &str, o: &Batch) -> Vec<String> {
    vec![
        label.to_owned(),
        format!("{}/{}", o.violated_seeds, o.seeds),
        o.total("split_ownership").to_string(),
        o.total("quorum_loss").to_string(),
        format!("{}/{}", o.total("finished"), o.seeds),
        o.total("quorum_acks").to_string(),
        o.total("retries").to_string(),
        o.total("dedup_replays").to_string(),
        o.total("breaker_trips").to_string(),
    ]
}

fn main() {
    let args = LabArgs::from_env();
    let seeds = seed_batch(&args);
    let base = seeds[0];

    let supervised = ShardChaosConfig::default();
    println!(
        "Sharded chaos campaign — {} randomized outage seeds (base {base}),\n\
         {} shards x R={} (quorum {}), supervised segments\n",
        seeds.len(),
        supervised.shards,
        supervised.replicas,
        supervised.shard_config().replication.write_quorum,
    );

    println!("replicated + exactly-once + supervision (the shipping configuration):");
    let on = shard_batch("shard_chaos_on", &supervised, &seeds, &args);

    println!("\nablation: retries under fresh identities, unsupervised segments:");
    let ablated = ShardChaosConfig {
        exactly_once: false,
        supervision: None,
        ..ShardChaosConfig::default()
    };
    let off = shard_batch("shard_chaos_ablated", &ablated, &seeds, &args);

    println!(
        "\n{}",
        render_table(
            &[
                "arm",
                "violated seeds",
                "split-ownership",
                "quorum-loss",
                "finished",
                "quorum acks",
                "router retries",
                "server replays",
                "breaker trips",
            ],
            &[row("exactly-once", &on), row("ablation", &off)],
        )
    );

    assert_eq!(
        on.total("split_ownership"),
        0,
        "split-ownership must hold under every outage storm \
         ({} seeds violated)",
        on.violated_seeds
    );
    assert_eq!(
        on.total("quorum_loss"),
        0,
        "quorum durability must hold under every outage storm \
         ({} seeds violated)",
        on.violated_seeds
    );
    // A single-seed replay may legitimately be clean either way; only a
    // real batch must catch the ablation red-handed.
    assert!(
        off.seeds < 10 || off.total("split_ownership") + off.total("quorum_loss") > 0,
        "the ablation must break an invariant somewhere in {} seeds — \
         if it cannot, the harness is not testing anything",
        off.seeds
    );
    println!(
        "\nThe tier holds: {} storms, zero violations of either invariant with\n\
         replication + exactly-once + supervision on ({} degraded ops, {} parked\n\
         sub-requests, {} fast-fails ridden out); the same storms break the\n\
         invariants {} time(s) with fresh-identity retries and no supervision.\n\
         Replay any seed above with `--seed <n>`.",
        on.seeds,
        on.total("degraded_ops"),
        on.total("parked_subops"),
        on.total("fast_fails"),
        off.total("split_ownership") + off.total("quorum_loss"),
    );
}
