//! Differential golden gate for the request-lifecycle refactor.
//!
//! The `tsbus-proto` engine extraction (one outstanding-request table,
//! epoch-gated timers, shared retry/backoff decisions under the client,
//! the shard router, and the TpWIRE master) is required to be
//! **behaviour-preserving**: the same seeds must produce the same
//! simulated outcomes, byte for byte. This test pins that down with
//! point samples of the two campaign figures whose paths cross every
//! ported layer:
//!
//! * `fig_fault_sweep` points — the stream workload under burst
//!   channels and retry policies (the TpWIRE master's frame-retry and
//!   backoff path), plus core chaos trials (the `ScriptedClient`
//!   recovery/reply-timeout path under faults).
//! * `fig_shard_sweep` points — seeded shard trials and shard chaos
//!   storms (the `ShardRouter` sub-request retry/park/flush machinery).
//!
//! The golden file was generated from the pre-refactor tree and is kept
//! as a CI regression gate: any change to retry timing, attempt
//! accounting, or fault handling shows up here as a byte diff. To bless
//! an *intentional* behaviour change, re-run with `BLESS_PROTO_GOLDEN=1`
//! and review the diff like any other golden update.

use std::fmt::Write as _;

use tsbus_bench::workload::{
    burst_bus, burst_channel, patient_policy, run_stream_workload, REFERENCE_SEED,
};
use tsbus_core::{run_chaos_trial, ChaosConfig};
use tsbus_des::SimDuration;
use tsbus_faults::{Backoff, RetryPolicy, SupervisionConfig};
use tsbus_shard::{
    run_shard_chaos_trial, run_shard_trial, ReplicationConfig, ShardChaosConfig, ShardConfig,
    ShardTrialConfig,
};

/// The `fig_shard_sweep` trial shape: 1 Mbit/s segments, 2 ms servers,
/// window 32 — the serial wire is the bottleneck (see the binary's docs).
fn shard_trial(shards: u8, replicas: u8) -> ShardTrialConfig {
    let cfg = ShardConfig::new(shards, ReplicationConfig::mirrored(replicas))
        .expect("sample points stay inside the validated range");
    let mut trial = ShardTrialConfig::new(cfg);
    trial.bus.bit_rate_hz = 1_000_000.0;
    trial.service_time = SimDuration::from_millis(2);
    trial.endpoint_cost = SimDuration::from_millis(1);
    trial.workload.window = 32;
    trial
}

/// Renders every lifecycle-relevant observable of the sampled points
/// into one deterministic text block.
fn golden_text() -> String {
    let mut out = String::new();

    // ---- fig_fault_sweep sweep 1 points: burst density, patient policy.
    for gap in [None, Some(800.0_f64), Some(200.0), Some(100.0)] {
        let params = burst_bus(gap.map(burst_channel), patient_policy());
        let o = run_stream_workload(params, 30, 64, REFERENCE_SEED);
        writeln!(
            out,
            "stream gap={} delivered={} retries={} failures={} backoff={} intact={} elapsed={:.9}",
            gap.map_or_else(|| "clean".to_owned(), |g| format!("{g:.0}")),
            o.delivered,
            o.retries,
            o.failures,
            o.backoff_events,
            o.intact,
            o.elapsed,
        )
        .expect("write to string");
    }

    // ---- fig_fault_sweep sweep 2 points: policy shootout on the harsh
    // channel (100% in-burst loss).
    let policies: Vec<(&str, RetryPolicy)> = vec![
        ("immediate", RetryPolicy::immediate(3)),
        (
            "fixed64",
            RetryPolicy {
                max_retries: 3,
                backoff: Backoff::Fixed { bits: 64 },
            },
        ),
        (
            "exp256-1024",
            RetryPolicy {
                max_retries: 3,
                backoff: Backoff::Exponential {
                    base_bits: 256,
                    cap_bits: 1024,
                },
            },
        ),
    ];
    for (name, policy) in policies {
        let params = burst_bus(Some(burst_channel(100.0)), policy);
        let o = run_stream_workload(params, 30, 64, REFERENCE_SEED);
        writeln!(
            out,
            "policy {name} delivered={} retries={} failures={} backoff={} elapsed={}",
            o.delivered,
            o.retries,
            o.failures,
            o.backoff_events,
            if o.elapsed.is_nan() {
                "-".to_owned()
            } else {
                format!("{:.9}", o.elapsed)
            },
        )
        .expect("write to string");
    }

    // ---- Core chaos trials: the ScriptedClient recovery path under
    // randomized faults, unsupervised and supervised.
    for (seed, supervised) in [(7, false), (23, false), (23, true), (40, true)] {
        let cfg = ChaosConfig {
            supervision: supervised.then(SupervisionConfig::conservative),
            ..ChaosConfig::default()
        };
        let t = run_chaos_trial(&cfg, seed);
        writeln!(
            out,
            "chaos seed={seed} sup={supervised} violations={} finished={} acked={} taken={} \
             replays={} timeouts={} stale={} retries={} hard={} fast={} cfast={} probes={} \
             rebalances={} wasted={}",
            t.violations.len(),
            t.finished,
            t.writes_acked,
            t.takes_with_entry,
            t.dedup_replays,
            t.reply_timeouts,
            t.stale_replies,
            t.bus_retries,
            t.bus_hard_failures,
            t.fast_fails,
            t.client_fast_fails,
            t.probes,
            t.rebalances,
            t.wasted_bits,
        )
        .expect("write to string");
    }

    // ---- fig_shard_sweep points: seeded clean trials.
    for (shards, replicas, seed) in [(2u8, 1u8, 1u64), (2, 2, 1), (4, 3, 2), (8, 2, 3)] {
        let r = run_shard_trial(&shard_trial(shards, replicas), seed);
        let acked = r.write_acked.iter().filter(|a| **a).count();
        let taken = r.take_entry.iter().filter(|t| **t).count();
        writeln!(
            out,
            "shard s={shards} r={replicas} seed={seed} finished={} ops={} acked={acked} \
             taken={taken} reads={} attempts={} qacks={} qfail={} erases={} retries={} \
             parked={} stale={} repairs={} throughput={:.9}",
            r.finished,
            r.ops_completed,
            r.reads_hit,
            r.attempts_total,
            r.quorum_acks,
            r.quorum_failures,
            r.replica_erases,
            r.retries,
            r.parked_subops,
            r.stale_replies,
            r.repair_writes,
            r.throughput,
        )
        .expect("write to string");
    }

    // ---- Shard chaos storms: the router's degraded-shard park/flush and
    // retry machinery under seeded outages (supervised segments).
    for seed in [5u64, 11, 17] {
        let t = run_shard_chaos_trial(&ShardChaosConfig::default(), seed);
        let r = &t.result;
        writeln!(
            out,
            "shardchaos seed={seed} violations={} faults={} noisy={} finished={} ops={} \
             degraded={} attempts={} retries={} fast={} stale={} parked={} qacks={} qfail={} \
             erases={} repairs={}",
            t.violations.len(),
            t.fault_events,
            t.noisy_segments,
            r.finished,
            r.ops_completed,
            r.degraded_ops,
            r.attempts_total,
            r.retries,
            r.fast_fails,
            r.stale_replies,
            r.parked_subops,
            r.quorum_acks,
            r.quorum_failures,
            r.replica_erases,
            r.repair_writes,
        )
        .expect("write to string");
    }

    out
}

#[test]
fn lifecycle_point_samples_match_the_committed_golden() {
    let got = golden_text();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/proto_lifecycle.txt");
    if std::env::var_os("BLESS_PROTO_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path).expect(
        "tests/golden/proto_lifecycle.txt missing — generate it with \
         BLESS_PROTO_GOLDEN=1 cargo test -p tsbus-integration --test proto_golden",
    );
    assert_eq!(
        got, want,
        "request-lifecycle point samples drifted from the committed golden; \
         if the behaviour change is intentional, re-bless with BLESS_PROTO_GOLDEN=1"
    );
}
