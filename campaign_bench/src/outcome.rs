//! What one trial reports: simulated results folded into a digest, the
//! operation ledger behind the `sim_*` metrics, invariant verdicts, and
//! the deterministic layer counters behind the per-layer metrics.

use std::ops::AddAssign;

use tsbus_core::ScriptedClient;
use tsbus_xmlwire::{Request, Response};

/// FNV-1a over the canonical text of a trial's simulated results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The digest of nothing.
    pub fn new() -> Self {
        Digest(Self::OFFSET)
    }

    /// Folds `text` in.
    pub fn text(mut self, text: &str) -> Self {
        for &b in text.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
        // A separator, so ("ab","c") and ("a","bc") differ.
        self.0 = (self.0 ^ 0xff).wrapping_mul(Self::PRIME);
        self
    }

    /// Folds another digest in.
    pub fn fold(self, other: Digest) -> Self {
        self.text(&format!("{:016x}", other.0))
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

/// Deterministic counters a trial contributes to the per-layer metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Bus transactions, polls included.
    pub txn: u64,
    /// Keep-alive/discovery polls.
    pub polls: u64,
    /// Bus frame retries.
    pub bus_retries: u64,
    /// Bit periods spent in retry backoff.
    pub backoff_bits: u64,
    /// Sum over buses of lane-0 utilization.
    pub utilization_sum: f64,
    /// Buses contributing to `utilization_sum`.
    pub buses: u64,
    /// Client attempts declared failed by the reply timeout.
    pub reply_timeouts: u64,
    /// Requests the servers answered from their reply caches.
    pub dedup_replays: u64,
    /// `Space` writes + reads + takes.
    pub space_ops: u64,
    /// `Space` reads/takes that found nothing.
    pub space_misses: u64,
    /// Request-lifecycle re-issues (client recovery or router sub-requests).
    pub proto_retries: u64,
    /// Replies discarded by id correlation.
    pub stale_replies: u64,
    /// Fast-fails seen by the request lifecycle.
    pub fast_fails: u64,
    /// Router sub-requests parked against degraded shards.
    pub parked_subops: u64,
    /// Request sends (client attempts or router sub-requests).
    pub attempts: u64,
    /// Circuit-breaker trips.
    pub trips: u64,
    /// Half-Open probe frames.
    pub probes: u64,
    /// Bit periods wasted on failure handling (chaos accounting).
    pub wasted_bits: u64,
    /// Router sub-request sends.
    pub subreqs: u64,
    /// Router writes whose quorum became unreachable.
    pub quorum_failures: u64,
    /// Router reads served away from the owner.
    pub read_repairs: u64,
}

impl AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.txn += o.txn;
        self.polls += o.polls;
        self.bus_retries += o.bus_retries;
        self.backoff_bits += o.backoff_bits;
        self.utilization_sum += o.utilization_sum;
        self.buses += o.buses;
        self.reply_timeouts += o.reply_timeouts;
        self.dedup_replays += o.dedup_replays;
        self.space_ops += o.space_ops;
        self.space_misses += o.space_misses;
        self.proto_retries += o.proto_retries;
        self.stale_replies += o.stale_replies;
        self.fast_fails += o.fast_fails;
        self.parked_subops += o.parked_subops;
        self.attempts += o.attempts;
        self.trips += o.trips;
        self.probes += o.probes;
        self.wasted_bits += o.wasted_bits;
        self.subreqs += o.subreqs;
        self.quorum_failures += o.quorum_failures;
        self.read_repairs += o.read_repairs;
    }
}

impl Counts {
    /// Adds one bus's counters.
    pub fn add_bus(&mut self, stats: &tsbus_tpwire::BusStats, utilization: f64) {
        self.txn += stats.transactions;
        self.polls += stats.polls;
        self.bus_retries += stats.retries;
        self.backoff_bits += stats.backoff_bits;
        self.trips += stats.breaker_trips;
        self.probes += stats.probes;
        self.utilization_sum += utilization;
        self.buses += 1;
    }

    /// Adds one server's counters.
    pub fn add_server(&mut self, server: &tsbus_core::SpaceServerAgent) {
        let space = server.space().stats();
        self.dedup_replays += server.stats().dedup_replays;
        self.space_ops += space.writes + space.reads + space.takes;
        self.space_misses += space.misses;
    }
}

/// One trial's report.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Kernel events dispatched.
    pub events: u64,
    /// Tuple operations the trial set out to perform.
    pub ops_attempted: u64,
    /// Operations that completed with the outcome the workload intended.
    pub ops_ok: u64,
    /// Simulated latency of every completed operation, in nanoseconds.
    pub op_latency_ns: Vec<u64>,
    /// Digest of the trial's simulated results (event count included).
    pub digest: Digest,
    /// Broken invariants (empty = clean).
    pub violations: Vec<String>,
    /// Per-layer counters.
    pub counts: Counts,
}

impl Outcome {
    /// Records a broken invariant when `holds` is false.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(what());
        }
    }

    /// Books a scripted client's `planned` requests: latencies of the
    /// completed ones, which succeeded (write acked, subscription
    /// acked, read/take returned an entry), and its request lifecycle.
    pub fn record_client(&mut self, client: &ScriptedClient, planned: u64) {
        self.ops_attempted += planned;
        for record in client.records() {
            if let Some(latency) = record.latency() {
                self.op_latency_ns.push(latency.as_nanos());
            }
            let ok = matches!(
                (&record.request, &record.response),
                (Request::Write { .. }, Some(Response::WriteAck))
                    | (
                        Request::Subscribe { .. },
                        Some(Response::SubscriptionAck { .. })
                    )
                    | (_, Some(Response::Entry { tuple: Some(_) }))
            );
            self.ops_ok += u64::from(ok);
            self.counts.attempts += u64::from(record.attempts);
            self.counts.proto_retries += u64::from(record.attempts.saturating_sub(1));
        }
        self.counts.reply_timeouts += client.reply_timeouts();
        self.counts.stale_replies += client.stale_replies();
        self.counts.fast_fails += client.fast_fails();
    }
}
