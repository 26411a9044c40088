//! Sharded chaos harness: seeded fault campaigns against the cluster
//! with two tier-defining invariants checked after every trial.
//!
//! **Split ownership** — no tuple is ever owned by two shards: every
//! copy lives inside the key's replica set, no shard applies the same
//! write twice, and a take is admitted at the key's owner shard exactly
//! once or not at all.
//!
//! **Quorum durability** — a write acknowledged at quorum W left copies
//! on at least W distinct replica-set shards, and (while nothing takes
//! it) at least W copies are still present at the end of the trial, so
//! any single-shard crash cannot erase an acked write.
//!
//! The ablation arm ([`ShardChaosConfig::exactly_once`] = `false`)
//! re-issues retries under fresh identities; without the server-side
//! duplicate caches a lost reply re-applies, and the split-ownership
//! invariant catches the resulting double-writes/double-takes.

use std::fmt;

use tsbus_des::{SimDuration, SplitMix64};
use tsbus_faults::{BurstParams, FaultKind, FaultSchedule, SupervisionConfig};
use tsbus_tpwire::BusParams;
use tsbus_xmlwire::WireFormat;

use crate::cluster::{item_tuple, run_shard_trial, ShardTrialConfig, ShardTrialResult};
use crate::config::{ReplicationConfig, ShardConfig};
use crate::partition::PartitionMap;
use crate::router::RouterPolicy;

/// One sharded chaos campaign arm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardChaosConfig {
    /// Number of shards.
    pub shards: u8,
    /// Replicas per key (owner included).
    pub replicas: u8,
    /// Items written (and taken back) by the workload.
    pub n_items: u64,
    /// Wire encoding.
    pub wire_format: WireFormat,
    /// Wall-clock bound per trial.
    pub horizon: SimDuration,
    /// Bus supervision (`None` = unsupervised segments).
    pub supervision: Option<SupervisionConfig>,
    /// `false` = ablation arm: retries under fresh identities.
    pub exactly_once: bool,
}

impl Default for ShardChaosConfig {
    fn default() -> Self {
        ShardChaosConfig {
            shards: 4,
            replicas: 2,
            n_items: 60,
            wire_format: WireFormat::Xml,
            horizon: SimDuration::from_secs(600),
            supervision: Some(SupervisionConfig::conservative()),
            exactly_once: true,
        }
    }
}

impl ShardChaosConfig {
    /// The shard configuration this arm runs (majority quorum).
    ///
    /// # Panics
    ///
    /// Panics if the arm's shard/replica counts are invalid.
    #[must_use]
    pub fn shard_config(&self) -> ShardConfig {
        ShardConfig::new(self.shards, ReplicationConfig::mirrored(self.replicas))
            .expect("chaos arm uses a valid shard config")
    }
}

/// Which invariant a violation breaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardViolationKind {
    /// A tuple escaped its replica set, applied twice at one shard, or
    /// was taken other than exactly-once-at-owner.
    SplitOwnership,
    /// A quorum-acked write lost its quorum of copies.
    QuorumLoss,
}

impl fmt::Display for ShardViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardViolationKind::SplitOwnership => write!(f, "split-ownership"),
            ShardViolationKind::QuorumLoss => write!(f, "quorum-loss"),
        }
    }
}

/// One invariant breach found after a trial.
#[derive(Debug, Clone)]
pub struct ShardViolation {
    /// The invariant breached.
    pub kind: ShardViolationKind,
    /// The item concerned.
    pub item: u64,
    /// The shard concerned, when one is identifiable.
    pub shard: Option<u8>,
    /// Human-readable evidence.
    pub detail: String,
}

impl fmt::Display for ShardViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] item {}", self.kind, self.item)?;
        if let Some(shard) = self.shard {
            write!(f, " shard {shard}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// One seeded trial: the run itself plus its invariant verdicts.
#[derive(Debug, Clone)]
pub struct ShardChaosTrial {
    /// The seed that produced it.
    pub seed: u64,
    /// Fault events injected across all segments.
    pub fault_events: usize,
    /// Segments that carried burst noise.
    pub noisy_segments: usize,
    /// The trial's full evidence.
    pub result: ShardTrialResult,
    /// Invariant breaches (empty = clean).
    pub violations: Vec<ShardViolation>,
}

/// Derives each segment's faults from the seed: crash/revive windows of
/// the shard's server during the workload, plus optional burst noise.
/// At least one segment always crashes — a chaos trial without chaos
/// proves nothing.
#[must_use]
pub fn derive_shard_faults(
    seed: u64,
    shards: u8,
) -> (Vec<Option<BurstParams>>, Vec<FaultSchedule>) {
    let mut s = SplitMix64(seed ^ 0xD1F6_4A7C_9B3E_5812);
    let mut bursts = Vec::with_capacity(usize::from(shards));
    let mut schedules = Vec::with_capacity(usize::from(shards));
    let mut crashes = 0usize;
    for shard in 0..shards {
        let burst = if s.range(0, 3) == 0 {
            let mean_good = s.range(2_000, 20_000) as f64;
            let mean_bad = s.range(50, 400) as f64;
            let p_good = s.range(1, 10) as f64 * 1e-5;
            let p_bad = s.range(5, 30) as f64 / 100.0;
            Some(BurstParams::with_mean_lengths(
                mean_good, mean_bad, p_good, p_bad,
            ))
        } else {
            None
        };
        bursts.push(burst);
        let windows = match s.range(0, 4) {
            0 => 0,
            1 | 2 => 1,
            _ => 2,
        };
        let mut schedule = FaultSchedule::new();
        let node = crate::cluster::server_node(shard).raw();
        for _ in 0..windows {
            let start_ms = s.range(1_000, 20_000);
            let len_ms = s.range(300, 2_500);
            schedule = schedule
                .at(
                    tsbus_des::SimTime::ZERO + SimDuration::from_millis(start_ms),
                    FaultKind::SlaveCrash(node),
                )
                .at(
                    tsbus_des::SimTime::ZERO + SimDuration::from_millis(start_ms + len_ms),
                    FaultKind::SlaveRevive(node),
                );
        }
        crashes += windows;
        schedules.push(schedule);
    }
    if crashes == 0 {
        // Force one mid-workload outage on a seed-chosen shard.
        let shard = s.range(0, u64::from(shards)) as u8;
        let node = crate::cluster::server_node(shard).raw();
        let start_ms = s.range(2_000, 10_000);
        let len_ms = s.range(500, 2_000);
        schedules[usize::from(shard)] = FaultSchedule::new()
            .at(
                tsbus_des::SimTime::ZERO + SimDuration::from_millis(start_ms),
                FaultKind::SlaveCrash(node),
            )
            .at(
                tsbus_des::SimTime::ZERO + SimDuration::from_millis(start_ms + len_ms),
                FaultKind::SlaveRevive(node),
            );
    }
    (bursts, schedules)
}

/// Checks both invariants against a finished trial.
///
/// # Panics
///
/// Panics if `cfg` is invalid (the trial could not have run).
#[must_use]
pub fn check_shard_invariants(
    cfg: &ShardChaosConfig,
    result: &ShardTrialResult,
) -> Vec<ShardViolation> {
    let shard_cfg = cfg.shard_config();
    let map = PartitionMap::new(&shard_cfg).expect("valid config");
    let quorum = u64::from(shard_cfg.replication.write_quorum);
    let mut violations = Vec::new();
    for item in 0..cfg.n_items {
        let tuple = item_tuple(item);
        let owner = map.owner_of_tuple(&tuple);
        let rset = map.replicas_of_tuple(&tuple);
        let in_rset = |s: u8| rset.contains(&s);

        let mut written_shards = 0u64;
        let mut leftover_shards = 0u64;
        let mut taken_total = 0u64;
        for (s, audit) in result.shards.iter().enumerate() {
            let shard = s as u8;
            let written = audit.written.get(&item).copied().unwrap_or(0);
            let taken = audit.taken.get(&item).copied().unwrap_or(0);
            taken_total += taken;
            if written > 0 && !in_rset(shard) {
                violations.push(ShardViolation {
                    kind: ShardViolationKind::SplitOwnership,
                    item,
                    shard: Some(shard),
                    detail: format!(
                        "copy written outside the replica set {rset:?} (owner {owner})"
                    ),
                });
            }
            if written > 1 {
                violations.push(ShardViolation {
                    kind: ShardViolationKind::SplitOwnership,
                    item,
                    shard: Some(shard),
                    detail: format!("write applied {written} times at one shard"),
                });
            }
            if shard == owner && taken > 1 {
                violations.push(ShardViolation {
                    kind: ShardViolationKind::SplitOwnership,
                    item,
                    shard: Some(shard),
                    detail: format!("take admitted {taken} times at the owner"),
                });
            }
            if written > 0 && in_rset(shard) {
                written_shards += 1;
            }
            if audit.leftover.contains(&item) && in_rset(shard) {
                leftover_shards += 1;
            }
        }
        let app_took = result
            .take_entry
            .get(item as usize)
            .copied()
            .unwrap_or(false);
        let owner_taken = result.shards[usize::from(owner)]
            .taken
            .get(&item)
            .copied()
            .unwrap_or(0);
        if app_took && owner_taken == 0 {
            violations.push(ShardViolation {
                kind: ShardViolationKind::SplitOwnership,
                item,
                shard: Some(owner),
                detail: "take served to the application away from the owner shard".into(),
            });
        }

        let acked = result
            .write_acked
            .get(item as usize)
            .copied()
            .unwrap_or(false);
        if acked {
            if written_shards < quorum {
                violations.push(ShardViolation {
                    kind: ShardViolationKind::QuorumLoss,
                    item,
                    shard: None,
                    detail: format!(
                        "acked at quorum {quorum} but only {written_shards} replica-set \
                         shards ever applied it"
                    ),
                });
            }
            if taken_total == 0 && leftover_shards < quorum {
                violations.push(ShardViolation {
                    kind: ShardViolationKind::QuorumLoss,
                    item,
                    shard: None,
                    detail: format!(
                        "never taken, yet only {leftover_shards} of quorum {quorum} copies \
                         survive at the end"
                    ),
                });
            }
        }
    }
    violations
}

/// Runs one seeded chaos trial end to end.
#[must_use]
pub fn run_shard_chaos_trial(cfg: &ShardChaosConfig, seed: u64) -> ShardChaosTrial {
    let (bursts, faults) = derive_shard_faults(seed, cfg.shards);
    let fault_events = faults.iter().map(|f| f.events().len()).sum();
    let noisy_segments = bursts.iter().filter(|b| b.is_some()).count();
    let mut bus = BusParams::theseus_default();
    if let Some(sup) = cfg.supervision {
        bus = bus.with_supervision(sup);
    }
    let mut trial = ShardTrialConfig::new(cfg.shard_config());
    trial.bus = bus;
    trial.wire_format = cfg.wire_format;
    trial.horizon = cfg.horizon;
    trial.workload.n_items = cfg.n_items;
    trial.workload.window = 8;
    trial.router = RouterPolicy {
        exactly_once: cfg.exactly_once,
        ..RouterPolicy::default()
    };
    trial.faults = faults;
    trial.bursts = bursts;
    let result = run_shard_trial(&trial, seed);
    let violations = check_shard_invariants(cfg, &result);
    ShardChaosTrial {
        seed,
        fault_events,
        noisy_segments,
        result,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_injects_at_least_one_crash() {
        for seed in 0..50 {
            let (_, schedules) = derive_shard_faults(seed, 4);
            let events: usize = schedules.iter().map(|s| s.events().len()).sum();
            assert!(
                events >= 2,
                "seed {seed} derived a chaos trial with no chaos"
            );
        }
    }

    #[test]
    fn fault_derivation_is_deterministic() {
        let (b1, s1) = derive_shard_faults(42, 4);
        let (b2, s2) = derive_shard_faults(42, 4);
        assert_eq!(b1.len(), b2.len());
        assert_eq!(
            s1.iter().map(|s| s.events().len()).collect::<Vec<_>>(),
            s2.iter().map(|s| s.events().len()).collect::<Vec<_>>()
        );
        for (a, b) in b1.iter().zip(&b2) {
            assert_eq!(a.is_some(), b.is_some());
        }
    }

    /// One segment spelled out: the burst channel as mean good/bad
    /// sojourns (frames), good-state error rate in units of 1e-5 and
    /// bad-state error rate in percent; then `(ms, fault)` events.
    type Segment = (Option<(u64, u64, u64, u64)>, &'static [(u64, FaultKind)]);

    fn segments(spec: &[Segment]) -> (Vec<Option<BurstParams>>, Vec<FaultSchedule>) {
        spec.iter()
            .map(|&(burst, events)| {
                let burst = burst.map(|(good, bad, p_good, p_bad)| {
                    BurstParams::with_mean_lengths(
                        good as f64,
                        bad as f64,
                        p_good as f64 * 1e-5,
                        p_bad as f64 / 100.0,
                    )
                });
                let schedule = events.iter().fold(FaultSchedule::new(), |s, &(ms, kind)| {
                    s.at(tsbus_des::SimTime::from_millis(ms), kind)
                });
                (burst, schedule)
            })
            .unzip()
    }

    #[test]
    fn fault_derivation_is_pinned() {
        use FaultKind::{SlaveCrash as Crash, SlaveRevive as Revive};
        // Literal four-shard environments of five seeds: saved sharded
        // chaos seeds name these storms.
        let pinned: [(u64, [Segment; 4]); 5] = [
            (
                0,
                [
                    (
                        Some((3933, 330, 3, 21)),
                        &[(14620, Crash(2)), (16654, Revive(2))],
                    ),
                    (None, &[]),
                    (None, &[(14136, Crash(4)), (14866, Revive(4))]),
                    (None, &[]),
                ],
            ),
            (
                3,
                [
                    (None, &[(7864, Crash(2)), (9136, Revive(2))]),
                    (None, &[(17565, Crash(3)), (19945, Revive(3))]),
                    (
                        Some((19188, 142, 7, 19)),
                        &[(8057, Crash(4)), (9247, Revive(4))],
                    ),
                    (
                        None,
                        &[
                            (10582, Crash(5)),
                            (10945, Revive(5)),
                            (3381, Crash(5)),
                            (5056, Revive(5)),
                        ],
                    ),
                ],
            ),
            (
                11,
                [
                    (None, &[(16816, Crash(2)), (18132, Revive(2))]),
                    (
                        Some((19066, 293, 6, 25)),
                        &[(1053, Crash(3)), (2955, Revive(3))],
                    ),
                    (Some((16758, 239, 1, 29)), &[]),
                    (None, &[(11522, Crash(5)), (13764, Revive(5))]),
                ],
            ),
            (
                41,
                [
                    (
                        None,
                        &[
                            (13832, Crash(2)),
                            (14340, Revive(2)),
                            (10609, Crash(2)),
                            (11036, Revive(2)),
                        ],
                    ),
                    (
                        Some((10173, 232, 5, 26)),
                        &[(3274, Crash(3)), (3876, Revive(3))],
                    ),
                    (None, &[(11684, Crash(4)), (14158, Revive(4))]),
                    (Some((15562, 125, 2, 23)), &[]),
                ],
            ),
            (
                2003,
                [
                    (
                        Some((3601, 103, 3, 6)),
                        &[(11218, Crash(2)), (13633, Revive(2))],
                    ),
                    (
                        Some((15873, 142, 2, 7)),
                        &[(5642, Crash(3)), (6275, Revive(3))],
                    ),
                    (
                        Some((2903, 346, 1, 22)),
                        &[(15449, Crash(4)), (17065, Revive(4))],
                    ),
                    (
                        None,
                        &[
                            (9004, Crash(5)),
                            (10383, Revive(5)),
                            (19376, Crash(5)),
                            (20487, Revive(5)),
                        ],
                    ),
                ],
            ),
        ];
        for (seed, spec) in pinned {
            assert_eq!(derive_shard_faults(seed, 4), segments(&spec), "seed {seed}");
        }
    }

    #[test]
    fn quiet_cluster_trial_is_clean_and_replicated() {
        let cfg = ShardChaosConfig {
            n_items: 12,
            ..ShardChaosConfig::default()
        };
        let mut trial_cfg = ShardTrialConfig::new(cfg.shard_config());
        trial_cfg.workload.n_items = cfg.n_items;
        let result = run_shard_trial(&trial_cfg, 7);
        assert!(result.finished, "quiet trial must drain");
        assert!(result.write_acked.iter().all(|a| *a), "all writes ack");
        assert!(result.take_entry.iter().all(|t| *t), "all takes hit");
        let violations = check_shard_invariants(&cfg, &result);
        assert!(
            violations.is_empty(),
            "quiet trial violated: {violations:?}"
        );
        assert_eq!(result.quorum_acks, cfg.n_items);
    }
}
