//! # tsbus-shard — a sharded, replicated tuplespace tier
//!
//! The paper's architecture serves one tuplespace from one
//! `SpaceServer` on one TpWIRE bus. This crate scales that design out:
//! tuples are partitioned across N space servers, each on its own bus
//! segment, behind a client-side [`ShardRouter`] that keeps the
//! single-space programming model intact.
//!
//! * [`ShardConfig`]/[`ReplicationConfig`] — validated shard counts and
//!   replication factor R, with the majority write quorum W = R/2 + 1.
//! * [`PartitionMap`] — a deterministic FNV-1a hash ring (virtual
//!   nodes) mapping each tuple's shard-key field to an owner shard and
//!   a replica set; keyless tuples hash whole and keyless templates
//!   scatter to every shard.
//! * [`ShardRouter`] — quorum writes over the replica set, single-owner
//!   takes, owner-first keyed reads with replica fallback, and
//!   scatter-gather reads with per-shard deadlines and read-repair, all
//!   layered on the exactly-once request identities so retries and
//!   repairs stay idempotent.
//! * [`run_shard_trial`] — a full-cluster
//!   harness (driver + router + N bus segments) used by the benches,
//!   the integration tests and the chaos campaigns.
//! * [`run_shard_chaos_trial`] — seeded fault campaigns with the two tier invariants:
//!   no tuple owned by two shards, and quorum-acked writes survive any
//!   single-shard crash.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
pub mod cluster;
mod config;
mod partition;
mod router;

pub use chaos::ShardViolation;
pub use chaos::{
    check_shard_invariants, run_shard_chaos_trial, ShardChaosConfig, ShardChaosTrial,
    ShardViolationKind,
};
pub use cluster::{
    router_node, run_shard_trial, server_node, ShardAudit, ShardDriver, ShardTrialConfig,
    ShardTrialResult,
};
pub use config::ShardConfigError;
pub use config::{ReplicationConfig, ShardConfig, MAX_SHARDS};
pub use partition::{hash_tuple, hash_value, PartitionMap};
pub use router::RouterPolicy;
pub use router::{ShardOp, ShardOpDone, ShardRouter};
