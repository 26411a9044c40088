//! Shard-tier configuration: shard count and replication factor, both
//! validated up front with a typed error. The key field, keyless routing
//! and ring size are fixed ([`KEY_FIELD`], whole-tuple hashing,
//! [`VNODES`]), so the pair `(shards, replicas)` determines placement.

use std::fmt;

/// Hard ceiling on the shard count: each shard claims its own bus segment
/// and a globally distinct server node id, and sweeps beyond this stop
/// measuring anything the paper's n-wire story can absorb.
pub const MAX_SHARDS: u8 = 64;

/// Tuple field index carrying the shard key: the workload item id in
/// `("item", i)` tuples. Tuples and templates without it hash as a whole
/// tuple or scatter to every shard.
pub(crate) const KEY_FIELD: usize = 1;

/// Virtual nodes per shard on the hash ring.
pub(crate) const VNODES: u16 = 128;

/// Why a shard-tier configuration was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardConfigError {
    /// The tier needs at least one shard.
    ZeroShards,
    /// More shards than [`MAX_SHARDS`].
    TooManyShards {
        /// The offending count.
        shards: u8,
    },
    /// The replication factor must be at least 1 (the owner itself).
    ZeroReplicas,
    /// R > N: a key cannot have more distinct replicas than shards.
    ReplicasExceedShards {
        /// Requested replication factor.
        replicas: u8,
        /// Available shards.
        shards: u8,
    },
}

impl fmt::Display for ShardConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardConfigError::ZeroShards => write!(f, "shard count must be at least 1"),
            ShardConfigError::TooManyShards { shards } => {
                write!(f, "{shards} shards exceeds the ceiling of {MAX_SHARDS}")
            }
            ShardConfigError::ZeroReplicas => write!(f, "replication factor must be at least 1"),
            ShardConfigError::ReplicasExceedShards { replicas, shards } => write!(
                f,
                "replication factor {replicas} exceeds the {shards} available shard(s)"
            ),
        }
    }
}

impl std::error::Error for ShardConfigError {}

/// Replication factor of the tier; the write quorum is its majority.
///
/// The owner shard's acknowledgement is always mandatory (single-owner
/// `take` semantics require the owner to hold every acked write); the
/// quorum says how many replica acks — the owner's included — a write
/// needs before the router acknowledges it to the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// Distinct shards holding each key (1 = no replication).
    pub replicas: u8,
}

impl ReplicationConfig {
    /// `replicas` copies per key (1 = no replication).
    #[must_use]
    pub const fn mirrored(replicas: u8) -> Self {
        ReplicationConfig { replicas }
    }

    /// Acks required before a write is acknowledged, owner included: the
    /// majority `replicas / 2 + 1`.
    #[must_use]
    pub const fn write_quorum(&self) -> u8 {
        self.replicas / 2 + 1
    }
}

/// The full shard-tier configuration. Other crates can build one only
/// through [`ShardConfig::new`], so every value they hold is validated.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct ShardConfig {
    /// Number of shards (bus segments + `SpaceServer`s).
    pub shards: u8,
    /// Replication factor and write quorum.
    pub replication: ReplicationConfig,
}

impl ShardConfig {
    /// A validated configuration. Writes to a degraded shard park until
    /// it recovers.
    pub fn new(shards: u8, replication: ReplicationConfig) -> Result<Self, ShardConfigError> {
        let cfg = ShardConfig {
            shards,
            replication,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Full validation: shard bounds and replication bounds.
    pub(crate) fn validate(&self) -> Result<(), ShardConfigError> {
        if self.shards == 0 {
            return Err(ShardConfigError::ZeroShards);
        }
        if self.shards > MAX_SHARDS {
            return Err(ShardConfigError::TooManyShards {
                shards: self.shards,
            });
        }
        if self.replication.replicas == 0 {
            return Err(ShardConfigError::ZeroReplicas);
        }
        if self.replication.replicas > self.shards {
            return Err(ShardConfigError::ReplicasExceedShards {
                replicas: self.replication.replicas,
                shards: self.shards,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        let cfg = ShardConfig::new(4, ReplicationConfig::mirrored(2)).expect("valid");
        assert_eq!(cfg.shards, 4);
        assert_eq!(cfg.replication.replicas, 2);
        assert_eq!(cfg.replication.write_quorum(), 2);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn majority_quorums() {
        assert_eq!(ReplicationConfig::mirrored(1).write_quorum(), 1);
        assert_eq!(ReplicationConfig::mirrored(2).write_quorum(), 2);
        assert_eq!(ReplicationConfig::mirrored(3).write_quorum(), 2);
        assert_eq!(ReplicationConfig::mirrored(5).write_quorum(), 3);
    }

    #[test]
    fn rejections_carry_typed_evidence() {
        assert_eq!(
            ShardConfig::new(0, ReplicationConfig::mirrored(1)),
            Err(ShardConfigError::ZeroShards)
        );
        assert_eq!(
            ShardConfig::new(2, ReplicationConfig::mirrored(3)),
            Err(ShardConfigError::ReplicasExceedShards {
                replicas: 3,
                shards: 2
            })
        );
        assert_eq!(
            ShardConfig::new(4, ReplicationConfig::mirrored(0)),
            Err(ShardConfigError::ZeroReplicas)
        );
        assert_eq!(
            ShardConfig::new(MAX_SHARDS + 1, ReplicationConfig::mirrored(1)),
            Err(ShardConfigError::TooManyShards {
                shards: MAX_SHARDS + 1
            })
        );
    }

    #[test]
    fn errors_render_for_humans() {
        let all = [
            ShardConfigError::ZeroShards,
            ShardConfigError::TooManyShards { shards: 65 },
            ShardConfigError::ZeroReplicas,
            ShardConfigError::ReplicasExceedShards {
                replicas: 3,
                shards: 2,
            },
        ];
        for err in all {
            assert!(!err.to_string().is_empty());
        }
    }
}
