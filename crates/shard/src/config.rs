//! Shard-tier configuration: shard count, replication factor, write
//! quorum, key routing — all validated up front with a typed error
//! (the `Result`-returning sibling of the `SupervisionConfig` validation
//! pass), and serialized into a canonical key so the lab campaign cache
//! distinguishes every sim-affecting parameter.

use std::fmt;
use std::str::FromStr;

/// Hard ceiling on the shard count: each shard claims its own bus segment
/// and a globally distinct server node id, and sweeps beyond this stop
/// measuring anything the paper's n-wire story can absorb.
pub const MAX_SHARDS: u8 = 64;

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
    /// A write quorum of zero would acknowledge writes nobody stored.
    ZeroQuorum,
    /// W > R: the quorum can never assemble.
    QuorumExceedsReplicas {
        /// Requested write quorum.
        quorum: u8,
        /// Available replicas.
        replicas: u8,
    },
    /// The hash ring needs at least one virtual node per shard.
    ZeroVnodes,
    /// A fixed keyless fallback shard outside `0..shards`.
    FixedShardOutOfRange {
        /// The configured fallback shard.
        shard: u8,
        /// Available shards.
        shards: u8,
    },
    /// A canonical key string did not parse back into a configuration.
    MalformedKey {
        /// What was wrong with it.
        detail: String,
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
            ShardConfigError::ZeroQuorum => write!(f, "write quorum must be at least 1"),
            ShardConfigError::QuorumExceedsReplicas { quorum, replicas } => write!(
                f,
                "write quorum {quorum} exceeds the {replicas} replica(s) per key"
            ),
            ShardConfigError::ZeroVnodes => {
                write!(f, "the hash ring needs at least 1 virtual node per shard")
            }
            ShardConfigError::FixedShardOutOfRange { shard, shards } => write!(
                f,
                "fixed keyless fallback shard {shard} is outside 0..{shards}"
            ),
            ShardConfigError::MalformedKey { detail } => {
                write!(f, "malformed shard config key: {detail}")
            }
        }
    }
}

impl std::error::Error for ShardConfigError {}

/// Replication factor and write quorum of the tier.
///
/// The owner shard's acknowledgement is always mandatory (single-owner
/// `take` semantics require the owner to hold every acked write); the
/// quorum says how many replica acks — the owner's included — a write
/// needs before the router acknowledges it to the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// Distinct shards holding each key (1 = no replication).
    pub replicas: u8,
    /// Acks required before the write is acknowledged (owner included).
    pub write_quorum: u8,
}

impl ReplicationConfig {
    /// No replication: each key lives on its owner shard only.
    #[must_use]
    pub const fn none() -> Self {
        ReplicationConfig {
            replicas: 1,
            write_quorum: 1,
        }
    }

    /// `replicas` copies per key with a majority write quorum
    /// (`replicas / 2 + 1`).
    #[must_use]
    pub const fn mirrored(replicas: u8) -> Self {
        ReplicationConfig {
            replicas,
            write_quorum: replicas / 2 + 1,
        }
    }

    /// Overrides the write quorum (builder style). Validation still
    /// rejects `quorum > replicas` and `quorum == 0`.
    #[must_use]
    pub const fn with_quorum(mut self, quorum: u8) -> Self {
        self.write_quorum = quorum;
        self
    }

    /// Checks the factor/quorum pair in isolation (the R ≤ N check needs
    /// the shard count and lives in [`ShardConfig::validate`]).
    pub(crate) fn validate(&self) -> Result<(), ShardConfigError> {
        if self.replicas == 0 {
            return Err(ShardConfigError::ZeroReplicas);
        }
        if self.write_quorum == 0 {
            return Err(ShardConfigError::ZeroQuorum);
        }
        if self.write_quorum > self.replicas {
            return Err(ShardConfigError::QuorumExceedsReplicas {
                quorum: self.write_quorum,
                replicas: self.replicas,
            });
        }
        Ok(())
    }
}

/// Where a tuple (or template) without a usable key field is routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeylessPolicy {
    /// Hash the whole tuple; keyless templates scatter to every shard.
    HashWholeTuple,
    /// Pin everything keyless to one shard.
    Fixed(u8),
}

/// What the router does with a write whose target shard is degraded
/// (its bus breaker is Open and sends fast-fail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedWritePolicy {
    /// Park the sub-write and re-send when the shard recovers; the
    /// operation stays open until the quorum assembles.
    Queue,
    /// Fail the sub-write immediately; the operation errors if the
    /// quorum becomes unreachable.
    FastFail,
}

/// The full shard-tier configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardConfig {
    /// Number of shards (bus segments + `SpaceServer`s).
    pub shards: u8,
    /// Replication factor and write quorum.
    pub replication: ReplicationConfig,
    /// Tuple field index carrying the shard key.
    pub(crate) key_field: usize,
    /// Routing for tuples/templates without that field.
    pub(crate) keyless: KeylessPolicy,
    /// Virtual nodes per shard on the hash ring (balance knob).
    pub(crate) vnodes: u16,
    /// Degraded-shard write policy.
    pub(crate) degraded_writes: DegradedWritePolicy,
}

impl ShardConfig {
    /// A validated configuration with the default routing knobs: shard
    /// key at field 1 (the workload item id in `("item", i)` tuples),
    /// whole-tuple hashing for keyless traffic, 128 vnodes per shard,
    /// and queued degraded writes.
    pub fn new(shards: u8, replication: ReplicationConfig) -> Result<Self, ShardConfigError> {
        let cfg = ShardConfig {
            shards,
            replication,
            key_field: 1,
            keyless: KeylessPolicy::HashWholeTuple,
            vnodes: 128,
            degraded_writes: DegradedWritePolicy::Queue,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Moves the shard key to another tuple field (builder style).
    #[must_use]
    pub const fn with_key_field(mut self, field: usize) -> Self {
        self.key_field = field;
        self
    }

    /// Changes the keyless routing policy (builder style).
    #[must_use]
    pub const fn with_keyless(mut self, policy: KeylessPolicy) -> Self {
        self.keyless = policy;
        self
    }

    /// Changes the vnode count (builder style).
    #[must_use]
    pub const fn with_vnodes(mut self, vnodes: u16) -> Self {
        self.vnodes = vnodes;
        self
    }

    /// Changes the degraded-write policy (builder style).
    #[must_use]
    pub const fn with_degraded_writes(mut self, policy: DegradedWritePolicy) -> Self {
        self.degraded_writes = policy;
        self
    }

    /// Full validation: shard bounds, replication bounds, quorum bounds,
    /// ring and fallback sanity.
    pub(crate) fn validate(&self) -> Result<(), ShardConfigError> {
        if self.shards == 0 {
            return Err(ShardConfigError::ZeroShards);
        }
        if self.shards > MAX_SHARDS {
            return Err(ShardConfigError::TooManyShards {
                shards: self.shards,
            });
        }
        self.replication.validate()?;
        if self.replication.replicas > self.shards {
            return Err(ShardConfigError::ReplicasExceedShards {
                replicas: self.replication.replicas,
                shards: self.shards,
            });
        }
        if self.vnodes == 0 {
            return Err(ShardConfigError::ZeroVnodes);
        }
        if let KeylessPolicy::Fixed(shard) = self.keyless {
            if shard >= self.shards {
                return Err(ShardConfigError::FixedShardOutOfRange {
                    shard,
                    shards: self.shards,
                });
            }
        }
        Ok(())
    }

    /// The canonical, sorted `axis=value` rendering of every parameter
    /// that affects partition placement or routing. Campaign key
    /// functions must include this string so the result cache
    /// distinguishes shard configurations (the partition map is a pure
    /// function of it).
    #[must_use]
    pub fn canonical_key(&self) -> String {
        let keyless = match self.keyless {
            KeylessPolicy::HashWholeTuple => "hash".to_owned(),
            KeylessPolicy::Fixed(s) => format!("fixed{s}"),
        };
        let degraded = match self.degraded_writes {
            DegradedWritePolicy::Queue => "queue",
            DegradedWritePolicy::FastFail => "fastfail",
        };
        format!(
            "degraded={degraded},key={},keyless={keyless},quorum={},repl={},shards={},vnodes={}",
            self.key_field,
            self.replication.write_quorum,
            self.replication.replicas,
            self.shards,
            self.vnodes,
        )
    }

    /// Parses a [`canonical_key`](Self::canonical_key) string back into a
    /// validated configuration (the serialization round-trip the config
    /// cache relies on).
    pub fn parse_key(key: &str) -> Result<Self, ShardConfigError> {
        fn field<'a>(key: &'a str, name: &str) -> Result<&'a str, ShardConfigError> {
            key.split(',')
                .find_map(|pair| pair.strip_prefix(name)?.strip_prefix('='))
                .ok_or_else(|| ShardConfigError::MalformedKey {
                    detail: format!("missing `{name}=`"),
                })
        }
        fn num<T: FromStr>(raw: &str, name: &str) -> Result<T, ShardConfigError> {
            raw.parse().map_err(|_| ShardConfigError::MalformedKey {
                detail: format!("`{name}={raw}` is not a number"),
            })
        }
        let keyless = match field(key, "keyless")? {
            "hash" => KeylessPolicy::HashWholeTuple,
            fixed => match fixed.strip_prefix("fixed") {
                Some(raw) => KeylessPolicy::Fixed(num(raw, "keyless")?),
                None => {
                    return Err(ShardConfigError::MalformedKey {
                        detail: format!("unknown keyless policy `{fixed}`"),
                    })
                }
            },
        };
        let degraded = match field(key, "degraded")? {
            "queue" => DegradedWritePolicy::Queue,
            "fastfail" => DegradedWritePolicy::FastFail,
            other => {
                return Err(ShardConfigError::MalformedKey {
                    detail: format!("unknown degraded-write policy `{other}`"),
                })
            }
        };
        let cfg = ShardConfig {
            shards: num(field(key, "shards")?, "shards")?,
            replication: ReplicationConfig {
                replicas: num(field(key, "repl")?, "repl")?,
                write_quorum: num(field(key, "quorum")?, "quorum")?,
            },
            key_field: num(field(key, "key")?, "key")?,
            keyless,
            vnodes: num(field(key, "vnodes")?, "vnodes")?,
            degraded_writes: degraded,
        };
        cfg.validate()?;
        Ok(cfg)
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
        assert_eq!(cfg.replication.write_quorum, 2);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn majority_quorums() {
        assert_eq!(ReplicationConfig::mirrored(1).write_quorum, 1);
        assert_eq!(ReplicationConfig::mirrored(2).write_quorum, 2);
        assert_eq!(ReplicationConfig::mirrored(3).write_quorum, 2);
        assert_eq!(ReplicationConfig::mirrored(5).write_quorum, 3);
    }

    #[test]
    fn rejections_carry_typed_evidence() {
        assert_eq!(
            ShardConfig::new(0, ReplicationConfig::none()),
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
            ShardConfig::new(4, ReplicationConfig::none().with_quorum(2)),
            Err(ShardConfigError::QuorumExceedsReplicas {
                quorum: 2,
                replicas: 1
            })
        );
        assert_eq!(
            ShardConfig::new(4, ReplicationConfig::mirrored(2).with_quorum(0)),
            Err(ShardConfigError::ZeroQuorum)
        );
        assert_eq!(
            ShardConfig::new(
                4,
                ReplicationConfig {
                    replicas: 0,
                    write_quorum: 1
                }
            ),
            Err(ShardConfigError::ZeroReplicas)
        );
        assert_eq!(
            ShardConfig::new(MAX_SHARDS + 1, ReplicationConfig::none()),
            Err(ShardConfigError::TooManyShards {
                shards: MAX_SHARDS + 1
            })
        );
        let bad_vnodes = ShardConfig::new(2, ReplicationConfig::none())
            .expect("valid")
            .with_vnodes(0);
        assert_eq!(bad_vnodes.validate(), Err(ShardConfigError::ZeroVnodes));
        let bad_fixed = ShardConfig::new(2, ReplicationConfig::none())
            .expect("valid")
            .with_keyless(KeylessPolicy::Fixed(2));
        assert_eq!(
            bad_fixed.validate(),
            Err(ShardConfigError::FixedShardOutOfRange {
                shard: 2,
                shards: 2
            })
        );
    }

    #[test]
    fn canonical_key_round_trips() {
        let cfg = ShardConfig::new(6, ReplicationConfig::mirrored(3))
            .expect("valid")
            .with_key_field(2)
            .with_vnodes(64)
            .with_keyless(KeylessPolicy::Fixed(5))
            .with_degraded_writes(DegradedWritePolicy::FastFail);
        let key = cfg.canonical_key();
        assert_eq!(
            key,
            "degraded=fastfail,key=2,keyless=fixed5,quorum=2,repl=3,shards=6,vnodes=64"
        );
        assert_eq!(ShardConfig::parse_key(&key), Ok(cfg));
    }

    #[test]
    fn malformed_keys_are_rejected() {
        assert!(matches!(
            ShardConfig::parse_key("shards=4"),
            Err(ShardConfigError::MalformedKey { .. })
        ));
        assert!(matches!(
            ShardConfig::parse_key(
                "degraded=queue,key=1,keyless=hash,quorum=2,repl=2,shards=x,vnodes=128"
            ),
            Err(ShardConfigError::MalformedKey { .. })
        ));
        // A parseable key still goes through full validation.
        assert_eq!(
            ShardConfig::parse_key(
                "degraded=queue,key=1,keyless=hash,quorum=2,repl=2,shards=1,vnodes=128"
            ),
            Err(ShardConfigError::ReplicasExceedShards {
                replicas: 2,
                shards: 1
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
            ShardConfigError::ZeroQuorum,
            ShardConfigError::QuorumExceedsReplicas {
                quorum: 3,
                replicas: 2,
            },
            ShardConfigError::ZeroVnodes,
            ShardConfigError::FixedShardOutOfRange {
                shard: 4,
                shards: 4,
            },
            ShardConfigError::MalformedKey {
                detail: "missing `shards=`".into(),
            },
        ];
        for err in all {
            assert!(!err.to_string().is_empty());
        }
    }
}
