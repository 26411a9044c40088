//! The deterministic partition map: a hash ring assigning every shard
//! key to an owner shard and a replica set.
//!
//! Placement is a pure function of the [`ShardConfig`] — the same
//! canonical key always reproduces the same ring, across runs, threads,
//! and platforms. The hash is a self-contained FNV-1a over canonical
//! value bytes (no `std::hash`, whose output is not pinned across
//! releases), finished with SplitMix64's finaliser: raw FNV-1a diffuses
//! trailing-byte differences poorly, so consecutive integer keys would
//! land in one narrow band of the ring, and thus on one shard. Lab
//! campaign caches keyed on
//! [`ShardConfig::canonical_key`] stay valid for as long as the map's
//! [`assignment_hash`](PartitionMap::assignment_hash) golden holds.

use tsbus_des::splitmix64_finalize;
use tsbus_tuplespace::{Pattern, Template, Tuple, Value};

use crate::config::{KeylessPolicy, ShardConfig, ShardConfigError};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Stable 64-bit hash of one tuplespace value: a type tag byte followed
/// by the value's canonical bytes.
#[must_use]
pub fn hash_value(value: &Value) -> u64 {
    let mut hash = FNV_OFFSET;
    match value {
        Value::Int(i) => {
            fnv1a(&mut hash, b"i");
            fnv1a(&mut hash, &i.to_be_bytes());
        }
        Value::Float(x) => {
            fnv1a(&mut hash, b"f");
            fnv1a(&mut hash, &x.to_bits().to_be_bytes());
        }
        Value::Str(s) => {
            fnv1a(&mut hash, b"s");
            fnv1a(&mut hash, s.as_bytes());
        }
        Value::Bool(b) => {
            fnv1a(&mut hash, b"b");
            fnv1a(&mut hash, &[u8::from(*b)]);
        }
        Value::Bytes(bytes) => {
            fnv1a(&mut hash, b"y");
            fnv1a(&mut hash, bytes);
        }
    }
    splitmix64_finalize(hash)
}

/// Stable 64-bit hash of a whole tuple (the keyless fallback input):
/// field hashes folded in order, prefixed with the arity.
#[must_use]
pub fn hash_tuple(tuple: &Tuple) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, &(tuple.arity() as u64).to_be_bytes());
    for field in tuple.iter() {
        fnv1a(&mut hash, &hash_value(field).to_be_bytes());
    }
    splitmix64_finalize(hash)
}

/// Where a routed operation goes: one owner shard, or everywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// The key resolved to an owner (and its replica set).
    Owner(u8),
    /// No usable key: scatter to every shard and gather.
    Scatter,
}

/// The hash-ring partition map: `vnodes` virtual nodes per shard, keys
/// assigned to the first vnode clockwise from their hash, replicas on
/// the next `R - 1` shards in index order.
#[derive(Debug, Clone)]
pub struct PartitionMap {
    shards: u8,
    replicas: u8,
    key_field: usize,
    keyless: KeylessPolicy,
    /// Sorted `(vnode hash, shard)` ring.
    ring: Vec<(u64, u8)>,
}

impl PartitionMap {
    /// Builds the ring for a configuration (validating it first).
    pub fn new(cfg: &ShardConfig) -> Result<Self, ShardConfigError> {
        cfg.validate()?;
        let mut ring = Vec::with_capacity(usize::from(cfg.shards) * usize::from(cfg.vnodes));
        for shard in 0..cfg.shards {
            for vnode in 0..cfg.vnodes {
                let mut hash = FNV_OFFSET;
                fnv1a(&mut hash, b"vnode");
                fnv1a(&mut hash, &[shard]);
                fnv1a(&mut hash, &vnode.to_be_bytes());
                ring.push((splitmix64_finalize(hash), shard));
            }
        }
        // Ties (hash collisions) break on the shard index so the ring
        // order never depends on insertion order.
        ring.sort_unstable();
        Ok(PartitionMap {
            shards: cfg.shards,
            replicas: cfg.replication.replicas,
            key_field: cfg.key_field,
            keyless: cfg.keyless,
            ring,
        })
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> u8 {
        self.shards
    }

    /// Replicas per key (owner included).
    #[must_use]
    pub fn replicas(&self) -> u8 {
        self.replicas
    }

    /// The tuple field index carrying the shard key.
    #[must_use]
    pub fn key_field(&self) -> usize {
        self.key_field
    }

    fn owner_of_hash(&self, hash: u64) -> u8 {
        // First vnode clockwise from the key's hash; wrap to the start.
        let idx = self.ring.partition_point(|&(h, _)| h < hash);
        let (_, shard) = self.ring[idx % self.ring.len()];
        shard
    }

    /// The owner shard of one key value.
    #[must_use]
    pub fn owner_of_value(&self, key: &Value) -> u8 {
        self.owner_of_hash(hash_value(key))
    }

    /// The owner shard of a tuple: its key field if present, the keyless
    /// policy otherwise.
    #[must_use]
    pub fn owner_of_tuple(&self, tuple: &Tuple) -> u8 {
        match tuple.field(self.key_field) {
            Some(key) => self.owner_of_value(key),
            None => match self.keyless {
                KeylessPolicy::HashWholeTuple => self.owner_of_hash(hash_tuple(tuple)),
                KeylessPolicy::Fixed(shard) => shard,
            },
        }
    }

    /// The exact key value a template pins, if its key-field pattern is
    /// [`Pattern::Exact`].
    #[must_use]
    pub fn template_key<'a>(&self, template: &'a Template) -> Option<&'a Value> {
        match template.patterns().get(self.key_field) {
            Some(Pattern::Exact(value)) => Some(value),
            _ => None,
        }
    }

    /// Where a template-addressed operation routes: to the key's owner
    /// when the template pins the key field exactly, otherwise per the
    /// keyless policy (a fixed shard, or scatter-gather).
    #[must_use]
    pub fn route_of_template(&self, template: &Template) -> Route {
        match self.template_key(template) {
            Some(key) => Route::Owner(self.owner_of_value(key)),
            None => match self.keyless {
                KeylessPolicy::HashWholeTuple => Route::Scatter,
                KeylessPolicy::Fixed(shard) => Route::Owner(shard),
            },
        }
    }

    /// The replica set of an owner shard: the owner first, then the next
    /// `R - 1` shards in index order (all distinct since R ≤ N).
    #[must_use]
    pub fn replica_set(&self, owner: u8) -> Vec<u8> {
        (0..self.replicas)
            .map(|i| (u16::from(owner) + u16::from(i)) % u16::from(self.shards))
            .map(|s| s as u8)
            .collect()
    }

    /// The replica set of a tuple's key.
    #[must_use]
    pub fn replicas_of_tuple(&self, tuple: &Tuple) -> Vec<u8> {
        self.replica_set(self.owner_of_tuple(tuple))
    }

    /// Folds the owner assignment of the integer keys `0..sample` into
    /// one stable digest — the golden guard that placement (and with it
    /// every cached campaign point keyed on the config) has not silently
    /// changed.
    #[must_use]
    pub fn assignment_hash(&self, sample: u64) -> u64 {
        let mut hash = FNV_OFFSET;
        for key in 0..sample {
            let owner = self.owner_of_value(&Value::Int(key as i64));
            fnv1a(&mut hash, &[owner]);
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReplicationConfig;

    fn map(shards: u8, replicas: u8) -> PartitionMap {
        PartitionMap::new(
            &ShardConfig::new(shards, ReplicationConfig::mirrored(replicas)).expect("valid"),
        )
        .expect("valid")
    }

    #[test]
    fn owners_are_in_range_and_deterministic() {
        let a = map(5, 2);
        let b = map(5, 2);
        for key in 0..1_000i64 {
            let owner = a.owner_of_value(&Value::Int(key));
            assert!(owner < 5);
            assert_eq!(owner, b.owner_of_value(&Value::Int(key)));
        }
    }

    #[test]
    fn replica_sets_are_distinct_and_owner_first() {
        let m = map(4, 3);
        for owner in 0..4 {
            let set = m.replica_set(owner);
            assert_eq!(set.len(), 3);
            assert_eq!(set[0], owner);
            let mut sorted = set.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas must be distinct shards");
        }
    }

    #[test]
    fn keyed_templates_route_to_the_owner() {
        let m = map(4, 2);
        let tuple = Tuple::new(vec![Value::from("item"), Value::Int(7)]);
        let owner = m.owner_of_tuple(&tuple);
        let keyed = Template::new(vec![
            Pattern::Exact(Value::from("item")),
            Pattern::Exact(Value::Int(7)),
        ]);
        assert_eq!(m.route_of_template(&keyed), Route::Owner(owner));
        let keyless = Template::new(vec![
            Pattern::Exact(Value::from("item")),
            Pattern::AnyOfType(tsbus_tuplespace::ValueType::Int),
        ]);
        assert_eq!(m.route_of_template(&keyless), Route::Scatter);
    }

    #[test]
    fn fixed_keyless_policy_pins_everything() {
        let cfg = ShardConfig::new(4, ReplicationConfig::none())
            .expect("valid")
            .with_keyless(KeylessPolicy::Fixed(3));
        let m = PartitionMap::new(&cfg).expect("valid");
        let keyless_tuple = Tuple::new(vec![Value::from("solo")]);
        assert_eq!(m.owner_of_tuple(&keyless_tuple), 3);
        let keyless_template = Template::new(vec![Pattern::Wildcard]);
        assert_eq!(m.route_of_template(&keyless_template), Route::Owner(3));
    }

    #[test]
    fn single_shard_owns_everything() {
        let m = map(1, 1);
        for key in 0..100i64 {
            assert_eq!(m.owner_of_value(&Value::Int(key)), 0);
        }
    }

    #[test]
    fn value_hash_separates_types_and_contents() {
        assert_ne!(
            hash_value(&Value::Int(1)),
            hash_value(&Value::Str("1".into()))
        );
        assert_ne!(hash_value(&Value::Int(1)), hash_value(&Value::Int(2)));
        assert_ne!(
            hash_value(&Value::Bytes(vec![1])),
            hash_value(&Value::Bytes(vec![1, 0]))
        );
    }
}
