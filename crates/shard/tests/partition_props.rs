//! Property tests on the partition map: placement determinism, replica
//! well-formedness, ring balance over a fixed key population, and the
//! assignment golden that guards cached campaign results against silent
//! placement drift.

use proptest::prelude::*;
use tsbus_shard::{
    hash_tuple, hash_value, PartitionMap, ReplicationConfig, ShardConfig, MAX_SHARDS,
};
use tsbus_tuplespace::{Tuple, Value};

fn value_strategy() -> BoxedStrategy<Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        "[a-z]{0,12}".prop_map(Value::from),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(Value::Bytes),
        // Finite floats only: NaN hashes fine (bit pattern) but breaks
        // the equality checks the properties themselves make.
        (-1_000_000_000i64..1_000_000_000).prop_map(|i| Value::Float(i as f64 / 16.0)),
    ]
}

fn config_strategy() -> BoxedStrategy<ShardConfig> {
    (1..=MAX_SHARDS, 1u8..=4).prop_map(|(shards, replicas)| {
        // Fold the raw draw into the validated envelope instead of
        // filtering: R <= N.
        ShardConfig::new(shards, ReplicationConfig::mirrored(replicas.min(shards)))
            .expect("shards and replicas stay in range")
    })
}

proptest! {
    /// Two independently built maps of the same config agree on every
    /// owner — placement is a pure function of the configuration.
    #[test]
    fn placement_is_deterministic(cfg in config_strategy(), keys in proptest::collection::vec(value_strategy(), 1..64)) {
        let a = PartitionMap::new(&cfg).expect("valid");
        let b = PartitionMap::new(&cfg).expect("valid");
        for key in &keys {
            prop_assert_eq!(a.owner_of_value(key), b.owner_of_value(key));
        }
    }

    /// Every owner is a real shard and every replica set starts at the
    /// owner, has exactly R members, and never repeats a shard.
    #[test]
    fn replica_sets_are_well_formed(cfg in config_strategy(), key in value_strategy()) {
        let map = PartitionMap::new(&cfg).expect("valid");
        let owner = map.owner_of_value(&key);
        prop_assert!(owner < cfg.shards);
        let set = map.replica_set(owner);
        prop_assert_eq!(set.len(), usize::from(cfg.replication.replicas));
        prop_assert_eq!(set[0], owner);
        let mut sorted = set.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), set.len(), "replica shards must be distinct");
        prop_assert!(set.iter().all(|s| *s < cfg.shards));
    }

    /// Value hashing is injective in practice over generated pairs: a
    /// collision would silently co-locate distinct keys forever.
    #[test]
    fn distinct_values_hash_apart(a in value_strategy(), b in value_strategy()) {
        prop_assume!(a != b);
        prop_assert_ne!(hash_value(&a), hash_value(&b));
    }

    /// Whole-tuple hashing distinguishes arity (the keyless fallback
    /// must not alias `(x)` with `(x, x)`).
    #[test]
    fn tuple_hash_separates_arity(v in value_strategy()) {
        let one = Tuple::new(vec![v.clone()]);
        let two = Tuple::new(vec![v.clone(), v]);
        prop_assert_ne!(hash_tuple(&one), hash_tuple(&two));
    }
}

/// Ring balance over a fixed population: with the default 128 vnodes,
/// every shard owns a sane share of 8192 sequential integer keys. The
/// bounds are deliberately loose (hash-ring imbalance is real); what
/// they catch is collapse — the failure mode where weak diffusion lands
/// every key on one shard and "sharding" silently stops sharding.
#[test]
fn integer_keys_balance_across_shards() {
    const KEYS: i64 = 8192;
    for shards in [2u8, 3, 4, 8] {
        let cfg = ShardConfig::new(shards, ReplicationConfig::mirrored(1)).expect("valid");
        let map = PartitionMap::new(&cfg).expect("valid");
        let mut counts = vec![0u64; usize::from(shards)];
        for key in 0..KEYS {
            counts[usize::from(map.owner_of_value(&Value::Int(key)))] += 1;
        }
        let mean = KEYS as f64 / f64::from(shards);
        for (shard, count) in counts.iter().enumerate() {
            let share = *count as f64 / mean;
            assert!(
                (0.5..=1.5).contains(&share),
                "shard {shard} of {shards} owns {count} of {KEYS} keys \
                 ({share:.2}x the fair share); distribution: {counts:?}"
            );
        }
    }
}

/// The placement golden: the folded owner assignment of keys 0..1024
/// under the default 4-shard config. A change here means every cached
/// campaign point keyed on this configuration silently describes a
/// different cluster — bump the golden only alongside a deliberate
/// partition-scheme change (and flush campaign caches).
#[test]
fn assignment_hash_golden() {
    let cfg = ShardConfig::new(4, ReplicationConfig::mirrored(2)).expect("valid");
    let map = PartitionMap::new(&cfg).expect("valid");
    assert_eq!(
        map.assignment_hash(1024),
        0x731A_D5C1_E223_FB4F,
        "partition placement changed: this invalidates cached campaign results"
    );
}
