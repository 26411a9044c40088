//! Property tests on tuplespace invariants: conservation (every written
//! tuple is taken at most once and never duplicated), ordering, lease
//! monotonicity — checked over arbitrary operation sequences.

use proptest::prelude::*;
use tsbus_des::{SimDuration, SimTime};
use tsbus_tuplespace::{template, tuple, Lease, Space, Template, ValueType};

/// One step of a generated workload.
#[derive(Debug, Clone)]
enum Op {
    /// Write ("k", tag) with an optional lease (in seconds from now).
    Write {
        tag: i64,
        lease_secs: Option<u8>,
    },
    Take,
    Read,
    AdvanceSecs(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<i64>(), proptest::option::of(1u8..30))
            .prop_map(|(tag, lease_secs)| Op::Write { tag, lease_secs }),
        Just(Op::Take),
        Just(Op::Read),
        (1u8..10).prop_map(Op::AdvanceSecs),
    ]
}

proptest! {
    /// Conservation: takes + live + expired == writes, for any op sequence.
    #[test]
    fn writes_are_conserved(ops in proptest::collection::vec(op_strategy(), 0..80)) {
        let mut space = Space::new();
        let mut now = SimTime::ZERO;
        let tpl = template!["k", ValueType::Int];
        let mut writes = 0u64;
        let mut takes = 0u64;
        for op in ops {
            match op {
                Op::Write { tag, lease_secs } => {
                    let lease = match lease_secs {
                        None => Lease::Forever,
                        Some(s) => Lease::for_duration(now, SimDuration::from_secs(u64::from(s))),
                    };
                    space.write(tuple!["k", tag], lease, now);
                    writes += 1;
                }
                Op::Take => {
                    if space.take(&tpl, now).is_some() {
                        takes += 1;
                    }
                }
                Op::Read => {
                    let _ = space.read(&tpl, now);
                }
                Op::AdvanceSecs(s) => {
                    now += SimDuration::from_secs(u64::from(s));
                }
            }
        }
        // Force all pending expirations to be counted.
        space.expire(now);
        let live = space.len(now) as u64;
        let stats = space.stats();
        prop_assert_eq!(stats.writes, writes);
        prop_assert_eq!(stats.takes, takes);
        prop_assert_eq!(
            stats.takes + stats.expirations + live,
            writes,
            "every write is taken once, expired once, or still live"
        );
    }

    /// FIFO ordering: taking drains exact-match writes oldest-first.
    #[test]
    fn takes_drain_in_write_order(tags in proptest::collection::vec(any::<i64>(), 1..30)) {
        let mut space = Space::new();
        let now = SimTime::ZERO;
        for &tag in &tags {
            space.write(tuple!["k", tag], Lease::Forever, now);
        }
        let tpl = template!["k", ValueType::Int];
        let drained: Vec<i64> = std::iter::from_fn(|| {
            space
                .take(&tpl, now)
                .and_then(|t| t.field(1).and_then(|v| v.as_int()))
        })
        .collect();
        prop_assert_eq!(drained, tags);
    }

    /// Lease monotonicity: an entry visible at t is visible at every
    /// earlier probe after its write, and once gone it stays gone.
    #[test]
    fn visibility_is_monotone(lease_secs in 1u64..50, probes in proptest::collection::vec(0u64..100, 1..20)) {
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        let mut space = Space::new();
        space.write(
            tuple!["v"],
            Lease::for_duration(SimTime::ZERO, SimDuration::from_secs(lease_secs)),
            SimTime::ZERO,
        );
        let mut last_seen = true;
        for t in sorted {
            let visible = space.read(&template!["v"], SimTime::from_secs(t)).is_some();
            prop_assert_eq!(visible, t < lease_secs, "at t={}", t);
            prop_assert!(!visible || last_seen, "no resurrection");
            last_seen = visible;
        }
    }
}

/// `Template::any` composes with leases at scale: a churning space keeps
/// its count consistent with a parallel model.
#[test]
fn count_matches_model_under_churn() {
    let mut space = Space::new();
    let mut model: Vec<(i64, Option<u64>)> = Vec::new(); // (tag, deadline)
    let mut now = 0u64;
    for i in 0..500i64 {
        now += 1;
        let deadline = (i % 3 == 0).then_some(now + 10);
        let lease = match deadline {
            None => Lease::Forever,
            Some(d) => Lease::Until(SimTime::from_secs(d)),
        };
        space.write(tuple!["c", i], lease, SimTime::from_secs(now));
        model.push((i, deadline));
        if i % 5 == 0 {
            let _ = space.take(&template!["c", ValueType::Int], SimTime::from_secs(now));
            // Model: remove the oldest live entry.
            let live_idx = model.iter().position(|&(_, d)| d.is_none_or(|d| now < d));
            if let Some(idx) = live_idx {
                model.remove(idx);
            }
        }
        let expected = model
            .iter()
            .filter(|&&(_, d)| d.is_none_or(|d| now < d))
            .count();
        assert_eq!(
            space.count(&Template::any(2), SimTime::from_secs(now)),
            expected,
            "at step {i}"
        );
    }
}

// ---------------------------------------------------------------------
// Indexed vs scan equivalence
// ---------------------------------------------------------------------

/// A template shape for the equivalence workload: exact-key templates
/// ride the key-field index, the rest fall back to the scan path.
#[derive(Debug, Clone, Copy)]
enum Probe {
    /// `("k", key)` — bucket lookup when indexed.
    ExactKey(u8),
    /// `("k", any int)` — wildcard at the key field, always a scan.
    TypedKey,
    /// `(*, *)` — full wildcard.
    Wild,
    /// `(*)` — arity-1, never matches the arity-2 writes.
    WrongArity,
}

impl Probe {
    fn template(self) -> Template {
        use tsbus_tuplespace::Pattern;
        match self {
            Probe::ExactKey(key) => template!["k", i64::from(key)],
            Probe::TypedKey => template!["k", ValueType::Int],
            Probe::Wild => Template::new(vec![Pattern::Wildcard, Pattern::Wildcard]),
            Probe::WrongArity => Template::any(1),
        }
    }
}

/// One step of the equivalence workload.
#[derive(Debug, Clone, Copy)]
enum XOp {
    Write { key: u8, lease_secs: Option<u8> },
    Read(Probe),
    ReadAll(Probe),
    Take(Probe),
    Count(Probe),
    Renew { key: u8, lease_secs: u8 },
    AdvanceAndExpire(u8),
}

fn probe_strategy() -> impl Strategy<Value = Probe> {
    prop_oneof![
        (0u8..6).prop_map(Probe::ExactKey),
        Just(Probe::TypedKey),
        Just(Probe::Wild),
        Just(Probe::WrongArity),
    ]
}

fn xop_strategy() -> impl Strategy<Value = XOp> {
    // The vendored proptest has no weighted prop_oneof; repeating the
    // write arm biases the mix toward a populated space.
    prop_oneof![
        (0u8..6, proptest::option::of(1u8..20))
            .prop_map(|(key, lease_secs)| XOp::Write { key, lease_secs }),
        (0u8..6, proptest::option::of(1u8..20))
            .prop_map(|(key, lease_secs)| XOp::Write { key, lease_secs }),
        (0u8..6, proptest::option::of(1u8..20))
            .prop_map(|(key, lease_secs)| XOp::Write { key, lease_secs }),
        probe_strategy().prop_map(XOp::Read),
        probe_strategy().prop_map(XOp::ReadAll),
        probe_strategy().prop_map(XOp::Take),
        probe_strategy().prop_map(XOp::Take),
        probe_strategy().prop_map(XOp::Count),
        (0u8..6, 1u8..20).prop_map(|(key, lease_secs)| XOp::Renew { key, lease_secs }),
        (1u8..8).prop_map(XOp::AdvanceAndExpire),
    ]
}

/// Applies one op and renders every observable it produces (return
/// value, then any notifications drained) as a comparable string.
fn apply_xop(space: &mut Space, op: XOp, now: &mut SimTime) -> String {
    let mut out = match op {
        XOp::Write { key, lease_secs } => {
            let lease = match lease_secs {
                None => Lease::Forever,
                Some(s) => Lease::for_duration(*now, SimDuration::from_secs(u64::from(s))),
            };
            format!(
                "{:?}",
                space.write(tuple!["k", i64::from(key)], lease, *now)
            )
        }
        XOp::Read(probe) => format!("{:?}", space.read(&probe.template(), *now)),
        XOp::ReadAll(probe) => format!("{:?}", space.read_all(&probe.template(), *now)),
        XOp::Take(probe) => format!("{:?}", space.take(&probe.template(), *now)),
        XOp::Count(probe) => format!("{:?}", space.count(&probe.template(), *now)),
        XOp::Renew { key, lease_secs } => {
            let lease = Lease::for_duration(*now, SimDuration::from_secs(u64::from(lease_secs)));
            format!(
                "{:?}",
                space.renew(&Probe::ExactKey(key).template(), lease, *now)
            )
        }
        XOp::AdvanceAndExpire(secs) => {
            *now += SimDuration::from_secs(u64::from(secs));
            space.expire(*now);
            format!("expired@{:?}", *now)
        }
    };
    for notification in space.drain_notifications() {
        out.push_str(&format!(" | {notification:?}"));
    }
    out
}

proptest! {
    /// The key-field index is invisible: an indexed space and a scan-only
    /// space agree on every observable of every op sequence — results,
    /// notification streams, audit trails, stats, deadlines.
    #[test]
    fn indexed_space_is_equivalent_to_scan_space(
        ops in proptest::collection::vec(xop_strategy(), 0..60)
    ) {
        use tsbus_tuplespace::EventKind;
        let mut indexed = Space::new();
        let mut scan = Space::unindexed();
        for space in [&mut indexed, &mut scan] {
            space.enable_audit();
            space.subscribe(
                Template::new(vec![
                    tsbus_tuplespace::Pattern::Wildcard,
                    tsbus_tuplespace::Pattern::Wildcard,
                ]),
                [EventKind::Written, EventKind::Taken, EventKind::Expired],
            );
        }
        let mut now_i = SimTime::ZERO;
        let mut now_s = SimTime::ZERO;
        for (step, op) in ops.iter().enumerate() {
            let a = apply_xop(&mut indexed, *op, &mut now_i);
            let b = apply_xop(&mut scan, *op, &mut now_s);
            prop_assert_eq!(a, b, "step {} ({:?}) diverged", step, op);
        }
        // Terminal sweep + full-state comparison.
        now_i += SimDuration::from_secs(100);
        now_s += SimDuration::from_secs(100);
        indexed.expire(now_i);
        scan.expire(now_s);
        prop_assert_eq!(indexed.len(now_i), scan.len(now_s));
        prop_assert_eq!(indexed.next_deadline(), scan.next_deadline());
        prop_assert_eq!(format!("{:?}", indexed.stats()), format!("{:?}", scan.stats()));
        let audit_i: Vec<String> = indexed.audit().map(|r| format!("{r:?}")).collect();
        let audit_s: Vec<String> = scan.audit().map(|r| format!("{r:?}")).collect();
        prop_assert_eq!(audit_i, audit_s, "audit trails diverged");
        let notif_i: Vec<String> =
            indexed.drain_notifications().iter().map(|n| format!("{n:?}")).collect();
        let notif_s: Vec<String> =
            scan.drain_notifications().iter().map(|n| format!("{n:?}")).collect();
        prop_assert_eq!(notif_i, notif_s, "notification tails diverged");
    }
}
