//! Property tests on tuplespace invariants: conservation (every written
//! tuple is taken at most once and never duplicated), ordering, lease
//! monotonicity — checked over arbitrary operation sequences.

use proptest::prelude::*;
use tsbus_des::{SimDuration, SimTime};
use tsbus_tuplespace::{template, tuple, Lease, Pattern, Space, Template, Tuple, Value, ValueType};

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

/// Two NaNs with different bit patterns: value equality (and so index
/// lookup) is by bits, so each matches only itself.
const NAN_A: u64 = 0x7ff8_0000_0000_0000;
const NAN_B: u64 = 0x7ff8_0000_0000_0001;

/// Floats written at position 3: signed zeros and two NaN payloads.
fn written_float(pick: u8) -> f64 {
    match pick % 5 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(NAN_A),
        3 => f64::from_bits(NAN_B),
        _ => 1.5,
    }
}

/// The equivalence workload's tuples: `(tag, key, class, reading)`
/// truncated to arity 2–4, with tag in {"k", "j"}, key 0..5, class 0..3.
fn entry_tuple(arity: u8, tag: bool, key: u8, class: u8, reading: u8) -> Tuple {
    let fields = [
        Value::from(if tag { "k" } else { "j" }),
        Value::Int(i64::from(key % 5)),
        Value::Int(i64::from(class % 3)),
        Value::Float(written_float(reading)),
    ];
    Tuple::new(fields[..usize::from(2 + arity % 3)].to_vec())
}

/// The exact values a probe may fix at `pos`: every value the workload
/// writes there plus ones no entry carries (tag "z", key 99, class 7,
/// reading 2.5, an int where a float lives, anything past position 3).
fn probe_value(pos: usize, pick: u8) -> Value {
    match pos {
        0 => Value::from(["k", "j", "z"][usize::from(pick % 3)]),
        1 => Value::Int([0, 1, 2, 3, 4, 99][usize::from(pick % 6)]),
        2 => Value::Int([0, 1, 2, 7][usize::from(pick % 4)]),
        3 if pick % 7 == 5 => Value::Float(2.5),
        3 if pick % 7 == 6 => Value::Int(0),
        3 => Value::Float(written_float(pick % 7)),
        _ => Value::Int(i64::from(pick)),
    }
}

/// One probe position: exact (from [`probe_value`]), typed or wildcard.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Exact(u8),
    Typed(bool),
    Wild,
}

/// A probe template: arity 1–5 (so some probes have the wrong arity for
/// every entry), each position exact, typed or wildcard — so probes fix
/// non-key positions, several positions at once, or values nobody holds.
#[derive(Debug, Clone)]
struct Probe(Vec<Slot>);

impl Probe {
    fn template(&self) -> Template {
        Template::new(
            self.0
                .iter()
                .enumerate()
                .map(|(pos, slot)| match *slot {
                    Slot::Exact(pick) => Pattern::Exact(probe_value(pos, pick)),
                    // The type that lives at `pos`, or one that never does.
                    Slot::Typed(native) => Pattern::AnyOfType(match (pos, native) {
                        (0, true) => ValueType::Str,
                        (3, true) => ValueType::Float,
                        (_, true) => ValueType::Int,
                        (_, false) => ValueType::Bytes,
                    }),
                    Slot::Wild => Pattern::Wildcard,
                })
                .collect(),
        )
    }
}

/// One step of the equivalence workload.
#[derive(Debug, Clone)]
enum XOp {
    Write {
        tuple: Tuple,
        lease_secs: Option<u8>,
    },
    Read(Probe),
    ReadAll(Probe),
    Take(Probe),
    Count(Probe),
    Renew {
        probe: Probe,
        lease_secs: u8,
    },
    AdvanceAndExpire(u8),
    /// Switches the subject space's index off or on (the oracle stays a
    /// scan).
    SetIndexed(bool),
}

fn probe_strategy() -> impl Strategy<Value = Probe> {
    // The vendored proptest has no weighted prop_oneof; repeating the
    // exact arm biases probes toward fixed positions the index serves.
    let slot = prop_oneof![
        any::<u8>().prop_map(Slot::Exact),
        any::<u8>().prop_map(Slot::Exact),
        any::<bool>().prop_map(Slot::Typed),
        Just(Slot::Wild),
    ];
    proptest::collection::vec(slot, 1..6).prop_map(Probe)
}

fn xop_strategy() -> impl Strategy<Value = XOp> {
    let write = || {
        (
            (any::<u8>(), any::<bool>(), any::<u8>()),
            (any::<u8>(), any::<u8>()),
            proptest::option::of(1u8..20),
        )
            .prop_map(
                |((arity, tag, key), (class, reading), lease_secs)| XOp::Write {
                    tuple: entry_tuple(arity, tag, key, class, reading),
                    lease_secs,
                },
            )
    };
    // Repeating the write arm biases the mix toward a populated space.
    prop_oneof![
        write(),
        write(),
        write(),
        probe_strategy().prop_map(XOp::Read),
        probe_strategy().prop_map(XOp::ReadAll),
        probe_strategy().prop_map(XOp::Take),
        probe_strategy().prop_map(XOp::Take),
        probe_strategy().prop_map(XOp::Count),
        (probe_strategy(), 1u8..20)
            .prop_map(|(probe, lease_secs)| XOp::Renew { probe, lease_secs }),
        (1u8..8).prop_map(XOp::AdvanceAndExpire),
        any::<bool>().prop_map(XOp::SetIndexed),
    ]
}

/// A space under test plus its clock.
struct Subject {
    space: Space,
    now: SimTime,
}

/// Applies one op and renders every observable it produces (return
/// value, then any notifications drained) as a comparable string.
/// `SetIndexed` reaches only a space that started indexed, so the scan
/// oracle never changes mode.
fn apply_xop(subject: &mut Subject, op: &XOp, oracle: bool) -> String {
    let Subject { space, now } = subject;
    let mut out = match op {
        XOp::Write { tuple, lease_secs } => {
            let lease = match lease_secs {
                None => Lease::Forever,
                Some(s) => Lease::for_duration(*now, SimDuration::from_secs(u64::from(*s))),
            };
            format!("{:?}", space.write(tuple.clone(), lease, *now))
        }
        XOp::Read(probe) => format!("{:?}", space.read(&probe.template(), *now)),
        XOp::ReadAll(probe) => format!("{:?}", space.read_all(&probe.template(), *now)),
        XOp::Take(probe) => format!("{:?}", space.take(&probe.template(), *now)),
        XOp::Count(probe) => format!("{:?}", space.count(&probe.template(), *now)),
        XOp::Renew { probe, lease_secs } => {
            let lease = Lease::for_duration(*now, SimDuration::from_secs(u64::from(*lease_secs)));
            format!("{:?}", space.renew(&probe.template(), lease, *now))
        }
        XOp::AdvanceAndExpire(secs) => {
            *now += SimDuration::from_secs(u64::from(*secs));
            space.expire(*now);
            format!("expired@{:?}", *now)
        }
        XOp::SetIndexed(on) => {
            if !oracle {
                space.set_indexed(*on);
            }
            "toggled".to_owned()
        }
    };
    for notification in space.drain_notifications() {
        out.push_str(&format!(" | {notification:?}"));
    }
    out
}

proptest! {
    /// The per-field value index is invisible: an indexed space and a
    /// scan-only space agree on every observable of every op sequence —
    /// results, notification streams, audit trails, stats, deadlines —
    /// across mixed arities, float fields compared by bits, indexes first
    /// built mid-run and index toggling.
    #[test]
    fn indexed_space_is_equivalent_to_scan_space(
        ops in proptest::collection::vec(xop_strategy(), 0..60)
    ) {
        use tsbus_tuplespace::EventKind;
        let mut subject = Subject { space: Space::new(), now: SimTime::ZERO };
        let mut oracle = Subject { space: Space::unindexed(), now: SimTime::ZERO };
        for s in [&mut subject, &mut oracle] {
            s.space.enable_audit();
            for arity in 2..=4 {
                s.space.subscribe(
                    Template::any(arity),
                    [EventKind::Written, EventKind::Taken, EventKind::Expired],
                );
            }
        }
        for (step, op) in ops.iter().enumerate() {
            let a = apply_xop(&mut subject, op, false);
            let b = apply_xop(&mut oracle, op, true);
            prop_assert_eq!(a, b, "step {} ({:?}) diverged", step, op);
        }
        // A terminal sweep and a full-state comparison.
        let (indexed, scan) = (&mut subject.space, &mut oracle.space);
        let now = subject.now + SimDuration::from_secs(100);
        indexed.expire(now);
        scan.expire(now);
        prop_assert_eq!(indexed.len(now), scan.len(now));
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
