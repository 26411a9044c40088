//! Dispatch order against an independent oracle.
//!
//! Two families of generated programs run on the kernel with the event-box
//! pool on and off. Every recorder's delivery log must equal the log an
//! oracle derives without the kernel, and the two pooling settings must
//! agree on logs, on every `EventId` that scheduling returned and on event
//! counts.
//!
//! - Flat programs: schedule, cancel and re-arm once, run to completion.
//!   The oracle computes the logs in closed form.
//! - Fan-out programs: each delivery schedules 0, 1 or 3 events (same
//!   instant, near future, far future), may cancel a pending event from
//!   inside its handler, and the run advances in `run_until` slices at
//!   random bounds. The oracle replays the program on a plain list, taking
//!   the earliest `(time, schedule order)` entry by linear scan.
//! - Mixed fan-out programs: the fan-out programs again, but a child a
//!   recorder schedules for itself may be a tag event
//!   (`Context::schedule_tag_in`) instead of a boxed message. Tags and
//!   boxes share one `(time, schedule order)` sequence, so the same oracle
//!   applies, and each delivery must also arrive in the form it was sent.

use proptest::prelude::*;
use tsbus_des::{
    splitmix64_finalize, Component, ComponentId, Context, EventId, Message, MessageExt, SelfTag,
    SimDuration, SimTime, Simulator,
};

const RECORDERS: usize = 3;
/// Delay of the follow-up event a re-arming delivery schedules.
const REARM_NS: u64 = 17;
/// Tag offset distinguishing a follow-up from the initial event it re-arms.
const FOLLOW_UP_TAG: u64 = 1_000_000;

/// One scheduling instruction of a generated program.
#[derive(Debug, Clone, Copy)]
struct Instr {
    /// Delay from t=0, in nanoseconds (small range forces time ties, the
    /// case where FIFO tie-breaking order matters).
    delay_ns: u64,
    /// Which recorder receives the event.
    target: u8,
    /// Cancel the event right after scheduling it.
    cancel: bool,
    /// Re-arm a follow-up event on delivery (exercises scheduling from
    /// inside handlers).
    rearm: bool,
}

#[derive(Debug)]
struct Evt {
    tag: u64,
    rearm: bool,
}

/// Records every delivery; re-arms once when asked to.
#[derive(Debug, Default)]
struct Recorder {
    log: Vec<(SimTime, u64)>,
    /// Ids of the follow-ups this recorder scheduled.
    scheduled: Vec<EventId>,
}

impl Component for Recorder {
    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        let evt = msg.downcast::<Evt>().expect("recorders receive Evt only");
        self.log.push((ctx.now(), evt.tag));
        if evt.rearm {
            let follow_up = Evt {
                tag: evt.tag + FOLLOW_UP_TAG,
                rearm: false,
            };
            let id = ctx.schedule_self_in(SimDuration::from_nanos(REARM_NS), follow_up);
            self.scheduled.push(id);
        }
        ctx.recycle_box(evt);
    }
}

/// Everything a run exposes: per-recorder delivery logs, the ids every
/// schedule call returned (initial events, then each recorder's
/// follow-ups), and the dispatched-event count.
type Observed = (Vec<Vec<(SimTime, u64)>>, Vec<EventId>, u64);

/// Replays `program` on a fresh simulator, returning every observable.
fn run_program(program: &[Instr], pooling: bool) -> Observed {
    let mut sim = Simulator::with_seed(42);
    sim.set_pooling(pooling);
    let ids: Vec<_> = (0..RECORDERS)
        .map(|r| sim.add_component(format!("rec{r}"), Recorder::default()))
        .collect();
    let mut scheduled: Vec<EventId> = sim.with_context(|ctx| {
        program
            .iter()
            .enumerate()
            .map(|(tag, instr)| {
                let target = ids[usize::from(instr.target) % RECORDERS];
                let evt = Evt {
                    tag: tag as u64,
                    rearm: instr.rearm,
                };
                let id = ctx.schedule_in(SimDuration::from_nanos(instr.delay_ns), target, evt);
                if instr.cancel {
                    ctx.cancel(id);
                }
                id
            })
            .collect()
    });
    sim.run_until(SimTime::from_secs(1));
    let logs = ids
        .iter()
        .map(|&id| {
            let rec: &Recorder = sim.component(id).expect("registered");
            scheduled.extend_from_slice(&rec.scheduled);
            rec.log.clone()
        })
        .collect();
    (logs, scheduled, sim.events_processed())
}

/// The expected per-recorder logs and event count, derived from the
/// program alone.
///
/// Every event is keyed by `(time, schedule order)`. The program's events
/// take schedule orders `0..n` (cancelled ones included); a surviving
/// event fires at its delay. Follow-ups are scheduled from handlers, after
/// every initial event, in the order their parents fire, so they take
/// orders `n, n + 1, …` and fire `REARM_NS` after their parent.
fn oracle(program: &[Instr]) -> (Vec<Vec<(SimTime, u64)>>, u64) {
    // (time, schedule order, recorder, tag)
    let mut initial: Vec<(u64, u64, usize, u64)> = program
        .iter()
        .enumerate()
        .filter(|(_, instr)| !instr.cancel)
        .map(|(i, instr)| {
            let order = i as u64;
            (
                instr.delay_ns,
                order,
                usize::from(instr.target) % RECORDERS,
                order,
            )
        })
        .collect();
    initial.sort_unstable();
    let next_order = program.len() as u64;
    let follow_ups = initial
        .iter()
        .filter(|&&(_, order, _, _)| program[order as usize].rearm)
        .zip(next_order..)
        .map(|(&(time, _, recorder, tag), order)| {
            (time + REARM_NS, order, recorder, tag + FOLLOW_UP_TAG)
        });
    let mut all: Vec<_> = initial.iter().copied().chain(follow_ups).collect();
    all.sort_unstable();
    let mut logs = vec![Vec::new(); RECORDERS];
    for &(time, _, recorder, tag) in &all {
        logs[recorder].push((SimTime::from_nanos(time), tag));
    }
    (logs, all.len() as u64)
}

fn instr_strategy() -> impl Strategy<Value = Instr> {
    (0u64..200, 0u8..3, any::<bool>(), any::<bool>()).prop_map(
        |(delay_ns, target, cancel, rearm)| Instr {
            delay_ns,
            target,
            cancel,
            rearm,
        },
    )
}

proptest! {
    /// Dispatch order and times match the oracle, and pooling is
    /// invisible to logs, returned event ids and event counts.
    #[test]
    fn dispatch_matches_oracle_with_and_without_pooling(
        program in proptest::collection::vec(instr_strategy(), 0..120)
    ) {
        let (expected_logs, expected_events) = oracle(&program);
        let pooled = run_program(&program, true);
        prop_assert_eq!(&pooled.0, &expected_logs, "delivery logs differ from the oracle");
        prop_assert_eq!(pooled.2, expected_events, "event count differs from the oracle");
        let unpooled = run_program(&program, false);
        prop_assert_eq!(&pooled.0, &unpooled.0, "delivery logs diverged with pooling off");
        prop_assert_eq!(&pooled.1, &unpooled.1, "event ids diverged with pooling off");
        prop_assert_eq!(pooled.2, unpooled.2, "event counts diverged with pooling off");
    }
}

/// Deterministic spot check: a dense burst of same-time events keeps FIFO
/// order (the tie-break the property above relies on).
#[test]
fn same_time_events_dispatch_in_schedule_order() {
    let program: Vec<Instr> = (0..64)
        .map(|i| Instr {
            delay_ns: 5,
            target: (i % 3) as u8,
            cancel: false,
            rearm: i % 5 == 0,
        })
        .collect();
    let (logs, _, events) = run_program(&program, true);
    assert_eq!((logs.clone(), events), oracle(&program));
    for log in &logs {
        let tags: Vec<u64> = log.iter().map(|&(_, tag)| tag).collect();
        let mut sorted = tags.clone();
        sorted.sort_unstable();
        assert_eq!(tags, sorted, "same-time events must keep schedule order");
    }
}

/// Depth below which a delivery may fan out; deeper events are leaves.
const MAX_DEPTH: u32 = 3;
/// The drain bound after the generated slices: past every event a program
/// can schedule.
const DRAIN_NS: u64 = 1_000_000;

/// What a fan-out delivery schedules: same instant, a few nanoseconds on,
/// or beyond most of the pending set.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Horizon {
    Now,
    Near,
    Far,
}

/// One event a handler schedules.
#[derive(Debug, Clone, Copy)]
struct Child {
    delay_ns: u64,
    target: usize,
    horizon: Horizon,
}

/// What the delivery of `tag` does, derived from the program's `salt`
/// alone, so the kernel's handlers and the oracle read the same plan.
#[derive(Debug)]
struct Plan {
    /// Cancel the far-future event this recorder scheduled last, if any.
    cancel_last_far: bool,
    children: Vec<Child>,
}

impl Plan {
    fn of(salt: u64, tag: u64, depth: u32) -> Plan {
        let mut h = splitmix64_finalize(salt ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let horizons: &[Horizon] = if depth >= MAX_DEPTH {
            &[]
        } else {
            match h % 4 {
                0 => &[],
                1 => &[Horizon::Near],
                2 => &[Horizon::Far],
                _ => &[Horizon::Now, Horizon::Near, Horizon::Far],
            }
        };
        let cancel_last_far = (h >> 8).is_multiple_of(4);
        let children = horizons
            .iter()
            .map(|&horizon| {
                h = splitmix64_finalize(h);
                let delay_ns = match horizon {
                    Horizon::Now => 0,
                    Horizon::Near => 1 + (h >> 16) % 20,
                    Horizon::Far => 500 + (h >> 16) % 1_500,
                };
                Child {
                    delay_ns,
                    target: (h >> 40) as usize % RECORDERS,
                    horizon,
                }
            })
            .collect();
        Plan {
            cancel_last_far,
            children,
        }
    }
}

/// The tag of the `k`-th child of `tag` (unique within a program).
fn child_tag(tag: u64, k: usize) -> u64 {
    tag * 4 + k as u64 + 1
}

#[derive(Debug)]
struct PlannedEvt {
    tag: u64,
    depth: u32,
}

/// Records every delivery and carries out its plan.
#[derive(Debug)]
struct Planner {
    salt: u64,
    log: Vec<(SimTime, u64)>,
    /// The far-future event this recorder scheduled last.
    last_far: Option<EventId>,
    /// Ids of every child this recorder scheduled.
    scheduled: Vec<EventId>,
}

impl Component for Planner {
    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        let evt = msg
            .downcast::<PlannedEvt>()
            .expect("planners receive PlannedEvt only");
        self.log.push((ctx.now(), evt.tag));
        let plan = Plan::of(self.salt, evt.tag, evt.depth);
        if plan.cancel_last_far {
            if let Some(id) = self.last_far.take() {
                ctx.cancel(id);
            }
        }
        for (k, child) in plan.children.iter().enumerate() {
            let next = PlannedEvt {
                tag: child_tag(evt.tag, k),
                depth: evt.depth + 1,
            };
            let target = ComponentId::from_raw(child.target);
            let id = ctx.schedule_in(SimDuration::from_nanos(child.delay_ns), target, next);
            self.scheduled.push(id);
            if child.horizon == Horizon::Far {
                self.last_far = Some(id);
            }
        }
        ctx.recycle_box(evt);
    }
}

/// A generated fan-out program: initial `(delay, target, cancel)` events,
/// the plan salt, and the `run_until` bounds (sorted on use).
#[derive(Debug, Clone)]
struct FanOut {
    initial: Vec<(u64, u8, bool)>,
    salt: u64,
    bounds: Vec<u64>,
}

impl FanOut {
    /// The slice bounds in run order, ending with the drain bound.
    fn slices(&self) -> Vec<u64> {
        let mut bounds = self.bounds.clone();
        bounds.sort_unstable();
        bounds.push(DRAIN_NS);
        bounds
    }
}

/// Per-recorder `(slice, time, tag)` delivery logs.
type SlicedLogs = Vec<Vec<(usize, SimTime, u64)>>;

/// A fan-out run's delivery logs, the ids every schedule call returned
/// (initial events, then each recorder's children) and the
/// dispatched-event count.
type FanOutObserved = (SlicedLogs, Vec<EventId>, u64);

/// Runs `program` slice by slice, checking each slice's bound as it goes.
fn run_fan_out(program: &FanOut, pooling: bool) -> Result<FanOutObserved, String> {
    let mut sim = Simulator::with_seed(42);
    sim.set_pooling(pooling);
    let ids: Vec<_> = (0..RECORDERS)
        .map(|r| {
            let planner = Planner {
                salt: program.salt,
                log: Vec::new(),
                last_far: None,
                scheduled: Vec::new(),
            };
            sim.add_component(format!("planner{r}"), planner)
        })
        .collect();
    let mut scheduled: Vec<EventId> = sim.with_context(|ctx| {
        program
            .initial
            .iter()
            .enumerate()
            .map(|(tag, &(delay_ns, target, cancel))| {
                let evt = PlannedEvt {
                    tag: tag as u64,
                    depth: 0,
                };
                let target = ids[usize::from(target) % RECORDERS];
                let id = ctx.schedule_in(SimDuration::from_nanos(delay_ns), target, evt);
                if cancel {
                    ctx.cancel(id);
                }
                id
            })
            .collect()
    });
    let mut logs: SlicedLogs = vec![Vec::new(); RECORDERS];
    for (slice, bound) in program.slices().into_iter().enumerate() {
        let bound = SimTime::from_nanos(bound);
        sim.run_until(bound);
        if sim.now() != bound {
            return Err(format!("slice {slice}: now {} != bound {bound}", sim.now()));
        }
        for (r, &id) in ids.iter().enumerate() {
            let planner: &Planner = sim.component(id).expect("registered");
            for &(time, tag) in &planner.log[logs[r].len()..] {
                if time > bound {
                    return Err(format!(
                        "slice {slice}: tag {tag} fired at {time} > {bound}"
                    ));
                }
                logs[r].push((slice, time, tag));
            }
        }
    }
    for &id in &ids {
        let planner: &Planner = sim.component(id).expect("registered");
        scheduled.extend_from_slice(&planner.scheduled);
    }
    Ok((logs, scheduled, sim.events_processed()))
}

/// The fan-out oracle: the same program on a plain list of pending
/// entries, each slice taking the earliest `(time, schedule order)` entry
/// no later than its bound until none is left.
fn fan_out_oracle(program: &FanOut) -> (SlicedLogs, u64) {
    struct Pending {
        time: u64,
        order: u64,
        recorder: usize,
        tag: u64,
        depth: u32,
    }
    let mut pending: Vec<Pending> = Vec::new();
    for (tag, &(delay_ns, target, cancel)) in program.initial.iter().enumerate() {
        if !cancel {
            pending.push(Pending {
                time: delay_ns,
                order: tag as u64,
                recorder: usize::from(target) % RECORDERS,
                tag: tag as u64,
                depth: 0,
            });
        }
    }
    let mut next_order = program.initial.len() as u64;
    let mut last_far: Vec<Option<u64>> = vec![None; RECORDERS];
    let mut logs: SlicedLogs = vec![Vec::new(); RECORDERS];
    let mut delivered = 0;
    for (slice, bound) in program.slices().into_iter().enumerate() {
        while let Some(at) = (0..pending.len())
            .filter(|&i| pending[i].time <= bound)
            .min_by_key(|&i| (pending[i].time, pending[i].order))
        {
            let event = pending.swap_remove(at);
            delivered += 1;
            let r = event.recorder;
            logs[r].push((slice, SimTime::from_nanos(event.time), event.tag));
            let plan = Plan::of(program.salt, event.tag, event.depth);
            if plan.cancel_last_far {
                // Cancelling an event that already fired is a no-op.
                if let Some(order) = last_far[r].take() {
                    pending.retain(|p| p.order != order);
                }
            }
            for (k, child) in plan.children.iter().enumerate() {
                let order = next_order;
                next_order += 1;
                pending.push(Pending {
                    time: event.time + child.delay_ns,
                    order,
                    recorder: child.target,
                    tag: child_tag(event.tag, k),
                    depth: event.depth + 1,
                });
                if child.horizon == Horizon::Far {
                    last_far[r] = Some(order);
                }
            }
        }
    }
    (logs, delivered)
}

fn fan_out_strategy() -> impl Strategy<Value = FanOut> {
    (
        proptest::collection::vec((0u64..200, 0u8..3, any::<bool>()), 0..60),
        any::<u64>(),
        proptest::collection::vec(0u64..4_000, 0..8),
    )
        .prop_map(|(initial, salt, bounds)| FanOut {
            initial,
            salt,
            bounds,
        })
}

proptest! {
    /// Fan-out, in-handler cancels and `run_until` slices: every slice
    /// stops at its bound with the clock on it, deliveries match the
    /// oracle, and pooling is invisible to logs, event ids and counts.
    #[test]
    fn sliced_fan_out_with_cancels_matches_oracle(program in fan_out_strategy()) {
        let (expected_logs, expected_events) = fan_out_oracle(&program);
        let pooled = run_fan_out(&program, true);
        prop_assert!(pooled.is_ok(), "{}", pooled.as_ref().err().map_or("", String::as_str));
        let pooled = pooled.expect("checked above");
        prop_assert_eq!(&pooled.0, &expected_logs, "delivery logs differ from the oracle");
        prop_assert_eq!(pooled.2, expected_events, "event count differs from the oracle");
        let unpooled = run_fan_out(&program, false).expect("same program, same bounds");
        prop_assert_eq!(&pooled.0, &unpooled.0, "delivery logs diverged with pooling off");
        prop_assert_eq!(&pooled.1, &unpooled.1, "event ids diverged with pooling off");
        prop_assert_eq!(pooled.2, unpooled.2, "event counts diverged with pooling off");
    }
}

/// Whether a child a recorder schedules for itself goes as a tag event,
/// derived from the program's `salt` and the child's tag alone.
fn sent_as_tag(salt: u64, tag: u64) -> bool {
    splitmix64_finalize(salt.rotate_left(17) ^ tag) & 1 == 1
}

/// Packs a planned event into a kernel tag: depth in the low two bits.
fn pack(tag: u64, depth: u32) -> u64 {
    debug_assert!(depth <= MAX_DEPTH);
    tag << 2 | u64::from(depth)
}

/// Per-recorder `(slice, time, tag, arrived as a tag event)` logs.
type MixedLogs = Vec<Vec<(usize, SimTime, u64, bool)>>;

/// A `Planner` that sends some of its own children as tag events.
#[derive(Debug)]
struct MixedPlanner {
    salt: u64,
    log: Vec<(SimTime, u64, bool)>,
    last_far: Option<EventId>,
    scheduled: Vec<EventId>,
}

impl Component for MixedPlanner {
    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        let (tag, depth, as_tag) = match ctx.tag() {
            Some(packed) => {
                assert!(msg.is::<SelfTag>(), "a tag event arrives as a SelfTag");
                (packed >> 2, (packed & 3) as u32, true)
            }
            None => {
                let evt = msg
                    .downcast::<PlannedEvt>()
                    .expect("boxed deliveries are PlannedEvt");
                let planned = (evt.tag, evt.depth, false);
                ctx.recycle_box(evt);
                planned
            }
        };
        self.log.push((ctx.now(), tag, as_tag));
        let plan = Plan::of(self.salt, tag, depth);
        if plan.cancel_last_far {
            if let Some(id) = self.last_far.take() {
                ctx.cancel(id);
            }
        }
        let me = ctx.self_id();
        for (k, child) in plan.children.iter().enumerate() {
            let (next, delay) = (child_tag(tag, k), SimDuration::from_nanos(child.delay_ns));
            let target = ComponentId::from_raw(child.target);
            let id = if target == me && sent_as_tag(self.salt, next) {
                ctx.schedule_tag_in(delay, pack(next, depth + 1))
            } else {
                let evt = PlannedEvt {
                    tag: next,
                    depth: depth + 1,
                };
                ctx.schedule_in(delay, target, evt)
            };
            self.scheduled.push(id);
            if child.horizon == Horizon::Far {
                self.last_far = Some(id);
            }
        }
    }
}

/// A mixed run's delivery logs, the ids every schedule call returned and
/// the dispatched-event count.
type MixedObserved = (MixedLogs, Vec<EventId>, u64);

/// Runs `program` with mixed planners, slice by slice.
fn run_mixed(program: &FanOut, pooling: bool) -> Result<MixedObserved, String> {
    let mut sim = Simulator::with_seed(42);
    sim.set_pooling(pooling);
    let ids: Vec<_> = (0..RECORDERS)
        .map(|r| {
            let planner = MixedPlanner {
                salt: program.salt,
                log: Vec::new(),
                last_far: None,
                scheduled: Vec::new(),
            };
            sim.add_component(format!("mixed{r}"), planner)
        })
        .collect();
    let mut scheduled: Vec<EventId> = sim.with_context(|ctx| {
        program
            .initial
            .iter()
            .enumerate()
            .map(|(tag, &(delay_ns, target, cancel))| {
                let evt = PlannedEvt {
                    tag: tag as u64,
                    depth: 0,
                };
                let target = ids[usize::from(target) % RECORDERS];
                let id = ctx.schedule_in(SimDuration::from_nanos(delay_ns), target, evt);
                if cancel {
                    ctx.cancel(id);
                }
                id
            })
            .collect()
    });
    let mut logs: MixedLogs = vec![Vec::new(); RECORDERS];
    for (slice, bound) in program.slices().into_iter().enumerate() {
        let bound = SimTime::from_nanos(bound);
        sim.run_until(bound);
        if sim.now() != bound {
            return Err(format!("slice {slice}: now {} != bound {bound}", sim.now()));
        }
        for (r, &id) in ids.iter().enumerate() {
            let planner: &MixedPlanner = sim.component(id).expect("registered");
            for &(time, tag, as_tag) in &planner.log[logs[r].len()..] {
                if time > bound {
                    return Err(format!(
                        "slice {slice}: tag {tag} fired at {time} > {bound}"
                    ));
                }
                logs[r].push((slice, time, tag, as_tag));
            }
        }
    }
    for &id in &ids {
        let planner: &MixedPlanner = sim.component(id).expect("registered");
        scheduled.extend_from_slice(&planner.scheduled);
    }
    Ok((logs, scheduled, sim.events_processed()))
}

/// The mixed oracle: the fan-out oracle's list scan, with each delivery
/// marked by the form its sender chose.
fn mixed_oracle(program: &FanOut) -> (MixedLogs, u64) {
    struct Pending {
        time: u64,
        order: u64,
        recorder: usize,
        tag: u64,
        depth: u32,
        as_tag: bool,
    }
    let mut pending: Vec<Pending> = Vec::new();
    for (tag, &(delay_ns, target, cancel)) in program.initial.iter().enumerate() {
        if !cancel {
            pending.push(Pending {
                time: delay_ns,
                order: tag as u64,
                recorder: usize::from(target) % RECORDERS,
                tag: tag as u64,
                depth: 0,
                as_tag: false,
            });
        }
    }
    let mut next_order = program.initial.len() as u64;
    let mut last_far: Vec<Option<u64>> = vec![None; RECORDERS];
    let mut logs: MixedLogs = vec![Vec::new(); RECORDERS];
    let mut delivered = 0;
    for (slice, bound) in program.slices().into_iter().enumerate() {
        while let Some(at) = (0..pending.len())
            .filter(|&i| pending[i].time <= bound)
            .min_by_key(|&i| (pending[i].time, pending[i].order))
        {
            let event = pending.swap_remove(at);
            delivered += 1;
            let r = event.recorder;
            let time = SimTime::from_nanos(event.time);
            logs[r].push((slice, time, event.tag, event.as_tag));
            let plan = Plan::of(program.salt, event.tag, event.depth);
            if plan.cancel_last_far {
                if let Some(order) = last_far[r].take() {
                    pending.retain(|p| p.order != order);
                }
            }
            for (k, child) in plan.children.iter().enumerate() {
                let order = next_order;
                next_order += 1;
                let tag = child_tag(event.tag, k);
                pending.push(Pending {
                    time: event.time + child.delay_ns,
                    order,
                    recorder: child.target,
                    tag,
                    depth: event.depth + 1,
                    as_tag: child.target == r && sent_as_tag(program.salt, tag),
                });
                if child.horizon == Horizon::Far {
                    last_far[r] = Some(order);
                }
            }
        }
    }
    (logs, delivered)
}

proptest! {
    /// Boxed and tag events mixed, with same-instant ties, in-handler
    /// cancels of either kind and `run_until` slices: deliveries match the
    /// list-scan oracle, each in the form it was sent, and pooling is
    /// invisible to logs, event ids and counts.
    #[test]
    fn mixed_tag_and_boxed_events_match_oracle(program in fan_out_strategy()) {
        let (expected_logs, expected_events) = mixed_oracle(&program);
        let pooled = run_mixed(&program, true);
        prop_assert!(pooled.is_ok(), "{}", pooled.as_ref().err().map_or("", String::as_str));
        let pooled = pooled.expect("checked above");
        prop_assert_eq!(&pooled.0, &expected_logs, "delivery logs differ from the oracle");
        prop_assert_eq!(pooled.2, expected_events, "event count differs from the oracle");
        let unpooled = run_mixed(&program, false).expect("same program, same bounds");
        prop_assert_eq!(&pooled.0, &unpooled.0, "delivery logs diverged with pooling off");
        prop_assert_eq!(&pooled.1, &unpooled.1, "event ids diverged with pooling off");
        prop_assert_eq!(pooled.2, unpooled.2, "event counts diverged with pooling off");
    }
}
