//! Dispatch order against an independent oracle. Arbitrary
//! schedule/cancel/re-arm programs run on the kernel with the event-box
//! pool on and off; every recorder's delivery log must equal the log
//! computed directly from the program, and the two pooling settings must
//! agree byte for byte on logs, trace text and event counts.

use proptest::prelude::*;
use tsbus_des::{Component, Context, Message, MessageExt, SimDuration, SimTime, Simulator};

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
            ctx.schedule_self_in(SimDuration::from_nanos(REARM_NS), follow_up);
        }
        ctx.recycle_box(evt);
    }
}

/// Everything a run exposes: per-recorder delivery logs, the kernel trace
/// text, and the dispatched-event count.
type Observed = (Vec<Vec<(SimTime, u64)>>, String, u64);

/// Replays `program` on a fresh simulator, returning every observable.
fn run_program(program: &[Instr], pooling: bool) -> Observed {
    let mut sim = Simulator::with_seed(42);
    sim.set_pooling(pooling);
    sim.enable_trace(1 << 16);
    let ids: Vec<_> = (0..RECORDERS)
        .map(|r| sim.add_component(format!("rec{r}"), Recorder::default()))
        .collect();
    sim.with_context(|ctx| {
        for (tag, instr) in program.iter().enumerate() {
            let target = ids[usize::from(instr.target) % RECORDERS];
            let evt = Evt {
                tag: tag as u64,
                rearm: instr.rearm,
            };
            let id = ctx.schedule_in(SimDuration::from_nanos(instr.delay_ns), target, evt);
            if instr.cancel {
                ctx.cancel(id);
            }
        }
    });
    sim.run_until(SimTime::from_secs(1));
    let logs = ids
        .iter()
        .map(|&id| {
            let rec: &Recorder = sim.component(id).expect("registered");
            rec.log.clone()
        })
        .collect();
    (logs, sim.trace().to_text(), sim.events_processed())
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
    /// byte-invisible to logs, traces and event counts.
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
        prop_assert_eq!(&pooled.1, &unpooled.1, "kernel traces diverged with pooling off");
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
