//! Cross-crate determinism guarantees: events dispatch in `(time,
//! schedule order)` order, and whole scenarios replay bit-identically.

use proptest::prelude::*;
use tsbus_core::{run_case_study, CaseStudyConfig};
use tsbus_des::{
    Component, ComponentId, Context, Message, MessageExt, SimDuration, SimTime, Simulator,
};

/// Records `(time, value)` pairs in arrival order.
#[derive(Default)]
struct Recorder {
    seen: Vec<(u64, u64)>,
}

#[derive(Debug)]
struct Num(u64);

impl Component for Recorder {
    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        let num = msg.downcast::<Num>().expect("only Num is scheduled");
        self.seen.push((ctx.now().as_nanos(), num.0));
    }
}

fn run_schedule(schedule: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut sim = Simulator::new();
    let id = sim.add_component("rec", Recorder::default());
    sim.with_context(|ctx| {
        for &(at, value) in schedule {
            ctx.schedule_at(SimTime::from_nanos(at), id, Num(value));
        }
    });
    sim.run(schedule.len() as u64 + 10);
    sim.component::<Recorder>(id)
        .expect("registered")
        .seen
        .clone()
}

/// The expected dispatch order: the schedule stably sorted by time, so
/// equal-time events keep the order they were scheduled in.
fn stable_by_time(schedule: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut expected = schedule.to_vec();
    expected.sort_by_key(|&(at, _)| at);
    expected
}

proptest! {
    /// Arbitrary schedules dispatch as a stable sort by time.
    #[test]
    fn dispatch_order_is_a_stable_sort_by_time(
        schedule in proptest::collection::vec((0u64..1_000_000, any::<u64>()), 0..200)
    ) {
        prop_assert_eq!(run_schedule(&schedule), stable_by_time(&schedule));
    }
}

#[test]
fn bursty_same_time_events_keep_schedule_order() {
    // Many events at identical timestamps: FIFO tie-breaking decides.
    let schedule: Vec<(u64, u64)> = (0..300u64).map(|i| (i % 7 * 1000, i)).collect();
    assert_eq!(run_schedule(&schedule), stable_by_time(&schedule));
}

#[test]
fn case_study_replays_identically() {
    let cfg = CaseStudyConfig::table4_reference().with_cbr_rate(0.3);
    let a = run_case_study(&cfg);
    let b = run_case_study(&cfg);
    assert_eq!(a.total_time, b.total_time);
    assert_eq!(a.middleware_time, b.middleware_time);
    assert_eq!(a.bus_transactions, b.bus_transactions);
    assert_eq!(a.cbr_delivered_bytes, b.cbr_delivered_bytes);
    assert_eq!(a.out_of_time, b.out_of_time);
}

/// A fractional-second CBR rate exercises non-integer event spacing; the
/// run must still be reproducible (no float-order sensitivity).
#[test]
fn fractional_rates_are_deterministic() {
    let cfg = CaseStudyConfig::table4_reference().with_cbr_rate(0.37);
    let a = run_case_study(&cfg);
    let b = run_case_study(&cfg);
    assert_eq!(a.bus_transactions, b.bus_transactions);
}

#[test]
fn sub_streams_isolate_model_randomness() {
    // Adding RNG draws in one named stream must not shift another's
    // sequence — the property that keeps seeded experiments comparable
    // across model changes.
    let mut sim = Simulator::with_seed(99);
    let mut a1 = sim.rng().stream("traffic");
    let before: Vec<u64> = (0..8).map(|_| a1.next_u64()).collect();

    let mut sim2 = Simulator::with_seed(99);
    let mut unrelated = sim2.rng().stream("errors");
    for _ in 0..1000 {
        let _ = unrelated.next_u64();
    }
    let mut a2 = sim2.rng().stream("traffic");
    let after: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
    assert_eq!(before, after);
}

#[test]
fn run_until_slicing_does_not_change_results() {
    // Driving the same simulation in one run_until vs many small slices
    // must be observationally identical.
    let build = |sim: &mut Simulator| -> ComponentId {
        let id = sim.add_component("rec", Recorder::default());
        sim.with_context(|ctx| {
            for i in 0..50u64 {
                ctx.schedule_in(SimDuration::from_millis(i * 7 + 1), id, Num(i));
            }
        });
        id
    };
    let mut one = Simulator::new();
    let id1 = build(&mut one);
    one.run_until(SimTime::from_secs(1));

    let mut sliced = Simulator::new();
    let id2 = build(&mut sliced);
    for step in 1..=100u64 {
        sliced.run_until(SimTime::from_millis(step * 10));
    }
    assert_eq!(
        one.component::<Recorder>(id1).expect("registered").seen,
        sliced.component::<Recorder>(id2).expect("registered").seen
    );
}
