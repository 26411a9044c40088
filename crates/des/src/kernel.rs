//! The simulation kernel: clock, pending-event set, component registry and
//! the main event loop.

use std::any::{Any, TypeId};

use crate::component::{make_context, Component, ComponentId, Context};
use crate::event::{EventId, Message};
use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceLog;

/// Ceiling on recycled boxes retained per concrete message type. Keeps the
/// pool bounded if a scenario recycles far more of one type than it ever
/// re-schedules.
const POOL_CAP_PER_TYPE: usize = 256;

/// A freelist of event boxes keyed by concrete message type.
///
/// Scheduling normally heap-allocates one `Box<dyn Message>` per event; on
/// campaign workloads that is millions of short-lived allocations. The pool
/// lets the kernel (cancelled events) and cooperating components
/// ([`Context::recycle`]) hand boxes back so the next `schedule_*` of the
/// same message type reuses the allocation. Purely an allocator concern:
/// event contents are fully overwritten on reuse, so simulated behaviour is
/// byte-identical with the pool on or off.
/// A handful of distinct message types circulate per simulation, so the
/// freelist is a flat vector scanned linearly with a move-to-front on hit
/// — cheaper than hashing a `TypeId` on every schedule.
struct MessagePool {
    enabled: bool,
    free: Vec<(TypeId, Vec<Box<dyn Any>>)>,
    /// Boxes held across all buckets. Scheduling skips the scan while it
    /// is zero, which is the common case: only cancelled events and
    /// components that call [`Context::recycle`] fill the pool.
    pooled: usize,
}

impl MessagePool {
    fn new() -> Self {
        MessagePool {
            enabled: true,
            free: Vec::new(),
            pooled: 0,
        }
    }

    fn bucket_index(&mut self, key: TypeId) -> Option<usize> {
        let at = self.free.iter().position(|(k, _)| *k == key)?;
        if at > 0 {
            self.free.swap(at, at - 1);
            Some(at - 1)
        } else {
            Some(at)
        }
    }
}

/// The mutable simulator state a [`Context`] can reach while a component is
/// borrowed out for dispatch.
pub(crate) struct SimCore {
    pub(crate) now: SimTime,
    pub(crate) queue: EventQueue,
    pub(crate) rng: SimRng,
    pub(crate) trace: TraceLog,
    next_seq: u64,
    names: Vec<String>,
    events_processed: u64,
    pool: MessagePool,
}

impl SimCore {
    /// Boxes `value`, reusing a recycled box of the same concrete type when
    /// the pool has one.
    #[inline]
    pub(crate) fn alloc_msg<T: Message>(&mut self, value: T) -> Box<dyn Message> {
        if self.pool.pooled > 0 {
            if let Some(at) = self.pool.bucket_index(TypeId::of::<T>()) {
                if let Some(slot) = self.pool.free[at].1.pop() {
                    self.pool.pooled -= 1;
                    let mut slot: Box<T> = slot.downcast().expect("pool bucket holds only T");
                    *slot = value;
                    return slot;
                }
            }
        }
        Box::new(value)
    }

    /// Returns an event box to the freelist (dropped if pooling is off or
    /// the per-type cap is reached).
    pub(crate) fn recycle_msg(&mut self, msg: Box<dyn Message>) {
        if !self.pool.enabled {
            return;
        }
        let key = (*msg).as_any().type_id();
        let at = match self.pool.bucket_index(key) {
            Some(at) => at,
            None => {
                self.pool.free.push((key, Vec::new()));
                self.pool.free.len() - 1
            }
        };
        let bucket = &mut self.pool.free[at].1;
        if bucket.len() < POOL_CAP_PER_TYPE {
            bucket.push(Message::into_any(msg));
            self.pool.pooled += 1;
        }
    }

    #[inline]
    pub(crate) fn schedule(
        &mut self,
        time: SimTime,
        target: ComponentId,
        msg: Box<dyn Message>,
    ) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.queue.push(time, seq, target, msg);
        let id = EventId { seq, slot };
        self.trace
            .record(self.now, target, "sched", format_args!("{id} @ {time}"));
        id
    }

    pub(crate) fn cancel(&mut self, id: EventId) {
        // A cancelled event's box never reaches a component; reclaim it
        // for the next schedule of the same message type.
        if let Some(msg) = self.queue.cancel(id.seq, id.slot) {
            self.recycle_msg(msg);
        }
    }

    pub(crate) fn name_of(&self, id: ComponentId) -> &str {
        self.names.get(id.index()).map_or("?", String::as_str)
    }
}

/// The default ceiling on dispatched events for [`Simulator::run`]; a
/// backstop against accidentally unbounded simulations rather than a limit
/// any real scenario in this workspace approaches.
pub const DEFAULT_EVENT_LIMIT: u64 = u64::MAX;

/// A deterministic discrete-event simulator.
///
/// Construction order is: create the simulator, register components with
/// [`add_component`](Simulator::add_component), seed initial events (either
/// from component [`start`](Component::start) hooks or externally with
/// [`with_context`](Simulator::with_context)), then drive it with
/// [`run_until`](Simulator::run_until) / [`run`](Simulator::run) /
/// [`step`](Simulator::step).
///
/// Determinism contract: with the same seed, the same component registration
/// order and the same scheduling calls, two runs produce identical event
/// orders, identical RNG draws and identical traces.
///
/// # Examples
///
/// ```
/// use tsbus_des::{Component, Context, Message, SimDuration, SimTime, Simulator};
///
/// #[derive(Debug)]
/// struct Hello;
///
/// struct Greeter {
///     greeted_at: Option<SimTime>,
/// }
///
/// impl Component for Greeter {
///     fn handle(&mut self, ctx: &mut Context<'_>, _msg: Box<dyn Message>) {
///         self.greeted_at = Some(ctx.now());
///     }
/// }
///
/// let mut sim = Simulator::new();
/// let id = sim.add_component("greeter", Greeter { greeted_at: None });
/// sim.with_context(|ctx| {
///     ctx.schedule_in(SimDuration::from_millis(5), id, Hello);
/// });
/// sim.run_until(SimTime::from_secs(1));
/// let greeter: &Greeter = sim.component(id).expect("registered above");
/// assert_eq!(greeter.greeted_at, Some(SimTime::from_nanos(5_000_000)));
/// ```
pub struct Simulator {
    core: SimCore,
    components: Vec<Option<Box<dyn Component>>>,
    started: bool,
}

impl Simulator {
    /// Creates a simulator with a fixed default seed (0), so unseeded
    /// simulations are still reproducible.
    #[must_use]
    pub fn new() -> Self {
        Simulator {
            core: SimCore {
                now: SimTime::ZERO,
                queue: EventQueue::default(),
                rng: SimRng::seeded(0),
                trace: TraceLog::disabled(),
                next_seq: 0,
                names: Vec::new(),
                events_processed: 0,
                pool: MessagePool::new(),
            },
            components: Vec::new(),
            started: false,
        }
    }

    /// Creates a simulator with an explicit random seed.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        let mut sim = Self::new();
        sim.core.rng = SimRng::seeded(seed);
        sim
    }

    /// Enables or disables event-box recycling (on by default). Pooling is
    /// an allocator optimization with no effect on simulated behaviour;
    /// turning it off exists for the perf harness's ablation arms.
    pub fn set_pooling(&mut self, enabled: bool) {
        self.core.pool.enabled = enabled;
        if !enabled {
            self.core.pool.free.clear();
            self.core.pool.pooled = 0;
        }
    }

    /// Whether event-box recycling is enabled.
    #[must_use]
    pub fn pooling(&self) -> bool {
        self.core.pool.enabled
    }

    /// Registers a component under `name` and returns its id.
    ///
    /// Registration order is part of the determinism contract (ids are handed
    /// out sequentially), so build topologies in a fixed order.
    pub fn add_component(
        &mut self,
        name: impl Into<String>,
        component: impl Component,
    ) -> ComponentId {
        let id = ComponentId::from_raw(self.components.len());
        self.components.push(Some(Box::new(component)));
        self.core.names.push(name.into());
        if self.started {
            // Late-added components still get their start hook, at current time.
            self.dispatch_start(id);
        }
        id
    }

    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The id the *next* call to [`add_component`](Self::add_component)
    /// will return. Lets topology builders wire mutually-referencing
    /// components by pre-computing their ids.
    #[must_use]
    pub fn next_component_id(&self) -> ComponentId {
        ComponentId::from_raw(self.components.len())
    }

    /// Number of events dispatched so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Number of events still pending.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.core.queue.len()
    }

    /// The registered name of a component, or `"?"` for an unknown id.
    #[must_use]
    pub fn name_of(&self, id: ComponentId) -> &str {
        self.core.name_of(id)
    }

    /// Borrows a registered component as its concrete type.
    ///
    /// Returns `None` if the id is unknown or the component is not a `T`.
    #[must_use]
    pub fn component<T: Component>(&self, id: ComponentId) -> Option<&T> {
        let boxed = self.components.get(id.index())?.as_deref()?;
        (boxed as &dyn core::any::Any).downcast_ref::<T>()
    }

    /// Mutably borrows a registered component as its concrete type.
    #[must_use]
    pub fn component_mut<T: Component>(&mut self, id: ComponentId) -> Option<&mut T> {
        let boxed = self.components.get_mut(id.index())?.as_deref_mut()?;
        (boxed as &mut dyn core::any::Any).downcast_mut::<T>()
    }

    /// Runs scenario code with a [`Context`] — the way external drivers seed
    /// initial events or inject stimuli between `run_until` calls.
    ///
    /// The context is attributed to a synthetic "environment" component id
    /// one past the last registered component.
    pub fn with_context<R>(&mut self, f: impl FnOnce(&mut Context<'_>) -> R) -> R {
        let env_id = ComponentId::from_raw(self.components.len());
        let mut ctx = make_context(&mut self.core, env_id);
        f(&mut ctx)
    }

    /// Enables in-memory tracing with the given capacity (older records are
    /// dropped once full).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.core.trace = TraceLog::enabled(capacity);
    }

    /// The trace log (empty unless [`enable_trace`](Self::enable_trace) was
    /// called).
    #[must_use]
    pub fn trace(&self) -> &TraceLog {
        &self.core.trace
    }

    /// Direct access to the deterministic RNG, for scenario-level draws.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.core.rng
    }

    fn dispatch_start(&mut self, id: ComponentId) {
        let mut component = self.components[id.index()]
            .take()
            .expect("component present and not re-entered");
        {
            let mut ctx = make_context(&mut self.core, id);
            component.start(&mut ctx);
        }
        self.components[id.index()] = Some(component);
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for index in 0..self.components.len() {
            self.dispatch_start(ComponentId::from_raw(index));
        }
    }

    /// Dispatches the single earliest pending event.
    ///
    /// Returns `false` when no events are pending. Cancelled events are
    /// skipped silently (they do not count as a step).
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        self.dispatch_next(SimTime::MAX)
    }

    /// Dispatches the earliest pending event if it fires no later than
    /// `bound` (cancelled events are discarded on the way). Returns whether
    /// an event was dispatched.
    fn dispatch_next(&mut self, bound: SimTime) -> bool {
        let Some(event) = self.core.queue.take_next(bound) else {
            return false;
        };
        debug_assert!(event.time >= self.core.now, "event from the past");
        self.core.now = event.time;
        self.core.events_processed += 1;
        let target = event.target;
        let id = event.id();
        self.core
            .trace
            .record(event.time, target, "fire", format_args!("{id}"));
        let Some(slot) = self.components.get_mut(target.index()) else {
            panic!("event {id} targets unknown component {target}");
        };
        let mut component = slot
            .take()
            .unwrap_or_else(|| panic!("component {target} re-entered during its own dispatch"));
        {
            let mut ctx = make_context(&mut self.core, target);
            component.handle(&mut ctx, event.msg);
        }
        self.components[target.index()] = Some(component);
        // Pops the dispatched event's key unless the handler's first
        // schedule already took its place.
        self.core.queue.settle();
        true
    }

    /// Runs until the pending-event set drains or `limit` events have been
    /// dispatched, returning the number of events dispatched.
    pub fn run(&mut self, limit: u64) -> u64 {
        let mut dispatched = 0;
        while dispatched < limit && self.step() {
            dispatched += 1;
        }
        dispatched
    }

    /// Runs every event with `time <= until`, then advances the clock to
    /// exactly `until`. Returns the number of events dispatched.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        self.ensure_started();
        let mut dispatched = 0;
        while self.dispatch_next(until) {
            dispatched += 1;
        }
        if until > self.core.now {
            self.core.now = until;
        }
        dispatched
    }

    /// Runs for `span` of simulated time from the current instant.
    pub fn run_for(&mut self, span: SimDuration) -> u64 {
        let until = self.core.now.saturating_add(span);
        self.run_until(until)
    }
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.core.now)
            .field("components", &self.components.len())
            .field("pending_events", &self.core.queue.len())
            .field("events_processed", &self.core.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MessageExt;

    #[derive(Debug, PartialEq)]
    struct Num(u64);

    /// Records the order in which numbered messages arrive.
    #[derive(Default)]
    struct Recorder {
        seen: Vec<(SimTime, u64)>,
    }

    impl Component for Recorder {
        fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
            let num = msg.downcast::<Num>().expect("only Num is sent here");
            self.seen.push((ctx.now(), num.0));
        }
    }

    #[test]
    fn events_fire_in_time_then_fifo_order() {
        let mut sim = Simulator::new();
        let id = sim.add_component("rec", Recorder::default());
        sim.with_context(|ctx| {
            ctx.schedule_in(SimDuration::from_nanos(10), id, Num(1));
            ctx.schedule_in(SimDuration::from_nanos(5), id, Num(2));
            ctx.schedule_in(SimDuration::from_nanos(10), id, Num(3));
            ctx.send(id, Num(4));
        });
        sim.run(100);
        let rec: &Recorder = sim.component(id).expect("registered");
        assert_eq!(
            rec.seen,
            vec![
                (SimTime::from_nanos(0), 4),
                (SimTime::from_nanos(5), 2),
                (SimTime::from_nanos(10), 1),
                (SimTime::from_nanos(10), 3),
            ]
        );
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut sim = Simulator::new();
        let id = sim.add_component("rec", Recorder::default());
        sim.with_context(|ctx| {
            let doomed = ctx.schedule_in(SimDuration::from_nanos(5), id, Num(1));
            ctx.schedule_in(SimDuration::from_nanos(6), id, Num(2));
            ctx.cancel(doomed);
        });
        sim.run(100);
        let rec: &Recorder = sim.component(id).expect("registered");
        assert_eq!(rec.seen, vec![(SimTime::from_nanos(6), 2)]);
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let mut sim = Simulator::new();
        assert_eq!(sim.run_until(SimTime::from_secs(3)), 0);
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn run_until_is_inclusive_of_boundary_events() {
        let mut sim = Simulator::new();
        let id = sim.add_component("rec", Recorder::default());
        sim.with_context(|ctx| {
            ctx.schedule_at(SimTime::from_secs(1), id, Num(1));
            ctx.schedule_at(SimTime::from_nanos(1_000_000_001), id, Num(2));
        });
        sim.run_until(SimTime::from_secs(1));
        let rec: &Recorder = sim.component(id).expect("registered");
        assert_eq!(rec.seen, vec![(SimTime::from_secs(1), 1)]);
        assert_eq!(sim.now(), SimTime::from_secs(1));
        assert_eq!(sim.pending_events(), 1);
    }

    #[test]
    fn run_until_discards_a_cancelled_head_without_passing_the_bound() {
        let mut sim = Simulator::new();
        let id = sim.add_component("rec", Recorder::default());
        sim.with_context(|ctx| {
            let doomed = ctx.schedule_at(SimTime::from_nanos(5), id, Num(1));
            ctx.schedule_at(SimTime::from_nanos(10), id, Num(2));
            ctx.cancel(doomed);
        });
        assert_eq!(sim.run_until(SimTime::from_nanos(7)), 0);
        assert_eq!(sim.now(), SimTime::from_nanos(7));
        assert_eq!(sim.pending_events(), 1);
        let rec: &Recorder = sim.component(id).expect("registered");
        assert!(rec.seen.is_empty(), "the 10 ns event fired before its time");
        assert_eq!(sim.run_until(SimTime::from_nanos(10)), 1);
        let rec: &Recorder = sim.component(id).expect("registered");
        assert_eq!(rec.seen, vec![(SimTime::from_nanos(10), 2)]);
    }

    /// A component that re-arms itself a fixed number of times.
    struct SelfScheduler {
        remaining: u32,
        fired: u32,
    }

    impl Component for SelfScheduler {
        fn start(&mut self, ctx: &mut Context<'_>) {
            ctx.schedule_self_in(SimDuration::from_nanos(1), Num(0));
        }

        fn handle(&mut self, ctx: &mut Context<'_>, _msg: Box<dyn Message>) {
            self.fired += 1;
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.schedule_self_in(SimDuration::from_nanos(1), Num(0));
            }
        }
    }

    #[test]
    fn start_hook_and_self_scheduling_work() {
        let mut sim = Simulator::new();
        let id = sim.add_component(
            "self",
            SelfScheduler {
                remaining: 4,
                fired: 0,
            },
        );
        sim.run(100);
        let s: &SelfScheduler = sim.component(id).expect("registered");
        assert_eq!(s.fired, 5);
        assert_eq!(sim.events_processed(), 5);
    }

    #[test]
    fn component_downcast_rejects_wrong_type() {
        let mut sim = Simulator::new();
        let id = sim.add_component("rec", Recorder::default());
        assert!(sim.component::<SelfScheduler>(id).is_none());
        assert!(sim.component::<Recorder>(id).is_some());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulator::new();
        let id = sim.add_component("rec", Recorder::default());
        sim.run_until(SimTime::from_secs(1));
        sim.with_context(|ctx| {
            ctx.schedule_at(SimTime::from_nanos(1), id, Num(0));
        });
    }

    #[test]
    fn named_components_are_reachable() {
        let mut sim = Simulator::new();
        let id = sim.add_component("alpha", Recorder::default());
        assert_eq!(sim.name_of(id), "alpha");
        assert_eq!(sim.name_of(ComponentId::from_raw(99)), "?");
    }

    /// Re-arms itself `remaining` times, recycling every delivered box.
    struct RecyclingTicker {
        remaining: u32,
        fired: u32,
    }

    impl Component for RecyclingTicker {
        fn start(&mut self, ctx: &mut Context<'_>) {
            ctx.schedule_self_in(SimDuration::from_nanos(1), Num(0));
        }

        fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
            let num = msg.downcast::<Num>().expect("only Num is sent here");
            self.fired += 1;
            ctx.recycle_box(num);
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.schedule_self_in(SimDuration::from_nanos(1), Num(u64::from(self.fired)));
            }
        }
    }

    #[test]
    fn pooling_is_invisible_to_results() {
        let run = |pooling: bool| {
            let mut sim = Simulator::with_seed(7);
            sim.set_pooling(pooling);
            let rec = sim.add_component("rec", Recorder::default());
            let tick = sim.add_component(
                "tick",
                RecyclingTicker {
                    remaining: 40,
                    fired: 0,
                },
            );
            sim.enable_trace(4096);
            sim.with_context(|ctx| {
                for i in 0..50u64 {
                    let doomed = ctx.schedule_in(SimDuration::from_nanos(i * 3), rec, Num(i));
                    if i % 3 == 0 {
                        // Cancelled boxes go back through the pool too.
                        ctx.cancel(doomed);
                    }
                }
            });
            sim.run(1_000);
            let _ = tick;
            let seen = sim
                .component::<Recorder>(rec)
                .expect("registered")
                .seen
                .clone();
            let trace = sim.trace().to_text();
            (seen, trace, sim.events_processed())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn recycled_boxes_are_reused_not_leaked() {
        let mut sim = Simulator::with_seed(1);
        let id = sim.add_component(
            "tick",
            RecyclingTicker {
                remaining: 500,
                fired: 0,
            },
        );
        sim.run(10_000);
        let t: &RecyclingTicker = sim.component(id).expect("registered");
        assert_eq!(t.fired, 501);
    }

    #[test]
    fn identical_seeds_give_identical_draws() {
        let mut a = Simulator::with_seed(42);
        let mut b = Simulator::with_seed(42);
        let draws_a: Vec<u64> = (0..32).map(|_| a.rng().next_u64()).collect();
        let draws_b: Vec<u64> = (0..32).map(|_| b.rng().next_u64()).collect();
        assert_eq!(draws_a, draws_b);
    }
}
