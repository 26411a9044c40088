//! Components and the execution context handed to them.
//!
//! A [`Component`] is a reactive simulation object (a protocol state machine,
//! a traffic generator, a server model, …) registered with the
//! [`Simulator`](crate::Simulator). All of its interaction with the rest of
//! the simulation happens through the [`Context`] it receives with every
//! event: reading the clock, scheduling and cancelling events, and drawing
//! random numbers.

use core::any::Any;
use core::fmt;

use crate::event::{EventId, Message};
use crate::kernel::SimCore;
use crate::time::{SimDuration, SimTime};

/// Identifies a component registered with a simulator.
///
/// Returned by [`Simulator::add_component`] and stable for the lifetime of
/// the simulator.
///
/// [`Simulator::add_component`]: crate::Simulator::add_component
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(usize);

impl ComponentId {
    /// Builds an id from a raw index. Only meaningful for ids that a
    /// simulator actually handed out; mainly useful in tests.
    #[must_use]
    pub const fn from_raw(index: usize) -> Self {
        ComponentId(index)
    }

    /// The raw slot index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A reactive simulation object.
///
/// Implementors receive every message addressed to them via
/// [`handle`](Component::handle) and may use the [`Context`] to schedule
/// further events (including to themselves, which is how timers are built).
///
/// The `Any` supertrait lets scenario code recover concrete component types
/// after a run (to harvest statistics) via
/// [`Simulator::component`](crate::Simulator::component).
///
/// # Examples
///
/// ```
/// use tsbus_des::{Component, Context, Message, MessageExt, SimDuration, Simulator};
///
/// #[derive(Debug)]
/// struct Tick;
///
/// /// Counts its own ticks, re-arming a timer each time.
/// struct Ticker {
///     period: SimDuration,
///     ticks: u32,
/// }
///
/// impl Component for Ticker {
///     fn start(&mut self, ctx: &mut Context<'_>) {
///         ctx.schedule_self_in(self.period, Tick);
///     }
///
///     fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
///         if msg.is::<Tick>() {
///             self.ticks += 1;
///             ctx.schedule_self_in(self.period, Tick);
///         }
///     }
/// }
///
/// let mut sim = Simulator::new();
/// let id = sim.add_component(
///     "ticker",
///     Ticker { period: SimDuration::from_millis(10), ticks: 0 },
/// );
/// sim.run_until(tsbus_des::SimTime::from_secs(1));
/// let ticker: &Ticker = sim.component(id).expect("registered above");
/// assert_eq!(ticker.ticks, 100);
/// ```
pub trait Component: Any {
    /// Called once, at the simulator's current time, before the first event
    /// is dispatched. The default does nothing; traffic sources typically arm
    /// their first timer here.
    fn start(&mut self, _ctx: &mut Context<'_>) {}

    /// Delivers a message previously scheduled for this component.
    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>);
}

/// The capabilities a component can exercise while handling an event.
///
/// A `Context` borrows the simulator core, so it is only available inside
/// [`Component::start`] / [`Component::handle`] (and from scenario code via
/// [`Simulator::with_context`](crate::Simulator::with_context)).
pub struct Context<'a> {
    pub(crate) core: &'a mut SimCore,
    pub(crate) self_id: ComponentId,
}

impl<'a> Context<'a> {
    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The id of the component this context belongs to.
    #[must_use]
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Schedules `msg` for `target` after `delay`.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        target: ComponentId,
        msg: impl Message,
    ) -> EventId {
        let time = self.core.now.saturating_add(delay);
        let msg = self.core.alloc_msg(msg);
        self.core.schedule(time, target, msg)
    }

    /// Schedules `msg` for `target` at the absolute instant `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past — simulated causality would be
    /// violated.
    pub fn schedule_at(
        &mut self,
        time: SimTime,
        target: ComponentId,
        msg: impl Message,
    ) -> EventId {
        assert!(
            time >= self.core.now,
            "cannot schedule into the past: {time} < now {}",
            self.core.now
        );
        let msg = self.core.alloc_msg(msg);
        self.core.schedule(time, target, msg)
    }

    /// Delivers `msg` to `target` at the current time (after all events
    /// already scheduled for this instant, preserving FIFO order).
    pub fn send(&mut self, target: ComponentId, msg: impl Message) -> EventId {
        self.schedule_in(SimDuration::ZERO, target, msg)
    }

    /// Schedules `msg` back to this component after `delay` — the idiom for
    /// timers.
    pub fn schedule_self_in(&mut self, delay: SimDuration, msg: impl Message) -> EventId {
        let target = self.self_id;
        self.schedule_in(delay, target, msg)
    }

    /// Cancels a pending event. A no-op if the event already fired or was
    /// already cancelled.
    pub fn cancel(&mut self, event: EventId) {
        self.core.cancel(event);
    }

    /// Hands a delivered event box, already downcast with
    /// [`MessageExt::downcast`](crate::MessageExt), back to the kernel's
    /// recycling pool, so the next `schedule_*` of the same message type
    /// reuses the allocation instead of heap-allocating. Optional and
    /// behaviour-invisible: a reused box is fully overwritten before it is
    /// scheduled again.
    pub fn recycle_box<T: Message>(&mut self, msg: Box<T>) {
        self.core.recycle_msg(msg);
    }

    /// The simulator's deterministic random-number source.
    pub fn rng(&mut self) -> &mut crate::rng::SimRng {
        &mut self.core.rng
    }
}

impl fmt::Debug for Context<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.core.now)
            .field("self_id", &self.self_id)
            .finish()
    }
}

/// Internal helper so `SimCore` can build contexts without exposing fields.
pub(crate) fn make_context(core: &mut SimCore, self_id: ComponentId) -> Context<'_> {
    Context { core, self_id }
}
