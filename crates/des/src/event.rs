//! Events and the messages they carry.
//!
//! An event is a `(time, target component, message)` triple plus bookkeeping
//! that makes execution order fully deterministic: events at equal timestamps
//! are delivered in the order they were scheduled (FIFO tie-breaking via a
//! monotonically increasing sequence number, exactly like NS-2's scheduler
//! contract).

use core::any::{Any, TypeId};
use core::fmt;

use crate::component::ComponentId;
use crate::time::SimTime;

/// A payload delivered to a [`Component`] when its event fires.
///
/// Any `'static` type that implements [`Debug`](fmt::Debug) is a `Message`
/// thanks to the blanket implementation; components downcast with
/// [`MessageExt::downcast`].
///
/// # Examples
///
/// ```
/// use tsbus_des::{Message, MessageExt};
///
/// #[derive(Debug, PartialEq)]
/// struct Tick(u32);
///
/// let boxed: Box<dyn Message> = Box::new(Tick(7));
/// let tick = boxed.downcast::<Tick>().expect("payload is a Tick");
/// assert_eq!(*tick, Tick(7));
/// ```
///
/// [`Component`]: crate::Component
pub trait Message: Any + fmt::Debug {
    /// Borrows the message as [`Any`] for by-reference downcasting.
    fn as_any(&self) -> &dyn Any;
    /// Converts the boxed message into [`Box<dyn Any>`] for by-value
    /// downcasting.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<T: Any + fmt::Debug> Message for T {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Downcasting conveniences for boxed [`Message`] trait objects.
pub trait MessageExt {
    /// Attempts to downcast the boxed message to a concrete type, handing the
    /// original box back on mismatch so the caller can try another type.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` when the message is not a `T`.
    fn downcast<T: Any>(self) -> Result<Box<T>, Box<dyn Message>>;

    /// Returns a reference to the concrete message if it is a `T`.
    fn downcast_ref<T: Any>(&self) -> Option<&T>;

    /// Whether the message is a `T`.
    fn is<T: Any>(&self) -> bool;
}

impl MessageExt for Box<dyn Message> {
    // Note the explicit derefs: `Box<dyn Message>` itself satisfies the
    // blanket `Message` impl, so plain method calls would resolve to the
    // box's own `type_id` or `as_any` (type-id = Box<dyn Message>) instead
    // of the inner message's.
    #[inline]
    fn downcast<T: Any>(self) -> Result<Box<T>, Box<dyn Message>> {
        if (*self).type_id() == TypeId::of::<T>() {
            let any: Box<dyn Any> = self;
            Ok(any.downcast::<T>().expect("type id already checked"))
        } else {
            Err(self)
        }
    }

    #[inline]
    fn downcast_ref<T: Any>(&self) -> Option<&T> {
        (**self).as_any().downcast_ref::<T>()
    }

    #[inline]
    fn is<T: Any>(&self) -> bool {
        (**self).as_any().is::<T>()
    }
}

/// An opaque identifier for a scheduled event, used to cancel it.
///
/// Obtained from [`Context::schedule_in`] and friends; pass it to
/// [`Context::cancel`] to revoke the event before it fires. Cancelling an
/// event that has already fired (or was already cancelled) is a no-op.
///
/// [`Context::schedule_in`]: crate::Context::schedule_in
/// [`Context::cancel`]: crate::Context::cancel
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    /// The event's scheduling order, unique per simulator.
    pub(crate) seq: u64,
    /// The pending-event slab slot holding it while it is pending.
    pub(crate) slot: u32,
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ev#{}", self.seq)
    }
}

/// An event taken from the pending-event set for dispatch.
pub(crate) struct ScheduledEvent {
    pub(crate) time: SimTime,
    /// FIFO tie-breaker: strictly increasing across all scheduled events.
    pub(crate) seq: u64,
    /// The slab slot it was pending in.
    pub(crate) slot: u32,
    pub(crate) target: ComponentId,
    pub(crate) msg: Box<dyn Message>,
}

impl ScheduledEvent {
    /// The id [`Context::schedule_in`](crate::Context::schedule_in) and
    /// friends returned for this event.
    pub(crate) fn id(&self) -> EventId {
        EventId {
            seq: self.seq,
            slot: self.slot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Ping(u8);
    #[derive(Debug)]
    struct Pong;

    #[test]
    fn downcast_by_value_succeeds_and_fails_cleanly() {
        let msg: Box<dyn Message> = Box::new(Ping(3));
        assert!(msg.is::<Ping>());
        assert!(!msg.is::<Pong>());
        let msg = match msg.downcast::<Pong>() {
            Ok(_) => panic!("Ping must not downcast to Pong"),
            Err(original) => original,
        };
        let ping = msg.downcast::<Ping>().expect("is a Ping");
        assert_eq!(*ping, Ping(3));
    }

    #[test]
    fn downcast_ref_borrows() {
        let msg: Box<dyn Message> = Box::new(Ping(9));
        assert_eq!(msg.downcast_ref::<Ping>(), Some(&Ping(9)));
        assert!(msg.downcast_ref::<Pong>().is_none());
    }
}
