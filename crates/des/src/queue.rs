//! The pending-event set: a binary min-heap of slim `(time, seq, slot)`
//! keys over a slab of event payloads.
//!
//! Events leave in `(time, seq)` order. `seq` is the global scheduling
//! order, so events at equal timestamps pop in FIFO order and two runs of
//! the same scenario produce byte-identical traces. Every `seq` is unique,
//! so that order is total: it does not depend on the heap's shape, and any
//! valid heap over the same keys hands out the same sequence.
//!
//! The heap moves only 24-byte keys. An event's target and message box
//! stay put in a slab slot, named by the key, from scheduling to dispatch.
//! An [`EventId`](crate::EventId) names the slot and the event's `seq`, so
//! cancelling an event takes its box out of the slot in place, and its key
//! is discarded when it reaches the root. A fired event's slot holds no box
//! and, once reused, a different `seq`, so cancelling an event that
//! already fired changes nothing.
//!
//! Dispatch is a two-step contract. [`EventQueue::take_next`] hands out
//! the earliest event's payload but leaves its key at the root, *spent*.
//! While the event's handler runs, the first [`EventQueue::push`] writes
//! its key over the spent root and sifts it down once. Most handlers
//! re-arm exactly one near-future event, so a pop plus a push becomes one
//! sift-down. The kernel calls [`EventQueue::settle`] after the handler,
//! which pops the spent root if no push reused it. A new key never sorts
//! before the spent one (its time is not earlier, its `seq` is larger), so
//! writing it at the root and sifting down leaves a valid heap.

use crate::component::ComponentId;
use crate::event::{Message, ScheduledEvent};
use crate::time::SimTime;

/// A heap entry: the execution key and the slab slot of its payload.
#[derive(Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    /// Whether `self` fires before `other`: earlier time, then earlier
    /// scheduling order.
    #[inline]
    fn before(&self, other: &Key) -> bool {
        (self.time, self.seq) < (other.time, other.seq)
    }
}

/// One slab slot: the event last stored in it. `msg` is `None` once that
/// event fired or was cancelled; a heap key naming such a slot is a
/// cancelled event's.
struct Entry {
    seq: u64,
    target: ComponentId,
    msg: Option<Box<dyn Message>>,
}

/// Key heap plus payload slab (`O(log n)` push and pop; see the module
/// docs for the dispatch contract).
#[derive(Default)]
pub(crate) struct EventQueue {
    heap: Vec<Key>,
    slab: Vec<Entry>,
    /// Free slab slots, reused last-freed first.
    free: Vec<u32>,
    /// The root key belongs to the event being dispatched.
    root_spent: bool,
}

impl EventQueue {
    /// Inserts an event, reusing the spent root's place when there is one.
    /// Returns the event's slab slot.
    #[inline]
    pub(crate) fn push(
        &mut self,
        time: SimTime,
        seq: u64,
        target: ComponentId,
        msg: Box<dyn Message>,
    ) -> u32 {
        let entry = Entry {
            seq,
            target,
            msg: Some(msg),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = entry;
                slot
            }
            None => {
                self.slab.push(entry);
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        let key = Key { time, seq, slot };
        if self.root_spent {
            self.root_spent = false;
            self.sift_down(key);
        } else {
            self.heap.push(key);
            self.sift_up(self.heap.len() - 1);
        }
        slot
    }

    /// Cancels the event `seq` in `slot` if it is still pending, returning
    /// its message box. `None` if it already fired or was cancelled.
    pub(crate) fn cancel(&mut self, seq: u64, slot: u32) -> Option<Box<dyn Message>> {
        let entry = self.slab.get_mut(slot as usize)?;
        if entry.seq != seq {
            return None;
        }
        entry.msg.take()
    }

    /// Takes the earliest pending event if it fires no later than `bound`,
    /// leaving its key at the root as spent. Cancelled keys met on the way
    /// are discarded whatever their time. Returns `None` when nothing
    /// pending fires by `bound`.
    ///
    /// Call [`settle`](Self::settle) before the next `take_next`.
    #[inline]
    pub(crate) fn take_next(&mut self, bound: SimTime) -> Option<ScheduledEvent> {
        debug_assert!(!self.root_spent, "take_next before settle");
        loop {
            let root = *self.heap.first()?;
            let entry = &mut self.slab[root.slot as usize];
            if entry.msg.is_some() && root.time > bound {
                return None;
            }
            self.free.push(root.slot);
            self.root_spent = true;
            match entry.msg.take() {
                Some(msg) => {
                    return Some(ScheduledEvent {
                        time: root.time,
                        seq: root.seq,
                        slot: root.slot,
                        target: entry.target,
                        msg,
                    })
                }
                None => self.settle(),
            }
        }
    }

    /// Pops the spent root unless a push has already written over it.
    #[inline]
    pub(crate) fn settle(&mut self) {
        if !self.root_spent {
            return;
        }
        self.root_spent = false;
        let last = self.heap.pop().expect("a spent root is in the heap");
        if !self.heap.is_empty() {
            self.sift_down_to_bottom(last);
        }
    }

    /// Number of pending events (the spent root excluded).
    pub(crate) fn len(&self) -> usize {
        self.heap.len() - usize::from(self.root_spent)
    }

    /// Moves the key at `pos` up until its parent fires before it.
    #[inline]
    fn sift_up(&mut self, mut pos: usize) {
        let heap = &mut self.heap[..];
        let key = heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !key.before(&heap[parent]) {
                break;
            }
            heap[pos] = heap[parent];
            pos = parent;
        }
        heap[pos] = key;
    }

    /// Writes `key` at the root and moves it down until neither child
    /// fires before it. Stops early, which suits a near-future key.
    #[inline]
    fn sift_down(&mut self, key: Key) {
        let heap = &mut self.heap[..];
        let len = heap.len();
        let mut pos = 0;
        let mut child = 1;
        while child < len {
            if child + 1 < len && heap[child + 1].before(&heap[child]) {
                child += 1;
            }
            if !heap[child].before(&key) {
                break;
            }
            heap[pos] = heap[child];
            pos = child;
            child = 2 * pos + 1;
        }
        heap[pos] = key;
    }

    /// Writes `key` (the former last leaf) at the root: walks the hole down
    /// the earlier child to a leaf, then sifts `key` up from there. A leaf
    /// key usually belongs near the bottom, so this needs about half the
    /// comparisons of [`sift_down`](Self::sift_down).
    fn sift_down_to_bottom(&mut self, key: Key) {
        let heap = &mut self.heap[..];
        let len = heap.len();
        let mut pos = 0;
        let mut child = 1;
        while child + 1 < len {
            if heap[child + 1].before(&heap[child]) {
                child += 1;
            }
            heap[pos] = heap[child];
            pos = child;
            child = 2 * pos + 1;
        }
        if child < len {
            heap[pos] = heap[child];
            pos = child;
        }
        heap[pos] = key;
        self.sift_up(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(q: &mut EventQueue, time_ns: u64, seq: u64) -> u32 {
        q.push(
            SimTime::from_nanos(time_ns),
            seq,
            ComponentId::from_raw(seq as usize),
            Box::new(()),
        )
    }

    /// Takes and settles the next event, returning `(time, seq)`.
    fn pop(q: &mut EventQueue) -> Option<(u64, u64)> {
        let event = q.take_next(SimTime::MAX)?;
        assert_eq!(event.target, ComponentId::from_raw(event.seq as usize));
        q.settle();
        Some((event.time.as_nanos(), event.seq))
    }

    #[test]
    fn heap_orders_by_time_then_seq() {
        let events = vec![(50, 1), (10, 2), (50, 0), (10, 3), (0, 4), (1_000_000, 5)];
        let mut expected = events.clone();
        expected.sort_unstable();
        let mut q = EventQueue::default();
        for &(t, s) in &events {
            push(&mut q, t, s);
        }
        assert_eq!(q.len(), events.len());
        let drained: Vec<_> = std::iter::from_fn(|| pop(&mut q)).collect();
        assert_eq!(drained, expected);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::default();
        assert!(q.take_next(SimTime::MAX).is_none());
        push(&mut q, 30, 0);
        push(&mut q, 20, 1);
        // A bound before the earliest event takes nothing and spends nothing.
        assert!(q.take_next(SimTime::from_nanos(19)).is_none());
        assert_eq!(q.len(), 2);
        assert_eq!(pop(&mut q), Some((20, 1)));
        assert!(q.take_next(SimTime::from_nanos(29)).is_none());
        assert_eq!(pop(&mut q), Some((30, 0)));
        assert_eq!(pop(&mut q), None);
    }

    #[test]
    fn pushes_during_dispatch_reuse_the_spent_root_in_order() {
        let mut q = EventQueue::default();
        for (t, s) in [(10, 0), (40, 1), (25, 2), (60, 3)] {
            push(&mut q, t, s);
        }
        let first = q.take_next(SimTime::MAX).expect("non-empty");
        assert_eq!((first.time.as_nanos(), first.seq), (10, 0));
        assert_eq!(q.len(), 3, "the spent root is not pending");
        // The handler re-arms: one near, one same-instant, one far event.
        push(&mut q, 30, 4);
        assert_eq!(q.len(), 4);
        push(&mut q, 10, 5);
        push(&mut q, 500, 6);
        q.settle();
        let drained: Vec<_> = std::iter::from_fn(|| pop(&mut q)).collect();
        assert_eq!(
            drained,
            vec![(10, 5), (25, 2), (30, 4), (40, 1), (60, 3), (500, 6)]
        );
    }

    #[test]
    fn slots_are_reused_once_their_payload_is_taken() {
        let mut q = EventQueue::default();
        let mut seq = 0;
        // A steady re-arming chain never grows the slab past its peak.
        for t in 0..4 {
            push(&mut q, t, seq);
            seq += 1;
        }
        for t in 4..1_000 {
            q.take_next(SimTime::MAX).expect("non-empty");
            push(&mut q, t, seq);
            seq += 1;
            q.settle();
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.slab.len(), 4);
    }

    #[test]
    fn cancelled_keys_are_skipped_even_past_the_bound() {
        let mut q = EventQueue::default();
        let doomed = push(&mut q, 5, 0);
        push(&mut q, 10, 1);
        assert!(q.cancel(0, doomed).is_some());
        assert!(q.cancel(0, doomed).is_none(), "already cancelled");
        assert_eq!(q.len(), 2, "a cancelled key stays until it surfaces");
        assert!(q.take_next(SimTime::from_nanos(7)).is_none());
        assert_eq!(q.len(), 1, "the cancelled head was discarded");
        assert_eq!(pop(&mut q), Some((10, 1)));
    }

    #[test]
    fn cancelling_a_fired_event_spares_its_slot_successor() {
        let mut q = EventQueue::default();
        let slot = push(&mut q, 5, 0);
        assert_eq!(pop(&mut q), Some((5, 0)));
        let reused = push(&mut q, 9, 1);
        assert_eq!(reused, slot);
        assert!(q.cancel(0, slot).is_none(), "event 0 already fired");
        assert_eq!(pop(&mut q), Some((9, 1)));
    }
}
