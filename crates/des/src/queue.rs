//! The pending-event set: a binary heap ordered by `(time, seq)`.
//!
//! `seq` is the global scheduling order, so events at equal timestamps pop
//! in FIFO order and two runs of the same scenario produce byte-identical
//! traces.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::event::ScheduledEvent;
use crate::time::SimTime;

/// Entry wrapper giving the heap the correct ordering.
struct HeapEntry(ScheduledEvent);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.key().cmp(&other.0.key())
    }
}

/// Binary-heap pending-event set (`O(log n)` push and pop).
#[derive(Default)]
pub(crate) struct BinaryHeapQueue {
    heap: BinaryHeap<Reverse<HeapEntry>>,
}

impl BinaryHeapQueue {
    /// Inserts an event.
    pub(crate) fn push(&mut self, event: ScheduledEvent) {
        self.heap.push(Reverse(HeapEntry(event)));
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub(crate) fn pop(&mut self) -> Option<ScheduledEvent> {
        self.heap.pop().map(|Reverse(HeapEntry(ev))| ev)
    }

    /// The timestamp of the earliest event without removing it.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(HeapEntry(ev))| ev.time)
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentId;
    use crate::event::EventId;

    fn ev(time_ns: u64, seq: u64) -> ScheduledEvent {
        ScheduledEvent {
            time: SimTime::from_nanos(time_ns),
            seq,
            id: EventId(seq),
            target: ComponentId::from_raw(0),
            msg: Box::new(()),
        }
    }

    #[test]
    fn heap_orders_by_time_then_seq() {
        let events = vec![(50, 1), (10, 2), (50, 0), (10, 3), (0, 4), (1_000_000, 5)];
        let mut expected = events.clone();
        expected.sort_unstable();
        let mut q = BinaryHeapQueue::default();
        for &(t, s) in &events {
            q.push(ev(t, s));
        }
        assert_eq!(q.len(), events.len());
        let mut drained = Vec::new();
        while let Some(event) = q.pop() {
            drained.push((event.time.as_nanos(), event.seq));
        }
        assert_eq!(drained, expected);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = BinaryHeapQueue::default();
        assert_eq!(q.peek_time(), None);
        q.push(ev(30, 0));
        q.push(ev(20, 1));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(20)));
        let first = q.pop().expect("non-empty");
        assert_eq!(first.time, SimTime::from_nanos(20));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(30)));
    }
}
