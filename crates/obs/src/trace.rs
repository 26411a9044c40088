//! Typed trace events and the bounded ring that collects them.
//!
//! [`Tracer`] is the workspace's one trace spine. A tracer is generic
//! over its event type: the cross-layer [`TraceEvent`] taxonomy covers
//! bus, middleware and shard activity, while layers with richer payloads
//! (the tuplespace audit, for one) instantiate `Tracer` with their own
//! event type.

use std::collections::VecDeque;

use tsbus_des::SimTime;
use tsbus_faults::{BreakerState, FaultKind, FrameClass};

/// What the server's duplicate-suppression layer decided about a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupDecision {
    /// A completed request arrived again; the cached reply was replayed.
    Replay,
    /// A request arrived while its first copy was still being served.
    InflightDrop,
    /// A request arrived after its reply had been acknowledged.
    AckedDrop,
}

/// A tuplespace operation, as seen by the client/server middleware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TupleOpKind {
    /// A tuple was written.
    Write,
    /// A tuple was read (copied, not removed).
    Read,
    /// A tuple was taken (removed).
    Take,
    /// A lease expired and the entry was reaped.
    Expire,
}

/// One structured trace event, spanning every simulation layer.
///
/// Variants carry only primitive fields, so events are `Copy` and a
/// tracer ring never allocates per event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A frame-level bus transaction completed.
    Frame {
        /// Completion instant.
        at: SimTime,
        /// Addressed node.
        node: u8,
        /// Protocol class of the frame.
        class: FrameClass,
        /// Whether the transaction succeeded (vs. entered retry/failure).
        ok: bool,
    },
    /// The bus master scheduled a retry.
    Retry {
        /// Retry instant.
        at: SimTime,
        /// Addressed node.
        node: u8,
        /// Protocol class being retried.
        class: FrameClass,
    },
    /// The retry policy backed off before reissuing.
    Backoff {
        /// Backoff start instant.
        at: SimTime,
        /// Backoff length in bit periods.
        bits: u64,
    },
    /// The master gave up on a transaction.
    TxnFailed {
        /// Failure instant.
        at: SimTime,
        /// Addressed node.
        node: u8,
    },
    /// An injected fault command was applied.
    Fault {
        /// Application instant.
        at: SimTime,
        /// What was injected.
        kind: FaultKind,
    },
    /// A notification could not be delivered (no attachment).
    DeliveryDropped {
        /// Drop instant.
        at: SimTime,
        /// Target node.
        node: u8,
    },
    /// A tuplespace operation was served.
    TupleOp {
        /// Service instant.
        at: SimTime,
        /// Which operation.
        op: TupleOpKind,
        /// Whether a matching tuple was found (writes are always `true`).
        hit: bool,
    },
    /// The server's exactly-once layer made a dedup decision.
    Dedup {
        /// Decision instant.
        at: SimTime,
        /// What was decided.
        decision: DedupDecision,
    },
    /// A lease-renewal batch was processed.
    Lease {
        /// Processing instant.
        at: SimTime,
        /// Entries successfully renewed.
        renewed: u64,
        /// Renewal targets that no longer existed.
        missed: u64,
    },
    /// A client ran its reply-loss recovery probe.
    Recovery {
        /// Probe instant.
        at: SimTime,
        /// Whether the probe resolved the in-doubt operation.
        resolved: bool,
    },
    /// A supervised slave's circuit breaker changed state.
    BreakerTransition {
        /// Transition instant.
        at: SimTime,
        /// Supervised node.
        node: u8,
        /// State left.
        from: BreakerState,
        /// State entered.
        to: BreakerState,
    },
    /// The master issued a probe frame to a Half-Open slave.
    Probe {
        /// Probe completion instant.
        at: SimTime,
        /// Probed node.
        node: u8,
        /// Whether the probe succeeded.
        ok: bool,
    },
    /// A slave entered (`entered = true`) or left quarantine.
    Quarantine {
        /// Quarantine boundary instant.
        at: SimTime,
        /// Quarantined node.
        node: u8,
        /// `true` on entry (breaker opened), `false` on readmission.
        entered: bool,
    },
    /// Degraded-mode rebalancing moved a lane's slaves.
    Rebalance {
        /// Rebalance instant.
        at: SimTime,
        /// The lane evacuated (`restored = false`) or repopulated.
        lane: u8,
        /// Slaves whose lane assignment changed.
        moved: u8,
        /// `false` when evacuating a degraded lane, `true` when restoring
        /// its home assignment.
        restored: bool,
    },
    /// A shard router dispatched one sub-request to a shard.
    ShardRoute {
        /// Dispatch instant.
        at: SimTime,
        /// Target shard index.
        shard: u8,
        /// The tuplespace operation being routed.
        op: TupleOpKind,
        /// `true` for a scatter-gather leg, `false` for a keyed route.
        scatter: bool,
    },
    /// A replica acknowledged its copy of a replicated write.
    Replicate {
        /// Acknowledgement instant.
        at: SimTime,
        /// The acknowledging shard.
        shard: u8,
        /// Replica acks in hand after this one, the owner's included.
        acked: u8,
        /// Whether this ack completed the write quorum.
        quorum: bool,
    },
    /// A scatter/keyed read was served away from the key's owner shard.
    ReadRepair {
        /// Repair instant.
        at: SimTime,
        /// The owner shard that missed (or was unreachable).
        shard: u8,
        /// `true` when the owner was degraded/unreachable (a degraded
        /// read), `false` when it was healthy but lagging.
        degraded: bool,
    },
}

/// A typed trace collector: disabled (free), bounded (ring, oldest events
/// drop and are counted), or unbounded (nothing ever drops — required when
/// downstream auditing must see every event).
///
/// # Examples
///
/// ```
/// use tsbus_obs::{TraceEvent, Tracer};
/// use tsbus_des::SimTime;
///
/// let mut tracer = Tracer::bounded(2);
/// for bits in [1, 2, 3] {
///     tracer.emit(TraceEvent::Backoff { at: SimTime::ZERO, bits });
/// }
/// assert_eq!(tracer.len(), 2);
/// assert_eq!(tracer.dropped(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Tracer<E> {
    events: VecDeque<E>,
    capacity: Option<usize>,
    enabled: bool,
    dropped: u64,
}

impl<E> Tracer<E> {
    /// A tracer that records nothing; [`emit`](Tracer::emit) is a no-op.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer {
            events: VecDeque::new(),
            capacity: None,
            enabled: false,
            dropped: 0,
        }
    }

    /// A ring keeping the most recent `capacity` events; older events are
    /// evicted and counted in [`dropped`](Tracer::dropped).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "a bounded tracer needs capacity");
        Tracer {
            events: VecDeque::with_capacity(capacity),
            capacity: Some(capacity),
            enabled: true,
            dropped: 0,
        }
    }

    /// A tracer that keeps every event. Use for audit streams whose
    /// consumers (e.g. the chaos invariant checker) must never observe a
    /// gap; [`dropped`](Tracer::dropped) stays zero by construction.
    #[must_use]
    pub fn unbounded() -> Self {
        Tracer {
            events: VecDeque::new(),
            capacity: None,
            enabled: true,
            dropped: 0,
        }
    }

    /// Whether events are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event (no-op when disabled).
    #[inline]
    pub fn emit(&mut self, event: E) {
        if self.enabled {
            self.push(event);
        }
    }

    /// The body of [`emit`](Self::emit), kept out of line so the disabled
    /// check inlines into every caller.
    #[cold]
    #[inline(never)]
    fn push(&mut self, event: E) {
        if let Some(capacity) = self.capacity {
            if self.events.len() == capacity {
                self.events.pop_front();
                self.dropped += 1;
            }
        }
        self.events.push_back(event);
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &E> {
        self.events.iter()
    }

    /// Number of events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted from a bounded ring since creation.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl<E> Default for Tracer<E> {
    fn default() -> Self {
        Tracer::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.emit(TraceEvent::TxnFailed {
            at: SimTime::ZERO,
            node: 1,
        });
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
        assert!(!t.is_enabled());
    }

    #[test]
    fn bounded_ring_evicts_oldest_and_counts() {
        let mut t = Tracer::bounded(3);
        for bits in 0..5u64 {
            t.emit(TraceEvent::Backoff {
                at: SimTime::from_nanos(bits),
                bits,
            });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let first = t.events().next().expect("non-empty");
        assert!(matches!(first, TraceEvent::Backoff { bits: 2, .. }));
    }

    #[test]
    fn unbounded_tracer_never_drops() {
        let mut t = Tracer::unbounded();
        for i in 0..10_000u64 {
            t.emit(TraceEvent::Backoff {
                at: SimTime::ZERO,
                bits: i,
            });
        }
        assert_eq!(t.len(), 10_000);
        assert_eq!(t.dropped(), 0);
    }
}
