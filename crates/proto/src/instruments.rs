//! The standard `proto/*` instrument bundle.
//!
//! Before the engine, each layer counted the same lifecycle events
//! under drifted paths (`recovery/reply_timeouts` vs
//! `shard/reply_timeouts`, duplicated retry counters). The bundle pins
//! one taxonomy:
//!
//! | path                   | meaning                                        |
//! |------------------------|------------------------------------------------|
//! | `proto/retries`        | request re-issues (same identity unless ablated) |
//! | `proto/reply_timeouts` | attempts declared overdue by a reply deadline  |
//! | `proto/stale_replies`  | replies discarded by identity correlation      |
//! | `proto/fast_fails`     | attempts fenced off by supervision (lazy)      |
//! | `proto/parked_subops`  | requests parked against degraded targets       |
//! | `proto/queue_flushes`  | degraded-queue probe flushes                   |
//!
//! Per-layer views come from the snapshot layer, not from path drift: a
//! harness that merges several registries prefixes each one (e.g.
//! `client/proto/reply_timeouts` next to `router/proto/reply_timeouts`),
//! so `Snapshot::merge`/`diff`/`to_text` keep working unchanged.
//!
//! The bundle registers on a *caller-owned* registry so a layer's other
//! counters (lease bookkeeping, shard routing) live alongside it.

use tsbus_obs::{CounterId, Registry};

/// Counter handles for the `proto/*` taxonomy on one layer's registry.
#[derive(Debug)]
pub struct ProtoInstruments {
    /// `proto/retries`.
    pub retries: CounterId,
    /// `proto/reply_timeouts`.
    pub reply_timeouts: CounterId,
    /// `proto/stale_replies`.
    pub stale_replies: CounterId,
    /// `proto/fast_fails`; `None` until first booked (or registered
    /// eagerly by [`with_parking`](Self::with_parking)) so layers that
    /// never see supervision keep their exact snapshot layout.
    pub(crate) fast_fails: Option<CounterId>,
    /// `proto/parked_subops`; only parking layers register it.
    pub parked_subops: Option<CounterId>,
    /// `proto/queue_flushes`; only parking layers register it.
    pub queue_flushes: Option<CounterId>,
}

impl ProtoInstruments {
    /// Registers the core lifecycle counters; fast-fails stay lazy and
    /// the parking pair is absent.
    pub fn new(registry: &mut Registry) -> Self {
        ProtoInstruments {
            retries: registry.counter("proto/retries"),
            reply_timeouts: registry.counter("proto/reply_timeouts"),
            stale_replies: registry.counter("proto/stale_replies"),
            fast_fails: None,
            parked_subops: None,
            queue_flushes: None,
        }
    }

    /// Registers the full bundle, parking counters and eager fast-fails
    /// included — the shape of a layer that parks work against degraded
    /// targets (the shard router).
    pub fn with_parking(registry: &mut Registry) -> Self {
        let mut bundle = Self::new(registry);
        bundle.fast_fails = Some(registry.counter("proto/fast_fails"));
        bundle.parked_subops = Some(registry.counter("proto/parked_subops"));
        bundle.queue_flushes = Some(registry.counter("proto/queue_flushes"));
        bundle
    }

    /// Books one supervision fast-fail, registering the counter on
    /// first use.
    pub fn fast_fail(&mut self, registry: &mut Registry) {
        let id = match self.fast_fails {
            Some(id) => id,
            None => {
                let id = registry.counter("proto/fast_fails");
                self.fast_fails = Some(id);
                id
            }
        };
        registry.inc(id);
    }

    /// Fast-fails booked so far (0 while unregistered).
    #[must_use]
    pub fn fast_fail_count(&self, registry: &Registry) -> u64 {
        self.fast_fails.map_or(0, |id| registry.count(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_bundle_keeps_fast_fails_lazy() {
        let mut registry = Registry::new();
        let mut bundle = ProtoInstruments::new(&mut registry);
        registry.inc(bundle.retries);
        assert_eq!(bundle.fast_fail_count(&registry), 0);
        assert_eq!(registry.len(), 3, "lazy until booked");
        bundle.fast_fail(&mut registry);
        bundle.fast_fail(&mut registry);
        assert_eq!(bundle.fast_fail_count(&registry), 2);
        assert_eq!(registry.len(), 4);
    }

    #[test]
    fn parking_bundle_registers_everything_eagerly() {
        let mut registry = Registry::new();
        let bundle = ProtoInstruments::with_parking(&mut registry);
        assert_eq!(registry.len(), 6);
        assert!(bundle.fast_fails.is_some());
        assert!(bundle.parked_subops.is_some());
        assert!(bundle.queue_flushes.is_some());
    }
}
