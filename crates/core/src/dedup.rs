//! Server-side duplicate suppression: the bounded reply cache that turns
//! at-least-once delivery (client re-issue over a lossy bus) into
//! exactly-once application.
//!
//! Each client stamps its operations with a [`RequestId`] `(client, seq)`
//! and carries a cumulative ack watermark on every request ("I have the
//! replies for every seq ≤ ack"). The server [`admit`](DedupCache::admit)s
//! each incoming envelope: a fresh id is applied and its reply cached; a
//! re-delivered id is answered from the cache without re-applying; ids at
//! or below the watermark have been evicted — the client already holds
//! their replies, so late duplicates are dropped outright. The watermark
//! is what keeps the cache bounded: it holds only the replies the client
//! has not yet confirmed, which under a stop-and-wait client is O(1) per
//! client.

use std::collections::{BTreeMap, HashMap};

use tsbus_xmlwire::{RequestId, Response};

/// The verdict on an incoming identified request.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Admission {
    /// Never seen: apply the operation (and [`complete`](DedupCache::complete)
    /// it once the reply is known).
    Fresh,
    /// A duplicate of an operation that is admitted but has no reply yet
    /// (it is still being serviced, or parked as a waiter): drop the
    /// duplicate — the eventual reply answers both deliveries.
    InFlight,
    /// A duplicate of a completed operation: re-send this cached reply
    /// instead of re-applying.
    Replay(Response),
    /// A duplicate of an operation whose reply the client has already
    /// cumulatively acked: drop it, nothing to do.
    Acked,
}

#[derive(Debug, Default)]
struct ClientWindow {
    /// Highest cumulative ack received from this client: every seq ≤ ack
    /// has had its reply delivered, so its cache entry is evicted.
    ack: u64,
    /// Outstanding operations above the watermark: `None` while the op is
    /// being serviced, `Some(reply)` once completed.
    entries: BTreeMap<u64, Option<Response>>,
}

/// Per-client duplicate cache with cumulative-ack eviction.
#[derive(Debug, Default)]
pub(crate) struct DedupCache {
    clients: HashMap<u64, ClientWindow>,
}

impl DedupCache {
    /// Creates an empty cache.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Admits one identified request carrying the client's current ack
    /// watermark. Evicts every cached reply at or below the watermark,
    /// then classifies the request.
    pub(crate) fn admit(&mut self, id: RequestId, ack: u64) -> Admission {
        let window = self.clients.entry(id.client).or_default();
        if ack > window.ack {
            window.ack = ack;
            // Cumulative ack: every reply ≤ ack reached the client, so
            // those cache entries can never be needed again.
            window.entries = window.entries.split_off(&(ack + 1));
        }
        if id.seq <= window.ack {
            return Admission::Acked;
        }
        match window.entries.get(&id.seq) {
            None => {
                window.entries.insert(id.seq, None);
                Admission::Fresh
            }
            Some(None) => Admission::InFlight,
            Some(Some(reply)) => Admission::Replay(reply.clone()),
        }
    }

    /// Records the reply of a previously admitted operation, making it
    /// replayable for later duplicates.
    pub(crate) fn complete(&mut self, id: RequestId, response: &Response) {
        if let Some(window) = self.clients.get_mut(&id.client) {
            if id.seq > window.ack {
                window.entries.insert(id.seq, Some(response.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn id(client: u64, seq: u64) -> RequestId {
        RequestId { client, seq }
    }

    fn reply(n: u64) -> Response {
        Response::Count { count: n }
    }

    #[test]
    fn fresh_then_replay_then_evict() {
        let mut cache = DedupCache::new();
        assert_eq!(cache.admit(id(1, 1), 0), Admission::Fresh);
        assert_eq!(cache.admit(id(1, 1), 0), Admission::InFlight);
        cache.complete(id(1, 1), &reply(7));
        assert_eq!(cache.admit(id(1, 1), 0), Admission::Replay(reply(7)));
        // The client acks seq 1; the entry is evicted and late duplicates
        // are dropped.
        assert_eq!(cache.admit(id(1, 2), 1), Admission::Fresh);
        assert_eq!(cache.admit(id(1, 1), 1), Admission::Acked);
        assert_eq!(
            cache
                .clients
                .values()
                .map(|w| w.entries.len())
                .sum::<usize>(),
            1,
            "only seq 2 remains cached"
        );
    }

    #[test]
    fn clients_are_independent() {
        let mut cache = DedupCache::new();
        assert_eq!(cache.admit(id(1, 1), 0), Admission::Fresh);
        assert_eq!(cache.admit(id(2, 1), 0), Admission::Fresh);
        cache.complete(id(1, 1), &reply(1));
        assert_eq!(cache.admit(id(2, 1), 0), Admission::InFlight);
        assert_eq!(cache.admit(id(1, 1), 0), Admission::Replay(reply(1)));
    }

    #[test]
    fn stale_ack_does_not_regress_the_watermark() {
        let mut cache = DedupCache::new();
        assert_eq!(cache.admit(id(1, 1), 0), Admission::Fresh);
        cache.complete(id(1, 1), &reply(1));
        assert_eq!(cache.admit(id(1, 2), 1), Admission::Fresh);
        // A reordered older request with a lower ack must not resurrect
        // evicted state or regress the watermark.
        assert_eq!(cache.admit(id(1, 1), 0), Admission::Acked);
        assert_eq!(cache.admit(id(1, 2), 0), Admission::InFlight);
    }

    /// One queued copy of a request on the simulated wire.
    #[derive(Debug, Clone, Copy)]
    struct Delivery {
        seq: u64,
        /// The client's cumulative watermark at send time.
        ack: u64,
    }

    proptest! {
        /// Random interleavings of duplication, loss and reordering: the
        /// server applies every operation at most once, replays are always
        /// the op's own reply, and an entry is only ever evicted once the
        /// client really holds its reply (no needed reply disappears).
        #[test]
        fn interleavings_never_reapply_or_evict_needed_replies(
            // Each step: (which queued copy to deliver, drop-reply?,
            // resend-budget usage) driven by these random streams.
            choices in proptest::collection::vec((any::<u16>(), any::<bool>()), 1..200),
            n_ops in 1u64..12,
        ) {
            let mut cache = DedupCache::new();
            let client = 42u64;

            // Client-side model.
            let mut received: Vec<bool> = vec![false; n_ops as usize + 1];
            let ack_of = |received: &[bool]| -> u64 {
                let mut ack = 0;
                while (ack as usize) < n_ops as usize && received[ack as usize + 1] {
                    ack += 1;
                }
                ack
            };
            let mut applied: Vec<u32> = vec![0; n_ops as usize + 1];
            // Seed the wire with one copy of each op (sent optimistically;
            // resends are injected as the walk proceeds).
            let mut wire: Vec<Delivery> = (1..=n_ops).map(|seq| Delivery { seq, ack: 0 }).collect();

            for (pick, drop_reply) in choices {
                if wire.is_empty() {
                    // Everything drained: resend every unsettled op (the
                    // client's reply timeout firing).
                    let ack = ack_of(&received);
                    wire.extend(
                        (1..=n_ops)
                            .filter(|&s| !received[s as usize])
                            .map(|seq| Delivery { seq, ack }),
                    );
                    if wire.is_empty() {
                        break; // all replies delivered
                    }
                }
                let i = usize::from(pick) % wire.len();
                // Duplicate roughly half the deliveries instead of
                // consuming them (models bus-level duplication/retry).
                let copy = if pick % 2 == 0 {
                    wire[i]
                } else {
                    wire.swap_remove(i)
                };

                let reply_for_client = match cache.admit(id(client, copy.seq), copy.ack) {
                    Admission::Fresh => {
                        applied[copy.seq as usize] += 1;
                        let r = reply(copy.seq);
                        cache.complete(id(client, copy.seq), &r);
                        Some(r)
                    }
                    Admission::InFlight => None,
                    Admission::Replay(r) => {
                        prop_assert_eq!(
                            &r, &reply(copy.seq),
                            "a replay must be the op's own cached reply"
                        );
                        Some(r)
                    }
                    Admission::Acked => {
                        // Eviction safety: the watermark only ever covers
                        // replies the client has truly received.
                        prop_assert!(
                            received[copy.seq as usize],
                            "seq {} dropped as acked but the client never got its reply",
                            copy.seq
                        );
                        None
                    }
                };
                if let Some(r) = reply_for_client {
                    prop_assert_eq!(&r, &reply(copy.seq));
                    if !drop_reply {
                        received[copy.seq as usize] = true;
                    }
                }
            }

            for seq in 1..=n_ops {
                prop_assert!(
                    applied[seq as usize] <= 1,
                    "op {} applied {} times",
                    seq,
                    applied[seq as usize]
                );
            }
            // The cache stays bounded by the unacked window.
            prop_assert!(cache.clients.values().map(|w| w.entries.len()).sum::<usize>() <= n_ops as usize);
        }
    }
}
