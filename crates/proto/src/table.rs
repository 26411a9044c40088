//! The exactly-once outstanding-request table.
//!
//! Request identity in this stack is a `(client, seq)` pair ([PR 3's
//! envelope layer]); what the engine owns is the *client side* of that
//! contract, which the `ScriptedClient` and the `ShardRouter` had each
//! re-implemented:
//!
//! * [`SeqGen`] — fresh, never-reused sequence numbers (1-based).
//! * [`Watermark`] — the cumulative ack: every seq ≤ `ack` has its reply
//!   in hand, with out-of-order settlements parked above it. The servers
//!   retire their duplicate-cache entries against this watermark, so a
//!   failed request that never settles correctly stalls it.
//! * [`RequestTable`] — the in-flight map proper: one [`Entry`] per
//!   outstanding sub-request, carrying its attempt count and its
//!   [`EpochTimer`] so that bumping an attempt automatically stales
//!   every timer token of the previous one.
//!
//! [PR 3's envelope layer]: ../../tsbus_xmlwire/struct.RequestEnvelope.html

use std::collections::{BTreeMap, BTreeSet};

use crate::timer::{ArmToken, EpochTimer, TimerToken};

/// Fresh request sequence numbers, 1-based, never reused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqGen {
    next: u64,
}

impl Default for SeqGen {
    fn default() -> Self {
        SeqGen { next: 1 }
    }
}

impl SeqGen {
    /// A generator whose first draw is 1.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws the next fresh seq.
    pub fn fresh(&mut self) -> u64 {
        let seq = self.next;
        self.next += 1;
        seq
    }
}

/// The cumulative-ack watermark of the exactly-once layer.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Watermark {
    ack: u64,
    /// Settled seqs above the watermark (replies received out of order).
    settled: BTreeSet<u64>,
}

impl Watermark {
    /// A watermark with nothing settled.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The cumulative ack: every seq ≤ this has its reply in hand.
    #[must_use]
    pub fn ack(&self) -> u64 {
        self.ack
    }

    /// Records that the reply for `seq` is in hand, advancing the
    /// watermark over any now-contiguous prefix. Returns whether the seq
    /// was newly settled (`false` for duplicates of settled requests).
    pub fn settle(&mut self, seq: u64) -> bool {
        if seq <= self.ack || !self.settled.insert(seq) {
            return false;
        }
        while self.settled.remove(&(self.ack + 1)) {
            self.ack += 1;
        }
        true
    }
}

/// One outstanding request: its attempt count and epoch timer. The
/// request payload (`T`) is whatever the layer needs to resume it.
#[derive(Debug)]
pub struct Entry<T> {
    attempts: u32,
    timer: EpochTimer,
    /// Layer-owned resume state (role, target, encoded request, …).
    pub payload: T,
}

impl<T> Entry<T> {
    /// A first-attempt entry with a fresh timer.
    #[must_use]
    pub(crate) fn new(payload: T) -> Self {
        Entry {
            attempts: 1,
            timer: EpochTimer::new(),
            payload,
        }
    }

    /// Sends of this request so far (1 = no retry yet).
    #[must_use]
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Opens the next attempt: bumps the count and stales every timer
    /// token of the previous one. Returns the new attempt number.
    pub fn next_attempt(&mut self) -> u32 {
        self.attempts += 1;
        self.timer.bump();
        self.attempts
    }

    /// Stamps a reply-deadline token for the current attempt.
    #[must_use]
    pub fn stamp(&self) -> TimerToken {
        self.timer.stamp()
    }

    /// Whether a reply-deadline token still names the current attempt.
    #[must_use]
    pub fn is_current(&self, token: TimerToken) -> bool {
        self.timer.is_current(token)
    }

    /// Arms the retry delay; `None` while one is already pending.
    #[must_use]
    pub fn arm_retry(&mut self) -> Option<ArmToken> {
        self.timer.arm()
    }

    /// Fires the retry delay: `true` iff `token` is current and the
    /// delay was still armed (the firing consumes it).
    pub fn fire_retry(&mut self, token: ArmToken) -> bool {
        self.timer.fire(token)
    }
}

/// The outstanding-request table: seq allocation, the settlement
/// watermark, and the in-flight entries, in one place.
#[derive(Debug, Default)]
pub struct RequestTable<T> {
    seqs: SeqGen,
    watermark: Watermark,
    entries: BTreeMap<u64, Entry<T>>,
}

impl<T> RequestTable<T> {
    /// An empty table whose first request will be seq 1.
    #[must_use]
    pub fn new() -> Self {
        RequestTable {
            seqs: SeqGen::new(),
            watermark: Watermark::new(),
            entries: BTreeMap::new(),
        }
    }

    /// Registers a new first-attempt request under a fresh seq.
    pub fn open(&mut self, payload: T) -> u64 {
        let seq = self.seqs.fresh();
        self.entries.insert(seq, Entry::new(payload));
        seq
    }

    /// Re-registers a first-attempt request under an *existing*
    /// identity — e.g. a read-repair re-issuing the original write so a
    /// copy that did land is deduplicated rather than re-applied.
    pub fn restore(&mut self, seq: u64, payload: T) {
        self.entries.insert(seq, Entry::new(payload));
    }

    /// Moves an entry to a fresh seq, returning it (the exactly-once
    /// *ablation*: a retry under a fresh identity defeats the server's
    /// duplicate cache). `None` if `seq` is not outstanding.
    pub fn rekey(&mut self, seq: u64) -> Option<u64> {
        let entry = self.entries.remove(&seq)?;
        let fresh = self.seqs.fresh();
        self.entries.insert(fresh, entry);
        Some(fresh)
    }

    /// The outstanding entry under `seq`.
    #[must_use]
    pub fn get(&self, seq: u64) -> Option<&Entry<T>> {
        self.entries.get(&seq)
    }

    /// The outstanding entry under `seq`, mutably.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut Entry<T>> {
        self.entries.get_mut(&seq)
    }

    /// Closes and returns the entry under `seq`.
    pub fn remove(&mut self, seq: u64) -> Option<Entry<T>> {
        self.entries.remove(&seq)
    }

    /// Whether `seq` is outstanding.
    #[must_use]
    pub fn contains(&self, seq: u64) -> bool {
        self.entries.contains_key(&seq)
    }

    /// Iterates the outstanding entries in seq order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Entry<T>)> {
        self.entries.iter().map(|(seq, entry)| (*seq, entry))
    }

    /// Settles `seq` on the watermark (see [`Watermark::settle`]).
    pub fn settle(&mut self, seq: u64) -> bool {
        self.watermark.settle(seq)
    }

    /// The cumulative ack to stamp on outgoing envelopes.
    #[must_use]
    pub fn ack(&self) -> u64 {
        self.watermark.ack()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_advances_over_contiguous_prefixes_only() {
        let mut w = Watermark::new();
        assert!(w.settle(2));
        assert_eq!(w.ack(), 0, "seq 1 is still missing");
        assert!(w.settle(1));
        assert_eq!(w.ack(), 2, "the prefix closed");
        assert!(!w.settle(2), "duplicates of settled seqs are stale");
        assert!(!w.settle(1));
        assert!(w.settle(4));
        assert_eq!(w.ack(), 2, "a gap at 3 stalls the watermark");
    }

    #[test]
    fn attempts_stale_previous_tokens() {
        let mut entry = Entry::new(());
        let deadline = entry.stamp();
        let retry = entry.arm_retry().expect("arms");
        assert_eq!(entry.next_attempt(), 2);
        assert!(!entry.is_current(deadline));
        assert!(!entry.fire_retry(retry));
        assert!(entry.is_current(entry.stamp()));
    }

    #[test]
    fn table_allocates_restores_and_rekeys() {
        let mut table: RequestTable<&str> = RequestTable::new();
        let a = table.open("a");
        let b = table.open("b");
        assert_eq!((a, b), (1, 2));
        let moved = table.rekey(a).expect("outstanding");
        assert_eq!(moved, 3, "rekey draws a fresh identity");
        assert!(!table.contains(a));
        assert_eq!(table.get(moved).map(|e| e.payload), Some("a"));
        table.remove(b);
        table.restore(b, "b again");
        assert_eq!(table.get(b).map(|e| e.attempts()), Some(1));
        let seqs: Vec<u64> = table.iter().map(|(seq, _)| seq).collect();
        assert_eq!(seqs, vec![2, 3], "iteration is seq-ordered");
    }

    #[test]
    fn table_watermark_is_shared_state() {
        let mut table: RequestTable<()> = RequestTable::new();
        let seq = table.open(());
        assert_eq!(table.ack(), 0);
        assert!(table.settle(seq));
        assert_eq!(table.ack(), 1);
    }
}
