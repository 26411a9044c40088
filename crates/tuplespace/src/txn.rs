//! Transactions — the JavaSpaces feature the paper's middleware inherits
//! from its model ([2] Sun Microsystems, JavaSpaces).
//!
//! A transaction groups writes and takes so they commit or abort
//! atomically:
//!
//! * a tuple **written under** a transaction is visible only inside it
//!   until commit;
//! * a tuple **taken under** a transaction disappears from everyone else's
//!   view immediately, but is reinstated (original timestamp and lease) if
//!   the transaction aborts;
//! * notifications fire only for effects that actually commit.
//!
//! Simplification relative to full JavaSpaces (documented per DESIGN.md):
//! transactions themselves are not leased — their callers control
//! transaction lifetimes directly, so distributed transaction-manager
//! crash recovery is out of scope.

use std::collections::HashMap;

use tsbus_des::SimTime;

use crate::space::{EntryId, EventKind, Lease, Space};
use crate::template::Template;
use crate::tuple::Tuple;

/// Identifies an open transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxnId(pub(crate) u64);

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "txn#{}", self.0)
    }
}

/// Error: the transaction id is unknown (already committed or aborted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownTxn(pub TxnId);

impl std::fmt::Display for UnknownTxn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} is not an open transaction", self.0)
    }
}

impl std::error::Error for UnknownTxn {}

/// A tuple taken from the shared store, held for possible reinstatement.
#[derive(Debug, Clone)]
pub(crate) struct HeldEntry {
    /// Original insertion sequence (= timestamp-order key); reinstatement
    /// restores it so the total order survives aborts.
    pub seq: u64,
    pub tuple: Tuple,
    pub lease: Lease,
    pub written_at: SimTime,
}

/// Buffered state of one open transaction.
#[derive(Debug, Clone, Default)]
pub(crate) struct TxnState {
    /// Writes visible only inside the transaction until commit.
    pub writes: Vec<(Tuple, Lease)>,
    /// Entries taken from the shared store, reinstated on abort.
    pub taken: Vec<HeldEntry>,
}

/// The transaction registry shared by [`Space`]'s `txn_*` methods.
#[derive(Debug, Clone, Default)]
pub(crate) struct TxnRegistry {
    open: HashMap<u64, TxnState>,
    next: u64,
}

impl TxnRegistry {
    pub fn begin(&mut self) -> TxnId {
        let id = TxnId(self.next);
        self.next += 1;
        self.open.insert(id.0, TxnState::default());
        id
    }

    pub fn get_mut(&mut self, id: TxnId) -> Result<&mut TxnState, UnknownTxn> {
        self.open.get_mut(&id.0).ok_or(UnknownTxn(id))
    }

    pub fn close(&mut self, id: TxnId) -> Result<TxnState, UnknownTxn> {
        self.open.remove(&id.0).ok_or(UnknownTxn(id))
    }

    pub fn open_count(&self) -> usize {
        self.open.len()
    }
}

impl Space {
    /// Opens a transaction.
    ///
    /// # Examples
    ///
    /// ```
    /// use tsbus_des::SimTime;
    /// use tsbus_tuplespace::{template, tuple, Lease, Space};
    ///
    /// let mut space = Space::new();
    /// let now = SimTime::ZERO;
    /// let txn = space.txn_begin();
    /// space.txn_write(txn, tuple!["staged"], Lease::Forever, now)?;
    /// // Not yet visible outside the transaction:
    /// assert!(space.read(&template!["staged"], now).is_none());
    /// space.txn_commit(txn, now)?;
    /// assert!(space.read(&template!["staged"], now).is_some());
    /// # Ok::<(), tsbus_tuplespace::UnknownTxn>(())
    /// ```
    pub fn txn_begin(&mut self) -> TxnId {
        self.txns_mut().begin()
    }

    /// Number of currently open transactions.
    #[must_use]
    pub fn open_txns(&self) -> usize {
        self.txns().open_count()
    }

    /// Writes `tuple` under the transaction: visible inside it immediately,
    /// to everyone else at commit.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownTxn`] if the transaction is not open.
    pub fn txn_write(
        &mut self,
        txn: TxnId,
        tuple: Tuple,
        lease: Lease,
        _now: SimTime,
    ) -> Result<(), UnknownTxn> {
        self.txns_mut().get_mut(txn)?.writes.push((tuple, lease));
        Ok(())
    }

    /// Reads the oldest match visible to the transaction: the shared store
    /// first (global timestamp order), then the transaction's own pending
    /// writes.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownTxn`] if the transaction is not open.
    pub fn txn_read(
        &mut self,
        txn: TxnId,
        template: &Template,
        now: SimTime,
    ) -> Result<Option<Tuple>, UnknownTxn> {
        if let Some(found) = self.read(template, now) {
            // Ensure the txn is open even on the shared-store path.
            let _ = self.txns_mut().get_mut(txn)?;
            return Ok(Some(found));
        }
        let state = self.txns_mut().get_mut(txn)?;
        Ok(state
            .writes
            .iter()
            .map(|(tuple, _)| tuple)
            .find(|tuple| template.matches(tuple))
            .cloned())
    }

    /// Takes the oldest visible match under the transaction. A take from
    /// the shared store hides the entry from other agents at once (and
    /// reinstates it, original timestamp and lease, if the transaction
    /// aborts); a take of the transaction's own pending write simply
    /// unstages it.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownTxn`] if the transaction is not open.
    pub fn txn_take(
        &mut self,
        txn: TxnId,
        template: &Template,
        now: SimTime,
    ) -> Result<Option<Tuple>, UnknownTxn> {
        // Shared store first (it holds the globally oldest entries).
        if let Some(held) = self.take_entry_for_txn(template, now) {
            let state = self.txns_mut().get_mut(txn)?;
            let tuple = held.tuple.clone();
            state.taken.push(held);
            return Ok(Some(tuple));
        }
        let state = self.txns_mut().get_mut(txn)?;
        if let Some(pos) = state
            .writes
            .iter()
            .position(|(tuple, _)| template.matches(tuple))
        {
            let (tuple, _) = state.writes.remove(pos);
            return Ok(Some(tuple));
        }
        Ok(None)
    }

    /// Commits: pending writes become visible (fresh commit-time
    /// timestamps), taken entries are gone for good, and notifications
    /// fire for both.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownTxn`] if the transaction is not open.
    pub fn txn_commit(&mut self, txn: TxnId, now: SimTime) -> Result<(), UnknownTxn> {
        let state = self.txns_mut().close(txn)?;
        for (tuple, lease) in state.writes {
            let _: EntryId = self.write(tuple, lease, now);
        }
        for held in state.taken {
            // The `Taken` notification deferred to commit time.
            let id = EntryId::from_seq(held.seq);
            self.notify(EventKind::Taken, id, &held.tuple, now);
        }
        Ok(())
    }

    /// Aborts: pending writes vanish, taken entries are reinstated with
    /// their original timestamps and leases (unless their lease has
    /// meanwhile run out, in which case they expire immediately).
    ///
    /// # Errors
    ///
    /// Returns [`UnknownTxn`] if the transaction is not open.
    pub fn txn_abort(&mut self, txn: TxnId, now: SimTime) -> Result<(), UnknownTxn> {
        let state = self.txns_mut().close(txn)?;
        for held in state.taken {
            self.reinstate_entry(held, now);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueType;
    use crate::{template, tuple};

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn txn_writes_are_invisible_until_commit() {
        let mut space = Space::new();
        let txn = space.txn_begin();
        space
            .txn_write(txn, tuple!["w", 1], Lease::Forever, t(0))
            .expect("open");
        assert!(space.read(&template!["w", ValueType::Int], t(0)).is_none());
        // ...but visible inside the transaction.
        assert_eq!(
            space
                .txn_read(txn, &template!["w", ValueType::Int], t(0))
                .expect("open"),
            Some(tuple!["w", 1])
        );
        space.txn_commit(txn, t(1)).expect("open");
        assert_eq!(
            space.read(&template!["w", ValueType::Int], t(1)),
            Some(tuple!["w", 1])
        );
        assert_eq!(space.open_txns(), 0);
    }

    #[test]
    fn aborted_writes_never_existed() {
        let mut space = Space::new();
        let sub = space.subscribe(template!["w", ValueType::Int], [EventKind::Written]);
        let _ = sub;
        let txn = space.txn_begin();
        space
            .txn_write(txn, tuple!["w", 1], Lease::Forever, t(0))
            .expect("open");
        space.txn_abort(txn, t(1)).expect("open");
        assert!(space.read(&template!["w", ValueType::Int], t(1)).is_none());
        assert!(
            space.drain_notifications().is_empty(),
            "no Written event for an aborted write"
        );
    }

    #[test]
    fn txn_take_hides_from_others_and_reinstates_on_abort() {
        let mut space = Space::new();
        space.write(tuple!["shared"], Lease::Until(t(100)), t(0));
        let txn = space.txn_begin();
        let got = space
            .txn_take(txn, &template!["shared"], t(1))
            .expect("open");
        assert_eq!(got, Some(tuple!["shared"]));
        // Hidden from everyone else while the transaction is open.
        assert!(space.read(&template!["shared"], t(1)).is_none());
        space.txn_abort(txn, t(2)).expect("open");
        // Back, with its original lease still honoured.
        assert!(space.read(&template!["shared"], t(99)).is_some());
        assert!(space.read(&template!["shared"], t(100)).is_none());
    }

    #[test]
    fn committed_take_is_final_and_notifies() {
        let mut space = Space::new();
        space.write(tuple!["shared"], Lease::Forever, t(0));
        let _sub = space.subscribe(template!["shared"], [EventKind::Taken]);
        space.drain_notifications(); // clear the Written-side noise if any
        let txn = space.txn_begin();
        let _ = space
            .txn_take(txn, &template!["shared"], t(1))
            .expect("open");
        assert!(
            space.drain_notifications().is_empty(),
            "Taken fires at commit, not at the provisional take"
        );
        space.txn_commit(txn, t(2)).expect("open");
        let events = space.drain_notifications();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Taken);
        assert!(space.read(&template!["shared"], t(3)).is_none());
    }

    #[test]
    fn reinstated_entry_keeps_its_timestamp_order() {
        let mut space = Space::new();
        space.write(tuple!["q", 1], Lease::Forever, t(0));
        space.write(tuple!["q", 2], Lease::Forever, t(1));
        let txn = space.txn_begin();
        // Take the oldest under the txn, then abort: it must come back as
        // the oldest, not jump behind q2.
        let got = space
            .txn_take(txn, &template!["q", ValueType::Int], t(2))
            .expect("open");
        assert_eq!(got, Some(tuple!["q", 1]));
        space.txn_abort(txn, t(3)).expect("open");
        assert_eq!(
            space.take(&template!["q", ValueType::Int], t(4)),
            Some(tuple!["q", 1]),
            "reinstatement preserves the total order"
        );
    }

    #[test]
    fn take_own_pending_write_unstages_it() {
        let mut space = Space::new();
        let txn = space.txn_begin();
        space
            .txn_write(txn, tuple!["mine"], Lease::Forever, t(0))
            .expect("open");
        let got = space.txn_take(txn, &template!["mine"], t(0)).expect("open");
        assert_eq!(got, Some(tuple!["mine"]));
        space.txn_commit(txn, t(1)).expect("open");
        assert!(
            space.read(&template!["mine"], t(1)).is_none(),
            "write + take inside one txn cancels out"
        );
    }

    #[test]
    fn expired_held_entry_does_not_resurrect() {
        let mut space = Space::new();
        space.write(tuple!["ttl"], Lease::Until(t(5)), t(0));
        let txn = space.txn_begin();
        let _ = space.txn_take(txn, &template!["ttl"], t(1)).expect("open");
        // Abort after the lease deadline: the entry must not come back.
        space.txn_abort(txn, t(10)).expect("open");
        assert!(space.read(&template!["ttl"], t(10)).is_none());
        assert_eq!(space.stats().expirations, 1);
    }

    #[test]
    fn closed_transactions_are_rejected() {
        let mut space = Space::new();
        let txn = space.txn_begin();
        space.txn_commit(txn, t(0)).expect("first close works");
        assert_eq!(space.txn_commit(txn, t(1)), Err(UnknownTxn(txn)));
        assert_eq!(space.txn_abort(txn, t(1)), Err(UnknownTxn(txn)));
        assert_eq!(
            space.txn_write(txn, tuple![1], Lease::Forever, t(1)),
            Err(UnknownTxn(txn))
        );
        assert_eq!(
            space.txn_take(txn, &template![1], t(1)),
            Err(UnknownTxn(txn))
        );
    }

    #[test]
    fn two_transactions_cannot_take_the_same_entry() {
        let mut space = Space::new();
        space.write(tuple!["contended"], Lease::Forever, t(0));
        let a = space.txn_begin();
        let b = space.txn_begin();
        let got_a = space
            .txn_take(a, &template!["contended"], t(1))
            .expect("open");
        let got_b = space
            .txn_take(b, &template!["contended"], t(1))
            .expect("open");
        assert!(got_a.is_some());
        assert!(got_b.is_none(), "the entry is held by transaction a");
        // a aborts: b can now get it.
        space.txn_abort(a, t(2)).expect("open");
        let got_b2 = space
            .txn_take(b, &template!["contended"], t(3))
            .expect("open");
        assert!(got_b2.is_some());
        space.txn_commit(b, t(4)).expect("open");
        assert!(space.read(&template!["contended"], t(5)).is_none());
    }
}
