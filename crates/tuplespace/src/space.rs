//! The tuplespace itself: a leased, associatively-addressed tuple store
//! with deterministic (timestamp) ordering, subscribe/notify events and
//! parked blocking reads and takes.
//!
//! [`Space`] is *passive* with respect to time: every operation takes the
//! current instant explicitly (a [`SimTime`] of the discrete-event
//! simulation), and it never schedules anything itself.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use tsbus_des::SimTime;
use tsbus_obs::{CounterId, Registry, Tracer};

use crate::template::{Pattern, Template};
use crate::tuple::Tuple;
use crate::value::Value;

/// Identifies an entry while it lives in a space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntryId(u64);

impl fmt::Display for EntryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "entry#{}", self.0)
    }
}

/// Identifies a continuation waiting in a space: a subscription from
/// [`Space::subscribe`] or a parked read or take from [`Space::park`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriptionId(u64);

/// The one-shot operation a wait parked by [`Space::park`] completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// Gets a clone of the first matching live write.
    Read,
    /// Removes the first matching live write.
    Take,
}

impl fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub#{}", self.0)
    }
}

/// How long a written entry stays alive.
///
/// The paper's Table 4 experiment leases entries for 160 s; a `take` that
/// arrives after the lease expired finds nothing ("only if the entry
/// lifetime is not out-of-date").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Lease {
    /// The entry never expires.
    #[default]
    Forever,
    /// The entry expires at the given absolute instant.
    Until(SimTime),
}

impl Lease {
    /// A lease expiring `duration` after `now`.
    #[must_use]
    pub fn for_duration(now: SimTime, duration: tsbus_des::SimDuration) -> Lease {
        Lease::Until(now.saturating_add(duration))
    }

    /// Whether the lease is still alive at `now` (expiry is exclusive: an
    /// entry leased *until* t is gone *at* t).
    #[must_use]
    pub(crate) fn is_alive(&self, now: SimTime) -> bool {
        match self {
            Lease::Forever => true,
            Lease::Until(deadline) => now < *deadline,
        }
    }
}

/// What happened to an entry — delivered to matching subscriptions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The entry was written into the space.
    Written,
    /// The entry was removed by a `take`.
    Taken,
    /// The entry's lease ran out.
    Expired,
}

/// A notification produced for one subscription.
#[derive(Debug, Clone)]
pub struct Notification {
    /// The subscription this notification is for.
    pub subscription: SubscriptionId,
    /// What happened.
    pub kind: EventKind,
    /// The entry involved.
    pub entry: EntryId,
    /// The tuple involved (cloned; the entry itself may be gone).
    pub tuple: Tuple,
    /// When it happened.
    pub at: SimTime,
}

#[derive(Debug, Clone)]
struct Entry {
    id: EntryId,
    tuple: Tuple,
    lease: Lease,
}

/// A subscription or a parked one-shot read or take.
#[derive(Debug, Clone)]
struct Continuation {
    id: SubscriptionId,
    template: Template,
    /// Set for a parked read or take, which only writes complete.
    once: Option<WaitKind>,
    /// The event kinds a subscription hears of (none for a parked wait).
    kinds: Vec<EventKind>,
}

/// Aggregate operation counters of a space, read back from its registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceStats {
    /// Entries written.
    pub writes: u64,
    /// Successful reads.
    pub reads: u64,
    /// Successful takes.
    pub takes: u64,
    /// Reads/takes that found no matching live entry.
    pub misses: u64,
    /// Entries that expired before being taken.
    pub expirations: u64,
    /// Entries whose lease was extended by a renewal.
    pub(crate) renewals: u64,
}

/// The space's instrument set: one registry with a handle per operation
/// counter (`op/writes`, `op/takes`, ...).
#[derive(Debug, Clone)]
struct SpaceInstruments {
    registry: Registry,
    writes: CounterId,
    reads: CounterId,
    takes: CounterId,
    misses: CounterId,
    expirations: CounterId,
    renewals: CounterId,
}

impl Default for SpaceInstruments {
    fn default() -> Self {
        let mut registry = Registry::new();
        let writes = registry.counter("op/writes");
        let reads = registry.counter("op/reads");
        let takes = registry.counter("op/takes");
        let misses = registry.counter("op/misses");
        let expirations = registry.counter("op/expirations");
        let renewals = registry.counter("op/renewals");
        SpaceInstruments {
            registry,
            writes,
            reads,
            takes,
            misses,
            expirations,
            renewals,
        }
    }
}

impl SpaceInstruments {
    fn stats(&self) -> SpaceStats {
        SpaceStats {
            writes: self.registry.count(self.writes),
            reads: self.registry.count(self.reads),
            takes: self.registry.count(self.takes),
            misses: self.registry.count(self.misses),
            expirations: self.registry.count(self.expirations),
            renewals: self.registry.count(self.renewals),
        }
    }
}

/// One line of a space's audit trail (see [`Space::enable_audit`]): the
/// ground-truth history of entry lifecycle events, independent of any
/// subscription. Chaos harnesses compare delivered notifications and
/// client-observed results against this record.
#[derive(Debug, Clone)]
pub struct AuditRecord {
    /// What happened.
    pub kind: EventKind,
    /// The entry involved.
    pub entry: EntryId,
    /// The tuple involved.
    pub tuple: Tuple,
    /// When it happened.
    pub at: SimTime,
}

/// A tuplespace: an unstructured, associatively-addressed, leased tuple
/// store.
///
/// Entries are totally ordered by write timestamp (insertion sequence
/// breaks ties), per the paper's footnote 1; `read`/`take` return the
/// *oldest* live match, which makes producer/consumer patterns FIFO.
///
/// Whatever waits for future tuples is a continuation in one store, in
/// arrival order: subscriptions ([`subscribe`](Space::subscribe)) and
/// parked reads and takes ([`park`](Space::park)). A write matches only
/// the new tuple against them: a read or take parks only when nothing
/// matches it, and only writes add entries.
///
/// # Examples
///
/// ```
/// use tsbus_des::SimTime;
/// use tsbus_tuplespace::{template, tuple, Lease, Space, ValueType};
///
/// let mut space = Space::new();
/// let now = SimTime::ZERO;
/// space.write(tuple!["job", 1], Lease::Forever, now);
/// space.write(tuple!["job", 2], Lease::Forever, now);
///
/// let tpl = template!["job", ValueType::Int];
/// let first = space.take(&tpl, now).expect("a job is queued");
/// assert_eq!(first, tuple!["job", 1]); // oldest first
/// assert_eq!(space.len(now), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Space {
    /// Live entries, keyed by insertion sequence (= timestamp order).
    entries: BTreeMap<u64, Entry>,
    /// Subscriptions and parked reads/takes, in arrival order.
    continuations: Vec<Continuation>,
    pending: Vec<Notification>,
    /// Parked waits completed since the last drain, in wake order.
    woken: Vec<(SubscriptionId, Tuple)>,
    next_entry: u64,
    next_subscription: u64,
    obs: SpaceInstruments,
    /// The lifecycle audit stream: disabled by default, switched to an
    /// unbounded tracer by [`enable_audit`](Space::enable_audit) so
    /// downstream invariant checkers never observe a gap.
    audit: Tracer<AuditRecord>,
    /// Whether the secondary indexes below are maintained and consulted.
    /// On by default; the scan-only mode exists for the perf harness's
    /// ablation baseline and the index-equivalence property tests.
    indexed: bool,
    /// Value index per field position, built the first time a template
    /// fixes that position with [`Pattern::Exact`] and kept current from
    /// then on. Each bucket holds the insertion seqs of the live entries
    /// carrying that value at that position, in `BTreeSet` (= timestamp)
    /// order, so indexed matching keeps the oldest-match-first contract.
    value_index: Vec<Option<HashMap<Value, BTreeSet<u64>>>>,
    /// Deadline index over `Lease::Until` entries, ordered `(deadline,
    /// seq)`: the expiry sweep pops only due entries and `next_deadline`
    /// is a first-element lookup.
    deadlines: BTreeSet<(SimTime, u64)>,
}

impl Default for Space {
    fn default() -> Self {
        Self::new()
    }
}

/// Where a template lookup finds its candidate entries.
enum Candidates<'a> {
    /// No position the template fixes is indexed; fall back to a full scan.
    Scan,
    /// The template fixes an indexed position to a value no live entry
    /// carries there.
    Empty,
    /// The smallest bucket among the template's indexed exact positions.
    Bucket(&'a BTreeSet<u64>),
}

/// Adds `seq` to `value`'s bucket, cloning the value only for a new bucket.
fn insert_into_bucket(index: &mut HashMap<Value, BTreeSet<u64>>, value: &Value, seq: u64) {
    match index.get_mut(value) {
        Some(bucket) => {
            bucket.insert(seq);
        }
        None => {
            index.insert(value.clone(), BTreeSet::from([seq]));
        }
    }
}

impl Space {
    /// Creates an empty space with indexed matching on.
    #[must_use]
    pub fn new() -> Self {
        Space {
            entries: BTreeMap::new(),
            continuations: Vec::new(),
            pending: Vec::new(),
            woken: Vec::new(),
            next_entry: 0,
            next_subscription: 0,
            obs: SpaceInstruments::default(),
            audit: Tracer::disabled(),
            indexed: true,
            value_index: Vec::new(),
            deadlines: BTreeSet::new(),
        }
    }

    /// Creates an empty space that matches by linear scan only — the
    /// pre-index behaviour, kept as the ablation baseline and as the oracle
    /// the index-equivalence property tests compare against.
    #[must_use]
    pub fn unindexed() -> Self {
        let mut space = Self::new();
        space.indexed = false;
        space
    }

    /// Switches indexed matching on or off, rebuilding (or dropping) the
    /// indexes over the current entries. Matching results are identical
    /// either way; only lookup cost changes.
    pub fn set_indexed(&mut self, indexed: bool) {
        if self.indexed == indexed {
            return;
        }
        self.indexed = indexed;
        // Value indexes come back lazily, on the next template that needs one.
        self.value_index.clear();
        self.deadlines.clear();
        if indexed {
            for (&seq, entry) in &self.entries {
                if let Lease::Until(deadline) = entry.lease {
                    self.deadlines.insert((deadline, seq));
                }
            }
        }
    }

    /// Adds a (not yet inserted) entry to the secondary indexes.
    fn index_entry(&mut self, seq: u64, entry: &Entry) {
        if !self.indexed {
            return;
        }
        for (index, value) in self.value_index.iter_mut().zip(entry.tuple.iter()) {
            if let Some(index) = index {
                insert_into_bucket(index, value, seq);
            }
        }
        if let Lease::Until(deadline) = entry.lease {
            self.deadlines.insert((deadline, seq));
        }
    }

    /// Removes an entry from the store and the secondary indexes.
    fn remove_entry(&mut self, seq: u64) -> Entry {
        let entry = self.entries.remove(&seq).expect("caller found this seq");
        if self.indexed {
            for (index, value) in self.value_index.iter_mut().zip(entry.tuple.iter()) {
                if let Some(index) = index {
                    if let Some(bucket) = index.get_mut(value) {
                        bucket.remove(&seq);
                        if bucket.is_empty() {
                            index.remove(value);
                        }
                    }
                }
            }
            if let Lease::Until(deadline) = entry.lease {
                self.deadlines.remove(&(deadline, seq));
            }
        }
        entry
    }

    /// Builds the value index of every position `template` fixes with
    /// [`Pattern::Exact`] that has none yet, over the current entries.
    fn index_exact_positions(&mut self, template: &Template) {
        if !self.indexed {
            return;
        }
        for (pos, pattern) in template.patterns().iter().enumerate() {
            if !matches!(pattern, Pattern::Exact(_)) {
                continue;
            }
            if self.value_index.len() <= pos {
                self.value_index.resize_with(pos + 1, || None);
            }
            if self.value_index[pos].is_some() {
                continue;
            }
            let mut index: HashMap<Value, BTreeSet<u64>> = HashMap::new();
            for (&seq, entry) in &self.entries {
                if let Some(value) = entry.tuple.field(pos) {
                    insert_into_bucket(&mut index, value, seq);
                }
            }
            self.value_index[pos] = Some(index);
        }
    }

    /// Where to look for entries matching `template`.
    ///
    /// A position's bucket is usable whenever the template has
    /// [`Pattern::Exact`] there and that position is indexed: equal-arity
    /// matching then guarantees every match carries that value, and every
    /// entry long enough to have the field is indexed, so the bucket is
    /// complete. The smallest such bucket wins; a missing bucket means no
    /// match. Templates that fix no indexed position fall back to the scan.
    fn candidates(&self, template: &Template) -> Candidates<'_> {
        if !self.indexed {
            return Candidates::Scan;
        }
        let mut best: Option<&BTreeSet<u64>> = None;
        for (pattern, index) in template.patterns().iter().zip(&self.value_index) {
            let (Pattern::Exact(value), Some(index)) = (pattern, index) else {
                continue;
            };
            match index.get(value) {
                None => return Candidates::Empty,
                Some(bucket) if best.is_none_or(|best| bucket.len() < best.len()) => {
                    best = Some(bucket);
                }
                Some(_) => {}
            }
        }
        best.map_or(Candidates::Scan, Candidates::Bucket)
    }

    /// The entries matching `template` with their insertion seqs, oldest
    /// first, drawn from [`candidates`](Space::candidates).
    fn matching<'a>(
        &'a mut self,
        template: &'a Template,
    ) -> impl Iterator<Item = (u64, &'a Entry)> + 'a {
        self.index_exact_positions(template);
        let this: &'a Space = self;
        let (scan, bucket) = match this.candidates(template) {
            Candidates::Scan => (Some(this.entries.iter()), None),
            Candidates::Empty => (None, None),
            Candidates::Bucket(bucket) => (None, Some(bucket.iter())),
        };
        let scan = scan.into_iter().flatten().map(|(&seq, entry)| (seq, entry));
        let bucket = bucket
            .into_iter()
            .flatten()
            .map(|seq| (*seq, &this.entries[seq]));
        scan.chain(bucket)
            .filter(|(_, entry)| template.matches(&entry.tuple))
    }

    /// Number of live entries at `now` (expired entries are purged first).
    #[must_use]
    pub fn len(&mut self, now: SimTime) -> usize {
        self.expire(now);
        self.entries.len()
    }

    /// Operation counters, read back from the registry.
    #[must_use]
    pub fn stats(&self) -> SpaceStats {
        self.obs.stats()
    }

    /// Captures the space's operation registry (paths under `op/`). No
    /// instrument is time-parameterized, so `_now` is unused; it stays so
    /// existing callers keep compiling.
    #[must_use]
    pub fn metrics(&self, _now: SimTime) -> tsbus_obs::Snapshot {
        self.obs.registry.snapshot()
    }

    /// Turns on the audit trail: from now on every Written/Taken/Expired
    /// event is appended to a history retrievable via [`audit`](Space::audit),
    /// independent of subscriptions. Off by default (it grows unboundedly).
    /// The stream is an unbounded [`Tracer`], so nothing ever drops.
    pub fn enable_audit(&mut self) {
        if !self.audit.is_enabled() {
            self.audit = Tracer::unbounded();
        }
    }

    /// The audit trail recorded since [`enable_audit`](Space::enable_audit),
    /// oldest first; empty if auditing was never enabled.
    pub fn audit(&self) -> impl Iterator<Item = &AuditRecord> {
        self.audit.events()
    }

    /// The audit stream itself, for consumers that need its drop
    /// accounting (always zero: the stream is unbounded).
    #[must_use]
    pub fn audit_trace(&self) -> &Tracer<AuditRecord> {
        &self.audit
    }

    /// Read-only snapshot of the tuples alive at `now`, without running
    /// the expiry sweep or touching any other state — for auditing and
    /// invariant checks over a shared reference.
    #[must_use]
    pub fn snapshot(&self, now: SimTime) -> Vec<Tuple> {
        self.entries
            .values()
            .filter(|entry| entry.lease.is_alive(now))
            .map(|entry| entry.tuple.clone())
            .collect()
    }

    /// Extends the lease of every live entry matching `template` to
    /// `lease`; returns how many entries were renewed. The heartbeat
    /// primitive behind crash-stop service de-registration: a live provider
    /// periodically renews its registration entries, a crashed one stops
    /// and its entries expire on their own.
    pub fn renew(&mut self, template: &Template, lease: Lease, now: SimTime) -> usize {
        self.expire(now);
        let matching: Vec<u64> = self.matching(template).map(|(seq, _)| seq).collect();
        let renewed = matching.len();
        for seq in matching {
            let entry = self.entries.get_mut(&seq).expect("collected above");
            let old = entry.lease;
            entry.lease = lease;
            if self.indexed {
                if let Lease::Until(deadline) = old {
                    self.deadlines.remove(&(deadline, seq));
                }
                if let Lease::Until(deadline) = lease {
                    self.deadlines.insert((deadline, seq));
                }
            }
        }
        self.obs.registry.add(self.obs.renewals, renewed as u64);
        renewed
    }

    /// Writes a tuple with the given lease; returns its entry id.
    ///
    /// A tuple already dead at `now` wakes no parked wait; while any is
    /// parked it expires at once (the lookup the wait stands for would see
    /// that), otherwise lazily like any other entry.
    pub fn write(&mut self, tuple: Tuple, lease: Lease, now: SimTime) -> EntryId {
        self.expire(now);
        let seq = self.next_entry;
        self.next_entry += 1;
        let id = EntryId(seq);
        self.obs.registry.inc(self.obs.writes);
        self.notify(EventKind::Written, id, &tuple, now);
        let parked = self.continuations.iter().any(|c| c.once.is_some());
        if parked && !lease.is_alive(now) {
            self.note_expired(id, &tuple, lease, now);
            return id;
        }
        if parked && self.wake_parked(id, &tuple, now) {
            return id;
        }
        let entry = Entry { id, tuple, lease };
        self.index_entry(seq, &entry);
        self.entries.insert(seq, entry);
        id
    }

    /// Completes the parked waits a live tuple matches, in arrival order:
    /// each read gets a clone, and the first take removes the tuple and
    /// ends the match. Returns whether a take removed it.
    fn wake_parked(&mut self, entry: EntryId, tuple: &Tuple, now: SimTime) -> bool {
        let (mut reads, mut taken) = (0, false);
        let woken = &mut self.woken;
        self.continuations.retain(|c| {
            let Some(kind) = c.once else {
                return true;
            };
            if taken || !c.template.matches(tuple) {
                return true;
            }
            woken.push((c.id, tuple.clone()));
            match kind {
                WaitKind::Read => reads += 1,
                WaitKind::Take => taken = true,
            }
            false
        });
        self.obs.registry.add(self.obs.reads, reads);
        if taken {
            self.obs.registry.inc(self.obs.takes);
            self.notify(EventKind::Taken, entry, tuple, now);
        }
        taken
    }

    /// Returns (a clone of) the oldest live tuple matching `template`,
    /// without removing it.
    pub fn read(&mut self, template: &Template, now: SimTime) -> Option<Tuple> {
        self.expire(now);
        let found = self.matching(template).next().map(|(_, e)| e.tuple.clone());
        if found.is_some() {
            self.obs.registry.inc(self.obs.reads);
        } else {
            self.obs.registry.inc(self.obs.misses);
        }
        found
    }

    /// Returns clones of *all* live tuples matching `template`, oldest
    /// first, without removing any.
    pub fn read_all(&mut self, template: &Template, now: SimTime) -> Vec<Tuple> {
        self.expire(now);
        self.matching(template)
            .map(|(_, entry)| entry.tuple.clone())
            .collect()
    }

    /// Removes and returns the oldest live tuple matching `template`.
    pub fn take(&mut self, template: &Template, now: SimTime) -> Option<Tuple> {
        self.expire(now);
        let Some((seq, _)) = self.matching(template).next() else {
            self.obs.registry.inc(self.obs.misses);
            return None;
        };
        let entry = self.remove_entry(seq);
        self.obs.registry.inc(self.obs.takes);
        self.notify(EventKind::Taken, entry.id, &entry.tuple, now);
        Some(entry.tuple)
    }

    /// Counts live entries matching `template`.
    pub fn count(&mut self, template: &Template, now: SimTime) -> usize {
        self.expire(now);
        self.matching(template).count()
    }

    /// Purges entries whose leases have run out, emitting `Expired`
    /// notifications. Called implicitly by every operation; call it
    /// explicitly to force timely notifications on an otherwise idle space.
    pub fn expire(&mut self, now: SimTime) {
        let mut dead: Vec<u64>;
        if self.indexed {
            // Single-pass sweep over the deadline index: only due entries
            // are visited, so a sweep over a space with no due leases is
            // O(1) instead of O(n). Dead seqs come back sorted by seq
            // (below) so notification order matches the scan sweep exactly.
            dead = self
                .deadlines
                .iter()
                .take_while(|&&(deadline, _)| deadline <= now)
                .map(|&(_, seq)| seq)
                .collect();
            dead.sort_unstable();
        } else {
            dead = self
                .entries
                .iter()
                .filter(|(_, entry)| !entry.lease.is_alive(now))
                .map(|(&seq, _)| seq)
                .collect();
        }
        for seq in dead {
            let entry = self.remove_entry(seq);
            self.note_expired(entry.id, &entry.tuple, entry.lease, now);
        }
    }

    /// Counts an expiry and fires its `Expired` event, stamped with the
    /// lease deadline rather than `now`: the entry ceased to exist at its
    /// deadline even if the space only noticed later.
    fn note_expired(&mut self, entry: EntryId, tuple: &Tuple, lease: Lease, now: SimTime) {
        self.obs.registry.inc(self.obs.expirations);
        let at = match lease {
            Lease::Until(deadline) => deadline,
            Lease::Forever => now,
        };
        self.notify(EventKind::Expired, entry, tuple, at);
    }

    /// The earliest lease deadline among live entries — when the next
    /// expiry will happen, useful for scheduling an expiry sweep.
    #[must_use]
    pub fn next_deadline(&self) -> Option<SimTime> {
        if self.indexed {
            return self.deadlines.iter().next().map(|&(deadline, _)| deadline);
        }
        self.entries
            .values()
            .filter_map(|entry| match entry.lease {
                Lease::Until(deadline) => Some(deadline),
                Lease::Forever => None,
            })
            .min()
    }

    /// Registers interest in entries matching `template` for the given
    /// event kinds; returns the subscription id carried by matching
    /// [`Notification`]s.
    pub fn subscribe(
        &mut self,
        template: Template,
        kinds: impl IntoIterator<Item = EventKind>,
    ) -> SubscriptionId {
        self.add_continuation(template, None, kinds.into_iter().collect())
    }

    /// Parks a blocking read or take that found no match. A later live
    /// write completes, in arrival order, every parked read it matches up
    /// to the first parked take it matches, which removes the tuple.
    /// Completed waits queue for [`drain_woken`](Space::drain_woken);
    /// cancel one with [`unsubscribe`](Space::unsubscribe).
    pub fn park(&mut self, template: Template, kind: WaitKind) -> SubscriptionId {
        self.add_continuation(template, Some(kind), Vec::new())
    }

    fn add_continuation(
        &mut self,
        template: Template,
        once: Option<WaitKind>,
        kinds: Vec<EventKind>,
    ) -> SubscriptionId {
        let id = SubscriptionId(self.next_subscription);
        self.next_subscription += 1;
        self.continuations.push(Continuation {
            id,
            template,
            once,
            kinds,
        });
        id
    }

    /// Removes a subscription or a parked wait that has not completed.
    /// Unknown ids are ignored.
    pub fn unsubscribe(&mut self, id: SubscriptionId) {
        self.continuations.retain(|c| c.id != id);
    }

    /// Drains the notifications produced since the last drain, in event
    /// order.
    pub fn drain_notifications(&mut self) -> Vec<Notification> {
        std::mem::take(&mut self.pending)
    }

    /// Drains the parked waits completed since the last drain, in wake
    /// order, each with the tuple it read or took.
    pub fn drain_woken(&mut self) -> Vec<(SubscriptionId, Tuple)> {
        std::mem::take(&mut self.woken)
    }

    /// Records `kind` in the audit trail and notifies the subscriptions
    /// it matches.
    fn notify(&mut self, kind: EventKind, entry: EntryId, tuple: &Tuple, at: SimTime) {
        // Build the record only when it is kept: `emit` takes it by value,
        // so an unguarded call would clone every tuple for nothing.
        if self.audit.is_enabled() {
            self.audit.emit(AuditRecord {
                kind,
                entry,
                tuple: tuple.clone(),
                at,
            });
        }
        for c in &self.continuations {
            if c.kinds.contains(&kind) && c.template.matches(tuple) {
                self.pending.push(Notification {
                    subscription: c.id,
                    kind,
                    entry,
                    tuple: tuple.clone(),
                    at,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueType;
    use crate::{template, tuple};
    use tsbus_des::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn read_does_not_remove_take_does() {
        let mut space = Space::new();
        space.write(tuple!["x", 1], Lease::Forever, t(0));
        let tpl = template!["x", ValueType::Int];
        assert_eq!(space.read(&tpl, t(1)), Some(tuple!["x", 1]));
        assert_eq!(space.len(t(1)), 1);
        assert_eq!(space.take(&tpl, t(2)), Some(tuple!["x", 1]));
        assert_eq!(space.len(t(2)), 0);
        assert_eq!(space.take(&tpl, t(3)), None);
    }

    #[test]
    fn oldest_match_wins() {
        let mut space = Space::new();
        space.write(tuple!["job", 1], Lease::Forever, t(0));
        space.write(tuple!["job", 2], Lease::Forever, t(0));
        space.write(tuple!["job", 3], Lease::Forever, t(1));
        let tpl = template!["job", ValueType::Int];
        assert_eq!(space.take(&tpl, t(2)), Some(tuple!["job", 1]));
        assert_eq!(space.take(&tpl, t(2)), Some(tuple!["job", 2]));
        assert_eq!(space.take(&tpl, t(2)), Some(tuple!["job", 3]));
    }

    #[test]
    fn leases_expire_exactly_at_deadline() {
        let mut space = Space::new();
        space.write(
            tuple!["v"],
            Lease::for_duration(t(0), SimDuration::from_secs(160)),
            t(0),
        );
        let tpl = template!["v"];
        assert!(space.read(&tpl, t(159)).is_some());
        assert!(space.read(&tpl, t(160)).is_none(), "expiry is exclusive");
        assert_eq!(space.stats().expirations, 1);
    }

    #[test]
    fn forever_leases_never_expire() {
        let mut space = Space::new();
        space.write(tuple!["v"], Lease::Forever, t(0));
        assert!(space.read(&template!["v"], t(1_000_000)).is_some());
        assert_eq!(space.stats().expirations, 0);
    }

    #[test]
    fn count_sees_only_live_matches() {
        let mut space = Space::new();
        space.write(tuple!["a", 1], Lease::Forever, t(0));
        space.write(tuple!["a", 2], Lease::Until(t(5)), t(0));
        space.write(tuple!["b", 1], Lease::Forever, t(0));
        let tpl = template!["a", ValueType::Int];
        assert_eq!(space.count(&tpl, t(1)), 2);
        assert_eq!(space.count(&tpl, t(5)), 1);
    }

    #[test]
    fn notifications_fire_for_matching_subscriptions_only() {
        let mut space = Space::new();
        let sub_a = space.subscribe(template!["a", ValueType::Int], [EventKind::Written]);
        let _sub_b = space.subscribe(template!["b"], [EventKind::Written]);
        space.write(tuple!["a", 1], Lease::Forever, t(0));
        let events = space.drain_notifications();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].subscription, sub_a);
        assert_eq!(events[0].kind, EventKind::Written);
        assert_eq!(events[0].tuple, tuple!["a", 1]);
        assert!(space.drain_notifications().is_empty(), "drain is consuming");
    }

    #[test]
    fn taken_and_expired_notifications() {
        let mut space = Space::new();
        let sub = space.subscribe(Template::any(1), [EventKind::Taken, EventKind::Expired]);
        space.write(tuple![1], Lease::Until(t(10)), t(0));
        space.write(tuple![2], Lease::Forever, t(0));
        let _ = space.take(&template![2], t(1));
        space.expire(t(11));
        let events = space.drain_notifications();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Taken);
        assert_eq!(events[0].subscription, sub);
        assert_eq!(events[1].kind, EventKind::Expired);
        assert_eq!(events[1].at, t(10), "expiry stamped at the deadline");
    }

    #[test]
    fn unsubscribe_stops_notifications() {
        let mut space = Space::new();
        let sub = space.subscribe(Template::any(1), [EventKind::Written]);
        space.unsubscribe(sub);
        space.write(tuple![1], Lease::Forever, t(0));
        assert!(space.drain_notifications().is_empty());
    }

    #[test]
    fn next_deadline_tracks_earliest_lease() {
        let mut space = Space::new();
        assert_eq!(space.next_deadline(), None);
        space.write(tuple![1], Lease::Until(t(20)), t(0));
        space.write(tuple![2], Lease::Until(t(10)), t(0));
        space.write(tuple![3], Lease::Forever, t(0));
        assert_eq!(space.next_deadline(), Some(t(10)));
        space.expire(t(10));
        assert_eq!(space.next_deadline(), Some(t(20)));
    }

    #[test]
    fn stats_track_operations() {
        let mut space = Space::new();
        space.write(tuple![1], Lease::Forever, t(0));
        let _ = space.read(&template![1], t(0));
        let _ = space.read(&template![2], t(0)); // miss
        let _ = space.take(&template![1], t(0));
        let s = space.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.takes, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn renew_extends_matching_leases_only() {
        let mut space = Space::new();
        space.write(tuple!["svc", 1], Lease::Until(t(10)), t(0));
        space.write(tuple!["svc", 2], Lease::Until(t(10)), t(0));
        space.write(tuple!["other"], Lease::Until(t(10)), t(0));
        let renewed = space.renew(&template!["svc", ValueType::Int], Lease::Until(t(30)), t(5));
        assert_eq!(renewed, 2);
        assert_eq!(space.stats().renewals, 2);
        // Un-renewed entry expires at its original deadline; renewed survive.
        assert_eq!(space.len(t(15)), 2);
        assert_eq!(space.len(t(30)), 0);
    }

    #[test]
    fn renew_skips_already_expired_entries() {
        let mut space = Space::new();
        space.write(tuple!["late"], Lease::Until(t(5)), t(0));
        let renewed = space.renew(&template!["late"], Lease::Until(t(100)), t(6));
        assert_eq!(renewed, 0, "an expired entry cannot be resurrected");
        assert_eq!(space.stats().expirations, 1);
    }

    #[test]
    fn audit_trail_records_lifecycle_independent_of_subscriptions() {
        let mut space = Space::new();
        space.enable_audit();
        space.write(tuple!["a", 1], Lease::Until(t(10)), t(0));
        space.write(tuple!["a", 2], Lease::Forever, t(0));
        let _ = space.take(&template!["a", 2], t(1));
        space.expire(t(11));
        let trail: Vec<_> = space.audit().collect();
        assert_eq!(trail.len(), 4);
        assert_eq!(trail[0].kind, EventKind::Written);
        assert_eq!(trail[1].kind, EventKind::Written);
        assert_eq!(trail[2].kind, EventKind::Taken);
        assert_eq!(trail[3].kind, EventKind::Expired);
        assert_eq!(space.audit_trace().dropped(), 0, "audit never drops");
        let mut space2 = Space::new();
        space2.write(tuple!["x"], Lease::Forever, t(0));
        assert!(space2.audit().next().is_none(), "audit off by default");
    }

    #[test]
    fn audit_trail_includes_expiry_at_deadline() {
        let mut space = Space::new();
        space.enable_audit();
        space.write(tuple!["ttl"], Lease::Until(t(10)), t(0));
        space.expire(t(12));
        let trail: Vec<_> = space.audit().collect();
        assert_eq!(trail.len(), 2);
        assert_eq!(trail[1].kind, EventKind::Expired);
        assert_eq!(trail[1].at, t(10), "stamped at the lease deadline");
    }

    /// Runs the same op sequence against an indexed and an unindexed space
    /// and asserts every observable output is identical.
    fn assert_index_equivalent(ops: impl Fn(&mut Space) -> Vec<String>) {
        let mut indexed = Space::new();
        let mut scan = Space::unindexed();
        indexed.enable_audit();
        scan.enable_audit();
        assert_eq!(ops(&mut indexed), ops(&mut scan));
        assert_eq!(indexed.stats(), scan.stats());
        let audits = |s: &Space| {
            s.audit()
                .map(|r| format!("{:?} {} {} {}", r.kind, r.entry, r.tuple, r.at))
                .collect::<Vec<_>>()
        };
        assert_eq!(audits(&indexed), audits(&scan));
        let notes = |s: &mut Space| {
            s.drain_notifications()
                .into_iter()
                .map(|n| {
                    format!(
                        "{} {:?} {} {} {}",
                        n.subscription, n.kind, n.entry, n.tuple, n.at
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(notes(&mut indexed), notes(&mut scan));
    }

    #[test]
    fn indexed_and_scan_matching_agree_on_mixed_templates() {
        assert_index_equivalent(|space| {
            let mut out = Vec::new();
            let _sub = space.subscribe(
                Template::any(2),
                [EventKind::Written, EventKind::Taken, EventKind::Expired],
            );
            space.write(tuple!["job", 1], Lease::Until(t(10)), t(0));
            space.write(tuple!["job", 2], Lease::Forever, t(0));
            space.write(tuple!["job", 1, "dup-key"], Lease::Until(t(5)), t(1));
            // Too short to carry field 1.
            space.write(tuple!["solo"], Lease::Forever, t(1));
            // Exact tag and key: the smaller of two buckets.
            out.push(format!("{:?}", space.read(&template!["job", 1], t(2))));
            // Typed key: the tag's bucket.
            out.push(format!(
                "{:?}",
                space.read(&template!["job", ValueType::Int], t(2))
            ));
            // Wildcard template: scan fallback.
            out.push(format!("{:?}", space.take(&Template::any(1), t(3))));
            // Sweep with one due lease (the 3-arity tuple at t=5).
            space.expire(t(6));
            out.push(format!(
                "{}",
                space.count(&template!["job", ValueType::Int], t(6))
            ));
            out.push(format!(
                "{:?}",
                std::iter::from_fn(|| space.take(&Template::any(2), t(12)))
                    .take(10)
                    .collect::<Vec<_>>()
            ));
            out.push(format!("{:?}", space.next_deadline()));
            out
        });
    }

    #[test]
    fn per_field_index_agrees_with_scan_on_every_fixed_position() {
        fn probe(space: &mut Space, out: &mut Vec<String>, tpl: Template, now: SimTime) {
            out.push(format!("{tpl} read {:?}", space.read(&tpl, now)));
            out.push(format!("{tpl} count {}", space.count(&tpl, now)));
        }
        let nan = f64::from_bits(0x7ff8_0000_0000_0000);
        let other_nan = f64::from_bits(0x7ff8_0000_0000_0001);
        assert_index_equivalent(|space| {
            let mut out = Vec::new();
            space.write(tuple!["obj", 1, 0, 0.0], Lease::Forever, t(0));
            space.write(tuple!["obj", 2, 1, -0.0], Lease::Until(t(5)), t(0));
            space.write(tuple!["obj", 3, 1, nan], Lease::Forever, t(0));
            space.write(tuple!["obj", 4, 2], Lease::Forever, t(0));
            space.write(tuple!["obj", 5], Lease::Forever, t(0));
            space.write(tuple!["obj", 6, 1, other_nan], Lease::Forever, t(1));
            // Takes and an expiry before positions 2 and 3 are ever fixed,
            // so their indexes are first built over a churned store.
            let keyed = template!["obj", 1, ValueType::Int, ValueType::Float];
            out.push(format!("{:?}", space.take(&keyed, t(2))));
            space.expire(t(6));
            // Non-key position, alone and with the key.
            let class_1 = template!["obj", ValueType::Int, 1, Pattern::Wildcard];
            probe(space, &mut out, class_1, t(6));
            probe(
                space,
                &mut out,
                template![Pattern::Wildcard, 3, 1, Pattern::Wildcard],
                t(6),
            );
            probe(
                space,
                &mut out,
                template![Pattern::Wildcard, 4, 1, Pattern::Wildcard],
                t(6),
            );
            // A class no entry carries, and a probe of the wrong arity.
            probe(
                space,
                &mut out,
                template!["obj", ValueType::Int, 9, ValueType::Float],
                t(6),
            );
            probe(
                space,
                &mut out,
                template![Pattern::Wildcard, Pattern::Wildcard, 2],
                t(6),
            );
            // Floats by bits: each signed zero and NaN payload matches itself.
            for value in [0.0, -0.0, nan, other_nan] {
                let tpl = template!["obj", ValueType::Int, ValueType::Int, value];
                probe(space, &mut out, tpl, t(6));
            }
            out.push(format!("{:?}", space.read_all(&Template::any(4), t(8))));
            out
        });
    }

    #[test]
    fn set_indexed_rebuilds_and_drops_consistently() {
        let mut space = Space::unindexed();
        space.write(tuple!["a", 1], Lease::Until(t(10)), t(0));
        space.write(tuple!["a", 2], Lease::Forever, t(0));
        space.set_indexed(true);
        assert!(space.indexed);
        assert_eq!(space.next_deadline(), Some(t(10)));
        assert_eq!(space.read(&template!["a", 1], t(1)), Some(tuple!["a", 1]));
        space.set_indexed(false);
        assert_eq!(space.next_deadline(), Some(t(10)));
        assert_eq!(space.take(&template!["a", 2], t(1)), Some(tuple!["a", 2]));
        // Written while off: the rebuilt index must see it.
        space.write(tuple!["a", 3], Lease::Forever, t(1));
        space.set_indexed(true);
        assert_eq!(space.take(&template!["a", 3], t(2)), Some(tuple!["a", 3]));
        assert_eq!(space.read(&template!["a", 2], t(2)), None);
    }

    #[test]
    fn bucket_lookup_honours_oldest_first_within_a_key() {
        let mut space = Space::new();
        space.write(tuple!["w", 7, "first"], Lease::Forever, t(0));
        space.write(tuple!["w", 7, "second"], Lease::Forever, t(0));
        let tpl = template!["w", 7, ValueType::Str];
        assert_eq!(space.take(&tpl, t(1)), Some(tuple!["w", 7, "first"]));
        assert_eq!(space.take(&tpl, t(1)), Some(tuple!["w", 7, "second"]));
        assert_eq!(space.take(&tpl, t(1)), None);
    }

    #[test]
    fn renew_keeps_deadline_index_in_sync() {
        let mut space = Space::new();
        space.write(tuple!["svc", 1], Lease::Until(t(10)), t(0));
        let renewed = space.renew(&template!["svc", 1], Lease::Until(t(30)), t(5));
        assert_eq!(renewed, 1);
        assert_eq!(space.next_deadline(), Some(t(30)));
        // The old deadline passing must not expire the renewed entry.
        assert_eq!(space.len(t(15)), 1);
        assert_eq!(space.len(t(30)), 0);
        assert_eq!(space.next_deadline(), None);
    }
}
