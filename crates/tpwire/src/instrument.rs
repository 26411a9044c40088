//! Bus instrumentation: the [`TpWireBus`](crate::TpWireBus) master's
//! metrics registry and typed trace emission, split out of the bus state
//! machine.
//!
//! All counting the bus does goes through [`BusInstruments`]: one
//! [`Registry`] holding the scoped instruments (`txn/total`,
//! `retry/control`, `lane/0/busy`, ...) plus a [`Tracer`] of
//! [`TraceEvent`]s. The legacy [`BusStats`] struct survives as a by-value
//! view assembled from the registry — there is exactly one counting path.

use tsbus_des::{SimDuration, SimTime};
use tsbus_faults::{BreakerState, FaultKind, FrameClass};
use tsbus_obs::{BusyId, CounterId, Registry, Snapshot, TraceEvent, Tracer};

/// Aggregate bus statistics, read back from the registry.
///
/// Equality is derived so two same-seed runs can be compared byte for byte
/// (the determinism contract of the fault-injection layer).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Completed transactions (including polls; excluding retries).
    pub transactions: u64,
    /// Re-sent transactions (timeout or corrupted frame), all classes.
    pub retries: u64,
    /// Retries of control frames (selection, pointers, commands, polls).
    pub(crate) control_retries: u64,
    /// Retries of stream-FIFO reads (including DMA read bursts).
    pub(crate) stream_read_retries: u64,
    /// Retries of stream-FIFO writes (including DMA write bursts).
    pub(crate) stream_write_retries: u64,
    /// Retries that waited out a backoff delay before resending.
    pub backoff_events: u64,
    /// Total bit periods spent waiting in retry backoff.
    pub backoff_bits: u64,
    /// Transactions abandoned after exhausting retries.
    pub failures: u64,
    /// Keep-alive/discovery polls issued.
    pub polls: u64,
    /// Stream payload bytes fully relayed to their destination.
    pub bytes_relayed: u64,
    /// Stream messages fully relayed.
    pub messages_relayed: u64,
    /// Stream messages abandoned.
    pub messages_failed: u64,
    /// Deliveries dropped because the destination had no attachment.
    pub dropped_deliveries: u64,
    /// Fault commands applied (crash/revive/reset/break/heal).
    pub faults_injected: u64,
    /// Requests failed fast against an Open circuit breaker (supervision
    /// only; zero when supervision is off).
    pub fast_fails: u64,
    /// Probe frames issued to Half-Open slaves.
    pub probes: u64,
    /// Circuit-breaker trips (transitions into Open).
    pub breaker_trips: u64,
    /// Circuit-breaker readmissions (transitions into Closed).
    pub breaker_readmissions: u64,
    /// Degraded-mode lane rebalances (evacuations and restorations).
    pub rebalances: u64,
    /// Supervision invariant violations: requests issued to an Open slave.
    /// Must stay zero; counted so the chaos harness can assert it.
    pub open_issues: u64,
}

/// The bus master's instrument set: registry handles for every counter the
/// bus maintains, per-lane busy-time accumulators, and the typed trace
/// ring.
#[derive(Debug)]
pub struct BusInstruments {
    registry: Registry,
    tracer: Tracer<TraceEvent>,
    txn_total: CounterId,
    txn_failures: CounterId,
    retry_total: CounterId,
    retry_control: CounterId,
    retry_stream_read: CounterId,
    retry_stream_write: CounterId,
    backoff_events: CounterId,
    backoff_bits: CounterId,
    poll_total: CounterId,
    relay_bytes: CounterId,
    relay_messages: CounterId,
    relay_failed: CounterId,
    notify_dropped: CounterId,
    fault_injected: CounterId,
    lane_busy: Vec<BusyId>,
    /// Supervision instruments, registered lazily by
    /// [`enable_supervision`](BusInstruments::enable_supervision) so an
    /// unsupervised bus's registry (and hence its snapshots) stays
    /// byte-identical to the pre-supervision layout.
    supervise: Option<SuperviseIds>,
    /// Lazily registered `retry/clamped` warning counter — present only
    /// after a retry policy actually had to be clamped to the watchdog.
    retry_clamped: Option<CounterId>,
}

/// Registry handles for the supervision layer's counters and busy spans.
#[derive(Debug)]
struct SuperviseIds {
    fast_fails: CounterId,
    probes: CounterId,
    trips: CounterId,
    readmissions: CounterId,
    rebalances: CounterId,
    open_issues: CounterId,
    /// Time the bus spent in degraded mode (at least one lane evacuated).
    degraded: BusyId,
    /// Per-slave (by 0-based chain position) time spent with the breaker
    /// Open — the complement of the slave's availability.
    slave_open: Vec<BusyId>,
}

impl BusInstruments {
    /// Creates the instrument set for a bus with `lanes` wire lanes.
    /// Tracing starts disabled; arm it with
    /// [`set_tracer`](BusInstruments::set_tracer).
    #[must_use]
    pub(crate) fn new(lanes: usize) -> Self {
        let mut registry = Registry::new();
        let txn_total = registry.counter("txn/total");
        let txn_failures = registry.counter("txn/failures");
        let retry_total = registry.counter("retry/total");
        let retry_control = registry.counter("retry/control");
        let retry_stream_read = registry.counter("retry/stream_read");
        let retry_stream_write = registry.counter("retry/stream_write");
        let backoff_events = registry.counter("backoff/events");
        let backoff_bits = registry.counter("backoff/bits");
        let poll_total = registry.counter("poll/total");
        let relay_bytes = registry.counter("relay/bytes");
        let relay_messages = registry.counter("relay/messages");
        let relay_failed = registry.counter("relay/failed");
        let notify_dropped = registry.counter("notify/dropped");
        let fault_injected = registry.counter("fault/injected");
        let lane_busy = (0..lanes)
            .map(|i| registry.busy_time(&format!("lane/{i}/busy")))
            .collect();
        BusInstruments {
            registry,
            tracer: Tracer::disabled(),
            txn_total,
            txn_failures,
            retry_total,
            retry_control,
            retry_stream_read,
            retry_stream_write,
            backoff_events,
            backoff_bits,
            poll_total,
            relay_bytes,
            relay_messages,
            relay_failed,
            notify_dropped,
            fault_injected,
            lane_busy,
            supervise: None,
            retry_clamped: None,
        }
    }

    /// Registers the supervision instrument set for `slaves` chain
    /// positions. Called once by the bus when supervision is configured;
    /// never called on an unsupervised bus, whose registry layout is
    /// thereby unchanged.
    pub(crate) fn enable_supervision(&mut self, slaves: usize) {
        let registry = &mut self.registry;
        let slave_open = (0..slaves)
            .map(|i| registry.busy_time(&format!("supervise/slave/{i}/open")))
            .collect();
        self.supervise = Some(SuperviseIds {
            fast_fails: registry.counter("supervise/fast_fails"),
            probes: registry.counter("supervise/probes"),
            trips: registry.counter("supervise/trips"),
            readmissions: registry.counter("supervise/readmissions"),
            rebalances: registry.counter("supervise/rebalances"),
            open_issues: registry.counter("supervise/open_issues"),
            degraded: registry.busy_time("supervise/degraded"),
            slave_open,
        });
    }

    /// Replaces the trace collector (e.g. with a bounded ring to start
    /// recording).
    pub fn set_tracer(&mut self, tracer: Tracer<TraceEvent>) {
        self.tracer = tracer;
    }

    /// The recorded trace events, oldest first.
    pub fn trace(&self) -> &Tracer<TraceEvent> {
        &self.tracer
    }

    /// Events evicted from a bounded trace ring so far.
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.tracer.dropped()
    }

    /// Captures the registry. No instrument is time-parameterized, so
    /// `_now` is unused; it stays so existing callers keep compiling.
    #[must_use]
    pub fn snapshot(&self, _now: SimTime) -> Snapshot {
        self.registry.snapshot()
    }

    /// The legacy aggregate view, assembled from the registry.
    #[must_use]
    pub(crate) fn stats(&self) -> BusStats {
        BusStats {
            transactions: self.registry.count(self.txn_total),
            retries: self.registry.count(self.retry_total),
            control_retries: self.registry.count(self.retry_control),
            stream_read_retries: self.registry.count(self.retry_stream_read),
            stream_write_retries: self.registry.count(self.retry_stream_write),
            backoff_events: self.registry.count(self.backoff_events),
            backoff_bits: self.registry.count(self.backoff_bits),
            failures: self.registry.count(self.txn_failures),
            polls: self.registry.count(self.poll_total),
            bytes_relayed: self.registry.count(self.relay_bytes),
            messages_relayed: self.registry.count(self.relay_messages),
            messages_failed: self.registry.count(self.relay_failed),
            dropped_deliveries: self.registry.count(self.notify_dropped),
            faults_injected: self.registry.count(self.fault_injected),
            fast_fails: self.supervised_count(|ids| ids.fast_fails),
            probes: self.supervised_count(|ids| ids.probes),
            breaker_trips: self.supervised_count(|ids| ids.trips),
            breaker_readmissions: self.supervised_count(|ids| ids.readmissions),
            rebalances: self.supervised_count(|ids| ids.rebalances),
            open_issues: self.supervised_count(|ids| ids.open_issues),
        }
    }

    fn supervised_count(&self, pick: impl Fn(&SuperviseIds) -> CounterId) -> u64 {
        self.supervise
            .as_ref()
            .map_or(0, |ids| self.registry.count(pick(ids)))
    }

    /// Books `n` completed transactions and emits one `Frame` event for
    /// the logical transaction they conclude (a DMA burst folds its arming
    /// transactions into `n`).
    pub(crate) fn txn_ok(&mut self, at: SimTime, node: u8, class: FrameClass, n: u64) {
        self.registry.add(self.txn_total, n);
        self.tracer.emit(TraceEvent::Frame {
            at,
            node,
            class,
            ok: true,
        });
    }

    /// Books one retry in the aggregate and per-class counters.
    pub(crate) fn retry(&mut self, at: SimTime, node: u8, class: FrameClass) {
        self.registry.inc(self.retry_total);
        let per_class = match class {
            FrameClass::Control => self.retry_control,
            FrameClass::StreamRead => self.retry_stream_read,
            FrameClass::StreamWrite => self.retry_stream_write,
        };
        self.registry.inc(per_class);
        self.tracer.emit(TraceEvent::Retry { at, node, class });
    }

    /// Books one backoff wait of `bits` bit periods.
    pub(crate) fn backoff(&mut self, at: SimTime, bits: u64) {
        self.registry.inc(self.backoff_events);
        self.registry.add(self.backoff_bits, bits);
        self.tracer.emit(TraceEvent::Backoff { at, bits });
    }

    /// Books a transaction abandoned after exhausting retries.
    pub(crate) fn txn_failed(&mut self, at: SimTime, node: u8) {
        self.registry.inc(self.txn_failures);
        self.tracer.emit(TraceEvent::TxnFailed { at, node });
    }

    /// Books one keep-alive/discovery poll.
    pub(crate) fn poll(&mut self) {
        self.registry.inc(self.poll_total);
    }

    /// Books a stream message fully relayed to its destination.
    pub(crate) fn message_relayed(&mut self, bytes: u64) {
        self.registry.add(self.relay_bytes, bytes);
        self.registry.inc(self.relay_messages);
    }

    /// Books a stream message abandoned.
    pub(crate) fn message_failed(&mut self) {
        self.registry.inc(self.relay_failed);
    }

    /// Books a delivery dropped for lack of an attachment.
    pub(crate) fn delivery_dropped(&mut self, at: SimTime, node: u8) {
        self.registry.inc(self.notify_dropped);
        self.tracer.emit(TraceEvent::DeliveryDropped { at, node });
    }

    /// Books one applied fault command.
    pub(crate) fn fault(&mut self, at: SimTime, kind: FaultKind) {
        self.registry.inc(self.fault_injected);
        self.tracer.emit(TraceEvent::Fault { at, kind });
    }

    /// Books one request failed fast against an Open breaker.
    pub(crate) fn fast_fail(&mut self, at: SimTime, node: u8) {
        if let Some(ids) = &self.supervise {
            self.registry.inc(ids.fast_fails);
        }
        self.tracer.emit(TraceEvent::TxnFailed { at, node });
    }

    /// Books one probe frame outcome against a Half-Open slave.
    pub(crate) fn probe(&mut self, at: SimTime, node: u8, ok: bool) {
        if let Some(ids) = &self.supervise {
            self.registry.inc(ids.probes);
        }
        self.tracer.emit(TraceEvent::Probe { at, node, ok });
    }

    /// Books one circuit-breaker state change, counting trips and
    /// readmissions and emitting the quarantine boundary events.
    pub(crate) fn breaker_transition(
        &mut self,
        at: SimTime,
        node: u8,
        from: BreakerState,
        to: BreakerState,
    ) {
        if let Some(ids) = &self.supervise {
            match to {
                BreakerState::Open if from == BreakerState::Closed => self.registry.inc(ids.trips),
                BreakerState::Closed => self.registry.inc(ids.readmissions),
                _ => {}
            }
        }
        self.tracer
            .emit(TraceEvent::BreakerTransition { at, node, from, to });
        match to {
            BreakerState::Open if from == BreakerState::Closed => {
                self.tracer.emit(TraceEvent::Quarantine {
                    at,
                    node,
                    entered: true,
                });
            }
            BreakerState::Closed => {
                self.tracer.emit(TraceEvent::Quarantine {
                    at,
                    node,
                    entered: false,
                });
            }
            _ => {}
        }
    }

    /// Books one degraded-mode rebalance touching `moved` slaves.
    pub(crate) fn rebalance(&mut self, at: SimTime, lane: u8, moved: u8, restored: bool) {
        if let Some(ids) = &self.supervise {
            self.registry.inc(ids.rebalances);
        }
        self.tracer.emit(TraceEvent::Rebalance {
            at,
            lane,
            moved,
            restored,
        });
    }

    /// Books one violation of the "never issue to an Open slave" invariant.
    /// Stays zero in a correct master; the chaos harness asserts it.
    pub(crate) fn open_issue(&mut self) {
        if let Some(ids) = &self.supervise {
            self.registry.inc(ids.open_issues);
        }
    }

    /// Accumulates a closed interval of breaker-Open time for the slave at
    /// 0-based chain position `pos`.
    pub(crate) fn slave_open_span(&mut self, pos: usize, span: SimDuration) {
        if let Some(ids) = &self.supervise {
            self.registry.add_busy(ids.slave_open[pos], span);
        }
    }

    /// Total breaker-Open time accumulated for chain position `pos`.
    #[must_use]
    pub(crate) fn slave_open_total(&self, pos: usize) -> SimDuration {
        self.supervise.as_ref().map_or(SimDuration::ZERO, |ids| {
            self.registry.busy_total(ids.slave_open[pos])
        })
    }

    /// Accumulates a closed interval of degraded-mode (evacuated-lane)
    /// time.
    pub(crate) fn degraded_span(&mut self, span: SimDuration) {
        if let Some(ids) = &self.supervise {
            self.registry.add_busy(ids.degraded, span);
        }
    }

    /// Books (and on first use registers) the `retry/clamped` warning: a
    /// configured retry policy's worst-case cumulative backoff exceeded the
    /// slave reset watchdog and was clamped.
    pub(crate) fn retry_policy_clamped(&mut self) {
        let id = match self.retry_clamped {
            Some(id) => id,
            None => {
                let id = self.registry.counter("retry/clamped");
                self.retry_clamped = Some(id);
                id
            }
        };
        self.registry.inc(id);
    }

    /// Accumulates a closed busy interval on `lane`'s transmitter.
    pub(crate) fn lane_busy(&mut self, lane: usize, span: SimDuration) {
        self.registry.add_busy(self.lane_busy[lane], span);
    }

    /// Total accumulated busy time of `lane`'s transmitter.
    #[must_use]
    pub(crate) fn lane_busy_total(&self, lane: usize) -> SimDuration {
        self.registry.busy_total(self.lane_busy[lane])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_view_mirrors_registry() {
        let mut obs = BusInstruments::new(2);
        obs.txn_ok(SimTime::ZERO, 1, FrameClass::Control, 4);
        obs.retry(SimTime::ZERO, 1, FrameClass::StreamRead);
        obs.backoff(SimTime::ZERO, 96);
        obs.txn_failed(SimTime::ZERO, 1);
        obs.poll();
        obs.message_relayed(100);
        obs.message_failed();
        obs.delivery_dropped(SimTime::ZERO, 2);
        obs.fault(SimTime::ZERO, FaultKind::ChainHeal);
        obs.lane_busy(1, SimDuration::from_micros(5));

        let stats = obs.stats();
        assert_eq!(stats.transactions, 4);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.stream_read_retries, 1);
        assert_eq!(stats.control_retries, 0);
        assert_eq!(stats.backoff_events, 1);
        assert_eq!(stats.backoff_bits, 96);
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.polls, 1);
        assert_eq!(stats.bytes_relayed, 100);
        assert_eq!(stats.messages_relayed, 1);
        assert_eq!(stats.messages_failed, 1);
        assert_eq!(stats.dropped_deliveries, 1);
        assert_eq!(stats.faults_injected, 1);
        assert_eq!(obs.lane_busy_total(1), SimDuration::from_micros(5));
        assert_eq!(obs.lane_busy_total(0), SimDuration::ZERO);

        let snap = obs.snapshot(SimTime::ZERO);
        assert_eq!(snap.count("txn/total"), 4);
        assert_eq!(snap.duration("lane/1/busy"), SimDuration::from_micros(5));
    }

    #[test]
    fn unsupervised_registry_has_no_supervision_paths() {
        let obs = BusInstruments::new(1);
        let snap = obs.snapshot(SimTime::ZERO);
        assert!(snap
            .rows()
            .iter()
            .all(|(path, _)| !path.starts_with("supervise/") && path != "retry/clamped"));
        let stats = obs.stats();
        assert_eq!(stats.fast_fails, 0);
        assert_eq!(stats.open_issues, 0);
    }

    #[test]
    fn supervision_instruments_count_and_trace() {
        use tsbus_faults::BreakerState;
        let mut obs = BusInstruments::new(2);
        obs.enable_supervision(3);
        obs.set_tracer(Tracer::unbounded());
        let t = SimTime::from_micros(1);
        obs.fast_fail(t, 4);
        obs.probe(t, 4, true);
        obs.breaker_transition(t, 4, BreakerState::Closed, BreakerState::Open);
        obs.breaker_transition(t, 4, BreakerState::Open, BreakerState::HalfOpen);
        obs.breaker_transition(t, 4, BreakerState::HalfOpen, BreakerState::Closed);
        obs.rebalance(t, 1, 2, false);
        obs.open_issue();
        obs.slave_open_span(2, SimDuration::from_micros(7));
        obs.degraded_span(SimDuration::from_micros(3));
        obs.retry_policy_clamped();

        let stats = obs.stats();
        assert_eq!(stats.fast_fails, 1);
        assert_eq!(stats.probes, 1);
        assert_eq!(stats.breaker_trips, 1);
        assert_eq!(stats.breaker_readmissions, 1);
        assert_eq!(stats.rebalances, 1);
        assert_eq!(stats.open_issues, 1);
        assert_eq!(obs.slave_open_total(2), SimDuration::from_micros(7));
        let degraded = obs.supervise.as_ref().expect("supervised").degraded;
        assert_eq!(
            obs.registry.busy_total(degraded),
            SimDuration::from_micros(3)
        );
        let clamped = obs.retry_clamped.expect("registered on first use");
        assert_eq!(obs.registry.count(clamped), 1);

        // Trips and readmissions come with quarantine boundary events.
        let quarantines: Vec<_> = obs
            .trace()
            .events()
            .filter_map(|e| match e {
                TraceEvent::Quarantine { entered, .. } => Some(*entered),
                _ => None,
            })
            .collect();
        assert_eq!(quarantines, vec![true, false]);
        assert!(obs.trace().events().any(|e| matches!(
            e,
            TraceEvent::Rebalance {
                lane: 1,
                moved: 2,
                restored: false,
                ..
            }
        )));
    }

    #[test]
    fn tracer_captures_typed_events_when_armed() {
        let mut obs = BusInstruments::new(1);
        obs.retry(SimTime::ZERO, 3, FrameClass::Control);
        assert_eq!(obs.trace().len(), 0, "tracing starts disabled");

        obs.set_tracer(Tracer::bounded(8));
        obs.retry(SimTime::from_micros(1), 3, FrameClass::Control);
        obs.fault(SimTime::from_micros(2), FaultKind::SlaveCrash(3));
        let events: Vec<_> = obs.trace().events().copied().collect();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], TraceEvent::Retry { node: 3, .. }));
        assert!(matches!(
            events[1],
            TraceEvent::Fault {
                kind: FaultKind::SlaveCrash(3),
                ..
            }
        ));
        assert_eq!(obs.trace_dropped(), 0);
    }
}
