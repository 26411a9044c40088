//! Slave supervision primitives: per-slave health tracking and the
//! Closed → Open → Half-Open circuit breaker the bus master consults on
//! every transaction.
//!
//! The TpWIRE recovery story so far is purely *reactive*: the master
//! resends a failed frame a predetermined number of times, waiting out a
//! backoff schedule that is itself budgeted against the 2048-bit slave
//! reset watchdog. Against a transient burst that is the right call;
//! against a slave that has crashed, lost its chain segment, or gone
//! persistently deaf, every retry budget spent on it is bus time stolen
//! from healthy slaves. This module supplies the detection side:
//!
//! * [`SlaveHealth`] — an EWMA error-rate estimate plus a
//!   consecutive-failure counter, fed by retry/CRC/timeout outcomes.
//!   Pure integer/float arithmetic, no RNG: same outcome sequence, same
//!   state, byte for byte.
//! * [`CircuitBreaker`] — the per-slave state machine. While **Closed**
//!   requests pass through; a tripped breaker goes **Open** and the master
//!   fast-fails requests instead of burning cumulative backoff; after the
//!   open window expires the breaker goes **Half-Open** and admits a
//!   bounded budget of cheap probe frames before readmitting the slave.
//!
//! The state machine is deliberately time-based rather than event-count
//! based: the open window is expressed in bus *bit periods* by
//! [`SupervisionConfig::open_bits`] and converted to simulated time by
//! the caller, so the same configuration behaves identically across bus
//! bit rates.
//!
//! Only these transitions exist (anything else is a bug, and the property
//! tests enforce it):
//!
//! ```text
//! Closed ──trip──► Open ──window expires──► HalfOpen ──probe ok×budget──► Closed
//!                   ▲                           │
//!                   └────────probe failed───────┘
//! ```

use core::fmt;

use tsbus_des::{SimDuration, SimTime};

/// Configuration of one slave's supervision: health-tracker smoothing,
/// trip thresholds, the quarantine window, and the probe budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisionConfig {
    /// EWMA smoothing factor for the error-rate estimate, in `(0, 1]`.
    /// Larger = more reactive, smaller = smoother.
    pub(crate) ewma_alpha: f64,
    /// Trip when the EWMA error rate reaches this level (and at least
    /// [`min_samples`](SupervisionConfig::min_samples) outcomes were seen).
    pub(crate) trip_error_rate: f64,
    /// Outcomes required before the EWMA threshold may trip the breaker
    /// (prevents a cold-start trip on the first unlucky frame).
    pub(crate) min_samples: u32,
    /// Trip immediately after this many consecutive failures, regardless
    /// of the EWMA.
    pub(crate) trip_consecutive: u32,
    /// Length of one Open (quarantine) window, in bus bit periods.
    pub open_bits: u64,
    /// Probes admitted per Half-Open episode; the breaker re-closes after
    /// this many consecutive probe successes and re-opens on the first
    /// probe failure.
    pub(crate) probe_budget: u8,
}

impl SupervisionConfig {
    /// A conservative default tuned for the Theseus bus: trip after 4
    /// consecutive failures or a smoothed error rate ≥ 85 % over at least
    /// 8 samples; quarantine for 4096 bit periods (two watchdog windows);
    /// readmit after 2 clean probes.
    #[must_use]
    pub fn conservative() -> Self {
        SupervisionConfig {
            ewma_alpha: 0.2,
            trip_error_rate: 0.85,
            min_samples: 8,
            trip_consecutive: 4,
            open_bits: 4096,
            probe_budget: 2,
        }
    }
}

/// The circuit-breaker state of one supervised slave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Healthy: requests pass through.
    Closed,
    /// Quarantined: the master fast-fails requests for this slave.
    Open,
    /// Probing: a bounded budget of probe frames tests readmission.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        };
        f.write_str(name)
    }
}

/// Deterministic per-slave health: an EWMA of the failure indicator plus
/// a consecutive-failure counter. Snapshot-able at any instant via the
/// accessors; no interior randomness.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct SlaveHealth {
    ewma: f64,
    consecutive_failures: u32,
    samples: u64,
    failures: u64,
}

impl SlaveHealth {
    /// A fresh tracker: error rate 0, no samples.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Feeds one transaction outcome (`ok = false` for a retry, CRC error,
    /// timeout, or exhausted budget).
    #[inline]
    pub(crate) fn record(&mut self, alpha: f64, ok: bool) {
        let x = if ok { 0.0 } else { 1.0 };
        self.ewma = if self.samples == 0 {
            x
        } else {
            alpha * x + (1.0 - alpha) * self.ewma
        };
        self.samples += 1;
        if ok {
            self.consecutive_failures = 0;
        } else {
            self.consecutive_failures = self.consecutive_failures.saturating_add(1);
            self.failures += 1;
        }
    }

    /// The smoothed error-rate estimate in `[0, 1]`.
    #[must_use]
    pub(crate) fn error_rate(&self) -> f64 {
        self.ewma
    }
}

/// What the breaker lets the master do with a would-be transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed: issue normally.
    Admit,
    /// Breaker half-open and probe budget available: issue as a probe.
    Probe,
    /// Breaker open (or probe budget spent): fail fast, issue nothing.
    FastFail,
}

/// One observed state change, for trace emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The state left.
    pub from: BreakerState,
    /// The state entered.
    pub to: BreakerState,
}

/// The per-slave circuit breaker: health tracker plus state machine.
///
/// Driven entirely by the caller's clock (`now`) and outcome feed; see the
/// module docs for the transition diagram. Deterministic by construction —
/// replaying the same `(now, outcome)` sequence reproduces the same states.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: SupervisionConfig,
    open_period: SimDuration,
    health: SlaveHealth,
    state: BreakerState,
    /// When the current Open window expires (meaningful while Open).
    open_until: SimTime,
    /// Probes admitted in the current Half-Open episode.
    probes_issued: u8,
    /// Consecutive probe successes in the current Half-Open episode.
    probe_successes: u8,
}

impl CircuitBreaker {
    /// Creates a Closed breaker. `open_period` is the Open-window length in
    /// simulated time (the caller converts [`SupervisionConfig::open_bits`]
    /// at its bus bit rate).
    #[must_use]
    pub fn new(cfg: SupervisionConfig, open_period: SimDuration) -> Self {
        CircuitBreaker {
            cfg,
            open_period,
            health: SlaveHealth::new(),
            state: BreakerState::Closed,
            open_until: SimTime::ZERO,
            probes_issued: 0,
            probe_successes: 0,
        }
    }

    /// The current state.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Consults the breaker before issuing a transaction at `now`. May
    /// transition Open → Half-Open when the open window has expired; the
    /// transition, if any, is returned for trace emission.
    #[inline]
    pub fn admit(&mut self, now: SimTime) -> (Admission, Option<Transition>) {
        match self.state {
            BreakerState::Closed => (Admission::Admit, None),
            BreakerState::Open => {
                if now >= self.open_until {
                    self.state = BreakerState::HalfOpen;
                    self.probes_issued = 1;
                    self.probe_successes = 0;
                    (
                        Admission::Probe,
                        Some(Transition {
                            from: BreakerState::Open,
                            to: BreakerState::HalfOpen,
                        }),
                    )
                } else {
                    (Admission::FastFail, None)
                }
            }
            BreakerState::HalfOpen => {
                if self.probes_issued < self.cfg.probe_budget {
                    self.probes_issued += 1;
                    (Admission::Probe, None)
                } else {
                    (Admission::FastFail, None)
                }
            }
        }
    }

    /// Feeds the outcome of one completed transaction (including probes)
    /// at `now`. Returns the transition it caused, if any.
    #[inline]
    pub fn record(&mut self, now: SimTime, ok: bool) -> Option<Transition> {
        self.health.record(self.cfg.ewma_alpha, ok);
        match self.state {
            BreakerState::Closed => {
                if !ok && self.tripped() {
                    self.open(now);
                    Some(Transition {
                        from: BreakerState::Closed,
                        to: BreakerState::Open,
                    })
                } else {
                    None
                }
            }
            BreakerState::HalfOpen => {
                if ok {
                    self.probe_successes += 1;
                    if self.probe_successes >= self.cfg.probe_budget {
                        self.state = BreakerState::Closed;
                        self.probes_issued = 0;
                        self.probe_successes = 0;
                        Some(Transition {
                            from: BreakerState::HalfOpen,
                            to: BreakerState::Closed,
                        })
                    } else {
                        None
                    }
                } else {
                    self.open(now);
                    Some(Transition {
                        from: BreakerState::HalfOpen,
                        to: BreakerState::Open,
                    })
                }
            }
            // A transaction issued before the trip may complete while Open;
            // its outcome feeds the health estimate only.
            BreakerState::Open => None,
        }
    }

    fn tripped(&self) -> bool {
        self.health.consecutive_failures >= self.cfg.trip_consecutive
            || (self.health.samples >= u64::from(self.cfg.min_samples)
                && self.health.error_rate() >= self.cfg.trip_error_rate)
    }

    fn open(&mut self, now: SimTime) {
        self.state = BreakerState::Open;
        self.open_until = now + self.open_period;
        self.probes_issued = 0;
        self.probe_successes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(
            SupervisionConfig::conservative(),
            SimDuration::from_micros(512), // 4096 bits at 8 MHz
        )
    }

    #[test]
    fn closed_admits_and_trips_on_consecutive_failures() {
        let mut b = breaker();
        let t = SimTime::ZERO;
        assert_eq!(b.admit(t), (Admission::Admit, None));
        for i in 0..3 {
            assert_eq!(b.record(t, false), None, "failure {i} must not trip yet");
        }
        let tr = b.record(t, false).expect("4th consecutive failure trips");
        assert_eq!(tr.from, BreakerState::Closed);
        assert_eq!(tr.to, BreakerState::Open);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn successes_reset_the_consecutive_count() {
        let mut b = breaker();
        let t = SimTime::ZERO;
        for _ in 0..3 {
            b.record(t, false);
        }
        b.record(t, true);
        assert_eq!(b.health.consecutive_failures, 0);
        for _ in 0..3 {
            assert_eq!(b.record(t, false), None);
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn ewma_trips_without_a_consecutive_run() {
        let cfg = SupervisionConfig {
            trip_consecutive: 100, // effectively off
            ..SupervisionConfig::conservative()
        };
        let mut b = CircuitBreaker::new(cfg, SimDuration::from_micros(512));
        let t = SimTime::ZERO;
        // Alternate enough failures to drive the EWMA above 0.85 without
        // ever reaching 100 consecutive ones.
        let mut tripped = false;
        for i in 0..200 {
            let ok = i % 17 == 0;
            if b.record(t, ok).is_some() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "a 94% failure mix must trip the EWMA threshold");
    }

    #[test]
    fn open_fast_fails_until_the_window_expires_then_probes() {
        let mut b = breaker();
        let t0 = SimTime::ZERO;
        for _ in 0..4 {
            b.record(t0, false);
        }
        assert_eq!(b.state(), BreakerState::Open);
        let early = t0 + SimDuration::from_micros(100);
        assert_eq!(b.admit(early), (Admission::FastFail, None));
        let late = t0 + SimDuration::from_micros(512);
        let (adm, tr) = b.admit(late);
        assert_eq!(adm, Admission::Probe);
        assert_eq!(
            tr,
            Some(Transition {
                from: BreakerState::Open,
                to: BreakerState::HalfOpen,
            })
        );
    }

    #[test]
    fn half_open_closes_after_budget_successes_and_reopens_on_failure() {
        let mut b = breaker();
        let t0 = SimTime::ZERO;
        for _ in 0..4 {
            b.record(t0, false);
        }
        let late = t0 + SimDuration::from_micros(512);
        assert_eq!(b.admit(late).0, Admission::Probe);
        assert_eq!(b.record(late, true), None, "1 of 2 probes is not enough");
        assert_eq!(b.admit(late).0, Admission::Probe);
        let tr = b.record(late, true).expect("2nd clean probe readmits");
        assert_eq!(tr.to, BreakerState::Closed);

        // Trip again, probe, fail the probe: straight back to Open.
        for _ in 0..4 {
            b.record(late, false);
        }
        let later = late + SimDuration::from_micros(512);
        assert_eq!(b.admit(later).0, Admission::Probe);
        let tr = b.record(later, false).expect("failed probe reopens");
        assert_eq!(tr.from, BreakerState::HalfOpen);
        assert_eq!(tr.to, BreakerState::Open);
        // And the new window starts from the failure instant.
        assert_eq!(b.admit(later).0, Admission::FastFail);
    }

    #[test]
    fn outcomes_landing_while_open_only_feed_health() {
        let mut b = breaker();
        let t = SimTime::ZERO;
        for _ in 0..4 {
            b.record(t, false);
        }
        let samples = b.health.samples;
        assert_eq!(b.record(t, false), None);
        assert_eq!(b.health.samples, samples + 1);
        assert_eq!(b.state(), BreakerState::Open);
    }
}

#[cfg(test)]
mod properties {
    //! Property tests for the breaker state machine (ISSUE 6 satellite):
    //! arbitrary outcome/admit sequences never produce an invalid
    //! transition, Open always fast-fails before its window expires,
    //! Half-Open admits at most `probe_budget` probes per episode, and
    //! replaying a sequence is byte-identical.

    use super::*;
    use proptest::prelude::*;
    use proptest::TestCaseError;

    /// One scripted interaction with the breaker.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Consult admission at the current instant.
        Admit,
        /// Feed an outcome.
        Record(bool),
        /// Advance the clock by this many nanoseconds.
        Advance(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Admit),
            any::<bool>().prop_map(Op::Record),
            (0u64..2_000_000).prop_map(Op::Advance),
        ]
    }

    fn config() -> impl Strategy<Value = SupervisionConfig> {
        (1u32..6, 1u8..5, 1u64..20_000).prop_map(|(trip, budget, open_bits)| SupervisionConfig {
            trip_consecutive: trip,
            probe_budget: budget,
            open_bits,
            ..SupervisionConfig::conservative()
        })
    }

    /// Replays `ops` against a fresh breaker, checking the transition
    /// alphabet and the fast-fail/probe-budget invariants along the way.
    /// Returns the final (state, health, transition count) for replay
    /// comparison.
    fn drive(
        cfg: SupervisionConfig,
        ops: &[Op],
    ) -> Result<(BreakerState, SlaveHealth, u64), TestCaseError> {
        let open_period = SimDuration::from_nanos(cfg.open_bits * 125);
        let mut b = CircuitBreaker::new(cfg, open_period);
        let mut now = SimTime::ZERO;
        let mut probes_this_episode = 0u32;
        let mut transitions = 0u64;
        for &op in ops {
            let before = b.state();
            match op {
                Op::Advance(ns) => now += SimDuration::from_nanos(ns),
                Op::Admit => {
                    let (adm, tr) = b.admit(now);
                    match (before, adm) {
                        (BreakerState::Closed, Admission::Admit) => {}
                        (BreakerState::Open, Admission::FastFail) => {}
                        (BreakerState::Open, Admission::Probe) => {
                            // Only legal once the window expired, opening a
                            // fresh Half-Open episode.
                            probes_this_episode = 1;
                        }
                        (BreakerState::HalfOpen, Admission::Probe) => {
                            probes_this_episode += 1;
                        }
                        (BreakerState::HalfOpen, Admission::FastFail) => {}
                        (from, adm) => panic!("invalid admission {adm:?} from {from:?}"),
                    }
                    prop_assert!(
                        probes_this_episode <= u32::from(cfg.probe_budget),
                        "half-open admitted {probes_this_episode} probes, budget {}",
                        cfg.probe_budget
                    );
                    check_transition(before, b.state(), tr, &mut transitions)?;
                }
                Op::Record(ok) => {
                    let tr = b.record(now, ok);
                    if b.state() != BreakerState::HalfOpen {
                        probes_this_episode = 0;
                    }
                    check_transition(before, b.state(), tr, &mut transitions)?;
                }
            }
        }
        Ok((b.state(), b.health, transitions))
    }

    /// The legal transition alphabet; everything else panics the test.
    fn check_transition(
        before: BreakerState,
        after: BreakerState,
        tr: Option<Transition>,
        transitions: &mut u64,
    ) -> Result<(), TestCaseError> {
        match tr {
            None => prop_assert_eq!(before, after, "silent state change"),
            Some(t) => {
                *transitions += 1;
                prop_assert_eq!(t.from, before);
                prop_assert_eq!(t.to, after);
                let legal = matches!(
                    (t.from, t.to),
                    (BreakerState::Closed, BreakerState::Open)
                        | (BreakerState::Open, BreakerState::HalfOpen)
                        | (BreakerState::HalfOpen, BreakerState::Open)
                        | (BreakerState::HalfOpen, BreakerState::Closed)
                );
                prop_assert!(legal, "illegal transition {:?} -> {:?}", t.from, t.to);
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn arbitrary_sequences_stay_in_the_legal_alphabet(
            cfg in config(),
            ops in proptest::collection::vec(op(), 0..400),
        ) {
            let _ = drive(cfg, &ops)?;
        }

        #[test]
        fn replay_is_byte_identical(
            cfg in config(),
            ops in proptest::collection::vec(op(), 0..400),
        ) {
            let a = drive(cfg, &ops)?;
            let b = drive(cfg, &ops)?;
            prop_assert_eq!(a, b);
        }

        #[test]
        fn open_always_fast_fails_inside_the_window(
            cfg in config(),
            failures in 1u32..10,
        ) {
            let open_period = SimDuration::from_nanos(cfg.open_bits * 125);
            let mut b = CircuitBreaker::new(cfg, open_period);
            let t0 = SimTime::ZERO;
            for _ in 0..(cfg.trip_consecutive + failures) {
                b.record(t0, false);
            }
            prop_assert_eq!(b.state(), BreakerState::Open);
            // Any instant strictly inside the window fast-fails.
            let inside = t0 + SimDuration::from_nanos((cfg.open_bits * 125).saturating_sub(1));
            let (adm, tr) = b.admit(inside);
            prop_assert_eq!(adm, Admission::FastFail);
            prop_assert_eq!(tr, None);
            prop_assert_eq!(b.state(), BreakerState::Open);
        }
    }
}
