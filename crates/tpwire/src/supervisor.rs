//! The bus master's supervision state: one circuit breaker per slave plus
//! the lane plan for degraded-mode rebalancing.
//!
//! [`Supervisor`] is pure bookkeeping — it owns the
//! [`CircuitBreaker`]s and the [`WirePlan`] and computes what *changed*
//! (transitions, quarantine spans, rebalances); the bus translates those
//! effects into metrics and trace events through its
//! [`BusInstruments`](crate::instrument::BusInstruments). Keeping the two
//! apart keeps the supervisor deterministic and independently testable:
//! it draws no randomness and touches no registry.
//!
//! Policy decisions encoded here:
//!
//! * A slave's **quarantine span** runs from the trip (entering Open) to
//!   readmission (entering Closed) — Half-Open probation counts as
//!   quarantine, since regular traffic is still fenced off.
//! * A lane is **evacuated** when more than half of the positions it
//!   currently serves are Open (and another live lane exists); it is
//!   **restored** once every position homed on it is Closed again. The
//!   asymmetry is deliberate hysteresis: one flapping slave must not
//!   bounce the whole lane's assignment.

use tsbus_des::{SimDuration, SimTime};
use tsbus_faults::{Admission, BreakerState, CircuitBreaker, SupervisionConfig, Transition};

use crate::wiring::WirePlan;

/// What one recorded outcome changed, for the bus to book into its
/// instruments.
#[derive(Debug, Default)]
pub(crate) struct OutcomeEffects {
    /// The breaker transition, if the outcome caused one.
    pub(crate) transition: Option<Transition>,
    /// A quarantine span that just closed (trip → readmission).
    pub(crate) quarantine_closed: Option<SimDuration>,
    /// Rebalances performed: `(lane, slaves moved, restored)`.
    pub(crate) rebalances: Vec<(u8, u8, bool)>,
    /// A degraded-mode span that just closed (first evacuation → last
    /// restoration).
    pub(crate) degraded_closed: Option<SimDuration>,
}

/// Per-slave breakers plus the lane plan; see the module docs.
#[derive(Debug)]
pub(crate) struct Supervisor {
    breakers: Vec<CircuitBreaker>,
    plan: WirePlan,
    /// Quarantine start per position (set on trip, cleared on readmission).
    open_since: Vec<Option<SimTime>>,
    /// When the bus entered degraded mode (first lane evacuated).
    degraded_since: Option<SimTime>,
}

impl Supervisor {
    pub(crate) fn new(
        cfg: SupervisionConfig,
        open_period: SimDuration,
        lanes: u8,
        slaves: usize,
    ) -> Self {
        Supervisor {
            breakers: (0..slaves)
                .map(|_| CircuitBreaker::new(cfg, open_period))
                .collect(),
            plan: WirePlan::striped(lanes, slaves),
            open_since: vec![None; slaves],
            degraded_since: None,
        }
    }

    /// The breaker state of the slave at chain position `pos`.
    pub(crate) fn state(&self, pos: usize) -> BreakerState {
        self.breakers[pos].state()
    }

    /// Whether regular (non-probe) traffic for `pos` must fail fast:
    /// quarantine fences jobs off through Half-Open probation too.
    pub(crate) fn quarantined(&self, pos: usize) -> bool {
        self.breakers[pos].state() != BreakerState::Closed
    }

    /// The lane currently responsible for polling position `pos`.
    pub(crate) fn poll_lane_of(&self, pos: usize) -> u8 {
        self.plan.lane_of(pos)
    }

    /// The rebalancing conservation invariant (see
    /// [`WirePlan::conserves_assignment`]).
    pub(crate) fn conserves_assignment(&self) -> bool {
        self.plan.conserves_assignment()
    }

    /// Whether any lane is currently evacuated.
    pub(crate) fn degraded(&self) -> bool {
        self.plan.any_evacuated()
    }

    /// When `pos`'s current quarantine span started, if it is in one.
    pub(crate) fn quarantined_since(&self, pos: usize) -> Option<SimTime> {
        self.open_since[pos]
    }

    /// Consults `pos`'s breaker before a keep-alive poll at `now`. A
    /// returned transition (Open → Half-Open when the quarantine window
    /// expired) must be booked by the caller.
    pub(crate) fn admit_poll(
        &mut self,
        now: SimTime,
        pos: usize,
    ) -> (Admission, Option<Transition>) {
        self.breakers[pos].admit(now)
    }

    /// Feeds one transaction outcome for `pos` and computes the fallout:
    /// breaker transition, quarantine-span closure, lane evacuations or
    /// restorations, and degraded-span closure.
    pub(crate) fn record(&mut self, now: SimTime, pos: usize, ok: bool) -> OutcomeEffects {
        let mut effects = OutcomeEffects::default();
        let Some(transition) = self.breakers[pos].record(now, ok) else {
            return effects;
        };
        effects.transition = Some(transition);
        match transition.to {
            BreakerState::Open => {
                // A Half-Open → Open re-trip extends the existing span.
                if self.open_since[pos].is_none() {
                    self.open_since[pos] = Some(now);
                }
                self.maybe_evacuate(now, pos, &mut effects);
            }
            BreakerState::Closed => {
                effects.quarantine_closed = self.open_since[pos]
                    .take()
                    .map(|since| now.saturating_duration_since(since));
                self.maybe_restore(now, &mut effects);
            }
            BreakerState::HalfOpen => {}
        }
        effects
    }

    /// Evacuates `pos`'s lane if its Open positions now form a majority
    /// and a live lane remains to absorb them.
    fn maybe_evacuate(&mut self, now: SimTime, pos: usize, effects: &mut OutcomeEffects) {
        let lane = self.plan.lane_of(pos);
        if self.plan.lanes() < 2 || self.plan.is_evacuated(lane) {
            return;
        }
        let (mut total, mut open) = (0u32, 0u32);
        for p in 0..self.plan.positions() {
            if self.plan.lane_of(p) == lane {
                total += 1;
                if self.breakers[p].state() == BreakerState::Open {
                    open += 1;
                }
            }
        }
        if 2 * open > total {
            let moves = self.plan.evacuate(lane);
            if !moves.is_empty() {
                effects.rebalances.push((lane, moves.len() as u8, false));
                if self.degraded_since.is_none() {
                    self.degraded_since = Some(now);
                }
            }
        }
    }

    /// Restores every evacuated lane whose home slaves are all Closed
    /// again, closing the degraded span when the last one comes back.
    fn maybe_restore(&mut self, now: SimTime, effects: &mut OutcomeEffects) {
        for lane in 0..self.plan.lanes() {
            if !self.plan.is_evacuated(lane) {
                continue;
            }
            let all_home_closed = (0..self.plan.positions())
                .filter(|&p| self.plan.home_lane_of(p) == lane)
                .all(|p| self.breakers[p].state() == BreakerState::Closed);
            if all_home_closed {
                let moves = self.plan.restore(lane);
                effects.rebalances.push((lane, moves.len() as u8, true));
            }
        }
        if !self.plan.any_evacuated() {
            if let Some(since) = self.degraded_since.take() {
                effects.degraded_closed = Some(now.saturating_duration_since(since));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn supervisor(lanes: u8, slaves: usize) -> Supervisor {
        Supervisor::new(
            SupervisionConfig::conservative(),
            SimDuration::from_micros(512),
            lanes,
            slaves,
        )
    }

    fn trip(sup: &mut Supervisor, pos: usize, now: SimTime) -> OutcomeEffects {
        let mut last = OutcomeEffects::default();
        for _ in 0..4 {
            last = sup.record(now, pos, false);
        }
        assert_eq!(sup.state(pos), BreakerState::Open);
        last
    }

    #[test]
    fn tripping_a_minority_does_not_rebalance() {
        let mut sup = supervisor(2, 4); // lane 0: {0, 2}, lane 1: {1, 3}
        let effects = trip(&mut sup, 1, SimTime::ZERO);
        assert_eq!(effects.transition.map(|t| t.to), Some(BreakerState::Open));
        assert!(effects.rebalances.is_empty(), "1 of 2 is not a majority");
        assert!(!sup.degraded());
        assert!(sup.conserves_assignment());
    }

    #[test]
    fn majority_open_evacuates_and_full_recovery_restores() {
        let mut sup = supervisor(2, 4);
        let t0 = SimTime::ZERO;
        trip(&mut sup, 1, t0);
        let effects = trip(&mut sup, 3, t0);
        // Both of lane 1's positions are Open: evacuate to lane 0.
        assert_eq!(effects.rebalances, vec![(1, 2, false)]);
        assert!(sup.degraded());
        assert_eq!(sup.poll_lane_of(1), 0);
        assert_eq!(sup.poll_lane_of(3), 0);
        assert!(sup.conserves_assignment());

        // Readmit both through Half-Open probes; only the second
        // readmission restores the lane and closes the degraded span.
        let later = t0 + SimDuration::from_micros(512);
        for (i, pos) in [1usize, 3].into_iter().enumerate() {
            let (adm, tr) = sup.admit_poll(later, pos);
            assert_eq!(adm, Admission::Probe);
            assert_eq!(tr.map(|t| t.to), Some(BreakerState::HalfOpen));
            sup.record(later, pos, true);
            let (adm, _) = sup.admit_poll(later, pos);
            assert_eq!(adm, Admission::Probe);
            let effects = sup.record(later, pos, true);
            assert_eq!(sup.state(pos), BreakerState::Closed);
            assert_eq!(
                effects.quarantine_closed,
                Some(SimDuration::from_micros(512))
            );
            if i == 0 {
                assert!(effects.rebalances.is_empty());
                assert!(effects.degraded_closed.is_none());
            } else {
                assert_eq!(effects.rebalances, vec![(1, 2, true)]);
                assert_eq!(effects.degraded_closed, Some(SimDuration::from_micros(512)));
            }
        }
        assert!(!sup.degraded());
        assert_eq!(sup.poll_lane_of(1), 1);
        assert!(sup.conserves_assignment());
    }

    #[test]
    fn single_lane_never_rebalances_but_still_quarantines() {
        let mut sup = supervisor(1, 3);
        let effects = trip(&mut sup, 0, SimTime::ZERO);
        assert!(effects.rebalances.is_empty());
        assert!(!sup.degraded());
        assert!(sup.quarantined(0));
        assert!(!sup.quarantined(1));
        assert!(sup.conserves_assignment());
    }

    #[test]
    fn half_open_retrip_extends_the_quarantine_span() {
        let mut sup = supervisor(1, 1);
        let t0 = SimTime::ZERO;
        trip(&mut sup, 0, t0);
        assert_eq!(sup.quarantined_since(0), Some(t0));
        let probe_at = t0 + SimDuration::from_micros(512);
        let (adm, _) = sup.admit_poll(probe_at, 0);
        assert_eq!(adm, Admission::Probe);
        let effects = sup.record(probe_at, 0, false);
        assert_eq!(effects.transition.map(|t| t.to), Some(BreakerState::Open));
        assert_eq!(sup.quarantined_since(0), Some(t0), "span is not restarted");
        assert!(effects.quarantine_closed.is_none());

        // Eventually readmitted: the span covers both Open windows.
        let retry_at = probe_at + SimDuration::from_micros(512);
        for _ in 0..2 {
            let (adm, _) = sup.admit_poll(retry_at, 0);
            assert_eq!(adm, Admission::Probe);
        }
        sup.record(retry_at, 0, true);
        let effects = sup.record(retry_at, 0, true);
        assert_eq!(
            effects.quarantine_closed,
            Some(SimDuration::from_micros(1024))
        );
    }
}
