//! # tsbus-faults — deterministic fault injection for the tsbus workspace
//!
//! The paper's whole premise is estimating TpWIRE behaviour under adverse
//! conditions — its spec leans on recovery machinery (master resend, the
//! 2048-bit-period slave reset timeout) — but a uniform per-frame error
//! probability is a poor model of real cable faults, which arrive in bursts
//! and take whole nodes down. This crate supplies the shared fault
//! vocabulary the rest of the workspace consumes:
//!
//! * [`BurstParams`] / [`GilbertElliott`] — a two-state burst error channel
//!   (good/bad with geometric sojourns), evaluated in continuous simulated
//!   time so backoff actually rides out bursts.
//! * [`RetryPolicy`] / [`Backoff`] / [`FrameClass`] — the master's resend
//!   strategy, extracted from a hard-coded count into one retry budget
//!   with fixed or exponential backoff measured in bit periods, and the
//!   frame classes retries are counted under.
//! * [`FaultSchedule`] / [`FaultDriver`] / [`FaultCommand`] — timed fault
//!   events (slave crash/revive/reset, daisy-chain break/heal) delivered to
//!   a target component by a small driver [`Component`](tsbus_des::Component).
//! * [`SupervisionConfig`] / [`CircuitBreaker`] — the
//!   supervision layer's per-slave health tracking and the
//!   Closed → Open → Half-Open circuit breaker the master consults before
//!   issuing transactions, so persistently sick slaves are quarantined
//!   instead of bleeding the bus through cumulative retry backoff.
//!
//! Everything draws from the simulation's seeded [`SimRng`] streams: the
//! same master seed replays the identical fault trace, byte for byte.
//!
//! [`SimRng`]: tsbus_des::SimRng

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod burst;
mod retry;
mod schedule;
mod supervise;

pub use burst::{BurstParams, GilbertElliott};
pub use retry::{Backoff, FrameClass, RetryPolicy};
pub use schedule::FaultEvent;
pub use schedule::{FaultCommand, FaultDriver, FaultKind, FaultSchedule};
pub use supervise::{Admission, BreakerState, CircuitBreaker, SupervisionConfig, Transition};

/// Validates a probability parameter: must be finite and within `[0, 1]`.
///
/// The fault layer is all about injecting garbage *downstream*; its own
/// knobs reject garbage loudly instead of producing nonsense draws.
///
/// # Panics
///
/// Panics (with the offending parameter name) if `p` is NaN, infinite, or
/// outside `[0, 1]`.
pub(crate) fn validate_probability(name: &str, p: f64) -> f64 {
    assert!(
        p.is_finite() && (0.0..=1.0).contains(&p),
        "{name} must be a probability in [0, 1], got {p}"
    );
    p
}

#[cfg(test)]
mod tests {
    use super::validate_probability;

    #[test]
    fn accepts_boundary_probabilities() {
        assert_eq!(validate_probability("p", 0.0), 0.0);
        assert_eq!(validate_probability("p", 1.0), 1.0);
        assert_eq!(validate_probability("p", 0.25), 0.25);
    }

    #[test]
    #[should_panic(expected = "loss must be a probability")]
    fn rejects_nan() {
        validate_probability("loss", f64::NAN);
    }

    #[test]
    #[should_panic(expected = "got 1.5")]
    fn rejects_out_of_range() {
        validate_probability("dup", 1.5);
    }

    #[test]
    #[should_panic(expected = "got -0.1")]
    fn rejects_negative() {
        validate_probability("err", -0.1);
    }
}
