//! Shared retry decisions: one ladder, every layer.
//!
//! Two decision shapes cover the stack:
//!
//! * [`frame_step`] — the wire-level ladder of the TpWIRE master: a
//!   failed transaction either fast-fails against an Open circuit
//!   breaker (the *breaker-admission* input, computed by the
//!   supervision layer), retries with the policy's backoff while
//!   attempts remain, or gives up. The backoff schedule comes from
//!   [`tsbus_faults::RetryPolicy`], already clamped against the reset
//!   watchdog by the bus.
//! * [`request_step`] — the request-level budget of the client and the
//!   shard router, whose re-issues are spaced by a fixed policy delay
//!   rather than wire-bit backoff: retry while total sends stay under
//!   the budget, give up after.

use tsbus_faults::RetryPolicy;

/// What the wire-level ladder decided for a failed transaction attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameStep {
    /// Re-issue as attempt `attempt` after `delay_bits` of backoff
    /// (zero means immediately, without a timer round-trip).
    Retry {
        /// The retry's attempt number (previous attempts + 1).
        attempt: u8,
        /// Backoff to burn first, in 64-bit wire words.
        delay_bits: u64,
    },
    /// The target is fenced off by an Open breaker: fail now instead of
    /// burning backoff against a dead slave.
    FastFail,
    /// The attempt budget is spent; the transaction failed for good.
    GiveUp,
}

/// Decides the fate of a failed transaction that has already burned
/// `attempts` sends. `fenced` is the breaker-admission input: whether
/// the supervision layer holds the target's breaker Open.
#[must_use]
pub fn frame_step(attempts: u8, fenced: bool, params: &RetryPolicy) -> FrameStep {
    if fenced {
        return FrameStep::FastFail;
    }
    if attempts < params.max_retries {
        let attempt = attempts + 1;
        FrameStep::Retry {
            attempt,
            delay_bits: params.backoff.delay_bits(u32::from(attempt)),
        }
    } else {
        FrameStep::GiveUp
    }
}

/// What the request-level budget decided for a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestStep {
    /// Attempts remain: re-issue after the layer's policy delay.
    Retry,
    /// The budget (total sends, the first included) is spent.
    GiveUp,
}

/// Decides whether a request that has burned `attempts` total sends may
/// be re-issued under a budget of `max_attempts`.
#[must_use]
pub fn request_step(attempts: u32, max_attempts: u32) -> RequestStep {
    if attempts < max_attempts {
        RequestStep::Retry
    } else {
        RequestStep::GiveUp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsbus_faults::Backoff;

    #[test]
    fn fenced_targets_fast_fail_regardless_of_budget() {
        let params = RetryPolicy::immediate(3);
        assert_eq!(frame_step(0, true, &params), FrameStep::FastFail);
        assert_eq!(frame_step(3, true, &params), FrameStep::FastFail);
    }

    #[test]
    fn ladder_walks_the_backoff_schedule_then_gives_up() {
        let params = RetryPolicy {
            max_retries: 2,
            backoff: Backoff::Exponential {
                base_bits: 64,
                cap_bits: 1024,
            },
        };
        assert_eq!(
            frame_step(1, false, &params),
            FrameStep::Retry {
                attempt: 2,
                delay_bits: 128,
            }
        );
        assert_eq!(frame_step(2, false, &params), FrameStep::GiveUp);
    }

    #[test]
    fn immediate_retries_report_zero_delay() {
        let params = RetryPolicy::immediate(1);
        assert_eq!(
            frame_step(0, false, &params),
            FrameStep::Retry {
                attempt: 1,
                delay_bits: 0,
            }
        );
    }

    #[test]
    fn request_budget_counts_the_first_send() {
        assert_eq!(request_step(1, 1), RequestStep::GiveUp);
        assert_eq!(request_step(1, 2), RequestStep::Retry);
        assert_eq!(request_step(2, 2), RequestStep::GiveUp);
    }
}
