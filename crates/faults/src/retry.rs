//! Master retry policy: how many times to resend, and how long to wait.
//!
//! The TpWIRE spec only says the master resends "a predetermined number of
//! times"; the seed implementation hard-coded an immediate-resend counter.
//! This module turns that into data: one retry budget with backoff
//! measured in bit periods, so a sweep can ask whether waiting out a burst
//! beats hammering into it.

/// Delay schedule between retry attempts, in bus bit periods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backoff {
    /// Resend immediately (the seed behaviour).
    None,
    /// Wait a fixed number of bit periods before every resend.
    Fixed {
        /// Delay before each retry.
        bits: u64,
    },
    /// Wait `base_bits << (attempt - 1)`, capped at `cap_bits`.
    Exponential {
        /// Delay before the first retry.
        base_bits: u64,
        /// Upper bound on any single delay.
        cap_bits: u64,
    },
}

impl Backoff {
    /// Delay (in bit periods) before retry number `attempt` (1-based:
    /// `attempt == 1` is the first resend; `attempt == 0` is treated as the
    /// first resend too, so a miscounted caller gets the shortest wait, not
    /// a shifted-by-`u32::MAX` one).
    ///
    /// Saturates rather than wraps everywhere: a zero `base_bits` never
    /// delays regardless of the attempt count, and attempts large enough to
    /// overflow the shift saturate to `cap_bits`.
    #[must_use]
    pub fn delay_bits(&self, attempt: u32) -> u64 {
        match *self {
            Backoff::None => 0,
            Backoff::Fixed { bits } => bits,
            Backoff::Exponential {
                base_bits,
                cap_bits,
            } => {
                let shift = attempt.saturating_sub(1).min(63);
                base_bits.saturating_shl(shift).min(cap_bits)
            }
        }
    }
}

/// Saturating left shift helper (u64 lacks one in std).
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> Self {
        if self == 0 {
            return 0;
        }
        // `x << lz(x)` still fits (the top set bit lands on bit 63); only
        // shifting *past* the leading zeros overflows.
        if shift > self.leading_zeros() {
            u64::MAX
        } else {
            self << shift
        }
    }
}

/// The master's retry policy: one resend budget and backoff schedule for
/// every frame class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of *resends* after the initial attempt.
    pub max_retries: u8,
    /// Delay schedule between attempts.
    pub backoff: Backoff,
}

impl RetryPolicy {
    /// Immediate resends, `max_retries` times — the seed behaviour
    /// (historically `BusParams::max_retries`).
    #[must_use]
    pub const fn immediate(max_retries: u8) -> Self {
        Self {
            max_retries,
            backoff: Backoff::None,
        }
    }

    /// Worst-case cumulative backoff across a full retry budget, in bit
    /// periods (saturating).
    ///
    /// This is the longest span the master can spend *silent* on the wire
    /// while it waits out backoff delays for one transaction. Corrupted
    /// frames do not feed the slaves' reset watchdogs, so this sum — not
    /// any single delay — is what must stay below the slave reset timeout
    /// (2048 bit periods in the TpWIRE specification): beyond it the
    /// slaves reset mid-recovery and the remaining retries fail against
    /// deselected hardware.
    #[must_use]
    pub(crate) fn worst_case_backoff_bits(&self) -> u64 {
        let mut total = 0u64;
        for attempt in 1..=u32::from(self.max_retries) {
            total = total.saturating_add(self.backoff.delay_bits(attempt));
        }
        total
    }

    /// Returns a copy whose worst-case cumulative backoff fits within
    /// `budget_bits`, along with whether anything was changed.
    ///
    /// The clamp is deliberately conservative and deterministic: each
    /// per-attempt delay is capped at `budget_bits / max_retries`, so the
    /// sum can never exceed the budget. Policies already inside the budget
    /// come back untouched.
    #[must_use]
    pub fn clamped_to_watchdog(self, budget_bits: u64) -> (Self, bool) {
        if self.worst_case_backoff_bits() <= budget_bits {
            return (self, false);
        }
        let per_attempt = budget_bits / u64::from(self.max_retries).max(1);
        let backoff = match self.backoff {
            Backoff::None => Backoff::None,
            Backoff::Fixed { .. } => Backoff::Fixed { bits: per_attempt },
            Backoff::Exponential { base_bits, .. } => Backoff::Exponential {
                base_bits: base_bits.min(per_attempt),
                cap_bits: per_attempt,
            },
        };
        (
            RetryPolicy {
                max_retries: self.max_retries,
                backoff,
            },
            true,
        )
    }
}

/// Frame classification for retry accounting: each retry is counted and
/// traced under the class of the frame it re-sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameClass {
    /// Node selection, pointer setup, discovery, and other control frames.
    Control,
    /// Data reads from the stream FIFO (alternating-bit protected).
    StreamRead,
    /// Data writes into the stream FIFO.
    StreamWrite,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedules() {
        assert_eq!(Backoff::None.delay_bits(1), 0);
        assert_eq!(Backoff::None.delay_bits(7), 0);
        let fixed = Backoff::Fixed { bits: 64 };
        assert_eq!(fixed.delay_bits(1), 64);
        assert_eq!(fixed.delay_bits(5), 64);
        let exp = Backoff::Exponential {
            base_bits: 32,
            cap_bits: 2048,
        };
        assert_eq!(exp.delay_bits(1), 32);
        assert_eq!(exp.delay_bits(2), 64);
        assert_eq!(exp.delay_bits(3), 128);
        assert_eq!(exp.delay_bits(10), 2048, "caps at cap_bits");
        assert_eq!(exp.delay_bits(100), 2048, "huge attempts saturate");
    }

    #[test]
    fn zero_base_never_delays() {
        let exp = Backoff::Exponential {
            base_bits: 0,
            cap_bits: 1024,
        };
        assert_eq!(exp.delay_bits(1), 0);
        assert_eq!(exp.delay_bits(64), 0);
        assert_eq!(exp.delay_bits(u32::MAX), 0, "zero base saturates at zero");
    }

    #[test]
    fn huge_attempt_counts_saturate_cleanly() {
        let uncapped = Backoff::Exponential {
            base_bits: 1,
            cap_bits: u64::MAX,
        };
        // Shift saturates at 63; 1 << 63 still fits exactly (no premature
        // jump to u64::MAX — the old `>=` comparison saturated one shift
        // too early).
        assert_eq!(uncapped.delay_bits(64), 1 << 63);
        assert_eq!(uncapped.delay_bits(u32::MAX), 1 << 63);
        let wide = Backoff::Exponential {
            base_bits: 3,
            cap_bits: u64::MAX,
        };
        // 3 << 63 overflows, so it must saturate to u64::MAX, capped.
        assert_eq!(wide.delay_bits(64), u64::MAX);
        assert_eq!(wide.delay_bits(u32::MAX.saturating_sub(1)), u64::MAX);
        // attempt 0 (a miscounted caller) behaves like the first resend.
        assert_eq!(
            Backoff::Exponential {
                base_bits: 32,
                cap_bits: 2048
            }
            .delay_bits(0),
            32
        );
    }

    #[test]
    fn worst_case_cumulative_backoff_sums_the_schedule() {
        // 32 + 64 + 128 + 128 = 352.
        let p = RetryPolicy {
            max_retries: 4,
            backoff: Backoff::Exponential {
                base_bits: 32,
                cap_bits: 128,
            },
        };
        assert_eq!(p.worst_case_backoff_bits(), 352);
        assert_eq!(RetryPolicy::immediate(200).worst_case_backoff_bits(), 0);
        let saturating = RetryPolicy {
            max_retries: 255,
            backoff: Backoff::Fixed { bits: u64::MAX },
        };
        assert_eq!(saturating.worst_case_backoff_bits(), u64::MAX);
    }

    #[test]
    fn watchdog_clamp_is_idempotent_and_fits() {
        let too_patient = RetryPolicy {
            max_retries: 8,
            backoff: Backoff::Exponential {
                base_bits: 256,
                cap_bits: 4096,
            },
        };
        assert!(too_patient.worst_case_backoff_bits() > 2048);
        let (clamped, changed) = too_patient.clamped_to_watchdog(2048);
        assert!(changed);
        assert!(clamped.worst_case_backoff_bits() <= 2048);
        // Per-attempt cap = 2048 / 8 = 256 bits.
        assert_eq!(
            clamped.backoff,
            Backoff::Exponential {
                base_bits: 256,
                cap_bits: 256,
            }
        );
        let (again, changed_again) = clamped.clamped_to_watchdog(2048);
        assert_eq!(again, clamped);
        assert!(!changed_again, "a fitting policy passes through untouched");
    }
}
