//! Gilbert-Elliott two-state burst error channel.
//!
//! The classic model: the channel alternates between a *good* state with a
//! low per-frame error probability and a *bad* state with a high one, with
//! geometric sojourn times in each. Unlike a per-frame Markov step, this
//! implementation is a semi-Markov process over continuous simulated time:
//! sojourns are drawn up front (in frame-times) and pinned to absolute
//! [`SimTime`] instants, so time that passes while a master backs off lets
//! the channel leave a burst — which is exactly the dynamic that makes
//! retry backoff worth modelling.

use tsbus_des::{SimDuration, SimRng, SimTime};

use crate::validate_probability;

/// Parameters of the two-state Gilbert-Elliott channel.
///
/// Transition probabilities are per frame-time: the expected sojourn in the
/// good state is `1 / good_to_bad` frames, and the mean burst length is
/// `1 / bad_to_good` frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstParams {
    /// Per-frame corruption probability while the channel is good.
    pub(crate) good_error_rate: f64,
    /// Per-frame corruption probability while the channel is bad.
    pub(crate) bad_error_rate: f64,
    /// Per-frame probability of leaving the good state.
    pub(crate) good_to_bad: f64,
    /// Per-frame probability of leaving the bad state.
    pub(crate) bad_to_good: f64,
}

impl BurstParams {
    /// Creates validated parameters.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is NaN or outside `[0, 1]`.
    #[must_use]
    pub(crate) fn new(
        good_error_rate: f64,
        bad_error_rate: f64,
        good_to_bad: f64,
        bad_to_good: f64,
    ) -> Self {
        Self {
            good_error_rate: validate_probability("good_error_rate", good_error_rate),
            bad_error_rate: validate_probability("bad_error_rate", bad_error_rate),
            good_to_bad: validate_probability("good_to_bad", good_to_bad),
            bad_to_good: validate_probability("bad_to_good", bad_to_good),
        }
    }

    /// Convenience constructor from mean sojourn lengths (in frames).
    ///
    /// `mean_good_frames` / `mean_bad_frames` are the expected stay in each
    /// state; error rates are the per-frame corruption probabilities there.
    ///
    /// # Panics
    ///
    /// Panics if a mean length is not at least 1, or a rate is invalid.
    #[must_use]
    pub fn with_mean_lengths(
        mean_good_frames: f64,
        mean_bad_frames: f64,
        good_error_rate: f64,
        bad_error_rate: f64,
    ) -> Self {
        assert!(
            mean_good_frames >= 1.0 && mean_bad_frames >= 1.0,
            "mean sojourns must be at least one frame"
        );
        Self::new(
            good_error_rate,
            bad_error_rate,
            1.0 / mean_good_frames,
            1.0 / mean_bad_frames,
        )
    }

    /// Long-run fraction of time spent in the bad state.
    #[must_use]
    pub(crate) fn steady_state_bad(&self) -> f64 {
        if self.good_to_bad == 0.0 {
            return 0.0;
        }
        self.good_to_bad / (self.good_to_bad + self.bad_to_good)
    }

    /// Long-run average per-frame error rate.
    #[must_use]
    pub fn mean_error_rate(&self) -> f64 {
        let bad = self.steady_state_bad();
        self.good_error_rate * (1.0 - bad) + self.bad_error_rate * bad
    }
}

/// Which state the channel is currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChannelState {
    /// Low error rate; sojourn governed by `good_to_bad`.
    Good,
    /// Burst in progress; sojourn governed by `bad_to_good`.
    Bad,
}

/// The evolving channel: ask it whether a frame sent *now* is corrupted.
#[derive(Debug, Clone)]
pub struct GilbertElliott {
    params: BurstParams,
    state: ChannelState,
    /// Absolute instant the current sojourn ends; `None` until first use.
    state_until: Option<SimTime>,
}

impl GilbertElliott {
    /// Creates a channel starting in the good state.
    #[must_use]
    pub fn new(params: BurstParams) -> Self {
        Self {
            params,
            state: ChannelState::Good,
            state_until: None,
        }
    }

    /// Draws whether a frame transmitted at `now` (one frame lasting
    /// `frame_time`) is corrupted, advancing the channel first.
    #[inline]
    pub fn corrupts(&mut self, now: SimTime, frame_time: SimDuration, rng: &mut SimRng) -> bool {
        let rate = self.rate_at(now, frame_time, rng);
        rate > 0.0 && rng.chance(rate)
    }

    /// Advances the channel to `now` and returns the per-frame error rate
    /// of the state it is then in (no corruption draw is consumed). Useful
    /// for aggregating several back-to-back frames, e.g. a DMA burst.
    #[inline]
    pub fn rate_at(&mut self, now: SimTime, frame_time: SimDuration, rng: &mut SimRng) -> f64 {
        self.advance_to(now, frame_time, rng);
        match self.state {
            ChannelState::Good => self.params.good_error_rate,
            ChannelState::Bad => self.params.bad_error_rate,
        }
    }

    /// Advances the renewal process so the state reflects the instant `now`.
    fn advance_to(&mut self, now: SimTime, frame_time: SimDuration, rng: &mut SimRng) {
        let mut until = match self.state_until {
            Some(t) => t,
            None => {
                let t = now.saturating_add(self.sojourn(frame_time, rng));
                self.state_until = Some(t);
                t
            }
        };
        while now >= until {
            self.state = match self.state {
                ChannelState::Good => ChannelState::Bad,
                ChannelState::Bad => ChannelState::Good,
            };
            until = until.saturating_add(self.sojourn(frame_time, rng));
            self.state_until = Some(until);
        }
    }

    /// Draws a geometric sojourn for the current state, in frame-times.
    fn sojourn(&self, frame_time: SimDuration, rng: &mut SimRng) -> SimDuration {
        let leave = match self.state {
            ChannelState::Good => self.params.good_to_bad,
            ChannelState::Bad => self.params.bad_to_good,
        };
        let frames = if leave <= 0.0 {
            // Absorbing state: effectively forever.
            u64::MAX / 4
        } else if leave >= 1.0 {
            1
        } else {
            // Inverse-CDF geometric draw: support {1, 2, ...}.
            let u = rng.uniform_f64();
            let f = ((1.0 - u).ln() / (1.0 - leave).ln()).floor() + 1.0;
            if f >= 1e18 {
                1_000_000_000_000_000_000
            } else {
                f as u64
            }
        };
        saturating_frames(frame_time, frames)
    }
}

/// `frame_time * frames`, saturating instead of overflowing.
fn saturating_frames(frame_time: SimDuration, frames: u64) -> SimDuration {
    let nanos = frame_time.as_nanos().saturating_mul(frames);
    SimDuration::from_nanos(nanos)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRAME: SimDuration = SimDuration::from_nanos(2000); // 16 bits @ 8 MHz

    #[test]
    fn clean_channel_never_corrupts() {
        let mut ch = GilbertElliott::new(BurstParams::new(0.0, 0.0, 0.1, 0.5));
        let mut rng = SimRng::seeded(1);
        let mut t = SimTime::ZERO;
        for _ in 0..1000 {
            assert!(!ch.corrupts(t, FRAME, &mut rng));
            t = t.saturating_add(FRAME);
        }
    }

    #[test]
    fn always_bad_channel_corrupts_everything() {
        let params = BurstParams::new(0.0, 1.0, 1.0, 0.0);
        let mut ch = GilbertElliott::new(params);
        let mut rng = SimRng::seeded(2);
        // First frame may fall in the initial good sojourn; after that the
        // channel is absorbed into the bad state.
        let mut t = SimTime::from_secs(1);
        let mut corrupted = 0;
        for _ in 0..100 {
            if ch.corrupts(t, FRAME, &mut rng) {
                corrupted += 1;
            }
            t = t.saturating_add(FRAME);
        }
        assert!(
            corrupted >= 99,
            "absorbed bad channel corrupts: {corrupted}/100"
        );
    }

    #[test]
    fn same_seed_same_trace() {
        let params = BurstParams::with_mean_lengths(50.0, 8.0, 0.001, 0.6);
        let trace = |seed| {
            let mut ch = GilbertElliott::new(params);
            let mut rng = SimRng::seeded(seed);
            let mut t = SimTime::ZERO;
            let mut out = Vec::new();
            for _ in 0..500 {
                out.push(ch.corrupts(t, FRAME, &mut rng));
                t = t.saturating_add(FRAME);
            }
            out
        };
        assert_eq!(trace(7), trace(7));
        assert_ne!(trace(7), trace(8), "different seeds give different traces");
    }

    #[test]
    fn errors_cluster_into_bursts() {
        // A harshly bimodal channel: errors should arrive adjacent to other
        // errors far more often than a uniform channel of the same mean.
        let params = BurstParams::with_mean_lengths(200.0, 20.0, 0.0, 0.9);
        let mut ch = GilbertElliott::new(params);
        let mut rng = SimRng::seeded(42);
        let mut t = SimTime::ZERO;
        let trace: Vec<bool> = (0..20_000)
            .map(|_| {
                let c = ch.corrupts(t, FRAME, &mut rng);
                t = t.saturating_add(FRAME);
                c
            })
            .collect();
        let errors = trace.iter().filter(|&&c| c).count();
        assert!(errors > 100, "channel produced too few errors: {errors}");
        let adjacent = trace.windows(2).filter(|w| w[0] && w[1]).count();
        // Uniform with the same mean would see ~errors² / n adjacent pairs;
        // bursts must beat that by an order of magnitude.
        let uniform_expect = (errors * errors) as f64 / trace.len() as f64;
        assert!(
            adjacent as f64 > uniform_expect * 10.0,
            "errors not bursty: {adjacent} adjacent vs uniform {uniform_expect:.1}"
        );
    }

    #[test]
    fn time_passing_escapes_bursts() {
        // With a short mean burst, evaluating two frames far apart should
        // almost never see both bad; back-to-back frames often do.
        let params = BurstParams::with_mean_lengths(10.0, 5.0, 0.0, 1.0);
        let mut both_far = 0;
        for seed in 0..200 {
            let mut ch = GilbertElliott::new(params);
            let mut rng = SimRng::seeded(seed);
            let start = SimTime::ZERO;
            let first = ch.corrupts(start, FRAME, &mut rng);
            // Jump 10 000 frames ahead — far past any single sojourn.
            let later = start.saturating_add(saturating_frames(FRAME, 10_000));
            let second = ch.corrupts(later, FRAME, &mut rng);
            if first && second {
                both_far += 1;
            }
        }
        assert!(
            both_far < 120,
            "distant frames should rarely share a burst: {both_far}/200"
        );
    }

    #[test]
    fn steady_state_math() {
        let p = BurstParams::new(0.0, 1.0, 0.01, 0.09);
        assert!((p.steady_state_bad() - 0.1).abs() < 1e-12);
        assert!((p.mean_error_rate() - 0.1).abs() < 1e-12);
        let clean = BurstParams::new(0.0, 1.0, 0.0, 0.5);
        assert_eq!(clean.steady_state_bad(), 0.0);
    }

    #[test]
    #[should_panic(expected = "bad_error_rate")]
    fn rejects_invalid_rate() {
        let _ = BurstParams::new(0.0, f64::NAN, 0.1, 0.1);
    }
}
