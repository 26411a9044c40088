//! The packet-link fault matrix: loss, jitter, duplication, reordering.
//!
//! This is configuration only — `tsbus-core`'s `Link` consumes it at the
//! moment it schedules a delivery. The knobs mirror the relay-transport
//! fault matrix pattern: every effect is seeded, so a trace replays
//! identically from the same master seed.

use tsbus_des::SimDuration;

use crate::validate_probability;

/// Per-direction fault configuration for a packet link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkFaults {
    loss: u64,      // scaled by 2^32 for Eq/Hash friendliness
    duplicate: u64, // scaled by 2^32
    reorder: u64,   // scaled by 2^32
    /// Maximum extra uniform delay added to every delivered packet.
    pub jitter: SimDuration,
    /// Extra delay applied to packets picked for reordering.
    pub reorder_hold: SimDuration,
}

const PROB_SCALE: f64 = 4_294_967_296.0; // 2^32

fn to_scaled(name: &str, p: f64) -> u64 {
    (validate_probability(name, p) * PROB_SCALE) as u64
}

fn from_scaled(s: u64) -> f64 {
    s as f64 / PROB_SCALE
}

impl LinkFaults {
    /// A fault-free link (the default).
    pub const NONE: Self = Self {
        loss: 0,
        duplicate: 0,
        reorder: 0,
        jitter: SimDuration::ZERO,
        reorder_hold: SimDuration::ZERO,
    };

    /// Creates a fault-free configuration; chain `with_*` to arm faults.
    #[must_use]
    pub fn new() -> Self {
        Self::NONE
    }

    /// Sets the independent per-packet drop probability.
    ///
    /// # Panics
    /// Panics if `p` is NaN or outside `[0, 1]`.
    #[must_use]
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss = to_scaled("loss", p);
        self
    }

    /// Sets the independent per-packet duplication probability.
    ///
    /// # Panics
    /// Panics if `p` is NaN or outside `[0, 1]`.
    #[must_use]
    pub fn with_duplication(mut self, p: f64) -> Self {
        self.duplicate = to_scaled("duplicate", p);
        self
    }

    /// Sets uniform random extra delay in `[0, max_jitter]` per packet.
    #[must_use]
    pub fn with_jitter(mut self, max_jitter: SimDuration) -> Self {
        self.jitter = max_jitter;
        self
    }

    /// Sets bounded reordering: with probability `p` a packet is held an
    /// extra `hold`, letting later packets overtake it.
    ///
    /// # Panics
    /// Panics if `p` is NaN or outside `[0, 1]`.
    #[must_use]
    pub fn with_reordering(mut self, p: f64, hold: SimDuration) -> Self {
        self.reorder = to_scaled("reorder", p);
        self.reorder_hold = hold;
        self
    }

    /// The per-packet drop probability.
    #[must_use]
    pub fn loss(&self) -> f64 {
        from_scaled(self.loss)
    }

    /// The per-packet duplication probability.
    #[must_use]
    pub fn duplicate(&self) -> f64 {
        from_scaled(self.duplicate)
    }

    /// The per-packet reordering probability.
    #[must_use]
    pub fn reorder(&self) -> f64 {
        from_scaled(self.reorder)
    }

    /// Whether every fault is disabled (the fast path).
    #[must_use]
    pub fn is_none(&self) -> bool {
        *self == Self::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fault_free() {
        assert!(LinkFaults::default().is_none());
        assert!(LinkFaults::new().is_none());
        assert_eq!(LinkFaults::default(), LinkFaults::NONE);
    }

    #[test]
    fn builders_round_trip() {
        let f = LinkFaults::new()
            .with_loss(0.25)
            .with_duplication(0.5)
            .with_jitter(SimDuration::from_micros(30))
            .with_reordering(0.125, SimDuration::from_micros(100));
        assert!((f.loss() - 0.25).abs() < 1e-9);
        assert!((f.duplicate() - 0.5).abs() < 1e-9);
        assert!((f.reorder() - 0.125).abs() < 1e-9);
        assert_eq!(f.jitter, SimDuration::from_micros(30));
        assert_eq!(f.reorder_hold, SimDuration::from_micros(100));
        assert!(!f.is_none());
    }

    #[test]
    #[should_panic(expected = "loss must be a probability")]
    fn loss_rejects_nan() {
        let _ = LinkFaults::new().with_loss(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "duplicate must be a probability")]
    fn duplication_rejects_out_of_range() {
        let _ = LinkFaults::new().with_duplication(2.0);
    }
}
