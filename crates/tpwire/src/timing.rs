//! The durations the bus master's per-frame path needs, converted from bit
//! periods once per bus.
//!
//! [`BusParams::bits_to_time`] is an `f64` divide and a rounding step, and a
//! keep-alive poll alone needs a dozen such durations. [`FrameTiming`]
//! computes every one of them when the bus is built, so issuing a frame,
//! feeding the slave watchdogs and re-arming the poller are table lookups.
//! Each cached value equals the `BusParams` method it replaces, rounding
//! included; the tests below hold the two together.

use tsbus_des::SimDuration;

use crate::slave::Watchdog;
use crate::wiring::BusParams;

/// Per-bus timing table (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct FrameTiming {
    /// [`BusParams::frame_time`].
    pub(crate) frame: SimDuration,
    /// [`BusParams::response_timeout`].
    pub(crate) response_timeout: SimDuration,
    /// What an unanswered frame costs the master: frame, response timeout
    /// and gap, each rounded on its own. Converting the summed bits once
    /// would round differently.
    pub(crate) timeout_cost: SimDuration,
    /// Gap between idle keep-alive polls: `bits_to_time(idle_poll_bits)`.
    pub(crate) idle_poll: SimDuration,
    /// [`BusParams::broadcast_time`] over the whole chain.
    pub(crate) broadcast: SimDuration,
    /// The slave reset watchdog's durations.
    pub(crate) watchdog: Watchdog,
    /// [`BusParams::transaction_time`]`(pos + 1)`, indexed by chain
    /// position `pos`.
    transaction: Vec<SimDuration>,
    /// When a TX frame reaches chain position `pos`, after it starts: the
    /// frame plus `pos + 1` hops of `bits_to_time(hop_delay_bits)`.
    arrival: Vec<SimDuration>,
}

impl FrameTiming {
    /// Converts every per-frame duration of a `chain_len`-slave bus under
    /// `params`.
    pub(crate) fn new(params: &BusParams, chain_len: usize) -> Self {
        let frame = params.frame_time();
        let response_timeout = params.response_timeout();
        let hops = u32::try_from(chain_len).expect("chain length fits the 7-bit id space");
        let hop = params.bits_to_time(params.hop_delay_bits);
        FrameTiming {
            frame,
            response_timeout,
            timeout_cost: frame + response_timeout + params.bits_to_time(params.gap_bits),
            idle_poll: params.bits_to_time(params.idle_poll_bits),
            broadcast: params.broadcast_time(hops),
            watchdog: Watchdog::new(params),
            transaction: (1..=hops).map(|h| params.transaction_time(h)).collect(),
            arrival: (1..=u64::from(hops)).map(|h| frame + hop * h).collect(),
        }
    }

    /// How long after a TX frame starts the slave at chain position `pos`
    /// (0-based) sees it.
    pub(crate) fn arrivals(&self) -> &[SimDuration] {
        &self.arrival
    }

    /// Duration of a complete transaction with the slave at chain position
    /// `pos` (0-based).
    pub(crate) fn transaction(&self, pos: usize) -> SimDuration {
        self.transaction[pos]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wiring::{Wiring, RESET_ACTIVE_BITS, RESET_TIMEOUT_BITS};

    /// Every wiring, at bit rates whose period is a whole number of
    /// nanoseconds (8 Mbit/s) and rates whose period is not (115 200 Hz,
    /// 3 Mbit/s), with the default gap and a 1-bit gap.
    fn configurations() -> Vec<BusParams> {
        let wirings = [
            Wiring::Single,
            Wiring::parallel_data(2).expect("valid"),
            Wiring::parallel_data(4).expect("valid"),
            Wiring::parallel_buses(2).expect("valid"),
        ];
        let mut out = Vec::new();
        for wiring in wirings {
            for rate in [115_200.0, 3_000_000.0, 8_000_000.0] {
                for gap_bits in [2, 1] {
                    let mut p = BusParams::theseus_default()
                        .with_wiring(wiring)
                        .with_bit_rate(rate);
                    p.gap_bits = gap_bits;
                    out.push(p);
                }
            }
        }
        out
    }

    #[test]
    fn cached_durations_equal_the_params_methods() {
        for p in configurations() {
            let t = FrameTiming::new(&p, 127);
            assert_eq!(t.frame, p.frame_time(), "{p:?}");
            let hop = p.bits_to_time(p.hop_delay_bits);
            for (pos, &arrival) in t.arrivals().iter().enumerate() {
                assert_eq!(arrival, p.frame_time() + hop * (pos as u64 + 1), "{p:?}");
            }
            assert_eq!(t.response_timeout, p.response_timeout(), "{p:?}");
            assert_eq!(
                t.timeout_cost,
                p.frame_time() + p.response_timeout() + p.bits_to_time(p.gap_bits),
                "{p:?}"
            );
            assert_eq!(t.idle_poll, p.bits_to_time(p.idle_poll_bits), "{p:?}");
            assert_eq!(t.watchdog.reset_timeout, p.reset_timeout(), "{p:?}");
            assert_eq!(t.watchdog.reset_active, p.reset_active(), "{p:?}");
            assert_eq!(t.watchdog.reset_timeout, p.bits_to_time(RESET_TIMEOUT_BITS));
            assert_eq!(t.watchdog.reset_active, p.bits_to_time(RESET_ACTIVE_BITS));
            for hops in 1..=127u32 {
                let pos = hops as usize - 1;
                assert_eq!(
                    t.transaction(pos),
                    p.transaction_time(hops),
                    "{p:?} @ {hops}"
                );
                let shorter = FrameTiming::new(&p, pos + 1);
                assert_eq!(shorter.broadcast, p.broadcast_time(hops), "{p:?} @ {hops}");
            }
        }
    }

    #[test]
    fn timeout_cost_is_not_one_conversion_of_the_summed_bits() {
        // Folding the three terms into one `bits_to_time` call rounds once
        // instead of three times; on some configurations that moves the
        // result, so the table must keep the three-term sum.
        let folded_differs = configurations().iter().any(|p| {
            let folded =
                p.bits_to_time(p.wiring.frame_bit_periods() + p.response_timeout_bits + p.gap_bits);
            FrameTiming::new(p, 1).timeout_cost != folded
        });
        assert!(folded_differs, "no configuration tells the two apart");
    }
}
