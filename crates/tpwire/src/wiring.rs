//! Wire configurations and bus timing parameters.
//!
//! §3.2 of the paper describes two ways to scale TpWIRE from 1 to *n* wires:
//!
//! 1. **Parallel data** (mode A): one line keeps carrying the command
//!    framing while the remaining `n − 1` lines carry the data bits in
//!    parallel, shortening each frame.
//! 2. **Parallel buses** (mode B): each line is an independent 1-wire bus,
//!    so `n` transactions proceed concurrently.
//!
//! [`Wiring`] captures the choice; [`BusParams`] bundles it with the
//! programmable bit rate and the protocol latencies, and provides all the
//! timing arithmetic shared by the analytic model and the discrete-event
//! model (keeping the two in agreement by construction where they should
//! agree, so validation tests exercise real behavioral differences only).
//!
//! # 1-wire vs *n*-wire, and what a lane is
//!
//! The two scaling modes differ in *where* the extra lines buy time back:
//!
//! * Mode A shortens every frame ([`Wiring::frame_bit_periods`] drops from
//!   16 toward the 8-bit framing floor) but the bus still serializes
//!   transactions — [`Wiring::lanes`] stays 1.
//! * Mode B keeps 16-bit frames but offers `buses` independent **lanes**:
//!   each lane is a complete 1-wire daisy chain with its own master
//!   transmitter, and slaves are striped across lanes round-robin.
//!
//! # Degraded-mode reassignment
//!
//! A mode-B bus can outlive a lane. When a lane's chain breaks, or the
//! supervision layer (see [`SupervisionConfig`]) has quarantined the
//! majority of a lane's slaves, the master *evacuates* the lane: every
//! slave currently assigned to it is reassigned round-robin across the
//! surviving lanes, and traffic for those slaves rides the survivors until
//! the lane is *restored*. [`WirePlan`] owns that assignment — it tracks
//! each chain position's home lane and current lane, performs deterministic
//! evacuation/restoration, and checks the conservation property the chaos
//! harness asserts: **no slave is ever lost or double-assigned by a
//! rebalance**.

use core::fmt;

use tsbus_des::SimDuration;
use tsbus_faults::{BurstParams, RetryPolicy, SupervisionConfig};

use crate::frame::FRAME_BITS;

/// Slave reset timeout: a slave resets itself after this many bit periods
/// without a valid TX frame (specification value).
pub(crate) const RESET_TIMEOUT_BITS: u32 = 2048;

/// Once triggered, a slave's reset stays active this many bit periods
/// (specification value).
pub(crate) const RESET_ACTIVE_BITS: u32 = 33;

/// How the physical lines of a TpWIRE bus are organized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Wiring {
    /// The classic single-line bus.
    #[default]
    Single,
    /// Mode A: `lines` total lines (≥ 2); one command line plus
    /// `lines − 1` parallel data lines. Frames shorten; there is still one
    /// transaction in flight at a time.
    ParallelData {
        /// Total line count, command line included.
        lines: u8,
    },
    /// Mode B: `buses` independent 1-wire buses (≥ 1); transactions are
    /// striped across them.
    ParallelBuses {
        /// Number of independent buses.
        buses: u8,
    },
}

impl Wiring {
    /// Validated mode-A constructor.
    ///
    /// # Errors
    ///
    /// Returns an error message if `lines < 2` (mode A needs at least one
    /// data line besides the command line).
    pub fn parallel_data(lines: u8) -> Result<Wiring, InvalidWiring> {
        if lines >= 2 {
            Ok(Wiring::ParallelData { lines })
        } else {
            Err(InvalidWiring::TooFewLines(lines))
        }
    }

    /// Validated mode-B constructor.
    ///
    /// # Errors
    ///
    /// Returns an error if `buses == 0`.
    pub fn parallel_buses(buses: u8) -> Result<Wiring, InvalidWiring> {
        if buses >= 1 {
            Ok(Wiring::ParallelBuses { buses })
        } else {
            Err(InvalidWiring::ZeroBuses)
        }
    }

    /// How many independent transaction pipelines the configuration offers.
    #[must_use]
    pub(crate) fn lanes(self) -> u8 {
        match self {
            Wiring::Single | Wiring::ParallelData { .. } => 1,
            Wiring::ParallelBuses { buses } => buses,
        }
    }

    /// Bit periods one frame occupies on a lane.
    ///
    /// * `Single` / `ParallelBuses`: the full 16 bit periods.
    /// * `ParallelData { lines }`: the start bit plus the longer of the
    ///   serial framing portion (CMD/TYPE + CRC = 7 bits on the command
    ///   line) and the parallelized data portion (`⌈8 / (lines − 1)⌉`),
    ///   which run concurrently.
    #[must_use]
    pub(crate) fn frame_bit_periods(self) -> u32 {
        match self {
            Wiring::Single | Wiring::ParallelBuses { .. } => FRAME_BITS,
            Wiring::ParallelData { lines } => {
                let data_lanes = u32::from(lines) - 1;
                let data_bits = 8u32.div_ceil(data_lanes);
                1 + 7u32.max(data_bits)
            }
        }
    }
}

impl fmt::Display for Wiring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Wiring::Single => write!(f, "1-wire"),
            Wiring::ParallelData { lines } => write!(f, "{lines}-wire (parallel data)"),
            Wiring::ParallelBuses { buses } => write!(f, "{buses}-wire (parallel buses)"),
        }
    }
}

/// Error: a wiring configuration with an impossible line count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidWiring {
    /// Mode A needs ≥ 2 lines.
    TooFewLines(u8),
    /// Mode B needs ≥ 1 bus.
    ZeroBuses,
}

impl fmt::Display for InvalidWiring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidWiring::TooFewLines(n) => {
                write!(f, "parallel-data wiring needs at least 2 lines, got {n}")
            }
            InvalidWiring::ZeroBuses => write!(f, "parallel-bus wiring needs at least 1 bus"),
        }
    }
}

impl std::error::Error for InvalidWiring {}

/// The full timing/behaviour parameter set of a TpWIRE bus.
///
/// All protocol latencies are expressed in *bit periods* of the programmed
/// bit rate, matching how the specification states them (e.g. the 2048-bit
/// reset timeout); [`bit_period`](BusParams::bit_period) converts to
/// simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusParams {
    /// Line bit rate in bits per second (the bus is speed-programmable; the
    /// Theseus default reaches 1 Mbyte/s ≈ 8 Mbit/s).
    pub bit_rate_hz: f64,
    /// Physical line organization.
    pub wiring: Wiring,
    /// Per-slave pass-through latency of the daisy chain, in bit periods.
    pub(crate) hop_delay_bits: u32,
    /// Slave processing time between the end of a TX frame and the start of
    /// its RX reply, in bit periods.
    pub(crate) turnaround_bits: u32,
    /// Idle gap the master leaves between transactions, in bit periods.
    pub gap_bits: u32,
    /// How long the master waits for an RX before declaring a timeout, in
    /// bit periods (measured from the end of the TX frame).
    pub response_timeout_bits: u32,
    /// Master retry policy: how many times each frame class is re-sent
    /// before signaling an error ("a predetermined number of times" in the
    /// specification), and how long the master backs off between resends.
    pub(crate) retry: RetryPolicy,
    /// Probability that any one frame (TX or RX) is corrupted in flight;
    /// 0.0 for an ideal channel. Independent per frame — layered on top of
    /// [`burst_error`](BusParams::burst_error) when both are set.
    pub(crate) frame_error_rate: f64,
    /// Optional Gilbert-Elliott burst error channel. When set, every frame
    /// additionally rolls against the channel's current state, so errors
    /// cluster instead of arriving uniformly.
    pub(crate) burst_error: Option<BurstParams>,
    /// Master policy: gap between idle keep-alive/discovery polls, in bit
    /// periods. Must stay well below the 2048-bit slave reset timeout or
    /// idle slaves start resetting.
    pub idle_poll_bits: u32,
    /// Master policy: how many stream bytes are moved per relay service
    /// slot before the master re-arbitrates between flows. Small values
    /// favour fairness/latency, large values favour throughput.
    pub(crate) relay_chunk: u16,
    /// DMA block transfers: when nonzero, the master moves stream bytes in
    /// bursts of up to this many data frames per transaction (armed through
    /// the slave's DMA counter register) instead of one acknowledged frame
    /// per byte. Bursts cut the per-byte frame count roughly in half at the
    /// cost of coarser error recovery (a corrupted burst retries whole).
    /// `0` disables DMA.
    pub(crate) dma_block: u16,
    /// Optional supervision layer: per-slave health tracking, circuit
    /// breakers with fast-fail/probe semantics, and (on multi-lane
    /// wirings) degraded-mode rebalancing. `None` — the default — keeps
    /// the bus byte-identical to its unsupervised behaviour.
    pub supervision: Option<SupervisionConfig>,
}

impl BusParams {
    /// Parameters of the 1-wire Theseus configuration: 8 Mbit/s
    /// (≈ 1 Mbyte/s), 1-bit hop delay, 2-bit turnaround, 2-bit gap, 64-bit
    /// response timeout, 3 retries, ideal channel.
    #[must_use]
    pub fn theseus_default() -> Self {
        BusParams {
            bit_rate_hz: 8_000_000.0,
            wiring: Wiring::Single,
            hop_delay_bits: 1,
            turnaround_bits: 2,
            gap_bits: 2,
            response_timeout_bits: 64,
            retry: RetryPolicy::immediate(3),
            frame_error_rate: 0.0,
            burst_error: None,
            idle_poll_bits: 512,
            relay_chunk: 8,
            dma_block: 0,
            supervision: None,
        }
    }

    /// Returns a copy with DMA block transfers of up to `block` bytes
    /// (`0` disables DMA).
    #[must_use]
    pub fn with_dma_block(mut self, block: u16) -> Self {
        self.dma_block = block;
        self
    }

    /// Returns a copy with a different relay service-slot size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    #[must_use]
    pub fn with_relay_chunk(mut self, chunk: u16) -> Self {
        assert!(chunk > 0, "relay chunk must be at least one byte");
        self.relay_chunk = chunk;
        self
    }

    /// Returns a copy with a different wiring.
    #[must_use]
    pub fn with_wiring(mut self, wiring: Wiring) -> Self {
        self.wiring = wiring;
        self
    }

    /// Returns a copy with a different bit rate.
    ///
    /// # Panics
    ///
    /// Panics if `bit_rate_hz` is not positive and finite.
    #[must_use]
    pub fn with_bit_rate(mut self, bit_rate_hz: f64) -> Self {
        assert!(
            bit_rate_hz.is_finite() && bit_rate_hz > 0.0,
            "bit rate must be positive and finite"
        );
        self.bit_rate_hz = bit_rate_hz;
        self
    }

    /// Returns a copy with a different frame error rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is NaN or outside `[0, 1]`.
    #[must_use]
    pub fn with_frame_error_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "error rate must be in [0, 1] and not NaN, got {rate}"
        );
        self.frame_error_rate = rate;
        self
    }

    /// Returns a copy with a Gilbert-Elliott burst error channel layered on
    /// the line ([`BurstParams`] validates its own probabilities).
    #[must_use]
    pub fn with_burst_error(mut self, params: BurstParams) -> Self {
        self.burst_error = Some(params);
        self
    }

    /// Returns a copy with a different master retry policy.
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Returns a copy with the supervision layer enabled under `cfg`.
    #[must_use]
    pub fn with_supervision(mut self, cfg: SupervisionConfig) -> Self {
        self.supervision = Some(cfg);
        self
    }

    /// Duration of one bit period.
    #[must_use]
    pub fn bit_period(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.bit_rate_hz)
    }

    /// Converts a bit-period count to simulated time.
    #[must_use]
    pub(crate) fn bits_to_time(&self, bits: u32) -> SimDuration {
        SimDuration::from_secs_f64(f64::from(bits) / self.bit_rate_hz)
    }

    /// Converts a wide bit-period count (e.g. an exponential-backoff delay)
    /// to simulated time.
    #[must_use]
    pub(crate) fn bits64_to_time(&self, bits: u64) -> SimDuration {
        SimDuration::from_secs_f64(bits as f64 / self.bit_rate_hz)
    }

    /// Duration of one frame on a lane under the current wiring.
    #[must_use]
    pub(crate) fn frame_time(&self) -> SimDuration {
        self.bits_to_time(self.wiring.frame_bit_periods())
    }

    /// Bit periods of a complete transaction with the slave at 1-based
    /// chain position `hops`: TX frame, chain traversal, turnaround, RX
    /// frame, chain traversal back, inter-transaction gap.
    #[must_use]
    pub(crate) fn transaction_bits(&self, hops: u32) -> u32 {
        let frame = self.wiring.frame_bit_periods();
        2 * frame + 2 * hops * self.hop_delay_bits + self.turnaround_bits + self.gap_bits
    }

    /// Duration of a complete transaction with the slave at chain position
    /// `hops`.
    #[must_use]
    pub fn transaction_time(&self, hops: u32) -> SimDuration {
        self.bits_to_time(self.transaction_bits(hops))
    }

    /// Duration of a broadcast transaction on a chain of `chain_len`
    /// slaves: one TX frame to the end of the chain, no RX, plus the gap.
    #[must_use]
    pub(crate) fn broadcast_time(&self, chain_len: u32) -> SimDuration {
        let bits =
            self.wiring.frame_bit_periods() + chain_len * self.hop_delay_bits + self.gap_bits;
        self.bits_to_time(bits)
    }

    /// Bit periods of one DMA burst transaction moving `k` stream bytes
    /// to/from the slave at 1-based chain position `hops`:
    ///
    /// * arming: 3 regular transactions (select system space, point at the
    ///   DMA counter, write the block length);
    /// * the burst proper: one command frame, `k` back-to-back data frames,
    ///   chain traversal, turnaround, and a single block acknowledge.
    #[must_use]
    pub(crate) fn dma_burst_bits(&self, k: u32, hops: u32) -> u32 {
        let frame = self.wiring.frame_bit_periods();
        let arming = 3 * self.transaction_bits(hops);
        arming
            + (k + 2) * frame // command + k data frames + 1 block ack
            + 2 * hops * self.hop_delay_bits
            + self.turnaround_bits
            + self.gap_bits
    }

    /// Duration of a `k`-byte DMA burst with the slave at position `hops`.
    #[must_use]
    pub(crate) fn dma_burst_time(&self, k: u32, hops: u32) -> SimDuration {
        self.bits_to_time(self.dma_burst_bits(k, hops))
    }

    /// How long the master waits for an RX frame before retrying.
    #[must_use]
    pub(crate) fn response_timeout(&self) -> SimDuration {
        self.bits_to_time(self.response_timeout_bits)
    }

    /// The slave self-reset timeout as a duration.
    #[must_use]
    pub(crate) fn reset_timeout(&self) -> SimDuration {
        self.bits_to_time(RESET_TIMEOUT_BITS)
    }

    /// The slave reset pulse length as a duration.
    #[must_use]
    pub(crate) fn reset_active(&self) -> SimDuration {
        self.bits_to_time(RESET_ACTIVE_BITS)
    }
}

impl Default for BusParams {
    fn default() -> Self {
        Self::theseus_default()
    }
}

/// Lane assignment of the slaves on a mode-B (parallel-bus) wiring, with
/// degraded-mode evacuation and restoration.
///
/// Each chain position has a **home lane** (`position mod lanes`, the
/// striping the bus starts with) and a **current lane**. Evacuating a lane
/// moves every slave currently on it round-robin across the surviving
/// lanes; restoring it sends its home slaves back. Both operations are
/// pure functions of the plan state — no randomness — so a replay
/// reproduces the same reassignments.
///
/// On a 1-lane plan every position lives on lane 0 and evacuation is
/// impossible (there is nowhere to go); [`evacuate`](WirePlan::evacuate)
/// returns an empty move list and leaves the plan untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WirePlan {
    lanes: u8,
    /// Home lane per 0-based chain position.
    home: Vec<u8>,
    /// Current lane per 0-based chain position.
    current: Vec<u8>,
    /// Which lanes are currently evacuated.
    evacuated: Vec<bool>,
}

impl WirePlan {
    /// The initial striped assignment: position `i` homes on lane
    /// `i % lanes`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    #[must_use]
    pub(crate) fn striped(lanes: u8, slaves: usize) -> Self {
        assert!(lanes > 0, "a wire plan needs at least one lane");
        let home: Vec<u8> = (0..slaves)
            .map(|i| (i % usize::from(lanes)) as u8)
            .collect();
        WirePlan {
            lanes,
            current: home.clone(),
            home,
            evacuated: vec![false; usize::from(lanes)],
        }
    }

    /// Number of lanes.
    #[must_use]
    pub(crate) fn lanes(&self) -> u8 {
        self.lanes
    }

    /// Number of chain positions covered.
    #[must_use]
    pub(crate) fn positions(&self) -> usize {
        self.home.len()
    }

    /// The lane position `pos` is currently served on.
    #[must_use]
    pub(crate) fn lane_of(&self, pos: usize) -> u8 {
        self.current[pos]
    }

    /// The lane position `pos` homes on.
    #[must_use]
    pub(crate) fn home_lane_of(&self, pos: usize) -> u8 {
        self.home[pos]
    }

    /// Whether `lane` is currently evacuated.
    #[must_use]
    pub(crate) fn is_evacuated(&self, lane: u8) -> bool {
        self.evacuated[usize::from(lane)]
    }

    /// Whether any lane is currently evacuated (the bus is in degraded
    /// mode).
    #[must_use]
    pub(crate) fn any_evacuated(&self) -> bool {
        self.evacuated.iter().any(|&e| e)
    }

    /// Evacuates `lane`: every position currently on it is reassigned
    /// round-robin (ascending position, ascending surviving lane) across
    /// the lanes that are neither `lane` nor already evacuated. Returns the
    /// `(position, new_lane)` moves, empty — with the plan untouched — when
    /// no survivor exists or the lane is already evacuated.
    pub(crate) fn evacuate(&mut self, lane: u8) -> Vec<(usize, u8)> {
        if self.is_evacuated(lane) {
            return Vec::new();
        }
        let survivors: Vec<u8> = (0..self.lanes)
            .filter(|&l| l != lane && !self.is_evacuated(l))
            .collect();
        if survivors.is_empty() {
            return Vec::new();
        }
        self.evacuated[usize::from(lane)] = true;
        let mut moves = Vec::new();
        let mut next = 0usize;
        for pos in 0..self.current.len() {
            if self.current[pos] == lane {
                let target = survivors[next % survivors.len()];
                next += 1;
                self.current[pos] = target;
                moves.push((pos, target));
            }
        }
        moves
    }

    /// Restores `lane`: it stops being evacuated and every position homed
    /// on it returns there. Positions homed on *other* (still-evacuated)
    /// lanes keep their current assignment. Returns the `(position, lane)`
    /// moves; empty if `lane` was not evacuated.
    pub(crate) fn restore(&mut self, lane: u8) -> Vec<(usize, u8)> {
        if !self.is_evacuated(lane) {
            return Vec::new();
        }
        self.evacuated[usize::from(lane)] = false;
        let mut moves = Vec::new();
        for pos in 0..self.current.len() {
            if self.home[pos] == lane && self.current[pos] != lane {
                self.current[pos] = lane;
                moves.push((pos, lane));
            }
        }
        moves
    }

    /// The conservation invariant the chaos harness asserts after every
    /// rebalance: every position is assigned to exactly one valid,
    /// non-evacuated lane, and positions on healthy home lanes were not
    /// gratuitously moved.
    #[must_use]
    pub(crate) fn conserves_assignment(&self) -> bool {
        self.current.iter().enumerate().all(|(pos, &lane)| {
            lane < self.lanes
                && !self.is_evacuated(lane)
                && (self.is_evacuated(self.home[pos]) || lane == self.home[pos])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_wire_frames_are_16_bits() {
        assert_eq!(Wiring::Single.frame_bit_periods(), 16);
        assert_eq!(Wiring::Single.lanes(), 1);
    }

    #[test]
    fn parallel_data_shortens_frames_toward_a_floor() {
        let w2 = Wiring::parallel_data(2).expect("valid");
        let w3 = Wiring::parallel_data(3).expect("valid");
        let w9 = Wiring::parallel_data(9).expect("valid");
        assert_eq!(w2.frame_bit_periods(), 9); // 1 + max(7, 8)
        assert_eq!(w3.frame_bit_periods(), 8); // 1 + max(7, 4)
        assert_eq!(w9.frame_bit_periods(), 8); // data fully parallel, framing floor
        assert_eq!(w2.lanes(), 1);
    }

    #[test]
    fn parallel_buses_scale_lanes_not_frames() {
        let w = Wiring::parallel_buses(4).expect("valid");
        assert_eq!(w.frame_bit_periods(), 16);
        assert_eq!(w.lanes(), 4);
    }

    #[test]
    fn invalid_wirings_are_rejected() {
        assert_eq!(Wiring::parallel_data(1), Err(InvalidWiring::TooFewLines(1)));
        assert_eq!(Wiring::parallel_buses(0), Err(InvalidWiring::ZeroBuses));
    }

    #[test]
    fn theseus_bit_period_is_125ns() {
        let p = BusParams::theseus_default();
        assert_eq!(p.bit_period(), SimDuration::from_nanos(125));
        assert_eq!(p.bits_to_time(16), SimDuration::from_nanos(2000));
    }

    #[test]
    fn transaction_time_accounts_for_chain_position() {
        let p = BusParams::theseus_default();
        // 2 frames (32) + 2 hops×1×2 + turnaround 2 + gap 2 = 40 bits.
        assert_eq!(p.transaction_bits(2), 40);
        assert_eq!(p.transaction_time(2), SimDuration::from_nanos(40 * 125));
        // Farther slaves cost strictly more.
        assert!(p.transaction_bits(5) > p.transaction_bits(1));
    }

    #[test]
    fn two_wire_transactions_are_faster_but_not_double() {
        let p1 = BusParams::theseus_default();
        let p2 = p1.with_wiring(Wiring::parallel_data(2).expect("valid"));
        let t1 = p1.transaction_bits(1) as f64;
        let t2 = p2.transaction_bits(1) as f64;
        let speedup = t1 / t2;
        assert!(
            (1.2..2.0).contains(&speedup),
            "mode-A speedup {speedup} out of expected band"
        );
    }

    #[test]
    fn broadcast_has_no_reply_leg() {
        let p = BusParams::theseus_default();
        // 1 frame (16) + 3 hops + gap 2 = 21 bits.
        assert_eq!(p.broadcast_time(3), SimDuration::from_nanos(21 * 125));
        assert!(p.broadcast_time(3) < p.transaction_time(3));
    }

    #[test]
    fn reset_constants_match_spec() {
        let p = BusParams::theseus_default().with_bit_rate(1000.0);
        assert_eq!(p.reset_timeout(), SimDuration::from_secs_f64(2.048));
        assert_eq!(p.reset_active(), SimDuration::from_secs_f64(0.033));
    }

    #[test]
    fn builder_style_updates_compose() {
        let p = BusParams::theseus_default()
            .with_bit_rate(256.0)
            .with_wiring(Wiring::parallel_buses(2).expect("valid"))
            .with_frame_error_rate(0.01);
        assert_eq!(p.bit_rate_hz, 256.0);
        assert_eq!(p.wiring.lanes(), 2);
        assert_eq!(p.frame_error_rate, 0.01);
    }

    #[test]
    #[should_panic(expected = "error rate must be in")]
    fn error_rate_validated() {
        let _ = BusParams::theseus_default().with_frame_error_rate(1.5);
    }

    #[test]
    #[should_panic(expected = "error rate must be in")]
    fn error_rate_rejects_nan() {
        let _ = BusParams::theseus_default().with_frame_error_rate(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "error rate must be in")]
    fn error_rate_rejects_negative() {
        let _ = BusParams::theseus_default().with_frame_error_rate(-0.5);
    }

    #[test]
    fn fault_knobs_default_off_and_compose() {
        use tsbus_faults::Backoff;

        let p = BusParams::theseus_default();
        assert_eq!(p.burst_error, None);
        assert_eq!(p.retry, RetryPolicy::immediate(3));

        let burst = BurstParams::with_mean_lengths(100.0, 10.0, 0.0, 0.5);
        let retry = RetryPolicy {
            max_retries: 5,
            backoff: Backoff::Exponential {
                base_bits: 32,
                cap_bits: 1024,
            },
        };
        let p = p.with_burst_error(burst).with_retry_policy(retry);
        assert_eq!(p.burst_error, Some(burst));
        assert_eq!(p.retry.max_retries, 5);
    }

    #[test]
    fn dma_burst_timing_components() {
        let p = BusParams::theseus_default();
        // Arming = 3 transactions at hop 1 (38 bits each), burst = cmd +
        // k data + ack frames (16 bits each) + 2 hops + turnaround + gap.
        let k = 8;
        let expected = 3 * p.transaction_bits(1) + (k + 2) * 16 + 2 + 2 + 2;
        assert_eq!(p.dma_burst_bits(k, 1), expected);
        // A burst always beats k acknowledged per-byte transactions for
        // reasonable k.
        assert!(p.dma_burst_bits(8, 1) < 8 * p.transaction_bits(1));
    }

    #[test]
    fn wire_plan_stripes_and_evacuates_round_robin() {
        let mut plan = WirePlan::striped(3, 7);
        assert_eq!(plan.lanes(), 3);
        assert_eq!(plan.positions(), 7);
        // Striping: 0,1,2,0,1,2,0.
        assert_eq!(plan.lane_of(0), 0);
        assert_eq!(plan.lane_of(4), 1);
        assert!(plan.conserves_assignment());
        assert!(!plan.any_evacuated());

        // Evacuating lane 1 moves positions 1 and 4 across lanes {0, 2}.
        let moves = plan.evacuate(1);
        assert_eq!(moves, vec![(1, 0), (4, 2)]);
        assert!(plan.is_evacuated(1));
        assert!(plan.any_evacuated());
        assert!(plan.conserves_assignment());
        // Healthy lanes keep their home slaves.
        assert_eq!(plan.lane_of(3), 0);
        assert_eq!(plan.lane_of(5), 2);

        // Re-evacuating is a no-op; restoring sends them home.
        assert!(plan.evacuate(1).is_empty());
        let back = plan.restore(1);
        assert_eq!(back, vec![(1, 1), (4, 1)]);
        assert_eq!(plan, WirePlan::striped(3, 7));
    }

    #[test]
    fn wire_plan_cascaded_evacuation_conserves_assignment() {
        let mut plan = WirePlan::striped(3, 6);
        plan.evacuate(0);
        // Lane 1 now carries a refugee from lane 0; evacuating it moves
        // everything currently on it (home slaves and refugees) to lane 2.
        let moves = plan.evacuate(1);
        assert!(moves.iter().all(|&(_, lane)| lane == 2));
        assert!(plan.conserves_assignment());
        for pos in 0..plan.positions() {
            assert_eq!(plan.lane_of(pos), 2);
        }
        // Restoring lane 0 pulls its home slaves back; lane 1's stay put.
        plan.restore(0);
        assert!(plan.conserves_assignment());
        assert_eq!(plan.lane_of(0), 0);
        assert_eq!(plan.lane_of(1), 2, "lane 1 is still evacuated");
    }

    #[test]
    fn single_lane_plan_cannot_evacuate() {
        let mut plan = WirePlan::striped(1, 4);
        assert!(plan.evacuate(0).is_empty());
        assert!(!plan.is_evacuated(0));
        assert!(plan.conserves_assignment());
    }

    #[test]
    fn supervision_knob_defaults_off_and_composes() {
        let p = BusParams::theseus_default();
        assert_eq!(p.supervision, None);
        let p = p.with_supervision(SupervisionConfig::conservative());
        assert_eq!(p.supervision, Some(SupervisionConfig::conservative()));
    }

    #[test]
    fn wiring_displays_are_informative() {
        assert_eq!(Wiring::Single.to_string(), "1-wire");
        assert_eq!(
            Wiring::parallel_data(2).expect("valid").to_string(),
            "2-wire (parallel data)"
        );
        assert_eq!(
            Wiring::parallel_buses(3).expect("valid").to_string(),
            "3-wire (parallel buses)"
        );
    }
}
