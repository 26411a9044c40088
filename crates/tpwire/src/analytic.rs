//! Closed-form TpWIRE timing — the TpICU/SCM hardware stand-in.
//!
//! The paper validates its NS-2 TpWIRE model against timing measured on the
//! real TpICU/SCM20 board (Table 3) and derives a scaling factor. We have no
//! access to that hardware, so this module plays its role: an *independent*,
//! bit-level, closed-form implementation of the same specification. The
//! Table 3 harness compares it against the discrete-event model and reports
//! the equivalent scaling factor; agreement is a genuine cross-check because
//! the two implementations share only [`BusParams`], not code paths.
//!
//! All functions count **bit periods** (exact integers); convert with
//! [`BusParams::bits_to_time`].

use tsbus_des::SimDuration;

use crate::bus::STREAM_HEADER_BYTES;
use crate::wiring::BusParams;

/// Bit periods of one transaction addressed to the slave at 0-based chain
/// position `pos` (= [`BusParams::transaction_bits`] with `hops = pos + 1`).
#[must_use]
pub fn txn_bits(params: &BusParams, pos: usize) -> u64 {
    u64::from(params.transaction_bits(pos as u32 + 1))
}

/// Bit periods for `n_frames` back-to-back data transactions with the slave
/// at position `pos` — the frame-count workload of the paper's Table 3
/// validation (a CBR source clocking 1-byte frames at a neighbour).
#[must_use]
pub fn raw_frames_bits(params: &BusParams, n_frames: u64, pos: usize) -> u64 {
    n_frames * txn_bits(params, pos)
}

/// Bit periods to relay one `payload_len`-byte stream message from the slave
/// at `src_pos` to the slave at `dst_pos`, on an otherwise idle bus:
///
/// * **discovery**: the poll that finds the source (1 select) + pointer
///   setup + [`STREAM_HEADER_BYTES`] header reads — all at the source;
/// * **payload**: [`BusParams::relay_chunk`]-byte service slots; each slot
///   re-selects + re-points the source (except the first, which inherits the
///   discovery setup) and the destination (every slot), then moves its bytes
///   one `READ_DATA`/`WRITE_DATA` pair per byte.
///
/// Idle-poll interference is deliberately excluded — on a dedicated bus the
/// master never reaches a poll deadline mid-transfer when
/// `idle_poll_bits` is large relative to the transfer.
#[must_use]
pub fn message_relay_bits(
    params: &BusParams,
    src_pos: usize,
    dst_pos: usize,
    payload_len: usize,
) -> u64 {
    let ts = txn_bits(params, src_pos);
    let td = txn_bits(params, dst_pos);
    // Discovery: poll-select + set-pointer + header reads, all at src.
    let mut bits = ts * (2 + STREAM_HEADER_BYTES as u64);
    let chunk = usize::from(params.relay_chunk).max(1);
    let mut remaining = payload_len;
    let mut first = true;
    while remaining > 0 {
        let k = remaining.min(chunk) as u64;
        if !first {
            bits += 2 * ts; // re-select + re-point the source
        }
        bits += k * ts; // reads
        bits += 2 * td; // select + point the destination
        bits += k * td; // writes
        remaining -= k as usize;
        first = false;
    }
    bits
}

/// Same as [`message_relay_bits`], as a duration.
#[must_use]
pub fn message_relay_time(
    params: &BusParams,
    src_pos: usize,
    dst_pos: usize,
    payload_len: usize,
) -> SimDuration {
    params
        .bit_period()
        .saturating_mul(message_relay_bits(params, src_pos, dst_pos, payload_len))
}

/// Bit periods to relay one `payload_len`-byte stream message with DMA
/// bursts of `dma_block` bytes (see [`message_relay_bits`] for the
/// per-byte variant): discovery is unchanged; each service slot moves its
/// bytes in `⌈k / dma_block⌉` bursts per side instead of per-byte frame
/// pairs.
#[must_use]
pub fn message_relay_bits_dma(
    params: &BusParams,
    src_pos: usize,
    dst_pos: usize,
    payload_len: usize,
) -> u64 {
    let dma = usize::from(params.dma_block).max(1);
    let ts = txn_bits(params, src_pos);
    // Discovery (poll-select + pointer + header reads) is per-byte as ever.
    let mut bits = ts * (2 + STREAM_HEADER_BYTES as u64);
    let chunk = usize::from(params.relay_chunk).max(1);
    let mut remaining = payload_len;
    while remaining > 0 {
        let k = remaining.min(chunk);
        // Reads from the source, then writes to the destination, each in
        // dma_block-sized bursts (single trailing bytes fall back to the
        // per-byte path, matching the master's policy).
        for (pos, side_len) in [(src_pos, k), (dst_pos, k)] {
            let mut left = side_len;
            while left > 0 {
                if left >= 2 {
                    let b = left.min(dma) as u32;
                    bits += u64::from(params.dma_burst_bits(b, pos as u32 + 1));
                    left -= b as usize;
                } else {
                    // 1 trailing byte: setup (select + pointer) + the frame.
                    bits += 3 * txn_bits(params, pos);
                    left = 0;
                }
            }
        }
        remaining -= k;
    }
    bits
}

/// Steady-state relay goodput (payload bytes per second) for a saturated
/// `src_pos → dst_pos` flow with `message_len`-byte messages on a dedicated
/// bus.
#[must_use]
pub fn relay_goodput(
    params: &BusParams,
    src_pos: usize,
    dst_pos: usize,
    message_len: usize,
) -> f64 {
    if message_len == 0 {
        return 0.0;
    }
    let bits = message_relay_bits(params, src_pos, dst_pos, message_len) as f64;
    let secs = bits / params.bit_rate_hz;
    message_len as f64 / secs
}

/// Load multiplier on each surviving lane after degraded-mode rebalancing
/// evacuates `dead` of `lanes` parallel buses (§3.2 mode B wirings).
///
/// Striped assignment spreads every evacuated lane's slaves evenly over the
/// survivors, so each survivor carries `lanes / (lanes - dead)` of its
/// nominal load. `1.0` when nothing is evacuated; `f64::INFINITY` when no
/// lane survives (the bus is down, every transfer fails fast).
///
/// # Panics
///
/// Panics if `lanes == 0` or `dead > lanes`.
#[must_use]
pub fn degraded_load_factor(lanes: u8, dead: u8) -> f64 {
    assert!(lanes > 0, "a bus has at least one lane");
    assert!(dead <= lanes, "cannot evacuate more lanes than exist");
    if dead == 0 {
        return 1.0;
    }
    if dead == lanes {
        return f64::INFINITY;
    }
    f64::from(lanes) / f64::from(lanes - dead)
}

/// Degraded-mode relay goodput: [`relay_goodput`] divided by the
/// [`degraded_load_factor`] — each surviving lane time-shares its capacity
/// across the evacuated lanes' traffic, so a saturated flow sees its
/// goodput shrink by exactly the load multiplier. `0.0` when every lane is
/// evacuated.
#[must_use]
pub fn degraded_relay_goodput(
    params: &BusParams,
    src_pos: usize,
    dst_pos: usize,
    message_len: usize,
    dead: u8,
) -> f64 {
    let lanes = params.wiring.lanes();
    if dead >= lanes {
        return 0.0;
    }
    relay_goodput(params, src_pos, dst_pos, message_len) / degraded_load_factor(lanes, dead)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wiring::Wiring;

    fn p() -> BusParams {
        BusParams::theseus_default()
    }

    #[test]
    fn txn_bits_matches_bus_params() {
        let params = p();
        for pos in 0..8 {
            assert_eq!(
                txn_bits(&params, pos),
                u64::from(params.transaction_bits(pos as u32 + 1))
            );
        }
    }

    #[test]
    fn raw_frames_scale_linearly() {
        let params = p();
        let one = raw_frames_bits(&params, 1, 1);
        assert_eq!(raw_frames_bits(&params, 10, 1), 10 * one);
        assert_eq!(raw_frames_bits(&params, 1000, 1), 1000 * one);
    }

    #[test]
    fn relay_cost_structure_for_one_byte() {
        // 1-byte message: discovery (5 txns at src) + 1 read at src +
        // (2 setup + 1 write) at dst.
        let params = p();
        let ts = txn_bits(&params, 0);
        let td = txn_bits(&params, 1);
        assert_eq!(message_relay_bits(&params, 0, 1, 1), 6 * ts + 3 * td);
    }

    #[test]
    fn relay_cost_structure_for_multi_chunk() {
        // 2 chunks of 8: second chunk adds 2 src re-setup txns.
        let params = p(); // relay_chunk = 8
        let ts = txn_bits(&params, 0);
        let td = txn_bits(&params, 1);
        let expected = 5 * ts                 // discovery
            + 8 * ts + 2 * td + 8 * td        // chunk 1
            + 2 * ts + 8 * ts + 2 * td + 8 * td; // chunk 2
        assert_eq!(message_relay_bits(&params, 0, 1, 16), expected);
    }

    #[test]
    fn empty_payload_costs_discovery_only() {
        let params = p();
        let ts = txn_bits(&params, 2);
        assert_eq!(message_relay_bits(&params, 2, 3, 0), 5 * ts);
    }

    #[test]
    fn two_wire_mode_a_speeds_up_relay() {
        let params = p();
        let two = params.with_wiring(Wiring::parallel_data(2).expect("valid"));
        let t1 = message_relay_bits(&params, 0, 2, 100) as f64 / params.bit_rate_hz;
        let t2 = message_relay_bits(&two, 0, 2, 100) as f64 / two.bit_rate_hz;
        let speedup = t1 / t2;
        assert!(
            (1.2..2.0).contains(&speedup),
            "2-wire speedup {speedup} outside the paper's 'almost double' band"
        );
    }

    #[test]
    fn goodput_improves_with_chunk_size() {
        let params = p();
        let small = params.with_relay_chunk(1);
        let large = params.with_relay_chunk(64);
        let g_small = relay_goodput(&small, 0, 1, 512);
        let g_large = relay_goodput(&large, 0, 1, 512);
        assert!(
            g_large > g_small,
            "bigger service slots must raise goodput ({g_small} vs {g_large})"
        );
    }

    #[test]
    fn goodput_of_empty_messages_is_zero() {
        assert_eq!(relay_goodput(&p(), 0, 1, 0), 0.0);
    }

    #[test]
    fn dma_bursts_beat_per_byte_relay_for_bulk() {
        let params = p().with_dma_block(32).with_relay_chunk(64);
        let plain = message_relay_bits(&params, 0, 1, 512);
        let dma = message_relay_bits_dma(&params, 0, 1, 512);
        let speedup = plain as f64 / dma as f64;
        assert!(
            speedup > 1.4,
            "bulk DMA speedup {speedup} should approach 2x"
        );
    }

    #[test]
    fn dma_does_not_pay_off_for_tiny_messages() {
        // The 3-transaction arming dominates short blocks.
        let params = p().with_dma_block(32);
        let plain = message_relay_bits(&params, 0, 1, 2);
        let dma = message_relay_bits_dma(&params, 0, 1, 2);
        assert!(
            dma >= plain,
            "2-byte DMA ({dma}) should not beat per-byte ({plain})"
        );
    }

    #[test]
    fn degraded_load_factor_tracks_survivors() {
        assert_eq!(degraded_load_factor(4, 0), 1.0);
        assert_eq!(degraded_load_factor(4, 1), 4.0 / 3.0);
        assert_eq!(degraded_load_factor(4, 2), 2.0);
        assert_eq!(degraded_load_factor(2, 1), 2.0);
        assert_eq!(degraded_load_factor(3, 3), f64::INFINITY);
        assert_eq!(degraded_load_factor(1, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "cannot evacuate more lanes than exist")]
    fn degraded_load_factor_rejects_impossible_evacuations() {
        let _ = degraded_load_factor(2, 3);
    }

    #[test]
    fn degraded_goodput_halves_on_a_two_bus_wiring() {
        let params = p().with_wiring(Wiring::parallel_buses(2).expect("valid"));
        let healthy = degraded_relay_goodput(&params, 0, 1, 512, 0);
        let degraded = degraded_relay_goodput(&params, 0, 1, 512, 1);
        assert_eq!(healthy, relay_goodput(&params, 0, 1, 512));
        assert!((degraded - healthy / 2.0).abs() < 1e-9);
        assert_eq!(degraded_relay_goodput(&params, 0, 1, 512, 2), 0.0);
    }

    #[test]
    fn farther_slaves_cost_more() {
        let params = p();
        let near = message_relay_bits(&params, 0, 1, 64);
        let far = message_relay_bits(&params, 5, 6, 64);
        assert!(far > near);
    }
}
