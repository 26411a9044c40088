//! The bare-bus workloads the figure binaries share:
//!
//! * [`run_stream_workload`] — a fixed batch of messages node 1 → node 2
//!   under any bus parameters (a burst channel and retry policy for
//!   `fig_fault_sweep` and `campaign`, a frame-error rate for
//!   `ablation_errors`);
//! * [`idle_bus_probe`] — one message into a long-idle chain, for
//!   `ablation_polling` and `fig_chain`.

use bytes::Bytes;
use tsbus_core::BusCbrSink;
use tsbus_des::{ComponentId, SimDuration, SimTime, Simulator};
use tsbus_faults::{Backoff, BurstParams, RetryPolicy};
use tsbus_tpwire::{BusParams, NodeId, SendStream, StreamEndpoint, TpWireBus};

/// The simulator seed the historical `fig_fault_sweep` tables use.
pub const REFERENCE_SEED: u64 = 23;

fn node(id: u8) -> NodeId {
    NodeId::new(id).expect("chain ids stay in range")
}

/// A stream message of `len` bytes from slave `from` to slave `to`.
fn message(from: u8, to: u8, len: usize) -> SendStream {
    SendStream {
        from: node(from),
        to: StreamEndpoint::Slave(node(to)),
        payload: Bytes::from(vec![0xC3u8; len]),
    }
}

/// What one stream-workload run measured.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Messages that arrived intact.
    pub delivered: u64,
    /// Bus transactions, up to the stop.
    pub transactions: u64,
    /// Frame retransmissions.
    pub retries: u64,
    /// Transfers abandoned after exhausting the retry budget.
    pub failures: u64,
    /// Backoff waits the retry policy inserted.
    pub backoff_events: u64,
    /// Whether every delivered stream was byte-exact.
    pub intact: bool,
    /// Time of the last successful delivery (NaN when nothing arrived).
    pub elapsed: f64,
}

/// The Theseus bus under `policy`, with the burst channel when given.
#[must_use]
pub fn burst_bus(burst: Option<BurstParams>, policy: RetryPolicy) -> BusParams {
    let params = BusParams::theseus_default().with_retry_policy(policy);
    match burst {
        Some(b) => params.with_burst_error(b),
        None => params,
    }
}

/// Runs `messages` stream messages of `len` bytes through a two-slave bus
/// with the given parameters, on a simulator seeded with `seed` (error
/// and burst channels draw from it). The run stops once every message
/// arrived or was abandoned, or after 30 s of simulated time.
#[must_use]
pub fn run_stream_workload(params: BusParams, messages: u64, len: usize, seed: u64) -> Outcome {
    let mut sim = Simulator::with_seed(seed);
    let sink = sim.add_component("sink", BusCbrSink::new());
    let mut bus = TpWireBus::new(params, vec![node(1), node(2)]);
    bus.attach(node(2), sink);
    let bus_id: ComponentId = sim.add_component("bus", bus);
    sim.with_context(|ctx| {
        for _ in 0..messages {
            ctx.send(bus_id, message(1, 2, len));
        }
    });
    // Slice the run; stop once every message either arrived or was
    // abandoned, so stats reflect the transfers and not idle polling.
    for _ in 0..30_000 {
        sim.run_for(SimDuration::from_millis(1));
        let done: &BusCbrSink = sim.component(sink).expect("registered");
        let b: &TpWireBus = sim.component(bus_id).expect("registered");
        if done.messages() + b.stats().messages_failed >= messages {
            break;
        }
    }
    let sink_ref: &BusCbrSink = sim.component(sink).expect("registered");
    let bus_ref: &TpWireBus = sim.component(bus_id).expect("registered");
    let stats = bus_ref.stats();
    Outcome {
        delivered: sink_ref.messages(),
        transactions: stats.transactions,
        retries: stats.retries,
        failures: stats.failures,
        backoff_events: stats.backoff_events,
        intact: sink_ref.bytes() == sink_ref.messages() * len as u64,
        elapsed: sink_ref
            .last_arrival()
            .map(|t| t.as_secs_f64())
            .unwrap_or(f64::NAN),
    }
}

/// Injects one `len`-byte message from slave 1 to slave `to` of an
/// `slaves`-long chain after it has idled until `idle_until`, and runs to
/// `end` on a simulator seeded with `seed`. Returns the message's latency
/// in seconds (dominated by discovery on an idle bus) and the slave
/// watchdog resets summed over the chain.
///
/// # Panics
///
/// Panics if the message is not delivered by `end`.
#[must_use]
pub fn idle_bus_probe(
    params: BusParams,
    slaves: u8,
    to: u8,
    len: usize,
    idle_until: SimTime,
    end: SimTime,
    seed: u64,
) -> (f64, u64) {
    let mut sim = Simulator::with_seed(seed);
    let sink = sim.add_component("sink", BusCbrSink::new());
    let mut bus = TpWireBus::new(params, (1..=slaves).map(node).collect());
    bus.attach(node(to), sink);
    let bus_id: ComponentId = sim.add_component("bus", bus);
    // Long idle stretch first: polls must keep every watchdog fed.
    sim.run_until(idle_until);
    let inject_at = sim.now();
    sim.with_context(|ctx| ctx.send(bus_id, message(1, to, len)));
    sim.run_until(end);
    let sink_ref: &BusCbrSink = sim.component(sink).expect("registered");
    let latency = sink_ref
        .last_arrival()
        .expect("message delivered")
        .duration_since(inject_at)
        .as_secs_f64();
    let bus_ref: &TpWireBus = sim.component(bus_id).expect("registered");
    let resets = (1..=slaves)
        .map(|i| bus_ref.slave(node(i)).expect("on chain").reset_count())
        .sum();
    (latency, resets)
}

/// The burst channel: bursts of mean 8 frames in which every frame is
/// lost, separated by clean stretches of `mean_good` frames. Smaller
/// `mean_good` = denser bursts = a worse channel.
///
/// Mean burst length is deliberately short relative to the watchdog: during
/// a burst the slaves see no *valid* frames, so their 2048-bit watchdogs
/// keep counting. An 8-frame (~160-bit) mean burst is something a backoff
/// schedule can wait out inside the watchdog window; 30-frame bursts are
/// not (see the module docs of `tsbus_faults::burst`).
#[must_use]
pub fn burst_channel(mean_good: f64) -> BurstParams {
    BurstParams::with_mean_lengths(mean_good, 8.0, 0.0, 1.0)
}

/// A patient policy: plenty of attempts with exponentially growing waits —
/// but the whole schedule is budgeted against the watchdog.
///
/// The constraint is *cumulative*, not per-wait: corrupted frames do not
/// refresh the slaves' `RESET_TIMEOUT` watchdogs, so every backoff wait and
/// every corrupted attempt inside one burst adds to a single silent span.
/// Once that span passes 2048 bit periods the slaves reset themselves, the
/// master's node selection goes stale, and the remaining retries fail
/// deterministically — patience beyond the watchdog is self-defeating.
/// (An earlier draft with `cap_bits: 1024` summed to ~9k bits of silence
/// and produced 502 watchdog resets per slave in one 30-message run.)
/// This schedule sums to 32 + 64 + 10×128 = 1376 bits, safely inside the
/// window, while still outliving the 160-bit mean bursts many times over.
#[must_use]
pub fn patient_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 12,
        backoff: Backoff::Exponential {
            base_bits: 32,
            cap_bits: 128,
        },
    }
}
