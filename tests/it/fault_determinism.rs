//! Determinism of the fault-injection layer: a run with every fault class
//! active — burst errors, uniform frame errors, scheduled crash / revive /
//! chain break / heal, and a backoff retry policy — must replay
//! byte-for-byte identically from the same seed, and must actually depend
//! on the seed.

use bytes::Bytes;
use tsbus_core::BusCbrSink;
use tsbus_des::{SimDuration, SimTime, Simulator};
use tsbus_faults::{Backoff, BurstParams, FaultDriver, FaultKind, FaultSchedule, RetryPolicy};
use tsbus_tpwire::{BusParams, BusStats, NodeId, SendStream, StreamEndpoint, TpWireBus};

fn node(id: u8) -> NodeId {
    NodeId::new(id).expect("valid node id")
}

/// Every fault knob at once: kills, a chain break that heals, and a reset,
/// layered over a bursty, lossy channel.
fn schedule() -> FaultSchedule {
    FaultSchedule::new()
        .at(SimTime::from_millis(4), FaultKind::SlaveCrash(2))
        .at(SimTime::from_millis(8), FaultKind::ChainBreak { after: 1 })
        .at(SimTime::from_millis(12), FaultKind::ChainHeal)
        .at(SimTime::from_millis(14), FaultKind::SlaveRevive(2))
        .at(SimTime::from_millis(18), FaultKind::SlaveReset(3))
}

/// One full faulty run; returns the bus statistics and delivery counters.
fn run(seed: u64) -> (BusStats, u64, u64) {
    let mut sim = Simulator::with_seed(seed);
    let sink = sim.add_component("sink", BusCbrSink::new());
    let params = BusParams::theseus_default()
        .with_frame_error_rate(0.002)
        .with_burst_error(BurstParams::with_mean_lengths(200.0, 8.0, 0.0, 1.0))
        .with_retry_policy(RetryPolicy {
            max_retries: 6,
            backoff: Backoff::Exponential {
                base_bits: 32,
                cap_bits: 256,
            },
        });
    let mut bus = TpWireBus::new(params, vec![node(1), node(2), node(3)]);
    bus.attach(node(3), sink);
    let bus_id = sim.add_component("bus", bus);
    sim.add_component("faults", FaultDriver::new(bus_id, schedule()));
    sim.with_context(|ctx| {
        for i in 0..20u64 {
            ctx.schedule_in(
                SimDuration::from_millis(i),
                bus_id,
                SendStream {
                    from: node(1),
                    to: StreamEndpoint::Slave(node(3)),
                    payload: Bytes::from(vec![i as u8; 48]),
                },
            );
        }
    });
    sim.run_until(SimTime::from_millis(200));
    let sink_ref: &BusCbrSink = sim.component(sink).expect("registered");
    let bus_ref: &TpWireBus = sim.component(bus_id).expect("registered");
    (
        bus_ref.stats().clone(),
        sink_ref.messages(),
        sink_ref.bytes(),
    )
}

#[test]
fn identical_seeds_replay_the_full_fault_cocktail_identically() {
    let (stats_a, msgs_a, bytes_a) = run(7);
    let (stats_b, msgs_b, bytes_b) = run(7);
    // BusStats is Eq: every counter — transactions, per-class retries,
    // backoff bookkeeping, hard failures, injected faults — must agree.
    assert_eq!(
        stats_a, stats_b,
        "same seed must reproduce the exact fault trace"
    );
    assert_eq!((msgs_a, bytes_a), (msgs_b, bytes_b));
    // The run must have actually exercised the fault machinery, otherwise
    // this test proves nothing.
    assert!(stats_a.faults_injected >= 5, "all scheduled faults fired");
    assert!(stats_a.retries > 0, "the lossy channel forced retries");
    assert!(stats_a.backoff_events > 0, "the policy actually backed off");
}

#[test]
fn different_seeds_draw_different_fault_traces() {
    let (stats_a, ..) = run(7);
    let (stats_b, ..) = run(8);
    // The scheduled faults are seed-independent, but the stochastic channel
    // (burst sojourns, per-frame errors) is not: some counter must differ.
    assert_ne!(
        stats_a, stats_b,
        "stochastic faults must depend on the seed"
    );
}
