//! Heap allocations on the TpWIRE bus's hot path, counted exactly.
//!
//! A counting global allocator wraps the system allocator and counts, per
//! thread, every `alloc`, `alloc_zeroed` and `realloc`. The bus's own
//! self-events (transaction completions, retry backoffs, the poll timer)
//! are kernel tag events, so:
//!
//! * a bus in steady-state idle polling allocates nothing at all, with one
//!   lane or two, with supervision off or on;
//! * a relayed stream allocates a fixed number of times, whatever stream
//!   of the run it is: its message boxes, payload buffers and relay job,
//!   never one box per transaction.
//!
//! The counts are per thread, so tests running in parallel do not see
//! each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use tsbus_des::{Component, ComponentId, Context, Message, MessageExt, SimDuration, Simulator};
use tsbus_faults::SupervisionConfig;
use tsbus_tpwire::{
    BusParams, NodeId, SendStream, StreamDelivered, StreamEndpoint, StreamSent, TpWireBus, Wiring,
};

/// Wraps [`System`], counting the calling thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread made while running `f`.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

/// Slaves on the chain (ids 1..=CHAIN).
const CHAIN: u8 = 3;

fn node(id: u8) -> NodeId {
    NodeId::new(id).expect("valid test node id")
}

/// Counts completed streams at an attachment, allocating nothing.
#[derive(Default)]
struct Sink {
    delivered: u64,
    sent: u64,
}

impl Component for Sink {
    fn handle(&mut self, _ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        if let Some(d) = msg.downcast_ref::<StreamDelivered>() {
            self.delivered += u64::from(d.end_of_message);
        } else {
            assert!(msg.is::<StreamSent>(), "unexpected {msg:?}");
            self.sent += 1;
        }
    }
}

/// A seed-1 simulator with a `CHAIN`-slave bus on `wiring`, every slave
/// attached to one sink. Returns the simulator, the bus and the sink.
fn bus_sim(wiring: Wiring, supervised: bool) -> (Simulator, ComponentId, ComponentId) {
    let mut params = BusParams::theseus_default().with_wiring(wiring);
    if supervised {
        params = params.with_supervision(SupervisionConfig::conservative());
    }
    let mut sim = Simulator::with_seed(1);
    let sink = sim.add_component("sink", Sink::default());
    let mut bus = TpWireBus::new(params, (1..=CHAIN).map(node).collect());
    for id in 1..=CHAIN {
        bus.attach(node(id), sink);
    }
    let bus = sim.add_component("bus", bus);
    (sim, bus, sink)
}

fn wirings() -> [(Wiring, &'static str); 2] {
    [
        (Wiring::Single, "single"),
        (
            Wiring::parallel_buses(2).expect("valid wiring"),
            "parallel_buses(2)",
        ),
    ]
}

/// Allocations over a 0.5 s idle window after a 0.1 s warm-up, and the
/// kernel events the window dispatched.
fn idle_window(wiring: Wiring, supervised: bool) -> (u64, u64) {
    let (mut sim, _, _) = bus_sim(wiring, supervised);
    sim.run_for(SimDuration::from_millis(100));
    allocations_during(|| sim.run_for(SimDuration::from_millis(500)))
}

/// Relays 64-byte slave-to-slave streams one after another (each one
/// injected once the previous one arrived), `i`-th from slave
/// `1 + i % CHAIN`, and returns the allocations of each of the last
/// `streams`: from the `SendStream` event to the `StreamSent`
/// notification, with the payload built beforehand. The first `CHAIN`
/// streams warm every source slave's FIFO and are not reported.
fn per_stream_allocations(wiring: Wiring, supervised: bool, streams: u8) -> Vec<u64> {
    let (mut sim, bus, sink) = bus_sim(wiring, supervised);
    sim.run_for(SimDuration::from_millis(10));
    let mut counts: Vec<u64> = (0..CHAIN + streams)
        .map(|i| {
            let (from, to) = (1 + i % CHAIN, 1 + (i + 1) % CHAIN);
            // The sender's own payload buffer is not the relay's cost.
            let payload = Bytes::from(vec![i; 64]);
            let (allocations, ()) = allocations_during(|| {
                sim.with_context(|ctx| {
                    let send = SendStream {
                        from: node(from),
                        to: StreamEndpoint::Slave(node(to)),
                        payload,
                    };
                    ctx.send(bus, send);
                });
                let want = u64::from(i) + 1;
                while sim.component::<Sink>(sink).expect("registered").sent < want {
                    sim.run_for(SimDuration::from_micros(100));
                }
            });
            let done: &Sink = sim.component(sink).expect("registered");
            assert_eq!(done.delivered, u64::from(i) + 1, "stream {i} not delivered");
            allocations
        })
        .collect();
    counts.drain(..usize::from(CHAIN));
    counts
}

/// Idle windows allocate nothing; every relayed stream allocates exactly
/// the same, small number of times.
#[test]
fn bus_self_events_allocate_nothing() {
    for (wiring, name) in wirings() {
        for supervised in [false, true] {
            let (allocations, events) = idle_window(wiring, supervised);
            assert!(events > 10_000, "{name}: only {events} idle events");
            assert_eq!(
                allocations, 0,
                "{name} supervision={supervised}: {allocations} allocations over \
                 {events} idle kernel events"
            );
        }
    }

    // Once every source FIFO is warm, each stream costs the same 19
    // allocations, debug and release build alike, and none of them per
    // transaction: the `SendStream` box, the relay job's byte buffer, one
    // box and one byte buffer per `StreamDelivered` (eight 8-byte relay
    // chunks) and the `StreamSent` box.
    let expected = 19;
    for (wiring, name) in wirings() {
        for supervised in [false, true] {
            let counts = per_stream_allocations(wiring, supervised, 10);
            assert!(
                counts.iter().all(|&n| n == expected),
                "{name} supervision={supervised}: per-stream allocations {counts:?}, \
                 expected {expected} each"
            );
        }
    }
}
