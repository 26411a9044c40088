//! Subscribe/notify end to end: a monitor client on one slave subscribes,
//! a producer client on another slave writes, and the notification crosses
//! the bus as a pushed `<event>` document — "primitives to support the
//! subscribe and notify paradigm are usually provided" (§2).

use tsbus_core::{ClientStep, EndpointCosts, ScriptedClient, SpaceServerAgent, TpwireEndpoint};
use tsbus_des::{ComponentId, SimDuration, SimTime, Simulator};
use tsbus_tpwire::{BusParams, NodeId, TpWireBus};
use tsbus_tuplespace::{template, tuple, EventKind, ValueType};
use tsbus_xmlwire::Request;

/// Kernel events after which a run counts as stalled and fails (a clean
/// run takes well under a tenth of this).
const EVENT_CAP: u64 = 200_000;

/// Runs `sim` up to `until`. Stepped rather than `Simulator::run_until`, so
/// a run that livelocks at one simulated instant fails at the event cap
/// instead of hanging the test.
fn run_until(sim: &mut Simulator, until: SimTime) {
    while sim.now() < until && sim.events_processed() < EVENT_CAP && sim.step() {}
    assert!(
        sim.events_processed() < EVENT_CAP,
        "stalled: {EVENT_CAP} events by {} ns",
        sim.now().as_nanos()
    );
}

fn node(id: u8) -> NodeId {
    NodeId::new(id).expect("valid test id")
}

/// Topology: server on slave 1, monitor client on slave 2, producer client
/// on slave 3.
fn build(
    monitor_script: Vec<ClientStep>,
    producer_script: Vec<ClientStep>,
) -> (Simulator, ComponentId, ComponentId) {
    build_with_format(
        monitor_script,
        producer_script,
        tsbus_xmlwire::WireFormat::Xml,
    )
}

fn build_with_format(
    monitor_script: Vec<ClientStep>,
    producer_script: Vec<ClientStep>,
    format: tsbus_xmlwire::WireFormat,
) -> (Simulator, ComponentId, ComponentId) {
    let mut sim = Simulator::with_seed(9);
    // Ids: 0 monitor app, 1 producer app, 2 server app,
    //      3 monitor ep, 4 producer ep, 5 server ep, 6 bus.
    let monitor_app = ComponentId::from_raw(0);
    let producer_app = ComponentId::from_raw(1);
    let server_app = ComponentId::from_raw(2);
    let monitor_ep = ComponentId::from_raw(3);
    let producer_ep = ComponentId::from_raw(4);
    let server_ep = ComponentId::from_raw(5);
    let bus_id = ComponentId::from_raw(6);

    sim.add_component(
        "monitor",
        ScriptedClient::new(monitor_ep, node(1), SimDuration::ZERO, monitor_script)
            .with_format(format),
    );
    sim.add_component(
        "producer",
        ScriptedClient::new(producer_ep, node(1), SimDuration::ZERO, producer_script)
            .with_format(format),
    );
    sim.add_component(
        "server",
        SpaceServerAgent::new(server_ep, SimDuration::ZERO),
    );
    sim.add_component(
        "monitor_ep",
        TpwireEndpoint::new(node(2), monitor_app, bus_id, EndpointCosts::free()),
    );
    sim.add_component(
        "producer_ep",
        TpwireEndpoint::new(node(3), producer_app, bus_id, EndpointCosts::free()),
    );
    sim.add_component(
        "server_ep",
        TpwireEndpoint::new(node(1), server_app, bus_id, EndpointCosts::free()),
    );
    let mut bus = TpWireBus::new(
        BusParams::theseus_default(),
        vec![node(1), node(2), node(3)],
    );
    bus.attach(node(1), server_ep);
    bus.attach(node(2), monitor_ep);
    bus.attach(node(3), producer_ep);
    let b = sim.add_component("bus", bus);
    debug_assert_eq!(b, bus_id);
    (sim, monitor_app, producer_app)
}

#[test]
fn written_events_cross_the_bus() {
    let monitor_script = vec![ClientStep::Request(Request::Subscribe {
        template: template!["alert", ValueType::Str],
        kinds: vec![EventKind::Written],
    })];
    let producer_script = vec![
        ClientStep::Delay(SimDuration::from_millis(10)), // after the subscribe
        ClientStep::Request(Request::Write {
            tuple: tuple!["alert", "overtemp"],
            lease_ns: None,
        }),
        ClientStep::Request(Request::Write {
            tuple: tuple!["reading", 42], // non-matching: no event
            lease_ns: None,
        }),
    ];
    let (mut sim, monitor_app, _) = build(monitor_script, producer_script);
    run_until(&mut sim, SimTime::from_millis(200));
    let monitor: &ScriptedClient = sim.component(monitor_app).expect("registered");
    assert!(monitor.is_finished(), "subscribe acknowledged");
    assert!(
        monitor.records()[0].response.is_some(),
        "subscription ack received"
    );
    let events = monitor.notifications();
    assert_eq!(events.len(), 1, "one matching write, one event");
    assert_eq!(events[0].1.kind, EventKind::Written);
    assert_eq!(events[0].1.tuple, tuple!["alert", "overtemp"]);
}

#[test]
fn expiry_events_arrive_without_further_traffic() {
    // The server's expiry sweep must push Expired events on its own — the
    // bus is otherwise idle after the leased write.
    let monitor_script = vec![ClientStep::Request(Request::Subscribe {
        template: template!["ttl"],
        kinds: vec![EventKind::Expired],
    })];
    let producer_script = vec![
        ClientStep::Delay(SimDuration::from_millis(10)),
        ClientStep::Request(Request::Write {
            tuple: tuple!["ttl"],
            lease_ns: Some(50_000_000), // 50 ms
        }),
    ];
    let (mut sim, monitor_app, _) = build(monitor_script, producer_script);
    run_until(&mut sim, SimTime::from_millis(500));
    let monitor: &ScriptedClient = sim.component(monitor_app).expect("registered");
    let events = monitor.notifications();
    assert_eq!(events.len(), 1, "the lease expiry must be pushed");
    assert_eq!(events[0].1.kind, EventKind::Expired);
    // The event arrives shortly after the 50 ms deadline (sweep + wire).
    let arrival = events[0].1.tuple.clone();
    assert_eq!(arrival, tuple!["ttl"]);
    assert!(
        events[0].0 >= SimTime::from_millis(50),
        "no premature expiry"
    );
    assert!(
        events[0].0 < SimTime::from_millis(100),
        "expiry pushed promptly, got {}",
        events[0].0
    );
}

#[test]
fn unsubscribe_stops_the_events() {
    let monitor_script = vec![
        ClientStep::Request(Request::Subscribe {
            template: template!["alert", ValueType::Str],
            kinds: vec![EventKind::Written],
        }),
        ClientStep::Delay(SimDuration::from_millis(50)),
        ClientStep::Request(Request::Unsubscribe { id: 0 }),
    ];
    let producer_script = vec![
        ClientStep::Delay(SimDuration::from_millis(20)),
        ClientStep::Request(Request::Write {
            tuple: tuple!["alert", "first"],
            lease_ns: None,
        }),
        ClientStep::Delay(SimDuration::from_millis(100)),
        ClientStep::Request(Request::Write {
            tuple: tuple!["alert", "second"],
            lease_ns: None,
        }),
    ];
    let (mut sim, monitor_app, _) = build(monitor_script, producer_script);
    run_until(&mut sim, SimTime::from_millis(500));
    let monitor: &ScriptedClient = sim.component(monitor_app).expect("registered");
    let events = monitor.notifications();
    assert_eq!(events.len(), 1, "only the pre-unsubscribe write notifies");
    assert_eq!(events[0].1.tuple, tuple!["alert", "first"]);
}

#[test]
fn notify_works_in_binary_format_too() {
    // Subscribers get their events back in their own wire encoding.
    let monitor_script = vec![ClientStep::Request(Request::Subscribe {
        template: template!["alert", ValueType::Str],
        kinds: vec![EventKind::Written],
    })];
    let producer_script = vec![
        ClientStep::Delay(SimDuration::from_millis(10)),
        ClientStep::Request(Request::Write {
            tuple: tuple!["alert", "binary"],
            lease_ns: None,
        }),
    ];
    let (mut sim, monitor_app, _) = build_with_format(
        monitor_script,
        producer_script,
        tsbus_xmlwire::WireFormat::Binary,
    );
    run_until(&mut sim, SimTime::from_millis(200));
    let monitor: &ScriptedClient = sim.component(monitor_app).expect("registered");
    let events = monitor.notifications();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].1.tuple, tuple!["alert", "binary"]);
}

#[test]
fn service_discovery_works_over_the_wire() {
    // The discovery subsystem is just tuples, so it needs no dedicated
    // protocol: a provider registers by writing the reserved
    // ("__service", name, provider) shape, and a client on another slave
    // looks it up associatively — the §2.1 "support to system extensions"
    // story end to end over the bus.
    let provider_script = vec![ClientStep::Request(Request::Write {
        tuple: tuple!["__service", "fft", "node-7"],
        lease_ns: None,
    })];
    let client_script = vec![
        ClientStep::Delay(SimDuration::from_millis(20)),
        ClientStep::Request(Request::ReadIfExists {
            template: template!["__service", "fft", ValueType::Str],
        }),
    ];
    let (mut sim, client_app, _) = build(client_script, provider_script);
    run_until(&mut sim, SimTime::from_millis(200));
    let client: &ScriptedClient = sim.component(client_app).expect("registered");
    assert!(client.is_finished());
    let lookup = &client.records()[0];
    assert!(
        lookup.returned_entry(),
        "the service registration is visible"
    );
    match lookup.response.as_ref() {
        Some(tsbus_xmlwire::Response::Entry { tuple: Some(t) }) => {
            assert_eq!(t.field(2).and_then(|v| v.as_str()), Some("node-7"));
        }
        other => panic!("expected an entry, got {other:?}"),
    }
}
