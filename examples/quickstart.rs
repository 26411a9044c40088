//! Quickstart: the tuplespace in five minutes.
//!
//! Run with `cargo run -p tsbus-core --example quickstart`.
//!
//! Shows the two faces of the workspace:
//! 1. the tuplespace ([`Space`]) under explicit virtual time — write,
//!    take, leases and notifications;
//! 2. a complete client↔server exchange over the simulated TpWIRE bus.

use tsbus_core::{run_case_study, CaseStudyConfig, EndpointCosts};
use tsbus_des::{SimDuration, SimTime};
use tsbus_tpwire::BusParams;
use tsbus_tuplespace::{template, tuple, EventKind, Lease, Space, ValueType};

fn main() {
    simulated_space();
    over_the_bus();
}

/// Part 1 — the space under simulated time.
fn simulated_space() {
    println!("== tuplespace (virtual time) ==");
    let mut space = Space::new();
    let t0 = SimTime::ZERO;

    // Notify: subscribe to writes matching a template.
    let alerts = space.subscribe(template!["alert", ValueType::Str], [EventKind::Written]);

    space.write(
        tuple!["entry", 7],
        Lease::for_duration(t0, SimDuration::from_secs(160)),
        t0,
    );
    let at_159 = SimTime::from_secs(159);
    let found = space.take(&template!["entry", ValueType::Int], at_159);
    println!("take at t=159s (lease 160s): {found:?}");
    assert!(found.is_some());

    // Leases: entries evaporate when their lifetime runs out.
    space.write(
        tuple!["ephemeral"],
        Lease::for_duration(at_159, SimDuration::from_millis(20)),
        at_159,
    );
    let later = at_159.saturating_add(SimDuration::from_millis(40));
    assert!(space.read(&template!["ephemeral"], later).is_none());
    println!("leased entry expired on schedule");

    space.write(tuple!["alert", "overtemp"], Lease::Forever, later);
    let notifications = space.drain_notifications();
    assert_eq!(notifications.len(), 1, "only the alert matches");
    let event = &notifications[0];
    assert_eq!(event.subscription, alerts);
    println!("notified of {} at {}", event.tuple, event.at);
}

/// Part 2 — the full stack: XML protocol over the simulated TpWIRE bus.
fn over_the_bus() {
    println!("\n== client/server over the simulated TpWIRE bus ==");
    let cfg = CaseStudyConfig {
        bus: BusParams::theseus_default(), // 8 Mbit/s, 1-wire
        entry_bytes: 128,
        lease: SimDuration::from_secs(160),
        cbr_rate: 0.0,
        cbr_packet: 1,
        take_delay: SimDuration::ZERO,
        client_think: SimDuration::ZERO,
        server_service: SimDuration::ZERO,
        client_endpoint: EndpointCosts::free(),
        server_endpoint: EndpointCosts::free(),
        horizon: SimDuration::from_secs(10),
        wire_format: tsbus_xmlwire::WireFormat::Xml,
        recovery: None,
        exactly_once: false,
    };
    let result = run_case_study(&cfg);
    println!(
        "write RTT {:.2} ms, take RTT {:.2} ms over the wire — entry {}",
        result.write_latency.expect("finished").as_millis_f64(),
        result.take_latency.expect("finished").as_millis_f64(),
        if result.out_of_time {
            "LOST"
        } else {
            "returned"
        }
    );
    assert!(!result.out_of_time);
}
