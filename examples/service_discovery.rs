//! §2.1 "Support to system extensions" — dynamic device addition and
//! removal through tuplespace service discovery.
//!
//! Run with `cargo run -p tsbus-core --example service_discovery`.
//!
//! Devices exporting a service register themselves in the space; joining
//! devices query the registry and employ the service — no central
//! controller, no reconfiguration. Leased registrations de-register
//! crashed providers automatically.

use tsbus_des::{SimDuration, SimTime};
use tsbus_tuplespace::discovery;
use tsbus_tuplespace::{Lease, Space};

fn main() {
    println!("§2.1 — service discovery on the tuplespace\n");

    let mut space = Space::new();
    let mut now = SimTime::ZERO;

    // Two FFT-capable nodes and one logger join the network.
    discovery::register(&mut space, "fft", "node-7", Lease::Forever, now);
    discovery::register(&mut space, "fft", "node-9", Lease::Forever, now);
    discovery::register(&mut space, "logging", "node-2", Lease::Forever, now);

    let fft_providers = discovery::lookup(&mut space, "fft", now);
    println!("devices offering 'fft':      {fft_providers:?}");
    assert_eq!(fft_providers, ["node-7", "node-9"]);
    let log_providers = discovery::lookup(&mut space, "logging", now);
    println!("devices offering 'logging':  {log_providers:?}");

    // A producer picks any provider — it never needs to know addresses in
    // advance (anonymous, associative addressing).
    let chosen = discovery::lookup_one(&mut space, "fft", now)
        .expect("at least one fft provider registered");
    println!("\nproducer dispatches its FFT request to {chosen}");

    // Dynamic removal: node-7 leaves the network cleanly.
    assert!(discovery::unregister(&mut space, "fft", "node-7", now));
    let remaining = discovery::lookup(&mut space, "fft", now);
    println!("after node-7 unregisters:    {remaining:?}");
    assert_eq!(remaining, ["node-9"]);

    // Crash-stop removal: a provider that registers with a lease and then
    // dies disappears without any cleanup message.
    let lease = Lease::for_duration(now, SimDuration::from_millis(30));
    discovery::register(&mut space, "fft", "flaky-node", lease, now);
    let with_flaky = discovery::lookup(&mut space, "fft", now);
    println!("flaky-node registered (30 ms lease): {with_flaky:?}");
    assert_eq!(with_flaky, ["node-9", "flaky-node"]);

    now = now.saturating_add(SimDuration::from_millis(60));
    let after_expiry = discovery::lookup(&mut space, "fft", now);
    println!("after its lease expired:             {after_expiry:?}");
    assert_eq!(after_expiry, ["node-9"], "the crashed provider aged out");
}
