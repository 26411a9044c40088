//! Figure 1 — redundant actuators with tuplespace-coordinated failover.
//!
//! Run with `cargo run -p tsbus-core --example redundant_actuator`.
//!
//! Implements the paper's §2.1 fault-tolerance algorithm verbatim:
//!
//! 1. at startup the control agent puts a start tuple in the space and
//!    waits until it is removed;
//! 2. every actuator agent races to take it — exactly one wins and becomes
//!    *operating*, the others become *backup*;
//! 3. on each tick the operating actuator writes a heartbeat tuple
//!    ("operating OK");
//! 4. on each tick the backup tries to take the heartbeat; when that fails
//!    (its dual died), it promotes itself and takes over.
//!
//! The example injects a failure and shows the backup picking up within
//! one tick. The agents share one [`Space`] and run in simulated time: each
//! acts once per 25 ms tick, at its own fixed phase within the tick.

use tsbus_des::{SimDuration, SimTime};
use tsbus_tuplespace::{template, tuple, Lease, Space, ValueType};

const TICK: SimDuration = SimDuration::from_millis(25);
/// Ticks the control agent lets the system run after arming it.
const RUN_TICKS: u64 = 20;

/// One actuator agent of the §2.1 algorithm.
struct Actuator {
    name: &'static str,
    /// Offset of this agent's actions within each tick.
    phase: SimDuration,
    /// Inject a silent crash after this many operating ticks.
    crash_after: Option<u32>,
    operating: bool,
    crashed: bool,
    ticks_operating: u32,
}

impl Actuator {
    fn new(name: &'static str, phase: SimDuration, crash_after: Option<u32>) -> Self {
        Actuator {
            name,
            phase,
            crash_after,
            operating: false,
            crashed: false,
            ticks_operating: 0,
        }
    }

    /// Step 2: race for the start tuple; one winner operates.
    fn start(&mut self, space: &mut Space, now: SimTime) {
        self.operating = space.take(&template!["actuator-start"], now).is_some();
        if self.operating {
            println!("{}: won the start tuple -> OPERATING", self.name);
        } else {
            println!("{}: start tuple already taken -> BACKUP", self.name);
        }
    }

    /// One tick of the control loop.
    fn tick(&mut self, space: &mut Space, now: SimTime) {
        if self.crashed {
            return; // the agent died silently
        }
        if self.operating {
            // Step 3: execute the control program, publish a heartbeat.
            self.ticks_operating += 1;
            if self.crash_after == Some(self.ticks_operating) {
                println!(
                    "{}: !! injected failure after {} ticks",
                    self.name, self.ticks_operating
                );
                self.crashed = true;
                return;
            }
            let lease = Lease::for_duration(now, TICK * 2);
            space.write(tuple!["actuator-state", "operating OK"], lease, now);
        } else {
            // Step 4: consume the dual's heartbeat; if none arrived, begin
            // the recovery procedure.
            let heartbeat = space.take(&template!["actuator-state", ValueType::Str], now);
            if heartbeat.is_none() {
                println!("{}: heartbeat missing -> promoting to OPERATING", self.name);
                self.operating = true;
            }
        }
    }
}

fn main() {
    println!("Figure 1 — redundant actuators over the tuplespace\n");
    let mut space = Space::new();

    // Step 1: the control agent arms the system.
    space.write(tuple!["actuator-start"], Lease::Forever, SimTime::ZERO);

    // A acts first within each tick, so it deterministically wins the race.
    let mut actuators = [
        Actuator::new("actuator-A", SimDuration::ZERO, Some(8)),
        Actuator::new("actuator-B", SimDuration::from_millis(5), None),
    ];
    for actuator in &mut actuators {
        actuator.start(&mut space, SimTime::ZERO + actuator.phase);
    }

    // The control agent observes the start tuple disappearing (step 1's
    // wait) and then lets the system run through the failure.
    assert!(space
        .read(&template!["actuator-start"], SimTime::ZERO + TICK)
        .is_none());
    println!("control: start tuple taken, control loop running\n");

    for tick in 1..=RUN_TICKS {
        for actuator in &mut actuators {
            actuator.tick(&mut space, SimTime::ZERO + TICK * tick + actuator.phase);
        }
    }

    let [a, b] = &actuators;
    println!(
        "\nactuator-A operated for {} ticks (then failed)",
        a.ticks_operating
    );
    println!(
        "actuator-B operated for {} ticks (after taking over)",
        b.ticks_operating
    );
    assert!(a.ticks_operating > 0, "A won the race and operated");
    assert!(b.ticks_operating > 0, "B took over after the failure");
    println!("\nfailover complete: the controlled device never lost its actuator");
}
