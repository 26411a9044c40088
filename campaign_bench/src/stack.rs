//! How the benchmark registers and drives its self-assembled topologies.
//!
//! A [`Stack`] is either plain (the untraced run: components go into the
//! simulator as they are) or traced: every component is wrapped in a
//! [`Timed`] shell that books the host time of each `start`/`handle`
//! call to the component's layer in a shared [`Ledger`]. Kernel self time
//! is the driving loop's wall time minus all wrapped handle time. The
//! wrappers never touch a message, so a traced run dispatches exactly the
//! events of the plain run.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use tsbus_core::NetDeliver;
use tsbus_des::{
    Component, ComponentId, Context, Message, MessageExt, SimDuration, SimTime, Simulator,
};

/// The layer a registered component belongs to (discriminants index
/// [`Layer::ALL`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `ScriptedClient` and the shard workload driver.
    Client,
    /// `SpaceServerAgent` (its `Space` and codec run inside it).
    Server,
    /// `TpwireEndpoint`.
    Endpoint,
    /// `TpWireBus`: the bus master and its slaves.
    Tpwire,
    /// Background CBR source and sink on the bus.
    Traffic,
    /// The fault-schedule driver.
    Faults,
    /// `ShardRouter`.
    Router,
    /// The benchmark's own direct link (standing workload only).
    Link,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 8] = [
        Layer::Client,
        Layer::Server,
        Layer::Endpoint,
        Layer::Tpwire,
        Layer::Traffic,
        Layer::Faults,
        Layer::Router,
        Layer::Link,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Client => "client",
            Layer::Server => "server",
            Layer::Endpoint => "endpoint",
            Layer::Tpwire => "tpwire",
            Layer::Traffic => "traffic",
            Layer::Faults => "faults",
            Layer::Router => "router",
            Layer::Link => "link",
        }
    }
}

/// A whole message delivered to an application component, kept for the
/// codec and `Space` replays.
#[derive(Debug, Clone)]
pub struct Delivered {
    /// Simulation the message belongs to (a trial, or a whole
    /// `standing_space` pass).
    pub trial: usize,
    /// The receiving component (one `Space` per server).
    pub to: ComponentId,
    /// Whether the receiver is a server (a request) or a client (a reply).
    pub to_server: bool,
    /// Simulated delivery instant.
    pub at: SimTime,
    /// The wire bytes.
    pub payload: Vec<u8>,
}

/// Host time and dispatch counts per layer, plus the message stream.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Host nanoseconds inside `start`/`handle`, per layer.
    pub self_ns: [u64; Layer::ALL.len()],
    /// Events handled, per layer.
    pub dispatches: [u64; Layer::ALL.len()],
    /// Host nanoseconds inside the driving loops (kernel + handles).
    pub run_ns: u64,
    /// Largest pending-event count seen at a sampling point.
    pub pending_peak: usize,
    /// Trial currently running (tags [`Delivered`] records).
    pub trial: usize,
    /// Application-level messages in delivery order.
    pub delivered: Vec<Delivered>,
}

impl Ledger {
    fn book(&mut self, layer: Layer, started: Instant, dispatched: u64) {
        self.self_ns[layer as usize] += started.elapsed().as_nanos() as u64;
        self.dispatches[layer as usize] += dispatched;
    }

    /// Host nanoseconds booked to `layer`.
    pub fn layer_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    /// Events handled by `layer`.
    pub fn layer_dispatches(&self, layer: Layer) -> u64 {
        self.dispatches[layer as usize]
    }
}

/// Timing shell around a component.
pub struct Timed<C> {
    inner: C,
    layer: Layer,
    ledger: Rc<RefCell<Ledger>>,
}

impl<C: Component> Component for Timed<C> {
    fn start(&mut self, ctx: &mut Context<'_>) {
        let started = Instant::now();
        self.inner.start(ctx);
        // A start hook is not a kernel event.
        self.ledger.borrow_mut().book(self.layer, started, 0);
    }

    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        let to_server = match self.layer {
            Layer::Server => Some(true),
            Layer::Client | Layer::Router => Some(false),
            _ => None,
        };
        if let (Some(to_server), Some(d)) = (to_server, msg.downcast_ref::<NetDeliver>()) {
            let mut ledger = self.ledger.borrow_mut();
            let trial = ledger.trial;
            ledger.delivered.push(Delivered {
                trial,
                to: ctx.self_id(),
                to_server,
                at: ctx.now(),
                payload: d.payload.to_vec(),
            });
        }
        let started = Instant::now();
        self.inner.handle(ctx, msg);
        self.ledger.borrow_mut().book(self.layer, started, 1);
    }
}

/// Sub-slices per driving slice in traced runs: the pending set is
/// sampled at each sub-slice boundary.
const SUBSLICES: u64 = 16;

/// Plain or traced component registration and driving.
#[derive(Clone, Default)]
pub struct Stack {
    ledger: Option<Rc<RefCell<Ledger>>>,
}

impl Stack {
    /// Untraced: components are registered unwrapped.
    pub fn plain() -> Self {
        Stack { ledger: None }
    }

    /// Traced: every component books into `ledger`.
    pub fn traced(ledger: Rc<RefCell<Ledger>>) -> Self {
        Stack {
            ledger: Some(ledger),
        }
    }

    /// Tags subsequent message records with `trial`.
    pub fn set_trial(&self, trial: usize) {
        if let Some(ledger) = &self.ledger {
            ledger.borrow_mut().trial = trial;
        }
    }

    /// Runs `f` without booking its host time or dispatches (the
    /// messages it delivers are still recorded for the replays).
    pub fn untimed<R>(&self, f: impl FnOnce() -> R) -> R {
        let saved = self.ledger.as_ref().map(|l| {
            let l = l.borrow();
            (l.self_ns, l.dispatches, l.run_ns, l.pending_peak)
        });
        let result = f();
        if let (Some(ledger), Some((self_ns, dispatches, run_ns, peak))) = (&self.ledger, saved) {
            let mut l = ledger.borrow_mut();
            (l.self_ns, l.dispatches, l.run_ns, l.pending_peak) =
                (self_ns, dispatches, run_ns, peak);
        }
        result
    }

    /// Registers `component` under `name`.
    pub fn add<C: Component>(
        &self,
        sim: &mut Simulator,
        layer: Layer,
        name: impl Into<String>,
        component: C,
    ) -> ComponentId {
        match &self.ledger {
            None => sim.add_component(name, component),
            Some(ledger) => sim.add_component(
                name,
                Timed {
                    inner: component,
                    layer,
                    ledger: Rc::clone(ledger),
                },
            ),
        }
    }

    /// Borrows a component registered through [`add`](Self::add).
    pub fn get<'s, C: Component>(&self, sim: &'s Simulator, id: ComponentId) -> &'s C {
        match &self.ledger {
            None => sim.component::<C>(id),
            Some(_) => sim.component::<Timed<C>>(id).map(|t| &t.inner),
        }
        .expect("component registered through this stack")
    }

    /// The library entry points' driving loop: `run_until` in `slice`
    /// steps up to `horizon`, stopping after the first slice at whose end
    /// `done` holds. Traced runs split each slice to sample the pending
    /// set; `run_until(a)` then `run_until(b)` dispatches exactly what
    /// `run_until(b)` does.
    pub fn drive(
        &self,
        sim: &mut Simulator,
        horizon: SimTime,
        slice: SimDuration,
        mut done: impl FnMut(&Simulator) -> bool,
    ) {
        let started = Instant::now();
        let mut peak = 0;
        while sim.now() < horizon {
            let until = (sim.now() + slice).min(horizon);
            if self.ledger.is_some() {
                let step = (slice / SUBSLICES).max(SimDuration::from_nanos(1));
                while sim.now() < until {
                    sim.run_until((sim.now() + step).min(until));
                    peak = peak.max(sim.pending_events());
                }
            } else {
                sim.run_until(until);
            }
            if done(sim) {
                break;
            }
        }
        self.book_run(started, peak);
    }

    /// Dispatches single events until `done` holds or nothing is pending.
    pub fn step_until(&self, sim: &mut Simulator, mut done: impl FnMut(&Simulator) -> bool) {
        let started = Instant::now();
        let mut peak = 0;
        let traced = self.ledger.is_some();
        while !done(sim) && sim.step() {
            if traced {
                peak = peak.max(sim.pending_events());
            }
        }
        self.book_run(started, peak);
    }

    fn book_run(&self, started: Instant, peak: usize) {
        if let Some(ledger) = &self.ledger {
            let mut ledger = ledger.borrow_mut();
            ledger.run_ns += started.elapsed().as_nanos() as u64;
            ledger.pending_peak = ledger.pending_peak.max(peak);
        }
    }
}
