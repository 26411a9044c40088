//! The TpWIRE transport endpoint: the glue between an application agent
//! and the bus, playing the role of the paper's SystemC node + gdb/socket
//! interface on each side (Fig. 5).
//!
//! Outbound: [`NetSend`] → fixed per-message processing delay (the board's
//! driver/ISS cost) → [`SendStream`] on the bus.
//! Inbound: [`StreamDelivered`] chunks → reassembly → processing delay →
//! [`NetDeliver`] to the application.

use std::collections::HashMap;

use bytes::Bytes;
use tsbus_des::{Component, ComponentId, Context, Message, MessageExt, SimDuration};
use tsbus_tpwire::{NodeId, SendStream, StreamDelivered, StreamEndpoint, StreamFailed};

use crate::net::{MessageAssembler, NetDeliver, NetError, NetSend};

/// Internal timer: the outbound processing delay elapsed; hand to the bus.
#[derive(Debug)]
struct OutboundReady {
    to: NodeId,
    payload: Bytes,
}

/// Internal timer: the inbound processing delay elapsed; hand to the app.
#[derive(Debug)]
struct InboundReady {
    from: NodeId,
    payload: Bytes,
}

/// Per-message processing costs charged by an endpoint, modeling the
/// protocol stack the paper co-simulates (SystemC glue, gdb remote protocol
/// on the board side; UNIX socket wrapper + RMI hop on the server side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EndpointCosts {
    /// Charged once per outgoing message before it reaches the bus.
    pub(crate) send_overhead: SimDuration,
    /// Charged once per incoming message before the application sees it.
    pub(crate) receive_overhead: SimDuration,
}

impl EndpointCosts {
    /// Zero-cost endpoint (ideal glue).
    #[must_use]
    pub fn free() -> Self {
        Self::default()
    }

    /// Symmetric per-message cost.
    #[must_use]
    pub fn symmetric(overhead: SimDuration) -> Self {
        EndpointCosts {
            send_overhead: overhead,
            receive_overhead: overhead,
        }
    }
}

/// A TpWIRE transport endpoint bound to one slave node.
///
/// Registered with the simulator *and* attached to the bus (via
/// [`TpWireBus::attach`]) under the same node; forwards whole messages
/// between its application component and the bus.
///
/// [`TpWireBus::attach`]: tsbus_tpwire::TpWireBus::attach
#[derive(Debug)]
pub struct TpwireEndpoint {
    bus: ComponentId,
    app: ComponentId,
    node: NodeId,
    costs: EndpointCosts,
    /// One assembler per source endpoint (messages from different sources
    /// never interleave chunks of a single message, but two sources may
    /// alternate whole chunks).
    assemblers: HashMap<StreamEndpoint, MessageAssembler>,
}

impl TpwireEndpoint {
    /// Creates an endpoint for `node`, bridging `app` and `bus`.
    #[must_use]
    pub fn new(node: NodeId, app: ComponentId, bus: ComponentId, costs: EndpointCosts) -> Self {
        TpwireEndpoint {
            bus,
            app,
            node,
            costs,
            assemblers: HashMap::new(),
        }
    }
}

impl Component for TpwireEndpoint {
    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        let msg = match msg.downcast::<NetSend>() {
            Ok(send) => {
                let NetSend { to, payload } = *send;
                ctx.schedule_self_in(self.costs.send_overhead, OutboundReady { to, payload });
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<OutboundReady>() {
            Ok(ready) => {
                let OutboundReady { to, payload } = *ready;
                let bus = self.bus;
                let from = self.node;
                ctx.send(
                    bus,
                    SendStream {
                        from,
                        to: StreamEndpoint::Slave(to),
                        payload,
                    },
                );
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<StreamDelivered>() {
            Ok(delivered) => {
                let assembler = self.assemblers.entry(delivered.from).or_default();
                if let Some(whole) =
                    assembler.push(delivered.bytes.clone(), delivered.end_of_message)
                {
                    let from = match delivered.from {
                        StreamEndpoint::Slave(node) => node,
                        // Master-originated traffic is addressed from the
                        // reserved id 127 (never a real slave).
                        StreamEndpoint::Master => NodeId::BROADCAST,
                    };
                    ctx.schedule_self_in(
                        self.costs.receive_overhead,
                        InboundReady {
                            from,
                            payload: whole,
                        },
                    );
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<InboundReady>() {
            Ok(ready) => {
                let InboundReady { from, payload } = *ready;
                let app = self.app;
                ctx.send(app, NetDeliver { from, payload });
                return;
            }
            Err(m) => m,
        };
        if let Ok(failed) = msg.downcast::<StreamFailed>() {
            let to = match failed.to {
                Some(StreamEndpoint::Slave(node)) => node,
                _ => NodeId::BROADCAST,
            };
            let app = self.app;
            let reason = failed.reason.clone();
            let fast = failed.fast;
            ctx.send(app, NetError { to, reason, fast });
        }
        // StreamSent acknowledgements are deliberately ignored: the
        // application layer works request/response.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsbus_des::{SimTime, Simulator};
    use tsbus_tpwire::{BusParams, TpWireBus};

    /// Records delivered messages with their arrival time.
    #[derive(Default)]
    struct App {
        inbox: Vec<(SimTime, NodeId, Bytes)>,
        errors: Vec<String>,
    }

    impl Component for App {
        fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
            match msg.downcast::<NetDeliver>() {
                Ok(d) => self.inbox.push((ctx.now(), d.from, d.payload)),
                Err(m) => {
                    if let Some(e) = m.downcast_ref::<NetError>() {
                        self.errors.push(e.reason.clone());
                    }
                }
            }
        }
    }

    fn node(id: u8) -> NodeId {
        NodeId::new(id).expect("valid test id")
    }

    /// Full path: app A → endpoint A → bus → endpoint B → app B.
    #[test]
    fn message_crosses_the_bus_between_apps() {
        let mut sim = Simulator::new();
        let app_a = sim.add_component("app_a", App::default());
        let app_b = sim.add_component("app_b", App::default());
        let ep_a = ComponentId::from_raw(2);
        let ep_b = ComponentId::from_raw(3);
        let bus_id = ComponentId::from_raw(4);
        sim.add_component(
            "ep_a",
            TpwireEndpoint::new(node(1), app_a, bus_id, EndpointCosts::free()),
        );
        sim.add_component(
            "ep_b",
            TpwireEndpoint::new(node(2), app_b, bus_id, EndpointCosts::free()),
        );
        let mut bus = TpWireBus::new(BusParams::theseus_default(), vec![node(1), node(2)]);
        bus.attach(node(1), ep_a);
        bus.attach(node(2), ep_b);
        sim.add_component("bus", bus);

        sim.with_context(|ctx| {
            ctx.send(
                ep_a,
                NetSend {
                    to: node(2),
                    payload: Bytes::from_static(b"<op type=\"x\"/>"),
                },
            );
        });
        sim.run_until(SimTime::from_millis(50));
        let b: &App = sim.component(app_b).expect("registered");
        assert_eq!(b.inbox.len(), 1);
        assert_eq!(b.inbox[0].1, node(1));
        assert_eq!(&b.inbox[0].2[..], b"<op type=\"x\"/>");
    }

    #[test]
    fn endpoint_costs_delay_delivery() {
        let run = |costs: EndpointCosts| -> SimTime {
            let mut sim = Simulator::new();
            let app_a = sim.add_component("app_a", App::default());
            let app_b = sim.add_component("app_b", App::default());
            let ep_a = ComponentId::from_raw(2);
            let ep_b = ComponentId::from_raw(3);
            let bus_id = ComponentId::from_raw(4);
            sim.add_component("ep_a", TpwireEndpoint::new(node(1), app_a, bus_id, costs));
            sim.add_component("ep_b", TpwireEndpoint::new(node(2), app_b, bus_id, costs));
            let mut bus = TpWireBus::new(BusParams::theseus_default(), vec![node(1), node(2)]);
            bus.attach(node(1), ep_a);
            bus.attach(node(2), ep_b);
            sim.add_component("bus", bus);
            sim.with_context(|ctx| {
                ctx.send(
                    ep_a,
                    NetSend {
                        to: node(2),
                        payload: Bytes::from_static(b"hello"),
                    },
                );
            });
            sim.run_until(SimTime::from_secs(1));
            let b: &App = sim.component(app_b).expect("registered");
            b.inbox[0].0
        };
        let free = run(EndpointCosts::free());
        let costly = run(EndpointCosts::symmetric(SimDuration::from_millis(10)));
        let delta = costly.duration_since(free).as_millis_f64();
        // ~20 ms of endpoint cost, give or take one poll-cycle alignment.
        assert!(
            (19.0..21.0).contains(&delta),
            "send + receive overhead should add ~20 ms, added {delta} ms"
        );
    }
}
