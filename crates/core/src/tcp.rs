//! The TCP-over-Ethernet baseline transport of §4.3.
//!
//! The paper contrasts TpWIRE with "the Ethernet as physical medium" plus
//! TCP/IP through UNIX sockets: natural software abstraction, but needing
//! active devices (a switch) and a full network infrastructure. This module
//! models that alternative so the two transports can carry the *same*
//! application traffic:
//!
//! * a star of full-duplex links around a store-and-forward [`Switch`];
//! * [`TcpEndpoint`]s that segment messages into MSS-sized frames with
//!   Ethernet+IP+TCP header overhead, charge a connection handshake on
//!   first contact with a peer, and acknowledge received segments with
//!   reverse-path ack frames (loading the reverse direction, as real acks
//!   do).
//!
//! Deliberate simplifications (documented per the DESIGN.md substitution
//! rule): no slow start/congestion control (the star is uncongested by
//! construction in these experiments), no retransmissions (links are
//! lossless here), cumulative acks approximated as one ack per segment.

use std::collections::HashMap;

use bytes::{BufMut, Bytes, BytesMut};
use tsbus_des::{Component, ComponentId, Context, Message, MessageExt, SimDuration, Simulator};
use tsbus_tpwire::NodeId;

use crate::endpoint::EndpointCosts;
use crate::link::{Link, LinkSpec};
use crate::net::{NetDeliver, NetSend};
use crate::packet::{Deliver, Packet, Transmit};

/// Ethernet + IPv4 + TCP header bytes charged per segment.
pub(crate) const SEGMENT_OVERHEAD: u32 = 18 + 20 + 20;

/// Wire size of a pure acknowledgement frame (minimum Ethernet frame).
pub(crate) const ACK_BYTES: u32 = 64;

/// Parameters of the TCP baseline transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpParams {
    /// Maximum segment payload size (classic Ethernet MSS = 1460).
    pub(crate) mss: u32,
    /// One-time connection-establishment delay charged per new peer
    /// (stands in for the three-way handshake: ~1.5 RTT plus kernel work).
    pub(crate) handshake: SimDuration,
    /// Star link characteristics (endpoint ↔ switch).
    pub(crate) link: LinkSpec,
}

impl TcpParams {
    /// 10 Mb/s switched Ethernet with 50 µs port-to-port latency — a
    /// period-appropriate factory network.
    #[must_use]
    pub fn ethernet_10mbps() -> Self {
        TcpParams {
            mss: 1460,
            handshake: SimDuration::from_millis(2),
            link: LinkSpec::new(10_000_000.0, SimDuration::from_micros(50), 256),
        }
    }
}

/// Per-message stream framing: 4-byte big-endian length prefix on the first
/// segment of each message.
const LEN_PREFIX: usize = 4;

/// A store-and-forward switch at the center of the star.
///
/// Forwards each delivered packet onto the link of the packet's destination
/// endpoint.
#[derive(Debug, Default)]
pub(crate) struct Switch {
    /// endpoint component → the link that reaches it.
    routes: HashMap<ComponentId, ComponentId>,
    forwarded: u64,
}

impl Switch {
    /// Creates an empty switch; routes are added with
    /// [`add_route`](Switch::add_route).
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registers the link that reaches `endpoint`.
    pub(crate) fn add_route(&mut self, endpoint: ComponentId, link: ComponentId) {
        self.routes.insert(endpoint, link);
    }
}

impl Component for Switch {
    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        let Ok(deliver) = msg.downcast::<Deliver>() else {
            return;
        };
        let packet = deliver.packet;
        let Some(&link) = self.routes.get(&packet.dst) else {
            return; // unknown destination: drop, like a real switch would flood/learn
        };
        self.forwarded += 1;
        let from = ctx.self_id();
        ctx.send(link, Transmit { from, packet });
    }
}

/// In-flight reassembly state for one sender.
#[derive(Debug, Default)]
struct RxStream {
    expected: Option<usize>,
    buffer: BytesMut,
}

/// A TCP/IP station endpoint on the star.
#[derive(Debug)]
pub(crate) struct TcpEndpoint {
    /// This station's own address: loopback sends short-circuit the wire.
    node: NodeId,
    app: ComponentId,
    link: ComponentId,
    params: TcpParams,
    costs: EndpointCosts,
    /// Peer address → peer endpoint component.
    peers: HashMap<u8, ComponentId>,
    /// Peers we already hold a connection to.
    connected: HashMap<u8, bool>,
    rx: HashMap<ComponentId, RxStream>,
    /// Reverse map for attributing received segments to node addresses.
    peer_nodes: HashMap<ComponentId, u8>,
    next_seq: u64,
    segments_sent: u64,
    acks_sent: u64,
}

/// Internal timer: outbound processing + handshake done; emit segments.
#[derive(Debug)]
struct TcpOutboundReady {
    to: NodeId,
    payload: Bytes,
}

/// Internal timer: inbound processing done; deliver to the app.
#[derive(Debug)]
struct TcpInboundReady {
    from: NodeId,
    payload: Bytes,
}

impl TcpEndpoint {
    /// Creates an endpoint for `node`, attached to `link`, serving `app`.
    #[must_use]
    pub(crate) fn new(
        node: NodeId,
        app: ComponentId,
        link: ComponentId,
        params: TcpParams,
        costs: EndpointCosts,
    ) -> Self {
        TcpEndpoint {
            node,
            app,
            link,
            params,
            costs,
            peers: HashMap::new(),
            connected: HashMap::new(),
            rx: HashMap::new(),
            peer_nodes: HashMap::new(),
            next_seq: 0,
            segments_sent: 0,
            acks_sent: 0,
        }
    }

    /// Registers a reachable peer endpoint.
    pub(crate) fn add_peer(&mut self, node: NodeId, endpoint: ComponentId) {
        self.peers.insert(node.raw(), endpoint);
        self.peer_nodes.insert(endpoint, node.raw());
    }

    fn emit_segments(&mut self, ctx: &mut Context<'_>, to: NodeId, payload: Bytes) {
        let Some(&peer) = self.peers.get(&to.raw()) else {
            panic!("{to} is not a registered peer of this endpoint");
        };
        // Stream framing: length prefix, then the payload bytes.
        let mut stream = BytesMut::with_capacity(LEN_PREFIX + payload.len());
        stream.put_u32(payload.len() as u32);
        stream.extend_from_slice(&payload);
        let stream = stream.freeze();
        let mss = self.params.mss as usize;
        let mut offset = 0;
        // The stream always carries at least the length prefix, so at least
        // one segment goes out even for an empty application payload.
        while offset < stream.len() {
            let end = (offset + mss).min(stream.len());
            let chunk = stream.slice(offset..end);
            let wire = chunk.len() as u32 + SEGMENT_OVERHEAD;
            let mut packet = Packet::new(ctx.self_id(), peer, wire, chunk);
            packet.seq = self.next_seq;
            self.next_seq += 1;
            self.segments_sent += 1;
            let link = self.link;
            let from = ctx.self_id();
            ctx.send(link, Transmit { from, packet });
            offset = end;
        }
    }
}

impl Component for TcpEndpoint {
    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        let msg = match msg.downcast::<NetSend>() {
            Ok(send) => {
                let NetSend { to, payload } = *send;
                if to == self.node {
                    // Loopback: the stack never touches the wire, so only
                    // the endpoint processing costs are charged — no
                    // handshake, no segments, no acks.
                    let from = self.node;
                    ctx.schedule_self_in(
                        self.costs.send_overhead + self.costs.receive_overhead,
                        TcpInboundReady { from, payload },
                    );
                    return;
                }
                let mut delay = self.costs.send_overhead;
                let first_contact = !self.connected.contains_key(&to.raw());
                if first_contact {
                    self.connected.insert(to.raw(), true);
                    delay += self.params.handshake;
                }
                ctx.schedule_self_in(delay, TcpOutboundReady { to, payload });
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<TcpOutboundReady>() {
            Ok(ready) => {
                let TcpOutboundReady { to, payload } = *ready;
                self.emit_segments(ctx, to, payload);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Deliver>() {
            Ok(deliver) => {
                let packet = deliver.packet;
                if packet.payload.is_empty() && packet.size_bytes == ACK_BYTES {
                    return; // a bare ack: costs wire time only
                }
                // Acknowledge the data segment on the reverse path.
                let ack = Packet::new(ctx.self_id(), packet.src, ACK_BYTES, Bytes::new());
                self.acks_sent += 1;
                let link = self.link;
                let from = ctx.self_id();
                ctx.send(link, Transmit { from, packet: ack });
                // Reassemble the sender's stream; back-to-back messages may
                // stack in the buffer, so drain every complete one.
                let mut completed = Vec::new();
                {
                    let stream = self.rx.entry(packet.src).or_default();
                    stream.buffer.extend_from_slice(&packet.payload);
                    loop {
                        if stream.expected.is_none() && stream.buffer.len() >= LEN_PREFIX {
                            let len = u32::from_be_bytes(
                                stream.buffer[..LEN_PREFIX].try_into().expect("4 bytes"),
                            ) as usize;
                            stream.expected = Some(len);
                        }
                        match stream.expected {
                            Some(len) if stream.buffer.len() >= LEN_PREFIX + len => {
                                let mut taken = stream.buffer.split_to(LEN_PREFIX + len);
                                let message = taken.split_off(LEN_PREFIX).freeze();
                                stream.expected = None;
                                completed.push(message);
                            }
                            _ => break,
                        }
                    }
                }
                let from_raw = self.peer_nodes.get(&packet.src).copied().unwrap_or(127);
                let from = NodeId::new(from_raw).unwrap_or(NodeId::BROADCAST);
                for payload in completed {
                    ctx.schedule_self_in(
                        self.costs.receive_overhead,
                        TcpInboundReady { from, payload },
                    );
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok(ready) = msg.downcast::<TcpInboundReady>() {
            let TcpInboundReady { from, payload } = *ready;
            let app = self.app;
            ctx.send(app, NetDeliver { from, payload });
        }
    }
}

/// Builds a TCP star: one [`TcpEndpoint`] per station around a [`Switch`],
/// each station reachable from every other. Returns the endpoint component
/// id per node, in input order.
///
/// `stations` pairs each address with its application component and the
/// endpoint's processing costs.
pub(crate) fn build_tcp_star(
    sim: &mut Simulator,
    params: TcpParams,
    stations: &[(NodeId, ComponentId, EndpointCosts)],
) -> Vec<ComponentId> {
    let base = sim.next_component_id().index();
    let n = stations.len();
    // Id layout: endpoints [base, base+n), links [base+n, base+2n),
    // switch at base+2n.
    let endpoint_ids: Vec<ComponentId> = (0..n).map(|i| ComponentId::from_raw(base + i)).collect();
    let link_ids: Vec<ComponentId> = (0..n)
        .map(|i| ComponentId::from_raw(base + n + i))
        .collect();
    let switch_id = ComponentId::from_raw(base + 2 * n);

    for (i, &(node, app, costs)) in stations.iter().enumerate() {
        let mut endpoint = TcpEndpoint::new(node, app, link_ids[i], params, costs);
        for (j, &(peer_node, _, _)) in stations.iter().enumerate() {
            if i != j {
                endpoint.add_peer(peer_node, endpoint_ids[j]);
            }
        }
        sim.add_component(format!("tcp_ep_{node}"), endpoint);
    }
    for (i, &(node, _, _)) in stations.iter().enumerate() {
        sim.add_component(
            format!("tcp_link_{node}"),
            Link::new(params.link, endpoint_ids[i], switch_id),
        );
    }
    let mut switch = Switch::new();
    for (i, _) in stations.iter().enumerate() {
        switch.add_route(endpoint_ids[i], link_ids[i]);
    }
    let actual_switch = sim.add_component("tcp_switch", switch);
    debug_assert_eq!(actual_switch, switch_id);
    endpoint_ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsbus_des::SimTime;

    #[derive(Default)]
    struct App {
        inbox: Vec<(SimTime, NodeId, Bytes)>,
    }

    impl Component for App {
        fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
            if let Ok(d) = msg.downcast::<NetDeliver>() {
                self.inbox.push((ctx.now(), d.from, d.payload));
            }
        }
    }

    fn node(id: u8) -> NodeId {
        NodeId::new(id).expect("valid")
    }

    fn star(n: u8) -> (Simulator, Vec<ComponentId>, Vec<ComponentId>) {
        let mut sim = Simulator::new();
        let apps: Vec<ComponentId> = (1..=n)
            .map(|i| sim.add_component(format!("app{i}"), App::default()))
            .collect();
        let stations: Vec<(NodeId, ComponentId, EndpointCosts)> = (1..=n)
            .map(|i| (node(i), apps[usize::from(i) - 1], EndpointCosts::free()))
            .collect();
        let endpoints = build_tcp_star(&mut sim, TcpParams::ethernet_10mbps(), &stations);
        (sim, apps, endpoints)
    }

    #[test]
    fn small_message_crosses_the_star() {
        let (mut sim, apps, endpoints) = star(3);
        sim.with_context(|ctx| {
            ctx.send(
                endpoints[0],
                NetSend {
                    to: node(3),
                    payload: Bytes::from_static(b"hello over tcp"),
                },
            );
        });
        sim.run_until(SimTime::from_millis(100));
        let app3: &App = sim.component(apps[2]).expect("registered");
        assert_eq!(app3.inbox.len(), 1);
        assert_eq!(app3.inbox[0].1, node(1));
        assert_eq!(&app3.inbox[0].2[..], b"hello over tcp");
    }

    #[test]
    fn large_message_is_segmented_and_reassembled() {
        let (mut sim, apps, endpoints) = star(2);
        let big: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        sim.with_context(|ctx| {
            ctx.send(
                endpoints[0],
                NetSend {
                    to: node(2),
                    payload: Bytes::from(big.clone()),
                },
            );
        });
        sim.run_until(SimTime::from_secs(1));
        let app2: &App = sim.component(apps[1]).expect("registered");
        assert_eq!(app2.inbox.len(), 1);
        assert_eq!(&app2.inbox[0].2[..], &big[..]);
        let ep: &TcpEndpoint = sim.component(endpoints[0]).expect("registered");
        assert!(
            ep.segments_sent >= 7,
            "10 KB at MSS 1460 needs several segments, sent {}",
            ep.segments_sent
        );
        let ep2: &TcpEndpoint = sim.component(endpoints[1]).expect("registered");
        assert_eq!(ep2.acks_sent, ep.segments_sent, "one ack per segment");
    }

    #[test]
    fn handshake_is_charged_only_on_first_contact() {
        let (mut sim, apps, endpoints) = star(2);
        sim.with_context(|ctx| {
            ctx.send(
                endpoints[0],
                NetSend {
                    to: node(2),
                    payload: Bytes::from_static(b"a"),
                },
            );
        });
        sim.run_until(SimTime::from_millis(500));
        let first = sim.component::<App>(apps[1]).expect("registered").inbox[0].0;
        sim.with_context(|ctx| {
            ctx.send(
                endpoints[0],
                NetSend {
                    to: node(2),
                    payload: Bytes::from_static(b"b"),
                },
            );
        });
        let resend_at = sim.now();
        sim.run_until(SimTime::from_secs(1));
        let second = sim.component::<App>(apps[1]).expect("registered").inbox[1].0;
        let first_latency = first.as_secs_f64();
        let second_latency = second.duration_since(resend_at).as_secs_f64();
        assert!(
            first_latency > second_latency + 0.0015,
            "handshake (~2 ms) must only hit the first message: {first_latency} vs {second_latency}"
        );
    }

    #[test]
    fn tcp_latency_beats_tpwire_for_bulk_data() {
        // Sanity on the baseline's place in the design space: at 10 Mb/s a
        // 1 KB message crosses in well under a millisecond.
        let (mut sim, apps, endpoints) = star(2);
        sim.with_context(|ctx| {
            ctx.send(
                endpoints[0],
                NetSend {
                    to: node(2),
                    payload: Bytes::from(vec![0u8; 1024]),
                },
            );
        });
        sim.run_until(SimTime::from_secs(1));
        let arrival = sim.component::<App>(apps[1]).expect("registered").inbox[0].0;
        assert!(arrival.as_secs_f64() < 0.01, "arrived at {arrival}");
    }

    #[test]
    fn loopback_sends_skip_the_wire_and_charge_only_endpoint_costs() {
        let (mut sim, apps, endpoints) = star(2);
        sim.with_context(|ctx| {
            ctx.send(
                endpoints[0],
                NetSend {
                    to: node(1),
                    payload: Bytes::from_static(b"to self"),
                },
            );
        });
        sim.run_until(SimTime::from_secs(1));
        let a: &App = sim.component(apps[0]).expect("registered");
        assert_eq!(a.inbox.len(), 1);
        assert_eq!(a.inbox[0].1, node(1), "delivered from the station itself");
        let ep: &TcpEndpoint = sim.component(endpoints[0]).expect("registered");
        assert_eq!(ep.node, node(1));
        assert_eq!(ep.segments_sent, 0, "loopback never reaches the link");
        assert_eq!(ep.acks_sent, 0);
    }

    #[test]
    fn concurrent_flows_do_not_interfere_destructively() {
        let (mut sim, apps, endpoints) = star(4);
        sim.with_context(|ctx| {
            ctx.send(
                endpoints[0],
                NetSend {
                    to: node(3),
                    payload: Bytes::from(vec![1u8; 5000]),
                },
            );
            ctx.send(
                endpoints[1],
                NetSend {
                    to: node(4),
                    payload: Bytes::from(vec![2u8; 5000]),
                },
            );
        });
        sim.run_until(SimTime::from_secs(1));
        for (app, expect) in [(apps[2], 1u8), (apps[3], 2u8)] {
            let a: &App = sim.component(app).expect("registered");
            assert_eq!(a.inbox.len(), 1);
            assert!(a.inbox[0].2.iter().all(|&b| b == expect));
        }
    }
}
