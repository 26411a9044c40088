//! The tuplespace server agent: the simulation counterpart of the paper's
//! Java `SpaceServer` (JavaSpaces-like), reached through a transport
//! endpoint and the XML wire protocol.
//!
//! The agent owns a [`Space`], decodes [`Request`]s from [`NetDeliver`]
//! messages, charges a per-request service time (the RMI hop + JVM work +
//! socket wrapper of Fig. 4), applies the operation and replies. Blocking
//! `read`/`take` requests that find no match park in the space next to the
//! notify subscriptions, as one store of continuations; a later write
//! completes them, or their timeout answers them empty-handed. The agent
//! only routes what the space hands back to the right client.

use std::collections::HashMap;

use bytes::Bytes;
use tsbus_des::{
    Component, ComponentId, Context, EventId, Message, MessageExt, SimDuration, SimTime,
};
use tsbus_obs::{CounterId, DedupDecision, Registry, Snapshot, TraceEvent, Tracer, TupleOpKind};
use tsbus_tpwire::NodeId;
use tsbus_tuplespace::{Lease, Space, SubscriptionId, Template, WaitKind};
use tsbus_xmlwire::{
    request_envelope_from_wire, EncodeScratch, Request, RequestId, Response, WireEvent, WireFormat,
};

use crate::dedup::{Admission, DedupCache};
use crate::net::{NetDeliver, NetSend};

/// Internal timer: service time for a request elapsed; apply it.
#[derive(Debug)]
struct Serviced {
    from: NodeId,
    format: WireFormat,
    id: Option<RequestId>,
    ack: u64,
    request: Request,
}

/// Internal timer: a parked read or take timed out.
#[derive(Debug)]
struct WaitTimeout(SubscriptionId);

/// Internal timer: a lease deadline passed; sweep expirations so notify
/// subscribers hear about them promptly.
#[derive(Debug)]
struct ExpirySweep;

/// Where the outcome of a continuation in the space goes: the client's
/// address and wire encoding, and what to send it.
#[derive(Debug)]
struct Route {
    to: NodeId,
    format: WireFormat,
    reply: Reply,
}

#[derive(Debug)]
enum Reply {
    /// A parked read or take, answered once: by the write that completes
    /// it or by its timeout timer. The reply carries the request's
    /// exactly-once identity, if any, and is cached for replay.
    Parked {
        request_id: Option<RequestId>,
        timer: Option<EventId>,
    },
    /// A wire subscription: each notification is pushed as an `<event>`
    /// carrying this wire id.
    Events { wire_id: u64 },
}

/// Request/response counters of a server agent — a point-in-time view
/// assembled from the agent's metrics [`Registry`] (paths under `req/`,
/// `resp/`, `waiter/`, `dedup/` and `lease/`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests decoded.
    pub(crate) requests: u64,
    /// Responses sent.
    pub(crate) responses: u64,
    /// Requests that failed to decode.
    pub(crate) decode_errors: u64,
    /// Blocking requests that parked as waiters.
    pub parked: u64,
    /// Waiters that timed out empty-handed.
    pub waiter_timeouts: u64,
    /// Duplicate requests answered by replaying the cached reply (the
    /// operation was *not* re-applied).
    pub dedup_replays: u64,
    /// Duplicates dropped because the original is still being serviced.
    pub(crate) dedup_inflight_drops: u64,
    /// Duplicates dropped because the client already acked the reply.
    pub(crate) dedup_acked_drops: u64,
    /// Entries whose lease a `Renew` request extended.
    pub(crate) renewals: u64,
    /// `Renew` requests that found no live matching entry.
    pub(crate) renew_misses: u64,
}

/// Registry handles and the typed trace stream of one server agent.
#[derive(Debug)]
struct ServerInstruments {
    registry: Registry,
    requests: CounterId,
    responses: CounterId,
    decode_errors: CounterId,
    parked: CounterId,
    waiter_timeouts: CounterId,
    dedup_replays: CounterId,
    dedup_inflight_drops: CounterId,
    dedup_acked_drops: CounterId,
    renewals: CounterId,
    renew_misses: CounterId,
    tracer: Tracer<TraceEvent>,
}

impl Default for ServerInstruments {
    fn default() -> Self {
        let mut registry = Registry::new();
        ServerInstruments {
            requests: registry.counter("req/total"),
            decode_errors: registry.counter("req/decode_errors"),
            responses: registry.counter("resp/total"),
            parked: registry.counter("waiter/parked"),
            waiter_timeouts: registry.counter("waiter/timeouts"),
            dedup_replays: registry.counter("dedup/replays"),
            dedup_inflight_drops: registry.counter("dedup/inflight_drops"),
            dedup_acked_drops: registry.counter("dedup/acked_drops"),
            renewals: registry.counter("lease/renewals"),
            renew_misses: registry.counter("lease/renew_misses"),
            registry,
            tracer: Tracer::disabled(),
        }
    }
}

impl ServerInstruments {
    fn stats(&self) -> ServerStats {
        ServerStats {
            requests: self.registry.count(self.requests),
            responses: self.registry.count(self.responses),
            decode_errors: self.registry.count(self.decode_errors),
            parked: self.registry.count(self.parked),
            waiter_timeouts: self.registry.count(self.waiter_timeouts),
            dedup_replays: self.registry.count(self.dedup_replays),
            dedup_inflight_drops: self.registry.count(self.dedup_inflight_drops),
            dedup_acked_drops: self.registry.count(self.dedup_acked_drops),
            renewals: self.registry.count(self.renewals),
            renew_misses: self.registry.count(self.renew_misses),
        }
    }

    fn dedup(&mut self, at: SimTime, id: CounterId, decision: DedupDecision) {
        self.registry.inc(id);
        self.tracer.emit(TraceEvent::Dedup { at, decision });
    }
}

/// The tuplespace server as a simulation component.
///
/// Wire it behind a transport endpoint: the endpoint delivers [`NetDeliver`]
/// messages here and carries the [`NetSend`] replies back.
#[derive(Debug)]
pub struct SpaceServerAgent {
    endpoint: ComponentId,
    space: Space,
    /// Fixed processing cost per request (RMI + JVM + wrapper).
    service_time: SimDuration,
    /// Reply routing for every parked read/take and wire subscription.
    routes: HashMap<SubscriptionId, Route>,
    /// The space subscription behind each wire subscription id (= index).
    wire_subs: Vec<SubscriptionId>,
    /// The expiry sweep currently scheduled, if any.
    sweep_at: Option<SimTime>,
    /// Exactly-once reply cache for identity-carrying requests.
    dedup: DedupCache,
    /// Reused encode buffers: steady-state replies and event pushes reuse
    /// one allocation instead of building a fresh `String`/`Vec` each time.
    scratch: EncodeScratch,
    obs: ServerInstruments,
}

impl SpaceServerAgent {
    /// Creates a server that replies through `endpoint`, charging
    /// `service_time` per request.
    #[must_use]
    pub fn new(endpoint: ComponentId, service_time: SimDuration) -> Self {
        SpaceServerAgent {
            endpoint,
            space: Space::new(),
            service_time,
            routes: HashMap::new(),
            wire_subs: Vec::new(),
            sweep_at: None,
            dedup: DedupCache::new(),
            scratch: EncodeScratch::new(),
            obs: ServerInstruments::default(),
        }
    }

    /// The space, for post-run inspection.
    #[must_use]
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// Mutable access to the space (to pre-seed scenarios).
    pub fn space_mut(&mut self) -> &mut Space {
        &mut self.space
    }

    /// Request/response counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.obs.stats()
    }

    /// Captures the agent's own metrics registry (paths under `req/`,
    /// `resp/`, `waiter/`, `dedup/`, `lease/`). The owned [`Space`]'s
    /// registry is captured separately via
    /// [`Space::metrics`](tsbus_tuplespace::Space::metrics). No instrument
    /// is time-parameterized, so `_now` is unused; it stays so existing
    /// callers keep compiling.
    #[must_use]
    pub fn metrics(&self, _now: SimTime) -> Snapshot {
        self.obs.registry.snapshot()
    }

    /// The typed trace stream.
    #[must_use]
    pub fn trace(&self) -> &Tracer<TraceEvent> {
        &self.obs.tracer
    }

    fn reply(
        &mut self,
        ctx: &mut Context<'_>,
        to: NodeId,
        format: WireFormat,
        re: Option<RequestId>,
        response: &Response,
    ) {
        if let Some(id) = re {
            self.dedup.complete(id, response);
        }
        self.obs.registry.inc(self.obs.responses);
        let endpoint = self.endpoint;
        let payload =
            Bytes::copy_from_slice(self.scratch.correlated_response(re, response, format));
        ctx.send(endpoint, NetSend { to, payload });
    }

    /// Applies a serviced request against the space, replying in the
    /// client's own wire encoding. Identity-carrying requests pass through
    /// the duplicate cache first: re-deliveries replay the cached reply
    /// (or are dropped) instead of re-applying the operation.
    fn apply(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        format: WireFormat,
        id: Option<RequestId>,
        ack: u64,
        request: Request,
    ) {
        if let Some(request_id) = id {
            match self.dedup.admit(request_id, ack) {
                Admission::Fresh => {}
                Admission::InFlight => {
                    let id = self.obs.dedup_inflight_drops;
                    self.obs.dedup(ctx.now(), id, DedupDecision::InflightDrop);
                    return;
                }
                Admission::Replay(cached) => {
                    let id = self.obs.dedup_replays;
                    self.obs.dedup(ctx.now(), id, DedupDecision::Replay);
                    self.reply(ctx, from, format, Some(request_id), &cached);
                    return;
                }
                Admission::Acked => {
                    let id = self.obs.dedup_acked_drops;
                    self.obs.dedup(ctx.now(), id, DedupDecision::AckedDrop);
                    return;
                }
            }
        }
        let now = ctx.now();
        let lease_of = |ns: Option<u64>| {
            ns.map_or(Lease::Forever, |ns| {
                Lease::for_duration(now, SimDuration::from_nanos(ns))
            })
        };
        let route = (from, format, id);
        let response = match request {
            Request::Write { tuple, lease_ns } => {
                self.space.write(tuple, lease_of(lease_ns), now);
                self.trace_op(now, TupleOpKind::Write, true);
                Some(Response::WriteAck)
            }
            Request::Read {
                template,
                timeout_ns,
            } => self.read_or_park(ctx, route, template, WaitKind::Read, timeout_ns),
            Request::Take {
                template,
                timeout_ns,
            } => self.read_or_park(ctx, route, template, WaitKind::Take, timeout_ns),
            Request::ReadIfExists { template } => {
                let tuple = self.space.read(&template, now);
                self.trace_op(now, TupleOpKind::Read, tuple.is_some());
                Some(Response::Entry { tuple })
            }
            Request::TakeIfExists { template } => {
                let tuple = self.space.take(&template, now);
                self.trace_op(now, TupleOpKind::Take, tuple.is_some());
                Some(Response::Entry { tuple })
            }
            Request::Count { template } => Some(Response::Count {
                count: self.space.count(&template, now) as u64,
            }),
            Request::Renew { template, lease_ns } => {
                let renewed = self.space.renew(&template, lease_of(lease_ns), now) as u64;
                self.obs.registry.add(self.obs.renewals, renewed);
                if renewed == 0 {
                    self.obs.registry.inc(self.obs.renew_misses);
                }
                self.obs.tracer.emit(TraceEvent::Lease {
                    at: now,
                    renewed,
                    missed: u64::from(renewed == 0),
                });
                Some(Response::Count { count: renewed })
            }
            Request::Subscribe { template, kinds } => {
                let sub = self.space.subscribe(template, kinds);
                let wire_id = self.wire_subs.len() as u64;
                self.wire_subs.push(sub);
                let reply = Reply::Events { wire_id };
                let route = Route {
                    to: from,
                    format,
                    reply,
                };
                self.routes.insert(sub, route);
                Some(Response::SubscriptionAck { id: wire_id })
            }
            Request::Unsubscribe { id: wire_id } => {
                let sub = usize::try_from(wire_id)
                    .ok()
                    .and_then(|i| self.wire_subs.get(i).copied())
                    .filter(|sub| self.routes.remove(sub).is_some());
                Some(match sub {
                    Some(sub) => {
                        self.space.unsubscribe(sub);
                        Response::WriteAck
                    }
                    None => Response::Error {
                        message: format!("unknown subscription {wire_id}"),
                    },
                })
            }
        };
        if let Some(response) = response {
            self.reply(ctx, from, format, id, &response);
        }
        self.deliver(ctx);
        self.arm_expiry_sweep(ctx);
    }

    fn trace_op(&mut self, at: SimTime, op: TupleOpKind, hit: bool) {
        self.obs.tracer.emit(TraceEvent::TupleOp { at, op, hit });
    }

    /// Hands on what the space produced: first the reply to each parked
    /// read or take a write completed, in wake order, then each
    /// notification as an `<event>` pushed to its wire subscriber.
    fn deliver(&mut self, ctx: &mut Context<'_>) {
        for (wait, tuple) in self.space.drain_woken() {
            let Some(Route {
                to,
                format,
                reply: Reply::Parked { request_id, timer },
            }) = self.routes.remove(&wait)
            else {
                continue;
            };
            if let Some(timer) = timer {
                ctx.cancel(timer);
            }
            let response = Response::Entry { tuple: Some(tuple) };
            self.reply(ctx, to, format, request_id, &response);
        }
        for notification in self.space.drain_notifications() {
            let Some(&Route {
                to,
                format,
                reply: Reply::Events { wire_id },
            }) = self.routes.get(&notification.subscription)
            else {
                continue; // a local (non-wire) subscription, if any
            };
            let event = WireEvent {
                subscription: wire_id,
                kind: notification.kind,
                tuple: notification.tuple,
            };
            let endpoint = self.endpoint;
            let payload = Bytes::copy_from_slice(self.scratch.event(&event, format));
            ctx.send(endpoint, NetSend { to, payload });
        }
    }

    /// Keeps an expiry sweep scheduled at the earliest lease deadline, so
    /// `Expired` notifications fire on time even on an idle server.
    fn arm_expiry_sweep(&mut self, ctx: &mut Context<'_>) {
        let subscribed = self
            .routes
            .values()
            .any(|route| matches!(route.reply, Reply::Events { .. }));
        if !subscribed {
            return; // nobody to tell; lazy expiry in ops suffices
        }
        let Some(deadline) = self.space.next_deadline() else {
            return;
        };
        let due = deadline.max(ctx.now());
        if self.sweep_at.is_some_and(|at| at <= due) {
            return; // an earlier (or equal) sweep is already scheduled
        }
        self.sweep_at = Some(due);
        let target = ctx.self_id();
        ctx.schedule_at(due, target, ExpirySweep);
    }

    /// Answers a blocking read or take from the space, or parks it there
    /// (with its timeout timer, if any) when nothing matches yet.
    fn read_or_park(
        &mut self,
        ctx: &mut Context<'_>,
        (to, format, request_id): (NodeId, WireFormat, Option<RequestId>),
        template: Template,
        kind: WaitKind,
        timeout_ns: Option<u64>,
    ) -> Option<Response> {
        let now = ctx.now();
        let (found, op) = match kind {
            WaitKind::Read => (self.space.read(&template, now), TupleOpKind::Read),
            WaitKind::Take => (self.space.take(&template, now), TupleOpKind::Take),
        };
        if found.is_some() {
            self.trace_op(now, op, true);
            return Some(Response::Entry { tuple: found });
        }
        self.obs.registry.inc(self.obs.parked);
        let wait = self.space.park(template, kind);
        let timer = timeout_ns
            .map(|ns| ctx.schedule_self_in(SimDuration::from_nanos(ns), WaitTimeout(wait)));
        let reply = Reply::Parked { request_id, timer };
        self.routes.insert(wait, Route { to, format, reply });
        None
    }
}

impl Component for SpaceServerAgent {
    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        let msg = match msg.downcast::<NetDeliver>() {
            Ok(deliver) => {
                let NetDeliver { from, payload } = *deliver;
                match request_envelope_from_wire(&payload) {
                    Ok((envelope, format)) => {
                        self.obs.registry.inc(self.obs.requests);
                        ctx.schedule_self_in(
                            self.service_time,
                            Serviced {
                                from,
                                format,
                                id: envelope.id,
                                ack: envelope.ack,
                                request: envelope.request,
                            },
                        );
                    }
                    Err(e) => {
                        self.obs.registry.inc(self.obs.decode_errors);
                        let response = Response::Error {
                            message: format!("bad request: {e}"),
                        };
                        self.reply(ctx, from, WireFormat::Xml, None, &response);
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Serviced>() {
            Ok(serviced) => {
                let Serviced {
                    from,
                    format,
                    id,
                    ack,
                    request,
                } = *serviced;
                self.apply(ctx, from, format, id, ack, request);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<WaitTimeout>() {
            Ok(timeout) => {
                let WaitTimeout(wait) = *timeout;
                if let Some(Route {
                    to,
                    format,
                    reply: Reply::Parked { request_id, .. },
                }) = self.routes.remove(&wait)
                {
                    self.space.unsubscribe(wait);
                    self.obs.registry.inc(self.obs.waiter_timeouts);
                    let response = Response::Entry { tuple: None };
                    self.reply(ctx, to, format, request_id, &response);
                }
                return;
            }
            Err(m) => m,
        };
        if msg.is::<ExpirySweep>() {
            self.sweep_at = None;
            let now = ctx.now();
            self.space.expire(now);
            self.deliver(ctx);
            self.arm_expiry_sweep(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsbus_des::{SimTime, Simulator};
    use tsbus_tuplespace::{template, tuple, ValueType};
    use tsbus_xmlwire::{server_message_from_wire, RequestEnvelope, ServerMessage};

    /// A request's XML wire form.
    fn request_to_xml(request: &Request) -> Vec<u8> {
        EncodeScratch::new()
            .request(request, WireFormat::Xml)
            .to_vec()
    }

    /// A request envelope's XML wire form.
    fn request_envelope_to_xml(envelope: &RequestEnvelope) -> Vec<u8> {
        EncodeScratch::new()
            .request_envelope(envelope, WireFormat::Xml)
            .to_vec()
    }

    /// Captures NetSend replies the server pushes toward its endpoint.
    #[derive(Default)]
    struct FakeEndpoint {
        replies: Vec<(SimTime, NodeId, Response)>,
    }

    impl Component for FakeEndpoint {
        fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
            if let Ok(send) = msg.downcast::<NetSend>() {
                let response = match server_message_from_wire(&send.payload) {
                    Ok(ServerMessage::Response { response, .. }) => response,
                    other => panic!("server output must decode as a response: {other:?}"),
                };
                self.replies.push((ctx.now(), send.to, response));
            }
        }
    }

    fn node(id: u8) -> NodeId {
        NodeId::new(id).expect("valid")
    }

    fn deliver(ctx_target: ComponentId, sim: &mut Simulator, from: u8, request: &Request) {
        let payload = Bytes::from(request_to_xml(request));
        sim.with_context(|ctx| {
            ctx.send(
                ctx_target,
                NetDeliver {
                    from: node(from),
                    payload,
                },
            );
        });
    }

    fn setup(service: SimDuration) -> (Simulator, ComponentId, ComponentId) {
        let mut sim = Simulator::new();
        let endpoint = sim.add_component("fake_ep", FakeEndpoint::default());
        let server = sim.add_component("server", SpaceServerAgent::new(endpoint, service));
        (sim, endpoint, server)
    }

    #[test]
    fn write_then_take_roundtrip() {
        let (mut sim, endpoint, server) = setup(SimDuration::ZERO);
        deliver(
            server,
            &mut sim,
            1,
            &Request::Write {
                tuple: tuple!["e", 9],
                lease_ns: None,
            },
        );
        deliver(
            server,
            &mut sim,
            1,
            &Request::TakeIfExists {
                template: template!["e", ValueType::Int],
            },
        );
        sim.run(100);
        let ep: &FakeEndpoint = sim.component(endpoint).expect("registered");
        assert_eq!(ep.replies.len(), 2);
        assert_eq!(ep.replies[0].2, Response::WriteAck);
        assert_eq!(
            ep.replies[1].2,
            Response::Entry {
                tuple: Some(tuple!["e", 9])
            }
        );
    }

    #[test]
    fn service_time_delays_every_reply() {
        let (mut sim, endpoint, server) = setup(SimDuration::from_millis(5));
        deliver(
            server,
            &mut sim,
            1,
            &Request::Count {
                template: Template::any(1),
            },
        );
        sim.run(100);
        let ep: &FakeEndpoint = sim.component(endpoint).expect("registered");
        assert_eq!(ep.replies[0].0, SimTime::from_millis(5));
        assert_eq!(ep.replies[0].2, Response::Count { count: 0 });
    }

    #[test]
    fn blocking_take_waits_for_a_write() {
        let (mut sim, endpoint, server) = setup(SimDuration::ZERO);
        deliver(
            server,
            &mut sim,
            2,
            &Request::Take {
                template: template!["late", ValueType::Int],
                timeout_ns: None,
            },
        );
        sim.run(100);
        assert!(
            sim.component::<FakeEndpoint>(endpoint)
                .expect("registered")
                .replies
                .is_empty(),
            "no reply before the write arrives"
        );
        sim.with_context(|ctx| {
            ctx.schedule_in(
                SimDuration::from_secs(3),
                server,
                NetDeliver {
                    from: node(1),
                    payload: Bytes::from(request_to_xml(&Request::Write {
                        tuple: tuple!["late", 1],
                        lease_ns: None,
                    })),
                },
            );
        });
        sim.run(100);
        let ep: &FakeEndpoint = sim.component(endpoint).expect("registered");
        assert_eq!(ep.replies.len(), 2, "ack + woken waiter");
        let woken = ep
            .replies
            .iter()
            .find(|(_, to, _)| *to == node(2))
            .expect("waiter reply");
        assert_eq!(woken.0, SimTime::from_secs(3));
        assert_eq!(
            woken.2,
            Response::Entry {
                tuple: Some(tuple!["late", 1])
            }
        );
    }

    #[test]
    fn blocking_take_times_out_empty() {
        let (mut sim, endpoint, server) = setup(SimDuration::ZERO);
        deliver(
            server,
            &mut sim,
            2,
            &Request::Take {
                template: template!["never"],
                timeout_ns: Some(1_000_000_000),
            },
        );
        sim.run(100);
        let ep: &FakeEndpoint = sim.component(endpoint).expect("registered");
        assert_eq!(ep.replies.len(), 1);
        assert_eq!(ep.replies[0].0, SimTime::from_secs(1));
        assert_eq!(ep.replies[0].2, Response::Entry { tuple: None });
        let srv: &SpaceServerAgent = sim.component(server).expect("registered");
        assert_eq!(srv.stats().waiter_timeouts, 1);
    }

    #[test]
    fn expired_lease_defeats_take_the_table_4_mechanism() {
        let (mut sim, endpoint, server) = setup(SimDuration::ZERO);
        deliver(
            server,
            &mut sim,
            1,
            &Request::Write {
                tuple: tuple!["entry"],
                lease_ns: Some(160_000_000_000), // 160 s
            },
        );
        // The take arrives 161 s later: out of time.
        sim.with_context(|ctx| {
            ctx.schedule_in(
                SimDuration::from_secs(161),
                server,
                NetDeliver {
                    from: node(1),
                    payload: Bytes::from(request_to_xml(&Request::TakeIfExists {
                        template: template!["entry"],
                    })),
                },
            );
        });
        sim.run(100);
        let ep: &FakeEndpoint = sim.component(endpoint).expect("registered");
        assert_eq!(ep.replies[1].2, Response::Entry { tuple: None });
    }

    #[test]
    fn malformed_requests_get_an_error_response() {
        let (mut sim, endpoint, server) = setup(SimDuration::ZERO);
        sim.with_context(|ctx| {
            ctx.send(
                server,
                NetDeliver {
                    from: node(1),
                    payload: Bytes::from_static(b"<garbage"),
                },
            );
        });
        sim.run(100);
        let ep: &FakeEndpoint = sim.component(endpoint).expect("registered");
        assert!(matches!(ep.replies[0].2, Response::Error { .. }));
        let srv: &SpaceServerAgent = sim.component(server).expect("registered");
        assert_eq!(srv.stats().decode_errors, 1);
    }

    #[test]
    fn duplicate_identified_requests_replay_instead_of_reapplying() {
        use tsbus_xmlwire::RequestId;
        let (mut sim, endpoint, server) = setup(SimDuration::ZERO);
        let write = RequestEnvelope::identified(
            RequestId { client: 1, seq: 1 },
            0,
            Request::Write {
                tuple: tuple!["once"],
                lease_ns: None,
            },
        );
        // The same envelope arrives twice (an end-to-end re-issue after a
        // lost reply).
        for _ in 0..2 {
            sim.with_context(|ctx| {
                ctx.send(
                    server,
                    NetDeliver {
                        from: node(1),
                        payload: Bytes::from(request_envelope_to_xml(&write)),
                    },
                );
            });
        }
        sim.run(100);
        let srv: &SpaceServerAgent = sim.component(server).expect("registered");
        assert_eq!(srv.space().stats().writes, 1, "applied exactly once");
        assert_eq!(srv.stats().dedup_replays, 1);
        let ep: &FakeEndpoint = sim.component(endpoint).expect("registered");
        assert_eq!(ep.replies.len(), 2, "both deliveries are answered");
        assert!(ep
            .replies
            .iter()
            .all(|(_, _, r)| matches!(r, Response::WriteAck)));
    }

    #[test]
    fn acked_requests_are_evicted_and_dropped() {
        use tsbus_xmlwire::RequestId;
        let (mut sim, endpoint, server) = setup(SimDuration::ZERO);
        let send = |sim: &mut Simulator, seq: u64, ack: u64, tuple_n: i64| {
            let env = RequestEnvelope::identified(
                RequestId { client: 1, seq },
                ack,
                Request::Write {
                    tuple: tuple!["w", tuple_n],
                    lease_ns: None,
                },
            );
            sim.with_context(|ctx| {
                ctx.send(
                    server,
                    NetDeliver {
                        from: node(1),
                        payload: Bytes::from(request_envelope_to_xml(&env)),
                    },
                );
            });
        };
        send(&mut sim, 1, 0, 1);
        sim.run(100);
        // seq 2 acks seq 1; a late duplicate of seq 1 is then dropped.
        send(&mut sim, 2, 1, 2);
        sim.run(200);
        send(&mut sim, 1, 1, 1);
        sim.run(300);
        let srv: &SpaceServerAgent = sim.component(server).expect("registered");
        assert_eq!(srv.space().stats().writes, 2);
        assert_eq!(srv.stats().dedup_acked_drops, 1);
        let ep: &FakeEndpoint = sim.component(endpoint).expect("registered");
        assert_eq!(ep.replies.len(), 2, "the acked duplicate gets no reply");
    }

    #[test]
    fn renew_request_extends_leases_over_the_wire() {
        let (mut sim, endpoint, server) = setup(SimDuration::ZERO);
        deliver(
            server,
            &mut sim,
            1,
            &Request::Write {
                tuple: tuple!["svc"],
                lease_ns: Some(10_000_000_000), // 10 s
            },
        );
        // At t=5 s the client renews for another 10 s; the take at t=12 s
        // (past the original deadline) still finds the entry.
        sim.with_context(|ctx| {
            ctx.schedule_in(
                SimDuration::from_secs(5),
                server,
                NetDeliver {
                    from: node(1),
                    payload: Bytes::from(request_to_xml(&Request::Renew {
                        template: template!["svc"],
                        lease_ns: Some(10_000_000_000),
                    })),
                },
            );
            ctx.schedule_in(
                SimDuration::from_secs(12),
                server,
                NetDeliver {
                    from: node(1),
                    payload: Bytes::from(request_to_xml(&Request::TakeIfExists {
                        template: template!["svc"],
                    })),
                },
            );
        });
        sim.run(100);
        let ep: &FakeEndpoint = sim.component(endpoint).expect("registered");
        assert_eq!(ep.replies[1].2, Response::Count { count: 1 });
        assert_eq!(
            ep.replies[2].2,
            Response::Entry {
                tuple: Some(tuple!["svc"])
            }
        );
        let srv: &SpaceServerAgent = sim.component(server).expect("registered");
        assert_eq!(srv.stats().renewals, 1);
        assert_eq!(srv.stats().renew_misses, 0);
    }

    #[test]
    fn registry_snapshot_mirrors_stats_and_tracer_sees_dedup() {
        use tsbus_obs::{DedupDecision, TraceEvent, Tracer};
        use tsbus_xmlwire::RequestId;
        let (mut sim, _endpoint, server) = setup(SimDuration::ZERO);
        sim.component_mut::<SpaceServerAgent>(server)
            .expect("registered")
            .obs
            .tracer = Tracer::unbounded();
        let write = RequestEnvelope::identified(
            RequestId { client: 1, seq: 1 },
            0,
            Request::Write {
                tuple: tuple!["once"],
                lease_ns: None,
            },
        );
        for _ in 0..2 {
            sim.with_context(|ctx| {
                ctx.send(
                    server,
                    NetDeliver {
                        from: node(1),
                        payload: Bytes::from(request_envelope_to_xml(&write)),
                    },
                );
            });
        }
        sim.run(100);
        let srv: &SpaceServerAgent = sim.component(server).expect("registered");
        let stats = srv.stats();
        let snap = srv.metrics(sim.now());
        assert_eq!(snap.count("req/total"), stats.requests);
        assert_eq!(snap.count("resp/total"), stats.responses);
        assert_eq!(snap.count("dedup/replays"), stats.dedup_replays);
        assert_eq!(stats.dedup_replays, 1);
        assert!(srv.trace().events().any(|e| matches!(
            e,
            TraceEvent::Dedup {
                decision: DedupDecision::Replay,
                ..
            }
        )));
        assert!(srv
            .trace()
            .events()
            .any(|e| matches!(e, TraceEvent::TupleOp { .. })));
        assert_eq!(srv.trace().dropped(), 0);
    }

    #[test]
    fn read_waiters_do_not_consume_take_waiters_do() {
        let (mut sim, endpoint, server) = setup(SimDuration::ZERO);
        deliver(
            server,
            &mut sim,
            2,
            &Request::Read {
                template: template!["x"],
                timeout_ns: None,
            },
        );
        deliver(
            server,
            &mut sim,
            3,
            &Request::Take {
                template: template!["x"],
                timeout_ns: None,
            },
        );
        deliver(
            server,
            &mut sim,
            1,
            &Request::Write {
                tuple: tuple!["x"],
                lease_ns: None,
            },
        );
        sim.run(100);
        let ep: &FakeEndpoint = sim.component(endpoint).expect("registered");
        // Ack + read waiter + take waiter all answered; space now empty.
        assert_eq!(ep.replies.len(), 3);
        let srv: &SpaceServerAgent = sim.component(server).expect("registered");
        assert_eq!(srv.space().stats().takes, 1);
        assert_eq!(srv.space().stats().reads, 1);
    }
}
