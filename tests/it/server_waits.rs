//! Differential test of the space server's waits: blocking reads and takes
//! (with and without timeouts) and notify subscriptions pushed over the
//! wire, mixed with leased writes, `*IfExists` probes, renewals and lease
//! expiries.
//!
//! The oracle is a compact reference server built the direct way: parked
//! waiters sit in an arrival-order queue, and after every write each one
//! re-runs a full `read`/`take` against the whole space, restarting the
//! scan after every hit; subscription events come from matching every
//! audit record against the subscription list. It stores its tuples in a
//! scan-only [`Space`] and never parks anything inside it. Both servers
//! get the same request schedule; their reply bytes, pushed events, send
//! times and destinations, audit trails and operation counters must agree
//! exactly.

use std::collections::VecDeque;

use bytes::Bytes;
use proptest::prelude::*;
use tsbus_core::{NetDeliver, NetSend, SpaceServerAgent};
use tsbus_des::{
    Component, ComponentId, Context, EventId, Message, MessageExt, SimDuration, SimTime, Simulator,
};
use tsbus_tpwire::NodeId;
use tsbus_tuplespace::{template, tuple, EventKind, Lease, Space, Template, Tuple, ValueType};
use tsbus_xmlwire::{
    request_envelope_from_wire, EncodeScratch, Request, RequestEnvelope, RequestId, Response,
    WireEvent, WireFormat,
};

// ---------------------------------------------------------------------
// The reference server
// ---------------------------------------------------------------------

#[derive(Debug)]
struct RefServiced {
    from: NodeId,
    format: WireFormat,
    id: Option<RequestId>,
    request: Request,
}

#[derive(Debug)]
struct RefTimeout(u64);

#[derive(Debug)]
struct RefSweep;

#[derive(Debug)]
struct RefWaiter {
    id: u64,
    from: NodeId,
    format: WireFormat,
    request_id: Option<RequestId>,
    template: Template,
    take: bool,
    timer: Option<EventId>,
}

#[derive(Debug)]
struct RefSub {
    wire_id: u64,
    to: NodeId,
    format: WireFormat,
    template: Template,
    kinds: Vec<EventKind>,
}

/// The reference server: a waiter queue re-scanned after every write and
/// a subscription list matched against the audit trail.
#[derive(Debug)]
struct RefServer {
    endpoint: ComponentId,
    service_time: SimDuration,
    space: Space,
    waiters: VecDeque<RefWaiter>,
    next_waiter: u64,
    subs: Vec<RefSub>,
    next_wire_sub: u64,
    /// Audit records already matched against `subs`.
    audited: usize,
    sweep_at: Option<SimTime>,
    parked: u64,
    timeouts: u64,
    scratch: EncodeScratch,
}

impl RefServer {
    fn new(endpoint: ComponentId, service_time: SimDuration) -> Self {
        let mut space = Space::unindexed();
        space.enable_audit();
        RefServer {
            endpoint,
            service_time,
            space,
            waiters: VecDeque::new(),
            next_waiter: 0,
            subs: Vec::new(),
            next_wire_sub: 0,
            audited: 0,
            sweep_at: None,
            parked: 0,
            timeouts: 0,
            scratch: EncodeScratch::new(),
        }
    }

    fn send(&mut self, ctx: &mut Context<'_>, to: NodeId, payload: &[u8]) {
        let payload = Bytes::copy_from_slice(payload);
        ctx.send(self.endpoint, NetSend { to, payload });
    }

    fn reply(
        &mut self,
        ctx: &mut Context<'_>,
        to: NodeId,
        format: WireFormat,
        re: Option<RequestId>,
        response: &Response,
    ) {
        let payload = self
            .scratch
            .correlated_response(re, response, format)
            .to_vec();
        self.send(ctx, to, &payload);
    }

    fn apply(&mut self, ctx: &mut Context<'_>, serviced: RefServiced) {
        let RefServiced {
            from,
            format,
            id,
            request,
        } = serviced;
        let now = ctx.now();
        let lease_of = |ns: Option<u64>| match ns {
            None => Lease::Forever,
            Some(ns) => Lease::for_duration(now, SimDuration::from_nanos(ns)),
        };
        let response = match request {
            Request::Write { tuple, lease_ns } => {
                self.space.write(tuple, lease_of(lease_ns), now);
                self.reply(ctx, from, format, id, &Response::WriteAck);
                self.wake_waiters(ctx);
                None
            }
            Request::Read {
                template,
                timeout_ns,
            } => self.read_or_park(ctx, from, format, id, template, false, timeout_ns),
            Request::Take {
                template,
                timeout_ns,
            } => self.read_or_park(ctx, from, format, id, template, true, timeout_ns),
            Request::ReadIfExists { template } => Some(Response::Entry {
                tuple: self.space.read(&template, now),
            }),
            Request::TakeIfExists { template } => Some(Response::Entry {
                tuple: self.space.take(&template, now),
            }),
            Request::Count { template } => Some(Response::Count {
                count: self.space.count(&template, now) as u64,
            }),
            Request::Renew { template, lease_ns } => Some(Response::Count {
                count: self.space.renew(&template, lease_of(lease_ns), now) as u64,
            }),
            Request::Subscribe { template, kinds } => {
                let wire_id = self.next_wire_sub;
                self.next_wire_sub += 1;
                self.subs.push(RefSub {
                    wire_id,
                    to: from,
                    format,
                    template,
                    kinds,
                });
                Some(Response::SubscriptionAck { id: wire_id })
            }
            Request::Unsubscribe { id: wire_id } => {
                match self.subs.iter().position(|s| s.wire_id == wire_id) {
                    Some(pos) => {
                        self.subs.remove(pos);
                        Some(Response::WriteAck)
                    }
                    None => Some(Response::Error {
                        message: format!("unknown subscription {wire_id}"),
                    }),
                }
            }
        };
        if let Some(response) = response {
            self.reply(ctx, from, format, id, &response);
        }
        self.pump(ctx);
        self.arm_sweep(ctx);
    }

    /// Answers a blocking read or take at once, or parks it as a waiter.
    #[allow(clippy::too_many_arguments)]
    fn read_or_park(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        format: WireFormat,
        request_id: Option<RequestId>,
        template: Template,
        take: bool,
        timeout_ns: Option<u64>,
    ) -> Option<Response> {
        let now = ctx.now();
        let found = if take {
            self.space.take(&template, now)
        } else {
            self.space.read(&template, now)
        };
        if found.is_some() {
            return Some(Response::Entry { tuple: found });
        }
        self.parked += 1;
        let id = self.next_waiter;
        self.next_waiter += 1;
        let timer =
            timeout_ns.map(|ns| ctx.schedule_self_in(SimDuration::from_nanos(ns), RefTimeout(id)));
        self.waiters.push_back(RefWaiter {
            id,
            from,
            format,
            request_id,
            template,
            take,
            timer,
        });
        None
    }

    /// Retries parked waiters in arrival order until none can make
    /// progress.
    fn wake_waiters(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        loop {
            let mut satisfied = None;
            for (i, waiter) in self.waiters.iter().enumerate() {
                let found = if waiter.take {
                    self.space.take(&waiter.template, now)
                } else {
                    self.space.read(&waiter.template, now)
                };
                if let Some(tuple) = found {
                    satisfied = Some((i, tuple));
                    break;
                }
            }
            let Some((i, tuple)) = satisfied else {
                return;
            };
            let waiter = self.waiters.remove(i).expect("index from enumerate");
            if let Some(timer) = waiter.timer {
                ctx.cancel(timer);
            }
            let response = Response::Entry { tuple: Some(tuple) };
            self.reply(
                ctx,
                waiter.from,
                waiter.format,
                waiter.request_id,
                &response,
            );
        }
    }

    /// Pushes an event to every subscriber whose template and kinds match
    /// each audit record written since the last pump.
    fn pump(&mut self, ctx: &mut Context<'_>) {
        let records: Vec<_> = self.space.audit().skip(self.audited).cloned().collect();
        self.audited += records.len();
        for record in records {
            let mut events = Vec::new();
            for sub in &self.subs {
                if sub.kinds.contains(&record.kind) && sub.template.matches(&record.tuple) {
                    let event = WireEvent {
                        subscription: sub.wire_id,
                        kind: record.kind,
                        tuple: record.tuple.clone(),
                    };
                    events.push((sub.to, self.scratch.event(&event, sub.format).to_vec()));
                }
            }
            for (to, payload) in events {
                self.send(ctx, to, &payload);
            }
        }
    }

    fn arm_sweep(&mut self, ctx: &mut Context<'_>) {
        if self.subs.is_empty() {
            return;
        }
        let Some(deadline) = self.space.next_deadline() else {
            return;
        };
        let due = deadline.max(ctx.now());
        if self.sweep_at.is_some_and(|at| at <= due) {
            return;
        }
        self.sweep_at = Some(due);
        let target = ctx.self_id();
        ctx.schedule_at(due, target, RefSweep);
    }
}

impl Component for RefServer {
    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        let msg = match msg.downcast::<NetDeliver>() {
            Ok(deliver) => {
                match request_envelope_from_wire(&deliver.payload) {
                    Ok((envelope, format)) => {
                        let serviced = RefServiced {
                            from: deliver.from,
                            format,
                            id: envelope.id,
                            request: envelope.request,
                        };
                        ctx.schedule_self_in(self.service_time, serviced);
                    }
                    Err(e) => {
                        let response = Response::Error {
                            message: format!("bad request: {e}"),
                        };
                        self.reply(ctx, deliver.from, WireFormat::Xml, None, &response);
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RefServiced>() {
            Ok(serviced) => return self.apply(ctx, *serviced),
            Err(m) => m,
        };
        let msg = match msg.downcast::<RefTimeout>() {
            Ok(timeout) => {
                if let Some(pos) = self.waiters.iter().position(|w| w.id == timeout.0) {
                    let waiter = self.waiters.remove(pos).expect("position just found");
                    self.timeouts += 1;
                    let response = Response::Entry { tuple: None };
                    self.reply(
                        ctx,
                        waiter.from,
                        waiter.format,
                        waiter.request_id,
                        &response,
                    );
                }
                return;
            }
            Err(m) => m,
        };
        if msg.is::<RefSweep>() {
            self.sweep_at = None;
            self.space.expire(ctx.now());
            self.pump(ctx);
            self.arm_sweep(ctx);
        }
    }
}

// ---------------------------------------------------------------------
// The generated schedule
// ---------------------------------------------------------------------

/// What a generated write's lease is.
#[derive(Debug, Clone, Copy)]
enum LeaseKind {
    /// Dead on arrival: the deadline is the write instant itself.
    Zero,
    /// Alive for 1–6 ms, so its deadline often lands on another request.
    ShortMs(u8),
    Forever,
}

/// One generated request.
#[derive(Debug, Clone)]
enum Op {
    Write {
        key: u8,
        lease: LeaseKind,
    },
    Read {
        probe: u8,
        timeout_ms: Option<u8>,
    },
    Take {
        probe: u8,
        timeout_ms: Option<u8>,
    },
    ReadIfExists(u8),
    TakeIfExists(u8),
    Renew {
        probe: u8,
        lease: LeaseKind,
    },
    /// Subscribes to the kinds in the low three bits (none, some or all).
    Subscribe {
        probe: u8,
        kinds: u8,
    },
    /// Unsubscribes a wire id: live, already gone, or never issued.
    Unsubscribe(u8),
}

/// One request in the schedule: sent `gap_ms` after the previous one.
#[derive(Debug, Clone)]
struct Step {
    gap_ms: u8,
    node: u8,
    binary: bool,
    identified: bool,
    op: Op,
}

/// Written tuples: `("k" | "j", 0..3)`.
fn written(key: u8) -> Tuple {
    let tag = if key.is_multiple_of(2) { "k" } else { "j" };
    tuple![tag, i64::from(key / 2 % 3)]
}

/// Templates: exact keys, typed keys, a wildcard and one no tuple matches.
fn probe(pick: u8) -> Template {
    match pick % 7 {
        0 => template!["k", 0],
        1 => template!["k", 1],
        2 => template!["j", 2],
        3 => template!["k", ValueType::Int],
        4 => template!["j", ValueType::Int],
        5 => Template::any(2),
        _ => template!["k", ValueType::Str],
    }
}

fn lease_ns(lease: LeaseKind) -> Option<u64> {
    match lease {
        LeaseKind::Zero => Some(0),
        LeaseKind::ShortMs(ms) => Some(u64::from(ms) * 1_000_000),
        LeaseKind::Forever => None,
    }
}

fn request(op: &Op) -> Request {
    let timeout_ns = |ms: Option<u8>| ms.map(|ms| u64::from(ms) * 1_000_000);
    match *op {
        Op::Write { key, lease } => Request::Write {
            tuple: written(key),
            lease_ns: lease_ns(lease),
        },
        Op::Read {
            probe: p,
            timeout_ms,
        } => Request::Read {
            template: probe(p),
            timeout_ns: timeout_ns(timeout_ms),
        },
        Op::Take {
            probe: p,
            timeout_ms,
        } => Request::Take {
            template: probe(p),
            timeout_ns: timeout_ns(timeout_ms),
        },
        Op::ReadIfExists(p) => Request::ReadIfExists { template: probe(p) },
        Op::TakeIfExists(p) => Request::TakeIfExists { template: probe(p) },
        Op::Renew { probe: p, lease } => Request::Renew {
            template: probe(p),
            lease_ns: lease_ns(lease),
        },
        Op::Subscribe { probe: p, kinds } => Request::Subscribe {
            template: probe(p),
            kinds: [EventKind::Written, EventKind::Taken, EventKind::Expired]
                .into_iter()
                .enumerate()
                .filter(|&(bit, _)| kinds & (1 << bit) != 0)
                .map(|(_, kind)| kind)
                .collect(),
        },
        Op::Unsubscribe(id) => Request::Unsubscribe { id: u64::from(id) },
    }
}

fn lease_strategy() -> impl Strategy<Value = LeaseKind> {
    prop_oneof![
        Just(LeaseKind::Zero),
        (1u8..7).prop_map(LeaseKind::ShortMs),
        (1u8..7).prop_map(LeaseKind::ShortMs),
        Just(LeaseKind::Forever),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let timeout = || proptest::option::of(1u8..9);
    // The vendored proptest has no weighted prop_oneof; repeating the
    // write and blocking arms keeps waiters parked and woken often.
    prop_oneof![
        (any::<u8>(), lease_strategy()).prop_map(|(key, lease)| Op::Write { key, lease }),
        (any::<u8>(), lease_strategy()).prop_map(|(key, lease)| Op::Write { key, lease }),
        (any::<u8>(), lease_strategy()).prop_map(|(key, lease)| Op::Write { key, lease }),
        (any::<u8>(), timeout()).prop_map(|(probe, timeout_ms)| Op::Read { probe, timeout_ms }),
        (any::<u8>(), timeout()).prop_map(|(probe, timeout_ms)| Op::Take { probe, timeout_ms }),
        (any::<u8>(), timeout()).prop_map(|(probe, timeout_ms)| Op::Take { probe, timeout_ms }),
        any::<u8>().prop_map(Op::ReadIfExists),
        any::<u8>().prop_map(Op::TakeIfExists),
        (any::<u8>(), lease_strategy()).prop_map(|(probe, lease)| Op::Renew { probe, lease }),
        (any::<u8>(), 0u8..8).prop_map(|(probe, kinds)| Op::Subscribe { probe, kinds }),
        (0u8..4).prop_map(Op::Unsubscribe),
    ]
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0u8..4, 1u8..4, any::<bool>(), any::<bool>(), op_strategy()).prop_map(
        |(gap_ms, node, binary, identified, op)| Step {
            gap_ms,
            node,
            binary,
            identified,
            op,
        },
    )
}

// ---------------------------------------------------------------------
// Driving both servers
// ---------------------------------------------------------------------

/// Records every message a server hands its endpoint, with its send time.
#[derive(Debug, Default)]
struct Capture {
    sent: Vec<(SimTime, u8, Vec<u8>)>,
}

impl Component for Capture {
    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        if let Ok(send) = msg.downcast::<NetSend>() {
            self.sent
                .push((ctx.now(), send.to.raw(), send.payload.to_vec()));
        }
    }
}

/// Everything one run exposes, rendered for comparison.
#[derive(Debug, PartialEq)]
struct Observed {
    sent: Vec<(SimTime, u8, Vec<u8>)>,
    audit: Vec<String>,
    /// writes, reads, takes, expirations of the space; waiters parked and
    /// timed out.
    counters: [u64; 6],
    live: Vec<Tuple>,
}

/// Kernel events after which a run counts as stalled and fails (a clean
/// run takes well under a tenth of this).
const EVENT_CAP: u64 = 10_000;

/// Sends the schedule to a fresh server built by `build` and runs it dry,
/// failing at the event cap instead of hanging if the run never dries up.
fn run(
    steps: &[Step],
    build: impl FnOnce(&mut Simulator, ComponentId) -> ComponentId,
) -> (Simulator, ComponentId, ComponentId) {
    let mut sim = Simulator::new();
    let endpoint = sim.add_component("capture", Capture::default());
    let server = build(&mut sim, endpoint);
    let mut scratch = EncodeScratch::new();
    let mut at = SimDuration::ZERO;
    for (seq, step) in (1u64..).zip(steps) {
        at += SimDuration::from_millis(u64::from(step.gap_ms));
        let request = request(&step.op);
        let envelope = if step.identified {
            RequestEnvelope::identified(
                RequestId {
                    client: u64::from(step.node),
                    seq,
                },
                0,
                request,
            )
        } else {
            RequestEnvelope::bare(request)
        };
        let format = if step.binary {
            WireFormat::Binary
        } else {
            WireFormat::Xml
        };
        let payload = Bytes::copy_from_slice(scratch.request_envelope(&envelope, format));
        let from = NodeId::new(step.node).expect("valid node id");
        sim.with_context(|ctx| ctx.schedule_in(at, server, NetDeliver { from, payload }));
    }
    let dispatched = sim.run(EVENT_CAP);
    assert!(
        dispatched < EVENT_CAP,
        "stalled: {EVENT_CAP} events by {} ns",
        sim.now().as_nanos()
    );
    (sim, endpoint, server)
}

fn observe(sim: &Simulator, endpoint: ComponentId, space: &Space, waits: [u64; 2]) -> Observed {
    let stats = space.stats();
    Observed {
        sent: sim
            .component::<Capture>(endpoint)
            .expect("capture")
            .sent
            .clone(),
        audit: space.audit().map(|r| format!("{r:?}")).collect(),
        counters: [
            stats.writes,
            stats.reads,
            stats.takes,
            stats.expirations,
            waits[0],
            waits[1],
        ],
        live: space.snapshot(sim.now()),
    }
}

fn run_subject(steps: &[Step], service: SimDuration) -> Observed {
    let (sim, endpoint, server) = run(steps, |sim, endpoint| {
        let mut server = SpaceServerAgent::new(endpoint, service);
        server.space_mut().enable_audit();
        sim.add_component("server", server)
    });
    let server: &SpaceServerAgent = sim.component(server).expect("server");
    let stats = server.stats();
    observe(
        &sim,
        endpoint,
        server.space(),
        [stats.parked, stats.waiter_timeouts],
    )
}

fn run_reference(steps: &[Step], service: SimDuration) -> Observed {
    let (sim, endpoint, server) = run(steps, |sim, endpoint| {
        sim.add_component("reference", RefServer::new(endpoint, service))
    });
    let server: &RefServer = sim.component(server).expect("reference");
    observe(
        &sim,
        endpoint,
        &server.space,
        [server.parked, server.timeouts],
    )
}

proptest! {
    /// The server's waits behave exactly like the re-scanning reference:
    /// same reply and event bytes, to the same nodes, at the same instants,
    /// in the same order; same audit trail, counters and final contents.
    #[test]
    fn server_waits_match_the_rescanning_reference(
        steps in proptest::collection::vec(step_strategy(), 0..50),
        service_us in 0u64..3,
    ) {
        // Zero, half-millisecond or millisecond service: requests, lease
        // deadlines and timeouts often land on the same instant.
        let service = SimDuration::from_micros(service_us * 500);
        let subject = run_subject(&steps, service);
        let reference = run_reference(&steps, service);
        for (i, (a, b)) in subject.sent.iter().zip(&reference.sent).enumerate() {
            prop_assert_eq!(
                a,
                b,
                "send {} differs: {:?} vs {:?}",
                i,
                String::from_utf8_lossy(&a.2),
                String::from_utf8_lossy(&b.2)
            );
        }
        prop_assert_eq!(subject, reference);
    }
}

/// A hand-written schedule: read, take, read, take park in that order on
/// the same key. The first write wakes the first read and the first take,
/// which consumes it before the second read is reached; the second write
/// wakes the second read and the second take.
#[test]
fn one_write_wakes_reads_in_order_and_the_first_take() {
    let blocking = |node, take| Step {
        gap_ms: 0,
        node,
        binary: false,
        identified: true,
        op: if take {
            Op::Take {
                probe: 3,
                timeout_ms: None,
            }
        } else {
            Op::Read {
                probe: 0,
                timeout_ms: None,
            }
        },
    };
    let write = Step {
        gap_ms: 1,
        node: 1,
        binary: true,
        identified: false,
        op: Op::Write {
            key: 0,
            lease: LeaseKind::Forever,
        },
    };
    let steps = vec![
        blocking(1, false),
        blocking(2, true),
        blocking(3, false),
        blocking(2, true),
        write.clone(),
        write,
    ];
    let subject = run_subject(&steps, SimDuration::ZERO);
    assert_eq!(subject, run_reference(&steps, SimDuration::ZERO));
    // Ack, read, take; then ack, read, take.
    let to: Vec<u8> = subject.sent.iter().map(|s| s.1).collect();
    assert_eq!(to, [1, 1, 2, 1, 3, 2]);
    assert_eq!(subject.counters, [2, 2, 2, 0, 4, 0]);
}
