//! `standing_space`: one client and a `SpaceServerAgent` over a direct
//! link this benchmark defines (no bus), against a large standing
//! population of leased tuples.
//!
//! Each pass first writes the population (untimed), then runs the timed
//! trials: keyed reads, keyed misses, keyed takes, fresh writes, and a
//! slice of wildcard-template reads and takes that the key index cannot
//! serve (scan fallback). Every reply is checked against an independent
//! sequential model of the space.

use std::collections::BTreeMap;

use tsbus_core::{ClientStep, NetDeliver, NetSend, ScriptedClient, SpaceServerAgent};
use tsbus_des::{
    Component, ComponentId, Context, Message, MessageExt, SimDuration, SimRng, Simulator,
};
use tsbus_tpwire::NodeId;
use tsbus_tuplespace::{Pattern, Template, Tuple, Value, ValueType};
use tsbus_xmlwire::{Request, Response, WireFormat};

use crate::outcome::{Digest, Outcome};
use crate::stack::{Layer, Stack};

/// Tuple classes; wildcard templates select one.
const CLASSES: u64 = 256;
/// Classes at or above this are taken only by wildcard templates, so
/// keyed operations can predict exactly which keys are present.
const POOL_CLASS: u64 = 224;
/// Lease of every write: outlives any run.
const LEASE_NS: u64 = 3_600_000_000_000;
/// The link serializes at 10 Mbit/s.
const LINK_NS_PER_BYTE: u64 = 800;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Standing population written before the trials.
    pub population: usize,
    /// Timed trials.
    pub trials: usize,
    /// Operations per trial.
    pub ops_per_trial: usize,
}

/// What the model says a reply must be.
#[derive(Debug, Clone)]
enum Expect {
    Ack,
    Entry(Tuple),
    Nothing,
    /// Some live tuple of this class (wildcard read or take).
    Class(i64),
}

/// The generated session: population writes, then the trial operations
/// with their expected replies.
#[derive(Debug, Clone)]
pub struct Plan {
    size: Size,
    /// The link's propagation delay, drawn from the seed (5–15 µs).
    propagation: SimDuration,
    population: Vec<Tuple>,
    ops: Vec<(Request, Expect)>,
}

fn object(key: i64, text: String, class: u64) -> Tuple {
    Tuple::new(vec![
        Value::from("obj"),
        Value::Int(key),
        Value::Str(text),
        Value::Int(class as i64),
    ])
}

fn keyed(key: i64) -> Template {
    Template::new(vec![
        Pattern::Exact(Value::from("obj")),
        Pattern::Exact(Value::Int(key)),
        Pattern::AnyOfType(ValueType::Str),
        Pattern::AnyOfType(ValueType::Int),
    ])
}

fn of_class(class: i64) -> Template {
    Template::new(vec![
        Pattern::Exact(Value::from("obj")),
        Pattern::AnyOfType(ValueType::Int),
        Pattern::AnyOfType(ValueType::Str),
        Pattern::Exact(Value::Int(class)),
    ])
}

fn class_of(tuple: &Tuple) -> Option<i64> {
    match tuple.field(3) {
        Some(&Value::Int(c)) => Some(c),
        _ => None,
    }
}

/// Generates the session from `seed`.
pub fn plan(seed: u64, size: Size) -> Plan {
    let mut rng = SimRng::seeded(seed).stream("standing_space");
    let propagation = SimDuration::from_nanos(5_000 + rng.below(10_001));
    let mut next_key = 0i64;
    let mut fresh = |rng: &mut SimRng| {
        // Distinct keys in a seeded order: a counter in the high bits.
        next_key += 1;
        let key = (next_key << 20) | rng.below(1 << 20) as i64;
        let len = 16 + rng.below(33) as usize;
        let text: String = (0..len)
            .map(|_| char::from(b'a' + rng.below(26) as u8))
            .collect();
        object(key, text, rng.below(CLASSES))
    };
    // Keys keyed operations may touch, and live tuples per class.
    let mut keyed_live: Vec<Tuple> = Vec::new();
    let mut per_class: BTreeMap<i64, u64> = BTreeMap::new();
    let admit = |tuple: &Tuple, keyed_live: &mut Vec<Tuple>, per_class: &mut BTreeMap<i64, u64>| {
        let class = class_of(tuple).expect("objects carry a class");
        *per_class.entry(class).or_default() += 1;
        if (class as u64) < POOL_CLASS {
            keyed_live.push(tuple.clone());
        }
    };
    let population: Vec<Tuple> = (0..size.population).map(|_| fresh(&mut rng)).collect();
    for tuple in &population {
        admit(tuple, &mut keyed_live, &mut per_class);
    }

    // Every trial gets the same operation mix, in its own seeded order.
    let per_trial = size.ops_per_trial;
    let mut rolls = Vec::with_capacity(size.trials * per_trial);
    for _ in 0..size.trials {
        let mut deck: Vec<u64> = (0..per_trial)
            .map(|j| (j * 100 / per_trial) as u64)
            .collect();
        for j in (1..deck.len()).rev() {
            deck.swap(j, rng.below(j as u64 + 1) as usize);
        }
        rolls.extend(deck);
    }
    let mut ops = Vec::with_capacity(rolls.len());
    for roll in rolls {
        let op = match roll {
            0..=54 => {
                let t = &keyed_live[rng.below(keyed_live.len() as u64) as usize];
                let key = match t.field(1) {
                    Some(&Value::Int(k)) => k,
                    _ => unreachable!("objects carry an int key"),
                };
                (
                    Request::ReadIfExists {
                        template: keyed(key),
                    },
                    Expect::Entry(t.clone()),
                )
            }
            55..=64 => {
                // Keys with zero high bits are never generated.
                let key = rng.below(1 << 20) as i64;
                (
                    Request::ReadIfExists {
                        template: keyed(key),
                    },
                    Expect::Nothing,
                )
            }
            65..=74 => {
                let at = rng.below(keyed_live.len() as u64) as usize;
                let t = keyed_live.swap_remove(at);
                let class = class_of(&t).expect("objects carry a class");
                *per_class.get_mut(&class).expect("admitted") -= 1;
                let key = match t.field(1) {
                    Some(&Value::Int(k)) => k,
                    _ => unreachable!("objects carry an int key"),
                };
                (
                    Request::TakeIfExists {
                        template: keyed(key),
                    },
                    Expect::Entry(t),
                )
            }
            75..=84 => {
                let t = fresh(&mut rng);
                admit(&t, &mut keyed_live, &mut per_class);
                (
                    Request::Write {
                        tuple: t,
                        lease_ns: Some(LEASE_NS),
                    },
                    Expect::Ack,
                )
            }
            85..=94 => {
                let class = rng.below(CLASSES) as i64;
                let live = per_class.get(&class).copied().unwrap_or(0) > 0;
                (
                    Request::ReadIfExists {
                        template: of_class(class),
                    },
                    if live {
                        Expect::Class(class)
                    } else {
                        Expect::Nothing
                    },
                )
            }
            _ => {
                let class = (POOL_CLASS + rng.below(CLASSES - POOL_CLASS)) as i64;
                let count = per_class.entry(class).or_default();
                let expect = if *count > 0 {
                    *count -= 1;
                    Expect::Class(class)
                } else {
                    Expect::Nothing
                };
                (
                    Request::TakeIfExists {
                        template: of_class(class),
                    },
                    expect,
                )
            }
        };
        ops.push(op);
    }
    Plan {
        size,
        propagation,
        population,
        ops,
    }
}

impl Plan {
    /// Timed trials per pass.
    pub fn trials(&self) -> usize {
        self.size.trials
    }
}

/// The benchmark's transport: relays `NetSend` to the peer agent as
/// `NetDeliver`, after the propagation delay plus the payload's
/// serialization time.
#[derive(Debug)]
struct DirectLink {
    peer: ComponentId,
    from: NodeId,
    propagation: SimDuration,
}

impl Component for DirectLink {
    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        let send = msg.downcast::<NetSend>().expect("links only relay NetSend");
        let delay = self.propagation
            + SimDuration::from_nanos(LINK_NS_PER_BYTE * send.payload.len() as u64);
        let deliver = NetDeliver {
            from: self.from,
            payload: send.payload.clone(),
        };
        ctx.schedule_in(delay, self.peer, deliver);
        ctx.recycle_box(send);
    }
}

const CLIENT: ComponentId = ComponentId::from_raw(0);

fn node(id: u8) -> NodeId {
    NodeId::new(id).expect("static node ids are in range")
}

/// One pass over a plan: a simulator with the population written.
pub struct Session<'p> {
    plan: &'p Plan,
    stack: Stack,
    sim: Simulator,
}

impl<'p> Session<'p> {
    /// Builds the topology and writes the standing population.
    pub fn new(plan: &'p Plan, stack: &Stack) -> Self {
        let mut sim = Simulator::with_seed(1);
        let server_app = ComponentId::from_raw(1);
        let link_client = ComponentId::from_raw(2);
        let link_server = ComponentId::from_raw(3);
        let script = plan
            .population
            .iter()
            .map(|t| {
                ClientStep::Request(Request::Write {
                    tuple: t.clone(),
                    lease_ns: Some(LEASE_NS),
                })
            })
            .chain(plan.ops.iter().map(|(r, _)| ClientStep::Request(r.clone())))
            .collect();
        let client =
            ScriptedClient::new(link_client, node(2), SimDuration::from_micros(10), script)
                .with_format(WireFormat::Xml);
        stack.add(&mut sim, Layer::Client, "client", client);
        stack.add(
            &mut sim,
            Layer::Server,
            "server",
            SpaceServerAgent::new(link_server, SimDuration::from_micros(20)),
        );
        stack.add(
            &mut sim,
            Layer::Link,
            "link_client",
            DirectLink {
                peer: server_app,
                from: node(1),
                propagation: plan.propagation,
            },
        );
        stack.add(
            &mut sim,
            Layer::Link,
            "link_server",
            DirectLink {
                peer: CLIENT,
                from: node(2),
                propagation: plan.propagation,
            },
        );
        let mut session = Session {
            plan,
            stack: stack.clone(),
            sim,
        };
        session.run_to(plan.population.len());
        session
    }

    /// Steps until the client's `n`-th operation has its reply.
    fn run_to(&mut self, n: usize) {
        let stack = &self.stack;
        stack.step_until(&mut self.sim, |sim| {
            let records = stack.get::<ScriptedClient>(sim, CLIENT).records();
            n == 0 || records.get(n - 1).is_some_and(|r| r.completed_at.is_some())
        });
    }

    fn range(&self, trial: usize) -> std::ops::Range<usize> {
        let k = self.plan.size.ops_per_trial;
        trial * k..(trial + 1) * k
    }

    /// Runs trial `trial`'s operations; returns the events it dispatched.
    pub fn advance(&mut self, trial: usize) -> u64 {
        let before = self.sim.events_processed();
        self.run_to(self.plan.population.len() + self.range(trial).end);
        self.sim.events_processed() - before
    }

    /// Checks trial `trial`'s replies against the model.
    pub fn outcome(&self, trial: usize, events: u64) -> Outcome {
        let client: &ScriptedClient = self.stack.get(&self.sim, CLIENT);
        let offset = self.plan.population.len();
        let range = self.range(trial);
        let mut out = Outcome {
            events,
            ops_attempted: range.len() as u64,
            ..Outcome::default()
        };
        let mut digest = Digest::new().text(&events.to_string());
        for i in range {
            let Some(record) = client.records().get(offset + i) else {
                out.violations
                    .push(format!("standing op {i} never completed"));
                continue;
            };
            if let Some(latency) = record.latency() {
                out.op_latency_ns.push(latency.as_nanos());
            }
            out.counts.attempts += u64::from(record.attempts);
            digest = digest.text(&format!(
                "{:?}{:?}{:?}",
                record.sent_at, record.completed_at, record.response
            ));
            let ok = match (&self.plan.ops[i].1, &record.response) {
                (Expect::Ack, Some(Response::WriteAck)) => true,
                (Expect::Nothing, Some(Response::Entry { tuple: None })) => true,
                (Expect::Entry(want), Some(Response::Entry { tuple: Some(got) })) => want == got,
                (Expect::Class(c), Some(Response::Entry { tuple: Some(got) })) => {
                    class_of(got) == Some(*c)
                }
                _ => false,
            };
            out.ops_ok += u64::from(ok);
            if !ok {
                out.violations.push(format!(
                    "standing op {i}: expected {:?}, got {:?}",
                    self.plan.ops[i].1, record.response
                ));
            }
        }
        out.digest = digest;
        if trial + 1 == self.plan.size.trials {
            // Session-wide counters, booked once per pass.
            let server: &SpaceServerAgent = self.stack.get(&self.sim, ComponentId::from_raw(1));
            out.counts.add_server(server);
            out.counts.reply_timeouts += client.reply_timeouts();
            out.counts.stale_replies += client.stale_replies();
        }
        out
    }
}
