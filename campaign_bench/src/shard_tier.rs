//! `shard_tier`: `run_shard_trial` at 4 shards × R=2 with writes, keyed
//! and scatter-gather reads, and takes, on quiet buses.
//!
//! The cluster is rebuilt here from public constructors, with one
//! addition: [`OpClock`] shells on the driver and the router note when
//! each routed operation starts and finishes, which the library result
//! does not report. They never touch a message.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use tsbus_core::{EndpointCosts, SpaceServerAgent, TpwireEndpoint};
use tsbus_des::{
    Component, ComponentId, Context, Message, MessageExt, SimDuration, SimRng, SimTime, Simulator,
};
use tsbus_shard::{
    check_shard_invariants, cluster::item_of, router_node, run_shard_trial, server_node,
    PartitionMap, ReplicationConfig, ShardAudit, ShardChaosConfig, ShardConfig, ShardDriver,
    ShardOp, ShardOpDone, ShardRouter, ShardTrialConfig, ShardTrialResult,
};
use tsbus_tpwire::TpWireBus;
use tsbus_tuplespace::EventKind;
use tsbus_xmlwire::Response;

use crate::outcome::{Digest, Outcome};
use crate::stack::{Layer, Stack};

const SHARDS: u8 = 4;
const REPLICAS: u8 = 2;

/// One trial: its configuration and simulator seed.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The cluster and workload.
    pub cfg: ShardTrialConfig,
    /// Simulator seed.
    pub seed: u64,
}

fn trial(n_items: u64, scatter_every: u64, service_time: SimDuration, seed: u64) -> Trial {
    let shard = ShardConfig::new(SHARDS, ReplicationConfig::mirrored(REPLICAS))
        .expect("4 shards x R=2 is a valid configuration");
    let mut cfg = ShardTrialConfig::new(shard);
    cfg.workload.n_items = n_items;
    cfg.workload.window = 8;
    cfg.workload.reads = true;
    cfg.workload.scatter_every = scatter_every;
    cfg.workload.takes = true;
    cfg.service_time = service_time;
    Trial { cfg, seed }
}

/// The pinned reference trial (the library's default 30 ms service
/// time), then `count - 1` seeded trials with 14–18 items, a
/// scatter-gather read every 5th–8th item, and a 28–32 ms service time.
pub fn trials(seed: u64, count: usize) -> Vec<Trial> {
    let mut rng = SimRng::seeded(seed).stream("shard_tier");
    let mut out = vec![trial(16, 8, SimDuration::from_millis(30), 5)];
    while out.len() < count {
        let n_items = 14 + rng.below(5);
        let scatter_every = 5 + rng.below(4);
        let service = SimDuration::from_micros(28_000 + rng.below(4_001));
        out.push(trial(n_items, scatter_every, service, rng.next_u64()));
    }
    out
}

/// Start instants of routed operations and the latencies of finished ones.
#[derive(Debug, Default)]
struct OpTimes {
    started: HashMap<u64, SimTime>,
    latency_ns: Vec<u64>,
    ok: u64,
}

/// Notes `ShardOp` arrivals (at the router) and `ShardOpDone` arrivals
/// (at the driver).
struct OpClock<C> {
    inner: C,
    times: Rc<RefCell<OpTimes>>,
}

impl<C: Component> Component for OpClock<C> {
    fn start(&mut self, ctx: &mut Context<'_>) {
        self.inner.start(ctx);
    }

    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        {
            let mut times = self.times.borrow_mut();
            if let Some(op) = msg.downcast_ref::<ShardOp>() {
                times.started.insert(op.op, ctx.now());
            } else if let Some(done) = msg.downcast_ref::<ShardOpDone>() {
                if let Some(t0) = times.started.remove(&done.op) {
                    times
                        .latency_ns
                        .push(ctx.now().duration_since(t0).as_nanos());
                }
                if matches!(
                    done.response,
                    Response::WriteAck | Response::Entry { tuple: Some(_) }
                ) {
                    times.ok += 1;
                }
            }
        }
        self.inner.handle(ctx, msg);
    }
}

/// Runs one trial; returns the library-shaped result with the
/// benchmark's outcome.
pub fn simulate(trial: &Trial, stack: &Stack) -> (ShardTrialResult, Outcome) {
    let cfg = &trial.cfg;
    let map = PartitionMap::new(&cfg.shard).expect("validated shard config");
    let n = usize::from(cfg.shard.shards);
    let mut sim = Simulator::with_seed(trial.seed);
    sim.set_pooling(cfg.pooling);
    // Layout as in `run_shard_trial`: 0 driver, 1 router, then per shard
    // a block of router endpoint, server endpoint, server, bus.
    let driver_id = ComponentId::from_raw(0);
    let router_id = ComponentId::from_raw(1);
    let base = |s: usize| 2 + 4 * s;
    let router_eps: Vec<ComponentId> = (0..n).map(|s| ComponentId::from_raw(base(s))).collect();
    let server_nodes = (0..cfg.shard.shards).map(server_node).collect();
    let times = Rc::new(RefCell::new(OpTimes::default()));

    stack.add(
        &mut sim,
        Layer::Client,
        "driver",
        OpClock {
            inner: ShardDriver::new(router_id, cfg.workload),
            times: Rc::clone(&times),
        },
    );
    let router = ShardRouter::new(driver_id, router_eps.clone(), server_nodes, map, &cfg.shard)
        .with_format(cfg.wire_format)
        .with_policy(cfg.router);
    stack.add(
        &mut sim,
        Layer::Router,
        "router",
        OpClock {
            inner: router,
            times: Rc::clone(&times),
        },
    );
    let costs = EndpointCosts::symmetric(cfg.endpoint_cost);
    for (s, &router_ep) in router_eps.iter().enumerate() {
        let shard = s as u8;
        let server_ep = ComponentId::from_raw(base(s) + 1);
        let server_id = ComponentId::from_raw(base(s) + 2);
        let bus_id = ComponentId::from_raw(base(s) + 3);
        stack.add(
            &mut sim,
            Layer::Endpoint,
            format!("shard{shard}/ep_router"),
            TpwireEndpoint::new(router_node(), router_id, bus_id, costs),
        );
        stack.add(
            &mut sim,
            Layer::Endpoint,
            format!("shard{shard}/ep_server"),
            TpwireEndpoint::new(server_node(shard), server_id, bus_id, costs),
        );
        let mut server = SpaceServerAgent::new(server_ep, cfg.service_time);
        server.space_mut().set_indexed(cfg.indexed_space);
        server.space_mut().enable_audit();
        stack.add(
            &mut sim,
            Layer::Server,
            format!("shard{shard}/server"),
            server,
        );
        let mut bus = TpWireBus::new(cfg.bus, vec![router_node(), server_node(shard)]);
        bus.attach(router_node(), router_ep);
        bus.attach(server_node(shard), server_ep);
        let b = stack.add(&mut sim, Layer::Tpwire, format!("shard{shard}/bus"), bus);
        debug_assert_eq!(b, bus_id);
    }

    stack.drive(
        &mut sim,
        SimTime::ZERO + cfg.horizon,
        SimDuration::from_secs(1),
        |sim| {
            stack
                .get::<OpClock<ShardDriver>>(sim, driver_id)
                .inner
                .is_finished()
        },
    );

    let now = sim.now();
    let driver = &stack.get::<OpClock<ShardDriver>>(&sim, driver_id).inner;
    let router = &stack.get::<OpClock<ShardRouter>>(&sim, router_id).inner;
    let mut out = Outcome {
        events: sim.events_processed(),
        ..Outcome::default()
    };
    let mut shards = Vec::with_capacity(n);
    for s in 0..n {
        let server: &SpaceServerAgent = stack.get(&sim, ComponentId::from_raw(base(s) + 2));
        let bus: &TpWireBus = stack.get(&sim, ComponentId::from_raw(base(s) + 3));
        let stats = bus.stats();
        out.counts.add_bus(&stats, bus.lane_utilization(0, now));
        out.counts.add_server(server);
        let mut audit = ShardAudit {
            dedup_replays: server.stats().dedup_replays,
            bus_retries: stats.retries,
            bus_fast_fails: stats.fast_fails,
            breaker_trips: stats.breaker_trips,
            ..ShardAudit::default()
        };
        for record in server.space().audit() {
            let Some(item) = item_of(&record.tuple) else {
                continue;
            };
            match record.kind {
                EventKind::Written => *audit.written.entry(item).or_default() += 1,
                EventKind::Taken => *audit.taken.entry(item).or_default() += 1,
                EventKind::Expired => {}
            }
        }
        audit
            .leftover
            .extend(server.space().snapshot(now).iter().filter_map(item_of));
        shards.push(audit);
    }
    let finished = driver.is_finished();
    let finished_at = if finished { driver.finished_at() } else { now };
    let result = ShardTrialResult {
        finished,
        finished_at,
        ops_completed: driver.ops_completed(),
        throughput: driver.ops_completed() as f64 / finished_at.as_secs_f64().max(f64::EPSILON),
        write_acked: driver.write_acked().to_vec(),
        take_entry: driver.take_entry().to_vec(),
        reads_hit: driver.reads_hit(),
        degraded_ops: driver.degraded_ops(),
        attempts_total: driver.attempts_total(),
        read_repairs: router.read_repairs(),
        degraded_reads: router.degraded_reads(),
        repair_writes: router.repair_writes(),
        quorum_acks: router.quorum_acks(),
        quorum_failures: router.quorum_failures(),
        replica_erases: router.replica_erases(),
        retries: router.retries(),
        fast_fails: router.fast_fails(),
        stale_replies: router.stale_replies(),
        parked_subops: router.parked_subops(),
        shards,
        trace: router.trace().events().cloned().collect(),
        trace_dropped: router.trace().dropped(),
        events_processed: sim.events_processed(),
    };

    let phases = 2 + u64::from(cfg.workload.reads);
    let times = times.borrow();
    out.ops_attempted = phases * cfg.workload.n_items;
    out.ops_ok = times.ok;
    out.op_latency_ns = times.latency_ns.clone();
    let c = &mut out.counts;
    c.reply_timeouts += router.reply_timeouts();
    c.proto_retries += result.retries;
    c.stale_replies += result.stale_replies;
    c.fast_fails += result.fast_fails;
    c.parked_subops += result.parked_subops;
    c.attempts += result.attempts_total;
    c.subreqs += result.attempts_total;
    c.quorum_failures += result.quorum_failures;
    c.read_repairs += result.read_repairs;
    out.digest = Digest::new().text(&format!("{result:?}"));

    let chaos_cfg = ShardChaosConfig {
        shards: SHARDS,
        replicas: REPLICAS,
        n_items: cfg.workload.n_items,
        ..ShardChaosConfig::default()
    };
    for v in check_shard_invariants(&chaos_cfg, &result) {
        out.violations
            .push(format!("shard trial {}: {v}", trial.seed));
    }
    out.check(finished, || {
        format!("shard trial {} did not finish", trial.seed)
    });
    let (ok, attempted) = (out.ops_ok, out.ops_attempted);
    out.check(ok == attempted, || {
        format!(
            "shard trial {}: {ok} of {attempted} operations succeeded on quiet buses",
            trial.seed
        )
    });
    (result, out)
}

/// Runs one trial through the benchmark's topology.
pub fn run(trial: &Trial, stack: &Stack) -> Outcome {
    simulate(trial, stack).1
}

/// Compares the self-assembled cluster with `run_shard_trial`.
pub fn library_check(trial: &Trial) -> Result<(), String> {
    let (ours, _) = simulate(trial, &Stack::plain());
    let lib = run_shard_trial(&trial.cfg, trial.seed);
    if format!("{ours:?}") != format!("{lib:?}") {
        return Err(format!(
            "shard_tier topology diverged from run_shard_trial at seed {}",
            trial.seed
        ));
    }
    Ok(())
}
