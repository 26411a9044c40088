//! A self-contained sharded-cluster harness: one driver, one router, N
//! shard segments (each its own TpWIRE bus with a `SpaceServerAgent`),
//! plus optional per-segment fault schedules.
//!
//! [`run_shard_trial`] assembles the cluster, runs the workload, and
//! returns both the application's view (acked writes, successful takes)
//! and the ground truth (per-shard audit trails and final space
//! contents) the sharded chaos invariants are checked against.
//! Identical `(config, seed)` pairs reproduce identical trials.

use std::collections::{BTreeMap, BTreeSet};

pub use tsbus_core::chaos::{any_item_template, item_of, item_template, item_tuple};
use tsbus_core::{EndpointCosts, SpaceServerAgent, TpwireEndpoint};
use tsbus_des::{
    Component, ComponentId, Context, Message, MessageExt, SimDuration, SimTime, Simulator,
};
use tsbus_faults::{BurstParams, FaultDriver, FaultSchedule};
use tsbus_obs::{TraceEvent, Tracer};
use tsbus_tpwire::{BusParams, NodeId, TpWireBus};
use tsbus_tuplespace::EventKind;
use tsbus_xmlwire::{Request, Response, WireFormat};

use crate::config::ShardConfig;
use crate::partition::PartitionMap;
use crate::router::{RouterPolicy, ShardOp, ShardOpDone, ShardRouter};

/// The driver's phased workload: pipelined writes, then (optionally)
/// reads, then (optionally) takes, each phase draining before the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardWorkload {
    /// Items written (keys 0..n).
    pub n_items: u64,
    /// Maximum operations in flight at once.
    pub window: usize,
    /// Run a read phase between writes and takes.
    pub reads: bool,
    /// In the read phase, every k-th item is read with the keyless
    /// scatter template instead of its keyed template (0 = all keyed).
    pub scatter_every: u64,
    /// Run a take phase (exact take per item).
    pub takes: bool,
    /// Hold the read phase until this much simulated time has passed —
    /// lets a test line the reads up with an injected fault window.
    pub read_delay: Option<SimDuration>,
}

impl Default for ShardWorkload {
    fn default() -> Self {
        ShardWorkload {
            n_items: 200,
            window: 16,
            reads: false,
            scatter_every: 0,
            takes: true,
            read_delay: None,
        }
    }
}

/// One planned driver operation.
#[derive(Debug, Clone, Copy)]
enum PlannedOp {
    Write(u64),
    KeyedRead(u64),
    ScatterRead,
    Take(u64),
}

/// Internal timer opening the gated read phase.
#[derive(Debug)]
struct PhaseGate;

/// The workload driver: pumps [`ShardOp`]s into the router, windowed,
/// phase by phase, and records each operation's outcome.
#[derive(Debug)]
pub struct ShardDriver {
    router: ComponentId,
    workload: ShardWorkload,
    phases: Vec<Vec<PlannedOp>>,
    phase: usize,
    next: usize,
    inflight: usize,
    next_op: u64,
    open: BTreeMap<u64, PlannedOp>,
    gate_open: bool,
    gated: bool,
    write_acked: Vec<bool>,
    take_entry: Vec<bool>,
    reads_hit: u64,
    degraded_ops: u64,
    ops_completed: u64,
    attempts_total: u64,
    finished: bool,
    finished_at: SimTime,
}

impl ShardDriver {
    /// Creates a driver that pumps `workload` into the router at
    /// component `router`.
    #[must_use]
    pub fn new(router: ComponentId, workload: ShardWorkload) -> Self {
        let n = workload.n_items;
        let mut phases = vec![(0..n).map(PlannedOp::Write).collect::<Vec<_>>()];
        if workload.reads {
            phases.push(
                (0..n)
                    .map(|i| {
                        if workload.scatter_every > 0 && i % workload.scatter_every == 0 {
                            PlannedOp::ScatterRead
                        } else {
                            PlannedOp::KeyedRead(i)
                        }
                    })
                    .collect(),
            );
        }
        if workload.takes {
            phases.push((0..n).map(PlannedOp::Take).collect());
        }
        ShardDriver {
            router,
            workload,
            phases,
            phase: 0,
            next: 0,
            inflight: 0,
            next_op: 1,
            open: BTreeMap::new(),
            gate_open: workload.read_delay.is_none(),
            gated: false,
            write_acked: vec![false; n as usize],
            take_entry: vec![false; n as usize],
            reads_hit: 0,
            degraded_ops: 0,
            ops_completed: 0,
            attempts_total: 0,
            finished: false,
            finished_at: SimTime::ZERO,
        }
    }

    /// Whether every phase has drained.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Instant the last operation completed (ZERO if unfinished).
    #[must_use]
    pub fn finished_at(&self) -> SimTime {
        self.finished_at
    }

    /// Per-item write acknowledgement (at quorum).
    #[must_use]
    pub fn write_acked(&self) -> &[bool] {
        &self.write_acked
    }

    /// Per-item take success (an entry came back).
    #[must_use]
    pub fn take_entry(&self) -> &[bool] {
        &self.take_entry
    }

    /// Read-phase operations that found a tuple.
    #[must_use]
    pub fn reads_hit(&self) -> u64 {
        self.reads_hit
    }

    /// Operations that involved a degraded or unreachable shard.
    #[must_use]
    pub fn degraded_ops(&self) -> u64 {
        self.degraded_ops
    }

    /// Operations completed (any outcome).
    #[must_use]
    pub fn ops_completed(&self) -> u64 {
        self.ops_completed
    }

    /// Sub-request sends summed over all completed operations.
    #[must_use]
    pub fn attempts_total(&self) -> u64 {
        self.attempts_total
    }

    fn request_of(&self, planned: PlannedOp) -> Request {
        match planned {
            PlannedOp::Write(i) => Request::Write {
                tuple: item_tuple(i),
                lease_ns: None,
            },
            PlannedOp::KeyedRead(i) => Request::ReadIfExists {
                template: item_template(i),
            },
            PlannedOp::ScatterRead => Request::ReadIfExists {
                template: any_item_template(),
            },
            PlannedOp::Take(i) => Request::TakeIfExists {
                template: item_template(i),
            },
        }
    }

    fn pump(&mut self, ctx: &mut Context<'_>) {
        loop {
            if self.finished || self.gated {
                return;
            }
            let phase_len = self.phases[self.phase].len();
            if self.next < phase_len {
                if self.inflight >= self.workload.window {
                    return;
                }
                let planned = self.phases[self.phase][self.next];
                self.next += 1;
                self.inflight += 1;
                let op = self.next_op;
                self.next_op += 1;
                self.open.insert(op, planned);
                let request = self.request_of(planned);
                ctx.send(self.router, ShardOp { op, request });
            } else if self.inflight == 0 {
                self.phase += 1;
                self.next = 0;
                if self.phase >= self.phases.len() {
                    self.finished = true;
                    self.finished_at = ctx.now();
                    return;
                }
                // Phase 1 is the read phase whenever one exists; hold it
                // until the gate timer opens it.
                if self.phase == 1 && self.workload.reads && !self.gate_open {
                    self.gated = true;
                    return;
                }
            } else {
                return;
            }
        }
    }

    fn record(&mut self, done: &ShardOpDone) {
        let Some(planned) = self.open.remove(&done.op) else {
            return;
        };
        self.inflight -= 1;
        self.ops_completed += 1;
        self.attempts_total += u64::from(done.attempts);
        if done.degraded {
            self.degraded_ops += 1;
        }
        match planned {
            PlannedOp::Write(i) => {
                self.write_acked[i as usize] = matches!(done.response, Response::WriteAck);
            }
            PlannedOp::KeyedRead(_) | PlannedOp::ScatterRead => {
                if matches!(done.response, Response::Entry { tuple: Some(_) }) {
                    self.reads_hit += 1;
                }
            }
            PlannedOp::Take(i) => {
                self.take_entry[i as usize] =
                    matches!(done.response, Response::Entry { tuple: Some(_) });
            }
        }
    }
}

impl Component for ShardDriver {
    fn start(&mut self, ctx: &mut Context<'_>) {
        if let Some(delay) = self.workload.read_delay {
            ctx.schedule_self_in(delay, PhaseGate);
        }
        self.pump(ctx);
    }

    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        let msg = match msg.downcast::<ShardOpDone>() {
            Ok(done) => {
                self.record(&done);
                self.pump(ctx);
                return;
            }
            Err(m) => m,
        };
        if msg.downcast::<PhaseGate>().is_ok() {
            self.gate_open = true;
            if self.gated {
                self.gated = false;
                self.pump(ctx);
            }
        }
    }
}

/// Full description of one sharded-cluster trial.
#[derive(Debug, Clone)]
pub struct ShardTrialConfig {
    /// Partitioning and replication.
    pub shard: ShardConfig,
    /// Bus parameters applied to every segment (supervision included).
    pub bus: BusParams,
    /// Per-request service time of each shard's space server.
    pub service_time: SimDuration,
    /// Symmetric per-side endpoint processing cost.
    pub endpoint_cost: SimDuration,
    /// Wire encoding between router and servers.
    pub wire_format: WireFormat,
    /// Router retry/timeout policy.
    pub router: RouterPolicy,
    /// The driver's workload.
    pub workload: ShardWorkload,
    /// Wall-clock bound on the trial.
    pub horizon: SimDuration,
    /// Per-shard fault schedules (empty vec = no faults anywhere).
    pub faults: Vec<FaultSchedule>,
    /// Per-shard burst-noise overrides (empty vec = none anywhere).
    pub bursts: Vec<Option<BurstParams>>,
    /// Router trace capacity (0 = tracing disabled).
    pub trace_capacity: usize,
    /// Whether each shard's [`Space`](tsbus_tuplespace::Space) keeps its
    /// key-field/deadline indexes. Off is the perf-ablation arm.
    pub indexed_space: bool,
    /// Passed to [`Simulator::set_pooling`]. It changes nothing measurable:
    /// no library component hands event boxes back to the pool, so a trial
    /// makes the same heap allocations and the same results either way.
    /// The benchmark reads the field, so deleting it waits for benchmark
    /// contract v2 (ROADMAP item 1).
    pub pooling: bool,
}

impl ShardTrialConfig {
    /// A trial of `shard` with quiet buses and the default workload.
    #[must_use]
    pub fn new(shard: ShardConfig) -> Self {
        ShardTrialConfig {
            shard,
            bus: BusParams::theseus_default(),
            service_time: SimDuration::from_millis(30),
            endpoint_cost: SimDuration::from_millis(5),
            wire_format: WireFormat::Xml,
            router: RouterPolicy::default(),
            workload: ShardWorkload::default(),
            horizon: SimDuration::from_secs(600),
            faults: Vec::new(),
            bursts: Vec::new(),
            trace_capacity: 0,
            indexed_space: true,
            pooling: true,
        }
    }
}

/// Ground truth of one shard at the end of a trial, reconstructed from
/// its space's audit trail.
#[derive(Debug, Clone, Default)]
pub struct ShardAudit {
    /// `item → Written events` at this shard.
    pub written: BTreeMap<u64, u64>,
    /// `item → Taken events` at this shard (owner takes AND erases).
    pub taken: BTreeMap<u64, u64>,
    /// Items still present in the space at the end.
    pub leftover: BTreeSet<u64>,
    /// Requests the server answered from its duplicate cache.
    pub dedup_replays: u64,
    /// Bus transactions re-sent on this segment.
    pub bus_retries: u64,
    /// Stream sends failed fast against an Open breaker.
    pub bus_fast_fails: u64,
    /// Circuit-breaker trips on this segment.
    pub breaker_trips: u64,
}

/// Everything a trial produces: the application view, the router's
/// counters, and per-shard ground truth.
#[derive(Debug, Clone)]
pub struct ShardTrialResult {
    /// Whether the driver drained every phase before the horizon.
    pub finished: bool,
    /// Completion instant (the horizon if unfinished).
    pub finished_at: SimTime,
    /// Operations completed (any outcome).
    pub ops_completed: u64,
    /// Aggregate operation throughput in ops per simulated second.
    pub throughput: f64,
    /// Per-item write acknowledged at quorum.
    pub write_acked: Vec<bool>,
    /// Per-item take returned the tuple.
    pub take_entry: Vec<bool>,
    /// Read-phase hits.
    pub reads_hit: u64,
    /// Operations that touched a degraded/unreachable shard.
    pub degraded_ops: u64,
    /// Sub-request sends summed over completed operations.
    pub attempts_total: u64,
    /// Router: reads served away from the owner.
    pub read_repairs: u64,
    /// Router: reads served by a replica with the owner unreachable.
    pub degraded_reads: u64,
    /// Router: repair writes re-issued toward lagging owners.
    pub repair_writes: u64,
    /// Router: writes acknowledged at quorum.
    pub quorum_acks: u64,
    /// Router: writes whose quorum became unreachable.
    pub quorum_failures: u64,
    /// Router: replica erases after takes.
    pub replica_erases: u64,
    /// Router: sub-request re-sends.
    pub retries: u64,
    /// Router: Open-breaker fast-fails observed.
    pub fast_fails: u64,
    /// Router: replies dropped by id correlation.
    pub stale_replies: u64,
    /// Router: sub-requests parked against degraded shards.
    pub parked_subops: u64,
    /// Per-shard ground truth.
    pub shards: Vec<ShardAudit>,
    /// Router trace events (empty when tracing is off).
    pub trace: Vec<TraceEvent>,
    /// Trace events lost to the bounded buffer.
    pub trace_dropped: u64,
    /// Simulation events the kernel dispatched over the trial — the
    /// denominator of the perf harness's events/sec measurements.
    pub events_processed: u64,
}

/// The router's slave address on every segment.
#[must_use]
pub fn router_node() -> NodeId {
    NodeId::new(1).expect("1 is a valid node id")
}

/// Shard `s`'s server address on its own segment — globally distinct so
/// replies and transport errors identify their shard.
///
/// # Panics
///
/// Panics if `2 + shard` exceeds the TpWIRE node-id range; the shard
/// count cap ([`crate::MAX_SHARDS`]) keeps real configurations inside.
#[must_use]
pub fn server_node(shard: u8) -> NodeId {
    NodeId::new(2 + shard).expect("shard cap keeps server ids in range")
}

/// Builds the cluster, runs the workload to completion or the horizon,
/// and collects the evidence.
///
/// # Panics
///
/// Panics if the shard configuration is invalid (validate first with
/// [`ShardConfig::validate`]) or if per-shard fault/burst lists are
/// non-empty but shorter than the shard count.
#[must_use]
pub fn run_shard_trial(cfg: &ShardTrialConfig, seed: u64) -> ShardTrialResult {
    let map = PartitionMap::new(&cfg.shard).expect("validated shard config");
    let n = cfg.shard.shards;
    assert!(
        cfg.faults.is_empty() || cfg.faults.len() == usize::from(n),
        "one fault schedule per shard (or none at all)"
    );
    assert!(
        cfg.bursts.is_empty() || cfg.bursts.len() == usize::from(n),
        "one burst override per shard (or none at all)"
    );

    let mut sim = Simulator::with_seed(seed);
    sim.set_pooling(cfg.pooling);
    // Fixed component layout: 0 = driver, 1 = router, then per shard s
    // a block of 4 at base = 2 + 4s: router endpoint, server endpoint,
    // server, bus. Fault drivers append after the blocks.
    let driver_id = ComponentId::from_raw(0);
    let router_id = ComponentId::from_raw(1);
    let base = |s: usize| 2 + 4 * s;
    let router_eps: Vec<ComponentId> = (0..usize::from(n))
        .map(|s| ComponentId::from_raw(base(s)))
        .collect();
    let bus_ids: Vec<ComponentId> = (0..usize::from(n))
        .map(|s| ComponentId::from_raw(base(s) + 3))
        .collect();
    let server_nodes: Vec<NodeId> = (0..n).map(server_node).collect();

    let d = sim.add_component("driver", ShardDriver::new(router_id, cfg.workload));
    debug_assert_eq!(d, driver_id);

    let mut router = ShardRouter::new(
        driver_id,
        router_eps.clone(),
        server_nodes.clone(),
        map,
        &cfg.shard,
    )
    .with_format(cfg.wire_format)
    .with_policy(cfg.router);
    if cfg.trace_capacity > 0 {
        router.set_tracer(Tracer::bounded(cfg.trace_capacity));
    }
    let r = sim.add_component("router", router);
    debug_assert_eq!(r, router_id);

    for s in 0..usize::from(n) {
        let shard = s as u8;
        let router_ep = router_eps[s];
        let server_ep = ComponentId::from_raw(base(s) + 1);
        let server_id = ComponentId::from_raw(base(s) + 2);
        let bus_id = bus_ids[s];
        let costs = EndpointCosts::symmetric(cfg.endpoint_cost);

        let e0 = sim.add_component(
            format!("shard{shard}/ep_router"),
            TpwireEndpoint::new(router_node(), router_id, bus_id, costs),
        );
        debug_assert_eq!(e0, router_ep);
        sim.add_component(
            format!("shard{shard}/ep_server"),
            TpwireEndpoint::new(server_node(shard), server_id, bus_id, costs),
        );
        let mut server = SpaceServerAgent::new(server_ep, cfg.service_time);
        server.space_mut().set_indexed(cfg.indexed_space);
        // The audit trail is the trial's ground truth.
        server.space_mut().enable_audit();
        let sv = sim.add_component(format!("shard{shard}/server"), server);
        debug_assert_eq!(sv, server_id);

        let mut params = cfg.bus;
        if let Some(Some(burst)) = cfg.bursts.get(s) {
            params = params.with_burst_error(*burst);
        }
        let mut bus = TpWireBus::new(params, vec![router_node(), server_node(shard)]);
        bus.attach(router_node(), router_ep);
        bus.attach(server_node(shard), server_ep);
        let b = sim.add_component(format!("shard{shard}/bus"), bus);
        debug_assert_eq!(b, bus_id);
    }
    for (s, schedule) in cfg.faults.iter().enumerate() {
        if schedule.events().is_empty() {
            continue;
        }
        sim.add_component(
            format!("shard{s}/faults"),
            FaultDriver::new(bus_ids[s], schedule.clone()),
        );
    }

    let horizon = SimTime::ZERO + cfg.horizon;
    let slice = SimDuration::from_secs(1);
    while sim.now() < horizon {
        let until = (sim.now() + slice).min(horizon);
        sim.run_until(until);
        let driver: &ShardDriver = sim.component(driver_id).expect("registered");
        if driver.is_finished() {
            break;
        }
    }

    let now = sim.now();
    let driver: &ShardDriver = sim.component(driver_id).expect("registered");
    let router: &ShardRouter = sim.component(router_id).expect("registered");

    let mut shards = Vec::with_capacity(usize::from(n));
    for (s, bus_id) in bus_ids.iter().enumerate() {
        let server: &SpaceServerAgent = sim
            .component(ComponentId::from_raw(base(s) + 2))
            .expect("registered");
        let bus: &TpWireBus = sim.component(*bus_id).expect("registered");
        let mut audit = ShardAudit {
            dedup_replays: server.stats().dedup_replays,
            bus_retries: bus.stats().retries,
            bus_fast_fails: bus.stats().fast_fails,
            breaker_trips: bus.stats().breaker_trips,
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
        for tuple in server.space().snapshot(now) {
            if let Some(item) = item_of(&tuple) {
                audit.leftover.insert(item);
            }
        }
        shards.push(audit);
    }

    let finished = driver.is_finished();
    let finished_at = if finished { driver.finished_at() } else { now };
    let elapsed = finished_at.as_secs_f64().max(f64::EPSILON);
    ShardTrialResult {
        finished,
        finished_at,
        ops_completed: driver.ops_completed(),
        throughput: driver.ops_completed() as f64 / elapsed,
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
    }
}
