//! The shard-aware client-side router.
//!
//! A [`ShardRouter`] sits between one application driver and N TpWIRE
//! bus segments (one `SpaceServerAgent` per segment) and gives the
//! application a single-space illusion:
//!
//! * **writes** fan out to the key's replica set with one
//!   [`RequestId`]-stamped sub-request per replica; the operation is
//!   acknowledged once the write quorum — always including the owner —
//!   has acked. Retries reuse their sub-request's identity, so the
//!   per-server duplicate caches of the exactly-once layer make
//!   replication idempotent.
//! * **takes** are only ever admitted at the key's owner shard
//!   (single-owner semantics: no cross-shard double-take); after the
//!   owner hands the tuple over, the other replicas are erased with
//!   idempotent exact-template takes. Keyless takes run in two phases:
//!   a scatter locate, then a take admitted at the match's owner only.
//! * **reads** route to the owner when the template pins the key field,
//!   falling back through the replica set when the owner misses or is
//!   unreachable; keyless templates scatter-gather across every shard
//!   with a per-shard deadline. A hit served away from the owner is a
//!   read-repair: it is counted, traced, and — when the key was never
//!   taken — the original identified write is re-issued to the lagging
//!   owner (same [`RequestId`], so a copy that did land is deduplicated
//!   rather than re-applied).
//! * **supervision integration**: a shard whose bus fast-fails against
//!   an Open breaker is marked degraded. Reads keep being served by
//!   replicas; writes either park in a per-shard queue flushed on a
//!   probe timer, or fail fast, per
//!   [`DegradedWritePolicy`].

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use tsbus_core::{NetDeliver, NetError, NetSend};
use tsbus_des::{Component, ComponentId, Context, Message, MessageExt, SimDuration, SimTime};
use tsbus_obs::{CounterId, Registry, Snapshot, TraceEvent, Tracer, TupleOpKind};
use tsbus_proto::{request_step, ProtoInstruments, ReplyDue, RequestStep, RequestTable, RetryDue};
use tsbus_tpwire::NodeId;
use tsbus_tuplespace::{Template, Tuple};
use tsbus_xmlwire::{
    server_message_from_wire, EncodeScratch, Request, RequestEnvelope, RequestId, Response,
    ServerMessage, WireFormat,
};

use crate::config::{DegradedWritePolicy, ShardConfig};
use crate::partition::{hash_tuple, hash_value, PartitionMap, Route};

/// The router's exactly-once client id: every sub-request it issues is
/// identified as `(ROUTER_CLIENT_ID, seq)`.
const ROUTER_CLIENT_ID: u64 = 1;

/// An application-level operation handed to the router.
#[derive(Debug)]
pub struct ShardOp {
    /// Caller-chosen correlation id, echoed in [`ShardOpDone`].
    pub op: u64,
    /// The tuplespace request to route.
    pub request: Request,
}

/// The routed operation's final outcome, delivered to the application.
#[derive(Debug)]
pub struct ShardOpDone {
    /// The [`ShardOp::op`] correlation id.
    pub op: u64,
    /// The response (synthesized for scatter-gather operations).
    pub response: Response,
    /// Whether a degraded or unreachable shard was involved.
    pub degraded: bool,
    /// Sub-request sends charged to the operation.
    pub attempts: u32,
}

/// Retry/timeout knobs of the router's sub-request machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterPolicy {
    /// A sub-request whose reply has not arrived within this span is
    /// declared overdue and re-issued (same identity).
    pub reply_timeout: SimDuration,
    /// Idle wait before each re-issue.
    pub retry_delay: SimDuration,
    /// Total sends allowed per sub-request, the first included.
    pub max_attempts: u32,
    /// Per-shard gather deadline of a scatter read leg.
    pub scatter_deadline: SimDuration,
    /// Probe period for flushing a degraded shard's parked writes.
    pub degraded_retry_delay: SimDuration,
    /// `false` is the ablation arm: retries draw a FRESH identity each
    /// time, so the server-side duplicate caches cannot recognize them
    /// and a lost reply can re-apply — exactly the double-apply the
    /// sharded chaos invariants are built to catch.
    pub exactly_once: bool,
}

impl Default for RouterPolicy {
    fn default() -> Self {
        RouterPolicy {
            reply_timeout: SimDuration::from_millis(1_200),
            retry_delay: SimDuration::from_millis(150),
            max_attempts: 6,
            scatter_deadline: SimDuration::from_millis(1_500),
            degraded_retry_delay: SimDuration::from_millis(400),
            exactly_once: true,
        }
    }
}

/// Internal timer: a scatter leg's per-shard deadline expired.
#[derive(Debug)]
struct ScatterDeadline {
    seq: u64,
}

/// Internal timer: probe a degraded shard by flushing its parked subs.
#[derive(Debug)]
struct FlushQueue {
    shard: u8,
}

/// What one sub-request is doing for its operation.
#[derive(Debug, Clone)]
enum SubRole {
    /// Replica write; `slot` indexes the op's replica set (0 = owner).
    Write { slot: usize },
    /// Owner-shard take.
    Take,
    /// Keyed read probe; `pos` indexes the candidate (replica) list.
    KeyedRead { pos: usize },
    /// One leg of a scatter-gather read.
    ScatterLeg,
    /// Detached replica erase after a successful take.
    Erase,
    /// Detached read-repair write toward a lagging owner.
    Repair,
}

/// One in-flight sub-request — the layer-owned resume state carried as
/// the payload of a [`RequestTable`] entry. Attempt counting, retry
/// arming and timer staleness live in the entry, not here.
#[derive(Debug)]
struct SubOp {
    /// Owning application op (`None` for detached erase/repair subs).
    op: Option<u64>,
    shard: u8,
    role: SubRole,
    request: Request,
    /// Parked in the degraded queue, waiting for a flush probe.
    parked: bool,
}

/// How one scatter leg settled.
#[derive(Debug, Clone)]
enum Leg {
    Pending,
    Hit(Tuple),
    Miss,
    Failed,
}

#[derive(Debug)]
struct WriteState {
    acked: Vec<bool>,
    failed: Vec<bool>,
    quorum: u8,
    answered: bool,
}

#[derive(Debug)]
struct ReadState {
    /// Candidate shards, owner first.
    candidates: Vec<u8>,
    failures: usize,
    owner_failed: bool,
}

#[derive(Debug)]
struct ScatterState {
    legs: Vec<Leg>,
    /// Re-route the winner into an owner-shard take once gathered.
    take_after: bool,
}

#[derive(Debug)]
enum OpKind {
    Write(WriteState),
    Take,
    KeyedRead(ReadState),
    Scatter(ScatterState),
}

#[derive(Debug)]
struct OpState {
    kind: OpKind,
    degraded: bool,
    attempts: u32,
}

/// Registry handles and the typed trace stream of one router: the
/// standard `proto/*` lifecycle bundle (parking shape) plus the
/// shard-specific routing counters.
#[derive(Debug)]
struct RouterInstruments {
    registry: Registry,
    proto: ProtoInstruments,
    ops_write: CounterId,
    ops_take: CounterId,
    ops_read_keyed: CounterId,
    ops_read_scatter: CounterId,
    replica_writes: CounterId,
    quorum_acks: CounterId,
    quorum_failures: CounterId,
    replica_erases: CounterId,
    repair_writes: CounterId,
    read_repairs: CounterId,
    degraded_reads: CounterId,
    tracer: Tracer<TraceEvent>,
}

impl Default for RouterInstruments {
    fn default() -> Self {
        let mut registry = Registry::new();
        let proto = ProtoInstruments::with_parking(&mut registry);
        RouterInstruments {
            ops_write: registry.counter("shard/ops_write"),
            ops_take: registry.counter("shard/ops_take"),
            ops_read_keyed: registry.counter("shard/ops_read_keyed"),
            ops_read_scatter: registry.counter("shard/ops_read_scatter"),
            replica_writes: registry.counter("shard/replica_writes"),
            quorum_acks: registry.counter("shard/quorum_acks"),
            quorum_failures: registry.counter("shard/quorum_failures"),
            replica_erases: registry.counter("shard/replica_erases"),
            repair_writes: registry.counter("shard/repair_writes"),
            read_repairs: registry.counter("shard/read_repairs"),
            degraded_reads: registry.counter("shard/degraded_reads"),
            proto,
            registry,
            tracer: Tracer::disabled(),
        }
    }
}

impl RouterInstruments {
    /// Books one parked sub-request (the parking bundle registers it).
    fn inc_parked(&mut self) {
        if let Some(id) = self.proto.parked_subops {
            self.registry.inc(id);
        }
    }

    /// Books one degraded-queue flush.
    fn inc_flush(&mut self) {
        if let Some(id) = self.proto.queue_flushes {
            self.registry.inc(id);
        }
    }
}

/// The shard router component. See the module docs for semantics.
#[derive(Debug)]
pub struct ShardRouter {
    app: ComponentId,
    /// Router-side transport endpoint per shard.
    endpoints: Vec<ComponentId>,
    /// Each shard's server address on its own segment — globally
    /// distinct, so replies and transport errors identify their shard.
    server_nodes: Vec<NodeId>,
    map: PartitionMap,
    format: WireFormat,
    policy: RouterPolicy,
    degraded_writes: DegradedWritePolicy,
    write_quorum: u8,
    /// The engine's outstanding-request table: seq allocation, the
    /// cumulative-ack settlement watermark, and one epoch-timed entry
    /// per in-flight sub-request. Failed sub-requests never settle, so
    /// the watermark stalls below them and the servers keep their dedup
    /// entries alive.
    table: RequestTable<SubOp>,
    ops: BTreeMap<u64, OpState>,
    degraded: Vec<bool>,
    flush_armed: Vec<bool>,
    /// Last identified write per key: `key hash → (shard, seq)` per
    /// replica — the identities read-repair may re-issue.
    write_log: BTreeMap<u64, Vec<(u8, u64)>>,
    /// Keys whose tuple was handed to the application by a take; a
    /// repair write for them would resurrect consumed data.
    taken_keys: BTreeSet<u64>,
    obs: RouterInstruments,
    /// Reused encode buffers for outgoing sub-requests.
    scratch: EncodeScratch,
}

impl ShardRouter {
    /// Creates a router for `app`, speaking through one endpoint per
    /// shard to the server at the matching node.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint/node lists disagree with the map's shard
    /// count — the cluster builder wires these together.
    #[must_use]
    pub fn new(
        app: ComponentId,
        endpoints: Vec<ComponentId>,
        server_nodes: Vec<NodeId>,
        map: PartitionMap,
        cfg: &ShardConfig,
    ) -> Self {
        let n = usize::from(map.shards());
        assert_eq!(endpoints.len(), n, "one endpoint per shard");
        assert_eq!(server_nodes.len(), n, "one server node per shard");
        ShardRouter {
            app,
            endpoints,
            server_nodes,
            map,
            format: WireFormat::Xml,
            policy: RouterPolicy::default(),
            degraded_writes: cfg.degraded_writes,
            write_quorum: cfg.replication.write_quorum,
            table: RequestTable::new(),
            ops: BTreeMap::new(),
            degraded: vec![false; n],
            flush_armed: vec![false; n],
            write_log: BTreeMap::new(),
            taken_keys: BTreeSet::new(),
            obs: RouterInstruments::default(),
            scratch: EncodeScratch::new(),
        }
    }

    /// Switches the wire encoding (builder style).
    #[must_use]
    pub fn with_format(mut self, format: WireFormat) -> Self {
        self.format = format;
        self
    }

    /// Replaces the retry/timeout policy (builder style).
    #[must_use]
    pub fn with_policy(mut self, policy: RouterPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The partition map the router routes by.
    #[must_use]
    pub fn map(&self) -> &PartitionMap {
        &self.map
    }

    /// Captures the router's metrics at instant `now`: the `proto/*`
    /// lifecycle paths plus the `shard/*` routing counters.
    #[must_use]
    pub fn metrics(&self, now: SimTime) -> Snapshot {
        self.obs.registry.snapshot(now)
    }

    /// Reads served away from the owner (counted as repairs).
    #[must_use]
    pub fn read_repairs(&self) -> u64 {
        self.obs.registry.count(self.obs.read_repairs)
    }

    /// Reads served by a replica because the owner was unreachable.
    #[must_use]
    pub fn degraded_reads(&self) -> u64 {
        self.obs.registry.count(self.obs.degraded_reads)
    }

    /// Transport fast-fails observed (Open-breaker fences).
    #[must_use]
    pub fn fast_fails(&self) -> u64 {
        self.obs.proto.fast_fail_count(&self.obs.registry)
    }

    /// Sub-request re-sends.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.obs.registry.count(self.obs.proto.retries)
    }

    /// Sub-requests declared overdue (reply timeout or leg deadline).
    #[must_use]
    pub fn reply_timeouts(&self) -> u64 {
        self.obs.registry.count(self.obs.proto.reply_timeouts)
    }

    /// Replies discarded by id correlation.
    #[must_use]
    pub fn stale_replies(&self) -> u64 {
        self.obs.registry.count(self.obs.proto.stale_replies)
    }

    /// Writes acknowledged at quorum.
    #[must_use]
    pub fn quorum_acks(&self) -> u64 {
        self.obs.registry.count(self.obs.quorum_acks)
    }

    /// Writes whose quorum became unreachable.
    #[must_use]
    pub fn quorum_failures(&self) -> u64 {
        self.obs.registry.count(self.obs.quorum_failures)
    }

    /// Replica erases issued after successful takes.
    #[must_use]
    pub fn replica_erases(&self) -> u64 {
        self.obs.registry.count(self.obs.replica_erases)
    }

    /// Repair writes re-issued toward lagging owners.
    #[must_use]
    pub fn repair_writes(&self) -> u64 {
        self.obs.registry.count(self.obs.repair_writes)
    }

    /// Sub-requests parked against degraded shards.
    #[must_use]
    pub fn parked_subops(&self) -> u64 {
        self.obs
            .proto
            .parked_subops
            .map_or(0, |id| self.obs.registry.count(id))
    }

    /// Arms (or replaces) the typed trace stream
    /// (`ShardRoute`/`Replicate`/`ReadRepair` events).
    pub fn set_tracer(&mut self, tracer: Tracer<TraceEvent>) {
        self.obs.tracer = tracer;
    }

    /// The typed trace stream.
    #[must_use]
    pub fn trace(&self) -> &Tracer<TraceEvent> {
        &self.obs.tracer
    }

    /// The stable hash of a tuple's routing key (its key field when
    /// present, the whole tuple otherwise).
    fn key_hash_of(&self, tuple: &Tuple) -> u64 {
        match tuple.field(self.map.key_field()) {
            Some(key) => hash_value(key),
            None => hash_tuple(tuple),
        }
    }

    fn op_kind_of(role: &SubRole) -> TupleOpKind {
        match role {
            SubRole::Write { .. } | SubRole::Repair => TupleOpKind::Write,
            SubRole::Take | SubRole::Erase => TupleOpKind::Take,
            SubRole::KeyedRead { .. } | SubRole::ScatterLeg => TupleOpKind::Read,
        }
    }

    /// Encodes and transmits the sub-request registered under `seq`,
    /// arming its reply timer (or, on the first send, the scatter
    /// deadline).
    fn transmit(&mut self, ctx: &mut Context<'_>, seq: u64, first_send: bool) {
        let Some(entry) = self.table.get(seq) else {
            return;
        };
        let sub = &entry.payload;
        let shard = usize::from(sub.shard);
        let scatter = matches!(sub.role, SubRole::ScatterLeg);
        let envelope = RequestEnvelope::identified(
            RequestId {
                client: ROUTER_CLIENT_ID,
                seq,
            },
            self.table.ack(),
            sub.request.clone(),
        );
        let payload = Bytes::copy_from_slice(self.scratch.request_envelope(&envelope, self.format));
        let endpoint = self.endpoints[shard];
        let to = self.server_nodes[shard];
        let token = entry.stamp();
        let trace_shard = sub.shard;
        let trace_op = Self::op_kind_of(&sub.role);
        let op = sub.op;
        if let Some(op) = op {
            if let Some(state) = self.ops.get_mut(&op) {
                state.attempts += 1;
            }
        }
        self.obs.tracer.emit(TraceEvent::ShardRoute {
            at: ctx.now(),
            shard: trace_shard,
            op: trace_op,
            scatter,
        });
        ctx.send(endpoint, NetSend { to, payload });
        if scatter {
            if first_send {
                ctx.schedule_self_in(self.policy.scatter_deadline, ScatterDeadline { seq });
            }
        } else {
            ctx.schedule_self_in(self.policy.reply_timeout, ReplyDue { key: seq, token });
        }
    }

    /// Registers and transmits a new sub-request; returns its seq.
    fn send_sub(
        &mut self,
        ctx: &mut Context<'_>,
        op: Option<u64>,
        shard: u8,
        role: SubRole,
        request: Request,
    ) -> u64 {
        let seq = self.table.open(SubOp {
            op,
            shard,
            role,
            request,
            parked: false,
        });
        self.transmit(ctx, seq, true);
        seq
    }

    /// Completes an application op toward the driver. `remove` keeps a
    /// write op alive for its trailing replica acks when `false`.
    fn answer(&mut self, ctx: &mut Context<'_>, op: u64, response: Response, remove: bool) {
        let Some(state) = self.ops.get(&op) else {
            return;
        };
        let done = ShardOpDone {
            op,
            response,
            degraded: state.degraded,
            attempts: state.attempts,
        };
        ctx.send(self.app, done);
        if remove {
            self.ops.remove(&op);
        }
    }

    /// Entry point for one application op.
    fn start_op(&mut self, ctx: &mut Context<'_>, op: u64, request: Request) {
        match request {
            Request::Write { ref tuple, .. } => {
                self.obs.registry.inc(self.obs.ops_write);
                let replicas = self.map.replicas_of_tuple(tuple);
                let quorum = self.write_quorum.min(replicas.len() as u8);
                self.ops.insert(
                    op,
                    OpState {
                        kind: OpKind::Write(WriteState {
                            acked: vec![false; replicas.len()],
                            failed: vec![false; replicas.len()],
                            quorum,
                            answered: false,
                        }),
                        degraded: false,
                        attempts: 0,
                    },
                );
                let key = self.key_hash_of(tuple);
                let mut log = Vec::with_capacity(replicas.len());
                for (slot, shard) in replicas.into_iter().enumerate() {
                    self.obs.registry.inc(self.obs.replica_writes);
                    let seq = self.send_sub(
                        ctx,
                        Some(op),
                        shard,
                        SubRole::Write { slot },
                        request.clone(),
                    );
                    log.push((shard, seq));
                }
                self.write_log.insert(key, log);
            }
            Request::Take { ref template, .. } | Request::TakeIfExists { ref template } => {
                self.obs.registry.inc(self.obs.ops_take);
                match self.map.route_of_template(template) {
                    Route::Owner(owner) => {
                        self.ops.insert(
                            op,
                            OpState {
                                kind: OpKind::Take,
                                degraded: false,
                                attempts: 0,
                            },
                        );
                        self.send_sub(ctx, Some(op), owner, SubRole::Take, request);
                    }
                    Route::Scatter => {
                        // Two-phase keyless take: locate a match first,
                        // then admit the take at the match's owner only.
                        self.start_scatter(ctx, op, template.clone(), true);
                    }
                }
            }
            Request::Read { ref template, .. } | Request::ReadIfExists { ref template } => {
                match self.map.route_of_template(template) {
                    Route::Owner(owner) => {
                        self.obs.registry.inc(self.obs.ops_read_keyed);
                        let candidates = self.map.replica_set(owner);
                        let first = candidates[0];
                        self.ops.insert(
                            op,
                            OpState {
                                kind: OpKind::KeyedRead(ReadState {
                                    candidates,
                                    failures: 0,
                                    owner_failed: false,
                                }),
                                degraded: false,
                                attempts: 0,
                            },
                        );
                        let probe = Request::ReadIfExists {
                            template: template.clone(),
                        };
                        self.send_sub(ctx, Some(op), first, SubRole::KeyedRead { pos: 0 }, probe);
                    }
                    Route::Scatter => {
                        self.obs.registry.inc(self.obs.ops_read_scatter);
                        self.start_scatter(ctx, op, template.clone(), false);
                    }
                }
            }
            other => {
                // Counts, subscriptions and renewals are per-space
                // concepts; a sharded tier would need merge semantics
                // the router deliberately does not fake.
                ctx.send(
                    self.app,
                    ShardOpDone {
                        op,
                        response: Response::Error {
                            message: format!("request not routable across shards: {other:?}"),
                        },
                        degraded: false,
                        attempts: 0,
                    },
                );
            }
        }
    }

    fn start_scatter(
        &mut self,
        ctx: &mut Context<'_>,
        op: u64,
        template: Template,
        take_after: bool,
    ) {
        let shards = self.map.shards();
        self.ops.insert(
            op,
            OpState {
                kind: OpKind::Scatter(ScatterState {
                    legs: vec![Leg::Pending; usize::from(shards)],
                    take_after,
                }),
                degraded: false,
                attempts: 0,
            },
        );
        for shard in 0..shards {
            let probe = Request::ReadIfExists {
                template: template.clone(),
            };
            self.send_sub(ctx, Some(op), shard, SubRole::ScatterLeg, probe);
        }
    }

    /// Parks a sub-request against its degraded shard and arms the
    /// flush probe.
    fn park(&mut self, ctx: &mut Context<'_>, seq: u64) {
        let Some(entry) = self.table.get_mut(seq) else {
            return;
        };
        let sub = &mut entry.payload;
        if sub.parked {
            return;
        }
        sub.parked = true;
        let shard = sub.shard;
        let op = sub.op;
        if let Some(op) = op {
            if let Some(state) = self.ops.get_mut(&op) {
                state.degraded = true;
            }
        }
        self.obs.inc_parked();
        let idx = usize::from(shard);
        if !self.flush_armed[idx] {
            self.flush_armed[idx] = true;
            ctx.schedule_self_in(self.policy.degraded_retry_delay, FlushQueue { shard });
        }
    }

    /// Retry ladder of a retryable sub-request: park against a degraded
    /// shard (Queue policy), re-send while attempts remain, fail
    /// otherwise.
    fn maybe_retry(&mut self, ctx: &mut Context<'_>, seq: u64) {
        let Some(entry) = self.table.get(seq) else {
            return;
        };
        let shard = usize::from(entry.payload.shard);
        let attempts = entry.attempts();
        let parkable = matches!(
            entry.payload.role,
            SubRole::Write { .. } | SubRole::Take | SubRole::Erase | SubRole::Repair
        );
        if self.degraded[shard]
            && parkable
            && matches!(self.degraded_writes, DegradedWritePolicy::Queue)
        {
            self.park(ctx, seq);
        } else if matches!(
            request_step(attempts, self.policy.max_attempts),
            RequestStep::Retry
        ) {
            // The one-shot suppresses duplicate scheduling: while a
            // delay is already armed, `arm_retry` refuses a second one.
            if let Some(entry) = self.table.get_mut(seq) {
                if let Some(token) = entry.arm_retry() {
                    ctx.schedule_self_in(self.policy.retry_delay, RetryDue { key: seq, token });
                }
            }
        } else {
            self.sub_failed(ctx, seq);
        }
    }

    /// A sub-request is out of options; fold the failure into its op.
    fn sub_failed(&mut self, ctx: &mut Context<'_>, seq: u64) {
        let Some(entry) = self.table.remove(seq) else {
            return;
        };
        let sub = entry.payload;
        match sub.role {
            SubRole::Write { slot } => {
                if let Some(op) = sub.op {
                    self.fail_write_slot(ctx, op, slot);
                }
            }
            SubRole::Take => {
                if let Some(op) = sub.op {
                    if let Some(state) = self.ops.get_mut(&op) {
                        state.degraded = true;
                    }
                    self.answer(
                        ctx,
                        op,
                        Response::Error {
                            message: "take: owner shard unreachable".into(),
                        },
                        true,
                    );
                }
            }
            SubRole::KeyedRead { pos } => {
                if let Some(op) = sub.op {
                    self.advance_keyed_read(ctx, op, &sub.request, pos, true);
                }
            }
            SubRole::ScatterLeg => self.settle_leg(ctx, &sub, Leg::Failed),
            SubRole::Erase | SubRole::Repair => {}
        }
    }

    /// Marks one replica-write slot failed and decides the op's fate:
    /// the op fails as soon as the owner is gone (its ack is mandatory)
    /// or the quorum is arithmetically unreachable.
    fn fail_write_slot(&mut self, ctx: &mut Context<'_>, op: u64, slot: usize) {
        let (fail_now, resolved) = {
            let Some(state) = self.ops.get_mut(&op) else {
                return;
            };
            state.degraded = true;
            let OpKind::Write(w) = &mut state.kind else {
                return;
            };
            w.failed[slot] = true;
            let possible = w
                .acked
                .iter()
                .zip(&w.failed)
                .filter(|(a, f)| **a || !**f)
                .count() as u8;
            let fail_now = !w.answered && (w.failed[0] || possible < w.quorum);
            if fail_now {
                w.answered = true;
            }
            let resolved = w.acked.iter().zip(&w.failed).all(|(a, f)| *a || *f);
            (fail_now, resolved)
        };
        if fail_now {
            self.obs.registry.inc(self.obs.quorum_failures);
            self.answer(
                ctx,
                op,
                Response::Error {
                    message: "write quorum unreachable".into(),
                },
                false,
            );
        }
        if resolved {
            self.ops.remove(&op);
        }
    }

    /// Moves a keyed read to its next replica candidate, or finishes.
    fn advance_keyed_read(
        &mut self,
        ctx: &mut Context<'_>,
        op: u64,
        probe: &Request,
        pos: usize,
        failed: bool,
    ) {
        let next = {
            let Some(state) = self.ops.get_mut(&op) else {
                return;
            };
            let degraded = &mut state.degraded;
            let OpKind::KeyedRead(r) = &mut state.kind else {
                return;
            };
            if failed {
                r.failures += 1;
                *degraded = true;
                if pos == 0 {
                    r.owner_failed = true;
                }
            }
            if pos + 1 < r.candidates.len() {
                Ok(r.candidates[pos + 1])
            } else {
                Err(r.failures == r.candidates.len())
            }
        };
        match next {
            Ok(shard) => {
                self.send_sub(
                    ctx,
                    Some(op),
                    shard,
                    SubRole::KeyedRead { pos: pos + 1 },
                    probe.clone(),
                );
            }
            Err(all_failed) => {
                let response = if all_failed {
                    Response::Error {
                        message: "read: all replicas unreachable".into(),
                    }
                } else {
                    Response::Entry { tuple: None }
                };
                self.answer(ctx, op, response, true);
            }
        }
    }

    /// Records one scatter leg's outcome; gathers once all legs settle.
    fn settle_leg(&mut self, ctx: &mut Context<'_>, sub: &SubOp, outcome: Leg) {
        let Some(op) = sub.op else {
            return;
        };
        let complete = {
            let Some(state) = self.ops.get_mut(&op) else {
                return;
            };
            let degraded = &mut state.degraded;
            let OpKind::Scatter(s) = &mut state.kind else {
                return;
            };
            let idx = usize::from(sub.shard);
            if matches!(s.legs[idx], Leg::Pending) {
                if matches!(outcome, Leg::Failed) {
                    *degraded = true;
                }
                s.legs[idx] = outcome;
            }
            s.legs.iter().all(|l| !matches!(l, Leg::Pending))
        };
        if complete {
            self.finish_scatter(ctx, op);
        }
    }

    /// Gathers a completed scatter: the winning hit is the one already
    /// at its owner shard if any, else the hit from the lowest shard
    /// index — a deterministic choice that never depends on reply
    /// arrival order.
    fn finish_scatter(&mut self, ctx: &mut Context<'_>, op: u64) {
        let (winner, take_after, failed_legs) = {
            let Some(state) = self.ops.get(&op) else {
                return;
            };
            let OpKind::Scatter(s) = &state.kind else {
                return;
            };
            let mut first_hit: Option<(u8, Tuple)> = None;
            let mut at_owner: Option<(u8, Tuple)> = None;
            for (i, leg) in s.legs.iter().enumerate() {
                if let Leg::Hit(t) = leg {
                    let shard = i as u8;
                    if self.map.owner_of_tuple(t) == shard {
                        at_owner = Some((shard, t.clone()));
                        break;
                    }
                    if first_hit.is_none() {
                        first_hit = Some((shard, t.clone()));
                    }
                }
            }
            let failed: Vec<bool> = s.legs.iter().map(|l| matches!(l, Leg::Failed)).collect();
            (at_owner.or(first_hit), s.take_after, failed)
        };
        match winner {
            Some((_, t)) if take_after => {
                let owner = self.map.owner_of_tuple(&t);
                if let Some(state) = self.ops.get_mut(&op) {
                    state.kind = OpKind::Take;
                }
                self.send_sub(
                    ctx,
                    Some(op),
                    owner,
                    SubRole::Take,
                    Request::TakeIfExists {
                        template: Template::exact(&t),
                    },
                );
            }
            Some((shard, t)) => {
                let owner = self.map.owner_of_tuple(&t);
                if shard != owner {
                    self.obs.registry.inc(self.obs.read_repairs);
                    let degraded = failed_legs[usize::from(owner)];
                    if degraded {
                        self.obs.registry.inc(self.obs.degraded_reads);
                    }
                    self.obs.tracer.emit(TraceEvent::ReadRepair {
                        at: ctx.now(),
                        shard: owner,
                        degraded,
                    });
                    self.maybe_repair(ctx, &t);
                }
                self.answer(ctx, op, Response::Entry { tuple: Some(t) }, true);
            }
            None => self.answer(ctx, op, Response::Entry { tuple: None }, true),
        }
    }

    /// Re-issues the original identified write toward a lagging owner —
    /// never for taken keys (that would resurrect consumed data), never
    /// while the original sub-request is still in flight or parked (it
    /// IS the repair), and only under the identity the write already
    /// used, so a copy that did land is deduplicated, not re-applied.
    fn maybe_repair(&mut self, ctx: &mut Context<'_>, tuple: &Tuple) {
        let key = self.key_hash_of(tuple);
        if self.taken_keys.contains(&key) {
            return;
        }
        let owner = self.map.owner_of_tuple(tuple);
        let Some(log) = self.write_log.get(&key) else {
            return;
        };
        let Some(&(_, seq)) = log.iter().find(|(shard, _)| *shard == owner) else {
            return;
        };
        if self.table.contains(seq) {
            return;
        }
        self.obs.registry.inc(self.obs.repair_writes);
        self.table.restore(
            seq,
            SubOp {
                op: None,
                shard: owner,
                role: SubRole::Repair,
                request: Request::Write {
                    tuple: tuple.clone(),
                    lease_ns: None,
                },
                parked: false,
            },
        );
        self.transmit(ctx, seq, false);
    }

    fn on_deliver(&mut self, ctx: &mut Context<'_>, deliver: &NetDeliver) {
        let Ok(message) = server_message_from_wire(&deliver.payload) else {
            self.obs.registry.inc(self.obs.proto.stale_replies);
            return;
        };
        let ServerMessage::Response { re, response } = message else {
            // The router holds no subscriptions; events are not for it.
            return;
        };
        let Some(id) = re else {
            self.obs.registry.inc(self.obs.proto.stale_replies);
            return;
        };
        if id.client != ROUTER_CLIENT_ID {
            self.obs.registry.inc(self.obs.proto.stale_replies);
            return;
        }
        // The server completed this seq whether or not anyone is still
        // waiting: settle it so its dedup entry can eventually retire.
        self.table.settle(id.seq);
        let Some(entry) = self.table.remove(id.seq) else {
            self.obs.registry.inc(self.obs.proto.stale_replies);
            return;
        };
        let sub = entry.payload;
        // A reply is proof of life.
        self.degraded[usize::from(sub.shard)] = false;
        match sub.role {
            SubRole::Write { slot } => self.on_write_reply(ctx, &sub, slot, response),
            SubRole::Take => self.on_take_reply(ctx, &sub, response),
            SubRole::KeyedRead { pos } => self.on_keyed_read_reply(ctx, &sub, pos, response),
            SubRole::ScatterLeg => {
                let outcome = match response {
                    Response::Entry { tuple: Some(t) } => Leg::Hit(t),
                    Response::Entry { tuple: None } => Leg::Miss,
                    _ => Leg::Failed,
                };
                self.settle_leg(ctx, &sub, outcome);
            }
            SubRole::Erase | SubRole::Repair => {}
        }
    }

    fn on_write_reply(
        &mut self,
        ctx: &mut Context<'_>,
        sub: &SubOp,
        slot: usize,
        response: Response,
    ) {
        let Some(op) = sub.op else {
            return;
        };
        if !matches!(response, Response::WriteAck) {
            // A server-level error on a write: the replica refused, not
            // lost — no point retrying the same request.
            self.fail_write_slot(ctx, op, slot);
            return;
        }
        let outcome = self.ops.get_mut(&op).and_then(|state| {
            let OpKind::Write(w) = &mut state.kind else {
                return None;
            };
            w.acked[slot] = true;
            let acked = w.acked.iter().filter(|a| **a).count() as u8;
            let reached = !w.answered && acked >= w.quorum && w.acked[0];
            if reached {
                w.answered = true;
            }
            let resolved = w.acked.iter().zip(&w.failed).all(|(a, f)| *a || *f);
            Some((acked, reached, resolved))
        });
        let Some((acked_count, reached_quorum, resolved)) = outcome else {
            return;
        };
        self.obs.tracer.emit(TraceEvent::Replicate {
            at: ctx.now(),
            shard: sub.shard,
            acked: acked_count,
            quorum: reached_quorum,
        });
        if reached_quorum {
            self.obs.registry.inc(self.obs.quorum_acks);
            self.answer(ctx, op, Response::WriteAck, false);
        }
        if resolved {
            self.ops.remove(&op);
        }
    }

    fn on_take_reply(&mut self, ctx: &mut Context<'_>, sub: &SubOp, response: Response) {
        let Some(op) = sub.op else {
            return;
        };
        match response {
            Response::Entry { tuple: Some(t) } => {
                let key = self.key_hash_of(&t);
                self.taken_keys.insert(key);
                self.answer(
                    ctx,
                    op,
                    Response::Entry {
                        tuple: Some(t.clone()),
                    },
                    true,
                );
                // The owner surrendered the tuple; erase the copies so
                // replicas converge. Erases are detached and idempotent
                // (exact template: a second erase finds nothing).
                for shard in self.map.replicas_of_tuple(&t) {
                    if shard != sub.shard {
                        self.obs.registry.inc(self.obs.replica_erases);
                        self.send_sub(
                            ctx,
                            None,
                            shard,
                            SubRole::Erase,
                            Request::TakeIfExists {
                                template: Template::exact(&t),
                            },
                        );
                    }
                }
            }
            Response::Entry { tuple: None } => {
                self.answer(ctx, op, Response::Entry { tuple: None }, true);
            }
            Response::Error { message } => {
                self.answer(ctx, op, Response::Error { message }, true);
            }
            other => {
                self.answer(
                    ctx,
                    op,
                    Response::Error {
                        message: format!("unexpected take reply: {other:?}"),
                    },
                    true,
                );
            }
        }
    }

    fn on_keyed_read_reply(
        &mut self,
        ctx: &mut Context<'_>,
        sub: &SubOp,
        pos: usize,
        response: Response,
    ) {
        let Some(op) = sub.op else {
            return;
        };
        match response {
            Response::Entry { tuple: Some(t) } => {
                if pos > 0 {
                    let info = self.ops.get(&op).and_then(|state| match &state.kind {
                        OpKind::KeyedRead(r) => Some((r.candidates[0], r.owner_failed)),
                        _ => None,
                    });
                    if let Some((owner, owner_failed)) = info {
                        self.obs.registry.inc(self.obs.read_repairs);
                        if owner_failed {
                            self.obs.registry.inc(self.obs.degraded_reads);
                        }
                        self.obs.tracer.emit(TraceEvent::ReadRepair {
                            at: ctx.now(),
                            shard: owner,
                            degraded: owner_failed,
                        });
                        self.maybe_repair(ctx, &t);
                    }
                }
                self.answer(ctx, op, Response::Entry { tuple: Some(t) }, true);
            }
            Response::Entry { tuple: None } => {
                self.advance_keyed_read(ctx, op, &sub.request, pos, false);
            }
            _ => self.advance_keyed_read(ctx, op, &sub.request, pos, true),
        }
    }

    fn on_net_error(&mut self, ctx: &mut Context<'_>, error: &NetError) {
        let Some(idx) = self.server_nodes.iter().position(|n| *n == error.to) else {
            return;
        };
        let shard = idx as u8;
        if error.fast {
            self.obs.proto.fast_fail(&mut self.obs.registry);
            self.degraded[idx] = true;
        }
        // The transport error does not name a seq, so every in-flight
        // sub-request toward that shard is treated as failed. That is an
        // over-approximation, and a safe one: write/take retries reuse
        // their identity (idempotent), reads at worst re-probe.
        let seqs: Vec<u64> = self
            .table
            .iter()
            .filter(|(_, e)| e.payload.shard == shard && !e.payload.parked)
            .map(|(seq, _)| seq)
            .collect();
        for seq in seqs {
            let Some(role) = self.table.get(seq).map(|e| e.payload.role.clone()) else {
                continue;
            };
            match role {
                SubRole::ScatterLeg => {
                    if let Some(entry) = self.table.remove(seq) {
                        self.settle_leg(ctx, &entry.payload, Leg::Failed);
                    }
                }
                SubRole::KeyedRead { .. } => self.sub_failed(ctx, seq),
                _ if error.fast => match self.degraded_writes {
                    DegradedWritePolicy::Queue => self.park(ctx, seq),
                    DegradedWritePolicy::FastFail => self.sub_failed(ctx, seq),
                },
                _ => self.maybe_retry(ctx, seq),
            }
        }
    }

    fn on_timeout(&mut self, ctx: &mut Context<'_>, timeout: &ReplyDue) {
        let seq = timeout.key;
        let Some(entry) = self.table.get(seq) else {
            return;
        };
        // Deadline tokens are per-attempt: a token stamped before the
        // current attempt (or while an old flush re-send is superseded)
        // is stale and the firing is a no-op.
        if !entry.is_current(timeout.token) || entry.payload.parked {
            return;
        }
        match entry.payload.role {
            // Legs live and die by the scatter deadline.
            SubRole::ScatterLeg => {}
            // A read probe that timed out falls through to the next
            // replica rather than hammering the same one.
            SubRole::KeyedRead { .. } => {
                self.obs.registry.inc(self.obs.proto.reply_timeouts);
                self.sub_failed(ctx, seq);
            }
            _ => {
                self.obs.registry.inc(self.obs.proto.reply_timeouts);
                self.maybe_retry(ctx, seq);
            }
        }
    }

    fn on_retry(&mut self, ctx: &mut Context<'_>, retry: &RetryDue) {
        let seq = retry.key;
        let (shard, parkable) = {
            let Some(entry) = self.table.get_mut(seq) else {
                return;
            };
            // The firing consumes the armed delay whether or not the
            // sub is parked — the engine's one-shot enforces what used
            // to be a hand-maintained `retry_armed` flag (a sub parked
            // mid-delay with a stale flag could never re-arm after its
            // flush probe, wedging the operation).
            if !entry.fire_retry(retry.token) {
                return;
            }
            if entry.payload.parked {
                // Parked while the delay ran; the flush probe owns it.
                return;
            }
            (
                usize::from(entry.payload.shard),
                matches!(
                    entry.payload.role,
                    SubRole::Write { .. } | SubRole::Take | SubRole::Erase | SubRole::Repair
                ),
            )
        };
        // The shard may have degraded while the retry delay ran.
        if self.degraded[shard]
            && parkable
            && matches!(self.degraded_writes, DegradedWritePolicy::Queue)
        {
            self.park(ctx, seq);
            return;
        }
        self.obs.registry.inc(self.obs.proto.retries);
        if self.policy.exactly_once {
            if let Some(entry) = self.table.get_mut(seq) {
                entry.next_attempt();
            }
            self.transmit(ctx, seq, false);
        } else {
            // Ablation: a fresh identity per attempt. The server cannot
            // tell the retry from a new request, so a lost reply means
            // the operation applies twice.
            let Some(seq) = self.table.rekey(seq) else {
                return;
            };
            if let Some(entry) = self.table.get_mut(seq) {
                entry.next_attempt();
            }
            self.transmit(ctx, seq, false);
        }
    }

    fn on_deadline(&mut self, ctx: &mut Context<'_>, deadline: &ScatterDeadline) {
        let Some(entry) = self.table.remove(deadline.seq) else {
            return;
        };
        self.obs.registry.inc(self.obs.proto.reply_timeouts);
        self.settle_leg(ctx, &entry.payload, Leg::Failed);
    }

    fn on_flush(&mut self, ctx: &mut Context<'_>, flush: &FlushQueue) {
        let idx = usize::from(flush.shard);
        self.flush_armed[idx] = false;
        let parked: Vec<u64> = self
            .table
            .iter()
            .filter(|(_, e)| e.payload.shard == flush.shard && e.payload.parked)
            .map(|(seq, _)| seq)
            .collect();
        if parked.is_empty() {
            return;
        }
        self.obs.inc_flush();
        for seq in parked {
            if let Some(entry) = self.table.get_mut(seq) {
                // A flush probe is not a fresh attempt: under the Queue
                // policy a long outage parks writes indefinitely instead
                // of burning their attempt budget. (No epoch bump — an
                // older reply deadline for this attempt stays valid.)
                entry.payload.parked = false;
            }
            self.transmit(ctx, seq, false);
        }
    }
}

impl Component for ShardRouter {
    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        let msg = match msg.downcast::<ShardOp>() {
            Ok(op) => {
                self.start_op(ctx, op.op, op.request);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<ReplyDue>() {
            Ok(timeout) => {
                self.on_timeout(ctx, &timeout);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RetryDue>() {
            Ok(retry) => {
                self.on_retry(ctx, &retry);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<ScatterDeadline>() {
            Ok(deadline) => {
                self.on_deadline(ctx, &deadline);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<FlushQueue>() {
            Ok(flush) => {
                self.on_flush(ctx, &flush);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<NetDeliver>() {
            Ok(deliver) => {
                self.on_deliver(ctx, &deliver);
                return;
            }
            Err(m) => m,
        };
        if let Ok(error) = msg.downcast::<NetError>() {
            self.on_net_error(ctx, &error);
        }
    }
}
