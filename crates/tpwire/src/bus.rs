//! The discrete-event TpWIRE bus model: master scheduler, daisy chain of
//! [`SlaveDevice`]s, retry/timeout handling, interrupt-driven stream relay
//! and *n*-wire lanes.
//!
//! ## Service model
//!
//! Attached components exchange **byte streams** through the bus:
//!
//! * [`SendStream`] — queue a payload at a source slave, addressed to
//!   another slave or to the master. The bus pushes a 3-byte header
//!   (`[dst, len_hi, len_lo]`) plus the payload into the source slave's
//!   outbound FIFO; the slave raises its interrupt flag.
//! * The **master** discovers pending data honestly, over the wire: its
//!   periodic round-robin keep-alive poll (a `SELECT_NODE` transaction whose
//!   acknowledge carries the slave's pending-interrupt bit) finds the
//!   source, reads the header, and relays the payload with
//!   `READ_DATA`/`WRITE_DATA` bursts through the stream FIFO, re-arbitrating
//!   between flows every [`BusParams::relay_chunk`] bytes. INT bits observed
//!   on in-flight RX frames accelerate polling.
//! * [`StreamDelivered`] — chunks arriving at the destination, with an
//!   `end_of_message` marker; [`StreamSent`] / [`StreamFailed`] report
//!   completion to the sender's attachment.
//!
//! ## Fidelity notes (see also `DESIGN.md` §5)
//!
//! * Every TX frame feeds every slave's reset watchdog (daisy-chain
//!   pass-through), so any bus activity keeps the chain alive; only a truly
//!   idle bus lets slaves reach the 2048-bit reset timeout.
//! * Frame errors: a corrupted TX executes nowhere and costs the master a
//!   response timeout before the resend; a corrupted RX means the slave
//!   *did* execute. The master distinguishes the two (timeout vs bad CRC):
//!   after a lost acknowledge of a write-class command it proceeds without
//!   resending (the write happened), and retried stream reads are made
//!   idempotent by the alternating-bit read port (`DATA[0]` toggle), so
//!   streams survive frame errors without duplication or loss.
//! * In `ParallelBuses` wiring, concurrent lanes never touch the same slave
//!   at the same time (per-slave ownership is held for the duration of a
//!   service slot), modeling driver-level mutual exclusion.
//!
//! ## Transaction engine
//!
//! Each lane has at most one transaction in flight: one TX frame, or one
//! DMA burst (arming plus block, folded into one cost). Both kinds go
//! through one `issue`, which books the lane busy, computes the attempt's
//! cost and outcome, and schedules one `TxnComplete` for the lane. The
//! completion runs the shared `frame_step` retry ladder for both kinds;
//! a backoff keeps the transaction on the lane and wakes it with a
//! `Retry` that carries only the lane index. Only a lost acknowledge of a
//! write-class frame skips the ladder (the command executed). Per-kind
//! RNG draws keep their order: a frame draws its TX corruption, then its
//! RX corruption if a slave replied; a burst draws the burst channel's
//! rate (`per_frame_error_rate`), then body corruption, then the block
//! acknowledge.

use std::collections::VecDeque;

use bytes::Bytes;
use tsbus_des::{Component, ComponentId, Context, Message, MessageExt, SimDuration, SimTime};
use tsbus_faults::{Admission, BreakerState, FaultCommand, FaultKind, FrameClass, GilbertElliott};
use tsbus_proto::{frame_step, FrameStep};

use crate::frame::{Command, RxFrame, RxType, TxFrame};
use crate::instrument::{BusInstruments, BusStats};
use crate::node::{AddressSpace, NodeId, NodeTable};
use crate::slave::{SlaveDevice, STREAM_ADDR};
use crate::supervisor::Supervisor;
use crate::timing::FrameTiming;
use crate::wiring::{BusParams, RESET_TIMEOUT_BITS};

/// Header byte that addresses the master instead of a slave.
const DST_MASTER: u8 = 0x80;

/// Length of the relay header pushed ahead of every stream payload.
pub(crate) const STREAM_HEADER_BYTES: usize = 3;

/// Largest payload one [`SendStream`] may carry (16-bit length field).
pub(crate) const MAX_STREAM_PAYLOAD: usize = u16::MAX as usize;

/// One end of a stream transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamEndpoint {
    /// The bus master (or its attached host).
    Master,
    /// A slave node.
    Slave(NodeId),
}

impl std::fmt::Display for StreamEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamEndpoint::Master => write!(f, "master"),
            StreamEndpoint::Slave(node) => write!(f, "{node}"),
        }
    }
}

/// Message to the bus: queue `payload` at slave `from`, addressed to `to`.
///
/// The payload (plus a 3-byte relay header) enters the source slave's
/// outbound FIFO immediately; the actual transfer starts once the master
/// discovers the slave's interrupt over the wire.
#[derive(Debug)]
pub struct SendStream {
    /// The slave whose attachment is sending.
    pub from: NodeId,
    /// The destination endpoint.
    pub to: StreamEndpoint,
    /// The application payload (may be empty).
    pub payload: Bytes,
}

/// Message to the bus: write `command` into *every* slave's command
/// register at once, through the virtual broadcast node (id 127) — the
/// specification's mechanism "to access all nodes simultaneously".
///
/// Broadcast transactions elicit no RX frames; the master fires and
/// forgets (two frames: a broadcast `SELECT_NODE`, then the
/// `WRITE_COMMAND`).
#[derive(Debug)]
pub struct BroadcastCommand {
    /// The value written into every slave's command register.
    pub command: u8,
}

/// Message to the bus: the master's host sends `payload` to a slave
/// directly (no discovery; the master originates the write burst).
#[derive(Debug)]
pub struct MasterSend {
    /// The destination slave.
    pub to: NodeId,
    /// The application payload (may be empty).
    pub payload: Bytes,
}

/// Message from the bus to a destination attachment: a chunk of stream
/// bytes arrived.
#[derive(Debug)]
pub struct StreamDelivered {
    /// Originating endpoint.
    pub from: StreamEndpoint,
    /// Destination endpoint (the attachment receiving this message).
    pub to: StreamEndpoint,
    /// The chunk of payload bytes, in order.
    pub bytes: Bytes,
    /// True on the final chunk of one [`SendStream`] / [`MasterSend`]
    /// payload.
    pub end_of_message: bool,
}

/// Message from the bus to the sender's attachment: the payload was fully
/// relayed.
#[derive(Debug)]
pub struct StreamSent {
    /// Originating endpoint.
    pub from: StreamEndpoint,
    /// Destination endpoint.
    pub to: StreamEndpoint,
    /// Payload length in bytes.
    pub len: usize,
}

/// Message from the bus to the sender's attachment: the transfer was
/// abandoned (transaction retries exhausted, or the header named an unknown
/// destination).
#[derive(Debug)]
pub struct StreamFailed {
    /// Originating endpoint.
    pub from: StreamEndpoint,
    /// Destination endpoint as far as it was known.
    pub to: Option<StreamEndpoint>,
    /// Human-readable reason.
    pub reason: String,
    /// Whether the failure was a supervision fast-fail (circuit breaker
    /// open) rather than exhausted retries — fast failures burned no
    /// backoff on the wire and may be retried sooner by the caller.
    pub fast: bool,
}

/// Where a relay job's bytes come from.
#[derive(Debug)]
enum JobSource {
    /// The stream FIFO of the slave at this chain position (read over the
    /// wire).
    Fifo(usize),
    /// Bytes the master already holds (a [`MasterSend`]).
    Local(VecDeque<u8>),
}

/// A stream transfer in progress.
#[derive(Debug)]
struct RelayJob {
    from: StreamEndpoint,
    to: StreamEndpoint,
    source: JobSource,
    dst_pos: Option<usize>,
    total: usize,
    read_done: usize,
    written: usize,
    buffer: VecDeque<u8>,
    /// Read budget left in the current service slot.
    chunk_left: usize,
    /// Whether the current slot is in its write phase.
    writing: bool,
    /// Read-and-discard job (unknown destination recovery): the payload is
    /// drained from the source FIFO but never delivered.
    discard: bool,
}

impl RelayJob {
    /// A job that has moved no bytes yet.
    fn new(
        from: StreamEndpoint,
        to: StreamEndpoint,
        source: JobSource,
        dst_pos: Option<usize>,
        total: usize,
    ) -> Self {
        RelayJob {
            from,
            to,
            source,
            dst_pos,
            total,
            read_done: 0,
            written: 0,
            buffer: VecDeque::new(),
            chunk_left: 0,
            writing: false,
            discard: false,
        }
    }

    fn src_pos(&self) -> Option<usize> {
        match self.source {
            JobSource::Fifo(pos) => Some(pos),
            JobSource::Local(_) => None,
        }
    }
}

/// One decision of the job state machine (see
/// [`TpWireBus::continue_job`]).
#[derive(Debug)]
enum JobStep {
    /// Read (or, with `write`, write) one payload byte through the stream
    /// FIFO of the slave at `pos`, selecting it and parking its pointer
    /// first where needed.
    Byte { pos: usize, write: bool },
    /// Move a block to or from the slave at `pos` in one DMA burst.
    Burst { pos: usize, txn: Txn },
    /// Hand buffered bytes to the master attachment (no transactions).
    DeliverToMaster {
        from: StreamEndpoint,
        bytes: Vec<u8>,
        end_of_message: bool,
        discard: bool,
    },
    /// Drain the destination slave's inbound FIFO to its attachment, then
    /// handle the chunk boundary.
    DrainInboundThenBoundary {
        from: StreamEndpoint,
        to: StreamEndpoint,
        dst_pos: usize,
        end_of_message: bool,
    },
    /// Nothing buffered: go straight to the chunk boundary.
    ChunkBoundary,
}

/// What the master is doing on one lane.
#[derive(Debug)]
enum Activity {
    /// A chain-wide broadcast in progress; the remaining command value to
    /// send after the broadcast select (`None` once it went out).
    Broadcast { pending_command: Option<u8> },
    /// Keep-alive / discovery poll of the slave at `pos`.
    Poll { pos: usize },
    /// Reading the 3-byte relay header from the slave at `src_pos`.
    Discover { src_pos: usize, header: Vec<u8> },
    /// Relaying a stream payload.
    Job(RelayJob),
}

/// Per-lane master state.
#[derive(Debug)]
struct Lane {
    activity: Option<Activity>,
    /// The transaction on the wire, or waiting out its retry backoff.
    in_flight: Option<InFlight>,
    /// Master's belief about which node is selected on this lane.
    selected: Option<(u8, AddressSpace)>,
    /// Master's belief that the selected node's pointer sits at the stream
    /// FIFO (conservative: cleared on every selection change).
    ptr_at_stream: bool,
    /// Open busy interval start (closed into the instruments' per-lane
    /// busy-time accumulator when the lane idles).
    busy_since: Option<SimTime>,
}

impl Lane {
    /// Neither running an activity nor holding a transaction.
    fn is_idle(&self) -> bool {
        self.activity.is_none() && self.in_flight.is_none()
    }
}

/// One bus transaction.
#[derive(Debug)]
enum Txn {
    /// One ordinary TX frame transaction.
    Frame(TxFrame),
    /// A DMA burst reading up to `k` stream bytes from the slave at `pos`.
    DmaRead { pos: usize, k: usize },
    /// A DMA burst writing these stream bytes to the slave at `pos`.
    DmaWrite { pos: usize, bytes: Vec<u8> },
}

impl Txn {
    /// The retry class the transaction is budgeted and booked under.
    fn class(&self) -> FrameClass {
        match self {
            Txn::Frame(TxFrame {
                cmd: Command::ReadData,
                ..
            })
            | Txn::DmaRead { .. } => FrameClass::StreamRead,
            Txn::Frame(TxFrame {
                cmd: Command::WriteData,
                ..
            })
            | Txn::DmaWrite { .. } => FrameClass::StreamWrite,
            Txn::Frame(_) => FrameClass::Control,
        }
    }
}

#[derive(Debug)]
struct InFlight {
    txn: Txn,
    attempts: u8,
}

/// Outcome of one transaction attempt, delivered as a self-message.
#[derive(Debug)]
struct TxnComplete {
    lane: usize,
    outcome: Outcome,
}

#[derive(Debug)]
enum Outcome {
    /// A valid RX arrived.
    Ok(RxFrame),
    /// A DMA burst completed; for reads, carries the block.
    BurstOk(Vec<u8>),
    /// No RX within the response timeout (corrupt TX, missing node, slave
    /// in reset): the command did not execute anywhere.
    NoReply,
    /// An RX arrived but failed its CRC check: the slave *did* execute the
    /// command, only the reply was lost.
    BadRx,
}

/// The periodic poll timer.
#[derive(Debug)]
struct PollTimer;

/// Self-message: a backoff delay elapsed, resend the lane's transaction.
#[derive(Debug)]
struct Retry {
    lane: usize,
}

/// The TpWIRE bus as a simulation component.
///
/// Build it with a chain of node ids (position in the vector = daisy-chain
/// position, nearest to the master first), attach device components with
/// [`attach`](TpWireBus::attach), then drive it with [`SendStream`] /
/// [`MasterSend`] messages. See `tests/` in this crate for end-to-end
/// examples.
#[derive(Debug)]
pub struct TpWireBus {
    params: BusParams,
    /// Every per-frame duration, converted once from `params`.
    timing: FrameTiming,
    chain: Vec<SlaveDevice>,
    /// raw node id → chain position.
    positions: NodeTable<usize>,
    attachments: NodeTable<ComponentId>,
    master_attachment: Option<ComponentId>,
    lanes: Vec<Lane>,
    /// Parked jobs awaiting a lane.
    jobs: VecDeque<RelayJob>,
    /// Broadcast commands waiting for a lane (highest priority: chain-wide
    /// control actions preempt data transfers at the next slot).
    broadcasts: VecDeque<u8>,
    /// Which lane currently owns each slave position (mutual exclusion
    /// between lanes in multi-lane wirings).
    owners: Vec<Option<usize>>,
    /// Per-lane, per-slave alternating-bit state for stream FIFO reads:
    /// the toggle the next fresh `READ_DATA` on that lane will carry.
    read_toggles: Vec<Vec<bool>>,
    /// An RX INT bit was observed; accelerate polling.
    int_seen: bool,
    poll_cursor: usize,
    /// Per-lane poll deadlines. Unsupervised, every poll moves them all
    /// together (one bus-wide deadline). Under supervision each lane keeps
    /// its own: the wire plan restricts each lane to its own positions, so
    /// a shared deadline would let whichever lane is kicked first claim
    /// every cycle and starve the other lanes' keep-alive (and
    /// quarantine-probe) polls.
    lane_poll_due: Vec<SimTime>,
    poll_timer_armed: bool,
    obs: BusInstruments,
    /// Gilbert-Elliott burst error channel, when configured.
    burst: Option<GilbertElliott>,
    /// Fault state: crashed (unresponsive) slaves, by chain position.
    crashed: Vec<bool>,
    /// Fault state: when set, only positions `< break_after` are reachable
    /// (the daisy chain is severed after that many devices).
    break_after: Option<usize>,
    /// The supervision layer (circuit breakers + lane plan), when
    /// configured via [`BusParams::supervision`].
    supervisor: Option<Supervisor>,
}

impl TpWireBus {
    /// Creates a bus with the given parameters and slave chain.
    ///
    /// # Panics
    ///
    /// Panics if `chain` is empty or contains a duplicate node id.
    #[must_use]
    pub fn new(mut params: BusParams, chain: Vec<NodeId>) -> Self {
        assert!(
            !chain.is_empty(),
            "a TpWIRE network needs at least one slave"
        );
        // PR 1's discovered constraint, now checked: a retry schedule whose
        // worst-case cumulative backoff exceeds the 2048-bit reset timeout
        // would silently reset the very slave it is trying to reach. Clamp
        // it and book a warning instead of simulating nonsense.
        let (retry, clamped) = params
            .retry
            .clamped_to_watchdog(u64::from(RESET_TIMEOUT_BITS));
        params.retry = retry;
        let mut positions = NodeTable::new();
        let devices: Vec<SlaveDevice> = chain
            .iter()
            .enumerate()
            .map(|(pos, &node)| {
                let previous = positions.insert(node, pos);
                assert!(previous.is_none(), "duplicate node id {node} in chain");
                let mut device = SlaveDevice::new(node);
                device.set_port_count(usize::from(params.wiring.lanes()));
                device
            })
            .collect();
        let lanes = (0..params.wiring.lanes())
            .map(|_| Lane {
                activity: None,
                in_flight: None,
                selected: None,
                ptr_at_stream: false,
                busy_since: None,
            })
            .collect();
        let owners = vec![None; devices.len()];
        let read_toggles = vec![vec![true; devices.len()]; usize::from(params.wiring.lanes())];
        let crashed = vec![false; devices.len()];
        let mut obs = BusInstruments::new(usize::from(params.wiring.lanes()));
        if clamped {
            obs.retry_policy_clamped();
        }
        let supervisor = params.supervision.map(|cfg| {
            obs.enable_supervision(devices.len());
            Supervisor::new(
                cfg,
                params.bits64_to_time(cfg.open_bits),
                params.wiring.lanes(),
                devices.len(),
            )
        });
        TpWireBus {
            params,
            timing: FrameTiming::new(&params, devices.len()),
            chain: devices,
            positions,
            attachments: NodeTable::new(),
            master_attachment: None,
            lanes,
            jobs: VecDeque::new(),
            broadcasts: VecDeque::new(),
            owners,
            read_toggles,
            int_seen: false,
            poll_cursor: 0,
            lane_poll_due: vec![SimTime::ZERO; usize::from(params.wiring.lanes())],
            poll_timer_armed: false,
            obs,
            burst: params.burst_error.map(GilbertElliott::new),
            crashed,
            break_after: None,
            supervisor,
        }
    }

    /// Registers `component` to receive [`StreamDelivered`] /
    /// [`StreamSent`] / [`StreamFailed`] messages for `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of the chain.
    pub fn attach(&mut self, node: NodeId, component: ComponentId) {
        assert!(
            self.positions.get(node.raw()).is_some(),
            "{node} is not part of this chain"
        );
        self.attachments.insert(node, component);
    }

    /// Registers the component receiving master-addressed deliveries.
    pub fn attach_master(&mut self, component: ComponentId) {
        self.master_attachment = Some(component);
    }

    /// Borrows the slave with the given node id, if present.
    #[must_use]
    pub fn slave(&self, node: NodeId) -> Option<&SlaveDevice> {
        self.positions.get(node.raw()).map(|pos| &self.chain[pos])
    }

    /// Aggregate statistics so far, read back from the registry.
    #[must_use]
    pub fn stats(&self) -> BusStats {
        self.obs.stats()
    }

    /// The bus's instrument set (registry and typed trace ring).
    #[must_use]
    pub fn obs(&self) -> &BusInstruments {
        &self.obs
    }

    /// Mutable access to the instrument set.
    pub fn obs_mut(&mut self) -> &mut BusInstruments {
        &mut self.obs
    }

    /// Fraction of time the given lane's transmitter was busy in
    /// `[0, now]`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range for the wiring.
    #[must_use]
    pub fn lane_utilization(&self, lane: usize, now: SimTime) -> f64 {
        let extra = match self.lanes[lane].busy_since {
            Some(since) => now.saturating_duration_since(since),
            None => tsbus_des::SimDuration::ZERO,
        };
        let busy = self.obs.lane_busy_total(lane) + extra;
        let window = now.as_secs_f64();
        if window <= 0.0 {
            0.0
        } else {
            (busy.as_secs_f64() / window).min(1.0)
        }
    }

    fn attachment_of(&self, endpoint: StreamEndpoint) -> Option<ComponentId> {
        match endpoint {
            StreamEndpoint::Master => self.master_attachment,
            StreamEndpoint::Slave(node) => self.attachments.get(node.raw()),
        }
    }

    fn notify(&mut self, ctx: &mut Context<'_>, endpoint: StreamEndpoint, msg: impl Message) {
        if let Some(component) = self.attachment_of(endpoint) {
            ctx.send(component, msg);
        } else {
            let node = match endpoint {
                StreamEndpoint::Master => DST_MASTER,
                StreamEndpoint::Slave(node) => node.raw(),
            };
            self.obs.delivery_dropped(ctx.now(), node);
        }
    }

    // ------------------------------------------------------------------
    // Fault state
    // ------------------------------------------------------------------

    /// Whether the slave at `pos` is alive and on the master's side of any
    /// chain break.
    fn reachable(&self, pos: usize) -> bool {
        !self.crashed[pos] && self.break_after.is_none_or(|after| pos < after)
    }

    /// Draws whether a single frame transmitted now is corrupted: the
    /// uniform per-frame rate OR'd with the burst channel's current state.
    fn frame_corrupted(&mut self, ctx: &mut Context<'_>) -> bool {
        let rate = self.params.frame_error_rate;
        let uniform = rate > 0.0 && ctx.rng().chance(rate);
        let bursty = match self.burst.as_mut() {
            Some(channel) => channel.corrupts(ctx.now(), self.timing.frame, ctx.rng()),
            None => false,
        };
        uniform | bursty
    }

    /// The combined per-frame error probability right now (uniform rate
    /// plus the burst channel's current state), for aggregating over the
    /// back-to-back frames of a DMA burst.
    fn per_frame_error_rate(&mut self, ctx: &mut Context<'_>) -> f64 {
        let burst_rate = match self.burst.as_mut() {
            Some(channel) => channel.rate_at(ctx.now(), self.timing.frame, ctx.rng()),
            None => 0.0,
        };
        1.0 - (1.0 - self.params.frame_error_rate) * (1.0 - burst_rate)
    }

    /// The node the master believes is selected on `lane` (the broadcast
    /// id when no selection is held — e.g. a failed select itself).
    fn lane_node(&self, lane_idx: usize) -> u8 {
        self.lanes[lane_idx]
            .selected
            .map_or(NodeId::BROADCAST.raw(), |(node, _)| node)
    }

    // ------------------------------------------------------------------
    // Supervision
    // ------------------------------------------------------------------

    /// The chain position a frame on `lane` addresses: the selection target
    /// of a `SelectNode`, the currently selected node otherwise; `None` for
    /// broadcasts and unknown nodes.
    fn frame_target_pos(&self, lane_idx: usize, frame: &TxFrame) -> Option<usize> {
        let raw = match frame.cmd {
            Command::SelectNode => frame.data & 0x7F,
            _ => self.lane_node(lane_idx),
        };
        if raw == NodeId::BROADCAST.raw() {
            return None;
        }
        self.positions.get(raw)
    }

    /// The node a transaction on `lane` is booked against, and — under
    /// supervision — the chain position whose breaker judges it: for a
    /// frame, the node the lane has selected and
    /// [`frame_target_pos`](TpWireBus::frame_target_pos); for a burst, its
    /// target slave.
    fn target(&self, lane_idx: usize, txn: &Txn) -> (u8, Option<usize>) {
        let supervised = self.supervisor.is_some();
        match txn {
            Txn::Frame(frame) => (
                self.lane_node(lane_idx),
                supervised
                    .then(|| self.frame_target_pos(lane_idx, frame))
                    .flatten(),
            ),
            Txn::DmaRead { pos, .. } | Txn::DmaWrite { pos, .. } => {
                (self.chain[*pos].node().raw(), supervised.then_some(*pos))
            }
        }
    }

    /// Whether `pos`'s breaker is Open right now (always `false` when
    /// supervision is off).
    fn breaker_open(&self, pos: usize) -> bool {
        self.supervisor
            .as_ref()
            .is_some_and(|sup| sup.state(pos) == BreakerState::Open)
    }

    /// Whether regular traffic for `pos` must fail fast (Open or
    /// Half-Open; always `false` when supervision is off).
    fn traffic_quarantined(&self, pos: usize) -> bool {
        self.supervisor
            .as_ref()
            .is_some_and(|sup| sup.quarantined(pos))
    }

    /// Feeds one transaction outcome for the slave at `pos` into its
    /// breaker, booking probe results and any fallout (transition trace,
    /// quarantine spans, rebalances) into the instruments. No-op when
    /// supervision is off.
    fn supervise_outcome(&mut self, now: SimTime, pos: usize, ok: bool) {
        let Some(sup) = self.supervisor.as_mut() else {
            return;
        };
        let node = self.chain[pos].node().raw();
        let was_probing = sup.state(pos) == BreakerState::HalfOpen;
        if was_probing {
            self.obs.probe(now, node, ok);
        }
        let effects = sup.record(now, pos, ok);
        if let Some(tr) = effects.transition {
            self.obs.breaker_transition(now, node, tr.from, tr.to);
        }
        if let Some(span) = effects.quarantine_closed {
            self.obs.slave_open_span(pos, span);
        }
        for (lane, moved, restored) in effects.rebalances {
            self.obs.rebalance(now, lane, moved, restored);
        }
        if let Some(span) = effects.degraded_closed {
            self.obs.degraded_span(span);
        }
    }

    /// Fails the relay job on `lane` fast because `pos` is quarantined
    /// (no transaction is issued, no backoff is burned).
    fn fast_fail_job(&mut self, ctx: &mut Context<'_>, lane_idx: usize, pos: usize) {
        let job = self.take_job(lane_idx);
        let node = self.chain[pos].node().raw();
        self.obs.fast_fail(ctx.now(), node);
        self.fail_job(ctx, lane_idx, job, "slave quarantined by bus supervision");
        self.schedule_lane(ctx, lane_idx);
    }

    /// Whether the supervision layer's rebalancing currently conserves the
    /// lane assignment (trivially `true` when supervision is off). The
    /// chaos harness asserts this after every trial.
    #[must_use]
    pub fn supervision_conserved(&self) -> bool {
        self.supervisor
            .as_ref()
            .is_none_or(Supervisor::conserves_assignment)
    }

    /// The circuit-breaker state of `node`, when supervision is on and the
    /// node is part of the chain.
    #[must_use]
    pub fn breaker_state(&self, node: NodeId) -> Option<BreakerState> {
        let sup = self.supervisor.as_ref()?;
        let pos = self.positions.get(node.raw())?;
        Some(sup.state(pos))
    }

    /// Fraction of `[0, now]` the slave `node` was *not* quarantined.
    /// `1.0` when supervision is off or the node is unknown.
    #[must_use]
    pub fn slave_availability(&self, node: NodeId, now: SimTime) -> f64 {
        let (Some(sup), Some(pos)) = (self.supervisor.as_ref(), self.positions.get(node.raw()))
        else {
            return 1.0;
        };
        let residual = match sup.quarantined_since(pos) {
            Some(since) => now.saturating_duration_since(since),
            None => tsbus_des::SimDuration::ZERO,
        };
        let open = self.obs.slave_open_total(pos) + residual;
        let window = now.as_secs_f64();
        if window <= 0.0 {
            1.0
        } else {
            (1.0 - open.as_secs_f64() / window).max(0.0)
        }
    }

    /// Whether the bus is currently in degraded mode (at least one lane
    /// evacuated). Always `false` when supervision is off.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.supervisor.as_ref().is_some_and(Supervisor::degraded)
    }

    /// Applies one injected fault. Takes effect from the next transaction:
    /// an already in-flight completion keeps its pre-computed outcome,
    /// modeling command latency in a real fault-injection rig.
    fn apply_fault(&mut self, ctx: &mut Context<'_>, kind: FaultKind) {
        self.obs.fault(ctx.now(), kind);
        let position_of = |positions: &NodeTable<usize>, node: u8| -> usize {
            positions
                .get(node)
                .unwrap_or_else(|| panic!("fault targets node {node}, which is not on this chain"))
        };
        match kind {
            FaultKind::SlaveCrash(node) => {
                let pos = position_of(&self.positions, node);
                self.crashed[pos] = true;
            }
            FaultKind::SlaveRevive(node) => {
                let pos = position_of(&self.positions, node);
                self.crashed[pos] = false;
            }
            FaultKind::SlaveReset(node) => {
                let pos = position_of(&self.positions, node);
                self.chain[pos].force_reset(ctx.now(), self.timing.watchdog);
            }
            FaultKind::ChainBreak { after } => {
                self.break_after = Some(after.min(self.chain.len()));
            }
            FaultKind::ChainHeal => {
                self.break_after = None;
            }
        }
    }

    // ------------------------------------------------------------------
    // Transaction engine
    // ------------------------------------------------------------------

    /// Issues `txn` on `lane`: books the lane busy, drives the slave chain
    /// and schedules the attempt's completion.
    fn issue(&mut self, ctx: &mut Context<'_>, lane_idx: usize, txn: Txn, attempts: u8) {
        // Chaos-harness invariant probe: a request issued to a slave whose
        // breaker is Open is a supervision bug (the layers above should
        // have fast-failed it). Booked, never expected.
        if let (_, Some(pos)) = self.target(lane_idx, &txn) {
            if self.breaker_open(pos) {
                self.obs.open_issue();
            }
        }
        let lane = &mut self.lanes[lane_idx];
        if lane.busy_since.is_none() {
            lane.busy_since = Some(ctx.now());
        }
        let (cost, outcome) = match &txn {
            Txn::Frame(frame) => self.frame_attempt(ctx, lane_idx, *frame),
            Txn::DmaRead { pos, k } => self.burst_attempt(ctx, lane_idx, &txn, *pos, *k, None),
            Txn::DmaWrite { pos, bytes } => {
                self.burst_attempt(ctx, lane_idx, &txn, *pos, bytes.len(), Some(bytes))
            }
        };
        self.lanes[lane_idx].in_flight = Some(InFlight { txn, attempts });
        ctx.schedule_self_in(
            cost,
            TxnComplete {
                lane: lane_idx,
                outcome,
            },
        );
    }

    /// One attempt of `frame` on `lane`: its wire cost and outcome.
    fn frame_attempt(
        &mut self,
        ctx: &mut Context<'_>,
        lane_idx: usize,
        frame: TxFrame,
    ) -> (SimDuration, Outcome) {
        let FrameTiming {
            timeout_cost,
            watchdog,
            ..
        } = self.timing;
        if self.frame_corrupted(ctx) {
            return (timeout_cost, Outcome::NoReply);
        }

        // Drive every slave (daisy-chain pass-through), collecting the reply.
        // During a broadcast activity every slave is selected, executes,
        // and stays silent ("none of them replies"), so replies collected
        // here are discarded wholesale.
        let now = ctx.now();
        let broadcast = matches!(
            self.lanes[lane_idx].activity,
            Some(Activity::Broadcast { .. })
        ) || (frame.cmd == Command::SelectNode
            && frame.data & 0x7F == NodeId::BROADCAST.raw());
        let mut reply: Option<(usize, RxFrame)> = None;
        // Nothing past a chain break sees the frame at all; crashed slaves
        // neither execute nor reply (their chain repeater stays passive).
        let reach = self.break_after.unwrap_or(self.chain.len());
        let passes = self.chain[..reach]
            .iter_mut()
            .zip(&self.crashed)
            .zip(self.timing.arrivals());
        for (pos, ((slave, &crashed), &after)) in passes.enumerate() {
            if crashed {
                continue;
            }
            if let Some(rx) = slave.on_tx(&frame, lane_idx, now + after, watchdog) {
                debug_assert!(broadcast || reply.is_none(), "two slaves replied to one TX");
                reply = Some((pos, rx));
            }
        }

        if broadcast {
            // No reply expected; model as a successful fire-and-forget.
            let blank = RxFrame::new(false, RxType::Status, 0);
            return (self.timing.broadcast, Outcome::Ok(blank));
        }
        let Some((pos, mut rx)) = reply else {
            return (timeout_cost, Outcome::NoReply);
        };
        // INT bit: OR of pending interrupts along the return path
        // (positions 0..=pos, including the replier); a crashed slave's INT
        // driver is dead.
        rx.int = self.chain[..=pos]
            .iter()
            .enumerate()
            .any(|(i, s)| !self.crashed[i] && s.pending_interrupt());
        let outcome = if self.frame_corrupted(ctx) {
            Outcome::BadRx
        } else {
            Outcome::Ok(rx)
        };
        (self.timing.transaction(pos), outcome)
    }

    /// One attempt of the DMA burst `txn` on `lane`, moving `k` bytes at
    /// `pos` (writing `write`, or reading when `None`): its cost and
    /// outcome. The three arming transactions (select system space, point
    /// at the DMA counter, write the block length) are folded into the
    /// burst cost; state effects are applied through the slave's DMA entry
    /// points.
    ///
    /// Error model: a corruption anywhere in the arming or data frames
    /// aborts the block before it commits (the slave's DMA engine discards
    /// partial blocks, and retains a read block until the next arming), so
    /// plain whole-burst retries stay byte-exact. A corrupted *block
    /// acknowledge* on a write means the data landed; the master verifies
    /// by re-reading the DMA counter (one extra transaction) instead of
    /// resending.
    ///
    /// Kept out of line: bursts are rare next to frames, and inlined into
    /// [`issue`](TpWireBus::issue) they would bloat the frame path.
    #[cold]
    #[inline(never)]
    fn burst_attempt(
        &mut self,
        ctx: &mut Context<'_>,
        lane_idx: usize,
        txn: &Txn,
        pos: usize,
        k: usize,
        write: Option<&[u8]>,
    ) -> (SimDuration, Outcome) {
        let cost = self.params.dma_burst_time(k as u32, pos as u32 + 1);
        // A crashed or severed target never acknowledges the arming select:
        // the whole burst degenerates into a timeout.
        if !self.reachable(pos) {
            return (cost + self.timing.response_timeout, Outcome::NoReply);
        }

        // One corruption draw over the arming + data frames (≈ k + 7
        // frame slots), one for the block acknowledge. The burst channel's
        // state at the start of the burst sets the per-frame rate for the
        // whole block (bursts are short next to channel sojourns).
        let per_frame = self.per_frame_error_rate(ctx);
        let body_frames = k as f64 + 7.0;
        let body_corrupt =
            per_frame > 0.0 && ctx.rng().chance(1.0 - (1.0 - per_frame).powf(body_frames));
        if body_corrupt {
            return (cost + self.timing.response_timeout, Outcome::NoReply);
        }
        let now = ctx.now();
        let mut total = cost;
        if per_frame > 0.0 && ctx.rng().chance(per_frame) {
            // Write verification / read block re-request costs one extra
            // ordinary transaction.
            total += self.timing.transaction(pos);
            let node = self.chain[pos].node().raw();
            self.obs.retry(now, node, txn.class());
        }
        let arrival = now + total;
        // Every other reachable slave on this port sees the burst pass
        // through: watchdogs fed, selections cleared (the arming select
        // addressed the target).
        let crashed = &self.crashed;
        let break_after = self.break_after;
        let watchdog = self.timing.watchdog;
        for (other, slave) in self.chain.iter_mut().enumerate() {
            if other != pos && !crashed[other] && break_after.is_none_or(|after| other < after) {
                slave.observe_burst(lane_idx, arrival, watchdog);
            }
        }
        let target = &mut self.chain[pos];
        let block = match write {
            // An interface in reset applies nothing.
            Some(bytes) => target
                .dma_burst_write(lane_idx, bytes, arrival, watchdog)
                .then(Vec::new),
            None => target.dma_burst_read(lane_idx, k, arrival, watchdog),
        };
        let Some(block) = block else {
            return (total, Outcome::NoReply);
        };
        // After a successful burst the lane is selected at the target in
        // memory space with the pointer parked on the stream FIFO.
        let node_raw = self.chain[pos].node().raw();
        self.lanes[lane_idx].selected = Some((node_raw, AddressSpace::Memory));
        self.lanes[lane_idx].ptr_at_stream = true;
        (total, Outcome::BurstOk(block))
    }

    /// Handles a completed transaction attempt: booking, the retry ladder,
    /// then activity advancement.
    fn on_txn_complete(&mut self, ctx: &mut Context<'_>, lane_idx: usize, outcome: Outcome) {
        let InFlight { txn, attempts } = self.lanes[lane_idx]
            .in_flight
            .take()
            .expect("completion without an in-flight transaction");
        let now = ctx.now();
        let (node, pos) = self.target(lane_idx, &txn);
        let class = txn.class();
        match outcome {
            Outcome::Ok(_) | Outcome::BurstOk(_) => {
                // A burst books its three arming transactions too.
                let booked = if let Txn::Frame(_) = txn { 1 } else { 4 };
                self.obs.txn_ok(now, node, class, booked);
                if let Some(pos) = pos {
                    self.supervise_outcome(now, pos, true);
                }
                if let Outcome::Ok(RxFrame { int: true, .. }) = outcome {
                    self.int_seen = true;
                }
                self.advance_activity(ctx, lane_idx, &txn, Some(&outcome));
            }
            Outcome::BadRx
                if matches!(
                    txn,
                    Txn::Frame(TxFrame {
                        cmd: Command::WriteData
                            | Command::SelectNode
                            | Command::SetPointer
                            | Command::WriteCommand,
                        ..
                    })
                ) =>
            {
                // The command executed; only the acknowledge was lost. A
                // resend would double-execute (e.g. duplicate a FIFO
                // write), so the master proceeds with a synthetic "blank"
                // acknowledge instead. Reads fall through to the retry arm
                // below — the alternating-bit FIFO port makes retried
                // stream reads idempotent.
                self.obs.txn_ok(now, node, class, 1);
                // The lost RX still cost the wire time.
                self.obs.retry(now, node, class);
                // Health-wise a corrupted acknowledge is still a failure
                // signal: a flaky link trips the breaker even when every
                // command happens to execute.
                if let Some(pos) = pos {
                    self.supervise_outcome(now, pos, false);
                }
                let blank = RxFrame::new(false, RxType::Status, 0);
                self.advance_activity(ctx, lane_idx, &txn, Some(&Outcome::Ok(blank)));
            }
            Outcome::NoReply | Outcome::BadRx => {
                if let Some(pos) = pos {
                    self.supervise_outcome(now, pos, false);
                }
                // A freshly tripped breaker aborts the attempt sequence
                // instead of burning the remaining cumulative backoff
                // against the 2048-bit watchdog — the breaker-admission
                // input of the shared ladder.
                let fenced = pos.is_some_and(|p| self.breaker_open(p));
                match frame_step(attempts, fenced, &self.params.retry) {
                    FrameStep::Retry {
                        attempt,
                        delay_bits,
                    } => {
                        self.obs.retry(now, node, class);
                        if delay_bits == 0 {
                            self.issue(ctx, lane_idx, txn, attempt);
                        } else {
                            // The lane keeps the transaction through the
                            // backoff; `Retry` resends it.
                            self.obs.backoff(now, delay_bits);
                            self.lanes[lane_idx].in_flight = Some(InFlight {
                                txn,
                                attempts: attempt,
                            });
                            ctx.schedule_self_in(
                                self.params.bits64_to_time(delay_bits),
                                Retry { lane: lane_idx },
                            );
                        }
                    }
                    step @ (FrameStep::FastFail | FrameStep::GiveUp) => {
                        if matches!(step, FrameStep::FastFail) {
                            self.obs.fast_fail(now, node);
                        } else {
                            self.obs.txn_failed(now, node);
                        }
                        // Whatever the master believed about this lane's
                        // selection may be stale (e.g. the slave reset).
                        self.lanes[lane_idx].selected = None;
                        self.lanes[lane_idx].ptr_at_stream = false;
                        self.advance_activity(ctx, lane_idx, &txn, None);
                    }
                }
            }
        }
    }

    /// Advances the lane's current activity after `txn` concluded with a
    /// successful `outcome` (`None`: the transaction failed permanently).
    fn advance_activity(
        &mut self,
        ctx: &mut Context<'_>,
        lane_idx: usize,
        txn: &Txn,
        outcome: Option<&Outcome>,
    ) {
        // Track the master's view of lane selection and pointer state.
        if let (Txn::Frame(frame), Some(_)) = (txn, outcome) {
            match frame.cmd {
                Command::SelectNode => {
                    let space = if frame.data & 0x80 != 0 {
                        AddressSpace::System
                    } else {
                        AddressSpace::Memory
                    };
                    self.lanes[lane_idx].selected = Some((frame.data & 0x7F, space));
                    self.lanes[lane_idx].ptr_at_stream = false;
                }
                Command::SetPointer => {
                    self.lanes[lane_idx].ptr_at_stream = frame.data == STREAM_ADDR;
                }
                _ => {}
            }
        }

        // A relay job, the bulky activity, advances in place when its
        // transaction went through.
        if let (Some(outcome), Some(Activity::Job(job))) =
            (outcome, &mut self.lanes[lane_idx].activity)
        {
            match (txn, outcome) {
                (Txn::Frame(frame), Outcome::Ok(rx)) if frame.cmd == Command::ReadData => {
                    job.buffer.push_back(rx.data);
                    job.read_done += 1;
                    job.chunk_left = job.chunk_left.saturating_sub(1);
                    if let Some(pos) = job.src_pos() {
                        self.read_toggles[lane_idx][pos] = !self.read_toggles[lane_idx][pos];
                    }
                }
                (Txn::Frame(frame), _) if frame.cmd == Command::WriteData => job.written += 1,
                (Txn::DmaRead { .. }, Outcome::BurstOk(block)) => {
                    job.read_done += block.len();
                    job.chunk_left = job.chunk_left.saturating_sub(block.len());
                    job.buffer.extend(block);
                }
                (Txn::DmaWrite { bytes, .. }, _) => job.written += bytes.len(),
                _ => {}
            }
            self.continue_job(ctx, lane_idx);
            return;
        }

        let rx = match outcome {
            Some(Outcome::Ok(rx)) => Some(*rx),
            _ => None,
        };
        let activity = self.lanes[lane_idx]
            .activity
            .take()
            .expect("transaction outside any activity");
        match activity {
            Activity::Broadcast { pending_command } => {
                match pending_command {
                    Some(command) => {
                        // The broadcast select reached everyone; now the
                        // command itself, also unacknowledged.
                        self.lanes[lane_idx].activity = Some(Activity::Broadcast {
                            pending_command: None,
                        });
                        let frame = TxFrame::new(Command::WriteCommand, command);
                        self.issue(ctx, lane_idx, Txn::Frame(frame), 0);
                    }
                    None => {
                        // Broadcast selections are transient: deselect by
                        // reselecting nothing (lane belief cleared so the
                        // next activity re-establishes its own selection).
                        self.lanes[lane_idx].selected = None;
                        self.lanes[lane_idx].ptr_at_stream = false;
                        self.schedule_lane(ctx, lane_idx);
                    }
                }
            }
            Activity::Poll { pos } => {
                if let Some(rx) = rx {
                    // A source we are already relaying from keeps its
                    // interrupt raised until its FIFO drains; only a *new*
                    // source (no active or parked job reading it) warrants
                    // a header read. A quarantined source (Half-Open
                    // probation) stays fenced off: this poll was only a
                    // probe, and its INT stays pending until readmission.
                    if rx.status_pending_interrupt()
                        && !self.source_busy(pos)
                        && !self.traffic_quarantined(pos)
                    {
                        self.lanes[lane_idx].activity = Some(Activity::Discover {
                            src_pos: pos,
                            header: Vec::with_capacity(STREAM_HEADER_BYTES),
                        });
                        self.continue_discover(ctx, lane_idx, pos);
                        return;
                    }
                }
                self.release_owner(pos, lane_idx);
                self.schedule_lane(ctx, lane_idx);
            }
            Activity::Discover {
                src_pos,
                mut header,
            } => {
                let Some(rx) = rx else {
                    // Give up; the slave's interrupt stays pending and a
                    // later poll retries discovery. (Header bytes already
                    // popped are lost — a real 1-wire hazard under frame
                    // errors.)
                    self.release_owner(src_pos, lane_idx);
                    self.schedule_lane(ctx, lane_idx);
                    return;
                };
                if let Txn::Frame(TxFrame {
                    cmd: Command::ReadData,
                    ..
                }) = txn
                {
                    header.push(rx.data);
                    self.read_toggles[lane_idx][src_pos] = !self.read_toggles[lane_idx][src_pos];
                }
                if header.len() == STREAM_HEADER_BYTES {
                    self.finish_discovery(ctx, lane_idx, src_pos, &header);
                } else {
                    self.lanes[lane_idx].activity = Some(Activity::Discover { src_pos, header });
                    self.continue_discover(ctx, lane_idx, src_pos);
                }
            }
            Activity::Job(job) => {
                // A delivered transaction advanced the job in place above;
                // only a permanently failed one gets here.
                let reason = match txn {
                    Txn::Frame(_) => "bus transaction retries exhausted",
                    Txn::DmaRead { .. } | Txn::DmaWrite { .. } => "DMA burst retries exhausted",
                };
                self.fail_job(ctx, lane_idx, job, reason);
                self.schedule_lane(ctx, lane_idx);
            }
        }
    }

    /// Issues the next frame of a stream-FIFO access at `pos` on `lane`:
    /// select the slave in memory space, then park its pointer on the
    /// FIFO, then the access frame `access` builds.
    fn issue_stream_access(
        &mut self,
        ctx: &mut Context<'_>,
        lane_idx: usize,
        pos: usize,
        access: impl FnOnce(&mut Self) -> TxFrame,
    ) {
        let node = self.chain[pos].node();
        let lane = &self.lanes[lane_idx];
        let frame = if lane.selected != Some((node.raw(), AddressSpace::Memory)) {
            TxFrame::select(node, false)
        } else if !lane.ptr_at_stream {
            TxFrame::new(Command::SetPointer, STREAM_ADDR)
        } else {
            access(self)
        };
        self.issue(ctx, lane_idx, Txn::Frame(frame), 0);
    }

    /// Builds the next stream-FIFO read for the slave at `pos` on `lane`,
    /// carrying the port's current alternating-bit toggle in `DATA[0]`.
    fn stream_read_frame(&self, lane: usize, pos: usize) -> TxFrame {
        TxFrame::new(Command::ReadData, u8::from(self.read_toggles[lane][pos]))
    }

    // ------------------------------------------------------------------
    // Poll / discovery
    // ------------------------------------------------------------------

    /// Issues the next header read of the discovery at `src_pos` running
    /// on `lane`.
    fn continue_discover(&mut self, ctx: &mut Context<'_>, lane_idx: usize, src_pos: usize) {
        // The breaker can trip mid-discovery (a header-read retry sequence
        // exhausting): abandon the header, the INT stays pending and a
        // post-readmission poll restarts discovery from scratch.
        if self.traffic_quarantined(src_pos) {
            self.lanes[lane_idx].activity = None;
            self.release_owner(src_pos, lane_idx);
            let node = self.chain[src_pos].node().raw();
            self.obs.fast_fail(ctx.now(), node);
            self.schedule_lane(ctx, lane_idx);
            return;
        }
        self.issue_stream_access(ctx, lane_idx, src_pos, |bus| {
            bus.stream_read_frame(lane_idx, src_pos)
        });
    }

    fn finish_discovery(
        &mut self,
        ctx: &mut Context<'_>,
        lane_idx: usize,
        src_pos: usize,
        header: &[u8],
    ) {
        let src_node = self.chain[src_pos].node();
        let dst_byte = header[0];
        let total = usize::from(header[1]) << 8 | usize::from(header[2]);
        let (to, dst_pos, discard) = if dst_byte == DST_MASTER {
            (StreamEndpoint::Master, None, false)
        } else {
            match NodeId::new(dst_byte)
                .ok()
                .and_then(|n| self.positions.get(n.raw()).map(|p| (n, p)))
            {
                Some((node, pos)) => (StreamEndpoint::Slave(node), Some(pos), false),
                // Unknown destination: drain the payload from the FIFO (so
                // the stream stays framed) but discard it, then report the
                // failure to the sender.
                None => (StreamEndpoint::Master, None, true),
            }
        };
        let mut job = RelayJob::new(
            StreamEndpoint::Slave(src_node),
            to,
            JobSource::Fifo(src_pos),
            dst_pos,
            total,
        );
        job.chunk_left = usize::from(self.params.relay_chunk);
        job.discard = discard;
        // Source is already owned by this lane; claim the destination too.
        if let Some(dst) = dst_pos {
            if dst != src_pos && !self.try_own(dst, lane_idx) {
                // Destination busy on another lane: park the job.
                self.release_owner(src_pos, lane_idx);
                self.jobs.push_back(job);
                self.schedule_lane(ctx, lane_idx);
                return;
            }
        }
        self.lanes[lane_idx].activity = Some(Activity::Job(job));
        self.continue_job(ctx, lane_idx);
    }

    // ------------------------------------------------------------------
    // Relay jobs
    // ------------------------------------------------------------------

    /// The relay job running on `lane`.
    fn job_mut(&mut self, lane_idx: usize) -> &mut RelayJob {
        match &mut self.lanes[lane_idx].activity {
            Some(Activity::Job(job)) => job,
            _ => unreachable!("relay-job step outside a job"),
        }
    }

    /// Takes the relay job off `lane`, leaving the lane without activity.
    fn take_job(&mut self, lane_idx: usize) -> RelayJob {
        match self.lanes[lane_idx].activity.take() {
            Some(Activity::Job(job)) => job,
            _ => unreachable!("relay-job step outside a job"),
        }
    }

    /// Drives the job state machine: issues the next transaction, delivers
    /// buffered bytes, completes or parks the job.
    ///
    /// Implemented decide-then-act: each iteration inspects the job under a
    /// short borrow, produces a [`JobStep`], then executes it with `self`
    /// free again.
    fn continue_job(&mut self, ctx: &mut Context<'_>, lane_idx: usize) {
        let relay_chunk = usize::from(self.params.relay_chunk);
        let dma = usize::from(self.params.dma_block);
        loop {
            // Fairness: at a chunk boundary the job yields the lane to
            // parked jobs and to a due poll.
            let yield_lane = !self.jobs.is_empty() || ctx.now() >= self.lane_poll_due[lane_idx];

            // -------- decide --------
            let step = {
                let job = self.job_mut(lane_idx);
                if !job.writing {
                    match &mut job.source {
                        JobSource::Local(data) => {
                            // Master-held bytes: "read" a chunk instantly.
                            let take = relay_chunk.min(data.len());
                            let taken: Vec<u8> = data.drain(..take).collect();
                            job.buffer.extend(taken);
                            job.read_done += take;
                            job.writing = true;
                            continue;
                        }
                        &mut JobSource::Fifo(pos) => {
                            if job.read_done == job.total || job.chunk_left == 0 {
                                job.writing = true;
                                continue;
                            }
                            let remaining = job.total - job.read_done;
                            if dma >= 2 && remaining >= 2 && job.chunk_left >= 2 {
                                let k = remaining.min(job.chunk_left).min(dma);
                                JobStep::Burst {
                                    pos,
                                    txn: Txn::DmaRead { pos, k },
                                }
                            } else {
                                JobStep::Byte { pos, write: false }
                            }
                        }
                    }
                } else {
                    match job.to {
                        StreamEndpoint::Master => {
                            if job.buffer.is_empty() {
                                JobStep::ChunkBoundary
                            } else {
                                let bytes: Vec<u8> = job.buffer.drain(..).collect();
                                job.written += bytes.len();
                                JobStep::DeliverToMaster {
                                    from: job.from,
                                    bytes,
                                    end_of_message: job.written == job.total,
                                    discard: job.discard,
                                }
                            }
                        }
                        StreamEndpoint::Slave(_) => {
                            let pos = job.dst_pos.expect("slave destination has a position");
                            if dma >= 2 && job.buffer.len() >= 2 {
                                let take = job.buffer.len().min(dma);
                                let bytes: Vec<u8> = job.buffer.drain(..take).collect();
                                JobStep::Burst {
                                    pos,
                                    txn: Txn::DmaWrite { pos, bytes },
                                }
                            } else if job.buffer.front().is_some() {
                                JobStep::Byte { pos, write: true }
                            } else {
                                JobStep::DrainInboundThenBoundary {
                                    from: job.from,
                                    to: job.to,
                                    dst_pos: pos,
                                    end_of_message: job.written == job.total,
                                }
                            }
                        }
                    }
                }
            };

            // -------- act --------
            if let JobStep::Byte { pos, .. } | JobStep::Burst { pos, .. } = step {
                if self.traffic_quarantined(pos) {
                    self.fast_fail_job(ctx, lane_idx, pos);
                    return;
                }
            }
            match step {
                JobStep::Byte { pos, write } => {
                    self.issue_stream_access(ctx, lane_idx, pos, |bus| {
                        if write {
                            let byte = bus.job_mut(lane_idx).buffer.pop_front();
                            TxFrame::new(Command::WriteData, byte.expect("checked above"))
                        } else {
                            bus.stream_read_frame(lane_idx, pos)
                        }
                    });
                    return;
                }
                JobStep::Burst { txn, .. } => {
                    self.issue(ctx, lane_idx, txn, 0);
                    return;
                }
                JobStep::DeliverToMaster {
                    from,
                    bytes,
                    end_of_message,
                    discard,
                } => {
                    if !discard {
                        let delivered = StreamDelivered {
                            from,
                            to: StreamEndpoint::Master,
                            bytes: Bytes::from(bytes),
                            end_of_message,
                        };
                        self.notify(ctx, StreamEndpoint::Master, delivered);
                    }
                }
                JobStep::DrainInboundThenBoundary {
                    from,
                    to,
                    dst_pos,
                    end_of_message,
                } => {
                    let arrived = self.chain[dst_pos].take_inbound();
                    if !arrived.is_empty() {
                        let delivered = StreamDelivered {
                            from,
                            to,
                            bytes: Bytes::from(arrived),
                            end_of_message,
                        };
                        self.notify(ctx, to, delivered);
                    }
                }
                JobStep::ChunkBoundary => {}
            }
            if self.finish_or_park(ctx, lane_idx, relay_chunk, yield_lane) {
                return;
            }
        }
    }

    /// Chunk-boundary handling: completes a finished job, parks the job if
    /// `yield_lane` (other work waits), or opens the next service slot.
    /// Returns `true` if the lane was handed off (caller must stop driving
    /// this job).
    fn finish_or_park(
        &mut self,
        ctx: &mut Context<'_>,
        lane_idx: usize,
        relay_chunk: usize,
        yield_lane: bool,
    ) -> bool {
        let job = self.job_mut(lane_idx);
        if job.written == job.total {
            let job = self.take_job(lane_idx);
            self.complete_job(ctx, lane_idx, job);
            self.schedule_lane(ctx, lane_idx);
            return true;
        }
        // Open the next service slot.
        job.chunk_left = relay_chunk;
        job.writing = false;
        // Fairness: if other work is waiting, park this job.
        if yield_lane {
            let job = self.take_job(lane_idx);
            self.release_job_owners(&job, lane_idx);
            self.jobs.push_back(job);
            self.schedule_lane(ctx, lane_idx);
            return true;
        }
        false
    }

    /// Releases `lane`'s ownership of the job's source and destination.
    fn release_job_owners(&mut self, job: &RelayJob, lane_idx: usize) {
        for pos in job.src_pos().into_iter().chain(job.dst_pos) {
            self.release_owner(pos, lane_idx);
        }
    }

    fn complete_job(&mut self, ctx: &mut Context<'_>, lane_idx: usize, job: RelayJob) {
        self.release_job_owners(&job, lane_idx);
        if job.discard {
            self.obs.message_failed();
            let failed = StreamFailed {
                from: job.from,
                to: None,
                reason: "stream header named an unknown destination".to_owned(),
                fast: false,
            };
            self.notify(ctx, job.from, failed);
        } else {
            self.obs.message_relayed(job.total as u64);
            if job.total == 0 {
                // Empty payloads never pass through the write loop, so the
                // destination still deserves its (empty) delivery event.
                let delivered = StreamDelivered {
                    from: job.from,
                    to: job.to,
                    bytes: Bytes::new(),
                    end_of_message: true,
                };
                self.notify(ctx, job.to, delivered);
            }
            let sent = StreamSent {
                from: job.from,
                to: job.to,
                len: job.total,
            };
            self.notify(ctx, job.from, sent);
        }
    }

    fn fail_job(&mut self, ctx: &mut Context<'_>, lane_idx: usize, job: RelayJob, reason: &str) {
        self.release_job_owners(&job, lane_idx);
        self.obs.message_failed();
        // The failure is "fast" when supervision fenced one of the job's
        // endpoints off — the caller learned quickly and cheaply, not by
        // burning the full retry/backoff schedule.
        let fast = job
            .src_pos()
            .into_iter()
            .chain(job.dst_pos)
            .any(|p| self.traffic_quarantined(p));
        let failed = StreamFailed {
            from: job.from,
            to: Some(job.to),
            reason: reason.to_owned(),
            fast,
        };
        self.notify(ctx, job.from, failed);
    }

    // ------------------------------------------------------------------
    // Lane scheduling
    // ------------------------------------------------------------------

    /// Whether some relay work (parked or on any lane) is already consuming
    /// the outbound FIFO of the slave at `pos`.
    fn source_busy(&self, pos: usize) -> bool {
        if self.jobs.iter().any(|j| j.src_pos() == Some(pos)) {
            return true;
        }
        self.lanes.iter().any(|lane| match &lane.activity {
            Some(Activity::Discover { src_pos, .. }) => *src_pos == pos,
            Some(Activity::Job(job)) => job.src_pos() == Some(pos),
            _ => false,
        })
    }

    fn try_own(&mut self, pos: usize, lane_idx: usize) -> bool {
        match self.owners[pos] {
            None => {
                self.owners[pos] = Some(lane_idx);
                true
            }
            Some(owner) => owner == lane_idx,
        }
    }

    fn release_owner(&mut self, pos: usize, lane_idx: usize) {
        if self.owners[pos] == Some(lane_idx) {
            self.owners[pos] = None;
        }
    }

    /// Picks the next activity for an idle lane, or arms the poll timer.
    fn schedule_lane(&mut self, ctx: &mut Context<'_>, lane_idx: usize) {
        debug_assert!(self.lanes[lane_idx].is_idle());

        // Chain-wide broadcasts first: control actions preempt data.
        if let Some(command) = self.broadcasts.pop_front() {
            self.lanes[lane_idx].activity = Some(Activity::Broadcast {
                pending_command: Some(command),
            });
            let select = TxFrame::select(NodeId::BROADCAST, false);
            self.issue(ctx, lane_idx, Txn::Frame(select), 0);
            return;
        }

        // Periodic polls take priority when due, so new flows keep being
        // discovered under load. (The INT hint alone must NOT preempt jobs:
        // sources being relayed keep their interrupt raised, so it would
        // starve the very transfers it announced.)
        if ctx.now() >= self.lane_poll_due[lane_idx] {
            if let Some(pos) = self.next_poll_target(ctx.now(), lane_idx) {
                self.start_poll(ctx, lane_idx, pos);
                return;
            } else if self.supervisor.is_some() {
                // Every candidate is fenced off (Open breakers, foreign
                // lanes): push the deadline one idle-poll period forward so
                // the poll timer cannot spin at zero simulated cost while
                // the quarantine windows run down.
                let due = ctx.now() + self.timing.idle_poll;
                self.set_poll_due(lane_idx, due);
            }
        }

        // Resume a parked job whose endpoints are free.
        let mut picked: Option<usize> = None;
        for (i, job) in self.jobs.iter().enumerate() {
            let free = |p: usize| self.owners[p].is_none() || self.owners[p] == Some(lane_idx);
            if job.src_pos().is_none_or(free) && job.dst_pos.is_none_or(free) {
                picked = Some(i);
                break;
            }
        }
        if let Some(i) = picked {
            let job = self.jobs.remove(i).expect("index from enumerate");
            if let Some(p) = job.src_pos() {
                let owned = self.try_own(p, lane_idx);
                debug_assert!(owned);
            }
            if let Some(p) = job.dst_pos {
                let owned = self.try_own(p, lane_idx);
                debug_assert!(owned);
            }
            self.lanes[lane_idx].activity = Some(Activity::Job(job));
            self.continue_job(ctx, lane_idx);
            return;
        }

        // No job runnable: an INT edge wakes the poller early (the
        // idle-discovery fast path) — but only when no job is parked.
        // A parked job keeps its source's INT raised, and in multi-lane
        // wirings eager INT-polls from one lane can transiently own the
        // very slave another lane's job resume needs, livelocking the
        // lanes into polling each other's endpoints forever. Parked jobs
        // rely on the periodic poll for new-source discovery instead.
        if self.int_seen && self.jobs.is_empty() {
            if let Some(pos) = self.next_poll_target(ctx.now(), lane_idx) {
                self.start_poll(ctx, lane_idx, pos);
                return;
            }
        }

        // Nothing to do: close this lane's busy interval, arm the timer.
        if let Some(since) = self.lanes[lane_idx].busy_since.take() {
            let span = ctx.now().saturating_duration_since(since);
            self.obs.lane_busy(lane_idx, span);
        }
        if !self.poll_timer_armed {
            self.poll_timer_armed = true;
            // The earliest poll deadline among idle lanes. A busy lane
            // re-enters `schedule_lane` when its own transaction completes;
            // arming at its overdue deadline would fire the timer at `now`
            // again and again while it works (a zero-time livelock).
            let earliest = (0..self.lanes.len())
                .filter(|&l| self.lanes[l].is_idle())
                .map(|l| self.lane_poll_due[l])
                .min();
            let due = earliest.expect("this lane is idle").max(ctx.now());
            let self_id = ctx.self_id();
            ctx.schedule_at(due, self_id, PollTimer);
        }
    }

    /// Sets `lane_idx`'s poll deadline (every lane's when unsupervised).
    fn set_poll_due(&mut self, lane_idx: usize, due: SimTime) {
        if self.supervisor.is_some() {
            self.lane_poll_due[lane_idx] = due;
        } else {
            self.lane_poll_due.fill(due);
        }
    }

    /// Finds the next pollable slave position (round-robin, skipping slaves
    /// owned by other lanes). Returns `None` when every candidate is busy.
    ///
    /// Under supervision the scan additionally honours the
    /// [`WirePlan`](crate::wiring::WirePlan) (each lane polls only the positions
    /// currently assigned to it) and
    /// consults the breaker: Open slaves are skipped entirely until their
    /// window expires, Half-Open ones are admitted as probes within the
    /// probe budget. Keep-alive polls double as the probe vehicle — a
    /// `SelectNode` round-trip is the cheapest transaction the bus has.
    fn next_poll_target(&mut self, now: SimTime, lane_idx: usize) -> Option<usize> {
        let n = self.chain.len();
        let mut next = self.poll_cursor;
        for _ in 0..n {
            let pos = next;
            next = if pos + 1 == n { 0 } else { pos + 1 };
            if self.owners[pos].is_some() && self.owners[pos] != Some(lane_idx) {
                continue;
            }
            if let Some(sup) = self.supervisor.as_mut() {
                if usize::from(sup.poll_lane_of(pos)) != lane_idx {
                    continue;
                }
                let (admission, transition) = sup.admit_poll(now, pos);
                if let Some(tr) = transition {
                    let node = self.chain[pos].node().raw();
                    self.obs.breaker_transition(now, node, tr.from, tr.to);
                }
                if admission == Admission::FastFail {
                    continue;
                }
            }
            self.poll_cursor = next;
            return Some(pos);
        }
        None
    }

    fn start_poll(&mut self, ctx: &mut Context<'_>, lane_idx: usize, pos: usize) {
        self.obs.poll();
        // Each poll consumes the INT latch; a still-pending slave re-raises
        // it on the next RX frame that passes it.
        self.int_seen = false;
        let due = ctx.now() + self.timing.idle_poll;
        self.set_poll_due(lane_idx, due);
        let owned = self.try_own(pos, lane_idx);
        debug_assert!(owned, "poll target ownership checked by caller");
        self.lanes[lane_idx].activity = Some(Activity::Poll { pos });
        let node = self.chain[pos].node();
        self.issue(ctx, lane_idx, Txn::Frame(TxFrame::select(node, false)), 0);
    }

    fn kick_idle_lanes(&mut self, ctx: &mut Context<'_>) {
        for lane_idx in 0..self.lanes.len() {
            if self.lanes[lane_idx].is_idle() {
                self.schedule_lane(ctx, lane_idx);
            }
        }
    }
}

impl Component for TpWireBus {
    fn start(&mut self, ctx: &mut Context<'_>) {
        // Begin the keep-alive poll cycle immediately.
        self.kick_idle_lanes(ctx);
    }

    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        let msg = match msg.downcast::<TxnComplete>() {
            Ok(done) => {
                let TxnComplete { lane, outcome } = *done;
                self.on_txn_complete(ctx, lane, outcome);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<PollTimer>() {
            Ok(_) => {
                self.poll_timer_armed = false;
                self.kick_idle_lanes(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Retry>() {
            Ok(retry) => {
                let InFlight { txn, attempts } = self.lanes[retry.lane]
                    .in_flight
                    .take()
                    .expect("retry without a pending transaction");
                self.issue(ctx, retry.lane, txn, attempts);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<FaultCommand>() {
            Ok(cmd) => {
                self.apply_fault(ctx, cmd.0);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<SendStream>() {
            Ok(send) => {
                let SendStream { from, to, payload } = *send;
                assert!(
                    payload.len() <= MAX_STREAM_PAYLOAD,
                    "stream payload exceeds {MAX_STREAM_PAYLOAD} bytes"
                );
                let Some(pos) = self.positions.get(from.raw()) else {
                    panic!("SendStream from {from}, which is not on this chain");
                };
                let dst_byte = match to {
                    StreamEndpoint::Master => DST_MASTER,
                    StreamEndpoint::Slave(node) => node.raw(),
                };
                let len = payload.len();
                let header = [dst_byte, (len >> 8) as u8, (len & 0xFF) as u8];
                self.chain[pos].push_outbound(header);
                self.chain[pos].push_outbound(payload.iter().copied());
                // The non-empty FIFO raises the slave's interrupt; treat the
                // (out-of-band) enqueue as an INT edge so an idle master
                // polls promptly.
                self.int_seen = true;
                self.kick_idle_lanes(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<BroadcastCommand>() {
            Ok(broadcast) => {
                self.broadcasts.push_back(broadcast.command);
                self.kick_idle_lanes(ctx);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<MasterSend>() {
            Ok(send) => {
                let MasterSend { to, payload } = *send;
                assert!(
                    payload.len() <= MAX_STREAM_PAYLOAD,
                    "stream payload exceeds {MAX_STREAM_PAYLOAD} bytes"
                );
                let Some(pos) = self.positions.get(to.raw()) else {
                    panic!("MasterSend to {to}, which is not on this chain");
                };
                let job = RelayJob::new(
                    StreamEndpoint::Master,
                    StreamEndpoint::Slave(to),
                    JobSource::Local(payload.iter().copied().collect()),
                    Some(pos),
                    payload.len(),
                );
                self.jobs.push_back(job);
                self.kick_idle_lanes(ctx);
            }
            Err(other) => {
                panic!("TpWireBus received unexpected message {other:?}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    #[test]
    fn engine_self_messages_stay_small() {
        // One boxed `TxnComplete` per transaction: keep it within 32 bytes.
        assert!(std::mem::size_of::<TxnComplete>() <= 32);
        assert_eq!(std::mem::size_of::<Retry>(), std::mem::size_of::<usize>());
    }

    #[test]
    fn node_tables_resolve_like_a_map() {
        let chain: Vec<NodeId> = [5, 0, 126, 42, 1]
            .into_iter()
            .map(|raw| NodeId::new(raw).expect("valid test id"))
            .collect();
        let mut bus = TpWireBus::new(BusParams::theseus_default(), chain.clone());
        let positions: HashMap<u8, usize> = chain
            .iter()
            .enumerate()
            .map(|(pos, node)| (node.raw(), pos))
            .collect();
        let mut attachments = HashMap::new();
        for (i, &node) in chain.iter().enumerate().step_by(2) {
            let component = ComponentId::from_raw(10 + i);
            bus.attach(node, component);
            attachments.insert(node.raw(), component);
        }
        // Every raw byte, including the broadcast id (127) and values past
        // the 7-bit range, resolves as the map does.
        for raw in 0..=u8::MAX {
            assert_eq!(
                bus.positions.get(raw),
                positions.get(&raw).copied(),
                "{raw}"
            );
            assert_eq!(bus.attachments.get(raw), attachments.get(&raw).copied());
        }
        for raw in 0..=NodeId::BROADCAST.raw() {
            let node = NodeId::new(raw).expect("7-bit id");
            let pos = positions.get(&raw).copied();
            assert_eq!(bus.slave(node).map(SlaveDevice::node), pos.map(|_| node));
            assert_eq!(
                bus.attachment_of(StreamEndpoint::Slave(node)),
                attachments.get(&raw).copied()
            );
            for system in [false, true] {
                let select = TxFrame::select(node, system);
                assert_eq!(bus.frame_target_pos(0, &select), pos, "{node}");
            }
        }
        assert_eq!(bus.positions.get(NodeId::BROADCAST.raw()), None);
    }
}
