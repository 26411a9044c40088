//! The scripted tuplespace client: the simulation counterpart of the
//! paper's C++ client on the Theseus board.
//!
//! A [`ScriptedClient`] walks a list of [`ClientStep`]s — timed waits and
//! tuplespace requests — sending each request through its transport
//! endpoint and recording when the matching response lands. The Table 4
//! traffic profile ("the client executes a write-entry operation on the
//! space; later on, a take operation is executed") is one such script.

use std::collections::HashSet;

use bytes::Bytes;
use tsbus_des::{Component, ComponentId, Context, Message, MessageExt, SimDuration, SimTime};
use tsbus_obs::{CounterId, Registry, Snapshot, TraceEvent, Tracer};
use tsbus_proto::{
    request_step, EpochTimer, ProtoInstruments, ReplyDue, RequestStep, RetryDue, SeqGen, Watermark,
};
use tsbus_tpwire::NodeId;
use tsbus_tuplespace::Template;
use tsbus_xmlwire::{
    server_message_from_wire, EncodeScratch, Request, RequestEnvelope, RequestId, Response,
    ServerMessage, WireEvent, WireFormat,
};

use crate::net::{NetDeliver, NetError, NetSend};

/// How a client recovers from a failed operation: re-issue the same
/// request after `retry_delay`, up to `max_attempts` total sends.
///
/// A failure is a transport error ([`NetError`] or a server
/// [`Response::Error`]) or, for read/take requests, an empty
/// [`Response::Entry`] — the middleware-level "Out of Time" of the paper's
/// lease-expiry scenario. With [`with_reply_timeout`](Self::with_reply_timeout)
/// a silently lost reply also counts as a failure instead of hanging the
/// client forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Total attempts allowed per request, including the first (so 1
    /// means no recovery).
    pub(crate) max_attempts: u32,
    /// Idle wait before each re-issue (the think time is charged again on
    /// top, like any send).
    pub(crate) retry_delay: SimDuration,
    /// If set, an attempt whose reply has not arrived within this span of
    /// its send is declared failed and re-issued. Without it a lost reply
    /// (e.g. the server answered into a broken chain) blocks the script
    /// forever.
    pub(crate) reply_timeout: Option<SimDuration>,
}

impl RecoveryPolicy {
    /// Creates a policy allowing `max_attempts` total sends spaced by
    /// `retry_delay`, with no reply timeout.
    #[must_use]
    pub const fn new(max_attempts: u32, retry_delay: SimDuration) -> Self {
        Self {
            max_attempts,
            retry_delay,
            reply_timeout: None,
        }
    }

    /// Returns a copy that declares an attempt failed when its reply has
    /// not arrived within `timeout` (builder style).
    #[must_use]
    pub const fn with_reply_timeout(mut self, timeout: SimDuration) -> Self {
        self.reply_timeout = Some(timeout);
        self
    }
}

/// How an operation ultimately fared under a [`RecoveryPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// The first attempt settled the operation (or no recovery was
    /// configured); whatever it returned stands.
    FirstTry,
    /// A re-issued attempt succeeded where earlier ones failed.
    Recovered {
        /// Total sends, including the first.
        attempts: u32,
        /// Time from the first observed failure to the final success.
        extra_time: SimDuration,
    },
    /// Every allowed attempt failed.
    GaveUp {
        /// Total sends, including the first.
        attempts: u32,
    },
}

/// Whether `response` counts as a failed attempt for `request` (and so is
/// eligible for recovery rather than final).
fn response_failed(request: &Request, response: &Response) -> bool {
    match response {
        Response::Error { .. } => true,
        Response::Entry { tuple: None } => matches!(
            request,
            Request::Take { .. }
                | Request::TakeIfExists { .. }
                | Request::Read { .. }
                | Request::ReadIfExists { .. }
        ),
        _ => false,
    }
}

/// One step of a client script.
#[derive(Debug, Clone)]
pub enum ClientStep {
    /// Wait until the absolute instant (no-op if already past).
    At(SimTime),
    /// Wait for a span.
    Delay(SimDuration),
    /// Send a request and wait for its response.
    Request(Request),
}

/// The outcome of one executed request.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Index into the script.
    pub step: usize,
    /// The request that was sent.
    pub request: Request,
    /// When the request left the application layer.
    pub sent_at: SimTime,
    /// When the response arrived (`None` while in flight).
    pub completed_at: Option<SimTime>,
    /// The decoded response (`None` while in flight).
    pub response: Option<Response>,
    /// Sends of this request so far (1 = no retry yet).
    pub attempts: u32,
    /// When the first failed attempt came back, if any attempt failed.
    pub(crate) first_failure_at: Option<SimTime>,
}

impl OpRecord {
    /// Round-trip latency, if completed.
    #[must_use]
    pub fn latency(&self) -> Option<SimDuration> {
        self.completed_at
            .map(|done| done.duration_since(self.sent_at))
    }

    /// For read/take ops: whether a tuple came back.
    #[must_use]
    pub fn returned_entry(&self) -> bool {
        matches!(self.response, Some(Response::Entry { tuple: Some(_) }))
    }

    /// How the operation fared under recovery: [`RecoveryOutcome::FirstTry`]
    /// if it was never re-issued, otherwise whether a retry eventually
    /// succeeded and what the detour cost.
    #[must_use]
    pub fn recovery_outcome(&self) -> RecoveryOutcome {
        if self.attempts <= 1 {
            return RecoveryOutcome::FirstTry;
        }
        let succeeded = self
            .response
            .as_ref()
            .is_some_and(|r| !response_failed(&self.request, r));
        if succeeded {
            let extra_time = match (self.completed_at, self.first_failure_at) {
                (Some(done), Some(first)) => done.duration_since(first),
                _ => SimDuration::ZERO,
            };
            RecoveryOutcome::Recovered {
                attempts: self.attempts,
                extra_time,
            }
        } else {
            RecoveryOutcome::GaveUp {
                attempts: self.attempts,
            }
        }
    }
}

/// Internal timer: a scripted wait elapsed.
#[derive(Debug)]
struct StepTimer;

/// Internal timer: send the next lease-renewal heartbeat.
#[derive(Debug)]
struct RenewTimer;

/// Periodic lease-renewal heartbeats (see
/// [`ScriptedClient::with_renewal`]).
#[derive(Debug, Clone)]
struct Renewal {
    template: Template,
    lease_ns: Option<u64>,
    period: SimDuration,
}

/// Registry handles and the typed trace stream of one client: the
/// shared `proto/*` lifecycle bundle plus the client-only lease
/// counter. `proto/fast_fails` stays lazily registered so unsupervised
/// runs keep their exact snapshot layout.
#[derive(Debug)]
struct ClientInstruments {
    registry: Registry,
    proto: ProtoInstruments,
    renewals_acked: CounterId,
    tracer: Tracer<TraceEvent>,
}

impl Default for ClientInstruments {
    fn default() -> Self {
        let mut registry = Registry::new();
        ClientInstruments {
            proto: ProtoInstruments::new(&mut registry),
            renewals_acked: registry.counter("lease/renewals_acked"),
            registry,
            tracer: Tracer::disabled(),
        }
    }
}

impl ClientInstruments {
    /// Books one bus fast-fail under `proto/fast_fails`.
    fn fast_fail(&mut self) {
        self.proto.fast_fail(&mut self.registry);
    }
}

/// Client-side exactly-once state: request identities, the cumulative-ack
/// watermark, and correlation of replies back to operations. Identity
/// allocation and settlement are the engine's [`SeqGen`]/[`Watermark`];
/// what stays client-side is which seq is the open scripted request and
/// which are fire-and-forget heartbeats.
#[derive(Debug)]
struct ExactlyOnce {
    client_id: u64,
    /// Fresh sequence numbers (1-based; retries reuse their seq).
    seqs: SeqGen,
    /// Settlement watermark: every seq ≤ ack has its reply in hand.
    watermark: Watermark,
    /// The seq of the open scripted request, while one is awaited.
    open: Option<u64>,
    /// Outstanding fire-and-forget renewal heartbeat seqs.
    heartbeat_seqs: HashSet<u64>,
}

impl ExactlyOnce {
    fn new(client_id: u64) -> Self {
        ExactlyOnce {
            client_id,
            seqs: SeqGen::new(),
            watermark: Watermark::new(),
            open: None,
            heartbeat_seqs: HashSet::new(),
        }
    }

    fn fresh_seq(&mut self) -> u64 {
        self.seqs.fresh()
    }

    /// Records that the reply for `seq` is in hand; see
    /// [`Watermark::settle`].
    fn settle(&mut self, seq: u64) -> bool {
        self.watermark.settle(seq)
    }
}

/// A client that executes a fixed script of tuplespace operations against
/// one server.
#[derive(Debug)]
pub struct ScriptedClient {
    endpoint: ComponentId,
    server: NodeId,
    /// Board-side processing charged before each request leaves (the C++
    /// client + gdb interface cost).
    think_time: SimDuration,
    script: Vec<ClientStep>,
    format: WireFormat,
    recovery: Option<RecoveryPolicy>,
    exactly_once: Option<ExactlyOnce>,
    renewal: Option<Renewal>,
    next_step: usize,
    awaiting: bool,
    /// Epoch gate for the open operation's retry/reply timers: bumped
    /// whenever the open attempt is superseded or the operation settles,
    /// so stale timer firings are no-ops by construction.
    lifecycle: EpochTimer,
    records: Vec<OpRecord>,
    /// Pushed notifications received, with their arrival instants.
    notifications: Vec<(SimTime, WireEvent)>,
    errors: Vec<String>,
    obs: ClientInstruments,
    /// Reused encode buffers for outgoing requests.
    scratch: EncodeScratch,
    finished_at: Option<SimTime>,
}

impl ScriptedClient {
    /// Creates a client that talks to the server at `server` through
    /// `endpoint`, executing `script`.
    #[must_use]
    pub fn new(
        endpoint: ComponentId,
        server: NodeId,
        think_time: SimDuration,
        script: Vec<ClientStep>,
    ) -> Self {
        ScriptedClient {
            endpoint,
            server,
            think_time,
            script,
            format: WireFormat::Xml,
            recovery: None,
            exactly_once: None,
            renewal: None,
            next_step: 0,
            awaiting: false,
            lifecycle: EpochTimer::new(),
            records: Vec::new(),
            notifications: Vec::new(),
            errors: Vec::new(),
            obs: ClientInstruments::default(),
            scratch: EncodeScratch::new(),
            finished_at: None,
        }
    }

    /// Switches the wire encoding (builder style); the default is the
    /// paper's XML.
    #[must_use]
    pub fn with_format(mut self, format: WireFormat) -> Self {
        self.format = format;
        self
    }

    /// Enables failure recovery (builder style): failed requests are
    /// re-issued per `policy` instead of being recorded as final.
    #[must_use]
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Enables exactly-once operation (builder style): every request is
    /// stamped with a [`RequestId`] `(client_id, seq)` plus the cumulative
    /// ack watermark, retries reuse the original seq, and replies are
    /// correlated back by id — so an end-to-end re-issue after a lost
    /// reply is deduplicated by the server instead of re-applied.
    #[must_use]
    pub fn with_exactly_once(mut self, client_id: u64) -> Self {
        self.exactly_once = Some(ExactlyOnce::new(client_id));
        self
    }

    /// Enables periodic lease-renewal heartbeats (builder style): every
    /// `period` the client fire-and-forgets a [`Request::Renew`] for
    /// `template` with `lease_ns`, keeping matching entries (e.g. its
    /// discovery registration) alive while it runs. Heartbeats stop once
    /// the script finishes, so a crash-stopped client's entries expire.
    ///
    /// Requires [`with_exactly_once`](Self::with_exactly_once): heartbeat
    /// replies arrive outside the request/response rhythm and are
    /// correlated by seq.
    #[must_use]
    pub fn with_renewal(
        mut self,
        template: Template,
        lease_ns: Option<u64>,
        period: SimDuration,
    ) -> Self {
        self.renewal = Some(Renewal {
            template,
            lease_ns,
            period,
        });
        self
    }

    /// The executed operations, in script order.
    #[must_use]
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// Transport errors observed.
    #[must_use]
    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    /// Pushed notify events received (subscribe/notify), in arrival order.
    #[must_use]
    pub fn notifications(&self) -> &[(SimTime, WireEvent)] {
        &self.notifications
    }

    /// When the last script step completed, if the script has finished.
    #[must_use]
    pub fn finished_at(&self) -> Option<SimTime> {
        self.finished_at
    }

    /// Whether every step has completed.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Reply timeouts that fired (attempts declared failed because their
    /// reply never arrived).
    #[must_use]
    pub fn reply_timeouts(&self) -> u64 {
        self.obs.registry.count(self.obs.proto.reply_timeouts)
    }

    /// Duplicate replies discarded by id correlation (exactly-once mode
    /// only; always 0 otherwise).
    #[must_use]
    pub fn stale_replies(&self) -> u64 {
        self.obs.registry.count(self.obs.proto.stale_replies)
    }

    /// Renewal heartbeats acknowledged by the server.
    #[must_use]
    pub fn renewals_acked(&self) -> u64 {
        self.obs.registry.count(self.obs.renewals_acked)
    }

    /// Transport errors that arrived as supervision fast-fails (the bus
    /// fenced the destination off instead of exhausting retries). Always 0
    /// when the bus runs without supervision.
    #[must_use]
    pub fn fast_fails(&self) -> u64 {
        self.obs.proto.fast_fail_count(&self.obs.registry)
    }

    /// Captures the client's metrics registry (the shared `proto/*`
    /// lifecycle paths plus `lease/`). No instrument is time-parameterized,
    /// so `_now` is unused; it stays so existing callers keep compiling.
    #[must_use]
    pub fn metrics(&self, _now: SimTime) -> Snapshot {
        self.obs.registry.snapshot()
    }

    /// The typed trace stream.
    #[must_use]
    pub fn trace(&self) -> &Tracer<TraceEvent> {
        &self.obs.tracer
    }

    /// Encodes `request` for the wire: enveloped with its identity and the
    /// current ack watermark in exactly-once mode, bare otherwise.
    fn wire_payload(&mut self, request: &Request, seq: Option<u64>) -> Bytes {
        match (&self.exactly_once, seq) {
            (Some(eo), Some(seq)) => {
                let envelope = RequestEnvelope::identified(
                    RequestId {
                        client: eo.client_id,
                        seq,
                    },
                    eo.watermark.ack(),
                    request.clone(),
                );
                Bytes::copy_from_slice(self.scratch.request_envelope(&envelope, self.format))
            }
            _ => Bytes::copy_from_slice(self.scratch.request(request, self.format)),
        }
    }

    /// Schedules the outgoing send of the open request (think time
    /// charged) and arms its reply deadline if one is configured, stamped
    /// against the current lifecycle epoch.
    fn dispatch_open(&mut self, ctx: &mut Context<'_>, payload: Bytes) {
        let endpoint = self.endpoint;
        let to = self.server;
        ctx.schedule_in(self.think_time, endpoint, NetSend { to, payload });
        if let Some(timeout) = self.recovery.and_then(|p| p.reply_timeout) {
            let token = self.lifecycle.stamp();
            ctx.schedule_self_in(self.think_time + timeout, ReplyDue { key: 0, token });
        }
    }

    /// Closes the open operation's lifecycle: stales every outstanding
    /// retry/reply timer token and releases the exactly-once identity.
    fn settle_open(&mut self) {
        self.awaiting = false;
        self.lifecycle.bump();
        if let Some(eo) = &mut self.exactly_once {
            eo.open = None;
        }
    }

    fn advance(&mut self, ctx: &mut Context<'_>) {
        while self.next_step < self.script.len() {
            match self.script[self.next_step].clone() {
                ClientStep::At(when) => {
                    self.next_step += 1;
                    if when > ctx.now() {
                        let target = ctx.self_id();
                        ctx.schedule_at(when, target, StepTimer);
                        return;
                    }
                }
                ClientStep::Delay(span) => {
                    self.next_step += 1;
                    if !span.is_zero() {
                        ctx.schedule_self_in(span, StepTimer);
                        return;
                    }
                }
                ClientStep::Request(request) => {
                    let step = self.next_step;
                    self.next_step += 1;
                    self.awaiting = true;
                    let sent_at = ctx.now() + self.think_time;
                    self.records.push(OpRecord {
                        step,
                        request: request.clone(),
                        sent_at,
                        completed_at: None,
                        response: None,
                        attempts: 1,
                        first_failure_at: None,
                    });
                    let seq = self.exactly_once.as_mut().map(|eo| {
                        let seq = eo.fresh_seq();
                        eo.open = Some(seq);
                        seq
                    });
                    let payload = self.wire_payload(&request, seq);
                    self.dispatch_open(ctx, payload);
                    return;
                }
            }
        }
        if self.finished_at.is_none() {
            self.finished_at = Some(ctx.now());
        }
    }

    /// If the open request just failed and attempts remain, arm a retry
    /// and keep the record open. Returns whether recovery was armed.
    fn try_recover(&mut self, ctx: &mut Context<'_>, failed: bool) -> bool {
        let Some(policy) = self.recovery else {
            return false;
        };
        let now = ctx.now();
        let record = self
            .records
            .last_mut()
            .expect("awaiting implies an open record");
        if !failed
            || matches!(
                request_step(record.attempts, policy.max_attempts),
                RequestStep::GiveUp
            )
        {
            return false;
        }
        record.first_failure_at.get_or_insert(now);
        record.attempts += 1;
        self.obs.tracer.emit(TraceEvent::Recovery {
            at: now,
            resolved: false,
        });
        // The new attempt opens a new epoch: any timer of the failed one
        // is stale from here on, and the fresh epoch always re-arms.
        self.lifecycle.bump();
        let token = self.lifecycle.arm().expect("a fresh epoch re-arms");
        ctx.schedule_self_in(policy.retry_delay, RetryDue { key: 0, token });
        true
    }

    /// Sends one fire-and-forget renewal heartbeat and arms the next one.
    fn send_heartbeat(&mut self, ctx: &mut Context<'_>) {
        let Some(renewal) = self.renewal.clone() else {
            return;
        };
        let eo = self
            .exactly_once
            .as_mut()
            .expect("with_renewal requires with_exactly_once");
        let seq = eo.fresh_seq();
        eo.heartbeat_seqs.insert(seq);
        let request = Request::Renew {
            template: renewal.template,
            lease_ns: renewal.lease_ns,
        };
        let payload = self.wire_payload(&request, Some(seq));
        let endpoint = self.endpoint;
        let to = self.server;
        ctx.schedule_in(self.think_time, endpoint, NetSend { to, payload });
        ctx.schedule_self_in(renewal.period, RenewTimer);
    }
}

impl Component for ScriptedClient {
    fn start(&mut self, ctx: &mut Context<'_>) {
        debug_assert!(
            self.renewal.is_none() || self.exactly_once.is_some(),
            "with_renewal requires with_exactly_once"
        );
        if let Some(renewal) = &self.renewal {
            ctx.schedule_self_in(renewal.period, RenewTimer);
        }
        self.advance(ctx);
    }

    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        let msg = match msg.downcast::<StepTimer>() {
            Ok(_) => {
                self.advance(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RetryDue>() {
            Ok(retry) => {
                // A stale epoch means a reply landed (or another path
                // recovered) first; the token gate makes that a no-op.
                if !self.lifecycle.fire(retry.token) {
                    return;
                }
                self.obs.registry.inc(self.obs.proto.retries);
                let record = self
                    .records
                    .last()
                    .expect("a live retry token implies an open record");
                let request = record.request.clone();
                // A re-issue reuses the original seq: the server's
                // duplicate cache recognizes it and replays rather than
                // re-applies if the first attempt actually landed.
                let seq = self.exactly_once.as_ref().and_then(|eo| eo.open);
                let payload = self.wire_payload(&request, seq);
                self.dispatch_open(ctx, payload);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<ReplyDue>() {
            Ok(timeout) => {
                // Only a deadline of the open attempt's epoch counts;
                // anything else means the reply (or an error) beat it.
                if !self.lifecycle.is_current(timeout.token) {
                    return;
                }
                self.obs.registry.inc(self.obs.proto.reply_timeouts);
                if self.try_recover(ctx, true) {
                    return;
                }
                let record = self
                    .records
                    .last_mut()
                    .expect("awaiting implies an open record");
                record.completed_at = Some(ctx.now());
                record.response = Some(Response::Error {
                    message: "reply timeout".into(),
                });
                self.settle_open();
                self.advance(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RenewTimer>() {
            Ok(_) => {
                if self.finished_at.is_none() {
                    self.send_heartbeat(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<NetDeliver>() {
            Ok(deliver) => {
                match server_message_from_wire(&deliver.payload) {
                    Ok(ServerMessage::Event(event)) => {
                        // Pushed notifications arrive outside the
                        // request/response rhythm.
                        self.notifications.push((ctx.now(), event));
                    }
                    Ok(ServerMessage::Response { re, response }) => {
                        // Exactly-once correlation: replies carrying an id
                        // are routed by seq — heartbeat acks settle out of
                        // band, duplicates of settled ops are discarded.
                        if let Some(eo) = &mut self.exactly_once {
                            let Some(id) = re else {
                                // An uncorrelated reply (e.g. the server
                                // answering a request it could not decode
                                // after a stream desync) cannot be tied to
                                // any operation. Acting on it — above all
                                // re-issuing the open op under a FRESH
                                // identity — is unsound: the original may
                                // still arrive and apply, yielding a
                                // duplicate. Drop it; the reply timeout
                                // recovers with the same id.
                                self.obs.registry.inc(self.obs.proto.stale_replies);
                                return;
                            };
                            if id.client != eo.client_id {
                                return; // not ours
                            }
                            if eo.heartbeat_seqs.remove(&id.seq) {
                                eo.settle(id.seq);
                                self.obs.registry.inc(self.obs.renewals_acked);
                                return;
                            }
                            if eo.open != Some(id.seq) {
                                // A late reply to an op we already gave up
                                // on settles it; a duplicate of a settled
                                // op is stale.
                                if !eo.settle(id.seq) {
                                    self.obs.registry.inc(self.obs.proto.stale_replies);
                                }
                                return;
                            }
                        }
                        if !self.awaiting {
                            return; // stray (e.g. a late timeout response)
                        }
                        // Whatever it says, this reply settles the open
                        // attempt's identity: the client holds it now.
                        if let Some(eo) = &mut self.exactly_once {
                            if let Some(seq) = eo.open {
                                eo.settle(seq);
                            }
                        }
                        let failed = response_failed(
                            &self
                                .records
                                .last()
                                .expect("awaiting implies an open record")
                                .request,
                            &response,
                        );
                        if self.try_recover(ctx, failed) {
                            // The failure was a *received* reply (empty
                            // take, server error), so the re-issue is a new
                            // logical operation and gets a fresh identity —
                            // reusing the seq would only replay the cached
                            // failure.
                            if let Some(eo) = &mut self.exactly_once {
                                eo.open = Some(eo.fresh_seq());
                            }
                            return; // still awaiting the re-issued request
                        }
                        let record = self
                            .records
                            .last_mut()
                            .expect("awaiting implies an open record");
                        record.completed_at = Some(ctx.now());
                        record.response = Some(response);
                        if record.attempts > 1 && !failed {
                            self.obs.tracer.emit(TraceEvent::Recovery {
                                at: ctx.now(),
                                resolved: true,
                            });
                        }
                        self.settle_open();
                        self.advance(ctx);
                    }
                    Err(e) => {
                        self.errors.push(format!("bad server message: {e}"));
                        if self.awaiting {
                            self.settle_open();
                            self.advance(ctx);
                        }
                    }
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok(error) = msg.downcast::<NetError>() {
            self.errors.push(error.reason.clone());
            if error.fast {
                self.obs.fast_fail();
            }
            if self.awaiting {
                if self.try_recover(ctx, true) {
                    return; // the request will be re-issued
                }
                // The in-flight request is lost; record it as failed and
                // move on.
                let record = self
                    .records
                    .last_mut()
                    .expect("awaiting implies an open record");
                record.completed_at = Some(ctx.now());
                record.response = Some(Response::Error {
                    message: error.reason.clone(),
                });
                self.settle_open();
                self.advance(ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsbus_des::Simulator;
    use tsbus_tuplespace::{template, tuple, ValueType};
    use tsbus_xmlwire::request_envelope_from_wire;

    /// A zero-latency endpoint+server stub: echoes canned responses,
    /// correlated when the request carried an identity. `drop_first`
    /// swallows that many requests without answering (a lost reply).
    struct StubServer {
        client: Option<ComponentId>,
        responses: Vec<Response>,
        seen: Vec<RequestEnvelope>,
        drop_first: usize,
    }

    impl Component for StubServer {
        fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
            if let Ok(send) = msg.downcast::<NetSend>() {
                let (envelope, _) =
                    request_envelope_from_wire(&send.payload).expect("client output decodes");
                let re = envelope.id;
                self.seen.push(envelope);
                if self.drop_first > 0 {
                    self.drop_first -= 1;
                    return;
                }
                let response = self.responses.remove(0);
                let client = self.client.expect("wired in test setup");
                ctx.send(
                    client,
                    NetDeliver {
                        from: NodeId::new(3).expect("valid"),
                        payload: Bytes::copy_from_slice(EncodeScratch::new().correlated_response(
                            re,
                            &response,
                            WireFormat::Xml,
                        )),
                    },
                );
            }
        }
    }

    #[test]
    fn script_executes_in_order_with_waits() {
        let mut sim = Simulator::new();
        let client_id = ComponentId::from_raw(1);
        let stub = sim.add_component(
            "stub",
            StubServer {
                client: Some(client_id),
                responses: vec![
                    Response::WriteAck,
                    Response::Entry {
                        tuple: Some(tuple!["e", 1]),
                    },
                ],
                seen: Vec::new(),
                drop_first: 0,
            },
        );
        let script = vec![
            ClientStep::At(SimTime::from_secs(1)),
            ClientStep::Request(Request::Write {
                tuple: tuple!["e", 1],
                lease_ns: Some(160_000_000_000),
            }),
            ClientStep::Delay(SimDuration::from_secs(2)),
            ClientStep::Request(Request::TakeIfExists {
                template: template!["e", ValueType::Int],
            }),
        ];
        sim.add_component(
            "client",
            ScriptedClient::new(
                stub,
                NodeId::new(3).expect("valid"),
                SimDuration::ZERO,
                script,
            ),
        );
        sim.run(1000);
        let client: &ScriptedClient = sim.component(client_id).expect("registered");
        assert!(client.is_finished());
        assert_eq!(client.records().len(), 2);
        assert_eq!(client.records()[0].sent_at, SimTime::from_secs(1));
        assert_eq!(client.records()[1].sent_at, SimTime::from_secs(3));
        assert!(client.records()[1].returned_entry());
        assert_eq!(client.finished_at(), Some(SimTime::from_secs(3)));
        let stub_ref: &StubServer = sim.component(stub).expect("registered");
        assert_eq!(stub_ref.seen.len(), 2);
    }

    #[test]
    fn think_time_delays_requests() {
        let mut sim = Simulator::new();
        let client_id = ComponentId::from_raw(1);
        let stub = sim.add_component(
            "stub",
            StubServer {
                client: Some(client_id),
                responses: vec![Response::WriteAck],
                seen: Vec::new(),
                drop_first: 0,
            },
        );
        sim.add_component(
            "client",
            ScriptedClient::new(
                stub,
                NodeId::new(3).expect("valid"),
                SimDuration::from_millis(7),
                vec![ClientStep::Request(Request::Write {
                    tuple: tuple![1],
                    lease_ns: None,
                })],
            ),
        );
        sim.run(1000);
        let client: &ScriptedClient = sim.component(client_id).expect("registered");
        assert_eq!(client.records()[0].sent_at, SimTime::from_millis(7));
        assert_eq!(
            client.records()[0].completed_at,
            Some(SimTime::from_millis(7))
        );
    }

    #[test]
    fn latency_accessor_reports_roundtrip() {
        let record = OpRecord {
            step: 0,
            request: Request::Count {
                template: template![1],
            },
            sent_at: SimTime::from_secs(1),
            completed_at: Some(SimTime::from_secs(4)),
            response: Some(Response::Count { count: 0 }),
            attempts: 1,
            first_failure_at: None,
        };
        assert_eq!(record.latency(), Some(SimDuration::from_secs(3)));
        assert!(!record.returned_entry());
        assert_eq!(record.recovery_outcome(), RecoveryOutcome::FirstTry);
    }

    #[test]
    fn recovery_reissues_an_empty_take_until_it_succeeds() {
        let mut sim = Simulator::new();
        let client_id = ComponentId::from_raw(1);
        let stub = sim.add_component(
            "stub",
            StubServer {
                client: Some(client_id),
                responses: vec![
                    Response::Entry { tuple: None },
                    Response::Entry { tuple: None },
                    Response::Entry {
                        tuple: Some(tuple!["e", 1]),
                    },
                ],
                seen: Vec::new(),
                drop_first: 0,
            },
        );
        let script = vec![ClientStep::Request(Request::TakeIfExists {
            template: template!["e", ValueType::Int],
        })];
        sim.add_component(
            "client",
            ScriptedClient::new(
                stub,
                NodeId::new(3).expect("valid"),
                SimDuration::ZERO,
                script,
            )
            .with_recovery(RecoveryPolicy::new(5, SimDuration::from_millis(10))),
        );
        sim.run(1000);
        let client: &ScriptedClient = sim.component(client_id).expect("registered");
        assert!(client.is_finished());
        let record = &client.records()[0];
        assert!(record.returned_entry(), "third attempt finds the entry");
        assert_eq!(
            record.recovery_outcome(),
            RecoveryOutcome::Recovered {
                attempts: 3,
                // Two 10 ms retry waits between the failure at t=0 and the
                // success (the stub answers instantly).
                extra_time: SimDuration::from_millis(20),
            }
        );
        let stub_ref: &StubServer = sim.component(stub).expect("registered");
        assert_eq!(stub_ref.seen.len(), 3, "the same take was sent three times");
    }

    #[test]
    fn recovery_gives_up_after_the_attempt_budget() {
        let mut sim = Simulator::new();
        let client_id = ComponentId::from_raw(1);
        let stub = sim.add_component(
            "stub",
            StubServer {
                client: Some(client_id),
                responses: vec![
                    Response::Entry { tuple: None },
                    Response::Entry { tuple: None },
                ],
                seen: Vec::new(),
                drop_first: 0,
            },
        );
        let script = vec![ClientStep::Request(Request::TakeIfExists {
            template: template!["e", ValueType::Int],
        })];
        sim.add_component(
            "client",
            ScriptedClient::new(
                stub,
                NodeId::new(3).expect("valid"),
                SimDuration::ZERO,
                script,
            )
            .with_recovery(RecoveryPolicy::new(2, SimDuration::from_millis(10))),
        );
        sim.run(1000);
        let client: &ScriptedClient = sim.component(client_id).expect("registered");
        assert!(client.is_finished());
        let record = &client.records()[0];
        assert!(!record.returned_entry());
        assert_eq!(
            record.recovery_outcome(),
            RecoveryOutcome::GaveUp { attempts: 2 }
        );
    }

    #[test]
    fn reply_timeout_reissues_a_lost_reply_with_the_same_id() {
        let mut sim = Simulator::new();
        let client_id = ComponentId::from_raw(1);
        let stub = sim.add_component(
            "stub",
            StubServer {
                client: Some(client_id),
                responses: vec![Response::WriteAck],
                seen: Vec::new(),
                drop_first: 1, // the first reply vanishes on the wire
            },
        );
        sim.add_component(
            "client",
            ScriptedClient::new(
                stub,
                NodeId::new(3).expect("valid"),
                SimDuration::ZERO,
                vec![ClientStep::Request(Request::Write {
                    tuple: tuple!["w"],
                    lease_ns: None,
                })],
            )
            .with_exactly_once(7)
            .with_recovery(
                RecoveryPolicy::new(3, SimDuration::from_millis(10))
                    .with_reply_timeout(SimDuration::from_millis(50)),
            ),
        );
        sim.run(1000);
        let client: &ScriptedClient = sim.component(client_id).expect("registered");
        assert!(client.is_finished(), "the re-issue unblocked the script");
        assert_eq!(client.reply_timeouts(), 1);
        assert_eq!(
            client.records()[0].recovery_outcome(),
            RecoveryOutcome::Recovered {
                attempts: 2,
                // The failure is observed when the 50 ms timeout fires;
                // the re-issue lands 10 ms (retry delay) later.
                extra_time: SimDuration::from_millis(10),
            }
        );
        let stub_ref: &StubServer = sim.component(stub).expect("registered");
        let ids: Vec<_> = stub_ref.seen.iter().map(|e| e.id).collect();
        let id = tsbus_xmlwire::RequestId { client: 7, seq: 1 };
        assert_eq!(
            ids,
            vec![Some(id), Some(id)],
            "a lost-reply re-issue reuses the identity so the server can dedup"
        );
    }

    #[test]
    fn received_failure_retries_get_fresh_identities_and_carry_the_ack() {
        let mut sim = Simulator::new();
        let client_id = ComponentId::from_raw(1);
        let stub = sim.add_component(
            "stub",
            StubServer {
                client: Some(client_id),
                responses: vec![
                    Response::Entry { tuple: None },
                    Response::Entry {
                        tuple: Some(tuple!["e", 1]),
                    },
                ],
                seen: Vec::new(),
                drop_first: 0,
            },
        );
        sim.add_component(
            "client",
            ScriptedClient::new(
                stub,
                NodeId::new(3).expect("valid"),
                SimDuration::ZERO,
                vec![ClientStep::Request(Request::TakeIfExists {
                    template: template!["e", ValueType::Int],
                })],
            )
            .with_exactly_once(7)
            .with_recovery(RecoveryPolicy::new(3, SimDuration::from_millis(10))),
        );
        sim.run(1000);
        let client: &ScriptedClient = sim.component(client_id).expect("registered");
        assert!(client.records()[0].returned_entry());
        let stub_ref: &StubServer = sim.component(stub).expect("registered");
        // The empty reply settled seq 1, so the retry is a NEW operation
        // (seq 2) acking seq 1 — replaying seq 1 would only return the
        // cached miss again.
        assert_eq!(stub_ref.seen[0].id.map(|i| i.seq), Some(1));
        assert_eq!(stub_ref.seen[0].ack, 0);
        assert_eq!(stub_ref.seen[1].id.map(|i| i.seq), Some(2));
        assert_eq!(stub_ref.seen[1].ack, 1);
    }

    #[test]
    fn renewal_heartbeats_fire_out_of_band_and_correlate_by_seq() {
        let mut sim = Simulator::new();
        let client_id = ComponentId::from_raw(1);
        let stub = sim.add_component(
            "stub",
            StubServer {
                client: Some(client_id),
                responses: vec![Response::Count { count: 1 }; 3],
                seen: Vec::new(),
                drop_first: 0,
            },
        );
        sim.add_component(
            "client",
            ScriptedClient::new(
                stub,
                NodeId::new(3).expect("valid"),
                SimDuration::ZERO,
                vec![ClientStep::Delay(SimDuration::from_millis(100))],
            )
            .with_exactly_once(9)
            .with_renewal(
                template!["svc"],
                Some(10_000_000),
                SimDuration::from_millis(30),
            ),
        );
        sim.run(1000);
        let client: &ScriptedClient = sim.component(client_id).expect("registered");
        assert!(client.is_finished());
        assert_eq!(
            client.renewals_acked(),
            3,
            "heartbeats at 30/60/90 ms; none after the script finished at 100 ms"
        );
        assert!(client.records().is_empty(), "heartbeats are not script ops");
        let stub_ref: &StubServer = sim.component(stub).expect("registered");
        assert!(stub_ref
            .seen
            .iter()
            .all(|e| matches!(e.request, Request::Renew { .. })));
        assert_eq!(
            stub_ref.seen.iter().filter_map(|e| e.id).count(),
            3,
            "every heartbeat carries its own identity"
        );
    }
}
