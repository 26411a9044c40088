//! tsbus-proto: the request-lifecycle engine.
//!
//! The stack layers a tuplespace client protocol over the TpWIRE bus,
//! and by PR 7 three layers had each re-implemented the same request
//! lifecycle — identities, reply deadlines, staleness-guarded retry
//! timers, backoff, breaker admission, lifecycle counters: the
//! `ScriptedClient` recovery path, the `ShardRouter` sub-request
//! machinery, and the TpWIRE master's frame-retry ladder. The drift
//! between the three copies is exactly where the bugs lived (the PR 7
//! `RetrySub` stale-armed-flag wedge was a mistake the client layer had
//! already solved), and one engine is also what future batching and
//! pipelining work needs to optimize once rather than thrice.
//!
//! The engine is deterministic, simulator-agnostic plain state: layers
//! keep scheduling their own messages through the DES and keep their
//! policy knobs; what they delegate here is
//!
//! * **identity** — [`SeqGen`], [`Watermark`], [`RequestTable`]: fresh
//!   seqs, the cumulative-ack settlement watermark, and the
//!   outstanding-request map with per-request attempt counts;
//! * **timing validity** — [`EpochTimer`] with [`TimerToken`] /
//!   [`ArmToken`]: every timer wake-up carries a token, any firing
//!   against a stale epoch is a guaranteed no-op, and a one-shot retry
//!   delay can always re-arm (the `retry_armed` bug class is
//!   unrepresentable);
//! * **decisions** — [`frame_step`] (wire ladder with
//!   [`tsbus_faults`] backoff and breaker admission) and
//!   [`request_step`] (request-level attempt budgets);
//! * **instruments** — [`ProtoInstruments`], the shared `proto/*`
//!   counter taxonomy on the [`tsbus_obs`] registry.
//!
//! What stays in the layers: transport encoding, routing, parking
//! policy, quorum/scatter bookkeeping — the *policy* shims around this
//! engine. See `DESIGN.md` ("Request-lifecycle layering") for the
//! ownership table.

#![warn(missing_docs)]

mod decision;
mod instruments;
mod table;
mod timer;

pub use decision::{frame_step, request_step, FrameStep, RequestStep};
pub use instruments::ProtoInstruments;
pub use table::Entry;
pub use table::{RequestTable, SeqGen, Watermark};
pub use timer::{ArmToken, EpochTimer, ReplyDue, RetryDue, TimerToken};
