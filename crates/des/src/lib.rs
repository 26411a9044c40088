//! # tsbus-des — deterministic discrete-event simulation kernel
//!
//! The foundation of the `tsbus` workspace: a small, deterministic
//! discrete-event simulator filling the role NS-2 plays in the paper
//! *"Estimation of Bus Performance for a Tuplespace in an Embedded
//! Architecture"* (DATE 2003).
//!
//! ## Model
//!
//! A [`Simulator`] owns a clock ([`SimTime`]), a pending-event set (a
//! binary heap ordered by time, then scheduling order), and a registry of
//! [`Component`]s. Components react to [`Message`]s and use their
//! [`Context`] to schedule further events, draw deterministic random
//! numbers ([`SimRng`]) and write trace records ([`TraceLog`]).
//!
//! ## Determinism
//!
//! Same seed + same construction order ⇒ identical runs: events at equal
//! timestamps fire in scheduling (FIFO) order, RNG draws are seeded and
//! stream-separable, and no host randomness (hash iteration order, wall
//! clock) influences results.
//!
//! ## Example
//!
//! ```
//! use tsbus_des::{
//!     Component, Context, Message, MessageExt, SimDuration, SimTime, Simulator,
//! };
//!
//! #[derive(Debug)]
//! struct Arrival;
//!
//! /// A Poisson arrival process counting its own arrivals.
//! struct Source {
//!     mean_gap: SimDuration,
//!     arrivals: u64,
//! }
//!
//! impl Component for Source {
//!     fn start(&mut self, ctx: &mut Context<'_>) {
//!         let gap = ctx.rng().exponential(self.mean_gap.as_secs_f64());
//!         ctx.schedule_self_in(SimDuration::from_secs_f64(gap), Arrival);
//!     }
//!
//!     fn handle(&mut self, ctx: &mut Context<'_>, _msg: Box<dyn Message>) {
//!         self.arrivals += 1;
//!         let gap = ctx.rng().exponential(self.mean_gap.as_secs_f64());
//!         ctx.schedule_self_in(SimDuration::from_secs_f64(gap), Arrival);
//!     }
//! }
//!
//! let mut sim = Simulator::with_seed(1);
//! let id = sim.add_component(
//!     "source",
//!     Source { mean_gap: SimDuration::from_millis(100), arrivals: 0 },
//! );
//! sim.run_until(SimTime::from_secs(10));
//! let source: &Source = sim.component(id).expect("registered above");
//! assert!(source.arrivals > 50 && source.arrivals < 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod component;
mod event;
mod kernel;
mod queue;
mod rng;
pub mod stats;
mod time;
mod trace;

pub use component::{Component, ComponentId, Context};
pub use event::{EventId, Message, MessageExt};
pub use kernel::{Simulator, DEFAULT_EVENT_LIMIT};
pub use rng::{derive_stream, derive_stream_seed, splitmix64_finalize, SimRng, SplitMix64};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceLog, TraceRecord};
