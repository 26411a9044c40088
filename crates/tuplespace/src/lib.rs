//! # tsbus-tuplespace — a Linda/JavaSpaces-style tuplespace middleware
//!
//! The communication middleware of the paper *"Estimation of Bus
//! Performance for a Tuplespace in an Embedded Architecture"* (DATE 2003):
//! agents coordinate by writing, reading and removing **tuples** (ordered
//! vectors of typed values) in a globally shared, associatively addressed
//! space.
//!
//! * [`Value`] / [`Tuple`] / [`Template`] — the data model and the Linda
//!   matching rule (exact fields, typed wildcards, untyped wildcards).
//! * [`Space`] — the store: leased entries, timestamp total order (oldest
//!   match wins), and one continuation store for subscribe/notify events
//!   and parked blocking reads and takes. Time-explicit, so it plugs into
//!   the discrete-event simulation directly.
//! * [`discovery`] — service discovery built on the space itself.
//!
//! ## Example
//!
//! ```
//! use tsbus_des::SimTime;
//! use tsbus_tuplespace::{template, tuple, Lease, Space, ValueType};
//!
//! let mut space = Space::new();
//! let now = SimTime::ZERO;
//!
//! // A producer publishes a request...
//! space.write(tuple!["fft-request", vec![1u8, 2, 3]], Lease::Forever, now);
//!
//! // ...and any consumer matching the shape picks it up.
//! let request = space
//!     .take(&template!["fft-request", ValueType::Bytes], now)
//!     .expect("request queued above");
//! assert_eq!(request.field(1).and_then(|v| v.as_bytes()), Some(&[1u8, 2, 3][..]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod discovery;
mod space;
mod template;
mod tuple;
mod value;

pub use space::{AuditRecord, EntryId, Notification, SpaceStats};
pub use space::{EventKind, Lease, Space, SubscriptionId, WaitKind};
pub use template::{IntoPattern, Pattern, Template};
pub use tuple::Tuple;
pub use value::{Value, ValueType};
