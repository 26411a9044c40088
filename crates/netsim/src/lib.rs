//! # tsbus-netsim — NS-2-style network modeling on the tsbus DES kernel
//!
//! The generic network-simulation layer of the workspace: packets and
//! duplex [`Link`]s with serialization/propagation delay and drop-tail
//! queues, the NS-2 `duplex-link` analog.
//!
//! The TpWIRE bus itself lives in `tsbus-tpwire` (it is a master/slave
//! polled bus, not a packet-switched link); this crate supplies the
//! substrate for the Ethernet/TCP baseline the paper discusses in §4.3.
//!
//! ## Example: one packet over a 1 Mb/s link
//!
//! ```
//! use bytes::Bytes;
//! use tsbus_des::{Component, Context, Message, SimDuration, SimTime, Simulator};
//! use tsbus_netsim::{Link, LinkSpec, Packet, Transmit};
//!
//! /// Counts the packets a link delivers to it.
//! #[derive(Default)]
//! struct Endpoint {
//!     received: u64,
//! }
//!
//! impl Component for Endpoint {
//!     fn handle(&mut self, _ctx: &mut Context<'_>, _msg: Box<dyn Message>) {
//!         self.received += 1;
//!     }
//! }
//!
//! let mut sim = Simulator::new();
//! let a = sim.add_component("a", Endpoint::default());
//! let b = sim.add_component("b", Endpoint::default());
//! let spec = LinkSpec::new(1_000_000.0, SimDuration::from_micros(10), 64);
//! let link = sim.add_component("link", Link::new(spec, a, b));
//! sim.with_context(|ctx| {
//!     let packet = Packet::new(a, b, 125, Bytes::new(), ctx.now());
//!     ctx.send(link, Transmit { from: a, packet });
//! });
//! // 125 bytes at 1 Mb/s take 1 ms to serialize, plus 10 µs propagation.
//! sim.run_until(SimTime::from_micros(1_009));
//! assert_eq!(sim.component::<Endpoint>(b).expect("registered").received, 0);
//! sim.run_until(SimTime::from_micros(1_010));
//! assert_eq!(sim.component::<Endpoint>(b).expect("registered").received, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod link;
mod packet;

pub use link::{Link, LinkSpec, LinkStats};
pub use packet::{Deliver, Packet, PacketSeq, Transmit};
