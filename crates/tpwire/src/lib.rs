//! # tsbus-tpwire — the TpWIRE embedded serial bus, modeled bit-exactly
//!
//! TpWIRE (Theseus Programmable Wires) is the low-cost daisy-chained
//! master/slave serial bus of the paper *"Estimation of Bus Performance for
//! a Tuplespace in an Embedded Architecture"* (DATE 2003). This crate
//! implements it in layers:
//!
//! * [`crc`] — CRC-4 with polynomial x⁴ + x + 1 (property-tested against a
//!   long-division reference; detects all single-bit and ≤4-bit burst
//!   errors).
//! * [`TxFrame`] — bit-exact 16-bit master frame encode/decode (paper
//!   Table 1); slave replies (Table 2) are built field by field.
//! * [`NodeId`] — the 127-node + broadcast addressing model with the dual
//!   address spaces.
//! * The slave state machine (crate-private): selection, memory/pointer,
//!   system registers, the stream FIFO, the 2048-bit-period self-reset.
//! * [`Wiring`] / [`BusParams`] — programmable bit rate, protocol latencies
//!   and the two §3.2 *n*-wire scaling modes (parallel data lines vs
//!   parallel buses).
//! * [`TpWireBus`] — the discrete-event bus component: honest master
//!   scheduling (keep-alive polls, INT-accelerated discovery, chunked relay
//!   with fairness), retries/timeouts and frame-error injection.
//! * [`analytic`] — an independent closed-form timing model standing in for
//!   the TpICU/SCM hardware the paper validates against.
//!
//! ## Example: frame round-trip
//!
//! ```
//! use tsbus_tpwire::{Command, TxFrame};
//!
//! let frame = TxFrame::new(Command::WriteData, 0x5A);
//! let wire = frame.encode();
//! assert_eq!(TxFrame::decode(wire)?, frame);
//! # Ok::<(), tsbus_tpwire::DecodeFrameError>(())
//! ```
//!
//! ## Example: timing a transaction
//!
//! ```
//! use tsbus_tpwire::BusParams;
//!
//! let params = BusParams::theseus_default(); // 8 Mbit/s, 1-wire
//! // A transaction with the 2nd slave in the chain:
//! let t = params.transaction_time(2);
//! assert_eq!(t.as_micros_f64(), 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
mod bus;
pub mod crc;
mod frame;
mod instrument;
mod node;
mod slave;
mod supervisor;
mod timing;
mod wiring;

pub use bus::{
    BroadcastCommand, MasterSend, SendStream, StreamDelivered, StreamEndpoint, StreamFailed,
    StreamSent, TpWireBus,
};
pub use frame::{Command, DecodeFrameError, TxFrame, FRAME_BITS};
pub use instrument::{BusInstruments, BusStats};
pub use node::{InvalidNodeId, NodeId};
pub use slave::SlaveDevice;
pub use wiring::InvalidWiring;
pub use wiring::{BusParams, Wiring};
