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
//! * [`TxFrame`] / [`RxFrame`] — bit-exact 16-bit frame encode/decode
//!   (paper Tables 1–2).
//! * [`NodeId`] / [`AddressSpace`] / [`SystemReg`] — the 127-node + broadcast
//!   addressing model with the dual address spaces.
//! * [`SlaveDevice`] — the slave state machine: selection, memory/pointer,
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
pub mod instrument;
mod node;
mod slave;
mod supervisor;
mod timing;
mod wiring;

pub use bus::{
    BroadcastCommand, MasterSend, SendStream, StreamDelivered, StreamEndpoint, StreamFailed,
    StreamSent, TpWireBus, MAX_STREAM_PAYLOAD, STREAM_HEADER_BYTES,
};
pub use frame::{Command, DecodeFrameError, RxFrame, RxType, TxFrame, FRAME_BITS};
pub use instrument::{BusInstruments, BusStats};
pub use node::{AddressSpace, InvalidNodeId, NodeId, SystemReg, MAX_NODE_ID};
pub use slave::{SlaveDevice, Watchdog, MEMORY_BYTES, STREAM_ADDR};
pub use wiring::{
    BusParams, InvalidWiring, WirePlan, Wiring, RESET_ACTIVE_BITS, RESET_TIMEOUT_BITS,
};
