//! # tsbus-core — the bus-performance estimation framework
//!
//! The primary contribution of the paper *"Estimation of Bus Performance
//! for a Tuplespace in an Embedded Architecture"* (DATE 2003) is a rapid
//! prototyping methodology: run real tuplespace client/server logic over a
//! simulated interconnect and measure what the middleware costs on the bus
//! under design. This crate is that framework:
//!
//! * [`ScriptedClient`] / [`SpaceServerAgent`] — the application layer (the
//!   C++ board client and the JavaSpaces-like server), exchanging XML
//!   protocol messages.
//! * [`TpwireEndpoint`] — the TpWIRE transport binding (the SystemC +
//!   gdb/socket glue of the paper, modeled as endpoint costs).
//! * [`TcpEndpoint`] / [`Switch`] — the §4.3 TCP-over-Ethernet baseline,
//!   over NS-2-style duplex [`Link`]s carrying [`Packet`]s.
//! * [`BusCbrSource`] / [`BusCbrSink`] — background traffic over the bus.
//! * [`scenario`] — the Fig. 6 validation setup and the Fig. 7 case study
//!   as one-call experiments ([`run_validation`], [`run_case_study`],
//!   [`run_case_study_tcp`]).
//!
//! ## Example: one Table 4 cell
//!
//! ```
//! use tsbus_core::{run_case_study, CaseStudyConfig};
//!
//! let cfg = CaseStudyConfig::table4_reference().with_cbr_rate(0.3);
//! let result = run_case_study(&cfg);
//! assert!(result.finished);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buscbr;
pub mod chaos;
mod client;
mod dedup;
mod endpoint;
mod farm;
mod link;
mod net;
mod packet;
pub mod scenario;
mod server;
mod tcp;

pub use buscbr::{BusCbrSink, BusCbrSource};
pub use chaos::{run_chaos_trial, ChaosConfig, ChaosTrial, Violation, ViolationKind};
pub use client::{ClientStep, OpRecord, RecoveryOutcome, RecoveryPolicy, ScriptedClient};
pub use dedup::{Admission, DedupCache};
pub use endpoint::{EndpointCosts, TpwireEndpoint};
pub use farm::{run_farm, FarmConfig, FarmResult};
pub use link::{Link, LinkSpec, LinkStats};
pub use net::{MessageAssembler, NetDeliver, NetError, NetSend};
pub use packet::{Deliver, Packet, PacketSeq, Transmit};
pub use scenario::{
    case_study_entry, case_study_script, case_study_template, run_case_study,
    run_case_study_observed, run_case_study_tcp, run_validation, CaseStudyConfig, CaseStudyResult,
    ValidationConfig, ValidationResult,
};
pub use server::{ServerStats, SpaceServerAgent};
pub use tcp::{build_tcp_star, Switch, TcpEndpoint, TcpParams, ACK_BYTES, SEGMENT_OVERHEAD};
