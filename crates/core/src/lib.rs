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
//! * [`BusCbrSource`] / [`BusCbrSink`] — background traffic over the bus.
//! * [`run_validation`] / [`run_case_study`] — the Fig. 6 validation setup
//!   and the Fig. 7 case study as one-call experiments;
//!   [`run_case_study_tcp`] runs the case study over the §4.3
//!   TCP-over-Ethernet baseline, on NS-2-style duplex [`Link`]s carrying
//!   [`Packet`]s.
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
mod scenario;
mod server;
mod tcp;

pub use buscbr::{BusCbrSink, BusCbrSource};
pub use chaos::{run_chaos_trial, ChaosConfig, ChaosTrial, Violation, ViolationKind};
pub use client::OpRecord;
pub use client::{ClientStep, RecoveryOutcome, RecoveryPolicy, ScriptedClient};
pub use endpoint::{EndpointCosts, TpwireEndpoint};
pub use farm::FarmResult;
pub use farm::{run_farm, FarmConfig};
pub use link::{Link, LinkSpec};
pub use net::{MessageAssembler, NetDeliver, NetError, NetSend};
pub use packet::{Packet, Transmit};
pub use scenario::ValidationResult;
pub use scenario::{
    case_study_script, run_case_study, run_case_study_observed, run_case_study_tcp, run_validation,
    CaseStudyConfig, CaseStudyResult, ValidationConfig,
};
pub use server::{ServerStats, SpaceServerAgent};
pub use tcp::TcpParams;
