//! # tsbus-xmlwire — the XML wire format of the tuplespace protocol
//!
//! The paper's board↔server interface serializes tuplespace entries and
//! operations as XML over a byte stream. This crate provides, from scratch:
//!
//! * a small XML document model ([`XmlElement`], [`XmlNode`]) with a
//!   compact writer;
//! * a recursive-descent [`parse`]r for the subset used on the wire
//!   (prolog, comments, attributes, the five predefined entities, character
//!   references), which the decoders read through the document model;
//! * the protocol [`codec`]: [`Request`]/[`Response`] messages carrying
//!   tuples and templates, written straight to text.
//!
//! ## Example
//!
//! ```
//! use tsbus_tuplespace::{template, tuple, ValueType};
//! use tsbus_xmlwire::{request_from_xml, request_to_xml, Request};
//!
//! let req = Request::Write {
//!     tuple: tuple!["reading", 42],
//!     lease_ns: Some(160_000_000_000), // the paper's 160 s lease
//! };
//! let xml = request_to_xml(&req);
//! assert!(xml.starts_with(r#"<op type="write" lease-ns="160000000000">"#));
//! assert_eq!(request_from_xml(&xml)?, req);
//! # Ok::<(), tsbus_xmlwire::DecodeWireError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod codec;
mod dom;
#[cfg(test)]
mod dom_oracle;
mod parser;

pub use binary::{
    correlated_response_to_wire, event_to_wire, request_envelope_from_wire,
    request_envelope_to_wire, request_from_wire, request_to_wire, response_to_wire,
    server_message_from_wire, EncodeScratch, WireFormat, BINARY_MAGIC,
};
pub use codec::{
    correlated_response_to_xml, correlated_response_to_xml_into, decode_event, decode_request,
    decode_request_envelope, decode_response, decode_template, decode_tuple, decode_value,
    event_to_xml, event_to_xml_into, request_envelope_from_xml, request_envelope_to_xml,
    request_envelope_to_xml_into, request_from_xml, request_to_xml, request_to_xml_into,
    response_from_xml, response_to_xml, server_message_from_xml, DecodeWireError, Request,
    RequestEnvelope, RequestId, Response, ServerMessage, WireEvent,
};
pub use dom::{escape, is_valid_name, XmlElement, XmlNode};
pub use parser::{parse, ParseXmlError};
