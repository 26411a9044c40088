//! # tsbus-xmlwire — the wire formats of the tuplespace protocol
//!
//! The paper's board↔server interface serializes tuplespace entries and
//! operations as XML over a byte stream. This crate provides, from scratch,
//! that XML form and a compact binary alternative (the encoding ablation),
//! behind one encoder and one decoder per direction:
//!
//! * [`EncodeScratch`] writes a [`Request`], a [`RequestEnvelope`], a
//!   correlated [`Response`] or a [`WireEvent`] in the chosen
//!   [`WireFormat`] into a reusable buffer;
//! * [`request_envelope_from_wire`] (server side) and
//!   [`server_message_from_wire`] (client side) decode either format,
//!   dispatching on the first byte: binary messages open with
//!   [`BINARY_MAGIC`], which can never open an XML document.
//!
//! Messages are written straight to text. A pull reader lexes the subset
//! used on the wire (prolog, comments, attributes, the five predefined
//! entities, character references) straight into the message in one pass;
//! its errors surface as [`DecodeWireError`].
//!
//! ## Example
//!
//! ```
//! use tsbus_tuplespace::tuple;
//! use tsbus_xmlwire::{request_envelope_from_wire, EncodeScratch, Request, WireFormat};
//!
//! let req = Request::Write {
//!     tuple: tuple!["reading", 42],
//!     lease_ns: Some(160_000_000_000), // the paper's 160 s lease
//! };
//! let mut scratch = EncodeScratch::new();
//! let xml = scratch.request(&req, WireFormat::Xml);
//! assert!(xml.starts_with(br#"<op type="write" lease-ns="160000000000">"#));
//! let (envelope, format) = request_envelope_from_wire(xml)?;
//! assert_eq!((envelope.id, envelope.request, format), (None, req, WireFormat::Xml));
//! # Ok::<(), tsbus_xmlwire::DecodeWireError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binary;
mod codec;
#[cfg(test)]
mod dom;
#[cfg(test)]
mod dom_oracle;
#[cfg(test)]
mod dom_walker;
#[cfg(test)]
mod error_corpus;
#[cfg(test)]
mod parser;
mod reader;

pub use binary::BINARY_MAGIC;
pub use codec::{
    DecodeWireError, Request, RequestEnvelope, RequestId, Response, ServerMessage, WireEvent,
};
pub use reader::ParseXmlError;

/// The two wire encodings the protocol supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// The paper's XML representation.
    #[default]
    Xml,
    /// The compact binary ablation format.
    Binary,
}

/// Reusable encode buffers for steady-state wire traffic: the crate's only
/// encoder.
///
/// Each method clears the buffer for the chosen format, writes the message
/// into it and returns the encoded bytes. Endpoints hold one scratch per
/// agent, so after warm-up the per-message `String`/`Vec` allocations of
/// the encode path disappear — only the final copy into the transport's
/// `Bytes` remains.
#[derive(Debug, Clone, Default)]
pub struct EncodeScratch {
    xml: String,
    buf: Vec<u8>,
}

impl EncodeScratch {
    /// Creates an empty scratch (buffers grow to steady-state size on first
    /// use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the buffer of `format` and fills it with the matching writer.
    fn fill(
        &mut self,
        format: WireFormat,
        xml: impl FnOnce(&mut String),
        binary: impl FnOnce(&mut Vec<u8>),
    ) -> &[u8] {
        match format {
            WireFormat::Xml => {
                self.xml.clear();
                xml(&mut self.xml);
                self.xml.as_bytes()
            }
            WireFormat::Binary => {
                self.buf.clear();
                binary(&mut self.buf);
                &self.buf
            }
        }
    }

    /// Encodes a bare request (no exactly-once identity). Byte-identical to
    /// the same request wrapped by [`RequestEnvelope::bare`].
    pub fn request(&mut self, request: &Request, format: WireFormat) -> &[u8] {
        self.fill(
            format,
            |out| codec::write_request(request, None, out),
            |out| binary::put_request(out, request, None),
        )
    }

    /// Encodes a request envelope: the request plus, when present, its
    /// `client`/`seq` identity and `ack` watermark.
    pub fn request_envelope(&mut self, envelope: &RequestEnvelope, format: WireFormat) -> &[u8] {
        let identity = envelope.id.map(|id| (id, envelope.ack));
        self.fill(
            format,
            |out| codec::write_request(&envelope.request, identity, out),
            |out| binary::put_request(out, &envelope.request, identity),
        )
    }

    /// Encodes a response echoing the identity `re` of the request it
    /// answers; an uncorrelated (`None`) response carries no identity.
    pub fn correlated_response(
        &mut self,
        re: Option<RequestId>,
        response: &Response,
        format: WireFormat,
    ) -> &[u8] {
        self.fill(
            format,
            |out| codec::write_response(response, re, out),
            |out| binary::put_response(out, response, re),
        )
    }

    /// Encodes a pushed event.
    pub fn event(&mut self, event: &WireEvent, format: WireFormat) -> &[u8] {
        self.fill(
            format,
            |out| codec::write_event(event, out),
            |out| binary::put_event(out, event),
        )
    }
}

/// Decodes a request envelope in either format, dispatching on the first
/// byte, and reports which format it was (the server replies in kind).
/// Bare requests decode with `id: None`.
///
/// # Errors
///
/// Returns [`DecodeWireError`] if the bytes are not a valid request in the
/// format their first byte selects.
pub fn request_envelope_from_wire(
    bytes: &[u8],
) -> Result<(RequestEnvelope, WireFormat), DecodeWireError> {
    if bytes.first() == Some(&BINARY_MAGIC) {
        Ok((binary::request_envelope(bytes)?, WireFormat::Binary))
    } else {
        let text = std::str::from_utf8(bytes).map_err(|_| {
            DecodeWireError::Shape("request is neither binary nor UTF-8 XML".to_owned())
        })?;
        Ok((reader::request_envelope(text)?, WireFormat::Xml))
    }
}

/// Decodes a server message (a response or a pushed event) in either
/// format, dispatching on the first byte.
///
/// # Errors
///
/// Returns [`DecodeWireError`] if the bytes are not a valid server message
/// in the format their first byte selects.
pub fn server_message_from_wire(bytes: &[u8]) -> Result<ServerMessage, DecodeWireError> {
    if bytes.first() == Some(&BINARY_MAGIC) {
        binary::server_message(bytes)
    } else {
        let text = std::str::from_utf8(bytes).map_err(|_| {
            DecodeWireError::Shape("message is neither binary nor UTF-8 XML".to_owned())
        })?;
        reader::server_message(text)
    }
}
