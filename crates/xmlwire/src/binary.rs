//! A compact binary wire format — the ablation partner of the XML codec.
//!
//! The paper's prototype pays XML's verbosity on a bus where every byte is
//! ~100 bit-periods of wire time; this module provides the counterfactual:
//! the same protocol, length-prefixed binary. The `ablation_encoding`
//! bench quantifies what the XML choice costs.
//!
//! Framing: every message starts with a magic byte `0xB5` (which can never
//! open an XML document, so receivers dispatch on the first byte), then a
//! message tag, then tag-specific fields. Integers are little-endian;
//! strings and byte vectors are `u32` length + raw bytes.

use tsbus_tuplespace::{EventKind, Pattern, Template, Tuple, Value, ValueType};

use crate::codec::{Request, RequestEnvelope, RequestId, Response, ServerMessage, WireEvent};
use crate::DecodeWireError;

/// First byte of every binary protocol message.
pub const BINARY_MAGIC: u8 = 0xB5;

/// Message tag of an identity-carrying request envelope (`client`, `seq`,
/// `ack`, then the inner request body).
const TAG_REQUEST_ENVELOPE: u8 = 0x10;

/// Message tag of an identity-echoing response envelope (`client`, `seq`,
/// then the inner response body).
const TAG_RESPONSE_ENVELOPE: u8 = 0x90;

/// Message tag of a pushed event (`subscription`, kind, then the tuple).
const TAG_EVENT: u8 = 0xC0;

fn shape(message: impl Into<String>) -> DecodeWireError {
    DecodeWireError::Shape(message.into())
}

// ---------------------------------------------------------------------
// Primitive writers/readers
// ---------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, DecodeWireError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| shape("truncated binary message"))?;
        self.pos += 1;
        Ok(b)
    }

    fn chunk(&mut self, n: usize) -> Result<&'a [u8], DecodeWireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| shape("truncated binary message"))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16, DecodeWireError> {
        Ok(u16::from_le_bytes(self.chunk(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, DecodeWireError> {
        Ok(u32::from_le_bytes(self.chunk(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, DecodeWireError> {
        Ok(u64::from_le_bytes(self.chunk(8)?.try_into().expect("8")))
    }

    fn bytes_field(&mut self) -> Result<Vec<u8>, DecodeWireError> {
        let len = self.u32()? as usize;
        Ok(self.chunk(len)?.to_vec())
    }

    fn string(&mut self) -> Result<String, DecodeWireError> {
        String::from_utf8(self.bytes_field()?)
            .map_err(|_| shape("binary string field is not UTF-8"))
    }

    fn done(&self) -> Result<(), DecodeWireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(shape("trailing bytes after binary message"))
        }
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

// ---------------------------------------------------------------------
// Values / tuples / templates
// ---------------------------------------------------------------------

fn put_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Int(v) => {
            out.push(0);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::Float(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Value::Str(v) => {
            out.push(2);
            put_bytes(out, v.as_bytes());
        }
        Value::Bool(v) => {
            out.push(3);
            out.push(u8::from(*v));
        }
        Value::Bytes(v) => {
            out.push(4);
            put_bytes(out, v);
        }
    }
}

fn get_value(r: &mut Reader<'_>) -> Result<Value, DecodeWireError> {
    Ok(match r.u8()? {
        0 => Value::Int(i64::from_le_bytes(r.chunk(8)?.try_into().expect("8"))),
        1 => Value::Float(f64::from_bits(r.u64()?)),
        2 => Value::Str(r.string()?),
        3 => Value::Bool(r.u8()? != 0),
        4 => Value::Bytes(r.bytes_field()?),
        tag => return Err(shape(format!("unknown value tag {tag}"))),
    })
}

fn put_tuple(out: &mut Vec<u8>, tuple: &Tuple) {
    out.extend_from_slice(&(tuple.arity() as u16).to_le_bytes());
    for field in tuple {
        put_value(out, field);
    }
}

fn get_tuple(r: &mut Reader<'_>) -> Result<Tuple, DecodeWireError> {
    let n = r.u16()?;
    (0..n).map(|_| get_value(r)).collect()
}

fn value_type_tag(vt: ValueType) -> u8 {
    match vt {
        ValueType::Int => 0,
        ValueType::Float => 1,
        ValueType::Str => 2,
        ValueType::Bool => 3,
        ValueType::Bytes => 4,
    }
}

fn value_type_from_tag(tag: u8) -> Result<ValueType, DecodeWireError> {
    Ok(match tag {
        0 => ValueType::Int,
        1 => ValueType::Float,
        2 => ValueType::Str,
        3 => ValueType::Bool,
        4 => ValueType::Bytes,
        other => return Err(shape(format!("unknown value-type tag {other}"))),
    })
}

fn put_template(out: &mut Vec<u8>, template: &Template) {
    out.extend_from_slice(&(template.arity() as u16).to_le_bytes());
    for pattern in template.patterns() {
        match pattern {
            Pattern::Exact(v) => {
                out.push(0);
                put_value(out, v);
            }
            Pattern::AnyOfType(vt) => {
                out.push(1);
                out.push(value_type_tag(*vt));
            }
            Pattern::Wildcard => out.push(2),
        }
    }
}

fn get_template(r: &mut Reader<'_>) -> Result<Template, DecodeWireError> {
    let n = r.u16()?;
    let mut patterns = Vec::with_capacity(usize::from(n));
    for _ in 0..n {
        patterns.push(match r.u8()? {
            0 => Pattern::Exact(get_value(r)?),
            1 => Pattern::AnyOfType(value_type_from_tag(r.u8()?)?),
            2 => Pattern::Wildcard,
            tag => return Err(shape(format!("unknown pattern tag {tag}"))),
        });
    }
    Ok(Template::new(patterns))
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

fn get_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, DecodeWireError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(r.u64()?),
        tag => return Err(shape(format!("bad option tag {tag}"))),
    })
}

fn kind_tag(kind: EventKind) -> u8 {
    match kind {
        EventKind::Written => 0,
        EventKind::Taken => 1,
        EventKind::Expired => 2,
    }
}

fn kind_from_tag(tag: u8) -> Result<EventKind, DecodeWireError> {
    Ok(match tag {
        0 => EventKind::Written,
        1 => EventKind::Taken,
        2 => EventKind::Expired,
        other => return Err(shape(format!("unknown event-kind tag {other}"))),
    })
}

// ---------------------------------------------------------------------
// Requests / responses / events
// ---------------------------------------------------------------------

fn put_request_body(out: &mut Vec<u8>, request: &Request) {
    match request {
        Request::Write { tuple, lease_ns } => {
            out.push(0);
            put_opt_u64(out, *lease_ns);
            put_tuple(out, tuple);
        }
        Request::Read {
            template,
            timeout_ns,
        } => {
            out.push(1);
            put_opt_u64(out, *timeout_ns);
            put_template(out, template);
        }
        Request::Take {
            template,
            timeout_ns,
        } => {
            out.push(2);
            put_opt_u64(out, *timeout_ns);
            put_template(out, template);
        }
        Request::ReadIfExists { template } => {
            out.push(3);
            put_template(out, template);
        }
        Request::TakeIfExists { template } => {
            out.push(4);
            put_template(out, template);
        }
        Request::Count { template } => {
            out.push(5);
            put_template(out, template);
        }
        Request::Subscribe { template, kinds } => {
            out.push(6);
            out.push(kinds.len() as u8);
            for &k in kinds {
                out.push(kind_tag(k));
            }
            put_template(out, template);
        }
        Request::Unsubscribe { id } => {
            out.push(7);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Request::Renew { template, lease_ns } => {
            out.push(8);
            put_opt_u64(out, *lease_ns);
            put_template(out, template);
        }
    }
}

fn get_request_body(r: &mut Reader<'_>) -> Result<Request, DecodeWireError> {
    Ok(match r.u8()? {
        0 => {
            let lease_ns = get_opt_u64(r)?;
            Request::Write {
                tuple: get_tuple(r)?,
                lease_ns,
            }
        }
        1 => {
            let timeout_ns = get_opt_u64(r)?;
            Request::Read {
                template: get_template(r)?,
                timeout_ns,
            }
        }
        2 => {
            let timeout_ns = get_opt_u64(r)?;
            Request::Take {
                template: get_template(r)?,
                timeout_ns,
            }
        }
        3 => Request::ReadIfExists {
            template: get_template(r)?,
        },
        4 => Request::TakeIfExists {
            template: get_template(r)?,
        },
        5 => Request::Count {
            template: get_template(r)?,
        },
        6 => {
            let n = r.u8()?;
            let mut kinds = Vec::with_capacity(usize::from(n));
            for _ in 0..n {
                kinds.push(kind_from_tag(r.u8()?)?);
            }
            Request::Subscribe {
                template: get_template(r)?,
                kinds,
            }
        }
        7 => Request::Unsubscribe { id: r.u64()? },
        8 => {
            let lease_ns = get_opt_u64(r)?;
            Request::Renew {
                template: get_template(r)?,
                lease_ns,
            }
        }
        tag => return Err(shape(format!("unknown request tag {tag}"))),
    })
}

/// Writes a request in the compact binary wire form: the magic byte, the
/// envelope's identity and ack watermark when present (without one, the
/// bare legacy form), then the request body.
pub(crate) fn put_request(
    out: &mut Vec<u8>,
    request: &Request,
    identity: Option<(RequestId, u64)>,
) {
    out.push(BINARY_MAGIC);
    if let Some((id, ack)) = identity {
        out.push(TAG_REQUEST_ENVELOPE);
        out.extend_from_slice(&id.client.to_le_bytes());
        out.extend_from_slice(&id.seq.to_le_bytes());
        out.extend_from_slice(&ack.to_le_bytes());
    }
    put_request_body(out, request);
}

/// Decodes a binary request envelope; a bare (legacy) request decodes with
/// `id: None`.
pub(crate) fn request_envelope(bytes: &[u8]) -> Result<RequestEnvelope, DecodeWireError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.u8()? != BINARY_MAGIC {
        return Err(shape("missing binary protocol magic"));
    }
    let envelope = if bytes.get(1) == Some(&TAG_REQUEST_ENVELOPE) {
        let _ = r.u8()?;
        let client = r.u64()?;
        let seq = r.u64()?;
        let ack = r.u64()?;
        RequestEnvelope {
            id: Some(RequestId { client, seq }),
            ack,
            request: get_request_body(&mut r)?,
        }
    } else {
        RequestEnvelope::bare(get_request_body(&mut r)?)
    };
    r.done()?;
    Ok(envelope)
}

fn put_response_body(out: &mut Vec<u8>, response: &Response) {
    match response {
        Response::WriteAck => out.push(0x80),
        Response::Entry { tuple } => {
            out.push(0x81);
            match tuple {
                None => out.push(0),
                Some(t) => {
                    out.push(1);
                    put_tuple(out, t);
                }
            }
        }
        Response::Count { count } => {
            out.push(0x82);
            out.extend_from_slice(&count.to_le_bytes());
        }
        Response::Error { message } => {
            out.push(0x83);
            put_bytes(out, message.as_bytes());
        }
        Response::SubscriptionAck { id } => {
            out.push(0x84);
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
}

fn get_response_body(r: &mut Reader<'_>) -> Result<Response, DecodeWireError> {
    Ok(match r.u8()? {
        0x80 => Response::WriteAck,
        0x81 => Response::Entry {
            tuple: match r.u8()? {
                0 => None,
                1 => Some(get_tuple(r)?),
                tag => return Err(shape(format!("bad option tag {tag}"))),
            },
        },
        0x82 => Response::Count { count: r.u64()? },
        0x83 => Response::Error {
            message: r.string()?,
        },
        0x84 => Response::SubscriptionAck { id: r.u64()? },
        tag => return Err(shape(format!("unknown response tag {tag}"))),
    })
}

/// Writes a response in the compact binary wire form, with the echoed
/// identity `re` when present.
pub(crate) fn put_response(out: &mut Vec<u8>, response: &Response, re: Option<RequestId>) {
    out.push(BINARY_MAGIC);
    if let Some(id) = re {
        out.push(TAG_RESPONSE_ENVELOPE);
        out.extend_from_slice(&id.client.to_le_bytes());
        out.extend_from_slice(&id.seq.to_le_bytes());
    }
    put_response_body(out, response);
}

/// Writes a pushed event in the compact binary wire form.
pub(crate) fn put_event(out: &mut Vec<u8>, event: &WireEvent) {
    out.push(BINARY_MAGIC);
    out.push(TAG_EVENT);
    out.extend_from_slice(&event.subscription.to_le_bytes());
    out.push(kind_tag(event.kind));
    put_tuple(out, &event.tuple);
}

/// Decodes a binary server message (response or pushed event).
pub(crate) fn server_message(bytes: &[u8]) -> Result<ServerMessage, DecodeWireError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.u8()? != BINARY_MAGIC {
        return Err(shape("missing binary protocol magic"));
    }
    let message = match bytes.get(1) {
        Some(&TAG_RESPONSE_ENVELOPE) => {
            let _ = r.u8()?;
            let client = r.u64()?;
            let seq = r.u64()?;
            ServerMessage::Response {
                re: Some(RequestId { client, seq }),
                response: get_response_body(&mut r)?,
            }
        }
        Some(&TAG_EVENT) => {
            let _ = r.u8()?;
            let subscription = r.u64()?;
            let kind = kind_from_tag(r.u8()?)?;
            ServerMessage::Event(WireEvent {
                subscription,
                kind,
                tuple: get_tuple(&mut r)?,
            })
        }
        _ => ServerMessage::Response {
            re: None,
            response: get_response_body(&mut r)?,
        },
    };
    r.done()?;
    Ok(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{request_envelope_from_wire, server_message_from_wire, EncodeScratch, WireFormat};
    use tsbus_tuplespace::{template, tuple};

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Write {
                tuple: tuple!["e", 42, 2.5, true, vec![1u8, 2]],
                lease_ns: Some(160_000_000_000),
            },
            Request::Write {
                tuple: tuple![],
                lease_ns: None,
            },
            Request::Read {
                template: template!["e", ValueType::Int],
                timeout_ns: Some(5),
            },
            Request::Take {
                template: Template::any(2),
                timeout_ns: None,
            },
            Request::ReadIfExists {
                template: template![1],
            },
            Request::TakeIfExists {
                template: template![1],
            },
            Request::Count {
                template: template![Pattern::Wildcard],
            },
            Request::Subscribe {
                template: template!["x"],
                kinds: vec![EventKind::Written, EventKind::Expired],
            },
            Request::Unsubscribe { id: 9 },
            Request::Renew {
                template: template!["svc", ValueType::Str],
                lease_ns: Some(10_000_000_000),
            },
            Request::Renew {
                template: template!["svc"],
                lease_ns: None,
            },
        ]
    }

    fn to_binary(request: &Request) -> Vec<u8> {
        EncodeScratch::new()
            .request(request, WireFormat::Binary)
            .to_vec()
    }

    fn request_from_binary(bytes: &[u8]) -> Result<Request, DecodeWireError> {
        request_envelope(bytes).map(|envelope| envelope.request)
    }

    #[test]
    fn requests_roundtrip_binary() {
        for request in sample_requests() {
            let bytes = to_binary(&request);
            assert_eq!(
                request_from_binary(&bytes).expect("own encoding decodes"),
                request
            );
        }
    }

    fn uncorrelated(response: Response) -> ServerMessage {
        ServerMessage::Response { re: None, response }
    }

    #[test]
    fn responses_and_events_roundtrip_binary() {
        let messages = vec![
            uncorrelated(Response::WriteAck),
            uncorrelated(Response::Entry {
                tuple: Some(tuple!["x", 1]),
            }),
            uncorrelated(Response::Entry { tuple: None }),
            uncorrelated(Response::Count { count: 7 }),
            uncorrelated(Response::Error {
                message: "nope <>&".into(),
            }),
            uncorrelated(Response::SubscriptionAck { id: 3 }),
            ServerMessage::Event(WireEvent {
                subscription: 3,
                kind: EventKind::Taken,
                tuple: tuple!["x"],
            }),
        ];
        let mut scratch = EncodeScratch::new();
        for message in messages {
            let bytes = match &message {
                ServerMessage::Response { response, .. } => {
                    scratch.correlated_response(None, response, WireFormat::Binary)
                }
                ServerMessage::Event(e) => scratch.event(e, WireFormat::Binary),
            };
            assert_eq!(
                server_message(bytes).expect("own encoding decodes"),
                message
            );
        }
    }

    #[test]
    fn request_envelopes_roundtrip_binary() {
        let id = RequestId {
            client: 7,
            seq: u64::MAX,
        };
        let mut scratch = EncodeScratch::new();
        for request in sample_requests() {
            let enveloped = RequestEnvelope::identified(id, 12, request.clone());
            let bytes = scratch.request_envelope(&enveloped, WireFormat::Binary);
            assert_eq!(
                request_envelope(bytes).expect("own encoding decodes"),
                enveloped
            );
            // Bare envelopes stay byte-identical to the legacy form.
            let bare = RequestEnvelope::bare(request.clone());
            assert_eq!(
                scratch.request_envelope(&bare, WireFormat::Binary),
                to_binary(&request)
            );
        }
    }

    #[test]
    fn correlated_responses_roundtrip_binary() {
        let id = RequestId { client: 2, seq: 5 };
        let resp = Response::Entry {
            tuple: Some(tuple!["y", 9]),
        };
        let mut scratch = EncodeScratch::new();
        let bytes = scratch.correlated_response(Some(id), &resp, WireFormat::Binary);
        assert_eq!(
            server_message(bytes).expect("decodes"),
            ServerMessage::Response {
                re: Some(id),
                response: resp.clone()
            }
        );
        // An uncorrelated response carries no envelope tag: the magic byte
        // is followed directly by the response body.
        let bytes = scratch.correlated_response(None, &resp, WireFormat::Binary);
        assert_eq!(bytes[..2], [BINARY_MAGIC, 0x81]);
    }

    #[test]
    fn sniffing_dispatches_on_the_first_byte() {
        let request = Request::Count {
            template: template!["z"],
        };
        let mut scratch = EncodeScratch::new();
        for format in [WireFormat::Xml, WireFormat::Binary] {
            let bytes = scratch.request(&request, format);
            let (back, detected) = request_envelope_from_wire(bytes).expect("decodes");
            assert_eq!(back, RequestEnvelope::bare(request.clone()));
            assert_eq!(detected, format);
        }
    }

    #[test]
    fn binary_is_much_smaller_than_xml() {
        let request = Request::Write {
            tuple: tuple!["entry", vec![0u8; 64]],
            lease_ns: Some(160_000_000_000),
        };
        let mut scratch = EncodeScratch::new();
        let xml = scratch.request(&request, WireFormat::Xml).len();
        let binary = scratch.request(&request, WireFormat::Binary).len();
        assert!(
            binary * 2 < xml,
            "binary ({binary} B) should be under half of XML ({xml} B)"
        );
    }

    #[test]
    fn binary_decoders_are_total_over_fuzzed_bytes() {
        // Deterministic pseudo-fuzz: mutated valid messages and raw noise
        // must decode or error, never panic.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u8
        };
        let seed = to_binary(&Request::Write {
            tuple: tuple!["x", 1, vec![1u8, 2, 3]],
            lease_ns: Some(5),
        });
        for round in 0..2000 {
            let mut bytes = seed.clone();
            let flips = round % 7 + 1;
            for _ in 0..flips {
                let pos = usize::from(next()) % bytes.len();
                bytes[pos] ^= next();
            }
            let _ = request_envelope(&bytes);
            let _ = server_message(&bytes);
        }
        for len in 0..64usize {
            let noise: Vec<u8> = (0..len).map(|_| next()).collect();
            let _ = request_envelope(&noise);
            let _ = server_message(&noise);
        }
    }

    #[test]
    fn scratch_encoding_matches_allocating_encoders_with_dirty_buffers() {
        // One scratch is reused for every message, so each call starts from
        // a buffer that still holds the previous (longer or shorter)
        // message; its output must match a fresh scratch's byte for byte.
        let mut scratch = EncodeScratch::new();
        let fresh = EncodeScratch::new;
        let id = RequestId { client: 3, seq: 11 };
        let event = WireEvent {
            subscription: 4,
            kind: EventKind::Written,
            tuple: tuple!["e", 42, "<&>"],
        };
        let response = Response::Entry {
            tuple: Some(tuple!["y", 9]),
        };
        for format in [WireFormat::Xml, WireFormat::Binary] {
            for request in sample_requests() {
                assert_eq!(
                    scratch.request(&request, format),
                    fresh().request(&request, format)
                );
                let envelope = RequestEnvelope::identified(id, 2, request.clone());
                assert_eq!(
                    scratch.request_envelope(&envelope, format),
                    fresh().request_envelope(&envelope, format)
                );
            }
            assert_eq!(
                scratch.correlated_response(Some(id), &response, format),
                fresh().correlated_response(Some(id), &response, format)
            );
            assert_eq!(scratch.event(&event, format), fresh().event(&event, format));
            // And the scratch output still round-trips through the decoder.
            assert_eq!(
                server_message_from_wire(scratch.event(&event, format)).expect("decodes"),
                ServerMessage::Event(event.clone())
            );
        }
    }

    #[test]
    fn truncation_and_garbage_are_rejected() {
        let good = to_binary(&Request::Unsubscribe { id: 1 });
        for cut in 0..good.len() {
            assert!(request_from_binary(&good[..cut]).is_err(), "cut at {cut}");
        }
        assert!(request_from_binary(&[BINARY_MAGIC, 0xFF]).is_err());
        assert!(request_from_binary(b"<op/>").is_err(), "wrong magic");
        // Trailing junk is rejected too.
        let mut padded = good.clone();
        padded.push(0);
        assert!(request_from_binary(&padded).is_err());
    }
}
