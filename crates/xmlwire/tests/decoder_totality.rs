//! Totality of the wire decoders: `request_envelope_from_wire` and
//! `server_message_from_wire` must return `Ok` or `Err` on any byte
//! string, never panic. Inputs are arbitrary bytes (bare, prefixed with
//! the binary magic byte, or carrying invalid UTF-8) and byte mutations
//! and truncations of valid encodings in both wire formats.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use proptest::sample::Index;
use proptest::TestCaseError;
use tsbus_tuplespace::{template, tuple, EventKind, Pattern, Template, ValueType};
use tsbus_xmlwire::{
    request_envelope_from_wire, server_message_from_wire, EncodeScratch, Request, RequestEnvelope,
    RequestId, Response, WireEvent, WireFormat, BINARY_MAGIC,
};

const FORMATS: [WireFormat; 2] = [WireFormat::Xml, WireFormat::Binary];

/// Valid encodings of every request, response and event shape, in both
/// wire formats.
fn valid_encodings() -> Vec<Vec<u8>> {
    let requests = vec![
        Request::Write {
            tuple: tuple!["e", 42, -2.5, true, vec![1u8, 2], "a <b> & c"],
            lease_ns: Some(160_000_000_000),
        },
        Request::Read {
            template: template!["e", ValueType::Int, Pattern::Wildcard],
            timeout_ns: Some(5),
        },
        Request::Take {
            template: Template::any(2),
            timeout_ns: None,
        },
        Request::ReadIfExists {
            template: template![1, ValueType::Bytes],
        },
        Request::TakeIfExists {
            template: template!["x", ValueType::Float, ValueType::Bool],
        },
        Request::Count {
            template: template![Pattern::Wildcard],
        },
        Request::Subscribe {
            template: template!["x", ValueType::Str],
            kinds: vec![EventKind::Written, EventKind::Taken, EventKind::Expired],
        },
        Request::Unsubscribe { id: 9 },
        Request::Renew {
            template: template!["svc"],
            lease_ns: None,
        },
    ];
    let responses = vec![
        Response::WriteAck,
        Response::Entry {
            tuple: Some(tuple!["x", 1, vec![0u8, 255]]),
        },
        Response::Entry { tuple: None },
        Response::Count { count: 7 },
        Response::Error {
            message: "nope <>&\"".into(),
        },
        Response::SubscriptionAck { id: 3 },
    ];
    let event = WireEvent {
        subscription: 3,
        kind: EventKind::Expired,
        tuple: tuple!["alarm", "overtemp", 83],
    };
    let id = RequestId {
        client: 7,
        seq: u64::MAX,
    };
    let mut scratch = EncodeScratch::new();
    let mut out = Vec::new();
    for format in FORMATS {
        for request in &requests {
            let bare = RequestEnvelope::bare(request.clone());
            let identified = RequestEnvelope::identified(id, 12, request.clone());
            out.push(scratch.request_envelope(&bare, format).to_vec());
            out.push(scratch.request_envelope(&identified, format).to_vec());
        }
        for response in &responses {
            out.push(scratch.correlated_response(None, response, format).to_vec());
            out.push(
                scratch
                    .correlated_response(Some(id), response, format)
                    .to_vec(),
            );
        }
        out.push(scratch.event(&event, format).to_vec());
    }
    out
}

/// Feeds `bytes` to both decoders; fails with the input if either panics.
fn decoders_are_total(bytes: &[u8]) -> Result<(), TestCaseError> {
    let request = catch_unwind(AssertUnwindSafe(|| {
        let _ = request_envelope_from_wire(bytes);
    }));
    prop_assert!(
        request.is_ok(),
        "request_envelope_from_wire panicked on {bytes:?}"
    );
    let message = catch_unwind(AssertUnwindSafe(|| {
        let _ = server_message_from_wire(bytes);
    }));
    prop_assert!(
        message.is_ok(),
        "server_message_from_wire panicked on {bytes:?}"
    );
    Ok(())
}

/// Arbitrary bytes, half of them led by the binary magic byte.
fn raw_input() -> BoxedStrategy<Vec<u8>> {
    (
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(|(magic, mut bytes)| {
            if magic {
                bytes.insert(0, BINARY_MAGIC);
            }
            bytes
        })
}

/// Text-looking input that is not UTF-8: an XML-ish prefix followed by
/// arbitrary bytes, with a `0xFF` byte (never valid in UTF-8) spliced in.
fn non_utf8_input() -> BoxedStrategy<Vec<u8>> {
    (
        "[ -~]{0,32}",
        proptest::collection::vec(any::<u8>(), 0..64),
        any::<Index>(),
    )
        .prop_map(|(text, tail, at)| {
            let mut bytes = format!("<{text}").into_bytes();
            bytes.extend(tail);
            bytes.insert(1 + at.index(bytes.len()), 0xFF);
            bytes
        })
}

/// A mutation plan: byte overwrites at arbitrary positions, then a cut.
#[derive(Debug, Clone)]
struct Mutation {
    overwrites: Vec<(Index, u8)>,
    /// Truncate the mutated bytes to a length drawn from this index.
    cut: Option<Index>,
}

impl Mutation {
    fn apply(&self, valid: &[u8]) -> Vec<u8> {
        let mut bytes = valid.to_vec();
        if !bytes.is_empty() {
            for (at, value) in &self.overwrites {
                let i = at.index(bytes.len());
                bytes[i] = *value;
            }
        }
        if let Some(cut) = &self.cut {
            bytes.truncate(cut.index(bytes.len() + 1));
        }
        bytes
    }
}

fn mutation() -> BoxedStrategy<Mutation> {
    (
        proptest::collection::vec((any::<Index>(), any::<u8>()), 0..4),
        prop_oneof![Just(None), any::<Index>().prop_map(Some)],
    )
        .prop_map(|(overwrites, cut)| Mutation { overwrites, cut })
}

#[test]
fn valid_encodings_decode() {
    for bytes in valid_encodings() {
        let request = request_envelope_from_wire(&bytes).is_ok();
        let message = server_message_from_wire(&bytes).is_ok();
        assert!(request || message, "own encoding rejected: {bytes:?}");
    }
}

proptest! {
    /// Arbitrary bytes, with and without the binary magic byte.
    #[test]
    fn decoders_are_total_on_arbitrary_bytes(bytes in raw_input()) {
        decoders_are_total(&bytes)?;
    }

    /// Bytes that start like XML but are not UTF-8.
    #[test]
    fn decoders_are_total_on_non_utf8_text(bytes in non_utf8_input()) {
        decoders_are_total(&bytes)?;
    }

    /// Every valid encoding, mutated and truncated the same way.
    #[test]
    fn decoders_are_total_on_mutated_encodings(plan in mutation()) {
        for valid in valid_encodings() {
            decoders_are_total(&plan.apply(&valid))?;
        }
    }
}
