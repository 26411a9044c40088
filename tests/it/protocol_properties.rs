//! Property tests across the protocol layers: arbitrary tuples and
//! templates survive both wire formats (XML and binary), arbitrary
//! chunkings survive message reassembly, and the two composed survive each
//! other.

use bytes::Bytes;
use proptest::prelude::*;
use tsbus_core::MessageAssembler;
use tsbus_tuplespace::{EventKind, Pattern, Template, Tuple, Value, ValueType};
use tsbus_xmlwire::{
    request_envelope_from_wire, server_message_from_wire, EncodeScratch, Request, RequestEnvelope,
    Response, ServerMessage, WireFormat,
};

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN payloads are not preserved by decimal
        // text (covered separately in the xmlwire unit tests).
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Value::Float),
        "\\PC{0,24}".prop_map(Value::Str), // arbitrary printable unicode
        any::<bool>().prop_map(Value::Bool),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
    ]
}

fn tuple_strategy() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(value_strategy(), 0..6).prop_map(Tuple::new)
}

fn pattern_strategy() -> impl Strategy<Value = Pattern> {
    prop_oneof![
        value_strategy().prop_map(Pattern::Exact),
        prop_oneof![
            Just(ValueType::Int),
            Just(ValueType::Float),
            Just(ValueType::Str),
            Just(ValueType::Bool),
            Just(ValueType::Bytes),
        ]
        .prop_map(Pattern::AnyOfType),
        Just(Pattern::Wildcard),
    ]
}

fn template_strategy() -> impl Strategy<Value = Template> {
    proptest::collection::vec(pattern_strategy(), 0..6).prop_map(Template::new)
}

fn kind_strategy() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        Just(EventKind::Written),
        Just(EventKind::Taken),
        Just(EventKind::Expired),
    ]
}

fn format_strategy() -> impl Strategy<Value = WireFormat> {
    prop_oneof![Just(WireFormat::Xml), Just(WireFormat::Binary)]
}

/// Decodes a request the way the server does: the result must be a bare
/// envelope, tagged with the format it was sent in.
fn request_from_wire(bytes: &[u8], format: WireFormat) -> Request {
    let (envelope, detected) = request_envelope_from_wire(bytes).expect("own encoding decodes");
    assert_eq!(detected, format, "the first byte selects the sent format");
    let RequestEnvelope {
        id: None, request, ..
    } = envelope
    else {
        panic!("a bare request decodes without identity: {envelope:?}")
    };
    request
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        (tuple_strategy(), proptest::option::of(any::<u64>()))
            .prop_map(|(tuple, lease_ns)| Request::Write { tuple, lease_ns }),
        (template_strategy(), proptest::option::of(any::<u64>())).prop_map(
            |(template, timeout_ns)| Request::Take {
                template,
                timeout_ns
            }
        ),
        (template_strategy(), proptest::option::of(any::<u64>())).prop_map(
            |(template, timeout_ns)| Request::Read {
                template,
                timeout_ns
            }
        ),
        template_strategy().prop_map(|template| Request::ReadIfExists { template }),
        template_strategy().prop_map(|template| Request::TakeIfExists { template }),
        template_strategy().prop_map(|template| Request::Count { template }),
        (
            template_strategy(),
            proptest::collection::vec(kind_strategy(), 0..4)
        )
            .prop_map(|(template, kinds)| Request::Subscribe { template, kinds }),
        any::<u64>().prop_map(|id| Request::Unsubscribe { id }),
        (template_strategy(), proptest::option::of(any::<u64>()))
            .prop_map(|(template, lease_ns)| Request::Renew { template, lease_ns }),
    ]
}

proptest! {
    /// Any request survives either wire format.
    #[test]
    fn requests_roundtrip_the_wire(request in request_strategy(), format in format_strategy()) {
        let mut scratch = EncodeScratch::new();
        let bytes = scratch.request(&request, format);
        prop_assert_eq!(request_from_wire(bytes, format), request);
    }

    /// Any entry/count/error response survives either wire format.
    #[test]
    fn responses_roundtrip_the_wire(
        tuple in proptest::option::of(tuple_strategy()),
        count in any::<u64>(),
        message in "\\PC{0,64}",
        format in format_strategy(),
    ) {
        let mut scratch = EncodeScratch::new();
        for response in [
            Response::WriteAck,
            Response::Entry { tuple: tuple.clone() },
            Response::Count { count },
            Response::Error { message: message.clone() },
        ] {
            let bytes = scratch.correlated_response(None, &response, format);
            prop_assert_eq!(
                server_message_from_wire(bytes).expect("own encoding decodes"),
                ServerMessage::Response { re: None, response }
            );
        }
    }

    /// Reassembly is chunking-invariant: however a message is sliced into
    /// transport chunks, the assembler reproduces it exactly.
    #[test]
    fn reassembly_is_chunking_invariant(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..8),
    ) {
        let mut boundaries: Vec<usize> =
            cuts.iter().map(|ix| ix.index(payload.len() + 1)).collect();
        boundaries.push(0);
        boundaries.push(payload.len());
        boundaries.sort_unstable();
        boundaries.dedup();

        let mut asm = MessageAssembler::new();
        let mut result = None;
        for window in boundaries.windows(2) {
            let chunk = Bytes::copy_from_slice(&payload[window[0]..window[1]]);
            let last = window[1] == payload.len();
            let out = asm.push(chunk, last);
            if last {
                result = out;
            } else {
                prop_assert!(out.is_none());
            }
        }
        // Degenerate case: empty payload with no windows still completes
        // via one empty eom chunk.
        let whole = match result {
            Some(w) => w,
            None => asm.push(Bytes::new(), true).expect("eom completes"),
        };
        prop_assert_eq!(&whole[..], &payload[..]);
    }

    /// Composition: an encoded request chunked arbitrarily, reassembled and
    /// decoded is the original request.
    #[test]
    fn chunked_wire_documents_survive(
        request in request_strategy(),
        chunk_size in 1usize..64,
        format in format_strategy(),
    ) {
        let mut scratch = EncodeScratch::new();
        let bytes = scratch.request(&request, format);
        let mut asm = MessageAssembler::new();
        let mut whole = None;
        let chunks: Vec<&[u8]> = bytes.chunks(chunk_size).collect();
        if chunks.is_empty() {
            whole = asm.push(Bytes::new(), true);
        }
        for (i, chunk) in chunks.iter().enumerate() {
            let out = asm.push(
                Bytes::copy_from_slice(chunk),
                i == chunks.len() - 1,
            );
            if i == chunks.len() - 1 {
                whole = out;
            }
        }
        let whole = whole.expect("assembler completes at eom");
        prop_assert_eq!(request_from_wire(&whole, format), request);
    }

    /// Matching is stable across the wire: if a template matches a tuple,
    /// the decoded copies match too (and vice versa).
    #[test]
    fn matching_commutes_with_the_wire(
        tuple in tuple_strategy(),
        template in template_strategy(),
        format in format_strategy(),
    ) {
        let mut scratch = EncodeScratch::new();
        let write = Request::Write { tuple: tuple.clone(), lease_ns: None };
        let Request::Write { tuple: tuple2, .. } =
            request_from_wire(scratch.request(&write, format), format) else { unreachable!() };
        let count = Request::Count { template: template.clone() };
        let Request::Count { template: template2 } =
            request_from_wire(scratch.request(&count, format), format) else { unreachable!() };
        prop_assert_eq!(template.matches(&tuple), template2.matches(&tuple2));
    }
}
