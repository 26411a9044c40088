//! The reference decoder for the pull decoders in [`crate::codec`]: parse
//! the whole document into an [`XmlElement`] tree, then walk the tree. The
//! property tests below feed both the same bytes (valid encodings of every
//! message shape in both directions, dressed in the whitespace, comments,
//! prolog, quoting and references the grammar allows; every truncation of
//! those; single-byte mutations; splices of two documents; and arbitrary
//! bytes) and require equal `Ok` values and equal errors, so equal error
//! text wherever it reaches a reply.

use proptest::prelude::*;
use proptest::sample::Index;
use proptest::{TestCaseError, TestRng};
use tsbus_tuplespace::{Pattern, Template, Tuple, Value, ValueType};

use crate::codec::{
    hex_decode, kind_from_name, DecodeWireError, Request, RequestEnvelope, RequestId, Response,
    ServerMessage, WireEvent,
};
use crate::dom::{XmlElement, XmlNode};
use crate::dom_oracle::{
    encode_correlated_response, encode_event, encode_request_envelope, event_strategy,
    request_id_strategy, request_strategy, response_strategy,
};
use crate::parser::parse;
use crate::{EncodeScratch, WireFormat, BINARY_MAGIC};

fn shape(message: impl Into<String>) -> DecodeWireError {
    DecodeWireError::Shape(message.into())
}

/// The reference server-side decode: the UTF-8 check, then the tree.
fn request_envelope_from_wire(bytes: &[u8]) -> Result<RequestEnvelope, DecodeWireError> {
    let text =
        std::str::from_utf8(bytes).map_err(|_| shape("request is neither binary nor UTF-8 XML"))?;
    request_envelope_from_xml(text)
}

/// The reference client-side decode: the UTF-8 check, then the tree.
fn server_message_from_wire(bytes: &[u8]) -> Result<ServerMessage, DecodeWireError> {
    let text =
        std::str::from_utf8(bytes).map_err(|_| shape("message is neither binary nor UTF-8 XML"))?;
    server_message_from_xml(text)
}

/// Decodes an `<event>` element.
fn decode_event(el: &XmlElement) -> Result<WireEvent, DecodeWireError> {
    if el.name() != "event" {
        return Err(shape(format!("expected <event>, found <{}>", el.name())));
    }
    let subscription = el
        .attr("sub")
        .ok_or_else(|| shape("event without sub"))?
        .parse::<u64>()
        .map_err(|e| shape(format!("bad sub id: {e}")))?;
    let kind_raw = el.attr("kind").ok_or_else(|| shape("event without kind"))?;
    let kind = kind_from_name(kind_raw)
        .ok_or_else(|| shape(format!("unknown event kind {kind_raw:?}")))?;
    let tuple = el
        .child_named("tuple")
        .ok_or_else(|| shape("event without tuple"))?;
    Ok(WireEvent {
        subscription,
        kind,
        tuple: decode_tuple(tuple)?,
    })
}
/// Parses whatever the server sent, dispatching on the root element.
fn server_message_from_xml(text: &str) -> Result<ServerMessage, DecodeWireError> {
    let el = parse(text).map_err(DecodeWireError::Xml)?;
    match el.name() {
        "event" => Ok(ServerMessage::Event(decode_event(&el)?)),
        _ => Ok(ServerMessage::Response {
            re: decode_request_id_attrs(&el)?,
            response: decode_response(&el)?,
        }),
    }
}

/// Reads the optional `client`/`seq` identity attributes off an element
/// (both present → an id; neither → `None`; one alone is malformed).
fn decode_request_id_attrs(el: &XmlElement) -> Result<Option<RequestId>, DecodeWireError> {
    let parse_attr = |name: &str| -> Result<Option<u64>, DecodeWireError> {
        el.attr(name)
            .map(|raw| {
                raw.parse::<u64>()
                    .map_err(|e| shape(format!("bad {name} {raw:?}: {e}")))
            })
            .transpose()
    };
    match (parse_attr("client")?, parse_attr("seq")?) {
        (Some(client), Some(seq)) => Ok(Some(RequestId { client, seq })),
        (None, None) => Ok(None),
        _ => Err(shape("client/seq attributes must appear together")),
    }
}
// ---------------------------------------------------------------------
// Values / tuples / templates
// ---------------------------------------------------------------------

/// Decodes a `<field>` element.
fn decode_value(el: &XmlElement) -> Result<Value, DecodeWireError> {
    if el.name() != "field" {
        return Err(shape(format!("expected <field>, found <{}>", el.name())));
    }
    let type_name = el.attr("type").ok_or_else(|| shape("field without type"))?;
    let vt = ValueType::from_name(type_name)
        .ok_or_else(|| shape(format!("unknown field type {type_name:?}")))?;
    let text = el.text_cow();
    match vt {
        ValueType::Int => text
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|e| shape(format!("bad int {text:?}: {e}"))),
        ValueType::Float => text
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|e| shape(format!("bad float {text:?}: {e}"))),
        ValueType::Str => Ok(Value::Str(text.into_owned())),
        ValueType::Bool => match &*text {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            other => Err(shape(format!("bad bool {other:?}"))),
        },
        ValueType::Bytes => hex_decode(&text)
            .map(Value::Bytes)
            .map_err(|m| shape(format!("bad bytes field: {m}"))),
    }
}

/// Decodes a `<tuple>` element.
fn decode_tuple(el: &XmlElement) -> Result<Tuple, DecodeWireError> {
    if el.name() != "tuple" {
        return Err(shape(format!("expected <tuple>, found <{}>", el.name())));
    }
    el.child_elements().map(decode_value).collect()
}

/// Decodes a `<template>` element.
fn decode_template(el: &XmlElement) -> Result<Template, DecodeWireError> {
    if el.name() != "template" {
        return Err(shape(format!("expected <template>, found <{}>", el.name())));
    }
    let mut patterns = Vec::new();
    for child in el.child_elements() {
        if child.name() != "pattern" {
            return Err(shape(format!(
                "expected <pattern>, found <{}>",
                child.name()
            )));
        }
        let kind = child
            .attr("kind")
            .ok_or_else(|| shape("pattern without kind"))?;
        let pattern = match kind {
            "exact" => {
                let field = child
                    .child_named("field")
                    .ok_or_else(|| shape("exact pattern without field"))?;
                Pattern::Exact(decode_value(field)?)
            }
            "type" => {
                let name = child
                    .attr("type")
                    .ok_or_else(|| shape("type pattern without type"))?;
                Pattern::AnyOfType(
                    ValueType::from_name(name)
                        .ok_or_else(|| shape(format!("unknown pattern type {name:?}")))?,
                )
            }
            "any" => Pattern::Wildcard,
            other => return Err(shape(format!("unknown pattern kind {other:?}"))),
        };
        patterns.push(pattern);
    }
    Ok(Template::new(patterns))
}

// ---------------------------------------------------------------------
// Requests / responses
// ---------------------------------------------------------------------

/// Parses a request-envelope document: an `<op>` element together with
/// its optional identity attributes.
fn request_envelope_from_xml(text: &str) -> Result<RequestEnvelope, DecodeWireError> {
    let el = parse(text).map_err(DecodeWireError::Xml)?;
    let id = decode_request_id_attrs(&el)?;
    let ack = match el.attr("ack") {
        Some(raw) => raw
            .parse::<u64>()
            .map_err(|e| shape(format!("bad ack {raw:?}: {e}")))?,
        None => 0,
    };
    Ok(RequestEnvelope {
        id,
        ack,
        request: decode_request(&el)?,
    })
}

/// Decodes an `<op>` element.
fn decode_request(el: &XmlElement) -> Result<Request, DecodeWireError> {
    if el.name() != "op" {
        return Err(shape(format!("expected <op>, found <{}>", el.name())));
    }
    let kind = el.attr("type").ok_or_else(|| shape("op without type"))?;
    let parse_u64 = |name: &str| -> Result<Option<u64>, DecodeWireError> {
        el.attr(name)
            .map(|raw| {
                raw.parse::<u64>()
                    .map_err(|e| shape(format!("bad {name} {raw:?}: {e}")))
            })
            .transpose()
    };
    let template = || -> Result<Template, DecodeWireError> {
        let t = el
            .child_named("template")
            .ok_or_else(|| shape(format!("{kind} op without template")))?;
        decode_template(t)
    };
    match kind {
        "write" => {
            let tuple = el
                .child_named("tuple")
                .ok_or_else(|| shape("write op without tuple"))?;
            Ok(Request::Write {
                tuple: decode_tuple(tuple)?,
                lease_ns: parse_u64("lease-ns")?,
            })
        }
        "read" => Ok(Request::Read {
            template: template()?,
            timeout_ns: parse_u64("timeout-ns")?,
        }),
        "take" => Ok(Request::Take {
            template: template()?,
            timeout_ns: parse_u64("timeout-ns")?,
        }),
        "read-if-exists" => Ok(Request::ReadIfExists {
            template: template()?,
        }),
        "take-if-exists" => Ok(Request::TakeIfExists {
            template: template()?,
        }),
        "count" => Ok(Request::Count {
            template: template()?,
        }),
        "subscribe" => {
            let raw = el.attr("kinds").unwrap_or("");
            let mut kinds = Vec::new();
            for name in raw.split(',').filter(|s| !s.is_empty()) {
                kinds.push(
                    kind_from_name(name)
                        .ok_or_else(|| shape(format!("unknown event kind {name:?}")))?,
                );
            }
            Ok(Request::Subscribe {
                template: template()?,
                kinds,
            })
        }
        "unsubscribe" => {
            let raw = el
                .attr("sub")
                .ok_or_else(|| shape("unsubscribe op without sub"))?;
            Ok(Request::Unsubscribe {
                id: raw
                    .parse::<u64>()
                    .map_err(|e| shape(format!("bad sub id: {e}")))?,
            })
        }
        "renew" => Ok(Request::Renew {
            template: template()?,
            lease_ns: parse_u64("lease-ns")?,
        }),
        other => Err(shape(format!("unknown op type {other:?}"))),
    }
}

/// Decodes a `<resp>` element.
fn decode_response(el: &XmlElement) -> Result<Response, DecodeWireError> {
    if el.name() != "resp" {
        return Err(shape(format!("expected <resp>, found <{}>", el.name())));
    }
    let kind = el.attr("type").ok_or_else(|| shape("resp without type"))?;
    match kind {
        "ack" => Ok(Response::WriteAck),
        "entry" => Ok(Response::Entry {
            tuple: el.child_named("tuple").map(decode_tuple).transpose()?,
        }),
        "count" => {
            let raw = el.attr("n").ok_or_else(|| shape("count resp without n"))?;
            Ok(Response::Count {
                count: raw
                    .parse::<u64>()
                    .map_err(|e| shape(format!("bad count {raw:?}: {e}")))?,
            })
        }
        "error" => Ok(Response::Error { message: el.text() }),
        "sub-ack" => {
            let raw = el.attr("sub").ok_or_else(|| shape("sub-ack without sub"))?;
            Ok(Response::SubscriptionAck {
                id: raw
                    .parse::<u64>()
                    .map_err(|e| shape(format!("bad sub id: {e}")))?,
            })
        }
        other => Err(shape(format!("unknown resp type {other:?}"))),
    }
}

// ---------------------------------------------------------------------
// Pull decoders == oracle
// ---------------------------------------------------------------------

/// Whitespace between tokens: one to four of the four characters the
/// grammar skips.
fn whitespace(rng: &mut TestRng, out: &mut String) {
    for _ in 0..=rng.below(3) {
        out.push([' ', '\t', '\r', '\n'][rng.below(4) as usize]);
    }
}

fn maybe_whitespace(rng: &mut TestRng, out: &mut String) {
    if rng.chance(0.2) {
        whitespace(rng, out);
    }
}

/// Comments, some holding markup and near-terminators.
const COMMENTS: [&str; 4] = [
    "<!---->",
    "<!-- c -->",
    "<!-- <op type=\"x\"/> -->",
    "<!-- - -> -- -->",
];

fn comment(rng: &mut TestRng, out: &mut String) {
    out.push_str(COMMENTS[rng.below(COMMENTS.len() as u64) as usize]);
}

/// Writes `text` with `<`, `&` and `quote` always escaped and any other
/// character now and then, as a predefined entity or a decimal or hex
/// character reference; `comments` also splits text runs with comments.
fn escaped(text: &str, quote: Option<char>, rng: &mut TestRng, out: &mut String) {
    use core::fmt::Write;
    for c in text.chars() {
        if quote.is_none() && rng.chance(0.03) {
            comment(rng, out);
        }
        let named = match c {
            '&' => Some("&amp;"),
            '<' => Some("&lt;"),
            '>' => Some("&gt;"),
            '"' => Some("&quot;"),
            '\'' => Some("&apos;"),
            _ => None,
        };
        let must = c == '<' || c == '&' || Some(c) == quote;
        if !must && !rng.chance(0.05) {
            out.push(c);
            continue;
        }
        let code = u32::from(c);
        let _ = match (rng.below(3), named) {
            (0, Some(entity)) => write!(out, "{entity}"),
            (1, _) => write!(out, "&#{code};"),
            _ if rng.chance(0.5) => write!(out, "&#x{code:x};"),
            _ => write!(out, "&#X{code:X};"),
        };
    }
}

/// Writes `el` as text with noise from `rng`: whitespace inside tags,
/// either quote, references in values and text, comments, an unread
/// attribute, a repeated one (the walk reads the first), an unread child,
/// and an empty element either self-closed or with an end tag. Whitespace
/// is added to the content of containers only, never of a field or an
/// error text, so most documents still decode.
fn render(el: &XmlElement, rng: &mut TestRng, out: &mut String) {
    out.push('<');
    out.push_str(el.name());
    let mut attrs: Vec<(&str, &str)> = el
        .attributes()
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    if rng.chance(0.1) {
        attrs.push(("x", "1"));
    }
    if !attrs.is_empty() && rng.chance(0.1) {
        let (key, _) = attrs[rng.below(attrs.len() as u64) as usize];
        attrs.push((key, "dup"));
    }
    for (key, value) in attrs {
        match rng.below(10) {
            0 => whitespace(rng, out),
            1 if !out.ends_with(el.name()) => {} // `a="1"b="2"` is accepted
            _ => out.push(' '),
        }
        out.push_str(key);
        maybe_whitespace(rng, out);
        out.push('=');
        maybe_whitespace(rng, out);
        let quote = if rng.chance(0.3) { '\'' } else { '"' };
        out.push(quote);
        escaped(value, Some(quote), rng, out);
        out.push(quote);
    }
    maybe_whitespace(rng, out);
    let children = el.children();
    if children.is_empty() && rng.chance(0.7) {
        out.push_str("/>");
        return;
    }
    out.push('>');
    let leaf = el.name() == "field" || children.iter().any(|c| matches!(c, XmlNode::Text(_)));
    let noise = |rng: &mut TestRng, out: &mut String| match rng.below(12) {
        0 => comment(rng, out),
        1 | 2 if !leaf => whitespace(rng, out),
        3 if rng.chance(0.2) => out.push_str("<x a='1'>y<y/></x>"),
        _ => {}
    };
    for child in children {
        noise(rng, out);
        match child {
            XmlNode::Element(child) => render(child, rng, out),
            XmlNode::Text(text) => escaped(text, None, rng, out),
        }
    }
    noise(rng, out);
    out.push_str("</");
    out.push_str(el.name());
    maybe_whitespace(rng, out);
    out.push('>');
}

/// A whole document: `root` with a prolog, whitespace and comments
/// around it now and then, or the compact wire text `compact`.
fn document(root: &XmlElement, compact: &[u8], rng: &mut TestRng) -> Vec<u8> {
    if rng.chance(0.25) {
        return compact.to_vec();
    }
    let mut out = String::new();
    if rng.chance(0.3) {
        out.push_str(
            [
                "<?xml version=\"1.0\"?>",
                "<?xml version='1.0' encoding='UTF-8'?>",
                "<?>",
            ][rng.below(3) as usize],
        );
    }
    let misc = |rng: &mut TestRng, out: &mut String| {
        for _ in 0..rng.below(3) {
            if rng.chance(0.5) {
                whitespace(rng, out);
            } else {
                comment(rng, out);
            }
        }
    };
    misc(rng, &mut out);
    render(root, rng, &mut out);
    misc(rng, &mut out);
    out.into_bytes()
}

/// A request document the server may receive: every request shape, bare
/// or with an identity.
fn request_document() -> BoxedStrategy<Vec<u8>> {
    let envelope = (request_strategy(), request_id_strategy(), any::<u64>())
        .prop_map(|(request, id, ack)| RequestEnvelope { id, ack, request });
    BoxedStrategy::new(move |rng| {
        let envelope = envelope.new_value(rng);
        let compact = EncodeScratch::new()
            .request_envelope(&envelope, WireFormat::Xml)
            .to_vec();
        document(&encode_request_envelope(&envelope), &compact, rng)
    })
}

/// A document a client may receive: every response shape, with or without
/// an echoed identity, and pushed events.
fn reply_document() -> BoxedStrategy<Vec<u8>> {
    let response = (response_strategy(), request_id_strategy());
    let event = event_strategy();
    BoxedStrategy::new(move |rng| {
        let mut scratch = EncodeScratch::new();
        let (root, compact) = if rng.chance(0.75) {
            let (response, re) = response.new_value(rng);
            let compact = scratch.correlated_response(re, &response, WireFormat::Xml);
            (encode_correlated_response(re, &response), compact.to_vec())
        } else {
            let event = event.new_value(rng);
            let compact = scratch.event(&event, WireFormat::Xml);
            (encode_event(&event), compact.to_vec())
        };
        document(&root, &compact, rng)
    })
}

fn any_document() -> BoxedStrategy<Vec<u8>> {
    prop_oneof![request_document(), reply_document()]
}

/// Bytes that matter to the grammar, plus a multi-byte character's lead
/// and continuation bytes and an invalid one.
fn grammar_byte() -> BoxedStrategy<u8> {
    const BYTES: &[u8] = b"<>/=\"'&;#xX!-? \tabz_.019\xc3\xa9\xff";
    prop_oneof![(0..BYTES.len()).prop_map(|i| BYTES[i]), any::<u8>()]
}

/// Both decoders, in both directions, agree on `bytes`: equal `Ok` values
/// and equal errors. Binary messages take one shared path and are skipped.
fn agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    if bytes.first() == Some(&BINARY_MAGIC) {
        return Ok(());
    }
    prop_assert_eq!(
        crate::request_envelope_from_wire(bytes).map(|(envelope, _)| envelope),
        request_envelope_from_wire(bytes),
        "request {:?}",
        String::from_utf8_lossy(bytes)
    );
    prop_assert_eq!(
        crate::server_message_from_wire(bytes),
        server_message_from_wire(bytes),
        "reply {:?}",
        String::from_utf8_lossy(bytes)
    );
    Ok(())
}

proptest! {
    /// Valid encodings of every message, plain and dressed in noise.
    #[test]
    fn pull_decoders_match_the_dom_on_documents(
        request in request_document(),
        reply in reply_document(),
    ) {
        agree(&request)?;
        agree(&reply)?;
    }

    /// Every truncation of a document, as a stream cut short delivers.
    #[test]
    fn pull_decoders_match_the_dom_on_every_truncation(doc in any_document()) {
        for end in 0..doc.len() {
            agree(&doc[..end])?;
        }
    }

    /// A document with one byte replaced.
    #[test]
    fn pull_decoders_match_the_dom_on_byte_mutations(
        doc in any_document(),
        at in any::<Index>(),
        byte in grammar_byte(),
    ) {
        let mut doc = doc;
        let at = at.index(doc.len());
        doc[at] = byte;
        agree(&doc)?;
    }

    /// The head of one document spliced to the tail of another, as a
    /// desynchronised stream delivers.
    #[test]
    fn pull_decoders_match_the_dom_on_splices(
        head in any_document(),
        tail in any_document(),
        cut_head in any::<Index>(),
        cut_tail in any::<Index>(),
    ) {
        let mut doc = head[..cut_head.index(head.len())].to_vec();
        doc.extend_from_slice(&tail[cut_tail.index(tail.len())..]);
        agree(&doc)?;
    }

    /// Arbitrary bytes, mostly drawn from the grammar's own.
    #[test]
    fn pull_decoders_match_the_dom_on_arbitrary_bytes(
        bytes in proptest::collection::vec(grammar_byte(), 0..48),
    ) {
        agree(&bytes)?;
    }
}

/// The noise above reaches what it is meant to: most dressed documents
/// still decode, and the rest fail in both syntax and shape.
#[test]
fn noisy_documents_mostly_decode() {
    let mut rng = TestRng::for_test("noisy_documents_mostly_decode");
    let (requests, replies) = (request_document(), reply_document());
    let (mut ok, mut syntax, mut shape) = (0, 0, 0);
    for _ in 0..400 {
        let request = requests.new_value(&mut rng);
        let reply = replies.new_value(&mut rng);
        for result in [
            crate::request_envelope_from_wire(&request).map(drop),
            crate::server_message_from_wire(&reply).map(drop),
        ] {
            match result {
                Ok(()) => ok += 1,
                Err(DecodeWireError::Xml(_)) => syntax += 1,
                Err(DecodeWireError::Shape(_)) => shape += 1,
            }
        }
    }
    assert!(ok > 600, "{ok} of 800 decode");
    assert!(
        syntax == 0,
        "noise must keep documents well-formed: {syntax}"
    );
    assert!(
        shape > 0,
        "an unread child in a tuple or template is a shape error"
    );
}
