//! The tuplespace wire protocol: requests and responses as XML documents,
//! matching the paper's board↔server interface ("XML is used to represent
//! data entries").

use core::fmt;

use tsbus_tuplespace::{EventKind, Pattern, Template, Tuple, Value};

use crate::reader::ParseXmlError;

/// A client-assigned identity for one logical operation: `(client, seq)`.
///
/// A client re-issuing an operation (because the reply was lost) sends the
/// *same* id, so the server can recognise the duplicate and replay its
/// cached reply instead of applying the operation twice — the cornerstone
/// of exactly-once semantics over the lossy bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId {
    /// The issuing client (its node id, or any stable unique number).
    pub client: u64,
    /// Monotonic per-client sequence number; retries reuse it.
    pub seq: u64,
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.client, self.seq)
    }
}

/// A request plus its optional exactly-once identity.
///
/// `id: None` encodes byte-identically to a bare [`Request`] (the pre-
/// identity wire form), so legacy peers interoperate and the ablation
/// campaigns can measure the identity overhead. `ack` is the client's
/// cumulative acknowledgement: every sequence number `<= ack` has had its
/// reply delivered, so the server may evict those cache entries.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestEnvelope {
    /// Exactly-once identity; `None` = legacy at-least-once request.
    pub id: Option<RequestId>,
    /// Cumulative ack watermark (meaningful only with `id`).
    pub ack: u64,
    /// The operation itself.
    pub request: Request,
}

impl RequestEnvelope {
    /// Wraps a request with no identity (legacy wire form).
    #[must_use]
    pub fn bare(request: Request) -> Self {
        RequestEnvelope {
            id: None,
            ack: 0,
            request,
        }
    }

    /// Wraps a request with an exactly-once identity and ack watermark.
    #[must_use]
    pub fn identified(id: RequestId, ack: u64, request: Request) -> Self {
        RequestEnvelope {
            id: Some(id),
            ack,
            request,
        }
    }
}

/// A client → server operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Write a tuple, optionally leased for `lease_ns` nanoseconds.
    Write {
        /// The tuple to store.
        tuple: Tuple,
        /// Lease length in nanoseconds; `None` = forever.
        lease_ns: Option<u64>,
    },
    /// Blocking read (waits server-side up to `timeout_ns`).
    Read {
        /// The template to match.
        template: Template,
        /// Server-side wait budget in nanoseconds; `None` = forever.
        timeout_ns: Option<u64>,
    },
    /// Blocking take (waits server-side up to `timeout_ns`).
    Take {
        /// The template to match.
        template: Template,
        /// Server-side wait budget in nanoseconds; `None` = forever.
        timeout_ns: Option<u64>,
    },
    /// Non-blocking read.
    ReadIfExists {
        /// The template to match.
        template: Template,
    },
    /// Non-blocking take.
    TakeIfExists {
        /// The template to match.
        template: Template,
    },
    /// Count live matches.
    Count {
        /// The template to match.
        template: Template,
    },
    /// Register interest in space events matching a template (the
    /// subscribe half of the subscribe/notify paradigm).
    Subscribe {
        /// The template to match.
        template: Template,
        /// Which event kinds to be notified about.
        kinds: Vec<EventKind>,
    },
    /// Remove a subscription by its server-assigned id.
    Unsubscribe {
        /// The id from the [`Response::SubscriptionAck`].
        id: u64,
    },
    /// Extend the lease of every live entry matching a template — the
    /// heartbeat behind crash-stop de-registration: live providers renew
    /// their registration entries periodically, dead ones age out.
    Renew {
        /// The template selecting the entries to renew.
        template: Template,
        /// New lease length in nanoseconds from now; `None` = forever.
        lease_ns: Option<u64>,
    },
}

/// A server → client reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The write was stored.
    WriteAck,
    /// Result of a read/take: the matched tuple, or `None` (no match /
    /// timed out / lease expired).
    Entry {
        /// The matched tuple, if any.
        tuple: Option<Tuple>,
    },
    /// Result of a count.
    Count {
        /// Number of live matches.
        count: u64,
    },
    /// The server rejected or failed the operation.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// A subscription was registered (the notify callbacks will carry this
    /// id).
    SubscriptionAck {
        /// Server-assigned subscription id.
        id: u64,
    },
}

/// An unsolicited server → client notification (the notify half of
/// subscribe/notify): pushed outside the request/response rhythm whenever
/// a subscribed event fires.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEvent {
    /// The subscription this event belongs to.
    pub subscription: u64,
    /// What happened.
    pub kind: EventKind,
    /// The tuple involved.
    pub tuple: Tuple,
}

fn kind_name(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Written => "written",
        EventKind::Taken => "taken",
        EventKind::Expired => "expired",
    }
}

pub(crate) fn kind_from_name(name: &str) -> Option<EventKind> {
    match name {
        "written" => Some(EventKind::Written),
        "taken" => Some(EventKind::Taken),
        "expired" => Some(EventKind::Expired),
        _ => None,
    }
}

/// Any document a client can receive: a reply to its pending request, or
/// an unsolicited notification.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMessage {
    /// A reply to the client's request. `re` echoes the [`RequestId`] the
    /// request carried (if any), so the client can correlate a reply with
    /// its outstanding operation and discard stale duplicates.
    Response {
        /// The request identity this reply answers, echoed back.
        re: Option<RequestId>,
        /// The reply itself.
        response: Response,
    },
    /// A pushed notification.
    Event(WireEvent),
}

/// Why a document failed to decode as a protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeWireError {
    /// The XML itself is malformed.
    Xml(ParseXmlError),
    /// The XML is well-formed but not a valid protocol message.
    Shape(String),
}

impl fmt::Display for DecodeWireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeWireError::Xml(e) => write!(f, "{e}"),
            DecodeWireError::Shape(m) => write!(f, "protocol shape error: {m}"),
        }
    }
}

impl std::error::Error for DecodeWireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeWireError::Xml(e) => Some(e),
            DecodeWireError::Shape(_) => None,
        }
    }
}

// ---------------------------------------------------------------------
// Direct XML writer
// ---------------------------------------------------------------------
//
// Every message is written straight into the caller's `String`, with no
// document tree in between. The layout is the wire format's: attributes
// in a fixed order, no whitespace between tags, and an element with no
// content self-closes, except that a bytes field and an error always
// carry a (possibly empty) text node, so `<field type="bytes"></field>`
// and `<resp type="error"></resp>` keep their end tags while an empty
// string field is `<field type="str"/>`. Attribute values are protocol
// names and decimal numbers, which never need escaping; character data
// is escaped.

/// Appends `text` to `out` with the five predefined entities escaped.
pub(crate) fn escape_into(text: &str, out: &mut String) {
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
}

fn push_attr(out: &mut String, key: &str, value: &str) {
    out.push(' ');
    out.push_str(key);
    out.push_str("=\"");
    out.push_str(value);
    out.push('"');
}

fn push_u64_attr(out: &mut String, key: &str, value: u64) {
    use core::fmt::Write;
    let _ = write!(out, " {key}=\"{value}\"");
}

fn push_identity_attrs(out: &mut String, id: RequestId) {
    push_u64_attr(out, "client", id.client);
    push_u64_attr(out, "seq", id.seq);
}

fn write_value(value: &Value, out: &mut String) {
    use core::fmt::Write;
    out.push_str("<field");
    push_attr(out, "type", value.type_of().name());
    match value {
        Value::Str(v) if v.is_empty() => {
            out.push_str("/>");
            return;
        }
        Value::Str(v) => {
            out.push('>');
            escape_into(v, out);
        }
        Value::Int(v) => {
            let _ = write!(out, ">{v}");
        }
        Value::Float(v) => {
            let _ = write!(out, ">{v:?}");
        }
        Value::Bool(v) => {
            let _ = write!(out, ">{v}");
        }
        Value::Bytes(v) => {
            out.push('>');
            for b in v {
                let _ = write!(out, "{b:02x}");
            }
        }
    }
    out.push_str("</field>");
}

fn write_tuple(tuple: &Tuple, out: &mut String) {
    if tuple.arity() == 0 {
        out.push_str("<tuple/>");
        return;
    }
    out.push_str("<tuple>");
    for field in tuple {
        write_value(field, out);
    }
    out.push_str("</tuple>");
}

fn write_template(template: &Template, out: &mut String) {
    if template.arity() == 0 {
        out.push_str("<template/>");
        return;
    }
    out.push_str("<template>");
    for pattern in template.patterns() {
        out.push_str("<pattern");
        match pattern {
            Pattern::Exact(v) => {
                push_attr(out, "kind", "exact");
                out.push('>');
                write_value(v, out);
                out.push_str("</pattern>");
            }
            Pattern::AnyOfType(vt) => {
                push_attr(out, "kind", "type");
                push_attr(out, "type", vt.name());
                out.push_str("/>");
            }
            Pattern::Wildcard => {
                push_attr(out, "kind", "any");
                out.push_str("/>");
            }
        }
    }
    out.push_str("</template>");
}

/// Writes an `<op>` document; `identity` adds the envelope's
/// `client`/`seq`/`ack` attributes after the request's own.
pub(crate) fn write_request(
    request: &Request,
    identity: Option<(RequestId, u64)>,
    out: &mut String,
) {
    enum Body<'a> {
        Tuple(&'a Tuple),
        Template(&'a Template),
        Empty,
    }
    let lease = |ns: &Option<u64>| ns.map(|ns| ("lease-ns", ns));
    let timeout = |ns: &Option<u64>| ns.map(|ns| ("timeout-ns", ns));
    let (kind, number, body) = match request {
        Request::Write { tuple, lease_ns } => ("write", lease(lease_ns), Body::Tuple(tuple)),
        Request::Read {
            template,
            timeout_ns,
        } => ("read", timeout(timeout_ns), Body::Template(template)),
        Request::Take {
            template,
            timeout_ns,
        } => ("take", timeout(timeout_ns), Body::Template(template)),
        Request::ReadIfExists { template } => ("read-if-exists", None, Body::Template(template)),
        Request::TakeIfExists { template } => ("take-if-exists", None, Body::Template(template)),
        Request::Count { template } => ("count", None, Body::Template(template)),
        Request::Subscribe { template, .. } => ("subscribe", None, Body::Template(template)),
        Request::Unsubscribe { id } => ("unsubscribe", Some(("sub", *id)), Body::Empty),
        Request::Renew { template, lease_ns } => {
            ("renew", lease(lease_ns), Body::Template(template))
        }
    };
    out.push_str("<op");
    push_attr(out, "type", kind);
    if let Some((key, value)) = number {
        push_u64_attr(out, key, value);
    }
    if let Request::Subscribe { kinds, .. } = request {
        out.push_str(" kinds=\"");
        for (i, &kind) in kinds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(kind_name(kind));
        }
        out.push('"');
    }
    if let Some((id, ack)) = identity {
        push_identity_attrs(out, id);
        push_u64_attr(out, "ack", ack);
    }
    match body {
        Body::Tuple(tuple) => {
            out.push('>');
            write_tuple(tuple, out);
            out.push_str("</op>");
        }
        Body::Template(template) => {
            out.push('>');
            write_template(template, out);
            out.push_str("</op>");
        }
        Body::Empty => out.push_str("/>"),
    }
}

/// Writes a `<resp>` document; `re` adds the echoed `client`/`seq`
/// attributes after the response's own.
pub(crate) fn write_response(response: &Response, re: Option<RequestId>, out: &mut String) {
    out.push_str("<resp");
    match response {
        Response::WriteAck => push_attr(out, "type", "ack"),
        Response::Entry { .. } => push_attr(out, "type", "entry"),
        Response::Count { count } => {
            push_attr(out, "type", "count");
            push_u64_attr(out, "n", *count);
        }
        Response::Error { .. } => push_attr(out, "type", "error"),
        Response::SubscriptionAck { id } => {
            push_attr(out, "type", "sub-ack");
            push_u64_attr(out, "sub", *id);
        }
    }
    if let Some(id) = re {
        push_identity_attrs(out, id);
    }
    match response {
        Response::Entry { tuple: Some(tuple) } => {
            out.push('>');
            write_tuple(tuple, out);
            out.push_str("</resp>");
        }
        // An error always carries a text node, even an empty one.
        Response::Error { message } => {
            out.push('>');
            escape_into(message, out);
            out.push_str("</resp>");
        }
        _ => out.push_str("/>"),
    }
}

/// Writes an `<event>` document.
pub(crate) fn write_event(event: &WireEvent, out: &mut String) {
    out.push_str("<event");
    push_u64_attr(out, "sub", event.subscription);
    push_attr(out, "kind", kind_name(event.kind));
    out.push('>');
    write_tuple(&event.tuple, out);
    out.push_str("</event>");
}

// ---------------------------------------------------------------------
// Hex helpers (bytes fields)
// ---------------------------------------------------------------------

pub(crate) fn hex_decode(text: &str) -> Result<Vec<u8>, String> {
    if !text.len().is_multiple_of(2) {
        return Err("odd-length hex string".to_owned());
    }
    (0..text.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(
                text.get(i..i + 2).ok_or("hex string not ASCII-aligned")?,
                16,
            )
            .map_err(|e| format!("bad hex byte at {i}: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::{request_envelope, server_message};
    use proptest::prelude::*;
    use tsbus_tuplespace::ValueType;
    use tsbus_tuplespace::{template, tuple};

    fn request_to_xml(request: &Request) -> String {
        let mut out = String::new();
        write_request(request, None, &mut out);
        out
    }

    fn request_envelope_to_xml(envelope: &RequestEnvelope) -> String {
        let mut out = String::new();
        write_request(
            &envelope.request,
            envelope.id.map(|id| (id, envelope.ack)),
            &mut out,
        );
        out
    }

    fn correlated_response_to_xml(re: Option<RequestId>, response: &Response) -> String {
        let mut out = String::new();
        write_response(response, re, &mut out);
        out
    }

    fn response_to_xml(response: &Response) -> String {
        correlated_response_to_xml(None, response)
    }

    fn event_to_xml(event: &WireEvent) -> String {
        let mut out = String::new();
        write_event(event, &mut out);
        out
    }

    fn request_from_xml(text: &str) -> Result<Request, DecodeWireError> {
        request_envelope(text).map(|envelope| envelope.request)
    }

    fn response_from_xml(text: &str) -> Result<Response, DecodeWireError> {
        match server_message(text)? {
            ServerMessage::Response { response, .. } => Ok(response),
            ServerMessage::Event(event) => panic!("expected a response, got {event:?}"),
        }
    }

    /// `tuple` written and read back through the text.
    fn tuple_roundtrip(tuple: &Tuple) -> Tuple {
        let request = Request::Write {
            tuple: tuple.clone(),
            lease_ns: None,
        };
        match request_from_xml(&request_to_xml(&request)).expect("own encoding decodes") {
            Request::Write { tuple, .. } => tuple,
            other => panic!("expected a write, got {other:?}"),
        }
    }

    /// `value` written and read back through the text.
    fn value_roundtrip(value: &Value) -> Value {
        let tuple = tuple_roundtrip(&Tuple::new(vec![value.clone()]));
        tuple.into_iter().next().expect("one field")
    }

    #[test]
    fn value_roundtrips_cover_all_types() {
        for v in [
            Value::Int(-42),
            Value::Float(2.5),
            Value::Float(f64::INFINITY),
            Value::Str("hello <&> \"world\"".into()),
            Value::Str(String::new()),
            Value::Bool(true),
            Value::Bytes(vec![0, 255, 16]),
            Value::Bytes(Vec::new()),
        ] {
            assert_eq!(value_roundtrip(&v), v, "value {v:?}");
        }
    }

    #[test]
    fn tuple_roundtrip_through_text() {
        let t = tuple!["sensor", 42, 23.5, true, vec![1u8, 2, 3]];
        assert_eq!(tuple_roundtrip(&t), t);
    }

    #[test]
    fn template_roundtrip_with_all_pattern_kinds() {
        let req = Request::Count {
            template: template!["tag", ValueType::Int, Pattern::Wildcard],
        };
        assert_eq!(
            request_from_xml(&request_to_xml(&req)).expect("decodes"),
            req
        );
    }

    #[test]
    fn request_roundtrips() {
        let requests = [
            Request::Write {
                tuple: tuple!["e", 1],
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
        ];
        for req in requests {
            let xml = request_to_xml(&req);
            let back = request_from_xml(&xml).expect("own encoding decodes");
            assert_eq!(back, req, "via {xml}");
        }
    }

    #[test]
    fn response_roundtrips() {
        let responses = [
            Response::WriteAck,
            Response::Entry {
                tuple: Some(tuple!["x", 1]),
            },
            Response::Entry { tuple: None },
            Response::Count { count: 7 },
            Response::Error {
                message: "space overloaded <busy>".into(),
            },
        ];
        for resp in responses {
            let xml = response_to_xml(&resp);
            let back = response_from_xml(&xml).expect("own encoding decodes");
            assert_eq!(back, resp, "via {xml}");
        }
    }

    #[test]
    fn subscribe_and_events_roundtrip() {
        let req = Request::Subscribe {
            template: template!["alert", ValueType::Str],
            kinds: vec![EventKind::Written, EventKind::Expired],
        };
        let xml = request_to_xml(&req);
        assert_eq!(request_from_xml(&xml).expect("decodes"), req);
        // No kinds: a subscription that never fires still round-trips.
        let silent = Request::Subscribe {
            template: template!["alert"],
            kinds: Vec::new(),
        };
        assert_eq!(
            request_from_xml(&request_to_xml(&silent)).expect("decodes"),
            silent
        );

        let unsub = Request::Unsubscribe { id: 7 };
        assert_eq!(
            request_from_xml(&request_to_xml(&unsub)).expect("decodes"),
            unsub
        );

        let ack = Response::SubscriptionAck { id: 7 };
        assert_eq!(
            response_from_xml(&response_to_xml(&ack)).expect("decodes"),
            ack
        );

        let event = WireEvent {
            subscription: 7,
            kind: EventKind::Taken,
            tuple: tuple!["alert", "overtemp"],
        };
        let text = event_to_xml(&event);
        match server_message(&text).expect("decodes") {
            ServerMessage::Event(back) => assert_eq!(back, event),
            ServerMessage::Response { .. } => panic!("events must dispatch as events"),
        }
        // Plain responses still dispatch as responses (with no identity).
        match server_message(&response_to_xml(&Response::WriteAck)).expect("decodes") {
            ServerMessage::Response {
                re: None,
                response: Response::WriteAck,
            } => {}
            other => panic!("expected WriteAck, got {other:?}"),
        }
    }

    #[test]
    fn renew_request_roundtrips() {
        for req in [
            Request::Renew {
                template: template!["svc", ValueType::Str],
                lease_ns: Some(10_000_000_000),
            },
            Request::Renew {
                template: template!["svc"],
                lease_ns: None,
            },
        ] {
            let xml = request_to_xml(&req);
            assert_eq!(request_from_xml(&xml).expect("decodes"), req, "via {xml}");
        }
    }

    #[test]
    fn request_envelope_roundtrips_and_bare_form_is_unchanged() {
        let req = Request::Take {
            template: template!["e", ValueType::Int],
            timeout_ns: None,
        };
        let id = RequestId { client: 7, seq: 3 };
        let enveloped = RequestEnvelope::identified(id, 2, req.clone());
        let xml = request_envelope_to_xml(&enveloped);
        assert!(xml.contains("client=\"7\"") && xml.contains("seq=\"3\""));
        assert_eq!(request_envelope(&xml).expect("decodes"), enveloped);

        let bare = RequestEnvelope::bare(req.clone());
        assert_eq!(
            request_envelope_to_xml(&bare),
            request_to_xml(&req),
            "an id-less envelope is byte-identical to the legacy form"
        );
        let back = request_envelope(&request_to_xml(&req)).expect("decodes");
        assert_eq!(back, bare);
    }

    #[test]
    fn correlated_responses_echo_the_request_id() {
        let id = RequestId { client: 9, seq: 42 };
        let resp = Response::Entry {
            tuple: Some(tuple!["x", 1]),
        };
        let xml = correlated_response_to_xml(Some(id), &resp);
        match server_message(&xml).expect("decodes") {
            ServerMessage::Response { re, response } => {
                assert_eq!(re, Some(id));
                assert_eq!(response, resp);
            }
            other => panic!("expected response, got {other:?}"),
        }
        assert_eq!(
            correlated_response_to_xml(None, &resp),
            r#"<resp type="entry"><tuple><field type="str">x</field><field type="int">1</field></tuple></resp>"#,
            "uncorrelated responses keep the legacy form"
        );
    }

    #[test]
    fn lone_identity_attributes_are_rejected() {
        let err = server_message("<resp type=\"ack\" client=\"1\"/>").expect_err("bad");
        assert!(err.to_string().contains("together"), "{err}");
    }

    #[test]
    fn shape_errors_are_reported() {
        for (doc, needle) in [
            ("<nope/>", "expected <op>"),
            ("<op/>", "op without type"),
            ("<op type=\"bogus\"/>", "unknown op type"),
            ("<op type=\"write\"/>", "write op without tuple"),
            ("<op type=\"take\"/>", "take op without template"),
            (
                "<op type=\"write\"><tuple><field type=\"int\">x</field></tuple></op>",
                "bad int",
            ),
            (
                "<op type=\"write\"><tuple><field>1</field></tuple></op>",
                "field without type",
            ),
        ] {
            let err = request_from_xml(doc).expect_err(doc);
            assert!(
                err.to_string().contains(needle),
                "{doc}: {err} should mention {needle}"
            );
        }
    }

    #[test]
    fn hex_is_strict() {
        assert_eq!(hex_decode("0aff").expect("valid"), vec![0x0a, 0xff]);
        assert!(hex_decode("0a0").is_err());
        assert!(hex_decode("zz").is_err());
    }

    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            "[ -~]{0,16}".prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
            proptest::collection::vec(any::<u8>(), 0..16).prop_map(Value::Bytes),
        ]
    }

    proptest! {
        /// Every representable value round-trips through the wire text,
        /// including floats (bitwise: NaN payloads excepted, quieted NaN
        /// equality holds by bit comparison of the canonical NaN).
        #[test]
        fn arbitrary_values_roundtrip(v in value_strategy()) {
            let back = value_roundtrip(&v);
            match (&v, &back) {
                (Value::Float(a), Value::Float(b)) => {
                    // Text round-trip preserves the numeric value; NaN
                    // payload bits are not preserved by decimal text.
                    if a.is_nan() {
                        prop_assert!(b.is_nan());
                    } else {
                        prop_assert_eq!(a, b);
                    }
                }
                _ => prop_assert_eq!(&v, &back),
            }
        }

        /// Arbitrary tuples round-trip through the wire text.
        #[test]
        fn arbitrary_tuples_roundtrip(
            fields in proptest::collection::vec(value_strategy(), 0..6)
        ) {
            prop_assume!(fields.iter().all(|f| !matches!(f, Value::Float(x) if x.is_nan())));
            let t = Tuple::new(fields);
            prop_assert_eq!(tuple_roundtrip(&t), t);
        }
    }
}
