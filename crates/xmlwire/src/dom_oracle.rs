//! The reference encoder for the direct XML writer in [`crate::codec`]:
//! every message built as an [`XmlElement`] tree and serialized by
//! [`XmlElement::to_xml`]. [`EncodeScratch`] must produce the same bytes
//! for every message, from a fresh scratch and from one still holding an
//! earlier message, which the property tests below check.

use proptest::prelude::*;
use tsbus_tuplespace::{EventKind, Pattern, Template, Tuple, Value, ValueType};

use crate::codec::{Request, RequestEnvelope, RequestId, Response, WireEvent};
use crate::dom::XmlElement;
use crate::{EncodeScratch, WireFormat};

fn kind_name(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Written => "written",
        EventKind::Taken => "taken",
        EventKind::Expired => "expired",
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn encode_value(value: &Value) -> XmlElement {
    let el = XmlElement::new("field").with_attr("type", value.type_of().to_string());
    match value {
        Value::Int(v) => el.with_text(v.to_string()),
        Value::Float(v) => el.with_text(format!("{v:?}")),
        Value::Str(v) => {
            if v.is_empty() {
                el
            } else {
                el.with_text(v.clone())
            }
        }
        Value::Bool(v) => el.with_text(v.to_string()),
        Value::Bytes(v) => el.with_text(hex_encode(v)),
    }
}

fn encode_tuple(tuple: &Tuple) -> XmlElement {
    let mut el = XmlElement::new("tuple");
    for field in tuple {
        el.push_child(encode_value(field));
    }
    el
}

fn encode_template(template: &Template) -> XmlElement {
    let mut el = XmlElement::new("template");
    for pattern in template.patterns() {
        let child = match pattern {
            Pattern::Exact(v) => XmlElement::new("pattern")
                .with_attr("kind", "exact")
                .with_child(encode_value(v)),
            Pattern::AnyOfType(vt) => XmlElement::new("pattern")
                .with_attr("kind", "type")
                .with_attr("type", vt.to_string()),
            Pattern::Wildcard => XmlElement::new("pattern").with_attr("kind", "any"),
        };
        el.push_child(child);
    }
    el
}

fn op_with_template(kind: &str, template: &Template, timeout_ns: Option<u64>) -> XmlElement {
    let mut el = XmlElement::new("op").with_attr("type", kind);
    if let Some(ns) = timeout_ns {
        el = el.with_attr("timeout-ns", ns.to_string());
    }
    el.with_child(encode_template(template))
}

fn encode_request(request: &Request) -> XmlElement {
    match request {
        Request::Write { tuple, lease_ns } => {
            let mut el = XmlElement::new("op").with_attr("type", "write");
            if let Some(ns) = lease_ns {
                el = el.with_attr("lease-ns", ns.to_string());
            }
            el.with_child(encode_tuple(tuple))
        }
        Request::Read {
            template,
            timeout_ns,
        } => op_with_template("read", template, *timeout_ns),
        Request::Take {
            template,
            timeout_ns,
        } => op_with_template("take", template, *timeout_ns),
        Request::ReadIfExists { template } => op_with_template("read-if-exists", template, None),
        Request::TakeIfExists { template } => op_with_template("take-if-exists", template, None),
        Request::Count { template } => op_with_template("count", template, None),
        Request::Subscribe { template, kinds } => {
            let names: Vec<&str> = kinds.iter().map(|&k| kind_name(k)).collect();
            XmlElement::new("op")
                .with_attr("type", "subscribe")
                .with_attr("kinds", names.join(","))
                .with_child(encode_template(template))
        }
        Request::Unsubscribe { id } => XmlElement::new("op")
            .with_attr("type", "unsubscribe")
            .with_attr("sub", id.to_string()),
        Request::Renew { template, lease_ns } => {
            let mut el = XmlElement::new("op").with_attr("type", "renew");
            if let Some(ns) = lease_ns {
                el = el.with_attr("lease-ns", ns.to_string());
            }
            el.with_child(encode_template(template))
        }
    }
}

pub(crate) fn encode_request_envelope(envelope: &RequestEnvelope) -> XmlElement {
    let mut el = encode_request(&envelope.request);
    if let Some(id) = envelope.id {
        el = el
            .with_attr("client", id.client.to_string())
            .with_attr("seq", id.seq.to_string())
            .with_attr("ack", envelope.ack.to_string());
    }
    el
}

fn encode_response(response: &Response) -> XmlElement {
    match response {
        Response::WriteAck => XmlElement::new("resp").with_attr("type", "ack"),
        Response::Entry { tuple } => {
            let el = XmlElement::new("resp").with_attr("type", "entry");
            match tuple {
                Some(t) => el.with_child(encode_tuple(t)),
                None => el,
            }
        }
        Response::Count { count } => XmlElement::new("resp")
            .with_attr("type", "count")
            .with_attr("n", count.to_string()),
        Response::Error { message } => XmlElement::new("resp")
            .with_attr("type", "error")
            .with_text(message.clone()),
        Response::SubscriptionAck { id } => XmlElement::new("resp")
            .with_attr("type", "sub-ack")
            .with_attr("sub", id.to_string()),
    }
}

pub(crate) fn encode_correlated_response(re: Option<RequestId>, response: &Response) -> XmlElement {
    let mut el = encode_response(response);
    if let Some(id) = re {
        el = el
            .with_attr("client", id.client.to_string())
            .with_attr("seq", id.seq.to_string());
    }
    el
}

pub(crate) fn encode_event(event: &WireEvent) -> XmlElement {
    XmlElement::new("event")
        .with_attr("sub", event.subscription.to_string())
        .with_attr("kind", kind_name(event.kind))
        .with_child(encode_tuple(&event.tuple))
}

// ---------------------------------------------------------------------
// Writer == oracle
// ---------------------------------------------------------------------

/// Values with the corners the layout and float formatting care about
/// drawn often: empty strings and byte strings, XML-significant text,
/// signed zeros, infinities and NaN.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::MIN_POSITIVE),
        ]
        .prop_map(Value::Float),
        "[ -~]{0,12}".prop_map(Value::Str),
        "[<>&\"' a]{0,4}".prop_map(Value::Str),
        "\\PC{0,6}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
        proptest::collection::vec(any::<u8>(), 0..6).prop_map(Value::Bytes),
    ]
}

fn tuple_strategy() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(value_strategy(), 0..5).prop_map(Tuple::new)
}

fn value_type_strategy() -> impl Strategy<Value = ValueType> {
    prop_oneof![
        Just(ValueType::Int),
        Just(ValueType::Float),
        Just(ValueType::Str),
        Just(ValueType::Bool),
        Just(ValueType::Bytes),
    ]
}

fn template_strategy() -> impl Strategy<Value = Template> {
    let pattern = prop_oneof![
        value_strategy().prop_map(Pattern::Exact),
        value_type_strategy().prop_map(Pattern::AnyOfType),
        Just(Pattern::Wildcard),
    ];
    proptest::collection::vec(pattern, 0..5).prop_map(Template::new)
}

fn kind_strategy() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        Just(EventKind::Written),
        Just(EventKind::Taken),
        Just(EventKind::Expired),
    ]
}

pub(crate) fn request_strategy() -> impl Strategy<Value = Request> {
    let ns = || proptest::option::of(any::<u64>());
    prop_oneof![
        (tuple_strategy(), ns()).prop_map(|(tuple, lease_ns)| Request::Write { tuple, lease_ns }),
        (template_strategy(), ns()).prop_map(|(template, timeout_ns)| Request::Read {
            template,
            timeout_ns
        }),
        (template_strategy(), ns()).prop_map(|(template, timeout_ns)| Request::Take {
            template,
            timeout_ns
        }),
        template_strategy().prop_map(|template| Request::ReadIfExists { template }),
        template_strategy().prop_map(|template| Request::TakeIfExists { template }),
        template_strategy().prop_map(|template| Request::Count { template }),
        (
            template_strategy(),
            proptest::collection::vec(kind_strategy(), 0..4)
        )
            .prop_map(|(template, kinds)| Request::Subscribe { template, kinds }),
        any::<u64>().prop_map(|id| Request::Unsubscribe { id }),
        (template_strategy(), ns())
            .prop_map(|(template, lease_ns)| Request::Renew { template, lease_ns }),
    ]
}

pub(crate) fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::WriteAck),
        proptest::option::of(tuple_strategy()).prop_map(|tuple| Response::Entry { tuple }),
        any::<u64>().prop_map(|count| Response::Count { count }),
        "[ -~]{0,12}".prop_map(|message| Response::Error { message }),
        any::<u64>().prop_map(|id| Response::SubscriptionAck { id }),
    ]
}

pub(crate) fn event_strategy() -> impl Strategy<Value = WireEvent> {
    (any::<u64>(), kind_strategy(), tuple_strategy()).prop_map(|(subscription, kind, tuple)| {
        WireEvent {
            subscription,
            kind,
            tuple,
        }
    })
}

pub(crate) fn request_id_strategy() -> impl Strategy<Value = Option<RequestId>> {
    proptest::option::of(
        (any::<u64>(), any::<u64>()).prop_map(|(client, seq)| RequestId { client, seq }),
    )
}

const XML: WireFormat = WireFormat::Xml;

/// The encoded bytes as text (the XML writer only emits UTF-8).
fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("XML output is UTF-8")
}

/// A scratch whose buffer still holds an earlier (stale) message, to check
/// each encode clears it first.
fn dirty() -> EncodeScratch {
    let mut scratch = EncodeScratch::new();
    let _ = scratch.correlated_response(
        Some(RequestId { client: 1, seq: 2 }),
        &Response::Error {
            message: "<stale/>".into(),
        },
        XML,
    );
    scratch
}

proptest! {
    /// Every request, bare and enveloped, writes the oracle's bytes.
    #[test]
    fn request_writer_matches_dom_oracle(
        request in request_strategy(),
        id in request_id_strategy(),
        ack in any::<u64>(),
    ) {
        let (mut fresh, mut stale) = (EncodeScratch::new(), dirty());
        let bare = encode_request(&request).to_xml();
        prop_assert_eq!(text(fresh.request(&request, XML)), bare.as_str());
        prop_assert_eq!(text(stale.request(&request, XML)), bare.as_str());
        let envelope = RequestEnvelope { id, ack, request };
        let oracle = encode_request_envelope(&envelope).to_xml();
        prop_assert_eq!(
            text(fresh.request_envelope(&envelope, XML)),
            oracle.as_str()
        );
        prop_assert_eq!(text(stale.request_envelope(&envelope, XML)), oracle.as_str());
    }

    /// Every response, with and without an echoed identity, writes the
    /// oracle's bytes.
    #[test]
    fn response_writer_matches_dom_oracle(
        response in response_strategy(),
        re in request_id_strategy(),
    ) {
        let (mut fresh, mut stale) = (EncodeScratch::new(), dirty());
        let plain = encode_response(&response).to_xml();
        prop_assert_eq!(
            text(fresh.correlated_response(None, &response, XML)),
            plain.as_str()
        );
        let oracle = encode_correlated_response(re, &response).to_xml();
        prop_assert_eq!(
            text(fresh.correlated_response(re, &response, XML)),
            oracle.as_str()
        );
        prop_assert_eq!(
            text(stale.correlated_response(re, &response, XML)),
            oracle.as_str()
        );
    }

    /// Every event writes the oracle's bytes.
    #[test]
    fn event_writer_matches_dom_oracle(event in event_strategy()) {
        let (mut fresh, mut stale) = (EncodeScratch::new(), dirty());
        let oracle = encode_event(&event).to_xml();
        prop_assert_eq!(text(fresh.event(&event, XML)), oracle.as_str());
        prop_assert_eq!(text(stale.event(&event, XML)), oracle.as_str());
    }
}

/// The layout corners, pinned as literal text: an empty string field
/// self-closes, an empty bytes field and an empty error keep their end
/// tags, and character data is escaped. (No protocol attribute carries
/// free text; the document model's escaping test pins attribute values.)
#[test]
fn writer_layout_corners_are_pinned() {
    let mut scratch = EncodeScratch::new();
    let mut write = |tuple: Tuple| {
        let request = Request::Write {
            tuple,
            lease_ns: None,
        };
        text(scratch.request(&request, XML)).to_owned()
    };
    assert_eq!(
        write(Tuple::new(vec![Value::Str(String::new())])),
        r#"<op type="write"><tuple><field type="str"/></tuple></op>"#
    );
    assert_eq!(
        write(Tuple::new(vec![Value::Bytes(Vec::new())])),
        r#"<op type="write"><tuple><field type="bytes"></field></tuple></op>"#
    );
    assert_eq!(
        write(Tuple::new(vec![Value::Str("a<b&\"c'>".into())])),
        r#"<op type="write"><tuple><field type="str">a&lt;b&amp;&quot;c&apos;&gt;</field></tuple></op>"#
    );
    assert_eq!(
        write(Tuple::new(Vec::new())),
        r#"<op type="write"><tuple/></op>"#
    );
    let mut response = |re: Option<RequestId>, message: &str| {
        let error = Response::Error {
            message: message.to_owned(),
        };
        text(scratch.correlated_response(re, &error, XML)).to_owned()
    };
    assert_eq!(response(None, ""), r#"<resp type="error"></resp>"#);
    assert_eq!(
        response(Some(RequestId { client: 1, seq: 2 }), "<busy>"),
        r#"<resp type="error" client="1" seq="2">&lt;busy&gt;</resp>"#
    );
}
