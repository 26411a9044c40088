//! A pull reader for the XML subset used on the wire (an optional prolog,
//! comments, elements with single- or double-quoted attributes, text with
//! the five predefined entities and character references), and the two
//! message decoders built on it. The reader hands out an element's name,
//! then its attributes, then its content, one item at a time; names and
//! values are borrowed from the input, and only text holding references
//! is copied. A syntax error is reported at its first offending byte.

use core::fmt;
use std::borrow::Cow;
use std::str::FromStr;

use tsbus_tuplespace::{Pattern, Template, Tuple, Value, ValueType};

use crate::codec::{
    hex_decode, kind_from_name, DecodeWireError, Request, RequestEnvelope, RequestId, Response,
    ServerMessage, WireEvent,
};

/// Why a document failed to parse, with the byte offset of the problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseXmlError {
    /// Byte offset into the input where the problem was detected.
    pub(crate) offset: usize,
    /// What went wrong.
    pub(crate) message: String,
}

impl fmt::Display for ParseXmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ParseXmlError { offset, message } = self;
        write!(f, "xml parse error at byte {offset}: {message}")
    }
}

impl std::error::Error for ParseXmlError {}

/// What every step returns; the error is boxed so the happy path moves
/// small values.
type Result<T, E = Box<DecodeWireError>> = std::result::Result<T, E>;

/// An attribute's value, if the start tag has it.
type Attr<'a> = Option<Cow<'a, str>>;

/// One item of an element's content.
pub(crate) enum Content<'a> {
    /// A run of character data, references resolved.
    Text(Cow<'a, str>),
    /// A child element's start tag, read up to its name.
    Child(&'a str),
    /// The element's end tag, read and matched.
    End,
}

/// A cursor over one document.
pub(crate) struct Reader<'a> {
    input: &'a str,
    pos: usize,
    /// The last start tag closed with `/>`: the element has no content.
    empty: bool,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Reader {
            input,
            pos: 0,
            empty: false,
        }
    }

    /// Reads up to the root element's name.
    pub(crate) fn root(&mut self) -> Result<&'a str> {
        self.skip_misc()?;
        self.expect(b'<')?;
        self.name()
    }

    /// Checks that nothing but whitespace, comments and processing
    /// instructions follows the root element.
    pub(crate) fn finish(&mut self) -> Result<()> {
        self.skip_misc()?;
        if self.pos != self.input.len() {
            return Err(self.error("trailing content after the root element"));
        }
        Ok(())
    }

    /// The next attribute of the current start tag, or `None` once the tag
    /// is closed.
    pub(crate) fn attr(&mut self) -> Result<Option<(&'a str, Cow<'a, str>)>> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'/') => {
                self.pos += 1;
                self.expect(b'>')?;
                self.empty = true;
                Ok(None)
            }
            Some(b'>') => {
                self.pos += 1;
                Ok(None)
            }
            Some(_) => {
                let key = self.name()?;
                self.skip_whitespace();
                self.expect(b'=')?;
                self.skip_whitespace();
                Ok(Some((key, self.attr_value()?)))
            }
            None => Err(self.error("unterminated start tag")),
        }
    }

    /// Reads the rest of the current start tag, keeping the first value of
    /// each attribute named in `keys`.
    pub(crate) fn attrs<const N: usize>(&mut self, keys: [&str; N]) -> Result<[Attr<'a>; N]> {
        let mut values = [const { None }; N];
        while let Some((key, value)) = self.attr()? {
            if let Some(i) = keys.iter().position(|&k| k == key) {
                values[i].get_or_insert(value);
            }
        }
        Ok(values)
    }

    /// The next item of the content of element `name`, whose start tag has
    /// been read.
    pub(crate) fn content(&mut self, name: &str) -> Result<Content<'a>> {
        if std::mem::take(&mut self.empty) {
            return Ok(Content::End);
        }
        let bytes = self.input.as_bytes();
        loop {
            match bytes.get(self.pos) {
                Some(b'<') => match bytes.get(self.pos + 1) {
                    Some(b'/') => {
                        self.pos += 2;
                        // The end tag as written, in one comparison.
                        let rest = &bytes[self.pos..];
                        if rest.get(name.len()) == Some(&b'>') && rest.starts_with(name.as_bytes())
                        {
                            self.pos += name.len() + 1;
                            return Ok(Content::End);
                        }
                        let end = self.name()?;
                        if end != name {
                            return Err(self.error(format!(
                                "mismatched end tag: expected </{name}>, found </{end}>"
                            )));
                        }
                        self.skip_whitespace();
                        self.expect(b'>')?;
                        return Ok(Content::End);
                    }
                    Some(b'!') if bytes[self.pos..].starts_with(b"<!--") => self.comment()?,
                    _ => {
                        self.pos += 1;
                        return Ok(Content::Child(self.name()?));
                    }
                },
                Some(_) => {
                    // A text run ends before a `<` or at the end of the input;
                    // it starts after a `>`, so both ends are boundaries.
                    let start = self.pos;
                    let (end, refs) = scan(bytes, start, |c| c == b'<');
                    self.pos = end.unwrap_or(bytes.len());
                    return self.resolve(start, self.pos, refs).map(Content::Text);
                }
                None => return Err(self.error(format!("missing end tag </{name}>"))),
            }
        }
    }

    /// The text directly inside element `name` (start tag read), read
    /// through its end tag; child elements are read and dropped.
    pub(crate) fn text(&mut self, name: &str) -> Result<Cow<'a, str>> {
        let mut text = Cow::Borrowed("");
        loop {
            match self.content(name)? {
                Content::Text(run) if text.is_empty() => text = run,
                Content::Text(run) => text.to_mut().push_str(&run),
                Content::Child(child) => self.skip(child)?,
                Content::End => return Ok(text),
            }
        }
    }

    /// Reads the rest of element `name`, from its attributes through its
    /// end tag, keeping nothing.
    pub(crate) fn skip(&mut self, name: &str) -> Result<()> {
        while self.attr()?.is_some() {}
        self.skip_content(name)
    }

    /// Reads the rest of the content of element `name` through its end tag,
    /// keeping nothing.
    pub(crate) fn skip_content(&mut self, name: &str) -> Result<()> {
        loop {
            match self.content(name)? {
                Content::Text(_) => {}
                Content::Child(child) => self.skip(child)?,
                Content::End => return Ok(()),
            }
        }
    }

    #[cold]
    fn error(&self, message: impl Into<String>) -> Box<DecodeWireError> {
        let (offset, message) = (self.pos, message.into());
        Box::new(DecodeWireError::Xml(ParseXmlError { offset, message }))
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input.as_bytes()[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, processing instructions and comments between
    /// top-level items.
    fn skip_misc(&mut self) -> Result<()> {
        loop {
            self.skip_whitespace();
            if self.starts_with("<?") {
                match self.input[self.pos..].find("?>") {
                    Some(end) => self.pos += end + 2,
                    None => return Err(self.error("unterminated processing instruction")),
                }
            } else if self.starts_with("<!--") {
                self.comment()?;
            } else {
                return Ok(());
            }
        }
    }

    /// Skips the comment that starts here.
    fn comment(&mut self) -> Result<()> {
        let end = self.input[self.pos + 4..].find("-->");
        self.pos += end.ok_or_else(|| self.error("unterminated comment"))? + 7;
        Ok(())
    }

    /// Lexes an element or attribute name (a letter or `_`, then letters,
    /// digits, `-`, `_` or `.`); the grammar is ASCII, so both ends of the
    /// slice fall on character boundaries.
    #[inline]
    fn name(&mut self) -> Result<&'a str> {
        let bytes = self.input.as_bytes();
        let start = self.pos;
        match bytes.get(start) {
            Some(&c) if c.is_ascii_alphabetic() || c == b'_' => {}
            _ => return Err(self.error("expected a name")),
        }
        self.pos = bytes[start + 1..]
            .iter()
            .position(|&c| !is_name_byte(c))
            .map_or(bytes.len(), |n| start + 1 + n);
        Ok(&self.input[start..self.pos])
    }

    fn expect(&mut self, c: u8) -> Result<()> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", char::from(c))))
        }
    }

    fn attr_value(&mut self) -> Result<Cow<'a, str>> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.error("expected a quoted attribute value")),
        };
        let bytes = self.input.as_bytes();
        let start = self.pos + 1;
        match scan(bytes, start, |c| c == quote || c == b'<') {
            (Some(end), refs) if bytes[end] == quote => {
                self.pos = end + 1;
                // Between two ASCII quotes: both ends are boundaries.
                self.resolve(start, end, refs)
            }
            (Some(end), _) => {
                self.pos = end;
                Err(self.error("'<' is not allowed in attribute values"))
            }
            (None, _) => {
                self.pos = bytes.len();
                Err(self.error("unterminated attribute value"))
            }
        }
    }

    /// The text `input[start..end]` with references resolved (`refs`: it
    /// holds a `&`); an error is reported at the current position.
    #[inline]
    fn resolve(&self, start: usize, end: usize, refs: bool) -> Result<Cow<'a, str>> {
        let text = &self.input[start..end];
        if !refs {
            return Ok(Cow::Borrowed(text));
        }
        unescape(text).map(Cow::Owned).map_err(|m| self.error(m))
    }
}

/// Whether a byte may follow the first of a name.
fn is_name_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, b'-' | b'_' | b'.')
}

/// The offset of the first byte from `start` on that `stop` accepts, and
/// whether a `&` comes before it.
fn scan(bytes: &[u8], start: usize, stop: impl Fn(u8) -> bool) -> (Option<usize>, bool) {
    let mut refs = false;
    let end = bytes[start..].iter().position(|&c| {
        refs |= c == b'&';
        stop(c)
    });
    (end.map(|n| start + n), refs)
}

/// Checks that `input` is one well-formed document, keeping nothing.
pub(crate) fn check(input: &str) -> Result<()> {
    let mut reader = Reader::new(input);
    let root = reader.root()?;
    reader.skip(root)?;
    reader.finish()
}

/// Resolves the five predefined entities plus decimal/hex character
/// references.
#[cold]
fn unescape(text: &str) -> Result<String, String> {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let Some(semi) = rest.find(';') else {
            return Err("unterminated entity reference".to_owned());
        };
        let entity = &rest[1..semi];
        let c = match entity {
            "amp" => '&',
            "lt" => '<',
            "gt" => '>',
            "quot" => '"',
            "apos" => '\'',
            _ => char_reference(entity)?,
        };
        out.push(c);
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

/// Resolves `#NNN` or `#xHHH` (the text between `&` and `;`).
fn char_reference(entity: &str) -> Result<char, String> {
    let code = if let Some(hex) = entity
        .strip_prefix("#x")
        .or_else(|| entity.strip_prefix("#X"))
    {
        u32::from_str_radix(hex, 16)
    } else if let Some(decimal) = entity.strip_prefix('#') {
        decimal.parse::<u32>()
    } else {
        return Err(format!("unknown entity &{entity};"));
    };
    let code = code.map_err(|_| format!("bad character reference &{entity};"))?;
    char::from_u32(code).ok_or_else(|| format!("invalid code point &{entity};"))
}

// Message decoders. Each reads its document once, front to back, straight
// into the message. Its errors are those of a parse into a document tree
// followed by a walk of that tree: a syntax error anywhere wins, at its
// first offending byte; a well-formed document reports the first shape
// error in the walk's order. The walk checks a root's attributes by name
// before its children (the numeric ones of `write`, `read`, `take` and
// `renew` after them), takes the first of a repeated attribute and the
// first child of the name it looks for, and ignores other children. After
// a shape error the document is read again, for syntax alone.

#[cold]
fn shape(message: impl Into<String>) -> Box<DecodeWireError> {
    Box::new(DecodeWireError::Shape(message.into()))
}

/// Decodes one document; `root` reads the root element from its
/// attributes through its end tag.
fn decode_document<'a, T>(
    text: &'a str,
    root: impl FnOnce(&mut Reader<'a>, &'a str) -> Result<T>,
) -> Result<T, DecodeWireError> {
    let mut reader = Reader::new(text);
    let read = || -> Result<T> {
        let name = reader.root()?;
        let value = root(&mut reader, name)?;
        reader.finish()?;
        Ok(value)
    };
    let decoded = read().map_err(|e| *e);
    if let Err(DecodeWireError::Shape(_)) = decoded {
        check(text).map_err(|e| *e)?;
    }
    decoded
}

/// Reads the content of element `parent` through its end tag, decoding
/// its first child named `want` with `decode` and skipping the rest.
fn first_child<'a, T>(
    r: &mut Reader<'a>,
    parent: &str,
    want: &str,
    decode: impl FnOnce(&mut Reader<'a>) -> Result<T>,
) -> Result<Option<T>> {
    let mut decode = Some(decode);
    let mut found = None;
    loop {
        match r.content(parent)? {
            Content::Child(name) => match decode.take_if(|_| name == want) {
                Some(decode) => found = Some(decode(r)?),
                None => r.skip(name)?,
            },
            Content::Text(_) => {}
            Content::End => return Ok(found),
        }
    }
}

/// Parses `raw` as a number, naming it `what` in the error.
fn number<T: FromStr<Err: fmt::Display>>(what: &str, raw: &str) -> Result<T> {
    raw.parse()
        .map_err(|e| shape(format!("bad {what} {raw:?}: {e}")))
}

/// Parses an optional unsigned attribute.
fn optional_u64(name: &str, raw: Attr<'_>) -> Result<Option<u64>> {
    raw.map(|raw| number(name, &raw)).transpose()
}

/// The optional `client`/`seq` identity (both present → an id; neither →
/// `None`; one alone is malformed).
fn request_id(client: Attr<'_>, seq: Attr<'_>) -> Result<Option<RequestId>> {
    match (optional_u64("client", client)?, optional_u64("seq", seq)?) {
        (Some(client), Some(seq)) => Ok(Some(RequestId { client, seq })),
        (None, None) => Ok(None),
        _ => Err(shape("client/seq attributes must appear together")),
    }
}

/// Parses a present `sub` attribute; `missing` names the element without
/// one.
fn sub_id(raw: Attr<'_>, missing: &str) -> Result<u64> {
    raw.ok_or_else(|| shape(format!("{missing} without sub")))?
        .parse::<u64>()
        .map_err(|e| shape(format!("bad sub id: {e}")))
}

/// Decodes a `<field>` element, read up to its name `name`.
fn read_value(r: &mut Reader<'_>, name: &str) -> Result<Value> {
    if name != "field" {
        return Err(shape(format!("expected <field>, found <{name}>")));
    }
    let [type_name] = r.attrs(["type"])?;
    let type_name = type_name.ok_or_else(|| shape("field without type"))?;
    let vt = ValueType::from_name(&type_name)
        .ok_or_else(|| shape(format!("unknown field type {type_name:?}")))?;
    let text = r.text(name)?;
    match vt {
        ValueType::Int => number("int", &text).map(Value::Int),
        ValueType::Float => number("float", &text).map(Value::Float),
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

/// Decodes every child of element `parent`, read up to its name, with
/// `child`.
fn read_children<'a, T>(
    r: &mut Reader<'a>,
    parent: &str,
    child: impl Fn(&mut Reader<'a>, &'a str) -> Result<T>,
) -> Result<Vec<T>> {
    let [] = r.attrs([])?;
    let mut items = Vec::new();
    loop {
        match r.content(parent)? {
            Content::Child(name) => items.push(child(r, name)?),
            Content::Text(_) => {}
            Content::End => return Ok(items),
        }
    }
}

fn read_tuple(r: &mut Reader<'_>) -> Result<Tuple> {
    read_children(r, "tuple", read_value).map(Tuple::new)
}

fn read_template(r: &mut Reader<'_>) -> Result<Template> {
    read_children(r, "template", read_pattern).map(Template::new)
}

/// Decodes a `<pattern>` element, read up to its name `name`.
fn read_pattern(r: &mut Reader<'_>, name: &str) -> Result<Pattern> {
    if name != "pattern" {
        return Err(shape(format!("expected <pattern>, found <{name}>")));
    }
    let [kind, type_name] = r.attrs(["kind", "type"])?;
    let pattern = match kind.as_deref() {
        None => return Err(shape("pattern without kind")),
        Some("exact") => {
            let field = first_child(r, name, "field", |r| read_value(r, "field"))?;
            return field
                .map(Pattern::Exact)
                .ok_or_else(|| shape("exact pattern without field"));
        }
        Some("type") => {
            let type_name = type_name.ok_or_else(|| shape("type pattern without type"))?;
            Pattern::AnyOfType(
                ValueType::from_name(&type_name)
                    .ok_or_else(|| shape(format!("unknown pattern type {type_name:?}")))?,
            )
        }
        Some("any") => Pattern::Wildcard,
        Some(other) => return Err(shape(format!("unknown pattern kind {other:?}"))),
    };
    r.skip_content(name)?;
    Ok(pattern)
}

/// Decodes a request-envelope document: an `<op>` element together with
/// its optional identity attributes.
pub(crate) fn request_envelope(text: &str) -> Result<RequestEnvelope, DecodeWireError> {
    decode_document(text, |r, name| {
        let [client, seq, ack, kind, lease, timeout, kinds, sub] = r.attrs([
            "client",
            "seq",
            "ack",
            "type",
            "lease-ns",
            "timeout-ns",
            "kinds",
            "sub",
        ])?;
        let id = request_id(client, seq)?;
        let ack = optional_u64("ack", ack)?.unwrap_or(0);
        if name != "op" {
            return Err(shape(format!("expected <op>, found <{name}>")));
        }
        let kind = kind.ok_or_else(|| shape("op without type"))?;
        let template = |r: &mut Reader<'_>| {
            first_child(r, name, "template", read_template)?
                .ok_or_else(|| shape(format!("{kind} op without template")))
        };
        let request = match &*kind {
            "write" => Request::Write {
                tuple: first_child(r, name, "tuple", read_tuple)?
                    .ok_or_else(|| shape("write op without tuple"))?,
                lease_ns: optional_u64("lease-ns", lease)?,
            },
            "read" => Request::Read {
                template: template(r)?,
                timeout_ns: optional_u64("timeout-ns", timeout)?,
            },
            "take" => Request::Take {
                template: template(r)?,
                timeout_ns: optional_u64("timeout-ns", timeout)?,
            },
            "read-if-exists" => Request::ReadIfExists {
                template: template(r)?,
            },
            "take-if-exists" => Request::TakeIfExists {
                template: template(r)?,
            },
            "count" => Request::Count {
                template: template(r)?,
            },
            "subscribe" => Request::Subscribe {
                kinds: kinds
                    .as_deref()
                    .unwrap_or("")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|k| {
                        kind_from_name(k).ok_or_else(|| shape(format!("unknown event kind {k:?}")))
                    })
                    .collect::<Result<_, _>>()?,
                template: template(r)?,
            },
            "unsubscribe" => {
                let id = sub_id(sub, "unsubscribe op")?;
                r.skip_content(name)?;
                Request::Unsubscribe { id }
            }
            "renew" => Request::Renew {
                template: template(r)?,
                lease_ns: optional_u64("lease-ns", lease)?,
            },
            other => return Err(shape(format!("unknown op type {other:?}"))),
        };
        Ok(RequestEnvelope { id, ack, request })
    })
}

/// Decodes whatever the server sent, dispatching on the root element.
pub(crate) fn server_message(text: &str) -> Result<ServerMessage, DecodeWireError> {
    decode_document(text, |r, name| {
        let [client, seq, kind, sub, event_kind, n] =
            r.attrs(["client", "seq", "type", "sub", "kind", "n"])?;
        if name == "event" {
            let subscription = sub_id(sub, "event")?;
            let event_kind = event_kind.ok_or_else(|| shape("event without kind"))?;
            let kind = kind_from_name(&event_kind)
                .ok_or_else(|| shape(format!("unknown event kind {event_kind:?}")))?;
            let tuple = first_child(r, name, "tuple", read_tuple)?
                .ok_or_else(|| shape("event without tuple"))?;
            return Ok(ServerMessage::Event(WireEvent {
                subscription,
                kind,
                tuple,
            }));
        }
        let re = request_id(client, seq)?;
        if name != "resp" {
            return Err(shape(format!("expected <resp>, found <{name}>")));
        }
        let response = match kind.as_deref() {
            None => return Err(shape("resp without type")),
            Some("ack") => {
                r.skip_content(name)?;
                Response::WriteAck
            }
            Some("entry") => Response::Entry {
                tuple: first_child(r, name, "tuple", read_tuple)?,
            },
            Some("count") => {
                let raw = n.ok_or_else(|| shape("count resp without n"))?;
                let count = number("count", &raw)?;
                r.skip_content(name)?;
                Response::Count { count }
            }
            Some("error") => Response::Error {
                message: r.text(name)?.into_owned(),
            },
            Some("sub-ack") => {
                let id = sub_id(sub, "sub-ack")?;
                r.skip_content(name)?;
                Response::SubscriptionAck { id }
            }
            Some(other) => return Err(shape(format!("unknown resp type {other:?}"))),
        };
        Ok(ServerMessage::Response { re, response })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every item of `input`, rendered one per entry.
    fn items(input: &str) -> Result<Vec<String>> {
        fn element(r: &mut Reader<'_>, name: &str, out: &mut Vec<String>) -> Result<()> {
            out.push(format!("<{name}"));
            while let Some((key, value)) = r.attr()? {
                out.push(format!("{key}={value}"));
            }
            loop {
                match r.content(name)? {
                    Content::Text(text) => out.push(format!("text {text}")),
                    Content::Child(child) => element(r, child, out)?,
                    Content::End => {
                        out.push(format!("</{name}"));
                        return Ok(());
                    }
                }
            }
        }
        let mut reader = Reader::new(input);
        let mut out = Vec::new();
        let root = reader.root()?;
        element(&mut reader, root, &mut out)?;
        reader.finish()?;
        Ok(out)
    }

    #[test]
    fn reads_items_in_document_order() {
        let got = items(
            "<?xml version=\"1.0\"?>\n<!-- c --><op type='write' x=\"&lt;1&#62;\">\
             a<!-- hidden <b/> -->b<t/><u></u>&amp;</op>\n",
        )
        .expect("valid");
        assert_eq!(
            got,
            [
                "<op",
                "type=write",
                "x=<1>",
                "text a",
                "text b",
                "<t",
                "</t",
                "<u",
                "</u",
                "text &",
                "</op"
            ]
        );
    }

    #[test]
    fn names_values_and_plain_text_are_borrowed() {
        let mut reader = Reader::new("<f type=\"int\">42</f>");
        assert_eq!(reader.root().expect("root"), "f");
        let [kind] = reader.attrs(["type"]).expect("attrs");
        assert!(matches!(kind, Some(Cow::Borrowed("int"))));
        assert!(matches!(reader.text("f"), Ok(Cow::Borrowed("42"))));
        let mut reader = Reader::new("<f>4&#50;</f>");
        reader.root().expect("root");
        reader.attrs([]).expect("attrs");
        assert!(matches!(reader.text("f"), Ok(Cow::Owned(text)) if text == "42"));
    }

    #[test]
    fn attrs_keep_the_first_of_duplicates() {
        let mut reader = Reader::new("<a k='1' other='x' k='2'/>");
        reader.root().expect("root");
        let [k, missing] = reader.attrs(["k", "missing"]).expect("attrs");
        assert_eq!((k.as_deref(), missing), (Some("1"), None));
        assert!(matches!(reader.content("a"), Ok(Content::End)));
    }

    #[test]
    fn check_reports_the_first_syntax_error() {
        for (doc, want) in [
            (
                "<a><b></a>",
                "xml parse error at byte 9: mismatched end tag: expected </b>, found </a>",
            ),
            (
                "<a x=1/>",
                "xml parse error at byte 5: expected a quoted attribute value",
            ),
            (
                "<a>&bogus;</a>",
                "xml parse error at byte 10: unknown entity &bogus;",
            ),
            (
                "<a/><b/>",
                "xml parse error at byte 4: trailing content after the root element",
            ),
            ("<a", "xml parse error at byte 2: unterminated start tag"),
        ] {
            assert_eq!(check(doc).expect_err(doc).to_string(), want);
        }
        check("<?p?><a b='&#x41;'>t<c/><!---->&quot;</a> <!-- end -->").expect("valid");
    }
}
