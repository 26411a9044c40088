//! The reference parser for the pull reader in [`crate::reader`]: a
//! recursive descent over the same XML subset (an optional `<?xml …?>`
//! prolog, comments, nested elements with single- or double-quoted
//! attributes, character data with the five predefined entities and
//! character references, and self-closing tags) that builds the whole
//! document as an [`XmlElement`] tree. Test-only: with the walk in
//! [`crate::dom_walker`] it is the decoders' oracle.

use crate::dom::XmlElement;
use crate::reader::ParseXmlError;

/// Parses a complete document into its root element.
///
/// # Errors
///
/// Returns [`ParseXmlError`] on malformed input, including trailing
/// non-whitespace after the root element.
pub(crate) fn parse(input: &str) -> Result<XmlElement, ParseXmlError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_misc()?;
    let root = p.parse_element()?;
    p.skip_misc()?;
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing content after the root element"));
    }
    Ok(root)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> ParseXmlError {
        ParseXmlError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, the prolog and comments between top-level items.
    fn skip_misc(&mut self) -> Result<(), ParseXmlError> {
        loop {
            self.skip_whitespace();
            if self.starts_with("<?") {
                match find(self.bytes, self.pos, b"?>") {
                    Some(end) => self.pos = end + 2,
                    None => return Err(self.error("unterminated processing instruction")),
                }
            } else if self.starts_with("<!--") {
                match find(self.bytes, self.pos + 4, b"-->") {
                    Some(end) => self.pos = end + 3,
                    None => return Err(self.error("unterminated comment")),
                }
            } else {
                return Ok(());
            }
        }
    }

    /// Lexes an element or attribute name (a letter or `_`, then letters,
    /// digits, `-`, `_` or `.`), borrowed from the input (the grammar is
    /// ASCII, so both ends of the slice fall on character boundaries).
    fn parse_name(&mut self) -> Result<&'a str, ParseXmlError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.pos += 1,
            _ => return Err(self.error("expected a name")),
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || matches!(c, b'-' | b'_' | b'.'))
        {
            self.pos += 1;
        }
        Ok(&self.input[start..self.pos])
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseXmlError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", char::from(c))))
        }
    }

    fn parse_attr_value(&mut self) -> Result<String, ParseXmlError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.error("expected a quoted attribute value")),
        };
        self.pos += 1;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == quote {
                let raw = &self.bytes[start..self.pos];
                self.pos += 1;
                // Borrow the input directly; only `unescape` allocates the
                // owned value the DOM keeps.
                let text = std::str::from_utf8(raw)
                    .map_err(|_| self.error("attribute value is not UTF-8"))?;
                return unescape(text).map_err(|m| self.error(m));
            }
            if c == b'<' {
                return Err(self.error("'<' is not allowed in attribute values"));
            }
            self.pos += 1;
        }
        Err(self.error("unterminated attribute value"))
    }

    fn parse_element(&mut self) -> Result<XmlElement, ParseXmlError> {
        self.expect(b'<')?;
        let name = self.parse_name()?;
        let mut element = XmlElement::from_lexed_name(name);
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok(element);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.parse_name()?;
                    self.skip_whitespace();
                    self.expect(b'=')?;
                    self.skip_whitespace();
                    let value = self.parse_attr_value()?;
                    element.push_lexed_attr(key, value);
                }
                None => return Err(self.error("unterminated start tag")),
            }
        }
        // Content until the matching end tag.
        loop {
            if self.starts_with("</") {
                self.pos += 2;
                let end_name = self.parse_name()?;
                if end_name != name {
                    return Err(self.error(format!(
                        "mismatched end tag: expected </{name}>, found </{end_name}>"
                    )));
                }
                self.skip_whitespace();
                self.expect(b'>')?;
                return Ok(element);
            }
            if self.starts_with("<!--") {
                match find(self.bytes, self.pos + 4, b"-->") {
                    Some(end) => self.pos = end + 3,
                    None => return Err(self.error("unterminated comment")),
                }
                continue;
            }
            match self.peek() {
                Some(b'<') => {
                    let child = self.parse_element()?;
                    element.push_child(child);
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'<' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("character data is not UTF-8"))?;
                    let text = unescape(raw).map_err(|m| self.error(m))?;
                    if !text.is_empty() {
                        element.push_text(text);
                    }
                }
                None => return Err(self.error(format!("missing end tag </{name}>"))),
            }
        }
    }
}

fn find(haystack: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|i| from + i)
}

/// Resolves the five predefined entities plus decimal/hex character
/// references.
fn unescape(text: &str) -> Result<String, String> {
    if !text.contains('&') {
        return Ok(text.to_owned());
    }
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let Some(semi) = rest.find(';') else {
            return Err("unterminated entity reference".to_owned());
        };
        let entity = &rest[1..semi];
        match entity {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16)
                    .map_err(|_| format!("bad character reference &{entity};"))?;
                out.push(
                    char::from_u32(code).ok_or_else(|| format!("invalid code point &{entity};"))?,
                );
            }
            _ if entity.starts_with('#') => {
                let code = entity[1..]
                    .parse::<u32>()
                    .map_err(|_| format!("bad character reference &{entity};"))?;
                out.push(
                    char::from_u32(code).ok_or_else(|| format!("invalid code point &{entity};"))?,
                );
            }
            _ => return Err(format!("unknown entity &{entity};")),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_nested_structure() {
        let root = parse(
            r#"<?xml version="1.0"?>
            <!-- a comment -->
            <op type="write">
                <tuple><field type="int">42</field></tuple>
            </op>"#,
        )
        .expect("valid document");
        assert_eq!(root.name(), "op");
        assert_eq!(root.attr("type"), Some("write"));
        let field = root
            .child_named("tuple")
            .and_then(|t| t.child_named("field"))
            .expect("nested field");
        assert_eq!(field.text(), "42");
    }

    #[test]
    fn self_closing_and_single_quotes() {
        let root = parse("<a x='1' y=\"2\"><b/><c /></a>").expect("valid");
        assert_eq!(root.attr("x"), Some("1"));
        assert_eq!(root.attr("y"), Some("2"));
        assert_eq!(root.child_elements().count(), 2);
    }

    #[test]
    fn entities_unescape() {
        let root = parse("<t a=\"&lt;&amp;&gt;\">&quot;x&apos; &#65;&#x42;</t>").expect("valid");
        assert_eq!(root.attr("a"), Some("<&>"));
        assert_eq!(root.text(), "\"x' AB");
    }

    #[test]
    fn comments_inside_content_are_skipped() {
        let root = parse("<t>a<!-- hidden <b></b> -->b</t>").expect("valid");
        assert_eq!(root.text(), "ab");
        assert_eq!(root.child_elements().count(), 0);
    }

    #[test]
    fn errors_carry_positions_and_reasons() {
        for (doc, needle) in [
            ("<a><b></a>", "mismatched end tag"),
            ("<a>", "missing end tag"),
            ("<a x=1/>", "quoted attribute"),
            ("<a>&bogus;</a>", "unknown entity"),
            ("<a/><b/>", "trailing content"),
            ("<1a/>", "expected a name"),
            ("plain text", "expected"),
        ] {
            let err = parse(doc).expect_err(doc);
            assert!(
                err.message.contains(needle),
                "{doc}: {} should mention {needle}",
                err.message
            );
        }
    }

    #[test]
    fn whitespace_only_text_is_dropped_between_elements() {
        let root = parse("<a>\n  <b/>\n</a>").expect("valid");
        // Whitespace text nodes survive only if non-empty after parse; we
        // keep them (they are real character data), so text() is whitespace.
        assert_eq!(root.child_elements().count(), 1);
    }

    proptest! {
        /// Serialize → parse is the identity for programmatically built
        /// single elements with arbitrary attribute values and text.
        #[test]
        fn roundtrip_attr_and_text(
            value in "[ -~]{0,32}", // printable ASCII incl. quotes & angles
            text in "[ -~]{0,32}",
        ) {
            let el = crate::dom::XmlElement::new("t")
                .with_attr("v", value.clone());
            let el = if text.is_empty() { el } else { el.with_text(text.clone()) };
            let parsed = parse(&el.to_xml()).expect("own output parses");
            prop_assert_eq!(parsed.attr("v"), Some(value.as_str()));
            prop_assert_eq!(parsed.text(), text);
        }

        /// The parser is total over arbitrary input: it returns a document
        /// or an error, never panics, and accepted documents re-serialize
        /// to something that parses to the same tree.
        #[test]
        fn parser_is_total(input in "\\PC{0,64}") {
            if let Ok(doc) = parse(&input) {
                let reparsed = parse(&doc.to_xml()).expect("own output parses");
                prop_assert_eq!(reparsed, doc);
            }
        }

        /// Deeply nested documents round-trip.
        #[test]
        fn roundtrip_nesting(depth in 1usize..20) {
            let mut el = crate::dom::XmlElement::new("leaf").with_text("x");
            for i in 0..depth {
                el = crate::dom::XmlElement::new(format!("n{i}")).with_child(el);
            }
            let parsed = parse(&el.to_xml()).expect("own output parses");
            prop_assert_eq!(parsed, el);
        }
    }
}
