//! A small XML document model: elements with attributes, text and child
//! elements — the subset the wire protocol needs (no namespaces, CDATA or
//! processing instructions beyond the prolog).

use core::fmt;
use std::borrow::Cow;

/// A node in an element's child list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    /// A child element.
    Element(XmlElement),
    /// A run of character data (already unescaped).
    Text(String),
}

/// An XML element.
///
/// # Examples
///
/// ```
/// use tsbus_xmlwire::XmlElement;
///
/// let el = XmlElement::new("field")
///     .with_attr("type", "int")
///     .with_text("42");
/// assert_eq!(el.to_xml(), r#"<field type="int">42</field>"#);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct XmlElement {
    name: String,
    attributes: Vec<(String, String)>,
    children: Vec<XmlNode>,
}

impl XmlElement {
    /// Creates an empty element.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid XML name (must start with a letter
    /// or `_`, continue with letters, digits, `-`, `_`, `.`).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(is_valid_name(&name), "invalid XML element name {name:?}");
        XmlElement {
            name,
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// The parser's constructor: `name` was lexed with the same grammar
    /// [`is_valid_name`] checks, so it is not checked again.
    pub(crate) fn from_lexed_name(name: &str) -> Self {
        XmlElement {
            name: name.to_owned(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Appends an attribute whose `key` the parser lexed as a name.
    pub(crate) fn push_lexed_attr(&mut self, key: &str, value: String) {
        self.attributes.push((key.to_owned(), value));
    }

    /// Appends a text child.
    pub(crate) fn push_text(&mut self, text: String) {
        self.children.push(XmlNode::Text(text));
    }

    /// The element name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an attribute (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `key` is not a valid XML name.
    #[must_use]
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        let key = key.into();
        assert!(is_valid_name(&key), "invalid XML attribute name {key:?}");
        self.attributes.push((key, value.into()));
        self
    }

    /// Adds a child element (builder style).
    #[must_use]
    pub fn with_child(mut self, child: XmlElement) -> Self {
        self.children.push(XmlNode::Element(child));
        self
    }

    /// Adds a text child (builder style).
    #[must_use]
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(XmlNode::Text(text.into()));
        self
    }

    /// Appends a child element.
    pub fn push_child(&mut self, child: XmlElement) {
        self.children.push(XmlNode::Element(child));
    }

    /// The value of the first attribute named `key`, if present.
    #[must_use]
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// All attributes, in document order.
    #[must_use]
    pub fn attrs(&self) -> &[(String, String)] {
        &self.attributes
    }

    /// All child nodes, in document order.
    #[must_use]
    pub fn children(&self) -> &[XmlNode] {
        &self.children
    }

    /// Child elements, in document order.
    pub fn child_elements(&self) -> impl Iterator<Item = &XmlElement> {
        self.children.iter().filter_map(|node| match node {
            XmlNode::Element(el) => Some(el),
            XmlNode::Text(_) => None,
        })
    }

    /// Child elements with the given name.
    pub fn children_named<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = &'a XmlElement> + 'a {
        self.child_elements().filter(move |el| el.name == name)
    }

    /// The first child element with the given name.
    #[must_use]
    pub fn child_named(&self, name: &str) -> Option<&XmlElement> {
        self.child_elements().find(|el| el.name == name)
    }

    /// The concatenated text content of this element (direct text children
    /// only).
    #[must_use]
    pub fn text(&self) -> String {
        let mut out = String::new();
        for node in &self.children {
            if let XmlNode::Text(t) = node {
                out.push_str(t);
            }
        }
        out
    }

    /// [`text`](Self::text) without the copy when the content is at most
    /// one text node, the shape of every protocol leaf.
    pub(crate) fn text_cow(&self) -> Cow<'_, str> {
        match self.children.as_slice() {
            [] => Cow::Borrowed(""),
            [XmlNode::Text(text)] => Cow::Borrowed(text),
            _ => Cow::Owned(self.text()),
        }
    }

    /// Serializes to a compact XML string (no whitespace between tags).
    #[must_use]
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    /// Serializes with two-space indentation — for logs and documentation,
    /// not the wire (the extra whitespace would count as character data).
    #[must_use]
    pub fn to_xml_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        out.push_str(&pad);
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attributes {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape(v));
            out.push('"');
        }
        if self.children.is_empty() {
            out.push_str("/>\n");
            return;
        }
        // Elements with only text children stay on one line.
        let only_text = self.children.iter().all(|c| matches!(c, XmlNode::Text(_)));
        if only_text {
            out.push('>');
            for child in &self.children {
                if let XmlNode::Text(t) = child {
                    out.push_str(&escape(t));
                }
            }
            out.push_str("</");
            out.push_str(&self.name);
            out.push_str(">\n");
            return;
        }
        out.push_str(">\n");
        for child in &self.children {
            match child {
                XmlNode::Element(el) => el.write_pretty(out, depth + 1),
                XmlNode::Text(t) => {
                    if !t.trim().is_empty() {
                        out.push_str(&"  ".repeat(depth + 1));
                        out.push_str(&escape(t));
                        out.push('\n');
                    }
                }
            }
        }
        out.push_str(&pad);
        out.push_str("</");
        out.push_str(&self.name);
        out.push_str(">\n");
    }

    fn write_into(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attributes {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            escape_into(v, out);
            out.push('"');
        }
        if self.children.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for child in &self.children {
            match child {
                XmlNode::Element(el) => el.write_into(out),
                XmlNode::Text(t) => escape_into(t, out),
            }
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }
}

impl fmt::Display for XmlElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

/// Escapes the five predefined XML entities.
#[must_use]
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    escape_into(text, &mut out);
    out
}

/// Appends `text` to `out` with the five predefined entities escaped —
/// the serializers' allocation-free workhorse.
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

/// Whether `name` is acceptable as an element or attribute name in this
/// subset.
#[must_use]
pub fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_expected_serialization() {
        let el = XmlElement::new("op")
            .with_attr("type", "write")
            .with_child(XmlElement::new("tuple").with_text("x"))
            .with_child(XmlElement::new("lease"));
        assert_eq!(
            el.to_xml(),
            r#"<op type="write"><tuple>x</tuple><lease/></op>"#
        );
    }

    #[test]
    fn escaping_covers_the_five_entities() {
        assert_eq!(escape(r#"<a & "b'>"#), "&lt;a &amp; &quot;b&apos;&gt;");
        let el = XmlElement::new("t").with_text("<&>");
        assert_eq!(el.to_xml(), "<t>&lt;&amp;&gt;</t>");
        let el = XmlElement::new("t").with_attr("v", "a\"b");
        assert_eq!(el.to_xml(), r#"<t v="a&quot;b"/>"#);
    }

    #[test]
    fn accessors_navigate_the_tree() {
        let el = XmlElement::new("root")
            .with_attr("a", "1")
            .with_child(XmlElement::new("x").with_text("one"))
            .with_child(XmlElement::new("y"))
            .with_child(XmlElement::new("x").with_text("two"));
        assert_eq!(el.attr("a"), Some("1"));
        assert_eq!(el.attr("b"), None);
        assert_eq!(el.children_named("x").count(), 2);
        assert_eq!(el.child_named("y").map(XmlElement::name), Some("y"));
        assert_eq!(
            el.child_named("x").map(XmlElement::text),
            Some("one".into())
        );
        assert_eq!(el.child_elements().count(), 3);
    }

    #[test]
    fn text_concatenates_direct_text_children() {
        let el = XmlElement::new("t")
            .with_text("a")
            .with_child(XmlElement::new("i").with_text("skip"))
            .with_text("b");
        assert_eq!(el.text(), "ab");
    }

    #[test]
    fn pretty_printer_indents_and_inlines_text() {
        let el = XmlElement::new("op").with_attr("type", "write").with_child(
            XmlElement::new("tuple").with_child(
                XmlElement::new("field")
                    .with_attr("type", "int")
                    .with_text("42"),
            ),
        );
        let pretty = el.to_xml_pretty();
        let expected = "<op type=\"write\">\n  <tuple>\n    <field type=\"int\">42</field>\n  </tuple>\n</op>\n";
        assert_eq!(pretty, expected);
        // Pretty output parses back to the same structure (whitespace-only
        // text between elements is dropped by our parser? No — it is kept;
        // so compare via compact serialization of a reparse of the COMPACT
        // form instead; the pretty form is for humans.)
        assert_eq!(
            crate::parser::parse(&el.to_xml()).expect("compact parses"),
            el
        );
    }

    #[test]
    fn name_validation() {
        assert!(is_valid_name("op"));
        assert!(is_valid_name("_x-1.y"));
        assert!(!is_valid_name(""));
        assert!(!is_valid_name("1bad"));
        assert!(!is_valid_name("has space"));
        assert!(!is_valid_name("emoji😀"));
    }

    #[test]
    #[should_panic(expected = "invalid XML element name")]
    fn invalid_names_panic() {
        let _ = XmlElement::new("two words");
    }
}
