//! A small XML document model: elements with attributes, text and child
//! elements — the subset the wire protocol needs (no namespaces, CDATA or
//! processing instructions beyond the prolog). Test-only: the reference
//! parser builds it and the reference walk reads it (the decoders' oracle),
//! and the reference encoder builds it and serializes it (the writer's
//! oracle).

use std::borrow::Cow;

use crate::codec::escape_into;

/// A node in an element's child list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum XmlNode {
    /// A child element.
    Element(XmlElement),
    /// A run of character data (already unescaped).
    Text(String),
}

/// An XML element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct XmlElement {
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
    pub(crate) fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(is_valid_name(&name), "invalid XML element name {name:?}");
        XmlElement {
            name,
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// The parser's constructor: `name` was lexed with the name grammar,
    /// so it is not checked again.
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
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// The attributes, in document order.
    pub(crate) fn attributes(&self) -> &[(String, String)] {
        &self.attributes
    }

    /// The child nodes, in document order.
    pub(crate) fn children(&self) -> &[XmlNode] {
        &self.children
    }

    /// Adds an attribute (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `key` is not a valid XML name.
    pub(crate) fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        let key = key.into();
        assert!(is_valid_name(&key), "invalid XML attribute name {key:?}");
        self.attributes.push((key, value.into()));
        self
    }

    /// Adds a child element (builder style).
    pub(crate) fn with_child(mut self, child: XmlElement) -> Self {
        self.children.push(XmlNode::Element(child));
        self
    }

    /// Adds a text child (builder style).
    pub(crate) fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(XmlNode::Text(text.into()));
        self
    }

    /// Appends a child element.
    pub(crate) fn push_child(&mut self, child: XmlElement) {
        self.children.push(XmlNode::Element(child));
    }

    /// The value of the first attribute named `key`, if present.
    pub(crate) fn attr(&self, key: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Child elements, in document order.
    pub(crate) fn child_elements(&self) -> impl Iterator<Item = &XmlElement> {
        self.children.iter().filter_map(|node| match node {
            XmlNode::Element(el) => Some(el),
            XmlNode::Text(_) => None,
        })
    }

    /// The first child element with the given name.
    pub(crate) fn child_named(&self, name: &str) -> Option<&XmlElement> {
        self.child_elements().find(|el| el.name == name)
    }

    /// The concatenated text content of this element (direct text children
    /// only).
    pub(crate) fn text(&self) -> String {
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
    pub(crate) fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
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

/// Whether `name` is acceptable as an element or attribute name in this
/// subset (the grammar the parser lexes names with).
fn is_valid_name(name: &str) -> bool {
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
        let mut escaped = String::from("kept:");
        escape_into(r#"<a & "b'>"#, &mut escaped);
        assert_eq!(escaped, "kept:&lt;a &amp; &quot;b&apos;&gt;");
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
