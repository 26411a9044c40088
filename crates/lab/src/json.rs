//! A minimal, canonical JSON value — encoder and parser.
//!
//! The campaign cache and the JSONL/CSV emitters need a JSON round trip,
//! and the workspace vendors its dependencies (no serde). This module
//! implements exactly the subset the lab needs, with one extra guarantee
//! serde does not give: **canonical encoding**. A [`Json`] value always
//! encodes to the same byte string (object order is preserved as built,
//! floats use Rust's shortest round-trip formatting), which is what lets
//! campaign outputs be compared byte-for-byte across thread counts and
//! lets config hashes key the result cache.
//!
//! Non-finite floats (a completion time of `NaN` when nothing arrived)
//! encode as `null` and decode back as `NaN`.

use std::fmt::Write as _;

/// A JSON value. Object member order is significant (insertion order is
/// preserved), which keeps the encoding canonical.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept separate from floats so counters survive the
    /// round trip exactly).
    I64(i64),
    /// A float; non-finite values encode as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with preserved member order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::I64(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        // Counters in this workspace are far below 2^63; saturate rather
        // than wrap if one ever is not.
        Json::I64(i64::try_from(v).unwrap_or(i64::MAX))
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl Json {
    /// The value as an `f64` (integers widen, `null` reads as `NaN`).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            #[allow(clippy::cast_precision_loss)]
            Json::I64(v) => Some(*v as f64),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as an `i64`.
    #[must_use]
    pub(crate) fn as_i64(&self) -> Option<i64> {
        match self {
            Json::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a `bool`.
    #[must_use]
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Looks up a member of an object.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Encodes to the canonical (single-line, no-whitespace) JSON string.
    ///
    /// # Examples
    ///
    /// ```
    /// use tsbus_lab::json::Json;
    ///
    /// let v = Json::Obj(vec![
    ///     ("cbr".into(), Json::F64(0.5)),
    ///     ("oot".into(), Json::Bool(true)),
    /// ]);
    /// assert_eq!(v.encode(), r#"{"cbr":0.5,"oot":true}"#);
    /// ```
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // `{:?}` is the shortest representation that parses
                    // back to the same bits — canonical and lossless.
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => encode_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_str(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (the value plus optional surrounding
    /// whitespace).
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }
}

fn encode_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not needed for the
                            // lab's own output (it never emits them).
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if is_float {
            text.parse::<f64>()
                .map(Json::F64)
                .map_err(|e| format!("bad number '{text}': {e}"))
        } else {
            text.parse::<i64>()
                .map(Json::I64)
                .map_err(|e| format!("bad number '{text}': {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "-17", "0.5", "1e3"] {
            let v = Json::parse(text).expect(text);
            let again = Json::parse(&v.encode()).expect("re-parse");
            assert_eq!(v, again, "{text}");
        }
    }

    #[test]
    fn round_trips_structures() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::I64(1), Json::Null])),
            ("b \"q\"".into(), Json::Str("x\ny".into())),
            ("c".into(), Json::F64(0.1)),
        ]);
        assert_eq!(Json::parse(&v.encode()).unwrap(), v);
    }

    #[test]
    fn canonical_float_formatting() {
        assert_eq!(Json::F64(1.0).encode(), "1.0");
        assert_eq!(
            Json::F64(0.30000000000000004).encode(),
            "0.30000000000000004"
        );
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        assert_eq!(Json::F64(f64::NAN).encode(), "null");
        assert_eq!(Json::F64(f64::INFINITY).encode(), "null");
        let back = Json::parse("null").unwrap();
        assert!(back.as_f64().unwrap().is_nan());
    }

    #[test]
    fn integers_survive_exactly() {
        let v = Json::parse("9007199254740993").unwrap(); // 2^53 + 1
        assert_eq!(v.as_i64(), Some(9_007_199_254_740_993));
        assert_eq!(v.encode(), "9007199254740993");
    }

    #[test]
    fn object_lookup() {
        let v = Json::parse(r#"{"x": 1, "y": "z"}"#).unwrap();
        assert_eq!(v.get("x").and_then(Json::as_i64), Some(1));
        assert_eq!(v.get("y").and_then(Json::as_str), Some("z"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
    }
}
