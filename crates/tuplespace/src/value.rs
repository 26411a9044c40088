//! Typed tuple fields.

use core::fmt;

/// The type tag of a [`Value`] — used by templates that match "any value of
/// this type".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
    /// Raw byte vector.
    Bytes,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl ValueType {
    /// The lowercase name, as [`Display`](fmt::Display) writes it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Str => "str",
            ValueType::Bool => "bool",
            ValueType::Bytes => "bytes",
        }
    }

    /// Parses the lowercase name produced by [`name`](Self::name).
    #[must_use]
    pub fn from_name(name: &str) -> Option<ValueType> {
        match name {
            "int" => Some(ValueType::Int),
            "float" => Some(ValueType::Float),
            "str" => Some(ValueType::Str),
            "bool" => Some(ValueType::Bool),
            "bytes" => Some(ValueType::Bytes),
            _ => None,
        }
    }
}

/// One typed field of a tuple.
///
/// Equality is *exact*: floats compare by bit pattern (so `NaN == NaN` for
/// matching purposes and `-0.0 != 0.0`), which keeps associative matching a
/// proper equivalence relation.
///
/// # Examples
///
/// ```
/// use tsbus_tuplespace::Value;
///
/// let v: Value = "temperature".into();
/// assert_eq!(v.type_of().to_string(), "str");
/// assert_eq!(v, Value::Str("temperature".to_owned()));
/// ```
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float (compared by bit pattern).
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Raw byte vector.
    Bytes(Vec<u8>),
}

impl Value {
    /// The type tag of this value.
    #[must_use]
    pub fn type_of(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Str(_) => ValueType::Str,
            Value::Bool(_) => ValueType::Bool,
            Value::Bytes(_) => ValueType::Bytes,
        }
    }

    /// The integer inside, if this is an [`Value::Int`].
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The string inside, if this is a [`Value::Str`].
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The bytes inside, if this is a [`Value::Bytes`].
    #[must_use]
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(v) => Some(v),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Bytes(a), Value::Bytes(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            Value::Int(v) => v.hash(state),
            Value::Float(v) => v.to_bits().hash(state),
            Value::Str(v) => v.hash(state),
            Value::Bool(v) => v.hash(state),
            Value::Bytes(v) => v.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v:?}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Bytes(v) => write!(f, "bytes[{}]", v.len()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_tags_match_variants() {
        assert_eq!(Value::Int(1).type_of(), ValueType::Int);
        assert_eq!(Value::Float(1.0).type_of(), ValueType::Float);
        assert_eq!(Value::from("x").type_of(), ValueType::Str);
        assert_eq!(Value::Bool(true).type_of(), ValueType::Bool);
        assert_eq!(Value::Bytes(vec![1]).type_of(), ValueType::Bytes);
    }

    #[test]
    fn float_equality_is_bitwise() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(Value::Float(1.5), Value::Float(1.5));
    }

    #[test]
    fn cross_type_values_never_equal() {
        assert_ne!(Value::Int(1), Value::Float(1.0));
        assert_ne!(Value::from("true"), Value::Bool(true));
        assert_ne!(Value::Bytes(vec![49]), Value::from("1"));
    }

    #[test]
    fn accessors_return_only_their_variant() {
        let v = Value::Int(7);
        assert_eq!(v.as_int(), Some(7));
        assert_eq!(v.as_str(), None);
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert_eq!(Value::Bool(true).as_int(), None);
        assert_eq!(Value::Bytes(vec![9]).as_bytes(), Some(&[9u8][..]));
    }

    #[test]
    fn value_type_names_roundtrip() {
        for vt in [
            ValueType::Int,
            ValueType::Float,
            ValueType::Str,
            ValueType::Bool,
            ValueType::Bytes,
        ] {
            assert_eq!(ValueType::from_name(&vt.to_string()), Some(vt));
        }
        assert_eq!(ValueType::from_name("nope"), None);
    }

    #[test]
    fn conversions_produce_expected_variants() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(Value::from(String::from("a")), Value::from("a"));
    }
}
