//! Tuples — ordered vectors of typed fields — and the [`tuple!`](macro@crate::tuple) macro.

use core::fmt;

use crate::value::Value;

/// An ordered, non-empty-or-empty vector of typed fields: the unit of
/// communication in a tuplespace.
///
/// # Examples
///
/// ```
/// use tsbus_tuplespace::{tuple, Tuple, Value};
///
/// let t = tuple!["sensor", 42, 23.5];
/// assert_eq!(t.arity(), 3);
/// assert_eq!(t.field(0), Some(&Value::from("sensor")));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Tuple {
    fields: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple from owned fields.
    #[must_use]
    pub fn new(fields: Vec<Value>) -> Self {
        Tuple { fields }
    }

    /// The empty tuple (rarely useful, but legal).
    #[must_use]
    pub fn empty() -> Self {
        Tuple { fields: Vec::new() }
    }

    /// Number of fields.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Whether the tuple has no fields.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The field at `index`, if present.
    #[must_use]
    pub fn field(&self, index: usize) -> Option<&Value> {
        self.fields.get(index)
    }

    /// All fields in order.
    #[must_use]
    pub fn fields(&self) -> &[Value] {
        &self.fields
    }

    /// Consumes the tuple, returning its fields.
    #[must_use]
    pub fn into_fields(self) -> Vec<Value> {
        self.fields
    }

    /// Iterates over the fields.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.fields.iter()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{field}")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple::new(iter.into_iter().collect())
    }
}

impl Extend<Value> for Tuple {
    fn extend<I: IntoIterator<Item = Value>>(&mut self, iter: I) {
        self.fields.extend(iter);
    }
}

impl IntoIterator for Tuple {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.fields.into_iter()
    }
}

impl<'a> IntoIterator for &'a Tuple {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.fields.iter()
    }
}

/// Builds a [`Tuple`] from field expressions, each convertible into a
/// [`Value`].
///
/// # Examples
///
/// ```
/// use tsbus_tuplespace::{tuple, Value};
///
/// let t = tuple!["fft-request", 1024, true];
/// assert_eq!(t.field(1), Some(&Value::Int(1024)));
/// let empty = tuple![];
/// assert!(empty.is_empty());
/// ```
#[macro_export]
macro_rules! tuple {
    () => {
        $crate::Tuple::empty()
    };
    ($($field:expr),+ $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($field)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_builds_in_order() {
        let t = tuple!["a", 1, 2.0, false];
        assert_eq!(t.arity(), 4);
        assert_eq!(t.field(0), Some(&Value::from("a")));
        assert_eq!(t.field(1), Some(&Value::Int(1)));
        assert_eq!(t.field(2), Some(&Value::Float(2.0)));
        assert_eq!(t.field(3), Some(&Value::Bool(false)));
        assert_eq!(t.field(4), None);
    }

    #[test]
    fn macro_works_in_function_scope_and_with_trailing_comma() {
        let t = tuple![1, 2,];
        assert_eq!(t.arity(), 2);
    }

    #[test]
    fn collect_and_extend() {
        let mut t: Tuple = vec![Value::Int(1), Value::Int(2)].into_iter().collect();
        t.extend([Value::from("x")]);
        assert_eq!(t.arity(), 3);
        let values: Vec<Value> = t.clone().into_iter().collect();
        assert_eq!(values.len(), 3);
        assert_eq!(t.into_fields().len(), 3);
    }

    #[test]
    fn display_is_parenthesized() {
        let t = tuple!["s", 1];
        assert_eq!(t.to_string(), "(\"s\", 1)");
        assert_eq!(tuple![].to_string(), "()");
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(tuple![1, "a"], tuple![1, "a"]);
        assert_ne!(tuple![1, "a"], tuple!["a", 1]);
        assert_ne!(tuple![1], tuple![1, 1]);
    }
}
