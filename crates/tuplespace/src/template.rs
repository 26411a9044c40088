//! Templates (anti-tuples) and associative matching.
//!
//! A template has the same shape as a tuple, but each position is a
//! [`Pattern`]: an exact value, a typed wildcard, or an untyped wildcard.
//! A tuple matches a template when arities are equal and every pattern
//! accepts the corresponding field — the Linda/JavaSpaces matching rule.

use core::fmt;

use crate::tuple::Tuple;
use crate::value::{Value, ValueType};

/// One position of a [`Template`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Matches exactly this value (type and content).
    Exact(Value),
    /// Matches any value of the given type (a JavaSpaces `null` field with
    /// a typed slot).
    AnyOfType(ValueType),
    /// Matches any value of any type.
    Wildcard,
}

impl Pattern {
    /// Whether this pattern accepts `value`.
    #[must_use]
    pub fn accepts(&self, value: &Value) -> bool {
        match self {
            Pattern::Exact(expected) => expected == value,
            Pattern::AnyOfType(vt) => value.type_of() == *vt,
            Pattern::Wildcard => true,
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Exact(v) => write!(f, "{v}"),
            Pattern::AnyOfType(vt) => write!(f, "?{vt}"),
            Pattern::Wildcard => write!(f, "?"),
        }
    }
}

impl From<Value> for Pattern {
    fn from(v: Value) -> Self {
        Pattern::Exact(v)
    }
}

impl From<ValueType> for Pattern {
    fn from(vt: ValueType) -> Self {
        Pattern::AnyOfType(vt)
    }
}

/// An anti-tuple used to address tuples associatively.
///
/// # Examples
///
/// ```
/// use tsbus_tuplespace::{template, tuple, Pattern, Template, ValueType};
///
/// // Match any 3-field tuple tagged "reading" whose 2nd field is an int.
/// let t = template!["reading", ValueType::Int, Pattern::Wildcard];
/// assert!(t.matches(&tuple!["reading", 7, "celsius"]));
/// assert!(!t.matches(&tuple!["reading", "seven", "celsius"]));
/// assert!(!t.matches(&tuple!["reading", 7]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Template {
    patterns: Vec<Pattern>,
}

impl Template {
    /// Creates a template from patterns.
    #[must_use]
    pub fn new(patterns: Vec<Pattern>) -> Self {
        Template { patterns }
    }

    /// A template matching exactly `tuple` (every position [`Pattern::Exact`]).
    #[must_use]
    pub fn exact(tuple: &Tuple) -> Self {
        Template {
            patterns: tuple.iter().cloned().map(Pattern::Exact).collect(),
        }
    }

    /// A template of `arity` untyped wildcards — matches any tuple of that
    /// arity.
    #[must_use]
    pub fn any(arity: usize) -> Self {
        Template {
            patterns: vec![Pattern::Wildcard; arity],
        }
    }

    /// Number of positions.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.patterns.len()
    }

    /// The patterns in order.
    #[must_use]
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// The Linda matching rule: equal arity, and every pattern accepts its
    /// field.
    #[must_use]
    pub fn matches(&self, tuple: &Tuple) -> bool {
        self.patterns.len() == tuple.arity()
            && self
                .patterns
                .iter()
                .zip(tuple.iter())
                .all(|(pattern, value)| pattern.accepts(value))
    }
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.patterns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<Pattern> for Template {
    fn from_iter<I: IntoIterator<Item = Pattern>>(iter: I) -> Self {
        Template::new(iter.into_iter().collect())
    }
}

/// Builds a [`Template`] from pattern expressions.
///
/// Each position accepts anything convertible into a [`Pattern`]: a value
/// (exact match), a [`ValueType`] (typed wildcard), or
/// [`Pattern::Wildcard`].
///
/// # Examples
///
/// ```
/// use tsbus_tuplespace::{template, tuple, Pattern, ValueType};
///
/// let t = template!["job", ValueType::Int, Pattern::Wildcard];
/// assert!(t.matches(&tuple!["job", 5, 1.25]));
/// ```
#[macro_export]
macro_rules! template {
    () => {
        $crate::Template::new(vec![])
    };
    ($($pattern:expr),+ $(,)?) => {
        $crate::Template::new(vec![$($crate::IntoPattern::into_pattern($pattern)),+])
    };
}

/// Conversion into a [`Pattern`], used by the [`template!`] macro so that
/// plain values, [`ValueType`]s and explicit [`Pattern`]s can be mixed
/// freely.
pub trait IntoPattern {
    /// Converts `self` into a pattern.
    fn into_pattern(self) -> Pattern;
}

impl IntoPattern for Pattern {
    fn into_pattern(self) -> Pattern {
        self
    }
}

impl IntoPattern for ValueType {
    fn into_pattern(self) -> Pattern {
        Pattern::AnyOfType(self)
    }
}

impl<T: Into<Value>> IntoPattern for T {
    fn into_pattern(self) -> Pattern {
        Pattern::Exact(self.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use proptest::prelude::*;

    #[test]
    fn exact_template_matches_only_its_tuple() {
        let t = tuple!["a", 1];
        let tpl = Template::exact(&t);
        assert!(tpl.matches(&t));
        assert!(!tpl.matches(&tuple!["a", 2]));
        assert!(!tpl.matches(&tuple!["a", 1, 0]));
    }

    #[test]
    fn wildcards_ignore_content_but_not_arity() {
        let tpl = Template::any(2);
        assert!(tpl.matches(&tuple![1, 2]));
        assert!(tpl.matches(&tuple!["x", true]));
        assert!(!tpl.matches(&tuple![1]));
        assert!(!tpl.matches(&tuple![1, 2, 3]));
    }

    #[test]
    fn typed_wildcards_check_type_only() {
        let tpl = template![ValueType::Int, ValueType::Str];
        assert!(tpl.matches(&tuple![5, "x"]));
        assert!(!tpl.matches(&tuple![5.0, "x"]));
        assert!(!tpl.matches(&tuple!["x", 5]));
    }

    #[test]
    fn empty_template_matches_empty_tuple() {
        let tpl = template![];
        assert!(tpl.matches(&tuple![]));
        assert!(!tpl.matches(&tuple![1]));
    }

    #[test]
    fn mixed_patterns_compose() {
        let tpl = template!["job", ValueType::Int, Pattern::Wildcard];
        assert!(tpl.matches(&tuple!["job", 1, 2.5]));
        assert!(tpl.matches(&tuple!["job", 1, vec![1u8, 2]]));
        assert!(!tpl.matches(&tuple!["task", 1, 2.5]));
        assert!(!tpl.matches(&tuple!["job", "1", 2.5]));
    }

    #[test]
    fn display_marks_wildcards() {
        let tpl = template!["a", ValueType::Int, Pattern::Wildcard];
        assert_eq!(tpl.to_string(), "(\"a\", ?int, ?)");
    }

    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            "[a-z]{0,8}".prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
            proptest::collection::vec(any::<u8>(), 0..8).prop_map(Value::Bytes),
        ]
    }

    proptest! {
        /// Every tuple matches its own exact template.
        #[test]
        fn exact_template_is_reflexive(
            fields in proptest::collection::vec(value_strategy(), 0..6)
        ) {
            let t = Tuple::new(fields);
            prop_assert!(Template::exact(&t).matches(&t));
        }

        /// The all-wildcard template of the right arity matches everything.
        #[test]
        fn any_template_matches_same_arity(
            fields in proptest::collection::vec(value_strategy(), 0..6)
        ) {
            let t = Tuple::new(fields);
            prop_assert!(Template::any(t.arity()).matches(&t));
            prop_assert!(!Template::any(t.arity() + 1).matches(&t));
        }

        /// Typed wildcards accept exactly the values whose type matches.
        #[test]
        fn typed_wildcard_agrees_with_type_of(v in value_strategy()) {
            let t = Tuple::new(vec![v.clone()]);
            for vt in [ValueType::Int, ValueType::Float, ValueType::Str,
                       ValueType::Bool, ValueType::Bytes] {
                let tpl = Template::new(vec![Pattern::AnyOfType(vt)]);
                prop_assert_eq!(tpl.matches(&t), v.type_of() == vt);
            }
        }

        /// Weakening one exact position to a wildcard never stops a match.
        #[test]
        fn weakening_preserves_matches(
            fields in proptest::collection::vec(value_strategy(), 1..6),
            pos in 0usize..6,
        ) {
            let t = Tuple::new(fields);
            let pos = pos % t.arity();
            let mut patterns: Vec<Pattern> =
                t.iter().cloned().map(Pattern::Exact).collect();
            patterns[pos] = Pattern::Wildcard;
            prop_assert!(Template::new(patterns).matches(&t));
        }
    }
}
