//! Declarative parameter grids.
//!
//! A campaign sweeps the cartesian product of named axes — "CBR rate ×
//! wiring", "burst density × retry policy". [`Grid`] builds that product
//! in a deterministic order (row-major: the **last** axis added varies
//! fastest, like a nested `for` loop written in the same order), and each
//! resulting [`GridPoint`] renders a canonical key string that the result
//! cache hashes.

use std::fmt;

/// One coordinate value on an axis.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValue {
    /// An integer coordinate (wire count, message count…).
    I64(i64),
    /// A float coordinate (CBR rate, error probability…).
    F64(f64),
    /// A symbolic coordinate (wiring mode, policy name…).
    Str(String),
}

impl From<i64> for AxisValue {
    fn from(v: i64) -> Self {
        AxisValue::I64(v)
    }
}
impl From<u8> for AxisValue {
    fn from(v: u8) -> Self {
        AxisValue::I64(i64::from(v))
    }
}
impl From<u32> for AxisValue {
    fn from(v: u32) -> Self {
        AxisValue::I64(i64::from(v))
    }
}
impl From<f64> for AxisValue {
    fn from(v: f64) -> Self {
        AxisValue::F64(v)
    }
}
impl From<&str> for AxisValue {
    fn from(v: &str) -> Self {
        AxisValue::Str(v.to_owned())
    }
}
impl From<String> for AxisValue {
    fn from(v: String) -> Self {
        AxisValue::Str(v)
    }
}

impl fmt::Display for AxisValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxisValue::I64(v) => write!(f, "{v}"),
            AxisValue::F64(v) => write!(f, "{v:?}"),
            AxisValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// A cartesian product of named axes.
///
/// # Examples
///
/// ```
/// use tsbus_lab::grid::Grid;
///
/// let points = Grid::new()
///     .axis("wiring", ["1-wire", "2-wire"])
///     .axis("cbr", [0.0, 0.3])
///     .points();
/// assert_eq!(points.len(), 4);
/// // The last axis varies fastest:
/// assert_eq!(points[0].key(), "cbr=0.0,wiring=1-wire");
/// assert_eq!(points[1].key(), "cbr=0.3,wiring=1-wire");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Grid {
    axes: Vec<(String, Vec<AxisValue>)>,
}

impl Grid {
    /// An empty grid (one point with no coordinates).
    #[must_use]
    pub fn new() -> Self {
        Grid::default()
    }

    /// Adds an axis. Added later = varies faster in [`Grid::points`].
    ///
    /// # Panics
    ///
    /// Panics if the axis is empty or the name repeats an earlier axis.
    #[must_use]
    pub fn axis<V: Into<AxisValue>>(
        mut self,
        name: &str,
        values: impl IntoIterator<Item = V>,
    ) -> Self {
        assert!(
            !self.axes.iter().any(|(n, _)| n == name),
            "duplicate axis '{name}'"
        );
        let values: Vec<AxisValue> = values.into_iter().map(Into::into).collect();
        assert!(!values.is_empty(), "axis '{name}' has no values");
        self.axes.push((name.to_owned(), values));
        self
    }

    /// Enumerates every point of the product, row-major.
    #[must_use]
    pub fn points(&self) -> Vec<GridPoint> {
        let total: usize = self.axes.iter().map(|(_, v)| v.len()).product();
        let mut out = Vec::with_capacity(total);
        for mut ordinal in 0..total {
            let mut coords = Vec::with_capacity(self.axes.len());
            // Walk axes in reverse so the last-added axis varies fastest.
            for (name, values) in self.axes.iter().rev() {
                let idx = ordinal % values.len();
                ordinal /= values.len();
                coords.push((name.clone(), values[idx].clone()));
            }
            coords.reverse();
            out.push(GridPoint { coords });
        }
        out
    }
}

/// One point of a [`Grid`]: an ordered list of `(axis, value)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPoint {
    coords: Vec<(String, AxisValue)>,
}

impl GridPoint {
    /// The coordinate on `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the axis does not exist (a campaign programming error).
    #[must_use]
    pub(crate) fn coord(&self, axis: &str) -> &AxisValue {
        self.coords
            .iter()
            .find(|(n, _)| n == axis)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no axis '{axis}' in point {}", self.key()))
    }

    /// The float coordinate on `axis` (integers widen).
    ///
    /// # Panics
    ///
    /// Panics if the axis is missing or symbolic.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn f64(&self, axis: &str) -> f64 {
        match self.coord(axis) {
            AxisValue::F64(v) => *v,
            AxisValue::I64(v) => *v as f64,
            AxisValue::Str(s) => panic!("axis '{axis}' is symbolic ('{s}'), not numeric"),
        }
    }

    /// The integer coordinate on `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the axis is missing or not an integer.
    #[must_use]
    pub fn i64(&self, axis: &str) -> i64 {
        match self.coord(axis) {
            AxisValue::I64(v) => *v,
            other => panic!("axis '{axis}' is not an integer ({other})"),
        }
    }

    /// The symbolic coordinate on `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the axis is missing or not symbolic.
    #[must_use]
    pub fn str(&self, axis: &str) -> &str {
        match self.coord(axis) {
            AxisValue::Str(v) => v,
            other => panic!("axis '{axis}' is not symbolic ({other})"),
        }
    }

    /// The canonical config key: `axis=value` pairs sorted by axis name
    /// and joined with commas. Sorting makes the key independent of axis
    /// declaration order, so reordering `.axis()` calls does not
    /// invalidate a result cache.
    #[must_use]
    pub fn key(&self) -> String {
        let mut pairs: Vec<String> = self
            .coords
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        pairs.sort();
        pairs.join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_grid_has_one_point() {
        let points = Grid::new().points();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].key(), "");
    }

    #[test]
    fn product_order_is_row_major() {
        let points = Grid::new()
            .axis("a", [1i64, 2])
            .axis("b", ["x", "y", "z"])
            .points();
        assert_eq!(points.len(), 6);
        let keys: Vec<String> = points.iter().map(GridPoint::key).collect();
        assert_eq!(
            keys,
            ["a=1,b=x", "a=1,b=y", "a=1,b=z", "a=2,b=x", "a=2,b=y", "a=2,b=z"]
        );
    }

    #[test]
    fn key_is_order_independent() {
        let a = Grid::new().axis("x", [1i64]).axis("y", [2i64]).points();
        let b = Grid::new().axis("y", [2i64]).axis("x", [1i64]).points();
        assert_eq!(a[0].key(), b[0].key());
    }

    #[test]
    fn typed_getters() {
        let p = &Grid::new()
            .axis("n", [3i64])
            .axis("rate", [0.5])
            .axis("mode", ["fast"])
            .points()[0];
        assert_eq!(p.i64("n"), 3);
        assert!((p.f64("rate") - 0.5).abs() < f64::EPSILON);
        assert_eq!(p.str("mode"), "fast");
        assert!((p.f64("n") - 3.0).abs() < f64::EPSILON);
    }

    #[test]
    #[should_panic(expected = "duplicate axis")]
    fn duplicate_axis_rejected() {
        let _ = Grid::new().axis("a", [1i64]).axis("a", [2i64]);
    }

    #[test]
    #[should_panic(expected = "no axis")]
    fn missing_axis_panics() {
        let _ = Grid::new().axis("a", [1i64]).points()[0].f64("b");
    }

    #[test]
    fn float_keys_are_canonical() {
        let p = &Grid::new().axis("r", [0.1 + 0.2]).points()[0];
        assert_eq!(p.key(), "r=0.30000000000000004");
    }
}
