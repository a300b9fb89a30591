//! Typed, nullable column storage.
//!
//! A [`Column`] is one of four typed vectors with per-cell nullability.
//! Nulls are represented with `Option` rather than a validity bitmap: the
//! frames produced by the culinary analyses are small (thousands of rows),
//! so clarity wins over bit-packing.

use crate::value::Value;

/// A typed, nullable column of cells.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Integer column.
    Int(Vec<Option<i64>>),
    /// Float column. NaN cells are normalized to null on insertion.
    Float(Vec<Option<f64>>),
    /// String column.
    Str(Vec<Option<String>>),
    /// Boolean column.
    Bool(Vec<Option<bool>>),
}

impl Column {
    /// Build a non-null integer column.
    pub fn from_i64s(vals: &[i64]) -> Self {
        Column::Int(vals.iter().copied().map(Some).collect())
    }

    /// Build a non-null float column. NaNs become null.
    pub fn from_f64s(vals: &[f64]) -> Self {
        Column::Float(
            vals.iter()
                .map(|&v| if v.is_nan() { None } else { Some(v) })
                .collect(),
        )
    }

    /// Build a non-null string column.
    pub fn from_strs(vals: &[&str]) -> Self {
        Column::Str(vals.iter().map(|s| Some((*s).to_owned())).collect())
    }

    /// Number of cells (including nulls).
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Bool(v) => v.len(),
        }
    }

    /// True if the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cell at `row` as a dynamic [`Value`], or `None` if out of bounds.
    pub fn get(&self, row: usize) -> Option<Value> {
        if row >= self.len() {
            return None;
        }
        Some(match self {
            Column::Int(v) => v[row].map(Value::Int).unwrap_or(Value::Null),
            Column::Float(v) => v[row].map(Value::Float).unwrap_or(Value::Null),
            Column::Str(v) => v[row]
                .as_ref()
                .map(|s| Value::Str(s.clone()))
                .unwrap_or(Value::Null),
            Column::Bool(v) => v[row].map(Value::Bool).unwrap_or(Value::Null),
        })
    }

    /// Iterate over all cells as dynamic [`Value`]s.
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i).expect("index in range"))
    }

    /// Numeric view: each cell as `f64` (ints widened, nulls and
    /// non-numerics skipped). Useful for aggregations.
    pub fn iter_numeric(&self) -> impl Iterator<Item = f64> + '_ {
        self.iter_values().filter_map(|v| v.as_float())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_len() {
        assert_eq!(Column::from_i64s(&[1, 2, 3]).len(), 3);
        assert_eq!(Column::from_f64s(&[1.0]).len(), 1);
        assert_eq!(Column::from_strs(&["a", "b"]).len(), 2);
        assert!(Column::Int(Vec::new()).is_empty());
    }

    #[test]
    fn nan_normalized_to_null() {
        let c = Column::from_f64s(&[1.0, f64::NAN, 2.0]);
        assert_eq!(c, Column::Float(vec![Some(1.0), None, Some(2.0)]));
        assert_eq!(c.get(1), Some(Value::Null));
    }

    #[test]
    fn get_and_out_of_bounds() {
        let c = Column::from_i64s(&[10, 20]);
        assert_eq!(c.get(0), Some(Value::Int(10)));
        assert_eq!(c.get(2), None);
    }

    #[test]
    fn numeric_iter_skips_nulls() {
        let c = Column::Float(vec![Some(1.0), None, Some(3.0)]);
        let vals: Vec<f64> = c.iter_numeric().collect();
        assert_eq!(vals, vec![1.0, 3.0]);
    }

    #[test]
    fn numeric_iter_widens_ints() {
        let c = Column::from_i64s(&[2, 4]);
        let vals: Vec<f64> = c.iter_numeric().collect();
        assert_eq!(vals, vec![2.0, 4.0]);
    }
}
