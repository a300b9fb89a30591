//! The [`Frame`]: an ordered collection of named, equal-length columns.

use std::collections::HashMap;

use crate::column::Column;
use crate::error::{Result, TabularError};
use crate::value::Value;

/// A columnar data-frame.
///
/// Invariants maintained by every operation:
/// * column names are unique;
/// * all columns have the same length (`n_rows`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Frame {
    names: Vec<String>,
    columns: Vec<Column>,
    /// name → position in `columns`; kept in sync with `names`.
    index: HashMap<String, usize>,
}

impl Frame {
    /// An empty frame with no columns and no rows.
    pub fn new() -> Self {
        Frame::default()
    }

    /// Build a frame from `(name, column)` pairs.
    pub fn from_columns(cols: Vec<(&str, Column)>) -> Result<Self> {
        let mut f = Frame::new();
        for (name, col) in cols {
            f.add_column(name, col)?;
        }
        Ok(f)
    }

    /// Number of rows. Zero for a frame with no columns.
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Column names, in insertion order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// True if a column with this name exists.
    pub fn has_column(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Append a column. The first column fixes the row count; subsequent
    /// columns must match it.
    pub fn add_column(&mut self, name: &str, column: Column) -> Result<()> {
        if self.index.contains_key(name) {
            return Err(TabularError::DuplicateColumn(name.to_owned()));
        }
        if !self.columns.is_empty() && column.len() != self.n_rows() {
            return Err(TabularError::LengthMismatch {
                column: name.to_owned(),
                expected: self.n_rows(),
                actual: column.len(),
            });
        }
        self.index.insert(name.to_owned(), self.columns.len());
        self.names.push(name.to_owned());
        self.columns.push(column);
        Ok(())
    }

    /// Borrow a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.index
            .get(name)
            .map(|&i| &self.columns[i])
            .ok_or_else(|| TabularError::UnknownColumn(name.to_owned()))
    }

    /// The cell at (`row`, `column`).
    pub fn get(&self, row: usize, column: &str) -> Result<Value> {
        let col = self.column(column)?;
        col.get(row).ok_or(TabularError::RowOutOfBounds {
            row,
            n_rows: self.n_rows(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::from_columns(vec![
            ("region", Column::from_strs(&["ITA", "JPN", "USA", "ITA"])),
            ("recipes", Column::from_i64s(&[7504, 580, 16118, 7504])),
            ("z", Column::from_f64s(&[30.0, -4.0, 25.0, 30.0])),
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let f = sample();
        assert_eq!(f.n_rows(), 4);
        assert_eq!(f.n_cols(), 3);
        assert_eq!(f.names(), &["region", "recipes", "z"]);
    }

    #[test]
    fn duplicate_column_rejected() {
        let mut f = sample();
        let err = f
            .add_column("z", Column::from_i64s(&[1, 2, 3, 4]))
            .unwrap_err();
        assert_eq!(err, TabularError::DuplicateColumn("z".into()));
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut f = sample();
        let err = f.add_column("w", Column::from_i64s(&[1])).unwrap_err();
        assert!(matches!(err, TabularError::LengthMismatch { .. }));
    }

    #[test]
    fn get_cell() {
        let f = sample();
        assert_eq!(f.get(1, "region").unwrap(), Value::Str("JPN".into()));
        assert!(f.get(9, "region").is_err());
        assert!(f.get(0, "nope").is_err());
    }

    #[test]
    fn empty_frame() {
        let f = Frame::new();
        assert_eq!(f.n_rows(), 0);
        assert_eq!(f.n_cols(), 0);
    }
}
