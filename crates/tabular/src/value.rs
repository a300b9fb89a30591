//! Dynamically-typed cell values.
//!
//! [`Value`] is the cell-level view of the column store: columns are
//! stored as typed vectors, but cell reads ([`crate::Frame::get`]), CSV
//! writing and table printing need a uniform cell representation. `Value`
//! is cheap to clone for everything except strings.

use std::fmt;

/// A single dynamically-typed cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Missing value.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. NaN is normalized to `Null` at column boundaries.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Extract a float; integers are widened, other types yield `None`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Extract a string slice, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    /// Writes the CSV-facing textual form (empty string for null).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => Ok(()),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::Str("a".into()).as_str(), Some("a"));
        assert_eq!(Value::Int(7).as_str(), None);
        assert_eq!(Value::Bool(true).as_float(), None);
    }

    #[test]
    fn display_is_csv_friendly() {
        assert_eq!(Value::Null.to_string(), "");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::Float(0.5).to_string(), "0.5");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }
}
