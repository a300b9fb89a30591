//! Dynamically-typed cell values.
//!
//! [`Value`] is the cell-level view of the column store: columns are
//! stored as typed vectors, but cell reads ([`crate::Frame::get`]), CSV
//! writing and table printing need a uniform cell representation. `Value`
//! is cheap to clone for everything except strings and has a total
//! ordering ([`Value::total_cmp`]).

use std::cmp::Ordering;
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

    /// Rank used to order values of different types: Null < Bool < Int ≈
    /// Float < Str. Ints and floats share a rank and compare numerically.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }

    /// Total ordering across all values. Numeric values compare
    /// numerically across `Int`/`Float`; NaN sorts after all other floats.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        let (ra, rb) = (self.type_rank(), other.type_rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) => {
                // Mixed numeric comparison (Int vs Float or Float vs Float).
                let fa = a.as_float().expect("rank-2 value is numeric");
                let fb = b.as_float().expect("rank-2 value is numeric");
                fa.total_cmp(&fb)
            }
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

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        if v.is_nan() {
            Value::Null
        } else {
            Value::Float(v)
        }
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
    fn nan_becomes_null() {
        assert_eq!(Value::from(f64::NAN), Value::Null);
        assert_eq!(Value::from(2.5), Value::Float(2.5));
    }

    #[test]
    fn ordering_across_types_is_stable() {
        let mut vals = [
            Value::Str("b".into()),
            Value::Int(3),
            Value::Null,
            Value::Float(2.5),
            Value::Bool(false),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(false));
        assert_eq!(vals[2], Value::Float(2.5));
        assert_eq!(vals[3], Value::Int(3));
        assert_eq!(vals[4], Value::Str("b".into()));
    }

    #[test]
    fn int_float_compare_numerically() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(
            Value::Float(3.5).total_cmp(&Value::Int(3)),
            Ordering::Greater
        );
    }

    #[test]
    fn display_is_csv_friendly() {
        assert_eq!(Value::Null.to_string(), "");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::Float(0.5).to_string(), "0.5");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(1i64), Value::Int(1));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
        assert_eq!(Value::from(String::from("t")), Value::Str("t".into()));
        assert_eq!(Value::from(false), Value::Bool(false));
    }
}
