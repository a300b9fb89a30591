#![warn(missing_docs)]

//! # culinaria-tabular
//!
//! A lightweight, dependency-free columnar data-frame used throughout the
//! `culinaria` workspace as the tabular-output substrate for analyses
//! (category compositions, z-score tables, rank-frequency series, …).
//!
//! * a [`Frame`] is an ordered collection of named, equal-length
//!   [`Column`]s;
//! * each column is a typed vector (`i64`, `f64`, `String`, `bool`) with
//!   per-cell nullability;
//! * cell access goes through [`Value`], a small dynamically-typed cell;
//! * frames print as aligned text tables ([`Frame::to_table_string`])
//!   and round-trip through RFC-4180-style CSV ([`csv::read_csv_str`],
//!   [`csv::write_csv`]).
//!
//! The crate is intentionally small: analyses build frames, harnesses
//! print them, and the CSV reader checks exported data.
//!
//! ## Example
//!
//! ```
//! use culinaria_tabular::{Column, Frame, Value};
//!
//! let mut f = Frame::new();
//! f.add_column("region", Column::from_strs(&["ITA", "JPN", "ITA"])).unwrap();
//! f.add_column("z", Column::from_f64s(&[31.0, -5.2, 14.9])).unwrap();
//! assert_eq!(f.get(1, "region").unwrap(), Value::Str("JPN".into()));
//! assert!(f.to_table_string(10).contains("-5.2000"));
//!
//! let back = Frame::from_csv_str(&f.to_csv()).unwrap();
//! assert_eq!(back.get(2, "z").unwrap(), Value::Float(14.9));
//! ```

pub mod column;
pub mod csv;
pub mod display;
pub mod error;
pub mod frame;
pub mod value;

pub use column::Column;
pub use error::{Result, TabularError};
pub use frame::Frame;
pub use value::Value;
