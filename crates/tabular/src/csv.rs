//! RFC-4180-style CSV reading and writing.
//!
//! Reading infers column types from the data: a column whose non-empty
//! cells all parse as `i64` becomes an int column; else if they all parse
//! as `f64`, a float column; else if all are `true`/`false`, a bool
//! column; otherwise strings. Empty cells are null.

// User-reachable serialization/ingestion surface: panicking on bad
// data is forbidden here — return errors instead.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::io::Write;

use crate::column::Column;
use crate::error::{Result, TabularError};
use crate::frame::Frame;
#[cfg(test)]
use crate::value::Value;

/// Parse CSV from a string into a [`Frame`]. The first record is the
/// header. Quoted fields may contain commas, newlines, and doubled quotes.
pub fn read_csv_str(content: &str) -> Result<Frame> {
    let records = parse_records(content)?;
    let mut records = records.into_iter();
    let header = match records.next() {
        Some(h) => h,
        None => return Ok(Frame::new()),
    };
    let n_cols = header.len();
    let mut cells: Vec<Vec<String>> = vec![Vec::new(); n_cols];
    for (line_no, rec) in records.enumerate() {
        if rec.len() != n_cols {
            return Err(TabularError::Csv {
                line: line_no + 2,
                message: format!("expected {n_cols} fields, found {}", rec.len()),
            });
        }
        for (c, field) in rec.into_iter().enumerate() {
            cells[c].push(field);
        }
    }

    let mut frame = Frame::new();
    for (name, col_cells) in header.iter().zip(cells) {
        frame.add_column(name, infer_column(&col_cells))?;
    }
    Ok(frame)
}

/// Serialize a frame as CSV to a writer (header + rows).
pub fn write_csv<W: Write>(frame: &Frame, writer: &mut W) -> Result<()> {
    let header: Vec<String> = frame.names().iter().map(|n| escape_field(n)).collect();
    writeln!(writer, "{}", header.join(","))?;
    for row in 0..frame.n_rows() {
        let mut fields = Vec::with_capacity(frame.n_cols());
        for name in frame.names() {
            let v = frame.get(row, name)?;
            fields.push(escape_field(&v.to_string()));
        }
        writeln!(writer, "{}", fields.join(","))?;
    }
    Ok(())
}

fn escape_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// Split raw CSV text into records of fields, handling quoting.
fn parse_records(content: &str) -> Result<Vec<Vec<String>>> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut chars = content.chars().peekable();
    let mut any = false;

    while let Some(ch) = chars.next() {
        any = true;
        if in_quotes {
            match ch {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push('\n');
                }
                _ => field.push(ch),
            }
        } else {
            match ch {
                '"' => in_quotes = true,
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {
                    // Swallow; the following \n terminates the record.
                }
                '\n' => {
                    line += 1;
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                _ => field.push(ch),
            }
        }
    }
    if in_quotes {
        return Err(TabularError::Csv {
            line,
            message: "unterminated quoted field".to_owned(),
        });
    }
    if any && (!field.is_empty() || !record.is_empty()) {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

/// Infer the narrowest column type that fits all non-empty cells.
fn infer_column(cells: &[String]) -> Column {
    let non_empty: Vec<&String> = cells.iter().filter(|c| !c.is_empty()).collect();
    if !non_empty.is_empty() && non_empty.iter().all(|c| c.parse::<i64>().is_ok()) {
        return Column::Int(
            cells
                .iter()
                .map(|c| if c.is_empty() { None } else { c.parse().ok() })
                .collect(),
        );
    }
    if !non_empty.is_empty() && non_empty.iter().all(|c| c.parse::<f64>().is_ok()) {
        return Column::Float(
            cells
                .iter()
                .map(|c| {
                    if c.is_empty() {
                        None
                    } else {
                        c.parse::<f64>().ok().filter(|v| !v.is_nan())
                    }
                })
                .collect(),
        );
    }
    if !non_empty.is_empty() && non_empty.iter().all(|c| *c == "true" || *c == "false") {
        return Column::Bool(
            cells
                .iter()
                .map(|c| match c.as_str() {
                    "" => None,
                    "true" => Some(true),
                    _ => Some(false),
                })
                .collect(),
        );
    }
    Column::Str(
        cells
            .iter()
            .map(|c| if c.is_empty() { None } else { Some(c.clone()) })
            .collect(),
    )
}

impl Frame {
    /// Parse a frame from a CSV string (convenience for [`read_csv_str`]).
    pub fn from_csv_str(content: &str) -> Result<Frame> {
        read_csv_str(content)
    }

    /// Serialize to a CSV string (see [`write_csv`]).
    pub fn to_csv(&self) -> String {
        let mut buf = Vec::new();
        // Writing to a Vec cannot fail for I/O reasons and every (row,
        // column) pair visited exists by construction; if that invariant
        // ever breaks, render the error in place instead of panicking.
        if let Err(e) = write_csv(self, &mut buf) {
            return format!("<csv serialization failed: {e}>");
        }
        String::from_utf8_lossy(&buf).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let csv = "region,recipes,z\nITA,7504,30.5\nJPN,580,-4.25\n";
        let f = read_csv_str(csv).unwrap();
        assert_eq!(f.n_rows(), 2);
        assert_eq!(f.get(0, "region").unwrap(), Value::Str("ITA".into()));
        assert_eq!(f.get(1, "recipes").unwrap(), Value::Int(580));
        assert_eq!(f.get(1, "z").unwrap(), Value::Float(-4.25));
        assert_eq!(f.to_csv(), csv);
    }

    #[test]
    fn type_inference() {
        let f = read_csv_str("a,b,c,d\n1,1.5,true,hello\n2,2,false,world\n").unwrap();
        assert!(matches!(f.column("a").unwrap(), Column::Int(_)));
        assert!(matches!(f.column("b").unwrap(), Column::Float(_)));
        assert_eq!(f.get(0, "c").unwrap(), Value::Bool(true));
        assert_eq!(f.get(1, "d").unwrap(), Value::Str("world".into()));
    }

    #[test]
    fn empty_cells_become_null() {
        let f = read_csv_str("a,b\n1,\n,2\n").unwrap();
        assert_eq!(f.get(0, "b").unwrap(), Value::Null);
        assert_eq!(f.get(1, "a").unwrap(), Value::Null);
    }

    #[test]
    fn quoted_fields() {
        let f = read_csv_str("name,note\n\"garlic, minced\",\"he said \"\"hi\"\"\"\n").unwrap();
        assert_eq!(
            f.get(0, "name").unwrap(),
            Value::Str("garlic, minced".into())
        );
        assert_eq!(
            f.get(0, "note").unwrap(),
            Value::Str("he said \"hi\"".into())
        );
    }

    #[test]
    fn quoted_newline_in_field() {
        let f = read_csv_str("a,b\n\"line1\nline2\",x\n").unwrap();
        assert_eq!(f.n_rows(), 1);
        assert_eq!(f.get(0, "a").unwrap(), Value::Str("line1\nline2".into()));
    }

    #[test]
    fn crlf_line_endings() {
        let f = read_csv_str("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(f.n_rows(), 1);
        assert_eq!(f.get(0, "b").unwrap(), Value::Int(2));
    }

    #[test]
    fn missing_trailing_newline() {
        let f = read_csv_str("a\n1").unwrap();
        assert_eq!(f.n_rows(), 1);
    }

    #[test]
    fn ragged_row_errors() {
        let err = read_csv_str("a,b\n1\n").unwrap_err();
        assert!(matches!(err, TabularError::Csv { line: 2, .. }));
    }

    #[test]
    fn unterminated_quote_errors() {
        let err = read_csv_str("a\n\"oops\n").unwrap_err();
        assert!(matches!(err, TabularError::Csv { .. }));
    }

    #[test]
    fn empty_input_gives_empty_frame() {
        let f = read_csv_str("").unwrap();
        assert_eq!(f.n_cols(), 0);
    }

    #[test]
    fn write_escapes_fields() {
        let f =
            Frame::from_columns(vec![("x", Column::from_strs(&["a,b", "q\"q", "plain"]))]).unwrap();
        let csv = f.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"q\"\"q\""));
        assert!(csv.contains("plain"));
        // And the roundtrip preserves content.
        let g = read_csv_str(&csv).unwrap();
        assert_eq!(g.get(0, "x").unwrap(), Value::Str("a,b".into()));
        assert_eq!(g.get(1, "x").unwrap(), Value::Str("q\"q".into()));
    }

    #[test]
    fn roundtrip_with_nulls() {
        let f = Frame::from_columns(vec![
            ("a", Column::Int(vec![Some(1), None])),
            ("b", Column::Str(vec![None, Some("x".into())])),
        ])
        .unwrap();
        let g = read_csv_str(&f.to_csv()).unwrap();
        assert_eq!(g.get(1, "a").unwrap(), Value::Null);
        assert_eq!(g.get(0, "b").unwrap(), Value::Null);
        assert_eq!(g.get(1, "b").unwrap(), Value::Str("x".into()));
    }
}
