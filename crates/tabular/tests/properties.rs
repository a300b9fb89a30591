//! Property-based tests of the CSV reader and writer.

use proptest::prelude::*;

use culinaria_tabular::{csv, Column, Frame};

/// Strategy: a frame with a string key column and a float value column,
/// 0..60 rows.
fn arb_frame() -> impl Strategy<Value = Frame> {
    let row = (
        proptest::sample::select(vec!["a", "b", "c", "d", "e"]),
        proptest::option::of(-1e6f64..1e6),
        0i64..1000,
    );
    proptest::collection::vec(row, 0..60).prop_map(|rows| {
        let keys: Vec<&str> = rows.iter().map(|r| r.0).collect();
        let vals: Vec<Option<f64>> = rows.iter().map(|r| r.1).collect();
        let counts: Vec<i64> = rows.iter().map(|r| r.2).collect();
        Frame::from_columns(vec![
            ("key", Column::from_strs(&keys)),
            ("val", Column::Float(vals)),
            ("count", Column::from_i64s(&counts)),
        ])
        .expect("fresh frame")
    })
}

/// Strategy: arbitrary cell text to stress CSV quoting.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~\n]{0,20}").expect("valid regex")
}

proptest! {
    #[test]
    fn csv_roundtrip_preserves_frame(frame in arb_frame()) {
        let text = frame.to_csv();
        let back = csv::read_csv_str(&text).expect("own CSV parses");
        prop_assert_eq!(back.n_rows(), frame.n_rows());
        prop_assert_eq!(back.n_cols(), frame.n_cols());
        for row in 0..frame.n_rows() {
            for name in frame.names() {
                let a = frame.get(row, name).expect("cell");
                let b = back.get(row, name).expect("cell");
                match (a.as_float(), b.as_float()) {
                    (Some(x), Some(y)) => prop_assert!(
                        (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                        "{name}[{row}]: {x} vs {y}"
                    ),
                    _ => prop_assert_eq!(a, b, "{}[{}]", name, row),
                }
            }
        }
    }

    #[test]
    fn csv_escaping_roundtrips_arbitrary_text(cells in proptest::collection::vec(arb_text(), 1..12)) {
        let column = Column::Str(cells.iter().cloned().map(Some).collect());
        let frame = Frame::from_columns(vec![("text", column)]).expect("fresh frame");
        let back = csv::read_csv_str(&frame.to_csv()).expect("own CSV parses");
        prop_assert_eq!(back.n_rows(), cells.len());
        for (row, cell) in cells.iter().enumerate() {
            let v = back.get(row, "text").expect("cell");
            // Empty strings round-trip as nulls (CSV has no distinction);
            // numeric-looking or bool-looking strings change type but not text.
            let rendered = v.to_string();
            prop_assert_eq!(&rendered, cell, "row {}", row);
        }
    }

}
