//! Golden intake corpus: how `ConstraintGraph::from_text` reads the
//! corner cases of the text format, pinned so any change in intake
//! behaviour shows up as a failure.
//!
//! Each `tests/data/intake/NAME.rsg` holds a design and
//! `NAME.expected` what reading it gives: the parsed graph's `to_text()`,
//! or `error: ` followed by the `TextFormatError` text, which starts with
//! the line number. The designs cover CRLF line ends, U+00A0, U+3000 and
//! U+0085 as separators, `#` inside a token, a tab after `op`, duplicate
//! and undeclared names, `op source`, and weights of 2^63−1 and 2^63.

use std::fs;
use std::path::Path;

use rsched_graph::ConstraintGraph;

#[test]
fn intake_corpus_reads_as_pinned() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/intake");
    let mut designs: Vec<_> = fs::read_dir(&dir)
        .expect("intake corpus directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rsg"))
        .collect();
    designs.sort();
    assert!(designs.len() >= 12, "corpus lost designs: {designs:?}");
    for design in &designs {
        let text = fs::read_to_string(design).expect("design text");
        let expected_path = design.with_extension("expected");
        let expected = fs::read_to_string(&expected_path)
            .unwrap_or_else(|e| panic!("{}: {e}", expected_path.display()));
        let read = match ConstraintGraph::from_text(&text) {
            Ok(g) => g.to_text(),
            Err(e) => format!("error: {e}\n"),
        };
        assert_eq!(read, expected, "{}", design.display());
    }
    // Every expectation belongs to a design.
    let expectations = fs::read_dir(&dir)
        .expect("intake corpus directory")
        .filter(|entry| {
            let path = entry.as_ref().expect("directory entry").path();
            path.extension().is_some_and(|ext| ext == "expected")
        })
        .count();
    assert_eq!(expectations, designs.len());
}
