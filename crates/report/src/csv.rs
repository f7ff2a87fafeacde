//! Minimal CSV writing with RFC-4180 quoting.

use std::fmt::{self, Write as _};

/// An in-memory CSV builder that formats every field straight into its
/// buffer.
///
/// ```
/// use ucore_report::CsvWriter;
/// let mut w = CsvWriter::new(&["node", "speedup"]);
/// w.row(&[&"40nm", &format_args!("{:.1}", 12.5)]);
/// assert_eq!(w.finish(), "node,speedup\n40nm,12.5\n");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsvWriter {
    out: String,
    columns: usize,
}

impl CsvWriter {
    /// Starts a CSV document with a header row.
    pub fn new(headers: &[&str]) -> Self {
        let mut w = CsvWriter { out: String::new(), columns: headers.len() };
        for (i, header) in headers.iter().enumerate() {
            w.field(i, header);
        }
        w.out.push('\n');
        w
    }

    /// Appends a data row, each cell written with its `Display`; rows are
    /// padded or truncated to the header width.
    pub fn row(&mut self, cells: &[&dyn fmt::Display]) -> &mut Self {
        for i in 0..self.columns {
            self.field(i, cells.get(i).copied().unwrap_or(&""));
        }
        self.out.push('\n');
        self
    }

    /// Writes the `i`-th field of a row in place, quoting it only when
    /// its text holds a comma, quote or line break.
    fn field(&mut self, i: usize, cell: &dyn fmt::Display) {
        if i > 0 {
            self.out.push(',');
        }
        let start = self.out.len();
        let _ = write!(self.out, "{cell}");
        if self.out.as_bytes()[start..].iter().any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r')) {
            let text = self.out.split_off(start);
            self.out.push('"');
            for (j, part) in text.split('"').enumerate() {
                if j > 0 {
                    self.out.push_str("\"\"");
                }
                self.out.push_str(part);
            }
            self.out.push('"');
        }
    }

    /// The completed CSV text.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_fields_unquoted() {
        let mut w = CsvWriter::new(&["a", "b"]);
        w.row(&[&1, &2.5]);
        assert_eq!(w.finish(), "a,b\n1,2.5\n");
    }

    #[test]
    fn commas_and_quotes_are_escaped() {
        let mut w = CsvWriter::new(&["text", "x,\"y\""]);
        w.row(&[&"hello, \"world\"", &format_args!("{}\"{}", 1, 2)]);
        assert_eq!(
            w.finish(),
            "text,\"x,\"\"y\"\"\"\n\"hello, \"\"world\"\"\",\"1\"\"2\"\n"
        );
    }

    #[test]
    fn newlines_are_quoted() {
        let mut w = CsvWriter::new(&["text"]);
        w.row(&[&"two\nlines"]);
        w.row(&[&"cr\rhere"]);
        assert_eq!(w.finish(), "text\n\"two\nlines\"\n\"cr\rhere\"\n");
    }

    #[test]
    fn rows_normalized_to_header_width() {
        let mut w = CsvWriter::new(&["a", "b"]);
        w.row(&[&"only"]);
        w.row(&[]);
        w.row(&[&"x", &"y", &"dropped"]);
        let text = w.finish();
        assert_eq!(text, "a,b\nonly,\n,\nx,y\n");
    }
}
