//! Plain-text table rendering for experiment output.

use owp_telemetry::json;
use std::fmt::Write as _;

/// A printable experiment table (one per paper table/figure).
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Experiment title, printed above the table.
    pub title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new<S: Into<String>>(title: S, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Appends a footnote printed under the table.
    pub fn note<S: Into<String>>(&mut self, note: S) {
        self.notes.push(note.into());
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Cell accessor (row, column) for tests.
    pub fn cell(&self, r: usize, c: usize) -> &str {
        &self.rows[r][c]
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut width = vec![0usize; cols];
        for (c, h) in self.headers.iter().enumerate() {
            width[c] = h.chars().count();
        }
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                width[c] = width[c].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut parts = Vec::with_capacity(cols);
            for (c, cell) in cells.iter().enumerate() {
                parts.push(format!("{cell:>w$}", w = width[c]));
            }
            let _ = writeln!(out, "| {} |", parts.join(" | "));
        };
        line(&mut out, &self.headers);
        let total: usize = width.iter().sum::<usize>() + 3 * cols + 1;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Renders the table as a JSON object
    /// (`{"title", "headers", "rows", "notes"}`). Cells that are plain
    /// numbers are emitted as JSON numbers so downstream tooling can plot
    /// them without re-parsing; everything else becomes a string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"title\":");
        json::write_str(&mut out, &self.title);
        out.push_str(",\"headers\":");
        write_array(&mut out, &self.headers, json::write_str);
        out.push_str(",\"rows\":[");
        for (r, row) in self.rows.iter().enumerate() {
            if r > 0 {
                out.push(',');
            }
            write_array(&mut out, row, write_cell);
        }
        out.push_str("],\"notes\":");
        write_array(&mut out, &self.notes, json::write_str);
        out.push('}');
        out
    }
}

fn write_array(out: &mut String, items: &[String], write: fn(&mut String, &str)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
}

/// A cell that is a finite JSON number round-trips as a number; anything
/// else (units, ratios, text, `+3.2`) is quoted.
fn write_cell(out: &mut String, cell: &str) {
    let numeric = cell
        .bytes()
        .all(|c| c.is_ascii_digit() || matches!(c, b'.' | b'-' | b'+' | b'e' | b'E'))
        && json::parse(cell).is_ok_and(|v| v.as_f64("cell").is_ok());
    if numeric {
        out.push_str(cell);
    } else {
        json::write_str(out, cell);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["a", "metric"]);
        t.row(vec!["1".into(), "0.5".into()]);
        t.row(vec!["100".into(), "0.25".into()]);
        t.note("hello");
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("note: hello"));
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.cell(1, 1), "0.25");
        // Both data lines have equal length (alignment).
        let lines: Vec<&str> = s.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(lines[0].len(), lines[1].len());
        assert_eq!(lines[1].len(), lines[2].len());
    }

    #[test]
    fn json_export_types_cells() {
        let mut t = Table::new("ex \"15\"", &["n", "LID ms", "kind"]);
        t.row(vec!["100000".into(), "43.5".into(), "async".into()]);
        t.note("line\nbreak");
        let j = t.to_json();
        assert_eq!(
            j,
            "{\"title\":\"ex \\\"15\\\"\",\"headers\":[\"n\",\"LID ms\",\"kind\"],\
             \"rows\":[[100000,43.5,\"async\"]],\"notes\":[\"line\\nbreak\"]}"
        );
    }

    #[test]
    fn cells_outside_the_json_number_grammar_are_quoted() {
        let cells = ["+3.2", "1.", ".5", "01", "-0.5e-3"];
        let mut t = Table::new("signs", &cells);
        t.row(cells.iter().map(|c| c.to_string()).collect());
        let j = t.to_json();
        let rows = "\"rows\":[[\"+3.2\",\"1.\",\".5\",\"01\",-0.5e-3]]";
        assert!(j.contains(rows), "{j}");
        assert!(json::parse(&j).is_ok());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_bad_row() {
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }
}
