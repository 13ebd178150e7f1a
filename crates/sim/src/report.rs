//! Plain-text tables, size labels and the OSU message-size ladder: what
//! every sweep and figure reproduction prints its simulated numbers with.

use exacoll_json::Value;
use std::fmt::Write as _;

/// The OSU message-size ladder the paper's figures use: powers of two from
/// 8 B to 4 MB.
pub fn osu_sizes() -> Vec<usize> {
    (3..=22).map(|e| 1usize << e).collect()
}

/// Human-readable size label ("8B", "64KB", "4MB") as the paper's axes use.
pub fn fmt_size(n: usize) -> String {
    if n >= 1 << 20 && n.is_multiple_of(1 << 20) {
        format!("{}MB", n >> 20)
    } else if n >= 1024 && n.is_multiple_of(1024) {
        format!("{}KB", n >> 10)
    } else {
        format!("{n}B")
    }
}

/// A right-aligned plain-text table with a title, in the style of the
/// paper's figures-as-numbers.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The data rows, cell by cell.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line_len: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header));
        let _ = writeln!(out, "{}", "-".repeat(line_len));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }

    /// The table as a JSON object (`title`, `header`, `rows` of strings),
    /// the per-table shape of an `exacoll-repro/v1` results file.
    pub fn to_json(&self) -> Value {
        let strs = |cells: &[String]| Value::Arr(cells.iter().cloned().map(Value::Str).collect());
        Value::obj(vec![
            ("title", Value::Str(self.title.clone())),
            ("header", strs(&self.header)),
            (
                "rows",
                Value::Arr(self.rows.iter().map(|r| strs(r)).collect()),
            ),
        ])
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["size", "latency"]);
        t.row(vec!["8B".into(), "3.1".into()]);
        t.row(vec!["4MB".into(), "1200.5".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("size"));
        let lines: Vec<&str> = s.lines().collect();
        // Header, separator, two rows, plus title.
        assert_eq!(lines.len(), 5);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn json_keeps_cells_with_commas_whole() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "x, y".into()]);
        let v = exacoll_json::parse(&t.to_json().pretty()).unwrap();
        assert_eq!(v.req("title").unwrap().as_str().unwrap(), "demo");
        let rows = v.req("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 1);
        let cells = rows[0].as_arr().unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[1].as_str().unwrap(), "x, y");
        assert_eq!(t.rows()[0][1], "x, y");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn ladder_shape() {
        let s = osu_sizes();
        assert_eq!(*s.first().unwrap(), 8);
        assert_eq!(*s.last().unwrap(), 4 << 20);
        assert!(s.windows(2).all(|w| w[1] == w[0] * 2));
    }

    #[test]
    fn size_labels() {
        assert_eq!(fmt_size(8), "8B");
        assert_eq!(fmt_size(2048), "2KB");
        assert_eq!(fmt_size(4 << 20), "4MB");
        assert_eq!(fmt_size(1500), "1500B");
    }
}
