//! Plain-text table rendering for experiment output.

use std::fmt::Write as _;

/// A simple column-aligned table with a title, printed by every experiment.
///
/// # Examples
///
/// ```
/// use uopcache_bench::Table;
///
/// let mut t = Table::new("Figure X", &["app", "value"]);
/// t.row(&["kafka".into(), format!("{:.2}", 1.5)]);
/// let s = t.render();
/// assert!(s.contains("kafka"));
/// assert!(s.contains("Figure X"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// The number of data rows.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            let mut first = true;
            for (cell, w) in cells.iter().zip(widths) {
                if !first {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = w);
                first = false;
            }
            out.push('\n');
        };
        line(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &widths, &mut out);
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }

    /// Renders as a Markdown table (for `EXPERIMENTS.md`).
    pub(crate) fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}", self.title);
        out.push('\n');
        let _ = writeln!(out, "| {} |", self.header.join(" | "));
        let _ = writeln!(out, "|{}|", vec!["---"; self.header.len()].join("|"));
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("T", &["a", "long-header"]);
        t.row(&["x".into(), "1".into()]);
        t.row(&["longer".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("== T =="));
        assert!(s.lines().count() >= 5);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn markdown_has_separator() {
        let mut t = Table::new("M", &["c1", "c2"]);
        t.row(&["v1".into(), "v2".into()]);
        let md = t.render_markdown();
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| v1 | v2 |"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("T", &["a"]);
        t.row(&["x".into(), "y".into()]);
    }
}
