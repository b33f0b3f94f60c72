//! Plain-text table output in the paper's notation.

/// Formats a number in the paper's scientific notation (`2.28e-1`).
pub fn sci(x: f64) -> String {
    if x == 0.0 {
        return "0".to_string();
    }
    if !x.is_finite() {
        return "inf".to_string();
    }
    format!("{x:.2e}")
}

/// Formats a duration as milliseconds in scientific notation.
pub fn sci_ms(d: std::time::Duration) -> String {
    sci(d.as_secs_f64() * 1e3)
}

/// A fixed-width text table.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Prints an experiment banner.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_matches_paper_style() {
        assert_eq!(sci(0.228), "2.28e-1");
        assert_eq!(sci(120000.0), "1.20e5");
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(f64::INFINITY), "inf");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["name", "value"]);
        t.row(["ep", "1.00e2"]);
        t.row(["gg", "3"]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1.00e2"));
        assert!(lines[3].ends_with("3"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["x"]);
        assert_eq!(t.rows[0].len(), 3);
    }
}
