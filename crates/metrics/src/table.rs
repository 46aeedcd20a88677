//! Plain-text and CSV table rendering for the reproduction harness.
//!
//! Every `repro` subcommand prints the rows of its paper table/figure
//! through [`Table`], so output formatting lives in exactly one place
//! and EXPERIMENTS.md can paste the results verbatim.

/// A simple column-aligned text table that can also serialize as CSV.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A new table with a title and column names.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
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

    /// Renders as aligned plain text. Widths are counted in chars, the
    /// unit `format!` pads in, so `→`, `×` or `µ` in a cell take one
    /// column like any other char.
    pub fn render(&self) -> String {
        let width = |s: &String| s.chars().count();
        let mut widths: Vec<usize> = self.header.iter().map(width).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(width(c));
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a ratio as the paper writes speedups: `1.53x`.
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a fraction as a percentage: `23.4%`.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole rendering, byte for byte: columns two spaces apart,
    /// the rule as wide as the padded columns, trailing blanks trimmed.
    #[test]
    fn renders_aligned_text() {
        let mut t = Table::new("Demo", &["scheme", "median", "p90"]);
        t.row(&["saath".into(), "1.53x".into(), "4.50x".into()]);
        t.row(&["aalo".into(), "1.00x".into(), "1.00x".into()]);
        assert_eq!(
            t.render(),
            "== Demo ==\n\
             scheme  median  p90\n\
             ---------------------\n\
             saath   1.53x   4.50x\n\
             aalo    1.00x   1.00x\n"
        );
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    /// A multi-byte char is one column: the rule is exactly as long as
    /// the header, in chars, and the cells line up under it.
    #[test]
    fn multi_byte_cells_take_one_column_per_char() {
        let mut t = Table::new("", &["k_c ms (reb → inc)", "µs"]);
        t.row(&["1.0 → 2.0".into(), "3".into()]);
        let s = t.render();
        assert_eq!(
            s,
            "k_c ms (reb → inc)  µs\n\
             ----------------------\n\
             1.0 → 2.0           3\n"
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[1].len(), lines[0].chars().count());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        Table::new("", &["a", "b"]).row(&["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_x(1.534), "1.53x");
        assert_eq!(fmt_pct(0.234), "23.4%");
    }
}
