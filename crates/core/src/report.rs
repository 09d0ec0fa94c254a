//! Minimal fixed-width text tables for the experiment reports.

/// A simple text table with a header row and aligned columns.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must have as many cells as the header).
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render the table as aligned text.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                // Right-align numbers, left-align text.
                if cell
                    .chars()
                    .next()
                    .map(|c| c.is_ascii_digit())
                    .unwrap_or(false)
                {
                    line.push_str(&format!("{cell:>width$}", width = widths[i]));
                } else {
                    line.push_str(&format!("{cell:<width$}", width = widths[i]));
                }
            }
            line
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Render an engine's cache counters the way every experiment report prints
/// them.
///
/// The two-field shape (`compiles` across `lookups`, `hits` served from the
/// cache) is kept byte-identical to the historical output.
pub fn fmt_cache_line(cache: &splitc_runtime::CacheStats) -> String {
    let mut line = format!(
        "online compilations: {} across {} runs ({} served from the engine cache)",
        cache.compiles,
        cache.lookups(),
        cache.hits,
    );
    // The artifact-store counters only appear when a store was attached
    // (all three stay zero otherwise), so storeless golden outputs keep
    // their historical shape.
    if cache.disk_hits + cache.disk_misses + cache.disk_rejects > 0 {
        line.push_str(&format!(
            ", store: {} loaded / {} missed / {} rejected",
            cache.disk_hits, cache.disk_misses, cache.disk_rejects,
        ));
    }
    line
}

/// Format a speedup factor the way the paper prints them (`2.2`, `0.95`, `15.6`).
pub fn fmt_speedup(x: f64) -> String {
    if x >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(&["benchmark", "scalar", "vect.", "relative"]);
        t.row(vec![
            "saxpy fp".into(),
            "1544".into(),
            "724".into(),
            "2.13".into(),
        ]);
        t.row(vec![
            "max u8".into(),
            "3541".into(),
            "227".into(),
            "15.6".into(),
        ]);
        let text = t.render();
        assert!(text.contains("benchmark"));
        assert!(text.lines().count() >= 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        // Every rendered line has the same width within a column block.
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[2].len() <= lines[0].len() + 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn speedup_formatting_matches_paper_style() {
        assert_eq!(fmt_speedup(15.62), "15.6");
        assert_eq!(fmt_speedup(2.234), "2.23");
        assert_eq!(fmt_speedup(0.947), "0.95");
    }
}
