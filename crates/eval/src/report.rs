//! Experiment output rendering: aligned text tables for the console and
//! JSON files for regeneration/diffing.

use serde::Serialize;
use std::fmt::Write as _;
use std::path::Path;

/// A simple column-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.header.len(), String::new());
        row.truncate(self.header.len());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with column alignment and a separator under the header.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate().take(cols) {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<width$}", width = widths[i]);
            }
            out.push('\n');
        };
        write_row(&self.header, &mut out);
        let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        write_row(&sep, &mut out);
        for row in &self.rows {
            write_row(row, &mut out);
        }
        out
    }
}

/// Serializes `value` as pretty JSON into `path`, creating parent
/// directories as needed.
///
/// # Errors
///
/// Propagates I/O and serialization failures.
pub fn write_json<T: Serialize>(value: &T, path: impl AsRef<Path>) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["alpha".into(), "1".into()]);
        t.row(&["b".into(), "23456".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("-----"));
        // Columns align: "value" column starts at the same offset everywhere.
        let col = lines[0].find("value").unwrap();
        assert_eq!(lines[2].ord_char_at(col), Some('1'));
        assert_eq!(lines[3].ord_char_at(col), Some('2'));
    }

    trait CharAt {
        fn ord_char_at(&self, i: usize) -> Option<char>;
    }
    impl CharAt for &str {
        fn ord_char_at(&self, i: usize) -> Option<char> {
            self.chars().nth(i)
        }
    }

    #[test]
    fn short_rows_are_padded_long_rows_truncated() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only".into()]);
        t.row(&["x".into(), "y".into(), "z".into()]);
        let s = t.render();
        assert_eq!(t.len(), 2);
        assert!(!s.contains('z'));
    }

    #[test]
    fn empty_table() {
        let t = Table::new(&["a"]);
        assert!(t.is_empty());
        let s = t.render();
        assert_eq!(s.lines().count(), 2); // header + separator
    }

    /// A fresh directory for one test's files, named after the test and
    /// the process id, so parallel tests never share a fixture file.
    fn test_dir(test: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ensemfdet_eval_{test}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_json_round_trips() {
        #[derive(serde::Serialize, serde::Deserialize, PartialEq, Debug)]
        struct Row {
            x: u32,
            name: String,
        }
        let dir = test_dir("write_json_round_trips");
        let path = dir.join("nested").join("row.json");
        let row = Row {
            x: 7,
            name: "hi".into(),
        };
        write_json(&row, &path).unwrap();
        let back: Row = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, row);
        std::fs::remove_dir_all(&dir).ok();
    }
}
