//! Plain-text table rendering for experiment output.

use hermes_core::MediaDuration;

/// A simple left-padded text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create with headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }
    /// Add a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row/header mismatch");
        self.rows.push(cells);
    }
    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            out.pop();
            out.pop();
            out.push('\n');
        };
        line(&self.headers, &widths, &mut out);
        let rule: String = widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ");
        out.push_str(&rule);
        out.push('\n');
        for r in &self.rows {
            line(r, &widths, &mut out);
        }
        out
    }

    /// Render as a JSON array of row objects keyed by header. Every value
    /// is the formatted cell string — consumers parse numbers themselves,
    /// which keeps the JSON byte-identical to the text table's cells (the
    /// baseline-diff workflow depends on that).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for ch in s.chars() {
                match ch {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let fields: Vec<String> = self
                    .headers
                    .iter()
                    .zip(r)
                    .map(|(h, c)| format!("\"{}\": \"{}\"", esc(h), esc(c)))
                    .collect();
                format!("      {{{}}}", fields.join(", "))
            })
            .collect();
        if rows.is_empty() {
            "[]".into()
        } else {
            format!("[\n{}\n    ]", rows.join(",\n"))
        }
    }
}

/// Milliseconds with one decimal, for experiment tables.
pub fn fmt_dur_ms(d: MediaDuration) -> String {
    format!("{:.1}", d.as_micros() as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["wide-cell", "x"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert!(lines[1].starts_with("---------"));
    }

    #[test]
    #[should_panic(expected = "row/header mismatch")]
    fn mismatched_row_rejected() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1", "2"]);
    }

    #[test]
    fn fmt_ms() {
        assert_eq!(fmt_dur_ms(MediaDuration::from_micros(12_340)), "12.3");
    }
}
