//! Plain-text table/figure formatting for the experiment binaries.
//!
//! The `rechisel-bench` binaries print each reproduced table and figure as an aligned
//! ASCII table (and simple ASCII series for the figures), so the output can be quoted
//! directly.

/// Formats a table with a header row and aligned columns.
pub fn format_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:<width$}", h, width = widths[i]))
        .collect();
    out.push_str(&header_line.join(" | "));
    out.push('\n');
    let separator: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&separator.join("-+-"));
    out.push('\n');
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                format!("{:<width$}", cell, width = widths.get(i).copied().unwrap_or(cell.len()))
            })
            .collect();
        out.push_str(&cells.join(" | "));
        out.push('\n');
    }
    out
}

/// Formats a percentage with two decimals, like the paper's tables.
pub fn pct(value: f64) -> String {
    format!("{:.2}", value * 100.0)
}

/// Renders one series of a figure as `label: v0 v1 v2 ...` percentages.
pub fn format_series(label: &str, values: &[f64]) -> String {
    let rendered: Vec<String> = values.iter().map(|v| format!("{:5.1}", v * 100.0)).collect();
    format!("{label:<22} {}", rendered.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned_and_complete() {
        let text = format_table(
            "Table X",
            &["Model", "Pass@1"],
            &[
                vec!["GPT-4o".to_string(), "45.07".to_string()],
                vec!["Claude 3.5 Sonnet".to_string(), "33.33".to_string()],
            ],
        );
        assert!(text.contains("Table X"));
        assert!(text.contains("Model"));
        assert!(text.contains("Claude 3.5 Sonnet | 33.33"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn percentage_formatting() {
        assert_eq!(pct(0.4554), "45.54");
        assert_eq!(pct(1.0), "100.00");
    }

    #[test]
    fn series_formatting() {
        let s = format_series("Pass@1", &[0.1, 0.5]);
        assert!(s.starts_with("Pass@1"));
        assert!(s.contains("10.0"));
        assert!(s.contains("50.0"));
    }
}
