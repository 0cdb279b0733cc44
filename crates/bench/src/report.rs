//! Plain-text table rendering for the reproduction binaries.
//!
//! Every binary prints its measurements next to the paper's reported values
//! so divergence is visible at a glance.

/// Renders an aligned ASCII table.
///
/// # Examples
///
/// ```
/// let t = llmqo_bench::report::render_table(
///     &["dataset", "PHR"],
///     &[vec!["Movies".into(), "86%".into()]],
/// );
/// assert!(t.contains("Movies"));
/// assert!(t.contains("dataset"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    out.push('|');
    for (h, w) in headers.iter().zip(&widths) {
        out.push_str(&format!(" {h:<w$} |"));
    }
    out.push('\n');
    sep(&mut out);
    for row in rows {
        out.push('|');
        for (i, w) in widths.iter().enumerate() {
            let empty = String::new();
            let cell = row.get(i).unwrap_or(&empty);
            out.push_str(&format!(" {cell:<w$} |"));
        }
        out.push('\n');
    }
    sep(&mut out);
    out
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a speedup ratio like the paper's figure annotations.
pub fn speedup(slow: f64, fast: f64) -> String {
    if fast <= 0.0 {
        return "n/a".to_owned();
    }
    format!("{:.1}x", slow / fast)
}

/// Formats seconds compactly.
pub fn secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.1}s")
    } else {
        format!("{:.1}ms", s * 1000.0)
    }
}

/// Prints a titled section with a rendered table.
pub fn section(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    print!("{}", render_table(headers, rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_and_contains_cells() {
        let t = render_table(
            &["a", "long header"],
            &[
                vec!["x".into(), "y".into()],
                vec!["longer cell".into(), "z".into()],
            ],
        );
        assert!(t.contains("| x           | y           |") || t.contains("x"));
        assert!(t.contains("longer cell"));
        assert!(t.lines().count() >= 6);
    }

    #[test]
    fn short_rows_padded() {
        let t = render_table(&["a", "b"], &[vec!["only".into()]]);
        assert!(t.contains("only"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.857), "85.7%");
        assert_eq!(speedup(10.0, 4.0), "2.5x");
        assert_eq!(speedup(1.0, 0.0), "n/a");
        assert_eq!(secs(123.4), "123s");
        assert_eq!(secs(2.34), "2.3s");
        assert_eq!(secs(0.5), "500.0ms");
    }
}
