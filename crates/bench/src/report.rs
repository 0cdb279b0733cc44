//! Plain-text table rendering for the reproduction binaries, and the one
//! writer of the committed `BENCH_*.json` files ([`BenchFile`]).
//!
//! Every binary prints its measurements next to the paper's reported values
//! so divergence is visible at a glance.

use std::path::{Path, PathBuf};

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

/// One rendered scalar of a `BENCH_*.json`: a count or flag verbatim, a
/// float with six decimals (`null` when not finite), a label as an escaped
/// string.
#[derive(Debug)]
pub struct Value(String);

macro_rules! verbatim_value {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Self {
                Value(x.to_string())
            }
        }
    )*};
}
verbatim_value!(u8, u32, u64, usize, bool);

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value(if x.is_finite() {
            format!("{x:.6}")
        } else {
            "null".to_owned()
        })
    }
}

impl From<&str> for Value {
    fn from(x: &str) -> Self {
        Value(format!("\"{}\"", llmqo_obs::escape_json(x)))
    }
}

/// `{"key": value, ...}` on one line, keys in the order given.
fn object(fields: impl IntoIterator<Item = (&'static str, Value)>) -> String {
    let fields: Vec<String> = fields
        .into_iter()
        .map(|(key, Value(value))| format!("\"{key}\": {value}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A committed `BENCH_<bench>.json`: the one envelope every such file
/// shares — `bench`, `metric`, `scale`, `seed`, `params`, `cells`, in that
/// order — and the one place one is written.
///
/// Two rules make the files comparable with `git diff` alone. They hold
/// only deterministic values (simulated seconds, dollars, counts; host
/// wall-clock stays on stdout), and [`write`](BenchFile::write) touches the
/// file only at full scale, so a scaled run checks every in-binary
/// assertion and leaves the committed numbers alone.
#[derive(Debug)]
pub struct BenchFile {
    bench: &'static str,
    metric: &'static str,
    scale: f64,
    seed: Option<u64>,
    params: String,
    cells: Vec<String>,
}

impl BenchFile {
    /// An empty file for `bench`, measured at `scale`
    /// ([`harness::scale`](crate::harness::scale)). `seed` is the one seed
    /// the bench draws from, `None` when it fixes several internally or
    /// draws nothing.
    pub fn new(bench: &'static str, metric: &'static str, scale: f64, seed: Option<u64>) -> Self {
        BenchFile {
            bench,
            metric,
            scale,
            seed,
            params: object([]),
            cells: Vec::new(),
        }
    }

    /// Sets the values that hold for every cell (fleet size, offered load,
    /// acceptance bounds).
    pub fn params(&mut self, fields: impl IntoIterator<Item = (&'static str, Value)>) {
        self.params = object(fields);
    }

    /// Appends one cell: a flat object whose keys carry their unit as a
    /// suffix (`_s` simulated seconds, `_usd`, `_rps`, `_pct`; bare keys are
    /// counts, ratios, flags or labels).
    pub fn cell(&mut self, fields: impl IntoIterator<Item = (&'static str, Value)>) {
        self.cells.push(object(fields));
    }

    /// The file's text.
    pub fn render(&self) -> String {
        let [Value(bench), Value(metric)] = [self.bench, self.metric].map(Value::from);
        let Value(scale) = self.scale.into();
        let seed = self.seed.map_or("null".to_owned(), |seed| seed.to_string());
        format!(
            "{{\n  \"bench\": {bench},\n  \"metric\": {metric},\n  \"scale\": {scale},\n  \
             \"seed\": {seed},\n  \"params\": {},\n  \"cells\": [\n    {}\n  ]\n}}\n",
            self.params,
            self.cells.join(",\n    ")
        )
    }

    /// Writes `BENCH_<bench>.json` in the working directory when the run
    /// was at full scale, and says on stdout which of the two happened.
    ///
    /// # Panics
    ///
    /// If the rendered text is not well-formed JSON or the file cannot be
    /// written.
    pub fn write(&self) {
        self.write_in(Path::new(""));
    }

    /// [`write`](BenchFile::write) into `dir`: the path written, or `None` —
    /// and no file-system access at all — for a scaled run.
    fn write_in(&self, dir: &Path) -> Option<PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.bench));
        if self.scale != 1.0 {
            println!(
                "\nscale {}: {} not written (only LLMQO_SCALE=1 rewrites it)",
                self.scale,
                path.display()
            );
            return None;
        }
        let json = self.render();
        if let Err(e) = llmqo_obs::validate_json(&json) {
            panic!("{} is malformed: {e}", path.display());
        }
        if let Err(e) = std::fs::write(&path, json) {
            panic!("cannot write {}: {e}", path.display());
        }
        println!("\nwrote {} ({} cells)", path.display(), self.cells.len());
        Some(path)
    }
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

    fn demo(scale: f64) -> BenchFile {
        let mut file = BenchFile::new("demo", "a \"quoted\" \\ metric\u{1}", scale, Some(7));
        file.params([("replicas", 8usize.into())]);
        file.cell([
            ("arm", "relay".into()),
            ("calls", 1604u64.into()),
            ("makespan_s", 14.4087041.into()),
            ("speedup", f64::NAN.into()),
            ("drift", f64::INFINITY.into()),
            ("rows_identical", true.into()),
        ]);
        file.cell([("arm", "piped".into())]);
        file
    }

    #[test]
    fn bench_file_renders_the_envelope_in_order() {
        let json = demo(1.0).render();
        llmqo_obs::validate_json(&json).expect("escaped strings keep the file well-formed");
        let at = |key: &str| json.find(key).unwrap_or_else(|| panic!("{key} missing"));
        let order = ["bench", "metric", "scale", "seed", "params", "cells"]
            .map(|k| at(&format!("\n  \"{k}\": ")));
        assert!(order.is_sorted(), "envelope keys out of order: {json}");
        assert!(json.contains(r#""metric": "a \"quoted\" \\ metric\u0001""#));
        assert!(json.contains("\"scale\": 1.000000,\n  \"seed\": 7,"));
        assert!(json.contains("\"params\": {\"replicas\": 8},"));
        // Integers verbatim, floats to six places, non-finite as null.
        assert!(json.contains(
            "    {\"arm\": \"relay\", \"calls\": 1604, \"makespan_s\": 14.408704, \
             \"speedup\": null, \"drift\": null, \"rows_identical\": true},\n    {\"arm\": \"piped\"}\n  ]"
        ));
        let seedless = BenchFile::new("demo", "m", 1.0, None).render();
        assert!(seedless.contains("\"seed\": null,\n  \"params\": {},\n  \"cells\": ["));
        llmqo_obs::validate_json(&seedless).expect("an empty file is well-formed");
    }

    #[test]
    fn bench_file_is_written_at_full_scale_only() {
        let dir = std::env::temp_dir().join(format!("llmqo-bench-file-{}", std::process::id()));
        // A scaled run never reaches the file system: the directory does
        // not exist, and a write into it would panic.
        assert_eq!(demo(0.2).write_in(&dir), None);
        assert!(!dir.exists());
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = demo(1.0).write_in(&dir).expect("full scale writes");
        assert_eq!(path, dir.join("BENCH_demo.json"));
        assert_eq!(
            std::fs::read_to_string(&path).expect("written"),
            demo(1.0).render()
        );
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
