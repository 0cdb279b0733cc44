//! Tables of typed cells for the `artifacts` binary, and the one writer of
//! the committed `BENCH_*.json` files ([`BenchFile`]).
//!
//! Every artifact prints its measurements as [`Table`]s, next to the
//! paper's reported values so divergence is visible at a glance. A sweep
//! hands the same tables to its [`BenchFile`], which writes every cell but
//! the print-only ones: what a sweep commits is what it prints, less the
//! cells it marks [`Value::PrintOnly`].

use std::fmt;
use std::path::{Path, PathBuf};

/// One cell of a [`Table`]: how it prints and how a [`BenchFile`] writes
/// it. The float kinds differ only in print; each writes six decimals, or
/// `null` when not finite.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A count or flag, printed and written verbatim.
    Verbatim(String),
    /// A label, printed as is and written as an escaped JSON string.
    Label(String),
    /// A fraction printed as a percentage with this many decimals: `85.7%`.
    Pct(f64, usize),
    /// Seconds, printed compactly: `123s`, `2.3s`, `500.0ms`.
    Secs(f64),
    /// A ratio printed like the paper's figure annotations, `2.5x`; `n/a`
    /// when not finite (a zero denominator).
    Speedup(f64),
    /// A float printed with this many decimals.
    Fixed(f64, usize),
    /// Printed, never written: host wall-clock time, or a deterministic
    /// column a sweep prints but does not commit.
    PrintOnly(String),
}

impl Value {
    /// A fraction printed as a percentage with one decimal.
    pub fn pct(x: f64) -> Self {
        Value::Pct(x, 1)
    }

    /// This cell as printed, never written.
    pub fn print_only(self) -> Self {
        Value::PrintOnly(self.to_string())
    }

    /// The JSON text a [`BenchFile`] writes, `None` for a print-only cell.
    fn json(&self) -> Option<String> {
        match *self {
            Value::Verbatim(ref x) => Some(x.clone()),
            Value::Label(ref x) => Some(format!("\"{}\"", llmqo_obs::escape_json(x))),
            Value::Pct(x, _) | Value::Secs(x) | Value::Speedup(x) | Value::Fixed(x, _) => {
                Some(if x.is_finite() {
                    format!("{x:.6}")
                } else {
                    "null".to_owned()
                })
            }
            Value::PrintOnly(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Value::Verbatim(ref x) | Value::Label(ref x) | Value::PrintOnly(ref x) => {
                f.write_str(x)
            }
            Value::Pct(x, decimals) => write!(f, "{:.decimals$}%", x * 100.0),
            Value::Secs(x) if x >= 100.0 => write!(f, "{x:.0}s"),
            Value::Secs(x) if x >= 1.0 => write!(f, "{x:.1}s"),
            Value::Secs(x) => write!(f, "{:.1}ms", x * 1000.0),
            Value::Speedup(x) if x.is_finite() => write!(f, "{x:.1}x"),
            Value::Speedup(_) => f.write_str("n/a"),
            Value::Fixed(x, decimals) => write!(f, "{x:.decimals$}"),
        }
    }
}

macro_rules! verbatim_value {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Self {
                Value::Verbatim(x.to_string())
            }
        }
    )*};
}
verbatim_value!(u8, u32, u64, usize, bool);

/// A plain float prints as it is written, with six decimals.
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Fixed(x, 6)
    }
}

impl From<&str> for Value {
    fn from(x: &str) -> Self {
        Value::Label(x.to_owned())
    }
}

impl From<String> for Value {
    fn from(x: String) -> Self {
        Value::Label(x)
    }
}

/// A titled table: rows of [`Value`]s under named columns. The names are
/// the printed headers and, for a sweep, the keys of its `BENCH_*.json`
/// cells.
#[derive(Debug)]
pub struct Table {
    title: String,
    headers: Vec<&'static str>,
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// An empty table printed under `title`.
    pub fn new(title: impl Into<String>) -> Self {
        Table {
            title: title.into(),
            headers: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of `(column, cell)` pairs. The first row names the
    /// columns.
    ///
    /// # Panics
    ///
    /// If a later row names other columns, or the same ones in another
    /// order.
    pub fn row(&mut self, cells: impl IntoIterator<Item = (&'static str, Value)>) {
        let (headers, row): (Vec<_>, Vec<_>) = cells.into_iter().unzip();
        if self.rows.is_empty() {
            self.headers = headers;
        } else {
            assert_eq!(headers, self.headers, "{}: columns differ", self.title);
        }
        self.rows.push(row);
    }

    /// Prints the title and the aligned table.
    pub fn print(&self) {
        print!("{self}");
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n=== {} ===", self.title)?;
        f.write_str(&render_table(&self.headers, &self.rows))
    }
}

/// Renders an aligned ASCII table: every [`Table`] prints through it.
///
/// # Examples
///
/// ```
/// use llmqo_bench::report::{render_table, Value};
///
/// let t = render_table(&["dataset", "PHR"], &[vec!["Movies".into(), Value::pct(0.86)]]);
/// assert!(t.contains("| dataset | PHR   |"));
/// assert!(t.contains("| Movies  | 86.0% |"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<Value>]) -> String {
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|row| row.iter().map(Value::to_string).collect())
        .collect();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
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
    for row in &rows {
        out.push('|');
        for (cell, w) in row.iter().zip(&widths) {
            out.push_str(&format!(" {cell:<w$} |"));
        }
        out.push('\n');
    }
    sep(&mut out);
    out
}

/// `{"key": value, ...}` on one line, keys in the order given, print-only
/// cells left out.
fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> String {
    let fields: Vec<String> = fields
        .into_iter()
        .filter_map(|(key, value)| Some(format!("\"{key}\": {}", value.json()?)))
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

    /// Appends one cell per row of `table`: a flat object of its printed
    /// columns less the print-only ones. Column names carry their unit as
    /// a suffix (`_s` simulated seconds, `_usd`, `_rps`, `_pct`; bare names
    /// are counts, ratios, flags or labels).
    pub fn cells(&mut self, table: &Table) {
        for row in &table.rows {
            let fields = table.headers.iter().copied().zip(row.iter().cloned());
            self.cells.push(object(fields));
        }
    }

    /// The file's text.
    pub fn render(&self) -> String {
        let json = |value: Value| value.json().expect("labels and floats are written");
        let [bench, metric] = [self.bench, self.metric].map(|x| json(x.into()));
        let scale = json(self.scale.into());
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
        let mut t = Table::new("demo");
        t.row([("a", "x".into()), ("long header", "y".into())]);
        t.row([("a", "longer cell".into()), ("long header", 7u64.into())]);
        assert_eq!(
            t.to_string(),
            "\n=== demo ===\n\
             +-------------+-------------+\n\
             | a           | long header |\n\
             +-------------+-------------+\n\
             | x           | y           |\n\
             | longer cell | 7           |\n\
             +-------------+-------------+\n"
        );
    }

    #[test]
    #[should_panic(expected = "demo: columns differ")]
    fn rows_must_name_the_first_rows_columns() {
        let mut t = Table::new("demo");
        t.row([("a", "x".into()), ("b", "y".into())]);
        t.row([("a", "only".into())]);
    }

    #[test]
    fn formatting_helpers() {
        let shown = |value: Value| value.to_string();
        assert_eq!(shown(Value::pct(0.857)), "85.7%");
        assert_eq!(shown(Value::Pct(0.31, 0)), "31%");
        assert_eq!(shown(Value::Speedup(10.0 / 4.0)), "2.5x");
        assert_eq!(shown(Value::Speedup(1.0 / 0.0)), "n/a");
        assert_eq!(shown(Value::Speedup(f64::NAN)), "n/a");
        assert_eq!(shown(Value::Secs(123.4)), "123s");
        assert_eq!(shown(Value::Secs(2.34)), "2.3s");
        assert_eq!(shown(Value::Secs(0.5)), "500.0ms");
        assert_eq!(shown(Value::Fixed(1.41959, 3)), "1.420");
        assert_eq!(shown(2.5.into()), "2.500000");
        assert_eq!(shown(true.into()), "true");
        assert_eq!(shown("a \"b\"".into()), "a \"b\"");
        assert_eq!(shown(Value::Secs(0.0123).print_only()), "12.3ms");
    }

    #[test]
    fn print_only_cells_are_printed_and_never_written() {
        let mut t = Table::new("timed");
        t.row([
            ("arm", "macro".into()),
            ("wall_ms", Value::Fixed(1.25, 1).print_only()),
            ("steps", 12u64.into()),
        ]);
        assert!(t.to_string().contains("| arm   | wall_ms | steps |"));
        assert!(t.to_string().contains("| macro | 1.2     | 12    |"));
        let mut file = BenchFile::new("timed", "m", 1.0, None);
        file.params([("host_ms", Value::Fixed(3.0, 1).print_only())]);
        file.cells(&t);
        let json = file.render();
        assert!(json.contains("\"params\": {},"), "{json}");
        assert!(
            json.contains("\n    {\"arm\": \"macro\", \"steps\": 12}\n"),
            "{json}"
        );
        assert!(!json.contains("wall_ms") && !json.contains("1.2"), "{json}");
    }

    fn demo(scale: f64) -> BenchFile {
        let mut file = BenchFile::new("demo", "a \"quoted\" \\ metric\u{1}", scale, Some(7));
        file.params([("replicas", 8usize.into())]);
        let mut t = Table::new("demo");
        t.row([
            ("arm", "relay".into()),
            ("calls", 1604u64.into()),
            ("makespan_s", 14.4087041.into()),
            ("speedup", f64::NAN.into()),
            ("drift", f64::INFINITY.into()),
            ("rows_identical", true.into()),
        ]);
        file.cells(&t);
        let mut t = Table::new("kinds");
        t.row([
            ("arm", "piped \"\\\n".to_owned().into()),
            ("prio", 1u8.into()),
            ("shed", 59u32.into()),
            ("rows", 1200usize.into()),
            ("same", false.into()),
            ("hit_rate", Value::pct(0.7)),
            ("wait_s", Value::Secs(1.4198761)),
            ("ratio", Value::Speedup(87.04 / 14.41)),
            ("idle", Value::Speedup(1.0 / 0.0)),
            ("cost_usd", Value::Fixed(-0.31995, 4)),
            ("gone", Value::Pct(f64::NEG_INFINITY, 2)),
        ]);
        file.cells(&t);
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
        // Integers and flags verbatim, finite floats to six places whatever
        // they print as, non-finite as null, labels escaped.
        let cells = "    {\"arm\": \"relay\", \"calls\": 1604, \"makespan_s\": 14.408704, \
             \"speedup\": null, \"drift\": null, \"rows_identical\": true},\n    \
             {\"arm\": \"piped \\\"\\\\\\n\", \"prio\": 1, \"shed\": 59, \"rows\": 1200, \
             \"same\": false, \"hit_rate\": 0.700000, \"wait_s\": 1.419876, \
             \"ratio\": 6.040250, \"idle\": null, \"cost_usd\": -0.319950, \"gone\": null}\n  ]";
        assert!(json.contains(cells), "{json}");
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
