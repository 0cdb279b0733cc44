//! The metrics registry: counters, gauges, log-bucketed histograms, and
//! the Prometheus-text / JSON exporters.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins instantaneous value.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Sets the gauge to the max of its current value and `v`.
    pub fn set_max(&self, v: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            if f64::from_bits(cur) >= v {
                return;
            }
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(c) => cur = c,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

/// Buckets per power of two (the top three mantissa bits): bucket `q` of an
/// octave covers `[1 + q/8, 1 + (q+1)/8) · 2^e`, so a quantile estimate —
/// the geometric midpoint of the exact sample's bucket — is within
/// `√(9/8) − 1 ≈ 6.1%` of the exact order statistic.
const SUB: usize = 8;
/// Smallest finite bucketed exponent: values below 2^-64 (and all
/// non-positive or non-finite values) land in the underflow bucket.
const MIN_EXP: i32 = -64;
/// Largest bucketed exponent: values at/above 2^64 land in overflow.
const MAX_EXP: i32 = 64;
const SPAN: usize = ((MAX_EXP - MIN_EXP) as usize) * SUB;
/// Underflow + span + overflow.
const NUM_BUCKETS: usize = SPAN + 2;

/// A log-bucketed histogram with nearest-rank quantile estimation.
///
/// Positive finite values in `[2^-64, 2^64)` are bucketed by exponent and
/// the top three mantissa bits (8 sub-buckets per octave); everything else
/// falls into an underflow bucket (reported as `0.0`) or an overflow
/// bucket. [`quantile`](Histogram::quantile) uses the same nearest-rank
/// rule as `llmqo_serve::percentile`, applied to the bucket counts, and
/// returns the geometric midpoint of the selected bucket — within
/// √(9/8) − 1 ≈ 6.1% of the exact order statistic.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

fn bucket_index(v: f64) -> usize {
    let min = (MIN_EXP as f64).exp2();
    if !v.is_finite() || v < min {
        return 0; // underflow: non-positive, tiny, or NaN
    }
    if v >= (MAX_EXP as f64).exp2() {
        return NUM_BUCKETS - 1;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    let frac = ((bits >> 49) & 0b111) as usize;
    ((exp - MIN_EXP) as usize) * SUB + frac + 1
}

fn bucket_representative(idx: usize) -> f64 {
    if idx == 0 {
        return 0.0;
    }
    if idx == NUM_BUCKETS - 1 {
        return (MAX_EXP as f64).exp2();
    }
    let off = idx - 1;
    let scale = ((MIN_EXP + (off / SUB) as i32) as f64).exp2();
    let q = (off % SUB) as f64;
    // Geometric midpoint of the linear sub-bucket [1 + q/8, 1 + (q+1)/8)·2^e.
    let lo = 1.0 + q / SUB as f64;
    let hi = 1.0 + (q + 1.0) / SUB as f64;
    scale * (lo * hi).sqrt()
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: f64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Nearest-rank quantile estimate (`p` in `[0, 1]`); `0.0` when empty.
    ///
    /// The rank rule is identical to `llmqo_serve::percentile` —
    /// `ceil(p · n)` clamped to `[1, n]` — so the estimate lands in the
    /// bucket containing the exact order statistic and is therefore within
    /// one bucket's growth factor of it.
    pub fn quantile(&self, p: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_representative(idx);
            }
        }
        bucket_representative(NUM_BUCKETS - 1)
    }

    /// A point-in-time summary of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

/// A point-in-time summary of one [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Median estimate.
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

#[derive(Clone, Copy)]
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

/// A process-wide registry of named metrics.
///
/// Handles are `&'static`: a metric, once created, lives for the process.
/// Instrumentation sites cache handles in `OnceLock`s so the steady-state
/// cost of a *disabled* site is one branch, and of an enabled one a single
/// atomic add — no name lookup, no lock.
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

pub(crate) fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry {
        inner: Mutex::new(BTreeMap::new()),
    };
    &GLOBAL
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty, standalone registry. Most code uses the process-wide one
    /// via [`crate::registry`]; standalone registries exist for tests and
    /// embedders that want isolated metric namespaces. Handles are still
    /// `&'static` (metrics are leaked on creation) so call-site caching
    /// works identically.
    pub fn new() -> Self {
        Registry {
            inner: Mutex::new(BTreeMap::new()),
        }
    }

    /// The metric named `name`, registered via `make` on first use. A hit
    /// is one map lookup under the lock; the name is copied only on a miss.
    fn get_or_register(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut inner = self.inner.lock().expect("registry poisoned");
        if let Some(&metric) = inner.get(name) {
            return metric;
        }
        let metric = make();
        inner.insert(name.to_owned(), metric);
        metric
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> &'static Counter {
        match self.get_or_register(name, || {
            Metric::Counter(Box::leak(Box::new(Counter::new())))
        }) {
            Metric::Counter(c) => c,
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        match self.get_or_register(name, || Metric::Gauge(Box::leak(Box::new(Gauge::new())))) {
            Metric::Gauge(g) => g,
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// The histogram named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        match self.get_or_register(name, || {
            Metric::Histogram(Box::leak(Box::new(Histogram::new())))
        }) {
            Metric::Histogram(h) => h,
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Zeroes every registered metric. Handles stay valid; registration
    /// survives. Used between runs that share the process (benches, tests).
    pub fn reset(&self) {
        let inner = self.inner.lock().expect("registry poisoned");
        for metric in inner.values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// Exports every metric in Prometheus text exposition format, sorted by
    /// metric name (deterministic byte-for-byte for a given state). Dots in
    /// registered names become underscores; histograms export as summaries
    /// (`{quantile=...}` samples plus `_sum` and `_count`).
    pub fn prometheus_text(&self) -> String {
        let inner = self.inner.lock().expect("registry poisoned");
        let mut out = String::new();
        for (name, metric) in inner.iter() {
            let name = sanitize_prom_name(name);
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.get()));
                }
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    out.push_str(&format!(
                        "# TYPE {name} summary\n\
                         {name}{{quantile=\"0.5\"}} {}\n\
                         {name}{{quantile=\"0.9\"}} {}\n\
                         {name}{{quantile=\"0.99\"}} {}\n\
                         {name}_sum {}\n\
                         {name}_count {}\n",
                        s.p50, s.p90, s.p99, s.sum, s.count
                    ));
                }
            }
        }
        out
    }

    /// Exports every metric as a JSON object, keys sorted by metric name.
    pub fn json_snapshot(&self) -> String {
        let inner = self.inner.lock().expect("registry poisoned");
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut histograms = String::new();
        for (name, metric) in inner.iter() {
            match metric {
                Metric::Counter(c) => {
                    push_entry(&mut counters, name, &c.get().to_string());
                }
                Metric::Gauge(g) => {
                    push_entry(&mut gauges, name, &json_f64(g.get()));
                }
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    let body = format!(
                        "{{\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                        s.count,
                        json_f64(s.sum),
                        json_f64(s.p50),
                        json_f64(s.p90),
                        json_f64(s.p99)
                    );
                    push_entry(&mut histograms, name, &body);
                }
            }
        }
        format!("{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{histograms}}}}}")
    }
}

fn push_entry(out: &mut String, key: &str, value: &str) {
    if !out.is_empty() {
        out.push(',');
    }
    out.push('"');
    out.push_str(&crate::json::escape(key));
    out.push_str("\":");
    out.push_str(value);
}

/// JSON has no NaN/Infinity literals; clamp them to null-adjacent strings
/// would break numeric consumers, so export them as 0 (they never occur in
/// practice — sums of finite samples).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn sanitize_prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, ch) in name.chars().enumerate() {
        let ok =
            ch.is_ascii_alphabetic() || ch == '_' || ch == ':' || (i > 0 && ch.is_ascii_digit());
        out.push(if ok { ch } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// One sample line of Prometheus text exposition format.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric (sample) name.
    pub name: String,
    /// Label pairs inside `{...}`, in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// Parses Prometheus text exposition format into its sample lines (comments
/// and blank lines skipped). Used by CI to prove the exporter round-trips.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
        let name_end = line
            .find(|c: char| c == '{' || c.is_whitespace())
            .ok_or_else(|| err("missing value"))?;
        let name = &line[..name_end];
        if name.is_empty()
            || !name.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            })
        {
            return Err(err("invalid metric name"));
        }
        let mut rest = &line[name_end..];
        let mut labels = Vec::new();
        if let Some(stripped) = rest.strip_prefix('{') {
            let close = stripped
                .find('}')
                .ok_or_else(|| err("unclosed label set"))?;
            let body = &stripped[..close];
            rest = &stripped[close + 1..];
            for pair in body.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair.split_once('=').ok_or_else(|| err("label without ="))?;
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| err("unquoted label value"))?;
                labels.push((k.trim().to_owned(), v.to_owned()));
            }
        }
        let value: f64 = rest
            .trim()
            .parse()
            .map_err(|_| err("unparseable sample value"))?;
        samples.push(PromSample {
            name: name.to_owned(),
            labels,
            value,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact nearest-rank percentile the histogram estimate is
    /// validated against (mirrors `llmqo_serve::percentile`).
    fn exact_percentile(sorted: &[f64], p: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        let c = r.counter("test.metrics.counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("test.metrics.gauge");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.set_max(1.0);
        assert_eq!(g.get(), 2.5);
        g.set_max(7.0);
        assert_eq!(g.get(), 7.0);
    }

    #[test]
    fn histogram_quantiles_track_exact_percentiles() {
        let h = Histogram::new();
        let mut samples: Vec<f64> = (1..500u32)
            .map(|i| f64::from(i * 37 % 499) * 0.013 + 0.001)
            .collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let exact = exact_percentile(&samples, p);
            let est = h.quantile(p);
            let ratio = est / exact;
            assert!(
                (0.9..=1.1).contains(&ratio),
                "p{p}: est {est} vs exact {exact}"
            );
        }
        assert_eq!(h.count(), samples.len() as u64);
        let exact_sum: f64 = samples.iter().sum();
        assert!((h.sum() - exact_sum).abs() < 1e-9);
    }

    #[test]
    fn histogram_edge_values() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::NAN);
        assert_eq!(h.quantile(0.5), 0.0, "non-positive samples report as 0");
        h.record(1e300);
        assert_eq!(h.quantile(1.0), 2f64.powi(64), "overflow clamps");
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut prev = 0;
        let mut v = 1e-19f64;
        while v < 1e20 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index regressed at {v}");
            assert!(bucket_representative(idx) > 0.0);
            prev = idx;
            v *= 1.07;
        }
    }

    #[test]
    fn prometheus_text_round_trips_and_sorts() {
        let r = Registry::new();
        r.counter("test.prom.zebra").add(3);
        r.gauge("test.prom.alpha").set(1.25);
        let h = r.histogram("test.prom.hist");
        h.record(0.5);
        h.record(2.0);
        let text = r.prometheus_text();
        let samples = parse_prometheus(&text).unwrap();
        let find = |n: &str| samples.iter().find(|s| s.name == n).unwrap();
        assert_eq!(find("test_prom_zebra").value, 3.0);
        assert_eq!(find("test_prom_alpha").value, 1.25);
        assert_eq!(find("test_prom_hist_count").value, 2.0);
        let q50 = samples
            .iter()
            .find(|s| s.name == "test_prom_hist" && s.labels == [("quantile".into(), "0.5".into())])
            .unwrap();
        assert!(q50.value > 0.0);
        // Names appear in sorted order.
        let alpha = text.find("test_prom_alpha").unwrap();
        let zebra = text.find("test_prom_zebra").unwrap();
        assert!(alpha < zebra);
        // Exporting twice with no writes in between is byte-identical.
        assert_eq!(text, r.prometheus_text());
    }

    #[test]
    fn json_snapshot_is_well_formed() {
        let r = Registry::new();
        r.counter("test.json.count").inc();
        r.gauge("test.json.gauge").set(0.75);
        r.histogram("test.json.hist").record(1.0);
        let json = r.json_snapshot();
        crate::json::validate_json(&json).unwrap();
        assert!(json.contains("\"test.json.count\":"));
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.gauge("test.mismatch");
        r.counter("test.mismatch");
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_prometheus("9bad_name 1").is_err());
        assert!(parse_prometheus("name{unclosed 1").is_err());
        assert!(parse_prometheus("name notanumber").is_err());
        assert!(parse_prometheus("# comment only\n\n").unwrap().is_empty());
    }
}
