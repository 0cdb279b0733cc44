//! The benchmark's own host-time spans, recorded around each call into a
//! layer, kept in memory, and written as Chrome `trace_event` JSON when the
//! benchmark ends.

use std::time::Instant;

/// One timed call. `parent` is the span that caused it; spans of one job
/// share `job`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub job: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans while on; while off, [`Recorder::span`] only runs the
/// closure, so timed passes read no clock on its behalf.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    job: u32,
    open: Vec<u32>,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            job: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Spans opened from now on belong to `job`.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            id,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id as usize].end_ns = end;
        out
    }
}

/// A span's duration minus the part of it its children cover. Children may
/// overlap each other or stick out of the parent; covered time is the union
/// of their intervals clipped to the parent.
pub fn self_ns(spans: &[Span], id: u32) -> u64 {
    let me = &spans[id as usize];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        if b > reach {
            covered += b - a.max(reach);
            reach = b;
        }
    }
    me.dur_ns() - covered
}

/// Per span name: calls, total seconds and self seconds, sorted by name.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, u64, f64, f64)> {
    let mut rows: Vec<(&'static str, u64, f64, f64)> = Vec::new();
    for s in spans {
        let own = self_ns(spans, s.id) as f64 / 1e9;
        let total = s.dur_ns() as f64 / 1e9;
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += total;
                r.3 += own;
            }
            None => rows.push((s.name, 1, total, own)),
        }
    }
    rows.sort_by_key(|r| r.0);
    rows
}

/// Total seconds spent in spans named `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .fold(0.0, |a, b| a + b) // `sum()` of no floats is -0.0, which prints as "-0"
}

/// Chrome `trace_event` JSON (the object form `llmqo-obs` exports): one
/// complete event per span, one track per job, named by `job_names`.
/// Span and job names are plain ASCII chosen by the benchmark, so nothing
/// needs escaping.
pub fn chrome_json(spans: &[Span], job_names: &[String]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"llmqo-benchmark (host time)\"}}",
    );
    for (job, name) in job_names.iter().enumerate() {
        out.push_str(&format!(
            ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{job},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }
    for s in spans {
        out.push_str(&format!(
            ",{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.job,
            s.id,
            s.parent.map_or(-1, i64::from),
            self_ns(spans, s.id) as f64 / 1e3,
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: if parent.is_some() { "child" } else { "root" },
            start_ns,
            end_ns,
            id,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(0, None, 100, 200),
            span(1, Some(0), 110, 150),
            span(2, Some(0), 140, 170), // overlaps 1: union is 110..170
            span(3, Some(0), 120, 130), // inside 1: adds nothing
            span(4, Some(0), 190, 260), // sticks out: clipped to 190..200
            span(5, Some(1), 110, 150), // grandchild: not the root's concern
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 60 - 10);
        assert_eq!(self_ns(&spans, 1), 0);
        assert_eq!(self_ns(&spans, 2), 30);
        let rows = by_name(&spans);
        assert_eq!(rows[0].0, "child");
        assert_eq!(rows[0].1, 5);
        assert_eq!(rows[1], ("root", 1, 100e-9, 30e-9));
    }

    #[test]
    fn recorder_nests_spans_and_exports_valid_json() {
        let mut rec = Recorder::new(true);
        rec.set_job(3);
        let got = rec.span("job", |rec| rec.span("relational.run", |_| 7));
        assert_eq!(got, 7);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[1].job, 3);
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        let json = chrome_json(&rec.spans, &["a".into(), "b".into()]);
        llmqo_obs::validate_json(&json).expect("trace is valid JSON");
        assert!(json.contains("\"parent\":-1") && json.contains("\"parent\":0"));

        let mut off = Recorder::new(false);
        assert_eq!(off.span("job", |_| 1), 1);
        assert!(off.spans.is_empty());
    }
}
