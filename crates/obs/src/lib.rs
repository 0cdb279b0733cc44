//! Zero-dependency observability for the `llmqo` workspace.
//!
//! Three pieces, all global, all **no-ops by default**:
//!
//! * A [`Registry`] of named [`Counter`]s, [`Gauge`]s, and log-bucketed
//!   [`Histogram`]s with quantile estimation, exportable as Prometheus text
//!   exposition format ([`Registry::prometheus_text`]) and as a JSON
//!   snapshot ([`Registry::json_snapshot`]).
//! * A [`Tracer`] of spans and instant events whose clock is the **engine's
//!   discrete-event sim time**, not the wall clock — two identical runs
//!   produce byte-identical traces. Exports Chrome `trace_event` JSON
//!   ([`Tracer::export_chrome_json`]) viewable in Perfetto or
//!   `chrome://tracing`.
//! * An optional wall-clock profiling channel ([`WallTimer`]) behind the
//!   `wallclock` cargo feature, for attributing *host* time (where does a
//!   cached simulation spend its milliseconds?) without ever contaminating
//!   the deterministic sim-time trace.
//!
//! # The no-op-by-default sink contract
//!
//! Instrumented code guards every recording with [`enabled`] — a single
//! relaxed atomic load — and holds `&'static` metric handles (from
//! [`Registry::counter`] and friends, cached in `OnceLock`s at the call
//! site), so a disabled run pays one predictable branch per site and
//! allocates nothing. Instrumentation never reads state back into the
//! simulation: enabling or disabling observability cannot change a single
//! byte of any `SessionReport`, `ClusterReport`, or `SqlResult`. The
//! workspace-level differential suite (`tests/obs_differential.rs`)
//! enforces exactly that.
//!
//! # Example
//!
//! ```
//! use llmqo_obs as obs;
//!
//! obs::set_enabled(true);
//! obs::registry().counter("demo.events").inc();
//! obs::tracer().complete(0, 7, "phase", "demo", 0.5, 0.25, &[]);
//! let text = obs::registry().prometheus_text();
//! assert!(text.contains("demo_events 1"));
//! let trace = obs::tracer().export_chrome_json();
//! obs::validate_json(&trace).unwrap();
//! obs::set_enabled(false);
//! obs::registry().reset();
//! obs::tracer().clear();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
mod metrics;
mod trace;
mod wall;

pub use json::{escape as escape_json, validate_json};
pub use metrics::{
    parse_prometheus, Counter, Gauge, Histogram, HistogramSnapshot, PromSample, Registry,
};
pub use trace::{ArgValue, Tracer};
pub use wall::WallTimer;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether observability sinks are recording. The cheap check every
/// instrumentation site performs first — one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the global sinks on or off. Off (the default) makes every
/// instrumentation site a single predictable branch.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide metrics registry.
pub fn registry() -> &'static Registry {
    metrics::global()
}

/// The process-wide sim-time tracer.
pub fn tracer() -> &'static Tracer {
    trace::global()
}
