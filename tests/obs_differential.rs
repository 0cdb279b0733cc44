//! Differential contract of the observability layer (`llmqo-obs`): the
//! instrumentation threaded through the engine, cluster, and relational
//! layers must be **observationally invisible** — runs with sinks disabled
//! (the default) and with everything enabled produce identical reports,
//! completions, and SQL results on all seven tier-1 datasets — and the
//! sinks themselves must be trustworthy: histogram quantiles track the
//! exact [`percentile`](llmqo::serve::percentile) within the log-bucket
//! resolution, the Prometheus text export round-trips, and the sim-time
//! trace exporter is byte-deterministic.
//!
//! Tests that flip the global `llmqo_obs` enabled flag or touch the global
//! registry/tracer serialize on one mutex — `cargo test` runs test
//! functions of one binary concurrently, and the sinks are process-global.

mod common;

use common::{assert_sql_identical, engine, skewed_truth};
use llmqo::cluster::{ClusterReport, PrefixAffinity, RoundRobin, Router};
use llmqo::datasets::Dataset;
use llmqo::relational::{OptimizerConfig, SqlResult};
use llmqo::serve::percentile;
use proptest::prelude::*;
use std::sync::Mutex;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn run_session() -> (Vec<llmqo::serve::Completion>, llmqo::serve::SessionReport) {
    let eng = engine();
    let mut session = eng.session().expect("session");
    // 12 groups of 6 requests sharing a 48-token prefix: exercises
    // admission, caching, eviction, and decode.
    let requests = common::grouped_requests(12, 6);
    let completions = session.run_batch(&requests).expect("run").to_vec();
    (completions, session.finish())
}

fn run_cluster(router: &mut dyn Router) -> ClusterReport {
    common::cluster_sim(3, 16)
        .run(router, &common::grouped_workload(12, 6))
        .expect("cluster run")
}

fn run_sql(ds: &Dataset, table_name: &str, sql: &str) -> SqlResult {
    common::run_sql_with_truth(ds, sql, OptimizerConfig::all(), table_name, &skewed_truth)
}

/// Instrumented-but-disabled engine runs are identical to enabled runs:
/// the sinks never influence scheduling, clocks, or cache decisions.
#[test]
fn session_outcome_is_invisible_to_observability() {
    let _g = lock();
    llmqo_obs::set_enabled(false);
    let disabled = run_session();
    llmqo_obs::set_enabled(true);
    llmqo_obs::registry().reset();
    llmqo_obs::tracer().clear();
    let enabled = run_session();
    llmqo_obs::set_enabled(false);
    assert_eq!(disabled, enabled);
    // The enabled run really did record: lifecycle spans + counters exist.
    assert!(!llmqo_obs::tracer().is_empty(), "no trace events recorded");
    assert_eq!(llmqo_obs::registry().counter("serve.completions").get(), 72);
}

/// The same invisibility contract at the cluster layer, for a prefix-blind
/// and a prefix-affine router.
#[test]
fn cluster_reports_are_invisible_to_observability() {
    let _g = lock();
    for router in [
        &mut RoundRobin as &mut dyn Router,
        &mut PrefixAffinity::default(),
    ] {
        llmqo_obs::set_enabled(false);
        let disabled = run_cluster(router);
        llmqo_obs::set_enabled(true);
        llmqo_obs::registry().reset();
        llmqo_obs::tracer().clear();
        let enabled = run_cluster(router);
        llmqo_obs::set_enabled(false);
        assert_eq!(disabled, enabled, "router {}", disabled.policy);
        // Occupancy sampling is always on (pure reads shared by both
        // modes), so the report itself carries the satellite gauges.
        assert!(disabled.replicas.iter().any(|r| r.occupancy.samples > 0));
    }
}

/// SQL execution — the whole optimizer + adaptive runtime + engine stack —
/// is unchanged by enabling observability, on all seven tier-1 datasets.
#[test]
fn sql_results_are_invisible_to_observability_on_all_seven_datasets() {
    let _g = lock();
    for (id, name, sql) in common::seven_dataset_cases() {
        let ds = Dataset::generate_with_rows(id, 120);
        llmqo_obs::set_enabled(false);
        let disabled = run_sql(&ds, name, sql);
        llmqo_obs::set_enabled(true);
        llmqo_obs::registry().reset();
        llmqo_obs::tracer().clear();
        let enabled = run_sql(&ds, name, sql);
        llmqo_obs::set_enabled(false);
        assert_sql_identical(&disabled, &enabled, id.name());
    }
}

/// Two identical enabled runs export byte-identical Chrome trace JSON:
/// timestamps come from the deterministic sim clock, never wall time.
#[test]
fn trace_export_is_byte_deterministic() {
    let _g = lock();
    let mut exports = Vec::new();
    for _ in 0..2 {
        llmqo_obs::set_enabled(true);
        llmqo_obs::registry().reset();
        llmqo_obs::tracer().clear();
        run_session();
        let _ = run_cluster(&mut PrefixAffinity::default());
        llmqo_obs::set_enabled(false);
        exports.push(llmqo_obs::tracer().export_chrome_json());
    }
    assert!(!exports[0].is_empty());
    assert_eq!(exports[0], exports[1], "trace export is nondeterministic");
    llmqo_obs::validate_json(&exports[0]).expect("trace JSON well-formed");
}

/// Trace lanes follow a stage's replica count: a pipelined statement on
/// single-replica stages keeps every event on lane 0 (the SQL lane) and
/// names no lane, exactly like the classic relay; with three replicas per
/// stage, replica `i` reports on lane `i + 1` and names it.
#[test]
fn single_replica_stages_stay_on_lane_zero_and_name_no_lane() {
    let _g = lock();
    let ds = Dataset::generate_with_rows(llmqo::datasets::DatasetId::Movies, 60);
    let (_, name, sql) = common::seven_dataset_cases()[0];
    let traced = |replicas: usize| {
        llmqo_obs::set_enabled(true);
        llmqo_obs::registry().reset();
        llmqo_obs::tracer().clear();
        let opt = OptimizerConfig::pipelined(replicas);
        common::run_sql_with_truth(&ds, sql, opt, name, &skewed_truth);
        llmqo_obs::set_enabled(false);
        llmqo_obs::tracer().export_chrome_json()
    };
    let solo = traced(1);
    assert!(solo.contains("\"name\":\"op.sql-where-movies\""), "{solo}");
    assert!(!solo.contains("process_name"), "a lane was named:\n{solo}");
    assert_eq!(
        solo.matches("\"pid\":").count(),
        solo.matches("\"pid\":0,").count(),
        "an event left lane 0"
    );
    let fanned = traced(3);
    for replica in 0..3 {
        let lane = format!(
            "\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"replica {replica}\"}}",
            replica + 1
        );
        assert!(fanned.contains(&lane), "replica {replica} has no lane");
    }
}

/// The text expositions round-trip: Prometheus text parses back into the
/// samples that produced it, and the JSON snapshot is well-formed.
#[test]
fn metric_expositions_round_trip() {
    let _g = lock();
    llmqo_obs::set_enabled(true);
    llmqo_obs::registry().reset();
    llmqo_obs::tracer().clear();
    run_session();
    llmqo_obs::set_enabled(false);
    let prom = llmqo_obs::registry().prometheus_text();
    let samples = llmqo_obs::parse_prometheus(&prom).expect("prometheus text parses");
    assert!(!samples.is_empty());
    assert!(samples
        .iter()
        .any(|s| s.name.starts_with("serve_requests_enqueued")));
    let json = llmqo_obs::registry().json_snapshot();
    llmqo_obs::validate_json(&json).expect("metrics JSON well-formed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram quantiles vs the exact nearest-rank percentile the serving
    /// layer computes: log-bucketing with 8 sub-buckets per octave bounds
    /// the representative error at ~4.4%, so 10% relative tolerance holds
    /// for any sample set and any probe point.
    #[test]
    fn histogram_quantiles_track_exact_percentile(
        raw in proptest::collection::vec(1u64..1_000_000_000_000_000u64, 1..300),
        p_mil in 0u64..=1000,
    ) {
        // The vendored proptest shim has no f64 range strategies; span
        // 1e-6..1e9 seconds by scaling integer draws.
        let samples: Vec<f64> = raw.iter().map(|&x| x as f64 * 1e-6).collect();
        let p = p_mil as f64 / 1000.0;
        let registry = llmqo_obs::Registry::new();
        let hist = registry.histogram("q");
        for &s in &samples {
            hist.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let exact = percentile(&sorted, p);
        let approx = hist.quantile(p);
        prop_assert!(
            (approx - exact).abs() <= 0.10 * exact.abs(),
            "quantile({p}) = {approx}, exact = {exact}"
        );
    }
}
