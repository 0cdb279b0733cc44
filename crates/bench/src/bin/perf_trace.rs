//! **Observability end-to-end**: runs the cluster sweep workload (Movies
//! filter, GGR schedule, prefix-affinity routing) and the BIRD adaptive SQL
//! workload with `llmqo-obs` fully enabled — sim-time tracing, the metrics
//! registry, and (via this binary's `wallclock` feature) wall-clock phase
//! histograms — and writes the artifacts:
//!
//! * `TRACE_perf.json` — Chrome `trace_event` JSON (open in Perfetto /
//!   `chrome://tracing`): per-request lifecycle spans, router decisions,
//!   cache events, per-operator executor phases.
//! * `METRICS_perf.prom` — Prometheus text exposition of every counter,
//!   gauge, and histogram the run touched.
//! * `METRICS_perf.json` — the same registry as a JSON snapshot.
//!
//! Before writing anything it proves the instrumentation is observationally
//! invisible: each workload runs once with observability disabled and once
//! enabled, and the reports must be identical. It also self-validates the
//! artifacts (trace/metrics JSON parse, Prometheus text round-trips) and
//! prints the first measured breakdown of where cached-sim wall time goes
//! (cache admission/bookkeeping vs the decode recurrence vs everything
//! else in the engine step).
//!
//! ```sh
//! LLMQO_SCALE=0.2 cargo run --release -p llmqo-bench --bin perf_trace
//! ```

use llmqo_bench::harness;
use llmqo_cluster::{tag_requests, ClusterConfig, ClusterRequest, ClusterSim, PrefixAffinity};
use llmqo_core::{Ggr, Reorderer};
use llmqo_datasets::DatasetId;
use llmqo_relational::{
    encode_table, plan_requests, project_fds, OptimizerConfig, QueryExecutor, QueryKind, SqlResult,
    SqlRunner,
};
use llmqo_serve::{EngineConfig, OracleLlm, SimEngine};
use llmqo_tokenizer::Tokenizer;

/// The adaptive differential suite's skewed truth: ~5% of rows are "Yes".
fn skewed_truth(row: usize) -> String {
    if row.is_multiple_of(20) {
        "Yes".to_string()
    } else {
        "No".to_string()
    }
}

/// The `fig_cluster` workload: GGR-reordered Movies filter requests routed
/// across 4 replicas by prefix affinity.
fn run_cluster() -> llmqo_cluster::ClusterReport {
    let ds = harness::load(DatasetId::Movies);
    let query = ds
        .query_of_kind(QueryKind::Filter)
        .expect("movies has a filter query");
    let encoded = encode_table(&Tokenizer::new(), &ds.table, query).expect("encode");
    let fds = project_fds(&ds.fds, &encoded.used_cols);
    let solution = Ggr::default()
        .reorder(&encoded.reorder, &fds)
        .expect("ggr never exceeds a budget");
    let requests = plan_requests(&encoded, &solution.plan, query);
    let keys = solution.plan.prefix_keys(&encoded.reorder, 1);
    let tagged: Vec<ClusterRequest> = tag_requests(requests, &keys);
    let engine = SimEngine::new(harness::deployment_8b(), EngineConfig::default());
    let sim = ClusterSim::new(
        engine,
        ClusterConfig {
            replicas: 4,
            queue_cap: 64,
        },
    );
    sim.run(&mut PrefixAffinity::default(), &tagged)
        .expect("cluster run")
}

/// The `table_adaptive` arm-1 workload: BIRD multi-filter statement whose
/// pilot batch flips the execution order mid-query.
fn run_sql() -> SqlResult {
    let ds = harness::load(DatasetId::Bird);
    let engine = SimEngine::new(harness::deployment_8b(), EngineConfig::default());
    let executor = QueryExecutor::new(&engine, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(OptimizerConfig::all());
    runner.register("bird", &ds.table, &ds.fds);
    runner
        .run(
            "SELECT PostId FROM bird \
             WHERE LLM('Is the comment recent? Yes or No.', Text) <> 'Yes' \
             AND LLM('Is the post statistics-related? Yes or No.', Body, Text) = 'Yes'",
            &skewed_truth,
        )
        .expect("statement runs")
}

fn hist_sum(name: &str) -> (u64, f64) {
    let h = llmqo_obs::registry().histogram(name);
    (h.count(), h.sum())
}

/// Asserts two SQL results identical in every sim-deterministic field.
/// `ExecutionReport::solve_time_s` is a wall-clock measurement and differs
/// between any two runs, instrumented or not, so whole-struct equality
/// would be flaky even without observability in the picture.
fn assert_sql_identical(reference: &SqlResult, observed: &SqlResult) {
    assert_eq!(reference.columns, observed.columns);
    assert_eq!(reference.rows, observed.rows);
    assert_eq!(reference.aggregate, observed.aggregate);
    assert_eq!(reference.notes, observed.notes);
    assert_eq!(reference.stages.len(), observed.stages.len());
    for (r, o) in reference.stages.iter().zip(&observed.stages) {
        assert_eq!(r.outputs, o.outputs, "stage outputs diverged");
        assert_eq!(r.aggregate, o.aggregate);
        assert_eq!(r.report.query, o.report.query);
        assert_eq!(r.report.claimed_phc, o.report.claimed_phc);
        assert_eq!(r.report.field_phc, o.report.field_phc);
        assert_eq!(r.report.engine, o.report.engine, "engine report diverged");
        assert_eq!(r.report.opt, o.report.opt, "opt stats diverged");
    }
}

fn main() {
    // Baseline: observability off. These reports are the oracle the
    // instrumented run must reproduce byte for byte.
    llmqo_obs::set_enabled(false);
    let cluster_ref = run_cluster();
    let sql_ref = run_sql();

    // Instrumented run: everything on, starting from clean sinks.
    llmqo_obs::set_enabled(true);
    llmqo_obs::registry().reset();
    llmqo_obs::tracer().clear();
    let cluster_obs = run_cluster();
    let sql_obs = run_sql();
    llmqo_obs::set_enabled(false);

    assert_eq!(
        cluster_ref, cluster_obs,
        "observability changed the cluster report"
    );
    assert_sql_identical(&sql_ref, &sql_obs);
    println!(
        "differential check: instrumented reports identical to disabled runs \
         (cluster: {} completions, SQL: {} rows)",
        cluster_obs.completed,
        sql_obs.rows.len()
    );

    // Export and self-validate the artifacts.
    let trace = llmqo_obs::tracer().export_chrome_json();
    llmqo_obs::validate_json(&trace).expect("trace JSON is well-formed");
    assert!(
        !llmqo_obs::tracer().is_empty(),
        "instrumented run produced no trace events"
    );
    let prom = llmqo_obs::registry().prometheus_text();
    let samples = llmqo_obs::parse_prometheus(&prom).expect("Prometheus text round-trips");
    assert!(!samples.is_empty(), "no metrics were recorded");
    let metrics_json = llmqo_obs::registry().json_snapshot();
    llmqo_obs::validate_json(&metrics_json).expect("metrics JSON is well-formed");
    std::fs::write("TRACE_perf.json", &trace).expect("write trace");
    std::fs::write("METRICS_perf.prom", &prom).expect("write prom");
    std::fs::write("METRICS_perf.json", &metrics_json).expect("write metrics json");
    println!(
        "wrote TRACE_perf.json ({} events, {} dropped), METRICS_perf.prom \
         ({} samples), METRICS_perf.json",
        llmqo_obs::tracer().len(),
        llmqo_obs::tracer().dropped(),
        samples.len()
    );

    // Where does cached-sim wall time go? `wall.step_s` wraps the whole
    // engine step; cache admission/release/bookkeeping and the macro-step
    // decode recurrence are timed separately (cache time is nested inside
    // step time; the decode recurrence runs outside `step`).
    let (step_n, step_s) = hist_sum("wall.step_s");
    let (cache_n, cache_s) = hist_sum("wall.cache_admit_s");
    let (dec_n, dec_s) = hist_sum("wall.decode_recurrence_s");
    let total = step_s + dec_s;
    let pct = |x: f64| if total > 0.0 { 100.0 * x / total } else { 0.0 };
    println!("\ncached-sim wall-time breakdown (enabled run):");
    println!(
        "  engine steps        {:>9} calls  {:>9.3} ms  {:>5.1}%",
        step_n,
        step_s * 1e3,
        pct(step_s)
    );
    println!(
        "    of which cache    {:>9} calls  {:>9.3} ms  {:>5.1}%",
        cache_n,
        cache_s * 1e3,
        pct(cache_s)
    );
    println!(
        "    other bookkeeping {:>9}        {:>9.3} ms  {:>5.1}%",
        "",
        (step_s - cache_s).max(0.0) * 1e3,
        pct((step_s - cache_s).max(0.0))
    );
    println!(
        "  decode recurrence   {:>9} calls  {:>9.3} ms  {:>5.1}%",
        dec_n,
        dec_s * 1e3,
        pct(dec_s)
    );
    if step_n == 0 {
        println!("  (wall histograms empty — built without the `wallclock` feature?)");
    }

    // How much prompt hashing did the previous-prompt checkpoints save?
    let r = llmqo_obs::registry();
    let hashed = r.counter("serve.chain.tokens_hashed").get();
    let reused = r.counter("serve.chain.tokens_reused").get();
    println!(
        "\nblock-chain hashing: {hashed} prompt tokens hashed, {reused} reused \
         ({:.1}% of all prompt tokens never hashed)",
        100.0 * reused as f64 / (hashed + reused).max(1) as f64
    );

    // How many chain positions did the walks resolve without the block map?
    let probes = r.counter("cache.block_map_probes").get();
    let memo_hits = r.counter("cache.walk_memo_hits").get();
    println!(
        "chain walks: {probes} block-map lookups, {memo_hits} resume-memo hits \
         ({:.1}% of resolved positions never touched the map)",
        100.0 * memo_hits as f64 / (probes + memo_hits).max(1) as f64
    );
}
