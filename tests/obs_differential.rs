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

use common::{assert_sql_identical, chaos_requests, engine, skewed_truth};
use llmqo::cluster::{
    AdmissionPolicy, ClusterReport, FaultPlan, OverloadPolicy, PrefixAffinity, RetryPolicy,
    RoundRobin, Router, ScalePolicy,
};
use llmqo::core::{FunctionalDeps, OriginalOrder};
use llmqo::costmodel::CascadePlan;
use llmqo::datasets::Dataset;
use llmqo::relational::{
    CascadeConfig, LlmQuery, OptStats, OptimizerConfig, QueryExecutor, Schema, SqlResult,
    SqlRunner, StatementFaults, Table,
};
use llmqo::serve::{percentile, OracleLlm};
use llmqo::tokenizer::Tokenizer;
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
    let completions = common::run_batch(&eng, &mut session, &requests).to_vec();
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

/// The trace events of `export`, one string each, sorted: the multiset a
/// run recorded, whatever order it recorded them in. Holds for traces
/// without named lanes (a lane name carries a nested `"name"`).
fn sorted_events(export: &str) -> Vec<&str> {
    let body = export
        .strip_prefix("{\"traceEvents\":[")
        .and_then(|rest| rest.split("],\"droppedEvents\"").next())
        .expect("Chrome trace JSON");
    let mut events: Vec<&str> = body
        .split("{\"name\":\"")
        .skip(1)
        .map(|e| e.trim_end_matches(','))
        .collect();
    events.sort_unstable();
    events
}

/// `SimEngine::run` steps while it queues a batch, at most
/// `max_num_seqs + 1` requests at a time, yet traces what queueing the
/// whole batch first traces: every request is offered at 0, and its
/// `enqueue` instant and `queued` span start there, not where the window
/// let it in.
#[test]
fn a_windowed_batch_traces_its_requests_offered_at_the_start() {
    let _g = lock();
    let e = common::engine_with(llmqo::serve::EngineConfig {
        max_num_seqs: 4,
        ..llmqo::serve::EngineConfig::default()
    });
    let requests = common::grouped_requests(12, 6);
    let traced = |run: &dyn Fn()| {
        llmqo_obs::set_enabled(true);
        llmqo_obs::tracer().clear();
        run();
        llmqo_obs::set_enabled(false);
        llmqo_obs::tracer().export_chrome_json()
    };
    let windowed = traced(&|| {
        e.run(&requests).expect("run");
    });
    let whole = traced(&|| {
        let mut session = e.session().expect("session");
        common::run_batch(&e, &mut session, &requests);
        session.finish();
    });
    assert_ne!(windowed, whole, "the window never stepped while queueing");
    let (windowed, whole) = (sorted_events(&windowed), sorted_events(&whole));
    let queued: Vec<&&str> = windowed
        .iter()
        .filter(|e| e.starts_with("queued\""))
        .collect();
    assert_eq!(queued.len(), requests.len());
    let late = queued.iter().find(|e| !e.contains("\"ts\":0,"));
    assert!(late.is_none(), "a queued span starts late: {late:?}");
    assert_eq!(windowed, whole);
}

/// Tokens of each [`chaos_requests`] prompt.
const PROMPT: u64 = 48 + 20;

/// What the kernel's own hasher mixed or skipped on
/// [`chain_counters_cover_every_arrival_and_every_replacement`]'s run: 20
/// re-placed prompts (13 retries and 7 hedges whose primary had ended).
const KERNEL_TOKENS: u64 = 20 * PROMPT;
/// What that run's other 51 hedges copied from their primary's replica.
const COPIED_TOKENS: u64 = 51 * PROMPT;

/// The chain counters sum three sources on a cluster run:
/// `serve.chain.tokens_{hashed,reused}` the helper's hasher, which hashes
/// every arrival's prompt in arrival order (shed arrivals too);
/// `cluster.chain.tokens_{hashed,reused}` the kernel's, which hashes the
/// re-placements a hedge does not copy (retries, and hedges whose primary
/// already ended); `serve.chain.tokens_copied` the chains hedges copied
/// from their live primary's replica. Each of those prompts is counted
/// once, its tokens split between mixed, skipped and copied, on a traced
/// run where crash failover, transient retries, hedges and admission
/// shedding are all live.
#[test]
fn chain_counters_cover_every_arrival_and_every_replacement() {
    let _g = lock();
    let requests = chaos_requests();
    let plan = FaultPlan::seeded(7)
        .crash_restart(1, 0.3, 0.6)
        .transient_errors_ppm(100_000);
    let retry = RetryPolicy::retries(3).with_hedging(0.2);
    let overload = OverloadPolicy::admission(AdmissionPolicy::bounded(12));
    llmqo_obs::set_enabled(true);
    llmqo_obs::registry().reset();
    llmqo_obs::tracer().clear();
    let report = common::cluster_sim(3, 4)
        .run_overloaded(
            &mut PrefixAffinity::bounded(1.25),
            &requests,
            &plan,
            &retry,
            &overload,
        )
        .expect("cluster run");
    llmqo_obs::set_enabled(false);
    let counter = |name| llmqo_obs::registry().counter(name).get();
    let reused = counter("serve.chain.tokens_reused");
    let (helper, kernel, copied) = (
        counter("serve.chain.tokens_hashed") + reused,
        counter("cluster.chain.tokens_hashed") + counter("cluster.chain.tokens_reused"),
        counter("serve.chain.tokens_copied"),
    );
    let (faults, shed) = (&report.faults, report.shed.shed);
    let placed: usize = report.replicas.iter().map(|r| r.assigned).sum();
    // Every first attempt not shed was placed once; the rest re-placed.
    let replacements = placed - (faults.offered - shed);
    assert!(
        shed > 0 && faults.crashes == 1 && faults.transient_errors > 0 && faults.hedges_issued > 0,
        "{faults:?} shed {shed}"
    );
    // A hedge of a live primary copies its chain from that replica; every
    // other placement is hashed, from scratch or resumed: the helper every
    // arrival, the kernel the re-placements left. The helper skips the
    // group prefixes its arrivals share.
    assert!(replacements > 0 && reused > 0 && copied > 0);
    assert_eq!(helper, faults.offered as u64 * PROMPT);
    assert_eq!(
        helper + kernel + copied,
        (faults.offered + replacements) as u64 * PROMPT
    );
    assert_eq!(
        (kernel, copied),
        (KERNEL_TOKENS, COPIED_TOKENS),
        "{faults:?}"
    );
}

/// The SQL twin of the cluster check above: `serve.chain.tokens_{hashed,
/// reused}` sum the hasher of every stage engine a statement opens — one
/// per tier of each LLM operator, however many replicas it fans out to —
/// so together they count every prompt token either tier admitted.
#[test]
fn chain_counters_cover_every_prompt_both_tiers_admit() {
    let _g = lock();
    let ds = Dataset::generate_with_rows(llmqo::datasets::DatasetId::Movies, 120);
    let (_, name, sql) = common::seven_dataset_cases()[0];
    let mut opt = OptimizerConfig::pipelined(3);
    opt.pipeline_batch_rows = 16;
    opt.cascade = Some(CascadeConfig::new(CascadePlan::mini_to_sonnet(0.5, 7)));
    llmqo_obs::set_enabled(true);
    llmqo_obs::registry().reset();
    llmqo_obs::tracer().clear();
    let result = common::run_sql_with_truth(&ds, sql, opt, name, &skewed_truth);
    llmqo_obs::set_enabled(false);
    let counter = |name| llmqo_obs::registry().counter(name).get();
    let (hashed, reused) = (
        counter("serve.chain.tokens_hashed"),
        counter("serve.chain.tokens_reused"),
    );
    // The tier ledger counts each tier's admitted prompt tokens; the cheap
    // tier's is also the operator's engine report.
    let reports = result.stages.iter().map(|s| &s.report);
    assert!(reports
        .clone()
        .all(|r| r.opt.cheap_prompt_tokens == r.engine.total_prompt_tokens));
    let cheap: u64 = reports.clone().map(|r| r.opt.cheap_prompt_tokens).sum();
    let escalated: u64 = reports.map(|r| r.opt.esc_prompt_tokens).sum();
    assert!(
        escalated > 0 && reused > 0,
        "escalated {escalated} reused {reused}"
    );
    assert_eq!(hashed + reused, cheap + escalated);
}

/// Runs `f` with the sinks on and the registry cleared, and returns what
/// it returned with a reader of the counters it left.
fn traced<T>(f: impl FnOnce() -> T) -> (T, impl Fn(&str) -> u64) {
    llmqo_obs::set_enabled(true);
    llmqo_obs::registry().reset();
    llmqo_obs::tracer().clear();
    let out = f();
    llmqo_obs::set_enabled(false);
    (out, |name: &str| llmqo_obs::registry().counter(name).get())
}

/// Each ledger publishes itself once, when it closes, so every counter it
/// publishes equals the report field it mirrors: a session's (through
/// `SimEngine::run`), a cluster run's placement, fault, shed and scale
/// ledgers (with a crash, transient errors, hedging, KV-gate shedding and
/// an autoscaler all live), and an operator's `OptStats`, on a pipelined
/// cascaded statement with faults and on the same query run bare through
/// `execute_with`.
#[test]
fn every_published_counter_equals_its_ledger_field() {
    let _g = lock();
    // A session: everything it was given completed.
    let e = engine();
    let requests = common::grouped_requests(12, 6);
    let (report, counter) = traced(|| e.run(&requests).expect("run"));
    let latency = llmqo_obs::registry().histogram("serve.latency_s").count();
    let n = requests.len() as u64;
    assert_eq!((report.completed as u64, latency), (n, n));
    for (name, field) in [
        ("serve.requests_enqueued", n),
        ("serve.requests_admitted", n),
        ("serve.completions", n),
        ("serve.cached_prompt_tokens", report.cached_prompt_tokens),
        ("serve.output_tokens", report.total_output_tokens),
        ("cache.evictions", report.evictions),
    ] {
        assert_eq!(counter(name), field, "{name}");
    }

    // A cluster run with every ledger engaged.
    let requests = chaos_requests();
    let plan = FaultPlan::seeded(7)
        .crash_restart(0, 0.3, 0.6)
        .transient_errors_ppm(100_000);
    let retry = RetryPolicy::retries(3).with_hedging(0.2);
    let gates = AdmissionPolicy::bounded(64).with_kv_gate(0.01);
    let scale = ScalePolicy::elastic(2, 5)
        .reacting(0.2, 0.02)
        .with_cadence(0.1, 0.5)
        .with_warmup(0.3);
    let overload = OverloadPolicy::admission(gates).with_scale(scale);
    let (report, counter) = traced(|| {
        common::cluster_sim(3, 4)
            .run_overloaded(
                &mut PrefixAffinity::bounded(1.25),
                &requests,
                &plan,
                &retry,
                &overload,
            )
            .expect("cluster run")
    });
    let (faults, shed, scaling) = (&report.faults, &report.shed, &report.scaling);
    assert!(
        faults.crashes == 1
            && faults.transient_errors > 0
            && faults.hedges_issued > 0
            && shed.shed_kv_pressure > 0
            && scaling.scale_ups > 0
            && scaling.scale_downs > 0,
        "{faults:?} {shed:?} {scaling:?}"
    );
    let sum = |f: fn(&llmqo::cluster::ReplicaReport) -> u64| report.replicas.iter().map(f).sum();
    let routed = sum(|r| r.assigned as u64);
    let completed = sum(|r| r.engine.completed as u64);
    let output_tokens = sum(|r| {
        r.completions
            .iter()
            .map(|c| u64::from(c.output_tokens))
            .sum()
    });
    for (name, field) in [
        ("cluster.requests_routed", routed),
        // Every placement is queued on one session.
        ("serve.requests_enqueued", routed),
        ("serve.completions", completed),
        ("serve.output_tokens", output_tokens),
        (
            "serve.cached_prompt_tokens",
            sum(|r| r.engine.cached_prompt_tokens),
        ),
        ("cache.evictions", sum(|r| r.engine.evictions)),
        ("cluster.requests_failed", faults.failed as u64),
        ("cluster.retry.scheduled", faults.retries),
        ("cluster.fault.transient_errors", faults.transient_errors),
        ("cluster.hedge.issued", faults.hedges_issued),
        ("cluster.hedge.won", faults.hedges_won),
        ("cluster.failovers", faults.failovers),
        ("cluster.fault.crashes", faults.crashes),
        ("cluster.fault.restarts", faults.restarts),
        ("cluster.fault.drains", faults.drains),
        ("cluster.requests_shed", shed.shed as u64),
        ("cluster.shed.queue_full", shed.shed_queue_full as u64),
        ("cluster.shed.kv_pressure", shed.shed_kv_pressure as u64),
        ("cluster.shed.tenant_quota", shed.shed_tenant_quota as u64),
        ("cluster.scale.up", scaling.scale_ups),
        ("cluster.scale.down", scaling.scale_downs),
    ] {
        assert_eq!(counter(name), field, "{name}");
    }
    // A crashed incarnation's running requests were admitted, not completed.
    let admitted = counter("serve.requests_admitted");
    assert!(
        (completed..=routed).contains(&admitted),
        "admitted {admitted}"
    );

    // One operator, as a pipelined cascaded statement and bare.
    let mut table = Table::new(Schema::of_strings(&["review"]));
    for i in 0..96 {
        let review = format!("review {} of group {}", i, i % 7);
        table
            .push_row(vec![review.into()])
            .expect("one string column");
    }
    let fds = FunctionalDeps::empty(1);
    let mut opt = OptimizerConfig::pipelined(3);
    opt.pipeline_batch_rows = 16;
    opt.cascade = Some(CascadeConfig::new(CascadePlan::mini_to_sonnet(0.5, 7)));
    opt.faults = Some(StatementFaults::new(300_000, 5).with_attempts(2));
    let query = LlmQuery::filter(
        "sql-where-t",
        "positive?",
        vec!["review".into()],
        vec!["Yes".into(), "No".into()],
        "Yes",
        2.0,
    );
    let (e, sql) = (
        engine(),
        "SELECT review FROM t WHERE LLM('positive?', review) = 'Yes'",
    );
    // A fresh executor each: the answer cache the statement fills would
    // answer the bare run's rows.
    let executor = || QueryExecutor::new(&e, &OracleLlm, Tokenizer::new());
    let statement = || {
        let executor = executor();
        let mut runner = SqlRunner::new(&executor, &OriginalOrder).with_optimizer(opt);
        runner.register("t", &table, &fds);
        let result = runner.run(sql, &common::mod3_truth).expect("statement");
        let stages = result.stages.into_iter();
        stages.map(|s| s.report.opt).collect::<Vec<_>>()
    };
    let bare = || {
        let truth = &common::mod3_truth;
        let out = executor().execute_with(&table, &query, &OriginalOrder, &fds, truth, opt);
        vec![out.expect("bare query").report.opt]
    };
    for (run, batches) in [(&statement as &dyn Fn() -> Vec<OptStats>, 6), (&bare, 1)] {
        let (stats, counter) = traced(run);
        let sum = |f: fn(&OptStats) -> u64| stats.iter().map(f).sum::<u64>();
        assert_eq!(sum(|o| u64::from(o.batches)), batches, "{stats:?}");
        assert!(
            sum(|o| o.rows_escalated) > 0 && sum(|o| o.rows_failed) > 0,
            "{stats:?}"
        );
        for (name, field) in [
            ("sql.stage_batches", sum(|o| u64::from(o.batches))),
            ("sql.llm_calls", sum(|o| o.llm_calls)),
            ("sql.cascade_rows_cheap", sum(|o| o.rows_cheap)),
            ("sql.cascade_rows_escalated", sum(|o| o.rows_escalated)),
            ("sql.rows_failed", sum(|o| o.rows_failed)),
        ] {
            assert_eq!(counter(name), field, "{name}");
        }
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
