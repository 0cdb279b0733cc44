//! Differential contract of pipelined, cluster-parallel SQL execution
//! (ISSUE 8): slicing a statement into overlapped micro-batches and fanning
//! each LLM operator out across a replica group is a *physical* change —
//! results must stay row-for-row identical to the sequential relay and to
//! the optimizations-off oracle on every tier-1 dataset. Likewise,
//! macro-stepping a backpressured cluster phase to the next known timed
//! event must reproduce the single-stepped schedule bit for bit under all
//! four built-in routers, while actually taking macro-steps. And
//! projection pruning never changes results while shrinking prompts.

mod common;

use common::{assert_same_results, engine, run_sql};
use llmqo::cluster::{
    tag_requests, ClusterReport, ClusterRequest, ClusterSim, LeastLoaded, PrefixAffinity,
    RoundRobin, Router,
};
use llmqo::core::{FunctionalDeps, Ggr, Reorderer};
use llmqo::datasets::{Dataset, DatasetId};
use llmqo::relational::{
    encode_table, plan_requests, LlmQuery, OptimizerConfig, QueryExecutor, Schema, SqlResult,
    SqlRunner, StatementFaults, Table,
};
use llmqo::serve::OracleLlm;
use llmqo::tokenizer::Tokenizer;

/// The pipelined config under test: fan-out across 3 replicas with
/// micro-batches small enough that 60-row tables take several.
fn pipelined() -> OptimizerConfig {
    let mut opt = OptimizerConfig::pipelined(3);
    opt.pipeline_batch_rows = 16;
    opt
}

/// Pipelined + fan-out execution returns exactly what the sequential relay
/// and the optimizations-off oracle return, on every tier-1 dataset, for
/// single-filter, multi-filter + LIMIT, and LLM-projection statements built
/// from each dataset's own schema.
#[test]
fn pipelined_matches_sequential_and_oracle_on_all_datasets() {
    for (id, ds) in common::tier1_datasets(60) {
        for sql in &common::generic_statements(&ds) {
            let piped = run_sql(&ds, sql, pipelined(), "t");
            let sequential = run_sql(&ds, sql, OptimizerConfig::all(), "t");
            let oracle = run_sql(&ds, sql, OptimizerConfig::none(), "t");
            let context = format!("{}: {sql}", id.name());
            assert_same_results(&piped, &sequential, &context);
            assert_same_results(&piped, &oracle, &context);
            assert!(
                piped
                    .notes
                    .iter()
                    .any(|n| n.contains("pipelined execution")),
                "{context}: no pipeline runtime note"
            );
        }
    }
}

/// `AVG(LLM(...))` under pipelined fan-out agrees with both baselines, and
/// the pipelined statement's stages all report work (the fan-out merge did
/// not lose replica reports).
#[test]
fn pipelined_aggregate_is_identical_and_merges_replica_reports() {
    let ds = Dataset::generate_with_rows(DatasetId::Movies, 90);
    // The shared truth function answers "Yes" on even rows and a 1–5 score
    // on odd rows; the negated filter keeps the score-bearing rows for AVG.
    let sql = "SELECT AVG(LLM('rate', reviewcontent, movieinfo)) AS score FROM movies \
               WHERE LLM('keep?', movietitle) <> 'Yes'";
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let run = |opt: OptimizerConfig| {
        let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(opt);
        runner.register("movies", &ds.table, &ds.fds);
        let truth = |row: usize| {
            if row.is_multiple_of(2) {
                "Yes".to_string()
            } else {
                ((row % 5) + 1).to_string()
            }
        };
        runner.run(sql, &truth).unwrap()
    };
    let piped = run(pipelined());
    let sequential = run(OptimizerConfig::all());
    let oracle = run(OptimizerConfig::none());
    assert_same_results(&piped, &sequential, sql);
    assert_same_results(&piped, &oracle, sql);
    assert!(piped.aggregate.is_some());
    for stage in &piped.stages {
        assert!(stage.report.engine.completed > 0, "stage lost completions");
        assert!(stage.report.engine.job_completion_time_s > 0.0);
    }
}

/// EXPLAIN ANALYZE under pipelined execution renders the per-node overlap
/// columns and the pipeline footer; the classic relay rendering carries
/// neither.
#[test]
fn explain_analyze_shows_overlap_stats_only_when_pipelined() {
    let ds = Dataset::generate_with_rows(DatasetId::Products, 50);
    let sql = "EXPLAIN ANALYZE SELECT product_title FROM products \
               WHERE LLM('useful?', text) = 'Yes' AND LLM('real?', review_title) = 'Yes'";
    let piped = run_sql(&ds, sql, pipelined(), "products");
    let text = |r: &SqlResult| {
        r.rows
            .iter()
            .map(|row| row.join(""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let piped_text = text(&piped);
    assert!(
        piped_text.contains("busy "),
        "missing overlap: {piped_text}"
    );
    assert!(
        piped_text.contains("done "),
        "missing overlap: {piped_text}"
    );
    assert!(
        piped_text.contains("-- pipeline: replicas 3, micro-batch 16 rows, makespan "),
        "missing pipeline footer: {piped_text}"
    );
    let relay = run_sql(&ds, sql, OptimizerConfig::all(), "products");
    let relay_text = text(&relay);
    assert!(
        !relay_text.contains("busy "),
        "relay gained overlap columns"
    );
    assert!(!relay_text.contains("-- pipeline:"), "relay gained footer");
}

// ---------------------------------------------------------------------------
// Macro-stepped backpressure ≡ single-stepped oracle
// ---------------------------------------------------------------------------

/// A duplicate-heavy GGR-reordered workload tagged with depth-1 prefix
/// keys, arriving in bursts of `burst` every `gap_s` seconds — the
/// batch-arrival shape that keeps tight queues backpressured for most of
/// the sweep.
fn bursty_workload(rows: usize, burst: usize, gap_s: f64) -> Vec<ClusterRequest> {
    let mut table = Table::new(Schema::of_strings(&["review", "product"]));
    for i in 0..rows {
        table
            .push_row(vec![
                format!("review {i}: unique words about delivery {}", i % 7).into(),
                format!(
                    "Product {} — long shared description with warranty terms \
                     and compatibility notes for the optimizer",
                    i / 6
                )
                .into(),
            ])
            .unwrap();
    }
    let query = LlmQuery::filter(
        "pipeline-differential",
        "Is the review positive? Answer ONLY 'Yes' or 'No'.",
        vec!["product".into(), "review".into()],
        vec!["Yes".into(), "No".into()],
        "Yes",
        2.0,
    );
    let encoded = encode_table(&Tokenizer::new(), &table, &query).unwrap();
    let solution = Ggr::default()
        .reorder(&encoded.reorder, &FunctionalDeps::empty(2))
        .unwrap();
    let requests = plan_requests(&encoded, &solution.plan, &query);
    let keys = solution.plan.prefix_keys(&encoded.reorder, 1);
    let mut tagged = tag_requests(requests, &keys);
    for (i, r) in tagged.iter_mut().enumerate() {
        r.arrival_s = (i / burst) as f64 * gap_s;
    }
    tagged
}

fn tight_sim(replicas: usize, queue_cap: usize) -> ClusterSim {
    common::cluster_sim(replicas, queue_cap)
}

/// Acceptance: batch-arrival sweeps through backpressure macro-step (the
/// counter is non-zero) and still produce reports equal to the
/// single-stepped oracle, under all four built-in routers.
#[test]
fn macro_stepped_backpressure_equals_single_stepped_under_all_routers() {
    type MakeRouter = fn() -> Box<dyn Router>;
    let requests = bursty_workload(72, 24, 1.5);
    let routers: [(&str, MakeRouter); 4] = [
        ("round-robin", || Box::new(RoundRobin)),
        ("least-loaded", || Box::new(LeastLoaded)),
        ("prefix-affinity", || Box::new(PrefixAffinity::default())),
        ("prefix-affinity-bounded", || {
            Box::new(PrefixAffinity::bounded(1.25))
        }),
    ];
    for (name, make) in routers {
        let coarse: ClusterReport = tight_sim(2, 1).run(&mut *make(), &requests).unwrap();
        let fine: ClusterReport = tight_sim(2, 1)
            .single_stepped()
            .run(&mut *make(), &requests)
            .unwrap();
        assert_eq!(coarse, fine, "{name}: macro-stepping changed the schedule");
        assert_eq!(coarse.completed, requests.len(), "{name} lost requests");
        assert!(
            coarse.backpressure_macro_steps > 0,
            "{name}: backpressured phases still single-step"
        );
        assert_eq!(
            fine.backpressure_macro_steps, 0,
            "{name}: the oracle must not macro-step"
        );
    }
}

// ---------------------------------------------------------------------------
// Projection pruning
// ---------------------------------------------------------------------------

/// Star-expanded LLM calls pruned to the statement's referenced columns
/// return the oracle's rows while reading strictly fewer prompt tokens per
/// request; star *projections* (which read every column by construction)
/// are never pruned.
#[test]
fn projection_pruning_is_result_identical_and_reads_fewer_tokens() {
    let ds = Dataset::generate_with_rows(DatasetId::Movies, 80);
    let sql = "SELECT movietitle FROM movies WHERE LLM('kids?', movies.*) = 'Yes' LIMIT 20";
    let pruned = run_sql(&ds, sql, OptimizerConfig::all(), "movies");
    let oracle = run_sql(&ds, sql, OptimizerConfig::none(), "movies");
    assert_same_results(&pruned, &oracle, sql);
    assert!(
        pruned
            .notes
            .iter()
            .any(|n| n.contains("prune sql-where-movies")),
        "missing prune rewrite note: {:?}",
        pruned.notes
    );
    // Dedup and lazy `LIMIT` change how many requests go out, so compare
    // what each request reads.
    let tokens_per_request = |r: &SqlResult| -> f64 {
        let engine = r.stages.iter().map(|s| &s.report.engine);
        let tokens: u64 = engine.clone().map(|e| e.total_prompt_tokens).sum();
        let requests: usize = engine.map(|e| e.completed).sum();
        tokens as f64 / requests as f64
    };
    assert!(
        tokens_per_request(&pruned) < tokens_per_request(&oracle),
        "pruning did not shrink prompts: {} vs {}",
        tokens_per_request(&pruned),
        tokens_per_request(&oracle)
    );

    // A star projection reads the whole row; nothing is provably ignored.
    let star = "SELECT LLM('summarize', movies.*) AS s FROM movies LIMIT 5";
    let a = run_sql(&ds, star, OptimizerConfig::all(), "movies");
    assert!(
        !a.notes.iter().any(|n| n.contains("prune")),
        "star projections must not be pruned: {:?}",
        a.notes
    );
    let b = run_sql(&ds, star, OptimizerConfig::none(), "movies");
    assert_same_results(&a, &b, star);
}

// ---------------------------------------------------------------------------
// Pipeline × chaos composition
// ---------------------------------------------------------------------------

fn with_faults(mut opt: OptimizerConfig, faults: StatementFaults) -> OptimizerConfig {
    opt.faults = Some(faults);
    opt
}

/// Every original row that exhausted the fault budget, across all the
/// statement's LLM operators, sorted. The note *strings* legitimately
/// differ between physical modes (pipelined execution annotates per
/// micro-batch, the relay per operator); the row *set* must not.
fn degraded_rows(r: &SqlResult) -> Vec<usize> {
    let mut rows: Vec<usize> = r
        .stages
        .iter()
        .flat_map(|s| s.failed_rows.iter().copied())
        .collect();
    rows.sort_unstable();
    rows
}

/// Zero-loss ledger: every row offered to an LLM operator is either
/// answered (an output record) or recorded in the failed-rows ledger —
/// nothing vanishes, under fan-out exactly as under the relay.
fn assert_stage_ledgers(r: &SqlResult, context: &str) {
    for (i, stage) in r.stages.iter().enumerate() {
        assert_eq!(
            stage.outputs.len() + stage.failed_rows.len(),
            stage.report.opt.rows_in as usize,
            "{context}: stage {i} lost rows \
             (outputs {} + failed {} != offered {})",
            stage.outputs.len(),
            stage.failed_rows.len(),
            stage.report.opt.rows_in
        );
        for row in &stage.failed_rows {
            assert!(
                !stage.outputs.iter().any(|o| o.row == *row),
                "{context}: stage {i} row {row} is both failed and answered"
            );
        }
    }
}

/// Statement fault injection composes with pipelined fan-out: the failure
/// rolls are pure in (seed, original row, attempt) — independent of which
/// replica served the call — so a faulty pipelined run returns exactly the
/// faulty sequential relay's rows, drops exactly the same degraded rows,
/// and keeps the zero-loss ledger on every tier-1 dataset.
#[test]
fn pipelined_fanout_under_faults_matches_sequential_and_loses_no_rows() {
    let faults = StatementFaults::new(200_000, 11).with_attempts(2);
    let mut total_retries = 0u64;
    let mut total_failed = 0usize;
    for id in DatasetId::all() {
        let ds = Dataset::generate_with_rows(id, 60);
        let names = ds.table.schema().names();
        let (c0, c1) = (names[0].to_string(), names[1 % names.len()].to_string());
        let sql = format!(
            "SELECT {c0} FROM t WHERE LLM('a?', {c0}, {c1}) = 'Yes' \
             AND LLM('b?', {c1}) <> 'No'"
        );
        let piped = run_sql(&ds, &sql, with_faults(pipelined(), faults), "t");
        let sequential = run_sql(&ds, &sql, with_faults(OptimizerConfig::all(), faults), "t");
        let context = format!("{}: {sql}", id.name());
        assert_same_results(&piped, &sequential, &context);
        assert_eq!(
            degraded_rows(&piped),
            degraded_rows(&sequential),
            "{context}: degraded-row sets diverged"
        );
        assert_stage_ledgers(&piped, &context);
        assert_stage_ledgers(&sequential, &context);
        assert!(
            piped
                .notes
                .iter()
                .any(|n| n.contains("pipelined execution")),
            "{context}: fault injection disabled the pipeline"
        );
        total_retries += piped
            .stages
            .iter()
            .map(|s| s.report.opt.llm_retries)
            .sum::<u64>();
        total_failed += piped
            .stages
            .iter()
            .map(|s| s.failed_rows.len())
            .sum::<usize>();
    }
    assert!(total_retries > 0, "fault injection never engaged");
    assert!(
        total_failed > 0,
        "no row ever exhausted the budget — the degraded path went untested"
    );
}

/// `AVG(LLM(...))` under fan-out + faults: the aggregate is computed over
/// the surviving rows only, identically to the sequential relay.
#[test]
fn pipelined_aggregate_under_faults_matches_sequential() {
    let ds = Dataset::generate_with_rows(DatasetId::Movies, 90);
    let sql = "SELECT AVG(LLM('rate', reviewcontent)) AS score FROM movies \
               WHERE LLM('keep?', movietitle) <> 'Yes'";
    let faults = StatementFaults::new(250_000, 5).with_attempts(2);
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let run = |opt: OptimizerConfig| {
        let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(opt);
        runner.register("movies", &ds.table, &ds.fds);
        let truth = |row: usize| {
            if row.is_multiple_of(2) {
                "Yes".to_string()
            } else {
                ((row % 5) + 1).to_string()
            }
        };
        runner.run(sql, &truth).unwrap()
    };
    let piped = run(with_faults(pipelined(), faults));
    let sequential = run(with_faults(OptimizerConfig::all(), faults));
    assert_same_results(&piped, &sequential, sql);
    assert_eq!(degraded_rows(&piped), degraded_rows(&sequential));
    assert_stage_ledgers(&piped, sql);
    assert!(piped.aggregate.is_some(), "aggregate lost under faults");
}

/// Strict fault mode (no partial results) composes too: when a row
/// exhausts its budget, the pipelined statement fails with exactly the
/// same typed error — same row, same attempt count — as the sequential
/// relay, instead of wedging a replica group.
#[test]
fn pipelined_strict_faults_fail_identically_to_sequential() {
    let ds = Dataset::generate_with_rows(DatasetId::Products, 60);
    let sql = "SELECT product_title FROM products WHERE LLM('useful?', text) = 'Yes'";
    let faults = StatementFaults::new(400_000, 3).with_attempts(1).strict();
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let run = |opt: OptimizerConfig| {
        let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(opt);
        runner.register("products", &ds.table, &ds.fds);
        let truth = |row: usize| {
            if row.is_multiple_of(3) {
                "Yes".to_string()
            } else {
                "No".to_string()
            }
        };
        runner.run(sql, &truth)
    };
    let piped = run(with_faults(pipelined(), faults));
    let sequential = run(with_faults(OptimizerConfig::all(), faults));
    let piped_err = piped
        .expect_err("40% error rate on one attempt must fail")
        .to_string();
    let sequential_err = sequential
        .expect_err("sequential must fail too")
        .to_string();
    assert_eq!(
        piped_err, sequential_err,
        "fan-out changed which row failed first"
    );
    assert!(
        piped_err.contains("unavailable") || piped_err.contains("attempt"),
        "not the typed LLM-unavailable error: {piped_err}"
    );
}

/// Pruning composes with pipelined fan-out: the full stack (prune +
/// micro-batches + replicas) still equals the oracle.
#[test]
fn pruning_composes_with_pipelined_fanout() {
    let ds = Dataset::generate_with_rows(DatasetId::Bird, 66);
    let sql = "SELECT PostId FROM bird \
               WHERE LLM('stats?', bird.*) = 'Yes' AND LLM('old?', PostDate) <> 'Yes'";
    let piped = run_sql(&ds, sql, pipelined(), "bird");
    let oracle = run_sql(&ds, sql, OptimizerConfig::none(), "bird");
    assert_same_results(&piped, &oracle, sql);
    assert!(piped.notes.iter().any(|n| n.contains("prune")));
    assert!(piped
        .notes
        .iter()
        .any(|n| n.contains("pipelined execution")));
}
