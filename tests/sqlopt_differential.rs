//! Differential contract of the SQL-aware logical optimizer (ISSUE 3):
//! with every optimization on, query results are row-for-row identical to
//! the optimizations-off oracle on all tier-1 datasets, while the
//! `ExecutionReport` shows the savings — ≥30% fewer LLM calls on
//! duplicate-heavy filters and strictly fewer engine requests under
//! `LIMIT k` than full materialization.

mod common;

use common::{engine, mod3_truth, run_sql};
use llmqo::core::Ggr;
use llmqo::costmodel::CascadePlan;
use llmqo::datasets::{Dataset, DatasetId};
use llmqo::relational::{
    CascadeConfig, LlmQuery, OptLevel, OptimizerConfig, QueryExecutor, QueryOutput, SqlResult,
    SqlRunner,
};
use llmqo::serve::OracleLlm;
use llmqo::tokenizer::Tokenizer;

/// Dedup at the executor level: byte-identical outputs for every query of
/// every tier-1 dataset, never more engine requests than rows.
#[test]
fn dedup_execution_is_output_identical_on_all_datasets() {
    for (id, ds) in common::tier1_datasets(80) {
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        for query in &ds.queries {
            let truth = ds.truth_fn(query);
            let off = executor
                .execute(&ds.table, query, &solver, &ds.fds, &truth)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", id.name(), query.name));
            let on = executor
                .execute_with(
                    &ds.table,
                    query,
                    &solver,
                    &ds.fds,
                    &truth,
                    OptimizerConfig::static_only(),
                )
                .unwrap_or_else(|e| panic!("{}/{}: {e}", id.name(), query.name));
            assert_eq!(
                off.outputs,
                on.outputs,
                "{}/{}: dedup changed outputs",
                id.name(),
                query.name
            );
            assert_eq!(off.selected_rows, on.selected_rows, "{}", query.name);
            assert_eq!(off.aggregate, on.aggregate, "{}", query.name);
            assert!(
                on.report.opt.llm_calls <= off.report.opt.llm_calls,
                "{}/{}: dedup issued more requests",
                id.name(),
                query.name
            );
            assert_eq!(
                on.report.opt.llm_calls + on.report.opt.rows_deduped,
                on.report.opt.rows_in,
                "{}/{}: dedup accounting",
                id.name(),
                query.name
            );
        }
    }
}

/// SQL statements with conjunctive WHERE clauses, negation, projections and
/// LIMIT: the optimized plans return exactly what the oracle returns.
#[test]
fn sql_optimizer_is_result_identical_on_movies_products_bird() {
    let cases: &[(DatasetId, &str, &[&str])] = &[
        (
            DatasetId::Movies,
            "movies",
            &[
                "SELECT movietitle FROM movies \
                 WHERE LLM('kids?', movieinfo, reviewcontent, movietitle) = 'Yes'",
                "SELECT movietitle FROM movies \
                 WHERE LLM('kids?', reviewcontent, movieinfo) = 'Yes' \
                 AND reviewtype = 'Fresh' \
                 AND LLM('fresh?', reviewtype, topcritic) = 'Yes' LIMIT 7",
                "SELECT LLM('summarize', movieinfo, reviewcontent) AS s FROM movies \
                 WHERE LLM('keep?', reviewcontent) <> 'No' LIMIT 5",
            ],
        ),
        (
            DatasetId::Products,
            "products",
            &[
                "SELECT product_title FROM products \
                 WHERE LLM('useful?', text, review_title) = 'Yes' \
                 AND verified_purchase = 'true' LIMIT 10",
                "SELECT product_title FROM products \
                 WHERE rating >= '4' AND LLM('positive?', rating, verified_purchase) = 'Yes'",
            ],
        ),
        (
            DatasetId::Bird,
            "bird",
            &["SELECT PostId FROM bird \
                 WHERE LLM('stats?', Body, Text) = 'Yes' AND LLM('old?', PostDate) <> 'Yes' \
                 LIMIT 6"],
        ),
    ];
    for &(id, name, statements) in cases {
        let ds = Dataset::generate_with_rows(id, 120);
        for sql in statements {
            let on = run_sql(&ds, sql, OptimizerConfig::all(), name);
            let off = run_sql(&ds, sql, OptimizerConfig::none(), name);
            assert_eq!(on.columns, off.columns, "{sql}");
            assert_eq!(on.rows, off.rows, "optimizer changed results for {sql}");
            assert_eq!(on.aggregate, off.aggregate, "{sql}");
        }
    }
}

/// AVG over a WHERE-filtered row set agrees between optimizer modes.
#[test]
fn sql_optimizer_is_aggregate_identical() {
    let ds = Dataset::generate_with_rows(DatasetId::Movies, 90);
    let sql = "SELECT AVG(LLM('rate', reviewcontent, movieinfo)) AS score FROM movies \
               WHERE topcritic = 'true'";
    let run = |opt: OptimizerConfig| {
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(opt);
        runner.register("movies", &ds.table, &ds.fds);
        let truth = |row: usize| ((row % 5) + 1).to_string();
        runner.run(sql, &truth).unwrap()
    };
    let on = run(OptimizerConfig::all());
    let off = run(OptimizerConfig::none());
    assert_eq!(on.aggregate, off.aggregate);
    assert_eq!(on.rows, off.rows);
    assert!(on.aggregate.is_some());
    assert!(
        on.stages[0].report.opt.rows_in < ds.table.nrows() as u64,
        "the SQL predicate should have narrowed the aggregate's input"
    );
}

/// Acceptance: ≥30% fewer LLM calls on duplicate-heavy filter queries.
#[test]
fn dedup_saves_at_least_30_percent_on_duplicate_heavy_filters() {
    let cases: &[(DatasetId, &str, &str)] = &[
        (
            DatasetId::Movies,
            "movies",
            "SELECT movietitle FROM movies WHERE LLM('fresh?', reviewtype, topcritic) = 'Yes'",
        ),
        (
            DatasetId::Products,
            "products",
            "SELECT product_title FROM products \
             WHERE LLM('verified?', verified_purchase, rating) = 'Yes'",
        ),
        (
            DatasetId::Bird,
            "bird",
            "SELECT PostId FROM bird WHERE LLM('stats?', Body, PostDate, PostId) = 'Yes'",
        ),
    ];
    for &(id, name, sql) in cases {
        let ds = Dataset::generate_with_rows(id, 150);
        let on = run_sql(&ds, sql, OptimizerConfig::all(), name);
        let off = run_sql(&ds, sql, OptimizerConfig::none(), name);
        assert_eq!(on.rows, off.rows, "{sql}");
        let (on_calls, off_calls) = (
            on.stages[0].report.opt.llm_calls,
            off.stages[0].report.opt.llm_calls,
        );
        assert_eq!(off_calls, 150);
        assert!(
            on_calls * 10 <= off_calls * 7,
            "{}: {on_calls} calls vs {off_calls} is < 30% savings",
            id.name()
        );
        assert!(on.stages[0].report.opt.prefill_tokens_saved > 0);
    }
}

/// Acceptance: strictly fewer engine requests under `LIMIT k` than full
/// materialization.
#[test]
fn lazy_limit_uses_strictly_fewer_engine_requests() {
    let ds = Dataset::generate_with_rows(DatasetId::Movies, 250);
    let sql = "SELECT movietitle FROM movies \
               WHERE LLM('kids?', movieinfo, reviewcontent) = 'Yes' LIMIT 5";
    let on = run_sql(&ds, sql, OptimizerConfig::all(), "movies");
    let off = run_sql(&ds, sql, OptimizerConfig::none(), "movies");
    assert_eq!(on.rows, off.rows);
    assert_eq!(on.rows.len(), 5);
    let total = |r: &SqlResult| -> u64 { r.stages.iter().map(|s| s.report.opt.llm_calls).sum() };
    assert!(
        total(&on) < total(&off),
        "lazy {} vs full {}",
        total(&on),
        total(&off)
    );
    // Fewer requests ⇒ fewer engine completions too.
    let completed =
        |r: &SqlResult| -> usize { r.stages.iter().map(|s| s.report.engine.completed).sum() };
    assert!(completed(&on) < completed(&off));
}

/// EXPLAIN shows the rewrites without executing anything.
#[test]
fn explain_surfaces_rewrites_on_a_dataset_statement() {
    let ds = Dataset::generate_with_rows(DatasetId::Movies, 60);
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver);
    runner.register("movies", &ds.table, &ds.fds);
    let text = runner
        .explain(
            "SELECT movietitle FROM movies \
             WHERE LLM('kids?', movieinfo, reviewcontent) = 'Yes' \
             AND reviewtype = 'Fresh' LIMIT 10",
        )
        .unwrap();
    assert!(text.contains("Limit 10"));
    assert!(text.contains("SqlFilter reviewtype = 'Fresh'"));
    assert!(text.contains("LlmFilter sql-where-movies"));
    assert!(text.contains("-- rewrite: reordered WHERE"));
}

/// The filter `SELECT movietitle FROM movies WHERE LLM('<prompt>',
/// <fields>) = 'Yes'` compiles to, run bare on a fresh executor under
/// `opt`, with the solver's host time zeroed.
fn bare_movies_filter(
    ds: &Dataset,
    prompt: &str,
    fields: &[&str],
    opt: OptimizerConfig,
) -> QueryOutput {
    let query = LlmQuery::filter(
        "sql-where-movies",
        prompt,
        fields.iter().map(|f| f.to_string()).collect(),
        vec!["Yes".into(), "No".into()],
        "Yes",
        2.0,
    );
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut out = executor
        .execute_with(&ds.table, &query, &solver, &ds.fds, &mod3_truth, opt)
        .unwrap();
    out.report.solve_time_s = 0.0;
    out
}

/// A bare `execute_with` runs the same stage a SQL operator does: under
/// every level and under a cascade, its output equals the stage output of
/// the one-filter statement that compiles to the same query (one batch of
/// every row, since there is no `LIMIT` and no second filter). The fields
/// repeat across rows, so the levels from `Static` up dedup.
#[test]
fn bare_execute_with_equals_the_one_filter_statement_stage() {
    let ds = Dataset::generate_with_rows(DatasetId::Movies, 120);
    let (prompt, fields) = ("fresh?", ["movietitle", "reviewtype", "topcritic"]);
    let sql = format!(
        "SELECT movietitle FROM movies WHERE LLM('{prompt}', {}) = 'Yes'",
        fields.join(", ")
    );
    let cascade = CascadeConfig::new(CascadePlan::mini_to_sonnet(0.5, 7));
    let configs = [
        ("none", OptimizerConfig::none()),
        ("static_only", OptimizerConfig::static_only()),
        ("all", OptimizerConfig::all()),
        (
            "off + cascade",
            OptimizerConfig {
                cascade: Some(cascade),
                ..OptimizerConfig::none()
            },
        ),
        ("cascaded", OptimizerConfig::cascaded(cascade)),
    ];
    for (name, opt) in configs {
        let statement = run_sql(&ds, &sql, opt, "movies");
        let [mut stage] = <[QueryOutput; 1]>::try_from(statement.stages).unwrap();
        stage.report.solve_time_s = 0.0;
        let dedups = opt.level >= OptLevel::Static;
        assert_eq!(stage.report.opt.rows_deduped > 0, dedups, "{name}");
        assert_eq!(
            stage.report.opt.rows_escalated > 0,
            opt.cascade.is_some(),
            "{name}"
        );
        assert_eq!(
            bare_movies_filter(&ds, prompt, &fields, opt),
            stage,
            "{name}"
        );
    }
}

/// A bare `execute_with` under `pipelined(3)` fans the query out over three
/// replica sessions: the same rows and optimizer ledger as one session
/// under `all()`, outputs equal to `none()`'s, and a shorter makespan.
#[test]
fn bare_execute_with_fans_out_over_pipeline_replicas() {
    let ds = Dataset::generate_with_rows(DatasetId::Movies, 120);
    let run = |opt| bare_movies_filter(&ds, "kids?", &["movieinfo", "reviewcontent"], opt);
    let (fanned, single) = (
        run(OptimizerConfig::pipelined(3)),
        run(OptimizerConfig::all()),
    );
    let oracle = run(OptimizerConfig::none());
    assert_eq!(fanned.outputs, oracle.outputs);
    assert_eq!(fanned.selected_rows, oracle.selected_rows);
    assert_eq!(fanned.report.opt, single.report.opt);
    assert_eq!(
        fanned.report.engine.completed,
        single.report.engine.completed
    );
    assert!(
        fanned.report.engine.job_completion_time_s < single.report.engine.job_completion_time_s,
        "three replicas finish sooner than one: {} vs {}",
        fanned.report.engine.job_completion_time_s,
        single.report.engine.job_completion_time_s
    );
}
