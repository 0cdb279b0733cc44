//! `Stage::run_batch` is the one door to the LLM: a bare
//! `QueryExecutor::execute` and a one-operator SQL statement running the
//! same query go through it, so with observability on they emit the same
//! `op.<query>` executor span and the same `sql.*` counters.
//!
//! The sinks are process-global and this binary holds one test; a second
//! one here would have to serialize with it.

mod common;

use common::{engine, mod3_truth};
use llmqo::core::{FunctionalDeps, OriginalOrder};
use llmqo::relational::{LlmQuery, OptimizerConfig, QueryExecutor, Schema, SqlRunner, Table};
use llmqo::serve::OracleLlm;
use llmqo::tokenizer::Tokenizer;

/// Runs `f` with the sinks on and freshly cleared, and returns what it
/// recorded: the `op.*` spans of the trace buffer, in recording order, and
/// the `sql.stage_batches` and `sql.llm_calls` counters.
fn observed(f: impl FnOnce()) -> (Vec<String>, u64, u64) {
    llmqo_obs::registry().reset();
    llmqo_obs::tracer().clear();
    llmqo_obs::set_enabled(true);
    f();
    llmqo_obs::set_enabled(false);
    let json = llmqo_obs::tracer().export_chrome_json();
    let spans = json
        .split("{\"name\":\"")
        .filter(|event| event.starts_with("op."))
        .map(|event| event.trim_end_matches(',').to_owned())
        .collect();
    let counter = |name: &str| llmqo_obs::registry().counter(name).get();
    (
        spans,
        counter("sql.stage_batches"),
        counter("sql.llm_calls"),
    )
}

#[test]
fn bare_execute_emits_the_span_and_counters_of_a_one_operator_statement() {
    const ROWS: usize = 40;
    let mut table = Table::new(Schema::of_strings(&["review"]));
    for i in 0..ROWS {
        table
            .push_row(vec![format!("review number {i}, in its own words").into()])
            .expect("one string column");
    }
    let fds = FunctionalDeps::empty(1);

    let via_sql = observed(|| {
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let mut runner =
            SqlRunner::new(&executor, &OriginalOrder).with_optimizer(OptimizerConfig::none());
        runner.register("t", &table, &fds);
        let result = runner
            .run(
                "SELECT review FROM t WHERE LLM('positive?', review) = 'Yes'",
                &mod3_truth,
            )
            .expect("statement runs");
        assert_eq!(result.stages[0].report.query, "sql-where-t");
    });

    // The query the statement compiled to, run bare.
    let query = LlmQuery::filter(
        "sql-where-t",
        "positive?",
        vec!["review".into()],
        vec!["Yes".into(), "No".into()],
        "Yes",
        2.0,
    );
    let bare = observed(|| {
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        executor
            .execute(&table, &query, &OriginalOrder, &fds, &mod3_truth)
            .expect("query runs");
    });

    assert_eq!(via_sql.0.len(), 1, "one operator, one batch: {via_sql:?}");
    assert!(via_sql.0[0].contains(&format!("\"rows\":{ROWS},\"llm_calls\":{ROWS}")));
    assert_eq!((via_sql.1, via_sql.2), (1, ROWS as u64));
    assert_eq!(bare, via_sql);
}
