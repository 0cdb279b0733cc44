//! Tests of the SQL front end through its public surface — `parse_sql`,
//! `SqlRunner::run`, `SqlRunner::explain` — compiled from `sql.rs` under
//! `#[cfg(test)]`. Lexer and parser properties live in `parse.rs`, the
//! batch-boundary tables in `schedule.rs`.

use super::*;
use crate::optimizer::CmpOp;
use crate::schema::Schema;
use llmqo_core::Ggr;
use llmqo_serve::{Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, OracleLlm, SimEngine};
use llmqo_tokenizer::Tokenizer;

#[test]
fn parses_filter_statement() {
    let stmt = parse_sql(
        "SELECT movietitle FROM movies \
         WHERE LLM('kids?', movieinfo, reviewcontent) = 'Yes'",
    )
    .unwrap();
    assert_eq!(stmt.table, "movies");
    assert_eq!(
        stmt.projection,
        Projection::Columns(vec!["movietitle".into()])
    );
    assert!(!stmt.explain);
    match &stmt.where_clause[..] {
        [WhereConjunct::Llm {
            call,
            label,
            negated,
        }] => {
            assert_eq!(call.prompt, "kids?");
            assert_eq!(call.fields, vec!["movieinfo", "reviewcontent"]);
            assert_eq!(label, "Yes");
            assert!(!negated);
        }
        other => panic!("unexpected where clause {other:?}"),
    }
}

#[test]
fn parses_projection_with_star_and_alias() {
    let stmt = parse_sql("SELECT LLM('Summarize: ', pr.*) AS summary FROM pr").unwrap();
    match stmt.projection {
        Projection::Llm { call, alias } => {
            assert!(call.star);
            assert_eq!(alias.as_deref(), Some("summary"));
        }
        other => panic!("unexpected projection {other:?}"),
    }
}

#[test]
fn parses_aggregation() {
    let stmt =
        parse_sql("SELECT AVG(LLM('Rate 1-5', reviewcontent)) AS score FROM movies").unwrap();
    assert!(matches!(stmt.projection, Projection::AvgLlm { .. }));
}

#[test]
fn parses_negated_predicate_and_limit() {
    let stmt =
        parse_sql("SELECT * FROM t WHERE LLM('sentiment', review) <> 'NEGATIVE' LIMIT 5").unwrap();
    assert!(matches!(
        stmt.where_clause[0],
        WhereConjunct::Llm { negated: true, .. }
    ));
    assert_eq!(stmt.limit, Some(5));
}

#[test]
fn parses_conjunctions_of_sql_and_llm_predicates() {
    let stmt = parse_sql(
        "SELECT a FROM t WHERE LLM('x?', a) = 'Yes' AND b = 'k' \
         AND score >= 3.5 AND LLM('y?', b) <> 'No' AND n < 10",
    )
    .unwrap();
    assert_eq!(stmt.where_clause.len(), 5);
    assert!(matches!(
        &stmt.where_clause[1],
        WhereConjunct::Sql(SqlPredicate { column, op: CmpOp::Eq, literal })
            if column == "b" && literal == "k"
    ));
    assert!(matches!(
        &stmt.where_clause[2],
        WhereConjunct::Sql(SqlPredicate { op: CmpOp::Ge, literal, .. }) if literal == "3.5"
    ));
    assert!(matches!(
        &stmt.where_clause[3],
        WhereConjunct::Llm { negated: true, .. }
    ));
    assert!(matches!(
        &stmt.where_clause[4],
        WhereConjunct::Sql(SqlPredicate { op: CmpOp::Lt, .. })
    ));
}

#[test]
fn parses_explain_prefix() {
    let stmt = parse_sql("EXPLAIN SELECT a FROM t LIMIT 2").unwrap();
    assert!(stmt.explain);
    assert_eq!(stmt.limit, Some(2));
}

#[test]
fn string_escapes_and_case_insensitive_keywords() {
    let stmt = parse_sql("select llm('it''s fine', a) from t").unwrap();
    match stmt.projection {
        Projection::Llm { call, .. } => assert_eq!(call.prompt, "it's fine"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn qualified_field_names_are_stripped() {
    let stmt = parse_sql("SELECT LLM('x', r.review, p.title) FROM rp").unwrap();
    match stmt.projection {
        Projection::Llm { call, .. } => {
            assert_eq!(call.fields, vec!["review", "title"]);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn parse_errors_carry_offsets() {
    let err = parse_sql("SELECT FROM t").unwrap_err();
    assert!(matches!(err, SqlError::Parse { .. }));
    assert!(!err.to_string().is_empty());
    assert!(parse_sql("SELECT a FROM t WHERE LLM('x' a) = 'Y'").is_err());
    assert!(parse_sql("SELECT a FROM t trailing garbage = ").is_err());
    assert!(parse_sql("SELECT a FROM t WHERE LLM('unterminated) = 'Y'").is_err());
    assert!(parse_sql("SELECT a FROM t WHERE b = ").is_err());
    assert!(parse_sql("SELECT a FROM t LIMIT 3.5").is_err());
}

fn fixture() -> (Table, FunctionalDeps) {
    let mut t = Table::new(Schema::of_strings(&["review", "product"]));
    for i in 0..30 {
        t.push_row(vec![
            format!("review {i} with details").into(),
            format!("product {}", i / 10).into(),
        ])
        .unwrap();
    }
    (t, FunctionalDeps::empty(2))
}

fn engine() -> SimEngine {
    SimEngine::new(
        Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
        EngineConfig::default(),
    )
}

#[test]
fn runs_filter_statement_end_to_end() {
    let (table, fds) = fixture();
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver);
    runner.register("tickets", &table, &fds);
    let truth = |row: usize| {
        if row.is_multiple_of(2) {
            "Yes".into()
        } else {
            "No".into()
        }
    };
    let res = runner
        .run(
            "SELECT review FROM tickets WHERE LLM('good?', review, product) = 'Yes'",
            &truth,
        )
        .unwrap();
    assert_eq!(res.columns, vec!["review"]);
    assert_eq!(res.rows.len(), 15);
    assert!(res.rows[0][0].starts_with("review 0"));
    assert_eq!(res.stages.len(), 1);
}

#[test]
fn runs_projection_over_filtered_rows() {
    let (table, fds) = fixture();
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver);
    runner.register("t", &table, &fds);
    // Oracle truth: filter keeps rows < 10; projection echoes summaries.
    let truth = |row: usize| {
        if row < 10 {
            "Yes".to_string()
        } else {
            "No".to_string()
        }
    };
    let res = runner
        .run(
            "SELECT LLM('summarize', review, product) AS s FROM t \
             WHERE LLM('keep?', review) = 'Yes'",
            &truth,
        )
        .unwrap();
    // Stage 2 ran over the 10 selected rows; truths are "Yes" because
    // the oracle echoes the (filter-style) truth function.
    assert_eq!(res.columns, vec!["s"]);
    assert_eq!(res.rows.len(), 10);
    assert_eq!(res.stages.len(), 2);
}

#[test]
fn runs_aggregation() {
    let (table, fds) = fixture();
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver);
    runner.register("t", &table, &fds);
    let truth = |row: usize| ((row % 5) + 1).to_string();
    let res = runner
        .run(
            "SELECT AVG(LLM('rate', review, product)) AS score FROM t",
            &truth,
        )
        .unwrap();
    assert_eq!(res.aggregate, Some(3.0));
    assert_eq!(res.rows, vec![vec!["3.000".to_string()]]);
}

#[test]
fn aggregation_respects_where_clause() {
    let (table, fds) = fixture();
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver);
    runner.register("t", &table, &fds);
    let truth = |row: usize| ((row % 5) + 1).to_string();
    let res = runner
        .run(
            "SELECT AVG(LLM('rate', review)) AS score FROM t \
             WHERE product = 'product 0'",
            &truth,
        )
        .unwrap();
    // Rows 0..10 → truths 1,2,3,4,5,1,2,3,4,5 → average 3.
    assert_eq!(res.aggregate, Some(3.0));
    assert_eq!(res.stages.len(), 1);
    assert_eq!(res.stages[0].report.opt.rows_in, 10);
}

#[test]
fn negated_filter_complements() {
    let (table, fds) = fixture();
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver);
    runner.register("t", &table, &fds);
    let truth = |row: usize| if row < 12 { "Yes".into() } else { "No".into() };
    let res = runner
        .run(
            "SELECT review FROM t WHERE LLM('keep?', review) <> 'Yes'",
            &truth,
        )
        .unwrap();
    assert_eq!(res.rows.len(), 18);
}

#[test]
fn limit_truncates() {
    let (table, fds) = fixture();
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver);
    runner.register("t", &table, &fds);
    let truth = |_: usize| "Yes".to_string();
    let res = runner.run("SELECT * FROM t LIMIT 3", &truth).unwrap();
    assert_eq!(res.rows.len(), 3);
    assert_eq!(res.columns.len(), 2);
}

#[test]
fn unknown_table_is_reported() {
    let (table, fds) = fixture();
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver);
    runner.register("t", &table, &fds);
    let truth = |_: usize| String::new();
    assert!(matches!(
        runner.run("SELECT a FROM missing", &truth),
        Err(SqlError::UnknownTable { .. })
    ));
}

#[test]
fn unknown_predicate_column_is_reported() {
    let (table, fds) = fixture();
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver);
    runner.register("t", &table, &fds);
    let truth = |_: usize| String::new();
    assert!(matches!(
        runner.run("SELECT review FROM t WHERE nope = 'x'", &truth),
        Err(SqlError::Exec(ExecError::Table(
            TableError::UnknownColumn { .. }
        )))
    ));
}

#[test]
fn sql_predicates_run_before_llm_filters() {
    let (table, fds) = fixture();
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let truth = |row: usize| {
        if row.is_multiple_of(2) {
            "Yes".into()
        } else {
            "No".into()
        }
    };
    // Written with the LLM predicate first: the optimizer must still
    // evaluate the cheap predicate first, so the LLM stage sees only the
    // 10 'product 1' rows.
    let sql = "SELECT review FROM t \
               WHERE LLM('good?', review) = 'Yes' AND product = 'product 1'";
    let run_with = |opt: OptimizerConfig| {
        let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(opt);
        runner.register("t", &table, &fds);
        runner.run(sql, &truth).unwrap()
    };
    let optimized = run_with(OptimizerConfig::all());
    let oracle = run_with(OptimizerConfig::none());
    assert_eq!(
        optimized.rows, oracle.rows,
        "pushdown must not change results"
    );
    assert_eq!(optimized.rows.len(), 5);
    assert_eq!(optimized.stages[0].report.opt.rows_in, 10, "pushed down");
    assert_eq!(oracle.stages[0].report.opt.rows_in, 30, "written order");
}

#[test]
fn llm_filters_are_ordered_by_estimated_rank() {
    let (table, fds) = fixture();
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver);
    runner.register("t", &table, &fds);
    let truth = |_: usize| "Yes".to_string();
    // Same selectivity prior (Yes/No); the product-only call serializes
    // fewer tokens per row, so it must run first despite being written
    // second.
    let res = runner
        .run(
            "SELECT review FROM t \
             WHERE LLM('long review check?', review, product) = 'Yes' \
             AND LLM('short?', product) = 'Yes'",
            &truth,
        )
        .unwrap();
    assert_eq!(res.stages.len(), 2);
    assert_eq!(res.stages[0].report.query, "sql-where-t-2", "cheap first");
    assert_eq!(res.stages[1].report.query, "sql-where-t");
    // Both filters pass everything under this truth; results are all rows.
    assert_eq!(res.rows.len(), 30);
}

#[test]
fn dedup_shares_engine_requests_for_duplicate_rows() {
    let (table, fds) = fixture();
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let truth = |row: usize| if row < 15 { "Yes".into() } else { "No".into() };
    // Filter over `product` only: 3 distinct values across 30 rows.
    let sql = "SELECT review FROM t WHERE LLM('cheap?', product) = 'Yes'";
    let run_with = |opt: OptimizerConfig| {
        let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(opt);
        runner.register("t", &table, &fds);
        runner.run(sql, &truth).unwrap()
    };
    let optimized = run_with(OptimizerConfig::all());
    let oracle = run_with(OptimizerConfig::none());
    assert_eq!(optimized.rows, oracle.rows, "dedup must not change results");
    let opt = optimized.stages[0].report.opt;
    assert_eq!(opt.llm_calls, 3, "one request per distinct product");
    assert_eq!(opt.rows_deduped, 27);
    assert!(opt.prefill_tokens_saved > 0);
    assert_eq!(oracle.stages[0].report.opt.llm_calls, 30);
    assert_eq!(optimized.stages[0].report.engine.completed, 3);
}

#[test]
fn lazy_limit_issues_fewer_engine_requests() {
    let mut t = Table::new(Schema::of_strings(&["review"]));
    for i in 0..200 {
        t.push_row(vec![format!("review number {i} body").into()])
            .unwrap();
    }
    let fds = FunctionalDeps::empty(1);
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let truth = |row: usize| {
        if row.is_multiple_of(2) {
            "Yes".into()
        } else {
            "No".into()
        }
    };
    let sql = "SELECT review FROM t WHERE LLM('keep?', review) = 'Yes' LIMIT 3";
    let run_with = |opt: OptimizerConfig| {
        let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(opt);
        runner.register("t", &t, &fds);
        runner.run(sql, &truth).unwrap()
    };
    let optimized = run_with(OptimizerConfig::all());
    let oracle = run_with(OptimizerConfig::none());
    assert_eq!(
        optimized.rows, oracle.rows,
        "lazy LIMIT must not change results"
    );
    assert_eq!(optimized.rows.len(), 3);
    let (lazy, full) = (optimized.stages[0].report.opt, oracle.stages[0].report.opt);
    assert_eq!(full.llm_calls, 200, "oracle materializes everything");
    assert!(
        lazy.llm_calls < full.llm_calls,
        "lazy {} should be < full {}",
        lazy.llm_calls,
        full.llm_calls
    );
    assert!(lazy.batches >= 1);
}

#[test]
fn lazy_limit_zero_issues_no_requests() {
    let (table, fds) = fixture();
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver);
    runner.register("t", &table, &fds);
    let truth = |_: usize| "Yes".to_string();
    let res = runner
        .run(
            "SELECT review FROM t WHERE LLM('keep?', review) = 'Yes' LIMIT 0",
            &truth,
        )
        .unwrap();
    assert!(res.rows.is_empty());
    assert_eq!(res.stages.len(), 1);
    assert_eq!(res.stages[0].report.opt.llm_calls, 0);
    assert_eq!(res.stages[0].report.engine.completed, 0);
}

#[test]
fn explain_renders_optimized_plan() {
    let (table, fds) = fixture();
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver);
    runner.register("t", &table, &fds);
    let text = runner
        .explain(
            "SELECT review FROM t \
             WHERE LLM('good?', review) = 'Yes' AND product = 'product 2' LIMIT 4",
        )
        .unwrap();
    let sql_pos = text.find("SqlFilter product = 'product 2'").unwrap();
    let llm_pos = text.find("LlmFilter sql-where-t").unwrap();
    assert!(
        llm_pos < sql_pos,
        "SQL predicate renders below the LLM op:\n{text}"
    );
    assert!(text.contains("Limit 4"));
    assert!(text.contains("Scan t"));
    assert!(text.contains("-- optimizer: dedup on, reorder on, lazy limit on"));
    assert!(text.contains("-- rewrite: reordered WHERE"));
    // The EXPLAIN statement form returns the same text as rows.
    let truth = |_: usize| String::new();
    let res = runner
        .run(
            "EXPLAIN SELECT review FROM t WHERE LLM('good?', review) = 'Yes'",
            &truth,
        )
        .unwrap();
    assert_eq!(res.columns, vec!["plan"]);
    assert!(res.stages.is_empty());
    assert!(res.rows.iter().any(|r| r[0].contains("Scan t")));
}

#[test]
fn parses_explain_analyze_prefix() {
    let stmt = parse_sql("EXPLAIN ANALYZE SELECT review FROM t LIMIT 2").unwrap();
    assert!(stmt.explain);
    assert!(stmt.analyze);
    let plain = parse_sql("EXPLAIN SELECT review FROM t LIMIT 2").unwrap();
    assert!(plain.explain);
    assert!(!plain.analyze);
    // ANALYZE without EXPLAIN is just an unexpected keyword.
    assert!(parse_sql("ANALYZE SELECT review FROM t").is_err());
}

#[test]
fn explain_analyze_reports_measured_stats() {
    let (table, fds) = fixture();
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver);
    runner.register("t", &table, &fds);
    let truth = |row: usize| {
        if row.is_multiple_of(2) {
            "Yes".into()
        } else {
            "No".into()
        }
    };
    let res = runner
        .run(
            "EXPLAIN ANALYZE SELECT review FROM t \
             WHERE LLM('good?', review) = 'Yes' AND product = 'product 1' LIMIT 4",
            &truth,
        )
        .unwrap();
    assert_eq!(res.columns, vec!["plan"]);
    let text: String = res
        .rows
        .iter()
        .map(|r| r[0].as_str())
        .collect::<Vec<_>>()
        .join("\n");
    // Exact per-node row accounting: 30 scanned, the cheap predicate
    // keeps product-1's ten rows, the LLM filter passes the even half.
    assert!(text.contains("Scan t  (rows 30)"), "{text}");
    assert!(
        text.contains("SqlFilter product = 'product 1'  (rows 30 → 10)"),
        "{text}"
    );
    let llm_line = res
        .rows
        .iter()
        .map(|r| r[0].as_str())
        .find(|l| l.contains("LlmFilter"))
        .expect("LLM filter line");
    for field in [
        "llm calls",
        "dedup saved",
        "cache saved",
        "re-ranks",
        "skipped",
        "sim ",
    ] {
        assert!(llm_line.contains(field), "missing `{field}` in {llm_line}");
    }
    // The Limit node reports materialized rows before → after truncation.
    let limit_line = res
        .rows
        .iter()
        .map(|r| r[0].as_str())
        .find(|l| l.contains("Limit 4"))
        .expect("limit line");
    assert!(limit_line.ends_with("→ 4)"), "{limit_line}");
    assert!(text.contains("-- optimizer: dedup on, reorder on, lazy limit on"));
    assert!(text.contains("-- rewrite: reordered WHERE"));
    // Unlike plain EXPLAIN, the statement really executed.
    assert_eq!(res.stages.len(), 1);
    assert!(res.stages[0].report.opt.llm_calls > 0);
    assert!(res.stages[0].report.engine.job_completion_time_s > 0.0);
}

/// Golden footer contract: `SqlResult::notes` adaptive events render in
/// `EXPLAIN ANALYZE` output in schedule order with stable wording —
/// `-- rewrite:` lines first (static optimizer), then one `-- runtime:`
/// line per runtime note, verbatim and in the order they fired.
#[test]
fn explain_analyze_runtime_notes_follow_schedule_order() {
    let mut table = Table::new(Schema::of_strings(&["review", "note"]));
    for i in 0..400 {
        table
            .push_row(vec![
                format!("a longer review body with several unique words number {i}").into(),
                format!("note {i}").into(),
            ])
            .unwrap();
    }
    let fds = FunctionalDeps::empty(2);
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver);
    runner.register("t", &table, &fds);
    // Skewed truth flips the pilot order mid-query (see the adaptive
    // differential suite), so runtime notes are guaranteed to fire.
    let truth = |row: usize| {
        if row.is_multiple_of(20) {
            "Yes".to_string()
        } else {
            "No".to_string()
        }
    };
    let res = runner
        .run(
            "EXPLAIN ANALYZE SELECT note FROM t \
             WHERE LLM('is the note recent?', note) <> 'Yes' \
             AND LLM('is the review glowing?', review) = 'Yes'",
            &truth,
        )
        .unwrap();
    let lines: Vec<&str> = res.rows.iter().map(|r| r[0].as_str()).collect();
    let runtime_lines: Vec<&str> = lines
        .iter()
        .copied()
        .filter(|l| l.starts_with("-- runtime: "))
        .collect();
    assert!(
        runtime_lines
            .iter()
            .any(|l| l.starts_with("-- runtime: adaptive re-rank after batch ")),
        "expected a re-rank runtime note, got: {lines:?}"
    );
    // Every runtime note appears exactly once, verbatim, in schedule
    // order (`res.notes` order, after the rewrite prefix).
    let runtime_notes: Vec<&str> = res
        .notes
        .iter()
        .map(String::as_str)
        .filter(|n| n.starts_with("adaptive"))
        .collect();
    assert_eq!(
        runtime_lines,
        runtime_notes
            .iter()
            .map(|n| format!("-- runtime: {n}"))
            .collect::<Vec<_>>()
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
        "runtime footer must mirror notes in schedule order"
    );
    // Rewrite lines all precede runtime lines.
    let last_rewrite = lines
        .iter()
        .rposition(|l| l.starts_with("-- rewrite: "))
        .unwrap_or(0);
    let first_runtime = lines
        .iter()
        .position(|l| l.starts_with("-- runtime: "))
        .expect("runtime notes present");
    assert!(last_rewrite < first_runtime, "{lines:?}");
}

/// A statement whose cheap predicate compares a non-ASCII value reaches the
/// optimizer with that value intact, and selects the rows holding it.
#[test]
fn non_ascii_predicate_values_select_their_rows() {
    let mut table = Table::new(Schema::of_strings(&["review", "genre"]));
    for i in 0..12 {
        let genre = ["café", "thé", "cafe"][i % 3];
        table
            .push_row(vec![format!("review {i}").into(), genre.into()])
            .unwrap();
    }
    let fds = FunctionalDeps::empty(2);
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver);
    runner.register("t", &table, &fds);
    let truth = |_: usize| "Ünïcode".to_string();
    let res = runner
        .run(
            "SELECT review FROM t WHERE genre = 'café' AND LLM('naïve?', review) = 'Ünïcode'",
            &truth,
        )
        .unwrap();
    let want: Vec<Vec<String>> = (0..12)
        .step_by(3)
        .map(|i| vec![format!("review {i}")])
        .collect();
    assert_eq!(res.rows, want);
    assert_eq!(res.stages[0].report.opt.rows_in, 4);
}

/// The batch loop runs exactly the batches its schedule yields: for one
/// statement per growth mode, every LLM operator's `OptStats::batches` is
/// the length of the sequence a schedule decided from the same inputs
/// yields when shown what the statement's batches emit — and an aimed
/// statement's sizing notes are that schedule's, verbatim.
#[test]
fn batch_loop_runs_the_batches_its_schedule_yields() {
    let mut table = Table::new(Schema::of_strings(&["review", "note"]));
    for i in 0..200 {
        table
            .push_row(vec![
                format!("review number {i} body").into(),
                format!("note {i}").into(),
            ])
            .unwrap();
    }
    let fds = FunctionalDeps::empty(2);
    let eng = engine();
    let solver = Ggr::default();
    // Every LLM filter keeps the even rows.
    let truth = |row: usize| String::from(if row.is_multiple_of(2) { "Yes" } else { "No" });
    let one = "SELECT review FROM t WHERE LLM('keep?', review) = 'Yes'";
    let two = "SELECT review FROM t WHERE LLM('keep?', review) = 'Yes' \
               AND LLM('sure?', note) = 'Yes'";
    let mut micro = OptimizerConfig::none();
    (micro.pipeline, micro.pipeline_batch_rows) = (true, 64);
    let cases = [
        ("whole", OptimizerConfig::none(), one.to_string(), 1),
        ("fixed", micro, one.to_string(), 4),
        (
            "doubling, lazy",
            OptimizerConfig::static_only(),
            format!("{one} LIMIT 40"),
            2,
        ),
        (
            "doubling, pilot",
            OptimizerConfig::all(),
            two.to_string(),
            3,
        ),
        (
            "aimed",
            OptimizerConfig::all(),
            format!("{one} LIMIT 90"),
            2,
        ),
    ];
    for (name, opt, sql, want_batches) in cases {
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(opt);
        runner.register("t", &table, &fds);
        let res = runner.run(&sql, &truth).unwrap();

        let (plan, _) = runner.plan_for(&parse_sql(&sql).unwrap()).unwrap();
        let mut tracker = seeded_tracker(opt.adaptive, &plan.ops);
        let mut schedule = BatchSchedule::decide(&opt, &plan, table.nrows());
        let (mut emitted, mut notes) = (0, Vec::new());
        while let Some(batch) = schedule.next(emitted, &tracker, &mut notes) {
            let passed = batch.clone().filter(|r| r % 2 == 0).count();
            tracker.observe_pipeline(passed as u64, batch.len() as u64);
            emitted += passed;
        }
        assert_eq!(schedule.batches(), want_batches, "{name}");
        for stage in &res.stages {
            assert_eq!(stage.report.opt.batches, want_batches, "{name}");
        }
        let sizing: Vec<&String> = res
            .notes
            .iter()
            .filter(|n| n.starts_with("adaptive batch sizing"))
            .collect();
        assert_eq!(sizing, notes.iter().collect::<Vec<_>>(), "{name}");
        assert_eq!(notes.is_empty(), name != "aimed", "{name}: {notes:?}");
    }
}
