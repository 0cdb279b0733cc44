//! The SQL front-end against the benchmark datasets: the paper's Appendix A
//! statements parse, execute through GGR, and agree with the programmatic
//! API — and statement *execution* over hostile catalogs, limits, cells and
//! configurations returns `Ok` or a typed [`SqlError`], never a panic.

use llmqo::core::{FunctionalDeps, Ggr, OriginalOrder};
use llmqo::costmodel::CascadePlan;
use llmqo::datasets::{Dataset, DatasetId};
use llmqo::relational::{
    parse_sql, CascadeConfig, DataType, Field, LlmQuery, OptimizerConfig, QueryExecutor, Schema,
    SqlError, SqlResult, SqlRunner, StatementCheckpoint, StatementFaults, Table, Value,
};
use llmqo::serve::{
    Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, OracleLlm, SimEngine,
};
use llmqo::tokenizer::Tokenizer;

fn engine() -> SimEngine {
    SimEngine::new(
        Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
        EngineConfig::default(),
    )
}

#[test]
fn paper_appendix_a_statements_parse() {
    let statements = [
        "SELECT t.movietitle FROM MOVIES WHERE LLM('Given the following fields, \
         determine whether the movie is suitable for kids. Answer ONLY with \
         Yes or No.', movieinfo, reviewcontent, reviewtype, movietitle) = 'Yes'",
        "SELECT LLM('Given the following information, summarize good qualities \
         in this movie that led to a favorable rating.', reviewcontent, movieinfo) \
         FROM MOVIES",
        "SELECT AVG(LLM('Rate sentiment in numerical values from 1 (bad) to 5 \
         (good).', reviewcontent, movieinfo)) AS AverageScore FROM MOVIES",
        "SELECT LLM('Given the information about a movie, summarize the good \
         qualities that led to a favorable rating.', reviewtype, reviewcontent, \
         movieinfo, genres) FROM MOVIES WHERE LLM('Given the following review, \
         answer whether the sentiment is POSITIVE or NEGATIVE.', reviewcontent) \
         = 'NEGATIVE'",
    ];
    for sql in statements {
        let stmt = parse_sql(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(stmt.table.to_lowercase(), "movies");
    }
}

#[test]
fn sql_filter_agrees_with_programmatic_api() {
    let ds = Dataset::generate_with_rows(DatasetId::Movies, 120);
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();

    // Programmatic path.
    let query = LlmQuery::filter(
        "api-filter",
        "Suitable for kids? Answer ONLY 'Yes' or 'No'.",
        vec![
            "movieinfo".into(),
            "reviewcontent".into(),
            "movietitle".into(),
        ],
        vec!["Yes".into(), "No".into()],
        "Yes",
        2.0,
    );
    let truth = |row: usize| {
        if row.is_multiple_of(4) {
            "Yes".into()
        } else {
            "No".into()
        }
    };
    let api = executor
        .execute(&ds.table, &query, &solver, &ds.fds, &truth)
        .unwrap();

    // SQL path with the same prompt, fields, and truth.
    let mut runner = SqlRunner::new(&executor, &solver);
    runner.register("movies", &ds.table, &ds.fds);
    let sql = runner
        .run(
            "SELECT movietitle FROM movies WHERE \
             LLM('Suitable for kids? Answer ONLY ''Yes'' or ''No''.', \
             movieinfo, reviewcontent, movietitle) = 'Yes'",
            &truth,
        )
        .unwrap();
    assert_eq!(sql.rows.len(), api.selected_rows.len());
    // Returned titles match the selected rows, in row order.
    for (row_out, &r) in sql.rows.iter().zip(&api.selected_rows) {
        assert_eq!(row_out[0], ds.table.value(r, 2).to_string());
    }
}

#[test]
fn sql_multi_stage_runs_projection_over_filtered_rows() {
    let ds = Dataset::generate_with_rows(DatasetId::Products, 100);
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver);
    runner.register("products", &ds.table, &ds.fds);
    let truth = |row: usize| {
        if row < 40 {
            "NEGATIVE".to_string()
        } else {
            "POSITIVE".to_string()
        }
    };
    let res = runner
        .run(
            "SELECT LLM('Summarize the product and review.', products.*) AS s \
             FROM products WHERE LLM('Sentiment?', text) = 'NEGATIVE'",
            &truth,
        )
        .unwrap();
    assert_eq!(res.stages.len(), 2, "filter stage plus projection stage");
    assert_eq!(res.rows.len(), 40);
    // Both stages report serving measurements.
    assert!(res.stages[0].report.engine.job_completion_time_s > 0.0);
    assert!(res.stages[1].report.engine.job_completion_time_s > 0.0);
}

#[test]
fn sql_runner_respects_reorderer_choice() {
    let ds = Dataset::generate_with_rows(DatasetId::Bird, 150);
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let truth = |_: usize| "YES".to_string();
    let run_with = |solver: &dyn llmqo::core::Reorderer| {
        let mut runner = SqlRunner::new(&executor, solver);
        runner.register("bird", &ds.table, &ds.fds);
        runner
            .run(
                "SELECT PostId FROM bird WHERE LLM('Stats-related?', Body, Text) = 'YES'",
                &truth,
            )
            .unwrap()
    };
    let ggr = run_with(&Ggr::default());
    let orig = run_with(&OriginalOrder);
    assert_eq!(ggr.rows, orig.rows, "results identical");
    assert!(
        ggr.stages[0].report.engine.prefix_hit_rate()
            >= orig.stages[0].report.engine.prefix_hit_rate(),
        "GGR schedule hits at least as often"
    );
}

/// The twelve statement shapes of the hostile sweep over a table `t` whose
/// first two columns are named `c0` and `c1` — spliced in unquoted, so a
/// hostile name also makes the statement text hostile.
fn hostile_statements(c0: &str, c1: &str) -> [String; 12] {
    let filter = format!("SELECT {c0} FROM t WHERE LLM('ok?', {c0}) = 'Yes'");
    [
        format!("{filter} LIMIT 0"),
        format!("{filter} LIMIT 18446744073709551615"),
        format!("EXPLAIN {filter}"),
        format!("EXPLAIN ANALYZE {filter} LIMIT 2"),
        format!("SELECT {c0} FROM missing WHERE LLM('ok?', {c0}) = 'Yes'"),
        format!("SELECT {c0} FROM t WHERE LLM('', {c1}) = ''"),
        format!("SELECT {c0} FROM t WHERE LLM('ok?', {c1}, {c1}) = 'Yes'"),
        format!("SELECT AVG(LLM('score 1 to 5', {c0})) AS s FROM t"),
        "SELECT nope FROM t WHERE LLM('ok?', nowhere) = 'Yes'".to_string(),
        format!("SELECT * FROM t WHERE {c1} = 'v1' AND LLM('ok?', {c0}) <> 'Yes'"),
        format!(
            "SELECT LLM('sum up', t.*) AS s FROM t WHERE LLM('a?', {c0}) = 'Yes' \
             AND LLM('b?', {c1}) <> 'Yes' LIMIT 3"
        ),
        filter,
    ]
}

/// The nine optimizer configurations of the hostile sweep: the four named
/// modes, degenerate pipeline sizes, a cascade, and statement faults that
/// fail every call under each degradation policy.
fn hostile_configs() -> [OptimizerConfig; 9] {
    let failing = |faults: StatementFaults| OptimizerConfig {
        faults: Some(faults),
        ..OptimizerConfig::all()
    };
    [
        OptimizerConfig::all(),
        OptimizerConfig::none(),
        OptimizerConfig::static_only(),
        OptimizerConfig::pipelined(3),
        OptimizerConfig {
            pipeline_batch_rows: 0,
            ..OptimizerConfig::pipelined(0)
        },
        OptimizerConfig::cascaded(CascadeConfig::new(CascadePlan::mini_to_sonnet(0.5, 7))),
        failing(StatementFaults::new(1_000_000, 7).with_attempts(0)),
        failing(StatementFaults::new(u32::MAX, 7)),
        failing(StatementFaults::new(1_000_000, 7).strict()),
    ]
}

/// Runs `sql` on a fresh runner over `table` — its answer cache under
/// `budget` (`max_entries`, `max_bytes`) with `restore` merged in — and
/// reports a panic as an `Err` naming the case, so one sweep lists every
/// offender.
fn run_hostile(
    table: &Table,
    opt: OptimizerConfig,
    sql: &str,
    budget: (Option<usize>, Option<usize>),
    restore: Option<&StatementCheckpoint>,
) -> Result<Result<SqlResult, SqlError>, String> {
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        let fds = FunctionalDeps::empty(table.ncols());
        let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(opt);
        runner.register("t", table, &fds);
        executor.set_answer_cache_budget(budget.0, budget.1);
        if let Some(checkpoint) = restore {
            runner.restore(checkpoint);
        }
        runner.run(sql, &|row| {
            if row % 2 == 0 { "Yes" } else { "No" }.to_string()
        })
    }));
    attempt.map_err(|_| format!("panicked: {sql:?} on {} rows under {opt:?}", table.nrows()))
}

#[test]
fn hostile_statement_execution_never_panics() {
    // Column names a catalog can hold but the dialect cannot spell: outside
    // ASCII, with a space, keywords, duplicates, empty, quote characters.
    let schemas = [
        ["a", "b"],
        ["é", "b"],
        ["a b", "c"],
        ["select", "from"],
        ["a", "a"],
        ["", "b"],
        ["it's", "b"],
        ["\"q\"", "b"],
    ];
    let (mut calls, mut ok, mut panics) = (0, 0, Vec::new());
    for names in schemas {
        for nrows in [0usize, 1, 7] {
            let mut table = Table::new(Schema::of_strings(&names));
            for r in 0..nrows {
                let row = vec![format!("v{}", r % 3), format!("v{}", r % 2)];
                table
                    .push_row(row.into_iter().map(Value::Str).collect())
                    .unwrap();
            }
            for sql in hostile_statements(names[0], names[1]) {
                for opt in hostile_configs() {
                    calls += 1;
                    match run_hostile(&table, opt, &sql, (None, None), None) {
                        Ok(outcome) => ok += usize::from(outcome.is_ok()),
                        Err(panic) => panics.push(panic),
                    }
                }
            }
        }
    }
    assert_eq!(calls, 2592);
    // Not vacuous: plain names execute, hostile ones are refused.
    assert!(ok > 500 && ok < calls - 500, "{ok} of {calls} calls ran");

    // Hostile cells and answer-cache budgets: NULL, NaN and `i64::MIN`
    // cells under a cache that may hold nothing, and a checkpoint restored
    // into a budget tighter than the one it was taken under.
    let mut cells = Table::new(Schema::new(vec![
        Field::new("a", DataType::Float),
        Field::new("b", DataType::Int),
    ]));
    for (a, b) in [
        (Value::Null, Value::Null),
        (Value::Float(f64::NAN), Value::Int(i64::MIN)),
        (Value::Float(f64::NAN), Value::Int(i64::MIN)),
        (Value::Float(-0.0), Value::Int(0)),
        (Value::Float(f64::INFINITY), Value::Int(i64::MAX)),
    ] {
        cells.push_row(vec![a, b]).unwrap();
    }
    let checkpoint = {
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        let fds = FunctionalDeps::empty(2);
        let mut runner = SqlRunner::new(&executor, &solver);
        runner.register("t", &cells, &fds);
        for sql in hostile_statements("a", "b") {
            let _ = runner.run(&sql, &|_| "Yes".to_string());
        }
        runner.checkpoint()
    };
    for (budget, restore) in [
        ((None, None), None),
        ((Some(0), None), None),
        ((None, Some(0)), None),
        ((Some(1), Some(8)), Some(&checkpoint)),
    ] {
        for sql in hostile_statements("a", "b") {
            for opt in hostile_configs() {
                if let Err(panic) = run_hostile(&cells, opt, &sql, budget, restore) {
                    panics.push(panic);
                }
            }
        }
    }
    assert!(panics.is_empty(), "{panics:#?}");
}
