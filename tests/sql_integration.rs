//! The SQL front-end against the benchmark datasets: the paper's Appendix A
//! statements parse, execute through GGR, and agree with the programmatic
//! API — and statement *execution* over hostile catalogs, limits, cells and
//! configurations returns `Ok` or a typed [`SqlError`], never a panic.

use llmqo::core::{FunctionalDeps, Ggr, OriginalOrder};
use llmqo::costmodel::CascadePlan;
use llmqo::datasets::{Dataset, DatasetId};
use llmqo::relational::{
    parse_sql, CascadeConfig, DataType, ExecError, Field, LlmQuery, OptLevel, OptimizerConfig,
    QueryExecutor, Schema, SqlError, SqlResult, SqlRunner, StatementCheckpoint, StatementFaults,
    Table, Value,
};
use llmqo::serve::{
    Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, OracleLlm, SimEngine,
};
use llmqo::tokenizer::Tokenizer;
use proptest::prelude::*;

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

/// The eleven optimizer configurations of the hostile sweep: every
/// [`OptLevel`] under the relay and under pipelined fan-out, a cascade,
/// statement faults that fail every call under each degradation policy, and
/// three degenerate settings — zero pipeline sizes, a zero attempt budget, a
/// fault rate above one million ppm — each paired with the field the
/// statement gate must name when it refuses it.
fn hostile_configs() -> Vec<(OptimizerConfig, Option<&'static str>)> {
    let failing = |faults: StatementFaults| OptimizerConfig {
        faults: Some(faults),
        ..OptimizerConfig::all()
    };
    let levels = [OptLevel::Off, OptLevel::Static, OptLevel::Adaptive];
    let mut configs: Vec<(OptimizerConfig, Option<&'static str>)> =
        [OptimizerConfig::none(), OptimizerConfig::pipelined(3)]
            .into_iter()
            .flat_map(|mode| levels.map(|level| (OptimizerConfig { level, ..mode }, None)))
            .collect();
    configs.extend([
        (
            OptimizerConfig {
                pipeline_batch_rows: 0,
                ..OptimizerConfig::pipelined(0)
            },
            Some("pipeline_replicas"),
        ),
        (
            OptimizerConfig::cascaded(CascadeConfig::new(CascadePlan::mini_to_sonnet(0.5, 7))),
            None,
        ),
        (
            failing(StatementFaults::new(1_000_000, 7).with_attempts(0)),
            Some("faults.max_attempts"),
        ),
        (
            failing(StatementFaults::new(u32::MAX, 7)),
            Some("faults.error_ppm"),
        ),
        (failing(StatementFaults::new(1_000_000, 7).strict()), None),
    ]);
    configs
}

/// `Err` naming the case when a degenerate config was not refused with
/// [`ExecError::InvalidConfig`] naming `rejected`.
fn check_refusal(
    outcome: &Result<SqlResult, SqlError>,
    rejected: Option<&'static str>,
    case: impl FnOnce() -> String,
) -> Result<(), String> {
    match (rejected, outcome) {
        (None, _) => Ok(()),
        (Some(want), Err(SqlError::Exec(ExecError::InvalidConfig { field, .. })))
            if *field == want =>
        {
            Ok(())
        }
        (Some(want), other) => Err(format!("{} not refused on {want}: {other:?}", case())),
    }
}

/// Runs `sql` on a fresh runner over `table` — its answer cache with
/// `restore` merged in — and reports a panic as an `Err` naming the case,
/// so one sweep lists every offender.
fn run_hostile(
    table: &Table,
    opt: OptimizerConfig,
    sql: &str,
    restore: Option<&StatementCheckpoint>,
) -> Result<Result<SqlResult, SqlError>, String> {
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        let fds = FunctionalDeps::empty(table.ncols());
        let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(opt);
        runner.register("t", table, &fds);
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
    let (mut calls, mut ok, mut failures) = (0, 0, Vec::new());
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
                for (opt, rejected) in hostile_configs() {
                    calls += 1;
                    let case = || format!("{sql:?} on {nrows} rows under {opt:?}");
                    match run_hostile(&table, opt, &sql, None) {
                        Ok(outcome) => {
                            ok += usize::from(outcome.is_ok());
                            failures.extend(check_refusal(&outcome, rejected, case).err());
                        }
                        Err(panic) => failures.push(panic),
                    }
                }
            }
        }
    }
    assert_eq!(calls, 3168);
    // Not vacuous: plain names execute, hostile ones are refused.
    assert!(ok > 500 && ok < calls - 500, "{ok} of {calls} calls ran");

    // Hostile cells: NULL, NaN and `i64::MIN` cells on a cold cache, and
    // with a checkpoint taken over the same cells restored.
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
    for restore in [None, Some(&checkpoint)] {
        for sql in hostile_statements("a", "b") {
            for (opt, rejected) in hostile_configs() {
                let case = || format!("{sql:?} on hostile cells under {opt:?}");
                match run_hostile(&cells, opt, &sql, restore) {
                    Ok(outcome) => failures.extend(check_refusal(&outcome, rejected, case).err()),
                    Err(panic) => failures.push(panic),
                }
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

/// `EXPLAIN ANALYZE` builds no result rows, yet its `Limit` node still
/// reports the rows the limit saw and kept — under every optimizer level,
/// including the lazy `LIMIT` that stops scanning early.
#[test]
fn explain_analyze_reports_the_limit_without_building_rows() {
    let ds = Dataset::generate_with_rows(DatasetId::Movies, 400);
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let truth = |row: usize| if row.is_multiple_of(3) { "Yes" } else { "No" }.to_string();
    let sql = "SELECT movietitle FROM movies WHERE \
               LLM('Suitable for kids?', movieinfo, movietitle) = 'Yes' LIMIT 50";
    for (opt, limit) in [
        (OptimizerConfig::none(), "Limit 50  (rows 134 → 50)"),
        (OptimizerConfig::static_only(), "Limit 50  (rows 50 → 50)"),
        (OptimizerConfig::all(), "Limit 50  (rows 58 → 50)"),
    ] {
        let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(opt);
        runner.register("movies", &ds.table, &ds.fds);
        let selected = runner.run(sql, &truth).unwrap();
        assert_eq!(selected.rows.len(), 50);
        let analyzed = runner
            .run(&format!("EXPLAIN ANALYZE {sql}"), &truth)
            .unwrap();
        let lines: Vec<&str> = analyzed.rows.iter().map(|r| r[0].trim()).collect();
        assert!(lines.contains(&limit), "{limit} not in {lines:#?}");
    }
}

/// Under a cascade, a row the cheap tier answers wrongly takes the label
/// its plan says, whatever buffer the executor writes it into: every
/// output is the plan's label of the row's reference answer.
#[test]
fn cascaded_outputs_are_the_plans_labels() {
    let ds = Dataset::generate_with_rows(DatasetId::Movies, 400);
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let truth = |row: usize| if row.is_multiple_of(3) { "Yes" } else { "No" }.to_string();
    let plan = CascadePlan::mini_to_sonnet(0.5, 7);
    let mut runner = SqlRunner::new(&executor, &solver)
        .with_optimizer(OptimizerConfig::cascaded(CascadeConfig::new(plan)));
    runner.register("movies", &ds.table, &ds.fds);
    let res = runner
        .run(
            "SELECT movietitle FROM movies WHERE \
             LLM('Suitable for kids?', movieinfo, movietitle) = 'Yes'",
            &truth,
        )
        .unwrap();
    let labels = ["Yes".to_string(), "No".to_string()];
    let outputs = &res.stages[0].outputs;
    assert_eq!(outputs.len(), 400);
    let mut rewritten = 0;
    for o in outputs {
        let reference = truth(o.row);
        let want = plan.label(o.row as u64, &reference, &labels);
        assert_eq!(o.text, want, "row {}", o.row);
        rewritten += usize::from(want != reference);
    }
    assert!(rewritten > 0, "the cheap tier must get some rows wrong");
    let selected = outputs.iter().filter(|o| o.text == "Yes").count();
    assert_eq!(res.rows.len(), selected);
}

/// The statement gate's fields, in its order.
const GATED: [&str; 11] = [
    "pipeline_replicas",
    "pipeline_batch_rows",
    "faults.max_attempts",
    "faults.error_ppm",
    "cascade.escalate_below",
    "cascade.cheap.base_accuracy",
    "cascade.expensive.base_accuracy",
    "cascade.cheap.input_per_mtok",
    "cascade.cheap.output_per_mtok",
    "cascade.expensive.input_per_mtok",
    "cascade.expensive.output_per_mtok",
];

/// A config with every gated mode on — pipelined over two replicas, faults
/// and a cascade — whose field `GATED[slot]` reads `bad`, when given: a
/// count reads 0, the fault rate one million plus `|bad|` ppm (at least
/// one more, saturating), a float field `bad` itself.
fn gated_config(slot: usize, bad: Option<f64>) -> OptimizerConfig {
    let mut opt = OptimizerConfig::pipelined(2);
    opt.pipeline_batch_rows = 16;
    let mut faults = StatementFaults::new(100_000, 7);
    let mut plan = CascadePlan::mini_to_sonnet(0.5, 7);
    if let Some(b) = bad {
        match slot {
            0 => opt.pipeline_replicas = 0,
            1 => opt.pipeline_batch_rows = 0,
            2 => faults.max_attempts = 0,
            3 => faults.error_ppm = (1e6 + b.abs().max(1.0)).min(4e9) as u32,
            4 => plan.escalate_below = b,
            5 => plan.cheap.base_accuracy = b,
            6 => plan.expensive.base_accuracy = b,
            7 => plan.cheap.input_per_mtok = b,
            8 => plan.cheap.output_per_mtok = b,
            9 => plan.expensive.input_per_mtok = b,
            _ => plan.expensive.output_per_mtok = b,
        }
    }
    opt.faults = Some(faults);
    opt.cascade = Some(CascadeConfig::new(plan));
    opt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The statement gate: a gated setting out of its range — NaN, ±∞, 0, a
    /// negative or a too-large value — is [`ExecError::InvalidConfig`]
    /// naming the field, from `run`, `explain` and `execute_with` alike, and
    /// returned before any row is labelled or cached; the same statement
    /// with the field valid returns rows.
    #[test]
    fn every_out_of_range_setting_is_a_typed_error(
        slot in 0usize..11,
        which in 0usize..5,
        millis in 1u32..1_000_000_000,
    ) {
        let x = f64::from(millis) / 1e3;
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -x, 1.0 + x][which];
        // A price above one is valid: prices take the negative and
        // non-finite draws only.
        let bad = if slot >= 7 && which == 4 { -x } else { bad };
        let ds = Dataset::generate_with_rows(DatasetId::Movies, 30);
        let eng = engine();
        let solver = Ggr::default();
        let sql = "SELECT movietitle FROM movies WHERE \
                   LLM('Suitable for kids?', movieinfo, movietitle) = 'Yes' \
                   AND LLM('Is the review positive?', reviewcontent) = 'Yes'";
        let labelled = std::cell::Cell::new(0usize);
        let truth = |row: usize| {
            labelled.set(labelled.get() + 1);
            if row.is_multiple_of(3) { "No" } else { "Yes" }.to_string()
        };
        let refused = |err: Option<ExecError>| match err {
            Some(ExecError::InvalidConfig { field, .. }) => Some(field),
            _ => None,
        };
        let sql_refused = |err: Option<SqlError>| match err {
            Some(SqlError::Exec(e)) => refused(Some(e)),
            _ => None,
        };

        let (opt, field) = (gated_config(slot, Some(bad)), GATED[slot]);
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(opt);
        runner.register("movies", &ds.table, &ds.fds);
        prop_assert_eq!(sql_refused(runner.run(sql, &truth).err()), Some(field));
        prop_assert_eq!(sql_refused(runner.explain(sql).err()), Some(field));
        let query = LlmQuery::filter(
            "kids",
            "Suitable for kids?",
            vec!["movieinfo".into(), "movietitle".into()],
            vec!["Yes".into(), "No".into()],
            "Yes",
            2.0,
        );
        let bare = executor.execute_with(&ds.table, &query, &solver, &ds.fds, &truth, opt);
        prop_assert_eq!(refused(bare.err()), Some(field));
        prop_assert!(labelled.get() == 0, "a refused statement labels no row");
        prop_assert!(runner.checkpoint().is_empty(), "a refused statement caches nothing");

        let valid = gated_config(slot, None);
        let runner = {
            let mut r = SqlRunner::new(&executor, &solver).with_optimizer(valid);
            r.register("movies", &ds.table, &ds.fds);
            r
        };
        let res = runner.run(sql, &truth).expect("every setting valid");
        prop_assert!(!res.rows.is_empty(), "the valid statement returns rows");
    }
}
