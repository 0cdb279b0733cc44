//! Differential contract of the host-side encode path (ISSUE 12): the
//! column-dictionary encoder and the integer answer-cache row keys behave
//! exactly like the string pipeline they replaced.
//!
//! * `encode_table` ≡ the frozen string encoder
//!   ([`common::reference_encode_rows`]) on all seven datasets × row
//!   subsets (each encoded as its `select_rows` table), a field listed
//!   twice, and typed columns whose `Display` texts collide — cold, warm,
//!   and on `select_rows`/`head`-derived tables — and on random tables
//!   (proptest);
//! * the executor's two-phase front half (ISSUE 17) hands its solver the
//!   table "encode every offered row, then `select_rows` the dedup
//!   representatives" would, for random tables × cache-hit masks (the
//!   answer cache implies dedup), and on a fixture where numbering
//!   `ValueId`s over the representatives only would flip a GGR tie;
//! * `push_row` invalidates the cached dictionaries;
//! * a checkpoint taken on a table's head still hits on the whole table
//!   (numbers pinned at the parent commit);
//! * the unbounded `AnswerCache` holds, exports (sorted) and counts the
//!   entries of exactly what a `BTreeSet` model does, under the
//!   multiply-mix hasher;
//! * a lazy `LIMIT` tokenizes the rows it touches, not the table, and a
//!   statement resumed from a checkpoint tokenizes the values of its novel
//!   rows, not those of the rows the answer cache answers;
//! * plan-time estimates read from dictionary slots equal recounted ones.
//!
//! The two tokenization tests flip the process-global `llmqo_obs` gate and
//! read a global counter, so they take [`OBS`] exclusively; every other
//! test that encodes holds it shared.

mod common;

use common::{
    assert_encoding_matches_reference, engine, mod3_truth, seven_dataset_cases, tier1_datasets,
};
use llmqo::core::{
    phc_of_plan, FunctionalDeps, Ggr, ReorderPlan, ReorderTable, Reorderer, Solution, SolveError,
};
use llmqo::datasets::{Dataset, DatasetId};
use llmqo::relational::{
    encode_table, field_fragment, AnswerCache, CachedAnswer, DataType, Field, LlmQuery,
    OptimizerConfig, QueryExecutor, QueryOutput, RowKey, Schema, SqlRunner, Table, Value,
};
use llmqo::serve::OracleLlm;
use llmqo::tokenizer::Tokenizer;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashSet};
use std::sync::RwLock;

static OBS: RwLock<()> = RwLock::new(());

fn shared() -> std::sync::RwLockReadGuard<'static, ()> {
    OBS.read().unwrap_or_else(|e| e.into_inner())
}

/// A seeded subset of `0..n` with repeats, in draw order.
fn random_rows(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n * 2 / 3).map(|_| rng.random_range(0..n)).collect()
}

/// Checks `query` over `table` against the frozen encoder on every row
/// subset shape the executor produces.
fn check_all_subsets(tok: &Tokenizer, table: &Table, query: &LlmQuery, context: &str) {
    let n = table.nrows();
    let random = random_rows(n, 0xe7c0de);
    let reversed: Vec<usize> = random.iter().rev().copied().collect();
    for (label, rows) in [
        ("all rows", None),
        ("random subset", Some(&random[..])),
        ("reversed subset", Some(&reversed[..])),
        ("empty subset", Some(&[][..])),
    ] {
        assert_encoding_matches_reference(tok, table, query, rows, &format!("{context}, {label}"));
    }
}

#[test]
fn dictionary_encoder_matches_the_string_encoder_on_every_dataset() {
    let _g = shared();
    let tok = Tokenizer::new();
    for (id, ds) in tier1_datasets(150) {
        for query in &ds.queries {
            // First round builds dictionaries and fills slots (cold), the
            // second reads them (warm).
            for round in ["cold", "warm"] {
                check_all_subsets(
                    &tok,
                    &ds.table,
                    query,
                    &format!("{id:?}/{} {round}", query.name),
                );
            }
        }
        // A field listed twice: both positions share ids and fragments.
        let mut twice = ds.queries[0].clone();
        let first = twice.fields[0].clone();
        twice.fields.push(first);
        check_all_subsets(&tok, &ds.table, &twice, &format!("{id:?} field twice"));
    }
}

/// A table whose typed columns hold values with colliding `Display` texts:
/// `1` and `1.0` in a float column, NULL next to the string "null".
fn typed_table() -> Table {
    let mut t = Table::new(Schema::new(vec![
        Field::new("f", DataType::Float),
        Field::new("i", DataType::Int),
        Field::new("b", DataType::Bool),
        Field::new("s", DataType::Str),
    ]));
    let rows: Vec<Vec<Value>> = vec![
        vec![Value::Int(1), Value::Int(1), true.into(), "1".into()],
        vec![1.0.into(), Value::Int(-7), false.into(), "null".into()],
        vec![2.5.into(), Value::Null, Value::Null, Value::Null],
        vec![Value::Null, Value::Int(1), true.into(), "true".into()],
        vec![Value::Int(2), Value::Int(2), Value::Null, "2".into()],
        vec![2.0.into(), Value::Int(-7), false.into(), "".into()],
    ];
    for row in rows {
        t.push_row(row).expect("typed row");
    }
    t
}

fn query_over(fields: &[&str]) -> LlmQuery {
    LlmQuery::filter(
        "typed",
        "Keep it? Answer Yes or No.",
        fields.iter().map(|f| f.to_string()).collect(),
        vec!["Yes".into(), "No".into()],
        "Yes",
        2.0,
    )
}

#[test]
fn typed_columns_with_colliding_texts_encode_like_the_string_encoder() {
    let _g = shared();
    let tok = Tokenizer::new();
    let table = typed_table();
    for fields in [
        &["f", "i", "b", "s"][..],
        &["s", "f"],
        &["i", "i", "f"],
        &["b"],
    ] {
        check_all_subsets(
            &tok,
            &table,
            &query_over(fields),
            &format!("typed {fields:?}"),
        );
    }
    // `1` and `1.0` are one value; NULL and "null" are one value.
    let e = llmqo::relational::encode_table(&tok, &table, &query_over(&["f", "s"])).expect("ok");
    assert_eq!(e.reorder.cell(0, 0).value, e.reorder.cell(1, 0).value);
    assert_eq!(e.reorder.cell(1, 1).value, e.reorder.cell(2, 1).value);
}

#[test]
fn derived_tables_encode_like_fresh_ones_cold_or_warm() {
    let _g = shared();
    let tok = Tokenizer::new();
    for (id, ds) in tier1_datasets(120) {
        let query = &ds.queries[0];
        let pick = random_rows(ds.table.nrows(), 0x5e1ec7);
        // Derived from a cold parent: nothing to inherit.
        check_all_subsets(
            &tok,
            &ds.table.select_rows(&pick),
            query,
            &format!("{id:?} select_rows of cold parent"),
        );
        // Warm the parent, then derive: codes are gathered, the store shared.
        assert_encoding_matches_reference(&tok, &ds.table, query, None, "warm-up");
        check_all_subsets(
            &tok,
            &ds.table.select_rows(&pick),
            query,
            &format!("{id:?} select_rows of warm parent"),
        );
        check_all_subsets(
            &tok,
            &ds.table.head(ds.table.nrows() * 4 / 5),
            query,
            &format!("{id:?} head of warm parent"),
        );
        // Second-generation derivation, and a clone.
        let grandchild = ds.table.head(80).select_rows(&[7, 3, 3, 60]);
        check_all_subsets(&tok, &grandchild, query, &format!("{id:?} grandchild"));
        check_all_subsets(&tok, &ds.table.clone(), query, &format!("{id:?} clone"));
    }
}

#[test]
fn push_row_after_a_query_invalidates_the_dictionaries() {
    let _g = shared();
    let tok = Tokenizer::new();
    let ds = Dataset::generate_with_rows(DatasetId::Movies, 60);
    let query = &ds.queries[0];
    let mut table = ds.table.head(40);
    assert_encoding_matches_reference(&tok, &table, query, None, "before push");
    // Append rows 40..60, one of them a value the table has not seen.
    for r in 40..60 {
        let mut row: Vec<Value> = (0..table.ncols())
            .map(|c| ds.table.value(r, c).clone())
            .collect();
        if r == 50 {
            let c = table
                .resolve_columns(&query.fields[..1])
                .expect("field exists")[0];
            row[c] = Value::Str("a value no earlier row carries".into());
        }
        table.push_row(row).expect("same schema");
    }
    check_all_subsets(&tok, &table, query, "after push");
    // And it equals a table built fresh with the same rows.
    let mut fresh = Table::new(table.schema().clone());
    for r in 0..table.nrows() {
        fresh
            .push_row(
                (0..table.ncols())
                    .map(|c| table.value(r, c).clone())
                    .collect(),
            )
            .expect("same schema");
    }
    assert_eq!(table, fresh);
    let a = llmqo::relational::encode_table(&tok, &table, query).expect("ok");
    let b = llmqo::relational::encode_table(&tok, &fresh, query).expect("ok");
    assert_eq!(a.reorder, b.reorder);
    assert_eq!(a.fragments, b.fragments);
}

// ---------------------------------------------------------------------------
// The executor's two-phase front half (ISSUE 17)
// ---------------------------------------------------------------------------

/// A solver that records the table it was handed and the plan it returned.
struct Recording<'a> {
    inner: &'a dyn Reorderer,
    seen: RefCell<Vec<(ReorderTable, ReorderPlan)>>,
}

impl Reorderer for Recording<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reorder(&self, table: &ReorderTable, fds: &FunctionalDeps) -> Result<Solution, SolveError> {
        let solution = self.inner.reorder(table, fds)?;
        self.seen
            .borrow_mut()
            .push((table.clone(), solution.plan.clone()));
        Ok(solution)
    }
}

/// A solver that answers with a plan computed elsewhere.
struct Replay(Solution);

impl Reorderer for Replay {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn reorder(&self, _: &ReorderTable, _: &FunctionalDeps) -> Result<Solution, SolveError> {
        Ok(self.0.clone())
    }
}

/// A row's prompt identity as text: its fragments in query-field order.
fn row_text(table: &Table, row: usize, query: &LlmQuery) -> String {
    let cols = table.resolve_columns(&query.fields).expect("known fields");
    query
        .fields
        .iter()
        .zip(cols)
        .map(|(name, col)| field_fragment(name, &table.value(row, col).to_string()))
        .collect()
}

/// What one `warmed`-then-`offered` execution saw and produced.
struct FrontHalfRun {
    /// The executor's output over `offered`.
    out: QueryOutput,
    /// The table the solver was handed and the plan it returned, if the
    /// batch had a novel row.
    solved: Option<(ReorderTable, ReorderPlan)>,
}

/// Executes `query` over `warmed` (filling the answer cache) and then over
/// `offered` on one fresh executor, scheduling with `solver`.
fn run_front_half(
    tok: Tokenizer,
    warmed: &Table,
    offered: &Table,
    query: &LlmQuery,
    solver: &dyn Reorderer,
) -> FrontHalfRun {
    let eng = engine();
    let exec = QueryExecutor::new(&eng, &OracleLlm, tok);
    let fds = FunctionalDeps::empty(offered.ncols());
    let opts = OptimizerConfig::all();
    if warmed.nrows() > 0 {
        exec.execute_with(warmed, query, &Ggr::default(), &fds, &mod3_truth, opts)
            .expect("warm-up runs");
    }
    let recording = Recording {
        inner: solver,
        seen: RefCell::new(Vec::new()),
    };
    let out = exec
        .execute_with(offered, query, &recording, &fds, &mod3_truth, opts)
        .expect("offered batch runs");
    let mut seen = recording.seen.into_inner();
    assert!(seen.len() <= 1, "one solve per batch");
    FrontHalfRun {
        out,
        solved: seen.pop(),
    }
}

/// The one-phase derivation the two-phase front half replaced: encode every
/// offered row, drop the rows `warmed` already answered, group the rest by
/// identical prompt text, and `select_rows` the first row of each group. Returns that table and the representatives' row indices.
fn full_encode_then_select(
    tok: &Tokenizer,
    warmed: &Table,
    offered: &Table,
    query: &LlmQuery,
) -> (ReorderTable, Vec<usize>, u64) {
    let answered: HashSet<String> = (0..warmed.nrows())
        .map(|r| row_text(warmed, r, query))
        .collect();
    let mut first_of: Vec<String> = Vec::new();
    let mut reps: Vec<usize> = Vec::new();
    let mut hits = 0u64;
    for r in 0..offered.nrows() {
        let text = row_text(offered, r, query);
        if answered.contains(&text) {
            hits += 1;
        } else if !first_of.contains(&text) {
            first_of.push(text);
            reps.push(r);
        }
    }
    let full = encode_table(tok, offered, query).expect("known fields");
    (full.reorder.select_rows(&reps), reps, hits)
}

/// Asserts the executor's front half over `offered` (after `warmed`) gave
/// its solver the table [`full_encode_then_select`] derives and reported
/// the matching ledger. Returns the run and the reference table.
fn assert_front_half_matches_select(
    tok: Tokenizer,
    warmed: &Table,
    offered: &Table,
    query: &LlmQuery,
    context: &str,
) -> (FrontHalfRun, ReorderTable) {
    let solver = Ggr::default();
    let run = run_front_half(tok, warmed, offered, query, &solver);
    let (want, reps, hits) = full_encode_then_select(&tok, warmed, offered, query);
    let opt = &run.out.report.opt;
    assert_eq!(opt.cache_hits, hits, "{context}: cache hits");
    assert_eq!(opt.llm_calls, reps.len() as u64, "{context}: calls");
    assert_eq!(
        opt.rows_deduped,
        offered.nrows() as u64 - hits - reps.len() as u64,
        "{context}: deduped"
    );
    assert_eq!(run.out.outputs.len(), offered.nrows(), "{context}: outputs");
    match &run.solved {
        None => assert!(reps.is_empty(), "{context}: novel rows never solved"),
        Some((seen, plan)) => {
            assert_eq!(seen, &want, "{context}: the table the solver saw");
            let fds = FunctionalDeps::empty(want.ncols());
            let reference = solver.reorder(&want, &fds).expect("ggr solves");
            assert_eq!(plan, &reference.plan, "{context}: plan");
            assert_eq!(
                run.out.report.field_phc,
                phc_of_plan(&want, plan),
                "{context}: field PHC"
            );
            assert_eq!(
                run.out.report.claimed_phc, reference.claimed_phc,
                "{context}: claimed PHC"
            );
        }
    }
    (run, want)
}

/// A string table of `cells` (three columns, four-value pools, so shared
/// values and duplicate rows are common).
fn pooled_table(cells: &[Vec<u8>]) -> Table {
    let mut t = Table::new(Schema::of_strings(&["a", "b", "c"]));
    for row in cells {
        t.push_row(vec![
            format!("value {} of a", "x".repeat(row[0] as usize)).into(),
            format!("b{}", row[1]).into(),
            format!("{} c", row[2]).into(),
        ])
        .expect("three strings");
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (a) The encoder over any rows of a random table ≡ the frozen string
    /// encoder: unsorted and repeated subsets and a field listed twice, the
    /// full encode on a cold table and the subset on the warm one.
    #[test]
    fn random_tables_encode_like_the_string_encoder(
        cells in prop::collection::vec(prop::collection::vec(0u8..4, 3), 1..=24),
        fields in prop::collection::vec(0usize..3, 1..=4),
        picks in prop::collection::vec(0usize..1000, 0..=40),
    ) {
        let _g = shared();
        let table = pooled_table(&cells);
        let names = ["a", "b", "c"];
        let query = query_over(&fields.iter().map(|&f| names[f]).collect::<Vec<_>>());
        let rows: Vec<usize> = picks.iter().map(|&r| r % table.nrows()).collect();
        let tok = Tokenizer::new();
        for subset in [None, Some(&rows[..])] {
            assert_encoding_matches_reference(&tok, &table, &query, subset, "random table");
        }
    }

    /// (b) Through the executor: for random tables × cache-hit masks (the
    /// rows an earlier batch on the same executor already submitted), the
    /// solver is handed `full_encode.select_rows(reps)` cell for cell and
    /// the ledger matches.
    #[test]
    fn the_solver_sees_full_encode_then_select_rows(
        cells in prop::collection::vec(prop::collection::vec(0u8..4, 3), 1..=24),
        fields in prop::collection::vec(0usize..3, 1..=4),
        warm in prop::collection::vec(0usize..1000, 0..=12),
        picks in prop::collection::vec(0usize..1000, 1..=40),
        prewarm in prop::bool::ANY,
    ) {
        let _g = shared();
        let table = pooled_table(&cells);
        let names = ["a", "b", "c"];
        let query = query_over(&fields.iter().map(|&f| names[f]).collect::<Vec<_>>());
        let pick = |ps: &[usize]| -> Vec<usize> { ps.iter().map(|&r| r % table.nrows()).collect() };
        let tok = Tokenizer::new();
        if prewarm {
            // Fill the table's dictionaries before the derived tables share them.
            encode_table(&tok, &table, &query).expect("known fields");
        }
        assert_front_half_matches_select(
            tok,
            &table.select_rows(&pick(&warm)),
            &table.select_rows(&pick(&picks)),
            &query,
            "random batch",
        );
    }
}

/// The numbering trap: `ValueId`s are numbered over **offered** rows, not
/// over the rows that survive the cache. Offered row 0 is a cache hit that
/// introduces `bravo` before the first novel row introduces `alpha`; the
/// two values head equally long, equally large groups of the same column,
/// which GGR's `best_group` separates by `ValueId` order alone. Numbering
/// over the representatives only would give `alpha` the smaller id and
/// schedule its group first.
#[test]
fn a_cache_hit_row_that_introduces_a_value_first_keeps_the_tie_order() {
    let _g = shared();
    let tok = Tokenizer::new();
    let rows_of = |rows: &[[&str; 2]]| {
        let mut t = Table::new(Schema::of_strings(&["team", "note"]));
        for row in rows {
            t.push_row(vec![row[0].into(), row[1].into()])
                .expect("two strings");
        }
        t
    };
    let warmed = rows_of(&[["bravo", "seen before"]]);
    let offered = rows_of(&[
        ["bravo", "seen before"],
        ["alpha", "first novel note"],
        ["alpha", "second novel note"],
        ["bravo", "third novel note"],
        ["bravo", "fourth novel note"],
    ]);
    let query = query_over(&["team", "note"]);
    let (run, want) =
        assert_front_half_matches_select(tok, &warmed, &offered, &query, "numbering trap");
    let (_, plan) = run.solved.as_ref().expect("four novel rows");
    assert_eq!(run.out.report.opt.cache_hits, 1);

    // The fixture is live: the two groups tie, and the plan GGR finds on a
    // table numbered over the representatives alone is a different one.
    let (alpha, bravo) = (want.cell(0, 0), want.cell(2, 0));
    assert_eq!(alpha.len, bravo.len, "equal fragment lengths");
    assert!(
        bravo.value < alpha.value,
        "the hit row numbered bravo first"
    );
    let fds = FunctionalDeps::empty(2);
    let over_reps = encode_table(&tok, &offered.select_rows(&[1, 2, 3, 4]), &query)
        .expect("known fields")
        .reorder;
    let flipped = Ggr::default()
        .reorder(&over_reps, &fds)
        .expect("ggr solves");
    assert_ne!(
        &flipped.plan, plan,
        "numbering over representatives flips the tie"
    );
    let scheduled: Vec<usize> = plan.rows().map(|rp| rp.row).collect();
    assert_eq!(&scheduled[..2], &[2, 3], "bravo's group is served first");

    // And the serving report is the one the reference plan produces.
    let reference = Ggr::default().reorder(&want, &fds).expect("ggr solves");
    let replayed = run_front_half(tok, &warmed, &offered, &query, &Replay(reference));
    assert_eq!(run.out.report.engine, replayed.out.report.engine);
    assert_eq!(run.out.outputs, replayed.out.outputs);
}

/// Runs `sql` on the first 80% of `ds`, checkpoints, restores into a fresh
/// executor and runs on the whole table: `(checkpoint entries, cache hits,
/// LLM calls)` of the resumed run.
fn resume_from_head_checkpoint(ds: &Dataset, table_name: &str, sql: &str) -> (usize, u64, u64) {
    let solver = Ggr::default();
    let head = ds.table.head(ds.table.nrows() * 4 / 5);
    let eng = engine();
    let exec = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let mut runner = SqlRunner::new(&exec, &solver).with_optimizer(OptimizerConfig::all());
    runner.register(table_name, &head, &ds.fds);
    runner.run(sql, &mod3_truth).expect("head run");
    let checkpoint = runner.checkpoint();

    let eng = engine();
    let exec = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    exec.restore(&checkpoint);
    let mut runner = SqlRunner::new(&exec, &solver).with_optimizer(OptimizerConfig::all());
    runner.register(table_name, &ds.table, &ds.fds);
    let resumed = runner.run(sql, &mod3_truth).expect("resumed run");
    // The resumed statement answers exactly like an uncheckpointed one.
    let fresh = common::run_sql(ds, sql, OptimizerConfig::all(), table_name);
    common::assert_same_results(&resumed, &fresh, sql);
    let sum = |f: fn(&llmqo::relational::OptStats) -> u64| -> u64 {
        resumed.stages.iter().map(|s| f(&s.report.opt)).sum()
    };
    (
        checkpoint.len(),
        sum(|o| o.cache_hits),
        sum(|o| o.llm_calls),
    )
}

/// Row keys are content-based: a checkpoint taken on `head(80%)` hits on
/// the full table exactly as often as the text-keyed cache did. The
/// numbers are the parent commit's (string keys, FNV-1a) for 300-row
/// datasets under `OptimizerConfig::all()`.
#[test]
fn a_head_checkpoint_hits_on_the_full_table_as_at_the_parent_commit() {
    let _g = shared();
    let pinned = PINNED_RESUME;
    for ((id, table_name, sql), want) in seven_dataset_cases().into_iter().zip(pinned) {
        let ds = Dataset::generate_with_rows(id, 300);
        let got = resume_from_head_checkpoint(&ds, table_name, sql);
        assert_eq!(got, want, "{id:?}: (checkpoint entries, hits, calls)");
    }
}

/// `(checkpoint entries, cache hits, LLM calls)` per `seven_dataset_cases`
/// entry, measured at the parent commit.
const PINNED_RESUME: [(usize, u64, u64); 7] = [
    (185, 438, 40), // Movies
    (196, 392, 60), // Products
    (175, 460, 40), // BIRD
    (86, 417, 3),   // PDMX
    (38, 446, 0),   // Beer
    (264, 391, 43), // SQuAD
    (296, 333, 67), // FEVER
];

/// The optimizer prices an LLM filter from a 64-row sample of fragment
/// token counts. Reading a count from a filled dictionary slot instead of
/// re-serializing and re-counting the cell is invisible: bit-identical
/// estimates for every LLM filter of the seven-dataset statements on a cold
/// table, on the table each statement has just run over (slots filled as
/// far as its `LIMIT` reached), and under a tokenizer the slots do not
/// belong to.
#[test]
fn estimates_from_dictionary_slots_equal_recounted_estimates() {
    use llmqo::relational::{estimate_llm_op, parse_sql, WhereConjunct};
    let _g = shared();
    let mut filters = 0;
    for (id, table_name, sql) in seven_dataset_cases() {
        let ds = Dataset::generate_with_rows(id, 300);
        let stmt = parse_sql(sql).expect("case parses");
        let queries: Vec<(LlmQuery, bool)> = stmt
            .where_clause
            .iter()
            .filter_map(|conjunct| match conjunct {
                WhereConjunct::Llm {
                    call,
                    label,
                    negated,
                } => Some((
                    LlmQuery::filter(
                        "estimated",
                        &call.prompt,
                        call.fields.clone(),
                        vec!["Yes".into(), "No".into()],
                        label,
                        2.0,
                    ),
                    *negated,
                )),
                WhereConjunct::Sql(_) => None,
            })
            .collect();
        let check = |stage: &str| {
            let tok = Tokenizer::new();
            for (query, negated) in &queries {
                assert_eq!(
                    estimate_llm_op(&ds.table, &tok, query, *negated),
                    common::reference_estimate_llm_op(&ds.table, &tok, query, *negated),
                    "{id:?} {stage}: {}",
                    query.user_prompt,
                );
            }
        };
        check("cold");
        common::run_sql(&ds, sql, OptimizerConfig::all(), table_name);
        check("after the statement");
        filters += queries.len();
    }
    assert_eq!(filters, 14, "two LLM filters per case");
}

#[test]
fn unbounded_cache_matches_a_btreeset_model_under_the_mix_hasher() {
    let answer = |n: u64| CachedAnswer {
        prompt_tokens: n,
        output_tokens: 1,
    };
    let key_of = |id: u64| {
        let mut key = RowKey::default();
        key.push(id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        key
    };
    for seed in 1u64..=4 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cache = AnswerCache::new();
        // Interned out of text order, so `export` must sort by text.
        let instrs = ["q", "p"].map(|text| (text, cache.instruction_id(text)));
        let mut model: BTreeSet<(&str, u64)> = BTreeSet::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        for step in 0..4_000 {
            let (text, instr) = instrs[rng.random_range(0..2usize)];
            let key = key_of(rng.random_range(0..300));
            if rng.random_range(0..2) == 0 {
                let hit = cache.lookup(instr, key).is_some();
                assert_eq!(
                    hit,
                    model.contains(&(text, key.hash)),
                    "seed {seed} step {step}: lookup"
                );
                if hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
            } else {
                cache.insert(instr, key, answer(step));
                model.insert((text, key.hash));
            }
            // `export()` is sorted whatever the map's hasher iterates like,
            // so it lists the model's set in the model's order.
            let exported: Vec<(String, u64)> = cache
                .export()
                .into_iter()
                .map(|e| (e.instruction.to_string(), e.key_hash))
                .collect();
            let live: Vec<(String, u64)> = model.iter().map(|&(t, h)| (t.to_owned(), h)).collect();
            assert_eq!(exported, live, "seed {seed} step {step}: live set");
            assert_eq!(cache.len(), model.len(), "seed {seed} step {step}: entries");
        }
        assert!(hits > 0 && misses > 0, "seed {seed}: both outcomes ran");
    }
}

/// `LIMIT 50` over a fresh 10 000-row table of unique text builds the
/// column dictionary once (one hash probe per row) but tokenizes only the
/// fragments of the rows its lazy batches touch.
#[test]
fn lazy_limit_tokenizes_the_rows_it_touches_not_the_table() {
    let _g = OBS.write().unwrap_or_else(|e| e.into_inner());
    const ROWS: usize = 10_000;
    let mut table = Table::new(Schema::of_strings(&["review"]));
    for i in 0..ROWS {
        table
            .push_row(vec![format!("review number {i} with its own words").into()])
            .expect("one string column");
    }
    let fds = llmqo::core::FunctionalDeps::empty(1);
    let eng = engine();
    let exec = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&exec, &solver).with_optimizer(OptimizerConfig::all());
    runner.register("t", &table, &fds);

    llmqo_obs::registry().reset();
    llmqo_obs::set_enabled(true);
    let result = runner.run(
        "SELECT review FROM t WHERE LLM('positive?', review) = 'Yes' LIMIT 50",
        &mod3_truth,
    );
    llmqo_obs::set_enabled(false);
    let result = result.expect("statement runs");
    assert_eq!(result.rows.len(), 50);

    let counter = |name: &str| llmqo_obs::registry().counter(name).get();
    let rows_in: u64 = result.stages.iter().map(|s| s.report.opt.rows_in).sum();
    assert!(
        rows_in < ROWS as u64 / 10,
        "lazy LIMIT scanned {rows_in} rows"
    );
    assert_eq!(counter("sql.encode.dict_builds"), 1);
    assert_eq!(counter("sql.encode.cells"), rows_in);
    assert_eq!(
        counter("sql.encode.fragments_tokenized"),
        rows_in,
        "one fragment per touched row of a unique-text column"
    );
}

fn table_cols(table: &Table, query: &LlmQuery) -> Vec<usize> {
    table.resolve_columns(&query.fields).expect("known fields")
}

/// A statement resumed from a checkpoint over the first 80% of its table
/// tokenizes only what the engine serves: on a fresh table (no dictionary
/// built, no fragment tokenized) it tokenizes exactly the distinct
/// `(field, value)` fragments of its novel rows — none of a row the answer
/// cache answers — and its results are byte-identical to a cold run's.
#[test]
fn a_resumed_statement_tokenizes_only_its_novel_rows_values() {
    let _g = OBS.write().unwrap_or_else(|e| e.into_inner());
    const ROWS: usize = 400;
    const SQL: &str = "SELECT movietitle FROM movies \
        WHERE LLM('Is the review positive?', movietitle, reviewcontent) = 'Yes'";
    let solver = Ggr::default();
    let checkpoint = {
        let ds = Dataset::generate_with_rows(DatasetId::Movies, ROWS);
        let head = ds.table.head(ROWS * 4 / 5);
        let eng = engine();
        let exec = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let mut runner = SqlRunner::new(&exec, &solver).with_optimizer(OptimizerConfig::all());
        runner.register("movies", &head, &ds.fds);
        runner.run(SQL, &mod3_truth).expect("head run");
        runner.checkpoint()
    };

    let ds = Dataset::generate_with_rows(DatasetId::Movies, ROWS);
    let eng = engine();
    let exec = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    exec.restore(&checkpoint);
    let mut runner = SqlRunner::new(&exec, &solver).with_optimizer(OptimizerConfig::all());
    runner.register("movies", &ds.table, &ds.fds);
    llmqo_obs::registry().reset();
    llmqo_obs::set_enabled(true);
    let resumed = runner.run(SQL, &mod3_truth);
    llmqo_obs::set_enabled(false);
    let resumed = resumed.expect("resumed run");
    let tokenized = llmqo_obs::registry()
        .counter("sql.encode.fragments_tokenized")
        .get();

    // Novel rows: those whose prompt text no head row has.
    let query = query_over(&["movietitle", "reviewcontent"]);
    let answered: HashSet<String> = (0..ROWS * 4 / 5)
        .map(|r| row_text(&ds.table, r, &query))
        .collect();
    let novel: Vec<usize> = (0..ROWS)
        .filter(|&r| !answered.contains(&row_text(&ds.table, r, &query)))
        .collect();
    let (table, cols) = (&ds.table, table_cols(&ds.table, &query));
    let values = |rows: &mut dyn Iterator<Item = usize>| -> HashSet<(usize, String)> {
        rows.flat_map(|r| {
            cols.iter()
                .map(move |&c| (c, table.value(r, c).to_string()))
        })
        .collect()
    };
    let novel_values = values(&mut novel.iter().copied());
    let all_values = values(&mut (0..ROWS));
    let opt = &resumed.stages[0].report.opt;
    assert_eq!(resumed.stages.len(), 1, "one LLM operator");
    assert_eq!(opt.cache_hits, (ROWS - novel.len()) as u64, "cache hits");
    assert!(
        !novel.is_empty() && novel_values.len() < all_values.len(),
        "{} novel rows; {} of {} values",
        novel.len(),
        novel_values.len(),
        all_values.len()
    );
    assert_eq!(
        tokenized,
        novel_values.len() as u64,
        "fragments tokenized: the novel rows' distinct values, not the table's {}",
        all_values.len()
    );

    let cold = common::run_sql(
        &Dataset::generate_with_rows(DatasetId::Movies, ROWS),
        SQL,
        OptimizerConfig::all(),
        "movies",
    );
    let text = |r: &llmqo::relational::SqlResult| {
        format!(
            "{:?}",
            (&r.columns, &r.rows, &r.aggregate, &r.stages[0].outputs)
        )
    };
    assert_eq!(text(&resumed), text(&cold), "resumed vs cold results");
}
