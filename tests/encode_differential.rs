//! Differential contract of the host-side encode path (ISSUE 12): the
//! column-dictionary encoder, the integer answer-cache row keys and the
//! stamp-based LRU behave exactly like the string pipeline they replaced.
//!
//! * `encode_table_rows` ≡ the frozen string encoder
//!   ([`common::reference_encode_rows`]) on all seven datasets × row
//!   subsets, a field listed twice, and typed columns whose `Display` texts
//!   collide — cold, warm, and on `select_rows`/`head`-derived tables;
//! * `push_row` invalidates the cached dictionaries;
//! * a checkpoint taken on a table's head still hits on the whole table
//!   (numbers pinned at the parent commit);
//! * a budgeted `AnswerCache` evicts the victims the `BTreeMap` LRU did;
//! * a lazy `LIMIT` tokenizes the rows it touches, not the table.
//!
//! The last test flips the process-global `llmqo_obs` gate and reads a
//! global counter, so it takes [`OBS`] exclusively; every other test that
//! encodes holds it shared.

mod common;

use common::{
    assert_encoding_matches_reference, engine, mod3_truth, seven_dataset_cases, tier1_datasets,
    ReferenceLru,
};
use llmqo::core::Ggr;
use llmqo::datasets::{Dataset, DatasetId};
use llmqo::relational::{
    AnswerCache, CachedAnswer, DataType, Field, LlmQuery, OptimizerConfig, QueryExecutor, RowKey,
    Schema, SqlRunner, Table, Value,
};
use llmqo::serve::OracleLlm;
use llmqo::tokenizer::Tokenizer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

#[test]
fn a_second_tokenizer_on_a_warm_table_still_matches_the_string_encoder() {
    let _g = shared();
    let ds = Dataset::generate_with_rows(DatasetId::Beer, 80);
    let query = &ds.queries[0];
    for piece_bytes in [4, 2, 7, 4] {
        let tok = Tokenizer::with_piece_bytes(piece_bytes);
        check_all_subsets(
            &tok,
            &ds.table,
            query,
            &format!("piece_bytes={piece_bytes}"),
        );
    }
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

#[test]
fn budgeted_cache_evicts_the_victims_the_btreemap_lru_did() {
    let answer = |n: u64| CachedAnswer {
        prompt_tokens: n,
        output_tokens: 1,
    };
    let key_of = |id: u64| {
        let mut key = RowKey::default();
        key.push(
            id.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            5 + (id % 23) as usize,
        );
        key
    };
    for (seed, max_entries, max_bytes) in [
        (1u64, Some(8usize), None),
        (2, None, Some(9 * 60usize)),
        (3, Some(12), Some(10 * 60)),
        (4, Some(1), None),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cache = AnswerCache::bounded(max_entries, max_bytes);
        let instr = cache.instruction_id("q");
        let mut model = ReferenceLru::bounded(max_entries, max_bytes);
        let live = |cache: &AnswerCache| -> Vec<u64> {
            cache.export().iter().map(|e| e.key_hash).collect()
        };
        for step in 0..4_000 {
            let key = key_of(rng.random_range(0..40));
            match rng.random_range(0..8) {
                0..=3 => {
                    let hit = cache.lookup(instr, key).is_some();
                    assert_eq!(
                        hit,
                        model.lookup(key.hash),
                        "seed {seed} step {step}: lookup"
                    );
                }
                4..=6 => {
                    cache.insert(instr, key, answer(step));
                    model.insert(key.hash, key.bytes);
                }
                _ => {
                    // Re-budget a live cache now and then, tighter or looser.
                    let entries = max_entries.map(|m| rng.random_range(1..=2 * m));
                    cache.set_budget(entries, max_bytes);
                    model.max_entries = entries;
                    model.enforce_budget();
                }
            }
            assert_eq!(
                live(&cache),
                model.live(),
                "seed {seed} step {step}: live set"
            );
            assert_eq!(
                cache.stats().evictions,
                model.evicted.len() as u64,
                "seed {seed} step {step}: evictions"
            );
        }
        assert!(
            !model.evicted.is_empty(),
            "seed {seed}: trace never evicted"
        );
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
