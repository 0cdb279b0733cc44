//! Differential contract of the adaptive runtime layer (ISSUE 5): with
//! adaptive re-optimization and the session answer cache on, query results
//! are row-for-row identical to both the static (PR-3) optimizer and the
//! optimizations-off oracle on all seven tier-1 datasets — while the
//! reports show the runtime wins: mid-query re-ranking under skewed
//! selectivities, `ceil(remaining / observed_selectivity)` LIMIT batches,
//! over-90% answer-cache hit rates on repeated queries, and `OptStats`
//! accounting that reconciles with engine request counts. Also here:
//! tracker-convergence and answer-cache-safety proptests.

mod common;

use common::{engine, skewed_truth};
use llmqo::core::FunctionalDeps;
use llmqo::core::Ggr;
use llmqo::costmodel::SelectivityPosterior;
use llmqo::datasets::{Dataset, DatasetId};
use llmqo::relational::adaptive::DEFAULT_PRIOR_STRENGTH;
use llmqo::relational::{LlmQuery, Schema, Table};
use llmqo::relational::{OptimizerConfig, QueryExecutor, SelectivityTracker, SqlResult, SqlRunner};
use llmqo::serve::OracleLlm;
use llmqo::tokenizer::Tokenizer;
use proptest::prelude::*;

fn run_sql(ds: &Dataset, sql: &str, opt: OptimizerConfig, table_name: &str) -> SqlResult {
    common::run_sql_with_truth(ds, sql, opt, table_name, &skewed_truth)
}

/// One multi-LLM-filter statement per tier-1 dataset (some with `LIMIT`):
/// adaptive-on must return exactly what adaptive-off (static optimizer) and
/// the optimizations-off oracle return, on every dataset.
#[test]
fn adaptive_is_result_identical_on_all_seven_datasets() {
    for (id, name, sql) in common::seven_dataset_cases() {
        let ds = Dataset::generate_with_rows(id, 120);
        let adaptive = run_sql(&ds, sql, OptimizerConfig::all(), name);
        let static_only = run_sql(&ds, sql, OptimizerConfig::static_only(), name);
        let oracle = run_sql(&ds, sql, OptimizerConfig::none(), name);
        assert_eq!(
            adaptive.rows,
            static_only.rows,
            "{}: adaptivity changed results for {sql}",
            id.name()
        );
        assert_eq!(
            adaptive.rows,
            oracle.rows,
            "{}: optimizations changed results for {sql}",
            id.name()
        );
        assert_eq!(adaptive.columns, oracle.columns, "{sql}");
        assert_eq!(adaptive.aggregate, oracle.aggregate, "{sql}");
        // Note: adaptive request counts are *not* asserted ≤ static here —
        // cost/(1−sel) ranking minimizes token spend, and on low-cardinality
        // fields dedup can make a lax filter nearly free in request terms.
        // The dedicated skewed-selectivity test below isolates the
        // reordering win where dedup cannot interfere.
    }
}

/// Mid-query re-ranking: the uniform prior makes the static optimizer run
/// the cheap-but-lax filter first; observations from the pilot batch flip
/// the order to picky-first, which issues far fewer LLM requests. The
/// fields are unique per row, so neither dedup nor the answer cache can
/// mask the reordering win.
#[test]
fn adaptive_rerank_beats_static_order_on_skewed_selectivity() {
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
    let ds_like = (table, fds);
    // Written/cost order: the short `note` filter is cheaper per row, so
    // the static optimizer runs it first — but it passes ~95% of rows,
    // while the expensive `review` filter rejects ~95%.
    let sql = "SELECT note FROM t \
               WHERE LLM('is the note recent?', note) <> 'Yes' \
               AND LLM('is the review glowing?', review) = 'Yes'";
    let run_with = |opt: OptimizerConfig| -> SqlResult {
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(opt);
        runner.register("t", &ds_like.0, &ds_like.1);
        runner.run(sql, &skewed_truth).unwrap()
    };
    let adaptive = run_with(OptimizerConfig::all());
    let static_only = run_with(OptimizerConfig::static_only());
    assert_eq!(adaptive.rows, static_only.rows);
    let calls = |r: &SqlResult| -> u64 { r.stages.iter().map(|s| s.report.opt.llm_calls).sum() };
    assert!(
        calls(&adaptive) < calls(&static_only),
        "adaptive {} should beat static {}",
        calls(&adaptive),
        calls(&static_only)
    );
    assert!(
        adaptive
            .notes
            .iter()
            .any(|n| n.contains("adaptive re-rank")),
        "re-rank event missing from notes: {:?}",
        adaptive.notes
    );
    let reranks: u32 = adaptive.stages.iter().map(|s| s.report.opt.reranks).sum();
    assert!(reranks > 0, "re-rank count should be surfaced in OptStats");
    // After re-ranking, the picky `=` filter runs first in the final
    // execution order ("-2": it was written second).
    assert_eq!(adaptive.stages[0].report.query, "sql-where-t-2");
}

/// Adaptive LIMIT sizing aims batches at `remaining / observed_selectivity`
/// instead of doubling blindly: under a picky filter it issues no more
/// requests than blind doubling, and the early-stop savings reconcile:
/// `rows_in + rows_skipped = llm_calls + llm_calls_saved()` covers every
/// candidate, matching engine request counts.
#[test]
fn adaptive_limit_sizing_and_early_stop_accounting_reconcile() {
    let ds = Dataset::generate_with_rows(DatasetId::Products, 500);
    let sql = "SELECT product_title FROM products \
               WHERE LLM('bargain?', text, product_title) = 'Yes' LIMIT 4";
    let adaptive = run_sql(&ds, sql, OptimizerConfig::all(), "products");
    let static_only = run_sql(&ds, sql, OptimizerConfig::static_only(), "products");
    let oracle = run_sql(&ds, sql, OptimizerConfig::none(), "products");
    assert_eq!(adaptive.rows, oracle.rows);
    assert_eq!(adaptive.rows.len(), 4);
    for res in [&adaptive, &static_only] {
        let opt = res.stages[0].report.opt;
        assert_eq!(
            opt.rows_in + opt.rows_skipped,
            opt.llm_calls + opt.llm_calls_saved(),
            "OptStats must reconcile with engine request counts"
        );
        assert_eq!(
            opt.rows_in + opt.rows_skipped,
            ds.table.nrows() as u64,
            "every candidate is either offered or skipped"
        );
        assert_eq!(opt.llm_calls, res.stages[0].report.engine.completed as u64);
        assert!(opt.rows_skipped > 0, "LIMIT 4 must stop the scan early");
    }
    let calls = |r: &SqlResult| r.stages[0].report.opt.llm_calls;
    assert!(calls(&adaptive) <= calls(&static_only));
    assert!(calls(&adaptive) < oracle.stages[0].report.opt.llm_calls);
}

/// Acceptance: running the same statement twice on one executor answers
/// over 90% of second-run rows from the session cache, with zero new
/// engine requests, and identical results.
#[test]
fn repeated_query_hits_answer_cache_above_90_percent() {
    let ds = Dataset::generate_with_rows(DatasetId::Movies, 200);
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver);
    runner.register("movies", &ds.table, &ds.fds);
    let sql = "SELECT movietitle FROM movies \
               WHERE LLM('kids?', movieinfo, reviewcontent) = 'Yes'";
    let first = runner.run(sql, &skewed_truth).unwrap();
    let second = runner.run(sql, &skewed_truth).unwrap();
    assert_eq!(first.rows, second.rows);
    let opt = second.stages[0].report.opt;
    assert_eq!(opt.llm_calls, 0, "repeat run must not touch the engine");
    let hit_rate = opt.cache_hits as f64 / opt.rows_in as f64;
    assert!(hit_rate > 0.9, "hit rate {hit_rate}");
    assert!(opt.cache_tokens_saved > 0);
    // Over the executor's lifetime — both statements' lookups — the hit
    // rate stays above 0.4.
    let (hits, looked_up) = [&first, &second]
        .iter()
        .flat_map(|r| &r.stages)
        .fold((0, 0), |(h, n), s| {
            (h + s.report.opt.cache_hits, n + s.report.opt.rows_in)
        });
    assert!(hits as f64 / looked_up as f64 > 0.4, "{hits}/{looked_up}");
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

/// Deterministic Bernoulli stream for the convergence property.
fn lcg_pass(seed: u64, i: u64, p: f64) -> bool {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 31;
    ((z >> 11) as f64 / (1u64 << 53) as f64) < p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SelectivityTracker` estimates converge to the true pass rate of a
    /// synthetic Bernoulli stream, for any prior and batching pattern.
    /// (The vendored proptest shim has integer strategies only; percentages
    /// map into `[0, 1]` rates.)
    #[test]
    fn tracker_converges_to_true_pass_rate(
        true_pct in 2u64..98,
        prior_pct in 5u64..95,
        batch in 1usize..64,
        seed in 0u64..1_000_000_000,
    ) {
        let true_rate = true_pct as f64 / 100.0;
        let prior = prior_pct as f64 / 100.0;
        let strength = DEFAULT_PRIOR_STRENGTH;
        let mut tracker = SelectivityTracker::new();
        tracker.register(0, prior);
        prop_assert!((tracker.selectivity(0).unwrap() - prior).abs() < 1e-9);
        let total = 4000u64;
        let mut passed_all = 0u64;
        let mut offered = 0u64;
        while offered < total {
            let n = (batch as u64).min(total - offered);
            let passed = (0..n).filter(|i| lcg_pass(seed, offered + i, true_rate)).count() as u64;
            tracker.observe(0, passed, n);
            passed_all += passed;
            offered += n;
        }
        let empirical = passed_all as f64 / total as f64;
        let estimate = tracker.selectivity(0).unwrap();
        // The posterior mean must sit within the prior's vanishing weight
        // of the empirical rate: |estimate − empirical| ≤ strength / total.
        prop_assert!(
            (estimate - empirical).abs() <= strength / total as f64 + 1e-9,
            "estimate {estimate} vs empirical {empirical}"
        );
        // And therefore near the true rate (Bernoulli noise at n = 4000).
        prop_assert!((estimate - true_rate).abs() < 0.05,
            "estimate {estimate} vs true {true_rate}");
    }

    /// Beta smoothing interpolates: with few observations the estimate
    /// stays between the prior and the empirical rate.
    #[test]
    fn posterior_mean_is_between_prior_and_empirical(
        prior_pct in 10u64..90,
        strength_raw in 1u64..16,
        passed in 0u64..10,
        extra in 0u64..20,
    ) {
        let prior = prior_pct as f64 / 100.0;
        let strength = strength_raw as f64;
        let total = passed + extra;
        let mut p = SelectivityPosterior::new(prior, strength);
        p.observe(passed, total);
        let mean = p.mean();
        if total > 0 {
            let empirical = passed as f64 / total as f64;
            let (lo, hi) = if empirical < prior { (empirical, prior) } else { (prior, empirical) };
            prop_assert!(mean >= lo - 1e-12 && mean <= hi + 1e-12,
                "mean {mean} outside [{lo}, {hi}]");
        } else {
            prop_assert!((mean - prior).abs() < 1e-12);
        }
    }

    /// Answer-cache hits never change result rows: executing a random
    /// duplicate-heavy table with the cache on (twice, so the second pass
    /// is nearly all hits) returns exactly the cache-off outputs.
    #[test]
    fn answer_cache_never_changes_results(
        rows in proptest::collection::vec((0u8..6, 0u8..4), 1..40),
        yes_mod in 1usize..5,
    ) {
        let mut table = Table::new(Schema::of_strings(&["a", "b"]));
        for &(a, b) in &rows {
            table
                .push_row(vec![format!("alpha value {a}").into(), format!("beta {b}").into()])
                .unwrap();
        }
        let fds = FunctionalDeps::empty(2);
        let query = LlmQuery::filter(
            "prop-cache",
            "Keep? Answer Yes or No.",
            vec!["a".into(), "b".into()],
            vec!["Yes".into(), "No".into()],
            "Yes",
            2.0,
        );
        let truth = move |row: usize| {
            if row.is_multiple_of(yes_mod) {
                "Yes".to_string()
            } else {
                "No".to_string()
            }
        };
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        let off = executor
            .execute(&table, &query, &solver, &fds, &truth)
            .unwrap();
        let on1 = executor
            .execute_with(&table, &query, &solver, &fds, &truth, OptimizerConfig::all())
            .unwrap();
        let on2 = executor
            .execute_with(&table, &query, &solver, &fds, &truth, OptimizerConfig::all())
            .unwrap();
        prop_assert_eq!(&off.outputs, &on1.outputs);
        prop_assert_eq!(&off.selected_rows, &on1.selected_rows);
        prop_assert_eq!(&off.outputs, &on2.outputs);
        prop_assert_eq!(&off.selected_rows, &on2.selected_rows);
        // Second pass: every row served from the cache, no engine work.
        prop_assert_eq!(on2.report.opt.llm_calls, 0);
        prop_assert_eq!(on2.report.opt.cache_hits, rows.len() as u64);
    }
}
