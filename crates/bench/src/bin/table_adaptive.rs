//! Measures the **adaptive runtime re-optimization** layer (ISSUE 5) on
//! top of the static SQL-aware optimizer: mid-query LLM-filter re-ranking
//! from observed pass rates, selectivity-aimed lazy-`LIMIT` batches, and
//! the session answer cache. Three arms, each asserting results identical
//! between modes before reporting the cost side:
//!
//! 1. **Skewed-selectivity multi-filter** (BIRD): the uniform 1/|labels|
//!    prior makes the static optimizer run a cheap-but-lax filter before an
//!    expensive-but-picky one; adaptive execution observes the real pass
//!    rates in a pilot batch and flips the order for the remaining rows —
//!    strictly fewer LLM requests (fields are unique per row, so dedup
//!    cannot mask the reordering win).
//! 2. **Repeated query** (Movies): the same statement run twice on one
//!    executor; the second run must answer > 90% of rows from the session
//!    answer cache with zero new engine requests.
//! 3. **Adaptive LIMIT sizing** (Products): batches aimed at
//!    `ceil(remaining / observed_pipeline_selectivity)` instead of blind
//!    doubling — never more engine requests (doubling overshoots the last
//!    batch), occasionally a round-trip or two more while the posterior
//!    shakes off the uniform prior.
//!
//! Writes `BENCH_adaptive.json` with the headline numbers (at full scale
//! only).

use llmqo_bench::harness::{self, llm_calls, relay_time_s};
use llmqo_bench::report::{self, BenchFile};
use llmqo_datasets::{Dataset, DatasetId};
use llmqo_relational::{OptimizerConfig, SqlResult};

/// ~5% of rows are "Yes": a `= 'Yes'` filter is picky, `<> 'Yes'` is lax.
fn skewed_truth(row: usize) -> String {
    if row.is_multiple_of(20) {
        "Yes".to_string()
    } else {
        "No".to_string()
    }
}

fn run(ds: &Dataset, table: &str, sql: &str, opt: OptimizerConfig) -> SqlResult {
    let [result] = harness::run_sql(ds, table, [sql], opt, &skewed_truth);
    result
}

fn main() {
    let mut file = BenchFile::new(
        "adaptive",
        "LLM engine requests; results asserted identical between modes",
        harness::scale(),
        None,
    );

    // Arm 1: skewed-selectivity multi-filter. Written/cost order runs the
    // single-field `Text` filter (lax: passes ~95%) before the
    // `Body, Text` filter (picky: passes ~5%); both use unique-per-row
    // fields so request counts isolate the ordering decision.
    let sql1 = "SELECT PostId FROM bird \
                WHERE LLM('Is the comment recent? Yes or No.', Text) <> 'Yes' \
                AND LLM('Is the post statistics-related? Yes or No.', Body, Text) = 'Yes'";
    let bird = harness::load(DatasetId::Bird);
    let stat = run(&bird, "bird", sql1, OptimizerConfig::static_only());
    let adap = run(&bird, "bird", sql1, OptimizerConfig::all());
    assert_eq!(adap.rows, stat.rows, "adaptivity must not change results");
    let (sc, ac) = (llm_calls(&stat), llm_calls(&adap));
    assert!(
        ac < sc,
        "adaptive re-ranking must issue fewer requests: {ac} vs {sc}"
    );
    let reranks: u32 = adap.stages.iter().map(|s| s.report.opt.reranks).sum();
    assert!(reranks > 0, "the pilot batch must have flipped the order");
    report::section(
        "Adaptive arm 1: mid-query re-ranking under skewed selectivity \
         (BIRD, lax-cheap filter written first)",
        &["mode", "LLM calls", "re-ranks", "JCT"],
        &[
            vec![
                "static (PR-3 optimizer)".into(),
                sc.to_string(),
                "0".into(),
                report::secs(relay_time_s(&stat)),
            ],
            vec![
                "adaptive".into(),
                ac.to_string(),
                reranks.to_string(),
                report::secs(relay_time_s(&adap)),
            ],
        ],
    );
    file.cell([
        ("arm", "skewed_multi_filter".into()),
        ("dataset", "BIRD".into()),
        ("static_calls", sc.into()),
        ("adaptive_calls", ac.into()),
        ("reranks", reranks.into()),
        ("saved", ((sc - ac) as f64 / sc as f64).into()),
    ]);

    // Arm 2: repeated query on one executor — the session answer cache
    // short-circuits every repeated prompt.
    let sql2 = "SELECT movietitle FROM movies \
                WHERE LLM('Suitable for kids? Yes or No.', movieinfo, reviewcontent) = 'Yes'";
    let [first, second] = harness::run_sql(
        &harness::load(DatasetId::Movies),
        "movies",
        [sql2, sql2],
        OptimizerConfig::default(),
        &skewed_truth,
    );
    assert_eq!(first.rows, second.rows, "cache must not change results");
    let first_calls = llm_calls(&first);
    let second_calls = llm_calls(&second);
    let opt2 = second.stages[0].report.opt;
    let hit_rate = opt2.cache_hits as f64 / opt2.rows_in.max(1) as f64;
    assert!(
        hit_rate > 0.9,
        "repeated-query cache hit rate must exceed 90%: {hit_rate}"
    );
    assert_eq!(second_calls, 0, "a repeat run must not touch the engine");
    report::section(
        "Adaptive arm 2: session answer cache on a repeated statement (Movies)",
        &["run", "LLM calls", "cache hits", "hit rate", "tokens saved"],
        &[
            vec![
                "first".into(),
                first_calls.to_string(),
                first.stages[0].report.opt.cache_hits.to_string(),
                report::pct(0.0),
                first.stages[0].report.opt.cache_tokens_saved.to_string(),
            ],
            vec![
                "second".into(),
                second_calls.to_string(),
                opt2.cache_hits.to_string(),
                report::pct(hit_rate),
                opt2.cache_tokens_saved.to_string(),
            ],
        ],
    );
    file.cell([
        ("arm", "repeated_query".into()),
        ("dataset", "Movies".into()),
        ("first_calls", first_calls.into()),
        ("second_calls", second_calls.into()),
        ("hit_rate", hit_rate.into()),
        ("tokens_saved", opt2.cache_tokens_saved.into()),
    ]);

    // Arm 3: LIMIT batch sizing — aimed batches vs blind doubling.
    let sql3 = "SELECT product_title FROM products \
                WHERE LLM('Is this a bargain? Yes or No.', text, product_title) = 'Yes' \
                LIMIT 10";
    let products = harness::load(DatasetId::Products);
    let stat3 = run(&products, "products", sql3, OptimizerConfig::static_only());
    let adap3 = run(&products, "products", sql3, OptimizerConfig::all());
    assert_eq!(adap3.rows, stat3.rows, "sizing must not change results");
    let stats_of = |r: &SqlResult| (llm_calls(r), r.stages[0].report.opt.batches);
    let ((sc3, sb3), (ac3, ab3)) = (stats_of(&stat3), stats_of(&adap3));
    assert!(
        ac3 <= sc3,
        "aimed batches must not issue more requests than doubling: {ac3} vs {sc3}"
    );
    report::section(
        "Adaptive arm 3: LIMIT 10 batch sizing — ceil(remaining/selectivity) \
         vs blind doubling (Products)",
        &["mode", "LLM calls", "batches", "rows skipped", "JCT"],
        &[
            vec![
                "doubling".into(),
                sc3.to_string(),
                sb3.to_string(),
                stat3.stages[0].report.opt.rows_skipped.to_string(),
                report::secs(relay_time_s(&stat3)),
            ],
            vec![
                "aimed".into(),
                ac3.to_string(),
                ab3.to_string(),
                adap3.stages[0].report.opt.rows_skipped.to_string(),
                report::secs(relay_time_s(&adap3)),
            ],
        ],
    );
    file.cell([
        ("arm", "limit_sizing".into()),
        ("dataset", "Products".into()),
        ("doubling_calls", sc3.into()),
        ("aimed_calls", ac3.into()),
        ("doubling_batches", sb3.into()),
        ("aimed_batches", ab3.into()),
    ]);
    file.write();
}
