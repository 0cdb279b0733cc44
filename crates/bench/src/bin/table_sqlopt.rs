//! Reproduces the paper's **SQL-aware optimization** savings (its
//! "Optimizing LLM invocations" section) on Movies, Products and BIRD:
//! exact request deduplication, cheap-predicate/LLM-operator reordering, and
//! `LIMIT`-driven lazy evaluation, all applied by the cost-based logical
//! optimizer in `llmqo-relational`.
//!
//! Two arms per dataset, oracle (`OptimizerConfig::none()`) vs optimized
//! (`::all()`):
//!
//! 1. a duplicate-heavy filter (low-cardinality fields) — dedup savings;
//! 2. the same filter under `LIMIT k` — lazy-evaluation savings.
//!
//! Results are identical by construction (the differential suite enforces
//! it); this binary reports the *cost* side: LLM calls, prefill tokens
//! saved, and job completion time.

use llmqo_bench::{harness, report};
use llmqo_datasets::{Dataset, DatasetId};
use llmqo_relational::{OptimizerConfig, SqlResult};

struct Case {
    id: DatasetId,
    table: &'static str,
    dedup_sql: &'static str,
    limit_sql: &'static str,
}

const CASES: &[Case] = &[
    Case {
        id: DatasetId::Movies,
        table: "movies",
        dedup_sql: "SELECT movietitle FROM movies \
                    WHERE LLM('Is the review Fresh and from a top critic? Yes or No.', \
                    reviewtype, topcritic) = 'Yes'",
        limit_sql: "SELECT movietitle FROM movies \
                    WHERE LLM('Suitable for kids? Yes or No.', movieinfo, reviewcontent) = 'Yes' \
                    LIMIT 10",
    },
    Case {
        id: DatasetId::Products,
        table: "products",
        dedup_sql: "SELECT product_title FROM products \
                    WHERE LLM('Is this a verified 4+ star review? Yes or No.', \
                    verified_purchase, rating) = 'Yes'",
        limit_sql: "SELECT product_title FROM products \
                    WHERE LLM('Is the review helpful? Yes or No.', text, review_title) = 'Yes' \
                    LIMIT 10",
    },
    Case {
        id: DatasetId::Bird,
        table: "bird",
        dedup_sql: "SELECT PostId FROM bird \
                    WHERE LLM('Is the post statistics-related? Yes or No.', \
                    Body, PostDate, PostId) = 'Yes'",
        limit_sql: "SELECT PostId FROM bird \
                    WHERE LLM('Is the comment relevant to the post? Yes or No.', Body, Text) = 'Yes' \
                    LIMIT 10",
    },
];

fn run(ds: &Dataset, case: &Case, sql: &str, opt: OptimizerConfig) -> SqlResult {
    let truth = |row: usize| {
        if row.is_multiple_of(3) {
            "Yes".to_string()
        } else {
            "No".to_string()
        }
    };
    let [result] = harness::run_sql(ds, case.table, [sql], opt, &truth);
    result
}

fn totals(res: &SqlResult) -> (u64, u64, u64, f64) {
    let saved = res
        .stages
        .iter()
        .map(|s| s.report.opt.llm_calls_saved())
        .sum();
    let prefill = res
        .stages
        .iter()
        .map(|s| s.report.opt.prefill_tokens_saved)
        .sum();
    let calls = harness::llm_calls(res);
    (calls, saved, prefill, harness::relay_time_s(res))
}

fn main() {
    let mut dedup_rows = Vec::new();
    let mut limit_rows = Vec::new();
    for case in CASES {
        let ds = harness::load(case.id);
        // Arm 1: duplicate-heavy filter — dedup does the work.
        let off = run(&ds, case, case.dedup_sql, OptimizerConfig::none());
        let on = run(&ds, case, case.dedup_sql, OptimizerConfig::all());
        assert_eq!(on.rows, off.rows, "{}: results must not change", case.table);
        let (off_calls, _, _, off_jct) = totals(&off);
        let (on_calls, on_saved, on_prefill, on_jct) = totals(&on);
        dedup_rows.push(vec![
            case.id.name().to_owned(),
            off_calls.to_string(),
            on_calls.to_string(),
            report::pct(on_saved as f64 / off_calls as f64),
            format!("{on_prefill}"),
            report::secs(off_jct),
            report::secs(on_jct),
        ]);

        // Arm 2: LIMIT k — lazy evaluation stops the scan early.
        let off = run(&ds, case, case.limit_sql, OptimizerConfig::none());
        let on = run(&ds, case, case.limit_sql, OptimizerConfig::all());
        assert_eq!(on.rows, off.rows, "{}: results must not change", case.table);
        let (off_calls, _, _, off_jct) = totals(&off);
        let (on_calls, _, _, on_jct) = totals(&on);
        assert!(
            on_calls < off_calls,
            "{}: lazy LIMIT must issue strictly fewer requests",
            case.table
        );
        limit_rows.push(vec![
            case.id.name().to_owned(),
            off_calls.to_string(),
            on_calls.to_string(),
            report::pct((off_calls - on_calls) as f64 / off_calls as f64),
            report::secs(off_jct),
            report::secs(on_jct),
        ]);
    }
    report::section(
        "SQL-aware opts, arm 1: exact dedup on duplicate-heavy filters \
         (paper: each distinct prompt billed once)",
        &[
            "Dataset",
            "calls (off)",
            "calls (on)",
            "saved",
            "prefill tokens saved",
            "JCT off",
            "JCT on",
        ],
        &dedup_rows,
    );
    report::section(
        "SQL-aware opts, arm 2: lazy LIMIT 10 (paper: stop issuing requests \
         once enough rows qualify)",
        &[
            "Dataset",
            "calls (off)",
            "calls (on)",
            "saved",
            "JCT off",
            "JCT on",
        ],
        &limit_rows,
    );
}
