//! Differential contract of model-tier cascades (ISSUE 10): routing rows
//! through a cheap tier and escalating low-confidence ones to an expensive
//! tier is an *accuracy-for-dollars* trade, so its endpoints must be exact —
//! escalate-everything is byte-identical to the single-expensive-tier
//! oracle, and a never-escalating cascade whose cheap tier is always right
//! is byte-identical too — on all seven tier-1 datasets. In between, the
//! cascade must be deterministic in its seed, reconcile its tier ledger
//! exactly (`rows_in = rows_cheap + rows_escalated + rows_failed`),
//! escalate monotonically in the threshold, and render its EXPLAIN
//! annotations *only* when a cascade is configured — single-tier plans keep
//! their pre-cascade golden output.

mod common;

use common::{assert_same_results, assert_sql_identical, run_sql};
use llmqo::costmodel::{CascadePlan, SelectivityPosterior};
use llmqo::datasets::{Dataset, DatasetId};
use llmqo::relational::{CascadeConfig, OptimizerConfig, SqlResult};
use proptest::prelude::*;

const SEED: u64 = 0xD1FF;

fn rendering(r: &SqlResult) -> String {
    r.rows
        .iter()
        .map(|row| row.join(""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The exact rows of the seeded configuration matrix — including both
/// cascade endpoints — return precisely what the optimizations-off oracle
/// returns, on every tier-1 dataset's canonical statement.
#[test]
fn exact_matrix_entries_match_oracle_on_all_seven_datasets() {
    for (id, name, sql) in common::seven_dataset_cases() {
        let ds = Dataset::generate_with_rows(id, 120);
        let oracle = run_sql(&ds, sql, OptimizerConfig::none(), name);
        for entry in common::seeded_config_matrix(SEED) {
            if !entry.exact {
                continue;
            }
            let run = run_sql(&ds, sql, entry.opt, name);
            let context = format!("{}/{}", id.name(), entry.label);
            assert_same_results(&run, &oracle, &context);
        }
    }
}

/// The escalate-everything endpoint specifically: every row crosses the
/// threshold, takes the expensive tier's answer verbatim, and the stage
/// ledger shows it — zero rows kept a cheap-tier answer.
#[test]
fn escalate_all_takes_the_expensive_answer_on_every_row() {
    let opt = OptimizerConfig::cascaded(CascadeConfig::new(CascadePlan::mini_to_sonnet(1.0, SEED)));
    for (id, name, sql) in common::seven_dataset_cases() {
        let ds = Dataset::generate_with_rows(id, 120);
        let run = run_sql(&ds, sql, opt, name);
        let oracle = run_sql(&ds, sql, OptimizerConfig::none(), name);
        assert_same_results(&run, &oracle, id.name());
        for s in &run.stages {
            let o = &s.report.opt;
            if o.rows_cheap + o.rows_escalated == 0 {
                continue; // stage without an LLM operator
            }
            assert_eq!(o.rows_cheap, 0, "{}: a row kept a cheap answer", id.name());
            assert_eq!(
                o.rows_escalated + o.rows_failed,
                o.rows_in,
                "{}: escalation ledger",
                id.name()
            );
        }
    }
}

/// A mid-threshold cascade — the lossy operating point — is a pure function
/// of its seed: two runs are identical on every sim-deterministic field,
/// and each stage's tier ledger reconciles exactly against the rows
/// offered, with the escalated token volume bounded by the cheap tier's
/// (escalated groups replay a subset of the cheap tier's requests).
#[test]
fn mid_threshold_cascade_is_deterministic_and_reconciles_the_tier_ledger() {
    let opt = OptimizerConfig::cascaded(CascadeConfig::new(CascadePlan::mini_to_sonnet(0.5, SEED)));
    let mut total_escalated = 0u64;
    let mut total_cheap = 0u64;
    for (id, name, sql) in common::seven_dataset_cases() {
        let ds = Dataset::generate_with_rows(id, 120);
        let a = run_sql(&ds, sql, opt, name);
        let b = run_sql(&ds, sql, opt, name);
        assert_sql_identical(&a, &b, id.name());
        for s in &a.stages {
            let o = &s.report.opt;
            if o.rows_cheap + o.rows_escalated == 0 {
                continue;
            }
            assert_eq!(
                o.rows_in,
                o.rows_cheap + o.rows_escalated + o.rows_failed,
                "{}: tier ledger does not cover the offered rows",
                id.name()
            );
            assert!(
                o.esc_prompt_tokens <= o.cheap_prompt_tokens,
                "{}: escalation read more prompt tokens than the cheap pass",
                id.name()
            );
            if o.rows_escalated > 0 {
                assert!(o.esc_prompt_tokens > 0, "{}: free escalation", id.name());
            }
            total_escalated += o.rows_escalated;
            total_cheap += o.rows_cheap;
        }
    }
    assert!(total_escalated > 0, "threshold 0.5 never escalated");
    assert!(total_cheap > 0, "threshold 0.5 escalated everything");
}

/// Escalation volume is monotone in the threshold: raising `escalate_below`
/// can only send more rows to the expensive tier, never fewer, and the
/// endpoints pin 0% and 100%.
#[test]
fn escalations_are_monotone_in_the_threshold() {
    let ds = Dataset::generate_with_rows(DatasetId::Movies, 120);
    let (_, name, sql) = common::seven_dataset_cases()[0];
    let escalated = |threshold: f64| -> (u64, u64) {
        let opt = OptimizerConfig::cascaded(CascadeConfig::new(CascadePlan::mini_to_sonnet(
            threshold, SEED,
        )));
        let run = run_sql(&ds, sql, opt, name);
        let esc = run.stages.iter().map(|s| s.report.opt.rows_escalated).sum();
        let cheap = run.stages.iter().map(|s| s.report.opt.rows_cheap).sum();
        (esc, cheap)
    };
    let mut prev = 0u64;
    for threshold in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let (esc, cheap) = escalated(threshold);
        assert!(
            esc >= prev,
            "threshold {threshold}: escalations dropped ({esc} < {prev})"
        );
        if threshold <= 0.0 {
            assert_eq!(esc, 0, "threshold 0 must never escalate");
        }
        if threshold >= 1.0 {
            assert_eq!(cheap, 0, "threshold 1 must always escalate");
        }
        prev = esc;
    }
}

/// EXPLAIN and EXPLAIN ANALYZE render the cascade annotations — the
/// `-- cascade:` footer, the per-node tier split, and the measured per-tier
/// dollar ledger — when a cascade is configured, and none of them when it
/// is not, so pre-cascade renderings stay byte-identical.
#[test]
fn explain_renders_cascade_annotations_only_when_cascaded() {
    let ds = Dataset::generate_with_rows(DatasetId::Movies, 60);
    let (_, name, sql) = common::seven_dataset_cases()[0];
    let cascaded =
        OptimizerConfig::cascaded(CascadeConfig::new(CascadePlan::mini_to_sonnet(0.5, SEED)));

    // Plain EXPLAIN: footer documents the plan without executing it.
    let explain_on = rendering(&run_sql(&ds, &format!("EXPLAIN {sql}"), cascaded, name));
    assert!(
        explain_on.contains("-- cascade: escalate below 0.50 (seed 53759)"),
        "missing cascade footer:\n{explain_on}"
    );
    assert!(
        !explain_on.contains("measured $"),
        "EXPLAIN must not claim measured costs:\n{explain_on}"
    );

    // EXPLAIN ANALYZE: per-node tier splits plus the measured ledger.
    let analyze_on = rendering(&run_sql(
        &ds,
        &format!("EXPLAIN ANALYZE {sql}"),
        cascaded,
        name,
    ));
    assert!(
        analyze_on.contains("rows cheap ") && analyze_on.contains(" / escalated "),
        "missing tier split columns:\n{analyze_on}"
    );
    assert!(
        analyze_on.contains("cheap + $") && analyze_on.contains(", measured $"),
        "missing measured dollar ledger:\n{analyze_on}"
    );

    // Cascades off: neither statement form may mention cascades at all, and
    // two independent runners render byte-identically (the golden gate).
    for statement in [format!("EXPLAIN {sql}"), format!("EXPLAIN ANALYZE {sql}")] {
        let off = rendering(&run_sql(&ds, &statement, OptimizerConfig::all(), name));
        assert!(
            !off.contains("cascade") && !off.contains("rows cheap"),
            "single-tier rendering gained cascade output:\n{off}"
        );
        let again = rendering(&run_sql(&ds, &statement, OptimizerConfig::all(), name));
        assert_eq!(off, again, "single-tier rendering is nondeterministic");
    }
}

/// Every `<marker>N.NNs` figure of an `EXPLAIN ANALYZE` rendering.
fn seconds_after(text: &str, marker: &str) -> Vec<f64> {
    text.split(marker)
        .skip(1)
        .map(|rest| {
            let figure = rest.split('s').next().unwrap();
            figure
                .parse()
                .unwrap_or_else(|_| panic!("{marker}{figure}"))
        })
        .collect()
}

/// Sim causality under `pipeline` + `cascade`: a stage hands a micro-batch
/// downstream only once its escalated rows are answered, i.e. at the later
/// of its two tiers' clocks. So no node is `done` after the statement's
/// makespan, the last-finishing node is `done` exactly at it, and the rows
/// are the sequential cascaded run's.
#[test]
fn pipelined_cascade_hands_off_when_the_expensive_tier_has_answered() {
    let ds = Dataset::generate_with_rows(DatasetId::Movies, 120);
    let cascade = CascadeConfig::new(CascadePlan::mini_to_sonnet(0.5, 7));
    let sequential = OptimizerConfig::cascaded(cascade);
    let mut pipelined = OptimizerConfig::pipelined(1);
    pipelined.pipeline_batch_rows = 16;
    pipelined.cascade = Some(cascade);
    for sql in &common::generic_statements(&ds)[..2] {
        let analyzed = run_sql(&ds, &format!("EXPLAIN ANALYZE {sql}"), pipelined, "t");
        let text = rendering(&analyzed);
        let escalated: u64 = analyzed
            .stages
            .iter()
            .map(|s| s.report.opt.rows_escalated)
            .sum();
        assert!(escalated > 0, "nothing escalated:\n{text}");
        let makespan = seconds_after(&text, ", makespan ")[0];
        let done = seconds_after(&text, ", done ");
        assert_eq!(done.len(), analyzed.stages.len(), "{text}");
        assert!(
            done.iter().all(|&d| d <= makespan),
            "a node is done after the makespan:\n{text}"
        );
        assert!(
            done.contains(&makespan),
            "no node is done at the makespan — labels were handed off before \
             the expensive tier produced them:\n{text}"
        );
        let rows = run_sql(&ds, sql, pipelined, "t");
        assert_same_results(&rows, &run_sql(&ds, sql, sequential, "t"), sql);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tier-posterior convergence: after enough observed batches at a fixed
    /// empirical escalation rate, the posterior mean the schedule reads sits
    /// within 5% of the rate that generated the data, regardless of the
    /// prior.
    #[test]
    fn tier_posterior_converges_to_the_empirical_rates(
        esc_pm in 0u64..=1000,
        esc_prior_pm in 0u64..=1000,
        batches in 20u64..120,
    ) {
        let total = 200u64;
        let escalated = total * esc_pm / 1000;
        let mut post = SelectivityPosterior::new(esc_prior_pm as f64 / 1000.0, 16.0);
        for _ in 0..batches {
            post.observe(escalated, total);
        }
        let emp_esc = escalated as f64 / total as f64;
        prop_assert!(
            (post.mean() - emp_esc).abs() < 0.05,
            "escalation {} vs empirical {emp_esc}", post.mean()
        );
        prop_assert_eq!(post.observations(), batches * total);
    }

    /// Seed equality is escalation-set equality: two plans escalate exactly
    /// the same rows iff they share a seed (overwhelmingly, for distinct
    /// seeds over 256 rows), and every confidence lands in [0, 1).
    #[test]
    fn confidence_stream_is_a_pure_function_of_the_seed(seed in 0u64..u64::MAX) {
        let a = CascadePlan::mini_to_sonnet(0.5, seed);
        let b = CascadePlan::mini_to_sonnet(0.5, seed);
        let mut diverged = false;
        for row in 0..256u64 {
            let c = a.confidence(row);
            prop_assert!((0.0..1.0).contains(&c), "confidence {c} out of range");
            prop_assert_eq!(c, b.confidence(row));
            prop_assert_eq!(a.escalates(row), b.escalates(row));
            diverged |= a.escalates(row) != CascadePlan::mini_to_sonnet(0.5, seed ^ 1).escalates(row);
        }
        prop_assert!(diverged, "seed {seed} and {} share an escalation set", seed ^ 1);
    }
}
