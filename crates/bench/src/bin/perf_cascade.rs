//! **Model-tier cascade benchmark** (ISSUE 10): dollar cost vs answer drift
//! of routing every row through a cheap model tier first and escalating only
//! low-confidence rows to the expensive tier, swept over the escalation
//! threshold on two full-scale workloads (Movies multi-filter, BIRD
//! filter+dedup). Writes `BENCH_cascade.json` (at full scale only).
//!
//! The binary is self-checking: it fails unless (1) the escalate-all
//! endpoint (`threshold = 1.0`) returns byte-identical rows to the
//! single-tier oracle, (2) at least one swept threshold on at least one
//! workload cuts the dollar cost by ≥ 30% versus serving every row on the
//! expensive tier while keeping measured result drift ≤ 5% of table rows,
//! and (3) the tier accounting reconciles (`rows in = cheap + escalated +
//! failed` on every LLM operator).
//!
//! ```sh
//! LLMQO_SCALE=0.2 cargo run --release -p llmqo-bench --bin perf_cascade
//! ```

use llmqo_bench::{harness, report::BenchFile};
use llmqo_costmodel::CascadePlan;
use llmqo_datasets::{Dataset, DatasetId};
use llmqo_relational::{CascadeConfig, OptimizerConfig, SqlResult};
use std::collections::HashMap;

/// Confidence-stream seed: any value works, equal seeds reproduce runs.
const SEED: u64 = 0xCA5C;
/// Acceptance floor on dollar savings at the winning threshold.
const SAVINGS_FLOOR_PCT: f64 = 30.0;
/// Acceptance ceiling on result drift (symmetric-difference rows over table
/// rows) at the winning threshold.
const DRIFT_BOUND: f64 = 0.05;
/// Escalation thresholds swept, cheapest-first. 0.0 = never escalate,
/// 1.0 = escalate every row (the oracle endpoint).
const THRESHOLDS: [f64; 6] = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0];

struct Workload {
    id: DatasetId,
    table: &'static str,
    sql: &'static str,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        id: DatasetId::Movies,
        table: "movies",
        sql: "SELECT movietitle FROM movies \
              WHERE LLM('Suitable for kids? Yes or No.', movieinfo, reviewcontent) = 'Yes' \
              AND LLM('Fresh and from a top critic? Yes or No.', reviewtype, topcritic) = 'Yes'",
    },
    Workload {
        id: DatasetId::Bird,
        table: "bird",
        sql: "SELECT PostId FROM bird \
              WHERE LLM('Is the post statistics-related? Yes or No.', Body, Text) = 'Yes'",
    },
];

fn run_statement(ds: &Dataset, w: &Workload, opt: OptimizerConfig) -> SqlResult {
    let [result] = harness::run_sql(ds, w.table, [w.sql], opt, &harness::mostly_yes);
    result
}

/// Multiset symmetric difference between two row sets, in rows.
fn row_drift(a: &[Vec<String>], b: &[Vec<String>]) -> usize {
    let mut counts: HashMap<&[String], i64> = HashMap::new();
    for row in a {
        *counts.entry(row.as_slice()).or_default() += 1;
    }
    for row in b {
        *counts.entry(row.as_slice()).or_default() -= 1;
    }
    counts.values().map(|c| c.unsigned_abs() as usize).sum()
}

struct SweepPoint {
    threshold: f64,
    escalation_rate: f64,
    cascade_cost: f64,
    single_cost: f64,
    savings_pct: f64,
    drift: f64,
}

fn point(
    ds: &Dataset,
    res: &SqlResult,
    plan: CascadePlan,
    t: f64,
    oracle: &SqlResult,
) -> SweepPoint {
    let mut cheap_p = 0u64;
    let mut cheap_o = 0u64;
    let mut esc_p = 0u64;
    let mut esc_o = 0u64;
    let mut rows_cheap = 0u64;
    let mut rows_esc = 0u64;
    for s in &res.stages {
        let o = &s.report.opt;
        assert_eq!(
            o.rows_in,
            o.rows_cheap + o.rows_escalated + o.rows_failed,
            "tier accounting must reconcile per operator"
        );
        cheap_p += o.cheap_prompt_tokens;
        cheap_o += o.cheap_output_tokens;
        esc_p += o.esc_prompt_tokens;
        esc_o += o.esc_output_tokens;
        rows_cheap += o.rows_cheap;
        rows_esc += o.rows_escalated;
    }
    // The cheap tier serves the full deduplicated batch, so its token
    // volume is exactly what a single expensive tier would have served.
    let cascade_cost = plan.cheap.cost(cheap_p as f64, cheap_o as f64)
        + plan.expensive.cost(esc_p as f64, esc_o as f64);
    let single_cost = plan.expensive.cost(cheap_p as f64, cheap_o as f64);
    let drift = row_drift(&res.rows, &oracle.rows) as f64 / ds.table.nrows().max(1) as f64;
    SweepPoint {
        threshold: t,
        escalation_rate: rows_esc as f64 / (rows_cheap + rows_esc).max(1) as f64,
        cascade_cost,
        single_cost,
        savings_pct: 100.0 * (1.0 - cascade_cost / single_cost.max(f64::MIN_POSITIVE)),
        drift,
    }
}

fn main() {
    let scale = harness::scale();
    let mut file = BenchFile::new(
        "cascade",
        "dollar cost and result drift of a mini-to-sonnet model cascade vs serving every row \
         on the expensive tier, swept over the escalation threshold",
        scale,
        Some(SEED),
    );
    file.params([
        ("savings_floor_pct", SAVINGS_FLOOR_PCT.into()),
        ("drift_bound", DRIFT_BOUND.into()),
    ]);
    let mut any_winner = false;

    for w in &WORKLOADS {
        let ds = harness::load(w.id);
        let oracle = run_statement(&ds, w, OptimizerConfig::all());
        println!(
            "\n{} ({} rows, scale {scale}): single expensive tier vs mini→sonnet cascade",
            w.id.name(),
            ds.table.nrows()
        );
        println!(
            "{:>9} {:>10} {:>12} {:>12} {:>9} {:>8}",
            "threshold", "esc rate", "cascade $", "single $", "savings", "drift"
        );

        let points: Vec<SweepPoint> = THRESHOLDS
            .iter()
            .map(|&t| {
                let plan = CascadePlan::mini_to_sonnet(t, SEED);
                let res =
                    run_statement(&ds, w, OptimizerConfig::cascaded(CascadeConfig::new(plan)));
                if t >= 1.0 {
                    assert_eq!(
                        res.rows, oracle.rows,
                        "escalate-all must be byte-identical to the single-tier oracle"
                    );
                    assert_eq!(res.columns, oracle.columns);
                }
                point(&ds, &res, plan, t, &oracle)
            })
            .collect();

        for p in &points {
            println!(
                "{:>9.2} {:>9.1}% {:>11.4} {:>11.4} {:>8.1}% {:>7.2}%",
                p.threshold,
                100.0 * p.escalation_rate,
                p.cascade_cost,
                p.single_cost,
                p.savings_pct,
                100.0 * p.drift
            );
            file.cell([
                ("workload", w.id.name().into()),
                ("rows", ds.table.nrows().into()),
                ("threshold", p.threshold.into()),
                ("escalation_rate", p.escalation_rate.into()),
                ("cascade_cost_usd", p.cascade_cost.into()),
                ("single_tier_cost_usd", p.single_cost.into()),
                ("savings_pct", p.savings_pct.into()),
                ("drift", p.drift.into()),
            ]);
        }
        let winner = points
            .iter()
            .filter(|p| p.drift <= DRIFT_BOUND)
            .max_by(|a, b| a.savings_pct.total_cmp(&b.savings_pct));
        if let Some(win) = winner {
            println!(
                "best within drift bound: threshold {:.2} → {:.1}% cheaper at {:.2}% drift",
                win.threshold,
                win.savings_pct,
                100.0 * win.drift
            );
            if win.savings_pct >= SAVINGS_FLOOR_PCT {
                any_winner = true;
            }
        }
    }

    assert!(
        any_winner,
        "no swept threshold reached {SAVINGS_FLOOR_PCT}% dollar savings within the \
         {DRIFT_BOUND} drift bound on any workload"
    );

    file.write();
}
