//! **Pipelined execution benchmark** (ISSUE 8): end-to-end simulated time of
//! a full-scale multi-filter SQL statement under the classic relay
//! (sequential per-operator sessions) vs pipelined, cluster-parallel
//! execution (overlapped micro-batches, 8-replica prefix-affine fan-out per
//! LLM operator), plus the wall-clock cost of driving a backpressured
//! batch-arrival cluster sweep single-stepped vs macro-stepped. Writes the
//! simulated numbers to `BENCH_pipeline.json` (at full scale only); the
//! wall-clock medians are printed, never committed.
//!
//! The binary is self-checking: it fails unless (1) the pipelined statement
//! returns byte-identical rows to the sequential one, (2) the simulated
//! end-to-end speedup is ≥ 2×, (3) the macro-stepped sweep takes at least
//! one backpressure macro-step, and (4) its report equals the
//! single-stepped oracle's.
//!
//! ```sh
//! LLMQO_SCALE=0.2 cargo run --release -p llmqo-bench --bin perf_pipeline
//! ```

use llmqo_bench::{harness, report::BenchFile};
use llmqo_cluster::{ClusterRequest, PrefixAffinity, RoundRobin};
use llmqo_datasets::{Dataset, DatasetId};
use llmqo_relational::{OptimizerConfig, SqlResult};
use std::time::Instant;

const REPLICAS: usize = 8;
const MICRO_BATCH_ROWS: usize = 96;
const SPEEDUP_FLOOR: f64 = 2.0;
/// Per-replica queue bound of the backpressure sweep.
const SWEEP_QUEUE_CAP: usize = 2;

/// The statement under test: three LLM filters over duplicate-heavy fields
/// — the shape where dedup compaction, prefix reordering, and per-operator
/// fan-out all engage at once.
const SQL: &str = "SELECT movietitle FROM movies \
                   WHERE LLM('Suitable for kids? Yes or No.', movieinfo, reviewcontent) = 'Yes' \
                   AND LLM('Fresh and from a top critic? Yes or No.', reviewtype, topcritic) = 'Yes' \
                   AND LLM('Is the review substantive? Yes or No.', reviewcontent) <> 'No'";

fn run_statement(ds: &Dataset, opt: OptimizerConfig) -> SqlResult {
    let [result] = harness::run_sql(ds, "movies", [SQL], opt, &harness::mostly_yes);
    result
}

/// Grouped shared-prefix requests arriving in bursts that exceed the
/// cluster's total queue capacity — the batch-arrival shape whose
/// backpressured phases used to single-step.
fn bursty_workload(groups: usize, per_group: usize) -> Vec<ClusterRequest> {
    let burst = REPLICAS * 8;
    let mut requests = harness::grouped_requests(groups, per_group, 160);
    for (i, req) in requests.iter_mut().enumerate() {
        req.arrival_s = (i / burst) as f64 * 0.5;
    }
    requests
}

fn median_wall_ms(mut runs: Vec<f64>) -> f64 {
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

fn main() {
    let scale = harness::scale();
    let nrows = ((1200.0 * scale).round() as usize).max(120);
    let ds = Dataset::generate_with_rows(DatasetId::Movies, nrows);
    println!("statement: {nrows} rows, 3 LLM filters, scale {scale}");

    // --- Arm 1: sequential relay (every optimization, single sessions). ---
    let sequential = run_statement(&ds, OptimizerConfig::all());
    let relay_s = harness::relay_time_s(&sequential);

    // --- Arm 2: pipelined + 8-replica fan-out. ---
    let mut piped_opt = OptimizerConfig::pipelined(REPLICAS);
    piped_opt.pipeline_batch_rows = MICRO_BATCH_ROWS;
    let piped = run_statement(&ds, piped_opt);
    let makespan_s = harness::makespan_s(&piped);

    assert_eq!(
        sequential.rows, piped.rows,
        "pipelined execution changed statement results"
    );
    assert_eq!(sequential.columns, piped.columns);
    let speedup = relay_s / makespan_s.max(f64::MIN_POSITIVE);
    println!("\n{:<28} {:>12} {:>12}", "arm", "sim time", "llm calls");
    println!(
        "{:<28} {:>11.2}s {:>12}",
        "sequential relay",
        relay_s,
        harness::llm_calls(&sequential)
    );
    println!(
        "{:<28} {:>11.2}s {:>12}",
        format!("pipelined ×{REPLICAS} replicas"),
        makespan_s,
        harness::llm_calls(&piped)
    );
    println!("end-to-end speedup: {speedup:.2}×");
    assert!(
        speedup >= SPEEDUP_FLOOR,
        "pipelined speedup {speedup:.2}× is below the {SPEEDUP_FLOOR}× acceptance floor"
    );

    // --- Arm 3: macro-stepped vs single-stepped backpressure sweep. ---
    let groups = ((40.0 * scale).round() as usize).max(10);
    let requests = bursty_workload(groups, 8);
    let sim = harness::cluster(REPLICAS, SWEEP_QUEUE_CAP);
    let mut macro_ms = Vec::new();
    let mut single_ms = Vec::new();
    let mut reports = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let coarse = sim
            .run(&mut PrefixAffinity::default(), &requests)
            .expect("macro-stepped sweep");
        macro_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t1 = Instant::now();
        let fine = sim
            .single_stepped()
            .run(&mut PrefixAffinity::default(), &requests)
            .expect("single-stepped sweep");
        single_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            coarse, fine,
            "macro-stepped sweep diverged from the single-stepped oracle"
        );
        assert!(
            coarse.backpressure_macro_steps > 0,
            "backpressured phases still single-step (counter is zero)"
        );
        reports = Some((coarse, fine));
    }
    // Round-robin exercises the same contract through a prefix-blind policy.
    let rr_coarse = sim.run(&mut RoundRobin, &requests).expect("rr sweep");
    let rr_fine = sim
        .single_stepped()
        .run(&mut RoundRobin, &requests)
        .expect("rr oracle");
    assert_eq!(rr_coarse, rr_fine, "round-robin macro-stepping diverged");
    assert!(rr_coarse.backpressure_macro_steps > 0);

    let (coarse, fine) = reports.expect("three sweep iterations ran");
    let macro_wall = median_wall_ms(macro_ms);
    let single_wall = median_wall_ms(single_ms);
    println!(
        "\nbackpressure sweep ({} requests, {REPLICAS} replicas, queue cap {SWEEP_QUEUE_CAP}):",
        requests.len()
    );
    println!(
        "  macro-stepped  {macro_wall:>8.1} ms wall   ({} backpressure macro-steps)",
        coarse.backpressure_macro_steps
    );
    println!("  single-stepped {single_wall:>8.1} ms wall   (oracle)");
    println!(
        "  driver speedup {:.2}× wall-clock, reports identical",
        single_wall / macro_wall.max(f64::MIN_POSITIVE)
    );

    let mut file = BenchFile::new(
        "pipeline",
        "simulated end-to-end statement time, relay vs pipelined fan-out; backpressure \
         macro-steps of a bursty cluster sweep whose report equals the single-stepped one",
        scale,
        None,
    );
    file.params([
        ("replicas", REPLICAS.into()),
        ("micro_batch_rows", MICRO_BATCH_ROWS.into()),
    ]);
    file.cell([
        ("arm", "statement".into()),
        ("rows", nrows.into()),
        ("sequential_relay_s", relay_s.into()),
        ("pipelined_makespan_s", makespan_s.into()),
        ("speedup", speedup.into()),
        (
            "sequential_llm_calls",
            harness::llm_calls(&sequential).into(),
        ),
        ("pipelined_llm_calls", harness::llm_calls(&piped).into()),
        ("rows_identical", (sequential.rows == piped.rows).into()),
    ]);
    file.cell([
        ("arm", "backpressure_sweep".into()),
        ("requests", requests.len().into()),
        ("queue_cap", SWEEP_QUEUE_CAP.into()),
        ("macro_steps", coarse.backpressure_macro_steps.into()),
        ("reports_identical", (coarse == fine).into()),
    ]);
    file.write();
}
