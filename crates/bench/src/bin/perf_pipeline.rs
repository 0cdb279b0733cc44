//! **Pipelined execution benchmark** (ISSUE 8): end-to-end simulated time of
//! a full-scale multi-filter SQL statement under the classic relay
//! (sequential per-operator sessions) vs pipelined, cluster-parallel
//! execution (overlapped micro-batches, 8-replica prefix-affine fan-out per
//! LLM operator), plus the wall-clock cost of driving a backpressured
//! batch-arrival cluster sweep single-stepped vs macro-stepped. Writes
//! `BENCH_pipeline.json`.
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

use llmqo_bench::harness;
use llmqo_cluster::{ClusterConfig, ClusterRequest, ClusterSim, PrefixAffinity, RoundRobin};
use llmqo_datasets::{Dataset, DatasetId};
use llmqo_relational::{OptimizerConfig, QueryExecutor, SqlResult, SqlRunner};
use llmqo_serve::{EngineConfig, OracleLlm, SimEngine, SimRequest};
use llmqo_tokenizer::Tokenizer;
use std::time::Instant;

const REPLICAS: usize = 8;
const MICRO_BATCH_ROWS: usize = 96;
const SPEEDUP_FLOOR: f64 = 2.0;

/// The statement under test: three LLM filters over duplicate-heavy fields
/// — the shape where dedup compaction, prefix reordering, and per-operator
/// fan-out all engage at once.
const SQL: &str = "SELECT movietitle FROM movies \
                   WHERE LLM('Suitable for kids? Yes or No.', movieinfo, reviewcontent) = 'Yes' \
                   AND LLM('Fresh and from a top critic? Yes or No.', reviewtype, topcritic) = 'Yes' \
                   AND LLM('Is the review substantive? Yes or No.', reviewcontent) <> 'No'";

fn run_statement(ds: &Dataset, opt: OptimizerConfig) -> SqlResult {
    let engine = SimEngine::new(harness::deployment_8b(), EngineConfig::default());
    let executor = QueryExecutor::new(&engine, &OracleLlm, Tokenizer::new());
    let solver = llmqo_core::Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(opt);
    runner.register("movies", &ds.table, &ds.fds);
    let truth = |row: usize| {
        if row % 3 != 2 {
            "Yes".to_string()
        } else {
            "No".to_string()
        }
    };
    runner.run(SQL, &truth).expect("statement runs")
}

/// Relay end-to-end time: each stage runs on its own zero-based session, so
/// the statement takes the *sum* of stage completion times.
fn relay_time_s(r: &SqlResult) -> f64 {
    r.stages
        .iter()
        .map(|s| s.report.engine.job_completion_time_s)
        .sum()
}

/// Pipelined end-to-end time: all stages share one timeline, so the
/// statement is done at the *max* stage clock (the makespan).
fn pipeline_makespan_s(r: &SqlResult) -> f64 {
    r.stages
        .iter()
        .map(|s| s.report.engine.job_completion_time_s)
        .fold(0.0, f64::max)
}

/// Grouped shared-prefix requests arriving in bursts that exceed the
/// cluster's total queue capacity — the batch-arrival shape whose
/// backpressured phases used to single-step.
fn bursty_workload(groups: usize, per_group: usize) -> Vec<ClusterRequest> {
    let burst = REPLICAS * 8;
    (0..groups * per_group)
        .map(|i| {
            let g = (i / per_group) as u32;
            let mut toks: Vec<u32> = (0..64).map(|j| g * 1000 + j).collect();
            toks.extend((0..16).map(|j| 500_000 + i as u32 * 64 + j));
            let mut req = ClusterRequest::new(SimRequest::from_tokens(i, toks, 160), u64::from(g));
            req.arrival_s = (i / burst) as f64 * 0.5;
            req
        })
        .collect()
}

fn median_wall_ms(mut runs: Vec<f64>) -> f64 {
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let scale = harness::scale();
    let nrows = ((1200.0 * scale).round() as usize).max(120);
    let ds = Dataset::generate_with_rows(DatasetId::Movies, nrows);
    println!("statement: {nrows} rows, 3 LLM filters, scale {scale}");

    // --- Arm 1: sequential relay (every optimization, single sessions). ---
    let sequential = run_statement(&ds, OptimizerConfig::all());
    let relay_s = relay_time_s(&sequential);

    // --- Arm 2: pipelined + 8-replica fan-out. ---
    let mut piped_opt = OptimizerConfig::pipelined(REPLICAS);
    piped_opt.pipeline_batch_rows = MICRO_BATCH_ROWS;
    let piped = run_statement(&ds, piped_opt);
    let makespan_s = pipeline_makespan_s(&piped);

    assert_eq!(
        sequential.rows, piped.rows,
        "pipelined execution changed statement results"
    );
    assert_eq!(sequential.columns, piped.columns);
    let speedup = relay_s / makespan_s.max(f64::MIN_POSITIVE);
    println!("\n{:<28} {:>12} {:>12}", "arm", "sim time", "llm calls");
    let calls = |r: &SqlResult| -> u64 { r.stages.iter().map(|s| s.report.opt.llm_calls).sum() };
    println!(
        "{:<28} {:>11.2}s {:>12}",
        "sequential relay",
        relay_s,
        calls(&sequential)
    );
    println!(
        "{:<28} {:>11.2}s {:>12}",
        format!("pipelined ×{REPLICAS} replicas"),
        makespan_s,
        calls(&piped)
    );
    println!("end-to-end speedup: {speedup:.2}×");
    assert!(
        speedup >= SPEEDUP_FLOOR,
        "pipelined speedup {speedup:.2}× is below the {SPEEDUP_FLOOR}× acceptance floor"
    );

    // --- Arm 3: macro-stepped vs single-stepped backpressure sweep. ---
    let groups = ((40.0 * scale).round() as usize).max(10);
    let requests = bursty_workload(groups, 8);
    let sim = ClusterSim::new(
        SimEngine::new(harness::deployment_8b(), EngineConfig::default()),
        ClusterConfig {
            replicas: REPLICAS,
            queue_cap: 2,
        },
    );
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

    let (coarse, _) = reports.expect("three sweep iterations ran");
    let macro_wall = median_wall_ms(macro_ms);
    let single_wall = median_wall_ms(single_ms);
    println!(
        "\nbackpressure sweep ({} requests, {REPLICAS} replicas, queue cap 2):",
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

    // BENCH_pipeline.json: hand-rolled (the vendored serde has no JSON
    // serializer).
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"pipeline\",\n");
    json.push_str(
        "  \"metric\": \"simulated end-to-end statement time, relay vs pipelined fan-out; \
         wall ms of macro- vs single-stepped backpressure sweeps (medians of 3)\",\n",
    );
    json.push_str(&format!("  \"rows\": {nrows},\n"));
    json.push_str(&format!("  \"replicas\": {REPLICAS},\n"));
    json.push_str(&format!("  \"micro_batch_rows\": {MICRO_BATCH_ROWS},\n"));
    json.push_str(&format!(
        "  \"sequential_relay_s\": {},\n",
        json_num(relay_s)
    ));
    json.push_str(&format!(
        "  \"pipelined_makespan_s\": {},\n",
        json_num(makespan_s)
    ));
    json.push_str(&format!("  \"speedup\": {},\n", json_num(speedup)));
    json.push_str(&format!(
        "  \"sequential_llm_calls\": {},\n",
        calls(&sequential)
    ));
    json.push_str(&format!("  \"pipelined_llm_calls\": {},\n", calls(&piped)));
    json.push_str(&format!(
        "  \"rows_identical\": {},\n",
        sequential.rows == piped.rows
    ));
    json.push_str("  \"backpressure_sweep\": {\n");
    json.push_str(&format!("    \"requests\": {},\n", requests.len()));
    json.push_str("    \"queue_cap\": 2,\n");
    json.push_str(&format!(
        "    \"macro_steps\": {},\n",
        coarse.backpressure_macro_steps
    ));
    json.push_str(&format!(
        "    \"macro_stepped_wall_ms\": {},\n",
        json_num(macro_wall)
    ));
    json.push_str(&format!(
        "    \"single_stepped_wall_ms\": {},\n",
        json_num(single_wall)
    ));
    json.push_str("    \"reports_identical\": true\n");
    json.push_str("  }\n}\n");
    llmqo_obs::validate_json(&json).expect("BENCH_pipeline.json is well-formed");
    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    println!("\nwrote BENCH_pipeline.json");
}
