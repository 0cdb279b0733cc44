//! Differential contract of the overload-survival layer: inert
//! [`AdmissionPolicy`]/[`ScalePolicy`] configurations are **byte-identical**
//! to the ungated dispatchers ([`ClusterSim::run`] /
//! [`ClusterSim::run_with_faults`]); under genuine overload the shed ledger
//! reconciles exactly (`completed + shed == offered` fault-free,
//! `succeeded + failed + shed == offered` under chaos), high-priority
//! tenants lose zero requests while best-effort work is shed
//! deterministically, the elastic autoscaler warms and drains replicas as a
//! seeded closed loop, and every mode agrees byte for byte with its
//! single-stepped oracle. One layer up, a statement that dies mid-flight
//! resumes from a [`StatementCheckpoint`] with byte-identical final rows
//! and strictly fewer re-issued LLM calls.

mod common;

use common::{cluster_sim as sim, engine, prioritized_workload as workload, routers, skewed_truth};
use llmqo::cluster::{
    AdmissionPolicy, ArrivalProcess, FaultPlan, LeastLoaded, OverloadPolicy, PrefixAffinity,
    RetryPolicy, RoundRobin, ScalePolicy,
};
use llmqo::core::Ggr;
use llmqo::datasets::{Dataset, DatasetId};
use llmqo::relational::{OptimizerConfig, QueryExecutor, SqlResult, SqlRunner, StatementFaults};
use llmqo::serve::OracleLlm;
use llmqo::tokenizer::Tokenizer;

// ---------------------------------------------------------------------------
// Inert identity
// ---------------------------------------------------------------------------

/// The differential spine: a default (inert) `AdmissionPolicy` through
/// `run_admitted` must take the exact ungated code path, and a default
/// `OverloadPolicy` through `run_overloaded` must reproduce
/// `run_with_faults` byte for byte — for every router, with and without
/// chaos underneath.
#[test]
fn inert_overload_policies_are_byte_identical_to_ungated_runs() {
    let mut requests = workload(12, 6, 4);
    ArrivalProcess::Poisson {
        rate_rps: 50.0,
        seed: 3,
    }
    .assign(&mut requests);
    for (replicas, queue_cap) in [(3usize, 16usize), (3, 1)] {
        let sim = sim(replicas, queue_cap);
        for mut router in routers() {
            let seed_run = sim.run(router.as_mut(), &requests).expect("seed");
            let admitted = sim
                .run_admitted(router.as_mut(), &requests, &AdmissionPolicy::default())
                .expect("inert admitted");
            assert_eq!(seed_run, admitted, "inert AdmissionPolicy diverged");
            assert!(!admitted.shed.engaged() && !admitted.scaling.engaged());

            let plan = FaultPlan::seeded(42)
                .crash_restart(0, 0.08, 0.3)
                .slowdown(1, 0.05, 0.4, 3.0)
                .transient_errors_ppm(60_000);
            let retry = RetryPolicy::retries(4).with_hedging(0.5);
            let chaos = sim
                .run_with_faults(router.as_mut(), &requests, &plan, &retry)
                .expect("chaos");
            let overloaded = sim
                .run_overloaded(
                    router.as_mut(),
                    &requests,
                    &plan,
                    &retry,
                    &OverloadPolicy::default(),
                )
                .expect("inert overloaded");
            assert_eq!(chaos, overloaded, "inert OverloadPolicy diverged");
            assert!(!overloaded.shed.engaged() && !overloaded.scaling.engaged());
        }
    }
}

// ---------------------------------------------------------------------------
// Shedding under 2× overload
// ---------------------------------------------------------------------------

/// A 2× overload against a bounded admission queue: the ledger reconciles
/// exactly (`completed + shed == offered`), only best-effort work is shed
/// (zero high-priority loss), the shed p99 queue wait stays far below the
/// unprotected collapse, and macro-stepped ≡ single-stepped byte for byte.
#[test]
fn bounded_admission_sheds_only_best_effort_and_reconciles() {
    // Calibrate "2×": measure the batch service rate, then arrive at twice
    // it. The measurement run is itself deterministic.
    let sim = sim(2, 4);
    let probe = sim
        .run(&mut LeastLoaded, &workload(12, 6, 0))
        .expect("probe");
    let rate = 2.0 * probe.throughput_rps();
    let mut requests = workload(20, 6, 4);
    ArrivalProcess::Poisson {
        rate_rps: rate,
        seed: 17,
    }
    .assign(&mut requests);

    let unprotected = sim.run(&mut LeastLoaded, &requests).expect("unprotected");
    assert_eq!(unprotected.completed, requests.len());

    let policy = AdmissionPolicy::bounded(6);
    let shed_run = sim
        .run_admitted(&mut LeastLoaded, &requests, &policy)
        .expect("admitted");
    let single = sim
        .single_stepped()
        .run_admitted(&mut LeastLoaded, &requests, &policy)
        .expect("single-stepped");
    assert_eq!(shed_run, single, "admission stepping modes diverged");

    let shed = &shed_run.shed;
    assert!(shed.engaged());
    assert_eq!(shed.offered, requests.len());
    assert_eq!(
        shed_run.completed + shed.shed,
        shed.offered,
        "shed ledger must reconcile exactly"
    );
    assert!(shed.shed > 0, "2x overload against depth 6 must shed");
    assert_eq!(
        shed.shed_queue_full + shed.shed_kv_pressure + shed.shed_tenant_quota,
        shed.shed,
        "per-reason counters must partition the shed total"
    );
    assert_eq!(
        shed.max_shed_priority, 0,
        "a priority-1 request was shed — priority shedding is broken"
    );
    // Every priority-1 request was admitted and (fault-free) completed.
    let premium = requests.iter().filter(|r| r.priority == 1).count();
    assert!(premium > 0);
    assert!(shed_run.completed >= premium);
    // Bounded pending depth ⇒ bounded queue wait; the unprotected run, fed
    // at 2× service rate, collapses into queue waits that grow with the
    // backlog.
    assert!(
        shed_run.queue_wait_p99_s < unprotected.queue_wait_p99_s / 2.0,
        "shedding must bound queue wait (shed p99 {} vs unprotected p99 {})",
        shed_run.queue_wait_p99_s,
        unprotected.queue_wait_p99_s
    );

    // Determinism: byte-identical on re-run.
    let again = sim
        .run_admitted(&mut LeastLoaded, &requests, &policy)
        .expect("rerun");
    assert_eq!(shed_run, again);
}

/// The KV-occupancy gate: with the watermark set below the workload's
/// observed peak occupancy the gate engages (every shed is attributed to
/// it) and the ledger still reconciles.
#[test]
fn kv_gate_sheds_on_occupancy() {
    let sim = sim(2, 16);
    let mut requests = workload(16, 6, 0);
    ArrivalProcess::Poisson {
        rate_rps: 300.0,
        seed: 5,
    }
    .assign(&mut requests);
    // Calibrate the gate off the unprotected run's occupancy gauges: half
    // the fleet-mean KV utilization observed at placement instants is
    // comfortably inside the occupancy range the loaded fleet sweeps
    // through, so arrivals land above it.
    let probe = sim.run(&mut LeastLoaded, &requests).expect("probe");
    let mean = probe
        .replicas
        .iter()
        .map(|r| r.occupancy.mean_utilization())
        .sum::<f64>()
        / probe.replicas.len() as f64;
    assert!(mean > 0.0, "workload never occupied a KV block");
    // Queue depth effectively unbounded: only the KV gate can shed.
    let policy = AdmissionPolicy::default().with_kv_gate((mean / 2.0).min(1.0));
    let report = sim
        .run_admitted(&mut LeastLoaded, &requests, &policy)
        .expect("kv-gated run");
    assert_eq!(report.completed + report.shed.shed, requests.len());
    assert!(
        report.shed.shed > 0,
        "a KV gate at half the mean occupancy ({mean:.4}) must engage under load"
    );
    assert_eq!(report.shed.shed_kv_pressure, report.shed.shed);
    let single = sim
        .single_stepped()
        .run_admitted(&mut LeastLoaded, &requests, &policy)
        .expect("single");
    assert_eq!(report, single);
}

/// Per-tenant quotas: a flooding tenant is capped at its quota of pending
/// admissions while the quiet tenant sails through untouched.
#[test]
fn tenant_quota_caps_the_flooding_tenant() {
    let sim = sim(2, 4);
    // Tenant 0 floods (priority 0); every 6th request is the quiet premium
    // tenant 1 (priority 1) — 18 premium requests in total, under the
    // quota, while the ~90-request flood is far over it.
    let mut requests = workload(18, 6, 6);
    ArrivalProcess::Poisson {
        rate_rps: 250.0,
        seed: 23,
    }
    .assign(&mut requests);
    let policy = AdmissionPolicy::default().with_tenant_quota(20);
    let report = sim
        .run_admitted(&mut LeastLoaded, &requests, &policy)
        .expect("quota run");
    assert_eq!(report.completed + report.shed.shed, requests.len());
    assert!(
        report.shed.shed_tenant_quota > 0,
        "the flood must hit quota"
    );
    assert_eq!(
        report.shed.max_shed_priority, 0,
        "only the flooding tenant's best-effort work may be shed"
    );
    let premium = requests.iter().filter(|r| r.tenant == 1).count();
    assert!(report.completed >= premium);
}

// ---------------------------------------------------------------------------
// Elastic autoscaling
// ---------------------------------------------------------------------------

/// Sustained queue pressure scales the fleet up: cold replicas are warmed
/// and joined mid-job, every request completes (no shedding configured),
/// the whole control loop is deterministic, and macro ≡ single-stepped.
#[test]
fn autoscaler_warms_replicas_under_queue_pressure() {
    let sim = sim(1, 4);
    let probe = sim
        .run(&mut LeastLoaded, &workload(8, 6, 0))
        .expect("probe");
    let mut requests = workload(16, 6, 0);
    ArrivalProcess::Poisson {
        rate_rps: 2.0 * probe.throughput_rps(),
        seed: 31,
    }
    .assign(&mut requests);
    let scale = ScalePolicy::elastic(1, 4)
        .reacting(0.3, 0.02)
        .with_cadence(0.1, 0.5)
        .with_warmup(0.25)
        .with_warmup_jitter(0.2, 7);
    let overload = OverloadPolicy::default().with_scale(scale);
    let plan = FaultPlan::default();
    let retry = RetryPolicy::disabled();
    let scaled = sim
        .run_overloaded(&mut LeastLoaded, &requests, &plan, &retry, &overload)
        .expect("scaled run");
    assert_eq!(
        scaled.completed,
        requests.len(),
        "scaling must lose nothing"
    );
    assert!(scaled.scaling.engaged());
    assert!(
        scaled.scaling.scale_ups >= 1,
        "2x overload on one replica must scale up: {:?}",
        scaled.scaling
    );
    assert!(scaled.scaling.peak_replicas > 1);
    assert!(scaled.scaling.checks > 0);

    let single = sim
        .single_stepped()
        .run_overloaded(&mut LeastLoaded, &requests, &plan, &retry, &overload)
        .expect("single-stepped");
    assert_eq!(scaled, single, "scaling stepping modes diverged");
    let again = sim
        .run_overloaded(&mut LeastLoaded, &requests, &plan, &retry, &overload)
        .expect("rerun");
    assert_eq!(scaled, again, "autoscaler is nondeterministic");

    // The warmed fleet beats the frozen single replica on makespan.
    let frozen = sim.run(&mut LeastLoaded, &requests).expect("frozen");
    assert!(
        scaled.makespan_s < frozen.makespan_s,
        "scaling up must shorten the job ({} vs {})",
        scaled.makespan_s,
        frozen.makespan_s
    );
}

/// Low KV occupancy drains replicas: a sparse trickle over a large fleet
/// scales down towards `min_replicas` without losing a single request, and
/// departed replicas are not accounted as unavailability.
#[test]
fn autoscaler_drains_idle_replicas_at_low_occupancy() {
    let sim = sim(4, 16);
    let mut requests = workload(10, 4, 0);
    ArrivalProcess::Poisson {
        rate_rps: 4.0,
        seed: 13,
    }
    .assign(&mut requests);
    let scale = ScalePolicy::elastic(1, 4)
        .reacting(5.0, 0.9)
        .with_cadence(0.25, 0.5);
    let overload = OverloadPolicy::default().with_scale(scale);
    let report = sim
        .run_overloaded(
            &mut LeastLoaded,
            &requests,
            &FaultPlan::default(),
            &RetryPolicy::disabled(),
            &overload,
        )
        .expect("drain run");
    assert_eq!(report.completed, requests.len(), "drain must lose nothing");
    assert!(
        report.scaling.scale_downs >= 1,
        "a trickle over 4 replicas must drain some: {:?}",
        report.scaling
    );
    assert!(report.scaling.low_replicas < 4);
    assert!(
        !report.faults.engaged() && report.faults.unavailability_windows == 0,
        "scale-down departures must not pollute the fault ledger"
    );
    let single = sim
        .single_stepped()
        .run_overloaded(
            &mut LeastLoaded,
            &requests,
            &FaultPlan::default(),
            &RetryPolicy::disabled(),
            &overload,
        )
        .expect("single");
    assert_eq!(report, single);
}

/// The full composition: chaos (crash + slowdown + retries) under a gating
/// admission policy and an elastic autoscaler. The three-way ledger
/// reconciles and both stepping modes agree byte for byte.
#[test]
fn chaos_shedding_and_scaling_compose_and_reconcile() {
    let sim = sim(2, 4);
    let mut requests = workload(16, 6, 4);
    ArrivalProcess::Poisson {
        rate_rps: 120.0,
        seed: 29,
    }
    .assign(&mut requests);
    let plan = FaultPlan::seeded(11)
        .crash_restart(0, 0.1, 0.4)
        .slowdown(1, 0.05, 0.5, 2.0);
    let retry = RetryPolicy::retries(3).with_hedging(0.6);
    let overload = OverloadPolicy::admission(AdmissionPolicy::bounded(8)).with_scale(
        ScalePolicy::elastic(1, 4)
            .reacting(0.25, 0.05)
            .with_cadence(0.1, 0.4)
            .with_warmup(0.3),
    );
    let report = sim
        .run_overloaded(
            &mut PrefixAffinity::default(),
            &requests,
            &plan,
            &retry,
            &overload,
        )
        .expect("composed run");
    let fs = &report.faults;
    assert!(fs.engaged());
    assert_eq!(
        fs.succeeded + fs.failed + report.shed.shed,
        fs.offered,
        "three-way ledger must reconcile: {fs:?} + shed {}",
        report.shed.shed
    );
    assert_eq!(report.shed.offered, requests.len());
    assert_eq!(
        report.shed.max_shed_priority, 0,
        "premium traffic must survive chaos + overload"
    );
    let single = sim
        .single_stepped()
        .run_overloaded(
            &mut PrefixAffinity::default(),
            &requests,
            &plan,
            &retry,
            &overload,
        )
        .expect("single");
    assert_eq!(report, single, "composed stepping modes diverged");
}

/// Invalid policies are rejected up front with a typed error.
#[test]
fn invalid_overload_policies_are_rejected() {
    let requests = workload(2, 2, 0);
    let zero_depth = AdmissionPolicy {
        max_pending: Some(0),
        ..AdmissionPolicy::default()
    };
    let err = sim(2, 4)
        .run_admitted(&mut RoundRobin, &requests, &zero_depth)
        .expect_err("zero queue depth must be rejected");
    assert!(err
        .to_string()
        .contains("invalid admission or scale policy"));

    // max_replicas below the initial fleet contradicts the starting state.
    let shrunk = OverloadPolicy::default().with_scale(ScalePolicy::elastic(1, 1));
    let err = sim(2, 4)
        .run_overloaded(
            &mut RoundRobin,
            &requests,
            &FaultPlan::default(),
            &RetryPolicy::disabled(),
            &shrunk,
        )
        .expect_err("max below initial fleet must be rejected");
    assert!(err
        .to_string()
        .contains("invalid admission or scale policy"));
}

// ---------------------------------------------------------------------------
// Statement checkpoint/resume
// ---------------------------------------------------------------------------

/// Result equality on every sim-deterministic field *except* engine/opt
/// reports (a resumed run deliberately does less engine work).
fn assert_rows_identical(a: &SqlResult, b: &SqlResult, context: &str) {
    assert_eq!(a.columns, b.columns, "{context}: columns");
    assert_eq!(a.rows, b.rows, "{context}: rows");
    assert_eq!(a.aggregate, b.aggregate, "{context}: aggregate");
}

fn llm_calls(r: &SqlResult) -> u64 {
    r.stages.iter().map(|s| s.report.opt.llm_calls).sum()
}

/// Restoring an **empty** checkpoint is inert: the run is byte-identical to
/// a clean baseline (engine reports included) on all seven tier-1 datasets.
#[test]
fn empty_checkpoint_restore_is_byte_identical_on_all_seven_datasets() {
    let solver = Ggr::default();
    for (id, name, sql) in common::seven_dataset_cases() {
        let ds = Dataset::generate_with_rows(id, 120);

        let eng_a = engine();
        let exec_a = QueryExecutor::new(&eng_a, &OracleLlm, Tokenizer::new());
        let mut runner_a = SqlRunner::new(&exec_a, &solver).with_optimizer(OptimizerConfig::all());
        runner_a.register(name, &ds.table, &ds.fds);
        let baseline = runner_a.run(sql, &skewed_truth).expect("baseline");

        let eng_b = engine();
        let exec_b = QueryExecutor::new(&eng_b, &OracleLlm, Tokenizer::new());
        let empty = exec_b.checkpoint();
        assert!(empty.is_empty());
        let mut runner_b = SqlRunner::new(&exec_b, &solver).with_optimizer(OptimizerConfig::all());
        runner_b.register(name, &ds.table, &ds.fds);
        runner_b.restore(&empty);
        let restored = runner_b.run(sql, &skewed_truth).expect("restored");

        assert_rows_identical(&baseline, &restored, id.name());
        assert_eq!(llm_calls(&baseline), llm_calls(&restored), "{}", id.name());
        for (x, y) in baseline.stages.iter().zip(&restored.stages) {
            assert_eq!(x.report.engine, y.report.engine, "{}: engine", id.name());
            assert_eq!(x.report.opt, y.report.opt, "{}: opt", id.name());
        }
    }
}

/// The resume contract: a statement killed mid-flight (strict fault mode)
/// leaves its completed batches in the answer cache; a checkpoint of that
/// cache restored into a fresh runner re-runs the statement to
/// **byte-identical rows** while re-issuing **strictly fewer** LLM calls
/// than a cold run. Checkpoints round-trip deterministically.
#[test]
fn mid_statement_crash_resumes_from_checkpoint_with_fewer_llm_calls() {
    // The Bird case runs lazily under its LIMIT: several batches per
    // filter, with cache inserts landing after each completed batch — the
    // shape that makes a mid-statement death checkpointable.
    let ds = Dataset::generate_with_rows(DatasetId::Bird, 120);
    let (_, name, sql) = common::seven_dataset_cases()[2];
    let solver = Ggr::default();

    // Clean baseline on a cold executor.
    let eng_a = engine();
    let exec_a = QueryExecutor::new(&eng_a, &OracleLlm, Tokenizer::new());
    let mut runner_a = SqlRunner::new(&exec_a, &solver).with_optimizer(OptimizerConfig::all());
    runner_a.register(name, &ds.table, &ds.fds);
    let baseline = runner_a.run(sql, &skewed_truth).expect("baseline");
    let cold_calls = llm_calls(&baseline);
    assert!(cold_calls > 0);

    // The doomed run: strict faults with no retry budget kill the
    // statement mid-flight. The exact death point depends on the fault
    // seed, so scan a deterministic grid for a death that lands *after*
    // the first completed batch (a death in batch one leaves nothing to
    // checkpoint, which is correct but not the scenario under test).
    let mut found = None;
    'search: for ppm in [40_000, 80_000, 150_000] {
        for seed in 0..24 {
            let eng_b = engine();
            let exec_b = QueryExecutor::new(&eng_b, &OracleLlm, Tokenizer::new());
            let doomed_opt = OptimizerConfig {
                faults: Some(StatementFaults::new(ppm, seed).with_attempts(1).strict()),
                ..OptimizerConfig::all()
            };
            let mut runner_b = SqlRunner::new(&exec_b, &solver).with_optimizer(doomed_opt);
            runner_b.register(name, &ds.table, &ds.fds);
            if runner_b.run(sql, &skewed_truth).is_err() {
                let ckpt = runner_b.checkpoint();
                if !ckpt.is_empty() {
                    // Checkpoints are deterministic: exporting twice is
                    // identical.
                    assert_eq!(ckpt, runner_b.checkpoint());
                    found = Some(ckpt);
                    break 'search;
                }
            }
        }
    }
    let ckpt = found.expect("no fault seed killed the statement after its first completed batch");

    // Resume on a fresh engine + executor from the checkpoint, faults off.
    let eng_c = engine();
    let exec_c = QueryExecutor::new(&eng_c, &OracleLlm, Tokenizer::new());
    exec_c.restore(&ckpt);
    let mut runner_c = SqlRunner::new(&exec_c, &solver).with_optimizer(OptimizerConfig::all());
    runner_c.register(name, &ds.table, &ds.fds);
    let resumed = runner_c.run(sql, &skewed_truth).expect("resumed run");

    assert_rows_identical(&baseline, &resumed, "resume");
    let resumed_calls = llm_calls(&resumed);
    assert!(
        resumed_calls < cold_calls,
        "resume must re-issue strictly fewer LLM calls ({resumed_calls} vs {cold_calls})"
    );
    let hits: u64 = resumed.stages.iter().map(|s| s.report.opt.cache_hits).sum();
    assert!(
        hits > 0,
        "the resumed run must answer rows from the checkpoint"
    );
}

/// Checkpointing composes with bounded caches: a budgeted executor exports
/// only what it retained, the snapshot absorbs cleanly, and the resumed
/// statement still matches row for row (hits merely become misses).
#[test]
fn checkpoint_respects_cache_budget_and_still_matches() {
    let ds = Dataset::generate_with_rows(DatasetId::Movies, 120);
    let (_, name, sql) = common::seven_dataset_cases()[0];
    let solver = Ggr::default();

    let eng_a = engine();
    let exec_a = QueryExecutor::new(&eng_a, &OracleLlm, Tokenizer::new());
    let mut runner_a = SqlRunner::new(&exec_a, &solver).with_optimizer(OptimizerConfig::all());
    runner_a.register(name, &ds.table, &ds.fds);
    let baseline = runner_a.run(sql, &skewed_truth).expect("baseline");
    let full = exec_a.checkpoint();

    // Tighten the budget on the warm cache: LRU eviction shrinks it, and
    // the next checkpoint carries exactly what survived.
    exec_a.set_answer_cache_budget(Some(10), None);
    let trimmed = exec_a.checkpoint();
    assert!(trimmed.len() <= 10);
    assert!(trimmed.len() < full.len());
    assert!(exec_a.answer_cache_stats().evictions > 0);

    let eng_b = engine();
    let exec_b = QueryExecutor::new(&eng_b, &OracleLlm, Tokenizer::new());
    exec_b.restore(&trimmed);
    let mut runner_b = SqlRunner::new(&exec_b, &solver).with_optimizer(OptimizerConfig::all());
    runner_b.register(name, &ds.table, &ds.fds);
    let resumed = runner_b.run(sql, &skewed_truth).expect("trimmed resume");
    assert_rows_identical(&baseline, &resumed, "trimmed resume");
    assert!(llm_calls(&resumed) <= llm_calls(&baseline));
}
