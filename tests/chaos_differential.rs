//! Differential contract of the fault-injection subsystem: the chaos
//! dispatcher ([`ClusterSim::run_with_faults`]) with an empty [`FaultPlan`]
//! and a disabled [`RetryPolicy`] is **byte-identical** to the fault-free
//! seed path ([`ClusterSim::run`]); any chaotic configuration reproduces
//! byte for byte from `(plan, policy, workload)` alone; and the
//! zero-request-loss invariant `succeeded + failed == offered` holds under
//! crashes, drains, stragglers, and transient errors. The same empty-plan
//! identity holds one layer up: SQL statements under an inert
//! [`StatementFaults`] match fault-free execution on all seven tier-1
//! datasets, and degraded statements fail *gracefully* — partial results
//! with per-row annotations, or a clean typed error. Never a panic, never a
//! lost request. Macro-stepped and single-stepped chaos runs agree, also
//! over random plan / policy / router combinations, and a crash with a
//! retry budget loses zero requests.
//!
//! Also here: proptests pinning the retry-insensitive router contract (all
//! four built-in routers are pure functions of their snapshots — see the
//! `Router` trait docs), the bounded-queue backpressure behaviour under
//! full saturation, and `std::error::Error` conformance of the public
//! error enums.

mod common;

use common::{
    assert_sql_identical, cluster_sim as sim, engine, grouped_workload as workload, routers,
    skewed_truth,
};
use llmqo::cluster::{
    AdmissionPolicy, ArrivalProcess, ClusterReport, FaultPlan, LeastLoaded, OverloadPolicy,
    PrefixAffinity, ReplicaSnapshot, RetryPolicy, RoundRobin, Router, ScalePolicy,
};
use llmqo::core::Ggr;
use llmqo::datasets::Dataset;
use llmqo::relational::{
    ExecError, OptimizerConfig, QueryExecutor, SqlError, SqlResult, SqlRunner, StatementFaults,
};
use llmqo::serve::OracleLlm;
use llmqo::tokenizer::Tokenizer;
use proptest::prelude::*;

/// The differential spine: with an inert plan and policy, the chaos
/// dispatcher must take the exact legacy code path — same placements, same
/// clocks, same queue waits, same report bytes — for every built-in router,
/// batch and Poisson arrivals, roomy and saturated queues.
#[test]
fn empty_plan_chaos_is_byte_identical_to_seed_run() {
    let inert_plan = FaultPlan::default();
    let inert_retry = RetryPolicy::disabled();
    for (replicas, queue_cap) in [(3usize, 16usize), (3, 1), (8, 4)] {
        for arrivals in [
            ArrivalProcess::Batch,
            ArrivalProcess::Poisson {
                rate_rps: 40.0,
                seed: 11,
            },
        ] {
            let mut requests = workload(12, 6);
            arrivals.assign(&mut requests);
            let sim = sim(replicas, queue_cap);
            for mut router in routers() {
                let seed_report = sim.run(router.as_mut(), &requests).expect("seed run");
                let chaos_report = sim
                    .run_with_faults(router.as_mut(), &requests, &inert_plan, &inert_retry)
                    .expect("chaos run");
                assert_eq!(
                    seed_report, chaos_report,
                    "router {} diverged ({replicas} replicas, cap {queue_cap}, {arrivals:?})",
                    seed_report.policy
                );
                assert!(
                    !chaos_report.faults.engaged(),
                    "inert plan+policy must not engage the failure machinery"
                );
            }
        }
    }
}

fn chaotic_plan() -> FaultPlan {
    FaultPlan::seeded(42)
        .crash_restart(0, 0.08, 0.3)
        .slowdown(1, 0.05, 0.4, 3.0)
        .drain(2, 0.15, 0.5)
        .transient_errors_ppm(60_000)
}

fn chaotic_policy() -> RetryPolicy {
    RetryPolicy::retries(4)
        .with_hedging(0.5)
        .with_deadline(60.0)
}

/// Chaos is reproducible: the same `(plan, policy, workload, router)`
/// quadruple yields byte-identical reports on every invocation.
#[test]
fn same_seed_chaos_runs_are_byte_identical() {
    let mut requests = workload(12, 6);
    ArrivalProcess::Poisson {
        rate_rps: 50.0,
        seed: 3,
    }
    .assign(&mut requests);
    let sim = sim(4, 8);
    let plan = chaotic_plan();
    let policy = chaotic_policy();
    let runs: Vec<ClusterReport> = (0..2)
        .map(|_| {
            sim.run_with_faults(&mut PrefixAffinity::default(), &requests, &plan, &policy)
                .expect("chaos run")
        })
        .collect();
    assert_eq!(runs[0], runs[1], "chaos run is nondeterministic");
    let fs = &runs[0].faults;
    assert!(fs.engaged());
    assert_eq!(fs.succeeded + fs.failed, fs.offered, "requests lost");
    assert_eq!(fs.crashes, 1);
    assert_eq!(fs.drains, 1);
    assert_eq!(fs.restarts, 2, "crash restart + drain rejoin");
    assert!(fs.transient_errors > 0, "transient errors never rolled");
    assert!(fs.retries > 0, "no retries scheduled");
    assert_eq!(fs.unavailability_windows, 2);
    assert!(fs.unavailable_s > 0.0);
}

/// The macro-stepped chaos dispatcher and the single-stepped oracle agree
/// byte for byte — faults, slowdown windows, retries and hedges land on the
/// same step boundaries in both modes.
#[test]
fn macro_and_single_stepped_chaos_agree() {
    let mut requests = workload(10, 6);
    ArrivalProcess::Poisson {
        rate_rps: 60.0,
        seed: 9,
    }
    .assign(&mut requests);
    let sim = sim(3, 8);
    // Scheduled faults, slowdown windows, and hedge timers all bound the
    // macro window in advance, so this plan exercises genuine macro
    // stepping. Transient errors are the one source of mid-window retry
    // feedback; with them the dispatcher falls back to fine-grained
    // stepping on its own (second plan below), which must also agree.
    let plans = [
        FaultPlan::seeded(5)
            .crash_restart(0, 0.1, 0.25)
            .slowdown(2, 0.0, 0.3, 2.5)
            .drain(1, 0.2, 0.45),
        FaultPlan::seeded(5)
            .crash_restart(0, 0.1, 0.25)
            .slowdown(2, 0.0, 0.3, 2.5)
            .transient_errors_ppm(40_000),
    ];
    let policy = RetryPolicy::retries(3).with_hedging(0.4);
    for plan in &plans {
        for mut router in routers() {
            let macro_run = sim
                .run_with_faults(router.as_mut(), &requests, plan, &policy)
                .expect("macro run");
            let single = sim
                .single_stepped()
                .run_with_faults(router.as_mut(), &requests, plan, &policy)
                .expect("single-stepped run");
            assert_eq!(
                macro_run, single,
                "stepping modes diverged for router {}",
                macro_run.policy
            );
        }
    }
}

/// The chaos dispatcher macro-steps through backpressured phases for
/// retry-insensitive routers (the PR-8 contract extended to the fault
/// path): a saturated batch against depth-1 queues with a crash and a
/// slowdown window on top must take genuine backpressured macro steps and
/// still agree byte for byte with the single-stepped oracle.
#[test]
fn chaos_macro_stepping_survives_backpressure() {
    let requests = workload(12, 6); // batch: everything queues at t=0
    let sim = sim(3, 1);
    let plan = FaultPlan::seeded(5)
        .crash_restart(0, 0.1, 0.3)
        .slowdown(1, 0.05, 0.4, 2.0);
    let policy = RetryPolicy::retries(3);
    for mut router in routers() {
        let coarse = sim
            .run_with_faults(router.as_mut(), &requests, &plan, &policy)
            .expect("macro run");
        let fine = sim
            .single_stepped()
            .run_with_faults(router.as_mut(), &requests, &plan, &policy)
            .expect("single-stepped run");
        assert_eq!(
            coarse, fine,
            "backpressured stepping modes diverged for router {}",
            coarse.policy
        );
        assert!(
            coarse.backpressure_macro_steps > 0,
            "router {} took no backpressured macro steps under full saturation",
            coarse.policy
        );
        assert_eq!(fine.backpressure_macro_steps, 0);
    }
}

/// A crash with warm restart plus a retry budget loses **zero** requests:
/// every crash-killed attempt re-enters through the retry machinery and
/// eventually completes, and the ledger reconciles exactly with the
/// offered load.
#[test]
fn crash_with_retry_loses_zero_requests() {
    let requests = workload(8, 6);
    let sim = sim(2, 16);
    let plan = FaultPlan::seeded(7).crash_restart(0, 0.05, 0.2);
    let report = sim
        .run_with_faults(
            &mut PrefixAffinity::default(),
            &requests,
            &plan,
            &RetryPolicy::retries(4),
        )
        .expect("chaos run");
    let fs = &report.faults;
    assert_eq!(fs.offered, requests.len());
    assert_eq!(fs.succeeded + fs.failed, fs.offered);
    assert_eq!(fs.failed, 0, "a crash with restart+retry must lose nothing");
    assert_eq!(fs.succeeded, requests.len());
    assert_eq!(fs.crashes, 1);
    assert_eq!(fs.restarts, 1);
    assert!(fs.crash_failures > 0, "the crash killed no attempts");
    assert!(fs.retries >= fs.crash_failures);
    // No hedging and no transient errors: every engine completion is a
    // logical success, so the replica-level completion records reconcile
    // with the request ledger too.
    assert_eq!(report.completed, fs.succeeded);
    assert_eq!(fs.unavailability_windows, 1);
    assert!(fs.unavailable_s > 0.0);
}

/// Transient errors consume engine work without producing successes:
/// every errored attempt completes at the engine layer but re-enters the
/// retry machinery, so `completed == succeeded + transient_errors` (no
/// crashes, no hedges), and retries push the success count back up.
#[test]
fn transient_errors_reconcile_with_engine_completions() {
    let requests = workload(10, 6);
    let sim = sim(3, 16);
    let plan = FaultPlan::seeded(13).transient_errors_ppm(100_000);
    let with_retry = sim
        .run_with_faults(&mut LeastLoaded, &requests, &plan, &RetryPolicy::retries(4))
        .expect("retry run");
    let fs = &with_retry.faults;
    assert_eq!(fs.succeeded + fs.failed, fs.offered);
    assert!(fs.transient_errors > 0);
    assert_eq!(
        with_retry.completed,
        fs.succeeded + fs.transient_errors as usize
    );
    assert!(fs.retries > 0);

    // Same plan with retries off: first-attempt transient errors become
    // permanent failures, one per errored attempt.
    let no_retry = sim
        .run_with_faults(&mut LeastLoaded, &requests, &plan, &RetryPolicy::disabled())
        .expect("no-retry run");
    let nf = &no_retry.faults;
    assert_eq!(nf.succeeded + nf.failed, nf.offered);
    assert_eq!(nf.failed as u64, nf.transient_errors);
    assert!(nf.failed > 0, "10% over 60 attempts should fail some");
    assert!(
        with_retry.faults.failed < nf.failed,
        "retries must strictly improve on no retries here"
    );
}

/// Losing the whole fleet permanently still terminates cleanly: every
/// request is accounted as failed, nothing panics, nothing hangs.
#[test]
fn losing_every_replica_fails_all_requests_cleanly() {
    let requests = workload(6, 6);
    let sim = sim(2, 16);
    let plan = FaultPlan::seeded(1).crash(0, 0.0).crash(1, 0.0);
    let report = sim
        .run_with_faults(&mut RoundRobin, &requests, &plan, &RetryPolicy::retries(3))
        .expect("run must terminate");
    let fs = &report.faults;
    assert_eq!(fs.succeeded, 0);
    assert_eq!(fs.failed, fs.offered);
    assert_eq!(fs.crashes, 2);
    assert_eq!(fs.restarts, 0);
}

/// A router that counts consultations — the documented "stateful router"
/// case: the dispatcher may re-ask after every simulation event while a
/// chosen replica's queue is full, so a stateful policy observes extra
/// calls under backpressure but the simulation stays correct.
struct Counting {
    inner: LeastLoaded,
    calls: usize,
}

impl Router for Counting {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn route(&mut self, prefix_key: u64, replicas: &[ReplicaSnapshot]) -> usize {
        self.calls += 1;
        self.inner.route(prefix_key, replicas)
    }
}

/// Full saturation of the bounded replica queues: a batch far larger than
/// `replicas × queue_cap` arrives at time zero. The dispatcher must apply
/// backpressure (requests wait in admission), complete everything, and a
/// stateful router must observe at least one consultation per placement —
/// typically many more, one per backpressure retry.
#[test]
fn bounded_queues_backpressure_under_full_saturation() {
    let requests = workload(12, 6);
    let sim = sim(3, 1);
    let mut counting = Counting {
        inner: LeastLoaded,
        calls: 0,
    };
    let report = sim.run(&mut counting, &requests).expect("saturated run");
    assert_eq!(report.completed, requests.len());
    assert!(
        counting.calls > requests.len(),
        "full saturation must re-consult the router on backpressure \
         ({} calls for {} placements)",
        counting.calls,
        requests.len()
    );
    // The same stateful router through the chaos path, with a crash on
    // top: retries re-enter the admission queue and re-consult the router,
    // and the ledger still reconciles.
    let mut chaos_counting = Counting {
        inner: LeastLoaded,
        calls: 0,
    };
    let chaos = sim
        .run_with_faults(
            &mut chaos_counting,
            &requests,
            &FaultPlan::seeded(2).crash_restart(1, 0.05, 0.2),
            &RetryPolicy::retries(3),
        )
        .expect("saturated chaos run");
    let fs = &chaos.faults;
    assert_eq!(fs.succeeded + fs.failed, fs.offered);
    assert!(
        chaos_counting.calls > fs.offered + fs.retries as usize,
        "retried placements must re-consult the router"
    );
}

/// Duplicate engine ids are rejected up front — completions could not be
/// attributed back to logical requests otherwise.
#[test]
fn chaos_run_rejects_duplicate_request_ids() {
    let mut requests = workload(2, 2);
    requests[3].request.id = requests[0].request.id;
    let err = sim(2, 4)
        .run_with_faults(
            &mut RoundRobin,
            &requests,
            &FaultPlan::default(),
            &RetryPolicy::retries(2),
        )
        .expect_err("duplicate ids must be rejected");
    assert!(err.to_string().contains("duplicate request id"));
}

// ---------------------------------------------------------------------------
// SQL-layer graceful degradation
// ---------------------------------------------------------------------------

fn run_sql(
    ds: &Dataset,
    table_name: &str,
    sql: &str,
    opt: OptimizerConfig,
) -> Result<SqlResult, SqlError> {
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(opt);
    runner.register(table_name, &ds.table, &ds.fds);
    runner.run(sql, &skewed_truth)
}

/// The empty-plan identity one layer up: a configured-but-inert
/// `StatementFaults` (zero error rate) executes the exact fault-free code
/// path on all seven tier-1 datasets.
#[test]
fn inert_statement_faults_match_fault_free_sql_on_all_seven_datasets() {
    for (id, name, sql) in common::seven_dataset_cases() {
        let ds = Dataset::generate_with_rows(id, 120);
        let baseline = run_sql(&ds, name, sql, OptimizerConfig::all())
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        let inert = OptimizerConfig {
            faults: Some(StatementFaults::new(0, 99)),
            ..OptimizerConfig::all()
        };
        let with_inert = run_sql(&ds, name, sql, inert).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_sql_identical(&baseline, &with_inert, id.name());
        assert!(baseline.stages.iter().all(|s| s.failed_rows.is_empty()));
    }
}

/// Partial-result degradation: with a heavy error rate and a small retry
/// budget, the statement still succeeds — dropped rows are listed in
/// `failed_rows`, annotated in `notes`, and the whole degraded execution
/// is deterministic in the fault seed.
#[test]
fn exhausted_retry_budget_degrades_to_annotated_partial_results() {
    let ds = Dataset::generate_with_rows(llmqo::datasets::DatasetId::Movies, 120);
    let (_, name, sql) = common::seven_dataset_cases()[0];
    let faulty = OptimizerConfig {
        faults: Some(StatementFaults::new(400_000, 9).with_attempts(2)),
        ..OptimizerConfig::all()
    };
    let degraded = run_sql(&ds, name, sql, faulty).expect("partial mode must not error");
    let failed: usize = degraded.stages.iter().map(|s| s.failed_rows.len()).sum();
    assert!(
        failed > 0,
        "40%² per-row failure over 120 rows must drop some"
    );
    assert!(
        degraded.notes.iter().any(|n| n.contains("degraded")),
        "degradation must be announced in the notes: {:?}",
        degraded.notes
    );
    let retries: u64 = degraded
        .stages
        .iter()
        .map(|s| s.report.opt.llm_retries)
        .sum();
    assert!(retries > 0, "budget 2 must have retried some rows");
    for s in &degraded.stages {
        assert!(
            s.failed_rows.windows(2).all(|w| w[0] < w[1]),
            "failed rows must be ascending and unique"
        );
    }
    // Deterministic: same seed, same degradation.
    let again = run_sql(&ds, name, sql, faulty).expect("rerun");
    assert_sql_identical(&degraded, &again, "degraded rerun");

    // EXPLAIN ANALYZE documents the fault configuration and the damage.
    let analyzed = run_sql(
        &ds,
        name,
        &format!("EXPLAIN ANALYZE {sql}"),
        OptimizerConfig {
            faults: Some(StatementFaults::new(400_000, 9).with_attempts(2)),
            ..OptimizerConfig::all()
        },
    )
    .expect("explain analyze");
    let rendering: String = analyzed
        .rows
        .iter()
        .map(|r| r.join(""))
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        rendering.contains("-- faults:"),
        "EXPLAIN ANALYZE must carry the faults footer:\n{rendering}"
    );
    assert!(
        rendering.contains("rows failed"),
        "EXPLAIN ANALYZE must show per-node damage:\n{rendering}"
    );
}

/// Strict mode: the same outage with partial results disabled fails the
/// statement with a clean typed error, not a panic.
#[test]
fn strict_mode_surfaces_llm_unavailable() {
    let ds = Dataset::generate_with_rows(llmqo::datasets::DatasetId::Movies, 120);
    let (_, name, sql) = common::seven_dataset_cases()[0];
    let strict = OptimizerConfig {
        faults: Some(StatementFaults::new(400_000, 9).with_attempts(2).strict()),
        ..OptimizerConfig::all()
    };
    let err = run_sql(&ds, name, sql, strict).expect_err("strict mode must error");
    match err {
        SqlError::Exec(ExecError::LlmUnavailable { attempts, .. }) => {
            assert_eq!(attempts, 2);
        }
        other => panic!("expected LlmUnavailable, got: {other}"),
    }
}

// ---------------------------------------------------------------------------
// Error-trait conformance
// ---------------------------------------------------------------------------

/// Every public error enum boxes into `dyn std::error::Error` and renders
/// a non-empty `Display` — the satellite contract that lets callers thread
/// any layer's failure through `?` into `Box<dyn Error>`.
#[test]
fn public_errors_box_and_display() {
    fn boxed(e: impl std::error::Error + 'static) -> Box<dyn std::error::Error> {
        Box::new(e)
    }
    let requests = workload(2, 2);
    // InvalidFaultPlan via a malformed plan.
    let bad_plan = sim(2, 4)
        .run_with_faults(
            &mut RoundRobin,
            &requests,
            &FaultPlan::seeded(0).crash(9, 0.0),
            &RetryPolicy::disabled(),
        )
        .expect_err("out-of-fleet crash must be rejected");
    // DuplicateRequestId.
    let mut dup = workload(2, 2);
    dup[1].request.id = dup[0].request.id;
    let dup_err = sim(2, 4)
        .run_with_faults(
            &mut RoundRobin,
            &dup,
            &FaultPlan::default(),
            &RetryPolicy::retries(2),
        )
        .expect_err("duplicates must be rejected");
    let errors: Vec<Box<dyn std::error::Error>> = vec![
        boxed(bad_plan),
        boxed(dup_err),
        boxed(ExecError::LlmUnavailable {
            row: 7,
            attempts: 3,
        }),
        boxed(SqlError::Exec(ExecError::LlmUnavailable {
            row: 7,
            attempts: 3,
        })),
        boxed(SqlError::UnknownTable {
            name: "nope".into(),
        }),
    ];
    for e in &errors {
        assert!(!e.to_string().is_empty(), "empty Display for {e:?}");
    }
}

// ---------------------------------------------------------------------------
// The retry-insensitive router contract
// ---------------------------------------------------------------------------

fn arb_snapshots() -> impl Strategy<Value = Vec<ReplicaSnapshot>> {
    proptest::collection::vec(
        (
            0usize..20,
            0usize..8,
            0usize..1000,
            0usize..60,
            prop::bool::ANY,
        ),
        1..10,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(
                |(index, (queued, running, kv_blocks_in_use, assigned, alive))| ReplicaSnapshot {
                    index,
                    queued,
                    running,
                    kv_blocks_in_use,
                    capacity_blocks: 1000,
                    clock_s: 0.0,
                    assigned,
                    alive,
                },
            )
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// All four built-in routers are pure functions of `(prefix_key,
    /// replicas)`: re-consulting (as the dispatcher does on every
    /// backpressure retry, failover, and hedge) never changes the answer,
    /// a fresh instance answers exactly like a used one, the choice is
    /// always in range, and an alive replica is preferred whenever one
    /// exists.
    #[test]
    fn builtin_routers_are_pure_in_range_and_prefer_alive(
        snaps in arb_snapshots(),
        key in 0u64..u64::MAX,
        noise_key in 0u64..u64::MAX,
    ) {
        let any_alive = snaps.iter().any(|r| r.alive);
        for mut router in routers() {
            let first = router.route(key, &snaps);
            prop_assert!(first < snaps.len(), "{} out of range", router.name());
            if any_alive {
                prop_assert!(
                    snaps[first].alive,
                    "{} chose a dead replica with alive ones present",
                    router.name()
                );
            }
            // Re-consultation (retry-insensitivity), even after the router
            // has been exercised with unrelated traffic.
            let _ = router.route(noise_key, &snaps);
            prop_assert!(
                router.route(key, &snaps) == first,
                "{} is consultation-sensitive",
                router.name()
            );
        }
        // Fresh instances agree with used ones: no hidden state.
        let fresh: Vec<usize> = routers()
            .iter_mut()
            .map(|r| r.route(key, &snaps))
            .collect();
        let used: Vec<usize> = routers()
            .iter_mut()
            .map(|r| {
                for k in 0..5u64 {
                    let _ = r.route(k.wrapping_mul(0x9e37), &snaps);
                }
                r.route(key, &snaps)
            })
            .collect();
        prop_assert!(fresh == used, "history changed a routing decision");
    }
}

// ---------------------------------------------------------------------------
// The whole options space, on one loop
// ---------------------------------------------------------------------------

/// A random fault plan for a 3-replica fleet: up to three crashes (with or
/// without restart), drains and slowdown windows in the first second, plus
/// a transient error rate.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    let event = (0u8..4, 0usize..3, 0u32..600, 1u32..400);
    let ppm = prop::sample::select(vec![0u32, 0, 50_000, 200_000]);
    (proptest::collection::vec(event, 0..4), ppm, 0u64..1000).prop_map(|(events, ppm, seed)| {
        let mut plan = FaultPlan::seeded(seed).transient_errors_ppm(ppm);
        for (kind, replica, at_ms, span_ms) in events {
            let (at, until) = (f64::from(at_ms) / 1e3, f64::from(at_ms + span_ms) / 1e3);
            plan = match kind {
                0 => plan.crash(replica, at),
                1 => plan.crash_restart(replica, at, until),
                2 => plan.drain(replica, at, until),
                _ => plan.slowdown(replica, at, until, 1.5 + f64::from(span_ms % 3)),
            };
        }
        plan
    })
}

fn arb_retry() -> impl Strategy<Value = RetryPolicy> {
    let hedge = prop::sample::select(vec![None, None, Some(0.05), Some(0.4)]);
    let deadline = prop::sample::select(vec![None, Some(0.8), Some(30.0)]);
    (1u32..5, hedge, deadline).prop_map(|(max_attempts, hedge_after_s, deadline_s)| RetryPolicy {
        hedge_after_s,
        deadline_s,
        ..RetryPolicy::retries(max_attempts)
    })
}

fn arb_overload() -> impl Strategy<Value = OverloadPolicy> {
    let scale_up = ScalePolicy::elastic(1, 5)
        .reacting(0.1, 0.05)
        .with_cadence(0.05, 0.1)
        .with_warmup(0.1)
        .with_warmup_jitter(0.3, 7);
    let scale_down = ScalePolicy::elastic(1, 3)
        .reacting(5.0, 0.9)
        .with_cadence(0.1, 0.2);
    (
        prop::sample::select(vec![None, Some(2usize), Some(8)]),
        prop::sample::select(vec![None, Some(0.002), Some(0.5)]),
        prop::sample::select(vec![None, Some(3usize)]),
        prop::sample::select(vec![None, Some(scale_up), Some(scale_down)]),
    )
        .prop_map(
            |(max_pending, max_kv_utilization, tenant_quota, scale)| OverloadPolicy {
                admission: AdmissionPolicy {
                    max_pending,
                    max_kv_utilization,
                    tenant_quota,
                },
                scale,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any combination of fault plan, retry policy, admission gates,
    /// autoscaler, router and queue bound runs on the one kernel loop:
    /// macro-stepped ≡ single-stepped, a rerun is byte-identical, and the
    /// ledgers reconcile.
    #[test]
    fn any_options_agree_across_stepping_modes_and_reconcile(
        plan in arb_plan(),
        retry in arb_retry(),
        overload in arb_overload(),
        (router, queue_cap) in (0usize..4, prop::sample::select(vec![1usize, 2, 16])),
        rate_rps in prop::sample::select(vec![0.0, 40.0, 150.0]),
    ) {
        let mut requests = common::prioritized_workload(8, 5, 4);
        if rate_rps > 0.0 {
            ArrivalProcess::Poisson { rate_rps, seed: 5 }.assign(&mut requests);
        }
        let sim = sim(3, queue_cap);
        let run = |sim: &llmqo::cluster::ClusterSim| {
            let mut router = routers().swap_remove(router);
            sim.run_overloaded(router.as_mut(), &requests, &plan, &retry, &overload)
                .expect("valid options")
        };
        let report = run(&sim);
        if retry.hedge_after_s.is_none() {
            prop_assert!(report == run(&sim.single_stepped()), "stepping modes diverged");
        }
        prop_assert!(report == run(&sim), "rerun diverged");
        let (faults, shed) = (&report.faults, &report.shed);
        let served = if faults.engaged() {
            faults.succeeded + faults.failed
        } else {
            report.completed
        };
        prop_assert_eq!(served + shed.shed, requests.len());
        prop_assert_eq!(
            shed.shed_queue_full + shed.shed_kv_pressure + shed.shed_tenant_quota,
            shed.shed
        );
    }
}
