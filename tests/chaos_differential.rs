//! Differential contract of the fault-injection subsystem: the chaos
//! dispatcher ([`ClusterSim::run_overloaded`]) with an empty [`FaultPlan`]
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
//! Also here: proptests pinning the router purity contract (all four
//! built-in routers are pure functions of their snapshots — see the
//! `Router` trait docs), the bounded-queue backpressure behaviour under
//! full saturation, `std::error::Error` conformance of the public error
//! enums, and completion attribution by request id (sparse ids, the
//! smallest duplicate).

mod common;

use common::{
    assert_sql_identical, cluster_sim as sim, engine, grouped_workload as workload, routers,
    skewed_truth,
};
use llmqo::cluster::{
    AdmissionPolicy, ArrivalProcess, ClusterError, ClusterReport, FaultPlan, LeastLoaded,
    OverloadPolicy, PrefixAffinity, ReplicaSnapshot, RetryPolicy, RoundRobin, Router, ScalePolicy,
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
                    .run_overloaded(
                        router.as_mut(),
                        &requests,
                        &inert_plan,
                        &inert_retry,
                        &OverloadPolicy::default(),
                    )
                    .expect("chaos run");
                assert_eq!(
                    seed_report, chaos_report,
                    "router {} diverged ({replicas} replicas, cap {queue_cap}, {arrivals:?})",
                    seed_report.policy
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
            sim.run_overloaded(
                &mut PrefixAffinity::default(),
                &requests,
                &plan,
                &policy,
                &OverloadPolicy::default(),
            )
            .expect("chaos run")
        })
        .collect();
    assert_eq!(runs[0], runs[1], "chaos run is nondeterministic");
    let fs = &runs[0].faults;
    assert_eq!(fs.offered, requests.len());
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
    // Scheduled faults, slowdown windows, and hedge timers bound the macro
    // window in advance; transient errors (second plan) are discovered at
    // harvest, which the other busy replicas' clocks keep in order.
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
                .run_overloaded(
                    router.as_mut(),
                    &requests,
                    plan,
                    &policy,
                    &OverloadPolicy::default(),
                )
                .expect("macro run");
            let single = sim
                .single_stepped()
                .run_overloaded(
                    router.as_mut(),
                    &requests,
                    plan,
                    &policy,
                    &OverloadPolicy::default(),
                )
                .expect("single-stepped run");
            assert_eq!(
                macro_run, single,
                "stepping modes diverged for router {}",
                macro_run.policy
            );
        }
    }
}

/// The chaos dispatcher macro-steps through backpressured phases: a
/// saturated batch against depth-1 queues with a crash and a
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
            .run_overloaded(
                router.as_mut(),
                &requests,
                &plan,
                &policy,
                &OverloadPolicy::default(),
            )
            .expect("macro run");
        let fine = sim
            .single_stepped()
            .run_overloaded(
                router.as_mut(),
                &requests,
                &plan,
                &policy,
                &OverloadPolicy::default(),
            )
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

/// Transient errors, retries and hedges are decided at harvest, yet a
/// backpressured run that has them still macro-steps — the other busy
/// replicas' clocks keep its completions in sim-time order — and agrees
/// byte for byte with the single-stepped oracle.
#[test]
fn transient_retries_and_hedges_macro_step_under_backpressure() {
    let requests = workload(12, 6); // batch: everything queues at t=0
    let sim = sim(3, 1);
    let plan = FaultPlan::seeded(5)
        .crash_restart(0, 0.1, 0.3)
        .transient_errors_ppm(60_000);
    let policy = RetryPolicy::retries(4).with_hedging(0.05);
    for mut router in routers() {
        let coarse = sim
            .run_overloaded(
                router.as_mut(),
                &requests,
                &plan,
                &policy,
                &OverloadPolicy::default(),
            )
            .expect("macro run");
        let fine = sim
            .single_stepped()
            .run_overloaded(
                router.as_mut(),
                &requests,
                &plan,
                &policy,
                &OverloadPolicy::default(),
            )
            .expect("single-stepped run");
        assert_eq!(
            coarse, fine,
            "stepping modes diverged for router {}",
            coarse.policy
        );
        let fs = &coarse.faults;
        assert!(fs.transient_errors > 0 && fs.retries > 0 && fs.hedges_issued > 0);
        assert!(
            coarse.backpressure_macro_steps > 0,
            "router {} single-stepped a run with transient retries",
            coarse.policy
        );
    }
}

/// The hedge race: a replica that jumps past another busy replica's clock
/// can harvest a completion that finishes later than one the other has not
/// reached, and hand the race to the other attempt than a single-stepped run
/// does (on this setup, 5 hedges won against the single-stepped 4). Jumps
/// bounded by the other busy replicas' clocks harvest in sim-time order.
#[test]
fn the_hedge_race_reproducer_agrees_across_stepping_modes() {
    let mut requests = common::prioritized_workload(8, 5, 4);
    ArrivalProcess::Poisson {
        rate_rps: 40.0,
        seed: 5,
    }
    .assign(&mut requests);
    let plan = FaultPlan::seeded(240)
        .crash_restart(0, 0.063, 0.31)
        .slowdown(0, 0.049, 0.136, 1.5)
        .slowdown(1, 0.071, 0.377, 1.5);
    let retry = RetryPolicy::retries(4)
        .with_hedging(0.4)
        .with_deadline(30.0);
    let overload = OverloadPolicy::admission(AdmissionPolicy {
        max_kv_utilization: Some(0.5),
        tenant_quota: Some(3),
        ..AdmissionPolicy::default()
    });
    let run = |sim: &llmqo::cluster::ClusterSim| {
        sim.run_overloaded(&mut RoundRobin, &requests, &plan, &retry, &overload)
            .expect("valid options")
    };
    let coarse = run(&sim(3, 16));
    let fine = run(&sim(3, 16).single_stepped());
    assert_eq!(fine.faults.hedges_won, 4);
    assert_eq!(
        coarse, fine,
        "the stepping modes decided a hedge race apart"
    );
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
        .run_overloaded(
            &mut PrefixAffinity::default(),
            &requests,
            &plan,
            &RetryPolicy::retries(4),
            &OverloadPolicy::default(),
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
        .run_overloaded(
            &mut LeastLoaded,
            &requests,
            &plan,
            &RetryPolicy::retries(4),
            &OverloadPolicy::default(),
        )
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
        .run_overloaded(
            &mut LeastLoaded,
            &requests,
            &plan,
            &RetryPolicy::disabled(),
            &OverloadPolicy::default(),
        )
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
        .run_overloaded(
            &mut RoundRobin,
            &requests,
            &plan,
            &RetryPolicy::retries(3),
            &OverloadPolicy::default(),
        )
        .expect("run must terminate");
    let fs = &report.faults;
    assert_eq!(fs.succeeded, 0);
    assert_eq!(fs.failed, fs.offered);
    assert_eq!(fs.crashes, 2);
    assert_eq!(fs.restarts, 0);
    // Both stay down to the end: two windows open at the makespan.
    assert_eq!(fs.unavailability_windows, 2);
}

/// The whole initial fleet crashed for good at 0 with requests waiting,
/// under an autoscaler that scales up once the head of the line has waited
/// `wait` seconds: nothing but that first scale-up can move the run.
fn stranded_run(wait: f64) -> ClusterReport {
    let scale = ScalePolicy::elastic(1, 2)
        .reacting(wait, 0.1)
        .with_cadence(0.25, 1.0);
    sim(2, 16)
        .run_overloaded(
            &mut RoundRobin,
            &workload(6, 6),
            &FaultPlan::seeded(1).crash(0, 0.0).crash(1, 0.0),
            &RetryPolicy::disabled(),
            &OverloadPolicy::default().with_scale(scale),
        )
        .expect("valid options")
}

/// FNV-1a over a report's `Debug` rendering: pins every field at once.
fn report_fingerprint(report: &ClusterReport) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

/// With every replica gone for good and requests waiting, the loop jumps
/// the autoscaler's cadence to the first check that can scale up and counts
/// the checks it passes over as made: the report is the one stepping
/// through every check gave (pinned at a wait of 1 000 s, 4 008 checks).
#[test]
fn a_stranded_queue_jumps_to_the_first_check_that_can_act() {
    let report = stranded_run(1e3);
    assert_eq!(report.scaling.checks, 4_008);
    assert_eq!(report.faults.succeeded, report.faults.offered);
    assert_eq!(report_fingerprint(&report), 0xbce3_c956_7664_493c);
}

/// A scale-up wait far past the run costs what a short one does: stepping
/// one check per cadence, a wait of 1e9 s took four billion checks.
#[test]
fn a_huge_scale_up_wait_finishes_at_once() {
    let started = std::time::Instant::now();
    let report = stranded_run(1e9);
    assert_eq!(report.scaling.checks, 4_000_000_008);
    assert_eq!(report.faults.succeeded, report.faults.offered);
    let took = started.elapsed();
    assert!(took.as_secs_f64() < 2.0, "took {took:?}");
}

/// The autoscaler of `obs_differential`'s cluster run, resizing within
/// `[min, max]`.
fn elastic(min: usize, max: usize) -> ScalePolicy {
    ScalePolicy::elastic(min, max)
        .reacting(0.2, 0.02)
        .with_cadence(0.1, 0.5)
        .with_warmup(0.3)
}

/// The cluster run with every ledger engaged (transient errors, retries,
/// hedges, a KV gate and an autoscaler) that `obs_differential` publishes,
/// under `plan` and `scale`. Under `elastic(2, 5)` it scales replica 1
/// down at 0.1 s, and replica 1 has left by 0.3 s.
fn elastic_chaos_run(plan: &FaultPlan, scale: ScalePolicy) -> ClusterReport {
    let retry = RetryPolicy::retries(3).with_hedging(0.2);
    let gates = AdmissionPolicy::bounded(64).with_kv_gate(0.01);
    let overload = OverloadPolicy::admission(gates).with_scale(scale);
    let requests = common::chaos_requests();
    sim(3, 4)
        .run_overloaded(
            &mut PrefixAffinity::bounded(1.25),
            &requests,
            plan,
            &retry,
            &overload,
        )
        .expect("valid options")
}

/// A replica the autoscaler drained out stays gone: a crash planned for it
/// after it left counts nothing and schedules no restart, so the run's
/// ledgers and replica 1's placements are those of the run without the
/// crash. (A restart once revived it: the fault ledger read
/// `crashes: 0, restarts: 1, unavailability_windows: 1`, with up to 3.5 s
/// of unavailability counted from the scale-down.)
#[test]
fn a_replica_the_autoscaler_drained_out_stays_gone() {
    let transient = FaultPlan::seeded(7).transient_errors_ppm(100_000);
    let base = elastic_chaos_run(&transient, elastic(2, 5));
    assert!(base.scaling.scale_downs > 0, "{:?}", base.scaling);
    for t in [0.3, 1.0, 2.0, 3.0] {
        let plan = transient.clone().crash_restart(1, t, t + 0.6);
        let report = elastic_chaos_run(&plan, elastic(2, 5));
        let (faults, scaling) = (&report.faults, &report.scaling);
        assert_eq!(faults, &base.faults, "crash at {t} s");
        assert_eq!(scaling, &base.scaling, "crash at {t} s");
        let placed = |r: &ClusterReport| r.replicas[1].assigned;
        assert_eq!(placed(&report), placed(&base), "crash at {t} s");
    }
}

/// A crash of a replica the autoscaler is draining out for good (still
/// finishing its work) counts the crash and fails its in-flight attempts;
/// the replica leaves as it would have, with no restart and no window.
/// (A restart once revived it, and counted a window from the crash.)
#[test]
fn a_crash_of_a_replica_draining_for_good_leaves_no_window() {
    // Scales down while replicas still work: replica 0 drains out from
    // about 1.7 s to past 1.9 s.
    let eager = ScalePolicy::elastic(1, 3)
        .reacting(5.0, 0.9)
        .with_cadence(0.1, 0.2);
    let transient = FaultPlan::seeded(7).transient_errors_ppm(100_000);
    let base = elastic_chaos_run(&transient, eager);
    let report = elastic_chaos_run(&transient.clone().crash_restart(0, 1.8, 2.4), eager);
    let faults = &report.faults;
    assert_eq!((faults.crashes, faults.restarts), (1, 0), "{faults:?}");
    assert!(faults.crash_failures > 0, "{faults:?}");
    assert_eq!(faults.unavailability_windows, 0, "{faults:?}");
    assert_eq!(faults.unavailable_s, 0.0, "{faults:?}");
    assert_eq!(report.scaling.scale_downs, base.scaling.scale_downs);
    assert_eq!(report.replicas[0].assigned, base.replicas[0].assigned);
}

/// A replica finishing its work under a plan drain will rejoin, so it
/// counts in the fleet `max_replicas` bounds: with the fleet at its
/// maximum, the autoscaler provisions nothing while the drain runs.
#[test]
fn a_draining_replica_that_will_rejoin_counts_in_the_fleet() {
    let plan = FaultPlan::seeded(7)
        .transient_errors_ppm(100_000)
        .drain(0, 0.5, 3.0);
    let report = elastic_chaos_run(&plan, elastic(3, 3));
    assert_eq!(report.faults.drains, 1, "{:?}", report.faults);
    assert_eq!(report.scaling.scale_ups, 0, "{:?}", report.scaling);
}

/// The fleet `max_replicas` bounds counts a replica once, however many
/// restarts are queued for it: two overlapping crash-restarts of replica 0
/// keep the peak within `elastic(3, 4)` (it read 5, one over the bound).
#[test]
fn a_replica_with_two_queued_restarts_counts_once_in_the_fleet() {
    let plan = FaultPlan::seeded(7)
        .transient_errors_ppm(100_000)
        .crash_restart(0, 1.0, 3.0)
        .crash_restart(0, 1.5, 3.5);
    let report = elastic_chaos_run(&plan, elastic(3, 4));
    let (faults, scaling) = (&report.faults, &report.scaling);
    assert_eq!((faults.crashes, faults.restarts), (1, 1), "{faults:?}");
    assert!(scaling.peak_replicas <= 4, "{scaling:?}");
}

/// A hedge whose excluded replica is the only one still up has nowhere to
/// go: it is abandoned, like one routed to its excluded replica, instead
/// of blocking the admission head until the dispatcher stalls. Its primary
/// is still in flight, so the ledger reconciles.
#[test]
fn a_hedge_excluded_from_the_last_live_replica_is_abandoned() {
    let mut requests = common::prioritized_workload(8, 5, 4);
    ArrivalProcess::Poisson {
        rate_rps: 150.0,
        seed: 5,
    }
    .assign(&mut requests);
    let plan = FaultPlan::seeded(704)
        .crash(2, 0.581)
        .crash(1, 0.394)
        .transient_errors_ppm(200_000);
    let retry = RetryPolicy::retries(2)
        .with_hedging(0.05)
        .with_deadline(30.0);
    for cap in [1, 2] {
        let report = sim(3, cap)
            .run_overloaded(
                &mut RoundRobin,
                &requests,
                &plan,
                &retry,
                &OverloadPolicy::default(),
            )
            .unwrap_or_else(|e| panic!("cap {cap}: {e}"));
        let fs = &report.faults;
        assert_eq!(fs.offered, requests.len(), "cap {cap}");
        assert_eq!(
            (fs.succeeded, fs.failed),
            (37, 3),
            "cap {cap}: the ledger reconciles"
        );
    }
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
        .run_overloaded(
            &mut chaos_counting,
            &requests,
            &FaultPlan::seeded(2).crash_restart(1, 0.05, 0.2),
            &RetryPolicy::retries(3),
            &OverloadPolicy::default(),
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
        .run_overloaded(
            &mut RoundRobin,
            &requests,
            &FaultPlan::default(),
            &RetryPolicy::retries(2),
            &OverloadPolicy::default(),
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
        .run_overloaded(
            &mut RoundRobin,
            &requests,
            &FaultPlan::seeded(0).crash(9, 0.0),
            &RetryPolicy::disabled(),
            &OverloadPolicy::default(),
        )
        .expect_err("out-of-fleet crash must be rejected");
    // DuplicateRequestId.
    let mut dup = workload(2, 2);
    dup[1].request.id = dup[0].request.id;
    let dup_err = sim(2, 4)
        .run_overloaded(
            &mut RoundRobin,
            &dup,
            &FaultPlan::default(),
            &RetryPolicy::retries(2),
            &OverloadPolicy::default(),
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
// Request ids
// ---------------------------------------------------------------------------

/// An engaged run rejects duplicate request ids up front and names the
/// smallest duplicated id, not the first duplicate it meets: here 9's
/// second copy comes before 3's.
#[test]
fn the_smallest_duplicated_request_id_is_reported() {
    let mut dup = workload(4, 3);
    dup[2].request.id = 9;
    dup[11].request.id = 3;
    let err = sim(2, 4)
        .run_overloaded(
            &mut RoundRobin,
            &dup,
            &FaultPlan::default(),
            &RetryPolicy::retries(2),
            &OverloadPolicy::default(),
        )
        .expect_err("duplicates must be rejected");
    assert!(
        matches!(err, ClusterError::DuplicateRequestId { id: 3 }),
        "{err:?}"
    );
}

/// Completions are attributed by id, whatever the ids are: the same engaged
/// run with sparse, huge ids — multiples of 2⁴⁰ and ids near `usize::MAX` —
/// is the dense run's report once each completion's id is mapped back.
#[test]
fn attribution_does_not_assume_dense_ids() {
    let mut dense = workload(12, 6);
    ArrivalProcess::Poisson {
        rate_rps: 60.0,
        seed: 9,
    }
    .assign(&mut dense);
    let sparse_id = |i: usize| {
        if i.is_multiple_of(2) {
            (i + 1) << 40
        } else {
            usize::MAX - i
        }
    };
    let mut sparse = dense.clone();
    for r in &mut sparse {
        r.request.id = sparse_id(r.request.id);
    }
    // An id seeds its transient-error rolls and backoff jitter, so this
    // plan rolls neither.
    let plan = FaultPlan::seeded(5)
        .crash_restart(0, 0.08, 0.3)
        .slowdown(1, 0.05, 0.4, 3.0);
    let retry = RetryPolicy {
        jitter_frac: 0.0,
        ..RetryPolicy::retries(3).with_hedging(0.2)
    };
    let sim = sim(3, 8);
    for mut router in routers() {
        let expected = sim
            .run_overloaded(
                router.as_mut(),
                &dense,
                &plan,
                &retry,
                &OverloadPolicy::default(),
            )
            .expect("dense ids");
        let mut got = sim
            .run_overloaded(
                router.as_mut(),
                &sparse,
                &plan,
                &retry,
                &OverloadPolicy::default(),
            )
            .expect("sparse ids");
        for c in got.replicas.iter_mut().flat_map(|r| &mut r.completions) {
            c.id = (0..dense.len())
                .find(|&i| sparse_id(i) == c.id)
                .expect("a completion of an offered request");
        }
        assert_eq!(got, expected, "{}", expected.policy);
        let fs = &expected.faults;
        assert!(fs.retries > 0 && fs.hedges_issued > 0, "{fs:?}");
        assert_eq!(fs.succeeded, dense.len());
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
    /// ledgers reconcile — also when the same draw runs with an inert plan
    /// and retry policy, a case the draws alone rarely reach.
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
        prop_assert!(report == run(&sim.single_stepped()), "stepping modes diverged");
        prop_assert!(report == run(&sim), "rerun diverged");
        let mut router = routers().swap_remove(router);
        let (inert_plan, inert_retry) = (FaultPlan::default(), RetryPolicy::disabled());
        let inert = sim
            .run_overloaded(router.as_mut(), &requests, &inert_plan, &inert_retry, &overload)
            .expect("valid options");
        for report in [&report, &inert] {
            let (faults, shed) = (&report.faults, &report.shed);
            prop_assert_eq!(faults.offered, requests.len());
            prop_assert_eq!(faults.succeeded + faults.failed + shed.shed, faults.offered);
            prop_assert_eq!(
                shed.shed_queue_full + shed.shed_kv_pressure + shed.shed_tenant_quota,
                shed.shed
            );
            // The lifecycle's identities: every restart, and every down
            // window, follows a counted crash or drain; a rejoin closes a
            // window; the fleet stays within the autoscaler's bounds.
            let scaling = &report.scaling;
            prop_assert!(faults.restarts <= faults.unavailability_windows, "{faults:?}");
            let faulted = faults.crashes + faults.drains;
            prop_assert!(faults.unavailability_windows <= faulted, "{faults:?}");
            prop_assert_eq!(report.replicas.len(), 3 + scaling.scale_ups as usize);
            prop_assert!(scaling.low_replicas <= 3 && 3 <= scaling.peak_replicas);
            if let Some(scale) = overload.scale {
                prop_assert!(scaling.peak_replicas <= scale.max_replicas, "{scaling:?}");
            }
        }
    }
}

/// A run's every float, valid (`bad = None`) or with `slot` set to `bad`:
/// the fault-plan builders' times and factors (0–7), the retry policy's
/// fields and builders (8–13), the scale policy's (14–19), the admission
/// KV gate (20), one request's `at` (21) and both arrival rates (22, 23).
/// Returns the run and the error variant a bad value must yield.
fn run_with_float(
    slot: usize,
    bad: Option<f64>,
) -> (Result<ClusterReport, ClusterError>, &'static str) {
    let v = |s: usize, ok: f64| if s == slot { bad.unwrap_or(ok) } else { ok };
    let plan = FaultPlan::seeded(3)
        .crash(2, v(0, 0.3))
        .crash_restart(0, v(1, 0.05), v(2, 0.2))
        .slowdown(1, v(3, 0.01), v(4, 0.1), v(5, 2.0))
        .drain(1, v(6, 0.02), v(7, 0.15));
    let mut retry = RetryPolicy::retries(3)
        .with_deadline(v(12, 60.0))
        .with_hedging(v(13, 0.5));
    retry.backoff_base_s = v(8, 0.05);
    retry.backoff_multiplier = v(9, 2.0);
    retry.backoff_cap_s = v(10, 2.0);
    retry.jitter_frac = v(11, 0.5);
    let scale = ScalePolicy::elastic(1, 5)
        .reacting(v(14, 0.05), v(15, 0.1))
        .with_cadence(v(16, 0.02), v(17, 0.05))
        .with_warmup(v(18, 0.03))
        .with_warmup_jitter(v(19, 0.5), 9);
    let admission = AdmissionPolicy::bounded(64).with_kv_gate(v(20, 0.95));
    let overload = OverloadPolicy::admission(admission).with_scale(scale);
    let mut requests = workload(3, 4);
    if slot == 23 {
        let rate_rps = v(23, 80.0);
        ArrivalProcess::Poisson { rate_rps, seed: 4 }.assign(&mut requests);
    } else {
        ArrivalProcess::Uniform {
            rate_rps: v(22, 80.0),
        }
        .assign(&mut requests);
    }
    requests[5] = requests[5].clone().at(v(21, 0.01));
    let variant = match slot {
        0..=13 => "InvalidFaultPlan",
        14..=20 => "InvalidOverloadPolicy",
        _ => "InvalidArrival",
    };
    let run = sim(3, 4).run_overloaded(&mut RoundRobin, &requests, &plan, &retry, &overload);
    (run, variant)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The kernel's one gate: NaN, ±∞ or a negative value in any float
    /// `run_overloaded` reads is a typed `ClusterError` of the right kind —
    /// never a panic, never a clamp — and the same run with every value
    /// valid succeeds with a reconciled ledger.
    #[test]
    fn every_invalid_float_is_a_typed_error(
        slot in 0usize..24,
        which in 0usize..4,
        millis in 1u32..1_000_000_000,
    ) {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::from(millis) / 1e3][which];
        let (run, variant) = run_with_float(slot, Some(bad));
        let err = run.expect_err("an invalid float must be rejected");
        prop_assert!(format!("{err:?}").starts_with(variant), "slot {slot} = {bad}: {err:?}");
        if slot == 21 {
            prop_assert_eq!(err, ClusterError::InvalidArrival { index: 5 });
        }
        let (valid, _) = run_with_float(slot, None);
        let report = valid.expect("every value valid");
        let (faults, shed) = (&report.faults, &report.shed);
        prop_assert_eq!(faults.succeeded + faults.failed + shed.shed, faults.offered);
    }
}
