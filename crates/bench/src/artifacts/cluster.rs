//! Cluster sweeps beyond the paper: replica count × routing policy, faults
//! × retries, and the overload-protection ladder.

use crate::harness::{self, Grid};
use crate::report::{BenchFile, Table, Value};
use llmqo_cluster::{
    AdmissionPolicy, ArrivalProcess, ClusterError, ClusterReport, ClusterRequest, ClusterSim,
    FaultPlan, LeastLoaded, OverloadPolicy, PrefixAffinity, RetryPolicy, RoundRobin, Router,
    ScalePolicy,
};
use llmqo_datasets::DatasetId;

/// **Cluster sweep** (beyond the paper): replica count × routing policy over
/// a GGR-reordered filter workload, measuring how much of the solver-created
/// prefix locality each dispatch policy preserves at scale.
///
/// The paper optimizes for a single serving instance; this sweep shows that
/// prefix-blind dispatch (round-robin, least-loaded) re-pays each shared
/// prefix once *per replica*, while consistent prefix-affinity routing keeps
/// the cluster-wide hit rate near the single-node rate as replicas grow.
pub(super) fn fig_cluster(grid: &mut Grid) {
    let id = DatasetId::Movies;
    let tagged = harness::ggr_filter_requests(grid.dataset(id));

    let single_phr = harness::cluster(1, tagged.len().max(1))
        .run(&mut RoundRobin, &tagged)
        .expect("single-replica run")
        .prefix_hit_rate();

    let mut table = Table::new(format!(
        "Cluster sweep: {} filter, {} requests, GGR schedule (single-node PHR {})",
        id.name(),
        tagged.len(),
        Value::pct(single_phr)
    ));
    let mut affinity_beats_rr_at_4plus = true;
    for &replicas in &[1usize, 2, 4, 8] {
        let sim = harness::cluster(replicas, 64);
        let mut phr = std::collections::HashMap::new();
        for router in [
            &mut RoundRobin as &mut dyn Router,
            &mut LeastLoaded,
            &mut PrefixAffinity::default(),
            &mut PrefixAffinity::bounded(1.25),
        ] {
            let name = router.name();
            let r = sim.run(router, &tagged).expect("cluster run");
            assert_eq!(r.completed, tagged.len(), "lost requests under {name}");
            phr.insert(name, r.prefix_hit_rate());
            table.row([
                ("Replicas", replicas.into()),
                ("Policy", name.into()),
                ("Makespan", Value::Secs(r.makespan_s)),
                ("PHR", Value::pct(r.prefix_hit_rate())),
                (
                    "PHR retained",
                    Value::pct(r.prefix_hit_rate() / single_phr.max(1e-12)),
                ),
                ("Skew", Value::Fixed(r.load_skew(), 2)),
                ("Wait p99", Value::Secs(r.queue_wait_p99_s)),
                ("Req/s", Value::Fixed(r.throughput_rps(), 0)),
            ]);
        }
        if replicas >= 4 && phr["prefix-affinity"] <= phr["round-robin"] {
            affinity_beats_rr_at_4plus = false;
        }
    }
    table.print();
    println!(
        "\nprefix-affinity beats round-robin on cluster PHR at >= 4 replicas: {}",
        if affinity_beats_rr_at_4plus {
            "yes"
        } else {
            "NO — investigate"
        }
    );
}

const CHAOS_REPLICAS: usize = 8;
const CHAOS_QUEUE_CAP: usize = 16;

struct ChaosCell {
    fault: &'static str,
    retry: &'static str,
    report: ClusterReport,
}

/// **Chaos sweep**: goodput and tail queue-wait of an 8-replica cluster
/// under injected faults, across the retry-policy ladder and a
/// prefix-affine vs prefix-blind router. Writes `BENCH_chaos.json` (at full
/// scale only).
///
/// The grid is {no-fault, 1-crash, 10%-transient-errors, 1-straggler} ×
/// {retry off, retry+backoff, retry+hedging} × {prefix-affinity,
/// round-robin} on a synthetic grouped shared-prefix workload. Every cell,
/// the inert ones included, asserts the zero-loss ledger
/// `succeeded + failed == offered` and equals its single-stepped run, the
/// no-fault/no-retry cell is verified
/// byte-identical to the fault-free dispatcher, and the run fails if
/// prefix-affinity ever loses its prefix-hit-rate advantage over
/// round-robin while faults are active — the failover path must preserve
/// locality, not just liveness.
pub(super) fn perf_chaos(_: &mut Grid) {
    let scale = harness::scale();
    let groups = ((24.0 * scale).round() as usize).max(8);
    let mut requests = harness::grouped_requests(groups, 8, 4);
    ArrivalProcess::Poisson {
        rate_rps: 400.0,
        seed: 17,
    }
    .assign(&mut requests);
    let sim = harness::cluster(CHAOS_REPLICAS, CHAOS_QUEUE_CAP);

    // Probe run: the fault-free makespan anchors every fault instant so
    // the scenarios stay meaningful at any LLMQO_SCALE.
    let probe = sim
        .run(&mut PrefixAffinity::default(), &requests)
        .expect("probe run");
    let mk = probe.makespan_s;
    println!(
        "probe: {} requests over {groups} groups, 8 replicas, fault-free makespan {mk:.2}s",
        requests.len()
    );

    let faults: Vec<(&'static str, FaultPlan)> = vec![
        ("no-fault", FaultPlan::seeded(23)),
        (
            "1-crash",
            FaultPlan::seeded(23).crash_restart(0, 0.2 * mk, 0.6 * mk),
        ),
        (
            "10%-transient",
            FaultPlan::seeded(23).transient_errors_ppm(100_000),
        ),
        (
            "1-straggler",
            FaultPlan::seeded(23).slowdown(0, 0.1 * mk, 0.8 * mk, 4.0),
        ),
    ];
    let policies: Vec<(&'static str, RetryPolicy)> = vec![
        ("off", RetryPolicy::disabled()),
        ("backoff", RetryPolicy::retries(3)),
        (
            "backoff+hedge",
            // Hedge at roughly the fault-free tail: duplicates target only
            // requests genuinely stuck behind a fault, not the median.
            RetryPolicy::retries(3).with_hedging((0.9 * mk).max(0.05)),
        ),
    ];

    let inert = OverloadPolicy::default();
    let mut cells: Vec<ChaosCell> = Vec::new();
    for (fault_name, plan) in &faults {
        for (retry_name, policy) in &policies {
            for router_is_affine in [true, false] {
                let mut router: Box<dyn Router> = if router_is_affine {
                    Box::new(PrefixAffinity::default())
                } else {
                    Box::new(RoundRobin)
                };
                let report = sim
                    .run_overloaded(router.as_mut(), &requests, plan, policy, &inert)
                    .expect("chaos run");
                let fine = sim
                    .single_stepped()
                    .run_overloaded(router.as_mut(), &requests, plan, policy, &inert)
                    .expect("single-stepped chaos run");
                assert_eq!(
                    report, fine,
                    "{fault_name}/{retry_name}/{}: stepping modes diverged",
                    report.policy
                );
                assert_eq!(
                    report.faults.succeeded + report.faults.failed,
                    requests.len(),
                    "{fault_name}/{retry_name}/{}: requests lost",
                    report.policy
                );
                if plan.is_empty() && policy.is_disabled() {
                    // The inert cell must be byte-identical to the
                    // fault-free dispatcher — the differential spine,
                    // re-proven on the bench workload itself.
                    let seed_run = sim.run(router.as_mut(), &requests).expect("seed run");
                    assert_eq!(
                        seed_run, report,
                        "inert chaos cell diverged from the fault-free path"
                    );
                }
                cells.push(ChaosCell {
                    fault: fault_name,
                    retry: retry_name,
                    report,
                });
            }
        }
    }

    // Failover must preserve locality: whenever faults are active and
    // recovery is on, prefix-affinity's cluster-wide prefix hit rate must
    // stay strictly above round-robin's.
    for (fault_name, _) in &faults {
        for (retry_name, _) in &policies {
            let phr = |policy: &str| {
                cells
                    .iter()
                    .find(|c| {
                        c.fault == *fault_name
                            && c.retry == *retry_name
                            && c.report.policy == policy
                    })
                    .map(|c| c.report.prefix_hit_rate())
                    .expect("cell exists")
            };
            let affine = phr("prefix-affinity");
            let blind = phr("round-robin");
            assert!(
                affine > blind,
                "{fault_name}/{retry_name}: prefix-affinity PHR {:.1}% did not beat \
                 round-robin {:.1}% — failover lost the locality advantage",
                affine * 100.0,
                blind * 100.0
            );
        }
    }

    let mut table = Table::new(format!(
        "Chaos sweep: fault × retry policy × router, {CHAOS_REPLICAS} replicas"
    ));
    for c in &cells {
        let fs = &c.report.faults;
        table.row([
            ("fault", c.fault.into()),
            ("retry", c.retry.into()),
            ("router", c.report.policy.as_str().into()),
            ("goodput_rps", Value::Fixed(c.report.goodput_rps(), 1)),
            (
                "queue_wait_p99_s",
                Value::Fixed(c.report.queue_wait_p99_s, 3),
            ),
            ("prefix_hit_rate", Value::pct(c.report.prefix_hit_rate())),
            ("makespan_s", Value::Fixed(c.report.makespan_s, 3)),
            ("offered", requests.len().into()),
            ("succeeded", fs.succeeded.into()),
            ("failed", fs.failed.into()),
            ("retries", fs.retries.into()),
            ("transient_errors", fs.transient_errors.into()),
            ("hedges_issued", fs.hedges_issued.into()),
            ("hedges_won", fs.hedges_won.into()),
            ("failovers", fs.failovers.into()),
            ("deadline_misses", fs.deadline_misses.into()),
            ("unavailable_s", Value::Fixed(fs.unavailable_s, 3)),
        ]);
    }
    table.print();

    let mut file = BenchFile::new(
        "chaos",
        "goodput (useful requests per second of makespan) and p99 admission queue wait \
         under injected faults",
        scale,
        None,
    );
    file.params([
        ("replicas", CHAOS_REPLICAS.into()),
        ("queue_cap", CHAOS_QUEUE_CAP.into()),
        ("requests", requests.len().into()),
        ("prefix_groups", groups.into()),
        ("fault_free_makespan_s", mk.into()),
    ]);
    file.cells(&table);
    file.write();
}

const OVERLOAD_REPLICAS: usize = 4;
const OVERLOAD_QUEUE_CAP: usize = 2;
/// Every 4th request is the premium tenant's priority-1 traffic (25%).
const PRIO_EVERY: usize = 4;

/// Grouped shared-prefix workload with a mixed-priority tenant split:
/// tenant 0 floods at priority 0, tenant 1 sends every
/// [`PRIO_EVERY`]-th request at priority 1.
fn workload(groups: usize, per_group: usize) -> Vec<ClusterRequest> {
    let mut requests = harness::grouped_requests(groups, per_group, 4);
    for r in requests.iter_mut().step_by(PRIO_EVERY) {
        r.tenant = 1;
        r.priority = 1;
    }
    requests
}

struct OverloadCell {
    name: &'static str,
    report: ClusterReport,
}

/// **Overload sweep**: tail queue-wait and the shed/scale ledgers of a
/// 4-replica cluster fed at 2× its measured service rate, across the
/// protection ladder {unprotected, admission+shed, +tenant quota,
/// +autoscaler, +chaos}. Writes `BENCH_overload.json` (at full scale only).
///
/// A mixed-priority workload (every 4th request is a priority-1 request of
/// the premium tenant) arrives as a Poisson process at twice the fleet's
/// fault-free throughput. The unprotected dispatcher accepts everything and
/// collapses into unbounded queue waits; each protected cell must (a)
/// reconcile its ledgers exactly (`succeeded + failed + shed == offered`),
/// (b) shed **zero** priority-1 requests, and (c) keep p99 admission queue
/// wait under half the unprotected collapse. The inert-policy cell is
/// verified byte-identical to the ungated dispatcher, and every cell to its
/// single-stepped run — the differential spine, re-proven on the bench
/// workload itself. All assertions are in-binary: a regression fails the
/// bench, not just a plot.
pub(super) fn perf_overload(_: &mut Grid) {
    let scale = harness::scale();
    let groups = ((20.0 * scale).round() as usize).max(14);
    let sim = harness::cluster(OVERLOAD_REPLICAS, OVERLOAD_QUEUE_CAP);

    // Probe run: measure the fleet's fault-free service rate on the bench
    // workload itself, then offer load at exactly twice it. "2× overload"
    // stays 2× at any LLMQO_SCALE.
    let probe = sim
        .run(&mut PrefixAffinity::default(), &workload(groups, 8))
        .expect("probe run");
    let svc = probe.throughput_rps();
    let mk = probe.makespan_s;
    let mut requests = workload(groups, 8);
    ArrivalProcess::Poisson {
        rate_rps: 2.0 * svc,
        seed: 29,
    }
    .assign(&mut requests);
    let offered = requests.len();
    let premium = requests.iter().filter(|r| r.priority == 1).count();
    println!(
        "probe: service rate {svc:.1} rps, makespan {mk:.2}s; offering {offered} requests \
         ({premium} premium) at {:.1} rps",
        2.0 * svc
    );

    let mut cells: Vec<OverloadCell> = Vec::new();

    // OverloadCell 1 — unprotected: accept everything, queue without bound.
    let unprotected = sim
        .run(&mut PrefixAffinity::default(), &requests)
        .expect("unprotected run");
    assert_eq!(unprotected.completed, offered, "ungated runs drop nothing");
    let fine = sim
        .single_stepped()
        .run(&mut PrefixAffinity::default(), &requests)
        .expect("single-stepped unprotected run");
    assert_eq!(unprotected, fine, "unprotected: stepping modes diverged");

    let admitted = |sim: &ClusterSim, requests: &[ClusterRequest], policy: &AdmissionPolicy| {
        let (plan, retry) = (FaultPlan::default(), RetryPolicy::disabled());
        let overload = OverloadPolicy::admission(*policy);
        let router = &mut PrefixAffinity::default();
        sim.run_overloaded(router, requests, &plan, &retry, &overload)
    };
    // Differential spine: the inert AdmissionPolicy must take the exact
    // ungated code path, byte for byte, on this very workload.
    let inert = admitted(&sim, &requests, &AdmissionPolicy::default()).expect("inert admitted run");
    assert_eq!(
        unprotected, inert,
        "inert admission diverged from the ungated dispatcher"
    );
    cells.push(OverloadCell {
        name: "unprotected",
        report: unprotected,
    });

    // OverloadCell 2 — KV-aware admission + priority shedding: bounded pending
    // depth plus an occupancy gate calibrated off the probe's gauges.
    let probe_mean_kv = probe
        .replicas
        .iter()
        .map(|r| r.occupancy.mean_utilization())
        .sum::<f64>()
        / probe.replicas.len() as f64;
    let admission = AdmissionPolicy::bounded(2 * OVERLOAD_REPLICAS)
        .with_kv_gate((4.0 * probe_mean_kv).clamp(0.05, 1.0));

    // OverloadCell 3 — per-tenant quota alone (queue depth unbounded so only the
    // quota can shed), against a t=0 burst: the flood tenant's
    // instantaneous pending is 3× the premium tenant's, so a quota of
    // premium+4 structurally caps the flood at any LLMQO_SCALE while the
    // premium tenant — whose pending can never exceed its total — is
    // untouchable. Quotas are a tenant-isolation mechanism, not a latency
    // bound, so this cell is exempt from the p99 comparison below.
    let burst = workload(groups, 8);
    let quota = AdmissionPolicy::default().with_tenant_quota(premium + OVERLOAD_REPLICAS);

    // OverloadCell 4 — elastic autoscaling on top of admission control: sustained
    // queue pressure warms cold replicas mid-job (thresholds anchored to
    // the probe makespan so the loop reacts at any LLMQO_SCALE).
    let elastic = OverloadPolicy::admission(admission).with_scale(
        ScalePolicy::elastic(OVERLOAD_REPLICAS, 2 * OVERLOAD_REPLICAS)
            .reacting(0.05 * mk, 0.02)
            .with_cadence(0.02 * mk, 0.1 * mk)
            .with_warmup(0.05 * mk)
            .with_warmup_jitter(0.2, 7),
    );

    // OverloadCell 5 — the full stack under chaos: a crash and a straggler with
    // retries, behind the same admission gate and autoscaler.
    let plan = FaultPlan::seeded(23)
        .crash_restart(0, 0.2 * mk, 0.6 * mk)
        .slowdown(1, 0.1 * mk, 0.8 * mk, 3.0);
    let retry = RetryPolicy::retries(3);

    let overloaded = |sim: &ClusterSim, plan: &FaultPlan, retry: &RetryPolicy| {
        let router = &mut PrefixAffinity::default();
        sim.run_overloaded(router, &requests, plan, retry, &elastic)
    };
    type Rung<'a> = &'a dyn Fn(&ClusterSim) -> Result<ClusterReport, ClusterError>;
    let ladder: [(&'static str, Rung); 4] = [
        ("admission+shed", &|sim| {
            admitted(sim, &requests, &admission)
        }),
        ("admission+quota", &|sim| admitted(sim, &burst, &quota)),
        ("admission+scale", &|sim| {
            overloaded(sim, &FaultPlan::default(), &RetryPolicy::disabled())
        }),
        ("admission+scale+chaos", &|sim| {
            overloaded(sim, &plan, &retry)
        }),
    ];

    // The contract every protected cell must honor.
    let unprotected_p99 = cells[0].report.queue_wait_p99_s;
    for (name, run) in ladder {
        let report = run(&sim).expect(name);
        let (fs, shed) = (&report.faults, &report.shed);
        assert_eq!(fs.offered, offered, "{name}: offered mismatch");
        assert_eq!(
            fs.succeeded + fs.failed + shed.shed,
            offered,
            "{name}: shed ledger must reconcile exactly"
        );
        assert!(shed.shed > 0, "{name}: 2x overload must shed");
        assert_eq!(
            shed.shed_queue_full + shed.shed_kv_pressure + shed.shed_tenant_quota,
            shed.shed,
            "{name}: per-reason counters must partition the shed total"
        );
        assert_eq!(
            shed.max_shed_priority, 0,
            "{name}: a priority-1 request was shed — zero high-priority loss violated"
        );
        if name != "admission+quota" {
            assert!(
                report.queue_wait_p99_s < unprotected_p99 / 2.0,
                "{name}: p99 queue wait {:.3}s not bounded vs unprotected {unprotected_p99:.3}s",
                report.queue_wait_p99_s
            );
        }
        // Determinism: byte-identical on re-run, and in either stepping mode.
        let again = run(&sim).expect("deterministic rerun");
        assert_eq!(report, again, "{name}: nondeterministic report");
        let fine = run(&sim.single_stepped()).expect("single-stepped run");
        assert_eq!(report, fine, "{name}: stepping modes diverged");
        cells.push(OverloadCell { name, report });
    }
    let [_, _, quota_run, scaled_run, chaos_run] = cells.as_slice() else {
        unreachable!("five rungs");
    };
    assert!(
        quota_run.report.shed.shed_tenant_quota > 0,
        "a 3:1 burst must exceed a {}-deep tenant quota",
        premium + OVERLOAD_REPLICAS
    );
    assert!(
        scaled_run.report.scaling.scale_ups >= 1,
        "2x overload must warm at least one replica: {:?}",
        scaled_run.report.scaling
    );
    assert!(
        chaos_run.report.faults.crashes > 0,
        "the chaos rung must crash a replica"
    );

    let mut table = Table::new(format!(
        "Overload ladder: {OVERLOAD_REPLICAS} replicas at 2x the measured service rate"
    ));
    for c in &cells {
        let s = &c.report.shed;
        let sc = &c.report.scaling;
        let fs = &c.report.faults;
        table.row([
            ("cell", c.name.into()),
            ("completed", c.report.completed.into()),
            (
                "queue_wait_p99_s",
                Value::Fixed(c.report.queue_wait_p99_s, 3),
            ),
            ("makespan_s", Value::Fixed(c.report.makespan_s, 3)),
            ("throughput_rps", Value::Fixed(c.report.throughput_rps(), 1)),
            ("shed", s.shed.into()),
            ("shed_queue_full", s.shed_queue_full.into()),
            ("shed_kv_pressure", s.shed_kv_pressure.into()),
            ("shed_tenant_quota", s.shed_tenant_quota.into()),
            ("max_shed_priority", s.max_shed_priority.into()),
            ("scale_ups", sc.scale_ups.into()),
            ("scale_downs", sc.scale_downs.into()),
            ("peak_replicas", sc.peak_replicas.into()),
            ("fault_succeeded", fs.succeeded.into()),
            ("fault_failed", fs.failed.into()),
            ("fault_retries", fs.retries.into()),
        ]);
    }
    table.print();

    let mut file = BenchFile::new(
        "overload",
        "p99 admission queue wait and shed/scale ledgers at 2x the measured service rate; \
         every protected cell asserts zero priority-1 loss",
        scale,
        None,
    );
    file.params([
        ("replicas", OVERLOAD_REPLICAS.into()),
        ("queue_cap", OVERLOAD_QUEUE_CAP.into()),
        ("offered", offered.into()),
        ("premium_offered", premium.into()),
        ("service_rate_rps", svc.into()),
        ("overload_rate_rps", (2.0 * svc).into()),
    ]);
    file.cells(&table);
    file.write();
}
