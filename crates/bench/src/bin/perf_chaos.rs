//! **Chaos sweep**: goodput and tail queue-wait of an 8-replica cluster
//! under injected faults, across the retry-policy ladder and a
//! prefix-affine vs prefix-blind router. Writes `BENCH_chaos.json` (at full
//! scale only).
//!
//! The grid is {no-fault, 1-crash, 10%-transient-errors, 1-straggler} ×
//! {retry off, retry+backoff, retry+hedging} × {prefix-affinity,
//! round-robin} on a synthetic grouped shared-prefix workload. Every cell
//! asserts the zero-loss ledger `succeeded + failed == offered` and equals
//! its single-stepped run, the no-fault/no-retry cell is verified
//! byte-identical to the fault-free dispatcher, and the run fails if
//! prefix-affinity ever loses its prefix-hit-rate advantage over
//! round-robin while faults are active — the failover path must preserve
//! locality, not just liveness.
//!
//! ```sh
//! LLMQO_SCALE=0.2 cargo run --release -p llmqo-bench --bin perf_chaos
//! ```

use llmqo_bench::{harness, report::BenchFile};
use llmqo_cluster::{
    ArrivalProcess, ClusterReport, FaultPlan, OverloadPolicy, PrefixAffinity, RetryPolicy,
    RoundRobin, Router,
};

const REPLICAS: usize = 8;
const QUEUE_CAP: usize = 16;

struct Cell {
    fault: &'static str,
    retry: &'static str,
    report: ClusterReport,
}

fn main() {
    let scale = harness::scale();
    let groups = ((24.0 * scale).round() as usize).max(8);
    let mut requests = harness::grouped_requests(groups, 8, 4);
    ArrivalProcess::Poisson {
        rate_rps: 400.0,
        seed: 17,
    }
    .assign(&mut requests);
    let sim = harness::cluster(REPLICAS, QUEUE_CAP);

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
    let mut cells: Vec<Cell> = Vec::new();
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
                if report.faults.engaged() {
                    let fs = &report.faults;
                    assert_eq!(
                        fs.succeeded + fs.failed,
                        fs.offered,
                        "{fault_name}/{retry_name}/{}: requests lost",
                        report.policy
                    );
                } else {
                    // The inert cell must be byte-identical to the
                    // fault-free dispatcher — the differential spine,
                    // re-proven on the bench workload itself.
                    let seed_run = sim.run(router.as_mut(), &requests).expect("seed run");
                    assert_eq!(
                        seed_run, report,
                        "inert chaos cell diverged from the fault-free path"
                    );
                }
                cells.push(Cell {
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

    println!(
        "\n{:<14} {:<14} {:<16} {:>8} {:>10} {:>7} {:>6} {:>7} {:>7} {:>9}",
        "fault",
        "retry",
        "router",
        "goodput",
        "p99 wait",
        "PHR",
        "failed",
        "retries",
        "hedges",
        "failovers"
    );
    for c in &cells {
        let fs = &c.report.faults;
        println!(
            "{:<14} {:<14} {:<16} {:>8.1} {:>9.3}s {:>6.1}% {:>6} {:>7} {:>7} {:>9}",
            c.fault,
            c.retry,
            c.report.policy,
            c.report.goodput_rps(),
            c.report.queue_wait_p99_s,
            c.report.prefix_hit_rate() * 100.0,
            fs.failed,
            fs.retries,
            fs.hedges_issued,
            fs.failovers
        );
    }

    let mut file = BenchFile::new(
        "chaos",
        "goodput (useful requests per second of makespan) and p99 admission queue wait \
         under injected faults",
        scale,
        None,
    );
    file.params([
        ("replicas", REPLICAS.into()),
        ("queue_cap", QUEUE_CAP.into()),
        ("requests", requests.len().into()),
        ("prefix_groups", groups.into()),
        ("fault_free_makespan_s", mk.into()),
    ]);
    for c in &cells {
        let fs = &c.report.faults;
        file.cell([
            ("fault", c.fault.into()),
            ("retry", c.retry.into()),
            ("router", c.report.policy.as_str().into()),
            ("goodput_rps", c.report.goodput_rps().into()),
            ("queue_wait_p99_s", c.report.queue_wait_p99_s.into()),
            ("prefix_hit_rate", c.report.prefix_hit_rate().into()),
            ("makespan_s", c.report.makespan_s.into()),
            ("offered", fs.offered.into()),
            ("succeeded", fs.succeeded.into()),
            ("failed", fs.failed.into()),
            ("retries", fs.retries.into()),
            ("transient_errors", fs.transient_errors.into()),
            ("hedges_issued", fs.hedges_issued.into()),
            ("hedges_won", fs.hedges_won.into()),
            ("failovers", fs.failovers.into()),
            ("deadline_misses", fs.deadline_misses.into()),
            ("unavailable_s", fs.unavailable_s.into()),
        ]);
    }
    file.write();
}
