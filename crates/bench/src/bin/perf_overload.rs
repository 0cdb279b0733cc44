//! **Overload sweep**: tail queue-wait and the shed/scale ledgers of a
//! 4-replica cluster fed at 2× its measured service rate, across the
//! protection ladder {unprotected, admission+shed, +tenant quota,
//! +autoscaler, +chaos}. Writes `BENCH_overload.json` (at full scale only).
//!
//! A mixed-priority workload (every 4th request is a priority-1 request of
//! the premium tenant) arrives as a Poisson process at twice the fleet's
//! fault-free throughput. The unprotected dispatcher accepts everything and
//! collapses into unbounded queue waits; each protected cell must (a)
//! reconcile its shed ledger exactly (`completed + shed == offered`
//! fault-free, `succeeded + failed + shed == offered` under chaos), (b)
//! shed **zero** priority-1 requests, and (c) keep p99 admission queue wait
//! under half the unprotected collapse. The inert-policy cell is verified
//! byte-identical to the ungated dispatcher, and every cell to its
//! single-stepped run — the differential spine, re-proven on the bench
//! workload itself. All assertions are in-binary:
//! a regression fails the bench, not just a plot.
//!
//! ```sh
//! LLMQO_SCALE=0.2 cargo run --release -p llmqo-bench --bin perf_overload
//! ```

use llmqo_bench::{harness, report::BenchFile};
use llmqo_cluster::{
    AdmissionPolicy, ArrivalProcess, ClusterError, ClusterReport, ClusterRequest, ClusterSim,
    FaultPlan, OverloadPolicy, PrefixAffinity, RetryPolicy, ScalePolicy,
};

const REPLICAS: usize = 4;
const QUEUE_CAP: usize = 2;
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

struct Cell {
    name: &'static str,
    report: ClusterReport,
}

fn main() {
    let scale = harness::scale();
    let groups = ((20.0 * scale).round() as usize).max(14);
    let sim = harness::cluster(REPLICAS, QUEUE_CAP);

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

    let mut cells: Vec<Cell> = Vec::new();

    // Cell 1 — unprotected: accept everything, queue without bound.
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
    cells.push(Cell {
        name: "unprotected",
        report: unprotected,
    });

    // Cell 2 — KV-aware admission + priority shedding: bounded pending
    // depth plus an occupancy gate calibrated off the probe's gauges.
    let probe_mean_kv = probe
        .replicas
        .iter()
        .map(|r| r.occupancy.mean_utilization())
        .sum::<f64>()
        / probe.replicas.len() as f64;
    let admission =
        AdmissionPolicy::bounded(2 * REPLICAS).with_kv_gate((4.0 * probe_mean_kv).clamp(0.05, 1.0));

    // Cell 3 — per-tenant quota alone (queue depth unbounded so only the
    // quota can shed), against a t=0 burst: the flood tenant's
    // instantaneous pending is 3× the premium tenant's, so a quota of
    // premium+4 structurally caps the flood at any LLMQO_SCALE while the
    // premium tenant — whose pending can never exceed its total — is
    // untouchable. Quotas are a tenant-isolation mechanism, not a latency
    // bound, so this cell is exempt from the p99 comparison below.
    let burst = workload(groups, 8);
    let quota = AdmissionPolicy::default().with_tenant_quota(premium + REPLICAS);

    // Cell 4 — elastic autoscaling on top of admission control: sustained
    // queue pressure warms cold replicas mid-job (thresholds anchored to
    // the probe makespan so the loop reacts at any LLMQO_SCALE).
    let elastic = OverloadPolicy::admission(admission).with_scale(
        ScalePolicy::elastic(REPLICAS, 2 * REPLICAS)
            .reacting(0.05 * mk, 0.02)
            .with_cadence(0.02 * mk, 0.1 * mk)
            .with_warmup(0.05 * mk)
            .with_warmup_jitter(0.2, 7),
    );

    // Cell 5 — the full stack under chaos: a crash and a straggler with
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
        let shed = &report.shed;
        assert_eq!(shed.offered, offered, "{name}: offered mismatch");
        if !report.faults.engaged() {
            assert_eq!(
                report.completed + shed.shed,
                offered,
                "{name}: shed ledger must reconcile exactly"
            );
        }
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
        cells.push(Cell { name, report });
    }
    let [_, _, quota_run, scaled_run, chaos_run] = cells.as_slice() else {
        unreachable!("five rungs");
    };
    assert!(
        quota_run.report.shed.shed_tenant_quota > 0,
        "a 3:1 burst must exceed a {}-deep tenant quota",
        premium + REPLICAS
    );
    assert!(
        scaled_run.report.scaling.scale_ups >= 1,
        "2x overload must warm at least one replica: {:?}",
        scaled_run.report.scaling
    );
    let fs = &chaos_run.report.faults;
    assert!(fs.engaged());
    assert_eq!(
        fs.succeeded + fs.failed + chaos_run.report.shed.shed,
        fs.offered,
        "three-way chaos ledger must reconcile"
    );

    println!(
        "\n{:<22} {:>9} {:>10} {:>6} {:>6} {:>5} {:>7} {:>8} {:>6} {:>6}",
        "cell", "completed", "p99 wait", "shed", "queue", "kv", "quota", "max-prio", "ups", "downs"
    );
    for c in &cells {
        let s = &c.report.shed;
        println!(
            "{:<22} {:>9} {:>9.3}s {:>6} {:>6} {:>5} {:>7} {:>8} {:>6} {:>6}",
            c.name,
            c.report.completed,
            c.report.queue_wait_p99_s,
            s.shed,
            s.shed_queue_full,
            s.shed_kv_pressure,
            s.shed_tenant_quota,
            s.max_shed_priority,
            c.report.scaling.scale_ups,
            c.report.scaling.scale_downs
        );
    }

    let mut file = BenchFile::new(
        "overload",
        "p99 admission queue wait and shed/scale ledgers at 2x the measured service rate; \
         every protected cell asserts zero priority-1 loss",
        scale,
        None,
    );
    file.params([
        ("replicas", REPLICAS.into()),
        ("queue_cap", QUEUE_CAP.into()),
        ("offered", offered.into()),
        ("premium_offered", premium.into()),
        ("service_rate_rps", svc.into()),
        ("overload_rate_rps", (2.0 * svc).into()),
    ]);
    for c in &cells {
        let s = &c.report.shed;
        let sc = &c.report.scaling;
        let fs = &c.report.faults;
        file.cell([
            ("cell", c.name.into()),
            ("completed", c.report.completed.into()),
            ("queue_wait_p99_s", c.report.queue_wait_p99_s.into()),
            ("makespan_s", c.report.makespan_s.into()),
            ("throughput_rps", c.report.throughput_rps().into()),
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
    file.write();
}
