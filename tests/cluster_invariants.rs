//! Cluster-layer invariants over the full pipeline (table → GGR schedule →
//! prefix keys → routed sharded serving): exactly-once completion under
//! every policy, prefix-affinity dominance over round-robin on reordered
//! workloads, and bit-identical reports for fixed seeds.

use llmqo::cluster::{
    tag_requests, ArrivalProcess, ClusterConfig, ClusterReport, ClusterRequest, ClusterSim,
    FaultPlan, LeastLoaded, OverloadPolicy, PrefixAffinity, ReplicaReport, RetryPolicy, RoundRobin,
    Router,
};
use llmqo::core::{FunctionalDeps, Ggr, Reorderer};
use llmqo::relational::{encode_table, plan_requests, LlmQuery, Schema, Table};
use llmqo::serve::{Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, SimEngine};
use llmqo::tokenizer::Tokenizer;

/// A reviews⨝products table with `rows / dup` distinct products, GGR-
/// reordered and tagged with depth-1 prefix keys.
fn ggr_workload(rows: usize, dup: usize) -> Vec<ClusterRequest> {
    let mut table = Table::new(Schema::of_strings(&["review", "product"]));
    for i in 0..rows {
        table
            .push_row(vec![
                format!("review {i}: some unique words about delivery {}", i % 11).into(),
                format!(
                    "Product {} — long shared description with warranty terms, \
                     materials, and compatibility notes for the optimizer",
                    i / dup
                )
                .into(),
            ])
            .unwrap();
    }
    let query = LlmQuery::filter(
        "cluster-invariants",
        "Is the review positive? Answer ONLY 'Yes' or 'No'.",
        vec!["product".into(), "review".into()],
        vec!["Yes".into(), "No".into()],
        "Yes",
        2.0,
    );
    let encoded = encode_table(&Tokenizer::new(), &table, &query).unwrap();
    let solution = Ggr::default()
        .reorder(&encoded.reorder, &FunctionalDeps::empty(2))
        .unwrap();
    let requests = plan_requests(&encoded, &solution.plan, &query);
    let keys = solution.plan.prefix_keys(&encoded.reorder, 1);
    tag_requests(requests, &keys)
}

fn sim(replicas: usize) -> ClusterSim {
    ClusterSim::new(
        SimEngine::new(
            Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
            EngineConfig::default(),
        ),
        ClusterConfig {
            replicas,
            queue_cap: 32,
        },
    )
}

#[test]
fn every_admitted_request_completes_exactly_once_under_every_policy() {
    let requests = ggr_workload(300, 5);
    for router in [
        &mut RoundRobin as &mut dyn Router,
        &mut LeastLoaded,
        &mut PrefixAffinity::default(),
        &mut PrefixAffinity::bounded(1.25),
    ] {
        let name = router.name();
        let report = sim(4).run(router, &requests).unwrap();
        assert_eq!(report.completed, 300, "{name} lost requests");
        // Exactly once: the union of per-replica completion ids is a
        // permutation of the original row indices.
        let mut ids: Vec<usize> = report
            .replicas
            .iter()
            .flat_map(|r| r.completions.iter().map(|c| c.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..300).collect::<Vec<_>>(), "{name} duplicated work");
        // Token conservation survives sharding.
        let prompt: u64 = requests.iter().map(|r| r.request.prompt_len() as u64).sum();
        assert_eq!(report.total_prompt_tokens, prompt, "{name}");
        for r in &report.replicas {
            assert_eq!(
                r.engine.cached_prompt_tokens + r.engine.computed_prompt_tokens,
                r.engine.total_prompt_tokens,
                "{name}"
            );
        }
    }
}

/// A plain run fills the ledgers as any other run does: every request
/// offered and served, nothing failed or shed, and a fleet that never
/// scaled reads its own size.
#[test]
fn plain_runs_fill_every_ledger() {
    let requests = ggr_workload(120, 5);
    for replicas in [1usize, 3] {
        let report = sim(replicas)
            .run(&mut PrefixAffinity::default(), &requests)
            .unwrap();
        let (faults, shed, scaling) = (&report.faults, &report.shed, &report.scaling);
        assert_eq!(faults.offered, requests.len(), "{replicas} replicas");
        assert_eq!(faults.succeeded, report.completed, "{replicas} replicas");
        assert_eq!(faults.succeeded + faults.failed + shed.shed, faults.offered);
        assert_eq!(
            (scaling.peak_replicas, scaling.low_replicas),
            (replicas, replicas)
        );
        assert_eq!(report.goodput_rps(), report.throughput_rps());
    }
}

/// Without an autoscaler the fleet's low mark still drops when a replica
/// stops being routable: one crash — with a restart or without — or one
/// graceful drain reads `replicas - 1`, and the peak stays the fleet.
#[test]
fn a_crash_or_drain_without_autoscaler_lowers_the_low_mark() {
    let requests = ggr_workload(120, 5);
    let replicas = 3;
    for (name, plan) in [
        ("crash", FaultPlan::seeded(0).crash(1, 0.5)),
        (
            "crash + restart",
            FaultPlan::seeded(0).crash_restart(1, 0.5, 2.0),
        ),
        ("drain", FaultPlan::seeded(0).drain(2, 0.5, 2.0)),
    ] {
        let report = sim(replicas)
            .run_overloaded(
                &mut PrefixAffinity::default(),
                &requests,
                &plan,
                &RetryPolicy::retries(3),
                &OverloadPolicy::default(),
            )
            .unwrap();
        assert_eq!(report.faults.crashes + report.faults.drains, 1, "{name}");
        assert_eq!(
            (report.scaling.peak_replicas, report.scaling.low_replicas),
            (replicas, replicas - 1),
            "{name}"
        );
    }
}

#[test]
fn prefix_affinity_dominates_round_robin_on_ggr_schedules() {
    // Many small groups (4 rows each): round-robin across 4 replicas leaves
    // at most one group-mate per replica, so almost no intra-group reuse
    // survives; affinity keeps groups whole.
    let requests = ggr_workload(320, 4);
    for replicas in [4usize, 8] {
        let rr = sim(replicas).run(&mut RoundRobin, &requests).unwrap();
        for affinity in [
            &mut PrefixAffinity::default() as &mut dyn Router,
            &mut PrefixAffinity::bounded(1.25),
        ] {
            let name = affinity.name();
            let pa = sim(replicas).run(affinity, &requests).unwrap();
            assert!(
                pa.prefix_hit_rate() >= rr.prefix_hit_rate(),
                "{name} {} < round-robin {} at {replicas} replicas",
                pa.prefix_hit_rate(),
                rr.prefix_hit_rate()
            );
        }
    }
}

#[test]
fn reports_are_deterministic_for_a_fixed_seed() {
    let mut requests = ggr_workload(240, 6);
    ArrivalProcess::Poisson {
        rate_rps: 800.0,
        seed: 2024,
    }
    .assign(&mut requests);
    let a = sim(4)
        .run(&mut PrefixAffinity::bounded(1.25), &requests)
        .unwrap();
    let b = sim(4)
        .run(&mut PrefixAffinity::bounded(1.25), &requests)
        .unwrap();
    assert_eq!(a, b, "same seed, same report");
    let mut other = ggr_workload(240, 6);
    ArrivalProcess::Poisson {
        rate_rps: 800.0,
        seed: 2025,
    }
    .assign(&mut other);
    let c = sim(4)
        .run(&mut PrefixAffinity::bounded(1.25), &other)
        .unwrap();
    assert_ne!(a, c, "different seed should change queueing history");
}

#[test]
fn sharding_preserves_query_semantics_ids() {
    // The cluster must serve exactly the same request set the single-node
    // executor would: same ids, same per-request prompt/output token counts.
    let requests = ggr_workload(120, 5);
    let report = sim(3)
        .run(&mut PrefixAffinity::bounded(1.5), &requests)
        .unwrap();
    let mut served: Vec<(usize, usize, u32)> = report
        .replicas
        .iter()
        .flat_map(|r| {
            r.completions
                .iter()
                .map(|c| (c.id, c.prompt_tokens, c.output_tokens))
        })
        .collect();
    served.sort_unstable();
    let mut expected: Vec<(usize, usize, u32)> = requests
        .iter()
        .map(|r| (r.request.id, r.request.prompt_len(), r.request.output_len))
        .collect();
    expected.sort_unstable();
    assert_eq!(served, expected);
}

/// The ids each replica served, in completion order.
fn placements(report: &ClusterReport) -> Vec<Vec<usize>> {
    let ids = |r: &ReplicaReport| r.completions.iter().map(|c| c.id).collect();
    report.replicas.iter().map(ids).collect()
}

/// `-0.0` and `0.0` are one instant: a request arriving at `-0.0` is
/// placed after an earlier-indexed one at `0.0` (original order on ties),
/// and the whole report equals the all-`0.0` run.
#[test]
fn an_arrival_at_negative_zero_ties_with_zero_in_index_order() {
    let requests = ggr_workload(2, 1);
    let arriving = |second: f64| [requests[0].clone().at(0.0), requests[1].clone().at(second)];
    let signed = sim(2).run(&mut RoundRobin, &arriving(-0.0)).unwrap();
    let plain = sim(2).run(&mut RoundRobin, &arriving(0.0)).unwrap();
    let ids = [requests[0].request.id, requests[1].request.id];
    assert_eq!(placements(&signed), [[ids[0]], [ids[1]]]);
    assert_eq!(signed, plain);
}

/// A fault at `-0.0` is ordered like one at `0.0`: among events at one
/// instant the plan's order decides, so the crash listed first takes
/// replica 0 down and the drain behind it finds it gone.
#[test]
fn a_fault_at_negative_zero_is_ordered_like_one_at_zero() {
    let requests = ggr_workload(8, 2);
    let run = |drain_at: f64| {
        let plan = FaultPlan::seeded(1)
            .crash_restart(0, 0.0, 0.5)
            .drain(0, drain_at, 0.25);
        let retry = RetryPolicy::retries(2);
        let overload = OverloadPolicy::default();
        sim(2)
            .run_overloaded(&mut RoundRobin, &requests, &plan, &retry, &overload)
            .unwrap()
    };
    let signed = run(-0.0);
    assert_eq!((signed.faults.crashes, signed.faults.drains), (1, 0));
    assert_eq!(signed, run(0.0));
}
