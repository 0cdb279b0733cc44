//! **Cluster sweep** (beyond the paper): replica count × routing policy over
//! a GGR-reordered filter workload, measuring how much of the solver-created
//! prefix locality each dispatch policy preserves at scale.
//!
//! The paper optimizes for a single serving instance; this sweep shows that
//! prefix-blind dispatch (round-robin, least-loaded) re-pays each shared
//! prefix once *per replica*, while consistent prefix-affinity routing keeps
//! the cluster-wide hit rate near the single-node rate as replicas grow.
//!
//! ```sh
//! LLMQO_SCALE=0.2 cargo run --release -p llmqo-bench --bin fig_cluster
//! ```

use llmqo_bench::{harness, report};
use llmqo_cluster::{LeastLoaded, PrefixAffinity, RoundRobin, Router};
use llmqo_datasets::DatasetId;

fn main() {
    let id = DatasetId::Movies;
    let tagged = harness::ggr_filter_requests(&harness::load(id));

    let single_phr = harness::cluster(1, tagged.len().max(1))
        .run(&mut RoundRobin, &tagged)
        .expect("single-replica run")
        .prefix_hit_rate();

    let mut rows = Vec::new();
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
            rows.push(vec![
                replicas.to_string(),
                name.to_owned(),
                report::secs(r.makespan_s),
                report::pct(r.prefix_hit_rate()),
                report::pct(r.prefix_hit_rate() / single_phr.max(1e-12)),
                format!("{:.2}", r.load_skew()),
                report::secs(r.queue_wait_p99_s),
                format!("{:.0}", r.throughput_rps()),
            ]);
        }
        if replicas >= 4 && phr["prefix-affinity"] <= phr["round-robin"] {
            affinity_beats_rr_at_4plus = false;
        }
    }
    report::section(
        &format!(
            "Cluster sweep: {} filter, {} requests, GGR schedule (single-node PHR {})",
            id.name(),
            tagged.len(),
            report::pct(single_phr)
        ),
        &[
            "Replicas",
            "Policy",
            "Makespan",
            "PHR",
            "PHR retained",
            "Skew",
            "Wait p99",
            "Req/s",
        ],
        &rows,
    );
    println!(
        "\nprefix-affinity beats round-robin on cluster PHR at >= 4 replicas: {}",
        if affinity_beats_rr_at_4plus {
            "yes"
        } else {
            "NO — investigate"
        }
    );
}
