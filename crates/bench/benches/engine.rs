//! Criterion benches for the serving simulator itself: simulated-job
//! wall-clock per real second, under cached and uncached configurations,
//! block-chain hashing, and the cluster dispatcher around the engines.

use criterion::{criterion_group, criterion_main, Criterion};
use llmqo_bench::harness;
use llmqo_cluster::{ArrivalProcess, PrefixAffinity};
use llmqo_core::{Ggr, Reorderer};
use llmqo_datasets::{Dataset, DatasetId};
use llmqo_relational::{encode_table, plan_requests, project_fds, QueryKind};
use llmqo_serve::{
    BlockChain, ChainHasher, Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, SimEngine,
    SimRequest,
};
use llmqo_tokenizer::Tokenizer;
use std::hint::black_box;

fn requests(n: usize, shared: usize, total: usize, output: u32) -> Vec<SimRequest> {
    (0..n)
        .map(|i| {
            let mut t: Vec<u32> = (0..shared as u32).collect();
            t.extend((0..(total - shared) as u32).map(|j| 1_000_000 + (i as u32) * 4096 + j));
            SimRequest::from_tokens(i, t, output)
        })
        .collect()
}

fn bench_engine(c: &mut Criterion) {
    let deployment = Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4()));
    let reqs = requests(1000, 192, 280, 4);
    let mut group = c.benchmark_group("engine/1000req-280tok");
    group.sample_size(10);
    group.bench_function("prefix-cache", |b| {
        let engine = SimEngine::new(deployment.clone(), EngineConfig::default());
        b.iter(|| engine.run(&reqs).unwrap())
    });
    group.bench_function("no-cache", |b| {
        let engine = SimEngine::new(deployment.clone(), EngineConfig::no_cache());
        b.iter(|| engine.run(&reqs).unwrap())
    });
    group.finish();
}

/// Block-chain hashing on a GGR-ordered Movies filter batch — prompts whose
/// leading fragments are pointer-equal to the previous prompt's: the
/// from-scratch definition against the incremental hasher the serving paths
/// use, fed built requests and borrowed views (all produce the same chains).
fn bench_chain(c: &mut Criterion) {
    let ds = Dataset::generate_with_rows(DatasetId::Movies, 2000);
    let query = ds.query_of_kind(QueryKind::Filter).expect("filter query");
    let encoded = encode_table(&Tokenizer::new(), &ds.table, query).expect("encode");
    let fds = project_fds(&ds.fds, &encoded.used_cols);
    let solution = Ggr::default()
        .reorder(&encoded.reorder, &fds)
        .expect("solve");
    let requests = plan_requests(&encoded, &solution.plan, query);
    let block_size = EngineConfig::default().block_size;

    let mut group = c.benchmark_group("chain/movies-2000req");
    group.sample_size(10);
    group.bench_function("from_fragments", |b| {
        b.iter(|| {
            for r in &requests {
                black_box(BlockChain::from_fragments(
                    block_size,
                    r.prompt.iter().map(|f| &f[..]),
                ));
            }
        })
    });
    group.bench_function("hasher", |b| {
        b.iter(|| {
            let mut hasher = ChainHasher::new(block_size, true);
            for r in &requests {
                black_box(hasher.chain(&r.prompt));
            }
        })
    });
    // The executor's form: no request is built, the prompt is a view of the
    // encoded table's fragment store.
    group.bench_function("hasher-borrowed", |b| {
        b.iter(|| {
            let mut hasher = ChainHasher::new(block_size, true);
            for rp in solution.plan.rows() {
                let fields = rp.fields.iter().map(|&f| {
                    let cell = encoded.reorder.cell(rp.row, f as usize);
                    encoded.fragments[cell.value.as_u32() as usize]
                });
                black_box(hasher.chain(std::iter::once(&encoded.instruction).chain(fields)));
            }
        })
    });
    group.finish();
}

/// The cluster dispatcher in `cluster_steady`'s shape: a GGR-planned
/// Movies filter batch offered as a Poisson stream at 0.8× the ideal rate of
/// eight replicas (eight times one replica's batch rate), routed by bounded
/// prefix affinity. Chain hashing, routing, placement and engine stepping.
fn bench_cluster(c: &mut Criterion) {
    const REPLICAS: usize = 8;
    let ds = Dataset::generate_with_rows(DatasetId::Movies, 2000);
    let mut requests = harness::ggr_filter_requests(&ds);
    let sim = harness::cluster(REPLICAS, 64);
    let batch: Vec<SimRequest> = requests.iter().map(|r| r.request.clone()).collect();
    let probe = sim.engine().run(&batch).expect("probe run");
    let makespan = probe.job_completion_time_s / REPLICAS as f64;
    ArrivalProcess::Poisson {
        rate_rps: 0.8 * requests.len() as f64 / makespan,
        seed: 11,
    }
    .assign(&mut requests);

    let mut group = c.benchmark_group("cluster");
    group.sample_size(10);
    group.bench_function("steady-movies", |b| {
        b.iter(|| {
            sim.run(&mut PrefixAffinity::bounded(1.25), &requests)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engine, bench_chain, bench_cluster);
criterion_main!(benches);
