//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * GGR fall-back ordering: adaptive partitioning vs the paper's plain
//!   statistics score (quality measured as achieved PHC, reported through
//!   bench labels; timing measured by criterion).
//! * Functional dependencies on/off.
//! * Row-recursion depth sweep.
//! * Engine KV block size sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use llmqo_core::{phc_of_plan, FallbackOrdering, FunctionalDeps, Ggr, GgrConfig, Reorderer};
use llmqo_datasets::{Dataset, DatasetId};
use llmqo_relational::{encode_table, project_fds, QueryKind};
use llmqo_serve::{
    Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, SimEngine, SimRequest,
};
use llmqo_tokenizer::Tokenizer;

fn pdmx(rows: usize) -> (llmqo_core::ReorderTable, FunctionalDeps) {
    let ds = Dataset::generate_with_rows(DatasetId::Pdmx, rows);
    let q = ds.query_of_kind(QueryKind::Filter).unwrap();
    let e = encode_table(&Tokenizer::new(), &ds.table, q).unwrap();
    let fds = project_fds(&ds.fds, &e.used_cols);
    (e.reorder, fds)
}

fn bench_fallbacks(c: &mut Criterion) {
    let (table, fds) = pdmx(800);
    let mut group = c.benchmark_group("ablation/fallback-pdmx-800");
    group.sample_size(10);
    for (name, fallback) in [
        ("adaptive", FallbackOrdering::Adaptive),
        ("stat-fixed", FallbackOrdering::StatFixed),
    ] {
        let solver = Ggr::new(GgrConfig {
            fallback,
            ..GgrConfig::paper()
        });
        let phc = phc_of_plan(&table, &solver.reorder(&table, &fds).unwrap().plan).phc;
        group.bench_function(format!("{name}-phc-{phc}"), |b| {
            b.iter(|| solver.reorder(&table, &fds).unwrap())
        });
    }
    group.finish();
}

fn bench_fds(c: &mut Criterion) {
    let ds = Dataset::generate_with_rows(DatasetId::Movies, 800);
    let q = ds.query_of_kind(QueryKind::Filter).unwrap();
    let e = encode_table(&Tokenizer::new(), &ds.table, q).unwrap();
    let fds = project_fds(&ds.fds, &e.used_cols);
    let mut group = c.benchmark_group("ablation/fds-movies-800");
    group.sample_size(10);
    for (name, use_fds) in [("with-fds", true), ("without-fds", false)] {
        let solver = Ggr::new(GgrConfig {
            use_fds,
            ..GgrConfig::paper()
        });
        let phc = phc_of_plan(&e.reorder, &solver.reorder(&e.reorder, &fds).unwrap().plan).phc;
        group.bench_function(format!("{name}-phc-{phc}"), |b| {
            b.iter(|| solver.reorder(&e.reorder, &fds).unwrap())
        });
    }
    group.finish();
}

fn bench_depth_sweep(c: &mut Criterion) {
    let (table, fds) = pdmx(800);
    let mut group = c.benchmark_group("ablation/row-depth-pdmx-800");
    group.sample_size(10);
    for depth in [0usize, 2, 4, 8, 16] {
        let solver = Ggr::new(GgrConfig {
            max_row_depth: Some(depth),
            ..GgrConfig::paper()
        });
        let phc = phc_of_plan(&table, &solver.reorder(&table, &fds).unwrap().plan).phc;
        group.bench_function(format!("depth-{depth}-phc-{phc}"), |b| {
            b.iter(|| solver.reorder(&table, &fds).unwrap())
        });
    }
    group.finish();
}

fn bench_block_size(c: &mut Criterion) {
    let deployment = Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4()));
    let reqs: Vec<SimRequest> = (0..500)
        .map(|i| {
            let mut t: Vec<u32> = (0..200).collect();
            t.extend((0..80u32).map(|j| 1_000_000 + (i as u32) * 4096 + j));
            SimRequest::from_tokens(i, t, 4)
        })
        .collect();
    let mut group = c.benchmark_group("ablation/block-size");
    group.sample_size(10);
    for bs in [8usize, 16, 32, 64] {
        let engine = SimEngine::new(
            deployment.clone(),
            EngineConfig {
                block_size: bs,
                ..EngineConfig::default()
            },
        );
        let hit = engine.run(&reqs).unwrap().prefix_hit_rate();
        group.bench_function(format!("bs-{bs}-hit-{:.0}pct", hit * 100.0), |b| {
            b.iter(|| engine.run(&reqs).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fallbacks,
    bench_fds,
    bench_depth_sweep,
    bench_block_size
);
criterion_main!(benches);
