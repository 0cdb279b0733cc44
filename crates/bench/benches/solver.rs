//! Criterion benches for the reordering solvers: GGR (paper configuration)
//! against the fixed-order baselines on a realistic join-shaped table, plus
//! OPHR on a small table (it is exponential; Table 6 covers larger samples).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use llmqo_core::{FunctionalDeps, Ggr, Ophr, OriginalOrder, Reorderer, SortedFixed, StatFixed};
use llmqo_datasets::{Dataset, DatasetId};
use llmqo_relational::{encode_table, project_fds, QueryKind};
use llmqo_tokenizer::Tokenizer;

fn movies_table(rows: usize) -> (llmqo_core::ReorderTable, FunctionalDeps) {
    let ds = Dataset::generate_with_rows(DatasetId::Movies, rows);
    let q = ds.query_of_kind(QueryKind::Filter).unwrap();
    let e = encode_table(&Tokenizer::new(), &ds.table, q).unwrap();
    let fds = project_fds(&ds.fds, &e.used_cols);
    (e.reorder, fds)
}

fn bench_solvers(c: &mut Criterion) {
    let (table, fds) = movies_table(1000);
    let mut group = c.benchmark_group("solver/movies-1000");
    group.sample_size(10);
    for solver in [
        &OriginalOrder as &dyn Reorderer,
        &SortedFixed,
        &StatFixed,
        &Ggr::default(),
    ] {
        group.bench_function(solver.name(), |b| {
            b.iter_batched(
                || (),
                |_| solver.reorder(&table, &fds).unwrap(),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_ggr_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/ggr-scaling");
    group.sample_size(10);
    for rows in [250usize, 1000, 4000] {
        let (table, fds) = movies_table(rows);
        group.bench_function(format!("rows-{rows}"), |b| {
            b.iter(|| Ggr::default().reorder(&table, &fds).unwrap())
        });
    }
    group.finish();
}

fn bench_ophr_small(c: &mut Criterion) {
    let (full, fds) = movies_table(64);
    let table = full.head(16);
    let mut group = c.benchmark_group("solver/ophr-16-rows");
    group.sample_size(10);
    group.bench_function("ophr", |b| {
        b.iter(|| Ophr::unbounded().reorder(&table, &fds).unwrap())
    });
    group.bench_function("ggr", |b| {
        b.iter(|| Ggr::default().reorder(&table, &fds).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_ggr_scaling, bench_ophr_small);
criterion_main!(benches);
