//! Criterion benches for the reordering solvers: GGR (paper configuration)
//! against the fixed-order baselines on a realistic join-shaped table, GGR
//! on the wide PDMX table and on every dataset at the end-to-end
//! benchmark's `paper_scan` sizes, plus OPHR on a small table (it is
//! exponential; Table 6 covers larger samples).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use llmqo_core::{FunctionalDeps, Ggr, Ophr, OriginalOrder, Reorderer, SortedFixed, StatFixed};
use llmqo_datasets::{Dataset, DatasetId};
use llmqo_relational::{encode_table, project_fds, LlmQuery, QueryKind};
use llmqo_tokenizer::Tokenizer;

fn filter_table(id: DatasetId, rows: usize) -> (llmqo_core::ReorderTable, FunctionalDeps) {
    let ds = Dataset::generate_with_rows(id, rows);
    let q = ds.query_of_kind(QueryKind::Filter).unwrap();
    encoded(&ds, q)
}

fn encoded(ds: &Dataset, q: &LlmQuery) -> (llmqo_core::ReorderTable, FunctionalDeps) {
    let e = encode_table(&Tokenizer::new(), &ds.table, q).unwrap();
    let fds = project_fds(&ds.fds, &e.used_cols);
    (e.reorder, fds)
}

fn bench_solvers(c: &mut Criterion) {
    let (table, fds) = filter_table(DatasetId::Movies, 1000);
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
        let (table, fds) = filter_table(DatasetId::Movies, rows);
        group.bench_function(format!("rows-{rows}"), |b| {
            b.iter(|| Ggr::default().reorder(&table, &fds).unwrap())
        });
    }
    group.finish();
}

/// GGR on the 2 250-row, 57-column PDMX filter table: about two thirds of
/// the solve is the adaptive fall-back, most of it reading a few rows of
/// many columns at small nodes and ordering the columns of each leaf; the
/// greedy steps' group scans and the value remap share the rest.
fn bench_pdmx_wide(c: &mut Criterion) {
    let (table, fds) = filter_table(DatasetId::Pdmx, 2250);
    let mut group = c.benchmark_group("solver/pdmx-wide");
    group.sample_size(10);
    group.bench_function("ggr", |b| {
        b.iter(|| Ggr::default().reorder(&table, &fds).unwrap())
    });
    group.finish();
}

/// GGR on each dataset's first query encoding (the filter, or the RAG
/// query) at the row counts the end-to-end benchmark's `paper_scan` solves
/// after its 90% sample: the solver's share of that workload, timed alone.
fn bench_paper_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/paper-scan");
    group.sample_size(10);
    for id in DatasetId::all() {
        let generated = match id {
            DatasetId::Squad | DatasetId::Fever => 2400,
            _ => id.paper().nrows / 4,
        };
        let rows = (generated as f64 * 0.9).round() as usize;
        let ds = Dataset::generate_with_rows(id, rows);
        let (table, fds) = encoded(&ds, &ds.queries[0]);
        group.bench_function(format!("{}-{rows}", id.name()), |b| {
            b.iter(|| Ggr::default().reorder(&table, &fds).unwrap())
        });
    }
    group.finish();
}

fn bench_ophr_small(c: &mut Criterion) {
    let (full, fds) = filter_table(DatasetId::Movies, 64);
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

criterion_group!(
    benches,
    bench_solvers,
    bench_ggr_scaling,
    bench_pdmx_wide,
    bench_paper_scan,
    bench_ophr_small
);
criterion_main!(benches);
