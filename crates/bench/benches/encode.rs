//! Criterion benches for the executor's host-side front half: lowering
//! offered rows to the table the solver sees.
//!
//! * `movies/full-table` — `encode_table` over every row (both encode
//!   phases fused; the path `paper_scan` and the cluster planners take).
//! * `movies/95pct-hit-batch` — one statement-sized batch on an executor
//!   restored from a checkpoint of the table's first 95%: phase 1 interns
//!   and looks up every row, phase 2 and the engine see the novel 5%.
//! * `movies/dup-heavy-batch` — dedup on, cache off, over the review-free
//!   fields (a few hundred distinct prompts): the flat dedup index and the
//!   CSR groups carry the batch.
//!
//! The batch cases run through `QueryExecutor::execute_with`, so they
//! include the solve and the simulated serving of whatever survives.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use llmqo_core::Ggr;
use llmqo_datasets::{Dataset, DatasetId};
use llmqo_relational::{encode_table, ExecOptions, LlmQuery, QueryExecutor};
use llmqo_serve::{Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, OracleLlm, SimEngine};
use llmqo_tokenizer::Tokenizer;

const ROWS: usize = 4000;

fn yes_no(name: &str, prompt: &str, fields: &[&str]) -> LlmQuery {
    LlmQuery::filter(
        name,
        prompt,
        fields.iter().map(|f| f.to_string()).collect(),
        vec!["Yes".into(), "No".into()],
        "Yes",
        2.0,
    )
}

fn bench_encode(c: &mut Criterion) {
    let ds = Dataset::generate_with_rows(DatasetId::Movies, ROWS);
    let tok = Tokenizer::new();
    let engine = SimEngine::new(
        Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
        EngineConfig::default(),
    );
    let solver = Ggr::default();
    let truth = |row: usize| String::from(if row.is_multiple_of(3) { "Yes" } else { "No" });
    let mut group = c.benchmark_group("encode");
    group.sample_size(20);

    let wide = &ds.queries[1]; // movies-projection: all seven fields
    group.bench_function("movies/full-table", |b| {
        b.iter(|| encode_table(&tok, &ds.table, wide).unwrap())
    });

    let kids = yes_no(
        "kids",
        "Is the movie suitable for kids? Answer Yes or No.",
        &["movieinfo", "reviewcontent"],
    );
    let checkpoint = {
        let warm = QueryExecutor::new(&engine, &OracleLlm, tok);
        let head = ds.table.head(ROWS * 95 / 100);
        warm.execute_with(
            &head,
            &kids,
            &solver,
            &ds.fds,
            &truth,
            ExecOptions::optimized(),
        )
        .unwrap();
        warm.checkpoint()
    };
    group.bench_function("movies/95pct-hit-batch", |b| {
        b.iter_batched(
            || {
                let exec = QueryExecutor::new(&engine, &OracleLlm, tok);
                exec.restore(&checkpoint);
                exec
            },
            |exec| {
                let out = exec
                    .execute_with(
                        &ds.table,
                        &kids,
                        &solver,
                        &ds.fds,
                        &truth,
                        ExecOptions::optimized(),
                    )
                    .unwrap();
                assert!(out.report.opt.cache_hits >= (ROWS * 95 / 100) as u64);
                out
            },
            BatchSize::LargeInput,
        )
    });

    let fresh = yes_no(
        "fresh",
        "Is the movie certified fresh? Answer Yes or No.",
        &["movietitle", "reviewtype", "topcritic"],
    );
    let exec = QueryExecutor::new(&engine, &OracleLlm, tok);
    group.bench_function("movies/dup-heavy-batch", |b| {
        b.iter(|| {
            let out = exec
                .execute_with(
                    &ds.table,
                    &fresh,
                    &solver,
                    &ds.fds,
                    &truth,
                    ExecOptions::deduped(),
                )
                .unwrap();
            assert!(out.report.opt.rows_deduped * 2 > ROWS as u64);
            out
        })
    });
    group.finish();
}

criterion_group!(benches, bench_encode);
criterion_main!(benches);
