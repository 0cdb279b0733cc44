//! The paper's tables and figures, and the solver diagnostics: the runtime
//! and hit-rate artifacts are views over the [`Grid`]'s shared runs.

use crate::harness::{self, Grid, Method, Setup};
use crate::report::{Table, Value};
use llmqo_core::{
    phc_of_plan, Cell, FallbackOrdering, FunctionalDeps, Ggr, GgrConfig, Ophr, OriginalOrder,
    ReorderTable, Reorderer, SolveError, SortedFixed, StatFixed, TableStats, ValueId,
};
use llmqo_costmodel::{AnthropicCache, OpenAiCache, Pricing, ProviderCache, Usage};
use llmqo_datasets::{Dataset, DatasetId};
use llmqo_relational::{encode_table, project_fds, LlmQuery, QueryKind};
use llmqo_serve::{ModelProfile, SimLlm};
use llmqo_tokenizer::Tokenizer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// The five datasets with an LLM filter query (T1), in the paper's order.
const FILTER_DATASETS: [DatasetId; 5] = [
    DatasetId::Movies,
    DatasetId::Products,
    DatasetId::Bird,
    DatasetId::Pdmx,
    DatasetId::Beer,
];

/// Appends one row of a three-method runtime figure: `label` under
/// `first`, the job completion time of each of [`Method::all`], then GGR's
/// speedup over the other two.
fn jct_row(table: &mut Table, first: &'static str, label: String, jct: [f64; 3]) {
    let [none, orig, ggr] = jct;
    let methods = Method::all().map(|method| method.label());
    table.row(
        [(first, label.into())]
            .into_iter()
            .chain(methods.into_iter().zip(jct.map(Value::Secs)))
            .chain([
                ("GGR vs NoCache", Value::Speedup(none / ggr)),
                ("GGR vs Original", Value::Speedup(orig / ggr)),
            ]),
    );
}

/// `{a, b, ...}`, each number rounded to a whole token.
fn token_set(tokens: impl IntoIterator<Item = f64>) -> Value {
    let tokens: Vec<String> = tokens.into_iter().map(|t| format!("{t:.0}")).collect();
    format!("{{{}}}", tokens.join(", ")).into()
}

/// Reproduces **Table 1**: dataset statistics (rows, fields, average input
/// and output token lengths, applicable query types).
///
/// Paper values are printed alongside measurements from the synthetic
/// generators; `input_avg` is measured through the real prompt encoding
/// (instruction + JSON field fragments) with this repo's tokenizer.
pub(super) fn table1(grid: &mut Grid) {
    let tok = Tokenizer::new();
    let mut table = Table::new("Table 1: Datasets (measured vs paper)");
    for id in DatasetId::all() {
        let paper = id.paper();
        let ds = grid.dataset(id);
        let query = harness::query(ds, QueryKind::Filter);
        let encoded = encode_table(&tok, &ds.table, query).expect("encoding succeeds");
        let measured_input = encoded.total_prompt_tokens() as f64 / encoded.reorder.nrows() as f64;
        let outputs = ds
            .queries
            .iter()
            .filter(|q| !q.name.contains("multi"))
            .map(|q| q.output_tokens_mean);
        let qtypes = match id {
            DatasetId::Movies | DatasetId::Products => "T1-T4",
            DatasetId::Squad | DatasetId::Fever => "T5",
            _ => "T1, T2",
        };
        table.row([
            ("Dataset", id.name().into()),
            ("nrows", ds.table.nrows().into()),
            ("nrows(paper)", paper.nrows.into()),
            ("nfields", ds.table.ncols().into()),
            ("nfields(paper)", paper.nfields.into()),
            ("input_avg", Value::Fixed(measured_input, 0)),
            ("input_avg(paper)", paper.input_avg.into()),
            ("output_avg", token_set(outputs)),
            (
                "output_avg(paper)",
                token_set(paper.output_avg.iter().copied()),
            ),
            ("Query Type", qtypes.into()),
        ]);
    }
    table.print();
    if harness::scale() < 1.0 {
        println!(
            "note: LLMQO_SCALE={} — row counts are scaled; token shapes unaffected",
            harness::scale()
        );
    }
}

/// Reproduces **Table 2**: prefix hit rate (PHR) of LLM filter and RAG
/// queries under the original ordering vs GGR, measured end-to-end in the
/// serving simulator (block-granular, including the shared instruction
/// prefix — exactly what vLLM's cache metrics report).
pub(super) fn table2(grid: &mut Grid) {
    let mut table = Table::new("Table 2: PHR of LLM filter and RAG queries");
    for id in DatasetId::all() {
        let paper = id.paper();
        let [orig, ggr] = grid.pair(id, Setup::Llama8b);
        table.row([
            ("Dataset", id.name().into()),
            ("Original", Value::pct(orig.engine.prefix_hit_rate())),
            ("Original(paper)", Value::pct(paper.original_phr)),
            ("GGR", Value::pct(ggr.engine.prefix_hit_rate())),
            ("GGR(paper)", Value::pct(paper.ggr_phr)),
            ("GGR field-level", Value::pct(ggr.field_phc.hit_rate())),
        ]);
    }
    table.print();
}

// The paper duplicates field values "five times"; with this repo's
// tokenizer three copies already land prompts in the same ~4k-token regime
// the paper's measured hit rates imply.
const DUPLICATION: usize = 3;
const TABLE3_ROWS: usize = 1000;

/// Builds each request's token stream under `solver`'s schedule, duplicating
/// every field fragment as in the paper's Table 3 setup.
fn duplicated_prompts(ds: &Dataset, solver: &dyn Reorderer) -> Vec<Vec<u32>> {
    let query = ds.query_of_kind(QueryKind::Rag).expect("FEVER RAG query");
    let encoded = encode_table(&Tokenizer::new(), &ds.table, query).expect("encode");
    let fds = project_fds(&ds.fds, &encoded.used_cols);
    let solution = solver.reorder(&encoded.reorder, &fds).expect("solve");
    solution
        .plan
        .rows()
        .map(|rp| {
            let mut toks: Vec<u32> = encoded.instruction.to_vec();
            for &f in rp.fields {
                let cell = encoded.reorder.cell(rp.row, f as usize);
                let frag = &encoded.fragments[cell.value.as_u32() as usize];
                for _ in 0..DUPLICATION {
                    toks.extend_from_slice(frag);
                }
            }
            toks
        })
        .collect()
}

fn provider_usage(
    cache: &mut dyn ProviderCache,
    prompts: &[Vec<u32>],
    output_tokens: u64,
) -> Usage {
    let mut usage = Usage::default();
    for p in prompts {
        usage.add(cache.process(p, output_tokens));
    }
    usage
}

/// Reproduces **Table 3**: measured prompt-cache costs on OpenAI
/// (GPT-4o-mini) and Anthropic (Claude 3.5 Sonnet) pricing for FEVER.
///
/// Following §6.3: 1 000 FEVER rows, every field value duplicated five times
/// so shared prefixes clear the providers' 1 024-token caching minimum;
/// Anthropic uses the paper's conservative policy of marking only the first
/// 1 024 tokens per request. Paper: GGR saves ≈32% on OpenAI (62.2% hit
/// rate; original gets 0%) and ≈21% on Anthropic (30.6% hit rate).
pub(super) fn table3(_: &mut Grid) {
    let rows = (TABLE3_ROWS as f64 * harness::scale()).round().max(30.0) as usize;
    let ds = Dataset::generate_with_rows(DatasetId::Fever, rows);
    let orig_prompts = duplicated_prompts(&ds, &OriginalOrder);
    let ggr_prompts = duplicated_prompts(&ds, &Ggr::default());
    let avg_len =
        orig_prompts.iter().map(Vec::len).sum::<usize>() as f64 / orig_prompts.len() as f64;
    println!("FEVER x{DUPLICATION} duplication, {rows} rows, avg prompt {avg_len:.0} tokens");

    let mut table = Table::new(
        "Table 3: provider costs on FEVER (paper: OpenAI 62.2% hits / 32% \
         savings; Anthropic 30.6% hits / 21% savings; Original 0% hits)",
    );
    for (pricing, provider) in [
        (Pricing::gpt4o_mini(), "OpenAI"),
        (Pricing::claude35_sonnet(), "Anthropic"),
    ] {
        let mut results: Vec<(&str, Usage)> = Vec::new();
        for (name, ps) in [("Original", &orig_prompts), ("GGR", &ggr_prompts)] {
            let usage = if provider == "OpenAI" {
                provider_usage(&mut OpenAiCache::new(), ps, 3)
            } else {
                provider_usage(&mut AnthropicCache::new(), ps, 3)
            };
            results.push((name, usage));
        }
        let base_cost = results[0].1.cost(&pricing);
        for (name, usage) in &results {
            let cost = usage.cost(&pricing);
            table.row([
                ("Model", pricing.name.clone().into()),
                ("Method", (*name).into()),
                ("PHR", Value::pct(usage.hit_rate())),
                ("Cost", format!("${cost:.2}").into()),
                (
                    "Savings",
                    if *name == "GGR" {
                        Value::pct(1.0 - cost / base_cost)
                    } else {
                        "-".into()
                    },
                ),
            ]);
        }
    }
    table.print();
}

/// Reproduces **Table 4**: estimated cost savings across all datasets,
/// assuming providers supported automatic caching at arbitrary lengths.
///
/// §6.3's model: take the prefix hit rates measured in the Table 2
/// experiment and apply each provider's pricing (cached reads discounted,
/// Anthropic writes at a premium). Paper: 20–39% savings under OpenAI
/// pricing and 48–79% under Anthropic pricing.
pub(super) fn table4(grid: &mut Grid) {
    let openai = Pricing::gpt4o_mini();
    let anthropic = Pricing::claude35_sonnet();
    let mut table = Table::new(
        "Table 4: estimated cost savings from measured PHR (paper: OpenAI \
         20-39%, Anthropic 48-79%)",
    );
    for id in FILTER_DATASETS
        .into_iter()
        .chain([DatasetId::Fever, DatasetId::Squad])
    {
        let (p_oa, p_an) = id.paper().savings;
        let [orig, ggr] = grid
            .pair(id, Setup::Llama8b)
            .map(|r| r.engine.prefix_hit_rate());
        table.row([
            ("Dataset", id.name().into()),
            ("PHR orig", Value::pct(orig)),
            ("PHR GGR", Value::pct(ggr)),
            ("OpenAI", Value::pct(openai.estimated_savings(orig, ggr))),
            ("OpenAI(paper)", Value::Pct(p_oa, 0)),
            (
                "Anthropic",
                Value::pct(anthropic.estimated_savings(orig, ggr)),
            ),
            ("Anthropic(paper)", Value::Pct(p_an, 0)),
        ]);
    }
    table.print();
}

/// Reproduces **Table 5**: GGR solver time per dataset (§6.5).
///
/// The paper's Python implementation solves every dataset in under 15 s
/// (row depth 4, column depth 2) — "less than 0.01% of LLM query runtimes".
/// This Rust implementation is orders of magnitude faster still; the table
/// also reports the solver-to-query-time ratio measured end to end.
pub(super) fn table5(grid: &mut Grid) {
    let mut table = Table::new(
        "Table 5: GGR solver time (paper: < 15s per dataset, < 0.01% of query \
         runtime)",
    );
    for id in DatasetId::all() {
        let out = grid.run(id, QueryKind::Filter, Method::CacheGgr, Setup::Llama8b);
        let solver = out.report.solve_time_s;
        let query_time = out.report.engine.job_completion_time_s;
        table.row([
            ("Dataset", id.name().into()),
            ("Solver", Value::Secs(solver).print_only()),
            ("Solver(paper)", Value::Secs(id.paper().solver_time_s)),
            (
                "of query time",
                Value::pct(solver / query_time).print_only(),
            ),
        ]);
    }
    table.print();
}

/// Reproduces **Table 7** (Appendix D.2): the filter queries on the small
/// Llama-3.2-1B model, single L4.
///
/// Paper headline: GGR's prefix hit rates match the 8B runs, but runtime
/// gains shrink to 1.2–1.5× — the 1B model leaves so much free GPU memory
/// that large batches no longer depend on prefix sharing, and per-request
/// overheads dominate more of the (much shorter) job.
pub(super) fn table7(grid: &mut Grid) {
    let mut table = Table::new(
        "Table 7 (D.2): Llama-3.2-1B filter queries (paper: similar PHR, \
         smaller 1.2-1.5x runtime gains)",
    );
    // The paper's row order.
    let order = [
        DatasetId::Bird,
        DatasetId::Movies,
        DatasetId::Pdmx,
        DatasetId::Products,
        DatasetId::Beer,
    ];
    for id in order {
        let (p_ratio, p_orig, p_ggr) = id.paper().llama1b.expect("a filter dataset");
        let [orig, ggr] = grid.pair(id, Setup::Llama1b);
        let (orig_s, ggr_s) = (
            orig.engine.job_completion_time_s,
            ggr.engine.job_completion_time_s,
        );
        table.row([
            ("Dataset", id.name().into()),
            ("orig/GGR", Value::Speedup(orig_s / ggr_s)),
            ("paper", Value::Speedup(p_ratio)),
            ("PHR orig", Value::pct(orig.engine.prefix_hit_rate())),
            ("paper", Value::pct(p_orig)),
            ("PHR GGR", Value::pct(ggr.engine.prefix_hit_rate())),
            ("paper", Value::pct(p_ggr)),
        ]);
    }
    table.print();
}

/// Reproduces **Figure 3a**: end-to-end runtime of the five LLM *filter*
/// queries (T1) under No Cache / Cache (Original) / Cache (GGR) with
/// Llama-3-8B on one L4.
///
/// Paper headline: GGR is 1.8–3.0× faster than Cache (Original) and
/// 2.1–3.8× faster than No Cache.
pub(super) fn fig3a(grid: &mut Grid) {
    let mut table = Table::new(
        "Fig 3a: Filter queries, Llama-3-8B on 1xL4 (paper: GGR 2.1-3.8x over \
         No Cache, 1.8-3.0x over Cache (Original))",
    );
    for id in FILTER_DATASETS {
        let jct = grid.jcts(id, QueryKind::Filter);
        jct_row(&mut table, "Dataset", id.name().to_owned(), jct);
    }
    table.print();
}

/// Reproduces **Figure 3b**: end-to-end runtime of the five *projection*
/// queries (T2) and the two *RAG* queries (T5) under the three methods with
/// Llama-3-8B on one L4.
///
/// Paper headline: GGR is 1.5–3.4× over Cache (Original) and 1.8–3.7× over
/// No Cache; gains shrink as decode (long outputs) dominates.
pub(super) fn fig3b(grid: &mut Grid) {
    let mut table = Table::new(
        "Fig 3b: Projection and RAG queries, Llama-3-8B on 1xL4 (paper: GGR \
         1.8-3.7x over No Cache, 1.5-3.4x over Cache (Original))",
    );
    for id in DatasetId::all() {
        let query = &harness::query(grid.dataset(id), QueryKind::Projection).name;
        let label = format!("{} ({query})", id.name());
        let jct = grid.jcts(id, QueryKind::Projection);
        jct_row(&mut table, "Dataset (query)", label, jct);
    }
    table.print();
}

/// Reproduces **Figure 4**: multi-LLM invocation (T3) and aggregation (T4)
/// queries on Movies and Products under the three methods, Llama-3-8B/1×L4.
///
/// Paper headline: GGR is 1.7–2.8× over Cache (Original) and 2.7–3.7× over
/// No Cache. T3's first invocation filters over (mostly distinct) review
/// text, where reordering cannot help, diluting the total speedup.
pub(super) fn fig4(grid: &mut Grid) {
    let mut table = Table::new(
        "Fig 4: Multi-LLM invocation (T3) and aggregation (T4), Llama-3-8B \
         (paper: GGR 1.7-2.8x over Cache (Original), 2.7-3.7x over No Cache)",
    );
    for id in [DatasetId::Movies, DatasetId::Products] {
        let ds = grid.dataset(id);
        // T3: filter stage then projection stage over surviving rows.
        let stages = ds.multi_stages().expect("T3 stages exist");
        let jct = Method::all().map(|method| {
            let outs = harness::run_multi_method(ds, stages, method, Setup::Llama8b).expect("run");
            outs.iter()
                .map(|o| o.report.engine.job_completion_time_s)
                .sum::<f64>()
        });
        jct_row(
            &mut table,
            "Dataset (type)",
            format!("{} (T3)", id.name()),
            jct,
        );
    }
    for id in [DatasetId::Movies, DatasetId::Products] {
        let jct = grid.jcts(id, QueryKind::Aggregation);
        let aggs = Method::all().map(|method| {
            let out = grid.run(id, QueryKind::Aggregation, method, Setup::Llama8b);
            out.aggregate
                .expect("an aggregation query yields an aggregate")
        });
        // Aggregates must be identical across methods (semantics preserved).
        assert!(
            aggs.iter().all(|agg| (agg - aggs[2]).abs() < 1e-9),
            "aggregation changed under reordering: {aggs:?}"
        );
        let label = format!("{} (T4, avg={:.2})", id.name(), aggs[2]);
        jct_row(&mut table, "Dataset (type)", label, jct);
    }
    table.print();
}

/// Reproduces **Figure 5**: the five filter queries on Llama-3-70B served
/// over 8×L4 with tensor parallelism, Cache (Original) vs Cache (GGR).
///
/// Paper headline: GGR is 1.9–3.3× faster; trends mirror the 8B results.
pub(super) fn fig5(grid: &mut Grid) {
    let mut table = Table::new(
        "Fig 5: Filter queries, Llama-3-70B on 8xL4 (paper: GGR 1.9-3.3x over \
         Cache (Original))",
    );
    for id in FILTER_DATASETS {
        let [orig, ggr] = grid.pair(id, Setup::Llama70b);
        let orig_s = orig.engine.job_completion_time_s;
        let ggr_s = ggr.engine.job_completion_time_s;
        table.row([
            ("Dataset", id.name().into()),
            ("Cache (Original)", Value::Secs(orig_s)),
            ("Cache (GGR)", Value::Secs(ggr_s)),
            ("GGR vs Original", Value::Speedup(orig_s / ggr_s)),
            ("GGR PHR", Value::pct(ggr.engine.prefix_hit_rate())),
        ]);
    }
    table.print();
}

fn cell(id: u32, len: u32) -> Cell {
    Cell::new(ValueId::from_raw(id), len)
}

fn case_a(n: u32, m: u32) -> ReorderTable {
    let cols = (0..m).map(|f| format!("field{}", f + 1)).collect();
    let mut t = ReorderTable::new(cols).unwrap();
    for r in 0..n {
        let mut row = vec![cell(1000 + r, 1)];
        row.extend((1..m).map(|f| cell(f, 1)));
        t.push_row(row).unwrap();
    }
    t
}

fn case_b(x: u32) -> ReorderTable {
    let cols = (0..3).map(|f| format!("field{}", f + 1)).collect();
    let mut t = ReorderTable::new(cols).unwrap();
    let mut unique = 1000;
    for field in 0..3u32 {
        for _ in 0..x {
            let row: Vec<Cell> = (0..3)
                .map(|f| {
                    if f == field {
                        cell(field + 1, 1)
                    } else {
                        unique += 1;
                        cell(unique, 1)
                    }
                })
                .collect();
            t.push_row(row).unwrap();
        }
    }
    t
}

/// A table titled `title` with one `[ordering, PHC]` row per solver over
/// `t`, with no FDs declared, then one per `(bound, PHC)` of `bounds`.
fn phc_table(
    title: String,
    t: &ReorderTable,
    solvers: &[&dyn Reorderer],
    bounds: &[(&str, u32)],
) -> Table {
    let fds = FunctionalDeps::empty(t.ncols());
    let mut table = Table::new(title);
    for solver in solvers {
        let plan = solver.reorder(t, &fds).unwrap().plan;
        let phc = phc_of_plan(t, &plan).phc;
        table.row([("ordering", solver.name().into()), ("PHC", phc.into())]);
    }
    for &(bound, phc) in bounds {
        table.row([("ordering", bound.into()), ("PHC", phc.into())]);
    }
    table
}

/// Reproduces **Figure 1**: the fixed-field-ordering case study (§3.2).
///
/// (a) A table whose first field is unique per row while the remaining m−1
///     fields are constant: the fixed order scores 0 PHC; an optimized order
///     scores (n−1)(m−1).
/// (b) Staggered groups: each field i holds one group of x identical values
///     on disjoint rows. Any fixed order captures one group (x−1); per-row
///     reordering captures all three (3(x−1)).
///
/// Both constructions are solved with the actual GGR implementation (and
/// OPHR for (b)), demonstrating that the bounds are achieved, not just
/// theoretical.
pub(super) fn fig1(_: &mut Grid) {
    let (n, m) = (8u32, 5u32);
    phc_table(
        format!("Fig 1a: unique first field (n={n}, m={m}, unit lengths)"),
        &case_a(n, m),
        &[&OriginalOrder, &SortedFixed, &Ggr::default()],
        &[("paper bound (n−1)(m−1)", (n - 1) * (m - 1))],
    )
    .print();

    let x = 6u32;
    phc_table(
        format!("Fig 1b: staggered groups (x={x}, m=3, unit lengths)"),
        &case_b(x),
        &[
            &OriginalOrder,
            &SortedFixed,
            &Ggr::default(),
            &Ophr::unbounded(),
        ],
        &[
            ("paper fixed-order bound (x−1)", x - 1),
            ("paper per-row bound 3(x−1)", 3 * (x - 1)),
        ],
    )
    .print();
}

/// How long OPHR may search one sample before its cell reads `timeout`.
const OPHR_BUDGET_S: u64 = 60;

/// Reproduces **Table 6** (Appendix D.1): GGR vs the optimal OPHR oracle on
/// small dataset prefixes.
///
/// The paper runs OPHR on the first 10–200 rows of each dataset (PDMX cut to
/// 10 columns), terminating runs over two hours, and reports that GGR lands
/// within ~2 points of the optimal prefix hit rate while being orders of
/// magnitude faster. Our OPHR is memoized and budgeted
/// ([`OPHR_BUDGET_S`] per dataset). Each sample is the paper's largest
/// successful OPHR run; the sizes are fixed, whatever `LLMQO_SCALE` says.
pub(super) fn table6(_: &mut Grid) {
    let order = [
        DatasetId::Movies,
        DatasetId::Products,
        DatasetId::Bird,
        DatasetId::Pdmx,
        DatasetId::Fever,
        DatasetId::Beer,
        DatasetId::Squad,
    ];
    let mut samples = Table::new(
        "Table 6 (D.1): OPHR vs GGR on dataset prefixes (paper: GGR within \
         ~2pp of optimal, hours faster)",
    );
    for id in order {
        let (nrows, paper_ophr, paper_ggr) = id.paper().ophr_sample;
        let ds = Dataset::generate_with_rows(id, nrows.max(30));
        let query = harness::query(&ds, QueryKind::Filter);
        let encoded = encode_table(&Tokenizer::new(), &ds.table, query).expect("encode");
        let mut table = encoded.reorder.head(nrows);
        let mut used_cols = encoded.used_cols.clone();
        if id == DatasetId::Pdmx {
            // Appendix D.1 cuts PDMX to 10 columns to make OPHR feasible.
            let cols: Vec<usize> = (0..10).collect();
            table = table.select_columns(&cols);
            used_cols.truncate(10);
        }
        let fds = project_fds(&ds.fds, &used_cols);

        let ggr = Ggr::default().reorder(&table, &fds).expect("ggr");
        let ggr_rate = phc_of_plan(&table, &ggr.plan).hit_rate();

        let ophr = Ophr::with_budget(Duration::from_secs(OPHR_BUDGET_S)).reorder(&table, &fds);
        let (ophr_phr, ophr_time, diff): (Value, Value, Value) = match &ophr {
            Ok(sol) => {
                let rate = phc_of_plan(&table, &sol.plan).hit_rate();
                assert!(
                    phc_of_plan(&table, &sol.plan).phc >= phc_of_plan(&table, &ggr.plan).phc,
                    "optimal solver beaten by greedy on {}",
                    id.name()
                );
                (
                    Value::pct(rate),
                    Value::Secs(sol.solve_time.as_secs_f64()),
                    format!("{:+.1}pp", (ggr_rate - rate) * 100.0).into(),
                )
            }
            Err(SolveError::BudgetExceeded { .. }) => (
                "timeout".into(),
                format!(">{OPHR_BUDGET_S}s").into(),
                "n/a".into(),
            ),
            Err(e) => panic!("unexpected solver error: {e}"),
        };
        let paper = format!("{:.1}% / {:.1}%", paper_ophr * 100.0, paper_ggr * 100.0);
        samples.row([
            ("Sample", format!("{}-{}", id.name(), nrows).into()),
            ("OPHR PHR", ophr_phr),
            ("GGR PHR", Value::pct(ggr_rate)),
            ("GGR-OPHR", diff),
            ("paper (OPHR/GGR)", paper.into()),
            ("OPHR time", ophr_time.print_only()),
            (
                "GGR time",
                Value::Secs(ggr.solve_time.as_secs_f64()).print_only(),
            ),
        ]);
    }
    samples.print();
}

/// Calibration diagnostics (not a paper artifact): per-dataset column
/// statistics and solver comparison over `ids`, used to tune the synthetic
/// generators against Table 2 and to sanity-check GGR against its ceiling.
pub(super) fn diagnose(grid: &mut Grid, ids: &[DatasetId]) {
    let tok = Tokenizer::new();
    for &id in ids {
        let ds = grid.dataset(id);
        let query = harness::query(ds, QueryKind::Filter);
        let encoded = encode_table(&tok, &ds.table, query).unwrap();
        let fds = project_fds(&ds.fds, &encoded.used_cols);
        let stats = TableStats::compute(&encoded.reorder);
        let n = encoded.reorder.nrows();

        let mut columns = Table::new(format!(
            "{} columns (n={}, instr={} tok, fields={:.0} tok/row)",
            id.name(),
            n,
            encoded.instruction.len(),
            encoded.reorder.total_tokens() as f64 / n as f64
        ));
        for (c, s) in stats.columns().iter().enumerate() {
            columns.row([
                ("column", encoded.reorder.column_names()[c].clone().into()),
                ("card", s.cardinality.into()),
                ("avg_len", Value::Fixed(s.avg_len, 1)),
                ("tok/row", Value::Fixed(s.total_len as f64 / n as f64, 0)),
                ("score", format!("{:.2e}", s.hitcount_score(n)).into()),
            ]);
        }
        columns.print();

        let solvers: Vec<(&str, Box<dyn Reorderer>)> = vec![
            ("original", Box::new(OriginalOrder)),
            ("sorted-fixed", Box::new(SortedFixed)),
            ("stat-fixed", Box::new(StatFixed)),
            ("ggr(paper)", Box::new(Ggr::default())),
            (
                "ggr(deep)",
                Box::new(Ggr::new(GgrConfig {
                    max_row_depth: Some(64),
                    max_col_depth: Some(8),
                    use_fds: true,
                    fallback: FallbackOrdering::StatFixed,
                })),
            ),
            (
                "ggr(nofd)",
                Box::new(Ggr::new(GgrConfig {
                    use_fds: false,
                    ..GgrConfig::paper()
                })),
            ),
        ];
        let mut table = Table::new(format!("{} solvers", id.name()));
        for (name, solver) in solvers {
            let start = std::time::Instant::now();
            let s = solver.reorder(&encoded.reorder, &fds).unwrap();
            let elapsed = start.elapsed().as_secs_f64();
            let r = phc_of_plan(&encoded.reorder, &s.plan);
            // Engine-equivalent rate including instruction prefix per row.
            let instr = (encoded.instruction.len() * n) as u64;
            let engine_like = (r.hit_tokens + instr - encoded.instruction.len() as u64) as f64
                / (r.total_tokens + instr) as f64;
            table.row([
                ("solver", name.into()),
                ("field hit", Value::pct(r.hit_rate())),
                ("≈engine hit", Value::pct(engine_like)),
                ("PHC", format!("{:.2e}", r.phc as f64).into()),
                ("solve", Value::Secs(elapsed).print_only()),
            ]);
        }
        table.print();
    }
}

/// Per-row correctness under one ordering, without engine simulation
/// (accuracy is independent of serving time).
fn correctness(
    ds: &Dataset,
    query: &LlmQuery,
    solver: &dyn Reorderer,
    model: &ModelProfile,
    eval_rows: usize,
) -> Vec<bool> {
    let encoded = encode_table(&Tokenizer::new(), &ds.table, query).expect("encode");
    let fds = project_fds(&ds.fds, &encoded.used_cols);
    let solution = solver.reorder(&encoded.reorder, &fds).expect("solve");
    let key_col = query
        .key_field
        .as_deref()
        .and_then(|k| query.fields.iter().position(|f| f == k));
    let truth = ds.truth_fn(query);
    let mut correct = vec![false; eval_rows];
    for rp in solution.plan.rows() {
        if rp.row >= eval_rows {
            continue;
        }
        let pos = match key_col {
            Some(k) if rp.fields.len() > 1 => {
                let p = rp.fields.iter().position(|&f| f as usize == k).unwrap();
                p as f64 / (rp.fields.len() - 1) as f64
            }
            _ => 0.5,
        };
        let t = truth(rp.row);
        let out = model.generate(t.clone(), rp.row as u64, &query.label_space, pos);
        correct[rp.row] = out == t;
    }
    correct
}

/// Median bootstrap accuracy over 10 000 resamples (paper §6.4).
fn bootstrap_median(correct: &[bool], seed: u64) -> f64 {
    let n = correct.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut accs: Vec<f64> = (0..10_000)
        .map(|_| {
            let hits = (0..n).filter(|_| correct[rng.random_range(0..n)]).count();
            hits as f64 / n as f64
        })
        .collect();
    accs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    (accs[4999] + accs[5000]) / 2.0
}

/// Reproduces **Figure 6**: the impact of GGR reordering on answer accuracy
/// (§6.4). For every filter query (plus FEVER's RAG query, SQuAD excluded as
/// open-ended), the hand-labeled subset is answered by three simulated
/// models under the original and the GGR orderings, and 10 000 bootstrap
/// resamples give the distribution of exact-match accuracy; the table shows
/// the difference in median accuracy (GGR − original).
///
/// Paper headline: deltas within ±5% everywhere except Llama-3-8B on FEVER,
/// which *improves* by +14.2% because GGR moves the `claim` field to the end
/// of the prompt, a position the small model prefers.
pub(super) fn fig6(grid: &mut Grid) {
    // Per-dataset base accuracy of the small model (larger models add a
    // margin), in the ballpark of the paper's Fig. 6 y-axes.
    let cases: Vec<(DatasetId, f64)> = FILTER_DATASETS
        .into_iter()
        .chain([DatasetId::Fever])
        .zip([0.82, 0.86, 0.75, 0.70, 0.66, 0.62])
        .collect();
    let models = [
        ModelProfile::llama3_8b(),
        ModelProfile::llama3_70b(),
        ModelProfile::gpt4o(),
    ];
    let margins = [0.0, 0.08, 0.12];

    for (mi, (model, margin)) in models.iter().zip(margins).enumerate() {
        let mut table = Table::new(format!("Fig 6: accuracy, original vs GGR ({})", model.name));
        for &(id, base) in &cases {
            let paper = id
                .paper()
                .accuracy_delta
                .expect("Fig. 6 covers the dataset")[mi];
            let ds = grid.dataset(id);
            let query = harness::query(ds, QueryKind::Filter);
            // FEVER has ground-truth labels for all records; other datasets
            // use a 100-row hand-labeled subset (paper §6.4).
            let eval_rows = if id == DatasetId::Fever {
                ds.table.nrows()
            } else {
                100.min(ds.table.nrows())
            };
            let profile = model.clone().with_base_accuracy((base + margin).min(0.95));
            let orig = correctness(ds, query, &OriginalOrder, &profile, eval_rows);
            let ggr = correctness(ds, query, &Ggr::default(), &profile, eval_rows);
            let m_orig = bootstrap_median(&orig, 42);
            let m_ggr = bootstrap_median(&ggr, 43);
            table.row([
                ("Dataset", id.name().into()),
                ("Original", Value::pct(m_orig)),
                ("GGR", Value::pct(m_ggr)),
                (
                    "Δ median",
                    format!("{:+.1}%", (m_ggr - m_orig) * 100.0).into(),
                ),
                ("Δ paper", format!("{paper:+.1}%").into()),
            ]);
        }
        table.print();
    }
    println!(
        "\nheadline: |Δ| stays small for large models; the small model gains \
         substantially on FEVER because GGR moves `claim` to the prompt's end."
    );
}
