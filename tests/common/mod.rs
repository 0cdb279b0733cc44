//! Shared harness for the differential suites (ISSUE 10): the engine
//! constructor, SQL runners, result-equality helpers, the seven-dataset
//! statement table, cluster workload builders, and the seeded optimizer
//! config matrix that every suite used to duplicate locally.
//!
//! Compiled once per test binary via `mod common;` — each binary uses a
//! different subset, hence the file-wide `dead_code` allowance.

#![allow(dead_code)]

use llmqo::cluster::{
    ClusterConfig, ClusterRequest, ClusterSim, LeastLoaded, PrefixAffinity, RoundRobin, Router,
};
use llmqo::core::Ggr;
use llmqo::costmodel::CascadePlan;
use llmqo::datasets::{Dataset, DatasetId};
use llmqo::relational::{CascadeConfig, OptimizerConfig, QueryExecutor, SqlResult, SqlRunner};
use llmqo::serve::{
    Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, OracleLlm, SimEngine, SimRequest,
};
use llmqo::tokenizer::Tokenizer;

/// Every tier-1 dataset generated at `rows` rows — the standard iteration
/// of the differential suites.
pub fn tier1_datasets(rows: usize) -> impl Iterator<Item = (DatasetId, Dataset)> {
    DatasetId::all()
        .into_iter()
        .map(move |id| (id, Dataset::generate_with_rows(id, rows)))
}

/// The paper's primary deployment: Llama-3-8B on one L4, default engine
/// config — the engine every differential suite runs against.
pub fn engine() -> SimEngine {
    engine_with(EngineConfig::default())
}

/// Same deployment under a custom engine config.
pub fn engine_with(config: EngineConfig) -> SimEngine {
    SimEngine::new(
        Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
        config,
    )
}

/// Balanced ground truth: "Yes" on every third row.
pub fn mod3_truth(row: usize) -> String {
    if row.is_multiple_of(3) {
        "Yes".to_string()
    } else {
        "No".to_string()
    }
}

/// Skewed ground truth: ~5% of rows are "Yes", so a `= 'Yes'` filter is
/// picky (sel ≈ 0.05) and a `<> 'Yes'` filter is lax (sel ≈ 0.95) — both
/// far from the optimizer's uniform 0.5 prior.
pub fn skewed_truth(row: usize) -> String {
    if row.is_multiple_of(20) {
        "Yes".to_string()
    } else {
        "No".to_string()
    }
}

/// Runs one SQL statement on a fresh engine/executor/runner stack under
/// `opt`, with the balanced mod-3 truth.
pub fn run_sql(ds: &Dataset, sql: &str, opt: OptimizerConfig, table_name: &str) -> SqlResult {
    run_sql_with_truth(ds, sql, opt, table_name, &mod3_truth)
}

/// [`run_sql`] with a caller-supplied ground truth.
pub fn run_sql_with_truth(
    ds: &Dataset,
    sql: &str,
    opt: OptimizerConfig,
    table_name: &str,
    truth: &dyn Fn(usize) -> String,
) -> SqlResult {
    let eng = engine();
    let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(opt);
    runner.register(table_name, &ds.table, &ds.fds);
    runner
        .run(sql, truth)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
}

/// Result-level equality: columns, rows, aggregate.
pub fn assert_same_results(a: &SqlResult, b: &SqlResult, context: &str) {
    assert_eq!(a.columns, b.columns, "{context}: columns diverged");
    assert_eq!(a.rows, b.rows, "{context}: rows diverged");
    assert_eq!(a.aggregate, b.aggregate, "{context}: aggregate diverged");
}

/// Equality on every sim-deterministic field of a SQL result.
/// `ExecutionReport::solve_time_s` is wall-clock and differs between any
/// two runs, so whole-struct `==` is the one comparison we cannot make.
pub fn assert_sql_identical(a: &SqlResult, b: &SqlResult, context: &str) {
    assert_eq!(a.columns, b.columns, "{context}: columns");
    assert_eq!(a.rows, b.rows, "{context}: rows");
    assert_eq!(a.aggregate, b.aggregate, "{context}: aggregate");
    assert_eq!(a.notes, b.notes, "{context}: notes");
    assert_eq!(a.stages.len(), b.stages.len(), "{context}: stage count");
    for (x, y) in a.stages.iter().zip(&b.stages) {
        assert_eq!(x.outputs, y.outputs, "{context}: stage outputs");
        assert_eq!(x.failed_rows, y.failed_rows, "{context}: failed rows");
        assert_eq!(x.aggregate, y.aggregate, "{context}: stage aggregate");
        assert_eq!(x.report.query, y.report.query, "{context}: stage query");
        assert_eq!(x.report.engine, y.report.engine, "{context}: engine report");
        assert_eq!(x.report.opt, y.report.opt, "{context}: opt stats");
    }
}

/// One multi-LLM-filter statement per tier-1 dataset (some with `LIMIT`),
/// written against each dataset's real schema — the canonical seven-way
/// differential workload.
pub fn seven_dataset_cases() -> [(DatasetId, &'static str, &'static str); 7] {
    [
        (
            DatasetId::Movies,
            "movies",
            "SELECT movietitle FROM movies \
             WHERE LLM('kids?', movieinfo, reviewcontent) = 'Yes' \
             AND LLM('fresh?', reviewtype, topcritic) <> 'Yes'",
        ),
        (
            DatasetId::Products,
            "products",
            "SELECT product_title FROM products \
             WHERE LLM('useful?', text, review_title) = 'Yes' \
             AND LLM('verified?', verified_purchase, rating) <> 'Yes'",
        ),
        (
            DatasetId::Bird,
            "bird",
            "SELECT PostId FROM bird \
             WHERE LLM('stats?', Body, Text) = 'Yes' \
             AND LLM('old?', PostDate) <> 'Yes' LIMIT 6",
        ),
        (
            DatasetId::Pdmx,
            "pdmx",
            "SELECT artistname FROM pdmx \
             WHERE LLM('complex?', complexity, genre) = 'Yes' \
             AND LLM('grouped?', groups, composername) <> 'Yes'",
        ),
        (
            DatasetId::Beer,
            "beer",
            "SELECT beer/name FROM beer \
             WHERE LLM('good?', review/overall, review/palate) = 'Yes' \
             AND LLM('ipa?', beer/style) <> 'Yes' LIMIT 8",
        ),
        (
            DatasetId::Squad,
            "squad",
            "SELECT question FROM squad \
             WHERE LLM('answerable?', question, context1) = 'Yes' \
             AND LLM('short?', context2) <> 'Yes'",
        ),
        (
            DatasetId::Fever,
            "fever",
            "SELECT claim FROM fever \
             WHERE LLM('supported?', claim, context1) = 'Yes' \
             AND LLM('refuted?', context2, context3) <> 'Yes' LIMIT 5",
        ),
    ]
}

/// Schema-generic statements over a dataset's first two columns: a single
/// filter, a two-filter conjunction with `LIMIT`, and an LLM projection —
/// usable on every tier-1 dataset without per-dataset SQL.
pub fn generic_statements(ds: &Dataset) -> Vec<String> {
    let names = ds.table.schema().names();
    let (c0, c1) = (names[0].to_string(), names[1 % names.len()].to_string());
    vec![
        format!("SELECT {c0} FROM t WHERE LLM('keep?', {c1}) = 'Yes'"),
        format!(
            "SELECT {c0} FROM t WHERE LLM('a?', {c0}, {c1}) = 'Yes' \
             AND LLM('b?', {c1}) <> 'No' LIMIT 7"
        ),
        format!("SELECT LLM('summarize', {c1}) AS s FROM t WHERE LLM('keep?', {c0}) = 'Yes'"),
    ]
}

/// A grouped shared-prefix engine workload: `groups` groups of `per_group`
/// requests sharing a 48-token prefix with 12 unique tail tokens and 4
/// output tokens — exercising admission, caching, eviction, and decode.
pub fn grouped_requests(groups: usize, per_group: usize) -> Vec<SimRequest> {
    (0..groups * per_group)
        .map(|i| {
            let g = (i / per_group) as u32;
            let mut toks: Vec<u32> = (0..48).map(|j| g * 1000 + j).collect();
            toks.extend((0..12).map(|j| 500_000 + i as u32 * 64 + j));
            SimRequest::from_tokens(i, toks, 4)
        })
        .collect()
}

/// [`grouped_requests`] tagged with the group index as the routing prefix
/// key, for cluster dispatch.
pub fn grouped_workload(groups: usize, per_group: usize) -> Vec<ClusterRequest> {
    grouped_requests(groups, per_group)
        .into_iter()
        .enumerate()
        .map(|(i, r)| ClusterRequest::new(r, (i / per_group) as u64))
        .collect()
}

/// [`grouped_workload`] where every `prio_every`-th request is a priority-1
/// request of tenant 1 (the "premium" tenant), the rest best-effort
/// tenant-0 traffic. `prio_every == 0` disables the premium tier.
pub fn prioritized_workload(
    groups: usize,
    per_group: usize,
    prio_every: usize,
) -> Vec<ClusterRequest> {
    grouped_workload(groups, per_group)
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            if prio_every > 0 && i.is_multiple_of(prio_every) {
                r.tenant(1).priority(1)
            } else {
                r
            }
        })
        .collect()
}

/// A cluster simulator over the standard engine.
pub fn cluster_sim(replicas: usize, queue_cap: usize) -> ClusterSim {
    ClusterSim::new(
        engine(),
        ClusterConfig {
            replicas,
            queue_cap,
        },
    )
}

/// A GGR-reordered movies filter workload (the fig_cluster feed): requests
/// share solver-arranged prefixes as pointer-equal fragments. Returns the
/// requests with their depth-1 prefix keys.
pub fn reordered_movies_requests(rows: usize) -> (Vec<SimRequest>, Vec<u64>) {
    use llmqo::core::Reorderer;
    use llmqo::relational::{encode_table, plan_requests, project_fds, QueryKind};

    let ds = Dataset::generate_with_rows(DatasetId::Movies, rows);
    let query = ds.query_of_kind(QueryKind::Filter).expect("filter query");
    let encoded = encode_table(&Tokenizer::new(), &ds.table, query).expect("encode");
    let fds = project_fds(&ds.fds, &encoded.used_cols);
    let solution = Ggr::default().reorder(&encoded.reorder, &fds).unwrap();
    let keys = solution.plan.prefix_keys(&encoded.reorder, 1);
    (plan_requests(&encoded, &solution.plan, query), keys)
}

/// Fresh instances of all four built-in routing policies.
pub fn routers() -> Vec<Box<dyn Router>> {
    vec![
        Box::new(RoundRobin),
        Box::new(LeastLoaded),
        Box::new(PrefixAffinity::default()),
        Box::new(PrefixAffinity::bounded(1.25)),
    ]
}

/// One entry of the seeded optimizer configuration matrix.
pub struct MatrixEntry {
    /// Human-readable label for assertion messages.
    pub label: &'static str,
    /// The optimizer configuration under test.
    pub opt: OptimizerConfig,
    /// Whether this configuration is *provably* result-identical to the
    /// optimizations-off oracle. Cascade configs that keep cheap-tier
    /// answers on an imperfect cheap model trade accuracy for cost, so
    /// their entries carry `exact: false`.
    pub exact: bool,
}

/// The seeded configuration matrix: every optimizer mode the repo ships,
/// including the cascade endpoints. Entries with `exact == true` must be
/// byte-identical to `OptimizerConfig::none()` on any statement; equal
/// seeds reproduce the matrix (and each cascade's confidence stream)
/// exactly.
pub fn seeded_config_matrix(seed: u64) -> Vec<MatrixEntry> {
    let mut pipelined = OptimizerConfig::pipelined(3);
    pipelined.pipeline_batch_rows = 16;
    // Micro-batching on single-replica stages: no routing, no prefix keys.
    let mut pipelined_solo = OptimizerConfig::pipelined(1);
    pipelined_solo.pipeline_batch_rows = 16;
    // A cheap tier that is always right: never escalating still equals the
    // oracle, isolating the cascade *machinery* from cheap-model error.
    let perfect_cheap = {
        let mut plan = CascadePlan::mini_to_sonnet(0.0, seed);
        plan.cheap.base_accuracy = 1.0;
        plan
    };
    vec![
        MatrixEntry {
            label: "none",
            opt: OptimizerConfig::none(),
            exact: true,
        },
        MatrixEntry {
            label: "all",
            opt: OptimizerConfig::all(),
            exact: true,
        },
        MatrixEntry {
            label: "static-only",
            opt: OptimizerConfig::static_only(),
            exact: true,
        },
        MatrixEntry {
            label: "pipelined",
            opt: pipelined,
            exact: true,
        },
        MatrixEntry {
            label: "pipelined-solo",
            opt: pipelined_solo,
            exact: true,
        },
        MatrixEntry {
            label: "cascade-escalate-all",
            opt: OptimizerConfig::cascaded(CascadeConfig::new(CascadePlan::mini_to_sonnet(
                1.0, seed,
            ))),
            exact: true,
        },
        MatrixEntry {
            label: "cascade-perfect-cheap",
            opt: OptimizerConfig::cascaded(CascadeConfig::new(perfect_cheap)),
            exact: true,
        },
        MatrixEntry {
            label: "cascade-mid",
            opt: OptimizerConfig::cascaded(CascadeConfig::new(CascadePlan::mini_to_sonnet(
                0.5, seed,
            ))),
            exact: false,
        },
    ]
}

// ---------------------------------------------------------------------------
// Frozen references for the host-side encode path (ISSUE 12)
// ---------------------------------------------------------------------------

/// The public fields of an [`EncodedTable`](llmqo::relational::EncodedTable)
/// as the string encoder produced them.
#[derive(Debug)]
pub struct ReferenceEncoding {
    pub reorder: llmqo::core::ReorderTable,
    pub fragments: Vec<std::sync::Arc<[llmqo::tokenizer::TokenId]>>,
    pub instruction: std::sync::Arc<[llmqo::tokenizer::TokenId]>,
    pub used_cols: Vec<usize>,
}

/// `encode_table_rows` as it was before the column dictionaries, frozen:
/// every cell serialized with `to_string` + `field_fragment`, interned by
/// fragment text, tokenized on first sight, one `Vec<Cell>` per row. The
/// oracle of `tests/encode_differential.rs`.
pub fn reference_encode_rows(
    tokenizer: &Tokenizer,
    table: &llmqo::relational::Table,
    query: &llmqo::relational::LlmQuery,
    rows: Option<&[usize]>,
) -> ReferenceEncoding {
    use llmqo::core::{Cell, Interner, ReorderTable};
    use llmqo::relational::field_fragment;
    use std::sync::Arc;

    let used_cols = table
        .resolve_columns(&query.fields)
        .expect("query names table columns");
    let nrows = rows.map_or(table.nrows(), <[usize]>::len);
    let row_at = |i: usize| rows.map_or(i, |rs| rs[i]);
    let mut reorder = ReorderTable::new(query.fields.clone()).expect("at least one field");
    reorder.reserve_rows(nrows);
    let mut interner = Interner::new();
    let mut fragments: Vec<Arc<[llmqo::tokenizer::TokenId]>> = Vec::new();

    let mut fragment_buf = String::new();
    for i in 0..nrows {
        let r = row_at(i);
        let mut row = Vec::with_capacity(used_cols.len());
        for (f, &c) in used_cols.iter().enumerate() {
            fragment_buf.clear();
            fragment_buf.push_str(&field_fragment(
                &query.fields[f],
                &table.value(r, c).to_string(),
            ));
            let before = interner.len();
            let id = interner.intern(&fragment_buf);
            if interner.len() > before {
                let toks = tokenizer.tokenize(&fragment_buf);
                fragments.push(Arc::from(toks.into_boxed_slice()));
            }
            let len = fragments[id.as_u32() as usize].len() as u32;
            row.push(Cell::new(id, len));
        }
        reorder.push_row(row).expect("row arity fixed by used_cols");
    }

    let instruction = Arc::from(
        tokenizer
            .tokenize(&query.full_instruction())
            .into_boxed_slice(),
    );
    ReferenceEncoding {
        reorder,
        fragments,
        instruction,
        used_cols,
    }
}

/// Asserts the dictionary encoder's output equals the frozen string
/// encoder's, field by field.
pub fn assert_encoding_matches_reference(
    tokenizer: &Tokenizer,
    table: &llmqo::relational::Table,
    query: &llmqo::relational::LlmQuery,
    rows: Option<&[usize]>,
    context: &str,
) {
    let want = reference_encode_rows(tokenizer, table, query, rows);
    let got = llmqo::relational::encode_table_rows(tokenizer, table, query, rows)
        .unwrap_or_else(|e| panic!("{context}: {e}"));
    assert_eq!(got.reorder, want.reorder, "{context}: reorder table");
    assert_eq!(got.fragments, want.fragments, "{context}: fragments");
    assert_eq!(got.instruction, want.instruction, "{context}: instruction");
    assert_eq!(got.used_cols, want.used_cols, "{context}: used columns");
}

/// `estimate_llm_op` as it was before it read fragment token counts from
/// the column dictionaries, frozen: every sampled cell serialized with
/// `to_string` + `field_fragment` and counted by the tokenizer.
pub fn reference_estimate_llm_op(
    table: &llmqo::relational::Table,
    tokenizer: &Tokenizer,
    query: &llmqo::relational::LlmQuery,
    negated: bool,
) -> llmqo::costmodel::LlmOpEstimate {
    const SAMPLE: usize = 64;
    let instruction = tokenizer.count(&query.full_instruction()) as f64;
    let cols = table.resolve_columns(&query.fields).unwrap_or_default();
    let n = table.nrows();
    let mut field_tokens = 0usize;
    let mut sampled = 0usize;
    if n > 0 && !cols.is_empty() {
        let stride = n.div_ceil(SAMPLE);
        let mut r = 0;
        while r < n {
            for (f, &c) in cols.iter().enumerate() {
                field_tokens += tokenizer.count(&llmqo::relational::field_fragment(
                    &query.fields[f],
                    &table.value(r, c).to_string(),
                ));
            }
            sampled += 1;
            r += stride;
        }
    }
    let per_row_fields = if sampled == 0 {
        0.0
    } else {
        field_tokens as f64 / sampled as f64
    };
    let pass = 1.0 / query.label_space.len().max(1) as f64;
    llmqo::costmodel::LlmOpEstimate::new(
        instruction + per_row_fields,
        query.output_tokens_mean,
        if negated { 1.0 - pass } else { pass },
    )
}

/// The answer cache's recency bookkeeping as it was before the stamp-based
/// rewrite, frozen: a `BTreeMap` from recency stamp to key that every hit
/// removes from and re-inserts into, evicting the first entry while a
/// budget is exceeded. Keys are `(hash, bytes)` pairs; `lookup`/`insert`
/// return what the real cache would (hit or miss / nothing), and
/// `evicted` lists victims in eviction order.
#[derive(Debug, Default)]
pub struct ReferenceLru {
    entries: std::collections::HashMap<u64, (usize, u64)>,
    order: std::collections::BTreeMap<u64, u64>,
    next_seq: u64,
    cur_bytes: usize,
    pub max_entries: Option<usize>,
    pub max_bytes: Option<usize>,
    pub evicted: Vec<u64>,
}

impl ReferenceLru {
    /// Fixed per-entry byte charge of the real cache.
    pub const ENTRY_OVERHEAD_BYTES: usize = 48;

    pub fn bounded(max_entries: Option<usize>, max_bytes: Option<usize>) -> Self {
        ReferenceLru {
            max_entries,
            max_bytes,
            ..ReferenceLru::default()
        }
    }

    pub fn lookup(&mut self, hash: u64) -> bool {
        let Some(slot) = self.entries.get_mut(&hash) else {
            return false;
        };
        self.order.remove(&slot.1);
        slot.1 = self.next_seq;
        self.next_seq += 1;
        self.order.insert(slot.1, hash);
        true
    }

    pub fn insert(&mut self, hash: u64, key_bytes: usize) {
        if self.entries.contains_key(&hash) {
            return;
        }
        let bytes = key_bytes + Self::ENTRY_OVERHEAD_BYTES;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(hash, (bytes, seq));
        self.order.insert(seq, hash);
        self.cur_bytes += bytes;
        self.enforce_budget();
    }

    pub fn enforce_budget(&mut self) {
        loop {
            let over_entries = self.max_entries.is_some_and(|m| self.entries.len() > m);
            let over_bytes = self.max_bytes.is_some_and(|m| self.cur_bytes > m);
            if !over_entries && !over_bytes {
                return;
            }
            let Some((&seq, &hash)) = self.order.iter().next() else {
                return;
            };
            self.order.remove(&seq);
            if let Some((bytes, _)) = self.entries.remove(&hash) {
                self.cur_bytes -= bytes;
            }
            self.evicted.push(hash);
        }
    }

    pub fn live(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.entries.keys().copied().collect();
        keys.sort_unstable();
        keys
    }
}
