//! Cost-based logical query optimizer for the LLM-SQL layer.
//!
//! The source paper's end-to-end wins come from two optimizer families:
//! prefix-sharing request reordering (the `llmqo-core` solvers) and the
//! *SQL-aware* optimizations of its "Optimizing LLM invocations" section —
//! exact request **deduplication**, **operator reordering** (cheap SQL
//! predicates before expensive LLM operators, LLM predicates ordered by
//! estimated selectivity × per-row cost), and `LIMIT`-driven **lazy
//! evaluation** that stops issuing LLM requests once enough rows qualify.
//! Related work ("Research Challenges in Relational Database Management
//! Systems for LLM Queries") argues these belong in a real cost-based
//! optimizer inside the DBMS rather than at ad-hoc call sites; this module
//! is that optimizer.
//!
//! A parsed [`SqlStatement`](crate::SqlStatement) compiles to a linear
//! [`LogicalPlan`] — `Scan` at the bottom, then `WHERE` conjuncts
//! ([`LogicalOp::SqlFilter`] / [`LogicalOp::LlmFilter`]), the projection
//! operator, and an optional `Limit`. [`optimize_plan`] applies the rewrite
//! rules under an [`OptimizerConfig`]; the physical executor in
//! [`SqlRunner`](crate::SqlRunner) interprets the optimized plan with
//! deduplicated, batched execution, one serving stage per LLM-invoking
//! operator ([`LogicalOp::llm_query`] is what makes an operator one). The
//! config holds switches and sizes some caller sets to a second value;
//! numbers with one value in use (the smallest lazy batch, the adaptive
//! prior weight) are constants next to their readers. With every
//! optimization disabled ([`OptimizerConfig::none`]) the physical executor
//! reproduces the pre-optimizer pipeline byte for byte — the differential
//! oracle the integration tests check against.
//!
//! LLM operator costs are priced through `llmqo-costmodel`'s
//! [`LlmOpEstimate`]: filters are sequenced by ascending
//! `per-row cost / (1 − selectivity)`, the order that minimizes expected
//! spend for a conjunction evaluated left to right.

use crate::query::LlmQuery;
use crate::table::Table;
use crate::value::Value;
use llmqo_costmodel::{CascadePlan, LlmOpEstimate, Pricing};
use llmqo_tokenizer::Tokenizer;
use serde::{Deserialize, Serialize};
use std::fmt;

// ---------------------------------------------------------------------------
// Cheap SQL predicates
// ---------------------------------------------------------------------------

/// Comparison operator of a plain (non-LLM) SQL predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// A cheap relational predicate: `column <op> literal`. Costs nothing
/// compared to an LLM invocation, which is why the optimizer always pushes
/// these below LLM operators.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SqlPredicate {
    /// Column name.
    pub column: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand literal (string or numeric, as written).
    pub literal: String,
}

impl SqlPredicate {
    /// Evaluates the predicate on one cell value. Comparisons are numeric
    /// when both sides parse as numbers, lexicographic on the rendered value
    /// otherwise; `NULL` satisfies nothing.
    pub fn eval(&self, value: &Value) -> bool {
        if matches!(value, Value::Null) {
            return false;
        }
        let rendered = value.to_string();
        let ord = match (rendered.parse::<f64>(), self.literal.parse::<f64>()) {
            (Ok(a), Ok(b)) => a.partial_cmp(&b),
            _ => Some(rendered.as_str().cmp(self.literal.as_str())),
        };
        let Some(ord) = ord else { return false };
        match self.op {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }
}

impl fmt::Display for SqlPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} '{}'", self.column, self.op, self.literal)
    }
}

// ---------------------------------------------------------------------------
// Logical plan
// ---------------------------------------------------------------------------

/// One operator of a [`LogicalPlan`]. Plans are linear chains: `ops[0]` is
/// always a [`Scan`](LogicalOp::Scan); each operator consumes the rows its
/// predecessor produced.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalOp {
    /// Read the source table.
    Scan {
        /// Registered table name.
        table: String,
    },
    /// Filter rows with a cheap relational predicate.
    SqlFilter {
        /// The predicate.
        pred: SqlPredicate,
    },
    /// Filter rows with an LLM predicate (`LLM(...) = label`, possibly
    /// negated). `est` is the optimizer's cost/selectivity estimate, filled
    /// in by [`annotate_estimates`].
    LlmFilter {
        /// The compiled per-row query.
        query: LlmQuery,
        /// Whether the comparison is `<>`.
        negated: bool,
        /// Cost-model estimate used for ordering (if annotated).
        est: Option<LlmOpEstimate>,
    },
    /// Produce one LLM output column per row (`SELECT LLM(...)`).
    LlmProject {
        /// The compiled per-row query.
        query: LlmQuery,
        /// Output column name.
        alias: String,
    },
    /// Fold per-row LLM outputs into an average (`SELECT AVG(LLM(...))`).
    LlmAggregate {
        /// The compiled per-row query.
        query: LlmQuery,
        /// Output column name.
        alias: String,
    },
    /// Project plain columns.
    Project {
        /// Output column names (`*` already expanded by the compiler).
        columns: Vec<String>,
    },
    /// Keep only the first `n` result rows (original row order).
    Limit {
        /// Row budget.
        n: usize,
    },
}

impl LogicalOp {
    /// The per-row query of an LLM-invoking operator (`LlmFilter`,
    /// `LlmProject`, `LlmAggregate`); `None` for every other operator.
    pub fn llm_query(&self) -> Option<&LlmQuery> {
        match self {
            LogicalOp::LlmFilter { query, .. }
            | LogicalOp::LlmProject { query, .. }
            | LogicalOp::LlmAggregate { query, .. } => Some(query),
            _ => None,
        }
    }

    fn label(&self) -> String {
        match self {
            LogicalOp::Scan { table } => format!("Scan {table}"),
            LogicalOp::SqlFilter { pred } => format!("SqlFilter {pred}"),
            LogicalOp::LlmFilter {
                query,
                negated,
                est,
            } => {
                let cmp = if *negated { "<>" } else { "=" };
                let label = query.predicate_label.as_deref().unwrap_or("?");
                let mut s = format!("LlmFilter {} {cmp} '{label}'", query.name);
                if let Some(e) = est {
                    s.push_str(&format!(
                        " (sel {:.2}, {:.0} tok/row)",
                        e.selectivity, e.prompt_tokens_per_row
                    ));
                }
                s
            }
            LogicalOp::LlmProject { query, alias } => {
                format!("LlmProject {} AS {alias}", query.name)
            }
            LogicalOp::LlmAggregate { query, alias } => {
                format!("LlmAggregate avg({}) AS {alias}", query.name)
            }
            LogicalOp::Project { columns } => format!("Project [{}]", columns.join(", ")),
            LogicalOp::Limit { n } => format!("Limit {n}"),
        }
    }
}

/// A linear operator chain compiled from one SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalPlan {
    /// Operators, bottom (scan) first.
    pub ops: Vec<LogicalOp>,
}

impl LogicalPlan {
    /// Number of LLM-invoking operators in the plan.
    pub fn llm_ops(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| op.llm_query().is_some())
            .count()
    }

    /// The `LIMIT` budget, if the plan has one.
    pub fn limit(&self) -> Option<usize> {
        self.ops.iter().find_map(|op| match op {
            LogicalOp::Limit { n } => Some(*n),
            _ => None,
        })
    }

    /// `EXPLAIN`-style rendering: top operator first, scan at the bottom,
    /// one tree edge per level.
    pub fn explain(&self) -> String {
        self.explain_with(|_, _| None)
    }

    /// [`explain`](Self::explain) with a per-node annotation hook: `annotate`
    /// receives each operator's plan index (bottom-up, scan = 0) and may
    /// return extra text appended to the operator's line — how
    /// `EXPLAIN ANALYZE` attaches measured statistics to the same rendering.
    pub fn explain_with<F>(&self, annotate: F) -> String
    where
        F: Fn(usize, &LogicalOp) -> Option<String>,
    {
        let mut out = String::new();
        for (depth, op) in self.ops.iter().rev().enumerate() {
            if depth > 0 {
                out.push_str(&"   ".repeat(depth - 1));
                out.push_str("└─ ");
            }
            out.push_str(&op.label());
            if let Some(extra) = annotate(self.ops.len() - 1 - depth, op) {
                out.push_str("  ");
                out.push_str(&extra);
            }
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Optimizer
// ---------------------------------------------------------------------------

/// Model-tier cascade execution for a statement's LLM operators (see
/// [`CascadePlan`]): every LLM operator runs each row on the cheap tier
/// first and escalates rows whose deterministic confidence falls below the
/// plan's threshold to the expensive tier on a second stage engine.
///
/// Off by default everywhere ([`OptimizerConfig::cascade`] is `None` in
/// every constructor) — single-tier execution stays the differential
/// oracle, and the `escalate_below ≥ 1` endpoint of an enabled cascade is
/// byte-identical to it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CascadeConfig {
    /// The two tiers and the escalation threshold.
    pub plan: CascadePlan,
}

impl CascadeConfig {
    /// A cascade under `plan`.
    pub fn new(plan: CascadePlan) -> Self {
        CascadeConfig { plan }
    }
}

/// Which rewrite rules and physical optimizations are enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Exact request deduplication: rows with identical projected field
    /// values share one engine request per batch.
    pub dedup: bool,
    /// Operator reordering: SQL predicates below LLM predicates, LLM
    /// predicates by ascending cost/(1−selectivity) rank.
    pub reorder: bool,
    /// `LIMIT`-driven lazy evaluation: issue LLM requests in growing batches
    /// and stop once the limit is satisfied. Batch sizes are the *lazy* rows
    /// of the batch-schedule table in `docs/ARCHITECTURE.md`.
    pub lazy_limit: bool,
    /// Adaptive runtime re-optimization: track observed LLM-filter pass
    /// rates batch by batch (Beta-smoothed over the static prior, see
    /// [`crate::SelectivityTracker`]), re-rank remaining LLM filters
    /// between batches, and let the batch schedule aim lazy batches at the
    /// limit and run pilot batches (`docs/ARCHITECTURE.md`, "The batch
    /// schedule").
    pub adaptive: bool,
    /// Session-scoped exact answer cache: a prompt (instruction +
    /// serialized projected fields) ever submitted on this executor is
    /// never submitted again — across batches, operators, and successive
    /// queries. See [`crate::AnswerCache`].
    pub answer_cache: bool,
    /// Deterministic per-statement fault injection and graceful
    /// degradation (see [`StatementFaults`](crate::StatementFaults)).
    /// `None` (the default everywhere) and `Some` with a zero `error_ppm`
    /// are byte-identical to fault-free execution.
    pub faults: Option<crate::StatementFaults>,
    /// Pipelined physical execution: run the statement in micro-batches of
    /// [`pipeline_batch_rows`](OptimizerConfig::pipeline_batch_rows) with
    /// every LLM operator on its own stage engine over one shared
    /// discrete-event clock, so operator `j` prefills batch `k + 1` while
    /// operator `j + 1` decodes batch `k`. Result rows are byte-identical
    /// to sequential execution (labeling never depends on engine timing);
    /// only the simulated schedule — and therefore the statement's
    /// job-completion time — changes. Off by default: the sequential relay
    /// stays the timing oracle the differential suites and golden
    /// `EXPLAIN ANALYZE` outputs pin.
    pub pipeline: bool,
    /// Replica sessions per LLM operator (fan-out) of a pipelined
    /// statement. `1` keeps each stage on one engine session; `N > 1`
    /// routes each stage's dedup-compacted batches across `N` replicas with
    /// the cluster layer's prefix-affinity router, preserving reorder-plan
    /// locality. Read only when [`pipeline`](OptimizerConfig::pipeline) is
    /// on: a statement that is not pipelined runs every operator on one
    /// session whatever this says, and `EXPLAIN` prints it only on the
    /// `-- pipeline:` line.
    pub pipeline_replicas: usize,
    /// Micro-batch size (rows) of the *pipelined only* row of the
    /// batch-schedule table in `docs/ARCHITECTURE.md`; a lazy or pilot
    /// schedule ignores it. Smaller batches overlap more at higher
    /// per-batch overhead.
    pub pipeline_batch_rows: usize,
    /// SELECT-list projection pruning: LLM calls whose field list came from
    /// a `*` expansion drop columns that neither the SELECT list nor any
    /// other clause of the statement references, shrinking prompts, dedup
    /// keys, and the reorder solver's view. Only applied to queries without
    /// a key field (always true for SQL-compiled queries), where the
    /// labeler's positional input is the constant `0.5` — so pruning
    /// provably cannot change any row's label.
    pub prune_fields: bool,
    /// Model-tier cascade execution (see [`CascadeConfig`]). `None` (the
    /// default everywhere) is single-tier oracle mode; the differential
    /// suites pin that a `Some` plan with `escalate_below ≥ 1` stays
    /// byte-identical to it.
    pub cascade: Option<CascadeConfig>,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig::all()
    }
}

impl OptimizerConfig {
    /// Every optimization on (the default).
    pub fn all() -> Self {
        OptimizerConfig {
            dedup: true,
            reorder: true,
            lazy_limit: true,
            adaptive: true,
            answer_cache: true,
            faults: None,
            pipeline: false,
            pipeline_replicas: 1,
            pipeline_batch_rows: 512,
            prune_fields: true,
            cascade: None,
        }
    }

    /// Every optimization off — the differential oracle: the physical
    /// executor then reproduces the fixed pre-optimizer pipeline.
    pub fn none() -> Self {
        OptimizerConfig {
            dedup: false,
            reorder: false,
            lazy_limit: false,
            adaptive: false,
            answer_cache: false,
            faults: None,
            pipeline: false,
            pipeline_replicas: 1,
            pipeline_batch_rows: 512,
            prune_fields: false,
            cascade: None,
        }
    }

    /// The PR-3 static optimizer: every rewrite on but no runtime feedback
    /// and no answer cache — the baseline the adaptive layer is measured
    /// against (`table_adaptive`) and differentially tested against.
    pub fn static_only() -> Self {
        OptimizerConfig {
            adaptive: false,
            answer_cache: false,
            ..OptimizerConfig::all()
        }
    }

    /// The cluster-parallel mode: [`all`](OptimizerConfig::all) plus
    /// pipelined micro-batching and `replicas`-way fan-out per LLM
    /// operator (`replicas` is clamped to at least 1).
    pub fn pipelined(replicas: usize) -> Self {
        OptimizerConfig {
            pipeline: true,
            pipeline_replicas: replicas.max(1),
            ..OptimizerConfig::all()
        }
    }

    /// Model-tier cascade mode: [`all`](OptimizerConfig::all) plus cascade
    /// execution under `cascade`.
    pub fn cascaded(cascade: CascadeConfig) -> Self {
        OptimizerConfig {
            cascade: Some(cascade),
            ..OptimizerConfig::all()
        }
    }
}

/// Fills each [`LogicalOp::LlmFilter`]'s cost estimate from the catalog
/// table: prompt tokens are the instruction prefix plus the mean serialized
/// field length over a deterministic row sample; selectivity is a uniform
/// prior over the query's label space (complemented for `<>`).
pub fn annotate_estimates(plan: &mut LogicalPlan, table: &Table, tokenizer: &Tokenizer) {
    for op in &mut plan.ops {
        if let LogicalOp::LlmFilter {
            query,
            negated,
            est,
        } = op
        {
            *est = Some(estimate_llm_op(table, tokenizer, query, *negated));
        }
    }
}

/// Cost-model estimate for one LLM operator over `table` (see
/// [`annotate_estimates`]). Exposed for benchmarks and EXPLAIN consumers.
pub fn estimate_llm_op(
    table: &Table,
    tokenizer: &Tokenizer,
    query: &LlmQuery,
    negated: bool,
) -> LlmOpEstimate {
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
                // A fragment some encode call already tokenized has its
                // count in the column dictionary (`count ≡ tokenize().len()`);
                // anything else — a cold table, an untouched row, a foreign
                // tokenizer — is serialized and counted here, filling nothing.
                field_tokens += table
                    .cached_fragment_len(r, c, tokenizer)
                    .unwrap_or_else(|| {
                        tokenizer.count(&crate::prompt::field_fragment(
                            &query.fields[f],
                            &table.value(r, c).to_string(),
                        ))
                    });
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
    let labels = query.label_space.len().max(1) as f64;
    let pass = 1.0 / labels;
    LlmOpEstimate::new(
        instruction + per_row_fields,
        query.output_tokens_mean,
        if negated { 1.0 - pass } else { pass },
    )
}

/// Applies the rewrite rules to `plan` under `config`, returning the
/// optimized plan and human-readable notes describing each rewrite (for
/// EXPLAIN output). Only the `WHERE` segment is mobile: SQL predicates move
/// below every LLM predicate (they are free by comparison and commute as
/// row filters), and LLM predicates sort by ascending
/// [`LlmOpEstimate::rank`]. Both moves are stable, so equal-rank operators
/// keep their written order.
pub fn optimize_plan(
    plan: &LogicalPlan,
    config: &OptimizerConfig,
    pricing: &Pricing,
) -> (LogicalPlan, Vec<String>) {
    let mut notes = Vec::new();
    if !config.reorder {
        return (plan.clone(), notes);
    }
    // The mobile segment: the maximal run of filter operators after Scan.
    let start = 1; // ops[0] is Scan
    let end = plan
        .ops
        .iter()
        .position(|op| {
            !matches!(
                op,
                LogicalOp::Scan { .. } | LogicalOp::SqlFilter { .. } | LogicalOp::LlmFilter { .. }
            )
        })
        .unwrap_or(plan.ops.len());
    let mut ops = plan.ops.clone();
    if start >= end {
        return (LogicalPlan { ops }, notes);
    }
    let segment = &mut ops[start..end];
    let before: Vec<String> = segment.iter().map(LogicalOp::label).collect();
    segment.sort_by(|a, b| {
        fn key(op: &LogicalOp, pricing: &Pricing) -> (u8, f64) {
            match op {
                LogicalOp::SqlFilter { .. } => (0, 0.0),
                LogicalOp::LlmFilter { est, .. } => {
                    (1, est.map_or(f64::INFINITY, |e| e.rank(pricing)))
                }
                _ => unreachable!("segment holds filters only"),
            }
        }
        let (ka, kb) = (key(a, pricing), key(b, pricing));
        ka.0.cmp(&kb.0).then(ka.1.total_cmp(&kb.1))
    });
    let after: Vec<String> = segment.iter().map(LogicalOp::label).collect();
    if before != after {
        notes.push(format!(
            "reordered WHERE: [{}] → [{}]",
            before.join("; "),
            after.join("; ")
        ));
    }
    (LogicalPlan { ops }, notes)
}

// ---------------------------------------------------------------------------
// Execution statistics
// ---------------------------------------------------------------------------

/// Per-operator savings measured by the physical executor — the observable
/// wins of the SQL-aware optimizations, reported inside
/// [`ExecutionReport`](crate::ExecutionReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptStats {
    /// Rows the operator was offered (survivors of upstream operators;
    /// under lazy `LIMIT`, candidates the scan never reached are not
    /// offered and appear nowhere in these stats).
    pub rows_in: u64,
    /// Offered rows that shared another row's engine request via exact
    /// dedup. Offered rows split three ways: `rows_in = llm_calls +
    /// rows_deduped + cache_hits`.
    pub rows_deduped: u64,
    /// Engine requests issued.
    pub llm_calls: u64,
    /// Prompt tokens (instruction + fields) the deduplicated rows did *not*
    /// send to the engine.
    pub prefill_tokens_saved: u64,
    /// Batches the operator ran in (1 unless batched lazy/adaptive
    /// execution was active).
    pub batches: u32,
    /// Offered rows answered from the session answer cache (no engine
    /// request, before dedup-compaction even saw them).
    pub cache_hits: u64,
    /// Prompt + output tokens the cache hits did not re-submit/re-decode.
    pub cache_tokens_saved: u64,
    /// Candidate rows this operator never received because lazy `LIMIT`
    /// stopped the scan early (attributed to the first LLM operator in
    /// execution order — the pipeline point where scanning would have
    /// resumed). This is what reconciles `rows_in` with the table size:
    /// `rows_in + rows_skipped` covers every candidate the operator would
    /// have been offered under full materialization.
    pub rows_skipped: u64,
    /// Times adaptive re-ranking moved this operator to a different
    /// position between batches.
    pub reranks: u32,
    /// Engine requests re-issued after injected transient failures (see
    /// [`StatementFaults`](crate::StatementFaults)). Not counted in
    /// `llm_calls`, which reconciles with offered rows.
    pub llm_retries: u64,
    /// Offered rows dropped after exhausting the fault retry budget
    /// (partial-result degradation).
    pub rows_failed: u64,
    /// Offered rows the cascade answered on the cheap tier alone
    /// (confidence at or above the threshold). Zero when cascades are off.
    /// With a cascade on, labeled rows split two ways:
    /// `rows_in = rows_cheap + rows_escalated + rows_failed`.
    pub rows_cheap: u64,
    /// Offered rows the cascade escalated to the expensive tier.
    pub rows_escalated: u64,
    /// Escalated rows whose cheap-tier answer already matched the expensive
    /// tier's — the agreement numerator the
    /// [`TierPosterior`](llmqo_costmodel::TierPosterior) learns from.
    pub tier_agreements: u64,
    /// Prompt tokens billed to the cheap tier (every engine request a
    /// cascade issues pays this tier once).
    pub cheap_prompt_tokens: u64,
    /// Output tokens billed to the cheap tier.
    pub cheap_output_tokens: u64,
    /// Prompt tokens additionally billed to the expensive tier for
    /// escalated requests.
    pub esc_prompt_tokens: u64,
    /// Output tokens additionally billed to the expensive tier.
    pub esc_output_tokens: u64,
}

impl OptStats {
    /// Engine requests avoided versus evaluating every candidate row
    /// individually: dedup sharing and answer-cache hits (both inside
    /// `rows_in`) plus the rows lazy `LIMIT` never scanned at all
    /// (`rows_skipped`). With this, report numbers reconcile with engine
    /// request counts: `rows_in + rows_skipped = llm_calls +
    /// llm_calls_saved()`.
    pub fn llm_calls_saved(&self) -> u64 {
        (self.rows_in + self.rows_skipped).saturating_sub(self.llm_calls)
    }

    /// Accumulates another batch's stats into this one.
    pub fn add(&mut self, other: &OptStats) {
        self.rows_in += other.rows_in;
        self.rows_deduped += other.rows_deduped;
        self.llm_calls += other.llm_calls;
        self.prefill_tokens_saved += other.prefill_tokens_saved;
        self.batches += other.batches;
        self.cache_hits += other.cache_hits;
        self.cache_tokens_saved += other.cache_tokens_saved;
        self.rows_skipped += other.rows_skipped;
        self.reranks += other.reranks;
        self.llm_retries += other.llm_retries;
        self.rows_failed += other.rows_failed;
        self.rows_cheap += other.rows_cheap;
        self.rows_escalated += other.rows_escalated;
        self.tier_agreements += other.tier_agreements;
        self.cheap_prompt_tokens += other.cheap_prompt_tokens;
        self.cheap_output_tokens += other.cheap_output_tokens;
        self.esc_prompt_tokens += other.esc_prompt_tokens;
        self.esc_output_tokens += other.esc_output_tokens;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn pred(column: &str, op: CmpOp, literal: &str) -> SqlPredicate {
        SqlPredicate {
            column: column.into(),
            op,
            literal: literal.into(),
        }
    }

    #[test]
    fn predicate_string_and_numeric_comparison() {
        let p = pred("c", CmpOp::Eq, "Fresh");
        assert!(p.eval(&Value::Str("Fresh".into())));
        assert!(!p.eval(&Value::Str("Rotten".into())));
        assert!(!p.eval(&Value::Null));
        let n = pred("c", CmpOp::Ge, "10");
        assert!(n.eval(&Value::Int(10)));
        assert!(n.eval(&Value::Float(10.5)));
        assert!(!n.eval(&Value::Int(9)));
        // "9" vs "10" compares numerically, not lexicographically.
        assert!(pred("c", CmpOp::Lt, "10").eval(&Value::Str("9".into())));
        assert!(pred("c", CmpOp::Ne, "x").eval(&Value::Str("y".into())));
        assert!(pred("c", CmpOp::Le, "b").eval(&Value::Str("a".into())));
        assert!(pred("c", CmpOp::Gt, "a").eval(&Value::Str("b".into())));
    }

    fn filter_query(name: &str, labels: usize, output_tokens: f64) -> LlmQuery {
        LlmQuery::filter(
            name,
            "q?",
            vec!["a".into()],
            (0..labels).map(|i| format!("L{i}")).collect(),
            "L0",
            output_tokens,
        )
    }

    fn where_plan(ops: Vec<LogicalOp>) -> LogicalPlan {
        let mut all = vec![LogicalOp::Scan { table: "t".into() }];
        all.extend(ops);
        all.push(LogicalOp::Project {
            columns: vec!["a".into()],
        });
        all.push(LogicalOp::Limit { n: 5 });
        LogicalPlan { ops: all }
    }

    #[test]
    fn reorder_pushes_sql_filters_below_llm_filters() {
        let plan = where_plan(vec![
            LogicalOp::LlmFilter {
                query: filter_query("f1", 2, 2.0),
                negated: false,
                est: Some(LlmOpEstimate::new(100.0, 2.0, 0.5)),
            },
            LogicalOp::SqlFilter {
                pred: pred("a", CmpOp::Eq, "x"),
            },
        ]);
        let (opt, notes) = optimize_plan(&plan, &OptimizerConfig::all(), &Pricing::gpt4o_mini());
        assert!(matches!(opt.ops[1], LogicalOp::SqlFilter { .. }));
        assert!(matches!(opt.ops[2], LogicalOp::LlmFilter { .. }));
        assert_eq!(notes.len(), 1);
        // Downstream operators stay put.
        assert!(matches!(opt.ops[3], LogicalOp::Project { .. }));
        assert_eq!(opt.limit(), Some(5));
    }

    #[test]
    fn reorder_sorts_llm_filters_by_rank() {
        let cheap_picky = LogicalOp::LlmFilter {
            query: filter_query("cheap", 4, 2.0),
            negated: false,
            est: Some(LlmOpEstimate::new(50.0, 2.0, 0.25)),
        };
        let pricey_lax = LogicalOp::LlmFilter {
            query: filter_query("pricey", 2, 40.0),
            negated: false,
            est: Some(LlmOpEstimate::new(900.0, 40.0, 0.5)),
        };
        let plan = where_plan(vec![pricey_lax.clone(), cheap_picky.clone()]);
        let (opt, _) = optimize_plan(&plan, &OptimizerConfig::all(), &Pricing::gpt4o_mini());
        assert_eq!(opt.ops[1], cheap_picky);
        assert_eq!(opt.ops[2], pricey_lax);
    }

    #[test]
    fn reorder_off_is_identity() {
        let plan = where_plan(vec![
            LogicalOp::LlmFilter {
                query: filter_query("f1", 2, 2.0),
                negated: false,
                est: Some(LlmOpEstimate::new(100.0, 2.0, 0.5)),
            },
            LogicalOp::SqlFilter {
                pred: pred("a", CmpOp::Eq, "x"),
            },
        ]);
        let (opt, notes) = optimize_plan(&plan, &OptimizerConfig::none(), &Pricing::gpt4o_mini());
        assert_eq!(opt, plan);
        assert!(notes.is_empty());
    }

    #[test]
    fn estimate_covers_instruction_and_fields() {
        let mut t = Table::new(Schema::of_strings(&["a", "b"]));
        for i in 0..10 {
            t.push_row(vec![
                format!("value number {i} with words").into(),
                "const".into(),
            ])
            .unwrap();
        }
        let tok = Tokenizer::new();
        let q = LlmQuery::filter(
            "f",
            "Is it good?",
            vec!["a".into(), "b".into()],
            vec!["Yes".into(), "No".into()],
            "Yes",
            2.0,
        );
        let e = estimate_llm_op(&t, &tok, &q, false);
        assert!(e.prompt_tokens_per_row > tok.count(&q.full_instruction()) as f64);
        assert_eq!(e.selectivity, 0.5);
        assert_eq!(e.output_tokens_per_row, 2.0);
        let neg = estimate_llm_op(&t, &tok, &q, true);
        assert_eq!(neg.selectivity, 0.5);
        let three = LlmQuery::filter(
            "f3",
            "pick",
            vec!["a".into()],
            vec!["A".into(), "B".into(), "C".into(), "D".into()],
            "A",
            2.0,
        );
        assert_eq!(estimate_llm_op(&t, &tok, &three, true).selectivity, 0.75);
    }

    #[test]
    fn explain_renders_top_down() {
        let plan = where_plan(vec![LogicalOp::SqlFilter {
            pred: pred("a", CmpOp::Ne, "x"),
        }]);
        let text = plan.explain();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("Limit 5"));
        assert!(lines[1].contains("Project [a]"));
        assert!(lines[2].contains("SqlFilter a <> 'x'"));
        assert!(lines[3].contains("Scan t"));
    }

    #[test]
    fn opt_stats_accumulate() {
        let mut a = OptStats {
            rows_in: 10,
            rows_deduped: 4,
            llm_calls: 6,
            prefill_tokens_saved: 100,
            batches: 1,
            cache_hits: 2,
            cache_tokens_saved: 50,
            rows_skipped: 5,
            reranks: 1,
            llm_retries: 2,
            rows_failed: 1,
            rows_cheap: 7,
            rows_escalated: 3,
            tier_agreements: 6,
            cheap_prompt_tokens: 300,
            cheap_output_tokens: 30,
            esc_prompt_tokens: 90,
            esc_output_tokens: 9,
        };
        a.add(&OptStats {
            rows_in: 8,
            rows_deduped: 1,
            llm_calls: 3,
            prefill_tokens_saved: 25,
            batches: 1,
            cache_hits: 1,
            cache_tokens_saved: 10,
            rows_skipped: 0,
            reranks: 1,
            llm_retries: 1,
            rows_failed: 0,
            rows_cheap: 2,
            rows_escalated: 1,
            tier_agreements: 1,
            cheap_prompt_tokens: 100,
            cheap_output_tokens: 10,
            esc_prompt_tokens: 30,
            esc_output_tokens: 3,
        });
        assert_eq!(a.rows_in, 18);
        assert_eq!(a.llm_calls, 9);
        assert_eq!(a.batches, 2);
        assert_eq!(a.cache_hits, 3);
        assert_eq!(a.cache_tokens_saved, 60);
        assert_eq!(a.rows_skipped, 5);
        assert_eq!(a.reranks, 2);
        assert_eq!(a.llm_retries, 3);
        assert_eq!(a.rows_failed, 1);
        assert_eq!(a.rows_cheap, 9);
        assert_eq!(a.rows_escalated, 4);
        assert_eq!(a.tier_agreements, 7);
        assert_eq!(a.cheap_prompt_tokens, 400);
        assert_eq!(a.cheap_output_tokens, 40);
        assert_eq!(a.esc_prompt_tokens, 120);
        assert_eq!(a.esc_output_tokens, 12);
        // Early-stop savings count toward avoided requests: 18 offered
        // + 5 never scanned − 9 issued.
        assert_eq!(a.llm_calls_saved(), 14);
    }
}
