//! Query execution: the executor, its options and its reports.
//!
//! [`QueryExecutor`] implements the paper's end-to-end pipeline (§5): the
//! input table is lowered to the optimizer's representation, a
//! [`Reorderer`] produces a request schedule, each scheduled row becomes one
//! engine request (instruction prefix + field fragments in the scheduled
//! order), the serving simulator replays the batch, and a simulated model
//! produces per-row outputs that are parsed back into relational results.
//!
//! What lives where follows how long it is known for:
//!
//! * **per executor** (this module): the engine, the simulated labeler, the
//!   tokenizer and the **session answer cache** ([`crate::AnswerCache`],
//!   with its checkpoint and restore) that every query run on the executor
//!   shares; the option, report and error types.
//! * **per operator** (`pipeline::Stage`): the table, query, solver and
//!   ground truth, taken once when the stage opens, what follows from them
//!   — used columns, projected dependencies, answer-cache identity,
//!   output-length stream — and the stage's engines (`n ≥ 1` routed
//!   [`llmqo_serve::EngineSession`]s per model tier).
//! * **per batch** (`pipeline::batch`): `Stage::run_batch(rows)`, the one
//!   door to the LLM, steps any ascending subset of the table's rows through
//!   encode + cache lookup → solve → serve → label → escalate.
//!
//! [`execute`] opens a stage, runs every row as one batch and finishes it;
//! [`execute_multi`] (the paper's T3 chains) runs one stage per query over
//! the shrinking list of surviving *original* row indices; the SQL runner
//! drives the same door batch by batch, one stage per operator, for lazy
//! `LIMIT`, adaptive and pipelined execution. Requests reach a stage engine
//! as borrowed views of the encoded table (`row_prompt`: the instruction,
//! then the row's fragments in scheduled order), so a [`SimRequest`] is
//! built only by [`plan_requests`].
//!
//! [`execute`]: QueryExecutor::execute
//! [`execute_multi`]: QueryExecutor::execute_multi
//!
//! Reordering is *semantics-preserving by construction*: schedules are
//! validated permutations and every output is keyed by its original row
//! index. Deduplication and the answer cache share engine requests, not
//! answers: the simulated labeler is this harness's per-row measurement
//! instrument (accuracy studies couple its draws by row), so every row
//! still receives its own generated output and optimizations cannot change
//! query results.

use crate::adaptive::{AnswerCache, AnswerCacheStats, CacheSnapshotEntry};
use crate::optimizer::OptStats;
use crate::pipeline::Stage;
use crate::query::{LlmQuery, QueryKind};
use crate::table::{Table, TableError};
use llmqo_core::{FunctionalDeps, PhcReport, Reorderer, SolveError};
use llmqo_costmodel::CascadePlan;
use llmqo_serve::{EngineError, EngineReport, SimEngine, SimLlm, SimRequest};
use llmqo_tokenizer::{TokenId, Tokenizer};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

/// Errors from query execution.
#[derive(Debug)]
pub enum ExecError {
    /// Table/column errors (unknown field, arity).
    Table(TableError),
    /// The reordering solver failed (budget exhausted, FD mismatch).
    Solve(SolveError),
    /// The serving engine could not run the batch.
    Engine(EngineError),
    /// The query listed no fields.
    EmptyFields,
    /// A non-final stage of a multi-invocation chain was not a filter.
    NotAFilter {
        /// The offending stage's name.
        stage: String,
    },
    /// An LLM call kept failing (injected transient errors, see
    /// [`StatementFaults`]) until the per-statement retry budget ran out,
    /// and partial-result mode was off.
    LlmUnavailable {
        /// Original row index of the first row that could not be served.
        row: usize,
        /// Attempts made (the statement budget).
        attempts: u32,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Table(e) => write!(f, "table error: {e}"),
            ExecError::Solve(e) => write!(f, "solver error: {e}"),
            ExecError::Engine(e) => write!(f, "engine error: {e}"),
            ExecError::EmptyFields => write!(f, "query must pass at least one field"),
            ExecError::NotAFilter { stage } => {
                write!(
                    f,
                    "non-final multi-invocation stage {stage} must be a filter"
                )
            }
            ExecError::LlmUnavailable { row, attempts } => {
                write!(
                    f,
                    "LLM call for row {row} failed after {attempts} attempt(s) \
                     and partial results are disabled"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<TableError> for ExecError {
    fn from(e: TableError) -> Self {
        ExecError::Table(e)
    }
}

impl From<SolveError> for ExecError {
    fn from(e: SolveError) -> Self {
        ExecError::Solve(e)
    }
}

impl From<EngineError> for ExecError {
    fn from(e: EngineError) -> Self {
        ExecError::Engine(e)
    }
}

/// Everything measured while executing one query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Query name.
    pub query: String,
    /// Solver name (`"ggr"`, `"original"`, …).
    pub solver: String,
    /// Solver wall-clock time (paper Table 5).
    pub solve_time_s: f64,
    /// The solver's claimed PHC.
    pub claimed_phc: u64,
    /// Ground-truth field-level PHC of the schedule.
    pub field_phc: PhcReport,
    /// Serving-side results (job completion time, PHR, …).
    pub engine: EngineReport,
    /// SQL-aware optimizer savings (dedup, lazy `LIMIT`).
    pub opt: OptStats,
}

/// One row's model output.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowOutput {
    /// Original row index in the input table.
    pub row: usize,
    /// The model's answer text.
    pub text: String,
}

/// Result of executing one query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryOutput {
    /// Per-row outputs, sorted by original row index.
    pub outputs: Vec<RowOutput>,
    /// For filters: original row indices passing the predicate, ascending.
    pub selected_rows: Vec<usize>,
    /// For aggregations: the average of parsed numeric outputs.
    pub aggregate: Option<f64>,
    /// Original row indices whose LLM calls exhausted the
    /// [`StatementFaults`] retry budget, ascending. Empty unless fault
    /// injection was on and `partial_results` degraded the query; these
    /// rows appear in no other output field.
    pub failed_rows: Vec<usize>,
    /// Measurements.
    pub report: ExecutionReport,
}

/// Deterministic per-statement fault injection for the SQL executor: each
/// engine call rolls against `error_ppm` (seeded, pure — reruns reproduce
/// the same failures byte for byte), failed rolls retry as fresh engine
/// requests (warm prefix cache) up to `max_attempts`, and rows still
/// failing degrade per `partial_results` — dropped with a per-row
/// annotation, or a clean [`ExecError::LlmUnavailable`]. Never a panic.
///
/// Rows answered from the session answer cache never reach the engine and
/// therefore never roll: cached answers ride out an outage.
///
/// # Examples
///
/// ```
/// use llmqo_relational::StatementFaults;
///
/// let faults = StatementFaults::new(100_000, 7); // 10% of calls fail
/// assert_eq!(faults.max_attempts, 3);
/// assert!(faults.partial_results);
/// let strict = faults.with_attempts(5).strict();
/// assert!(!strict.partial_results);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatementFaults {
    /// Probability that one engine call fails transiently, in parts per
    /// million (`100_000` = 10%). Zero disables injection entirely.
    pub error_ppm: u32,
    /// Seed for the per-call failure rolls.
    pub seed: u64,
    /// Serving attempts allowed per representative row, **including** the
    /// first (values below 1 behave as 1).
    pub max_attempts: u32,
    /// After the budget: `true` drops the failed rows and annotates them in
    /// [`SqlResult::notes`](crate::SqlResult::notes) (partial results);
    /// `false` fails the statement with [`ExecError::LlmUnavailable`].
    pub partial_results: bool,
}

impl StatementFaults {
    /// Faults at `error_ppm` with seed `seed`, 3 attempts, partial results.
    pub fn new(error_ppm: u32, seed: u64) -> Self {
        StatementFaults {
            error_ppm,
            seed,
            max_attempts: 3,
            partial_results: true,
        }
    }

    /// Overrides the per-row attempt budget.
    #[must_use]
    pub fn with_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts;
        self
    }

    /// Fail the whole statement instead of degrading to partial results.
    #[must_use]
    pub fn strict(mut self) -> Self {
        self.partial_results = false;
        self
    }
}

/// Physical-layer options for [`QueryExecutor::execute_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecOptions {
    /// Exact request deduplication: rows with identical projected field
    /// values share one engine request. Off by default (the differential
    /// oracle's behaviour).
    pub dedup: bool,
    /// Session answer cache: rows whose exact prompt (instruction +
    /// serialized projected fields) was ever submitted on this executor are
    /// answered without a new engine request — across batches, operators,
    /// and successive queries. Off by default. Queries with a
    /// [`key_field`](crate::LlmQuery::key_field) are never cached: their
    /// labeler draws depend on where the schedule placed the key field
    /// (the positional-accuracy instrument of Fig. 6), which a cache hit
    /// has no schedule to derive from.
    pub answer_cache: bool,
    /// Deterministic fault injection and graceful degradation. `None` (the
    /// default) and `Some` with a zero `error_ppm` are byte-identical to
    /// fault-free execution.
    pub faults: Option<StatementFaults>,
    /// Model-tier cascade: answer every row on the cheap tier, escalate
    /// rows whose deterministic confidence falls below the plan's
    /// threshold to the expensive tier. `None` (the default) is single-tier
    /// execution; a plan with `escalate_below ≥ 1` is byte-identical to it
    /// (every row takes the expensive answer), and `escalate_below ≤ 0` is
    /// the pure cheap tier. Escalation is a pure function of
    /// `(plan.seed, original row)`, so dedup, caching, batching, and
    /// pipelining never change which rows escalate or what they answer.
    pub cascade: Option<CascadePlan>,
}

impl ExecOptions {
    /// Options with deduplication enabled (answer cache off).
    pub fn deduped() -> Self {
        ExecOptions {
            dedup: true,
            ..ExecOptions::default()
        }
    }

    /// Every physical optimization on: dedup plus the session answer cache.
    pub fn optimized() -> Self {
        ExecOptions {
            dedup: true,
            answer_cache: true,
            faults: None,
            cascade: None,
        }
    }

    /// Options with a model-tier cascade (dedup and answer cache off — the
    /// form the cascade differential suite compares against single-tier
    /// oracles).
    pub fn cascaded(plan: CascadePlan) -> Self {
        ExecOptions {
            cascade: Some(plan),
            ..ExecOptions::default()
        }
    }
}

/// What one batch (or an accumulation of batches) of LLM evaluation
/// produced, before being shaped into a [`QueryOutput`].
#[derive(Debug, Clone, Default)]
pub(crate) struct StageOutcome {
    /// Per-row outputs in original row indices (sorted within a batch).
    pub outputs: Vec<RowOutput>,
    /// Original row indices dropped after exhausting the fault retry
    /// budget (partial-result degradation).
    pub failed_rows: Vec<usize>,
    /// Total solver wall-clock time.
    pub solve_time_s: f64,
    /// Summed claimed PHC across batches.
    pub claimed_phc: u64,
    /// Summed ground-truth PHC across batches.
    pub field_phc: PhcReport,
    /// Optimizer savings.
    pub opt: OptStats,
}

impl StageOutcome {
    /// Folds a later batch's outcome into this one.
    pub fn absorb(&mut self, other: StageOutcome) {
        self.outputs.extend(other.outputs);
        self.failed_rows.extend(other.failed_rows);
        self.solve_time_s += other.solve_time_s;
        self.claimed_phc += other.claimed_phc;
        self.field_phc.phc += other.field_phc.phc;
        self.field_phc.hit_tokens += other.field_phc.hit_tokens;
        self.field_phc.total_tokens += other.field_phc.total_tokens;
        self.opt.add(&other.opt);
    }

    /// Shapes the accumulated outcome into a [`QueryOutput`], deriving the
    /// selection (filters) and the aggregate (aggregations) from outputs.
    pub fn into_query_output(
        mut self,
        query: &LlmQuery,
        solver: &str,
        engine: EngineReport,
    ) -> QueryOutput {
        // Every batch sorts its outputs and batches arrive in ascending
        // candidate order.
        debug_assert!(self.outputs.is_sorted_by_key(|o| o.row));
        self.failed_rows.sort_unstable();
        let selected_rows = match (&query.kind, &query.predicate_label) {
            (QueryKind::Filter, Some(label)) => self
                .outputs
                .iter()
                .filter(|o| &o.text == label)
                .map(|o| o.row)
                .collect(),
            _ => Vec::new(),
        };
        let aggregate = if query.kind == QueryKind::Aggregation {
            let scores: Vec<f64> = self
                .outputs
                .iter()
                .filter_map(|o| o.text.trim().parse::<f64>().ok())
                .collect();
            if scores.is_empty() {
                None
            } else {
                Some(scores.iter().sum::<f64>() / scores.len() as f64)
            }
        } else {
            None
        };
        QueryOutput {
            outputs: self.outputs,
            selected_rows,
            aggregate,
            failed_rows: self.failed_rows,
            report: ExecutionReport {
                query: query.name.clone(),
                solver: solver.to_owned(),
                solve_time_s: self.solve_time_s,
                claimed_phc: self.claimed_phc,
                field_phc: self.field_phc,
                engine,
                opt: self.opt,
            },
        }
    }
}

/// A deterministic snapshot of the LLM work a statement has already paid
/// for: the executor's answer-cache entries, sorted by
/// `(instruction, key hash)`.
///
/// Taken with [`QueryExecutor::checkpoint`] (typically after a
/// mid-statement failure — chaos `all-replicas-lost`, a deadline, a
/// process death) and replayed with [`QueryExecutor::restore`]: the re-run
/// statement answers every checkpointed prompt from the cache and only
/// re-issues the unfinished tail, with byte-identical final rows (cache
/// hits share engine work, never labeler draws — the per-row generation
/// path is untouched).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatementCheckpoint {
    /// Exported answer-cache entries (instruction text + hashed row key).
    pub entries: Vec<CacheSnapshotEntry>,
}

impl StatementCheckpoint {
    /// Number of cached prompts the checkpoint carries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the checkpoint carries no cached prompts.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Executes [`LlmQuery`]s against a [`SimEngine`] with a pluggable
/// reordering policy.
///
/// # Examples
///
/// See the crate-level documentation for a full pipeline example.
pub struct QueryExecutor<'a> {
    pub(crate) engine: &'a SimEngine,
    pub(crate) llm: &'a dyn SimLlm,
    pub(crate) tokenizer: Tokenizer,
    /// Session answer cache (see [`AnswerCache`]): shared by every query
    /// executed on this executor, consulted only when the caller opts in
    /// via [`ExecOptions::answer_cache`]. Interior mutability keeps the
    /// execution API `&self` (the SQL runner holds the executor by shared
    /// reference).
    pub(crate) cache: RefCell<AnswerCache>,
}

impl<'a> fmt::Debug for QueryExecutor<'a> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryExecutor")
            .field("tokenizer", &self.tokenizer)
            .finish_non_exhaustive()
    }
}

impl<'a> QueryExecutor<'a> {
    /// Creates an executor.
    pub fn new(engine: &'a SimEngine, llm: &'a dyn SimLlm, tokenizer: Tokenizer) -> Self {
        QueryExecutor {
            engine,
            llm,
            tokenizer,
            cache: RefCell::new(AnswerCache::new()),
        }
    }

    /// Lifetime hit/miss/entry counters of the session answer cache.
    pub fn answer_cache_stats(&self) -> AnswerCacheStats {
        self.cache.borrow().stats()
    }

    /// Drops every answer-cache entry and counter (e.g. between unrelated
    /// workloads sharing one executor).
    pub fn clear_answer_cache(&self) {
        self.cache.borrow_mut().clear();
    }

    /// Budgets the session answer cache (entries and/or bytes, `None` =
    /// unlimited), evicting least-recently-used entries immediately if the
    /// new budget is already exceeded. Unbounded by default.
    pub fn set_answer_cache_budget(&self, max_entries: Option<usize>, max_bytes: Option<usize>) {
        self.cache.borrow_mut().set_budget(max_entries, max_bytes);
    }

    /// Snapshots the session answer cache as a [`StatementCheckpoint`].
    ///
    /// The executor inserts each batch's answers into the cache as the
    /// batch completes, so a checkpoint taken after a mid-statement failure
    /// captures exactly the LLM work the dead statement already paid for.
    /// [`restore`](QueryExecutor::restore) that snapshot into a fresh
    /// executor and re-run the statement: completed prompts are answered
    /// from the cache (byte-identical rows — cache hits share engine work,
    /// never labeler draws) and only the unfinished tail re-issues LLM
    /// calls.
    pub fn checkpoint(&self) -> StatementCheckpoint {
        let entries = self.cache.borrow().export();
        if llmqo_obs::enabled() {
            let reg = llmqo_obs::registry();
            reg.counter("sql.checkpoint.exported").inc();
            reg.counter("sql.checkpoint.entries_exported")
                .add(entries.len() as u64);
        }
        StatementCheckpoint { entries }
    }

    /// Merges `checkpoint` into the session answer cache (existing entries
    /// win). See [`checkpoint`](QueryExecutor::checkpoint).
    pub fn restore(&self, checkpoint: &StatementCheckpoint) {
        self.cache.borrow_mut().absorb(&checkpoint.entries);
        if llmqo_obs::enabled() {
            let reg = llmqo_obs::registry();
            reg.counter("sql.checkpoint.restored").inc();
            reg.counter("sql.checkpoint.entries_restored")
                .add(checkpoint.entries.len() as u64);
        }
    }

    /// Executes `query` over `table`, scheduling requests with `reorderer`.
    ///
    /// `fds` are functional dependencies over the *full table schema*; they
    /// are projected onto the query's fields automatically. `truth` supplies
    /// the ground-truth answer per original row index (the dataset's labels).
    ///
    /// Equivalent to [`execute_with`](QueryExecutor::execute_with) with
    /// [`ExecOptions::default`] — no deduplication, every row its own
    /// engine request.
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub fn execute(
        &self,
        table: &Table,
        query: &LlmQuery,
        reorderer: &dyn Reorderer,
        fds: &FunctionalDeps,
        truth: &dyn Fn(usize) -> String,
    ) -> Result<QueryOutput, ExecError> {
        self.execute_with(table, query, reorderer, fds, truth, ExecOptions::default())
    }

    /// [`execute`](QueryExecutor::execute) with physical-layer options —
    /// currently exact request deduplication ([`ExecOptions::dedup`]).
    /// Deduplication never changes query results (each row still generates
    /// its own output); it shares engine requests between rows whose
    /// projected field values are identical, and the savings land in
    /// [`ExecutionReport::opt`].
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub fn execute_with(
        &self,
        table: &Table,
        query: &LlmQuery,
        reorderer: &dyn Reorderer,
        fds: &FunctionalDeps,
        truth: &dyn Fn(usize) -> String,
        opts: ExecOptions,
    ) -> Result<QueryOutput, ExecError> {
        let mut stage = Stage::open(self, table, query, reorderer, fds, truth, opts, 1)?;
        let all_rows: Vec<usize> = (0..table.nrows()).collect();
        let out = stage.run_batch(&all_rows)?;
        stage.outcome.absorb(out);
        Ok(stage.finish())
    }

    /// Executes a multi-LLM invocation chain (paper T3): every stage but the
    /// last must be a filter; each stage runs over the rows selected by the
    /// previous one. Row indices in all outputs refer to the *original*
    /// table.
    ///
    /// # Errors
    ///
    /// See [`ExecError`]; additionally [`ExecError::NotAFilter`] if a
    /// non-final stage is not a filter query.
    pub fn execute_multi(
        &self,
        table: &Table,
        stages: &[&LlmQuery],
        reorderer: &dyn Reorderer,
        fds: &FunctionalDeps,
        truths: &[&dyn Fn(usize) -> String],
    ) -> Result<Vec<QueryOutput>, ExecError> {
        assert_eq!(
            stages.len(),
            truths.len(),
            "one ground-truth provider per stage"
        );
        let mut results: Vec<QueryOutput> = Vec::with_capacity(stages.len());
        // The rows still in the chain, as original indices.
        let mut rows: Vec<usize> = (0..table.nrows()).collect();
        for (i, (query, truth)) in stages.iter().zip(truths).enumerate() {
            if i + 1 < stages.len() && query.kind != QueryKind::Filter {
                return Err(ExecError::NotAFilter {
                    stage: query.name.clone(),
                });
            }
            let opts = ExecOptions::default();
            let mut stage = Stage::open(self, table, query, reorderer, fds, truth, opts, 1)?;
            let out = stage.run_batch(&rows)?;
            stage.outcome.absorb(out);
            let out = stage.finish();
            rows.clone_from(&out.selected_rows);
            results.push(out);
        }
        Ok(results)
    }
}

/// Builds the engine request stream for a schedule: one [`SimRequest`] per
/// scheduled row, carrying the query's instruction prefix followed by the
/// row's field fragments in scheduled order. Fragments are `Arc`-shared with
/// the [`EncodedTable`](crate::EncodedTable), so equal field values across
/// rows share token storage. Request ids are *original* row indices, and
/// output lengths are the executor's deterministic per-row draws — callers
/// (the executor itself, benchmarks, the cluster router) therefore all
/// serve byte-identical workloads for a given plan.
pub fn plan_requests(
    encoded: &crate::EncodedTable,
    plan: &llmqo_core::ReorderPlan,
    query: &LlmQuery,
) -> Vec<SimRequest> {
    let output_lens = OutputLens::new(&query.name, query.output_tokens_mean);
    plan.rows
        .iter()
        .map(|rp| SimRequest {
            id: rp.row,
            prompt: row_prompt(encoded, rp).cloned().collect(),
            output_len: output_lens.sample(rp.row),
        })
        .collect()
}

/// One scheduled row's prompt as a borrowed view: the query's instruction
/// prefix followed by the row's field fragments in scheduled order, where
/// `rp.row` indexes `encoded.reorder` (the whole table, or one row per
/// dedup group of an executor batch). Single prompt-assembly path, so every
/// caller (executor, benchmarks, cluster router) serves byte-identical
/// workloads for a plan.
pub(crate) fn row_prompt<'a>(
    encoded: &'a crate::EncodedTable,
    rp: &'a llmqo_core::RowPlan,
) -> impl Iterator<Item = &'a Arc<[TokenId]>> + 'a {
    std::iter::once(&encoded.instruction).chain(rp.fields.iter().map(move |&f| {
        let cell = encoded.reorder.cell(rp.row, f as usize);
        &encoded.fragments[cell.value.as_u32() as usize]
    }))
}

/// Projects full-schema functional dependencies onto the used columns,
/// renumbering to the encoded table's column space.
pub fn project_fds(fds: &FunctionalDeps, used_cols: &[usize]) -> FunctionalDeps {
    let groups: Vec<Vec<u32>> = fds
        .groups()
        .into_iter()
        .filter_map(|group| {
            let members: Vec<u32> = group
                .iter()
                .filter_map(|&c| {
                    used_cols
                        .iter()
                        .position(|&u| u == c as usize)
                        .map(|p| p as u32)
                })
                .collect();
            (members.len() >= 2).then_some(members)
        })
        .collect();
    FunctionalDeps::from_groups(used_cols.len(), groups)
        .unwrap_or_else(|_| unreachable!("projected indices are in range by construction"))
}

/// Deterministic per-row output lengths around a query's mean (±25%): the
/// draw is FNV-1a over the query name followed by the row index, with the
/// name — the same for every request of a batch — folded in once.
pub(crate) struct OutputLens {
    /// FNV-1a state after the query name.
    name_state: u64,
    mean: f64,
}

impl OutputLens {
    pub(crate) fn new(query_name: &str, mean: f64) -> Self {
        OutputLens {
            name_state: fnv1a(0xcbf2_9ce4_8422_2325, query_name.bytes()),
            mean,
        }
    }

    pub(crate) fn sample(&self, row: usize) -> u32 {
        let h = fnv1a(self.name_state, (row as u64).to_le_bytes());
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        let len = self.mean * (0.75 + 0.5 * unit);
        len.round().max(1.0) as u32
    }
}

fn fnv1a(state: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(state, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use llmqo_core::{Ggr, OriginalOrder};
    use llmqo_serve::{Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, OracleLlm};

    fn engine() -> SimEngine {
        SimEngine::new(
            Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
            EngineConfig::default(),
        )
    }

    fn table(n: usize) -> Table {
        let mut t = Table::new(Schema::of_strings(&["review", "product"]));
        for i in 0..n {
            t.push_row(vec![
                format!("review text number {i} with some unique words").into(),
                format!("product description {} shared across rows", i / 5).into(),
            ])
            .unwrap();
        }
        t
    }

    fn filter_query() -> LlmQuery {
        LlmQuery::filter(
            "test-filter",
            "Is the review positive? Answer Yes or No.",
            vec!["review".into(), "product".into()],
            vec!["Yes".into(), "No".into()],
            "Yes",
            2.0,
        )
    }

    #[test]
    fn oracle_filter_selects_exactly_truth_rows() {
        let eng = engine();
        let ex = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let t = table(20);
        let truth = |row: usize| {
            if row.is_multiple_of(2) {
                "Yes".into()
            } else {
                "No".into()
            }
        };
        let out = ex
            .execute(
                &t,
                &filter_query(),
                &OriginalOrder,
                &FunctionalDeps::empty(2),
                &truth,
            )
            .unwrap();
        let expected: Vec<usize> = (0..20).filter(|r| r % 2 == 0).collect();
        assert_eq!(out.selected_rows, expected);
        assert_eq!(out.outputs.len(), 20);
    }

    #[test]
    fn reordering_preserves_semantics_with_oracle() {
        let eng = engine();
        let ex = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let t = table(30);
        let truth = |row: usize| {
            if row.is_multiple_of(3) {
                "Yes".into()
            } else {
                "No".into()
            }
        };
        let fds = FunctionalDeps::empty(2);
        let a = ex
            .execute(&t, &filter_query(), &OriginalOrder, &fds, &truth)
            .unwrap();
        let b = ex
            .execute(&t, &filter_query(), &Ggr::default(), &fds, &truth)
            .unwrap();
        assert_eq!(a.selected_rows, b.selected_rows);
        assert_eq!(a.outputs, b.outputs);
    }

    #[test]
    fn ggr_improves_hit_rate_and_runtime() {
        let eng = engine();
        let ex = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let t = table(300);
        let truth = |_: usize| "Yes".to_string();
        let fds = FunctionalDeps::empty(2);
        let orig = ex
            .execute(&t, &filter_query(), &OriginalOrder, &fds, &truth)
            .unwrap();
        let ggr = ex
            .execute(&t, &filter_query(), &Ggr::default(), &fds, &truth)
            .unwrap();
        assert!(
            ggr.report.engine.prefix_hit_rate() > orig.report.engine.prefix_hit_rate(),
            "GGR {} vs original {}",
            ggr.report.engine.prefix_hit_rate(),
            orig.report.engine.prefix_hit_rate()
        );
        assert!(ggr.report.engine.job_completion_time_s < orig.report.engine.job_completion_time_s);
        assert!(ggr.report.field_phc.phc >= orig.report.field_phc.phc);
    }

    #[test]
    fn aggregation_averages_scores() {
        let eng = engine();
        let ex = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let t = table(10);
        let q = LlmQuery::aggregation(
            "agg",
            "Rate 1-5.",
            vec!["review".into(), "product".into()],
            (1, 5),
            2.0,
        );
        let truth = |row: usize| ((row % 5) + 1).to_string();
        let out = ex
            .execute(&t, &q, &OriginalOrder, &FunctionalDeps::empty(2), &truth)
            .unwrap();
        assert_eq!(out.aggregate, Some(3.0));
    }

    #[test]
    fn multi_invocation_chains_filters() {
        let eng = engine();
        let ex = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let t = table(12);
        let f = filter_query();
        let p = LlmQuery::projection(
            "proj",
            "Summarize the good qualities.",
            vec!["review".into(), "product".into()],
            12.0,
        );
        let truth_filter = |row: usize| if row < 6 { "Yes".into() } else { "No".into() };
        let truth_proj = |row: usize| format!("summary of row {row}");
        let results = ex
            .execute_multi(
                &t,
                &[&f, &p],
                &Ggr::default(),
                &FunctionalDeps::empty(2),
                &[&truth_filter, &truth_proj],
            )
            .unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].selected_rows, vec![0, 1, 2, 3, 4, 5]);
        // Stage 2 ran only over selected rows, reported in original indices.
        let stage2_rows: Vec<usize> = results[1].outputs.iter().map(|o| o.row).collect();
        assert_eq!(stage2_rows, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(results[1].outputs[3].text, "summary of row 3");
        // Stage 2 was offered exactly stage 1's survivors of the caller's
        // table — not a re-encoded copy of it.
        assert_eq!(results[0].report.opt.rows_in, 12);
        assert_eq!(results[1].report.opt.rows_in, 6);
        assert_eq!(results[1].report.opt.llm_calls, 6);
    }

    #[test]
    fn multi_invocation_keys_every_stage_by_original_row() {
        use llmqo_serve::ModelProfile;
        // A noisy labeler draws per (truth, original row): a row's stage-2
        // answer must not depend on which other rows survived stage 1.
        let eng = engine();
        let profile = ModelProfile::llama3_8b().with_base_accuracy(0.6);
        let ex = QueryExecutor::new(&eng, &profile, Tokenizer::new());
        let t = table(60);
        let f = filter_query();
        let g = LlmQuery::filter(
            "second",
            "Does the review mention the product? Answer Yes or No.",
            vec!["review".into(), "product".into()],
            vec!["Yes".into(), "No".into()],
            "Yes",
            2.0,
        );
        let yes_when = |yes: bool| if yes { "Yes" } else { "No" }.to_string();
        let truth_f = |row: usize| yes_when(row % 3 == 1);
        let truth_g = |row: usize| yes_when(row.is_multiple_of(2));
        let fds = FunctionalDeps::empty(2);
        let chain = ex
            .execute_multi(&t, &[&f, &g], &Ggr::default(), &fds, &[&truth_f, &truth_g])
            .unwrap();
        let selected = &chain[0].selected_rows;
        assert!(
            selected
                .iter()
                .enumerate()
                .any(|(local, &row)| local != row),
            "stage 1 must not select a prefix of the table: {selected:?}"
        );
        let stage2_rows: Vec<usize> = chain[1].outputs.iter().map(|o| o.row).collect();
        assert_eq!(&stage2_rows, selected);
        assert_eq!(chain[1].report.opt.rows_in, selected.len() as u64);
        let alone = ex.execute(&t, &g, &Ggr::default(), &fds, &truth_g).unwrap();
        for o in &chain[1].outputs {
            assert_eq!(o.text, alone.outputs[o.row].text, "row {}", o.row);
        }
    }

    #[test]
    fn non_filter_first_stage_rejected() {
        let eng = engine();
        let ex = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let t = table(4);
        let p = LlmQuery::projection("p", "x", vec!["review".into()], 4.0);
        let truth = |_: usize| String::new();
        let err = ex
            .execute_multi(
                &t,
                &[&p, &p],
                &OriginalOrder,
                &FunctionalDeps::empty(2),
                &[&truth, &truth],
            )
            .unwrap_err();
        assert!(matches!(err, ExecError::NotAFilter { .. }));
    }

    #[test]
    fn unknown_field_surfaces() {
        let eng = engine();
        let ex = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let t = table(2);
        let mut q = filter_query();
        q.fields = vec!["nope".into()];
        let truth = |_: usize| "Yes".into();
        // Resolved when the stage opens: an empty table errors like a full
        // one (and like `encode_table` on the same input).
        for t in [&t, &table(0)] {
            assert!(matches!(
                ex.execute(t, &q, &OriginalOrder, &FunctionalDeps::empty(2), &truth),
                Err(ExecError::Table(TableError::UnknownColumn { .. }))
            ));
        }
    }

    #[test]
    fn empty_fields_rejected() {
        let eng = engine();
        let ex = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let t = table(2);
        let mut q = filter_query();
        q.fields = vec![];
        let truth = |_: usize| "Yes".into();
        assert!(matches!(
            ex.execute(&t, &q, &OriginalOrder, &FunctionalDeps::empty(2), &truth),
            Err(ExecError::EmptyFields)
        ));
    }

    #[test]
    fn project_fds_renumbers() {
        // Full schema: 5 columns, group {1, 3}; used columns [3, 1, 4].
        let fds = FunctionalDeps::from_groups(5, vec![vec![1, 3]]).unwrap();
        let p = project_fds(&fds, &[3, 1, 4]);
        assert_eq!(p.ncols(), 3);
        assert_eq!(p.inferred(0), &[1]); // col 3 → pos 0, col 1 → pos 1
        assert_eq!(p.inferred(1), &[0]);
        assert!(p.inferred(2).is_empty());
    }

    #[test]
    fn project_fds_drops_broken_groups() {
        let fds = FunctionalDeps::from_groups(4, vec![vec![0, 2]]).unwrap();
        let p = project_fds(&fds, &[0, 1]); // col 2 not used → group dissolves
        assert!(p.is_trivial());
    }

    #[test]
    fn project_fds_identity_keeps_every_group() {
        let fds = FunctionalDeps::from_groups(4, vec![vec![0, 2], vec![1, 3]]).unwrap();
        let p = project_fds(&fds, &[0, 1, 2, 3]);
        assert_eq!(p.ncols(), 4);
        assert_eq!(p.groups(), fds.groups());
    }

    #[test]
    fn project_fds_keeps_only_derivable_subgroups() {
        // One 3-member group {0, 2, 4}: a projection keeping two members
        // preserves their mutual dependency, one member alone dissolves it.
        let fds = FunctionalDeps::from_groups(5, vec![vec![0, 2, 4]]).unwrap();
        let two = project_fds(&fds, &[4, 0]);
        assert_eq!(two.groups(), vec![vec![0, 1]]); // col 4 → pos 0, col 0 → pos 1
        assert_eq!(two.inferred(0), &[1]);
        assert_eq!(two.inferred(1), &[0]);
        let one = project_fds(&fds, &[2, 1]);
        assert!(one.is_trivial());
    }

    #[test]
    fn project_fds_empty_cases() {
        // No used columns at all → a zero-column trivial dependency set.
        let fds = FunctionalDeps::from_groups(3, vec![vec![0, 1]]).unwrap();
        let none = project_fds(&fds, &[]);
        assert_eq!(none.ncols(), 0);
        assert!(none.is_trivial());
        // Trivial input stays trivial under any projection.
        let p = project_fds(&FunctionalDeps::empty(3), &[2, 0]);
        assert_eq!(p.ncols(), 2);
        assert!(p.is_trivial());
    }

    #[test]
    fn execute_with_dedup_is_output_identical_and_saves_requests() {
        let eng = engine();
        let ex = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let t = table(20);
        // Query over the shared field only: 4 distinct products across 20
        // rows → 4 engine requests under dedup.
        let q = LlmQuery::filter(
            "dedup",
            "Is the product good? Answer Yes or No.",
            vec!["product".into()],
            vec!["Yes".into(), "No".into()],
            "Yes",
            2.0,
        );
        let truth = |row: usize| {
            if row.is_multiple_of(3) {
                "Yes".into()
            } else {
                "No".into()
            }
        };
        let fds = FunctionalDeps::empty(2);
        let off = ex.execute(&t, &q, &Ggr::default(), &fds, &truth).unwrap();
        let on = ex
            .execute_with(
                &t,
                &q,
                &Ggr::default(),
                &fds,
                &truth,
                ExecOptions::deduped(),
            )
            .unwrap();
        assert_eq!(off.outputs, on.outputs);
        assert_eq!(off.selected_rows, on.selected_rows);
        assert_eq!(on.report.opt.llm_calls, 4);
        assert_eq!(on.report.opt.rows_deduped, 16);
        assert_eq!(on.report.engine.completed, 4);
        assert!(on.report.opt.prefill_tokens_saved > 0);
        assert_eq!(off.report.opt.llm_calls, 20);
        assert_eq!(off.report.opt.rows_deduped, 0);
        assert!(
            on.report.engine.job_completion_time_s < off.report.engine.job_completion_time_s,
            "fewer requests should finish sooner"
        );
    }

    #[test]
    fn answer_cache_short_circuits_repeats_across_queries() {
        let eng = engine();
        let ex = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let t = table(20);
        let q = LlmQuery::filter(
            "cached",
            "Is the product good? Answer Yes or No.",
            vec!["product".into()],
            vec!["Yes".into(), "No".into()],
            "Yes",
            2.0,
        );
        let truth = |row: usize| {
            if row.is_multiple_of(3) {
                "Yes".into()
            } else {
                "No".into()
            }
        };
        let fds = FunctionalDeps::empty(2);
        let off = ex.execute(&t, &q, &Ggr::default(), &fds, &truth).unwrap();
        // First cached run: 4 distinct products → 4 requests, all misses.
        let first = ex
            .execute_with(
                &t,
                &q,
                &Ggr::default(),
                &fds,
                &truth,
                ExecOptions::optimized(),
            )
            .unwrap();
        assert_eq!(first.outputs, off.outputs);
        assert_eq!(first.report.opt.llm_calls, 4);
        assert_eq!(first.report.opt.cache_hits, 0);
        assert_eq!(ex.answer_cache_stats().entries, 4);
        // Second run of the same query on the same executor: every row is
        // a cache hit, zero engine requests, identical outputs.
        let second = ex
            .execute_with(
                &t,
                &q,
                &Ggr::default(),
                &fds,
                &truth,
                ExecOptions::optimized(),
            )
            .unwrap();
        assert_eq!(second.outputs, off.outputs);
        assert_eq!(second.selected_rows, off.selected_rows);
        assert_eq!(second.report.opt.llm_calls, 0);
        assert_eq!(second.report.opt.cache_hits, 20);
        assert!(second.report.opt.cache_tokens_saved > 0);
        assert_eq!(second.report.engine.completed, 0);
        let stats = ex.answer_cache_stats();
        assert_eq!(stats.entries, 4);
        assert_eq!(stats.hits, 20);
        // A different instruction over the same fields misses.
        let mut q2 = q.clone();
        q2.user_prompt = "Is the product terrible? Answer Yes or No.".into();
        let third = ex
            .execute_with(
                &t,
                &q2,
                &Ggr::default(),
                &fds,
                &truth,
                ExecOptions::optimized(),
            )
            .unwrap();
        assert_eq!(third.report.opt.cache_hits, 0);
        assert_eq!(third.report.opt.llm_calls, 4);
        ex.clear_answer_cache();
        assert_eq!(ex.answer_cache_stats().entries, 0);
    }

    #[test]
    fn answer_cache_separates_query_kinds_with_identical_prompts() {
        let eng = engine();
        let ex = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let t = table(12);
        let fds = FunctionalDeps::empty(2);
        let filter = LlmQuery::filter(
            "f",
            "Summarize the product.",
            vec!["product".into()],
            vec!["Yes".into(), "No".into()],
            "Yes",
            2.0,
        );
        // Identical prompt text and fields, but a projection: ~16× the
        // decode length. Must not be answered from the filter's entries.
        let projection =
            LlmQuery::projection("p", "Summarize the product.", vec!["product".into()], 32.0);
        let truth = |_: usize| "Yes".to_string();
        ex.execute_with(
            &t,
            &filter,
            &Ggr::default(),
            &fds,
            &truth,
            ExecOptions::optimized(),
        )
        .unwrap();
        let proj = ex
            .execute_with(
                &t,
                &projection,
                &Ggr::default(),
                &fds,
                &truth,
                ExecOptions::optimized(),
            )
            .unwrap();
        assert_eq!(proj.report.opt.cache_hits, 0, "kinds must not collide");
        assert!(proj.report.opt.llm_calls > 0);
        // But the projection's own repeats do share.
        let again = ex
            .execute_with(
                &t,
                &projection,
                &Ggr::default(),
                &fds,
                &truth,
                ExecOptions::optimized(),
            )
            .unwrap();
        assert_eq!(again.report.opt.llm_calls, 0);
        assert_eq!(again.report.opt.cache_hits, 12);
    }

    #[test]
    fn answer_cache_is_exempt_for_key_field_queries() {
        use llmqo_serve::ModelProfile;
        // A position-sensitive labeler with a key-field query: results
        // depend on where the schedule places the key field, which a cache
        // hit could not reproduce — so such queries must never be cached,
        // and a warmed executor must answer exactly like a fresh one.
        let profile = ModelProfile::llama3_8b().with_base_accuracy(0.5);
        let tokenizer = Tokenizer::new();
        let fds = FunctionalDeps::empty(2);
        let q = filter_query().with_key_field("review");
        let truth = |_: usize| "Yes".to_string();

        // t1's rows share t2's field values (same table content), but t1 is
        // executed first so a (buggy) cache would be warm for t2's prompts.
        let t = table(30);
        let eng_fresh = engine();
        let fresh = QueryExecutor::new(&eng_fresh, &profile, tokenizer);
        let baseline = fresh
            .execute_with(
                &t,
                &q,
                &Ggr::default(),
                &fds,
                &truth,
                ExecOptions::optimized(),
            )
            .unwrap();

        let eng_warm = engine();
        let warmed = QueryExecutor::new(&eng_warm, &profile, tokenizer);
        let first = warmed
            .execute_with(
                &t,
                &q,
                &Ggr::default(),
                &fds,
                &truth,
                ExecOptions::optimized(),
            )
            .unwrap();
        let second = warmed
            .execute_with(
                &t,
                &q,
                &Ggr::default(),
                &fds,
                &truth,
                ExecOptions::optimized(),
            )
            .unwrap();
        assert_eq!(first.outputs, baseline.outputs);
        assert_eq!(second.outputs, baseline.outputs, "warm ≡ fresh");
        assert_eq!(second.report.opt.cache_hits, 0, "key-field query cached");
        assert_eq!(warmed.answer_cache_stats().entries, 0);

        // Without a key field the same position-sensitive profile is safe
        // to cache: key_field_pos is the constant 0.5 on every path.
        let q2 = filter_query();
        let off = warmed
            .execute_with(
                &t,
                &q2,
                &Ggr::default(),
                &fds,
                &truth,
                ExecOptions::deduped(),
            )
            .unwrap();
        let on1 = warmed
            .execute_with(
                &t,
                &q2,
                &Ggr::default(),
                &fds,
                &truth,
                ExecOptions::optimized(),
            )
            .unwrap();
        let on2 = warmed
            .execute_with(
                &t,
                &q2,
                &Ggr::default(),
                &fds,
                &truth,
                ExecOptions::optimized(),
            )
            .unwrap();
        assert_eq!(on1.outputs, off.outputs);
        assert_eq!(on2.outputs, off.outputs, "hits label identically");
        assert!(on2.report.opt.cache_hits > 0);
    }

    #[test]
    fn run_llm_rows_on_no_rows_is_empty_and_engine_free() {
        let eng = engine();
        let ex = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let t = table(4);
        let truth = |_: usize| "Yes".to_string();
        let query = filter_query();
        let fds = FunctionalDeps::empty(2);
        let opts = ExecOptions::deduped();
        // A solver that must not be asked: the empty batch reaches neither
        // it nor the engine.
        struct Unreachable;
        impl Reorderer for Unreachable {
            fn name(&self) -> &'static str {
                "unreachable"
            }
            fn reorder(
                &self,
                _: &llmqo_core::ReorderTable,
                _: &FunctionalDeps,
            ) -> Result<llmqo_core::Solution, SolveError> {
                panic!("an empty batch has nothing to solve")
            }
        }
        let mut stage = Stage::open(&ex, &t, &query, &Unreachable, &fds, &truth, opts, 1).unwrap();
        let out = stage.run_batch(&[]).unwrap();
        assert!(out.outputs.is_empty());
        assert_eq!(out.opt.llm_calls, 0);
        assert_eq!((out.opt.rows_in, out.opt.batches), (0, 1));
        assert_eq!(stage.finish().report.engine.completed, 0);
    }

    #[test]
    fn output_len_sampling_is_stable_and_near_mean() {
        let lens = OutputLens::new("q", 100.0);
        let a = lens.sample(7);
        assert_eq!(a, lens.sample(7));
        assert!((75..=125).contains(&a));
        assert_eq!(OutputLens::new("q", 0.4).sample(1), 1, "clamped to ≥1");
    }

    #[test]
    fn folding_the_query_name_once_leaves_every_output_len_unchanged() {
        // The sampler as it was: name and row hashed together per request.
        fn rehash_the_name(query_name: &str, row: usize, mean: f64) -> u32 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in query_name.bytes().chain((row as u64).to_le_bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
            let len = mean * (0.75 + 0.5 * unit);
            len.round().max(1.0) as u32
        }
        let mut pairs = 0;
        for n in 0..100usize {
            let name = format!("{}-{n}", "movies_filter_q".repeat(n % 4));
            let mean = [0.4, 2.0, 37.5, 100.0, 512.0][n % 5];
            let lens = OutputLens::new(&name, mean);
            for i in 0..100usize {
                let row = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (i % 61);
                assert_eq!(lens.sample(row), rehash_the_name(&name, row, mean));
                pairs += 1;
            }
        }
        assert_eq!(pairs, 10_000);
    }

    #[test]
    fn key_field_position_reaches_labeler() {
        use llmqo_serve::ModelProfile;
        // A maximally order-sensitive model must answer differently when the
        // key field moves; with the oracle it cannot. Smoke-check wiring by
        // asserting both run.
        let eng = engine();
        let profile = ModelProfile::llama3_8b().with_base_accuracy(0.5);
        let ex = QueryExecutor::new(&eng, &profile, Tokenizer::new());
        let t = table(40);
        let q = filter_query().with_key_field("review");
        let truth = |_: usize| "Yes".to_string();
        let out = ex
            .execute(&t, &q, &Ggr::default(), &FunctionalDeps::empty(2), &truth)
            .unwrap();
        assert_eq!(out.outputs.len(), 40);
        let yes = out.selected_rows.len();
        assert!(yes > 0 && yes < 40, "profile should be imperfect: {yes}");
    }
}
