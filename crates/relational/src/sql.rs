//! A SQL front-end for LLM queries — the interface the paper's §1 examples
//! are written in:
//!
//! ```sql
//! SELECT movietitle FROM movies
//! WHERE LLM('Is this movie suitable for kids? Answer Yes or No.',
//!           movieinfo, reviewcontent, movietitle) = 'Yes'
//! ```
//!
//! The dialect covers the paper's workloads plus what its SQL-aware
//! optimizations need: `LLM(...)` calls in the projection (T2), `WHERE`
//! conjunctions mixing *several* `LLM(...)` predicates with cheap relational
//! predicates (`col = 'x'`, `col >= 10`, …), both at once (T3
//! multi-invocation), `AVG(LLM(...))` (T4), `LIMIT`, and `EXPLAIN`.
//!
//! Statements compile to a [`LogicalPlan`], pass through the cost-based
//! rewrite rules of the optimizer (see [`OptimizerConfig`]), and run on
//! [`SqlRunner`]'s
//! batched physical executor: cheap predicates run before LLM operators,
//! LLM predicates are ordered by estimated selectivity × per-row cost,
//! duplicate rows share engine requests, and `LIMIT` queries evaluate
//! lazily — stopping engine submission once enough rows qualify. With
//! [`OptimizerConfig::none`] the same executor reproduces the fixed
//! pre-optimizer pipeline, which is the differential oracle the integration
//! tests compare against.

mod compile;
mod explain;
mod lex;
mod parse;
mod schedule;

pub use parse::{parse_sql, LlmCall, Projection, SqlStatement, WhereConjunct};

use crate::adaptive::{SelectivityTracker, DEFAULT_PRIOR_STRENGTH};
use crate::exec::{ExecError, ExecOptions, QueryExecutor, QueryOutput, StageOutcome};
use crate::optimizer::{LogicalOp, LogicalPlan, OptStats, OptimizerConfig, SqlPredicate};
use crate::pipeline::Stage;
use crate::query::LlmQuery;
use crate::table::{Table, TableError};
use explain::NodeStats;
use llmqo_core::{FunctionalDeps, Reorderer};
use llmqo_costmodel::{CascadePlan, Pricing, TierPosterior};
use llmqo_serve::EngineReport;
use schedule::BatchSchedule;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;

/// Errors from parsing or executing SQL.
#[derive(Debug)]
pub enum SqlError {
    /// The statement did not lex/parse.
    Parse {
        /// Human-readable description.
        message: String,
        /// Byte offset of the offending token.
        offset: usize,
    },
    /// The referenced table is not registered.
    UnknownTable {
        /// The missing table name.
        name: String,
    },
    /// Execution failed downstream.
    Exec(ExecError),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse { message, offset } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            SqlError::UnknownTable { name } => write!(f, "unknown table {name}"),
            SqlError::Exec(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<ExecError> for SqlError {
    fn from(e: ExecError) -> Self {
        SqlError::Exec(e)
    }
}

/// Result of running one SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows (stringified values, row-major), in original row order.
    /// For `EXPLAIN` statements: the plan rendering, one line per row.
    pub rows: Vec<Vec<String>>,
    /// The aggregate, for `AVG(LLM(...))` statements.
    pub aggregate: Option<f64>,
    /// Per-LLM-operator execution outputs, in *final* execution order
    /// (adaptive re-ranking may have moved operators mid-query).
    pub stages: Vec<QueryOutput>,
    /// Human-readable optimizer events: static rewrites plus runtime
    /// adaptive decisions (re-ranks, batch-size aims).
    pub notes: Vec<String>,
}

/// Executes LLM-SQL statements against registered tables through a
/// [`QueryExecutor`] and a [`Reorderer`], applying the cost-based logical
/// optimizer (see [`OptimizerConfig`]) before execution. Construct with
/// every optimization on (the default) or tune via
/// [`with_optimizer`](SqlRunner::with_optimizer);
/// [`OptimizerConfig::none`] reproduces the unoptimized pipeline.
pub struct SqlRunner<'a> {
    executor: &'a QueryExecutor<'a>,
    reorderer: &'a dyn Reorderer,
    opt: OptimizerConfig,
    /// The price schedule the cost-based rules rank LLM operators with.
    pricing: Pricing,
    catalog: HashMap<String, (&'a Table, &'a FunctionalDeps)>,
    /// Learned tier posteriors per operator (keyed by query name):
    /// escalation and cheap-vs-expensive agreement rates, carried across
    /// statements so the re-rank's cascade cost factor sharpens with
    /// observations. Empty — and never touched — when cascades are off.
    tier_posteriors: RefCell<HashMap<String, TierPosterior>>,
}

impl<'a> fmt::Debug for SqlRunner<'a> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SqlRunner")
            .field("tables", &self.catalog.keys().collect::<Vec<_>>())
            .field("optimizer", &self.opt)
            .finish_non_exhaustive()
    }
}

impl<'a> SqlRunner<'a> {
    /// Creates a runner with every optimization enabled.
    pub fn new(executor: &'a QueryExecutor<'a>, reorderer: &'a dyn Reorderer) -> Self {
        SqlRunner {
            executor,
            reorderer,
            opt: OptimizerConfig::default(),
            pricing: Pricing::gpt4o_mini(),
            catalog: HashMap::new(),
            tier_posteriors: RefCell::new(HashMap::new()),
        }
    }

    /// Selects which optimizations run ([`OptimizerConfig::none`] is the
    /// differential oracle).
    pub fn with_optimizer(mut self, opt: OptimizerConfig) -> Self {
        self.opt = opt;
        self
    }

    /// Registers a table under `name`.
    pub fn register(&mut self, name: impl Into<String>, table: &'a Table, fds: &'a FunctionalDeps) {
        self.catalog.insert(name.into(), (table, fds));
    }

    /// Snapshots the executor's answer cache as a
    /// [`StatementCheckpoint`](crate::StatementCheckpoint): the LLM work
    /// every statement run so far has already paid for. Take one after a
    /// statement dies mid-flight and
    /// [`restore`](SqlRunner::restore) it into a fresh runner's executor —
    /// the re-run statement answers checkpointed prompts from the cache
    /// (byte-identical rows) and only re-issues the unfinished tail.
    pub fn checkpoint(&self) -> crate::StatementCheckpoint {
        self.executor.checkpoint()
    }

    /// Merges a [`checkpoint`](SqlRunner::checkpoint) into the executor's
    /// answer cache (existing entries win).
    pub fn restore(&self, checkpoint: &crate::StatementCheckpoint) {
        self.executor.restore(checkpoint);
    }

    /// Folds one batch's observed escalation split into the operator's tier
    /// posterior, registering it on first sight with the plan's own priors:
    /// the escalation prior is the threshold itself (confidence is
    /// uniform), the agreement prior the cheap tier's base accuracy.
    fn observe_tier(&self, plan: &CascadePlan, name: &str, opt: &OptStats) {
        self.tier_posteriors
            .borrow_mut()
            .entry(name.to_owned())
            .or_insert_with(|| {
                TierPosterior::new(
                    plan.escalate_below,
                    plan.cheap.base_accuracy,
                    DEFAULT_PRIOR_STRENGTH,
                )
            })
            .observe(
                opt.rows_escalated,
                opt.rows_cheap + opt.rows_escalated,
                opt.tier_agreements,
            );
    }

    /// Parses and executes `sql`, supplying ground truth per row via `truth`.
    /// `EXPLAIN`-prefixed statements return the plan rendering as rows
    /// instead of executing; `EXPLAIN ANALYZE` executes the statement and
    /// returns the plan annotated with measured per-operator statistics
    /// (rows in/out, LLM calls, dedup/cache savings, re-ranks, sim-time),
    /// with the executed stages and notes attached to the result.
    ///
    /// # Errors
    ///
    /// [`SqlError`] on parse, catalog, or execution failure.
    pub fn run(&self, sql: &str, truth: &dyn Fn(usize) -> String) -> Result<SqlResult, SqlError> {
        let stmt = parse_sql(sql)?;
        let plan_rows = |text: String| text.lines().map(|l| vec![l.to_string()]).collect();
        if stmt.explain && !stmt.analyze {
            return Ok(SqlResult {
                columns: vec!["plan".into()],
                rows: plan_rows(self.explain_stmt(&stmt)?),
                aggregate: None,
                stages: Vec::new(),
                notes: Vec::new(),
            });
        }
        let (table, fds) = self.lookup(&stmt.table)?;
        let (plan, notes) = self.plan_for(&stmt)?;
        let rewrites = notes.len();
        let (result, nodes) = self.execute_plan(&plan, notes, table, fds, truth)?;
        if stmt.analyze {
            return Ok(SqlResult {
                columns: vec!["plan".into()],
                rows: plan_rows(self.render_analyze(&plan, &result, &nodes, rewrites)),
                ..result
            });
        }
        Ok(result)
    }

    /// Whether `plan` runs pipelined: its stages share one timeline, each
    /// batch's hand-off instant chained through them, so operator j
    /// prefills batch k+1 while operator j+1 decodes batch k (see
    /// [`crate::pipeline`]). Only pipelined statements fan out.
    fn pipelines(&self, plan: &LogicalPlan) -> bool {
        self.opt.pipeline && plan.llm_ops() > 0
    }

    /// The physical interpreter: runs the optimized operator chain with one
    /// [`Stage`] per LLM operator, exact dedup and the session answer
    /// cache, one batch of candidates at a time. Which rows form the next
    /// batch is the [`BatchSchedule`]'s decision; with
    /// [`OptimizerConfig::adaptive`] on, observed per-filter pass rates are
    /// folded into a [`SelectivityTracker`] batch by batch, and between
    /// batches the remaining LLM filters are re-ranked by posterior
    /// cost/(1−selectivity). Returns the result and, for `EXPLAIN ANALYZE`,
    /// what each plan node measured.
    fn execute_plan(
        &self,
        plan: &LogicalPlan,
        notes: Vec<String>,
        table: &Table,
        fds: &FunctionalDeps,
        truth: &dyn Fn(usize) -> String,
    ) -> Result<(SqlResult, Vec<NodeStats>), SqlError> {
        let ops = &plan.ops[..];
        let mut run = StatementRun {
            runner: self,
            ops,
            table,
            fds,
            truth,
            exec_opts: ExecOptions {
                dedup: self.opt.dedup,
                answer_cache: self.opt.answer_cache,
                faults: self.opt.faults,
                cascade: self.opt.cascade.map(|cc| cc.plan),
            },
            pipelined: self.pipelines(plan),
            stages: ops.iter().map(|_| None).collect(),
            exec_order: Vec::new(),
            tracker: seeded_tracker(self.opt.adaptive, ops),
            emitted: Vec::new(),
            nodes: vec![NodeStats::default(); ops.len()],
            notes,
        };
        let candidates = run.leading_predicates()?;
        let mut schedule = BatchSchedule::decide(&self.opt, plan, candidates.len());
        while let Some(batch) = schedule.next(run.emitted.len(), &run.tracker, &mut run.notes) {
            run.run_batch(&candidates[batch])?;
            // Mid-query re-ranking is the runtime refinement of the static
            // reorder rule — a config that disables reordering keeps the
            // written LLM-predicate order, adaptively sized batches or not.
            if self.opt.adaptive && self.opt.reorder && schedule.unscanned() > 0 {
                run.rerank(schedule.batches());
            }
        }
        let (stages, aggregate) = run.finish_stages(&schedule);
        run.materialize(stages, aggregate)
    }

    /// Appends the partial-result degradation note for one operator batch:
    /// which original rows exhausted the fault retry budget and were
    /// excluded. Rendered verbatim as a `-- runtime:` line by
    /// `EXPLAIN ANALYZE`.
    fn note_failed_rows(&self, query: &LlmQuery, out: &StageOutcome, notes: &mut Vec<String>) {
        if out.failed_rows.is_empty() {
            return;
        }
        let budget = self.opt.faults.map_or(1, |f| f.max_attempts.max(1));
        notes.push(format!(
            "degraded {}: rows {:?} failed after {budget} attempt(s) each; \
             excluded from results (partial-result mode)",
            query.name, out.failed_rows,
        ));
        if llmqo_obs::enabled() {
            llmqo_obs::registry()
                .counter("sql.rows_failed")
                .add(out.failed_rows.len() as u64);
        }
    }
}

/// One statement's run state: everything the batch loop carries from one
/// batch to the next, and the four steps that advance it — leading cheap
/// predicates, one batch through the scheduled operators, finishing the
/// stages, materializing the SELECT list.
struct StatementRun<'r, 'a> {
    runner: &'r SqlRunner<'a>,
    ops: &'r [LogicalOp],
    table: &'r Table,
    fds: &'r FunctionalDeps,
    truth: &'r dyn Fn(usize) -> String,
    /// The physical options every stage runs under (with a cascade
    /// configured, every LLM operator cascades).
    exec_opts: ExecOptions,
    /// See [`SqlRunner::pipelines`].
    pipelined: bool,
    /// One stage per LLM operator, indexed by *plan* position — stable
    /// across adaptive re-ranking, which permutes only `exec_order`. A
    /// stage opens on its operator's first batch and persists across
    /// batches, so later batches reuse the prefixes earlier ones computed.
    stages: Vec<Option<Stage<'r>>>,
    /// The execution schedule: plan-op indices past the leading cheap
    /// predicates, in execution order. Adaptive re-ranking permutes the
    /// LlmFilter entries among the slots they occupy; everything else
    /// stays put.
    exec_order: Vec<usize>,
    tracker: SelectivityTracker,
    /// Emitted result rows: original index plus the LLM projection text
    /// when the SELECT list is an LLM call.
    emitted: Vec<(usize, Option<String>)>,
    /// Per-plan-op measurements for `EXPLAIN ANALYZE`.
    nodes: Vec<NodeStats>,
    /// The optimizer's rewrite notes, then runtime events in schedule order.
    notes: Vec<String>,
}

impl StatementRun<'_, '_> {
    /// Step 1: the leading cheap predicates narrow the table to the
    /// candidate set before any batching — with the reorder rule on, that
    /// is all of them. Everything after them becomes the execution
    /// schedule.
    fn leading_predicates(&mut self) -> Result<Vec<usize>, SqlError> {
        let mut candidates: Vec<usize> = (0..self.table.nrows()).collect();
        self.nodes[0].rows_in = candidates.len() as u64;
        self.nodes[0].rows_out = candidates.len() as u64;
        let mut first_heavy = 1;
        while let Some(LogicalOp::SqlFilter { pred }) = self.ops.get(first_heavy) {
            self.nodes[first_heavy].rows_in = candidates.len() as u64;
            candidates = filter_sql(self.table, &candidates, pred)?;
            self.nodes[first_heavy].rows_out = candidates.len() as u64;
            first_heavy += 1;
        }
        self.exec_order = (first_heavy..self.ops.len()).collect();
        Ok(candidates)
    }

    /// Step 2: one batch of candidate rows through the scheduled operators.
    fn run_batch(&mut self, batch: &[usize]) -> Result<(), SqlError> {
        let (runner, ops) = (self.runner, self.ops);
        let emitted_before = self.emitted.len();
        let mut rows: Vec<usize> = batch.to_vec();
        // Pipelined hand-off chaining: each batch's rows exist at scan time
        // 0; every LLM operator fast-forwards to the instant the previous
        // operator released this batch (`ready`), and its own stage clock
        // serializes successive batches — producing the staggered,
        // overlapping schedule. The classic relay keeps each stage on its
        // independent zero-based timeline (`ready` unused).
        let mut ready = 0.0f64;
        for &idx in &self.exec_order {
            let offered = rows.len() as u64;
            let op = &ops[idx];
            if let Some(query) = op.llm_query() {
                let stage = match &mut self.stages[idx] {
                    Some(stage) => stage,
                    slot => {
                        let replicas = if self.pipelined {
                            runner.opt.pipeline_replicas
                        } else {
                            1
                        };
                        slot.insert(Stage::open(
                            runner.executor,
                            self.table,
                            query,
                            runner.reorderer,
                            self.fds,
                            self.truth,
                            self.exec_opts,
                            replicas,
                        )?)
                    }
                };
                if self.pipelined {
                    stage.engine.advance_to(ready);
                }
                let out = stage.run_batch(&rows)?;
                if self.pipelined {
                    ready = stage.clock();
                }
                if let Some(plan) = &self.exec_opts.cascade {
                    runner.observe_tier(plan, &query.name, &out.opt);
                }
                runner.note_failed_rows(query, &out, &mut self.notes);
                match op {
                    LogicalOp::LlmFilter { negated, .. } => {
                        let label = query.predicate_label.as_deref().unwrap_or_else(|| {
                            unreachable!("filter queries carry a predicate label")
                        });
                        rows = out
                            .outputs
                            .iter()
                            .filter(|o| (o.text == label) != *negated)
                            .map(|o| o.row)
                            .collect();
                        self.tracker.observe(idx, rows.len() as u64, offered);
                    }
                    LogicalOp::LlmProject { .. } => {
                        for o in &out.outputs {
                            self.emitted.push((o.row, Some(o.text.clone())));
                        }
                    }
                    // An aggregate folds its outputs when the stage
                    // finishes.
                    _ => {}
                }
                stage.outcome.absorb(out);
            } else {
                match op {
                    LogicalOp::SqlFilter { pred } => rows = filter_sql(self.table, &rows, pred)?,
                    LogicalOp::Project { .. } => {
                        self.emitted.extend(rows.iter().map(|&r| (r, None)));
                    }
                    LogicalOp::Limit { .. } => {}
                    _ => unreachable!("scan is always ops[0], outside the schedule"),
                }
            }
            self.nodes[idx].rows_in += offered;
            self.nodes[idx].rows_out += rows.len() as u64;
        }
        self.tracker.observe_pipeline(
            (self.emitted.len() - emitted_before) as u64,
            batch.len() as u64,
        );
        Ok(())
    }

    /// Step 3: finalizes the per-operator stages in final execution order.
    /// An operator no batch reached never opened a stage and reports
    /// defaults. All stages share one timeline, so a pipelined statement
    /// is done when its slowest stage is. Returns the operators' outputs
    /// and the aggregate, if the statement has one.
    fn finish_stages(&mut self, schedule: &BatchSchedule) -> (Vec<QueryOutput>, Option<f64>) {
        let ops = self.ops;
        let mut outputs = Vec::new();
        let mut aggregate = None;
        let mut fanout = 1;
        for &idx in &self.exec_order {
            let Some(query) = ops[idx].llm_query() else {
                continue;
            };
            let mut output = match self.stages[idx].take() {
                Some(stage) => {
                    self.nodes[idx].done_s = stage.clock();
                    fanout = fanout.max(stage.engine.replicas());
                    stage.finish()
                }
                None => StageOutcome::default().into_query_output(
                    query,
                    self.runner.reorderer.name(),
                    EngineReport::default(),
                ),
            };
            // LIMIT-early-stop savings: candidates the scan never reached
            // are attributed to the first LLM operator in final execution
            // order, so `rows_in + rows_skipped` reconciles with full
            // materialization.
            if outputs.is_empty() {
                output.report.opt.rows_skipped += schedule.unscanned() as u64;
            }
            if matches!(ops[idx], LogicalOp::LlmAggregate { .. }) {
                aggregate = output.aggregate;
            }
            self.nodes[idx].stage = Some(outputs.len());
            outputs.push(output);
        }
        if self.pipelined {
            self.notes.push(format!(
                "pipelined execution: {} micro-batch(es), {fanout} \
                 replica(s) per stage, statement makespan {:.2}s",
                schedule.batches(),
                explain::makespan_s(&self.nodes),
            ));
        }
        (outputs, aggregate)
    }

    /// Step 4: materializes the SELECT list over the emitted rows and
    /// applies the `LIMIT`.
    fn materialize(
        mut self,
        stages: Vec<QueryOutput>,
        aggregate: Option<f64>,
    ) -> Result<(SqlResult, Vec<NodeStats>), SqlError> {
        let projection = self
            .ops
            .iter()
            .find(|op| {
                matches!(
                    op,
                    LogicalOp::Project { .. }
                        | LogicalOp::LlmProject { .. }
                        | LogicalOp::LlmAggregate { .. }
                )
            })
            .unwrap_or_else(|| unreachable!("plans always carry a projection operator"));
        let (columns, mut rows) = match projection {
            LogicalOp::Project { columns } => {
                let idxs = self
                    .table
                    .resolve_columns(columns)
                    .map_err(|e| SqlError::Exec(ExecError::Table(e)))?;
                let rows: Vec<Vec<String>> = self
                    .emitted
                    .iter()
                    .map(|&(r, _)| {
                        idxs.iter()
                            .map(|&c| self.table.value(r, c).to_string())
                            .collect()
                    })
                    .collect();
                (columns.clone(), rows)
            }
            LogicalOp::LlmProject { alias, .. } => (
                vec![alias.clone()],
                self.emitted
                    .into_iter()
                    .map(|(_, text)| {
                        vec![text.unwrap_or_else(|| unreachable!("LLM projection emits text"))]
                    })
                    .collect(),
            ),
            LogicalOp::LlmAggregate { alias, .. } => (
                vec![alias.clone()],
                vec![vec![aggregate.map_or("null".into(), |a| format!("{a:.3}"))]],
            ),
            _ => unreachable!("find matched projection operators only"),
        };
        // The Limit node's true in/out is the materialized row count before
        // and after truncation, not the pass-through counts the batch loop
        // accumulated for it.
        let limit = self.ops.iter().enumerate().find_map(|(pos, op)| match op {
            LogicalOp::Limit { n } => Some((pos, *n)),
            _ => None,
        });
        if let Some((pos, n)) = limit {
            self.nodes[pos].rows_in = rows.len() as u64;
            rows.truncate(n);
            self.nodes[pos].rows_out = rows.len() as u64;
        }
        let result = SqlResult {
            columns,
            rows,
            aggregate,
            stages,
            notes: self.notes,
        };
        Ok((result, self.nodes))
    }
}

/// The statement's selectivity tracker. An adaptive statement's is seeded
/// with the optimizer's static priors: per LLM filter, and their product as
/// the pipeline prior for batch sizing. Any other statement's stays empty
/// and ignores what it is shown.
fn seeded_tracker(adaptive: bool, ops: &[LogicalOp]) -> SelectivityTracker {
    let mut tracker = SelectivityTracker::new(DEFAULT_PRIOR_STRENGTH);
    if adaptive {
        let mut pipeline_prior = 1.0;
        for (idx, op) in ops.iter().enumerate() {
            if let LogicalOp::LlmFilter { est, .. } = op {
                let prior = est.map_or(0.5, |e| e.selectivity);
                tracker.register(idx, prior);
                pipeline_prior *= prior;
            }
        }
        tracker.register_pipeline(pipeline_prior);
    }
    tracker
}

/// Applies a cheap predicate to a row set, preserving order.
fn filter_sql(table: &Table, rows: &[usize], pred: &SqlPredicate) -> Result<Vec<usize>, SqlError> {
    let col = table.schema().index_of(&pred.column).ok_or_else(|| {
        SqlError::Exec(ExecError::Table(TableError::UnknownColumn {
            name: pred.column.clone(),
        }))
    })?;
    Ok(rows
        .iter()
        .copied()
        .filter(|&r| pred.eval(table.value(r, col)))
        .collect())
}

#[cfg(test)]
mod tests;
