//! Statement → plan: compiles a parsed [`SqlStatement`] to its
//! [`LogicalPlan`] (one [`LlmQuery`] per `LLM(...)` call site, star field
//! lists expanded and pruned), annotates cost estimates, and runs the
//! optimizer's rewrite rules over it.

use super::parse::{LlmCall, Projection, SqlStatement, WhereConjunct};
use super::{SqlError, SqlRunner};
use crate::optimizer::{annotate_estimates, optimize_plan, LogicalOp, LogicalPlan};
use crate::query::LlmQuery;
use crate::table::Table;
use llmqo_core::FunctionalDeps;
use std::collections::HashSet;

// SQL carries no label spaces or output-length hints; plans are compiled
// with these.
/// Labels assumed for filter predicates when only the compared label is
/// known; the compared label is always inserted.
const FILTER_LABELS: [&str; 2] = ["Yes", "No"];
/// Mean output tokens for projection calls.
const PROJECTION_OUTPUT_TOKENS: f64 = 32.0;
/// Mean output tokens for filter and aggregation calls.
const FILTER_OUTPUT_TOKENS: f64 = 2.0;
/// Score range for `AVG(LLM(...))`.
const AGGREGATION_RANGE: (i64, i64) = (1, 5);

impl<'a> SqlRunner<'a> {
    /// The set of columns the statement references anywhere — SELECT list,
    /// cheap predicates, and explicit LLM field lists. Returns `None` (no
    /// pruning) when [`OptimizerConfig::prune_fields`] is off or when the
    /// projection itself reads every column (`SELECT *`, or a star LLM
    /// projection), since then nothing is provably ignored. Star `LLM`
    /// calls in `WHERE` contribute nothing: they are the prune targets.
    fn statement_columns(&self, stmt: &SqlStatement) -> Option<HashSet<String>> {
        if !self.opt.prune_fields {
            return None;
        }
        let mut cols = HashSet::new();
        match &stmt.projection {
            Projection::Columns(c) => {
                if c.iter().any(|c| c == "*") {
                    return None;
                }
                cols.extend(c.iter().cloned());
            }
            Projection::Llm { call, .. } | Projection::AvgLlm { call, .. } => {
                if call.star || call.fields.is_empty() {
                    return None;
                }
                cols.extend(call.fields.iter().cloned());
            }
        }
        for conj in &stmt.where_clause {
            match conj {
                WhereConjunct::Sql(pred) => {
                    cols.insert(pred.column.clone());
                }
                WhereConjunct::Llm { call, .. } => {
                    cols.extend(call.fields.iter().cloned());
                }
            }
        }
        Some(cols)
    }

    /// Compiles a parsed statement to its (unoptimized) logical plan, plus
    /// projection-pruning rewrite notes.
    fn build_plan(&self, stmt: &SqlStatement, table: &Table) -> (LogicalPlan, Vec<String>) {
        let referenced = self.statement_columns(stmt);
        let names = table.schema().names();
        let all = || -> Vec<String> { names.iter().map(|s| s.to_string()).collect() };
        let mut notes = Vec::new();
        // Expands the field list of the `LLM(...)` call behind query `name`.
        // Explicit lists are never touched; star (and empty) calls expand
        // to the whole schema, pruned to the statement's referenced columns
        // when there is such a set — fields no part of the statement ever
        // reads are provably ignored by the SELECT list, so dropping them
        // from the prompt (and therefore from the dedup key and the
        // solver's `ReorderTable` view) cannot change results. A pruning
        // that would leave the call with no fields falls back to the full
        // expansion (an LLM call must read at least one field).
        let mut resolve = |call: &LlmCall, name: &str| -> Vec<String> {
            if !(call.star || call.fields.is_empty()) {
                return call.fields.clone();
            }
            let pruned: Vec<String> = referenced.as_ref().map_or(Vec::new(), |refs| {
                all().into_iter().filter(|c| refs.contains(c)).collect()
            });
            if pruned.is_empty() {
                return all();
            }
            if pruned.len() < names.len() {
                notes.push(format!(
                    "prune {name}: star expansion narrowed {} → {} field(s) \
                     (columns the statement never reads are dropped from the \
                     prompt, dedup key, and reorder view)",
                    names.len(),
                    pruned.len(),
                ));
            }
            pruned
        };
        let mut ops = vec![LogicalOp::Scan {
            table: stmt.table.clone(),
        }];
        let mut llm_ordinal = 0usize;
        for conj in &stmt.where_clause {
            match conj {
                WhereConjunct::Sql(pred) => ops.push(LogicalOp::SqlFilter { pred: pred.clone() }),
                WhereConjunct::Llm {
                    call,
                    label,
                    negated,
                } => {
                    llm_ordinal += 1;
                    let name = if llm_ordinal == 1 {
                        format!("sql-where-{}", stmt.table)
                    } else {
                        format!("sql-where-{}-{llm_ordinal}", stmt.table)
                    };
                    let mut labels = FILTER_LABELS.map(String::from).to_vec();
                    if !labels.contains(label) {
                        labels.insert(0, label.clone());
                    }
                    let query = LlmQuery::filter(
                        name.clone(),
                        call.prompt.clone(),
                        resolve(call, &name),
                        labels,
                        label.clone(),
                        FILTER_OUTPUT_TOKENS,
                    );
                    ops.push(LogicalOp::LlmFilter {
                        query,
                        negated: *negated,
                        est: None,
                    });
                }
            }
        }
        match &stmt.projection {
            Projection::Columns(cols) => {
                let columns = if cols.iter().any(|c| c == "*") {
                    all()
                } else {
                    cols.clone()
                };
                ops.push(LogicalOp::Project { columns });
            }
            Projection::Llm { call, alias } => {
                let name = format!("sql-select-{}", stmt.table);
                let query = LlmQuery::projection(
                    name.clone(),
                    call.prompt.clone(),
                    resolve(call, &name),
                    PROJECTION_OUTPUT_TOKENS,
                );
                ops.push(LogicalOp::LlmProject {
                    query,
                    alias: alias.clone().unwrap_or_else(|| "llm".to_string()),
                });
            }
            Projection::AvgLlm { call, alias } => {
                let name = format!("sql-avg-{}", stmt.table);
                let query = LlmQuery::aggregation(
                    name.clone(),
                    call.prompt.clone(),
                    resolve(call, &name),
                    AGGREGATION_RANGE,
                    FILTER_OUTPUT_TOKENS,
                );
                ops.push(LogicalOp::LlmAggregate {
                    query,
                    alias: alias.clone().unwrap_or_else(|| "avg".to_string()),
                });
            }
        }
        if let Some(n) = stmt.limit {
            ops.push(LogicalOp::Limit { n });
        }
        (LogicalPlan { ops }, notes)
    }

    /// The registered table `name` and its functional dependencies.
    pub(super) fn lookup(&self, name: &str) -> Result<(&'a Table, &'a FunctionalDeps), SqlError> {
        self.catalog
            .get(name)
            .copied()
            .ok_or_else(|| SqlError::UnknownTable {
                name: name.to_owned(),
            })
    }

    /// Builds, annotates, and optimizes the plan for a parsed statement.
    /// Returned notes are rewrites: pruning events first, then the cost-based
    /// rules' events.
    pub(super) fn plan_for(
        &self,
        stmt: &SqlStatement,
    ) -> Result<(LogicalPlan, Vec<String>), SqlError> {
        let (table, _fds) = self.lookup(&stmt.table)?;
        let (mut plan, mut notes) = self.build_plan(stmt, table);
        annotate_estimates(&mut plan, table, &self.executor.tokenizer);
        let (plan, opt_notes) = optimize_plan(&plan, &self.opt, &self.pricing);
        notes.extend(opt_notes);
        Ok((plan, notes))
    }
}
