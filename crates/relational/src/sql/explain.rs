//! `EXPLAIN` and `EXPLAIN ANALYZE`: the optimized plan as text, bare or
//! annotated with what one execution measured, over one shared footer.

use super::parse::{parse_sql, SqlStatement};
use super::{SqlError, SqlResult, SqlRunner};
use crate::exec::ExecutionReport;
use crate::optimizer::{CascadeConfig, LogicalOp, LogicalPlan, OptLevel, OptStats};

/// What one plan node measured while the statement ran.
#[derive(Debug, Clone, Default)]
pub(super) struct NodeStats {
    /// Rows offered to the node, summed over batches. The `Limit` node
    /// holds the materialized count before truncation.
    pub rows_in: u64,
    /// Rows the node produced, summed over batches (`Limit`: after
    /// truncation).
    pub rows_out: u64,
    /// Index into [`SqlResult::stages`], for LLM operators.
    pub stage: Option<usize>,
    /// Instant the operator's stage handed off its last batch: its final
    /// `Stage::clock`, escalation tier included. Rendered (as the per-node
    /// `done` column) only under pipelined execution, where the stages
    /// share one timeline.
    pub done_s: f64,
}

/// When a finished statement's slowest stage handed off its last batch: the
/// statement's makespan under pipelined execution, where every stage shares
/// one timeline.
pub(super) fn makespan_s(nodes: &[NodeStats]) -> f64 {
    nodes.iter().map(|n| n.done_s).fold(0.0, f64::max)
}

/// The footer parts only an executed statement has.
struct Measured<'m> {
    makespan_s: Option<f64>,
    /// The statement's `(cheap, expensive)` dollar ledger under a cascade.
    tier_dollars: Option<(f64, f64)>,
    /// Notes appended while the statement ran, in schedule order.
    runtime_notes: &'m [String],
}

impl SqlRunner<'_> {
    /// Renders the optimized plan for `sql` without executing anything —
    /// the `EXPLAIN` entry point usable without a truth provider.
    ///
    /// # Errors
    ///
    /// [`SqlError`] on parse or catalog failure; an optimizer setting out
    /// of its range is [`ExecError::InvalidConfig`](crate::ExecError::InvalidConfig),
    /// before the statement is parsed.
    pub fn explain(&self, sql: &str) -> Result<String, SqlError> {
        self.opt.check()?;
        self.explain_stmt(&parse_sql(sql)?)
    }

    /// [`explain`](Self::explain) over an already parsed statement.
    pub(super) fn explain_stmt(&self, stmt: &SqlStatement) -> Result<String, SqlError> {
        let (plan, notes) = self.plan_for(stmt)?;
        let mut out = plan.explain();
        out.push_str(&self.footer(&notes, None));
        Ok(out)
    }

    /// Renders the executed plan with what each of its `nodes` measured,
    /// plus the optimizer footer — the `EXPLAIN ANALYZE` output. The first
    /// `rewrites` of the result's notes are the optimizer's; the runtime
    /// notes after them (adaptive re-ranks, batch resizing) follow the
    /// `-- rewrite:` lines as `-- runtime:` lines, verbatim and in schedule
    /// order.
    pub(super) fn render_analyze(
        &self,
        plan: &LogicalPlan,
        result: &SqlResult,
        nodes: &[NodeStats],
        rewrites: usize,
    ) -> String {
        let pipelined = self.pipelines(plan);
        let mut out = plan.explain_with(|idx, op| {
            let node = &nodes[idx];
            let (rows_in, rows_out) = (node.rows_in, node.rows_out);
            Some(match op {
                LogicalOp::Scan { .. } => format!("(rows {rows_out})"),
                op if op.llm_query().is_some() => {
                    let report = node.stage.map(|s| &result.stages[s].report);
                    self.llm_node_columns(node, report, pipelined)
                }
                _ => format!("(rows {rows_in} → {rows_out})"),
            })
        });
        let tier_dollars = self.opt.cascade.map(|cc| {
            let per_stage = result
                .stages
                .iter()
                .map(|s| tier_dollars(&cc, &s.report.opt));
            per_stage.fold((0.0, 0.0), |sum, (cheap, esc)| (sum.0 + cheap, sum.1 + esc))
        });
        let (rewrites, runtime_notes) = result.notes.split_at(rewrites);
        let measured = Measured {
            makespan_s: pipelined.then(|| makespan_s(nodes)),
            tier_dollars,
            runtime_notes,
        };
        out.push_str(&self.footer(rewrites, Some(measured)));
        out
    }

    /// The measured columns of one LLM operator's `EXPLAIN ANALYZE` line.
    /// `report` is `None` for an operator no batch reached.
    fn llm_node_columns(
        &self,
        node: &NodeStats,
        report: Option<&ExecutionReport>,
        pipelined: bool,
    ) -> String {
        let opt = report.map(|r| r.opt).unwrap_or_default();
        let mut out = format!(
            "(rows {} → {}, llm calls {}, dedup saved {}, cache saved {}, re-ranks {}, skipped {}",
            node.rows_in,
            node.rows_out,
            opt.llm_calls,
            opt.rows_deduped,
            opt.cache_hits,
            opt.reranks,
            opt.rows_skipped,
        );
        // Failure columns appear only when fault injection actually bit, so
        // fault-free renderings are unchanged.
        if opt.llm_retries > 0 || opt.rows_failed > 0 {
            out += &format!(
                ", retries {}, rows failed {}",
                opt.llm_retries, opt.rows_failed
            );
        }
        // Tier-split columns appear only when a cascade actually labeled
        // rows here, so single-tier renderings are unchanged.
        if let Some(cc) = self.opt.cascade {
            if opt.rows_cheap + opt.rows_escalated > 0 {
                let (cheap_cost, esc_cost) = tier_dollars(&cc, &opt);
                out += &format!(
                    ", rows cheap {} / escalated {}, \
                     ${cheap_cost:.4} cheap + ${esc_cost:.4} expensive",
                    opt.rows_cheap, opt.rows_escalated,
                );
            }
        }
        let sim_s = report.map_or(0.0, |r| r.engine.job_completion_time_s);
        out += &format!(", sim {sim_s:.2}s");
        // Overlap columns appear only under pipelined execution, so
        // classic-relay renderings are unchanged: `busy` is the stage's
        // attributed engine time, `done` the instant on the shared
        // statement timeline its last micro-batch finished. `done − busy`
        // is time spent waiting on upstream operators — overlap the
        // pipeline bought.
        if pipelined {
            let busy = report.map_or(0.0, |r| {
                r.engine.prefill_time_s + r.engine.decode_time_s + r.engine.overhead_time_s
            });
            out += &format!(", busy {busy:.2}s, done {:.2}s", node.done_s);
        }
        out + ")"
    }

    /// The `--` lines under a plan rendering: what the optimizer level
    /// switches on; one line per configured mode (faults, pipeline, cascade
    /// — absent when the mode is off, so those renderings are unchanged);
    /// one `-- rewrite:` line per optimizer note. `EXPLAIN ANALYZE` passes
    /// what the execution measured, which extends the pipeline and cascade
    /// lines and appends the `-- runtime:` notes.
    fn footer(&self, rewrites: &[String], measured: Option<Measured<'_>>) -> String {
        let opt = &self.opt;
        let on_off = |on: bool| if on { "on" } else { "off" };
        let stat = on_off(opt.level >= OptLevel::Static);
        let adaptive = on_off(opt.level == OptLevel::Adaptive);
        let mut out = format!(
            "-- optimizer: dedup {stat}, reorder {stat}, lazy limit {stat}, \
             adaptive {adaptive}, answer cache {adaptive} (pricing: {})\n",
            self.pricing.name,
        );
        if let Some(fa) = opt.faults {
            out.push_str(&format!(
                "-- faults: error rate {} ppm, budget {} attempt(s), {} (seed {})\n",
                fa.error_ppm,
                fa.max_attempts,
                if fa.partial_results {
                    "partial results"
                } else {
                    "strict"
                },
                fa.seed,
            ));
        }
        if opt.pipeline {
            let makespan = measured.as_ref().and_then(|m| m.makespan_s);
            out.push_str(&format!(
                "-- pipeline: replicas {}, micro-batch {} rows{}\n",
                opt.pipeline_replicas,
                opt.pipeline_batch_rows,
                makespan.map_or(String::new(), |m| format!(", makespan {m:.2}s")),
            ));
        }
        if let Some(p) = opt.cascade.map(|cc| cc.plan) {
            let dollars = measured.as_ref().and_then(|m| m.tier_dollars);
            out.push_str(&format!(
                "-- cascade: escalate below {:.2} (seed {}), cheap ${}/M in ${}/M out \
                 (base acc {:.2}), expensive ${}/M in ${}/M out{}\n",
                p.escalate_below,
                p.seed,
                p.cheap.input_per_mtok,
                p.cheap.output_per_mtok,
                p.cheap.base_accuracy,
                p.expensive.input_per_mtok,
                p.expensive.output_per_mtok,
                dollars.map_or(String::new(), |(cheap, esc)| {
                    format!(", measured ${cheap:.4} cheap + ${esc:.4} expensive")
                }),
            ));
        }
        for note in rewrites {
            out.push_str(&format!("-- rewrite: {note}\n"));
        }
        for note in measured.map_or(&[][..], |m| m.runtime_notes) {
            out.push_str(&format!("-- runtime: {note}\n"));
        }
        out
    }
}

/// What the rows `opt` counts cost on the `(cheap, expensive)` tier.
fn tier_dollars(cc: &CascadeConfig, opt: &OptStats) -> (f64, f64) {
    (
        cc.plan.cheap.cost(
            opt.cheap_prompt_tokens as f64,
            opt.cheap_output_tokens as f64,
        ),
        cc.plan
            .expensive
            .cost(opt.esc_prompt_tokens as f64, opt.esc_output_tokens as f64),
    )
}
