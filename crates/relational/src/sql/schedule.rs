//! The between-batches policy of the statement interpreter: *which
//! candidate rows go to the LLM operators next* ([`BatchSchedule`]) and in
//! which order the LLM filters see them ([`StatementRun::rerank`]).
//! `docs/ARCHITECTURE.md` ("The batch schedule") tabulates what is decided
//! here: when a statement is lazy, pilot or pipelined, and the first batch
//! size and growth mode of each.

use super::StatementRun;
use crate::adaptive::SelectivityTracker;
use crate::optimizer::{LogicalOp, LogicalPlan, OptLevel, OptimizerConfig};
use llmqo_costmodel::SelectivityPosterior;
use std::ops::Range;

/// Smallest lazy-`LIMIT` / pilot batch (rows).
const LAZY_BATCH_MIN: usize = 32;

/// How a schedule sizes the batch after the one just run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Growth {
    /// The one batch held every candidate.
    Whole,
    /// Every batch is one micro-batch, so pipelined stages stay overlapped
    /// end to end.
    Fixed,
    /// Twice the last batch.
    Doubling,
    /// `ceil(rows still owed to the limit / observed pipeline selectivity)`
    /// clamped to `[LAZY_BATCH_MIN, candidates left]`; doubling until the
    /// tracker has observed a batch.
    Aimed,
}

/// One statement's batch boundaries, drained by the batch loop through
/// [`next`](Self::next) until it returns `None`.
#[derive(Debug)]
pub(crate) struct BatchSchedule {
    candidates: usize,
    /// The lazy `LIMIT`: no batch is issued once this many rows are
    /// emitted. `None` for a schedule that is not lazy.
    stop_at: Option<usize>,
    growth: Growth,
    /// Rows in the next batch (before clamping to what is left).
    size: usize,
    /// Candidates handed out so far.
    scanned: usize,
    /// Batches handed out so far.
    batches: u32,
}

impl BatchSchedule {
    /// Decides the schedule of `plan` over `candidates` rows under `opt`.
    pub(super) fn decide(opt: &OptimizerConfig, plan: &LogicalPlan, candidates: usize) -> Self {
        let count = |pick: fn(&LogicalOp) -> bool| plan.ops.iter().filter(|op| pick(op)).count();
        let streams = count(|op| matches!(op, LogicalOp::LlmAggregate { .. })) == 0;
        let has_llm = plan.llm_ops() > 0;
        let adaptive = opt.level == OptLevel::Adaptive;
        // Lazy LIMIT applies when a limit exists, results stream row by row
        // (aggregation blocks), and stopping early actually saves LLM work.
        let stop_at = plan
            .limit()
            .filter(|_| opt.level >= OptLevel::Static && streams && has_llm);
        // Without a LIMIT there is nothing to stop early — but a statement
        // with several LLM filters still profits from *pilot batching*: run
        // the first batch under the static order, observe real pass rates,
        // and evaluate the remaining rows under the corrected order. Pilot
        // batching is adaptive-only because it needs the answer cache: dedup
        // groups only within one batch, so without the cache, splitting a
        // duplicate-heavy statement into batches would re-issue each
        // distinct prompt once per batch instead of once per statement.
        let pilot = adaptive && count(|op| matches!(op, LogicalOp::LlmFilter { .. })) >= 2;
        // Lazy and pilot sizes win over the pipeline's: it only changes the
        // timeline the batches run on.
        let (size, growth) = match stop_at {
            Some(limit) if adaptive => (LAZY_BATCH_MIN.max(limit), Growth::Aimed),
            Some(limit) => (LAZY_BATCH_MIN.max(limit), Growth::Doubling),
            None if pilot => (LAZY_BATCH_MIN, Growth::Doubling),
            None if opt.pipeline && has_llm => (opt.pipeline_batch_rows, Growth::Fixed),
            None => (candidates, Growth::Whole),
        };
        BatchSchedule {
            candidates,
            stop_at,
            growth,
            size,
            scanned: 0,
            batches: 0,
        }
    }

    /// The candidate range of the next batch, given how many result rows
    /// the batches so far `emitted` and what `tracker` observed of them —
    /// or `None` when candidates have run out or a lazy limit is met. Call
    /// once after every batch: the call also sizes the batch that would
    /// follow the last one, and an `Aimed` schedule notes every size change
    /// in `notes`, that one included.
    pub(super) fn next(
        &mut self,
        emitted: usize,
        tracker: &SelectivityTracker,
        notes: &mut Vec<String>,
    ) -> Option<Range<usize>> {
        if self.batches > 0 {
            self.grow(emitted, tracker, notes);
        }
        if self.unscanned() == 0 || self.stop_at.is_some_and(|limit| emitted >= limit) {
            return None;
        }
        let start = self.scanned;
        self.scanned = start.saturating_add(self.size).min(self.candidates);
        self.batches += 1;
        Some(start..self.scanned)
    }

    /// Batches handed out so far.
    pub(super) fn batches(&self) -> u32 {
        self.batches
    }

    /// Candidates no batch has covered (yet, or — once
    /// [`next`](Self::next) returned `None` — ever: the rows a lazy `LIMIT`
    /// saved).
    pub(super) fn unscanned(&self) -> usize {
        self.candidates - self.scanned
    }

    /// Sizes the batch after the one just run.
    fn grow(&mut self, emitted: usize, tracker: &SelectivityTracker, notes: &mut Vec<String>) {
        let aimed = match self.growth {
            Growth::Whole | Growth::Fixed => return,
            Growth::Doubling => None,
            Growth::Aimed => {
                let owed = self
                    .stop_at
                    .unwrap_or_else(|| unreachable!("only a lazy schedule aims"))
                    .saturating_sub(emitted);
                tracker.next_batch_size(owed, LAZY_BATCH_MIN, self.unscanned())
            }
        };
        let Some(n) = aimed else {
            self.size = self.size.saturating_mul(2);
            return;
        };
        if n != self.size {
            notes.push(format!(
                "adaptive batch sizing after batch {}: {n} rows \
                 (pipeline selectivity {:.3})",
                self.batches,
                tracker.pipeline_selectivity().unwrap_or(0.0),
            ));
            if llmqo_obs::enabled() {
                llmqo_obs::registry()
                    .counter("sql.adaptive_batch_resizes")
                    .inc();
            }
        }
        self.size = n;
    }
}

/// `query (sel s)` per LLM filter of `order`, for the re-rank note.
fn describe_order(ops: &[LogicalOp], tracker: &SelectivityTracker, order: &[usize]) -> String {
    order
        .iter()
        .map(|&idx| match &ops[idx] {
            LogicalOp::LlmFilter { query, .. } => format!(
                "{} (sel {:.2})",
                query.name,
                tracker.selectivity(idx).unwrap_or(f64::NAN)
            ),
            _ => unreachable!("slots hold LLM filters only"),
        })
        .collect::<Vec<_>>()
        .join("; ")
}

impl StatementRun<'_, '_> {
    /// Re-runs the cost/(1−selectivity) ranking over the schedule's LLM
    /// filters with posterior selectivities, after batch `batch_no`,
    /// permuting them among the slots they occupy when the observed order
    /// diverges from the current one. Sorting is stable, so equal-rank
    /// filters keep their position; each moved operator's
    /// [`OptStats::reranks`](crate::OptStats) is bumped and a
    /// human-readable note records the event.
    pub(super) fn rerank(&mut self, batch_no: u32) {
        let ops = self.ops;
        let is_filter = |idx: &usize| matches!(ops[*idx], LogicalOp::LlmFilter { .. });
        // A stable sort leaves an order that is already ranked as it is, so
        // only a diverging order builds anything.
        let mut filters = self.exec_order.iter().copied().filter(is_filter);
        let mut pairs = filters.clone().zip({
            filters.next();
            filters
        });
        if pairs.all(|(a, b)| self.rank(a).total_cmp(&self.rank(b)).is_le()) {
            return;
        }
        let slots: Vec<usize> = (0..self.exec_order.len())
            .filter(|&s| is_filter(&self.exec_order[s]))
            .collect();
        let current: Vec<usize> = slots.iter().map(|&s| self.exec_order[s]).collect();
        let mut ranked = current.clone();
        ranked.sort_by(|&a, &b| self.rank(a).total_cmp(&self.rank(b)));
        self.notes.push(format!(
            "adaptive re-rank after batch {batch_no}: [{}] → [{}]",
            describe_order(ops, &self.tracker, &current),
            describe_order(ops, &self.tracker, &ranked),
        ));
        if llmqo_obs::enabled() {
            llmqo_obs::registry().counter("sql.adaptive_reranks").inc();
        }
        for (&slot, &idx) in slots.iter().zip(&ranked) {
            if self.exec_order[slot] != idx {
                if let Some(stage) = &mut self.stages[idx] {
                    stage.output.report.opt.reranks += 1;
                }
            }
            self.exec_order[slot] = idx;
        }
    }

    /// The cost/(1−selectivity) rank of LLM filter `idx` under its
    /// posterior selectivity, times its
    /// [`cascade_rank_factor`](Self::cascade_rank_factor).
    fn rank(&self, idx: usize) -> f64 {
        let LogicalOp::LlmFilter { est, .. } = &self.ops[idx] else {
            unreachable!("only LLM filters are ranked")
        };
        let pricing = &self.runner.pricing;
        let base = match (est, self.tracker.selectivity(idx)) {
            (Some(e), Some(s)) => e.with_selectivity(s).rank(pricing),
            (Some(e), None) => e.rank(pricing),
            (None, _) => return f64::INFINITY,
        };
        base * self.cascade_rank_factor(idx)
    }

    /// Rank multiplier of LLM filter `idx` — 1 unless a cascade is
    /// configured. With one, the filter's dollar rank is folded with what
    /// execution has actually shown: the cascade's expected cost ratio
    /// (posterior escalation rate) and the *observed* dedup factor (issued
    /// requests per offered row — duplicate-heavy operators are cheaper
    /// per row than their estimate). Every scheduled operator has run the
    /// batches so far, so its stage is open.
    fn cascade_rank_factor(&self, idx: usize) -> f64 {
        let Some(cc) = self.runner.opt.cascade else {
            return 1.0;
        };
        let (
            LogicalOp::LlmFilter {
                est: Some(e),
                query,
                ..
            },
            Some(stage),
        ) = (&self.ops[idx], &self.stages[idx])
        else {
            return 1.0;
        };
        let mut factor = 1.0;
        let single = cc
            .plan
            .single_tier_per_row_cost(e.prompt_tokens_per_row, e.output_tokens_per_row);
        if single > 0.0 {
            let esc_rate = self
                .runner
                .tier_posteriors
                .borrow()
                .get(&query.name)
                .map_or(cc.plan.escalate_below, SelectivityPosterior::mean);
            factor *= cc.plan.expected_per_row_cost(
                e.prompt_tokens_per_row,
                e.output_tokens_per_row,
                esc_rate,
            ) / single;
        }
        let o = &stage.output.report.opt;
        let offered = o.rows_in.saturating_sub(o.cache_hits).max(1);
        factor * (o.llm_calls as f64 / offered as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::LlmQuery;

    /// `Scan → LlmFilter × llm_filters → Project [→ Limit]`.
    fn plan(llm_filters: usize, limit: Option<usize>) -> LogicalPlan {
        let mut ops = vec![LogicalOp::Scan { table: "t".into() }];
        ops.extend((0..llm_filters).map(|i| LogicalOp::LlmFilter {
            query: LlmQuery::filter(
                format!("f{i}"),
                "keep?",
                vec!["a".into()],
                vec!["Yes".into(), "No".into()],
                "Yes",
                2.0,
            ),
            negated: false,
            est: None,
        }));
        ops.push(LogicalOp::Project {
            columns: vec!["a".into()],
        });
        ops.extend(limit.map(|n| LogicalOp::Limit { n }));
        LogicalPlan { ops }
    }

    fn pipelined(mut opt: OptimizerConfig, batch_rows: usize) -> OptimizerConfig {
        opt.pipeline = true;
        opt.pipeline_batch_rows = batch_rows;
        opt
    }

    /// Drains the schedule the way the batch loop does, with every
    /// `pass_every`-th candidate reaching the result and a tracker seeded
    /// like an adaptive statement's.
    fn drain(
        opt: OptimizerConfig,
        plan: &LogicalPlan,
        candidates: usize,
        pass_every: usize,
    ) -> (Vec<Range<usize>>, Vec<String>) {
        let mut tracker = SelectivityTracker::new();
        if opt.level == OptLevel::Adaptive {
            tracker.register_pipeline(0.5);
        }
        let mut schedule = BatchSchedule::decide(&opt, plan, candidates);
        let (mut ranges, mut notes, mut emitted) = (Vec::new(), Vec::new(), 0);
        while let Some(batch) = schedule.next(emitted, &tracker, &mut notes) {
            let passed = batch.clone().filter(|r| r % pass_every == 0).count();
            tracker.observe_pipeline(passed as u64, batch.len() as u64);
            emitted += passed;
            ranges.push(batch);
        }
        assert_eq!(schedule.batches() as usize, ranges.len());
        (ranges, notes)
    }

    fn ranges(opt: OptimizerConfig, plan: &LogicalPlan, candidates: usize) -> Vec<Range<usize>> {
        drain(opt, plan, candidates, 100).0
    }

    #[test]
    fn whole_is_one_batch_of_every_candidate() {
        let none = OptimizerConfig::none();
        assert_eq!(ranges(none, &plan(1, None), 1300), vec![0..1300]);
        // Nothing to stop early for: an aggregate blocks, a plan without
        // LLM operators saves nothing — both run whole under `all()`.
        assert_eq!(
            ranges(OptimizerConfig::all(), &plan(0, Some(3)), 50),
            vec![0..50]
        );
        // A limit that is not lazy, even `LIMIT 0`, still runs its batch.
        assert_eq!(ranges(none, &plan(1, Some(0)), 50), vec![0..50]);
    }

    #[test]
    fn no_candidates_or_a_lazy_limit_zero_issue_no_batch() {
        let all = OptimizerConfig::all();
        assert!(ranges(OptimizerConfig::none(), &plan(1, None), 0).is_empty());
        assert!(ranges(all, &plan(2, None), 0).is_empty());
        assert!(ranges(all, &plan(1, Some(0)), 200).is_empty());
        assert!(ranges(OptimizerConfig::static_only(), &plan(1, Some(0)), 200).is_empty());
    }

    #[test]
    fn only_pipelined_slices_fixed_micro_batches() {
        let opt = pipelined(OptimizerConfig::none(), 512);
        assert_eq!(
            ranges(opt, &plan(1, None), 1300),
            vec![0..512, 512..1024, 1024..1300]
        );
    }

    #[test]
    fn lazy_limit_doubles_from_the_larger_of_floor_and_limit_and_stops_when_met() {
        let lazy = OptimizerConfig::static_only();
        // Rows 0, 100, 200, … pass: the fifth one (row 400) is in 224..480.
        let doubling = vec![0..32, 32..96, 96..224, 224..480];
        assert_eq!(ranges(lazy, &plan(1, Some(5)), 1000), doubling);
        // Lazy sizes win over the pipeline's: doubling, not fixed.
        assert_eq!(
            ranges(pipelined(lazy, 512), &plan(1, Some(5)), 1000),
            doubling
        );
        // A limit above the floor is the first batch; here it is also met.
        assert_eq!(drain(lazy, &plan(1, Some(100)), 1000, 1).0, vec![0..100]);
        // The last batch is clamped to what is left.
        assert_eq!(ranges(lazy, &plan(1, Some(5)), 50), vec![0..32, 32..50]);
    }

    #[test]
    fn pilot_batches_double_from_the_floor_without_a_limit() {
        let all = OptimizerConfig::all();
        let doubling = vec![0..32, 32..96, 96..224, 224..300];
        assert_eq!(ranges(all, &plan(2, None), 300), doubling);
        assert_eq!(
            ranges(pipelined(all, 512), &plan(2, None), 300),
            doubling,
            "pilot sizes win over the pipeline's"
        );
        // One LLM filter has no order to correct; below the adaptive level
        // there is no answer cache, and batching would re-issue duplicate
        // prompts.
        assert_eq!(ranges(all, &plan(1, None), 300), vec![0..300]);
        let stat = OptimizerConfig::static_only();
        assert_eq!(ranges(stat, &plan(2, None), 300), vec![0..300]);
    }

    #[test]
    fn aimed_batches_double_until_observed_then_follow_the_tracker() {
        let mut tracker = SelectivityTracker::new();
        tracker.register_pipeline(0.5);
        let mut notes = Vec::new();
        let mut s = BatchSchedule::decide(&OptimizerConfig::all(), &plan(1, Some(50)), 10_000);
        assert_eq!(s.next(0, &tracker, &mut notes), Some(0..50));
        // Nothing observed: doubles, silently.
        assert_eq!(s.next(0, &tracker, &mut notes), Some(50..150));
        assert!(notes.is_empty());
        tracker.observe_pipeline(10, 100);
        let sel = tracker.pipeline_selectivity().unwrap();
        let aimed = (40.0 / sel).ceil() as usize;
        assert!(
            (32..9_850).contains(&aimed) && aimed != 200,
            "aimed {aimed}"
        );
        assert_eq!(s.next(10, &tracker, &mut notes), Some(150..150 + aimed));
        assert_eq!(
            notes,
            vec![format!(
                "adaptive batch sizing after batch 2: {aimed} rows (pipeline selectivity {sel:.3})"
            )]
        );
        // Same posterior, same rows owed: same size, no new note.
        let again = s.next(10, &tracker, &mut notes);
        assert_eq!(again, Some(150 + aimed..150 + 2 * aimed));
        assert_eq!(notes.len(), 1);
        // One row owed aims below the floor: clamped up to it.
        assert!((1.0 / sel).ceil() < 32.0);
        let floor = s.next(49, &tracker, &mut notes).unwrap();
        assert_eq!(floor.len(), 32);
        assert!(notes[1].starts_with("adaptive batch sizing after batch 4: 32 rows"));
    }

    #[test]
    fn aimed_batches_are_clamped_to_the_candidates_left() {
        let (got, notes) = drain(OptimizerConfig::all(), &plan(1, Some(50)), 200, 1_000);
        // One of the first 50 rows passed: the tracker asks for thousands.
        assert_eq!(got, vec![0..50, 50..200]);
        assert_eq!(notes.len(), 2, "{notes:?}");
        assert!(notes[0].starts_with("adaptive batch sizing after batch 1: 150 rows"));
        // The size that would follow the last batch is noted as well.
        assert!(notes[1].starts_with("adaptive batch sizing after batch 2: 1 rows"));
    }

    #[test]
    fn a_huge_lazy_limit_saturates_instead_of_overflowing() {
        let plan = plan(1, Some(usize::MAX));
        for opt in [OptimizerConfig::static_only(), OptimizerConfig::all()] {
            assert_eq!(drain(opt, &plan, 70, 1).0, vec![0..70]);
        }
    }
}
