//! One batch of a [`Stage`], stepped through its phases by
//! [`Stage::run_batch`]: encode + cache lookup → solve → serve first
//! attempts and fault replays → label + cascade decision → escalate. Only
//! novel rows — those the answer cache did not answer — get past the
//! first; the close labels the rest, sorts the batch's outputs by original
//! row and checks the batch ledger.
//!
//! A batch owns no buffer. It writes outputs, failed rows and solve figures
//! straight into the stage's [`QueryOutput`](crate::QueryOutput), reads the
//! completion records where the engine sessions keep them, and everything
//! else it fills — the encoder's tables and groups, the fault and
//! escalation positions, the prefix keys — is the stage's [`BatchScratch`] or its encoder's, cleared for the next
//! batch and never freed before the stage is.

use super::{Stage, PREFIX_KEY_DEPTH};
use crate::adaptive::{CachedAnswer, RowKey};
use crate::exec::{row_prompt, ExecError};
use crate::optimizer::{OptLevel, OptStats};
use crate::prompt::BatchRows;
use crate::query::LlmQuery;
use crate::table::Table;
use llmqo_core::{phc_of_plan, ReorderPlan};
use llmqo_serve::{fault_unit, EngineError};

/// The buffers a stage's batches fill past the encode, kept by the stage
/// from one batch to the next.
#[derive(Debug, Default)]
pub(super) struct BatchScratch {
    /// Per dedup group, under fault injection: whether its fault budget ran
    /// out (empty otherwise; see [`failed`](Self::failed)).
    failed: Vec<bool>,
    /// Schedule positions to replay, one entry per failed attempt.
    retries: Vec<usize>,
    /// Schedule positions of the groups the expensive tier re-runs.
    escalating: Vec<usize>,
    /// Reorder-plan prefix key of each schedule position, when the stage's
    /// engine routes by them (stale otherwise, and never read).
    prefix_keys: Vec<u64>,
    /// The text of the row key being looked up, for the debug-build
    /// collision audit.
    key_text: String,
}

impl BatchScratch {
    /// Whether dedup group `g`'s fault budget ran out.
    fn failed(&self, g: usize) -> bool {
        self.failed.get(g).is_some_and(|&failed| failed)
    }
}

/// A batch in flight; see the [module docs](self).
pub(super) struct Batch<'s, 'q> {
    stage: &'s mut Stage<'q>,
    /// The offered rows: original indices, by batch-local index.
    rows: BatchRows<'s>,
    /// The batch's ledger.
    opt: OptStats,
}

impl<'s, 'q> Batch<'s, 'q> {
    /// Phase 1, the front half (`BatchEncoder::encode`): every offered row
    /// is interned and — when the stage caches — its prompt identity (the
    /// stage's instruction id + the row key folded from its fragments'
    /// content keys) is looked up *before* anything is built for it, so the
    /// solver's table, the dedup index and the engine only ever see novel
    /// rows. Like dedup, the cache shares engine work, not labeler draws:
    /// hit rows still generate their own outputs in
    /// [`finish`](Self::finish). The encoded batch is the stage encoder's:
    /// `encoded.reorder` row `g` is the representative of `groups.members(g)`;
    /// every other member's prompt — token for token the representative's —
    /// is prefill the engine never sees.
    pub(super) fn encode(stage: &'s mut Stage<'q>, rows: BatchRows<'s>, mut opt: OptStats) -> Self {
        let (executor, table, query) = (stage.executor, stage.table, stage.query);
        let mut cache = stage
            .instruction
            .map(|id| (id, executor.cache.borrow_mut()));
        let (ledger, used_cols, key_text) =
            (&mut opt, &stage.used_cols, &mut stage.scratch.key_text);
        let mut lookup = cache.as_mut().map(|(id, cache)| {
            move |local: usize, key: RowKey| {
                if cfg!(debug_assertions) {
                    row_key_text(key_text, table, rows.get(local), query, used_cols);
                    cache.audit(*id, key, key_text);
                }
                let Some(answer) = cache.lookup(*id, key) else {
                    return false;
                };
                ledger.cache_hits += 1;
                ledger.cache_tokens_saved += answer.prompt_tokens + answer.output_tokens;
                true
            }
        });
        let enc = stage.encoder.encode(
            rows,
            stage.opt.level >= OptLevel::Static,
            lookup
                .as_mut()
                .map(|f| f as &mut dyn FnMut(usize, RowKey) -> bool),
        );

        let (encoded, groups) = (&enc.encoded, &enc.groups);
        opt.rows_deduped = (groups.rows() - groups.len()) as u64;
        for g in 0..groups.len() {
            let duplicates = groups.members(g).len() as u64 - 1;
            if duplicates > 0 {
                let row_tokens: u64 = encoded.reorder.row(g).map(|c| u64::from(c.len)).sum();
                opt.prefill_tokens_saved +=
                    duplicates * (encoded.instruction.len() as u64 + row_tokens);
            }
        }
        Batch { stage, rows, opt }
    }

    /// Phases 2–5 — for the novel rows, if any — then the close.
    pub(super) fn run(mut self) -> Result<OptStats, ExecError> {
        if self.stage.encoder.batch().groups.len() > 0 {
            let plan = self.solve()?;
            self.serve(&plan)?;
            self.label(&plan);
            if !self.stage.scratch.escalating.is_empty() {
                // Phase 5: the expensive tier re-runs the escalating groups.
                let escalating = std::mem::take(&mut self.stage.scratch.escalating);
                let escalated = self.submit(&plan, escalating.iter().copied(), true);
                self.stage.scratch.escalating = escalating;
                escalated?;
            }
        }
        Ok(self.finish())
    }

    /// Phase 2: the solver sees only the novel, dedup-compacted batch.
    fn solve(&mut self) -> Result<ReorderPlan, ExecError> {
        let stage = &mut *self.stage;
        let compact = &stage.encoder.batch().encoded.reorder;
        let solution = stage.reorderer.reorder(compact, &stage.fds)?;
        debug_assert!(solution.plan.validate(compact).is_ok());
        let phc = phc_of_plan(compact, &solution.plan);
        let report = &mut stage.output.report;
        report.field_phc.phc += phc.phc;
        report.field_phc.hit_tokens += phc.hit_tokens;
        report.field_phc.total_tokens += phc.total_tokens;
        report.solve_time_s += solution.solve_time.as_secs_f64();
        report.claimed_phc += solution.claimed_phc;
        self.opt.llm_calls = solution.plan.len() as u64;
        // Fan-out stages route each request by its reorder-plan prefix key
        // so a shared-prefix group lands on one replica; a single replica
        // never looks at keys, so skip the hashing.
        if stage.engine.wants_prefix_keys() {
            stage.scratch.prefix_keys = solution.plan.prefix_keys(compact, PREFIX_KEY_DEPTH);
        }
        Ok(solution.plan)
    }

    /// Runs the requests at schedule `positions` of `plan` — all of them
    /// for first attempts, one entry per failed attempt or per escalating
    /// group for a replay — on the cheap tier or, `expensive`, on the
    /// other, fast-forwarded to the cheap tier's clock first: an escalation
    /// waits for the cheap answer. Each request carries its
    /// representative's *original* row index, so serving traces stay
    /// attributable, and its position's prefix key, so a replay lands on
    /// the replica already holding the group's cached prefix. A request is
    /// a borrowed view — the instruction, then the row's fragments where
    /// the encoded table keeps them — built lazily as the stage engine
    /// enqueues it. Under a cascade the tier is billed every request it
    /// serves at full (uncached) prompt + output volume. The completion
    /// records are the tier's [`served`](super::StageEngine::served).
    fn submit(
        &mut self,
        plan: &ReorderPlan,
        positions: impl ExactSizeIterator<Item = usize>,
        expensive: bool,
    ) -> Result<(), EngineError> {
        let (stage, rows) = (&mut *self.stage, self.rows);
        let (enc, output_lens) = (stage.encoder.batch(), &stage.output_lens);
        let prefix_keys = &stage.scratch.prefix_keys;
        let requests = positions.map(|ri| {
            let rp = plan.row(ri);
            let original = rows.get(enc.groups.representative(rp.row));
            (
                original,
                output_lens.sample(original),
                prefix_keys.get(ri).copied().unwrap_or_default(),
                row_prompt(&enc.encoded, rp),
            )
        });
        let tier = if expensive {
            let Some(escalation) = &mut stage.escalation else {
                unreachable!("rows escalate only under a cascade, which opened the tier")
            };
            escalation.advance_to(stage.engine.clock());
            escalation
        } else {
            &mut stage.engine
        };
        tier.run_batch(requests)?;
        if stage.opt.cascade.is_some() {
            let opt = &mut self.opt;
            let (prompt, output) = if expensive {
                (&mut opt.esc_prompt_tokens, &mut opt.esc_output_tokens)
            } else {
                (&mut opt.cheap_prompt_tokens, &mut opt.cheap_output_tokens)
            };
            for c in tier.served() {
                *prompt += c.prompt_tokens as u64;
                *output += u64::from(c.output_tokens);
            }
        }
        Ok(())
    }

    /// Phase 3: one engine request per scheduled representative, then the
    /// stage's deterministic fault injection. Each representative's engine
    /// call rolls per attempt against the configured transient-error rate
    /// (pure in `(seed, original row, attempt)` — reruns fail
    /// identically). A failed roll retries as a fresh engine request — warm
    /// prefix cache, so retries are cheap — up to the statement budget;
    /// rows still failing either degrade to partial results (dropped and
    /// annotated downstream) or fail the statement with a typed error.
    /// Never a panic. Every served prompt is registered in the answer
    /// cache before the failed attempts are replayed. Leaves, per dedup
    /// group, whether its budget ran out in the scratch's `failed`.
    fn serve(&mut self, plan: &ReorderPlan) -> Result<(), ExecError> {
        self.submit(plan, 0..plan.len(), false)?;
        let stage = &mut *self.stage;
        let groups = &stage.encoder.batch().groups;
        let scratch = &mut stage.scratch;
        scratch.failed.clear();
        scratch.retries.clear();
        if let Some(f) = stage.opt.faults.filter(|f| f.error_ppm > 0) {
            scratch.failed.resize(groups.len(), false);
            let p = f64::from(f.error_ppm) / 1e6;
            let budget = f.max_attempts;
            for (ri, rp) in plan.rows().enumerate() {
                let original = self.rows.get(groups.representative(rp.row));
                let mut attempt = 1u32;
                while attempt <= budget
                    && fault_unit(f.seed, original as u64, u64::from(attempt)) < p
                {
                    attempt += 1;
                }
                let served = attempt <= budget;
                let extra = if served { attempt - 1 } else { budget - 1 };
                self.opt.llm_retries += u64::from(extra);
                scratch
                    .retries
                    .extend(std::iter::repeat_n(ri, extra as usize));
                if !served {
                    if !f.partial_results {
                        return Err(ExecError::LlmUnavailable {
                            row: original,
                            attempts: budget,
                        });
                    }
                    scratch.failed[rp.row] = true;
                }
            }
        }
        if let Some(id) = stage.instruction {
            // A record's id is its group representative's original row, a
            // binary search away in the ascending offered rows; the cache
            // is a map, so the order the records come in (replica-grouped
            // under fan-out) is moot.
            let enc = stage.encoder.batch();
            let mut cache = stage.executor.cache.borrow_mut();
            for c in stage.engine.served() {
                let local = self
                    .rows
                    .local(c.id)
                    .unwrap_or_else(|| unreachable!("request ids are offered rows"));
                let g = groups.group_of(local);
                debug_assert_eq!(groups.representative(g), local);
                if !scratch.failed(g) {
                    let record = CachedAnswer {
                        prompt_tokens: c.prompt_tokens as u64,
                        output_tokens: u64::from(c.output_tokens),
                    };
                    cache.insert(id, enc.keys[g], record);
                }
            }
        }
        if !scratch.retries.is_empty() {
            // Replay the failed attempts so their serving cost is real:
            // each retry re-sends the representative's full prompt
            // (mostly cache hits) and re-decodes its output.
            let retries = std::mem::take(&mut scratch.retries);
            let replayed = self.submit(plan, retries.iter().copied(), false);
            self.stage.scratch.retries = retries;
            replayed?;
        }
        Ok(())
    }

    /// Phase 4: generates outputs for every offered novel row — the labeler
    /// is a per-row instrument, so deduplication is invisible in results by
    /// design. A group whose budget ran out (`failed`) degrades whole: no
    /// labeler draw, just the per-row failure record the SQL layer
    /// annotates. Leaves the schedule positions to escalate in the
    /// scratch's `escalating`: dedup groups whose rows all kept the cheap
    /// answer never touch the expensive tier; a group with at least one
    /// escalated row re-runs its representative's request there (engine
    /// work is shared per group on both tiers, labels stay per-row).
    fn label(&mut self, plan: &ReorderPlan) {
        let (stage, rows) = (&mut *self.stage, self.rows);
        let labeler = stage.labeler();
        let groups = &stage.encoder.batch().groups;
        let scratch = &mut stage.scratch;
        scratch.escalating.clear();
        // Room for every offered row's output, made past the engine drain
        // (where a statement's live heap peaks).
        stage.output.outputs.reserve(rows.len());
        for (ri, rp) in plan.rows().enumerate() {
            let originals = groups.members(rp.row).map(|local| rows.get(local));
            if scratch.failed(rp.row) {
                self.opt.rows_failed += originals.len() as u64;
                stage.output.failed_rows.extend(originals);
                continue;
            }
            let key_field_pos = match stage.key_col {
                Some(k) if rp.fields.len() > 1 => {
                    let pos = rp
                        .fields
                        .iter()
                        .position(|&f| f as usize == k)
                        .unwrap_or_else(|| unreachable!("plans carry every field"));
                    pos as f64 / (rp.fields.len() - 1) as f64
                }
                _ => 0.5,
            };
            let mut group_escalates = false;
            for original in originals {
                group_escalates |= labeler.label(
                    &mut self.opt,
                    &mut stage.output.outputs,
                    original,
                    key_field_pos,
                );
            }
            if group_escalates {
                scratch.escalating.push(ri);
            }
        }
    }

    /// Closes the batch. Cache-hit rows saw no solver and no engine request
    /// — but still take one labeler draw each. Hits exist only for
    /// key-field-free queries, whose key-field position is the constant 0.5
    /// on every execution path. Under a cascade, hits are engine-free on
    /// *both* tiers (the cache is tier-agnostic: the prompt was already
    /// paid for), but each row still takes its pure per-row escalation
    /// decision and cascade label, so caching never changes results.
    fn finish(mut self) -> OptStats {
        let stage = &mut *self.stage;
        let labeler = stage.labeler();
        let enc = stage.encoder.batch();
        let outputs = &mut stage.output.outputs;
        outputs.reserve(self.rows.len() - enc.groups.rows());
        for local in enc.groups.hits() {
            labeler.label(&mut self.opt, outputs, self.rows.get(local), 0.5);
        }
        // Rows are unique, so an unstable sort orders them as a stable one.
        let (outputs_from, failed_from) = stage.batch_from;
        outputs[outputs_from..].sort_unstable_by_key(|o| o.row);

        // The batch ledger: every offered row is answered from the cache or
        // novel, every novel row is a duplicate or an engine call, and
        // every row ends labelled or failed (and, under a cascade, in
        // exactly one tier bucket).
        let (opt, novel) = (&self.opt, enc.groups.rows() as u64);
        debug_assert_eq!(opt.cache_hits + novel, opt.rows_in);
        debug_assert_eq!(opt.rows_deduped + opt.llm_calls, novel);
        debug_assert_eq!(
            (outputs.len() - outputs_from + stage.output.failed_rows.len() - failed_from) as u64,
            opt.rows_in
        );
        debug_assert!(
            stage.opt.cascade.is_none()
                || opt.rows_cheap + opt.rows_escalated + opt.rows_failed == opt.rows_in
        );
        self.opt
    }
}

/// Writes the text a row's [`RowKey`] stands for — its fragments
/// concatenated in query-field order — into `text`, for the debug-build
/// collision audit.
fn row_key_text(
    text: &mut String,
    table: &Table,
    row: usize,
    query: &LlmQuery,
    used_cols: &[usize],
) {
    text.clear();
    for (name, &col) in query.fields.iter().zip(used_cols) {
        crate::dict::push_fragment(text, name, table.value(row, col));
    }
}
