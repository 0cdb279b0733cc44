//! One batch of a [`Stage`], stepped through its phases by
//! [`Stage::run_batch`]: encode + cache lookup → solve → serve first
//! attempts and fault replays → label + cascade decision → escalate. Only
//! novel rows — those the answer cache did not answer — get past the
//! first; the close labels the rest, sorts the outputs by original row and
//! checks the batch ledger.

use super::{Stage, PREFIX_KEY_DEPTH};
use crate::adaptive::{CachedAnswer, RowKey};
use crate::exec::{row_prompt, ExecError, StageOutcome};
use crate::optimizer::OptLevel;
use crate::prompt::{encode_batch, EncodedBatch};
use crate::query::LlmQuery;
use crate::table::Table;
use llmqo_core::{phc_of_plan, ReorderPlan};
use llmqo_serve::{fault_unit, Completion, EngineError};

/// A batch in flight; see the [module docs](self).
pub(super) struct Batch<'s, 'q> {
    stage: &'s mut Stage<'q>,
    /// The offered rows: original indices, by batch-local index.
    rows: &'s [usize],
    /// The rows lowered to what the engine will serve: `enc.encoded.reorder`
    /// row `g` is the representative of `enc.groups.members(g)`; every other
    /// member's prompt — token for token the representative's — is prefill
    /// the engine never sees.
    enc: EncodedBatch,
    /// Reorder-plan prefix key of each schedule position, once solved and
    /// when the stage's engine routes by them (empty otherwise).
    prefix_keys: Vec<u64>,
    out: StageOutcome,
}

impl<'s, 'q> Batch<'s, 'q> {
    /// Phase 1, the front half (`encode_batch`): every offered row is
    /// interned and — when the stage caches — its prompt identity (the
    /// stage's instruction id + the row key folded from its fragments'
    /// content keys) is looked up *before* anything is built for it, so the
    /// solver's table, the dedup index and the engine only ever see novel
    /// rows. Like dedup, the cache shares engine work, not labeler draws:
    /// hit rows still generate their own outputs in
    /// [`finish`](Self::finish).
    pub fn encode(
        stage: &'s mut Stage<'q>,
        rows: &'s [usize],
        mut out: StageOutcome,
    ) -> Result<Self, ExecError> {
        let (executor, table, query) = (stage.executor, stage.table, stage.query);
        let mut cache = stage
            .instruction
            .map(|id| (id, executor.cache.borrow_mut()));
        let (opt, used_cols) = (&mut out.opt, &stage.used_cols);
        let mut lookup = cache.as_mut().map(|(id, cache)| {
            move |local: usize, key: RowKey| {
                if cfg!(debug_assertions) {
                    let text = row_key_text(table, rows[local], query, used_cols);
                    cache.audit(*id, key, &text);
                }
                let Some(answer) = cache.lookup(*id, key) else {
                    return false;
                };
                opt.cache_hits += 1;
                opt.cache_tokens_saved += answer.prompt_tokens + answer.output_tokens;
                true
            }
        });
        let enc = encode_batch(
            &executor.tokenizer,
            table,
            query,
            rows,
            stage.opts.level >= OptLevel::Static,
            lookup
                .as_mut()
                .map(|f| f as &mut dyn FnMut(usize, RowKey) -> bool),
        )?;

        let (encoded, groups) = (&enc.encoded, &enc.groups);
        out.opt.rows_deduped = (groups.rows() - groups.len()) as u64;
        for g in 0..groups.len() {
            let duplicates = groups.members(g).len() as u64 - 1;
            if duplicates > 0 {
                let row_tokens: u64 = encoded
                    .reorder
                    .row(g)
                    .iter()
                    .map(|c| u64::from(c.len))
                    .sum();
                out.opt.prefill_tokens_saved +=
                    duplicates * (encoded.instruction_len() as u64 + row_tokens);
            }
        }
        Ok(Batch {
            stage,
            rows,
            enc,
            prefix_keys: Vec::new(),
            out,
        })
    }

    /// Phases 2–5 — for the novel rows, if any — then the close.
    pub fn run(mut self) -> Result<StageOutcome, ExecError> {
        if self.enc.groups.len() > 0 {
            let plan = self.solve()?;
            let failed = self.serve(&plan)?;
            let escalating = self.label(&plan, &failed);
            if !escalating.is_empty() {
                // Phase 5: the expensive tier re-runs the escalating groups.
                self.submit(&plan, escalating.iter().copied(), true)?;
            }
        }
        Ok(self.finish())
    }

    /// Phase 2: the solver sees only the novel, dedup-compacted batch.
    fn solve(&mut self) -> Result<ReorderPlan, ExecError> {
        let compact = &self.enc.encoded.reorder;
        let solution = self.stage.reorderer.reorder(compact, &self.stage.fds)?;
        debug_assert!(solution.plan.validate(compact).is_ok());
        self.out.field_phc = phc_of_plan(compact, &solution.plan);
        self.out.solve_time_s = solution.solve_time.as_secs_f64();
        self.out.claimed_phc = solution.claimed_phc;
        self.out.opt.llm_calls = solution.plan.len() as u64;
        // Fan-out stages route each request by its reorder-plan prefix key
        // so a shared-prefix group lands on one replica; a single replica
        // never looks at keys, so skip the hashing.
        if self.stage.engine.wants_prefix_keys() {
            self.prefix_keys = solution.plan.prefix_keys(compact, PREFIX_KEY_DEPTH);
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
    /// serves at full (uncached) prompt + output volume.
    fn submit(
        &mut self,
        plan: &ReorderPlan,
        positions: impl ExactSizeIterator<Item = usize>,
        expensive: bool,
    ) -> Result<Vec<Completion>, EngineError> {
        let (stage, rows, enc) = (&mut *self.stage, self.rows, &self.enc);
        let (output_lens, prefix_keys) = (&stage.output_lens, &self.prefix_keys);
        let requests = positions.map(|ri| {
            let rp = plan.row(ri);
            let original = rows[enc.groups.representative(rp.row)];
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
        let served = tier.run_batch(requests)?;
        if stage.opts.cascade.is_some() {
            let opt = &mut self.out.opt;
            let (prompt, output) = if expensive {
                (&mut opt.esc_prompt_tokens, &mut opt.esc_output_tokens)
            } else {
                (&mut opt.cheap_prompt_tokens, &mut opt.cheap_output_tokens)
            };
            for c in &served {
                *prompt += c.prompt_tokens as u64;
                *output += u64::from(c.output_tokens);
            }
        }
        Ok(served)
    }

    /// Phase 3: one engine request per scheduled representative, then the
    /// stage's deterministic fault injection. Each representative's engine
    /// call rolls per attempt against the configured transient-error rate
    /// (pure in `(seed, original row, attempt)` — reruns fail
    /// identically). A failed roll retries as a fresh engine request — warm
    /// prefix cache, so retries are cheap — up to the statement budget;
    /// rows still failing either degrade to partial results (dropped and
    /// annotated downstream) or fail the statement with a typed error.
    /// Never a panic. Closes by registering every served prompt in the
    /// answer cache, in schedule order. Returns, per dedup group, whether
    /// its budget ran out.
    fn serve(&mut self, plan: &ReorderPlan) -> Result<Vec<bool>, ExecError> {
        // Completion records are consumed by request id, so the stage
        // engine's merge order (deterministic but replica-grouped under
        // fan-out) never affects results.
        let mut completions = self.submit(plan, 0..plan.len(), false)?;
        let mut failed = vec![false; self.enc.groups.len()];
        if let Some(f) = self.stage.opts.faults.filter(|f| f.error_ppm > 0) {
            let p = f64::from(f.error_ppm) / 1e6;
            let budget = f.max_attempts.max(1);
            let mut retries: Vec<usize> = Vec::new();
            for (ri, rp) in plan.rows().enumerate() {
                let original = self.rows[self.enc.groups.representative(rp.row)];
                let mut attempt = 1u32;
                while attempt <= budget
                    && fault_unit(f.seed, original as u64, u64::from(attempt)) < p
                {
                    attempt += 1;
                }
                let served = attempt <= budget;
                let extra = if served { attempt - 1 } else { budget - 1 };
                self.out.opt.llm_retries += u64::from(extra);
                retries.extend(std::iter::repeat_n(ri, extra as usize));
                if !served {
                    if !f.partial_results {
                        return Err(ExecError::LlmUnavailable {
                            row: original,
                            attempts: budget,
                        });
                    }
                    failed[rp.row] = true;
                }
            }
            if !retries.is_empty() {
                // Replay the failed attempts so their serving cost is real:
                // each retry re-sends the representative's full prompt
                // (mostly cache hits) and re-decodes its output.
                self.submit(plan, retries.iter().copied(), false)?;
            }
        }
        if let Some(id) = self.stage.instruction {
            // Sorted by request id the records are in group order: groups
            // are numbered in the offered order of their representatives,
            // and offered rows ascend.
            completions.sort_unstable_by_key(|c| c.id);
            let mut cache = self.stage.executor.cache.borrow_mut();
            for rp in plan.rows().filter(|rp| !failed[rp.row]) {
                let c = &completions[rp.row];
                debug_assert_eq!(c.id, self.rows[self.enc.groups.representative(rp.row)]);
                let record = CachedAnswer {
                    prompt_tokens: c.prompt_tokens as u64,
                    output_tokens: u64::from(c.output_tokens),
                };
                cache.insert(id, self.enc.keys[rp.row], record);
            }
        }
        Ok(failed)
    }

    /// Phase 4: generates outputs for every offered novel row — the labeler
    /// is a per-row instrument, so deduplication is invisible in results by
    /// design. A group whose budget ran out (`failed`) degrades whole: no
    /// labeler draw, just the per-row failure record the SQL layer
    /// annotates. Returns the schedule positions to escalate: dedup groups
    /// whose rows all kept the cheap answer never touch the expensive tier;
    /// a group with at least one escalated row re-runs its representative's
    /// request there (engine work is shared per group on both tiers, labels
    /// stay per-row).
    fn label(&mut self, plan: &ReorderPlan, failed: &[bool]) -> Vec<usize> {
        let mut escalating: Vec<usize> = Vec::new();
        for (ri, rp) in plan.rows().enumerate() {
            let members = self.enc.groups.members(rp.row);
            let originals = members.iter().map(|&local| self.rows[local as usize]);
            if failed[rp.row] {
                self.out.failed_rows.extend(originals);
                self.out.opt.rows_failed += members.len() as u64;
                continue;
            }
            let key_field_pos = match self.stage.key_col {
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
                group_escalates |= self.stage.label_row(&mut self.out, original, key_field_pos);
            }
            if group_escalates {
                escalating.push(ri);
            }
        }
        escalating
    }

    /// Closes the batch. Cache-hit rows saw no solver and no engine request
    /// — but still take one labeler draw each. Hits exist only for
    /// key-field-free queries, whose key-field position is the constant 0.5
    /// on every execution path. Under a cascade, hits are engine-free on
    /// *both* tiers (the cache is tier-agnostic: the prompt was already
    /// paid for), but each row still takes its pure per-row escalation
    /// decision and cascade label, so caching never changes results.
    fn finish(mut self) -> StageOutcome {
        for &local in &self.enc.hits {
            self.stage
                .label_row(&mut self.out, self.rows[local as usize], 0.5);
        }
        self.out.outputs.sort_by_key(|o| o.row);

        // The batch ledger: every offered row is answered from the cache or
        // novel, every novel row is a duplicate or an engine call, and
        // every row ends labelled or failed (and, under a cascade, in
        // exactly one tier bucket).
        let (opt, novel) = (&self.out.opt, self.enc.groups.rows() as u64);
        debug_assert_eq!(opt.cache_hits + novel, opt.rows_in);
        debug_assert_eq!(opt.rows_deduped + opt.llm_calls, novel);
        debug_assert_eq!(
            (self.out.outputs.len() + self.out.failed_rows.len()) as u64,
            opt.rows_in
        );
        debug_assert!(
            self.stage.opts.cascade.is_none()
                || opt.rows_cheap + opt.rows_escalated + opt.rows_failed == opt.rows_in
        );
        self.out
    }
}

/// The text a row's [`RowKey`] stands for — its fragments concatenated in
/// query-field order — for the debug-build collision audit.
fn row_key_text(table: &Table, row: usize, query: &LlmQuery, used_cols: &[usize]) -> String {
    let mut text = String::new();
    for (name, &col) in query.fields.iter().zip(used_cols) {
        crate::dict::push_fragment(&mut text, name, table.value(row, col));
    }
    text
}
