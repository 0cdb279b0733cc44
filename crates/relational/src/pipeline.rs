//! Operator stages: the serving-side state of one LLM operator.
//!
//! Every LLM operator of a statement — and every bare
//! [`QueryExecutor::execute_with`] call, and every stage of a T3 chain —
//! runs on one [`Stage`]. A stage knows its operator: [`Stage::open`] takes
//! the executor, table, query, solver, dependencies, ground truth and
//! options once, and resolves once what every batch needs — the used
//! columns (an unknown field fails here, rows or no rows), the projected
//! dependencies, the answer-cache identity, the output-length stream, the
//! key column. It owns the operator's [`StageEngine`], a second one for the
//! expensive tier when the operator cascades, and the outcome accumulated
//! over its batches. [`Stage::run_batch`] is the only way a row reaches the
//! LLM; what one batch goes through is [`batch`]'s. The stage is opened on
//! the operator's first batch and finished once, into the operator's
//! [`QueryOutput`].
//!
//! A [`StageEngine`] is `n ≥ 1` replica [`EngineSession`]s behind the
//! cluster layer's [`PrefixAffinity`] router; the classic relay is simply
//! `n = 1`. What differs by `n` is derived from it, never configured: a
//! single replica keeps trace lane 0, is never routed and asks for no
//! prefix keys. All stage engines of a statement live on one discrete-event
//! timeline: the SQL runner hands each batch's upstream completion instant
//! to [`StageEngine::advance_to`] before running it, so operator `j` prefills
//! batch `k + 1` while operator `j + 1` decodes batch `k` — overlap instead
//! of a relay — and fan-out spreads one operator's dedup-compacted batch
//! across replicas while rendezvous hashing on the reorder plan's prefix
//! keys keeps every shared-prefix group on one replica (the locality the
//! PR-2 solvers created and `fig_cluster` measures). The instant a stage
//! hands a batch downstream is [`Stage::clock`]: the later of its two
//! tiers, since an escalated row's answer exists only once the expensive
//! tier has produced it.
//!
//! A batch reaches a stage engine as borrowed views, `(id, output_len, key,
//! prompt)` with the prompt an iterator over fragments that stay where the
//! encoded table keeps them; the engine hands each to
//! [`EngineSession::enqueue_fragments`], which keeps only the prompt's
//! block chain. No request object exists on this path.
//!
//! Routing here reuses the cluster crate's router and snapshot types
//! directly: the statement-level fan-out is a small, arrival-free special
//! case of the sharded dispatcher (no admission queue, no backpressure, no
//! faults — replica queues are unbounded within a statement), so the same
//! [`ReplicaSnapshot`] contract applies and nothing of the dispatcher's
//! replica lifecycle is needed.
//!
//! [`QueryExecutor::execute_with`]: crate::QueryExecutor::execute_with

mod batch;

use crate::exec::{
    project_fds, ExecError, ExecOptions, OutputLens, QueryExecutor, QueryOutput, RowOutput,
    StageOutcome,
};
use crate::query::LlmQuery;
use crate::table::Table;
use batch::Batch;
use llmqo_cluster::{PrefixAffinity, ReplicaSnapshot, Router};
use llmqo_core::{FunctionalDeps, Reorderer};
use llmqo_serve::{Completion, EngineError, EngineReport, EngineSession, SessionReport, SimEngine};
use llmqo_tokenizer::TokenId;
use std::sync::Arc;

/// Depth (leading scheduled fields) of the reorder-plan prefix keys used
/// for fan-out routing — the same fixed depth the cluster bench
/// (`fig_cluster`) tags requests with.
const PREFIX_KEY_DEPTH: usize = 1;

/// The engine one tier of an LLM operator runs on: `n ≥ 1` replica sessions
/// over one deployment, sharing a caller-driven timeline. See the
/// [module docs](self).
#[derive(Debug)]
pub(crate) struct StageEngine {
    sessions: Vec<EngineSession>,
    router: PrefixAffinity,
    /// Requests routed to each replica so far
    /// ([`ReplicaSnapshot::assigned`]).
    assigned: Vec<usize>,
    /// Routing scratch, refilled per request.
    snapshots: Vec<ReplicaSnapshot>,
}

impl StageEngine {
    /// Opens a stage engine with `replicas` sessions (clamped to at least
    /// one). With several replicas, replica `i` reports observability spans
    /// on trace lane `i + 1`, mirroring the cluster simulator's lane
    /// layout; a single replica stays on lane 0, the SQL lane.
    ///
    /// # Errors
    ///
    /// [`EngineError::ModelTooLarge`] if the model does not fit the
    /// deployment.
    pub fn open(engine: &SimEngine, replicas: usize) -> Result<Self, EngineError> {
        let n = replicas.max(1);
        let mut sessions = Vec::with_capacity(n);
        for i in 0..n {
            let mut session = engine.session()?;
            if n > 1 {
                let lane = u32::try_from(i + 1).unwrap_or(u32::MAX);
                session.set_trace_lane(lane);
                if llmqo_obs::enabled() {
                    llmqo_obs::tracer().name_lane(lane, &format!("replica {i}"));
                }
            }
            sessions.push(session);
        }
        Ok(StageEngine {
            sessions,
            router: PrefixAffinity::default(),
            assigned: vec![0; n],
            snapshots: Vec::new(),
        })
    }

    /// Number of replica sessions.
    pub fn replicas(&self) -> usize {
        self.sessions.len()
    }

    /// Whether [`run_batch`](Self::run_batch) routes by prefix key (lets
    /// callers skip computing keys for a single replica).
    pub fn wants_prefix_keys(&self) -> bool {
        self.sessions.len() > 1
    }

    /// The stage clock: when everything this engine has run so far is done
    /// (the latest replica clock).
    pub fn clock(&self) -> f64 {
        self.sessions
            .iter()
            .map(EngineSession::clock)
            .fold(0.0, f64::max)
    }

    /// Fast-forwards idle replicas to `t` — the upstream operator's
    /// hand-off instant. Replicas already past `t` are untouched.
    pub fn advance_to(&mut self, t: f64) {
        debug_assert!(t.is_finite() && t >= 0.0, "hand-off instant {t}");
        let before = self.clock();
        for s in &mut self.sessions {
            s.advance_to(t);
        }
        debug_assert!(self.clock() >= before, "stage clock ran backwards");
    }

    /// The replica the router sends `key` to, against live snapshots.
    fn place(&mut self, key: u64) -> usize {
        self.snapshots.clear();
        self.snapshots.extend(
            self.sessions
                .iter()
                .zip(&self.assigned)
                .enumerate()
                .map(|(i, (s, &assigned))| ReplicaSnapshot::observe(i, s, assigned, true)),
        );
        self.router
            .route(key, &self.snapshots)
            .min(self.sessions.len() - 1)
    }

    /// Runs one batch to completion and returns its completion records.
    /// Each request is `(id, output_len, key, prompt)`, the prompt a
    /// borrowed view of its fragments; the engine hashes it on the way in
    /// and keeps nothing of it, so a caller passing a lazy iterator builds
    /// no request and no prompt vector.
    ///
    /// With several replicas, `key` is the request's reorder-plan prefix
    /// key; requests are placed one by one through the prefix-affinity
    /// router against live snapshots, then all replicas run concurrently on
    /// the simulated clock. The merge order is deterministic (replica index,
    /// then per-replica completion order); callers consume completions by
    /// request id, so no order beyond determinism is promised. A single
    /// replica serves every request and never looks at `key` (callers pass
    /// anything, see [`wants_prefix_keys`](Self::wants_prefix_keys)).
    ///
    /// # Errors
    ///
    /// [`EngineError::RequestTooLarge`] if a request can never be admitted.
    pub fn run_batch<'a, P>(
        &mut self,
        requests: impl IntoIterator<Item = (usize, u32, u64, P), IntoIter: ExactSizeIterator>,
    ) -> Result<Vec<Completion>, EngineError>
    where
        P: IntoIterator<Item = &'a Arc<[TokenId]>>,
    {
        let requests = requests.into_iter();
        let offered = requests.len();
        let routed = self.wants_prefix_keys();
        let before = self.clock();
        for (id, output_len, key, prompt) in requests {
            let replica = if routed { self.place(key) } else { 0 };
            self.sessions[replica].enqueue_fragments(id, output_len, prompt);
            self.assigned[replica] += 1;
        }
        // Allocated by the first replica's records, once they exist: the
        // drain is where a statement's live heap peaks.
        let mut completions = Vec::new();
        for s in &mut self.sessions {
            // Everything is queued: an empty batch drains the session.
            completions.extend_from_slice(s.run_batch(&[])?);
        }
        debug_assert_eq!(completions.len(), offered, "one completion per request");
        debug_assert!(self.clock() >= before, "stage clock ran backwards");
        Ok(completions)
    }

    /// Finalizes the engine into one [`EngineReport`], the replicas' reports
    /// merged by [`SessionReport::merge`]: total work summed,
    /// `job_completion_time_s` the max replica clock (when the stage as a
    /// whole finished), peaks the hottest replica's high-water mark,
    /// latency/TTFT percentiles over every request. A single replica's
    /// report is returned as is.
    pub fn finish(self) -> EngineReport {
        SessionReport::merge(self.sessions.into_iter().map(EngineSession::finish)).report
    }
}

/// One LLM operator, opened once for a whole statement: what it reads (the
/// executor, the table, the solver, the ground truth), what
/// [`open`](Self::open) resolves from that once, its engines, and the
/// outcome accumulated over its batches. See the [module docs](self).
pub(crate) struct Stage<'q> {
    /// The operator's query.
    pub query: &'q LlmQuery,
    /// The tier first attempts and fault retries run on (the cheap one
    /// under a cascade).
    pub engine: StageEngine,
    /// What the stage's batches have produced so far.
    pub outcome: StageOutcome,
    executor: &'q QueryExecutor<'q>,
    table: &'q Table,
    reorderer: &'q dyn Reorderer,
    /// Ground-truth answer per original row index.
    truth: &'q dyn Fn(usize) -> String,
    opts: ExecOptions,
    /// The expensive tier escalated representatives replay on; `Some`
    /// exactly when `opts.cascade` is.
    escalation: Option<StageEngine>,
    /// Source-table column of each query field.
    used_cols: Vec<usize>,
    /// The table's functional dependencies, projected onto `used_cols`.
    fds: FunctionalDeps,
    /// The query's interned answer-cache identity; `Some` exactly when the
    /// stage consults the session answer cache.
    instruction: Option<u32>,
    output_lens: OutputLens,
    /// Position of the query's key field among its fields.
    key_col: Option<usize>,
}

impl<'q> Stage<'q> {
    /// Opens the stage `query` runs on over `table` under `opts`:
    /// `replicas` sessions per tier, a second tier when `opts` carries a
    /// cascade. `fds` are over the full table schema; `truth` supplies the
    /// ground-truth answer per original row index.
    ///
    /// # Errors
    ///
    /// [`StageEngine::open`]'s; [`ExecError::EmptyFields`]; an unknown
    /// field is [`ExecError::Table`] here, before any row is offered.
    #[allow(clippy::too_many_arguments)] // all an operator knows, taken once
    pub fn open(
        executor: &'q QueryExecutor<'q>,
        table: &'q Table,
        query: &'q LlmQuery,
        reorderer: &'q dyn Reorderer,
        fds: &FunctionalDeps,
        truth: &'q dyn Fn(usize) -> String,
        opts: ExecOptions,
        replicas: usize,
    ) -> Result<Self, ExecError> {
        let engine = StageEngine::open(executor.engine, replicas)?;
        let escalation = match opts.cascade {
            Some(_) => Some(StageEngine::open(executor.engine, replicas)?),
            None => None,
        };
        if query.fields.is_empty() {
            return Err(ExecError::EmptyFields);
        }
        let used_cols = table.resolve_columns(&query.fields)?;
        // Key-field queries are never cached: their labeler draws depend on
        // where the schedule placed the key field, which a cache hit has no
        // schedule to derive from — and they exist precisely to measure
        // positional effects (Fig. 6), which caching would distort. Without
        // a key field, `key_field_pos` is the constant 0.5 on every path,
        // so hits label exactly as a cache-off run would.
        let instruction = (opts.answer_cache && query.key_field.is_none()).then(|| {
            let mut cache = executor.cache.borrow_mut();
            cache.instruction_id(&query_cache_identity(query))
        });
        Ok(Stage {
            query,
            engine,
            outcome: StageOutcome::default(),
            executor,
            table,
            reorderer,
            truth,
            opts,
            escalation,
            fds: project_fds(fds, &used_cols),
            used_cols,
            instruction,
            output_lens: OutputLens::new(&query.name, query.output_tokens_mean),
            key_col: query
                .key_field
                .as_deref()
                .and_then(|k| query.fields.iter().position(|f| f == k)),
        })
    }

    /// When everything this stage has been handed is answered: the later of
    /// its tiers' clocks — an escalated row's answer exists only at the
    /// expensive tier's. The hand-off instant downstream operators wait for.
    pub fn clock(&self) -> f64 {
        let escalated = self.escalation.as_ref().map_or(0.0, StageEngine::clock);
        self.engine.clock().max(escalated)
    }

    /// The batch primitive — the one door to the LLM: evaluates the
    /// operator over `rows`, ascending original indices of its table, under
    /// the stage's [`ExecOptions`] (see [`batch`] for the phases), and
    /// returns that batch's outcome for the caller to consume, then fold
    /// into [`outcome`](Self::outcome). With observability on, emits the
    /// executor phase span `op.<query>` on the SQL lane and the `sql.*`
    /// counters.
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub fn run_batch(&mut self, rows: &[usize]) -> Result<StageOutcome, ExecError> {
        debug_assert!(rows.is_sorted(), "batches offer ascending rows");
        let started_s = self.engine.clock();
        let mut out = StageOutcome::default();
        out.opt.rows_in = rows.len() as u64;
        out.opt.batches = 1;
        // An empty batch is a ledger entry and a span: nothing is encoded,
        // solved or served.
        if !rows.is_empty() {
            out = Batch::encode(self, rows, out)?.run()?;
        }
        if llmqo_obs::enabled() {
            // One span per operator batch, on the operator's own (cheap
            // tier) timeline.
            llmqo_obs::tracer().complete(
                0,
                0,
                &format!("op.{}", self.query.name),
                "executor",
                started_s,
                self.engine.clock() - started_s,
                &[
                    ("rows", llmqo_obs::ArgValue::from(rows.len())),
                    ("llm_calls", llmqo_obs::ArgValue::from(out.opt.llm_calls)),
                ],
            );
            let counters = llmqo_obs::registry();
            counters.counter("sql.stage_batches").inc();
            counters.counter("sql.llm_calls").add(out.opt.llm_calls);
            if out.opt.rows_cheap + out.opt.rows_escalated > 0 {
                counters
                    .counter("sql.cascade_rows_cheap")
                    .add(out.opt.rows_cheap);
                counters
                    .counter("sql.cascade_rows_escalated")
                    .add(out.opt.rows_escalated);
            }
        }
        Ok(out)
    }

    /// One row's output: its own labeler draw, then — under a cascade — its
    /// pure per-row escalation decision, tallied in the tier ledger of
    /// `out` with the cheap-vs-expensive agreement the
    /// [`TierPosterior`](llmqo_costmodel::TierPosterior) learns from, and
    /// its cascade label. Returns whether the row escalated.
    fn label_row(&self, out: &mut StageOutcome, original: usize, key_field_pos: f64) -> bool {
        let labels = &self.query.label_space;
        let row = original as u64;
        let mut text =
            self.executor
                .llm
                .generate_owned((self.truth)(original), row, labels, key_field_pos);
        let mut escalated = false;
        if let Some(plan) = &self.opts.cascade {
            escalated = plan.escalates(row);
            if escalated {
                out.opt.rows_escalated += 1;
                out.opt.tier_agreements += u64::from(plan.cheap_label(row, &text, labels) == text);
            } else {
                out.opt.rows_cheap += 1;
            }
            text = plan.label(row, &text, labels);
        }
        out.outputs.push(RowOutput {
            row: original,
            text,
        });
        escalated
    }

    /// Finalizes the stage into the operator's [`QueryOutput`]. The report's
    /// engine section covers the tier every row ran on; the expensive
    /// tier's serving volume is already in the tier fields of the outcome's
    /// [`OptStats`](crate::OptStats).
    pub fn finish(self) -> QueryOutput {
        if let Some(escalation) = self.escalation {
            escalation.finish();
        }
        self.outcome
            .into_query_output(self.query, self.reorderer.name(), self.engine.finish())
    }
}

/// The query-level half of an answer-cache key, interned via
/// [`AnswerCache::instruction_id`](crate::AnswerCache::instruction_id): the
/// instruction text plus everything else that shapes the answer the engine
/// produces — query kind, label space, and mean output length. Two
/// operators share cached answers only when *all* of it matches; a filter
/// and a projection with the same prompt text must not collide (their
/// simulated decode costs differ). The per-row half is the
/// [`RowKey`](crate::RowKey) of the serialized projected fields in
/// query-field order: schedules permute fields but never change which
/// `(field, value)` pairs a prompt carries, so together the two halves are
/// exactly the prompt's semantic identity.
fn query_cache_identity(query: &LlmQuery) -> String {
    format!(
        "{}\u{1}{:?}\u{1}{:?}\u{1}{}",
        query.full_instruction(),
        query.kind,
        query.label_space,
        query.output_tokens_mean,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use llmqo_core::OriginalOrder;
    use llmqo_costmodel::CascadePlan;
    use llmqo_serve::{
        Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, OracleLlm, SimRequest,
    };
    use llmqo_tokenizer::Tokenizer;

    fn engine() -> SimEngine {
        SimEngine::new(
            Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
            EngineConfig::default(),
        )
    }

    fn request(id: usize, salt: u32) -> SimRequest {
        let mut toks: Vec<u32> = (0..48).collect();
        toks.extend((0..16).map(|j| 1000 + salt * 100 + j));
        SimRequest::from_tokens(id, toks, 4)
    }

    /// Runs `requests` as one batch, request `i` under `keys[i]` (key 0
    /// past the end of `keys`).
    fn run(stage: &mut StageEngine, requests: &[SimRequest], keys: &[u64]) -> Vec<Completion> {
        let key = |i: usize| keys.get(i).copied().unwrap_or_default();
        let views = requests
            .iter()
            .enumerate()
            .map(|(i, r)| (r.id, r.output_len, key(i), &r.prompt));
        stage.run_batch(views).unwrap()
    }

    /// A prefix key the stage's router sends to `replica`.
    fn key_for(stage: &mut StageEngine, replica: usize) -> u64 {
        (0..u64::MAX)
            .find(|&key| stage.place(key) == replica)
            .unwrap()
    }

    #[test]
    fn single_replica_stage_matches_plain_session() {
        let engine = engine();
        let requests: Vec<SimRequest> = (0..12).map(|i| request(i, i as u32)).collect();

        let mut solo = engine.session().unwrap();
        let solo_completions = solo.run_batch(&requests).unwrap().to_vec();
        let solo_report = solo.finish().report;

        let mut stage = StageEngine::open(&engine, 1).unwrap();
        assert_eq!(run(&mut stage, &requests, &[]), solo_completions);
        assert_eq!(stage.finish(), solo_report);

        // The merge re-derives the same report — sums from zero, maxes,
        // recomputed percentiles — when a second replica stays idle.
        let mut stage = StageEngine::open(&engine, 2).unwrap();
        let keys = vec![key_for(&mut stage, 0); requests.len()];
        assert_eq!(run(&mut stage, &requests, &keys), solo_completions);
        assert_eq!(stage.finish(), solo_report);
    }

    #[test]
    fn single_replica_serves_every_request_without_keys() {
        let requests: Vec<SimRequest> = (0..5).map(|i| request(i, 1)).collect();
        // Zero replicas clamp to one.
        let mut stage = StageEngine::open(&engine(), 0).unwrap();
        assert_eq!(stage.replicas(), 1);
        assert!(!stage.wants_prefix_keys());
        assert_eq!(run(&mut stage, &requests, &[]).len(), requests.len());
        assert_eq!(stage.finish().completed, requests.len());
    }

    #[test]
    fn replicas_run_independently_and_stage_clock_is_max() {
        let mut stage = StageEngine::open(&engine(), 3).unwrap();
        // Replica 0 gets 8 requests, replica 2 gets 1, replica 1 none.
        let mut requests: Vec<SimRequest> = (0..8).map(|i| request(i, i as u32)).collect();
        requests.push(request(100, 7));
        let mut keys = vec![key_for(&mut stage, 0); 8];
        keys.push(key_for(&mut stage, 2));
        assert_eq!(run(&mut stage, &requests, &keys).len(), 9);
        assert_eq!(stage.assigned, [8, 0, 1]);
        let clocks: Vec<f64> = stage.sessions.iter().map(EngineSession::clock).collect();
        assert_eq!(stage.clock(), clocks.iter().copied().fold(0.0, f64::max));
        assert!(clocks[0] > clocks[2], "heavier replica finishes later");
        assert_eq!(clocks[1], 0.0, "unused replica never moves");
    }

    #[test]
    fn advance_to_moves_only_idle_replicas_forward() {
        let mut stage = StageEngine::open(&engine(), 2).unwrap();
        let key = key_for(&mut stage, 0);
        run(&mut stage, &[request(0, 0)], &[key]);
        let busy_clock = stage.sessions[0].clock();
        stage.advance_to(busy_clock / 2.0);
        assert_eq!(stage.sessions[0].clock(), busy_clock, "never rewinds");
        assert_eq!(stage.sessions[1].clock(), busy_clock / 2.0);
    }

    #[test]
    fn disjoint_fan_out_matches_per_replica_solo_runs() {
        // Two replicas, disjoint request sets: each replica's completions
        // must equal a solo session fed the same subset, since replicas
        // share nothing.
        let engine = engine();
        let mut stage = StageEngine::open(&engine, 2).unwrap();
        let a: Vec<SimRequest> = (0..5).map(|i| request(i, 3)).collect();
        let b: Vec<SimRequest> = (5..9).map(|i| request(i, 4)).collect();
        let mut keys = vec![key_for(&mut stage, 0); a.len()];
        keys.extend(vec![key_for(&mut stage, 1); b.len()]);
        let merged = run(&mut stage, &[&a[..], &b[..]].concat(), &keys);

        // The merge is replica by replica.
        for (subset, got) in [(&a, &merged[..a.len()]), (&b, &merged[a.len()..])] {
            let mut solo = engine.session().unwrap();
            assert_eq!(solo.run_batch(subset).unwrap(), got);
        }
    }

    #[test]
    fn stage_clock_covers_the_escalation_tier() {
        let engine = engine();
        let executor = QueryExecutor::new(&engine, &OracleLlm, Tokenizer::new());
        let mut table = Table::new(Schema::of_strings(&["review"]));
        for i in 0..40 {
            table
                .push_row(vec![format!("review number {i}").into()])
                .unwrap();
        }
        let query = LlmQuery::filter(
            "q",
            "Is it positive?",
            vec!["review".into()],
            vec!["Yes".into(), "No".into()],
            "Yes",
            2.0,
        );
        let opts = ExecOptions::cascaded(CascadePlan::mini_to_sonnet(0.5, 7));
        let rows: Vec<usize> = (0..table.nrows()).collect();
        let truth = |_: usize| "Yes".to_string();
        let fds = FunctionalDeps::empty(1);
        let mut stage = Stage::open(
            &executor,
            &table,
            &query,
            &OriginalOrder,
            &fds,
            &truth,
            opts,
            1,
        )
        .unwrap();
        let out = stage.run_batch(&rows).unwrap();
        assert!(out.opt.rows_escalated > 0, "the batch must escalate rows");
        let escalated_at = stage.escalation.as_ref().unwrap().clock();
        assert!(escalated_at > stage.engine.clock());
        assert_eq!(stage.clock(), escalated_at);
    }
}
