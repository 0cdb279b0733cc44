//! Operator stages: the serving-side state of one LLM operator.
//!
//! Every LLM operator of a statement — and every bare
//! [`QueryExecutor::execute_with`] call, and every stage of a T3 chain —
//! runs on one [`Stage`]. A stage knows its operator: [`Stage::open`] takes
//! the executor, table, query, solver, dependencies, ground truth and the
//! one [`OptimizerConfig`] once, and resolves once what every batch needs
//! — the replica count, the used columns (an unknown field fails here,
//! rows or no rows), the projected dependencies, the answer-cache
//! identity, the output-length stream, the key column. It owns the
//! operator's [`StageEngine`], a second one for the expensive tier when the
//! operator cascades, and the operator's [`QueryOutput`]: created empty at
//! open, accumulated batch by batch, settled when the stage finishes.
//! [`Stage::run_batch`] is the only way a row reaches the LLM; what one
//! batch goes through is [`batch`]'s. The stage is opened on the
//! operator's first batch and finished once.
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
//! encoded table keeps them; the engine hashes each with its one
//! [`ChainHasher`] — one per stage engine, however many replicas — and
//! hands the chain to [`EngineSession::enqueue_chain`], which keeps only
//! its block ids. No request object exists on this path. A replica holds a
//! window of the batch, not the batch: [`EngineSession::make_room`] steps
//! it before each request joins, so it never holds more than
//! `max_num_seqs + 1` requests, and the outcome is that of queueing the
//! whole batch first.
//!
//! Routing here reuses the cluster crate's router and snapshot types
//! directly: the statement-level fan-out is a small, arrival-free special
//! case of the sharded dispatcher (no admission queue, no backpressure, no
//! faults — a replica's window bounds what it holds, not what it accepts),
//! so the same
//! [`ReplicaSnapshot`] contract applies and nothing of the dispatcher's
//! replica lifecycle is needed.
//!
//! [`QueryExecutor::execute_with`]: crate::QueryExecutor::execute_with

mod batch;

use crate::exec::{project_fds, ExecError, OutputLens, QueryExecutor, QueryOutput, RowOutput};
use crate::optimizer::{OptLevel, OptStats, OptimizerConfig};
use crate::prompt::{BatchEncoder, BatchRows};
use crate::query::{LlmQuery, QueryKind};
use crate::table::Table;
use batch::{Batch, BatchScratch};
use llmqo_cluster::{PrefixAffinity, ReplicaSnapshot, Router};
use llmqo_core::{FunctionalDeps, Reorderer};
use llmqo_costmodel::CascadePlan;
use llmqo_serve::{
    ChainHasher, Completion, EngineError, EngineReport, EngineSession, SessionReport, SimEngine,
    SimLlm, SimTime,
};
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
    /// Hashes every prompt the engine queues, on whichever replica.
    hasher: ChainHasher,
    router: PrefixAffinity,
    /// The fleet as the router sees it, taken once at open: the pure
    /// `PrefixAffinity` reads each replica's index and `alive` flag only,
    /// never its load, so a live snapshot would route alike.
    snapshots: Vec<ReplicaSnapshot>,
    /// Where each replica's records of the last batch start among its
    /// session's completion records.
    served_from: Vec<usize>,
    /// Each replica's clock when the last batch began: the instant its
    /// requests were offered.
    offered_at: Vec<SimTime>,
}

impl StageEngine {
    /// Opens a stage engine with `n ≥ 1` replica sessions. With several
    /// replicas, replica `i` reports observability spans
    /// on trace lane `i + 1`, mirroring the cluster simulator's lane
    /// layout; a single replica stays on lane 0, the SQL lane.
    ///
    /// # Errors
    ///
    /// [`EngineError::ModelTooLarge`] if the model does not fit the
    /// deployment.
    pub(crate) fn open(engine: &SimEngine, n: usize) -> Result<Self, EngineError> {
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
        let snapshots = sessions.iter().enumerate();
        let snapshots = snapshots.map(|(i, s)| ReplicaSnapshot::observe(i, s, 0, true));
        Ok(StageEngine {
            snapshots: snapshots.collect(),
            sessions,
            hasher: engine.chain_hasher(),
            router: PrefixAffinity::default(),
            served_from: vec![0; n],
            offered_at: vec![SimTime::ZERO; n],
        })
    }

    /// Number of replica sessions.
    pub(crate) fn replicas(&self) -> usize {
        self.sessions.len()
    }

    /// Whether [`run_batch`](Self::run_batch) routes by prefix key (lets
    /// callers skip computing keys for a single replica).
    pub(crate) fn wants_prefix_keys(&self) -> bool {
        self.sessions.len() > 1
    }

    /// The stage clock: when everything this engine has run so far is done
    /// (the latest replica clock).
    pub(crate) fn clock(&self) -> SimTime {
        let clocks = self.sessions.iter().map(EngineSession::clock);
        clocks.fold(SimTime::ZERO, SimTime::max)
    }

    /// Fast-forwards idle replicas to `t` — the upstream operator's
    /// hand-off instant. Replicas already past `t` are untouched.
    pub(crate) fn advance_to(&mut self, t: SimTime) {
        for s in &mut self.sessions {
            s.advance_to(t);
        }
    }

    /// The replica the router sends `key` to.
    fn place(&mut self, key: u64) -> usize {
        self.router.route(key, &self.snapshots)
    }

    /// Marks the start of a batch on every replica: where its completion
    /// records will begin, and the instant its requests are offered.
    fn start_batch(&mut self) {
        self.served_from.clear();
        self.offered_at.clear();
        for s in &self.sessions {
            self.served_from.push(s.completions().len());
            self.offered_at.push(s.clock());
        }
    }

    /// Runs one batch to completion; its completion records are
    /// [`served`](Self::served) until the next batch. Each request is
    /// `(id, output_len, key, prompt)`, the prompt a
    /// borrowed view of its fragments; the engine hashes it on the way in
    /// and keeps nothing of it, so a caller passing a lazy iterator builds
    /// no request and no prompt vector.
    ///
    /// With several replicas, `key` is the request's reorder-plan prefix
    /// key; requests are placed one by one through the prefix-affinity
    /// router, then all replicas run concurrently on the simulated clock. A single
    /// replica serves every request and never looks at `key` (callers pass
    /// anything, see [`wants_prefix_keys`](Self::wants_prefix_keys)).
    ///
    /// Each replica holds a window of the batch, not the batch: before a
    /// request joins it, [`EngineSession::make_room`] steps that replica
    /// until it holds at most `max_num_seqs` requests. Every figure equals
    /// queueing the whole batch first and then draining.
    ///
    /// # Errors
    ///
    /// [`EngineError::RequestTooLarge`] if a request can never be admitted.
    pub(crate) fn run_batch<'a, P>(
        &mut self,
        requests: impl IntoIterator<Item = (usize, u32, u64, P), IntoIter: ExactSizeIterator>,
    ) -> Result<(), EngineError>
    where
        P: IntoIterator<Item = &'a Arc<[TokenId]>>,
    {
        let requests = requests.into_iter();
        let offered = requests.len();
        let routed = self.wants_prefix_keys();
        let before = self.clock();
        self.start_batch();
        for (id, output_len, key, prompt) in requests {
            // Stepping a replica inside the loop changes no placement (the
            // router reads the key and the fleet, never the load) and no
            // other replica: they share only the hasher, which still takes
            // the prompts in plan order.
            let replica = if routed { self.place(key) } else { 0 };
            let session = &mut self.sessions[replica];
            session.make_room()?;
            let chain = self.hasher.chain(prompt);
            session.enqueue_chain(id, output_len, chain, self.offered_at[replica]);
        }
        for s in &mut self.sessions {
            s.drain()?;
        }
        debug_assert_eq!(self.served().count(), offered, "one completion per request");
        debug_assert!(self.clock() >= before, "stage clock ran backwards");
        Ok(())
    }

    /// The completion records of the last [`run_batch`](Self::run_batch),
    /// replica by replica, each in completion order: borrowed from the
    /// sessions, which keep every record until they finish, so a batch
    /// copies none. Callers match records by request id.
    pub(crate) fn served(&self) -> impl Iterator<Item = &Completion> {
        let replicas = self.sessions.iter().zip(&self.served_from);
        replicas.flat_map(|(s, &from)| &s.completions()[from..])
    }

    /// Finalizes the engine into one [`EngineReport`], the replicas' reports
    /// merged by [`SessionReport::merge`]: total work summed,
    /// `job_completion_time_s` the max replica clock (when the stage as a
    /// whole finished), peaks the hottest replica's high-water mark,
    /// latency/TTFT percentiles over every request. A single replica's
    /// report is returned as is. Publishes the engine's hasher.
    pub(crate) fn finish(self) -> EngineReport {
        if llmqo_obs::enabled() {
            llmqo_serve::obs::publish_chain_hasher(&self.hasher);
        }
        SessionReport::merge(self.sessions.into_iter().map(EngineSession::finish)).report
    }
}

/// One LLM operator, opened once for a whole statement: what it reads (the
/// executor, the table, the solver, the ground truth), what
/// [`open`](Self::open) resolves from that once, its engines, the buffers
/// its batches reuse, and the [`QueryOutput`] its batches accumulate into.
/// See the [module docs](self).
pub(crate) struct Stage<'q> {
    /// The operator's query.
    pub query: &'q LlmQuery,
    /// The tier first attempts and fault retries run on (the cheap one
    /// under a cascade).
    pub engine: StageEngine,
    /// What the stage's batches have produced so far: every batch appends
    /// its outputs, ascending by original row, and its failed rows, and
    /// adds its solve and optimizer figures to the report.
    /// [`finish`](Self::finish) settles the rest.
    pub output: QueryOutput,
    executor: &'q QueryExecutor<'q>,
    table: &'q Table,
    reorderer: &'q dyn Reorderer,
    /// Ground-truth answer per original row index.
    truth: &'q dyn Fn(usize) -> String,
    opt: OptimizerConfig,
    /// The expensive tier escalated representatives replay on; `Some`
    /// exactly when `opt.cascade` is.
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
    /// Lowers each batch; holds the instruction's tokens and every encode
    /// buffer between batches.
    encoder: BatchEncoder<'q, 'q>,
    /// The buffers of the phases past the encode.
    scratch: BatchScratch,
    /// Where the last batch's entries start in `output.outputs` and
    /// `output.failed_rows`.
    batch_from: (usize, usize),
}

impl<'q> Stage<'q> {
    /// Opens the stage `query` runs on over `table` under `opt`:
    /// `opt.pipeline_replicas` sessions per tier when `opt.pipeline` is on
    /// and one otherwise — a statement fans out only when it pipelines, and
    /// it opens stages only for its LLM operators — and a second tier when
    /// `opt` carries a cascade. `fds` are over the full table schema; `truth`
    /// supplies the ground-truth answer per original row index.
    ///
    /// # Errors
    ///
    /// [`StageEngine::open`]'s; [`ExecError::EmptyFields`]; an unknown
    /// field is [`ExecError::Table`] here, before any row is offered.
    pub(crate) fn open(
        executor: &'q QueryExecutor<'q>,
        table: &'q Table,
        query: &'q LlmQuery,
        reorderer: &'q dyn Reorderer,
        fds: &FunctionalDeps,
        truth: &'q dyn Fn(usize) -> String,
        opt: OptimizerConfig,
    ) -> Result<Self, ExecError> {
        let replicas = if opt.pipeline {
            opt.pipeline_replicas
        } else {
            1
        };
        let engine = StageEngine::open(executor.engine, replicas)?;
        let escalation = match opt.cascade {
            Some(_) => Some(StageEngine::open(executor.engine, replicas)?),
            None => None,
        };
        if query.fields.is_empty() {
            return Err(ExecError::EmptyFields);
        }
        let encoder = BatchEncoder::new(&executor.tokenizer, table, query)?;
        let used_cols = encoder.used_cols().to_vec();
        // Key-field queries are never cached: their labeler draws depend on
        // where the schedule placed the key field, which a cache hit has no
        // schedule to derive from — and they exist precisely to measure
        // positional effects (Fig. 6), which caching would distort. Without
        // a key field, `key_field_pos` is the constant 0.5 on every path,
        // so hits label exactly as a cache-off run would.
        let caches = opt.level == OptLevel::Adaptive && query.key_field.is_none();
        let instruction = caches.then(|| {
            let mut cache = executor.cache.borrow_mut();
            cache.instruction_id(&query_cache_identity(query))
        });
        Ok(Stage {
            query,
            engine,
            output: QueryOutput::empty(query, reorderer.name()),
            executor,
            table,
            reorderer,
            truth,
            opt,
            escalation,
            fds: project_fds(fds, &used_cols),
            used_cols,
            instruction,
            output_lens: OutputLens::new(&query.name, query.output_tokens_mean),
            key_col: query
                .key_field
                .as_deref()
                .and_then(|k| query.fields.iter().position(|f| f == k)),
            encoder,
            scratch: BatchScratch::default(),
            batch_from: (0, 0),
        })
    }

    /// When everything this stage has been handed is answered: the later of
    /// its tiers' clocks — an escalated row's answer exists only at the
    /// expensive tier's. The hand-off instant downstream operators wait for.
    pub(crate) fn clock(&self) -> SimTime {
        let escalated = self.escalation.as_ref().map(StageEngine::clock);
        self.engine.clock().max(escalated.unwrap_or_default())
    }

    /// The batch primitive — the one door to the LLM: evaluates the
    /// operator over `rows`, ascending original indices of its table, under
    /// the stage's [`OptimizerConfig`] (see [`batch`] for the phases), folds
    /// the batch into [`output`](Self::output) and returns the batch's
    /// own ledger; its outputs and failed rows are
    /// [`batch_outputs`](Self::batch_outputs) and
    /// [`batch_failed`](Self::batch_failed) until the next batch. With
    /// observability on, emits the executor phase span `op.<query>` on the
    /// SQL lane; the ledger's `sql.*` counters are published when the stage
    /// [finishes](Self::finish).
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub(crate) fn run_batch(&mut self, rows: BatchRows<'_>) -> Result<OptStats, ExecError> {
        if let BatchRows::Listed(rows) = rows {
            debug_assert!(rows.is_sorted(), "batches offer ascending rows");
        }
        let started_s = self.engine.clock();
        self.batch_from = (self.output.outputs.len(), self.output.failed_rows.len());
        let mut opt = OptStats {
            rows_in: rows.len() as u64,
            batches: 1,
            ..OptStats::default()
        };
        // An empty batch is a ledger entry and a span: nothing is encoded,
        // solved or served.
        if rows.len() > 0 {
            opt = Batch::encode(self, rows, opt).run()?;
        }
        self.output.report.opt.add(&opt);
        if llmqo_obs::enabled() {
            // One span per operator batch, on the operator's own (cheap
            // tier) timeline.
            llmqo_obs::tracer().complete(
                0,
                0,
                &format!("op.{}", self.query.name),
                "executor",
                started_s.secs(),
                self.engine.clock() - started_s,
                &[
                    ("rows", llmqo_obs::ArgValue::from(rows.len())),
                    ("llm_calls", llmqo_obs::ArgValue::from(opt.llm_calls)),
                ],
            );
        }
        Ok(opt)
    }

    /// The last batch's outputs, ascending by original row.
    pub(crate) fn batch_outputs(&self) -> &[RowOutput] {
        &self.output.outputs[self.batch_from.0..]
    }

    /// The original rows the last batch dropped after exhausting the fault
    /// retry budget, in schedule order.
    pub(crate) fn batch_failed(&self) -> &[usize] {
        &self.output.failed_rows[self.batch_from.1..]
    }

    /// What labelling one of the stage's rows reads, borrowed for the
    /// statement rather than from the stage, so a batch can label into the
    /// stage's output while it reads the stage's buffers.
    fn labeler(&self) -> Labeler<'q> {
        Labeler {
            llm: self.executor.llm,
            truth: self.truth,
            labels: &self.query.label_space,
            cascade: self.opt.cascade.map(|cc| cc.plan),
        }
    }

    /// Settles the operator's [`QueryOutput`]: sorts the failed rows and
    /// derives the selection (filters) and the aggregate (aggregations)
    /// from the outputs. The report's engine section covers the tier every
    /// row ran on; the expensive tier's serving volume is already in the
    /// tier fields of the report's [`OptStats`](crate::OptStats), which
    /// the stage publishes here ([`OptStats::publish`]).
    pub(crate) fn finish(self) -> QueryOutput {
        if let Some(escalation) = self.escalation {
            escalation.finish();
        }
        let (query, mut out) = (self.query, self.output);
        out.report.engine = self.engine.finish();
        out.report.opt.publish();
        // Every batch sorts its outputs and batches arrive in ascending
        // candidate order.
        debug_assert!(out.outputs.is_sorted_by_key(|o| o.row));
        out.failed_rows.sort_unstable();
        if let (QueryKind::Filter, Some(label)) = (&query.kind, &query.predicate_label) {
            let selected = |o: &&RowOutput| &o.text == label;
            let rows = &mut out.selected_rows;
            rows.reserve_exact(out.outputs.iter().filter(selected).count());
            rows.extend(out.outputs.iter().filter(selected).map(|o| o.row));
        }
        if query.kind == QueryKind::Aggregation {
            let scores: Vec<f64> = out
                .outputs
                .iter()
                .filter_map(|o| o.text.trim().parse::<f64>().ok())
                .collect();
            if !scores.is_empty() {
                out.aggregate = Some(scores.iter().sum::<f64>() / scores.len() as f64);
            }
        }
        out
    }
}

/// What labelling a row reads: the labeler, the ground truth, the
/// operator's label space and, under a cascade, the plan.
#[derive(Clone, Copy)]
struct Labeler<'q> {
    llm: &'q dyn SimLlm,
    truth: &'q dyn Fn(usize) -> String,
    labels: &'q [String],
    cascade: Option<CascadePlan>,
}

impl Labeler<'_> {
    /// One row's output, appended to `outputs`: its own labeler draw, then
    /// — under a cascade — its pure per-row escalation decision, tallied in
    /// the tier ledger of `opt`, and its cascade label. Returns whether the
    /// row escalated.
    fn label(
        &self,
        opt: &mut OptStats,
        outputs: &mut Vec<RowOutput>,
        original: usize,
        key_field_pos: f64,
    ) -> bool {
        let (labels, row) = (self.labels, original as u64);
        let mut text = self
            .llm
            .generate((self.truth)(original), row, labels, key_field_pos);
        let mut escalated = false;
        if let Some(plan) = &self.cascade {
            escalated = plan.escalates(row);
            if escalated {
                opt.rows_escalated += 1;
            } else {
                opt.rows_cheap += 1;
            }
            let label = plan.label(row, &text, labels);
            if label != text {
                // A rewritten label is another entry of the label space; it
                // takes over the truth's buffer.
                let label = labels
                    .iter()
                    .find(|l| l.as_str() == label)
                    .unwrap_or_else(|| {
                        unreachable!("a cascade rewrites only into the label space")
                    });
                text.clear();
                text.push_str(label);
            }
        }
        outputs.push(RowOutput {
            row: original,
            text,
        });
        escalated
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
    use crate::optimizer::CascadeConfig;
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
        stage.run_batch(views).unwrap();
        stage.served().copied().collect()
    }

    /// `requests` served by one plain session: its completions and report.
    fn solo(engine: &SimEngine, requests: &[SimRequest]) -> (Vec<Completion>, EngineReport) {
        let mut session = engine.session().unwrap();
        let mut hasher = engine.chain_hasher();
        for r in requests {
            session.enqueue_chain(r.id, r.output_len, hasher.chain(&r.prompt), SimTime::ZERO);
        }
        session.drain().unwrap();
        let out = session.finish();
        (out.completions, out.report)
    }

    /// A prefix key the stage's router sends to `replica`.
    fn key_for(stage: &mut StageEngine, replica: usize) -> u64 {
        (0..u64::MAX)
            .find(|&key| stage.place(key) == replica)
            .unwrap()
    }

    /// [`StageEngine::run_batch`] without the window: place and queue the
    /// whole batch, then drain every replica.
    fn run_whole(
        stage: &mut StageEngine,
        requests: &[SimRequest],
        keys: &[u64],
    ) -> Vec<Completion> {
        stage.start_batch();
        for (r, &key) in requests.iter().zip(keys) {
            let replica = if stage.wants_prefix_keys() {
                stage.place(key)
            } else {
                0
            };
            let chain = stage.hasher.chain(&r.prompt);
            let session = &mut stage.sessions[replica];
            session.enqueue_chain(r.id, r.output_len, chain, session.clock());
        }
        for s in &mut stage.sessions {
            s.drain().unwrap();
        }
        stage.served().copied().collect()
    }

    #[test]
    fn windowed_batches_equal_queueing_the_whole_batch() {
        // Few seats and a tight prefill budget, so every replica steps while
        // its share of a batch is still being queued; three batches on one
        // timeline, so later ones start on busy-then-idle replicas.
        for max_num_seqs in [1, 2, 3] {
            let engine = SimEngine::new(
                Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
                EngineConfig {
                    max_num_seqs,
                    max_batch_tokens: 48,
                    ..EngineConfig::default()
                },
            );
            for replicas in [1, 3] {
                let mut windowed = StageEngine::open(&engine, replicas).unwrap();
                let mut whole = StageEngine::open(&engine, replicas).unwrap();
                for batch in 0..3 {
                    let requests: Vec<SimRequest> = (0..40)
                        .map(|i| {
                            let id = batch * 100 + i;
                            let mut toks: Vec<u32> = (0..32).collect();
                            toks.extend((0..(i % 5) as u32 * 8).map(|j| 1000 + id as u32 * 64 + j));
                            SimRequest::from_tokens(id, toks, (i % 7) as u32)
                        })
                        .collect();
                    let keys: Vec<u64> = (0..40).map(|i| i % 4 * 7919).collect();
                    let context =
                        format!("max_num_seqs {max_num_seqs}, {replicas} replicas, batch {batch}");
                    assert_eq!(
                        run(&mut windowed, &requests, &keys),
                        run_whole(&mut whole, &requests, &keys),
                        "{context}"
                    );
                    let t = windowed.clock() + SimTime::new(0.5).unwrap();
                    windowed.advance_to(t);
                    whole.advance_to(t);
                }
                assert_eq!(
                    windowed.finish(),
                    whole.finish(),
                    "max_num_seqs {max_num_seqs}, {replicas} replicas"
                );
            }
        }
    }

    #[test]
    fn single_replica_stage_matches_plain_session() {
        let engine = engine();
        let requests: Vec<SimRequest> = (0..12).map(|i| request(i, i as u32)).collect();

        let (solo_completions, solo_report) = solo(&engine, &requests);

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
        let mut stage = StageEngine::open(&engine(), 1).unwrap();
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
        let served = stage.sessions.iter().map(|s| s.completions().len());
        assert_eq!(served.collect::<Vec<_>>(), [8, 0, 1]);
        let clocks: Vec<SimTime> = stage.sessions.iter().map(EngineSession::clock).collect();
        assert_eq!(stage.clock(), clocks.iter().copied().max().unwrap());
        assert!(clocks[0] > clocks[2], "heavier replica finishes later");
        assert_eq!(clocks[1], SimTime::ZERO, "unused replica never moves");
    }

    #[test]
    fn advance_to_moves_only_idle_replicas_forward() {
        let mut stage = StageEngine::open(&engine(), 2).unwrap();
        let key = key_for(&mut stage, 0);
        run(&mut stage, &[request(0, 0)], &[key]);
        let busy_clock = stage.sessions[0].clock();
        let half = SimTime::new(busy_clock.secs() / 2.0).unwrap();
        stage.advance_to(half);
        assert_eq!(stage.sessions[0].clock(), busy_clock, "never rewinds");
        assert_eq!(stage.sessions[1].clock(), half);
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
            assert_eq!(solo(&engine, subset).0, got);
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
        let opt = OptimizerConfig {
            cascade: Some(CascadeConfig::new(CascadePlan::mini_to_sonnet(0.5, 7))),
            ..OptimizerConfig::none()
        };
        let truth = |_: usize| "Yes".to_string();
        let fds = FunctionalDeps::empty(1);
        let mut stage =
            Stage::open(&executor, &table, &query, &OriginalOrder, &fds, &truth, opt).unwrap();
        let opt = stage.run_batch(BatchRows::All(table.nrows())).unwrap();
        assert!(opt.rows_escalated > 0, "the batch must escalate rows");
        let escalated_at = stage.escalation.as_ref().unwrap().clock();
        assert!(escalated_at > stage.engine.clock());
        assert_eq!(stage.clock(), escalated_at);
    }

    #[test]
    fn tier_agreements_count_the_escalated_rows_the_cheap_tier_gets_right() {
        let engine = engine();
        let executor = QueryExecutor::new(&engine, &OracleLlm, Tokenizer::new());
        let mut table = Table::new(Schema::of_strings(&["review"]));
        for i in 0..400 {
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
        let plan = CascadePlan::mini_to_sonnet(0.5, 7);
        let opt = OptimizerConfig {
            cascade: Some(CascadeConfig::new(plan)),
            ..OptimizerConfig::none()
        };
        let truth = |row: usize| if row.is_multiple_of(3) { "Yes" } else { "No" }.to_string();
        let fds = FunctionalDeps::empty(1);
        let out = executor
            .execute_with(&table, &query, &OriginalOrder, &fds, &truth, opt)
            .unwrap();
        let escalated: Vec<u64> = (0..400).filter(|&r| plan.escalates(r)).collect();
        assert_eq!(out.report.opt.rows_escalated, escalated.len() as u64);
        // The oracle labeler answers the truth, so an escalated row's output
        // is the expensive tier's answer, and the tiers agree on it where
        // the cheap tier's answer is that output.
        let mut agreements = 0;
        for &r in &escalated {
            let output = &out.outputs[r as usize];
            assert_eq!(output.row, r as usize);
            assert_eq!(output.text, truth(r as usize), "escalated row {r}");
            agreements +=
                usize::from(plan.cheap_label(r, &output.text, &query.label_space) == output.text);
        }
        assert!(
            0 < agreements && 2 * agreements != escalated.len() && agreements < escalated.len(),
            "{agreements} of {} escalated rows agree: the count must tell agreement from its complement",
            escalated.len()
        );
    }
}
