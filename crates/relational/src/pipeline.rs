//! Operator stages: the serving-side state of one LLM operator.
//!
//! Every LLM operator of a statement — and every bare
//! [`QueryExecutor::execute_with`] call — runs on one [`Stage`]: the
//! operator's [`StageEngine`], a second one for the expensive tier when the
//! operator cascades, and the outcome accumulated over its batches. The
//! stage is opened on the operator's first batch and finished once, into the
//! operator's [`QueryOutput`].
//!
//! A [`StageEngine`] is `n ≥ 1` replica [`EngineSession`]s behind the
//! cluster layer's [`PrefixAffinity`] router; the classic relay is simply
//! `n = 1`. What differs by `n` is derived from it, never configured: a
//! single replica keeps trace lane 0, is never routed and asks for no
//! prefix keys. All stage engines of a statement live on one discrete-event
//! timeline: the SQL runner hands each batch's upstream completion instant
//! to [`Stage::advance_to`] before running it, so operator `j` prefills
//! batch `k + 1` while operator `j + 1` decodes batch `k` — overlap instead
//! of a relay — and fan-out spreads one operator's dedup-compacted batch
//! across replicas while rendezvous hashing on the reorder plan's prefix
//! keys keeps every shared-prefix group on one replica (the locality the
//! PR-2 solvers created and `fig_cluster` measures). The instant a stage
//! hands a batch downstream is [`Stage::clock`]: the later of its two
//! tiers, since an escalated row's answer exists only once the expensive
//! tier has produced it.
//!
//! A batch reaches a stage engine as borrowed views, `(id, output_len,
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

use crate::exec::{ExecError, ExecOptions, QueryExecutor, QueryOutput, StageOutcome};
use crate::query::LlmQuery;
use crate::table::Table;
use llmqo_cluster::{PrefixAffinity, ReplicaSnapshot, Router};
use llmqo_core::{FunctionalDeps, Reorderer};
use llmqo_serve::{percentiles, Completion, EngineError, EngineReport, EngineSession, SimEngine};
use llmqo_tokenizer::TokenId;
use std::sync::Arc;

/// Depth (leading scheduled fields) of the reorder-plan prefix keys used
/// for fan-out routing — the same fixed depth the cluster bench
/// (`fig_cluster`) tags requests with.
pub(crate) const PREFIX_KEY_DEPTH: usize = 1;

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
    /// Each request is `(id, output_len, prompt)`, the prompt a borrowed view
    /// of its fragments; the engine hashes it on the way in and keeps nothing
    /// of it, so a caller passing a lazy iterator builds no request and no
    /// prompt vector.
    ///
    /// With several replicas, `keys[i]` is request `i`'s reorder-plan prefix
    /// key; requests are placed one by one through the prefix-affinity
    /// router against live snapshots, then all replicas run concurrently on
    /// the simulated clock. The merge order is deterministic (replica index,
    /// then per-replica completion order); callers consume completions by
    /// request id, so no order beyond determinism is promised. A single
    /// replica serves every request and never looks at `keys` (callers pass
    /// an empty slice, see [`wants_prefix_keys`](Self::wants_prefix_keys)).
    ///
    /// # Errors
    ///
    /// [`EngineError::RequestTooLarge`] if a request can never be admitted.
    pub fn run_batch<'a, P>(
        &mut self,
        requests: impl IntoIterator<Item = (usize, u32, P), IntoIter: ExactSizeIterator>,
        keys: &[u64],
    ) -> Result<Vec<Completion>, EngineError>
    where
        P: IntoIterator<Item = &'a Arc<[TokenId]>>,
    {
        let requests = requests.into_iter();
        let offered = requests.len();
        let routed = self.wants_prefix_keys();
        debug_assert!(
            !routed || offered == keys.len(),
            "one prefix key per request"
        );
        let before = self.clock();
        for (i, (id, output_len, prompt)) in requests.enumerate() {
            let replica = if routed { self.place(keys[i]) } else { 0 };
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

    /// Finalizes the engine into one [`EngineReport`]: counts, tokens,
    /// steps, evictions and attributed times are summed (total work done
    /// across the replicas); `job_completion_time_s` is the max replica
    /// clock (when the stage as a whole finished); peaks are the max over
    /// replicas (the hottest replica's high-water mark); latency/TTFT
    /// percentiles are recomputed over the merged per-request records. Fed
    /// one replica's records that merge is the replica's own report, bit
    /// for bit (sums from zero, maxes of non-negatives, percentiles of the
    /// same values), so a single replica's report is returned as is.
    pub fn finish(self) -> EngineReport {
        // One replica's report is the stage's. The merge below would
        // re-derive it bit for bit, at the price of copying and re-sorting
        // every request's latency record.
        let replicas = match <[EngineSession; 1]>::try_from(self.sessions) {
            Ok([only]) => return only.finish().report,
            Err(replicas) => replicas,
        };
        let mut merged = EngineReport::default();
        let mut ttfts: Vec<f64> = Vec::new();
        let mut latencies: Vec<f64> = Vec::new();
        for sr in replicas.into_iter().map(EngineSession::finish) {
            let r = sr.report;
            merged.job_completion_time_s =
                merged.job_completion_time_s.max(r.job_completion_time_s);
            merged.prefill_time_s += r.prefill_time_s;
            merged.decode_time_s += r.decode_time_s;
            merged.overhead_time_s += r.overhead_time_s;
            merged.total_prompt_tokens += r.total_prompt_tokens;
            merged.cached_prompt_tokens += r.cached_prompt_tokens;
            merged.computed_prompt_tokens += r.computed_prompt_tokens;
            merged.total_output_tokens += r.total_output_tokens;
            merged.steps += r.steps;
            merged.peak_running = merged.peak_running.max(r.peak_running);
            merged.peak_blocks = merged.peak_blocks.max(r.peak_blocks);
            merged.evictions += r.evictions;
            merged.completed += r.completed;
            for c in &sr.completions {
                ttfts.push(c.ttft_s);
                latencies.push(c.finished_s - c.admitted_s);
            }
        }
        [merged.ttft_p50_s, merged.ttft_p99_s] = percentiles(&mut ttfts, [0.50, 0.99]);
        [merged.latency_p50_s, merged.latency_p99_s] = percentiles(&mut latencies, [0.50, 0.99]);
        merged
    }
}

/// One LLM operator's serving state for a whole statement: its engines,
/// the physical options it runs under and the outcome accumulated over its
/// batches. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct Stage<'q> {
    /// The operator's query.
    pub query: &'q LlmQuery,
    /// The tier first attempts and fault retries run on (the cheap one
    /// under a cascade).
    pub engine: StageEngine,
    /// What the stage's batches have produced so far.
    pub outcome: StageOutcome,
    opts: ExecOptions,
    /// The expensive tier escalated representatives replay on; `Some`
    /// exactly when `opts.cascade` is.
    escalation: Option<StageEngine>,
}

impl<'q> Stage<'q> {
    /// Opens the stage `query` runs on under `opts`: `replicas` sessions
    /// per tier, and a second tier when `opts` carries a cascade.
    ///
    /// # Errors
    ///
    /// See [`StageEngine::open`].
    pub fn open(
        engine: &SimEngine,
        replicas: usize,
        query: &'q LlmQuery,
        opts: ExecOptions,
    ) -> Result<Self, EngineError> {
        Ok(Stage {
            query,
            engine: StageEngine::open(engine, replicas)?,
            outcome: StageOutcome::default(),
            opts,
            escalation: match opts.cascade {
                Some(_) => Some(StageEngine::open(engine, replicas)?),
                None => None,
            },
        })
    }

    /// The physical options every batch of this stage runs under.
    pub fn opts(&self) -> ExecOptions {
        self.opts
    }

    /// When everything this stage has been handed is answered: the later of
    /// its tiers' clocks — an escalated row's answer exists only at the
    /// expensive tier's. The hand-off instant downstream operators wait for.
    pub fn clock(&self) -> f64 {
        let escalated = self.escalation.as_ref().map_or(0.0, StageEngine::clock);
        self.engine.clock().max(escalated)
    }

    /// Fast-forwards the stage to the instant its next batch exists
    /// upstream (see [`StageEngine::advance_to`]).
    pub fn advance_to(&mut self, t: f64) {
        self.engine.advance_to(t);
    }

    /// Re-runs `requests` on the expensive tier. Escalation waits for the
    /// cheap tier's answer: the expensive engine is fast-forwarded to the
    /// cheap tier's clock first.
    ///
    /// # Errors
    ///
    /// See [`StageEngine::run_batch`].
    pub fn escalate<'a, P>(
        &mut self,
        requests: impl IntoIterator<Item = (usize, u32, P), IntoIter: ExactSizeIterator>,
        keys: &[u64],
    ) -> Result<Vec<Completion>, EngineError>
    where
        P: IntoIterator<Item = &'a Arc<[TokenId]>>,
    {
        let Some(escalation) = &mut self.escalation else {
            unreachable!("rows escalate only under a cascade, which opened the tier")
        };
        escalation.advance_to(self.engine.clock());
        escalation.run_batch(requests, keys)
    }

    /// Runs the operator over one batch of `rows` through
    /// [`QueryExecutor::run_llm_rows`] and returns that batch's outcome
    /// (for the caller to consume, then fold into
    /// [`outcome`](Self::outcome)). With observability on, emits the
    /// executor phase span `op.<query>` on the SQL lane and the `sql.*`
    /// counters.
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub fn run_batch(
        &mut self,
        executor: &QueryExecutor<'_>,
        table: &Table,
        rows: &[usize],
        reorderer: &dyn Reorderer,
        fds: &FunctionalDeps,
        truth: &dyn Fn(usize) -> String,
    ) -> Result<StageOutcome, ExecError> {
        let started_s = self.engine.clock();
        let out = executor.run_llm_rows(self, table, rows, reorderer, fds, truth)?;
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

    /// Finalizes the stage into the operator's [`QueryOutput`]. The report's
    /// engine section covers the tier every row ran on; the expensive
    /// tier's serving volume is already in the tier fields of the outcome's
    /// [`OptStats`](crate::OptStats).
    pub fn finish(self, solver: &str) -> QueryOutput {
        if let Some(escalation) = self.escalation {
            escalation.finish();
        }
        self.outcome
            .into_query_output(self.query, solver, self.engine.finish())
    }
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

    /// Runs `requests` as one batch, request `i` under `keys[i]`.
    fn run(stage: &mut StageEngine, requests: &[SimRequest], keys: &[u64]) -> Vec<Completion> {
        let views = requests.iter().map(|r| (r.id, r.output_len, &r.prompt));
        stage.run_batch(views, keys).unwrap()
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
        let mut stage = Stage::open(&engine, 1, &query, opts).unwrap();
        let rows: Vec<usize> = (0..table.nrows()).collect();
        let truth = |_: usize| "Yes".to_string();
        let fds = FunctionalDeps::empty(1);
        let out = stage
            .run_batch(&executor, &table, &rows, &OriginalOrder, &fds, &truth)
            .unwrap();
        assert!(out.opt.rows_escalated > 0, "the batch must escalate rows");
        let escalated_at = stage.escalation.as_ref().unwrap().clock();
        assert!(escalated_at > stage.engine.clock());
        assert_eq!(stage.clock(), escalated_at);
    }
}
