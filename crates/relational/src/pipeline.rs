//! Physical stage engines for pipelined, cluster-parallel SQL execution.
//!
//! Every LLM operator in a statement owns a [`StageEngine`]: either one
//! [`EngineSession`] (the classic relay) or a [`SessionGroup`] of `N`
//! replica sessions behind the cluster layer's [`PrefixAffinity`] router.
//! All stage engines of a statement live on one discrete-event timeline:
//! the SQL runner hands each batch's upstream completion instant to
//! [`StageEngine::advance_to`] before running it, so operator `j` prefills
//! batch `k + 1` while operator `j + 1` decodes batch `k` — overlap instead
//! of a relay — and fan-out spreads one operator's dedup-compacted batch
//! across replicas while rendezvous hashing on the reorder plan's prefix
//! keys keeps every shared-prefix group on one replica (the locality the
//! PR-2 solvers created and `fig_cluster` measures).
//!
//! A batch reaches a stage as borrowed views, `(id, output_len, prompt)`
//! with the prompt an iterator over fragments that stay where the encoded
//! table keeps them; the stage hands each to
//! [`EngineSession::enqueue_fragments`], which keeps only the prompt's
//! block chain. No request object exists on this path.
//!
//! Routing here reuses the cluster crate's router and snapshot types
//! directly: the statement-level fan-out is a small, arrival-free special
//! case of the sharded dispatcher (no admission queue, no backpressure —
//! replica queues are unbounded within a statement), so the same
//! [`ReplicaSnapshot`] contract applies.

use llmqo_cluster::{PrefixAffinity, ReplicaSnapshot, Router};
use llmqo_serve::{
    percentile, Completion, EngineError, EngineReport, EngineSession, SessionGroup, SimEngine,
};
use llmqo_tokenizer::TokenId;
use std::sync::Arc;

/// Depth (leading scheduled fields) of the reorder-plan prefix keys used
/// for fan-out routing — the same fixed depth the cluster benches
/// (`fig_cluster`, `perf_trace`) tag requests with.
pub(crate) const PREFIX_KEY_DEPTH: usize = 1;

/// The engine a single LLM operator runs on: one session, or a routed
/// replica group. See the [module docs](self).
#[derive(Debug)]
pub(crate) enum StageEngine {
    /// The classic single-session stage (boxed: a session is two orders of
    /// magnitude bigger than the fan-out handle).
    Single(Box<EngineSession>),
    /// `N` replica sessions with prefix-affinity routing.
    Fanout(FanoutStage),
}

/// The fan-out variant's state: the replica group plus the routing
/// bookkeeping the dispatcher needs ([`ReplicaSnapshot::assigned`]).
#[derive(Debug)]
pub(crate) struct FanoutStage {
    group: SessionGroup,
    router: PrefixAffinity,
    assigned: Vec<usize>,
    /// Routing scratch, refilled per request.
    snapshots: Vec<ReplicaSnapshot>,
}

impl StageEngine {
    /// Opens a stage engine with `replicas` sessions (`<= 1` means the
    /// single-session form).
    pub fn open(engine: &SimEngine, replicas: usize) -> Result<Self, EngineError> {
        if replicas <= 1 {
            Ok(StageEngine::Single(Box::new(engine.session()?)))
        } else {
            Ok(StageEngine::Fanout(FanoutStage {
                group: SessionGroup::new(engine, replicas)?,
                router: PrefixAffinity::default(),
                assigned: vec![0; replicas],
                snapshots: Vec::with_capacity(replicas),
            }))
        }
    }

    /// Number of replica sessions (1 for the single form).
    pub fn replicas(&self) -> usize {
        match self {
            StageEngine::Single(_) => 1,
            StageEngine::Fanout(f) => f.group.len(),
        }
    }

    /// Whether [`run_batch`](Self::run_batch) routes by prefix key (lets
    /// callers skip computing keys for the single form).
    pub fn wants_prefix_keys(&self) -> bool {
        matches!(self, StageEngine::Fanout(_))
    }

    /// The stage clock: when everything this stage has run so far is done
    /// (max replica clock for the fan-out form).
    pub fn clock(&self) -> f64 {
        match self {
            StageEngine::Single(s) => s.clock(),
            StageEngine::Fanout(f) => f.group.clock(),
        }
    }

    /// Fast-forwards idle (replica) sessions to `t` — the upstream
    /// operator's hand-off instant. Sessions already past `t` are
    /// untouched.
    pub fn advance_to(&mut self, t: f64) {
        match self {
            StageEngine::Single(s) => s.advance_to(t),
            StageEngine::Fanout(f) => f.group.advance_to(t),
        }
    }

    /// Runs one batch to completion and returns its completion records.
    /// Each request is `(id, output_len, prompt)`, the prompt a borrowed view
    /// of its fragments; the stage hashes it on the way in and keeps nothing
    /// of it, so a caller passing a lazy iterator builds no request and no
    /// prompt vector.
    ///
    /// For the fan-out form, `keys[i]` is request `i`'s reorder-plan prefix
    /// key; requests are placed replica by replica through the
    /// prefix-affinity router against live snapshots, then all replicas run
    /// concurrently on the simulated clock. The merge order is
    /// deterministic (replica index, then per-replica completion order);
    /// callers consume completions by request id, so no order beyond
    /// determinism is promised. The single form ignores `keys`.
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
        match self {
            StageEngine::Single(s) => {
                for (id, output_len, prompt) in requests {
                    s.enqueue_fragments(id, output_len, prompt);
                }
                // Everything is queued: an empty batch drains the session.
                Ok(s.run_batch(&[])?.to_vec())
            }
            StageEngine::Fanout(f) => {
                debug_assert_eq!(requests.len(), keys.len(), "one prefix key per request");
                for ((id, output_len, prompt), &key) in requests.zip(keys) {
                    f.snapshots.clear();
                    f.snapshots.extend(
                        (0..f.group.len()).map(|i| {
                            ReplicaSnapshot::observe(i, f.group.get(i), f.assigned[i], true)
                        }),
                    );
                    let choice = f.router.route(key, &f.snapshots).min(f.group.len() - 1);
                    f.group.enqueue_fragments_on(choice, id, output_len, prompt);
                    f.assigned[choice] += 1;
                }
                let drained = f.group.drain()?;
                Ok(drained.into_iter().flatten().collect())
            }
        }
    }

    /// Finalizes the stage into one [`EngineReport`].
    ///
    /// The fan-out merge: counts, tokens, steps, evictions, and attributed
    /// times are summed (total work done across the group);
    /// `job_completion_time_s` is the max replica clock (when the stage as
    /// a whole finished); peaks are the max over replicas (the hottest
    /// replica's high-water mark); latency/TTFT percentiles are recomputed
    /// over the merged per-request records.
    pub fn finish(self) -> EngineReport {
        match self {
            StageEngine::Single(s) => s.finish().report,
            StageEngine::Fanout(f) => {
                let reports = f.group.finish();
                let mut merged = EngineReport::default();
                let mut ttfts: Vec<f64> = Vec::new();
                let mut latencies: Vec<f64> = Vec::new();
                for sr in reports {
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
                ttfts.sort_by(f64::total_cmp);
                latencies.sort_by(f64::total_cmp);
                merged.ttft_p50_s = percentile(&ttfts, 0.50);
                merged.ttft_p99_s = percentile(&ttfts, 0.99);
                merged.latency_p50_s = percentile(&latencies, 0.50);
                merged.latency_p99_s = percentile(&latencies, 0.99);
                merged
            }
        }
    }
}
