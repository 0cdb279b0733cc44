//! A fixed set of [`EngineSession`]s driven over one shared timeline.
//!
//! [`SessionGroup`] is the serving-side half of cluster-parallel SQL
//! execution: one *logical* engine made of `n` replica sessions whose local
//! clocks all live on the statement's discrete-event timeline. The caller
//! decides placement (the relational layer routes dedup-compacted batches by
//! reorder-plan prefix key); the group handles the clock mechanics:
//!
//! * [`advance_to`](SessionGroup::advance_to) fast-forwards every idle
//!   replica to an upstream hand-off instant, so a batch cannot start
//!   before its input exists.
//! * [`drain`](SessionGroup::drain) runs every replica to idle. Replicas
//!   never interact below this layer (no shared cache, no work stealing),
//!   so per-replica event loops are trivially equivalent to a globally
//!   clock-ordered interleaving — the property the cluster simulator has to
//!   work much harder for.
//! * [`clock`](SessionGroup::clock) is the *group* clock: the max replica
//!   clock, i.e. when the batch fanned out across the group is fully done.

use crate::engine::{EngineError, SimEngine, SimRequest};
use crate::session::{Completion, EngineSession, SessionReport};
use llmqo_tokenizer::TokenId;
use std::sync::Arc;

/// `n` independent replica sessions over one deployment, sharing a
/// caller-driven timeline. See the module docs above.
#[derive(Debug)]
pub struct SessionGroup {
    sessions: Vec<EngineSession>,
}

impl SessionGroup {
    /// Opens `n` replica sessions over `engine`'s deployment.
    ///
    /// Replica `i` reports observability spans on trace lane `i + 1`
    /// (lane 0 stays the single-engine / SQL lane), mirroring the cluster
    /// simulator's lane layout.
    ///
    /// # Errors
    ///
    /// [`EngineError::ModelTooLarge`] if the model does not fit the
    /// deployment (`n` sessions of an unfittable model fail exactly like
    /// one), and [`EngineError::InvalidConfig`] when `n == 0`.
    pub fn new(engine: &SimEngine, n: usize) -> Result<Self, EngineError> {
        if n == 0 {
            return Err(EngineError::InvalidConfig {
                reason: "a session group needs at least one replica",
            });
        }
        let mut sessions = Vec::with_capacity(n);
        for i in 0..n {
            let mut session = engine.session()?;
            let lane = u32::try_from(i + 1).unwrap_or(u32::MAX);
            session.set_trace_lane(lane);
            if llmqo_obs::enabled() {
                llmqo_obs::tracer().name_lane(lane, &format!("replica {i}"));
            }
            sessions.push(session);
        }
        Ok(SessionGroup { sessions })
    }

    /// Number of replica sessions in the group.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the group has no replicas. Never true for a constructed
    /// group ([`new`](Self::new) rejects `n == 0`); exists for clippy's
    /// `len`/`is_empty` pairing.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Read-only view of replica `i`, for snapshot building (queue depth,
    /// KV occupancy, clock) at routing time.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> &EngineSession {
        &self.sessions[i]
    }

    /// Enqueues a request on replica `i` without advancing time.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn enqueue_on(&mut self, i: usize, request: &SimRequest) {
        self.sessions[i].enqueue_ref(request);
    }

    /// [`enqueue_on`](Self::enqueue_on) for a prompt given as borrowed
    /// fragments (see [`EngineSession::enqueue_fragments`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn enqueue_fragments_on<'a>(
        &mut self,
        i: usize,
        id: usize,
        output_len: u32,
        fragments: impl IntoIterator<Item = &'a Arc<[TokenId]>>,
    ) {
        self.sessions[i].enqueue_fragments(id, output_len, fragments);
    }

    /// Fast-forwards every idle replica to `t` (busy replicas and replicas
    /// already past `t` are untouched — same contract as
    /// [`EngineSession::advance_to`]). Call with the upstream operator's
    /// hand-off instant before enqueueing a batch.
    pub fn advance_to(&mut self, t: f64) {
        for s in &mut self.sessions {
            s.advance_to(t);
        }
    }

    /// The group clock: the latest replica clock, i.e. the instant at which
    /// everything enqueued so far has finished (once drained).
    pub fn clock(&self) -> f64 {
        self.sessions
            .iter()
            .map(EngineSession::clock)
            .fold(0.0, f64::max)
    }

    /// Runs every replica to idle and returns the completions this call
    /// produced, grouped by replica index — a deterministic merge order for
    /// callers that consume completions by request id.
    ///
    /// # Errors
    ///
    /// [`EngineError::RequestTooLarge`] if a replica meets a request that
    /// can never be admitted.
    pub fn drain(&mut self) -> Result<Vec<Vec<Completion>>, EngineError> {
        let mut new = Vec::with_capacity(self.sessions.len());
        for s in &mut self.sessions {
            let before = s.completions().len();
            while s.step_until(None)? {}
            new.push(s.completions()[before..].to_vec());
        }
        Ok(new)
    }

    /// Finalizes every replica and returns their reports, indexed by
    /// replica. Aggregation (sums, max job-completion time) is the
    /// caller's business: different callers want different merges.
    pub fn finish(self) -> Vec<SessionReport> {
        self.sessions
            .into_iter()
            .map(EngineSession::finish)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::hardware::{GpuCluster, GpuSpec};
    use crate::model::ModelSpec;
    use crate::Deployment;

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

    #[test]
    fn zero_replicas_is_rejected() {
        assert!(matches!(
            SessionGroup::new(&engine(), 0),
            Err(EngineError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn single_replica_group_matches_plain_session() {
        let engine = engine();
        let requests: Vec<SimRequest> = (0..12).map(|i| request(i, i as u32)).collect();

        let mut solo = engine.session().unwrap();
        let solo_completions = solo.run_batch(&requests).unwrap().to_vec();
        let solo_report = solo.finish();

        let mut group = SessionGroup::new(&engine, 1).unwrap();
        for r in &requests {
            group.enqueue_on(0, r);
        }
        let drained = group.drain().unwrap();
        let reports = group.finish();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0], solo_completions);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].report, solo_report.report);
    }

    #[test]
    fn replicas_run_independently_and_group_clock_is_max() {
        let engine = engine();
        let mut group = SessionGroup::new(&engine, 3).unwrap();
        // Replica 0 gets 8 requests, replica 2 gets 1, replica 1 none.
        for i in 0..8 {
            group.enqueue_on(0, &request(i, i as u32));
        }
        group.enqueue_on(2, &request(100, 7));
        let drained = group.drain().unwrap();
        assert_eq!(drained[0].len(), 8);
        assert!(drained[1].is_empty());
        assert_eq!(drained[2].len(), 1);
        let clocks: Vec<f64> = (0..3).map(|i| group.get(i).clock()).collect();
        assert_eq!(group.clock(), clocks.iter().copied().fold(0.0, f64::max));
        assert!(clocks[0] > clocks[2], "heavier replica finishes later");
        assert_eq!(clocks[1], 0.0, "unused replica never moves");
    }

    #[test]
    fn advance_to_moves_only_idle_replicas_forward() {
        let engine = engine();
        let mut group = SessionGroup::new(&engine, 2).unwrap();
        group.enqueue_on(0, &request(0, 0));
        group.drain().unwrap();
        let busy_clock = group.get(0).clock();
        group.advance_to(busy_clock / 2.0);
        assert_eq!(group.get(0).clock(), busy_clock, "never rewinds");
        assert_eq!(group.get(1).clock(), busy_clock / 2.0);
    }

    #[test]
    fn identical_fan_out_matches_per_replica_solo_runs() {
        // Two replicas, disjoint request sets: each replica's completions
        // must equal a solo session fed the same subset, since replicas
        // share nothing.
        let engine = engine();
        let a: Vec<SimRequest> = (0..5).map(|i| request(i, 3)).collect();
        let b: Vec<SimRequest> = (5..9).map(|i| request(i, 4)).collect();

        let mut group = SessionGroup::new(&engine, 2).unwrap();
        for r in &a {
            group.enqueue_on(0, r);
        }
        for r in &b {
            // The borrowed-fragment form is the same submission.
            group.enqueue_fragments_on(1, r.id, r.output_len, &r.prompt);
        }
        let drained = group.drain().unwrap();

        for (subset, got) in [(&a, &drained[0]), (&b, &drained[1])] {
            let mut solo = engine.session().unwrap();
            assert_eq!(solo.run_batch(subset).unwrap(), &got[..]);
        }
    }
}
