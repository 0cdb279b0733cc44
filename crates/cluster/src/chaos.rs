//! The chaos-mode dispatcher: [`ClusterSim::run_with_faults`].
//!
//! Same discrete-event loop as [`ClusterSim::run`] — admission queue →
//! router → N replica sessions on one shared timeline — extended with four
//! more timed event sources (scheduled faults, replica rejoins, retry
//! due-times, hedge timers) and replica lifecycle state. The fault-free
//! loop in `sim.rs` stays untouched as the differential oracle: running
//! this loop with an empty [`FaultPlan`] and a disabled [`RetryPolicy`]
//! reproduces it byte for byte (proven in `tests/chaos_differential.rs`),
//! and a non-empty plan replays byte-for-byte from its seed.
//!
//! Fault semantics, in timeline terms:
//!
//! * **Timed events** (arrivals, crashes, drains, rejoins, retries, hedge
//!   timers) fire once every *busy* replica's clock has reached their
//!   instant — the same delivery rule arrivals always had — with ties
//!   processed in a fixed priority order (rejoins, faults, arrivals,
//!   retries, hedges). Plan events scheduled after all work has finished
//!   still fire (they can extend the makespan via a late rejoin).
//! * **Crash** fails every attempt queued or running on the replica
//!   (each re-enters the retry machinery at the crash instant), stashes
//!   the incarnation's metrics, and replaces the session with a cold one
//!   that rejoins — prefix cache empty — at the restart instant, if any.
//! * **Drain** marks the replica unroutable, lets it finish its work,
//!   then swaps in a cold session that rejoins at the rejoin instant —
//!   the graceful half of elastic resize.
//! * **Slowdown** windows multiply the replica's roofline step time while
//!   active. Macro-steps are bounded by the next window boundary so
//!   macro-stepped and single-stepped chaos runs stay byte-identical.
//! * **Transient errors** are rolled per serving attempt (deterministic
//!   in the plan seed) when its completion is harvested; a failed roll
//!   routes the attempt through the retry machinery.
//!
//! Retry/hedge/failover flow: an attempt failure schedules a retry after
//! jittered exponential backoff while budget and deadline allow, else the
//! request fails permanently. Re-routing goes through the ordinary router
//! with crashed/drained replicas marked not-[`alive`]; for
//! [`PrefixAffinity`](crate::PrefixAffinity) that lands a group's retries
//! on its *next*-ranked replica (prefix-affinity-aware failover). A hedge
//! duplicates a still-running request onto a different replica after a
//! delay; the first completion wins, the loser is counted as wasted work.
//!
//! Queue-wait attribution pairs each incarnation's enqueue-order arrivals
//! with its admission-sorted completions — exact on fault-free runs (the
//! legacy rule), a deterministic approximation when attempts die mid-queue.
//!
//! [`alive`]: crate::ReplicaSnapshot::alive

use crate::fault::{FaultEvent, FaultPlan, FaultStats, RetryPolicy};
use crate::overload::{
    decide_admission, obs_scale, obs_shed, OverloadPolicy, ScalePolicy, ScaleStats, ShedDecision,
    ShedStats,
};
use crate::report::{ClusterReport, ReplicaOccupancy, ReplicaReport};
use crate::request::ClusterRequest;
use crate::router::{ReplicaSnapshot, Router};
use crate::sim::{ClusterError, ClusterSim, Placer};
use llmqo_serve::{percentile, Completion, EngineReport, EngineSession};
use std::collections::{BTreeMap, HashSet, VecDeque};

/// How an admission-queue entry came to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttemptKind {
    /// The request's original arrival.
    First,
    /// A scheduled retry of a failed attempt.
    Retry,
    /// A hedge duplicate of a still-running request.
    Hedge,
}

/// One entry in the chaos admission queue: an attempt waiting for placement.
#[derive(Debug, Clone, Copy)]
struct AdmEntry {
    /// Index into `requests`.
    j: usize,
    kind: AttemptKind,
    /// When the attempt entered admission (arrival, retry due-time, or
    /// hedge fire-time); placement can happen no earlier.
    arrival_s: f64,
    /// Replica this attempt must avoid (a hedge excludes the replica its
    /// primary runs on).
    exclude: Option<usize>,
}

/// Failure-handling state of one logical request.
#[derive(Debug, Clone, Copy, Default)]
struct ReqState {
    /// Attempts placed on replicas so far.
    attempts: u32,
    /// Attempts currently queued or running on some replica.
    outstanding: u32,
    done: bool,
    failed: bool,
    /// The hedge timer has been armed (at first placement; one per request).
    hedge_armed: bool,
    /// Replica of the most recent placement, for failover counting and
    /// hedge exclusion.
    last_replica: Option<usize>,
}

/// Mutable per-replica state during a chaos run. Unlike the fault-free
/// loop's replica, this one can live through several session *incarnations*
/// (crash/restart, drain/rejoin); finished incarnations are stashed and
/// merged at assembly.
struct ChaosReplica {
    session: EngineSession,
    /// Lifetime placements across all incarnations (what routers see).
    assigned: usize,
    /// Arrival times of the *current incarnation's* placements, enqueue
    /// order.
    arrivals: Vec<f64>,
    occupancy: ReplicaOccupancy,
    /// Completion-harvest watermark into `session.completions()`.
    harvested: usize,
    /// Outstanding attempts by engine request id (BTreeMap for
    /// deterministic iteration when a crash fails them all).
    pending: BTreeMap<usize, VecDeque<(usize, u64, AttemptKind)>>,
    /// Accepts new placements.
    up: bool,
    /// Finishing existing work before leaving (drain in progress).
    draining: bool,
    /// Earliest rejoin instant once the drain completes.
    drain_rejoin: f64,
    /// Start of the current down window, if down.
    down_since: Option<f64>,
    /// Provisioned by the autoscaler and still warming up (joins at its
    /// scheduled up-event without touching the fault ledger).
    scale_join: bool,
    /// Drained out of the fleet by the autoscaler for good; never rejoins
    /// and its final down window is not unavailability.
    departed: bool,
    /// Idle seconds accrued by the catch-up `advance_to` at rejoin —
    /// subtracted so reported idle time counts only in-service idleness.
    idle_correction: f64,
    /// Finished incarnations: `(report, completions)`.
    stash: Vec<(EngineReport, Vec<Completion>)>,
    stash_idle: f64,
    lane: u32,
}

/// Transient state of the retry/hedge machinery shared across helpers.
struct ChaosState<'a> {
    plan: &'a FaultPlan,
    retry: &'a RetryPolicy,
    requests: &'a [ClusterRequest],
    states: Vec<ReqState>,
    stats: FaultStats,
    /// Scheduled retries `(due_s, request index)`.
    retryq: Vec<(f64, usize)>,
    /// Armed hedge timers `(fire_s, request index)`.
    hedge_timers: Vec<(f64, usize)>,
}

impl ChaosState<'_> {
    /// Handles the failure of one attempt of request `j` at instant `t`:
    /// schedules a retry while budget and deadline allow, else fails the
    /// request permanently. No-op while other attempts are still in flight.
    fn attempt_failed(&mut self, j: usize, t: f64) {
        let s = &mut self.states[j];
        if s.done || s.failed || s.outstanding > 0 {
            return;
        }
        let first_arrival = self.requests[j].arrival_s;
        if s.attempts >= self.retry.max_attempts {
            s.failed = true;
            self.stats.failed += 1;
            obs_count("cluster.requests_failed");
            return;
        }
        let id = self.requests[j].request.id as u64;
        let due = t + self.retry.backoff_s(self.plan.seed, id, s.attempts);
        if self
            .retry
            .deadline_s
            .is_some_and(|d| due - first_arrival > d)
        {
            s.failed = true;
            self.stats.failed += 1;
            self.stats.deadline_misses += 1;
            obs_count("cluster.requests_failed");
            return;
        }
        self.retryq.push((due, j));
        self.stats.retries += 1;
        obs_count("cluster.retry.scheduled");
    }

    /// Accounts one harvested completion of request `j`. `submission`
    /// feeds the transient-error roll.
    fn completion_harvested(
        &mut self,
        j: usize,
        submission: u64,
        kind: AttemptKind,
        c: &Completion,
    ) {
        self.states[j].outstanding = self.states[j].outstanding.saturating_sub(1);
        if self.plan.transient_fails(c.id as u64, submission) {
            self.stats.transient_errors += 1;
            obs_count("cluster.fault.transient_errors");
            self.attempt_failed(j, c.finished_s);
            return;
        }
        let s = &mut self.states[j];
        if s.done || s.failed {
            // A duplicate finishing after the race was decided.
            self.stats.wasted_completions += 1;
            return;
        }
        s.done = true;
        self.stats.succeeded += 1;
        if kind == AttemptKind::Hedge {
            self.stats.hedges_won += 1;
            obs_count("cluster.hedge.won");
        }
        if let Some(d) = self.retry.deadline_s {
            if c.finished_s - self.requests[j].arrival_s > d {
                self.stats.late_successes += 1;
                self.stats.deadline_misses += 1;
            }
        }
    }
}

/// Harvests every completion the replica produced since the last call and
/// routes each through success/transient-failure accounting.
fn harvest(rep: &mut ChaosReplica, cs: &mut ChaosState<'_>) {
    while rep.harvested < rep.session.completions().len() {
        let c = rep.session.completions()[rep.harvested];
        rep.harvested += 1;
        let Some(queue) = rep.pending.get_mut(&c.id) else {
            continue;
        };
        let Some((j, submission, kind)) = queue.pop_front() else {
            continue;
        };
        if queue.is_empty() {
            rep.pending.remove(&c.id);
        }
        cs.completion_harvested(j, submission, kind, &c);
    }
}

/// Swaps the replica's session for a cold one, stashing the finished
/// incarnation's report, completions, idle time, and queue waits.
fn stash_incarnation(
    rep: &mut ChaosReplica,
    engine: &llmqo_serve::SimEngine,
    queue_waits: &mut Vec<f64>,
) -> Result<(), ClusterError> {
    let mut fresh = engine.session()?;
    fresh.set_trace_lane(rep.lane);
    let old = std::mem::replace(&mut rep.session, fresh);
    let idle = old.idle_time_s();
    let outcome = old.finish();
    let mut admissions: Vec<f64> = outcome.completions.iter().map(|c| c.admitted_s).collect();
    admissions.sort_by(f64::total_cmp);
    for (&arrival, &admitted) in rep.arrivals.iter().zip(&admissions) {
        queue_waits.push((admitted - arrival).max(0.0));
    }
    rep.stash_idle += idle - rep.idle_correction;
    rep.idle_correction = 0.0;
    rep.stash.push((outcome.report, outcome.completions));
    rep.arrivals.clear();
    rep.harvested = 0;
    Ok(())
}

/// Crash `rep` at `t_c`: every pending attempt fails and the incarnation is
/// stashed. The caller schedules the cold-restart rejoin, if any.
fn crash_replica(
    rep: &mut ChaosReplica,
    index: usize,
    t_c: f64,
    engine: &llmqo_serve::SimEngine,
    cs: &mut ChaosState<'_>,
    queue_waits: &mut Vec<f64>,
) -> Result<(), ClusterError> {
    if rep.down_since.is_some() {
        return Ok(()); // Already down; only the caller's restart matters.
    }
    let pending = std::mem::take(&mut rep.pending);
    stash_incarnation(rep, engine, queue_waits)?;
    rep.up = false;
    rep.draining = false;
    rep.down_since = Some(t_c);
    cs.stats.crashes += 1;
    obs_count("cluster.fault.crashes");
    if llmqo_obs::enabled() {
        llmqo_obs::tracer().instant(
            0,
            index as u64,
            "fault.crash",
            "fault",
            t_c,
            &[("replica", index.into())],
        );
    }
    for (_, queue) in pending {
        for (j, _submission, _kind) in queue {
            cs.states[j].outstanding = cs.states[j].outstanding.saturating_sub(1);
            cs.stats.crash_failures += 1;
            cs.attempt_failed(j, t_c);
        }
    }
    Ok(())
}

/// Completes a drain: the replica went idle, so stash the incarnation and
/// schedule the cold rejoin. A scale-down drain (`drain_rejoin` infinite)
/// leaves for good — no rejoin is scheduled.
fn complete_drain(
    rep: &mut ChaosReplica,
    index: usize,
    t: f64,
    engine: &llmqo_serve::SimEngine,
    up_events: &mut Vec<(f64, usize)>,
    queue_waits: &mut Vec<f64>,
) -> Result<(), ClusterError> {
    stash_incarnation(rep, engine, queue_waits)?;
    rep.draining = false;
    rep.down_since = Some(t);
    if rep.drain_rejoin.is_finite() {
        up_events.push((rep.drain_rejoin.max(t), index));
    }
    Ok(())
}

/// Removes and returns every `(time, key)` entry due at or before `t`,
/// sorted by `(time, key)` for deterministic processing.
fn drain_due(queue: &mut Vec<(f64, usize)>, t: f64) -> Vec<(f64, usize)> {
    let mut due: Vec<(f64, usize)> = Vec::new();
    queue.retain(|&(when, key)| {
        if when <= t {
            due.push((when, key));
            false
        } else {
            true
        }
    });
    due.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    due
}

/// Cold path: one named counter increment, only when observability is on.
fn obs_count(name: &str) {
    if llmqo_obs::enabled() {
        llmqo_obs::registry().counter(name).inc();
    }
}

/// Merges a replica's incarnations into one `(report, completions)` pair.
/// Counters and times sum, peaks max, the makespan is the latest incarnation
/// clock, and latency percentiles are recomputed over all completions. With
/// a single incarnation (the fault-free case) the inputs pass through
/// untouched, preserving byte-identity with the plain dispatcher.
fn merge_incarnations(
    mut incarnations: Vec<(EngineReport, Vec<Completion>)>,
) -> (EngineReport, Vec<Completion>) {
    if incarnations.len() == 1 {
        match incarnations.pop() {
            Some(only) => return only,
            None => return (EngineReport::default(), Vec::new()),
        }
    }
    let mut report = EngineReport::default();
    let mut completions: Vec<Completion> = Vec::new();
    for (r, c) in incarnations {
        report.job_completion_time_s = report.job_completion_time_s.max(r.job_completion_time_s);
        report.prefill_time_s += r.prefill_time_s;
        report.decode_time_s += r.decode_time_s;
        report.overhead_time_s += r.overhead_time_s;
        report.total_prompt_tokens += r.total_prompt_tokens;
        report.cached_prompt_tokens += r.cached_prompt_tokens;
        report.computed_prompt_tokens += r.computed_prompt_tokens;
        report.total_output_tokens += r.total_output_tokens;
        report.steps += r.steps;
        report.peak_running = report.peak_running.max(r.peak_running);
        report.peak_blocks = report.peak_blocks.max(r.peak_blocks);
        report.evictions += r.evictions;
        report.completed += r.completed;
        completions.extend(c);
    }
    let mut ttfts: Vec<f64> = completions.iter().map(|c| c.ttft_s).collect();
    let mut latencies: Vec<f64> = completions
        .iter()
        .map(|c| c.finished_s - c.admitted_s)
        .collect();
    ttfts.sort_by(f64::total_cmp);
    latencies.sort_by(f64::total_cmp);
    report.ttft_p50_s = percentile(&ttfts, 0.50);
    report.ttft_p99_s = percentile(&ttfts, 0.99);
    report.latency_p50_s = percentile(&latencies, 0.50);
    report.latency_p99_s = percentile(&latencies, 0.99);
    (report, completions)
}

impl ClusterSim {
    /// [`run`](ClusterSim::run) under a deterministic [`FaultPlan`] with a
    /// [`RetryPolicy`] governing recovery; their docs carry the full fault
    /// semantics.
    ///
    /// With an empty plan and a disabled policy the result is byte-identical
    /// to [`run`](ClusterSim::run); any other configuration reproduces byte
    /// for byte from the same inputs and fills
    /// [`ClusterReport::faults`](crate::ClusterReport::faults), whose
    /// invariant `succeeded + failed == offered` guarantees no request is
    /// ever silently lost.
    ///
    /// Requests must carry **unique** engine ids — completions are
    /// attributed back to logical requests by id.
    ///
    /// # Errors
    ///
    /// Everything [`run`](ClusterSim::run) returns, plus
    /// [`ClusterError::InvalidFaultPlan`] for malformed plans/policies and
    /// [`ClusterError::DuplicateRequestId`] for non-unique request ids.
    ///
    /// # Examples
    ///
    /// ```
    /// use llmqo_cluster::{
    ///     ClusterConfig, ClusterRequest, ClusterSim, FaultPlan, PrefixAffinity, RetryPolicy,
    /// };
    /// use llmqo_serve::{Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, SimEngine,
    ///                   SimRequest};
    ///
    /// let engine = SimEngine::new(
    ///     Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
    ///     EngineConfig::default(),
    /// );
    /// let sim = ClusterSim::new(engine, ClusterConfig { replicas: 2, queue_cap: 16 });
    /// let requests: Vec<ClusterRequest> = (0..16usize)
    ///     .map(|i| {
    ///         let g = (i / 8) as u32;
    ///         let mut toks: Vec<u32> = (0..32).map(|j| g * 1000 + j).collect();
    ///         toks.extend((0..8).map(|j| 10_000 + i as u32 * 64 + j));
    ///         ClusterRequest::new(SimRequest::from_tokens(i, toks, 2), u64::from(g))
    ///     })
    ///     .collect();
    /// let plan = FaultPlan::seeded(7).crash_restart(0, 0.05, 0.2);
    /// let report = sim
    ///     .run_with_faults(&mut PrefixAffinity::default(), &requests, &plan, &RetryPolicy::retries(4))
    ///     .unwrap();
    /// let fs = &report.faults;
    /// assert_eq!(fs.offered, 16);
    /// assert_eq!(fs.succeeded + fs.failed, fs.offered);
    /// ```
    pub fn run_with_faults(
        &self,
        router: &mut dyn Router,
        requests: &[ClusterRequest],
        plan: &FaultPlan,
        retry: &RetryPolicy,
    ) -> Result<ClusterReport, ClusterError> {
        self.run_with_faults_impl(
            router,
            requests,
            plan,
            retry,
            &OverloadPolicy::default(),
            true,
        )
    }

    /// [`run_with_faults`](ClusterSim::run_with_faults) under an
    /// [`OverloadPolicy`]: KV-aware admission gates with priority load
    /// shedding, plus an optional elastic [`ScalePolicy`] that drains cold
    /// replicas and warms new ones mid-job. The report gains the
    /// [`shed`](crate::ClusterReport::shed) and
    /// [`scaling`](crate::ClusterReport::scaling) ledgers; with any faults
    /// or retries engaged the failure invariant extends to
    /// `succeeded + failed + shed == offered`.
    ///
    /// An inert (default) overload policy is byte-identical to
    /// [`run_with_faults`](ClusterSim::run_with_faults); an inert policy
    /// *and* inert plan/retry reproduce [`run`](ClusterSim::run) itself.
    ///
    /// # Errors
    ///
    /// As for [`run_with_faults`](ClusterSim::run_with_faults), plus
    /// [`ClusterError::InvalidOverloadPolicy`] for malformed policies.
    pub fn run_overloaded(
        &self,
        router: &mut dyn Router,
        requests: &[ClusterRequest],
        plan: &FaultPlan,
        retry: &RetryPolicy,
        overload: &OverloadPolicy,
    ) -> Result<ClusterReport, ClusterError> {
        self.run_with_faults_impl(router, requests, plan, retry, overload, true)
    }

    /// [`run_overloaded`](ClusterSim::run_overloaded) driving every replica
    /// one scheduling step at a time — the fine-grained oracle for the
    /// overload differential suite.
    ///
    /// # Errors
    ///
    /// As for [`run_overloaded`](ClusterSim::run_overloaded).
    pub fn run_overloaded_single_stepped(
        &self,
        router: &mut dyn Router,
        requests: &[ClusterRequest],
        plan: &FaultPlan,
        retry: &RetryPolicy,
        overload: &OverloadPolicy,
    ) -> Result<ClusterReport, ClusterError> {
        self.run_with_faults_impl(router, requests, plan, retry, overload, false)
    }

    /// [`run_with_faults`](ClusterSim::run_with_faults) driving every
    /// replica one scheduling step at a time — the fine-grained oracle the
    /// differential suite compares macro-stepped chaos runs against.
    ///
    /// The two modes agree byte for byte; the macro path bounds each window
    /// by the next known timed event (arrival, fault, rejoin, retry due,
    /// hedge timer, slowdown boundary) and falls back to fine-grained
    /// stepping on its own when retries can be born mid-window (transient
    /// errors with a retry budget), so the agreement is unconditional.
    ///
    /// # Errors
    ///
    /// As for [`run_with_faults`](ClusterSim::run_with_faults).
    pub fn run_with_faults_single_stepped(
        &self,
        router: &mut dyn Router,
        requests: &[ClusterRequest],
        plan: &FaultPlan,
        retry: &RetryPolicy,
    ) -> Result<ClusterReport, ClusterError> {
        self.run_with_faults_impl(
            router,
            requests,
            plan,
            retry,
            &OverloadPolicy::default(),
            false,
        )
    }

    fn run_with_faults_impl(
        &self,
        router: &mut dyn Router,
        requests: &[ClusterRequest],
        plan: &FaultPlan,
        retry: &RetryPolicy,
        overload: &OverloadPolicy,
        macro_steps: bool,
    ) -> Result<ClusterReport, ClusterError> {
        let config = *self.config();
        if config.replicas == 0 {
            return Err(ClusterError::InvalidConfig {
                reason: "need at least one replica",
            });
        }
        if config.queue_cap == 0 {
            return Err(ClusterError::InvalidConfig {
                reason: "queue capacity must be at least one",
            });
        }
        for (index, r) in requests.iter().enumerate() {
            if !r.arrival_s.is_finite() || r.arrival_s < 0.0 {
                return Err(ClusterError::InvalidArrival { index });
            }
        }
        plan.validate(config.replicas)?;
        retry.validate()?;
        overload.validate(config.replicas)?;
        let gated = !overload.admission.is_inert();
        let mut shed_stats = ShedStats::default();
        if gated {
            shed_stats.offered = requests.len();
        }
        // Autoscaler control-loop state: next check instant, last action
        // instant (for cooldown hysteresis), and the event ledger.
        let mut scale_state: Option<(ScalePolicy, f64, f64, ScaleStats)> =
            overload.scale.map(|p| {
                let stats = ScaleStats {
                    peak_replicas: config.replicas,
                    low_replicas: config.replicas,
                    ..ScaleStats::default()
                };
                (p, p.check_interval_s, f64::NEG_INFINITY, stats)
            });
        let mut seen_ids: HashSet<usize> = HashSet::with_capacity(requests.len());
        for r in requests {
            if !seen_ids.insert(r.request.id) {
                return Err(ClusterError::DuplicateRequestId { id: r.request.id });
            }
        }
        let engaged = !plan.is_empty() || !retry.is_disabled();
        // Scheduled faults, arrivals, rejoins, and hedge timers are known
        // (or fixed at placement) before any step runs, so they can bound a
        // macro window. A *transient-error retry* cannot: its due instant is
        // discovered only when the failed completion is harvested, and under
        // macro stepping that harvest happens after the window has already
        // run past the due — the single-stepped oracle would have re-admitted
        // the attempt earlier. Fine-grained stepping is the only sound mode
        // whenever that feedback is possible.
        let macro_steps = macro_steps && !(plan.transient_error_ppm > 0 && retry.max_attempts > 1);

        let obs_on = llmqo_obs::enabled();
        let mut replicas: Vec<ChaosReplica> = (0..config.replicas)
            .map(|i| {
                let mut session = self.engine().session()?;
                let lane = u32::try_from(i + 1).unwrap_or(u32::MAX);
                session.set_trace_lane(lane);
                if obs_on {
                    llmqo_obs::tracer().name_lane(lane, &format!("replica {i}"));
                }
                Ok(ChaosReplica {
                    session,
                    assigned: 0,
                    arrivals: Vec::new(),
                    occupancy: ReplicaOccupancy::default(),
                    harvested: 0,
                    pending: BTreeMap::new(),
                    up: true,
                    draining: false,
                    drain_rejoin: 0.0,
                    down_since: None,
                    scale_join: false,
                    departed: false,
                    idle_correction: 0.0,
                    stash: Vec::new(),
                    stash_idle: 0.0,
                    lane,
                })
            })
            .collect::<Result<_, llmqo_serve::EngineError>>()?;
        let mut placer = Placer::new(self.engine());
        // Per-run scratch, refilled per placement attempt / gated arrival.
        let mut snapshots: Vec<ReplicaSnapshot> = Vec::with_capacity(replicas.len());
        let mut sheddable: Vec<(usize, u32, u8)> = Vec::new();

        // Arrival order: by time, original order on ties (stable sort).
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by(|&a, &b| requests[a].arrival_s.total_cmp(&requests[b].arrival_s));
        let mut next_arrival = 0usize;

        // Crash/drain schedule, sorted by (instant, plan position).
        // Slowdowns are time *windows*, queried per step, not events.
        let mut fault_events: Vec<(f64, usize)> = plan
            .events
            .iter()
            .enumerate()
            .filter(|(_, e)| !matches!(e, FaultEvent::Slowdown { .. }))
            .map(|(i, e)| (e.at_s(), i))
            .collect();
        fault_events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut next_fault = 0usize;
        // Scheduled cold rejoins `(instant, replica)`.
        let mut up_events: Vec<(f64, usize)> = Vec::new();

        let mut cs = ChaosState {
            plan,
            retry,
            requests,
            states: vec![ReqState::default(); requests.len()],
            stats: FaultStats::default(),
            retryq: Vec::new(),
            hedge_timers: Vec::new(),
        };
        cs.stats.offered = requests.len();
        let mut admission: VecDeque<AdmEntry> = VecDeque::new();
        let mut queue_waits: Vec<f64> = Vec::new();
        let mut now = 0.0f64;
        // Global placement counter feeding per-attempt transient rolls.
        let mut submissions = 0u64;
        // Macro events taken while admission was backpressured (retry-
        // insensitive routers only); scheduling bookkeeping, not behavior.
        let mut backpressure_macro_steps = 0u64;

        loop {
            // --- Placement: drain admission while replicas can take work.
            while let Some(&entry) = admission.front() {
                let j = entry.j;
                if cs.states[j].done || cs.states[j].failed {
                    admission.pop_front(); // Stale retry/hedge entry.
                    continue;
                }
                snapshots.clear();
                snapshots.extend(replicas.iter().enumerate().map(|(index, r)| {
                    let alive = r.up && entry.exclude != Some(index);
                    ReplicaSnapshot::observe(index, &r.session, r.assigned, alive)
                }));
                let choice = router.route(requests[j].prefix_key, &snapshots);
                if choice >= replicas.len() {
                    return Err(ClusterError::RouterOutOfRange {
                        chose: choice,
                        replicas: replicas.len(),
                    });
                }
                if entry.exclude == Some(choice) {
                    // A hedge with nowhere else to go is abandoned; its
                    // primary is still in flight.
                    admission.pop_front();
                    continue;
                }
                if !replicas[choice].up {
                    break; // Nowhere routable: wait for a rejoin (or fail).
                }
                if replicas[choice].session.queued() >= config.queue_cap {
                    break; // Backpressure: head-of-line waits for an event.
                }
                admission.pop_front();
                let replica = &mut replicas[choice];
                placer.place(
                    &mut replica.session,
                    &mut replica.occupancy,
                    choice,
                    &requests[j],
                    entry.arrival_s.max(now),
                );
                replica.assigned += 1;
                replica.arrivals.push(entry.arrival_s);
                let submission = submissions;
                submissions += 1;
                replica
                    .pending
                    .entry(requests[j].request.id)
                    .or_default()
                    .push_back((j, submission, entry.kind));
                let s = &mut cs.states[j];
                s.attempts += 1;
                s.outstanding += 1;
                if entry.kind != AttemptKind::First && s.last_replica.is_some_and(|p| p != choice) {
                    cs.stats.failovers += 1;
                    obs_count("cluster.failovers");
                }
                s.last_replica = Some(choice);
                match entry.kind {
                    AttemptKind::Hedge => {
                        cs.stats.hedges_issued += 1;
                        obs_count("cluster.hedge.issued");
                    }
                    AttemptKind::First => {
                        if let Some(h) = retry.hedge_after_s {
                            if !s.hedge_armed {
                                s.hedge_armed = true;
                                cs.hedge_timers.push((entry.arrival_s.max(now) + h, j));
                            }
                        }
                    }
                    AttemptKind::Retry => {}
                }
            }

            // --- Next event on the shared timeline.
            let mut busy: Option<usize> = None;
            for (i, r) in replicas.iter().enumerate() {
                if !r.session.is_idle()
                    && busy.is_none_or(|b| r.session.clock() < replicas[b].session.clock())
                {
                    busy = Some(i);
                }
            }
            // Purge hedge timers whose request no longer qualifies, so an
            // armed-but-dead timer cannot keep the loop alive.
            cs.hedge_timers.retain(|&(_, j)| {
                let s = &cs.states[j];
                !s.done && !s.failed
            });
            let mut timed: Option<f64> = None;
            let mut consider = |t: f64| {
                if timed.is_none_or(|m| t < m) {
                    timed = Some(t);
                }
            };
            if next_arrival < order.len() {
                consider(requests[order[next_arrival]].arrival_s);
            }
            if next_fault < fault_events.len() {
                consider(fault_events[next_fault].0);
            }
            for &(t, _) in &up_events {
                consider(t);
            }
            for &(t, _) in &cs.retryq {
                consider(t);
            }
            for &(t, _) in &cs.hedge_timers {
                consider(t);
            }
            // The autoscaler's next check is a timed event too — but only
            // while the job still has pending work, so an idle tail cannot
            // keep the loop alive forever.
            let work_pending = next_arrival < order.len()
                || !admission.is_empty()
                || busy.is_some()
                || !cs.retryq.is_empty()
                || !cs.hedge_timers.is_empty();
            if let Some((_, next_check, _, _)) = &scale_state {
                if work_pending {
                    consider(*next_check);
                }
            }

            let deliver = match (busy, timed) {
                (_, None) => false,
                (None, Some(_)) => true,
                (Some(b), Some(t)) => t <= replicas[b].session.clock(),
            };

            if deliver {
                let Some(t) = timed else { break };
                // Fixed priority among ties at instant `t`: rejoins first
                // (capacity returns before new demand), then crash/drain,
                // then arrivals, retries, hedges.
                for (t_u, i) in drain_due(&mut up_events, t) {
                    let rep = &mut replicas[i];
                    if rep.scale_join {
                        // A scaled-up replica finishing its warmup: it was
                        // never *un*available, so only the scaling ledger
                        // (not the fault ledger) sees the event.
                        rep.scale_join = false;
                        rep.session.advance_to(t_u);
                        rep.idle_correction = rep.session.idle_time_s();
                        rep.up = true;
                        obs_scale("joined", i, replicas.iter().filter(|r| r.up).count(), t_u);
                        continue;
                    }
                    let rep = &mut replicas[i];
                    let Some(since) = rep.down_since.take() else {
                        continue; // Already up (duplicate rejoin).
                    };
                    rep.session.advance_to(t_u);
                    rep.idle_correction = rep.session.idle_time_s();
                    rep.up = true;
                    cs.stats.restarts += 1;
                    cs.stats.unavailability_windows += 1;
                    cs.stats.unavailable_s += (t_u - since).max(0.0);
                    obs_count("cluster.fault.restarts");
                    if llmqo_obs::enabled() {
                        llmqo_obs::tracer().instant(
                            0,
                            i as u64,
                            "fault.rejoin",
                            "fault",
                            t_u,
                            &[("replica", i.into())],
                        );
                    }
                }
                while next_fault < fault_events.len() && fault_events[next_fault].0 <= t {
                    let (t_f, idx) = fault_events[next_fault];
                    next_fault += 1;
                    match plan.events[idx] {
                        FaultEvent::Crash {
                            replica, restart_s, ..
                        } => {
                            if let Some(rs) = restart_s {
                                up_events.push((rs.max(t_f), replica));
                            }
                            crash_replica(
                                &mut replicas[replica],
                                replica,
                                t_f,
                                self.engine(),
                                &mut cs,
                                &mut queue_waits,
                            )?;
                        }
                        FaultEvent::Drain {
                            replica, rejoin_s, ..
                        } => {
                            let rep = &mut replicas[replica];
                            if rep.down_since.is_some() || rep.draining {
                                continue; // Already leaving or gone.
                            }
                            rep.up = false;
                            rep.draining = true;
                            rep.drain_rejoin = rejoin_s;
                            cs.stats.drains += 1;
                            obs_count("cluster.fault.drains");
                            if rep.session.is_idle() {
                                complete_drain(
                                    rep,
                                    replica,
                                    t_f,
                                    self.engine(),
                                    &mut up_events,
                                    &mut queue_waits,
                                )?;
                            }
                        }
                        FaultEvent::Slowdown { .. } => {}
                    }
                }
                while next_arrival < order.len() && requests[order[next_arrival]].arrival_s <= t {
                    let j = order[next_arrival];
                    next_arrival += 1;
                    let entry = AdmEntry {
                        j,
                        kind: AttemptKind::First,
                        arrival_s: requests[j].arrival_s,
                        exclude: None,
                    };
                    if !gated {
                        admission.push_back(entry);
                        continue;
                    }
                    // Admission gates. Only first attempts are sheddable:
                    // retries and hedges were already admitted once and
                    // their attempts are on the fault ledger.
                    let kv_util = if overload.admission.max_kv_utilization.is_some() {
                        let (in_use, capacity) =
                            replicas
                                .iter()
                                .filter(|r| r.up)
                                .fold((0usize, 0usize), |acc, r| {
                                    (
                                        acc.0 + r.session.kv_blocks_in_use(),
                                        acc.1 + r.session.capacity_blocks(),
                                    )
                                });
                        if capacity == 0 {
                            0.0
                        } else {
                            in_use as f64 / capacity as f64
                        }
                    } else {
                        0.0
                    };
                    sheddable.clear();
                    sheddable.extend(
                        admission
                            .iter()
                            .enumerate()
                            .filter(|(_, e)| e.kind == AttemptKind::First)
                            .map(|(pos, e)| (pos, requests[e.j].tenant, requests[e.j].priority)),
                    );
                    // The depth gate counts only first attempts: retries and
                    // hedges are work the cluster already admitted (and owes
                    // the fault ledger an outcome for), so in-flight recovery
                    // traffic neither fills the admission budget nor blocks a
                    // high-priority arrival from finding a sheddable victim.
                    match decide_admission(
                        &overload.admission,
                        requests[j].tenant,
                        requests[j].priority,
                        sheddable.len(),
                        &sheddable,
                        kv_util,
                    ) {
                        ShedDecision::Admit => admission.push_back(entry),
                        ShedDecision::ShedArrival(reason) => {
                            shed_stats.record(reason, requests[j].priority);
                            obs_shed(&requests[j], reason, t);
                        }
                        ShedDecision::EvictPending(pos, reason) => {
                            if let Some(victim) = admission.remove(pos) {
                                shed_stats.record(reason, requests[victim.j].priority);
                                obs_shed(&requests[victim.j], reason, t);
                            }
                            admission.push_back(entry);
                        }
                    }
                }
                for (due, j) in drain_due(&mut cs.retryq, t) {
                    admission.push_back(AdmEntry {
                        j,
                        kind: AttemptKind::Retry,
                        arrival_s: due,
                        exclude: None,
                    });
                }
                let up_count = replicas.iter().filter(|r| r.up).count();
                for (_, j) in drain_due(&mut cs.hedge_timers, t) {
                    let s = &cs.states[j];
                    // Hedge only a request that is still in flight, has
                    // budget left, and has somewhere else to run.
                    if s.done
                        || s.failed
                        || s.outstanding == 0
                        || s.attempts >= retry.max_attempts
                        || up_count < 2
                    {
                        continue;
                    }
                    admission.push_back(AdmEntry {
                        j,
                        kind: AttemptKind::Hedge,
                        arrival_s: t,
                        exclude: s.last_replica,
                    });
                }
                // --- Autoscaler control loop, last in the tie order: it
                // reads the queue as arrivals/retries at `t` left it
                // (admission → shed → scale).
                if let Some((policy, next_check, last_action, sstats)) = &mut scale_state {
                    if *next_check <= t {
                        while *next_check <= t {
                            *next_check += policy.check_interval_s;
                        }
                        sstats.checks += 1;
                        let routable = replicas.iter().filter(|r| r.up).count();
                        // Routable plus scheduled joins: the fleet the
                        // max_replicas bound applies to.
                        let fleet = routable + up_events.len();
                        sstats.peak_replicas = sstats.peak_replicas.max(fleet);
                        sstats.low_replicas = sstats.low_replicas.min(routable);
                        let cooled = t - *last_action >= policy.cooldown_s;
                        let oldest_pending = admission
                            .iter()
                            .map(|e| e.arrival_s)
                            .fold(f64::INFINITY, f64::min);
                        if cooled
                            && t - oldest_pending >= policy.queue_wait_up_s
                            && fleet < policy.max_replicas
                        {
                            // Scale up: provision a cold replica that joins
                            // (empty prefix cache, rendezvous remap) after
                            // its jittered warmup.
                            let index = replicas.len();
                            let mut session = self.engine().session()?;
                            let lane = u32::try_from(index + 1).unwrap_or(u32::MAX);
                            session.set_trace_lane(lane);
                            if obs_on {
                                llmqo_obs::tracer().name_lane(lane, &format!("replica {index}"));
                            }
                            replicas.push(ChaosReplica {
                                session,
                                assigned: 0,
                                arrivals: Vec::new(),
                                occupancy: ReplicaOccupancy::default(),
                                harvested: 0,
                                pending: BTreeMap::new(),
                                up: false,
                                draining: false,
                                drain_rejoin: 0.0,
                                down_since: None,
                                scale_join: true,
                                departed: false,
                                idle_correction: 0.0,
                                stash: Vec::new(),
                                stash_idle: 0.0,
                                lane,
                            });
                            up_events.push((t + policy.warmup_for(sstats.scale_ups), index));
                            sstats.scale_ups += 1;
                            sstats.peak_replicas = sstats.peak_replicas.max(fleet + 1);
                            *last_action = t;
                            obs_scale("up", index, fleet + 1, t);
                        } else if cooled && admission.is_empty() && routable > policy.min_replicas {
                            let (in_use, capacity) = replicas.iter().filter(|r| r.up).fold(
                                (0usize, 0usize),
                                |acc, r| {
                                    (
                                        acc.0 + r.session.kv_blocks_in_use(),
                                        acc.1 + r.session.capacity_blocks(),
                                    )
                                },
                            );
                            let util = if capacity == 0 {
                                0.0
                            } else {
                                in_use as f64 / capacity as f64
                            };
                            if util < policy.kv_low_watermark {
                                // Scale down: gracefully drain the least
                                // loaded routable replica (highest index on
                                // ties), for good.
                                let mut victim: Option<(usize, usize)> = None;
                                for (i, r) in replicas.iter().enumerate() {
                                    if r.up {
                                        let load = r.session.queued() + r.session.running();
                                        if victim.is_none_or(|(best, _)| load <= best) {
                                            victim = Some((load, i));
                                        }
                                    }
                                }
                                if let Some((_, i)) = victim {
                                    let rep = &mut replicas[i];
                                    rep.up = false;
                                    rep.draining = true;
                                    rep.drain_rejoin = f64::INFINITY;
                                    rep.departed = true;
                                    sstats.scale_downs += 1;
                                    sstats.low_replicas = sstats.low_replicas.min(routable - 1);
                                    *last_action = t;
                                    obs_scale("down", i, routable - 1, t);
                                    if rep.session.is_idle() {
                                        complete_drain(
                                            rep,
                                            i,
                                            t,
                                            self.engine(),
                                            &mut up_events,
                                            &mut queue_waits,
                                        )?;
                                    }
                                }
                            }
                        }
                    }
                }
                now = now.max(t);
            } else if let Some(b) = busy {
                let clock = replicas[b].session.clock();
                let slow = plan.slowdown_at(b, clock);
                replicas[b].session.set_slowdown(slow);
                if macro_steps && admission.is_empty() {
                    // Macro-step to the next timed event, additionally
                    // bounded by the replica's next slowdown boundary so
                    // every step starts with the factor the single-stepped
                    // loop would apply at that instant.
                    let mut horizon = timed;
                    if let Some(bound) = plan.next_slowdown_boundary(b, clock) {
                        horizon = Some(horizon.map_or(bound, |h| h.min(bound)));
                    }
                    replicas[b].session.step_until(horizon)?;
                } else if macro_steps && router.retry_insensitive() {
                    // Backpressured phase, same argument as the fault-free
                    // dispatcher: a retry-insensitive router's consultations
                    // mutate nothing and read only snapshot fields frozen
                    // during a pure-decode run, so the head-of-line request
                    // stays blocked at every skipped instant. The jump is
                    // bounded by every chaos event source (all folded into
                    // `timed`, including scale checks), every *other* busy
                    // replica's clock, and this replica's next slowdown
                    // boundary. On a tie the jump would be empty; fall back
                    // to a single step to keep the tie-break order.
                    let other_busy = replicas
                        .iter()
                        .enumerate()
                        .filter(|&(i, r)| i != b && !r.session.is_idle())
                        .map(|(_, r)| r.session.clock())
                        .fold(f64::INFINITY, f64::min);
                    let mut horizon = other_busy;
                    if let Some(t) = timed {
                        horizon = horizon.min(t);
                    }
                    if let Some(bound) = plan.next_slowdown_boundary(b, clock) {
                        horizon = horizon.min(bound);
                    }
                    if horizon > clock {
                        backpressure_macro_steps += 1;
                        replicas[b]
                            .session
                            .step_until(horizon.is_finite().then_some(horizon))?;
                    } else {
                        replicas[b].session.step()?;
                    }
                } else {
                    replicas[b].session.step()?;
                }
                let rep = &mut replicas[b];
                now = now.max(rep.session.clock());
                harvest(rep, &mut cs);
                if rep.draining && rep.session.is_idle() {
                    let t_done = rep.session.clock();
                    complete_drain(
                        rep,
                        b,
                        t_done,
                        self.engine(),
                        &mut up_events,
                        &mut queue_waits,
                    )?;
                }
            } else if admission.is_empty() {
                break; // No work, no pending events anywhere: done.
            } else if replicas.iter().any(|r| r.up) {
                // All replicas idle yet something is stuck in admission:
                // impossible with queue_cap >= 1 (idle means empty queue).
                return Err(ClusterError::InvalidConfig {
                    reason: "dispatcher stalled (router refuses idle replicas?)",
                });
            } else {
                // Every replica is gone and nothing will bring one back:
                // everything still waiting fails permanently.
                for entry in admission.drain(..) {
                    let s = &mut cs.states[entry.j];
                    if !s.done && !s.failed && s.outstanding == 0 {
                        s.failed = true;
                        cs.stats.failed += 1;
                        obs_count("cluster.requests_failed");
                    }
                }
            }
        }

        placer.finish();

        // --- Assembly: merge incarnations per replica, close open windows.
        // Scale-down departures are deliberate, not faults: their windows
        // stay out of the unavailability ledger.
        let open_windows: Vec<f64> = replicas
            .iter()
            .filter(|r| !r.departed)
            .filter_map(|r| r.down_since)
            .collect();
        let mut reports: Vec<ReplicaReport> = Vec::new();
        for mut rep in replicas {
            let idle_final = rep.session.idle_time_s() - rep.idle_correction;
            let assigned = rep.assigned;
            let occupancy = rep.occupancy;
            let arrivals = std::mem::take(&mut rep.arrivals);
            let outcome = rep.session.finish();
            let mut admissions: Vec<f64> =
                outcome.completions.iter().map(|c| c.admitted_s).collect();
            admissions.sort_by(f64::total_cmp);
            for (&arrival, &admitted) in arrivals.iter().zip(&admissions) {
                queue_waits.push((admitted - arrival).max(0.0));
            }
            let mut incarnations = rep.stash;
            incarnations.push((outcome.report, outcome.completions));
            let (engine, completions) = merge_incarnations(incarnations);
            reports.push(ReplicaReport {
                engine,
                completions,
                assigned,
                idle_s: rep.stash_idle + idle_final,
                occupancy,
            });
        }
        let mut report = ClusterReport::assemble(router.name(), reports, queue_waits);
        for since in open_windows {
            cs.stats.unavailability_windows += 1;
            cs.stats.unavailable_s += (report.makespan_s - since).max(0.0);
        }
        if engaged {
            report.faults = cs.stats;
        }
        report.shed = shed_stats;
        if let Some((_, _, _, sstats)) = scale_state {
            report.scaling = sstats;
        }
        report.backpressure_macro_steps = backpressure_macro_steps;
        Ok(report)
    }
}
