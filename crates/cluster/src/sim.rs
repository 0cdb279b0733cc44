//! The sharded serving simulator: admission queue → router → N replica
//! engine sessions on one shared timeline.
//!
//! Discrete-event loop invariants:
//!
//! * Every replica is an [`EngineSession`] whose local clock lives on the
//!   shared cluster timeline (idle replicas are fast-forwarded via
//!   `advance_to` when work reaches them).
//! * An arrival is delivered only once every *busy* replica's clock has
//!   reached its arrival time, so routing decisions never see a replica
//!   state from the past.
//! * Each replica's waiting queue is bounded by `queue_cap`: when the
//!   router's chosen replica is full, the request blocks at the head of the
//!   global admission queue (backpressure) and the router is re-consulted
//!   after the next event.
//!
//! Everything is deterministic: fixed inputs and a deterministic router give
//! bit-identical [`ClusterReport`]s.
//!
//! Replicas advance in **macro-steps** whenever the admission queue is
//! empty: [`ClusterSim::run`] hands the chosen replica the next arrival
//! time as a horizon and lets the session collapse steady-state decode
//! runs ([`EngineSession::step_until`]), so a job with breathing room costs
//! events, not tokens. Backpressured phases macro-step too when the router
//! declares [`Router::retry_insensitive`] (all four built-ins do): the
//! skipped states are pure-decode instants where no snapshot field a
//! retry-insensitive router reads can change, so the blocked head-of-line
//! request would have failed placement at each of them identically. Custom
//! routers that keep the `false` default are served conservatively — one
//! step per event, every retry observable. Either way reports stay
//! byte-identical to [`ClusterSim::run_single_stepped`], the
//! one-step-per-event differential oracle, for every deterministic router.

use crate::overload::{decide_admission, obs_shed, AdmissionPolicy, ShedDecision, ShedStats};
use crate::report::{ClusterReport, ReplicaOccupancy, ReplicaReport};
use crate::request::ClusterRequest;
use crate::router::{ReplicaSnapshot, Router};
use llmqo_obs::{Counter, Gauge};
use llmqo_serve::{ChainHasher, EngineError, EngineSession, SimEngine};
use std::collections::VecDeque;
use std::fmt;

/// Cluster topology and flow-control parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of identical engine replicas.
    pub replicas: usize,
    /// Per-replica admission-queue bound (requests waiting, not running).
    /// The global admission queue stalls when the routed-to replica is full.
    pub queue_cap: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replicas: 4,
            queue_cap: 64,
        }
    }
}

/// Failures of a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// The configuration cannot serve anything.
    InvalidConfig {
        /// What is wrong.
        reason: &'static str,
    },
    /// A request carried a negative, NaN, or infinite arrival time.
    InvalidArrival {
        /// Index of the offending request.
        index: usize,
    },
    /// The router chose a replica outside `0..replicas`.
    RouterOutOfRange {
        /// The router's choice.
        chose: usize,
        /// Number of replicas.
        replicas: usize,
    },
    /// A replica engine failed.
    Engine(EngineError),
    /// A [`FaultPlan`](crate::FaultPlan) or
    /// [`RetryPolicy`](crate::RetryPolicy) is malformed.
    InvalidFaultPlan {
        /// What is wrong.
        reason: &'static str,
    },
    /// Two requests passed to
    /// [`run_with_faults`](crate::ClusterSim::run_with_faults) share an
    /// engine request id. Retry attribution (which logical request a
    /// completion belongs to) needs ids to be unique.
    DuplicateRequestId {
        /// The repeated id.
        id: usize,
    },
    /// An [`AdmissionPolicy`](crate::AdmissionPolicy) or
    /// [`ScalePolicy`](crate::ScalePolicy) is malformed.
    InvalidOverloadPolicy {
        /// What is wrong.
        reason: &'static str,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::InvalidConfig { reason } => write!(f, "invalid cluster config: {reason}"),
            ClusterError::InvalidArrival { index } => {
                write!(
                    f,
                    "request {index} has a non-finite or negative arrival time"
                )
            }
            ClusterError::RouterOutOfRange { chose, replicas } => {
                write!(f, "router chose replica {chose} of {replicas}")
            }
            ClusterError::Engine(e) => write!(f, "replica engine error: {e}"),
            ClusterError::InvalidFaultPlan { reason } => {
                write!(f, "invalid fault plan or retry policy: {reason}")
            }
            ClusterError::DuplicateRequestId { id } => {
                write!(f, "duplicate request id {id} in a fault-injected run")
            }
            ClusterError::InvalidOverloadPolicy { reason } => {
                write!(f, "invalid admission or scale policy: {reason}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<EngineError> for ClusterError {
    fn from(e: EngineError) -> Self {
        ClusterError::Engine(e)
    }
}

/// A fleet of identical [`SimEngine`] replicas behind a routed admission
/// queue.
///
/// # Examples
///
/// ```
/// use llmqo_cluster::{ClusterConfig, ClusterRequest, ClusterSim, PrefixAffinity};
/// use llmqo_serve::{Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, SimEngine,
///                   SimRequest};
///
/// let engine = SimEngine::new(
///     Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
///     EngineConfig::default(),
/// );
/// let sim = ClusterSim::new(engine, ClusterConfig { replicas: 2, queue_cap: 8 });
/// // Two prefix groups of 10 requests each.
/// let requests: Vec<ClusterRequest> = (0..20usize)
///     .map(|i| {
///         let group = (i / 10) as u32;
///         let mut toks: Vec<u32> = (0..32).map(|j| group * 1000 + j).collect();
///         toks.extend((0..8).map(|j| 10_000 + i as u32 * 64 + j));
///         ClusterRequest::new(SimRequest::from_tokens(i, toks, 2), u64::from(group))
///     })
///     .collect();
/// let report = sim.run(&mut PrefixAffinity::default(), &requests).unwrap();
/// assert_eq!(report.completed, 20);
/// assert!(report.prefix_hit_rate() > 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterSim {
    engine: SimEngine,
    config: ClusterConfig,
}

/// Mutable per-replica state during a run.
struct Replica {
    session: EngineSession,
    assigned: usize,
    /// Arrival times of requests enqueued here, in enqueue (= admission)
    /// order; zipped with admission-ordered completions for queue waits.
    arrivals: Vec<f64>,
    /// KV occupancy sampled at each placement decision (always on: the
    /// samples land in [`ReplicaReport::occupancy`]).
    occupancy: ReplicaOccupancy,
}

/// Handles of the per-placement metrics, resolved once per run so a routed
/// request costs three atomic stores and one trace event — no `format!`,
/// no registry lock.
struct PlacementObs {
    routed: &'static Counter,
    /// `(kv_blocks_in_use, queued)` gauges by replica index, resolved on
    /// the first placement there (the autoscaler grows the fleet mid-run).
    gauges: Vec<(&'static Gauge, &'static Gauge)>,
}

impl PlacementObs {
    /// Emits the router-decision trace event and refreshes the chosen
    /// replica's occupancy gauges.
    fn record(
        &mut self,
        session: &EngineSession,
        choice: usize,
        request: &ClusterRequest,
        kv_blocks_in_use: usize,
        probed_cached_tokens: usize,
    ) {
        let r = llmqo_obs::registry();
        while self.gauges.len() <= choice {
            let i = self.gauges.len();
            self.gauges.push((
                r.gauge(&format!("cluster.replica{i}.kv_blocks_in_use")),
                r.gauge(&format!("cluster.replica{i}.queued")),
            ));
        }
        let (kv_gauge, queued_gauge) = self.gauges[choice];
        kv_gauge.set(kv_blocks_in_use as f64);
        queued_gauge.set(session.queued() as f64);
        self.routed.inc();
        llmqo_obs::tracer().instant(
            0,
            request.request.id as u64,
            "route",
            "router",
            session.clock(),
            &[
                ("replica", choice.into()),
                ("prefix_key", request.prefix_key.into()),
                ("kv_blocks_in_use", kv_blocks_in_use.into()),
                ("probed_cached_tokens", probed_cached_tokens.into()),
            ],
        );
    }
}

/// Per-run placement state shared by both dispatcher loops: the chain
/// hasher (consecutive placements are consecutive rows of the reordered
/// table, so the previous prompt is the right memo whichever replica it
/// went to) and, when observability is on, the metric handles.
pub(crate) struct Placer {
    hasher: ChainHasher,
    obs: Option<PlacementObs>,
}

impl Placer {
    pub(crate) fn new(engine: &SimEngine) -> Self {
        Placer {
            hasher: engine.chain_hasher(),
            obs: llmqo_obs::enabled().then(|| PlacementObs {
                routed: llmqo_obs::registry().counter("cluster.requests_routed"),
                gauges: Vec::new(),
            }),
        }
    }

    /// Hands `request` to replica `choice`'s session at instant `ready_s`,
    /// hashing its prompt once: the same chain feeds the cache probe and
    /// the session's admission queue.
    pub(crate) fn place(
        &mut self,
        session: &mut EngineSession,
        occupancy: &mut ReplicaOccupancy,
        choice: usize,
        request: &ClusterRequest,
        ready_s: f64,
    ) {
        // An idle replica has been frozen since it last worked; catch it
        // up to the moment the request reaches it.
        session.advance_to(ready_s);
        // Sample what the router could have known at this decision: KV
        // occupancy and the probed prefix hit on the chosen replica. Pure
        // reads, shared by both stepping modes, so macro-stepped and
        // single-stepped reports stay identical.
        let kv = session.kv_blocks_in_use();
        let chain = self.hasher.chain(&request.request.prompt);
        let probed = session.probe_cached_tokens(&chain);
        occupancy.samples += 1;
        occupancy.kv_blocks_sum += kv as u64;
        occupancy.kv_blocks_peak = occupancy.kv_blocks_peak.max(kv);
        occupancy.capacity_blocks = session.capacity_blocks();
        occupancy.probed_cached_tokens += probed as u64;
        if let Some(obs) = &mut self.obs {
            obs.record(session, choice, request, kv, probed);
        }
        session.enqueue_chain(request.request.id, request.request.output_len, chain);
    }

    /// Ends the run: publishes the hasher's reuse counters when
    /// observability is on.
    pub(crate) fn finish(self) {
        if self.obs.is_some() {
            llmqo_serve::obs::publish_chain_hasher(&self.hasher);
        }
    }
}

impl ClusterSim {
    /// Creates a cluster of identical replicas of `engine`.
    pub fn new(engine: SimEngine, config: ClusterConfig) -> Self {
        ClusterSim { engine, config }
    }

    /// The per-replica engine template.
    pub fn engine(&self) -> &SimEngine {
        &self.engine
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Serves `requests` (in arrival order) through `router` across the
    /// replica fleet and reports cluster metrics.
    ///
    /// While the admission queue is empty, replicas advance via
    /// [`EngineSession::step_until`](llmqo_serve::EngineSession::step_until)
    /// with the next pending arrival as the horizon, so steady-state decode
    /// runs are macro-stepped instead of simulated token by token; no
    /// routing can occur inside such a jump, so nothing any [`Router`]
    /// observes changes. While requests are blocked in admission
    /// (backpressure), the loop single-steps, because each event's router
    /// retry is observable — even in count, for stateful policies. Reports
    /// are therefore byte-identical to
    /// [`run_single_stepped`](ClusterSim::run_single_stepped), the
    /// step-by-step oracle the differential suite compares against, for
    /// every deterministic router.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidConfig`] for a zero-replica or zero-capacity
    /// cluster, [`ClusterError::InvalidArrival`] for non-finite arrival
    /// times, [`ClusterError::RouterOutOfRange`] for a misbehaving router,
    /// and [`ClusterError::Engine`] when a replica rejects a request
    /// outright (model or request too large).
    pub fn run(
        &self,
        router: &mut dyn Router,
        requests: &[ClusterRequest],
    ) -> Result<ClusterReport, ClusterError> {
        self.run_impl(router, requests, &AdmissionPolicy::default(), true)
    }

    /// [`run`](ClusterSim::run) behind a KV-aware [`AdmissionPolicy`]:
    /// arrivals are gated on queue depth, fleet KV occupancy, and per-tenant
    /// quotas, and under pressure the lowest-priority pending work is shed
    /// deterministically (see the policy docs for the exact rules). The
    /// result's [`shed`](ClusterReport::shed) ledger satisfies
    /// `completed + shed == offered` — no request is ever silently lost.
    ///
    /// An inert (default) policy produces byte-identical reports to
    /// [`run`](ClusterSim::run).
    ///
    /// # Errors
    ///
    /// As for [`run`](ClusterSim::run), plus
    /// [`ClusterError::InvalidOverloadPolicy`] for a malformed policy.
    pub fn run_admitted(
        &self,
        router: &mut dyn Router,
        requests: &[ClusterRequest],
        admission: &AdmissionPolicy,
    ) -> Result<ClusterReport, ClusterError> {
        self.run_impl(router, requests, admission, true)
    }

    /// [`run_admitted`](ClusterSim::run_admitted) driving every replica one
    /// scheduling step at a time — the fine-grained oracle for the overload
    /// differential suite.
    ///
    /// # Errors
    ///
    /// As for [`run_admitted`](ClusterSim::run_admitted).
    pub fn run_admitted_single_stepped(
        &self,
        router: &mut dyn Router,
        requests: &[ClusterRequest],
        admission: &AdmissionPolicy,
    ) -> Result<ClusterReport, ClusterError> {
        self.run_impl(router, requests, admission, false)
    }

    /// [`run`](ClusterSim::run) driving every replica one scheduling step at
    /// a time, with no macro-stepping. Exists as the fine-grained oracle for
    /// the differential tests; it produces byte-identical reports to
    /// [`run`](ClusterSim::run) and is much slower on decode-heavy jobs.
    ///
    /// # Errors
    ///
    /// As for [`run`](ClusterSim::run).
    pub fn run_single_stepped(
        &self,
        router: &mut dyn Router,
        requests: &[ClusterRequest],
    ) -> Result<ClusterReport, ClusterError> {
        self.run_impl(router, requests, &AdmissionPolicy::default(), false)
    }

    fn run_impl(
        &self,
        router: &mut dyn Router,
        requests: &[ClusterRequest],
        admission_policy: &AdmissionPolicy,
        macro_steps: bool,
    ) -> Result<ClusterReport, ClusterError> {
        if self.config.replicas == 0 {
            return Err(ClusterError::InvalidConfig {
                reason: "need at least one replica",
            });
        }
        if self.config.queue_cap == 0 {
            return Err(ClusterError::InvalidConfig {
                reason: "queue capacity must be at least one",
            });
        }
        for (index, r) in requests.iter().enumerate() {
            if !r.arrival_s.is_finite() || r.arrival_s < 0.0 {
                return Err(ClusterError::InvalidArrival { index });
            }
        }
        admission_policy.validate()?;
        let gated = !admission_policy.is_inert();
        let mut shed_stats = ShedStats::default();
        if gated {
            shed_stats.offered = requests.len();
        }

        let obs_on = llmqo_obs::enabled();
        let mut replicas: Vec<Replica> = (0..self.config.replicas)
            .map(|i| {
                let mut session = self.engine.session()?;
                // Lane 0 is the default (single-engine / SQL) lane; replica
                // i's spans go to lane i + 1.
                let lane = u32::try_from(i + 1).unwrap_or(u32::MAX);
                session.set_trace_lane(lane);
                if obs_on {
                    llmqo_obs::tracer().name_lane(lane, &format!("replica {i}"));
                }
                Ok(Replica {
                    session,
                    assigned: 0,
                    arrivals: Vec::new(),
                    occupancy: ReplicaOccupancy::default(),
                })
            })
            .collect::<Result<_, EngineError>>()?;
        let mut placer = Placer::new(&self.engine);
        // Per-run scratch, refilled per placement attempt / gated arrival.
        let mut snapshots: Vec<ReplicaSnapshot> = Vec::with_capacity(replicas.len());
        let mut sheddable: Vec<(usize, u32, u8)> = Vec::new();

        // Arrival order: by time, original order on ties (stable sort).
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by(|&a, &b| requests[a].arrival_s.total_cmp(&requests[b].arrival_s));
        let mut next_arrival = 0usize;
        // Requests that have arrived but not yet been placed on a replica.
        let mut admission: VecDeque<usize> = VecDeque::new();
        // The simulation's current instant: the time of the latest event
        // processed (arrival delivery or replica step). A request delayed in
        // the admission queue by backpressure can be dispatched no earlier
        // than `now`, whatever its arrival time.
        let mut now = 0.0f64;
        // Backpressured phases collapsed into `step_until` jumps (see below).
        let mut backpressure_macro_steps = 0u64;

        loop {
            // Place as many admission-queue requests as the routed-to
            // replicas can take. No simulated time passes while placing.
            while let Some(&j) = admission.front() {
                snapshots.clear();
                snapshots.extend(replicas.iter().enumerate().map(|(index, r)| {
                    ReplicaSnapshot::observe(index, &r.session, r.assigned, true)
                }));
                let choice = router.route(requests[j].prefix_key, &snapshots);
                if choice >= replicas.len() {
                    return Err(ClusterError::RouterOutOfRange {
                        chose: choice,
                        replicas: replicas.len(),
                    });
                }
                if replicas[choice].session.queued() >= self.config.queue_cap {
                    break; // Backpressure: head-of-line waits for an event.
                }
                admission.pop_front();
                let replica = &mut replicas[choice];
                // The request reaches the replica at its arrival, or later
                // if backpressure held it in admission.
                placer.place(
                    &mut replica.session,
                    &mut replica.occupancy,
                    choice,
                    &requests[j],
                    requests[j].arrival_s.max(now),
                );
                replica.assigned += 1;
                replica.arrivals.push(requests[j].arrival_s);
            }

            // Next event: the earliest busy replica step, or the next
            // arrival — whichever comes first on the shared timeline.
            let mut busy: Option<usize> = None;
            for (i, r) in replicas.iter().enumerate() {
                if !r.session.is_idle()
                    && busy.is_none_or(|b| r.session.clock() < replicas[b].session.clock())
                {
                    busy = Some(i);
                }
            }
            let arrival_due = next_arrival < order.len();
            let deliver_arrival = match (busy, arrival_due) {
                (_, false) => false,
                (None, true) => true,
                (Some(b), true) => {
                    requests[order[next_arrival]].arrival_s <= replicas[b].session.clock()
                }
            };

            if deliver_arrival {
                // Deliver every arrival due at (or before) this instant,
                // each through the admission gates (an inert policy admits
                // everything, preserving byte-identity with `run`).
                let t = requests[order[next_arrival]].arrival_s;
                while next_arrival < order.len() && requests[order[next_arrival]].arrival_s <= t {
                    let j = order[next_arrival];
                    next_arrival += 1;
                    if !gated {
                        admission.push_back(j);
                        continue;
                    }
                    let kv_util = if admission_policy.max_kv_utilization.is_some() {
                        let (in_use, capacity) =
                            replicas.iter().fold((0usize, 0usize), |acc, r| {
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
                            .map(|(pos, &p)| (pos, requests[p].tenant, requests[p].priority)),
                    );
                    match decide_admission(
                        admission_policy,
                        requests[j].tenant,
                        requests[j].priority,
                        admission.len(),
                        &sheddable,
                        kv_util,
                    ) {
                        ShedDecision::Admit => admission.push_back(j),
                        ShedDecision::ShedArrival(reason) => {
                            shed_stats.record(reason, requests[j].priority);
                            obs_shed(&requests[j], reason, t);
                        }
                        ShedDecision::EvictPending(pos, reason) => {
                            if let Some(victim) = admission.remove(pos) {
                                shed_stats.record(reason, requests[victim].priority);
                                obs_shed(&requests[victim], reason, t);
                            }
                            admission.push_back(j);
                        }
                    }
                }
                now = now.max(t);
            } else if let Some(b) = busy {
                let next_arrival_s =
                    (next_arrival < order.len()).then(|| requests[order[next_arrival]].arrival_s);
                if macro_steps && admission.is_empty() {
                    // With nothing waiting for placement, no routing (and no
                    // `now` observation) can occur before the next arrival,
                    // so the replica may jump to its next internal event,
                    // bounded by that arrival — the single-stepped loop
                    // would pass through the same per-replica states, and
                    // it, too, performs the step that crosses the arrival
                    // before delivering it.
                    replicas[b].session.step_until(next_arrival_s)?;
                } else if macro_steps && router.retry_insensitive() {
                    // Backpressured phase. Every event normally triggers a
                    // router retry, but a retry-insensitive router's
                    // consultations mutate nothing and read only snapshot
                    // fields that are frozen during a pure-decode run (the
                    // states `step_until` skips change nothing but the
                    // stepping replica's clock). The head-of-line request
                    // therefore stays blocked at every skipped instant, and
                    // the replica may jump straight to its next internal
                    // event — bounded by the next arrival and by every
                    // *other* busy replica's clock, so cross-replica event
                    // order (and thus which event unblocks placement) is
                    // preserved. On clock ties the jump would be empty; fall
                    // back to a single step to keep the tie-break order.
                    let other_busy = replicas
                        .iter()
                        .enumerate()
                        .filter(|&(i, r)| i != b && !r.session.is_idle())
                        .map(|(_, r)| r.session.clock())
                        .fold(f64::INFINITY, f64::min);
                    let mut horizon = other_busy;
                    if let Some(t) = next_arrival_s {
                        horizon = horizon.min(t);
                    }
                    if horizon > replicas[b].session.clock() {
                        backpressure_macro_steps += 1;
                        replicas[b]
                            .session
                            .step_until(horizon.is_finite().then_some(horizon))?;
                    } else {
                        replicas[b].session.step()?;
                    }
                } else {
                    // Conservative path for custom (possibly stateful)
                    // routers: single-step so every event's retry stays
                    // observable.
                    replicas[b].session.step()?;
                }
                now = now.max(replicas[b].session.clock());
            } else if admission.is_empty() {
                break; // No work anywhere: the job is done.
            } else {
                // All replicas idle yet something is stuck in admission:
                // impossible with queue_cap >= 1 (idle means empty queue).
                return Err(ClusterError::InvalidConfig {
                    reason: "dispatcher stalled (router refuses idle replicas?)",
                });
            }
        }

        placer.finish();

        // Collect per-replica reports and queue waits. Engine admission is
        // FIFO, so completions sorted by admission time pair with arrivals
        // in enqueue order.
        let mut queue_waits: Vec<f64> = Vec::new();
        let mut reports: Vec<ReplicaReport> = Vec::new();
        for replica in replicas {
            let idle_s = replica.session.idle_time_s();
            let outcome = replica.session.finish();
            let mut admissions: Vec<f64> =
                outcome.completions.iter().map(|c| c.admitted_s).collect();
            admissions.sort_by(f64::total_cmp);
            for (&arrival, &admitted) in replica.arrivals.iter().zip(&admissions) {
                queue_waits.push((admitted - arrival).max(0.0));
            }
            reports.push(ReplicaReport {
                engine: outcome.report,
                completions: outcome.completions,
                assigned: replica.assigned,
                idle_s,
                occupancy: replica.occupancy,
            });
        }
        let mut report = ClusterReport::assemble(router.name(), reports, queue_waits);
        report.shed = shed_stats;
        report.backpressure_macro_steps = backpressure_macro_steps;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ArrivalProcess;
    use crate::router::{LeastLoaded, PrefixAffinity, RoundRobin};
    use llmqo_serve::{Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, SimRequest};

    fn engine() -> SimEngine {
        SimEngine::new(
            Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
            EngineConfig::default(),
        )
    }

    /// `groups` prefix groups of `per_group` requests; each group shares a
    /// 64-token prefix and each request has a 16-token unique tail.
    fn grouped_requests(groups: usize, per_group: usize) -> Vec<ClusterRequest> {
        (0..groups * per_group)
            .map(|i| {
                let g = (i / per_group) as u32;
                let mut toks: Vec<u32> = (0..64).map(|j| g * 10_000 + j).collect();
                toks.extend((0..16).map(|j| 1_000_000 + i as u32 * 64 + j));
                ClusterRequest::new(SimRequest::from_tokens(i, toks, 2), u64::from(g))
            })
            .collect()
    }

    fn sim(replicas: usize) -> ClusterSim {
        ClusterSim::new(
            engine(),
            ClusterConfig {
                replicas,
                queue_cap: 16,
            },
        )
    }

    #[test]
    fn every_request_completes_exactly_once_under_every_policy() {
        let requests = grouped_requests(12, 10);
        for router in [
            &mut RoundRobin as &mut dyn Router,
            &mut LeastLoaded,
            &mut PrefixAffinity::default(),
        ] {
            let report = sim(4).run(router, &requests).unwrap();
            assert_eq!(report.completed, 120, "{}", router.name());
            let mut ids: Vec<usize> = report
                .replicas
                .iter()
                .flat_map(|r| r.completions.iter().map(|c| c.id))
                .collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..120).collect::<Vec<_>>(), "{}", router.name());
        }
    }

    #[test]
    fn affinity_beats_round_robin_on_hit_rate() {
        let requests = grouped_requests(40, 8);
        let rr = sim(4).run(&mut RoundRobin, &requests).unwrap();
        let pa = sim(4)
            .run(&mut PrefixAffinity::default(), &requests)
            .unwrap();
        assert!(
            pa.prefix_hit_rate() > rr.prefix_hit_rate(),
            "affinity {} <= round-robin {}",
            pa.prefix_hit_rate(),
            rr.prefix_hit_rate()
        );
    }

    #[test]
    fn single_replica_matches_plain_engine_run() {
        // With one replica and a non-binding queue cap, the cluster layer
        // must be a transparent pass-through over the engine's batch run.
        let requests = grouped_requests(5, 6);
        let wide_queue = ClusterSim::new(
            engine(),
            ClusterConfig {
                replicas: 1,
                queue_cap: requests.len(),
            },
        );
        let cluster = wide_queue.run(&mut RoundRobin, &requests).unwrap();
        let plain = engine()
            .run(
                &requests
                    .iter()
                    .map(|r| r.request.clone())
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        assert_eq!(cluster.replicas[0].engine, plain);
        assert_eq!(cluster.makespan_s, plain.job_completion_time_s);
    }

    #[test]
    fn macro_stepping_matches_single_stepping_across_policies() {
        // Mid-flight Poisson arrivals, several prefix groups, every built-in
        // policy: the macro-stepped run must reproduce the single-stepped
        // oracle bit for bit.
        let mut requests = grouped_requests(15, 8);
        ArrivalProcess::Poisson {
            rate_rps: 800.0,
            seed: 3,
        }
        .assign(&mut requests);
        for router_pair in [
            (
                &mut RoundRobin as &mut dyn Router,
                &mut RoundRobin as &mut dyn Router,
            ),
            (&mut LeastLoaded, &mut LeastLoaded),
            (
                &mut PrefixAffinity::default(),
                &mut PrefixAffinity::default(),
            ),
            (
                &mut PrefixAffinity::bounded(1.25),
                &mut PrefixAffinity::bounded(1.25),
            ),
        ] {
            let (fine_router, coarse_router) = router_pair;
            let fine = sim(3).run_single_stepped(fine_router, &requests).unwrap();
            let coarse = sim(3).run(coarse_router, &requests).unwrap();
            assert_eq!(fine, coarse, "{}", fine_router.name());
        }
    }

    #[test]
    fn macro_stepping_matches_single_stepping_under_backpressure() {
        let requests = grouped_requests(30, 4);
        let tight = |queue_cap| {
            ClusterSim::new(
                engine(),
                ClusterConfig {
                    replicas: 3,
                    queue_cap,
                },
            )
        };
        for cap in [1usize, 2, 8] {
            let fine = tight(cap)
                .run_single_stepped(&mut LeastLoaded, &requests)
                .unwrap();
            let coarse = tight(cap).run(&mut LeastLoaded, &requests).unwrap();
            assert_eq!(fine, coarse, "queue_cap {cap}");
        }
    }

    #[test]
    fn macro_stepping_matches_oracle_on_long_heterogeneous_backpressured_jobs() {
        // Regression shape for the horizon bug: long *heterogeneous* decode
        // runs make replicas' events interleave finely, Poisson arrivals +
        // queue_cap 1 keep the admission queue non-empty for most of the
        // job, and the stateful round-robin router makes even the *count*
        // of placement retries observable. A macro-step that overruns
        // another replica's pending event (or swallows router retries)
        // diverges here.
        let mut requests: Vec<ClusterRequest> = (0..24usize)
            .map(|i| {
                let toks: Vec<u32> = (0..96).map(|j| i as u32 * 4096 + j).collect();
                let output = 8 + (i as u32 * 83) % 200;
                ClusterRequest::new(SimRequest::from_tokens(i, toks, output), (i % 5) as u64)
            })
            .collect();
        ArrivalProcess::Poisson {
            rate_rps: 400.0,
            seed: 0,
        }
        .assign(&mut requests);
        for cap in [1usize, 2] {
            let tight = || {
                ClusterSim::new(
                    engine(),
                    ClusterConfig {
                        replicas: 2,
                        queue_cap: cap,
                    },
                )
            };
            let fine = tight()
                .run_single_stepped(&mut LeastLoaded, &requests)
                .unwrap();
            let coarse = tight().run(&mut LeastLoaded, &requests).unwrap();
            assert_eq!(fine, coarse, "least-loaded, queue_cap {cap}");
            let fine = tight()
                .run_single_stepped(&mut RoundRobin, &requests)
                .unwrap();
            let coarse = tight().run(&mut RoundRobin, &requests).unwrap();
            assert_eq!(fine, coarse, "round-robin (stateful), queue_cap {cap}");
        }
    }

    #[test]
    fn reports_are_deterministic() {
        let mut requests = grouped_requests(20, 6);
        ArrivalProcess::Poisson {
            rate_rps: 500.0,
            seed: 11,
        }
        .assign(&mut requests);
        let a = sim(4)
            .run(&mut PrefixAffinity::default(), &requests)
            .unwrap();
        let b = sim(4)
            .run(&mut PrefixAffinity::default(), &requests)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn backpressure_never_loses_requests() {
        let requests = grouped_requests(30, 4);
        let tight = ClusterSim::new(
            engine(),
            ClusterConfig {
                replicas: 3,
                queue_cap: 1,
            },
        );
        let report = tight.run(&mut LeastLoaded, &requests).unwrap();
        assert_eq!(report.completed, 120);
    }

    #[test]
    fn staggered_arrivals_record_queue_waits() {
        let mut requests = grouped_requests(10, 10);
        ArrivalProcess::Uniform { rate_rps: 2000.0 }.assign(&mut requests);
        let report = sim(2).run(&mut LeastLoaded, &requests).unwrap();
        assert_eq!(report.completed, 100);
        assert!(report.queue_wait_p50_s >= 0.0);
        assert!(report.queue_wait_p99_s >= report.queue_wait_p50_s);
        assert!(report.queue_wait_max_s >= report.queue_wait_p99_s);
        // Replicas that started late must carry idle time on the shared
        // timeline rather than compressing history.
        assert!(report.makespan_s >= requests.last().unwrap().arrival_s);
    }

    #[test]
    fn config_validation() {
        let requests = grouped_requests(1, 2);
        let no_replicas = ClusterSim::new(
            engine(),
            ClusterConfig {
                replicas: 0,
                queue_cap: 4,
            },
        );
        assert!(matches!(
            no_replicas.run(&mut LeastLoaded, &requests),
            Err(ClusterError::InvalidConfig { .. })
        ));
        let no_queue = ClusterSim::new(
            engine(),
            ClusterConfig {
                replicas: 2,
                queue_cap: 0,
            },
        );
        assert!(matches!(
            no_queue.run(&mut LeastLoaded, &requests),
            Err(ClusterError::InvalidConfig { .. })
        ));
        let mut bad = requests.clone();
        bad[1].arrival_s = f64::NAN;
        assert!(matches!(
            sim(2).run(&mut LeastLoaded, &bad),
            Err(ClusterError::InvalidArrival { index: 1 })
        ));
    }

    #[test]
    fn backpressure_delay_is_not_served_retroactively() {
        // Key = target replica. Six long-prompt requests for replica 0 with
        // queue_cap 1 block the admission queue's head; the final request
        // (for idle replica 1) arrives at t=0 but can only be *dispatched*
        // once replica 0 unblocks the head of the line — its admission time
        // must reflect that delay, not its arrival time.
        struct ByKey;
        impl Router for ByKey {
            fn name(&self) -> &'static str {
                "by-key"
            }
            fn route(&mut self, key: u64, _replicas: &[ReplicaSnapshot]) -> usize {
                key as usize
            }
        }
        let mut requests: Vec<ClusterRequest> = (0..6)
            .map(|i| {
                let toks: Vec<u32> = (0..2048).map(|j| i as u32 * 4096 + j).collect();
                ClusterRequest::new(SimRequest::from_tokens(i, toks, 2), 0)
            })
            .collect();
        requests.push(ClusterRequest::new(
            SimRequest::from_tokens(99, (0..64).map(|j| 900_000 + j).collect(), 2),
            1,
        ));
        let tight = ClusterSim::new(
            engine(),
            ClusterConfig {
                replicas: 2,
                queue_cap: 1,
            },
        );
        let report = tight.run(&mut ByKey, &requests).unwrap();
        assert_eq!(report.completed, 7);
        let late = report.replicas[1]
            .completions
            .iter()
            .find(|c| c.id == 99)
            .expect("request 99 served on replica 1");
        // One engine step on replica 0 costs at least a full weight read
        // (~50ms on an L4); request 99 cannot be admitted before that.
        assert!(
            late.admitted_s > 0.04,
            "blocked request served retroactively at {}s",
            late.admitted_s
        );
        assert!(report.queue_wait_max_s > 0.02);
    }

    #[test]
    fn rogue_router_is_rejected() {
        struct Rogue;
        impl Router for Rogue {
            fn name(&self) -> &'static str {
                "rogue"
            }
            fn route(&mut self, _k: u64, replicas: &[ReplicaSnapshot]) -> usize {
                replicas.len() + 7
            }
        }
        assert!(matches!(
            sim(2).run(&mut Rogue, &grouped_requests(1, 2)),
            Err(ClusterError::RouterOutOfRange { .. })
        ));
    }

    #[test]
    fn empty_job_reports_cleanly() {
        let report = sim(3).run(&mut PrefixAffinity::default(), &[]).unwrap();
        assert_eq!(report.completed, 0);
        assert_eq!(report.makespan_s, 0.0);
        assert_eq!(report.prefix_hit_rate(), 0.0);
    }
}
