//! The cluster event kernel: the one discrete-event loop behind every
//! [`ClusterSim`] entry point. Admission queue → router → N replica
//! [`EngineSession`]s on one shared timeline, with [`FaultPlan`],
//! [`RetryPolicy`] and [`OverloadPolicy`] as data on the loop rather than
//! forks of it: inert values leave the branches they guard untaken, a run in
//! which nothing can fail keeps no per-request state and allocates nothing
//! per placement, and single-stepping ([`ClusterSim::single_stepped`]) is a
//! flag on the same loop. Fixed inputs and a deterministic router give
//! bit-identical [`ClusterReport`]s.
//!
//! Loop invariants:
//!
//! * Every replica's local clock lives on the shared timeline (idle
//!   replicas are fast-forwarded via `advance_to` when work reaches them).
//! * **Timed events** — arrivals, scheduled faults, rejoins, retry
//!   due-times, hedge timers and autoscaler checks, all owned by one
//!   [`Timeline`] — fire once every *busy* replica's clock has reached
//!   their instant, so no routing decision sees a replica state from the
//!   past; ties fire in a fixed class order ([`Kernel::deliver`]). Plan
//!   events scheduled after all work has finished still fire (a late rejoin
//!   can extend the makespan).
//! * Each replica's waiting queue is bounded by `queue_cap`: when the
//!   router's chosen replica is full, the request blocks at the head of the
//!   global admission queue (backpressure) and the router is re-consulted
//!   after the next event.
//! * Busy replicas advance in macro-steps bounded by the next timed event
//!   wherever no router could tell, else one step per event
//!   ([`Kernel::step`]).
//!
//! What each fault does is documented on the data ([`FaultEvent`],
//! [`FaultPlan`], [`RetryPolicy`]). The kernel's side of it: a crashed or
//! drained replica's session *incarnation* is stashed, replaced by a cold
//! one, and merged into the replica's report at assembly; transient errors
//! are rolled when an attempt's completion is harvested; a failed attempt
//! is retried through the ordinary router with down replicas marked
//! not-[`alive`], which for [`PrefixAffinity`](crate::PrefixAffinity) lands
//! a group's retries on its *next*-ranked replica (prefix-affinity-aware
//! failover); a hedge's first completion wins and the loser counts as
//! wasted work. Queue-wait attribution pairs each incarnation's
//! enqueue-order arrivals with its admission-sorted completions — exact on
//! fault-free runs, a deterministic approximation when attempts die
//! mid-queue.
//!
//! [`alive`]: crate::ReplicaSnapshot::alive

use crate::fault::{FaultEvent, FaultPlan, FaultStats, RetryPolicy};
use crate::overload::{
    decide_admission, obs_scale, obs_shed, OverloadPolicy, ScalePolicy, ScaleStats, ShedDecision,
    ShedReason, ShedStats,
};
use crate::report::{ClusterReport, ReplicaOccupancy, ReplicaReport};
use crate::request::ClusterRequest;
use crate::router::{ReplicaSnapshot, Router};
use crate::sim::{ClusterError, ClusterSim};
use llmqo_obs::{Counter, Gauge};
use llmqo_serve::{ChainHasher, Completion, EngineError, EngineSession, SessionReport, SimEngine};
use std::collections::VecDeque;

/// How an admission-queue entry came to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttemptKind {
    First,
    Retry,
    /// A duplicate of a still-running request, placed on another replica.
    Hedge,
}

/// One entry in the admission queue: an attempt waiting for placement.
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

/// One attempt queued or running on a replica.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    replica: u32,
    /// Global placement number, the transient-error roll's second input.
    submission: u64,
    kind: AttemptKind,
}

/// Failure-handling state of one logical request (engaged runs only).
#[derive(Debug, Clone, Copy, Default)]
struct ReqState {
    /// Attempts placed on replicas so far.
    attempts: u32,
    /// Attempts currently queued or running: at most one primary (first
    /// attempt or retry — a retry needs every earlier attempt dead) and the
    /// request's single hedge.
    live: [Option<Attempt>; 2],
    done: bool,
    failed: bool,
    shed: bool,
    /// Replica of the most recent placement, for failover counting and
    /// hedge exclusion.
    last_replica: Option<u32>,
}

impl ReqState {
    /// Succeeded or failed for good; later completions are wasted work.
    fn settled(&self) -> bool {
        self.done || self.failed
    }

    fn in_flight(&self) -> bool {
        self.live.iter().any(Option::is_some)
    }

    /// Removes and returns the earliest-placed live attempt on `replica`
    /// (completions are attributed to attempts in placement order).
    fn take_oldest_on(&mut self, replica: usize) -> Option<Attempt> {
        self.live
            .iter_mut()
            .filter(|a| a.is_some_and(|a| a.replica as usize == replica))
            .min_by_key(|a| a.map(|a| a.submission))?
            .take()
    }
}

/// Mutable per-replica state during a run. A replica can live through
/// several session *incarnations* (crash/restart, drain/rejoin); finished
/// incarnations are stashed and merged at assembly.
struct Replica {
    session: EngineSession,
    /// Lifetime placements across all incarnations (what routers see).
    assigned: usize,
    /// Arrival times of the *current incarnation's* placements, enqueue
    /// order; zipped with admission-ordered completions for queue waits.
    arrivals: Vec<f64>,
    /// KV occupancy sampled at each placement decision.
    occupancy: ReplicaOccupancy,
    /// Completion-harvest watermark into `session.completions()`.
    harvested: usize,
    /// Accepts new placements.
    up: bool,
    /// Drain in progress (finishing existing work before leaving): the
    /// earliest rejoin instant once it completes — infinite for a
    /// scale-down drain, which leaves for good.
    draining: Option<f64>,
    /// Start of the current down window, if down.
    down_since: Option<f64>,
    /// Provisioned by the autoscaler and still warming up (joins at its
    /// scheduled rejoin without touching the fault ledger).
    scale_join: bool,
    /// Drained out of the fleet by the autoscaler for good; its final down
    /// window is not unavailability.
    departed: bool,
    /// Idle seconds accrued by the catch-up `advance_to` at rejoin —
    /// subtracted so reported idle time counts only in-service idleness.
    idle_correction: f64,
    /// Finished incarnations.
    stash: Vec<SessionReport>,
    stash_idle: f64,
    lane: u32,
}

impl Replica {
    /// A cold replica at fleet position `index`: routable from the start, or
    /// (`joined == false`) warming up until its scheduled rejoin.
    fn cold(engine: &SimEngine, index: usize, joined: bool) -> Result<Self, EngineError> {
        let mut session = engine.session()?;
        // Lane 0 is the default (single-engine / SQL) lane; replica i's
        // spans go to lane i + 1.
        let lane = u32::try_from(index + 1).unwrap_or(u32::MAX);
        session.set_trace_lane(lane);
        if llmqo_obs::enabled() {
            llmqo_obs::tracer().name_lane(lane, &format!("replica {index}"));
        }
        Ok(Replica {
            session,
            assigned: 0,
            arrivals: Vec::new(),
            occupancy: ReplicaOccupancy::default(),
            harvested: 0,
            up: joined,
            draining: None,
            down_since: None,
            scale_join: !joined,
            departed: false,
            idle_correction: 0.0,
            stash: Vec::new(),
            stash_idle: 0.0,
            lane,
        })
    }
}

/// A min-queue of `(instant, key)` pairs ordered by instant, then key.
#[derive(Default)]
struct DueQueue(VecDeque<(f64, usize)>);

impl DueQueue {
    fn push(&mut self, at: f64, key: usize) {
        let earlier = |&(a, k): &(f64, usize)| a.total_cmp(&at).then(k.cmp(&key)).is_lt();
        self.0.insert(self.0.partition_point(earlier), (at, key));
    }

    fn next_at(&self) -> Option<f64> {
        self.0.front().map(|&(at, _)| at)
    }

    fn pop_due(&mut self, t: f64) -> Option<(f64, usize)> {
        if self.next_at()? <= t {
            self.0.pop_front()
        } else {
            None
        }
    }
}

/// Every timed event source of a run: answers when the next event is due
/// and hands out, class by class, what is due at a delivery instant
/// ([`Kernel::deliver`] fixes the order among classes).
struct Timeline {
    /// Request indices by arrival time (original order on ties), and the
    /// delivery cursor into them.
    order: Vec<usize>,
    next_arrival: usize,
    /// Crashes and drains `(instant, plan position)`. Slowdowns are time
    /// *windows*, queried per step, not events.
    faults: DueQueue,
    /// Scheduled cold joins `(instant, replica)`.
    rejoins: DueQueue,
    /// Scheduled retries `(due, request)`.
    retries: DueQueue,
    /// Armed hedge timers `(fire, request)`.
    hedges: DueQueue,
    /// The autoscaler's `(next check instant, cadence)`.
    scale_check: Option<(f64, f64)>,
}

impl Timeline {
    fn new(requests: &[ClusterRequest], plan: &FaultPlan, scale: Option<&ScalePolicy>) -> Self {
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by(|&a, &b| requests[a].arrival_s.total_cmp(&requests[b].arrival_s));
        let mut faults = DueQueue::default();
        for (i, e) in plan.events.iter().enumerate() {
            if !matches!(e, FaultEvent::Slowdown { .. }) {
                faults.push(e.at_s(), i);
            }
        }
        Timeline {
            order,
            next_arrival: 0,
            faults,
            rejoins: DueQueue::default(),
            retries: DueQueue::default(),
            hedges: DueQueue::default(),
            scale_check: scale.map(|p| (p.check_interval_s, p.check_interval_s)),
        }
    }

    /// The earliest pending event instant. `settled(j)` says request `j` no
    /// longer needs its hedge: such timers are dropped here, so a dead one
    /// can neither bound a macro-step nor keep the loop alive. The scale
    /// check counts only while the job has work left (`busy_or_queued`, or
    /// demand pending here), so an idle tail terminates.
    fn next_due(
        &mut self,
        requests: &[ClusterRequest],
        busy_or_queued: bool,
        settled: impl Fn(usize) -> bool,
    ) -> Option<f64> {
        while self.hedges.0.front().is_some_and(|&(_, j)| settled(j)) {
            self.hedges.0.pop_front();
        }
        let arrival = self.order.get(self.next_arrival);
        let arrival = arrival.map(|&j| requests[j].arrival_s);
        let work_pending = busy_or_queued
            || arrival.is_some()
            || !(self.retries.0.is_empty() && self.hedges.0.is_empty());
        let check = self.scale_check.filter(|_| work_pending).map(|(at, _)| at);
        let queued = [&self.faults, &self.rejoins, &self.retries, &self.hedges];
        let queued = queued.into_iter().map(DueQueue::next_at);
        let due = queued.chain([arrival, check]).flatten();
        due.min_by(f64::total_cmp)
    }

    /// The next request arriving at or before `t`.
    fn pop_arrival(&mut self, t: f64, requests: &[ClusterRequest]) -> Option<usize> {
        let &j = self.order.get(self.next_arrival)?;
        (requests[j].arrival_s <= t).then(|| {
            self.next_arrival += 1;
            j
        })
    }

    /// Whether an autoscaler check is due at `t`; if so, schedules the next
    /// one past `t`.
    fn pop_scale_check(&mut self, t: f64) -> bool {
        match &mut self.scale_check {
            Some((next, every)) if *next <= t => {
                while *next <= t {
                    *next += *every;
                }
                true
            }
            _ => false,
        }
    }
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

/// One trace instant on the dispatcher lane for a replica lifecycle event.
fn trace_fault(name: &str, replica: usize, t: f64) {
    if llmqo_obs::enabled() {
        let args = [("replica", replica.into())];
        llmqo_obs::tracer().instant(0, replica as u64, name, "fault", t, &args);
    }
}

/// Appends one incarnation's queue waits. Engine admission is FIFO, so
/// completions sorted by admission time pair with arrivals in enqueue order.
fn pair_queue_waits(arrivals: &[f64], completions: &[Completion], out: &mut Vec<f64>) {
    let mut admissions: Vec<f64> = completions.iter().map(|c| c.admitted_s).collect();
    admissions.sort_by(f64::total_cmp);
    for (&arrival, &admitted) in arrivals.iter().zip(&admissions) {
        out.push((admitted - arrival).max(0.0));
    }
}

/// All state of one run.
struct Kernel<'a> {
    sim: &'a ClusterSim,
    requests: &'a [ClusterRequest],
    plan: &'a FaultPlan,
    retry: &'a RetryPolicy,
    overload: &'a OverloadPolicy,
    /// Something can fail (`plan` non-empty or `retry` enabled): attempts
    /// are attributed, harvested and retried. When false the run keeps no
    /// per-request state — `states` and `by_id` stay empty.
    engaged: bool,
    macro_steps: bool,
    replicas: Vec<Replica>,
    timeline: Timeline,
    /// Hashes each placed prompt's block chain once. Consecutive placements
    /// are consecutive rows of the reordered table, so the previous prompt
    /// is the right memo whichever replica it went to.
    hasher: ChainHasher,
    /// The per-placement metric handles, when observability is on.
    placement_obs: Option<PlacementObs>,
    /// Attempts that have arrived but not yet been placed on a replica.
    admission: VecDeque<AdmEntry>,
    states: Vec<ReqState>,
    /// Request indices sorted by engine request id, for attributing
    /// completions by binary search; building it is the id-uniqueness check.
    by_id: Vec<u32>,
    stats: FaultStats,
    shed: ShedStats,
    scale: ScaleStats,
    /// Instant of the autoscaler's last action (cooldown hysteresis).
    last_scale_action: f64,
    queue_waits: Vec<f64>,
    /// The time of the latest event processed. A request delayed in
    /// admission by backpressure can be dispatched no earlier than `now`,
    /// whatever its arrival time.
    now: f64,
    /// Global placement counter feeding per-attempt transient rolls.
    submissions: u64,
    /// Macro events taken while admission was backpressured; scheduling
    /// bookkeeping, not behavior.
    backpressure_macro_steps: u64,
    /// Per-run scratch, refilled per placement attempt / gated arrival.
    snapshots: Vec<ReplicaSnapshot>,
    sheddable: Vec<(usize, u32, u8)>,
}

/// Runs `requests` through `router` under the given fault plan, retry
/// policy and overload policy — the body of every `ClusterSim::run*`.
pub(crate) fn run(
    sim: &ClusterSim,
    router: &mut dyn Router,
    requests: &[ClusterRequest],
    plan: &FaultPlan,
    retry: &RetryPolicy,
    overload: &OverloadPolicy,
) -> Result<ClusterReport, ClusterError> {
    let mut k = Kernel::new(sim, requests, plan, retry, overload)?;
    loop {
        // No simulated time passes while placing.
        k.place_pending(router)?;
        // Next event: the earliest busy replica's step, or a timed event —
        // whichever comes first on the shared timeline.
        let busy = k.earliest_busy();
        let (states, occupied) = (&k.states, busy.is_some() || !k.admission.is_empty());
        let settled = |j: usize| states[j].settled();
        let timed = k.timeline.next_due(requests, occupied, settled);
        let before = k.now;
        match (busy, timed) {
            (Some(b), Some(t)) if t <= k.replicas[b].session.clock() => k.deliver(t)?,
            (None, Some(t)) => k.deliver(t)?,
            (Some(b), _) => k.step(b, router, timed)?,
            (None, None) if k.admission.is_empty() => break,
            (None, None) if k.replicas.iter().any(|r| r.up) => {
                // All replicas idle yet something is stuck in admission:
                // impossible with queue_cap >= 1 (idle means empty queue).
                return Err(ClusterError::InvalidConfig {
                    reason: "dispatcher stalled (router refuses idle replicas?)",
                });
            }
            (None, None) => k.fail_stranded(),
        }
        debug_assert!(k.now.is_finite() && k.now >= before, "clock ran backwards");
    }
    Ok(k.finish(router.name()))
}

impl<'a> Kernel<'a> {
    fn new(
        sim: &'a ClusterSim,
        requests: &'a [ClusterRequest],
        plan: &'a FaultPlan,
        retry: &'a RetryPolicy,
        overload: &'a OverloadPolicy,
    ) -> Result<Self, ClusterError> {
        let config = *sim.config();
        let bad_config = |reason| Err(ClusterError::InvalidConfig { reason });
        if config.replicas == 0 {
            return bad_config("need at least one replica");
        }
        if config.queue_cap == 0 {
            return bad_config("queue capacity must be at least one");
        }
        for (index, r) in requests.iter().enumerate() {
            if !r.arrival_s.is_finite() || r.arrival_s < 0.0 {
                return Err(ClusterError::InvalidArrival { index });
            }
        }
        plan.validate(config.replicas)?;
        retry.validate()?;
        overload.validate(config.replicas)?;
        let engaged = !plan.is_empty() || !retry.is_disabled();
        let id_of = |j: &u32| requests[*j as usize].request.id;
        let mut by_id: Vec<u32> = Vec::new();
        if engaged {
            by_id.extend(0..requests.len() as u32);
            by_id.sort_unstable_by_key(id_of);
            if let Some(pair) = by_id.windows(2).find(|w| id_of(&w[0]) == id_of(&w[1])) {
                return Err(ClusterError::DuplicateRequestId {
                    id: id_of(&pair[0]),
                });
            }
        }
        let offered = requests.len();
        let gated = !overload.admission.is_inert();
        let fleet = overload.scale.map_or(0, |_| config.replicas);
        let replicas = (0..config.replicas)
            .map(|i| Replica::cold(sim.engine(), i, true))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Kernel {
            sim,
            requests,
            plan,
            retry,
            overload,
            engaged,
            // Every timed event is known (or fixed at placement) before a
            // step runs, so it can bound a macro window — except a
            // *transient-error retry*: its due instant is discovered only
            // when the failed completion is harvested, after the window has
            // run past it, where single-stepping would have re-admitted the
            // attempt earlier. Whenever that feedback is possible, only
            // fine-grained stepping is sound.
            macro_steps: !(sim.single_step
                || plan.transient_error_ppm > 0 && retry.max_attempts > 1),
            snapshots: Vec::with_capacity(replicas.len()),
            replicas,
            timeline: Timeline::new(requests, plan, overload.scale.as_ref()),
            hasher: sim.engine().chain_hasher(),
            placement_obs: llmqo_obs::enabled().then(|| PlacementObs {
                routed: llmqo_obs::registry().counter("cluster.requests_routed"),
                gauges: Vec::new(),
            }),
            admission: VecDeque::new(),
            states: vec![ReqState::default(); if engaged { offered } else { 0 }],
            by_id,
            stats: FaultStats {
                offered,
                ..FaultStats::default()
            },
            shed: ShedStats {
                offered: if gated { offered } else { 0 },
                ..ShedStats::default()
            },
            scale: ScaleStats {
                peak_replicas: fleet,
                low_replicas: fleet,
                ..ScaleStats::default()
            },
            last_scale_action: f64::NEG_INFINITY,
            queue_waits: Vec::new(),
            now: 0.0,
            submissions: 0,
            backpressure_macro_steps: 0,
            sheddable: Vec::new(),
        })
    }

    fn routable(&self) -> usize {
        self.replicas.iter().filter(|r| r.up).count()
    }

    /// KV blocks in use over capacity, across the routable fleet.
    fn fleet_kv_utilization(&self) -> f64 {
        let sessions = || self.replicas.iter().filter(|r| r.up).map(|r| &r.session);
        let in_use: usize = sessions().map(EngineSession::kv_blocks_in_use).sum();
        let capacity: usize = sessions().map(EngineSession::capacity_blocks).sum();
        if capacity == 0 {
            0.0
        } else {
            in_use as f64 / capacity as f64
        }
    }

    /// The busy replica with the smallest clock (lowest index on ties).
    fn earliest_busy(&self) -> Option<usize> {
        let busy = (0..self.replicas.len()).filter(|&i| !self.replicas[i].session.is_idle());
        let clock = |i: &usize| self.replicas[*i].session.clock();
        busy.min_by(|a, b| clock(a).total_cmp(&clock(b)))
    }

    /// Places as many admission-queue attempts as the routed-to replicas
    /// can take.
    fn place_pending(&mut self, router: &mut dyn Router) -> Result<(), ClusterError> {
        while let Some(&entry) = self.admission.front() {
            let request = &self.requests[entry.j];
            if self.engaged && self.states[entry.j].settled() {
                self.admission.pop_front(); // Stale retry/hedge entry.
                continue;
            }
            self.snapshots.clear();
            self.snapshots
                .extend(self.replicas.iter().enumerate().map(|(index, r)| {
                    let alive = r.up && entry.exclude != Some(index);
                    ReplicaSnapshot::observe(index, &r.session, r.assigned, alive)
                }));
            let choice = router.route(request.prefix_key, &self.snapshots);
            let Some(replica) = self.replicas.get_mut(choice) else {
                return Err(ClusterError::RouterOutOfRange {
                    chose: choice,
                    replicas: self.replicas.len(),
                });
            };
            if entry.exclude == Some(choice) {
                // A hedge with nowhere else to go is abandoned; its primary
                // is still in flight.
                self.admission.pop_front();
                continue;
            }
            // Nowhere routable (wait for a rejoin, or fail), or backpressure:
            // the head of the line waits for an event.
            if !replica.up || replica.session.queued() >= self.sim.config().queue_cap {
                break;
            }
            self.admission.pop_front();
            // The attempt reaches the replica when it entered admission, or
            // later if backpressure held it there; an idle replica has been
            // frozen since it last worked and is caught up to that moment.
            let ready_s = entry.arrival_s.max(self.now);
            let (session, occupancy) = (&mut replica.session, &mut replica.occupancy);
            session.advance_to(ready_s);
            // Sample what the router could have known at this decision: KV
            // occupancy and the probed prefix hit on the chosen replica. The
            // prompt is hashed once: the same chain feeds the probe and the
            // session's admission queue.
            let kv = session.kv_blocks_in_use();
            let chain = self.hasher.chain(&request.request.prompt);
            let probed = session.probe_cached_tokens(chain);
            occupancy.samples += 1;
            occupancy.kv_blocks_sum += kv as u64;
            occupancy.kv_blocks_peak = occupancy.kv_blocks_peak.max(kv);
            occupancy.capacity_blocks = session.capacity_blocks();
            occupancy.probed_cached_tokens += probed as u64;
            if let Some(obs) = &mut self.placement_obs {
                obs.record(session, choice, request, kv, probed);
            }
            session.enqueue_chain(request.request.id, request.request.output_len, chain);
            replica.assigned += 1;
            replica.arrivals.push(entry.arrival_s);
            if self.engaged {
                self.attempt_placed(entry, choice, ready_s);
            }
        }
        Ok(())
    }

    /// Registers a placed attempt with the retry/hedge machinery.
    fn attempt_placed(&mut self, entry: AdmEntry, replica: usize, ready_s: f64) {
        let s = &mut self.states[entry.j];
        let slot = usize::from(s.live[0].is_some());
        assert!(
            s.live[slot].is_none(),
            "more than a primary and a hedge attempt outstanding"
        );
        let replica = replica as u32;
        s.live[slot] = Some(Attempt {
            replica,
            submission: self.submissions,
            kind: entry.kind,
        });
        self.submissions += 1;
        s.attempts += 1;
        let moved = s.last_replica.is_some_and(|p| p != replica);
        s.last_replica = Some(replica);
        if entry.kind != AttemptKind::First {
            self.stats.failovers += u64::from(moved);
            self.stats.hedges_issued += u64::from(entry.kind == AttemptKind::Hedge);
        } else if let Some(h) = self.retry.hedge_after_s {
            // A request's first attempt is placed once: arm its one hedge.
            self.timeline.hedges.push(ready_s + h, entry.j);
        }
    }

    /// Delivers every timed event due at instant `t`. Ties fire in a fixed
    /// class order: rejoins (capacity returns before new demand), faults,
    /// arrivals, retries, hedges, then the scale check (which reads the
    /// queue as the others left it). Each class is drained once, so an event
    /// born for this very instant in a class already passed — the restart a
    /// crash schedules for its own instant — waits for the next delivery,
    /// after a placement pass.
    fn deliver(&mut self, t: f64) -> Result<(), ClusterError> {
        while let Some((at, replica)) = self.timeline.rejoins.pop_due(t) {
            self.rejoin(replica, at);
        }
        while let Some((at, event)) = self.timeline.faults.pop_due(t) {
            self.inject(event, at)?;
        }
        while let Some(j) = self.timeline.pop_arrival(t, self.requests) {
            self.arrive(j, t);
        }
        while let Some((due, j)) = self.timeline.retries.pop_due(t) {
            self.admission.push_back(AdmEntry {
                j,
                kind: AttemptKind::Retry,
                arrival_s: due,
                exclude: None,
            });
        }
        while let Some((_, j)) = self.timeline.hedges.pop_due(t) {
            self.hedge(j, t);
        }
        if self.timeline.pop_scale_check(t) {
            self.scale_check(t)?;
        }
        self.now = self.now.max(t);
        Ok(())
    }

    fn rejoin(&mut self, i: usize, t: f64) {
        let rep = &mut self.replicas[i];
        let since = rep.down_since.take();
        if since.is_none() && !rep.scale_join {
            return; // Already up (duplicate rejoin).
        }
        rep.session.advance_to(t);
        rep.idle_correction = rep.session.idle_time_s();
        rep.up = true;
        if std::mem::take(&mut rep.scale_join) {
            // A scaled-up replica finishing its warmup was never
            // *un*available: only the scaling ledger sees the event.
            obs_scale("joined", i, self.routable(), t);
        } else if let Some(since) = since {
            self.stats.restarts += 1;
            self.stats.unavailability_windows += 1;
            self.stats.unavailable_s += (t - since).max(0.0);
            trace_fault("fault.rejoin", i, t);
        }
    }

    /// Fires the crash or drain at `plan.events[event]`.
    fn inject(&mut self, event: usize, t: f64) -> Result<(), ClusterError> {
        match self.plan.events[event] {
            FaultEvent::Crash {
                replica, restart_s, ..
            } => {
                if let Some(restart) = restart_s {
                    self.timeline.rejoins.push(restart.max(t), replica);
                }
                self.crash(replica, t)
            }
            FaultEvent::Drain {
                replica, rejoin_s, ..
            } => {
                let rep = &self.replicas[replica];
                if rep.down_since.is_some() || rep.draining.is_some() {
                    return Ok(()); // Already leaving or gone.
                }
                self.stats.drains += 1;
                self.start_drain(replica, rejoin_s, t)
            }
            FaultEvent::Slowdown { .. } => Ok(()),
        }
    }

    /// Crashes replica `i` at `t`: the incarnation is stashed and every
    /// attempt on it fails. The caller schedules the cold restart, if any.
    fn crash(&mut self, i: usize, t: f64) -> Result<(), ClusterError> {
        if self.replicas[i].down_since.is_some() {
            return Ok(()); // Already down; only the caller's restart matters.
        }
        self.stash_incarnation(i)?;
        let rep = &mut self.replicas[i];
        rep.up = false;
        rep.draining = None;
        rep.down_since = Some(t);
        self.stats.crashes += 1;
        trace_fault("fault.crash", i, t);
        // Crashes are rare: scanning every request here is cheaper than
        // keeping a per-replica index current on every placement.
        for j in 0..self.states.len() {
            while self.states[j].take_oldest_on(i).is_some() {
                self.stats.crash_failures += 1;
                self.attempt_failed(j, t);
            }
        }
        Ok(())
    }

    /// Stops routing to replica `i`; once idle it leaves and a cold
    /// replacement joins no earlier than `rejoin_s` (never, if infinite).
    fn start_drain(&mut self, i: usize, rejoin_s: f64, t: f64) -> Result<(), ClusterError> {
        let rep = &mut self.replicas[i];
        rep.up = false;
        rep.draining = Some(rejoin_s);
        if rep.session.is_idle() {
            self.complete_drain(i, t)?;
        }
        Ok(())
    }

    /// Replica `i` went idle at `t`: if it was draining, stash the
    /// incarnation and schedule the cold rejoin.
    fn complete_drain(&mut self, i: usize, t: f64) -> Result<(), ClusterError> {
        let Some(rejoin_s) = self.replicas[i].draining.take() else {
            return Ok(());
        };
        self.stash_incarnation(i)?;
        self.replicas[i].down_since = Some(t);
        if rejoin_s.is_finite() {
            self.timeline.rejoins.push(rejoin_s.max(t), i);
        }
        Ok(())
    }

    /// Swaps replica `i`'s session for a cold one, stashing the finished
    /// incarnation's report, completions, idle time, and queue waits.
    fn stash_incarnation(&mut self, i: usize) -> Result<(), ClusterError> {
        let rep = &mut self.replicas[i];
        let mut fresh = self.sim.engine().session()?;
        fresh.set_trace_lane(rep.lane);
        let old = std::mem::replace(&mut rep.session, fresh);
        rep.stash_idle += old.idle_time_s() - rep.idle_correction;
        rep.idle_correction = 0.0;
        let outcome = old.finish();
        pair_queue_waits(&rep.arrivals, &outcome.completions, &mut self.queue_waits);
        rep.stash.push(outcome);
        rep.arrivals.clear();
        rep.harvested = 0;
        Ok(())
    }

    /// Request `j` arrives at `t`: through the admission gates, if any.
    fn arrive(&mut self, j: usize, t: f64) {
        let (request, policy) = (&self.requests[j], &self.overload.admission);
        let entry = AdmEntry {
            j,
            kind: AttemptKind::First,
            arrival_s: request.arrival_s,
            exclude: None,
        };
        if policy.is_inert() {
            return self.admission.push_back(entry);
        }
        let kv_gate = policy.max_kv_utilization;
        let kv_util = kv_gate.map_or(0.0, |_| self.fleet_kv_utilization());
        // Only first attempts are sheddable, and only they count against
        // the depth gate: retries and hedges are work the cluster already
        // admitted (and owes the fault ledger an outcome for), so recovery
        // traffic neither fills the admission budget nor blocks a
        // high-priority arrival from finding a sheddable victim.
        let pending = self.admission.iter().enumerate();
        let first_attempts = pending.filter(|(_, e)| e.kind == AttemptKind::First);
        self.sheddable.clear();
        self.sheddable.extend(first_attempts.map(|(pos, e)| {
            let r = &self.requests[e.j];
            (pos, r.tenant, r.priority)
        }));
        match decide_admission(
            policy,
            request.tenant,
            request.priority,
            self.sheddable.len(),
            &self.sheddable,
            kv_util,
        ) {
            ShedDecision::Admit => {}
            ShedDecision::ShedArrival(reason) => return self.shed_request(j, reason, t),
            ShedDecision::EvictPending(pos, reason) => {
                if let Some(victim) = self.admission.remove(pos) {
                    self.shed_request(victim.j, reason, t);
                }
            }
        }
        self.admission.push_back(entry);
    }

    fn shed_request(&mut self, j: usize, reason: ShedReason, t: f64) {
        self.shed.record(reason, self.requests[j].priority);
        obs_shed(&self.requests[j], reason, t);
        if self.engaged {
            self.states[j].shed = true;
        }
    }

    /// Request `j`'s hedge timer fired at `t`: hedge only a request that is
    /// still in flight, has budget left, and has somewhere else to run.
    fn hedge(&mut self, j: usize, t: f64) {
        let s = &self.states[j];
        let hedgeable = !s.settled() && s.in_flight() && s.attempts < self.retry.max_attempts;
        if hedgeable && self.routable() >= 2 {
            self.admission.push_back(AdmEntry {
                j,
                kind: AttemptKind::Hedge,
                arrival_s: t,
                exclude: s.last_replica.map(|r| r as usize),
            });
        }
    }

    /// One evaluation of the autoscaler's control loop at `t`.
    fn scale_check(&mut self, t: f64) -> Result<(), ClusterError> {
        let Some(policy) = self.overload.scale else {
            return Ok(());
        };
        self.scale.checks += 1;
        let routable = self.routable();
        // Routable plus scheduled joins: the fleet `max_replicas` bounds.
        let fleet = routable + self.timeline.rejoins.0.len();
        self.scale.peak_replicas = self.scale.peak_replicas.max(fleet);
        self.scale.low_replicas = self.scale.low_replicas.min(routable);
        if t - self.last_scale_action < policy.cooldown_s {
            return Ok(());
        }
        let arrivals = self.admission.iter().map(|e| e.arrival_s);
        let oldest_pending = arrivals.fold(f64::INFINITY, f64::min);
        if t - oldest_pending >= policy.queue_wait_up_s && fleet < policy.max_replicas {
            // Scale up: provision a cold replica that joins (empty prefix
            // cache, rendezvous remap) after its jittered warmup.
            let index = self.replicas.len();
            let cold = Replica::cold(self.sim.engine(), index, false)?;
            self.replicas.push(cold);
            let warmup = policy.warmup_for(self.scale.scale_ups);
            self.timeline.rejoins.push(t + warmup, index);
            self.scale.scale_ups += 1;
            self.scale.peak_replicas = self.scale.peak_replicas.max(fleet + 1);
            self.last_scale_action = t;
            obs_scale("up", index, fleet + 1, t);
        } else if self.admission.is_empty()
            && routable > policy.min_replicas
            && self.fleet_kv_utilization() < policy.kv_low_watermark
        {
            // Scale down: gracefully drain the least loaded routable
            // replica (highest index on ties), for good.
            let load = |i: &usize| {
                let session = &self.replicas[*i].session;
                session.queued() + session.running()
            };
            let routable_desc = (0..self.replicas.len())
                .rev()
                .filter(|&i| self.replicas[i].up);
            if let Some(i) = routable_desc.min_by_key(load) {
                self.replicas[i].departed = true;
                self.scale.scale_downs += 1;
                self.scale.low_replicas = self.scale.low_replicas.min(routable - 1);
                self.last_scale_action = t;
                obs_scale("down", i, routable - 1, t);
                self.start_drain(i, f64::INFINITY, t)?;
            }
        }
        Ok(())
    }

    /// Advances busy replica `b` by one event; `timed` is the next timed
    /// event instant.
    ///
    /// With the admission queue empty no routing can occur before `timed`,
    /// so the replica may jump ([`EngineSession::step_until`]) to its next
    /// internal event bounded by it: single-stepping passes through the
    /// same per-replica states and also takes the step that crosses a timed
    /// event before delivering it. Backpressured phases jump too when the
    /// router is [`Router::retry_insensitive`]: its consultations mutate
    /// nothing and read only snapshot fields frozen during a pure-decode
    /// run, so the blocked head of the line would fail placement
    /// identically at every skipped instant. That jump is also bounded by
    /// every *other* busy replica's clock, which preserves cross-replica
    /// event order (and thus which event unblocks placement); on a clock
    /// tie it would be empty, and a single step keeps the tie-break order.
    /// Other routers are single-stepped so every retry stays observable.
    /// Every jump stops at the replica's next slowdown boundary, so each
    /// step starts with the factor single-stepping would apply there.
    fn step(
        &mut self,
        b: usize,
        router: &dyn Router,
        timed: Option<f64>,
    ) -> Result<(), ClusterError> {
        let clock = self.replicas[b].session.clock();
        let bounds = [timed, self.plan.next_slowdown_boundary(b, clock)];
        let mut horizon = bounds.into_iter().flatten().fold(f64::INFINITY, f64::min);
        let mut jump = self.macro_steps && self.admission.is_empty();
        if self.macro_steps && !jump && router.retry_insensitive() {
            let others = self.replicas.iter().enumerate();
            horizon = others
                .filter(|&(i, r)| i != b && !r.session.is_idle())
                .map(|(_, r)| r.session.clock())
                .fold(horizon, f64::min);
            jump = horizon > clock;
            self.backpressure_macro_steps += u64::from(jump);
        }
        let session = &mut self.replicas[b].session;
        session.set_slowdown(self.plan.slowdown_at(b, clock));
        if jump {
            session.step_until(horizon.is_finite().then_some(horizon))?;
        } else {
            session.step()?;
        }
        let clock = session.clock();
        self.now = self.now.max(clock);
        if self.engaged {
            self.harvest(b);
        }
        if self.replicas[b].session.is_idle() {
            self.complete_drain(b, clock)?;
        }
        Ok(())
    }

    /// Routes every completion replica `b` produced since the last call
    /// through success/transient-failure accounting.
    fn harvest(&mut self, b: usize) {
        loop {
            let rep = &mut self.replicas[b];
            let Some(&c) = rep.session.completions().get(rep.harvested) else {
                break;
            };
            rep.harvested += 1;
            let id_of = |j: &u32| self.requests[*j as usize].request.id;
            let Ok(found) = self.by_id.binary_search_by_key(&c.id, id_of) else {
                continue;
            };
            let j = self.by_id[found] as usize;
            let Some(attempt) = self.states[j].take_oldest_on(b) else {
                continue;
            };
            if self.plan.transient_fails(c.id as u64, attempt.submission) {
                self.stats.transient_errors += 1;
                self.attempt_failed(j, c.finished_s);
            } else if self.states[j].settled() {
                // A duplicate finishing after the race was decided.
                self.stats.wasted_completions += 1;
            } else {
                self.states[j].done = true;
                self.stats.succeeded += 1;
                self.stats.hedges_won += u64::from(attempt.kind == AttemptKind::Hedge);
                let late = |d| c.finished_s - self.requests[j].arrival_s > d;
                if self.retry.deadline_s.is_some_and(late) {
                    self.stats.late_successes += 1;
                    self.stats.deadline_misses += 1;
                }
            }
        }
    }

    /// Handles the failure of one attempt of request `j` at instant `t`:
    /// schedules a retry while budget and deadline allow, else fails the
    /// request permanently. No-op while another attempt is still in flight.
    fn attempt_failed(&mut self, j: usize, t: f64) {
        let (s, request) = (&mut self.states[j], &self.requests[j]);
        if s.settled() || s.in_flight() {
            return;
        }
        let id = request.request.id as u64;
        let due = t + self.retry.backoff_s(self.plan.seed, id, s.attempts);
        let too_late = |d| due - request.arrival_s > d;
        if s.attempts >= self.retry.max_attempts {
            s.failed = true;
        } else if self.retry.deadline_s.is_some_and(too_late) {
            s.failed = true;
            self.stats.deadline_misses += 1;
        } else {
            self.timeline.retries.push(due, j);
            self.stats.retries += 1;
        }
        self.stats.failed += usize::from(s.failed);
    }

    /// Every replica is gone and nothing will bring one back: everything
    /// still waiting in admission fails permanently.
    fn fail_stranded(&mut self) {
        while let Some(entry) = self.admission.pop_front() {
            let s = &mut self.states[entry.j];
            if !s.settled() && !s.in_flight() {
                s.failed = true;
                self.stats.failed += 1;
            }
        }
    }

    /// Assembles the report: merges incarnations per replica, closes open
    /// down windows, and checks the ledgers.
    fn finish(mut self, policy: &str) -> ClusterReport {
        if self.placement_obs.is_some() {
            llmqo_serve::obs::publish_chain_hasher(&self.hasher);
        }
        let mut open_windows: Vec<f64> = Vec::new();
        let mut reports: Vec<ReplicaReport> = Vec::with_capacity(self.replicas.len());
        for rep in self.replicas {
            // Scale-down departures are deliberate, not faults: their
            // windows stay out of the unavailability ledger.
            open_windows.extend(rep.down_since.filter(|_| !rep.departed));
            let idle_final = rep.session.idle_time_s() - rep.idle_correction;
            let outcome = rep.session.finish();
            pair_queue_waits(&rep.arrivals, &outcome.completions, &mut self.queue_waits);
            let merged = SessionReport::merge(rep.stash.into_iter().chain([outcome]));
            reports.push(ReplicaReport {
                engine: merged.report,
                completions: merged.completions,
                assigned: rep.assigned,
                idle_s: rep.stash_idle + idle_final,
                occupancy: rep.occupancy,
            });
        }
        let mut report = ClusterReport::assemble(policy, reports, self.queue_waits);
        for since in open_windows {
            self.stats.unavailability_windows += 1;
            self.stats.unavailable_s += (report.makespan_s - since).max(0.0);
        }
        let (stats, shed) = (&self.stats, &self.shed);
        // Every request ends as exactly one of done, failed or shed, and the
        // ledgers say so.
        debug_assert!(self.states.iter().all(
            |s| !s.in_flight() && u8::from(s.done) + u8::from(s.failed) + u8::from(s.shed) == 1
        ));
        debug_assert_eq!(
            shed.shed_queue_full + shed.shed_kv_pressure + shed.shed_tenant_quota,
            shed.shed
        );
        if self.engaged {
            debug_assert_eq!(stats.succeeded + stats.failed + shed.shed, stats.offered);
            report.faults = self.stats;
            stats.publish();
        } else {
            debug_assert_eq!(report.completed + shed.shed, self.requests.len());
        }
        report.shed = self.shed;
        report.scaling = self.scale;
        report.backpressure_macro_steps = self.backpressure_macro_steps;
        report
    }
}
