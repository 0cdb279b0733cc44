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
//! Block chains are hashed on two threads. A scoped helper that [`run`]
//! starts hashes every arrival's prompt once, in arrival order — the order
//! first attempts are placed in — and streams the chains ahead of the loop
//! ([`chain_stream`]), so the kernel mostly copies a first attempt's new ids
//! off the stream; it never waits for the helper, and hashes a first attempt
//! the helper has not reached yet itself. Retries and hedges are hashed
//! inline by the kernel's own [`ChainHasher`]. The ids are the ones the
//! kernel would have computed, so the thread changes no report, and the
//! helper is joined before [`run`] returns, errors and panics included.
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
//! * Busy replicas advance in macro-steps bounded by the next timed event,
//!   and by the other busy replicas' clocks while admission is
//!   backpressured or something can fail ([`Kernel::step`]).
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
    decide_admission, obs_scale, obs_shed, shed_victim, AdmissionPolicy, OverloadPolicy,
    PendingLedger, ScalePolicy, ScaleStats, ShedDecision, ShedReason, ShedStats,
};
use crate::report::{ClusterReport, ReplicaOccupancy, ReplicaReport};
use crate::request::ClusterRequest;
use crate::router::{ReplicaSnapshot, Router};
use crate::sim::{ClusterError, ClusterSim};
use llmqo_obs::{Counter, Gauge};
use llmqo_serve::{
    chain_stream, ChainHasher, ChainStream, Completion, EngineError, EngineSession, SessionReport,
    SimEngine,
};
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
    /// A first attempt's position in the arrival order, which is its record
    /// in the stream of first-attempt chains; 0 for a re-placement.
    rank: usize,
    kind: AttemptKind,
    /// When the attempt entered admission (arrival, retry due-time, or
    /// hedge fire-time); placement can happen no earlier.
    arrival_s: f64,
    /// Replica this attempt must avoid (a hedge excludes the replica its
    /// primary runs on).
    exclude: Option<usize>,
    /// Copied from the request, so the gates never read `requests`.
    tenant: u32,
    priority: u8,
}

/// Attempts that have arrived but not yet been placed, and the ledger of the
/// first attempts among them; only `push` and `remove` change either.
struct Admission {
    queue: VecDeque<AdmEntry>,
    pending: PendingLedger,
}

impl Admission {
    fn push(&mut self, e: AdmEntry) {
        if e.kind == AttemptKind::First {
            self.pending.count(e.tenant, e.priority, true);
        }
        self.queue.push_back(e);
    }

    fn remove(&mut self, pos: usize) -> Option<AdmEntry> {
        let e = self.queue.remove(pos)?;
        if e.kind == AttemptKind::First {
            self.pending.count(e.tenant, e.priority, false);
        }
        Some(e)
    }

    /// `(queue position, priority)` of every pending first attempt, oldest
    /// first: the shed-victim candidates.
    fn first_attempts(&self) -> impl Iterator<Item = (usize, u8)> + '_ {
        let first = self.queue.iter().enumerate();
        let first = first.filter(|(_, e)| e.kind == AttemptKind::First);
        first.map(|(pos, e)| (pos, e.priority))
    }

    /// The gates' ruling over a recount of the queue and a full victim scan,
    /// asserting the ledger equals the recount and holds every victim the
    /// scan finds: the oracle of the ledger-driven ruling, in debug builds.
    fn decide_by_scan(&self, gates: &AdmissionPolicy, r: &ClusterRequest, kv: f64) -> ShedDecision {
        let mut recount = PendingLedger::new(gates);
        for e in self.queue.iter().filter(|e| e.kind == AttemptKind::First) {
            recount.count(e.tenant, e.priority, true);
        }
        assert_eq!(recount, self.pending, "admission ledger drifted");
        let victim = shed_victim(self.first_attempts(), r.priority);
        assert!(victim.is_none() || recount.holds_below(r.priority));
        decide_admission(gates, r, &recount, kv, || victim)
    }
}

/// Request positions by engine request id, for attributing completions: open
/// addressing over `j + 1` (0 = empty), at most half full, each probe checked
/// against the request's id. Building it is the id-uniqueness check.
#[derive(Default)]
struct IdIndex {
    slots: Vec<u32>,
}

impl IdIndex {
    fn new(requests: &[ClusterRequest]) -> Result<Self, ClusterError> {
        let len = (2 * requests.len()).next_power_of_two().max(2);
        let mut slots = vec![0; len];
        for (j, r) in requests.iter().enumerate() {
            let mut at = IdIndex::home(r.request.id, len);
            while slots[at] != 0 {
                if requests[slots[at] as usize - 1].request.id == r.request.id {
                    // Cold path: name the smallest duplicated id.
                    let mut ids: Vec<usize> = requests.iter().map(|r| r.request.id).collect();
                    ids.sort_unstable();
                    let pair = ids.windows(2).find(|w| w[0] == w[1]);
                    let id = pair.map_or(r.request.id, |w| w[0]);
                    return Err(ClusterError::DuplicateRequestId { id });
                }
                at = (at + 1) & (len - 1);
            }
            slots[at] = j as u32 + 1;
        }
        Ok(IdIndex { slots })
    }

    /// The top bits of a multiplicative hash, in a table of `len` slots.
    fn home(id: usize, len: usize) -> usize {
        let shift = 64 - len.trailing_zeros();
        ((id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize
    }

    fn get(&self, id: usize, requests: &[ClusterRequest]) -> Option<usize> {
        let mut at = IdIndex::home(id, self.slots.len());
        loop {
            let j = (*self.slots.get(at)? as usize).checked_sub(1)?;
            if requests[j].request.id == id {
                return Some(j);
            }
            at = (at + 1) & (self.slots.len() - 1);
        }
    }
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
    outcome: Outcome,
    /// Replica of the most recent placement, for failover counting and
    /// hedge exclusion.
    last_replica: Option<u32>,
}

/// How a logical request ended; a run ends with none `Pending`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Outcome {
    #[default]
    Pending,
    Done,
    Failed,
    Shed,
}

impl ReqState {
    /// Ended for good; later completions are wasted work.
    fn settled(&self) -> bool {
        self.outcome != Outcome::Pending
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
        // Hedge timers are armed in placement order: nearly always the last.
        if self.0.back().is_none_or(earlier) {
            self.0.push_back((at, key));
        } else {
            self.0.insert(self.0.partition_point(earlier), (at, key));
        }
    }

    fn next_at(&self) -> Option<f64> {
        self.0.front().map(|&(at, _)| at)
    }

    fn pop_due(&mut self, t: f64) -> Option<(f64, usize)> {
        self.0.pop_front_if(|&mut (at, _)| at <= t)
    }
}

/// Every timed event source of a run: answers when the next event is due
/// and hands out, class by class, what is due at a delivery instant
/// ([`Kernel::deliver`] fixes the order among classes).
struct Timeline<'a> {
    /// Request indices by arrival time ([`arrival_order`]), and the
    /// delivery cursor into them.
    order: &'a [usize],
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

/// Request indices by arrival time, original order on ties: the order
/// first attempts are delivered, and therefore placed, in.
fn arrival_order(requests: &[ClusterRequest]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| requests[a].arrival_s.total_cmp(&requests[b].arrival_s));
    order
}

impl<'a> Timeline<'a> {
    fn new(order: &'a [usize], plan: &FaultPlan, scale: Option<&ScalePolicy>) -> Self {
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

    /// The next request arriving at or before `t`: its rank in the arrival
    /// order and its index.
    fn pop_arrival(&mut self, t: f64, requests: &[ClusterRequest]) -> Option<(usize, usize)> {
        let rank = self.next_arrival;
        let &j = self.order.get(rank)?;
        (requests[j].arrival_s <= t).then(|| {
            self.next_arrival += 1;
            (rank, j)
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
/// Times equal under `total_cmp` are the same bits, so an unstable sort (no
/// merge buffer) orders them alike.
fn pair_queue_waits(arrivals: &[f64], completions: &[Completion], out: &mut Vec<f64>) {
    let mut admissions: Vec<f64> = completions.iter().map(|c| c.admitted_s).collect();
    admissions.sort_unstable_by(f64::total_cmp);
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
    /// per-request state — `states` and `ids` stay empty.
    engaged: bool,
    replicas: Vec<Replica>,
    timeline: Timeline<'a>,
    /// First attempts' block chains, hashed ahead by the run's helper
    /// thread in arrival order (or by the stream, when the helper is
    /// behind); `None` when no helper runs.
    first_chains: Option<ChainStream>,
    /// Hashes re-placements (retries and hedges) as they are placed, and
    /// every attempt when no helper runs. Consecutive placements are mostly
    /// consecutive rows of the reordered table, so the previous prompt is
    /// the right memo whichever replica it went to.
    hasher: ChainHasher,
    /// The per-placement metric handles, when observability is on.
    placement_obs: Option<PlacementObs>,
    admission: Admission,
    states: Vec<ReqState>,
    ids: IdIndex,
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
    /// Per-run scratch, refilled per placement attempt.
    snapshots: Vec<ReplicaSnapshot>,
}

/// Runs `requests` through `router` under the given fault plan, retry
/// policy and overload policy — the body of every `ClusterSim::run*`.
///
/// When there are chains to hash (an enabled prefix cache, at least one
/// request), one scoped helper thread hashes every arrival's chain ahead of
/// the loop, in arrival order ([`chain_stream`]). It is joined before `run`
/// returns: the kernel drops its end of the stream, which stops the helper
/// at its next wait, on an error or a panic too — the kernel, and the
/// stream in it, belong to the scope's closure, so unwinding drops them
/// before the scope joins the helper.
pub(crate) fn run(
    sim: &ClusterSim,
    router: &mut dyn Router,
    requests: &[ClusterRequest],
    plan: &FaultPlan,
    retry: &RetryPolicy,
    overload: &OverloadPolicy,
) -> Result<ClusterReport, ClusterError> {
    let order = arrival_order(requests);
    let mut k = Kernel::new(sim, requests, &order, plan, retry, overload)?;
    if requests.is_empty() || !sim.engine().config().enable_prefix_cache {
        k.drive(router)?;
        return Ok(k.finish(router.name(), None));
    }
    let (feed, stream) = chain_stream(&k.hasher);
    k.first_chains = Some(stream);
    std::thread::scope(|scope| {
        // Moved in, so that a panic in the loop drops the stream here.
        let mut k = k;
        let prompts = order.iter().map(|&j| &requests[j].request.prompt);
        let helper = scope.spawn(move || feed.run(prompts));
        let outcome = k.drive(router);
        // Dropping the stream releases the helper. After a whole run that
        // publishes its counters, it first reads to the end, so the helper
        // hashes every arrival: the chain counters count shed ones too.
        let counted = outcome.is_ok() && k.placement_obs.is_some();
        if let Some(stream) = k.first_chains.take().filter(|_| counted) {
            stream.drain();
        }
        let helper = helper
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e));
        outcome.map(|()| k.finish(router.name(), Some(&helper)))
    })
}

impl<'a> Kernel<'a> {
    /// The event loop: places, steps and delivers until nothing is left.
    fn drive(&mut self, router: &mut dyn Router) -> Result<(), ClusterError> {
        loop {
            // No simulated time passes while placing.
            self.place_pending(router)?;
            // Next event: the earliest busy replica's step, or a timed event —
            // whichever comes first on the shared timeline.
            let busy = self.earliest_busy();
            let occupied = busy.is_some() || !self.admission.queue.is_empty();
            let states = &self.states;
            let settled = |j: usize| states[j].settled();
            let timed = self.timeline.next_due(self.requests, occupied, settled);
            let before = self.now;
            match (busy, timed) {
                (Some(b), Some(t)) if t <= self.replicas[b].session.clock() => self.deliver(t)?,
                (None, Some(t)) => self.deliver(t)?,
                (Some(b), _) => self.step(b, timed)?,
                (None, None) if self.admission.queue.is_empty() => break,
                (None, None) if self.replicas.iter().any(|r| r.up) => {
                    // All replicas idle yet something is stuck in admission:
                    // impossible with queue_cap >= 1 (idle means empty queue).
                    return Err(ClusterError::InvalidConfig {
                        reason: "dispatcher stalled (router refuses idle replicas?)",
                    });
                }
                (None, None) => self.fail_stranded(),
            }
            debug_assert!(
                self.now.is_finite() && self.now >= before,
                "clock ran backwards"
            );
        }
        Ok(())
    }

    fn new(
        sim: &'a ClusterSim,
        requests: &'a [ClusterRequest],
        order: &'a [usize],
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
        let ids = if engaged {
            IdIndex::new(requests)?
        } else {
            IdIndex::default()
        };
        let offered = requests.len();
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
            snapshots: Vec::with_capacity(replicas.len()),
            replicas,
            timeline: Timeline::new(order, plan, overload.scale.as_ref()),
            first_chains: None,
            hasher: sim.engine().chain_hasher(),
            placement_obs: llmqo_obs::enabled().then(|| PlacementObs {
                routed: llmqo_obs::registry().counter("cluster.requests_routed"),
                gauges: Vec::new(),
            }),
            admission: Admission {
                queue: VecDeque::new(),
                pending: PendingLedger::new(&overload.admission),
            },
            states: vec![ReqState::default(); if engaged { offered } else { 0 }],
            ids,
            stats: FaultStats {
                offered,
                ..FaultStats::default()
            },
            shed: ShedStats::default(),
            scale: ScaleStats {
                peak_replicas: config.replicas,
                low_replicas: config.replicas,
                ..ScaleStats::default()
            },
            last_scale_action: f64::NEG_INFINITY,
            queue_waits: Vec::new(),
            now: 0.0,
            submissions: 0,
            backpressure_macro_steps: 0,
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
        while let Some(&entry) = self.admission.queue.front() {
            let request = &self.requests[entry.j];
            if self.engaged && self.states[entry.j].settled() {
                self.admission.remove(0); // Stale retry/hedge entry.
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
            if entry.exclude == Some(choice)
                || (entry.exclude.is_some() && !self.snapshots.iter().any(|s| s.alive))
            {
                // A hedge with nowhere else to go — routed to its excluded
                // replica, or with only that one up — is abandoned; its
                // primary is still in flight.
                self.admission.remove(0);
                continue;
            }
            // Nowhere routable (wait for a rejoin, or fail), or backpressure:
            // the head of the line waits for an event.
            if !replica.up || replica.session.queued() >= self.sim.config().queue_cap {
                break;
            }
            self.admission.remove(0);
            // The attempt reaches the replica when it entered admission, or
            // later if backpressure held it there; an idle replica has been
            // frozen since it last worked and is caught up to that moment.
            let ready_s = entry.arrival_s.max(self.now);
            let (session, occupancy) = (&mut replica.session, &mut replica.occupancy);
            session.advance_to(ready_s);
            // Sample what the router could have known at this decision: KV
            // occupancy and the probed prefix hit on the chosen replica. The
            // prompt is hashed once per placement — a first attempt's by the
            // helper — and the same chain feeds the probe and the session's
            // admission queue.
            let kv = session.kv_blocks_in_use();
            let prompt = &request.request.prompt;
            let chain = match (entry.kind, &mut self.first_chains) {
                (AttemptKind::First, Some(stream)) => stream.chain(entry.rank, prompt),
                _ => self.hasher.chain(prompt),
            };
            let probed = session.probe_cached_tokens(chain);
            occupancy.samples += 1;
            occupancy.kv_blocks_sum += kv as u64;
            occupancy.kv_blocks_peak = occupancy.kv_blocks_peak.max(kv);
            occupancy.capacity_blocks = session.capacity_blocks();
            occupancy.probed_cached_tokens += probed as u64;
            if let Some(obs) = &mut self.placement_obs {
                obs.record(session, choice, request, kv, probed);
            }
            let (id, output_len) = (request.request.id, request.request.output_len);
            session.enqueue_chain(id, output_len, chain, session.clock());
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
        while let Some((rank, j)) = self.timeline.pop_arrival(t, self.requests) {
            self.arrive(rank, j, t);
        }
        while let Some((due, j)) = self.timeline.retries.pop_due(t) {
            self.enqueue(j, 0, AttemptKind::Retry, due, None);
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
        self.scale.low_replicas = self.scale.low_replicas.min(self.routable());
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
        let idle = rep.session.is_idle();
        self.scale.low_replicas = self.scale.low_replicas.min(self.routable());
        if idle {
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

    fn enqueue(
        &mut self,
        j: usize,
        rank: usize,
        kind: AttemptKind,
        arrival_s: f64,
        exclude: Option<usize>,
    ) {
        let r = &self.requests[j];
        self.admission.push(AdmEntry {
            j,
            rank,
            kind,
            arrival_s,
            exclude,
            tenant: r.tenant,
            priority: r.priority,
        });
    }

    /// Request `j`, `rank`-th in the arrival order, arrives at `t`: through
    /// the admission gates, if any.
    fn arrive(&mut self, rank: usize, j: usize, t: f64) {
        let (request, policy) = (&self.requests[j], &self.overload.admission);
        if !policy.is_inert() {
            let kv_gate = policy.max_kv_utilization;
            let kv_util = kv_gate.map_or(0.0, |_| self.fleet_kv_utilization());
            // Only first attempts are sheddable, and only they count against
            // the depth gate: retries and hedges are work the cluster already
            // admitted (and owes the fault ledger an outcome for), so recovery
            // traffic neither fills the admission budget nor blocks a
            // high-priority arrival from finding a sheddable victim.
            let adm = &self.admission;
            let victim = || shed_victim(adm.first_attempts(), request.priority);
            let decision = decide_admission(policy, request, &adm.pending, kv_util, victim);
            debug_assert_eq!(decision, adm.decide_by_scan(policy, request, kv_util));
            match decision {
                ShedDecision::Admit => {}
                ShedDecision::ShedArrival(reason) => return self.shed_request(j, reason, t),
                ShedDecision::EvictPending(pos, reason) => {
                    if let Some(victim) = self.admission.remove(pos) {
                        self.shed_request(victim.j, reason, t);
                    }
                }
            }
        }
        self.enqueue(j, rank, AttemptKind::First, request.arrival_s, None);
    }

    fn shed_request(&mut self, j: usize, reason: ShedReason, t: f64) {
        self.shed.record(reason, self.requests[j].priority);
        obs_shed(&self.requests[j], reason, t);
        if self.engaged {
            self.states[j].outcome = Outcome::Shed;
        }
    }

    /// Request `j`'s hedge timer fired at `t`: hedge only a request that is
    /// still in flight, has budget left, and has somewhere else to run.
    fn hedge(&mut self, j: usize, t: f64) {
        let s = &self.states[j];
        let hedgeable = !s.settled() && s.in_flight() && s.attempts < self.retry.max_attempts;
        if hedgeable && self.routable() >= 2 {
            let exclude = s.last_replica.map(|r| r as usize);
            self.enqueue(j, 0, AttemptKind::Hedge, t, exclude);
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
        if t - self.last_scale_action < policy.cooldown_s {
            return Ok(());
        }
        let arrivals = self.admission.queue.iter().map(|e| e.arrival_s);
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
        } else if self.admission.queue.is_empty()
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
    /// The replica jumps ([`EngineSession::step_until`]) to its next
    /// internal event, bounded by `timed` and by its next slowdown boundary
    /// (so each step starts with the factor single-stepping would apply
    /// there): single-stepping passes through the same per-replica states
    /// and also takes the step that crosses a timed event before delivering
    /// it. A jump ends with the step that retires its first finishers, so
    /// whatever a completion sets off is seen before the next step.
    ///
    /// With the admission queue backpressured, or with the failure
    /// machinery engaged, the jump is also bounded by every *other* busy
    /// replica's clock. The blocked head of the line is re-routed only
    /// after an event, and a pure router ([`Router`]) fails it identically
    /// at every skipped instant; transient retries and hedge winners are
    /// decided at harvest. Either way the cross-replica order of events is
    /// what single-stepping sees. On a clock tie the bound leaves nothing
    /// to jump, and a single step keeps the tie-break order.
    fn step(&mut self, b: usize, timed: Option<f64>) -> Result<(), ClusterError> {
        let clock = self.replicas[b].session.clock();
        let bounds = [timed, self.plan.next_slowdown_boundary(b, clock)];
        let mut horizon = bounds.into_iter().flatten().fold(f64::INFINITY, f64::min);
        let backpressured = !self.admission.queue.is_empty();
        if backpressured || self.engaged {
            let others = self.replicas.iter().enumerate();
            horizon = others
                .filter(|&(i, r)| i != b && !r.session.is_idle())
                .map(|(_, r)| r.session.clock())
                .fold(horizon, f64::min);
        }
        let jump = !self.sim.single_step && horizon > clock;
        self.backpressure_macro_steps += u64::from(jump && backpressured);
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
            let Some(j) = self.ids.get(c.id, self.requests) else {
                continue;
            };
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
                self.states[j].outcome = Outcome::Done;
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
            s.outcome = Outcome::Failed;
        } else if self.retry.deadline_s.is_some_and(too_late) {
            s.outcome = Outcome::Failed;
            self.stats.deadline_misses += 1;
        } else {
            self.timeline.retries.push(due, j);
            self.stats.retries += 1;
        }
        self.stats.failed += usize::from(s.outcome == Outcome::Failed);
    }

    /// Every replica is gone and nothing will bring one back: everything
    /// still waiting in admission fails permanently.
    fn fail_stranded(&mut self) {
        while let Some(entry) = self.admission.remove(0) {
            let s = &mut self.states[entry.j];
            if !s.settled() && !s.in_flight() {
                s.outcome = Outcome::Failed;
                self.stats.failed += 1;
            }
        }
    }

    /// Assembles the report: merges incarnations per replica, closes open
    /// down windows, and checks the ledgers. `helper` is the hasher the
    /// helper thread ran, if one did.
    fn finish(mut self, policy: &str, helper: Option<&ChainHasher>) -> ClusterReport {
        if self.placement_obs.is_some() {
            for hasher in [Some(&self.hasher), helper].into_iter().flatten() {
                llmqo_serve::obs::publish_chain_hasher(hasher);
            }
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
        if !self.engaged {
            // Nothing could fail: every engine completion is a success.
            self.stats.succeeded = report.completed;
        }
        let (stats, shed) = (&self.stats, &self.shed);
        debug_assert!(self.states.iter().all(|s| !s.in_flight() && s.settled()));
        debug_assert_eq!(
            shed.shed_queue_full + shed.shed_kv_pressure + shed.shed_tenant_quota,
            shed.shed
        );
        debug_assert_eq!(stats.succeeded + stats.failed + shed.shed, stats.offered);
        stats.publish();
        report.faults = self.stats;
        report.shed = self.shed;
        report.scaling = self.scale;
        report.backpressure_macro_steps = self.backpressure_macro_steps;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmqo_serve::SimRequest;

    /// Every offered id leads back to its request, dense or sparse; an id
    /// nobody offered leads nowhere, so its completion is skipped.
    #[test]
    fn the_id_index_finds_offered_ids_and_only_them() {
        let sparse = |i: usize| {
            if i.is_multiple_of(2) {
                (i + 1) << 40
            } else {
                usize::MAX - i
            }
        };
        for ids in [(0..100).collect::<Vec<_>>(), (0..100).map(sparse).collect()] {
            let requests: Vec<ClusterRequest> = ids
                .iter()
                .map(|&id| ClusterRequest::new(SimRequest::from_tokens(id, vec![1], 1), 0))
                .collect();
            let index = IdIndex::new(&requests).expect("unique ids");
            for (j, &id) in ids.iter().enumerate() {
                assert_eq!(index.get(id, &requests), Some(j));
            }
            for unknown in [100, 1000 << 40, usize::MAX - 1000, usize::MAX] {
                assert_eq!(index.get(unknown, &requests), None, "id {unknown}");
            }
        }
        assert_eq!(IdIndex::new(&[]).expect("no ids").get(0, &[]), None);
        assert_eq!(IdIndex::default().get(0, &[]), None);
    }
}
