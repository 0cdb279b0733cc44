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
//! the helper has not reached yet itself. A hedge is not hashed: it fires
//! only while its primary is live, and copies the chain from the replica
//! holding it ([`EngineSession::held_chain`]). Retries, failovers and a
//! hedge whose primary ended first are hashed inline by the kernel's own
//! [`ChainHasher`], published apart from the helper's (`cluster.chain.*`
//! against `serve.chain.*`). The ids are the ones the kernel would have
//! computed, so neither the thread nor the copy changes a report, and the
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

use crate::fault::{slowdown_at, FaultEvent, FaultPlan, FaultStats, RetryPolicy};
use crate::overload::{
    decide_admission, shed_victim, AdmissionPolicy, OverloadPolicy, PendingLedger, ScalePolicy,
    ScaleStats, ShedDecision, ShedReason, ShedStats,
};
use crate::report::{ClusterReport, ReplicaOccupancy, ReplicaReport};
use crate::request::ClusterRequest;
use crate::router::{ReplicaSnapshot, Router};
use crate::sim::{ClusterError, ClusterSim};
use llmqo_obs::Gauge;
use llmqo_serve::{
    chain_stream, ChainHasher, ChainStream, Completion, EngineError, EngineSession, SessionReport,
    SimEngine, SimTime,
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
    arrival_s: SimTime,
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

/// Where a replica is in its lifecycle; [`Kernel::transition`] is the only
/// writer, and docs/ARCHITECTURE.md ("Failure domains") has its table.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Life {
    /// Scaled up, joining at its scheduled rejoin.
    Warming,
    /// Takes placements.
    Up,
    /// Finishing its work, to rejoin cold no earlier than `rejoin` or, if
    /// `None` (a scale-down), to leave for good.
    Draining { rejoin: Option<SimTime> },
    /// Unavailable from `since` to its cold rejoin at `rejoin`, or to the end.
    Down {
        since: SimTime,
        rejoin: Option<SimTime>,
    },
    /// Scaled down and gone, which is not unavailability.
    Departed,
}

/// What befalls a replica: a plan crash (with its restart instant) or drain,
/// the autoscaler's scale-down, running out of work, and a timed rejoin.
#[derive(Debug, Clone, Copy)]
enum Event {
    Crash { restart_s: Option<SimTime> },
    Drain { rejoin_s: SimTime },
    ScaleDown,
    Idle,
    Rejoin,
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
    arrivals: Vec<SimTime>,
    /// KV occupancy sampled at each placement decision.
    occupancy: ReplicaOccupancy,
    /// Completion-harvest watermark into `session.completions()`.
    harvested: usize,
    life: Life,
    /// Idle seconds accrued by the catch-up `advance_to` at rejoin —
    /// subtracted so reported idle time counts only in-service idleness.
    idle_correction: f64,
    /// Finished incarnations.
    stash: Vec<SessionReport>,
    stash_idle: f64,
    lane: u32,
}

impl Replica {
    /// A cold replica at fleet position `index`, starting `Up` (the initial
    /// fleet) or `Warming` (a scale-up).
    fn cold(engine: &SimEngine, index: usize, life: Life) -> Result<Self, EngineError> {
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
            life,
            idle_correction: 0.0,
            stash: Vec::new(),
            stash_idle: 0.0,
            lane,
        })
    }
}

/// A min-queue of `(instant, key)` pairs ordered by instant, then key.
#[derive(Default)]
struct DueQueue(VecDeque<(SimTime, usize)>);

impl DueQueue {
    fn push(&mut self, at: SimTime, key: usize) {
        let earlier = |e: &(SimTime, usize)| *e < (at, key);
        // Hedge timers are armed in placement order: nearly always the last.
        if self.0.back().is_none_or(earlier) {
            self.0.push_back((at, key));
        } else {
            self.0.insert(self.0.partition_point(earlier), (at, key));
        }
    }

    fn next_at(&self) -> Option<SimTime> {
        self.0.front().map(|&(at, _)| at)
    }

    fn pop_due(&mut self, t: SimTime) -> Option<(SimTime, usize)> {
        self.0.pop_front_if(|&mut (at, _)| at <= t)
    }
}

/// Every timed event source of a run: answers when the next event is due
/// and hands out, class by class, what is due at a delivery instant
/// ([`Kernel::deliver`] fixes the order among classes).
struct Timeline<'a> {
    /// `(arrival, request index)` by arrival ([`arrival_order`]), and the
    /// delivery cursor into them.
    order: &'a [(SimTime, usize)],
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
    scale_check: Option<(SimTime, SimTime)>,
}

/// Every request's arrival on the sim clock with its index, by arrival,
/// original order on ties: the order first attempts are delivered, and
/// therefore placed, in. The gate for arrivals: `-0.0` arrives with `0.0`.
fn arrival_order(requests: &[ClusterRequest]) -> Result<Vec<(SimTime, usize)>, ClusterError> {
    let mut order = Vec::with_capacity(requests.len());
    for (index, r) in requests.iter().enumerate() {
        let at = SimTime::new(r.arrival_s).ok_or(ClusterError::InvalidArrival { index })?;
        order.push((at, index));
    }
    order.sort_unstable();
    Ok(order)
}

impl<'a> Timeline<'a> {
    fn new(
        order: &'a [(SimTime, usize)],
        faults: &[FaultEvent<SimTime>],
        scale_every: Option<SimTime>,
    ) -> Self {
        let mut due = DueQueue::default();
        for (i, e) in faults.iter().enumerate() {
            if let FaultEvent::Crash { at_s, .. } | FaultEvent::Drain { at_s, .. } = *e {
                due.push(at_s, i);
            }
        }
        Timeline {
            order,
            next_arrival: 0,
            faults: due,
            rejoins: DueQueue::default(),
            retries: DueQueue::default(),
            hedges: DueQueue::default(),
            scale_check: scale_every.map(|every| (every, every)),
        }
    }

    /// The earliest pending event instant. `settled(j)` says request `j` no
    /// longer needs its hedge: such timers are dropped here, so a dead one
    /// can neither bound a macro-step nor keep the loop alive. The scale
    /// check counts only while the job has work left (`busy_or_queued`, or
    /// demand pending here), so an idle tail terminates.
    fn next_due(
        &mut self,
        busy_or_queued: bool,
        settled: impl Fn(usize) -> bool,
    ) -> Option<SimTime> {
        while self.hedges.0.front().is_some_and(|&(_, j)| settled(j)) {
            self.hedges.0.pop_front();
        }
        let arrival = self.order.get(self.next_arrival);
        let work_pending = busy_or_queued
            || arrival.is_some()
            || !(self.retries.0.is_empty() && self.hedges.0.is_empty());
        let check = self.scale_check.filter(|_| work_pending).map(|(at, _)| at);
        self.next_event().into_iter().chain(check).min()
    }

    /// The earliest pending event instant other than the scale check.
    fn next_event(&self) -> Option<SimTime> {
        let arrival = self.order.get(self.next_arrival).map(|&(at, _)| at);
        let queued = [&self.faults, &self.rejoins, &self.retries, &self.hedges];
        let queued = queued.into_iter().map(DueQueue::next_at);
        queued.chain([arrival]).flatten().min()
    }

    /// The next request arriving at or before `t`: its rank in the arrival
    /// order.
    fn pop_arrival(&mut self, t: SimTime) -> Option<usize> {
        let rank = self.next_arrival;
        let &(at, _) = self.order.get(rank)?;
        (at <= t).then(|| {
            self.next_arrival += 1;
            rank
        })
    }

    /// Whether an autoscaler check is due at `t`; if so, schedules the next
    /// one past `t`.
    fn pop_scale_check(&mut self, t: SimTime) -> bool {
        match &mut self.scale_check {
            Some((next, every)) if *next <= t => {
                while *next <= t {
                    *next = *next + *every;
                }
                true
            }
            _ => false,
        }
    }
}

/// The first instant of the check cadence from `x` — `x`, `x + every`,
/// `(x + every) + every`, …, each sum rounded as
/// [`Timeline::pop_scale_check`] rounds it one check at a time — at which
/// `due` holds, with how many instants come before it. `due` must stay true
/// once it holds. A run of sums that [`same_steps`] vouches for is searched
/// by bisection; any other sum is taken alone.
fn first_due_check(
    mut x: SimTime,
    every: SimTime,
    due: impl Fn(SimTime) -> bool,
) -> (SimTime, u64) {
    let mut passed = 0;
    while !due(x) {
        let steps = same_steps(x.secs(), every.secs());
        if steps == 0 {
            x = x + every;
            passed += 1;
            continue;
        }
        // `k · step` is at most the binade's span: the fallback never fires.
        let step = (x + every) - x;
        let at = |k: u64| x + SimTime::new(k as f64 * step).unwrap_or_default();
        if !due(at(steps)) {
            x = at(steps);
            passed += steps;
            continue;
        }
        // `due` is false at `lo` and true at `hi`.
        let (mut lo, mut hi) = (0, steps);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if due(at(mid)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        return (at(hi), passed + hi);
    }
    (x, passed)
}

/// How many sums in a row, from `x` on, add the same rounded `every`: 0
/// when not even the first is known to. `x` lies in a binade whose floats
/// are the multiples of one ulp below its top; `x + j·step + every` rounds
/// `every` to the same multiple `step` for every `j` while it stays below
/// the top — unless `every` lies halfway between two multiples, where the
/// tie rounds to whichever sum is even. Subnormals, the last binade and a
/// step that rounds to nothing are left to single sums.
fn same_steps(x: f64, every: f64) -> u64 {
    let exp = x.to_bits() >> 52;
    if !(53..2046).contains(&exp) {
        return 0;
    }
    let ulp = f64::from_bits((exp - 52) << 52);
    let top = f64::from_bits((exp + 1) << 52);
    // In ulps: sum j stays below the top while j·step < span − every, that
    // is j·step ≤ span − ⌊every⌋ − 1 (all integers below 2^53 when this is
    // not negative, so exact).
    let (span, every_ulps) = ((top - x) / ulp, every / ulp);
    let step = ((x + every) - x) / ulp;
    let room = span - every_ulps.floor() - 1.0;
    if every_ulps.fract() == 0.5 || step < 1.0 || room < 0.0 {
        return 0;
    }
    room as u64 / step as u64 + 1
}

/// Handles of the per-placement gauges, resolved once per run so a routed
/// request costs two atomic stores and one trace event — no `format!`,
/// no registry lock.
struct PlacementObs {
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
        llmqo_obs::tracer().instant(
            0,
            request.request.id as u64,
            "route",
            "router",
            session.clock().secs(),
            &[
                ("replica", choice.into()),
                ("prefix_key", request.prefix_key.into()),
                ("kv_blocks_in_use", kv_blocks_in_use.into()),
                ("probed_cached_tokens", probed_cached_tokens.into()),
            ],
        );
    }
}

/// One trace instant on the dispatcher lane for a lifecycle event of
/// `replica`: a fault (`fault.*`), or a scale event (`scale.*`) with the
/// fleet it leaves.
fn trace_life(name: &str, replica: usize, t: SimTime, fleet: Option<usize>) {
    if llmqo_obs::enabled() {
        let cat = if fleet.is_some() { "overload" } else { "fault" };
        let fleet_arg = ("fleet", fleet.unwrap_or(0).into());
        let args = [("replica", replica.into()), fleet_arg];
        let args = &args[..1 + usize::from(fleet.is_some())];
        llmqo_obs::tracer().instant(0, replica as u64, name, cat, t.secs(), args);
    }
}

/// Appends one incarnation's queue waits. Engine admission is FIFO, so
/// completions sorted by admission time pair with arrivals in enqueue order.
/// Times equal under `total_cmp` are the same bits, so an unstable sort (no
/// merge buffer) orders them alike.
fn pair_queue_waits(arrivals: &[SimTime], completions: &[Completion], out: &mut Vec<f64>) {
    let mut admissions: Vec<f64> = completions.iter().map(|c| c.admitted_s).collect();
    admissions.sort_unstable_by(f64::total_cmp);
    for (&arrival, &admitted) in arrivals.iter().zip(&admissions) {
        out.push((admitted - arrival.secs()).max(0.0));
    }
}

/// All state of one run.
struct Kernel<'a> {
    sim: &'a ClusterSim,
    requests: &'a [ClusterRequest],
    plan: &'a FaultPlan,
    retry: &'a RetryPolicy,
    overload: &'a OverloadPolicy,
    /// The plan's events on the sim clock, as the gate checked them.
    faults: Vec<FaultEvent<SimTime>>,
    /// The retry policy's hedge delay on the sim clock.
    hedge_after: Option<SimTime>,
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
    /// The fallback: hashes retries, failovers and a hedge whose primary
    /// ended before it was placed, and every attempt when no helper runs.
    /// A hedge of a live primary copies its chain into `hedge_chain` instead.
    /// Published as `cluster.chain.tokens_{hashed,reused}`.
    hasher: ChainHasher,
    /// The chain a hedge copies from its primary's replica
    /// ([`EngineSession::held_chain`]), reused across placements.
    hedge_chain: Vec<u64>,
    /// Prompt tokens of the chains hedges copied: with the two hashers'
    /// counters, every placed prompt token once
    /// (`serve.chain.tokens_copied`).
    tokens_copied: u64,
    /// The per-placement gauge handles, when observability is on.
    placement_obs: Option<PlacementObs>,
    admission: Admission,
    states: Vec<ReqState>,
    ids: IdIndex,
    stats: FaultStats,
    shed: ShedStats,
    scale: ScaleStats,
    /// Instant of the autoscaler's last action (cooldown hysteresis).
    last_scale_action: Option<SimTime>,
    queue_waits: Vec<f64>,
    /// The time of the latest event processed. A request delayed in
    /// admission by backpressure can be dispatched no earlier than `now`,
    /// whatever its arrival time.
    now: SimTime,
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
    let mut order = Vec::new();
    let mut k = Kernel::new(sim, requests, &mut order, plan, retry, overload)?;
    if requests.is_empty() || !sim.engine().config().enable_prefix_cache {
        k.drive(router)?;
        return Ok(k.finish(router.name(), None));
    }
    let (feed, stream) = chain_stream(&k.hasher);
    k.first_chains = Some(stream);
    let order = k.timeline.order;
    std::thread::scope(|scope| {
        // Moved in, so that a panic in the loop drops the stream here.
        let mut k = k;
        let prompts = order.iter().map(|&(_, j)| &requests[j].request.prompt);
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
            if busy.is_none() && occupied {
                self.skip_idle_checks();
            }
            let states = &self.states;
            let settled = |j: usize| states[j].settled();
            let timed = self.timeline.next_due(occupied, settled);
            match (busy, timed) {
                (Some(b), Some(t)) if t <= self.replicas[b].session.clock() => self.deliver(t)?,
                (None, Some(t)) => self.deliver(t)?,
                (Some(b), _) => self.step(b, timed)?,
                (None, None) if self.admission.queue.is_empty() => break,
                (None, None) if self.routable() > 0 => {
                    // All replicas idle yet something is stuck in admission:
                    // impossible with queue_cap >= 1 (idle means empty queue).
                    return Err(ClusterError::InvalidConfig {
                        reason: "dispatcher stalled (router refuses idle replicas?)",
                    });
                }
                (None, None) => self.fail_stranded(),
            }
        }
        Ok(())
    }

    /// The one gate of a run: every float the caller passed is checked here
    /// once, a bad one is a typed [`ClusterError`], and the times the loop
    /// reads become [`SimTime`]s (the arrivals, sorted, in `order`).
    fn new(
        sim: &'a ClusterSim,
        requests: &'a [ClusterRequest],
        order: &'a mut Vec<(SimTime, usize)>,
        plan: &'a FaultPlan,
        retry: &'a RetryPolicy,
        overload: &'a OverloadPolicy,
    ) -> Result<Self, ClusterError> {
        let config = *sim.config();
        let n = config.replicas;
        let bad_config = |reason| Err(ClusterError::InvalidConfig { reason });
        if config.replicas == 0 {
            return bad_config("need at least one replica");
        }
        if config.queue_cap == 0 {
            return bad_config("queue capacity must be at least one");
        }
        *order = arrival_order(requests)?;
        let faults = plan.check(n)?;
        let hedge_after = retry.check()?;
        overload.admission.check()?;
        let scale_every = overload.scale.map(|s| s.check(n)).transpose()?;
        let engaged = !plan.is_empty() || !retry.is_disabled();
        let ids = if engaged {
            IdIndex::new(requests)?
        } else {
            IdIndex::default()
        };
        let offered = requests.len();
        let replicas = (0..config.replicas)
            .map(|i| Replica::cold(sim.engine(), i, Life::Up))
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
            timeline: Timeline::new(order, &faults, scale_every),
            faults,
            hedge_after,
            first_chains: None,
            hasher: sim.engine().chain_hasher(),
            hedge_chain: Vec::new(),
            tokens_copied: 0,
            placement_obs: llmqo_obs::enabled().then(|| PlacementObs { gauges: Vec::new() }),
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
            last_scale_action: None,
            queue_waits: Vec::new(),
            now: SimTime::ZERO,
            submissions: 0,
            backpressure_macro_steps: 0,
        })
    }

    fn routable(&self) -> usize {
        self.replicas.iter().filter(|r| r.life == Life::Up).count()
    }

    /// KV blocks in use over capacity, across the routable fleet.
    fn fleet_kv_utilization(&self) -> f64 {
        let up = self.replicas.iter().filter(|r| r.life == Life::Up);
        let sessions = || up.clone().map(|r| &r.session);
        let in_use: usize = sessions().map(EngineSession::kv_blocks_in_use).sum();
        let capacity: usize = sessions().map(EngineSession::capacity_blocks).sum();
        // With no replica routable this is 0 over 1.
        in_use as f64 / capacity.max(1) as f64
    }

    /// The busy replica with the smallest clock (lowest index on ties).
    fn earliest_busy(&self) -> Option<usize> {
        let busy = (0..self.replicas.len()).filter(|&i| !self.replicas[i].session.is_idle());
        busy.min_by_key(|&i| self.replicas[i].session.clock())
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
                    let alive = r.life == Life::Up && entry.exclude != Some(index);
                    ReplicaSnapshot::observe(index, &r.session, r.assigned, alive)
                }));
            let choice = router.route(request.prefix_key, &self.snapshots);
            let Some(replica) = self.replicas.get(choice) else {
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
            if replica.life != Life::Up || replica.session.queued() >= self.sim.config().queue_cap {
                break;
            }
            self.admission.remove(0);
            // One chain per placement feeds the probe and the session's
            // admission queue. A hedge copies it from the replica holding
            // its live primary, which queued the same prompt's ids; a first
            // attempt's comes from the helper; anything else is hashed here.
            let (id, prompt) = (request.request.id, &request.request.prompt);
            let chain = match (entry.kind, &mut self.first_chains) {
                (AttemptKind::First, Some(stream)) => stream.chain(entry.rank, prompt),
                (AttemptKind::Hedge, _) => {
                    let primary = self.states[entry.j].live.iter().flatten().next();
                    let holder = primary.map(|a| &self.replicas[a.replica as usize].session);
                    match holder.and_then(|s| s.held_chain(id, &mut self.hedge_chain)) {
                        Some(chain) => {
                            self.tokens_copied += chain.prompt_tokens() as u64;
                            chain
                        }
                        None => self.hasher.chain(prompt),
                    }
                }
                _ => self.hasher.chain(prompt),
            };
            // The attempt reaches the replica when it entered admission, or
            // later if backpressure held it there; an idle replica has been
            // frozen since it last worked and is caught up to that moment.
            let ready_s = entry.arrival_s.max(self.now);
            let replica = &mut self.replicas[choice];
            let (session, occupancy) = (&mut replica.session, &mut replica.occupancy);
            session.advance_to(ready_s);
            // Sample what the router could have known at this decision: KV
            // occupancy and the probed prefix hit on the chosen replica.
            let kv = session.kv_blocks_in_use();
            let probed = session.probe_cached_tokens(chain);
            occupancy.samples += 1;
            occupancy.kv_blocks_sum += kv as u64;
            occupancy.kv_blocks_peak = occupancy.kv_blocks_peak.max(kv);
            occupancy.capacity_blocks = session.capacity_blocks();
            occupancy.probed_cached_tokens += probed as u64;
            if let Some(obs) = &mut self.placement_obs {
                obs.record(session, choice, request, kv, probed);
            }
            let output_len = request.request.output_len;
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
    fn attempt_placed(&mut self, entry: AdmEntry, replica: usize, ready_s: SimTime) {
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
        } else if let Some(h) = self.hedge_after {
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
    fn deliver(&mut self, t: SimTime) -> Result<(), ClusterError> {
        while let Some((at, replica)) = self.timeline.rejoins.pop_due(t) {
            self.transition(replica, Event::Rejoin, at)?;
        }
        while let Some((at, event)) = self.timeline.faults.pop_due(t) {
            self.inject(event, at)?;
        }
        while let Some(rank) = self.timeline.pop_arrival(t) {
            self.arrive(rank, t);
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

    /// Fires the crash or drain at `plan.events[event]`.
    fn inject(&mut self, event: usize, t: SimTime) -> Result<(), ClusterError> {
        match self.faults[event] {
            FaultEvent::Crash {
                replica, restart_s, ..
            } => self.transition(replica, Event::Crash { restart_s }, t),
            FaultEvent::Drain {
                replica, rejoin_s, ..
            } => self.transition(replica, Event::Drain { rejoin_s }, t),
            FaultEvent::Slowdown { .. } => Ok(()),
        }
    }

    /// The one writer of a replica's [`Life`]: applies `event` at `t` to
    /// replica `i`, schedules the rejoin the new state holds, and counts the
    /// ledgers' lifecycle fields. A pair no row names changes nothing.
    fn transition(&mut self, i: usize, event: Event, t: SimTime) -> Result<(), ClusterError> {
        use Life::{Departed, Down, Draining, Up, Warming};
        let life = self.replicas[i].life;
        let next = match (life, event) {
            (Warming, Event::Crash { .. } | Event::Drain { .. }) => {
                unreachable!("faults target only the initial fleet")
            }
            (Up | Draining { .. }, Event::Crash { restart_s }) => {
                self.stash_incarnation(i)?;
                self.stats.crashes += 1;
                trace_life("fault.crash", i, t, None);
                // Crashes are rare: scanning every request here is cheaper
                // than keeping a per-replica index current on every placement.
                for j in 0..self.states.len() {
                    while self.states[j].take_oldest_on(i).is_some() {
                        self.stats.crash_failures += 1;
                        self.attempt_failed(j, t);
                    }
                }
                // A replica draining for good leaves: no restart, no window.
                match life {
                    Draining { rejoin: None } => Departed,
                    _ => {
                        let rejoin = self.schedule(i, restart_s, t);
                        Down { since: t, rejoin }
                    }
                }
            }
            (Up, Event::Drain { rejoin_s }) => {
                self.stats.drains += 1;
                let rejoin = Some(rejoin_s);
                Draining { rejoin }
            }
            (Up, Event::ScaleDown) => Draining { rejoin: None },
            (Draining { rejoin }, Event::Idle) => {
                self.stash_incarnation(i)?;
                let rejoin = self.schedule(i, rejoin, t);
                rejoin.map_or(Departed, |_| Down { since: t, rejoin })
            }
            (Warming, Event::Rejoin) => {
                // Never *un*available; `scale_ups` counts the joins too.
                trace_life("scale.joined", i, t, Some(self.routable() + 1));
                Up
            }
            (Down { since, .. }, Event::Rejoin) => {
                self.stats.restarts += 1;
                self.stats.unavailability_windows += 1;
                self.stats.unavailable_s += (t - since).max(0.0);
                trace_life("fault.rejoin", i, t, None);
                Up
            }
            _ => life,
        };
        let rep = &mut self.replicas[i];
        rep.life = next;
        if next == Up && life != Up {
            // The cold incarnation takes work from `t`.
            rep.session.advance_to(t);
            rep.idle_correction = rep.session.idle_time_s();
        }
        if life == Up && next != Up {
            // Only a scale-up grows the fleet; it raises the peak there.
            self.scale.low_replicas = self.scale.low_replicas.min(self.routable());
        }
        // A drain that finds the replica idle completes at once.
        if matches!(next, Draining { .. }) && self.replicas[i].session.is_idle() {
            self.transition(i, Event::Idle, t)?;
        }
        Ok(())
    }

    /// Queues replica `i`'s cold rejoin at `rejoin`, but not before `t`.
    fn schedule(&mut self, i: usize, rejoin: Option<SimTime>, t: SimTime) -> Option<SimTime> {
        let at = rejoin?.max(t);
        self.timeline.rejoins.push(at, i);
        Some(at)
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
        arrival_s: SimTime,
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

    /// The `rank`-th request in the arrival order arrives, delivered at `t`:
    /// through the admission gates, if any.
    fn arrive(&mut self, rank: usize, t: SimTime) {
        let (arrival_s, j) = self.timeline.order[rank];
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
        self.enqueue(j, rank, AttemptKind::First, arrival_s, None);
    }

    fn shed_request(&mut self, j: usize, reason: ShedReason, t: SimTime) {
        let request = &self.requests[j];
        self.shed.record(reason, request.priority);
        if llmqo_obs::enabled() {
            let (id, tenant) = (request.request.id as u64, request.tenant as usize);
            let args = [
                ("tenant", tenant.into()),
                ("priority", usize::from(request.priority).into()),
            ];
            llmqo_obs::tracer().instant(0, id, "shed", "overload", t.secs(), &args);
        }
        if self.engaged {
            self.states[j].outcome = Outcome::Shed;
        }
    }

    /// Request `j`'s hedge timer fired at `t`: hedge only a request that is
    /// still in flight, has budget left, and has somewhere else to run.
    fn hedge(&mut self, j: usize, t: SimTime) {
        let s = &self.states[j];
        let hedgeable = !s.settled() && s.in_flight() && s.attempts < self.retry.max_attempts;
        if hedgeable && self.routable() >= 2 {
            let exclude = s.last_replica.map(|r| r as usize);
            self.enqueue(j, 0, AttemptKind::Hedge, t, exclude);
        }
    }

    /// The fleet `max_replicas` bounds: replicas serving now or to serve
    /// again.
    fn fleet(&self) -> usize {
        let serving = |r: &&Replica| match r.life {
            Life::Draining { rejoin } | Life::Down { rejoin, .. } => rejoin.is_some(),
            life => life != Life::Departed,
        };
        self.replicas.iter().filter(serving).count()
    }

    /// The arrival instant of the oldest admission entry.
    fn oldest_pending(&self) -> Option<SimTime> {
        self.admission.queue.iter().map(|e| e.arrival_s).min()
    }

    /// Whether the autoscaler's cooldown is over at `t`.
    fn ready(&self, policy: &ScalePolicy, t: SimTime) -> bool {
        !self
            .last_scale_action
            .is_some_and(|last| t - last < policy.cooldown_s)
    }

    /// Whether a check at `t` scales up: out of cooldown, with the oldest
    /// admission entry (arrived at `oldest`) waiting `queue_wait_up_s` and
    /// the fleet below `max_replicas`.
    fn grows(&self, policy: &ScalePolicy, t: SimTime, oldest: Option<SimTime>) -> bool {
        let waited = |oldest| t - oldest >= policy.queue_wait_up_s;
        self.ready(policy, t) && oldest.is_some_and(waited) && self.fleet() < policy.max_replicas
    }

    /// With no replica busy and requests waiting, nothing changes until the
    /// next timed event or the first check that scales up (a check scales
    /// down only with the queue empty): moves the next check there and
    /// counts the checks it passes over as made, so the report is the one
    /// stepping through them gives. Without a later event and with the
    /// fleet at its maximum no check can act, and the cadence is left be.
    fn skip_idle_checks(&mut self) {
        let (Some(policy), Some((next, every))) = (self.overload.scale, self.timeline.scale_check)
        else {
            return;
        };
        let other = self.timeline.next_event();
        if other.is_none() && self.fleet() >= policy.max_replicas {
            return;
        }
        let oldest = self.oldest_pending();
        let due = |t: SimTime| other.is_some_and(|o| t >= o) || self.grows(&policy, t, oldest);
        let (at, passed) = first_due_check(next, every, due);
        self.timeline.scale_check = Some((at, every));
        self.scale.checks += passed;
    }

    /// One evaluation of the autoscaler's control loop at `t`.
    fn scale_check(&mut self, t: SimTime) -> Result<(), ClusterError> {
        let Some(policy) = self.overload.scale else {
            return Ok(());
        };
        self.scale.checks += 1;
        let (fleet, routable) = (self.fleet(), self.routable());
        if self.grows(&policy, t, self.oldest_pending()) {
            // Scale up: provision a cold replica that joins (empty prefix
            // cache, rendezvous remap) after its jittered warmup.
            let index = self.replicas.len();
            let cold = Replica::cold(self.sim.engine(), index, Life::Warming)?;
            self.replicas.push(cold);
            let warmup = policy.warmup_for(self.scale.scale_ups);
            self.timeline.rejoins.push(t + warmup, index);
            self.scale.scale_ups += 1;
            self.scale.peak_replicas = self.scale.peak_replicas.max(fleet + 1);
            self.last_scale_action = Some(t);
            trace_life("scale.up", index, t, Some(fleet + 1));
        } else if self.ready(&policy, t)
            && self.admission.queue.is_empty()
            && routable > policy.min_replicas
            && self.fleet_kv_utilization() < policy.kv_low_watermark
        {
            // Scale down: gracefully drain the least loaded routable
            // replica (highest index on ties), for good.
            let up = self.replicas.iter().enumerate().rev();
            let up = up.filter(|(_, r)| r.life == Life::Up);
            let load = |(_, r): &(usize, &Replica)| r.session.queued() + r.session.running();
            if let Some((i, _)) = up.min_by_key(load) {
                self.scale.scale_downs += 1;
                self.last_scale_action = Some(t);
                trace_life("scale.down", i, t, Some(routable - 1));
                self.transition(i, Event::ScaleDown, t)?;
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
    fn step(&mut self, b: usize, timed: Option<SimTime>) -> Result<(), ClusterError> {
        let clock = self.replicas[b].session.clock();
        let (slowdown, boundary) = slowdown_at(&self.faults, b, clock);
        let bounds = [timed, boundary];
        let mut horizon = bounds.into_iter().flatten().reduce(SimTime::min);
        let backpressured = !self.admission.queue.is_empty();
        if backpressured || self.engaged {
            let others = self.replicas.iter().enumerate();
            let others = others.filter(|&(i, r)| i != b && !r.session.is_idle());
            let clocks = others.map(|(_, r)| r.session.clock());
            horizon = clocks.chain(horizon).reduce(SimTime::min);
        }
        let jump = !self.sim.single_step && horizon.is_none_or(|h| h > clock);
        self.backpressure_macro_steps += u64::from(jump && backpressured);
        let session = &mut self.replicas[b].session;
        session.set_slowdown(slowdown);
        if jump {
            session.step_until(horizon)?;
        } else {
            session.step()?;
        }
        let clock = session.clock();
        self.now = self.now.max(clock);
        if self.engaged {
            self.harvest(b, clock);
        }
        if self.replicas[b].session.is_idle() {
            self.transition(b, Event::Idle, clock)?;
        }
        Ok(())
    }

    /// Routes every completion replica `b` produced since the last call
    /// through success/transient-failure accounting. Each retired in the
    /// step just taken, which ended at `clock`.
    fn harvest(&mut self, b: usize, clock: SimTime) {
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
                self.attempt_failed(j, clock);
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
    fn attempt_failed(&mut self, j: usize, t: SimTime) {
        let (s, request) = (&mut self.states[j], &self.requests[j]);
        if s.settled() || s.in_flight() {
            return;
        }
        let id = request.request.id as u64;
        let due = t + self.retry.backoff(self.plan.seed, id, s.attempts);
        let too_late = |d| due.secs() - request.arrival_s > d;
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
    /// down windows, checks the ledgers and publishes them. `helper` is the
    /// hasher the helper thread ran, if one did.
    fn finish(mut self, policy: &str, helper: Option<&ChainHasher>) -> ClusterReport {
        let mut open_windows: Vec<SimTime> = Vec::new();
        let departed = self.replicas.iter().filter(|r| r.life == Life::Departed);
        let departed = departed.count() as u64;
        let mut reports: Vec<ReplicaReport> = Vec::with_capacity(self.replicas.len());
        for rep in self.replicas {
            // A departed replica left on purpose: it opens no window.
            if let Life::Down { since, .. } = rep.life {
                open_windows.push(since);
            }
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
        for &since in &open_windows {
            self.stats.unavailability_windows += 1;
            self.stats.unavailable_s += (report.makespan_s - since.secs()).max(0.0);
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
        // The lifecycle's: a rejoin follows a crash or drain, a down window
        // closes at a rejoin or the end, only a scale-down leaves for good.
        let (scale, max) = (&self.scale, self.overload.scale.map(|s| s.max_replicas));
        debug_assert!(stats.restarts <= stats.crashes + stats.drains);
        let down_at_end = open_windows.len() as u64;
        debug_assert_eq!(stats.unavailability_windows, stats.restarts + down_at_end);
        debug_assert_eq!(scale.scale_downs, departed);
        debug_assert!(max.is_none_or(|max| scale.peak_replicas <= max));
        if llmqo_obs::enabled() {
            if let Some(hasher) = helper {
                llmqo_serve::obs::publish_chain_hasher(hasher);
            }
            let routed = report.replicas.iter().map(|r| r.assigned as u64).sum();
            llmqo_obs::publish(&[
                ("cluster.requests_routed", routed),
                ("cluster.chain.tokens_hashed", self.hasher.tokens_hashed()),
                ("cluster.chain.tokens_reused", self.hasher.tokens_reused()),
                ("serve.chain.tokens_copied", self.tokens_copied),
            ]);
            stats.publish();
            shed.publish();
            self.scale.publish();
        }
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
    use crate::request::ArrivalProcess;
    use crate::router::LeastLoaded;
    use crate::sim::ClusterConfig;
    use llmqo_serve::{
        with_root_salt, Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, SimRequest,
    };

    /// A hedge of a live primary copies its chain from the replica that
    /// holds the primary. Under a hedge-only policy (no crash and no
    /// transient error, so no retry and no primary that dies first) the
    /// kernel's own hasher mixes no token while hedges are placed, and the
    /// run equals the public entry point's, with every block id re-keyed
    /// too: a copied chain is the prompt's chain.
    #[test]
    fn a_hedge_copies_its_chain_from_its_live_primary() {
        let engine = SimEngine::new(
            Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
            EngineConfig::default(),
        );
        let config = ClusterConfig {
            replicas: 3,
            queue_cap: 8,
        };
        let sim = ClusterSim::new(engine, config);
        let mut requests: Vec<ClusterRequest> = (0..120)
            .map(|i| {
                let g = (i / 10) as u32;
                let mut tokens: Vec<u32> = (0..64).map(|t| g * 10_000 + t).collect();
                tokens.extend((0..40).map(|t| 1_000_000 + i as u32 * 64 + t));
                ClusterRequest::new(SimRequest::from_tokens(i, tokens, 8), u64::from(g))
            })
            .collect();
        ArrivalProcess::Poisson {
            rate_rps: 200.0,
            seed: 5,
        }
        .assign(&mut requests);
        let (plan, overload) = (FaultPlan::default(), OverloadPolicy::default());
        let retry = RetryPolicy::retries(2).with_hedging(0.05);
        let mut order = Vec::new();
        let mut k = Kernel::new(&sim, &requests, &mut order, &plan, &retry, &overload).unwrap();
        // First attempts come off a stream whose feed never runs: the
        // stream's own hasher takes them, and the kernel's is left with
        // whatever re-placement is not copied.
        let (feed, stream) = chain_stream(&k.hasher);
        drop(feed);
        k.first_chains = Some(stream);
        let mut router = LeastLoaded;
        k.drive(&mut router).unwrap();
        let mixed = k.hasher.tokens_hashed() + k.hasher.tokens_reused();
        assert_eq!(mixed, 0, "the kernel hashed a re-placement");
        assert!(k.tokens_copied > 0);
        let report = k.finish(router.name(), None);
        assert!(report.faults.hedges_issued > 0, "{:?}", report.faults);
        let public = |salt| {
            let run = || sim.run_overloaded(&mut LeastLoaded, &requests, &plan, &retry, &overload);
            format!("{:?}", with_root_salt(salt, run).unwrap())
        };
        let report = format!("{report:?}");
        assert_eq!(report, public(0));
        assert_eq!(report, public(0x5eed));
    }

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

    /// The cadence jump lands where stepping one check at a time does, on
    /// the same rounded sums and after as many instants, for dyadic and
    /// non-dyadic cadences alike and across binades.
    #[test]
    fn first_due_check_lands_on_the_stepped_instant() {
        let t = |s: f64| SimTime::new(s).expect("valid");
        for every in [0.25, 0.1, 0.073_1, 1.0 / 3.0, 1e-3, 7.0] {
            for start in [every, 0.5 + every, 1e6 + every] {
                for until in [0.0, 0.3, 2.0, 100.0, 4_321.5, 1e6 + 77.7] {
                    if (until - start) / every > 5e6 {
                        continue;
                    }
                    let due = |x: SimTime| x.secs() >= until;
                    let (mut x, mut passed) = (t(start), 0);
                    while !due(x) {
                        x = x + t(every);
                        passed += 1;
                    }
                    let jumped = first_due_check(t(start), t(every), due);
                    assert_eq!(jumped, (x, passed), "every {every} from {start} to {until}");
                }
            }
        }
    }
}
