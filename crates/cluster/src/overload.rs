//! Overload-survival policy: KV-aware admission control, priority load
//! shedding with per-tenant quotas, and elastic mid-job autoscaling.
//!
//! An [`AdmissionPolicy`] bounds what the dispatcher *accepts*: instead of
//! growing the admission queue without limit, arrivals are gated on queue
//! depth, on the fleet's live KV-block occupancy (the same
//! `kv_blocks_in_use` gauges the routers read), and on per-tenant pending
//! quotas. Under pressure the sim sheds the **lowest-priority** work
//! deterministically — a higher-priority arrival evicts the youngest
//! lowest-priority queued request rather than being dropped itself — and
//! every shed is recorded in a [`ShedStats`] ledger that extends the chaos
//! invariant to `succeeded + failed + shed == offered`.
//!
//! A [`ScalePolicy`] closes the control loop: at a fixed sim-time cadence it
//! drains a replica when the fleet is cold (low KV occupancy, empty queue)
//! and warms a new one — cold prefix cache, rendezvous remap — when the
//! admission queue's head has waited too long, with cooldown hysteresis so
//! the two reactions cannot flap. Scale events go through the replica
//! lifecycle planned faults drive (drain, cold join); [`ScaleStats`] counts
//! them.
//!
//! Everything here is plain data consumed by
//! [`ClusterSim::run_overloaded`](crate::ClusterSim::run_overloaded).
//! Default-constructed policies are **inert**: they leave every branch
//! they guard in the event kernel untaken, so running with them is
//! byte-identical to running without them (with the same fault plan and
//! retry policy), the property the overload differential suite pins.

use crate::request::ClusterRequest;
use crate::sim::ClusterError;
use llmqo_serve::SimTime;
use std::collections::HashMap;

/// Bounds on what the admission queue accepts. All gates default to `None`
/// (unbounded), making [`AdmissionPolicy::default`] inert.
///
/// Decision order at each arrival: tenant quota first (over-quota arrivals
/// are shed outright — evicting another tenant's work cannot fix a quota
/// breach), then queue depth, then KV pressure. The latter two shed by
/// priority: the victim is the minimum-priority request among the arrival
/// and everything still waiting in admission, youngest first on ties (so
/// the arrival itself loses ties).
///
/// # Examples
///
/// ```
/// use llmqo_cluster::AdmissionPolicy;
///
/// let policy = AdmissionPolicy::bounded(64)
///     .with_kv_gate(0.9)
///     .with_tenant_quota(16);
/// assert!(!policy.is_inert());
/// assert!(AdmissionPolicy::default().is_inert());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdmissionPolicy {
    /// Maximum requests waiting in the global admission queue. An arrival
    /// that would exceed it sheds the lowest-priority pending request
    /// (possibly itself).
    pub max_pending: Option<usize>,
    /// Fleet-mean KV-block utilization (in-use over capacity, across
    /// routable replicas) at or above which arrivals shed by priority.
    /// Must be in `(0, 1]`.
    pub max_kv_utilization: Option<f64>,
    /// Maximum pending admission-queue requests per tenant; arrivals of an
    /// over-quota tenant are shed regardless of priority.
    pub tenant_quota: Option<usize>,
}

impl AdmissionPolicy {
    /// A policy bounding only the admission-queue depth.
    pub fn bounded(max_pending: usize) -> Self {
        AdmissionPolicy {
            max_pending: Some(max_pending),
            ..AdmissionPolicy::default()
        }
    }

    /// Adds the KV-occupancy gate.
    #[must_use]
    pub fn with_kv_gate(mut self, max_kv_utilization: f64) -> Self {
        self.max_kv_utilization = Some(max_kv_utilization);
        self
    }

    /// Adds the per-tenant pending quota.
    #[must_use]
    pub fn with_tenant_quota(mut self, quota: usize) -> Self {
        self.tenant_quota = Some(quota);
        self
    }

    /// Whether the policy gates nothing (every arrival is admitted, exactly
    /// like [`ClusterSim::run`](crate::ClusterSim::run)).
    pub fn is_inert(&self) -> bool {
        self.max_pending.is_none()
            && self.max_kv_utilization.is_none()
            && self.tenant_quota.is_none()
    }

    pub(crate) fn check(&self) -> Result<(), ClusterError> {
        let bad = |reason| Err(ClusterError::InvalidOverloadPolicy { reason });
        if self.max_pending == Some(0) {
            return bad("max_pending must be at least one");
        }
        if self
            .max_kv_utilization
            .is_some_and(|u| !(u > 0.0 && u <= 1.0))
        {
            return bad("max_kv_utilization must be in (0, 1]");
        }
        if self.tenant_quota == Some(0) {
            return bad("tenant_quota must be at least one");
        }
        Ok(())
    }
}

/// The elastic-autoscaling control loop: evaluated every
/// [`check_interval_s`](ScalePolicy::check_interval_s) seconds of sim time
/// while the job has pending work.
///
/// * **Scale up** when the admission queue's head has been waiting longer
///   than [`queue_wait_up_s`](ScalePolicy::queue_wait_up_s): a cold replica
///   (empty prefix cache) is provisioned and joins the routable fleet after
///   [`warmup_s`](ScalePolicy::warmup_s) — prefix-affinity routers then
///   remap rendezvous ranks over the larger fleet automatically.
/// * **Scale down** when the queue is empty and the fleet's mean KV
///   utilization is below [`kv_low_watermark`](ScalePolicy::kv_low_watermark):
///   the least-loaded routable replica drains gracefully and leaves for
///   good.
/// * Both directions share one [`cooldown_s`](ScalePolicy::cooldown_s)
///   hysteresis window, and the fleet is clamped to
///   `[min_replicas, max_replicas]`.
///
/// The policy is seeded: the only randomness — a deterministic jitter of
/// `warmup_s` by ±[`warmup_jitter_frac`](ScalePolicy::warmup_jitter_frac)
/// per scale-up — replays byte-for-byte from
/// [`seed`](ScalePolicy::seed).
///
/// # Examples
///
/// ```
/// use llmqo_cluster::ScalePolicy;
///
/// let policy = ScalePolicy::elastic(1, 8)
///     .reacting(0.5, 0.1)
///     .with_cadence(0.25, 1.0)
///     .with_warmup(0.5);
/// assert!(policy.max_replicas == 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalePolicy {
    /// Smallest routable fleet the policy will drain down to.
    pub min_replicas: usize,
    /// Largest fleet (including replicas still warming) it will grow to.
    pub max_replicas: usize,
    /// Scale up once the oldest pending admission entry has waited this
    /// long, seconds.
    pub queue_wait_up_s: f64,
    /// Scale down once the queue is empty and fleet-mean KV utilization is
    /// below this fraction.
    pub kv_low_watermark: f64,
    /// Control-loop cadence, sim seconds: check `k` (from 1) is due at
    /// `k × check_interval_s`, rounded once. Checks passed while the job
    /// has no work pending are not counted, and a queue stranded with no
    /// replica busy jumps to the first check that can act.
    pub check_interval_s: f64,
    /// Minimum sim seconds between consecutive scale actions (hysteresis).
    pub cooldown_s: f64,
    /// Cold-start delay before a scaled-up replica becomes routable,
    /// seconds.
    pub warmup_s: f64,
    /// Deterministic jitter amplitude on `warmup_s`, as a fraction in
    /// `[0, 1]`; each scale-up's warmup is scaled by a factor in
    /// `[1 − f, 1 + f)` drawn from [`seed`](ScalePolicy::seed).
    pub warmup_jitter_frac: f64,
    /// Seed for the warmup jitter draws.
    pub seed: u64,
}

impl ScalePolicy {
    /// A policy allowed to resize within `[min_replicas, max_replicas]`,
    /// with moderate defaults: scale up after 0.5 s of head-of-line wait,
    /// down below 10% KV utilization, checking every 0.25 s with a 1 s
    /// cooldown and a 0.5 s jitter-free warmup.
    pub fn elastic(min_replicas: usize, max_replicas: usize) -> Self {
        ScalePolicy {
            min_replicas,
            max_replicas,
            queue_wait_up_s: 0.5,
            kv_low_watermark: 0.1,
            check_interval_s: 0.25,
            cooldown_s: 1.0,
            warmup_s: 0.5,
            warmup_jitter_frac: 0.0,
            seed: 0,
        }
    }

    /// Sets the scale-up queue-wait threshold and scale-down KV watermark.
    #[must_use]
    pub fn reacting(mut self, queue_wait_up_s: f64, kv_low_watermark: f64) -> Self {
        self.queue_wait_up_s = queue_wait_up_s;
        self.kv_low_watermark = kv_low_watermark;
        self
    }

    /// Sets the check cadence and cooldown hysteresis.
    #[must_use]
    pub fn with_cadence(mut self, check_interval_s: f64, cooldown_s: f64) -> Self {
        self.check_interval_s = check_interval_s;
        self.cooldown_s = cooldown_s;
        self
    }

    /// Sets the cold-start warmup delay.
    #[must_use]
    pub fn with_warmup(mut self, warmup_s: f64) -> Self {
        self.warmup_s = warmup_s;
        self
    }

    /// Sets the seeded warmup jitter.
    #[must_use]
    pub fn with_warmup_jitter(mut self, frac: f64, seed: u64) -> Self {
        self.warmup_jitter_frac = frac;
        self.seed = seed;
        self
    }

    /// The jittered warmup delay for the `n`-th scale-up (exactly
    /// `warmup_s` without jitter). Pure and deterministic in `(seed, n)`.
    /// A checked policy's delay lies in `[0, 2·warmup_s)`, so the `ZERO`
    /// fallback never fires.
    pub(crate) fn warmup_for(&self, n: u64) -> SimTime {
        let u = llmqo_serve::fault_unit(self.seed, n, u64::from(u32::MAX) + 1);
        let jitter = 1.0 + self.warmup_jitter_frac * (2.0 * u - 1.0);
        SimTime::new(self.warmup_s * jitter).unwrap_or_default()
    }

    /// Checks every field once — the kernel's gate for the policy — and
    /// returns the check cadence, at its first check.
    pub(crate) fn check(&self, fleet: usize) -> Result<Cadence, ClusterError> {
        let bad = |reason| Err(ClusterError::InvalidOverloadPolicy { reason });
        let (time, fraction) = (|t| SimTime::new(t).is_some(), |f| (0.0..=1.0).contains(&f));
        if self.min_replicas == 0 {
            return bad("min_replicas must be at least one");
        }
        if self.max_replicas < fleet {
            return bad("max_replicas must be at least the initial fleet size");
        }
        if self.min_replicas > fleet {
            return bad("min_replicas must not exceed the initial fleet size");
        }
        if !time(self.queue_wait_up_s) {
            return bad("queue_wait_up_s must be finite and non-negative");
        }
        if !fraction(self.kv_low_watermark) {
            return bad("kv_low_watermark must be in [0, 1]");
        }
        let Some(every) = crate::fault::positive(self.check_interval_s) else {
            return bad("check_interval_s must be finite and positive");
        };
        if !time(self.cooldown_s) {
            return bad("cooldown_s must be finite and non-negative");
        }
        if !time(self.warmup_s) {
            return bad("warmup_s must be finite and non-negative");
        }
        if !fraction(self.warmup_jitter_frac) {
            return bad("warmup_jitter_frac must be in [0, 1]");
        }
        Ok(Cadence {
            every: every.secs(),
            next: 1,
        })
    }
}

/// The autoscaler's check cadence: check `k` (from 1) is due at
/// `k × every`, rounded once, and `next` is the first check not yet made.
#[derive(Clone, Copy)]
pub(crate) struct Cadence {
    every: f64,
    pub(crate) next: u64,
}

impl Cadence {
    /// Check `k`'s instant; `None` past the largest float, and for the last
    /// count, which ends the cadence.
    pub(crate) fn at(&self, k: u64) -> Option<SimTime> {
        SimTime::new(k as f64 * self.every).filter(|_| k < u64::MAX)
    }

    /// The first check from `next` on that has no instant or whose instant
    /// `due` holds at: a gallop from `next`, then a bisection. `due` must
    /// stay true once it holds.
    pub(crate) fn first(&self, due: impl Fn(SimTime) -> bool) -> u64 {
        let holds = |k| self.at(k).is_none_or(&due);
        // `holds` is true at `hi`, and false at `lo` or `lo` precedes `next`.
        let (mut lo, mut hi, mut gap) = (self.next - 1, self.next, 1);
        while !holds(hi) {
            (lo, gap) = (hi, gap * 2);
            hi = lo.saturating_add(gap);
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if holds(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }
}

/// The full overload-survival configuration for
/// [`ClusterSim::run_overloaded`](crate::ClusterSim::run_overloaded):
/// admission gates plus an optional autoscaler. The default — inert
/// admission, no scaling — changes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OverloadPolicy {
    /// Admission gates and shedding rules.
    pub admission: AdmissionPolicy,
    /// The elastic-resize control loop, if any.
    pub scale: Option<ScalePolicy>,
}

impl OverloadPolicy {
    /// Gating only: the given admission policy, no autoscaler.
    pub fn admission(admission: AdmissionPolicy) -> Self {
        OverloadPolicy {
            admission,
            scale: None,
        }
    }

    /// Adds the autoscaler.
    #[must_use]
    pub fn with_scale(mut self, scale: ScalePolicy) -> Self {
        self.scale = Some(scale);
        self
    }
}

/// The load-shedding ledger of a run, attached to
/// [`ClusterReport::shed`](crate::ClusterReport::shed). Its counters are
/// zero when no [`AdmissionPolicy`] gate fired.
///
/// The ledger extends the fault ledger's invariant: every offered request
/// is exactly one of succeeded, failed, or shed — `succeeded + failed +
/// shed == offered`, with the other three in
/// [`ClusterReport::faults`](crate::ClusterReport::faults).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShedStats {
    /// Requests shed (never placed on any replica). Always equals the sum
    /// of the three per-reason counters.
    pub shed: usize,
    /// Sheds forced by the admission-queue depth bound.
    pub shed_queue_full: usize,
    /// Sheds forced by the fleet KV-occupancy gate.
    pub shed_kv_pressure: usize,
    /// Sheds forced by a per-tenant quota.
    pub shed_tenant_quota: usize,
    /// The highest priority value among shed requests (0 when nothing was
    /// shed) — the number the zero-high-priority-loss assertions read.
    pub max_shed_priority: u8,
}

impl ShedStats {
    /// Accounts one shed request.
    pub(crate) fn record(&mut self, reason: ShedReason, priority: u8) {
        self.shed += 1;
        match reason {
            ShedReason::QueueFull => self.shed_queue_full += 1,
            ShedReason::KvPressure => self.shed_kv_pressure += 1,
            ShedReason::TenantQuota => self.shed_tenant_quota += 1,
        }
        self.max_shed_priority = self.max_shed_priority.max(priority);
    }

    /// Publishes the shed counters, one per field
    /// ([`llmqo_obs::publish`]).
    pub(crate) fn publish(&self) {
        llmqo_obs::publish(&[
            ("cluster.requests_shed", self.shed as u64),
            ("cluster.shed.queue_full", self.shed_queue_full as u64),
            ("cluster.shed.kv_pressure", self.shed_kv_pressure as u64),
            ("cluster.shed.tenant_quota", self.shed_tenant_quota as u64),
        ]);
    }
}

/// Which admission gate forced a shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShedReason {
    QueueFull,
    KvPressure,
    TenantQuota,
}

/// What the admission gates ruled for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShedDecision {
    /// No gate fired: enqueue the arrival.
    Admit,
    /// Drop the arrival itself.
    ShedArrival(ShedReason),
    /// Drop the pending request at this admission-queue position and
    /// enqueue the arrival in its stead (a higher-priority arrival evicting
    /// lower-priority queued work).
    EvictPending(usize, ShedReason),
}

/// The pending first attempts the admission gates read: counted in total, per
/// priority and, only when a tenant quota is set, per tenant. The kernel
/// updates it at every push and removal, so an arrival reads no queue.
#[derive(Debug, PartialEq)]
pub(crate) struct PendingLedger {
    first: usize,
    by_priority: [usize; 256],
    by_tenant: Option<HashMap<u32, usize>>,
}

impl PendingLedger {
    pub(crate) fn new(policy: &AdmissionPolicy) -> Self {
        PendingLedger {
            first: 0,
            by_priority: [0; 256],
            by_tenant: policy.tenant_quota.map(|_| HashMap::new()),
        }
    }

    /// Counts one first attempt of `(tenant, priority)` into the queue
    /// (`add`) or out of it.
    pub(crate) fn count(&mut self, tenant: u32, priority: u8, add: bool) {
        let step = |n: &mut usize| if add { *n += 1 } else { *n -= 1 };
        step(&mut self.first);
        step(&mut self.by_priority[usize::from(priority)]);
        if let Some(tenants) = &mut self.by_tenant {
            let held = tenants.entry(tenant).or_default();
            step(held);
            if *held == 0 {
                tenants.remove(&tenant);
            }
        }
    }

    /// Whether a pending first attempt has lower priority than `priority`:
    /// only such an attempt can be a shed victim.
    pub(crate) fn holds_below(&self, priority: u8) -> bool {
        self.by_priority[..usize::from(priority)]
            .iter()
            .any(|&n| n > 0)
    }
}

/// Applies the gates, in documented order (tenant quota → queue depth → KV
/// pressure), to `arrival` against the `pending` first attempts. When a
/// depth or KV gate fires, `victim` finds the shed victim ([`shed_victim`]
/// over the queue); it runs only if the ledger
/// [`holds_below`](PendingLedger::holds_below) the arrival's priority.
/// Deterministic.
pub(crate) fn decide_admission(
    policy: &AdmissionPolicy,
    arrival: &ClusterRequest,
    pending: &PendingLedger,
    fleet_kv_utilization: f64,
    victim: impl FnOnce() -> Option<usize>,
) -> ShedDecision {
    if let Some(quota) = policy.tenant_quota {
        let tenants = pending.by_tenant.as_ref();
        let held = tenants.and_then(|t| t.get(&arrival.tenant));
        if held.is_some_and(|&n| n >= quota) {
            return ShedDecision::ShedArrival(ShedReason::TenantQuota);
        }
    }
    let reason = if policy.max_pending.is_some_and(|m| pending.first >= m) {
        Some(ShedReason::QueueFull)
    } else if policy
        .max_kv_utilization
        .is_some_and(|gate| fleet_kv_utilization >= gate)
    {
        Some(ShedReason::KvPressure)
    } else {
        None
    };
    let Some(reason) = reason else {
        return ShedDecision::Admit;
    };
    match pending.holds_below(arrival.priority).then(victim).flatten() {
        Some(pos) => ShedDecision::EvictPending(pos, reason),
        None => ShedDecision::ShedArrival(reason),
    }
}

/// The shed victim among an arrival of `priority` and the pending first
/// attempts `(queue position, priority)`, given in queue (= age) order: the
/// minimum-priority candidate, youngest first on ties. Keeping the *last*
/// strictly-lower-priority entry implements exactly that — the arrival,
/// youngest of all, loses every tie — and `None` sheds the arrival.
pub(crate) fn shed_victim(
    pending: impl Iterator<Item = (usize, u8)>,
    priority: u8,
) -> Option<usize> {
    let mut victim: Option<(usize, u8)> = None;
    for (pos, p) in pending {
        if p < priority && victim.is_none_or(|(_, best)| p <= best) {
            victim = Some((pos, p));
        }
    }
    victim.map(|(pos, _)| pos)
}

/// Autoscaling counters of a run, attached to
/// [`ClusterReport::scaling`](crate::ClusterReport::scaling). The fleet
/// bounds start at the initial fleet, and the counters stay zero when no
/// [`ScalePolicy`] ran.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScaleStats {
    /// Control-loop evaluations, the checks a stranded queue skips included.
    pub checks: u64,
    /// Cold replicas provisioned (each joins after its warmup).
    pub scale_ups: u64,
    /// Replicas drained out of the fleet for good.
    pub scale_downs: u64,
    /// Largest fleet reached, starting from the initial fleet: replicas
    /// routable, warming, or draining or down with a rejoin scheduled.
    pub peak_replicas: usize,
    /// Smallest routable fleet size, starting from the initial fleet:
    /// lowered wherever a replica stops being routable (a crash, a fault
    /// drain or an autoscaler drain).
    pub low_replicas: usize,
}

impl ScaleStats {
    /// Publishes the scale-up and scale-down counters
    /// ([`llmqo_obs::publish`]).
    pub(crate) fn publish(&self) {
        llmqo_obs::publish(&[
            ("cluster.scale.up", self.scale_ups),
            ("cluster.scale.down", self.scale_downs),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policies_are_inert() {
        assert!(AdmissionPolicy::default().is_inert());
        assert!(AdmissionPolicy::default().check().is_ok());
        assert_eq!(OverloadPolicy::default().scale, None);
    }

    #[test]
    fn builders_compose() {
        let p = AdmissionPolicy::bounded(8)
            .with_kv_gate(0.75)
            .with_tenant_quota(2);
        assert_eq!(p.max_pending, Some(8));
        assert_eq!(p.max_kv_utilization, Some(0.75));
        assert_eq!(p.tenant_quota, Some(2));
        assert!(!p.is_inert());
        assert!(p.check().is_ok());

        let o = OverloadPolicy::admission(p).with_scale(ScalePolicy::elastic(1, 6));
        assert_eq!(o.admission, p);
        let first = o.scale.map(|s| s.check(2).map(|c| c.at(c.next)));
        assert_eq!(first, Some(Ok(SimTime::new(0.25))));
    }

    #[test]
    fn validation_rejects_bad_policies() {
        assert!(AdmissionPolicy::bounded(0).check().is_err());
        assert!(AdmissionPolicy::default()
            .with_kv_gate(0.0)
            .check()
            .is_err());
        assert!(AdmissionPolicy::default()
            .with_kv_gate(1.5)
            .check()
            .is_err());
        assert!(AdmissionPolicy::default()
            .with_tenant_quota(0)
            .check()
            .is_err());

        let base = ScalePolicy::elastic(1, 8);
        assert!(base.check(4).is_ok());
        assert!(ScalePolicy::elastic(0, 8).check(4).is_err());
        assert!(ScalePolicy::elastic(1, 2).check(4).is_err());
        assert!(ScalePolicy::elastic(5, 8).check(4).is_err());
        assert!(base.reacting(f64::NAN, 0.1).check(4).is_err());
        assert!(base.reacting(0.5, 2.0).check(4).is_err());
        assert!(base.with_cadence(0.0, 1.0).check(4).is_err());
        assert!(base.with_cadence(0.25, -1.0).check(4).is_err());
        assert!(base.with_warmup(f64::INFINITY).check(4).is_err());
        assert!(base.with_warmup_jitter(3.0, 0).check(4).is_err());
    }

    /// The search over k lands where a walk over k does, for dyadic and
    /// non-dyadic cadences alike, on the instant `k × every`; a cadence far
    /// below an ulp of its instants still gets there.
    #[test]
    fn cadence_first_lands_on_the_walked_check() {
        for every in [0.25, 0.1, 0.073_1, 1.0 / 3.0, 1e-3, 7.0] {
            for start in [1, 3, 1_000_000] {
                for until in [0.0, 0.3, 2.0, 100.0, 4_321.5, 1e6 + 77.7] {
                    if until / every - start as f64 > 5e6 {
                        continue;
                    }
                    let cadence = Cadence { every, next: start };
                    let due = |at: SimTime| at.secs() >= until;
                    let mut k = start;
                    while !cadence.at(k).is_some_and(due) {
                        k += 1;
                    }
                    let first = cadence.first(due);
                    assert_eq!(first, k, "every {every} from check {start} to {until}");
                    assert_eq!(cadence.at(k), SimTime::new(k as f64 * every));
                }
            }
        }
        let tiny = Cadence {
            every: 1e-17,
            next: 1 << 50,
        };
        let k = tiny.first(|at| at.secs() >= 1.0);
        assert!(tiny.at(k).is_some_and(|at| at.secs() >= 1.0));
        assert!(tiny.at(k - 1).is_some_and(|at| at.secs() < 1.0));
    }

    #[test]
    fn warmup_jitter_is_deterministic_and_bounded() {
        let p = ScalePolicy::elastic(1, 8)
            .with_warmup(1.0)
            .with_warmup_jitter(0.5, 42);
        for n in 0..32 {
            let w = p.warmup_for(n).secs();
            assert_eq!(w, p.warmup_for(n).secs(), "scale-up {n} replays");
            assert!((0.5..=1.5).contains(&w), "scale-up {n} jitter {w}");
        }
        assert_ne!(p.warmup_for(0), p.warmup_for(1));
        let plain = ScalePolicy::elastic(1, 8).with_warmup(1.0);
        assert_eq!(plain.warmup_for(7).secs(), 1.0);
    }
}
