//! Deterministic fault injection and failure-handling policy.
//!
//! A [`FaultPlan`] is a seeded, sim-time schedule of replica faults —
//! crashes (with optional warm restart), drains (graceful hand-off and cold
//! rejoin), straggler slowdown windows — plus a per-attempt transient error
//! rate. A [`RetryPolicy`] bounds how the cluster reacts: retry budgets with
//! exponential backoff and deterministic jitter, per-request deadlines, and
//! optional hedging. Both are plain data consumed by
//! [`ClusterSim::run_overloaded`](crate::ClusterSim::run_overloaded);
//! nothing here touches a wall clock or an OS random source, so a chaos run
//! is reproducible byte for byte from `(plan, policy, workload)` alone.
//!
//! [`FaultStats`] is the failure-metrics block the chaos run adds to its
//! [`ClusterReport`](crate::ClusterReport).

use crate::sim::ClusterError;
use llmqo_serve::fault_unit;

/// One scheduled fault in a [`FaultPlan`]. All times are sim-time seconds on
/// the shared cluster timeline; faults take effect at the targeted replica's
/// next step boundary at or after the scheduled instant (the same place
/// arrivals are delivered).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Replica `replica` fails abruptly at `at_s`: every request queued or
    /// running there fails (and re-enters the retry machinery), its prefix
    /// cache is lost, and — if `restart_s` is `Some` — a cold replacement
    /// rejoins at `max(at_s, restart_s)`.
    Crash {
        /// Target replica index.
        replica: usize,
        /// Crash instant, seconds.
        at_s: f64,
        /// Cold-restart instant, or `None` for a permanent failure.
        restart_s: Option<f64>,
    },
    /// Replica `replica` runs `factor`× slower (straggler) while the sim
    /// clock is in `[from_s, until_s)`.
    Slowdown {
        /// Target replica index.
        replica: usize,
        /// Window start, seconds (inclusive).
        from_s: f64,
        /// Window end, seconds (exclusive).
        until_s: f64,
        /// Step-time multiplier; must be ≥ 1.
        factor: f64,
    },
    /// Replica `replica` drains starting at `at_s`: it takes no new work,
    /// finishes what it holds, then leaves; a cold replacement rejoins at
    /// `max(rejoin_s, drain-complete instant)`. This is the graceful half of
    /// elastic resize.
    Drain {
        /// Target replica index.
        replica: usize,
        /// Drain start instant, seconds.
        at_s: f64,
        /// Earliest cold-rejoin instant, seconds.
        rejoin_s: f64,
    },
}

impl FaultEvent {
    /// The instant the event first takes effect.
    pub fn at_s(&self) -> f64 {
        match *self {
            FaultEvent::Crash { at_s, .. } | FaultEvent::Drain { at_s, .. } => at_s,
            FaultEvent::Slowdown { from_s, .. } => from_s,
        }
    }

    fn validate(&self, replicas: usize) -> Result<(), ClusterError> {
        let bad = |reason| Err(ClusterError::InvalidFaultPlan { reason });
        let finite_time = |t: f64| t.is_finite() && t >= 0.0;
        match *self {
            FaultEvent::Crash {
                replica,
                at_s,
                restart_s,
            } => {
                if replica >= replicas {
                    return bad("crash targets a replica outside the fleet");
                }
                if !finite_time(at_s) {
                    return bad("crash time must be finite and non-negative");
                }
                if let Some(r) = restart_s {
                    if !finite_time(r) {
                        return bad("restart time must be finite and non-negative");
                    }
                }
            }
            FaultEvent::Slowdown {
                replica,
                from_s,
                until_s,
                factor,
            } => {
                if replica >= replicas {
                    return bad("slowdown targets a replica outside the fleet");
                }
                if !finite_time(from_s) || !finite_time(until_s) || until_s <= from_s {
                    return bad("slowdown window must be finite, non-negative, and non-empty");
                }
                if !factor.is_finite() || factor < 1.0 {
                    return bad("slowdown factor must be finite and at least 1");
                }
            }
            FaultEvent::Drain {
                replica,
                at_s,
                rejoin_s,
            } => {
                if replica >= replicas {
                    return bad("drain targets a replica outside the fleet");
                }
                if !finite_time(at_s) || !finite_time(rejoin_s) {
                    return bad("drain times must be finite and non-negative");
                }
            }
        }
        Ok(())
    }
}

/// A seeded, deterministic fault schedule for
/// [`ClusterSim::run_overloaded`](crate::ClusterSim::run_overloaded).
///
/// The default plan is empty and injects nothing: running with it (and a
/// disabled [`RetryPolicy`]) is byte-identical to
/// [`ClusterSim::run`](crate::ClusterSim::run).
///
/// # Examples
///
/// ```
/// use llmqo_cluster::FaultPlan;
///
/// let plan = FaultPlan::seeded(7)
///     .crash_restart(0, 0.5, 1.5)
///     .slowdown(2, 0.2, 0.9, 4.0)
///     .transient_errors_ppm(100_000); // 10% of attempts fail
/// assert!(!plan.is_empty());
/// assert!(FaultPlan::default().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Scheduled faults, in any order.
    pub events: Vec<FaultEvent>,
    /// Probability that any single serving attempt fails with a transient
    /// error, in parts per million (`100_000` = 10%). Rolled
    /// deterministically per attempt from `seed`.
    pub transient_error_ppm: u32,
    /// Seed for every random decision the plan induces (transient rolls,
    /// backoff jitter).
    pub seed: u64,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Adds a permanent crash of `replica` at `at_s`.
    #[must_use]
    pub fn crash(mut self, replica: usize, at_s: f64) -> Self {
        self.events.push(FaultEvent::Crash {
            replica,
            at_s,
            restart_s: None,
        });
        self
    }

    /// Adds a crash of `replica` at `at_s` with a cold restart at
    /// `max(at_s, restart_s)`.
    #[must_use]
    pub fn crash_restart(mut self, replica: usize, at_s: f64, restart_s: f64) -> Self {
        self.events.push(FaultEvent::Crash {
            replica,
            at_s,
            restart_s: Some(restart_s),
        });
        self
    }

    /// Adds a straggler window: `replica` runs `factor`× slower during
    /// `[from_s, until_s)`.
    #[must_use]
    pub fn slowdown(mut self, replica: usize, from_s: f64, until_s: f64, factor: f64) -> Self {
        self.events.push(FaultEvent::Slowdown {
            replica,
            from_s,
            until_s,
            factor,
        });
        self
    }

    /// Adds a graceful drain of `replica` at `at_s` with a cold rejoin no
    /// earlier than `rejoin_s`.
    #[must_use]
    pub fn drain(mut self, replica: usize, at_s: f64, rejoin_s: f64) -> Self {
        self.events.push(FaultEvent::Drain {
            replica,
            at_s,
            rejoin_s,
        });
        self
    }

    /// Sets the per-attempt transient error probability in parts per
    /// million.
    #[must_use]
    pub fn transient_errors_ppm(mut self, ppm: u32) -> Self {
        self.transient_error_ppm = ppm;
        self
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.transient_error_ppm == 0
    }

    /// Whether serving attempt `(request_id, submission)` fails with a
    /// transient error under this plan. Pure and deterministic.
    pub(crate) fn transient_fails(&self, request_id: u64, submission: u64) -> bool {
        self.transient_error_ppm > 0
            && fault_unit(self.seed, request_id, submission)
                < f64::from(self.transient_error_ppm) / 1e6
    }

    /// The straggler multiplier in effect for `replica` at instant `t`:
    /// the product of every active slowdown window. Pure function of time.
    pub(crate) fn slowdown_at(&self, replica: usize, t: f64) -> f64 {
        let mut factor = 1.0;
        for e in &self.events {
            if let FaultEvent::Slowdown {
                replica: r,
                from_s,
                until_s,
                factor: f,
            } = *e
            {
                if r == replica && from_s <= t && t < until_s {
                    factor *= f;
                }
            }
        }
        factor
    }

    /// The next instant strictly after `t` at which `replica`'s straggler
    /// multiplier changes, if any — a macro-step horizon bound so both
    /// stepping modes evaluate every slowdown window identically.
    pub(crate) fn next_slowdown_boundary(&self, replica: usize, t: f64) -> Option<f64> {
        let mut next: Option<f64> = None;
        for e in &self.events {
            if let FaultEvent::Slowdown {
                replica: r,
                from_s,
                until_s,
                ..
            } = *e
            {
                if r != replica {
                    continue;
                }
                for b in [from_s, until_s] {
                    if b > t && next.is_none_or(|n| b < n) {
                        next = Some(b);
                    }
                }
            }
        }
        next
    }

    pub(crate) fn validate(&self, replicas: usize) -> Result<(), ClusterError> {
        for e in &self.events {
            e.validate(replicas)?;
        }
        if self.transient_error_ppm > 1_000_000 {
            return Err(ClusterError::InvalidFaultPlan {
                reason: "transient error rate exceeds 1_000_000 ppm (100%)",
            });
        }
        Ok(())
    }
}

/// How the cluster reacts to failed or slow serving attempts.
///
/// The default policy is [`disabled`](RetryPolicy::disabled): one attempt
/// per request, no deadline, no hedging — requests fail permanently on
/// their first error, and running with it plus an empty [`FaultPlan`] is
/// byte-identical to the fault-free path.
///
/// # Examples
///
/// ```
/// use llmqo_cluster::RetryPolicy;
///
/// let policy = RetryPolicy::retries(3).with_hedging(0.5).with_deadline(30.0);
/// assert_eq!(policy.max_attempts, 3);
/// assert!(RetryPolicy::disabled().is_disabled());
/// assert!(!policy.is_disabled());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total serving attempts allowed per request, **including** the first
    /// (`1` = no retries). Hedge attempts count toward the budget.
    pub max_attempts: u32,
    /// Backoff before retry attempt 2, seconds.
    pub backoff_base_s: f64,
    /// Multiplier applied to the backoff per further attempt.
    pub backoff_multiplier: f64,
    /// Upper bound on any single backoff delay, seconds.
    pub backoff_cap_s: f64,
    /// Deterministic jitter amplitude: each delay is scaled by a factor in
    /// `[1 − jitter_frac, 1 + jitter_frac)` drawn from the plan seed.
    pub jitter_frac: f64,
    /// Give up on a request this long after its first arrival, seconds.
    /// Attempts already running are not cancelled; a completion past the
    /// deadline is delivered but counted as a deadline miss (and excluded
    /// from goodput).
    pub deadline_s: Option<f64>,
    /// Issue one duplicate (hedge) attempt on a *different* replica this
    /// long after a request's first placement if it has not completed,
    /// seconds. The first completion wins; the loser's work is counted as
    /// wasted.
    pub hedge_after_s: Option<f64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::disabled()
    }
}

impl RetryPolicy {
    /// No retries, no deadline, no hedging: every request gets exactly one
    /// attempt.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base_s: 0.0,
            backoff_multiplier: 1.0,
            backoff_cap_s: 0.0,
            jitter_frac: 0.0,
            deadline_s: None,
            hedge_after_s: None,
        }
    }

    /// Exponential backoff with `max_attempts` total attempts: 50 ms base,
    /// doubling, capped at 2 s, with ±50% deterministic jitter.
    pub fn retries(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            backoff_base_s: 0.05,
            backoff_multiplier: 2.0,
            backoff_cap_s: 2.0,
            jitter_frac: 0.5,
            deadline_s: None,
            hedge_after_s: None,
        }
    }

    /// Adds hedging: a still-unfinished request gets one duplicate attempt
    /// on another replica `after_s` seconds after first placement.
    #[must_use]
    pub fn with_hedging(mut self, after_s: f64) -> Self {
        self.hedge_after_s = Some(after_s);
        self
    }

    /// Adds a per-request deadline measured from first arrival.
    #[must_use]
    pub fn with_deadline(mut self, deadline_s: f64) -> Self {
        self.deadline_s = Some(deadline_s);
        self
    }

    /// Whether the policy changes nothing relative to single-attempt
    /// serving.
    pub fn is_disabled(&self) -> bool {
        self.max_attempts <= 1 && self.deadline_s.is_none() && self.hedge_after_s.is_none()
    }

    /// The jittered backoff delay before attempt `attempt + 1` of request
    /// `id` (i.e. after `attempt` attempts have failed; the first retry
    /// passes `attempt = 1`). Pure and deterministic.
    pub(crate) fn backoff_s(&self, seed: u64, id: u64, attempt: u32) -> f64 {
        let exp = i32::try_from(attempt.saturating_sub(1)).unwrap_or(i32::MAX);
        let nominal =
            (self.backoff_base_s * self.backoff_multiplier.powi(exp)).min(self.backoff_cap_s);
        // Distinct draw stream from transient rolls: attempt numbers are
        // offset far beyond any realistic submission counter.
        let u = fault_unit(seed, id, u64::from(attempt) | (1 << 63));
        (nominal * (1.0 + self.jitter_frac * (2.0 * u - 1.0))).max(0.0)
    }

    pub(crate) fn validate(&self) -> Result<(), ClusterError> {
        let bad = |reason| Err(ClusterError::InvalidFaultPlan { reason });
        if self.max_attempts == 0 {
            return bad("retry policy must allow at least one attempt");
        }
        if !self.backoff_base_s.is_finite() || self.backoff_base_s < 0.0 {
            return bad("backoff base must be finite and non-negative");
        }
        if !self.backoff_multiplier.is_finite() || self.backoff_multiplier < 0.0 {
            return bad("backoff multiplier must be finite and non-negative");
        }
        if !self.backoff_cap_s.is_finite() || self.backoff_cap_s < 0.0 {
            return bad("backoff cap must be finite and non-negative");
        }
        if !self.jitter_frac.is_finite() || !(0.0..=1.0).contains(&self.jitter_frac) {
            return bad("jitter fraction must be in [0, 1]");
        }
        if let Some(d) = self.deadline_s {
            if !d.is_finite() || d <= 0.0 {
                return bad("deadline must be finite and positive");
            }
        }
        if let Some(h) = self.hedge_after_s {
            if !h.is_finite() || h <= 0.0 {
                return bad("hedge delay must be finite and positive");
            }
        }
        Ok(())
    }
}

/// The request ledger and failure metrics of a run, attached to
/// [`ClusterReport::faults`](crate::ClusterReport). Every run fills
/// `offered` and `succeeded`; the failure counters stay zero on a run where
/// nothing can fail.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultStats {
    /// Logical requests offered to the cluster.
    pub offered: usize,
    /// Requests that completed successfully (including late successes),
    /// each counted once however many of its attempts completed.
    pub succeeded: usize,
    /// Requests that permanently failed (budget exhausted, deadline passed,
    /// or no replica left to serve them). `succeeded + failed + shed ==
    /// offered` on every report — no request is ever silently lost — with
    /// `shed` ledgered in [`ClusterReport::shed`](crate::ClusterReport).
    pub failed: usize,
    /// Retry attempts scheduled.
    pub retries: u64,
    /// Attempts that failed with an injected transient error.
    pub transient_errors: u64,
    /// Attempts killed by a replica crash.
    pub crash_failures: u64,
    /// Replica crashes that fired.
    pub crashes: u64,
    /// Replica drains that started.
    pub drains: u64,
    /// Cold rejoins (after crash restart or drain).
    pub restarts: u64,
    /// Hedge attempts placed.
    pub hedges_issued: u64,
    /// Requests whose hedge attempt finished first.
    pub hedges_won: u64,
    /// Retry or hedge attempts placed on a different replica than the
    /// previous attempt (prefix-affinity failover included).
    pub failovers: u64,
    /// Requests that missed their deadline (failed there, or completed
    /// late).
    pub deadline_misses: u64,
    /// Requests that completed after their deadline (delivered, but not
    /// goodput).
    pub late_successes: u64,
    /// Completions that arrived after their request was already done
    /// (hedge losers racing to the finish).
    pub wasted_completions: u64,
    /// Completed replica-down windows.
    pub unavailability_windows: u64,
    /// Total replica-seconds of unavailability (open windows clipped at the
    /// makespan).
    pub unavailable_s: f64,
}

impl FaultStats {
    /// Whether the run was offered any request (`offered > 0`).
    pub fn engaged(&self) -> bool {
        self.offered > 0
    }

    /// Adds the run's fault/retry counters to the metrics registry when
    /// observability is on. Each mirrors one field of this ledger, so
    /// telemetry cannot drift from the report, and a counter the run never
    /// bumped is not registered.
    pub(crate) fn publish(&self) {
        if !llmqo_obs::enabled() {
            return;
        }
        let registry = llmqo_obs::registry();
        for (name, n) in [
            ("cluster.requests_failed", self.failed as u64),
            ("cluster.retry.scheduled", self.retries),
            ("cluster.fault.transient_errors", self.transient_errors),
            ("cluster.hedge.issued", self.hedges_issued),
            ("cluster.hedge.won", self.hedges_won),
            ("cluster.failovers", self.failovers),
            ("cluster.fault.crashes", self.crashes),
            ("cluster.fault.restarts", self.restarts),
            ("cluster.fault.drains", self.drains),
        ] {
            if n > 0 {
                registry.counter(name).add(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(!plan.transient_fails(0, 0));
        assert_eq!(plan.slowdown_at(0, 1.0), 1.0);
        assert_eq!(plan.next_slowdown_boundary(0, 0.0), None);
        assert!(plan.validate(1).is_ok());
        assert!(RetryPolicy::default().is_disabled());
        assert!(RetryPolicy::default().validate().is_ok());
    }

    #[test]
    fn transient_rate_is_roughly_honoured() {
        let plan = FaultPlan::seeded(11).transient_errors_ppm(100_000);
        let n = 10_000u64;
        let fails = (0..n).filter(|&i| plan.transient_fails(i, 0)).count();
        let frac = fails as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.02, "observed rate {frac}");
        // Deterministic: the same attempt always rolls the same way.
        for i in 0..100 {
            assert_eq!(plan.transient_fails(i, 3), plan.transient_fails(i, 3));
        }
    }

    #[test]
    fn slowdown_windows_compose_and_bound() {
        let plan = FaultPlan::seeded(0)
            .slowdown(1, 1.0, 3.0, 2.0)
            .slowdown(1, 2.0, 4.0, 3.0)
            .slowdown(0, 0.0, 10.0, 5.0);
        assert_eq!(plan.slowdown_at(1, 0.5), 1.0);
        assert_eq!(plan.slowdown_at(1, 1.5), 2.0);
        assert_eq!(plan.slowdown_at(1, 2.5), 6.0);
        assert_eq!(plan.slowdown_at(1, 3.5), 3.0);
        assert_eq!(plan.slowdown_at(1, 4.0), 1.0);
        assert_eq!(plan.next_slowdown_boundary(1, 0.0), Some(1.0));
        assert_eq!(plan.next_slowdown_boundary(1, 1.0), Some(2.0));
        assert_eq!(plan.next_slowdown_boundary(1, 3.0), Some(4.0));
        assert_eq!(plan.next_slowdown_boundary(1, 4.0), None);
        assert_eq!(plan.slowdown_at(2, 5.0), 1.0);
    }

    #[test]
    fn validation_rejects_bad_plans() {
        assert!(FaultPlan::seeded(0).crash(3, 1.0).validate(2).is_err());
        assert!(FaultPlan::seeded(0).crash(0, -1.0).validate(2).is_err());
        assert!(FaultPlan::seeded(0)
            .slowdown(0, 2.0, 1.0, 2.0)
            .validate(2)
            .is_err());
        assert!(FaultPlan::seeded(0)
            .slowdown(0, 0.0, 1.0, 0.5)
            .validate(2)
            .is_err());
        assert!(FaultPlan::seeded(0)
            .drain(0, 0.0, f64::NAN)
            .validate(2)
            .is_err());
        assert!(FaultPlan::seeded(0)
            .transient_errors_ppm(2_000_000)
            .validate(2)
            .is_err());

        let mut p = RetryPolicy::retries(0);
        assert!(p.validate().is_err());
        p = RetryPolicy::retries(3);
        p.jitter_frac = 2.0;
        assert!(p.validate().is_err());
        assert!(RetryPolicy::retries(3)
            .with_deadline(-1.0)
            .validate()
            .is_err());
        assert!(RetryPolicy::retries(3)
            .with_hedging(0.0)
            .validate()
            .is_err());
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let mut p = RetryPolicy::retries(8);
        p.jitter_frac = 0.0;
        assert_eq!(p.backoff_s(0, 1, 1), 0.05);
        assert_eq!(p.backoff_s(0, 1, 2), 0.10);
        assert_eq!(p.backoff_s(0, 1, 3), 0.20);
        assert_eq!(p.backoff_s(0, 1, 7), 2.0); // capped
        let j = RetryPolicy::retries(8);
        let d = j.backoff_s(42, 7, 2);
        assert_eq!(d, j.backoff_s(42, 7, 2));
        assert!((0.05..=0.15).contains(&d), "jittered delay {d}");
        assert_ne!(j.backoff_s(42, 7, 2), j.backoff_s(42, 8, 2));
    }
}
