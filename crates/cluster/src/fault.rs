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
use llmqo_serve::{fault_unit, SimTime};

/// One scheduled fault in a [`FaultPlan`]. All times are sim-time seconds on
/// the shared cluster timeline; faults take effect at the targeted replica's
/// next step boundary at or after the scheduled instant (the same place
/// arrivals are delivered). A plan holds its times as the caller's floats;
/// the cluster kernel's gate turns each into a [`SimTime`] once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent<T = f64> {
    /// Replica `replica` fails abruptly at `at_s`: every request queued or
    /// running there fails (and re-enters the retry machinery), its prefix
    /// cache is lost, and — if `restart_s` is `Some` — a cold replacement
    /// rejoins at `max(at_s, restart_s)`.
    Crash {
        /// Target replica index.
        replica: usize,
        /// Crash instant, seconds.
        at_s: T,
        /// Cold-restart instant, or `None` for a permanent failure.
        restart_s: Option<T>,
    },
    /// Replica `replica` runs `factor`× slower (straggler) while the sim
    /// clock is in `[from_s, until_s)`.
    Slowdown {
        /// Target replica index.
        replica: usize,
        /// Window start, seconds (inclusive).
        from_s: T,
        /// Window end, seconds (exclusive).
        until_s: T,
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
        at_s: T,
        /// Earliest cold-rejoin instant, seconds.
        rejoin_s: T,
    },
}

impl FaultEvent {
    /// The event on the sim clock, or the typed error for its first bad field.
    fn check(&self, replicas: usize) -> Result<FaultEvent<SimTime>, ClusterError> {
        let bad = |reason| ClusterError::InvalidFaultPlan { reason };
        let time = |t, reason| SimTime::new(t).ok_or(bad(reason));
        let fleet = |r, reason| (r < replicas).then_some(r).ok_or(bad(reason));
        Ok(match *self {
            FaultEvent::Crash {
                replica,
                at_s,
                restart_s,
            } => {
                let restart = |r| time(r, "restart time must be finite and non-negative");
                FaultEvent::Crash {
                    replica: fleet(replica, "crash targets a replica outside the fleet")?,
                    at_s: time(at_s, "crash time must be finite and non-negative")?,
                    restart_s: restart_s.map(restart).transpose()?,
                }
            }
            FaultEvent::Slowdown {
                replica,
                from_s,
                until_s,
                factor,
            } => {
                let replica = fleet(replica, "slowdown targets a replica outside the fleet")?;
                let window = "slowdown window must be finite, non-negative, and non-empty";
                let (from_s, until_s) = (time(from_s, window)?, time(until_s, window)?);
                if until_s <= from_s {
                    return Err(bad(window));
                }
                if !(1.0..f64::INFINITY).contains(&factor) {
                    return Err(bad("slowdown factor must be finite and at least 1"));
                }
                FaultEvent::Slowdown {
                    replica,
                    from_s,
                    until_s,
                    factor,
                }
            }
            FaultEvent::Drain {
                replica,
                at_s,
                rejoin_s,
            } => {
                let both = "drain times must be finite and non-negative";
                FaultEvent::Drain {
                    replica: fleet(replica, "drain targets a replica outside the fleet")?,
                    at_s: time(at_s, both)?,
                    rejoin_s: time(rejoin_s, both)?,
                }
            }
        })
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

    /// The plan's events on the sim clock — the kernel's gate for the plan —
    /// or the typed error for its first bad event or a rate above 100%.
    pub(crate) fn check(&self, replicas: usize) -> Result<Vec<FaultEvent<SimTime>>, ClusterError> {
        let events = self.events.iter().map(|e| e.check(replicas));
        let events = events.collect::<Result<_, _>>()?;
        if self.transient_error_ppm > 1_000_000 {
            return Err(ClusterError::InvalidFaultPlan {
                reason: "transient error rate exceeds 1_000_000 ppm (100%)",
            });
        }
        Ok(events)
    }
}

/// `x` as a sim time when it is also positive: a finite, positive float.
pub(crate) fn positive(x: f64) -> Option<SimTime> {
    SimTime::new(x).filter(|&t| t > SimTime::ZERO)
}

/// The straggler multiplier in effect for `replica` at instant `t` — the
/// product of every active slowdown window among `events`, a pure function
/// of time — and the next instant strictly after `t` at which it changes,
/// if any: a macro-step horizon bound so both stepping modes evaluate every
/// window identically.
pub(crate) fn slowdown_at(
    events: &[FaultEvent<SimTime>],
    replica: usize,
    t: SimTime,
) -> (f64, Option<SimTime>) {
    let (mut factor, mut next) = (1.0, None::<SimTime>);
    for e in events {
        if let FaultEvent::Slowdown {
            replica: r,
            from_s,
            until_s,
            factor: f,
        } = *e
        {
            if r != replica {
                continue;
            }
            if from_s <= t && t < until_s {
                factor *= f;
            }
            for b in [from_s, until_s] {
                if b > t && next.is_none_or(|n| b < n) {
                    next = Some(b);
                }
            }
        }
    }
    (factor, next)
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
    /// passes `attempt = 1`). Pure and deterministic. A checked policy's
    /// delay lies in `[0, 2·cap)`, so the `ZERO` fallback never fires.
    ///
    /// A zero base is no delay at every attempt: once the power overflows,
    /// `0 × ∞` would be NaN, and `min` would take the cap over it.
    pub(crate) fn backoff(&self, seed: u64, id: u64, attempt: u32) -> SimTime {
        if self.backoff_base_s == 0.0 {
            return SimTime::ZERO;
        }
        let exp = i32::try_from(attempt.saturating_sub(1)).unwrap_or(i32::MAX);
        let nominal =
            (self.backoff_base_s * self.backoff_multiplier.powi(exp)).min(self.backoff_cap_s);
        // Distinct draw stream from transient rolls: attempt numbers are
        // offset far beyond any realistic submission counter.
        let u = fault_unit(seed, id, u64::from(attempt) | (1 << 63));
        SimTime::new(nominal * (1.0 + self.jitter_frac * (2.0 * u - 1.0))).unwrap_or_default()
    }

    /// Checks every field once — the kernel's gate for the policy — and
    /// returns the hedge delay on the sim clock.
    pub(crate) fn check(&self) -> Result<Option<SimTime>, ClusterError> {
        let bad = |reason| Err(ClusterError::InvalidFaultPlan { reason });
        let time = |t| SimTime::new(t).is_some();
        if self.max_attempts == 0 {
            return bad("retry policy must allow at least one attempt");
        }
        if !time(self.backoff_base_s) {
            return bad("backoff base must be finite and non-negative");
        }
        if !(0.0..f64::INFINITY).contains(&self.backoff_multiplier) {
            return bad("backoff multiplier must be finite and non-negative");
        }
        if !time(self.backoff_cap_s) {
            return bad("backoff cap must be finite and non-negative");
        }
        if !(0.0..=1.0).contains(&self.jitter_frac) {
            return bad("jitter fraction must be in [0, 1]");
        }
        if self.deadline_s.is_some_and(|d| positive(d).is_none()) {
            return bad("deadline must be finite and positive");
        }
        match self.hedge_after_s.map(positive) {
            Some(None) => bad("hedge delay must be finite and positive"),
            hedge => Ok(hedge.flatten()),
        }
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

    /// Publishes the run's fault/retry counters ([`llmqo_obs::publish`]).
    /// Each mirrors one field of this ledger, so telemetry cannot drift
    /// from the report.
    pub(crate) fn publish(&self) {
        llmqo_obs::publish(&[
            ("cluster.requests_failed", self.failed as u64),
            ("cluster.retry.scheduled", self.retries),
            ("cluster.fault.transient_errors", self.transient_errors),
            ("cluster.hedge.issued", self.hedges_issued),
            ("cluster.hedge.won", self.hedges_won),
            ("cluster.failovers", self.failovers),
            ("cluster.fault.crashes", self.crashes),
            ("cluster.fault.restarts", self.restarts),
            ("cluster.fault.drains", self.drains),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: f64) -> SimTime {
        SimTime::new(secs).unwrap()
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(!plan.transient_fails(0, 0));
        assert_eq!(plan.check(1), Ok(Vec::new()));
        assert!(RetryPolicy::default().is_disabled());
        assert_eq!(RetryPolicy::default().check(), Ok(None));
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
        let events = plan.check(3).unwrap();
        let factor = |r, t| slowdown_at(&events, r, at(t)).0;
        let next_boundary = |r, t| slowdown_at(&events, r, at(t)).1.map(SimTime::secs);
        assert_eq!(factor(1, 0.5), 1.0);
        assert_eq!(factor(1, 1.5), 2.0);
        assert_eq!(factor(1, 2.5), 6.0);
        assert_eq!(factor(1, 3.5), 3.0);
        assert_eq!(factor(1, 4.0), 1.0);
        assert_eq!(next_boundary(1, 0.0), Some(1.0));
        assert_eq!(next_boundary(1, 1.0), Some(2.0));
        assert_eq!(next_boundary(1, 3.0), Some(4.0));
        assert_eq!(next_boundary(1, 4.0), None);
        assert_eq!(factor(2, 5.0), 1.0);
    }

    #[test]
    fn validation_rejects_bad_plans() {
        assert!(FaultPlan::seeded(0).crash(3, 1.0).check(2).is_err());
        assert!(FaultPlan::seeded(0).crash(0, -1.0).check(2).is_err());
        assert!(FaultPlan::seeded(0)
            .slowdown(0, 2.0, 1.0, 2.0)
            .check(2)
            .is_err());
        assert!(FaultPlan::seeded(0)
            .slowdown(0, 0.0, 1.0, 0.5)
            .check(2)
            .is_err());
        assert!(FaultPlan::seeded(0)
            .drain(0, 0.0, f64::NAN)
            .check(2)
            .is_err());
        assert!(FaultPlan::seeded(0)
            .transient_errors_ppm(2_000_000)
            .check(2)
            .is_err());

        let mut p = RetryPolicy::retries(0);
        assert!(p.check().is_err());
        p = RetryPolicy::retries(3);
        p.jitter_frac = 2.0;
        assert!(p.check().is_err());
        assert!(RetryPolicy::retries(3).with_deadline(-1.0).check().is_err());
        assert!(RetryPolicy::retries(3).with_hedging(0.0).check().is_err());
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let mut p = RetryPolicy::retries(8);
        p.jitter_frac = 0.0;
        assert_eq!(p.backoff(0, 1, 1), at(0.05));
        assert_eq!(p.backoff(0, 1, 2), at(0.10));
        assert_eq!(p.backoff(0, 1, 3), at(0.20));
        assert_eq!(p.backoff(0, 1, 7), at(2.0)); // capped
        let j = RetryPolicy::retries(8);
        let d = j.backoff(42, 7, 2).secs();
        assert_eq!(d, j.backoff(42, 7, 2).secs());
        assert!((0.05..=0.15).contains(&d), "jittered delay {d}");
        assert_ne!(j.backoff(42, 7, 2), j.backoff(42, 8, 2));
    }

    /// At multiplier 2 the power overflows from attempt 1 025 on: a zero
    /// base stays at no delay there, and a non-zero one at the cap.
    #[test]
    fn a_zero_base_never_backs_off() {
        let zero = RetryPolicy {
            backoff_base_s: 0.0,
            ..RetryPolicy::retries(8)
        };
        assert!(zero.check().is_ok());
        let capped = RetryPolicy {
            jitter_frac: 0.0,
            ..RetryPolicy::retries(8)
        };
        for attempt in [1, 1_025, 1_100, u32::MAX] {
            assert_eq!(zero.backoff(42, 7, attempt), SimTime::ZERO, "{attempt}");
        }
        for attempt in [1_025, 1_100, u32::MAX] {
            assert_eq!(capped.backoff(42, 7, attempt), at(2.0), "{attempt}");
        }
    }
}
