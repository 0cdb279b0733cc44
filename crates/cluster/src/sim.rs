//! The sharded serving simulator's public surface: [`ClusterConfig`],
//! [`ClusterError`] and [`ClusterSim`], whose two `run*` entry points are
//! one-line delegations to the event kernel (`kernel.rs`) with the fault
//! plan, retry policy and overload policy passed as data.

use crate::fault::{FaultPlan, RetryPolicy};
use crate::overload::OverloadPolicy;
use crate::report::ClusterReport;
use crate::request::ClusterRequest;
use crate::router::Router;
use llmqo_serve::{EngineError, SimEngine};
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
    /// Two requests share an engine request id in a run with a non-empty
    /// [`FaultPlan`](crate::FaultPlan) or an enabled
    /// [`RetryPolicy`](crate::RetryPolicy): attributing completions to
    /// logical requests needs unique ids. With both inert nothing is
    /// attributed, so both entry points — [`run`](crate::ClusterSim::run)
    /// and [`run_overloaded`](crate::ClusterSim::run_overloaded) alike —
    /// accept duplicates.
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
    /// Drive replicas one scheduling step per event, never macro-stepping.
    pub(crate) single_step: bool,
}

impl ClusterSim {
    /// Creates a cluster of identical replicas of `engine`.
    pub fn new(engine: SimEngine, config: ClusterConfig) -> Self {
        ClusterSim {
            engine,
            config,
            single_step: false,
        }
    }

    /// The per-replica engine template.
    pub fn engine(&self) -> &SimEngine {
        &self.engine
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The same cluster with macro-stepping off: every `run*` call on the
    /// result drives each replica one scheduling step per event. Reports
    /// are byte-identical to the macro-stepped ones for every router that
    /// meets [`Router`]'s purity requirement — this is the fine-grained
    /// oracle the differential suites compare against — and much slower on
    /// decode-heavy jobs.
    #[must_use]
    pub fn single_stepped(&self) -> ClusterSim {
        ClusterSim {
            single_step: true,
            ..self.clone()
        }
    }

    /// Serves `requests` (in arrival order) through `router` across the
    /// replica fleet and reports cluster metrics.
    ///
    /// Replicas advance via
    /// [`EngineSession::step_until`](llmqo_serve::EngineSession::step_until)
    /// with the next timed event as the horizon, so steady-state decode
    /// runs are macro-stepped instead of simulated token by token, through
    /// backpressured and failure-handling phases alike. Reports are
    /// byte-identical to [`single_stepped`](ClusterSim::single_stepped)
    /// runs for every router that meets [`Router`]'s purity requirement.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidConfig`] for a zero-replica or zero-capacity
    /// cluster, [`ClusterError::InvalidArrival`] for a NaN, infinite or
    /// negative arrival, [`ClusterError::RouterOutOfRange`] for a misbehaving router,
    /// and [`ClusterError::Engine`] when a replica rejects a request
    /// outright (model or request too large).
    pub fn run(
        &self,
        router: &mut dyn Router,
        requests: &[ClusterRequest],
    ) -> Result<ClusterReport, ClusterError> {
        self.run_overloaded(
            router,
            requests,
            &FaultPlan::default(),
            &RetryPolicy::disabled(),
            &OverloadPolicy::default(),
        )
    }

    /// [`run`](ClusterSim::run) under a deterministic [`FaultPlan`] with a
    /// [`RetryPolicy`] governing recovery, and an [`OverloadPolicy`]:
    /// KV-aware admission gates with priority load shedding, plus an
    /// optional elastic [`ScalePolicy`](crate::ScalePolicy) that drains
    /// cold replicas and warms new ones mid-job. Their docs carry the full
    /// semantics.
    ///
    /// With all three inert the result is byte-identical to
    /// [`run`](ClusterSim::run); any other configuration reproduces byte
    /// for byte from the same inputs. Every run, inert or not, fills the
    /// [`faults`](crate::ClusterReport::faults),
    /// [`shed`](crate::ClusterReport::shed) and
    /// [`scaling`](crate::ClusterReport::scaling) ledgers, and no request is
    /// ever silently lost: `succeeded + failed + shed == offered`.
    ///
    /// Unless the plan and the retry policy are both inert, requests must
    /// carry **unique** engine ids — completions are attributed back to
    /// logical requests by id.
    ///
    /// # Errors
    ///
    /// Everything [`run`](ClusterSim::run) returns, plus
    /// [`ClusterError::InvalidFaultPlan`] for malformed plans/retry
    /// policies, [`ClusterError::DuplicateRequestId`] for non-unique
    /// request ids and [`ClusterError::InvalidOverloadPolicy`] for
    /// malformed overload policies.
    ///
    /// # Examples
    ///
    /// ```
    /// use llmqo_cluster::{
    ///     ClusterConfig, ClusterRequest, ClusterSim, FaultPlan, OverloadPolicy, PrefixAffinity,
    ///     RetryPolicy,
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
    ///     .run_overloaded(
    ///         &mut PrefixAffinity::default(),
    ///         &requests,
    ///         &plan,
    ///         &RetryPolicy::retries(4),
    ///         &OverloadPolicy::default(),
    ///     )
    ///     .unwrap();
    /// let fs = &report.faults;
    /// assert_eq!(fs.offered, 16);
    /// assert_eq!(fs.succeeded + fs.failed, fs.offered);
    /// ```
    pub fn run_overloaded(
        &self,
        router: &mut dyn Router,
        requests: &[ClusterRequest],
        plan: &FaultPlan,
        retry: &RetryPolicy,
        overload: &OverloadPolicy,
    ) -> Result<ClusterReport, ClusterError> {
        crate::kernel::run(self, router, requests, plan, retry, overload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ArrivalProcess;
    use crate::router::{LeastLoaded, PrefixAffinity, ReplicaSnapshot, RoundRobin};
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
            let fine = sim(3).single_stepped().run(fine_router, &requests).unwrap();
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
                .single_stepped()
                .run(&mut LeastLoaded, &requests)
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
                .single_stepped()
                .run(&mut LeastLoaded, &requests)
                .unwrap();
            let coarse = tight().run(&mut LeastLoaded, &requests).unwrap();
            assert_eq!(fine, coarse, "least-loaded, queue_cap {cap}");
            let fine = tight()
                .single_stepped()
                .run(&mut RoundRobin, &requests)
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
    fn a_router_failing_mid_run_returns_its_error() {
        // Out of range after 300 routing calls in a job of 5 000 requests.
        // By then the helper hashing chains ahead has filled its pool of
        // chunks and waits for the kernel to read one; the kernel returns
        // the error instead, and dropping its end of the stream releases
        // the helper, so `run` returns rather than joining it forever.
        struct Tiring(usize);
        impl Router for Tiring {
            fn name(&self) -> &'static str {
                "tiring"
            }
            fn route(&mut self, _k: u64, replicas: &[ReplicaSnapshot]) -> usize {
                self.0 += 1;
                if self.0 > 300 {
                    replicas.len()
                } else {
                    self.0 % replicas.len()
                }
            }
        }
        assert!(matches!(
            sim(2).run(&mut Tiring(0), &grouped_requests(100, 50)),
            Err(ClusterError::RouterOutOfRange {
                chose: 2,
                replicas: 2
            })
        ));
    }

    #[test]
    fn a_router_panicking_mid_run_panics_out_of_run() {
        // A panic after 300 routing calls in a job of 5 000 requests, with
        // the helper waiting on a full pool. Unwinding drops the kernel's
        // end of the stream before the scope joins the helper, so the panic
        // comes back out of `run` rather than hanging it.
        struct Fragile(usize);
        impl Router for Fragile {
            fn name(&self) -> &'static str {
                "fragile"
            }
            fn route(&mut self, _k: u64, replicas: &[ReplicaSnapshot]) -> usize {
                self.0 += 1;
                if self.0 > 300 {
                    panic!("the router gave up");
                }
                self.0 % replicas.len()
            }
        }
        let requests = grouped_requests(100, 50);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim(2).run(&mut Fragile(0), &requests)
        }));
        let payload = outcome.expect_err("run panics");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"the router gave up"));
    }

    #[test]
    fn empty_job_reports_cleanly() {
        let report = sim(3).run(&mut PrefixAffinity::default(), &[]).unwrap();
        assert_eq!(report.completed, 0);
        assert_eq!(report.makespan_s, 0.0);
        assert_eq!(report.prefix_hit_rate(), 0.0);
    }

    /// The kernel checks its ledgers with `debug_assert!` on every run of a
    /// debug build: the clock is finite and monotone after each event, no
    /// request ends pending (its one outcome: done, failed or shed) or with
    /// an attempt in flight, `succeeded + failed + shed == offered`, and
    /// the per-reason shed counters partition `shed`. This cell has a
    /// crash, retries, hedges, permanent failures (transient errors past
    /// the budget) and shedding live at once, in both stepping modes, so
    /// all of them are exercised together.
    #[test]
    fn ledger_identities_hold_with_crash_retry_and_shed_live() {
        use crate::{AdmissionPolicy, FaultPlan, OverloadPolicy, RetryPolicy};
        let sim = ClusterSim::new(
            engine(),
            ClusterConfig {
                replicas: 2,
                queue_cap: 2,
            },
        );
        let mut requests: Vec<ClusterRequest> = grouped_requests(8, 8)
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.priority(u8::from(i % 4 == 0)))
            .collect();
        ArrivalProcess::Poisson {
            rate_rps: 60.0,
            seed: 2,
        }
        .assign(&mut requests);
        let plan = FaultPlan::seeded(3)
            .crash_restart(0, 0.05, 0.2)
            .transient_errors_ppm(350_000);
        let retry = RetryPolicy::retries(2).with_hedging(0.1);
        let overload = OverloadPolicy::admission(AdmissionPolicy::bounded(6));
        for sim in [sim.single_stepped(), sim] {
            let report = sim
                .run_overloaded(&mut LeastLoaded, &requests, &plan, &retry, &overload)
                .unwrap();
            let (faults, shed) = (&report.faults, &report.shed);
            assert_eq!(faults.crashes, 1);
            assert!(
                faults.retries > 0 && faults.failed > 0 && shed.shed > 0,
                "{faults:?} {shed:?}"
            );
            assert_eq!(faults.succeeded + faults.failed + shed.shed, faults.offered);
            assert_eq!(
                shed.shed_queue_full + shed.shed_kv_pressure + shed.shed_tenant_quota,
                shed.shed
            );
        }
    }
}
