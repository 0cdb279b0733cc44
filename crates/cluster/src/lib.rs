//! # llmqo-cluster — prefix-affinity routing and sharded serving
//!
//! The reordering solvers in `llmqo-core` maximize KV prefix reuse for a
//! *single* serving instance. At production scale a batch analytics job is
//! sharded across many replicas, and a naive dispatcher destroys exactly the
//! locality the solver created: round-robin sends consecutive rows of a
//! shared-prefix group to different replicas, so every replica recomputes
//! (and stores) the same prefix. This crate adds the missing distribution
//! layer:
//!
//! * [`ClusterRequest`] / [`ArrivalProcess`] — engine requests tagged with a
//!   shared-prefix identity (from
//!   [`ReorderPlan::prefix_keys`](llmqo_core::ReorderPlan::prefix_keys)) and
//!   an arrival time (batch, uniform, or seeded Poisson).
//! * [`Router`] — the routing-policy trait, with three built-ins:
//!   [`RoundRobin`] (prefix-blind cycling), [`LeastLoaded`] (prefix-blind
//!   balancing), and [`PrefixAffinity`] (rendezvous hashing on the prefix
//!   key, so each shared-prefix group lands on exactly one replica).
//! * [`ClusterSim`] — a discrete-event dispatcher over N
//!   [`EngineSession`](llmqo_serve::EngineSession) replicas with bounded
//!   per-replica queues (backpressure) on one shared timeline. Its two
//!   entry points ([`run`](ClusterSim::run) and
//!   [`run_overloaded`](ClusterSim::run_overloaded)) drive one event
//!   kernel, with faults, retries, admission and scaling passed as data;
//!   [`ClusterSim::single_stepped`] turns macro-stepping off on that same
//!   loop (the differential oracle).
//! * [`ClusterReport`] — makespan, cluster-wide and per-replica prefix hit
//!   rates, queue-wait percentiles, and load skew.
//! * [`FaultPlan`] / [`RetryPolicy`] /
//!   [`ClusterSim::run_overloaded`] — deterministic, sim-time fault
//!   injection (crash/restart, drain/rejoin, straggler windows, transient
//!   errors) with bounded retries, exponential backoff + deterministic
//!   jitter, per-request deadlines, hedging, and prefix-affinity-aware
//!   failover; failure metrics land in [`ClusterReport::faults`]
//!   ([`FaultStats`]).
//! * [`AdmissionPolicy`] / [`ScalePolicy`] / [`OverloadPolicy`] — the
//!   overload-survival layer: KV-aware admission control, priority load
//!   shedding with per-tenant quotas (ledgered in [`ShedStats`], extending
//!   the zero-loss invariant to `succeeded + failed + shed == offered`,
//!   which every report satisfies, fault-free or not), and
//!   a seeded elastic autoscaler that drains replicas at low KV occupancy
//!   and warms cold ones when queue wait crosses a threshold
//!   ([`ScaleStats`]). Inert policies leave [`ClusterSim::run_overloaded`]
//!   reports byte-for-byte equal to [`ClusterSim::run`]'s.
//!
//! # Example
//!
//! Route a GGR-style grouped workload across 4 replicas and compare
//! policies:
//!
//! ```
//! use llmqo_cluster::{
//!     ClusterConfig, ClusterRequest, ClusterSim, PrefixAffinity, RoundRobin,
//! };
//! use llmqo_serve::{Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, SimEngine,
//!                   SimRequest};
//!
//! let engine = SimEngine::new(
//!     Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
//!     EngineConfig::default(),
//! );
//! let sim = ClusterSim::new(engine, ClusterConfig { replicas: 4, queue_cap: 32 });
//! // 30 groups of 8 requests sharing a 48-token prefix within each group.
//! let requests: Vec<ClusterRequest> = (0..240usize)
//!     .map(|i| {
//!         let g = (i / 8) as u32;
//!         let mut toks: Vec<u32> = (0..48).map(|j| g * 1000 + j).collect();
//!         toks.extend((0..12).map(|j| 500_000 + i as u32 * 64 + j));
//!         ClusterRequest::new(SimRequest::from_tokens(i, toks, 2), u64::from(g))
//!     })
//!     .collect();
//! let rr = sim.run(&mut RoundRobin, &requests).unwrap();
//! let pa = sim.run(&mut PrefixAffinity::default(), &requests).unwrap();
//! assert_eq!(rr.completed, 240);
//! assert!(pa.prefix_hit_rate() >= rr.prefix_hit_rate());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod fault;
mod kernel;
mod overload;
mod report;
mod request;
mod router;
mod sim;

pub use fault::{FaultEvent, FaultPlan, FaultStats, RetryPolicy};
pub use overload::{AdmissionPolicy, OverloadPolicy, ScalePolicy, ScaleStats, ShedStats};
pub use report::{ClusterReport, ReplicaOccupancy, ReplicaReport};
pub use request::{tag_requests, ArrivalProcess, ClusterRequest};
pub use router::{LeastLoaded, PrefixAffinity, ReplicaSnapshot, RoundRobin, Router};
pub use sim::{ClusterConfig, ClusterError, ClusterSim};
