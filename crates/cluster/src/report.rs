//! Aggregated results of a sharded serving run.

use crate::fault::FaultStats;
use crate::overload::{ScaleStats, ShedStats};
use llmqo_serve::{percentiles, Completion, EngineReport};
use std::fmt;

/// KV-cache occupancy of one replica, sampled at every placement decision
/// the dispatcher makes for it (one sample per routed request, taken right
/// before the request is enqueued). This is where the session probes —
/// `kv_blocks_in_use` and `probe_cached_tokens` — surface in cluster
/// reports: what the router *could* have known at each decision point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReplicaOccupancy {
    /// Placement decisions sampled (== requests routed here).
    pub samples: u64,
    /// Sum over samples of KV blocks in use (cached + running).
    pub kv_blocks_sum: u64,
    /// Highest KV-blocks-in-use value seen at any placement.
    pub kv_blocks_peak: usize,
    /// The replica's total KV capacity in blocks.
    pub capacity_blocks: usize,
    /// Prompt tokens the replica's cache would have served across all
    /// requests placed on it, probed at placement time (an upper bound on
    /// realized hits: admission happens later, after possible evictions).
    pub probed_cached_tokens: u64,
}

impl ReplicaOccupancy {
    /// Mean fraction of KV capacity in use at placement time (0 when no
    /// samples were taken).
    pub fn mean_utilization(&self) -> f64 {
        if self.samples == 0 || self.capacity_blocks == 0 {
            0.0
        } else {
            self.kv_blocks_sum as f64 / (self.samples as f64 * self.capacity_blocks as f64)
        }
    }

    /// Peak fraction of KV capacity in use at placement time.
    pub fn peak_utilization(&self) -> f64 {
        if self.capacity_blocks == 0 {
            0.0
        } else {
            self.kv_blocks_peak as f64 / self.capacity_blocks as f64
        }
    }
}

/// One replica's share of the job.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaReport {
    /// The replica's aggregate engine metrics. `job_completion_time_s` is
    /// the replica's final clock on the shared timeline (including idle
    /// gaps), so the cluster makespan is the max over replicas.
    pub engine: EngineReport,
    /// Per-request completion records on this replica.
    pub completions: Vec<Completion>,
    /// Requests routed to this replica.
    pub assigned: usize,
    /// Seconds this replica spent idle waiting for work.
    pub idle_s: f64,
    /// KV occupancy sampled at the dispatcher's placement decisions.
    pub occupancy: ReplicaOccupancy,
}

impl ReplicaReport {
    /// The replica's prefix hit rate.
    pub fn prefix_hit_rate(&self) -> f64 {
        self.engine.prefix_hit_rate()
    }
}

/// Whole-cluster results for one routed job.
///
/// Equality deliberately ignores [`backpressure_macro_steps`]: it counts
/// how the dispatcher *stepped*, not what the cluster *did*, and the whole
/// point of the differential suites is asserting that macro-stepped runs
/// (counter > 0) equal their single-stepped oracles (counter == 0).
///
/// [`backpressure_macro_steps`]: ClusterReport::backpressure_macro_steps
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Routing policy name.
    pub policy: String,
    /// Per-replica breakdowns, indexed by replica.
    pub replicas: Vec<ReplicaReport>,
    /// Time the last replica finished, seconds (the sharded job-completion
    /// time — the paper's primary metric, lifted to the cluster).
    pub makespan_s: f64,
    /// Requests completed across all replicas.
    pub completed: usize,
    /// Prompt tokens across all replicas.
    pub total_prompt_tokens: u64,
    /// Prompt tokens served from some replica's prefix cache.
    pub cached_prompt_tokens: u64,
    /// Median admission-queue wait (arrival to engine admission), seconds.
    pub queue_wait_p50_s: f64,
    /// 99th-percentile queue wait, seconds.
    pub queue_wait_p99_s: f64,
    /// Worst queue wait, seconds.
    pub queue_wait_max_s: f64,
    /// Failure metrics. All zeros (and [`FaultStats::engaged`] is `false`)
    /// unless the run went through
    /// [`ClusterSim::run_with_faults`](crate::ClusterSim::run_with_faults)
    /// with a non-inert plan or policy.
    pub faults: FaultStats,
    /// Load-shedding ledger. All zeros (and [`ShedStats::engaged`] is
    /// `false`) unless the run went through a non-inert
    /// [`AdmissionPolicy`](crate::AdmissionPolicy); when engaged, every
    /// offered request is exactly one of succeeded, failed, or shed.
    pub shed: ShedStats,
    /// Elastic-autoscaling counters. All zeros unless the run went through
    /// [`ClusterSim::run_overloaded`](crate::ClusterSim::run_overloaded)
    /// with a [`ScalePolicy`](crate::ScalePolicy).
    pub scaling: ScaleStats,
    /// Backpressured phases the dispatcher collapsed into `step_until`
    /// jumps instead of single-stepping (0 for single-stepped runs and for
    /// routers that keep the conservative
    /// [`Router::retry_insensitive`](crate::Router::retry_insensitive)
    /// default). Scheduling bookkeeping, excluded from `PartialEq`.
    pub backpressure_macro_steps: u64,
}

impl PartialEq for ClusterReport {
    fn eq(&self, other: &Self) -> bool {
        let ClusterReport {
            policy,
            replicas,
            makespan_s,
            completed,
            total_prompt_tokens,
            cached_prompt_tokens,
            queue_wait_p50_s,
            queue_wait_p99_s,
            queue_wait_max_s,
            faults,
            shed,
            scaling,
            backpressure_macro_steps: _,
        } = self;
        *policy == other.policy
            && *replicas == other.replicas
            && *makespan_s == other.makespan_s
            && *completed == other.completed
            && *total_prompt_tokens == other.total_prompt_tokens
            && *cached_prompt_tokens == other.cached_prompt_tokens
            && *queue_wait_p50_s == other.queue_wait_p50_s
            && *queue_wait_p99_s == other.queue_wait_p99_s
            && *queue_wait_max_s == other.queue_wait_max_s
            && *faults == other.faults
            && *shed == other.shed
            && *scaling == other.scaling
    }
}

impl ClusterReport {
    pub(crate) fn assemble(
        policy: &str,
        replicas: Vec<ReplicaReport>,
        mut queue_waits: Vec<f64>,
    ) -> Self {
        let [queue_wait_p50_s, queue_wait_p99_s, queue_wait_max_s] =
            percentiles(&mut queue_waits, [0.50, 0.99, 1.0]);
        ClusterReport {
            policy: policy.to_owned(),
            makespan_s: replicas
                .iter()
                .map(|r| r.engine.job_completion_time_s)
                .fold(0.0, f64::max),
            completed: replicas.iter().map(|r| r.engine.completed).sum(),
            total_prompt_tokens: replicas.iter().map(|r| r.engine.total_prompt_tokens).sum(),
            cached_prompt_tokens: replicas.iter().map(|r| r.engine.cached_prompt_tokens).sum(),
            queue_wait_p50_s,
            queue_wait_p99_s,
            queue_wait_max_s,
            faults: FaultStats::default(),
            shed: ShedStats::default(),
            scaling: ScaleStats::default(),
            backpressure_macro_steps: 0,
            replicas,
        }
    }

    /// Cluster-wide prefix hit rate: cached prompt tokens over all prompt
    /// tokens, across every replica (Table 2's PHR, lifted to the cluster).
    pub fn prefix_hit_rate(&self) -> f64 {
        if self.total_prompt_tokens == 0 {
            0.0
        } else {
            self.cached_prompt_tokens as f64 / self.total_prompt_tokens as f64
        }
    }

    /// Load skew: the busiest replica's assignment count over the mean
    /// (1.0 = perfectly balanced; `replicas` = everything on one replica).
    pub fn load_skew(&self) -> f64 {
        let total: usize = self.replicas.iter().map(|r| r.assigned).sum();
        if total == 0 || self.replicas.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.replicas.len() as f64;
        let max = self.replicas.iter().map(|r| r.assigned).max().unwrap_or(0);
        max as f64 / mean
    }

    /// Completed requests per second of makespan.
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            0.0
        } else {
            self.completed as f64 / self.makespan_s
        }
    }

    /// *Useful* requests per second of makespan: successes that met their
    /// deadline, over the makespan. Distinct from
    /// [`throughput_rps`](ClusterReport::throughput_rps) under faults,
    /// where wasted hedge work and late completions inflate raw completion
    /// counts; identical to it on fault-free runs.
    pub fn goodput_rps(&self) -> f64 {
        if !self.faults.engaged() {
            return self.throughput_rps();
        }
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        let useful = self
            .faults
            .succeeded
            .saturating_sub(usize::try_from(self.faults.late_successes).unwrap_or(usize::MAX));
        useful as f64 / self.makespan_s
    }
}

impl fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "policy {:<16} replicas {:>2}  makespan {:>8.2}s  PHR {:>5.1}%  \
             skew {:>4.2}  wait p50/p99 {:>6.2}s/{:>6.2}s  done {}",
            self.policy,
            self.replicas.len(),
            self.makespan_s,
            self.prefix_hit_rate() * 100.0,
            self.load_skew(),
            self.queue_wait_p50_s,
            self.queue_wait_p99_s,
            self.completed
        )?;
        if self.faults.engaged() {
            let fs = &self.faults;
            writeln!(
                f,
                "  faults: offered {}  ok {}  failed {}  retries {}  hedges {}/{} won  \
                 failovers {}  deadline misses {}  goodput {:.2} rps  unavailable {:.2}s/{} windows",
                fs.offered,
                fs.succeeded,
                fs.failed,
                fs.retries,
                fs.hedges_won,
                fs.hedges_issued,
                fs.failovers,
                fs.deadline_misses,
                self.goodput_rps(),
                fs.unavailable_s,
                fs.unavailability_windows
            )?;
        }
        if self.shed.engaged() {
            let s = &self.shed;
            writeln!(
                f,
                "  shed: offered {}  shed {} (queue {}  kv {}  quota {})  max shed priority {}",
                s.offered,
                s.shed,
                s.shed_queue_full,
                s.shed_kv_pressure,
                s.shed_tenant_quota,
                s.max_shed_priority
            )?;
        }
        if self.scaling.engaged() {
            let s = &self.scaling;
            writeln!(
                f,
                "  scaling: checks {}  ups {}  downs {}  fleet peak/low {}/{}",
                s.checks, s.scale_ups, s.scale_downs, s.peak_replicas, s.low_replicas
            )?;
        }
        for (i, r) in self.replicas.iter().enumerate() {
            writeln!(
                f,
                "  replica {i}: assigned {:>5}  PHR {:>5.1}%  finish {:>8.2}s  idle {:>7.2}s  \
                 kv mean/peak {:>5.1}%/{:>5.1}%",
                r.assigned,
                r.prefix_hit_rate() * 100.0,
                r.engine.job_completion_time_s,
                r.idle_s,
                r.occupancy.mean_utilization() * 100.0,
                r.occupancy.peak_utilization() * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replica(assigned: usize, total: u64, cached: u64, finish: f64) -> ReplicaReport {
        ReplicaReport {
            engine: EngineReport {
                job_completion_time_s: finish,
                total_prompt_tokens: total,
                cached_prompt_tokens: cached,
                completed: assigned,
                ..EngineReport::default()
            },
            completions: Vec::new(),
            assigned,
            idle_s: 0.0,
            occupancy: ReplicaOccupancy::default(),
        }
    }

    #[test]
    fn occupancy_utilization_helpers() {
        let occ = ReplicaOccupancy {
            samples: 4,
            kv_blocks_sum: 200,
            kv_blocks_peak: 80,
            capacity_blocks: 100,
            probed_cached_tokens: 64,
        };
        assert!((occ.mean_utilization() - 0.5).abs() < 1e-12);
        assert!((occ.peak_utilization() - 0.8).abs() < 1e-12);
        assert_eq!(ReplicaOccupancy::default().mean_utilization(), 0.0);
        assert_eq!(ReplicaOccupancy::default().peak_utilization(), 0.0);
    }

    #[test]
    fn aggregates_cover_all_replicas() {
        let r = ClusterReport::assemble(
            "test",
            vec![replica(10, 1000, 500, 4.0), replica(30, 3000, 600, 9.0)],
            vec![0.5, 0.1, 2.0, 0.2],
        );
        assert_eq!(r.makespan_s, 9.0);
        assert_eq!(r.completed, 40);
        assert!((r.prefix_hit_rate() - 1100.0 / 4000.0).abs() < 1e-12);
        assert!((r.load_skew() - 1.5).abs() < 1e-12);
        assert_eq!(r.queue_wait_max_s, 2.0);
        assert_eq!(r.queue_wait_p50_s, 0.2);
        assert!((r.throughput_rps() - 40.0 / 9.0).abs() < 1e-12);
        assert!(r.to_string().contains("replica 1"));
    }

    #[test]
    fn empty_cluster_edge_cases() {
        let r = ClusterReport::assemble("empty", Vec::new(), Vec::new());
        assert_eq!(r.prefix_hit_rate(), 0.0);
        assert_eq!(r.load_skew(), 1.0);
        assert_eq!(r.throughput_rps(), 0.0);
        assert_eq!(r.queue_wait_p99_s, 0.0);
    }
}
