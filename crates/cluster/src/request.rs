//! Cluster-level requests: an engine request tagged with its shared-prefix
//! identity and an arrival time, plus arrival-process generators.

use llmqo_serve::{SimRequest, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One request as the cluster dispatcher sees it.
#[derive(Debug, Clone)]
pub struct ClusterRequest {
    /// The underlying engine request.
    pub request: SimRequest,
    /// Shared-prefix identity (typically from
    /// [`ReorderPlan::prefix_keys`](llmqo_core::ReorderPlan::prefix_keys)):
    /// requests with equal keys share a prompt prefix, and prefix-aware
    /// routers keep them on one replica.
    pub prefix_key: u64,
    /// Arrival time on the cluster clock, seconds. `0.0` means present at
    /// job start (batch analytics).
    pub arrival_s: f64,
    /// Owning tenant, for per-tenant admission quotas
    /// ([`AdmissionPolicy::tenant_quota`](crate::AdmissionPolicy)). Tenant 0
    /// is the default single-tenant world.
    pub tenant: u32,
    /// Scheduling priority under overload: **higher values are more
    /// important** and are shed last. Priority 0 (the default) is
    /// best-effort.
    pub priority: u8,
}

impl ClusterRequest {
    /// Tags `request` with `prefix_key`, arriving at time zero as tenant 0,
    /// priority 0.
    pub fn new(request: SimRequest, prefix_key: u64) -> Self {
        ClusterRequest {
            request,
            prefix_key,
            arrival_s: 0.0,
            tenant: 0,
            priority: 0,
        }
    }

    /// Sets the arrival time.
    #[must_use]
    pub fn at(mut self, arrival_s: f64) -> Self {
        self.arrival_s = arrival_s;
        self
    }

    /// Sets the owning tenant.
    #[must_use]
    pub fn tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Sets the shedding priority (higher = shed last).
    #[must_use]
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }
}

/// Pairs a request stream with its prefix keys (schedule order must match —
/// this is the glue between a solver's [`prefix_keys`] and the requests
/// `llmqo_relational::plan_requests` built from the same plan; that crate
/// sits above this one, so the item cannot be intra-doc linked here).
///
/// [`prefix_keys`]: llmqo_core::ReorderPlan::prefix_keys
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn tag_requests(requests: Vec<SimRequest>, prefix_keys: &[u64]) -> Vec<ClusterRequest> {
    assert_eq!(
        requests.len(),
        prefix_keys.len(),
        "one prefix key per request"
    );
    requests
        .into_iter()
        .zip(prefix_keys)
        .map(|(request, &key)| ClusterRequest::new(request, key))
        .collect()
}

/// How requests arrive at the cluster's admission queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// The whole job is present at time zero (the paper's batch-analytics
    /// setting).
    Batch,
    /// Evenly spaced arrivals at `rate_rps` requests per second.
    Uniform {
        /// Arrival rate, requests per second.
        rate_rps: f64,
    },
    /// Poisson arrivals (exponential inter-arrival gaps) at `rate_rps`,
    /// deterministic for a fixed `seed`.
    Poisson {
        /// Mean arrival rate, requests per second.
        rate_rps: f64,
        /// PRNG seed; equal seeds give identical arrival sequences.
        seed: u64,
    },
}

impl ArrivalProcess {
    /// Stamps arrival times onto `requests` in order (non-decreasing). A
    /// rate that is not finite and positive stamps NaN arrivals, which a run
    /// rejects as [`ClusterError::InvalidArrival`](crate::ClusterError).
    pub fn assign(&self, requests: &mut [ClusterRequest]) {
        let checked = |rate| crate::fault::positive(rate).map_or(f64::NAN, SimTime::secs);
        match *self {
            ArrivalProcess::Batch => {
                for r in requests.iter_mut() {
                    r.arrival_s = 0.0;
                }
            }
            ArrivalProcess::Uniform { rate_rps } => {
                let rate_rps = checked(rate_rps);
                for (i, r) in requests.iter_mut().enumerate() {
                    r.arrival_s = i as f64 / rate_rps;
                }
            }
            ArrivalProcess::Poisson { rate_rps, seed } => {
                let rate_rps = checked(rate_rps);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut t = 0.0f64;
                for r in requests.iter_mut() {
                    let u: f64 = rng.random();
                    // Inverse-CDF exponential gap; (1 - u) avoids ln(0).
                    t += -(1.0 - u).ln() / rate_rps;
                    r.arrival_s = t;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reqs(n: usize) -> Vec<ClusterRequest> {
        (0..n)
            .map(|i| ClusterRequest::new(SimRequest::from_tokens(i, vec![1, 2, 3], 1), i as u64))
            .collect()
    }

    #[test]
    fn batch_arrivals_are_all_zero() {
        let mut rs = reqs(5);
        ArrivalProcess::Batch.assign(&mut rs);
        assert!(rs.iter().all(|r| r.arrival_s == 0.0));
    }

    #[test]
    fn uniform_arrivals_are_evenly_spaced() {
        let mut rs = reqs(4);
        ArrivalProcess::Uniform { rate_rps: 2.0 }.assign(&mut rs);
        let times: Vec<f64> = rs.iter().map(|r| r.arrival_s).collect();
        assert_eq!(times, vec![0.0, 0.5, 1.0, 1.5]);
    }

    #[test]
    fn poisson_arrivals_are_monotone_deterministic_and_near_rate() {
        let mut a = reqs(2000);
        let mut b = reqs(2000);
        let p = ArrivalProcess::Poisson {
            rate_rps: 10.0,
            seed: 7,
        };
        p.assign(&mut a);
        p.assign(&mut b);
        assert!(a.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert_eq!(
            a.iter().map(|r| r.arrival_s).collect::<Vec<_>>(),
            b.iter().map(|r| r.arrival_s).collect::<Vec<_>>()
        );
        let span = a.last().unwrap().arrival_s;
        let rate = 2000.0 / span;
        assert!((rate - 10.0).abs() < 1.0, "empirical rate {rate}");
        let mut c = reqs(10);
        ArrivalProcess::Poisson {
            rate_rps: 10.0,
            seed: 8,
        }
        .assign(&mut c);
        assert_ne!(a[9].arrival_s, c[9].arrival_s);
    }

    #[test]
    fn tagging_zips_keys() {
        let tagged = tag_requests(
            (0..3)
                .map(|i| SimRequest::from_tokens(i, vec![1], 1))
                .collect(),
            &[9, 9, 4],
        );
        assert_eq!(tagged[0].prefix_key, 9);
        assert_eq!(tagged[2].prefix_key, 4);
        assert_eq!(tagged[1].request.id, 1);
    }

    #[test]
    #[should_panic(expected = "one prefix key per request")]
    fn tagging_rejects_length_mismatch() {
        let _ = tag_requests(vec![SimRequest::from_tokens(0, vec![1], 1)], &[1, 2]);
    }
}
