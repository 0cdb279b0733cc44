//! Routing policies: which replica serves the next request.
//!
//! The dispatcher consults the [`Router`] at *placement* time — when a
//! request leaves the admission queue for a replica's bounded queue — with a
//! live [`ReplicaSnapshot`] of every replica. Policies therefore see
//! backpressure as it happens: a router that returns a replica whose queue
//! is full simply leaves the request at the head of the admission queue
//! until the situation changes (the dispatcher re-asks after every
//! simulation event).

use llmqo_serve::EngineSession;
use std::fmt;

/// Point-in-time view of one replica, handed to [`Router::route`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaSnapshot {
    /// Replica index in `0..replicas`.
    pub index: usize,
    /// Requests waiting in the replica's admission queue.
    pub queued: usize,
    /// Sequences currently in the replica's running batch.
    pub running: usize,
    /// KV blocks referenced or cached on the replica.
    pub kv_blocks_in_use: usize,
    /// The replica's total KV capacity in blocks.
    pub capacity_blocks: usize,
    /// The replica's local clock, seconds.
    pub clock_s: f64,
    /// Requests routed to this replica so far.
    pub assigned: usize,
    /// Whether the replica accepts new work. `false` for crashed, drained,
    /// or otherwise excluded replicas; always `true` on fault-free runs.
    pub alive: bool,
}

impl ReplicaSnapshot {
    /// Reads replica `index`'s live state off its session; `assigned` and
    /// `alive` are the dispatcher's own bookkeeping.
    pub fn observe(index: usize, session: &EngineSession, assigned: usize, alive: bool) -> Self {
        ReplicaSnapshot {
            index,
            queued: session.queued(),
            running: session.running(),
            kv_blocks_in_use: session.kv_blocks_in_use(),
            capacity_blocks: session.capacity_blocks(),
            clock_s: session.clock(),
            assigned,
            alive,
        }
    }

    /// Queued plus running work — the scalar load most policies compare.
    pub fn load(&self) -> usize {
        self.queued + self.running
    }
}

/// Picks the routable subset: the alive replicas, or — when none are (the
/// dispatcher is asking with nowhere to go) — every replica, so a policy
/// stays a total function and the dispatcher's backpressure/stall handling
/// deals with the consequences.
fn pool(replicas: &[ReplicaSnapshot]) -> impl Iterator<Item = &ReplicaSnapshot> {
    let everyone = !replicas.iter().any(|r| r.alive);
    replicas.iter().filter(move |r| r.alive || everyone)
}

/// A routing policy. Implementations must return an index `< replicas.len()`
/// and should be deterministic: the cluster simulator's reports are
/// reproducible only if its router is.
///
/// # The retry-insensitive contract
///
/// All four built-in routers ([`RoundRobin`], [`LeastLoaded`], and both
/// [`PrefixAffinity`] forms) are **pure functions of their arguments**: the
/// same `(prefix_key, replicas)` pair always yields the same choice, and a
/// consultation changes no later one. The dispatcher may therefore consult them
/// any number of times — per backpressure retry, per failover, per hedge —
/// without perturbing later decisions, which is what lets chaos re-routing
/// reuse the ordinary routing path and is the contract the macro-stepped
/// backpressure phases of ROADMAP item 3 build on. The property is enforced
/// by proptests in `tests/chaos_differential.rs`.
///
/// Custom implementations *may* be stateful (the receiver is `&mut self`),
/// but then observe one extra call per backpressure retry and forfeit the
/// guarantees above; the simulator stays correct but conservative around
/// them.
///
/// Routers should prefer replicas with [`ReplicaSnapshot::alive`] set;
/// when no alive replica exists they must still return *some* index (the
/// dispatcher treats a routed-to-down replica as backpressure).
pub trait Router {
    /// Display name used in reports.
    fn name(&self) -> &'static str;

    /// Chooses the replica for a request with `prefix_key`.
    ///
    /// Called once per placement attempt; if the chosen replica's queue is
    /// full the dispatcher retries after the next simulation event, so
    /// stateful policies observe one extra call per retry.
    fn route(&mut self, prefix_key: u64, replicas: &[ReplicaSnapshot]) -> usize;

    /// Whether this policy honors the retry-insensitive contract above: a
    /// pure function of `(prefix_key, replicas)` whose consultations mutate
    /// nothing, so the dispatcher may skip consultations it can prove would
    /// fail identically. Declaring `true` lets backpressured phases
    /// macro-step to the next timed event instead of single-stepping;
    /// declaring it falsely yields wrong (non-single-step-equivalent)
    /// schedules. Defaults to `false`, which is always safe — the
    /// dispatcher stays conservative and consults after every event.
    fn retry_insensitive(&self) -> bool {
        false
    }
}

impl fmt::Debug for dyn Router + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Router({})", self.name())
    }
}

/// Cycles through replicas in order, ignoring both load and prefix
/// identity. The classic default of dispatch layers — and the policy that
/// destroys solver-created prefix locality, since consecutive rows of a
/// shared-prefix group land on different replicas.
///
/// Stateless: the cycle position is recovered from the snapshots (total
/// placements so far, mod the routable pool), so the decision is a pure
/// function of the fleet state — see the trait-level contract. Under
/// backpressure this differs from a counter-per-consultation round-robin
/// (retries no longer advance the cycle), which only makes the policy
/// *more* round-robin: the cycle advances exactly once per placed request.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl Router for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route(&mut self, _prefix_key: u64, replicas: &[ReplicaSnapshot]) -> usize {
        let (n, placed) =
            pool(replicas).fold((0, 0), |(n, placed), r| (n + 1, placed + r.assigned));
        if n == 0 {
            return 0;
        }
        pool(replicas).nth(placed % n).map_or(0, |r| r.index)
    }

    fn retry_insensitive(&self) -> bool {
        true
    }
}

/// Sends each request to the replica with the least outstanding work
/// (queued + running), breaking ties toward lower KV pressure, then lower
/// index. Balances load tightly but is as prefix-blind as round-robin.
#[derive(Debug, Clone, Default)]
pub struct LeastLoaded;

impl Router for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn route(&mut self, _prefix_key: u64, replicas: &[ReplicaSnapshot]) -> usize {
        pool(replicas)
            .min_by_key(|r| (r.load(), r.kv_blocks_in_use, r.index))
            .map_or(0, |r| r.index)
    }

    fn retry_insensitive(&self) -> bool {
        true
    }
}

/// Consistent routing on shared-prefix identity via rendezvous (highest
/// random weight) hashing: every request with the same `prefix_key` maps to
/// the same replica, so a shared-prefix group's KV blocks are computed once
/// cluster-wide instead of once per replica. Adding or removing a replica
/// remaps only the groups whose winner changed — the standard consistent-
/// hashing property, which keeps caches warm across resizes.
///
/// The pure form ([`PrefixAffinity::default`]) always takes the top-ranked
/// replica: maximal locality, but a workload with few large prefix groups
/// can pile onto one replica and serialize the job. The bounded form
/// ([`PrefixAffinity::bounded`]) applies consistent hashing with bounded
/// loads: replicas are tried in rendezvous rank order and the first whose
/// outstanding work is below `factor ×` the cluster mean wins, so a group
/// spills to its *second*-ranked replica only while its first is genuinely
/// overloaded — trading a bounded amount of prefix recomputation for
/// parallelism.
#[derive(Debug, Clone, Default)]
pub struct PrefixAffinity {
    max_load_factor: Option<f64>,
    /// `mix(index)` of every replica index seen so far: constants of the
    /// policy, computed once.
    salts: Vec<u64>,
    /// The rendezvous weights of `key` for replica indices
    /// `0..weights.len()`. Schedule-ordered requests repeat their prefix
    /// key, so the weights are rebuilt only when the key or the fleet size
    /// changes; nothing a caller can observe depends on them being kept.
    key: u64,
    weights: Vec<u64>,
}

impl PrefixAffinity {
    /// Bounded-load affinity: spill down the rendezvous ranking whenever the
    /// candidate's queued+running work reaches `factor` times the cluster
    /// mean (`factor` ≥ 1; 1.25 is the classic choice).
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0` or is not finite.
    pub fn bounded(factor: f64) -> Self {
        assert!(
            factor >= 1.0 && factor.is_finite(),
            "load factor must be finite and at least 1.0"
        );
        PrefixAffinity {
            max_load_factor: Some(factor),
            ..PrefixAffinity::default()
        }
    }

    /// Makes `self.weights` the rendezvous weights of `prefix_key` for
    /// replica indices `0..replicas`.
    fn remember(&mut self, prefix_key: u64, replicas: usize) {
        if self.key == prefix_key && self.weights.len() == replicas {
            return;
        }
        let known = self.salts.len();
        self.salts.extend((known..replicas).map(|i| mix(i as u64)));
        self.key = prefix_key;
        self.weights.clear();
        let salts = &self.salts[..replicas];
        self.weights
            .extend(salts.iter().map(|salt| mix(prefix_key ^ salt)));
    }
}

/// SplitMix64 finalizer — mixes a (key, replica) pair into a rank.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Replica `index`'s rendezvous weight for `prefix_key`.
fn rendezvous(prefix_key: u64, index: usize) -> u64 {
    mix(prefix_key ^ mix(index as u64))
}

impl Router for PrefixAffinity {
    fn name(&self) -> &'static str {
        match self.max_load_factor {
            None => "prefix-affinity",
            Some(_) => "prefix-affinity-bounded",
        }
    }

    fn route(&mut self, prefix_key: u64, replicas: &[ReplicaSnapshot]) -> usize {
        // Ranking only the routable pool is what makes failover
        // prefix-affinity-aware: with a group's top-ranked replica down,
        // every request of the group lands on its *second*-ranked replica —
        // together, preserving locality — and returns home on rejoin.
        self.remember(prefix_key, replicas.len());
        let weights = &self.weights;
        let rank = |r: &ReplicaSnapshot| {
            // A snapshot's index is its position in every fleet this
            // workspace builds; one that is not is weighed on the spot.
            let weight = weights.get(r.index).copied();
            let weight = weight.unwrap_or_else(|| rendezvous(prefix_key, r.index));
            (weight, r.index, r.load())
        };
        let Some(factor) = self.max_load_factor else {
            return pool(replicas).map(rank).max().map_or(0, |top| top.1);
        };
        // Consistent hashing with bounded loads: capacity is `factor` times
        // the mean outstanding work counting the incoming request, so at
        // least one replica is always below it.
        let (n, total) = pool(replicas).fold((0, 0), |(n, total), r| (n + 1, total + r.load()));
        let capacity = (factor * (total + 1) as f64 / n as f64).ceil();
        // The first replica under capacity in descending rank order is the
        // top-ranked of the replicas under capacity; no ranking is built.
        let (mut top, mut top_under) = (None, None);
        for ranked in pool(replicas).map(rank) {
            top = top.max(Some(ranked));
            if (ranked.2 as f64) < capacity {
                top_under = top_under.max(Some(ranked));
            }
        }
        top_under.or(top).map_or(0, |winner| winner.1)
    }

    fn retry_insensitive(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition [`PrefixAffinity::route`] is checked against: rank the
    /// routable pool by sorting, then take the first replica under capacity.
    fn route_by_ranking(
        max_load_factor: Option<f64>,
        prefix_key: u64,
        replicas: &[ReplicaSnapshot],
    ) -> usize {
        let pool: Vec<&ReplicaSnapshot> = pool(replicas).collect();
        if pool.is_empty() {
            return 0;
        }
        let mut ranked: Vec<(u64, usize, usize)> = pool
            .iter()
            .map(|r| (mix(prefix_key ^ mix(r.index as u64)), r.index, r.load()))
            .collect();
        ranked.sort_unstable_by(|a, b| b.cmp(a));
        let Some(factor) = max_load_factor else {
            return ranked[0].1;
        };
        let total: usize = pool.iter().map(|r| r.load()).sum();
        let capacity = (factor * (total + 1) as f64 / pool.len() as f64).ceil();
        ranked
            .iter()
            .find(|&&(_, _, load)| (load as f64) < capacity)
            .unwrap_or(&ranked[0])
            .1
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// One-pass selection picks the replica the sorted ranking picks:
        /// dead replicas, nobody alive, equal loads, bounded and unbounded.
        #[test]
        fn affinity_route_matches_the_sorted_ranking(
            fleet in proptest::collection::vec((0usize..4, 0usize..3, 0u8..4), 1..=16),
            everyone_dead in 0u8..8,
            factor in proptest::sample::select(vec![None, Some(1.0), Some(1.25), Some(3.0)]),
            key in 0u64..u64::MAX,
        ) {
            let mut snaps = snapshots(
                &fleet.iter().map(|&(queued, running, _)| (queued, running)).collect::<Vec<_>>(),
            );
            for (snap, &(_, _, alive)) in snaps.iter_mut().zip(&fleet) {
                snap.alive = alive != 0 && everyone_dead != 0;
            }
            let mut router = PrefixAffinity { max_load_factor: factor, ..PrefixAffinity::default() };
            let choice = router.route(key, &snaps);
            prop_assert_eq!(choice, route_by_ranking(factor, key, &snaps));
            prop_assert!(snaps[choice].alive || snaps.iter().all(|s| !s.alive));
        }

        /// One router over a stream of calls whose keys repeat and
        /// alternate while replicas die, rejoin, join and leave between
        /// them (and, now and then, carry indices that are not their
        /// positions): the weights it remembers never show in a choice.
        #[test]
        fn affinity_route_is_the_same_whatever_it_remembers(
            keys in proptest::collection::vec(0u64..u64::MAX, 3),
            calls in proptest::collection::vec(
                (
                    0usize..3,
                    proptest::sample::select(vec![8usize, 8, 8, 5, 12]),
                    0u16..1 << 12,
                    0usize..5,
                    proptest::sample::select(vec![0usize, 0, 0, 7]),
                ),
                1..64,
            ),
            factor in proptest::sample::select(vec![None, Some(1.25)]),
        ) {
            let mut router = PrefixAffinity { max_load_factor: factor, ..PrefixAffinity::default() };
            for (key, fleet, alive, load, offset) in calls {
                let loads: Vec<_> = (0..fleet).map(|i| ((i * load) % 4, (i + load) % 3)).collect();
                let mut snaps = snapshots(&loads);
                for snap in &mut snaps {
                    snap.alive = alive >> snap.index & 1 == 1;
                    snap.index += offset;
                }
                let choice = router.route(keys[key], &snaps);
                prop_assert_eq!(choice, route_by_ranking(factor, keys[key], &snaps));
            }
        }
    }

    fn snapshots(loads: &[(usize, usize)]) -> Vec<ReplicaSnapshot> {
        loads
            .iter()
            .enumerate()
            .map(|(index, &(queued, running))| ReplicaSnapshot {
                index,
                queued,
                running,
                kv_blocks_in_use: 0,
                capacity_blocks: 1000,
                clock_s: 0.0,
                assigned: 0,
                alive: true,
            })
            .collect()
    }

    #[test]
    fn round_robin_cycles_with_placements() {
        // The cycle position is the number of placed requests, so the
        // policy walks the fleet as `assigned` counts grow — and repeating
        // the consultation on an unchanged snapshot repeats the choice.
        let mut snaps = snapshots(&[(0, 0), (0, 0), (0, 0)]);
        let mut rr = RoundRobin;
        let mut picks = Vec::new();
        for k in 0..6 {
            let choice = rr.route(k, &snaps);
            assert_eq!(choice, rr.route(k, &snaps), "retry changed the choice");
            picks.push(choice);
            snaps[choice].assigned += 1;
        }
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_dead_replicas() {
        let mut snaps = snapshots(&[(0, 0), (0, 0), (0, 0)]);
        snaps[1].alive = false;
        let mut rr = RoundRobin;
        let mut picks = Vec::new();
        for k in 0..4 {
            let choice = rr.route(k, &snaps);
            picks.push(choice);
            snaps[choice].assigned += 1;
        }
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn routers_stay_total_with_no_replica_alive() {
        let mut snaps = snapshots(&[(0, 0), (0, 0)]);
        for s in &mut snaps {
            s.alive = false;
        }
        assert!(RoundRobin.route(7, &snaps) < snaps.len());
        assert!(LeastLoaded.route(7, &snaps) < snaps.len());
        assert!(PrefixAffinity::default().route(7, &snaps) < snaps.len());
        assert!(PrefixAffinity::bounded(1.25).route(7, &snaps) < snaps.len());
    }

    #[test]
    fn least_loaded_ignores_dead_replicas() {
        let mut snaps = snapshots(&[(0, 0), (3, 2), (5, 1)]);
        snaps[0].alive = false;
        assert_eq!(LeastLoaded.route(0, &snaps), 1);
    }

    #[test]
    fn prefix_affinity_fails_over_to_next_ranked_and_returns_home() {
        let alive = snapshots(&[(0, 0); 8]);
        let mut pa = PrefixAffinity::default();
        for key in 0..100u64 {
            let home = pa.route(key, &alive);
            let mut down = alive.clone();
            down[home].alive = false;
            let failover = pa.route(key, &down);
            assert_ne!(failover, home, "key {key} routed to a dead replica");
            // Stable while down, and back home once the replica rejoins.
            assert_eq!(pa.route(key, &down), failover);
            assert_eq!(pa.route(key, &alive), home);
        }
    }

    #[test]
    fn least_loaded_picks_min_and_breaks_ties_low() {
        let mut ll = LeastLoaded;
        assert_eq!(ll.route(0, &snapshots(&[(5, 1), (0, 2), (4, 0)])), 1);
        assert_eq!(ll.route(0, &snapshots(&[(1, 1), (2, 0), (0, 2)])), 0);
    }

    #[test]
    fn bounded_affinity_spills_only_under_overload() {
        let mut pa = PrefixAffinity::bounded(1.25);
        // Balanced cluster: behaves exactly like pure affinity.
        let balanced = snapshots(&[(2, 1), (2, 1), (2, 1), (2, 1)]);
        let mut pure = PrefixAffinity::default();
        for key in 0..100u64 {
            assert_eq!(pa.route(key, &balanced), pure.route(key, &balanced));
        }
        // One replica hogging nearly all work: keys ranked onto it must
        // spill to their next-ranked replica instead.
        let skewed = snapshots(&[(40, 8), (0, 0), (0, 0), (0, 0)]);
        for key in 0..200u64 {
            assert_ne!(pa.route(key, &skewed), 0, "key {key} routed to hot spot");
        }
    }

    #[test]
    #[should_panic(expected = "at least 1.0")]
    fn bounded_affinity_rejects_sub_unit_factor() {
        let _ = PrefixAffinity::bounded(0.5);
    }

    #[test]
    fn prefix_affinity_is_sticky_per_key() {
        let snaps = snapshots(&[(0, 0); 8]);
        let mut pa = PrefixAffinity::default();
        for key in 0..200u64 {
            let first = pa.route(key, &snaps);
            for _ in 0..3 {
                assert_eq!(pa.route(key, &snaps), first);
            }
        }
    }

    #[test]
    fn prefix_affinity_spreads_keys_roughly_evenly() {
        let snaps = snapshots(&[(0, 0); 4]);
        let mut pa = PrefixAffinity::default();
        let mut counts = [0usize; 4];
        for key in 0..4000u64 {
            counts[pa.route(mix(key), &snaps)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "replica share {c} of 4000");
        }
    }

    #[test]
    fn prefix_affinity_resize_moves_only_remapped_keys() {
        let four = snapshots(&[(0, 0); 4]);
        let five = snapshots(&[(0, 0); 5]);
        let mut pa = PrefixAffinity::default();
        let moved = (0..2000u64)
            .filter(|&k| {
                let a = pa.route(k, &four);
                let b = pa.route(k, &five);
                a != b && b != 4
            })
            .count();
        // Rendezvous hashing: keys either stay or move to the new replica.
        assert_eq!(moved, 0, "{moved} keys moved between surviving replicas");
    }
}
