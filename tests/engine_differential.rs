//! Differential contract of the event-driven engine rewrite: the
//! macro-stepping [`EngineSession`] must produce **byte-identical**
//! completions, reports, and cache statistics to [`SessionReference`] — the
//! pre-rewrite per-token loop frozen verbatim in `tests/oracles/session.rs`
//! and compiled into this suite only — across cache modes,
//! chunked-prefill pressure, sequence-slot and KV backpressure, and
//! mid-flight arrivals. The same pattern PR 2 used for the solvers
//! (`tests/solver_differential.rs`).
//!
//! Comparisons use `==` on [`SessionReport`] (f64 fields included): the
//! macro-step replays the reference's float accumulation order, so clocks
//! and times must match to the last bit, not within a tolerance.
//!
//! The same contract covers block-chain hashing: the incremental
//! [`ChainHasher`] every serving path uses must equal
//! [`BlockChain::from_fragments`] — the definition — on any *sequence* of
//! prompts, and Poisson cluster fixtures pin the full [`ClusterReport`]
//! (placement-time cache probes included) at the values the
//! re-hash-everything dispatchers produced, and the fault-free / gated
//! reports at the values of the fault-free dispatcher loop the cluster
//! event kernel replaced. Block ids are opaque, so the pins — and a
//! cache-thrashing session — must also hold with every id re-keyed
//! ([`with_root_salt`]).
//!
//! [`ClusterReport`]: llmqo::cluster::ClusterReport

mod common;
/// The frozen per-token loop, compiled into this suite only — verbatim, so
/// with the accessors nothing here calls.
#[allow(dead_code)]
mod oracles {
    pub mod session;
}

use common::{engine_with as engine, reordered_movies_requests};
use llmqo::cluster::{
    tag_requests, AdmissionPolicy, ArrivalProcess, ClusterReport, ClusterRequest, FaultPlan,
    OverloadPolicy, PrefixAffinity, RetryPolicy,
};
use llmqo::serve::{
    with_root_salt, BlockChain, ChainHasher, EngineConfig, EngineError, EngineSession, SimEngine,
    SimRequest,
};
use llmqo::tokenizer::TokenId;
use oracles::session::SessionReference;
use proptest::prelude::*;
use std::sync::Arc;

/// The frozen loop over `e`'s deployment and config.
fn reference_session(e: &SimEngine) -> SessionReference {
    SessionReference::new(e.deployment(), *e.config()).unwrap()
}

/// Drains both loops to idle and asserts identical cache stats, reports,
/// and completion streams.
fn assert_drained_equal(mut session: EngineSession, mut reference: SessionReference) {
    while session.step_until(None).unwrap() {}
    while reference.step().unwrap() {}
    assert_eq!(session.cache_stats(), reference.cache_stats());
    assert_eq!(session.finish(), reference.finish());
}

/// Engine configurations that exercise every scheduling regime: cache
/// on/off, strict vs in-flight sharing, tight and loose prefill budgets
/// (chunked-prefill pressure), and small seat counts (slot backpressure).
fn config_strategy() -> impl Strategy<Value = EngineConfig> {
    (
        prop::sample::select(vec![8usize, 16, 32]),
        prop::sample::select(vec![64usize, 512, 8192]),
        prop::sample::select(vec![2usize, 8, 256]),
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
        .prop_map(
            |(block_size, max_batch_tokens, max_num_seqs, cache, share)| EngineConfig {
                block_size,
                max_batch_tokens,
                max_num_seqs,
                enable_prefix_cache: cache,
                in_flight_sharing: share,
                ..EngineConfig::default()
            },
        )
}

/// A batch of requests with a shared instruction prefix and variable unique
/// tails / output lengths (including zero-output and long decode runs).
fn workload_strategy() -> impl Strategy<Value = Vec<SimRequest>> {
    (
        1usize..40,
        8usize..96,
        proptest::collection::vec((0usize..80, 0u32..48), 1..40),
    )
        .prop_map(|(n, shared, tails)| {
            (0..n)
                .map(|i| {
                    let (tail, output) = tails[i % tails.len()];
                    let mut toks: Vec<u32> = (0..shared as u32).collect();
                    toks.extend((0..tail as u32).map(|j| 1_000_000 + i as u32 * 512 + j));
                    SimRequest::from_tokens(i, toks, output)
                })
                .collect()
        })
}

/// The chain [`ChainHasher`] must reproduce: the from-scratch definition.
fn defined_chain(block_size: usize, prompt: &[Arc<[TokenId]>]) -> BlockChain {
    BlockChain::from_fragments(block_size, prompt.iter().map(|f| &f[..]))
}

/// How each prompt of a sequence is derived: `(op, picks, cut)`. `picks`
/// index a shared fragment pool (`true` = a fresh `Arc` of equal content);
/// `op` selects between the picks as they are, a strict prefix of the
/// previous prompt, an extension of it, and a total reshuffle of it.
type PromptOp = (u8, Vec<(usize, bool)>, usize);

/// A fragment pool (lengths 0..40, so fragments are empty, shorter than a
/// block, and longer than one) plus a sequence of prompt derivations.
fn prompt_sequence_strategy() -> impl Strategy<Value = (usize, Vec<usize>, Vec<PromptOp>)> {
    (
        1usize..=32,
        proptest::collection::vec(0usize..40, 1..10),
        proptest::collection::vec(
            (
                0u8..4,
                proptest::collection::vec((0usize..10, proptest::bool::ANY), 0..9),
                0usize..9,
            ),
            1..14,
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `ChainHasher` (slice form and borrowed-iterator form) ≡
    /// `BlockChain::from_fragments` ≡ `BlockChain::from_tokens` of the
    /// flattened prompt, over sequences of prompts: shared `Arc`s,
    /// equal-content-but-distinct `Arc`s, empty fragments and prompts,
    /// fragments straddling block boundaries (so resumes land mid-block),
    /// prefixes/extensions of the previous prompt, total reshuffles.
    #[test]
    fn chain_hasher_matches_from_fragments((block_size, pool_lens, ops) in prompt_sequence_strategy()) {
        let pool: Vec<Arc<[TokenId]>> = pool_lens
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len as u32).map(|j| i as u32 * 64 + j).collect())
            .collect();
        let mut hasher = ChainHasher::new(block_size, true);
        let mut borrowing = ChainHasher::new(block_size, true);
        let mut previous: Vec<Arc<[TokenId]>> = Vec::new();
        let mut total_tokens = 0u64;
        for (op, picks, cut) in ops {
            let picked = picks.iter().map(|&(i, fresh)| {
                let fragment = &pool[i % pool.len()];
                if fresh { Arc::from(&fragment[..]) } else { Arc::clone(fragment) }
            });
            let prompt: Vec<Arc<[TokenId]>> = match op {
                0 => picked.collect(),
                1 => previous[..cut.min(previous.len().saturating_sub(1))].to_vec(),
                2 => previous.iter().cloned().chain(picked).collect(),
                _ => previous.iter().rev().cloned().collect(),
            };
            let chain = hasher.chain(&prompt);
            prop_assert_eq!(BlockChain::from(chain), defined_chain(block_size, &prompt));
            let flat: Vec<TokenId> = prompt.iter().flat_map(|f| f.iter().copied()).collect();
            prop_assert_eq!(BlockChain::from(chain), BlockChain::from_tokens(block_size, &flat));
            // The prompt as a view: a head, then cells looked up one by one.
            let view = prompt.first().into_iter().chain((1..prompt.len()).map(|i| &prompt[i]));
            prop_assert_eq!(chain, borrowing.chain_iter(view));
            total_tokens += chain.prompt_tokens() as u64;
            for h in [&hasher, &borrowing] {
                prop_assert_eq!(h.tokens_hashed() + h.tokens_reused(), total_tokens);
            }
            prop_assert_eq!(hasher.tokens_reused(), borrowing.tokens_reused());
            previous = prompt;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batch jobs: enqueue everything, drain, compare byte for byte.
    #[test]
    fn batch_jobs_match_reference(config in config_strategy(), reqs in workload_strategy()) {
        let e = engine(config);
        let mut session = e.session().unwrap();
        let mut reference = reference_session(&e);
        for r in &reqs {
            session.enqueue_ref(r);
            reference.enqueue(r.clone());
        }
        assert_drained_equal(session, reference);
    }

    /// Mid-flight arrivals: run both loops to the same instants (the macro
    /// loop bounded by a horizon, the reference by polling the clock), feed
    /// late arrivals, drain. Timestamps, not step counts, define the
    /// rendezvous — the two loops take different numbers of calls to get
    /// there, but must pass through identical clocks.
    #[test]
    fn mid_flight_arrivals_match_reference(
        config in config_strategy(),
        first in workload_strategy(),
        second in workload_strategy(),
        cut in 1u32..40,
    ) {
        let e = engine(config);
        let mut session = e.session().unwrap();
        let mut reference = reference_session(&e);
        for r in &first {
            session.enqueue_ref(r);
            reference.enqueue(r.clone());
        }
        // Interrupt mid-flight at a workload-dependent instant.
        let t = f64::from(cut) * 0.05;
        while !session.is_idle() && session.clock() < t {
            session.step_until(Some(t)).unwrap();
        }
        while !reference.is_idle() && reference.clock() < t {
            reference.step().unwrap();
        }
        prop_assert_eq!(session.clock(), reference.clock());
        prop_assert_eq!(session.completed(), reference.completed());
        // Late arrivals land at time `t` (idle sessions fast-forward).
        session.advance_to(t);
        reference.advance_to(t);
        for r in &second {
            let mut r = r.clone();
            r.id += 10_000;
            session.enqueue_ref(&r);
            reference.enqueue(r);
        }
        assert_drained_equal(session, reference);
    }

    /// Incremental batched submission (the relational layer's lazy-LIMIT
    /// pattern): several `run_batch` calls on one persistent session.
    #[test]
    fn incremental_batches_match_reference(
        config in config_strategy(),
        reqs in workload_strategy(),
        split in 0usize..40,
    ) {
        let e = engine(config);
        let cut = split.min(reqs.len());
        let mut session = e.session().unwrap();
        let mut reference = reference_session(&e);
        let a = session.run_batch(&reqs[..cut]).unwrap().len();
        let b = reference.run_batch(&reqs[..cut]).unwrap().len();
        prop_assert_eq!(a, b);
        session.run_batch(&reqs[cut..]).unwrap();
        reference.run_batch(&reqs[cut..]).unwrap();
        assert_drained_equal(session, reference);
    }
}

#[test]
fn kv_backpressure_blocked_heads_match_reference() {
    // Requests whose combined KV footprint far exceeds capacity: the
    // admission queue's head spends most of the job blocked on memory —
    // the regime where the reference re-flattens and re-hashes the head
    // prompt every step and the macro-stepper must prove it stays blocked.
    for config in [EngineConfig::default(), EngineConfig::no_cache()] {
        let e = engine(config);
        let reqs: Vec<SimRequest> = (0..200)
            .map(|i| {
                SimRequest::from_tokens(i, (0..2048u32).map(|j| i as u32 * 4096 + j).collect(), 48)
            })
            .collect();
        let mut session = e.session().unwrap();
        let mut reference = reference_session(&e);
        for r in &reqs {
            session.enqueue_ref(r);
            reference.enqueue(r.clone());
        }
        assert_drained_equal(session, reference);
    }
}

#[test]
fn decode_heavy_lockstep_batches_match_reference() {
    // Uniform long outputs produce the deepest steady-state decode runs —
    // the macro-stepper's best case must still be bit-identical: on one
    // batch that fits in KV memory, and on the serving shape of a reordered
    // analytics job (10 000 requests of a 128-token shared prefix plus a
    // 64-token tail, cache on and off), where KV pressure also keeps the
    // admission queue's head blocked between the lockstep runs.
    let lockstep = |n: usize, shared: u32, tail: u32| -> Vec<SimRequest> {
        (0..n)
            .map(|i| {
                let mut t: Vec<u32> = (0..shared).collect();
                t.extend((0..tail).map(|j| 500_000 + i as u32 * 64 + j));
                SimRequest::from_tokens(i, t, 256)
            })
            .collect()
    };
    for (reqs, configs) in [
        (lockstep(128, 160, 32), &[EngineConfig::default()][..]),
        (
            lockstep(10_000, 128, 64),
            &[EngineConfig::default(), EngineConfig::no_cache()],
        ),
    ] {
        for &config in configs {
            let e = engine(config);
            let mut session = e.session().unwrap();
            let mut reference = reference_session(&e);
            for r in &reqs {
                session.enqueue_ref(r);
                reference.enqueue(r.clone());
            }
            assert_drained_equal(session, reference);
        }
    }
}

#[test]
fn oversized_requests_error_identically() {
    let e = engine(EngineConfig::default());
    let cap_tokens = e.deployment().kv_capacity_tokens(e.config()) as u32;
    let huge = SimRequest::from_tokens(7, (0..cap_tokens + 64).collect(), 1);
    let mut session = e.session().unwrap();
    let mut reference = reference_session(&e);
    session.enqueue_ref(&huge);
    reference.enqueue(huge.clone());
    let a = loop {
        match session.step_until(None) {
            Ok(_) => {}
            Err(err) => break err,
        }
    };
    let b = loop {
        match reference.step() {
            Ok(_) => {}
            Err(err) => break err,
        }
    };
    assert_eq!(a, b);
    assert!(matches!(a, EngineError::RequestTooLarge { id: 7, .. }));
}

#[test]
fn chain_hasher_outlives_the_previous_request() {
    // The hasher compares fragment *addresses*, so it must keep the
    // previous prompt's allocations alive: if dropping the request freed
    // them, the allocator could hand the same address to the next request's
    // different tokens and the stale checkpoint would be resumed.
    let mut hasher = ChainHasher::new(4, true);
    let fragment = |salt: u32| -> Arc<[TokenId]> { (0..10).map(|j| salt * 100 + j).collect() };
    for round in 0..64u32 {
        let request = SimRequest {
            id: round as usize,
            prompt: vec![fragment(round), fragment(round + 1000)],
            output_len: 1,
        };
        let held = Arc::downgrade(&request.prompt[0]);
        assert_eq!(
            BlockChain::from(hasher.chain(&request.prompt)),
            defined_chain(4, &request.prompt)
        );
        drop(request);
        assert!(held.upgrade().is_some(), "hasher holds the previous prompt");
    }
}

/// FNV-1a over a report's `Debug` rendering: pins every field at once.
fn report_fingerprint(report: &ClusterReport) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

/// Per replica: `(assigned, probed_cached_tokens, cached_prompt_tokens)`.
fn placement_ledger(report: &ClusterReport) -> Vec<(usize, u64, u64)> {
    report
        .replicas
        .iter()
        .map(|r| {
            (
                r.assigned,
                r.occupancy.probed_cached_tokens,
                r.engine.cached_prompt_tokens,
            )
        })
        .collect()
}

/// Keyings of the block ids every pinned fixture is re-run under (0 is
/// production's). Block ids are opaque: a report may depend on which prompts
/// share which prefixes, never on the ids' values — so the `(stamp, hash)`
/// eviction tie-break, the one place a value could leak out, must never be
/// what decides an outcome.
const ROOT_SALTS: [u64; 3] = [0, 0x9d5c_3a11_0f27_e6b4, u64::MAX];

#[test]
fn thrashing_cache_reports_do_not_depend_on_block_id_values() {
    // The pinned cluster fixtures below never fill a replica's cache, so
    // this is the fixture that puts the eviction order itself under the
    // salts: 40 prefix groups visited round-robin, ten times the KV
    // capacity in total, so group prefixes are evicted leaf-first, cascade
    // to their parents and are re-admitted over and over.
    let fragment =
        |salt: u32, len: u32| -> Arc<[TokenId]> { (0..len).map(|j| salt * 4096 + j).collect() };
    let groups: Vec<Arc<[TokenId]>> = (0..40).map(|g| fragment(g, 256)).collect();
    let requests: Vec<SimRequest> = (0..480usize)
        .map(|i| SimRequest {
            id: i,
            prompt: vec![groups[i % 40].clone(), fragment(1_000 + i as u32, 512)],
            output_len: 8,
        })
        .collect();
    for config in [
        EngineConfig::default(),
        EngineConfig {
            in_flight_sharing: false,
            ..EngineConfig::default()
        },
    ] {
        let e = engine(config);
        let run = || {
            let mut session = e.session().unwrap();
            session.run_batch(&requests).unwrap();
            (*session.cache_stats(), session.finish())
        };
        let unsalted = run();
        assert!(unsalted.0.evictions > 1_000, "the fixture must thrash");
        assert!(unsalted.1.report.cached_prompt_tokens > 0);
        for salt in &ROOT_SALTS[1..] {
            assert_eq!(with_root_salt(*salt, run), unsalted, "salt {salt:#x}");
        }
    }
}

#[test]
fn poisson_cluster_reports_are_pinned_at_the_parent_commit() {
    for salt in ROOT_SALTS {
        with_root_salt(salt, poisson_cluster_reports_match_their_pins);
    }
}

fn poisson_cluster_reports_match_their_pins() {
    // Recorded when the dispatcher still flattened and re-hashed every
    // prompt at placement, under the byte-wise FNV chain hash. Neither
    // hashing only the unshared suffix nor replacing the hash function may
    // move them: every probe, admission and eviction — the whole report —
    // depends on which prefixes prompts share, never on a block id's value.
    let (requests, keys) = reordered_movies_requests(160);
    let mut requests: Vec<ClusterRequest> = tag_requests(requests, &keys);
    ArrivalProcess::Poisson {
        rate_rps: 40.0,
        seed: 5,
    }
    .assign(&mut requests);
    let sim = common::cluster_sim(3, 4);

    let steady = sim
        .run(&mut PrefixAffinity::bounded(1.25), &requests)
        .unwrap();
    assert_eq!(steady.completed, 160);
    assert_eq!(
        placement_ledger(&steady),
        [(46, 9328, 12880), (56, 12992, 16048), (58, 15280, 16672)],
        "steady placements"
    );
    assert_eq!(
        steady.makespan_s.to_bits(),
        0x4017_f2f1_bd9c_f863,
        "steady makespan"
    );
    assert_eq!(
        report_fingerprint(&steady),
        0xbf72_9a3e_9dac_d5a9,
        "steady report"
    );

    let plan = FaultPlan::seeded(9)
        .crash_restart(1, 0.8, 1.6)
        .slowdown(0, 0.5, 1.5, 1.7);
    let chaos = sim
        .run_overloaded(
            &mut PrefixAffinity::bounded(1.25),
            &requests,
            &plan,
            &RetryPolicy::retries(3).with_hedging(0.4),
            &OverloadPolicy::admission(AdmissionPolicy::bounded(32).with_kv_gate(0.95)),
        )
        .unwrap();
    // Every event kind is live, so the pin covers retry, hedge and shed
    // placements too.
    let (faults, shed) = (&chaos.faults, &chaos.shed);
    assert_eq!(
        (
            faults.succeeded,
            faults.retries,
            faults.hedges_issued,
            shed.shed
        ),
        (136, 3, 4, 24)
    );
    assert_eq!(
        placement_ledger(&chaos),
        [(54, 13040, 15600), (36, 5904, 9072), (53, 13120, 15328)],
        "chaos placements"
    );
    assert_eq!(
        chaos.makespan_s.to_bits(),
        0x4018_cfdb_2883_e67f,
        "chaos makespan"
    );
    assert_eq!(
        report_fingerprint(&chaos),
        0x1670_b38c_6131_76b2,
        "chaos report"
    );
}

#[test]
fn reordered_relational_workload_matches_reference() {
    // End-to-end shape: a GGR-reordered movies filter workload, whose
    // requests share solver-arranged prefixes.
    let (requests, _) = reordered_movies_requests(400);

    for config in [EngineConfig::default(), EngineConfig::no_cache()] {
        let e = engine(config);
        let mut session = e.session().unwrap();
        let mut reference = reference_session(&e);
        for r in &requests {
            session.enqueue_ref(r);
            reference.enqueue(r.clone());
        }
        assert_drained_equal(session, reference);
    }
}

#[test]
fn every_enqueue_form_serves_the_same_job() {
    // A built request by reference, the same prompt as borrowed fragments,
    // and a chain hashed by the driver: one job, one report.
    let (requests, _) = reordered_movies_requests(400);
    let e = engine(EngineConfig::default());
    let mut by_ref = e.session().unwrap();
    let mut by_fragments = e.session().unwrap();
    let mut by_chain = e.session().unwrap();
    let mut hasher = e.chain_hasher();
    for r in &requests {
        by_ref.enqueue_ref(r);
        let (instruction, fields) = r.prompt.split_first().expect("instruction first");
        by_fragments.enqueue_fragments(
            r.id,
            r.output_len,
            std::iter::once(instruction).chain(fields),
        );
        by_chain.enqueue_chain(r.id, r.output_len, hasher.chain(&r.prompt));
    }
    let [by_ref, by_fragments, by_chain] = [by_ref, by_fragments, by_chain].map(|mut session| {
        while session.step_until(None).unwrap() {}
        session.finish()
    });
    assert_eq!(by_ref.completions.len(), requests.len());
    assert!(by_ref.report.cached_prompt_tokens > 0);
    assert_eq!(by_fragments, by_ref);
    assert_eq!(by_chain, by_ref);
}

/// The admission policies of [`PINNED_ADMISSION_REPORTS`], in column order;
/// `None` is plain [`ClusterSim::run`](llmqo::cluster::ClusterSim::run).
fn pinned_admission_policies() -> [Option<AdmissionPolicy>; 5] {
    [
        None,
        Some(AdmissionPolicy::bounded(6)),
        Some(AdmissionPolicy::default().with_kv_gate(0.002)),
        Some(AdmissionPolicy::default().with_tenant_quota(4)),
        Some(
            AdmissionPolicy::bounded(6)
                .with_kv_gate(0.002)
                .with_tenant_quota(4),
        ),
    ]
}

/// `report_fingerprint` of `run` / `run_admitted` on the overload suite's
/// workload, recorded at the parent commit on the fault-free dispatcher loop
/// (`sim.rs::run_impl`) before it was deleted. Rows: `queue_cap` 16 then 1,
/// each × the four built-in routers in `common::routers()` order; columns:
/// `pinned_admission_policies()`.
const PINNED_ADMISSION_REPORTS: [[u64; 5]; 8] = [
    [
        0x240d_3cc8_b32a_5bde,
        0x31d5_63be_cbd3_7505,
        0x7181_0e95_c683_021e,
        0x31d5_63be_cbd3_7505,
        0x7181_0e95_c683_021e,
    ],
    [
        0xe346_4196_4f05_d0e2,
        0x73bf_a2d6_ce82_97b9,
        0xa823_89f6_a249_25ee,
        0x73bf_a2d6_ce82_97b9,
        0xa823_89f6_a249_25ee,
    ],
    [
        0xfe62_2f37_6de5_d7ed,
        0xa17b_06c1_3689_593c,
        0x806c_1e04_ea66_3515,
        0xa17b_06c1_3689_593c,
        0x806c_1e04_ea66_3515,
    ],
    [
        0x95c2_729c_f36a_c5b2,
        0xbf33_b1de_f411_9609,
        0x7769_0872_c255_2930,
        0xbf33_b1de_f411_9609,
        0x7769_0872_c255_2930,
    ],
    [
        0xa0a0_4066_eb62_f09a,
        0x0501_b409_379e_0be1,
        0x1be3_70d9_4824_f3c6,
        0x1e7d_2241_70ed_ae38,
        0x35af_8d96_e3a9_fdd6,
    ],
    [
        0xd3cb_edfc_9bb2_bc2e,
        0x8520_c799_1cd0_a66a,
        0xbda8_a67f_2183_fcac,
        0x89f3_12bc_221d_a715,
        0xd3c0_d054_0893_b62f,
    ],
    [
        0x3a51_36da_468a_df94,
        0x6f15_3098_b4b9_71aa,
        0x359c_d327_c8bb_c9fd,
        0x5617_6939_17e2_760d,
        0x78cf_4d7f_cf2a_af0c,
    ],
    [
        0xe7a3_78f2_c117_df35,
        0xf260_fc47_840c_01b2,
        0x691d_18c6_6e08_576d,
        0xe934_f0ee_4017_e341,
        0x461f_b03e_db62_22e7,
    ],
];

#[test]
fn fault_free_and_gated_reports_are_pinned_at_the_deleted_loop() {
    for salt in ROOT_SALTS {
        with_root_salt(salt, fault_free_and_gated_reports_match_their_pins);
    }
}

fn fault_free_and_gated_reports_match_their_pins() {
    let mut requests = common::prioritized_workload(12, 6, 4);
    ArrivalProcess::Poisson {
        rate_rps: 50.0,
        seed: 3,
    }
    .assign(&mut requests);
    let mut rows = PINNED_ADMISSION_REPORTS.iter();
    let mut shed_cells = 0;
    for queue_cap in [16usize, 1] {
        let sim = common::cluster_sim(3, queue_cap);
        for mut router in common::routers() {
            let pinned = rows.next().expect("one row per cap and router");
            for (policy, &want) in pinned_admission_policies().iter().zip(pinned) {
                let report = match policy {
                    None => sim.run(router.as_mut(), &requests),
                    Some(p) => sim.run_admitted(router.as_mut(), &requests, p),
                }
                .unwrap();
                assert_eq!(report.completed + report.shed.shed, requests.len());
                shed_cells += usize::from(report.shed.shed > 0);
                assert_eq!(
                    report_fingerprint(&report),
                    want,
                    "{} cap {queue_cap} {policy:?}: got {:#018x}",
                    report.policy,
                    report_fingerprint(&report)
                );
            }
        }
    }
    // The gates bite: the pin covers shedding by every reason, not only
    // gated runs that admit everything.
    assert!(shed_cells >= 16, "only {shed_cells} cells shed");
}
