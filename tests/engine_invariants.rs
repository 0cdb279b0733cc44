//! Property-based tests over the serving simulator (DESIGN.md §4 invariants
//! 5–6): token conservation, completion, monotonicity, and determinism.

use llmqo::serve::{
    Deployment, EngineConfig, EngineError, GpuCluster, GpuSpec, ModelSpec, SimEngine, SimRequest,
    SimTime,
};
use proptest::prelude::*;

fn engine(cache: bool) -> SimEngine {
    let config = if cache {
        EngineConfig::default()
    } else {
        EngineConfig::no_cache()
    };
    SimEngine::new(
        Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
        config,
    )
}

/// Strategy: a batch of requests with a shared instruction prefix and
/// variable unique tails / output lengths.
fn workload_strategy() -> impl Strategy<Value = Vec<SimRequest>> {
    (
        1usize..60,
        16usize..128,
        proptest::collection::vec((0usize..96, 0u32..12), 1..60),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conservation_and_completion(reqs in workload_strategy()) {
        let r = engine(true).run(&reqs).unwrap();
        prop_assert_eq!(r.completed, reqs.len());
        prop_assert_eq!(
            r.cached_prompt_tokens + r.computed_prompt_tokens,
            r.total_prompt_tokens
        );
        let expected_prompt: u64 = reqs.iter().map(|q| q.prompt_len() as u64).sum();
        prop_assert_eq!(r.total_prompt_tokens, expected_prompt);
        let expected_output: u64 = reqs.iter().map(|q| u64::from(q.output_len)).sum();
        prop_assert_eq!(r.total_output_tokens, expected_output);
        prop_assert!(r.prefix_hit_rate() >= 0.0 && r.prefix_hit_rate() <= 1.0);
    }

    #[test]
    fn no_cache_never_caches_and_never_wins(reqs in workload_strategy()) {
        let cached = engine(true).run(&reqs).unwrap();
        let uncached = engine(false).run(&reqs).unwrap();
        prop_assert_eq!(uncached.cached_prompt_tokens, 0);
        prop_assert!(
            uncached.job_completion_time_s >= cached.job_completion_time_s - 1e-9
        );
    }

    #[test]
    fn simulation_is_deterministic(reqs in workload_strategy()) {
        let a = engine(true).run(&reqs).unwrap();
        let b = engine(true).run(&reqs).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn block_size_preserves_conservation(bs in prop::sample::select(vec![8usize, 16, 32])) {
        let reqs: Vec<SimRequest> = (0..40)
            .map(|i| {
                let mut t: Vec<u32> = (0..100).collect();
                t.extend((0..30u32).map(|j| 5_000 + i as u32 * 64 + j));
                SimRequest::from_tokens(i, t, 3)
            })
            .collect();
        let e = SimEngine::new(
            Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
            EngineConfig { block_size: bs, ..EngineConfig::default() },
        );
        let r = e.run(&reqs).unwrap();
        prop_assert_eq!(r.completed, 40);
        prop_assert_eq!(
            r.cached_prompt_tokens + r.computed_prompt_tokens,
            r.total_prompt_tokens
        );
    }
}

/// Values a config field is set to: zero, the least valid, a small and a
/// huge count and the largest for counts; zero, both signs of zero and of
/// infinity, NaN, a negative, a tiny, a valid, the largest valid, an
/// over-range and two huge values for floats.
const COUNTS: [u64; 5] = [0, 1, 7, 1 << 40, u64::MAX];
const FLOATS: [f64; 12] = [
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -1.0,
    1e-300,
    0.5,
    1.0,
    2.0,
    1e300,
    f64::MAX,
];

/// Sets field `field` of `config` to value `pick` of its kind.
fn set_field(config: &mut EngineConfig, field: usize, pick: usize) {
    let (n, x) = (COUNTS[pick % COUNTS.len()], FLOATS[pick % FLOATS.len()]);
    let count = usize::try_from(n).unwrap_or(usize::MAX);
    match field {
        0 => config.block_size = count,
        1 => config.max_num_seqs = count,
        2 => config.max_batch_tokens = count,
        3 => config.runtime_reserve_bytes = n,
        4 => config.gpu_memory_utilization = x,
        5 => config.step_overhead_s = x,
        _ => config.per_request_overhead_s = x,
    }
}

/// Engine steps (`step_until` calls) four short prompts may take under any
/// config the gate lets through: one prefill token a step at worst.
const STEP_BOUND: usize = 4_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A config with fields set to 0, NaN, ±∞, negative or huge values
    /// fails fast: the session it opens is a typed error, or it serves four
    /// prompts within a bounded number of steps on a finite clock (or says
    /// which request can never fit, or which step would overflow the
    /// clock), and `SimEngine::run` ends the same way. Nothing panics and
    /// nothing spins.
    #[test]
    fn a_bad_config_fails_fast_and_typed(
        fields in proptest::collection::vec((0usize..7, 0usize..12), 1..3),
        gpus in prop::sample::select(vec![1u32, 2]),
    ) {
        let mut config = EngineConfig::default();
        for &(field, pick) in &fields {
            set_field(&mut config, field, pick);
        }
        let cluster = GpuCluster::tensor_parallel(GpuSpec::l4(), gpus);
        let e = SimEngine::new(Deployment::new(ModelSpec::llama3_8b(), cluster), config);
        // Two prompts of each of two 40-token prefixes.
        let prompt = |i: usize| (0..40).map(|t| t + 100 * (i as u32 % 2)).collect();
        let reqs: Vec<SimRequest> =
            (0..4).map(|i| SimRequest::from_tokens(i, prompt(i), 3)).collect();
        let stepped = match e.session() {
            Err(err) => {
                // The model is too large only when its weights (and the
                // runtime reserve) leave no KV token in usable memory.
                let no_kv = e.deployment().kv_capacity_tokens(&config) == 0;
                let typed = match err {
                    EngineError::InvalidConfig { .. } => true,
                    EngineError::ModelTooLarge { .. } => no_kv,
                    _ => false,
                };
                prop_assert!(typed, "{config:?}: {err:?}");
                Err(err)
            }
            Ok(mut session) => {
                let mut hasher = e.chain_hasher();
                for r in &reqs {
                    let chain = hasher.chain(&r.prompt);
                    session.enqueue_chain(r.id, r.output_len, chain, SimTime::ZERO);
                }
                let mut steps = 0;
                let drained = loop {
                    match session.step_until(None) {
                        Ok(true) => steps += 1,
                        Ok(false) => break Ok(()),
                        Err(err) => break Err(err),
                    }
                    prop_assert!(steps <= STEP_BOUND, "{config:?} still busy after {steps} steps");
                };
                match drained {
                    Ok(()) => {
                        let out = session.finish().report;
                        prop_assert_eq!(out.completed, 4);
                        let times = [
                            out.job_completion_time_s,
                            out.prefill_time_s,
                            out.decode_time_s,
                            out.overhead_time_s,
                            out.ttft_p99_s,
                            out.latency_p99_s,
                        ];
                        prop_assert!(times.iter().all(|t| t.is_finite()), "{config:?}: {out:?}");
                        Ok(out)
                    }
                    Err(err) => {
                        let typed = matches!(
                            err,
                            EngineError::RequestTooLarge { .. } | EngineError::ClockOverflow { .. }
                        );
                        prop_assert!(typed, "{config:?}: {err:?}");
                        Err(err)
                    }
                }
            }
        };
        // A NaN field is no value equal to itself: compare the texts.
        prop_assert_eq!(format!("{:?}", e.run(&reqs)), format!("{stepped:?}"));
    }
}

#[test]
fn fragment_sharing_equals_flat_prompts() {
    // A prompt supplied as shared fragments must behave exactly like the
    // same tokens supplied flat.
    use std::sync::Arc;
    let shared: Arc<[u32]> = Arc::from((0..64u32).collect::<Vec<_>>().into_boxed_slice());
    let fragmented: Vec<SimRequest> = (0..20)
        .map(|i| SimRequest {
            id: i,
            prompt: vec![
                shared.clone(),
                Arc::from(
                    (0..32u32)
                        .map(|j| 9_000 + i as u32 * 100 + j)
                        .collect::<Vec<_>>()
                        .into_boxed_slice(),
                ),
            ],
            output_len: 2,
        })
        .collect();
    let flat: Vec<SimRequest> = fragmented
        .iter()
        .map(|r| {
            let mut toks = Vec::new();
            for f in &r.prompt {
                toks.extend_from_slice(f);
            }
            SimRequest::from_tokens(r.id, toks, r.output_len)
        })
        .collect();
    let a = engine(true).run(&fragmented).unwrap();
    let b = engine(true).run(&flat).unwrap();
    assert_eq!(a, b);
}

#[test]
fn memory_pressure_reduces_but_never_deadlocks() {
    // Requests whose combined KV footprint far exceeds capacity must still
    // all complete (admission waits for completions).
    let reqs: Vec<SimRequest> = (0..300)
        .map(|i| {
            SimRequest::from_tokens(i, (0..2048u32).map(|j| i as u32 * 4096 + j).collect(), 64)
        })
        .collect();
    let r = engine(false).run(&reqs).unwrap();
    assert_eq!(r.completed, 300);
    assert!(r.peak_running < 300, "memory should throttle concurrency");
}
