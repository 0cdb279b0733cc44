//! Property-based tests over the serving simulator (DESIGN.md §4 invariants
//! 5–6): token conservation, completion, monotonicity, and determinism.

use llmqo::serve::{
    Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, SimEngine, SimRequest,
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
