//! Discrete-time continuous-batching engine simulator.
//!
//! The engine mirrors a vLLM-style serving loop: requests are admitted while
//! KV memory and the sequence-slot limit allow; each simulation step runs one
//! decode token for every running sequence plus a chunk of pending prefill
//! (chunked prefill); step latency is a roofline over compute (dense FLOPs +
//! attention) and memory traffic (weights + KV reads). Prefix-cache hits skip
//! prefill compute for cached tokens and share KV blocks, which both shortens
//! the prefill phase and frees memory for larger decode batches — the two
//! mechanisms behind the paper's end-to-end speedups (§6.2, Appendix D.2).

use crate::cache::ChainHasher;
use crate::hardware::GpuCluster;
use crate::model::ModelSpec;
use crate::session::EngineSession;
use llmqo_tokenizer::TokenId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Engine tuning parameters. Defaults follow vLLM's.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Tokens per KV block.
    pub block_size: usize,
    /// Maximum concurrently running sequences (vLLM `max_num_seqs`).
    pub max_num_seqs: usize,
    /// Token budget per step for prefill chunks (vLLM `max_num_batched_tokens`).
    pub max_batch_tokens: usize,
    /// Whether automatic prefix caching is enabled. `false` reproduces the
    /// paper's *No Cache* baseline.
    pub enable_prefix_cache: bool,
    /// Whether concurrent requests with equal prefixes are deduplicated
    /// (SGLang RadixAttention / cascade-inference semantics; see
    /// [`crate::CacheConfig::share_in_flight`]). Default `true`.
    pub in_flight_sharing: bool,
    /// Fraction of GPU memory usable by the engine (vLLM
    /// `gpu_memory_utilization`).
    pub gpu_memory_utilization: f64,
    /// Bytes per GPU reserved for activations and runtime workspace.
    pub runtime_reserve_bytes: u64,
    /// Fixed scheduling cost per engine step, seconds.
    pub step_overhead_s: f64,
    /// Serialized client-side cost per request (UDF invocation, tokenization,
    /// HTTP round trip), seconds. Dominates for very small models
    /// (Appendix D.2).
    pub per_request_overhead_s: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            block_size: 16,
            max_num_seqs: 256,
            max_batch_tokens: 8192,
            enable_prefix_cache: true,
            in_flight_sharing: true,
            gpu_memory_utilization: 0.9,
            runtime_reserve_bytes: 1 << 30,
            step_overhead_s: 0.002,
            per_request_overhead_s: 0.018,
        }
    }
}

impl EngineConfig {
    /// The default configuration with prefix caching disabled.
    pub fn no_cache() -> Self {
        EngineConfig {
            enable_prefix_cache: false,
            ..Self::default()
        }
    }
}

/// A model placed on a cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Deployment {
    /// The served model.
    pub model: ModelSpec,
    /// The GPUs serving it.
    pub cluster: GpuCluster,
}

impl Deployment {
    /// Creates a deployment.
    pub fn new(model: ModelSpec, cluster: GpuCluster) -> Self {
        Deployment { model, cluster }
    }

    /// KV-cache capacity in tokens after weights and runtime reserve.
    pub fn kv_capacity_tokens(&self, config: &EngineConfig) -> u64 {
        let usable = self.cluster.total_mem_bytes() as f64 * config.gpu_memory_utilization
            - self.model.weight_bytes() as f64
            - (config.runtime_reserve_bytes * u64::from(self.cluster.count)) as f64;
        if usable <= 0.0 {
            return 0;
        }
        usable as u64 / self.model.kv_bytes_per_token()
    }

    /// KV-cache capacity in blocks.
    pub fn kv_capacity_blocks(&self, config: &EngineConfig) -> usize {
        (self.kv_capacity_tokens(config) as usize) / config.block_size
    }
}

/// One batch-inference request: a prompt (as shared fragment token streams,
/// concatenated logically) and the number of tokens the model will generate.
#[derive(Debug, Clone)]
pub struct SimRequest {
    /// Caller-chosen identifier, carried into completions.
    pub id: usize,
    /// Prompt fragments; shared fragments should share `Arc`s.
    pub prompt: Vec<Arc<[TokenId]>>,
    /// Number of output tokens generated before termination.
    pub output_len: u32,
}

impl SimRequest {
    /// Builds a request from one flat token vector.
    pub fn from_tokens(id: usize, tokens: Vec<TokenId>, output_len: u32) -> Self {
        SimRequest {
            id,
            prompt: vec![Arc::from(tokens.into_boxed_slice())],
            output_len,
        }
    }

    /// Total prompt length in tokens.
    pub fn prompt_len(&self) -> usize {
        self.prompt.iter().map(|f| f.len()).sum()
    }
}

/// Engine failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The model does not fit on the cluster at all.
    ModelTooLarge {
        /// Weight bytes required.
        weight_bytes: u64,
        /// Memory available.
        mem_bytes: u64,
    },
    /// A single request exceeds total KV capacity and can never be admitted.
    RequestTooLarge {
        /// The offending request id.
        id: usize,
        /// Blocks the request needs.
        needed_blocks: usize,
        /// Total capacity in blocks.
        capacity_blocks: usize,
    },
    /// A structurally unusable configuration. Reserved for callers that
    /// match on it: nothing in this crate returns it at present.
    InvalidConfig {
        /// What is wrong.
        reason: &'static str,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::ModelTooLarge {
                weight_bytes,
                mem_bytes,
            } => write!(
                f,
                "model weights ({weight_bytes} B) exceed cluster memory ({mem_bytes} B)"
            ),
            EngineError::RequestTooLarge {
                id,
                needed_blocks,
                capacity_blocks,
            } => write!(
                f,
                "request {id} needs {needed_blocks} KV blocks but capacity is {capacity_blocks}"
            ),
            EngineError::InvalidConfig { reason } => write!(f, "invalid config: {reason}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Outcome of a simulated batch job.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EngineReport {
    /// End-to-end job completion time, seconds (the paper's primary metric).
    pub job_completion_time_s: f64,
    /// Portion of step time attributed to prefill compute.
    pub prefill_time_s: f64,
    /// Portion of step time attributed to decode.
    pub decode_time_s: f64,
    /// Scheduling and per-request overhead.
    pub overhead_time_s: f64,
    /// Prompt tokens across all requests.
    pub total_prompt_tokens: u64,
    /// Prompt tokens served from the prefix cache (no prefill compute).
    pub cached_prompt_tokens: u64,
    /// Prompt tokens actually prefilled.
    pub computed_prompt_tokens: u64,
    /// Output tokens generated.
    pub total_output_tokens: u64,
    /// Engine steps executed.
    pub steps: u64,
    /// Maximum concurrently running sequences observed.
    pub peak_running: usize,
    /// Peak KV blocks in use (shared + private).
    pub peak_blocks: usize,
    /// KV blocks evicted.
    pub evictions: u64,
    /// Requests completed (always all of them on success).
    pub completed: usize,
    /// Median time from admission to first output token, seconds.
    pub ttft_p50_s: f64,
    /// 99th-percentile time to first token, seconds.
    pub ttft_p99_s: f64,
    /// Median request latency (admission to completion), seconds.
    pub latency_p50_s: f64,
    /// 99th-percentile request latency, seconds.
    pub latency_p99_s: f64,
}

impl EngineReport {
    /// Fraction of prompt tokens served from cache — the paper's PHR
    /// (Table 2).
    pub fn prefix_hit_rate(&self) -> f64 {
        if self.total_prompt_tokens == 0 {
            0.0
        } else {
            self.cached_prompt_tokens as f64 / self.total_prompt_tokens as f64
        }
    }
}

/// The simulator. Construct once per deployment and reuse across runs; each
/// [`run`](SimEngine::run) uses a fresh cache.
///
/// # Examples
///
/// ```
/// use llmqo_serve::{Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, SimEngine, SimRequest};
///
/// let engine = SimEngine::new(
///     Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
///     EngineConfig::default(),
/// );
/// let reqs: Vec<SimRequest> = (0..4)
///     .map(|i| SimRequest::from_tokens(i, vec![1, 2, 3, 4, 5, 6, 7, 8], 2))
///     .collect();
/// let report = engine.run(&reqs).unwrap();
/// assert_eq!(report.completed, 4);
/// assert!(report.job_completion_time_s > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimEngine {
    deployment: Deployment,
    config: EngineConfig,
}

impl SimEngine {
    /// Creates an engine.
    pub fn new(deployment: Deployment, config: EngineConfig) -> Self {
        SimEngine { deployment, config }
    }

    /// The deployment being simulated.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Opens an incremental [`EngineSession`] over this deployment: the same
    /// scheduling loop as [`run`](SimEngine::run), but driven one step at a
    /// time by the caller, with requests arriving at any point. This is the
    /// hook the `llmqo-cluster` replica scheduler builds on.
    ///
    /// # Errors
    ///
    /// [`EngineError::ModelTooLarge`] if weights do not fit.
    pub fn session(&self) -> Result<EngineSession, EngineError> {
        EngineSession::new(&self.deployment, self.config)
    }

    /// A [`ChainHasher`] producing the block chains this engine's sessions
    /// expect (its block size; length-only chains when the prefix cache is
    /// disabled) — for drivers that probe a session's cache before handing
    /// it the request through
    /// [`EngineSession::enqueue_chain`].
    pub fn chain_hasher(&self) -> ChainHasher {
        ChainHasher::new(self.config.block_size, self.config.enable_prefix_cache)
    }

    /// Runs the batch job to completion, processing `requests` in order.
    /// Submission is by reference (prompts are hashed once, never cloned)
    /// and the drive loop macro-steps through steady-state decode.
    ///
    /// # Errors
    ///
    /// [`EngineError::ModelTooLarge`] if weights do not fit;
    /// [`EngineError::RequestTooLarge`] if a request can never be admitted.
    pub fn run(&self, requests: &[SimRequest]) -> Result<EngineReport, EngineError> {
        let mut session = self.session()?;
        for request in requests {
            session.enqueue_ref(request);
        }
        while session.step_until(None)? {}
        Ok(session.finish().report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::GpuSpec;

    fn l4_8b() -> Deployment {
        Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4()))
    }

    fn reqs(n: usize, prompt_len: usize, shared_prefix: usize, output: u32) -> Vec<SimRequest> {
        // Each prompt: `shared_prefix` common tokens then unique tail.
        (0..n)
            .map(|i| {
                let mut t: Vec<TokenId> = (0..shared_prefix as u32).collect();
                t.extend(
                    (0..(prompt_len - shared_prefix) as u32)
                        .map(|j| 1_000_000 + i as u32 * 10_000 + j),
                );
                SimRequest::from_tokens(i, t, output)
            })
            .collect()
    }

    #[test]
    fn completes_all_requests() {
        let engine = SimEngine::new(l4_8b(), EngineConfig::default());
        let r = engine.run(&reqs(20, 64, 32, 4)).unwrap();
        assert_eq!(r.completed, 20);
        assert_eq!(r.total_output_tokens, 80);
        assert!(r.job_completion_time_s > 0.0);
    }

    #[test]
    fn token_conservation() {
        let engine = SimEngine::new(l4_8b(), EngineConfig::default());
        let r = engine.run(&reqs(50, 128, 64, 2)).unwrap();
        assert_eq!(
            r.cached_prompt_tokens + r.computed_prompt_tokens,
            r.total_prompt_tokens
        );
        assert_eq!(r.total_prompt_tokens, 50 * 128);
    }

    #[test]
    fn shared_prefixes_hit_after_first_request() {
        let engine = SimEngine::new(l4_8b(), EngineConfig::default());
        let r = engine.run(&reqs(300, 128, 96, 2)).unwrap();
        // 96 of 128 tokens shareable → with in-flight dedup every request
        // after the very first hits 75%.
        assert!(
            r.prefix_hit_rate() > 0.7,
            "hit rate {} too low",
            r.prefix_hit_rate()
        );
    }

    #[test]
    fn strict_mode_loses_same_wave_sharing() {
        let strict = SimEngine::new(
            l4_8b(),
            EngineConfig {
                in_flight_sharing: false,
                ..EngineConfig::default()
            },
        );
        let dedup = SimEngine::new(l4_8b(), EngineConfig::default());
        let rs = reqs(300, 128, 96, 2);
        let a = strict.run(&rs).unwrap();
        let b = dedup.run(&rs).unwrap();
        // Requests admitted in the same scheduling wave cannot reuse cold
        // prefixes under strict vLLM-v0 semantics.
        assert!(
            a.prefix_hit_rate() < b.prefix_hit_rate(),
            "strict {} should trail dedup {}",
            a.prefix_hit_rate(),
            b.prefix_hit_rate()
        );
        assert!(a.job_completion_time_s >= b.job_completion_time_s);
    }

    #[test]
    fn no_cache_never_hits_and_is_slower() {
        let cached = SimEngine::new(l4_8b(), EngineConfig::default());
        let uncached = SimEngine::new(l4_8b(), EngineConfig::no_cache());
        let rs = reqs(200, 256, 224, 2);
        let rc = cached.run(&rs).unwrap();
        let ru = uncached.run(&rs).unwrap();
        assert_eq!(ru.cached_prompt_tokens, 0);
        assert_eq!(ru.prefix_hit_rate(), 0.0);
        assert!(
            ru.job_completion_time_s > rc.job_completion_time_s,
            "no-cache {} should exceed cached {}",
            ru.job_completion_time_s,
            rc.job_completion_time_s
        );
    }

    #[test]
    fn more_sharing_is_faster() {
        let engine = SimEngine::new(l4_8b(), EngineConfig::default());
        let low = engine.run(&reqs(200, 256, 32, 2)).unwrap();
        let high = engine.run(&reqs(200, 256, 224, 2)).unwrap();
        assert!(high.prefix_hit_rate() > low.prefix_hit_rate());
        assert!(high.job_completion_time_s < low.job_completion_time_s);
    }

    #[test]
    fn request_too_large_is_detected() {
        let engine = SimEngine::new(l4_8b(), EngineConfig::default());
        let cap_tokens = engine.deployment().kv_capacity_tokens(engine.config()) as usize;
        let huge = vec![SimRequest::from_tokens(
            7,
            (0..(cap_tokens as u32 + 64)).collect(),
            1,
        )];
        match engine.run(&huge) {
            Err(EngineError::RequestTooLarge { id, .. }) => assert_eq!(id, 7),
            other => panic!("expected RequestTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn model_too_large_is_detected() {
        let tiny = GpuSpec {
            name: "tiny".into(),
            mem_bytes: 1 << 30,
            mem_bw: 1e12,
            effective_flops: 1e12,
        };
        let engine = SimEngine::new(
            Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(tiny)),
            EngineConfig::default(),
        );
        assert!(matches!(
            engine.run(&reqs(1, 8, 0, 1)),
            Err(EngineError::ModelTooLarge { .. })
        ));
    }

    #[test]
    fn empty_job_is_instant() {
        let engine = SimEngine::new(l4_8b(), EngineConfig::default());
        let r = engine.run(&[]).unwrap();
        assert_eq!(r.completed, 0);
        assert_eq!(r.job_completion_time_s, 0.0);
        assert_eq!(r.steps, 0);
    }

    #[test]
    fn zero_output_requests_complete() {
        let engine = SimEngine::new(l4_8b(), EngineConfig::default());
        let r = engine.run(&reqs(5, 32, 0, 0)).unwrap();
        assert_eq!(r.completed, 5);
        assert_eq!(r.total_output_tokens, 0);
    }

    #[test]
    fn kv_capacity_is_sane_for_presets() {
        let d8 = l4_8b();
        let cfg = EngineConfig::default();
        let t8 = d8.kv_capacity_tokens(&cfg);
        assert!(t8 > 20_000 && t8 < 60_000, "8B on L4: {t8}");
        let d70 = Deployment::new(
            ModelSpec::llama3_70b(),
            GpuCluster::tensor_parallel(GpuSpec::l4(), 8),
        );
        let t70 = d70.kv_capacity_tokens(&cfg);
        assert!(t70 > 40_000, "70B on 8×L4: {t70}");
        let d1 = Deployment::new(ModelSpec::llama3_2_1b(), GpuCluster::single(GpuSpec::l4()));
        let t1 = d1.kv_capacity_tokens(&cfg);
        assert!(t1 > 400_000, "1B on L4: {t1}");
    }

    #[test]
    fn latency_percentiles_are_ordered_and_bounded() {
        let engine = SimEngine::new(l4_8b(), EngineConfig::default());
        let r = engine.run(&reqs(100, 128, 64, 8)).unwrap();
        assert!(r.ttft_p50_s > 0.0);
        assert!(r.ttft_p50_s <= r.ttft_p99_s);
        assert!(r.latency_p50_s >= r.ttft_p50_s);
        assert!(r.latency_p99_s <= r.job_completion_time_s + 1e-9);
    }

    #[test]
    fn report_time_decomposition_covers_clock() {
        let engine = SimEngine::new(l4_8b(), EngineConfig::default());
        let r = engine.run(&reqs(30, 128, 64, 8)).unwrap();
        let parts = r.prefill_time_s + r.decode_time_s + r.overhead_time_s;
        // Step overhead is folded into phase attribution; parts must not
        // exceed the clock by more than accumulated step overheads.
        assert!(parts <= r.job_completion_time_s + 1e-6);
        assert!(r.prefill_time_s > 0.0);
        assert!(r.decode_time_s > 0.0);
    }
}
