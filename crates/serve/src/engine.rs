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
use crate::time::SimTime;
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

    /// The one gate of a config, run when a session opens on `deployment`:
    /// the first field out of its range is [`EngineError::InvalidConfig`].
    /// A zero block size, sequence limit or token budget would divide by
    /// zero, admit nothing or stall; a utilization above 1 would promise
    /// memory the GPUs lack, and a block over the KV cache leaves it none.
    pub(crate) fn check(&self, deployment: &Deployment) -> Result<(), EngineError> {
        let (u, r) = (self.gpu_memory_utilization, self.runtime_reserve_bytes);
        let kv_tokens = deployment.kv_capacity_tokens(self);
        let in_kv = kv_tokens == 0 || self.block_size as u64 <= kv_tokens;
        let block = (self.block_size as f64, in_kv, "at most the KV capacity");
        let count = |n: usize| (n as f64, n > 0, "at least 1");
        let secs = |s: f64| (s, SimTime::new(s).is_some(), "finite and non-negative");
        let utilization = (u, u > 0.0 && u <= 1.0, "in (0, 1]");
        let fits = r.checked_mul(u64::from(deployment.cluster.count)).is_some();
        let reserve = (r as f64, fits, "at most u64::MAX bytes over all GPUs");
        let fields = [
            ("block_size", count(self.block_size)),
            ("max_num_seqs", count(self.max_num_seqs)),
            ("max_batch_tokens", count(self.max_batch_tokens)),
            ("gpu_memory_utilization", utilization),
            ("runtime_reserve_bytes", reserve),
            ("step_overhead_s", secs(self.step_overhead_s)),
            ("per_request_overhead_s", secs(self.per_request_overhead_s)),
            ("block_size", block),
        ];
        match fields.into_iter().find(|(_, (_, ok, _))| !ok) {
            Some((field, (value, _, expected))) => Err(EngineError::InvalidConfig {
                field,
                value,
                expected,
            }),
            None => Ok(()),
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
            - config
                .runtime_reserve_bytes
                .saturating_mul(u64::from(self.cluster.count)) as f64;
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
    /// An [`EngineConfig`] field is out of its range
    /// (`EngineConfig::check`, run when a session opens).
    InvalidConfig {
        /// The field's name.
        field: &'static str,
        /// Its value.
        value: f64,
        /// What the field must be.
        expected: &'static str,
    },
    /// A step would take the session's clock out of [`SimTime`]'s finite
    /// range: its overheads, roofline time or straggler factor are too large.
    ClockOverflow {
        /// The clock before the step, seconds.
        clock_s: f64,
        /// The step's length, seconds.
        step_s: f64,
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
            EngineError::InvalidConfig {
                field,
                value,
                expected,
            } => write!(f, "engine config {field} must be {expected}, got {value}"),
            EngineError::ClockOverflow { clock_s, step_s } => write!(
                f,
                "a step of {step_s} s at {clock_s} s takes the sim clock past its finite range"
            ),
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
    /// [`EngineError::InvalidConfig`] if a field of the config is out of
    /// its range; [`EngineError::ModelTooLarge`] if weights do not fit.
    pub fn session(&self) -> Result<EngineSession, EngineError> {
        EngineSession::new(&self.deployment, self.config)
    }

    /// A [`ChainHasher`] producing the block chains this engine's sessions
    /// expect: its block size, and length-only chains when the prefix cache
    /// is disabled. A session takes nothing but chains
    /// ([`EngineSession::enqueue_chain`]), so every driver owns one of these
    /// per run, shares it across the sessions it drives, and publishes it
    /// once ([`obs::publish_chain_hasher`](crate::obs::publish_chain_hasher))
    /// when the run ends.
    pub fn chain_hasher(&self) -> ChainHasher {
        ChainHasher::new(self.config.block_size, self.config.enable_prefix_cache)
    }

    /// Runs the batch job to completion, processing `requests` in order.
    /// Submission is by reference (prompts are hashed once, by the run's own
    /// [`chain_hasher`](SimEngine::chain_hasher), never cloned) and the drive
    /// loop macro-steps through steady-state decode. The batch is queued
    /// through a window of `max_num_seqs + 1` requests
    /// ([`EngineSession::make_room`]), which steps exactly as queueing it
    /// all first would; every request is offered at 0, where the session
    /// starts.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] for a config field out of range;
    /// [`EngineError::ModelTooLarge`] if weights do not fit;
    /// [`EngineError::RequestTooLarge`] if a request can never be admitted;
    /// [`EngineError::ClockOverflow`] if a step overflows the clock.
    pub fn run(&self, requests: &[SimRequest]) -> Result<EngineReport, EngineError> {
        let mut session = self.session()?;
        let mut hasher = self.chain_hasher();
        for r in requests {
            session.make_room()?;
            session.enqueue_chain(r.id, r.output_len, hasher.chain(&r.prompt), SimTime::ZERO);
        }
        session.drain()?;
        if llmqo_obs::enabled() {
            crate::obs::publish_chain_hasher(&hasher);
        }
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

    /// A block larger than the whole KV cache is a bad block size, not a
    /// model that does not fit: the weights fit on one L4.
    #[test]
    fn a_block_larger_than_the_kv_cache_is_an_invalid_block_size() {
        let config = EngineConfig {
            block_size: 1 << 40,
            ..EngineConfig::default()
        };
        let engine = SimEngine::new(l4_8b(), config);
        assert!(engine.deployment().kv_capacity_tokens(&config) > 0);
        match engine.session() {
            Err(EngineError::InvalidConfig { field, value, .. }) => {
                assert_eq!((field, value), ("block_size", (1u64 << 40) as f64));
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
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
    fn an_overhead_that_is_not_a_sim_time_is_a_typed_error() {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -1e-300];
        type Field = fn(&mut EngineConfig) -> &mut f64;
        let fields: [(&str, Field); 2] = [
            ("step_overhead_s", |c| &mut c.step_overhead_s),
            ("per_request_overhead_s", |c| &mut c.per_request_overhead_s),
        ];
        for (name, field) in fields {
            for secs in bad {
                let mut config = EngineConfig::default();
                *field(&mut config) = secs;
                let engine = SimEngine::new(l4_8b(), config);
                let err = engine.session().unwrap_err();
                match &err {
                    EngineError::InvalidConfig { field, value, .. } => {
                        assert_eq!((*field, value.to_bits()), (name, secs.to_bits()));
                    }
                    other => panic!("{name} = {secs}: {other:?}"),
                }
                // A NaN is no value equal to itself: compare the texts.
                let run = engine.run(&reqs(4, 32, 16, 2));
                assert_eq!(format!("{run:?}"), format!("{:?}", Err::<(), _>(err)));
            }
        }
        for config in [EngineConfig::default(), EngineConfig::no_cache()] {
            assert!(SimEngine::new(l4_8b(), config).session().is_ok());
        }
    }

    /// A finite overhead passes the gate, but a step that would take the
    /// clock, or its split into phases, past the largest finite float ends
    /// the run with a typed error instead of an infinite report; a huge
    /// overhead the clock holds runs through.
    #[test]
    fn a_step_past_the_finite_clock_is_a_typed_error() {
        type Set = fn(&mut EngineConfig);
        let cases: [(Set, bool); 4] = [
            (|c| c.step_overhead_s = f64::MAX, false),
            (|c| c.per_request_overhead_s = f64::MAX, false),
            // A step of 1e300 s times its work overflows the phase split.
            (|c| c.step_overhead_s = 1e300, false),
            (|c| c.per_request_overhead_s = 1e300, true),
        ];
        for (i, (set, runs)) in cases.into_iter().enumerate() {
            let mut config = EngineConfig::default();
            set(&mut config);
            match SimEngine::new(l4_8b(), config).run(&reqs(4, 32, 16, 2)) {
                Err(EngineError::ClockOverflow { clock_s, step_s }) if !runs => {
                    assert!(clock_s.is_finite() && step_s.is_finite(), "case {i}");
                }
                Ok(r) if runs => {
                    assert_eq!(r.completed, 4);
                    assert!(r.job_completion_time_s.is_finite() && r.latency_p99_s.is_finite());
                }
                other => panic!("case {i}: {other:?}"),
            }
        }
    }

    /// Each field a session reads is checked where it opens: a zero block
    /// size (a division by zero), sequence limit (nothing admitted) or token
    /// budget (no progress), a utilization outside `(0, 1]` and a runtime
    /// reserve that overflows over the GPUs are typed errors, named by field.
    #[test]
    fn every_config_field_out_of_range_is_a_typed_error() {
        type Set = fn(&mut EngineConfig);
        let cases: [(&str, u32, Set); 9] = [
            ("block_size", 1, |c| c.block_size = 0),
            ("max_num_seqs", 1, |c| c.max_num_seqs = 0),
            ("max_batch_tokens", 1, |c| c.max_batch_tokens = 0),
            ("gpu_memory_utilization", 1, |c| {
                c.gpu_memory_utilization = f64::INFINITY
            }),
            ("gpu_memory_utilization", 1, |c| {
                c.gpu_memory_utilization = 2.0
            }),
            ("gpu_memory_utilization", 1, |c| {
                c.gpu_memory_utilization = f64::NAN
            }),
            ("gpu_memory_utilization", 1, |c| {
                c.gpu_memory_utilization = 0.0
            }),
            ("gpu_memory_utilization", 1, |c| {
                c.gpu_memory_utilization = -0.5
            }),
            ("runtime_reserve_bytes", 8, |c| {
                c.runtime_reserve_bytes = u64::MAX / 4
            }),
        ];
        let on = |gpus, config| {
            let cluster = GpuCluster::tensor_parallel(GpuSpec::l4(), gpus);
            SimEngine::new(Deployment::new(ModelSpec::llama3_8b(), cluster), config)
        };
        for (name, gpus, set) in cases {
            let mut config = EngineConfig::default();
            set(&mut config);
            match on(gpus, config).run(&reqs(4, 32, 16, 2)) {
                Err(EngineError::InvalidConfig { field, .. }) => assert_eq!(field, name),
                other => panic!("{name}: {other:?}"),
            }
        }
        // The edges of the ranges hold: one sequence, one token a step, all
        // of the memory, no reserve.
        let edges = EngineConfig {
            max_num_seqs: 1,
            max_batch_tokens: 1,
            gpu_memory_utilization: 1.0,
            runtime_reserve_bytes: 0,
            ..EngineConfig::default()
        };
        assert_eq!(on(8, edges).run(&reqs(4, 32, 16, 2)).unwrap().completed, 4);
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
