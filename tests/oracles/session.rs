//! The pre-macro-stepping engine loop, frozen verbatim as a differential
//! oracle.
//!
//! [`SessionReference`] is the per-token [`EngineSession`] exactly as it
//! stood before the event-driven rewrite: every scheduling step re-scans all
//! running sequences, re-flattens the head-of-line waiting prompt into a
//! scratch buffer, and re-hashes it through the token-based cache API. It is
//! intentionally **not** optimized — its job is to define the semantics the
//! macro-stepping [`EngineSession`] must reproduce byte for byte
//! (`tests/engine_differential.rs`), the same contract the solver rewrite
//! established with `GgrReference`/`OphrReference`. A test fixture over
//! `llmqo-serve`'s public API; it ships in no release build.
//!
//! [`EngineSession`]: llmqo::serve::EngineSession

use llmqo::serve::{
    percentile, CacheConfig, CacheStats, Completion, Deployment, EngineConfig, EngineError,
    EngineReport, ModelSpec, PrefixCache, SeqAlloc, SessionReport, SimRequest,
};
use llmqo::tokenizer::TokenId;
use std::collections::VecDeque;

struct Running {
    idx: usize,
    alloc: SeqAlloc,
    prompt_len: usize,
    prefilled: usize,
    output_done: u32,
    admitted_at: f64,
    first_token_at: Option<f64>,
}

/// The frozen per-token stepping loop. Construct with
/// [`SessionReference::new`] over an engine's deployment and config; drive
/// exactly like an [`EngineSession`](llmqo::serve::EngineSession).
pub struct SessionReference {
    model: ModelSpec,
    config: EngineConfig,
    capacity_blocks: usize,
    flops: f64,
    bw: f64,
    kv_bytes: f64,
    weight_bytes: f64,
    cache: PrefixCache,
    /// Every request ever enqueued; `waiting`/`running` index into it.
    store: Vec<SimRequest>,
    waiting: VecDeque<usize>,
    running: Vec<Running>,
    scratch: Vec<TokenId>,
    clock: f64,
    idle_s: f64,
    report: EngineReport,
    ttfts: Vec<f64>,
    latencies: Vec<f64>,
    completions: Vec<Completion>,
}

impl std::fmt::Debug for SessionReference {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionReference")
            .field("clock", &self.clock)
            .field("waiting", &self.waiting.len())
            .field("running", &self.running.len())
            .field("completed", &self.report.completed)
            .finish_non_exhaustive()
    }
}

impl SessionReference {
    /// Opens the frozen loop over `deployment`.
    ///
    /// # Errors
    ///
    /// [`EngineError::ModelTooLarge`] if weights do not fit.
    pub fn new(deployment: &Deployment, config: EngineConfig) -> Result<Self, EngineError> {
        let capacity_blocks = deployment.kv_capacity_blocks(&config);
        if capacity_blocks == 0 {
            return Err(EngineError::ModelTooLarge {
                weight_bytes: deployment.model.weight_bytes(),
                mem_bytes: deployment.cluster.total_mem_bytes(),
            });
        }
        let cache = PrefixCache::new(CacheConfig {
            block_size: config.block_size,
            capacity_blocks,
            enabled: config.enable_prefix_cache,
        });
        Ok(SessionReference {
            flops: deployment.cluster.total_flops(),
            bw: deployment.cluster.total_mem_bw(),
            kv_bytes: deployment.model.kv_bytes_per_token() as f64,
            weight_bytes: deployment.model.weight_bytes() as f64,
            model: deployment.model.clone(),
            config,
            capacity_blocks,
            cache,
            store: Vec::new(),
            waiting: VecDeque::new(),
            running: Vec::new(),
            scratch: Vec::new(),
            clock: 0.0,
            idle_s: 0.0,
            report: EngineReport::default(),
            ttfts: Vec::new(),
            latencies: Vec::new(),
            completions: Vec::new(),
        })
    }

    /// Adds a request to the tail of the admission queue.
    pub fn enqueue(&mut self, request: SimRequest) {
        self.store.push(request);
        self.waiting.push_back(self.store.len() - 1);
    }

    /// Current session clock, seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Whether the session has no queued and no running work.
    pub fn is_idle(&self) -> bool {
        self.waiting.is_empty() && self.running.is_empty()
    }

    /// Requests waiting for admission.
    pub fn queued(&self) -> usize {
        self.waiting.len()
    }

    /// Sequences currently in the running batch.
    pub fn running(&self) -> usize {
        self.running.len()
    }

    /// Requests completed so far.
    pub fn completed(&self) -> usize {
        self.report.completed
    }

    /// KV blocks currently referenced or cached (capacity minus free).
    pub fn kv_blocks_in_use(&self) -> usize {
        self.capacity_blocks - self.cache.free_blocks()
    }

    /// Lifetime prefix-cache statistics.
    pub fn cache_stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Cumulative idle time accrued via [`advance_to`].
    ///
    /// [`advance_to`]: SessionReference::advance_to
    pub fn idle_time_s(&self) -> f64 {
        self.idle_s
    }

    /// Idles the session until `t` (seconds on the session clock). Only an
    /// idle session can be advanced; no-ops when `t` is in the past.
    pub fn advance_to(&mut self, t: f64) {
        if self.is_idle() && t > self.clock {
            self.idle_s += t - self.clock;
            self.clock = t;
        }
    }

    /// One scheduling step of the frozen per-token loop: admit within the
    /// prefill budget (re-flattening and re-hashing the head-of-line
    /// prompt), decode one token per running sequence, advance the clock by
    /// the roofline step time, retire finished sequences.
    ///
    /// # Errors
    ///
    /// [`EngineError::RequestTooLarge`] if the head-of-queue request can
    /// never fit in KV memory even with the batch drained.
    pub fn step(&mut self) -> Result<bool, EngineError> {
        if self.is_idle() {
            return Ok(false);
        }
        // Build the step: decode every running sequence that finished
        // prefill, plus chunked prefill within the token budget.
        let mut decode_tokens = 0u64;
        let mut decode_ctx = 0u64;
        for r in &self.running {
            if r.prefilled >= r.prompt_len && r.output_done < self.store[r.idx].output_len {
                decode_tokens += 1;
                decode_ctx += (r.prompt_len as u64) + u64::from(r.output_done);
            }
        }
        let mut budget = self
            .config
            .max_batch_tokens
            .saturating_sub(decode_tokens as usize);
        let mut prefill_flops = 0.0f64;
        let mut prefill_kv_bytes = 0.0f64;
        let mut chunks: Vec<(usize, usize)> = Vec::new(); // (running idx, chunk)
        let model = &self.model;
        let kv_bytes = self.kv_bytes;
        let take_chunk = |r: &Running,
                          i: usize,
                          budget: &mut usize,
                          prefill_flops: &mut f64,
                          prefill_kv_bytes: &mut f64,
                          chunks: &mut Vec<(usize, usize)>| {
            let chunk = (r.prompt_len - r.prefilled).min(*budget);
            if chunk == 0 {
                return;
            }
            *budget -= chunk;
            let ctx_mid = r.prefilled as f64 + chunk as f64 / 2.0;
            *prefill_flops +=
                chunk as f64 * (model.flops_per_token() + model.attn_flops(ctx_mid as u64));
            *prefill_kv_bytes += (r.prefilled + chunk) as f64 * kv_bytes;
            chunks.push((i, chunk));
        };
        // In-flight prefills continue first (FIFO, vLLM-style) …
        for (i, r) in self.running.iter().enumerate() {
            if budget == 0 {
                break;
            }
            if r.prefilled < r.prompt_len {
                take_chunk(
                    r,
                    i,
                    &mut budget,
                    &mut prefill_flops,
                    &mut prefill_kv_bytes,
                    &mut chunks,
                );
            }
        }
        // … then waiting requests are admitted lazily, only when the step
        // has prefill budget for them.
        while (budget > 0 || decode_tokens + chunks.len() as u64 == 0)
            && self.running.len() < self.config.max_num_seqs
        {
            let Some(&idx) = self.waiting.front() else {
                break;
            };
            let req = &self.store[idx];
            self.scratch.clear();
            for frag in &req.prompt {
                self.scratch.extend_from_slice(frag);
            }
            match self.cache.try_admit(&self.scratch, req.output_len as usize) {
                Some(alloc) => {
                    self.waiting.pop_front();
                    self.clock += self.config.per_request_overhead_s;
                    self.report.overhead_time_s += self.config.per_request_overhead_s;
                    self.report.total_prompt_tokens += alloc.prompt_tokens as u64;
                    self.report.cached_prompt_tokens += alloc.cached_tokens as u64;
                    self.running.push(Running {
                        idx,
                        prompt_len: alloc.prompt_tokens,
                        prefilled: alloc.cached_tokens,
                        output_done: 0,
                        alloc,
                        admitted_at: self.clock,
                        first_token_at: None,
                    });
                    let i = self.running.len() - 1;
                    let r = &self.running[i];
                    if r.prefilled < r.prompt_len {
                        take_chunk(
                            r,
                            i,
                            &mut budget,
                            &mut prefill_flops,
                            &mut prefill_kv_bytes,
                            &mut chunks,
                        );
                    }
                }
                None => {
                    if self.running.is_empty() {
                        let needed = (self.scratch.len() + req.output_len as usize)
                            .div_ceil(self.config.block_size);
                        return Err(EngineError::RequestTooLarge {
                            id: req.id,
                            needed_blocks: needed,
                            capacity_blocks: self.capacity_blocks,
                        });
                    }
                    break;
                }
            }
        }
        self.report.peak_running = self.report.peak_running.max(self.running.len());
        if self.running.is_empty() {
            return Ok(false);
        }

        // Roofline step time.
        let decode_flops =
            decode_tokens as f64 * model.flops_per_token() + model.attn_flops(decode_ctx);
        let compute_t = (prefill_flops + decode_flops) / self.flops;
        let mem_t = (self.weight_bytes + decode_ctx as f64 * kv_bytes + prefill_kv_bytes) / self.bw;
        let step_t = compute_t.max(mem_t) + self.config.step_overhead_s;

        // Attribute time to phases for the report (by compute share).
        let total_work = (prefill_flops + decode_flops).max(1.0);
        self.report.prefill_time_s += step_t * prefill_flops / total_work;
        self.report.decode_time_s += step_t * decode_flops / total_work;
        self.clock += step_t;
        self.report.steps += 1;

        // Apply effects: prefill progress and one decoded token per
        // decoding sequence.
        for (i, chunk) in chunks {
            self.running[i].prefilled += chunk;
            self.report.computed_prompt_tokens += chunk as u64;
        }
        let mut i = 0;
        while i < self.running.len() {
            let done_prefill = self.running[i].prefilled >= self.running[i].prompt_len;
            if done_prefill {
                let out_target = self.store[self.running[i].idx].output_len;
                if self.running[i].output_done < out_target {
                    self.running[i].output_done += 1;
                    self.report.total_output_tokens += 1;
                    if self.running[i].first_token_at.is_none() {
                        self.running[i].first_token_at = Some(self.clock);
                        self.ttfts.push(self.clock - self.running[i].admitted_at);
                    }
                }
                if self.running[i].output_done >= out_target {
                    let r = self.running.swap_remove(i);
                    let first_token_at = match r.first_token_at {
                        Some(t) => t,
                        // Zero-output request: first "token" is completion.
                        None => {
                            self.ttfts.push(self.clock - r.admitted_at);
                            self.clock
                        }
                    };
                    self.latencies.push(self.clock - r.admitted_at);
                    self.completions.push(Completion {
                        id: self.store[r.idx].id,
                        admitted_s: r.admitted_at,
                        finished_s: self.clock,
                        ttft_s: first_token_at - r.admitted_at,
                        prompt_tokens: r.prompt_len,
                        cached_tokens: r.alloc.cached_tokens,
                        output_tokens: r.output_done,
                    });
                    self.cache.release(r.alloc);
                    self.report.completed += 1;
                    continue;
                }
            }
            i += 1;
        }
        Ok(true)
    }

    /// Submits `requests` (cloning each, as the pre-rewrite loop did) and
    /// steps until idle, returning the completions this call produced.
    ///
    /// # Errors
    ///
    /// [`EngineError::RequestTooLarge`] if a request can never be admitted.
    pub fn run_batch(&mut self, requests: &[SimRequest]) -> Result<&[Completion], EngineError> {
        let before = self.completions.len();
        for request in requests {
            self.enqueue(request.clone());
        }
        while self.step()? {}
        Ok(&self.completions[before..])
    }

    /// Finalizes the session: computes latency percentiles and returns the
    /// aggregate report plus per-request completion records.
    pub fn finish(mut self) -> SessionReport {
        self.ttfts.sort_by(f64::total_cmp);
        self.latencies.sort_by(f64::total_cmp);
        self.report.ttft_p50_s = percentile(&self.ttfts, 0.50);
        self.report.ttft_p99_s = percentile(&self.ttfts, 0.99);
        self.report.latency_p50_s = percentile(&self.latencies, 0.50);
        self.report.latency_p99_s = percentile(&self.latencies, 0.99);
        self.report.job_completion_time_s = self.clock;
        self.report.peak_blocks = self.cache.stats().peak_blocks;
        self.report.evictions = self.cache.stats().evictions;
        SessionReport {
            report: self.report,
            completions: self.completions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmqo::serve::{GpuCluster, GpuSpec, SimEngine};

    #[test]
    fn reference_session_completes_a_batch() {
        let engine = SimEngine::new(
            Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
            EngineConfig::default(),
        );
        let reqs: Vec<SimRequest> = (0..20)
            .map(|i| {
                let mut t: Vec<TokenId> = (0..64).collect();
                t.extend((0..16).map(|j| 70_000 + i as u32 * 100 + j));
                SimRequest::from_tokens(i, t, 3)
            })
            .collect();
        let mut s = SessionReference::new(engine.deployment(), *engine.config()).unwrap();
        let done = s.run_batch(&reqs).unwrap().len();
        assert_eq!(done, 20);
        let out = s.finish();
        assert_eq!(out.report.completed, 20);
        assert_eq!(out.report.total_output_tokens, 60);
    }
}
