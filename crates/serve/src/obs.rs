//! Serving-layer observability hooks.
//!
//! All instrumentation in this crate routes through the handles defined
//! here. The handles are `&'static` references into the global
//! [`llmqo_obs`] registry, resolved once through a [`OnceLock`], so the
//! per-event cost when observability is enabled is a relaxed atomic
//! increment — and when disabled a single relaxed load of the global flag
//! before any handle is touched.
//!
//! None of these hooks may change engine behavior: they read simulation
//! state, never write it, and the differential suite in
//! `tests/obs_differential.rs` proves enabled and disabled runs produce
//! byte-identical reports.

use llmqo_obs::{Counter, Gauge, Histogram};
use std::sync::OnceLock;

use crate::cache::{CacheInternals, ChainHasher};

/// `&'static` metric handles for the serving layer.
pub struct ServeMetrics {
    /// Requests pushed into the waiting queue.
    pub requests_enqueued: &'static Counter,
    /// Requests admitted into the running batch.
    pub requests_admitted: &'static Counter,
    /// Requests that ran to completion.
    pub completions: &'static Counter,
    /// Decode tokens produced by completed requests.
    pub output_tokens: &'static Counter,
    /// Prompt tokens served from the prefix cache at admission.
    pub cached_prompt_tokens: &'static Counter,
    /// Time-to-first-token distribution (simulated seconds).
    pub ttft_s: &'static Histogram,
    /// End-to-end request latency distribution (simulated seconds).
    pub latency_s: &'static Histogram,
    /// Prefix-cache blocks evicted (LRU leaf cascade).
    pub cache_evictions: &'static Counter,
    /// Hash-map lookups of probe / admission walks: one per run visited.
    pub cache_block_map_probes: &'static Counter,
    /// Runs split by an admission (see [`CacheInternals::run_splits`]).
    pub cache_run_splits: &'static Counter,
    /// Stale eviction candidates lazily discarded.
    pub cache_heap_stale_invalidations: &'static Counter,
    /// `mark_computed` calls (prefill chunk completions).
    pub cache_mark_computed_calls: &'static Counter,
    /// Id pages of the largest cache published so far (see
    /// [`CacheInternals::id_pages`]).
    pub cache_id_pages: &'static Gauge,
    /// Most block-id words any published cache held in pages in use (see
    /// [`CacheInternals::id_words_live`]).
    pub cache_id_words_live: &'static Gauge,
    /// Prompt tokens mixed into block-chain hashes.
    pub chain_tokens_hashed: &'static Counter,
    /// Prompt tokens whose hashing was skipped because their leading
    /// fragments were the previous prompt's (see [`ChainHasher`]).
    pub chain_tokens_reused: &'static Counter,
    /// Wall-clock seconds spent inside `EngineSession::step` (only
    /// populated with the `wallclock` feature of `llmqo-obs`).
    pub wall_step_s: &'static Histogram,
    /// Wall-clock seconds spent in prefix-cache admission/bookkeeping calls.
    pub wall_cache_s: &'static Histogram,
    /// Wall-clock seconds spent in the macro-stepped decode recurrence.
    pub wall_decode_recurrence_s: &'static Histogram,
}

/// The process-wide serving metric handles.
pub fn metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = llmqo_obs::registry();
        ServeMetrics {
            requests_enqueued: r.counter("serve.requests_enqueued"),
            requests_admitted: r.counter("serve.requests_admitted"),
            completions: r.counter("serve.completions"),
            output_tokens: r.counter("serve.output_tokens"),
            cached_prompt_tokens: r.counter("serve.cached_prompt_tokens"),
            ttft_s: r.histogram("serve.ttft_s"),
            latency_s: r.histogram("serve.latency_s"),
            cache_evictions: r.counter("cache.evictions"),
            cache_block_map_probes: r.counter("cache.block_map_probes"),
            cache_run_splits: r.counter("cache.run_splits"),
            cache_heap_stale_invalidations: r.counter("cache.heap_stale_invalidations"),
            cache_mark_computed_calls: r.counter("cache.mark_computed_calls"),
            cache_id_pages: r.gauge("cache.id_pages"),
            cache_id_words_live: r.gauge("cache.id_words_live"),
            chain_tokens_hashed: r.counter("serve.chain.tokens_hashed"),
            chain_tokens_reused: r.counter("serve.chain.tokens_reused"),
            wall_step_s: r.histogram("wall.step_s"),
            wall_cache_s: r.histogram("wall.cache_admit_s"),
            wall_decode_recurrence_s: r.histogram("wall.decode_recurrence_s"),
        }
    })
}

/// Publishes a snapshot of [`CacheInternals`] deltas into the global
/// counters. `prev` is the last published snapshot; returns the new one so
/// callers can publish incrementally without double counting. The two id
/// page figures are levels, not rates: each is published as the highest
/// value any cache reported.
pub fn publish_cache_internals(prev: CacheInternals, now: CacheInternals) -> CacheInternals {
    let m = metrics();
    m.cache_evictions.add(now.evictions - prev.evictions);
    m.cache_block_map_probes
        .add(now.block_map_probes - prev.block_map_probes);
    m.cache_run_splits.add(now.run_splits - prev.run_splits);
    m.cache_heap_stale_invalidations
        .add(now.heap_stale_invalidations - prev.heap_stale_invalidations);
    m.cache_mark_computed_calls
        .add(now.mark_computed_calls - prev.mark_computed_calls);
    m.cache_id_pages.set_max(now.id_pages as f64);
    m.cache_id_words_live.set_max(now.id_words_live as f64);
    now
}

/// Publishes a finished [`ChainHasher`]'s lifetime token counts: together
/// the two counters give the share of prompt tokens never hashed,
/// `reused / (hashed + reused)`. Call once per hasher, when its run ends.
pub fn publish_chain_hasher(hasher: &ChainHasher) {
    let m = metrics();
    m.chain_tokens_hashed.add(hasher.tokens_hashed());
    m.chain_tokens_reused.add(hasher.tokens_reused());
}
