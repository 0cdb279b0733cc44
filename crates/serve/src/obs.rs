//! Serving-layer observability hooks.
//!
//! All instrumentation in this crate routes through here. A count a
//! ledger holds — a session's report, a cache's internals, a hasher's
//! tokens — is published from that ledger once, when it closes. What no
//! ledger holds is recorded per event through `&'static` handles into the
//! global [`llmqo_obs`] registry, resolved once through a [`OnceLock`], so
//! the per-event cost when observability is enabled is a relaxed atomic
//! update — and when disabled a single relaxed load of the global flag
//! before any handle is touched.
//!
//! None of these hooks may change engine behavior: they read simulation
//! state, never write it, and the differential suite in
//! `tests/obs_differential.rs` proves enabled and disabled runs produce
//! byte-identical reports.

use llmqo_obs::Histogram;
use std::sync::OnceLock;

use crate::cache::ChainHasher;

/// `&'static` handles of the serving layer's per-event metrics: the ones
/// no ledger holds. Everything a ledger holds is published from it when it
/// closes (`EngineSession::finish`, [`publish_chain_hasher`]).
pub(crate) struct ServeMetrics {
    /// Time-to-first-token distribution (simulated seconds).
    pub ttft_s: &'static Histogram,
    /// Wall-clock seconds spent inside `EngineSession::step` (populated
    /// only while the sinks are enabled).
    pub wall_step_s: &'static Histogram,
    /// Wall-clock seconds spent in prefix-cache admission/bookkeeping calls.
    pub wall_cache_s: &'static Histogram,
    /// Wall-clock seconds spent in the macro-stepped decode recurrence.
    pub wall_decode_recurrence_s: &'static Histogram,
}

/// The process-wide serving metric handles.
pub(crate) fn metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = llmqo_obs::registry();
        ServeMetrics {
            ttft_s: r.histogram("serve.ttft_s"),
            wall_step_s: r.histogram("wall.step_s"),
            wall_cache_s: r.histogram("wall.cache_admit_s"),
            wall_decode_recurrence_s: r.histogram("wall.decode_recurrence_s"),
        }
    })
}

/// Publishes a finished [`ChainHasher`]'s lifetime token counts: together
/// the two counters give the share of prompt tokens never hashed,
/// `reused / (hashed + reused)`. Call once per hasher, when its run ends.
/// A driver that copies chains instead of hashing them publishes the
/// copied tokens as `serve.chain.tokens_copied`
/// ([`EngineSession::held_chain`](crate::EngineSession::held_chain)), so
/// that `hashed + reused + copied` is every placed prompt token.
pub fn publish_chain_hasher(hasher: &ChainHasher) {
    llmqo_obs::publish(&[
        ("serve.chain.tokens_hashed", hasher.tokens_hashed()),
        ("serve.chain.tokens_reused", hasher.tokens_reused()),
    ]);
}
