//! # llmqo-serve — a discrete-time LLM serving simulator
//!
//! Stand-in for the paper's vLLM + NVIDIA L4 serving stack (§5, §6.1.3).
//! The simulator reproduces the two mechanisms through which prefix reuse
//! speeds up batch analytics jobs:
//!
//! 1. **Compute**: prompt tokens found in the prefix cache skip prefill
//!    FLOPs entirely (and their attention reads).
//! 2. **Memory**: shared prefixes occupy one set of KV blocks regardless of
//!    how many running sequences reference them, so higher hit rates admit
//!    more concurrent sequences and raise decode throughput — the effect the
//!    paper isolates in Appendix D.2.
//!
//! Components:
//!
//! * [`ModelSpec`] / [`GpuSpec`] / [`GpuCluster`] / [`Deployment`] — real
//!   architecture shapes (Llama-3 8B/70B, Llama-3.2 1B; L4, 8×L4).
//! * [`PrefixCache`] — paged KV blocks with hash-chain prefix identity,
//!   refcounts, in-flight sharing and LRU leaf eviction.
//! * [`SimEngine`] — continuous batching with chunked prefill and a
//!   roofline step-time model; produces an [`EngineReport`] with job
//!   completion time and the prefix hit rate (the paper's two headline
//!   serving metrics). [`EngineSession`] drives the same loop
//!   incrementally, macro-stepping steady-state decode runs into a scalar
//!   recurrence. (The frozen per-token loop it must reproduce byte for byte
//!   is a test fixture, `tests/oracles/session.rs`, built on this crate's
//!   public API.)
//! * [`ChainHasher`] / [`chain_stream`] — a prompt's block chain, hashed
//!   incrementally on the calling thread or streamed from a helper thread
//!   through a fixed pool of chunks ([`ChainFeed`] → [`ChainStream`]).
//!   Drivers hash, sessions queue chains: a session's one way in is
//!   [`EngineSession::enqueue_chain`], and each driver — [`SimEngine::run`],
//!   a relational stage engine, the cluster kernel — owns one hasher per
//!   run, from [`SimEngine::chain_hasher`]. A batch driver queues through
//!   a window of `max_num_seqs + 1` requests
//!   ([`EngineSession::make_room`]), with the same outcome as queueing the
//!   whole batch first.
//! * [`ModelProfile`] / [`SimLlm`] — deterministic answer generation with
//!   positional sensitivity for the accuracy study (Fig. 6): one
//!   [`generate`](SimLlm::generate) method that takes the row's ground
//!   truth by value, so the oracle hands it back without a copy.
//!
//! # Example
//!
//! ```
//! use llmqo_serve::{Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec,
//!                   SimEngine, SimRequest};
//!
//! // Small prefill budget so requests are scheduled one per step and later
//! // ones can reuse the blocks earlier ones computed.
//! let config = EngineConfig { max_batch_tokens: 64, ..EngineConfig::default() };
//! let engine = SimEngine::new(
//!     Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
//!     config,
//! );
//! // Ten requests sharing a 48-token instruction prefix.
//! let requests: Vec<SimRequest> = (0..10u32)
//!     .map(|i| {
//!         let mut toks: Vec<u32> = (0..48).collect();
//!         toks.extend((0..16).map(|j| 1000 + i * 100 + j));
//!         SimRequest::from_tokens(i as usize, toks, 4)
//!     })
//!     .collect();
//! let report = engine.run(&requests).unwrap();
//! assert_eq!(report.completed, 10);
//! assert!(report.prefix_hit_rate() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cache;
mod engine;
mod fault;
mod hardware;
mod labeler;
mod model;
pub mod obs;
mod session;
mod stream;
mod time;

#[doc(hidden)]
pub use cache::with_root_salt;
pub use cache::{
    BlockChain, CacheConfig, CacheInternals, CacheStats, ChainHasher, ChainView, PrefixCache,
    SeqAlloc,
};
pub use engine::{Deployment, EngineConfig, EngineError, EngineReport, SimEngine, SimRequest};
pub use fault::fault_unit;
pub use hardware::{GpuCluster, GpuSpec};
pub use labeler::{KeyFieldPreference, ModelProfile, OracleLlm, SimLlm};
pub use model::ModelSpec;
pub use session::{percentile, percentiles, Completion, EngineSession, SessionReport};
pub use stream::{chain_stream, ChainFeed, ChainStream};
pub use time::SimTime;
