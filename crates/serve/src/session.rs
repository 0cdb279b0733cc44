//! Incremental (steppable) form of the serving simulator, with an
//! event-driven macro-stepping core.
//!
//! [`EngineSession`] exposes the engine loop one scheduling step at a time so
//! an external driver — notably `llmqo-cluster`'s sharded-serving simulator —
//! can interleave several replicas on a shared timeline, feed arrivals
//! mid-flight, and probe replica load and cache occupancy between steps.
//! [`SimEngine::run`](crate::SimEngine::run) is a thin wrapper: queue the
//! batch through a window ([`make_room`](EngineSession::make_room) before
//! each request), drive until idle, finish.
//!
//! Two stepping granularities share one set of semantics:
//!
//! * [`step`](EngineSession::step) executes exactly one scheduling step —
//!   admit waiting requests lazily within the chunked-prefill token budget,
//!   decode one token for every running sequence past prefill, advance the
//!   clock by the roofline step time, retire finished sequences. This is the
//!   per-token loop, unchanged from the pre-rewrite engine.
//! * [`step_until`](EngineSession::step_until) is the **event-driven** form:
//!   when the batch is in steady-state decode — no prefill in flight, no
//!   admissible waiting request, every sequence past its first token — the
//!   next `K − 1` steps (up to the earliest completion) are provably
//!   identical except for the scalar roofline recurrence, so they are
//!   collapsed into one pass over `(decode_tokens, decode_ctx, clock)` with
//!   zero per-sequence scans, and the loop jumps straight to the next event:
//!   a completion, an admission becoming possible, or the caller-supplied
//!   `horizon` (the cluster layer's next arrival).
//!
//! Macro-stepping is observationally invisible: the collapsed steps change
//! nothing a driver can see (queue length, running count, KV occupancy,
//! cache contents) except the clock, and the arithmetic replays the exact
//! per-step accumulation order, so clocks, reports, and completions stay
//! bit-identical to the per-token loop. `tests/engine_differential.rs`
//! enforces this against the pre-rewrite loop, frozen verbatim as a test
//! fixture (`tests/oracles/session.rs`).
//!
//! A session takes chains, not prompts: [`enqueue_chain`] is its only way
//! in. Each driver — [`SimEngine::run`](crate::SimEngine::run), a relational
//! stage engine, the cluster kernel — hashes prompts with one
//! [`ChainHasher`](crate::ChainHasher) per run, shared by the sessions it
//! drives, so only the fragments the previous prompt did not share are
//! hashed. The hasher only lends the chain: the session copies the ids into
//! its queue arena, a FIFO of fixed-size chunks freed whole from the front
//! as requests are admitted, so the per-step admission path walks
//! precomputed hashes instead of re-hashing the head-of-line prompt on every
//! step it spends blocked behind backpressure, and queueing a request
//! allocates nothing. Admission copies the ids the cache does not hold yet
//! into the cache's own pages; the session keeps nothing of a request once
//! it has completed.
//!
//! A batch driver holds a window, not the batch: it calls [`make_room`]
//! before each [`enqueue_chain`], which steps while the session holds more
//! than `max_num_seqs` requests, so at most `max_num_seqs + 1` are ever
//! queued or running. A step admits at most `max_num_seqs − running`
//! requests and reads the queue no further than that (a blocked head is
//! one of those reads), so a queue of `max_num_seqs + 1 − running` — one
//! more than a step can read — steps exactly as the whole batch would:
//! clocks, reports and completions are those of queueing everything first,
//! while the arena holds a window's ids instead of a table's.
//!
//! [`enqueue_chain`]: EngineSession::enqueue_chain
//! [`make_room`]: EngineSession::make_room

use crate::cache::{CacheConfig, CacheStats, ChainView, PrefixCache, SeqAlloc};
use crate::engine::{Deployment, EngineConfig, EngineError, EngineReport};
use crate::model::ModelSpec;
use crate::time::SimTime;
use std::collections::VecDeque;

/// Per-request outcome record, kept in admission order of completion.
///
/// All timestamps are on the session clock (seconds); a driver that lines
/// sessions up on a shared timeline via [`EngineSession::advance_to`] can
/// therefore compare them across replicas directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Caller-chosen request id (as passed to
    /// [`EngineSession::enqueue_chain`]).
    pub id: usize,
    /// Clock when the request entered the running batch.
    pub admitted_s: f64,
    /// Clock when the last output token was produced.
    pub finished_s: f64,
    /// Admission-to-first-token latency.
    pub ttft_s: f64,
    /// Prompt length in tokens.
    pub prompt_tokens: usize,
    /// Prompt tokens served from the prefix cache.
    pub cached_tokens: usize,
    /// Output tokens generated.
    pub output_tokens: u32,
}

/// Everything a finished session reports: the aggregate [`EngineReport`]
/// plus per-request [`Completion`] records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionReport {
    /// Aggregate job metrics (identical to what [`crate::SimEngine::run`]
    /// returns).
    pub report: EngineReport,
    /// One record per completed request, in completion order.
    pub completions: Vec<Completion>,
}

impl SessionReport {
    /// Merges the reports of sessions that served one job between them (a
    /// stage's replicas, a replica's incarnations): work — counts, tokens,
    /// steps, evictions, attributed times — is summed,
    /// `job_completion_time_s` is the latest clock, peaks the highest,
    /// completions are concatenated in the order given and the four
    /// percentiles re-derived from them. A single report passes through
    /// untouched, which keeps one replica or one incarnation bit-identical
    /// to the bare session and copy-free.
    pub fn merge(parts: impl IntoIterator<Item = SessionReport>) -> SessionReport {
        let mut parts = parts.into_iter().peekable();
        let mut merged = parts.next().unwrap_or_default();
        if parts.peek().is_none() {
            return merged;
        }
        for part in parts {
            let (m, r) = (&mut merged.report, part.report);
            m.job_completion_time_s = m.job_completion_time_s.max(r.job_completion_time_s);
            m.prefill_time_s += r.prefill_time_s;
            m.decode_time_s += r.decode_time_s;
            m.overhead_time_s += r.overhead_time_s;
            m.total_prompt_tokens += r.total_prompt_tokens;
            m.cached_prompt_tokens += r.cached_prompt_tokens;
            m.computed_prompt_tokens += r.computed_prompt_tokens;
            m.total_output_tokens += r.total_output_tokens;
            m.steps += r.steps;
            m.peak_running = m.peak_running.max(r.peak_running);
            m.peak_blocks = m.peak_blocks.max(r.peak_blocks);
            m.evictions += r.evictions;
            m.completed += r.completed;
            merged.completions.extend(part.completions);
        }
        merged.set_latency_percentiles();
        merged
    }

    /// Derives the report's four latency percentiles from the completions.
    fn set_latency_percentiles(&mut self) {
        let (r, done) = (&mut self.report, &self.completions);
        let mut sample: Vec<f64> = done.iter().map(|c| c.ttft_s).collect();
        [r.ttft_p50_s, r.ttft_p99_s] = percentiles(&mut sample, [0.50, 0.99]);
        sample.clear();
        sample.extend(done.iter().map(|c| c.finished_s - c.admitted_s));
        [r.latency_p50_s, r.latency_p99_s] = percentiles(&mut sample, [0.50, 0.99]);
    }
}

/// Block ids per [`IdArena`] chunk: 8 KiB, a few hundred queued prompts'
/// worth.
const CHUNK_IDS: usize = 1024;

/// Where a queued chain's block ids sit in the [`IdArena`].
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    /// Sequence number of the chunk (they are numbered as they are opened).
    chunk: u32,
    start: u32,
    len: u32,
}

#[derive(Debug)]
struct Chunk {
    ids: Vec<u64>,
    /// Queued chains whose ids are in this chunk.
    queued: u32,
}

/// The block ids of the requests waiting for admission: fixed-capacity
/// chunks filled back to front of the queue, a chain never straddling two
/// (one longer than a chunk gets a chunk of its own). Requests are admitted
/// strictly first in, first out, so dead ids are always a prefix of the
/// arena and whole chunks are freed from its front — every chunk in the
/// deque holds a queued chain. Nothing ever grows by doubling, and one freed
/// buffer is kept for the next chunk, so a queue in steady state allocates
/// nothing.
#[derive(Debug, Default)]
struct IdArena {
    chunks: VecDeque<Chunk>,
    /// Sequence number of `chunks[0]`.
    base: u32,
    spare: Vec<u64>,
}

impl IdArena {
    /// Copies the ids of a chain that joins the back of the queue.
    fn push(&mut self, ids: &[u64]) -> Span {
        if ids.is_empty() {
            return Span::default();
        }
        let fits = |c: &Chunk| c.ids.capacity() - c.ids.len() >= ids.len();
        if !self.chunks.back().is_some_and(fits) {
            let mut buffer = std::mem::take(&mut self.spare);
            buffer.reserve_exact(ids.len().max(CHUNK_IDS));
            self.chunks.push_back(Chunk {
                ids: buffer,
                queued: 0,
            });
        }
        // Just checked or pushed.
        let last = self.chunks.len() - 1;
        let chunk = &mut self.chunks[last];
        // Blocks are counted in `u32` throughout: the cache refuses a chain
        // of more, and no chunk is longer than the chain it was opened for.
        debug_assert!(u32::try_from(chunk.ids.len() + ids.len()).is_ok());
        let start = chunk.ids.len() as u32;
        chunk.ids.extend_from_slice(ids);
        chunk.queued += 1;
        Span {
            chunk: self.base.wrapping_add(last as u32),
            start,
            len: ids.len() as u32,
        }
    }

    /// The chain of a queued request, as hashed.
    #[inline]
    fn chain(&self, request: &QueuedRequest) -> ChainView<'_> {
        ChainView::new(self.ids(request.span), request.prompt_tokens)
    }

    /// The ids [`push`](IdArena::push) stored under `span`.
    #[inline]
    fn ids(&self, span: Span) -> &[u64] {
        if span.len == 0 {
            return &[];
        }
        let chunk = &self.chunks[span.chunk.wrapping_sub(self.base) as usize];
        &chunk.ids[span.start as usize..][..span.len as usize]
    }

    /// The chain at the front of the queue left it: its ids are dead, and
    /// with them its chunk once no queued chain is left in it.
    fn pop_front(&mut self, span: Span) {
        if span.len == 0 {
            return;
        }
        debug_assert_eq!(span.chunk, self.base, "the queue is first in, first out");
        let front = &mut self.chunks[0];
        front.queued -= 1;
        if front.queued > 0 {
            return;
        }
        let mut freed = std::mem::take(&mut front.ids);
        self.chunks.pop_front();
        self.base = self.base.wrapping_add(1);
        if freed.capacity() == CHUNK_IDS {
            freed.clear();
            self.spare = freed;
        }
    }
}

/// What the session keeps of a request while it waits for admission:
/// identity, output target, and where its prompt's precomputed cache chain
/// sits in the arena. The prompt tokens themselves are not retained — every
/// cache operation works on the chain.
#[derive(Debug, Clone, Copy)]
struct QueuedRequest {
    id: usize,
    output_len: u32,
    /// Total prompt length in tokens.
    prompt_tokens: usize,
    /// The prompt's full-block ids.
    span: Span,
    /// When the driver offered the request (the `offered_s` of
    /// [`EngineSession::enqueue_chain`]); feeds the traced queue-wait span
    /// and is never read by the scheduler itself.
    offered_s: SimTime,
}

struct Running {
    id: usize,
    output_len: u32,
    alloc: SeqAlloc,
    prompt_len: usize,
    prefilled: usize,
    output_done: u32,
    admitted_at: SimTime,
    first_token_at: Option<SimTime>,
}

/// Percentile of an ascending-sorted sample (nearest-rank); 0 for empty
/// samples. Used for every latency/wait distribution in the workspace so
/// engine- and cluster-level percentiles are always computed identically.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// The 1-based nearest rank of percentile `p` in a sample of `n > 0`.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// [`percentile`] at each of `ps` (ascending) of an **unsorted** sample,
/// which it reorders: one selection per rank instead of a sort. Under
/// `f64::total_cmp` equal elements are the same bits, so the element a
/// selection puts at a rank is the one a sort would, and the results equal
/// `percentile` over the sorted sample bit for bit.
pub fn percentiles<const N: usize>(samples: &mut [f64], ps: [f64; N]) -> [f64; N] {
    let n = samples.len();
    let mut out = [0.0; N];
    if n == 0 {
        return out;
    }
    // Highest rank first: a selection leaves everything smaller to its
    // left, which is where the next one looks.
    let mut rest = samples;
    for (out, p) in out.iter_mut().zip(ps).rev() {
        let rank = nearest_rank(p, n);
        debug_assert!(rank <= rest.len(), "percentiles must ascend");
        *out = *rest.select_nth_unstable_by(rank - 1, f64::total_cmp).1;
        rest = &mut std::mem::take(&mut rest)[..rank];
    }
    out
}

/// A running engine instance that accepts requests over time.
///
/// Create with [`crate::SimEngine::session`]. Drive with [`enqueue_chain`]
/// (arrivals, hashed by the driver), [`make_room`] (step a batch's window
/// open before its next request), [`step`] (advance one scheduling step)
/// or [`step_until`] (advance to the next event, macro-stepping steady-state
/// decode), [`drain`] (step until idle) and [`advance_to`] (idle until an
/// external event); inspect with the load/cache probes; consume with
/// [`finish`].
///
/// [`enqueue_chain`]: EngineSession::enqueue_chain
/// [`make_room`]: EngineSession::make_room
/// [`step`]: EngineSession::step
/// [`step_until`]: EngineSession::step_until
/// [`drain`]: EngineSession::drain
/// [`advance_to`]: EngineSession::advance_to
/// [`finish`]: EngineSession::finish
pub struct EngineSession {
    model: ModelSpec,
    config: EngineConfig,
    capacity_blocks: usize,
    flops: f64,
    bw: f64,
    kv_bytes: f64,
    weight_bytes: f64,
    cache: PrefixCache,
    /// Requests waiting for admission, first in, first out.
    waiting: VecDeque<QueuedRequest>,
    /// The waiting requests' block ids.
    arena: IdArena,
    running: Vec<Running>,
    /// Reused per-step `(running idx, chunk)` prefill schedule buffer.
    chunk_buf: Vec<(usize, usize)>,
    /// Reused per-step buffer of allocations retired this step, released in
    /// one [`PrefixCache::release_batch`] call after the retirement scan.
    release_buf: Vec<crate::cache::SeqAlloc>,
    /// Running sequences still before steady state (prefill in flight or
    /// first token not yet produced). Zero is the O(1) gate that lets
    /// [`step_until`] skip the per-sequence steady-state scan entirely on
    /// prefill-heavy steps.
    ///
    /// [`step_until`]: EngineSession::step_until
    warming: usize,
    clock: SimTime,
    idle_s: f64,
    report: EngineReport,
    completions: Vec<Completion>,
    /// Trace lane (Chrome-trace `pid`) this session's spans land on; lane 0
    /// by default, replica `i + 1` under the cluster simulator.
    trace_lane: u32,
    /// Straggler multiplier applied to every step's roofline time; 1.0 is
    /// nominal speed. Driven by the cluster fault injector.
    slowdown: f64,
}

impl std::fmt::Debug for EngineSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineSession")
            .field("clock", &self.clock)
            .field("waiting", &self.waiting.len())
            .field("running", &self.running.len())
            .field("completed", &self.report.completed)
            .finish_non_exhaustive()
    }
}

impl EngineSession {
    /// A session of `config` on `deployment`: the one gate of the config
    /// (`EngineConfig::check`).
    pub(crate) fn new(deployment: &Deployment, config: EngineConfig) -> Result<Self, EngineError> {
        config.check(deployment)?;
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
        Ok(EngineSession {
            flops: deployment.cluster.total_flops(),
            bw: deployment.cluster.total_mem_bw(),
            kv_bytes: deployment.model.kv_bytes_per_token() as f64,
            weight_bytes: deployment.model.weight_bytes() as f64,
            model: deployment.model.clone(),
            config,
            capacity_blocks,
            cache,
            waiting: VecDeque::new(),
            arena: IdArena::default(),
            running: Vec::new(),
            chunk_buf: Vec::new(),
            release_buf: Vec::new(),
            warming: 0,
            clock: SimTime::ZERO,
            idle_s: 0.0,
            report: EngineReport::default(),
            completions: Vec::new(),
            trace_lane: 0,
            slowdown: 1.0,
        })
    }

    /// Assigns the Chrome-trace lane (`pid`) this session's observability
    /// spans are emitted on. Purely cosmetic for trace grouping; the cluster
    /// simulator gives each replica its own lane.
    pub fn set_trace_lane(&mut self, lane: u32) {
        self.trace_lane = lane;
    }

    /// Sets the straggler multiplier applied to every subsequent step's
    /// roofline time. `1.0` is nominal speed and is an exact no-op on the
    /// step arithmetic (IEEE 754 `x * 1.0 ≡ x`), so an un-slowed session is
    /// bit-identical to one that never heard of slowdowns. The factor must be
    /// finite and positive: the cluster kernel's gate checks its factors.
    pub fn set_slowdown(&mut self, factor: f64) {
        self.slowdown = factor;
    }

    /// Adds a request to the tail of the admission queue under `chain`, its
    /// prompt's block chain as the driver hashed it (and may have probed
    /// this session's cache with). The session copies the ids and keeps
    /// nothing else: the view is free again when the call returns.
    ///
    /// `offered_s` is when the driver offered the request, where its traced
    /// queue wait starts: the current [`clock`](Self::clock) for an arrival,
    /// the clock the batch began at for a batch driver whose
    /// [`make_room`](Self::make_room) has stepped since. The scheduler never
    /// reads it.
    pub fn enqueue_chain(
        &mut self,
        id: usize,
        output_len: u32,
        chain: ChainView<'_>,
        offered_s: SimTime,
    ) {
        debug_assert!(offered_s <= self.clock, "offered in the future");
        let prompt_tokens = chain.prompt_tokens();
        self.waiting.push_back(QueuedRequest {
            id,
            output_len,
            prompt_tokens,
            span: self.arena.push(chain.blocks()),
            offered_s,
        });
        if llmqo_obs::enabled() {
            llmqo_obs::tracer().instant(
                self.trace_lane,
                id as u64,
                "enqueue",
                "request",
                offered_s.secs(),
                &[("prompt_tokens", prompt_tokens.into())],
            );
        }
    }

    /// Steps until the session holds at most `max_num_seqs` requests, queued
    /// and running, so the next [`enqueue_chain`](Self::enqueue_chain) makes
    /// it at most `max_num_seqs + 1`: the window a batch driver queues
    /// through. Every step it takes is one [`drain`](Self::drain) would take
    /// with the whole batch queued — the queue it steps is at least
    /// `max_num_seqs + 1 − running` long, one more than a step reads — so
    /// a batch run this way equals queueing it all first.
    ///
    /// # Errors
    ///
    /// [`EngineError::RequestTooLarge`] if the head-of-queue request can
    /// never fit in KV memory even with the batch drained;
    /// [`EngineError::ClockOverflow`] if a step overflows the clock.
    pub fn make_room(&mut self) -> Result<(), EngineError> {
        while self.waiting.len() + self.running.len() > self.config.max_num_seqs
            && self.step_until(None)?
        {}
        Ok(())
    }

    /// Current session clock.
    pub fn clock(&self) -> SimTime {
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

    /// Every [`Completion`] recorded so far, in completion order — the
    /// mid-session form of [`SessionReport::completions`], for drivers that
    /// attribute per-request serving costs before the session finishes.
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// Total KV capacity in blocks.
    pub fn capacity_blocks(&self) -> usize {
        self.capacity_blocks
    }

    /// KV blocks currently referenced or cached (capacity minus free).
    pub fn kv_blocks_in_use(&self) -> usize {
        self.capacity_blocks - self.cache.free_blocks()
    }

    /// How many leading prompt tokens of `chain` the prefix cache would
    /// serve without prefill, right now. Pure: never mutates cache state.
    pub fn probe_cached_tokens(&self, chain: ChainView<'_>) -> usize {
        self.cache.probe_chain(chain)
    }

    /// The block chain of request `id` while this session holds it, read
    /// from where its ids live now — the queue arena while it waits, its
    /// cache path while it runs — into `buf`, which the view borrows; `None`
    /// once it has completed (or was never queued here). No hashing: the
    /// chain equals the one it was queued under, as the cache admits it
    /// ([`ChainView::unhashed`] when the cache is disabled). A driver that
    /// places a second attempt of a request it already placed here copies
    /// the chain instead of hashing the prompt again.
    ///
    /// A lookup scans the waiting queue (at most the driver's queue bound)
    /// and the running batch (at most `max_num_seqs`), so the enqueue and
    /// admission paths keep no index for it.
    pub fn held_chain<'b>(&self, id: usize, buf: &'b mut Vec<u64>) -> Option<ChainView<'b>> {
        let prompt_tokens = if let Some(r) = self.running.iter().find(|r| r.id == id) {
            self.cache.held_ids(&r.alloc, buf);
            r.prompt_len
        } else {
            let q = self.waiting.iter().find(|q| q.id == id)?;
            let chain = self.cache.admitted_as(self.arena.chain(q));
            buf.clear();
            buf.extend_from_slice(chain.blocks());
            chain.prompt_tokens()
        };
        Some(ChainView::new(buf, prompt_tokens))
    }

    /// Lifetime prefix-cache statistics (admissions, cached tokens,
    /// evictions, peak blocks).
    pub fn cache_stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Cumulative time this session has sat idle via [`advance_to`]
    /// (useful for utilization metrics on a shared timeline).
    ///
    /// [`advance_to`]: EngineSession::advance_to
    pub fn idle_time_s(&self) -> f64 {
        self.idle_s
    }

    /// Idles the session until `t` on the session clock. Only an idle
    /// session can be advanced — time inside a busy session is produced by
    /// [`step`](EngineSession::step). No-ops when `t` is in the past.
    pub fn advance_to(&mut self, t: SimTime) {
        if self.is_idle() && t > self.clock {
            self.idle_s += t - self.clock;
            self.clock = t;
        }
    }

    /// Executes one scheduling step: admit within the prefill budget, run
    /// one decode token for every running sequence past prefill, advance the
    /// clock by the roofline step time, retire finished sequences.
    ///
    /// Returns `Ok(true)` if the step did work, `Ok(false)` if the session
    /// is idle (nothing queued or running).
    ///
    /// # Errors
    ///
    /// [`EngineError::RequestTooLarge`] if the head-of-queue request can
    /// never fit in KV memory even with the batch drained;
    /// [`EngineError::ClockOverflow`] if a step overflows the clock.
    pub fn step(&mut self) -> Result<bool, EngineError> {
        let timer = llmqo_obs::WallTimer::start();
        let out = self.step_inner();
        timer.observe(crate::obs::metrics().wall_step_s);
        out
    }

    fn step_inner(&mut self) -> Result<bool, EngineError> {
        if self.is_idle() {
            return Ok(false);
        }
        // Build the step: decode every running sequence that finished
        // prefill, plus chunked prefill within the token budget.
        let mut decode_tokens = 0u64;
        let mut decode_ctx = 0u64;
        for r in &self.running {
            if r.prefilled >= r.prompt_len && r.output_done < r.output_len {
                decode_tokens += 1;
                decode_ctx += (r.prompt_len as u64) + u64::from(r.output_done);
            }
        }
        let mut budget = self
            .config
            .max_batch_tokens
            .saturating_sub(decode_tokens as usize);
        let mut chunks = std::mem::take(&mut self.chunk_buf); // (running idx, chunk)
        chunks.clear();
        // In-flight prefills continue first (FIFO, vLLM-style) …
        for (i, r) in self.running.iter().enumerate() {
            if budget == 0 {
                break;
            }
            let chunk = (r.prompt_len - r.prefilled).min(budget);
            if chunk > 0 {
                budget -= chunk;
                chunks.push((i, chunk));
            }
        }
        // … then waiting requests are admitted lazily, only when the step
        // has prefill budget for them. Cache lookups therefore happen at
        // schedule time: a request admitted in the same step as an earlier
        // one with the same prefix reuses that request's blocks, whose
        // prefill has not run yet (in-flight sharing).
        while (budget > 0 || decode_tokens + chunks.len() as u64 == 0)
            && self.running.len() < self.config.max_num_seqs
        {
            let Some(&req) = self.waiting.front() else {
                break;
            };
            let chain = self.arena.chain(&req);
            let obs_on = llmqo_obs::enabled();
            let evictions_before = if obs_on {
                self.cache.stats().evictions
            } else {
                0
            };
            let timer = llmqo_obs::WallTimer::start();
            let admitted = self.cache.try_admit_chain(chain, req.output_len as usize);
            timer.observe(crate::obs::metrics().wall_cache_s);
            match admitted {
                Some(alloc) => {
                    self.waiting.pop_front();
                    self.arena.pop_front(req.span);
                    self.clock = self.clock.after(self.config.per_request_overhead_s, 1.0)?;
                    self.report.overhead_time_s += self.config.per_request_overhead_s;
                    self.report.total_prompt_tokens += alloc.prompt_tokens as u64;
                    self.report.cached_prompt_tokens += alloc.cached_tokens as u64;
                    self.running.push(Running {
                        id: req.id,
                        output_len: req.output_len,
                        prompt_len: alloc.prompt_tokens,
                        prefilled: alloc.cached_tokens,
                        output_done: 0,
                        alloc,
                        admitted_at: self.clock,
                        first_token_at: None,
                    });
                    self.warming += 1;
                    if obs_on {
                        self.trace_admission(&req, evictions_before);
                    }
                    let i = self.running.len() - 1;
                    let chunk =
                        (self.running[i].prompt_len - self.running[i].prefilled).min(budget);
                    if chunk > 0 {
                        budget -= chunk;
                        chunks.push((i, chunk));
                    }
                }
                None => {
                    if self.running.is_empty() {
                        let needed = (req.prompt_tokens + req.output_len as usize)
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
            self.chunk_buf = chunks;
            return Ok(false);
        }

        // Apply effects: prefill progress, whose work the step charges, and
        // one decoded token per decoding sequence.
        let (mut prefill_flops, mut prefill_kv_bytes) = (0.0f64, 0.0f64);
        for &(i, chunk) in &chunks {
            let r = &mut self.running[i];
            let ctx_mid = r.prefilled as f64 + chunk as f64 / 2.0;
            prefill_flops += chunk as f64
                * (self.model.flops_per_token() + self.model.attn_flops(ctx_mid as u64));
            prefill_kv_bytes += (r.prefilled + chunk) as f64 * self.kv_bytes;
            r.prefilled += chunk;
            self.report.computed_prompt_tokens += chunk as u64;
        }
        self.chunk_buf = chunks;
        self.charge_step(prefill_flops, prefill_kv_bytes, decode_tokens, decode_ctx)?;
        let mut i = 0;
        while i < self.running.len() {
            let done_prefill = self.running[i].prefilled >= self.running[i].prompt_len;
            if done_prefill {
                let out_target = self.running[i].output_len;
                if self.running[i].output_done < out_target {
                    self.running[i].output_done += 1;
                    self.report.total_output_tokens += 1;
                    if self.running[i].first_token_at.is_none() {
                        self.running[i].first_token_at = Some(self.clock);
                        self.warming -= 1;
                        if llmqo_obs::enabled() {
                            self.trace_first_token(i);
                        }
                    }
                }
                if self.running[i].output_done >= out_target {
                    let r = self.running.swap_remove(i);
                    let first_token_at = match r.first_token_at {
                        Some(t) => t,
                        // Zero-output request: first "token" is completion.
                        None => {
                            self.warming -= 1;
                            self.clock
                        }
                    };
                    if llmqo_obs::enabled() {
                        llmqo_obs::tracer().complete(
                            self.trace_lane,
                            r.id as u64,
                            "decode",
                            "request",
                            first_token_at.secs(),
                            self.clock - first_token_at,
                            &[("output_tokens", u64::from(r.output_done).into())],
                        );
                    }
                    self.completions.push(Completion {
                        id: r.id,
                        admitted_s: r.admitted_at.secs(),
                        finished_s: self.clock.secs(),
                        ttft_s: first_token_at - r.admitted_at,
                        prompt_tokens: r.prompt_len,
                        cached_tokens: r.alloc.cached_tokens,
                        output_tokens: r.output_done,
                    });
                    self.release_buf.push(r.alloc);
                    self.report.completed += 1;
                    continue;
                }
            }
            i += 1;
        }
        if !self.release_buf.is_empty() {
            let timer = llmqo_obs::WallTimer::start();
            self.cache.release_batch(self.release_buf.drain(..));
            timer.observe(crate::obs::metrics().wall_cache_s);
        }
        Ok(true)
    }

    /// Advances the clock by the roofline time of one step — `decoding`
    /// sequences with `decode_ctx` context tokens between them each produce
    /// a token, next to the step's prefill chunks — and attributes it to
    /// the report's phases by compute share.
    #[inline]
    fn charge_step(
        &mut self,
        prefill_flops: f64,
        prefill_kv_bytes: f64,
        decoding: u64,
        decode_ctx: u64,
    ) -> Result<(), EngineError> {
        let decode_flops =
            decoding as f64 * self.model.flops_per_token() + self.model.attn_flops(decode_ctx);
        let compute_t = (prefill_flops + decode_flops) / self.flops;
        let mem_t =
            (self.weight_bytes + decode_ctx as f64 * self.kv_bytes + prefill_kv_bytes) / self.bw;
        let step_t = (compute_t.max(mem_t) + self.config.step_overhead_s) * self.slowdown;
        let total_work = (prefill_flops + decode_flops).max(1.0);
        self.clock = self.clock.after(step_t, total_work)?;
        self.report.prefill_time_s += step_t * prefill_flops / total_work;
        self.report.decode_time_s += step_t * decode_flops / total_work;
        self.report.steps += 1;
        Ok(())
    }

    /// Cold path: span emission for the admission that just pushed the
    /// newest [`Running`] entry. Only called when observability is on.
    fn trace_admission(&self, q: &QueuedRequest, evictions_before: u64) {
        let Some(r) = self.running.last() else {
            return;
        };
        let tr = llmqo_obs::tracer();
        tr.complete(
            self.trace_lane,
            q.id as u64,
            "queued",
            "request",
            q.offered_s.secs(),
            self.clock - q.offered_s,
            &[],
        );
        tr.instant(
            self.trace_lane,
            q.id as u64,
            "cache.admit",
            "cache",
            self.clock.secs(),
            &[
                ("cached_tokens", r.alloc.cached_tokens.into()),
                ("prompt_tokens", r.prompt_len.into()),
            ],
        );
        let evicted = self.cache.stats().evictions - evictions_before;
        if evicted > 0 {
            tr.instant(
                self.trace_lane,
                q.id as u64,
                "cache.evict",
                "cache",
                self.clock.secs(),
                &[("blocks", evicted.into())],
            );
        }
    }

    /// Cold path: span + metric emission when `self.running[i]` produces its
    /// first output token. Only called when observability is on.
    fn trace_first_token(&self, i: usize) {
        let r = &self.running[i];
        crate::obs::metrics()
            .ttft_s
            .record(self.clock - r.admitted_at);
        llmqo_obs::tracer().complete(
            self.trace_lane,
            r.id as u64,
            "prefill",
            "request",
            r.admitted_at.secs(),
            self.clock - r.admitted_at,
            &[
                ("prompt_tokens", r.prompt_len.into()),
                ("cached_tokens", r.alloc.cached_tokens.into()),
            ],
        );
    }

    /// Cold path: publishes the ledger of a finishing session. Every request
    /// it was given is completed, queued or running, and every admitted one
    /// completed or running. The cache's id page figures are levels,
    /// published as the highest any cache reported. Only called when
    /// observability is on.
    fn publish(&self) {
        let (r, done, c) = (&self.report, &self.completions, self.cache.internals());
        let (queued, running) = (self.waiting.len() as u64, self.running.len() as u64);
        let completed = r.completed as u64;
        let output_tokens = done.iter().map(|d| u64::from(d.output_tokens)).sum();
        llmqo_obs::publish(&[
            ("serve.requests_enqueued", completed + queued + running),
            ("serve.requests_admitted", completed + running),
            ("serve.cached_prompt_tokens", r.cached_prompt_tokens),
            ("serve.completions", completed),
            ("serve.output_tokens", output_tokens),
            ("cache.evictions", c.evictions),
            ("cache.block_map_probes", c.block_map_probes),
            ("cache.run_splits", c.run_splits),
            ("cache.heap_stale_invalidations", c.heap_stale_invalidations),
        ]);
        let registry = llmqo_obs::registry();
        let latency = registry.histogram("serve.latency_s");
        for d in done {
            latency.record(d.finished_s - d.admitted_s);
        }
        let (pages, words) = (c.id_pages as f64, c.id_words_live as f64);
        registry.gauge("cache.id_pages").set_max(pages);
        registry.gauge("cache.id_words_live").set_max(words);
    }

    /// If the batch is in steady-state decode, returns the number of steps
    /// until the earliest completion; `None` when the next step is not a
    /// pure decode step (prefill in flight, an admissible waiting request,
    /// a sequence before its first token, or an empty batch).
    ///
    /// Steady state is stable by construction: pure decode steps release no
    /// KV blocks and change no queue, so whatever blocks admission now
    /// blocks it for the whole run.
    fn steady_decode_remaining(&self) -> Option<u32> {
        // O(1) gate: any sequence still prefilling or before its first
        // token rules out a pure decode run without scanning the batch —
        // the common case on prefill-heavy workloads.
        if self.running.is_empty() || self.warming > 0 {
            return None;
        }
        let mut min_remaining = u32::MAX;
        for r in &self.running {
            let target = r.output_len;
            debug_assert!(r.prefilled >= r.prompt_len && r.first_token_at.is_some());
            if r.output_done >= target {
                return None;
            }
            min_remaining = min_remaining.min(target - r.output_done);
        }
        // The head-of-line waiting request must stay blocked throughout:
        // by the sequence-slot limit, by a decode-saturated token budget, or
        // by KV memory (checked without mutating the cache). With every
        // running sequence decoding, the step's prefill budget is
        // `max_batch_tokens − running`, constant across pure decode steps.
        if let Some(req) = self.waiting.front() {
            let slots_free = self.running.len() < self.config.max_num_seqs;
            let budget_free = self
                .config
                .max_batch_tokens
                .saturating_sub(self.running.len())
                > 0;
            if slots_free && budget_free {
                let chain = self.arena.chain(req);
                if self.cache.can_admit_chain(chain, req.output_len as usize) {
                    return None;
                }
            }
        }
        Some(min_remaining)
    }

    /// Collapses up to `steps` pure decode steps into the scalar roofline
    /// recurrence: per step, only `(decode_ctx, clock, report)` advance —
    /// no per-sequence scan, no admission attempt, no cache touch. Stops
    /// early once the clock reaches `horizon`. Returns the steps taken, or
    /// [`EngineError::ClockOverflow`] from a step that overflows the clock.
    ///
    /// Each step is charged by the same `charge_step` a full
    /// [`step`](EngineSession::step) calls, with no prefill: adding `0.0` to
    /// a non-negative sum is exact, so the resulting clock and report are
    /// bit-identical to stepping one by one.
    fn fast_forward(&mut self, steps: u64, horizon: Option<SimTime>) -> Result<u64, EngineError> {
        let timer = llmqo_obs::WallTimer::start();
        let start_clock = self.clock;
        let decoding = self.running.len() as u64;
        let mut decode_ctx: u64 = self
            .running
            .iter()
            .map(|r| r.prompt_len as u64 + u64::from(r.output_done))
            .sum();
        let mut taken = 0u64;
        while taken < steps {
            self.charge_step(0.0, 0.0, decoding, decode_ctx)?;
            decode_ctx += decoding;
            taken += 1;
            if horizon.is_some_and(|h| self.clock >= h) {
                break;
            }
        }
        self.report.total_output_tokens += taken * decoding;
        // `taken ≤ min_remaining − 1 < u32::MAX`: output targets are u32.
        let done = u32::try_from(taken).unwrap_or(u32::MAX);
        for r in &mut self.running {
            r.output_done += done;
        }
        if llmqo_obs::enabled() && taken > 0 {
            llmqo_obs::tracer().complete(
                self.trace_lane,
                0,
                "decode.macro_step",
                "engine",
                start_clock.secs(),
                self.clock - start_clock,
                &[("steps", taken.into()), ("sequences", decoding.into())],
            );
        }
        timer.observe(crate::obs::metrics().wall_decode_recurrence_s);
        Ok(taken)
    }

    /// Advances the session to its next **event**: equivalent to calling
    /// [`step`](EngineSession::step) repeatedly, but steady-state decode
    /// runs are collapsed into the scalar macro-step. One call performs
    /// either a single non-steady step (admission, prefill, first token,
    /// or retirement activity), or a whole decode run ending with the step
    /// that retires its earliest finishers.
    ///
    /// With `horizon = Some(t)`, stepping stops as soon as the clock
    /// reaches `t` — exactly where a driver polling [`clock`] between
    /// single steps would stop — so external arrivals can be interleaved at
    /// the correct instant. `None` means run to the next event
    /// unconditionally.
    ///
    /// Returns `Ok(false)` when the call did no work: the session is idle,
    /// or the clock already sits at/past `horizon` (so
    /// `while s.step_until(h)? {}` terminates at the horizon rather than
    /// spinning; the session may still be busy — check
    /// [`is_idle`](EngineSession::is_idle) to distinguish).
    ///
    /// # Errors
    ///
    /// [`EngineError::RequestTooLarge`] if the head-of-queue request can
    /// never fit in KV memory even with the batch drained;
    /// [`EngineError::ClockOverflow`] if a step overflows the clock.
    ///
    /// [`clock`]: EngineSession::clock
    pub fn step_until(&mut self, horizon: Option<SimTime>) -> Result<bool, EngineError> {
        if self.is_idle() {
            return Ok(false);
        }
        let reached = |clock: SimTime| horizon.is_some_and(|h| clock >= h);
        if reached(self.clock) {
            return Ok(false);
        }
        if let Some(min_remaining) = self.steady_decode_remaining() {
            // `min_remaining − 1` steps are pure (no completion possible);
            // the final one retires the earliest finishers and runs through
            // the full scheduling path to preserve retirement order and
            // post-release admissions.
            let pure = u64::from(min_remaining) - 1;
            if pure > 0 && self.fast_forward(pure, horizon)? < pure {
                return Ok(true);
            }
            if reached(self.clock) {
                return Ok(true);
            }
        }
        self.step()
    }

    /// Drives the session until it is idle, macro-stepping through
    /// steady-state decode. Cache state persists across drains, which is
    /// what makes batched *incremental* submission — the relational layer's
    /// lazy `LIMIT` evaluation — cheaper than one fresh engine run per
    /// batch: later batches reuse the instruction prefix (and any shared
    /// fields) the earlier ones already computed.
    ///
    /// # Errors
    ///
    /// [`EngineError::RequestTooLarge`] if a request can never be admitted;
    /// [`EngineError::ClockOverflow`] if a step overflows the clock.
    pub fn drain(&mut self) -> Result<(), EngineError> {
        while self.step_until(None)? {}
        Ok(())
    }

    /// Finalizes the session: computes latency percentiles and returns the
    /// aggregate report plus per-request completion records. With the sinks
    /// on, this is where the session publishes its ledger, once.
    ///
    /// Percentiles are taken over the completion records, so finishing a
    /// busy session drops the first tokens of requests it never completed.
    /// Only the cluster kernel does that (stashing a crashed incarnation),
    /// and a replica with a stash reports through [`SessionReport::merge`],
    /// which re-derives them anyway.
    pub fn finish(mut self) -> SessionReport {
        #[cfg(debug_assertions)]
        self.cache.check_invariants();
        self.report.job_completion_time_s = self.clock.secs();
        self.report.peak_blocks = self.cache.stats().peak_blocks;
        self.report.evictions = self.cache.stats().evictions;
        if llmqo_obs::enabled() {
            self.publish();
        }
        let mut out = SessionReport {
            report: self.report,
            completions: self.completions,
        };
        out.set_latency_percentiles();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::BlockChain;
    use crate::engine::{SimEngine, SimRequest};
    use crate::hardware::{GpuCluster, GpuSpec};
    use llmqo_tokenizer::TokenId;

    fn at(secs: f64) -> SimTime {
        SimTime::new(secs).unwrap()
    }

    fn engine() -> SimEngine {
        SimEngine::new(
            Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
            EngineConfig::default(),
        )
    }

    /// Queues `requests` on each of `sessions` under chains hashed the way
    /// `e`'s drivers hash them.
    fn enqueue(e: &SimEngine, sessions: &mut [&mut EngineSession], requests: &[SimRequest]) {
        let mut hasher = e.chain_hasher();
        for r in requests {
            let chain = hasher.chain(&r.prompt);
            for s in sessions.iter_mut() {
                s.enqueue_chain(r.id, r.output_len, chain, s.clock());
            }
        }
    }

    /// Queues `requests`, drains the session and returns the completions
    /// the drain produced: a stage engine's batch on one replica.
    fn run_batch<'s>(
        e: &SimEngine,
        s: &'s mut EngineSession,
        requests: &[SimRequest],
    ) -> &'s [Completion] {
        let before = s.completions().len();
        enqueue(e, &mut [&mut *s], requests);
        s.drain().unwrap();
        &s.completions()[before..]
    }

    /// The waiting requests' chains as the arena returns them, front first.
    fn queued_chains(s: &EngineSession) -> Vec<BlockChain> {
        let chains = s.waiting.iter().map(|q| s.arena.chain(q));
        chains.map(Into::into).collect()
    }

    fn reqs(n: usize, shared: usize, tail: usize, output: u32) -> Vec<SimRequest> {
        (0..n)
            .map(|i| {
                let mut t: Vec<TokenId> = (0..shared as u32).collect();
                t.extend((0..tail as u32).map(|j| 100_000 + i as u32 * 1000 + j));
                SimRequest::from_tokens(i, t, output)
            })
            .collect()
    }

    #[test]
    fn stepped_session_matches_batch_run() {
        let e = engine();
        let rs = reqs(40, 64, 32, 4);
        let batch = e.run(&rs).unwrap();
        let mut s = e.session().unwrap();
        enqueue(&e, &mut [&mut s], &rs);
        while s.step().unwrap() {}
        let out = s.finish();
        assert_eq!(out.report, batch);
        assert_eq!(out.completions.len(), 40);
    }

    #[test]
    fn macro_stepping_matches_single_stepping() {
        let e = engine();
        let rs = reqs(60, 96, 32, 24);
        let mut fine = e.session().unwrap();
        let mut coarse = e.session().unwrap();
        enqueue(&e, &mut [&mut fine, &mut coarse], &rs);
        while fine.step().unwrap() {}
        while coarse.step_until(None).unwrap() {}
        let a = fine.finish();
        let b = coarse.finish();
        assert_eq!(a, b);
    }

    #[test]
    fn step_until_honors_the_horizon() {
        let e = engine();
        let rs = reqs(8, 64, 16, 64);
        let mut fine = e.session().unwrap();
        let mut coarse = e.session().unwrap();
        enqueue(&e, &mut [&mut fine, &mut coarse], &rs);
        // Walk both sessions to a mid-flight instant the fine-grained loop
        // defines; the macro loop must stop at the exact same clock.
        let t = at(1.5);
        while !fine.is_idle() && fine.clock() < t {
            fine.step().unwrap();
        }
        while !coarse.is_idle() && coarse.clock() < t {
            coarse.step_until(Some(t)).unwrap();
        }
        assert_eq!(fine.clock(), coarse.clock());
        assert_eq!(fine.completed(), coarse.completed());
        // At/past the horizon the call does no work and says so, so a
        // `while step_until(h)?` driver loop terminates instead of spinning.
        if coarse.clock() >= t {
            let before = coarse.clock();
            assert!(!coarse.step_until(Some(t)).unwrap());
            assert_eq!(coarse.clock(), before);
        }
        while fine.step().unwrap() {}
        while coarse.step_until(None).unwrap() {}
        assert_eq!(fine.finish(), coarse.finish());
    }

    #[test]
    fn completions_are_exactly_once_and_consistent() {
        let e = engine();
        let rs = reqs(25, 32, 16, 3);
        let mut s = e.session().unwrap();
        enqueue(&e, &mut [&mut s], &rs);
        while s.step().unwrap() {}
        let out = s.finish();
        let mut ids: Vec<usize> = out.completions.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..25).collect::<Vec<_>>());
        for c in &out.completions {
            assert!(c.admitted_s <= c.finished_s);
            assert!(c.ttft_s >= 0.0);
            assert!(c.cached_tokens <= c.prompt_tokens);
            assert_eq!(c.output_tokens, 3);
        }
        let cached: u64 = out.completions.iter().map(|c| c.cached_tokens as u64).sum();
        assert_eq!(cached, out.report.cached_prompt_tokens);
    }

    #[test]
    fn run_batch_once_matches_engine_run() {
        let e = engine();
        let rs = reqs(30, 64, 32, 4);
        let batch = e.run(&rs).unwrap();
        let mut s = e.session().unwrap();
        let completions = run_batch(&e, &mut s, &rs);
        assert_eq!(completions.len(), 30);
        assert_eq!(s.finish().report, batch);
    }

    #[test]
    fn run_batch_returns_only_new_completions_and_reuses_cache() {
        let e = engine();
        let rs = reqs(40, 96, 16, 2);
        let mut s = e.session().unwrap();
        let first = run_batch(&e, &mut s, &rs[..20]).to_vec();
        assert_eq!(first.len(), 20);
        let first_cached: usize = first.iter().map(|c| c.cached_tokens).sum();
        let second = run_batch(&e, &mut s, &rs[20..]);
        assert_eq!(second.len(), 20);
        let mut ids: Vec<usize> = second.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (20..40).collect::<Vec<_>>());
        // The shared 96-token prefix computed by batch one serves batch two
        // from cache: every second-batch request hits it fully.
        for c in second {
            assert!(c.cached_tokens >= 96, "cached {} < prefix", c.cached_tokens);
        }
        let second_cached: usize = second.iter().map(|c| c.cached_tokens).sum();
        assert!(second_cached > first_cached);
        assert_eq!(s.finish().completions.len(), 40);
    }

    #[test]
    fn run_batch_with_no_requests_is_a_noop() {
        let e = engine();
        let mut s = e.session().unwrap();
        assert!(run_batch(&e, &mut s, &[]).is_empty());
        assert_eq!(s.clock(), SimTime::ZERO);
    }

    #[test]
    fn arrivals_mid_flight_are_served() {
        let e = engine();
        let mut s = e.session().unwrap();
        enqueue(&e, &mut [&mut s], &reqs(10, 48, 16, 2));
        // Drain halfway, then add late arrivals.
        for _ in 0..3 {
            s.step().unwrap();
        }
        let mut late = reqs(5, 48, 16, 2);
        late.iter_mut().for_each(|r| r.id += 100);
        enqueue(&e, &mut [&mut s], &late);
        while s.step().unwrap() {}
        let out = s.finish();
        assert_eq!(out.report.completed, 15);
    }

    #[test]
    fn advance_to_only_moves_idle_sessions_forward() {
        let e = engine();
        let mut s = e.session().unwrap();
        s.advance_to(at(5.0));
        assert_eq!(s.clock(), at(5.0));
        assert_eq!(s.idle_time_s(), 5.0);
        s.advance_to(at(2.0)); // past: no-op
        assert_eq!(s.clock(), at(5.0));
        enqueue(
            &e,
            &mut [&mut s],
            &[SimRequest::from_tokens(0, vec![1, 2, 3, 4], 1)],
        );
        s.advance_to(at(50.0)); // busy: no-op
        assert_eq!(s.clock(), at(5.0));
        while s.step().unwrap() {}
        let out = s.finish();
        assert_eq!(out.report.completed, 1);
        assert!(out.completions[0].admitted_s >= 5.0);
    }

    #[test]
    fn make_room_holds_a_window_of_max_num_seqs_plus_one() {
        let e = SimEngine::new(
            Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
            EngineConfig {
                max_num_seqs: 3,
                ..EngineConfig::default()
            },
        );
        let requests: Vec<SimRequest> = (0..4)
            .map(|i| {
                let prompt = (0..32).map(|t| i as u32 * 64 + t).collect();
                // Distinct output lengths: one request retires at a time.
                SimRequest::from_tokens(i, prompt, 2 + 3 * i as u32)
            })
            .collect();
        let mut s = e.session().unwrap();
        // Holding `max_num_seqs`, the next request may join without a step.
        enqueue(&e, &mut [&mut s], &requests[..3]);
        s.make_room().unwrap();
        assert_eq!(
            (s.clock(), s.queued()),
            (SimTime::ZERO, 3),
            "no step at max_num_seqs"
        );
        // Holding `max_num_seqs + 1`, the session steps until one retires.
        enqueue(&e, &mut [&mut s], &requests[3..]);
        s.make_room().unwrap();
        assert!(s.clock() > SimTime::ZERO);
        assert_eq!(s.queued() + s.running(), 3);
    }

    #[test]
    fn probes_track_queue_and_cache() {
        let e = engine();
        let mut s = e.session().unwrap();
        assert!(s.is_idle());
        assert_eq!(s.kv_blocks_in_use(), 0);
        let request = SimRequest::from_tokens(0, (0..64).collect(), 1);
        let mut hasher = e.chain_hasher();
        let chain = hasher.chain(&request.prompt);
        s.enqueue_chain(request.id, request.output_len, chain, SimTime::ZERO);
        assert_eq!(s.queued(), 1);
        assert_eq!(s.probe_cached_tokens(chain), 0);
        while s.step().unwrap() {}
        // After completion the blocks stay cached (refcount 0).
        assert_eq!(s.probe_cached_tokens(chain), 64);
        assert!(s.kv_blocks_in_use() > 0);
        assert!(s.capacity_blocks() > 0);
        assert_eq!(s.cache_stats().admitted, 1);
    }

    /// The chain `from_fragments` defines for `r` under the default config.
    fn defined(r: &SimRequest) -> BlockChain {
        BlockChain::from_fragments(16, r.prompt.iter().map(|f| &f[..]))
    }

    #[test]
    fn admission_moves_chains_out_of_the_store() {
        // A waiting request's block ids live in the arena and nowhere else;
        // they leave it with the admission (the cache copies what it does
        // not hold yet), chunk by chunk, and a completed request leaves
        // nothing behind in the session but its completion record.
        let e = engine();
        let mut s = e.session().unwrap();
        let rs = reqs(12, 64, 32, 2);
        enqueue(&e, &mut [&mut s], &rs);
        let defined: Vec<BlockChain> = rs.iter().map(defined).collect();
        assert_eq!(queued_chains(&s), defined);
        assert_eq!(s.arena.chunks.len(), 1);
        s.step().unwrap();
        assert!(s.running() > 0);
        assert_eq!(queued_chains(&s), defined[12 - s.queued()..]);
        while s.step().unwrap() {}
        assert!(s.waiting.is_empty() && s.running.is_empty());
        assert!(
            s.arena.chunks.is_empty(),
            "the last chunk went with its last chain"
        );
        assert_eq!(s.finish().report.completed, 12);
    }

    #[test]
    fn a_held_chain_is_the_chain_the_request_was_queued_under() {
        // `a` has six full blocks; `b` shares its first three, so admitting
        // `b` while `a` runs splits `a`'s run under it.
        let a = SimRequest::from_tokens(0, (0..100).collect(), 40);
        let mut b_tokens: Vec<TokenId> = (0..48).collect();
        b_tokens.extend(1_000..1_060);
        let b = SimRequest::from_tokens(1, b_tokens, 40);
        let e = engine();
        let mut s = e.session().unwrap();
        let mut buf = Vec::new();
        let mut held = |s: &EngineSession, id| s.held_chain(id, &mut buf).map(BlockChain::from);
        enqueue(&e, &mut [&mut s], std::slice::from_ref(&a));
        assert_eq!(held(&s, 0), Some(defined(&a)), "queued");
        s.step().unwrap();
        assert_eq!((s.queued(), s.running()), (0, 1));
        assert_eq!(held(&s, 0), Some(defined(&a)), "running");
        enqueue(&e, &mut [&mut s], std::slice::from_ref(&b));
        assert_eq!(
            held(&s, 1),
            Some(defined(&b)),
            "queued behind a running one"
        );
        s.step().unwrap();
        assert_eq!((s.running(), s.cache.internals().run_splits), (2, 1));
        assert_eq!(held(&s, 0), Some(defined(&a)), "running, its run split");
        assert_eq!(held(&s, 1), Some(defined(&b)), "running on the split head");
        assert_eq!(held(&s, 2), None, "never queued");
        s.drain().unwrap();
        assert_eq!((held(&s, 0), held(&s, 1)), (None, None), "completed");

        // A disabled cache holds every chain unhashed, whatever it was
        // queued under.
        let off = SimEngine::new(e.deployment().clone(), EngineConfig::no_cache());
        let mut s = off.session().unwrap();
        let unhashed = Some(ChainView::unhashed(100));
        s.enqueue_chain(0, 40, defined(&a).view(), SimTime::ZERO);
        assert_eq!(s.held_chain(0, &mut buf), unhashed, "queued");
        s.step().unwrap();
        assert_eq!(s.running(), 1);
        assert_eq!(s.held_chain(0, &mut buf), unhashed, "running");
    }

    #[test]
    fn the_arena_survives_a_request_that_can_never_be_admitted() {
        // Chains of every size around a chunk — none, a few blocks, more
        // than a whole chunk — queue behind one another; the fourth request
        // can never fit. Every step up to and including the ones that
        // refuse it must leave each waiting chain exactly as hashed.
        let e = engine();
        let cap_tokens = e.deployment().kv_capacity_tokens(e.config()) as u32;
        let lens = [
            7,
            16 * (CHUNK_IDS as u32 + 3),
            300,
            cap_tokens + 64,
            90,
            16 * 40,
        ];
        assert!(lens[1] < cap_tokens, "the long chain is admissible");
        let rs: Vec<SimRequest> = lens
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                SimRequest::from_tokens(i, (0..n).map(|t| t * 8 + i as u32).collect(), 1)
            })
            .collect();
        let defined: Vec<BlockChain> = rs.iter().map(defined).collect();
        let mut s = e.session().unwrap();
        enqueue(&e, &mut [&mut s], &rs[..4]);
        assert_eq!(
            s.arena.chunks.len(),
            3,
            "the long chain has a chunk of its own"
        );
        let refused = loop {
            assert_eq!(queued_chains(&s), defined[4 - s.queued()..4]);
            match s.step() {
                Ok(_) => {}
                Err(err) => break err,
            }
        };
        assert!(matches!(
            refused,
            EngineError::RequestTooLarge { id: 3, .. }
        ));
        // The head stays queued, and so does what arrives behind it.
        enqueue(&e, &mut [&mut s], &rs[4..]);
        assert!(s.step().is_err());
        assert_eq!(queued_chains(&s), defined[3..]);
        assert_eq!(
            s.arena.chunks.len(),
            2,
            "the served chains' chunks are gone"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The arena against a queue of owned vectors: under any
        /// interleaving of pushes (empty chains, short ones, ones longer
        /// than a chunk) and pops, every queued span reads back its ids,
        /// every chunk holds a queued chain, and no more chunks are live
        /// than the queued ids could need.
        #[test]
        fn the_arena_is_a_fifo_of_chains(
            ops in proptest::collection::vec((0u8..5, 0usize..3, 0usize..700), 1..200),
        ) {
            let mut arena = IdArena::default();
            let mut queue: VecDeque<(Span, Vec<u64>)> = VecDeque::new();
            let mut next = 0u64;
            for (op, class, len) in ops {
                if op < 3 {
                    let len = [0, len, CHUNK_IDS + len][class];
                    let ids: Vec<u64> = (next..next + len as u64).collect();
                    next += len as u64;
                    queue.push_back((arena.push(&ids), ids));
                } else if let Some((span, _)) = queue.pop_front() {
                    arena.pop_front(span);
                }
                for (span, ids) in &queue {
                    proptest::prop_assert_eq!(arena.ids(*span), &ids[..]);
                }
                let chains = queue.iter().filter(|(_, ids)| !ids.is_empty()).count();
                let queued: u32 = arena.chunks.iter().map(|c| c.queued).sum();
                proptest::prop_assert_eq!(queued as usize, chains);
                proptest::prop_assert!(arena.chunks.iter().all(|c| c.queued > 0));
                proptest::prop_assert!(arena.spare.is_empty());
            }
        }
    }

    #[test]
    fn percentile_helper_edges() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0], 0.5), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.99), 4.0);
    }

    #[test]
    fn percentiles_select_what_sorting_finds() {
        assert_eq!(percentiles(&mut [], [0.5, 0.99]), [0.0, 0.0]);
        // Duplicates, both zeros, every size around the rank boundaries.
        let mut x = 7u64;
        for n in 1..=130usize {
            let sample: Vec<f64> = (0..n)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    [-0.0, 0.0, 1.5, (x >> 40) as f64 / 64.0][(x >> 33) as usize % 4]
                })
                .collect();
            let mut sorted = sample.clone();
            sorted.sort_by(f64::total_cmp);
            let ps = [0.0, 0.5, 0.5, 0.99, 1.0];
            let got = percentiles(&mut sample.clone(), ps);
            for (got, p) in got.into_iter().zip(ps) {
                assert_eq!(
                    got.to_bits(),
                    percentile(&sorted, p).to_bits(),
                    "n {n} p {p}"
                );
            }
            assert_eq!(got[4].to_bits(), sorted[n - 1].to_bits());
        }
    }

    #[test]
    fn step_on_idle_session_is_noop() {
        let e = engine();
        let mut s = e.session().unwrap();
        assert!(!s.step().unwrap());
        assert!(!s.step_until(None).unwrap());
        assert_eq!(s.clock(), SimTime::ZERO);
    }

    #[test]
    fn macro_steps_collapse_decode_runs() {
        // One batch of equal-length outputs decodes in lockstep: the whole
        // decode run after the prefill phase must land in a handful of
        // `step_until` events, while `report.steps` still counts every
        // simulated step.
        let e = engine();
        let rs = reqs(16, 64, 16, 200);
        let mut s = e.session().unwrap();
        enqueue(&e, &mut [&mut s], &rs);
        let mut events = 0u64;
        while s.step_until(None).unwrap() {
            events += 1;
        }
        let out = s.finish();
        assert_eq!(out.report.completed, 16);
        assert!(
            events * 4 < out.report.steps,
            "only {events} events for {} steps — macro-stepping inactive?",
            out.report.steps
        );
    }
}
