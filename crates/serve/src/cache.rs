//! Paged KV cache with hash-chain prefix reuse (the vLLM/SGLang stand-in).
//!
//! Tokens are grouped into fixed-size **blocks** (16 tokens by default, as in
//! vLLM). A block's identity is the hash of its content chained with its
//! parent block's hash, so equal *prefixes* — not just equal blocks — map to
//! equal chains, exactly like vLLM's automatic prefix caching. Properties
//! modeled:
//!
//! * **Sharing**: admitting a sequence whose prefix chain already exists
//!   reuses those blocks (refcounted), consuming no new memory.
//! * **Computed-ness**: a shared block only saves *compute* once some
//!   request's prefill has actually produced it; concurrent requests with the
//!   same cold prefix share memory but both pay the FLOPs.
//! * **Eviction**: LRU over refcount-0 *leaf* blocks (evicting an interior
//!   block would orphan its children's chain identity).
//! * **Private blocks**: the prompt's partial tail block and all decode
//!   (generated) tokens are per-sequence and never shared.
//!
//! Disabling the cache (`enabled = false`) gives the paper's *No Cache*
//! baseline: every block is private and every token is computed.

use llmqo_tokenizer::TokenId;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Multiply-mix hasher for the block map. Block keys are already FNV-chained
/// 64-bit hashes produced by the cache itself — no untrusted input reaches
/// this map — so SipHash's flooding resistance buys nothing and its cost
/// dominates cached admissions on large jobs.
#[derive(Debug, Default, Clone)]
struct BlockKeyHasher {
    hash: u64,
}

impl Hasher for BlockKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 keys (unused by the u64 block map).
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.hash = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type BlockMap = HashMap<u64, BlockEntry, BuildHasherDefault<BlockKeyHasher>>;

/// Configuration of the KV block cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Tokens per KV block.
    pub block_size: usize,
    /// Total block capacity (derived from GPU memory minus weights).
    pub capacity_blocks: usize,
    /// Whether prefix sharing is enabled.
    pub enabled: bool,
    /// Whether a block that exists but has not finished prefill counts as a
    /// compute hit. `true` models SGLang RadixAttention / cascade-inference
    /// style serving where concurrent same-prefix requests are deduplicated
    /// (the setting the paper's measured hit rates imply); `false` models
    /// strict vLLM-v0 semantics where only *computed* blocks are reused.
    pub share_in_flight: bool,
}

/// A prompt's prefix-cache identity, precomputed once: the chain hashes of
/// its full blocks plus the total prompt length.
///
/// Flattening a fragment list and hashing it is O(prompt length); a request
/// stuck at the head of the admission queue used to pay that cost on every
/// scheduling step it waited. Computing the chain once per placement and
/// handing it to [`PrefixCache::probe_chain`] / [`PrefixCache::try_admit_chain`]
/// makes every later cache operation a walk over `prompt_len / block_size`
/// precomputed hashes. [`BlockChain::from_fragments`] is the *definition* of
/// the chain; [`ChainHasher`] is how the serving paths compute it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockChain {
    /// Chain hashes of the prompt's full blocks, in chain order.
    chain: Vec<u64>,
    /// Total prompt length in tokens (full blocks + tail).
    prompt_tokens: usize,
}

impl BlockChain {
    /// Hashes a flat token slice into its block chain.
    pub fn from_tokens(block_size: usize, tokens: &[TokenId]) -> Self {
        Self::from_fragments(block_size, std::iter::once(tokens))
    }

    /// Hashes a logically concatenated fragment list into its block chain
    /// without materializing the flat prompt (blocks may span fragment
    /// boundaries; the hash is identical to hashing the flattened tokens).
    pub fn from_fragments<'a>(
        block_size: usize,
        fragments: impl IntoIterator<Item = &'a [TokenId]>,
    ) -> Self {
        assert!(block_size > 0, "block_size must be positive");
        let mut chain = Vec::new();
        let mut parent = None;
        let mut h = chain_seed(parent);
        let mut in_block = 0usize;
        let mut prompt_tokens = 0usize;
        for fragment in fragments {
            prompt_tokens += fragment.len();
            for &t in fragment {
                chain_mix_token(&mut h, t);
                in_block += 1;
                if in_block == block_size {
                    chain.push(h);
                    parent = Some(h);
                    h = chain_seed(parent);
                    in_block = 0;
                }
            }
        }
        BlockChain {
            chain,
            prompt_tokens,
        }
    }

    /// A chain that records only the prompt length — for **disabled** caches,
    /// which never look at block identity. Passing an unhashed chain to an
    /// enabled cache would report every block as missing.
    pub fn unhashed(prompt_tokens: usize) -> Self {
        BlockChain {
            chain: Vec::new(),
            prompt_tokens,
        }
    }

    /// Total prompt length in tokens.
    pub fn prompt_tokens(&self) -> usize {
        self.prompt_tokens
    }

    /// The full-block chain hashes, in chain order.
    pub fn blocks(&self) -> &[u64] {
        &self.chain
    }
}

/// Hasher state at a fragment boundary: everything
/// [`BlockChain::from_fragments`] carries from one fragment into the next.
#[derive(Debug, Clone, Copy)]
struct Checkpoint {
    /// Full blocks emitted so far.
    blocks: usize,
    /// Hash of the block in progress (seeded with its parent, then mixed
    /// with `in_block` tokens).
    hash: u64,
    /// Tokens mixed into the block in progress.
    in_block: usize,
    /// Prompt tokens consumed so far.
    tokens: usize,
}

/// Incremental [`BlockChain`] builder that hashes only the part of a prompt
/// the *previous* prompt did not share.
///
/// Reordered workloads submit prompts whose leading fragments are the very
/// same `Arc`s as the previous prompt's (the instruction, then the fields
/// the solver moved to the front). The hasher keeps the previous prompt's
/// fragments and, at every fragment boundary, a checkpoint of the chain
/// state; the next call finds the longest run of leading fragments that are
/// **pointer-equal** to the previous call's, resumes from that checkpoint
/// and mixes in only the suffix.
///
/// Pointer equality is sound because the hasher holds strong references: a
/// fragment it remembers cannot be freed, so its address cannot be reused
/// by different content, and an `Arc<[TokenId]>` with more than one owner is
/// immutable. Equal content behind distinct `Arc`s is simply re-hashed. The
/// per-token mixing is [`BlockChain::from_fragments`]'s, resumed mid-stream,
/// so the resulting chain is identical to it for every input sequence.
#[derive(Debug)]
pub struct ChainHasher {
    block_size: usize,
    /// `false` for a disabled prefix cache, which admits by length alone:
    /// [`chain`](ChainHasher::chain) then returns [`BlockChain::unhashed`].
    enabled: bool,
    /// The previous prompt's fragments.
    prev: Vec<Arc<[TokenId]>>,
    /// `checkpoints[i]` is the state after `prev[..=i]`.
    checkpoints: Vec<Checkpoint>,
    /// The previous prompt's block hashes; the next chain's shared prefix.
    blocks: Vec<u64>,
    tokens_hashed: u64,
    tokens_reused: u64,
}

impl ChainHasher {
    /// A hasher producing chains for a cache of the given block size;
    /// `enabled` is the cache's [`CacheConfig::enabled`].
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(block_size: usize, enabled: bool) -> Self {
        assert!(block_size > 0, "block_size must be positive");
        ChainHasher {
            block_size,
            enabled,
            prev: Vec::new(),
            checkpoints: Vec::new(),
            blocks: Vec::new(),
            tokens_hashed: 0,
            tokens_reused: 0,
        }
    }

    /// The block chain of the logically concatenated `fragments` — equal to
    /// [`BlockChain::from_fragments`] for an enabled cache,
    /// [`BlockChain::unhashed`] for a disabled one.
    pub fn chain(&mut self, fragments: &[Arc<[TokenId]>]) -> BlockChain {
        if !self.enabled {
            return BlockChain::unhashed(fragments.iter().map(|f| f.len()).sum());
        }
        let shared = self
            .prev
            .iter()
            .zip(fragments)
            .take_while(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        let resume = match shared.checked_sub(1) {
            Some(last) => self.checkpoints[last],
            None => Checkpoint {
                blocks: 0,
                hash: chain_seed(None),
                in_block: 0,
                tokens: 0,
            },
        };
        self.prev.truncate(shared);
        self.checkpoints.truncate(shared);
        self.blocks.truncate(resume.blocks);
        let Checkpoint {
            mut hash,
            mut in_block,
            mut tokens,
            ..
        } = resume;
        for fragment in &fragments[shared..] {
            let mut rest = &fragment[..];
            while !rest.is_empty() {
                let (head, tail) = rest.split_at(rest.len().min(self.block_size - in_block));
                for &t in head {
                    chain_mix_token(&mut hash, t);
                }
                in_block += head.len();
                rest = tail;
                if in_block == self.block_size {
                    self.blocks.push(hash);
                    hash = chain_seed(Some(hash));
                    in_block = 0;
                }
            }
            tokens += fragment.len();
            self.prev.push(Arc::clone(fragment));
            self.checkpoints.push(Checkpoint {
                blocks: self.blocks.len(),
                hash,
                in_block,
                tokens,
            });
        }
        self.tokens_reused += resume.tokens as u64;
        self.tokens_hashed += (tokens - resume.tokens) as u64;
        BlockChain {
            // `clone` allocates exactly `len` slots.
            chain: self.blocks.clone(),
            prompt_tokens: tokens,
        }
    }

    /// Prompt tokens this hasher mixed in, over its lifetime.
    pub fn tokens_hashed(&self) -> u64 {
        self.tokens_hashed
    }

    /// Prompt tokens this hasher skipped by resuming from a checkpoint.
    pub fn tokens_reused(&self) -> u64 {
        self.tokens_reused
    }
}

/// Allocation handle for one admitted sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqAlloc {
    /// Hashes of the sequence's full prompt blocks, in chain order.
    chain: Vec<u64>,
    /// Private (unshared) blocks reserved: prompt tail + decode tokens.
    private_blocks: usize,
    /// Prompt tokens whose blocks were already computed at admission.
    pub cached_tokens: usize,
    /// Total prompt tokens.
    pub prompt_tokens: usize,
}

/// Aggregate statistics over a cache's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Sequences admitted.
    pub admitted: u64,
    /// Prompt tokens across admitted sequences.
    pub total_prompt_tokens: u64,
    /// Prompt tokens served from computed cached blocks.
    pub cached_tokens: u64,
    /// Blocks evicted to make room.
    pub evictions: u64,
    /// Peak simultaneous blocks in use (shared + private).
    pub peak_blocks: usize,
}

/// Internal bookkeeping counters over a cache's lifetime — the *cost* side
/// of the cache, as opposed to [`CacheStats`]' *outcome* side.
///
/// Deliberately **not** part of [`CacheStats`]: the stats struct is
/// byte-compared by every differential oracle, and these counters measure
/// implementation work (map probes, lazy-heap churn) that optimizations
/// are allowed to change. They exist to turn the ROADMAP's "cached-sim
/// bottleneck is the cache itself" hypothesis into numbers; the `perf_trace`
/// bench publishes them into the `llmqo-obs` registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheInternals {
    /// Block-map lookups on the probe/admission read paths
    /// (`probe_chain` + `admission_plan` chain walks).
    pub block_map_probes: u64,
    /// Stale lazy-invalidation heap entries skipped by `evict_one` or
    /// dropped by the periodic heap compaction.
    pub heap_stale_invalidations: u64,
    /// Calls to [`PrefixCache::mark_computed`] (one per prefill chunk that
    /// landed, the per-step cache write traffic).
    pub mark_computed_calls: u64,
    /// Blocks evicted (same number as [`CacheStats::evictions`], repeated
    /// here so one struct carries the whole internals picture).
    pub evictions: u64,
}

/// Outcome of the shared enabled-cache admission arithmetic
/// (`PrefixCache::admission_plan`).
struct AdmissionPlan {
    /// Prompt tokens that would be served from cache at admission.
    cached_tokens: usize,
    /// Private blocks the sequence would reserve (prompt tail + decode).
    private: usize,
    /// Whether the supply check passes right now.
    fits: bool,
}

#[derive(Debug)]
struct BlockEntry {
    parent: Option<u64>,
    refcount: u32,
    children: u32,
    computed: bool,
    last_used: u64,
}

/// The paged prefix cache. See the `cache` module docs for semantics.
#[derive(Debug)]
pub struct PrefixCache {
    config: CacheConfig,
    blocks: BlockMap,
    /// Min-heap of `(last_used, hash)` candidates for blocks that entered
    /// the `refcount == 0 && children == 0` state. Entries are invalidated
    /// **lazily**: a revived or re-stamped block simply leaves a stale entry
    /// behind, and [`evict_one`](PrefixCache::evict_one) skips any entry
    /// whose block no longer matches it. Valid entries are exactly the
    /// blocks an ordered set would hold, so eviction order (LRU leaf,
    /// hash-tie-broken) is unchanged — only the bookkeeping cost drops.
    evictable: BinaryHeap<Reverse<(u64, u64)>>,
    /// Count of blocks with `refcount == 0`. Because a sequence references
    /// its *entire* chain, a refcount-0 block can only have refcount-0
    /// descendants, so every such block is reclaimable (in leaf-first
    /// cascade order).
    rc0_blocks: usize,
    private_blocks: usize,
    clock: u64,
    stats: CacheStats,
    /// Read-path lookup count ([`CacheInternals::block_map_probes`]); a
    /// `Cell` because `probe_chain`/`admission_plan` are `&self`.
    probes: Cell<u64>,
    /// Stale heap entries skipped/compacted away
    /// ([`CacheInternals::heap_stale_invalidations`]).
    stale: Cell<u64>,
    /// [`mark_computed`](PrefixCache::mark_computed) call count.
    marks: Cell<u64>,
}

impl PrefixCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.block_size > 0, "block_size must be positive");
        PrefixCache {
            config,
            blocks: HashMap::default(),
            evictable: BinaryHeap::new(),
            rc0_blocks: 0,
            private_blocks: 0,
            clock: 0,
            stats: CacheStats::default(),
            probes: Cell::new(0),
            stale: Cell::new(0),
            marks: Cell::new(0),
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Blocks currently unoccupied.
    pub fn free_blocks(&self) -> usize {
        self.config
            .capacity_blocks
            .saturating_sub(self.blocks.len() + self.private_blocks)
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Lifetime internal bookkeeping counters (see [`CacheInternals`]).
    pub fn internals(&self) -> CacheInternals {
        CacheInternals {
            block_map_probes: self.probes.get(),
            heap_stale_invalidations: self.stale.get(),
            mark_computed_calls: self.marks.get(),
            evictions: self.stats.evictions,
        }
    }

    /// Number of prompt tokens of `tokens` that would be served from
    /// already-computed cached blocks right now (no state change).
    ///
    /// Convenience wrapper over [`probe_chain`](PrefixCache::probe_chain)
    /// that hashes `tokens` on the fly.
    pub fn probe(&self, tokens: &[TokenId]) -> usize {
        if !self.config.enabled {
            return 0;
        }
        self.probe_chain(&BlockChain::from_tokens(self.config.block_size, tokens))
    }

    /// [`probe`](PrefixCache::probe) over a precomputed [`BlockChain`]: no
    /// hashing, just a walk over the chain. Pure: never mutates cache state.
    pub fn probe_chain(&self, chain: &BlockChain) -> usize {
        if !self.config.enabled {
            return 0;
        }
        let bs = self.config.block_size;
        let mut cached = 0usize;
        for h in chain.blocks() {
            self.probes.set(self.probes.get() + 1);
            match self.blocks.get(h) {
                Some(e) if e.computed || self.config.share_in_flight => cached += bs,
                _ => break,
            }
        }
        cached
    }

    /// Whether [`try_admit_chain`](PrefixCache::try_admit_chain) would
    /// succeed right now, without mutating anything (not even the LRU
    /// clock). Admission supply changes only when sequences are admitted or
    /// released, so between such events one check answers for every
    /// scheduling step — the hook the engine's macro-stepper uses to prove a
    /// blocked head-of-queue request stays blocked. Shares the exact
    /// arithmetic of the real admission via
    /// `admission_plan`.
    pub fn can_admit_chain(&self, chain: &BlockChain, decode_tokens: usize) -> bool {
        if !self.config.enabled {
            let needed = (chain.prompt_tokens() + decode_tokens).div_ceil(self.config.block_size);
            return needed <= self.free_blocks();
        }
        self.admission_plan(chain, decode_tokens).fits
    }

    /// The enabled-cache admission arithmetic, shared verbatim by
    /// [`try_admit_chain`](PrefixCache::try_admit_chain) (which commits it)
    /// and [`can_admit_chain`](PrefixCache::can_admit_chain) (which only
    /// reads `fits`) — macro-stepping correctness depends on the two never
    /// disagreeing, so there is exactly one copy of the rule.
    fn admission_plan(&self, chain: &BlockChain, decode_tokens: usize) -> AdmissionPlan {
        let bs = self.config.block_size;
        let mut missing = 0usize;
        let mut revivable = 0usize; // existing rc==0 blocks in our chain (must not evict)
        let mut cached_tokens = 0usize;
        let mut prefix_computed = true;
        for h in chain.blocks() {
            self.probes.set(self.probes.get() + 1);
            match self.blocks.get(h) {
                Some(e) => {
                    if e.refcount == 0 {
                        revivable += 1;
                    }
                    if prefix_computed && (e.computed || self.config.share_in_flight) {
                        cached_tokens += bs;
                    } else {
                        prefix_computed = false;
                    }
                }
                None => {
                    missing += 1;
                    prefix_computed = false;
                }
            }
        }
        let tail = chain.prompt_tokens() % bs;
        let private = (tail + decode_tokens).div_ceil(bs);
        // Every rc==0 block is reclaimable via leaf-first cascade, except
        // the ones in our own chain, which an admission would revive.
        let supply = self.free_blocks() + self.rc0_blocks.saturating_sub(revivable);
        AdmissionPlan {
            cached_tokens,
            private,
            fits: missing + private <= supply,
        }
    }

    /// Tries to admit a sequence with the given prompt and a reservation for
    /// `decode_tokens` generated tokens. Returns `None` if memory does not
    /// allow it right now (the caller should retry after completions).
    ///
    /// Convenience wrapper over
    /// [`try_admit_chain`](PrefixCache::try_admit_chain) that hashes
    /// `tokens` on the fly.
    pub fn try_admit(&mut self, tokens: &[TokenId], decode_tokens: usize) -> Option<SeqAlloc> {
        let mut chain = if self.config.enabled {
            BlockChain::from_tokens(self.config.block_size, tokens)
        } else {
            BlockChain::unhashed(tokens.len())
        };
        self.try_admit_chain(&mut chain, decode_tokens)
    }

    /// [`try_admit`](PrefixCache::try_admit) over a precomputed
    /// [`BlockChain`]: the chain walk reads the request's block hashes
    /// instead of re-hashing the prompt, so a retry after backpressure costs
    /// O(blocks), not O(tokens).
    ///
    /// On success the block hashes **move** into the returned allocation
    /// (`chain` keeps its prompt length and no blocks); on failure `chain`
    /// is untouched, ready for the retry.
    pub fn try_admit_chain(
        &mut self,
        chain: &mut BlockChain,
        decode_tokens: usize,
    ) -> Option<SeqAlloc> {
        let bs = self.config.block_size;
        let prompt_tokens = chain.prompt_tokens();
        self.clock += 1;

        if !self.config.enabled {
            let needed = (prompt_tokens + decode_tokens).div_ceil(bs);
            if needed > self.free_blocks() {
                return None;
            }
            self.private_blocks += needed;
            self.note_admission(prompt_tokens, 0);
            return Some(SeqAlloc {
                chain: Vec::new(),
                private_blocks: needed,
                cached_tokens: 0,
                prompt_tokens,
            });
        }

        // Walk the chain of full prompt blocks (hashes precomputed) via the
        // shared admission arithmetic. Nothing allocates before the supply
        // check, so a *failed* admission — the retry a backpressured
        // head-of-line request makes on scheduling steps — costs one map
        // lookup per block and nothing else.
        let plan = self.admission_plan(chain, decode_tokens);
        if !plan.fits {
            return None;
        }
        let AdmissionPlan {
            cached_tokens,
            private,
            ..
        } = plan;
        let chain = std::mem::take(&mut chain.chain);

        // Phase A: pin every existing chain block so evictions during phase B
        // cannot touch them (presence is re-probed; nothing was created
        // since the walk above, so the set is the same).
        for &h in &chain {
            let Some(e) = self.blocks.get_mut(&h) else {
                continue;
            };
            if e.refcount == 0 {
                // Any eviction-heap entry for this block goes stale here
                // (the refcount and stamp both stop matching).
                self.rc0_blocks -= 1;
            }
            e.refcount += 1;
            e.last_used = self.clock;
        }
        // Phase B: create the still-missing blocks, evicting LRU leaves as
        // needed (everything that already existed is pinned).
        for i in 0..chain.len() {
            let h = chain[i];
            if self.blocks.contains_key(&h) {
                continue;
            }
            self.make_room();
            let chain_parent = if i == 0 { None } else { Some(chain[i - 1]) };
            self.blocks.insert(
                h,
                BlockEntry {
                    parent: chain_parent,
                    refcount: 1,
                    children: 0,
                    computed: false,
                    last_used: self.clock,
                },
            );
            if let Some(p) = chain_parent {
                // The parent is pinned or was created earlier in this loop.
                if let Some(pe) = self.blocks.get_mut(&p) {
                    pe.children += 1;
                }
            }
        }
        while self.free_blocks() < private {
            // Supply was checked before commit; an empty heap here would
            // mean that invariant broke, so stop rather than spin.
            if self.evict_one().is_none() {
                break;
            }
        }
        self.private_blocks += private;
        self.note_admission(prompt_tokens, cached_tokens);
        Some(SeqAlloc {
            chain,
            private_blocks: private,
            cached_tokens,
            prompt_tokens,
        })
    }

    /// Marks the sequence's prompt blocks as computed up to
    /// `prefilled_tokens`, making them compute-reusable by later admissions.
    pub fn mark_computed(&mut self, alloc: &SeqAlloc, prefilled_tokens: usize) {
        self.marks.set(self.marks.get() + 1);
        let bs = self.config.block_size;
        // Computed flags always form a prefix of a live chain: a block's
        // ancestors are computed before it, and an interior block cannot be
        // evicted from under a live child (eviction is leaf-only). Walking
        // backwards and stopping at the first already-computed block
        // therefore touches only the blocks this chunk newly finished,
        // instead of re-touching the whole prefix on every prefill chunk.
        for &h in alloc.chain.iter().take(prefilled_tokens / bs).rev() {
            match self.blocks.get_mut(&h) {
                Some(e) if e.computed => break,
                Some(e) => e.computed = true,
                None => debug_assert!(false, "marked chain block must exist"),
            }
        }
    }

    /// Releases a completed sequence: dereferences its shared chain (blocks
    /// stay cached until evicted) and frees its private blocks.
    pub fn release(&mut self, alloc: SeqAlloc) {
        self.release_inner(alloc);
        self.compact_evictable();
    }

    /// Releases every sequence retired in the same engine step. Per-sequence
    /// effects (LRU stamps, refcounts, heap pushes) are identical to calling
    /// [`release`](Self::release) once per allocation in the same order;
    /// only the heap-compaction check is deferred to once per batch, which
    /// is invisible because eviction skips stale heap entries anyway.
    pub fn release_batch(&mut self, allocs: impl IntoIterator<Item = SeqAlloc>) {
        for alloc in allocs {
            self.release_inner(alloc);
        }
        self.compact_evictable();
    }

    fn release_inner(&mut self, alloc: SeqAlloc) {
        self.clock += 1;
        for &h in alloc.chain.iter().rev() {
            // A live allocation pins its chain blocks; a missing entry would
            // be a double release, which the refcount assert also catches.
            let Some(e) = self.blocks.get_mut(&h) else {
                debug_assert!(false, "released chain block must exist");
                continue;
            };
            debug_assert!(e.refcount > 0, "double release");
            e.refcount -= 1;
            e.last_used = self.clock;
            if e.refcount == 0 {
                self.rc0_blocks += 1;
                if e.children == 0 {
                    self.evictable.push(Reverse((e.last_used, h)));
                }
            }
        }
        self.private_blocks = self.private_blocks.saturating_sub(alloc.private_blocks);
    }

    /// Whether heap entry `(stamp, h)` still describes a live evictable
    /// block (a revive or re-release leaves stale entries behind).
    fn evictable_entry_is_valid(&self, stamp: u64, h: u64) -> bool {
        self.blocks
            .get(&h)
            .is_some_and(|e| e.refcount == 0 && e.children == 0 && e.last_used == stamp)
    }

    /// Evicts one LRU leaf block, skipping stale heap entries. Returns
    /// `None` if nothing is evictable.
    fn evict_one(&mut self) -> Option<u64> {
        while let Some(&Reverse((stamp, h))) = self.evictable.peek() {
            if !self.evictable_entry_is_valid(stamp, h) {
                self.stale.set(self.stale.get() + 1);
                self.evictable.pop();
                continue;
            }
            self.evictable.pop();
            // `evictable_entry_is_valid` just confirmed the block is live.
            let Some(entry) = self.blocks.remove(&h) else {
                continue;
            };
            self.rc0_blocks -= 1;
            self.stats.evictions += 1;
            if let Some(p) = entry.parent {
                if let Some(pe) = self.blocks.get_mut(&p) {
                    pe.children -= 1;
                    if pe.refcount == 0 && pe.children == 0 {
                        self.evictable.push(Reverse((pe.last_used, p)));
                    }
                }
            }
            return Some(h);
        }
        None
    }

    /// Rebuilds the eviction heap from its valid entries once stale ones
    /// dominate, bounding heap memory on long-running sessions.
    fn compact_evictable(&mut self) {
        if self.evictable.len() <= 4 * self.config.capacity_blocks.max(64) {
            return;
        }
        let old = std::mem::take(&mut self.evictable);
        let before = old.len();
        self.evictable = old
            .into_iter()
            .filter(|&Reverse((stamp, h))| self.evictable_entry_is_valid(stamp, h))
            .collect();
        let dropped = (before - self.evictable.len()) as u64;
        self.stale.set(self.stale.get() + dropped);
    }

    /// Frees one block slot if none is free. The caller verified supply
    /// before committing, so eviction can only fail if that invariant broke.
    fn make_room(&mut self) {
        if self.free_blocks() == 0 {
            self.evict_one();
        }
    }

    fn note_admission(&mut self, prompt_tokens: usize, cached_tokens: usize) {
        self.stats.admitted += 1;
        self.stats.total_prompt_tokens += prompt_tokens as u64;
        self.stats.cached_tokens += cached_tokens as u64;
        self.stats.peak_blocks = self
            .stats
            .peak_blocks
            .max(self.blocks.len() + self.private_blocks);
    }
}

const HASH_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const HASH_PRIME: u64 = 0x100_0000_01b3;

/// Seeds a block hash with its parent prefix hash (or the root constant).
fn chain_seed(parent: Option<u64>) -> u64 {
    let mut h = HASH_OFFSET;
    let p = parent.unwrap_or(0x9e37_79b9_7f4a_7c15);
    for byte in p.to_le_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(HASH_PRIME);
    }
    h
}

/// Mixes one token into an in-progress block hash.
fn chain_mix_token(h: &mut u64, t: TokenId) {
    for byte in t.to_le_bytes() {
        *h = (*h ^ u64::from(byte)).wrapping_mul(HASH_PRIME);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Strict (vLLM-v0) semantics: only computed blocks are compute hits.
    fn cache(capacity: usize) -> PrefixCache {
        PrefixCache::new(CacheConfig {
            block_size: 4,
            capacity_blocks: capacity,
            enabled: true,
            share_in_flight: false,
        })
    }

    /// Dedup (SGLang/cascade) semantics: existing blocks are compute hits.
    fn dedup_cache(capacity: usize) -> PrefixCache {
        PrefixCache::new(CacheConfig {
            block_size: 4,
            capacity_blocks: capacity,
            enabled: true,
            share_in_flight: true,
        })
    }

    fn toks(n: usize, salt: u32) -> Vec<TokenId> {
        (0..n as u32).map(|i| i * 7 + salt).collect()
    }

    #[test]
    fn internals_count_probes_marks_and_evictions() {
        let mut c = cache(2);
        assert_eq!(c.internals(), CacheInternals::default());
        let a = c.try_admit(&toks(8, 0), 0).unwrap();
        c.mark_computed(&a, 8);
        c.release(a);
        let after_first = c.internals();
        assert!(after_first.block_map_probes >= 2, "admission walks chain");
        assert_eq!(after_first.mark_computed_calls, 1);
        // A fresh prefix in a full cache forces evictions of the rc==0
        // blocks the first request left behind.
        let b = c.try_admit(&toks(8, 9), 0).unwrap();
        c.release(b);
        let after_second = c.internals();
        assert!(after_second.evictions >= 1);
        assert_eq!(after_second.evictions, c.stats().evictions);
        assert!(after_second.block_map_probes > after_first.block_map_probes);
        // `probe` walks are counted too, and never mutate anything else.
        let before = c.internals();
        c.probe(&toks(8, 0));
        let after = c.internals();
        assert!(after.block_map_probes > before.block_map_probes);
        assert_eq!(after.evictions, before.evictions);
    }

    #[test]
    fn first_admission_is_cold() {
        let mut c = cache(16);
        let a = c.try_admit(&toks(8, 0), 0).unwrap();
        assert_eq!(a.cached_tokens, 0);
        assert_eq!(a.prompt_tokens, 8);
        assert_eq!(c.free_blocks(), 16 - 2);
    }

    #[test]
    fn second_identical_admission_shares_memory_but_not_compute_until_marked() {
        let mut c = cache(16);
        let a = c.try_admit(&toks(8, 0), 0).unwrap();
        // Not yet prefilled: shares memory (no new blocks), zero compute hit.
        let b = c.try_admit(&toks(8, 0), 0).unwrap();
        assert_eq!(b.cached_tokens, 0);
        assert_eq!(c.free_blocks(), 16 - 2, "memory fully shared");
        // After prefill completes, a third admission hits.
        c.mark_computed(&a, 8);
        let d = c.try_admit(&toks(8, 0), 0).unwrap();
        assert_eq!(d.cached_tokens, 8);
        c.release(a);
        c.release(b);
        c.release(d);
    }

    #[test]
    fn in_flight_sharing_dedups_concurrent_prefixes() {
        let mut c = dedup_cache(16);
        let _a = c.try_admit(&toks(8, 0), 0).unwrap();
        // Under cascade/RadixAttention semantics the second request reuses
        // the in-flight blocks immediately.
        let b = c.try_admit(&toks(8, 0), 0).unwrap();
        assert_eq!(b.cached_tokens, 8);
        assert_eq!(c.probe(&toks(8, 0)), 8);
        // A genuinely new prefix still misses.
        let d = c.try_admit(&toks(8, 9), 0).unwrap();
        assert_eq!(d.cached_tokens, 0);
    }

    #[test]
    fn partial_prefix_hits_only_shared_blocks() {
        let mut c = cache(32);
        let mut first = toks(8, 0);
        let a = c.try_admit(&first, 0).unwrap();
        c.mark_computed(&a, 8);
        // Same first block (4 tokens), different second block.
        first[5] ^= 0xffff;
        let b = c.try_admit(&first, 0).unwrap();
        assert_eq!(b.cached_tokens, 4);
    }

    #[test]
    fn tail_tokens_are_private() {
        let mut c = cache(16);
        // 10 tokens = 2 full blocks + 2-token tail; tail is private.
        let a = c.try_admit(&toks(10, 0), 0).unwrap();
        assert_eq!(a.prompt_tokens, 10);
        assert_eq!(c.free_blocks(), 16 - 3);
        c.mark_computed(&a, 10);
        let b = c.try_admit(&toks(10, 0), 0).unwrap();
        // Only the 8 full-block tokens can hit.
        assert_eq!(b.cached_tokens, 8);
    }

    #[test]
    fn decode_reservation_counts() {
        let mut c = cache(4);
        // 4-token prompt (1 block) + 9 decode tokens → 3 private blocks.
        let a = c.try_admit(&toks(4, 0), 9).unwrap();
        assert_eq!(c.free_blocks(), 0);
        c.release(a);
        // Shared block lingers (evictable); private freed.
        assert_eq!(c.free_blocks(), 3);
    }

    #[test]
    fn admission_fails_when_full_and_unreclaimable() {
        let mut c = cache(2);
        let _a = c.try_admit(&toks(8, 0), 0).unwrap();
        assert!(c.try_admit(&toks(8, 1), 0).is_none());
    }

    #[test]
    fn eviction_reclaims_released_chains_lru_first() {
        let mut c = cache(4);
        let a = c.try_admit(&toks(8, 0), 0).unwrap(); // blocks 1,2
        let b = c.try_admit(&toks(8, 1), 0).unwrap(); // blocks 3,4
        c.release(a); // oldest, evictable
        c.release(b);
        // New 2-block sequence must evict the LRU leaves (from a's chain).
        let d = c.try_admit(&toks(8, 2), 0).unwrap();
        assert_eq!(d.prompt_tokens, 8);
        assert!(c.stats().evictions >= 2);
    }

    #[test]
    fn refcounted_blocks_are_never_evicted() {
        let mut c = cache(4);
        let a = c.try_admit(&toks(8, 0), 0).unwrap();
        c.mark_computed(&a, 8);
        // Fill the remaining 2 blocks.
        let b = c.try_admit(&toks(8, 1), 0).unwrap();
        // No free space, nothing evictable (both chains referenced).
        assert!(c.try_admit(&toks(8, 2), 0).is_none());
        // a's blocks survive: re-admitting a's prompt still hits.
        let probe = c.probe(&toks(8, 0));
        assert_eq!(probe, 8);
        c.release(b);
    }

    #[test]
    fn revived_chain_blocks_are_not_double_counted_as_supply() {
        let mut c = cache(2);
        let a = c.try_admit(&toks(8, 0), 0).unwrap();
        c.release(a); // both blocks rc=0, leaf+parent: one evictable (leaf)
                      // Re-admitting the same prompt must revive both blocks, not evict
                      // them out from under itself.
        let b = c.try_admit(&toks(8, 0), 0).unwrap();
        assert_eq!(b.prompt_tokens, 8);
        assert_eq!(c.free_blocks(), 0);
    }

    #[test]
    fn interior_blocks_not_evicted_before_children() {
        let mut c = cache(4);
        let a = c.try_admit(&toks(16, 0), 0).unwrap(); // 4 blocks
        c.release(a);
        // Only the deepest block is an evictable leaf; eviction cascades.
        let b = c.try_admit(&toks(8, 1), 0).unwrap(); // needs 2 blocks
        assert_eq!(b.prompt_tokens, 8);
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn disabled_cache_never_hits_and_uses_private_blocks() {
        let mut c = PrefixCache::new(CacheConfig {
            block_size: 4,
            capacity_blocks: 8,
            enabled: false,
            share_in_flight: true,
        });
        let a = c.try_admit(&toks(8, 0), 0).unwrap();
        c.mark_computed(&a, 8);
        let b = c.try_admit(&toks(8, 0), 0).unwrap();
        assert_eq!(b.cached_tokens, 0);
        assert_eq!(c.probe(&toks(8, 0)), 0);
        assert_eq!(c.free_blocks(), 8 - 4);
        c.release(a);
        assert_eq!(c.free_blocks(), 8 - 2);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = cache(16);
        let a = c.try_admit(&toks(8, 0), 0).unwrap();
        c.mark_computed(&a, 8);
        let _b = c.try_admit(&toks(8, 0), 0).unwrap();
        let s = c.stats();
        assert_eq!(s.admitted, 2);
        assert_eq!(s.total_prompt_tokens, 16);
        assert_eq!(s.cached_tokens, 8);
        assert!(s.peak_blocks >= 2);
    }

    #[test]
    fn probe_matches_admit_cached_tokens() {
        let mut c = cache(32);
        let a = c.try_admit(&toks(12, 3), 0).unwrap();
        c.mark_computed(&a, 12);
        let p = c.probe(&toks(12, 3));
        let b = c.try_admit(&toks(12, 3), 0).unwrap();
        assert_eq!(p, b.cached_tokens);
    }

    #[test]
    fn empty_prompt_is_fine() {
        let mut c = cache(4);
        let a = c.try_admit(&[], 3).unwrap();
        assert_eq!(a.prompt_tokens, 0);
        assert_eq!(a.cached_tokens, 0);
        assert_eq!(a.private_blocks, 1);
    }

    #[test]
    fn fragment_chain_matches_flat_chain() {
        let flat = toks(23, 5);
        let whole = BlockChain::from_tokens(4, &flat);
        assert_eq!(whole.prompt_tokens(), 23);
        assert_eq!(whole.blocks().len(), 5);
        // Fragment boundaries (including empty fragments) never change the
        // chain: blocks hash the logical concatenation.
        for split in [0usize, 1, 3, 4, 9, 23] {
            let (a, b) = flat.split_at(split);
            let frag = BlockChain::from_fragments(4, [a, &[][..], b]);
            assert_eq!(frag, whole, "split at {split}");
        }
    }

    #[test]
    fn hasher_resumes_mid_block_and_counts_reuse() {
        let frag = |n: usize, salt: u32| -> Arc<[TokenId]> { toks(n, salt).into() };
        let (a, b, c, d) = (frag(6, 0), frag(5, 1), frag(7, 2), frag(3, 3));
        let mut hasher = ChainHasher::new(4, true);
        for prompt in [
            vec![a.clone(), b.clone(), c.clone()],
            // Shares 11 tokens: resumes 3 tokens into the third block.
            vec![a.clone(), b.clone(), d.clone()],
            // Equal content behind a new `Arc` is not a pointer match.
            vec![frag(6, 0), b.clone()],
            vec![],
        ] {
            let flat: Vec<&[TokenId]> = prompt.iter().map(|f| &f[..]).collect();
            assert_eq!(hasher.chain(&prompt), BlockChain::from_fragments(4, flat));
        }
        assert_eq!(hasher.tokens_reused(), 11);
        assert_eq!(hasher.tokens_hashed(), 18 + 3 + 11);
        // A disabled cache wants the length only.
        let mut off = ChainHasher::new(4, false);
        assert_eq!(off.chain(&[a, b]), BlockChain::unhashed(11));
        assert_eq!(off.tokens_hashed() + off.tokens_reused(), 0);
    }

    #[test]
    fn chain_apis_match_token_apis() {
        let mut c = cache(32);
        let tokens = toks(14, 2);
        let chain = BlockChain::from_tokens(4, &tokens);
        assert!(c.can_admit_chain(&chain, 3));
        let a = c.try_admit_chain(&mut chain.clone(), 3).unwrap();
        c.mark_computed(&a, 14);
        assert_eq!(c.probe_chain(&chain), c.probe(&tokens));
        let b = c.try_admit(&tokens, 3).unwrap();
        assert_eq!(b.cached_tokens, c.probe_chain(&chain));
        c.release(a);
        c.release(b);
    }

    #[test]
    fn can_admit_chain_predicts_try_admit_and_never_mutates() {
        let mut c = cache(2);
        let fits = BlockChain::from_tokens(4, &toks(8, 0));
        let too_big = BlockChain::from_tokens(4, &toks(16, 1));
        assert!(c.can_admit_chain(&fits, 0));
        assert!(!c.can_admit_chain(&too_big, 0));
        let a = c.try_admit_chain(&mut fits.clone(), 0).unwrap();
        // The same chain still fits (pure sharing, no new blocks) …
        assert!(c.can_admit_chain(&fits, 0));
        // … but a distinct prompt needs blocks the full cache cannot supply;
        // the predicate agrees with try_admit.
        let mut other = BlockChain::from_tokens(4, &toks(8, 3));
        assert!(!c.can_admit_chain(&other, 0));
        // A refused admission leaves the chain intact for the retry.
        assert!(c.try_admit_chain(&mut other, 0).is_none());
        assert_eq!(other, BlockChain::from_tokens(4, &toks(8, 3)));
        c.release(a);
        // Released blocks are evictable supply again, and a granted
        // admission takes the hashes with it.
        assert!(c.can_admit_chain(&other, 0));
        let b = c.try_admit_chain(&mut other, 0).unwrap();
        assert_eq!((other.blocks().len(), other.prompt_tokens()), (0, 8));
        c.release(b);
    }

    #[test]
    fn disabled_cache_admits_by_length_only() {
        let mut c = PrefixCache::new(CacheConfig {
            block_size: 4,
            capacity_blocks: 4,
            enabled: false,
            share_in_flight: true,
        });
        let chain = BlockChain::unhashed(10);
        assert!(c.can_admit_chain(&chain, 2));
        let a = c.try_admit_chain(&mut chain.clone(), 2).unwrap();
        assert_eq!(a.prompt_tokens, 10);
        assert_eq!(c.free_blocks(), 1);
        assert!(!c.can_admit_chain(&BlockChain::unhashed(8), 0));
        c.release(a);
    }

    #[test]
    #[should_panic(expected = "block_size must be positive")]
    fn zero_block_size_panics() {
        let _ = PrefixCache::new(CacheConfig {
            block_size: 0,
            capacity_blocks: 1,
            enabled: true,
            share_in_flight: true,
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A randomized schedule of admissions (with varying prefix sharing,
    /// tails, decode reservations) and immediate/deferred releases.
    fn ops_strategy() -> impl Strategy<Value = Vec<(u8, u8, u8, bool)>> {
        proptest::collection::vec((0u8..6, 0u8..40, 0u8..12, proptest::bool::ANY), 1..80)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Accounting invariants under arbitrary admit/release interleaving:
        /// usage never exceeds capacity, cached never exceeds total tokens,
        /// and releasing everything frees all private blocks.
        #[test]
        fn accounting_invariants(ops in ops_strategy(), capacity in 4usize..64) {
            let mut cache = PrefixCache::new(CacheConfig {
                block_size: 4,
                capacity_blocks: capacity,
                enabled: true,
                share_in_flight: true,
            });
            let mut live: Vec<SeqAlloc> = Vec::new();
            for (family, tail, decode, release_now) in ops {
                let mut tokens: Vec<u32> = (0..12u32).map(|i| u32::from(family) * 100 + i).collect();
                tokens.extend((0..u32::from(tail)).map(|i| 500_000 + u32::from(family) * 7919 + i));
                if let Some(alloc) = cache.try_admit(&tokens, usize::from(decode)) {
                    prop_assert!(alloc.cached_tokens <= alloc.prompt_tokens);
                    cache.mark_computed(&alloc, tokens.len());
                    if release_now {
                        cache.release(alloc);
                    } else {
                        live.push(alloc);
                    }
                }
                prop_assert!(cache.free_blocks() <= capacity);
                let s = cache.stats();
                prop_assert!(s.cached_tokens <= s.total_prompt_tokens);
                prop_assert!(s.peak_blocks <= capacity);
            }
            for alloc in live.drain(..) {
                cache.release(alloc);
            }
            // All blocks are now unreferenced: a full-capacity admission of a
            // fresh sequence must succeed by evicting everything.
            let fresh: Vec<u32> = (0..(capacity * 4) as u32).map(|i| 900_000 + i).collect();
            prop_assert!(cache.try_admit(&fresh, 0).is_some());
        }

        /// Probing never mutates: two probes agree, and a probe agrees with
        /// what a subsequent admission reports as cached.
        #[test]
        fn probe_is_pure_and_consistent(tail in 0u8..32) {
            let mut cache = PrefixCache::new(CacheConfig {
                block_size: 4,
                capacity_blocks: 256,
                enabled: true,
                share_in_flight: true,
            });
            let mut tokens: Vec<u32> = (0..16).collect();
            tokens.extend((0..u32::from(tail)).map(|i| 70_000 + i));
            let a = cache.try_admit(&tokens, 0).unwrap();
            cache.mark_computed(&a, tokens.len());
            let p1 = cache.probe(&tokens);
            let p2 = cache.probe(&tokens);
            prop_assert_eq!(p1, p2);
            let b = cache.try_admit(&tokens, 0).unwrap();
            prop_assert_eq!(p1, b.cached_tokens);
            // Full blocks only.
            prop_assert_eq!(b.cached_tokens % 4, 0);
            prop_assert_eq!(b.cached_tokens, tokens.len() / 4 * 4);
        }
    }
}
