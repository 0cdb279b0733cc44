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
//!   block would orphan its children's chain identity), ties broken toward
//!   the smaller block hash.
//! * **Private blocks**: the prompt's partial tail block and all decode
//!   (generated) tokens are per-sequence and never shared.
//!
//! Disabling the cache (`enabled = false`) gives the paper's *No Cache*
//! baseline: every block is private and every token is computed.
//!
//! # Block ids
//!
//! [`BlockChain::from_fragments`] defines them. A block's running hash is
//! seeded from its parent's id, takes one rotate-xor-multiply step per
//! token on the whole 64-bit word, and becomes the block's id through an
//! xor-shift-multiply finaliser (see `chain_seed`, `chain_mix_token`,
//! `chain_finish` at the end of this file). The functions consume the flat
//! token stream — a fragment boundary is not an input — so ids are the same
//! however a prompt is split, and [`ChainHasher`] resumes them mid-stream
//! to hash only what the previous prompt did not share. Ids are opaque:
//! nothing a report shows depends on their values.
//!
//! A block id has **one owner per stage of its life**, and moving on to the
//! next stage is a copy into memory that already exists, never an
//! allocation per request:
//!
//! 1. *Hashed.* A [`ChainHasher`] computes a prompt's chain into its own
//!    working buffer and lends it out as a [`ChainView`] — a borrowed slice
//!    plus the prompt length — until it hashes the next prompt.
//! 2. *Queued.* The engine session copies the view's ids into its FIFO
//!    arena (fixed-size chunks, freed whole from the front as requests are
//!    admitted) and rebuilds a view from there for every admission attempt.
//! 3. *Cached.* An admission copies the ids of the blocks the cache did
//!    **not** hold yet — the unshared suffix, a quarter of a chain on a
//!    reordered batch — into the cache's id pages (below). Ids of blocks it
//!    already held are compared and dropped.
//!
//! The owned [`BlockChain`] is the definition and a test and bench fixture;
//! no serving path builds one.
//!
//! # Block store
//!
//! The semantics above are stated block by block; the store keeps **runs**
//! (a radix tree over hash chains, SGLang's edge compression). A run is a
//! stretch of consecutive chain blocks with one parent, one refcount and one
//! LRU stamp; only its last block can have children. Runs live in a slab
//! (`Vec<Run>` plus a free list) and a hash map resolves *first block id →
//! run*.
//!
//! * **Ids live in cache-owned pages.** A run's ids are a span `(page,
//!   start, len)` of an id page: a slab of fixed-capacity `u64` buffers,
//!   each filled front to back by the runs created while it is the open
//!   page, with a count of the live runs reading it. A split divides the
//!   span in place and bumps the count; tail eviction shortens the span and
//!   leaves its words behind; when a page's last run dies the page is
//!   emptied and recycled through a free list, buffer and all. A run longer
//!   than a page gets a page of its own. So a run keeps exactly the ids of
//!   the blocks it was created with, and in steady state storing them
//!   allocates nothing.
//! * **One visit per run.** Present blocks are prefix-closed along a chain
//!   (a block is created after its parent and, being a child, evicted before
//!   it), so a walk looks up the chain's next id, compares the run's ids
//!   with the chain's, and stops at the first run it leaves early or does
//!   not find: everything after is absent too.
//! * **Splits keep refcounts and stamps uniform.** An admission whose chain
//!   ends or diverges inside a run splits it there: a new *head* run takes
//!   the leading blocks (and the map key), the *tail* keeps the run's slot,
//!   children, refcount, stamp and whatever eviction candidate names it, and
//!   the two divide the run's span of its id page. Every operation then
//!   covers whole runs.
//! * **A sequence is its leaf run.** An admitted sequence references every
//!   run from its chain's last block up to the root until it is released;
//!   referenced runs are never evicted and a split leaves the tail in place,
//!   so the leaf slot in a [`SeqAlloc`] keeps naming the chain's end. Pin,
//!   release, LRU stamp and `mark_computed` walk parent links from there and
//!   never consult the map.
//! * **Eviction shortens a run from its tail.** Within a run only the last
//!   block is a leaf, and the block before it carries the same stamp, so
//!   block-by-block LRU keeps taking from the run it started on: the store
//!   drops `k` blocks with `len -= k` and touches the map once, when the run
//!   empties and its parent may become a leaf in turn.
//! * **Two eviction queues.** A run becomes an eviction candidate either
//!   when `release` drops its last reference (stamped with the cache clock,
//!   which every admission and release advances) or when its last child is
//!   evicted (stamped with whatever older time it was last used). A release
//!   produces at most one candidate — every run on the path but the leaf has
//!   the next one as a child — so release candidates arrive in strictly
//!   increasing stamp order and go to a FIFO; only cascade parents need the
//!   binary heap. Candidates are invalidated **lazily** (a revived or
//!   re-stamped run leaves a stale entry that is skipped when it surfaces).
//!   One admission or release stamps one root-to-leaf path, on which at most
//!   one block is a leaf, so valid candidates never tie on their stamp: the
//!   smaller valid front of the two queues is the run whose last block a
//!   single `(last_used, hash)`-ordered set of blocks would evict.

use llmqo_tokenizer::TokenId;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Multiply-mix hasher for the block map. Block keys are already finalised
/// 64-bit chain ids produced by the cache itself — no untrusted input reaches
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

/// Index of a run in the slab.
type RunId = u32;

/// The `parent` of a run that starts a chain, and the leaf of a sequence
/// with no full block.
const NO_RUN: RunId = RunId::MAX;

/// First block id → run.
type BlockMap = HashMap<u64, RunId, BuildHasherDefault<BlockKeyHasher>>;

/// Block ids per [`IdPage`]: 2 KiB, some forty admissions' worth of new
/// blocks on a reordered batch, so page allocations are rare next to
/// admissions and a page pinned by one long-lived run wastes little.
const PAGE_IDS: usize = 256;

/// A fixed-capacity buffer of block ids that the runs created while it was
/// the open page read their ids from.
#[derive(Debug, Default)]
struct IdPage {
    ids: Vec<u64>,
    /// Live runs whose ids are in this page.
    runs: u32,
}

/// The cache's own copy of every live run's block ids: a slab of pages
/// filled front to back, with a free list. A page is recycled whole, when
/// its last run dies — words a tail eviction or a dead run leaves behind are
/// not reused before that — so storing ids never moves or frees one.
#[derive(Debug, Default)]
struct IdPages {
    pages: Vec<IdPage>,
    /// Pages no run reads, emptied and awaiting reuse.
    free: Vec<u32>,
    /// The page new runs are appended to, if one was opened yet.
    open: Option<u32>,
}

impl IdPages {
    /// The ids of `run`'s blocks, in chain order.
    #[inline]
    fn ids(&self, run: &Run) -> &[u64] {
        &self.pages[run.page as usize].ids[run.start as usize..][..run.len as usize]
    }

    /// Copies a new run's `ids` into a page and returns `(page, start)`:
    /// the open page while they fit, else a recycled or fresh one, which
    /// becomes the open page — unless the run is longer than a page and
    /// gets one of its own.
    fn store(&mut self, ids: &[u64]) -> (u32, u32) {
        let fits = |&open: &u32| {
            let page = &self.pages[open as usize].ids;
            ids.len() <= page.capacity() - page.len()
        };
        let page = self.open.filter(fits).unwrap_or_else(|| {
            let page = self.free.pop().unwrap_or_else(|| {
                self.pages.push(IdPage::default());
                (self.pages.len() - 1) as u32
            });
            let buffer = &mut self.pages[page as usize].ids;
            buffer.reserve_exact(ids.len().max(PAGE_IDS));
            if ids.len() <= PAGE_IDS {
                self.open = Some(page);
            }
            page
        });
        let target = &mut self.pages[page as usize];
        let start = target.ids.len() as u32;
        target.ids.extend_from_slice(ids);
        target.runs += 1;
        (page, start)
    }

    /// Words held by pages some live run reads.
    fn words_in_use(&self) -> usize {
        let in_use = self.pages.iter().filter(|p| p.runs > 0);
        in_use.map(|p| p.ids.len()).sum()
    }

    /// A run of `page` died. The last one empties the page: the open page
    /// is refilled from its start, any other goes to the free list (without
    /// its buffer if that was sized for a run longer than a page).
    fn release(&mut self, page: u32) {
        let p = &mut self.pages[page as usize];
        p.runs -= 1;
        if p.runs > 0 {
            return;
        }
        p.ids.clear();
        if self.open == Some(page) {
            return;
        }
        if p.ids.capacity() > PAGE_IDS {
            p.ids = Vec::new();
        }
        self.free.push(page);
    }
}

/// Source of [`PrefixCache::id`]: tells one cache's allocations from
/// another's. Relaxed: the value publishes nothing but itself.
static NEXT_CACHE_ID: AtomicU32 = AtomicU32::new(0);

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

/// A prompt's prefix-cache identity, borrowed from whoever owns the ids at
/// this stage of the request's life: the chain hashes of its full blocks
/// plus the total prompt length.
///
/// Flattening a fragment list and hashing it is O(prompt length); a request
/// stuck at the head of the admission queue used to pay that cost on every
/// scheduling step it waited. Hashing the chain once per placement and
/// handing a view of it to [`PrefixCache::probe_chain`] /
/// [`PrefixCache::try_admit_chain`] makes every later cache operation a walk
/// over `prompt_len / block_size` precomputed hashes. A view is two words
/// and a length — `Copy`, never allocated: [`ChainHasher`] lends one of its
/// own working chain, the engine session one of its queue arena, and a test
/// or bench one of an owned [`BlockChain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainView<'a> {
    /// Chain hashes of the prompt's full blocks, in chain order.
    ids: &'a [u64],
    /// Total prompt length in tokens (full blocks + tail).
    prompt_tokens: usize,
}

impl<'a> ChainView<'a> {
    pub(crate) fn new(ids: &'a [u64], prompt_tokens: usize) -> Self {
        ChainView { ids, prompt_tokens }
    }

    /// A chain that records only the prompt length — for **disabled** caches,
    /// which never look at block identity. Passing an unhashed chain to an
    /// enabled cache would report every block as missing.
    pub fn unhashed(prompt_tokens: usize) -> Self {
        ChainView::new(&[], prompt_tokens)
    }

    /// Total prompt length in tokens.
    pub fn prompt_tokens(&self) -> usize {
        self.prompt_tokens
    }

    /// The full-block chain hashes, in chain order.
    pub fn blocks(&self) -> &'a [u64] {
        self.ids
    }
}

/// An owned chain, hashed from scratch: [`from_fragments`] is the
/// *definition* of block ids, the one every differential test compares
/// [`ChainHasher`] against, and what benches precompute chains with. No
/// serving path builds one — they pass [`ChainView`]s of ids that already
/// have an owner.
///
/// [`from_fragments`]: BlockChain::from_fragments
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockChain {
    chain: Vec<u64>,
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
        let mut h = chain_seed(None);
        let mut in_block = 0usize;
        let mut prompt_tokens = 0usize;
        for fragment in fragments {
            prompt_tokens += fragment.len();
            for &t in fragment {
                h = chain_mix_token(h, t);
                in_block += 1;
                if in_block == block_size {
                    let id = chain_finish(h);
                    chain.push(id);
                    h = chain_seed(Some(id));
                    in_block = 0;
                }
            }
        }
        BlockChain {
            chain,
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

    /// The chain as the cache and the engine session take it.
    pub fn view(&self) -> ChainView<'_> {
        ChainView::new(&self.chain, self.prompt_tokens)
    }
}

impl From<ChainView<'_>> for BlockChain {
    /// Copies a view's ids out of their owner.
    fn from(view: ChainView<'_>) -> Self {
        BlockChain {
            chain: view.ids.to_vec(),
            prompt_tokens: view.prompt_tokens,
        }
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

/// Incremental chain builder that hashes only the part of a prompt the
/// *previous* prompt did not share, and lends each chain out as a
/// [`ChainView`] of its own working buffer.
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
///
/// The view a call returns borrows the hasher until the next call: the
/// caller probes with it, queues it (the session copies the ids into its
/// arena) and lets go.
#[derive(Debug)]
pub struct ChainHasher {
    block_size: usize,
    /// `false` for a disabled prefix cache, which admits by length alone:
    /// [`chain`](ChainHasher::chain) then returns [`ChainView::unhashed`].
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
    /// [`ChainView::unhashed`] for a disabled one.
    pub fn chain(&mut self, fragments: &[Arc<[TokenId]>]) -> ChainView<'_> {
        self.chain_iter(fragments)
    }

    /// [`chain`](ChainHasher::chain) over borrowed fragments from any
    /// source: a caller whose prompt is a *view* (an instruction followed by
    /// cells of a fragment store, say) submits it without collecting the
    /// `Arc`s first. One pass: leading fragments that are the previous
    /// prompt's are skipped by address, and only the rest are cloned (the
    /// hasher must pin what it remembers) and mixed in.
    pub fn chain_iter<'a>(
        &mut self,
        fragments: impl IntoIterator<Item = &'a Arc<[TokenId]>>,
    ) -> ChainView<'_> {
        let mut fragments = fragments.into_iter().peekable();
        if !self.enabled {
            return ChainView::unhashed(fragments.map(|f| f.len()).sum());
        }
        let mut shared = 0;
        while let Some(prev) = self.prev.get(shared) {
            if fragments.next_if(|f| Arc::ptr_eq(prev, f)).is_none() {
                break;
            }
            shared += 1;
        }
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
        for fragment in fragments {
            let mut rest = &fragment[..];
            while !rest.is_empty() {
                let (head, tail) = rest.split_at(rest.len().min(self.block_size - in_block));
                for &t in head {
                    hash = chain_mix_token(hash, t);
                }
                in_block += head.len();
                rest = tail;
                if in_block == self.block_size {
                    let id = chain_finish(hash);
                    self.blocks.push(id);
                    hash = chain_seed(Some(id));
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
        ChainView::new(&self.blocks, tokens)
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
    /// The run that ends with the sequence's last full prompt block
    /// ([`NO_RUN`] if it has none); the rest of its chain is that run's
    /// ancestors. Valid until release: the sequence pins the whole path.
    leaf: RunId,
    /// Private (unshared) blocks reserved: prompt tail + decode tokens.
    private_blocks: usize,
    /// Prompt tokens whose blocks were already computed at admission.
    pub cached_tokens: usize,
    /// Total prompt tokens.
    pub prompt_tokens: usize,
    /// The admitting cache's id; a run id means nothing to any other cache.
    cache_id: u32,
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
/// implementation work (map lookups, lazy-queue churn) that optimizations
/// are allowed to change. A finishing session publishes them into the
/// `llmqo-obs` registry when the sinks are enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheInternals {
    /// Hash-map lookups on the read path: one per run a `probe_chain` /
    /// `can_admit_chain` / `try_admit_chain` walk visits, plus the one that
    /// finds the chain's next block absent and ends the walk. Writes (run
    /// creation, splits, eviction) and the leaf-addressed `mark_computed` /
    /// `release` are not lookups.
    pub block_map_probes: u64,
    /// Stale lazy-invalidation eviction candidates skipped by an eviction
    /// or dropped by the periodic queue compaction.
    pub heap_stale_invalidations: u64,
    /// Calls to [`PrefixCache::mark_computed`] (one per prefill chunk that
    /// landed, the per-step cache write traffic).
    pub mark_computed_calls: u64,
    /// Runs an admission split because its chain ended or diverged inside
    /// them.
    pub run_splits: u64,
    /// Blocks evicted (same number as [`CacheStats::evictions`], repeated
    /// here so one struct carries the whole internals picture).
    pub evictions: u64,
    /// Id pages the cache has allocated — a level, not a rate: pages are
    /// recycled, never returned, so this is also the most it ever held.
    pub id_pages: u64,
    /// Block-id words in pages some live run reads, right now: the live
    /// blocks plus what tail evictions and dead runs left behind in pages
    /// that are not yet empty.
    pub id_words_live: u64,
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
    /// Leading chain blocks that are present.
    found: u32,
    /// The run holding block `found - 1` ([`NO_RUN`] if `found == 0`) and
    /// how many of its leading blocks the chain shares.
    tip: RunId,
    tip_shared: u32,
}

/// Blocks `depth .. depth + len` of a chain: consecutive blocks with one
/// parent, one refcount and one LRU stamp, of which only the last can have
/// children. Their ids are words `start .. start + len` of id page `page`
/// ([`IdPages::ids`]).
#[derive(Debug)]
struct Run {
    last_used: u64,
    page: u32,
    start: u32,
    /// The run holding block `depth - 1`, [`NO_RUN`] for `depth == 0`.
    parent: RunId,
    refcount: u32,
    children: u32,
    depth: u32,
    /// Blocks held; 0 once evicted, until the slot is handed out again.
    len: u32,
    /// Leading blocks whose prefill has landed. Computed blocks form a
    /// prefix of every chain, hence of every run.
    computed_len: u32,
}

/// An eviction-queue entry: `run` became a refcount-0 leaf while stamped
/// `stamp`. Ordered by stamp, the LRU order; valid candidates never share
/// one (module docs), so `run` only orders stale entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Candidate {
    stamp: u64,
    run: RunId,
}

/// The paged prefix cache. See the `cache` module docs for semantics.
#[derive(Debug)]
pub struct PrefixCache {
    config: CacheConfig,
    /// Stamped on every [`SeqAlloc`] this cache hands out.
    id: u32,
    /// Every run ever created, live or awaiting reuse via `free`.
    runs: Vec<Run>,
    free: Vec<RunId>,
    /// `first block id → run` of exactly the live slab entries.
    map: BlockMap,
    /// The live runs' block ids.
    pages: IdPages,
    /// Blocks held by live runs.
    live_blocks: usize,
    /// Candidates pushed by `release`, in strictly increasing stamp order.
    released: VecDeque<Candidate>,
    /// Candidates whose last child was evicted; their stamps are old.
    cascaded: BinaryHeap<Reverse<Candidate>>,
    /// Blocks of runs with `refcount == 0`. Because a sequence references
    /// its *entire* chain, a refcount-0 run can only have refcount-0
    /// descendants, so every such block is reclaimable (in leaf-first
    /// cascade order).
    rc0_blocks: usize,
    private_blocks: usize,
    clock: u64,
    stats: CacheStats,
    /// [`CacheInternals::block_map_probes`]; a `Cell` because
    /// `probe_chain`/`can_admit_chain` are `&self`.
    probes: Cell<u64>,
    /// Stale queue entries skipped/compacted away
    /// ([`CacheInternals::heap_stale_invalidations`]).
    stale: u64,
    /// [`mark_computed`](PrefixCache::mark_computed) call count.
    marks: u64,
    /// [`CacheInternals::run_splits`].
    splits: u64,
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
            id: NEXT_CACHE_ID.fetch_add(1, Ordering::Relaxed),
            runs: Vec::new(),
            free: Vec::new(),
            map: HashMap::default(),
            pages: IdPages::default(),
            live_blocks: 0,
            released: VecDeque::new(),
            cascaded: BinaryHeap::new(),
            rc0_blocks: 0,
            private_blocks: 0,
            clock: 0,
            stats: CacheStats::default(),
            probes: Cell::new(0),
            stale: 0,
            marks: 0,
            splits: 0,
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
            .saturating_sub(self.live_blocks + self.private_blocks)
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Lifetime internal bookkeeping counters (see [`CacheInternals`]).
    pub fn internals(&self) -> CacheInternals {
        CacheInternals {
            block_map_probes: self.probes.get(),
            heap_stale_invalidations: self.stale,
            mark_computed_calls: self.marks,
            run_splits: self.splits,
            evictions: self.stats.evictions,
            id_pages: self.pages.pages.len() as u64,
            id_words_live: self.pages.words_in_use() as u64,
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
        self.probe_chain(BlockChain::from_tokens(self.config.block_size, tokens).view())
    }

    /// [`probe`](PrefixCache::probe) over a precomputed chain: no hashing,
    /// just a walk over the chain. Pure: never mutates cache state.
    pub fn probe_chain(&self, chain: ChainView<'_>) -> usize {
        if !self.config.enabled {
            return 0;
        }
        self.admission_plan(chain, 0).cached_tokens
    }

    /// Walks the runs holding the leading blocks of `chain` that are
    /// present, in chain order, handing `visit` each run's id, the run, and
    /// how many of its leading blocks the chain shares (at least one). The
    /// walk ends with the first run the chain leaves early, or when the
    /// chain's next block starts no run: every later block is then absent
    /// too, because present blocks are prefix-closed along a chain and only
    /// a run's last block has children (module docs).
    #[inline]
    fn resolve(&self, chain: &[u64], mut visit: impl FnMut(RunId, &Run, u32)) {
        let mut at = 0;
        while let Some(first) = chain.get(at) {
            self.probes.set(self.probes.get() + 1);
            let Some(&id) = self.map.get(first) else {
                return;
            };
            let run = &self.runs[id as usize];
            debug_assert_eq!(
                run.depth as usize, at,
                "a block id fixes its chain position"
            );
            // At most `run.len`, a `u32`.
            let shared = std::iter::zip(self.pages.ids(run), &chain[at..])
                .take_while(|(ours, theirs)| ours == theirs)
                .count() as u32;
            visit(id, run, shared);
            if shared < run.len {
                return;
            }
            at += shared as usize;
        }
    }

    /// Whether [`try_admit_chain`](PrefixCache::try_admit_chain) would
    /// succeed right now, without mutating anything (not even the LRU
    /// clock). Admission supply changes only when sequences are admitted or
    /// released, so between such events one check answers for every
    /// scheduling step — the hook the engine's macro-stepper uses to prove a
    /// blocked head-of-queue request stays blocked. Shares the exact
    /// arithmetic of the real admission via
    /// `admission_plan`.
    pub fn can_admit_chain(&self, chain: ChainView<'_>, decode_tokens: usize) -> bool {
        if !self.config.enabled {
            let needed = (chain.prompt_tokens() + decode_tokens).div_ceil(self.config.block_size);
            return needed <= self.free_blocks();
        }
        self.admission_plan(chain, decode_tokens).fits
    }

    /// The enabled-cache admission arithmetic, shared verbatim by
    /// [`try_admit_chain`](PrefixCache::try_admit_chain) (which commits it),
    /// [`can_admit_chain`](PrefixCache::can_admit_chain) (which only reads
    /// `fits`) and [`probe_chain`](PrefixCache::probe_chain) (`cached_tokens`)
    /// — macro-stepping correctness depends on them never disagreeing, so
    /// there is exactly one copy of the rule.
    fn admission_plan(&self, chain: ChainView<'_>, decode_tokens: usize) -> AdmissionPlan {
        let bs = self.config.block_size;
        let share = self.config.share_in_flight;
        let mut found = 0u32;
        let mut revivable = 0u32; // existing rc==0 blocks in our chain (must not evict)
        let mut cached_blocks = 0u32;
        let (mut tip, mut tip_shared) = (NO_RUN, 0);
        self.resolve(chain.blocks(), |id, run, shared| {
            if cached_blocks == found {
                cached_blocks += if share {
                    shared
                } else {
                    shared.min(run.computed_len)
                };
            }
            found += shared;
            if run.refcount == 0 {
                revivable += shared;
            }
            (tip, tip_shared) = (id, shared);
        });
        let missing = chain.blocks().len() - found as usize;
        let tail = chain.prompt_tokens() % bs;
        let private = (tail + decode_tokens).div_ceil(bs);
        // Every rc==0 block is reclaimable via leaf-first cascade, except
        // the ones in our own chain, which an admission would revive.
        let supply = self.free_blocks() + self.rc0_blocks.saturating_sub(revivable as usize);
        AdmissionPlan {
            cached_tokens: cached_blocks as usize * bs,
            private,
            fits: missing + private <= supply,
            found,
            tip,
            tip_shared,
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
        if !self.config.enabled {
            return self.try_admit_chain(ChainView::unhashed(tokens.len()), decode_tokens);
        }
        let chain = BlockChain::from_tokens(self.config.block_size, tokens);
        self.try_admit_chain(chain.view(), decode_tokens)
    }

    /// [`try_admit`](PrefixCache::try_admit) over a precomputed chain: the
    /// chain walk reads the request's block hashes instead of re-hashing the
    /// prompt, so a retry after backpressure costs O(runs), not O(tokens).
    ///
    /// On success the cache copies the ids of the blocks it did **not**
    /// already hold into its id pages — the new run's — and keeps nothing
    /// else of `chain`; a refusal reads the chain and writes nothing.
    pub fn try_admit_chain(
        &mut self,
        chain: ChainView<'_>,
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
                leaf: NO_RUN,
                private_blocks: needed,
                cached_tokens: 0,
                prompt_tokens,
                cache_id: self.id,
            });
        }

        // Nothing is written before the supply check, so a *failed*
        // admission — the retry a backpressured head-of-line request makes
        // on scheduling steps — costs the walk and nothing else.
        let plan = self.admission_plan(chain, decode_tokens);
        if !plan.fits {
            return None;
        }
        // Run fields count blocks in `u32`; the chain bounds them all.
        let blocks = u32::try_from(chain.blocks().len()).ok()?;
        let missing = blocks - plan.found;

        // Phase A: pin the chain's present blocks so evictions during phase
        // B cannot touch them — whole runs, once the tip run is cut where
        // the chain leaves it.
        let mut leaf = plan.tip;
        if leaf != NO_RUN && plan.tip_shared < self.runs[leaf as usize].len {
            leaf = self.split(leaf, plan.tip_shared);
        }
        let mut id = leaf;
        while id != NO_RUN {
            let run = &mut self.runs[id as usize];
            if run.refcount == 0 {
                // Any eviction candidate for this run goes stale here (the
                // refcount and stamp both stop matching).
                self.rc0_blocks -= run.len as usize;
            }
            run.refcount += 1;
            run.last_used = self.clock;
            id = run.parent;
        }
        // Phase B: make room for the missing rest of the chain and the
        // private blocks by evicting LRU leaves (everything that already
        // existed is pinned), then create the rest as one run.
        self.evict((missing as usize + plan.private).saturating_sub(self.free_blocks()));
        if missing > 0 {
            let parent = leaf;
            let (page, start) = self.pages.store(&chain.blocks()[plan.found as usize..]);
            leaf = self.insert_run(Run {
                page,
                start,
                last_used: self.clock,
                parent,
                refcount: 1,
                children: 0,
                depth: plan.found,
                len: missing,
                computed_len: 0,
            });
            if parent != NO_RUN {
                self.runs[parent as usize].children += 1;
            }
            self.live_blocks += missing as usize;
        }
        self.private_blocks += plan.private;
        self.note_admission(prompt_tokens, plan.cached_tokens);
        Some(SeqAlloc {
            leaf,
            private_blocks: plan.private,
            cached_tokens: plan.cached_tokens,
            prompt_tokens,
            cache_id: self.id,
        })
    }

    /// Stores a new live run in a recycled or fresh slot and maps its first
    /// block to it.
    fn insert_run(&mut self, run: Run) -> RunId {
        let first = self.pages.ids(&run)[0];
        let id = match self.free.pop() {
            Some(id) => {
                self.runs[id as usize] = run;
                id
            }
            None => {
                // Live runs never outnumber `capacity_blocks`, so this
                // bounds the configured capacity, not a workload.
                assert!(
                    self.runs.len() < NO_RUN as usize,
                    "run slab outgrew its u32 ids"
                );
                self.runs.push(run);
                (self.runs.len() - 1) as RunId
            }
        };
        self.map.insert(first, id);
        id
    }

    /// Cuts run `tail` after its first `at` blocks. The blocks before the
    /// cut become a new run — the head, whose id is returned and which takes
    /// over the map key — and `tail` keeps the rest under its own id, so
    /// its children, the sequences it is the leaf of and any eviction
    /// candidate naming it stay right. Both halves keep the refcount and
    /// stamp, and divide the run's span of its id page between them.
    fn split(&mut self, tail: RunId, at: u32) -> RunId {
        self.splits += 1;
        let run = &mut self.runs[tail as usize];
        debug_assert!(0 < at && at < run.len, "a split leaves two runs");
        let head = Run {
            page: run.page,
            start: run.start,
            last_used: run.last_used,
            parent: run.parent,
            refcount: run.refcount,
            children: 1,
            depth: run.depth,
            len: at,
            computed_len: run.computed_len.min(at),
        };
        run.start += at;
        run.depth += at;
        run.len -= at;
        run.computed_len = run.computed_len.saturating_sub(at);
        let tail_first = self.pages.ids(run)[0];
        self.pages.pages[run.page as usize].runs += 1;
        // Re-points the head's first block, until now the tail's key.
        let head = self.insert_run(head);
        self.runs[tail as usize].parent = head;
        self.map.insert(tail_first, tail);
        head
    }

    /// Run `id` of one of this cache's live allocations.
    #[inline]
    fn pinned(runs: &mut [Run], id: RunId) -> &mut Run {
        let run = &mut runs[id as usize];
        debug_assert!(
            run.len > 0 && run.refcount > 0,
            "an allocation pins its runs"
        );
        run
    }

    /// Marks the sequence's prompt blocks as computed up to
    /// `prefilled_tokens`, making them compute-reusable by later admissions.
    ///
    /// # Panics
    ///
    /// Panics if `alloc` was admitted by another cache.
    pub fn mark_computed(&mut self, alloc: &SeqAlloc, prefilled_tokens: usize) {
        assert_eq!(alloc.cache_id, self.id, "allocation of another cache");
        self.marks += 1;
        let upto = u32::try_from(prefilled_tokens / self.config.block_size).unwrap_or(u32::MAX);
        // Computed flags always form a prefix of a live chain: a block's
        // ancestors are computed before it, and an interior block cannot be
        // evicted from under a live child (eviction is leaf-only). Walking
        // up from the leaf and stopping at the first run whose target block
        // or first block was already computed therefore touches only the
        // runs this chunk newly reached, instead of re-touching the whole
        // prefix on every prefill chunk.
        let mut id = alloc.leaf;
        while id != NO_RUN {
            let run = Self::pinned(&mut self.runs, id);
            id = run.parent;
            if run.depth >= upto {
                continue;
            }
            let computed = (upto - run.depth).min(run.len);
            if run.computed_len >= computed {
                break;
            }
            let ancestors_done = run.computed_len > 0;
            run.computed_len = computed;
            if ancestors_done {
                break;
            }
        }
    }

    /// Releases a completed sequence: dereferences its shared chain (blocks
    /// stay cached until evicted) and frees its private blocks.
    ///
    /// # Panics
    ///
    /// Panics if `alloc` was admitted by another cache.
    pub fn release(&mut self, alloc: SeqAlloc) {
        self.release_inner(alloc);
        self.compact_evictable();
    }

    /// Releases every sequence retired in the same engine step. Per-sequence
    /// effects (LRU stamps, refcounts, queue pushes) are identical to calling
    /// [`release`](Self::release) once per allocation in the same order;
    /// only the queue-compaction check is deferred to once per batch, which
    /// is invisible because eviction skips stale entries anyway.
    ///
    /// # Panics
    ///
    /// Panics if an allocation was admitted by another cache.
    pub fn release_batch(&mut self, allocs: impl IntoIterator<Item = SeqAlloc>) {
        for alloc in allocs {
            self.release_inner(alloc);
        }
        self.compact_evictable();
    }

    fn release_inner(&mut self, alloc: SeqAlloc) {
        assert_eq!(alloc.cache_id, self.id, "allocation of another cache");
        self.clock += 1;
        let stamp = self.clock;
        let mut id = alloc.leaf;
        while id != NO_RUN {
            let run = Self::pinned(&mut self.runs, id);
            run.refcount -= 1;
            run.last_used = stamp;
            if run.refcount == 0 {
                self.rc0_blocks += run.len as usize;
                if run.children == 0 {
                    // Only the leaf of a path can be childless, and the
                    // clock moved since the last release.
                    debug_assert!(self.released.back().is_none_or(|c| c.stamp < stamp));
                    self.released.push_back(Candidate { stamp, run: id });
                }
            }
            id = run.parent;
        }
        self.private_blocks = self.private_blocks.saturating_sub(alloc.private_blocks);
    }

    /// Whether `c` still names this very run in this very state (a revive,
    /// a re-release, an eviction or a recycled slot leaves stale candidates
    /// behind).
    fn is_evictable(&self, c: &Candidate) -> bool {
        let run = &self.runs[c.run as usize];
        run.len > 0 && run.refcount == 0 && run.children == 0 && run.last_used == c.stamp
    }

    /// Evicts `blocks` blocks, each the LRU leaf block of its moment,
    /// skipping stale candidates. The caller verified supply before
    /// committing, so running out of candidates early would mean that
    /// invariant broke; the loop then stops rather than spin.
    fn evict(&mut self, mut blocks: usize) {
        while blocks > 0 {
            while let Some(c) = self.released.front() {
                if self.is_evictable(c) {
                    break;
                }
                self.stale += 1;
                self.released.pop_front();
            }
            while let Some(Reverse(c)) = self.cascaded.peek() {
                if self.is_evictable(c) {
                    break;
                }
                self.stale += 1;
                self.cascaded.pop();
            }
            // Both fronts are now valid, each the minimum of its queue.
            let victim = match (self.released.front(), self.cascaded.peek()) {
                (Some(r), Some(Reverse(c))) => *r.min(c),
                (Some(c), None) | (None, Some(Reverse(c))) => *c,
                (None, None) => return,
            };
            // The victim's last block goes, and then the one before it,
            // which carries the same stamp and is the oldest leaf in turn.
            let run = &mut self.runs[victim.run as usize];
            let first = self.pages.ids(run)[0];
            let taken = blocks.min(run.len as usize);
            // No more than `run.len`.
            run.len -= taken as u32;
            run.computed_len = run.computed_len.min(run.len);
            blocks -= taken;
            self.live_blocks -= taken;
            self.rc0_blocks -= taken;
            self.stats.evictions += taken as u64;
            if run.len > 0 {
                // Still the oldest leaf: its candidate stays queued.
                return;
            }
            self.pages.release(run.page);
            let parent = run.parent;
            self.map.remove(&first);
            self.free.push(victim.run);
            if self.released.front() == Some(&victim) {
                self.released.pop_front();
            } else {
                self.cascaded.pop();
            }
            if parent != NO_RUN {
                // A live child keeps its parent live (eviction is leaf-only).
                let p = &mut self.runs[parent as usize];
                p.children -= 1;
                if p.refcount == 0 && p.children == 0 {
                    self.cascaded.push(Reverse(Candidate {
                        stamp: p.last_used,
                        run: parent,
                    }));
                }
            }
        }
    }

    /// Rebuilds the eviction queues from their valid entries once stale
    /// ones dominate, bounding queue memory on long-running sessions.
    fn compact_evictable(&mut self) {
        let before = self.released.len() + self.cascaded.len();
        if before <= 4 * self.config.capacity_blocks.max(64) {
            return;
        }
        let mut released = std::mem::take(&mut self.released);
        released.retain(|c| self.is_evictable(c));
        let mut cascaded = std::mem::take(&mut self.cascaded).into_vec();
        cascaded.retain(|Reverse(c)| self.is_evictable(c));
        self.released = released;
        self.cascaded = cascaded.into();
        self.stale += (before - self.released.len() - self.cascaded.len()) as u64;
    }

    fn note_admission(&mut self, prompt_tokens: usize, cached_tokens: usize) {
        self.stats.admitted += 1;
        self.stats.total_prompt_tokens += prompt_tokens as u64;
        self.stats.cached_tokens += cached_tokens as u64;
        self.stats.peak_blocks = self
            .stats
            .peak_blocks
            .max(self.live_blocks + self.private_blocks);
    }

    /// Checks the run store's structural invariants, panicking on the first
    /// one that does not hold. Debug builds only: every check is a scan of
    /// the whole slab.
    #[cfg(any(test, debug_assertions))]
    pub fn check_invariants(&self) {
        let live = || self.runs.iter().enumerate().filter(|(_, r)| r.len > 0);
        assert_eq!(live().count(), self.map.len(), "map size == live runs");
        assert_eq!(
            self.runs.len(),
            self.map.len() + self.free.len(),
            "every slot is live or free"
        );
        assert!(self.free.iter().all(|&id| self.runs[id as usize].len == 0));
        let blocks = |rc0_only: bool| -> usize {
            let counted = live().filter(|(_, r)| !rc0_only || r.refcount == 0);
            counted.map(|(_, r)| r.len as usize).sum()
        };
        assert_eq!(blocks(false), self.live_blocks, "live_blocks == Σ len");
        assert_eq!(
            blocks(true),
            self.rc0_blocks,
            "rc0_blocks == Σ len of refcount-0 runs"
        );
        let mut children = vec![0u32; self.runs.len()];
        for (id, run) in live() {
            assert_eq!(
                self.map.get(&self.pages.ids(run)[0]).copied(),
                Some(id as RunId),
                "a live run's first block maps to it"
            );
            assert!(run.computed_len <= run.len, "computed blocks are a prefix");
            if run.parent == NO_RUN {
                assert_eq!(run.depth, 0, "only a chain's first run has no parent");
                continue;
            }
            let p = &self.runs[run.parent as usize];
            assert!(p.len > 0, "a live run's parent is live");
            assert_eq!(
                p.depth + p.len,
                run.depth,
                "children hang off a run's last block"
            );
            assert!(p.refcount >= run.refcount, "a pin covers the whole chain");
            assert!(p.last_used >= run.last_used, "and so does a stamp");
            assert!(
                run.computed_len == 0 || p.computed_len == p.len,
                "computed blocks are a prefix across runs"
            );
            children[run.parent as usize] += 1;
        }
        // Id pages: every live run reads one page (`IdPages::ids` would have
        // panicked above otherwise), a page counts exactly the live runs on
        // it, no two of them overlap, and only unread pages are free.
        let pages = &self.pages;
        let mut spans: Vec<(u32, u32, u32)> =
            live().map(|(_, r)| (r.page, r.start, r.len)).collect();
        spans.sort_unstable();
        for pair in spans.windows(2) {
            let ((page, start, len), next) = (pair[0], pair[1]);
            assert!(page != next.0 || start + len <= next.1, "runs overlap");
        }
        for (id, page) in pages.pages.iter().enumerate() {
            let on_page = spans.iter().filter(|s| s.0 as usize == id).count();
            assert_eq!(page.runs as usize, on_page, "page count == live runs");
            let idle = page.runs == 0 && pages.open != Some(id as u32);
            assert_eq!(idle, pages.free.contains(&(id as u32)), "free == unread");
            assert!(
                page.runs > 0 || page.ids.is_empty(),
                "unread pages are empty"
            );
        }
        assert!(
            self.live_blocks <= pages.words_in_use(),
            "Σ len ≤ words in use"
        );
        let mut queued = vec![false; self.runs.len()];
        let candidates = self
            .released
            .iter()
            .chain(self.cascaded.iter().map(|c| &c.0));
        for c in candidates.filter(|c| self.is_evictable(c)) {
            queued[c.run as usize] = true;
        }
        for (id, run) in live() {
            assert_eq!(run.children, children[id], "children == live child count");
            assert!(
                queued[id] || run.refcount > 0 || run.children > 0,
                "every evictable run has a valid candidate"
            );
        }
        assert!(
            self.released
                .iter()
                .zip(self.released.iter().skip(1))
                .all(|(a, b)| a.stamp < b.stamp),
            "release candidates are queued in strictly increasing stamp order"
        );
    }
}

/// Multiplier of the per-token mix and the block seed (FxHash's 64-bit
/// constant: odd, so multiplying is a bijection of the state).
const MIX_MUL: u64 = 0x517c_c1b7_2722_0a95;
/// Multiplier of the block finaliser (the golden-ratio constant, odd).
const FINISH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// "Parent" of a chain's first block.
const ROOT_SEED: u64 = 0xcbf2_9ce4_8422_2325;

thread_local! {
    /// Xor-ed into [`ROOT_SEED`]; see [`with_root_salt`].
    static ROOT_SALT: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f` with every block id computed on this thread re-keyed by `salt`
/// (0 is the production keying). Block ids are meant to be opaque: nothing a
/// report shows may depend on their values, only on which prompts share
/// which prefixes. Re-running a pinned fixture under a few salts is how the
/// test suites hold the cache to that — in particular the `(stamp, hash)`
/// eviction tie-break must never be what decides an outcome.
#[doc(hidden)]
pub fn with_root_salt<R>(salt: u64, f: impl FnOnce() -> R) -> R {
    let outer = ROOT_SALT.replace(salt);
    let result = f();
    ROOT_SALT.set(outer);
    result
}

/// Starts a block's running hash from its parent block's id (or the root
/// constant): one xor, one multiply.
#[inline]
fn chain_seed(parent: Option<u64>) -> u64 {
    let parent = parent.unwrap_or_else(|| ROOT_SEED ^ ROOT_SALT.get());
    (parent ^ FINISH_MUL).wrapping_mul(MIX_MUL)
}

/// Mixes one token into a block's running hash: one rotate, one xor, one
/// multiply on the whole word. Every step is a bijection of the state, and
/// for a fixed state distinct tokens give distinct results.
#[inline]
fn chain_mix_token(h: u64, t: TokenId) -> u64 {
    (h.rotate_left(5) ^ u64::from(t)).wrapping_mul(MIX_MUL)
}

/// Turns a completed block's running hash into its id. A multiply only
/// carries entropy upward, so the running hash's low bits depend on the low
/// bits of the last few tokens alone; the block map buckets by a key's low
/// bits and tags by its top seven. Folding the high half down, multiplying
/// and folding again (a bijection, so it adds no collisions) leaves both
/// ends a function of every token of the block and of its parent.
#[inline]
fn chain_finish(h: u64) -> u64 {
    let h = (h ^ (h >> 32)).wrapping_mul(FINISH_MUL);
    h ^ (h >> 29)
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
        // A cold chain costs one map lookup: the first block is absent, and
        // with it every later one.
        let a = c.try_admit(&toks(8, 0), 0).unwrap();
        c.mark_computed(&a, 8);
        c.release(a);
        // Its two ids open the first page.
        let cold = CacheInternals {
            block_map_probes: 1,
            mark_computed_calls: 1,
            id_pages: 1,
            id_words_live: 2,
            ..CacheInternals::default()
        };
        assert_eq!(c.internals(), cold);
        // A fresh prefix in a full cache evicts the rc==0 run the first
        // request left behind (one more lookup, a miss), which empties the
        // open page: the new run's ids start it over.
        let b = c.try_admit(&toks(8, 9), 0).unwrap();
        c.mark_computed(&b, 8);
        c.release(b);
        let churned = CacheInternals {
            block_map_probes: 2,
            mark_computed_calls: 2,
            evictions: 2,
            ..cold
        };
        assert_eq!(c.internals(), churned);
        assert_eq!(churned.evictions, c.stats().evictions);
        // The resident chain again — probed, checked, admitted — is one
        // lookup per walk, for its one run; marks and releases are never
        // lookups.
        assert_eq!(c.probe(&toks(8, 9)), 8);
        assert!(c.can_admit_chain(BlockChain::from_tokens(4, &toks(8, 9)).view(), 0));
        let again = c.try_admit(&toks(8, 9), 0).unwrap();
        c.release(again);
        let resumed = CacheInternals {
            block_map_probes: 5,
            ..churned
        };
        assert_eq!(c.internals(), resumed);
        // A chain that diverges after one block leaves the run early: the
        // walk ends there without looking its own second block up, and only
        // an admission splits the run (whose unshared half is then evicted
        // to make room, past the candidate the run's first release queued).
        let mut forked = toks(8, 9);
        forked[5] ^= 0xffff;
        assert_eq!(c.probe(&forked), 4);
        assert_eq!(c.internals().run_splits, 0);
        let fork = c.try_admit(&forked, 0).unwrap();
        assert_eq!(fork.cached_tokens, 4);
        // The page keeps the evicted half's word until its last run dies.
        assert_eq!(
            c.internals(),
            CacheInternals {
                block_map_probes: 7,
                heap_stale_invalidations: 1,
                run_splits: 1,
                evictions: 3,
                id_words_live: 3,
                ..resumed
            }
        );
        c.check_invariants();
    }

    #[test]
    fn recycled_run_slots_miss_instead_of_lying() {
        // Capacity 2: every new prompt evicts the previous one's run and
        // takes over its slot, so stale eviction candidates keep naming a
        // slot that holds another run (or the same blocks, re-created).
        let mut c = cache(2);
        for salt in [0, 1, 0, 0, 2, 1] {
            let a = c.try_admit(&toks(8, salt), 0).unwrap();
            c.mark_computed(&a, 8);
            for other in 0..3 {
                let expect = if other == salt { 8 } else { 0 };
                assert_eq!(c.probe(&toks(8, other)), expect, "{salt} resident");
            }
            c.release(a);
            c.check_invariants();
        }
        assert_eq!(c.stats().evictions, 8);
    }

    #[test]
    #[should_panic(expected = "allocation of another cache")]
    fn releasing_into_another_cache_panics() {
        let (mut c, mut d) = (cache(8), cache(8));
        let a = c.try_admit(&toks(8, 0), 0).unwrap();
        let _pins_slots_0_and_1 = d.try_admit(&toks(8, 1), 0).unwrap();
        d.release(a);
    }

    #[test]
    #[should_panic(expected = "allocation of another cache")]
    fn marking_in_another_cache_panics() {
        let (mut c, mut d) = (cache(8), cache(8));
        let a = c.try_admit(&toks(8, 0), 0).unwrap();
        d.mark_computed(&a, 8);
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
            let defined = BlockChain::from_fragments(4, flat);
            assert_eq!(hasher.chain(&prompt), defined.view());
            assert_eq!(BlockChain::from(defined.view()), defined);
        }
        assert_eq!(hasher.tokens_reused(), 11);
        assert_eq!(hasher.tokens_hashed(), 18 + 3 + 11);
        // A disabled cache wants the length only.
        let mut off = ChainHasher::new(4, false);
        assert_eq!(off.chain(&[a, b]), ChainView::unhashed(11));
        assert_eq!(off.tokens_hashed() + off.tokens_reused(), 0);
    }

    /// Pearson's χ² of `ids` bucketed by `bucket` against the uniform
    /// distribution over `buckets` buckets, as a distance from its mean in
    /// standard deviations (mean `buckets − 1`, variance twice that).
    fn chi_square_sigmas(ids: &[u64], buckets: usize, bucket: impl Fn(u64) -> usize) -> f64 {
        let mut counts = vec![0u32; buckets];
        for &id in ids {
            counts[bucket(id)] += 1;
        }
        let expected = ids.len() as f64 / buckets as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| (f64::from(c) - expected).powi(2) / expected)
            .sum();
        let dof = (buckets - 1) as f64;
        (chi2 - dof) / (2.0 * dof).sqrt()
    }

    #[test]
    fn low_entropy_blocks_get_distinct_ids_that_fill_the_block_map_evenly() {
        // Tokenizer ids are small integers, and a table's prompts differ in
        // a few of them: the worst case for a multiply-only mixer. Over a
        // million pairwise distinct blocks with almost no entropy — runs of
        // consecutive ids, arithmetic progressions, every two-symbol pattern
        // over a few pairs — must get distinct ids whose low 16 bits (the
        // block map's bucket; its hasher multiplies by an odd constant,
        // which permutes them) and top 7 bits (the bucket's control tag)
        // are both indistinguishable from uniform.
        let mut ids: Vec<u64> = Vec::new();
        let mut push = |block: &[TokenId]| {
            ids.push(BlockChain::from_tokens(block.len(), block).blocks()[0]);
        };
        let mut block = [0 as TokenId; 16];
        for start in 0..400_000u32 {
            for (j, t) in block.iter_mut().enumerate() {
                *t = start + j as u32;
            }
            push(&block);
        }
        for stride in 2..=400u32 {
            for start in 0..1_000u32 {
                for (j, t) in block.iter_mut().enumerate() {
                    *t = start + j as u32 * stride;
                }
                push(&block);
            }
        }
        // Distinct first symbols, so the all-first-symbol blocks differ too.
        for (a, b) in [(0, 1), (2, 3), (7, 1_000), (65_535, 65_536)] {
            for pattern in 0..1u32 << 16 {
                for (j, t) in block.iter_mut().enumerate() {
                    *t = if pattern >> j & 1 == 0 { a } else { b };
                }
                push(&block);
            }
        }
        // One- and two-token blocks in a progression of stride 2^15: the
        // tokens differ only in bits the mixer's multiplies never carry
        // down, so the finaliser alone stands between them and one bucket.
        for k in 0..1u32 << 17 {
            push(&[k << 15]);
            push(&[k << 15, 1 << 20]);
        }
        assert!(ids.len() >= 1_000_000);

        let low16 = chi_square_sigmas(&ids, 1 << 16, |id| (id & 0xffff) as usize);
        let top7 = chi_square_sigmas(&ids, 1 << 7, |id| (id >> 57) as usize);
        assert!(
            low16.abs() < 3.0,
            "low 16 bits: {low16:.2} sigma off uniform"
        );
        assert!(top7.abs() < 3.0, "top 7 bits: {top7:.2} sigma off uniform");

        let blocks = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), blocks, "colliding block ids");
    }

    #[test]
    fn a_root_salt_rekeys_every_block_and_is_scoped() {
        let tokens = toks(12, 9);
        let plain = BlockChain::from_tokens(4, &tokens);
        let salted = with_root_salt(0x5eed, || BlockChain::from_tokens(4, &tokens));
        assert_eq!(salted.prompt_tokens(), plain.prompt_tokens());
        for (a, b) in plain.blocks().iter().zip(salted.blocks()) {
            assert_ne!(a, b, "the salt reaches every block through its parent");
        }
        assert_eq!(BlockChain::from_tokens(4, &tokens), plain, "restored");
    }

    #[test]
    fn chain_apis_match_token_apis() {
        let mut c = cache(32);
        let tokens = toks(14, 2);
        let chain = BlockChain::from_tokens(4, &tokens);
        let chain = chain.view();
        assert!(c.can_admit_chain(chain, 3));
        let a = c.try_admit_chain(chain, 3).unwrap();
        c.mark_computed(&a, 14);
        assert_eq!(c.probe_chain(chain), c.probe(&tokens));
        let b = c.try_admit(&tokens, 3).unwrap();
        assert_eq!(b.cached_tokens, c.probe_chain(chain));
        c.release(a);
        c.release(b);
    }

    #[test]
    fn can_admit_chain_predicts_try_admit_and_never_mutates() {
        let mut c = cache(2);
        let (fits, too_big) = (
            BlockChain::from_tokens(4, &toks(8, 0)),
            BlockChain::from_tokens(4, &toks(16, 1)),
        );
        assert!(c.can_admit_chain(fits.view(), 0));
        assert!(!c.can_admit_chain(too_big.view(), 0));
        let a = c.try_admit_chain(fits.view(), 0).unwrap();
        // The same chain still fits (pure sharing, no new blocks) …
        assert!(c.can_admit_chain(fits.view(), 0));
        // … but a distinct prompt needs blocks the full cache cannot supply;
        // the predicate agrees with try_admit, and a refusal writes nothing.
        let mut other = BlockChain::from_tokens(4, &toks(8, 3));
        let before = c.internals();
        assert!(!c.can_admit_chain(other.view(), 0));
        assert!(c.try_admit_chain(other.view(), 0).is_none());
        assert_eq!(
            (c.internals().id_pages, c.internals().id_words_live),
            (before.id_pages, before.id_words_live)
        );
        c.release(a);
        // Released blocks are evictable supply again, and a granted
        // admission copied the ids it keeps: the caller's buffer is its own.
        assert!(c.can_admit_chain(other.view(), 0));
        let b = c.try_admit_chain(other.view(), 0).unwrap();
        other = BlockChain::from_tokens(4, &toks(8, 5));
        assert_eq!(c.probe(&toks(8, 3)), 0, "in strict mode, not computed");
        c.mark_computed(&b, 8);
        assert_eq!(c.probe(&toks(8, 3)), 8);
        assert_eq!(c.probe_chain(other.view()), 0);
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
        let chain = ChainView::unhashed(10);
        assert!(c.can_admit_chain(chain, 2));
        let a = c.try_admit_chain(chain, 2).unwrap();
        assert_eq!(a.prompt_tokens, 10);
        assert_eq!(c.free_blocks(), 1);
        assert!(!c.can_admit_chain(ChainView::unhashed(8), 0));
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
                cache.check_invariants();
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

/// The cache's own oracle: the module docs' semantics over block *hashes*,
/// written as naively as possible — an ordered map, no slots, no memo, no
/// queues, no counters that a scan can replace — and a proptest that drives
/// it and [`PrefixCache`] through the same schedule.
#[cfg(test)]
mod model {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestCaseError;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Block {
        parent: Option<u64>,
        refcount: u32,
        computed: bool,
        last_used: u64,
    }

    struct ModelAlloc {
        chain: Vec<u64>,
        private: usize,
        cached_tokens: usize,
    }

    struct Model {
        config: CacheConfig,
        blocks: BTreeMap<u64, Block>,
        private: usize,
        clock: u64,
        stats: CacheStats,
        /// Every evicted block, in eviction order.
        evicted: Vec<u64>,
    }

    impl Model {
        fn free_blocks(&self) -> usize {
            self.config.capacity_blocks - self.blocks.len() - self.private
        }

        fn is_leaf(&self, hash: u64) -> bool {
            self.blocks.values().all(|b| b.parent != Some(hash))
        }

        fn probe(&self, chain: &[u64]) -> usize {
            let hits = chain.iter().take_while(|h| {
                self.blocks
                    .get(h)
                    .is_some_and(|b| b.computed || self.config.share_in_flight)
            });
            hits.count() * self.config.block_size
        }

        /// `(private blocks, fits)` of an admission.
        fn plan(&self, chain: &[u64], prompt_tokens: usize, decode: usize) -> (usize, bool) {
            let bs = self.config.block_size;
            let private = (prompt_tokens % bs + decode).div_ceil(bs);
            let missing = chain
                .iter()
                .filter(|h| !self.blocks.contains_key(h))
                .count();
            // Unreferenced blocks can all be evicted, leaves first — except
            // those of this very chain, which the admission will reference.
            let reclaimable = self
                .blocks
                .iter()
                .filter(|(h, b)| b.refcount == 0 && !chain.contains(h))
                .count();
            (
                private,
                missing + private <= self.free_blocks() + reclaimable,
            )
        }

        fn evict_lru_leaf(&mut self) {
            let victim = self
                .blocks
                .iter()
                .filter(|(&h, b)| b.refcount == 0 && self.is_leaf(h))
                .map(|(&h, b)| (b.last_used, h))
                .min()
                .expect("supply was checked")
                .1;
            self.blocks.remove(&victim);
            self.evicted.push(victim);
            self.stats.evictions += 1;
        }

        fn try_admit(&mut self, chain: &BlockChain, decode: usize) -> Option<ModelAlloc> {
            let hashes = chain.blocks();
            let (private, fits) = self.plan(hashes, chain.prompt_tokens(), decode);
            if !fits {
                return None;
            }
            let cached_tokens = self.probe(hashes);
            self.clock += 1;
            for h in hashes {
                if let Some(b) = self.blocks.get_mut(h) {
                    b.refcount += 1;
                    b.last_used = self.clock;
                }
            }
            for (i, &h) in hashes.iter().enumerate() {
                if self.blocks.contains_key(&h) {
                    continue;
                }
                if self.free_blocks() == 0 {
                    self.evict_lru_leaf();
                }
                let block = Block {
                    parent: i.checked_sub(1).map(|p| hashes[p]),
                    refcount: 1,
                    computed: false,
                    last_used: self.clock,
                };
                self.blocks.insert(h, block);
            }
            while self.free_blocks() < private {
                self.evict_lru_leaf();
            }
            self.private += private;
            self.stats.admitted += 1;
            self.stats.total_prompt_tokens += chain.prompt_tokens() as u64;
            self.stats.cached_tokens += cached_tokens as u64;
            self.stats.peak_blocks = self.stats.peak_blocks.max(self.blocks.len() + self.private);
            Some(ModelAlloc {
                chain: hashes.to_vec(),
                private,
                cached_tokens,
            })
        }

        fn mark_computed(&mut self, alloc: &ModelAlloc, prefilled_tokens: usize) {
            for h in &alloc.chain[..prefilled_tokens / self.config.block_size] {
                self.blocks.get_mut(h).expect("pinned").computed = true;
            }
        }

        fn release(&mut self, alloc: ModelAlloc) {
            self.clock += 1;
            for h in &alloc.chain {
                let b = self.blocks.get_mut(h).expect("pinned");
                b.refcount -= 1;
                b.last_used = self.clock;
            }
            self.private -= alloc.private;
        }
    }

    impl PrefixCache {
        /// The runs block by block, as the model describes them: hash →
        /// (parent hash, refcount, computed, last_used).
        fn describe(&self) -> BTreeMap<u64, Block> {
            let live = self.runs.iter().filter(|r| r.len > 0);
            live.flat_map(|run| {
                let above = self.runs.get(run.parent as usize);
                let mut parent = above.and_then(|p| self.pages.ids(p).last().copied());
                self.pages
                    .ids(run)
                    .iter()
                    .enumerate()
                    .map(move |(i, &hash)| {
                        let block = Block {
                            parent: parent.replace(hash),
                            refcount: run.refcount,
                            computed: i < run.computed_len as usize,
                            last_used: run.last_used,
                        };
                        (hash, block)
                    })
            })
            .collect()
        }
    }

    /// Stamps differ (the cache's clock also ticks on refused admissions);
    /// what must agree is their order. Replaces each stamp by its rank.
    fn ranked(mut blocks: BTreeMap<u64, Block>) -> BTreeMap<u64, Block> {
        let mut stamps: Vec<u64> = blocks.values().map(|b| b.last_used).collect();
        stamps.sort_unstable();
        stamps.dedup();
        for b in blocks.values_mut() {
            b.last_used = stamps.binary_search(&b.last_used).expect("own stamp") as u64;
        }
        blocks
    }

    /// A prompt out of a trie eight blocks deep with three children per
    /// node: `1 + pick % 8` full blocks, `pick / 8 % 4` tail tokens, and two
    /// bits of `pick` per level choosing the block there — variant 0 half
    /// the time, so prompts share long stretches, the runs holding them are
    /// long, and chains end and diverge at every offset inside them.
    fn prompt(pick: u32) -> Vec<TokenId> {
        let (blocks, tail) = (1 + pick % 8, pick / 8 % 4);
        let mut tokens = Vec::new();
        for level in 0..blocks {
            let variant = [0, 1, 2, 0][(pick >> (5 + 2 * level) & 3) as usize];
            tokens.extend((0..4).map(|i| 1_000 * level + 10 * variant + i));
        }
        tokens.extend((0..tail).map(|i| 900_000 + i));
        tokens
    }

    /// The `pick` of the prompt with `blocks` full blocks, variant
    /// `variants[level]` at each listed level and variant 0 below.
    fn pick(blocks: u32, variants: &[u32]) -> u32 {
        let levels = variants.iter().enumerate();
        levels.fold(blocks - 1, |pick, (level, v)| pick | v << (5 + 2 * level))
    }

    /// One step of a schedule: `(op, pick, decode, nth)`.
    type Op = (u8, u32, u8, u8);
    const ADMIT: u8 = 0;
    const MARK: u8 = 5;
    const RELEASE: u8 = 7;
    const RELEASE_BATCH: u8 = 8;

    /// A prompt out of families that share nothing with one another, for
    /// runs sized against an id page: family `pick & 0xff`, `pick >> 8 &
    /// 0xfff` full blocks, and — unless `pick >> 20` is 0 — other content
    /// from block `(pick >> 20) - 1` on. Plain prompts of one family are
    /// prefixes of one another; a forked one leaves them at its fork.
    fn paged_prompt(pick: u32) -> Vec<TokenId> {
        let (family, blocks, fork) = (pick & 0xff, pick >> 8 & 0xfff, pick >> 20);
        let block = |i: u32| {
            let forked = u32::from(fork > 0 && i + 1 >= fork);
            (0..4).map(move |j| (family * 8_192 + i * 2 + forked) * 4 + j)
        };
        (0..blocks).flat_map(block).collect()
    }

    /// The [`paged_prompt`] `pick` of `blocks` blocks of `family`, forked at
    /// block `fork - 1` (0: not at all).
    fn paged(family: u32, blocks: u32, fork: u32) -> u32 {
        family | blocks << 8 | fork << 20
    }

    /// Drives a [`PrefixCache`] and the [`Model`] through `ops` over the
    /// prompts of `prompt`, comparing every answer and, after every step,
    /// the whole block-by-block state.
    fn lockstep(
        prompt: fn(u32) -> Vec<TokenId>,
        ops: &[Op],
        capacity: usize,
        share_in_flight: bool,
    ) -> Result<CacheInternals, TestCaseError> {
        let config = CacheConfig {
            block_size: 4,
            capacity_blocks: capacity,
            enabled: true,
            share_in_flight,
        };
        let mut cache = PrefixCache::new(config);
        let mut model = Model {
            config,
            blocks: BTreeMap::new(),
            private: 0,
            clock: 0,
            stats: CacheStats::default(),
            evicted: Vec::new(),
        };
        let mut live: Vec<(SeqAlloc, ModelAlloc)> = Vec::new();
        for &(op, pick, decode, nth) in ops {
            let before = cache.describe();
            let evicted_before = model.evicted.len();
            let chain = BlockChain::from_tokens(4, &prompt(pick));
            let (decode, nth) = (usize::from(decode), usize::from(nth));
            match op {
                // Admissions are half the schedule.
                ADMIT..=4 => {
                    prop_assert_eq!(
                        cache.can_admit_chain(chain.view(), decode),
                        model.plan(chain.blocks(), chain.prompt_tokens(), decode).1
                    );
                    let got = cache.try_admit_chain(chain.view(), decode);
                    let want = model.try_admit(&chain, decode);
                    prop_assert_eq!(got.is_some(), want.is_some());
                    if let (Some(got), Some(want)) = (got, want) {
                        prop_assert_eq!(got.cached_tokens, want.cached_tokens);
                        prop_assert_eq!(got.prompt_tokens, chain.prompt_tokens());
                        live.push((got, want));
                    }
                }
                // A prefill chunk lands: anywhere up to the whole prompt.
                MARK | 6 if !live.is_empty() => {
                    let (got, want) = &live[nth % live.len()];
                    let prefilled = got.prompt_tokens * (decode + 1) / 10;
                    cache.mark_computed(got, prefilled);
                    model.mark_computed(want, prefilled);
                }
                RELEASE if !live.is_empty() => {
                    let (got, want) = live.swap_remove(nth % live.len());
                    cache.release(got);
                    model.release(want);
                }
                RELEASE_BATCH if !live.is_empty() => {
                    let retired = live.split_off(live.len() - (nth % live.len() + 1).min(3));
                    let (got, want): (Vec<_>, Vec<_>) = retired.into_iter().unzip();
                    cache.release_batch(got);
                    want.into_iter().for_each(|a| model.release(a));
                }
                _ => prop_assert_eq!(cache.probe_chain(chain.view()), model.probe(chain.blocks())),
            }
            cache.check_invariants();
            prop_assert_eq!(cache.free_blocks(), model.free_blocks());
            prop_assert_eq!(cache.stats(), &model.stats);
            let after = cache.describe();
            let mut gone: Vec<u64> = before
                .keys()
                .filter(|h| !after.contains_key(h))
                .copied()
                .collect();
            let mut want_gone = model.evicted[evicted_before..].to_vec();
            gone.sort_unstable();
            want_gone.sort_unstable();
            prop_assert_eq!(gone, want_gone);
            prop_assert_eq!(ranked(after), ranked(model.blocks.clone()));
        }
        Ok(cache.internals())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn cache_matches_the_naive_model(
            ops in proptest::collection::vec((0u8..10, 0u32..1 << 21, 0u8..10, 0u8..8), 1..160),
            capacity in 2usize..=64,
            share_in_flight in proptest::bool::ANY,
        ) {
            lockstep(prompt, &ops, capacity, share_in_flight)?;
        }
    }

    /// The scripted schedules below force, one by one, what the random ones
    /// only make likely; each runs under both sharing modes.
    fn scripted(ops: &[Op], capacity: usize) -> CacheInternals {
        scripted_over(prompt, ops, capacity)
    }

    /// [`scripted`] over another prompt family.
    fn scripted_over(
        prompt: fn(u32) -> Vec<TokenId>,
        ops: &[Op],
        capacity: usize,
    ) -> CacheInternals {
        let strict = lockstep(prompt, ops, capacity, false).unwrap();
        assert_eq!(lockstep(prompt, ops, capacity, true).unwrap(), strict);
        strict
    }

    #[test]
    fn chains_end_and_diverge_at_every_offset_of_a_live_run() {
        // One eight-block run, live throughout. Seven strict block-prefixes
        // of it and eight chains leaving it for variant 1 at each level: the
        // first cut at an offset splits, the second finds the boundary.
        let mut ops = vec![(ADMIT, pick(8, &[]), 3, 0)];
        for k in 1..8 {
            ops.push((ADMIT, pick(k, &[]), 0, 0));
        }
        for level in 0..8 {
            let mut variants = [0; 8];
            variants[level] = 1;
            ops.push((ADMIT, pick(8, &variants), 1, 0));
        }
        // The long sequence goes first: its leaf run was split under it
        // seven times over. Then everything else, newest first.
        ops.push((RELEASE, 0, 0, 0));
        ops.extend([(RELEASE_BATCH, 0, 0, 2); 5]);
        let internals = scripted(&ops, 64);
        assert_eq!(internals.run_splits, 7);
        assert_eq!(internals.evictions, 0);
    }

    #[test]
    fn a_partly_evicted_run_is_completed_by_a_child_run() {
        let (long, other) = (pick(8, &[]), pick(5, &[1]));
        let ops = [
            (ADMIT, long, 0, 0),
            (MARK, 0, 9, 0),
            (RELEASE, 0, 0, 0),
            // Five new blocks into two free ones: the run loses three.
            (ADMIT, other, 0, 0),
            (RELEASE, 0, 0, 0),
            // The full prompt again: five blocks revived (computed), three
            // re-created below them (not), at the other chain's expense.
            (ADMIT, long, 0, 0),
            (MARK, 0, 4, 0),
            (ADMIT, long, 0, 0),
            (RELEASE_BATCH, 0, 0, 1),
        ];
        let internals = scripted(&ops, 10);
        assert_eq!((internals.evictions, internals.run_splits), (6, 0));
    }

    #[test]
    fn a_prefill_chunk_lands_inside_a_run_two_sequences_share() {
        let long = pick(8, &[]);
        let ops = [
            (ADMIT, long, 2, 0),
            (ADMIT, long, 2, 0),
            // 50% of the prompt through the second sequence: blocks 0–3.
            (MARK, 0, 4, 1),
            (ADMIT, long, 0, 0),
            // Cuts above, at and below the computed mark, each through a
            // live run: the halves must keep their share of it.
            (ADMIT, pick(8, &[0, 0, 1]), 0, 0),
            (ADMIT, pick(8, &[0, 0, 0, 0, 1]), 0, 0),
            (ADMIT, pick(8, &[0, 0, 0, 0, 0, 0, 1]), 0, 0),
            (ADMIT, pick(4, &[]), 0, 0),
            // 80% through the first sequence crosses three run boundaries.
            (MARK, 0, 7, 0),
            (ADMIT, long, 0, 0),
            (ADMIT, pick(8, &[0, 0, 0, 0, 0, 0, 1]), 0, 0),
            (RELEASE_BATCH, 0, 0, 2),
            (RELEASE_BATCH, 0, 0, 2),
            (RELEASE_BATCH, 0, 0, 2),
        ];
        assert_eq!(scripted(&ops, 64).run_splits, 3);
    }
    #[test]
    fn a_run_longer_than_a_page_has_a_page_of_its_own() {
        let long = PAGE_IDS as u32 + 44;
        let ops = [
            // A short run opens the first page; the long one cannot share it.
            (ADMIT, paged(0, 6, 0), 0, 0),
            (ADMIT, paged(1, long, 0), 2, 0),
            // The open page is still the first: the next short run joins it.
            (ADMIT, paged(2, 5, 0), 0, 0),
            // Cuts inside the long run, before and after a page's length.
            (ADMIT, paged(1, 40, 0), 0, 0),
            (ADMIT, paged(1, long, PAGE_IDS as u32 + 9), 1, 0),
            (MARK, 0, 9, 1),
            (RELEASE_BATCH, 0, 0, 2),
            (RELEASE_BATCH, 0, 0, 1),
            // Another long chain evicts the first one piece by piece, and
            // takes over its page's slot once the last piece is gone.
            (ADMIT, paged(3, long, 0), 0, 0),
            (RELEASE, 0, 0, 0),
            (ADMIT, paged(4, long, 0), 0, 0),
            (RELEASE, 0, 0, 0),
        ];
        let internals = scripted_over(paged_prompt, &ops, long as usize + 60);
        assert_eq!(internals.run_splits, 2);
        // The shared page, and one per long run alive at once.
        assert_eq!(internals.id_pages, 3);
    }

    #[test]
    fn runs_split_at_every_offset_on_either_side_of_a_page_boundary() {
        // A filler run leaves eight words of the first page; the next run
        // takes exactly those and the one after it opens the second page.
        // Chains then end and diverge at every offset of both.
        let filler = PAGE_IDS as u32 - 8;
        let mut ops = vec![
            (ADMIT, paged(0, filler, 0), 0, 0),
            (ADMIT, paged(1, 8, 0), 0, 0),
            (ADMIT, paged(2, 8, 0), 0, 0),
        ];
        for family in [1, 2] {
            for k in 1..8 {
                ops.push((ADMIT, paged(family, k, 0), 0, 0));
                ops.push((ADMIT, paged(family, 8, k + 1), 1, 0));
            }
            ops.push((ADMIT, paged(family, 8, 1), 0, 0));
        }
        ops.extend([(RELEASE_BATCH, 0, 0, 2); 11]);
        let internals = scripted_over(paged_prompt, &ops, 2 * PAGE_IDS);
        assert_eq!(internals.run_splits, 14);
        assert_eq!(internals.evictions, 0);
    }

    #[test]
    fn a_recycled_page_is_refilled_between_live_neighbours() {
        // Three full pages of two runs each. The middle page's two are
        // released and evicted while the first and third pages' stay
        // pinned; the run that pushed them out is stored in the middle
        // page's slot, and is then split there.
        let half = PAGE_IDS as u32 / 2;
        let mut ops: Vec<Op> = (0..6).map(|f| (ADMIT, paged(f, half, 0), 0, 0)).collect();
        ops.extend([
            // Families 2 and 3 (`swap_remove` puts family 5 third).
            (RELEASE, 0, 0, 2),
            (RELEASE, 0, 0, 3),
            (ADMIT, paged(6, 2 * half, 0), 0, 0),
            (MARK, 0, 9, 4),
            (ADMIT, paged(6, half, 0), 0, 0),
            (RELEASE_BATCH, 0, 0, 2),
            (RELEASE_BATCH, 0, 0, 2),
        ]);
        let internals = scripted_over(paged_prompt, &ops, 6 * half as usize);
        assert_eq!(internals.evictions, 2 * u64::from(half));
        assert_eq!(internals.run_splits, 1);
        assert_eq!(internals.id_pages, 3, "the middle page was reused");
    }
}
