//! Adaptive runtime re-optimization: observed selectivities and the
//! session answer cache.
//!
//! The static optimizer ([`OptimizerConfig`](crate::OptimizerConfig)'s
//! rewrite rules) prices LLM filters with a
//! *uniform prior* over the label space (1/|labels|) and, under lazy
//! `LIMIT`, grows batches by blind doubling. Both decisions are made before
//! a single row has been evaluated — yet the physical executor observes the
//! real pass rate of every LLM filter batch by batch. This module closes
//! that feedback loop, the direction related work points to ("Research
//! Challenges in RDBMS for LLM Queries" names selectivity estimation for
//! semantic operators a core unsolved problem; "The Case for
//! Instance-Optimized LLMs in OLAP Databases" argues for per-workload
//! adaptation):
//!
//! * [`SelectivityTracker`] — per-operator Beta-smoothed pass-rate
//!   posteriors (seeded from the optimizer's prior via
//!   [`SelectivityPosterior`]) plus a pipeline-level posterior. Between
//!   lazy batches the SQL runner re-runs the cost/(1−selectivity) ranking
//!   with posterior means, so remaining LLM filters re-order mid-query when
//!   observations diverge from the prior; lazy-`LIMIT` batches are sized at
//!   `ceil(remaining_limit / observed_pipeline_selectivity)` instead of
//!   doubling blindly.
//! * [`AnswerCache`] — a session-scoped exact answer cache keyed by
//!   instruction + serialized projected fields. Dedup (PR 3) shares engine
//!   requests *within* one operator batch; the cache extends that sharing
//!   across batches, across operators, and across successive queries on the
//!   same [`QueryExecutor`](crate::QueryExecutor): a prompt that was ever
//!   submitted is never submitted again. Cached rows are fanned out
//!   *before* dedup-compaction, so the solver and the engine only ever see
//!   novel rows. Row keys are 64-bit content hashes folded from the table's
//!   per-fragment hashes ([`RowKey`]; debug builds audit collisions against
//!   the full key text) while the batch encoder interns the row, so a hit
//!   costs one probe of a multiply-mix-hashed map and builds nothing, and
//!   [`export`](AnswerCache::export)/[`absorb`](AnswerCache::absorb)
//!   snapshots back statement checkpoint/resume
//!   ([`StatementCheckpoint`](crate::StatementCheckpoint)).
//!
//! Like dedup and reordering, both mechanisms share engine work, **not**
//! labeler draws: the simulated labeler is this harness's per-row
//! measurement instrument, so every row still receives its own generated
//! output and adaptivity cannot change query results —
//! `tests/adaptive_differential.rs` proves adaptive-on ≡ adaptive-off
//! row-for-row on all seven datasets.

use crate::hash::MixBuild;
use llmqo_costmodel::SelectivityPosterior;
use std::collections::HashMap;
use std::sync::Arc;

/// Pseudo-observation weight of the optimizer's static prior in each
/// [`SelectivityTracker`] posterior: small enough that the first real
/// batch already moves the ranking, large enough that a 4-row pilot batch
/// cannot collapse a selectivity estimate to 0 or 1.
pub const DEFAULT_PRIOR_STRENGTH: f64 = 8.0;

// ---------------------------------------------------------------------------
// Selectivity tracking
// ---------------------------------------------------------------------------

/// Tracks observed pass rates of the LLM filters of one running query, plus
/// the end-to-end pipeline pass rate that sizes lazy-`LIMIT` batches.
///
/// Operators are keyed by their position in the logical plan (stable across
/// mid-query re-ranking — re-ranking permutes execution order, never plan
/// indices).
///
/// # Examples
///
/// ```
/// use llmqo_relational::SelectivityTracker;
/// let mut t = SelectivityTracker::new();
/// t.register(1, 0.5); // optimizer prior: uniform over 2 labels
/// t.observe(1, 3, 100); // first batch: 3% pass
/// assert!(t.selectivity(1).unwrap() < 0.1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SelectivityTracker {
    /// Per-operator posteriors, keyed by logical-plan index.
    ops: HashMap<usize, SelectivityPosterior>,
    /// Candidate rows offered to the pipeline vs rows it emitted.
    pipeline: Option<SelectivityPosterior>,
}

impl SelectivityTracker {
    /// Creates a tracker whose priors weigh as [`DEFAULT_PRIOR_STRENGTH`]
    /// pseudo-observations.
    pub fn new() -> Self {
        SelectivityTracker::default()
    }

    /// Registers operator `op` with the optimizer's static `prior` pass
    /// rate. Idempotent: re-registering keeps accumulated observations.
    pub fn register(&mut self, op: usize, prior: f64) {
        self.ops
            .entry(op)
            .or_insert_with(|| SelectivityPosterior::new(prior, DEFAULT_PRIOR_STRENGTH));
    }

    /// Seeds the pipeline posterior with the product of the registered
    /// filter priors — the optimizer's best static guess at the fraction of
    /// scanned rows that reach the result. Idempotent like [`register`].
    ///
    /// [`register`]: SelectivityTracker::register
    pub fn register_pipeline(&mut self, prior: f64) {
        if self.pipeline.is_none() {
            self.pipeline = Some(SelectivityPosterior::new(prior, DEFAULT_PRIOR_STRENGTH));
        }
    }

    /// Records one batch of operator `op`: `passed` of `total` offered rows
    /// survived. Unregistered operators are ignored (non-filter LLM ops
    /// report no selectivity).
    pub fn observe(&mut self, op: usize, passed: u64, total: u64) {
        if let Some(p) = self.ops.get_mut(&op) {
            p.observe(passed, total);
        }
    }

    /// Records one batch of the whole pipeline: of `offered` candidate rows
    /// scanned this batch, `emitted` reached the result set.
    pub fn observe_pipeline(&mut self, emitted: u64, offered: u64) {
        if let Some(p) = self.pipeline.as_mut() {
            p.observe(emitted, offered);
        }
    }

    /// Posterior mean pass rate of operator `op`, if registered.
    pub fn selectivity(&self, op: usize) -> Option<f64> {
        self.ops.get(&op).map(SelectivityPosterior::mean)
    }

    /// Rows operator `op` has been offered so far (0 = prior only).
    pub fn observations(&self, op: usize) -> u64 {
        self.ops
            .get(&op)
            .map_or(0, SelectivityPosterior::observations)
    }

    /// Posterior mean of the pipeline pass rate (result rows per scanned
    /// candidate), if seeded.
    pub fn pipeline_selectivity(&self) -> Option<f64> {
        self.pipeline.as_ref().map(SelectivityPosterior::mean)
    }

    /// Sizes the next lazy-`LIMIT` batch: `ceil(remaining /
    /// pipeline_selectivity)`, clamped into `[floor, available]`. Returns
    /// `None` — caller falls back to doubling — until the pipeline has real
    /// observations (the first batch has nothing to aim with).
    pub fn next_batch_size(
        &self,
        remaining: usize,
        floor: usize,
        available: usize,
    ) -> Option<usize> {
        let p = self.pipeline.as_ref()?;
        if p.observations() == 0 {
            return None;
        }
        // A pipeline that has emitted nothing so far still has a positive
        // Beta mean (the prior's pseudo-passes), so the division is finite;
        // clamp defensively anyway.
        let sel = p.mean().max(1e-6);
        let aimed = (remaining as f64 / sel).ceil() as usize;
        let hi = available.max(1);
        Some(aimed.clamp(floor.clamp(1, hi), hi))
    }
}

// ---------------------------------------------------------------------------
// Session answer cache
// ---------------------------------------------------------------------------

/// What the answer cache remembers about one previously submitted prompt:
/// the serving-side answer record needed to account for the work a hit
/// skips. The executor never caches key-field (position-sensitive) queries
/// — their labeler draws depend on the schedule, which a hit does not have
/// — so no positional state needs to be stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedAnswer {
    /// Prompt tokens (instruction + fields) the original request sent.
    pub prompt_tokens: u64,
    /// Output tokens the original request decoded.
    pub output_tokens: u64,
}

/// The row half of an answer-cache key: the content identity of one row's
/// serialized projected fields, in query-field order.
///
/// Every distinct `"name": "value", ` fragment of a table has a 64-bit
/// content hash (computed once, with its tokens, in the table's column
/// dictionary). A row key is the ordered fold of its fragments' hashes.
/// Keys depend on content only: the same field values hash alike on any
/// table, so a checkpoint taken over a prefix of a table hits on the whole
/// table.
///
/// # Examples
///
/// ```
/// use llmqo_relational::RowKey;
/// let mut ab = RowKey::default();
/// ab.push(0xa);
/// ab.push(0xb);
/// let mut ba = RowKey::default();
/// ba.push(0xb);
/// ba.push(0xa);
/// assert_ne!(ab.hash, ba.hash, "field order is part of the identity");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct RowKey {
    /// Ordered fold of the row's fragment content hashes.
    pub hash: u64,
}

impl RowKey {
    /// Appends the next field's fragment content hash.
    pub fn push(&mut self, fragment_hash: u64) {
        self.hash = (self.hash.rotate_left(23) ^ fragment_hash).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// One entry of an exported [`AnswerCache`] snapshot: the instruction text
/// (interned ids are executor-local, so the snapshot carries the text, one
/// shared `Arc` per instruction), the
/// row's [`RowKey`] hash, and the cached answer. The row's text is *not*
/// stored — the cache keys by hash, and a resumed executor re-derives keys
/// from live rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSnapshotEntry {
    /// Interned instruction text (the operator's cache identity), shared
    /// with the exporting cache and every entry of the same instruction.
    pub instruction: Arc<str>,
    /// [`RowKey::hash`] of the row's projected fields: an ordered fold of
    /// per-fragment content hashes. (Before the column dictionaries this
    /// was FNV-1a over the concatenated key text; snapshots from that
    /// definition do not hit under this one.)
    pub key_hash: u64,
    /// The cached serving-side answer record.
    pub answer: CachedAnswer,
}

/// A session-scoped exact answer cache: maps *prompt identity* —
/// instruction text plus the row's serialized projected fields, in query
/// field order — to the [`CachedAnswer`] of the request that first carried
/// it. Lives on the [`QueryExecutor`](crate::QueryExecutor), so hits
/// short-circuit repeated prompts across operator batches, across operators
/// within a statement, and across successive queries on the same executor.
///
/// Instructions are interned once per operator (they repeat across every
/// row of a stage) and rows are identified by their 64-bit [`RowKey`] hash,
/// so each entry costs a small fixed amount regardless of row width. 64
/// bits over session-scale entry counts makes accidental collisions
/// vanishingly rare; in debug builds the executor additionally audits every
/// key against the full key text (`AnswerCache::audit`). The cache is
/// unbounded: an entry lives as long as the cache.
#[derive(Debug, Default)]
pub struct AnswerCache {
    instructions: HashMap<Arc<str>, u32>,
    /// Interned instruction texts by id (for snapshot export).
    names: Vec<Arc<str>>,
    /// `(instruction id, key hash)` → answer. The key is already a mixed
    /// content hash of this crate's making, so the map mixes it once more
    /// instead of SipHashing it; no caller observes iteration order
    /// (`export` sorts).
    entries: HashMap<(u32, u64), CachedAnswer, MixBuild>,
    /// Full key text per audited key, for the hash-collision audit (debug
    /// builds; empty otherwise).
    audited: HashMap<(u32, u64), String>,
}

impl AnswerCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        AnswerCache::default()
    }

    /// Interns an instruction text, returning the id to use in
    /// [`lookup`](AnswerCache::lookup)/[`insert`](AnswerCache::insert).
    pub fn instruction_id(&mut self, instruction: &str) -> u32 {
        self.intern(instruction, || Arc::from(instruction))
    }

    /// The id of `text`, interning it as `shared()` when it is new.
    fn intern(&mut self, text: &str, shared: impl FnOnce() -> Arc<str>) -> u32 {
        if let Some(&id) = self.instructions.get(text) {
            return id;
        }
        let id = self.names.len() as u32;
        let name = shared();
        self.instructions.insert(Arc::clone(&name), id);
        self.names.push(name);
        id
    }

    /// Looks up one row's prompt. The cache counts nothing: the executor
    /// tallies each operator's hits in
    /// [`OptStats::cache_hits`](crate::OptStats::cache_hits), and
    /// [`len`](AnswerCache::len) is the entry count.
    pub fn lookup(&self, instruction: u32, key: RowKey) -> Option<CachedAnswer> {
        self.entries.get(&(instruction, key.hash)).copied()
    }

    /// Stores the answer record of a freshly submitted prompt. First write
    /// wins; a duplicate insert (two novel rows deduped into one request)
    /// is a no-op.
    pub fn insert(&mut self, instruction: u32, key: RowKey, answer: CachedAnswer) {
        self.entries
            .entry((instruction, key.hash))
            .or_insert(answer);
    }

    /// Debug-build collision audit: records the full key `text` the first
    /// time `key` is seen under `instruction` and asserts every later
    /// sighting carries the same text.
    ///
    /// # Panics
    ///
    /// Panics if two different key texts share a [`RowKey::hash`].
    pub(crate) fn audit(&mut self, instruction: u32, key: RowKey, text: &str) {
        let original = self
            .audited
            .entry((instruction, key.hash))
            .or_insert_with(|| text.to_owned());
        assert_eq!(
            original, text,
            "row-key hash collision in AnswerCache (instruction {instruction})"
        );
    }

    /// Exports every live entry, sorted by `(instruction, key_hash)` so the
    /// snapshot is deterministic regardless of hash-map iteration order.
    /// The foundation of statement checkpointing
    /// ([`StatementCheckpoint`](crate::StatementCheckpoint)).
    pub fn export(&self) -> Vec<CacheSnapshotEntry> {
        let mut out: Vec<CacheSnapshotEntry> = self
            .entries
            .iter()
            .map(|(&(id, key_hash), &answer)| CacheSnapshotEntry {
                instruction: Arc::clone(&self.names[id as usize]),
                key_hash,
                answer,
            })
            .collect();
        out.sort_by(|a, b| {
            a.instruction
                .cmp(&b.instruction)
                .then(a.key_hash.cmp(&b.key_hash))
        });
        out
    }

    /// Merges a snapshot produced by [`export`](AnswerCache::export) into
    /// this cache (re-interning instruction texts, sharing the snapshot's
    /// `Arc` for a new one). Existing entries win over snapshot entries.
    pub fn absorb(&mut self, snapshot: &[CacheSnapshotEntry]) {
        self.entries.reserve(snapshot.len());
        let mut last: Option<(&Arc<str>, u32)> = None;
        for e in snapshot {
            // Snapshots are sorted by instruction: intern once per run. An
            // exported run shares one `Arc`, so its text is compared once.
            let same =
                |text: &Arc<str>| Arc::ptr_eq(text, &e.instruction) || *text == e.instruction;
            let id = match last {
                Some((text, id)) if same(text) => id,
                _ => self.intern(&e.instruction, || Arc::clone(&e.instruction)),
            };
            last = Some((&e.instruction, id));
            self.entries.entry((id, e.key_hash)).or_insert(e.answer);
        }
    }

    /// Distinct prompts currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-fragment row key standing in for the key of `text`.
    fn key(text: &str) -> RowKey {
        let mut k = RowKey::default();
        let hash = text
            .bytes()
            .fold(7u64, |h, b| h.wrapping_mul(31) + u64::from(b));
        k.push(hash);
        k
    }

    #[test]
    fn tracker_converges_to_observed_rate() {
        let mut t = SelectivityTracker::new();
        t.register(2, 0.5);
        assert_eq!(t.selectivity(2), Some(0.5));
        assert_eq!(t.observations(2), 0);
        for _ in 0..20 {
            t.observe(2, 5, 100);
        }
        let s = t.selectivity(2).unwrap();
        assert!((s - 0.05).abs() < 0.01, "{s}");
        assert_eq!(t.observations(2), 2000);
        // Unregistered ops: ignored observations, no estimate.
        t.observe(9, 1, 1);
        assert_eq!(t.selectivity(9), None);
        assert_eq!(t.observations(9), 0);
    }

    #[test]
    fn register_is_idempotent_and_keeps_observations() {
        let mut t = SelectivityTracker::new();
        t.register(1, 0.5);
        t.observe(1, 0, 100);
        let after = t.selectivity(1).unwrap();
        t.register(1, 0.9); // late duplicate must not reset the posterior
        assert_eq!(t.selectivity(1), Some(after));
    }

    #[test]
    fn batch_sizing_aims_at_remaining_over_selectivity() {
        let mut t = SelectivityTracker::new();
        t.register_pipeline(0.5);
        // No observations yet → caller falls back to doubling.
        assert_eq!(t.next_batch_size(10, 32, 1000), None);
        t.observe_pipeline(10, 100); // ~10% of scanned rows reach the result
        let sel = t.pipeline_selectivity().unwrap();
        let n = t.next_batch_size(10, 4, 1000).unwrap();
        assert_eq!(n, (10.0 / sel).ceil() as usize);
        // Clamped by the floor and by the rows actually available; a floor
        // above the available rows collapses to the available rows.
        assert_eq!(t.next_batch_size(1, 32, 1000), Some(32));
        assert_eq!(t.next_batch_size(500, 4, 64), Some(64));
        assert_eq!(t.next_batch_size(1, 32, 3), Some(3));
    }

    #[test]
    fn batch_sizing_survives_zero_emission_batches() {
        let mut t = SelectivityTracker::new();
        t.register_pipeline(0.5);
        t.observe_pipeline(0, 10_000);
        // The Beta prior keeps the mean positive; the aim is huge but
        // finite, clamped to what is available.
        assert_eq!(t.next_batch_size(5, 32, 700), Some(700));
    }

    #[test]
    fn cache_hits_and_interning() {
        let mut c = AnswerCache::new();
        let i1 = c.instruction_id("Is it good?");
        let i2 = c.instruction_id("Is it good?");
        assert_eq!(i1, i2);
        let i3 = c.instruction_id("Is it bad?");
        assert_ne!(i1, i3);

        assert_eq!(c.lookup(i1, key("\"a\": \"x\", ")), None);
        let ans = CachedAnswer {
            prompt_tokens: 40,
            output_tokens: 2,
        };
        c.insert(i1, key("\"a\": \"x\", "), ans);
        assert_eq!(c.lookup(i1, key("\"a\": \"x\", ")), Some(ans));
        // Same fields under a different instruction: distinct prompt.
        assert_eq!(c.lookup(i3, key("\"a\": \"x\", ")), None);
        assert_eq!(c.len(), 1);

        // First write wins.
        c.insert(
            i1,
            key("\"a\": \"x\", "),
            CachedAnswer {
                prompt_tokens: 999,
                output_tokens: 9,
            },
        );
        assert_eq!(
            c.lookup(i1, key("\"a\": \"x\", ")).unwrap().prompt_tokens,
            40
        );
    }

    fn ans(n: u64) -> CachedAnswer {
        CachedAnswer {
            prompt_tokens: n,
            output_tokens: 1,
        }
    }

    #[test]
    fn export_absorb_round_trips_and_is_sorted() {
        let mut c = AnswerCache::new();
        let i1 = c.instruction_id("q1");
        let i2 = c.instruction_id("q2");
        c.insert(i1, key("x"), ans(1));
        c.insert(i2, key("y"), ans(2));
        c.insert(i1, key("z"), ans(3));
        let snap = c.export();
        assert_eq!(snap.len(), 3);
        assert!(snap
            .windows(2)
            .all(|w| (&w[0].instruction, w[0].key_hash) <= (&w[1].instruction, w[1].key_hash)));

        // A fresh cache absorbing the snapshot serves the same answers,
        // even with instructions interned in a different order.
        let mut d = AnswerCache::new();
        let j2 = d.instruction_id("q2");
        d.absorb(&snap);
        let j1 = d.instruction_id("q1");
        assert_eq!(d.len(), 3);
        assert_eq!(d.lookup(j1, key("x")), Some(ans(1)));
        assert_eq!(d.lookup(j2, key("y")), Some(ans(2)));
        assert_eq!(d.lookup(j1, key("z")), Some(ans(3)));
        // Existing entries win over absorbed duplicates.
        let mut e = AnswerCache::new();
        let k1 = e.instruction_id("q1");
        e.insert(k1, key("x"), ans(9));
        e.absorb(&snap);
        assert_eq!(e.lookup(k1, key("x")), Some(ans(9)));
        assert_eq!(e.len(), 3);
    }
}
