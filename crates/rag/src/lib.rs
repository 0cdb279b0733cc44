//! # llmqo-rag — retrieval substrate for RAG queries (paper T5)
//!
//! Stand-in for the paper's `gte-base` embeddings + FAISS pipeline (§6.1.3):
//! for each question, the top-k supporting contexts are fetched from a
//! corpus by vector similarity and appended to the question as table fields.
//! Because popular contexts are retrieved for *many* questions, the
//! resulting table is rich in repeated field values — exactly the structure
//! GGR exploits (§6.2, "multiple questions might share similar contexts").
//!
//! The embedder is a deterministic feature-hashing bag-of-tokens model; the
//! index is exact cosine KNN: it scores every document over column-major
//! vectors and keeps only the top k. Neither needs to be a *good*
//! retriever — only a deterministic one that maps textually similar
//! questions to overlapping context sets, which feature hashing guarantees.
//!
//! # Example
//!
//! ```
//! use llmqo_rag::{Embedder, VectorIndex};
//!
//! let embedder = Embedder::new(64);
//! let mut index = VectorIndex::new(64);
//! index.insert(0, embedder.embed("the cat sat on the mat"));
//! index.insert(1, embedder.embed("stock markets fell sharply"));
//! let hits = index.search(&embedder.embed("a cat on a mat"), 1);
//! assert_eq!(hits[0].id, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use llmqo_tokenizer::Tokenizer;
use std::cmp::Ordering;

/// Deterministic feature-hashing text embedder.
///
/// Tokens are hashed into `dim` buckets with ±1 signs; the resulting vector
/// is L2-normalized. Identical texts embed identically, and texts sharing
/// vocabulary are close in cosine similarity.
#[derive(Debug, Clone)]
pub struct Embedder {
    dim: usize,
    tokenizer: Tokenizer,
}

impl Embedder {
    /// Creates an embedder with the given dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        Embedder {
            dim,
            tokenizer: Tokenizer::new(),
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Embeds `text` into a unit-norm vector (all-zero for empty text).
    pub fn embed(&self, text: &str) -> Vec<f32> {
        let mut v = vec![0f32; self.dim];
        for tok in self.tokenizer.tokenize(text) {
            let h = splitmix(u64::from(tok));
            let bucket = (h % self.dim as u64) as usize;
            let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            v[bucket] += sign;
        }
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        v
    }
}

/// One KNN search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The document id supplied at insertion.
    pub id: usize,
    /// Cosine similarity to the query (vectors are unit norm).
    pub score: f32,
}

/// Exact cosine KNN index — the FAISS stand-in.
///
/// Vectors are stored column-major: coordinate `j` of every document sits in
/// one contiguous column, in insertion order. A search streams each column
/// whose query coordinate is non-zero once, adding that coordinate's product
/// into every document's running score, so a query costs O(nnz(q) · N) for
/// N documents — a feature-hashed question sets about a fifth of its
/// coordinates — plus one pass over the scores that keeps the best `k` in a
/// `k`-slot buffer. Nothing sorts the corpus.
///
/// Exactness keeps retrieval deterministic across runs, which the
/// reproduction needs more than speed. Each score is the row-major dot
/// product `Σ_j a_j · q_j` summed in coordinate order from `-0.0`, as
/// [`Iterator::sum`] folds it; skipping a zero query coordinate adds nothing
/// but a `±0.0` term, so on finite vectors a score can differ from that sum
/// only in the sign of an exact zero, which no comparison sees. The ranking
/// rule is in [`VectorIndex::search`].
#[derive(Debug, Clone, Default)]
pub struct VectorIndex {
    ids: Vec<usize>,
    /// `columns[j][row]`: coordinate `j` of the `row`-th inserted vector.
    columns: Vec<Vec<f32>>,
}

impl VectorIndex {
    /// Creates an empty index for vectors of the given dimensionality.
    pub fn new(dim: usize) -> Self {
        VectorIndex {
            ids: Vec::new(),
            columns: vec![Vec::new(); dim],
        }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Inserts a vector under `id`.
    ///
    /// # Panics
    ///
    /// Panics if the vector's dimensionality is wrong.
    pub fn insert(&mut self, id: usize, vector: Vec<f32>) {
        assert_eq!(
            vector.len(),
            self.columns.len(),
            "vector dimension mismatch"
        );
        self.ids.push(id);
        for (column, x) in self.columns.iter_mut().zip(vector) {
            column.push(x);
        }
    }

    /// The `k` nearest neighbors of `query` by inner product, best first
    /// (at most [`len`](Self::len) of them).
    ///
    /// Higher scores rank first; equal scores (`+0.0` equals `-0.0`) break
    /// toward the lower id, and equal ids toward the earlier insertion. A NaN
    /// score — a NaN coordinate, or `∞ − ∞` from products that overflow —
    /// ranks after every number, NaNs among themselves by id; the search
    /// never panics on one. A query coordinate of zero contributes nothing,
    /// even against an infinite or NaN document coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the query's dimensionality is wrong.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.columns.len(), "query dimension mismatch");
        if k == 0 {
            return Vec::new();
        }
        let mut scores = vec![-0.0f32; self.ids.len()];
        for (column, &q) in self.columns.iter().zip(query) {
            if q != 0.0 {
                for (score, &x) in scores.iter_mut().zip(column) {
                    *score += x * q;
                }
            }
        }
        let mut best: Vec<Neighbor> = Vec::with_capacity(k.min(self.ids.len()));
        for (&id, &score) in self.ids.iter().zip(&scores) {
            let candidate = Neighbor { id, score };
            if best.len() == k && rank(&candidate, &best[k - 1]) != Ordering::Less {
                continue;
            }
            // After every kept neighbor that ranks with or before it: equal
            // neighbors stay in insertion order.
            let at = best.partition_point(|kept| rank(kept, &candidate) != Ordering::Greater);
            if best.len() == k {
                best.pop();
            }
            best.insert(at, candidate);
        }
        best
    }
}

/// The search order: score descending with NaN last, then id ascending.
/// `Less` means `a` ranks before `b`.
fn rank(a: &Neighbor, b: &Neighbor) -> Ordering {
    let by_score = match b.score.partial_cmp(&a.score) {
        Some(order) => order,
        None => a.score.is_nan().cmp(&b.score.is_nan()),
    };
    by_score.then(a.id.cmp(&b.id))
}

/// Retrieves the top-`k` context ids for each question over a corpus — the
/// paper's RAG table construction (questions × fetched evidence).
///
/// Returns, for each question, the ids of its retrieved contexts (exactly
/// `k` of them when the corpus is large enough).
pub fn retrieve_contexts(
    embedder: &Embedder,
    corpus: &[String],
    questions: &[String],
    k: usize,
) -> Vec<Vec<usize>> {
    let mut index = VectorIndex::new(embedder.dim());
    for (id, doc) in corpus.iter().enumerate() {
        index.insert(id, embedder.embed(doc));
    }
    questions
        .iter()
        .map(|q| {
            index
                .search(&embedder.embed(q), k)
                .into_iter()
                .map(|n| n.id)
                .collect()
        })
        .collect()
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embeddings_are_deterministic_and_unit_norm() {
        let e = Embedder::new(32);
        let a = e.embed("hello world");
        let b = e.embed("hello world");
        assert_eq!(a, b);
        let norm: f32 = a.iter().map(|x| x * x).sum();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_text_embeds_to_zero() {
        let e = Embedder::new(16);
        assert!(e.embed("").iter().all(|&x| x == 0.0));
    }

    #[test]
    fn similar_texts_are_closer_than_dissimilar() {
        let e = Embedder::new(128);
        let base = e.embed("the quick brown fox jumps over the lazy dog");
        let near = e.embed("the quick brown fox leaps over a lazy dog");
        let far = e.embed("quarterly earnings exceeded analyst expectations");
        let dot = |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
        assert!(dot(&base, &near) > dot(&base, &far));
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_panics() {
        let _ = Embedder::new(0);
    }

    #[test]
    fn knn_finds_exact_match_first() {
        let e = Embedder::new(64);
        let mut idx = VectorIndex::new(64);
        let docs = ["alpha beta gamma", "delta epsilon zeta", "eta theta iota"];
        for (i, d) in docs.iter().enumerate() {
            idx.insert(i, e.embed(d));
        }
        let hits = idx.search(&e.embed("alpha beta gamma"), 2);
        assert_eq!(hits[0].id, 0);
        assert!(hits[0].score > 0.99);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn knn_k_larger_than_corpus_is_clamped() {
        let e = Embedder::new(16);
        let mut idx = VectorIndex::new(16);
        idx.insert(5, e.embed("only doc"));
        let hits = idx.search(&e.embed("only doc"), 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 5);
    }

    #[test]
    fn knn_ties_break_by_id() {
        let mut idx = VectorIndex::new(2);
        idx.insert(9, vec![1.0, 0.0]);
        idx.insert(3, vec![1.0, 0.0]);
        let hits = idx.search(&[1.0, 0.0], 2);
        assert_eq!(hits[0].id, 3);
        assert_eq!(hits[1].id, 9);
    }

    #[test]
    fn non_finite_scores_rank_after_numbers_without_panicking() {
        // Against the query (2, -2): a NaN coordinate, and finite
        // coordinates whose products overflow to ∞ − ∞, score NaN; ±∞
        // coordinates score ±∞; the rest score finite and distinct.
        let query = [2.0, -2.0];
        for n in (50..=250).step_by(50) {
            let mut idx = VectorIndex::new(2);
            let (mut top, mut finite, mut bottom, mut nan) = (vec![], vec![], vec![], vec![]);
            for row in 0..n {
                let id = (row * 37) % n;
                let (vector, bucket) = match row % 5 {
                    0 => (vec![f32::NAN, 1.0], &mut nan),
                    1 => (vec![f32::MAX, f32::MAX], &mut nan),
                    2 => (vec![f32::INFINITY, 0.5], &mut top),
                    3 => (vec![f32::NEG_INFINITY, row as f32], &mut bottom),
                    _ => (vec![row as f32 / 7.0, 1.0], &mut finite),
                };
                idx.insert(id, vector);
                bucket.push(id);
            }
            // Finite scores rise with the row; ties within ±∞ and NaN go by id.
            finite.reverse();
            for bucket in [&mut top, &mut bottom, &mut nan] {
                bucket.sort();
            }
            let numbers = top.len() + finite.len() + bottom.len();
            let want = [top, finite, bottom, nan].concat();
            for k in [0, 1, 4, n / 2, n, n + 3] {
                let hits = idx.search(&query, k);
                let ids: Vec<usize> = hits.iter().map(|h| h.id).collect();
                assert_eq!(ids, want[..k.min(n)], "n = {n}, k = {k}");
                assert!(hits
                    .iter()
                    .enumerate()
                    .all(|(rank, h)| h.score.is_nan() == (rank >= numbers)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_insert_panics() {
        let mut idx = VectorIndex::new(4);
        idx.insert(0, vec![0.0; 3]);
    }

    #[test]
    fn retrieve_contexts_shapes() {
        let e = Embedder::new(64);
        let corpus: Vec<String> = (0..20)
            .map(|i| format!("document number {i} about topic {}", i % 4))
            .collect();
        let questions: Vec<String> = (0..5)
            .map(|i| format!("question about topic {}", i % 4))
            .collect();
        let ctx = retrieve_contexts(&e, &corpus, &questions, 4);
        assert_eq!(ctx.len(), 5);
        assert!(ctx.iter().all(|c| c.len() == 4));
        // Questions about the same topic share retrieved contexts.
        assert_eq!(ctx[0], ctx[4], "topic 0 questions retrieve identically");
    }

    #[test]
    fn popular_contexts_are_shared_across_questions() {
        let e = Embedder::new(128);
        let corpus: Vec<String> = (0..30)
            .map(|i| format!("evidence passage {i} concerning subject {}", i % 3))
            .collect();
        let questions: Vec<String> = (0..12)
            .map(|i| format!("claim concerning subject {}", i % 3))
            .collect();
        let ctx = retrieve_contexts(&e, &corpus, &questions, 4);
        let mut seen = std::collections::HashMap::new();
        for c in &ctx {
            for &id in c {
                *seen.entry(id).or_insert(0) += 1;
            }
        }
        assert!(
            seen.values().any(|&n| n >= 3),
            "some context should be retrieved by several questions"
        );
    }

    #[test]
    fn index_len_tracking() {
        let mut idx = VectorIndex::new(2);
        assert!(idx.is_empty());
        idx.insert(0, vec![1.0, 0.0]);
        assert_eq!(idx.len(), 1);
        assert!(!idx.is_empty());
    }
}
