//! Frozen pre-optimization vector index — the retrieval oracle.
//!
//! [`VectorIndexReference`] is `llmqo-rag`'s `VectorIndex` exactly as it
//! stood before search kept only `k`: vectors stored row-major, every
//! document scored by a row-major dot product, then the whole corpus
//! stable-sorted and truncated to `k`. It is retained verbatim (with
//! [`reference_retrieve_contexts`], the table-construction loop over it) so
//! that `tests/rag_differential.rs` can assert the column-major top-k index
//! returns the same neighbours, in the same order, with equal scores. A test
//! fixture over `llmqo-rag`'s public API; it ships in no release build.
//!
//! Its comparator is not a total order when a score is NaN, and the sort may
//! panic on one; the suite feeds it finite corpora only.
//!
//! Do not "fix" or optimize this module; its value is being frozen.

use llmqo::rag::{Embedder, Neighbor};

/// Exact (brute-force) cosine KNN index — the FAISS stand-in.
///
/// Exactness keeps retrieval deterministic across runs, which the
/// reproduction needs more than speed; corpora here are ≤ tens of thousands
/// of contexts.
#[derive(Debug, Clone, Default)]
pub struct VectorIndexReference {
    dim: usize,
    ids: Vec<usize>,
    vectors: Vec<f32>,
}

impl VectorIndexReference {
    /// Creates an empty index for vectors of the given dimensionality.
    pub fn new(dim: usize) -> Self {
        VectorIndexReference {
            dim,
            ids: Vec::new(),
            vectors: Vec::new(),
        }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Inserts a vector under `id`.
    ///
    /// # Panics
    ///
    /// Panics if the vector's dimensionality is wrong.
    pub fn insert(&mut self, id: usize, vector: Vec<f32>) {
        assert_eq!(vector.len(), self.dim, "vector dimension mismatch");
        self.ids.push(id);
        self.vectors.extend(vector);
    }

    /// The `k` nearest neighbors of `query` by inner product, best first.
    /// Ties break toward the lower id for determinism.
    ///
    /// # Panics
    ///
    /// Panics if the query's dimensionality is wrong.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let mut scored: Vec<Neighbor> = self
            .ids
            .iter()
            .enumerate()
            .map(|(row, &id)| {
                let base = row * self.dim;
                let score = self.vectors[base..base + self.dim]
                    .iter()
                    .zip(query)
                    .map(|(a, b)| a * b)
                    .sum();
                Neighbor { id, score }
            })
            .collect();
        scored.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        scored.truncate(k);
        scored
    }
}

/// Retrieves the top-`k` context ids for each question over a corpus — the
/// paper's RAG table construction (questions × fetched evidence).
///
/// Returns, for each question, the ids of its retrieved contexts (exactly
/// `k` of them when the corpus is large enough).
pub fn reference_retrieve_contexts(
    embedder: &Embedder,
    corpus: &[String],
    questions: &[String],
    k: usize,
) -> Vec<Vec<usize>> {
    let mut index = VectorIndexReference::new(embedder.dim());
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
