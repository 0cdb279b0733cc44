//! Differential tests for the top-k vector index.
//!
//! [`VectorIndex`] scores a query over column-major vectors and keeps the
//! best `k` in a `k`-slot buffer; the frozen [`VectorIndexReference`]
//! (`tests/oracles/rag.rs`, compiled into this suite only) scores row-major
//! and stable-sorts the whole corpus. On finite inputs the two must return
//! the same neighbours in the same order with `==` scores (`+0.0 == -0.0`:
//! skipping a zero query coordinate may flip the sign of an exact zero),
//! and `retrieve_contexts` must return identical id lists — over random
//! corpora, over the SQuAD and FEVER corpora the datasets generate, and over
//! the `rag_pipeline` example's corpus. A divergence means the index changed
//! *behaviour*, not just speed, and every RAG table with it.

/// The frozen transcription, compiled into this suite only.
mod oracles {
    pub mod rag;
}

use llmqo::datasets::{Dataset, DatasetId, ZipfSampler};
use llmqo::rag::{retrieve_contexts, Embedder, VectorIndex};
use llmqo::tokenizer::Tokenizer;
use oracles::rag::{reference_retrieve_contexts, VectorIndexReference};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A finite coordinate: `±0.0` half the time (sparse vectors, zero vectors
/// and exact ties), otherwise a small integer or a fraction of one.
fn coordinate() -> impl Strategy<Value = f32> {
    (0u8..8, -40i32..=40).prop_map(|(kind, n)| match kind {
        0..=1 => 0.0,
        2..=3 => -0.0,
        4..=5 => n as f32,
        _ => n as f32 / 7.0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random finite corpora: dimension 0 to 6; rows drawn from a small pool
    /// of vectors, so duplicates tie exactly; pool entries 0 and 1 are the
    /// `+0.0` and `-0.0` zero vectors; ids from a range smaller than the row
    /// count, so ids repeat. Every `k` from 0 to past the corpus, for a
    /// random query, both zero queries and every pool vector as the query.
    #[test]
    fn random_corpora_search_like_the_oracle(
        (dim, pool, rows, query) in (0usize..=6).prop_flat_map(|dim| (
            Just(dim),
            prop::collection::vec(prop::collection::vec(coordinate(), dim), 1..=6),
            prop::collection::vec((0usize..8, 0usize..12), 0..=40),
            prop::collection::vec(coordinate(), dim),
        )),
    ) {
        let mut pool = pool;
        pool.splice(0..0, [vec![0.0; dim], vec![-0.0; dim]]);
        let mut index = VectorIndex::new(dim);
        let mut oracle = VectorIndexReference::new(dim);
        for &(pick, id) in &rows {
            let vector = pool[pick % pool.len()].clone();
            index.insert(id, vector.clone());
            oracle.insert(id, vector);
        }
        prop_assert_eq!(index.len(), oracle.len());
        let n = rows.len();
        for q in std::iter::once(&query).chain(&pool) {
            for k in [0, 1, 2, 4, n, n + 1, n + 7] {
                let (got, want) = (index.search(q, k), oracle.search(q, k));
                prop_assert!(got == want, "k = {k}, query {q:?}: {got:?} vs {want:?}");
            }
        }
    }
}

const QUESTIONS_PER_TOPIC: usize = 30;
const CONTEXTS_PER_TOPIC: usize = 5;
const K: usize = 4;

/// The seed and text lengths `llmqo-datasets` builds a RAG table from.
struct RagShape {
    seed: u64,
    context_tokens: usize,
    question_tokens: usize,
}

/// Topical text as the generator writes it, RNG draw for RNG draw.
fn topic_text(rng: &mut StdRng, tok: &Tokenizer, vocab: &[String], target_tokens: usize) -> String {
    let mut out = String::new();
    let mut tokens = 0;
    while tokens < target_tokens {
        let word = if rng.random_bool(0.75) {
            vocab[rng.random_range(0..vocab.len())].clone()
        } else {
            format!("w{}", rng.random_range(0..400u32))
        };
        if !out.is_empty() {
            out.push(' ');
        }
        tokens += tok.count(&format!(" {word}"));
        out.push_str(&word);
    }
    out
}

/// The corpus and questions the dataset generator retrieves over at `nrows`.
fn rag_inputs(shape: &RagShape, nrows: usize) -> (Vec<String>, Vec<String>) {
    let tok = Tokenizer::new();
    let mut rng = StdRng::seed_from_u64(shape.seed);
    let ntopics = (nrows / QUESTIONS_PER_TOPIC).max(1);
    let vocabs: Vec<Vec<String>> = (0..ntopics)
        .map(|t| (0..12).map(|w| format!("t{t}x{w}")).collect())
        .collect();
    let mut corpus = Vec::new();
    for vocab in &vocabs {
        for _ in 0..CONTEXTS_PER_TOPIC {
            corpus.push(topic_text(&mut rng, &tok, vocab, shape.context_tokens));
        }
    }
    let zipf = ZipfSampler::new(ntopics, 1.05);
    let questions = (0..nrows)
        .map(|_| {
            let t = zipf.sample(&mut rng);
            topic_text(&mut rng, &tok, &vocabs[t], shape.question_tokens)
        })
        .collect();
    (corpus, questions)
}

/// `id` at 60, 600 and 2 400 rows (the benchmark's size): the index
/// retrieves the oracle's id lists, and the generated table holds each
/// question with the oracle's contexts in order — so the dataset built on the
/// index is the one the sort-based index built.
fn retrieves_like_the_oracle(id: DatasetId, shape: RagShape) {
    let embedder = Embedder::new(96);
    for nrows in [60, 600, 2400] {
        let (corpus, questions) = rag_inputs(&shape, nrows);
        let got = retrieve_contexts(&embedder, &corpus, &questions, K);
        let want = reference_retrieve_contexts(&embedder, &corpus, &questions, K);
        assert_eq!(got, want, "{id:?} at {nrows} rows");

        let table = Dataset::generate_with_rows(id, nrows).table;
        assert_eq!(table.nrows(), nrows);
        for (row, (question, ids)) in questions.iter().zip(&want).enumerate() {
            assert_eq!(table.value(row, 0).as_str(), Some(question.as_str()));
            for (slot, &ctx) in ids.iter().enumerate() {
                assert_eq!(
                    table.value(row, 1 + slot).as_str(),
                    Some(corpus[ctx].as_str()),
                    "{id:?} at {nrows} rows: row {row}, context{}",
                    slot + 1
                );
            }
        }
    }
}

#[test]
fn squad_retrieves_like_the_oracle() {
    let shape = RagShape {
        seed: 0x5351_5541,
        context_tokens: 228,
        question_tokens: 22,
    };
    retrieves_like_the_oracle(DatasetId::Squad, shape);
}

#[test]
fn fever_retrieves_like_the_oracle() {
    let shape = RagShape {
        seed: 0x4645_5645,
        context_tokens: 282,
        question_tokens: 28,
    };
    retrieves_like_the_oracle(DatasetId::Fever, shape);
}

/// The `rag_pipeline` example's evidence corpus and claims.
#[test]
fn rag_pipeline_corpus_retrieves_like_the_oracle() {
    let mut corpus = Vec::new();
    for topic in 0..8 {
        for p in 0..5 {
            corpus.push(format!(
                "evidence passage {p} about subject{topic}: {}",
                format!("subject{topic} facts and figures and context ").repeat(12)
            ));
        }
    }
    let claims: Vec<String> = (0..160)
        .map(|i| {
            let topic = (i * i) % 8;
            format!("claim {i}: subject{topic} set a record last year")
        })
        .collect();
    let embedder = Embedder::new(96);
    assert_eq!(
        retrieve_contexts(&embedder, &corpus, &claims, 4),
        reference_retrieve_contexts(&embedder, &corpus, &claims, 4)
    );
}
