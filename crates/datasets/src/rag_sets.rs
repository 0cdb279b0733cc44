//! SQuAD and FEVER RAG tables (paper: 22 665 × 5 @ 1 047 tokens and
//! 19 929 × 5 @ 1 302 tokens; T5 queries).
//!
//! Construction follows the paper's pipeline (§6.2 "RAG"): contexts are
//! embedded into a vector index, and for every question the top-k contexts
//! are fetched and placed in the row as fields `context1..k` in similarity
//! order. Questions cluster around topics with Zipf popularity, so popular
//! contexts are retrieved by many questions — but in *different field
//! positions* per row, which is precisely the per-row field reordering
//! opportunity GGR exploits (the paper's 56–59% hit-rate improvements).
//!
//! Topicality is modeled with per-topic vocabularies so the feature-hash
//! embedder retrieves same-topic contexts reliably.
//!
//! Note: the paper's Table 1 lists five fields for SQuAD while its Appendix
//! B lists `question, context1..5` (six); we follow Table 1 (question + 4
//! contexts) and record the discrepancy here.

use crate::gen::ZipfSampler;
use llmqo_core::FunctionalDeps;
use llmqo_rag::{retrieve_contexts, Embedder};
use llmqo_relational::{LlmQuery, Schema, Table};
use llmqo_tokenizer::Tokenizer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt::Write;

/// Shape parameters for one RAG dataset.
struct RagShape {
    seed: u64,
    questions_per_topic: usize,
    contexts_per_topic: usize,
    k: usize,
    context_tokens: usize,
    question_tokens: usize,
}

/// Builds topical text: `frac_topic` of words from the topic vocabulary,
/// the rest global filler, until `target_tokens` is reached.
struct TopicText {
    tokenizer: Tokenizer,
    cache: HashMap<String, usize>,
}

impl TopicText {
    fn new() -> Self {
        TopicText {
            tokenizer: Tokenizer::new(),
            cache: HashMap::new(),
        }
    }

    fn word_tokens(&mut self, word: &str) -> usize {
        if let Some(&n) = self.cache.get(word) {
            return n;
        }
        let n = self.tokenizer.count(&format!(" {word}"));
        self.cache.insert(word.to_owned(), n);
        n
    }

    fn text(
        &mut self,
        rng: &mut StdRng,
        topic_vocab: &[String],
        frac_topic: f64,
        target_tokens: usize,
    ) -> String {
        let mut out = String::new();
        let mut filler = String::new();
        let mut tokens = 0usize;
        while tokens < target_tokens {
            let word = if rng.random_bool(frac_topic) {
                &topic_vocab[rng.random_range(0..topic_vocab.len())]
            } else {
                filler.clear();
                write!(filler, "w{}", rng.random_range(0..400u32)).expect("writing to a String");
                &filler
            };
            if !out.is_empty() {
                out.push(' ');
            }
            tokens += self.word_tokens(word);
            out.push_str(word);
        }
        out
    }
}

fn generate_rag(nrows: usize, shape: &RagShape, question_field: &str) -> Table {
    let mut rng = StdRng::seed_from_u64(shape.seed);
    let mut tt = TopicText::new();
    let ntopics = (nrows / shape.questions_per_topic).max(1);

    // Per-topic vocabularies of distinctive words.
    let vocabs: Vec<Vec<String>> = (0..ntopics)
        .map(|t| (0..12).map(|w| format!("t{t}x{w}")).collect())
        .collect();

    // Corpus: `contexts_per_topic` contexts per topic.
    let mut corpus = Vec::with_capacity(ntopics * shape.contexts_per_topic);
    for vocab in &vocabs {
        for _ in 0..shape.contexts_per_topic {
            corpus.push(tt.text(&mut rng, vocab, 0.75, shape.context_tokens));
        }
    }

    // Questions: Zipf-popular topics.
    let zipf = ZipfSampler::new(ntopics, 1.05);
    let questions: Vec<String> = (0..nrows)
        .map(|_| {
            let t = zipf.sample(&mut rng);
            tt.text(&mut rng, &vocabs[t], 0.75, shape.question_tokens)
        })
        .collect();

    // Retrieval through the vector index (the FAISS stand-in).
    let embedder = Embedder::new(96);
    let retrieved = retrieve_contexts(&embedder, &corpus, &questions, shape.k);

    let mut fields = vec![question_field.to_string()];
    for i in 1..=shape.k {
        fields.push(format!("context{i}"));
    }
    let field_refs: Vec<&str> = fields.iter().map(String::as_str).collect();
    let mut table = Table::new(Schema::of_strings(&field_refs));
    for (q, ctx) in questions.iter().zip(&retrieved) {
        let mut row = vec![q.clone().into()];
        for i in 0..shape.k {
            let text = ctx.get(i).map(|&id| corpus[id].clone()).unwrap_or_default();
            row.push(text.into());
        }
        table.push_row(row).expect("rag schema arity");
    }
    table
}

/// SQuAD: question + 4 retrieved contexts, free-text answers (11 tokens).
pub(crate) fn generate_squad(nrows: usize) -> (Table, FunctionalDeps, Vec<LlmQuery>) {
    let shape = RagShape {
        seed: 0x5351_5541,
        questions_per_topic: 30,
        contexts_per_topic: 5,
        k: 4,
        context_tokens: 228,
        question_tokens: 22,
    };
    let table = generate_rag(nrows, &shape, "question");
    let fds = FunctionalDeps::empty(table.ncols());
    let fields: Vec<String> = table
        .schema()
        .names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let queries = vec![LlmQuery::rag(
        "squad-rag",
        "Given a question and supporting contexts, answer the provided question.",
        fields,
        Vec::new(),
        11.0,
    )
    .with_key_field("question")];
    (table, fds, queries)
}

/// FEVER: claim + 4 retrieved evidence passages, 3-way verdicts (3 tokens).
pub(crate) fn generate_fever(nrows: usize) -> (Table, FunctionalDeps, Vec<LlmQuery>) {
    let shape = RagShape {
        seed: 0x4645_5645,
        questions_per_topic: 30,
        contexts_per_topic: 5,
        k: 4,
        context_tokens: 282,
        question_tokens: 28,
    };
    let table = generate_rag(nrows, &shape, "claim");
    let fds = FunctionalDeps::empty(table.ncols());
    let mut fields: Vec<String> = Vec::new();
    // The paper's FEVER prompt names the evidence before the claim.
    for i in 1..=shape.k {
        fields.push(format!("context{i}"));
    }
    fields.insert(0, "claim".to_string());
    let queries = vec![LlmQuery::rag(
        "fever-rag",
        "You are given 4 pieces of evidence as {evidence1}, {evidence2}, {evidence3}, and \
         {evidence4}. You are also given a claim as {claim}. Answer SUPPORTS if the pieces \
         of evidence support the given {claim}, REFUTES if the evidence refutes the given \
         {claim}, or NOT ENOUGH INFO if there is not enough information to answer. Your \
         answer should just be SUPPORTS, REFUTES, or NOT ENOUGH INFO and nothing else.",
        fields,
        vec![
            "SUPPORTS".to_string(),
            "REFUTES".to_string(),
            "NOT ENOUGH INFO".to_string(),
        ],
        3.0,
    )
    .with_key_field("claim")];
    (table, fds, queries)
}
