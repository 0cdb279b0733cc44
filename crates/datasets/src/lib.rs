//! # llmqo-datasets — the paper's seven datasets and 16-query benchmark
//!
//! Seeded synthetic reproductions of the evaluation corpus (paper §6.1,
//! Table 1, Appendix A/B). Real datasets are unavailable here, and PHC
//! behaviour depends only on value-repetition *structure*, so each generator
//! reproduces its dataset's shape — row/field counts, token-length averages,
//! functional dependencies, join-induced duplication, retrieval-induced
//! context sharing, and the original row order's adjacency rate — calibrated
//! against the paper's published original-order and GGR hit rates (Table 2).
//!
//! ```
//! use llmqo_datasets::{Dataset, DatasetId};
//! // A scaled-down Movies dataset for quick experiments:
//! let ds = Dataset::generate_with_rows(DatasetId::Movies, 200);
//! assert_eq!(ds.table.nrows(), 200);
//! assert_eq!(ds.table.ncols(), 8);
//! assert!(ds.query("movies-filter").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod beer;
mod bird;
mod gen;
mod movies;
mod pdmx;
mod products;
mod rag_sets;

pub use gen::{clustered_assignment, TextGen, ZipfSampler};

use llmqo_core::FunctionalDeps;
use llmqo_relational::{LlmQuery, QueryKind, Table};

/// The seven benchmark datasets (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// Rotten Tomatoes movie reviews.
    Movies,
    /// Amazon product reviews.
    Products,
    /// BIRD posts ⨝ comments.
    Bird,
    /// Public Domain MusicXML.
    Pdmx,
    /// RateBeer reviews.
    Beer,
    /// Stanford Question Answering (RAG).
    Squad,
    /// Fact Extraction and Verification (RAG).
    Fever,
}

impl DatasetId {
    /// All datasets, in the paper's Table 1 order.
    pub fn all() -> [DatasetId; 7] {
        [
            DatasetId::Movies,
            DatasetId::Products,
            DatasetId::Bird,
            DatasetId::Pdmx,
            DatasetId::Beer,
            DatasetId::Squad,
            DatasetId::Fever,
        ]
    }

    /// Short stable name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetId::Movies => "Movies",
            DatasetId::Products => "Products",
            DatasetId::Bird => "BIRD",
            DatasetId::Pdmx => "PDMX",
            DatasetId::Beer => "Beer",
            DatasetId::Squad => "SQuAD",
            DatasetId::Fever => "FEVER",
        }
    }

    /// The paper-reported shape and hit rates for this dataset.
    pub fn paper(&self) -> PaperShape {
        match self {
            DatasetId::Movies => PaperShape {
                nrows: 15000,
                nfields: 8,
                input_avg: 276,
                output_avg: &[2.0, 29.0, 16.0, 2.0],
                original_phr: 0.35,
                ggr_phr: 0.86,
                solver_time_s: 3.3,
                savings: (0.31, 0.73),
                ophr_sample: (50, 0.806, 0.806),
                llama1b: Some((1.3, 0.2932, 0.8210)),
                accuracy_delta: Some([3.0, 4.0, -3.0]),
            },
            DatasetId::Products => PaperShape {
                nrows: 14890,
                nfields: 8,
                input_avg: 377,
                output_avg: &[3.0, 107.0, 62.0, 2.0],
                original_phr: 0.27,
                ggr_phr: 0.83,
                solver_time_s: 4.5,
                savings: (0.33, 0.73),
                ophr_sample: (25, 0.197, 0.185),
                llama1b: Some((1.4, 0.2406, 0.8210)),
                accuracy_delta: Some([-1.0, 1.0, -2.0]),
            },
            DatasetId::Bird => PaperShape {
                nrows: 14920,
                nfields: 4,
                input_avg: 765,
                output_avg: &[2.0, 43.0],
                original_phr: 0.10,
                ggr_phr: 0.85,
                solver_time_s: 1.2,
                savings: (0.39, 0.79),
                ophr_sample: (50, 0.775, 0.762),
                llama1b: Some((1.5, 0.1041, 0.8399)),
                accuracy_delta: Some([0.0, 1.0, -1.0]),
            },
            DatasetId::Pdmx => PaperShape {
                nrows: 10000,
                nfields: 57,
                input_avg: 738,
                output_avg: &[2.0, 72.0],
                original_phr: 0.12,
                ggr_phr: 0.57,
                solver_time_s: 12.6,
                savings: (0.24, 0.48),
                ophr_sample: (25, 0.294, 0.286),
                llama1b: Some((1.3, 0.1197, 0.5600)),
                accuracy_delta: Some([1.0, -1.0, 4.0]),
            },
            DatasetId::Beer => PaperShape {
                nrows: 28479,
                nfields: 8,
                input_avg: 156,
                output_avg: &[2.0, 38.0],
                original_phr: 0.50,
                ggr_phr: 0.80,
                solver_time_s: 8.0,
                savings: (0.20, 0.55),
                ophr_sample: (10, 0.257, 0.256),
                llama1b: Some((1.2, 0.4798, 0.7393)),
                accuracy_delta: Some([-6.0, -3.0, -3.0]),
            },
            DatasetId::Squad => PaperShape {
                nrows: 22665,
                nfields: 5,
                input_avg: 1047,
                output_avg: &[11.0],
                original_phr: 0.11,
                ggr_phr: 0.70,
                solver_time_s: 4.5,
                savings: (0.31, 0.63),
                ophr_sample: (10, 0.340, 0.340),
                llama1b: None,
                accuracy_delta: None,
            },
            DatasetId::Fever => PaperShape {
                nrows: 19929,
                nfields: 5,
                input_avg: 1302,
                output_avg: &[3.0],
                original_phr: 0.11,
                ggr_phr: 0.67,
                solver_time_s: 5.6,
                savings: (0.30, 0.60),
                ophr_sample: (50, 0.073, 0.069),
                llama1b: None,
                accuracy_delta: Some([14.2, 1.7, -2.4]),
            },
        }
    }
}

/// Paper-reported numbers for one dataset (Tables 1, 2 and 4–7, Fig. 6) — the targets
/// every reproduction harness prints next to its measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperShape {
    /// Rows (Table 1).
    pub nrows: usize,
    /// Fields (Table 1).
    pub nfields: usize,
    /// Average input tokens (Table 1).
    pub input_avg: u64,
    /// Average output tokens per applicable query type (Table 1).
    pub output_avg: &'static [f64],
    /// Original-order prefix hit rate (Table 2).
    pub original_phr: f64,
    /// GGR prefix hit rate (Table 2).
    pub ggr_phr: f64,
    /// GGR solver time in seconds (Table 5).
    pub solver_time_s: f64,
    /// Estimated savings under OpenAI and Anthropic pricing (Table 4).
    pub savings: (f64, f64),
    /// Rows of the largest prefix the optimal solver finished on, with the
    /// OPHR and GGR prefix hit rates there (Table 6, Appendix D.1).
    pub ophr_sample: (usize, f64, f64),
    /// Llama-3.2-1B runtime ratio (original over GGR) with the original and
    /// GGR prefix hit rates (Table 7, Appendix D.2); `None` for the RAG
    /// datasets.
    pub llama1b: Option<(f64, f64, f64)>,
    /// Median accuracy change under GGR, in percentage points (GGR minus
    /// original), for Llama-3-8B, Llama-3-70B and GPT-4o (Fig. 6); `None`
    /// for SQuAD, whose open-ended answers the figure leaves out.
    pub accuracy_delta: Option<[f64; 3]>,
}

/// One generated dataset: table, declared functional dependencies
/// (Appendix B) and its query suite (Appendix A).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Which dataset this is.
    pub id: DatasetId,
    /// The data.
    pub table: Table,
    /// Functional dependencies over the full schema.
    pub fds: FunctionalDeps,
    /// The dataset's queries (T1–T5 as applicable).
    pub queries: Vec<LlmQuery>,
}

impl Dataset {
    /// Generates the dataset at the paper's full size.
    pub fn generate(id: DatasetId) -> Dataset {
        Self::generate_with_rows(id, id.paper().nrows)
    }

    /// Generates a scaled version with `nrows` rows (entity pools scale
    /// proportionally, preserving duplication structure).
    pub fn generate_with_rows(id: DatasetId, nrows: usize) -> Dataset {
        let (table, fds, queries) = match id {
            DatasetId::Movies => movies::generate(nrows),
            DatasetId::Products => products::generate(nrows),
            DatasetId::Bird => bird::generate(nrows),
            DatasetId::Pdmx => pdmx::generate(nrows),
            DatasetId::Beer => beer::generate(nrows),
            DatasetId::Squad => rag_sets::generate_squad(nrows),
            DatasetId::Fever => rag_sets::generate_fever(nrows),
        };
        Dataset {
            id,
            table,
            fds,
            queries,
        }
    }

    /// Looks up a query by name (e.g. `"movies-filter"`).
    pub fn query(&self, name: &str) -> Option<&LlmQuery> {
        self.queries.iter().find(|q| q.name == name)
    }

    /// The first query of the given kind, if any.
    pub fn query_of_kind(&self, kind: QueryKind) -> Option<&LlmQuery> {
        self.queries.iter().find(|q| q.kind == kind)
    }

    /// The multi-invocation (T3) stages, if this dataset has them.
    pub fn multi_stages(&self) -> Option<(&LlmQuery, &LlmQuery)> {
        let s1 = self.queries.iter().find(|q| q.name.ends_with("multi-1"))?;
        let s2 = self.queries.iter().find(|q| q.name.ends_with("multi-2"))?;
        Some((s1, s2))
    }

    /// Deterministic ground truth for `query` per row: uniformly distributed
    /// over the query's label space (free-text queries get a synthetic
    /// summary). Stable across runs and orderings, which is what lets the
    /// accuracy study attribute differences to reordering alone.
    pub fn truth_fn<'a>(&self, query: &'a LlmQuery) -> Box<dyn Fn(usize) -> String + 'a> {
        let seed = truth_seed(self.id.name(), &query.name);
        if query.label_space.is_empty() {
            Box::new(move |row| format!("A concise synthesized answer for record {row}."))
        } else {
            let labels = query.label_space.clone();
            Box::new(move |row| {
                let idx = (mix(seed, row as u64) % labels.len() as u64) as usize;
                labels[idx].clone()
            })
        }
    }
}

fn truth_seed(dataset: &str, query: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in dataset.bytes().chain("/".bytes()).chain(query.bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn mix(seed: u64, row: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(row.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmqo_relational::encode_table;
    use llmqo_tokenizer::Tokenizer;

    #[test]
    fn all_datasets_generate_scaled() {
        for id in DatasetId::all() {
            let ds = Dataset::generate_with_rows(id, 120);
            assert_eq!(ds.table.nrows(), 120, "{}", id.name());
            assert_eq!(ds.table.ncols(), id.paper().nfields, "{}", id.name());
            assert!(!ds.queries.is_empty(), "{}", id.name());
            assert_eq!(ds.fds.ncols(), ds.table.ncols(), "{}", id.name());
        }
    }

    #[test]
    fn query_counts_match_the_16_query_suite() {
        // 5 T1 + 5 T2 + 2 T3 (two stages each) + 2 T4 + 2 T5 = 16 queries,
        // stored as 18 LlmQuery values because T3 has two stages.
        let mut filters = 0;
        let mut projections = 0;
        let mut multis = 0;
        let mut aggs = 0;
        let mut rags = 0;
        for id in DatasetId::all() {
            let ds = Dataset::generate_with_rows(id, 30);
            for q in &ds.queries {
                if q.name.contains("multi") {
                    multis += 1;
                } else {
                    match q.kind {
                        QueryKind::Filter => filters += 1,
                        QueryKind::Projection => projections += 1,
                        QueryKind::Aggregation => aggs += 1,
                        QueryKind::Rag => rags += 1,
                    }
                }
            }
        }
        assert_eq!(filters, 5);
        assert_eq!(projections, 5);
        assert_eq!(multis, 4, "two T3 queries, two stages each");
        assert_eq!(aggs, 2);
        assert_eq!(rags, 2);
    }

    #[test]
    fn declared_fds_hold_exactly_in_the_data() {
        for id in DatasetId::all() {
            let ds = Dataset::generate_with_rows(id, 200);
            let filter = ds
                .query_of_kind(QueryKind::Filter)
                .or_else(|| ds.query_of_kind(QueryKind::Rag))
                .unwrap();
            let encoded = encode_table(&Tokenizer::new(), &ds.table, filter).unwrap();
            for group in ds.fds.groups() {
                for pair in group.windows(2) {
                    let (a, b) = (pair[0] as usize, pair[1] as usize);
                    let mut fwd = std::collections::HashMap::new();
                    let mut bwd = std::collections::HashMap::new();
                    for r in 0..encoded.reorder.nrows() {
                        let va = encoded.reorder.cell(r, a).value;
                        let vb = encoded.reorder.cell(r, b).value;
                        assert_eq!(
                            *fwd.entry(va).or_insert(vb),
                            vb,
                            "{}: FD {a}→{b} violated",
                            id.name()
                        );
                        assert_eq!(
                            *bwd.entry(vb).or_insert(va),
                            va,
                            "{}: FD {b}→{a} violated",
                            id.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate_with_rows(DatasetId::Beer, 64);
        let b = Dataset::generate_with_rows(DatasetId::Beer, 64);
        assert_eq!(a.table, b.table);
    }

    #[test]
    fn truth_is_deterministic_and_in_label_space() {
        let ds = Dataset::generate_with_rows(DatasetId::Movies, 50);
        let q = ds.query("movies-filter").unwrap();
        let truth = ds.truth_fn(q);
        for row in 0..50 {
            let t = truth(row);
            assert!(q.label_space.contains(&t));
            assert_eq!(t, truth(row));
        }
    }

    #[test]
    fn truth_distribution_is_roughly_uniform() {
        let ds = Dataset::generate_with_rows(DatasetId::Movies, 10);
        let q = ds.query("movies-agg").unwrap();
        let truth = ds.truth_fn(q);
        let mut counts = std::collections::HashMap::new();
        for row in 0..5000 {
            *counts.entry(truth(row)).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 5);
        for (label, &n) in &counts {
            assert!(
                (800..1200).contains(&n),
                "label {label} count {n} not ≈ 1000"
            );
        }
    }

    #[test]
    fn free_text_truth_mentions_the_row() {
        let ds = Dataset::generate_with_rows(DatasetId::Squad, 10);
        let q = ds.query("squad-rag").unwrap();
        let truth = ds.truth_fn(q);
        assert!(truth(7).contains('7'));
    }

    #[test]
    fn multi_stage_lookup() {
        let movies = Dataset::generate_with_rows(DatasetId::Movies, 20);
        let (s1, s2) = movies.multi_stages().unwrap();
        assert_eq!(s1.kind, QueryKind::Filter);
        assert_eq!(s2.kind, QueryKind::Projection);
        let bird = Dataset::generate_with_rows(DatasetId::Bird, 20);
        assert!(bird.multi_stages().is_none());
    }

    #[test]
    fn rag_rows_have_retrieved_contexts() {
        let ds = Dataset::generate_with_rows(DatasetId::Fever, 60);
        for r in 0..ds.table.nrows() {
            for c in 1..ds.table.ncols() {
                let v = ds.table.value(r, c).to_string();
                assert!(!v.is_empty(), "row {r} context {c} empty");
            }
        }
    }

    #[test]
    fn rag_contexts_are_shared_across_rows() {
        let ds = Dataset::generate_with_rows(DatasetId::Squad, 200);
        let mut seen: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
        for r in 0..ds.table.nrows() {
            for c in 1..ds.table.ncols() {
                *seen.entry(ds.table.value(r, c).to_string()).or_insert(0) += 1;
            }
        }
        let max_reuse = seen.values().copied().max().unwrap();
        assert!(
            max_reuse >= 10,
            "popular contexts should recur heavily, max {max_reuse}"
        );
    }

    #[test]
    fn paper_shapes_are_consistent() {
        for id in DatasetId::all() {
            let p = id.paper();
            assert!(p.ggr_phr > p.original_phr, "{}", id.name());
            assert!(p.nrows >= 10_000);
            assert!(!p.output_avg.is_empty());
        }
    }
}
