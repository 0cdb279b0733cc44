//! Reproduces **Figure 6**: the impact of GGR reordering on answer accuracy
//! (§6.4). For every filter query (plus FEVER's RAG query, SQuAD excluded as
//! open-ended), the hand-labeled subset is answered by three simulated
//! models under the original and the GGR orderings, and 10 000 bootstrap
//! resamples give the distribution of exact-match accuracy; the table shows
//! the difference in median accuracy (GGR − original).
//!
//! Paper headline: deltas within ±5% everywhere except Llama-3-8B on FEVER,
//! which *improves* by +14.2% because GGR moves the `claim` field to the end
//! of the prompt, a position the small model prefers.

use llmqo_bench::{harness, report};
use llmqo_core::{Ggr, OriginalOrder, Reorderer};
use llmqo_datasets::{Dataset, DatasetId};
use llmqo_relational::{encode_table, project_fds, LlmQuery, QueryKind};
use llmqo_serve::{ModelProfile, SimLlm};
use llmqo_tokenizer::Tokenizer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-row correctness under one ordering, without engine simulation
/// (accuracy is independent of serving time).
fn correctness(
    ds: &Dataset,
    query: &LlmQuery,
    solver: &dyn Reorderer,
    model: &ModelProfile,
    eval_rows: usize,
) -> Vec<bool> {
    let encoded = encode_table(&Tokenizer::new(), &ds.table, query).expect("encode");
    let fds = project_fds(&ds.fds, &encoded.used_cols);
    let solution = solver.reorder(&encoded.reorder, &fds).expect("solve");
    let key_col = query
        .key_field
        .as_deref()
        .and_then(|k| query.fields.iter().position(|f| f == k));
    let truth = ds.truth_fn(query);
    let mut correct = vec![false; eval_rows];
    for rp in solution.plan.rows() {
        if rp.row >= eval_rows {
            continue;
        }
        let pos = match key_col {
            Some(k) if rp.fields.len() > 1 => {
                let p = rp.fields.iter().position(|&f| f as usize == k).unwrap();
                p as f64 / (rp.fields.len() - 1) as f64
            }
            _ => 0.5,
        };
        let t = truth(rp.row);
        let out = model.generate(t.clone(), rp.row as u64, &query.label_space, pos);
        correct[rp.row] = out == t;
    }
    correct
}

/// Median bootstrap accuracy over 10 000 resamples (paper §6.4).
fn bootstrap_median(correct: &[bool], seed: u64) -> f64 {
    let n = correct.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut accs: Vec<f64> = (0..10_000)
        .map(|_| {
            let hits = (0..n).filter(|_| correct[rng.random_range(0..n)]).count();
            hits as f64 / n as f64
        })
        .collect();
    accs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    (accs[4999] + accs[5000]) / 2.0
}

fn main() {
    // Per-dataset base accuracy of the small model (larger models add a
    // margin), in the ballpark of the paper's Fig. 6 y-axes.
    let cases: [(DatasetId, f64); 6] = [
        (DatasetId::Movies, 0.82),
        (DatasetId::Products, 0.86),
        (DatasetId::Bird, 0.75),
        (DatasetId::Pdmx, 0.70),
        (DatasetId::Beer, 0.66),
        (DatasetId::Fever, 0.62),
    ];
    let models = [
        ModelProfile::llama3_8b(),
        ModelProfile::llama3_70b(),
        ModelProfile::gpt4o(),
    ];
    let margins = [0.0, 0.08, 0.12];
    // Paper's reported median deltas per model (same dataset order).
    let paper: [[f64; 6]; 3] = [
        [3.0, -1.0, 0.0, 1.0, -6.0, 14.2],
        [4.0, 1.0, 1.0, -1.0, -3.0, 1.7],
        [-3.0, -2.0, -1.0, 4.0, -3.0, -2.4],
    ];

    for (mi, (model, margin)) in models.iter().zip(margins).enumerate() {
        let mut rows = Vec::new();
        for (ci, &(id, base)) in cases.iter().enumerate() {
            let ds = harness::load(id);
            let query = ds
                .query_of_kind(QueryKind::Filter)
                .or_else(|| ds.query_of_kind(QueryKind::Rag))
                .expect("filter or rag query");
            // FEVER has ground-truth labels for all records; other datasets
            // use a 100-row hand-labeled subset (paper §6.4).
            let eval_rows = if id == DatasetId::Fever {
                ds.table.nrows()
            } else {
                100.min(ds.table.nrows())
            };
            let profile = model.clone().with_base_accuracy((base + margin).min(0.95));
            let orig = correctness(&ds, query, &OriginalOrder, &profile, eval_rows);
            let ggr = correctness(&ds, query, &Ggr::default(), &profile, eval_rows);
            let m_orig = bootstrap_median(&orig, 42);
            let m_ggr = bootstrap_median(&ggr, 43);
            rows.push(vec![
                id.name().to_owned(),
                report::pct(m_orig),
                report::pct(m_ggr),
                format!("{:+.1}%", (m_ggr - m_orig) * 100.0),
                format!("{:+.1}%", paper[mi][ci]),
            ]);
        }
        report::section(
            &format!("Fig 6: accuracy, original vs GGR ({})", model.name),
            &["Dataset", "Original", "GGR", "Δ median", "Δ paper"],
            &rows,
        );
    }
    println!(
        "\nheadline: |Δ| stays small for large models; the small model gains \
         substantially on FEVER because GGR moves `claim` to the prompt's end."
    );
}
