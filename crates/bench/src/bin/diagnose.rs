//! Calibration diagnostics (not a paper artifact): per-dataset column
//! statistics and solver comparison, used to tune the synthetic generators
//! against Table 2 and to sanity-check GGR against its ceiling.

use llmqo_bench::{harness, report};
use llmqo_core::{
    phc_of_plan, FallbackOrdering, Ggr, GgrConfig, OriginalOrder, Reorderer, SortedFixed,
    StatFixed, TableStats,
};
use llmqo_datasets::DatasetId;
use llmqo_relational::{encode_table, project_fds, QueryKind};
use llmqo_tokenizer::Tokenizer;

fn main() {
    let ids: Vec<DatasetId> = match std::env::args().nth(1).as_deref() {
        Some(name) => DatasetId::all()
            .into_iter()
            .filter(|d| d.name().eq_ignore_ascii_case(name))
            .collect(),
        None => DatasetId::all().to_vec(),
    };
    let tok = Tokenizer::new();
    for id in ids {
        let ds = harness::load(id);
        let query = ds
            .query_of_kind(QueryKind::Filter)
            .or_else(|| ds.query_of_kind(QueryKind::Rag))
            .unwrap();
        let encoded = encode_table(&tok, &ds.table, query).unwrap();
        let fds = project_fds(&ds.fds, &encoded.used_cols);
        let stats = TableStats::compute(&encoded.reorder);
        let n = encoded.reorder.nrows();

        let mut col_rows = Vec::new();
        for (c, s) in stats.columns().iter().enumerate() {
            col_rows.push(vec![
                encoded.reorder.column_names()[c].clone(),
                format!("{}", s.cardinality),
                format!("{:.1}", s.avg_len),
                format!("{:.0}", s.total_len as f64 / n as f64),
                format!("{:.2e}", s.hitcount_score(n)),
            ]);
        }
        report::section(
            &format!(
                "{} columns (n={}, instr={} tok, fields={:.0} tok/row)",
                id.name(),
                n,
                encoded.instruction.len(),
                encoded.reorder.total_tokens() as f64 / n as f64
            ),
            &["column", "card", "avg_len", "tok/row", "score"],
            &col_rows,
        );

        let solvers: Vec<(&str, Box<dyn Reorderer>)> = vec![
            ("original", Box::new(OriginalOrder)),
            ("sorted-fixed", Box::new(SortedFixed)),
            ("stat-fixed", Box::new(StatFixed)),
            ("ggr(paper)", Box::new(Ggr::default())),
            (
                "ggr(deep)",
                Box::new(Ggr::new(GgrConfig {
                    max_row_depth: Some(64),
                    max_col_depth: Some(8),
                    use_fds: true,
                    fallback: FallbackOrdering::StatFixed,
                })),
            ),
            (
                "ggr(nofd)",
                Box::new(Ggr::new(GgrConfig {
                    use_fds: false,
                    ..GgrConfig::paper()
                })),
            ),
        ];
        let mut rows = Vec::new();
        for (name, solver) in solvers {
            let start = std::time::Instant::now();
            let s = solver.reorder(&encoded.reorder, &fds).unwrap();
            let elapsed = start.elapsed().as_secs_f64();
            let r = phc_of_plan(&encoded.reorder, &s.plan);
            // Engine-equivalent rate including instruction prefix per row.
            let instr = (encoded.instruction.len() * n) as u64;
            let engine_like = (r.hit_tokens + instr - encoded.instruction.len() as u64) as f64
                / (r.total_tokens + instr) as f64;
            rows.push(vec![
                name.to_owned(),
                report::pct(r.hit_rate()),
                report::pct(engine_like),
                format!("{:.2e}", r.phc as f64),
                report::secs(elapsed),
            ]);
        }
        report::section(
            &format!("{} solvers", id.name()),
            &["solver", "field hit", "≈engine hit", "PHC", "solve"],
            &rows,
        );
    }
}
