//! Quickstart: reorder a small reviews⨝products table and watch the prefix
//! hit rate and simulated job time improve.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use llmqo::core::{phc_of_plan, FunctionalDeps, Ggr, OriginalOrder, Reorderer};
use llmqo::relational::{LlmQuery, QueryExecutor, Schema, Table};
use llmqo::serve::{
    Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, OracleLlm, SimEngine,
};
use llmqo::tokenizer::Tokenizer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A relational table: 200 reviews joined with 20 products.
    let mut table = Table::new(Schema::of_strings(&["review", "product", "rating"]));
    for i in 0..200 {
        table.push_row(vec![
            format!(
                "review number {i}: the anvil arrived {} days late but works",
                i % 7
            )
            .into(),
            format!(
                "Acme Anvil model {} — drop-forged steel, 10kg, lifetime warranty, \
                 suitable for blacksmithing and cartoon physics experiments",
                i % 20
            )
            .into(),
            ((i % 5) + 1).to_string().into(),
        ])?;
    }

    // 2. An LLM filter query over all three fields (paper T1).
    let query = LlmQuery::filter(
        "quickstart-filter",
        "Does the review express satisfaction? Answer ONLY 'Yes' or 'No'.",
        vec!["review".into(), "product".into(), "rating".into()],
        vec!["Yes".into(), "No".into()],
        "Yes",
        2.0,
    );

    // 3. A simulated Llama-3-8B serving stack on one L4 GPU.
    let engine = SimEngine::new(
        Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
        EngineConfig::default(),
    );
    let executor = QueryExecutor::new(&engine, &OracleLlm, Tokenizer::new());
    let truth = |row: usize| {
        if !row.is_multiple_of(3) {
            "Yes".into()
        } else {
            "No".into()
        }
    };
    let fds = FunctionalDeps::empty(3);

    // 4. Execute under the original ordering and under GGR.
    println!(
        "{:<12} {:>10} {:>8} {:>12}",
        "ordering", "job time", "PHR", "field PHC"
    );
    for solver in [&OriginalOrder as &dyn Reorderer, &Ggr::default()] {
        let out = executor.execute(&table, &query, solver, &fds, &truth)?;
        println!(
            "{:<12} {:>9.1}s {:>7.1}% {:>12}",
            out.report.solver,
            out.report.engine.job_completion_time_s,
            out.report.engine.prefix_hit_rate() * 100.0,
            out.report.field_phc.phc,
        );
        // Reordering never changes results:
        assert_eq!(out.selected_rows.len(), 133);
    }

    // 5. Inspect the schedule itself.
    let encoded = llmqo::relational::encode_table(&Tokenizer::new(), &table, &query)?;
    let solution = Ggr::default().reorder(&encoded.reorder, &fds)?;
    let report = phc_of_plan(&encoded.reorder, &solution.plan);
    println!(
        "\nGGR schedule: first row {:?} (shared product description leads), \
         field-level hit rate {:.1}%",
        solution.plan.row(0),
        report.hit_rate() * 100.0
    );
    Ok(())
}
