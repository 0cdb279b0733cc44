//! The paper's §1 motivating query, end to end:
//!
//! ```sql
//! SELECT user_id, request, support_response,
//!        LLM('Did {support_response} address {request}?',
//!            support_response, request) AS success
//! FROM customer_tickets
//! WHERE support_response <> NULL
//! ```
//!
//! Support macros answer most tickets, so `support_response` repeats heavily
//! — exactly the structure GGR turns into KV-cache hits. The example also
//! prices the job on OpenAI and Anthropic prompt-cache billing.
//!
//! ```sh
//! cargo run --release --example customer_tickets
//! ```

use llmqo::core::{FunctionalDeps, Ggr, OriginalOrder, Reorderer};
use llmqo::costmodel::{AnthropicCache, OpenAiCache, Pricing, ProviderCache, Usage};
use llmqo::relational::{encode_table, LlmQuery, QueryExecutor, Schema, Table};
use llmqo::serve::{
    Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, OracleLlm, SimEngine,
};
use llmqo::tokenizer::Tokenizer;

const MACROS: [&str; 6] = [
    "We are sorry for the inconvenience. A replacement unit has been dispatched and \
     should arrive within three to five business days. Your case stays open until you \
     confirm the replacement works.",
    "Thanks for reaching out! The behaviour you describe is controlled by the power \
     saving profile; please open Settings, choose Performance, and restart the device.",
    "Your refund has been processed back to the original payment method. Depending on \
     your bank it can take up to ten business days to appear on your statement.",
    "We have escalated your report to the engineering team with high priority and will \
     update this ticket as soon as a fix ships. Thank you for the detailed logs.",
    "The licence key has been reset; please sign out of all devices, wait five minutes, \
     and activate again using the key from your confirmation email.",
    "This model is no longer supported. As a goodwill gesture we have applied a 30% \
     discount code to your account valid for any current-generation product.",
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // customer_tickets with non-null support responses.
    let mut table = Table::new(Schema::of_strings(&[
        "user_id",
        "request",
        "support_response",
    ]));
    let n = 400;
    for i in 0..n {
        table.push_row(vec![
            format!("u{:05}", i * 7 % 99_999).into(),
            format!(
                "ticket {i}: my device {} after the last update, what should I do?",
                ["won't boot", "overheats", "drains battery", "loses wifi"][i % 4]
            )
            .into(),
            MACROS[i % MACROS.len()].into(),
        ])?;
    }

    // Fields in natural SQL order: the unique ticket id leads, which is the
    // worst case for a fixed ordering (paper Fig. 1a) — GGR will move the
    // shared macro to the front instead.
    let query = LlmQuery::filter(
        "tickets-success",
        "Did the support response address the request? Answer ONLY 'Yes' or 'No'.",
        vec![
            "user_id".into(),
            "request".into(),
            "support_response".into(),
        ],
        vec!["Yes".into(), "No".into()],
        "Yes",
        2.0,
    );

    let engine = SimEngine::new(
        Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
        EngineConfig::default(),
    );
    let executor = QueryExecutor::new(&engine, &OracleLlm, Tokenizer::new());
    let truth = |row: usize| {
        if row % 5 != 4 {
            "Yes".into()
        } else {
            "No".into()
        }
    };
    let fds = FunctionalDeps::empty(3);

    println!("{n} tickets, {} support macros\n", MACROS.len());
    println!(
        "{:<12} {:>10} {:>8} {:>14} {:>14}",
        "ordering", "job time", "PHR", "GPT-4o-mini", "Claude 3.5"
    );
    for solver in [&OriginalOrder as &dyn Reorderer, &Ggr::default()] {
        let out = executor.execute(&table, &query, solver, &fds, &truth)?;

        // Price the same schedule on provider prompt caches.
        let encoded = encode_table(&Tokenizer::new(), &table, &query)?;
        let solution = solver.reorder(&encoded.reorder, &fds)?;
        // Small-prompt demo rules (production minimums are 1024 tokens): the
        // Anthropic breakpoint is placed just past instruction + macro.
        let mut openai = OpenAiCache::with_rules(64, 16);
        let mut anthropic = AnthropicCache::with_breakpoint(128);
        let mut usage_oa = Usage::default();
        let mut usage_an = Usage::default();
        for rp in solution.plan.rows() {
            let mut toks: Vec<u32> = encoded.instruction.to_vec();
            for &f in rp.fields {
                let cell = encoded.reorder.cell(rp.row, f as usize);
                toks.extend_from_slice(encoded.fragments[cell.value.as_u32() as usize]);
            }
            usage_oa.add(openai.process(&toks, 2));
            usage_an.add(anthropic.process(&toks, 2));
        }
        println!(
            "{:<12} {:>9.1}s {:>7.1}% {:>13.4}$ {:>13.4}$",
            out.report.solver,
            out.report.engine.job_completion_time_s,
            out.report.engine.prefix_hit_rate() * 100.0,
            usage_oa.cost(&Pricing::gpt4o_mini()),
            usage_an.cost(&Pricing::claude35_sonnet()),
        );
        assert_eq!(out.selected_rows.len(), n - n / 5, "semantics preserved");
    }
    println!(
        "\nGGR groups tickets answered by the same macro, so the long \
         support_response fragment leads each prompt and is cached across the group."
    );
    Ok(())
}
