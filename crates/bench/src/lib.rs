//! # llmqo-bench — reproduction harness for every table and figure
//!
//! One binary per paper artifact (run with
//! `cargo run --release -p llmqo-bench --bin <id>`):
//!
//! | bin | paper artifact |
//! |---|---|
//! | `table1` | Table 1 — dataset statistics |
//! | `fig1` | Figure 1 — fixed-field-ordering case study |
//! | `fig3a` | Figure 3a — filter query end-to-end runtimes |
//! | `fig3b` | Figure 3b — projection + RAG runtimes |
//! | `fig4` | Figure 4 — multi-LLM invocation + aggregation |
//! | `fig5` | Figure 5 — Llama-3-70B filter runtimes |
//! | `fig6` | Figure 6 — accuracy under reordering (bootstrap) |
//! | `table2` | Table 2 — prefix hit rates |
//! | `table3` | Table 3 — OpenAI/Anthropic measured costs |
//! | `table4` | Table 4 — estimated cost savings |
//! | `table5` | Table 5 — GGR solver time |
//! | `table6` | Table 6 — GGR vs OPHR (Appendix D.1) |
//! | `table7` | Table 7 — Llama-3.2-1B (Appendix D.2) |
//! | `table_sqlopt` | SQL-aware optimizations — dedup / reorder / lazy `LIMIT` savings |
//!
//! and one per sweep beyond the paper; the five that write a
//! `BENCH_*.json` do so through [`report::BenchFile`], at full scale only:
//!
//! | bin | sweep |
//! |---|---|
//! | `fig_cluster` | replica count × routing policy on the GGR-scheduled Movies filter |
//! | `diagnose` | calibration: per-dataset column statistics and GGR against the fixed orderings and its ceiling |
//! | `table_adaptive` | mid-query re-ranking, session answer cache, aimed `LIMIT` batches → `BENCH_adaptive.json` |
//! | `perf_chaos` | fault × retry policy × router grid at 8 replicas → `BENCH_chaos.json` |
//! | `perf_overload` | admission / quota / autoscaler ladder at 2× the service rate → `BENCH_overload.json` |
//! | `perf_pipeline` | relay vs pipelined fan-out statement, macro-stepped backpressure → `BENCH_pipeline.json` |
//! | `perf_cascade` | mini→sonnet cascade threshold sweep, dollars vs drift → `BENCH_cascade.json` |
//!
//! Set `LLMQO_SCALE` (e.g. `0.1`) to run on proportionally smaller datasets
//! while keeping duplication structure; default is the paper's full sizes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod report;
