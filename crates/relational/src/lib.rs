//! # llmqo-relational — a columnar table engine with an `LLM(...)` operator
//!
//! Stand-in for the paper's PySpark integration (§5): the analytics engine's
//! job is to (1) expose the full input table to the request-reordering
//! optimizer and (2) invoke the LLM once per row, mapping outputs back into
//! relational results. This crate provides exactly that contract:
//!
//! * [`Table`] / [`Schema`] / [`Value`] — columnar storage.
//! * [`LlmQuery`] — the paper's five query types (T1–T5) with Appendix C
//!   prompt templates.
//! * [`encode_table`] — lowers a table to the optimizer's
//!   [`ReorderTable`](llmqo_core::ReorderTable) under the JSON field
//!   encoding.
//! * [`QueryExecutor`] — runs a query end to end: reorder → serve → parse,
//!   producing a [`QueryOutput`] with results and an [`ExecutionReport`]
//!   (job completion time, prefix hit rate, solver time, optimizer
//!   savings).
//! * [`optimizer`](crate::OptimizerConfig) + [`SqlRunner`] — the paper's
//!   SQL-aware optimizations as a cost-based logical optimizer: statements
//!   compile to a [`LogicalPlan`], rewrite rules push cheap predicates
//!   below LLM operators and rank LLM filters by cost/(1−selectivity)
//!   (priced via `llmqo-costmodel`), and the batched physical executor adds
//!   exact request deduplication and lazy `LIMIT` evaluation — provably
//!   without changing results. How much of it runs is one [`OptLevel`]:
//!   off (the oracle), static, or adaptive. The front end (`sql`) is split
//!   along its data flow: `sql/lex` → `sql/parse` ([`parse_sql`], the AST)
//!   → `sql/compile` (statement → plan) → the batch loop in `sql`, whose
//!   batch boundaries and re-ranks are `sql/schedule`'s and whose
//!   `EXPLAIN [ANALYZE]` renderings are `sql/explain`'s.
//! * [`adaptive`] — runtime re-optimization, the [`OptLevel::Adaptive`]
//!   layer: a [`SelectivityTracker`] feeds observed per-filter pass rates
//!   (Beta-smoothed over the static prior) back into the ranking and the
//!   batch sizes between batches, and an unbounded [`AnswerCache`] on the
//!   executor short-circuits every repeated prompt across batches,
//!   operators, and successive queries ([`StatementCheckpoint`] exports
//!   and restores it whole).
//!
//! # Example: the SQL front-end
//!
//! [`SqlRunner`] is the top-level entry point — register tables, run
//! LLM-SQL, read rows and the per-operator reports:
//!
//! ```
//! use llmqo_core::{FunctionalDeps, Ggr};
//! use llmqo_relational::{QueryExecutor, Schema, SqlRunner, Table};
//! use llmqo_serve::{Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec,
//!                   OracleLlm, SimEngine};
//! use llmqo_tokenizer::Tokenizer;
//!
//! let mut table = Table::new(Schema::of_strings(&["review", "product"]));
//! for i in 0..10 {
//!     table.push_row(vec![
//!         format!("review text {i}").into(),
//!         format!("product {}", i / 5).into(),
//!     ]).unwrap();
//! }
//! let fds = FunctionalDeps::empty(2);
//! let engine = SimEngine::new(
//!     Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
//!     EngineConfig::default(),
//! );
//! let executor = QueryExecutor::new(&engine, &OracleLlm, Tokenizer::new());
//! let solver = Ggr::default();
//! let mut runner = SqlRunner::new(&executor, &solver);
//! runner.register("reviews", &table, &fds);
//!
//! let truth = |row: usize| if row < 5 { "Yes".into() } else { "No".into() };
//! let res = runner
//!     .run("SELECT review FROM reviews WHERE LLM('good?', review) = 'Yes'", &truth)
//!     .unwrap();
//! assert_eq!(res.rows.len(), 5);
//! assert_eq!(res.stages[0].report.opt.llm_calls, 10);
//! ```
//!
//! # Example: the executor API
//!
//! ```
//! use llmqo_core::{FunctionalDeps, Ggr};
//! use llmqo_relational::{LlmQuery, QueryExecutor, Schema, Table};
//! use llmqo_serve::{Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec,
//!                   OracleLlm, SimEngine};
//! use llmqo_tokenizer::Tokenizer;
//!
//! let mut table = Table::new(Schema::of_strings(&["request", "support_response"]));
//! table.push_row(vec!["refund?".into(), "We processed your refund.".into()]).unwrap();
//! table.push_row(vec!["broken!".into(), "We processed your refund.".into()]).unwrap();
//!
//! let query = LlmQuery::filter(
//!     "tickets",
//!     "Did the support response address the request? Answer Yes or No.",
//!     vec!["support_response".into(), "request".into()],
//!     vec!["Yes".into(), "No".into()],
//!     "Yes",
//!     2.0,
//! );
//!
//! let engine = SimEngine::new(
//!     Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
//!     EngineConfig::default(),
//! );
//! let executor = QueryExecutor::new(&engine, &OracleLlm, Tokenizer::new());
//! let truth = |row: usize| if row == 0 { "Yes".into() } else { "No".into() };
//! let out = executor
//!     .execute(&table, &query, &Ggr::default(), &FunctionalDeps::empty(2), &truth)
//!     .unwrap();
//! assert_eq!(out.selected_rows, vec![0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod adaptive;
mod dict;
mod exec;
mod hash;
mod optimizer;
mod pipeline;
mod prompt;
mod query;
mod schema;
mod sql;
mod table;
mod value;

pub use adaptive::{AnswerCache, CacheSnapshotEntry, CachedAnswer, RowKey, SelectivityTracker};
pub use exec::{
    plan_requests, project_fds, ExecError, ExecutionReport, QueryExecutor, QueryOutput, RowOutput,
    StatementCheckpoint, StatementFaults,
};
pub use optimizer::{
    annotate_estimates, estimate_llm_op, CascadeConfig, CmpOp, LogicalOp, LogicalPlan, OptLevel,
    OptStats, OptimizerConfig, SqlPredicate,
};
pub use prompt::{encode_table, encode_table_rows, field_fragment, EncodedTable};
pub use query::{LlmQuery, QueryKind};
pub use schema::{DataType, Field, Schema};
pub use sql::{
    parse_sql, LlmCall, Projection, SqlError, SqlResult, SqlRunner, SqlStatement, WhereConjunct,
};
pub use table::{Table, TableError};
pub use value::Value;
