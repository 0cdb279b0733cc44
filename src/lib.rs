//! # llmqo — Optimizing LLM Queries in Relational Data Analytics Workloads
//!
//! Facade crate for the `llmqo` workspace, a from-scratch Rust reproduction
//! of the MLSys 2025 paper of the same name. It re-exports every subsystem
//! so examples and downstream users can depend on a single crate:
//!
//! * [`core`] — the paper's contribution: the PHC objective, the exact OPHR
//!   solver, the greedy GGR solver (Algorithm 1), and fixed-order baselines.
//! * [`cluster`] — sharded serving across N engine replicas with
//!   prefix-affinity routing, bounded queues, and cluster-level reports.
//! * [`relational`] — a columnar table engine with an `LLM(...)` operator
//!   supporting filter / projection / multi-invocation / aggregation / RAG
//!   queries, plus the statistics and functional dependencies the solvers
//!   take from the dataset schemas.
//! * [`serve`] — a discrete-time LLM serving simulator with a paged KV cache
//!   and radix-tree prefix reuse (the vLLM/SGLang stand-in).
//! * [`datasets`] — synthetic reproductions of the paper's seven datasets
//!   and its 16-query benchmark suite.
//! * [`obs`] — observability: metrics registry, sim-time tracer, and the
//!   Prometheus / JSON / Chrome-trace exporters (no-op by default).
//! * [`rag`] — embedding + vector-index retrieval substrate.
//! * [`costmodel`] — OpenAI/Anthropic prompt-cache pricing simulators.
//! * [`tokenizer`] — the deterministic subword tokenizer used throughout.
//!
//! See `README.md` for a tour and `DESIGN.md` for the system inventory.
//!
//! # Example
//!
//! ```
//! use llmqo::core::{FunctionalDeps, Ggr, Reorderer, TableBuilder, phc_of_plan};
//!
//! let mut b = TableBuilder::new(vec!["review".into(), "product".into()]);
//! b.push_row(&["great", "Acme Anvil — forged steel"]);
//! b.push_row(&["bad", "Acme Anvil — forged steel"]);
//! let (table, _) = b.finish();
//! let s = Ggr::default().reorder(&table, &FunctionalDeps::empty(2)).unwrap();
//! assert!(phc_of_plan(&table, &s.plan).phc > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use llmqo_cluster as cluster;
pub use llmqo_core as core;
pub use llmqo_costmodel as costmodel;
pub use llmqo_datasets as datasets;
pub use llmqo_obs as obs;
pub use llmqo_rag as rag;
pub use llmqo_relational as relational;
pub use llmqo_serve as serve;
pub use llmqo_tokenizer as tokenizer;
