//! # llmqo-core — request reordering for LLM queries over relational data
//!
//! This crate implements the primary contribution of *“Optimizing LLM Queries
//! in Relational Data Analytics Workloads”* (MLSys 2025): algorithms that
//! reorder the **rows** of an input table and the **fields within each row**
//! so that consecutive per-row LLM requests share the longest possible token
//! prefixes, maximizing KV-cache reuse during serving.
//!
//! The optimization objective is the **prefix hit count** (PHC, paper Eq. 1–2):
//! for every row, the sum of *squared* token lengths of the leading cells that
//! exactly match the previous row's leading cells. Squared lengths reflect the
//! quadratic cost of attention over prompt prefixes.
//!
//! Two solvers are provided, plus the fixed-order baselines of paper §3.2:
//!
//! * [`Ophr`] — *Optimal Prefix Hit Recursion* (§4.1): exact, exponential-time
//!   recursion over (value, column) group splits, memoized and budgeted.
//! * [`Ggr`] — *Greedy Group Recursion* (§4.2, Algorithm 1): picks the group
//!   with the maximum estimated hit count at each step, exploits functional
//!   dependencies to pull correlated fields into the prefix, and falls back to
//!   a statistics-chosen fixed ordering when recursion is stopped early.
//! * [`OriginalOrder`], [`SortedFixed`], [`StatFixed`] — baselines.
//!
//! Each algorithm ships once. The frozen pre-columnar transcriptions of both
//! solvers — the oracles `tests/solver_differential.rs` compares plans and
//! claimed PHC against — are test fixtures under `tests/oracles/`, built on
//! this crate's public API.
//!
//! # Quick example
//!
//! ```
//! use llmqo_core::{FunctionalDeps, Ggr, Reorderer, TableBuilder, phc_of_plan};
//!
//! // A toy reviews⨝products table: `product` repeats, `review` is unique.
//! let mut b = TableBuilder::new(vec!["review".into(), "product".into()]);
//! b.push_row(&["loved it", "Acme Anvil 3000 — forged steel, 10kg"]);
//! b.push_row(&["meh", "Acme Anvil 3000 — forged steel, 10kg"]);
//! b.push_row(&["ok", "Roadrunner Seeds premium mix"]);
//! let (table, _interner) = b.finish();
//!
//! let solution = Ggr::default()
//!     .reorder(&table, &FunctionalDeps::empty(table.ncols()))
//!     .expect("greedy solver never exceeds a budget");
//! let report = phc_of_plan(&table, &solution.plan);
//! assert!(report.phc > 0, "shared product descriptions should produce hits");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod fd;
mod ggr;
mod intern;
mod ophr;
mod order;
mod partition;
mod phc;
mod plan;
mod scratch;
mod solver;
mod stats;
mod table;

pub use baseline::{OriginalOrder, SortedFixed, StatFixed};
pub use fd::FunctionalDeps;
pub use ggr::{ggr_with_report, FallbackOrdering, Ggr, GgrConfig};
pub use intern::{Interner, ValueId};
pub use ophr::{Ophr, OphrConfig};
pub use order::{adaptive_prefix_plan, greedy_prefix_order};
pub use partition::Partitioned;
pub use phc::{hit_prefix_cells, phc_of_plan, phc_of_rows, PhcReport};
pub use plan::{PlanError, ReorderPlan, RowPlan};
pub use solver::{Reorderer, Solution, SolveError};
pub use stats::{ColumnStats, TableStats};
pub use table::{Cell, ReorderTable, TableBuilder, TableError};
