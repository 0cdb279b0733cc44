//! Partition-parallel solving.
//!
//! The paper runs inside Spark (§5), where the input table arrives in
//! partitions and each partition's requests are dispatched together.
//! [`Partitioned`] mirrors that deployment: it splits the table into
//! contiguous row chunks, solves each chunk **in parallel** with an inner
//! solver on its own thread, and concatenates the per-chunk schedules.
//!
//! Partitioning trades a little PHC (groups spanning a partition boundary
//! are split, costing one extra cold row per boundary per group) for
//! near-linear solver scale-out and bounded per-task memory — the same
//! trade Spark users make. The wrapper preserves every solver invariant:
//! the concatenation of per-chunk permutations is a permutation, and the
//! claimed score is the sum of per-chunk claims (cross-boundary accidental
//! hits can only add to it).
//!
//! Execution uses a bounded **worker pool** (one scoped thread per
//! available core, not one per chunk): workers claim chunks from a shared
//! counter, so a long-lived worker solves many chunks in sequence and the
//! thread-local [`Scratch`](crate::scratch) recycling amortizes the
//! O(rows·cols) index-arena allocations across every chunk it touches.
//! Results are written back by chunk index, keeping output deterministic
//! regardless of scheduling.

use crate::fd::FunctionalDeps;
use crate::plan::ReorderPlan;
use crate::solver::{check_fd_arity, Reorderer, Solution, SolveError};
use crate::table::ReorderTable;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Wraps any [`Reorderer`], solving contiguous row partitions in parallel.
///
/// # Examples
///
/// ```
/// use llmqo_core::{FunctionalDeps, Ggr, Partitioned, Reorderer, TableBuilder};
/// let mut b = TableBuilder::new(vec!["k".into()]);
/// for i in 0..100 {
///     b.push_row(&[if i % 2 == 0 { "a" } else { "b" }]);
/// }
/// let (t, _) = b.finish();
/// let solver = Partitioned::new(Ggr::default(), 32);
/// let s = solver.reorder(&t, &FunctionalDeps::empty(1)).unwrap();
/// assert!(s.plan.validate(&t).is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct Partitioned<R> {
    inner: R,
    partition_rows: usize,
}

impl<R: Reorderer + Sync> Partitioned<R> {
    /// Creates a partitioned solver with the given rows per partition.
    ///
    /// # Panics
    ///
    /// Panics if `partition_rows` is zero.
    pub fn new(inner: R, partition_rows: usize) -> Self {
        assert!(partition_rows > 0, "partitions must be non-empty");
        Partitioned {
            inner,
            partition_rows,
        }
    }

    /// Rows per partition.
    pub fn partition_rows(&self) -> usize {
        self.partition_rows
    }
}

impl<R: Reorderer + Sync> Reorderer for Partitioned<R> {
    fn name(&self) -> &'static str {
        "partitioned"
    }

    fn reorder(&self, table: &ReorderTable, fds: &FunctionalDeps) -> Result<Solution, SolveError> {
        check_fd_arity(table, fds)?;
        let start = Instant::now();
        let n = table.nrows();
        let chunk_bounds: Vec<(usize, usize)> = (0..n)
            .step_by(self.partition_rows)
            .map(|lo| (lo, (lo + self.partition_rows).min(n)))
            .collect();

        // A bounded worker pool claims chunks from a shared counter: each
        // worker's thread stays alive across the many chunks it solves, so
        // the thread-local scratch arena is built once per worker and
        // recycled chunk after chunk. Results are scattered back by chunk
        // index, so the concatenation is deterministic however the workers
        // interleave.
        let nchunks = chunk_bounds.len();
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(nchunks)
            .max(1);
        let next_chunk = AtomicUsize::new(0);
        let mut partials: Vec<Option<Result<Solution, SolveError>>> =
            (0..nchunks).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let inner = &self.inner;
                    let next_chunk = &next_chunk;
                    let chunk_bounds = &chunk_bounds;
                    scope.spawn(move || {
                        let mut solved: Vec<(usize, Result<Solution, SolveError>)> = Vec::new();
                        let mut row_ids: Vec<usize> = Vec::new();
                        loop {
                            let i = next_chunk.fetch_add(1, Ordering::Relaxed);
                            let Some(&(lo, hi)) = chunk_bounds.get(i) else {
                                break;
                            };
                            row_ids.clear();
                            row_ids.extend(lo..hi);
                            let chunk = table.select_rows(&row_ids);
                            solved.push((i, inner.reorder(&chunk, fds)));
                        }
                        solved
                    })
                })
                .collect();
            for h in handles {
                for (i, partial) in h.join().expect("partition solver panicked") {
                    partials[i] = Some(partial);
                }
            }
        });

        let mut plan = ReorderPlan::with_capacity(n, table.ncols());
        let mut claimed_phc = 0u64;
        for ((lo, _), partial) in chunk_bounds.into_iter().zip(partials) {
            let solution = partial.expect("every chunk index was claimed exactly once")?;
            claimed_phc += solution.claimed_phc;
            for rp in solution.plan.rows() {
                plan.push((rp.row + lo) as u32, &[], rp.fields);
            }
        }
        Ok(Solution {
            plan,
            claimed_phc,
            solve_time: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ggr::Ggr;
    use crate::phc::phc_of_plan;
    use crate::table::Cell;
    use crate::ValueId;

    fn join_table(nrows: usize, group: usize) -> ReorderTable {
        let mut t = ReorderTable::new(vec!["id".into(), "meta".into()]).unwrap();
        for r in 0..nrows {
            t.push_row(vec![
                Cell::new(ValueId::from_raw(10_000 + r as u32), 2),
                Cell::new(ValueId::from_raw((r / group) as u32), 20),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn partitioned_plans_are_valid_permutations() {
        let t = join_table(97, 5); // deliberately not a multiple of the chunk
        let fds = FunctionalDeps::empty(2);
        for chunk in [1usize, 7, 32, 97, 500] {
            let s = Partitioned::new(Ggr::default(), chunk)
                .reorder(&t, &fds)
                .unwrap();
            assert!(s.plan.validate(&t).is_ok(), "chunk {chunk}");
        }
    }

    #[test]
    fn single_partition_matches_inner_solver() {
        let t = join_table(60, 6);
        let fds = FunctionalDeps::empty(2);
        let inner = Ggr::default().reorder(&t, &fds).unwrap();
        let outer = Partitioned::new(Ggr::default(), 1000)
            .reorder(&t, &fds)
            .unwrap();
        assert_eq!(inner.plan, outer.plan);
        assert_eq!(inner.claimed_phc, outer.claimed_phc);
    }

    #[test]
    fn partitioning_costs_bounded_phc() {
        // Groups of 6 rows; partitions of 30 cut at most one group per
        // boundary: the loss is ≤ boundaries × max cell contribution.
        let t = join_table(180, 6);
        let fds = FunctionalDeps::empty(2);
        let whole = phc_of_plan(&t, &Ggr::default().reorder(&t, &fds).unwrap().plan).phc;
        let split = phc_of_plan(
            &t,
            &Partitioned::new(Ggr::default(), 30)
                .reorder(&t, &fds)
                .unwrap()
                .plan,
        )
        .phc;
        assert!(split <= whole);
        let boundaries = 180 / 30 - 1;
        let max_loss = (boundaries as u64 + 1) * 20 * 20;
        assert!(
            whole - split <= max_loss,
            "lost {} > bound {max_loss}",
            whole - split
        );
    }

    #[test]
    fn claimed_phc_is_a_lower_bound() {
        let t = join_table(90, 9);
        let fds = FunctionalDeps::empty(2);
        let s = Partitioned::new(Ggr::default(), 20)
            .reorder(&t, &fds)
            .unwrap();
        // Cross-boundary accidental matches only add hits.
        assert!(phc_of_plan(&t, &s.plan).phc >= s.claimed_phc);
    }

    #[test]
    fn deterministic_across_runs() {
        let t = join_table(64, 4);
        let fds = FunctionalDeps::empty(2);
        let a = Partitioned::new(Ggr::default(), 16)
            .reorder(&t, &fds)
            .unwrap();
        let b = Partitioned::new(Ggr::default(), 16)
            .reorder(&t, &fds)
            .unwrap();
        assert_eq!(a.plan, b.plan);
    }

    #[test]
    fn propagates_inner_errors() {
        use crate::ophr::Ophr;
        // Zero budget on a table with group structure: some partition fails.
        let t = join_table(40, 2);
        let fds = FunctionalDeps::empty(2);
        let r =
            Partitioned::new(Ophr::with_budget(std::time::Duration::ZERO), 20).reorder(&t, &fds);
        assert!(matches!(r, Err(SolveError::BudgetExceeded { .. })));
    }

    #[test]
    #[should_panic(expected = "partitions must be non-empty")]
    fn zero_partition_rows_panics() {
        let _ = Partitioned::new(Ggr::default(), 0);
    }

    #[test]
    fn empty_table() {
        let t = ReorderTable::new(vec!["a".into()]).unwrap();
        let s = Partitioned::new(Ggr::default(), 8)
            .reorder(&t, &FunctionalDeps::empty(1))
            .unwrap();
        assert!(s.plan.is_empty());
    }
}
