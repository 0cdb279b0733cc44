//! Fixed-field-ordering baselines (paper §3.2 and the evaluation's
//! *Cache (Original)* arm).
//!
//! All three baselines use **one field order for every row** — the setting
//! the paper shows can be up to `m×` worse than per-row reordering:
//!
//! * [`OriginalOrder`] — rows and fields exactly as given. This is what a
//!   vanilla engine sends to a prefix-caching server (*Cache (Original)*).
//! * [`SortedFixed`] — schema field order, rows sorted lexicographically so
//!   duplicate prefixes become adjacent.
//! * [`StatFixed`] — fields reordered once by the §4.2.2 statistics score,
//!   then rows sorted. This is also GGR's early-stopping fallback.

use crate::fd::FunctionalDeps;
use crate::phc::phc_of_plan;
use crate::plan::ReorderPlan;
use crate::solver::{check_fd_arity, Reorderer, Solution, SolveError};
use crate::stats::TableStats;
use crate::table::ReorderTable;
use crate::ValueId;
use std::time::Instant;

/// Identity schedule: the paper's *Cache (Original)* baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OriginalOrder;

impl Reorderer for OriginalOrder {
    fn name(&self) -> &'static str {
        "original"
    }

    fn reorder(&self, table: &ReorderTable, fds: &FunctionalDeps) -> Result<Solution, SolveError> {
        fixed_order(table, fds, || ReorderPlan::identity(table))
    }
}

/// Schema field order with rows sorted lexicographically by value identity.
///
/// Sorting groups duplicate leading values so adjacent rows share prefixes;
/// the field order itself is never changed. The sort key is the interned
/// [`ValueId`](crate::ValueId) sequence, so "lexicographic" means an
/// arbitrary-but-consistent value order, which is all that grouping needs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SortedFixed;

impl Reorderer for SortedFixed {
    fn name(&self) -> &'static str {
        "sorted-fixed"
    }

    fn reorder(&self, table: &ReorderTable, fds: &FunctionalDeps) -> Result<Solution, SolveError> {
        fixed_order(table, fds, || {
            let fields: Vec<u32> = (0..table.ncols() as u32).collect();
            sorted_plan(table, &fields)
        })
    }
}

/// Statistics-chosen fixed field order (§4.2.2) with rows sorted under it.
///
/// Fields are ordered by descending
/// [`hitcount_score`](crate::ColumnStats::hitcount_score) so long, highly
/// duplicated columns lead the prompt; rows are then sorted to make those
/// duplicates adjacent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatFixed;

impl Reorderer for StatFixed {
    fn name(&self) -> &'static str {
        "stat-fixed"
    }

    fn reorder(&self, table: &ReorderTable, fds: &FunctionalDeps) -> Result<Solution, SolveError> {
        fixed_order(table, fds, || {
            let fields = TableStats::compute(table).stat_field_order();
            sorted_plan(table, &fields)
        })
    }
}

/// The three baselines' one body: checks the FDs' arity, times `plan`, and
/// claims the exact PHC of the plan it builds.
fn fixed_order(
    table: &ReorderTable,
    fds: &FunctionalDeps,
    plan: impl FnOnce() -> ReorderPlan,
) -> Result<Solution, SolveError> {
    check_fd_arity(table, fds)?;
    let start = Instant::now();
    let plan = plan();
    let claimed_phc = phc_of_plan(table, &plan).phc;
    Ok(Solution {
        plan,
        claimed_phc,
        solve_time: start.elapsed(),
    })
}

/// Sorts `rows` lexicographically by their value ids in `field_cols`, one
/// column-major value array per field in prompt order (row index as a final
/// tiebreak, for determinism): each field comparison is one contiguous
/// 4-byte load per row.
pub(crate) fn sort_rows_by_fields(rows: &mut [u32], field_cols: &[&[ValueId]]) {
    rows.sort_by(|&a, &b| {
        for values in field_cols {
            match values[a as usize].cmp(&values[b as usize]) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        a.cmp(&b)
    });
}

/// Builds a plan with the given fixed `fields` order and rows sorted
/// lexicographically under it ([`sort_rows_by_fields`]).
pub(crate) fn sorted_plan(table: &ReorderTable, fields: &[u32]) -> ReorderPlan {
    let field_cols: Vec<&[ValueId]> = fields
        .iter()
        .map(|&f| table.col_values(f as usize))
        .collect();
    let mut order: Vec<u32> = (0..table.nrows() as u32).collect();
    sort_rows_by_fields(&mut order, &field_cols);
    let mut plan = ReorderPlan::with_capacity(order.len(), fields.len());
    for r in order {
        plan.push(r, &[], fields);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Cell;

    fn c(id: u32, len: u32) -> Cell {
        Cell::new(ValueId::from_raw(id), len)
    }

    fn sample() -> ReorderTable {
        // col0 unique, col1 duplicated in non-adjacent rows.
        let mut t = ReorderTable::new(vec!["id".into(), "cat".into()]).unwrap();
        t.push_row(vec![c(0, 1), c(10, 5)]).unwrap();
        t.push_row(vec![c(1, 1), c(11, 5)]).unwrap();
        t.push_row(vec![c(2, 1), c(10, 5)]).unwrap();
        t
    }

    #[test]
    fn original_is_identity() {
        let t = sample();
        let s = OriginalOrder
            .reorder(&t, &FunctionalDeps::empty(2))
            .unwrap();
        assert_eq!(s.plan, ReorderPlan::identity(&t));
        assert_eq!(s.claimed_phc, 0); // nothing adjacent matches in col0-first order
        assert!(s.plan.validate(&t).is_ok());
    }

    #[test]
    fn sorted_fixed_groups_rows_but_keeps_field_order() {
        let t = sample();
        let s = SortedFixed.reorder(&t, &FunctionalDeps::empty(2)).unwrap();
        assert!(s.plan.validate(&t).is_ok());
        for rp in s.plan.rows() {
            assert_eq!(rp.fields, &[0, 1]);
        }
        // col0 leads and is unique, so sorting cannot create hits here.
        assert_eq!(s.claimed_phc, 0);
    }

    #[test]
    fn stat_fixed_leads_with_duplicated_long_column() {
        let t = sample();
        let s = StatFixed.reorder(&t, &FunctionalDeps::empty(2)).unwrap();
        assert!(s.plan.validate(&t).is_ok());
        // cat (col1) has duplicates and length 5, so it leads.
        assert_eq!(s.plan.row(0).fields, &[1, 0]);
        // The two cat=10 rows become adjacent: one hit of 5² = 25.
        assert_eq!(s.claimed_phc, 25);
        assert_eq!(s.claimed_phc, phc_of_plan(&t, &s.plan).phc);
    }

    #[test]
    fn stat_fixed_beats_or_ties_sorted_fixed_here() {
        let t = sample();
        let fds = FunctionalDeps::empty(2);
        let sorted = SortedFixed.reorder(&t, &fds).unwrap().claimed_phc;
        let stat = StatFixed.reorder(&t, &fds).unwrap().claimed_phc;
        assert!(stat >= sorted);
    }

    #[test]
    fn fd_arity_checked() {
        let t = sample();
        assert!(matches!(
            OriginalOrder.reorder(&t, &FunctionalDeps::empty(3)),
            Err(SolveError::FdArityMismatch { .. })
        ));
    }

    #[test]
    fn empty_table_yields_empty_plan() {
        let t = ReorderTable::new(vec!["a".into()]).unwrap();
        for solver in [&OriginalOrder as &dyn Reorderer, &SortedFixed, &StatFixed] {
            let s = solver.reorder(&t, &FunctionalDeps::empty(1)).unwrap();
            assert!(s.plan.is_empty());
            assert_eq!(s.claimed_phc, 0);
        }
    }

    #[test]
    fn sort_is_deterministic_with_equal_rows() {
        let mut t = ReorderTable::new(vec!["a".into()]).unwrap();
        t.push_row(vec![c(5, 2)]).unwrap();
        t.push_row(vec![c(5, 2)]).unwrap();
        let p = sorted_plan(&t, &[0]);
        assert_eq!(p.row(0).row, 0);
        assert_eq!(p.row(1).row, 1);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(OriginalOrder.name(), "original");
        assert_eq!(SortedFixed.name(), "sorted-fixed");
        assert_eq!(StatFixed.name(), "stat-fixed");
    }
}
