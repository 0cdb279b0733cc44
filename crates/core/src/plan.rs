//! Reorder plans: the output of every solver.
//!
//! A [`ReorderPlan`] is a *request schedule* in the paper's terms (§3.1): a
//! row order plus, for each row, a field order. Plans always reference
//! original row/column indices so the executing engine can map LLM outputs
//! back to the rows they belong to — reordering must never change query
//! semantics, only cache behaviour.

use crate::table::ReorderTable;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One scheduled row of a [`ReorderPlan`], borrowed from it: which original
/// row, and in which order its fields are serialized into the prompt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowPlan<'a> {
    /// Original row index in the [`ReorderTable`].
    pub row: usize,
    /// Permutation of all column indices; `fields[0]` is serialized first.
    pub fields: &'a [u32],
}

/// A complete request schedule: every table row exactly once, each with a
/// full field permutation.
///
/// # Layout
///
/// Two flat arrays: `order[i]` is the original row at schedule position
/// `i`; `fields[i·ncols .. (i+1)·ncols]` is its field order. Solvers write
/// through one `push(row, prefix, rest)`, each row once, at its leaf — the
/// leading fields of the subtree on a prefix stack — so a solve allocates
/// two arrays however many rows it schedules. Readers see [`RowPlan`] views.
///
/// # Examples
///
/// ```
/// use llmqo_core::{Cell, ReorderPlan, ReorderTable, ValueId};
///
/// let mut t = ReorderTable::new(vec!["a".into(), "b".into()]).unwrap();
/// t.push_row(vec![Cell::new(ValueId::from_raw(0), 1), Cell::new(ValueId::from_raw(1), 1)])
///     .unwrap();
/// let plan = ReorderPlan::identity(&t);
/// assert!(plan.validate(&t).is_ok());
/// assert_eq!(plan.row(0).fields, &[0, 1]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReorderPlan {
    order: Vec<u32>,
    fields: Vec<u32>,
}

/// Validation failures for a [`ReorderPlan`] (see [`ReorderPlan::validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The plan's row count differs from the table's.
    RowCount {
        /// Rows in the table.
        expected: usize,
        /// Rows in the plan.
        got: usize,
    },
    /// The plan visits some row index more than once (or not at all).
    NotARowPermutation {
        /// The first offending row index.
        row: usize,
    },
    /// A row's field list is not a permutation of all columns.
    NotAFieldPermutation {
        /// The schedule position of the offending row plan.
        position: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::RowCount { expected, got } => {
                write!(f, "plan has {got} rows but table has {expected}")
            }
            PlanError::NotARowPermutation { row } => {
                write!(f, "row {row} is duplicated or out of range in plan")
            }
            PlanError::NotAFieldPermutation { position } => {
                write!(
                    f,
                    "field list at schedule position {position} is not a permutation of all columns"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl ReorderPlan {
    /// An empty plan with room for `nrows` rows of `ncols` fields each.
    pub(crate) fn with_capacity(nrows: usize, ncols: usize) -> Self {
        ReorderPlan {
            order: Vec::with_capacity(nrows),
            fields: Vec::with_capacity(nrows * ncols),
        }
    }

    /// A plan from `(row, fields)` pairs in schedule order, for tests and
    /// hand-built schedules. Panics if the field lists differ in length or a
    /// row index exceeds `u32::MAX`.
    pub fn from_rows<F: AsRef<[u32]>>(rows: impl IntoIterator<Item = (usize, F)>) -> Self {
        let mut plan = ReorderPlan::default();
        for (row, fields) in rows {
            let fields = fields.as_ref();
            assert!(
                plan.is_empty() || fields.len() == plan.ncols(),
                "every row of a plan carries the same field count"
            );
            plan.push(u32::try_from(row).expect("row index fits u32"), &[], fields);
        }
        plan
    }

    /// Appends `row` with field order `prefix ++ rest` — the plan's one
    /// writer; every row of a plan carries the same number of fields.
    pub(crate) fn push(&mut self, row: u32, prefix: &[u32], rest: &[u32]) {
        debug_assert!(self.is_empty() || prefix.len() + rest.len() == self.ncols());
        self.order.push(row);
        self.fields.extend_from_slice(prefix);
        self.fields.extend_from_slice(rest);
    }

    /// The identity schedule: original row order, schema field order for every
    /// row. This is the paper's *Cache (Original)* baseline.
    pub fn identity(table: &ReorderTable) -> Self {
        let fields: Vec<u32> = (0..table.ncols() as u32).collect();
        let mut plan = ReorderPlan::with_capacity(table.nrows(), fields.len());
        for r in 0..table.nrows() as u32 {
            plan.push(r, &[], &fields);
        }
        plan
    }

    /// Number of scheduled rows.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the plan schedules no rows.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Fields per scheduled row (0 for an empty plan).
    fn ncols(&self) -> usize {
        self.fields.len().checked_div(self.order.len()).unwrap_or(0)
    }

    /// The row at schedule position `i` (panics if `i >= len()`).
    pub fn row(&self, i: usize) -> RowPlan<'_> {
        let w = self.ncols();
        RowPlan {
            row: self.order[i] as usize,
            fields: &self.fields[i * w..(i + 1) * w],
        }
    }

    /// The scheduled rows, in schedule order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = RowPlan<'_>> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// Shared-prefix identity of every scheduled row, in schedule order.
    ///
    /// The key for a row is a hash over its first `depth` scheduled
    /// `(field, value)` pairs, so two rows receive equal keys exactly when
    /// they serialize the same leading fields with the same values — i.e.
    /// when their prompts share a prefix at least `depth` fields deep. This
    /// is the routing tag a sharded serving layer needs: dispatching rows
    /// with equal keys to the same replica preserves the prefix locality the
    /// solver created (`llmqo-cluster`'s `PrefixAffinity` policy consumes
    /// these keys).
    ///
    /// `depth` is clamped to each row's field count; `depth == 0` puts every
    /// row in one group. Keys say nothing about *adjacent* hits — they
    /// capture group identity, not schedule position.
    ///
    /// # Panics
    ///
    /// Panics if the plan references rows or fields outside `table` (call
    /// [`validate`](ReorderPlan::validate) first for untrusted plans).
    pub fn prefix_keys(&self, table: &ReorderTable, depth: usize) -> Vec<u64> {
        self.rows()
            .map(|rp| {
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for &f in rp.fields.iter().take(depth) {
                    let v = table.col_values(f as usize)[rp.row].as_u32();
                    for b in f.to_le_bytes().into_iter().chain(v.to_le_bytes()) {
                        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                    }
                }
                h
            })
            .collect()
    }

    /// Checks that this plan is a valid schedule for `table`: a permutation
    /// of its rows, each carrying a permutation of all its columns.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlanError`] found.
    pub fn validate(&self, table: &ReorderTable) -> Result<(), PlanError> {
        if self.len() != table.nrows() {
            return Err(PlanError::RowCount {
                expected: table.nrows(),
                got: self.len(),
            });
        }
        let mut seen_rows = vec![false; table.nrows()];
        let mut seen_cols = vec![false; table.ncols()];
        for (position, rp) in self.rows().enumerate() {
            if rp.row >= table.nrows() || seen_rows[rp.row] {
                return Err(PlanError::NotARowPermutation { row: rp.row });
            }
            seen_rows[rp.row] = true;
            if rp.fields.len() != table.ncols() {
                return Err(PlanError::NotAFieldPermutation { position });
            }
            seen_cols.fill(false);
            for &f in rp.fields {
                let f = f as usize;
                if f >= table.ncols() || seen_cols[f] {
                    return Err(PlanError::NotAFieldPermutation { position });
                }
                seen_cols[f] = true;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Cell;
    use crate::ValueId;

    fn table(nrows: usize, ncols: usize) -> ReorderTable {
        let cols = (0..ncols).map(|c| format!("c{c}")).collect();
        let mut t = ReorderTable::new(cols).unwrap();
        for r in 0..nrows {
            let row = (0..ncols)
                .map(|c| Cell::new(ValueId::from_raw((r * ncols + c) as u32), 1))
                .collect();
            t.push_row(row).unwrap();
        }
        t
    }

    #[test]
    fn identity_is_valid() {
        let t = table(4, 3);
        assert!(ReorderPlan::identity(&t).validate(&t).is_ok());
    }

    #[test]
    fn row_count_mismatch_rejected() {
        let t = table(3, 2);
        let p = ReorderPlan::from_rows([(0, [0, 1]), (1, [0, 1])]);
        assert_eq!(
            p.validate(&t),
            Err(PlanError::RowCount {
                expected: 3,
                got: 2
            })
        );
    }

    #[test]
    fn duplicate_row_rejected() {
        let t = table(2, 2);
        let p = ReorderPlan::from_rows([(0, [0, 1]), (0, [0, 1])]);
        assert_eq!(
            p.validate(&t),
            Err(PlanError::NotARowPermutation { row: 0 })
        );
    }

    #[test]
    fn out_of_range_row_rejected() {
        let t = table(2, 2);
        let p = ReorderPlan::from_rows([(0, [0, 1]), (7, [0, 1])]);
        assert_eq!(
            p.validate(&t),
            Err(PlanError::NotARowPermutation { row: 7 })
        );
    }

    #[test]
    fn short_field_list_rejected() {
        let t = table(1, 3);
        let p = ReorderPlan::from_rows([(0, [0, 1])]);
        assert_eq!(
            p.validate(&t),
            Err(PlanError::NotAFieldPermutation { position: 0 })
        );
    }

    #[test]
    fn duplicate_field_rejected() {
        let t = table(1, 2);
        let p = ReorderPlan::from_rows([(0, [1, 1])]);
        assert_eq!(
            p.validate(&t),
            Err(PlanError::NotAFieldPermutation { position: 0 })
        );
    }

    #[test]
    fn permuted_fields_accepted() {
        let t = table(2, 3);
        let p = ReorderPlan::from_rows([(1, [0, 1, 2]), (0, [2, 0, 1])]);
        assert!(p.validate(&t).is_ok());
        let rows: Vec<(usize, &[u32])> = p.rows().map(|rp| (rp.row, rp.fields)).collect();
        assert_eq!(rows, [(1, &[0, 1, 2][..]), (0, &[2, 0, 1][..])]);
    }

    #[test]
    fn errors_display() {
        for e in [
            PlanError::RowCount {
                expected: 1,
                got: 2,
            },
            PlanError::NotARowPermutation { row: 3 },
            PlanError::NotAFieldPermutation { position: 0 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn prefix_keys_group_rows_sharing_leading_cells() {
        // Rows 0..4: leading value repeats in pairs; second column unique.
        let mut t = ReorderTable::new(vec!["a".into(), "b".into()]).unwrap();
        for r in 0..4u32 {
            t.push_row(vec![
                Cell::new(ValueId::from_raw(r / 2), 3),
                Cell::new(ValueId::from_raw(100 + r), 2),
            ])
            .unwrap();
        }
        let plan = ReorderPlan::identity(&t);
        let keys = plan.prefix_keys(&t, 1);
        assert_eq!(keys.len(), 4);
        assert_eq!(keys[0], keys[1]);
        assert_eq!(keys[2], keys[3]);
        assert_ne!(keys[0], keys[2]);
        // Depth 2 separates rows with distinct second fields.
        let deep = plan.prefix_keys(&t, 2);
        assert_ne!(deep[0], deep[1]);
        // Depth 0 collapses everything into one routing group.
        let flat = plan.prefix_keys(&t, 0);
        assert!(flat.windows(2).all(|w| w[0] == w[1]));
        // Depth beyond the field count is clamped, not a panic.
        let clamped = plan.prefix_keys(&t, 99);
        assert_eq!(clamped, plan.prefix_keys(&t, 2));
    }

    #[test]
    fn prefix_keys_respect_field_order() {
        // Same values, but one row schedules its fields reversed: the
        // serialized prefixes differ, so the keys must differ.
        let mut t = ReorderTable::new(vec!["a".into(), "b".into()]).unwrap();
        for _ in 0..2 {
            t.push_row(vec![
                Cell::new(ValueId::from_raw(1), 3),
                Cell::new(ValueId::from_raw(2), 2),
            ])
            .unwrap();
        }
        let plan = ReorderPlan::from_rows([(0, [0, 1]), (1, [1, 0])]);
        let keys = plan.prefix_keys(&t, 1);
        assert_ne!(keys[0], keys[1]);
    }

    #[test]
    fn empty_plan_on_empty_table() {
        let t = table(0, 2);
        let p = ReorderPlan::identity(&t);
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert!(p.validate(&t).is_ok());
    }
}
