//! The prefix hit count objective (paper Eq. 1–2).
//!
//! For a scheduled list of rows `L`, row `r`'s hit is the sum of **squared**
//! token lengths of its leading cells that exactly match row `r−1`'s leading
//! cells, stopping at the first mismatch. `PHC(L)` sums hits over all rows.
//! Squared lengths model the quadratic cost of attention over a prompt
//! prefix; the *linear* sum of matched tokens is also reported because that
//! is what serving engines expose as the prefix hit **rate** (paper Table 2).
//!
//! A cell matches only if both its **column and value** are identical — the
//! serialized fragment includes the field name, so equal values in different
//! fields do not produce equal tokens.

use crate::plan::ReorderPlan;
use crate::table::{sq, Cell, ReorderTable};
use serde::{Deserialize, Serialize};

/// A materialized scheduled row: `(column index, cell)` pairs in prompt order.
pub(crate) type OrderedRow = Vec<(u32, Cell)>;

/// Result of evaluating the PHC objective over a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PhcReport {
    /// The paper's objective: Σ rows Σ matched-prefix cells len².
    pub phc: u64,
    /// Linear token count of matched prefixes (numerator of the hit rate).
    pub hit_tokens: u64,
    /// Total token count of all scheduled cells (denominator of the hit rate).
    pub total_tokens: u64,
}

impl PhcReport {
    /// Fraction of field tokens covered by matched prefixes, in `[0, 1]`.
    ///
    /// Returns `0.0` for an empty schedule. Note this is the *field-level*
    /// hit rate; end-to-end rates measured by the serving simulator also
    /// include the shared instruction prefix and block-granularity effects.
    pub fn hit_rate(&self) -> f64 {
        if self.total_tokens == 0 {
            0.0
        } else {
            self.hit_tokens as f64 / self.total_tokens as f64
        }
    }
}

/// Number of leading cells of `cur` that exactly match `prev` (column and
/// value), i.e. the `c` of Eq. 2.
pub fn hit_prefix_cells(prev: &[(u32, Cell)], cur: &[(u32, Cell)]) -> usize {
    prev.iter()
        .zip(cur.iter())
        .take_while(|((pc, pv), (cc, cv))| pc == cc && pv.value == cv.value)
        .count()
}

/// Evaluates Eq. 1 over already-materialized ordered rows.
///
/// # Examples
///
/// ```
/// use llmqo_core::{phc_of_rows, Cell, ValueId};
/// let v = |id, len| Cell::new(ValueId::from_raw(id), len);
/// let rows = vec![
///     vec![(0, v(7, 3)), (1, v(1, 2))],
///     vec![(0, v(7, 3)), (1, v(2, 2))], // matches first cell: 3² = 9
/// ];
/// let report = phc_of_rows(&rows);
/// assert_eq!(report.phc, 9);
/// assert_eq!(report.hit_tokens, 3);
/// assert_eq!(report.total_tokens, 10);
/// ```
pub fn phc_of_rows(rows: &[OrderedRow]) -> PhcReport {
    let mut report = PhcReport::default();
    for (i, row) in rows.iter().enumerate() {
        report.total_tokens += row.iter().map(|(_, c)| u64::from(c.len)).sum::<u64>();
        if i == 0 {
            continue;
        }
        let matched = hit_prefix_cells(&rows[i - 1], row);
        for (_, cell) in &row[..matched] {
            report.phc += cell.sq_len();
            report.hit_tokens += u64::from(cell.len);
        }
    }
    report
}

/// Evaluates Eq. 1 for a [`ReorderPlan`] against its table.
///
/// This is the ground-truth scorer: solvers may *claim* a PHC (exactly for
/// OPHR, estimated for GGR under inexact functional dependencies), and tests
/// compare those claims against this function.
///
/// # Panics
///
/// Panics if the plan indexes out of bounds; call
/// [`ReorderPlan::validate`] first for untrusted plans.
pub fn phc_of_plan(table: &ReorderTable, plan: &ReorderPlan) -> PhcReport {
    let mut report = PhcReport::default();
    for (i, rp) in plan.rows().enumerate() {
        // The previous row, while its leading cells match this row's.
        let mut prev = (i > 0).then(|| plan.row(i - 1));
        for (k, &f) in rp.fields.iter().enumerate() {
            let values = table.col_values(f as usize);
            let len = table.col_lens(f as usize)[rp.row];
            report.total_tokens += u64::from(len);
            prev = prev.filter(|p| p.fields.get(k) == Some(&f) && values[p.row] == values[rp.row]);
            if prev.is_some() {
                report.phc += sq(len);
                report.hit_tokens += u64::from(len);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ValueId;

    fn c(id: u32, len: u32) -> Cell {
        Cell::new(ValueId::from_raw(id), len)
    }

    #[test]
    fn empty_schedule_is_zero() {
        let report = phc_of_rows(&[]);
        assert_eq!(report, PhcReport::default());
        assert_eq!(report.hit_rate(), 0.0);
    }

    #[test]
    fn single_row_has_no_hits() {
        let rows = vec![vec![(0, c(1, 5)), (1, c(2, 5))]];
        let report = phc_of_rows(&rows);
        assert_eq!(report.phc, 0);
        assert_eq!(report.total_tokens, 10);
    }

    #[test]
    fn full_match_sums_all_squares() {
        let row: OrderedRow = vec![(0, c(1, 2)), (1, c(2, 3))];
        let rows = vec![row.clone(), row];
        let report = phc_of_rows(&rows);
        assert_eq!(report.phc, 4 + 9);
        assert_eq!(report.hit_tokens, 5);
        assert!((report.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mismatch_stops_the_prefix() {
        // Second cell differs: only the first counts. Third would match but
        // is not consecutive (Eq. 2: must be a prefix).
        let rows = vec![
            vec![(0, c(1, 2)), (1, c(2, 3)), (2, c(3, 4))],
            vec![(0, c(1, 2)), (1, c(9, 3)), (2, c(3, 4))],
        ];
        let report = phc_of_rows(&rows);
        assert_eq!(report.phc, 4);
        assert_eq!(report.hit_tokens, 2);
    }

    #[test]
    fn same_value_different_column_is_not_a_hit() {
        let rows = vec![vec![(0, c(1, 2))], vec![(1, c(1, 2))]];
        assert_eq!(phc_of_rows(&rows).phc, 0);
    }

    #[test]
    fn hits_are_pairwise_with_previous_row_only() {
        // Row 3 matches row 1 but not row 2: no hit (Eq. 2 compares r−1).
        let rows = vec![vec![(0, c(1, 3))], vec![(0, c(2, 3))], vec![(0, c(1, 3))]];
        assert_eq!(phc_of_rows(&rows).phc, 0);
    }

    #[test]
    fn figure_1a_worst_case() {
        // Paper Fig. 1a: first field unique per row, remaining m−1 fields
        // constant. Fixed (schema) order: PHC = 0. Optimized order (shared
        // fields first): PHC = (n−1)(m−1) with unit lengths.
        let n = 5;
        let m = 4;
        let mut fixed = Vec::new();
        let mut better = Vec::new();
        for r in 0..n {
            let unique = (0u32, c(100 + r, 1));
            let shared: Vec<(u32, Cell)> = (1..m).map(|f| (f, c(f, 1))).collect();
            let mut fixed_row = vec![unique];
            fixed_row.extend(shared.clone());
            fixed.push(fixed_row);
            let mut better_row = shared;
            better_row.push(unique);
            better.push(better_row);
        }
        assert_eq!(phc_of_rows(&fixed).phc, 0);
        assert_eq!(
            phc_of_rows(&better).phc,
            u64::from(n - 1) * u64::from(m - 1)
        );
    }

    #[test]
    fn plan_scorer_matches_row_scorer() {
        let mut t = ReorderTable::new(vec!["a".into(), "b".into()]).unwrap();
        t.push_row(vec![c(1, 2), c(2, 3)]).unwrap();
        t.push_row(vec![c(1, 2), c(3, 3)]).unwrap();
        t.push_row(vec![c(4, 2), c(3, 3)]).unwrap();

        let plan = ReorderPlan::from_rows([(2, [1, 0]), (1, [1, 0]), (0, [0, 1])]);
        let materialized: Vec<OrderedRow> = plan
            .rows()
            .map(|rp| {
                rp.fields
                    .iter()
                    .map(|&f| (f, t.cell(rp.row, f as usize)))
                    .collect()
            })
            .collect();
        assert_eq!(phc_of_plan(&t, &plan), phc_of_rows(&materialized));
        // Row 1 follows row 2 sharing field 1 value 3 (len 3): 9.
        assert_eq!(phc_of_plan(&t, &plan).phc, 9);
    }

    #[test]
    fn identity_plan_counts_adjacent_duplicates() {
        let mut t = ReorderTable::new(vec!["a".into()]).unwrap();
        t.push_row(vec![c(1, 4)]).unwrap();
        t.push_row(vec![c(1, 4)]).unwrap();
        t.push_row(vec![c(1, 4)]).unwrap();
        let plan = ReorderPlan::identity(&t);
        assert_eq!(phc_of_plan(&t, &plan).phc, 2 * 16);
    }

    #[test]
    fn zero_length_cells_contribute_nothing() {
        let rows = vec![vec![(0, c(1, 0))], vec![(0, c(1, 0))]];
        let report = phc_of_rows(&rows);
        assert_eq!(report.phc, 0);
        assert_eq!(report.hit_tokens, 0);
        assert_eq!(report.total_tokens, 0);
        assert_eq!(report.hit_rate(), 0.0);
    }
}
