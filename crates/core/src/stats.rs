//! Table statistics (paper §4.2.2).
//!
//! GGR uses cardinality and value-length statistics — "generally widely
//! available" in databases — to (a) estimate a per-column `HITCOUNT` score
//! that predicts the column's PHC contribution, and (b) choose a fixed field
//! ordering for subtables once recursion stops early.

use crate::scratch::SlotMap;
use crate::table::{sq, ReorderTable};
use serde::{Deserialize, Serialize};

/// Statistics for one column.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    /// Number of distinct values.
    pub cardinality: usize,
    /// Mean token length of cell fragments.
    pub avg_len: f64,
    /// Mean of squared token lengths (the PHC unit).
    pub avg_sq_len: f64,
    /// Sum of token lengths.
    pub total_len: u64,
}

impl ColumnStats {
    /// The §4.2.2 score: expected PHC contribution of leading with this
    /// column. `avg(len)²` scaled by the expected number of duplicate rows
    /// (`n − cardinality`) — every repeat of a value after its first
    /// occurrence can become a hit of that length when rows are grouped.
    pub fn hitcount_score(&self, nrows: usize) -> f64 {
        let dup_rows = nrows.saturating_sub(self.cardinality) as f64;
        self.avg_sq_len * dup_rows
    }
}

/// Statistics for every column of a table.
///
/// # Examples
///
/// ```
/// use llmqo_core::{TableBuilder, TableStats};
/// let mut b = TableBuilder::new(vec!["id".into(), "category".into()]);
/// b.push_row(&["r1", "books"]);
/// b.push_row(&["r2", "books"]);
/// let (table, _) = b.finish();
/// let stats = TableStats::compute(&table);
/// assert_eq!(stats.column(0).cardinality, 2);
/// assert_eq!(stats.column(1).cardinality, 1);
/// // "category" has duplicates, so it scores higher as a prefix lead.
/// assert!(stats.column(1).hitcount_score(2) > stats.column(0).hitcount_score(2));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableStats {
    nrows: usize,
    columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Computes statistics with one columnar pass per column; distinct
    /// values are counted with a reusable open-addressing slot map.
    pub fn compute(table: &ReorderTable) -> Self {
        let n = table.nrows();
        let mut map = SlotMap::default();
        let columns = (0..table.ncols())
            .map(|c| {
                map.begin(n);
                let mut total_len = 0u64;
                let mut total_sq = 0f64;
                for (v, &len) in table.col_values(c).iter().zip(table.col_lens(c)) {
                    map.insert(u64::from(v.as_u32()));
                    total_len += u64::from(len);
                    total_sq += sq(len) as f64;
                }
                ColumnStats {
                    cardinality: map.len() as usize,
                    avg_len: if n == 0 {
                        0.0
                    } else {
                        total_len as f64 / n as f64
                    },
                    avg_sq_len: if n == 0 { 0.0 } else { total_sq / n as f64 },
                    total_len,
                }
            })
            .collect();
        TableStats { nrows: n, columns }
    }

    /// Number of rows the statistics describe.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Statistics of column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn column(&self, c: usize) -> &ColumnStats {
        &self.columns[c]
    }

    /// All column statistics, in schema order.
    pub fn columns(&self) -> &[ColumnStats] {
        &self.columns
    }

    /// Columns ordered by descending `hitcount_score` — the fixed field
    /// ordering GGR falls back to when recursion stops (§4.2.2). Ties break
    /// toward lower column index for determinism.
    pub fn stat_field_order(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.columns.len() as u32).collect();
        order.sort_by(|&a, &b| {
            let sa = self.columns[a as usize].hitcount_score(self.nrows);
            let sb = self.columns[b as usize].hitcount_score(self.nrows);
            sb.partial_cmp(&sa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Cell;
    use crate::ValueId;

    fn c(id: u32, len: u32) -> Cell {
        Cell::new(ValueId::from_raw(id), len)
    }

    fn table(rows: &[&[(u32, u32)]]) -> ReorderTable {
        let m = rows[0].len();
        let cols = (0..m).map(|i| format!("c{i}")).collect();
        let mut t = ReorderTable::new(cols).unwrap();
        for row in rows {
            t.push_row(row.iter().map(|&(id, len)| c(id, len)).collect())
                .unwrap();
        }
        t
    }

    #[test]
    fn cardinality_and_lengths() {
        let t = table(&[&[(0, 2), (10, 4)], &[(1, 2), (10, 4)], &[(0, 2), (11, 6)]]);
        let s = TableStats::compute(&t);
        assert_eq!(s.nrows(), 3);
        assert_eq!(s.column(0).cardinality, 2);
        assert_eq!(s.column(1).cardinality, 2);
        assert!((s.column(0).avg_len - 2.0).abs() < 1e-12);
        assert!((s.column(1).avg_len - 14.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.column(0).total_len, 6);
    }

    #[test]
    fn empty_table_stats() {
        let t = ReorderTable::new(vec!["a".into()]).unwrap();
        let s = TableStats::compute(&t);
        assert_eq!(s.column(0).cardinality, 0);
        assert_eq!(s.column(0).avg_len, 0.0);
        assert_eq!(s.column(0).hitcount_score(0), 0.0);
    }

    #[test]
    fn all_unique_scores_zero() {
        let t = table(&[&[(0, 5)], &[(1, 5)], &[(2, 5)]]);
        let s = TableStats::compute(&t);
        assert_eq!(s.column(0).hitcount_score(3), 0.0);
    }

    #[test]
    fn stat_order_prefers_long_duplicated_columns() {
        // col0: unique short ids; col1: one long value repeated everywhere.
        let t = table(&[
            &[(0, 2), (10, 50)],
            &[(1, 2), (10, 50)],
            &[(2, 2), (10, 50)],
        ]);
        let s = TableStats::compute(&t);
        assert_eq!(s.stat_field_order(), vec![1, 0]);
    }

    #[test]
    fn stat_order_tie_breaks_by_index() {
        let t = table(&[&[(0, 3), (5, 3)], &[(0, 3), (5, 3)]]);
        let s = TableStats::compute(&t);
        assert_eq!(s.stat_field_order(), vec![0, 1]);
    }

    #[test]
    fn avg_sq_len_is_mean_of_squares() {
        let t = table(&[&[(0, 3)], &[(1, 5)]]);
        let s = TableStats::compute(&t);
        assert!((s.column(0).avg_sq_len - (9.0 + 25.0) / 2.0).abs() < 1e-12);
    }
}
