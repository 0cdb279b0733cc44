//! The optimizer's view of an input table: interned cell values with token
//! lengths.
//!
//! A [`ReorderTable`] is what an analytics engine hands to the reordering
//! solvers: an n×m matrix where each cell carries an exact-match identity
//! ([`ValueId`]) and the token length of its serialized prompt fragment.
//! Actual strings live in the engine (or an [`Interner`]); the solvers only
//! ever compare ids and square lengths.

use crate::intern::{Interner, ValueId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One cell of a [`ReorderTable`]: an interned value and its token length.
///
/// `len` is the token count of the *serialized prompt fragment* for this cell
/// (for example `"product_title": "Acme Anvil", ` under the paper's JSON
/// encoding, §5) — the unit in which PHC and cache hits are measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Cell {
    /// Exact-match identity of the cell value.
    pub value: ValueId,
    /// Token length of the serialized fragment.
    pub len: u32,
}

impl Cell {
    /// Creates a cell.
    ///
    /// Well-formed encodings give every [`ValueId`] exactly one token length
    /// (a fragment's token count is a property of the fragment). A lone cell
    /// cannot check that; [`ReorderTable::push_row`] enforces it table-wide
    /// in debug builds.
    pub fn new(value: ValueId, len: u32) -> Self {
        Cell { value, len }
    }

    /// The squared token length, the cell's PHC contribution when hit (Eq. 2).
    pub fn sq_len(&self) -> u64 {
        u64::from(self.len) * u64::from(self.len)
    }
}

/// Errors from building or validating a [`ReorderTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// A pushed row had a different number of cells than the table has
    /// columns.
    ArityMismatch {
        /// Number of columns the table declares.
        expected: usize,
        /// Number of cells in the offending row.
        got: usize,
    },
    /// The table has no columns.
    NoColumns,
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::ArityMismatch { expected, got } => {
                write!(f, "row has {got} cells but table has {expected} columns")
            }
            TableError::NoColumns => write!(f, "table must have at least one column"),
        }
    }
}

impl std::error::Error for TableError {}

/// An n×m table of interned cells, the input to every reordering solver.
///
/// Cells are stored twice: a row-major array serving the row-oriented API
/// ([`ReorderTable::row`], request materialization) and a column-major
/// mirror — one flat [`ValueId`] array and one flat squared-length array per
/// column — built incrementally as rows are pushed. The solvers' inner loops
/// (grouping rows by a column's value, scoring `HITCOUNT`, lexicographic row
/// sorts) scan one column across many rows, so the mirror turns their hot
/// path into contiguous 4/8-byte reads instead of strided 8-byte `Cell`
/// loads. Both stores cost O(n·m) once, at encode time.
///
/// Row and column indices are stable: a [`ReorderPlan`](crate::ReorderPlan)
/// refers back to them, which is how query semantics survive reordering.
///
/// # Examples
///
/// ```
/// use llmqo_core::{Cell, ReorderTable, ValueId};
///
/// let mut t = ReorderTable::new(vec!["a".into(), "b".into()]).unwrap();
/// t.push_row(vec![
///     Cell::new(ValueId::from_raw(0), 3),
///     Cell::new(ValueId::from_raw(1), 5),
/// ])
/// .unwrap();
/// assert_eq!(t.nrows(), 1);
/// assert_eq!(t.ncols(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReorderTable {
    columns: Vec<String>,
    cells: Vec<Cell>,
    nrows: usize,
    /// Column-major mirror: `col_values[c][r]` is the value of cell `(r, c)`.
    col_values: Vec<Vec<ValueId>>,
    /// Column-major mirror: `col_sq[c][r]` is the squared length of `(r, c)`.
    col_sq: Vec<Vec<u64>>,
    /// Debug-only registry enforcing the one-length-per-[`ValueId`]
    /// invariant at [`push_row`](ReorderTable::push_row) time.
    #[cfg(debug_assertions)]
    val_lens: LenRegistry,
}

/// Debug-build registry mapping each [`ValueId`] to the single token length
/// it was first pushed with. Deliberately invisible to equality: it is
/// derived state, and ill-formed tables built through
/// [`ReorderTable::push_row_unchecked`] must still compare by cells alone.
#[cfg(debug_assertions)]
#[derive(Debug, Clone, Default)]
struct LenRegistry {
    /// `len + 1` per raw id; 0 means unseen. Ids are dense interner indices.
    lens: Vec<u32>,
}

#[cfg(debug_assertions)]
impl LenRegistry {
    /// Records `cell`'s length, panicking if this id was seen with another.
    fn observe(&mut self, cell: &Cell) {
        let idx = cell.value.as_u32() as usize;
        if self.lens.len() <= idx {
            self.lens.resize(idx + 1, 0);
        }
        let slot = &mut self.lens[idx];
        if *slot == 0 {
            *slot = cell.len + 1;
        } else {
            assert_eq!(
                *slot - 1,
                cell.len,
                "ill-formed producer: {} pushed with token length {} but was \
                 first seen with length {} (one length per ValueId; use \
                 push_row_unchecked to bypass in tests)",
                cell.value,
                cell.len,
                *slot - 1,
            );
        }
    }
}

#[cfg(debug_assertions)]
impl PartialEq for LenRegistry {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

#[cfg(debug_assertions)]
impl Eq for LenRegistry {}

impl ReorderTable {
    /// Creates an empty table with the given column names.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::NoColumns`] if `columns` is empty.
    pub fn new(columns: Vec<String>) -> Result<Self, TableError> {
        if columns.is_empty() {
            return Err(TableError::NoColumns);
        }
        let ncols = columns.len();
        Ok(ReorderTable {
            columns,
            cells: Vec::new(),
            nrows: 0,
            col_values: vec![Vec::new(); ncols],
            col_sq: vec![Vec::new(); ncols],
            #[cfg(debug_assertions)]
            val_lens: LenRegistry::default(),
        })
    }

    /// Reserves capacity for `additional` more rows in both the row-major
    /// store and the column-major mirror (used by encoders that know the row
    /// count up front).
    pub fn reserve_rows(&mut self, additional: usize) {
        self.cells.reserve(additional * self.columns.len());
        for c in 0..self.columns.len() {
            self.col_values[c].reserve(additional);
            self.col_sq[c].reserve(additional);
        }
    }

    /// Empties the table for a new set of rows: keeps the column names and
    /// every buffer's capacity, and forgets the rows, their column mirror
    /// and, in debug builds, every id's registered length — ids are local
    /// to each fill, so a refill may give an id another length.
    pub fn clear(&mut self) {
        self.cells.clear();
        self.nrows = 0;
        for (values, sq) in self.col_values.iter_mut().zip(&mut self.col_sq) {
            values.clear();
            sq.clear();
        }
        #[cfg(debug_assertions)]
        self.val_lens.lens.clear();
    }

    /// Appends a row.
    ///
    /// In debug builds this additionally enforces the one-length-per-
    /// [`ValueId`] invariant: a well-formed encoder derives each cell's `len`
    /// from its fragment, so an id recurring with a different length means
    /// the producer is broken — fail at the push, not deep inside a solver.
    /// Release builds skip the check ([`push_row_unchecked`] skips it
    /// everywhere, for tests that need ill-formed tables on purpose).
    ///
    /// [`push_row_unchecked`]: ReorderTable::push_row_unchecked
    ///
    /// # Errors
    ///
    /// Returns [`TableError::ArityMismatch`] if the row length differs from
    /// the number of columns.
    ///
    /// # Panics
    ///
    /// Debug builds panic if a [`ValueId`] recurs with a different length.
    pub fn push_row(&mut self, row: Vec<Cell>) -> Result<(), TableError> {
        self.push_row_slice(&row)
    }

    /// [`push_row`](ReorderTable::push_row) from a borrowed row, so a
    /// producer can reuse one buffer instead of allocating a `Vec` per row.
    /// Same arity check and debug-build length audit.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::ArityMismatch`] if the row length differs from
    /// the number of columns.
    ///
    /// # Panics
    ///
    /// Debug builds panic if a [`ValueId`] recurs with a different length.
    pub fn push_row_slice(&mut self, row: &[Cell]) -> Result<(), TableError> {
        #[cfg(debug_assertions)]
        if row.len() == self.columns.len() {
            for cell in row {
                self.val_lens.observe(cell);
            }
        }
        self.push_slice_unchecked(row)
    }

    /// [`push_row`](ReorderTable::push_row) without the debug-mode
    /// one-length-per-[`ValueId`] validation. Only for tests that exercise
    /// solver behaviour on deliberately ill-formed tables.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::ArityMismatch`] if the row length differs from
    /// the number of columns.
    pub fn push_row_unchecked(&mut self, row: Vec<Cell>) -> Result<(), TableError> {
        self.push_slice_unchecked(&row)
    }

    fn push_slice_unchecked(&mut self, row: &[Cell]) -> Result<(), TableError> {
        if row.len() != self.columns.len() {
            return Err(TableError::ArityMismatch {
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        for (c, cell) in row.iter().enumerate() {
            self.col_values[c].push(cell.value);
            self.col_sq[c].push(cell.sq_len());
        }
        self.cells.extend_from_slice(row);
        self.nrows += 1;
        Ok(())
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.columns.len()
    }

    /// Column names, in schema order.
    pub fn column_names(&self) -> &[String] {
        &self.columns
    }

    /// The cell at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn cell(&self, row: usize, col: usize) -> Cell {
        assert!(row < self.nrows, "row {row} out of bounds ({})", self.nrows);
        assert!(
            col < self.columns.len(),
            "col {col} out of bounds ({})",
            self.columns.len()
        );
        self.cells[row * self.columns.len() + col]
    }

    /// The cells of one row, in schema column order.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> &[Cell] {
        assert!(row < self.nrows, "row {row} out of bounds ({})", self.nrows);
        let m = self.columns.len();
        &self.cells[row * m..(row + 1) * m]
    }

    /// Every cell, row-major: cell `(r, c)` at `r · ncols + c`.
    pub(crate) fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Total token length of all cells (denominator of field-level hit rates).
    pub fn total_tokens(&self) -> u64 {
        self.cells.iter().map(|c| u64::from(c.len)).sum()
    }

    /// Column-major value ids of column `c`: `col_values(c)[r]` is the value
    /// of cell `(r, c)`. Contiguous, for solver inner loops.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col_values(&self, c: usize) -> &[ValueId] {
        &self.col_values[c]
    }

    /// Column-major squared token lengths of column `c` (each cell's PHC
    /// contribution when hit, Eq. 2). Contiguous, for solver inner loops.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col_sq_lens(&self, c: usize) -> &[u64] {
        &self.col_sq[c]
    }

    /// Restricts the table to the first `n` rows (used by the paper's
    /// Appendix D.1 OPHR comparison on dataset prefixes).
    pub fn head(&self, n: usize) -> ReorderTable {
        let n = n.min(self.nrows);
        let m = self.columns.len();
        ReorderTable {
            columns: self.columns.clone(),
            cells: self.cells[..n * m].to_vec(),
            nrows: n,
            col_values: self.col_values.iter().map(|v| v[..n].to_vec()).collect(),
            col_sq: self.col_sq.iter().map(|v| v[..n].to_vec()).collect(),
            #[cfg(debug_assertions)]
            val_lens: self.val_lens.clone(),
        }
    }

    /// Restricts the table to the given rows, in the given order — the
    /// definition of what the relational executor hands a solver for a
    /// batch: one representative row per deduplication group of the full
    /// encode (the executor builds that table directly; its tests compare
    /// against this). Duplicate indices are allowed (the result is then not
    /// a sub-permutation, which the solvers do not require).
    ///
    /// # Panics
    ///
    /// Panics if any index in `rows` is out of bounds.
    pub fn select_rows(&self, rows: &[usize]) -> ReorderTable {
        let m = self.columns.len();
        let mut out = ReorderTable::new(self.columns.clone()).expect("source table has columns");
        out.reserve_rows(rows.len());
        for &r in rows {
            assert!(r < self.nrows, "row {r} out of bounds ({})", self.nrows);
            out.push_slice_unchecked(&self.cells[r * m..(r + 1) * m])
                .expect("row arity matches by construction");
        }
        out
    }

    /// Restricts the table to the given columns, in the given order (used by
    /// Appendix D.1, which cuts PDMX to 10 columns).
    ///
    /// # Panics
    ///
    /// Panics if any index in `cols` is out of bounds.
    pub fn select_columns(&self, cols: &[usize]) -> ReorderTable {
        let columns: Vec<String> = cols.iter().map(|&c| self.columns[c].clone()).collect();
        let mut out = ReorderTable::new(columns).expect("non-empty column selection");
        for r in 0..self.nrows {
            let row = cols.iter().map(|&c| self.cell(r, c)).collect();
            // Unchecked: the source already passed (or deliberately skipped)
            // the length validation; projecting cannot introduce conflicts.
            out.push_row_unchecked(row)
                .expect("arity matches selection");
        }
        out
    }
}

/// Convenience builder that interns string cells and assigns token lengths.
///
/// Token lengths are approximated as `max(1, bytes/4)`; engines that know
/// real fragment token counts build a [`ReorderTable`] directly.
///
/// # Examples
///
/// ```
/// use llmqo_core::TableBuilder;
/// let mut b = TableBuilder::new(vec!["review".into(), "title".into()]);
/// b.push_row(&["great", "Anvil"]);
/// b.push_row(&["bad", "Anvil"]);
/// let (table, interner) = b.finish();
/// assert_eq!(table.nrows(), 2);
/// // "Anvil" interned once:
/// assert_eq!(table.cell(0, 1).value, table.cell(1, 1).value);
/// assert_eq!(interner.len(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TableBuilder {
    columns: Vec<String>,
    interner: Interner,
    /// Row-major cells of every pushed row.
    cells: Vec<Cell>,
}

impl TableBuilder {
    /// Creates a builder for a table with the given column names.
    pub fn new(columns: Vec<String>) -> Self {
        TableBuilder {
            columns,
            interner: Interner::new(),
            cells: Vec::new(),
        }
    }

    /// Pushes a row of string cells with the byte-based length heuristic
    /// (`max(1, bytes/4)` tokens).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the number of columns.
    pub fn push_row(&mut self, values: &[&str]) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row arity must match column count"
        );
        for v in values {
            let cell = Cell::new(self.interner.intern(v), (v.len() / 4).max(1) as u32);
            self.cells.push(cell);
        }
    }

    /// Finishes the build, returning the table and the interner that maps
    /// [`ValueId`]s back to strings.
    ///
    /// # Panics
    ///
    /// Panics if the builder was created with no columns.
    pub fn finish(self) -> (ReorderTable, Interner) {
        let mut table = ReorderTable::new(self.columns).expect("builder requires columns");
        for row in self.cells.chunks_exact(table.ncols()) {
            table
                .push_row_slice(row)
                .expect("builder rows have fixed arity");
        }
        (table, self.interner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(v: u32, len: u32) -> Cell {
        Cell::new(ValueId::from_raw(v), len)
    }

    #[test]
    fn no_columns_is_an_error() {
        assert_eq!(ReorderTable::new(vec![]), Err(TableError::NoColumns));
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let mut t = ReorderTable::new(vec!["a".into()]).unwrap();
        let err = t.push_row(vec![cell(0, 1), cell(1, 1)]).unwrap_err();
        assert_eq!(
            err,
            TableError::ArityMismatch {
                expected: 1,
                got: 2
            }
        );
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn cell_and_row_access() {
        let mut t = ReorderTable::new(vec!["a".into(), "b".into()]).unwrap();
        t.push_row(vec![cell(0, 2), cell(1, 3)]).unwrap();
        t.push_row(vec![cell(2, 4), cell(1, 3)]).unwrap();
        assert_eq!(t.cell(1, 0), cell(2, 4));
        assert_eq!(t.row(0), &[cell(0, 2), cell(1, 3)]);
        assert_eq!(t.total_tokens(), 2 + 3 + 4 + 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_row_panics() {
        let t = ReorderTable::new(vec!["a".into()]).unwrap();
        let _ = t.cell(0, 0);
    }

    #[test]
    fn sq_len_squares() {
        assert_eq!(cell(0, 9).sq_len(), 81);
        assert_eq!(cell(0, 0).sq_len(), 0);
        // No overflow for large token counts.
        assert_eq!(cell(0, 100_000).sq_len(), 10_000_000_000);
    }

    #[test]
    fn head_truncates() {
        let mut t = ReorderTable::new(vec!["a".into()]).unwrap();
        for i in 0..5 {
            t.push_row(vec![cell(i, 1)]).unwrap();
        }
        assert_eq!(t.head(2).nrows(), 2);
        assert_eq!(t.head(99).nrows(), 5);
        assert_eq!(t.head(0).nrows(), 0);
    }

    #[test]
    fn select_rows_projects_in_order_and_keeps_mirror() {
        let mut t = ReorderTable::new(vec!["a".into(), "b".into()]).unwrap();
        for i in 0..4 {
            t.push_row(vec![cell(i, 1 + i), cell(10 + i, 2)]).unwrap();
        }
        let s = t.select_rows(&[3, 1, 3]);
        assert_eq!(s.nrows(), 3);
        assert_eq!(s.cell(0, 0), cell(3, 4));
        assert_eq!(s.cell(1, 0), cell(1, 2));
        assert_eq!(s.cell(2, 1), cell(13, 2));
        assert_eq!(
            s.col_values(0),
            &[
                ValueId::from_raw(3),
                ValueId::from_raw(1),
                ValueId::from_raw(3)
            ]
        );
        assert_eq!(s.col_sq_lens(0), &[16, 4, 16]);
        assert_eq!(t.select_rows(&[]).nrows(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn select_rows_out_of_bounds_panics() {
        let mut t = ReorderTable::new(vec!["a".into()]).unwrap();
        t.push_row(vec![cell(0, 1)]).unwrap();
        let _ = t.select_rows(&[1]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "one length per ValueId")]
    fn debug_push_row_rejects_conflicting_length() {
        let mut t = ReorderTable::new(vec!["a".into()]).unwrap();
        t.push_row(vec![cell(7, 3)]).unwrap();
        let _ = t.push_row(vec![cell(7, 4)]);
    }

    #[test]
    fn a_cleared_table_is_a_fresh_one_and_takes_ids_anew() {
        let columns = vec!["a".to_string(), "b".to_string()];
        let mut t = ReorderTable::new(columns.clone()).unwrap();
        for i in 0..4 {
            t.push_row(vec![cell(i, 1 + i), cell(9, 2)]).unwrap();
        }
        t.clear();
        let fresh = ReorderTable::new(columns).unwrap();
        assert_eq!(t, fresh);
        assert_eq!((t.nrows(), t.total_tokens()), (0, 0));
        assert!(t.col_values(1).is_empty() && t.col_sq_lens(0).is_empty());
        // Ids 0 and 9 were pushed with lengths 1 and 2; a refill numbers
        // its own ids, so the same raw ids take other lengths.
        t.push_row(vec![cell(0, 5), cell(9, 7)]).unwrap();
        assert_eq!(t.row(0), &[cell(0, 5), cell(9, 7)]);
        assert_eq!(t.col_sq_lens(1), &[49]);
    }

    #[test]
    fn push_row_accepts_consistent_lengths_and_unchecked_accepts_anything() {
        let mut t = ReorderTable::new(vec!["a".into(), "b".into()]).unwrap();
        t.push_row(vec![cell(7, 3), cell(8, 5)]).unwrap();
        t.push_row(vec![cell(7, 3), cell(9, 1)]).unwrap();
        // The escape hatch takes the conflicting length without panicking.
        t.push_row_unchecked(vec![cell(7, 99), cell(9, 1)]).unwrap();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.cell(2, 0).len, 99);
    }

    #[test]
    fn push_row_slice_matches_push_row() {
        let mut by_vec = ReorderTable::new(vec!["a".into(), "b".into()]).unwrap();
        let mut by_slice = by_vec.clone();
        let mut buf = Vec::new();
        for i in 0..4 {
            buf.clear();
            buf.extend([cell(i, 1 + i), cell(9, 2)]);
            by_vec.push_row(buf.clone()).unwrap();
            by_slice.push_row_slice(&buf).unwrap();
        }
        assert_eq!(by_vec, by_slice);
        assert_eq!(by_slice.col_sq_lens(0), &[1, 4, 9, 16]);
        assert_eq!(
            by_slice.push_row_slice(&[cell(0, 1)]),
            Err(TableError::ArityMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "one length per ValueId")]
    fn debug_push_row_slice_rejects_conflicting_length() {
        let mut t = ReorderTable::new(vec!["a".into()]).unwrap();
        t.push_row_slice(&[cell(7, 3)]).unwrap();
        let _ = t.push_row_slice(&[cell(7, 4)]);
    }

    #[test]
    fn select_columns_projects_in_order() {
        let mut t = ReorderTable::new(vec!["a".into(), "b".into(), "c".into()]).unwrap();
        t.push_row(vec![cell(0, 1), cell(1, 2), cell(2, 3)])
            .unwrap();
        let s = t.select_columns(&[2, 0]);
        assert_eq!(s.column_names(), &["c".to_string(), "a".to_string()]);
        assert_eq!(s.cell(0, 0), cell(2, 3));
        assert_eq!(s.cell(0, 1), cell(0, 1));
    }

    #[test]
    fn columnar_mirror_tracks_cells() {
        let mut t = ReorderTable::new(vec!["a".into(), "b".into()]).unwrap();
        t.reserve_rows(3);
        t.push_row(vec![cell(0, 2), cell(1, 3)]).unwrap();
        t.push_row(vec![cell(2, 4), cell(1, 3)]).unwrap();
        t.push_row(vec![cell(0, 2), cell(5, 7)]).unwrap();
        assert_eq!(
            t.col_values(0),
            &[
                ValueId::from_raw(0),
                ValueId::from_raw(2),
                ValueId::from_raw(0)
            ]
        );
        assert_eq!(t.col_sq_lens(0), &[4, 16, 4]);
        assert_eq!(t.col_sq_lens(1), &[9, 9, 49]);
        // head and select_columns keep the mirror consistent.
        let h = t.head(2);
        assert_eq!(
            h.col_values(1),
            &[ValueId::from_raw(1), ValueId::from_raw(1)]
        );
        assert_eq!(h.col_sq_lens(0), &[4, 16]);
        let s = t.select_columns(&[1]);
        assert_eq!(s.col_sq_lens(0), &[9, 9, 49]);
        for r in 0..t.nrows() {
            for c in 0..t.ncols() {
                assert_eq!(t.cell(r, c).value, t.col_values(c)[r]);
                assert_eq!(t.cell(r, c).sq_len(), t.col_sq_lens(c)[r]);
            }
        }
    }

    #[test]
    fn builder_interns_shared_values() {
        let mut b = TableBuilder::new(vec!["x".into(), "y".into()]);
        b.push_row(&["same", "one"]);
        b.push_row(&["same", "two"]);
        let (t, i) = b.finish();
        assert_eq!(t.cell(0, 0).value, t.cell(1, 0).value);
        assert_ne!(t.cell(0, 1).value, t.cell(1, 1).value);
        assert_eq!(i.len(), 3);
    }

    #[test]
    fn builder_len_is_bytes_over_four() {
        let mut b = TableBuilder::new(vec!["x".into()]);
        for v in ["", "abc", "abcdef", "abcdefgh"] {
            b.push_row(&[v]);
        }
        let (t, _) = b.finish();
        let lens: Vec<u32> = (0..4).map(|r| t.cell(r, 0).len).collect();
        assert_eq!(lens, [1, 1, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn builder_arity_panics() {
        let mut b = TableBuilder::new(vec!["x".into()]);
        b.push_row(&["a", "b"]);
    }
}
