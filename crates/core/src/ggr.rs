//! Greedy Group Recursion (paper §4.2, Algorithm 1).
//!
//! GGR approximates [`Ophr`](crate::Ophr) by committing, at every step, to
//! the single (value, column) group with the highest estimated hit count
//! instead of trying all of them:
//!
//! 1. `HITCOUNT(v, c, T, FD)` scores the group of rows holding `v` in column
//!    `c` as `tot_len · (|R_v| − 1)`, where `tot_len` adds `len(v)²` and the
//!    mean squared length of every column functionally equivalent to `c`
//!    (those columns ride along in the prefix for free — §4.2.1).
//! 2. The winning group is scheduled contiguously with `[c, inferred…]`
//!    leading each of its rows; GGR recurses on the remaining rows (all
//!    columns; *row-wise* recursion) and on the group minus the consumed
//!    columns (*column-wise* recursion).
//! 3. Recursion stops at configurable row/column depths (§4.2.2; the
//!    paper's evaluation uses row depth 4 and column depth 2, and mentions a
//!    0.1 M score threshold as an alternative this crate does not offer),
//!    falling back to a statistics-driven ordering of the remaining
//!    subtable.
//!
//! Two transcription fixes relative to the paper's pseudo-code, both obvious
//! from context: Algorithm 1 line 29 builds the output as
//! `[[v̂] + L_A[i]] + L_B`, indexing the *remainder* ordering with the
//! *group's* cardinality — the intended (and here implemented) construction
//! prepends the group values to `L_B` (the group's recursive ordering) and
//! appends `L_A`. Line 6 divides plain lengths by `|R_v|`; we average
//! *squared* lengths, the unit PHC is defined in (Eq. 2), which also makes
//! `HITCOUNT` exact whenever the FDs are exact.
//!
//! # Implementation notes (columnar core)
//!
//! This solver is plan-for-plan identical to the frozen direct transcription
//! of Algorithm 1 (`tests/oracles/ggr.rs`) but engineered like a database
//! operator: grouping scans the table's column-major
//! [`col_values`](ReorderTable::col_values)/[`col_lens`](ReorderTable::col_lens)
//! arrays, per-level `HashMap`s are replaced by an epoch-cleared
//! [`SlotMap`](crate::scratch) whose dense slots carry the per-group
//! accumulators, rest/sub-view filtering is a single O(n) value-compare pass
//! instead of `Vec::contains`, and all row/column index buffers come from a
//! per-solve pool, so steady-state recursion allocates nothing per row: two
//! flat arrays per solve. The plan is written once, top-down — the leading
//! fields of the current subtree sit on one prefix stack and each row is
//! emitted at its leaf, the winning group before the rest. The group scan
//! visits columns by an exact bound on their `HITCOUNT` and stops below the
//! best found. `HITCOUNT` float sums accumulate in the exact member order
//! the reference uses, so claimed scores match bit-for-bit (enforced by the
//! differential tests in `tests/solver_differential.rs`).

use crate::fd::FunctionalDeps;
use crate::plan::ReorderPlan;
use crate::scratch::{partition_rows_by_value, Scratch};
use crate::solver::{check_fd_arity, Reorderer, Solution, SolveError};
use crate::table::{sq, ReorderTable};
use crate::ValueId;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// How a stopped subtable is ordered (§4.2.2 fall-back).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FallbackOrdering {
    /// Recursive adaptive partitioning
    /// ([`adaptive_prefix_plan`](crate::adaptive_prefix_plan)): every value
    /// group picks its own next field, yielding per-row field orders. Our
    /// strongest refinement of the paper's statistics fall-back and the
    /// default; it escapes the `log(n)` prefix-entropy budget that caps any
    /// single sorted order on wide tables (PDMX-like).
    #[default]
    Adaptive,
    /// Fields by descending `avg(len²)·(n − cardinality)` score (the paper's
    /// §4.2.2 heuristic), rows sorted under that order.
    StatFixed,
}

/// Configuration for [`Ggr`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GgrConfig {
    /// Maximum depth of row-wise recursion (recursing on `T \ R_v`).
    /// `None` is unlimited. The paper's evaluation uses 4 (§6.5).
    pub max_row_depth: Option<usize>,
    /// Maximum depth of column-wise recursion (recursing on `R_v` minus the
    /// consumed columns). The paper's evaluation uses 2 (§6.5).
    pub max_col_depth: Option<usize>,
    /// Whether to exploit functional dependencies (§4.2.1). Disabling this
    /// is the FD ablation.
    pub use_fds: bool,
    /// Ordering applied to subtables once recursion stops.
    pub fallback: FallbackOrdering,
}

impl GgrConfig {
    /// The settings used in the paper's evaluation (§6.5): row depth 4,
    /// column depth 2, statistics-based fall-back, FDs enabled. (The
    /// fall-back is the adaptive distinct-prefix refinement; pass
    /// [`FallbackOrdering::StatFixed`] for the paper's plain heuristic.)
    pub fn paper() -> Self {
        GgrConfig {
            max_row_depth: Some(4),
            max_col_depth: Some(2),
            use_fds: true,
            fallback: FallbackOrdering::Adaptive,
        }
    }

    /// No early stopping: pure greedy recursion to the base cases.
    pub fn exhaustive() -> Self {
        GgrConfig {
            max_row_depth: None,
            max_col_depth: None,
            use_fds: true,
            fallback: FallbackOrdering::Adaptive,
        }
    }
}

impl Default for GgrConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The greedy solver (Algorithm 1). Default configuration matches the
/// paper's evaluation settings.
///
/// # Examples
///
/// ```
/// use llmqo_core::{FunctionalDeps, Ggr, Reorderer, TableBuilder};
/// let mut b = TableBuilder::new(vec!["review".into(), "product".into()]);
/// b.push_row(&["unique text one", "shared product description"]);
/// b.push_row(&["unique text two", "shared product description"]);
/// let (t, _) = b.finish();
/// let s = Ggr::default().reorder(&t, &FunctionalDeps::empty(2)).unwrap();
/// // The shared product column leads both rows.
/// assert_eq!(s.plan.row(0).fields[0], 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ggr {
    config: GgrConfig,
}

impl Ggr {
    /// Creates a solver with the given configuration.
    pub fn new(config: GgrConfig) -> Self {
        Ggr { config }
    }

    /// The solver's configuration.
    pub fn config(&self) -> &GgrConfig {
        &self.config
    }
}

impl Reorderer for Ggr {
    fn name(&self) -> &'static str {
        "ggr"
    }

    fn reorder(&self, table: &ReorderTable, fds: &FunctionalDeps) -> Result<Solution, SolveError> {
        check_fd_arity(table, fds)?;
        let start = Instant::now();
        let ctx = Ctx {
            table,
            fds,
            config: &self.config,
            col_vals: (0..table.ncols()).map(|c| table.col_values(c)).collect(),
            col_lens: (0..table.ncols()).map(|c| table.col_lens(c)).collect(),
        };
        let mut s = Scratch::for_table(table);
        let top = |c: usize| sq(table.col_lens(c).iter().copied().max().unwrap_or(0)) as f64;
        s.col_top.extend((0..table.ncols()).map(top));
        let (mut rows, mut most) = (s.pool.take(), s.pool.take());
        rows.extend(0..table.nrows() as u32);
        most.resize(table.ncols(), u32::MAX);
        let cols: Vec<u32> = (0..table.ncols() as u32).collect();
        let mut plan = ReorderPlan::with_capacity(table.nrows(), table.ncols());
        let score = ctx.ggr(&mut s, &mut plan, rows, &cols, 0, 0, &most);
        s.pool.put(most);
        Ok(Solution {
            plan,
            claimed_phc: score.round() as u64,
            solve_time: start.elapsed(),
        })
    }
}

struct Ctx<'a> {
    table: &'a ReorderTable,
    fds: &'a FunctionalDeps,
    config: &'a GgrConfig,
    /// Column slices hoisted once per solve (avoids per-cell accessor calls
    /// in block scoring and sorting).
    col_vals: Vec<&'a [ValueId]>,
    col_lens: Vec<&'a [u32]>,
}

/// The winning group of one greedy step: identity and score only — its
/// member rows are materialized by a single partition pass afterwards.
struct BestGroup {
    col: u32,
    value: ValueId,
    hitcount: f64,
}

impl<'a> Ctx<'a> {
    /// Algorithm 1's `GGR(T, FD)` on the view (rows × cols): writes the
    /// view's rows into `out`, each led by the prefix stack, and returns the
    /// claimed score. `rows`, an owned pool buffer, goes back to the pool;
    /// `most[c]` bounds the largest group of column `c` in the view (a
    /// column whose values are all distinct has no group, and stays so in
    /// every sub-view).
    #[allow(clippy::too_many_arguments)] // the view, its depths and bounds, and where it goes
    fn ggr(
        &self,
        s: &mut Scratch,
        out: &mut ReorderPlan,
        mut rows: Vec<u32>,
        cols: &[u32],
        row_depth: usize,
        col_depth: usize,
        most: &[u32],
    ) -> f64 {
        if rows.len() <= 1 || cols.len() == 1 {
            let score = match cols {
                &[col] => self.single_column(&mut rows, col),
                _ => 0.0,
            };
            s.emit(out, rows, cols);
            return score;
        }
        let row_stop = self.config.max_row_depth.is_some_and(|d| row_depth >= d);
        let col_stop = self.config.max_col_depth.is_some_and(|d| col_depth >= d);
        if row_stop || col_stop {
            return self.fallback(s, out, rows, cols, most);
        }

        let (parent, mut most) = (most, s.pool.take());
        most.extend_from_slice(parent);
        let Some(best) = self.best_group(s, &rows, cols, &mut most) else {
            // Every value in the view is unique: no ordering can score.
            s.pool.put(most);
            s.emit(out, rows, cols);
            return 0.0;
        };

        // One O(n) pass splits the view into the winning group and the rest.
        let mut members = s.pool.take();
        let mut rest = s.pool.take();
        partition_rows_by_value(
            self.col_vals[best.col as usize],
            &rows,
            best.value,
            &mut members,
            &mut rest,
        );
        s.pool.put(rows);

        // Prefix columns: the winning column plus its FD-inferred columns
        // present in the view; `sub_cols` is the view minus that prefix.
        let base = s.prefix.len();
        s.prefix.push(best.col);
        if self.config.use_fds {
            for &ic in self.fds.inferred(best.col as usize) {
                if cols.contains(&ic) {
                    s.prefix.push(ic);
                }
            }
        }
        let mut sub_cols = s.pool.take();
        for &pc in &s.prefix[base..] {
            s.col_mask[pc as usize] = true;
        }
        sub_cols.extend(cols.iter().copied().filter(|&c| !s.col_mask[c as usize]));
        for &pc in &s.prefix[base..] {
            s.col_mask[pc as usize] = false;
        }

        // The group (B) is scheduled before the rest (A), so it is written
        // first; the claim still adds up as A + B + the group's hit count.
        let b_score = if sub_cols.is_empty() {
            s.emit(out, members, &[]);
            0.0
        } else {
            self.ggr(s, out, members, &sub_cols, row_depth, col_depth + 1, &most)
        };
        s.prefix.truncate(base);
        s.pool.put(sub_cols);
        let a_score = self.ggr(s, out, rest, cols, row_depth + 1, col_depth, &most);
        s.pool.put(most);
        a_score + b_score + best.hitcount
    }

    /// Lines 17–23 of Algorithm 1: scan every (column, value) group and keep
    /// the one with the maximum `HITCOUNT`.
    ///
    /// Grouping and FD scoring run over the precomputed dense value indexes
    /// with id-indexed accumulators; no group's member list is materialized
    /// here. Per-group float sums accumulate in view-row order — the member
    /// order the reference implementation sums in — so `hitcount` is
    /// bit-identical.
    ///
    /// Columns are scanned by a bound on their hit counts, highest first,
    /// and the scan stops at the first bound below the best hit count: a
    /// group's `tot_len` is at most the sum of its columns' largest squared
    /// lengths, and its size at most `most[c]` — exactly so in `f64`, whose
    /// operations are monotone, while sums stay below 2⁵³. Each scanned
    /// column's largest group size replaces its bound in `most`.
    fn best_group(
        &self,
        s: &mut Scratch,
        rows: &[u32],
        cols: &[u32],
        most: &mut [u32],
    ) -> Option<BestGroup> {
        for &c in cols {
            s.col_mask[c as usize] = true;
        }
        let mut by_bound = s.pool.take();
        for &c in cols.iter().filter(|&&c| most[c as usize] >= 2) {
            let mut tot = s.col_top[c as usize];
            for &ic in self.fds.inferred(c as usize) {
                if self.config.use_fds && s.col_mask[ic as usize] {
                    tot += s.col_top[ic as usize];
                }
            }
            let size = most[c as usize].min(rows.len() as u32);
            s.col_key[c as usize] = (tot * (f64::from(size) - 1.0)).to_bits();
            by_bound.push(c);
        }
        by_bound.sort_unstable_by_key(|&c| std::cmp::Reverse(s.col_key[c as usize]));
        let mut best: Option<(BestGroup, u32)> = None; // (group, member count)
        for &c in &by_bound {
            let bound = f64::from_bits(s.col_key[c as usize]);
            if best.as_ref().is_some_and(|(b, _)| bound < b.hitcount) {
                break;
            }
            let n_groups = s.group_dense(c as usize, self.col_lens[c as usize], rows);
            let touched = &s.touched[..n_groups];
            most[c as usize] = touched
                .iter()
                .map(|&d| s.counts[d as usize])
                .max()
                .unwrap_or(0);
            if most[c as usize] < 2 {
                continue;
            }

            // tot[d] starts at len(v)² of the group's first view member —
            // the same `members[0]` representative the reference reads.
            for g in 0..n_groups {
                let d = s.touched[g] as usize;
                s.tot[d] = s.first_sq[d] as f64;
            }
            // … and accumulates the mean squared length of each FD-inferred
            // column over the group (§4.2.1).
            if self.config.use_fds {
                for &ic in self.fds.inferred(c as usize) {
                    if !s.col_mask[ic as usize] {
                        continue;
                    }
                    let inferred = self.col_lens[ic as usize];
                    for g in 0..n_groups {
                        s.acc[s.touched[g] as usize] = 0.0;
                    }
                    for (k, &r) in rows.iter().enumerate() {
                        s.acc[s.row_dense[k] as usize] += sq(inferred[r as usize]) as f64;
                    }
                    for g in 0..n_groups {
                        let d = s.touched[g] as usize;
                        s.tot[d] += s.acc[d] / f64::from(s.counts[d]);
                    }
                }
            }

            for g in 0..n_groups {
                let d = s.touched[g];
                let count = s.counts[d as usize];
                if count < 2 {
                    continue;
                }
                let value = s.value_of(c as usize, d);
                let hitcount = s.tot[d as usize] * (f64::from(count) - 1.0);
                let better = match &best {
                    None => true,
                    Some((b, b_count)) => {
                        hitcount > b.hitcount
                            || (hitcount == b.hitcount
                                && (count > *b_count
                                    || (count == *b_count
                                        && (c < b.col || (c == b.col && value < b.value)))))
                    }
                };
                if better {
                    best = Some((
                        BestGroup {
                            col: c,
                            value,
                            hitcount,
                        },
                        count,
                    ));
                }
            }
        }
        for &c in cols {
            s.col_mask[c as usize] = false;
        }
        s.pool.put(by_bound);
        best.map(|(b, _)| b)
    }

    /// Base case: one column left (lines 13–16). Rows sorted so duplicate
    /// values are adjacent; score Σ_v len(v)²·(count−1), which is optimal.
    fn single_column(&self, rows: &mut [u32], col: u32) -> f64 {
        let values = self.col_vals[col as usize];
        let lens = self.col_lens[col as usize];
        rows.sort_by_key(|&r| (values[r as usize], r));
        let mut score = 0u64;
        for pair in rows.windows(2) {
            if values[pair[0] as usize] == values[pair[1] as usize] {
                score += sq(lens[pair[1] as usize]);
            }
        }
        score as f64
    }

    /// §4.2.2 fall-back: orders the whole stopped subtable at once. The
    /// claimed score is the *exact* PHC of the produced block.
    fn fallback(
        &self,
        s: &mut Scratch,
        out: &mut ReorderPlan,
        mut rows: Vec<u32>,
        cols: &[u32],
        most: &[u32],
    ) -> f64 {
        let (mark, skip) = (out.len(), s.prefix.len());
        if self.config.fallback == FallbackOrdering::Adaptive {
            crate::order::adaptive_prefix_plan_into(self.table, rows, cols, s, out, most);
        } else {
            let field_order = self.stat_order(s, &rows, cols, most);
            let field_cols: Vec<&[ValueId]> = field_order
                .iter()
                .map(|&f| self.col_vals[f as usize])
                .collect();
            crate::baseline::sort_rows_by_fields(&mut rows, &field_cols);
            s.emit(out, rows, &field_order);
        }
        self.exact_block_score(out, mark, skip) as f64
    }

    /// Exact PHC of the block written at `out[from..]`, read after the
    /// `skip` leading fields all of its rows share.
    fn exact_block_score(&self, out: &ReorderPlan, from: usize, skip: usize) -> u64 {
        let mut score = 0u64;
        for i in from + 1..out.len() {
            let (a, b) = (out.row(i - 1), out.row(i));
            for (&ca, &cb) in a.fields[skip..].iter().zip(&b.fields[skip..]) {
                let values = self.col_vals[ca as usize];
                if ca != cb || values[a.row] != values[b.row] {
                    break;
                }
                score += sq(self.col_lens[cb as usize][b.row]);
            }
        }
        score
    }

    /// View-local statistics ordering: columns by descending expected PHC
    /// contribution (`avg(len²) · (n − cardinality)`), ties toward the
    /// current column order.
    fn stat_order(&self, s: &mut Scratch, rows: &[u32], cols: &[u32], most: &[u32]) -> Vec<u32> {
        let n = rows.len();
        let mut scored: Vec<(f64, usize, u32)> = cols
            .iter()
            .enumerate()
            .map(|(pos, &c)| {
                if most[c as usize] < 2 {
                    // All values distinct ⇒ dup_rows = 0 ⇒ score exactly 0.
                    return (0.0, pos, c);
                }
                let (distinct, sum_sq) = s.distinct_sum_sq(self.table, c as usize, rows);
                let avg_sq = if n == 0 { 0.0 } else { sum_sq / n as f64 };
                let dup_rows = (n - distinct) as f64;
                (avg_sq * dup_rows, pos, c)
            })
            .collect();
        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        scored.into_iter().map(|(_, _, c)| c).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ophr::Ophr;
    use crate::phc::phc_of_plan;
    use crate::table::Cell;

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

    fn ggr(t: &ReorderTable, fds: &FunctionalDeps, config: GgrConfig) -> Solution {
        let s = Ggr::new(config).reorder(t, fds).unwrap();
        s.plan.validate(t).unwrap();
        s
    }

    #[test]
    fn single_row_matches_ophr_base() {
        let t = table(&[&[(0, 3), (1, 4)]]);
        let s = ggr(&t, &FunctionalDeps::empty(2), GgrConfig::default());
        assert_eq!(s.claimed_phc, 0);
        assert_eq!(s.plan.len(), 1);
    }

    #[test]
    fn single_column_matches_ophr_base() {
        let t = table(&[&[(0, 3)], &[(1, 2)], &[(0, 3)]]);
        let fds = FunctionalDeps::empty(1);
        let g = ggr(&t, &fds, GgrConfig::default());
        let o = Ophr::unbounded().reorder(&t, &fds).unwrap();
        assert_eq!(g.claimed_phc, o.claimed_phc);
        assert_eq!(g.claimed_phc, 9);
    }

    #[test]
    fn figure_1a_recovered() {
        // Unique first field, constant remaining fields: (n−1)(m−1).
        let n = 6u32;
        let m = 4u32;
        let rows: Vec<Vec<(u32, u32)>> = (0..n)
            .map(|r| {
                let mut row = vec![(1000 + r, 1)];
                row.extend((1..m).map(|f| (f, 1)));
                row
            })
            .collect();
        let refs: Vec<&[(u32, u32)]> = rows.iter().map(Vec::as_slice).collect();
        let t = table(&refs);
        let s = ggr(&t, &FunctionalDeps::empty(4), GgrConfig::exhaustive());
        assert_eq!(s.claimed_phc, u64::from((n - 1) * (m - 1)));
        assert_eq!(s.claimed_phc, phc_of_plan(&t, &s.plan).phc);
    }

    #[test]
    fn figure_1b_recovered() {
        let x = 4u32;
        let mut rows: Vec<Vec<(u32, u32)>> = Vec::new();
        let mut next_unique = 1000;
        for field in 0..3u32 {
            for _ in 0..x {
                let row: Vec<(u32, u32)> = (0..3)
                    .map(|f| {
                        if f == field {
                            (field + 1, 1)
                        } else {
                            next_unique += 1;
                            (next_unique, 1)
                        }
                    })
                    .collect();
                rows.push(row);
            }
        }
        let refs: Vec<&[(u32, u32)]> = rows.iter().map(Vec::as_slice).collect();
        let t = table(&refs);
        let s = ggr(&t, &FunctionalDeps::empty(3), GgrConfig::exhaustive());
        assert_eq!(s.claimed_phc, u64::from(3 * (x - 1)));
    }

    #[test]
    fn claimed_score_is_exact_without_fds() {
        let t = table(&[
            &[(1, 3), (10, 7), (20, 2)],
            &[(1, 3), (11, 7), (21, 2)],
            &[(2, 3), (11, 7), (20, 2)],
            &[(2, 3), (12, 7), (22, 2)],
        ]);
        let s = ggr(&t, &FunctionalDeps::empty(3), GgrConfig::exhaustive());
        let actual = phc_of_plan(&t, &s.plan).phc;
        assert!(
            actual >= s.claimed_phc,
            "ground truth {actual} < claimed {}",
            s.claimed_phc
        );
    }

    #[test]
    fn exact_fds_make_claim_exact_and_prefix_contiguous() {
        // col0 ↔ col1 exactly (id pairs), col2 unique.
        let t = table(&[
            &[(1, 4), (100, 6), (200, 2)],
            &[(1, 4), (100, 6), (201, 2)],
            &[(2, 4), (101, 6), (202, 2)],
            &[(2, 4), (101, 6), (203, 2)],
        ]);
        let fds = FunctionalDeps::from_groups(3, vec![vec![0, 1]]).unwrap();
        let s = ggr(&t, &fds, GgrConfig::exhaustive());
        let actual = phc_of_plan(&t, &s.plan).phc;
        assert_eq!(actual, s.claimed_phc, "exact FDs ⇒ exact claim");
        // Both groups captured with the inferred column in the prefix:
        // each group: 1 hit × (4² + 6²) = 52; two groups = 104.
        assert_eq!(actual, 104);
        // Each row's field order starts [0, 1] (value column + inferred).
        for rp in s.plan.rows() {
            assert_eq!(&rp.fields[..2], &[0, 1]);
        }
    }

    #[test]
    fn fds_never_hurt_on_fd_structured_tables() {
        let t = table(&[
            &[(1, 4), (100, 6), (200, 2)],
            &[(1, 4), (100, 6), (201, 2)],
            &[(2, 4), (101, 6), (202, 2)],
        ]);
        let fds = FunctionalDeps::from_groups(3, vec![vec![0, 1]]).unwrap();
        let with = ggr(&t, &fds, GgrConfig::exhaustive());
        let without = ggr(
            &t,
            &fds,
            GgrConfig {
                use_fds: false,
                ..GgrConfig::exhaustive()
            },
        );
        let with_actual = phc_of_plan(&t, &with.plan).phc;
        let without_actual = phc_of_plan(&t, &without.plan).phc;
        assert!(with_actual >= without_actual);
    }

    #[test]
    fn never_beats_ophr_on_small_tables() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..30 {
            let n = rng.random_range(2..=6);
            let m = rng.random_range(1..=3);
            let rows: Vec<Vec<(u32, u32)>> = (0..n)
                .map(|_| {
                    (0..m)
                        .map(|f| {
                            let v = f as u32 * 10 + rng.random_range(0..3u32);
                            (v, 1 + v % 4)
                        })
                        .collect()
                })
                .collect();
            let refs: Vec<&[(u32, u32)]> = rows.iter().map(Vec::as_slice).collect();
            let t = table(&refs);
            let fds = FunctionalDeps::empty(m);
            let g = ggr(&t, &fds, GgrConfig::exhaustive());
            let g_actual = phc_of_plan(&t, &g.plan).phc;
            let o = Ophr::unbounded().reorder(&t, &fds).unwrap();
            assert!(
                g_actual <= o.claimed_phc,
                "GGR {g_actual} beat OPHR {} on {t:?}",
                o.claimed_phc
            );
        }
    }

    #[test]
    fn zero_row_depth_is_pure_fallback() {
        let t = table(&[&[(0, 1), (10, 5)], &[(1, 1), (11, 5)], &[(2, 1), (10, 5)]]);
        let fds = FunctionalDeps::empty(2);
        let s = ggr(
            &t,
            &fds,
            GgrConfig {
                max_row_depth: Some(0),
                fallback: FallbackOrdering::StatFixed,
                ..GgrConfig::default()
            },
        );
        let b = crate::baseline::StatFixed.reorder(&t, &fds).unwrap();
        assert_eq!(s.claimed_phc, b.claimed_phc);
        assert_eq!(phc_of_plan(&t, &s.plan).phc, phc_of_plan(&t, &b.plan).phc);
    }

    #[test]
    fn adaptive_fallback_beats_stat_fixed_on_nested_hierarchies() {
        // X (4 cities) ⊃ Y (8 streets, nested: Y determines X) ⊕ Z (binary).
        // Global-cardinality scoring interleaves Z between Y and X; counting
        // per group sees that X is free once Y leads (one value per street)
        // and orders [Y, X, Z], capturing X's mass for every in-group row.
        let rows: Vec<Vec<(u32, u32)>> = (0..24)
            .map(|r| vec![(r / 6, 4), (100 + r / 3, 6), (200 + r % 2, 5)])
            .collect();
        let refs: Vec<&[(u32, u32)]> = rows.iter().map(Vec::as_slice).collect();
        let t = table(&refs);
        let fds = FunctionalDeps::empty(3);
        let adaptive = ggr(
            &t,
            &fds,
            GgrConfig {
                max_row_depth: Some(0),
                ..GgrConfig::default()
            },
        );
        let stat = crate::baseline::StatFixed.reorder(&t, &fds).unwrap();
        assert!(
            phc_of_plan(&t, &adaptive.plan).phc > phc_of_plan(&t, &stat.plan).phc,
            "adaptive {} vs stat {}",
            phc_of_plan(&t, &adaptive.plan).phc,
            phc_of_plan(&t, &stat.plan).phc
        );
    }

    #[test]
    fn all_unique_returns_input_order() {
        let t = table(&[&[(0, 2), (10, 2)], &[(1, 2), (11, 2)]]);
        let s = ggr(&t, &FunctionalDeps::empty(2), GgrConfig::exhaustive());
        assert_eq!(s.claimed_phc, 0);
        assert_eq!(s.plan.row(0).row, 0);
        assert_eq!(s.plan.row(1).row, 1);
    }

    #[test]
    fn fd_covering_all_columns_consumes_them() {
        // One FD group covering both columns: after the split no columns
        // remain for the B-recursion.
        let t = table(&[
            &[(1, 3), (100, 5)],
            &[(1, 3), (100, 5)],
            &[(2, 3), (101, 5)],
        ]);
        let fds = FunctionalDeps::from_groups(2, vec![vec![0, 1]]).unwrap();
        let s = ggr(&t, &fds, GgrConfig::exhaustive());
        assert_eq!(phc_of_plan(&t, &s.plan).phc, s.claimed_phc);
        assert_eq!(s.claimed_phc, 9 + 25);
    }

    #[test]
    fn deterministic() {
        let t = table(&[
            &[(1, 2), (7, 2)],
            &[(1, 2), (7, 2)],
            &[(2, 2), (8, 2)],
            &[(2, 2), (8, 2)],
        ]);
        let fds = FunctionalDeps::empty(2);
        let a = ggr(&t, &fds, GgrConfig::default());
        let b = ggr(&t, &fds, GgrConfig::default());
        assert_eq!(a.plan, b.plan);
    }

    #[test]
    fn fallback_variants_are_valid() {
        let t = table(&[&[(0, 1), (10, 5)], &[(1, 1), (11, 5)], &[(2, 1), (10, 5)]]);
        let fds = FunctionalDeps::empty(2);
        for fallback in [FallbackOrdering::Adaptive, FallbackOrdering::StatFixed] {
            let s = ggr(
                &t,
                &fds,
                GgrConfig {
                    max_row_depth: Some(0),
                    fallback,
                    ..GgrConfig::default()
                },
            );
            assert_eq!(s.claimed_phc, phc_of_plan(&t, &s.plan).phc);
        }
    }
}
