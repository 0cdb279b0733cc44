//! Data-aware per-group field ordering by distinct-prefix counting.
//!
//! §4.2.2 of the paper falls back to a statistics-chosen *fixed* field order
//! when GGR stops recursing, scoring each column by `avg(len)²` and its
//! duplicate count. That score ignores a crucial interaction: once several
//! fields lead the prompt, a further field only extends shared prefixes for
//! rows that already agree on *all* leading fields — the number of distinct
//! prefixes grows multiplicatively, and a long-but-high-cardinality column
//! placed early (say, `artistname` with thousands of values) kills sharing
//! for every column after it.
//!
//! [`adaptive_prefix_plan`] counts instead: at each node it picks the column
//! maximizing `avg(len²) · (n − D)`, where `D` is the **exact** number of
//! distinct values over the node's rows, and lets each value group pick its
//! own next column. Wide tables with skewed categorical and flag columns
//! (PDMX-like) benefit enormously: low-cardinality columns are packed first,
//! and per-row-unique columns fall to the end, where they can no longer
//! break anyone's prefix.
//!
//! The scan skips columns that cannot win: a gain is at most
//! `M_c · (n − 1)`, `M_c` the column's largest squared length in the view,
//! exactly so in `f64` (integers below 2⁵³; IEEE division and multiplication
//! are monotone). A column with one value over a node is walked in place
//! instead of recursed into: the child would see the same rows, bounds and
//! gains, so one scan yields the whole run of such columns that beat the
//! node's best split.

use crate::plan::ReorderPlan;
use crate::scratch::Scratch;
use crate::table::{sq, ReorderTable};
use std::cmp::Reverse;

/// Recursive adaptive ordering: each value group chooses its **own** next
/// field, producing genuinely per-row field orders (the paper's Fig. 1b
/// insight, applied divisively).
///
/// A single global sort can only share `~log(n)` "bits" of prefix before
/// every row's prefix is unique; recursive partitioning sidesteps that
/// budget because sibling groups spend their entropy on different fields.
/// At each step the field with the highest duplicate mass
/// (`avg(len²) · (n − distinct)`) is chosen; its value groups of two or more
/// rows are scheduled as contiguous blocks led by that field and recurse
/// without it, while rows whose value was unique flow to a residual branch
/// that keeps **all** fields available — so groups hiding in other fields
/// (Fig. 1b's staggered structure) are still found.
///
/// Returns the scheduled rows, each with a permutation of `cols`.
pub fn adaptive_prefix_plan(table: &ReorderTable, rows: &[u32], cols: &[u32]) -> ReorderPlan {
    // View-scoped index: a small view of a huge table pays remap work
    // proportional to the view, not the table.
    let mut s = Scratch::for_view(table, rows, cols);
    let mut out = ReorderPlan::with_capacity(rows.len(), cols.len());
    let mut view = s.pool.take();
    view.extend_from_slice(rows);
    let most = vec![u32::MAX; table.ncols()];
    adaptive_prefix_plan_into(table, view, cols, &mut s, &mut out, &most);
    out
}

/// [`adaptive_prefix_plan`] on a pool buffer of rows, written into `out`
/// after the prefix stack, skipping the columns whose caller bound
/// `most[c] < 2` says they have no group (GGR's default fall-back). Fixes
/// every node's scan order: descending `M_c` (the largest squared length of
/// column `c` in this view), ties by index.
pub(crate) fn adaptive_prefix_plan_into(
    table: &ReorderTable,
    rows: Vec<u32>,
    cols: &[u32],
    s: &mut Scratch,
    out: &mut ReorderPlan,
    most: &[u32],
) {
    for &c in cols {
        let lens = table.col_lens(c as usize);
        s.col_max[c as usize] = sq(rows.iter().map(|&r| lens[r as usize]).max().unwrap_or(0));
    }
    let mut by_bound = s.pool.take();
    by_bound.extend(cols.iter().copied().filter(|&c| most[c as usize] >= 2));
    by_bound.sort_unstable_by_key(|&c| (Reverse(s.col_max[c as usize]), c));
    adaptive_rec(table, rows, cols, by_bound, s, out);
}

/// Emits `rows` with the view's unconsumed `cols` ordered longest (total
/// squared length) first — no sharing is possible, so columns can only
/// match inside prefixes that are already identical. The sort is stable:
/// equal sums keep `cols` order.
fn flush_flat(
    table: &ReorderTable,
    rows: Vec<u32>,
    cols: &[u32],
    s: &mut Scratch,
    out: &mut ReorderPlan,
) {
    let mut rest = s.pool.take();
    for &c in cols.iter().filter(|&&c| !s.col_mask[c as usize]) {
        let lens = table.col_lens(c as usize);
        s.col_key[c as usize] = rows.iter().map(|&r| sq(lens[r as usize])).sum();
        rest.push(c);
    }
    rest.sort_by_key(|&c| Reverse(s.col_key[c as usize]));
    s.emit(out, rows, &rest);
    s.pool.put(rest);
}

/// One node of [`adaptive_prefix_plan`]: its columns are the view's `cols`
/// not yet on the prefix stack, which marks them in `s.col_mask`; `live`,
/// an owned pool buffer, holds those of them that may still win, in scan
/// order.
///
/// The scan stops early. With `S` a column's squared-length sum over the
/// node's `n` rows and `d` its distinct values, `gain = (S/n)·(n−d) ≤
/// M_c·(n−1)`: each squared length is at most `M_c`, and `d ≥ 1`. In `f64`
/// too — `S` and `M_c` are integers below 2⁵³, so exact, and IEEE division
/// and multiplication are monotone. So the first column whose bound is below
/// the best gain ends the scan, and one whose bound only equals it is
/// skipped when its index is higher (it would lose the tie).
///
/// A column with one value over the node is walked in place: its only
/// group is the node itself, in the same order, with no residual, so the
/// child call would see the same rows, candidates, bounds (`M_c` is fixed
/// for the whole view) and gains, and choose the next best column. A run of
/// such choices is the constant columns that beat the best other column
/// (gain, then lower index), best first, so one scan finds it: its bound
/// need only beat that column. They go on the prefix stack, are marked in
/// `s.col_mask` and leave `live`; the call pops and unmarks them when it
/// returns.
fn adaptive_rec(
    table: &ReorderTable,
    mut rows: Vec<u32>,
    cols: &[u32],
    mut live: Vec<u32>,
    s: &mut Scratch,
    out: &mut ReorderPlan,
) {
    let base = s.prefix.len();
    // The residual branch iterates rather than recursing, so schedule depth
    // is bounded by the column count, not the row count.
    loop {
        if rows.len() <= 1 {
            flush_flat(table, rows, cols, s, out);
            break;
        }
        let (n, run) = (rows.len(), s.prefix.len());
        // The best column with two or more values: (gain, column).
        let mut best: Option<(f64, u32)> = None;
        let (mut i, mut kept) = (0, 0);
        while i < live.len() {
            let c = live[i];
            let bound = s.col_max[c as usize] as f64 * (n - 1) as f64;
            if best.is_some_and(|(bg, _)| bound < bg) {
                break;
            }
            i += 1;
            if best.is_none_or(|(bg, bc)| bound > bg || c < bc) {
                let (distinct, sum_sq) = s.distinct_sum_sq(table, c as usize, &rows);
                if distinct == n {
                    // No duplicated value in this view ⇒ none in any
                    // sub-view: the gain is 0 here and forever, so the
                    // column leaves `live`.
                    continue;
                }
                let gain = (sum_sq / n as f64) * (n - distinct) as f64;
                if gain > 0.0 && distinct == 1 {
                    s.col_key[c as usize] = gain.to_bits();
                    s.prefix.push(c);
                } else if gain > 0.0
                    && best.is_none_or(|(bg, bc)| gain > bg || (gain == bg && c < bc))
                {
                    best = Some((gain, c));
                }
            }
            live[kept] = c;
            kept += 1;
        }
        live.drain(kept..i);
        // The walk: the constant columns that beat that one, best first.
        s.prefix[run..].sort_unstable_by_key(|&c| (Reverse(s.col_key[c as usize]), c));
        let walked = s.prefix[run..]
            .iter()
            .take_while(|&&c| {
                let gain = f64::from_bits(s.col_key[c as usize]);
                best.is_none_or(|(bg, bc)| gain > bg || (gain == bg && c < bc))
            })
            .count();
        s.prefix.truncate(run + walked);
        for &c in &s.prefix[run..] {
            s.col_mask[c as usize] = true;
        }
        if walked > 0 {
            live.retain(|&c| !s.col_mask[c as usize]);
        }
        let Some((_, chosen)) = best else {
            flush_flat(table, rows, cols, s, out);
            break;
        };
        // Partition by the chosen field's value: multi-member groups become
        // contiguous blocks, largest first, singletons flow to the residual
        // branch.
        s.group_dense(chosen as usize, table.col_lens(chosen as usize), &rows);
        let mut groups = s.pool.take();
        for &d in &s.touched {
            if s.counts[d as usize] >= 2 {
                groups.push(d);
            } else {
                s.counts[d as usize] = u32::MAX;
            }
        }
        groups.sort_unstable_by_key(|&d| {
            let size = s.counts[d as usize];
            (Reverse(size), s.value_of(chosen as usize, d))
        });
        // The groups' rows laid out in that order in `flat`, each in view
        // order. Only the touched ids are written: `counts[d]` turns into
        // group `d`'s next slot (u32::MAX for singletons), and `groups` into
        // the groups' end offsets, which the children cannot overwrite.
        let mut len = 0;
        for g in &mut groups {
            let d = *g as usize;
            (s.counts[d], len) = (len, len + s.counts[d]);
            *g = len;
        }
        let (mut flat, mut residual) = (s.pool.take(), s.pool.take());
        flat.resize(len as usize, 0);
        for (k, &r) in rows.iter().enumerate() {
            let d = s.row_dense[k] as usize;
            if s.counts[d] == u32::MAX {
                residual.push(r);
            } else {
                flat[s.counts[d] as usize] = r;
                s.counts[d] += 1;
            }
        }
        residual.sort_unstable();
        s.pool.put(rows);
        // Lead every row of these blocks with the chosen field.
        s.prefix.push(chosen);
        s.col_mask[chosen as usize] = true;
        let mut start = 0;
        for &end in &groups {
            let (mut members, mut sub_live) = (s.pool.take(), s.pool.take());
            members.extend_from_slice(&flat[start as usize..end as usize]);
            sub_live.extend(live.iter().copied().filter(|&c| c != chosen));
            adaptive_rec(table, members, cols, sub_live, s, out);
            start = end;
        }
        s.prefix.pop();
        s.col_mask[chosen as usize] = false;
        s.pool.put(groups);
        s.pool.put(flat);
        if residual.is_empty() {
            s.pool.put(residual);
            break;
        }
        rows = residual;
    }
    s.pool.put(live);
    for &c in &s.prefix[base..] {
        s.col_mask[c as usize] = false;
    }
    s.prefix.truncate(base);
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
    fn output_is_a_permutation() {
        let t = table(&[
            &[(0, 1), (10, 2), (20, 3)],
            &[(1, 1), (10, 2), (21, 3)],
            &[(0, 1), (11, 2), (20, 3)],
        ]);
        let plan = adaptive_prefix_plan(&t, &[0, 1, 2], &[0, 1, 2]);
        let mut rows: Vec<usize> = plan.rows().map(|rp| rp.row).collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![0, 1, 2]);
        for rp in plan.rows() {
            let mut fields = rp.fields.to_vec();
            fields.sort_unstable();
            assert_eq!(fields, vec![0, 1, 2]);
        }
    }

    #[test]
    fn long_duplicated_column_leads() {
        // col1: one long value everywhere; col0: unique short ids.
        let t = table(&[&[(0, 2), (9, 40)], &[(1, 2), (9, 40)], &[(2, 2), (9, 40)]]);
        let plan = adaptive_prefix_plan(&t, &[0, 1, 2], &[0, 1]);
        assert!(plan.rows().all(|rp| rp.fields[0] == 1));
    }

    #[test]
    fn high_cardinality_long_column_defers_to_low_cardinality_flags() {
        // col0: per-row-unique, length 9 (classic trap: big total mass, zero
        // sharing). col1, col2: binary flags, length 4.
        let rows: Vec<Vec<(u32, u32)>> = (0..16)
            .map(|r| vec![(100 + r, 9), (r % 2, 4), (1000 + (r / 2) % 2, 4)])
            .collect();
        let refs: Vec<&[(u32, u32)]> = rows.iter().map(Vec::as_slice).collect();
        let t = table(&refs);
        let all: Vec<u32> = (0..16).collect();
        let plan = adaptive_prefix_plan(&t, &all, &[0, 1, 2]);
        for rp in plan.rows() {
            assert_eq!(rp.fields[2], 0, "unique column must come last: {rp:?}");
        }
    }

    #[test]
    fn prefix_die_off_is_respected() {
        // colA: card 2, len 3. colB: card 8 (unique per pair), len 10.
        // Naive mass ordering puts B first (100·(n−8) > 9·(n−2) for n=8? —
        // B has no duplicates at all here, so gain_B = 0 and A must lead.
        let rows: Vec<Vec<(u32, u32)>> = (0..8).map(|r| vec![(r % 2, 3), (50 + r, 10)]).collect();
        let refs: Vec<&[(u32, u32)]> = rows.iter().map(Vec::as_slice).collect();
        let t = table(&refs);
        let all: Vec<u32> = (0..8).collect();
        let plan = adaptive_prefix_plan(&t, &all, &[0, 1]);
        assert!(plan.rows().all(|rp| rp.fields == [0, 1]));
    }

    #[test]
    fn works_on_row_and_column_subsets() {
        let t = table(&[&[(0, 1), (10, 5)], &[(1, 1), (10, 5)], &[(2, 1), (11, 5)]]);
        let plan = adaptive_prefix_plan(&t, &[0, 1], &[1]);
        let rows: Vec<usize> = plan.rows().map(|rp| rp.row).collect();
        assert_eq!(rows, vec![0, 1]);
        assert!(plan.rows().all(|rp| rp.fields == [1]));
        assert_eq!(adaptive_prefix_plan(&t, &[], &[0, 1]).len(), 0);
    }

    #[test]
    fn gain_never_exceeds_the_bound() {
        // Every sub-view of a fall-back view, every column: the gain
        // `adaptive_rec` computes is at most `M_c · (n − 1)`, `M_c` taken over
        // the enclosing view — the bound its scan stops on.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(25);
        for case in 0..300u32 {
            let (n, m) = (rng.random_range(2..=40usize), rng.random_range(1..=6u32));
            let max_len = if case % 3 == 0 { 1 << 20 } else { 60 };
            let lens: Vec<u32> = (0..m * 8).map(|_| rng.random_range(1..=max_len)).collect();
            let rows: Vec<Vec<(u32, u32)>> = (0..n)
                .map(|_| {
                    (0..m)
                        .map(|c| {
                            let id = c * 8 + rng.random_range(0..1 + case % 8);
                            (id, lens[id as usize])
                        })
                        .collect()
                })
                .collect();
            let refs: Vec<&[(u32, u32)]> = rows.iter().map(Vec::as_slice).collect();
            let t = table(&refs);
            let view: Vec<u32> = (0..n as u32).filter(|_| rng.random_bool(0.8)).collect();
            let node: Vec<u32> = view
                .iter()
                .copied()
                .filter(|_| rng.random_bool(0.7))
                .collect();
            if node.len() < 2 {
                continue;
            }
            let mut s = Scratch::for_table(&t);
            for c in 0..m as usize {
                let lens = t.col_lens(c);
                let m_c = view.iter().map(|&r| sq(lens[r as usize])).max().unwrap();
                let (distinct, sum_sq) = s.distinct_sum_sq(&t, c, &node);
                let k = node.len();
                let gain = (sum_sq / k as f64) * (k - distinct) as f64;
                let bound = m_c as f64 * (k - 1) as f64;
                assert!(gain <= bound, "case {case} col {c}: {gain} > {bound}");
            }
        }
    }

    #[test]
    fn a_leaf_keeps_the_callers_column_order_on_equal_lengths() {
        // No value repeats, so both rows make one leaf: column 1 has the
        // largest squared-length sum (9 + 1), columns 0 and 2 tie (4 + 4).
        let t = table(&[&[(0, 2), (10, 3), (20, 2)], &[(1, 2), (11, 1), (21, 2)]]);
        for (cols, fields) in [([2, 0, 1], [1, 2, 0]), ([0, 1, 2], [1, 0, 2])] {
            let plan = adaptive_prefix_plan(&t, &[0, 1], &cols);
            assert!(plan.rows().all(|rp| rp.fields == fields), "{cols:?}");
        }
    }

    #[test]
    fn deterministic() {
        let rows: Vec<Vec<(u32, u32)>> = (0..10)
            .map(|r| vec![(r % 3, 2), (10 + r % 2, 2), (100 + r, 2)])
            .collect();
        let refs: Vec<&[(u32, u32)]> = rows.iter().map(Vec::as_slice).collect();
        let t = table(&refs);
        let all: Vec<u32> = (0..10).collect();
        let a = adaptive_prefix_plan(&t, &all, &[0, 1, 2]);
        let b = adaptive_prefix_plan(&t, &all, &[0, 1, 2]);
        assert_eq!(a, b);
    }
}
