//! Frozen pre-optimization GGR — the differential-testing oracle.
//!
//! [`GgrReference`] is the direct transcription of Algorithm 1 that shipped
//! before the columnar solver core: `HashMap`-based grouping at every
//! recursion level, `Vec::contains` rest-filtering, and row-major cell
//! access. It is retained verbatim (including private copies of the
//! fallback-ordering helpers it used, so later changes to
//! `llmqo_core::order` cannot silently drift the oracle) so that
//! `tests/solver_differential.rs` can assert the optimized
//! [`Ggr`](llmqo::core::Ggr) produces byte-identical plans and claimed PHC
//! on random and dataset tables. It is a test fixture: it compiles against
//! `llmqo-core`'s public API only and ships in no release build.
//!
//! Do not "fix" or optimize this module; its value is being frozen.

use llmqo::core::{
    FallbackOrdering, FunctionalDeps, GgrConfig, ReorderPlan, ReorderTable, Reorderer, RowPlan,
    Solution, SolveError, ValueId,
};
use std::collections::HashMap;
use std::time::Instant;

/// `llmqo-core`'s crate-private FD/table arity check, as every solver runs it.
fn check_fd_arity(table: &ReorderTable, fds: &FunctionalDeps) -> Result<(), SolveError> {
    if table.ncols() != fds.ncols() {
        return Err(SolveError::FdArityMismatch {
            table_cols: table.ncols(),
            fd_cols: fds.ncols(),
        });
    }
    Ok(())
}

/// The frozen greedy solver (Algorithm 1, pre-columnar transcription).
///
/// Accepts the same [`GgrConfig`] as [`Ggr`](llmqo::core::Ggr) and must produce
/// the identical plan and claimed score for every configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GgrReference {
    config: GgrConfig,
}

impl GgrReference {
    /// Creates a reference solver with the given configuration.
    pub fn new(config: GgrConfig) -> Self {
        GgrReference { config }
    }

    /// The solver's configuration.
    pub fn config(&self) -> &GgrConfig {
        &self.config
    }
}

impl Reorderer for GgrReference {
    fn name(&self) -> &'static str {
        "ggr-reference"
    }

    fn reorder(&self, table: &ReorderTable, fds: &FunctionalDeps) -> Result<Solution, SolveError> {
        check_fd_arity(table, fds)?;
        let start = Instant::now();
        let ctx = Ctx {
            table,
            fds,
            config: &self.config,
        };
        let rows: Vec<u32> = (0..table.nrows() as u32).collect();
        let cols: Vec<u32> = (0..table.ncols() as u32).collect();
        let (score, ordered) = ctx.ggr(&rows, &cols, 0, 0);
        let plan = ReorderPlan {
            rows: ordered
                .into_iter()
                .map(|(row, fields)| RowPlan::new(row as usize, fields))
                .collect(),
        };
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
}

/// The winning group of one greedy step.
struct BestGroup {
    col: u32,
    value: ValueId,
    hitcount: f64,
    rows: Vec<u32>,
    /// `[col] ++ inferred columns present in the view` — the prefix columns.
    prefix_cols: Vec<u32>,
}

impl<'a> Ctx<'a> {
    fn ggr(
        &self,
        rows: &[u32],
        cols: &[u32],
        row_depth: usize,
        col_depth: usize,
    ) -> (f64, Vec<(u32, Vec<u32>)>) {
        if rows.is_empty() {
            return (0.0, Vec::new());
        }
        if rows.len() == 1 {
            return (0.0, vec![(rows[0], cols.to_vec())]);
        }
        if cols.len() == 1 {
            return self.single_column(rows, cols[0]);
        }
        let row_stop = self.config.max_row_depth.is_some_and(|d| row_depth >= d);
        let col_stop = self.config.max_col_depth.is_some_and(|d| col_depth >= d);
        if row_stop || col_stop {
            return self.fallback(rows, cols);
        }

        let best = match self.best_group(rows, cols) {
            Some(b) => b,
            None => return (0.0, rows.iter().map(|&r| (r, cols.to_vec())).collect()),
        };
        if self
            .config
            .min_hitcount
            .is_some_and(|t| (best.hitcount as u64) < t)
        {
            return self.fallback(rows, cols);
        }

        let rest: Vec<u32> = rows
            .iter()
            .copied()
            .filter(|r| !best.rows.contains(r))
            .collect();
        let sub_cols: Vec<u32> = cols
            .iter()
            .copied()
            .filter(|c| !best.prefix_cols.contains(c))
            .collect();

        let (a_score, a_rows) = self.ggr(&rest, cols, row_depth + 1, col_depth);
        let (b_score, b_rows) = if sub_cols.is_empty() {
            (0.0, best.rows.iter().map(|&r| (r, Vec::new())).collect())
        } else {
            self.ggr(&best.rows, &sub_cols, row_depth, col_depth + 1)
        };

        let mut out = Vec::with_capacity(rows.len());
        for (row, fields) in b_rows {
            let mut full = best.prefix_cols.clone();
            full.extend(fields);
            out.push((row, full));
        }
        out.extend(a_rows);
        (a_score + b_score + best.hitcount, out)
    }

    fn best_group(&self, rows: &[u32], cols: &[u32]) -> Option<BestGroup> {
        let mut best: Option<BestGroup> = None;
        for &c in cols {
            let mut by_value: HashMap<ValueId, Vec<u32>> = HashMap::new();
            for &r in rows {
                by_value
                    .entry(self.table.cell(r as usize, c as usize).value)
                    .or_default()
                    .push(r);
            }
            let mut groups: Vec<(ValueId, Vec<u32>)> = by_value
                .into_iter()
                .filter(|(_, members)| members.len() >= 2)
                .collect();
            groups.sort_by_key(|(v, _)| *v);

            let inferred: Vec<u32> = if self.config.use_fds {
                self.fds
                    .inferred(c as usize)
                    .iter()
                    .copied()
                    .filter(|ic| cols.contains(ic))
                    .collect()
            } else {
                Vec::new()
            };

            for (value, members) in groups {
                let mut tot_len = self.table.cell(members[0] as usize, c as usize).sq_len() as f64;
                for &ic in &inferred {
                    let sum: f64 = members
                        .iter()
                        .map(|&r| self.table.cell(r as usize, ic as usize).sq_len() as f64)
                        .sum();
                    tot_len += sum / members.len() as f64;
                }
                let hitcount = tot_len * (members.len() as f64 - 1.0);
                let better = match &best {
                    None => true,
                    Some(b) => {
                        hitcount > b.hitcount
                            || (hitcount == b.hitcount
                                && (members.len() > b.rows.len()
                                    || (members.len() == b.rows.len()
                                        && (c < b.col || (c == b.col && value < b.value)))))
                    }
                };
                if better {
                    let mut prefix_cols = vec![c];
                    prefix_cols.extend(&inferred);
                    best = Some(BestGroup {
                        col: c,
                        value,
                        hitcount,
                        rows: members,
                        prefix_cols,
                    });
                }
            }
        }
        best
    }

    fn single_column(&self, rows: &[u32], col: u32) -> (f64, Vec<(u32, Vec<u32>)>) {
        let mut ordered = rows.to_vec();
        ordered.sort_by_key(|&r| (self.table.cell(r as usize, col as usize).value, r));
        let mut score = 0u64;
        for pair in ordered.windows(2) {
            let a = self.table.cell(pair[0] as usize, col as usize);
            let b = self.table.cell(pair[1] as usize, col as usize);
            if a.value == b.value {
                score += b.sq_len();
            }
        }
        (
            score as f64,
            ordered.into_iter().map(|r| (r, vec![col])).collect(),
        )
    }

    fn fallback(&self, rows: &[u32], cols: &[u32]) -> (f64, Vec<(u32, Vec<u32>)>) {
        if self.config.fallback == FallbackOrdering::Adaptive {
            let ordered = adaptive_prefix_plan_frozen(self.table, rows, cols);
            let score = self.exact_block_score(&ordered);
            return (score as f64, ordered);
        }
        let field_order: Vec<u32> = match self.config.fallback {
            FallbackOrdering::Adaptive => unreachable!("handled above"),
            FallbackOrdering::GreedyPrefix => greedy_prefix_order_frozen(self.table, rows, cols),
            FallbackOrdering::StatFixed => self.stat_order(rows, cols),
            FallbackOrdering::SortedFixed => cols.to_vec(),
            FallbackOrdering::Original => cols.to_vec(),
        };
        let mut ordered = rows.to_vec();
        if self.config.fallback != FallbackOrdering::Original {
            ordered.sort_by(|&a, &b| {
                for &f in &field_order {
                    let va = self.table.cell(a as usize, f as usize).value;
                    let vb = self.table.cell(b as usize, f as usize).value;
                    match va.cmp(&vb) {
                        std::cmp::Ordering::Equal => continue,
                        other => return other,
                    }
                }
                a.cmp(&b)
            });
        }
        let plan: Vec<(u32, Vec<u32>)> = ordered
            .into_iter()
            .map(|r| (r, field_order.clone()))
            .collect();
        let score = self.exact_block_score(&plan);
        (score as f64, plan)
    }

    fn exact_block_score(&self, ordered: &[(u32, Vec<u32>)]) -> u64 {
        let mut score = 0u64;
        for pair in ordered.windows(2) {
            let (ra, fa) = (&pair[0].0, &pair[0].1);
            let (rb, fb) = (&pair[1].0, &pair[1].1);
            for (&ca, &cb) in fa.iter().zip(fb.iter()) {
                if ca != cb {
                    break;
                }
                let a = self.table.cell(*ra as usize, ca as usize);
                let b = self.table.cell(*rb as usize, cb as usize);
                if a.value == b.value {
                    score += b.sq_len();
                } else {
                    break;
                }
            }
        }
        score
    }

    fn stat_order(&self, rows: &[u32], cols: &[u32]) -> Vec<u32> {
        let n = rows.len();
        let mut scored: Vec<(f64, usize, u32)> = cols
            .iter()
            .enumerate()
            .map(|(pos, &c)| {
                let mut distinct: HashMap<ValueId, ()> = HashMap::new();
                let mut sum_sq = 0f64;
                for &r in rows {
                    let cell = self.table.cell(r as usize, c as usize);
                    distinct.insert(cell.value, ());
                    sum_sq += cell.sq_len() as f64;
                }
                let avg_sq = if n == 0 { 0.0 } else { sum_sq / n as f64 };
                let dup_rows = (n - distinct.len()) as f64;
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

/// Frozen copy of the pre-columnar `adaptive_prefix_plan` fallback.
fn adaptive_prefix_plan_frozen(
    table: &ReorderTable,
    rows: &[u32],
    cols: &[u32],
) -> Vec<(u32, Vec<u32>)> {
    let mut out = Vec::with_capacity(rows.len());
    adaptive_rec_frozen(table, rows.to_vec(), cols, &mut out);
    out
}

fn adaptive_rec_frozen(
    table: &ReorderTable,
    mut rows: Vec<u32>,
    cols: &[u32],
    out: &mut Vec<(u32, Vec<u32>)>,
) {
    let flush_flat = |rows: &[u32], cols: &[u32], out: &mut Vec<(u32, Vec<u32>)>| {
        let mut rest = cols.to_vec();
        rest.sort_by_key(|&c| {
            std::cmp::Reverse(
                rows.iter()
                    .map(|&r| table.cell(r as usize, c as usize).sq_len())
                    .sum::<u64>(),
            )
        });
        for &r in rows {
            out.push((r, rest.clone()));
        }
    };
    loop {
        if rows.len() <= 1 || cols.is_empty() {
            flush_flat(&rows, cols, out);
            return;
        }
        let n = rows.len();
        let mut best: Option<(f64, u32)> = None;
        for &c in cols {
            let mut distinct: HashMap<ValueId, ()> = HashMap::with_capacity(n);
            let mut sum_sq = 0f64;
            for &r in &rows {
                let cell = table.cell(r as usize, c as usize);
                distinct.insert(cell.value, ());
                sum_sq += cell.sq_len() as f64;
            }
            let gain = (sum_sq / n as f64) * (n - distinct.len()) as f64;
            if gain > 0.0 && best.is_none_or(|(bg, bc)| gain > bg || (gain == bg && c < bc)) {
                best = Some((gain, c));
            }
        }
        let Some((_, chosen)) = best else {
            flush_flat(&rows, cols, out);
            return;
        };
        let mut groups: HashMap<ValueId, Vec<u32>> = HashMap::new();
        for &r in &rows {
            groups
                .entry(table.cell(r as usize, chosen as usize).value)
                .or_default()
                .push(r);
        }
        let mut parts: Vec<(ValueId, Vec<u32>)> = Vec::new();
        let mut residual: Vec<u32> = Vec::new();
        for (v, members) in groups {
            if members.len() >= 2 {
                parts.push((v, members));
            } else {
                residual.extend(members);
            }
        }
        parts.sort_by_key(|(v, members)| (std::cmp::Reverse(members.len()), *v));
        residual.sort_unstable();
        let sub_cols: Vec<u32> = cols.iter().copied().filter(|&c| c != chosen).collect();
        for (_, members) in parts {
            let mark = out.len();
            adaptive_rec_frozen(table, members, &sub_cols, out);
            for (_, fields) in &mut out[mark..] {
                fields.insert(0, chosen);
            }
        }
        if residual.is_empty() {
            return;
        }
        rows = residual;
    }
}

/// Frozen copy of the pre-columnar `greedy_prefix_order` fallback.
fn greedy_prefix_order_frozen(table: &ReorderTable, rows: &[u32], cols: &[u32]) -> Vec<u32> {
    let n = rows.len();
    let mut order: Vec<u32> = Vec::with_capacity(cols.len());
    let mut remaining: Vec<u32> = cols.to_vec();
    let mut groups: Vec<u32> = vec![0; n];
    let mut n_groups = 1usize;

    while !remaining.is_empty() && n_groups < n {
        let mut best: Option<(f64, usize)> = None;
        for (i, &c) in remaining.iter().enumerate() {
            let mut distinct: HashMap<(u32, ValueId), ()> = HashMap::with_capacity(n);
            let mut sum_sq = 0f64;
            for (g, &r) in groups.iter().zip(rows) {
                let cell = table.cell(r as usize, c as usize);
                distinct.insert((*g, cell.value), ());
                sum_sq += cell.sq_len() as f64;
            }
            let gain = (sum_sq / n as f64) * (n - distinct.len()) as f64;
            let better = match best {
                None => true,
                Some((bg, bi)) => gain > bg || (gain == bg && remaining[bi] > c),
            };
            if better {
                best = Some((gain, i));
            }
        }
        let (_, idx) = best.expect("remaining is non-empty");
        let chosen = remaining.remove(idx);
        let mut key_map: HashMap<(u32, ValueId), u32> = HashMap::with_capacity(n_groups * 2);
        for (g, &r) in groups.iter_mut().zip(rows) {
            let cell = table.cell(r as usize, chosen as usize);
            let next = key_map.len() as u32;
            let id = *key_map.entry((*g, cell.value)).or_insert(next);
            *g = id;
        }
        n_groups = key_map.len();
        order.push(chosen);
    }

    remaining.sort_by(|&a, &b| {
        let la: u64 = rows
            .iter()
            .map(|&r| table.cell(r as usize, a as usize).sq_len())
            .sum();
        let lb: u64 = rows
            .iter()
            .map(|&r| table.cell(r as usize, b as usize).sq_len())
            .sum();
        lb.cmp(&la).then(a.cmp(&b))
    });
    order.extend(remaining);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmqo::core::{phc_of_plan, Cell};

    fn table(rows: &[&[(u32, u32)]]) -> ReorderTable {
        let m = rows[0].len();
        let cols = (0..m).map(|i| format!("c{i}")).collect();
        let mut t = ReorderTable::new(cols).unwrap();
        for row in rows {
            t.push_row(
                row.iter()
                    .map(|&(id, len)| Cell::new(ValueId::from_raw(id), len))
                    .collect(),
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn reference_is_a_valid_solver() {
        let t = table(&[
            &[(1, 3), (10, 7), (20, 2)],
            &[(1, 3), (11, 7), (21, 2)],
            &[(2, 3), (11, 7), (20, 2)],
            &[(2, 3), (12, 7), (22, 2)],
        ]);
        let s = GgrReference::default()
            .reorder(&t, &FunctionalDeps::empty(3))
            .unwrap();
        s.plan.validate(&t).unwrap();
        assert!(phc_of_plan(&t, &s.plan).phc >= s.claimed_phc);
    }

    #[test]
    fn name_is_distinct() {
        assert_eq!(GgrReference::default().name(), "ggr-reference");
    }
}
