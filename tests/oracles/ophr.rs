//! Frozen pre-optimization OPHR — the differential-testing oracle.
//!
//! [`OphrReference`] is the pre-columnar transcription of §4.1: per-call
//! boxed-bitset memo keys, `HashMap` grouping at every node, and an O(n²)
//! `Vec::contains` rest-filter. Retained verbatim so
//! `tests/solver_differential.rs` can prove the optimized
//! [`Ophr`](llmqo::core::Ophr) returns identical plans and scores. A test
//! fixture over `llmqo-core`'s public API; it ships in no release build. Do
//! not optimize this module; its value is being frozen.

use llmqo::core::{
    FunctionalDeps, OphrConfig, ReorderPlan, ReorderTable, Reorderer, RowPlan, Solution,
    SolveError, ValueId,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

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

/// The frozen exact solver (§4.1, pre-columnar transcription).
///
/// Accepts the same [`OphrConfig`] as [`Ophr`](llmqo::core::Ophr) and must produce
/// the identical plan and claimed score whenever both finish in budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OphrReference {
    config: OphrConfig,
}

impl OphrReference {
    /// Creates a reference solver with the given configuration.
    pub fn new(config: OphrConfig) -> Self {
        OphrReference { config }
    }

    /// A reference solver with no time budget (test-sized tables only).
    pub fn unbounded() -> Self {
        OphrReference {
            config: OphrConfig { budget: None },
        }
    }

    /// A reference solver with the given time budget.
    pub fn with_budget(budget: Duration) -> Self {
        OphrReference {
            config: OphrConfig {
                budget: Some(budget),
            },
        }
    }
}

impl Reorderer for OphrReference {
    fn name(&self) -> &'static str {
        "ophr-reference"
    }

    fn reorder(&self, table: &ReorderTable, fds: &FunctionalDeps) -> Result<Solution, SolveError> {
        check_fd_arity(table, fds)?;
        let start = Instant::now();
        let deadline = self.config.budget.map(|b| start + b);
        let mut ctx = Ctx {
            table,
            memo: HashMap::new(),
            deadline,
            row_words: table.nrows().div_ceil(64).max(1),
            col_words: table.ncols().div_ceil(64).max(1),
        };
        let rows: Vec<u32> = (0..table.nrows() as u32).collect();
        let cols: Vec<u32> = (0..table.ncols() as u32).collect();
        let claimed_phc =
            ctx.solve(&rows, &cols)
                .map_err(|TimedOut| SolveError::BudgetExceeded {
                    budget: self.config.budget.unwrap_or_default(),
                })?;
        let ordered = ctx.build(&rows, &cols);
        let plan = ReorderPlan {
            rows: ordered
                .into_iter()
                .map(|(row, fields)| RowPlan::new(row as usize, fields))
                .collect(),
        };
        Ok(Solution {
            plan,
            claimed_phc,
            solve_time: start.elapsed(),
        })
    }
}

/// Budget-exhaustion marker for the recursive solver.
struct TimedOut;

/// How the optimum of a subproblem was achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Choice {
    Leaf,
    SingleCol,
    Split { col: u32, value: ValueId },
}

/// Canonical subproblem key: bitsets of row and column indices.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SubKey(Box<[u64]>, Box<[u64]>);

struct Ctx<'t> {
    table: &'t ReorderTable,
    memo: HashMap<SubKey, (u64, Choice)>,
    deadline: Option<Instant>,
    row_words: usize,
    col_words: usize,
}

impl<'t> Ctx<'t> {
    fn key(&self, rows: &[u32], cols: &[u32]) -> SubKey {
        SubKey(bitset(rows, self.row_words), bitset(cols, self.col_words))
    }

    fn solve(&mut self, rows: &[u32], cols: &[u32]) -> Result<u64, TimedOut> {
        if rows.len() <= 1 {
            return Ok(0);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(TimedOut);
            }
        }
        let key = self.key(rows, cols);
        if let Some(&(score, _)) = self.memo.get(&key) {
            return Ok(score);
        }

        if cols.len() == 1 {
            let score = single_column_score(self.table, rows, cols[0]);
            self.memo.insert(key, (score, Choice::SingleCol));
            return Ok(score);
        }

        let candidates = multi_groups(self.table, rows, cols);
        if candidates.is_empty() {
            self.memo.insert(key, (0, Choice::Leaf));
            return Ok(0);
        }

        let mut best: Option<(u64, u32, ValueId)> = None;
        for group in &candidates {
            let contrib = group.sq_len * (group.rows.len() as u64 - 1);
            let rest: Vec<u32> = rows
                .iter()
                .copied()
                .filter(|r| !group.rows.contains(r))
                .collect();
            let sub_cols: Vec<u32> = cols.iter().copied().filter(|&c| c != group.col).collect();
            let score = contrib + self.solve(&rest, cols)? + self.solve(&group.rows, &sub_cols)?;
            let better = match best {
                None => true,
                Some((bs, bc, bv)) => {
                    score > bs
                        || (score == bs
                            && (group.col < bc || (group.col == bc && group.value < bv)))
                }
            };
            if better {
                best = Some((score, group.col, group.value));
            }
        }
        let (score, col, value) = best.expect("candidates is non-empty");
        self.memo.insert(key, (score, Choice::Split { col, value }));
        Ok(score)
    }

    fn build(&self, rows: &[u32], cols: &[u32]) -> Vec<(u32, Vec<u32>)> {
        if rows.is_empty() {
            return Vec::new();
        }
        if rows.len() == 1 {
            return vec![(rows[0], cols.to_vec())];
        }
        let key = self.key(rows, cols);
        let (_, choice) = self.memo.get(&key).expect("subproblem was solved");
        match *choice {
            Choice::Leaf => rows.iter().map(|&r| (r, cols.to_vec())).collect(),
            Choice::SingleCol => {
                let mut ordered = rows.to_vec();
                ordered.sort_by_key(|&r| (self.table.cell(r as usize, cols[0] as usize).value, r));
                ordered.into_iter().map(|r| (r, cols.to_vec())).collect()
            }
            Choice::Split { col, value } => {
                let (group, rest): (Vec<u32>, Vec<u32>) = rows
                    .iter()
                    .partition(|&&r| self.table.cell(r as usize, col as usize).value == value);
                let sub_cols: Vec<u32> = cols.iter().copied().filter(|&c| c != col).collect();
                let mut out = Vec::with_capacity(rows.len());
                for (row, mut fields) in self.build(&group, &sub_cols) {
                    fields.insert(0, col);
                    out.push((row, fields));
                }
                out.extend(self.build(&rest, cols));
                out
            }
        }
    }
}

/// One candidate split group: all rows holding `value` in `col`.
struct Group {
    col: u32,
    value: ValueId,
    sq_len: u64,
    rows: Vec<u32>,
}

fn multi_groups(table: &ReorderTable, rows: &[u32], cols: &[u32]) -> Vec<Group> {
    let mut out = Vec::new();
    for &c in cols {
        let mut by_value: HashMap<ValueId, Vec<u32>> = HashMap::new();
        for &r in rows {
            by_value
                .entry(table.cell(r as usize, c as usize).value)
                .or_default()
                .push(r);
        }
        let mut groups: Vec<(ValueId, Vec<u32>)> = by_value
            .into_iter()
            .filter(|(_, members)| members.len() >= 2)
            .collect();
        groups.sort_by_key(|(v, _)| *v);
        for (value, members) in groups {
            let sq_len = table.cell(members[0] as usize, c as usize).sq_len();
            out.push(Group {
                col: c,
                value,
                sq_len,
                rows: members,
            });
        }
    }
    out
}

fn single_column_score(table: &ReorderTable, rows: &[u32], col: u32) -> u64 {
    let mut counts: HashMap<ValueId, (u64, u64)> = HashMap::new();
    for &r in rows {
        let cell = table.cell(r as usize, col as usize);
        let entry = counts.entry(cell.value).or_insert((0, cell.sq_len()));
        entry.0 += 1;
    }
    counts
        .values()
        .map(|&(count, sq_len)| sq_len * count.saturating_sub(1))
        .sum()
}

/// Builds a fixed-capacity bitset over `indices`.
fn bitset(indices: &[u32], words: usize) -> Box<[u64]> {
    let mut set = vec![0u64; words].into_boxed_slice();
    for &i in indices {
        set[(i / 64) as usize] |= 1 << (i % 64);
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmqo::core::{phc_of_plan, Cell};

    #[test]
    fn reference_is_exact_on_a_small_table() {
        let mut t = ReorderTable::new(vec!["a".into(), "b".into()]).unwrap();
        for (a, b, la, lb) in [(1, 7, 2, 5), (1, 8, 2, 5), (3, 8, 2, 5)] {
            t.push_row(vec![
                Cell::new(ValueId::from_raw(a), la),
                Cell::new(ValueId::from_raw(100 + b), lb),
            ])
            .unwrap();
        }
        let s = OphrReference::unbounded()
            .reorder(&t, &FunctionalDeps::empty(2))
            .unwrap();
        s.plan.validate(&t).unwrap();
        assert_eq!(s.claimed_phc, phc_of_plan(&t, &s.plan).phc);
        assert_eq!(s.claimed_phc, 25);
    }

    #[test]
    fn name_is_distinct() {
        assert_eq!(OphrReference::default().name(), "ophr-reference");
    }
}
