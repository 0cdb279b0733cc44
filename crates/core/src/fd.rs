//! Functional dependencies between table columns (paper §4.2.1).
//!
//! The paper uses *bidirectional* FDs: columns `X ↔ Y` such that equal values
//! in `X` imply equal values in `Y` and vice versa (e.g. `movietitle ↔
//! rottentomatoeslink`). GGR exploits them two ways: once a value in column
//! `c` is chosen for a row's prefix, every column functionally equivalent to
//! `c` is placed directly after it (guaranteed hits within the group), and
//! those columns are removed from further recursion, shrinking the search
//! space.
//!
//! FDs are represented as equivalence groups over column indices (a
//! union-find closure of the pairwise relation), declared by the dataset
//! schemas the way a database reads them off primary/foreign key metadata.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A set of bidirectional functional-dependency groups over columns.
///
/// # Examples
///
/// ```
/// use llmqo_core::FunctionalDeps;
/// // Columns 0 and 2 determine each other; column 1 is independent.
/// let fds = FunctionalDeps::from_groups(3, vec![vec![0, 2]]).unwrap();
/// assert_eq!(fds.inferred(0), &[2]);
/// assert_eq!(fds.inferred(2), &[0]);
/// assert!(fds.inferred(1).is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionalDeps {
    ncols: usize,
    /// `inferred[c]` lists the other columns in `c`'s equivalence group,
    /// in ascending column order.
    inferred: Vec<Vec<u32>>,
}

impl FunctionalDeps {
    /// No dependencies among `ncols` columns.
    pub fn empty(ncols: usize) -> Self {
        FunctionalDeps {
            ncols,
            inferred: vec![Vec::new(); ncols],
        }
    }

    /// Builds dependencies from explicit equivalence groups (the form used in
    /// the paper's Appendix B, e.g. `[beer/beerId, beer/name]`).
    ///
    /// Overlapping groups are merged transitively.
    ///
    /// # Errors
    ///
    /// Returns the offending index if any group references a column `≥ ncols`.
    pub fn from_groups(ncols: usize, groups: Vec<Vec<u32>>) -> Result<Self, u32> {
        let mut parent: Vec<u32> = (0..ncols as u32).collect();
        fn find(parent: &mut [u32], x: u32) -> u32 {
            let mut root = x;
            while parent[root as usize] != root {
                root = parent[root as usize];
            }
            let mut cur = x;
            while parent[cur as usize] != root {
                let next = parent[cur as usize];
                parent[cur as usize] = root;
                cur = next;
            }
            root
        }
        for group in &groups {
            for &c in group {
                if c as usize >= ncols {
                    return Err(c);
                }
            }
            for w in group.windows(2) {
                let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
                if a != b {
                    parent[a as usize] = b;
                }
            }
        }
        let mut members: HashMap<u32, Vec<u32>> = HashMap::new();
        for c in 0..ncols as u32 {
            members.entry(find(&mut parent, c)).or_default().push(c);
        }
        let mut inferred = vec![Vec::new(); ncols];
        for group in members.values() {
            for &c in group {
                inferred[c as usize] = group.iter().copied().filter(|&o| o != c).collect();
                inferred[c as usize].sort_unstable();
            }
        }
        Ok(FunctionalDeps { ncols, inferred })
    }

    /// Number of columns these dependencies cover.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Columns functionally equivalent to `c` (excluding `c`), ascending.
    ///
    /// # Panics
    ///
    /// Panics if `c ≥ ncols`.
    pub fn inferred(&self, c: usize) -> &[u32] {
        &self.inferred[c]
    }

    /// The distinct equivalence groups with more than one member.
    pub fn groups(&self) -> Vec<Vec<u32>> {
        let mut seen = vec![false; self.ncols];
        let mut out = Vec::new();
        for c in 0..self.ncols {
            if seen[c] || self.inferred[c].is_empty() {
                continue;
            }
            let mut group = vec![c as u32];
            group.extend_from_slice(&self.inferred[c]);
            group.sort_unstable();
            for &g in &group {
                seen[g as usize] = true;
            }
            out.push(group);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_inferred() {
        let fds = FunctionalDeps::empty(3);
        assert!(fds.groups().is_empty());
        for col in 0..3 {
            assert!(fds.inferred(col).is_empty());
        }
    }

    #[test]
    fn groups_are_symmetric() {
        let fds = FunctionalDeps::from_groups(4, vec![vec![1, 3]]).unwrap();
        assert_eq!(fds.inferred(1), &[3]);
        assert_eq!(fds.inferred(3), &[1]);
        assert_eq!(fds.groups(), vec![vec![1, 3]]);
    }

    #[test]
    fn overlapping_groups_merge() {
        let fds = FunctionalDeps::from_groups(4, vec![vec![0, 1], vec![1, 2]]).unwrap();
        assert_eq!(fds.inferred(0), &[1, 2]);
        assert_eq!(fds.inferred(1), &[0, 2]);
        assert_eq!(fds.inferred(2), &[0, 1]);
        assert_eq!(fds.groups(), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn out_of_range_group_rejected() {
        assert_eq!(FunctionalDeps::from_groups(2, vec![vec![0, 5]]), Err(5));
    }

    #[test]
    fn single_column_tables() {
        let fds = FunctionalDeps::empty(1);
        assert!(fds.inferred(0).is_empty());
    }
}
