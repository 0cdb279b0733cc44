//! Differential tests for the columnar solver core.
//!
//! The optimized [`Ggr`]/[`Ophr`] solvers are *engineering* rewrites of the
//! frozen [`GgrReference`]/[`OphrReference`] transcriptions (`tests/oracles/`,
//! compiled into this suite only): every plan and
//! every claimed PHC must be byte-for-byte identical, across configurations,
//! random tables (with and without functional dependencies), and every
//! dataset the tier-1 suite exercises. Any divergence here means the
//! columnar core changed *behaviour*, not just speed, and is a bug.

mod common;
/// The frozen transcriptions, compiled into this suite only — verbatim, so
/// with the accessors nothing here calls.
#[allow(dead_code)]
mod oracles {
    pub mod ggr;
    pub mod ophr;
}

use llmqo::core::{
    adaptive_prefix_plan, Cell, FallbackOrdering, FunctionalDeps, Ggr, GgrConfig, Ophr,
    ReorderTable, Reorderer, Solution, ValueId,
};
use llmqo::datasets::DatasetId;
use llmqo::relational::{encode_table, project_fds};
use llmqo::tokenizer::Tokenizer;
use oracles::ggr::GgrReference;
use oracles::ophr::OphrReference;
use proptest::prelude::*;
use std::collections::HashMap;

/// Every GGR configuration family the differential suite exercises.
fn ggr_configs() -> Vec<GgrConfig> {
    let mut configs = vec![GgrConfig::paper(), GgrConfig::exhaustive()];
    for fallback in [FallbackOrdering::Adaptive, FallbackOrdering::StatFixed] {
        configs.push(GgrConfig {
            max_row_depth: Some(1),
            max_col_depth: Some(1),
            fallback,
            ..GgrConfig::paper()
        });
    }
    configs.push(GgrConfig {
        use_fds: false,
        ..GgrConfig::paper()
    });
    configs
}

/// Exact bidirectional FDs of `t`'s data: columns `a ↔ b` iff the observed
/// value mapping between them is a bijection. `O(m² · n)`; the solvers take
/// FDs from the dataset schemas, so only this suite derives them from data.
fn discover_fds(t: &ReorderTable) -> FunctionalDeps {
    let bijective = |a: usize, b: usize| {
        let (mut fwd, mut bwd) = (HashMap::new(), HashMap::new());
        (0..t.nrows()).all(|r| {
            let (va, vb) = (t.cell(r, a).value, t.cell(r, b).value);
            *fwd.entry(va).or_insert(vb) == vb && *bwd.entry(vb).or_insert(va) == va
        })
    };
    let m = t.ncols();
    let groups = (0..m)
        .flat_map(|a| ((a + 1)..m).map(move |b| (a, b)))
        .filter(|&(a, b)| bijective(a, b))
        .map(|(a, b)| vec![a as u32, b as u32])
        .collect();
    FunctionalDeps::from_groups(m, groups).expect("column indices are in range")
}

fn assert_ggr_matches(t: &ReorderTable, fds: &FunctionalDeps, config: GgrConfig) {
    let opt = Ggr::new(config).reorder(t, fds).unwrap();
    let reference = GgrReference::new(config).reorder(t, fds).unwrap();
    assert_identical(&opt, &reference, &format!("GGR {config:?}"));
    opt.plan.validate(t).unwrap();
}

fn assert_identical(opt: &Solution, reference: &Solution, what: &str) {
    assert_eq!(
        opt.claimed_phc, reference.claimed_phc,
        "{what}: claimed PHC diverged"
    );
    assert_eq!(opt.plan, reference.plan, "{what}: plan diverged");
}

/// Random table strategy: per-column value pools so duplicates are common;
/// lengths are a function of (column, value) so exact-match semantics hold.
fn table_strategy(max_rows: usize, max_cols: usize) -> impl Strategy<Value = ReorderTable> {
    (1..=max_cols, 1..=max_rows)
        .prop_flat_map(move |(m, n)| {
            proptest::collection::vec(proptest::collection::vec(0u32..5, m), n)
        })
        .prop_map(|rows| {
            let m = rows[0].len();
            let cols = (0..m).map(|c| format!("c{c}")).collect();
            let mut t = ReorderTable::new(cols).unwrap();
            for row in &rows {
                let cells = row
                    .iter()
                    .enumerate()
                    .map(|(c, &v)| {
                        Cell::new(
                            ValueId::from_raw(c as u32 * 16 + v),
                            1 + (v * 3 + c as u32) % 7,
                        )
                    })
                    .collect();
                t.push_row(cells).unwrap();
            }
            t
        })
}

/// FD-structured random table: column 0 is a key whose value *determines*
/// every column in `fd_group` (exact bijections), the rest are free.
fn fd_table_strategy(max_rows: usize) -> impl Strategy<Value = (ReorderTable, FunctionalDeps)> {
    (2..=16usize, 2..=max_rows)
        .prop_flat_map(|(keys, n)| {
            (
                Just(keys),
                proptest::collection::vec((0..keys as u32, 0u32..4), n),
            )
        })
        .prop_map(|(keys, rows)| {
            let cols = vec!["key".into(), "name".into(), "free".into(), "flag".into()];
            let mut t = ReorderTable::new(cols).unwrap();
            for &(k, free) in &rows {
                t.push_row(vec![
                    Cell::new(ValueId::from_raw(k), 2 + k % 3),
                    // Derived bijectively from the key: exact FD key ↔ name.
                    Cell::new(ValueId::from_raw(100 + k), 4 + k % 5),
                    Cell::new(ValueId::from_raw(200 + free * 7), 3),
                    Cell::new(ValueId::from_raw(300 + free % 2), 1 + free % 2),
                ])
                .unwrap();
            }
            let _ = keys;
            let fds = FunctionalDeps::from_groups(4, vec![vec![0, 1]]).unwrap();
            (t, fds)
        })
}

/// Wide PDMX-like tables, 40–48 columns cycling through binary flags,
/// mid-cardinality columns and per-row-unique columns, with lengths that
/// differ by value — the shape on which the adaptive fall-back's early
/// stop (`order.rs`) skips most of a scan.
fn wide_table_strategy() -> impl Strategy<Value = ReorderTable> {
    (40..=48usize, 8..=48usize)
        .prop_flat_map(|(m, n)| proptest::collection::vec(proptest::collection::vec(0u32..8, m), n))
        .prop_map(|rows| {
            let m = rows[0].len();
            let cols = (0..m).map(|c| format!("c{c}")).collect();
            let mut t = ReorderTable::new(cols).unwrap();
            for (r, row) in rows.iter().enumerate() {
                let cells = row
                    .iter()
                    .enumerate()
                    .map(|(c, &v)| {
                        let v = match c % 3 {
                            0 => v % 2,
                            1 => v,
                            _ => 8 + r as u32,
                        };
                        let id = c as u32 * 256 + v;
                        Cell::new(ValueId::from_raw(id), 1 + (v * 7 + c as u32 * 13) % 29)
                    })
                    .collect();
                t.push_row(cells).unwrap();
            }
            t
        })
}

/// Nested wide tables, 65–72 columns over a three-level row hierarchy
/// (`a` ⊃ `b` ⊃ `c`). Three column kinds repeat one level's group id, so
/// they are constant inside that level's groups and the adaptive fall-back
/// walks long runs of them in place, past column 64 too. The fourth kind
/// repeats the middle level's id except in rows whose `lone` draw names
/// the column, which hold a value of their own: a split on such a column
/// leaves them singletons, for the residual branch.
fn nested_wide_table_strategy() -> impl Strategy<Value = ReorderTable> {
    let row = (0u32..3, 0u32..3, 0u32..4, 0u32..8);
    (65..=72usize, proptest::collection::vec(row, 6..=40)).prop_map(|(m, rows)| {
        let cols = (0..m).map(|c| format!("c{c}")).collect();
        let mut t = ReorderTable::new(cols).unwrap();
        for (r, &(a, b, c, lone)) in rows.iter().enumerate() {
            let cells = (0..m as u32)
                .map(|col| {
                    let v = match col % 4 {
                        0 => a,
                        1 => 3 * a + b,
                        2 => 12 * a + 4 * b + c,
                        _ if col % 8 == lone => 100 + r as u32,
                        _ => 3 * a + b,
                    };
                    Cell::new(
                        ValueId::from_raw(col * 256 + v),
                        1 + (v * 7 + col * 13) % 29,
                    )
                })
                .collect();
            t.push_row(cells).unwrap();
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ggr_matches_reference_without_fds(t in table_strategy(24, 5)) {
        let fds = FunctionalDeps::empty(t.ncols());
        for config in ggr_configs() {
            assert_ggr_matches(&t, &fds, config);
        }
    }

    #[test]
    fn ggr_matches_reference_with_exact_fds(pair in fd_table_strategy(24)) {
        let (t, fds) = pair;
        for config in ggr_configs() {
            assert_ggr_matches(&t, &fds, config);
        }
        // Discovered FDs must also agree (they may find more groups than the
        // declared ones, e.g. accidental bijections on small samples).
        let discovered = discover_fds(&t);
        assert_ggr_matches(&t, &discovered, GgrConfig::paper());
    }

    #[test]
    fn ggr_matches_reference_with_deliberately_wrong_fds(t in table_strategy(16, 4)) {
        // Wrong (over-claimed) FDs stress the inferred-column scoring paths;
        // optimized and reference must still agree on every plan.
        let m = t.ncols();
        if m >= 2 {
            let fds = FunctionalDeps::from_groups(m, vec![(0..m as u32).collect()]).unwrap();
            for config in [GgrConfig::paper(), GgrConfig::exhaustive()] {
                assert_ggr_matches(&t, &fds, config);
            }
        }
    }

    #[test]
    fn ggr_matches_reference_on_wide_tables(t in wide_table_strategy()) {
        let fds = FunctionalDeps::empty(t.ncols());
        for config in ggr_configs() {
            assert_ggr_matches(&t, &fds, config);
        }
    }

    #[test]
    fn ggr_matches_reference_on_nested_wide_tables(t in nested_wide_table_strategy()) {
        let fds = FunctionalDeps::empty(t.ncols());
        for config in ggr_configs() {
            assert_ggr_matches(&t, &fds, config);
        }
    }

    #[test]
    fn ophr_matches_reference_on_small_tables(t in table_strategy(9, 3)) {
        let fds = FunctionalDeps::empty(t.ncols());
        let opt = Ophr::unbounded().reorder(&t, &fds).unwrap();
        let reference = OphrReference::unbounded().reorder(&t, &fds).unwrap();
        assert_identical(&opt, &reference, "OPHR");
        opt.plan.validate(&t).unwrap();
    }
}

/// Differential check over every dataset of the tier-1 suite: GGR at its
/// paper configuration on each dataset's first query encoding, OPHR on a
/// small prefix (it is exponential) — then Movies at the sizes the solver
/// benchmark runs.
#[test]
fn solvers_match_reference_on_all_tier1_datasets() {
    let tokenizer = Tokenizer::new();
    for (id, ds) in common::tier1_datasets(120) {
        let query = ds.queries.first().expect("every dataset has queries");
        let encoded = encode_table(&tokenizer, &ds.table, query).expect("encoding succeeds");
        let fds = project_fds(&ds.fds, &encoded.used_cols);

        for config in [GgrConfig::paper(), GgrConfig::exhaustive()] {
            let opt = Ggr::new(config).reorder(&encoded.reorder, &fds).unwrap();
            let reference = GgrReference::new(config)
                .reorder(&encoded.reorder, &fds)
                .unwrap();
            assert_identical(&opt, &reference, &format!("GGR on {}", id.name()));
        }

        // OPHR is exponential in columns as well as rows; mirror the paper's
        // Appendix D.1 setup and compare on a cut-down prefix view.
        let keep: Vec<usize> = (0..encoded.reorder.ncols().min(4)).collect();
        let head = encoded.reorder.head(12).select_columns(&keep);
        let head_fds = FunctionalDeps::empty(head.ncols());
        let opt = Ophr::unbounded().reorder(&head, &head_fds).unwrap();
        let reference = OphrReference::unbounded()
            .reorder(&head, &head_fds)
            .unwrap();
        assert_identical(&opt, &reference, &format!("OPHR on {}", id.name()));
    }

    // The solver benchmark's inputs: the Movies filter encoding at 250 /
    // 1 000 / 4 000 rows under the paper configuration, and exact OPHR on
    // the 16-row head of the 64-row encoding — every column, FDs declared.
    let movies = |rows: usize| common::filter_table(DatasetId::Movies, rows);
    for rows in [250usize, 1000, 4000] {
        let (table, fds) = movies(rows);
        let opt = Ggr::default().reorder(&table, &fds).unwrap();
        let reference = GgrReference::default().reorder(&table, &fds).unwrap();
        assert_identical(&opt, &reference, &format!("GGR on movies-{rows}"));
    }
    // The 57-column PDMX table, and in release builds PDMX and Beer at the
    // row counts the end-to-end benchmark's `paper_scan` solves.
    let full_scale: &[(DatasetId, usize)] = if cfg!(debug_assertions) {
        &[(DatasetId::Pdmx, 400)]
    } else {
        &[
            (DatasetId::Pdmx, 400),
            (DatasetId::Pdmx, 2250),
            (DatasetId::Beer, 6400),
        ]
    };
    for &(id, rows) in full_scale {
        let (table, fds) = common::filter_table(id, rows);
        let opt = Ggr::default().reorder(&table, &fds).unwrap();
        let reference = GgrReference::default().reorder(&table, &fds).unwrap();
        assert_identical(&opt, &reference, &format!("GGR on {}-{rows}", id.name()));
    }
    let (table, fds) = movies(64);
    let head = table.head(16);
    let opt = Ophr::unbounded().reorder(&head, &fds).unwrap();
    let reference = OphrReference::unbounded().reorder(&head, &fds).unwrap();
    assert_identical(&opt, &reference, "OPHR on movies head(16)");
}

/// A solve on a recycled scratch arena is a solve on a fresh one. A wide
/// table grows this thread's arena, then a narrower table with other values
/// (whose raw value ids overlap the first one's) reuses it: under every
/// configuration its plan must equal the one a fresh thread finds, and the
/// oracle's.
#[test]
fn a_recycled_scratch_solves_like_a_fresh_one() {
    let (wide, wide_fds) = common::filter_table(DatasetId::Pdmx, 300);
    let (narrow, narrow_fds) = common::filter_table(DatasetId::Beer, 300);
    assert!(wide.ncols() > narrow.ncols());
    let solve_all = || -> Vec<Solution> {
        let solve = |config| Ggr::new(config).reorder(&narrow, &narrow_fds).unwrap();
        ggr_configs().into_iter().map(solve).collect()
    };
    std::thread::scope(|scope| {
        let recycled = scope.spawn(|| {
            Ggr::default().reorder(&wide, &wide_fds).unwrap();
            solve_all()
        });
        let fresh = scope.spawn(solve_all);
        let (recycled, fresh) = (recycled.join().unwrap(), fresh.join().unwrap());
        for ((config, recycled), fresh) in ggr_configs().into_iter().zip(&recycled).zip(&fresh) {
            let what = format!("GGR {config:?} on a recycled arena");
            assert_identical(recycled, fresh, &what);
            let reference = GgrReference::new(config)
                .reorder(&narrow, &narrow_fds)
                .unwrap();
            assert_identical(recycled, &reference, &what);
        }
    });
}

/// Equivalence must hold even on *ill-formed* tables where one [`ValueId`]
/// recurs with different lengths. Well-formed encodings never produce such
/// tables (a fragment's token count is a property of the fragment), and
/// `push_row` now rejects them in debug builds — so this test goes through
/// `push_row_unchecked`. The differential contract must still not depend on
/// the invariant: group representatives are read from the view-local first
/// member, exactly as the references do.
#[test]
fn ggr_and_ophr_match_reference_when_a_value_recurs_with_different_lengths() {
    let mut t = ReorderTable::new(vec!["a".into(), "b".into()]).unwrap();
    let rows = [
        (1u32, 1u32, 10u32, 4u32),
        (2, 3, 10, 4),
        (1, 9, 11, 7),
        (1, 9, 11, 7),
    ];
    for (va, la, vb, lb) in rows {
        t.push_row_unchecked(vec![
            Cell::new(ValueId::from_raw(va), la),
            Cell::new(ValueId::from_raw(100 + vb), lb),
        ])
        .unwrap();
    }
    let fds = FunctionalDeps::empty(2);
    for config in ggr_configs() {
        assert_ggr_matches(&t, &fds, config);
    }
    let opt = Ophr::unbounded().reorder(&t, &fds).unwrap();
    let reference = OphrReference::unbounded().reorder(&t, &fds).unwrap();
    assert_identical(&opt, &reference, "OPHR on ill-formed lengths");
}

/// The adaptive fall-back's tie rule at the edge of its bound: column `a`
/// (constant, length 3) and column `b` (lengths 5, 5, 2) both gain exactly
/// 18 on three rows, and `a`'s bound `M_a · (n − 1) = 9 · 2` is 18 too. `b`
/// has the larger `M`, so it is scanned first; `a` must then be scanned
/// when its index is smaller (and win the tie) and skipped when it is
/// larger (and lose it) — on either side the plan is the oracle's.
#[test]
fn adaptive_bound_ties_go_to_the_lower_index() {
    for (a, b, filler) in [(0usize, 1usize, 2usize), (2, 1, 0)] {
        let mut t = ReorderTable::new(vec!["c0".into(), "c1".into(), "c2".into()]).unwrap();
        for (r, (bv, bl)) in [(1u32, 5u32), (1, 5), (2, 2)].into_iter().enumerate() {
            let mut cells = vec![Cell::new(ValueId::from_raw(0), 0); 3];
            cells[a] = Cell::new(ValueId::from_raw(10), 3);
            cells[b] = Cell::new(ValueId::from_raw(20 + bv), bl);
            cells[filler] = Cell::new(ValueId::from_raw(30 + r as u32), 1);
            t.push_row(cells).unwrap();
        }
        let plan = adaptive_prefix_plan(&t, &[0, 1, 2], &[0, 1, 2]);
        assert_eq!(plan.row(0).fields[0] as usize, a.min(b), "tie at {a}/{b}");
        let fallback_only = GgrConfig {
            max_row_depth: Some(0),
            ..GgrConfig::paper()
        };
        let fds = FunctionalDeps::empty(3);
        for config in ggr_configs().into_iter().chain([fallback_only]) {
            assert_ggr_matches(&t, &fds, config);
        }
    }
}

/// The paper-configuration claimed score must stay bit-identical through the
/// float-heavy HITCOUNT path even on tables with large length skew.
#[test]
fn ggr_claims_match_on_length_skewed_table() {
    let mut t = ReorderTable::new(vec!["a".into(), "b".into(), "c".into()]).unwrap();
    for r in 0..60u32 {
        t.push_row(vec![
            Cell::new(ValueId::from_raw(r % 7), 1 + (r % 7) * 40),
            Cell::new(ValueId::from_raw(100 + r % 3), 911),
            Cell::new(ValueId::from_raw(200 + r), 2),
        ])
        .unwrap();
    }
    let fds = discover_fds(&t);
    for config in ggr_configs() {
        assert_ggr_matches(&t, &fds, config);
    }
}
