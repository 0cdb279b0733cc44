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
    Cell, FallbackOrdering, FunctionalDeps, Ggr, GgrConfig, Ophr, ReorderTable, Reorderer,
    Solution, ValueId,
};
use llmqo::datasets::{Dataset, DatasetId};
use llmqo::relational::{encode_table, project_fds, QueryKind};
use llmqo::tokenizer::Tokenizer;
use oracles::ggr::GgrReference;
use oracles::ophr::OphrReference;
use proptest::prelude::*;

/// Every GGR configuration family the differential suite exercises.
fn ggr_configs() -> Vec<GgrConfig> {
    let mut configs = vec![GgrConfig::paper(), GgrConfig::exhaustive()];
    for fallback in [
        FallbackOrdering::Adaptive,
        FallbackOrdering::GreedyPrefix,
        FallbackOrdering::StatFixed,
        FallbackOrdering::SortedFixed,
        FallbackOrdering::Original,
    ] {
        configs.push(GgrConfig {
            max_row_depth: Some(1),
            max_col_depth: Some(1),
            fallback,
            ..GgrConfig::paper()
        });
    }
    configs.push(GgrConfig {
        min_hitcount: Some(30),
        ..GgrConfig::exhaustive()
    });
    configs.push(GgrConfig {
        use_fds: false,
        ..GgrConfig::paper()
    });
    configs
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
        let discovered = FunctionalDeps::discover(&t);
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
    let movies = |rows: usize| {
        let ds = Dataset::generate_with_rows(DatasetId::Movies, rows);
        let query = ds.query_of_kind(QueryKind::Filter).expect("filter query");
        let encoded = encode_table(&tokenizer, &ds.table, query).expect("encoding succeeds");
        let fds = project_fds(&ds.fds, &encoded.used_cols);
        (encoded.reorder, fds)
    };
    for rows in [250usize, 1000, 4000] {
        let (table, fds) = movies(rows);
        let opt = Ggr::default().reorder(&table, &fds).unwrap();
        let reference = GgrReference::default().reorder(&table, &fds).unwrap();
        assert_identical(&opt, &reference, &format!("GGR on movies-{rows}"));
    }
    let (table, fds) = movies(64);
    let head = table.head(16);
    let opt = Ophr::unbounded().reorder(&head, &fds).unwrap();
    let reference = OphrReference::unbounded().reorder(&head, &fds).unwrap();
    assert_identical(&opt, &reference, "OPHR on movies head(16)");
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
    let fds = FunctionalDeps::discover(&t);
    for config in ggr_configs() {
        assert_ggr_matches(&t, &fds, config);
    }
}
