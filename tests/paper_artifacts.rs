//! Scaled-down checks of the paper's artifacts: Figure 1's exact bounds,
//! Table 1's shapes, Table 6's GGR-vs-OPHR gap, and the Table 3/4 cost
//! mechanics. The full-size regenerations live in `llmqo-bench` binaries;
//! these tests guard the same relationships in CI time, and the shape of the
//! committed `BENCH_*.json` those binaries write.

use llmqo::core::{phc_of_plan, Cell, FunctionalDeps, Ggr, Ophr, ReorderTable, Reorderer, ValueId};
use llmqo::costmodel::{AnthropicCache, OpenAiCache, Pricing, ProviderCache, Usage};
use llmqo::datasets::{Dataset, DatasetId};
use llmqo::relational::{encode_table, project_fds, QueryKind};
use llmqo::tokenizer::Tokenizer;

#[test]
fn figure_1a_bound_is_tight() {
    // Unique first field, m−1 constant fields: optimized PHC = (n−1)(m−1).
    let (n, m) = (7u32, 4u32);
    let cols = (0..m).map(|f| format!("f{f}")).collect();
    let mut t = ReorderTable::new(cols).unwrap();
    for r in 0..n {
        let mut row = vec![Cell::new(ValueId::from_raw(100 + r), 1)];
        row.extend((1..m).map(|f| Cell::new(ValueId::from_raw(f), 1)));
        t.push_row(row).unwrap();
    }
    let fds = FunctionalDeps::empty(m as usize);
    let ggr = Ggr::default().reorder(&t, &fds).unwrap();
    assert_eq!(phc_of_plan(&t, &ggr.plan).phc, u64::from((n - 1) * (m - 1)));
}

#[test]
fn figure_1b_fixed_vs_per_row_gap_is_m_fold() {
    let x = 5u32;
    let cols = (0..3).map(|f| format!("f{f}")).collect();
    let mut t = ReorderTable::new(cols).unwrap();
    let mut unique = 1000;
    for field in 0..3u32 {
        for _ in 0..x {
            let row: Vec<Cell> = (0..3)
                .map(|f| {
                    if f == field {
                        Cell::new(ValueId::from_raw(field + 1), 1)
                    } else {
                        unique += 1;
                        Cell::new(ValueId::from_raw(unique), 1)
                    }
                })
                .collect();
            t.push_row(row).unwrap();
        }
    }
    let fds = FunctionalDeps::empty(3);
    let ggr = Ggr::default().reorder(&t, &fds).unwrap();
    let opt = Ophr::unbounded().reorder(&t, &fds).unwrap();
    assert_eq!(phc_of_plan(&t, &ggr.plan).phc, u64::from(3 * (x - 1)));
    assert_eq!(opt.claimed_phc, u64::from(3 * (x - 1)));
}

#[test]
fn table1_shapes_hold_for_scaled_generators() {
    let tok = Tokenizer::new();
    for id in DatasetId::all() {
        let paper = id.paper();
        let ds = Dataset::generate_with_rows(id, 300);
        assert_eq!(ds.table.ncols(), paper.nfields, "{}", id.name());
        let q = ds
            .query_of_kind(QueryKind::Filter)
            .or_else(|| ds.query_of_kind(QueryKind::Rag))
            .unwrap();
        let e = encode_table(&tok, &ds.table, q).unwrap();
        let input_avg = e.total_prompt_tokens() as f64 / 300.0;
        let target = paper.input_avg as f64;
        // Generators are calibrated primarily to the paper's *hit rates*
        // (Table 2); with this repo's tokenizer that costs some input-length
        // fidelity, most visibly on Beer whose prompts are dominated by the
        // fixed instruction.
        assert!(
            (input_avg - target).abs() / target < 0.45,
            "{}: input_avg {input_avg:.0} vs paper {target} (>45% off)",
            id.name()
        );
    }
}

#[test]
fn table6_ggr_is_near_optimal_on_dataset_prefixes() {
    // Appendix D.1's finding, on the two samples OPHR solves fastest.
    let tok = Tokenizer::new();
    for (id, nrows) in [(DatasetId::Beer, 10usize), (DatasetId::Squad, 10)] {
        let ds = Dataset::generate_with_rows(id, 40);
        let q = ds
            .query_of_kind(QueryKind::Filter)
            .or_else(|| ds.query_of_kind(QueryKind::Rag))
            .unwrap();
        let e = encode_table(&tok, &ds.table, q).unwrap();
        let table = e.reorder.head(nrows);
        let fds = project_fds(&ds.fds, &e.used_cols);
        let opt = Ophr::with_budget(std::time::Duration::from_secs(30))
            .reorder(&table, &fds)
            .unwrap_or_else(|_| panic!("{}-{nrows} should solve in budget", id.name()));
        let ggr = Ggr::default().reorder(&table, &fds).unwrap();
        let opt_rate = phc_of_plan(&table, &opt.plan).hit_rate();
        let ggr_rate = phc_of_plan(&table, &ggr.plan).hit_rate();
        assert!(ggr_rate <= opt_rate + 1e-12, "{}", id.name());
        assert!(
            opt_rate - ggr_rate < 0.05,
            "{}: GGR {ggr_rate:.3} vs OPHR {opt_rate:.3} (paper: within ~2pp)",
            id.name()
        );
    }
}

#[test]
fn table3_mechanics_original_misses_minimum_ggr_clears_it() {
    // Prompt families sharing a long prefix qualify for OpenAI caching only
    // when scheduled so the shared prefix exceeds 1 024 tokens — which is
    // exactly what reordering achieves.
    let mut interleaved = OpenAiCache::new();
    let mut grouped = OpenAiCache::new();
    let family = |fam: u32, member: u32| -> Vec<u32> {
        let mut p: Vec<u32> = (0..1400u32).map(|i| fam * 100_000 + i).collect();
        p.extend((0..200u32).map(|i| 50_000_000 + fam * 1000 + member * 300 + i));
        p
    };
    let mut usage_inter = Usage::default();
    let mut usage_group = Usage::default();
    // Interleaved: A B A B; grouped: A A B B. (OpenAI's cache persists, so
    // both see hits; grouping is what matters for *local* caches — here we
    // verify the provider accounting itself.)
    for (f, m) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
        usage_inter.add(interleaved.process(&family(f, m), 2));
    }
    for (f, m) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
        usage_group.add(grouped.process(&family(f, m), 2));
    }
    assert!(usage_group.hit_rate() > 0.3);
    assert_eq!(usage_group.cached_input, usage_inter.cached_input);
    // Families with <1024 shared tokens never hit.
    let mut cold = OpenAiCache::new();
    let short = |m: u32| -> Vec<u32> {
        let mut p: Vec<u32> = (0..900u32).collect();
        p.extend((0..300u32).map(|i| 9_000_000 + m * 1000 + i));
        p
    };
    let a = cold.process(&short(0), 2);
    let b = cold.process(&short(1), 2);
    assert_eq!(a.cached_input + b.cached_input, 0);
}

#[test]
fn table4_savings_bands_match_paper() {
    // With the paper's own Table 2 hit rates, the analytical model must land
    // inside the paper's reported savings bands.
    let openai = Pricing::gpt4o_mini();
    let anthropic = Pricing::claude35_sonnet();
    let rows = [
        (0.346, 0.857),
        (0.267, 0.833),
        (0.104, 0.848),
        (0.118, 0.566),
        (0.499, 0.801),
        (0.112, 0.674),
        (0.110, 0.697),
    ];
    for (orig, ggr) in rows {
        let s_oa = openai.estimated_savings(orig, ggr);
        let s_an = anthropic.estimated_savings(orig, ggr);
        assert!((0.18..0.42).contains(&s_oa), "OpenAI {s_oa}");
        assert!((0.40..0.85).contains(&s_an), "Anthropic {s_an}");
    }
}

#[test]
fn anthropic_conservative_policy_caps_hits_at_breakpoint() {
    let mut cache = AnthropicCache::new();
    let p: Vec<u32> = (0..3000).collect();
    cache.process(&p, 1);
    let u = cache.process(&p, 1);
    // Identical 3 000-token prompts still only read 1 024 cached tokens —
    // the paper's explanation for Anthropic's 2× lower measured hit rate.
    assert_eq!(u.cached_input, 1024);
    assert!(u.hit_rate() < 0.35);
}

/// The five committed `BENCH_*.json` share one envelope and are full-scale
/// runs; CI's `git diff` gate rests on both.
#[test]
fn committed_bench_files_share_the_envelope_at_full_scale() {
    for bench in ["adaptive", "cascade", "chaos", "overload", "pipeline"] {
        let path = format!("{}/BENCH_{bench}.json", env!("CARGO_MANIFEST_DIR"));
        let json = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        llmqo::obs::validate_json(&json).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(
            json.starts_with(&format!("{{\n  \"bench\": \"{bench}\",\n  \"metric\": ")),
            "{path} does not open with its own name"
        );
        assert!(
            json.contains("\",\n  \"scale\": 1.000000,\n  \"seed\": "),
            "{path} is not a full-scale run"
        );
    }
}
