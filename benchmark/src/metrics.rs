//! The metric and workload tables — the single source `BENCHMARK.json`, the
//! printed report, `results.json` and `--compare` all follow — and the
//! per-layer ledger the traced pass fills.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// One end-to-end metric. `clock` says what produced the number: `sim`
/// (the modelled deployment's seconds, tokens, dollars), `count` (exact
/// counts made by the program or the allocator) or `host` (this machine's
/// wall clock, subject to sandbox noise). `bound` is the share of the
/// parent's value by which the metric may worsen before a change counts as
/// a regression; it is sized to hold the seed-to-seed spread, because the
/// acceptance protocol draws a new seed for every run. A change meant only
/// to speed up the host side must leave every `sim`/`count` metric
/// identical at a fixed seed.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub clock: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    clock: &'static str,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        clock,
    }
}

/// Every workload reports every one of these, and none is ever 0.
/// `README.md` has the full glossary.
pub const END_TO_END: [EndToEnd; 11] = [
    // Dataset generation + sampling + request building + probe runs; the
    // median of the run's five set-ups.
    e2e("setup_s", "s", Lower, 0.25, "host"),
    // Input rows (cluster: requests) offered per pass / wall time of the
    // fastest timed pass: the program is deterministic and single-threaded,
    // so the fastest pass is the one the scheduler disturbed least.
    e2e("rows_per_s", "rows/s", Higher, 0.25, "host"),
    // Heap allocations inside the program's calls of one pass / rows.
    e2e("allocs_per_row", "allocs/row", Lower, 0.06, "count"),
    // Largest live-heap growth inside one call into the program.
    e2e("peak_live_mb", "MB", Lower, 0.1, "count"),
    // Simulated completion time of a pass's jobs: relay statements sum
    // their stages, pipelined ones take the slowest stage, cluster runs
    // their makespan at the headline rate.
    e2e("sim_jct_s", "s", Lower, 0.1, "sim"),
    // Cached / total prompt tokens over the pass (paper Table 2).
    e2e("prefix_hit_rate", "ratio", Higher, 0.05, "sim"),
    // Engine requests per pass after dedup, answer cache and lazy LIMIT.
    e2e("llm_calls", "calls", Lower, 0.1, "count"),
    // Provider dollars per pass: GPT-4o-mini cached/uncached/output prices,
    // cascade stages per tier.
    e2e("cost_usd", "usd", Lower, 0.1, "sim"),
    // Simulated p99 request latency: from scheduled arrival to completion,
    // pooled over the headline-rate runs, on cluster workloads; admission to
    // last token on the slowest stage elsewhere.
    e2e("sim_tail_p99_s", "s", Lower, 0.2, "sim"),
    // Rows (cluster: requests) answered correctly and on time per
    // simulated second.
    e2e("goodput_rps", "req/s", Higher, 0.12, "sim"),
    // 1 - operations failed, refused or wrong / attempted; an operation is
    // a job, on cluster workloads a request.
    e2e("ops_ok_share", "ratio", Higher, 0.06, "count"),
];

/// The six workloads and why each exists (one line each, as in
/// `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "paper_scan",
        "the paper's 18 queries via QueryExecutor::execute + GGR: whole-table encode, one big solve, one long engine run; SQL front end, adaptive layer and cluster idle",
    ),
    (
        "sql_cold",
        "eight SQL statements on fresh runners under OptimizerConfig::all(): parse, optimizer, dedup, adaptive batches, answer-cache writes, many small solves",
    ),
    (
        "sql_warm",
        "the same statements after restoring an 80% StatementCheckpoint: the answer-cache read and bulk-restore path, a fifth of sql_cold's engine work",
    ),
    (
        "sql_fanout",
        "pipelined(8) and cascaded statements: StageEngine, SessionGroup, prefix-affinity fan-out and tier pricing; JCT is the slowest replica, cost spans two tiers",
    ),
    (
        "cluster_steady",
        "open loop: GGR-planned requests arrive as Poisson streams at 0.5x/0.8x/1.0x the fleet's ideal rate on 8 replicas through the fault-free dispatcher loop",
    ),
    (
        "cluster_chaos",
        "open loop at 1.0x through run_overloaded with crash, slowdown, transient errors, retries, hedging, shedding and autoscaling: every timed-event kind live",
    ),
];

/// Per-layer metrics: `<module>.<metric>`, unit, direction. Modules are the
/// workspace's crates, plus `driver` for the benchmark itself.
pub const PER_LAYER: [(&str, &str, Better); 103] = [
    ("datasets.generate_s", "s", Lower),
    ("datasets.rows", "rows", Higher),
    ("tokenizer.tokenize_s", "s", Lower),
    ("tokenizer.tokens", "tokens", Lower),
    ("tokenizer.mtok_per_s", "Mtok/s", Higher),
    ("relational.parse_us_per_stmt", "us", Lower),
    ("relational.explain_us_per_stmt", "us", Lower),
    ("relational.encode_s", "s", Lower),
    ("relational.encode_rows", "rows", Higher),
    ("relational.encode_tokens", "tokens", Lower),
    ("relational.plan_requests_s", "s", Lower),
    ("relational.run_s", "s", Lower),
    ("relational.self_s", "s", Lower),
    ("relational.rows_in", "rows", Lower),
    ("relational.rows_deduped", "rows", Higher),
    ("relational.cache_hits", "rows", Higher),
    ("relational.rows_skipped", "rows", Higher),
    ("relational.reranks", "count", Higher),
    ("relational.stage_batches", "count", Lower),
    ("relational.batch_resizes", "count", Higher),
    ("relational.dedup_ratio", "ratio", Higher),
    ("relational.answer_cache_hit_rate", "ratio", Higher),
    ("relational.rows_cheap", "rows", Higher),
    ("relational.rows_escalated", "rows", Lower),
    ("relational.restore_s", "s", Lower),
    ("relational.restore_entries", "count", Higher),
    ("core.solve_s", "s", Lower),
    ("core.solve_rows", "rows", Higher),
    ("core.solve_rows_per_s", "rows/s", Higher),
    ("core.inrun_solve_s", "s", Lower),
    ("core.claimed_phc", "count", Higher),
    ("core.field_phc", "count", Higher),
    ("serve.run_s", "s", Lower),
    ("serve.requests", "count", Lower),
    ("serve.steps", "count", Lower),
    ("serve.wall_step_s", "s", Lower),
    ("serve.wall_cache_admit_s", "s", Lower),
    ("serve.wall_decode_recurrence_s", "s", Lower),
    ("serve.cache_admit_calls", "count", Lower),
    ("serve.block_map_probes", "count", Lower),
    ("serve.heap_stale_invalidations", "count", Lower),
    ("serve.mark_computed_calls", "count", Lower),
    ("serve.prefill_sim_s", "s", Lower),
    ("serve.decode_sim_s", "s", Lower),
    ("serve.overhead_sim_s", "s", Lower),
    ("serve.prompt_tokens", "tokens", Lower),
    ("serve.cached_prompt_tokens", "tokens", Higher),
    ("serve.computed_prompt_tokens", "tokens", Lower),
    ("serve.output_tokens", "tokens", Lower),
    ("serve.evictions", "count", Lower),
    ("serve.peak_blocks", "count", Lower),
    ("serve.peak_running", "count", Higher),
    ("serve.ttft_p50_s", "s", Lower),
    ("serve.ttft_p99_s", "s", Lower),
    ("serve.latency_p50_s", "s", Lower),
    ("serve.latency_p99_s", "s", Lower),
    ("costmodel.rank_evaluations", "count", Lower),
    ("costmodel.cheap_usd", "usd", Lower),
    ("costmodel.expensive_usd", "usd", Lower),
    ("cluster.run_s", "s", Lower),
    ("cluster.offered", "count", Higher),
    ("cluster.succeeded", "count", Higher),
    ("cluster.failed", "count", Lower),
    ("cluster.shed", "count", Lower),
    ("cluster.shed_queue_full", "count", Lower),
    ("cluster.shed_kv_pressure", "count", Lower),
    ("cluster.shed_tenant_quota", "count", Lower),
    ("cluster.requests_routed", "count", Lower),
    ("cluster.macro_steps", "count", Higher),
    ("cluster.makespan_s", "s", Lower),
    ("cluster.phr", "ratio", Higher),
    ("cluster.load_skew", "ratio", Lower),
    ("cluster.queue_wait_p50_s", "s", Lower),
    ("cluster.queue_wait_max_s", "s", Lower),
    ("cluster.queue_wait_p99_s.r050", "s", Lower),
    ("cluster.queue_wait_p99_s.r080", "s", Lower),
    ("cluster.queue_wait_p99_s.r100", "s", Lower),
    ("cluster.slo_rate_frac", "ratio", Higher),
    ("cluster.kv_util_mean", "ratio", Lower),
    ("cluster.kv_util_peak", "ratio", Lower),
    ("cluster.idle_s", "s", Lower),
    ("cluster.retries", "count", Lower),
    ("cluster.transient_errors", "count", Lower),
    ("cluster.hedges_issued", "count", Lower),
    ("cluster.hedges_won", "count", Higher),
    ("cluster.failovers", "count", Lower),
    ("cluster.deadline_misses", "count", Lower),
    ("cluster.unavailable_s", "s", Lower),
    ("cluster.scale_ups", "count", Lower),
    ("cluster.scale_downs", "count", Lower),
    ("cluster.peak_replicas", "count", Lower),
    ("obs.trace_events", "count", Lower),
    ("obs.trace_dropped", "count", Lower),
    ("obs.overhead_pct", "%", Lower),
    ("driver.passes", "count", Higher),
    ("driver.jobs_per_pass", "count", Higher),
    ("driver.rows_per_pass", "rows", Higher),
    ("driver.pass_wall_s_min", "s", Lower),
    ("driver.pass_wall_s_p50", "s", Lower),
    ("driver.pass_wall_s_iqr", "s", Lower),
    ("driver.allocs_per_pass", "count", Lower),
    ("driver.alloc_mb_per_pass", "MB", Lower),
    ("driver.generator_late_s", "s", Lower),
];

/// Per-layer values by name. Every name of [`PER_LAYER`] is present from
/// the start, so a layer a workload does not touch reports 0, and a name
/// outside the table is a bug in the benchmark and panics.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    pub fn new() -> Self {
        Ledger(PER_LAYER.iter().map(|&(name, _, _)| (name, 0.0)).collect())
    }

    fn slot(&mut self, name: &str) -> &mut f64 {
        self.0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
    }

    pub fn add(&mut self, name: &str, x: f64) {
        *self.slot(name) += x;
    }

    pub fn set(&mut self, name: &str, x: f64) {
        *self.slot(name) = x;
    }

    /// Keeps the larger of the stored value and `x` (peaks and tails).
    pub fn max(&mut self, name: &str, x: f64) {
        let slot = self.slot(name);
        *slot = slot.max(x);
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(WORKLOADS.iter().map(|w| w.0));
        for name in names {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for (_, unit, _) in PER_LAYER {
            assert!(unit.len() <= 16 && !unit.is_empty());
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for m in &END_TO_END {
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
        }
    }

    #[test]
    fn ledger_starts_at_zero_and_rejects_unknown_names() {
        let mut l = Ledger::new();
        assert_eq!(l.get("cluster.shed"), 0.0);
        l.add("cluster.shed", 2.0);
        l.add("cluster.shed", 3.0);
        l.max("serve.peak_blocks", 4.0);
        l.max("serve.peak_blocks", 1.0);
        assert_eq!(
            (l.get("cluster.shed"), l.get("serve.peak_blocks")),
            (5.0, 4.0)
        );
        assert!(std::panic::catch_unwind(move || l.add("cluster.typo", 1.0)).is_err());
    }
}
