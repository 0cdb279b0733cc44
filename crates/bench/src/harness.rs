//! Shared measurement plumbing for the reproduction binaries.

use llmqo_cluster::{tag_requests, ClusterConfig, ClusterRequest, ClusterSim};
use llmqo_core::{Ggr, OriginalOrder, Reorderer};
use llmqo_datasets::{Dataset, DatasetId};
use llmqo_relational::{
    encode_table, plan_requests, project_fds, ExecError, LlmQuery, OptimizerConfig, QueryExecutor,
    QueryKind, QueryOutput, SqlResult, SqlRunner,
};
use llmqo_serve::{
    Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, OracleLlm, SimEngine, SimRequest,
};
use llmqo_tokenizer::Tokenizer;

/// Scaling factor from the `LLMQO_SCALE` environment variable (default 1.0).
/// Scaled runs keep each dataset's duplication structure but shrink row
/// counts proportionally, and write no `BENCH_*.json`
/// ([`BenchFile::write`](crate::report::BenchFile::write)). A value
/// [`parse_scale`] rejects ends the process: the scale decides whether a
/// committed file is rewritten, so it is never guessed.
pub fn scale() -> f64 {
    let raw = std::env::var_os("LLMQO_SCALE");
    let raw = raw.as_ref().map(|s| s.to_string_lossy());
    parse_scale(raw.as_deref()).unwrap_or_else(|problem| {
        eprintln!("{problem}");
        std::process::exit(2)
    })
}

/// The scale an `LLMQO_SCALE` value asks for: 1.0 when unset, otherwise a
/// finite number in `(0, 1]`, raised to at least 0.001.
///
/// # Errors
///
/// A one-line message naming the variable for anything else.
pub fn parse_scale(raw: Option<&str>) -> Result<f64, String> {
    let Some(raw) = raw else {
        return Ok(1.0);
    };
    match raw.parse::<f64>() {
        Ok(scale) if scale > 0.0 && scale <= 1.0 => Ok(scale.max(0.001)),
        _ => Err(format!(
            "LLMQO_SCALE={raw:?} is not a finite number in (0, 1]"
        )),
    }
}

/// Rows to generate for `id` under the current scale.
pub fn rows_for(id: DatasetId) -> usize {
    ((id.paper().nrows as f64) * scale()).round().max(30.0) as usize
}

/// Generates `id` at the current scale.
pub fn load(id: DatasetId) -> Dataset {
    Dataset::generate_with_rows(id, rows_for(id))
}

/// Llama-3-8B on a single L4 (the paper's primary setup).
pub fn deployment_8b() -> Deployment {
    Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4()))
}

/// Llama-3-70B on 8×L4 with tensor parallelism (paper Fig. 5).
pub fn deployment_70b() -> Deployment {
    Deployment::new(
        ModelSpec::llama3_70b(),
        GpuCluster::tensor_parallel(GpuSpec::l4(), 8),
    )
}

/// Llama-3.2-1B on a single L4 (paper Appendix D.2).
pub fn deployment_1b() -> Deployment {
    Deployment::new(ModelSpec::llama3_2_1b(), GpuCluster::single(GpuSpec::l4()))
}

/// The three evaluation arms of the paper's end-to-end figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Prefix cache disabled.
    NoCache,
    /// Prefix cache on, original row/field order.
    CacheOriginal,
    /// Prefix cache on, GGR-reordered schedule.
    CacheGgr,
}

impl Method {
    /// All three arms in the paper's plotting order.
    pub fn all() -> [Method; 3] {
        [Method::NoCache, Method::CacheOriginal, Method::CacheGgr]
    }

    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            Method::NoCache => "No Cache",
            Method::CacheOriginal => "Cache (Original)",
            Method::CacheGgr => "Cache (GGR)",
        }
    }
}

/// Runs one query under one method and deployment, returning the output
/// (with its [`ExecutionReport`](llmqo_relational::ExecutionReport)).
///
/// # Errors
///
/// Propagates [`ExecError`] from the executor.
pub fn run_method(
    ds: &Dataset,
    query: &LlmQuery,
    method: Method,
    deployment: &Deployment,
) -> Result<QueryOutput, ExecError> {
    let config = match method {
        Method::NoCache => EngineConfig::no_cache(),
        _ => EngineConfig::default(),
    };
    let engine = SimEngine::new(deployment.clone(), config);
    let executor = QueryExecutor::new(&engine, &OracleLlm, Tokenizer::new());
    let truth = ds.truth_fn(query);
    match method {
        Method::CacheGgr => executor.execute(&ds.table, query, &Ggr::default(), &ds.fds, &truth),
        _ => executor.execute(&ds.table, query, &OriginalOrder, &ds.fds, &truth),
    }
}

/// Runs a T3 multi-invocation chain under one method.
///
/// # Errors
///
/// Propagates [`ExecError`] from the executor.
pub fn run_multi_method(
    ds: &Dataset,
    stages: (&LlmQuery, &LlmQuery),
    method: Method,
    deployment: &Deployment,
) -> Result<Vec<QueryOutput>, ExecError> {
    let config = match method {
        Method::NoCache => EngineConfig::no_cache(),
        _ => EngineConfig::default(),
    };
    let engine = SimEngine::new(deployment.clone(), config);
    let executor = QueryExecutor::new(&engine, &OracleLlm, Tokenizer::new());
    let truths = (ds.truth_fn(stages.0), ds.truth_fn(stages.1));
    let solver_ggr = Ggr::default();
    let solver_orig = OriginalOrder;
    let solver: &dyn Reorderer = match method {
        Method::CacheGgr => &solver_ggr,
        _ => &solver_orig,
    };
    executor.execute_multi(
        &ds.table,
        &[stages.0, stages.1],
        solver,
        &ds.fds,
        &[&*truths.0, &*truths.1],
    )
}

/// The GGR-scheduled filter workload of `ds` as the cluster dispatcher sees
/// it: one request per row in solver order, each tagged with its depth-1
/// prefix key (the leading scheduled field, which is the group GGR sorted
/// on).
pub fn ggr_filter_requests(ds: &Dataset) -> Vec<ClusterRequest> {
    let query = ds
        .query_of_kind(QueryKind::Filter)
        .expect("dataset has a filter query");
    let encoded = encode_table(&Tokenizer::new(), &ds.table, query).expect("encode");
    let fds = project_fds(&ds.fds, &encoded.used_cols);
    let solution = Ggr::default()
        .reorder(&encoded.reorder, &fds)
        .expect("ggr never exceeds a budget");
    let keys = solution.plan.prefix_keys(&encoded.reorder, 1);
    tag_requests(plan_requests(&encoded, &solution.plan, query), &keys)
}

/// `replicas` Llama-3-8B/L4 engines behind one dispatcher whose replicas
/// each queue at most `queue_cap` requests.
pub fn cluster(replicas: usize, queue_cap: usize) -> ClusterSim {
    ClusterSim::new(
        SimEngine::new(deployment_8b(), EngineConfig::default()),
        ClusterConfig {
            replicas,
            queue_cap,
        },
    )
}

/// Grouped shared-prefix workload: `groups` prefix groups of `per_group`
/// requests, each a 64-token group prefix plus 16 tokens of its own,
/// generating `output_len` tokens and keyed by its group — the shape the
/// reordering solver hands the cluster, and the one where routing policy
/// decides whether prefixes stay cached. Every request arrives at t = 0 as
/// tenant 0, priority 0; callers set arrivals, tenants and priorities.
pub fn grouped_requests(groups: usize, per_group: usize, output_len: u32) -> Vec<ClusterRequest> {
    (0..groups * per_group)
        .map(|i| {
            let g = (i / per_group) as u32;
            let mut toks: Vec<u32> = (0..64).map(|j| g * 1000 + j).collect();
            toks.extend((0..16).map(|j| 500_000 + i as u32 * 64 + j));
            ClusterRequest::new(SimRequest::from_tokens(i, toks, output_len), u64::from(g))
        })
        .collect()
}

/// Runs `statements` in order on one fresh engine, executor and
/// [`SqlRunner`] with `ds` registered as `table`, so a later statement sees
/// the answer cache the earlier ones filled.
///
/// # Panics
///
/// If a statement fails: the reproduction binaries run fixed SQL.
pub fn run_sql<const N: usize>(
    ds: &Dataset,
    table: &str,
    statements: [&str; N],
    opt: OptimizerConfig,
    truth: &dyn Fn(usize) -> String,
) -> [SqlResult; N] {
    let engine = SimEngine::new(deployment_8b(), EngineConfig::default());
    let executor = QueryExecutor::new(&engine, &OracleLlm, Tokenizer::new());
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(opt);
    runner.register(table, &ds.table, &ds.fds);
    statements.map(|sql| runner.run(sql, truth).expect("statement runs"))
}

/// Ground truth of the pipeline and cascade statements: "Yes" for two rows in
/// three.
pub fn mostly_yes(row: usize) -> String {
    if row % 3 != 2 { "Yes" } else { "No" }.to_string()
}

/// LLM requests a statement sent to the engine, over all its operators.
pub fn llm_calls(res: &SqlResult) -> u64 {
    res.stages.iter().map(|s| s.report.opt.llm_calls).sum()
}

/// Relay end-to-end time: each operator runs on its own zero-based session,
/// so the statement takes the *sum* of the operators' completion times.
pub fn relay_time_s(res: &SqlResult) -> f64 {
    res.stages
        .iter()
        .map(|s| s.report.engine.job_completion_time_s)
        .sum()
}

/// Pipelined end-to-end time: all operators share one timeline, so the
/// statement is done at the *max* operator clock (the makespan).
pub fn makespan_s(res: &SqlResult) -> f64 {
    res.stages
        .iter()
        .map(|s| s.report.engine.job_completion_time_s)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_a_finite_number_in_unit_range_or_an_error() {
        assert_eq!(parse_scale(None), Ok(1.0));
        assert_eq!(parse_scale(Some("1")), Ok(1.0));
        assert_eq!(parse_scale(Some("0.2")), Ok(0.2));
        assert_eq!(parse_scale(Some("1e-9")), Ok(0.001));
        for bad in ["0,2", "abc", "", " 0.2", "nan", "inf", "0", "-0.5", "1.5"] {
            let problem = parse_scale(Some(bad)).expect_err(bad);
            assert!(problem.contains("LLMQO_SCALE") && !problem.contains('\n'));
        }
    }

    /// The token layout `BENCH_chaos.json`, `BENCH_overload.json` and
    /// `BENCH_pipeline.json` were measured on.
    #[test]
    fn grouped_requests_share_a_prefix_per_group() {
        let requests = grouped_requests(3, 8, 4);
        assert_eq!(requests.len(), 24);
        // (request, group, first own token): 64 group tokens `g·1000 + j`,
        // then 16 own tokens `500 000 + 64·i + j`.
        for (i, g, own) in [(0, 0, 500_000), (8, 1, 500_512), (23, 2, 501_472)] {
            let r = &requests[i];
            assert_eq!(
                (r.request.id, r.request.output_len, r.prefix_key),
                (i, 4, g)
            );
            let [toks] = r.request.prompt.as_slice() else {
                panic!("one flat fragment per request");
            };
            let g = g as u32;
            let expected: Vec<u32> = (g * 1000..g * 1000 + 64).chain(own..own + 16).collect();
            assert_eq!(toks[..], expected[..], "request {i}");
        }
        assert!(requests
            .iter()
            .all(|r| r.arrival_s == 0.0 && r.tenant == 0 && r.priority == 0));
    }

    #[test]
    fn scale_env_round_trips() {
        // Default (no env in tests unless set) is within the clamp.
        let s = scale();
        assert!((0.001..=1.0).contains(&s));
    }

    #[test]
    fn methods_have_labels() {
        for m in Method::all() {
            assert!(!m.label().is_empty());
        }
    }

    #[test]
    fn run_method_smoke() {
        let ds = Dataset::generate_with_rows(DatasetId::Beer, 60);
        let q = ds.query_of_kind(QueryKind::Filter).unwrap();
        let dep = deployment_8b();
        let out = run_method(&ds, q, Method::CacheGgr, &dep).unwrap();
        assert_eq!(out.outputs.len(), 60);
        let out2 = run_method(&ds, q, Method::NoCache, &dep).unwrap();
        assert_eq!(out2.report.engine.cached_prompt_tokens, 0);
    }
}
