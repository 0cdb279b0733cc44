//! Allocation budget of the prompt path: hashing a prompt into its block
//! chain, queueing it and admitting it into the prefix cache allocate
//! nothing per request — the hasher lends a view of its own buffer, the
//! session copies queued ids into a FIFO arena of fixed-size chunks, the
//! cache copies new ids into recycled pages. What a run still allocates is
//! per run (sessions, reports), per chunk or page, or the logarithmic growth
//! of its per-request records, so a few thousand requests must come in at a
//! small fraction of an allocation each. A batch run queues through a
//! window of `max_num_seqs + 1` requests, so the chunks it opens do not
//! grow with the batch either. The same holds when the cluster
//! kernel attributes, retries, hedges and sheds: its request-id index and
//! admission ledgers are built once per run.
//!
//! The solver that orders those requests joins the budget: GGR writes its
//! plan as two flat arrays and draws every other buffer from a scratch arena
//! the thread keeps between solves, so a warm solve allocates a constant
//! whatever the row count.
//!
//! A SQL statement above them allocates per statement, not per batch: each
//! LLM operator's stage keeps its batch buffers from one batch to the next,
//! and result rows are built only for the rows the caller receives. A
//! statement whose every row the answer cache answers allocates the same
//! whatever its row count: an answered row is never tokenized.
//!
//! This binary counts with its own `#[global_allocator]` (which is why it is
//! a binary of its own: the crates forbid `unsafe`). A measurement counts
//! its own thread and every thread that first allocates while it runs, so a
//! cluster run's chain-hashing helper is in the figure with the thread that
//! started it, and libtest's main thread, which allocated before any test
//! began, never is: its bookkeeping between tests stays out of the counts.
//! Every test holds one lock for its whole body, so no other test measures
//! meanwhile. What can still land in a count is a libtest thread that
//! starts while a test measures: its first allocation (its output-capture
//! buffer) counts, one allocation, before it waits for the lock.

mod common;

use llmqo::cluster::{
    tag_requests, AdmissionPolicy, ArrivalProcess, FaultPlan, OverloadPolicy, PrefixAffinity,
    RetryPolicy, ScalePolicy,
};
use llmqo::core::{Ggr, Reorderer};
use llmqo::datasets::DatasetId;
use llmqo::relational::OptimizerConfig;
use llmqo::serve::SimRequest;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Heap allocations (and reallocations) made by counted threads.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A test is inside [`allocations_in`].
static MEASURING: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Whether this thread's allocations count: set by [`allocations_in`]
    /// on its own thread, and fixed at any other thread's first allocation
    /// to whether a test was measuring then. Const and without a
    /// destructor, so reading it never allocates.
    static COUNTED: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Held by every test for its whole body: the counter and the measuring
/// flag are shared by every thread.
static ONE_TEST_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_test_at_a_time() -> MutexGuard<'static, ()> {
    ONE_TEST_AT_A_TIME
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

struct Counting;

fn count() {
    let counted = COUNTED.with(|c| {
        c.get().unwrap_or_else(|| {
            let measuring = MEASURING.load(Ordering::Relaxed);
            c.set(Some(measuring));
            measuring
        })
    });
    if counted {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter and flag are static
// atomics and the thread-local a const `Cell`, so touching them never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` describe a block this allocator handed
        // out, which is a block `System` handed out.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made inside `f`, by this thread and any it starts.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    COUNTED.with(|c| c.set(Some(true)));
    // Threads `f` starts see this: spawning orders it before them.
    MEASURING.store(true, Ordering::Relaxed);
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = f();
    let spent = ALLOCS.load(Ordering::Relaxed) - before;
    MEASURING.store(false, Ordering::Relaxed);
    COUNTED.with(|c| c.set(Some(false)));
    (spent, result)
}

/// The most a request may cost, in allocations. The parent of the commit
/// that set this budget spent 1.0 on the chain alone (an `Arc<[u64]>` per
/// request, shared by hasher, queue and cache).
const BUDGET_PER_REQUEST: f64 = 0.25;

#[test]
fn the_prompt_path_allocates_per_chunk_and_page_not_per_request() {
    let _one = one_test_at_a_time();
    const REQUESTS: usize = 2_000;
    let (requests, keys) = common::reordered_movies_requests(REQUESTS);

    // One replica through `SimEngine::run`'s window.
    let engine = common::engine();
    let (spent, report) = allocations_in(|| engine.run(&requests).unwrap());
    assert_eq!(report.completed, REQUESTS);
    assert!(report.cached_prompt_tokens > 0 && report.evictions > 0);
    let per_request = spent as f64 / REQUESTS as f64;
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "SimEngine::run: {spent} allocations for {REQUESTS} requests ({per_request:.3} each)"
    );

    // The same job by hand, one owner of the ids at a time, everything
    // queued up front: the arena at its fullest.
    let mut session = engine.session().unwrap();
    let mut hasher = engine.chain_hasher();
    let (mut hashing, mut queueing) = (0, 0);
    for r in &requests {
        let (spent, chain) = allocations_in(|| hasher.chain(&r.prompt));
        hashing += spent;
        queueing += allocations_in(|| session.enqueue_chain(r.id, r.output_len, chain, 0.0)).0;
    }
    let (serving, _) = allocations_in(|| while session.step_until(None).unwrap() {});
    // The hasher's three buffers grow to the longest prompt and stay.
    assert!(hashing <= 16, "hashing: {hashing} allocations");
    // One per 1 024-id arena chunk (nothing is admitted yet, so none is
    // recycled), plus the doublings of the queue of request records.
    let ids: usize = requests.iter().map(|r| r.prompt_len() / 16).sum();
    let chunks = ids.div_ceil(1024) as u64 + 1;
    assert!(
        queueing <= chunks + 16,
        "queueing: {queueing} allocations for {chunks} chunks"
    );
    // Id pages and run slots until the cache is warm, and the doublings of
    // the per-request records; the drain frees chunks, it opens none.
    assert!(
        serving <= REQUESTS as u64 / 10,
        "serving: {serving} allocations"
    );

    // Four replicas under open-loop arrivals: hash, probe, queue, admit.
    let mut requests = tag_requests(requests, &keys);
    ArrivalProcess::Poisson {
        rate_rps: 24.0,
        seed: 7,
    }
    .assign(&mut requests);
    let sim = common::cluster_sim(4, 64);
    let mut router = PrefixAffinity::bounded(1.25);
    let (spent, report) = allocations_in(|| sim.run(&mut router, &requests).unwrap());
    assert_eq!(report.completed, REQUESTS);
    let per_request = spent as f64 / REQUESTS as f64;
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "ClusterSim::run: {spent} allocations for {REQUESTS} requests ({per_request:.3} each)"
    );
}

#[test]
fn a_batch_run_allocates_per_window_not_per_request() {
    let _one = one_test_at_a_time();
    // One shape at two sizes: a shared 64-token instruction, a unique
    // 192-token tail, 8 output tokens.
    let batch = |n: usize| -> Vec<SimRequest> {
        (0..n)
            .map(|i| {
                let mut prompt: Vec<u32> = (0..64).collect();
                prompt.extend((0..192).map(|t| 100_000 + i as u32 * 256 + t));
                SimRequest::from_tokens(i, prompt, 8)
            })
            .collect()
    };
    let (small, large) = (batch(500), batch(2_000));
    let engine = common::engine();
    // Warm: a first run initializes the process's lazy statics.
    engine.run(&small).unwrap();
    let (few, report) = allocations_in(|| engine.run(&small).unwrap());
    assert_eq!(report.completed, small.len());
    let (many, report) = allocations_in(|| engine.run(&large).unwrap());
    assert_eq!(report.completed, large.len());
    // A session holds `max_num_seqs + 1` requests whatever the batch, so
    // four times the requests add only the doublings of buffers that grow
    // with the work served (the completion records among them), not an
    // arena chunk per 1 024 queued ids: 10 more when this bound was set,
    // and 31 more for the parent of that commit, which queued the whole
    // batch first.
    assert!(
        many <= few + 16,
        "{few} allocations for 500 requests, {many} for 2 000"
    );
}

#[test]
fn the_engaged_kernel_allocates_per_run_not_per_request() {
    let _one = one_test_at_a_time();
    // Twice the fault-free run's requests: the replicas the autoscaler adds
    // and the crashed one's restart each warm a cache of their own.
    const REQUESTS: usize = 4_000;
    let (requests, keys) = common::reordered_movies_requests(REQUESTS);
    let mut requests = tag_requests(requests, &keys);
    let sim = common::cluster_sim(4, 64);
    // Offered at the fleet's ideal rate, with the faults and the control
    // loop anchored to its batch makespan, like the benchmark's chaos runs:
    // every timed-event kind fires, the gates shed, and attempts are
    // attributed through the request-id index.
    let batch = sim.run(&mut PrefixAffinity::bounded(1.25), &requests);
    let m = batch.unwrap().makespan_s;
    ArrivalProcess::Poisson {
        rate_rps: REQUESTS as f64 / m,
        seed: 7,
    }
    .assign(&mut requests);
    let plan = FaultPlan::seeded(7)
        .crash_restart(1, 0.30 * m, 0.45 * m)
        .slowdown(0, 0.20 * m, 0.60 * m, 3.0)
        .transient_errors_ppm(20_000);
    let retry = RetryPolicy::retries(4).with_hedging(0.05 * m);
    let gates = AdmissionPolicy::bounded(64).with_kv_gate(0.95);
    let scale = ScalePolicy::elastic(4, 8)
        .reacting(0.05 * m, 0.02)
        .with_cadence(0.02 * m, 0.1 * m)
        .with_warmup(0.05 * m)
        .with_warmup_jitter(0.2, 7);
    let overload = OverloadPolicy::admission(gates).with_scale(scale);
    let mut router = PrefixAffinity::bounded(1.25);
    let (spent, report) = allocations_in(|| {
        sim.run_overloaded(&mut router, &requests, &plan, &retry, &overload)
            .unwrap()
    });
    let (faults, shed) = (&report.faults, &report.shed);
    assert_eq!(faults.succeeded + faults.failed + shed.shed, REQUESTS);
    assert!(
        shed.shed > 0 && faults.retries > 0 && faults.hedges_issued > 0,
        "{faults:?} {shed:?}"
    );
    assert!(faults.crashes == 1 && report.scaling.scale_ups > 0);
    let per_request = spent as f64 / REQUESTS as f64;
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "run_overloaded: {spent} allocations for {REQUESTS} requests ({per_request:.3} each)"
    );
}

/// The most a warm GGR solve may cost, in allocations: the plan's two
/// arrays, the row and column lists, the hoisted column slices, and pooled
/// buffers growing into new uses (36 on Movies and 47 on PDMX when the
/// budget was set). The parent of the commit that set it spent more than
/// one per row (a field list each, grown at every recursion level).
const BUDGET_PER_SOLVE: u64 = 64;

#[test]
fn a_warm_solve_allocates_a_constant_not_per_row() {
    let _one = one_test_at_a_time();
    for (id, rows) in [
        (DatasetId::Movies, 2_000),
        (DatasetId::Pdmx, 2_250),
        (DatasetId::Beer, 6_400),
    ] {
        let (table, fds) = common::filter_table(id, rows);
        assert!(id != DatasetId::Pdmx || table.ncols() >= 40);
        // The first solve on this thread builds the scratch arena it parks
        // for the next.
        let cold = Ggr::default().reorder(&table, &fds).unwrap();
        let (spent, warm) = allocations_in(|| Ggr::default().reorder(&table, &fds).unwrap());
        assert_eq!(warm.plan, cold.plan);
        assert!(
            spent <= BUDGET_PER_SOLVE,
            "Ggr::reorder on {}: {spent} allocations for {rows} rows",
            id.name()
        );
    }
}

/// The warm, duplicate-heavy statement of the SQL budget: three LLM filters
/// over Movies' join-repeated fields.
const MOVIES_THREE_FILTER: &str = "SELECT movietitle FROM movies \
    WHERE LLM('Is the movie suitable for kids?', movieinfo, movietitle) = 'Yes' \
    AND LLM('Is the review positive?', reviewtype, topcritic) = 'Yes' \
    AND LLM('Is it a studio drama?', genres, productioncompany) = 'Yes'";

/// What one SQL statement cost: its allocations, the ground-truth answers
/// it asked for (each a `String` the caller's closure builds), its result
/// and the batches its LLM operators ran, summed over the operators.
struct Counted {
    allocations: u64,
    truth_calls: u64,
    result: llmqo::relational::SqlResult,
    batches: u64,
}

impl Counted {
    /// Allocations the library made itself: all of them but the truth
    /// closure's answers and the result's cells (a `Vec` per row and a
    /// `String` per cell, two per cell within the budget's slack).
    fn library(&self) -> u64 {
        let cells: usize = self.result.rows.iter().map(Vec::len).sum();
        self.allocations - self.truth_calls - 2 * cells as u64
    }
}

/// Runs `sql` under `opt` on a fresh runner whose answer cache holds
/// `checkpoint`, counting only the statement itself.
fn run_counted(
    ds: &llmqo::datasets::Dataset,
    sql: &str,
    opt: OptimizerConfig,
    checkpoint: &llmqo::relational::StatementCheckpoint,
) -> Counted {
    use llmqo::relational::{QueryExecutor, SqlRunner};
    use std::cell::Cell as Counter;
    let engine = common::engine();
    let executor = QueryExecutor::new(
        &engine,
        &llmqo::serve::OracleLlm,
        llmqo::tokenizer::Tokenizer::new(),
    );
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(opt);
    runner.register("movies", &ds.table, &ds.fds);
    runner.restore(checkpoint);
    let truth_calls = Counter::new(0);
    let truth = |row: usize| {
        truth_calls.set(truth_calls.get() + 1);
        common::mod3_truth(row)
    };
    let (allocations, result) = allocations_in(|| runner.run(sql, &truth).unwrap());
    let batches = result
        .stages
        .iter()
        .map(|s| u64::from(s.report.opt.batches))
        .sum();
    Counted {
        allocations,
        truth_calls: truth_calls.get(),
        result,
        batches,
    }
}

/// The answer cache a cold run of `sql` over `ds` leaves, as a checkpoint.
fn cold_checkpoint(
    ds: &llmqo::datasets::Dataset,
    sql: &str,
) -> llmqo::relational::StatementCheckpoint {
    use llmqo::relational::{QueryExecutor, SqlRunner};
    let engine = common::engine();
    let executor = QueryExecutor::new(
        &engine,
        &llmqo::serve::OracleLlm,
        llmqo::tokenizer::Tokenizer::new(),
    );
    let solver = Ggr::default();
    let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(OptimizerConfig::all());
    runner.register("movies", &ds.table, &ds.fds);
    runner.run(sql, &common::mod3_truth).unwrap();
    runner.checkpoint()
}

/// Library allocations a warm SQL statement may make per operator batch:
/// what an operator keeps grows only when a batch is its largest yet (the
/// pilot schedule doubles, so every batch does) and its outputs accumulate.
/// About 3.3 when the budget was set; the parent of the commit that set
/// it spent about 40 per operator batch of this statement: every batch rebuilt its encode tables,
/// grouping map and hand-off buffers, and every re-rank check its rank
/// vectors.
const BUDGET_PER_BATCH: u64 = 4;

/// Library allocations a warm SQL statement may make once: parsing and
/// planning, each operator's stage (engine sessions, dictionaries, the
/// tokenized instruction, its batch buffers at their largest) and the
/// notes — about 280 when the budget was set, and about 690 in a debug
/// build, whose collision audit keeps the text of each distinct row key.
const BUDGET_PER_STATEMENT: u64 = 1_000;

#[test]
fn a_warm_sql_statement_allocates_per_statement_not_per_batch() {
    let _one = one_test_at_a_time();
    let ds = llmqo::datasets::Dataset::generate_with_rows(DatasetId::Movies, 4_000);
    // A cold run of the statement fills the answer cache; every measured
    // run restores it, so each row is a cache hit: encoded, looked up and
    // labelled, never solved or served.
    let checkpoint = cold_checkpoint(&ds, MOVIES_THREE_FILTER);

    // A `LIMIT` past the row count scans the table in one batch; without
    // it the pilot schedule doubles from 32 rows. Same rows, same results.
    let all = OptimizerConfig::all();
    let whole = run_counted(
        &ds,
        &format!("{MOVIES_THREE_FILTER} LIMIT 100000"),
        all,
        &checkpoint,
    );
    let piloted = run_counted(&ds, MOVIES_THREE_FILTER, all, &checkpoint);
    assert_eq!(whole.result.rows, piloted.result.rows);
    assert!(
        piloted.result.rows.len() > 100,
        "a result worth materializing"
    );
    assert_eq!(whole.batches, 3, "one batch per operator");
    assert!(
        piloted.batches >= 4 * whole.batches,
        "{} batches",
        piloted.batches
    );
    for (name, run) in [("one batch", &whole), ("pilot batches", &piloted)] {
        let spent = run.library();
        assert!(
            spent <= BUDGET_PER_STATEMENT + BUDGET_PER_BATCH * run.batches,
            "{name}: {spent} library allocations over {} batches",
            run.batches
        );
    }
    let per_batch = piloted.library().saturating_sub(whole.library());
    assert!(
        per_batch <= BUDGET_PER_BATCH * (piloted.batches - whole.batches),
        "{per_batch} more allocations for {} more batches",
        piloted.batches - whole.batches
    );

    // `EXPLAIN ANALYZE` runs the same batches but renders the plan instead
    // of the result: it must not pay for the rows it throws away.
    let analyzed = run_counted(
        &ds,
        &format!("EXPLAIN ANALYZE {MOVIES_THREE_FILTER}"),
        all,
        &checkpoint,
    );
    assert_eq!(analyzed.truth_calls, piloted.truth_calls);
    let rows = piloted.result.rows.len() as u64;
    assert!(
        analyzed.allocations - analyzed.truth_calls < piloted.library() + rows,
        "EXPLAIN ANALYZE: {} allocations beyond the truth's",
        analyzed.allocations - analyzed.truth_calls
    );
}

/// A statement every row of which the answer cache answers: one LLM filter
/// over a review column of mostly unique text, scanned in one batch.
const MOVIES_REVIEW_FILTER: &str = "SELECT movietitle FROM movies \
    WHERE LLM('Is the review positive?', movietitle, reviewcontent) = 'Yes' LIMIT 100000";

/// How many more library allocations the all-hit statement may make over
/// 2 000 rows than over 500: a few more doublings of the result's row list.
/// A row the cache answers is never tokenized; the parent of the commit
/// that set this budget tokenized every distinct value of the table, one
/// token array (and more) each.
const BUDGET_ALL_HIT_GROWTH: u64 = 16;

#[test]
fn an_all_hit_statement_allocates_the_same_whatever_the_row_count() {
    let _one = one_test_at_a_time();
    let library = |rows: usize| {
        let checkpoint = cold_checkpoint(
            &llmqo::datasets::Dataset::generate_with_rows(DatasetId::Movies, rows),
            MOVIES_REVIEW_FILTER,
        );
        // A fresh table: the measured statement builds its dictionaries.
        let ds = llmqo::datasets::Dataset::generate_with_rows(DatasetId::Movies, rows);
        let run = run_counted(
            &ds,
            MOVIES_REVIEW_FILTER,
            OptimizerConfig::all(),
            &checkpoint,
        );
        let opt = &run.result.stages[0].report.opt;
        assert_eq!(
            opt.cache_hits, rows as u64,
            "{rows} rows: every row answered"
        );
        assert_eq!(run.batches, 1, "{rows} rows: one batch");
        // A debug build's collision audit keeps the text of each distinct
        // row key, one per checkpoint entry.
        let audit = if cfg!(debug_assertions) {
            checkpoint.len() as u64
        } else {
            0
        };
        run.library() - audit
    };
    let (small, big) = (library(500), library(2_000));
    assert!(
        big <= small + BUDGET_ALL_HIT_GROWTH,
        "{big} library allocations over 2 000 rows, {small} over 500"
    );
}

/// A cold statement for the SQL budget: one LLM filter over a review
/// column of mostly unique text, pipelined in fixed micro-batches, so every
/// batch is novel rows to solve and serve and none is larger than the
/// first.
const MOVIES_REVIEW_SCAN: &str = "SELECT movietitle FROM movies \
    WHERE LLM('Is the review positive?', movietitle, reviewcontent) = 'Yes'";

/// Library allocations a cold micro-batch may make beyond what a four
/// times larger one makes: its solve, and the answers and outputs it adds.
/// About 8.9 (10.9 in a debug build) when the budget was set; the parent of
/// the commit that set it spent about 18.9 (27.5): every batch built a new
/// solver table.
const BUDGET_PER_COLD_BATCH: u64 = 12;

#[test]
fn a_cold_micro_batch_reuses_the_solver_table() {
    let _one = one_test_at_a_time();
    let ds = llmqo::datasets::Dataset::generate_with_rows(DatasetId::Movies, 2_000);
    let empty = llmqo::relational::StatementCheckpoint::default();
    let run = |batch_rows: usize| {
        let mut opt = OptimizerConfig::pipelined(1);
        opt.pipeline_batch_rows = batch_rows;
        run_counted(&ds, MOVIES_REVIEW_SCAN, opt, &empty)
    };
    // The solver's scratch is the thread's: a first run grows it to the
    // largest batch, so neither measured run pays for that.
    run(400);
    let (small, large) = (run(100), run(400));
    assert_eq!(small.result.rows, large.result.rows);
    assert_eq!((small.batches, large.batches), (20, 5));
    let opt = &small.result.stages[0].report.opt;
    assert_eq!(
        opt.llm_calls, 2_000,
        "every row novel: no hit, no duplicate"
    );
    let more = small.library().saturating_sub(large.library());
    assert!(
        more <= BUDGET_PER_COLD_BATCH * (small.batches - large.batches),
        "{more} more allocations for {} more batches",
        small.batches - large.batches
    );
}
