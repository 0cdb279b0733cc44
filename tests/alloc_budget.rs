//! Allocation budget of the prompt path: hashing a prompt into its block
//! chain, queueing it and admitting it into the prefix cache allocate
//! nothing per request — the hasher lends a view of its own buffer, the
//! session copies queued ids into a FIFO arena of fixed-size chunks, the
//! cache copies new ids into recycled pages. What a run still allocates is
//! per run (sessions, reports), per chunk or page, or the logarithmic growth
//! of its per-request records, so a few thousand requests must come in at a
//! small fraction of an allocation each.
//!
//! The solver that orders those requests joins the budget: GGR writes its
//! plan as two flat arrays and draws every other buffer from a scratch arena
//! the thread keeps between solves, so a warm solve allocates a constant
//! whatever the row count.
//!
//! This binary counts with its own `#[global_allocator]` (which is why it is
//! a binary of its own: the crates forbid `unsafe`), per thread, so the test
//! harness's other threads do not show up in the figure.

mod common;

use llmqo::cluster::{tag_requests, ArrivalProcess, PrefixAffinity};
use llmqo::core::{Ggr, Reorderer};
use llmqo::datasets::DatasetId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // Not during thread teardown, when the cell may be gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it never allocates.
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

/// Allocations this thread makes inside `f`.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let result = f();
    (ALLOCS.with(Cell::get) - before, result)
}

/// The most a request may cost, in allocations. The parent of the commit
/// that set this budget spent 1.0 on the chain alone (an `Arc<[u64]>` per
/// request, shared by hasher, queue and cache).
const BUDGET_PER_REQUEST: f64 = 0.25;

#[test]
fn the_prompt_path_allocates_per_chunk_and_page_not_per_request() {
    const REQUESTS: usize = 2_000;
    let (requests, keys) = common::reordered_movies_requests(REQUESTS);

    // One replica, everything queued up front: the arena at its fullest.
    let engine = common::engine();
    let (spent, report) = allocations_in(|| engine.run(&requests).unwrap());
    assert_eq!(report.completed, REQUESTS);
    assert!(report.cached_prompt_tokens > 0 && report.evictions > 0);
    let per_request = spent as f64 / REQUESTS as f64;
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "SimEngine::run: {spent} allocations for {REQUESTS} requests ({per_request:.3} each)"
    );

    // The same job by hand, one owner of the ids at a time.
    let mut session = engine.session().unwrap();
    let mut hasher = engine.chain_hasher();
    let (mut hashing, mut queueing) = (0, 0);
    for r in &requests {
        let (spent, chain) = allocations_in(|| hasher.chain(&r.prompt));
        hashing += spent;
        queueing += allocations_in(|| session.enqueue_chain(r.id, r.output_len, chain)).0;
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

/// The most a warm GGR solve may cost, in allocations: the plan's two
/// arrays, the row and column lists, the hoisted column slices, and pooled
/// buffers growing into new uses (36 on Movies and 47 on PDMX when the
/// budget was set). The parent of the commit that set it spent more than
/// one per row (a field list each, grown at every recursion level).
const BUDGET_PER_SOLVE: u64 = 64;

#[test]
fn a_warm_solve_allocates_a_constant_not_per_row() {
    for (id, rows) in [(DatasetId::Movies, 2_000), (DatasetId::Pdmx, 2_250)] {
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
