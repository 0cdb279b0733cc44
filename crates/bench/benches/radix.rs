//! Criterion benches for the paged prefix cache: admissions with shared and
//! cold prefixes, probe throughput, eviction churn, and the steady-state
//! per-request cost on a reordered batch and on one deep shared prefix.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use llmqo_bench::harness;
use llmqo_datasets::{Dataset, DatasetId};
use llmqo_serve::{BlockChain, CacheConfig, ChainHasher, ChainView, PrefixCache, SimRequest};

fn config(capacity_blocks: usize) -> CacheConfig {
    CacheConfig {
        block_size: 16,
        capacity_blocks,
        enabled: true,
        share_in_flight: true,
    }
}

fn prompt(shared: usize, tag: u32, total: usize) -> Vec<u32> {
    let mut p: Vec<u32> = (0..shared as u32).collect();
    p.extend((0..(total - shared) as u32).map(|i| 1_000_000 + tag * 4096 + i));
    p
}

fn bench_admit(c: &mut Criterion) {
    let mut group = c.benchmark_group("radix/admit-300tok");
    group.bench_function("shared-prefix", |b| {
        b.iter_batched(
            || PrefixCache::new(config(50_000)),
            |mut cache| {
                for i in 0..256u32 {
                    let alloc = cache.try_admit(&prompt(224, i, 300), 8).unwrap();
                    cache.mark_computed(&alloc, 300);
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("cold", |b| {
        b.iter_batched(
            || PrefixCache::new(config(50_000)),
            |mut cache| {
                for i in 0..256u32 {
                    let alloc = cache.try_admit(&prompt(0, i, 300), 8).unwrap();
                    cache.mark_computed(&alloc, 300);
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_probe(c: &mut Criterion) {
    let mut cache = PrefixCache::new(config(50_000));
    let p = prompt(512, 0, 512);
    let alloc = cache.try_admit(&p, 0).unwrap();
    cache.mark_computed(&alloc, 512);
    c.bench_function("radix/probe-512tok", |b| b.iter(|| cache.probe(&p)));
}

fn bench_eviction_churn(c: &mut Criterion) {
    c.bench_function("radix/churn-small-cache", |b| {
        b.iter_batched(
            || PrefixCache::new(config(128)),
            |mut cache| {
                // Working set far exceeds capacity: constant LRU eviction.
                for i in 0..512u32 {
                    if let Some(alloc) = cache.try_admit(&prompt(32, i, 96), 4) {
                        cache.mark_computed(&alloc, 96);
                        cache.release(alloc);
                    }
                }
                cache.stats().evictions
            },
            BatchSize::SmallInput,
        )
    });
}

/// Admits, marks computed and releases every chain of `schedule` in turn.
fn serve(cache: &mut PrefixCache, schedule: &[(ChainView<'_>, usize)]) {
    for &(chain, output_len) in schedule {
        let alloc = cache
            .try_admit_chain(chain, output_len)
            .expect("nothing else is pinned");
        cache.mark_computed(&alloc, chain.prompt_tokens());
        cache.release(alloc);
    }
}

/// What one request costs the cache in steady state: a GGR-ordered Movies
/// filter batch (consecutive prompts share their leading blocks) goes through
/// hash → admit → mark computed → release, one request at a time, against a
/// cache of three prompts' worth of blocks, so every admission past the
/// first few evicts the unshared suffix of an earlier one. And the cache's
/// share of that alone: the same schedule hashed ahead, against a cache a
/// first pass of it warmed — every slab, queue and id page at its steady
/// size, so the timed pass allocates nothing.
fn bench_request_churn(c: &mut Criterion) {
    let ds = Dataset::generate_with_rows(DatasetId::Movies, 2000);
    let requests: Vec<SimRequest> = harness::ggr_filter_requests(&ds)
        .into_iter()
        .map(|tagged| tagged.request)
        .collect();
    let longest = requests
        .iter()
        .map(|r| r.prompt.iter().map(|f| f.len()).sum::<usize>())
        .max()
        .expect("requests");
    let capacity = 3 * longest.div_ceil(16);

    c.bench_function("radix/request-churn-movies-2000req", |b| {
        b.iter_batched(
            || PrefixCache::new(config(capacity)),
            |mut cache| {
                let mut hasher = ChainHasher::new(16, true);
                for r in &requests {
                    let chain = hasher.chain(&r.prompt);
                    serve(&mut cache, &[(chain, r.output_len as usize)]);
                }
                let stats = *cache.stats();
                assert!(stats.evictions > stats.admitted, "steady-state eviction");
                stats.evictions
            },
            BatchSize::SmallInput,
        )
    });

    let chains: Vec<BlockChain> = requests
        .iter()
        .map(|r| BlockChain::from_fragments(16, r.prompt.iter().map(|f| &f[..])))
        .collect();
    let schedule: Vec<(ChainView<'_>, usize)> = std::iter::zip(&chains, &requests)
        .map(|(chain, r)| (chain.view(), r.output_len as usize))
        .collect();
    c.bench_function("radix/admit-steady-no-alloc", |b| {
        b.iter_batched(
            || {
                let mut cache = PrefixCache::new(config(capacity));
                serve(&mut cache, &schedule);
                cache
            },
            |mut cache| {
                let pages = cache.internals().id_pages;
                serve(&mut cache, &schedule);
                assert_eq!(cache.internals().id_pages, pages, "a warmed cache");
                cache.stats().evictions
            },
            BatchSize::SmallInput,
        )
    });
}

/// The cache's share of a request when prompts are mostly one long shared
/// prefix: 64 shared blocks and 4 unique ones per request, hashed ahead of
/// the timed loop, against a cache of three prompts' worth of blocks, so
/// every admission walks the 64, creates 4 and evicts 4.
fn bench_deep_shared_prefix(c: &mut Criterion) {
    let (shared, unique) = (64 * 16, 4 * 16);
    let chains: Vec<BlockChain> = (0..2000u32)
        .map(|i| BlockChain::from_tokens(16, &prompt(shared, i, shared + unique)))
        .collect();
    let capacity = 3 * (shared + unique) / 16;

    let schedule: Vec<(ChainView<'_>, usize)> = chains.iter().map(|c| (c.view(), 0)).collect();

    c.bench_function("radix/deep-shared-prefix", |b| {
        b.iter_batched(
            || PrefixCache::new(config(capacity)),
            |mut cache| {
                serve(&mut cache, &schedule);
                let stats = *cache.stats();
                assert!(stats.evictions > stats.admitted, "steady-state eviction");
                stats.evictions
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_admit,
    bench_probe,
    bench_eviction_churn,
    bench_request_churn,
    bench_deep_shared_prefix
);
criterion_main!(benches);
