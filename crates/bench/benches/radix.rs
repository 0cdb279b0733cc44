//! Criterion benches for the paged prefix cache: admissions with shared and
//! cold prefixes, probe throughput, eviction churn, and the steady-state
//! per-request cost on a reordered batch and on one deep shared prefix.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use llmqo_bench::harness;
use llmqo_datasets::{Dataset, DatasetId};
use llmqo_serve::{BlockChain, CacheConfig, ChainHasher, PrefixCache, SimRequest};

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

/// What one request costs the cache in steady state: a GGR-ordered Movies
/// filter batch (consecutive prompts share their leading blocks) goes through
/// hash → admit → mark computed → release, one request at a time, against a
/// cache of three prompts' worth of blocks, so every admission past the
/// first few evicts the unshared suffix of an earlier one.
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
            || {
                (
                    PrefixCache::new(config(capacity)),
                    ChainHasher::new(16, true),
                )
            },
            |(mut cache, mut hasher)| {
                for r in &requests {
                    let mut chain = hasher.chain(&r.prompt);
                    let prompt_tokens = chain.prompt_tokens();
                    let alloc = cache
                        .try_admit_chain(&mut chain, r.output_len as usize)
                        .expect("nothing else is pinned");
                    cache.mark_computed(&alloc, prompt_tokens);
                    cache.release(alloc);
                }
                let stats = *cache.stats();
                assert!(stats.evictions > stats.admitted, "steady-state eviction");
                stats.evictions
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

    c.bench_function("radix/deep-shared-prefix", |b| {
        b.iter_batched(
            || (PrefixCache::new(config(capacity)), chains.clone()),
            |(mut cache, chains)| {
                for mut chain in chains {
                    let alloc = cache
                        .try_admit_chain(&mut chain, 0)
                        .expect("nothing else is pinned");
                    cache.mark_computed(&alloc, shared + unique);
                    cache.release(alloc);
                }
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
