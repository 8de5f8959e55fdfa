//! Substrate throughput: LPM lookups, zone classification, popularity
//! sampling, resolver caches, distinct counting.
//!
//! The LPM/classify/Zipf bodies live in [`bench::scenarios`] (shared
//! with `dnscentral bench`); the cache, distinct-counter, and full
//! resolver-walk benches are criterion-only and stay inline.

use bench::{bench_scenario_group, quick};
use criterion::Criterion;
use entrada::agg::{DistinctCounter, HyperLogLog};
use netbase::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resolver::cache::TtlMap;
use simnet::engine::CacheKey;

fn benches(c: &mut Criterion) {
    c.bench_function("substrates/ttl_cache_lookup_insert", |b| {
        let mut cache = TtlMap::with_capacity(4096);
        let mut rng = StdRng::seed_from_u64(4);
        let mut now = SimTime::from_unix_secs(0);
        b.iter(|| {
            now += SimDuration::from_millis(50);
            let key = CacheKey {
                domain: rng.gen_range(0..8192),
                rtype: 1,
            };
            if cache.get(&key, now.as_micros()).is_none() {
                cache.insert(
                    key,
                    (),
                    now.as_micros(),
                    SimDuration::from_secs(3600).as_micros(),
                );
            }
        });
    });

    c.bench_function("substrates/distinct_exact_observe", |b| {
        let mut d: DistinctCounter<u64> = DistinctCounter::new();
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| d.observe(rng.gen_range(0..2_000_000u64)));
    });

    c.bench_function("substrates/distinct_hll_observe", |b| {
        let mut h = HyperLogLog::new(12);
        let mut rng = StdRng::seed_from_u64(6);
        b.iter(|| h.observe(&rng.gen_range(0..2_000_000u64)));
    });

    // full iterative resolution walks (cold cache each iteration)
    for (label, qmin) in [("resolve_classic", false), ("resolve_qmin", true)] {
        c.bench_function(&format!("substrates/{label}"), |b| {
            b.iter_batched(
                || {
                    (
                        resolver::hierarchy::sample_world(),
                        resolver::IterativeResolver::new(resolver::ResolverConfig {
                            qmin,
                            ..Default::default()
                        }),
                    )
                },
                |(mut net, mut r)| {
                    r.resolve(
                        &mut net,
                        &"www.example.nl.".parse().unwrap(),
                        dns_wire::types::RType::A,
                    )
                    .expect("resolves")
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
}

fn main() {
    let mut c = quick();
    bench_scenario_group(&mut c, "substrates");
    benches(&mut c);
    c.final_summary();
}
