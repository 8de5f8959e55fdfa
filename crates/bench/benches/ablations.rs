//! Ablations of the design choices DESIGN.md §6 calls out:
//!
//! - name compression on/off (message size & encode cost)
//! - LPM trie vs linear-scan baseline
//! - resolver-cache TTL sweep (miss-rate funnel, cf. "Cache Me If You Can")
//! - exact vs HyperLogLog distinct counting (memory/accuracy trade)
//! - CUSUM vs threshold change-point detection under noise

use bench::quick;
use criterion::Criterion;
use dns_wire::builder::MessageBuilder;
use dns_wire::rdata::RData;
use dns_wire::types::{RType, Rcode};
use entrada::agg::{DistinctCounter, HyperLogLog};
use netbase::prefix::IpPrefix;
use netbase::time::{SimDuration, SimTime};
use netbase::trie::{LinearLpm, PrefixTrie};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resolver::cache::TtlMap;
use simnet::engine::CacheKey;
use std::net::{IpAddr, Ipv4Addr};
use zonedb::popularity::ZipfSampler;

/// Compression ablation: the same referral encoded with the compressor
/// vs each name spelled out.
fn compression(c: &mut Criterion) {
    let zone: dns_wire::name::Name = "nl.".parse().expect("static");
    let delegation = zone.child(b"bigdelegation").expect("short label");
    let mut builder = MessageBuilder::query(1, delegation.child(b"www").expect("x"), RType::A)
        .with_edns(4096, true);
    builder = MessageBuilder::response(&builder.build(), Rcode::NoError);
    let mut b = builder;
    for i in 0..4u8 {
        let ns = delegation
            .child(format!("ns{i}").as_bytes())
            .expect("short");
        b = b.authority(delegation.clone(), 3600, RData::Ns(ns.clone()));
        b = b.additional(ns, 3600, RData::A(Ipv4Addr::new(192, 0, 2, i)));
    }
    let msg = b.build();
    let compressed = msg.encode().expect("encodes").len();
    // uncompressed size: sum of naive encodings
    let mut naive = 12usize;
    for q in &msg.questions {
        naive += q.qname.wire_len() + 4;
    }
    for r in msg
        .answers
        .iter()
        .chain(&msg.authorities)
        .chain(&msg.additionals)
    {
        naive += r.name.wire_len() + 10;
        naive += match &r.rdata {
            RData::Ns(n) => n.wire_len(),
            RData::A(_) => 4,
            _ => 16,
        };
    }
    eprintln!(
        "\n--- ablation: name compression ---\nreferral size: {compressed} B compressed vs ~{naive} B naive ({}% saved)",
        100 - compressed * 100 / naive.max(1)
    );
    c.bench_function("ablations/encode_with_compression", |be| {
        be.iter(|| msg.encode().expect("encodes"))
    });
}

/// LPM ablation: trie vs longest-first linear scan at 45k prefixes.
fn lpm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut trie = PrefixTrie::new();
    let mut linear = LinearLpm::new();
    for i in 0..45_000u32 {
        let len = rng.gen_range(12..=24);
        let p =
            IpPrefix::new(IpAddr::V4(Ipv4Addr::from(rng.gen::<u32>())), len).expect("len in range");
        if trie.get(&p).is_none() {
            trie.insert(p, i);
            linear.insert(p, i);
        }
    }
    let probes: Vec<IpAddr> = (0..512)
        .map(|_| IpAddr::V4(Ipv4Addr::from(rng.gen::<u32>())))
        .collect();
    c.bench_function("ablations/lpm_trie", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % probes.len();
            trie.lookup(probes[i])
        })
    });
    c.bench_function("ablations/lpm_linear_scan", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % probes.len();
            linear.lookup(probes[i]).map(|(p, v)| (*p, *v))
        })
    });
}

/// Cache-TTL sweep: the resolver-to-authoritative miss funnel the
/// vantage points live behind. Prints hit ratio per TTL.
fn cache_ttl(c: &mut Criterion) {
    let zipf = ZipfSampler::new(100_000, 0.95);
    eprintln!("\n--- ablation: resolver cache TTL vs hit ratio ---");
    for ttl_secs in [60u64, 600, 3600, 86_400] {
        let mut cache = TtlMap::with_capacity(65_536);
        let mut rng = StdRng::seed_from_u64(9);
        let mut now = SimTime::from_unix_secs(0);
        for _ in 0..200_000 {
            now += SimDuration::from_millis(30);
            let key = CacheKey {
                domain: zipf.sample(&mut rng),
                rtype: 1,
            };
            if cache.get(&key, now.as_micros()).is_none() {
                cache.insert(
                    key,
                    (),
                    now.as_micros(),
                    SimDuration::from_secs(ttl_secs).as_micros(),
                );
            }
        }
        eprintln!("TTL {ttl_secs:>6}s -> hit ratio {:.3}", cache.hit_ratio());
    }
    c.bench_function("ablations/cache_funnel_3600s", |b| {
        let mut cache = TtlMap::with_capacity(65_536);
        let mut rng = StdRng::seed_from_u64(10);
        let mut now = SimTime::from_unix_secs(0);
        b.iter(|| {
            now += SimDuration::from_millis(30);
            let key = CacheKey {
                domain: zipf.sample(&mut rng),
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
        })
    });
}

/// Distinct-counting ablation: exact set vs HLL at Table 3 scale.
fn distinct(c: &mut Criterion) {
    let n = 500_000u64;
    let mut exact = DistinctCounter::new();
    let mut hll = HyperLogLog::new(12);
    for i in 0..n {
        exact.observe(i);
        hll.observe(&i);
    }
    let err = (hll.estimate() - n as f64).abs() / n as f64;
    eprintln!(
        "\n--- ablation: distinct resolvers ---\nexact: {} entries (~{} MB set), HLL: {} B, error {:.2}%",
        exact.count(),
        exact.count() * 8 / 1_000_000,
        hll.memory_bytes(),
        err * 100.0
    );
    c.bench_function("ablations/distinct_exact", |b| {
        let mut d = DistinctCounter::new();
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9);
            d.observe(i % 1_000_000)
        })
    });
    c.bench_function("ablations/distinct_hll", |b| {
        let mut h = HyperLogLog::new(12);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9);
            h.observe(&(i % 1_000_000))
        })
    });
}

/// Detector ablation: CUSUM vs threshold on noisy series; prints the
/// detection outcome per noise level.
fn detectors(c: &mut Criterion) {
    use bench::scenarios::qmin_series as make_series;
    use dnscentral_core::qmin::{detect_cusum, detect_threshold};
    eprintln!("\n--- ablation: change-point detectors under noise ---");
    for noise in [0.01, 0.05, 0.10, 0.18] {
        let mut cusum_hits = 0;
        let mut thresh_hits = 0;
        for seed in 0..50 {
            let s = make_series(noise, seed);
            if detect_cusum(&s, 0.05, 0.3).is_some_and(|cp| (cp.year, cp.month) == (2019, 12)) {
                cusum_hits += 1;
            }
            if detect_threshold(&s, 0.15).is_some_and(|cp| (cp.year, cp.month) == (2019, 12)) {
                thresh_hits += 1;
            }
        }
        eprintln!(
            "noise ±{noise:.2}: CUSUM {cusum_hits}/50 exact, threshold {thresh_hits}/50 exact"
        );
    }
    let series = make_series(0.05, 7);
    c.bench_function("ablations/detector_cusum", |b| {
        b.iter(|| detect_cusum(&series, 0.05, 0.3))
    });
    c.bench_function("ablations/detector_threshold", |b| {
        b.iter(|| detect_threshold(&series, 0.15))
    });
}

/// Row-struct vec vs dictionary-encoded columnar batch: memory and
/// scan speed over the same ingested rows.
fn columnar(c: &mut Criterion) {
    use entrada::table::ColumnarBatch;
    let capture = bench::sample_capture_bytes();
    let nz = simnet::scenario::dataset(simnet::profile::Vantage::Nz, 2020);
    let plan = asdb::synth::InternetPlan::build(&simnet::engine::plan_config_for(
        &nz,
        simnet::scenario::Scale::tiny(),
        7,
    ));
    let rows: Vec<entrada::schema::QueryRow> = entrada::ingest::CaptureIngest::new(
        netbase::capture::CaptureReader::new(&capture[..]).expect("valid"),
        entrada::enrich::Enricher::new(plan.mapper),
    )
    .collect();
    let mut batch = ColumnarBatch::new();
    for r in &rows {
        batch.push(r);
    }
    let row_bytes: usize =
        rows.len() * (std::mem::size_of::<entrada::schema::QueryRow>() + 24/* avg name heap */);
    eprintln!(
        "\n--- ablation: row structs vs columnar batch ---\n{} rows: ~{} KB as structs, {} KB columnar ({} distinct qnames)",
        rows.len(),
        row_bytes / 1024,
        batch.memory_bytes() / 1024,
        batch.dictionary_size()
    );
    c.bench_function("ablations/scan_row_structs", |b| {
        b.iter(|| rows.iter().filter(|r| r.is_junk()).count())
    });
    c.bench_function("ablations/scan_columnar", |b| {
        b.iter(|| batch.iter().filter(|r| r.is_junk()).count())
    });
}

fn main() {
    let mut c = quick();
    compression(&mut c);
    lpm(&mut c);
    cache_ttl(&mut c);
    distinct(&mut c);
    detectors(&mut c);
    columnar(&mut c);
    c.final_summary();
}
