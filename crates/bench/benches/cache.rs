//! Canonical-form schedule cache under a skewed request stream.
//!
//! The cache earns its keep when the same *structure* arrives repeatedly
//! under different labels — regenerated netlists, per-client copies of a
//! shared template, replayed designs. This bench reproduces that shape:
//!
//! - a universe of distinct *cascade* designs — a dependency chain whose
//!   tail carries tight max constraints, so every cold schedule pays the
//!   full `|E_b| + 1` iteration bound (`links + 1` kernel iterations)
//!   rather than converging in one pass;
//! - a Zipf-distributed request stream over that universe (weight
//!   `1/(rank+1)`), with every request relabeled — fresh vertex names and
//!   a shuffled insertion order — so each hit pays the entire
//!   canonicalize → probe → remap path, never a shortcut;
//! - interleaved cold reference runs: every eighth request also times a
//!   plain `schedule` on the *same relabeled graph*, so the
//!   hit/cold comparison sees identical machine conditions.
//!
//! A custom `main` exports hit rate, p50 hit latency, p50 cold latency
//! and their ratio to `BENCH_cache.json`, and asserts two floors outside
//! smoke mode: the Zipf stream hits at least 50% of the time, and a p50
//! hit is at least 10x faster than a p50 cold schedule.

use criterion::{BenchmarkId, Criterion, SummaryWriter};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsched_cache::{schedule_cached, ScheduleCache};
use rsched_core::schedule;
use rsched_designs::cascade::{build_cascade as build, Cascade};
use rsched_designs::random::{random_constraint_graph, RandomGraphConfig};

fn smoke() -> bool {
    std::env::var("RSCHED_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// Cumulative fixed-point Zipf weights over `n` ranks: `w_r = K/(r+1)`.
fn zipf_cumulative(n: usize) -> Vec<u64> {
    let mut acc = 0u64;
    (0..n as u64)
        .map(|r| {
            acc += 720_720 / (r + 1); // lcm(1..=16): exact for small ranks
            acc
        })
        .collect()
}

fn zipf_sample(rng: &mut StdRng, cumulative: &[u64]) -> usize {
    let u = rng.gen_range(0..*cumulative.last().expect("non-empty universe"));
    cumulative.partition_point(|&c| c <= u)
}

fn percentile_ns(mut samples: Vec<u128>, pct: usize) -> f64 {
    assert!(!samples.is_empty(), "no samples for percentile");
    samples.sort_unstable();
    samples[(samples.len() - 1) * pct / 100] as f64
}

/// Outcome of the Zipf stream: per-request hit/miss latencies plus the
/// interleaved cold reference samples.
struct StreamResult {
    hit_ns: Vec<u128>,
    miss_ns: Vec<u128>,
    cold_ns: Vec<u128>,
    stats: rsched_cache::CacheStats,
}

fn run_stream(universe: &[Cascade], requests: usize, capacity: usize) -> StreamResult {
    let cache = ScheduleCache::new(capacity);
    let cumulative = zipf_cumulative(universe.len());
    let mut rng = StdRng::seed_from_u64(0xcac4e);
    let (mut hit_ns, mut miss_ns, mut cold_ns) = (Vec::new(), Vec::new(), Vec::new());
    for req in 0..requests {
        let design = universe[zipf_sample(&mut rng, &cumulative)];
        let graph = build(design, req as u64 + 1);
        let start = std::time::Instant::now();
        let (result, hit) = schedule_cached(&cache, &graph).expect("cascade designs schedule");
        let elapsed = start.elapsed().as_nanos();
        if hit { &mut hit_ns } else { &mut miss_ns }.push(elapsed);
        std::hint::black_box(&result);
        // Interleaved cold reference on the very same relabeled graph.
        if req % 8 == 0 {
            let start = std::time::Instant::now();
            let cold = schedule(&graph).expect("cascade designs schedule");
            cold_ns.push(start.elapsed().as_nanos());
            assert_eq!(cold, result, "cache transparency broken in bench");
        }
    }
    StreamResult {
        hit_ns,
        miss_ns,
        cold_ns,
        stats: cache.stats(),
    }
}

/// Criterion groups for absolute reference points: one cold schedule,
/// one full hit (canonicalize + probe + remap), one key derivation — on
/// the cascade, and a key derivation beside a cold schedule on a random
/// graph, the shape most served designs have. Long-range random edges
/// are where the keep mask used to cost most.
fn reference_points(c: &mut Criterion, design: Cascade) {
    let graph = build(design, 0);
    let relabeled = build(design, 7);
    let warm = ScheduleCache::new(64);
    schedule_cached(&warm, &graph).expect("cascade design schedules");
    let mut group = c.benchmark_group("cache");
    group.bench_with_input(
        BenchmarkId::new("cold_schedule", design.n),
        &graph,
        |b, g| b.iter(|| schedule(g).expect("cascade design schedules")),
    );
    group.bench_with_input(BenchmarkId::new("hit", design.n), &relabeled, |b, g| {
        b.iter(|| {
            let (result, hit) = schedule_cached(&warm, g).expect("cascade design schedules");
            assert!(hit, "warmed cache must hit");
            result
        })
    });
    group.bench_with_input(
        BenchmarkId::new("canonical_key", design.n),
        &relabeled,
        |b, g| b.iter(|| g.canonical_key()),
    );
    let ops = 250;
    let random = random_constraint_graph(
        ops as u64,
        &RandomGraphConfig {
            n_ops: ops,
            ..RandomGraphConfig::default()
        },
    );
    group.bench_with_input(
        BenchmarkId::new("cold_schedule_random", ops),
        &random,
        |b, g| b.iter(|| schedule(g).expect("random graphs schedule")),
    );
    group.bench_with_input(
        BenchmarkId::new("canonical_key_random", ops),
        &random,
        |b, g| b.iter(|| g.canonical_key()),
    );
    group.finish();
}

fn main() {
    let smoke = smoke();
    let (samples, warm_ms, measure_ms) = if smoke { (2, 5, 20) } else { (10, 100, 400) };
    let mut criterion = Criterion::default()
        .sample_size(samples)
        .warm_up_time(std::time::Duration::from_millis(warm_ms))
        .measurement_time(std::time::Duration::from_millis(measure_ms));

    let (n, links, universe_size, requests) = if smoke {
        (60, 50, 8, 48)
    } else {
        (200, 190, 64, 480)
    };
    let universe: Vec<Cascade> = (0..universe_size as u64)
        .map(|salt| Cascade { n, links, salt })
        .collect();

    reference_points(&mut criterion, universe[0]);
    // Capacity comfortably above the universe: the floors below measure
    // canonicalization quality and Zipf skew, not eviction policy.
    let stream = run_stream(&universe, requests, universe_size * 2);

    let total = (stream.stats.hits + stream.stats.misses) as f64;
    let hit_rate = stream.stats.hits as f64 / total.max(1.0);
    let hit_p50_ns = percentile_ns(stream.hit_ns, 50);
    let miss_p50_ns = percentile_ns(stream.miss_ns, 50);
    let cold_p50_ns = percentile_ns(stream.cold_ns, 50);
    let speedup = cold_p50_ns / hit_p50_ns.max(1.0);

    let results = criterion.take_results();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cache.json");
    SummaryWriter::new("cache")
        .threads(1)
        .metric("hit_rate", hit_rate)
        .metric("hit_p50_ns", hit_p50_ns)
        .metric("miss_p50_ns", miss_p50_ns)
        .metric("cold_p50_ns", cold_p50_ns)
        .metric("hit_speedup", speedup)
        .int("stream_requests", requests as i64)
        .int("universe", universe_size as i64)
        .int("evictions", stream.stats.evictions as i64)
        .int("smoke", i64::from(smoke))
        .write(path, &results)
        .expect("write BENCH_cache.json");
    println!(
        "zipf stream: {requests} requests over {universe_size} designs, hit rate {hit_rate:.3}; \
         p50 hit {:.1} us vs p50 cold {:.1} us ({speedup:.1}x; summary: BENCH_cache.json)",
        hit_p50_ns / 1e3,
        cold_p50_ns / 1e3,
    );
    if !smoke {
        assert!(
            hit_rate >= 0.5,
            "Zipf stream must hit at least half the time (measured {hit_rate:.3})"
        );
        assert!(
            speedup >= 10.0,
            "p50 hit must be at least 10x faster than a p50 cold schedule \
             (measured {speedup:.1}x)"
        );
    }
}
