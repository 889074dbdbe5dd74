//! Packed-row kernel fixpoint vs reference scheduler, and the batch
//! fan-out.
//!
//! Two variants of a cold `schedule()` run on each design:
//!
//! - `legacy/…` — [`rsched_core::schedule_reference`], the pre-kernel
//!   adjacency-list fixpoint;
//! - `kernel/…` — [`rsched_core::schedule`], the fixpoint over packed
//!   rows on the CSR kernel.
//!
//! A `batch/…` group additionally schedules a fleet of independent designs
//! serially vs fanned through a shared [`rsched_core::WorkPool`] — the
//! same executor the `batch_schedule` service request uses.
//!
//! Before any timing, every variant is asserted **bit-identical** to the
//! reference (offsets, anchors, iteration counts); a variant that drifted
//! would make the comparison meaningless. A custom `main` exports the
//! samples and the kernel-vs-legacy speedup on the largest design to
//! `BENCH_kernel.json` at the repository root, stamped with the commit
//! hash and thread count. Set `RSCHED_BENCH_SMOKE=1` (CI) to shrink the
//! timing budgets and skip the ratio floors; set `RSCHED_BENCH_THREADS=N`
//! to pin the batch pool's size instead of sizing it to the host's cores.
//! Outside smoke mode two floors hold: the kernel beats legacy by 2x on
//! the largest design, and the batch fan-out does not regress materially
//! against serial scheduling (>= 0.95x).
//!
//! Both ratios come from interleaved A/B rounds
//! ([`interleaved_ratio`]), not from two criterion means: those are
//! taken seconds apart, and on a shared host the drift between them
//! alone moved a ratio of identical code (`RSCHED_BENCH_THREADS=1`) to
//! 0.81x.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use criterion::{BenchmarkId, Criterion, SummaryWriter};

use rsched_core::{schedule, schedule_reference, RelativeSchedule, WorkPool};
use rsched_designs::paper::fig10;
use rsched_designs::random::{random_constraint_graph, RandomGraphConfig};
use rsched_graph::ConstraintGraph;

const LARGEST: &str = "rand_800";
const BATCH_DESIGNS: usize = 8;

fn smoke() -> bool {
    std::env::var("RSCHED_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// Batch pool size: `RSCHED_BENCH_THREADS` when set (CI pins 1 and 4),
/// otherwise the host's cores, capped at 8.
fn fan_threads() -> usize {
    if let Ok(v) = std::env::var("RSCHED_BENCH_THREADS") {
        return v
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| panic!("RSCHED_BENCH_THREADS must be a positive integer, got {v}"));
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 8)
}

fn designs() -> Vec<(&'static str, ConstraintGraph)> {
    let (fig10_graph, ..) = fig10();
    vec![
        ("fig10", fig10_graph),
        (
            "rand_200",
            random_constraint_graph(
                7,
                &RandomGraphConfig {
                    n_ops: 200,
                    ..Default::default()
                },
            ),
        ),
        (
            LARGEST,
            random_constraint_graph(
                11,
                &RandomGraphConfig {
                    n_ops: 800,
                    ..Default::default()
                },
            ),
        ),
    ]
}

/// The independent fleet for the batch group: same shape, varied seeds.
fn batch_fleet() -> Vec<ConstraintGraph> {
    (0..BATCH_DESIGNS as u64)
        .map(|seed| {
            random_constraint_graph(
                100 + seed,
                &RandomGraphConfig {
                    n_ops: 200,
                    ..Default::default()
                },
            )
        })
        .collect()
}

/// Schedules every design of `fleet` through `pool` — the bench twin of
/// the service's `batch_schedule`, down to the shared [`WorkPool`]
/// executor. Results come back in input order. A one-thread pool runs
/// the jobs inline on the caller, so `pool.threads() <= 1` is the serial
/// baseline with no queue round-trip.
fn schedule_fleet(fleet: &Arc<Vec<ConstraintGraph>>, pool: &WorkPool) -> Vec<RelativeSchedule> {
    if pool.threads() <= 1 {
        return fleet
            .iter()
            .map(|g| schedule(g).expect("feasible"))
            .collect();
    }
    let slots: Arc<Vec<Mutex<Option<RelativeSchedule>>>> =
        Arc::new(fleet.iter().map(|_| Mutex::new(None)).collect());
    let (fleet, out) = (Arc::clone(fleet), Arc::clone(&slots));
    pool.run_indexed(fleet.len(), move |i| {
        *out[i].lock().expect("unshared slot") = Some(schedule(&fleet[i]).expect("feasible"));
    });
    Arc::try_unwrap(slots)
        .expect("pool batch returned, workers dropped their handle")
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("unshared slot")
                .expect("worker filled slot")
        })
        .collect()
}

fn assert_identical(a: &RelativeSchedule, b: &RelativeSchedule, what: &str) {
    assert_eq!(a, b, "{what}: schedules must be bit-identical");
    assert_eq!(a.iterations(), b.iterations(), "{what}: iteration counts");
}

fn kernel_schedule(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_schedule");
    for (name, graph) in designs() {
        let reference = schedule_reference(&graph).expect("designs are feasible");
        assert_identical(&schedule(&graph).expect("kernel"), &reference, name);
        group.bench_with_input(BenchmarkId::new("legacy", name), &graph, |b, g| {
            b.iter(|| schedule_reference(g).expect("feasible"))
        });
        group.bench_with_input(BenchmarkId::new("kernel", name), &graph, |b, g| {
            b.iter(|| schedule(g).expect("feasible"))
        });
    }
    group.finish();
}

fn batch(c: &mut Criterion, threads: usize) {
    let fleet = Arc::new(batch_fleet());
    // One long-lived pool per mode, exactly like the service: the pool
    // outlives every request, so spawn cost is not on the timed path.
    let serial_pool = WorkPool::new(1);
    let fan_pool = WorkPool::new(threads);
    let serial = schedule_fleet(&fleet, &serial_pool);
    let fanned = schedule_fleet(&fleet, &fan_pool);
    for (i, (a, b)) in serial.iter().zip(&fanned).enumerate() {
        assert_identical(a, b, &format!("batch design {i}"));
    }
    let mut group = c.benchmark_group("batch");
    group.bench_with_input(
        BenchmarkId::new("serial", format!("{BATCH_DESIGNS}x200")),
        &fleet,
        |b, fleet| b.iter(|| schedule_fleet(fleet, &serial_pool)),
    );
    group.bench_with_input(
        BenchmarkId::new(format!("fanned_t{threads}"), format!("{BATCH_DESIGNS}x200")),
        &fleet,
        |b, fleet| b.iter(|| schedule_fleet(fleet, &fan_pool)),
    );
    group.finish();
}

/// Median over `pairs` interleaved rounds of `time(a) / time(b)`, where
/// each round times a batch of `a` calls and a same-sized batch of `b`
/// calls back to back (alternating which goes first). Host drift hits
/// both sides of a round alike, so the per-round ratio cancels it; the
/// median drops the rounds a burst of noise landed in. The batch size
/// is calibrated so each side runs for about `target`.
fn interleaved_ratio(
    pairs: usize,
    target: Duration,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> f64 {
    let time = |f: &mut dyn FnMut(), iters: u32| {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_secs_f64()
    };
    let once = time(&mut a, 1).max(time(&mut b, 1)).max(1e-9);
    let iters = (target.as_secs_f64() / once).clamp(1.0, 10_000.0) as u32;
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|round| {
            let (ta, tb) = if round % 2 == 0 {
                let ta = time(&mut a, iters);
                (ta, time(&mut b, iters))
            } else {
                let tb = time(&mut b, iters);
                (time(&mut a, iters), tb)
            };
            ta / tb.max(1e-12)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[pairs / 2]
}

fn main() {
    let smoke = smoke();
    let threads = fan_threads();
    let (samples, warm_ms, measure_ms) = if smoke { (2, 5, 20) } else { (10, 100, 400) };
    let mut criterion = Criterion::default()
        .sample_size(samples)
        .warm_up_time(Duration::from_millis(warm_ms))
        .measurement_time(Duration::from_millis(measure_ms));
    kernel_schedule(&mut criterion);
    batch(&mut criterion, threads);
    let results = criterion.take_results();

    // Each ratio is the baseline's time over the contender's, from
    // interleaved rounds.
    let (pairs, target) = if smoke {
        (3, Duration::from_millis(2))
    } else {
        (21, Duration::from_millis(20))
    };
    let largest = designs()
        .into_iter()
        .find(|(name, _)| *name == LARGEST)
        .expect("largest design")
        .1;
    let kernel_speedup = interleaved_ratio(
        pairs,
        target,
        || drop(schedule_reference(&largest).expect("feasible")),
        || drop(schedule(&largest).expect("feasible")),
    );
    let fleet = Arc::new(batch_fleet());
    let (serial_pool, fan_pool) = (WorkPool::new(1), WorkPool::new(threads));
    let batch_speedup = interleaved_ratio(
        pairs,
        target,
        || drop(schedule_fleet(&fleet, &serial_pool)),
        || drop(schedule_fleet(&fleet, &fan_pool)),
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel.json");
    SummaryWriter::new("kernel_schedule")
        .threads(threads)
        .tag("largest_design", LARGEST)
        .metric("kernel_vs_legacy_largest", kernel_speedup)
        .metric("batch_fanned_vs_serial", batch_speedup)
        .int("smoke", i64::from(smoke))
        .write(path, &results)
        .expect("write BENCH_kernel.json");
    println!(
        "kernel vs legacy on {LARGEST}: {kernel_speedup:.1}x; \
         batch fan-out over {threads} threads: {batch_speedup:.2}x \
         (summary: BENCH_kernel.json)"
    );
    if !smoke {
        assert!(
            kernel_speedup >= 2.0,
            "kernel cold schedule must be >= 2x faster than legacy on {LARGEST}"
        );
        // A regression guard, not a speedup floor: with one core per
        // design the fan-out sits at ~1.0 noise on a small host, and a
        // ratio materially below 1.0 means the pool is actively hurting.
        assert!(
            batch_speedup >= 0.95,
            "batch fan-out must not regress vs serial scheduling \
             (measured {batch_speedup:.2}x)"
        );
    }
}
