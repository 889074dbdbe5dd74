//! Well-posedness analysis performance: `findAnchorSet` +
//! `checkWellposed` on well-posed graphs, and `makeWellposed` repair of
//! ill-posed graphs with growing numbers of independent synchronizations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rsched_core::{check_well_posed, make_well_posed};
use rsched_designs::random::{random_constraint_graph, RandomGraphConfig};
use rsched_graph::{ConstraintGraph, ExecDelay};

/// A scaled Fig. 3(b): `k` independent anchor pairs, each feeding a
/// maximum constraint, all ill-posed and repairable.
fn ill_posed_graph(k: usize) -> ConstraintGraph {
    let mut g = ConstraintGraph::new();
    for i in 0..k {
        let a1 = g.add_operation(format!("a1_{i}"), ExecDelay::Unbounded);
        let a2 = g.add_operation(format!("a2_{i}"), ExecDelay::Unbounded);
        let vi = g.add_operation(format!("vi_{i}"), ExecDelay::Fixed(1));
        let vj = g.add_operation(format!("vj_{i}"), ExecDelay::Fixed(1));
        g.add_dependency(a1, vi).expect("fresh");
        g.add_dependency(a2, vj).expect("fresh");
        g.add_max_constraint(vi, vj, 4).expect("valid");
    }
    g.polarize().expect("polar");
    g
}

fn check_well_posed_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("check_well_posed");
    for n in [50usize, 200, 800] {
        let g = random_constraint_graph(
            n as u64,
            &RandomGraphConfig {
                n_ops: n,
                ..Default::default()
            },
        );
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| check_well_posed(g))
        });
    }
    group.finish();
}

fn make_well_posed_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("make_well_posed");
    for k in [4usize, 16, 64] {
        let g = ill_posed_graph(k);
        group.bench_with_input(BenchmarkId::from_parameter(k), &g, |b, g| {
            b.iter_batched(
                || g.clone(),
                |mut g| make_well_posed(&mut g).expect("repairable"),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(15)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900));
    targets = check_well_posed_bench, make_well_posed_bench
}
criterion_main!(benches);
