//! Ablation: the cost and benefit of redundant-anchor removal — the
//! anchor analyses themselves, and scheduling over full `A(v)` vs
//! irredundant `IR(v)` sets (the paper's first motivation in §III-D).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rsched_core::{schedule_with_sets, AnchorSets, IrredundantAnchors, RelevantAnchors};
use rsched_designs::random::{random_constraint_graph, RandomGraphConfig};

fn anchor_analyses(c: &mut Criterion) {
    let mut group = c.benchmark_group("anchor_analysis");
    for n in [50usize, 200, 800] {
        let g = random_constraint_graph(
            n as u64,
            &RandomGraphConfig {
                n_ops: n,
                unbounded_prob: 0.2,
                ..Default::default()
            },
        );
        group.bench_with_input(BenchmarkId::new("find_anchor_sets", n), &g, |b, g| {
            b.iter(|| AnchorSets::compute(g))
        });
        group.bench_with_input(BenchmarkId::new("relevant_anchors", n), &g, |b, g| {
            b.iter(|| RelevantAnchors::compute(g))
        });
        group.bench_with_input(BenchmarkId::new("full_analysis", n), &g, |b, g| {
            b.iter(|| IrredundantAnchors::analyze(g).expect("feasible"))
        });
    }
    group.finish();
}

fn schedule_full_vs_irredundant(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_sets");
    for n in [50usize, 200, 800] {
        let g = random_constraint_graph(
            n as u64,
            &RandomGraphConfig {
                n_ops: n,
                unbounded_prob: 0.2,
                ..Default::default()
            },
        );
        let analysis = IrredundantAnchors::analyze(&g).expect("feasible");
        let full = analysis.anchor_sets.family().clone();
        let ir = analysis.irredundant.family().clone();
        group.bench_with_input(BenchmarkId::new("full_sets", n), &g, |b, g| {
            b.iter(|| schedule_with_sets(g, &full).expect("consistent"))
        });
        group.bench_with_input(BenchmarkId::new("irredundant_sets", n), &g, |b, g| {
            b.iter(|| schedule_with_sets(g, &ir).expect("consistent"))
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
    targets = anchor_analyses, schedule_full_vs_irredundant
}
criterion_main!(benches);
