//! End-to-end regeneration of the paper's headline results.

use relative_scheduling::core::{
    profile_for, schedule, schedule_traced, start_times, IrredundantAnchors,
};
use relative_scheduling::designs::benchmarks::all_benchmarks;
use relative_scheduling::designs::paper::{fig10, fig2};
use relative_scheduling::sgraph::schedule_design;

/// Table II, cell for cell.
#[test]
fn table2_regenerates() {
    let (g, a, [v1, v2, v3, v4]) = fig2();
    let s = g.source();
    let omega = schedule(&g).unwrap();
    let expect: &[(_, Option<i64>, Option<i64>)] = &[
        (a, Some(0), None),
        (v1, Some(0), None),
        (v2, Some(2), None),
        (v3, Some(3), Some(0)),
        (v4, Some(8), Some(5)),
    ];
    for &(v, s_off, a_off) in expect {
        assert_eq!(omega.offset(v, s), s_off, "σ_v0({v})");
        assert_eq!(omega.offset(v, a), a_off, "σ_a({v})");
    }
}

/// Fig. 10's trace: 3 violations, then 1, then convergence in the third
/// iteration — with the final column matching the paper.
#[test]
fn fig10_regenerates() {
    let (g, a, [_, v2, _, _, _, _]) = fig10();
    let trace = schedule_traced(&g).unwrap();
    let per_iteration: Vec<usize> = trace
        .iterations
        .iter()
        .map(|i| i.violations.len())
        .collect();
    assert_eq!(per_iteration, vec![3, 1, 0]);
    assert_eq!(trace.schedule.offset(v2, g.source()), Some(5));
    assert_eq!(trace.schedule.offset(v2, a), Some(3));
    assert_eq!(trace.schedule.offset(g.sink(), g.source()), Some(12));
    assert_eq!(trace.schedule.offset(g.sink(), a), Some(6));
}

/// Table III: every design matches its published |A|/|V| signature, and
/// redundancy removal shrinks the totals on all eight designs, with
/// traffic and length matching the published totals exactly.
#[test]
fn table3_shape_holds() {
    for bench in all_benchmarks() {
        let stats = schedule_design(&bench.design).unwrap().anchor_stats();
        assert_eq!(stats.n_anchors, bench.paper.anchors, "{}", bench.name);
        assert_eq!(stats.n_vertices, bench.paper.vertices, "{}", bench.name);
        assert!(
            stats.total_irredundant < stats.total_full,
            "{}: minimization must strictly reduce the totals (paper shows \
             reductions on every design)",
            bench.name
        );
        if matches!(bench.name, "traffic" | "length") {
            assert_eq!(stats.total_full, bench.paper.total_full, "{}", bench.name);
            assert_eq!(
                stats.total_irredundant, bench.paper.total_min,
                "{}",
                bench.name
            );
        }
    }
}

/// Table IV: minimization never worsens offsets; traffic matches exactly;
/// frisc reproduces the published maximum offset of 12.
#[test]
fn table4_shape_holds() {
    for bench in all_benchmarks() {
        let stats = schedule_design(&bench.design).unwrap().anchor_stats();
        assert!(
            stats.max_offset_min <= stats.max_offset_full,
            "{}",
            bench.name
        );
        assert!(
            stats.sum_max_offsets_min <= stats.sum_max_offsets_full,
            "{}",
            bench.name
        );
        match bench.name {
            "traffic" => {
                assert_eq!((stats.max_offset_full, stats.sum_max_offsets_full), (1, 1));
                assert_eq!((stats.max_offset_min, stats.sum_max_offsets_min), (1, 1));
            }
            "frisc" => {
                assert_eq!(stats.max_offset_full, 12);
                assert_eq!(stats.max_offset_min, 12);
            }
            _ => {}
        }
    }
}

/// Theorems 4/6 on every benchmark: start times from irredundant anchors
/// equal start times from full sets, across delay profiles.
#[test]
fn irredundant_start_times_match_on_benchmarks() {
    for bench in all_benchmarks() {
        let scheduled = schedule_design(&bench.design).unwrap();
        for gs in scheduled.graph_schedules() {
            let g = &gs.lowered.graph;
            for delay in [0u64, 3, 11] {
                let mut builder = profile_for(g);
                for &v in g.anchors() {
                    if v != g.source() {
                        builder = builder.with_delay(v, delay);
                    }
                }
                let profile = builder.build();
                let full = start_times(g, &gs.schedule, &profile);
                let min = start_times(g, &gs.schedule_ir, &profile);
                for v in g.vertex_ids() {
                    assert_eq!(
                        full.time(v),
                        min.time(v),
                        "{} / {}: T({v}) with δ = {delay}",
                        bench.name,
                        gs.name
                    );
                }
            }
        }
    }
}

/// The §VII performance claim, scaled to this machine: the whole suite
/// (lower + analyze + schedule, all 8 designs) completes in well under
/// the paper's 1–2 s per design.
#[test]
fn all_benchmarks_schedule_quickly() {
    let start = std::time::Instant::now();
    for bench in all_benchmarks() {
        schedule_design(&bench.design).unwrap();
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_secs_f64() < 8.0,
        "suite took {elapsed:?} (expected well under 1 s/design even in debug builds)"
    );
}

/// Anchor-set laws on every benchmark graph: IR ⊆ R ⊆ A (Theorem 5,
/// Lemma 4).
#[test]
fn anchor_set_chain_on_benchmarks() {
    for bench in all_benchmarks() {
        let scheduled = schedule_design(&bench.design).unwrap();
        for gs in scheduled.graph_schedules() {
            let g = &gs.lowered.graph;
            let analysis = IrredundantAnchors::analyze(g).unwrap();
            for v in g.vertex_ids() {
                for a in analysis.irredundant.set(v) {
                    assert!(analysis.relevant.contains(v, a), "IR ⊆ R");
                }
                for a in analysis.relevant.set(v) {
                    assert!(analysis.anchor_sets.contains(v, a), "R ⊆ A (well-posed)");
                }
            }
        }
    }
}
