//! The oracle refereeing real schedules: paper designs, random designs,
//! deliberately broken schedules, and the fuzz harnesses end to end.

use rsched_core::{schedule, schedule_reference, ScheduleError};
use rsched_designs::paper;
use rsched_designs::random::{random_constraint_graph, RandomGraphConfig};
use rsched_graph::{ConstraintGraph, ExecDelay};
use rsched_oracle::{
    check_result, fuzz, fuzz_serve, positive_cycle, verify, Check, FuzzConfig, ServeFuzzConfig,
};

#[test]
fn oracle_accepts_the_paper_designs() {
    for (name, graph) in [
        ("fig2", paper::fig2().0),
        ("fig10", paper::fig10().0),
        ("fig12", paper::fig12().0),
    ] {
        let result = schedule(&graph);
        let report = check_result(&graph, &result);
        assert!(
            report.is_ok(),
            "{name}: oracle rejected a correct schedule:\n{report}"
        );
    }
}

#[test]
fn certificate_proves_offset_minimality_on_fig2() {
    let (graph, _, _) = paper::fig2();
    let omega = schedule(&graph).expect("fig2 is well-posed");
    let report = verify(&graph, &omega);
    assert!(report.is_ok(), "{report}");
    assert!(
        !report.certificate.is_empty(),
        "certificate must list every tracked offset"
    );
    for bound in &report.certificate {
        assert_eq!(
            bound.offset, bound.lower_bound,
            "Theorem 8: minimum offsets equal longest path weights"
        );
    }
}

#[test]
fn oracle_agrees_with_ill_posed_rejections() {
    let (graph, _, _) = paper::fig3a();
    let result = schedule(&graph);
    assert!(matches!(result, Err(ScheduleError::IllPosed { .. })));
    let report = check_result(&graph, &result);
    assert!(
        report.is_ok(),
        "oracle must confirm the ill-posed verdict from first principles:\n{report}"
    );
}

#[test]
fn oracle_agrees_with_unfeasible_rejections() {
    // A 5-cycle operation under a 2-cycle maximum constraint: the
    // backward edge closes a positive cycle (Theorem 1).
    let mut g = ConstraintGraph::new();
    let a = g.add_operation("a", ExecDelay::Fixed(5));
    let b = g.add_operation("b", ExecDelay::Fixed(1));
    g.add_dependency(a, b).unwrap();
    g.add_max_constraint(a, b, 2).unwrap();
    g.polarize().unwrap();
    assert!(positive_cycle(&g).is_some(), "cycle must be found naively");
    let result = schedule(&g);
    assert!(matches!(result, Err(ScheduleError::Unfeasible { .. })));
    let report = check_result(&g, &result);
    assert!(report.is_ok(), "{report}");
}

#[test]
fn broken_schedule_is_rejected_with_a_thm8_witness() {
    // Schedule fig2, then lengthen v1 on the graph: the stale offsets
    // undershoot the new longest paths and must be rejected under
    // Theorem 8 with a concrete witness path.
    let (mut graph, _, [v1, ..]) = paper::fig2();
    let omega = schedule(&graph).expect("fig2 is well-posed");
    graph.set_delay(v1, ExecDelay::Fixed(4)).unwrap();
    let report = verify(&graph, &omega);
    assert!(!report.is_ok(), "stale offsets must not pass");
    match &report.offsets {
        Check::Violated(witness) => {
            assert!(
                witness.message.contains("Theorem 8"),
                "witness must cite Theorem 8: {witness}"
            );
            assert!(
                witness.path.len() >= 2,
                "witness must carry the longest path: {witness}"
            );
        }
        other => panic!("expected a Thm 8 violation, got {other}"),
    }
}

#[test]
fn schedule_against_the_wrong_graph_is_caught() {
    // Offsets from one random design verified against another: some
    // check must fire (usually anchor sets or Thm 8 offsets).
    let config = RandomGraphConfig {
        n_ops: 12,
        ..RandomGraphConfig::default()
    };
    let g1 = random_constraint_graph(11, &config);
    let g2 = random_constraint_graph(12, &config);
    let omega = schedule(&g1).expect("generated designs are well-posed");
    if g1.to_text() == g2.to_text() {
        return; // astronomically unlikely, but then there is nothing to catch
    }
    let report = verify(&g2, &omega);
    assert!(!report.is_ok(), "cross-graph schedule must be rejected");
}

#[test]
fn oracle_accepts_random_designs_cold_and_reference() {
    let config = RandomGraphConfig {
        n_ops: 24,
        ..RandomGraphConfig::default()
    };
    for seed in 0..16 {
        let graph = random_constraint_graph(seed, &config);
        let cold = schedule(&graph);
        let report = check_result(&graph, &cold);
        assert!(report.is_ok(), "seed {seed}:\n{report}");
        assert_eq!(
            schedule_reference(&graph),
            cold,
            "seed {seed}: the reference fixpoint must be bit-identical"
        );
    }
}

#[test]
fn graph_fuzz_smoke_finds_no_violations() {
    let report = fuzz(&FuzzConfig {
        seed: 7,
        iters: 40,
        ..FuzzConfig::default()
    });
    assert!(report.is_ok(), "{report}");
    assert_eq!(report.cases, 40);
    assert!(report.states_checked >= 40);
    // The grammar must exercise all three verdicts, or the fuzz run
    // proves much less than it claims.
    assert!(report.well_posed > 0, "{report}");
    assert!(report.ill_posed > 0, "{report}");
    assert!(report.unfeasible > 0, "{report}");
}

#[test]
fn graph_fuzz_is_deterministic() {
    let a = fuzz(&FuzzConfig {
        seed: 9,
        iters: 10,
        ..FuzzConfig::default()
    });
    let b = fuzz(&FuzzConfig {
        seed: 9,
        iters: 10,
        ..FuzzConfig::default()
    });
    assert_eq!(a.states_checked, b.states_checked);
    assert_eq!(a.edits_applied, b.edits_applied);
    assert_eq!(
        (a.well_posed, a.ill_posed, a.unfeasible),
        (b.well_posed, b.ill_posed, b.unfeasible)
    );
}

#[test]
fn serve_fuzz_smoke_holds_the_protocol_contract() {
    let report = fuzz_serve(&ServeFuzzConfig {
        seed: 3,
        rounds: 4,
        frames_per_round: 30,
    });
    assert!(report.is_ok(), "{report}");
    assert_eq!(report.frames, report.responses, "{report}");
}
