//! Degenerate inputs for the kernel fixpoint: graphs with no anchors
//! besides the source, single-vertex graphs, a partial row word, and
//! error verdicts. Every one must be bit-identical to the reference
//! [`schedule_reference`] run (same offsets, iterations, and verdicts —
//! `RelativeSchedule` derives `PartialEq`), and the ignored `threads`
//! argument of [`schedule_with_sets_on`] must change nothing.

use rsched_core::{schedule, schedule_reference, schedule_with_sets_on, AnchorSets};
use rsched_graph::{ConstraintGraph, ExecDelay, ScheduleKernel};

fn assert_bit_identical(g: &ConstraintGraph, label: &str) {
    let cold = schedule(g);
    assert_eq!(
        schedule_reference(g),
        cold,
        "{label}: schedule() diverges from the reference"
    );
    let Ok(sets) = AnchorSets::compute(g);
    let Ok(kernel) = ScheduleKernel::build(g);
    let serial = schedule_with_sets_on(&kernel, sets.family(), 1);
    for threads in [0, 2, 64] {
        assert_eq!(
            schedule_with_sets_on(&kernel, sets.family(), threads),
            serial,
            "{label}: threads = {threads} changed the result"
        );
    }
}

#[test]
fn empty_graph_source_and_sink_only() {
    let mut g = ConstraintGraph::new();
    g.polarize().expect("polar");
    assert_eq!(g.n_vertices(), 2);
    assert_bit_identical(&g, "empty");
}

#[test]
fn single_fixed_vertex() {
    let mut g = ConstraintGraph::new();
    g.add_operation("only", ExecDelay::Fixed(3));
    g.polarize().expect("polar");
    assert_bit_identical(&g, "single fixed");
}

#[test]
fn single_unbounded_vertex() {
    let mut g = ConstraintGraph::new();
    g.add_operation("only", ExecDelay::Unbounded);
    g.polarize().expect("polar");
    assert_bit_identical(&g, "single unbounded");
}

#[test]
fn no_anchors_besides_the_source() {
    // A fixed-delay chain with constraints: the source is the one anchor,
    // so every row holds at most one offset.
    let mut g = ConstraintGraph::new();
    let a = g.add_operation("a", ExecDelay::Fixed(2));
    let b = g.add_operation("b", ExecDelay::Fixed(1));
    let c = g.add_operation("c", ExecDelay::Fixed(4));
    g.add_dependency(a, b).unwrap();
    g.add_dependency(b, c).unwrap();
    g.add_min_constraint(a, c, 5).unwrap();
    g.add_max_constraint(a, c, 9).unwrap();
    g.polarize().expect("polar");
    assert_eq!(g.n_anchors(), 1, "source only");
    assert_bit_identical(&g, "source-only anchors");
}

#[test]
fn few_anchors_fill_part_of_one_row_word() {
    // Three anchors (source + two unbounded ops): one row word, mostly
    // empty, with a max constraint to readjust.
    let mut g = ConstraintGraph::new();
    let a1 = g.add_operation("a1", ExecDelay::Unbounded);
    let a2 = g.add_operation("a2", ExecDelay::Unbounded);
    let v = g.add_operation("v", ExecDelay::Fixed(2));
    let w = g.add_operation("w", ExecDelay::Fixed(1));
    g.add_dependency(a1, v).unwrap();
    g.add_dependency(a2, v).unwrap();
    g.add_dependency(v, w).unwrap();
    g.add_max_constraint(v, w, 6).unwrap();
    g.polarize().expect("polar");
    assert!(g.n_anchors() < 64);
    assert_bit_identical(&g, "partial row word");
}

#[test]
fn error_verdicts_match_the_reference() {
    // Unfeasible (positive cycle) and ill-posed graphs must yield the
    // same error as the reference.
    let mut unfeasible = ConstraintGraph::new();
    let a = unfeasible.add_operation("a", ExecDelay::Fixed(5));
    let b = unfeasible.add_operation("b", ExecDelay::Fixed(1));
    unfeasible.add_dependency(a, b).unwrap();
    unfeasible.add_max_constraint(a, b, 2).unwrap();
    unfeasible.polarize().expect("polar");
    assert_bit_identical(&unfeasible, "unfeasible");

    let mut ill = ConstraintGraph::new();
    let vi = ill.add_operation("vi", ExecDelay::Fixed(1));
    let anchor = ill.add_operation("anchor", ExecDelay::Unbounded);
    let vj = ill.add_operation("vj", ExecDelay::Fixed(1));
    ill.add_dependency(vi, anchor).unwrap();
    ill.add_dependency(anchor, vj).unwrap();
    ill.add_max_constraint(vi, vj, 4).unwrap();
    ill.polarize().expect("polar");
    assert_bit_identical(&ill, "ill-posed");
}
