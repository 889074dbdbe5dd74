//! Differential property tests pinning the packed-row kernel fixpoint to
//! the reference scheduler.
//!
//! The kernel path ([`schedule`], [`schedule_with_sets`]) must be
//! **bit-identical** to the retained pre-kernel implementations
//! ([`schedule_reference`], [`schedule_with_sets_reference`]) on arbitrary
//! designs: identical offsets, anchor sets, iteration counts, and
//! identical error values (unfeasibility witnesses, ill-posedness
//! violations, inconsistency budgets). The kernel skips columns and
//! vertices that cannot move (its two frontiers), so matching iteration
//! counts pins every round, not just the fixpoint.
//!
//! On top of the mutual pinning, every cold result is judged by the
//! independent first-principles oracle (`rsched_oracle::check_result`),
//! so a bug shared by the kernel *and* the reference — a wrong reading
//! of a theorem rather than a wrong port of the code — still fails here.

use proptest::prelude::*;

use rsched_core::{
    iteration_bound, schedule, schedule_reference, schedule_with_sets,
    schedule_with_sets_reference, AnchorSets, IrredundantAnchors,
};
use rsched_graph::{ConstraintGraph, ExecDelay, VertexId};

#[derive(Debug, Clone)]
struct GraphSpec {
    /// `None` = unbounded delay.
    delays: Vec<Option<u64>>,
    /// Dependency edges `(i, j)`, kept only when `i < j`.
    deps: Vec<(usize, usize)>,
    /// Minimum constraints `(i, j, l)`, kept only when `i < j`.
    mins: Vec<(usize, usize, u64)>,
    /// Maximum constraints `(i, j, u)`, any `i != j`.
    maxs: Vec<(usize, usize, u64)>,
}

fn graph_spec(max_ops: usize) -> impl Strategy<Value = GraphSpec> {
    (2usize..max_ops).prop_flat_map(|n| {
        (
            proptest::collection::vec(
                prop_oneof![3 => (0u64..6).prop_map(Some), 1 => Just(None)],
                n,
            ),
            proptest::collection::vec((0..n, 0..n), 1..2 * n),
            proptest::collection::vec((0..n, 0..n, 0u64..6), 0..4),
            proptest::collection::vec((0..n, 0..n, 0u64..12), 0..4),
        )
            .prop_map(|(delays, deps, mins, maxs)| GraphSpec {
                delays,
                deps,
                mins,
                maxs,
            })
    })
}

fn build(spec: &GraphSpec) -> (ConstraintGraph, Vec<VertexId>) {
    let mut g = ConstraintGraph::new();
    let vs: Vec<VertexId> = spec
        .delays
        .iter()
        .enumerate()
        .map(|(i, d)| {
            g.add_operation(
                format!("op{i}"),
                match d {
                    Some(d) => ExecDelay::Fixed(*d),
                    None => ExecDelay::Unbounded,
                },
            )
        })
        .collect();
    for &(i, j) in &spec.deps {
        if i < j {
            g.add_dependency(vs[i], vs[j])
                .expect("i < j keeps G_f acyclic");
        }
    }
    for &(i, j, l) in &spec.mins {
        if i < j {
            g.add_min_constraint(vs[i], vs[j], l)
                .expect("i < j cannot contradict dependencies");
        }
    }
    for &(i, j, u) in &spec.maxs {
        if i != j {
            g.add_max_constraint(vs[i], vs[j], u)
                .expect("valid endpoints");
        }
    }
    g.polarize()
        .expect("polarize cannot fail on fresh operations");
    (g, vs)
}

/// A dependency chain whose last `links` pairs carry a max constraint one
/// unit looser than the dependency, plus a min constraint stretching the
/// chain to three times its total delay: readjustment can only raise one
/// link per round, so the fixpoint needs exactly `links + 1` iterations.
/// (Mirror of `rsched_designs::cascade`, inlined here because designs
/// depends on core and the tests cannot close that cycle.)
fn build_cascade(n: usize, links: usize, salt: u64) -> ConstraintGraph {
    let delay = |i: usize| (i as u64 * 7 + 3 + salt * 5) % 23 + 1;
    let mut g = ConstraintGraph::new();
    let vs: Vec<VertexId> = (0..n)
        .map(|i| g.add_operation(format!("c{i}"), ExecDelay::Fixed(delay(i))))
        .collect();
    for i in 0..n - 1 {
        g.add_dependency(vs[i], vs[i + 1]).unwrap();
    }
    let total: u64 = (0..n).map(delay).sum();
    g.add_min_constraint(vs[0], vs[n - 1], total * 3).unwrap();
    for i in (n - 1 - links)..n - 1 {
        g.add_max_constraint(vs[i], vs[i + 1], delay(i) + 1)
            .unwrap();
    }
    g.polarize().unwrap();
    g
}

/// The kernel fixpoint and the reference agree at the fixpoint level
/// (after anchor-set computation, without the well-posedness pre-check),
/// over the full `A(v)` family and over the irredundant restriction —
/// where a tail may track anchors its forward head does not — so
/// fixpoint-detected errors (inconsistency budgets) must agree too, and
/// iteration counts match round for round.
fn assert_fixpoint_matches_reference(g: &ConstraintGraph) {
    let Ok(sets) = AnchorSets::compute(g);
    let mut families = vec![sets.family().clone()];
    if let Ok(ir) = IrredundantAnchors::analyze(g) {
        families.push(ir.irredundant.family().clone());
    }
    for family in &families {
        let reference = schedule_with_sets_reference(g, family);
        let kernel = schedule_with_sets(g, family);
        assert_eq!(kernel, reference, "kernel fixpoint diverged");
        if let (Ok(k), Ok(r)) = (&kernel, &reference) {
            assert_eq!(k.iterations(), r.iterations());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cold scheduling: the kernel fixpoint and the adjacency-walking
    /// reference return the same `Result` — offsets, iteration counts,
    /// and every error variant included.
    #[test]
    fn kernel_equals_reference(spec in graph_spec(20)) {
        let (g, _) = build(&spec);
        let kernel = schedule(&g);
        let reference = schedule_reference(&g);
        prop_assert_eq!(&kernel, &reference);
        if let (Ok(k), Ok(r)) = (&kernel, &reference) {
            prop_assert_eq!(k.iterations(), r.iterations());
        }
        // Independent referee: the oracle re-derives every theorem from
        // the graph alone and must agree with whatever both returned.
        let report = rsched_oracle::check_result(&g, &kernel);
        prop_assert!(report.is_ok(), "oracle disagrees with both implementations:\n{}", report);
    }

    /// The fixpoint level on arbitrary designs, over the full and the
    /// irredundant families; the reference itself passes the oracle.
    #[test]
    fn fixpoint_matches_reference(spec in graph_spec(20)) {
        let (g, _) = build(&spec);
        let reference = schedule_reference(&g);
        let report = rsched_oracle::check_result(&g, &reference);
        prop_assert!(report.is_ok(), "oracle disagrees with the reference:\n{}", report);
        assert_fixpoint_matches_reference(&g);
    }

    /// Cascade designs force `links + 1` readjust rounds (readjustment can
    /// only raise one link per round), so both frontiers actually retire
    /// columns and skip vertices across surviving rounds instead of
    /// degenerating to the one-round case. The kernel must still agree
    /// with the reference bit for bit, at the full iteration count.
    #[test]
    fn cascade_multi_round_matches_reference(
        n in 10usize..40,
        links in 2usize..8,
        salt in 0u64..64,
    ) {
        let g = build_cascade(n, links, salt);
        let reference = schedule_reference(&g);
        let omega = reference.as_ref().expect("cascades are feasible");
        prop_assert_eq!(omega.iterations(), links + 1);
        let report = rsched_oracle::check_result(&g, &reference);
        prop_assert!(report.is_ok(), "oracle disagrees with the reference:\n{}", report);
        prop_assert_eq!(&schedule(&g), &reference);
        assert_fixpoint_matches_reference(&g);
    }

    /// Theorem 8: a well-posed design converges within `L + 1 ≤ |E_b| + 1`
    /// iterations.
    #[test]
    fn iterations_stay_within_theorem_8(spec in graph_spec(20)) {
        let (g, _) = build(&spec);
        let Ok(omega) = schedule(&g) else { return Ok(()) };
        let bound = iteration_bound(&g).expect("feasible graphs have a bound");
        prop_assert!(omega.iterations() <= bound.max_iterations());
        prop_assert!(omega.iterations() <= g.n_backward_edges() + 1);
    }
}

/// A cascade whose readjusted heads sit at the end of the chain, beside a
/// side branch off the chain's start that no backward edge reaches: from
/// round 2 on the forward cone of the readjusted heads is a strict subset
/// of `G_f`, so the vertex frontier skips the branch. Offsets and the
/// `links + 1` iteration count must equal the reference's.
#[test]
fn readjusted_cone_is_a_strict_subset_of_the_forward_graph() {
    let (n, links) = (24, 5);
    let mut g = build_cascade(n, links, 3);
    let ops: Vec<VertexId> = g.operation_ids().collect();
    let mut prev = ops[0];
    for i in 0..12 {
        // The branch opens with an anchor whose column no backward edge
        // reaches, so the column frontier retires it after round 1.
        let delay = if i == 0 {
            ExecDelay::Unbounded
        } else {
            ExecDelay::Fixed(i % 4 + 1)
        };
        let side = g.add_operation(format!("side{i}"), delay);
        g.add_dependency(prev, side).unwrap();
        prev = side;
    }
    g.polarize().unwrap();
    let reference = schedule_reference(&g).expect("the design is feasible");
    assert_eq!(reference.iterations(), links + 1);
    let kernel = schedule(&g).expect("the design is feasible");
    assert_eq!(kernel, reference);
    assert_eq!(kernel.iterations(), links + 1);
    assert_fixpoint_matches_reference(&g);
    let report = rsched_oracle::check_result(&g, &Ok(kernel));
    assert!(report.is_ok(), "{report}");
}

/// Designs with more than 64 anchors spread every row over several
/// bitset words; the packed walks must carry their positions across
/// word boundaries.
#[test]
fn anchors_spanning_several_row_words_match_reference() {
    let mut g = ConstraintGraph::new();
    let mut prev: Option<VertexId> = None;
    for i in 0..150 {
        let delay = if i % 2 == 0 {
            ExecDelay::Unbounded
        } else {
            ExecDelay::Fixed(i as u64 % 5 + 1)
        };
        let v = g.add_operation(format!("v{i}"), delay);
        if let Some(p) = prev {
            g.add_dependency(p, v).unwrap();
            if i % 7 == 0 {
                g.add_min_constraint(p, v, 3).unwrap();
            }
        }
        prev = Some(v);
    }
    g.polarize().unwrap();
    assert!(g.n_anchors() > 64);
    let reference = schedule_reference(&g).expect("the chain is well-posed");
    assert_eq!(schedule(&g).expect("the chain is well-posed"), reference);
    assert_fixpoint_matches_reference(&g);
}
