//! Differential property test: `reduce_sequencing_edges` removes exactly
//! the edges a plain per-edge longest-path test removes.
//!
//! The reference below decides every sequencing edge, in edge-id order,
//! by a longest-path DP over the topological window between its
//! endpoints, blind to any reachability shortcut. The generators cover
//! what the shortcut's preconditions hinge on: parallel and zero-delay
//! dependencies, anchors and `set_delay` flips, minimum constraints
//! lighter than `δ(u)` and out of anchors, `remove_edge` tombstones, and
//! delays above `i64::MAX`, which `add_operation` accepts but no
//! dependency out of the operation does (`WeightOverflow`).

use proptest::prelude::*;
use rsched_graph::{ConstraintGraph, Edge, EdgeId, EdgeKind, ExecDelay, GraphError, VertexId};

const OPS: usize = 14;

#[derive(Debug, Clone, Copy)]
enum Step {
    Dep(usize, usize),
    Min(usize, usize, u64),
    Max(usize, usize, u64),
    Remove(usize),
    SetDelay(usize, Option<u64>),
    Polarize,
}

/// A delay: zero, small, unbounded, or above `i64::MAX` (`u64::MAX - k`,
/// which no sequencing edge can carry).
fn delay() -> impl Strategy<Value = ExecDelay> {
    prop_oneof![
        2 => Just(ExecDelay::Fixed(0)),
        5 => (1u64..6).prop_map(ExecDelay::Fixed),
        3 => Just(ExecDelay::Unbounded),
        1 => (0u64..3).prop_map(|k| ExecDelay::Fixed(u64::MAX - k)),
    ]
}

/// Logical positions `0..OPS + 2` (0 the source, `OPS + 1` the sink),
/// ascending so most inserts are accepted.
fn pair() -> impl Strategy<Value = (usize, usize)> {
    (0usize..OPS + 2, 0usize..OPS + 2).prop_map(|(a, b)| (a.min(b), a.max(b)))
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        10 => pair().prop_map(|(a, b)| Step::Dep(a, b)),
        4 => (pair(), 0u64..4).prop_map(|((a, b), l)| Step::Min(a, b, l)),
        2 => (pair(), 0u64..12).prop_map(|((a, b), u)| Step::Max(a, b, u)),
        2 => (0usize..64).prop_map(Step::Remove),
        2 => (1usize..OPS + 1, proptest::option::of(0u64..6))
            .prop_map(|(v, d)| Step::SetDelay(v, d)),
        1 => Just(Step::Polarize),
    ]
}

/// The reference keep mask: each sequencing edge `(u, v)` of weight `w`,
/// in edge-id order, is dropped when the longest other `u → v` forward
/// path over the edges kept so far weighs at least `w`, its first edge
/// unbounded if `(u, v)` is.
fn reference_keep(g: &ConstraintGraph) -> Vec<bool> {
    let slots = g.edges().map(|(id, _)| id.index() + 1).max().unwrap_or(0);
    let mut keep = vec![true; slots];
    let topo = g.forward_topological_order();
    let order = topo.order();
    let usable = |keep: &[bool], skip: EdgeId, id: EdgeId, e: &Edge| {
        id != skip && keep[id.index()] && e.is_forward()
    };
    for (skip, s) in g.edges() {
        if s.kind() != EdgeKind::Sequencing {
            continue;
        }
        let (u, v) = (s.from(), s.to());
        let (lo, hi) = (topo.position(u), topo.position(v));
        let mut dist: Vec<Option<i64>> = vec![None; g.n_vertices()];
        for (id, e) in g.out_edges(u) {
            let first_ok = !s.weight().is_unbounded() || e.weight().is_unbounded();
            if usable(&keep, skip, id, e) && first_ok && topo.position(e.to()) <= hi {
                let slot = &mut dist[e.to().index()];
                *slot = Some(slot.map_or(e.weight().zeroed(), |d| d.max(e.weight().zeroed())));
            }
        }
        for &x in &order[lo + 1..hi] {
            let Some(dx) = dist[x.index()] else { continue };
            for (id, e) in g.out_edges(x) {
                if usable(&keep, skip, id, e) && topo.position(e.to()) <= hi {
                    let cand = dx + e.weight().zeroed();
                    let slot = &mut dist[e.to().index()];
                    *slot = Some(slot.map_or(cand, |d| d.max(cand)));
                }
            }
        }
        if dist[v.index()].is_some_and(|d| d >= s.weight().zeroed()) {
            keep[skip.index()] = false;
        }
    }
    keep
}

/// Live edges as comparable tuples, in id order.
fn edge_list(g: &ConstraintGraph) -> Vec<(VertexId, VertexId, EdgeKind, i64, bool)> {
    g.edges()
        .map(|(_, e)| {
            (
                e.from(),
                e.to(),
                e.kind(),
                e.weight().zeroed(),
                e.weight().is_unbounded(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn reduction_matches_windowed_longest_path_reference(
        delays in proptest::collection::vec(delay(), OPS..OPS + 1),
        steps in proptest::collection::vec(step(), 1..64),
    ) {
        let mut g = ConstraintGraph::new();
        let mut at = vec![g.source()];
        for (i, &d) in delays.iter().enumerate() {
            at.push(g.add_operation(format!("op{i}"), d));
        }
        at.push(g.sink());
        for step in steps {
            // Rejected inserts (cycles, polarity, self-loops) are fine:
            // the graph just stays as it was.
            match step {
                Step::Dep(a, b) => {
                    let _ = g.add_dependency(at[a], at[b]);
                }
                Step::Min(a, b, l) => {
                    let _ = g.add_min_constraint(at[a], at[b], l);
                }
                Step::Max(a, b, u) => {
                    let _ = g.add_max_constraint(at[a], at[b], u);
                }
                Step::Remove(k) => {
                    let live: Vec<EdgeId> = g.edges().map(|(id, _)| id).collect();
                    if !live.is_empty() {
                        g.remove_edge(live[k % live.len()]).unwrap();
                    }
                }
                Step::SetDelay(v, d) => {
                    let d = d.map_or(ExecDelay::Unbounded, ExecDelay::Fixed);
                    g.set_delay(at[v], d).unwrap();
                }
                Step::Polarize => {
                    // Only an operation whose delay no edge can carry may
                    // refuse its link to the sink.
                    if let Err(e) = g.polarize() {
                        prop_assert!(
                            matches!(e, GraphError::WeightOverflow(d) if d > i64::MAX as u64),
                            "{e}"
                        );
                    }
                }
            }
        }

        let keep = reference_keep(&g);
        let expected: Vec<_> = edge_list(&g)
            .into_iter()
            .zip(g.edges())
            .filter(|(_, (id, _))| keep[id.index()])
            .map(|(t, _)| t)
            .collect();
        let examined = g.edges().filter(|(_, e)| e.kind() == EdgeKind::Sequencing).count();
        let mut reduced = g.clone();
        let report = reduced.reduce_sequencing_edges();
        prop_assert_eq!(report.examined, examined);
        prop_assert_eq!(report.removed, g.n_edges() - expected.len());
        prop_assert_eq!(edge_list(&reduced), expected);
    }
}
