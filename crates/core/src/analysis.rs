//! Convergence analysis of iterative incremental scheduling (Theorem 8).
//!
//! The paper bounds the scheduler by `L + 1` iterations, where `L` is the
//! largest number of backward edges on any *minimum-backward-edge longest
//! path* from an anchor to a vertex of its anchored cone: for each anchor
//! `a`, `L_a` is the smallest `u` such that every vertex's longest
//! weighted path from `a` can be chosen with at most `u` backward edges,
//! and `L = max_a L_a ≤ |E_b|`. This module computes `L` exactly, so the
//! bound can be checked against observed iteration counts (which the
//! property suite does).

use rsched_graph::{ConstraintGraph, VertexId};

use crate::anchors::AnchorSets;
use crate::error::ScheduleError;

/// The Theorem 8 convergence bound of a constraint graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationBound {
    /// `L`: the maximum, over anchors and vertices, of the minimum number
    /// of backward edges on a longest weighted path.
    pub l: usize,
    /// `|E_b|`: the trivial upper bound on `L`.
    pub n_backward_edges: usize,
}

impl IterationBound {
    /// The scheduler finishes within this many iterations (Theorem 8).
    pub fn max_iterations(&self) -> usize {
        self.l + 1
    }
}

/// Computes `L` (Theorem 8) by a lexicographic Bellman–Ford per anchor:
/// distances are maximized by weighted length, ties broken by *fewest*
/// backward edges, restricted to each anchor's anchored cone (the
/// vertices whose tracked offsets the scheduler actually maintains).
///
/// # Errors
///
/// Returns [`ScheduleError::Unfeasible`] if a positive cycle prevents the
/// distances from converging (no schedule exists, Corollary 2 applies
/// instead).
pub fn iteration_bound(graph: &ConstraintGraph) -> Result<IterationBound, ScheduleError> {
    let Ok(sets) = AnchorSets::compute(graph);
    iteration_bound_with(graph, &sets)
}

/// [`iteration_bound`] against precomputed anchor sets.
///
/// # Errors
///
/// Same conditions as [`iteration_bound`].
pub fn iteration_bound_with(
    graph: &ConstraintGraph,
    sets: &AnchorSets,
) -> Result<IterationBound, ScheduleError> {
    let n = graph.n_vertices();
    let n_backward_edges = graph.n_backward_edges();
    let mut l = 0usize;
    for &a in sets.anchors() {
        // dist[v] = (longest length, fewest backward edges among longest).
        let in_cone = |v: VertexId| v == a || sets.contains(v, a);
        let mut dist: Vec<Option<(i64, usize)>> = vec![None; n];
        dist[a.index()] = Some((0, 0));
        let mut rounds = 0usize;
        let mut changed = true;
        while changed {
            changed = false;
            for (_, e) in graph.edges() {
                if !in_cone(e.from()) || !in_cone(e.to()) || e.to() == a {
                    continue;
                }
                let Some((len, be)) = dist[e.from().index()] else {
                    continue;
                };
                let cand = (len + e.weight().zeroed(), be + usize::from(e.is_backward()));
                let better = match dist[e.to().index()] {
                    None => true,
                    Some((cl, cb)) => cand.0 > cl || (cand.0 == cl && cand.1 < cb),
                };
                if better {
                    dist[e.to().index()] = Some(cand);
                    changed = true;
                }
            }
            rounds += 1;
            if changed && rounds > n + n_backward_edges + 1 {
                let witness = graph
                    .vertex_ids()
                    .find(|v| dist[v.index()].is_some())
                    .unwrap_or(a);
                return Err(ScheduleError::Unfeasible { witness });
            }
        }
        for d in dist.iter().flatten() {
            l = l.max(d.1);
        }
    }
    Ok(IterationBound {
        l,
        n_backward_edges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{fig10, fig2};
    use crate::schedule::schedule;

    #[test]
    fn fig2_converges_within_l_plus_one() {
        let (g, _, _) = fig2();
        let bound = iteration_bound(&g).unwrap();
        let omega = schedule(&g).unwrap();
        assert!(omega.iterations() <= bound.max_iterations());
        assert!(bound.l <= bound.n_backward_edges);
        // Fig. 2's single max constraint is never binding on a longest
        // path: L = 0, one iteration suffices.
        assert_eq!(bound.l, 0);
        assert_eq!(omega.iterations(), 1);
    }

    #[test]
    fn fig10_bound_is_tight() {
        let (g, _, _) = fig10();
        let bound = iteration_bound(&g).unwrap();
        let omega = schedule(&g).unwrap();
        // The v6 -> a -> … -> v3 -> v2 cascade uses two backward edges on
        // the longest path to v2: L = 2, and the schedule takes exactly
        // L + 1 = 3 iterations.
        assert_eq!(bound.l, 2);
        assert_eq!(omega.iterations(), 3);
        assert_eq!(omega.iterations(), bound.max_iterations());
    }

    #[test]
    fn unfeasible_graph_detected() {
        use rsched_graph::{ConstraintGraph, ExecDelay};
        let mut g = ConstraintGraph::new();
        let x = g.add_operation("x", ExecDelay::Fixed(5));
        let y = g.add_operation("y", ExecDelay::Fixed(1));
        g.add_dependency(x, y).unwrap();
        g.add_max_constraint(x, y, 2).unwrap();
        g.polarize().unwrap();
        assert!(matches!(
            iteration_bound(&g),
            Err(ScheduleError::Unfeasible { .. })
        ));
    }

    #[test]
    fn no_backward_edges_means_one_iteration() {
        use rsched_graph::{ConstraintGraph, ExecDelay};
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Unbounded);
        let b = g.add_operation("b", ExecDelay::Fixed(2));
        g.add_dependency(a, b).unwrap();
        g.polarize().unwrap();
        let bound = iteration_bound(&g).unwrap();
        assert_eq!(
            bound,
            IterationBound {
                l: 0,
                n_backward_edges: 0
            }
        );
        assert_eq!(bound.max_iterations(), 1);
    }
}
