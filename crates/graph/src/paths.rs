//! Longest-path machinery over the full constraint graph.
//!
//! Everything in the paper that touches path lengths uses one convention:
//! edges keep their signed fixed weights, unbounded weights `δ(a)` count as
//! 0, and `length(u, v)` is the longest weighted path from `u` to `v` in the
//! *full* graph `G(V, E)` — backward edges included (§III). Because forward
//! weights are non-negative and backward weights non-positive, the graph may
//! contain cycles; feasible graphs contain no *positive* cycle (Theorem 1),
//! which is exactly the condition under which longest paths are finite.

use crate::error::GraphError;
use crate::graph::{ConstraintGraph, VertexId};

/// Longest weighted paths from a single source vertex over the full graph,
/// with unbounded delays set to 0.
///
/// Computed with Bellman–Ford relaxation (longest-path variant). Vertices
/// unreachable from the source have no distance.
#[derive(Debug, Clone)]
pub struct LongestPaths {
    source: VertexId,
    dist: Vec<Option<i64>>,
}

impl LongestPaths {
    /// Runs Bellman–Ford from `source` over the full graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::PositiveCycle`] if relaxation fails to converge,
    /// i.e. a positive cycle is reachable from `source` (unfeasible
    /// constraints, Theorem 1).
    pub fn from_source(graph: &ConstraintGraph, source: VertexId) -> Result<Self, GraphError> {
        if source.index() >= graph.n_vertices() {
            return Err(GraphError::UnknownVertex(source));
        }
        let n = graph.n_vertices();
        let mut dist: Vec<Option<i64>> = vec![None; n];
        dist[source.index()] = Some(0);
        let mut changed = true;
        let mut rounds = 0usize;
        while changed {
            changed = false;
            for (_, e) in graph.edges() {
                let Some(du) = dist[e.from().index()] else {
                    continue;
                };
                let cand = du + e.weight().zeroed();
                if dist[e.to().index()].is_none_or(|dv| cand > dv) {
                    dist[e.to().index()] = Some(cand);
                    changed = true;
                }
            }
            rounds += 1;
            if changed && rounds >= n {
                let witness = graph
                    .edges()
                    .map(|(_, e)| e)
                    .find(|e| {
                        matches!(
                            (dist[e.from().index()], dist[e.to().index()]),
                            (Some(du), Some(dv)) if du + e.weight().zeroed() > dv
                        )
                    })
                    .map(|e| e.to())
                    .unwrap_or(source);
                return Err(GraphError::PositiveCycle { witness });
            }
        }
        Ok(LongestPaths { source, dist })
    }

    /// The source this table was computed from.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// `length(source, v)`: the longest weighted path to `v`, or `None` if
    /// `v` is unreachable from the source.
    pub fn length_to(&self, v: VertexId) -> Option<i64> {
        self.dist.get(v.index()).copied().flatten()
    }
}

/// Longest-path lengths from a chosen set of source vertices (typically the
/// anchors), memoized row by row.
///
/// This is the `length(a, b)` oracle used by `minimumAnchor` (§IV-D).
#[derive(Debug, Clone)]
pub struct PathMatrix {
    rows: Vec<(VertexId, LongestPaths)>,
}

impl PathMatrix {
    /// Computes longest paths from every vertex in `sources`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::PositiveCycle`] if any source reaches a
    /// positive cycle, or [`GraphError::UnknownVertex`] for a foreign id.
    pub fn for_sources(
        graph: &ConstraintGraph,
        sources: impl IntoIterator<Item = VertexId>,
    ) -> Result<Self, GraphError> {
        let mut rows = Vec::new();
        for s in sources {
            rows.push((s, LongestPaths::from_source(graph, s)?));
        }
        Ok(PathMatrix { rows })
    }

    /// `length(from, to)` with unbounded delays set to 0, or `None` if `to`
    /// is unreachable from `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` was not among the sources this matrix was built for.
    pub fn length(&self, from: VertexId, to: VertexId) -> Option<i64> {
        self.rows
            .iter()
            .find(|(s, _)| *s == from)
            .unwrap_or_else(|| panic!("{from} is not a source of this PathMatrix"))
            .1
            .length_to(to)
    }
}

impl ConstraintGraph {
    /// Checks for a positive cycle anywhere in the graph, with unbounded
    /// delays set to 0 — the negation of Theorem 1's feasibility condition.
    /// Runs [`ConstraintGraph::positive_cycle_rounds`].
    pub fn has_positive_cycle(&self) -> bool {
        self.positive_cycle_rounds().0
    }

    /// [`ConstraintGraph::has_positive_cycle`]'s verdict, and the number of
    /// rounds it took: at most `|E_b| + 1`, and 0 when `E_b` is empty.
    ///
    /// Longest paths from a virtual super-source (every distance starts at
    /// 0), relaxed round by round. A round is one sweep of the forward
    /// in-edges in the graph's kept topological order, which leaves every
    /// forward edge satisfied, then one scan of the backward edges. The
    /// first round whose scan raises nothing has satisfied every edge, so
    /// the graph has no positive cycle. `G_f` is acyclic, so every cycle
    /// takes a backward edge, and without a positive cycle some simple path
    /// — thus one with at most `|E_b|` backward edges — is a longest path
    /// to each vertex. Round `k` settles every path with fewer than `k`
    /// backward edges, so a feasible graph stops by round `|E_b| + 1`
    /// (the paper's iteration bound, Theorem 8); one whose scan still
    /// raises a distance then holds a positive cycle.
    pub fn positive_cycle_rounds(&self) -> (bool, usize) {
        let backward: Vec<(usize, usize, i64)> = self
            .backward_edges()
            .map(|(_, e)| (e.from().index(), e.to().index(), e.weight().zeroed()))
            .collect();
        if backward.is_empty() {
            return (false, 0);
        }
        let order = self.forward_order();
        let mut dist = vec![0i64; self.n_vertices()];
        for round in 1..=backward.len() + 1 {
            for &v in &order {
                let mut d = dist[v.index()];
                for (_, e) in self.in_edges(v) {
                    if e.is_forward() {
                        d = d.max(dist[e.from().index()] + e.weight().zeroed());
                    }
                }
                dist[v.index()] = d;
            }
            let mut raised = false;
            for &(from, to, w) in &backward {
                let cand = dist[from] + w;
                if cand > dist[to] {
                    dist[to] = cand;
                    raised = true;
                }
            }
            if !raised {
                return (false, round);
            }
        }
        (true, backward.len() + 1)
    }

    /// Longest weighted paths from `source` over the full graph (backward
    /// edges included, unbounded delays set to 0) — the paper's
    /// `length(source, ·)`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::PositiveCycle`] for unfeasible constraints and
    /// [`GraphError::UnknownVertex`] for foreign ids.
    pub fn longest_paths_from(&self, source: VertexId) -> Result<LongestPaths, GraphError> {
        LongestPaths::from_source(self, source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ExecDelay;

    fn chain(delays: &[u64]) -> (ConstraintGraph, Vec<VertexId>) {
        let mut g = ConstraintGraph::new();
        let vs: Vec<VertexId> = delays
            .iter()
            .enumerate()
            .map(|(i, &d)| g.add_operation(format!("c{i}"), ExecDelay::Fixed(d)))
            .collect();
        for w in vs.windows(2) {
            g.add_dependency(w[0], w[1]).unwrap();
        }
        g.polarize().unwrap();
        (g, vs)
    }

    #[test]
    fn chain_lengths_accumulate_delays() {
        let (g, vs) = chain(&[2, 3, 5]);
        let lp = g.longest_paths_from(vs[0]).unwrap();
        assert_eq!(lp.length_to(vs[0]), Some(0));
        assert_eq!(lp.length_to(vs[1]), Some(2));
        assert_eq!(lp.length_to(vs[2]), Some(5));
        assert_eq!(lp.length_to(g.sink()), Some(10));
        // The source is not reachable from vs[0].
        assert_eq!(lp.length_to(g.source()), None);
    }

    #[test]
    fn unbounded_weights_count_as_zero() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("sync", ExecDelay::Unbounded);
        let b = g.add_operation("b", ExecDelay::Fixed(4));
        g.add_dependency(a, b).unwrap();
        g.polarize().unwrap();
        let lp = g.longest_paths_from(g.source()).unwrap();
        assert_eq!(lp.length_to(a), Some(0));
        assert_eq!(lp.length_to(b), Some(0)); // δ(a) -> 0
        assert_eq!(lp.length_to(g.sink()), Some(4));
    }

    #[test]
    fn longest_of_two_paths_wins() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(1));
        let b = g.add_operation("b", ExecDelay::Fixed(10));
        let c = g.add_operation("c", ExecDelay::Fixed(1));
        let d = g.add_operation("d", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap();
        g.add_dependency(a, c).unwrap();
        g.add_dependency(b, d).unwrap();
        g.add_dependency(c, d).unwrap();
        g.polarize().unwrap();
        let lp = g.longest_paths_from(a).unwrap();
        assert_eq!(lp.length_to(d), Some(11));
    }

    /// A min constraint larger than a matching max constraint forms a
    /// positive cycle (Theorem 1 unfeasibility).
    #[test]
    fn contradictory_constraints_form_positive_cycle() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(1));
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap();
        g.add_min_constraint(a, b, 5).unwrap();
        g.add_max_constraint(a, b, 3).unwrap(); // cycle a -> b (5), b -> a (-3)
        g.polarize().unwrap();
        assert!(g.has_positive_cycle());
        assert!(matches!(
            g.longest_paths_from(g.source()),
            Err(GraphError::PositiveCycle { .. })
        ));
    }

    #[test]
    fn consistent_constraints_have_no_positive_cycle() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(1));
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap();
        g.add_min_constraint(a, b, 2).unwrap();
        g.add_max_constraint(a, b, 3).unwrap(); // cycle length 2 - 3 = -1 <= 0
        g.polarize().unwrap();
        assert!(!g.has_positive_cycle());
        let lp = g.longest_paths_from(g.source()).unwrap();
        assert_eq!(lp.length_to(b), Some(2));
    }

    #[test]
    fn backward_edges_participate_in_lengths() {
        // length(b, a) along a backward edge is the negative constraint.
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(1));
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap();
        g.add_max_constraint(a, b, 4).unwrap();
        g.polarize().unwrap();
        let lp = g.longest_paths_from(b).unwrap();
        assert_eq!(lp.length_to(a), Some(-4));
    }

    #[test]
    fn path_matrix_answers_all_sources() {
        let (g, vs) = chain(&[1, 2, 3]);
        let m = PathMatrix::for_sources(&g, [g.source(), vs[0], vs[1]]).unwrap();
        assert_eq!(m.length(vs[0], vs[2]), Some(3));
        assert_eq!(m.length(vs[1], vs[2]), Some(2));
        assert_eq!(m.length(g.source(), vs[0]), Some(0)); // δ(v0) -> 0
    }

    #[test]
    #[should_panic(expected = "not a source")]
    fn path_matrix_panics_on_foreign_source() {
        let (g, vs) = chain(&[1]);
        let m = PathMatrix::for_sources(&g, [g.source()]).unwrap();
        let _ = m.length(vs[0], g.sink());
    }

    #[test]
    fn zero_length_cycle_is_feasible() {
        // max constraint of exactly the path length: cycle length 0.
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(2));
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap();
        g.add_max_constraint(a, b, 2).unwrap();
        g.polarize().unwrap();
        assert!(!g.has_positive_cycle());
    }
}
