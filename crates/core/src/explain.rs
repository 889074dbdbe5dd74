//! Offset explanations: the binding path behind each `σ_a(v)`.
//!
//! Theorem 3 identifies every minimum offset with a longest weighted path
//! from its anchor. This module reconstructs that path edge by edge, so a
//! user staring at a surprising offset (or a failed maximum constraint)
//! can see exactly which dependencies and timing constraints force it —
//! the scheduling analogue of a critical-path report.

use rsched_graph::{ConstraintGraph, EdgeId, VertexId};

use crate::anchors::AnchorSets;
use crate::error::ScheduleError;
use crate::schedule::RelativeSchedule;

/// A reconstructed binding path for one offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OffsetExplanation {
    /// The anchor the offset is measured from.
    pub anchor: VertexId,
    /// The explained vertex.
    pub vertex: VertexId,
    /// The offset value.
    pub offset: i64,
    /// Edges of a longest (binding) path from the anchor to the vertex,
    /// in path order. Empty when the offset is 0 via the anchor's own
    /// unbounded edge.
    pub path: Vec<EdgeId>,
}

impl OffsetExplanation {
    /// Renders the path as `a -(w)-> x -(w)-> … -> v`.
    pub fn render(&self, graph: &ConstraintGraph) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "σ_{}({}) = {}:",
            graph.vertex(self.anchor).name(),
            graph.vertex(self.vertex).name(),
            self.offset
        );
        let mut at = self.anchor;
        let _ = write!(out, " {}", graph.vertex(at).name());
        let name = |v| graph.display_name(v);
        for &eid in &self.path {
            let e = graph.edge(eid);
            out.push_str(" -(");
            let _ = e.weight().write_named(&mut out, &name);
            let _ = write!(out, ")-> {}", graph.vertex(e.to()).name());
            at = e.to();
        }
        debug_assert_eq!(at, self.vertex);
        out
    }
}

/// Reconstructs a longest binding path realizing `σ_a(v)` of the minimum
/// relative schedule.
///
/// Runs the per-anchor relaxation with predecessor tracking over `a`'s
/// anchored cone; returns `None` when `a` is not tracked at `v`.
///
/// # Errors
///
/// Returns [`ScheduleError::Unfeasible`] if relaxation diverges (the
/// schedule did not come from this graph).
pub fn explain_offset(
    graph: &ConstraintGraph,
    schedule: &RelativeSchedule,
    v: VertexId,
    a: VertexId,
) -> Result<Option<OffsetExplanation>, ScheduleError> {
    let Some(offset) = schedule.offset(v, a) else {
        return Ok(None);
    };
    let Ok(sets) = AnchorSets::compute(graph);
    let in_cone = |x: VertexId| x == a || sets.contains(x, a);
    let n = graph.n_vertices();
    let mut dist: Vec<Option<i64>> = vec![None; n];
    let mut pred: Vec<Option<EdgeId>> = vec![None; n];
    dist[a.index()] = Some(0);
    let mut rounds = 0usize;
    let mut changed = true;
    while changed {
        changed = false;
        for (id, e) in graph.edges() {
            if !in_cone(e.from()) || !in_cone(e.to()) || e.to() == a {
                continue;
            }
            let Some(du) = dist[e.from().index()] else {
                continue;
            };
            let cand = du + e.weight().zeroed();
            if dist[e.to().index()].is_none_or(|d| cand > d) {
                dist[e.to().index()] = Some(cand);
                pred[e.to().index()] = Some(id);
                changed = true;
            }
        }
        rounds += 1;
        if changed && rounds > n + graph.n_backward_edges() + 1 {
            return Err(ScheduleError::Unfeasible { witness: a });
        }
    }
    // Walk predecessors back from v.
    let mut path = Vec::new();
    let mut at = v;
    while at != a {
        let Some(eid) = pred[at.index()] else {
            // Untracked route (offset held at its initial 0 without a
            // binding path — the base case of the anchor's own edge).
            break;
        };
        path.push(eid);
        at = graph.edge(eid).from();
    }
    path.reverse();
    debug_assert_eq!(
        dist[v.index()].unwrap_or(0),
        offset,
        "explanation must realize the offset"
    );
    Ok(Some(OffsetExplanation {
        anchor: a,
        vertex: v,
        offset,
        path,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{fig10, fig2};
    use crate::schedule::schedule;

    #[test]
    fn fig2_paths_realize_offsets() {
        let (g, a, [_, _, v3, v4]) = fig2();
        let omega = schedule(&g).unwrap();
        // σ_a(v4) = 5: a -> v3 (δ(a), 0) -> v4 (5).
        let ex = explain_offset(&g, &omega, v4, a).unwrap().unwrap();
        assert_eq!(ex.offset, 5);
        let weights: i64 = ex.path.iter().map(|&e| g.edge(e).weight().zeroed()).sum();
        assert_eq!(weights, 5);
        assert_eq!(g.edge(*ex.path.first().unwrap()).from(), a);
        assert_eq!(g.edge(*ex.path.last().unwrap()).to(), v4);
        let text = ex.render(&g);
        assert!(text.contains("σ_a(v4) = 5"));
        assert!(text.contains("v3"));

        // σ_v0(v3) = 3 comes from the min constraint, a single edge.
        let ex = explain_offset(&g, &omega, v3, g.source()).unwrap().unwrap();
        assert_eq!(ex.offset, 3);
        assert_eq!(ex.path.len(), 1);
        assert_eq!(
            g.edge(ex.path[0]).kind(),
            rsched_graph::EdgeKind::MinConstraint
        );
    }

    #[test]
    fn fig10_explains_readjusted_offsets_through_backward_edges() {
        let (g, _, [_, v2, v3, _, _, _]) = fig10();
        let omega = schedule(&g).unwrap();
        // σ_v0(v2) = 5 is only realizable via the backward edge from v3.
        let ex = explain_offset(&g, &omega, v2, g.source()).unwrap().unwrap();
        assert_eq!(ex.offset, 5);
        assert!(
            ex.path.iter().any(|&e| g.edge(e).is_backward()),
            "the binding path must cross a maximum constraint"
        );
        let weights: i64 = ex.path.iter().map(|&e| g.edge(e).weight().zeroed()).sum();
        assert_eq!(weights, 5);
        let _ = v3;
    }

    #[test]
    fn untracked_pairs_yield_none() {
        let (g, a, [v1, ..]) = fig2();
        let omega = schedule(&g).unwrap();
        assert!(explain_offset(&g, &omega, v1, a).unwrap().is_none());
    }

    /// Every tracked offset of every vertex is explainable, and the
    /// explanation's weight sum equals the offset.
    #[test]
    fn all_offsets_explainable_on_fig10() {
        let (g, _, _) = fig10();
        let omega = schedule(&g).unwrap();
        for v in g.vertex_ids() {
            for &a in omega.anchors() {
                if let Some(ex) = explain_offset(&g, &omega, v, a).unwrap() {
                    let weights: i64 = ex.path.iter().map(|&e| g.edge(e).weight().zeroed()).sum();
                    assert_eq!(weights, ex.offset, "σ_{a}({v})");
                }
            }
        }
    }
}
