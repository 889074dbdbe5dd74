//! The worked examples of the paper's figures, as constraint graphs.

use rsched_graph::{ConstraintGraph, ExecDelay, VertexId};

/// Fig. 2 / Table II: the six-vertex example with anchors `v0` and `a`, a
/// maximum timing constraint from `v1` to `v2` and a minimum timing
/// constraint from `v0` to `v3`.
///
/// Returns the graph, the anchor `a`, and `[v1, v2, v3, v4]`.
pub fn fig2() -> (ConstraintGraph, VertexId, [VertexId; 4]) {
    let mut g = ConstraintGraph::new();
    let a = g.add_operation("a", ExecDelay::Unbounded);
    let v1 = g.add_operation("v1", ExecDelay::Fixed(2));
    let v2 = g.add_operation("v2", ExecDelay::Fixed(1));
    let v3 = g.add_operation("v3", ExecDelay::Fixed(5));
    let v4 = g.add_operation("v4", ExecDelay::Fixed(1));
    let s = g.source();
    g.add_dependency(s, a).expect("fresh graph");
    g.add_dependency(s, v1).expect("fresh graph");
    g.add_dependency(v1, v2).expect("fresh graph");
    g.add_dependency(a, v3).expect("fresh graph");
    g.add_dependency(v2, v4).expect("fresh graph");
    g.add_dependency(v3, v4).expect("fresh graph");
    g.add_min_constraint(s, v3, 3).expect("valid constraint");
    g.add_max_constraint(v1, v2, 5).expect("valid constraint");
    g.polarize().expect("polar");
    (g, a, [v1, v2, v3, v4])
}

/// Fig. 3(a): an anchor on the path between the endpoints of a maximum
/// constraint — ill-posed and unrepairable.
///
/// Returns the graph, the anchor, and `(v_i, v_j)`.
pub fn fig3a() -> (ConstraintGraph, VertexId, (VertexId, VertexId)) {
    let mut g = ConstraintGraph::new();
    let vi = g.add_operation("vi", ExecDelay::Fixed(1));
    let a = g.add_operation("a", ExecDelay::Unbounded);
    let vj = g.add_operation("vj", ExecDelay::Fixed(1));
    g.add_dependency(vi, a).expect("fresh graph");
    g.add_dependency(a, vj).expect("fresh graph");
    g.add_max_constraint(vi, vj, 4).expect("valid constraint");
    g.polarize().expect("polar");
    (g, a, (vi, vj))
}

/// Fig. 3(b): two independent synchronizations feeding a maximum
/// constraint — ill-posed, repairable by serializing `v_i` after `a2`
/// (which yields Fig. 3(c)).
///
/// Returns the graph, `(a1, a2)`, and `(v_i, v_j)`.
pub fn fig3b() -> (ConstraintGraph, (VertexId, VertexId), (VertexId, VertexId)) {
    let mut g = ConstraintGraph::new();
    let a1 = g.add_operation("a1", ExecDelay::Unbounded);
    let a2 = g.add_operation("a2", ExecDelay::Unbounded);
    let vi = g.add_operation("vi", ExecDelay::Fixed(1));
    let vj = g.add_operation("vj", ExecDelay::Fixed(1));
    g.add_dependency(a1, vi).expect("fresh graph");
    g.add_dependency(a2, vj).expect("fresh graph");
    g.add_max_constraint(vi, vj, 4).expect("valid constraint");
    g.polarize().expect("polar");
    (g, (a1, a2), (vi, vj))
}

/// Fig. 4 / Fig. 7: a cascade of anchors `a -> b -> v_i`, making `a`
/// redundant for `v_i`.
///
/// Returns the graph, `(a, b)`, and `v_i`.
pub fn fig4() -> (ConstraintGraph, (VertexId, VertexId), VertexId) {
    let mut g = ConstraintGraph::new();
    let a = g.add_operation("a", ExecDelay::Unbounded);
    let b = g.add_operation("b", ExecDelay::Unbounded);
    let vi = g.add_operation("vi", ExecDelay::Fixed(1));
    g.add_dependency(a, b).expect("fresh graph");
    g.add_dependency(b, vi).expect("fresh graph");
    g.polarize().expect("polar");
    (g, (a, b), vi)
}

/// Fig. 8: the irredundant-vs-redundant illustration. With
/// `v1_delay = 3` (variant (a)) anchor `a` is irredundant for `v3`; with
/// `v1_delay = 0` (variant (b)) it is dominated by `b` and redundant.
///
/// Returns the graph, `(a, b)`, and `v3`.
pub fn fig8(v1_delay: u64) -> (ConstraintGraph, (VertexId, VertexId), VertexId) {
    let mut g = ConstraintGraph::new();
    let a = g.add_operation("a", ExecDelay::Unbounded);
    let v1 = g.add_operation("v1", ExecDelay::Fixed(v1_delay));
    let b = g.add_operation("b", ExecDelay::Unbounded);
    let v3 = g.add_operation("v3", ExecDelay::Fixed(1));
    g.add_dependency(a, v1).expect("fresh graph");
    g.add_dependency(v1, v3).expect("fresh graph");
    g.add_dependency(a, b).expect("fresh graph");
    g.add_dependency(b, v3).expect("fresh graph");
    g.polarize().expect("polar");
    (g, (a, b), v3)
}

/// Fig. 10: the nine-vertex scheduling-trace example (reconstructed from
/// the paper's offset table, which it reproduces cell for cell — see the
/// `fig10` tests in `rsched-core`).
///
/// Returns the graph, the anchor `a`, and `[v1..v6]`.
pub fn fig10() -> (ConstraintGraph, VertexId, [VertexId; 6]) {
    let mut g = ConstraintGraph::new();
    let a = g.add_operation("a", ExecDelay::Unbounded);
    let v1 = g.add_operation("v1", ExecDelay::Fixed(1));
    let v2 = g.add_operation("v2", ExecDelay::Fixed(3));
    let v3 = g.add_operation("v3", ExecDelay::Fixed(1));
    let v4 = g.add_operation("v4", ExecDelay::Fixed(1));
    let v5 = g.add_operation("v5", ExecDelay::Fixed(1));
    let v6 = g.add_operation("v6", ExecDelay::Fixed(4));
    let s = g.source();
    g.add_dependency(s, a).expect("fresh graph");
    g.add_min_constraint(s, a, 1).expect("valid constraint");
    g.add_dependency(a, v1).expect("fresh graph");
    g.add_dependency(v1, v2).expect("fresh graph");
    g.add_min_constraint(v1, v3, 4).expect("valid constraint");
    g.add_min_constraint(v1, v4, 2).expect("valid constraint");
    g.add_min_constraint(s, v4, 4).expect("valid constraint");
    g.add_dependency(v4, v5).expect("fresh graph");
    g.add_dependency(s, v6).expect("fresh graph");
    g.add_min_constraint(s, v6, 8).expect("valid constraint");
    let sink = g.sink();
    g.add_dependency(v2, sink).expect("fresh graph");
    g.add_dependency(v3, sink).expect("fresh graph");
    g.add_dependency(v6, sink).expect("fresh graph");
    g.add_max_constraint(v2, v3, 1).expect("valid constraint");
    g.add_max_constraint(a, v6, 6).expect("valid constraint");
    g.add_max_constraint(v5, v6, 2).expect("valid constraint");
    g.polarize().expect("polar");
    (g, a, [v1, v2, v3, v4, v5, v6])
}

/// Fig. 12: an operation `v` gated by two anchors with offsets
/// `σ_a(v) = 2` and `σ_b(v) = 3` — the control-generation example.
///
/// Returns the graph, `(a, b)`, and `v`.
pub fn fig12() -> (ConstraintGraph, (VertexId, VertexId), VertexId) {
    let mut g = ConstraintGraph::new();
    let a = g.add_operation("a", ExecDelay::Unbounded);
    let b = g.add_operation("b", ExecDelay::Unbounded);
    let v = g.add_operation("v", ExecDelay::Fixed(1));
    g.add_min_constraint(a, v, 2).expect("valid constraint");
    g.add_min_constraint(b, v, 3).expect("valid constraint");
    g.polarize().expect("polar");
    (g, (a, b), v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_core::{check_well_posed, schedule};

    #[test]
    fn fig2_matches_table2() {
        let (g, a, [_, _, v3, v4]) = fig2();
        let omega = schedule(&g).unwrap();
        assert_eq!(omega.offset(v4, g.source()), Some(8));
        assert_eq!(omega.offset(v4, a), Some(5));
        assert_eq!(omega.offset(v3, g.source()), Some(3));
    }

    #[test]
    fn fig3_posedness() {
        let (ga, _, _) = fig3a();
        assert!(!check_well_posed(&ga).is_well_posed());
        let (gb, _, _) = fig3b();
        assert!(!check_well_posed(&gb).is_well_posed());
    }

    #[test]
    fn fig10_schedules_in_three_iterations() {
        let (g, _, _) = fig10();
        let omega = schedule(&g).unwrap();
        assert_eq!(omega.iterations(), 3);
        assert_eq!(omega.offset(g.sink(), g.source()), Some(12));
    }

    #[test]
    fn fig12_offsets() {
        let (g, (a, b), v) = fig12();
        let omega = schedule(&g).unwrap();
        assert_eq!(omega.offset(v, a), Some(2));
        assert_eq!(omega.offset(v, b), Some(3));
    }
}
