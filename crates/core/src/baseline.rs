//! Baseline schedulers the paper compares against or generalizes.
//!
//! * [`schedule_by_decomposition`] — the naive alternative §IV names before
//!   introducing iterative incremental scheduling: "the relative schedule
//!   can be computed by decomposing the constraint graph into a set of
//!   subgraphs for each anchor of the graph. Each subgraph could then be
//!   scheduled independently." One Bellman–Ford longest-path run per
//!   anchor. Produces the same minimum relative schedule (Theorem 3); used
//!   as correctness oracle and performance baseline.
//! * [`asap`] / [`alap`] — the traditional fixed-delay formulation of
//!   Definition 1 that relative scheduling reduces to when no unbounded
//!   operations exist.

use rsched_graph::{ConstraintGraph, ExecDelay, VertexId};

use crate::anchors::AnchorSets;
use crate::error::ScheduleError;
use crate::schedule::RelativeSchedule;

/// Computes the minimum relative schedule by per-anchor decomposition.
///
/// For each anchor `a`, runs a Bellman–Ford longest-path relaxation from
/// `a` over the subgraph induced by `{a} ∪ {v | a ∈ A(v)}` (the vertices
/// whose activation waits on `a`), with unbounded weights at 0. The offset
/// `σ_a(v)` is the resulting path length — by Theorem 3 this is exactly
/// the minimum relative schedule, so this function and
/// [`schedule`](crate::schedule) must agree (a property the test-suite
/// exercises on random graphs).
///
/// Complexity `O(|A| · |V| · |E|)`, versus the iterative incremental
/// scheduler's `O((|E_b| + 1) · |A| · |E|)`; the two coincide only when
/// `|E_b| ≈ |V|`.
///
/// # Errors
///
/// [`ScheduleError::Inconsistent`] if any per-anchor relaxation diverges
/// (positive cycle).
pub fn schedule_by_decomposition(
    graph: &ConstraintGraph,
) -> Result<RelativeSchedule, ScheduleError> {
    let Ok(sets) = AnchorSets::compute(graph);
    schedule_by_decomposition_with(graph, &sets)
}

/// [`schedule_by_decomposition`] against precomputed anchor sets.
///
/// # Errors
///
/// Same conditions as [`schedule_by_decomposition`].
pub fn schedule_by_decomposition_with(
    graph: &ConstraintGraph,
    sets: &AnchorSets,
) -> Result<RelativeSchedule, ScheduleError> {
    let mut omega = RelativeSchedule::zeroed(sets.family().clone());
    let n = graph.n_vertices();
    for (ai, &a) in sets.anchors().iter().enumerate() {
        // Membership test: v is in the subgraph iff it tracks `a` (or is
        // `a` itself, the relaxation source with distance 0).
        let in_sub = |v: VertexId| v == a || sets.contains(v, a);
        let mut dist: Vec<Option<i64>> = vec![None; n];
        dist[a.index()] = Some(0);
        let mut rounds = 0usize;
        let mut changed = true;
        while changed {
            changed = false;
            for (_, e) in graph.edges() {
                if !in_sub(e.from()) || !in_sub(e.to()) || e.to() == a {
                    continue;
                }
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
            if changed && rounds > n {
                return Err(ScheduleError::Inconsistent {
                    iterations: graph.n_backward_edges() + 1,
                });
            }
        }
        for v in graph.vertex_ids() {
            if v != a && sets.contains(v, a) {
                // Unreached tracked vertices keep offset 0 (matches the
                // incremental scheduler's initialization).
                if let Some(d) = dist[v.index()] {
                    omega.set_offset_raw(v, ai, d.max(0));
                }
            }
        }
    }
    Ok(omega)
}

/// Classical minimum (ASAP) schedule for fixed-delay graphs
/// (Definition 1): `σ(v) = length(v0, v)` with all constraints honored.
///
/// # Errors
///
/// * [`ScheduleError::UnboundedDelayUnsupported`] if any operation besides
///   the source has unbounded delay — use relative scheduling instead;
/// * [`ScheduleError::Unfeasible`] for positive cycles.
pub fn asap(graph: &ConstraintGraph) -> Result<Vec<i64>, ScheduleError> {
    require_fixed(graph)?;
    let lp = graph.longest_paths_from(graph.source())?;
    Ok(graph
        .vertex_ids()
        .map(|v| lp.length_to(v).unwrap_or(0))
        .collect())
}

/// Classical maximum (ALAP) schedule against a sink deadline: the latest
/// start times such that every constraint still holds and the sink starts
/// no later than `deadline`.
///
/// `σ_alap(v) = deadline - length(v, sink)`; vertices with no path to the
/// sink in the full graph are pinned at their ASAP time.
///
/// # Errors
///
/// Same conditions as [`asap`], plus [`ScheduleError::Inconsistent`] if
/// the deadline is tighter than the critical path (some ALAP time falls
/// below the ASAP time).
pub fn alap(graph: &ConstraintGraph, deadline: i64) -> Result<Vec<i64>, ScheduleError> {
    let asap_times = asap(graph)?;
    let sink = graph.sink();
    let mut out = asap_times.clone();
    for v in graph.vertex_ids() {
        let lp = graph.longest_paths_from(v)?;
        if let Some(to_sink) = lp.length_to(sink) {
            out[v.index()] = deadline - to_sink;
        }
    }
    for v in graph.vertex_ids() {
        if out[v.index()] < asap_times[v.index()] {
            return Err(ScheduleError::Inconsistent {
                iterations: graph.n_backward_edges() + 1,
            });
        }
    }
    Ok(out)
}

fn require_fixed(graph: &ConstraintGraph) -> Result<(), ScheduleError> {
    for v in graph.operation_ids() {
        if matches!(graph.vertex(v).delay(), ExecDelay::Unbounded) {
            return Err(ScheduleError::UnboundedDelayUnsupported { vertex: v });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig2;
    use crate::schedule::schedule;
    use rsched_graph::ExecDelay;

    #[test]
    fn decomposition_matches_incremental_on_fig2() {
        let (g, _, _) = fig2();
        let fast = schedule(&g).unwrap();
        let slow = schedule_by_decomposition(&g).unwrap();
        for v in g.vertex_ids() {
            for &a in fast.anchors() {
                assert_eq!(fast.offset(v, a), slow.offset(v, a), "σ_{a}({v})");
            }
        }
    }

    #[test]
    fn decomposition_matches_incremental_on_fig10() {
        let (g, _, _) = crate::fixtures::fig10();
        let fast = schedule(&g).unwrap();
        let slow = schedule_by_decomposition(&g).unwrap();
        for v in g.vertex_ids() {
            for &a in fast.anchors() {
                assert_eq!(fast.offset(v, a), slow.offset(v, a), "σ_{a}({v})");
            }
        }
    }

    #[test]
    fn decomposition_detects_inconsistency() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(4));
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap();
        g.add_max_constraint(a, b, 2).unwrap();
        g.polarize().unwrap();
        assert!(matches!(
            schedule_by_decomposition(&g),
            Err(ScheduleError::Inconsistent { .. })
        ));
    }

    #[test]
    fn asap_on_fixed_graph() {
        let mut g = ConstraintGraph::new();
        let x = g.add_operation("x", ExecDelay::Fixed(2));
        let y = g.add_operation("y", ExecDelay::Fixed(3));
        g.add_dependency(x, y).unwrap();
        g.add_min_constraint(x, y, 4).unwrap();
        g.polarize().unwrap();
        let times = asap(&g).unwrap();
        assert_eq!(times[x.index()], 0);
        assert_eq!(times[y.index()], 4); // min constraint dominates δ(x)=2
        assert_eq!(times[g.sink().index()], 7);
    }

    #[test]
    fn asap_rejects_unbounded() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Unbounded);
        g.polarize().unwrap();
        assert_eq!(
            asap(&g),
            Err(ScheduleError::UnboundedDelayUnsupported { vertex: a })
        );
    }

    #[test]
    fn alap_respects_deadline_and_constraints() {
        let mut g = ConstraintGraph::new();
        let x = g.add_operation("x", ExecDelay::Fixed(2));
        let y = g.add_operation("y", ExecDelay::Fixed(3));
        let z = g.add_operation("z", ExecDelay::Fixed(1));
        g.add_dependency(x, y).unwrap();
        g.add_dependency(x, z).unwrap();
        g.polarize().unwrap();
        // Critical path: 2 + 3 = 5 through y.
        let al = alap(&g, 10).unwrap();
        assert_eq!(al[g.sink().index()], 10);
        assert_eq!(al[y.index()], 7);
        assert_eq!(al[z.index()], 9);
        assert_eq!(al[x.index()], 5);
        // A deadline under the critical path is infeasible.
        assert!(matches!(
            alap(&g, 4),
            Err(ScheduleError::Inconsistent { .. })
        ));
    }

    #[test]
    fn alap_equals_asap_at_critical_deadline_on_critical_path() {
        let mut g = ConstraintGraph::new();
        let x = g.add_operation("x", ExecDelay::Fixed(2));
        let y = g.add_operation("y", ExecDelay::Fixed(3));
        g.add_dependency(x, y).unwrap();
        g.polarize().unwrap();
        let asap_times = asap(&g).unwrap();
        let alap_times = alap(&g, 5).unwrap();
        assert_eq!(asap_times, alap_times, "zero slack on a pure chain");
    }
}
