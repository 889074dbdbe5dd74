//! Relative slack (mobility) analysis.
//!
//! The minimum relative schedule is the ASAP solution (Definition 5). Its
//! dual — the latest start offsets that keep every dependency and timing
//! constraint satisfied without extending any anchor's makespan — gives
//! each `(vertex, anchor)` pair a *slack*: how far the operation can slide
//! relative to that anchor. Zero-slack pairs form the relative critical
//! paths; downstream tools use slack for binding decisions (sliding
//! operations onto shared resources) and for the control-simplification
//! serializations §VI alludes to.
//!
//! For each anchor `a` the ALAP offset is
//! `σ^alap_a(v) = σ^min_a(sink) - length_cone(v, sink)`, where
//! `length_cone` is the longest weighted path within `a`'s anchored cone
//! (all edge kinds, unbounded weights at 0). Path composability makes the
//! ALAP set satisfy every edge inequality, and the sink keeps its minimum
//! offset, so no makespan grows.

use rsched_graph::{ConstraintGraph, VertexId};

use crate::anchors::AnchorSets;
use crate::error::ScheduleError;
use crate::schedule::RelativeSchedule;

/// The ASAP/ALAP offsets and slack per `(vertex, anchor)` pair.
#[derive(Debug, Clone)]
pub struct SlackAnalysis {
    anchors: Vec<VertexId>,
    n_anchors: usize,
    /// Dense `|V| × |A|`; `None` where untracked.
    asap: Vec<Option<i64>>,
    alap: Vec<Option<i64>>,
}

impl SlackAnalysis {
    fn idx(&self, v: VertexId, ai: usize) -> usize {
        v.index() * self.n_anchors + ai
    }

    fn anchor_index(&self, a: VertexId) -> Option<usize> {
        self.anchors.iter().position(|&x| x == a)
    }

    /// The minimum (ASAP) offset `σ^min_a(v)`.
    pub fn asap(&self, v: VertexId, a: VertexId) -> Option<i64> {
        let ai = self.anchor_index(a)?;
        self.asap[self.idx(v, ai)]
    }

    /// The maximum (ALAP) offset `σ^alap_a(v)` under the minimum makespan.
    pub fn alap(&self, v: VertexId, a: VertexId) -> Option<i64> {
        let ai = self.anchor_index(a)?;
        self.alap[self.idx(v, ai)]
    }

    /// `σ^alap - σ^min ≥ 0`: the mobility of `v` relative to `a`.
    pub fn slack(&self, v: VertexId, a: VertexId) -> Option<i64> {
        Some(self.alap(v, a)? - self.asap(v, a)?)
    }

    /// `true` if some anchor pins `v` (zero slack on any tracked pair).
    pub fn is_critical(&self, v: VertexId) -> bool {
        self.anchors.iter().any(|&a| self.slack(v, a) == Some(0))
    }

    /// All vertices with zero slack relative to at least one anchor — the
    /// union of the relative critical paths.
    pub fn critical_vertices(&self, graph: &ConstraintGraph) -> Vec<VertexId> {
        graph
            .vertex_ids()
            .filter(|&v| self.is_critical(v))
            .collect()
    }

    /// The anchors analyzed.
    pub fn anchors(&self) -> &[VertexId] {
        &self.anchors
    }
}

/// Computes relative slack for every `(vertex, anchor)` pair of the
/// minimum relative schedule.
///
/// # Errors
///
/// Returns [`ScheduleError::Unfeasible`] when longest paths diverge
/// (positive cycle).
pub fn relative_slack(
    graph: &ConstraintGraph,
    schedule: &RelativeSchedule,
) -> Result<SlackAnalysis, ScheduleError> {
    let Ok(sets) = AnchorSets::compute(graph);
    let anchors: Vec<VertexId> = sets.anchors().to_vec();
    let n_anchors = anchors.len();
    let n = graph.n_vertices();
    let mut asap = vec![None; n * n_anchors];
    let mut alap = vec![None; n * n_anchors];
    let sink = graph.sink();

    for (ai, &a) in anchors.iter().enumerate() {
        let in_cone = |v: VertexId| v == a || sets.contains(v, a);
        // Longest path v -> sink within the cone (reverse relaxation).
        let mut dist: Vec<Option<i64>> = vec![None; n];
        dist[sink.index()] = Some(0);
        let mut rounds = 0usize;
        let mut changed = true;
        while changed {
            changed = false;
            for (_, e) in graph.edges() {
                if !in_cone(e.from()) || !in_cone(e.to()) || e.to() == a {
                    continue;
                }
                let Some(dh) = dist[e.to().index()] else {
                    continue;
                };
                let cand = dh + e.weight().zeroed();
                if dist[e.from().index()].is_none_or(|d| cand > d) {
                    dist[e.from().index()] = Some(cand);
                    changed = true;
                }
            }
            rounds += 1;
            if changed && rounds > n {
                return Err(ScheduleError::Unfeasible { witness: a });
            }
        }
        let makespan = schedule.offset(sink, a).unwrap_or(0);
        for v in graph.vertex_ids() {
            if v == a || !sets.contains(v, a) {
                continue;
            }
            let Some(min_off) = schedule.offset(v, a) else {
                continue;
            };
            asap[v.index() * n_anchors + ai] = Some(min_off);
            if let Some(to_sink) = dist[v.index()] {
                alap[v.index() * n_anchors + ai] = Some(makespan - to_sink);
            } else {
                // No path to the sink inside the cone (cannot happen in a
                // polar graph); pin at ASAP.
                alap[v.index() * n_anchors + ai] = Some(min_off);
            }
        }
    }
    Ok(SlackAnalysis {
        anchors,
        n_anchors,
        asap,
        alap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig2;
    use crate::schedule::schedule;

    #[test]
    fn fig2_slack_values() {
        let (g, a, [v1, v2, v3, v4]) = fig2();
        let omega = schedule(&g).unwrap();
        let slack = relative_slack(&g, &omega).unwrap();
        let s = g.source();
        // Critical path to the sink (offset 9 via v3 -> v4): v3, v4 pinned.
        assert_eq!(slack.slack(v4, s), Some(0));
        assert_eq!(slack.slack(v3, s), Some(0));
        assert_eq!(slack.slack(v4, a), Some(0));
        // v1 -> v2 -> v4 path: length(v1, sink) = 2 + 1 + 1 = 4,
        // alap(v1) = 9 - 4 = 5.
        assert_eq!(slack.asap(v1, s), Some(0));
        assert_eq!(slack.alap(v1, s), Some(5));
        assert_eq!(slack.slack(v1, s), Some(5));
        assert_eq!(slack.slack(v2, s), Some(5));
        assert!(slack.is_critical(v3));
        assert!(!slack.is_critical(v1));
        let critical = slack.critical_vertices(&g);
        assert!(critical.contains(&v3) && critical.contains(&v4));
    }

    /// ALAP offsets satisfy every edge inequality (they form a valid,
    /// makespan-preserving relative schedule).
    #[test]
    fn alap_offsets_are_a_valid_schedule() {
        let (g, _, _) = crate::fixtures::fig10();
        let omega = schedule(&g).unwrap();
        let slack = relative_slack(&g, &omega).unwrap();
        for (_, e) in g.edges() {
            let w = e.weight().zeroed();
            for &a in slack.anchors() {
                if let (Some(at), Some(ah)) = (slack.alap(e.from(), a), slack.alap(e.to(), a)) {
                    assert!(
                        ah >= at + w,
                        "ALAP violates {} -> {} (w {w}) for anchor {a}: {at} -> {ah}",
                        e.from(),
                        e.to()
                    );
                }
            }
        }
        // The sink keeps its minimum offsets: the makespan is unchanged.
        for &a in slack.anchors() {
            if let Some(s) = slack.slack(g.sink(), a) {
                assert_eq!(s, 0, "sink slack w.r.t. {a}");
            }
        }
    }

    #[test]
    fn slack_nonnegative_everywhere() {
        let (g, _, _) = crate::fixtures::fig10();
        let omega = schedule(&g).unwrap();
        let slack = relative_slack(&g, &omega).unwrap();
        for v in g.vertex_ids() {
            for &a in slack.anchors() {
                if let Some(s) = slack.slack(v, a) {
                    assert!(s >= 0, "negative slack at ({v}, {a})");
                }
            }
        }
    }
}
