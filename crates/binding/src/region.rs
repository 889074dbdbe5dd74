//! Critical-region re-serialization for the feedback-guided optimize loop.
//!
//! The optimize loop (DESIGN.md §15) extracts the critical subgraph from
//! the slack analysis and asks this module for a *proposal*: serialization
//! edges that squeeze the region onto a bounded resource pool. Following
//! the subgraph-extraction HLS pattern, the region is lifted into a free-
//! standing *cone* graph (same ops, same delays, orderings inherited from
//! the host graph's forward reachability), list-scheduled under the pool,
//! and each shared instance's occupants are chained in start-time order.
//!
//! The cone deliberately carries only precedence — no timing constraints.
//! The proposal is advisory: the caller applies the edges through the
//! incremental [`Session`](../rsched_engine) warm path and accepts or
//! reverts against the *real* graph, where feasibility and well-posedness
//! (Lemma 7: serialization edges extend anchor sets, never shrink them)
//! are re-proven by the scheduler itself.

use std::collections::HashMap;

use rsched_graph::{ConstraintGraph, ExecDelay, VertexId};

use crate::{bind, list_schedule, BindError, ResourcePool};

/// A re-serialization proposal for one critical region.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionPlan {
    /// Proposed serialization edges, as (from, to) vertex ids of the
    /// *host* graph, in deterministic (instance, start-time) order. Every
    /// pair is unordered in the host graph at proposal time, so each edge
    /// is irredundant when added.
    pub edges: Vec<(VertexId, VertexId)>,
    /// Operations in the extracted cone.
    pub cone_ops: usize,
    /// Resource-constrained latency of the cone under the pool (list
    /// schedule sink start) — a lower-bound preview of the serialized
    /// region's span.
    pub cone_latency: u64,
}

impl RegionPlan {
    /// `true` when the plan proposes no new edges (the region already
    /// fits the pool, or has fewer than two ops per instance).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// Proposes serialization edges that fit `region` onto `pool`.
///
/// `region` names host-graph operations (source/sink and unbounded or
/// unclassified ops are skipped); `classes` maps them to resource kinds.
/// The region is lifted into a cone graph preserving pairwise forward
/// reachability, bound with [`bind`] and list-scheduled with
/// [`list_schedule`]; operations sharing an instance are chained in
/// (start cycle, id) order. Edges already ordered in the host graph are
/// dropped from the proposal, so every returned edge is a genuinely new
/// constraint.
///
/// Deterministic: identical inputs produce identical plans (the cone is
/// built in sorted id order and every tie breaks on vertex id).
///
/// # Errors
///
/// Propagates [`BindError`] from binding or list scheduling (unknown
/// kind, zero instances, structural failures).
pub fn serialize_region(
    graph: &ConstraintGraph,
    region: &[VertexId],
    classes: &HashMap<VertexId, String>,
    pool: &ResourcePool,
) -> Result<RegionPlan, BindError> {
    // Cone membership: classified fixed-delay operations, sorted + deduped
    // so the lift is insertion-order independent.
    let mut cone: Vec<VertexId> = region
        .iter()
        .copied()
        .filter(|&v| {
            v != graph.source()
                && v != graph.sink()
                && classes.contains_key(&v)
                && matches!(graph.vertex(v).delay(), ExecDelay::Fixed(_))
        })
        .collect();
    cone.sort();
    cone.dedup();
    if cone.len() < 2 {
        return Ok(RegionPlan::default());
    }

    // Lift: same names and delays; an edge per host-ordered pair so the
    // cone's precedence is exactly the host's restriction to the region.
    let mut lifted = ConstraintGraph::new();
    let mut to_host: HashMap<VertexId, VertexId> = HashMap::new();
    let mut to_cone: HashMap<VertexId, VertexId> = HashMap::new();
    for &v in &cone {
        let c = lifted.add_operation(graph.vertex(v).name(), graph.vertex(v).delay());
        to_host.insert(c, v);
        to_cone.insert(v, c);
    }
    for &a in &cone {
        for &b in &cone {
            if a != b && graph.has_forward_path(a, b) {
                lifted
                    .add_dependency(to_cone[&a], to_cone[&b])
                    .map_err(BindError::Graph)?;
            }
        }
    }
    lifted.polarize().map_err(BindError::Graph)?;

    let cone_classes: HashMap<VertexId, String> = cone
        .iter()
        .map(|v| (to_cone[v], classes[v].clone()))
        .collect();
    let binding = bind(&lifted, &cone_classes, pool)?;
    let ls = list_schedule(&lifted, &cone_classes, pool)?;

    // Chain each instance's occupants in (start, id) order; skip pairs the
    // host graph already orders so the proposal stays irredundant.
    let mut groups: Vec<_> = binding.by_instance().into_iter().collect();
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    let mut edges = Vec::new();
    for (_, mut ops) in groups {
        ops.sort_by_key(|&v| (ls.start_of(v), v));
        for pair in ops.windows(2) {
            let (from, to) = (to_host[&pair[0]], to_host[&pair[1]]);
            if !graph.has_forward_path(from, to) && !graph.has_forward_path(to, from) {
                edges.push((from, to));
            }
        }
    }
    Ok(RegionPlan {
        edges,
        cone_ops: cone.len(),
        cone_latency: ls.latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_core::{check_well_posed, schedule, WellPosedness};

    /// `width` parallel fixed-delay ops between a fork and a join, all in
    /// one resource class.
    fn fan_graph(width: usize, delay: u64) -> (ConstraintGraph, Vec<VertexId>) {
        let mut g = ConstraintGraph::new();
        let fork = g.add_operation("fork", ExecDelay::Fixed(0));
        let join = g.add_operation("join", ExecDelay::Fixed(0));
        let mut ops = Vec::new();
        for i in 0..width {
            let v = g.add_operation(format!("op{i}"), ExecDelay::Fixed(delay));
            g.add_dependency(fork, v).unwrap();
            g.add_dependency(v, join).unwrap();
            ops.push(v);
        }
        g.polarize().unwrap();
        (g, ops)
    }

    fn classes_of(ops: &[VertexId], kind: &str) -> HashMap<VertexId, String> {
        ops.iter().map(|&v| (v, kind.to_owned())).collect()
    }

    #[test]
    fn chains_concurrent_ops_onto_one_instance() {
        let (g, ops) = fan_graph(4, 2);
        let pool = ResourcePool::new().with_kind("alu", 1);
        let plan = serialize_region(&g, &ops, &classes_of(&ops, "alu"), &pool).unwrap();
        // One instance, four occupants: a 3-edge chain; the cone spans
        // 4 back-to-back 2-cycle ops.
        assert_eq!(plan.cone_ops, 4);
        assert_eq!(plan.edges.len(), 3);
        assert_eq!(plan.cone_latency, 8);
    }

    #[test]
    fn respects_wider_budgets() {
        let (g, ops) = fan_graph(4, 2);
        let pool = ResourcePool::new().with_kind("alu", 2);
        let plan = serialize_region(&g, &ops, &classes_of(&ops, "alu"), &pool).unwrap();
        // Two instances of two ops each: one chain edge per instance, and
        // the cone halves its span vs. the one-instance plan.
        assert_eq!(plan.edges.len(), 2);
        assert_eq!(plan.cone_latency, 4);
        // Budget at (or above) the region width proposes nothing.
        let wide = ResourcePool::new().with_kind("alu", 4);
        let plan = serialize_region(&g, &ops, &classes_of(&ops, "alu"), &wide).unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn applied_edges_keep_graph_well_posed_and_schedulable() {
        // Lemma 7 interplay: serialization edges extend anchor sets
        // monotonically, so a well-posed host stays well-posed — including
        // in the presence of anchors and max constraints elsewhere.
        let (mut g, ops) = fan_graph(3, 1);
        let w = g.add_operation("wait", ExecDelay::Unbounded);
        let tail = g.add_operation("tail", ExecDelay::Fixed(1));
        let tail2 = g.add_operation("tail2", ExecDelay::Fixed(1));
        g.add_dependency(ops[0], w).unwrap();
        g.add_dependency(w, tail).unwrap();
        g.add_dependency(tail, tail2).unwrap();
        g.add_max_constraint(tail, tail2, 5).unwrap();
        g.polarize().unwrap();
        assert!(matches!(check_well_posed(&g), WellPosedness::WellPosed));

        let pool = ResourcePool::new().with_kind("alu", 1);
        let plan = serialize_region(&g, &ops, &classes_of(&ops, "alu"), &pool).unwrap();
        assert!(!plan.is_empty());
        for &(from, to) in &plan.edges {
            // Irredundant at proposal time: the host does not order the pair.
            assert!(!g.has_forward_path(from, to));
            assert!(!g.has_forward_path(to, from));
            g.add_dependency(from, to).unwrap();
        }
        assert!(matches!(check_well_posed(&g), WellPosedness::WellPosed));
        schedule(&g).expect("serialized graph still schedules");
    }

    #[test]
    fn deterministic_across_runs_and_region_order() {
        let (g, ops) = fan_graph(5, 3);
        let pool = ResourcePool::new().with_kind("alu", 2);
        let classes = classes_of(&ops, "alu");
        let a = serialize_region(&g, &ops, &classes, &pool).unwrap();
        let b = serialize_region(&g, &ops, &classes, &pool).unwrap();
        assert_eq!(a, b);
        // Region membership is a set: permuting (and duplicating) the
        // slice changes nothing.
        let mut shuffled: Vec<VertexId> = ops.iter().rev().copied().collect();
        shuffled.push(ops[2]);
        let c = serialize_region(&g, &shuffled, &classes, &pool).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn skips_unbounded_and_unclassified_ops() {
        let (mut g, mut ops) = fan_graph(2, 1);
        let w = g.add_operation("wait", ExecDelay::Unbounded);
        g.polarize().unwrap();
        ops.push(w); // unbounded: must be filtered out, not error
        let mut classes = classes_of(&ops, "alu");
        classes.remove(&ops[0]); // unclassified: dedicated hardware
        let pool = ResourcePool::new().with_kind("alu", 1);
        let plan = serialize_region(&g, &ops, &classes, &pool).unwrap();
        // Only op1 survives the filter — nothing to serialize.
        assert!(plan.is_empty());
        assert_eq!(plan.cone_ops, 0);
    }
}
