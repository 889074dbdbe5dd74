//! Resource-constrained list scheduling (the classical heuristic
//! baseline).
//!
//! The paper's introduction frames relative scheduling against the
//! mainstream: "scheduling under resource constraints … is an intractable
//! problem. For this reason, most high-level synthesis systems either
//! separate the two tasks or use heuristic approaches." This module
//! implements the textbook heuristic — priority-list scheduling with
//! resource limits — for fixed-delay graphs, both as a baseline to
//! compare against the binding-then-relative-scheduling flow and as a
//! quick latency estimator.
//!
//! Priorities are longest-path-to-sink (critical-path list scheduling).
//! Timing constraints are *checked* post hoc rather than enforced during
//! construction — heuristics offer no guarantee, which is exactly the
//! contrast with the exact flow (`bind` → `resolve_conflicts` →
//! `schedule`).

use std::collections::HashMap;

use rsched_core::ScheduleError;
use rsched_graph::{ConstraintGraph, ExecDelay, VertexId};

use crate::{BindError, ResourcePool};

/// The result of a list-scheduling run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListSchedule {
    /// Start cycle per vertex (dense by vertex index).
    pub start: Vec<u64>,
    /// Overall latency (sink start time).
    pub latency: u64,
    /// Timing-constraint edges violated by the heuristic result (empty
    /// means the heuristic happened to satisfy them).
    pub violated_constraints: usize,
}

impl ListSchedule {
    /// Start time of `v`.
    pub fn start_of(&self, v: VertexId) -> u64 {
        self.start[v.index()]
    }
}

/// Critical-path list scheduling of a fixed-delay graph under resource
/// limits.
///
/// `classes` maps operations to resource kinds; unclassified operations
/// use dedicated hardware (no limit). At each cycle, ready operations
/// (all forward predecessors finished) are started in priority order
/// while instances remain free; occupied instances free up when their
/// operation completes.
///
/// # Errors
///
/// * [`BindError::Schedule`] with
///   [`ScheduleError::UnboundedDelayUnsupported`] for graphs with
///   unbounded operations (list scheduling needs static delays);
/// * [`BindError::UnknownKind`] / [`BindError::NoInstances`] for pool
///   mismatches.
pub fn list_schedule(
    graph: &ConstraintGraph,
    classes: &HashMap<VertexId, String>,
    pool: &ResourcePool,
) -> Result<ListSchedule, BindError> {
    for v in graph.operation_ids() {
        if matches!(graph.vertex(v).delay(), ExecDelay::Unbounded) {
            return Err(BindError::Schedule(
                ScheduleError::UnboundedDelayUnsupported { vertex: v },
            ));
        }
    }
    for (v, kind) in classes {
        if !pool.has_kind(kind) {
            return Err(BindError::UnknownKind {
                vertex: *v,
                kind: kind.clone(),
            });
        }
        if pool.instances(kind) == 0 {
            return Err(BindError::NoInstances { kind: kind.clone() });
        }
    }

    // Priority: longest delay-weighted path to the sink over forward
    // edges (critical path first).
    let topo = graph.forward_topological_order();
    let n = graph.n_vertices();
    let mut priority = vec![0i64; n];
    for &v in topo.order().iter().rev() {
        let delay = graph.vertex(v).delay().zeroed() as i64;
        let best_succ = graph
            .forward_succs(v)
            .map(|s| priority[s.index()])
            .max()
            .unwrap_or(0);
        priority[v.index()] = delay + best_succ;
    }

    let mut start: Vec<Option<u64>> = vec![None; n];
    let mut finish: Vec<u64> = vec![0; n];
    let mut busy_until: HashMap<&str, Vec<u64>> = HashMap::new();
    for (kind, _) in classes.values().map(|k| (k.as_str(), ())) {
        busy_until
            .entry(kind)
            .or_insert_with(|| vec![0; pool.instances(kind)]);
    }

    let mut cycle = 0u64;
    let mut remaining: usize = n;
    let horizon = 4
        * (1 + graph
            .vertex_ids()
            .map(|v| graph.vertex(v).delay().zeroed())
            .sum::<u64>());
    while remaining > 0 && cycle <= horizon {
        // Zero-delay completions unlock successors within the same cycle:
        // iterate to a fixpoint per cycle.
        loop {
            let mut progressed = false;
            // Ready: unstarted, all forward preds finished by `cycle`.
            let mut ready: Vec<VertexId> = graph
                .vertex_ids()
                .filter(|&v| {
                    start[v.index()].is_none()
                        && graph
                            .forward_preds(v)
                            .all(|p| start[p.index()].is_some_and(|_| finish[p.index()] <= cycle))
                })
                .collect();
            ready.sort_by_key(|&v| (-priority[v.index()], v));
            for v in ready {
                let can_start = match classes.get(&v) {
                    None => true,
                    Some(kind) => {
                        let units = busy_until.get_mut(kind.as_str()).expect("validated");
                        if let Some(slot) = units.iter_mut().find(|u| **u <= cycle) {
                            *slot = cycle + graph.vertex(v).delay().zeroed().max(1);
                            true
                        } else {
                            false
                        }
                    }
                };
                if can_start {
                    start[v.index()] = Some(cycle);
                    finish[v.index()] = cycle + graph.vertex(v).delay().zeroed();
                    remaining -= 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        cycle += 1;
    }
    let start: Vec<u64> = start.into_iter().map(|s| s.unwrap_or(0)).collect();

    // Post-hoc timing-constraint check (heuristics guarantee nothing).
    let mut violated = 0;
    for (_, e) in graph.edges() {
        if e.kind() == rsched_graph::EdgeKind::Sequencing {
            continue;
        }
        let w = e.weight().zeroed();
        if (start[e.to().index()] as i64) < start[e.from().index()] as i64 + w {
            violated += 1;
        }
    }
    let latency = start[graph.sink().index()];
    Ok(ListSchedule {
        start,
        latency,
        violated_constraints: violated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_graph::ExecDelay;

    fn classed(pairs: &[(VertexId, &str)]) -> HashMap<VertexId, String> {
        pairs.iter().map(|&(v, k)| (v, k.to_owned())).collect()
    }

    #[test]
    fn unlimited_resources_give_asap() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(2));
        let b = g.add_operation("b", ExecDelay::Fixed(3));
        let c = g.add_operation("c", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap();
        g.add_dependency(a, c).unwrap();
        g.polarize().unwrap();
        let ls = list_schedule(&g, &HashMap::new(), &ResourcePool::new()).unwrap();
        assert_eq!(ls.start_of(a), 0);
        assert_eq!(ls.start_of(b), 2);
        assert_eq!(ls.start_of(c), 2);
        assert_eq!(ls.latency, 5);
        assert_eq!(ls.violated_constraints, 0);
    }

    #[test]
    fn one_adder_serializes_parallel_adds() {
        let mut g = ConstraintGraph::new();
        let adds: Vec<VertexId> = (0..3)
            .map(|i| g.add_operation(format!("add{i}"), ExecDelay::Fixed(2)))
            .collect();
        g.polarize().unwrap();
        let classes = classed(&[(adds[0], "add"), (adds[1], "add"), (adds[2], "add")]);
        let pool = ResourcePool::new().with_kind("add", 1);
        let ls = list_schedule(&g, &classes, &pool).unwrap();
        let mut starts: Vec<u64> = adds.iter().map(|&v| ls.start_of(v)).collect();
        starts.sort_unstable();
        assert_eq!(starts, vec![0, 2, 4], "serialized on the single adder");
        assert_eq!(ls.latency, 6);

        // Two adders: two run in parallel.
        let pool = ResourcePool::new().with_kind("add", 2);
        let ls = list_schedule(&g, &classes, &pool).unwrap();
        assert_eq!(ls.latency, 4);
    }

    #[test]
    fn critical_path_prioritized() {
        // Long chain vs short op competing for one unit: the chain head
        // must win the first slot or latency suffers.
        let mut g = ConstraintGraph::new();
        let head = g.add_operation("head", ExecDelay::Fixed(1));
        let tail = g.add_operation("tail", ExecDelay::Fixed(5));
        let cheap = g.add_operation("cheap", ExecDelay::Fixed(1));
        g.add_dependency(head, tail).unwrap();
        g.polarize().unwrap();
        let classes = classed(&[(head, "alu"), (cheap, "alu")]);
        let pool = ResourcePool::new().with_kind("alu", 1);
        let ls = list_schedule(&g, &classes, &pool).unwrap();
        assert_eq!(ls.start_of(head), 0, "critical chain scheduled first");
        assert_eq!(ls.latency, 6);
    }

    #[test]
    fn heuristic_reports_constraint_violations() {
        // A max constraint the resource serialization inevitably breaks.
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(4));
        let b = g.add_operation("b", ExecDelay::Fixed(4));
        g.add_max_constraint(a, b, 2).unwrap(); // b within 2 of a
        g.polarize().unwrap();
        let classes = classed(&[(a, "mul"), (b, "mul")]);
        let pool = ResourcePool::new().with_kind("mul", 1);
        let ls = list_schedule(&g, &classes, &pool).unwrap();
        assert!(
            ls.violated_constraints > 0,
            "one multiplier forces a 4-cycle gap > 2"
        );
    }

    #[test]
    fn unbounded_graphs_rejected() {
        let mut g = ConstraintGraph::new();
        g.add_operation("wait", ExecDelay::Unbounded);
        g.polarize().unwrap();
        let err = list_schedule(&g, &HashMap::new(), &ResourcePool::new()).unwrap_err();
        assert!(matches!(
            err,
            BindError::Schedule(ScheduleError::UnboundedDelayUnsupported { .. })
        ));
    }

    #[test]
    fn missing_resources_rejected() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(1));
        g.polarize().unwrap();
        let classes = classed(&[(a, "fpu")]);
        assert!(list_schedule(&g, &classes, &ResourcePool::new()).is_err());
    }
}
