//! Lowering of one sequencing graph to a flat constraint graph.
//!
//! Hierarchy vertices collapse to single operations whose execution delay
//! summarizes the child graph: loops and synchronizations are unbounded,
//! calls inherit the callee's latency, conditionals take the maximum
//! branch latency when all branches are fixed (shorter branches padded, as
//! in Hercules) and are unbounded otherwise.

use rsched_graph::{ConstraintGraph, ExecDelay, VertexId};

use crate::error::SgraphError;
use crate::model::{OpKind, SeqGraph};

/// A sequencing graph lowered to a constraint graph, with the operation →
/// vertex correspondence.
#[derive(Debug, Clone)]
pub struct LoweredGraph {
    /// The flat polar constraint graph.
    pub graph: ConstraintGraph,
    /// Vertex of each operation, indexed by [`OpId::index`](crate::OpId::index).
    pub op_vertices: Vec<VertexId>,
}

/// Lowers `seq` to a constraint graph. `child_latencies` maps every graph
/// of the design (by index) to its computed latency; only the entries for
/// graphs referenced by `seq` are read.
///
/// # Errors
///
/// Returns [`SgraphError::Lowering`] when the dependencies are cyclic or a
/// timing constraint is structurally invalid, and
/// [`SgraphError::UnknownGraph`] for dangling child references.
pub fn lower_graph(
    seq: &SeqGraph,
    child_latencies: &[ExecDelay],
) -> Result<LoweredGraph, SgraphError> {
    let mut graph = ConstraintGraph::new();
    let mut op_vertices = Vec::with_capacity(seq.n_ops());
    for op in seq.ops() {
        let delay = op_delay(op.kind(), child_latencies)?;
        op_vertices.push(graph.add_operation(op.name(), delay));
    }
    let wrap = |source: rsched_graph::GraphError| SgraphError::Lowering {
        graph: seq.name().to_owned(),
        source,
    };
    for &(from, to) in seq.dependencies() {
        graph
            .add_dependency(op_vertices[from.index()], op_vertices[to.index()])
            .map_err(wrap)?;
    }
    for c in seq.min_constraints() {
        graph
            .add_min_constraint(
                op_vertices[c.from.index()],
                op_vertices[c.to.index()],
                c.cycles,
            )
            .map_err(wrap)?;
    }
    for c in seq.max_constraints() {
        graph
            .add_max_constraint(
                op_vertices[c.from.index()],
                op_vertices[c.to.index()],
                c.cycles,
            )
            .map_err(wrap)?;
    }
    graph.polarize().map_err(wrap)?;
    Ok(LoweredGraph { graph, op_vertices })
}

fn op_delay(kind: &OpKind, child_latencies: &[ExecDelay]) -> Result<ExecDelay, SgraphError> {
    Ok(match kind {
        OpKind::Fixed { delay } => ExecDelay::Fixed(*delay),
        OpKind::Read { .. } | OpKind::Write { .. } => ExecDelay::Fixed(1),
        OpKind::Wait { .. } => ExecDelay::Unbounded,
        OpKind::Loop { .. } => ExecDelay::Unbounded,
        OpKind::Call { callee } => *child_latencies
            .get(callee.index())
            .ok_or(SgraphError::UnknownGraph(*callee))?,
        OpKind::Cond { branches } => {
            let mut max = 0u64;
            for b in branches {
                match child_latencies.get(b.index()) {
                    Some(ExecDelay::Fixed(l)) => max = max.max(*l),
                    Some(ExecDelay::Unbounded) => return Ok(ExecDelay::Unbounded),
                    None => return Err(SgraphError::UnknownGraph(*b)),
                }
            }
            ExecDelay::Fixed(max)
        }
        OpKind::NoOp => ExecDelay::Fixed(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::SeqGraphId;
    use crate::model::OpKind;

    #[test]
    fn delays_follow_op_kinds() {
        let latencies = vec![ExecDelay::Fixed(5), ExecDelay::Unbounded];
        let g0 = SeqGraphId::from_index(0);
        let g1 = SeqGraphId::from_index(1);
        assert_eq!(
            op_delay(&OpKind::fixed(3), &latencies).unwrap(),
            ExecDelay::Fixed(3)
        );
        assert_eq!(
            op_delay(&OpKind::Read { port: "p".into() }, &latencies).unwrap(),
            ExecDelay::Fixed(1)
        );
        assert_eq!(
            op_delay(&OpKind::Wait { signal: "s".into() }, &latencies).unwrap(),
            ExecDelay::Unbounded
        );
        assert_eq!(
            op_delay(&OpKind::Loop { body: g0 }, &latencies).unwrap(),
            ExecDelay::Unbounded
        );
        assert_eq!(
            op_delay(&OpKind::Call { callee: g0 }, &latencies).unwrap(),
            ExecDelay::Fixed(5)
        );
        assert_eq!(
            op_delay(&OpKind::Call { callee: g1 }, &latencies).unwrap(),
            ExecDelay::Unbounded
        );
        assert_eq!(
            op_delay(&OpKind::Cond { branches: vec![g0] }, &latencies).unwrap(),
            ExecDelay::Fixed(5)
        );
        assert_eq!(
            op_delay(
                &OpKind::Cond {
                    branches: vec![g0, g1]
                },
                &latencies
            )
            .unwrap(),
            ExecDelay::Unbounded
        );
        assert_eq!(
            op_delay(&OpKind::NoOp, &latencies).unwrap(),
            ExecDelay::Fixed(0)
        );
    }

    #[test]
    fn lowering_builds_polar_graph_with_constraints() {
        let mut seq = SeqGraph::new("main");
        let a = seq.add_op("read_a", OpKind::Read { port: "x".into() });
        let b = seq.add_op("alu", OpKind::fixed(2));
        let c = seq.add_op(
            "wait",
            OpKind::Wait {
                signal: "go".into(),
            },
        );
        seq.add_dependency(a, b).unwrap();
        seq.add_dependency(b, c).unwrap();
        seq.add_min_constraint(a, b, 2).unwrap();
        seq.add_max_constraint(a, b, 4).unwrap();
        let lowered = lower_graph(&seq, &[]).unwrap();
        let g = &lowered.graph;
        assert!(g.is_polar());
        assert_eq!(g.n_vertices(), 5); // 3 ops + source + sink
        assert_eq!(g.n_backward_edges(), 1);
        assert!(g.is_anchor(lowered.op_vertices[c.index()]));
        assert!(!g.is_anchor(lowered.op_vertices[a.index()]));
    }

    #[test]
    fn cyclic_dependencies_reported_as_lowering_error() {
        let mut seq = SeqGraph::new("bad");
        let a = seq.add_op("a", OpKind::fixed(1));
        let b = seq.add_op("b", OpKind::fixed(1));
        seq.add_dependency(a, b).unwrap();
        seq.add_dependency(b, a).unwrap();
        assert!(matches!(
            lower_graph(&seq, &[]),
            Err(SgraphError::Lowering { .. })
        ));
    }
}
