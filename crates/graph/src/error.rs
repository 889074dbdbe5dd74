use std::error::Error;
use std::fmt;

use crate::graph::{ConstraintGraph, EdgeId, VertexId};

/// Errors produced while building or analyzing a constraint graph.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// A vertex id does not belong to this graph.
    UnknownVertex(VertexId),
    /// Adding the edge would create a cycle in the forward constraint
    /// graph `G_f`, which the model requires to be acyclic (§III).
    ForwardCycle {
        /// Tail of the offending edge.
        from: VertexId,
        /// Head of the offending edge.
        to: VertexId,
    },
    /// A self-loop was requested; the model has no use for them.
    SelfLoop(VertexId),
    /// An edge touching the source/sink violates polarity (e.g. an edge
    /// *into* the source or *out of* the sink).
    Polarity {
        /// Tail of the offending edge.
        from: VertexId,
        /// Head of the offending edge.
        to: VertexId,
    },
    /// A minimum timing constraint `l_ij > 0` was requested between two
    /// vertices already ordered `v_j -> v_i` in `G_f`; the paper deems such
    /// constraints invalid (they contradict the dependencies). An `l_ij = 0`
    /// constraint in that situation should be expressed as the maximum
    /// constraint `u_ji = 0` instead.
    ContradictsDependencies {
        /// Constraint source.
        from: VertexId,
        /// Constraint target.
        to: VertexId,
        /// Requested minimum separation.
        min: u64,
    },
    /// The graph contains a positive cycle (with unbounded delays set to 0),
    /// so the timing constraints are unfeasible (Theorem 1) and longest
    /// paths diverge.
    PositiveCycle {
        /// A vertex whose longest path kept growing, i.e. a vertex on or
        /// reachable from a positive cycle.
        witness: VertexId,
    },
    /// An edge id does not belong to this graph, or was already removed.
    UnknownEdge(EdgeId),
    /// The source and sink vertices cannot be mutated: the source must
    /// remain the activation anchor and the sink a zero-delay no-op.
    ImmutableVertex(VertexId),
    /// A delay or constraint value does not fit the signed 64-bit edge
    /// weights (it exceeds `i64::MAX`).
    WeightOverflow(u64),
}

impl GraphError {
    /// Writes the message to `f`, naming each vertex with `name`. Every
    /// message text lives here: [`Display`](fmt::Display) names vertices
    /// by id (`v3`), [`GraphError::render`] by operation name.
    pub fn write_named(
        &self,
        f: &mut dyn fmt::Write,
        name: &dyn Fn(VertexId) -> String,
    ) -> fmt::Result {
        match self {
            GraphError::UnknownVertex(v) => write!(f, "unknown vertex {}", name(*v)),
            GraphError::ForwardCycle { from, to } => write!(
                f,
                "edge {} -> {} would create a cycle in the forward constraint graph",
                name(*from),
                name(*to)
            ),
            GraphError::SelfLoop(v) => {
                write!(f, "self-loop on vertex {} is not allowed", name(*v))
            }
            GraphError::Polarity { from, to } => write!(
                f,
                "edge {} -> {} violates polarity (source has no predecessors, sink no successors)",
                name(*from),
                name(*to)
            ),
            GraphError::ContradictsDependencies { from, to, min } => {
                let (from, to) = (name(*from), name(*to));
                write!(
                    f,
                    "minimum constraint {from} -> {to} of {min} cycles contradicts an existing dependency path {to} -> {from}"
                )
            }
            GraphError::PositiveCycle { witness } => write!(
                f,
                "constraint graph has a positive cycle (unfeasible constraints, witness {})",
                name(*witness)
            ),
            GraphError::UnknownEdge(e) => write!(f, "unknown or removed edge {e}"),
            GraphError::ImmutableVertex(v) => write!(
                f,
                "vertex {} is the source or sink and cannot be mutated",
                name(*v)
            ),
            GraphError::WeightOverflow(value) => write!(
                f,
                "value {value} does not fit an edge weight (at most {})",
                i64::MAX
            ),
        }
    }

    /// The message with each vertex named as in `graph`.
    pub fn render(&self, graph: &ConstraintGraph) -> String {
        let mut out = String::new();
        let _ = self.write_named(&mut out, &|v| graph.display_name(v));
        out
    }
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_named(f, &|v| v.to_string())
    }
}

impl Error for GraphError {}
