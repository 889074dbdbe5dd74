use std::error::Error;
use std::fmt;

use rsched_graph::{ConstraintGraph, GraphError, VertexId};

/// Errors produced by the relative-scheduling algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// A structural graph error (unknown vertex, forward cycle, …).
    Graph(GraphError),
    /// The constraint graph has a positive cycle with unbounded delays set
    /// to 0: the constraints are unfeasible and no schedule exists
    /// (Theorem 1).
    Unfeasible {
        /// A vertex on or reachable from a positive cycle.
        witness: VertexId,
    },
    /// A maximum timing constraint is ill-posed: its satisfiability depends
    /// on the execution delay of anchors not shared by both endpoints
    /// (Lemma 1 / Theorem 2).
    IllPosed {
        /// Tail of the offending backward edge.
        from: VertexId,
        /// Head of the offending backward edge.
        to: VertexId,
        /// Anchors in `A(from)` missing from `A(to)`.
        missing: Vec<VertexId>,
    },
    /// `makeWellposed` cannot serialize the graph into a well-posed one:
    /// the required sequencing edge `anchor -> vertex` would close an
    /// unbounded-length cycle (Lemma 3).
    CannotSerialize {
        /// The anchor whose completion the vertex would have to wait for.
        anchor: VertexId,
        /// The vertex that is (transitively) a predecessor of the anchor.
        vertex: VertexId,
    },
    /// The iterative incremental scheduler exhausted its `|E_b| + 1`
    /// iteration budget without satisfying every maximum constraint: the
    /// timing constraints are inconsistent (Corollary 2).
    Inconsistent {
        /// Number of iterations executed before giving up.
        iterations: usize,
    },
    /// An operation requires fixed delays only (e.g. the classical ASAP
    /// baseline of Definition 1) but the graph contains unbounded-delay
    /// operations besides the source.
    UnboundedDelayUnsupported {
        /// The first unbounded-delay operation encountered.
        vertex: VertexId,
    },
}

impl ScheduleError {
    /// Writes the message to `f`, naming each vertex with `name`. Every
    /// message text lives here: [`Display`](fmt::Display) names vertices
    /// by id (`v3`), [`ScheduleError::render`] by operation name.
    pub fn write_named(
        &self,
        f: &mut dyn fmt::Write,
        name: &dyn Fn(VertexId) -> String,
    ) -> fmt::Result {
        match self {
            ScheduleError::Graph(e) => e.write_named(f, name),
            ScheduleError::Unfeasible { witness } => write!(
                f,
                "unfeasible timing constraints: positive cycle through {}",
                name(*witness)
            ),
            ScheduleError::IllPosed { from, to, missing } => {
                let (from, to) = (name(*from), name(*to));
                write!(
                    f,
                    "ill-posed maximum constraint on backward edge {from} -> {to}: anchors ["
                )?;
                for (i, a) in missing.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", name(*a))?;
                }
                write!(f, "] affect {to} but not {from}")
            }
            ScheduleError::CannotSerialize { anchor, vertex } => write!(
                f,
                "cannot make constraints well-posed: serializing {} after {} would close an unbounded-length cycle",
                name(*vertex),
                name(*anchor)
            ),
            ScheduleError::Inconsistent { iterations } => write!(
                f,
                "inconsistent timing constraints: no fixpoint after {iterations} iterations"
            ),
            ScheduleError::UnboundedDelayUnsupported { vertex } => write!(
                f,
                "operation {} has unbounded delay, which this scheduler does not support",
                name(*vertex)
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

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_named(f, &|v| v.to_string())
    }
}

impl Error for ScheduleError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScheduleError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for ScheduleError {
    fn from(e: GraphError) -> Self {
        match e {
            GraphError::PositiveCycle { witness } => ScheduleError::Unfeasible { witness },
            other => ScheduleError::Graph(other),
        }
    }
}
