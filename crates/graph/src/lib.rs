//! Polar weighted constraint graphs for relative scheduling.
//!
//! This crate implements the hardware/constraint model of Ku & De Micheli,
//! *“Relative Scheduling Under Timing Constraints”* (DAC 1990): a polar
//! weighted directed graph `G(V, E)` whose vertices are synchronous
//! operations (with fixed or *unbounded* execution delays) and whose edges
//! encode sequencing dependencies and minimum/maximum timing constraints
//! (Table I of the paper):
//!
//! | Item                        | Type     | Edge         | Weight      |
//! |-----------------------------|----------|--------------|-------------|
//! | sequencing edge `(vi, vj)`  | forward  | `(vi, vj)`   | `δ(vi)`     |
//! | minimum constraint `l_ij`   | forward  | `(vi, vj)`   | `l_ij`      |
//! | maximum constraint `u_ij`   | backward | `(vj, vi)`   | `-u_ij`     |
//!
//! The crate also provides the path machinery every algorithm of the paper
//! is built on: topological ordering of the forward subgraph `G_f`,
//! Bellman–Ford longest paths over the full graph with unbounded weights set
//! to zero (the paper's `length(u, v)`), and positive-cycle detection
//! (Theorem 1 feasibility).
//!
//! # Example
//!
//! Build a constraint graph in the style of the paper's Fig. 1: operations
//! in a chain with one minimum and one maximum timing constraint.
//!
//! ```
//! use rsched_graph::{ConstraintGraph, ExecDelay};
//!
//! # fn main() -> Result<(), rsched_graph::GraphError> {
//! let mut g = ConstraintGraph::new();
//! let v1 = g.add_operation("v1", ExecDelay::Fixed(2));
//! let v2 = g.add_operation("v2", ExecDelay::Fixed(1));
//! let v3 = g.add_operation("v3", ExecDelay::Fixed(3));
//! g.add_dependency(g.source(), v1)?;
//! g.add_dependency(v1, v2)?;
//! g.add_dependency(v2, v3)?;
//! g.add_min_constraint(v1, v3, 5)?; // v3 starts >= 5 cycles after v1
//! g.add_max_constraint(v1, v2, 4)?; // v2 starts <= 4 cycles after v1
//! g.polarize()?;
//! let topo = g.forward_topological_order();
//! assert!(topo.precedes(v1, v3));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canon;
mod dot;
mod error;
pub mod failpoint;
mod graph;
mod kernel;
mod paths;
mod reduce;
mod text;
mod topo;

pub use canon::{CanonicalForm, CanonicalKey};
pub use dot::DotOptions;
pub use error::GraphError;
pub use graph::{ConstraintGraph, Edge, EdgeId, EdgeKind, ExecDelay, Vertex, VertexId, Weight};
pub use kernel::ScheduleKernel;
pub use paths::{LongestPaths, PathMatrix};
pub use reduce::ReductionReport;
pub use text::{directive_counts, TextFormatError};
pub use topo::ForwardTopo;
