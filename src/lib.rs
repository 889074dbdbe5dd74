//! Relative scheduling under timing constraints — a full reproduction of
//! Ku & De Micheli, *“Relative Scheduling Under Timing Constraints:
//! Algorithms for High-Level Synthesis of Digital Circuits”* (DAC 1990 /
//! IEEE TCAD).
//!
//! This facade crate re-exports the whole toolchain:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`graph`] | `rsched-graph` | polar constraint graphs, longest paths, feasibility |
//! | [`core`] | `rsched-core` | anchors, well-posedness, `makeWellposed`, irredundant anchors, iterative incremental scheduling, baselines |
//! | [`sgraph`] | `rsched-sgraph` | hierarchical sequencing graphs (Hercules model), bottom-up scheduling, Table III/IV statistics |
//! | [`hdl`] | `rsched-hdl` | HardwareC-subset compiler |
//! | [`binding`] | `rsched-binding` | module binding + constrained conflict resolution |
//! | [`ctrl`] | `rsched-ctrl` | counter / shift-register control generation |
//! | [`sim`] | `rsched-sim` | cycle-accurate simulation + constraint checking |
//! | [`designs`] | `rsched-designs` | the paper's figures and eight benchmark designs |
//! | [`engine`] | `rsched-engine` | incremental re-scheduling sessions + the `rsched serve` JSON-lines service |
//!
//! # Quickstart
//!
//! Schedule an operation that waits on an external synchronization:
//!
//! ```
//! use relative_scheduling::graph::{ConstraintGraph, ExecDelay};
//! use relative_scheduling::core::{check_well_posed, schedule};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = ConstraintGraph::new();
//! let sync = g.add_operation("wait_bus", ExecDelay::Unbounded);
//! let op = g.add_operation("drive_bus", ExecDelay::Fixed(2));
//! g.add_dependency(sync, op)?;
//! g.polarize()?;
//! assert!(check_well_posed(&g).is_well_posed());
//! let omega = schedule(&g)?;
//! // drive_bus starts as soon as the synchronization completes:
//! assert_eq!(omega.offset(op, sync), Some(0));
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for complete flows: the Fig. 2 quickstart, the full
//! gcd HardwareC synthesis pipeline (Figs. 13/14), the Fig. 10 scheduler
//! trace, the §VI control-cost trade-off, and an external-bus
//! serialization scenario.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flow;

pub use flow::{synthesize, FlowError, FlowOptions, Synthesis};

/// Compiles the README's code blocks as doctests, so its quickstart
/// cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use rsched_binding as binding;
pub use rsched_core as core;
pub use rsched_ctrl as ctrl;
pub use rsched_designs as designs;
pub use rsched_engine as engine;
pub use rsched_graph as graph;
pub use rsched_hdl as hdl;
pub use rsched_sgraph as sgraph;
pub use rsched_sim as sim;
