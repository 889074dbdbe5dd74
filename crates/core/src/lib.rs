//! Relative scheduling under timing constraints.
//!
//! A from-scratch implementation of Ku & De Micheli, *“Relative Scheduling
//! Under Timing Constraints: Algorithms for High-Level Synthesis of Digital
//! Circuits”* (DAC 1990): scheduling for hardware whose operations may have
//! *unbounded* execution delays (external synchronization, data-dependent
//! iteration), under minimum and maximum timing constraints.
//!
//! The pipeline mirrors the paper's Fig. 9:
//!
//! 1. **anchor sets** — [`AnchorSets`] computes `A(v)`, the anchors whose
//!    completion gates each operation (`findAnchorSet`);
//! 2. **well-posedness** — [`check_well_posed`] decides whether every
//!    maximum constraint is satisfiable for *all* unbounded-delay values
//!    (Theorem 2); [`make_well_posed`] repairs ill-posed graphs by minimal
//!    serialization, when possible (Theorem 7);
//! 3. **redundancy removal** — [`RelevantAnchors`] and
//!    [`IrredundantAnchors`] shrink each anchor set to the minimum needed
//!    for start-time computation (Theorem 6);
//! 4. **scheduling** — [`schedule`] runs iterative incremental scheduling,
//!    returning the minimum [`RelativeSchedule`] or detecting inconsistent
//!    constraints within `|E_b| + 1` iterations (Theorem 8, Corollary 2).
//!
//! Start times under concrete delay profiles are evaluated by
//! [`start_times`]; classical fixed-delay ASAP/ALAP and the per-anchor
//! decomposition baseline live in [`baseline`].
//!
//! # Example
//!
//! ```
//! use rsched_graph::{ConstraintGraph, ExecDelay};
//! use rsched_core::{check_well_posed, schedule, IrredundantAnchors};
//!
//! # fn main() -> Result<(), rsched_core::ScheduleError> {
//! // An ASIC fragment: wait for an external handshake, then respond
//! // within a bounded window.
//! let mut g = ConstraintGraph::new();
//! let wait = g.add_operation("wait_req", ExecDelay::Unbounded);
//! let compute = g.add_operation("compute", ExecDelay::Fixed(2));
//! let reply = g.add_operation("reply", ExecDelay::Fixed(1));
//! g.add_dependency(wait, compute)?;
//! g.add_dependency(compute, reply)?;
//! g.add_max_constraint(compute, reply, 4)?; // reply ≤ 4 cycles after compute
//! g.polarize()?;
//!
//! assert!(check_well_posed(&g).is_well_posed());
//! let omega = schedule(&g)?;
//! assert_eq!(omega.offset(reply, wait), Some(2));
//! let ir = IrredundantAnchors::analyze(&g)?;
//! assert_eq!(ir.irredundant.set(reply).collect::<Vec<_>>(), vec![wait]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod anchors;
pub mod baseline;
mod error;
mod explain;
#[cfg(test)]
mod fixtures;
mod pool;
mod schedule;
mod slack;
mod start_time;
mod wellposed;
mod witness;

pub use analysis::{iteration_bound, iteration_bound_with, IterationBound};
pub use anchors::{
    AnchorAnalysis, AnchorSetFamily, AnchorSets, IrredundantAnchors, RelevantAnchors,
};
pub use error::ScheduleError;
pub use explain::{explain_offset, OffsetExplanation};
pub use pool::WorkPool;
pub use schedule::{
    relax_additive, schedule, schedule_reference, schedule_traced, schedule_with_sets,
    schedule_with_sets_on, schedule_with_sets_reference, IterationTrace, RelativeSchedule,
    ScheduleTrace,
};
pub use slack::{relative_slack, SlackAnalysis};
pub use start_time::{
    profile_for, start_times, update_start_times, verify_start_times, DelayProfile, ProfileBuilder,
    StartTimes, TimingViolation,
};
pub use wellposed::{
    check_well_posed, check_well_posed_with, make_well_posed, IllPosedEdge, SerializationReport,
    WellPosedness,
};
pub use witness::{ill_posedness_witness, IllPosednessWitness};
