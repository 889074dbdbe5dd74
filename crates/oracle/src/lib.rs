//! First-principles oracle and structured fuzzer for relative scheduling.
//!
//! This crate is the independent referee for the whole scheduling stack
//! (Ku & De Micheli, *Relative Scheduling Under Timing Constraints*,
//! DAC 1990). It deliberately shares **no** algorithmic code with
//! `rsched_core::schedule`: every paper property is re-derived here from
//! the constraint graph alone, using naive Bellman–Ford and set algebra,
//! so a bug common to the reference scheduler, the CSR kernel, and the
//! incremental engine still gets caught.
//!
//! Three layers:
//!
//! - [`oracle`] — [`verify`]/[`check_result`] judge a
//!   `(ConstraintGraph, RelativeSchedule)` pair theorem by theorem
//!   (Thm 1 feasibility, Thm 2 well-posedness, Thms 4–6 anchor
//!   minimality, Thm 8/Cor 2 minimum-offset optimality, Thm 3 start-time
//!   semantics) and return a structured [`OracleReport`] with witness
//!   paths and a per-offset minimality certificate.
//! - [`fuzz`](mod@fuzz) — [`GraphMutator`] grows seeded random graphs
//!   (well-posed and deliberately hostile) and edit scripts;
//!   [`fuzz::fuzz`] replays them through cold, reference, and
//!   incremental-session schedulers and feeds every state to the oracle.
//! - [`serve_fuzz`] — [`fuzz_serve`] attacks the JSON-lines service with
//!   malformed and adversarial frames, asserting it never panics and
//!   always echoes the request id.
//! - [`fault_fuzz`] — [`fuzz_faults`] arms deterministic failpoints
//!   (injected panics, worker kills, stalls, in-band errors) while a
//!   seeded script runs, asserting the service answers every line and
//!   that journal-replay recovery is bit-identical to a mirror rebuilt
//!   from the accepted edits — oracle-refereed.
//! - [`net_fuzz`] — [`fuzz_net`] replays the adversarial frame mix over
//!   real concurrent TCP connections against the sharded socket server
//!   and asserts the responses are bit-identical to the stdio loop;
//!   [`fuzz_chaos`] adds socket-level fault injection (torn writes,
//!   stalls, RST aborts, half-closes, hostile bytes, slow-loris) and
//!   asserts the server survives, answers every fully-framed request,
//!   provably enforces its read deadline, and keeps well-behaved sibling
//!   connections bit-identical to an undisturbed control run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache_fuzz;
pub mod fault_fuzz;
pub mod fuzz;
pub mod net_fuzz;
pub mod optimize_fuzz;
pub mod oracle;
pub mod serve_fuzz;

pub use cache_fuzz::{fuzz_cache, CacheFuzzConfig, CacheFuzzReport};
pub use fault_fuzz::{fuzz_faults, FaultFuzzConfig, FaultFuzzReport};
pub use fuzz::{fuzz, Edit, FuzzConfig, FuzzFailure, FuzzReport, GraphMutator};
pub use net_fuzz::{
    fuzz_chaos, fuzz_net, ChaosFuzzConfig, ChaosFuzzReport, NetFuzzConfig, NetFuzzReport,
};
pub use optimize_fuzz::{fuzz_optimize, OptimizeFuzzConfig, OptimizeFuzzReport};
pub use oracle::{
    anchor_roster, anchor_set_masks, check_result, positive_cycle, verify, Check, OffsetBound,
    OracleReport, Witness,
};
pub use serve_fuzz::{fuzz_serve, ServeFuzzConfig, ServeFuzzReport};
