//! `rsched-engine` — incremental re-scheduling on top of `rsched-core`,
//! plus the JSON-lines scheduling service behind `rsched serve`.
//!
//! The paper's iterative incremental scheduler recomputes a minimum
//! relative schedule from scratch on every invocation. Interactive
//! synthesis (constraint tweaking, what-if latency exploration, editor
//! integrations) instead makes long chains of *small* edits, each of
//! which perturbs only part of the analysis. This crate adds:
//!
//! - [`Session`] — owns a constraint graph plus cached analyses and
//!   applies edits (`add_dependency`, `add_min_constraint`,
//!   `add_max_constraint`, `remove_edge`, `set_delay`): an added edge or
//!   constraint repairs the previous offsets in place, any other edit
//!   reruns the fixpoint cold. Every edit returns a structured
//!   [`EditOutcome`] whose verdicts (including ill-posedness witnesses)
//!   are bit-identical to a cold [`rsched_core::schedule`].
//! - [`serve`] — a batched JSON-lines service over any `BufRead`/`Write`
//!   pair (stdin/stdout in the CLI): `open`/`edit`/`schedule`/`stats`/
//!   `close` requests with id correlation, per-session ordering,
//!   per-request deadlines, and clean EOF shutdown.
//! - [`Router`] — the transport-agnostic core of the service (session
//!   tables sharded by [`shard_of`], validation, panic isolation, group
//!   commit and boot-recovery fan-out of the journals).
//! - [`journal`] — the one owner of the edit record and the WAL file:
//!   decoding, applying, replay, snapshot compaction and boot recovery.
//! - [`runtime`] — the shard runtime that runs the router for every
//!   transport: frame intake, bounded per-slot queues with load
//!   shedding, supervised workers, group commit, deadlines. [`serve`] is
//!   its stdio transport and the `rsched-net` crate its socket
//!   transport, so socket and stdio responses are bit-identical for the
//!   same op stream.
//! - [`scan`] — the word-at-a-time byte finder that the socket
//!   transport's frame splitting and the JSON string parser share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod json;
pub mod optimize;
pub mod runtime;
pub mod scan;
pub mod service;
pub mod session;

pub use journal::{Journal, JournalOp};
pub use optimize::{
    Objective, OptimizeConfig, OptimizeError, OptimizeReport, Optimizer, RoundReport,
};
pub use runtime::MALFORMED_UTF8_ERROR;
pub use service::{
    error_response, serve, shard_of, Router, RouterStats, ServeConfig, ServeSummary,
};
pub use session::{EditOutcome, Session, SessionStats};
