//! The JSON-lines scheduling service behind `rsched serve`.
//!
//! One request per line on the input, one response per line on the
//! output. Every request carries a client-chosen `"id"` that is echoed in
//! the response, so clients may pipeline requests and correlate answers —
//! responses for *different* sessions can arrive out of order. Requests
//! for the *same* session are executed in arrival order: sessions are
//! pinned to one worker of a bounded [`std::thread`] pool by a hash of
//! the session name ([`shard_of`]), which keeps edit semantics sequential
//! without a global lock.
//!
//! The session tables, request validation, execution, and panic
//! isolation all live in the transport-agnostic [`Router`]; the shard
//! runtime in [`crate::runtime`] (intake, bounded queues, supervised
//! workers, deadlines) runs it for both transports. This module's
//! [`serve`] is the stdin/stdout transport over that runtime, and the
//! `rsched-net` crate is the socket transport over the same one — both
//! produce bit-identical responses for the same op stream.
//!
//! ## Protocol
//!
//! ```text
//! {"id":1,"op":"open","session":"s","design":"op a 1\nop b 2\ndep a b\n"}
//! {"id":2,"op":"edit","session":"s","kind":"add_max","from":"a","to":"b","value":4}
//! {"id":3,"op":"schedule","session":"s"}
//! {"id":4,"op":"stats","session":"s"}
//! {"id":5,"op":"recover","session":"s"}
//! {"id":6,"op":"close","session":"s"}
//! ```
//!
//! `"kind"` is one of `add_dep`, `add_min`, `add_max` (with `"value"`),
//! `remove_edge` (endpoints by name), or `set_delay` (with `"vertex"` and
//! `"delay"`: a cycle count or `"unbounded"`). Responses are
//! `{"id":…,"ok":true,…}` or `{"id":…,"ok":false,"error":"…"}`.
//!
//! One sessionless request exists: `batch_schedule` cold-schedules many
//! independent designs in a single round trip, fanning them across the
//! router's shared [`WorkPool`]. The response carries `"results"`, one
//! entry per design **in input order**.
//!
//! Each request honors a deadline (the `ServeConfig` default, overridable
//! per request via `"deadline_ms"`), measured from the moment the line is
//! read; a request still queued when its deadline passes is answered with
//! an error instead of being executed. On end of input the service stops
//! accepting work, drains every queue, joins the workers, and returns a
//! summary — a clean EOF shutdown needs no special request.
//!
//! ## Failure model
//!
//! The service survives faults in its own request handlers; see
//! `DESIGN.md` §11 for the full model. In short:
//!
//! - **Panic isolation.** Every request executes under
//!   [`std::panic::catch_unwind`]. A panic is answered in-band as
//!   `{"id":…,"ok":false,"error":"worker_panic: …"}`, the targeted
//!   session (whose `Session` may be half-mutated) is **quarantined**,
//!   and the worker keeps serving. Quarantined sessions reject
//!   `edit`/`schedule` with an error naming the `recover` op.
//! - **Journaling + replay recovery.** Each session keeps an append-only
//!   [`Journal`] of its design and every *accepted* mutating edit,
//!   optionally mirrored to a write-ahead file under
//!   [`ServeConfig::journal_dir`]. `recover` rebuilds the session by
//!   deterministic replay — bit-identical to the pre-panic state. The
//!   `journal` module alone decodes, applies and persists edits; the
//!   router only routes a request to it.
//! - **Snapshot compaction.** Every [`ServeConfig::snapshot_every`]
//!   accepted edits the journal folds its history into a snapshot of the
//!   session's current design (see the `journal` module docs), so replay
//!   and recovery cost are bounded by the snapshot interval instead of
//!   the session's lifetime edit count.
//! - **Worker respawn.** Each slot's worker runs under the shared
//!   runtime's supervisor: a worker that dies outright (not just a caught
//!   request panic) is restarted at once on the same queue, with no bound
//!   on restarts. Sessions live in the router and queued jobs in the
//!   queue, so nothing is lost or reordered, and a stdio client never
//!   waits for its next request or EOF to get queued answers.
//! - **Admission control.** The runtime's per-slot queues are bounded
//!   ([`ServeConfig::queue_depth`]); when a queue is full the request is
//!   shed in-band with `"error":"overloaded: worker queue full, retry
//!   later"` and a `retry_after_ms` hint instead of stalling the intake.
//!   `health` is answered at intake and never queues. Oversized designs
//!   are rejected at intake when [`ServeConfig::max_ops`] /
//!   [`ServeConfig::max_edges`] are set.
//!
//! WAL mirror writes are **group-committed**: appends only buffer lines,
//! and a worker flushes once per request batch
//! ([`Router::sync_journals`]) instead of once per op — measured at ~58%
//! of a serve round when every op paid its own write+flush. The batch's
//! answers leave only after that flush, so an acknowledged edit is
//! already in its WAL file.
//!
//! Deterministic fault-injection tests drive all of this through the
//! `rsched_graph::failpoint` facility: the sites `serve::handle` (per
//! request), `serve::worker_kill` (once per batch in the runtime's
//! worker loop, after delivery, before sleeping), and
//! `journal::snapshot` (pre-compaction) plus `session::reschedule` and
//! `kernel::build` deeper down. Workers enter
//! [`ServeConfig::fault_scope`] so a harness can target one service
//! instance without affecting concurrent tests.

use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use rsched_cache::{schedule_cached, CacheStats, Probe, ScheduleCache};
use rsched_core::{ScheduleError, WellPosedness, WorkPool};
use rsched_graph::{directive_counts, failpoint, ConstraintGraph};

use crate::journal::{self, Journal, JournalOp, Journals};
use crate::json::{object, Json};
use crate::optimize::{Objective, OptimizeConfig, Optimizer, RoundReport};
use crate::runtime::{lock_recover, Frame, Reply, Runtime, Sink};
use crate::session::{EditOutcome, Session};

/// Tuning knobs for [`serve`] (and, via [`Router`], the socket server).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (sessions are pinned to workers); clamped to ≥ 1.
    pub workers: usize,
    /// Default per-request deadline; `None` means no deadline unless the
    /// request carries `"deadline_ms"`.
    pub deadline: Option<Duration>,
    /// Bounded depth of each worker's job queue; clamped to ≥ 1. A
    /// request arriving at a full queue is shed with an in-band
    /// `"overloaded"` error carrying a `retry_after_ms` hint.
    pub queue_depth: usize,
    /// Reject `open`/`batch_schedule` designs declaring more than this
    /// many operations. `None` = unlimited.
    pub max_ops: Option<usize>,
    /// Reject designs declaring more than this many dependency/timing
    /// constraint lines. `None` = unlimited.
    pub max_edges: Option<usize>,
    /// Mirror every session journal to a write-ahead file
    /// (`<session>-<hash>.wal`) in this directory, and rebuild the
    /// sessions of the WAL files found there when the router starts.
    /// Mirror I/O failures never fail requests: the session keeps its
    /// in-memory journal (which `recover` replays) and the loss is
    /// counted in [`RouterStats::wal_mirrors_lost`].
    pub journal_dir: Option<PathBuf>,
    /// Compact a session's journal into a snapshot once this many edits
    /// accumulate since the last base; `0` disables compaction.
    pub snapshot_every: usize,
    /// Capacity of the canonical-form schedule cache shared by `open` and
    /// `batch_schedule` across all transports; `0` (the default) disables
    /// caching entirely, keeping every response deterministic.
    pub cache_capacity: usize,
    /// Failpoint scope token the worker threads enter, so a fault-
    /// injection harness can target exactly this service instance.
    pub fault_scope: Option<u64>,
    /// Threads of the router's shared work-stealing pool, through which
    /// `batch_schedule` fans its designs and boot recovery replays its
    /// WAL files (one pool per [`Router`], shared by every transport and
    /// request). `0` (the default) sizes
    /// the pool to the host's available parallelism; any value counts
    /// the submitting thread, so `1` means a no-worker inline pool.
    pub threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            deadline: None,
            queue_depth: 1024,
            max_ops: None,
            max_edges: None,
            journal_dir: None,
            snapshot_every: 256,
            cache_capacity: 0,
            fault_scope: None,
            threads: 0,
        }
    }
}

/// What a [`serve`] run processed, returned after EOF shutdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests answered (including errors).
    pub requests: usize,
    /// Requests answered with `"ok":false`.
    pub errors: usize,
    /// `open` requests that created a session.
    pub sessions_opened: usize,
    /// Request handlers that panicked (answered in-band as
    /// `worker_panic`).
    pub panics: usize,
    /// Sessions quarantined after a panic.
    pub quarantined: usize,
    /// Successful `recover` replays.
    pub recoveries: usize,
    /// Journal compactions (snapshots taken).
    pub snapshots: usize,
    /// Requests shed because a worker queue was full.
    pub shed: usize,
    /// Workers the shard runtime restarted after dying outright.
    pub workers_respawned: usize,
}

/// Every op the protocol understands; anything else is rejected at
/// intake with the request id echoed.
const KNOWN_OPS: [&str; 9] = [
    "open",
    "edit",
    "schedule",
    "stats",
    "recover",
    "close",
    "batch_schedule",
    "optimize",
    "health",
];

/// One session as the service tracks it: the live engine state (absent
/// while quarantined) plus the journal that can rebuild it.
struct SessionEntry {
    /// `None` after a panic mid-request left the `Session` suspect.
    session: Option<Session>,
    journal: Journal,
    recoveries: usize,
}

/// Per-worker-slot session table. Lives outside the worker thread so a
/// dead worker's sessions survive into its replacement.
#[derive(Default)]
struct SlotState {
    sessions: HashMap<String, SessionEntry>,
    /// Sessions whose journal may hold WAL lines not yet synced: every
    /// dirty journal's name is here, so a group commit visits only them.
    unsynced: Vec<String>,
}

impl SlotState {
    fn dirty(&self, name: Option<&str>) -> bool {
        name.and_then(|name| self.sessions.get(name))
            .is_some_and(|entry| entry.journal.dirty())
    }
}

#[derive(Default)]
struct Counters {
    opened: AtomicUsize,
    panics: AtomicUsize,
    quarantined: AtomicUsize,
    recoveries: AtomicUsize,
    snapshots: AtomicUsize,
    boot_recovered: AtomicUsize,
}

impl Counters {
    fn bump(counter: &AtomicUsize) -> usize {
        counter.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// Counters the [`Router`] accumulates across all transports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// `open` requests that created a session.
    pub sessions_opened: usize,
    /// Request handlers that panicked (answered in-band).
    pub panics: usize,
    /// Sessions quarantined after a panic.
    pub quarantined: usize,
    /// Successful `recover` replays.
    pub recoveries: usize,
    /// Journal compactions (snapshots taken).
    pub snapshots: usize,
    /// Sessions rebuilt from on-disk WAL files when the router started.
    pub boot_recovered: usize,
    /// Session WAL mirrors dropped on an I/O error (file not creatable,
    /// write or flush failed, compaction rewrite failed): from then on
    /// that session is journaled in memory only.
    pub wal_mirrors_lost: usize,
    /// Canonical-form schedule cache counters (all zero when the cache is
    /// disabled).
    pub cache: CacheStats,
}

/// The transport-agnostic core of the scheduling service: session tables
/// sharded into slots, request validation, execution under panic
/// isolation, journaling, and snapshot compaction.
///
/// The shard runtime ([`crate::runtime::Runtime`]) owns queueing,
/// deadlines, and load shedding for both transports; it calls
/// [`Router::route`] at intake to validate a request and learn its slot,
/// keeps per-slot execution serial, calls [`Router::execute`] from the
/// slot's worker, and [`Router::sync_journals`] once per drained batch
/// (group commit).
pub struct Router {
    slots: Vec<Mutex<SlotState>>,
    counters: Counters,
    max_ops: Option<usize>,
    max_edges: Option<usize>,
    journals: Journals,
    cache: Arc<ScheduleCache>,
    pool: WorkPool,
}

impl Router {
    /// Builds a router with `n_slots` independent session tables
    /// (clamped to ≥ 1), taking limits, journal, snapshot, and cache
    /// settings from `config`. Creates the journal directory best-effort —
    /// a missing directory only disables the WAL mirror — then rebuilds
    /// any sessions whose WAL files survive in it from a previous process
    /// (boot-time recovery; see [`RouterStats::boot_recovered`]).
    pub fn new(n_slots: usize, config: &ServeConfig) -> Router {
        let router = Router {
            slots: (0..n_slots.max(1))
                .map(|_| Mutex::new(SlotState::default()))
                .collect(),
            counters: Counters::default(),
            max_ops: config.max_ops,
            max_edges: config.max_edges,
            journals: Journals::new(config.journal_dir.clone(), config.snapshot_every),
            cache: Arc::new(ScheduleCache::new(config.cache_capacity)),
            pool: WorkPool::new(if config.threads == 0 {
                thread::available_parallelism().map_or(1, |p| p.get())
            } else {
                config.threads
            }),
        };
        router.recover_from_wal_dir();
        router
    }

    /// The canonical-form schedule cache shared by every transport on
    /// this router.
    pub fn cache(&self) -> &ScheduleCache {
        &self.cache
    }

    /// Boot-time recovery: rebuild the session of every WAL file left in
    /// the journal directory by a previous process ([`Journal::recover`]),
    /// pinning it to the slot its name shards to.
    ///
    /// Sessions share nothing until they are inserted, so each WAL's
    /// recovery runs as one job on the router's [`WorkPool`] (sized by
    /// [`ServeConfig::threads`]; `1` replays serially on this thread). The
    /// results are then inserted one by one in sorted path order, so slot
    /// assignment, first-name-wins precedence and
    /// [`RouterStats::boot_recovered`] do not depend on the pool's size or
    /// on which job finished first.
    ///
    /// Failure handling is strictly best-effort — this runs before the
    /// service accepts traffic, and a damaged WAL must never prevent
    /// startup. A WAL whose replay fails or panics is skipped and its file
    /// is left on disk.
    fn recover_from_wal_dir(&self) {
        let paths = Arc::new(self.journals.wal_files());
        let n = paths.len();
        let journals = self.journals.clone();
        // Pool workers do not inherit this thread's failpoint scope:
        // propagate it per job, as `batch_schedule` does.
        let fault_scope = failpoint::current_scope();
        let (tx, rx) = mpsc::channel::<(usize, Journal, Session)>();
        self.pool.run_indexed(n, move |i| {
            let _scope = fault_scope.map(failpoint::enter_scope);
            if let Some((journal, session)) = journals.recover(&paths[i]) {
                let _ = tx.send((i, journal, session));
            }
        });
        // Every job has finished (a panicked one sent nothing), so the
        // channel already holds all results.
        let mut recovered: Vec<_> = rx.try_iter().collect();
        recovered.sort_unstable_by_key(|&(i, ..)| i);
        for (_, journal, session) in recovered {
            let name = journal.session_name().to_owned();
            let slot = shard_of(&name, self.slots.len());
            let mut state = lock_recover(&self.slots[slot]);
            state.sessions.entry(name).or_insert(SessionEntry {
                session: Some(session),
                journal,
                recoveries: 0,
            });
            Counters::bump(&self.counters.boot_recovered);
        }
    }

    /// Slots this router shards sessions across.
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// Validates a request at intake and pins it to a slot. `Err` carries
    /// the ready-to-send error response (unknown/missing op, missing
    /// session, resource-limit violation) with the id echoed. Sessions
    /// pin by [`shard_of`] their name; the sessionless `batch_schedule`
    /// spreads by request id. `health` never reaches the router: the
    /// runtime answers it at intake with [`Router::health_json`].
    pub fn route(&self, id: &Json, request: &Json) -> Result<usize, Json> {
        let op = match request.get("op").and_then(Json::as_str) {
            Some(op) => op,
            None => return Err(fail(id.clone(), "missing \"op\"")),
        };
        if !KNOWN_OPS.contains(&op) {
            return Err(fail(id.clone(), format!("unknown op '{op}'")));
        }
        if let Some(error) = self.resource_violation(request, op) {
            return Err(fail(id.clone(), error));
        }
        if op == "batch_schedule" {
            // Sessionless: spread by request id.
            Ok(shard_of(&id.render(), self.slots.len()))
        } else {
            let Some(session) = request.get("session").and_then(Json::as_str) else {
                return Err(fail(id.clone(), "missing \"session\""));
            };
            Ok(shard_of(session, self.slots.len()))
        }
    }

    /// Executes one routed request against its slot's session table,
    /// isolating panics: a panicking handler yields an in-band
    /// `worker_panic` error and quarantines the targeted session. The
    /// caller must serialize calls per slot (one worker per slot).
    pub fn execute(&self, slot: usize, id: Json, request: &Json) -> Json {
        let session_name = request
            .get("session")
            .and_then(Json::as_str)
            .map(str::to_owned);
        let mut state = lock_recover(&self.slots[slot]);
        let journaled = self.journals.mirrored();
        let was_dirty = journaled && state.dirty(session_name.as_deref());
        // The catch is *inside* the lock scope: the guard drops normally,
        // so the slot mutex is never poisoned by a request panic.
        let response = match catch_unwind(AssertUnwindSafe(|| {
            self.handle(&mut state, id.clone(), request)
        })) {
            Ok(response) => response,
            Err(payload) => {
                Counters::bump(&self.counters.panics);
                // `&payload` would downcast against the `Box` itself;
                // deref to reach the boxed payload.
                let msg = panic_message(&*payload);
                let quarantined = session_name.as_deref().is_some_and(|name| {
                    let taken = state
                        .sessions
                        .get_mut(name)
                        .is_some_and(|entry| entry.session.take().is_some());
                    if taken {
                        Counters::bump(&self.counters.quarantined);
                    }
                    taken
                });
                let mut pairs = vec![
                    ("id", id),
                    ("ok", Json::Bool(false)),
                    ("error", Json::Str(format!("worker_panic: {msg}"))),
                    ("quarantined", Json::Bool(quarantined)),
                ];
                if let Some(name) = session_name.as_ref().filter(|_| quarantined) {
                    pairs.push(("session", Json::Str(name.clone())));
                    pairs.push(("recover_with", Json::Str("recover".to_owned())));
                }
                object(pairs)
            }
        };
        if journaled && !was_dirty && state.dirty(session_name.as_deref()) {
            state.unsynced.extend(session_name);
        }
        response
    }

    /// Group commit: flushes every buffered WAL line in the slot with one
    /// write+flush per dirty journal, visiting only the sessions whose
    /// journal went dirty since the last call. Called by a slot's worker
    /// after a request batch, before its responses leave. Free when no
    /// journal directory is configured.
    pub fn sync_journals(&self, slot: usize) {
        if !self.journals.mirrored() {
            return;
        }
        let mut state = lock_recover(&self.slots[slot]);
        let SlotState { sessions, unsynced } = &mut *state;
        for name in unsynced.drain(..) {
            // Gone when closed since: dropping a journal syncs it.
            if let Some(entry) = sessions.get_mut(&name) {
                entry.journal.sync();
            }
        }
    }

    /// The `health` op's response: shard count plus the router's
    /// monotonic liveness counters, readable at any time without
    /// touching a session table. Transports may extend the object with
    /// their own block (the socket server adds `"net"`: connection
    /// counts, eviction counters, drain state).
    pub fn health_json(&self, id: Json) -> Json {
        let s = self.stats();
        object([
            ("id", id),
            ("ok", Json::Bool(true)),
            (
                "health",
                object([
                    ("shards", Json::from(self.n_slots())),
                    ("sessions_opened", Json::from(s.sessions_opened)),
                    ("panics", Json::from(s.panics)),
                    ("quarantined", Json::from(s.quarantined)),
                    ("recoveries", Json::from(s.recoveries)),
                    ("snapshots", Json::from(s.snapshots)),
                    ("boot_recovered", Json::from(s.boot_recovered)),
                    ("wal_mirrors_lost", Json::from(s.wal_mirrors_lost)),
                ]),
            ),
        ])
    }

    /// A snapshot of the router's monotonic counters.
    pub fn stats(&self) -> RouterStats {
        let c = &self.counters;
        RouterStats {
            sessions_opened: c.opened.load(Ordering::Relaxed),
            panics: c.panics.load(Ordering::Relaxed),
            quarantined: c.quarantined.load(Ordering::Relaxed),
            recoveries: c.recoveries.load(Ordering::Relaxed),
            snapshots: c.snapshots.load(Ordering::Relaxed),
            boot_recovered: c.boot_recovered.load(Ordering::Relaxed),
            wal_mirrors_lost: self.journals.mirrors_lost(),
            cache: self.cache.stats(),
        }
    }

    /// Checks `open`/`batch_schedule` designs against the configured size
    /// limits, counting declared `op` and constraint lines with the
    /// parser's own tokenizer but without a full parse. Returns the exact
    /// in-band error for the first violation.
    fn resource_violation(&self, request: &Json, op: &str) -> Option<String> {
        if self.max_ops.is_none() && self.max_edges.is_none() {
            return None;
        }
        let check = |design: &str, label: &str| -> Option<String> {
            let (ops, edges) = directive_counts(design);
            if let Some(m) = self.max_ops {
                if ops > m {
                    return Some(format!(
                        "resource limit exceeded: design{label} has {ops} operations, limit {m}"
                    ));
                }
            }
            if let Some(m) = self.max_edges {
                if edges > m {
                    return Some(format!(
                        "resource limit exceeded: design{label} has {edges} constraint edges, limit {m}"
                    ));
                }
            }
            None
        };
        match op {
            "open" => check(request.get("design").and_then(Json::as_str)?, ""),
            "batch_schedule" => {
                for entry in request.get("designs").and_then(Json::as_array)? {
                    let Some(design) = entry.get("design").and_then(Json::as_str) else {
                        continue;
                    };
                    let name = entry.get("name").and_then(Json::as_str).unwrap_or("");
                    if let Some(err) = check(design, &format!(" '{name}'")) {
                        return Some(err);
                    }
                }
                None
            }
            _ => None,
        }
    }

    fn handle(&self, state: &mut SlotState, id: Json, request: &Json) -> Json {
        // Per-request fault site: an Error action is surfaced in-band, a
        // Panic action exercises the quarantine path, a Delay action
        // stalls the worker (for overload tests). One relaxed load when
        // disarmed.
        if let Some(msg) = rsched_graph::failpoint!("serve::handle") {
            return fail(id, format!("injected fault: {msg}"));
        }
        let op = match request.get("op").and_then(Json::as_str) {
            Some(op) => op,
            None => return fail(id, "missing \"op\""),
        };
        if op == "batch_schedule" {
            return batch_schedule(&self.cache, &self.pool, id, request);
        }
        let name = request
            .get("session")
            .and_then(Json::as_str)
            .expect("router verified")
            .to_owned();
        match op {
            "open" => {
                let Some(design) = request.get("design").and_then(Json::as_str) else {
                    return fail(id, "open needs a \"design\" (graph text format)");
                };
                let graph = match ConstraintGraph::from_text(design) {
                    Ok(g) => g,
                    Err(e) => return fail(id, format!("bad design: {e}")),
                };
                // Cache keys are canonical forms of *polar* graphs (the
                // space sessions live in); `from_text` already polarizes.
                debug_assert!(graph.is_polar());
                // One key per open: a miss hands back the key the
                // write-through below inserts under.
                let (seed, miss) = match self.cache.probe(&graph) {
                    Probe::Hit(seed) => (Some(seed), None),
                    Probe::Miss(key) => (None, Some(key)),
                    Probe::Off => (None, None),
                };
                let session = match Session::open_with_seed(graph, seed) {
                    Ok(s) => s,
                    Err(e) => return fail(id, format!("cannot open session: {e}")),
                };
                if let (Some(key), Some(omega)) = (miss, session.schedule()) {
                    if session.posedness().is_well_posed() {
                        self.cache.insert(&key, omega.remapped(&key.perm));
                    }
                }
                Counters::bump(&self.counters.opened);
                let journal = self.journals.open(&name, design);
                let body = [
                    ("vertices", Json::from(session.graph().n_vertices())),
                    ("edges", Json::from(session.graph().n_edges())),
                    ("anchors", Json::from(session.graph().n_anchors())),
                    ("verdict", verdict_json(&session)),
                ];
                let replaced = state
                    .sessions
                    .insert(
                        name,
                        SessionEntry {
                            session: Some(session),
                            journal,
                            recoveries: 0,
                        },
                    )
                    .is_some();
                let mut pairs = vec![("id", id), ("ok", Json::Bool(true))];
                pairs.extend(body);
                pairs.push(("replaced", Json::Bool(replaced)));
                object(pairs)
            }
            "edit" => with_live(state, &name, id, |id, entry| self.edit(entry, id, request)),
            "optimize" => with_live(state, &name, id, |id, entry| {
                self.optimize(entry, id, request)
            }),
            "schedule" => with_live(state, &name, id, |id, entry| {
                let s = entry.session.as_ref().expect("with_live verified");
                let mut pairs = vec![
                    ("id", id),
                    ("ok", Json::Bool(true)),
                    ("verdict", verdict_json(s)),
                ];
                if let Some(omega) = s.schedule() {
                    let anchors = Json::Array(
                        omega
                            .anchors()
                            .iter()
                            .map(|&a| Json::from(s.graph().vertex(a).name()))
                            .collect(),
                    );
                    let offsets = Json::Object(
                        s.graph()
                            .vertex_ids()
                            .map(|v| {
                                let row = Json::Object(
                                    omega
                                        .offsets_of(v)
                                        .map(|(a, o)| {
                                            (s.graph().vertex(a).name().to_owned(), Json::Int(o))
                                        })
                                        .collect(),
                                );
                                (s.graph().vertex(v).name().to_owned(), row)
                            })
                            .collect(),
                    );
                    pairs.push(("anchors", anchors));
                    pairs.push(("offsets", offsets));
                    pairs.push(("stale", Json::Bool(!s.posedness().is_well_posed())));
                }
                object(pairs)
            }),
            "stats" => {
                // Unlike edit/schedule, stats answers for quarantined
                // sessions too — operators need to see the journal state
                // to decide whether to recover or close.
                let Some(entry) = state.sessions.get(&name) else {
                    return fail(id, format!("unknown session '{name}'"));
                };
                let mut pairs = vec![("id", id), ("ok", Json::Bool(true))];
                if let Some(s) = &entry.session {
                    let st = s.stats();
                    pairs.extend([
                        ("edits", Json::from(st.edits)),
                        ("rejected", Json::from(st.rejected)),
                        ("noops", Json::from(st.noops)),
                        ("reschedules", Json::from(st.reschedules)),
                        ("warm_anchor_columns", Json::from(st.warm_anchor_columns)),
                        ("cold_anchor_columns", Json::from(st.cold_anchor_columns)),
                        ("iterations", Json::from(st.iterations)),
                        ("ill_posed", Json::from(st.ill_posed)),
                        ("unfeasible", Json::from(st.unfeasible)),
                        ("containment_checks", Json::from(st.containment_checks)),
                        ("vertices", Json::from(s.graph().n_vertices())),
                        ("edges", Json::from(s.graph().n_edges())),
                    ]);
                }
                pairs.extend([
                    ("quarantined", Json::Bool(entry.session.is_none())),
                    ("journal_len", Json::from(entry.journal.edits())),
                    ("total_edits", Json::from(entry.journal.total_edits())),
                    ("compactions", Json::from(entry.journal.compactions())),
                    ("recoveries", Json::from(entry.recoveries)),
                    ("cache", cache_json(&self.cache.stats())),
                ]);
                object(pairs)
            }
            "recover" => {
                let Some(entry) = state.sessions.get_mut(&name) else {
                    return fail(id, format!("unknown session '{name}'"));
                };
                let was_quarantined = entry.session.is_none();
                match entry.journal.replay() {
                    Ok(session) => {
                        entry.session = Some(session);
                        entry.recoveries += 1;
                        Counters::bump(&self.counters.recoveries);
                        object([
                            ("id", id),
                            ("ok", Json::Bool(true)),
                            ("recovered", Json::Bool(true)),
                            ("was_quarantined", Json::Bool(was_quarantined)),
                            ("edits_replayed", Json::from(entry.journal.edits())),
                            ("snapshot", Json::Bool(entry.journal.snapshotted())),
                            (
                                "verdict",
                                verdict_json(entry.session.as_ref().expect("just set")),
                            ),
                        ])
                    }
                    Err(e) => fail(id, format!("recover failed: {e}")),
                }
            }
            "close" => {
                if state.sessions.remove(&name).is_some() {
                    // Dropping the entry's journal syncs its WAL tail.
                    object([
                        ("id", id),
                        ("ok", Json::Bool(true)),
                        ("closed", Json::from(true)),
                    ])
                } else {
                    fail(id, format!("unknown session '{name}'"))
                }
            }
            other => fail(id, format!("unknown op '{other}'")),
        }
    }

    fn edit(&self, entry: &mut SessionEntry, id: Json, request: &Json) -> Json {
        let session = entry
            .session
            .as_mut()
            .expect("caller verified live session");
        // An injected `journal::snapshot` panic in the compaction unwinds
        // to `execute`'s catch with the journal intact.
        let (outcome, compacted) = match entry.journal.edit(session, request) {
            Ok(edited) => edited,
            Err(e) => return fail(id, e),
        };
        if compacted {
            Counters::bump(&self.counters.snapshots);
        }
        // Write-through: the post-edit graph now has a verified
        // schedule, so a later `open` of an isomorphic design hits.
        if let (EditOutcome::Rescheduled { .. }, Some(omega)) = (&outcome, session.schedule()) {
            self.cache.put(session.graph(), omega);
        }
        outcome_json(session, id, &outcome)
    }

    /// Runs the feedback-guided optimize loop on a live session
    /// (DESIGN.md §15). The loop executes on a *clone*: a panic mid-round
    /// unwinds to [`Router::execute`], which quarantines the untouched
    /// original — nothing half-optimized ever becomes visible. On
    /// success, accepted rounds' serialization edges are journaled as
    /// ordinary `add_dep` edits (reverted rounds net out and are not
    /// journaled), so recovery replays the whole exploration; the
    /// router's `--max-edges` quota caps the growth.
    fn optimize(&self, entry: &mut SessionEntry, id: Json, request: &Json) -> Json {
        let param = |key: &str, default: i64, lo: i64, hi: i64| -> Result<i64, String> {
            match request.get(key) {
                None => Ok(default),
                Some(v) => match v.as_i64() {
                    Some(n) if (lo..=hi).contains(&n) => Ok(n),
                    Some(n) => Err(format!("\"{key}\" must be in {lo}..={hi}, got {n}")),
                    None => Err(format!("\"{key}\" must be a number")),
                },
            }
        };
        let (max_rounds, slack_threshold, budget) = match (
            param("max_rounds", 8, 1, 64),
            param("slack_threshold", 0, 0, 4096),
            param("budget", 1, 1, 4096),
        ) {
            (Ok(r), Ok(s), Ok(b)) => (r as usize, s, b as usize),
            (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => return fail(id, e),
        };
        let style = match request.get("style").and_then(Json::as_str) {
            None | Some("counter") => rsched_ctrl::ControlStyle::Counter,
            Some("shift") => rsched_ctrl::ControlStyle::ShiftRegister,
            Some(other) => {
                return fail(id, format!("unknown style '{other}' (counter|shift)"));
            }
        };
        let config = OptimizeConfig {
            max_rounds,
            slack_threshold,
            budget,
            style,
            max_edges: self.max_edges,
            ..OptimizeConfig::default()
        };
        let session = entry
            .session
            .as_ref()
            .expect("caller verified live session");
        let mut optimizer = match Optimizer::new(session.clone(), config) {
            Ok(o) => o,
            Err(e) => return fail(id, format!("optimize failed: {e}")),
        };
        if let Err(e) = optimizer.run() {
            return fail(id, format!("optimize failed: {e}"));
        }
        let report = optimizer.report();
        let optimized = optimizer.into_session();

        let mut edges_added = 0usize;
        for round in report.rounds.iter().filter(|r| r.accepted) {
            for (from, to) in &round.applied_edges {
                entry.journal.append(JournalOp::AddDep {
                    from: from.clone(),
                    to: to.clone(),
                });
                edges_added += 1;
            }
        }
        entry.session = Some(optimized);
        let session = entry.session.as_ref().expect("just set");
        if edges_added > 0 {
            if entry.journal.maybe_compact(session) {
                Counters::bump(&self.counters.snapshots);
            }
            if let Some(omega) = session.schedule() {
                self.cache.put(session.graph(), omega);
            }
        }

        let objective_json = |o: &Objective| {
            Json::Object(vec![
                ("latency".to_owned(), Json::Int(o.latency as i64)),
                ("control".to_owned(), Json::Int(o.control as i64)),
                ("pressure".to_owned(), Json::Int(o.pressure as i64)),
            ])
        };
        let round_json = |r: &RoundReport| {
            Json::Object(vec![
                ("round".to_owned(), Json::from(r.round)),
                ("region_ops".to_owned(), Json::from(r.region_ops)),
                ("proposed_edges".to_owned(), Json::from(r.proposed_edges)),
                ("accepted".to_owned(), Json::Bool(r.accepted)),
                (
                    "edges".to_owned(),
                    Json::Array(
                        r.applied_edges
                            .iter()
                            .map(|(f, t)| Json::Str(format!("{f}->{t}")))
                            .collect(),
                    ),
                ),
                ("objective".to_owned(), objective_json(&r.after)),
            ])
        };
        object([
            ("id", id),
            ("ok", Json::Bool(true)),
            ("rounds", Json::from(report.rounds.len())),
            ("accepted_rounds", Json::from(report.accepted_rounds)),
            ("converged", Json::Bool(report.converged)),
            (
                "edge_budget_exhausted",
                Json::Bool(report.edge_budget_exhausted),
            ),
            ("edges_added", Json::from(edges_added)),
            ("initial", objective_json(&report.initial)),
            ("final", objective_json(&report.final_objective)),
            (
                "pareto",
                Json::Array(
                    report
                        .pareto_points()
                        .iter()
                        .map(|&(l, c)| Json::Array(vec![Json::Int(l as i64), Json::Int(c as i64)]))
                        .collect(),
                ),
            ),
            (
                "round_log",
                Json::Array(report.rounds.iter().map(round_json).collect()),
            ),
            ("verdict", verdict_json(session)),
        ])
    }
}

/// Runs the service until `input` reaches EOF, writing responses to
/// `output`: a blocking reader over the shared shard runtime
/// ([`crate::runtime`]), answering intake rejections and `health` itself
/// and letting the workers write the rest.
///
/// # Errors
///
/// Only I/O errors on the transport are fatal; malformed requests,
/// handler panics, shed load, and resource-limit rejections are all
/// answered in-band with `"ok":false`.
pub fn serve<R, W>(mut input: R, output: W, config: &ServeConfig) -> io::Result<ServeSummary>
where
    R: BufRead,
    W: Write + Send,
{
    let runtime = Runtime::new(config);
    let out = Mutex::new(Output {
        inner: output,
        responses: 0,
        errors: 0,
        broken: None,
    });
    runtime.run(&out, |mut intake| -> io::Result<()> {
        // Byte-level framing rather than `lines()`: a frame of binary
        // junk (invalid UTF-8) is a hostile *request*, not a transport
        // failure — it is answered in-band and the stream continues,
        // matching the socket server.
        let mut frame = Vec::new();
        loop {
            frame.clear();
            if input.read_until(b'\n', &mut frame)? == 0 {
                return Ok(()); // EOF.
            }
            if frame.last() == Some(&b'\n') {
                frame.pop();
            }
            let response = match intake.frame(&frame) {
                Frame::Skip => continue,
                Frame::Answer(response) => response,
                Frame::Health(id) => intake.router().health_json(id),
                Frame::Route(routed) => match intake.dispatch(routed, ()) {
                    // The next read may block, so wake the worker now.
                    Ok(()) => {
                        intake.flush();
                        continue;
                    }
                    Err(response) => response,
                },
            };
            let mut out = lock_recover(&out);
            out.write(&Reply::new(&response));
            out.flush();
            if out.broken.is_some() {
                return Ok(()); // Nobody is reading the answers any more.
            }
        }
    })?;

    let out = out.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = out.broken {
        return Err(e);
    }
    let router_stats = runtime.router().stats();
    Ok(ServeSummary {
        requests: out.responses,
        errors: out.errors,
        sessions_opened: router_stats.sessions_opened,
        panics: router_stats.panics,
        quarantined: router_stats.quarantined,
        recoveries: router_stats.recoveries,
        snapshots: router_stats.snapshots,
        shed: runtime.shed(),
        workers_respawned: runtime.respawned(),
    })
}

/// FNV-1a pin of a session name (or other key) to one of `n_shards`
/// slots. Public so every transport shards identically: a session served
/// over the socket listener lands on the same kind of slot as over
/// stdio, and a client can predict co-location.
pub fn shard_of(key: &str, n_shards: usize) -> usize {
    (journal::fnv1a(key) % n_shards.max(1) as u64) as usize
}

/// The stdio transport's output, shared by the reader and the workers.
struct Output<W: Write> {
    inner: W,
    responses: usize,
    errors: usize,
    /// The first write failure. Nothing is written after it, and `serve`
    /// returns it.
    broken: Option<io::Error>,
}

impl<W: Write> Output<W> {
    fn write(&mut self, reply: &Reply) {
        self.responses += 1;
        self.errors += usize::from(reply.failed);
        if self.broken.is_none() {
            if let Err(e) = self.inner.write_all(reply.line.as_bytes()) {
                self.broken = Some(e);
            }
        }
    }

    fn flush(&mut self) {
        if self.broken.is_none() {
            if let Err(e) = self.inner.flush() {
                self.broken = Some(e);
            }
        }
    }
}

impl<W: Write + Send> Sink for Mutex<Output<W>> {
    type Tag = ();

    /// The batch leaves under one lock and one flush.
    fn deliver(&self, batch: &mut Vec<((), Reply)>) {
        let mut out = lock_recover(self);
        for ((), reply) in batch.drain(..) {
            out.write(&reply);
        }
        out.flush();
    }
}

/// Renders the schedule-cache counters for the `stats` op. With the cache
/// disabled (the default) every field is a deterministic zero, so the
/// object is safe to include in differential-tested responses.
fn cache_json(stats: &CacheStats) -> Json {
    let int = |v: u64| Json::Int(i64::try_from(v).unwrap_or(i64::MAX));
    object([
        ("hits", int(stats.hits)),
        ("misses", int(stats.misses)),
        ("evictions", int(stats.evictions)),
        ("inserts", int(stats.inserts)),
        ("entries", int(stats.entries)),
        ("mean_hit_nanos", int(stats.mean_hit_nanos())),
    ])
}

/// The standard `{"id":…,"ok":false,"error":…}` response. Public so
/// every transport shapes errors identically.
pub fn error_response(id: Json, message: impl Into<String>) -> Json {
    object([
        ("id", id),
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.into())),
    ])
}

/// Internal shorthand for [`error_response`].
fn fail(id: Json, message: impl Into<String>) -> Json {
    error_response(id, message)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Schedules each design in `"designs"` independently — no session state
/// is created — fanning the batch across the router's shared
/// [`WorkPool`] (the request's legacy `"threads"` field is accepted but
/// no longer spawns anything: pool size is a deployment decision, set
/// once via [`ServeConfig::threads`]). Each design consults the
/// canonical-form cache and otherwise runs the cold single-thread
/// scheduler; either way results are bit-identical to individual `open`
/// requests, and the response lists them in input order regardless of
/// completion order.
fn batch_schedule(cache: &Arc<ScheduleCache>, pool: &WorkPool, id: Json, request: &Json) -> Json {
    let Some(designs) = request.get("designs").and_then(Json::as_array) else {
        return fail(id, "batch_schedule needs a \"designs\" array");
    };
    // Pool workers are long-lived OS threads without the request
    // handler's ambient failpoint scope: propagate it per job so injected
    // faults reach the fan-out work too.
    let fault_scope = failpoint::current_scope();
    let (res_tx, res_rx) = mpsc::channel::<(usize, Json)>();
    let jobs = designs
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, entry)| {
            let cache = Arc::clone(cache);
            let res_tx = res_tx.clone();
            Box::new(move || {
                let _scope = fault_scope.map(failpoint::enter_scope);
                let _ = res_tx.send((i, batch_entry(&cache, &entry)));
            }) as Box<dyn FnOnce() + Send + 'static>
        })
        .collect();
    drop(res_tx);
    pool.run(jobs);
    let mut results = vec![Json::Null; designs.len()];
    let mut filled = vec![false; designs.len()];
    for (i, result) in res_rx {
        results[i] = result;
        filled[i] = true;
    }
    if let Some(i) = filled.iter().position(|f| !f) {
        // The pool caught a panic before the job could report. Re-raise
        // so the request-level quarantine answers in-band, exactly as
        // the scoped-thread fan-out used to.
        panic!("batch_schedule design {i} panicked before reporting");
    }
    object([
        ("id", id),
        ("ok", Json::Bool(true)),
        ("results", Json::Array(results)),
    ])
}

/// Parses, polarizes, and schedules one `{"name", "design"}` entry
/// through the canonical-form cache (a cache hit is bit-identical to the
/// cold run, so the response shape never reveals which path served it).
fn batch_entry(cache: &ScheduleCache, entry: &Json) -> Json {
    let name = Json::from(entry.get("name").and_then(Json::as_str).unwrap_or(""));
    let bad = |name: Json, error: String| {
        object([
            ("name", name),
            ("ok", Json::Bool(false)),
            ("error", Json::Str(error)),
        ])
    };
    let Some(design) = entry.get("design").and_then(Json::as_str) else {
        return bad(name, "missing \"design\"".to_owned());
    };
    let graph = match ConstraintGraph::from_text(design) {
        Ok(g) => g,
        Err(e) => return bad(name, format!("bad design: {e}")),
    };
    debug_assert!(graph.is_polar(), "from_text polarizes");
    match schedule_cached(cache, &graph) {
        Ok((omega, _)) => object([
            ("name", name),
            ("ok", Json::Bool(true)),
            ("verdict", Json::from("well-posed")),
            ("iterations", Json::from(omega.iterations())),
            (
                "anchors",
                Json::Array(
                    omega
                        .anchors()
                        .iter()
                        .map(|&a| Json::from(graph.vertex(a).name()))
                        .collect(),
                ),
            ),
            ("vertices", Json::from(graph.n_vertices())),
            ("edges", Json::from(graph.n_edges())),
        ]),
        Err(ScheduleError::Unfeasible { witness }) => object([
            ("name", name),
            ("ok", Json::Bool(true)),
            (
                "verdict",
                object([
                    ("kind", Json::from("unfeasible")),
                    ("witness", Json::from(graph.vertex(witness).name())),
                ]),
            ),
        ]),
        Err(ScheduleError::IllPosed { from, to, missing }) => object([
            ("name", name),
            ("ok", Json::Bool(true)),
            (
                "verdict",
                object([
                    ("kind", Json::from("ill-posed")),
                    ("from", Json::from(graph.vertex(from).name())),
                    ("to", Json::from(graph.vertex(to).name())),
                    (
                        "missing",
                        Json::Array(
                            missing
                                .iter()
                                .map(|&a| Json::from(graph.vertex(a).name()))
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ]),
        Err(e) => bad(name, format!("cannot schedule: {}", e.render(&graph))),
    }
}

/// Runs `f` on the named entry if it exists *and* its session is live;
/// quarantined sessions answer with an error naming the `recover` op.
fn with_live(
    state: &mut SlotState,
    name: &str,
    id: Json,
    f: impl FnOnce(Json, &mut SessionEntry) -> Json,
) -> Json {
    match state.sessions.get_mut(name) {
        None => fail(id, format!("unknown session '{name}'")),
        Some(entry) if entry.session.is_none() => fail(
            id,
            format!(
                "session '{name}' is quarantined after a panic; \
                 send {{\"op\":\"recover\"}} to restore it or close it"
            ),
        ),
        Some(entry) => f(id, entry),
    }
}

fn outcome_json(session: &Session, id: Json, outcome: &EditOutcome) -> Json {
    match outcome {
        EditOutcome::Unchanged => object([
            ("id", id),
            ("ok", Json::Bool(true)),
            ("outcome", Json::from("unchanged")),
        ]),
        EditOutcome::Rescheduled {
            iterations,
            warm_anchors,
            total_anchors,
        } => object([
            ("id", id),
            ("ok", Json::Bool(true)),
            ("outcome", Json::from("rescheduled")),
            ("iterations", Json::from(*iterations)),
            ("warm_anchors", Json::from(*warm_anchors)),
            ("total_anchors", Json::from(*total_anchors)),
        ]),
        EditOutcome::IllPosed { violations } => object([
            ("id", id),
            ("ok", Json::Bool(true)),
            ("outcome", Json::from("ill-posed")),
            (
                "violations",
                Json::Array(
                    violations
                        .iter()
                        .map(|v| {
                            object([
                                ("from", Json::from(session.graph().vertex(v.from).name())),
                                ("to", Json::from(session.graph().vertex(v.to).name())),
                                (
                                    "missing",
                                    Json::Array(
                                        v.missing
                                            .iter()
                                            .map(|&a| Json::from(session.graph().vertex(a).name()))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        EditOutcome::Unfeasible { witness } => object([
            ("id", id),
            ("ok", Json::Bool(true)),
            ("outcome", Json::from("unfeasible")),
            (
                "witness",
                Json::from(session.graph().vertex(*witness).name()),
            ),
        ]),
        EditOutcome::Rejected { error } => fail(
            id,
            format!("edit rejected: {}", error.render(session.graph())),
        ),
    }
}

fn verdict_json(session: &Session) -> Json {
    match session.posedness() {
        WellPosedness::WellPosed => Json::from("well-posed"),
        WellPosedness::IllPosed { violations } => object([
            ("kind", Json::from("ill-posed")),
            ("violations", Json::from(violations.len())),
        ]),
        WellPosedness::Unfeasible { witness } => object([
            ("kind", Json::from("unfeasible")),
            (
                "witness",
                Json::from(session.graph().vertex(*witness).name()),
            ),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_graph::failpoint::FailAction;
    use std::path::Path;

    const DESIGN: &str =
        "op sync unbounded\nop alu 2\nop out 1\ndep sync alu\ndep alu out\nmax alu out 4\n";

    fn run_lines(lines: &[String], config: &ServeConfig) -> (Vec<Json>, ServeSummary) {
        let input = lines.join("\n");
        let mut output = Vec::new();
        let summary = serve(input.as_bytes(), &mut output, config).unwrap();
        let responses = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        (responses, summary)
    }

    fn req(id: i64, session: &str, rest: &str) -> String {
        format!(r#"{{"id":{id},"session":"{session}",{rest}}}"#)
    }

    fn by_id(responses: &[Json], id: i64) -> &Json {
        responses
            .iter()
            .find(|r| r.get("id").and_then(Json::as_i64) == Some(id))
            .unwrap_or_else(|| panic!("no response with id {id}"))
    }

    #[test]
    fn open_edit_schedule_stats_close_round_trip() {
        let design = DESIGN.replace('\n', "\\n");
        let lines = vec![
            req(1, "s", &format!(r#""op":"open","design":"{design}""#)),
            req(
                2,
                "s",
                r#""op":"edit","kind":"add_min","from":"alu","to":"out","value":3"#,
            ),
            req(3, "s", r#""op":"schedule""#),
            req(4, "s", r#""op":"stats""#),
            req(5, "s", r#""op":"close""#),
            req(6, "s", r#""op":"schedule""#),
        ];
        let (responses, summary) = run_lines(&lines, &ServeConfig::default());
        assert_eq!(summary.requests, 6);
        assert_eq!(summary.sessions_opened, 1);
        assert_eq!(
            by_id(&responses, 1).get("verdict").unwrap(),
            &Json::from("well-posed")
        );
        let edit = by_id(&responses, 2);
        assert_eq!(edit.get("outcome").unwrap(), &Json::from("rescheduled"));
        assert_eq!(
            edit.get("warm_anchors").unwrap(),
            edit.get("total_anchors").unwrap(),
            "additive edits warm-start every anchor"
        );
        let sched = by_id(&responses, 3);
        let sigma = sched
            .get("offsets")
            .and_then(|o| o.get("out"))
            .and_then(|r| r.get("sync"))
            .and_then(Json::as_i64);
        assert_eq!(sigma, Some(3), "min constraint pushed out to 3 after sync");
        let stats = by_id(&responses, 4);
        assert!(stats.get("reschedules").and_then(Json::as_i64) >= Some(2));
        assert_eq!(stats.get("journal_len"), Some(&Json::Int(1)));
        assert_eq!(stats.get("total_edits"), Some(&Json::Int(1)));
        assert_eq!(stats.get("compactions"), Some(&Json::Int(0)));
        assert_eq!(stats.get("quarantined"), Some(&Json::Bool(false)));
        assert_eq!(by_id(&responses, 5).get("ok"), Some(&Json::Bool(true)));
        // After close, the session is gone.
        assert_eq!(by_id(&responses, 6).get("ok"), Some(&Json::Bool(false)));
        assert_eq!(summary.errors, 1);
    }

    /// A rejected edit names the operations the client sent, not the
    /// session's internal vertex ids.
    #[test]
    fn rejected_edits_name_operations() {
        let design = DESIGN.replace('\n', "\\n");
        let lines = vec![
            req(1, "s", &format!(r#""op":"open","design":"{design}""#)),
            req(
                2,
                "s",
                r#""op":"edit","kind":"add_dep","from":"out","to":"alu""#,
            ),
            req(
                3,
                "s",
                r#""op":"edit","kind":"add_dep","from":"sink","to":"alu""#,
            ),
        ];
        let (responses, _) = run_lines(&lines, &ServeConfig::default());
        for (id, error) in [
            (
                2,
                "edit rejected: edge out -> alu would create a cycle in the forward constraint graph",
            ),
            (
                3,
                "edit rejected: edge sink -> alu violates polarity (source has no predecessors, sink no successors)",
            ),
        ] {
            let answer = by_id(&responses, id);
            assert_eq!(answer.get("ok"), Some(&Json::Bool(false)));
            assert_eq!(answer.get("error"), Some(&Json::from(error)), "id {id}");
        }
    }

    /// Four concurrent 2-cycle ops: under a unit budget the optimize
    /// loop must serialize them (pressure 0 at the end).
    const FAN_DESIGN: &str = "op a 2\nop b 2\nop c 2\nop d 2\n";

    #[test]
    fn optimize_round_trip_journals_accepted_edits() {
        let design = FAN_DESIGN.replace('\n', "\\n");
        let lines = vec![
            req(1, "s", &format!(r#""op":"open","design":"{design}""#)),
            req(2, "s", r#""op":"optimize","budget":1"#),
            req(3, "s", r#""op":"schedule""#),
            req(4, "s", r#""op":"stats""#),
            req(5, "s", r#""op":"recover""#),
            req(6, "s", r#""op":"schedule""#),
        ];
        let (responses, summary) = run_lines(&lines, &ServeConfig::default());
        assert_eq!(summary.errors, 0);
        let opt = by_id(&responses, 2);
        assert_eq!(opt.get("ok"), Some(&Json::Bool(true)));
        assert!(opt.get("accepted_rounds").and_then(Json::as_i64) >= Some(1));
        let edges_added = opt.get("edges_added").and_then(Json::as_i64).unwrap();
        assert!(edges_added >= 1, "unit budget must serialize the fan");
        assert_eq!(
            opt.get("final").and_then(|o| o.get("pressure")),
            Some(&Json::Int(0)),
            "accepted state must fit the budget"
        );
        assert_eq!(opt.get("converged"), Some(&Json::Bool(true)));
        assert_eq!(opt.get("verdict"), Some(&Json::from("well-posed")));
        // Accepted edges journal as ordinary edits...
        let stats = by_id(&responses, 4);
        assert_eq!(stats.get("journal_len"), Some(&Json::Int(edges_added)));
        // ...so recovery replays the exploration: the replayed session's
        // schedule is identical to the live optimized one.
        let recover = by_id(&responses, 5);
        assert_eq!(recover.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(recover.get("edits_replayed"), Some(&Json::Int(edges_added)));
        assert_eq!(
            by_id(&responses, 6).get("offsets"),
            by_id(&responses, 3).get("offsets"),
            "recovered schedule must match the optimized one"
        );
    }

    #[test]
    fn optimize_respects_edge_quota_and_validates_params() {
        let design = FAN_DESIGN.replace('\n', "\\n");
        let lines = vec![
            req(1, "s", &format!(r#""op":"open","design":"{design}""#)),
            req(2, "s", r#""op":"optimize","budget":0"#),
            req(3, "s", r#""op":"optimize","max_rounds":1000"#),
            req(4, "s", r#""op":"optimize","style":"thermometer""#),
            req(5, "s", r#""op":"optimize","budget":1"#),
        ];
        let config = ServeConfig {
            // Zero headroom: the loop must stop before adding any edge.
            max_edges: Some(0),
            ..ServeConfig::default()
        };
        let (responses, _) = run_lines(&lines, &config);
        for id in 2..=4 {
            assert_eq!(by_id(&responses, id).get("ok"), Some(&Json::Bool(false)));
        }
        let opt = by_id(&responses, 5);
        assert_eq!(opt.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(opt.get("edge_budget_exhausted"), Some(&Json::Bool(true)));
        assert_eq!(opt.get("edges_added"), Some(&Json::Int(0)));
        assert_eq!(opt.get("accepted_rounds"), Some(&Json::Int(0)));
    }

    #[test]
    fn malformed_and_unknown_requests_answer_in_band() {
        let design = DESIGN.replace('\n', "\\n");
        let mut lines = vec![
            "{not json".to_owned(),
            req(1, "nope", r#""op":"schedule""#),
            req(2, "s", r#""op":"frobnicate""#),
            r#"{"id":3,"op":"schedule"}"#.to_owned(),
            req(4, "s", &format!(r#""op":"open","design":"{design}""#)),
        ];
        // One malformed edit per protocol error, each with its exact text.
        let edits = [
            (r#""op":"edit""#, r#"edit needs a \"kind\""#),
            (
                r#""op":"edit","kind":"add_dep","to":"out""#,
                r#"edit kind 'add_dep' needs \"from\""#,
            ),
            (
                r#""op":"edit","kind":"add_min","from":"alu","value":3"#,
                r#"edit kind 'add_min' needs \"to\""#,
            ),
            (
                r#""op":"edit","kind":"set_delay","delay":3"#,
                r#"edit kind 'set_delay' needs \"vertex\""#,
            ),
            (
                r#""op":"edit","kind":"add_max","from":"alu","to":"out","value":-1"#,
                r#"edit kind 'add_max' needs a non-negative \"value\""#,
            ),
            (
                r#""op":"edit","kind":"set_delay","vertex":"alu","delay":"soon""#,
                r#"\"delay\" must be a cycle count or \"unbounded\""#,
            ),
            (
                r#""op":"edit","kind":"set_delay","vertex":"alu""#,
                r#"edit kind 'set_delay' needs \"delay\""#,
            ),
            (
                r#""op":"edit","kind":"rename","from":"alu","to":"out""#,
                "unknown edit kind 'rename'",
            ),
            (
                r#""op":"edit","kind":"add_dep","from":"alu","to":"nonesuch""#,
                "no operation named 'nonesuch'",
            ),
            // set_delay resolves its vertex before it reads the delay.
            (
                r#""op":"edit","kind":"set_delay","vertex":"nonesuch","delay":"soon""#,
                "no operation named 'nonesuch'",
            ),
            (
                r#""op":"edit","kind":"remove_edge","from":"out","to":"sync""#,
                "no live edge between those operations",
            ),
        ];
        for (id, (edit, _)) in (10..).zip(&edits) {
            lines.push(req(id, "s", edit));
        }
        let (responses, summary) = run_lines(&lines, &ServeConfig::default());
        assert_eq!(summary.requests, 5 + edits.len());
        assert_eq!(summary.errors, 4 + edits.len());
        for (id, (_, error)) in (10..).zip(&edits) {
            let expected = format!(r#"{{"id":{id},"ok":false,"error":"{error}"}}"#);
            assert_eq!(by_id(&responses, id).render(), expected);
        }
        assert!(responses.iter().any(|r| r.get("id") == Some(&Json::Null)
            && r.get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("malformed")));
        assert!(by_id(&responses, 3)
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("session"));
    }

    #[test]
    fn unknown_or_missing_op_echoes_id_with_exact_shape() {
        // Locks the error contract: a frame with an unknown or missing
        // op — even without a "session" — is answered in-band with its
        // id echoed (null when the frame had none or did not parse), as
        // exactly `{"id":…,"ok":false,"error":…}`.
        let lines = vec![
            r#"{"id":7,"op":"frobnicate"}"#.to_owned(),
            r#"{"id":"x9"}"#.to_owned(),
            "{not json".to_owned(),
        ];
        let (responses, summary) = run_lines(&lines, &ServeConfig::default());
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.errors, 3);
        assert_eq!(
            by_id(&responses, 7),
            &Json::parse(r#"{"id":7,"ok":false,"error":"unknown op 'frobnicate'"}"#).unwrap()
        );
        let missing_op = responses
            .iter()
            .find(|r| r.get("id") == Some(&Json::Str("x9".to_owned())))
            .expect("missing-op frame must be answered");
        assert_eq!(
            missing_op,
            &Json::parse(r#"{"id":"x9","ok":false,"error":"missing \"op\""}"#).unwrap()
        );
        let malformed = responses
            .iter()
            .find(|r| r.get("id") == Some(&Json::Null))
            .expect("unparsable frame must be answered under id null");
        assert_eq!(malformed.get("ok"), Some(&Json::Bool(false)));
        assert!(malformed
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("malformed request:"));
    }

    #[test]
    fn zero_deadline_expires_before_execution() {
        let design = DESIGN.replace('\n', "\\n");
        let lines = vec![
            req(1, "s", &format!(r#""op":"open","design":"{design}""#)),
            req(2, "s", r#""op":"schedule","deadline_ms":0"#),
            req(3, "s", r#""op":"schedule""#),
        ];
        let (responses, _) = run_lines(&lines, &ServeConfig::default());
        let expired = by_id(&responses, 2);
        assert_eq!(expired.get("ok"), Some(&Json::Bool(false)));
        assert!(expired
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("deadline"));
        // Later requests on the same session still execute.
        assert_eq!(by_id(&responses, 3).get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn batch_schedule_returns_results_in_input_order() {
        let design = DESIGN.replace('\n', "\\n");
        // d1 is unfeasible (min 9 against max 4), d2 is malformed.
        let infeasible = format!("{design}min alu out 9\\n");
        let lines = vec![format!(
            concat!(
                r#"{{"id":1,"op":"batch_schedule","threads":4,"designs":["#,
                r#"{{"name":"d0","design":"{d0}"}},"#,
                r#"{{"name":"d1","design":"{d1}"}},"#,
                r#"{{"name":"d2","design":"op oops"}},"#,
                r#"{{"name":"d3","design":"{d0}"}}]}}"#
            ),
            d0 = design,
            d1 = infeasible,
        )];
        let (responses, summary) = run_lines(&lines, &ServeConfig::default());
        assert_eq!(summary.requests, 1);
        assert_eq!(summary.sessions_opened, 0);
        let response = by_id(&responses, 1);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        let results = response.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(
                r.get("name").and_then(Json::as_str),
                Some(&*format!("d{i}"))
            );
        }
        assert_eq!(
            results[0].get("verdict").unwrap(),
            &Json::from("well-posed")
        );
        assert_eq!(
            results[1]
                .get("verdict")
                .and_then(|v| v.get("kind"))
                .and_then(Json::as_str),
            Some("unfeasible")
        );
        assert_eq!(results[2].get("ok"), Some(&Json::Bool(false)));
        assert!(results[2]
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("bad design"));
        // The same design gives the same result wherever it sits in the batch.
        assert_eq!(results[3].get("iterations"), results[0].get("iterations"));
        assert_eq!(results[3].get("anchors"), results[0].get("anchors"));
    }

    #[test]
    fn batch_schedule_thread_counts_agree() {
        let design = DESIGN.replace('\n', "\\n");
        let batch = |id: i64, threads: usize| {
            let entries: Vec<String> = (0..6)
                .map(|i| format!(r#"{{"name":"d{i}","design":"{design}"}}"#))
                .collect();
            format!(
                r#"{{"id":{id},"op":"batch_schedule","threads":{threads},"designs":[{}]}}"#,
                entries.join(",")
            )
        };
        let (responses, _) = run_lines(&[batch(1, 1), batch(2, 8)], &ServeConfig::default());
        let serial = by_id(&responses, 1).get("results").cloned();
        let fanned = by_id(&responses, 2).get("results").cloned();
        assert!(serial.is_some());
        assert_eq!(serial, fanned);
    }

    #[test]
    fn sessions_are_independent_across_workers() {
        let design = DESIGN.replace('\n', "\\n");
        let mut lines = Vec::new();
        for (i, name) in ["a", "b", "c", "d"].iter().enumerate() {
            let base = (i as i64) * 10;
            lines.push(req(
                base + 1,
                name,
                &format!(r#""op":"open","design":"{design}""#),
            ));
            lines.push(req(
                base + 2,
                name,
                r#""op":"edit","kind":"set_delay","vertex":"alu","delay":"unbounded""#,
            ));
            lines.push(req(
                base + 3,
                name,
                r#""op":"edit","kind":"set_delay","vertex":"alu","delay":2"#,
            ));
            lines.push(req(base + 4, name, r#""op":"schedule""#));
        }
        let (responses, summary) = run_lines(
            &lines,
            &ServeConfig {
                workers: 3,
                ..ServeConfig::default()
            },
        );
        assert_eq!(summary.sessions_opened, 4);
        assert_eq!(summary.errors, 0);
        for i in 0..4 {
            let base = (i as i64) * 10;
            // Unbounded alu makes the max constraint ill-posed…
            assert_eq!(
                by_id(&responses, base + 2)
                    .get("outcome")
                    .and_then(Json::as_str),
                Some("ill-posed")
            );
            // …and restoring the fixed delay heals it, in order, per session.
            assert_eq!(
                by_id(&responses, base + 3)
                    .get("outcome")
                    .and_then(Json::as_str),
                Some("rescheduled")
            );
            assert_eq!(
                by_id(&responses, base + 4).get("verdict").unwrap(),
                &Json::from("well-posed")
            );
        }
    }

    #[test]
    fn panic_is_isolated_and_session_recovers() {
        const SCOPE: u64 = 0x5e41;
        let design = DESIGN.replace('\n', "\\n");
        // Requests on one worker execute in order: open and the first
        // edit pass (skip 2), the second edit panics (count 1).
        let _g = failpoint::arm("serve::handle", Some(SCOPE), FailAction::Panic, 2, Some(1));
        let lines = vec![
            req(1, "s", &format!(r#""op":"open","design":"{design}""#)),
            req(
                2,
                "s",
                r#""op":"edit","kind":"add_min","from":"alu","to":"out","value":3"#,
            ),
            req(
                3,
                "s",
                r#""op":"edit","kind":"add_min","from":"sync","to":"out","value":1"#,
            ),
            req(4, "s", r#""op":"schedule""#),
            req(5, "s", r#""op":"stats""#),
            req(6, "s", r#""op":"recover""#),
            req(7, "s", r#""op":"schedule""#),
        ];
        let (responses, summary) = run_lines(
            &lines,
            &ServeConfig {
                workers: 1,
                fault_scope: Some(SCOPE),
                ..ServeConfig::default()
            },
        );
        let panic = by_id(&responses, 3);
        assert_eq!(panic.get("ok"), Some(&Json::Bool(false)));
        assert!(panic
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("worker_panic:"));
        assert_eq!(panic.get("quarantined"), Some(&Json::Bool(true)));
        // Quarantined: schedule refuses, stats still reports.
        let refused = by_id(&responses, 4);
        assert_eq!(refused.get("ok"), Some(&Json::Bool(false)));
        assert!(refused
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("quarantined"));
        let stats = by_id(&responses, 5);
        assert_eq!(stats.get("quarantined"), Some(&Json::Bool(true)));
        assert_eq!(stats.get("journal_len"), Some(&Json::Int(1)));
        // Recover replays the journal (open + 1 accepted edit)…
        let recover = by_id(&responses, 6);
        assert_eq!(recover.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(recover.get("was_quarantined"), Some(&Json::Bool(true)));
        assert_eq!(recover.get("edits_replayed"), Some(&Json::Int(1)));
        assert_eq!(recover.get("snapshot"), Some(&Json::Bool(false)));
        // …and the schedule afterwards reflects exactly that edit.
        let sched = by_id(&responses, 7);
        assert_eq!(sched.get("ok"), Some(&Json::Bool(true)));
        let sigma = sched
            .get("offsets")
            .and_then(|o| o.get("out"))
            .and_then(|r| r.get("sync"))
            .and_then(Json::as_i64);
        assert_eq!(sigma, Some(3), "recovered state includes the accepted edit");
        assert_eq!(summary.panics, 1);
        assert_eq!(summary.quarantined, 1);
        assert_eq!(summary.recoveries, 1);
        assert_eq!(summary.requests, 7);
    }

    #[test]
    fn worker_death_respawns_and_loses_nothing() {
        const SCOPE: u64 = 0x5e42;
        let design = DESIGN.replace('\n', "\\n");
        // The kill site is evaluated once per job attempt, before recv:
        // skip 1 lets the open through, then the worker dies with the
        // remaining jobs queued. The replacement drains them.
        let _g = failpoint::arm(
            "serve::worker_kill",
            Some(SCOPE),
            FailAction::Panic,
            1,
            Some(1),
        );
        let lines = vec![
            req(1, "s", &format!(r#""op":"open","design":"{design}""#)),
            req(
                2,
                "s",
                r#""op":"edit","kind":"add_min","from":"alu","to":"out","value":3"#,
            ),
            req(3, "s", r#""op":"schedule""#),
        ];
        let (responses, summary) = run_lines(
            &lines,
            &ServeConfig {
                workers: 1,
                fault_scope: Some(SCOPE),
                ..ServeConfig::default()
            },
        );
        assert_eq!(
            summary.requests, 3,
            "every request answered despite the kill"
        );
        assert_eq!(summary.errors, 0);
        assert!(summary.workers_respawned >= 1);
        assert_eq!(
            by_id(&responses, 2).get("outcome").and_then(Json::as_str),
            Some("rescheduled"),
            "session opened before the kill survives into the respawned worker"
        );
        assert_eq!(by_id(&responses, 3).get("ok"), Some(&Json::Bool(true)));
    }

    /// Feeds each chunk after its delay, so a test can let the worker
    /// reach a known state (e.g. stalled in a Delay failpoint) before the
    /// intake sees the next requests.
    struct PacedReader {
        chunks: std::vec::IntoIter<(u64, Vec<u8>)>,
    }

    impl io::Read for PacedReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.chunks.next() {
                None => Ok(0),
                Some((delay_ms, bytes)) => {
                    thread::sleep(Duration::from_millis(delay_ms));
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
            }
        }
    }

    #[test]
    fn full_queue_sheds_with_retry_hint() {
        const SCOPE: u64 = 0x5e43;
        let design = DESIGN.replace('\n', "\\n");
        // Stall the worker on the first request so the single-slot queue
        // fills: request 2 queues, request 3 is shed at intake. The
        // paced input guarantees the worker has already dequeued request
        // 1 (and is sleeping in the failpoint) before 2 and 3 arrive.
        let _g = failpoint::arm(
            "serve::handle",
            Some(SCOPE),
            FailAction::Delay(Duration::from_millis(500)),
            0,
            Some(1),
        );
        let chunks = vec![
            (
                0,
                format!(
                    "{}\n",
                    req(1, "s", &format!(r#""op":"open","design":"{design}""#))
                ),
            ),
            (
                150,
                format!(
                    "{}\n{}\n",
                    req(2, "s", r#""op":"schedule""#),
                    req(3, "s", r#""op":"schedule""#)
                ),
            ),
        ];
        let input = io::BufReader::new(PacedReader {
            chunks: chunks
                .into_iter()
                .map(|(d, s)| (d, s.into_bytes()))
                .collect::<Vec<_>>()
                .into_iter(),
        });
        let mut output = Vec::new();
        let summary = serve(
            input,
            &mut output,
            &ServeConfig {
                workers: 1,
                queue_depth: 1,
                fault_scope: Some(SCOPE),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let responses: Vec<Json> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(summary.requests, 3, "shed requests are still answered");
        assert!(summary.shed >= 1);
        let shed = by_id(&responses, 3);
        assert_eq!(shed.get("ok"), Some(&Json::Bool(false)));
        assert!(shed
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("overloaded:"));
        assert_eq!(
            shed.get("retry_after_ms"),
            Some(&Json::Int(crate::runtime::RETRY_AFTER_MS))
        );
        // The queued request (2) still executed after the stall.
        assert_eq!(by_id(&responses, 2).get("ok"), Some(&Json::Bool(true)));
    }

    /// Input that stays open until the test drops the sender; each sent
    /// chunk is one read.
    struct HeldReader(mpsc::Receiver<Vec<u8>>);

    impl io::Read for HeldReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.recv() {
                Ok(bytes) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Err(_) => Ok(0),
            }
        }
    }

    /// Output that hands every write to the test as it happens.
    struct LineTap(mpsc::Sender<Vec<u8>>);

    impl Write for LineTap {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let _ = self.0.send(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn killed_worker_answers_queued_jobs_before_eof() {
        const SCOPE: u64 = 0x5e45;
        let design = DESIGN.replace('\n', "\\n");
        // The open stalls, so requests 2 and 3 queue behind it; the kill
        // then fires on the worker's next pass (skip 1) with both queued.
        let _stall = failpoint::arm(
            "serve::handle",
            Some(SCOPE),
            FailAction::Delay(Duration::from_millis(150)),
            0,
            Some(1),
        );
        let _kill = failpoint::arm(
            "serve::worker_kill",
            Some(SCOPE),
            FailAction::Panic,
            1,
            Some(1),
        );
        let (input, held) = mpsc::channel();
        let (tap, written) = mpsc::channel();
        let server = thread::spawn(move || {
            serve(
                io::BufReader::new(HeldReader(held)),
                LineTap(tap),
                &ServeConfig {
                    workers: 1,
                    fault_scope: Some(SCOPE),
                    ..ServeConfig::default()
                },
            )
        });
        let frames = [
            req(1, "s", &format!(r#""op":"open","design":"{design}""#)),
            req(
                2,
                "s",
                r#""op":"edit","kind":"add_min","from":"alu","to":"out","value":3"#,
            ),
            req(3, "s", r#""op":"schedule""#),
        ];
        input
            .send(format!("{}\n", frames.join("\n")).into_bytes())
            .unwrap();
        // The input stays open: every answer must arrive without EOF.
        let mut text = String::new();
        while text.matches('\n').count() < 3 {
            let Ok(bytes) = written.recv_timeout(Duration::from_secs(5)) else {
                break;
            };
            text.push_str(std::str::from_utf8(&bytes).unwrap());
        }
        let answered: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        drop(input);
        let summary = server.join().unwrap().unwrap();
        assert_eq!(answered.len(), 3, "answered before EOF: {answered:?}");
        assert_eq!(summary.workers_respawned, 1);
        assert_eq!(
            by_id(&answered, 2).get("outcome").and_then(Json::as_str),
            Some("rescheduled")
        );
        assert_eq!(by_id(&answered, 3).get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn a_worker_write_failure_is_returned() {
        struct Refuse;
        impl Write for Refuse {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let design = DESIGN.replace('\n', "\\n");
        // Only a worker answers this open: the reader writes nothing.
        let input = req(1, "s", &format!(r#""op":"open","design":"{design}""#));
        let err = serve(input.as_bytes(), Refuse, &ServeConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn health_is_answered_at_intake_past_a_wedged_worker() {
        const SCOPE: u64 = 0x5e46;
        let design = DESIGN.replace('\n', "\\n");
        let _wedge = failpoint::arm(
            "serve::handle",
            Some(SCOPE),
            FailAction::Delay(Duration::from_millis(500)),
            0,
            Some(1),
        );
        // The health frame arrives while the only worker is stalled in
        // the open.
        let chunks = vec![
            (
                0,
                format!(
                    "{}\n",
                    req(1, "s", &format!(r#""op":"open","design":"{design}""#))
                ),
            ),
            (100, "{\"id\":2,\"op\":\"health\"}\n".to_owned()),
        ];
        let input = io::BufReader::new(PacedReader {
            chunks: chunks
                .into_iter()
                .map(|(d, s)| (d, s.into_bytes()))
                .collect::<Vec<_>>()
                .into_iter(),
        });
        let mut output = Vec::new();
        let config = ServeConfig {
            workers: 1,
            fault_scope: Some(SCOPE),
            ..ServeConfig::default()
        };
        serve(input, &mut output, &config).unwrap();
        let responses: Vec<Json> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        let ids: Vec<_> = responses.iter().filter_map(|r| r.get("id")).collect();
        assert_eq!(
            ids,
            [&Json::Int(2), &Json::Int(1)],
            "health jumps the queue"
        );
        let health = responses[0].get("health").unwrap();
        assert_eq!(health.get("shards"), Some(&Json::Int(1)));
        assert_eq!(responses[1].get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn resource_limits_reject_at_intake_with_exact_shape() {
        let design = DESIGN.replace('\n', "\\n"); // 3 ops, 3 constraint lines
        let lines = vec![
            req(1, "s", &format!(r#""op":"open","design":"{design}""#)),
            format!(
                r#"{{"id":2,"op":"batch_schedule","designs":[{{"name":"big","design":"{design}"}}]}}"#
            ),
        ];
        let (responses, summary) = run_lines(
            &lines,
            &ServeConfig {
                max_ops: Some(2),
                ..ServeConfig::default()
            },
        );
        assert_eq!(summary.errors, 2);
        assert_eq!(summary.sessions_opened, 0);
        assert_eq!(
            by_id(&responses, 1),
            &Json::parse(
                r#"{"id":1,"ok":false,"error":"resource limit exceeded: design has 3 operations, limit 2"}"#
            )
            .unwrap()
        );
        assert_eq!(
            by_id(&responses, 2),
            &Json::parse(
                r#"{"id":2,"ok":false,"error":"resource limit exceeded: design 'big' has 3 operations, limit 2"}"#
            )
            .unwrap()
        );
        // Edge limits use their own message.
        let (responses, _) = run_lines(
            &lines[..1],
            &ServeConfig {
                max_edges: Some(1),
                ..ServeConfig::default()
            },
        );
        assert!(by_id(&responses, 1)
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("3 constraint edges, limit 1"));
    }

    /// The limits count directives as the parser reads them: a tab, a
    /// CRLF line end or U+3000 after the keyword cannot slip a line past
    /// the count, and a commented-out line is not counted.
    #[test]
    fn resource_limits_count_any_whitespace_like_the_parser() {
        let designs = [
            r"op\ta 1\nop\tb 1\nop\tc 1\ndep\ta b\n",
            r"op a 1\r\nop b 1\r\nop\u3000c 1\r\nmin\u3000a b 1\r\n",
            r"# op x 1\n  op a 1 # op y 1\nop b 1\n\top c 1\n#dep a b\nmax\ta\u3000b 2\n",
        ];
        for design in designs {
            let lines = [req(1, "s", &format!(r#""op":"open","design":"{design}""#))];
            let (responses, _) = run_lines(
                &lines,
                &ServeConfig {
                    max_ops: Some(2),
                    ..ServeConfig::default()
                },
            );
            assert_eq!(
                by_id(&responses, 1).get("error").and_then(Json::as_str),
                Some("resource limit exceeded: design has 3 operations, limit 2"),
                "{design}"
            );
            let (responses, _) = run_lines(
                &lines,
                &ServeConfig {
                    max_ops: Some(3),
                    max_edges: Some(1),
                    ..ServeConfig::default()
                },
            );
            assert_eq!(
                by_id(&responses, 1).get("ok"),
                Some(&Json::Bool(true)),
                "{design}"
            );
        }
    }

    #[test]
    fn recover_works_on_live_sessions_and_rejects_unknown() {
        let design = DESIGN.replace('\n', "\\n");
        let lines = vec![
            req(1, "s", &format!(r#""op":"open","design":"{design}""#)),
            req(
                2,
                "s",
                r#""op":"edit","kind":"add_min","from":"alu","to":"out","value":3"#,
            ),
            req(3, "s", r#""op":"schedule""#),
            req(4, "s", r#""op":"recover""#),
            req(5, "s", r#""op":"schedule""#),
            req(6, "ghost", r#""op":"recover""#),
        ];
        let (responses, summary) = run_lines(&lines, &ServeConfig::default());
        let recover = by_id(&responses, 4);
        assert_eq!(recover.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(recover.get("was_quarantined"), Some(&Json::Bool(false)));
        // Replay of a live session is an identity: same offsets.
        assert_eq!(
            by_id(&responses, 3).get("offsets"),
            by_id(&responses, 5).get("offsets")
        );
        assert_eq!(by_id(&responses, 6).get("ok"), Some(&Json::Bool(false)));
        assert_eq!(summary.recoveries, 1);
    }

    #[test]
    fn an_answered_edit_is_already_in_the_wal() {
        const SCOPE: u64 = 0x5e47;
        let dir = std::env::temp_dir().join(format!("rsched_ack_commit_{}", std::process::id()));
        let design = DESIGN.replace('\n', "\\n");
        // From the kill-site evaluation right after the edit is answered
        // on, the worker stalls there 300 ms: a WAL line written only
        // after that point would still be buffered when the answer lands.
        let _stall = failpoint::arm(
            "serve::worker_kill",
            Some(SCOPE),
            FailAction::Delay(Duration::from_millis(300)),
            2,
            None,
        );
        let (input, held) = mpsc::channel();
        let (tap, written) = mpsc::channel();
        let config = ServeConfig {
            workers: 1,
            journal_dir: Some(dir.clone()),
            fault_scope: Some(SCOPE),
            ..ServeConfig::default()
        };
        let server = thread::spawn(move || {
            serve(io::BufReader::new(HeldReader(held)), LineTap(tap), &config)
        });
        let answer = |line: String| {
            input.send(format!("{line}\n").into_bytes()).unwrap();
            let bytes = written.recv_timeout(Duration::from_secs(5)).unwrap();
            Json::parse(std::str::from_utf8(&bytes).unwrap().trim_end()).unwrap()
        };
        let open = answer(req(1, "s", &format!(r#""op":"open","design":"{design}""#)));
        assert_eq!(open.get("ok"), Some(&Json::Bool(true)));
        let edit = answer(req(
            2,
            "s",
            r#""op":"edit","kind":"add_min","from":"alu","to":"out","value":3"#,
        ));
        assert_eq!(edit.get("ok"), Some(&Json::Bool(true)));
        let wal = std::fs::read_to_string(journal::wal_path(&dir, "s")).unwrap();
        drop(input);
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            wal.lines().count(),
            2,
            "the answered edit is on disk: {wal}"
        );
        assert!(wal.lines().nth(1).unwrap().contains("\"op\":\"add_min\""));
    }

    #[test]
    fn sync_journals_visits_only_the_edited_session() {
        let dir = std::env::temp_dir().join(format!("rsched_sync_dirty_{}", std::process::id()));
        let router = Router::new(
            1,
            &ServeConfig {
                journal_dir: Some(dir.clone()),
                ..ServeConfig::default()
            },
        );
        let design = DESIGN.replace('\n', "\\n");
        let names: Vec<String> = (0..1001).map(|i| format!("s{i}")).collect();
        for (id, name) in names.iter().enumerate() {
            let open = req(
                id as i64,
                name,
                &format!(r#""op":"open","design":"{design}""#),
            );
            router.execute(0, Json::Null, &Json::parse(&open).unwrap());
        }
        router.sync_journals(0);
        let lengths = || -> Vec<u64> {
            names
                .iter()
                .map(|name| {
                    std::fs::metadata(journal::wal_path(&dir, name))
                        .unwrap()
                        .len()
                })
                .collect()
        };
        let before = lengths();
        let edit = req(
            0,
            "s7",
            r#""op":"edit","kind":"add_min","from":"alu","to":"out","value":3"#,
        );
        router.execute(0, Json::Null, &Json::parse(&edit).unwrap());
        assert_eq!(lock_recover(&router.slots[0]).unsynced, ["s7"]);
        router.sync_journals(0);
        let after = lengths();
        let _ = std::fs::remove_dir_all(&dir);
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            if i == 7 {
                assert!(a > b, "the edited session's WAL grew");
            } else {
                assert_eq!(a, b, "idle session s{i} untouched");
            }
        }
    }

    #[test]
    fn journal_dir_mirrors_sessions_to_wal_files() {
        let dir = std::env::temp_dir().join(format!("rsched_serve_wal_{}", std::process::id()));
        let design = DESIGN.replace('\n', "\\n");
        let lines = vec![
            req(
                1,
                "my session!",
                &format!(r#""op":"open","design":"{design}""#),
            ),
            req(
                2,
                "my session!",
                r#""op":"edit","kind":"add_min","from":"alu","to":"out","value":3"#,
            ),
        ];
        let (_, summary) = run_lines(
            &lines,
            &ServeConfig {
                workers: 1,
                journal_dir: Some(dir.clone()),
                ..ServeConfig::default()
            },
        );
        assert_eq!(summary.errors, 0);
        let wal = journal::wal_path(&dir, "my session!");
        let text = std::fs::read_to_string(&wal).expect("WAL mirror written");
        assert_eq!(
            text.lines().count(),
            2,
            "open + one accepted edit, group-committed by EOF"
        );
        assert!(text.lines().nth(1).unwrap().contains("\"op\":\"add_min\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_lost_wal_mirror_is_counted_and_requests_still_succeed() {
        // A journal directory that is a regular file: no WAL can be
        // created in it, so every session loses its mirror at open.
        let file = std::env::temp_dir().join(format!("rsched_lost_wal_{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let router = Router::new(
            1,
            &ServeConfig {
                journal_dir: Some(file.clone()),
                ..ServeConfig::default()
            },
        );
        let design = DESIGN.replace('\n', "\\n");
        for name in ["a", "b"] {
            let open = req_json(name, &format!(r#""op":"open","design":"{design}""#));
            let response = router.execute(0, Json::Int(1), &open);
            assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response:?}");
        }
        let edit = req_json(
            "a",
            r#""op":"edit","kind":"add_min","from":"alu","to":"out","value":3"#,
        );
        let response = router.execute(0, Json::Int(2), &edit);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response:?}");
        router.sync_journals(0);
        let _ = std::fs::remove_file(&file);
        assert_eq!(router.stats().wal_mirrors_lost, 2, "one loss per session");
        assert_eq!(
            router
                .health_json(Json::Int(3))
                .get("health")
                .and_then(|h| h.get("wal_mirrors_lost")),
            Some(&Json::Int(2))
        );
    }

    #[test]
    fn snapshot_every_compacts_and_recovery_replays_delta_only() {
        let dir = std::env::temp_dir().join(format!("rsched_serve_snap_{}", std::process::id()));
        let design = DESIGN.replace('\n', "\\n");
        // Five accepted edits with snapshot_every=2: compactions after
        // edits 2 and 4, leaving a 1-edit delta.
        let mut lines = vec![req(1, "s", &format!(r#""op":"open","design":"{design}""#))];
        for (i, v) in [3i64, 1, 4, 2, 3].iter().enumerate() {
            lines.push(req(
                i as i64 + 2,
                "s",
                &format!(r#""op":"edit","kind":"set_delay","vertex":"alu","delay":{v}"#),
            ));
        }
        lines.push(req(10, "s", r#""op":"stats""#));
        lines.push(req(11, "s", r#""op":"recover""#));
        lines.push(req(12, "s", r#""op":"schedule""#));
        let (responses, summary) = run_lines(
            &lines,
            &ServeConfig {
                workers: 1,
                snapshot_every: 2,
                journal_dir: Some(dir.clone()),
                ..ServeConfig::default()
            },
        );
        assert_eq!(summary.errors, 0);
        assert_eq!(summary.snapshots, 2);
        let stats = by_id(&responses, 10);
        assert_eq!(stats.get("journal_len"), Some(&Json::Int(1)));
        assert_eq!(stats.get("total_edits"), Some(&Json::Int(5)));
        assert_eq!(stats.get("compactions"), Some(&Json::Int(2)));
        let recover = by_id(&responses, 11);
        assert_eq!(recover.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            recover.get("edits_replayed"),
            Some(&Json::Int(1)),
            "recovery replays only the post-snapshot delta"
        );
        assert_eq!(recover.get("snapshot"), Some(&Json::Bool(true)));
        // The recovered schedule reflects the full edit history: the
        // last set_delay put alu at 3, so out trails sync by 3.
        let sigma = by_id(&responses, 12)
            .get("offsets")
            .and_then(|o| o.get("out"))
            .and_then(|r| r.get("sync"))
            .and_then(Json::as_i64);
        assert_eq!(sigma, Some(3));
        // The WAL was rewritten to snapshot + delta, not full history.
        let wal = journal::wal_path(&dir, "s");
        let text = std::fs::read_to_string(&wal).expect("WAL mirror written");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"op\":\"snapshot\""), "{text}");
        assert_eq!(lines.len(), 2, "snapshot base + 1 delta edit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn boot_recovery_rebuilds_sessions_across_restarts() {
        // Kill-and-restart: run one serve process to completion with a
        // journal directory, then start a second one over the same
        // directory. The second process must answer for the first one's
        // session — schedule, stats, and further edits — without any
        // client re-open, and the rebuilt offsets must match.
        let dir = std::env::temp_dir().join(format!("rsched_boot_recover_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            journal_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let design = DESIGN.replace('\n', "\\n");
        let run1 = vec![
            req(1, "s", &format!(r#""op":"open","design":"{design}""#)),
            req(
                2,
                "s",
                r#""op":"edit","kind":"add_min","from":"alu","to":"out","value":3"#,
            ),
            req(3, "s", r#""op":"schedule""#),
        ];
        let (before, summary1) = run_lines(&run1, &config);
        assert_eq!(summary1.errors, 0);
        let offsets_before = by_id(&before, 3).get("offsets").cloned().unwrap();

        // "Restart": a fresh serve over the same journal directory, with
        // no open — every request targets the recovered session.
        let run2 = vec![
            req(10, "s", r#""op":"stats""#),
            req(11, "s", r#""op":"schedule""#),
            req(
                12,
                "s",
                r#""op":"edit","kind":"add_min","from":"sync","to":"out","value":1"#,
            ),
        ];
        let (after, summary2) = run_lines(&run2, &config);
        assert_eq!(summary2.errors, 0, "recovered session must be live");
        let stats = by_id(&after, 10);
        assert_eq!(stats.get("quarantined"), Some(&Json::Bool(false)));
        assert_eq!(stats.get("journal_len"), Some(&Json::Int(1)));
        let offsets_after = by_id(&after, 11).get("offsets").cloned().unwrap();
        assert_eq!(
            offsets_after, offsets_before,
            "recovered schedule diverges from the pre-restart one"
        );
        // The Router-level counter records the rebuild.
        let router = Router::new(2, &config);
        assert_eq!(router.stats().boot_recovered, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn boot_recovery_truncates_a_torn_wal_tail() {
        // A crash mid-append leaves a half-written last line. Recovery
        // must keep the good prefix, rewrite the file to it, and still
        // rebuild the session.
        let dir = std::env::temp_dir().join(format!("rsched_boot_torn_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            journal_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let design = DESIGN.replace('\n', "\\n");
        let run1 = vec![req(1, "s", &format!(r#""op":"open","design":"{design}""#))];
        let (_, summary1) = run_lines(&run1, &config);
        assert_eq!(summary1.errors, 0);
        let wal = journal::wal_path(&dir, "s");
        let mut text = std::fs::read_to_string(&wal).unwrap();
        text.push_str("{\"op\":\"add_min\",\"fr"); // torn mid-record
        std::fs::write(&wal, &text).unwrap();

        let router = Router::new(2, &config);
        assert_eq!(router.stats().boot_recovered, 1);
        let rewritten = std::fs::read_to_string(&wal).unwrap();
        assert!(
            !rewritten.contains("\"fr"),
            "torn tail must be truncated, got: {rewritten}"
        );
        let slot = shard_of("s", router.n_slots());
        let response = router.execute(slot, Json::Int(1), &req_json("s", r#""op":"schedule""#));
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn boot_recovery_terminates_a_last_record_cut_before_its_newline() {
        // A crash can cut a record exactly before its `\n`. The line still
        // parses, so it is not torn; but an edit appended after it must
        // land on a line of its own, or the next boot finds one unparsable
        // line and keeps nothing.
        let dir =
            std::env::temp_dir().join(format!("rsched_boot_unterminated_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            journal_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let design = DESIGN.replace('\n', "\\n");
        let run1 = vec![req(1, "s", &format!(r#""op":"open","design":"{design}""#))];
        assert_eq!(run_lines(&run1, &config).1.errors, 0);
        let wal = journal::wal_path(&dir, "s");
        let text = std::fs::read_to_string(&wal).unwrap();
        std::fs::write(&wal, text.trim_end_matches('\n')).unwrap();

        let edit = r#""op":"edit","kind":"add_min","from":"alu","to":"out","value":3"#;
        let (_, summary2) = run_lines(&[req(2, "s", edit)], &config);
        assert_eq!(summary2.errors, 0, "the open survived the cut");
        let (after, summary3) = run_lines(&[req(3, "s", r#""op":"stats""#)], &config);
        assert_eq!(
            summary3.errors, 0,
            "open and edit both survive the next boot"
        );
        assert_eq!(
            by_id(&after, 3).get("journal_len"),
            Some(&Json::Int(1)),
            "the edit"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sessions written by [`boot_fixture`]; the pool sizes compared below
    /// are both smaller than this, so jobs queue and interleave.
    const BOOT_SESSIONS: usize = 10;

    /// Fills `dir` with the WALs of [`BOOT_SESSIONS`] sessions (varied
    /// designs and edit counts, some compacted to snapshots), then damages
    /// it the ways a crash or an old process leaves it: one torn tail, one
    /// WAL in the pre-name format, and a second WAL naming an existing
    /// session (first in path order wins). Returns each session's
    /// `schedule` answer before shutdown, by name.
    fn boot_fixture(dir: &Path) -> Vec<(String, String)> {
        let _ = std::fs::remove_dir_all(dir);
        let config = ServeConfig {
            journal_dir: Some(dir.to_owned()),
            snapshot_every: 2,
            threads: 1,
            ..ServeConfig::default()
        };
        let router = Router::new(3, &config);
        let mut answers = Vec::new();
        for k in 0..BOOT_SESSIONS {
            let name = format!("s{k}");
            let design = format!(
                "op sync unbounded\\nop a {}\\nop b 2\\nop out 1\\ndep sync a\\ndep a b\\ndep b out\\nmax a out {}\\n",
                1 + k % 3,
                6 + k
            );
            let mut lines = vec![format!(r#""op":"open","design":"{design}""#)];
            for e in 0..k % 4 {
                lines.push(match e {
                    0 => format!(
                        r#""op":"edit","kind":"add_min","from":"a","to":"b","value":{}"#,
                        k % 3
                    ),
                    1 => r#""op":"edit","kind":"set_delay","vertex":"b","delay":1"#.to_owned(),
                    _ => r#""op":"edit","kind":"add_min","from":"sync","to":"out","value":2"#
                        .to_owned(),
                });
            }
            let slot = shard_of(&name, router.n_slots());
            for (id, line) in (0..).zip(&lines) {
                let response = router.execute(slot, Json::Int(id), &req_json(&name, line));
                assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response:?}");
            }
            router.sync_journals(slot);
            let answer = router.execute(slot, Json::Int(0), &req_json(&name, r#""op":"schedule""#));
            answers.push((name, answer.render()));
        }
        drop(router);
        let torn = journal::wal_path(dir, "s3");
        let mut text = std::fs::read_to_string(&torn).unwrap();
        text.push_str("{\"op\":\"add_min\",\"fr");
        std::fs::write(&torn, text).unwrap();
        let design = DESIGN.replace('\n', "\\n");
        std::fs::write(
            dir.join("legacy.wal"),
            format!("{{\"op\":\"open\",\"design\":\"{design}\"}}\n"),
        )
        .unwrap();
        let mut dup = std::fs::read_to_string(journal::wal_path(dir, "s5")).unwrap();
        dup.push_str("{\"op\":\"set_delay\",\"vertex\":\"b\",\"delay\":5}\n");
        std::fs::write(dir.join("zz-dup.wal"), dup).unwrap();
        answers.sort();
        answers
    }

    /// A recovered session's name, slot and rendered `schedule` answer.
    type BootSession = (String, usize, String);

    /// Everything boot recovery leaves behind, rendered for comparison:
    /// the session → slot map, each session's `schedule` answer, and the
    /// WAL directory's files by name.
    fn boot_outcome(router: &Router, dir: &Path) -> (Vec<BootSession>, Vec<(String, Vec<u8>)>) {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        let mut sessions = Vec::new();
        for slot in 0..router.n_slots() {
            let names: Vec<String> = lock_recover(&router.slots[slot])
                .sessions
                .keys()
                .cloned()
                .collect();
            for name in names {
                let answer = router
                    .execute(slot, Json::Int(0), &req_json(&name, r#""op":"schedule""#))
                    .render();
                sessions.push((name, slot, answer));
            }
        }
        sessions.sort();
        (sessions, files)
    }

    #[test]
    fn boot_recovery_is_identical_for_every_pool_size() {
        let root = std::env::temp_dir().join(format!("rsched_boot_pool_{}", std::process::id()));
        let mut outcomes = Vec::new();
        for threads in [1, 4] {
            let dir = root.join(format!("t{threads}"));
            let before = boot_fixture(&dir);
            let config = ServeConfig {
                journal_dir: Some(dir.clone()),
                snapshot_every: 2,
                threads,
                ..ServeConfig::default()
            };
            let router = Router::new(3, &config);
            // Every named WAL, the duplicate included; not the pre-name one.
            assert_eq!(router.stats().boot_recovered, BOOT_SESSIONS + 1);
            let (sessions, files) = boot_outcome(&router, &dir);
            assert_eq!(sessions.len(), BOOT_SESSIONS, "threads={threads}");
            // Each session answers as it did before shutdown; for `s5`
            // that is its own WAL's state, not the later duplicate's.
            let after: Vec<(String, String)> = sessions
                .iter()
                .map(|(n, _, a)| (n.clone(), a.clone()))
                .collect();
            assert_eq!(after, before, "threads={threads}");
            let torn = &files
                .iter()
                .find(|(f, _)| dir.join(f) == journal::wal_path(&dir, "s3"))
                .unwrap()
                .1;
            assert!(torn.ends_with(b"}\n"), "torn tail kept");
            assert!(files.iter().all(|(f, _)| f.ends_with(".wal")), "{files:?}");
            outcomes.push((router.stats().boot_recovered, sessions, files));
        }
        assert!(
            outcomes[0] == outcomes[1],
            "boot differs between pool sizes"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn boot_recovery_skips_a_wal_whose_replay_panics() {
        const SCOPE: u64 = 0xB007;
        let root = std::env::temp_dir().join(format!("rsched_boot_panic_{}", std::process::id()));
        let boot = |dir: &Path| {
            Router::new(
                3,
                &ServeConfig {
                    journal_dir: Some(dir.to_owned()),
                    snapshot_every: 2,
                    threads: 4,
                    fault_scope: Some(SCOPE),
                    ..ServeConfig::default()
                },
            )
        };
        let clean_dir = root.join("clean");
        boot_fixture(&clean_dir);
        let clean = boot(&clean_dir);
        let (clean_sessions, clean_files) = boot_outcome(&clean, &clean_dir);

        let dir = root.join("panic");
        boot_fixture(&dir);
        let router = {
            let _scope = failpoint::enter_scope(SCOPE);
            let _armed =
                failpoint::arm("kernel::build", Some(SCOPE), FailAction::Panic, 0, Some(1));
            boot(&dir)
        };
        assert_eq!(
            router.stats().boot_recovered,
            clean.stats().boot_recovered - 1,
            "exactly one replay panicked and was skipped"
        );
        let (sessions, files) = boot_outcome(&router, &dir);
        assert!(sessions.len() + 1 >= clean_sessions.len());
        for session in &sessions {
            assert!(clean_sessions.contains(session), "{session:?} diverges");
        }
        // The skipped WAL stays on disk as the clean boot left it.
        assert_eq!(files, clean_files);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Parses a request body the way `run_lines` inputs are written.
    fn req_json(session: &str, rest: &str) -> Json {
        Json::parse(&req(1, session, rest)).unwrap()
    }

    #[test]
    fn open_hits_cache_for_isomorphic_designs() {
        // Same structure, different operation names and declaration
        // order: the second open must be served from the canonical-form
        // cache, and its schedule must carry the *second* design's names.
        let config = ServeConfig {
            cache_capacity: 64,
            workers: 1,
            ..ServeConfig::default()
        };
        let design_a = DESIGN.replace('\n', "\\n");
        let design_b = "op b_out 1\\nop b_sync unbounded\\nop b_alu 2\\ndep b_sync b_alu\\ndep b_alu b_out\\nmax b_alu b_out 4\\n";
        let lines = vec![
            req(1, "a", &format!(r#""op":"open","design":"{design_a}""#)),
            req(2, "b", &format!(r#""op":"open","design":"{design_b}""#)),
            req(3, "a", r#""op":"schedule""#),
            req(4, "b", r#""op":"schedule""#),
            req(5, "a", r#""op":"stats""#),
        ];
        let (responses, summary) = run_lines(&lines, &config);
        assert_eq!(summary.errors, 0);
        let cache = by_id(&responses, 5).get("cache").cloned().unwrap();
        assert_eq!(cache.get("hits"), Some(&Json::Int(1)), "{cache:?}");
        assert_eq!(cache.get("misses"), Some(&Json::Int(1)));
        assert_eq!(cache.get("inserts"), Some(&Json::Int(1)));
        let sigma = |r: &Json, v: &str, a: &str| {
            r.get("offsets")
                .and_then(|o| o.get(v))
                .and_then(|row| row.get(a))
                .and_then(Json::as_i64)
        };
        let a = by_id(&responses, 3);
        let b = by_id(&responses, 4);
        assert_eq!(
            sigma(a, "out", "sync"),
            sigma(b, "b_out", "b_sync"),
            "cached schedule must be identical under the hit's own names"
        );
        assert!(sigma(b, "b_out", "b_sync").is_some());
    }

    #[test]
    fn batch_schedule_responses_are_identical_with_and_without_cache() {
        // The cache must be response-invisible: the same batch (with an
        // internal duplicate, so the cached run takes hits) produces
        // byte-identical results either way.
        let design = DESIGN.replace('\n', "\\n");
        let line = format!(
            r#"{{"id":1,"op":"batch_schedule","designs":[{{"name":"x","design":"{design}"}},{{"name":"y","design":"{design}"}},{{"name":"z","design":"bad"}}]}}"#
        );
        let run = |capacity: usize| {
            let config = ServeConfig {
                cache_capacity: capacity,
                ..ServeConfig::default()
            };
            let (responses, _) = run_lines(std::slice::from_ref(&line), &config);
            responses[0].clone()
        };
        assert_eq!(run(0), run(64));
    }
}
