//! Append-only session journals with deterministic replay recovery,
//! periodic snapshots, and WAL compaction.
//!
//! Every serve session keeps a [`Journal`]: a **base record** (the
//! opening design text, or the most recent snapshot) plus each *accepted*
//! mutating edit since, recorded by operation **name** (not `VertexId`),
//! so the whole history replays through a fresh [`Session`] regardless of
//! internal id assignment. When a request panics mid-edit the live
//! `Session` may be half-mutated and is quarantined; the journal —
//! appended only *after* an edit is accepted — still describes the last
//! consistent state, and [`Journal::replay`] rebuilds it
//! deterministically. Replay is bit-identical to the live session at
//! every prefix (`posedness()`, offsets, anchor roster): the engine's
//! differential guarantees already pin every edit path to the cold
//! scheduler, and the journal is exactly that edit sequence.
//!
//! # Snapshots & compaction
//!
//! Without compaction, replay cost is O(full edit history): a session
//! alive for a million edits takes a million reschedules to recover.
//! [`Journal::maybe_compact`] bounds this: once the delta since the base
//! reaches `snapshot_every` accepted edits **and** the live session is in
//! a snapshot-safe state, the session's current graph is serialized
//! (`ConstraintGraph::to_text`) into a [`JournalOp::Snapshot`] base
//! record, the in-memory delta is dropped, and the WAL mirror is
//! atomically rewritten (temp file + rename) to just the snapshot line.
//! Replay then costs one open plus O(`snapshot_every`) edits regardless
//! of lifetime history — the Temporal `ContinueAsNew` pattern applied to
//! constraint-graph sessions.
//!
//! A snapshot holds the design, not the schedule. The minimum relative
//! schedule is a function of the constraint graph, which the iterative
//! incremental scheduler reaches in at most |E_b| + 1 iterations
//! (Theorem 8, Corollary 2), so [`Journal::replay`] opens a snapshot with
//! [`Session::open`] exactly like the opening design: recovery has one
//! path. The one number of the live run that the graph does not fix, its
//! `iterations()`, rides along on the line, and the reopened schedule
//! reports it. Snapshot lines written while they also carried the
//! schedule (an `"analysis"` field) still parse; only its count is read.
//!
//! Snapshot safety: the engine's differential guarantees make a live
//! well-posed session's observable state (graph, verdict, anchors,
//! offsets) bit-identical to `Session::open` on its current graph text,
//! so compaction requires the session to be **well-posed**, the graph
//! **polar** (reopening would otherwise re-polarize and add edges), and
//! all operation **names unique** (`to_text` disambiguates duplicates by
//! renaming, which would orphan name-keyed delta edits). When any of
//! these fail the compaction is simply deferred — correctness never
//! depends on a snapshot happening.
//!
//! A crash **mid-snapshot** (failpoint site `journal::snapshot`, armed as
//! a panic) is harmless: the failpoint sits before any state mutation, so
//! the pre-snapshot base, delta, and WAL file all remain intact and
//! recovery replays them as if the snapshot was never attempted.
//!
//! # WAL group commit
//!
//! Journals can optionally be mirrored to a write-ahead file (one JSON
//! object per line) under `--journal-dir`, giving operators an audit
//! trail that survives the process. [`Journal::append`] only **buffers**
//! the WAL line; [`Journal::sync`] writes every buffered line with a
//! single write + flush. The serve layer syncs once per drained request
//! batch (group commit) instead of once per op — the per-request
//! write+flush syscalls were measured at ~58% of a serve round. A mirror
//! I/O error never fails a request: the journal drops its mirror, keeps
//! recording in memory (which `recover` replays), and the router counts
//! the loss as `wal_mirrors_lost`. Dropping a journal syncs any remaining
//! buffered lines.
//!
//! This module alone knows the edit record and the WAL file: one decoder
//! serves `edit` requests and WAL lines, one function applies a record to
//! a [`Session`] for live edits and replay, and [`Journal::recover`] reads
//! a WAL file back at boot.

use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rsched_graph::{ConstraintGraph, ExecDelay};

use crate::json::{object, Json};
use crate::session::{EditOutcome, Session};

/// One replayable session record, keyed by operation names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalOp {
    /// `Session::open` on a design in the graph text format.
    Open {
        /// The design source; replay re-parses it.
        design: String,
        /// The serve-layer session name, written into the WAL so a
        /// restarted process can rebuild its session table from the
        /// journal directory alone. Empty for pre-naming WAL files.
        session: String,
    },
    /// A compaction base: the session's full graph re-serialized, not its
    /// schedule — the minimum schedule is a function of the graph, so
    /// replay opens it exactly like [`JournalOp::Open`]. The distinct
    /// variant keeps the WAL audit trail honest about where history was
    /// folded.
    Snapshot {
        /// The serialized graph at the compaction point.
        design: String,
        /// The serve-layer session name (see [`JournalOp::Open`]).
        session: String,
        /// The live schedule's `iterations()`, which the reopened one
        /// reports; `None` keeps the cold run's count.
        iterations: Option<usize>,
    },
    /// `add_dependency(from, to)`.
    AddDep {
        /// Tail operation name.
        from: String,
        /// Head operation name.
        to: String,
    },
    /// `add_min_constraint(from, to, value)`.
    AddMin {
        /// Tail operation name.
        from: String,
        /// Head operation name.
        to: String,
        /// Minimum start-time separation in cycles.
        value: u64,
    },
    /// `add_max_constraint(from, to, value)`.
    AddMax {
        /// Tail operation name.
        from: String,
        /// Head operation name.
        to: String,
        /// Maximum start-time separation in cycles.
        value: u64,
    },
    /// `remove_edge` of the first live edge between two operations —
    /// the same resolution rule the serve protocol uses, so replay picks
    /// the identical edge.
    RemoveEdge {
        /// Tail operation name.
        from: String,
        /// Head operation name.
        to: String,
    },
    /// `set_delay(vertex, delay)`.
    SetDelay {
        /// Operation name.
        vertex: String,
        /// New execution delay.
        delay: ExecDelay,
    },
}

impl JournalOp {
    /// Renders the op as one WAL line (a JSON object).
    fn to_json(&self) -> Json {
        match self {
            JournalOp::Open { design, session } => object([
                ("op", Json::from("open")),
                ("session", Json::from(session.as_str())),
                ("design", Json::from(design.as_str())),
            ]),
            JournalOp::Snapshot {
                design,
                session,
                iterations,
            } => object([
                ("op", Json::from("snapshot")),
                ("session", Json::from(session.as_str())),
                ("design", Json::from(design.as_str())),
                ("iterations", iterations.map_or(Json::Null, Json::from)),
            ]),
            JournalOp::AddDep { from, to } => object([
                ("op", Json::from("add_dep")),
                ("from", Json::from(from.as_str())),
                ("to", Json::from(to.as_str())),
            ]),
            JournalOp::AddMin { from, to, value } => object([
                ("op", Json::from("add_min")),
                ("from", Json::from(from.as_str())),
                ("to", Json::from(to.as_str())),
                ("value", Json::from(*value as usize)),
            ]),
            JournalOp::AddMax { from, to, value } => object([
                ("op", Json::from("add_max")),
                ("from", Json::from(from.as_str())),
                ("to", Json::from(to.as_str())),
                ("value", Json::from(*value as usize)),
            ]),
            JournalOp::RemoveEdge { from, to } => object([
                ("op", Json::from("remove_edge")),
                ("from", Json::from(from.as_str())),
                ("to", Json::from(to.as_str())),
            ]),
            JournalOp::SetDelay { vertex, delay } => object([
                ("op", Json::from("set_delay")),
                ("vertex", Json::from(vertex.as_str())),
                (
                    "delay",
                    match delay {
                        ExecDelay::Unbounded => Json::from("unbounded"),
                        ExecDelay::Fixed(c) => Json::Int(*c as i64),
                    },
                ),
            ]),
        }
    }

    /// Parses one WAL line back into a journal record — the inverse of
    /// [`JournalOp::to_json`]. Tolerant of older line formats: a missing
    /// `"session"` parses as an empty name (such files cannot be
    /// auto-recovered, but still parse), and of the `"analysis"` that
    /// older snapshot lines carry only the iteration count is read.
    /// `None` for any other structural problem.
    fn from_json(json: &Json) -> Option<JournalOp> {
        let design = || json.get("design")?.as_str().map(str::to_owned);
        let session = || {
            json.get("session")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned()
        };
        match json.get("op")?.as_str()? {
            "open" => Some(JournalOp::Open {
                design: design()?,
                session: session(),
            }),
            "snapshot" => Some(JournalOp::Snapshot {
                design: design()?,
                session: session(),
                // Older lines keep the count inside their saved schedule.
                iterations: (json.get("iterations"))
                    .or_else(|| json.get("analysis")?.get("iterations"))
                    .and_then(Json::as_i64)
                    .and_then(|n| usize::try_from(n).ok()),
            }),
            kind => JournalOp::decode_edit(kind, json).ok(),
        }
    }

    /// Decodes the fields of one edit of `kind` from `json` — the one
    /// decoder behind both an `edit` request (kind under `"kind"`) and a
    /// WAL line (kind under `"op"`). Fields are read in record order, so
    /// the error names the first missing or bad one.
    fn decode_edit(kind: &str, json: &Json) -> Result<JournalOp, String> {
        let missing = |key: &str| format!("edit kind '{kind}' needs \"{key}\"");
        let name = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| missing(key))
        };
        let value = || {
            json.get("value")
                .and_then(Json::as_i64)
                .and_then(|v| u64::try_from(v).ok())
                .ok_or_else(|| format!("edit kind '{kind}' needs a non-negative \"value\""))
        };
        Ok(match kind {
            "add_dep" => JournalOp::AddDep {
                from: name("from")?,
                to: name("to")?,
            },
            "add_min" => JournalOp::AddMin {
                from: name("from")?,
                to: name("to")?,
                value: value()?,
            },
            "add_max" => JournalOp::AddMax {
                from: name("from")?,
                to: name("to")?,
                value: value()?,
            },
            "remove_edge" => JournalOp::RemoveEdge {
                from: name("from")?,
                to: name("to")?,
            },
            "set_delay" => JournalOp::SetDelay {
                vertex: name("vertex")?,
                delay: match json.get("delay") {
                    Some(Json::Str(s)) if s == "unbounded" => ExecDelay::Unbounded,
                    Some(d) => match d.as_i64().and_then(|v| u64::try_from(v).ok()) {
                        Some(cycles) => ExecDelay::Fixed(cycles),
                        None => {
                            return Err("\"delay\" must be a cycle count or \"unbounded\"".into())
                        }
                    },
                    None => return Err(missing("delay")),
                },
            },
            other => return Err(format!("unknown edit kind '{other}'")),
        })
    }

    /// Applies this edit to `session`, resolving operations by name and a
    /// removed edge by the first live edge between its endpoints. Live
    /// edits and replay both come here, so both pick the same edge.
    fn apply(&self, session: &mut Session) -> Result<EditOutcome, String> {
        let vertex =
            |s: &Session, name: &str| s.vertex_named(name).ok_or_else(|| no_operation(name));
        Ok(match self {
            JournalOp::Open { .. } => return Err("duplicate open".to_owned()),
            JournalOp::Snapshot { .. } => return Err("mid-stream snapshot".to_owned()),
            JournalOp::AddDep { from, to } => {
                let (f, t) = (vertex(session, from)?, vertex(session, to)?);
                session.add_dependency(f, t)
            }
            JournalOp::AddMin { from, to, value } => {
                let (f, t) = (vertex(session, from)?, vertex(session, to)?);
                session.add_min_constraint(f, t, *value)
            }
            JournalOp::AddMax { from, to, value } => {
                let (f, t) = (vertex(session, from)?, vertex(session, to)?);
                session.add_max_constraint(f, t, *value)
            }
            JournalOp::RemoveEdge { from, to } => {
                let (f, t) = (vertex(session, from)?, vertex(session, to)?);
                let e = session
                    .edge_between(f, t)
                    .ok_or("no live edge between those operations")?;
                session.remove_edge(e)
            }
            JournalOp::SetDelay {
                vertex: name,
                delay,
            } => {
                let v = vertex(session, name)?;
                session.set_delay(v, *delay)
            }
        })
    }
}

fn no_operation(name: &str) -> String {
    format!("no operation named '{name}'")
}

/// The edit history of one session — a base plus the delta since; see
/// the module docs.
#[derive(Debug)]
pub struct Journal {
    /// The serve-layer session name, recorded in every base line so a
    /// restarted process can rebuild its session table from WAL files.
    name: String,
    /// `ops[0]` is always the base (`Open` or `Snapshot`); the rest is
    /// the delta of accepted edits since that base.
    ops: Vec<JournalOp>,
    /// Mirror path and file; the file is dropped on the first I/O error.
    wal: Option<(PathBuf, Option<File>)>,
    /// WAL lines buffered since the last [`Journal::sync`].
    pending: String,
    /// Compact once the delta reaches this many edits; `0` disables.
    snapshot_every: usize,
    /// Compactions performed over the journal's lifetime.
    compactions: usize,
    /// Accepted edits folded into snapshots (no longer replayed).
    compacted_edits: usize,
    /// Bumped when the mirror is dropped (a router's `wal_mirrors_lost`).
    lost: Option<Arc<AtomicUsize>>,
}

impl Journal {
    fn new(name: String, ops: Vec<JournalOp>, wal: Option<(PathBuf, Option<File>)>) -> Journal {
        Journal {
            name,
            ops,
            wal,
            pending: String::new(),
            snapshot_every: 0,
            compactions: 0,
            compacted_edits: 0,
            lost: None,
        }
    }

    /// Starts a journal for session `name` opened on `design`, optionally
    /// mirrored to `wal_path` (truncating any previous file there).
    pub fn open(name: impl Into<String>, design: String, wal_path: Option<PathBuf>) -> Journal {
        let name = name.into();
        let wal = wal_path.map(|p| {
            let file = File::create(&p).ok();
            (p, file)
        });
        let mut journal = Journal::new(name.clone(), Vec::new(), wal);
        journal.append(JournalOp::Open {
            design,
            session: name,
        });
        journal
    }

    /// Rebuilds a session from the WAL file at `path` — one job of a
    /// router's boot recovery. A torn tail (crash mid-append) is cut at
    /// the last line that parses and the file rewritten to that good
    /// prefix, and an unterminated last record gets its newline, so the
    /// resumed journal, reopened in **append** mode, extends a clean file.
    ///
    /// `None` for an unreadable or unrepairable file, a file whose base
    /// line predates session-name journaling, or a journal that fails
    /// replay.
    pub fn recover(path: &Path) -> Option<(Journal, Session)> {
        let text = std::fs::read_to_string(path).ok()?;
        let mut ops = Vec::new();
        // Bytes up to and including the last line that parsed.
        let mut good_len = 0;
        let mut end = 0;
        for line in text.split_inclusive('\n') {
            end += line.len();
            if line.trim().is_empty() {
                continue;
            }
            // The parser skips the trailing `\n` / `\r\n` as whitespace.
            let Some(op) = Json::parse(line)
                .ok()
                .and_then(|json| JournalOp::from_json(&json))
            else {
                break; // Torn: keep the good prefix only.
            };
            ops.push(op);
            good_len = end;
        }
        if !text[good_len..].trim().is_empty() {
            replace_file(path, &text.as_bytes()[..good_len]).ok()?;
        } else if good_len > 0 && !text[..good_len].ends_with('\n') {
            // A crash just before a record's newline leaves a last line
            // that parses. Terminate it, or the resumed journal's first
            // append runs on from it and the next boot loses both records.
            OpenOptions::new()
                .append(true)
                .open(path)
                .and_then(|mut file| file.write_all(b"\n"))
                .ok()?;
        }
        let name = match ops.first() {
            Some(JournalOp::Open { session, .. } | JournalOp::Snapshot { session, .. })
                if !session.is_empty() =>
            {
                session.clone()
            }
            _ => return None, // No base, or the pre-name format: no session to rebuild.
        };
        let file = OpenOptions::new().append(true).open(path).ok();
        let journal = Journal::new(name, ops, Some((path.to_owned(), file)));
        let session = journal.replay().ok()?;
        Some((journal, session))
    }

    /// Serves one `edit` request: decodes it, applies it to `session`, and
    /// records it when accepted — a rejected edit changed nothing and an
    /// unchanged one replays to unchanged. The flag says whether the
    /// recorded edit was compacted ([`Journal::maybe_compact`]). `Err`
    /// carries the in-band error text.
    pub(crate) fn edit(
        &mut self,
        session: &mut Session,
        request: &Json,
    ) -> Result<(EditOutcome, bool), String> {
        let kind = request
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("edit needs a \"kind\"")?;
        let op = JournalOp::decode_edit(kind, request).map_err(|e| {
            match request.get("vertex").and_then(Json::as_str) {
                // The protocol resolves set_delay's vertex before its delay.
                Some(name) if kind == "set_delay" && session.vertex_named(name).is_none() => {
                    no_operation(name)
                }
                _ => e,
            }
        })?;
        let outcome = op.apply(session)?;
        if matches!(
            outcome,
            EditOutcome::Rejected { .. } | EditOutcome::Unchanged
        ) {
            return Ok((outcome, false));
        }
        self.append(op);
        Ok((outcome, self.maybe_compact(session)))
    }

    /// The session name this journal records.
    pub fn session_name(&self) -> &str {
        &self.name
    }

    /// Sets the compaction threshold: once the delta since the base holds
    /// this many accepted edits, the next [`Journal::maybe_compact`]
    /// snapshots the session. `0` disables compaction.
    pub fn set_snapshot_every(&mut self, every: usize) {
        self.snapshot_every = every;
    }

    /// Records one accepted mutation and buffers its WAL mirror line
    /// (written out on the next [`Journal::sync`]).
    pub fn append(&mut self, op: JournalOp) {
        if self.wal.as_ref().is_some_and(|(_, f)| f.is_some()) {
            self.pending.push_str(&op.to_json().render());
            self.pending.push('\n');
        }
        self.ops.push(op);
    }

    /// Group commit: writes every buffered WAL line with a single write
    /// and flush. A no-op without a (live) mirror or buffered lines;
    /// the first I/O failure permanently stops mirroring.
    pub fn sync(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        if let Some((_, Some(file))) = &mut self.wal {
            if file
                .write_all(self.pending.as_bytes())
                .and_then(|()| file.flush())
                .is_err()
            {
                // Stop writing after the first failure instead of
                // hammering a dead disk per batch.
                self.lose_mirror();
            }
        }
        self.pending.clear();
    }

    /// Drops the mirror file after an I/O error and counts the loss.
    fn lose_mirror(&mut self) {
        if let Some((_, file)) = &mut self.wal {
            *file = None;
        }
        if let Some(lost) = &self.lost {
            lost.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `true` when WAL lines are buffered and a [`Journal::sync`] would
    /// actually write.
    pub fn dirty(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Edits recorded since the current base (open or last snapshot).
    pub fn edits(&self) -> usize {
        self.ops.len().saturating_sub(1)
    }

    /// Accepted edits over the journal's whole lifetime, including those
    /// folded into snapshots.
    pub fn total_edits(&self) -> usize {
        self.compacted_edits + self.edits()
    }

    /// Compactions performed so far.
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// `true` when the current base is a snapshot rather than the
    /// original opening design.
    pub fn snapshotted(&self) -> bool {
        matches!(self.ops.first(), Some(JournalOp::Snapshot { .. }))
    }

    /// Snapshots `session` into a new base and truncates the delta, if
    /// the compaction threshold is reached and the session state is
    /// snapshot-safe (well-posed, polar, uniquely named — see the module
    /// docs). Returns `true` when a compaction happened.
    ///
    /// The failpoint site `journal::snapshot` is evaluated before any
    /// state changes: an injected error skips this compaction attempt,
    /// and an injected panic unwinds with the journal untouched — the
    /// old base, delta, and WAL file all remain recoverable.
    pub fn maybe_compact(&mut self, session: &Session) -> bool {
        if self.snapshot_every == 0 || self.edits() < self.snapshot_every {
            return false;
        }
        if !session.posedness().is_well_posed() || !session.graph().is_polar() {
            return false; // Defer: reopening must not re-polarize or lose staleness.
        }
        if !unique_operation_names(session.graph()) {
            return false; // Defer: to_text would rename, orphaning delta edits.
        }
        // Crash window under test: nothing below may run before this.
        if rsched_graph::failpoint!("journal::snapshot").is_some() {
            return false;
        }
        let snapshot = JournalOp::Snapshot {
            design: session.graph().to_text(),
            session: self.name.clone(),
            iterations: session.schedule().map(|s| s.iterations()),
        };
        self.rewrite_wal(&snapshot);
        self.compacted_edits += self.edits();
        self.compactions += 1;
        self.ops.clear();
        self.ops.push(snapshot);
        self.pending.clear(); // Subsumed by the snapshot line just written.
        true
    }

    /// Replaces the WAL mirror with a single snapshot line
    /// ([`replace_file`]), so a torn write can never destroy the previous
    /// (still-valid) WAL. A failure drops the mirror but never fails the
    /// compaction.
    fn rewrite_wal(&mut self, snapshot: &JournalOp) {
        let Some((path, slot @ Some(_))) = &mut self.wal else {
            return; // No mirror, or mirroring already gave up on this disk.
        };
        let line = format!("{}\n", snapshot.to_json().render());
        match replace_file(path, line.as_bytes())
            .and_then(|()| OpenOptions::new().append(true).open(&*path))
        {
            Ok(file) => *slot = Some(file),
            Err(_) => self.lose_mirror(),
        }
    }

    /// Replays the journal (base + delta) through a fresh [`Session`].
    ///
    /// Deterministic: the recorded edits were all accepted against the
    /// same prefix states, so replay reproduces the exact graph, verdict,
    /// and offsets of the live session after its last accepted edit.
    /// After a compaction the base is the snapshot, opened with
    /// [`Session::open`] like a design, and only the delta replays —
    /// recovery cost is bounded by `snapshot_every`, not by the session's
    /// lifetime history.
    ///
    /// # Errors
    ///
    /// Returns a description of the first op that fails — possible only
    /// if the journal was corrupted (it records accepted edits only).
    pub fn replay(&self) -> Result<Session, String> {
        let mut ops = self.ops.iter();
        let design = match ops.next() {
            Some(JournalOp::Open { design, .. } | JournalOp::Snapshot { design, .. }) => design,
            _ => return Err("journal does not start with an open or snapshot".to_owned()),
        };
        let graph = ConstraintGraph::from_text(design)
            .map_err(|e| format!("journal replay: bad design: {e}"))?;
        let mut session =
            Session::open(graph).map_err(|e| format!("journal replay: cannot open: {e}"))?;
        if let Some(JournalOp::Snapshot {
            iterations: Some(n),
            ..
        }) = self.ops.first()
        {
            session.restore_iterations(*n);
        }
        for (i, op) in ops.enumerate() {
            match op.apply(&mut session) {
                Ok(EditOutcome::Rejected { error }) => {
                    return Err(format!("journal replay: edit {i}: rejected: {error}"));
                }
                Ok(_) => {}
                Err(e) => return Err(format!("journal replay: edit {i}: {e}")),
            }
        }
        Ok(session)
    }
}

impl Drop for Journal {
    /// Flushes any buffered WAL lines so a closed session's audit trail
    /// is complete even though syncs are batched.
    fn drop(&mut self) {
        self.sync();
    }
}

/// How a router makes and recovers its sessions' journals: the WAL
/// directory (if any), the compaction threshold, and the count of WAL
/// mirrors dropped on an I/O error, which clones share.
#[derive(Debug, Clone)]
pub(crate) struct Journals {
    dir: Option<PathBuf>,
    snapshot_every: usize,
    lost: Arc<AtomicUsize>,
}

impl Journals {
    /// Creates `dir` best-effort: a directory that cannot be made only
    /// costs each session its mirror, counted in [`Journals::mirrors_lost`].
    pub(crate) fn new(dir: Option<PathBuf>, snapshot_every: usize) -> Journals {
        if let Some(dir) = &dir {
            let _ = std::fs::create_dir_all(dir);
        }
        Journals {
            dir,
            snapshot_every,
            lost: Arc::default(),
        }
    }

    /// `true` when journals are mirrored to WAL files.
    pub(crate) fn mirrored(&self) -> bool {
        self.dir.is_some()
    }

    /// WAL mirrors dropped on an I/O error so far.
    pub(crate) fn mirrors_lost(&self) -> usize {
        self.lost.load(Ordering::Relaxed)
    }

    /// Starts the journal of a newly opened session, mirrored to its WAL
    /// file ([`wal_path`]) when a directory is set.
    pub(crate) fn open(&self, session: &str, design: &str) -> Journal {
        let wal = self.dir.as_deref().map(|dir| wal_path(dir, session));
        self.adopt(Journal::open(session, design.to_owned(), wal))
    }

    /// The directory's `*.wal` files in sorted path order, so recovery
    /// does not depend on the order `read_dir` lists them in. Empty
    /// without a readable directory.
    pub(crate) fn wal_files(&self) -> Vec<PathBuf> {
        let entries = self.dir.iter().flat_map(std::fs::read_dir).flatten();
        let mut paths: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "wal"))
            .collect();
        paths.sort();
        paths
    }

    /// [`Journal::recover`] of one WAL file, under this set's compaction
    /// threshold and loss count.
    pub(crate) fn recover(&self, path: &Path) -> Option<(Journal, Session)> {
        let (journal, session) = Journal::recover(path)?;
        Some((self.adopt(journal), session))
    }

    fn adopt(&self, mut journal: Journal) -> Journal {
        journal.snapshot_every = self.snapshot_every;
        if journal.wal.as_ref().is_some_and(|(_, file)| file.is_none()) {
            self.lost.fetch_add(1, Ordering::Relaxed); // Could not open it.
        }
        journal.lost = Some(Arc::clone(&self.lost));
        journal
    }
}

/// Where the WAL of `session` lives under `dir`: a sanitized prefix of the
/// name for humans plus the FNV-1a hash of the exact name, so distinct
/// sessions never collide.
pub(crate) fn wal_path(dir: &Path, session: &str) -> PathBuf {
    let safe: String = session
        .chars()
        .take(40)
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    dir.join(format!("{safe}-{:016x}.wal", fnv1a(session)))
}

/// FNV-1a hash of a session name: the suffix of its WAL file name, and
/// the slot it pins to (`crate::shard_of`).
pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Atomically replaces the file at `path` with `bytes`: writes a sibling
/// temp file, then renames it over `path`, so a crash leaves either the
/// old file or the new one, never a torn mix. Serves WAL compaction and
/// torn-tail repair.
fn replace_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("wal.tmp");
    let replaced = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if replaced.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    replaced
}

/// `true` when every operation name is unique and none collides with the
/// reserved polar-vertex names — the precondition for `to_text` emitting
/// names verbatim.
fn unique_operation_names(graph: &ConstraintGraph) -> bool {
    let mut seen = std::collections::HashSet::new();
    graph.operation_ids().all(|v| {
        let name = graph.vertex(v).name();
        name != "source" && name != "sink" && seen.insert(name)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DESIGN: &str =
        "op sync unbounded\nop alu 2\nop out 1\ndep sync alu\ndep alu out\nmax alu out 4\n";

    #[test]
    fn replay_reproduces_the_live_session() {
        let graph = ConstraintGraph::from_text(DESIGN).unwrap();
        let mut live = Session::open(graph).unwrap();
        let mut journal = Journal::open("s", DESIGN.to_owned(), None);

        let (alu, out) = (
            live.vertex_named("alu").unwrap(),
            live.vertex_named("out").unwrap(),
        );
        assert!(live.add_min_constraint(alu, out, 3).is_scheduled());
        journal.append(JournalOp::AddMin {
            from: "alu".into(),
            to: "out".into(),
            value: 3,
        });
        live.set_delay(alu, ExecDelay::Unbounded); // ill-posed, still journaled
        journal.append(JournalOp::SetDelay {
            vertex: "alu".into(),
            delay: ExecDelay::Unbounded,
        });

        let replayed = journal.replay().expect("journal replays");
        assert_eq!(replayed.posedness(), live.posedness());
        assert_eq!(replayed.schedule(), live.schedule());
        assert_eq!(journal.edits(), 2);
        assert_eq!(journal.total_edits(), 2);
        assert_eq!(journal.compactions(), 0);
    }

    #[test]
    fn replay_rejects_corrupt_history() {
        let mut journal = Journal::open("s", DESIGN.to_owned(), None);
        journal.append(JournalOp::AddDep {
            from: "alu".into(),
            to: "nonesuch".into(),
        });
        let err = journal.replay().unwrap_err();
        assert!(err.contains("nonesuch"), "{err}");
    }

    #[test]
    fn wal_mirror_groups_lines_per_sync() {
        let dir = std::env::temp_dir().join(format!("rsched_wal_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.wal");
        let mut journal = Journal::open("s", DESIGN.to_owned(), Some(path.clone()));
        journal.append(JournalOp::AddMax {
            from: "alu".into(),
            to: "out".into(),
            value: 7,
        });
        // Appends only buffer: the file holds nothing until a sync.
        assert!(journal.dirty());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        journal.sync();
        assert!(!journal.dirty());
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"op\":\"open\""));
        assert_eq!(
            Json::parse(lines[1]).unwrap().get("value"),
            Some(&Json::Int(7))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_syncs_buffered_lines() {
        let dir = std::env::temp_dir().join(format!("rsched_wal_drop_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.wal");
        {
            let mut journal = Journal::open("s", DESIGN.to_owned(), Some(path.clone()));
            journal.append(JournalOp::AddDep {
                from: "sync".into(),
                to: "out".into(),
            });
        } // dropped here
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "drop flushed the buffered batch");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_snapshots_base_and_truncates_delta() {
        let dir = std::env::temp_dir().join(format!("rsched_wal_compact_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.wal");
        let graph = ConstraintGraph::from_text(DESIGN).unwrap();
        let mut live = Session::open(graph).unwrap();
        let mut journal = Journal::open("s", DESIGN.to_owned(), Some(path.clone()));
        journal.set_snapshot_every(2);
        let alu = live.vertex_named("alu").unwrap();
        for delay in [3u64, 1, 4, 2] {
            assert!(live.set_delay(alu, ExecDelay::Fixed(delay)).is_scheduled());
            journal.append(JournalOp::SetDelay {
                vertex: "alu".into(),
                delay: ExecDelay::Fixed(delay),
            });
            journal.maybe_compact(&live);
        }
        assert_eq!(journal.compactions(), 2);
        assert_eq!(journal.total_edits(), 4);
        assert!(journal.edits() < 2, "delta truncated at each snapshot");
        assert!(journal.snapshotted());
        // The WAL was atomically rewritten: first line is the snapshot.
        journal.sync();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.lines().next().unwrap().contains("\"op\":\"snapshot\""),
            "{text}"
        );
        // Replay from snapshot + delta matches the live session exactly.
        let replayed = journal.replay().expect("snapshot replays");
        assert_eq!(replayed.posedness(), live.posedness());
        assert_eq!(replayed.schedule(), live.schedule());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_lines_hold_the_design_and_legacy_lines_still_parse() {
        let dir = std::env::temp_dir().join(format!("rsched_wal_design_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.wal");
        let graph = ConstraintGraph::from_text(DESIGN).unwrap();
        let mut live = Session::open(graph).unwrap();
        let mut journal = Journal::open("sess", DESIGN.to_owned(), Some(path.clone()));
        journal.set_snapshot_every(1);
        let alu = live.vertex_named("alu").unwrap();
        assert!(live.set_delay(alu, ExecDelay::Fixed(3)).is_scheduled());
        journal.append(JournalOp::SetDelay {
            vertex: "alu".into(),
            delay: ExecDelay::Fixed(3),
        });
        assert!(journal.maybe_compact(&live));
        journal.sync();
        let text = std::fs::read_to_string(&path).unwrap();
        let snapshot = Json::parse(text.lines().next().unwrap()).unwrap();
        let Json::Object(fields) = &snapshot else {
            panic!("snapshot line is not an object: {text}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["op", "session", "design", "iterations"], "{text}");
        let JournalOp::Snapshot {
            design,
            session,
            iterations,
        } = JournalOp::from_json(&snapshot).unwrap()
        else {
            panic!("first line is not a snapshot: {text}");
        };
        assert_eq!(session, "sess");
        assert_eq!(design, live.graph().to_text());
        assert_eq!(iterations, live.schedule().map(|s| s.iterations()));
        // Lines from before session names were journaled still parse,
        // with an empty name.
        let legacy = Json::parse(r#"{"op":"open","design":"op a 1\n"}"#).unwrap();
        match JournalOp::from_json(&legacy).unwrap() {
            JournalOp::Open { session, .. } => assert_eq!(session, ""),
            other => panic!("legacy open parsed as {other:?}"),
        }
        // So do snapshot lines that still carry a saved schedule under
        // "analysis": only its iteration count is read.
        let analysed = Json::parse(
            r#"{"op":"snapshot","session":"sess","design":"op a 1\n","analysis":{"iterations":3,"anchors":["source"],"offsets":{"a":{"source":0}}}}"#,
        )
        .unwrap();
        assert_eq!(
            JournalOp::from_json(&analysed),
            Some(JournalOp::Snapshot {
                design: "op a 1\n".into(),
                session: "sess".into(),
                iterations: Some(3),
            })
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_rewrite_or_write_loses_the_mirror_once() {
        // (A WAL that cannot be created is covered by the router's
        // `a_lost_wal_mirror_is_counted_and_requests_still_succeed`.)
        // Compaction: the directory vanished, so the temp file cannot be
        // written and the rewrite fails.
        let dir = std::env::temp_dir().join(format!("rsched_wal_lost_{}", std::process::id()));
        let journals = Journals::new(Some(dir.clone()), 1);
        let mut journal = journals.open("s", DESIGN);
        journal.sync();
        std::fs::remove_dir_all(&dir).unwrap();
        let graph = ConstraintGraph::from_text(DESIGN).unwrap();
        let mut live = Session::open(graph).unwrap();
        let alu = live.vertex_named("alu").unwrap();
        assert!(live.set_delay(alu, ExecDelay::Fixed(3)).is_scheduled());
        journal.append(JournalOp::SetDelay {
            vertex: "alu".into(),
            delay: ExecDelay::Fixed(3),
        });
        assert!(journal.maybe_compact(&live), "compaction itself succeeds");
        assert_eq!(journals.mirrors_lost(), 1);
        // The lost mirror is not counted again, and memory still replays.
        journal.append(JournalOp::SetDelay {
            vertex: "alu".into(),
            delay: ExecDelay::Fixed(2),
        });
        journal.sync();
        assert_eq!(journals.mirrors_lost(), 1);
        assert!(journal.replay().is_ok());
        // Write: a device that refuses every byte fails the group commit.
        let full = Path::new("/dev/full");
        if full.exists() {
            let mut journal =
                journals.adopt(Journal::open("s", DESIGN.to_owned(), Some(full.into())));
            journal.sync();
            assert_eq!(journals.mirrors_lost(), 2);
        }
    }

    #[test]
    fn compaction_defers_while_ill_posed() {
        let graph = ConstraintGraph::from_text(DESIGN).unwrap();
        let mut live = Session::open(graph).unwrap();
        let mut journal = Journal::open("s", DESIGN.to_owned(), None);
        journal.set_snapshot_every(1);
        let alu = live.vertex_named("alu").unwrap();
        // Unbounded alu under the max constraint: ill-posed, schedule stale.
        live.set_delay(alu, ExecDelay::Unbounded);
        journal.append(JournalOp::SetDelay {
            vertex: "alu".into(),
            delay: ExecDelay::Unbounded,
        });
        assert!(
            !journal.maybe_compact(&live),
            "ill-posed states must not snapshot (stale schedule would be lost)"
        );
        // Healing the graph makes the next edit snapshot-safe again.
        live.set_delay(alu, ExecDelay::Fixed(1));
        journal.append(JournalOp::SetDelay {
            vertex: "alu".into(),
            delay: ExecDelay::Fixed(1),
        });
        assert!(journal.maybe_compact(&live));
        let replayed = journal.replay().unwrap();
        assert_eq!(replayed.schedule(), live.schedule());
    }

    #[test]
    fn crash_mid_snapshot_leaves_old_journal_recoverable() {
        use rsched_graph::failpoint::{self, FailAction};
        const SCOPE: u64 = 0x54a9;
        let _s = failpoint::enter_scope(SCOPE);
        let graph = ConstraintGraph::from_text(DESIGN).unwrap();
        let mut live = Session::open(graph).unwrap();
        let mut journal = Journal::open("s", DESIGN.to_owned(), None);
        journal.set_snapshot_every(1);
        let alu = live.vertex_named("alu").unwrap();
        assert!(live.set_delay(alu, ExecDelay::Fixed(3)).is_scheduled());
        journal.append(JournalOp::SetDelay {
            vertex: "alu".into(),
            delay: ExecDelay::Fixed(3),
        });
        {
            let _g = failpoint::arm("journal::snapshot", Some(SCOPE), FailAction::Panic, 0, None);
            let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                journal.maybe_compact(&live)
            }));
            assert!(crashed.is_err(), "injected panic must unwind");
        }
        // Nothing was mutated: the base is still the open, the delta is
        // intact, and replay reproduces the live session.
        assert!(!journal.snapshotted());
        assert_eq!(journal.edits(), 1);
        assert_eq!(journal.compactions(), 0);
        let replayed = journal.replay().expect("pre-crash journal replays");
        assert_eq!(replayed.schedule(), live.schedule());
        // With the failpoint gone the deferred compaction goes through.
        assert!(journal.maybe_compact(&live));
        assert_eq!(journal.replay().unwrap().schedule(), live.schedule());
    }
}
