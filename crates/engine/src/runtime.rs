//! The shard runtime both transports run on.
//!
//! A transport frames bytes and owns its output: [`crate::serve`] reads
//! lines from a blocking reader, the socket server in `rsched-net` splits
//! frames on its epoll loop. Everything between a complete frame and a
//! finished response lives here, once, so both answer every frame
//! identically:
//!
//! ```text
//!  frame ──► Intake::frame ──► Skip | Answer | Health  (the transport answers)
//!                          └─► Route ──► transport checks (e.g. quotas)
//!                                    ──► Intake::dispatch ──► bounded slot queue
//!                                                             (full: shed in-band)
//!  one supervised worker per slot: deadline check, Router::execute,
//!  batch drain, Router::sync_journals ──► Sink::deliver(tag, response)
//! ```
//!
//! `health` is answered at intake, so liveness never waits behind
//! session work. A worker that dies outside the per-request catch (an
//! injected `serve::worker_kill`, or an organic bug) is restarted in
//! place on the same queue, with no bound on restarts: sessions live in
//! the [`Router`] and queued jobs in the queue, so nothing is lost or
//! reordered.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use rsched_graph::failpoint;

use crate::json::{object, Json};
use crate::service::{error_response, Router, ServeConfig};

/// Milliseconds a shed client should wait before retrying.
pub(crate) const RETRY_AFTER_MS: i64 = 25;

/// The in-band error for a request whose deadline passed while it was
/// still queued.
const DEADLINE_ERROR: &str = "deadline exceeded before execution";

/// The in-band error for a frame that is not valid UTF-8 (binary junk,
/// NUL bytes, truncated multi-byte sequences). The frame is rejected, the
/// stream lives on.
pub const MALFORMED_UTF8_ERROR: &str = "malformed request: frame is not valid UTF-8";

/// Mutex poisoning only means "a panic happened near this data"; every
/// structure guarded in the service is left consistent by construction
/// (request panics are caught inside the lock scope and quarantine the
/// session), so recover the guard instead of propagating.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where shard workers hand finished responses: the transport's output.
pub trait Sink: Sync {
    /// Names the requester a response goes back to (a connection token
    /// on a socket; nothing on stdio, which has one requester).
    type Tag: Send;

    /// Takes one finished response. Called from worker threads.
    fn deliver(&self, tag: Self::Tag, response: Json);
}

/// What [`Intake::frame`] made of one frame.
pub enum Frame {
    /// A blank line: nothing to answer.
    Skip,
    /// Rejected at intake (bad UTF-8, unparsable, unknown op, missing
    /// session, resource limit): send this response as is.
    Answer(Json),
    /// A `health` probe carrying this id. The transport answers it at
    /// once with [`Router::health_json`], extended with its own block if
    /// it has one.
    Health(Json),
    /// A valid request pinned to a slot; pass it to [`Intake::dispatch`].
    Route(Routed),
}

/// A validated request and the slot it is pinned to.
pub struct Routed {
    /// The request's `"id"` (`null` when absent).
    pub id: Json,
    /// The parsed request.
    pub request: Json,
    slot: usize,
}

struct Job<T> {
    tag: T,
    id: Json,
    request: Json,
    accepted: Instant,
    deadline: Option<Duration>,
}

/// The router plus the worker policy both transports share; see the
/// module docs.
pub struct Runtime {
    router: Router,
    queue_depth: usize,
    deadline: Option<Duration>,
    fault_scope: Option<u64>,
    shed: AtomicUsize,
    respawned: AtomicUsize,
}

impl Runtime {
    /// A runtime with [`ServeConfig::workers`] slots (clamped to ≥ 1) over
    /// a fresh [`Router`] built from `config`.
    pub fn new(config: &ServeConfig) -> Runtime {
        Runtime {
            router: Router::new(config.workers.max(1), config),
            queue_depth: config.queue_depth.max(1),
            deadline: config.deadline,
            fault_scope: config.fault_scope,
            shed: AtomicUsize::new(0),
            respawned: AtomicUsize::new(0),
        }
    }

    /// The router the workers execute against.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Requests shed because their slot's queue was full.
    pub fn shed(&self) -> usize {
        self.shed.load(Ordering::Relaxed)
    }

    /// Workers restarted after dying outside the per-request catch.
    pub fn respawned(&self) -> usize {
        self.respawned.load(Ordering::Relaxed)
    }

    /// Staffs every slot with a supervised worker delivering to `sink`,
    /// then runs `transport` with the intake. When `transport` returns,
    /// its [`Intake`] is dropped, which closes the queues; the workers
    /// answer what is still queued, sync their journals and exit, and
    /// `run` returns once they have.
    pub fn run<S: Sink, R>(&self, sink: &S, transport: impl FnOnce(Intake<'_, S::Tag>) -> R) -> R {
        let (senders, queues): (Vec<_>, Vec<_>) = (0..self.router.n_slots())
            .map(|_| mpsc::sync_channel(self.queue_depth))
            .unzip();
        thread::scope(|scope| {
            for (slot, queue) in queues.into_iter().enumerate() {
                scope.spawn(move || self.supervise(slot, &queue, sink));
            }
            transport(Intake {
                runtime: self,
                senders,
            })
        })
    }

    /// Keeps one slot staffed: a worker that panics out of [`Self::work`]
    /// is restarted on the same queue. Returns once the queue is closed
    /// and drained.
    fn supervise<S: Sink>(&self, slot: usize, queue: &Receiver<Job<S::Tag>>, sink: &S) {
        let _scope = self.fault_scope.map(failpoint::enter_scope);
        while catch_unwind(AssertUnwindSafe(|| self.work(slot, queue, sink))).is_err() {
            self.respawned.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A slot's serving loop: block for a job, then answer everything
    /// already queued, then group-commit the batch's WAL lines with one
    /// sync per journal.
    fn work<S: Sink>(&self, slot: usize, queue: &Receiver<Job<S::Tag>>, sink: &S) {
        let mut in_batch = false;
        loop {
            // Kill site, evaluated before every receive with no job in
            // hand and no lock held: an injected panic takes the worker
            // down but loses nothing.
            let _ = failpoint!("serve::worker_kill");
            let job = if in_batch {
                queue.try_recv().ok()
            } else {
                queue.recv().ok()
            };
            let Some(job) = job else {
                self.router.sync_journals(slot);
                if !in_batch {
                    return; // Every sender is gone: the transport is done.
                }
                in_batch = false;
                continue;
            };
            in_batch = true;
            let expired = job.deadline.is_some_and(|d| job.accepted.elapsed() > d);
            let response = if expired {
                error_response(job.id, DEADLINE_ERROR)
            } else {
                self.router.execute(slot, job.id, &job.request)
            };
            sink.deliver(job.tag, response);
        }
    }
}

/// A transport's handle on a running [`Runtime`]: turns frames into
/// requests and queues them. Dropping it closes the queues.
pub struct Intake<'a, T> {
    runtime: &'a Runtime,
    senders: Vec<SyncSender<Job<T>>>,
}

impl<T> Intake<'_, T> {
    /// The router the runtime executes against.
    pub fn router(&self) -> &Router {
        &self.runtime.router
    }

    /// Classifies one frame, without its `\n` (a trailing `\r` is
    /// accepted): skip it, answer it now, answer `health`, or route it.
    /// Validation happens here, so a frame with a missing or unknown op
    /// is answered with its id echoed even when it also lacks a
    /// `"session"`.
    pub fn frame(&self, frame: &[u8]) -> Frame {
        let frame = frame.strip_suffix(b"\r").unwrap_or(frame);
        let Ok(line) = std::str::from_utf8(frame) else {
            return Frame::Answer(error_response(Json::Null, MALFORMED_UTF8_ERROR));
        };
        if line.trim().is_empty() {
            return Frame::Skip;
        }
        let request = match Json::parse(line) {
            Ok(request) => request,
            Err(e) => {
                return Frame::Answer(error_response(
                    Json::Null,
                    format!("malformed request: {e}"),
                ))
            }
        };
        let id = request.get("id").cloned().unwrap_or(Json::Null);
        if request.get("op").and_then(Json::as_str) == Some("health") {
            return Frame::Health(id);
        }
        match self.runtime.router.route(&id, &request) {
            Ok(slot) => Frame::Route(Routed { id, request, slot }),
            Err(response) => Frame::Answer(response),
        }
    }

    /// Queues a routed request on its slot without blocking; its response
    /// reaches the sink under `tag`. `Err` carries the response to send
    /// now instead: the in-band shed when the queue is full.
    pub fn dispatch(&self, routed: Routed, tag: T) -> Result<(), Json> {
        let Routed { id, request, slot } = routed;
        let deadline = request
            .get("deadline_ms")
            .and_then(Json::as_i64)
            .map(|ms| Duration::from_millis(ms.max(0) as u64))
            .or(self.runtime.deadline);
        let job = Job {
            tag,
            id,
            request,
            accepted: Instant::now(),
            deadline,
        };
        match self.senders[slot].try_send(job) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(job)) => {
                self.runtime.shed.fetch_add(1, Ordering::Relaxed);
                Err(overloaded_response(job.id))
            }
            // A worker holds its queue until every sender is gone, so
            // this cannot happen; answer in-band rather than abort the
            // transport on a logic error.
            Err(TrySendError::Disconnected(job)) => {
                Err(error_response(job.id, "worker queue disconnected"))
            }
        }
    }
}

/// The in-band load-shedding response: still `{"id":…,"ok":false,…}` so
/// generic clients treat it as an error, plus a retry hint.
fn overloaded_response(id: Json) -> Json {
    object([
        ("id", id),
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::Str("overloaded: worker queue full, retry later".to_owned()),
        ),
        ("retry_after_ms", Json::Int(RETRY_AFTER_MS)),
    ])
}
