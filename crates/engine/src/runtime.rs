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
//!  Intake::flush: one wake per slot that received work while its worker slept
//!
//!  one supervised worker per slot, one batch per wake (the jobs queued
//!  when it woke): per job a deadline check, Router::execute and the
//!  rendered line; then Router::sync_journals (group commit), then
//!  Sink::deliver(whole batch)
//! ```
//!
//! A response is handed to the transport only after its WAL line is
//! written, and the hand-off is batch-shaped both ways: the transport
//! wakes a sleeping worker once per loop turn (not once per frame), and
//! a worker hands its transport one batch per wake (not one response).
//!
//! `health` is answered at intake, so liveness never waits behind
//! session work. A worker that dies outside the per-request catch (an
//! injected `serve::worker_kill`, or an organic bug) is restarted in
//! place on the same queue, with no bound on restarts: sessions live in
//! the [`Router`] and queued jobs in the queue, so nothing is lost or
//! reordered.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
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

/// A finished response, rendered to its wire line.
pub struct Reply {
    /// The response's JSON line, `\n`-terminated.
    pub line: String,
    /// The response carries `"ok":false`.
    pub failed: bool,
}

impl Reply {
    /// Renders `response` to its line.
    pub fn new(response: &Json) -> Reply {
        let mut line = response.render();
        line.push('\n');
        Reply {
            line,
            failed: response.get("ok").and_then(Json::as_bool) == Some(false),
        }
    }
}

/// Where shard workers hand finished responses: the transport's output.
pub trait Sink: Sync {
    /// Names the requester a response goes back to (a connection token
    /// on a socket; nothing on stdio, which has one requester).
    type Tag: Send;

    /// Takes one batch of finished responses, in execution order, once
    /// their WAL lines are written. Called from worker threads; what the
    /// sink leaves in `batch` is dropped.
    fn deliver(&self, batch: &mut Vec<(Self::Tag, Reply)>);
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

/// One slot's bounded job queue and the condition its worker sleeps on.
struct Slot<T> {
    queue: Mutex<Queue<T>>,
    ready: Condvar,
}

struct Queue<T> {
    /// Jobs not yet started; its length is what `queue_depth` bounds.
    jobs: VecDeque<Job<T>>,
    /// The worker sleeps on `ready` and no wake is owed to it yet. The
    /// intake clears it when it queues the job that owes one.
    asleep: bool,
    /// The intake is gone: answer what is queued, then exit.
    closed: bool,
}

impl<T> Slot<T> {
    fn new() -> Slot<T> {
        Slot {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                asleep: false,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Sleeps until jobs are queued and returns how many: the batch.
    /// `None` once the queue is closed and empty.
    ///
    /// No wake is lost: `asleep` is set under the same lock the intake
    /// queues under, and the wait releases that lock atomically, so a
    /// job queued after the check finds `asleep` set and owes a wake.
    fn next_batch(&self) -> Option<usize> {
        let mut queue = lock_recover(&self.queue);
        while queue.jobs.is_empty() {
            if queue.closed {
                return None;
            }
            queue.asleep = true;
            queue = self
                .ready
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
        queue.asleep = false;
        Some(queue.jobs.len())
    }

    /// Starts the next job. Only the slot's worker pops, after
    /// [`Self::next_batch`] counted the job in.
    fn pop(&self) -> Job<T> {
        lock_recover(&self.queue)
            .jobs
            .pop_front()
            .expect("the batch counts queued jobs")
    }
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
    /// answer what is still queued and exit, and `run` returns once they
    /// have.
    pub fn run<S: Sink, R>(&self, sink: &S, transport: impl FnOnce(Intake<'_, S::Tag>) -> R) -> R {
        let slots: Vec<Slot<S::Tag>> = (0..self.router.n_slots()).map(|_| Slot::new()).collect();
        thread::scope(|scope| {
            for (index, slot) in slots.iter().enumerate() {
                scope.spawn(move || self.supervise(index, slot, sink));
            }
            transport(Intake {
                runtime: self,
                slots: &slots,
                wakes: Vec::new(),
            })
        })
    }

    /// Keeps one slot staffed: a worker that panics out of [`Self::work`]
    /// is restarted on the same queue. Returns once the queue is closed
    /// and drained.
    fn supervise<S: Sink>(&self, index: usize, slot: &Slot<S::Tag>, sink: &S) {
        let _scope = self.fault_scope.map(failpoint::enter_scope);
        while catch_unwind(AssertUnwindSafe(|| self.work(index, slot, sink))).is_err() {
            self.respawned.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A slot's serving loop: sleep until jobs are queued, answer the
    /// ones queued at the wake, group-commit their WAL lines with one
    /// sync per journal, then deliver the batch.
    fn work<S: Sink>(&self, index: usize, slot: &Slot<S::Tag>, sink: &S) {
        let mut batch = Vec::new();
        loop {
            // Kill site, evaluated once per batch (and once at start):
            // after delivery, before sleeping, with no job in hand, no
            // undelivered response and no lock held, so an injected
            // panic takes the worker down but loses nothing.
            let _ = failpoint!("serve::worker_kill");
            let Some(jobs) = slot.next_batch() else {
                return; // The intake is gone and the queue is empty.
            };
            // One pop per job, so the queue keeps counting exactly the
            // jobs not yet started; jobs queued meanwhile form the next
            // batch.
            for _ in 0..jobs {
                let job = slot.pop();
                let expired = job.deadline.is_some_and(|d| job.accepted.elapsed() > d);
                let response = if expired {
                    error_response(job.id, DEADLINE_ERROR)
                } else {
                    self.router.execute(index, job.id, &job.request)
                };
                batch.push((job.tag, Reply::new(&response)));
            }
            self.router.sync_journals(index);
            sink.deliver(&mut batch);
            batch.clear();
        }
    }
}

/// A transport's handle on a running [`Runtime`]: turns frames into
/// requests and queues them. Dropping it closes the queues.
pub struct Intake<'a, T> {
    runtime: &'a Runtime,
    slots: &'a [Slot<T>],
    /// Slots whose sleeping worker was given work since the last
    /// [`Intake::flush`].
    wakes: Vec<usize>,
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
    /// reaches the sink under `tag`. A sleeping worker is not woken here
    /// but at the next [`Intake::flush`]. `Err` carries the response to
    /// send now instead: the in-band shed when the queue is full.
    pub fn dispatch(&mut self, routed: Routed, tag: T) -> Result<(), Json> {
        let Routed { id, request, slot } = routed;
        let mut queue = lock_recover(&self.slots[slot].queue);
        if queue.jobs.len() >= self.runtime.queue_depth {
            drop(queue);
            self.runtime.shed.fetch_add(1, Ordering::Relaxed);
            return Err(overloaded_response(id));
        }
        let deadline = request
            .get("deadline_ms")
            .and_then(Json::as_i64)
            .map(|ms| Duration::from_millis(ms.max(0) as u64))
            .or(self.runtime.deadline);
        queue.jobs.push_back(Job {
            tag,
            id,
            request,
            accepted: Instant::now(),
            deadline,
        });
        if queue.asleep {
            queue.asleep = false;
            self.wakes.push(slot);
        }
        Ok(())
    }

    /// Wakes, once each, the workers that were given work while asleep.
    /// A transport calls it before it blocks: the socket loop once per
    /// turn, stdio after each frame.
    pub fn flush(&mut self) {
        for slot in self.wakes.drain(..) {
            self.slots[slot].ready.notify_one();
        }
    }

    #[cfg(test)]
    fn queued(&self, slot: usize) -> (usize, bool) {
        let queue = lock_recover(&self.slots[slot].queue);
        (queue.jobs.len(), queue.asleep)
    }
}

impl<T> Drop for Intake<'_, T> {
    fn drop(&mut self) {
        for slot in self.slots {
            lock_recover(&slot.queue).closed = true;
            slot.ready.notify_one();
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

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_graph::failpoint::FailAction;

    const DESIGN: &str =
        "op sync unbounded\nop alu 2\nop out 1\ndep sync alu\ndep alu out\nmax alu out 4\n";

    /// A sink that records each delivery as the tags it held, checking
    /// every line answers its tag's id.
    #[derive(Default)]
    struct Recorder(Mutex<Vec<Vec<i64>>>);

    impl Sink for Recorder {
        type Tag = i64;

        fn deliver(&self, batch: &mut Vec<(i64, Reply)>) {
            let tags = batch
                .drain(..)
                .map(|(tag, reply)| {
                    let response = Json::parse(reply.line.trim_end()).unwrap();
                    assert_eq!(response.get("id"), Some(&Json::Int(tag)));
                    tag
                })
                .collect();
            lock_recover(&self.0).push(tags);
        }
    }

    fn frame(id: i64, rest: &str) -> String {
        format!(r#"{{"id":{id},"session":"s",{rest}}}"#)
    }

    fn open(id: i64) -> String {
        let design = Json::Str(DESIGN.to_owned()).render();
        frame(id, &format!(r#""op":"open","design":{design}"#))
    }

    fn dispatch(intake: &mut Intake<'_, i64>, id: i64, line: &str) -> Result<(), Json> {
        let Frame::Route(routed) = intake.frame(line.as_bytes()) else {
            panic!("request {id} is routed");
        };
        intake.dispatch(routed, id)
    }

    /// Polls slot 0 until it reports `queued`: (jobs waiting, worker
    /// asleep with no wake owed).
    fn wait_for(intake: &Intake<'_, i64>, queued: (usize, bool)) {
        let start = Instant::now();
        while intake.queued(0) != queued {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "slot never reached {queued:?}"
            );
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn one_flush_wakes_a_sleeping_worker_for_one_delivery() {
        let runtime = Runtime::new(&ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let sink = Recorder::default();
        runtime.run(&sink, |mut intake| {
            wait_for(&intake, (0, true));
            dispatch(&mut intake, 1, &open(1)).unwrap();
            for id in 2..=4 {
                let edit = format!(r#""op":"edit","kind":"set_delay","vertex":"alu","delay":{id}"#);
                dispatch(&mut intake, id, &frame(id, &edit)).unwrap();
            }
            dispatch(&mut intake, 5, &frame(5, r#""op":"schedule""#)).unwrap();
            // Queued, and the wake is owed rather than sent.
            assert_eq!(intake.queued(0), (5, false));
            intake.flush();
        });
        assert_eq!(*lock_recover(&sink.0), vec![vec![1, 2, 3, 4, 5]]);
    }

    #[test]
    fn queue_depth_counts_only_jobs_not_yet_started() {
        const SCOPE: u64 = 0x7274_0001;
        // Wedge the worker on the first job of a 3-job batch.
        let _wedge = failpoint::arm(
            "serve::handle",
            Some(SCOPE),
            FailAction::Delay(Duration::from_millis(300)),
            0,
            Some(1),
        );
        let runtime = Runtime::new(&ServeConfig {
            workers: 1,
            queue_depth: 3,
            fault_scope: Some(SCOPE),
            ..ServeConfig::default()
        });
        let sink = Recorder::default();
        let shed = runtime.run(&sink, |mut intake| {
            wait_for(&intake, (0, true));
            dispatch(&mut intake, 1, &open(1)).unwrap();
            for id in 2..=3 {
                dispatch(&mut intake, id, &frame(id, r#""op":"schedule""#)).unwrap();
            }
            intake.flush();
            // Job 1 started: the two jobs left of the batch still count
            // against the depth, so one more fits and the rest are shed.
            wait_for(&intake, (2, false));
            (4..=6)
                .filter_map(|id| {
                    let shed = dispatch(&mut intake, id, &frame(id, r#""op":"schedule""#)).err()?;
                    assert_eq!(shed.get("retry_after_ms"), Some(&Json::Int(RETRY_AFTER_MS)));
                    Some(id)
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(shed, vec![5, 6]);
        assert_eq!(runtime.shed(), 2);
        // Job 4 arrived mid-batch, so it formed the next batch.
        assert_eq!(*lock_recover(&sink.0), vec![vec![1, 2, 3], vec![4]]);
    }
}
