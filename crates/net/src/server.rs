//! The readiness-driven connection runtime: one epoll event loop owning
//! every socket, over the engine's shared shard runtime
//! (`rsched_engine::runtime`); see the crate docs for the architecture.
//!
//! # Connection lifecycle
//!
//! ```text
//!            accept
//!              │ (net::accept fault: answer in-band, drop)
//!              ▼
//!   ┌──► READING ──────────────────────────────┐
//!   │      │ frame complete: intake, quotas    │ write_buf ≥ cap/2:
//!   │      │ → dispatch to shard               │ pause reads
//!   │      ▼                                   ▼ (backpressure)
//!   │   INFLIGHT ◄── completion queue ──── PAUSED
//!   │      │ response appended, flushed        │ write_buf drained:
//!   └──────┘                                   ▼ resume reads
//!                                      write_buf > cap: EVICTED (slow consumer)
//!   partial frame older than --read-deadline:  EVICTED (slow loris)
//!   silent longer than --idle-timeout:         EVICTED (idle)
//!   shutdown/SIGTERM: DRAINING — answer in-flight, flush, `going_away`,
//!   close; stragglers force-closed at --drain-timeout
//! ```
//!
//! Every transition runs on the event-loop thread; shard workers only
//! ever see `(token, request)` pairs and hand batches of `(token,
//! response line)` pairs back through the completion queue, so no socket
//! is ever touched from two threads.

use std::collections::HashSet;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rsched_engine::error_response;
use rsched_engine::json::{object, Json};
use rsched_engine::runtime::{lock_recover, Frame, Intake, Reply, Runtime, Sink};
use rsched_engine::scan::ByteClass;
use rsched_graph::failpoint;

use crate::poll::{self, Event, Interest, Poller, WakePipe};
use crate::{Listen, NetConfig, NetSummary};

/// The in-band notice sent to every connection during graceful drain.
pub const GOING_AWAY_ERROR: &str = "going_away: server draining";

/// Poll-wait granularity when deadlines are armed (idle/read timeouts
/// configured, or a drain in progress). Expiry checks are O(live
/// connections) at this cadence, which is noise even at 10k.
const TICK: Duration = Duration::from_millis(25);

/// Event-loop tokens: connections use `(generation << 32) | slab index`,
/// so the two specials live where no connection token can.
const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;

fn conn_token(index: usize, generation: u32) -> u64 {
    (u64::from(generation) << 32) | index as u64
}

/// One accepted client stream, TCP or unix — identical from the framing
/// up.
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }

    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(true),
            Stream::Unix(s) => s.set_nonblocking(true),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        }
    }

    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true),
            Listener::Unix(l) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                // Responses are single small lines; without TCP_NODELAY
                // each round trip stalls on Nagle + delayed ACK (~40 ms).
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

/// One connection's state machine, owned exclusively by the event loop.
struct Conn {
    stream: Stream,
    /// Generation-tagged identity; completions carry it so a response
    /// for a dead connection can never reach a slab-slot reuser.
    token: u64,
    /// Bytes of the current partial frame (no `\n` seen yet).
    read_buf: Vec<u8>,
    /// Skipping the tail of an oversize frame until its `\n`.
    discarding: bool,
    /// Pending response bytes; `written` is the already-sent prefix.
    write_buf: Vec<u8>,
    written: usize,
    /// Requests dispatched to a shard but not yet answered.
    inflight: usize,
    /// Sessions held against `max_sessions_per_conn`; freed as one unit
    /// when the connection dies, however it dies.
    held: HashSet<String>,
    /// Last byte received — the idle-timeout clock.
    last_activity: Instant,
    /// When the current partial frame started — the read-deadline clock.
    partial_since: Option<Instant>,
    /// Peer sent EOF (orderly close or half-close); in-flight requests
    /// are still answered and flushed before the socket drops.
    read_closed: bool,
    /// `going_away` already queued (drain is per-connection one-shot).
    notified_going_away: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn pending(&self) -> usize {
        self.write_buf.len() - self.written
    }
}

/// Finished `(token, response line)` pairs on their way from the shard
/// workers back to the event loop, which owns all sockets.
struct Completions {
    done: Mutex<Done>,
    waker: poll::Waker,
}

struct Done {
    replies: Vec<(u64, Reply)>,
    /// A wake byte is owed to, or already on its way to, the loop.
    woken: bool,
}

impl Completions {
    /// Swaps the finished replies into `into` (empty, capacity kept).
    ///
    /// No completion is stranded. `woken` lives under the list's lock
    /// and the loop clears it as it takes the list, so a batch appended
    /// after a take finds it clear and writes a wake byte. A batch that
    /// finds it set joins a list that is not taken yet, and the byte of
    /// the batch that set it wakes the loop to take it.
    fn take(&self, into: &mut Vec<(u64, Reply)>) {
        let mut done = lock_recover(&self.done);
        done.woken = false;
        std::mem::swap(&mut done.replies, into);
    }
}

impl Sink for Completions {
    type Tag = u64;

    /// One lock and at most one wake byte per batch.
    fn deliver(&self, batch: &mut Vec<(u64, Reply)>) {
        let wake = {
            let mut done = lock_recover(&self.done);
            done.replies.append(batch);
            !std::mem::replace(&mut done.woken, true)
        };
        if wake {
            self.waker.wake();
        }
    }
}

/// Asks a running [`NetServer`] to drain and stop. Idempotent: the flag
/// is sticky and the wake pipe tolerates any number of nudges, including
/// after the listener (or the whole server) is gone.
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    wake: Arc<WakePipe>,
}

impl ShutdownHandle {
    /// Signals graceful drain: stop accepting, answer in-flight
    /// requests, flush, notify idle clients with `going_away`, force the
    /// stragglers at the drain timeout. Safe to call from any thread,
    /// any number of times.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::Release);
        self.wake.waker().wake();
    }
}

/// A bound socket server; see the crate docs.
pub struct NetServer {
    listener: Listener,
    resolved: Listen,
    config: NetConfig,
    shutdown: Arc<AtomicBool>,
    wake: Arc<WakePipe>,
    sigterm: bool,
}

impl NetServer {
    /// Binds the configured listener. For TCP, port `0` asks the OS for
    /// a free port — read the outcome from [`NetServer::local_addr`]. A
    /// stale unix socket file left by a dead process is replaced.
    ///
    /// # Errors
    ///
    /// Any bind failure (port in use, bad permissions, …) or wake-pipe
    /// creation failure (fd exhaustion).
    pub fn bind(config: NetConfig) -> io::Result<NetServer> {
        let (listener, resolved) = match &config.listen {
            Listen::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                let resolved = Listen::Tcp(listener.local_addr()?);
                (Listener::Tcp(listener), resolved)
            }
            Listen::Unix(path) => {
                // A bind would fail on the leftover file of a previous
                // (dead) server; nothing can be listening on it or the
                // remove would race an active sibling — operator's call.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                (Listener::Unix(listener), Listen::Unix(path.clone()))
            }
        };
        Ok(NetServer {
            listener,
            resolved,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            wake: Arc::new(WakePipe::new()?),
            sigterm: false,
        })
    }

    /// Where the server actually listens (the OS-assigned port for TCP
    /// binds to port `0`).
    pub fn local_addr(&self) -> &Listen {
        &self.resolved
    }

    /// A handle that can drain-and-stop this server from another thread.
    pub fn handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            flag: Arc::clone(&self.shutdown),
            wake: Arc::clone(&self.wake),
        }
    }

    /// Routes SIGTERM to graceful drain, exactly as if
    /// [`ShutdownHandle::shutdown`] had been called. Installs a
    /// process-global handler — meant for the CLI's one-server-per-
    /// process deployment, not for embedding.
    pub fn install_sigterm_drain(&mut self) {
        poll::install_sigterm_drain(&self.wake.waker());
        self.sigterm = true;
    }

    /// Serves until [`ShutdownHandle::shutdown`] (or SIGTERM, when
    /// [`NetServer::install_sigterm_drain`] was called), then drains and
    /// returns the summary.
    ///
    /// # Errors
    ///
    /// Only listener/poller I/O errors are fatal; per-connection and
    /// per-request failures are answered in-band or drop just that
    /// connection.
    pub fn run(self) -> io::Result<NetSummary> {
        let NetServer {
            listener,
            resolved,
            config,
            shutdown,
            wake,
            sigterm,
        } = self;
        listener.set_nonblocking()?;
        let runtime = Runtime::new(&config.engine);
        let completions = Completions {
            done: Mutex::new(Done {
                replies: Vec::new(),
                woken: false,
            }),
            waker: wake.waker(),
        };
        let counters = runtime.run(&completions, |intake| -> io::Result<LoopCounters> {
            // The event-loop thread enters the fault scope so
            // `net::accept` can target exactly this server instance.
            let _scope_guard = config.engine.fault_scope.map(failpoint::enter_scope);
            let mut el = EventLoop::new(
                listener,
                intake,
                &completions,
                &config,
                &shutdown,
                &wake,
                sigterm,
            )?;
            el.run_loop()?;
            Ok(el.c)
            // `el` drops here with its intake: the shard queues close,
            // the workers answer what's left (responses to now-dead
            // tokens are discarded) and exit before `run` returns.
        })?;

        if let Listen::Unix(path) = &resolved {
            let _ = std::fs::remove_file(path);
        }
        let router_stats = runtime.router().stats();
        Ok(NetSummary {
            connections: counters.connections,
            requests: counters.responses,
            errors: counters.errors,
            sessions_opened: router_stats.sessions_opened,
            panics: router_stats.panics,
            quarantined: router_stats.quarantined,
            recoveries: router_stats.recoveries,
            snapshots: router_stats.snapshots,
            shed: runtime.shed(),
            quota_rejections: counters.quota_rejections,
            shards_respawned: runtime.respawned(),
            accept_faults: counters.accept_faults,
            evicted_idle: counters.evicted_idle,
            evicted_deadline: counters.evicted_deadline,
            evicted_slow: counters.evicted_slow,
            oversize_frames: counters.oversize_frames,
            going_away_sent: counters.going_away_sent,
            drain_cutoffs: counters.drain_cutoffs,
        })
    }
}

/// Counters the event loop owns exclusively — single-threaded, so plain
/// integers instead of atomics.
#[derive(Clone, Copy, Default)]
struct LoopCounters {
    connections: usize,
    responses: usize,
    errors: usize,
    quota_rejections: usize,
    accept_faults: usize,
    evicted_idle: usize,
    evicted_deadline: usize,
    evicted_slow: usize,
    oversize_frames: usize,
    going_away_sent: usize,
    drain_cutoffs: usize,
}

enum ReadStep {
    Data(usize),
    Eof,
    Blocked,
    Dead,
}

enum FlushStep {
    Ok,
    Dead,
    SlowConsumer,
}

struct EventLoop<'a> {
    poller: Poller,
    wake: &'a WakePipe,
    /// `None` once drain has closed it.
    listener: Option<Listener>,
    intake: Intake<'a, u64>,
    completions: &'a Completions,
    config: &'a NetConfig,
    shutdown: &'a AtomicBool,
    sigterm: bool,
    /// Connection slab + free list; `gens[i]` advances on every reuse of
    /// slot `i` so stale tokens can never resolve.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    gens: Vec<u32>,
    live: usize,
    /// Reused read scratch (taken/restored around reads to satisfy the
    /// borrow checker without reallocating 64 KiB per event).
    scratch: Vec<u8>,
    /// Reused list the completion queue is swapped into each turn.
    replies: Vec<(u64, Reply)>,
    /// Connections that got replies this turn; flushed once each.
    touched: Vec<usize>,
    draining: bool,
    drain_deadline: Option<Instant>,
    fatal: Option<io::Error>,
    c: LoopCounters,
}

impl<'a> EventLoop<'a> {
    fn new(
        listener: Listener,
        intake: Intake<'a, u64>,
        completions: &'a Completions,
        config: &'a NetConfig,
        shutdown: &'a AtomicBool,
        wake: &'a WakePipe,
        sigterm: bool,
    ) -> io::Result<EventLoop<'a>> {
        let poller = Poller::new()?;
        let read_only = Interest {
            readable: true,
            writable: false,
        };
        poller.add(listener.fd(), TOKEN_LISTENER, read_only)?;
        poller.add(wake.read_fd(), TOKEN_WAKE, read_only)?;
        Ok(EventLoop {
            poller,
            wake,
            listener: Some(listener),
            intake,
            completions,
            config,
            shutdown,
            sigterm,
            conns: Vec::new(),
            free: Vec::new(),
            gens: Vec::new(),
            live: 0,
            scratch: vec![0u8; 64 * 1024],
            replies: Vec::new(),
            touched: Vec::new(),
            draining: false,
            drain_deadline: None,
            fatal: None,
            c: LoopCounters::default(),
        })
    }

    fn run_loop(&mut self) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::Acquire) || (self.sigterm && poll::sigterm_pending()) {
                self.begin_drain();
            }
            if self.draining && self.live == 0 {
                return Ok(());
            }
            events.clear();
            // Workers given work this turn wake once each, here.
            self.intake.flush();
            self.poller.wait(&mut events, self.next_timeout())?;
            for ev in &events {
                match ev.token {
                    TOKEN_WAKE => self.wake.drain(),
                    TOKEN_LISTENER => self.accept_ready(),
                    _ => self.conn_event(*ev),
                }
            }
            if let Some(e) = self.fatal.take() {
                return Err(e);
            }
            self.handle_completions();
            self.expire(Instant::now());
        }
    }

    /// Sleep forever when nothing is deadline-bound; tick when idle or
    /// read deadlines are armed or a drain cutoff is approaching.
    fn next_timeout(&self) -> Option<Duration> {
        if self.draining {
            return Some(match self.drain_deadline {
                Some(dl) => dl.saturating_duration_since(Instant::now()).min(TICK),
                None => TICK,
            });
        }
        if self.config.idle_timeout.is_some() || self.config.read_deadline.is_some() {
            Some(TICK)
        } else {
            None
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            let mut stream = match listener.accept() {
                Ok(s) => s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // The peer aborted between SYN and accept — its problem,
                // not the listener's.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) => {
                    self.fatal = Some(e);
                    return;
                }
            };
            self.c.connections += 1;
            // Accept fault site, isolated so an injected panic (or an
            // organic bug in connection setup) never kills the listener:
            // the connection is dropped, accepting goes on.
            match catch_unwind(AssertUnwindSafe(|| failpoint!("net::accept"))) {
                Ok(None) => {}
                Ok(Some(msg)) => {
                    self.c.accept_faults += 1;
                    let line = error_response(Json::Null, format!("injected fault: {msg}"));
                    // Still blocking (nonblocking is set below), so the
                    // one-line answer lands before the drop.
                    let _ = stream.write_all(format!("{}\n", line.render()).as_bytes());
                    continue; // Answered in-band, then dropped.
                }
                Err(_) => {
                    self.c.accept_faults += 1;
                    continue;
                }
            }
            if stream.set_nonblocking().is_err() {
                continue; // Connection already unusable.
            }
            let idx = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.gens.push(0);
                self.conns.len() - 1
            });
            let token = conn_token(idx, self.gens[idx]);
            let interest = Interest {
                readable: true,
                writable: false,
            };
            if self.poller.add(stream.fd(), token, interest).is_err() {
                self.free.push(idx);
                continue;
            }
            self.conns[idx] = Some(Conn {
                stream,
                token,
                read_buf: Vec::new(),
                discarding: false,
                write_buf: Vec::new(),
                written: 0,
                inflight: 0,
                held: HashSet::new(),
                last_activity: Instant::now(),
                partial_since: None,
                read_closed: false,
                notified_going_away: false,
                interest,
            });
            self.live += 1;
        }
    }

    fn conn_event(&mut self, ev: Event) {
        let idx = (ev.token & u64::from(u32::MAX)) as usize;
        let valid = |conns: &[Option<Conn>]| {
            conns
                .get(idx)
                .and_then(Option::as_ref)
                .is_some_and(|c| c.token == ev.token)
        };
        if !valid(&self.conns) {
            return; // Stale event for a connection that just closed.
        }
        // `closed` (RDHUP/HUP/ERR) also routes through a read: the read
        // result distinguishes half-close (Ok(0): keep until answered)
        // from a dead socket (ECONNRESET: drop now), and it fires even
        // when read interest is paused for backpressure.
        if ev.readable || ev.closed {
            self.read_conn(idx);
        }
        if ev.writable && valid(&self.conns) {
            self.flush_conn(idx);
        }
    }

    fn read_conn(&mut self, idx: usize) {
        let mut scratch = std::mem::take(&mut self.scratch);
        loop {
            let step = {
                let Some(conn) = self.conns[idx].as_mut() else {
                    break;
                };
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        conn.read_closed = true;
                        ReadStep::Eof
                    }
                    Ok(n) => {
                        conn.last_activity = Instant::now();
                        ReadStep::Data(n)
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => ReadStep::Blocked,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => ReadStep::Dead,
                }
            };
            match step {
                ReadStep::Data(n) => {
                    // Drain discards intake: frames not yet dispatched
                    // are not in-flight; the client gets `going_away`.
                    if !self.draining {
                        self.ingest(idx, &scratch[..n]);
                        // Answers made at intake leave in one send.
                        if self.conns[idx].as_ref().is_some_and(|c| c.pending() > 0) {
                            self.flush_conn(idx);
                        }
                    }
                    // A short read emptied the socket; level-triggered
                    // epoll reports any later bytes (or EOF) next turn.
                    if n < scratch.len() {
                        break;
                    }
                }
                ReadStep::Eof | ReadStep::Blocked => break,
                ReadStep::Dead => {
                    self.close_conn(idx);
                    break;
                }
            }
        }
        self.scratch = scratch;
        self.maybe_finish_conn(idx);
    }

    /// Splits an incoming chunk into frames against the connection's
    /// partial-frame buffer, enforcing the frame-size cap. Each byte is
    /// searched for `\n` once. A frame that arrives whole is handed to
    /// intake straight out of `bytes`; the pieces of one that spans reads
    /// are appended to the connection's buffer once each.
    fn ingest(&mut self, idx: usize, mut bytes: &[u8]) {
        let max = self.config.max_frame_bytes;
        while !bytes.is_empty() {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            let newline = ByteClass::NEWLINE.find(bytes);
            if conn.discarding {
                let Some(pos) = newline else {
                    return; // Still inside the oversize tail.
                };
                bytes = &bytes[pos + 1..];
                conn.discarding = false;
                conn.partial_since = None;
                continue;
            }
            let Some(pos) = newline else {
                if conn.read_buf.is_empty() {
                    conn.partial_since = Some(Instant::now());
                }
                if conn.read_buf.len() + bytes.len() > max {
                    conn.read_buf = Vec::new();
                    // The discard tail keeps `partial_since`: the
                    // unfinished line is still read-deadline-bound.
                    conn.discarding = true;
                    self.reject_oversize(idx);
                } else {
                    if conn.read_buf.is_empty() {
                        // Room for a second read's worth, so a frame of up
                        // to twice this read is never moved by a regrowth.
                        conn.read_buf.reserve_exact(2 * bytes.len());
                    }
                    conn.read_buf.extend_from_slice(bytes);
                }
                return;
            };
            let line = &bytes[..pos];
            bytes = &bytes[pos + 1..];
            conn.partial_since = None;
            if conn.read_buf.len() + pos > max {
                conn.read_buf = Vec::new();
                self.reject_oversize(idx);
            } else if conn.read_buf.is_empty() {
                self.intake_frame(idx, line);
            } else {
                // The buffer leaves with the frame: no connection keeps a
                // large allocation between frames.
                let mut frame = std::mem::take(&mut conn.read_buf);
                frame.extend_from_slice(line);
                self.intake_frame(idx, &frame);
            }
        }
    }

    fn reject_oversize(&mut self, idx: usize) {
        self.c.oversize_frames += 1;
        let max = self.config.max_frame_bytes;
        self.queue_response(
            idx,
            &error_response(
                Json::Null,
                format!("oversize frame: exceeds {max} byte cap"),
            ),
        );
    }

    /// One complete frame: the shared intake, then this transport's
    /// quotas, then dispatch to the session's shard.
    fn intake_frame(&mut self, idx: usize, raw: &[u8]) {
        let routed = match self.intake.frame(raw) {
            Frame::Skip => return,
            Frame::Answer(response) => return self.queue_response(idx, &response),
            Frame::Health(id) => {
                let response = self.health_response(id);
                return self.queue_response(idx, &response);
            }
            Frame::Route(routed) => routed,
        };
        // Quotas apply after validation so they only reject requests
        // that would otherwise consume shard capacity.
        if let Some(max) = self.config.max_inflight_per_conn {
            let over = self.conns[idx]
                .as_ref()
                .is_some_and(|conn| conn.inflight >= max);
            if over {
                self.c.quota_rejections += 1;
                self.queue_response(
                    idx,
                    &error_response(
                        routed.id,
                        format!(
                            "quota exceeded: {max} request(s) already in flight on this connection"
                        ),
                    ),
                );
                return;
            }
        }
        let op = routed.request.get("op").and_then(Json::as_str);
        let session = routed.request.get("session").and_then(Json::as_str);
        // Session slots are accounted at dispatch: an `open` claims one
        // (even if the design later fails to parse — admission control
        // is deliberately pessimistic), a `close` frees it.
        if op == Some("open") {
            if let (Some(max), Some(name)) = (self.config.max_sessions_per_conn, session) {
                let over = self.conns[idx]
                    .as_ref()
                    .is_some_and(|conn| !conn.held.contains(name) && conn.held.len() >= max);
                if over {
                    self.c.quota_rejections += 1;
                    self.queue_response(
                        idx,
                        &error_response(
                            routed.id,
                            format!("quota exceeded: connection already holds {max} session(s)"),
                        ),
                    );
                    return;
                }
            }
            if let (Some(conn), Some(name)) = (self.conns[idx].as_mut(), session) {
                conn.held.insert(name.to_owned());
            }
        } else if op == Some("close") {
            if let (Some(conn), Some(name)) = (self.conns[idx].as_mut(), session) {
                conn.held.remove(name);
            }
        }
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        conn.inflight += 1;
        if let Err(response) = self.intake.dispatch(routed, conn.token) {
            conn.inflight -= 1;
            self.queue_response(idx, &response);
        }
    }

    /// The router's `health` body plus this transport's `net` block.
    fn health_response(&self, id: Json) -> Json {
        let mut response = self.intake.router().health_json(id);
        let body = match &mut response {
            Json::Object(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == "health")
                .map(|(_, v)| v),
            _ => None,
        };
        if let Some(Json::Object(pairs)) = body {
            pairs.push((
                "net".to_owned(),
                object([
                    ("connections", Json::from(self.live)),
                    ("draining", Json::Bool(self.draining)),
                    ("evicted_idle", Json::from(self.c.evicted_idle)),
                    ("evicted_deadline", Json::from(self.c.evicted_deadline)),
                    ("evicted_slow", Json::from(self.c.evicted_slow)),
                    ("oversize_frames", Json::from(self.c.oversize_frames)),
                    ("going_away_sent", Json::from(self.c.going_away_sent)),
                ]),
            ));
        }
        response
    }

    /// Appends an intake-time answer to the connection's write buffer;
    /// `read_conn` flushes once per chunk read.
    fn queue_response(&mut self, idx: usize, response: &Json) {
        self.append_reply(idx, &Reply::new(response));
    }

    /// Appends the line answering one request to the connection's write
    /// buffer, without flushing. (`going_away` and eviction notices are
    /// server-initiated and tallied separately.)
    fn append_reply(&mut self, idx: usize, reply: &Reply) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return; // Connection died while the request ran.
        };
        self.c.responses += 1;
        self.c.errors += usize::from(reply.failed);
        conn.write_buf.extend_from_slice(reply.line.as_bytes());
    }

    fn flush_conn(&mut self, idx: usize) {
        let step = {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            let mut step = FlushStep::Ok;
            while conn.written < conn.write_buf.len() {
                match conn.stream.write(&conn.write_buf[conn.written..]) {
                    Ok(0) => break,
                    Ok(n) => conn.written += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        step = FlushStep::Dead;
                        break;
                    }
                }
            }
            if matches!(step, FlushStep::Ok) {
                if conn.written == conn.write_buf.len() {
                    conn.write_buf.clear();
                    conn.written = 0;
                } else if conn.written >= 64 * 1024 {
                    // Reclaim the sent prefix before it dominates the cap.
                    conn.write_buf.drain(..conn.written);
                    conn.written = 0;
                }
                if conn.pending() > self.config.write_buf_cap {
                    step = FlushStep::SlowConsumer;
                }
            }
            step
        };
        match step {
            FlushStep::Dead => self.close_conn(idx),
            FlushStep::SlowConsumer => {
                self.c.evicted_slow += 1;
                self.close_conn(idx);
            }
            FlushStep::Ok => {
                self.update_interest(idx);
                self.maybe_finish_conn(idx);
            }
        }
    }

    /// Re-registers the fd when the desired readiness set changed:
    /// writable only while bytes are pending, readable unless EOF,
    /// drain, or backpressure (write buffer above half its cap) paused
    /// the intake.
    fn update_interest(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        let desired = Interest {
            readable: !conn.read_closed
                && !self.draining
                && conn.pending() < self.config.write_buf_cap / 2,
            writable: conn.pending() > 0,
        };
        if desired != conn.interest
            && self
                .poller
                .modify(conn.stream.fd(), conn.token, desired)
                .is_ok()
        {
            conn.interest = desired;
        }
    }

    /// Closes the connection once it owes nothing: no in-flight
    /// requests, write buffer flushed, and either the peer already
    /// closed or a drain said goodbye. During drain this is also where
    /// the one-shot `going_away` notice is queued.
    fn maybe_finish_conn(&mut self, idx: usize) {
        let needs_notice = {
            let Some(conn) = self.conns[idx].as_ref() else {
                return;
            };
            self.draining && conn.inflight == 0 && !conn.notified_going_away
        };
        if needs_notice {
            {
                let conn = self.conns[idx].as_mut().expect("checked above");
                conn.notified_going_away = true;
                let mut line = error_response(Json::Null, GOING_AWAY_ERROR).render();
                line.push('\n');
                conn.write_buf.extend_from_slice(line.as_bytes());
            }
            self.c.going_away_sent += 1;
            self.flush_conn(idx); // Re-enters here with the notice sent.
            return;
        }
        let done = {
            let Some(conn) = self.conns[idx].as_ref() else {
                return;
            };
            conn.inflight == 0
                && conn.pending() == 0
                && (conn.read_closed || (self.draining && conn.notified_going_away))
        };
        if done {
            self.close_conn(idx);
        }
    }

    fn close_conn(&mut self, idx: usize) {
        if let Some(conn) = self.conns[idx].take() {
            self.poller.remove(conn.stream.fd());
            self.gens[idx] = self.gens[idx].wrapping_add(1);
            self.free.push(idx);
            self.live -= 1;
            // Dropping `conn` closes the socket and releases its held-
            // session and inflight quota slots in one place — the only
            // place — so abrupt disconnects can never double-free them.
        }
    }

    /// Appends finished responses from the shard workers to their
    /// connections' write buffers, then flushes each touched connection
    /// once: one send per connection per turn.
    fn handle_completions(&mut self) {
        let mut replies = std::mem::take(&mut self.replies);
        let mut touched = std::mem::take(&mut self.touched);
        self.completions.take(&mut replies);
        for (token, reply) in replies.drain(..) {
            let idx = (token & u64::from(u32::MAX)) as usize;
            let alive = self
                .conns
                .get(idx)
                .and_then(Option::as_ref)
                .is_some_and(|c| c.token == token);
            if !alive {
                continue; // Connection died while the request ran.
            }
            let conn = self.conns[idx].as_mut().expect("checked above");
            conn.inflight -= 1;
            self.append_reply(idx, &reply);
            touched.push(idx);
        }
        touched.sort_unstable();
        touched.dedup();
        for &idx in &touched {
            // Flushing re-evaluates interest and (during drain or after
            // EOF) may finish the connection.
            self.flush_conn(idx);
        }
        touched.clear();
        self.replies = replies;
        self.touched = touched;
    }

    fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        self.drain_deadline = self
            .config
            .drain_timeout
            .map(|timeout| Instant::now() + timeout);
        if let Some(listener) = self.listener.take() {
            self.poller.remove(listener.fd());
            // Dropped: new connections are refused from here on.
        }
        for idx in 0..self.conns.len() {
            if self.conns[idx].is_some() {
                self.update_interest(idx); // Intake stops.
                self.maybe_finish_conn(idx); // Idle conns say goodbye now.
            }
        }
    }

    /// The deadline sweep: read deadlines, idle timeouts, and the drain
    /// hard cutoff. Runs per tick; O(live connections).
    fn expire(&mut self, now: Instant) {
        if self.draining {
            if self.drain_deadline.is_some_and(|dl| now >= dl) {
                for idx in 0..self.conns.len() {
                    if self.conns[idx].is_some() {
                        self.c.drain_cutoffs += 1;
                        self.close_conn(idx);
                    }
                }
            }
            return; // Idle/read deadlines are moot mid-drain.
        }
        if self.config.idle_timeout.is_none() && self.config.read_deadline.is_none() {
            return;
        }
        for idx in 0..self.conns.len() {
            let verdict = {
                let Some(conn) = self.conns[idx].as_ref() else {
                    continue;
                };
                if self
                    .config
                    .read_deadline
                    .zip(conn.partial_since)
                    .is_some_and(|(deadline, since)| now.duration_since(since) > deadline)
                {
                    Some(("evicted: read deadline exceeded on a partial frame", true))
                } else if self.config.idle_timeout.is_some_and(|idle| {
                    conn.inflight == 0
                        && conn.read_buf.is_empty()
                        && !conn.discarding
                        && conn.pending() == 0
                        && now.duration_since(conn.last_activity) > idle
                }) {
                    Some(("evicted: idle timeout", false))
                } else {
                    None
                }
            };
            if let Some((msg, is_deadline)) = verdict {
                if is_deadline {
                    self.c.evicted_deadline += 1;
                } else {
                    self.c.evicted_idle += 1;
                }
                self.evict_with_notice(idx, msg);
            }
        }
    }

    /// Best-effort in-band goodbye, then close. The eviction stands even
    /// if the notice doesn't fit the socket buffer — that's exactly the
    /// slow client being evicted.
    fn evict_with_notice(&mut self, idx: usize, msg: &str) {
        if let Some(conn) = self.conns[idx].as_mut() {
            let mut line = error_response(Json::Null, msg).render();
            line.push('\n');
            conn.write_buf.extend_from_slice(line.as_bytes());
            let _ = conn.stream.write(&conn.write_buf[conn.written..]);
        }
        self.close_conn(idx);
    }
}
