//! `rsched-net` — the sharded socket server behind `rsched serve
//! --listen`.
//!
//! The stdio service in `rsched-engine` talks to exactly one client over
//! one byte stream. This crate mounts the very same transport-agnostic
//! [`rsched_engine::Router`] behind a socket listener (TCP or unix
//! domain), accepting many concurrent client connections with the same
//! JSON-lines framing and the same response shapes — a request stream
//! produces **bit-identical** responses whether it arrives over stdio or
//! over a socket, which the oracle crate's net fuzzer checks round by
//! round.
//!
//! # Architecture
//!
//! ```text
//!              ┌────────────────────────────────────────────┐
//!  clients ──► │ event loop (one thread): epoll readiness,  │
//!              │ accept, per-conn state machines — bounded  │
//!              │ read buf (runtime intake, quotas) and      │
//!              │ bounded write buf (backpressure)           │
//!              └──────────────┬─────────────▲───────────────┘
//!                             │ shard queues│ completion queue
//!                             │ (bounded;   │ + wake pipe (one
//!                             │ one wake    │ byte per batch at
//!                             │ per turn)   │ most)
//!                             ▼             │
//!              shard runtime (rsched_engine::runtime, shared
//!              with stdio): supervised workers, one per slot
//!                  Router::execute ──► batch of (token, line)
//! ```
//!
//! Connections are *not* threads: every socket is non-blocking and
//! multiplexed by a single epoll event loop (raw syscall bindings in
//! the crate's one `unsafe` module, `poll`), so thousands of idle
//! clients cost a few hundred bytes each instead of a stack. The event
//! loop owns every socket. The hand-off is batch-shaped both ways: the
//! loop wakes each sleeping shard worker at most once per turn, and a
//! worker hands back each drained batch of rendered response lines in
//! one append to a completion queue, writing a byte to a wake pipe only
//! when the loop has not already been woken. The loop then sends once
//! per connection per turn.
//!
//! - **Sharding.** Each session is pinned to one shard by
//!   [`rsched_engine::shard_of`] of its name — the identical consistent
//!   hash the stdio loop uses — so a session's ops execute in dispatch
//!   order on one thread with no global lock, even when several
//!   connections touch the same session. Responses are appended to the
//!   *originating* connection's write buffer by the event loop, so
//!   concurrent shards never interleave bytes.
//! - **Connection lifecycle.** A partial frame must complete within
//!   [`NetConfig::read_deadline`] (slow-loris eviction), a silent
//!   connection is evicted after [`NetConfig::idle_timeout`], and a
//!   client that stops reading is evicted when its write buffer passes
//!   [`NetConfig::write_buf_cap`] (slow-consumer eviction). A frame
//!   longer than [`NetConfig::max_frame_bytes`] is answered with an
//!   in-band error and skipped. Graceful drain
//!   ([`ShutdownHandle::shutdown`] or SIGTERM under the CLI): stop
//!   accepting, finish in-flight requests, flush, tell idle clients
//!   `going_away`, hard cutoff at [`NetConfig::drain_timeout`].
//! - **Fault tolerance.** Shard workers belong to the engine's shard
//!   runtime, the same one stdio runs on: its supervisor restarts a
//!   worker in place when an injected `serve::worker_kill` (or an organic
//!   bug outside the per-request catch) takes one down; queued jobs and
//!   session tables outlive the worker, so nothing is lost. Per-request
//!   panic isolation, quarantine, journaling, snapshot compaction, and
//!   recovery all come with the router. The `net::accept` failpoint
//!   covers the accept path itself: an injected error answers the new
//!   connection in-band and drops it; an injected panic is caught and
//!   the listener keeps accepting.
//! - **Admission control.** The router's `max_ops`/`max_edges` design
//!   limits and the runtime's bounded shard queues (shed with
//!   `overloaded` + `retry_after_ms`) are the stdio loop's own. On top,
//!   per-connection quotas: [`NetConfig::max_sessions_per_conn`] caps how
//!   many distinct sessions one connection may hold open, and
//!   [`NetConfig::max_inflight_per_conn`] caps its pipelined requests;
//!   both answer in-band with a `"quota exceeded: …"` error so one
//!   greedy tenant cannot monopolize the shard queues.
//!
//! # Lifecycle
//!
//! [`NetServer::bind`] binds the listener (use port `0` to let the OS
//! pick), [`NetServer::run`] serves until [`ShutdownHandle::shutdown`]
//! is called (idempotent; under the CLI, SIGTERM triggers it too), then
//! drains — in-flight requests are answered and flushed, idle clients
//! get an in-band `going_away`, stragglers are cut off at
//! [`NetConfig::drain_timeout`] — and returns a [`NetSummary`]. The
//! stdio loop remains available as `rsched serve --stdio` for pipelines
//! and backward compatibility.

// `deny`, not `forbid`: the `poll` module is the workspace's single
// carve-out for the raw epoll/pipe bindings; everything else stays
// unsafe-free and the compiler enforces it.
#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use rsched_engine::ServeConfig;

pub mod poll;
mod server;

pub use server::{NetServer, ShutdownHandle};

/// Where the server listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A TCP socket address (`ip:port`; port `0` = OS-assigned).
    Tcp(std::net::SocketAddr),
    /// A unix domain socket path (any stale socket file is replaced).
    Unix(PathBuf),
}

impl Listen {
    /// Parses a `--listen` value: a spec containing `/` is a unix socket
    /// path, anything else must be a full `ip:port` socket address.
    ///
    /// # Errors
    ///
    /// Returns the exact usage message for malformed specs.
    pub fn parse(spec: &str) -> Result<Listen, String> {
        if spec.contains('/') {
            return Ok(Listen::Unix(PathBuf::from(spec)));
        }
        spec.parse()
            .map(Listen::Tcp)
            .map_err(|_| format!(
                "--listen expects <ip:port> (e.g. 127.0.0.1:7070) or a unix socket path containing '/', got '{spec}'"
            ))
    }
}

impl fmt::Display for Listen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Listen::Tcp(addr) => write!(f, "{addr}"),
            Listen::Unix(path) => write!(f, "{}", path.display()),
        }
    }
}

/// Tuning knobs for [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Listener address.
    pub listen: Listen,
    /// Engine/router settings shared with the stdio loop: `workers`
    /// becomes the shard count; deadlines, queue depth, design limits,
    /// journal dir, snapshot interval, and fault scope keep their stdio
    /// semantics.
    pub engine: ServeConfig,
    /// Most distinct sessions one connection may hold open at once
    /// (`open` of a session already counted is a replace, `close` frees
    /// a slot). `None` = unlimited.
    pub max_sessions_per_conn: Option<usize>,
    /// Most requests one connection may have in flight (dispatched but
    /// not yet answered). `None` = unlimited.
    pub max_inflight_per_conn: Option<usize>,
    /// Evict a connection with no in-flight requests and no partial
    /// frame after this much silence. `None` = never.
    pub idle_timeout: Option<Duration>,
    /// A started frame (bytes received, no `\n` yet) must complete
    /// within this window or the connection is evicted — the
    /// slow-loris defense. `None` = no deadline.
    pub read_deadline: Option<Duration>,
    /// Hard cutoff for graceful drain: connections still open this long
    /// after [`ShutdownHandle::shutdown`] are force-closed. `None` =
    /// wait for every client (the pre-drain behavior, and what tests
    /// that orchestrate their own clients want).
    pub drain_timeout: Option<Duration>,
    /// Longest request frame accepted. A line that exceeds this before
    /// its `\n` arrives is answered with an in-band error and the rest
    /// of the oversize line is discarded; the connection lives on.
    pub max_frame_bytes: usize,
    /// Evict a connection (slow consumer) when its pending write buffer
    /// exceeds this many bytes. Reads pause (backpressure) at half this
    /// cap, so only a client that stops draining responses while the
    /// server still owes it bytes can hit the limit.
    pub write_buf_cap: usize,
}

/// Default [`NetConfig::max_frame_bytes`]: far above any legitimate
/// design frame, far below memory-exhaustion territory.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// Default [`NetConfig::write_buf_cap`]: a client that lets 4 MiB of
/// answers pile up unread is not consuming them.
pub const DEFAULT_WRITE_BUF_CAP: usize = 4 << 20;

impl NetConfig {
    /// A config listening on `listen` with stdio-default engine
    /// settings, no per-connection quotas, and no timeouts.
    pub fn new(listen: Listen) -> NetConfig {
        NetConfig {
            listen,
            engine: ServeConfig::default(),
            max_sessions_per_conn: None,
            max_inflight_per_conn: None,
            idle_timeout: None,
            read_deadline: None,
            drain_timeout: None,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            write_buf_cap: DEFAULT_WRITE_BUF_CAP,
        }
    }
}

/// What a [`NetServer::run`] processed, returned after shutdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetSummary {
    /// Connections accepted (including ones dropped by `net::accept`
    /// faults).
    pub connections: usize,
    /// Requests answered (including errors), across all connections.
    pub requests: usize,
    /// Requests answered with `"ok":false`.
    pub errors: usize,
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
    /// Requests shed because a shard queue was full.
    pub shed: usize,
    /// Requests rejected by per-connection quotas.
    pub quota_rejections: usize,
    /// Shard workers the shard runtime restarted after dying outright.
    pub shards_respawned: usize,
    /// Connections answered-and-dropped or panicked by the `net::accept`
    /// failpoint.
    pub accept_faults: usize,
    /// Connections evicted by [`NetConfig::idle_timeout`].
    pub evicted_idle: usize,
    /// Connections evicted by [`NetConfig::read_deadline`] (slow-loris:
    /// a partial frame that never completed).
    pub evicted_deadline: usize,
    /// Connections evicted as slow consumers
    /// ([`NetConfig::write_buf_cap`] exceeded).
    pub evicted_slow: usize,
    /// Frames rejected in-band for exceeding
    /// [`NetConfig::max_frame_bytes`].
    pub oversize_frames: usize,
    /// `going_away` notices sent to idle connections during drain (not
    /// counted in [`NetSummary::requests`] — they answer no request).
    pub going_away_sent: usize,
    /// Connections force-closed at the [`NetConfig::drain_timeout`]
    /// hard cutoff.
    pub drain_cutoffs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_parses_tcp_unix_and_rejects_garbage() {
        assert_eq!(
            Listen::parse("127.0.0.1:7070"),
            Ok(Listen::Tcp("127.0.0.1:7070".parse().unwrap()))
        );
        assert_eq!(
            Listen::parse("/tmp/rsched.sock"),
            Ok(Listen::Unix(PathBuf::from("/tmp/rsched.sock")))
        );
        // Relative paths work too — anything with a '/'.
        assert_eq!(
            Listen::parse("run/s.sock"),
            Ok(Listen::Unix(PathBuf::from("run/s.sock")))
        );
        let err = Listen::parse("localhost:7070").unwrap_err();
        assert_eq!(
            err,
            "--listen expects <ip:port> (e.g. 127.0.0.1:7070) or a unix socket path containing \
             '/', got 'localhost:7070'"
        );
        assert!(Listen::parse("7070").is_err());
        assert!(Listen::parse("").is_err());
    }
}
