//! Raw readiness-I/O bindings: the one `unsafe` module in the
//! workspace.
//!
//! The repo vendors no crates, so the epoll(7) surface the connection
//! runtime needs is declared here directly against libc symbols (which
//! `std` already links), following the same shim convention as
//! `shim-rand`/`shim-criterion`: the smallest API that serves the
//! workload, wrapped in safe types, with everything above this module
//! staying `#![deny(unsafe_code)]`-clean.
//!
//! What lives here:
//!
//! - [`Poller`] — an `epoll` instance: level-triggered readiness for
//!   thousands of registered sockets with `O(ready)` wakeups (a
//!   `poll(2)` array would re-scan all 10k idle fds on every active
//!   round trip and blow the latency budget).
//! - [`WakePipe`] — a non-blocking self-pipe registered in the poll
//!   set, so shard workers (and signal handlers) can nudge the event
//!   loop out of `epoll_wait` without the old throwaway-connection
//!   hack.
//! - [`install_sigterm_drain`] / [`sigterm_pending`] — an
//!   async-signal-safe SIGTERM hook (one `write(2)` to the wake pipe
//!   plus an atomic flag) that turns the operator's `kill` into a
//!   graceful drain.
//! - [`set_linger_abort`] — SO_LINGER(0), so the chaos fuzzer can
//!   produce genuine RSTs (abrupt connection aborts) instead of
//!   orderly FINs.
//!
//! Every wrapper owns its file descriptors and closes them on drop;
//! no raw fd outlives the safe type that minted it.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::time::Duration;

use std::os::raw::{c_int, c_void};

// Linux x86_64 constants (the only target the container builds); kept
// private so a porting change touches exactly this block.
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const O_NONBLOCK: c_int = 0o4000;
const O_CLOEXEC: c_int = 0o2000000;
const SOL_SOCKET: c_int = 1;
const SO_LINGER: c_int = 13;
const SIGTERM: c_int = 15;

/// `struct epoll_event`; packed on x86_64 (and only there) to match the
/// kernel ABI.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[repr(C)]
struct Linger {
    l_onoff: c_int,
    l_linger: c_int,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
    fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    fn raise(signum: c_int) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// What a registered fd should be watched for. Level-triggered: the
/// event repeats while the condition holds, so a partially-drained
/// buffer is re-reported — no readiness is ever lost to a short read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Report when a read would make progress (or the peer closed).
    pub readable: bool,
    /// Report when a write would make progress.
    pub writable: bool,
}

impl Interest {
    const fn bits(self) -> u32 {
        // EPOLLRDHUP distinguishes a half-close from silence even when
        // read interest is paused (backpressure), and EPOLLERR/EPOLLHUP
        // are always reported by the kernel regardless of the mask.
        let mut bits = EPOLLRDHUP;
        if self.readable {
            bits |= EPOLLIN;
        }
        if self.writable {
            bits |= EPOLLOUT;
        }
        bits
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// A read would make progress (data, EOF, or a pending error).
    pub readable: bool,
    /// A write would make progress.
    pub writable: bool,
    /// The peer closed its end (EPOLLHUP/EPOLLRDHUP) or the socket is
    /// in an error state (EPOLLERR); the connection is finished either
    /// way once its readable data is drained.
    pub closed: bool,
}

/// Readiness reports one [`Poller::wait`] can return.
const MAX_EVENTS: usize = 1024;

/// A safe epoll instance. Registrations are keyed by caller-chosen
/// `u64` tokens; the poller never dereferences them.
pub struct Poller {
    epfd: RawFd,
    /// The kernel's report buffer, allocated once and reused by every
    /// [`Poller::wait`].
    buf: Vec<EpollEvent>,
}

impl Poller {
    /// Creates an epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure (fd exhaustion).
    pub fn new() -> io::Result<Poller> {
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller {
            epfd,
            buf: vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut event = EpollEvent {
            events: interest.bits(),
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut event) }).map(drop)
    }

    /// Registers `fd` under `token`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure (already registered, bad fd).
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest set of a registered fd.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure (not registered, bad fd).
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregisters `fd`. Harmless to call for an fd the kernel already
    /// dropped from the set (closing an fd auto-deregisters it).
    pub fn remove(&self, fd: RawFd) {
        let mut event = EpollEvent { events: 0, data: 0 };
        let _ = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut event) };
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` = forever), appending reports to `out`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failure; `EINTR` is retried internally.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        let timeout_ms: c_int = match timeout {
            // Round up so a 1ns deadline does not spin at timeout 0.
            Some(t) => {
                c_int::try_from(t.as_millis().max(1).min(i32::MAX as u128)).expect("clamped above")
            }
            None => -1,
        };
        let n = loop {
            let ret = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    MAX_EVENTS as c_int,
                    timeout_ms,
                )
            };
            if ret >= 0 {
                break ret as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &self.buf[..n] {
            // Copy out of the (possibly packed) struct before use.
            let bits = ev.events;
            let token = ev.data;
            out.push(Event {
                token,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        let _ = unsafe { close(self.epfd) };
    }
}

/// The write end of a wake pipe, cloneable across threads and safe to
/// signal from anywhere (including signal handlers: `write(2)` is
/// async-signal-safe). Writing to a full pipe is fine — the event loop
/// is already scheduled to wake.
#[derive(Clone)]
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Nudges the owning event loop out of `epoll_wait`.
    pub fn wake(&self) {
        let byte = 1u8;
        // EAGAIN (pipe full) and EPIPE (loop gone) are both "mission
        // accomplished or moot"; nothing to do either way.
        let _ = unsafe { write(self.fd, (&raw const byte).cast(), 1) };
    }
}

/// A non-blocking self-pipe: the read end registers in a [`Poller`],
/// [`Waker`] clones of the write end wake it. Owns both fds.
pub struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl WakePipe {
    /// Creates the pipe (both ends non-blocking, close-on-exec).
    ///
    /// # Errors
    ///
    /// Propagates `pipe2` failure (fd exhaustion).
    pub fn new() -> io::Result<WakePipe> {
        let mut fds = [0 as c_int; 2];
        cvt(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) })?;
        Ok(WakePipe {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }

    /// The fd to register for read interest in the poll set.
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// A cloneable handle that wakes the poll loop. Only valid while
    /// this `WakePipe` is alive; waking after drop is a no-op error
    /// that [`Waker::wake`] swallows.
    pub fn waker(&self) -> Waker {
        Waker { fd: self.write_fd }
    }

    /// Drains the pending wake bytes so a burst of notifications
    /// collapses into one loop iteration. Stops after a short read: the
    /// pipe is level-triggered, so bytes written after it are reported
    /// again.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr().cast(), buf.len()) };
            if n < buf.len() as isize {
                return; // Short, empty (EAGAIN), EOF, or a transient error.
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        let _ = unsafe { close(self.read_fd) };
        let _ = unsafe { close(self.write_fd) };
    }
}

static SIGTERM_PENDING: AtomicBool = AtomicBool::new(false);
static SIGTERM_WAKE_FD: AtomicI32 = AtomicI32::new(-1);

extern "C" fn sigterm_handler(_sig: c_int) {
    SIGTERM_PENDING.store(true, Ordering::Release);
    let fd = SIGTERM_WAKE_FD.load(Ordering::Acquire);
    if fd >= 0 {
        let byte = 1u8;
        let _ = unsafe { write(fd, (&raw const byte).cast(), 1) };
    }
}

/// Routes SIGTERM into a graceful drain: the handler sets a flag
/// ([`sigterm_pending`]) and writes one byte to `waker`'s pipe —
/// both async-signal-safe — so the event loop observes the signal as
/// an ordinary wakeup. Process-global; the last installed waker wins,
/// which matches the one-server-per-process CLI deployment.
pub fn install_sigterm_drain(waker: &Waker) {
    SIGTERM_WAKE_FD.store(waker.fd, Ordering::Release);
    unsafe {
        signal(SIGTERM, sigterm_handler);
    }
}

/// `true` once a SIGTERM arrived after [`install_sigterm_drain`].
pub fn sigterm_pending() -> bool {
    SIGTERM_PENDING.load(Ordering::Acquire)
}

/// Sends SIGTERM to the current process — test/harness helper for
/// exercising the drain path without shelling out to `kill`.
pub fn raise_sigterm() {
    unsafe {
        raise(SIGTERM);
    }
}

/// Arms SO_LINGER(0) so closing `stream` aborts the connection with an
/// RST instead of an orderly FIN — the chaos fuzzer's "client died
/// mid-request" fault. (`TcpStream::set_linger` is still unstable in
/// std, hence the raw option.)
///
/// # Errors
///
/// Propagates `setsockopt` failure.
pub fn set_linger_abort(stream: &std::net::TcpStream) -> io::Result<()> {
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    cvt(unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            (&raw const linger).cast(),
            std::mem::size_of::<Linger>() as u32,
        )
    })
    .map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};

    #[test]
    fn wake_pipe_wakes_and_coalesces() {
        let mut poller = Poller::new().expect("epoll");
        let pipe = WakePipe::new().expect("pipe");
        poller
            .add(
                pipe.read_fd(),
                7,
                Interest {
                    readable: true,
                    writable: false,
                },
            )
            .expect("register");

        // No wake: times out with no events.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(events.is_empty());

        // A burst of wakes collapses into one readable report.
        let waker = pipe.waker();
        for _ in 0..5 {
            waker.wake();
        }
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        pipe.drain();

        // Drained: quiet again.
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(events.is_empty());
    }

    #[test]
    fn poller_reports_socket_readiness_and_hangup() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");

        let mut poller = Poller::new().expect("epoll");
        poller
            .add(
                server.as_raw_fd(),
                42,
                Interest {
                    readable: true,
                    writable: false,
                },
            )
            .expect("register");

        client.write_all(b"ping").expect("send");
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .expect("wait");
        assert!(events.iter().any(|e| e.token == 42 && e.readable));

        let mut buf = [0u8; 8];
        let mut server = server;
        assert_eq!(server.read(&mut buf).expect("read"), 4);

        drop(client);
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .expect("wait");
        assert!(
            events.iter().any(|e| e.token == 42 && e.closed),
            "peer close reported: {events:?}"
        );
    }

    #[test]
    fn linger_abort_produces_reset() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::net::TcpStream::connect(addr).expect("connect");
        let (mut server, _) = listener.accept().expect("accept");
        set_linger_abort(&client).expect("linger");
        drop(client); // RST, not FIN.
        let mut buf = [0u8; 8];
        // The read observes the reset as an error (ECONNRESET) rather
        // than a clean EOF. Allow either on slow kernels, but never data.
        match server.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("unexpected {n} bytes from a reset connection"),
        }
    }
}
