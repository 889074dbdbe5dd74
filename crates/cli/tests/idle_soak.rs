//! Idle-connection soak against the real `rsched serve --listen` binary:
//! a herd of silent connections must not cost threads (the readiness
//! runtime multiplexes them onto one event loop), must leave the server
//! responsive, and must all be told `going_away` when SIGTERM drains it.
//!
//! The herd is 256 connections by default; set `RSCHED_SOAK=1` for the
//! full 10,000-connection soak (needs an fd limit comfortably above
//! 2×10k across this process and the server it spawns).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_rsched");

const DESIGN: &str =
    "op sync unbounded\\nop alu 2\\nop out 1\\ndep sync alu\\ndep alu out\\nmax alu out 4\\n";

struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: std::net::SocketAddr,
}

impl Server {
    fn spawn(extra: &[&str]) -> Server {
        let mut child = Command::new(BIN)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn rsched serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("read banner");
        let addr = banner
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
            .parse()
            .expect("banner carries the resolved address");
        Server {
            child,
            stdout,
            addr,
        }
    }

    fn threads(&self) -> usize {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .expect("read /proc status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .expect("Threads: line")
            .trim()
            .parse()
            .expect("thread count")
    }

    fn sigterm(&self) {
        let done = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("send SIGTERM");
        assert!(done.success(), "kill -TERM failed");
    }

    /// Waits for exit and returns the rest of stdout (the serve summary).
    fn wait(mut self) -> String {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "server exited with {status}");
                    break;
                }
                None => {
                    assert!(
                        Instant::now() < deadline,
                        "server did not exit within 60s of SIGTERM"
                    );
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        let mut tail = String::new();
        self.stdout.read_to_string(&mut tail).expect("read summary");
        tail
    }
}

fn connect(addr: &std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    stream
}

fn round_trip(stream: &mut TcpStream, line: &str) -> String {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut response = String::new();
    let n = reader.read_line(&mut response).expect("read");
    assert!(n > 0, "server closed before answering {line:?}");
    response.trim_end().to_owned()
}

fn herd_size() -> usize {
    if std::env::var("RSCHED_SOAK").is_ok_and(|v| v == "1") {
        10_000
    } else {
        256
    }
}

#[test]
fn idle_herd_costs_no_threads_and_drains_on_sigterm() {
    let herd = herd_size();
    let workers = 2;
    let server = Server::spawn(&["--workers", "2", "--drain-timeout-ms", "30000"]);
    // The banner is printed before the shard workers start; one answered
    // `health` request proves the event loop (and so the pool) is up.
    let mut active = connect(&server.addr);
    let health = round_trip(&mut active, "{\"id\":0,\"op\":\"health\"}");
    assert!(health.contains("\"ok\":true"), "health failed: {health}");
    let baseline = server.threads();

    // Park the herd: connect, say nothing, hold the socket open.
    let mut idle: Vec<TcpStream> = Vec::with_capacity(herd);
    for _ in 0..herd {
        idle.push(connect(&server.addr));
    }

    // Readiness runtime, not thread-per-connection: the herd adds zero
    // threads (a tiny allowance covers shard-respawn churn).
    let with_herd = server.threads();
    assert!(
        with_herd <= baseline + 2,
        "{herd} idle connections grew the thread count {baseline} -> {with_herd}"
    );
    assert!(
        with_herd <= workers + 6,
        "thread count {with_herd} is not bounded by the worker pool"
    );

    // The server still answers promptly with the herd parked.
    let open = round_trip(
        &mut active,
        &format!("{{\"id\":1,\"op\":\"open\",\"session\":\"soak\",\"design\":\"{DESIGN}\"}}"),
    );
    assert!(open.contains("\"ok\":true"), "open failed: {open}");
    let sched = round_trip(
        &mut active,
        "{\"id\":2,\"op\":\"schedule\",\"session\":\"soak\"}",
    );
    assert!(sched.contains("\"ok\":true"), "schedule failed: {sched}");

    // SIGTERM drains: every parked connection gets exactly one
    // `going_away` line and EOF. Spot-check a sample (reading 10k sockets
    // serially is the test's cost, not the server's).
    server.sigterm();
    let step = (idle.len() / 64).max(1);
    for stream in idle.iter().step_by(step) {
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut tail = String::new();
        reader.read_to_string(&mut tail).expect("drain to EOF");
        assert_eq!(
            tail, "{\"id\":null,\"ok\":false,\"error\":\"going_away: server draining\"}\n",
            "parked connection saw exactly the drain notice"
        );
    }

    let summary = server.wait();
    let expected = format!("over {} connection(s)", herd + 1);
    assert!(
        summary.contains("served 3 request(s)") && summary.contains(&expected),
        "summary accounts for the whole herd: {summary:?}"
    );
    drop(idle);
}
