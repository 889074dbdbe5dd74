//! End-to-end socket tests: real TCP/unix round trips against a live
//! [`NetServer`], quota enforcement, fault injection on the accept path,
//! and clean shutdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::thread;
use std::time::{Duration, Instant};

use rsched_engine::json::Json;
use rsched_graph::failpoint::{self, FailAction};
use rsched_net::{poll, Listen, NetConfig, NetServer, NetSummary};

const DESIGN: &str =
    "op sync unbounded\nop alu 2\nop out 1\ndep sync alu\ndep alu out\nmax alu out 4\n";

/// A blocking line-oriented client over any socket stream.
struct Client<S: std::io::Read + Write> {
    reader: BufReader<S>,
    writer: S,
}

impl Client<TcpStream> {
    fn connect_tcp(listen: &Listen) -> Client<TcpStream> {
        let Listen::Tcp(addr) = listen else {
            panic!("expected tcp listen address")
        };
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }
}

impl Client<UnixStream> {
    fn connect_unix(listen: &Listen) -> Client<UnixStream> {
        let Listen::Unix(path) = listen else {
            panic!("expected unix listen path")
        };
        let stream = UnixStream::connect(path).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }
}

impl<S: std::io::Read + Write> Client<S> {
    // One write per frame: a separate 1-byte `\n` write can be held back
    // by Nagle waiting on the delayed ACK of the body segment (~40ms on
    // loopback), leaving the server with a partial frame mid-test.
    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read");
        assert!(n > 0, "server closed connection before responding");
        Json::parse(line.trim_end()).expect("response is json")
    }

    fn round_trip(&mut self, line: &str) -> Json {
        self.send(line);
        self.recv()
    }
}

fn spawn_server(
    config: NetConfig,
) -> (
    Listen,
    rsched_net::ShutdownHandle,
    thread::JoinHandle<NetSummary>,
) {
    let server = NetServer::bind(config).expect("bind");
    let listen = server.local_addr().clone();
    let handle = server.handle();
    let join = thread::spawn(move || server.run().expect("run"));
    (listen, handle, join)
}

fn loopback_config() -> NetConfig {
    let mut config = NetConfig::new(Listen::parse("127.0.0.1:0").unwrap());
    config.engine.workers = 2;
    config
}

fn open_line(session: &str, id: u32) -> String {
    format!(
        "{{\"id\":{id},\"op\":\"open\",\"session\":\"{session}\",\"design\":{}}}",
        Json::Str(DESIGN.to_owned()).render()
    )
}

#[test]
fn tcp_round_trip_matches_stdio_shapes() {
    let (listen, handle, join) = spawn_server(loopback_config());
    let mut client = Client::connect_tcp(&listen);

    let open = client.round_trip(&open_line("s1", 1));
    assert_eq!(open.get("id"), Some(&Json::Int(1)));
    assert_eq!(open.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        open.get("verdict").and_then(Json::as_str),
        Some("well-posed")
    );

    let edit = client.round_trip(
        "{\"id\":2,\"op\":\"edit\",\"session\":\"s1\",\"kind\":\"set_delay\",\"vertex\":\"alu\",\"delay\":3}",
    );
    assert_eq!(edit.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        edit.get("outcome").and_then(Json::as_str),
        Some("rescheduled")
    );

    let schedule = client.round_trip("{\"id\":3,\"op\":\"schedule\",\"session\":\"s1\"}");
    assert_eq!(schedule.get("ok"), Some(&Json::Bool(true)));
    let offsets = schedule.get("offsets").expect("offsets");
    assert_eq!(
        offsets
            .get("out")
            .and_then(|row| row.get("sync"))
            .and_then(Json::as_i64),
        Some(3),
        "out trails the sync anchor by delay(alu)=3: {schedule:?}"
    );

    // Unknown op and malformed JSON are answered in-band, same shapes as
    // the stdio loop produces.
    let unknown = client.round_trip("{\"id\":4,\"op\":\"warp\"}");
    assert_eq!(unknown.get("ok"), Some(&Json::Bool(false)));
    let garbage = client.round_trip("{not json");
    assert_eq!(garbage.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(garbage.get("id"), Some(&Json::Null));

    let close = client.round_trip("{\"id\":5,\"op\":\"close\",\"session\":\"s1\"}");
    assert_eq!(close.get("ok"), Some(&Json::Bool(true)));

    drop(client);
    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.connections, 1);
    assert_eq!(summary.requests, 6);
    assert_eq!(summary.sessions_opened, 1);
    assert_eq!(summary.errors, 2);
    assert_eq!(summary.quota_rejections, 0);
}

#[test]
fn unix_socket_round_trips_and_removes_socket_file() {
    let dir = std::env::temp_dir().join(format!("rsched-net-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("serve.sock");
    let mut config = loopback_config();
    config.listen = Listen::parse(path.to_str().unwrap()).unwrap();

    let (listen, handle, join) = spawn_server(config);
    let mut client = Client::connect_unix(&listen);
    let open = client.round_trip(&open_line("u1", 1));
    assert_eq!(open.get("ok"), Some(&Json::Bool(true)));
    let stats = client.round_trip("{\"id\":2,\"op\":\"stats\",\"session\":\"u1\"}");
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));

    drop(client);
    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.connections, 1);
    assert_eq!(summary.requests, 2);
    assert!(!path.exists(), "socket file removed after shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_connections_share_and_isolate_sessions() {
    let (listen, handle, join) = spawn_server(loopback_config());

    // Two clients, disjoint sessions, interleaved over real sockets.
    let mut a = Client::connect_tcp(&listen);
    let mut b = Client::connect_tcp(&listen);
    assert_eq!(
        a.round_trip(&open_line("a", 1)).get("ok"),
        Some(&Json::Bool(true))
    );
    assert_eq!(
        b.round_trip(&open_line("b", 1)).get("ok"),
        Some(&Json::Bool(true))
    );

    // Session "a" is visible from connection b too — sessions are server
    // state, pinned to a shard, not connection state.
    let cross = b.round_trip("{\"id\":2,\"op\":\"schedule\",\"session\":\"a\"}");
    assert_eq!(cross.get("ok"), Some(&Json::Bool(true)));

    // But an unknown session still errors.
    let missing = a.round_trip("{\"id\":3,\"op\":\"schedule\",\"session\":\"ghost\"}");
    assert_eq!(missing.get("ok"), Some(&Json::Bool(false)));

    drop(a);
    drop(b);
    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.connections, 2);
    assert_eq!(summary.sessions_opened, 2);
}

#[test]
fn session_quota_rejects_in_band_and_close_frees_slot() {
    let mut config = loopback_config();
    config.max_sessions_per_conn = Some(1);
    let (listen, handle, join) = spawn_server(config);
    let mut client = Client::connect_tcp(&listen);

    assert_eq!(
        client.round_trip(&open_line("q1", 1)).get("ok"),
        Some(&Json::Bool(true))
    );
    let rejected = client.round_trip(&open_line("q2", 2));
    assert_eq!(rejected.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(rejected.get("id"), Some(&Json::Int(2)));
    assert_eq!(
        rejected.get("error").and_then(Json::as_str),
        Some("quota exceeded: connection already holds 1 session(s)")
    );

    // Re-opening the *held* session is a replace, not a new slot.
    assert_eq!(
        client.round_trip(&open_line("q1", 3)).get("ok"),
        Some(&Json::Bool(true))
    );

    // Closing frees the slot for a different session.
    assert_eq!(
        client
            .round_trip("{\"id\":4,\"op\":\"close\",\"session\":\"q1\"}")
            .get("ok"),
        Some(&Json::Bool(true))
    );
    assert_eq!(
        client.round_trip(&open_line("q2", 5)).get("ok"),
        Some(&Json::Bool(true))
    );

    drop(client);
    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.quota_rejections, 1);
    assert_eq!(summary.sessions_opened, 3);
}

#[test]
fn inflight_quota_rejects_excess_pipelining() {
    let mut config = loopback_config();
    config.max_inflight_per_conn = Some(1);
    // One worker whose every job stalls briefly, so a burst of pipelined
    // requests reliably has one in flight when the next arrives.
    config.engine.workers = 1;
    let scope = 0x6e657401u64;
    config.engine.fault_scope = Some(scope);
    let _delay = failpoint::arm(
        "serve::handle",
        Some(scope),
        FailAction::Delay(std::time::Duration::from_millis(40)),
        0,
        None,
    );

    let (listen, handle, join) = spawn_server(config);
    let mut client = Client::connect_tcp(&listen);

    client.send(&open_line("p1", 1));
    client.send("{\"id\":2,\"op\":\"schedule\",\"session\":\"p1\"}");
    client.send("{\"id\":3,\"op\":\"schedule\",\"session\":\"p1\"}");

    // All three are answered; at least one of the trailing pair was
    // rejected by the in-flight quota while an earlier one executed.
    let responses: Vec<Json> = (0..3).map(|_| client.recv()).collect();
    let rejected: Vec<&Json> = responses
        .iter()
        .filter(|r| {
            r.get("error")
                .and_then(Json::as_str)
                .is_some_and(|e| e.starts_with("quota exceeded:"))
        })
        .collect();
    assert!(
        !rejected.is_empty(),
        "expected an in-flight quota rejection: {responses:?}"
    );
    for r in &rejected {
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
    }

    drop(client);
    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.quota_rejections, rejected.len());
    assert_eq!(summary.requests, 3);
}

#[test]
fn accept_faults_answer_in_band_and_keep_listening() {
    let mut config = loopback_config();
    let scope = 0x6e657402u64;
    config.engine.fault_scope = Some(scope);
    // First connection gets an injected accept error, second a panic on
    // the accept path, third proceeds normally.
    let _err = failpoint::arm(
        "net::accept",
        Some(scope),
        FailAction::Error("accept sabotage".to_owned()),
        0,
        Some(1),
    );
    // skip 0: exhausted entries are passed over, so once the error guard
    // is spent the panic guard fires on the very next evaluation.
    let _panic = failpoint::arm("net::accept", Some(scope), FailAction::Panic, 0, Some(1));

    let (listen, handle, join) = spawn_server(config);

    // Connection 1: answered in-band with the injected error, then closed.
    let mut c1 = Client::connect_tcp(&listen);
    let line = {
        let mut line = String::new();
        c1.reader.read_line(&mut line).expect("read");
        line
    };
    let fault = Json::parse(line.trim_end()).expect("fault line is json");
    assert_eq!(fault.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        fault.get("error").and_then(Json::as_str),
        Some("injected fault: accept sabotage")
    );

    // Connection 2: dropped by the injected panic — clean EOF or a reset
    // (the server may close before our send drains), never a response.
    let mut c2 = Client::connect_tcp(&listen);
    // Best-effort send: the server may already have dropped us.
    let _ = c2.writer.write_all(open_line("f1", 1).as_bytes());
    let _ = c2.writer.write_all(b"\n");
    let _ = c2.writer.flush();
    let mut line = String::new();
    let n = c2.reader.read_line(&mut line).unwrap_or(0);
    assert_eq!(n, 0, "panicked accept drops the connection: {line:?}");

    // Connection 3: business as usual.
    let mut c3 = Client::connect_tcp(&listen);
    assert_eq!(
        c3.round_trip(&open_line("f2", 1)).get("ok"),
        Some(&Json::Bool(true))
    );

    drop(c1);
    drop(c2);
    drop(c3);
    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.accept_faults, 2);
    assert_eq!(summary.connections, 3);
    assert_eq!(summary.sessions_opened, 1);
}

#[test]
fn pipelined_burst_is_answered_once_in_session_order() {
    let mut config = loopback_config();
    config.engine.queue_depth = 256;
    // Eight sessions, spread over both slots.
    let sessions: Vec<String> = (0..8).map(|i| format!("burst{i}")).collect();
    let slots: std::collections::HashSet<usize> = sessions
        .iter()
        .map(|name| rsched_engine::shard_of(name, 2))
        .collect();
    assert_eq!(slots.len(), 2, "the sessions cover both slots");

    let (listen, handle, join) = spawn_server(config);
    let mut client = Client::connect_tcp(&listen);
    // 256 frames in one write: each session's open, then edits in turn.
    let mut burst = String::new();
    for id in 0..256u32 {
        let session = &sessions[id as usize % 8];
        if id < 8 {
            burst.push_str(&open_line(session, id));
        } else {
            burst.push_str(&format!(
                "{{\"id\":{id},\"op\":\"edit\",\"session\":\"{session}\",\"kind\":\"set_delay\",\"vertex\":\"alu\",\"delay\":{}}}",
                1 + id % 3
            ));
        }
        burst.push('\n');
    }
    client.writer.write_all(burst.as_bytes()).expect("write");

    let mut answered = vec![false; 256];
    let mut last = [None::<i64>; 8];
    for _ in 0..256 {
        let response = client.recv();
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response:?}");
        let id = response
            .get("id")
            .and_then(Json::as_i64)
            .expect("id echoed");
        assert!(!answered[id as usize], "request {id} answered twice");
        answered[id as usize] = true;
        let session = id as usize % 8;
        assert!(
            last[session] < Some(id),
            "session {session}: {id} answered after {:?}",
            last[session]
        );
        last[session] = Some(id);
    }

    drop(client);
    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.requests, 256);
    assert_eq!(summary.errors, 0);
    assert_eq!(summary.shed, 0);
}

#[test]
fn worker_kill_mid_stream_loses_no_requests() {
    let mut config = loopback_config();
    config.engine.workers = 1;
    let scope = 0x6e657403u64;
    config.engine.fault_scope = Some(scope);
    // Kill the shard worker on its 3rd pass over the kill site; the
    // supervisor must respawn it and answer everything.
    let _kill = failpoint::arm(
        "serve::worker_kill",
        Some(scope),
        FailAction::Panic,
        2,
        Some(1),
    );

    let (listen, handle, join) = spawn_server(config);
    let mut client = Client::connect_tcp(&listen);
    assert_eq!(
        client.round_trip(&open_line("k1", 1)).get("ok"),
        Some(&Json::Bool(true))
    );
    for i in 2..=12 {
        let response = client.round_trip(&format!(
            "{{\"id\":{i},\"op\":\"edit\",\"session\":\"k1\",\"kind\":\"set_delay\",\"vertex\":\"alu\",\"delay\":{}}}",
            1 + (i % 3)
        ));
        assert_eq!(
            response.get("id"),
            Some(&Json::Int(i as i64)),
            "request {i} answered in order: {response:?}"
        );
        assert_eq!(
            response.get("ok"),
            Some(&Json::Bool(true)),
            "request {i} succeeded: {response:?}"
        );
    }

    drop(client);
    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.requests, 12);
    assert!(
        summary.shards_respawned >= 1,
        "the killed shard respawned: {summary:?}"
    );
}

#[test]
fn rst_abort_frees_connection_state_and_generation_guards_reuse() {
    let mut config = loopback_config();
    config.max_sessions_per_conn = Some(1);
    config.engine.workers = 1;
    // Stall the worker so the RST lands while a request is in flight:
    // its completion must be dropped by the generation check, never
    // delivered to whoever reuses the slab slot.
    let scope = 0x6e657404u64;
    config.engine.fault_scope = Some(scope);
    let _delay = failpoint::arm(
        "serve::handle",
        Some(scope),
        FailAction::Delay(Duration::from_millis(60)),
        0,
        None,
    );

    let (listen, handle, join) = spawn_server(config);
    let mut victim = Client::connect_tcp(&listen);
    victim.send(&open_line("r1", 1));
    // Give the event loop a beat to read and dispatch the frame (the
    // worker is still inside its 60 ms stall when the RST lands).
    thread::sleep(Duration::from_millis(20));
    // Abort with an RST (not a FIN) — exactly like a dying client.
    poll::set_linger_abort(&victim.writer).expect("linger");
    drop(victim);

    // The replacement connection almost certainly reuses slab slot 0.
    // Its quota must start fresh, and the dead connection's completion
    // must not leak into this stream.
    let mut fresh = Client::connect_tcp(&listen);
    let open = fresh.round_trip(&open_line("r2", 10));
    assert_eq!(open.get("id"), Some(&Json::Int(10)));
    assert_eq!(open.get("ok"), Some(&Json::Bool(true)));
    // One session already held; the per-connection cap of 1 applies to
    // *this* connection's holdings only, so a second distinct session is
    // the first rejection.
    let rejected = fresh.round_trip(&open_line("r3", 11));
    assert_eq!(
        rejected.get("error").and_then(Json::as_str),
        Some("quota exceeded: connection already holds 1 session(s)")
    );
    // The RST'd connection's session survived server-side (sessions are
    // server state): re-opening it from the fresh connection is a
    // replace of... a different connection's former holding, i.e. a new
    // slot for us — and it was our cap, so close r2 first.
    assert_eq!(
        fresh
            .round_trip("{\"id\":12,\"op\":\"close\",\"session\":\"r2\"}")
            .get("ok"),
        Some(&Json::Bool(true))
    );
    let reopened = fresh.round_trip("{\"id\":13,\"op\":\"schedule\",\"session\":\"r1\"}");
    assert_eq!(
        reopened.get("ok"),
        Some(&Json::Bool(true)),
        "session opened by the RST'd connection is still served: {reopened:?}"
    );

    drop(fresh);
    handle.shutdown();
    // Shutdown returning at all proves the aborted connection was reaped
    // (drain waits for live connections and there is no drain timeout).
    let summary = join.join().expect("server thread");
    assert_eq!(summary.connections, 2);
}

#[test]
fn oversize_frame_rejected_in_band_and_connection_lives() {
    let mut config = loopback_config();
    config.max_frame_bytes = 1024;
    let (listen, handle, join) = spawn_server(config);
    let mut client = Client::connect_tcp(&listen);

    // 4 KiB of junk on one line: rejected with the exact shape, without
    // buffering the line.
    let mut big = vec![b'x'; 4096];
    big.push(b'\n');
    client.writer.write_all(&big).expect("write");
    client.writer.flush().expect("flush");
    let response = client.recv();
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(response.get("id"), Some(&Json::Null));
    assert_eq!(
        response.get("error").and_then(Json::as_str),
        Some("oversize frame: exceeds 1024 byte cap")
    );

    // The same connection keeps working.
    assert_eq!(
        client.round_trip(&open_line("o1", 2)).get("ok"),
        Some(&Json::Bool(true))
    );

    drop(client);
    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.oversize_frames, 1);
    assert_eq!(summary.requests, 2);
    assert_eq!(summary.errors, 1);
}

#[test]
fn binary_junk_and_nul_frames_answered_in_band() {
    let (listen, handle, join) = spawn_server(loopback_config());
    let mut client = Client::connect_tcp(&listen);

    // Invalid UTF-8 inside the frame: the exact in-band shape the stdio
    // loop produces for the same bytes.
    client
        .writer
        .write_all(b"{\"id\":1,\"op\":\"stats\"\xC3\x28}\n")
        .expect("write");
    client.writer.flush().expect("flush");
    let response = client.recv();
    assert_eq!(response.get("id"), Some(&Json::Null));
    assert_eq!(
        response.get("error").and_then(Json::as_str),
        Some("malformed request: frame is not valid UTF-8")
    );

    // NUL bytes are valid UTF-8 but hostile JSON: a malformed-request
    // error, and the connection lives.
    client.writer.write_all(b"\x00\x00\x00\n").expect("write");
    client.writer.flush().expect("flush");
    let response = client.recv();
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
    assert!(
        response
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.starts_with("malformed request:")),
        "{response:?}"
    );

    assert_eq!(
        client.round_trip(&open_line("j1", 3)).get("ok"),
        Some(&Json::Bool(true))
    );

    drop(client);
    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.requests, 3);
    assert_eq!(summary.errors, 2);
}

#[test]
fn frames_split_at_every_byte_boundary_still_parse() {
    let (listen, handle, join) = spawn_server(loopback_config());

    // One frame dribbled a byte at a time exercises every boundary
    // within a frame.
    let mut client = Client::connect_tcp(&listen);
    let frame = format!("{}\n", open_line("t1", 1));
    for byte in frame.as_bytes() {
        client
            .writer
            .write_all(std::slice::from_ref(byte))
            .expect("write");
        client.writer.flush().expect("flush");
    }
    assert_eq!(client.recv().get("ok"), Some(&Json::Bool(true)));

    // A two-frame pipeline split at every boundary exercises carries
    // across the newline: the tail of one read starting the next frame.
    let double = format!(
        "{}\n{{\"id\":2,\"op\":\"schedule\",\"session\":\"t1\"}}\n",
        open_line("t1", 1)
    );
    let bytes = double.as_bytes();
    for cut in 1..bytes.len() {
        client.writer.write_all(&bytes[..cut]).expect("write");
        client.writer.flush().expect("flush");
        client.writer.write_all(&bytes[cut..]).expect("write");
        client.writer.flush().expect("flush");
        let first = client.recv();
        assert_eq!(first.get("id"), Some(&Json::Int(1)), "cut {cut}: {first:?}");
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)), "cut {cut}");
        let second = client.recv();
        assert_eq!(
            second.get("id"),
            Some(&Json::Int(2)),
            "cut {cut}: {second:?}"
        );
        assert_eq!(second.get("ok"), Some(&Json::Bool(true)), "cut {cut}");
    }

    drop(client);
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn health_op_reports_shard_liveness_and_connection_counters() {
    let mut config = loopback_config();
    config.engine.workers = 3;
    let (listen, handle, join) = spawn_server(config);
    let mut client = Client::connect_tcp(&listen);
    let _idle = Client::connect_tcp(&listen);

    let health = client.round_trip("{\"id\":1,\"op\":\"health\"}");
    assert_eq!(health.get("id"), Some(&Json::Int(1)));
    assert_eq!(health.get("ok"), Some(&Json::Bool(true)));
    let body = health.get("health").expect("health block");
    assert_eq!(body.get("shards"), Some(&Json::Int(3)));
    assert_eq!(body.get("panics"), Some(&Json::Int(0)));
    let net = body.get("net").expect("net block");
    assert_eq!(
        net.get("connections"),
        Some(&Json::Int(2)),
        "both live connections counted: {health:?}"
    );
    assert_eq!(net.get("draining"), Some(&Json::Bool(false)));
    assert_eq!(net.get("evicted_idle"), Some(&Json::Int(0)));
    assert_eq!(net.get("evicted_deadline"), Some(&Json::Int(0)));
    assert_eq!(net.get("evicted_slow"), Some(&Json::Int(0)));
    assert_eq!(net.get("oversize_frames"), Some(&Json::Int(0)));

    drop(client);
    drop(_idle);
    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.requests, 1);
}

/// A linear chain of `n` unbounded ops: every op is an anchor, so the
/// offsets matrix is O(n²) — a compact way to make schedule responses
/// large enough to overwhelm socket buffers.
fn anchor_chain(n: usize) -> String {
    let mut text = String::new();
    for i in 0..n {
        text.push_str(&format!("op a{i} unbounded\n"));
    }
    for i in 1..n {
        text.push_str(&format!("dep a{} a{i}\n", i - 1));
    }
    text
}

#[test]
fn slow_consumer_is_evicted_at_write_buffer_cap() {
    let mut config = loopback_config();
    config.write_buf_cap = 64 * 1024;
    // Enough queue for the whole pipelined burst — shed responses are
    // tiny and would dilute the volume this test needs.
    config.engine.queue_depth = 4096;
    let (listen, handle, join) = spawn_server(config);
    let mut client = Client::connect_tcp(&listen);

    let design = anchor_chain(60);
    assert_eq!(
        client
            .round_trip(&format!(
                "{{\"id\":1,\"op\":\"open\",\"session\":\"w1\",\"design\":{}}}",
                Json::Str(design).render()
            ))
            .get("ok"),
        Some(&Json::Bool(true))
    );
    // Pipeline many huge-response requests and then go silent — never
    // reading a byte. The combined response volume (≈16 KiB × 1200)
    // dwarfs what loopback socket buffers can absorb even fully
    // autotuned (≈10 MiB), so the server-side write buffer must fill
    // and trip the cap.
    for i in 2..=1201 {
        client.send(&format!(
            "{{\"id\":{i},\"op\":\"schedule\",\"session\":\"w1\"}}"
        ));
    }
    // A second connection watches the eviction land via `health`.
    let mut watcher = Client::connect_tcp(&listen);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let health = watcher.round_trip("{\"id\":1,\"op\":\"health\"}");
        let evicted = health
            .get("health")
            .and_then(|h| h.get("net"))
            .and_then(|n| n.get("evicted_slow"))
            .and_then(Json::as_i64);
        if evicted == Some(1) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no slow-consumer eviction within 60s: {health:?}"
        );
        thread::sleep(Duration::from_millis(50));
    }
    // The victim's socket was closed out from under it: reads drain
    // whatever the kernel buffered, then end (EOF or RST).
    client
        .writer
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut sink = Vec::new();
    let _ = client.reader.get_mut().read_to_end(&mut sink);

    drop(client);
    drop(watcher);
    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(
        summary.evicted_slow, 1,
        "the stalled reader was evicted at the write-buffer cap: {summary:?}"
    );
}

#[test]
fn idle_connection_is_evicted_after_timeout() {
    let mut config = loopback_config();
    config.idle_timeout = Some(Duration::from_millis(150));
    let (listen, handle, join) = spawn_server(config);
    let mut client = Client::connect_tcp(&listen);

    // Activity resets the clock; the eviction fires only after silence.
    assert_eq!(
        client.round_trip(&open_line("i1", 1)).get("ok"),
        Some(&Json::Bool(true))
    );
    let started = Instant::now();
    let mut tail = String::new();
    client
        .reader
        .get_mut()
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    client.reader.read_to_string(&mut tail).expect("notice+eof");
    assert!(
        started.elapsed() >= Duration::from_millis(100),
        "evicted only after the idle window"
    );
    let notice = Json::parse(tail.lines().next().expect("notice")).expect("json");
    assert_eq!(
        notice.get("error").and_then(Json::as_str),
        Some("evicted: idle timeout")
    );

    drop(client);
    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.evicted_idle, 1);
    assert_eq!(summary.requests, 1);
}

#[test]
fn slow_loris_partial_frame_is_evicted_at_read_deadline() {
    let mut config = loopback_config();
    config.read_deadline = Some(Duration::from_millis(150));
    let (listen, handle, join) = spawn_server(config);
    let mut client = Client::connect_tcp(&listen);

    // A complete frame is unaffected by the read deadline.
    assert_eq!(
        client.round_trip(&open_line("l1", 1)).get("ok"),
        Some(&Json::Bool(true))
    );
    // Half a frame, then silence.
    client.writer.write_all(b"{\"id\":2,\"op\"").expect("write");
    client.writer.flush().expect("flush");
    let started = Instant::now();
    let mut tail = String::new();
    client
        .reader
        .get_mut()
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    client.reader.read_to_string(&mut tail).expect("notice+eof");
    assert!(started.elapsed() >= Duration::from_millis(100));
    let notice = Json::parse(tail.lines().next().expect("notice")).expect("json");
    assert_eq!(
        notice.get("error").and_then(Json::as_str),
        Some("evicted: read deadline exceeded on a partial frame")
    );

    drop(client);
    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.evicted_deadline, 1);
    assert_eq!(summary.evicted_idle, 0);
}
