//! Socket-parity fuzzing of the sharded network server.
//!
//! [`fuzz_net`] drives a live [`rsched_net::NetServer`] on a loopback TCP
//! port with several concurrent connections, each sending the same seeded
//! adversarial frame mix as the stdio harness (valid traffic, garbage,
//! truncated JSON, unknown ops, expired deadlines) over a **disjoint
//! session namespace** per connection. It asserts two contracts:
//!
//! - **Protocol** — per connection: one well-shaped response per frame,
//!   id multiset echoed exactly, never a dropped or extra line.
//! - **Parity** — the multiset of response lines from the socket run is
//!   *bit-identical* to running the concatenated per-connection scripts
//!   through [`rsched_engine::serve`] on stdio. Sessions never span
//!   connections, so per-session request order (the only order that
//!   affects responses) is preserved by the concatenation; parity
//!   therefore transfers every oracle guarantee the stdio fuzzers
//!   establish to the socket path.

use std::fmt;
use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rsched_engine::json::Json;
use rsched_engine::{serve, ServeConfig, MALFORMED_UTF8_ERROR};
use rsched_net::{poll, Listen, NetConfig, NetServer};

use crate::fuzz::GraphMutator;
use crate::serve_fuzz::{expected_id_multiset, malformed_response, random_frame};

/// Tuning knobs for [`fuzz_net`].
#[derive(Debug, Clone)]
pub struct NetFuzzConfig {
    /// PRNG seed; the frame mix is a pure function of the config.
    pub seed: u64,
    /// Independent server runs (each gets a fresh port and shard pool).
    pub rounds: usize,
    /// Concurrent client connections per round.
    pub connections: usize,
    /// Frames sent per connection.
    pub frames_per_conn: usize,
}

impl Default for NetFuzzConfig {
    fn default() -> Self {
        NetFuzzConfig {
            seed: 0,
            rounds: 4,
            connections: 4,
            frames_per_conn: 24,
        }
    }
}

/// Outcome of a [`fuzz_net`] run.
#[derive(Debug, Clone, Default)]
pub struct NetFuzzReport {
    /// Rounds executed.
    pub rounds: usize,
    /// Connections opened across all rounds.
    pub connections: usize,
    /// Frames sent across all rounds.
    pub frames: usize,
    /// Response lines received across all rounds.
    pub responses: usize,
    /// Contract violations, in discovery order.
    pub failures: Vec<String>,
}

impl NetFuzzReport {
    /// `true` when every round honoured both contracts.
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for NetFuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} net round(s), {} connection(s), {} frame(s), {} response(s)",
            self.rounds, self.connections, self.frames, self.responses
        )?;
        if self.failures.is_empty() {
            writeln!(f, "socket protocol and stdio parity held on every frame")?;
        } else {
            writeln!(f, "{} FAILURE(S):", self.failures.len())?;
            for fail in &self.failures {
                writeln!(f, "  {fail}")?;
            }
        }
        Ok(())
    }
}

/// One connection's closed-loop exchange: send a frame, read exactly one
/// response line, repeat. Returns the raw response lines.
fn drive_connection(listen: &Listen, script: &[String]) -> Result<Vec<String>, String> {
    let Listen::Tcp(addr) = listen else {
        return Err("net fuzz expects a tcp listener".to_owned());
    };
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    // Nagle + delayed ACK can hold a trailing segment back ~40ms on
    // loopback; the fuzzer is closed-loop, so latency is pure overhead.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut writer = stream;
    let mut responses = Vec::with_capacity(script.len());
    for frame in script {
        if frame.trim().is_empty() {
            continue;
        }
        writer
            .write_all(format!("{frame}\n").as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err(format!("connection closed before answering: {frame}"));
        }
        responses.push(line.trim_end().to_owned());
    }
    Ok(responses)
}

/// Runs the socket-parity harness; see the module docs for the contracts.
pub fn fuzz_net(config: &NetFuzzConfig) -> NetFuzzReport {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut designs = GraphMutator::new(config.seed.wrapping_add(0x6e65));
    let mut report = NetFuzzReport::default();
    for round in 0..config.rounds {
        report.rounds += 1;
        // Disjoint session namespaces per connection ("c0x…", "c1x…") so
        // cross-connection scheduling order cannot affect any response.
        let scripts: Vec<Vec<String>> = (0..config.connections)
            .map(|ci| {
                (0..config.frames_per_conn)
                    .map(|frame_no| {
                        random_frame(&mut rng, &mut designs, frame_no as i64, &format!("c{ci}x"))
                    })
                    .filter(|f| !f.trim().is_empty())
                    .collect()
            })
            .collect();

        let mut net = NetConfig::new(Listen::parse("127.0.0.1:0").expect("loopback spec"));
        net.engine.workers = rng.gen_range(1usize..=4);
        let server = match NetServer::bind(net) {
            Ok(s) => s,
            Err(e) => {
                report.failures.push(format!("round {round}: bind: {e}"));
                break;
            }
        };
        let listen = server.local_addr().clone();
        let handle = server.handle();
        let server_thread = thread::spawn(move || server.run());

        let socket_lines: Vec<Result<Vec<String>, String>> = thread::scope(|scope| {
            let handles: Vec<_> = scripts
                .iter()
                .map(|script| scope.spawn(|| drive_connection(&listen, script)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        });
        handle.shutdown();
        match server_thread.join() {
            Ok(Ok(_summary)) => {}
            Ok(Err(e)) => report.failures.push(format!("round {round}: server: {e}")),
            Err(_) => report
                .failures
                .push(format!("round {round}: server thread panicked")),
        }

        let mut all_socket: Vec<String> = Vec::new();
        for (ci, (script, outcome)) in scripts.iter().zip(&socket_lines).enumerate() {
            report.connections += 1;
            report.frames += script.len();
            let lines = match outcome {
                Ok(lines) => lines,
                Err(e) => {
                    report
                        .failures
                        .push(format!("round {round} conn {ci}: {e}"));
                    continue;
                }
            };
            report.responses += lines.len();
            // Per-connection protocol contract, same as the stdio harness.
            let mut echoed: Vec<String> = Vec::new();
            for line in lines {
                match Json::parse(line) {
                    Ok(response) => {
                        if let Some(violation) = malformed_response(&response) {
                            report
                                .failures
                                .push(format!("round {round} conn {ci}: {violation}: {line}"));
                        }
                        echoed.push(response.get("id").cloned().unwrap_or(Json::Null).render());
                    }
                    Err(e) => report.failures.push(format!(
                        "round {round} conn {ci}: unparsable response ({e}): {line}"
                    )),
                }
            }
            let mut expected = expected_id_multiset(&script.join("\n"));
            expected.sort();
            echoed.sort();
            if expected != echoed {
                report.failures.push(format!(
                    "round {round} conn {ci}: echoed ids {echoed:?} != expected {expected:?}"
                ));
            }
            all_socket.extend(lines.iter().cloned());
        }

        // Parity: the same frames, concatenated per connection, through
        // the stdio loop must yield the identical response multiset.
        let stdio_script: String = scripts
            .iter()
            .flat_map(|s| s.iter())
            .map(|f| format!("{f}\n"))
            .collect();
        let mut output: Vec<u8> = Vec::new();
        let stdio_config = ServeConfig::default();
        match serve(
            Cursor::new(stdio_script.into_bytes()),
            &mut output,
            &stdio_config,
        ) {
            Ok(_) => {
                let mut stdio_lines: Vec<String> = String::from_utf8_lossy(&output)
                    .lines()
                    .filter(|l| !l.trim().is_empty())
                    .map(str::to_owned)
                    .collect();
                let mut socket_sorted = all_socket;
                stdio_lines.sort();
                socket_sorted.sort();
                if stdio_lines != socket_sorted {
                    let diff = socket_sorted
                        .iter()
                        .zip(&stdio_lines)
                        .find(|(a, b)| a != b)
                        .map(|(a, b)| format!("socket {a} vs stdio {b}"))
                        .unwrap_or_else(|| {
                            format!(
                                "{} socket vs {} stdio lines",
                                socket_sorted.len(),
                                stdio_lines.len()
                            )
                        });
                    report
                        .failures
                        .push(format!("round {round}: socket/stdio parity broken: {diff}"));
                }
            }
            Err(e) => report
                .failures
                .push(format!("round {round}: stdio mirror run failed: {e}")),
        }
        if report.failures.len() >= 5 {
            break;
        }
    }
    report
}

// ---------------------------------------------------------------------
// Chaos phase: socket-level fault injection.
// ---------------------------------------------------------------------

/// Tuning knobs for [`fuzz_chaos`].
#[derive(Debug, Clone)]
pub struct ChaosFuzzConfig {
    /// PRNG seed; fault plans are a pure function of the config.
    pub seed: u64,
    /// Independent server runs, each with fresh victims and saboteurs.
    pub rounds: usize,
    /// Well-behaved closed-loop connections per round (the bit-identity
    /// witnesses).
    pub victims: usize,
    /// Hostile connections per round.
    pub chaos_conns: usize,
    /// Frames per connection (victims and pipelining saboteurs alike).
    pub frames_per_conn: usize,
    /// The server's `--read-deadline`, which the slow-loris saboteur
    /// must provably trip.
    pub read_deadline_ms: u64,
}

impl Default for ChaosFuzzConfig {
    fn default() -> Self {
        ChaosFuzzConfig {
            seed: 0,
            rounds: 4,
            victims: 2,
            chaos_conns: 3,
            frames_per_conn: 10,
            // Generous on purpose: saboteurs deliberately dribble bytes
            // (`Torn`), and on a loaded single-core box a writer can sit
            // descheduled mid-frame; only the loris must ever trip this.
            read_deadline_ms: 400,
        }
    }
}

/// Outcome of a [`fuzz_chaos`] run.
#[derive(Debug, Clone, Default)]
pub struct ChaosFuzzReport {
    /// Rounds executed.
    pub rounds: usize,
    /// Victim connections driven across all rounds.
    pub victim_connections: usize,
    /// Hostile connections driven across all rounds.
    pub chaos_connections: usize,
    /// Deadline evictions the server proved (loris connections closed
    /// within the generous bound).
    pub evictions: usize,
    /// Contract violations, in discovery order.
    pub failures: Vec<String>,
}

impl ChaosFuzzReport {
    /// `true` when every round survived every fault with the contracts
    /// intact.
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for ChaosFuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} chaos round(s), {} victim conn(s), {} hostile conn(s), {} proven eviction(s)",
            self.rounds, self.victim_connections, self.chaos_connections, self.evictions
        )?;
        if self.failures.is_empty() {
            writeln!(
                f,
                "server survived every fault; victims bit-identical to the undisturbed control"
            )?;
        } else {
            writeln!(f, "{} FAILURE(S):", self.failures.len())?;
            for fail in &self.failures {
                writeln!(f, "  {fail}")?;
            }
        }
        Ok(())
    }
}

/// The frame-size cap the chaos server runs with: small enough that the
/// oversize saboteur is cheap, large enough that every legitimate fuzz
/// frame fits with room to spare.
const CHAOS_MAX_FRAME: usize = 64 * 1024;

/// How long a saboteur will wait for the server to evict it before
/// declaring the deadline broken — generous so a loaded CI box cannot
/// produce false alarms.
const EVICTION_PATIENCE: Duration = Duration::from_secs(10);

/// One hostile connection's script, fixed before the thread spawns.
enum ChaosPlan {
    /// Valid frames written in seeded 1–3 byte pieces (covers "split at
    /// every byte boundary": chunk size 1 hits all of them), response
    /// read after each frame.
    Torn { frames: Vec<String>, chunk: usize },
    /// Valid frames pipelined in one burst, then a stall with responses
    /// left unread, then everything collected.
    Stall { frames: Vec<String>, stall_ms: u64 },
    /// Valid frames pipelined, then the write half shut down; every
    /// frame must still be answered before EOF.
    HalfClose { frames: Vec<String> },
    /// A frame sent, then the connection aborted with an RST mid-life.
    Rst { frame: String },
    /// Hostile bytes: invalid UTF-8, NUL bytes, an oversize line — each
    /// must get a well-shaped in-band error and the connection lives.
    Hostile,
    /// Half a frame, then silence: the server must evict within its
    /// read deadline.
    Loris,
}

/// Drives one saboteur. Returns `Ok(proven_eviction)` or the violated
/// contract.
fn drive_chaos(addr: &std::net::SocketAddr, plan: &ChaosPlan) -> Result<bool, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    // Without this, Nagle holds each torn 1–3 byte chunk until the prior
    // segment is ACKed — the dribble is meant to test the server's frame
    // reassembly, not the client's own TCP stack.
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(EVICTION_PATIENCE))
        .map_err(|e| format!("timeout: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    let read_line = |reader: &mut BufReader<TcpStream>, what: &str| -> Result<String, String> {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => Err(format!("{what}: connection closed early")),
            Ok(_) => Ok(line.trim_end().to_owned()),
            Err(e) => Err(format!("{what}: {e}")),
        }
    };
    // Checks one well-shaped error response for a hostile frame.
    let expect_error = |line: &str, expected: Option<&str>, what: &str| -> Result<(), String> {
        let response =
            Json::parse(line).map_err(|e| format!("{what}: unparsable response ({e}): {line}"))?;
        if response.get("ok").and_then(Json::as_bool) != Some(false)
            || response.get("id") != Some(&Json::Null)
        {
            return Err(format!("{what}: not an id-null error: {line}"));
        }
        if let Some(expected) = expected {
            let got = response.get("error").and_then(Json::as_str).unwrap_or("");
            if got != expected {
                return Err(format!("{what}: error '{got}' != expected '{expected}'"));
            }
        }
        Ok(())
    };
    match plan {
        ChaosPlan::Torn { frames, chunk } => {
            for frame in frames {
                let bytes = format!("{frame}\n").into_bytes();
                for piece in bytes.chunks((*chunk).max(1)) {
                    stream
                        .write_all(piece)
                        .and_then(|()| stream.flush())
                        .map_err(|e| format!("torn send: {e}"))?;
                }
                read_line(&mut reader, "torn")?;
            }
            Ok(false)
        }
        ChaosPlan::Stall { frames, stall_ms } => {
            for frame in frames {
                stream
                    .write_all(format!("{frame}\n").as_bytes())
                    .map_err(|e| format!("stall send: {e}"))?;
            }
            stream.flush().map_err(|e| format!("stall flush: {e}"))?;
            // Responses pile up server-side (or in the socket buffers)
            // while this client pretends to be busy.
            thread::sleep(Duration::from_millis(*stall_ms));
            let mut got: Vec<String> = Vec::new();
            for _ in frames {
                got.push(read_line(&mut reader, "stall")?);
            }
            check_id_multiset(&frames.join("\n"), &got, "stall")?;
            Ok(false)
        }
        ChaosPlan::HalfClose { frames } => {
            for frame in frames {
                stream
                    .write_all(format!("{frame}\n").as_bytes())
                    .map_err(|e| format!("half-close send: {e}"))?;
            }
            stream
                .flush()
                .map_err(|e| format!("half-close flush: {e}"))?;
            stream
                .shutdown(Shutdown::Write)
                .map_err(|e| format!("half-close shutdown: {e}"))?;
            let mut got: Vec<String> = Vec::new();
            for _ in frames {
                got.push(read_line(&mut reader, "half-close")?);
            }
            check_id_multiset(&frames.join("\n"), &got, "half-close")?;
            // After the last answer the server should close its end too.
            let mut rest = String::new();
            match reader.read_to_string(&mut rest) {
                Ok(_) => Ok(false),
                Err(e) => Err(format!("half-close tail: {e}")),
            }
        }
        ChaosPlan::Rst { frame } => {
            stream
                .write_all(format!("{frame}\n").as_bytes())
                .and_then(|()| stream.flush())
                .map_err(|e| format!("rst send: {e}"))?;
            // SO_LINGER(0): the close below aborts with an RST instead
            // of an orderly FIN — "client process died mid-request".
            poll::set_linger_abort(&stream).map_err(|e| format!("rst linger: {e}"))?;
            drop(reader);
            drop(stream);
            Ok(false)
        }
        ChaosPlan::Hostile => {
            // Invalid UTF-8 (a lone continuation byte inside the line).
            stream
                .write_all(b"{\"id\":1,\"op\":\"stats\"\xC3\x28}\n")
                .map_err(|e| format!("utf8 send: {e}"))?;
            let line = read_line(&mut reader, "utf8")?;
            expect_error(&line, Some(MALFORMED_UTF8_ERROR), "utf8")?;
            // NUL bytes: valid UTF-8, hostile JSON.
            stream
                .write_all(b"\x00\x00\x00\n")
                .map_err(|e| format!("nul send: {e}"))?;
            let line = read_line(&mut reader, "nul")?;
            expect_error(&line, None, "nul")?;
            // An oversize line, then a valid frame on the same
            // connection: the reject must be surgical.
            let mut oversize = vec![b'x'; CHAOS_MAX_FRAME + 17];
            oversize.push(b'\n');
            stream
                .write_all(&oversize)
                .map_err(|e| format!("oversize send: {e}"))?;
            let line = read_line(&mut reader, "oversize")?;
            let expected = format!("oversize frame: exceeds {CHAOS_MAX_FRAME} byte cap");
            expect_error(&line, Some(&expected), "oversize")?;
            stream
                .write_all(b"{\"id\":77,\"op\":\"schedule\",\"session\":\"nope\"}\n")
                .map_err(|e| format!("post-junk send: {e}"))?;
            let line = read_line(&mut reader, "post-junk")?;
            let response = Json::parse(&line)
                .map_err(|e| format!("post-junk: unparsable response ({e}): {line}"))?;
            if response.get("id") != Some(&Json::Int(77)) {
                return Err(format!("post-junk: id not echoed: {line}"));
            }
            Ok(false)
        }
        ChaosPlan::Loris => {
            stream
                .write_all(b"{\"id\":9,\"op\"")
                .and_then(|()| stream.flush())
                .map_err(|e| format!("loris send: {e}"))?;
            let started = Instant::now();
            // The server owes nothing yet reads must end: either the
            // in-band eviction notice then EOF, or a bare close. A read
            // timeout here means the deadline never fired.
            let mut tail = String::new();
            match reader.read_to_string(&mut tail) {
                Ok(_) => {}
                Err(e) if tail.is_empty() => return Err(format!("loris not evicted: {e}")),
                Err(_) => {} // Notice arrived, close raced the read.
            }
            if started.elapsed() >= EVICTION_PATIENCE {
                return Err("loris not evicted within patience".to_owned());
            }
            if let Some(line) = tail.lines().next() {
                expect_error(
                    line.trim_end(),
                    Some("evicted: read deadline exceeded on a partial frame"),
                    "loris notice",
                )?;
            }
            Ok(true)
        }
    }
}

/// Protocol check for pipelined saboteurs: every fully-framed request
/// answered exactly once (responses may interleave across sessions, so
/// compare id multisets).
fn check_id_multiset(script: &str, lines: &[String], what: &str) -> Result<(), String> {
    let mut expected = expected_id_multiset(script);
    let mut echoed: Vec<String> = Vec::new();
    for line in lines {
        let response =
            Json::parse(line).map_err(|e| format!("{what}: unparsable response ({e}): {line}"))?;
        if let Some(violation) = malformed_response(&response) {
            return Err(format!("{what}: {violation}: {line}"));
        }
        echoed.push(response.get("id").cloned().unwrap_or(Json::Null).render());
    }
    expected.sort();
    echoed.sort();
    if expected != echoed {
        return Err(format!(
            "{what}: echoed ids {echoed:?} != expected {expected:?}"
        ));
    }
    Ok(())
}

/// The chaos server's config: every round's server A (with saboteurs)
/// and control server B (victims only) run exactly this.
fn chaos_net_config(workers: usize, read_deadline_ms: u64) -> NetConfig {
    let mut net = NetConfig::new(Listen::parse("127.0.0.1:0").expect("loopback spec"));
    net.engine.workers = workers;
    net.read_deadline = Some(Duration::from_millis(read_deadline_ms));
    net.max_frame_bytes = CHAOS_MAX_FRAME;
    net
}

/// Runs the chaos harness: victims and saboteurs share server A while a
/// pristine server B replays the victims alone; the victims' per-
/// connection response sequences must be bit-identical between the two
/// (modulo the process-global counter blocks), the server must never
/// abort, every fully-framed hostile request must be answered, and the
/// slow-loris saboteur must be evicted within its deadline.
pub fn fuzz_chaos(config: &ChaosFuzzConfig) -> ChaosFuzzReport {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut designs = GraphMutator::new(config.seed.wrapping_add(0xc4a5));
    let mut report = ChaosFuzzReport::default();
    for round in 0..config.rounds {
        report.rounds += 1;
        let victim_scripts: Vec<Vec<String>> = (0..config.victims)
            .map(|vi| {
                (0..config.frames_per_conn)
                    .map(|frame_no| {
                        random_frame(&mut rng, &mut designs, frame_no as i64, &format!("v{vi}x"))
                    })
                    .filter(|f| !f.trim().is_empty())
                    .collect()
            })
            .collect();
        // Saboteur sessions live in a "z…" namespace victims never use.
        let chaos_plans: Vec<ChaosPlan> = (0..config.chaos_conns)
            .map(|ci| {
                let valid_frames = |rng: &mut StdRng, designs: &mut GraphMutator| -> Vec<String> {
                    (0..config.frames_per_conn)
                        .map(|frame_no| {
                            random_frame(rng, designs, frame_no as i64, &format!("z{ci}x"))
                        })
                        .filter(|f| !f.trim().is_empty())
                        .collect()
                };
                match rng.gen_range(0u8..6) {
                    0 => ChaosPlan::Torn {
                        frames: valid_frames(&mut rng, &mut designs),
                        chunk: rng.gen_range(1usize..=3),
                    },
                    1 => ChaosPlan::Stall {
                        frames: valid_frames(&mut rng, &mut designs),
                        stall_ms: rng.gen_range(20u64..=80),
                    },
                    2 => ChaosPlan::HalfClose {
                        frames: valid_frames(&mut rng, &mut designs),
                    },
                    3 => ChaosPlan::Rst {
                        frame: format!(
                            "{{\"id\":13,\"op\":\"open\",\"session\":\"z{ci}rst\",\"design\":\"op a 1\"}}"
                        ),
                    },
                    4 => ChaosPlan::Hostile,
                    _ => ChaosPlan::Loris,
                }
            })
            .collect();
        let workers = rng.gen_range(1usize..=4);

        // Server A: victims and saboteurs together.
        let disturbed = run_victims(
            round,
            workers,
            config.read_deadline_ms,
            &victim_scripts,
            Some(&chaos_plans),
            &mut report,
        );
        // Server B: the identical victims, undisturbed.
        let control = run_victims(
            round,
            workers,
            config.read_deadline_ms,
            &victim_scripts,
            None,
            &mut report,
        );
        report.victim_connections += victim_scripts.len();
        report.chaos_connections += chaos_plans.len();

        if let (Some(disturbed), Some(control)) = (disturbed, control) {
            for (vi, (a, b)) in disturbed.iter().zip(&control).enumerate() {
                if a != b {
                    let diff = a
                        .iter()
                        .zip(b)
                        .find(|(x, y)| x != y)
                        .map(|(x, y)| format!("disturbed {x} vs control {y}"))
                        .unwrap_or_else(|| format!("{} vs {} lines", a.len(), b.len()));
                    report.failures.push(format!(
                        "round {round} victim {vi}: sibling isolation broken: {diff}"
                    ));
                }
            }
        }
        if report.failures.len() >= 5 {
            break;
        }
    }
    report
}

/// Boots one server, drives the victim scripts (and saboteurs, when
/// given) against it concurrently, shuts down, and returns each victim's
/// response lines in order. `None` means the round already failed.
fn run_victims(
    round: usize,
    workers: usize,
    read_deadline_ms: u64,
    victim_scripts: &[Vec<String>],
    chaos_plans: Option<&[ChaosPlan]>,
    report: &mut ChaosFuzzReport,
) -> Option<Vec<Vec<String>>> {
    let label = if chaos_plans.is_some() {
        "disturbed"
    } else {
        "control"
    };
    let server = match NetServer::bind(chaos_net_config(workers, read_deadline_ms)) {
        Ok(s) => s,
        Err(e) => {
            report
                .failures
                .push(format!("round {round} ({label}): bind: {e}"));
            return None;
        }
    };
    let listen = server.local_addr().clone();
    let Listen::Tcp(addr) = listen.clone() else {
        report
            .failures
            .push(format!("round {round} ({label}): not a tcp listener"));
        return None;
    };
    let handle = server.handle();
    let server_thread = thread::spawn(move || server.run());

    let (victim_lines, chaos_results) = thread::scope(|scope| {
        let victim_handles: Vec<_> = victim_scripts
            .iter()
            .map(|script| scope.spawn(|| drive_connection(&listen, script)))
            .collect();
        let chaos_handles: Vec<_> = chaos_plans
            .unwrap_or(&[])
            .iter()
            .map(|plan| scope.spawn(move || drive_chaos(&addr, plan)))
            .collect();
        let victims: Vec<_> = victim_handles
            .into_iter()
            .map(|h| h.join().expect("victim client"))
            .collect();
        let chaos: Vec<_> = chaos_handles
            .into_iter()
            .map(|h| h.join().expect("chaos client"))
            .collect();
        (victims, chaos)
    });
    handle.shutdown();
    let summary = match server_thread.join() {
        Ok(Ok(summary)) => Some(summary),
        Ok(Err(e)) => {
            report
                .failures
                .push(format!("round {round} ({label}): server: {e}"));
            None
        }
        Err(_) => {
            report
                .failures
                .push(format!("round {round} ({label}): server thread panicked"));
            None
        }
    };
    for (ci, outcome) in chaos_results.iter().enumerate() {
        match outcome {
            Ok(true) => report.evictions += 1,
            Ok(false) => {}
            Err(e) => report
                .failures
                .push(format!("round {round} chaos conn {ci}: {e}")),
        }
    }
    // A loris that proved its eviction must also show up in the
    // server's own books.
    if let Some(summary) = &summary {
        let lorises = chaos_plans
            .unwrap_or(&[])
            .iter()
            .filter(|p| matches!(p, ChaosPlan::Loris))
            .count();
        if summary.evicted_deadline < lorises {
            report.failures.push(format!(
                "round {round}: {} deadline eviction(s) recorded for {lorises} loris conn(s)",
                summary.evicted_deadline
            ));
        }
    }
    let mut out = Vec::with_capacity(victim_scripts.len());
    for (vi, outcome) in victim_lines.into_iter().enumerate() {
        match outcome {
            Ok(lines) => out.push(lines),
            Err(e) => {
                report
                    .failures
                    .push(format!("round {round} ({label}) victim {vi}: {e}"));
                return None;
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_round_holds_both_contracts() {
        let report = fuzz_net(&NetFuzzConfig {
            seed: 7,
            rounds: 2,
            connections: 3,
            frames_per_conn: 12,
        });
        assert!(report.is_ok(), "{report}");
        assert_eq!(report.connections, 6);
        assert!(report.responses >= report.frames);
    }

    #[test]
    fn chaos_smoke_round_survives_faults() {
        let report = fuzz_chaos(&ChaosFuzzConfig {
            seed: 11,
            rounds: 2,
            victims: 2,
            chaos_conns: 4,
            frames_per_conn: 6,
            ..ChaosFuzzConfig::default()
        });
        assert!(report.is_ok(), "{report}");
        assert_eq!(report.victim_connections, 4);
        assert_eq!(report.chaos_connections, 8);
    }
}
