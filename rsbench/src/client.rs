//! The closed-loop load generator: one thread per connection, each
//! cycling through its script, sending a request only after the previous
//! answer arrived. Every answer is compared to its expectation after the
//! round trip has been stamped.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Instant;

use crate::gen::{rename_for_pass, session_span};

/// One round trip inside the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub index: u32,
    pub rtt_ns: u64,
    /// Completion time, ns after the start of the measured window.
    pub done_ns: u64,
}

#[derive(Debug, Default)]
pub struct ConnResult {
    /// Round trips that started inside the measured window.
    pub samples: Vec<Sample>,
    /// Requests sent, warm-up included.
    pub attempted: usize,
    /// Answers that were `"ok":false` or differed from the expectation,
    /// plus transport errors.
    pub failed: usize,
    pub first_failure: Option<String>,
    pub bytes_out: u64,
    pub bytes_in: u64,
    /// When the last measured round trip completed.
    pub last_done: Option<Instant>,
}

/// Drives one connection per script until `end`; round trips starting
/// before `measure_from` are warm-up and are checked but not sampled.
/// Connection `c`'s sessions are renamed every pass onto worker `c` of
/// `workers` (see [`rename_for_pass`]).
pub fn run(
    addr: &str,
    frames: &[Vec<String>],
    expected: &[Vec<String>],
    workers: usize,
    window: usize,
    measure_from: Instant,
    end: Instant,
) -> Vec<ConnResult> {
    thread::scope(|scope| {
        let handles: Vec<_> = frames
            .iter()
            .zip(expected)
            .enumerate()
            .map(|(c, (frames, expected))| {
                let shard = c % workers;
                scope.spawn(move || {
                    drive(
                        addr,
                        frames,
                        expected,
                        (workers, shard),
                        window,
                        measure_from,
                        end,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

fn drive(
    addr: &str,
    frames: &[String],
    expected: &[String],
    (workers, shard): (usize, usize),
    window: usize,
    measure_from: Instant,
    end: Instant,
) -> ConnResult {
    let mut out = ConnResult::default();
    let connected = TcpStream::connect(addr).and_then(|s| {
        s.set_nodelay(true)?;
        let reader = BufReader::with_capacity(1 << 20, s.try_clone()?);
        Ok((s, reader))
    });
    let (mut stream, mut reader) = match connected {
        Ok(pair) => pair,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.first_failure = Some(format!("connect: {e}"));
            return out;
        }
    };
    out.samples.reserve(1 << 18);
    let mut line = String::with_capacity(1 << 16);
    let mut bufs: Vec<Vec<u8>> = frames.iter().map(|f| f.as_bytes().to_vec()).collect();
    let spans: Vec<_> = frames.iter().map(|f| session_span(f)).collect();
    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(window);
    let (mut next, mut pass) = (0usize, 0u64);
    loop {
        while inflight.len() < window {
            if let Some(span) = &spans[next] {
                rename_for_pass(&mut bufs[next][span.clone()], pass, workers, shard);
            }
            let t0 = Instant::now();
            if t0 >= end {
                break;
            }
            out.attempted += 1;
            if let Err(e) = stream.write_all(&bufs[next]) {
                out.failed += 1;
                out.first_failure
                    .get_or_insert_with(|| format!("request {}: transport {e}", next + 1));
                return out;
            }
            inflight.push_back((next, t0));
            next = (next + 1) % frames.len();
            pass += u64::from(next == 0);
        }
        let Some((i, t0)) = inflight.pop_front() else {
            break;
        };
        line.clear();
        let read = reader.read_line(&mut line);
        let t1 = Instant::now();
        match read {
            Ok(n) if n > 0 => {}
            other => {
                out.failed += 1 + inflight.len();
                out.first_failure
                    .get_or_insert_with(|| format!("request {}: transport {other:?}", i + 1));
                break;
            }
        }
        if t0 >= measure_from {
            out.samples.push(Sample {
                index: i as u32,
                rtt_ns: (t1 - t0).as_nanos() as u64,
                done_ns: (t1 - measure_from).as_nanos() as u64,
            });
            out.bytes_out += bufs[i].len() as u64;
            out.bytes_in += line.len() as u64;
            out.last_done = Some(t1);
        }
        if line.trim_end_matches('\n') != expected[i] {
            out.failed += 1;
            out.first_failure.get_or_insert_with(|| {
                let got: String = line.chars().take(300).collect();
                let want: String = expected[i].chars().take(300).collect();
                format!("request {}: got {got} want {want}", i + 1)
            });
        }
    }
    out
}
