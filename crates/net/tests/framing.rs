//! Frame splitting on the socket transport: for the same request bytes
//! the server answers exactly what the stdio loop answers — for a frame
//! longer than the 64 KiB read buffer, several frames in one write, CRLF
//! line ends, and an oversize frame followed by a valid one, whether it
//! arrives in one read or grows past the cap across several.

use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use rsched_engine::json::Json;
use rsched_engine::{serve, ServeConfig};
use rsched_net::{Listen, NetConfig, NetServer};

/// A chain of `n` fixed-delay operations, as design text.
fn chain(n: usize) -> String {
    let mut text = String::new();
    for i in 0..n {
        text.push_str(&format!("op op{i} {}\n", i % 5));
    }
    for i in 1..n {
        text.push_str(&format!("dep op{} op{i}\n", i - 1));
    }
    text
}

/// One session's script: open `design`, add a constraint, schedule,
/// close.
fn script(session: &str, design: &str) -> Vec<String> {
    vec![
        format!(
            r#"{{"id":1,"op":"open","session":"{session}","design":{}}}"#,
            Json::Str(design.to_owned()).render()
        ),
        format!(
            r#"{{"id":2,"op":"edit","session":"{session}","kind":"add_min","from":"op0","to":"op2","value":9}}"#
        ),
        format!(r#"{{"id":3,"op":"schedule","session":"{session}"}}"#),
        format!(r#"{{"id":4,"op":"close","session":"{session}"}}"#),
    ]
}

/// `frames` joined with `end` after each.
fn joined(frames: &[String], end: &str) -> Vec<u8> {
    frames
        .iter()
        .flat_map(|f| [f.as_str(), end])
        .collect::<String>()
        .into_bytes()
}

fn engine_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

/// The stdio loop's answer lines to `input`.
fn stdio_answers(input: &[u8]) -> Vec<String> {
    let mut out = Vec::new();
    serve(Cursor::new(input), &mut out, &engine_config()).expect("stdio serve");
    String::from_utf8(out)
        .expect("answers are UTF-8")
        .lines()
        .map(str::to_owned)
        .collect()
}

/// A socket server with the test engine and `max_frame_bytes`, its
/// address, and the call that shuts it down and joins it.
fn start_server(max_frame_bytes: usize) -> (SocketAddr, impl FnOnce()) {
    let mut config = NetConfig::new(Listen::parse("127.0.0.1:0").expect("address"));
    config.engine = engine_config();
    config.max_frame_bytes = max_frame_bytes;
    let server = NetServer::bind(config).expect("bind");
    let Listen::Tcp(addr) = server.local_addr().clone() else {
        panic!("tcp listener")
    };
    let handle = server.handle();
    let join = thread::spawn(move || server.run().expect("run"));
    (addr, move || {
        handle.shutdown();
        join.join().expect("server thread");
    })
}

/// A client connection and a line reader on it.
fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// The next answer line, without its `\n`.
fn answer(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    assert!(
        reader.read_line(&mut line).expect("read") > 0,
        "server closed early"
    );
    line.trim_end_matches('\n').to_owned()
}

/// The socket server's first `answers` lines to `input`, sent by one
/// `write_all` on one connection.
fn socket_answers(max_frame_bytes: usize, input: &[u8], answers: usize) -> Vec<String> {
    let (addr, stop) = start_server(max_frame_bytes);
    let (mut stream, mut reader) = connect(addr);
    stream.write_all(input).expect("write");
    let lines = (0..answers).map(|_| answer(&mut reader)).collect();
    drop((stream, reader));
    stop();
    lines
}

/// The refusal of a frame over a 4096-byte cap.
const REFUSAL: &str = r#"{"id":null,"ok":false,"error":"oversize frame: exceeds 4096 byte cap"}"#;

#[test]
fn a_frame_longer_than_a_read_spans_reads_unchanged() {
    let design = chain(6_000);
    let frames = script("big", &design);
    assert!(frames[0].len() > 100 * 1024, "{} bytes", frames[0].len());
    let input = joined(&frames, "\n");
    let stdio = stdio_answers(&input);
    assert_eq!(stdio.len(), 4);
    assert!(
        stdio.iter().all(|l| l.contains(r#""ok":true"#)),
        "{stdio:?}"
    );
    assert_eq!(socket_answers(1 << 20, &input, 4), stdio);
}

#[test]
fn several_frames_in_one_write_and_crlf_ends() {
    let frames = script("small", &chain(6));
    let lf = joined(&frames, "\n");
    let stdio = stdio_answers(&lf);
    assert_eq!(stdio.len(), 4);
    assert_eq!(socket_answers(1 << 20, &lf, 4), stdio);

    let crlf = joined(&frames, "\r\n");
    assert_eq!(stdio_answers(&crlf), stdio, "CR is stripped before parsing");
    assert_eq!(socket_answers(1 << 20, &crlf, 4), stdio);
}

#[test]
fn an_oversize_frame_is_refused_and_the_next_one_answered() {
    let frames = script("after", &chain(6));
    let stdio = stdio_answers(&joined(&frames, "\n"));
    let mut expected = vec![REFUSAL.to_owned()];
    expected.extend(stdio);
    // A short oversize line ends inside the read that holds the valid
    // frames; a long one is refused before its end arrives and skipped
    // across reads.
    for junk in [5_000, 200_000] {
        let mut bytes = vec![b'x'; junk];
        bytes.push(b'\n');
        bytes.extend(joined(&frames, "\n"));
        assert_eq!(socket_answers(4096, &bytes, 5), expected, "{junk} bytes");
    }
}

/// A frame that reaches the cap only across several reads, each under
/// it, is refused as soon as the cap is passed, before its `\n` is
/// sent; the line's end is then skipped and the next frame answered.
#[test]
fn a_frame_growing_past_the_cap_across_reads_is_refused_before_its_end() {
    let frames = script("grown", &chain(6));
    let stdio = stdio_answers(&joined(&frames, "\n"));
    let (addr, stop) = start_server(4096);
    let (mut stream, mut reader) = connect(addr);
    for _ in 0..5 {
        stream.write_all(&[b'x'; 1000]).expect("write");
        thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(answer(&mut reader), REFUSAL);
    let mut rest = vec![b'x'; 1000];
    rest.push(b'\n');
    rest.extend(joined(&frames, "\n"));
    stream.write_all(&rest).expect("write");
    let answers: Vec<String> = (0..stdio.len()).map(|_| answer(&mut reader)).collect();
    assert_eq!(answers, stdio);
    drop((stream, reader));
    stop();
}
