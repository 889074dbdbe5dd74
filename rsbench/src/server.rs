//! Building, spawning, probing, and stopping the `rsched serve` process,
//! plus `/proc` readings for the server and the client itself.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Clock ticks per second of `/proc/<pid>/stat` CPU fields (USER_HZ).
const TICKS_PER_SEC: f64 = 100.0;

/// The cargo target directory the benchmark builds into.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Builds the `rsched` binary from the checkout's sources and returns
/// its path.
pub fn build_server() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "-q",
            "-p",
            "rsched-cli",
            "--manifest-path",
            "Cargo.toml",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building rsched failed ({status})"));
    }
    let bin = target_dir().join("release").join("rsched");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after build", bin.display()))
    }
}

pub struct Server {
    child: Child,
    pub addr: String,
    // Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawns `rsched serve --listen 127.0.0.1:0 <flags>` and waits for
    /// its first answered request (a `health` probe). Returns the server
    /// and the time from spawn to that answer.
    pub fn spawn(bin: &Path, flags: &[String]) -> Result<(Server, Duration), String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = match (read, banner.trim().strip_prefix("listening on ")) {
            (Ok(n), Some(addr)) if n > 0 => addr.to_owned(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server printed no banner: {banner:?}"));
            }
        };
        let server = Server {
            child,
            addr,
            _stdout: stdout,
        };
        let probe = (|| -> std::io::Result<String> {
            let stream = TcpStream::connect(&server.addr)?;
            let mut reader = BufReader::new(stream.try_clone()?);
            (&stream).write_all(b"{\"id\":0,\"op\":\"health\"}\n")?;
            let mut line = String::new();
            reader.read_line(&mut line)?;
            Ok(line)
        })();
        let setup = started.elapsed();
        match probe {
            Ok(line) if line.contains("\"ok\":true") => Ok((server, setup)),
            other => {
                server.stop();
                Err(format!("health probe failed: {other:?}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn cpu_seconds(&self) -> f64 {
        cpu_seconds(&format!("/proc/{}/stat", self.pid()))
    }

    pub fn peak_rss_mib(&self) -> f64 {
        status_kib(&format!("/proc/{}/status", self.pid()), "VmHWM:") / 1024.0
    }

    /// Kills the server and waits for it to exit.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for Server {
    /// Also on unwinding, so no server outlives the benchmark.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// user + system CPU seconds from a `/proc/<pid>/stat` file.
pub fn cpu_seconds(stat_path: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string(stat_path) else {
        return 0.0;
    };
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / TICKS_PER_SEC
}

/// A `kB` field of a `/proc/<pid>/status` file.
pub fn status_kib(status_path: &str, field: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

/// Threads of this process right now.
pub fn own_threads() -> usize {
    status_kib("/proc/self/status", "Threads:") as usize
}

/// Copies every file of `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
