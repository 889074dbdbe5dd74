//! `rsbench`: the client-visible benchmark for `rsched serve`.
//!
//! ```text
//! cargo run --release -q --manifest-path rsbench/Cargo.toml -- \
//!     --workload <paper_edits|midsize_sessions|large_batch|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The benchmark builds `rsched` from the
//! checkout, spawns `rsched serve --listen` on loopback, and loads it from
//! this one process. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the client briefly for round-trip times, then replays
//! the same frames in-process under spans and reports per-layer metrics.
//! Every answer is compared to an oracle-refereed expectation. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `rsbench/README.md`.

mod client;
mod expect;
mod gen;
mod replay;
mod server;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rsched_engine::json::Json;
use rsched_engine::Router;

use crate::gen::{Op, Spec, Workload};
use crate::server::Server;
use crate::stats::{median, Samples};
use crate::trace::{child_sums, self_times};

/// End-to-end metrics (`--trace 0`), as listed in `BENCHMARK.json`:
/// the ones whose run-to-run spread on a shared 2-vCPU host stays within
/// a bound. Throughput and latency are wall-clock figures that follow the
/// host's own speed, which swung up to 2x over minutes there; they are
/// printed above the result line but not gated (see `rsbench/README.md`).
pub const END_TO_END: [(&str, &str); 3] = [
    ("server_cpu_us_per_req", "us"),
    ("server_peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics every workload emits (`--trace 1`), as listed in
/// `BENCHMARK.json`. Workload-specific layer metrics are printed too.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("net.overhead_us.p50", "us"),
    ("net.overhead_us.p99", "us"),
    ("net.bytes_in_per_req", "B"),
    ("net.bytes_out_per_req", "B"),
    ("service.frame_parse_us.p50", "us"),
    ("service.frame_parse_us.p99", "us"),
    ("service.render_us.p50", "us"),
    ("service.render_us.p99", "us"),
    ("service.execute_us.p50", "us"),
    ("service.execute_us.p99", "us"),
    ("graph.from_text_us.p50", "us"),
    ("graph.from_text_us.p99", "us"),
    ("graph.kernel_build_us.p50", "us"),
    ("graph.kernel_build_us.p99", "us"),
    ("core.anchor_sets_us", "us"),
    ("core.well_posed_us", "us"),
    ("core.fixpoint_us.p50", "us"),
    ("core.fixpoint_us.p99", "us"),
    ("core.fixpoint_iterations", "count"),
    ("core.fixpoint_t2_us", "us"),
    ("core.crew_speedup", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("client.cpu_us_per_req", "us"),
    ("client.threads", "count"),
];

/// Server spawns before the load and again after it, so that the set-up
/// figure samples the host at two moments: each time at least
/// `SETUP_REPS` spawns over at least `SETUP_TIME`. `setup_s` is the median
/// of them all.
const SETUP_REPS: usize = 15;
const SETUP_TIME: Duration = Duration::from_secs(1);
/// The measured window is cut into slices this long; throughput, p50
/// and CPU per request are the median over slices, so a burst of
/// interference from outside the benchmark moves a few slices, not the
/// figure.
const SLICE: Duration = Duration::from_secs(1);
/// Consecutive round trips per p99 chunk: enough for ten beyond the
/// 99th percentile. p99 is the median over chunks.
const P99_CHUNK: usize = 1000;
/// Load before the measured window, so lazy set-up and caches settle.
const WARMUP: Duration = Duration::from_secs(1);

const USAGE: &str = "usage: rsbench --workload <paper_edits|midsize_sessions|large_batch|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    /// One workload, or all of them in order (`--workload all`).
    specs: Vec<Spec>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} expects a whole number"))
    };
    let workload = value("--workload")?;
    let specs = if workload == "all" {
        gen::SPECS.to_vec()
    } else {
        vec![Spec::by_name(workload).ok_or(format!("unknown workload '{workload}'"))?]
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
    };
    Ok(Args {
        specs,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rsbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let bin = match server::build_server() {
        Ok(bin) => bin,
        Err(e) => {
            eprintln!("rsbench: {e}");
            return ExitCode::from(1);
        }
    };
    for &spec in &args.specs {
        let work = server::target_dir().join("rsbench-work").join(format!(
            "{}-s{}-p{}",
            spec.name,
            args.seed,
            std::process::id()
        ));
        let outcome = run(&args, spec, &bin, &work);
        let _ = std::fs::remove_dir_all(&work);
        if let Err(e) = outcome {
            eprintln!("rsbench: {e}");
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
    note: String,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn add(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: Option<usize>,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
            note: String::new(),
        });
    }

    fn note(&mut self, note: impl Into<String>) {
        if let Some(m) = self.metrics.last_mut() {
            m.note = note.into();
        }
    }

    /// Adds `<base>.p50` and `<base>.p99` (µs) of nanosecond samples.
    fn percentiles_us(&mut self, base: &str, ns: &[f64]) {
        let s = Samples::new(ns.iter().map(|n| n / 1000.0).collect());
        for (q, label) in [(0.5, "p50"), (0.99, "p99")] {
            let pick = s.p(q);
            self.add(
                format!("{base}.{label}"),
                pick.value,
                "us",
                Some(pick.samples),
            );
            if pick.flagged() {
                self.note(format!("tail unresolved: {} samples beyond", pick.beyond));
            }
        }
    }

    fn mean_us(&mut self, name: &str, ns: &[f64]) {
        let s = Samples::new(ns.to_vec());
        self.add(name, s.mean() / 1000.0, "us", Some(s.len()));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn print(&self) {
        for m in &self.metrics {
            let samples = m.samples.map_or(String::new(), |n| format!("n={n}"));
            println!(
                "{:<44} {:>16.4} {:<6} {:<10} {}",
                m.name, m.value, m.unit, samples, m.note
            );
        }
    }

    /// The contract line: the listed metrics, in order, by name.
    fn result_line(
        &self,
        listed: &[(&str, &str)],
        correct: bool,
        attempted: usize,
        failed: usize,
    ) -> String {
        let metrics = listed
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                (
                    name.to_owned(),
                    Json::Object(vec![
                        ("value".to_owned(), Json::Float(value)),
                        ("unit".to_owned(), Json::from(unit)),
                    ]),
                )
            })
            .collect();
        Json::Object(vec![
            ("correct".to_owned(), Json::Bool(correct)),
            ("attempted".to_owned(), Json::from(attempted.max(1))),
            ("failed".to_owned(), Json::from(failed)),
            ("metrics".to_owned(), Json::Object(metrics)),
        ])
        .render()
    }
}

/// Commit of the checkout from `git rev-parse HEAD`, or `unknown`
/// outside a git working tree.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_owned(),
        )
}

fn rustc_version() -> String {
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// Fills `dir` with the WALs of the workload's prefill sessions, opened
/// and edited on an in-process router and never closed.
fn prefill_journal(workload: &Workload, dir: &Path) -> Result<(), String> {
    let config = rsched_engine::ServeConfig {
        journal_dir: Some(dir.to_owned()),
        ..workload.spec.serve_config()
    };
    let router = Router::new(config.workers, &config);
    for (i, req) in workload.prefill.iter().enumerate() {
        let id = Json::Int(i as i64 + 1);
        let request = req.to_json(i as i64 + 1);
        let slot = router.route(&id, &request).map_err(|e| e.render())?;
        let resp = router.execute(slot, id, &request);
        if resp.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("prefill request failed: {}", resp.render()));
        }
        router.sync_journals(slot);
    }
    Ok(())
}

/// Spawns and stops the server `SETUP_REPS` times or for `SETUP_TIME`,
/// whichever is longer, returning the set-up times. Journaled workloads
/// boot from `journal`, the prefilled template: boot recovery only reads
/// it, so every spawn recovers the same files.
fn setup_times(spec: Spec, bin: &Path, journal: &Path) -> Result<Vec<f64>, String> {
    let flags = server_flags(spec, journal);
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < SETUP_REPS || start.elapsed() < SETUP_TIME {
        let (_server, setup) = Server::spawn(bin, &flags)?;
        times.push(setup.as_secs_f64());
    }
    Ok(times)
}

/// The server's flags, with `--journal-dir <dir>` on journaled workloads.
fn server_flags(spec: Spec, journal: &Path) -> Vec<String> {
    let mut flags = spec.server_flags();
    if spec.journal {
        flags.extend(["--journal-dir".to_owned(), journal.display().to_string()]);
    }
    flags
}

/// What the load phase measured.
struct Load {
    conns: Vec<client::ConnResult>,
    window_s: f64,
    /// Server CPU seconds at each slice boundary of the measured window.
    server_cpu: Vec<f64>,
    client_cpu_s: f64,
    /// Client threads driving connections, counted while loading.
    client_load_threads: usize,
    peak_rss_mib: f64,
}

impl Load {
    fn samples(&self) -> usize {
        self.conns.iter().map(|c| c.samples.len()).sum()
    }
    fn attempted(&self) -> usize {
        self.conns.iter().map(|c| c.attempted).sum()
    }
    fn failed(&self) -> usize {
        self.conns.iter().map(|c| c.failed).sum()
    }

    /// Per-slice throughput (1/s), p50 (µs) and server CPU per request
    /// (µs), over the slices that lie wholly inside the window.
    fn slices(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let slice_ns = SLICE.as_nanos() as u64;
        let n_slices = self.server_cpu.len().saturating_sub(1);
        let mut slices: Vec<(Vec<f64>, u64, u64)> = vec![(Vec::new(), u64::MAX, 0); n_slices];
        for s in self.conns.iter().flat_map(|c| &c.samples) {
            if let Some((rtts, first, last)) = slices.get_mut((s.done_ns / slice_ns) as usize) {
                rtts.push(s.rtt_ns as f64 / 1000.0);
                *first = (*first).min(s.done_ns);
                *last = (*last).max(s.done_ns);
            }
        }
        let mut tput = Vec::new();
        let mut p50 = Vec::new();
        let mut cpu = Vec::new();
        for (k, (rtts, first, last)) in slices
            .into_iter()
            .enumerate()
            .filter(|(_, s)| s.0.len() > 1)
        {
            // Completions per second between the slice's first and last
            // completion: continuous even at a few hundred per slice.
            tput.push((rtts.len() - 1) as f64 * 1e9 / (last - first).max(1) as f64);
            cpu.push((self.server_cpu[k + 1] - self.server_cpu[k]) * 1e6 / rtts.len() as f64);
            p50.push(Samples::new(rtts).p(0.5).value);
        }
        (tput, p50, cpu)
    }

    /// p99 (µs) of each run of `P99_CHUNK` consecutive completions.
    fn p99_chunks(&self) -> Vec<f64> {
        let mut done: Vec<(u64, f64)> = self
            .conns
            .iter()
            .flat_map(|c| {
                c.samples
                    .iter()
                    .map(|s| (s.done_ns, s.rtt_ns as f64 / 1000.0))
            })
            .collect();
        done.sort_by_key(|&(t, _)| t);
        done.chunks(P99_CHUNK)
            .filter(|c| c.len() == P99_CHUNK || done.len() < P99_CHUNK)
            .map(|c| {
                Samples::new(c.iter().map(|&(_, r)| r).collect())
                    .p(0.99)
                    .value
            })
            .collect()
    }
}

/// Loads `server` for a warm-up plus `seconds`, each connection keeping
/// `window` requests in flight.
fn load(
    server: &Server,
    expected: &expect::Expected,
    workers: usize,
    window: usize,
    seconds: f64,
) -> Load {
    let start = Instant::now();
    let measure_from = start + WARMUP;
    let n_slices = ((seconds / SLICE.as_secs_f64()).round() as u32).max(1);
    let end = measure_from + SLICE * n_slices;
    let (conns, probed) = std::thread::scope(|scope| {
        let probe = scope.spawn(|| {
            let mut cpu = Vec::new();
            let (mut client_cpu0, mut os_threads) = (0.0, 0);
            for k in 0..=n_slices {
                std::thread::sleep(
                    (measure_from + SLICE * k).saturating_duration_since(Instant::now()),
                );
                cpu.push(server.cpu_seconds());
                if k == 0 {
                    client_cpu0 = server::cpu_seconds("/proc/self/stat");
                    os_threads = server::own_threads();
                }
            }
            (cpu, client_cpu0, os_threads)
        });
        let conns = client::run(
            &server.addr,
            &expected.frames,
            &expected.responses,
            workers,
            window,
            measure_from,
            end,
        );
        (conns, probe.join().expect("probe thread"))
    });
    let (server_cpu, client_cpu0, os_threads) = probed;
    let last = conns
        .iter()
        .filter_map(|c| c.last_done)
        .max()
        .unwrap_or(end);
    Load {
        window_s: last
            .saturating_duration_since(measure_from)
            .as_secs_f64()
            .max(1e-9),
        server_cpu,
        client_cpu_s: server::cpu_seconds("/proc/self/stat") - client_cpu0,
        // Neither the probe thread that counts nor the main thread, which
        // waits for the load threads, drives a connection.
        client_load_threads: os_threads.saturating_sub(2),
        peak_rss_mib: server.peak_rss_mib(),
        conns,
    }
}

fn run(args: &Args, spec: Spec, bin: &Path, work: &Path) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# rsbench workload={} seed={} seconds={} trace={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host nproc={nproc} commit={} rustc=\"{}\" transport=loopback",
        commit(),
        rustc_version()
    );
    println!(
        "# server: rsched serve --listen 127.0.0.1:0 {}{}",
        spec.server_flags().join(" "),
        if spec.journal {
            " --journal-dir <prefilled>"
        } else {
            ""
        }
    );
    println!(
        "# client: closed loop, {} connection(s), one thread each, {} request(s) in flight each",
        spec.connections,
        if args.trace { 1 } else { spec.window }
    );
    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };

    let self_test = expect::self_test();
    let workload = Workload::generate(spec, args.seed);
    let expected = match self_test.and_then(|()| expect::build(&workload)) {
        Ok(expected) => expected,
        Err(e) => {
            println!("# INCORRECT: {e}");
            let report = Report::default();
            println!(
                "{}",
                report.result_line(listed, false, workload.n_requests(), 1)
            );
            return Ok(());
        }
    };
    println!(
        "# inputs: {} request(s) per pass over {} connection(s); {} graph state(s) refereed by the oracle; corrupted-offset self-test caught",
        workload.n_requests(),
        spec.connections,
        expected.refereed
    );
    let counts: Vec<String> = expected
        .counts
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("# verdict/outcome counts per pass: {}", counts.join(" "));

    std::fs::create_dir_all(work).map_err(|e| format!("work dir: {e}"))?;
    let template = work.join("journal-template");
    if spec.journal {
        prefill_journal(&workload, &template)?;
    }
    let mut setups = setup_times(spec, bin, &template)?;
    // The loaded server writes WAL files, so it boots from a copy.
    let load_journal = work.join("journal-load");
    if spec.journal {
        server::copy_dir(&template, &load_journal).map_err(|e| format!("journal copy: {e}"))?;
    }
    let (server, _) = Server::spawn(bin, &server_flags(spec, &load_journal))?;
    let seconds = if args.trace {
        (args.seconds as f64 / 2.0).max(0.5)
    } else {
        args.seconds as f64
    };
    // The traced run keeps one request in flight, so that its round trip
    // minus the in-process service time is transport, not queueing behind
    // the connection's own requests.
    let window = if args.trace { 1 } else { spec.window };
    let load = load(&server, &expected, spec.workers, window, seconds);
    server.stop();
    setups.extend(setup_times(spec, bin, &template)?);

    let mut report = Report::default();
    let mut failed = load.failed();
    let mut attempted = load.attempted();
    let n = load.samples();
    let ops_of = |c: usize, i: u32| workload.conns[c].reqs[i as usize].op();
    let rtt_ns = |filter: &dyn Fn(Op) -> bool| -> Vec<f64> {
        load.conns
            .iter()
            .enumerate()
            .flat_map(|(c, r)| {
                r.samples
                    .iter()
                    .filter(move |s| filter(ops_of(c, s.index)))
                    .map(|s| s.rtt_ns as f64)
            })
            .collect()
    };
    let client_cpu_us = load.client_cpu_s * 1e6 / n.max(1) as f64;

    if !args.trace {
        let (tput, p50, cpu) = load.slices();
        let p99 = load.p99_chunks();
        let all = Samples::new(rtt_ns(&|_| true).iter().map(|x| x / 1000.0).collect());
        report.add("throughput_rps", median(&tput), "1/s", Some(n));
        report.note(format!(
            "median of {} slices; whole window {:.1}",
            tput.len(),
            n as f64 / load.window_s
        ));
        report.add("latency_p50_us", median(&p50), "us", Some(n));
        report.note(format!(
            "median of {} slices; pooled {:.1}",
            p50.len(),
            all.p(0.5).value
        ));
        let pooled = all.p(0.99);
        report.add("latency_p99_us", median(&p99), "us", Some(n));
        report.note(format!(
            "median of {} chunks of {P99_CHUNK}; pooled {:.1} with {} beyond",
            p99.len(),
            pooled.value,
            pooled.beyond
        ));
        if n < P99_CHUNK {
            report.note(format!("tail unresolved: {} samples beyond", pooled.beyond));
        }
        for (op, base) in [(Op::Open, "open"), (Op::Edit, "edit")] {
            let ns = rtt_ns(&|o| o == op);
            if !ns.is_empty() {
                let s = Samples::new(ns.iter().map(|x| x / 1000.0).collect());
                for (q, label) in [(0.5, "p50"), (0.99, "p99")] {
                    let pick = s.p(q);
                    report.add(
                        format!("{base}_{label}_us"),
                        pick.value,
                        "us",
                        Some(pick.samples),
                    );
                    if pick.flagged() {
                        report.note(format!("tail unresolved: {} samples beyond", pick.beyond));
                    }
                }
            }
        }
        report.add("server_cpu_us_per_req", median(&cpu), "us", Some(n));
        report.note(format!("median of {} slices", cpu.len()));
        report.add("server_peak_rss_mib", load.peak_rss_mib, "MiB", None);
        report.add(
            "failed_ratio",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
            Some(attempted),
        );
        let quartiles = Samples::new(setups.clone());
        report.add("setup_s", median(&setups), "s", Some(setups.len()));
        report.note(format!(
            "median of {} spawns, before and after the load; quartiles {:.4}..{:.4}{}",
            setups.len(),
            quartiles.p(0.25).value,
            quartiles.p(0.75).value,
            if spec.journal {
                "; includes boot recovery of the prefilled journal"
            } else {
                ""
            }
        ));
    } else {
        // Untraced and traced passes run on routers of their own, so the
        // traced router sees exactly the requests the shadow replays.
        let config = |name: &str| -> Result<rsched_engine::ServeConfig, String> {
            let journal_dir = spec.journal.then(|| work.join(name));
            if let Some(dir) = &journal_dir {
                server::copy_dir(&template, dir).map_err(|e| format!("journal copy: {e}"))?;
            }
            Ok(rsched_engine::ServeConfig {
                journal_dir,
                ..spec.serve_config()
            })
        };
        let configs = [config("replay-untraced")?, config("replay-traced")?];
        let shadow_dir = spec.journal.then(|| work.join("shadow-journal"));
        if let Some(dir) = &shadow_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("shadow dir: {e}"))?;
        }
        let until = Instant::now() + Duration::from_secs_f64(seconds);
        let replay = replay::run(
            &workload,
            &expected.frames,
            &expected.responses,
            &configs,
            shadow_dir,
            until,
        );
        failed += replay.mismatches + replay.drift.len();
        for drift in &replay.drift {
            println!("# INCORRECT: the layer replay drifted from the engine: {drift}");
        }
        attempted += replay.passes * workload.n_requests();
        layer_metrics(&mut report, &expected, &load, &replay);
        let traces = server::target_dir().join("rsbench-traces");
        let path = traces.join(format!("{}.tsv", spec.name));
        if std::fs::create_dir_all(&traces)
            .and_then(|()| replay.tracer.write(&path))
            .is_ok()
        {
            println!(
                "# spans: {} written to {}",
                replay.tracer.spans.len(),
                path.display()
            );
        }
    }
    report.add("client.cpu_us_per_req", client_cpu_us, "us", Some(n));
    report.add(
        "client.threads",
        load.client_load_threads as f64,
        "count",
        None,
    );
    report.note("load threads, counted in /proc while loading");
    report.add("client.connections", spec.connections as f64, "count", None);
    report.add("host.nproc", nproc as f64, "count", None);
    for (what, count) in [
        ("client load threads", load.client_load_threads),
        ("client connections", spec.connections),
    ] {
        if count > nproc {
            println!(
                "# WARNING: {count} {what} exceed nproc={nproc}; the generator may bound throughput"
            );
        }
    }
    report.print();
    if let Some(first) = load.conns.iter().find_map(|c| c.first_failure.as_ref()) {
        println!("# first failure: {first}");
    }
    println!(
        "{}",
        report.result_line(listed, failed == 0, attempted, failed)
    );
    Ok(())
}

fn layer_metrics(
    report: &mut Report,
    expected: &expect::Expected,
    load: &Load,
    replay: &replay::Replay,
) {
    let spans = &replay.tracer.spans;
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name.entry(s.name).or_default().push(s.dur_ns() as f64);
    }
    let durs = |name: &str| by_name.get(name).cloned().unwrap_or_default();
    let sum = |name: &str| durs(name).iter().sum::<f64>();
    let n = load.samples().max(1) as f64;

    // net: the client round trip minus the in-process service time of
    // the same request.
    let overhead: Vec<f64> = load
        .conns
        .iter()
        .enumerate()
        .flat_map(|(c, r)| {
            r.samples
                .iter()
                .map(move |s| s.rtt_ns as f64 - replay.service_ns[c][s.index as usize])
        })
        .collect();
    report.percentiles_us("net.overhead_us", &overhead);
    report.add(
        "net.bytes_in_per_req",
        load.conns.iter().map(|c| c.bytes_out).sum::<u64>() as f64 / n,
        "B",
        None,
    );
    report.add(
        "net.bytes_out_per_req",
        load.conns.iter().map(|c| c.bytes_in).sum::<u64>() as f64 / n,
        "B",
        None,
    );

    // service
    report.percentiles_us("service.frame_parse_us", &durs("service.frame_parse"));
    report.percentiles_us("service.render_us", &durs("service.render"));
    report.percentiles_us("service.execute_us", &durs("service.execute"));
    let children = child_sums(spans);
    let mut per_op: BTreeMap<Op, (Vec<f64>, f64)> = BTreeMap::new();
    for (i, s) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "service.execute")
    {
        let e = per_op.entry(replay.ops[s.request as usize]).or_default();
        e.0.push(s.dur_ns() as f64);
        e.1 += children[i] as f64;
    }
    for (op, (execs, _)) in &per_op {
        report.percentiles_us(&format!("service.execute_us.{}", op.name()), execs);
    }
    if let Some((execs, _)) = per_op.get(&Op::Batch) {
        let designs: f64 = replay
            .counts
            .batch_design_ns
            .iter()
            .map(|&n| n as f64)
            .sum();
        let wall: f64 = execs.iter().sum();
        report.add(
            "service.batch_efficiency",
            designs / (wall * 2.0),
            "ratio",
            Some(execs.len()),
        );
        report.note("Σ per-design time ÷ (execute wall × 2)");
    }

    // session
    if by_name.contains_key("session.open") {
        report.percentiles_us("session.open_us", &durs("session.open"));
    }
    if by_name.contains_key("session.edit") {
        report.percentiles_us("session.edit_us", &durs("session.edit"));
        for kind in ["rescheduled", "ill-posed", "unfeasible", "unchanged"] {
            let count = expected
                .counts
                .get(&format!("outcome.{kind}"))
                .copied()
                .unwrap_or(0);
            report.add(
                format!("session.{}", kind.replace('-', "_")),
                count as f64,
                "count",
                None,
            );
            report.note("per pass");
        }
        let c = &replay.counts;
        report.add(
            "session.warm_column_ratio",
            c.warm_columns as f64 / (c.warm_columns + c.cold_columns).max(1) as f64,
            "ratio",
            Some(c.warm_columns + c.cold_columns),
        );
        report.note(format!(
            "{} warm of {} anchor columns",
            c.warm_columns,
            c.warm_columns + c.cold_columns
        ));
        report.add(
            "session.iterations_per_edit",
            c.edit_iterations as f64 / c.rescheduled.max(1) as f64,
            "count",
            Some(c.rescheduled),
        );
    }

    // journal
    if by_name.contains_key("journal.open") {
        let c = &replay.counts;
        let pairs = (replay.passes / 2).max(1) as f64;
        report.mean_us("journal.append_us", &durs("journal.append"));
        report.percentiles_us("journal.sync_us", &durs("journal.sync"));
        report.mean_us("journal.compact_us", &c.compact_ns);
        report.note("one forced compaction per recovered session");
        report.percentiles_us("journal.replay_us", &durs("journal.replay"));
        report.add(
            "journal.wal_bytes_per_edit",
            c.wal_bytes as f64 / c.wal_edits.max(1) as f64,
            "B",
            Some(c.wal_edits),
        );
        report.add(
            "journal.compactions",
            c.compactions as f64 / pairs,
            "count",
            None,
        );
        report.note("per pass");
    }

    // cache
    if by_name.contains_key("cache.probe") {
        let probes = replay.cache.hits + replay.cache.misses;
        let pairs = (replay.passes / 2).max(1) as f64;
        report.percentiles_us("cache.key_us", &durs("cache.key"));
        report.mean_us("cache.probe_us", &durs("cache.probe"));
        report.mean_us("cache.insert_us", &durs("cache.insert"));
        report.add(
            "cache.hit_ratio",
            replay.cache.hits as f64 / probes.max(1) as f64,
            "ratio",
            Some(probes as usize),
        );
        report.note(format!("{} hits of {probes} probes", replay.cache.hits));
        report.add(
            "cache.evictions",
            replay.cache.evictions as f64 / pairs,
            "count",
            None,
        );
        report.note("per pass");
    }

    // graph
    report.percentiles_us("graph.from_text_us", &durs("graph.from_text"));
    report.percentiles_us("graph.kernel_build_us", &durs("graph.kernel_build"));

    // core
    report.mean_us("core.anchor_sets_us", &durs("core.anchor_sets"));
    report.mean_us("core.well_posed_us", &durs("core.well_posed"));
    report.percentiles_us("core.fixpoint_us", &durs("core.fixpoint"));
    let iters = Samples::new(replay.counts.fixpoint_iterations.clone());
    report.add(
        "core.fixpoint_iterations",
        iters.mean(),
        "count",
        Some(iters.len()),
    );
    report.mean_us("core.fixpoint_t2_us", &durs("core.fixpoint_t2"));
    let (t1, t2) = (sum("core.fixpoint"), sum("core.fixpoint_t2"));
    report.add(
        "core.crew_speedup",
        t1 / t2.max(1.0),
        "ratio",
        Some(durs("core.fixpoint").len()),
    );
    report.note(format!(
        "Σ t1 {:.0} us ÷ Σ t2 {:.0} us",
        t1 / 1000.0,
        t2 / 1000.0
    ));

    // trace: coverage of execute by its direct layer children, and the
    // cost of recording spans at all.
    let (all_exec, all_children) = per_op.values().fold((0.0, 0.0), |(e, c), (execs, ch)| {
        (e + execs.iter().sum::<f64>(), c + ch)
    });
    report.add(
        "trace.coverage",
        all_children / all_exec.max(1.0),
        "ratio",
        Some(durs("service.execute").len()),
    );
    for (op, (execs, ch)) in &per_op {
        report.add(
            format!("trace.coverage.{}", op.name()),
            ch / execs.iter().sum::<f64>().max(1.0),
            "ratio",
            Some(execs.len()),
        );
    }
    report.add(
        "trace.overhead_ratio",
        median(&replay.overhead_ratios),
        "ratio",
        Some(replay.overhead_ratios.len()),
    );
    report.note("traced ÷ untraced in-process request time, median over pass pairs");

    // Self time per span name, summed per request, for the layer table.
    let selfs = self_times(spans);
    let mut self_by: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(&selfs) {
        *self_by.entry(s.name).or_default() += *t as f64;
    }
    let requests = replay.ops.len().max(1) as f64;
    for (name, total) in self_by {
        report.add(
            format!("self.{name}_us"),
            total / 1000.0 / requests,
            "us",
            None,
        );
        report.note("self time per request");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this binary emits, with the same units.
    #[test]
    fn benchmark_json_matches_the_emitted_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_owned(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let specs: Vec<&str> = gen::SPECS.iter().map(|s| s.name).collect();
        assert_eq!(workloads, specs);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report::default();
        report.add("server_cpu_us_per_req", 1234.5, "us", Some(10));
        let line = report.result_line(&END_TO_END, true, 10, 0);
        let json = Json::parse(&line).unwrap();
        let Json::Object(pairs) = &json else {
            panic!("object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = json.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("server_cpu_us_per_req")
                .and_then(|m| m.get("value")),
            Some(&Json::Float(1234.5))
        );
    }
}
