//! The `rsched` command-line driver.
//!
//! Operates on constraint graphs in the text format of
//! [`rsched_graph::ConstraintGraph::from_text`] (`.rsg` files by
//! convention) and on HardwareC sources (`.hc`):
//!
//! ```text
//! rsched check     <graph.rsg>                 feasibility + well-posedness
//! rsched schedule  <graph.rsg> [--ir] [--trace]              minimum relative schedule
//! rsched slack     <graph.rsg>                 ASAP/ALAP offsets + mobility
//! rsched explain   <graph.rsg>                 binding path behind every offset
//! rsched control   <graph.rsg> [--style counter|shift] [--ir]
//! rsched fsm       <graph.rsg>                 FSM/microcode controller (fixed-delay)
//! rsched simulate  <graph.rsg> [--seed N] [--max-delay N] [--gate] [--vcd]
//! rsched reduce    <graph.rsg>                 transitive-reduced graph text
//! rsched verilog   <graph.rsg> [--style counter|shift] [--ir] [--name M]
//! rsched dot       <graph.rsg>                 Graphviz output
//! rsched compile   <design.hc> [--vcd --seed N]  HardwareC -> schedules
//! rsched serve     [--stdio | --listen <ip:port|socket-path>]
//!                  [--workers N] [--deadline-ms N] [--queue-depth N]
//!                  [--max-ops N] [--max-edges N] [--journal-dir D]
//!                  [--snapshot-every N] [--cache-capacity N] [--threads N]
//!                  [--max-sessions N] [--max-inflight N]
//!                  [--idle-timeout-ms N] [--read-deadline-ms N]
//!                  [--drain-timeout-ms N]
//!                                               JSON-lines service (stdio or socket)
//! rsched fuzz      [--seed N] [--iters N] [--minimize] [--repro-dir D] [--faults] [--cache] [--chaos]  oracle-refereed fuzzing
//! rsched help                                  print usage
//! ```
//!
//! The library surface ([`run`]) takes the argument vector and returns
//! the rendered output, so every command is unit-testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::fs;

use rsched_core::{
    check_well_posed, explain_offset, iteration_bound, make_well_posed, relative_slack, schedule,
    schedule_traced, IrredundantAnchors, ScheduleError, WellPosedness,
};
use rsched_ctrl::{generate, ControlStyle, Fsm};
use rsched_graph::{ConstraintGraph, DotOptions};
use rsched_sim::{DelaySource, Simulator, Waveform};

/// A CLI failure: human-readable message plus a suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Message for stderr.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: format!("{}\n\n{USAGE}", message.into()),
            code: 2,
        }
    }

    fn failure(message: impl std::fmt::Display) -> Self {
        CliError {
            message: message.to_string(),
            code: 1,
        }
    }
}

/// Maps a scheduling error on `g` to a failure that names operations
/// where the error's `Display` would print vertex ids.
fn named(g: &ConstraintGraph) -> impl Fn(ScheduleError) -> CliError + '_ {
    move |e| CliError::failure(e.render(g))
}

const USAGE: &str = "usage:
  rsched check     <graph.rsg>
  rsched schedule  <graph.rsg> [--ir] [--trace]
  rsched slack     <graph.rsg>
  rsched optimize  <graph.rsg> [--max-rounds N] [--slack-threshold N]
                   [--budget N] [--style counter|shift] [--max-edges N]
  rsched explain   <graph.rsg>
  rsched control   <graph.rsg> [--style counter|shift] [--ir]
  rsched fsm       <graph.rsg>
  rsched simulate  <graph.rsg> [--seed N] [--max-delay N] [--gate] [--vcd]
  rsched reduce    <graph.rsg>
  rsched verilog   <graph.rsg> [--style counter|shift] [--ir] [--name M]
  rsched dot       <graph.rsg>
  rsched compile   <design.hc> [--vcd --seed N]
  rsched serve     [--stdio | --listen <ip:port|socket-path>]
                   [--workers N] [--deadline-ms N] [--queue-depth N]
                   [--max-ops N] [--max-edges N] [--journal-dir D]
                   [--snapshot-every N] [--cache-capacity N] [--threads N]
                   [--max-sessions N] [--max-inflight N]
                   [--idle-timeout-ms N] [--read-deadline-ms N]
                   [--drain-timeout-ms N]
  rsched fuzz      [--seed N] [--iters N] [--minimize] [--repro-dir D] [--faults] [--cache] [--optimize] [--chaos]
  rsched help";

/// Executes a CLI invocation (`args` excludes the program name) and
/// returns the stdout payload.
///
/// # Errors
///
/// Returns [`CliError`] for usage errors (exit code 2) and analysis
/// failures (exit code 1).
pub fn run(args: &[String]) -> Result<String, CliError> {
    let mut it = args.iter();
    let command = it
        .next()
        .ok_or_else(|| CliError::usage("missing command"))?;
    match command.as_str() {
        "help" | "--help" | "-h" => return Ok(format!("{USAGE}\n")),
        "serve" => {
            let flags: Vec<&String> = it.collect();
            let invocation = parse_serve_config(&flags)?;
            return match invocation.listen {
                Some(listen) => {
                    let mut net = rsched_net::NetConfig::new(listen);
                    net.engine = invocation.config;
                    net.max_sessions_per_conn = invocation.max_sessions;
                    net.max_inflight_per_conn = invocation.max_inflight;
                    net.idle_timeout = invocation.idle_timeout;
                    net.read_deadline = invocation.read_deadline;
                    net.drain_timeout = invocation.drain_timeout;
                    let mut server = rsched_net::NetServer::bind(net).map_err(CliError::failure)?;
                    // SIGTERM starts a graceful drain: stop accepting,
                    // answer in-flight requests, flush, then exit.
                    server.install_sigterm_drain();
                    // Banner on stdout before blocking, so scripts can
                    // scrape the resolved address (port 0 binds).
                    println!("listening on {}", server.local_addr());
                    let summary = server.run().map_err(CliError::failure)?;
                    Ok(format!(
                        "served {} request(s) over {} connection(s)\n",
                        summary.requests, summary.connections
                    ))
                }
                None => {
                    let stdin = std::io::stdin();
                    // Buffered, so a worker's batch leaves in one write.
                    let stdout = std::io::BufWriter::new(std::io::stdout());
                    rsched_engine::serve(stdin.lock(), stdout, &invocation.config)
                        .map_err(CliError::failure)?;
                    Ok(String::new())
                }
            };
        }
        "fuzz" => {
            let flags: Vec<&String> = it.collect();
            return fuzz_cmd(&flags);
        }
        _ => {}
    }
    if !matches!(
        command.as_str(),
        "check"
            | "schedule"
            | "slack"
            | "optimize"
            | "explain"
            | "control"
            | "fsm"
            | "simulate"
            | "reduce"
            | "verilog"
            | "dot"
            | "compile"
    ) {
        return Err(CliError::usage(format!("unknown command '{command}'")));
    }
    let path = it
        .next()
        .ok_or_else(|| CliError::usage(format!("'{command}' needs an input file")))?;
    let flags: Vec<&String> = it.collect();
    let source = fs::read_to_string(path)
        .map_err(|e| CliError::failure(format!("cannot read '{path}': {e}")))?;
    match command.as_str() {
        "check" => check_cmd(&source),
        "schedule" => schedule_cmd(&source, &flags),
        "slack" => slack_cmd(&source),
        "optimize" => optimize_cmd(&source, &flags),
        "explain" => explain_cmd(&source),
        "control" => control_cmd(&source, &flags),
        "fsm" => fsm_cmd(&source),
        "simulate" => simulate_cmd(&source, &flags),
        "reduce" => reduce_cmd(&source),
        "verilog" => verilog_cmd(&source, &flags),
        "dot" => dot_cmd(&source),
        "compile" => compile_cmd(&source, &flags),
        _ => unreachable!("validated above"),
    }
}

/// How `rsched serve` was asked to run: the engine config plus the
/// transport (stdio by default or with `--stdio`, a socket listener with
/// `--listen`) and the socket-only per-connection quotas.
#[derive(Debug)]
struct ServeInvocation {
    config: rsched_engine::ServeConfig,
    listen: Option<rsched_net::Listen>,
    max_sessions: Option<usize>,
    max_inflight: Option<usize>,
    idle_timeout: Option<std::time::Duration>,
    read_deadline: Option<std::time::Duration>,
    drain_timeout: Option<std::time::Duration>,
}

fn parse_serve_config(flags: &[&String]) -> Result<ServeInvocation, CliError> {
    let mut config = rsched_engine::ServeConfig::default();
    if let Some(v) = flag_value(flags, "--workers") {
        config.workers = v
            .parse()
            .map_err(|_| CliError::usage("--workers expects a number"))?;
    }
    if let Some(v) = flag_value(flags, "--deadline-ms") {
        let ms: u64 = v
            .parse()
            .map_err(|_| CliError::usage("--deadline-ms expects a number"))?;
        config.deadline = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(v) = flag_value(flags, "--queue-depth") {
        config.queue_depth = v
            .parse()
            .map_err(|_| CliError::usage("--queue-depth expects a number"))?;
        if config.queue_depth == 0 {
            return Err(CliError::usage("--queue-depth must be at least 1"));
        }
    }
    if let Some(v) = flag_value(flags, "--max-ops") {
        config.max_ops = Some(
            v.parse()
                .map_err(|_| CliError::usage("--max-ops expects a number"))?,
        );
    }
    if let Some(v) = flag_value(flags, "--max-edges") {
        config.max_edges = Some(
            v.parse()
                .map_err(|_| CliError::usage("--max-edges expects a number"))?,
        );
    }
    if let Some(v) = flag_value(flags, "--journal-dir") {
        config.journal_dir = Some(std::path::PathBuf::from(v));
    }
    if let Some(v) = flag_value(flags, "--snapshot-every") {
        config.snapshot_every = v.parse().map_err(|_| {
            CliError::usage("--snapshot-every expects a number of edits (0 disables compaction)")
        })?;
    }
    if let Some(v) = flag_value(flags, "--cache-capacity") {
        config.cache_capacity = v.parse().map_err(|_| {
            CliError::usage("--cache-capacity expects a number of entries (0 disables the cache)")
        })?;
    }
    if let Some(v) = flag_value(flags, "--threads") {
        config.threads = v.parse().map_err(|_| {
            CliError::usage("--threads expects a pool size (0 sizes to the host's cores)")
        })?;
    }
    let listen = flag_value(flags, "--listen")
        .map(|v| rsched_net::Listen::parse(v).map_err(CliError::usage))
        .transpose()?;
    if listen.is_some() && has_flag(flags, "--stdio") {
        return Err(CliError::usage(
            "--listen and --stdio are mutually exclusive",
        ));
    }
    let quota = |name: &str| -> Result<Option<usize>, CliError> {
        flag_value(flags, name)
            .map(|v| {
                v.parse()
                    .map_err(|_| CliError::usage(format!("{name} expects a number")))
            })
            .transpose()
    };
    let max_sessions = quota("--max-sessions")?;
    let max_inflight = quota("--max-inflight")?;
    let timeout = |name: &str| -> Result<Option<std::time::Duration>, CliError> {
        flag_value(flags, name)
            .map(|v| {
                v.parse::<u64>()
                    .map(std::time::Duration::from_millis)
                    .map_err(|_| CliError::usage(format!("{name} expects milliseconds")))
            })
            .transpose()
    };
    let idle_timeout = timeout("--idle-timeout-ms")?;
    let read_deadline = timeout("--read-deadline-ms")?;
    let drain_timeout = timeout("--drain-timeout-ms")?;
    if listen.is_none() {
        if max_sessions.is_some() {
            return Err(CliError::usage(
                "--max-sessions requires --listen (it is a per-connection quota)",
            ));
        }
        if max_inflight.is_some() {
            return Err(CliError::usage(
                "--max-inflight requires --listen (it is a per-connection quota)",
            ));
        }
        for (flag, value) in [
            ("--idle-timeout-ms", &idle_timeout),
            ("--read-deadline-ms", &read_deadline),
            ("--drain-timeout-ms", &drain_timeout),
        ] {
            if value.is_some() {
                return Err(CliError::usage(format!(
                    "{flag} requires --listen (it is a connection-lifecycle setting)"
                )));
            }
        }
    }
    // `--journal-dir` takes an arbitrary path, so stray detection walks
    // flag positions instead of pattern-matching every operand.
    let value_flags = [
        "--workers",
        "--deadline-ms",
        "--queue-depth",
        "--max-ops",
        "--max-edges",
        "--journal-dir",
        "--snapshot-every",
        "--cache-capacity",
        "--threads",
        "--listen",
        "--max-sessions",
        "--max-inflight",
        "--idle-timeout-ms",
        "--read-deadline-ms",
        "--drain-timeout-ms",
    ];
    let mut expect_value = false;
    for f in flags {
        if expect_value {
            expect_value = false;
            continue;
        }
        if value_flags.contains(&f.as_str()) {
            expect_value = true;
        } else if f.as_str() != "--stdio" {
            return Err(CliError::usage(format!("unknown serve flag '{f}'")));
        }
    }
    Ok(ServeInvocation {
        config,
        listen,
        max_sessions,
        max_inflight,
        idle_timeout,
        read_deadline,
        drain_timeout,
    })
}

fn parse_fuzz_config(flags: &[&String]) -> Result<rsched_oracle::FuzzConfig, CliError> {
    let mut config = rsched_oracle::FuzzConfig {
        minimize: has_flag(flags, "--minimize"),
        ..rsched_oracle::FuzzConfig::default()
    };
    if let Some(v) = flag_value(flags, "--seed") {
        config.seed = v
            .parse()
            .map_err(|_| CliError::usage("--seed expects a number"))?;
    }
    if let Some(v) = flag_value(flags, "--iters") {
        config.iters = v
            .parse()
            .map_err(|_| CliError::usage("--iters expects a number"))?;
    }
    if let Some(v) = flag_value(flags, "--repro-dir") {
        config.repro_dir = Some(std::path::PathBuf::from(v));
    }
    let known = [
        "--seed",
        "--iters",
        "--minimize",
        "--repro-dir",
        "--faults",
        "--cache",
        "--optimize",
        "--chaos",
    ];
    let mut expect_value = false;
    for f in flags {
        if expect_value {
            expect_value = false;
            continue;
        }
        match f.as_str() {
            "--minimize" | "--faults" | "--cache" | "--optimize" | "--chaos" => {}
            "--seed" | "--iters" | "--repro-dir" => expect_value = true,
            other if !known.contains(&other) => {
                return Err(CliError::usage(format!("unknown fuzz flag '{other}'")));
            }
            _ => {}
        }
    }
    Ok(config)
}

/// Runs the oracle-refereed structured fuzzer, the serve-protocol
/// adversarial harness, and the socket-parity harness (live TCP server
/// vs stdio); any violation is an exit-code-1 failure carrying
/// the full report (with repro paths when `--repro-dir` is set). With
/// `--faults`, additionally interleaves deterministic failpoint faults
/// (panics, worker kills, stalls, injected errors) with edit scripts and
/// asserts recovery is bit-identical to a cold rebuild. With `--chaos`,
/// runs only socket-level fault injection (torn writes, RST aborts,
/// half-closes, hostile bytes, slow-loris) against the live server.
fn fuzz_cmd(flags: &[&String]) -> Result<String, CliError> {
    let config = parse_fuzz_config(flags)?;
    if has_flag(flags, "--cache") {
        // Cache-only mode: the full iteration budget goes to the cache
        // differential (CI's dedicated cache-fuzz job uses this).
        let cache_report = rsched_oracle::fuzz_cache(&rsched_oracle::CacheFuzzConfig {
            seed: config.seed,
            iters: config.iters.max(10),
            rounds: (config.iters / 100).clamp(1, 8),
            repro_dir: config.repro_dir.clone(),
            ..rsched_oracle::CacheFuzzConfig::default()
        });
        let rendered = format!("cache fuzz (seed {}):\n{cache_report}", config.seed);
        return if cache_report.is_ok() {
            Ok(rendered)
        } else {
            Err(CliError::failure(rendered))
        };
    }
    if has_flag(flags, "--chaos") {
        // Chaos-only mode: socket-level fault injection against the live
        // server (CI's chaos-smoke job uses this). One "iter" is one
        // hostile connection; each round also boots an undisturbed
        // control server for the sibling bit-identity check.
        let chaos_config = rsched_oracle::ChaosFuzzConfig {
            seed: config.seed,
            rounds: (config.iters / 25).clamp(1, 16),
            chaos_conns: 6,
            ..rsched_oracle::ChaosFuzzConfig::default()
        };
        let chaos_report = rsched_oracle::fuzz_chaos(&chaos_config);
        let rendered = format!("chaos fuzz (seed {}):\n{chaos_report}", config.seed);
        return if chaos_report.is_ok() {
            Ok(rendered)
        } else {
            // Chaos rounds replay from the seed alone; persist the report
            // plus the exact replay command so the CI artifact is
            // self-describing.
            if let Some(dir) = &config.repro_dir {
                let _ = std::fs::create_dir_all(dir);
                let body = format!(
                    "{rendered}\nreplay: rsched fuzz --chaos --seed {} --iters {}\n",
                    config.seed, config.iters
                );
                let _ = std::fs::write(dir.join("chaos-failures.txt"), body);
            }
            Err(CliError::failure(rendered))
        };
    }
    if has_flag(flags, "--optimize") {
        // Optimize-only mode: the full iteration budget drives random
        // budgets/thresholds through the optimize loop (CI's dedicated
        // optimize-smoke job uses this).
        let optimize_report = rsched_oracle::fuzz_optimize(&rsched_oracle::OptimizeFuzzConfig {
            seed: config.seed,
            iters: config.iters.max(10),
            repro_dir: config.repro_dir.clone(),
            ..rsched_oracle::OptimizeFuzzConfig::default()
        });
        let rendered = format!("optimize fuzz (seed {}):\n{optimize_report}", config.seed);
        return if optimize_report.is_ok() {
            Ok(rendered)
        } else {
            Err(CliError::failure(rendered))
        };
    }
    let report = rsched_oracle::fuzz(&config);
    let serve_report = rsched_oracle::fuzz_serve(&rsched_oracle::ServeFuzzConfig {
        seed: config.seed,
        rounds: (config.iters / 25).clamp(2, 40),
        frames_per_round: 40,
    });
    let net_report = rsched_oracle::fuzz_net(&rsched_oracle::NetFuzzConfig {
        seed: config.seed,
        rounds: (config.iters / 50).clamp(1, 8),
        ..rsched_oracle::NetFuzzConfig::default()
    });
    let cache_report = rsched_oracle::fuzz_cache(&rsched_oracle::CacheFuzzConfig {
        seed: config.seed,
        iters: (config.iters / 2).max(10),
        rounds: (config.iters / 50).clamp(1, 4),
        repro_dir: config.repro_dir.clone(),
        ..rsched_oracle::CacheFuzzConfig::default()
    });
    let mut rendered = format!(
        "graph fuzz (seed {}):\n{report}\nserve fuzz:\n{serve_report}net fuzz:\n{net_report}cache fuzz:\n{cache_report}",
        config.seed
    );
    let mut ok =
        report.is_ok() && serve_report.is_ok() && net_report.is_ok() && cache_report.is_ok();
    if has_flag(flags, "--faults") {
        let fault_report = rsched_oracle::fuzz_faults(&rsched_oracle::FaultFuzzConfig {
            seed: config.seed,
            rounds: (config.iters / 4).max(1),
            repro_dir: config.repro_dir.clone(),
        });
        let _ = write!(rendered, "fault fuzz:\n{fault_report}");
        ok = ok && fault_report.is_ok();
    }
    if ok {
        Ok(rendered)
    } else {
        Err(CliError::failure(rendered))
    }
}

fn load_graph(source: &str) -> Result<ConstraintGraph, CliError> {
    ConstraintGraph::from_text(source).map_err(CliError::failure)
}

fn flag_value<'a>(flags: &'a [&String], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .position(|f| *f == name)
        .and_then(|i| flags.get(i + 1))
        .map(|s| s.as_str())
}

fn has_flag(flags: &[&String], name: &str) -> bool {
    flags.iter().any(|f| *f == name)
}

fn check_cmd(source: &str) -> Result<String, CliError> {
    let g = load_graph(source)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} vertices, {} edges ({} backward), {} anchors",
        g.n_vertices(),
        g.n_edges(),
        g.n_backward_edges(),
        g.n_anchors()
    );
    match check_well_posed(&g) {
        WellPosedness::WellPosed => {
            let bound = iteration_bound(&g).map_err(named(&g))?;
            let _ = writeln!(
                out,
                "well-posed; scheduling converges within {} iteration(s) (L = {})",
                bound.max_iterations(),
                bound.l
            );
        }
        WellPosedness::Unfeasible { witness } => {
            let witness = g.vertex(witness).name();
            let _ = writeln!(out, "UNFEASIBLE: positive cycle through {witness}");
        }
        WellPosedness::IllPosed { violations } => {
            let _ = writeln!(out, "ILL-POSED ({} constraint(s)):", violations.len());
            for v in violations {
                let _ = writeln!(
                    out,
                    "  backward edge {} -> {}: anchors {:?} gate the tail but not the head",
                    g.vertex(v.from).name(),
                    g.vertex(v.to).name(),
                    v.missing
                        .iter()
                        .map(|&a| g.vertex(a).name().to_owned())
                        .collect::<Vec<_>>()
                );
            }
            let mut repaired = g.clone();
            match make_well_posed(&mut repaired) {
                Ok(report) => {
                    let _ = writeln!(out, "repairable by {} serialization edge(s):", report.len());
                    for (a, v) in &report.added {
                        let _ = writeln!(
                            out,
                            "  add dep {} -> {}",
                            repaired.vertex(*a).name(),
                            repaired.vertex(*v).name()
                        );
                    }
                }
                Err(e) => {
                    let _ = writeln!(out, "NOT repairable: {e}");
                }
            }
        }
    }
    Ok(out)
}

/// The usage error for `rsched schedule --threads`: the fixpoint has one
/// serial implementation, so there is nothing left to fan out.
const SCHEDULE_THREADS_REMOVED: &str =
    "schedule has no --threads: the fixpoint runs on one thread (serve --threads sizes the batch pool)";

fn schedule_cmd(source: &str, flags: &[&String]) -> Result<String, CliError> {
    if has_flag(flags, "--threads") {
        return Err(CliError::usage(SCHEDULE_THREADS_REMOVED));
    }
    let g = load_graph(source)?;
    let mut out = String::new();
    if has_flag(flags, "--trace") {
        let trace = schedule_traced(&g).map_err(named(&g))?;
        for (i, it) in trace.iterations.iter().enumerate() {
            let _ = writeln!(
                out,
                "iteration {}: {} violated backward edge(s)",
                i + 1,
                it.violations.len()
            );
        }
    }
    let omega = schedule(&g).map_err(named(&g))?;
    let omega = if has_flag(flags, "--ir") {
        let analysis = IrredundantAnchors::analyze(&g).map_err(named(&g))?;
        omega.restrict(analysis.irredundant.family())
    } else {
        omega
    };
    let _ = writeln!(
        out,
        "minimum relative schedule ({} iteration(s)):",
        omega.iterations()
    );
    for v in g.vertex_ids() {
        let offs: Vec<String> = omega
            .offsets_of(v)
            .map(|(a, o)| format!("σ_{}={o}", g.vertex(a).name()))
            .collect();
        let _ = writeln!(out, "  {:<16} [{}]", g.vertex(v).name(), offs.join(", "));
    }
    let _ = writeln!(
        out,
        "sum of max offsets: {} (control-cost proxy)",
        omega.sum_of_max_offsets()
    );
    Ok(out)
}

fn slack_cmd(source: &str) -> Result<String, CliError> {
    let g = load_graph(source)?;
    let omega = schedule(&g).map_err(named(&g))?;
    let slack = relative_slack(&g, &omega).map_err(named(&g))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "relative slack (σ_min / σ_alap / mobility per anchor):"
    );
    for v in g.vertex_ids() {
        let cells: Vec<String> = slack
            .anchors()
            .iter()
            .filter_map(|&a| {
                let (asap, alap, sl) = (slack.asap(v, a)?, slack.alap(v, a)?, slack.slack(v, a)?);
                Some(format!("{}:{}/{}/{}", g.vertex(a).name(), asap, alap, sl))
            })
            .collect();
        if cells.is_empty() {
            continue;
        }
        let marker = if slack.is_critical(v) {
            " *critical*"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  {:<16} {}{}",
            g.vertex(v).name(),
            cells.join("  "),
            marker
        );
    }
    Ok(out)
}

/// `rsched optimize` — the feedback-guided scheduler ⇄ binding loop
/// (DESIGN.md §15). Every accepted round is oracle-refereed before the
/// next one runs: the CLI is the referee the engine cannot be (the
/// oracle depends on the engine).
fn optimize_cmd(source: &str, flags: &[&String]) -> Result<String, CliError> {
    let g = load_graph(source)?;
    let num = |name: &str, default: i64| -> Result<i64, CliError> {
        flag_value(flags, name)
            .map(|v| {
                v.parse()
                    .map_err(|_| CliError::usage(format!("{name} expects a number")))
            })
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let style = match flag_value(flags, "--style") {
        None | Some("counter") => rsched_engine::optimize::ControlStyle::Counter,
        Some("shift") => rsched_engine::optimize::ControlStyle::ShiftRegister,
        Some(other) => {
            return Err(CliError::usage(format!(
                "unknown style '{other}' (expected counter|shift)"
            )))
        }
    };
    let max_rounds = num("--max-rounds", 8)?;
    let slack_threshold = num("--slack-threshold", 0)?;
    let budget = num("--budget", 1)?;
    if max_rounds < 1 || budget < 1 || slack_threshold < 0 {
        return Err(CliError::usage(
            "--max-rounds and --budget must be >= 1, --slack-threshold >= 0",
        ));
    }
    let max_edges = flag_value(flags, "--max-edges")
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| CliError::usage("--max-edges expects a number"))
        })
        .transpose()?;
    let config = rsched_engine::OptimizeConfig {
        max_rounds: max_rounds as usize,
        slack_threshold,
        budget: budget as usize,
        style,
        max_edges,
        ..rsched_engine::OptimizeConfig::default()
    };

    let session = rsched_engine::Session::open(g).map_err(CliError::failure)?;
    let mut optimizer =
        rsched_engine::Optimizer::new(session, config.clone()).map_err(CliError::failure)?;
    let mut out = String::new();
    loop {
        let round = match optimizer.step() {
            Ok(Some(r)) => r.clone(),
            Ok(None) => break,
            Err(e) => return Err(CliError::failure(e)),
        };
        let _ = writeln!(
            out,
            "round {}: region {} op(s), {} edge(s) {}; {} -> {}",
            round.round,
            round.region_ops,
            round.applied_edges.len(),
            if round.accepted {
                "accepted"
            } else {
                "reverted"
            },
            round.before,
            round.after,
        );
        if round.accepted {
            // Referee the accepted state before taking another step.
            let s = optimizer.session();
            let omega = s.schedule().expect("accepted round is scheduled");
            let report = rsched_oracle::verify(s.graph(), omega);
            if let Some((label, witness)) = report.first_violation() {
                return Err(CliError::failure(format!(
                    "oracle refuted accepted round {}: {label}: {witness}",
                    round.round
                )));
            }
            let _ = writeln!(out, "  oracle: accepted state re-proven");
        }
    }
    let report = optimizer.report();
    let _ = writeln!(
        out,
        "optimize: {} round(s), {} accepted, {}",
        report.rounds.len(),
        report.accepted_rounds,
        if report.edge_budget_exhausted {
            "stopped at --max-edges"
        } else if report.converged {
            "converged"
        } else {
            "stopped at --max-rounds"
        }
    );
    let points = |label: &str, pts: &[(u64, u64)], o: &mut String| {
        let rendered: Vec<String> = pts.iter().map(|(l, c)| format!("({l}, {c})")).collect();
        let _ = writeln!(o, "{label}: {}", rendered.join(" "));
    };
    points(
        "explored (latency, control)",
        &report.explored_points(),
        &mut out,
    );
    points("pareto", &report.pareto_points(), &mut out);
    let _ = writeln!(out, "final: {}", report.final_objective);
    Ok(out)
}

fn explain_cmd(source: &str) -> Result<String, CliError> {
    let g = load_graph(source)?;
    let omega = schedule(&g).map_err(named(&g))?;
    let mut out = String::new();
    for v in g.vertex_ids() {
        for &a in omega.anchors() {
            if let Some(ex) = explain_offset(&g, &omega, v, a).map_err(named(&g))? {
                let _ = writeln!(out, "{}", ex.render(&g));
            }
        }
    }
    Ok(out)
}

fn fsm_cmd(source: &str) -> Result<String, CliError> {
    let g = load_graph(source)?;
    let omega = schedule(&g).map_err(named(&g))?;
    let fsm = Fsm::from_schedule(&g, &omega).map_err(|e| CliError::failure(e.render(&g)))?;
    Ok(fsm.describe(&g))
}

fn control_cmd(source: &str, flags: &[&String]) -> Result<String, CliError> {
    let g = load_graph(source)?;
    let style = match flag_value(flags, "--style") {
        None | Some("shift") => ControlStyle::ShiftRegister,
        Some("counter") => ControlStyle::Counter,
        Some(other) => {
            return Err(CliError::usage(format!(
                "unknown style '{other}' (expected counter|shift)"
            )))
        }
    };
    let omega = schedule(&g).map_err(named(&g))?;
    let omega = if has_flag(flags, "--ir") {
        let analysis = IrredundantAnchors::analyze(&g).map_err(named(&g))?;
        omega.restrict(analysis.irredundant.family())
    } else {
        omega
    };
    let unit = generate(&g, &omega, style);
    Ok(format!("{}cost: {}\n", unit.describe(), unit.cost()))
}

fn simulate_cmd(source: &str, flags: &[&String]) -> Result<String, CliError> {
    let g = load_graph(source)?;
    let seed: u64 = flag_value(flags, "--seed")
        .map(|v| {
            v.parse()
                .map_err(|_| CliError::usage("--seed expects a number"))
        })
        .transpose()?
        .unwrap_or(0);
    let max_delay: u64 = flag_value(flags, "--max-delay")
        .map(|v| {
            v.parse()
                .map_err(|_| CliError::usage("--max-delay expects a number"))
        })
        .transpose()?
        .unwrap_or(8);
    let omega = schedule(&g).map_err(named(&g))?;
    let unit = generate(&g, &omega, ControlStyle::ShiftRegister);
    let sim = Simulator::new(&g, &unit);
    let source_cfg = DelaySource::random(seed, max_delay);
    let report = if has_flag(flags, "--gate") {
        sim.run_gate_level(&source_cfg)
    } else {
        sim.run(&source_cfg)
    }
    .map_err(|e| CliError::failure(e.render(&g)))?;
    if has_flag(flags, "--vcd") {
        return Ok(rsched_sim::to_vcd(&g, &report));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "simulated {} cycles; {} violation(s); analytic match: {}",
        report.total_cycles,
        report.violations.len(),
        report.matches_analytic
    );
    let _ = write!(out, "{}", Waveform::from_report(&g, &report).render());
    Ok(out)
}

fn reduce_cmd(source: &str) -> Result<String, CliError> {
    let mut g = load_graph(source)?;
    let report = g.reduce_sequencing_edges();
    let mut out = format!(
        "# removed {} of {} sequencing edges
",
        report.removed, report.examined
    );
    out.push_str(&g.to_text());
    Ok(out)
}

fn verilog_cmd(source: &str, flags: &[&String]) -> Result<String, CliError> {
    let g = load_graph(source)?;
    let style = match flag_value(flags, "--style") {
        None | Some("shift") => ControlStyle::ShiftRegister,
        Some("counter") => ControlStyle::Counter,
        Some(other) => {
            return Err(CliError::usage(format!(
                "unknown style '{other}' (expected counter|shift)"
            )))
        }
    };
    let omega = schedule(&g).map_err(named(&g))?;
    let omega = if has_flag(flags, "--ir") {
        let analysis = IrredundantAnchors::analyze(&g).map_err(named(&g))?;
        omega.restrict(analysis.irredundant.family())
    } else {
        omega
    };
    let synth = rsched_ctrl::synthesize(&generate(&g, &omega, style));
    let name = flag_value(flags, "--name").unwrap_or("control");
    Ok(synth.to_verilog(name))
}

fn dot_cmd(source: &str) -> Result<String, CliError> {
    let g = load_graph(source)?;
    Ok(g.to_dot(&DotOptions::default()))
}

fn compile_cmd(source: &str, flags: &[&String]) -> Result<String, CliError> {
    let compiled = rsched_hdl::compile(source).map_err(CliError::failure)?;
    let scheduled = rsched_sgraph::schedule_design(&compiled.design).map_err(CliError::failure)?;
    if has_flag(flags, "--vcd") {
        let seed: u64 = flag_value(flags, "--seed")
            .map(|v| {
                v.parse()
                    .map_err(|_| CliError::usage("--seed expects a number"))
            })
            .transpose()?
            .unwrap_or(0);
        let act = rsched_sim::run_hierarchical(
            &compiled.design,
            &scheduled,
            &rsched_sim::HierConfig {
                seed,
                ..Default::default()
            },
        )
        .map_err(CliError::failure)?;
        return Ok(rsched_sim::hier_to_vcd(&compiled.design, &scheduled, &act));
    }
    let mut out = String::new();
    let stats = scheduled.anchor_stats();
    let _ = writeln!(
        out,
        "{} sequencing graph(s); |A| = {}, |V| = {}; Σ|A(v)| = {} -> Σ|IR(v)| = {}",
        stats.n_graphs,
        stats.n_anchors,
        stats.n_vertices,
        stats.total_full,
        stats.total_irredundant
    );
    let _ = writeln!(out, "\n{}", scheduled.report("design"));
    for gs in scheduled.graph_schedules() {
        let _ = writeln!(
            out,
            "\ngraph '{}' (latency {}):",
            gs.name,
            match gs.latency {
                rsched_graph::ExecDelay::Fixed(l) => l.to_string(),
                rsched_graph::ExecDelay::Unbounded => "unbounded".to_owned(),
            }
        );
        for v in gs.lowered.graph.vertex_ids() {
            let offs: Vec<String> = gs
                .schedule_ir
                .offsets_of(v)
                .map(|(a, o)| format!("σ_{}={o}", gs.lowered.graph.vertex(a).name()))
                .collect();
            let _ = writeln!(
                out,
                "  {:<16} [{}]",
                gs.lowered.graph.vertex(v).name(),
                offs.join(", ")
            );
        }
        if !gs.serialization.is_empty() {
            let _ = writeln!(
                out,
                "  ({} serialization edge(s) added)",
                gs.serialization.len()
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("rsched_cli_test_{name}_{}", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(content.as_bytes()).unwrap();
        path
    }

    const GRAPH: &str = "
op sync unbounded
op alu 2
op out 1
dep sync alu
dep alu out
max alu out 4
";

    fn run_args(args: &[&str]) -> Result<String, CliError> {
        run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn check_reports_well_posed() {
        let p = write_temp("check", GRAPH);
        let out = run_args(&["check", p.to_str().unwrap()]).unwrap();
        assert!(out.contains("well-posed"));
        assert!(out.contains("anchors"));
    }

    #[test]
    fn check_reports_repairable_ill_posedness() {
        let ill = "
op a1 unbounded
op a2 unbounded
op vi 1
op vj 1
dep a1 vi
dep a2 vj
max vi vj 4
";
        let p = write_temp("illposed", ill);
        let out = run_args(&["check", p.to_str().unwrap()]).unwrap();
        assert!(out.contains("ILL-POSED"));
        assert!(out.contains("repairable by 1 serialization edge(s)"));
        assert!(out.contains("add dep a2 -> vi"));
    }

    #[test]
    fn schedule_prints_offsets_and_trace() {
        let p = write_temp("sched", GRAPH);
        let out = run_args(&["schedule", p.to_str().unwrap(), "--trace"]).unwrap();
        assert!(out.contains("minimum relative schedule"));
        assert!(out.contains("σ_sync=2")); // `out` starts 2 after sync
        let ir = run_args(&["schedule", p.to_str().unwrap(), "--ir"]).unwrap();
        assert!(ir.contains("σ_sync"));
    }

    #[test]
    fn schedule_threads_flag_is_rejected() {
        let p = write_temp("sched_threads", GRAPH);
        for count in ["4", "1", "x"] {
            let err = run_args(&["schedule", p.to_str().unwrap(), "--threads", count]).unwrap_err();
            assert_eq!(err.code, 2);
            assert_eq!(
                err.message,
                format!("{SCHEDULE_THREADS_REMOVED}\n\n{USAGE}"),
                "--threads {count}"
            );
        }
        // Without the flag the command still schedules.
        assert!(run_args(&["schedule", p.to_str().unwrap()]).is_ok());
    }

    #[test]
    fn control_styles_render() {
        let p = write_temp("ctrl", GRAPH);
        let sr = run_args(&["control", p.to_str().unwrap()]).unwrap();
        assert!(sr.contains("shift-register-based"));
        let ctr = run_args(&["control", p.to_str().unwrap(), "--style", "counter"]).unwrap();
        assert!(ctr.contains("counter-based"));
        let err = run_args(&["control", p.to_str().unwrap(), "--style", "magic"]).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn simulate_renders_waveform() {
        let p = write_temp("sim", GRAPH);
        let out = run_args(&["simulate", p.to_str().unwrap(), "--seed", "3"]).unwrap();
        assert!(out.contains("0 violation(s)"));
        assert!(out.contains("analytic match: true"));
        assert!(out.contains('#'));
    }

    #[test]
    fn dot_renders() {
        let p = write_temp("dot", GRAPH);
        let out = run_args(&["dot", p.to_str().unwrap()]).unwrap();
        assert!(out.starts_with("digraph"));
    }

    #[test]
    fn compile_runs_hdl_pipeline() {
        let hc = "
process demo (req, ack)
    in port req;
    out port ack;
    boolean t;
{
    t = read(req);
    write ack = t;
}
";
        let p = write_temp("hc", hc);
        let out = run_args(&["compile", p.to_str().unwrap()]).unwrap();
        assert!(out.contains("1 sequencing graph(s)"));
        assert!(out.contains("demo"));
    }

    #[test]
    fn slack_marks_critical_path() {
        let p = write_temp("slack", GRAPH);
        let out = run_args(&["slack", p.to_str().unwrap()]).unwrap();
        assert!(out.contains("*critical*"));
        assert!(out.contains("sync:"));
    }

    #[test]
    fn fsm_requires_fixed_delay_design() {
        let p = write_temp("fsm_bad", GRAPH);
        let err = run_args(&["fsm", p.to_str().unwrap()]).unwrap_err();
        assert!(err.message.contains("unbounded"));
        let fixed = "op a 2\nop b 1\ndep a b\n";
        let p = write_temp("fsm_ok", fixed);
        let out = run_args(&["fsm", p.to_str().unwrap()]).unwrap();
        assert!(out.contains("FSM controller"));
        assert!(out.contains("state   0"));
    }

    #[test]
    fn gate_level_simulation_flag() {
        let p = write_temp("simgate", GRAPH);
        let behavioural = run_args(&["simulate", p.to_str().unwrap(), "--seed", "5"]).unwrap();
        let gate = run_args(&["simulate", p.to_str().unwrap(), "--seed", "5", "--gate"]).unwrap();
        assert_eq!(behavioural, gate, "gate-level must match behavioural");
    }

    #[test]
    fn explain_lists_binding_paths() {
        let p = write_temp("explain", GRAPH);
        let out = run_args(&["explain", p.to_str().unwrap()]).unwrap();
        assert!(out.contains("σ_sync(out) = 2"));
        assert!(out.contains("-("));
    }

    #[test]
    fn verilog_emission() {
        let p = write_temp("verilog", GRAPH);
        let out = run_args(&["verilog", p.to_str().unwrap(), "--name", "demo_ctl"]).unwrap();
        assert!(out.starts_with("module demo_ctl ("));
        assert!(out.contains("endmodule"));
        assert!(out.contains("done_"));
    }

    #[test]
    fn reduce_drops_redundant_edges() {
        let redundant = "
op a 1
op b 2
op c 1
dep a b
dep b c
dep a c
";
        let p = write_temp("reduce", redundant);
        let out = run_args(&["reduce", p.to_str().unwrap()]).unwrap();
        assert!(out.contains("# removed 1 of"));
        // Re-parse the emitted text: still a valid graph.
        let g = rsched_graph::ConstraintGraph::from_text(
            out.lines().skip(1).collect::<Vec<_>>().join("\n").as_str(),
        )
        .unwrap();
        assert!(g.is_polar());
    }

    #[test]
    fn vcd_flag_emits_vcd() {
        let p = write_temp("vcd", GRAPH);
        let out = run_args(&["simulate", p.to_str().unwrap(), "--vcd"]).unwrap();
        assert!(out.starts_with("$date"));
        assert!(out.contains("$enddefinitions $end"));
    }

    #[test]
    fn compile_vcd_emits_hierarchical_waveform() {
        let hc = "
process demo (req, ack)
    in port req;
    out port ack;
    boolean t;
{
    while (req) ;
    t = 1;
    write ack = t;
}
";
        let p = write_temp("hcvcd", hc);
        let out = run_args(&["compile", p.to_str().unwrap(), "--vcd", "--seed", "2"]).unwrap();
        assert!(out.contains("hierarchical"));
        assert!(out.contains("run_demo."));
        assert!(out.contains("$enddefinitions $end"));
    }

    #[test]
    fn usage_errors() {
        assert_eq!(run_args(&[]).unwrap_err().code, 2);
        assert_eq!(run_args(&["frobnicate", "x"]).unwrap_err().code, 2);
        assert_eq!(run_args(&["check"]).unwrap_err().code, 2);
        let err = run_args(&["check", "/nonexistent/path.rsg"]).unwrap_err();
        assert_eq!(err.code, 1);
    }

    #[test]
    fn help_lists_every_subcommand() {
        for invocation in ["help", "--help", "-h"] {
            let out = run_args(&[invocation]).unwrap();
            for cmd in [
                "check", "schedule", "slack", "optimize", "explain", "control", "fsm", "simulate",
                "reduce", "verilog", "dot", "compile", "serve", "fuzz", "help",
            ] {
                assert!(out.contains(cmd), "'{invocation}' output misses '{cmd}'");
            }
            for flag in [
                "--listen",
                "--stdio",
                "--snapshot-every",
                "--cache-capacity",
                "--max-sessions",
            ] {
                assert!(out.contains(flag), "'{invocation}' output misses '{flag}'");
            }
        }
    }

    #[test]
    fn unknown_command_error_includes_usage() {
        let err = run_args(&["frobnicate", "x"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("unknown command 'frobnicate'"));
        assert!(
            err.message.contains("rsched serve"),
            "usage must list serve"
        );
    }

    fn parse_serve(args: &[&str]) -> Result<ServeInvocation, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let flags: Vec<&String> = owned.iter().collect();
        parse_serve_config(&flags)
    }

    #[test]
    fn serve_flag_parsing() {
        let inv = parse_serve(&[]).unwrap();
        assert_eq!(inv.config.workers, 4);
        assert_eq!(inv.config.snapshot_every, 256);
        assert_eq!(inv.listen, None);
        let inv = parse_serve(&["--workers", "2"]).unwrap();
        assert_eq!(inv.config.workers, 2);
        assert_eq!(inv.config.deadline, None);
        let inv = parse_serve(&["--deadline-ms", "250"]).unwrap();
        assert_eq!(
            inv.config.deadline,
            Some(std::time::Duration::from_millis(250))
        );
        let inv = parse_serve(&[
            "--queue-depth",
            "8",
            "--max-ops",
            "64",
            "--max-edges",
            "256",
            "--journal-dir",
            "/tmp/wal",
            "--snapshot-every",
            "64",
            "--cache-capacity",
            "512",
            "--threads",
            "3",
        ])
        .unwrap();
        assert_eq!(inv.config.queue_depth, 8);
        assert_eq!(inv.config.max_ops, Some(64));
        assert_eq!(inv.config.max_edges, Some(256));
        assert_eq!(
            inv.config.journal_dir.as_deref(),
            Some(std::path::Path::new("/tmp/wal"))
        );
        assert_eq!(inv.config.snapshot_every, 64);
        assert_eq!(inv.config.cache_capacity, 512);
        assert_eq!(inv.config.threads, 3);
        // The cache defaults to off (capacity 0) and the batch pool to
        // auto-sizing (0 = host cores).
        assert_eq!(parse_serve(&[]).unwrap().config.cache_capacity, 0);
        assert_eq!(parse_serve(&[]).unwrap().config.threads, 0);
        assert_eq!(run_args(&["serve", "--threads", "x"]).unwrap_err().code, 2);
        // Bad values and stray flags are usage errors (exit code 2),
        // reported before any stdin read.
        assert_eq!(
            run_args(&["serve", "--workers", "nope"]).unwrap_err().code,
            2
        );
        assert_eq!(
            run_args(&["serve", "--deadline-ms", "x"]).unwrap_err().code,
            2
        );
        assert_eq!(
            run_args(&["serve", "--queue-depth", "0"]).unwrap_err().code,
            2
        );
        assert_eq!(run_args(&["serve", "--max-ops", "x"]).unwrap_err().code, 2);
        assert_eq!(run_args(&["serve", "--frob"]).unwrap_err().code, 2);
        assert_eq!(
            run_args(&["serve", "--snapshot-every", "x"])
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_args(&["serve", "--cache-capacity", "x"])
                .unwrap_err()
                .code,
            2
        );
    }

    #[test]
    fn serve_listen_flag_parsing() {
        let inv = parse_serve(&["--listen", "127.0.0.1:7070", "--max-sessions", "4"]).unwrap();
        assert_eq!(
            inv.listen,
            Some(rsched_net::Listen::Tcp("127.0.0.1:7070".parse().unwrap()))
        );
        assert_eq!(inv.max_sessions, Some(4));
        assert_eq!(inv.max_inflight, None);
        let inv = parse_serve(&["--listen", "/tmp/rsched.sock", "--max-inflight", "16"]).unwrap();
        assert_eq!(
            inv.listen,
            Some(rsched_net::Listen::Unix("/tmp/rsched.sock".into()))
        );
        assert_eq!(inv.max_inflight, Some(16));
        // `--stdio` is the explicit default transport.
        let inv = parse_serve(&["--stdio", "--workers", "2"]).unwrap();
        assert_eq!(inv.listen, None);
        assert_eq!(inv.config.workers, 2);

        // Malformed --listen surfaces the exact shape error.
        let err = parse_serve(&["--listen", "localhost:7070"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(
            err.message.contains(
                "--listen expects <ip:port> (e.g. 127.0.0.1:7070) or a unix socket path \
                 containing '/', got 'localhost:7070'"
            ),
            "{}",
            err.message
        );
        // The transports are mutually exclusive.
        let err = parse_serve(&["--listen", "127.0.0.1:0", "--stdio"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(
            err.message.contains("mutually exclusive"),
            "{}",
            err.message
        );
        // Quotas are per-connection, so they need a socket transport.
        for flag in ["--max-sessions", "--max-inflight"] {
            let err = parse_serve(&[flag, "3"]).unwrap_err();
            assert_eq!(err.code, 2);
            assert!(
                err.message.contains(&format!("{flag} requires --listen")),
                "{}",
                err.message
            );
            let err = parse_serve(&["--listen", "127.0.0.1:0", flag, "x"]).unwrap_err();
            assert_eq!(err.code, 2);
        }
    }

    #[test]
    fn serve_lifecycle_flag_parsing() {
        let inv = parse_serve(&[
            "--listen",
            "127.0.0.1:0",
            "--idle-timeout-ms",
            "30000",
            "--read-deadline-ms",
            "5000",
            "--drain-timeout-ms",
            "2000",
        ])
        .unwrap();
        assert_eq!(
            inv.idle_timeout,
            Some(std::time::Duration::from_millis(30000))
        );
        assert_eq!(
            inv.read_deadline,
            Some(std::time::Duration::from_millis(5000))
        );
        assert_eq!(
            inv.drain_timeout,
            Some(std::time::Duration::from_millis(2000))
        );
        // All three default to off.
        let inv = parse_serve(&["--listen", "127.0.0.1:0"]).unwrap();
        assert_eq!(inv.idle_timeout, None);
        assert_eq!(inv.read_deadline, None);
        assert_eq!(inv.drain_timeout, None);
        // Lifecycle settings are socket-only and must be numeric.
        for flag in [
            "--idle-timeout-ms",
            "--read-deadline-ms",
            "--drain-timeout-ms",
        ] {
            let err = parse_serve(&[flag, "100"]).unwrap_err();
            assert_eq!(err.code, 2);
            assert!(
                err.message.contains(&format!("{flag} requires --listen")),
                "{}",
                err.message
            );
            let err = parse_serve(&["--listen", "127.0.0.1:0", flag, "x"]).unwrap_err();
            assert_eq!(err.code, 2);
            assert!(
                err.message.contains("expects milliseconds"),
                "{}",
                err.message
            );
        }
    }

    #[test]
    fn fuzz_flag_parsing() {
        let args = [
            "--seed".to_string(),
            "9".to_string(),
            "--iters".to_string(),
            "17".to_string(),
            "--minimize".to_string(),
            "--repro-dir".to_string(),
            "/tmp/repros".to_string(),
        ];
        let flags: Vec<&String> = args.iter().collect();
        let cfg = parse_fuzz_config(&flags).unwrap();
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.iters, 17);
        assert!(cfg.minimize);
        assert_eq!(
            cfg.repro_dir.as_deref(),
            Some(std::path::Path::new("/tmp/repros"))
        );
        assert_eq!(run_args(&["fuzz", "--seed", "x"]).unwrap_err().code, 2);
        assert_eq!(run_args(&["fuzz", "--frob"]).unwrap_err().code, 2);
        // `--faults` is a bare flag: the parser must not eat an operand.
        let args = [
            "--faults".to_string(),
            "--seed".to_string(),
            "3".to_string(),
        ];
        let flags: Vec<&String> = args.iter().collect();
        assert_eq!(parse_fuzz_config(&flags).unwrap().seed, 3);
    }

    #[test]
    fn fuzz_smoke_run_is_clean() {
        let out = run_args(&["fuzz", "--seed", "5", "--iters", "8"]).unwrap();
        assert!(out.contains("zero oracle violations"), "{out}");
        assert!(out.contains("protocol contract held"), "{out}");
        assert!(
            out.contains("socket protocol and stdio parity held"),
            "{out}"
        );
        assert!(out.contains("cache transparency held"), "{out}");
        assert!(!out.contains("fault fuzz"), "{out}");
    }

    #[test]
    fn fuzz_cache_only_smoke_run_is_clean() {
        let out = run_args(&["fuzz", "--seed", "9", "--iters", "16", "--cache"]).unwrap();
        assert!(out.contains("cache fuzz (seed 9)"), "{out}");
        assert!(out.contains("cache transparency held"), "{out}");
        // Cache-only mode skips every other phase.
        assert!(!out.contains("graph fuzz"), "{out}");
        assert!(!out.contains("net fuzz"), "{out}");
    }

    #[test]
    fn fuzz_chaos_only_smoke_run_is_clean() {
        let out = run_args(&["fuzz", "--seed", "13", "--iters", "25", "--chaos"]).unwrap();
        assert!(out.contains("chaos fuzz (seed 13)"), "{out}");
        assert!(out.contains("server survived every fault"), "{out}");
        // Chaos-only mode skips every other phase.
        assert!(!out.contains("graph fuzz"), "{out}");
        assert!(!out.contains("net fuzz"), "{out}");
    }

    #[test]
    fn fuzz_faults_smoke_run_is_clean() {
        let out = run_args(&["fuzz", "--seed", "11", "--iters", "32", "--faults"]).unwrap();
        assert!(out.contains("fault fuzz"), "{out}");
        assert!(out.contains("fault-tolerance contract held"), "{out}");
    }

    #[test]
    fn optimize_serializes_fan_and_referees_rounds() {
        // Four concurrent 2-cycle ops: a unit budget forces serialization.
        let p = write_temp("optimize_fan", "op a 2\nop b 2\nop c 2\nop d 2\n");
        let out = run_args(&["optimize", p.to_str().unwrap(), "--budget", "1"]).unwrap();
        assert!(out.contains("accepted"), "{out}");
        assert!(out.contains("oracle: accepted state re-proven"), "{out}");
        assert!(out.contains("pressure 0"), "{out}");
        assert!(out.contains("converged"), "{out}");
        assert!(out.contains("pareto:"), "{out}");
        // A budget wide enough for the whole fan converges untouched.
        let out = run_args(&["optimize", p.to_str().unwrap(), "--budget", "4"]).unwrap();
        assert!(out.contains("0 accepted"), "{out}");
    }

    #[test]
    fn optimize_rejects_bad_flags() {
        let p = write_temp("optimize_flags", "op a 2\nop b 2\n");
        let path = p.to_str().unwrap();
        assert_eq!(
            run_args(&["optimize", path, "--budget", "0"])
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_args(&["optimize", path, "--style", "gray"])
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_args(&["optimize", path, "--max-rounds", "zero"])
                .unwrap_err()
                .code,
            2
        );
    }

    #[test]
    fn fuzz_optimize_smoke_run_is_clean() {
        let out = run_args(&["fuzz", "--seed", "11", "--iters", "24", "--optimize"]).unwrap();
        assert!(out.contains("optimize fuzz"), "{out}");
        assert!(out.contains("optimize contract held"), "{out}");
    }

    #[test]
    fn failures_bubble_with_messages() {
        let p = write_temp("bad", "op a 1\nop b 1\ndep a b\nmin a b 9\nmax a b 2\n");
        let err = run_args(&["schedule", p.to_str().unwrap()]).unwrap_err();
        assert!(err.message.contains("unfeasible"));
    }

    /// Verdicts and failures name the operations of the design, never
    /// internal vertex ids.
    #[test]
    fn unfeasible_verdicts_and_failures_name_operations() {
        let p = write_temp(
            "unfeasible_names",
            "op a 1\nop b 1\ndep a b\nmin a b 9\nmax a b 2\n",
        );
        let path = p.to_str().unwrap();
        let out = run_args(&["check", path]).unwrap();
        assert!(
            out.ends_with("\nUNFEASIBLE: positive cycle through b\n"),
            "{out}"
        );
        for cmd in ["schedule", "slack", "explain", "fsm", "simulate", "control"] {
            let err = run_args(&[cmd, path]).unwrap_err();
            assert_eq!(
                err.message, "unfeasible timing constraints: positive cycle through b",
                "{cmd}"
            );
        }
    }

    /// `fsm` refuses a design with an unbounded operation by naming it,
    /// and `dot` labels the weights out of anchors by operation name.
    #[test]
    fn fsm_and_dot_name_the_anchors() {
        let p = write_temp(
            "fsm_dot_names",
            "op a 3\nop b unbounded\nop c 2\ndep a b\ndep b c\nmin a c 4\n",
        );
        let path = p.to_str().unwrap();
        let err = run_args(&["fsm", path]).unwrap_err();
        assert_eq!(
            err.message,
            "schedule depends on unbounded anchors [b]; FSM control requires a fixed-delay design"
        );
        let dot = run_args(&["dot", path]).unwrap();
        assert!(dot.contains("  v3 -> v4 [label=\"δ(b)\"];\n"), "{dot}");
        assert!(dot.contains("  v0 -> v2 [label=\"δ(source)\"];\n"), "{dot}");
        assert!(!dot.contains("δ(v"), "{dot}");
    }

    #[test]
    fn explain_names_the_anchor_of_unbounded_weights() {
        let p = write_temp(
            "explain_names",
            "op a 3\nop b unbounded\nop c 2\ndep a b\ndep b c\nmin a c 4\n",
        );
        let out = run_args(&["explain", p.to_str().unwrap()]).unwrap();
        assert_eq!(
            out,
            "σ_source(sink) = 6: source -(δ(source))-> a -(4)-> c -(2)-> sink\n\
             σ_b(sink) = 2: b -(δ(b))-> c -(2)-> sink\n\
             σ_source(a) = 0: source -(δ(source))-> a\n\
             σ_source(b) = 3: source -(δ(source))-> a -(3)-> b\n\
             σ_source(c) = 4: source -(δ(source))-> a -(4)-> c\n\
             σ_b(c) = 0: b -(δ(b))-> c\n"
        );
    }
}
