//! Fault-injection fuzzing of the JSON-lines scheduling service.
//!
//! [`fuzz_faults`] drives `rsched serve` the way `serve_fuzz` does — a
//! seeded script of opens and edits across several sessions — but arms
//! deterministic failpoints (`rsched_graph::failpoint`) while the script
//! runs: panics inside request handlers (`serve::handle`), deep inside
//! the engine (`session::reschedule`) and the kernel (`kernel::build`),
//! outright worker-thread kills (`serve::worker_kill`), injected in-band
//! errors (`serve::handle` only: the other sites discard what their
//! failpoint returns), and stalls. The harness then asserts the
//! fault-tolerance contract of the service:
//!
//! - `serve` returns `Ok` — injected faults never abort the service,
//! - every non-blank input line gets exactly one response line, with the
//!   id multiset preserved (no dropped or duplicated answers),
//! - every `"ok":false` response carries a string `"error"`,
//! - after the script, each surviving session is put through a
//!   `recover` / `schedule` / `stats` tail, and the recovered state is
//!   compared **bit-for-bit** against a mirror session rebuilt from the
//!   accepted edits alone (exactly what the journal holds): same edit
//!   outcomes, same anchors, same offsets, and `journal_len` equal to
//!   the mirror's accepted-edit count,
//! - recovered well-posed schedules are refereed by the first-principles
//!   oracle ([`crate::verify`]).
//!
//! Faults are scoped: each round enters a fresh failpoint scope token
//! carried by the service's worker pool, so concurrent tests in the same
//! process are never hit by this harness's faults.

use std::fmt;
use std::io::Cursor;
use std::path::PathBuf;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rsched_graph::failpoint::{self, FailAction, FailGuard};
use rsched_graph::{ConstraintGraph, ExecDelay};

use rsched_engine::json::Json;
use rsched_engine::{serve, EditOutcome, ServeConfig, Session};

use crate::fuzz::GraphMutator;

/// Tuning knobs for [`fuzz_faults`].
#[derive(Debug, Clone)]
pub struct FaultFuzzConfig {
    /// PRNG seed; the run is a pure function of `(seed, rounds)` up to OS
    /// thread scheduling (which the contract is robust against).
    pub seed: u64,
    /// Independent service runs, each with its own fault schedule.
    pub rounds: usize,
    /// Directory for failing-script repro files; `None` = don't write.
    pub repro_dir: Option<PathBuf>,
}

impl Default for FaultFuzzConfig {
    fn default() -> Self {
        FaultFuzzConfig {
            seed: 0,
            rounds: 50,
            repro_dir: None,
        }
    }
}

/// Outcome of a [`fuzz_faults`] run.
#[derive(Debug, Clone, Default)]
pub struct FaultFuzzReport {
    /// Rounds executed.
    pub rounds: usize,
    /// Request lines sent across all rounds.
    pub frames: usize,
    /// Response lines received across all rounds.
    pub responses: usize,
    /// Request-handler panics the service isolated (per its summaries).
    pub panics_isolated: usize,
    /// Worker threads the service respawned.
    pub workers_respawned: usize,
    /// Successful journal-replay recoveries.
    pub recoveries: usize,
    /// Sessions whose recovered state was verified against the mirror.
    pub sessions_verified: usize,
    /// Sessions skipped because a fault landed on their open or on the
    /// verification tail itself (coverage, not failure).
    pub sessions_skipped: usize,
    /// Contract violations, in discovery order.
    pub failures: Vec<String>,
}

impl FaultFuzzReport {
    /// `true` when every round honoured the fault-tolerance contract.
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for FaultFuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} fault round(s), {} frame(s), {} response(s)",
            self.rounds, self.frames, self.responses
        )?;
        writeln!(
            f,
            "{} panic(s) isolated, {} worker(s) respawned, {} recovery(ies)",
            self.panics_isolated, self.workers_respawned, self.recoveries
        )?;
        writeln!(
            f,
            "{} session(s) verified bit-identical after replay, {} skipped (fault on tail)",
            self.sessions_verified, self.sessions_skipped
        )?;
        if self.failures.is_empty() {
            writeln!(f, "fault-tolerance contract held on every round")?;
        } else {
            writeln!(f, "{} FAILURE(S):", self.failures.len())?;
            for fail in &self.failures {
                writeln!(f, "  {}", fail.lines().next().unwrap_or_default())?;
            }
        }
        Ok(())
    }
}

/// One generated session: its design, the graph it parses to, and the
/// edit frames sent against it (ids resolve responses later).
struct ScriptSession {
    name: String,
    open_id: i64,
    design: String,
    graph: ConstraintGraph,
    edit_frames: Vec<(i64, Json)>,
    recover_id: i64,
    schedule_id: i64,
    stats_id: i64,
}

/// Human-readable description of one armed failpoint, for repro files.
struct ArmedFault {
    site: &'static str,
    action: String,
    skip: u64,
    count: u64,
    guard: FailGuard,
}

/// Runs the fault-injection harness; see the module docs for the
/// contract it checks.
pub fn fuzz_faults(config: &FaultFuzzConfig) -> FaultFuzzReport {
    silence_failpoint_panics();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut designs = GraphMutator::new(config.seed.wrapping_add(0xFA17));
    let mut report = FaultFuzzReport::default();
    for round in 0..config.rounds {
        report.rounds += 1;
        // A fresh scope token per round: only this round's service
        // workers see this round's faults.
        let scope = 0xFA00_0000u64 ^ config.seed.rotate_left(17) ^ round as u64;
        let (script, sessions) = generate_script(&mut rng, &mut designs);
        let faults = arm_faults(&mut rng, scope, script.lines().count());
        let serve_config = ServeConfig {
            workers: rng.gen_range(1usize..=2),
            fault_scope: Some(scope),
            ..ServeConfig::default()
        };
        let n_lines = script.lines().filter(|l| !l.trim().is_empty()).count();
        report.frames += n_lines;
        let mut output: Vec<u8> = Vec::new();
        let summary = match serve(
            Cursor::new(script.clone().into_bytes()),
            &mut output,
            &serve_config,
        ) {
            Ok(s) => s,
            Err(e) => {
                report
                    .failures
                    .push(format!("round {round}: serve aborted under faults: {e}"));
                write_repro(config, round, &script, &faults, "serve aborted");
                continue;
            }
        };
        drop(faults.into_iter().map(|f| f.guard).collect::<Vec<_>>());
        report.panics_isolated += summary.panics;
        report.workers_respawned += summary.workers_respawned;
        report.recoveries += summary.recoveries;

        let text = String::from_utf8_lossy(&output).into_owned();
        let responses: Vec<Json> = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .filter_map(|l| Json::parse(l).ok())
            .collect();
        let mut round_failures: Vec<String> = Vec::new();
        report.responses += responses.len();
        if responses.len() != n_lines {
            round_failures.push(format!(
                "round {round}: {n_lines} line(s) sent, {} answered",
                responses.len()
            ));
        }
        if summary.requests != n_lines {
            round_failures.push(format!(
                "round {round}: summary counted {} of {n_lines} request(s)",
                summary.requests
            ));
        }
        let mut expected: Vec<String> = script
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                Json::parse(l)
                    .ok()
                    .and_then(|v| v.get("id").cloned())
                    .unwrap_or(Json::Null)
                    .render()
            })
            .collect();
        let mut echoed: Vec<String> = responses
            .iter()
            .map(|r| r.get("id").cloned().unwrap_or(Json::Null).render())
            .collect();
        expected.sort();
        echoed.sort();
        if expected != echoed {
            round_failures.push(format!(
                "round {round}: response id multiset diverges from requests"
            ));
        }
        for r in &responses {
            if r.get("ok").and_then(Json::as_bool) == Some(false)
                && r.get("error").and_then(Json::as_str).is_none()
            {
                round_failures.push(format!(
                    "round {round}: \"ok\":false response without a string error: {}",
                    r.render()
                ));
            }
        }
        for session in &sessions {
            match verify_session(round, session, &responses, &mut report) {
                Ok(()) => {}
                Err(detail) => round_failures.push(detail),
            }
        }
        if !round_failures.is_empty() {
            write_repro(config, round, &script, &[], &round_failures.join("\n"));
            report.failures.extend(round_failures);
        }
        if report.failures.len() >= 5 {
            break;
        }
    }
    report
}

/// Builds one round's script: a few sessions, each opened and edited,
/// then a recover/schedule/stats verification tail per session.
fn generate_script(rng: &mut StdRng, designs: &mut GraphMutator) -> (String, Vec<ScriptSession>) {
    let n_sessions = rng.gen_range(1usize..=3);
    let mut next_id = 0i64;
    let mut id = || {
        next_id += 1;
        next_id
    };
    let mut sessions: Vec<ScriptSession> = Vec::new();
    for s in 0..n_sessions {
        let graph = designs.grow(rng.gen_range(3usize..=7));
        sessions.push(ScriptSession {
            name: format!("s{s}"),
            open_id: id(),
            design: graph.to_text(),
            graph,
            edit_frames: Vec::new(),
            recover_id: 0,
            schedule_id: 0,
            stats_id: 0,
        });
    }
    for _ in 0..rng.gen_range(4usize..=12) {
        let s = rng.gen_range(0..sessions.len());
        let n_ops = sessions[s].graph.operation_ids().count();
        let frame_id = id();
        let frame = random_edit_frame(rng, frame_id, &sessions[s].name, n_ops);
        sessions[s].edit_frames.push((frame_id, frame));
    }
    for session in &mut sessions {
        session.recover_id = id();
        session.schedule_id = id();
        session.stats_id = id();
    }
    let mut script = String::new();
    for session in &sessions {
        script.push_str(
            &obj([
                ("id", Json::Int(session.open_id)),
                ("op", Json::from("open")),
                ("session", Json::Str(session.name.clone())),
                ("design", Json::Str(session.design.clone())),
            ])
            .render(),
        );
        script.push('\n');
    }
    // Interleave edits across sessions in generation order (ids are
    // globally increasing, per-session order preserved by worker pinning).
    let mut cursors: Vec<usize> = vec![0; sessions.len()];
    let mut frames: Vec<(i64, &Json)> = Vec::new();
    for (s, session) in sessions.iter().enumerate() {
        for (frame_id, frame) in &session.edit_frames {
            frames.push((*frame_id, frame));
            cursors[s] += 1;
        }
    }
    frames.sort_by_key(|(frame_id, _)| *frame_id);
    for (_, frame) in frames {
        script.push_str(&frame.render());
        script.push('\n');
    }
    for session in &sessions {
        for (op, op_id) in [
            ("recover", session.recover_id),
            ("schedule", session.schedule_id),
            ("stats", session.stats_id),
        ] {
            script.push_str(
                &obj([
                    ("id", Json::Int(op_id)),
                    ("op", Json::from(op)),
                    ("session", Json::Str(session.name.clone())),
                ])
                .render(),
            );
            script.push('\n');
        }
    }
    (script, sessions)
}

/// One valid-by-name edit frame: operation names exist in the design
/// (`op0..op{n-1}`), so rejections come from semantics (duplicate edges,
/// missing edges), not typos — keeping the journal/mirror comparison rich.
fn random_edit_frame(rng: &mut StdRng, id: i64, session: &str, n_ops: usize) -> Json {
    let op_name = |rng: &mut StdRng| format!("op{}", rng.gen_range(0..n_ops.max(1)));
    let mut pairs = vec![
        ("id", Json::Int(id)),
        ("op", Json::from("edit")),
        ("session", Json::Str(session.to_owned())),
    ];
    match rng.gen_range(0u8..6) {
        0 => {
            pairs.push(("kind", Json::from("add_dep")));
            pairs.push(("from", Json::Str(op_name(rng))));
            pairs.push(("to", Json::Str(op_name(rng))));
        }
        1 => {
            pairs.push(("kind", Json::from("add_min")));
            pairs.push(("from", Json::Str(op_name(rng))));
            pairs.push(("to", Json::Str(op_name(rng))));
            pairs.push(("value", Json::Int(rng.gen_range(0i64..5))));
        }
        2 | 3 => {
            pairs.push(("kind", Json::from("add_max")));
            pairs.push(("from", Json::Str(op_name(rng))));
            pairs.push(("to", Json::Str(op_name(rng))));
            pairs.push(("value", Json::Int(rng.gen_range(0i64..12))));
        }
        4 => {
            pairs.push(("kind", Json::from("remove_edge")));
            pairs.push(("from", Json::Str(op_name(rng))));
            pairs.push(("to", Json::Str(op_name(rng))));
        }
        _ => {
            pairs.push(("kind", Json::from("set_delay")));
            pairs.push(("vertex", Json::Str(op_name(rng))));
            if rng.gen_bool(0.25) {
                pairs.push(("delay", Json::from("unbounded")));
            } else {
                pairs.push(("delay", Json::Int(rng.gen_range(0i64..5))));
            }
        }
    }
    obj(pairs)
}

/// Arms this round's fault schedule. Counts are finite so the
/// verification tail usually runs fault-free; skips spread fires across
/// the script.
fn arm_faults(rng: &mut StdRng, scope: u64, n_lines: usize) -> Vec<ArmedFault> {
    let mut faults = Vec::new();
    for _ in 0..rng.gen_range(1usize..=3) {
        let site = [
            "serve::handle",
            "session::reschedule",
            "kernel::build",
            "serve::worker_kill",
        ][rng.gen_range(0usize..4)];
        // Only `serve::handle` answers an armed `Error` in-band;
        // `session::reschedule` and `kernel::build` discard what their
        // failpoint returns, so they draw `Panic` or `Delay` alone.
        let action = if site == "serve::worker_kill" {
            FailAction::Panic
        } else {
            let draws = if site == "serve::handle" { 10 } else { 7 };
            match rng.gen_range(0u8..draws) {
                0..=4 => FailAction::Panic,
                5 | 6 => FailAction::Delay(Duration::from_millis(rng.gen_range(1u64..=8))),
                _ => FailAction::Error(format!("f{}", rng.gen_range(0u32..100))),
            }
        };
        let skip = rng.gen_range(0u64..n_lines.max(1) as u64);
        let count = rng.gen_range(1u64..=2);
        faults.push(ArmedFault {
            site,
            action: format!("{action:?}"),
            skip,
            count,
            guard: failpoint::arm(site, Some(scope), action, skip, Some(count)),
        });
    }
    faults
}

/// Rebuilds the session from its accepted edits (what the journal holds)
/// and checks the service's post-recover tail against it.
fn verify_session(
    round: usize,
    session: &ScriptSession,
    responses: &[Json],
    report: &mut FaultFuzzReport,
) -> Result<(), String> {
    let ctx = |what: &str| format!("round {round} session '{}': {what}", session.name);
    let by_id = |id: i64| {
        responses
            .iter()
            .find(|r| r.get("id").and_then(Json::as_i64) == Some(id))
    };
    let Some(open) = by_id(session.open_id) else {
        return Err(ctx("open frame unanswered"));
    };
    if open.get("ok").and_then(Json::as_bool) != Some(true) {
        // A fault landed on the open: the session never existed, every
        // later frame answers unknown-session. Coverage, not a failure.
        report.sessions_skipped += 1;
        return Ok(());
    }
    let mut mirror = Session::open(session.graph.clone())
        .map_err(|e| ctx(&format!("mirror open failed but service opened: {e}")))?;
    let mut accepted = 0usize;
    for (frame_id, frame) in &session.edit_frames {
        let Some(response) = by_id(*frame_id) else {
            return Err(ctx(&format!("edit {frame_id} unanswered")));
        };
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            continue; // rejected, faulted, or quarantined: not journaled
        }
        let service_outcome = response
            .get("outcome")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned();
        if service_outcome == "unchanged" {
            continue; // no-ops are not journaled either
        }
        let mirror_outcome = apply_mirror_edit(&mut mirror, frame).map_err(|e| {
            ctx(&format!(
                "mirror rejected edit {frame_id} the service accepted: {e}"
            ))
        })?;
        if outcome_kind(&mirror_outcome) != service_outcome {
            return Err(ctx(&format!(
                "edit {frame_id}: service said '{service_outcome}', replay says '{}'",
                outcome_kind(&mirror_outcome)
            )));
        }
        accepted += 1;
    }
    let Some(recover) = by_id(session.recover_id) else {
        return Err(ctx("recover frame unanswered"));
    };
    if recover.get("ok").and_then(Json::as_bool) != Some(true) {
        let error = recover.get("error").and_then(Json::as_str).unwrap_or("");
        if error.starts_with("recover failed:") {
            // Replay of the service's own journal must never fail.
            return Err(ctx(&format!("journal replay broke: {error}")));
        }
        report.sessions_skipped += 1; // a fault landed on the tail itself
        return Ok(());
    }
    if recover.get("edits_replayed").and_then(Json::as_i64) != Some(accepted as i64) {
        return Err(ctx(&format!(
            "journal holds {:?} edits, mirror accepted {accepted}",
            recover.get("edits_replayed")
        )));
    }
    let Some(sched) = by_id(session.schedule_id) else {
        return Err(ctx("schedule frame unanswered"));
    };
    if sched.get("ok").and_then(Json::as_bool) != Some(true) {
        report.sessions_skipped += 1;
        return Ok(());
    }
    if let Some(detail) = schedule_divergence(&mirror, sched) {
        return Err(ctx(&detail));
    }
    // Oracle referee on recovered well-posed schedules: the offsets the
    // service now reports must satisfy every theorem, not just match.
    if mirror.posedness().is_well_posed() {
        if let Some(omega) = mirror.schedule() {
            if let Some((label, witness)) = crate::verify(mirror.graph(), omega).first_violation() {
                return Err(ctx(&format!(
                    "oracle violation after recovery: {label}: {witness}"
                )));
            }
        }
    }
    let Some(stats) = by_id(session.stats_id) else {
        return Err(ctx("stats frame unanswered"));
    };
    if stats.get("ok").and_then(Json::as_bool) == Some(true) {
        if stats.get("journal_len").and_then(Json::as_i64) != Some(accepted as i64) {
            return Err(ctx(&format!(
                "stats journal_len {:?} != {accepted} accepted edits",
                stats.get("journal_len")
            )));
        }
        if stats.get("recoveries").and_then(Json::as_i64) < Some(1) {
            return Err(ctx("stats shows no recovery after a successful recover"));
        }
    }
    report.sessions_verified += 1;
    Ok(())
}

/// Applies one edit frame to the mirror session by operation name,
/// mimicking the service's resolution rules exactly.
fn apply_mirror_edit(mirror: &mut Session, frame: &Json) -> Result<EditOutcome, String> {
    let name = |key: &str| -> Result<String, String> {
        frame
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("frame missing \"{key}\""))
    };
    let vertex = |mirror: &Session, key: &str| -> Result<rsched_graph::VertexId, String> {
        let n = name(key)?;
        mirror
            .vertex_named(&n)
            .ok_or_else(|| format!("no operation named '{n}'"))
    };
    let value = || {
        frame
            .get("value")
            .and_then(Json::as_i64)
            .and_then(|v| u64::try_from(v).ok())
            .ok_or_else(|| "missing \"value\"".to_owned())
    };
    match frame.get("kind").and_then(Json::as_str).unwrap_or("") {
        "add_dep" => {
            let (f, t) = (vertex(mirror, "from")?, vertex(mirror, "to")?);
            Ok(mirror.add_dependency(f, t))
        }
        "add_min" => {
            let (f, t) = (vertex(mirror, "from")?, vertex(mirror, "to")?);
            Ok(mirror.add_min_constraint(f, t, value()?))
        }
        "add_max" => {
            let (f, t) = (vertex(mirror, "from")?, vertex(mirror, "to")?);
            Ok(mirror.add_max_constraint(f, t, value()?))
        }
        "remove_edge" => {
            let (f, t) = (vertex(mirror, "from")?, vertex(mirror, "to")?);
            let e = mirror
                .edge_between(f, t)
                .ok_or_else(|| "no live edge".to_owned())?;
            Ok(mirror.remove_edge(e))
        }
        "set_delay" => {
            let v = vertex(mirror, "vertex")?;
            let delay = match frame.get("delay") {
                Some(Json::Str(s)) if s == "unbounded" => ExecDelay::Unbounded,
                Some(d) => ExecDelay::Fixed(
                    d.as_i64()
                        .and_then(|v| u64::try_from(v).ok())
                        .ok_or_else(|| "bad \"delay\"".to_owned())?,
                ),
                None => return Err("missing \"delay\"".to_owned()),
            };
            Ok(mirror.set_delay(v, delay))
        }
        other => Err(format!("unknown kind '{other}'")),
    }
}

fn outcome_kind(outcome: &EditOutcome) -> &'static str {
    match outcome {
        EditOutcome::Unchanged => "unchanged",
        EditOutcome::Rescheduled { .. } => "rescheduled",
        EditOutcome::IllPosed { .. } => "ill-posed",
        EditOutcome::Unfeasible { .. } => "unfeasible",
        EditOutcome::Rejected { .. } => "rejected",
    }
}

/// Compares the service's post-recover `schedule` response against the
/// mirror session: verdict kind, anchor roster, and every offset.
fn schedule_divergence(mirror: &Session, sched: &Json) -> Option<String> {
    use rsched_core::WellPosedness;
    let mirror_verdict = match mirror.posedness() {
        WellPosedness::WellPosed => "well-posed".to_owned(),
        WellPosedness::IllPosed { .. } => "ill-posed".to_owned(),
        WellPosedness::Unfeasible { .. } => "unfeasible".to_owned(),
    };
    let service_verdict = match sched.get("verdict") {
        Some(Json::Str(s)) => s.clone(),
        Some(v) => v
            .get("kind")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned(),
        None => "?".to_owned(),
    };
    if mirror_verdict != service_verdict {
        return Some(format!(
            "recovered verdict '{service_verdict}' != replay verdict '{mirror_verdict}'"
        ));
    }
    let Some(omega) = mirror.schedule() else {
        return sched
            .get("offsets")
            .map(|_| "service reports offsets, replay has no schedule".to_owned());
    };
    let graph = mirror.graph();
    let expected_anchors = Json::Array(
        omega
            .anchors()
            .iter()
            .map(|&a| Json::from(graph.vertex(a).name()))
            .collect(),
    );
    if sched.get("anchors") != Some(&expected_anchors) {
        return Some(format!(
            "recovered anchors {:?} != replay anchors {}",
            sched.get("anchors").map(Json::render),
            expected_anchors.render()
        ));
    }
    let expected_offsets = Json::Object(
        graph
            .vertex_ids()
            .map(|v| {
                let row = Json::Object(
                    omega
                        .offsets_of(v)
                        .map(|(a, o)| (graph.vertex(a).name().to_owned(), Json::Int(o)))
                        .collect(),
                );
                (graph.vertex(v).name().to_owned(), row)
            })
            .collect(),
    );
    if sched.get("offsets") != Some(&expected_offsets) {
        return Some("recovered offsets diverge from journal replay".to_owned());
    }
    None
}

fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Writes one failing round as a replayable script plus fault schedule;
/// IO errors are swallowed (fuzzing must not die on a full disk).
fn write_repro(
    config: &FaultFuzzConfig,
    round: usize,
    script: &str,
    faults: &[ArmedFault],
    detail: &str,
) {
    let Some(dir) = &config.repro_dir else { return };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut text = String::new();
    for line in detail.lines() {
        text.push_str(&format!("# {line}\n"));
    }
    text.push_str(&format!("# seed {} round {round}\n", config.seed));
    for f in faults {
        text.push_str(&format!(
            "# fault site={} action={} skip={} count={}\n",
            f.site, f.action, f.skip, f.count
        ));
    }
    text.push_str(script);
    let path = dir.join(format!("fault_seed{}_round{round}.jsonl", config.seed));
    let _ = std::fs::write(path, text);
}

/// Injected failpoint panics are expected by the thousand; forward every
/// *other* panic to the previous hook so organic bugs still print.
fn silence_failpoint_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|m| m.contains("failpoint '"));
            if !injected {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_fuzz_smoke_run_is_clean() {
        let report = fuzz_faults(&FaultFuzzConfig {
            seed: 7,
            rounds: 12,
            repro_dir: None,
        });
        assert!(report.is_ok(), "fault fuzz failures:\n{report}");
        assert_eq!(report.frames, report.responses, "every line answered");
        assert!(
            report.sessions_verified > 0,
            "at least one session must survive to verification: {report}"
        );
        assert!(
            report.panics_isolated + report.workers_respawned > 0,
            "the schedule should inject at least one panic across 12 rounds: {report}"
        );
    }

    /// An armed `Error` only acts where the site returns it to a caller
    /// that surfaces it; anywhere else it would be listed in repro files
    /// while doing nothing.
    #[test]
    fn no_seed_arms_an_error_where_it_is_discarded() {
        let mut surfaced = 0;
        for seed in 0..500u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // A scope no thread enters: the guards arm nothing that fires.
            for fault in arm_faults(&mut rng, u64::MAX - seed, 40) {
                if !fault.action.starts_with("Error") {
                    continue;
                }
                assert_eq!(
                    fault.site, "serve::handle",
                    "seed {seed} armed {} at a site that discards it",
                    fault.action
                );
                surfaced += 1;
            }
        }
        assert!(surfaced > 0, "errors are still drawn where they surface");
    }
}
