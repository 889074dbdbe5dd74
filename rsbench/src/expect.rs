//! Expected responses, fixed during setup and refereed by the
//! first-principles oracle.
//!
//! Each request is executed once on an in-process `Router` with the
//! schedule cache off (so cached server answers are checked against cold
//! truth). Every answer is then refereed independently: a mirror
//! `Session` replays the script through the public session API, and the
//! state after each request is cold-scheduled and judged by
//! `rsched_oracle::check_result` — offsets must equal the oracle's
//! longest paths, rejections must be justified. Only answers that pass
//! become expectations; the client compares the server's bytes to them.

use std::collections::{BTreeMap, HashMap};

use rsched_core::{schedule, RelativeSchedule, ScheduleError, WellPosedness};
use rsched_engine::json::Json;
use rsched_engine::{EditOutcome, Router, ServeConfig, Session};
use rsched_graph::ConstraintGraph;

use crate::gen::{apply_edit, Req, Workload};

/// Rendered request frames (newline-terminated) and the expected
/// response line for each, per connection.
pub struct Expected {
    pub frames: Vec<Vec<String>>,
    pub responses: Vec<Vec<String>>,
    /// Verdict and outcome counts over one pass of every script.
    pub counts: BTreeMap<String, usize>,
    /// Distinct graph states the oracle judged.
    pub refereed: usize,
}

fn verdict_kind(verdict: Option<&Json>) -> &str {
    match verdict {
        Some(Json::Str(s)) => s,
        Some(v) => v.get("kind").and_then(Json::as_str).unwrap_or("?"),
        None => "?",
    }
}

fn posedness_kind(p: &WellPosedness) -> &'static str {
    match p {
        WellPosedness::WellPosed => "well-posed",
        WellPosedness::IllPosed { .. } => "ill-posed",
        WellPosedness::Unfeasible { .. } => "unfeasible",
    }
}

fn result_kind(r: &Result<RelativeSchedule, ScheduleError>) -> &'static str {
    match r {
        Ok(_) => "well-posed",
        Err(ScheduleError::IllPosed { .. }) => "ill-posed",
        Err(ScheduleError::Unfeasible { .. }) => "unfeasible",
        Err(_) => "error",
    }
}

fn outcome_kind(o: &EditOutcome) -> &'static str {
    match o {
        EditOutcome::Unchanged => "unchanged",
        EditOutcome::Rescheduled { .. } => "rescheduled",
        EditOutcome::IllPosed { .. } => "ill-posed",
        EditOutcome::Unfeasible { .. } => "unfeasible",
        EditOutcome::Rejected { .. } => "rejected",
    }
}

/// 64-bit FNV-1a.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checks a `schedule` response's anchors and offsets against `omega`
/// (an oracle-verified schedule of `graph`), row by row in vertex order.
pub fn check_offsets(
    resp: &Json,
    graph: &ConstraintGraph,
    omega: &RelativeSchedule,
) -> Result<(), String> {
    let name = |v| graph.vertex(v).name();
    let anchors: Vec<&str> = resp
        .get("anchors")
        .and_then(Json::as_array)
        .ok_or("schedule response has no anchors")?
        .iter()
        .map(|a| a.as_str().unwrap_or("?"))
        .collect();
    let want: Vec<&str> = omega.anchors().iter().map(|&a| name(a)).collect();
    if anchors != want {
        return Err(format!("anchors {anchors:?}, oracle {want:?}"));
    }
    let Some(Json::Object(rows)) = resp.get("offsets") else {
        return Err("schedule response has no offsets".to_owned());
    };
    if rows.len() != graph.n_vertices() {
        return Err(format!(
            "{} offset rows for {} vertices",
            rows.len(),
            graph.n_vertices()
        ));
    }
    for ((row_name, row), v) in rows.iter().zip(graph.vertex_ids()) {
        let Json::Object(cells) = row else {
            return Err(format!("offset row '{row_name}' is not an object"));
        };
        let want: Vec<(&str, i64)> = omega.offsets_of(v).map(|(a, o)| (name(a), o)).collect();
        let got: Vec<(&str, i64)> = cells
            .iter()
            .map(|(a, o)| (a.as_str(), o.as_i64().unwrap_or(i64::MIN)))
            .collect();
        if row_name != name(v) || got != want {
            return Err(format!(
                "offsets of '{row_name}': {got:?}, oracle-verified {want:?} for '{}'",
                name(v)
            ));
        }
    }
    Ok(())
}

/// Cold-schedules graph states and has the oracle judge each once.
#[derive(Default)]
struct Referee {
    judged: HashMap<u64, Result<(), String>>,
}

impl Referee {
    /// Cold result for `graph`, after the oracle accepted it (offsets
    /// minimal and valid, or the rejection justified).
    fn judge(
        &mut self,
        graph: &ConstraintGraph,
    ) -> Result<Result<RelativeSchedule, ScheduleError>, String> {
        let result = schedule(graph);
        let key = fnv(graph.to_text().as_bytes());
        let verdict = self.judged.entry(key).or_insert_with(|| {
            let report = rsched_oracle::check_result(graph, &result);
            match report.first_violation() {
                None => Ok(()),
                Some((check, witness)) => Err(format!("oracle {check}: {witness}")),
            }
        });
        verdict.clone().map(|()| result)
    }

    /// Referees one answered request against the mirror state.
    fn check(
        &mut self,
        req: &Req,
        resp: &Json,
        mirrors: &mut HashMap<String, Session>,
        counts: &mut BTreeMap<String, usize>,
    ) -> Result<(), String> {
        if resp.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("request answered with an error: {}", resp.render()));
        }
        let mut count = |key: String| *counts.entry(key).or_default() += 1;
        let verdict_matches = |session: &Session, resp: &Json| {
            let got = verdict_kind(resp.get("verdict"));
            let want = posedness_kind(session.posedness());
            if got == want {
                Ok(())
            } else {
                Err(format!("verdict '{got}', mirror session '{want}'"))
            }
        };
        match req {
            Req::Open { session, design } => {
                let graph = ConstraintGraph::from_text(design).map_err(|e| e.to_string())?;
                let mirror = Session::open(graph).map_err(|e| e.to_string())?;
                verdict_matches(&mirror, resp)?;
                let cold = self.judge(mirror.graph())?;
                if result_kind(&cold) != posedness_kind(mirror.posedness()) {
                    return Err("open verdict disagrees with the cold schedule".to_owned());
                }
                count(format!("verdict.{}", result_kind(&cold)));
                mirrors.insert(session.clone(), mirror);
            }
            Req::Edit { session, edit } => {
                let mirror = mirrors.get_mut(session).ok_or("edit of unknown session")?;
                let outcome = apply_edit(mirror, edit).ok_or("edit endpoints missing")?;
                let got = resp.get("outcome").and_then(Json::as_str).unwrap_or("?");
                if got != outcome_kind(&outcome) {
                    return Err(format!(
                        "outcome '{got}', mirror '{}'",
                        outcome_kind(&outcome)
                    ));
                }
                // Paper-scale states are all judged; larger ones only
                // have their verdict matched against the cold run.
                let cold = if mirror.graph().n_vertices() <= 64 {
                    self.judge(mirror.graph())?
                } else {
                    schedule(mirror.graph())
                };
                if result_kind(&cold) != posedness_kind(mirror.posedness()) {
                    return Err("edit verdict disagrees with the cold schedule".to_owned());
                }
                count(format!("outcome.{got}"));
            }
            Req::Schedule { session } => {
                let mirror = mirrors.get(session).ok_or("schedule of unknown session")?;
                verdict_matches(mirror, resp)?;
                let cold = self.judge(mirror.graph())?;
                if let Ok(omega) = &cold {
                    check_offsets(resp, mirror.graph(), omega)?;
                }
                count(format!("verdict.{}", result_kind(&cold)));
            }
            Req::Recover { session } => {
                let mirror = mirrors.get(session).ok_or("recover of unknown session")?;
                verdict_matches(mirror, resp)?;
                count(format!("verdict.{}", posedness_kind(mirror.posedness())));
            }
            Req::Close { session } => {
                mirrors.remove(session).ok_or("close of unknown session")?;
                if resp.get("closed") != Some(&Json::Bool(true)) {
                    return Err("close not confirmed".to_owned());
                }
            }
            Req::Batch { designs } => {
                let results = resp
                    .get("results")
                    .and_then(Json::as_array)
                    .ok_or("batch response has no results")?;
                if results.len() != designs.len() {
                    return Err("batch result count differs".to_owned());
                }
                for ((name, design), result) in designs.iter().zip(results) {
                    let mut graph =
                        ConstraintGraph::from_text(design).map_err(|e| e.to_string())?;
                    if !graph.is_polar() {
                        graph.polarize().map_err(|e| e.to_string())?;
                    }
                    let cold = self.judge(&graph)?;
                    let got = verdict_kind(result.get("verdict"));
                    if result.get("name").and_then(Json::as_str) != Some(name)
                        || got != result_kind(&cold)
                    {
                        return Err(format!(
                            "batch design '{name}': verdict '{got}', oracle '{}'",
                            result_kind(&cold)
                        ));
                    }
                    if let Ok(omega) = &cold {
                        let anchors: Vec<Json> = omega
                            .anchors()
                            .iter()
                            .map(|&a| Json::from(graph.vertex(a).name()))
                            .collect();
                        if result.get("iterations").and_then(Json::as_i64)
                            != Some(omega.iterations() as i64)
                            || result.get("anchors").and_then(Json::as_array) != Some(&anchors[..])
                        {
                            return Err(format!(
                                "batch design '{name}' disagrees with the oracle-verified schedule"
                            ));
                        }
                    }
                    count(format!("verdict.{}", result_kind(&cold)));
                }
            }
        }
        Ok(())
    }
}

/// Runs every script once in-process, referees each answer, and fixes
/// the expectations.
pub fn build(workload: &Workload) -> Result<Expected, String> {
    let config = ServeConfig {
        cache_capacity: 0,
        journal_dir: None,
        ..workload.spec.serve_config()
    };
    let router = Router::new(config.workers, &config);
    let mut referee = Referee::default();
    let mut counts = BTreeMap::new();
    let mut frames = Vec::new();
    let mut responses = Vec::new();
    for conn in &workload.conns {
        let mut mirrors = HashMap::new();
        let (mut f, mut r) = (Vec::new(), Vec::new());
        for (i, req) in conn.reqs.iter().enumerate() {
            let id = Json::Int(i as i64 + 1);
            let frame = req.to_json(i as i64 + 1).render();
            let request = Json::parse(&frame).map_err(|e| e.to_string())?;
            let slot = router.route(&id, &request).map_err(|e| e.render())?;
            let resp = router.execute(slot, id, &request);
            referee
                .check(req, &resp, &mut mirrors, &mut counts)
                .map_err(|e| format!("request {} ({}): {e}", i + 1, req.op().name()))?;
            f.push(frame + "\n");
            r.push(resp.render());
        }
        frames.push(f);
        responses.push(r);
    }
    Ok(Expected {
        frames,
        responses,
        counts,
        refereed: referee.judged.len(),
    })
}

/// Feeds the checker a schedule answer with one deliberately corrupted
/// offset; the checker must catch it (and pass the untouched answer).
pub fn self_test() -> Result<(), String> {
    let (graph, _, _) = rsched_designs::paper::fig10();
    let design = graph.to_text();
    let config = ServeConfig::default();
    let router = Router::new(1, &config);
    let open = Req::Open {
        session: "selftest".to_owned(),
        design,
    };
    let sched = Req::Schedule {
        session: "selftest".to_owned(),
    };
    let mut answers = Vec::new();
    for (i, req) in [&open, &sched].into_iter().enumerate() {
        let request = req.to_json(i as i64 + 1);
        answers.push(router.execute(0, Json::Int(i as i64 + 1), &request));
    }
    let mut referee = Referee::default();
    let mut mirrors = HashMap::new();
    let mut counts = BTreeMap::new();
    referee.check(&open, &answers[0], &mut mirrors, &mut counts)?;
    referee.check(&sched, &answers[1], &mut mirrors, &mut counts)?;
    let mut corrupted = answers[1].clone();
    if !corrupt_one_offset(&mut corrupted) {
        return Err("self-test answer carries no offset to corrupt".to_owned());
    }
    if corrupted.render() == answers[1].render() {
        return Err("self-test corruption left the bytes unchanged".to_owned());
    }
    match referee.check(&sched, &corrupted, &mut mirrors, &mut counts) {
        Err(_) => Ok(()),
        Ok(()) => Err("the checker accepted a corrupted offset".to_owned()),
    }
}

/// Adds one to the last offset of the last row; `false` when none exists.
fn corrupt_one_offset(resp: &mut Json) -> bool {
    let Json::Object(pairs) = resp else {
        return false;
    };
    let Some((_, Json::Object(rows))) = pairs.iter_mut().find(|(k, _)| k == "offsets") else {
        return false;
    };
    for (_, row) in rows.iter_mut().rev() {
        if let Json::Object(cells) = row {
            if let Some((_, Json::Int(o))) = cells.last_mut() {
                *o += 1;
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Spec, Workload};

    #[test]
    fn corrupted_offset_is_caught() {
        self_test().expect("checker catches a corrupted offset");
    }

    #[test]
    fn same_seed_gives_identical_verdict_and_outcome_counts() {
        let spec = Spec::by_name("paper_edits").unwrap();
        let a = build(&Workload::generate(spec, 42)).expect("paper_edits referees");
        let b = build(&Workload::generate(spec, 42)).expect("paper_edits referees");
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.responses, b.responses);
        for kind in [
            "outcome.rescheduled",
            "outcome.ill-posed",
            "outcome.unfeasible",
        ] {
            assert!(
                a.counts.get(kind).copied().unwrap_or(0) > 0,
                "{kind} in {:?}",
                a.counts
            );
        }
    }
}
