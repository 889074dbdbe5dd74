//! Deterministic structured fuzzing of the scheduling stack.
//!
//! [`GraphMutator`] grows random constraint graphs — both well-posed ones
//! (max constraints placed along dependency chains, like real designs)
//! and deliberately hostile ones (max constraints between arbitrary
//! operations, which may be ill-posed or unfeasible) — and emits random
//! edit scripts against them. The [`fuzz`] driver replays every graph and
//! every intermediate edit state through all three scheduler
//! implementations:
//!
//! - cold [`rsched_core::schedule`] (the packed-row fixpoint on the CSR
//!   kernel),
//! - [`rsched_core::schedule_reference`], the adjacency-walking reference
//!   fixpoint, which must be bit-identical to the cold run,
//! - a warm incremental [`rsched_engine::Session`] carried across the
//!   edit script, whose verdicts and offsets must match the cold run,
//!
//! and judges each state with the first-principles oracle
//! ([`crate::check_result`]). Failures are shrunk to a minimal graph by
//! greedy edge deletion and written as replayable `.sched` files (the
//! graph text format plus `#` header comments), so
//! `rsched check repro.sched` reproduces the offending design directly.
//!
//! Everything is seeded: the same `(seed, iters)` pair walks the same
//! graphs, edits and verdicts on every run.

use std::fmt;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rsched_core::{schedule, schedule_reference, RelativeSchedule, ScheduleError, WellPosedness};
use rsched_engine::Session;
use rsched_graph::{ConstraintGraph, EdgeId, ExecDelay, VertexId};

use crate::check_result;

/// Tuning knobs for [`fuzz`].
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// PRNG seed; the whole run is a pure function of `(seed, iters)`.
    pub seed: u64,
    /// Number of fuzz cases (one random graph plus its edit script each).
    pub iters: usize,
    /// Shrink failing graphs by greedy edge deletion before reporting.
    pub minimize: bool,
    /// Where to write `.sched` repro files for failures; `None` keeps
    /// failures in-memory only.
    pub repro_dir: Option<PathBuf>,
    /// Largest number of operations a generated graph may have.
    pub max_ops: usize,
    /// Largest number of edits replayed against each graph.
    pub max_edits: usize,
    /// Stop after this many failures (the stream rarely produces
    /// independent ones).
    pub max_failures: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            iters: 100,
            minimize: true,
            repro_dir: None,
            max_ops: 12,
            max_edits: 6,
            max_failures: 5,
        }
    }
}

/// One divergence or oracle violation found while fuzzing.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Fuzz case (graph) index.
    pub case: usize,
    /// Edit step within the case; 0 is the freshly grown graph.
    pub step: usize,
    /// Which comparison failed (`oracle`, `reference`, `session`, …).
    pub phase: String,
    /// Rendered explanation (oracle witness or differential diff).
    pub detail: String,
    /// The offending graph, shrunk if minimization is on, in the text
    /// interchange format.
    pub graph_text: String,
    /// Where the `.sched` repro was written, when a directory was given.
    pub repro_path: Option<PathBuf>,
}

/// Outcome of a [`fuzz`] run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: usize,
    /// States (graph revisions) fed to the oracle.
    pub states_checked: usize,
    /// Edits applied across all cases.
    pub edits_applied: usize,
    /// States whose cold schedule succeeded.
    pub well_posed: usize,
    /// States rejected as ill-posed.
    pub ill_posed: usize,
    /// States rejected as unfeasible.
    pub unfeasible: usize,
    /// Every failure found, in discovery order.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// `true` when the run found no violations.
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} case(s), {} state(s) checked, {} edit(s) applied",
            self.cases, self.states_checked, self.edits_applied
        )?;
        writeln!(
            f,
            "verdicts: {} well-posed, {} ill-posed, {} unfeasible",
            self.well_posed, self.ill_posed, self.unfeasible
        )?;
        if self.failures.is_empty() {
            writeln!(f, "zero oracle violations, zero differential divergences")?;
        } else {
            writeln!(f, "{} FAILURE(S):", self.failures.len())?;
            for fail in &self.failures {
                writeln!(
                    f,
                    "  case {} step {} [{}]: {}",
                    fail.case,
                    fail.step,
                    fail.phase,
                    fail.detail.lines().next().unwrap_or_default()
                )?;
                if let Some(p) = &fail.repro_path {
                    writeln!(f, "    repro: {}", p.display())?;
                }
            }
        }
        Ok(())
    }
}

/// One random edit against a live graph, with concrete ids resolved at
/// generation time.
#[derive(Debug, Clone)]
pub enum Edit {
    /// `add_dependency(from, to)`.
    AddDep(VertexId, VertexId),
    /// `add_min_constraint(from, to, l)`.
    AddMin(VertexId, VertexId, u64),
    /// `add_max_constraint(from, to, u)`.
    AddMax(VertexId, VertexId, u64),
    /// `remove_edge(e)`.
    RemoveEdge(EdgeId),
    /// `set_delay(v, delay)`.
    SetDelay(VertexId, ExecDelay),
}

/// Seeded generator of random constraint graphs and edit scripts.
///
/// The mutation grammar (documented in DESIGN.md §10) grows polar graphs
/// with a mix of bounded and unbounded delays, forward dependencies and
/// minimum constraints between index-ordered pairs, and two flavours of
/// maximum constraint: *chained* (between dependency-connected vertices,
/// well-posed by construction) and *wild* (arbitrary pairs, deliberately
/// risking ill-posedness and unfeasibility).
#[derive(Debug)]
pub struct GraphMutator {
    rng: StdRng,
}

impl GraphMutator {
    /// A mutator walking the deterministic stream of `seed`.
    pub fn new(seed: u64) -> Self {
        GraphMutator {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn delay(&mut self) -> ExecDelay {
        if self.rng.gen_bool(0.2) {
            ExecDelay::Unbounded
        } else {
            ExecDelay::Fixed(self.rng.gen_range(0u64..5))
        }
    }

    /// Grows one random polar graph of up to `max_ops` operations.
    pub fn grow(&mut self, max_ops: usize) -> ConstraintGraph {
        let n = self.rng.gen_range(2usize..=max_ops.max(2));
        let mut g = ConstraintGraph::new();
        let ops: Vec<VertexId> = (0..n)
            .map(|i| {
                let delay = self.delay();
                g.add_operation(format!("op{i}"), delay)
            })
            .collect();
        // Forward dependencies, low to high index (keeps G_f acyclic).
        for _ in 0..self.rng.gen_range(1..=2 * n) {
            let i = self.rng.gen_range(0..n - 1);
            let j = self.rng.gen_range(i + 1..n);
            let _ = g.add_dependency(ops[i], ops[j]);
        }
        for _ in 0..self.rng.gen_range(0..=3usize) {
            let i = self.rng.gen_range(0..n - 1);
            let j = self.rng.gen_range(i + 1..n);
            let _ = g.add_min_constraint(ops[i], ops[j], self.rng.gen_range(0u64..5));
        }
        // Maximum constraints: chained ones stay well-posed by
        // construction, wild ones are the hostile half of the grammar.
        for _ in 0..self.rng.gen_range(0..=3usize) {
            let i = self.rng.gen_range(0..n - 1);
            let j = self.rng.gen_range(i + 1..n);
            let (from, to) = (ops[i], ops[j]);
            let wild = self.rng.gen_bool(0.4);
            if wild || g.has_forward_path(from, to) {
                let _ = g.add_max_constraint(from, to, self.rng.gen_range(0u64..12));
            }
        }
        g.polarize().expect("fresh operations polarize");
        g
    }

    /// One random edit against the live state of `g`.
    pub fn edit(&mut self, g: &ConstraintGraph) -> Edit {
        let ops: Vec<VertexId> = g.operation_ids().collect();
        let pick = |rng: &mut StdRng, list: &[VertexId]| list[rng.gen_range(0..list.len())];
        loop {
            match self.rng.gen_range(0u8..6) {
                0 => {
                    return Edit::AddDep(pick(&mut self.rng, &ops), pick(&mut self.rng, &ops));
                }
                1 => {
                    let l = self.rng.gen_range(0u64..5);
                    return Edit::AddMin(pick(&mut self.rng, &ops), pick(&mut self.rng, &ops), l);
                }
                2 | 3 => {
                    let u = self.rng.gen_range(0u64..12);
                    return Edit::AddMax(pick(&mut self.rng, &ops), pick(&mut self.rng, &ops), u);
                }
                4 => {
                    let edges: Vec<EdgeId> = g.edges().map(|(id, _)| id).collect();
                    if edges.is_empty() {
                        continue;
                    }
                    return Edit::RemoveEdge(edges[self.rng.gen_range(0..edges.len())]);
                }
                _ => {
                    let delay = self.delay();
                    return Edit::SetDelay(pick(&mut self.rng, &ops), delay);
                }
            }
        }
    }
}

/// Runs the structured fuzzer; see the module docs for what one case
/// exercises.
pub fn fuzz(config: &FuzzConfig) -> FuzzReport {
    let mut mutator = GraphMutator::new(config.seed);
    let mut report = FuzzReport::default();
    for case in 0..config.iters {
        report.cases += 1;
        let mut mirror = mutator.grow(config.max_ops);
        let mut session = match Session::open(mirror.clone()) {
            Ok(s) => s,
            Err(e) => {
                record_failure(
                    config,
                    &mut report,
                    case,
                    0,
                    "session-open",
                    format!("Session::open rejected a freshly grown graph: {e}"),
                    &mirror,
                );
                continue;
            }
        };
        if !check_state(config, &mut report, case, 0, &mirror, Some(&session)) {
            continue;
        }
        let n_edits = mutator.rng.gen_range(0..=config.max_edits);
        for step in 1..=n_edits {
            let edit = mutator.edit(&mirror);
            if !apply_edit(
                config,
                &mut report,
                case,
                step,
                &edit,
                &mut mirror,
                &mut session,
            ) {
                break;
            }
            report.edits_applied += 1;
            if !check_state(config, &mut report, case, step, &mirror, Some(&session)) {
                break;
            }
        }
        if report.failures.len() >= config.max_failures {
            break;
        }
    }
    report
}

/// Applies one edit to the mirror graph and the warm session, checking
/// that both accept or both reject it. Returns `false` when the case
/// should stop (divergent acceptance).
fn apply_edit(
    config: &FuzzConfig,
    report: &mut FuzzReport,
    case: usize,
    step: usize,
    edit: &Edit,
    mirror: &mut ConstraintGraph,
    session: &mut Session,
) -> bool {
    use rsched_engine::EditOutcome;
    let (cold_ok, warm) = match *edit {
        Edit::AddDep(f, t) => (
            mirror.add_dependency(f, t).is_ok(),
            session.add_dependency(f, t),
        ),
        Edit::AddMin(f, t, l) => (
            mirror.add_min_constraint(f, t, l).is_ok(),
            session.add_min_constraint(f, t, l),
        ),
        Edit::AddMax(f, t, u) => (
            mirror.add_max_constraint(f, t, u).is_ok(),
            session.add_max_constraint(f, t, u),
        ),
        Edit::RemoveEdge(e) => (mirror.remove_edge(e).is_ok(), session.remove_edge(e)),
        Edit::SetDelay(v, d) => (mirror.set_delay(v, d).is_ok(), session.set_delay(v, d)),
    };
    let warm_ok = !matches!(warm, EditOutcome::Rejected { .. });
    if cold_ok != warm_ok {
        record_failure(
            config,
            report,
            case,
            step,
            "edit-acceptance",
            format!("edit {edit:?}: graph API accepted = {cold_ok}, session accepted = {warm_ok}"),
            mirror,
        );
        return false;
    }
    true
}

/// Cross-checks one graph state: oracle on the cold result, bit-identity
/// with the reference fixpoint, and (when given) warm-session agreement. Returns `false`
/// on failure.
fn check_state(
    config: &FuzzConfig,
    report: &mut FuzzReport,
    case: usize,
    step: usize,
    graph: &ConstraintGraph,
    session: Option<&Session>,
) -> bool {
    report.states_checked += 1;
    let cold = schedule(graph);
    match &cold {
        Ok(_) => report.well_posed += 1,
        Err(ScheduleError::IllPosed { .. }) => report.ill_posed += 1,
        Err(ScheduleError::Unfeasible { .. }) => report.unfeasible += 1,
        Err(_) => {}
    }

    let oracle_report = check_result(graph, &cold);
    if let Some((label, witness)) = oracle_report.first_violation() {
        record_failure(
            config,
            report,
            case,
            step,
            "oracle",
            format!("{label}: {witness}"),
            graph,
        );
        return false;
    }

    if schedule_reference(graph) != cold {
        record_failure(
            config,
            report,
            case,
            step,
            "reference",
            "schedule_reference diverges from the cold schedule".to_owned(),
            graph,
        );
        return false;
    }

    if let Some(session) = session {
        if let Some(detail) = session_divergence(graph, session, &cold) {
            record_failure(config, report, case, step, "session", detail, graph);
            return false;
        }
    }
    true
}

/// Compares a warm session against the cold schedule of the same graph;
/// `Some(diff)` describes the first divergence.
///
/// The authoritative warm state is [`Session::posedness`] —
/// [`Session::schedule`] is documented to hold the *stale* last-good
/// schedule while the verdict is not `WellPosed`, so it only enters the
/// comparison on well-posed states.
fn session_divergence(
    graph: &ConstraintGraph,
    session: &Session,
    cold: &Result<RelativeSchedule, ScheduleError>,
) -> Option<String> {
    match (session.posedness(), cold) {
        (WellPosedness::WellPosed, Ok(cold)) => {
            let Some(warm) = session.schedule() else {
                return Some(
                    "session verdict is well-posed but it holds no schedule".to_owned(),
                );
            };
            if warm.anchors() != cold.anchors() {
                return Some(format!(
                    "session anchors {:?} != cold anchors {:?}",
                    warm.anchors(),
                    cold.anchors()
                ));
            }
            for v in graph.vertex_ids() {
                for &a in cold.anchors() {
                    if warm.offset(v, a) != cold.offset(v, a) {
                        return Some(format!(
                            "σ_{}({}) warm {:?} != cold {:?}",
                            graph.vertex(a).name(),
                            graph.vertex(v).name(),
                            warm.offset(v, a),
                            cold.offset(v, a)
                        ));
                    }
                }
            }
            None
        }
        (
            WellPosedness::Unfeasible { witness },
            Err(ScheduleError::Unfeasible { witness: cold_witness }),
        ) => (witness != cold_witness).then(|| {
            format!("unfeasibility witness diverges: session {witness}, cold {cold_witness}")
        }),
        (
            WellPosedness::IllPosed { violations },
            Err(ScheduleError::IllPosed { from, to, missing }),
        ) => match violations.first() {
            Some(head) if head.from == *from && head.to == *to && head.missing == *missing => None,
            head => Some(format!(
                "ill-posedness diverges: session head violation {head:?}, cold ({from}, {to}, {missing:?})"
            )),
        },
        (posed, cold) => Some(format!(
            "verdict divergence: session says {posed:?}, cold run says {}",
            match cold {
                Ok(_) => "well-posed".to_owned(),
                Err(e) => format!("{e}"),
            }
        )),
    }
}

/// Records a failure, shrinking and writing a `.sched` repro when
/// configured.
fn record_failure(
    config: &FuzzConfig,
    report: &mut FuzzReport,
    case: usize,
    step: usize,
    phase: &str,
    detail: String,
    graph: &ConstraintGraph,
) {
    let shrunk = if config.minimize {
        shrink(graph)
    } else {
        graph.clone()
    };
    // Re-judge the shrunk graph so the reported detail describes the
    // graph actually written out, not the pre-shrink one.
    let detail = static_failure(&shrunk).unwrap_or(detail);
    let graph_text = shrunk.to_text();
    let repro_path = config
        .repro_dir
        .as_ref()
        .map(|dir| write_repro(dir, config.seed, case, step, phase, &detail, &graph_text));
    report.failures.push(FuzzFailure {
        case,
        step,
        phase: phase.to_owned(),
        detail,
        graph_text,
        repro_path,
    });
}

/// `Some(detail)` when the static cross-check (oracle + reference +
/// fresh session) fails on `graph` — the predicate driving shrinking.
fn static_failure(graph: &ConstraintGraph) -> Option<String> {
    let cold = schedule(graph);
    let oracle_report = check_result(graph, &cold);
    if let Some((label, witness)) = oracle_report.first_violation() {
        return Some(format!("{label}: {witness}"));
    }
    if schedule_reference(graph) != cold {
        return Some("schedule_reference diverges".to_owned());
    }
    if let Ok(session) = Session::open(graph.clone()) {
        if let Some(d) = session_divergence(graph, &session, &cold) {
            return Some(d);
        }
    }
    None
}

/// Greedy edge-deletion shrinking: repeatedly drop any single live edge
/// whose removal keeps the static cross-check failing, until no single
/// deletion does. Edits and warm state cannot be shrunk this way, so a
/// failure only reachable through a specific edit script is reported
/// unshrunk (the predicate never fires on the static graph).
fn shrink(graph: &ConstraintGraph) -> ConstraintGraph {
    if static_failure(graph).is_none() {
        return graph.clone(); // failure needs warm history; keep as-is
    }
    let mut current = graph.clone();
    loop {
        let mut shrunk_this_round = false;
        let edges: Vec<EdgeId> = current.edges().map(|(id, _)| id).collect();
        for e in edges {
            let mut candidate = current.clone();
            if candidate.remove_edge(e).is_err() {
                continue;
            }
            if static_failure(&candidate).is_some() {
                current = candidate;
                shrunk_this_round = true;
            }
        }
        if !shrunk_this_round {
            return current;
        }
    }
}

/// Writes one replayable repro file; IO errors are swallowed into the
/// returned path (fuzzing must not die on a full disk).
pub(crate) fn write_repro(
    dir: &Path,
    seed: u64,
    case: usize,
    step: usize,
    phase: &str,
    detail: &str,
    graph_text: &str,
) -> PathBuf {
    let path = dir.join(format!("fuzz-seed{seed}-case{case}-step{step}.sched"));
    let mut contents = String::new();
    contents.push_str(&format!(
        "# rsched fuzz repro: seed {seed}, case {case}, step {step}\n# phase: {phase}\n"
    ));
    for line in detail.lines() {
        contents.push_str(&format!("# {line}\n"));
    }
    contents.push_str(graph_text);
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(&path, contents);
    path
}
