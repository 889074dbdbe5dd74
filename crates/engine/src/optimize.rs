//! Feedback-guided re-optimization: an iterative scheduler ⇄ binding loop.
//!
//! The paper's minimum relative schedule yields slack/mobility as a
//! byproduct of its fixpoint; the subgraph-extraction HLS literature
//! closes the loop by re-binding only the critical region and iterating.
//! Each [`Optimizer::step`] runs one round (DESIGN.md §15):
//!
//! 1. **Extract** — [`rsched_core::relative_slack`] finds the critical
//!    subgraph: fixed-delay ops whose minimum slack over every tracked
//!    anchor is at most [`OptimizeConfig::slack_threshold`] (zero slack =
//!    zero mobility = critical).
//! 2. **Re-serialize** — [`rsched_binding::serialize_region`] lifts the
//!    region into a cone, list-schedules it under the resource budget and
//!    proposes serialization edges for operations sharing an instance.
//! 3. **Apply** — each proposed edge goes through the incremental
//!    [`Session`] warm path (`add_dependency`), so a round costs a warm
//!    re-schedule, not a cold one.
//! 4. **Accept/revert** — the candidate is scored by a latency +
//!    control-cost + resource-pressure objective ([`Objective`], control
//!    cost from `rsched-ctrl`'s gate-equivalent model on the
//!    irredundant-anchor-restricted schedule); a round is kept only when
//!    the scalarized score does not worsen, otherwise every applied edge
//!    is removed again (each removal a cold rerun) and the loop
//!    converges.
//!
//! The loop terminates: every accepted round orders at least one
//! previously unordered pair (proposals are irredundant by construction),
//! a rejected or empty proposal stops the loop, and
//! [`OptimizeConfig::max_rounds`] bounds it unconditionally.
//!
//! The engine cannot depend on `rsched-oracle` (the oracle depends on the
//! engine), so refereeing is the *caller's* job: the step-wise API exposes
//! the session after every round, and the CLI, convergence proptest,
//! `fuzz_optimize` phase and optimize bench all re-prove the paper's
//! theorems on each accepted round.

use std::collections::{BTreeSet, HashMap};
use std::error::Error;
use std::fmt;

use rsched_binding::{serialize_region, ResourcePool};
use rsched_core::{
    relative_slack, start_times, DelayProfile, IrredundantAnchors, RelativeSchedule, ScheduleError,
};
use rsched_ctrl::generate;
// Re-exported so optimize clients can pick a style without depending on
// `rsched-ctrl` themselves.
pub use rsched_ctrl::ControlStyle;
use rsched_graph::{ConstraintGraph, ExecDelay, VertexId};

use crate::session::{EditOutcome, Session};

/// Tuning knobs for the optimize loop.
#[derive(Debug, Clone)]
pub struct OptimizeConfig {
    /// Hard cap on rounds (accepted or not).
    pub max_rounds: usize,
    /// Ops with minimum slack `<= slack_threshold` join the critical
    /// region (0 = strictly zero-mobility ops).
    pub slack_threshold: i64,
    /// Resource instances per kind (kinds are delay classes).
    pub budget: usize,
    /// Control implementation style the objective scores.
    pub style: ControlStyle,
    /// Objective weight on latency cycles.
    pub latency_weight: u64,
    /// Objective weight on control gate-equivalents.
    pub control_weight: u64,
    /// Objective weight on resource-pressure cycle-overshoots. Dominant
    /// by default so fitting the budget beats raw latency.
    pub pressure_weight: u64,
    /// Optional cap on total graph edges (serve maps its `--max-edges`
    /// quota here); the loop stops before exceeding it.
    pub max_edges: Option<usize>,
}

impl Default for OptimizeConfig {
    fn default() -> Self {
        OptimizeConfig {
            max_rounds: 8,
            slack_threshold: 0,
            budget: 1,
            style: ControlStyle::Counter,
            latency_weight: 4,
            control_weight: 1,
            pressure_weight: 64,
            max_edges: None,
        }
    }
}

/// One point in the latency-vs-control design space, plus the pressure
/// term that drives acceptance under a resource budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Objective {
    /// Zero-profile sink start time (all unbounded delays at 0).
    pub latency: u64,
    /// Gate-equivalent control cost of the irredundant-restricted
    /// schedule ([`rsched_ctrl::ControlCost::total_estimate`]).
    pub control: u64,
    /// Integral of same-kind concurrency above the budget (cycle ×
    /// excess instances, summed over kinds); 0 means the budget holds.
    pub pressure: u64,
}

impl Objective {
    /// Scalarized score under `config`'s weights (lower is better).
    pub fn scalar(&self, config: &OptimizeConfig) -> u64 {
        self.latency * config.latency_weight
            + self.control * config.control_weight
            + self.pressure * config.pressure_weight
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "latency {}, control {} gate eq., pressure {}",
            self.latency, self.control, self.pressure
        )
    }
}

/// What one optimize round did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundReport {
    /// 1-based round number.
    pub round: usize,
    /// Critical-region size this round.
    pub region_ops: usize,
    /// Serialization edges the binder proposed.
    pub proposed_edges: usize,
    /// Edges actually applied through the session, as (from, to) vertex
    /// names (reverted again unless `accepted`).
    pub applied_edges: Vec<(String, String)>,
    /// Whether the round was kept.
    pub accepted: bool,
    /// Objective before the round.
    pub before: Objective,
    /// Objective of the candidate (equals `before` when the proposal
    /// could not even be applied).
    pub after: Objective,
}

/// Summary of a full optimize run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizeReport {
    /// Objective of the untouched session.
    pub initial: Objective,
    /// Objective of the final (accepted) state.
    pub final_objective: Objective,
    /// Every round, accepted or reverted.
    pub rounds: Vec<RoundReport>,
    /// Rounds that were kept.
    pub accepted_rounds: usize,
    /// `true` when the loop stopped by itself (empty or rejected
    /// proposal), `false` when `max_rounds` cut it off.
    pub converged: bool,
    /// `true` when the `max_edges` quota stopped the loop.
    pub edge_budget_exhausted: bool,
}

impl OptimizeReport {
    /// The explored (latency, control) points: the initial state plus
    /// every accepted round, deduplicated, in exploration order.
    pub fn explored_points(&self) -> Vec<(u64, u64)> {
        let mut points = vec![(self.initial.latency, self.initial.control)];
        for round in self.rounds.iter().filter(|r| r.accepted) {
            points.push((round.after.latency, round.after.control));
        }
        points.dedup();
        points
    }

    /// The non-dominated subset of [`Self::explored_points`] (minimizing
    /// both latency and control cost), sorted by latency.
    pub fn pareto_points(&self) -> Vec<(u64, u64)> {
        let explored: BTreeSet<(u64, u64)> = self.explored_points().into_iter().collect();
        explored
            .iter()
            .filter(|&&(l, c)| {
                !explored
                    .iter()
                    .any(|&(ol, oc)| (ol, oc) != (l, c) && ol <= l && oc <= c)
            })
            .copied()
            .collect()
    }
}

/// Why an optimize run could not proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimizeError {
    /// The session holds no schedule (ill-posed or unfeasible graph).
    NotScheduled,
    /// An analysis failed (slack, start times, anchors).
    Schedule(ScheduleError),
    /// Binding or list scheduling failed.
    Bind(String),
    /// A `session::optimize` failpoint injected an error.
    Injected(String),
    /// A revert could not find the edge it had just applied — the
    /// session is in an unexpected state.
    RevertFailed {
        /// Source vertex name.
        from: String,
        /// Target vertex name.
        to: String,
    },
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizeError::NotScheduled => {
                write!(
                    f,
                    "session holds no schedule; optimize needs a well-posed graph"
                )
            }
            OptimizeError::Schedule(e) => write!(f, "analysis failed: {e}"),
            OptimizeError::Bind(e) => write!(f, "binding failed: {e}"),
            OptimizeError::Injected(msg) => write!(f, "injected fault: {msg}"),
            OptimizeError::RevertFailed { from, to } => {
                write!(f, "revert failed: edge {from} -> {to} vanished")
            }
        }
    }
}

impl Error for OptimizeError {}

impl From<ScheduleError> for OptimizeError {
    fn from(e: ScheduleError) -> Self {
        OptimizeError::Schedule(e)
    }
}

/// Scores `(graph, omega)` under `config`: zero-profile latency, reduced
/// control cost, and budget overshoot pressure.
pub fn measure(
    graph: &ConstraintGraph,
    omega: &RelativeSchedule,
    config: &OptimizeConfig,
) -> Result<Objective, ScheduleError> {
    let profile = DelayProfile::zeros(graph);
    let times = start_times(graph, omega, &profile)?;
    let latency = times.time(graph.sink());
    let analysis = IrredundantAnchors::analyze(graph)?;
    let reduced = omega.restrict(analysis.irredundant.family());
    let control = generate(graph, &reduced, config.style)
        .cost()
        .total_estimate();

    // Pressure: per delay class, sweep the zero-profile execution
    // intervals and integrate concurrency above the budget. Ends sort
    // before starts at equal times, so back-to-back ops don't overlap.
    let mut intervals: HashMap<u64, Vec<(u64, i64)>> = HashMap::new();
    for v in graph.operation_ids() {
        if let ExecDelay::Fixed(d) = graph.vertex(v).delay() {
            if d > 0 {
                let t = times.time(v);
                let events = intervals.entry(d).or_default();
                events.push((t, 1));
                events.push((t + d, -1));
            }
        }
    }
    let mut pressure = 0u64;
    for events in intervals.values_mut() {
        events.sort_by_key(|&(t, delta)| (t, delta));
        let (mut live, mut prev) = (0i64, 0u64);
        for &(t, delta) in events.iter() {
            let excess = live - config.budget as i64;
            if excess > 0 {
                pressure += excess as u64 * (t - prev);
            }
            prev = t;
            live += delta;
        }
    }
    Ok(Objective {
        latency,
        control,
        pressure,
    })
}

/// The resource kind of a fixed-delay op: its delay class.
fn kind_of(delay: u64) -> String {
    format!("fu{delay}")
}

/// A step-wise optimize loop over one [`Session`].
///
/// Callers drive it with [`Optimizer::step`] (refereeing each accepted
/// round externally) or [`Optimizer::run`], then read the
/// [`OptimizeReport`] and take the session back with
/// [`Optimizer::into_session`].
#[derive(Debug, Clone)]
pub struct Optimizer {
    session: Session,
    config: OptimizeConfig,
    initial: Objective,
    current: Objective,
    rounds: Vec<RoundReport>,
    converged: bool,
    edge_budget_exhausted: bool,
}

impl Optimizer {
    /// Wraps a scheduled session; measures the initial objective.
    ///
    /// # Errors
    ///
    /// [`OptimizeError::NotScheduled`] when the session holds no
    /// schedule; analysis errors from the initial measurement.
    pub fn new(session: Session, config: OptimizeConfig) -> Result<Optimizer, OptimizeError> {
        let omega = session.schedule().ok_or(OptimizeError::NotScheduled)?;
        let initial = measure(session.graph(), omega, &config)?;
        Ok(Optimizer {
            session,
            config,
            initial,
            current: initial,
            rounds: Vec::new(),
            converged: false,
            edge_budget_exhausted: false,
        })
    }

    /// The session in its current (accepted) state.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Objective of the untouched session.
    pub fn initial(&self) -> Objective {
        self.initial
    }

    /// Objective of the current accepted state.
    pub fn current(&self) -> Objective {
        self.current
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> &[RoundReport] {
        &self.rounds
    }

    /// `true` once the loop stopped by itself.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Runs one round. `Ok(None)` means the loop is finished (converged,
    /// out of rounds, or out of edge budget); `Ok(Some(_))` reports the
    /// round just executed (check `accepted`).
    ///
    /// # Errors
    ///
    /// Analysis/binding failures and injected `session::optimize`
    /// faults. The session is left in its last accepted state.
    pub fn step(&mut self) -> Result<Option<&RoundReport>, OptimizeError> {
        if let Some(msg) = rsched_graph::failpoint!("session::optimize") {
            return Err(OptimizeError::Injected(msg));
        }
        if self.converged || self.rounds.len() >= self.config.max_rounds {
            return Ok(None);
        }

        // 1. Extract the critical region from slack.
        let omega = self
            .session
            .schedule()
            .ok_or(OptimizeError::NotScheduled)?
            .clone();
        let graph = self.session.graph();
        let slack = relative_slack(graph, &omega)?;
        let mut region = Vec::new();
        let mut classes: HashMap<VertexId, String> = HashMap::new();
        for v in graph.operation_ids() {
            let ExecDelay::Fixed(d) = graph.vertex(v).delay() else {
                continue;
            };
            if d == 0 {
                continue;
            }
            let min_slack = slack
                .anchors()
                .iter()
                .filter_map(|&a| slack.slack(v, a))
                .min();
            if min_slack.is_some_and(|s| s <= self.config.slack_threshold) {
                region.push(v);
                classes.insert(v, kind_of(d));
            }
        }
        if region.len() < 2 {
            self.converged = true;
            return Ok(None);
        }

        // 2. Ask the binder for a serialization proposal.
        let mut pool = ResourcePool::new();
        let kinds: BTreeSet<&String> = classes.values().collect();
        for kind in kinds {
            pool = pool.with_kind(kind.clone(), self.config.budget);
        }
        let plan = serialize_region(graph, &region, &classes, &pool)
            .map_err(|e| OptimizeError::Bind(e.to_string()))?;
        if plan.edges.is_empty() {
            self.converged = true;
            return Ok(None);
        }
        if let Some(limit) = self.config.max_edges {
            if graph.n_edges() + plan.edges.len() > limit {
                self.edge_budget_exhausted = true;
                self.converged = true;
                return Ok(None);
            }
        }

        // 3. Apply through the warm path.
        let before = self.current;
        let mut applied: Vec<(VertexId, VertexId)> = Vec::new();
        let mut viable = true;
        for &(from, to) in &plan.edges {
            match self.session.add_dependency(from, to) {
                EditOutcome::Rescheduled { .. } => applied.push((from, to)),
                EditOutcome::Unchanged => {}
                // A serialization edge can close a positive cycle with a
                // max constraint (unfeasible); ill-posedness cannot arise
                // (Lemma 7: anchor sets only grow) but is handled the
                // same way for safety.
                EditOutcome::IllPosed { .. } | EditOutcome::Unfeasible { .. } => {
                    applied.push((from, to));
                    viable = false;
                    break;
                }
                EditOutcome::Rejected { .. } => {
                    viable = false;
                    break;
                }
            }
        }

        // 4. Score and accept or revert.
        let (after, accepted) = if viable && !applied.is_empty() {
            let omega = self.session.schedule().ok_or(OptimizeError::NotScheduled)?;
            let after = measure(self.session.graph(), omega, &self.config)?;
            let accepted = after.scalar(&self.config) <= before.scalar(&self.config);
            (after, accepted)
        } else {
            (before, false)
        };
        if accepted {
            self.current = after;
        } else {
            for &(from, to) in applied.iter().rev() {
                let name = |v: VertexId| self.session.graph().vertex(v).name().to_owned();
                let Some(edge) = self.session.edge_between(from, to) else {
                    return Err(OptimizeError::RevertFailed {
                        from: name(from),
                        to: name(to),
                    });
                };
                self.session.remove_edge(edge);
            }
            self.converged = true;
        }

        let name = |v: VertexId| self.session.graph().vertex(v).name().to_owned();
        self.rounds.push(RoundReport {
            round: self.rounds.len() + 1,
            region_ops: region.len(),
            proposed_edges: plan.edges.len(),
            applied_edges: applied.iter().map(|&(f, t)| (name(f), name(t))).collect(),
            accepted,
            before,
            after,
        });
        Ok(self.rounds.last())
    }

    /// Runs rounds until the loop finishes.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Optimizer::step`] failure.
    pub fn run(&mut self) -> Result<(), OptimizeError> {
        while self.step()?.is_some() {}
        Ok(())
    }

    /// Summarizes the run so far.
    pub fn report(&self) -> OptimizeReport {
        OptimizeReport {
            initial: self.initial,
            final_objective: self.current,
            rounds: self.rounds.clone(),
            accepted_rounds: self.rounds.iter().filter(|r| r.accepted).count(),
            converged: self.converged,
            edge_budget_exhausted: self.edge_budget_exhausted,
        }
    }

    /// Consumes the optimizer, returning the session in its final
    /// accepted state.
    pub fn into_session(self) -> Session {
        self.session
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four concurrent 2-cycle ops between fork and join: budget 1 forces
    /// serialization, trading latency for pressure.
    fn fan_session() -> Session {
        let mut g = ConstraintGraph::new();
        let fork = g.add_operation("fork", ExecDelay::Fixed(0));
        let join = g.add_operation("join", ExecDelay::Fixed(0));
        for i in 0..4 {
            let v = g.add_operation(format!("op{i}"), ExecDelay::Fixed(2));
            g.add_dependency(fork, v).unwrap();
            g.add_dependency(v, join).unwrap();
        }
        g.polarize().unwrap();
        Session::open(g).unwrap()
    }

    #[test]
    fn serializes_fan_under_unit_budget() {
        let mut opt = Optimizer::new(fan_session(), OptimizeConfig::default()).unwrap();
        opt.run().unwrap();
        let report = opt.report();
        assert!(report.converged);
        assert!(report.accepted_rounds >= 1);
        assert_eq!(report.final_objective.pressure, 0, "budget must hold");
        assert!(report.final_objective.latency > report.initial.latency);
        // The explored space contains the fast/parallel and the
        // cheap/serial state: at least two distinct points.
        assert!(report.explored_points().len() >= 2);
    }

    #[test]
    fn wide_budget_converges_without_edits() {
        let config = OptimizeConfig {
            budget: 4,
            ..OptimizeConfig::default()
        };
        let mut opt = Optimizer::new(fan_session(), config).unwrap();
        opt.run().unwrap();
        let report = opt.report();
        assert!(report.converged);
        assert_eq!(report.accepted_rounds, 0);
        assert_eq!(report.final_objective, report.initial);
    }

    #[test]
    fn max_edges_quota_stops_the_loop() {
        let session = fan_session();
        let edges = session.graph().n_edges();
        let config = OptimizeConfig {
            max_edges: Some(edges), // no headroom at all
            ..OptimizeConfig::default()
        };
        let mut opt = Optimizer::new(session, config).unwrap();
        opt.run().unwrap();
        let report = opt.report();
        assert!(report.edge_budget_exhausted);
        assert_eq!(report.accepted_rounds, 0);
    }

    #[test]
    fn objective_scalar_is_monotone_over_accepted_rounds() {
        let mut opt = Optimizer::new(fan_session(), OptimizeConfig::default()).unwrap();
        let config = OptimizeConfig::default();
        let mut last = opt.initial().scalar(&config);
        while let Some(round) = opt.step().unwrap() {
            if round.accepted {
                let s = round.after.scalar(&config);
                assert!(s <= last, "accepted round worsened the objective");
                last = s;
            }
        }
    }
}
