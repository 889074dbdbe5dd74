//! The incremental re-scheduling session.
//!
//! A [`Session`] owns a polar [`ConstraintGraph`] together with every
//! analysis the scheduler needs — the anchor-set family, the cached
//! Theorem 2 verdicts, and the current minimum [`RelativeSchedule`] —
//! and keeps them consistent across **edits**:
//! adding a sequencing dependency or timing constraint, removing an edge,
//! or switching an operation between fixed and unbounded delay.
//!
//! # How incrementality works
//!
//! **Additive edits** (new edge or constraint) only raise minimum
//! offsets, so the previous schedule is a pointwise lower bound of the
//! new one. When it is fresh (the graph was well-posed before the edit)
//! and the edit leaves every containment verdict clean, the session
//! repairs it in place with [`rsched_core::relax_additive`]: a worklist
//! walk of the new edge's cone, certified feasible by incrementally
//! updated zero-profile start times.
//!
//! **Every other edit** — edge removal, a delay change, or an additive
//! edit the fast path cannot take — reruns the fixpoint cold with
//! [`rsched_core::schedule_with_sets_on`] from zeroed rows. Seeding that
//! run with the previous offsets of the anchors an edit cannot reach
//! saves nothing measurable: the source reaches every edit, so its
//! column always restarts from zero and decides the round count.
//!
//! The previous schedule is fresh exactly while the verdict is
//! `WellPosed`: an edit that leaves the graph ill-posed or unfeasible
//! keeps it but marks it stale, and the next successful run replaces it.
//!
//! # Verdict fidelity
//!
//! Every edit re-classifies the graph exactly as a cold
//! [`rsched_core::schedule`] would, without paying for the full analysis:
//! anchor sets are recomputed (one cheap sweep), the Theorem 2 containment
//! check is re-evaluated *only* on backward edges whose endpoint anchor
//! sets changed, and the expensive positive-cycle check runs only when a
//! violation was found (to order `Unfeasible` before `IllPosed` like the
//! cold path) or when the fixpoint exhausts its budget (which, for
//! a containment-clean graph, implies a positive cycle).

use std::collections::BTreeMap;

use rsched_core::{
    check_well_posed_with, relax_additive, schedule_with_sets_on, start_times, update_start_times,
    verify_start_times, AnchorSets, DelayProfile, IllPosedEdge, RelativeSchedule, ScheduleError,
    StartTimes, WellPosedness,
};
use rsched_graph::{ConstraintGraph, EdgeId, ExecDelay, GraphError, ScheduleKernel, VertexId};

/// Structured result of one session edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditOutcome {
    /// The edit was a no-op (e.g. re-setting an unchanged delay); all
    /// cached analyses remain valid.
    Unchanged,
    /// The graph is well-posed and was rescheduled.
    Rescheduled {
        /// Fixpoint iterations the run needed (1 on the additive fast
        /// path).
        iterations: usize,
        /// Anchor columns carried over from the previous schedule: every
        /// column on the additive fast path, 0 on a full (cold) run.
        warm_anchors: usize,
        /// Total anchors in the new schedule.
        total_anchors: usize,
    },
    /// The graph is now ill-posed: some maximum constraint depends on an
    /// unshared unbounded delay (Theorem 2). The previous schedule is
    /// kept but stale.
    IllPosed {
        /// One witness per violating backward edge, in edge order —
        /// identical to [`rsched_core::check_well_posed`].
        violations: Vec<IllPosedEdge>,
    },
    /// The constraints are now unfeasible: a positive cycle exists even
    /// with unbounded delays at zero (Theorem 1).
    Unfeasible {
        /// A vertex on or reachable from the positive cycle — identical
        /// to the cold scheduler's witness.
        witness: VertexId,
    },
    /// The edit itself was invalid (unknown vertex, forward cycle, …);
    /// the graph and all caches are untouched.
    Rejected {
        /// The structural error.
        error: GraphError,
    },
}

impl EditOutcome {
    /// `true` when the session holds a fresh schedule after this edit.
    pub fn is_scheduled(&self) -> bool {
        matches!(
            self,
            EditOutcome::Rescheduled { .. } | EditOutcome::Unchanged
        )
    }
}

/// Counters describing the work a session performed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Edits that mutated the graph.
    pub edits: usize,
    /// Edits rejected with a [`GraphError`].
    pub rejected: usize,
    /// Edits that were no-ops.
    pub noops: usize,
    /// Successful scheduling runs (fast-path repairs, full runs and
    /// verified seeds).
    pub reschedules: usize,
    /// Anchor columns carried over from a previous schedule, summed over
    /// runs: all of them on each additive fast-path repair.
    pub warm_anchor_columns: usize,
    /// Anchor columns computed from zero, summed over runs: all of them
    /// on each full fixpoint run.
    pub cold_anchor_columns: usize,
    /// Fixpoint iterations, summed over successful runs.
    pub iterations: usize,
    /// Edits that left the graph ill-posed.
    pub ill_posed: usize,
    /// Edits that left the graph unfeasible.
    pub unfeasible: usize,
    /// Backward edges whose containment check was actually re-evaluated
    /// (the rest were served from the violation cache).
    pub containment_checks: usize,
}

/// Zero-profile start times of the current schedule, kept so additive
/// edits can certify feasibility in `O(1)` when no offset moved.
#[derive(Debug, Clone)]
struct ZeroCertificate {
    times: StartTimes,
    /// `times` satisfy every edge inequality — i.e. the graph was proven
    /// free of positive cycles when the schedule was accepted. `false` on
    /// the degenerate accept path (feasible graph that lost polarity).
    valid: bool,
}

/// An incremental re-scheduling session over one constraint graph.
#[derive(Debug, Clone)]
pub struct Session {
    graph: ConstraintGraph,
    sets: AnchorSets,
    /// Most recent successful schedule with its zero-profile start times;
    /// stale while ill-posed/unfeasible.
    current: Option<(RelativeSchedule, ZeroCertificate)>,
    /// Cached Theorem 2 violations, keyed by backward edge.
    violations: BTreeMap<EdgeId, IllPosedEdge>,
    posedness: WellPosedness,
    stats: SessionStats,
}

impl Session {
    /// Opens a session on `graph`, polarizing it if necessary, and runs
    /// the initial analysis + schedule.
    ///
    /// # Errors
    ///
    /// Returns the [`GraphError`] of [`ConstraintGraph::polarize`] when a
    /// non-polar graph cannot be polarized. Ill-posed or unfeasible graphs
    /// open fine — the verdict is reported by [`Session::posedness`] and
    /// the session can be edited toward well-posedness.
    pub fn open(graph: ConstraintGraph) -> Result<Session, GraphError> {
        Session::open_with_seed(graph, None)
    }

    /// [`Session::open`] with an optional schedule seed: a minimum
    /// schedule previously computed for this exact graph, as a
    /// canonical-form cache hit supplies.
    ///
    /// The seed is **verified before installation** — its tracked family
    /// must equal the freshly computed anchor sets and its zero-profile
    /// start times must satisfy every edge (the same feasibility
    /// certificate the cold path computes) — and on success the session
    /// skips the fixpoint iteration and the CSR kernel it would run on.
    /// Every other analysis (anchor sets, containment) is
    /// recomputed, so the resulting session state is bit-identical to a
    /// cold open. A seed that fails verification is silently discarded
    /// and the cold path runs instead.
    pub fn open_with_seed(
        mut graph: ConstraintGraph,
        seed: Option<RelativeSchedule>,
    ) -> Result<Session, GraphError> {
        // A no-op on a polar graph, and cheaper than `is_polar` to find so.
        graph.polarize()?;
        let Ok(sets) = AnchorSets::compute(&graph);
        let mut session = Session {
            graph,
            sets,
            current: None,
            violations: BTreeMap::new(),
            posedness: WellPosedness::WellPosed,
            stats: SessionStats::default(),
        };
        // Full containment scan once at open; edits maintain it
        // incrementally afterwards.
        for (id, e) in session.graph.backward_edges() {
            session.stats.containment_checks += 1;
            if !session.sets.is_subset(e.from(), e.to()) {
                session.violations.insert(
                    id,
                    IllPosedEdge {
                        from: e.from(),
                        to: e.to(),
                        missing: session.sets.family().difference(e.from(), e.to()),
                    },
                );
            }
        }
        if let Some(seed) = seed {
            if session.try_install_seed(seed) {
                return Ok(session);
            }
        }
        session.classify_and_run();
        Ok(session)
    }

    /// Installs a pre-computed minimum schedule in place of the opening
    /// fixpoint run, if it verifies against the fresh analyses. Returns
    /// `false` (leaving the session ready for the cold path) when the
    /// graph is not cleanly well-posed, the seed's tracked family differs
    /// from the computed sets, or the zero-profile certificate fails.
    fn try_install_seed(&mut self, seed: RelativeSchedule) -> bool {
        if !self.violations.is_empty() || seed.tracked_sets() != self.sets.family() {
            return false;
        }
        let zeros = DelayProfile::zeros(&self.graph);
        let times = start_times(&self.graph, &seed, &zeros);
        if !verify_start_times(&self.graph, &times, &zeros).is_empty() {
            return false;
        }
        self.accept(seed, ZeroCertificate { times, valid: true }, 0);
        true
    }

    /// Makes the schedule and stats report `iterations` fixpoint rounds
    /// for the last run: the live run's count, which a snapshot records.
    pub(crate) fn restore_iterations(&mut self, iterations: usize) {
        if let Some((schedule, _)) = &mut self.current {
            self.stats.iterations = self.stats.iterations - schedule.iterations() + iterations;
            schedule.set_iterations(iterations);
        }
    }

    /// The graph in its current (edited) state.
    pub fn graph(&self) -> &ConstraintGraph {
        &self.graph
    }

    /// The current anchor sets.
    pub fn anchor_sets(&self) -> &AnchorSets {
        &self.sets
    }

    /// The current minimum schedule; `None` until the graph has been
    /// well-posed at least once, and **stale** while
    /// [`Session::posedness`] is not `WellPosed`.
    pub fn schedule(&self) -> Option<&RelativeSchedule> {
        self.current.as_ref().map(|(schedule, _)| schedule)
    }

    /// The current well-posedness verdict.
    pub fn posedness(&self) -> &WellPosedness {
        &self.posedness
    }

    /// Work counters.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Finds an operation by name.
    pub fn vertex_named(&self, name: &str) -> Option<VertexId> {
        self.graph
            .vertex_ids()
            .find(|&v| self.graph.vertex(v).name() == name)
    }

    /// Finds a live edge by endpoints (first match in edge order), in
    /// O(out-degree of `from`): out-lists hold live edges in `EdgeId`
    /// order, as the graph appends each new edge at the tail.
    pub fn edge_between(&self, from: VertexId, to: VertexId) -> Option<EdgeId> {
        if from.index() >= self.graph.n_vertices() {
            return None;
        }
        self.graph
            .out_edges(from)
            .find(|(_, e)| e.to() == to)
            .map(|(id, _)| id)
    }

    /// Adds a sequencing dependency `from -> to` (weighted by `from`'s
    /// execution delay) and reschedules.
    pub fn add_dependency(&mut self, from: VertexId, to: VertexId) -> EditOutcome {
        match self.graph.add_dependency(from, to) {
            Ok(id) => self.after_additive_edit(id),
            Err(error) => self.reject(error),
        }
    }

    /// Adds a minimum timing constraint (`to` starts at least `min`
    /// cycles after `from` starts) and reschedules.
    pub fn add_min_constraint(&mut self, from: VertexId, to: VertexId, min: u64) -> EditOutcome {
        match self.graph.add_min_constraint(from, to, min) {
            Ok(id) => self.after_additive_edit(id),
            Err(error) => self.reject(error),
        }
    }

    /// Adds a maximum timing constraint (`to` starts at most `max`
    /// cycles after `from` starts) and reschedules. This inserts a
    /// backward edge, so the edit may render the graph ill-posed or
    /// unfeasible — the outcome says which, with the same witnesses a
    /// cold analysis would report.
    pub fn add_max_constraint(&mut self, from: VertexId, to: VertexId, max: u64) -> EditOutcome {
        match self.graph.add_max_constraint(from, to, max) {
            Ok(id) => self.after_additive_edit(id),
            Err(error) => self.reject(error),
        }
    }

    /// Removes an edge (dependency or constraint) and reschedules with a
    /// cold fixpoint run.
    pub fn remove_edge(&mut self, id: EdgeId) -> EditOutcome {
        if let Err(error) = self.graph.remove_edge(id) {
            return self.reject(error);
        }
        self.violations.remove(&id);
        self.after_edit()
    }

    /// Switches an operation between fixed and unbounded execution delay,
    /// re-weighting its outgoing edges, and reschedules with a cold
    /// fixpoint run. Returns [`EditOutcome::Unchanged`] when the delay is
    /// already `delay`.
    pub fn set_delay(&mut self, v: VertexId, delay: ExecDelay) -> EditOutcome {
        match self.graph.set_delay(v, delay) {
            Ok(false) => {
                self.stats.noops += 1;
                EditOutcome::Unchanged
            }
            Ok(true) => self.after_edit(),
            Err(error) => self.reject(error),
        }
    }

    fn reject(&mut self, error: GraphError) -> EditOutcome {
        self.stats.rejected += 1;
        EditOutcome::Rejected { error }
    }

    /// Post-edit path for pure additions: previous offsets remain lower
    /// bounds for every anchor (constraints only push offsets up), so
    /// when containment stays clean the previous fixpoint is repaired in
    /// place by a worklist relaxation of the new edge's cone instead of a
    /// full re-analysis.
    fn after_additive_edit(&mut self, id: EdgeId) -> EditOutcome {
        self.stats.edits += 1;
        let edge = *self.graph.edge(id);

        // Incremental set maintenance: an addition never changes the
        // anchor roster, it can only grow per-vertex sets downstream of
        // the new edge's head.
        let changed = self.sets.notify_add_edge(&self.graph, id);

        // Containment verdicts are stable except on backward edges that
        // touch a grown set — or the new edge itself, when backward.
        if !changed.is_empty() || !edge.is_forward() {
            let mut is_changed = vec![false; self.graph.n_vertices()];
            for &v in &changed {
                is_changed[v.index()] = true;
            }
            self.recheck_containment(|eid, e| {
                is_changed[e.from().index()] || is_changed[e.to().index()] || eid == id
            });
        }

        if self.violations.is_empty() {
            if let Some(outcome) = self.try_fast_additive(id, &changed) {
                return outcome;
            }
        }
        self.classify_and_run()
    }

    /// The additive fast path: repair the current fixpoint by relaxing
    /// only the new edge's cone (plus any vertices whose anchor sets
    /// grew). Applicable when the previous schedule is fresh (the graph
    /// was well-posed before the edit); returns `None` to fall back to the
    /// general (cold full-run) path.
    fn try_fast_additive(&mut self, id: EdgeId, changed: &[VertexId]) -> Option<EditOutcome> {
        if !matches!(self.posedness, WellPosedness::WellPosed) {
            return None;
        }
        let (prev, _) = self.current.as_ref()?;
        // Additive edits never change the roster; anything else means the
        // cached schedule is out of sync with the session family.
        if prev.tracked_sets().anchors() != self.sets.family().anchors()
            || (changed.is_empty() && prev.tracked_sets() != self.sets.family())
        {
            return None;
        }
        // Fault-injection site (see `classify_and_run`): after the early
        // returns so a fallback edit counts one hit, before the take so a
        // panic leaves the cached schedule intact. Takes only `Panic` or
        // `Delay`: an armed `Error` would be discarded here.
        let _ = rsched_graph::failpoint!("session::reschedule");
        // Relax in place — cloning the offsets would cost as much as the
        // relaxation itself on large designs. It walks the adjacency
        // lists: the cone of one edge is far smaller than a CSR build.
        let (mut omega, cached) = self.current.take().expect("checked above");
        let raised = match relax_additive(&self.graph, self.sets.family(), &mut omega, id, changed)
        {
            Ok(raised) => raised,
            // Relaxation diverged: positive cycle (or an adversarial
            // schedule order exhausting the pop budget). The in-place
            // offsets were over-raised past any minimum, so they and their
            // certificate are dropped and the authoritative (cold) path
            // classifies.
            Err(_) => return None,
        };
        let warm = omega.anchors().len();

        // Feasibility certificate, as in the general path but incremental.
        // The perturbed region is where offsets rose or sets grew; outside
        // it the cached zero-profile start times are still exact.
        let mut cone = raised;
        for &v in changed {
            if !cone.contains(&v) {
                cone.push(v);
            }
        }
        if cone.is_empty() {
            // No offset moved: the cached times still satisfy every old
            // edge (when they certified), so only the new edge needs
            // checking — an O(1) certificate.
            let e = self.graph.edge(id);
            let (tail, head) = (cached.times.time(e.from()), cached.times.time(e.to()));
            if cached.valid && head as i64 >= tail as i64 + e.weight().zeroed() {
                return Some(self.accept(omega, cached, warm));
            }
        }
        // Worklist re-evaluation from the cached (exact) times, then a
        // full-but-cheap O(|E|) verification sweep.
        let zeros = DelayProfile::zeros(&self.graph);
        let (times, _) = update_start_times(&self.graph, &omega, &zeros, &cached.times, &cone);
        let valid = verify_start_times(&self.graph, &times, &zeros).is_empty();
        let certificate = ZeroCertificate { times, valid };
        if valid {
            return Some(self.accept(omega, certificate, warm));
        }
        match check_well_posed_with(&self.graph, &self.sets) {
            WellPosedness::Unfeasible { witness } => {
                // `omega` converged, so it is still the exact minimum of
                // the (per-anchor) tracked system — keep it (and its exact
                // times) as the stale schedule, like the general path
                // keeps its previous one.
                self.current = Some((omega, certificate));
                Some(self.mark_unfeasible(witness))
            }
            // Feasible but degenerate (lost polarity): the relaxed
            // fixpoint is still the minimum schedule — accept it.
            WellPosedness::WellPosed => Some(self.accept(omega, certificate, warm)),
            verdict @ WellPosedness::IllPosed { .. } => {
                unreachable!("containment cache disagrees: {verdict:?}")
            }
        }
    }

    /// Post-edit path for subtractive edits (removals, delay changes):
    /// recompute the anchor sets from scratch and diff them against the
    /// cached family.
    fn after_edit(&mut self) -> EditOutcome {
        self.stats.edits += 1;
        let Ok(new_sets) = AnchorSets::compute(&self.graph);

        // Which vertices' anchor sets actually changed? Containment
        // verdicts of backward edges not touching them are reusable.
        let mut changed = vec![false; self.graph.n_vertices()];
        for v in self.graph.vertex_ids() {
            changed[v.index()] = !self.sets.set(v).eq(new_sets.set(v));
        }
        self.sets = new_sets;

        self.recheck_containment(|_, e| changed[e.from().index()] || changed[e.to().index()]);
        self.classify_and_run()
    }

    /// Re-evaluates the Theorem 2 containment check on the backward edges
    /// selected by `pick`, updating the violation cache.
    fn recheck_containment(&mut self, pick: impl Fn(EdgeId, &rsched_graph::Edge) -> bool) {
        let mut updates = Vec::new();
        for (id, e) in self.graph.backward_edges() {
            if !pick(id, e) {
                continue;
            }
            self.stats.containment_checks += 1;
            if self.sets.is_subset(e.from(), e.to()) {
                updates.push((id, None));
            } else {
                updates.push((
                    id,
                    Some(IllPosedEdge {
                        from: e.from(),
                        to: e.to(),
                        missing: self.sets.family().difference(e.from(), e.to()),
                    }),
                ));
            }
        }
        for (id, verdict) in updates {
            match verdict {
                None => {
                    self.violations.remove(&id);
                }
                Some(v) => {
                    self.violations.insert(id, v);
                }
            }
        }
    }

    /// Classifies the (already re-analyzed) graph and, when well-posed,
    /// runs the full fixpoint. Mirrors the cold `schedule()` pipeline
    /// verdict-for-verdict.
    fn classify_and_run(&mut self) -> EditOutcome {
        // Fault-injection site: fires before any cached scheduling state
        // is touched, so an injected panic leaves the session recoverable
        // by journal replay. Together with the twin site on the additive
        // fast path, every reschedule evaluates it exactly once (a fast
        // path that diverges and falls back here fires twice — rare, and
        // harmless to the seeded fault schedules). Takes only `Panic` or
        // `Delay`: an armed `Error` would be discarded here.
        let _ = rsched_graph::failpoint!("session::reschedule");
        if !self.violations.is_empty() {
            // Slow path: the cold pipeline reports `Unfeasible` with
            // priority over `IllPosed`, so a positive-cycle check is
            // unavoidable here.
            return match check_well_posed_with(&self.graph, &self.sets) {
                WellPosedness::Unfeasible { witness } => {
                    self.stats.unfeasible += 1;
                    self.posedness = WellPosedness::Unfeasible { witness };
                    EditOutcome::Unfeasible { witness }
                }
                verdict @ WellPosedness::IllPosed { .. } => {
                    self.stats.ill_posed += 1;
                    self.posedness = verdict.clone();
                    let WellPosedness::IllPosed { violations } = verdict else {
                        unreachable!()
                    };
                    EditOutcome::IllPosed { violations }
                }
                WellPosedness::WellPosed => {
                    // The incremental violation cache disagrees with the
                    // authoritative check; trust the latter.
                    debug_assert!(false, "stale containment cache");
                    self.violations.clear();
                    self.run_schedule()
                }
            };
        }
        self.run_schedule()
    }

    /// Runs the full fixpoint from zeroed rows on a CSR kernel built for
    /// this run. Every edit changes the graph, so a kernel kept between
    /// runs would never be reused; the additive fast path repairs the
    /// schedule by a worklist walk of the adjacency lists and needs none.
    fn run_schedule(&mut self) -> EditOutcome {
        let Ok(kernel) = ScheduleKernel::build(&self.graph);
        let schedule = match schedule_with_sets_on(&kernel, self.sets.family(), 1) {
            Ok(schedule) => schedule,
            // Budget exhausted: containment was clean, so this proves a
            // positive cycle (Theorem 8); the authoritative check names
            // the cold pipeline's witness.
            Err(ScheduleError::Inconsistent { .. }) => {
                return match check_well_posed_with(&self.graph, &self.sets) {
                    WellPosedness::Unfeasible { witness } => self.mark_unfeasible(witness),
                    verdict => unreachable!("fixpoint diverged on a {verdict:?} graph"),
                };
            }
            Err(e) => {
                unreachable!("unexpected scheduling error after containment check: {e:?}")
            }
        };
        // Containment passed and the iteration converged, but a positive
        // cycle can hide from the per-anchor relaxation (it only sees
        // columns both endpoints track). Feasibility certificate: if the
        // schedule's start times under the all-zero delay profile satisfy
        // every edge, no positive cycle can exist — summing
        // `T(head) ≥ T(tail) + w` around one would bound its weight by
        // zero. One O(|V|·|A| + |E|) sweep, against the cold pipeline's
        // Bellman–Ford.
        let zeros = DelayProfile::zeros(&self.graph);
        let times = start_times(&self.graph, &schedule, &zeros);
        let valid = verify_start_times(&self.graph, &times, &zeros).is_empty();
        if !valid {
            // The certificate can also fail on *feasible* graphs that lost
            // polarity (an edit disconnected the source, so some vertex
            // tracks no anchor at all); only the authoritative check can
            // tell the two apart.
            match check_well_posed_with(&self.graph, &self.sets) {
                WellPosedness::Unfeasible { witness } => return self.mark_unfeasible(witness),
                WellPosedness::WellPosed => {}
                // Containment over the same sets was clean above, so the
                // authoritative check cannot see a violation.
                verdict @ WellPosedness::IllPosed { .. } => {
                    unreachable!("containment cache disagrees: {verdict:?}")
                }
            }
        }
        self.accept(schedule, ZeroCertificate { times, valid }, 0)
    }

    /// Installs a freshly computed minimum schedule with its zero-profile
    /// certificate and reports the edit.
    fn accept(
        &mut self,
        schedule: RelativeSchedule,
        certificate: ZeroCertificate,
        warm_used: usize,
    ) -> EditOutcome {
        let iterations = schedule.iterations();
        let total_anchors = schedule.anchors().len();
        self.stats.reschedules += 1;
        self.stats.iterations += iterations;
        self.stats.warm_anchor_columns += warm_used;
        self.stats.cold_anchor_columns += total_anchors - warm_used;
        self.current = Some((schedule, certificate));
        self.posedness = WellPosedness::WellPosed;
        EditOutcome::Rescheduled {
            iterations,
            warm_anchors: warm_used,
            total_anchors,
        }
    }

    fn mark_unfeasible(&mut self, witness: VertexId) -> EditOutcome {
        self.stats.unfeasible += 1;
        self.posedness = WellPosedness::Unfeasible { witness };
        EditOutcome::Unfeasible { witness }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_core::schedule;

    /// A small design with one unbounded synchronization: source, a
    /// bounded producer chain, and a max constraint.
    fn demo() -> (ConstraintGraph, VertexId, VertexId, VertexId) {
        let mut g = ConstraintGraph::new();
        let sync = g.add_operation("sync", ExecDelay::Unbounded);
        let alu = g.add_operation("alu", ExecDelay::Fixed(2));
        let out = g.add_operation("out", ExecDelay::Fixed(1));
        g.add_dependency(sync, alu).unwrap();
        g.add_dependency(alu, out).unwrap();
        g.add_max_constraint(alu, out, 4).unwrap();
        g.polarize().unwrap();
        (g, sync, alu, out)
    }

    fn assert_matches_cold(session: &Session) {
        let cold = schedule(session.graph());
        match (session.posedness(), cold) {
            (WellPosedness::WellPosed, Ok(cold)) => {
                let warm = session.schedule().expect("schedule cached");
                assert_eq!(warm.anchors(), cold.anchors());
                for v in session.graph().vertex_ids() {
                    for &a in cold.anchors() {
                        assert_eq!(warm.offset(v, a), cold.offset(v, a), "σ_{a}({v})");
                    }
                }
            }
            (
                WellPosedness::Unfeasible { witness },
                Err(ScheduleError::Unfeasible { witness: w }),
            ) => {
                assert_eq!(*witness, w);
            }
            (
                WellPosedness::IllPosed { violations },
                Err(ScheduleError::IllPosed { from, to, missing }),
            ) => {
                assert_eq!(violations[0].from, from);
                assert_eq!(violations[0].to, to);
                assert_eq!(violations[0].missing, missing);
            }
            (state, cold) => panic!("verdict mismatch: session={state:?}, cold={cold:?}"),
        }
    }

    #[test]
    fn open_schedules_and_matches_cold() {
        let (g, ..) = demo();
        let session = Session::open(g).unwrap();
        assert!(session.posedness().is_well_posed());
        assert_matches_cold(&session);
        assert_eq!(session.stats().reschedules, 1);
    }

    #[test]
    fn additive_edit_warm_starts_every_anchor() {
        let (g, _, alu, out) = demo();
        let mut session = Session::open(g).unwrap();
        let outcome = session.add_min_constraint(alu, out, 3);
        let EditOutcome::Rescheduled {
            warm_anchors,
            total_anchors,
            ..
        } = outcome
        else {
            panic!("expected reschedule, got {outcome:?}");
        };
        assert_eq!(warm_anchors, total_anchors);
        assert_matches_cold(&session);
    }

    /// Removals and delay changes rerun the fixpoint cold: no column is
    /// carried over, and the result equals a cold schedule.
    #[test]
    fn subtractive_edits_run_cold() {
        let (mut g, _, alu, out) = demo();
        // A second, independent synchronization branch that cannot reach
        // the edited elements: it still restarts from zero.
        let side = g.add_operation("side_sync", ExecDelay::Unbounded);
        let side_op = g.add_operation("side_op", ExecDelay::Fixed(1));
        g.add_dependency(side, side_op).unwrap();
        g.polarize().unwrap();
        let mut session = Session::open(g).unwrap();
        let constraint = session
            .graph()
            .backward_edges()
            .map(|(id, _)| id)
            .next()
            .unwrap();
        let removed = session.remove_edge(constraint);
        assert_matches_cold(&session);
        let delayed = session.set_delay(alu, ExecDelay::Fixed(5));
        assert_matches_cold(&session);
        let dependency = session.edge_between(alu, out).unwrap();
        let cut = session.remove_edge(dependency);
        assert_matches_cold(&session);
        for outcome in [removed, delayed, cut] {
            let EditOutcome::Rescheduled {
                warm_anchors,
                total_anchors,
                ..
            } = outcome
            else {
                panic!("expected reschedule, got {outcome:?}");
            };
            assert_eq!(warm_anchors, 0);
            assert!(total_anchors >= 3, "source, sync and side_sync");
        }
        let stats = session.stats();
        assert_eq!(stats.warm_anchor_columns, 0);
        assert_eq!(stats.reschedules, 4);
    }

    #[test]
    fn set_delay_round_trip_matches_cold() {
        let (g, _, alu, _) = demo();
        let mut session = Session::open(g).unwrap();
        assert_eq!(
            session.set_delay(alu, ExecDelay::Fixed(2)),
            EditOutcome::Unchanged
        );
        // alu becomes an anchor; the max constraint now spans it and the
        // graph turns ill-posed — with the cold pipeline's witnesses.
        let outcome = session.set_delay(alu, ExecDelay::Unbounded);
        assert!(matches!(outcome, EditOutcome::IllPosed { .. }));
        assert_matches_cold(&session);
        // Back to fixed: well-posed again.
        let outcome = session.set_delay(alu, ExecDelay::Fixed(3));
        assert!(matches!(outcome, EditOutcome::Rescheduled { .. }));
        assert_matches_cold(&session);
    }

    #[test]
    fn unfeasible_edit_reports_cold_witness() {
        let (g, _, alu, out) = demo();
        let mut session = Session::open(g).unwrap();
        // min 9 against max 4 over the same pair: positive cycle.
        let outcome = session.add_min_constraint(alu, out, 9);
        assert!(matches!(outcome, EditOutcome::Unfeasible { .. }));
        assert_matches_cold(&session);
        assert_eq!(session.stats().unfeasible, 1);
    }

    #[test]
    fn rejected_edits_leave_state_intact() {
        let (g, _, alu, _) = demo();
        let mut session = Session::open(g).unwrap();
        let before = session.schedule().cloned();
        let bogus = VertexId::from_index(999);
        assert!(matches!(
            session.add_dependency(alu, bogus),
            EditOutcome::Rejected {
                error: GraphError::UnknownVertex(_)
            }
        ));
        assert!(matches!(
            session.set_delay(session.graph().source(), ExecDelay::Fixed(1)),
            EditOutcome::Rejected {
                error: GraphError::ImmutableVertex(_)
            }
        ));
        assert_eq!(session.schedule().cloned(), before);
        assert_eq!(session.stats().rejected, 2);
        assert_eq!(session.stats().edits, 0);
    }

    /// A reopened snapshot reports the live run's count in its schedule
    /// and in the stats, in place of its own cold run's.
    #[test]
    fn restored_iterations_replace_the_open_run_count() {
        let (g, ..) = demo();
        let mut session = Session::open(g).unwrap();
        let cold = session.schedule().unwrap().iterations();
        assert_eq!(session.stats().iterations, cold);
        session.restore_iterations(cold + 5);
        assert_eq!(session.schedule().unwrap().iterations(), cold + 5);
        assert_eq!(session.stats().iterations, cold + 5);
        assert_eq!(session.stats().reschedules, 1);
    }

    /// With parallel edges between one pair, the first live one in edge
    /// order is found — also after an earlier one was removed.
    #[test]
    fn edge_between_finds_the_first_live_parallel_edge() {
        let (g, sync, alu, out) = demo();
        let mut session = Session::open(g).unwrap();
        let dep = session.edge_between(alu, out).unwrap();
        assert!(session.add_min_constraint(alu, out, 3).is_scheduled());
        assert!(session.add_min_constraint(alu, out, 1).is_scheduled());
        let parallel: Vec<EdgeId> = session
            .graph()
            .edges()
            .filter(|(_, e)| e.from() == alu && e.to() == out)
            .map(|(id, _)| id)
            .collect();
        assert_eq!(parallel.len(), 3);
        assert_eq!(parallel[0], dep);
        session.remove_edge(dep);
        assert_eq!(session.edge_between(alu, out), Some(parallel[1]));
        session.remove_edge(parallel[1]);
        assert_eq!(session.edge_between(alu, out), Some(parallel[2]));
        session.remove_edge(parallel[2]);
        assert_eq!(session.edge_between(alu, out), None);
        // The backward max edge runs out -> alu, not alu -> out.
        assert!(session.edge_between(out, alu).is_some());
        assert_eq!(session.edge_between(sync, out), None);
        assert_eq!(session.edge_between(VertexId::from_index(999), out), None);
    }

    #[test]
    fn long_mixed_sequence_stays_consistent() {
        let (g, sync, alu, out) = demo();
        let mut session = Session::open(g).unwrap();
        assert!(session.add_max_constraint(alu, out, 9).is_scheduled());
        let e1 = session
            .graph()
            .backward_edges()
            .map(|(id, _)| id)
            .last()
            .unwrap();
        assert_matches_cold(&session);
        session.add_min_constraint(sync, alu, 1);
        assert_matches_cold(&session);
        session.remove_edge(e1);
        assert_matches_cold(&session);
        session.set_delay(out, ExecDelay::Unbounded);
        assert_matches_cold(&session);
        session.set_delay(out, ExecDelay::Fixed(2));
        assert_matches_cold(&session);
    }
}
