use std::error::Error;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rsched_core::{profile_for, verify_start_times, DelayProfile, TimingViolation};
use rsched_ctrl::ControlUnit;
use rsched_graph::{ConstraintGraph, ExecDelay, VertexId};

use crate::trace::{Event, EventKind};

/// Where the simulator draws unbounded execution delays from.
#[derive(Debug, Clone)]
pub enum DelaySource {
    /// A fixed, caller-chosen profile.
    Profile(DelayProfile),
    /// Seeded uniform random delays in `0..=max` per anchor.
    Random {
        /// RNG seed (reproducible runs).
        seed: u64,
        /// Inclusive upper bound per unbounded delay.
        max: u64,
    },
}

impl DelaySource {
    /// Shorthand for [`DelaySource::Random`].
    pub fn random(seed: u64, max: u64) -> Self {
        DelaySource::Random { seed, max }
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The run did not complete within the cycle budget (an operation
    /// never became enabled — e.g. control generated from an unscheduled
    /// or inconsistent specification).
    Timeout {
        /// The budget that was exhausted.
        max_cycles: u64,
        /// Operations that never started.
        stuck: Vec<VertexId>,
    },
    /// A hierarchical run could not look up a sequencing graph of its
    /// design (see [`crate::run_hierarchical`]).
    Analysis(String),
}

impl SimError {
    /// Writes the message to `f`, naming each vertex with `name`: the
    /// one place the message text lives. [`Display`](fmt::Display) names
    /// vertices by id (`v3`), [`SimError::render`] by operation name.
    pub fn write_named(
        &self,
        f: &mut dyn fmt::Write,
        name: &dyn Fn(VertexId) -> String,
    ) -> fmt::Result {
        match self {
            SimError::Timeout { max_cycles, stuck } => {
                write!(f, "simulation exceeded {max_cycles} cycles; stuck: ")?;
                for (i, v) in stuck.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", name(*v))?;
                }
                Ok(())
            }
            SimError::Analysis(msg) => write!(f, "hierarchy lookup failed: {msg}"),
        }
    }

    /// The message with each vertex named as in `graph`.
    pub fn render(&self, graph: &ConstraintGraph) -> String {
        let mut out = String::new();
        let _ = self.write_named(&mut out, &|v| graph.display_name(v));
        out
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_named(f, &|v| v.to_string())
    }
}

impl Error for SimError {}

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Observed start cycle of every vertex.
    pub start: Vec<u64>,
    /// Observed completion (done) cycle of every vertex.
    pub done: Vec<u64>,
    /// The delay profile realized in this run.
    pub profile: DelayProfile,
    /// Cycle at which the sink completed.
    pub total_cycles: u64,
    /// Timing-constraint violations of the *observed* start times (empty
    /// for a correct schedule/control pair).
    pub violations: Vec<TimingViolation>,
    /// `true` when every observed start time equals the analytic
    /// `T(v) = max_a {T(a) + δ(a) + σ_a(v)}`.
    pub matches_analytic: bool,
    /// Chronological start/done event log.
    pub events: Vec<Event>,
}

/// A cycle-accurate simulator executing a constraint graph under a
/// generated control unit.
#[derive(Debug)]
pub struct Simulator<'g, 'u> {
    graph: &'g ConstraintGraph,
    unit: &'u ControlUnit,
    max_cycles: u64,
}

impl<'g, 'u> Simulator<'g, 'u> {
    /// Creates a simulator with a default cycle budget proportional to the
    /// design size.
    pub fn new(graph: &'g ConstraintGraph, unit: &'u ControlUnit) -> Self {
        Simulator {
            graph,
            unit,
            max_cycles: 10_000 + graph.n_vertices() as u64 * 64,
        }
    }

    /// Overrides the cycle budget.
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    fn realize_profile(&self, source: &DelaySource) -> DelayProfile {
        match source {
            DelaySource::Profile(p) => p.clone(),
            DelaySource::Random { seed, max } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let mut builder = profile_for(self.graph);
                for v in self.graph.operation_ids() {
                    if matches!(self.graph.vertex(v).delay(), ExecDelay::Unbounded) {
                        builder = builder.with_delay(v, rng.gen_range(0..=*max));
                    }
                }
                builder.build()
            }
        }
    }

    /// Runs one activation of the graph to completion.
    ///
    /// Per cycle: completions assert their `done` into the control,
    /// enables are sampled (combinationally, so zero-delay chains resolve
    /// within the cycle), newly enabled operations start, and the clock
    /// ticks.
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] if some operation never starts within the
    /// cycle budget.
    pub fn run(&self, delays: &DelaySource) -> Result<SimReport, SimError> {
        let profile = self.realize_profile(delays);
        let n = self.graph.n_vertices();
        let mut start: Vec<Option<u64>> = vec![None; n];
        let mut done: Vec<Option<u64>> = vec![None; n];
        let mut events = Vec::new();
        let mut state = self.unit.new_state();

        for cycle in 0..self.max_cycles {
            // Completions scheduled for this cycle (by start + delay).
            // Zero-delay chains: iterate to a fixpoint within the cycle.
            loop {
                let mut progressed = false;
                for v in self.graph.vertex_ids() {
                    if let (Some(s), None) = (start[v.index()], done[v.index()]) {
                        if s + profile.delay(v) == cycle {
                            done[v.index()] = Some(cycle);
                            events.push(Event {
                                cycle,
                                kind: EventKind::Done(v),
                            });
                            if self.graph.is_anchor(v) {
                                state.assert_done(v);
                            }
                            progressed = true;
                        }
                    }
                }
                for v in self.graph.vertex_ids() {
                    if start[v.index()].is_none() && state.enable(v) {
                        // The source additionally needs no trigger; other
                        // vertices start when their enable conjunction
                        // holds.
                        start[v.index()] = Some(cycle);
                        events.push(Event {
                            cycle,
                            kind: EventKind::Start(v),
                        });
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
            if done.iter().all(|d| d.is_some()) {
                break;
            }
            state.tick();
        }

        if start.iter().any(|s| s.is_none()) || done.iter().any(|d| d.is_none()) {
            return Err(SimError::Timeout {
                max_cycles: self.max_cycles,
                stuck: self
                    .graph
                    .vertex_ids()
                    .filter(|v| start[v.index()].is_none())
                    .collect(),
            });
        }
        let start: Vec<u64> = start.into_iter().map(|s| s.expect("checked")).collect();
        let done: Vec<u64> = done.into_iter().map(|d| d.expect("checked")).collect();

        // Check against the analytic recursion and the constraints.
        let observed = rsched_core::StartTimes::from_raw(start.clone());
        let violations = verify_start_times(self.graph, &observed, &profile);
        let matches_analytic = self.check_analytic(&start, &profile);

        Ok(SimReport {
            total_cycles: done[self.graph.sink().index()],
            start,
            done,
            profile,
            violations,
            matches_analytic,
            events,
        })
    }

    /// Runs one activation against the *gate-level* synthesis of the
    /// control unit ([`rsched_ctrl::synthesize`]) instead of the
    /// behavioural model: done events become single-cycle input pulses
    /// into the logic simulator, and enables are sampled from the
    /// synthesized nets. By construction the report must match
    /// [`Simulator::run`] exactly (covered by tests) — this is the
    /// "logic-level implementations have been extensively simulated"
    /// validation of §VII.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`].
    pub fn run_gate_level(&self, delays: &DelaySource) -> Result<SimReport, SimError> {
        let profile = self.realize_profile(delays);
        let synth = rsched_ctrl::synthesize(self.unit);
        let mut logic = rsched_ctrl::LogicSim::new(synth.netlist.clone());
        let n = self.graph.n_vertices();
        let mut start: Vec<Option<u64>> = vec![None; n];
        let mut done: Vec<Option<u64>> = vec![None; n];
        let mut events = Vec::new();

        for cycle in 0..self.max_cycles {
            // Clear last cycle's pulses.
            for (_, net) in &synth.done_inputs {
                logic.set(*net, false);
            }
            loop {
                let mut progressed = false;
                for v in self.graph.vertex_ids() {
                    if let (Some(s), None) = (start[v.index()], done[v.index()]) {
                        if s + profile.delay(v) == cycle {
                            done[v.index()] = Some(cycle);
                            events.push(Event {
                                cycle,
                                kind: EventKind::Done(v),
                            });
                            if let Some(net) = synth.done_net(v) {
                                logic.set(net, true);
                            }
                            progressed = true;
                        }
                    }
                }
                logic.settle();
                for v in self.graph.vertex_ids() {
                    let enable = synth
                        .enable_net(v)
                        .map(|net| logic.get(net))
                        .unwrap_or(false);
                    if start[v.index()].is_none() && enable {
                        start[v.index()] = Some(cycle);
                        events.push(Event {
                            cycle,
                            kind: EventKind::Start(v),
                        });
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
            if done.iter().all(|d| d.is_some()) {
                break;
            }
            logic.tick();
        }

        if start.iter().any(|s| s.is_none()) || done.iter().any(|d| d.is_none()) {
            return Err(SimError::Timeout {
                max_cycles: self.max_cycles,
                stuck: self
                    .graph
                    .vertex_ids()
                    .filter(|v| start[v.index()].is_none())
                    .collect(),
            });
        }
        let start: Vec<u64> = start.into_iter().map(|s| s.expect("checked")).collect();
        let done: Vec<u64> = done.into_iter().map(|d| d.expect("checked")).collect();
        let observed = rsched_core::StartTimes::from_raw(start.clone());
        let violations = verify_start_times(self.graph, &observed, &profile);
        let matches_analytic = self.check_analytic(&start, &profile);
        Ok(SimReport {
            total_cycles: done[self.graph.sink().index()],
            start,
            done,
            profile,
            violations,
            matches_analytic,
            events,
        })
    }

    /// Runs `n` successive activations (e.g. repeated restarts of an I/O
    /// block), drawing a fresh delay profile per activation by offsetting
    /// the seed of a [`DelaySource::Random`] (a fixed profile repeats
    /// unchanged). Each activation restarts the control from reset, as the
    /// adaptive-control scheme does between invocations of a sequencing
    /// graph.
    ///
    /// # Errors
    ///
    /// Fails on the first activation that errors.
    pub fn run_repeated(&self, n: usize, delays: &DelaySource) -> Result<Vec<SimReport>, SimError> {
        (0..n)
            .map(|k| {
                let source = match delays {
                    DelaySource::Profile(p) => DelaySource::Profile(p.clone()),
                    DelaySource::Random { seed, max } => DelaySource::Random {
                        seed: seed.wrapping_add(k as u64),
                        max: *max,
                    },
                };
                self.run(&source)
            })
            .collect()
    }

    fn check_analytic(&self, observed: &[u64], profile: &DelayProfile) -> bool {
        // Recompute the schedule the control was generated from is not
        // available here; instead evaluate the recursion directly over the
        // control unit's enable terms, which embed the offsets.
        let topo = self.graph.forward_topological_order();
        let mut t = vec![0u64; self.graph.n_vertices()];
        for &v in topo.order() {
            let mut best = 0u64;
            for term in self.unit.enable_terms(v) {
                let cand = t[term.anchor.index()] + profile.delay(term.anchor) + term.offset;
                best = best.max(cand);
            }
            t[v.index()] = best;
        }
        self.graph
            .vertex_ids()
            .all(|v| t[v.index()] == observed[v.index()])
    }
}
