//! One-call synthesis flow: HardwareC source → scheduled, controlled,
//! simulation-validated design.
//!
//! This is the paper's Fig. 9 pipeline plus control generation (§VI) and
//! the validation simulation (§VII), behind a single entry point.

use rsched_ctrl::{generate, ControlStyle, ControlUnit};
use rsched_graph::ExecDelay;
use rsched_sgraph::{DesignSchedule, SeqGraphId};
use rsched_sim::{run_hierarchical, GraphActivation, HierConfig};

/// Options for [`synthesize`].
#[derive(Debug, Clone)]
pub struct FlowOptions {
    /// Control implementation style.
    pub style: ControlStyle,
    /// Generate control from the irredundant anchor sets (§VI
    /// recommendation).
    pub irredundant: bool,
    /// Number of validation simulations to run (0 to skip).
    pub validation_runs: u64,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            style: ControlStyle::ShiftRegister,
            irredundant: true,
            validation_runs: 4,
        }
    }
}

/// A completed synthesis: compiled design, hierarchical schedule,
/// per-graph control units, and validation outcomes.
#[derive(Debug)]
pub struct Synthesis {
    /// The compiled design (hierarchy + tags).
    pub compiled: rsched_hdl::CompiledDesign,
    /// Per-graph relative schedules and analyses.
    pub schedule: DesignSchedule,
    /// One control unit per sequencing graph (indexed by graph).
    pub control: Vec<ControlUnit>,
    /// Hierarchical validation runs (empty when `validation_runs` is 0).
    pub validations: Vec<GraphActivation>,
}

impl Synthesis {
    /// The control unit of a graph.
    pub fn control_of(&self, graph: SeqGraphId) -> &ControlUnit {
        &self.control[graph.index()]
    }

    /// `true` when every validation run completed without timing
    /// violations and matched the analytic start times.
    pub fn validated(&self) -> bool {
        !self.validations.is_empty() && self.validations.iter().all(GraphActivation::all_clean)
    }

    /// Opens an incremental re-scheduling [`Session`](rsched_engine::Session)
    /// on the lowered constraint graph of `graph`, for interactive
    /// constraint exploration after synthesis (what-if latency bounds,
    /// added serializations) without re-running the front end.
    ///
    /// # Errors
    ///
    /// Returns the [`GraphError`](rsched_graph::GraphError) of polarizing
    /// the graph; cannot normally fail, since the flow lowered this graph
    /// polar.
    pub fn edit_session(
        &self,
        graph: SeqGraphId,
    ) -> Result<rsched_engine::Session, rsched_graph::GraphError> {
        rsched_engine::Session::open(self.schedule.graph_schedule(graph).lowered.graph.clone())
    }

    /// Latency of the root graph: fixed cycles, or `None` when unbounded
    /// (data-dependent).
    pub fn root_latency(&self) -> Option<u64> {
        let root = self.compiled.design.root().ok()?;
        match self.schedule.graph_schedule(root).latency {
            ExecDelay::Fixed(l) => Some(l),
            ExecDelay::Unbounded => None,
        }
    }
}

/// Errors of the one-call flow.
#[derive(Debug)]
pub enum FlowError {
    /// Front-end failure (lex/parse/sema/elaboration).
    Hdl(rsched_hdl::HdlError),
    /// Scheduling failure (unfeasible or unserializable constraints).
    Schedule(rsched_sgraph::SgraphError),
    /// A validation simulation failed outright (not a constraint
    /// violation — those are reported via [`Synthesis::validated`]).
    Simulation(rsched_sim::SimError),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Hdl(e) => write!(f, "{e}"),
            FlowError::Schedule(e) => write!(f, "{e}"),
            FlowError::Simulation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FlowError {}

/// Compiles, schedules, generates control for, and validates a HardwareC
/// description in one call.
///
/// # Errors
///
/// Returns [`FlowError`] at the first failing stage; constraint-violating
/// validations do **not** error (check [`Synthesis::validated`]).
///
/// # Example
///
/// ```
/// use relative_scheduling::{synthesize, FlowOptions};
///
/// let synth = synthesize(
///     relative_scheduling::designs::GCD_HARDWAREC,
///     &FlowOptions::default(),
/// )?;
/// assert!(synth.validated());
/// assert_eq!(synth.root_latency(), None); // gcd is data-dependent
/// # Ok::<(), relative_scheduling::FlowError>(())
/// ```
pub fn synthesize(source: &str, options: &FlowOptions) -> Result<Synthesis, FlowError> {
    let compiled = rsched_hdl::compile(source).map_err(FlowError::Hdl)?;
    let schedule = rsched_sgraph::schedule_design(&compiled.design).map_err(FlowError::Schedule)?;
    let control: Vec<ControlUnit> = schedule
        .graph_schedules()
        .iter()
        .map(|gs| {
            let omega = if options.irredundant {
                &gs.schedule_ir
            } else {
                &gs.schedule
            };
            generate(&gs.lowered.graph, omega, options.style)
        })
        .collect();
    let mut validations = Vec::new();
    for seed in 0..options.validation_runs {
        let act = run_hierarchical(
            &compiled.design,
            &schedule,
            &HierConfig {
                seed,
                style: options.style,
                irredundant: options.irredundant,
                ..HierConfig::default()
            },
        )
        .map_err(FlowError::Simulation)?;
        validations.push(act);
    }
    Ok(Synthesis {
        compiled,
        schedule,
        control,
        validations,
    })
}
