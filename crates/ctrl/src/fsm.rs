//! FSM / microcode control for the fixed-delay special case.
//!
//! "In the simple case where the hardware model does not contain any
//! unbounded delay operations, the task of control generation reduces to
//! the traditional control synthesis approaches of microprogrammed
//! controllers and FSM's" (§VI). When the only anchor is the source, the
//! relative schedule is a single column of offsets, and the control is a
//! Moore machine whose state counts cycles from activation: each state
//! asserts the start pulses of the operations scheduled at that cycle.
//! The same table read as a ROM is the microprogrammed implementation;
//! [`Fsm::rom_bits`] gives its size.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use rsched_core::RelativeSchedule;
use rsched_graph::{ConstraintGraph, VertexId};

/// Why FSM generation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FsmError {
    /// The schedule references anchors besides the source: the start
    /// times are not a single static sequence, so a counter/shift-register
    /// control (relative control) is required instead.
    UnboundedAnchors {
        /// The offending anchors.
        anchors: Vec<VertexId>,
    },
}

impl FsmError {
    /// Writes the message to `f`, naming each vertex with `name`.
    /// [`Display`](fmt::Display) names vertices by id (`v3`),
    /// [`FsmError::render`] by operation name.
    pub fn write_named(
        &self,
        f: &mut dyn fmt::Write,
        name: &dyn Fn(VertexId) -> String,
    ) -> fmt::Result {
        match self {
            FsmError::UnboundedAnchors { anchors } => {
                write!(f, "schedule depends on unbounded anchors [")?;
                for (i, &a) in anchors.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", name(a))?;
                }
                write!(f, "]; FSM control requires a fixed-delay design")
            }
        }
    }

    /// The message with each vertex named as in `graph`.
    pub fn render(&self, graph: &ConstraintGraph) -> String {
        let mut out = String::new();
        let _ = self.write_named(&mut out, &|v| graph.display_name(v));
        out
    }
}

impl fmt::Display for FsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_named(f, &|v| v.to_string())
    }
}

impl Error for FsmError {}

/// A Moore-machine controller for a fixed-delay schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fsm {
    /// `starts[s]` = operations whose start pulse is asserted in state `s`.
    starts: Vec<Vec<VertexId>>,
    n_outputs: usize,
}

impl Fsm {
    /// Builds the FSM from a single-anchor (source-only) schedule.
    ///
    /// # Errors
    ///
    /// Returns [`FsmError::UnboundedAnchors`] if any vertex tracks an
    /// anchor other than the source.
    pub fn from_schedule(
        graph: &ConstraintGraph,
        schedule: &RelativeSchedule,
    ) -> Result<Self, FsmError> {
        let source = graph.source();
        let mut foreign: Vec<VertexId> = Vec::new();
        for v in graph.vertex_ids() {
            for (a, _) in schedule.offsets_of(v) {
                if a != source && !foreign.contains(&a) {
                    foreign.push(a);
                }
            }
        }
        if !foreign.is_empty() {
            return Err(FsmError::UnboundedAnchors { anchors: foreign });
        }
        let horizon = schedule.max_offset(source).max(0) as usize;
        let mut starts: Vec<Vec<VertexId>> = vec![Vec::new(); horizon + 1];
        let mut n_outputs = 0;
        for v in graph.vertex_ids() {
            if v == source {
                continue;
            }
            if let Some(off) = schedule.offset(v, source) {
                starts[off.max(0) as usize].push(v);
                n_outputs += 1;
            }
        }
        Ok(Fsm { starts, n_outputs })
    }

    /// Number of states (the schedule horizon + 1).
    pub fn n_states(&self) -> usize {
        self.starts.len()
    }

    /// Operations started in state `s`.
    pub fn starts_in(&self, s: usize) -> &[VertexId] {
        &self.starts[s]
    }

    /// Number of controlled operations (output lines).
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    /// Size of the equivalent microcode ROM in bits: one word per state,
    /// one bit per controlled operation.
    pub fn rom_bits(&self) -> usize {
        self.n_states() * self.n_outputs
    }

    /// State register width for an FSM encoding.
    pub fn state_bits(&self) -> usize {
        (usize::BITS - (self.n_states().max(1) - 1).leading_zeros()).max(1) as usize
    }

    /// The microcode ROM: one word per state, one bit per controlled
    /// operation (bit `k` of word `s` = operation `outputs()[k]` starts in
    /// state `s`) — the ROM-based microprogrammed implementation §VI
    /// mentions.
    pub fn rom_words(&self) -> (Vec<VertexId>, Vec<Vec<bool>>) {
        let mut outputs: Vec<VertexId> = self.starts.iter().flatten().copied().collect();
        outputs.sort();
        let words = self
            .starts
            .iter()
            .map(|vs| {
                outputs
                    .iter()
                    .map(|v| vs.contains(v))
                    .collect::<Vec<bool>>()
            })
            .collect();
        (outputs, words)
    }

    /// The start schedule as `(state, vertex)` pulses in state order.
    pub fn pulses(&self) -> impl Iterator<Item = (usize, VertexId)> + '_ {
        self.starts
            .iter()
            .enumerate()
            .flat_map(|(s, vs)| vs.iter().map(move |&v| (s, v)))
    }

    /// A readable state table.
    pub fn describe(&self, graph: &ConstraintGraph) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "FSM controller: {} states ({} state bits), {} outputs, ROM {} bits",
            self.n_states(),
            self.state_bits(),
            self.n_outputs,
            self.rom_bits()
        );
        for (s, vs) in self.starts.iter().enumerate() {
            let names: Vec<&str> = vs.iter().map(|&v| graph.vertex(v).name()).collect();
            let _ = writeln!(out, "  state {s:>3}: start {{{}}}", names.join(", "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::{generate, ControlStyle};
    use rsched_core::schedule;
    use rsched_graph::{ConstraintGraph, ExecDelay};

    fn fixed_chain() -> (ConstraintGraph, Vec<VertexId>) {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(2));
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        let c = g.add_operation("c", ExecDelay::Fixed(3));
        g.add_dependency(a, b).unwrap();
        g.add_dependency(a, c).unwrap();
        g.polarize().unwrap();
        (g, vec![a, b, c])
    }

    #[test]
    fn fsm_states_follow_offsets() {
        let (g, vs) = fixed_chain();
        let omega = schedule(&g).unwrap();
        let fsm = Fsm::from_schedule(&g, &omega).unwrap();
        // a at 0; b, c at 2; sink at 5 => 6 states.
        assert_eq!(fsm.n_states(), 6);
        assert_eq!(fsm.starts_in(0), &[vs[0]]);
        assert_eq!(fsm.starts_in(2), &[vs[1], vs[2]]);
        assert!(fsm.starts_in(1).is_empty());
        assert_eq!(fsm.n_outputs(), 4); // a, b, c, sink
        assert_eq!(fsm.rom_bits(), 24);
        assert_eq!(fsm.state_bits(), 3);
    }

    #[test]
    fn fsm_pulses_match_relative_control_under_zero_profile() {
        // The FSM's start pulses must coincide with the cycle at which
        // the relative (counter) control first enables each operation.
        let (g, _) = fixed_chain();
        let omega = schedule(&g).unwrap();
        let fsm = Fsm::from_schedule(&g, &omega).unwrap();
        let unit = generate(&g, &omega, ControlStyle::Counter);
        let mut state = unit.new_state();
        state.assert_done(g.source());
        let mut first_enable = std::collections::HashMap::new();
        for cycle in 0..fsm.n_states() as u64 {
            for v in g.vertex_ids() {
                if state.enable(v) {
                    first_enable.entry(v).or_insert(cycle);
                }
            }
            state.tick();
        }
        for (s, v) in fsm.pulses() {
            assert_eq!(first_enable.get(&v), Some(&(s as u64)), "{v}");
        }
    }

    #[test]
    fn rom_words_encode_the_state_table() {
        let (g, vs) = fixed_chain();
        let omega = schedule(&g).unwrap();
        let fsm = Fsm::from_schedule(&g, &omega).unwrap();
        let (outputs, words) = fsm.rom_words();
        assert_eq!(words.len(), fsm.n_states());
        assert_eq!(outputs.len(), fsm.n_outputs());
        assert_eq!(
            words.iter().flatten().filter(|&&b| b).count(),
            fsm.n_outputs(),
            "each operation starts exactly once"
        );
        // a starts in state 0.
        let a_bit = outputs.iter().position(|&v| v == vs[0]).unwrap();
        assert!(words[0][a_bit]);
        assert!(!words[1][a_bit]);
    }

    #[test]
    fn fsm_refuses_unbounded_designs() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("sync", ExecDelay::Unbounded);
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap();
        g.polarize().unwrap();
        let omega = schedule(&g).unwrap();
        let err = Fsm::from_schedule(&g, &omega).unwrap_err();
        assert!(matches!(err, FsmError::UnboundedAnchors { ref anchors } if anchors == &[a]));
        let tail = "; FSM control requires a fixed-delay design";
        assert_eq!(
            err.to_string(),
            format!("schedule depends on unbounded anchors [v2]{tail}")
        );
        assert_eq!(
            err.render(&g),
            format!("schedule depends on unbounded anchors [sync]{tail}")
        );
    }

    #[test]
    fn describe_lists_every_state() {
        let (g, _) = fixed_chain();
        let omega = schedule(&g).unwrap();
        let fsm = Fsm::from_schedule(&g, &omega).unwrap();
        let text = fsm.describe(&g);
        assert!(text.contains("6 states"));
        for s in 0..fsm.n_states() {
            assert!(text.contains(&format!("state {s:>3}:")));
        }
    }
}
