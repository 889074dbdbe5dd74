//! Concrete counter-examples for ill-posed constraints.
//!
//! Lemma 1's necessity proof is constructive: if `A(v_j) ⊄ A(v_i)` for a
//! maximum constraint `u_ij`, there is an anchor `b` gating `v_j` but not
//! `v_i`, and "it is always possible to find a value of δ(b) such that the
//! inequality is violated". This module computes that value, turning an
//! [`IllPosedEdge`](crate::IllPosedEdge) diagnostic into a *delay profile*
//! under which any schedule must break the constraint — directly
//! checkable by evaluating start times (or by simulation, as the
//! integration tests do).

use rsched_graph::{ConstraintGraph, VertexId};

use crate::schedule::RelativeSchedule;
use crate::start_time::{profile_for, DelayProfile};
use crate::wellposed::IllPosedEdge;

/// A concrete demonstration that a maximum constraint is ill-posed.
#[derive(Debug, Clone)]
pub struct IllPosednessWitness {
    /// The backward edge (tail = constrained target, head = constraint
    /// source).
    pub edge: (VertexId, VertexId),
    /// The anchor whose delay defeats the constraint.
    pub culprit: VertexId,
    /// The delay profile realizing the violation (all other unbounded
    /// delays 0).
    pub profile: DelayProfile,
    /// The culprit's delay in that profile.
    pub delay: u64,
}

/// Builds a violating delay profile for an ill-posed backward edge
/// (as reported by [`check_well_posed`](crate::check_well_posed)).
///
/// The returned profile sets the first missing anchor's delay to
/// `u + slack + 1`, where `u` is the maximum-constraint bound and `slack`
/// the static head-start of the constraint's source — enough to defeat
/// any schedule, since the tail's start time grows with the culprit's
/// delay while the head's does not.
///
/// `violation` must come from a [`check_well_posed`](crate::check_well_posed)
/// of `graph`; the function panics on one that names no backward edge.
pub fn ill_posedness_witness(
    graph: &ConstraintGraph,
    schedule: &RelativeSchedule,
    violation: &IllPosedEdge,
) -> IllPosednessWitness {
    let culprit = *violation
        .missing
        .first()
        .expect("an ill-posed edge names at least one missing anchor");
    // The backward edge runs violation.from (tail) -> violation.to (head)
    // with weight -u: the constraint is σ(tail) ≤ σ(head) + u.
    let (_, edge) = graph
        .backward_edges()
        .find(|(_, e)| e.from() == violation.from && e.to() == violation.to)
        .expect("violation references an existing backward edge");
    let u = (-edge.weight().zeroed()).max(0) as u64;
    // Static offsets bound the head's start when all delays are 0; the
    // tail waits for the culprit's completion plus its (non-negative)
    // offset. δ(culprit) = u + σ-gap + 1 therefore forces
    // T(tail) > T(head) + u.
    let head_static: u64 = schedule
        .offsets_of(violation.to)
        .map(|(_, o)| o.max(0) as u64)
        .max()
        .unwrap_or(0);
    let delay = u + head_static + 1;
    let mut builder = profile_for(graph);
    if culprit != graph.source() {
        builder = builder.with_delay(culprit, delay);
    }
    IllPosednessWitness {
        edge: (violation.from, violation.to),
        culprit,
        profile: builder.build(),
        delay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anchors::AnchorSets;
    use crate::schedule::schedule_with_sets;
    use crate::start_time::{start_times, verify_start_times};
    use crate::wellposed::{check_well_posed, WellPosedness};
    use rsched_graph::ExecDelay;

    /// Fig. 3(b): the witness profile defeats the constraint no matter
    /// what (legal) schedule is used.
    #[test]
    fn witness_defeats_fig3b() {
        let mut g = ConstraintGraph::new();
        let a1 = g.add_operation("a1", ExecDelay::Unbounded);
        let a2 = g.add_operation("a2", ExecDelay::Unbounded);
        let vi = g.add_operation("vi", ExecDelay::Fixed(1));
        let vj = g.add_operation("vj", ExecDelay::Fixed(1));
        g.add_dependency(a1, vi).unwrap();
        g.add_dependency(a2, vj).unwrap();
        g.add_max_constraint(vi, vj, 4).unwrap();
        g.polarize().unwrap();

        let WellPosedness::IllPosed { violations } = check_well_posed(&g) else {
            panic!("expected ill-posed");
        };
        // Schedule ignoring well-posedness (offsets still satisfy the
        // static inequalities).
        let Ok(sets) = AnchorSets::compute(&g);
        let omega = schedule_with_sets(&g, sets.family()).unwrap();
        let witness = ill_posedness_witness(&g, &omega, &violations[0]);
        assert_eq!(witness.culprit, a2);
        assert!(witness.delay > 4);

        // Under the witness profile the max constraint breaks.
        let times = start_times(&g, &omega, &witness.profile);
        let broken = verify_start_times(&g, &times, &witness.profile);
        assert!(
            broken.iter().any(|v| {
                let e = g.edge(v.edge);
                (e.from(), e.to()) == witness.edge
            }),
            "witness must break the diagnosed constraint: {broken:?}"
        );
        let _ = a1;
    }

    /// After makeWellposed, the same profile no longer violates anything.
    #[test]
    fn repair_neutralizes_the_witness() {
        let mut g = ConstraintGraph::new();
        let a1 = g.add_operation("a1", ExecDelay::Unbounded);
        let a2 = g.add_operation("a2", ExecDelay::Unbounded);
        let vi = g.add_operation("vi", ExecDelay::Fixed(1));
        let vj = g.add_operation("vj", ExecDelay::Fixed(1));
        g.add_dependency(a1, vi).unwrap();
        g.add_dependency(a2, vj).unwrap();
        g.add_max_constraint(vi, vj, 4).unwrap();
        g.polarize().unwrap();
        let WellPosedness::IllPosed { violations } = check_well_posed(&g) else {
            panic!("expected ill-posed");
        };
        let Ok(sets) = AnchorSets::compute(&g);
        let omega = schedule_with_sets(&g, sets.family()).unwrap();
        let witness = ill_posedness_witness(&g, &omega, &violations[0]);

        crate::wellposed::make_well_posed(&mut g).unwrap();
        let repaired = crate::schedule::schedule(&g).unwrap();
        let times = start_times(&g, &repaired, &witness.profile);
        assert!(
            verify_start_times(&g, &times, &witness.profile).is_empty(),
            "the repaired schedule honours the constraint under the witness profile"
        );
    }
}
