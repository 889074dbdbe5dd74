//! Differential property test: an incremental [`Session`] fed a random
//! edit sequence must agree, after **every** edit, with a cold
//! [`rsched_core::schedule`] of the same graph — identical offsets,
//! identical anchor sets, and an identical well-posedness verdict
//! (including ill-posedness violation lists and unfeasibility witnesses).
//!
//! The mirror graph applies the same mutations through the plain
//! `ConstraintGraph` API, so the test also pins down that the session
//! accepts and rejects exactly the edits the graph layer does.
//!
//! The cold result at every step is additionally judged by the
//! first-principles oracle (`rsched_oracle::check_result`), so the warm
//! and cold paths are not just pinned to each other — both are pinned to
//! an independent re-derivation of the paper's theorems.

use proptest::prelude::*;

use rsched_core::{check_well_posed, schedule, ScheduleError, WellPosedness};
use rsched_designs::random::{random_constraint_graph, RandomGraphConfig};
use rsched_engine::{EditOutcome, Session};
use rsched_graph::{ConstraintGraph, EdgeId, ExecDelay, VertexId};

/// One random edit; indices are resolved modulo the live operation/edge
/// counts at application time.
#[derive(Debug, Clone)]
enum EditSpec {
    AddDep(usize, usize),
    AddMin(usize, usize, u64),
    AddMax(usize, usize, u64),
    RemoveEdge(usize),
    /// `0` means unbounded, `d > 0` means `Fixed(d)`.
    SetDelay(usize, u64),
}

fn edit_spec() -> BoxedStrategy<EditSpec> {
    prop_oneof![
        1 => (0usize..64, 0usize..64).prop_map(|(a, b)| EditSpec::AddDep(a, b)),
        1 => (0usize..64, 0usize..64, 0u64..6).prop_map(|(a, b, l)| EditSpec::AddMin(a, b, l)),
        2 => (0usize..64, 0usize..64, 0u64..12).prop_map(|(a, b, u)| EditSpec::AddMax(a, b, u)),
        2 => (0usize..256).prop_map(EditSpec::RemoveEdge),
        2 => (0usize..64, 0u64..5).prop_map(|(v, d)| EditSpec::SetDelay(v, d)),
    ]
    .boxed()
}

fn pick(list: &[VertexId], i: usize) -> VertexId {
    list[i % list.len()]
}

/// Applies `spec` to both sides and checks that acceptance matches;
/// returns the session's outcome (`None` when there was no edge to
/// remove).
fn apply(
    spec: &EditSpec,
    session: &mut Session,
    mirror: &mut ConstraintGraph,
) -> Option<EditOutcome> {
    let ops: Vec<VertexId> = mirror.operation_ids().collect();
    match *spec {
        EditSpec::AddDep(a, b) => {
            let (f, t) = (pick(&ops, a), pick(&ops, b));
            let cold = mirror.add_dependency(f, t);
            let warm = session.add_dependency(f, t);
            assert_accepts_match(&warm, &cold.map(|_| ()));
            Some(warm)
        }
        EditSpec::AddMin(a, b, l) => {
            let (f, t) = (pick(&ops, a), pick(&ops, b));
            let cold = mirror.add_min_constraint(f, t, l);
            let warm = session.add_min_constraint(f, t, l);
            assert_accepts_match(&warm, &cold.map(|_| ()));
            Some(warm)
        }
        EditSpec::AddMax(a, b, u) => {
            let (f, t) = (pick(&ops, a), pick(&ops, b));
            let cold = mirror.add_max_constraint(f, t, u);
            let warm = session.add_max_constraint(f, t, u);
            assert_accepts_match(&warm, &cold.map(|_| ()));
            Some(warm)
        }
        EditSpec::RemoveEdge(k) => {
            let edges: Vec<EdgeId> = mirror.edges().map(|(id, _)| id).collect();
            if edges.is_empty() {
                return None;
            }
            let e = edges[k % edges.len()];
            mirror.remove_edge(e).expect("picked a live edge");
            let warm = session.remove_edge(e);
            assert!(
                !matches!(warm, EditOutcome::Rejected { .. }),
                "session rejected a live edge removal: {warm:?}"
            );
            Some(warm)
        }
        EditSpec::SetDelay(v, d) => {
            let v = pick(&ops, v);
            let delay = if d == 0 {
                ExecDelay::Unbounded
            } else {
                ExecDelay::Fixed(d)
            };
            let cold = mirror.set_delay(v, delay);
            let warm = session.set_delay(v, delay);
            match (&warm, &cold) {
                (EditOutcome::Unchanged, Ok(false)) => {}
                (EditOutcome::Rejected { error }, Err(e)) => assert_eq!(error, e),
                (w, Ok(true))
                    if !matches!(w, EditOutcome::Rejected { .. } | EditOutcome::Unchanged) => {}
                (w, c) => panic!("set_delay divergence: session={w:?}, mirror={c:?}"),
            }
            Some(warm)
        }
    }
}

fn assert_accepts_match(warm: &EditOutcome, cold: &Result<(), rsched_graph::GraphError>) {
    match (warm, cold) {
        (EditOutcome::Rejected { error }, Err(e)) => assert_eq!(error, e),
        (EditOutcome::Rejected { error }, Ok(())) => {
            panic!("session rejected an edit the graph accepts: {error}")
        }
        (w, Err(e)) => panic!("session accepted an edit the graph rejects ({e}): {w:?}"),
        _ => {}
    }
}

/// The core comparison: session state vs a from-scratch analysis of the
/// mirror graph.
fn assert_matches_cold(session: &Session, mirror: &ConstraintGraph, step: usize) {
    assert_eq!(session.graph().n_edges(), mirror.n_edges(), "step {step}");
    assert_eq!(
        session.graph().n_vertices(),
        mirror.n_vertices(),
        "step {step}"
    );

    // Verdicts must be identical, including violation lists and witnesses.
    let cold_verdict = check_well_posed(mirror).expect("structurally sound");
    assert_eq!(
        session.posedness(),
        &cold_verdict,
        "verdict divergence at step {step}"
    );

    // Anchor sets must be identical.
    let cold = schedule(mirror);

    // Independent referee: whatever the cold path produced — schedule or
    // rejection — must be exactly what the theorems demand of this graph.
    let report = rsched_oracle::check_result(mirror, &cold);
    assert!(
        report.is_ok(),
        "oracle rejected the cold result at step {step}:\n{report}"
    );
    let cold_sets = rsched_core::AnchorSets::compute(mirror).unwrap();
    for v in mirror.vertex_ids() {
        let warm_set: Vec<VertexId> = session.anchor_sets().set(v).collect();
        let cold_set: Vec<VertexId> = cold_sets.set(v).collect();
        assert_eq!(warm_set, cold_set, "A({v}) divergence at step {step}");
    }

    match (&cold_verdict, cold) {
        (WellPosedness::WellPosed, Ok(cold)) => {
            let warm = session
                .schedule()
                .expect("well-posed session holds a schedule");
            assert_eq!(warm.anchors(), cold.anchors(), "step {step}");
            for v in mirror.vertex_ids() {
                for &a in cold.anchors() {
                    assert_eq!(
                        warm.offset(v, a),
                        cold.offset(v, a),
                        "σ_{a}({v}) divergence at step {step}"
                    );
                }
            }
        }
        (WellPosedness::Unfeasible { witness }, Err(ScheduleError::Unfeasible { witness: w })) => {
            assert_eq!(*witness, w, "step {step}")
        }
        (
            WellPosedness::IllPosed { violations },
            Err(ScheduleError::IllPosed { from, to, missing }),
        ) => {
            assert_eq!(violations[0].from, from, "step {step}");
            assert_eq!(violations[0].to, to, "step {step}");
            assert_eq!(violations[0].missing, missing, "step {step}");
        }
        (verdict, cold) => {
            panic!("check/schedule disagreement at step {step}: {verdict:?} vs {cold:?}")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random designs, random edit chains: the incremental engine is
    /// indistinguishable from cold re-analysis at every step, and every
    /// full run (no column carried over) takes exactly the cold
    /// iteration count.
    #[test]
    fn incremental_equals_cold(
        seed in 0u64..10_000,
        n_ops in 4usize..24,
        edits in proptest::collection::vec(edit_spec(), 0..12),
    ) {
        let g = random_constraint_graph(seed, &RandomGraphConfig {
            n_ops,
            ..RandomGraphConfig::default()
        });
        let mut mirror = g.clone();
        let mut session = Session::open(g).expect("random designs are structurally sound");
        assert_matches_cold(&session, &mirror, 0);
        for (i, spec) in edits.iter().enumerate() {
            let outcome = apply(spec, &mut session, &mut mirror);
            assert_matches_cold(&session, &mirror, i + 1);
            if let Some(EditOutcome::Rescheduled { iterations, warm_anchors: 0, .. }) = outcome {
                let cold = schedule(&mirror).expect("a rescheduled graph schedules cold");
                prop_assert_eq!(iterations, cold.iterations(), "step {}", i + 1);
            }
        }
    }

    /// Pure additive chains keep every anchor warm: the reschedule report
    /// must claim full warm coverage whenever the graph stays well-posed.
    #[test]
    fn additive_edits_stay_fully_warm(
        seed in 0u64..10_000,
        n_ops in 4usize..16,
        pairs in proptest::collection::vec((0usize..64, 0usize..64, 0u64..4), 1..8),
    ) {
        let g = random_constraint_graph(seed, &RandomGraphConfig {
            n_ops,
            n_max_constraints: 0,
            unbounded_prob: 0.3,
            ..RandomGraphConfig::default()
        });
        let mut session = Session::open(g).expect("opens");
        prop_assert!(session.posedness().is_well_posed());
        for &(a, b, l) in &pairs {
            let ops: Vec<VertexId> = session.graph().operation_ids().collect();
            let (f, t) = (pick(&ops, a), pick(&ops, b));
            match session.add_min_constraint(f, t, l) {
                EditOutcome::Rescheduled { warm_anchors, total_anchors, .. } => {
                    prop_assert_eq!(warm_anchors, total_anchors);
                }
                EditOutcome::Rejected { .. } | EditOutcome::Unfeasible { .. } => {}
                other => panic!("min-only edits cannot ill-pose the graph: {other:?}"),
            }
        }
    }
}
