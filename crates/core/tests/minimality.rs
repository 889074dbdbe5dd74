//! Brute-force validation of Theorem 7 (minimal serialization) and
//! Theorem 8 (the `L + 1` iteration bound) on small random graphs.

use proptest::prelude::*;

use rsched_core::{
    check_well_posed, iteration_bound, make_well_posed, schedule, ScheduleError, WellPosedness,
};
use rsched_graph::{ConstraintGraph, ExecDelay, VertexId};

#[derive(Debug, Clone)]
struct SmallSpec {
    delays: Vec<Option<u64>>,
    deps: Vec<(usize, usize)>,
    maxs: Vec<(usize, usize, u64)>,
}

fn small_spec() -> impl Strategy<Value = SmallSpec> {
    (2usize..6).prop_flat_map(|n| {
        (
            proptest::collection::vec(
                prop_oneof![2 => (0u64..4).prop_map(Some), 1 => Just(None)],
                n,
            ),
            proptest::collection::vec((0..n, 0..n), 1..n + 2),
            proptest::collection::vec((0..n, 0..n, 0u64..8), 1..3),
        )
            .prop_map(|(delays, deps, maxs)| SmallSpec { delays, deps, maxs })
    })
}

fn build(spec: &SmallSpec) -> (ConstraintGraph, Vec<VertexId>) {
    let mut g = ConstraintGraph::new();
    let vs: Vec<VertexId> = spec
        .delays
        .iter()
        .enumerate()
        .map(|(i, d)| {
            g.add_operation(
                format!("op{i}"),
                match d {
                    Some(d) => ExecDelay::Fixed(*d),
                    None => ExecDelay::Unbounded,
                },
            )
        })
        .collect();
    for &(i, j) in &spec.deps {
        if i < j {
            g.add_dependency(vs[i], vs[j]).expect("acyclic by order");
        }
    }
    for &(i, j, u) in &spec.maxs {
        if i != j {
            g.add_max_constraint(vs[i], vs[j], u).expect("valid");
        }
    }
    g.polarize().expect("polar");
    (g, vs)
}

/// All well-posed serial-compatible graphs reachable by adding up to
/// `max_added` anchor→vertex sequencing edges.
fn enumerate_well_posed(g: &ConstraintGraph, max_added: usize) -> Vec<ConstraintGraph> {
    let anchors = g.anchors();
    let mut candidates: Vec<(VertexId, VertexId)> = Vec::new();
    for &a in anchors {
        for v in g.vertex_ids() {
            if v != a && v != g.source() && !g.has_forward_path(a, v) && !g.has_forward_path(v, a) {
                candidates.push((a, v));
            }
        }
    }
    let mut found = Vec::new();
    let n = candidates.len();
    // Enumerate subsets by bitmask, bounded by popcount.
    for mask in 0u32..(1u32 << n.min(14)) {
        if mask.count_ones() as usize > max_added {
            continue;
        }
        let mut trial = g.clone();
        let mut ok = true;
        for (k, &(a, v)) in candidates.iter().enumerate() {
            if mask & (1 << k) != 0 && trial.add_dependency(a, v).is_err() {
                ok = false;
                break;
            }
        }
        if !ok {
            continue;
        }
        if matches!(check_well_posed(&trial), WellPosedness::WellPosed) {
            found.push(trial);
        }
    }
    found
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 7: the graph `makeWellposed` produces has pointwise minimum
    /// longest paths among every well-posed serial-compatible graph found
    /// by brute force.
    #[test]
    fn make_well_posed_is_minimum_serialization(spec in small_spec()) {
        let (g, _) = build(&spec);
        if g.has_positive_cycle() {
            return Ok(());
        }
        let mut repaired = g.clone();
        match make_well_posed(&mut repaired) {
            Ok(report) => {
                let alternatives = enumerate_well_posed(&g, report.len() + 1);
                prop_assert!(
                    !alternatives.is_empty(),
                    "brute force must rediscover at least the repaired graph"
                );
                for alt in &alternatives {
                    for u in g.vertex_ids() {
                        let (Ok(lr), Ok(ls)) =
                            (repaired.longest_paths_from(u), alt.longest_paths_from(u))
                        else {
                            continue;
                        };
                        for v in g.vertex_ids() {
                            if let Some(lr) = lr.length_to(v) {
                                if let Some(ls) = ls.length_to(v) {
                                    prop_assert!(
                                        lr <= ls,
                                        "length({u}, {v}): repaired {lr} > alternative {ls}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
            Err(ScheduleError::CannotSerialize { .. }) => {
                // Lemma 3: then NO added-edge set may be well-posed.
                let alternatives = enumerate_well_posed(&g, 4);
                prop_assert!(
                    alternatives.is_empty(),
                    "makeWellposed claimed unrepairable, brute force disagrees"
                );
            }
            Err(ScheduleError::Unfeasible { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected {other:?}"),
        }
    }

    /// Lemma 7: every serialization edge `makeWellposed` adds carries a
    /// real gating requirement — removing one re-introduces ill-posedness
    /// whenever the removal actually severs the `a -> v` forward
    /// connectivity. (A later addition may subsume an earlier edge
    /// transitively, e.g. `a -> u -> v` alongside `a -> v`; then the
    /// removal changes no anchor set and the graph must stay well-posed.)
    #[test]
    fn every_serialization_edge_is_necessary(spec in small_spec()) {
        let (g, _) = build(&spec);
        if g.has_positive_cycle() {
            return Ok(());
        }
        let mut repaired = g.clone();
        let Ok(report) = make_well_posed(&mut repaired) else { return Ok(()); };
        prop_assert!(matches!(
            check_well_posed(&repaired),
            WellPosedness::WellPosed
        ));
        for &(a, v) in &report.added {
            let id = repaired
                .edges()
                .find(|(_, e)| e.from() == a && e.to() == v && !e.kind().is_backward())
                .map(|(id, _)| id)
                .expect("serialization edge must be live in the repaired graph");
            let mut weakened = repaired.clone();
            weakened.remove_edge(id).expect("live edge");
            let verdict = check_well_posed(&weakened);
            if weakened.has_forward_path(a, v) {
                prop_assert!(
                    matches!(verdict, WellPosedness::WellPosed),
                    "transitively subsumed edge {} -> {} must be droppable",
                    repaired.vertex(a).name(),
                    repaired.vertex(v).name()
                );
            } else {
                prop_assert!(
                    matches!(verdict, WellPosedness::IllPosed { .. }),
                    "dropping serialization edge {} -> {} must re-introduce ill-posedness",
                    repaired.vertex(a).name(),
                    repaired.vertex(v).name()
                );
            }
        }
    }

    /// Theorem 8: observed iterations never exceed `L + 1`, and `L` never
    /// exceeds `|E_b|`.
    #[test]
    fn iterations_bounded_by_l_plus_one(spec in small_spec()) {
        let (g, _) = build(&spec);
        let Ok(omega) = schedule(&g) else { return Ok(()); };
        let bound = iteration_bound(&g).expect("feasible since scheduled");
        prop_assert!(bound.l <= bound.n_backward_edges);
        prop_assert!(
            omega.iterations() <= bound.max_iterations(),
            "{} iterations > bound {}",
            omega.iterations(),
            bound.max_iterations()
        );
    }
}
