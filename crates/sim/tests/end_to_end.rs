//! End-to-end schedule → control → simulate pipelines.

use proptest::prelude::*;

use rsched_core::{profile_for, schedule, DelayProfile, IrredundantAnchors};
use rsched_ctrl::{generate, ControlStyle};
use rsched_graph::{ConstraintGraph, ExecDelay, VertexId};
use rsched_sim::{DelaySource, SimError, Simulator, Waveform};

/// The paper's Fig. 2 graph.
fn fig2() -> (ConstraintGraph, VertexId, [VertexId; 4]) {
    let mut g = ConstraintGraph::new();
    let a = g.add_operation("a", ExecDelay::Unbounded);
    let v1 = g.add_operation("v1", ExecDelay::Fixed(2));
    let v2 = g.add_operation("v2", ExecDelay::Fixed(1));
    let v3 = g.add_operation("v3", ExecDelay::Fixed(5));
    let v4 = g.add_operation("v4", ExecDelay::Fixed(1));
    let s = g.source();
    g.add_dependency(s, a).unwrap();
    g.add_dependency(s, v1).unwrap();
    g.add_dependency(v1, v2).unwrap();
    g.add_dependency(a, v3).unwrap();
    g.add_dependency(v2, v4).unwrap();
    g.add_dependency(v3, v4).unwrap();
    g.add_min_constraint(s, v3, 3).unwrap();
    g.add_max_constraint(v1, v2, 5).unwrap();
    g.polarize().unwrap();
    (g, a, [v1, v2, v3, v4])
}

#[test]
fn fig2_simulates_clean_under_both_styles_and_many_profiles() {
    let (g, a, [_, _, _, v4]) = fig2();
    let omega = schedule(&g).unwrap();
    for style in [ControlStyle::Counter, ControlStyle::ShiftRegister] {
        let unit = generate(&g, &omega, style);
        for d in [0u64, 1, 4, 7, 30] {
            let profile = profile_for(&g).with_delay(a, d).build();
            let report = Simulator::new(&g, &unit)
                .run(&DelaySource::Profile(profile))
                .unwrap();
            assert!(report.violations.is_empty(), "style {style:?}, δ(a)={d}");
            assert!(report.matches_analytic, "style {style:?}, δ(a)={d}");
            // T(v4) = max(8, δ(a) + 5).
            assert_eq!(report.start[v4.index()], 8u64.max(d + 5));
        }
    }
}

#[test]
fn counter_and_shift_register_observe_identical_timing() {
    let (g, _, _) = fig2();
    let omega = schedule(&g).unwrap();
    let cu = generate(&g, &omega, ControlStyle::Counter);
    let su = generate(&g, &omega, ControlStyle::ShiftRegister);
    for seed in 0..20u64 {
        let rc = Simulator::new(&g, &cu)
            .run(&DelaySource::random(seed, 9))
            .unwrap();
        let rs = Simulator::new(&g, &su)
            .run(&DelaySource::random(seed, 9))
            .unwrap();
        assert_eq!(rc.start, rs.start, "seed {seed}");
        assert_eq!(rc.done, rs.done, "seed {seed}");
    }
}

#[test]
fn irredundant_control_times_equal_full_control() {
    let (g, _, _) = fig2();
    let omega = schedule(&g).unwrap();
    let analysis = IrredundantAnchors::analyze(&g).unwrap();
    let restricted = omega.restrict(analysis.irredundant.family());
    let full = generate(&g, &omega, ControlStyle::ShiftRegister);
    let min = generate(&g, &restricted, ControlStyle::ShiftRegister);
    for seed in 0..20u64 {
        let rf = Simulator::new(&g, &full)
            .run(&DelaySource::random(seed, 9))
            .unwrap();
        let rm = Simulator::new(&g, &min)
            .run(&DelaySource::random(seed, 9))
            .unwrap();
        assert_eq!(rf.start, rm.start, "seed {seed}");
        assert!(rm.violations.is_empty());
        assert!(rm.matches_analytic);
    }
}

#[test]
fn timeout_reports_stuck_operations() {
    let (g, a, _) = fig2();
    let omega = schedule(&g).unwrap();
    let unit = generate(&g, &omega, ControlStyle::Counter);
    let profile = profile_for(&g).with_delay(a, 500).build();
    let err = Simulator::new(&g, &unit)
        .with_max_cycles(10)
        .run(&DelaySource::Profile(profile))
        .unwrap_err();
    let (by_id, by_name) = (err.to_string(), err.render(&g));
    match err {
        SimError::Timeout { max_cycles, stuck } => {
            assert_eq!(max_cycles, 10);
            assert!(!stuck.is_empty());
            let ids: Vec<String> = stuck.iter().map(|v| v.to_string()).collect();
            let names: Vec<&str> = stuck.iter().map(|&v| g.vertex(v).name()).collect();
            assert_eq!(
                by_id,
                format!("simulation exceeded 10 cycles; stuck: {}", ids.join(", "))
            );
            assert_eq!(
                by_name,
                format!("simulation exceeded 10 cycles; stuck: {}", names.join(", "))
            );
        }
        other => panic!("expected timeout, got {other}"),
    }
}

#[test]
fn waveform_renders_all_signals() {
    let (g, a, _) = fig2();
    let omega = schedule(&g).unwrap();
    let unit = generate(&g, &omega, ControlStyle::ShiftRegister);
    let profile = profile_for(&g).with_delay(a, 3).build();
    let report = Simulator::new(&g, &unit)
        .run(&DelaySource::Profile(profile))
        .unwrap();
    let wave = Waveform::from_report(&g, &report).render();
    for v in g.vertex_ids() {
        assert!(wave.contains(g.vertex(v).name()), "missing {v}");
    }
}

#[test]
fn zero_delay_chains_resolve_within_one_cycle() {
    // A chain of zero-delay anchors must cascade combinationally.
    let mut g = ConstraintGraph::new();
    let a = g.add_operation("a", ExecDelay::Unbounded);
    let b = g.add_operation("b", ExecDelay::Unbounded);
    let c = g.add_operation("c", ExecDelay::Fixed(0));
    g.add_dependency(a, b).unwrap();
    g.add_dependency(b, c).unwrap();
    g.polarize().unwrap();
    let omega = schedule(&g).unwrap();
    let unit = generate(&g, &omega, ControlStyle::Counter);
    let report = Simulator::new(&g, &unit)
        .run(&DelaySource::Profile(DelayProfile::zeros(&g)))
        .unwrap();
    assert_eq!(report.total_cycles, 0, "everything collapses to cycle 0");
    assert!(report.matches_analytic);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random DAGs with constraints: whenever scheduling succeeds, both
    /// control styles execute without violations and match the analytic
    /// start times, across random delay profiles.
    #[test]
    fn random_graphs_simulate_clean(
        delays in proptest::collection::vec(
            prop_oneof![3 => (0u64..4).prop_map(Some), 1 => Just(None)], 2..10),
        edges in proptest::collection::vec((0usize..10, 0usize..10), 1..14),
        maxs in proptest::collection::vec((0usize..10, 0usize..10, 0u64..10), 0..3),
        seed in 0u64..1000,
    ) {
        let mut g = ConstraintGraph::new();
        let vs: Vec<VertexId> = delays.iter().enumerate().map(|(i, d)| {
            g.add_operation(format!("op{i}"), match d {
                Some(d) => ExecDelay::Fixed(*d),
                None => ExecDelay::Unbounded,
            })
        }).collect();
        let n = vs.len();
        for &(i, j) in &edges {
            if i < j && j < n {
                g.add_dependency(vs[i], vs[j]).unwrap();
            }
        }
        for &(i, j, u) in &maxs {
            if i != j && i < n && j < n {
                g.add_max_constraint(vs[i], vs[j], u).unwrap();
            }
        }
        g.polarize().unwrap();
        let Ok(omega) = schedule(&g) else { return Ok(()); };
        for style in [ControlStyle::Counter, ControlStyle::ShiftRegister] {
            let unit = generate(&g, &omega, style);
            let report = Simulator::new(&g, &unit)
                .run(&DelaySource::random(seed, 6))
                .unwrap();
            prop_assert!(report.violations.is_empty(), "style {:?}", style);
            prop_assert!(report.matches_analytic, "style {:?}", style);
        }
    }
}

#[test]
fn gate_level_simulation_matches_behavioural() {
    let (g, _, _) = fig2();
    let omega = schedule(&g).unwrap();
    for style in [ControlStyle::Counter, ControlStyle::ShiftRegister] {
        let unit = generate(&g, &omega, style);
        let sim = Simulator::new(&g, &unit);
        for seed in 0..15u64 {
            let behavioural = sim.run(&DelaySource::random(seed, 7)).unwrap();
            let gates = sim.run_gate_level(&DelaySource::random(seed, 7)).unwrap();
            assert_eq!(behavioural.start, gates.start, "{style:?} seed {seed}");
            assert_eq!(behavioural.done, gates.done, "{style:?} seed {seed}");
            assert!(gates.violations.is_empty());
            assert!(gates.matches_analytic);
        }
    }
}

#[test]
fn repeated_activations_reset_cleanly() {
    let (g, _, _) = fig2();
    let omega = schedule(&g).unwrap();
    let unit = generate(&g, &omega, ControlStyle::ShiftRegister);
    let runs = Simulator::new(&g, &unit)
        .run_repeated(8, &DelaySource::random(100, 9))
        .unwrap();
    assert_eq!(runs.len(), 8);
    for (k, run) in runs.iter().enumerate() {
        assert!(run.violations.is_empty(), "activation {k}");
        assert!(run.matches_analytic, "activation {k}");
    }
    // Different profiles across activations actually occurred.
    let latencies: std::collections::HashSet<u64> = runs.iter().map(|r| r.total_cycles).collect();
    assert!(
        latencies.len() > 1,
        "activations should differ: {latencies:?}"
    );
}
