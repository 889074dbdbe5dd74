//! `ConstraintGraph::has_positive_cycle` against the oracle's textbook
//! Bellman–Ford, which relaxes every edge up to `|V|` times and knows
//! nothing of the forward rank. The check under test stops after at most
//! `|E_b| + 1` rank-ordered rounds (none when `E_b` is empty), so a bound
//! that were too tight would show here as a feasible verdict on a graph
//! the oracle finds a positive cycle in.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsched_designs::random::{random_constraint_graph, RandomGraphConfig};
use rsched_graph::{ConstraintGraph, ExecDelay, GraphError};
use rsched_oracle::{positive_cycle, Edit, GraphMutator};

/// Compares one graph's verdict with the oracle's and checks the round
/// bound; returns `(unfeasible, rounds)`.
fn check(g: &ConstraintGraph, what: &str) -> (bool, usize) {
    let (found, rounds) = g.positive_cycle_rounds();
    assert_eq!(found, g.has_positive_cycle(), "{what}");
    assert_eq!(
        found,
        positive_cycle(g).is_some(),
        "{what}: verdict differs from textbook Bellman–Ford"
    );
    let n_back = g.n_backward_edges();
    assert!(
        rounds <= n_back + 1,
        "{what}: {rounds} rounds for {n_back} backward edges"
    );
    if n_back == 0 {
        assert_eq!((found, rounds), (false, 0), "{what}: G_f alone is acyclic");
    }
    (found, rounds)
}

fn apply(g: &mut ConstraintGraph, edit: &Edit) -> Result<(), GraphError> {
    match *edit {
        Edit::AddDep(a, b) => g.add_dependency(a, b).map(drop),
        Edit::AddMin(a, b, l) => g.add_min_constraint(a, b, l).map(drop),
        Edit::AddMax(a, b, u) => g.add_max_constraint(a, b, u).map(drop),
        Edit::RemoveEdge(e) => g.remove_edge(e).map(drop),
        Edit::SetDelay(v, d) => g.set_delay(v, d).map(drop),
    }
}

/// Tallies what the seeded runs covered, so a generator drifting into only
/// easy graphs fails loudly instead of passing vacuously.
#[derive(Default)]
struct Seen {
    graphs: usize,
    unfeasible: usize,
    max_feasible_rounds: usize,
}

impl Seen {
    fn add(&mut self, (unfeasible, rounds): (bool, usize)) {
        self.graphs += 1;
        if unfeasible {
            self.unfeasible += 1;
        } else {
            self.max_feasible_rounds = self.max_feasible_rounds.max(rounds);
        }
    }
}

#[test]
fn verdict_matches_bellman_ford_on_random_designs() {
    let mut seen = Seen::default();
    for seed in 0..40u64 {
        let config = RandomGraphConfig {
            n_ops: 20 + 15 * (seed as usize % 8),
            n_max_constraints: 2 + seed as usize % 10,
            ..RandomGraphConfig::default()
        };
        let mut g = random_constraint_graph(seed, &config);
        seen.add(check(&g, &format!("random seed {seed}")));
        // Tight maximum constraints between arbitrary pairs: some close
        // positive cycles, some only lengthen the feasible chains.
        let mut rng = StdRng::seed_from_u64(seed);
        let ops: Vec<_> = g.operation_ids().collect();
        for k in 0..12 {
            let (a, b) = (
                ops[rng.gen_range(0..ops.len())],
                ops[rng.gen_range(0..ops.len())],
            );
            if g.add_max_constraint(a, b, rng.gen_range(0u64..6)).is_ok() {
                seen.add(check(&g, &format!("random seed {seed}, max {k}")));
            }
        }
    }
    assert!(seen.unfeasible >= 40, "only {} unfeasible", seen.unfeasible);
    assert!(seen.graphs - seen.unfeasible >= 40, "too few feasible");
    assert!(
        seen.max_feasible_rounds >= 2,
        "no feasible graph needed a second round"
    );
}

#[test]
fn verdict_matches_bellman_ford_on_mutator_states() {
    let mut seen = Seen::default();
    for seed in 0..150u64 {
        let mut mutator = GraphMutator::new(seed);
        let mut g = mutator.grow(14);
        seen.add(check(&g, &format!("mutator seed {seed}")));
        for step in 1..=30 {
            let edit = mutator.edit(&g);
            if apply(&mut g, &edit).is_ok() {
                seen.add(check(&g, &format!("mutator seed {seed}, step {step}")));
            }
        }
    }
    assert!(
        seen.unfeasible >= 200,
        "only {} unfeasible",
        seen.unfeasible
    );
    assert!(seen.graphs - seen.unfeasible >= 200, "too few feasible");
    assert!(
        seen.max_feasible_rounds >= 3,
        "no feasible state needed a third round"
    );
}

#[test]
fn no_backward_edge_means_no_round() {
    let mut g = ConstraintGraph::new();
    let a = g.add_operation("a", ExecDelay::Fixed(3));
    let b = g.add_operation("b", ExecDelay::Unbounded);
    let c = g.add_operation("c", ExecDelay::Fixed(2));
    g.add_dependency(a, b).unwrap();
    g.add_dependency(b, c).unwrap();
    g.add_min_constraint(a, c, 9).unwrap();
    g.polarize().unwrap();
    assert_eq!(g.positive_cycle_rounds(), (false, 0));
    check(&g, "forward only");
}

/// Three forward runs `p_i -> q_i` of weight `gain`, joined into one ring
/// by the backward edges `q0 -> p1` and `q1 -> p2` of weight `-cost` and
/// `q2 -> p0` of weight `-closing`. The ring is the graph's only cycle and
/// takes all three backward edges.
fn ring(gain: u64, cost: u64, closing: u64) -> ConstraintGraph {
    let mut g = ConstraintGraph::new();
    let p: Vec<_> = (0..3)
        .map(|i| g.add_operation(format!("p{i}"), ExecDelay::Fixed(1)))
        .collect();
    let q: Vec<_> = (0..3)
        .map(|i| g.add_operation(format!("q{i}"), ExecDelay::Fixed(1)))
        .collect();
    for i in 0..3 {
        g.add_min_constraint(p[i], q[i], gain).unwrap();
    }
    g.add_max_constraint(p[1], q[0], cost).unwrap();
    g.add_max_constraint(p[2], q[1], cost).unwrap();
    g.add_max_constraint(p[0], q[2], closing).unwrap();
    g.polarize().unwrap();
    g
}

#[test]
fn cycle_through_three_backward_edges() {
    let g = ring(10, 3, 3);
    assert_eq!(g.n_backward_edges(), 3);
    assert_eq!(check(&g, "ring weight +21"), (true, 4));
    assert_eq!(check(&ring(10, 3, 23), "ring weight +1"), (true, 4));
    // Weight 0 is feasible. The longest path to `q2` runs through both
    // `-cost` edges, and each round carries it across one more: three
    // rounds, the last of which raises nothing.
    assert_eq!(check(&ring(10, 3, 24), "ring weight 0"), (false, 3));
    assert_eq!(check(&ring(10, 3, 40), "ring weight -16"), (false, 3));
}

#[test]
fn non_polar_graph_after_a_removal() {
    let mut g = ConstraintGraph::new();
    let a = g.add_operation("a", ExecDelay::Fixed(1));
    let b = g.add_operation("b", ExecDelay::Fixed(1));
    let min = g.add_min_constraint(a, b, 5).unwrap();
    g.add_max_constraint(a, b, 3).unwrap();
    g.polarize().unwrap();
    let from_source = g
        .out_edges(g.source())
        .find(|(_, e)| e.to() == a)
        .map(|(id, _)| id)
        .unwrap();
    g.remove_edge(from_source).unwrap();
    assert!(!g.is_polar());
    assert!(check(&g, "non-polar, min 5 > max 3").0);
    g.remove_edge(min).unwrap();
    assert!(!check(&g, "non-polar, min removed").0);
}
