//! Seeded random constraint graphs and designs for scaling benchmarks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rsched_graph::{ConstraintGraph, ExecDelay, VertexId};

/// Parameters for [`random_constraint_graph`].
#[derive(Debug, Clone, Copy)]
pub struct RandomGraphConfig {
    /// Number of operations (vertices besides source and sink).
    pub n_ops: usize,
    /// Probability (0–1) that an operation has unbounded delay.
    pub unbounded_prob: f64,
    /// Average number of forward dependency edges per operation.
    pub avg_deps: f64,
    /// Number of maximum timing constraints to attempt (some may be
    /// skipped to keep the graph feasible and well-posed).
    pub n_max_constraints: usize,
    /// Number of minimum timing constraints.
    pub n_min_constraints: usize,
    /// Largest fixed execution delay.
    pub max_delay: u64,
}

impl Default for RandomGraphConfig {
    fn default() -> Self {
        RandomGraphConfig {
            n_ops: 50,
            unbounded_prob: 0.15,
            avg_deps: 1.8,
            n_max_constraints: 4,
            n_min_constraints: 4,
            max_delay: 4,
        }
    }
}

/// Generates a feasible, well-posed random constraint graph.
///
/// Dependencies always run from lower to higher vertex index, keeping
/// `G_f` acyclic. Maximum constraints are placed only between vertices
/// with identical anchor sets along a dependency chain, which guarantees
/// well-posedness by construction; they are sized to exceed the chain
/// length, guaranteeing feasibility.
pub fn random_constraint_graph(seed: u64, config: &RandomGraphConfig) -> ConstraintGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = ConstraintGraph::new();
    let ops: Vec<VertexId> = (0..config.n_ops)
        .map(|i| {
            let delay = if rng.gen_bool(config.unbounded_prob) {
                ExecDelay::Unbounded
            } else {
                ExecDelay::Fixed(rng.gen_range(0..=config.max_delay))
            };
            g.add_operation(format!("op{i}"), delay)
        })
        .collect();
    // Dependencies low -> high index.
    let n_edges = (config.n_ops as f64 * config.avg_deps) as usize;
    for _ in 0..n_edges {
        let i = rng.gen_range(0..config.n_ops.max(2) - 1);
        let j = rng.gen_range(i + 1..config.n_ops);
        let _ = g.add_dependency(ops[i], ops[j]);
    }
    g.polarize().expect("fresh operations polarize");

    // Minimum constraints: forward pairs.
    for _ in 0..config.n_min_constraints {
        if config.n_ops < 2 {
            break;
        }
        let i = rng.gen_range(0..config.n_ops - 1);
        let j = rng.gen_range(i + 1..config.n_ops);
        let _ = g.add_min_constraint(ops[i], ops[j], rng.gen_range(0..=config.max_delay));
    }

    // Maximum constraints: between chain-connected vertices with matching
    // anchor sets, sized generously (well-posed + feasible by
    // construction).
    let Ok(sets) = rsched_core::AnchorSets::compute(&g);
    let lp = g.longest_paths_from(g.source()).expect("feasible so far");
    let mut placed = 0;
    let mut attempts = 0;
    while placed < config.n_max_constraints && attempts < config.n_max_constraints * 20 {
        attempts += 1;
        let i = rng.gen_range(0..config.n_ops.max(2) - 1);
        let j = rng.gen_range(i + 1..config.n_ops);
        let (from, to) = (ops[i], ops[j]);
        if !g.has_forward_path(from, to) || !sets.is_subset(to, from) {
            continue;
        }
        let span = lp
            .length_to(to)
            .and_then(|t| lp.length_to(from).map(|f| t - f))
            .unwrap_or(0)
            .max(0) as u64;
        let slack = rng.gen_range(0..=config.max_delay);
        let _ = g.add_max_constraint(from, to, span + slack);
        placed += 1;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_core::{check_well_posed, schedule};

    #[test]
    fn random_graphs_are_well_posed_and_schedulable() {
        for seed in 0..30 {
            let g = random_constraint_graph(seed, &RandomGraphConfig::default());
            assert!(check_well_posed(&g).is_well_posed(), "seed {seed}");
            schedule(&g).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = random_constraint_graph(7, &RandomGraphConfig::default());
        let b = random_constraint_graph(7, &RandomGraphConfig::default());
        assert_eq!(a.n_vertices(), b.n_vertices());
        assert_eq!(a.n_edges(), b.n_edges());
    }

    #[test]
    fn config_scales_size() {
        let small = random_constraint_graph(
            1,
            &RandomGraphConfig {
                n_ops: 10,
                ..Default::default()
            },
        );
        let large = random_constraint_graph(
            1,
            &RandomGraphConfig {
                n_ops: 200,
                ..Default::default()
            },
        );
        assert!(large.n_vertices() > small.n_vertices());
    }
}
