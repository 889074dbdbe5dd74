//! Property test: the topological rank `ConstraintGraph` keeps for `G_f`
//! stays valid, and the cycle checks built on it decide exactly as a
//! from-scratch search would, under any mix of inserts (declared in order
//! or shuffled), rejected cycle-closing inserts, edge removals,
//! polarization and transitive reduction.

use proptest::prelude::*;
use rsched_graph::{ConstraintGraph, ExecDelay, GraphError, TextFormatError, VertexId};

/// Logical positions: 0 is the source, `1..=OPS` operations, `OPS + 1`
/// the sink. Inserts mostly run up this order; declaration order (and so
/// vertex ids) may be a shuffle of it.
const OPS: usize = 12;

#[derive(Debug, Clone, Copy)]
enum Step {
    Dep(usize, usize),
    Min(usize, usize, u64),
    Max(usize, usize, u64),
    Remove(usize),
    AddOp,
    Polarize,
    Reduce,
}

/// A pair of logical positions, ascending three times in four.
fn pair() -> impl Strategy<Value = (usize, usize)> {
    (0usize..OPS + 2, 0usize..OPS + 2, 0u8..4).prop_map(|(a, b, up)| {
        if up == 0 {
            (a, b)
        } else {
            (a.min(b), a.max(b))
        }
    })
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        8 => pair().prop_map(|(a, b)| Step::Dep(a, b)),
        4 => (pair(), 0u64..5).prop_map(|((a, b), l)| Step::Min(a, b, l)),
        2 => (pair(), 0u64..9).prop_map(|((a, b), u)| Step::Max(a, b, u)),
        3 => (0usize..64).prop_map(Step::Remove),
        1 => Just(Step::AddOp),
        1 => Just(Step::Polarize),
        1 => Just(Step::Reduce),
    ]
}

/// Forward reachability by plain depth-first search over the live
/// forward edges, blind to the rank.
fn reach(g: &ConstraintGraph) -> Vec<Vec<bool>> {
    let n = g.n_vertices();
    let mut succ = vec![Vec::new(); n];
    for (_, e) in g.forward_edges() {
        succ[e.from().index()].push(e.to().index());
    }
    (0..n)
        .map(|a| {
            let mut seen = vec![false; n];
            let mut stack = vec![a];
            while let Some(u) = stack.pop() {
                for &s in &succ[u] {
                    if !seen[s] {
                        seen[s] = true;
                        stack.push(s);
                    }
                }
            }
            seen
        })
        .collect()
}

/// The rank invariant, and `has_forward_path` against the reference for
/// every ordered pair of vertices.
fn check(g: &ConstraintGraph) -> Result<(), String> {
    for (id, e) in g.forward_edges() {
        let (rf, rt) = (g.forward_rank(e.from()), g.forward_rank(e.to()));
        if rf >= rt {
            return Err(format!("{id} {}->{}: rank {rf} >= {rt}", e.from(), e.to()));
        }
    }
    if g.forward_rank(g.source()) != 0 || g.forward_rank(g.sink()) != u32::MAX {
        return Err("source or sink left its pinned rank".into());
    }
    let mut ranks: Vec<u32> = g.vertex_ids().map(|v| g.forward_rank(v)).collect();
    ranks.sort_unstable();
    ranks.dedup();
    if ranks.len() != g.n_vertices() {
        return Err("ranks are not distinct".into());
    }
    let reach = reach(g);
    for a in g.vertex_ids() {
        for b in g.vertex_ids() {
            if g.has_forward_path(a, b) != reach[a.index()][b.index()] {
                return Err(format!("has_forward_path({a}, {b}) disagrees"));
            }
        }
    }
    Ok(())
}

/// What a forward insert `(from, to)` must do, decided from scratch.
fn expected_forward(
    g: &ConstraintGraph,
    from: VertexId,
    to: VertexId,
    cycle: GraphError,
) -> Result<(), GraphError> {
    if from == to {
        Err(GraphError::SelfLoop(from))
    } else if to == g.source() || from == g.sink() {
        Err(GraphError::Polarity { from, to })
    } else if reach(g)[to.index()][from.index()] {
        Err(cycle)
    } else {
        Ok(())
    }
}

/// A permutation of `0..n` drawn from `keys` (identity when `keys` is
/// empty).
fn permutation(n: usize, keys: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if !keys.is_empty() {
        order.sort_by_key(|&i| keys[i % keys.len()].wrapping_mul(i as u64 + 1));
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn rank_stays_topological_and_cycle_checks_match_reference(
        n_ops in 2usize..=OPS,
        shuffle in proptest::collection::vec(0u64..1 << 40, 0..2),
        steps in proptest::collection::vec(step(), 1..48),
    ) {
        // Declare the operations in logical order, or in a shuffle of it:
        // `at[p]` is the vertex at logical position `p`.
        let keys: Vec<u64> = if shuffle.is_empty() {
            Vec::new()
        } else {
            (0..n_ops as u64).map(|i| shuffle[0].rotate_left(i as u32 * 7) ^ i).collect()
        };
        let mut g = ConstraintGraph::new();
        let mut ids = vec![VertexId::from_index(0); n_ops];
        for p in permutation(n_ops, &keys) {
            ids[p] = g.add_operation(format!("op{p}"), ExecDelay::Fixed(p as u64 % 3));
        }
        let mut at = vec![g.source()];
        at.extend(ids);
        let mut ops = n_ops;
        check(&g)?;
        for step in steps {
            let vertex = |at: &[VertexId], p: usize| {
                if p == 0 {
                    g.source()
                } else if p > OPS {
                    g.sink()
                } else {
                    at[1 + (p - 1) % ops]
                }
            };
            match step {
                Step::Dep(a, b) => {
                    let (from, to) = (vertex(&at, a), vertex(&at, b));
                    let want = expected_forward(&g, from, to, GraphError::ForwardCycle { from, to });
                    prop_assert_eq!(g.add_dependency(from, to).map(|_| ()), want);
                }
                Step::Min(a, b, min) => {
                    let (from, to) = (vertex(&at, a), vertex(&at, b));
                    let want = expected_forward(
                        &g,
                        from,
                        to,
                        GraphError::ContradictsDependencies { from, to, min },
                    );
                    prop_assert_eq!(g.add_min_constraint(from, to, min).map(|_| ()), want);
                }
                Step::Max(a, b, max) => {
                    let (from, to) = (vertex(&at, a), vertex(&at, b));
                    prop_assert_eq!(g.add_max_constraint(from, to, max).is_ok(), from != to);
                }
                Step::Remove(k) => {
                    let live: Vec<_> = g.edges().map(|(id, _)| id).collect();
                    if !live.is_empty() {
                        g.remove_edge(live[k % live.len()]).unwrap();
                    }
                }
                Step::AddOp => {
                    if ops < OPS {
                        at.push(g.add_operation(format!("late{ops}"), ExecDelay::Unbounded));
                        ops += 1;
                    }
                }
                Step::Polarize => g.polarize().unwrap(),
                Step::Reduce => {
                    g.reduce_sequencing_edges();
                }
            }
            check(&g).map_err(|e| format!("after {step:?}: {e}"))?;
        }

        // The same graph rendered with its declarations and edges
        // shuffled parses back to the same reachability.
        g.polarize().unwrap();
        let text = g.to_text();
        let (decls, edges): (Vec<&str>, Vec<&str>) = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .partition(|l| l.starts_with("op "));
        let mut shuffled = String::new();
        for i in permutation(decls.len(), &keys) {
            shuffled.push_str(decls[i]);
            shuffled.push('\n');
        }
        for i in permutation(edges.len(), &keys).into_iter().rev() {
            shuffled.push_str(edges[i]);
            shuffled.push('\n');
        }
        let g2 = ConstraintGraph::from_text(&shuffled)
            .map_err(|e| format!("shuffled rendering must parse: {e}\n{shuffled}"))?;
        check(&g2)?;
        let by_name = |g: &ConstraintGraph| {
            let reach = reach(g);
            let mut pairs: Vec<(String, String)> = Vec::new();
            for a in g.vertex_ids() {
                for b in g.vertex_ids() {
                    if reach[a.index()][b.index()] {
                        pairs.push((g.vertex(a).name().to_owned(), g.vertex(b).name().to_owned()));
                    }
                }
            }
            pairs.sort();
            pairs
        };
        prop_assert_eq!(by_name(&g), by_name(&g2));
    }
}

/// With several cycle-closing lines, the first one is reported, with its
/// line number and the error of the directive on it.
#[test]
fn first_cycle_closing_line_is_reported() {
    let text = "op c 1\nop b 1\nop a 1\ndep a b\ndep b c\nmin c a 2\ndep c a\n";
    let v = VertexId::from_index;
    assert_eq!(
        ConstraintGraph::from_text(text).unwrap_err(),
        TextFormatError::Graph {
            line: 6,
            source: GraphError::ContradictsDependencies {
                from: v(2),
                to: v(4),
                min: 2,
            },
        }
    );
    let text = "op c 1\nop b 1\nop a 1\ndep a b\ndep b c\ndep c a\nmin c a 2\n";
    assert_eq!(
        ConstraintGraph::from_text(text).unwrap_err(),
        TextFormatError::Graph {
            line: 6,
            source: GraphError::ForwardCycle {
                from: v(2),
                to: v(4),
            },
        }
    );
}
