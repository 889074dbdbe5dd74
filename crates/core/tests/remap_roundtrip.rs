//! Property test: relabeling a relative schedule is lossless.
//!
//! `RelativeSchedule::remapped(perm)` followed by `remapped(inv)` must
//! give back the schedule bit for bit (offsets, tracked anchor sets,
//! untracked zero slots, iteration count), and every offset must move
//! with its pair: `offset(perm v, perm a) == offset(v, a)`. Graphs range
//! up to well over 64 anchors, so anchor-set rows span several words.

use proptest::prelude::*;
use rsched_core::schedule;
use rsched_graph::{ConstraintGraph, ExecDelay, VertexId};

/// Operations with the given delays (`None` unbounded), dependencies and
/// minimum constraints kept where `i < j` (indices taken modulo the
/// operation count), and maximum constraints.
fn build(
    delays: &[Option<u64>],
    deps: &[(usize, usize)],
    mins: &[(usize, usize, u64)],
    maxs: &[(usize, usize, u64)],
) -> ConstraintGraph {
    let mut g = ConstraintGraph::new();
    let vs: Vec<VertexId> = delays
        .iter()
        .enumerate()
        .map(|(i, d)| {
            g.add_operation(
                format!("op{i}"),
                d.map_or(ExecDelay::Unbounded, ExecDelay::Fixed),
            )
        })
        .collect();
    let n = vs.len();
    for &(i, j) in deps {
        if i % n < j % n {
            g.add_dependency(vs[i % n], vs[j % n]).unwrap();
        }
    }
    for &(i, j, l) in mins {
        if i % n < j % n {
            g.add_min_constraint(vs[i % n], vs[j % n], l).unwrap();
        }
    }
    for &(i, j, u) in maxs {
        if i % n != j % n {
            g.add_max_constraint(vs[i % n], vs[j % n], u).unwrap();
        }
    }
    g.polarize().unwrap();
    g
}

/// A permutation of `0..n` ordered by `keys`.
fn permutation(n: usize, keys: &[u64]) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.sort_by_key(|&i| {
        (
            keys[i as usize % keys.len()].wrapping_mul(u64::from(i) + 1),
            i,
        )
    });
    perm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn remapped_round_trips_and_moves_every_offset(
        delays in proptest::collection::vec(
            prop_oneof![(0u64..6).prop_map(Some), Just(None)],
            1..200,
        ),
        deps in proptest::collection::vec((0usize..200, 0usize..200), 0..400),
        mins in proptest::collection::vec((0usize..200, 0usize..200, 0u64..6), 0..8),
        maxs in proptest::collection::vec((0usize..200, 0usize..200, 20u64..60), 0..3),
        keys in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        let g = build(&delays, &deps, &mins, &maxs);
        let Ok(omega) = schedule(&g) else {
            return Ok(());
        };
        let n = g.n_vertices();
        let perm = permutation(n, &keys);
        let mut inv = vec![0u32; n];
        for (v, &p) in perm.iter().enumerate() {
            inv[p as usize] = v as u32;
        }

        let moved = omega.remapped(&perm);
        prop_assert_eq!(&moved.remapped(&inv), &omega);
        prop_assert_eq!(moved.iterations(), omega.iterations());

        let to = |v: VertexId| VertexId::from_index(perm[v.index()] as usize);
        let mut anchors: Vec<VertexId> = omega.anchors().iter().map(|&a| to(a)).collect();
        anchors.sort_unstable();
        prop_assert_eq!(moved.anchors(), &anchors[..]);
        for v in g.vertex_ids() {
            for &a in omega.anchors() {
                prop_assert_eq!(moved.offset(to(v), to(a)), omega.offset(v, a));
            }
            // Offsets come out in anchor order, one per member of the set.
            let pairs: Vec<(VertexId, i64)> = moved.offsets_of(to(v)).collect();
            let members: Vec<VertexId> = moved.tracked_sets().set(to(v)).collect();
            prop_assert_eq!(pairs.iter().map(|&(a, _)| a).collect::<Vec<_>>(), members);
            prop_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
            for (a, offset) in pairs {
                prop_assert_eq!(moved.offset(to(v), a), Some(offset));
            }
        }
    }
}
