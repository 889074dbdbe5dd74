//! Property tests of the canonical-form cache invariants.
//!
//! Two properties carry the whole correctness argument of `rsched-cache`:
//!
//! 1. **Label independence** — the canonical key (hash *and* full byte
//!    serialization) of a constraint graph is invariant under renaming
//!    every vertex and permuting the order operations are inserted in.
//!    This is what lets structurally identical requests share an entry.
//! 2. **Hit transparency** — a schedule served from cache, mapped back
//!    through the query's own permutation, is bit-identical (offsets,
//!    anchor sets, iteration count) to what a cold run on the query's
//!    labeling would compute.
//!
//! Random graph specs mix fixed/unbounded delays with dependency, min and
//! max constraints; the relabeling is an arbitrary permutation of op
//! insertion order plus fresh names.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rsched_cache::{schedule_cached, ScheduleCache};
use rsched_core::schedule;
use rsched_graph::{ConstraintGraph, ExecDelay};

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
        )
            .prop_map(|(delays, deps, mins, maxs)| GraphSpec {
                delays,
                deps,
                mins,
                maxs,
            })
    })
}

/// Build the spec's graph under a labeling: operations are inserted in
/// `order[k]` logical-index order and named through `name`. The identity
/// labeling is `build(spec, &(0..n).collect::<Vec<_>>(), |i| format!("op{i}"))`.
fn build(spec: &GraphSpec, order: &[usize], name: impl Fn(usize) -> String) -> ConstraintGraph {
    let mut g = ConstraintGraph::new();
    let mut ids = vec![None; spec.delays.len()];
    for &i in order {
        ids[i] = Some(g.add_operation(
            name(i),
            match spec.delays[i] {
                Some(d) => ExecDelay::Fixed(d),
                None => ExecDelay::Unbounded,
            },
        ));
    }
    let v = |i: usize| ids[i].expect("order is a permutation");
    for &(i, j) in &spec.deps {
        if i < j {
            g.add_dependency(v(i), v(j))
                .expect("i < j keeps G_f acyclic");
        }
    }
    for &(i, j, l) in &spec.mins {
        if i < j {
            g.add_min_constraint(v(i), v(j), l)
                .expect("i < j cannot contradict dependencies");
        }
    }
    for &(i, j, u) in &spec.maxs {
        if i != j {
            g.add_max_constraint(v(i), v(j), u)
                .expect("valid endpoints");
        }
    }
    g.polarize().expect("fresh operations polarize");
    g
}

fn identity(spec: &GraphSpec) -> ConstraintGraph {
    let order: Vec<usize> = (0..spec.delays.len()).collect();
    build(spec, &order, |i| format!("op{i}"))
}

/// A relabeled twin: shuffled insertion order, fresh names.
fn relabeled(spec: &GraphSpec, seed: u64) -> ConstraintGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..spec.delays.len()).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let tag: u64 = rng.gen();
    build(spec, &order, |i| format!("x{tag:x}_{i}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Property 1: the canonical key sees through any relabeling — and
    /// the permutations it hands back are genuine inverses.
    #[test]
    fn canonical_key_is_label_independent(spec in graph_spec(12), seed in 0u64..1 << 48) {
        let original = identity(&spec);
        let twin = relabeled(&spec, seed);
        let k1 = original.canonical_key();
        let k2 = twin.canonical_key();
        prop_assert_eq!(k1.hash, k2.hash);
        prop_assert_eq!(&k1.bytes, &k2.bytes);
        for (v, &slot) in k2.perm.iter().enumerate() {
            prop_assert_eq!(k2.inv[slot as usize] as usize, v);
        }
    }

    /// Distinct structures stay distinct: perturbing one delay changes
    /// the canonical bytes (the key is content-addressed, not lossy).
    #[test]
    fn canonical_key_separates_structures(spec in graph_spec(10), which in 0usize..10) {
        let original = identity(&spec);
        let mut perturbed = spec.clone();
        let i = which % perturbed.delays.len();
        perturbed.delays[i] = match perturbed.delays[i] {
            Some(d) => Some(d + 17),
            None => Some(17),
        };
        let other = identity(&perturbed);
        prop_assert_ne!(original.canonical_key().bytes, other.canonical_key().bytes);
    }

    /// Property 2: a hit served across a relabeling is bit-identical to
    /// a cold run on the query's own labeling.
    #[test]
    fn hit_across_relabeling_is_bit_identical(spec in graph_spec(12), seed in 0u64..1 << 48) {
        let original = identity(&spec);
        let twin = relabeled(&spec, seed);
        let cache = ScheduleCache::new(16);
        match schedule_cached(&cache, &original) {
            Ok((_, hit)) => {
                prop_assert!(!hit, "first probe of an empty cache cannot hit");
                let (warm, hit) = schedule_cached(&cache, &twin).expect(
                    "schedulability is structural: the twin must schedule too",
                );
                prop_assert!(hit, "relabeled twin must hit the cached entry");
                let cold = schedule(&twin).expect("twin schedules cold");
                prop_assert_eq!(warm, cold);
            }
            Err(_) => {
                // Errors are never cached; the twin must fail the same
                // way a cold run does, with nothing stored.
                prop_assert!(schedule(&twin).is_err());
                prop_assert_eq!(cache.stats().entries, 0);
            }
        }
    }
}
