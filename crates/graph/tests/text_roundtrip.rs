//! Property tests: the text format roundtrips arbitrary graphs built
//! through the mutation API, and `polarize` leaves polar graphs as they
//! are.

use proptest::prelude::*;
use rsched_graph::{ConstraintGraph, ExecDelay, VertexId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn text_format_roundtrips(
        delays in proptest::collection::vec(
            prop_oneof![3 => (0u64..9).prop_map(Some), 1 => Just(None)], 1..14),
        deps in proptest::collection::vec((0usize..14, 0usize..14), 0..20),
        mins in proptest::collection::vec((0usize..14, 0usize..14, 0u64..9), 0..5),
        maxs in proptest::collection::vec((0usize..14, 0usize..14, 0u64..9), 0..5),
    ) {
        let mut g = ConstraintGraph::new();
        let vs: Vec<VertexId> = delays.iter().enumerate().map(|(i, d)| {
            g.add_operation(format!("op{i}"), match d {
                Some(d) => ExecDelay::Fixed(*d),
                None => ExecDelay::Unbounded,
            })
        }).collect();
        let n = vs.len();
        for &(i, j) in &deps {
            if i < j && j < n {
                let _ = g.add_dependency(vs[i], vs[j]);
            }
        }
        for &(i, j, l) in &mins {
            if i < j && j < n {
                let _ = g.add_min_constraint(vs[i], vs[j], l);
            }
        }
        for &(i, j, u) in &maxs {
            if i != j && i < n && j < n {
                let _ = g.add_max_constraint(vs[i], vs[j], u);
            }
        }
        g.polarize().unwrap();

        let text = g.to_text();
        let g2 = ConstraintGraph::from_text(&text)
            .unwrap_or_else(|e| panic!("emitted text must parse: {e}\n{text}"));
        prop_assert_eq!(g.n_vertices(), g2.n_vertices());
        prop_assert_eq!(g.n_edges(), g2.n_edges());
        prop_assert_eq!(g.n_backward_edges(), g2.n_backward_edges());
        prop_assert_eq!(g.anchors().len(), g2.anchors().len());
        // Edge multiset by (names, kind-ness, zeroed weight).
        let key = |g: &ConstraintGraph| {
            let mut edges: Vec<(String, String, bool, i64)> = g
                .edges()
                .map(|(_, e)| {
                    (
                        g.vertex(e.from()).name().to_owned(),
                        g.vertex(e.to()).name().to_owned(),
                        e.is_backward(),
                        e.weight().zeroed(),
                    )
                })
                .collect();
            edges.sort();
            edges
        };
        prop_assert_eq!(key(&g), key(&g2));
    }

    /// `polarize` on a polar graph adds no edge and changes nothing, so
    /// `Session::open` may call it without asking `is_polar` first.
    #[test]
    fn polarize_leaves_polar_graphs_unchanged(
        delays in proptest::collection::vec(
            prop_oneof![3 => (0u64..9).prop_map(Some), 1 => Just(None)], 0..14),
        deps in proptest::collection::vec((0usize..16, 0usize..16), 0..24),
        mins in proptest::collection::vec((0usize..14, 0usize..14, 0u64..9), 0..5),
        maxs in proptest::collection::vec((0usize..14, 0usize..14, 0u64..9), 0..5),
    ) {
        let mut g = ConstraintGraph::new();
        // Positions 0 and 1 are the source and sink, so `deps` also
        // builds graphs that are polar before any `polarize`.
        let mut vs = vec![g.source(), g.sink()];
        for (i, d) in delays.iter().enumerate() {
            vs.push(g.add_operation(format!("op{i}"), match d {
                Some(d) => ExecDelay::Fixed(*d),
                None => ExecDelay::Unbounded,
            }));
        }
        let n = vs.len();
        for &(i, j) in &deps {
            if i < n && j < n {
                let _ = g.add_dependency(vs[i], vs[j]);
            }
        }
        for &(i, j, l) in &mins {
            if i < n && j < n {
                let _ = g.add_min_constraint(vs[i], vs[j], l);
            }
        }
        for &(i, j, u) in &maxs {
            if i < n && j < n {
                let _ = g.add_max_constraint(vs[i], vs[j], u);
            }
        }
        if !g.is_polar() {
            g.polarize().unwrap();
        }
        prop_assert!(g.is_polar());
        let text = g.to_text();
        let edges = g.n_edges();
        g.polarize().unwrap();
        prop_assert_eq!(g.n_edges(), edges);
        prop_assert_eq!(g.to_text(), text.clone());
        let mut parsed = ConstraintGraph::from_text(&text).unwrap();
        parsed.polarize().unwrap();
        prop_assert_eq!(parsed.to_text(), text);
    }
}
