//! Property test: vertex names, kept in one arena per graph, read back
//! exactly as they were added — through `clone`, `set_delay`,
//! `remove_edge`, transitive reduction (which rebuilds the edge storage)
//! and a `to_text` → `from_text` round trip.

use proptest::prelude::*;
use rsched_graph::{ConstraintGraph, ExecDelay, VertexId};

/// Names drawn for operations: repeats, multi-byte characters, and names
/// equal or close to the predeclared `source` and `sink`. None holds
/// whitespace, `#` or `@`, so the text format can carry every one.
const NAMES: [&str; 10] = [
    "a", "b7", "é", "名前", "ß_x", "source", "sink", "sources", "Sink", "a",
];

const OPS: usize = 12;

/// Every vertex's `name()` and `display_name()` equal `expected`, and an
/// id past the last vertex displays as an id.
fn assert_names(g: &ConstraintGraph, expected: &[String]) {
    assert_eq!(g.n_vertices(), expected.len());
    for (v, name) in g.vertex_ids().zip(expected) {
        assert_eq!(g.vertex(v).name(), name.as_str());
        assert_eq!(g.display_name(v), *name);
    }
    let foreign = VertexId::from_index(expected.len());
    assert_eq!(g.display_name(foreign), format!("v{}", expected.len()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn names_survive_every_mutation(
        picks in proptest::collection::vec(0usize..NAMES.len(), 0..OPS),
        deps in proptest::collection::vec((0usize..OPS, 0usize..OPS), 0..24),
        maxs in proptest::collection::vec((0usize..OPS, 0usize..OPS, 0u64..9), 0..4),
        flips in proptest::collection::vec((0usize..OPS, proptest::option::of(0u64..5)), 0..6),
        removals in proptest::collection::vec(0usize..40, 0..6),
    ) {
        let mut g = ConstraintGraph::new();
        let mut expected = vec!["source".to_owned(), "sink".to_owned()];
        let mut ops = Vec::new();
        for (i, &p) in picks.iter().enumerate() {
            // `add_operation` takes any `AsRef<str>`: a borrowed and an
            // owned name store the same bytes.
            let delay = ExecDelay::Fixed(i as u64 % 3);
            let owned: String = NAMES[p].into();
            ops.push(if i % 2 == 0 {
                g.add_operation(NAMES[p], delay)
            } else {
                g.add_operation(owned, delay)
            });
            expected.push(NAMES[p].to_owned());
        }
        assert_names(&g, &expected);
        let n = ops.len();
        for &(i, j) in &deps {
            if i < j && j < n {
                let _ = g.add_dependency(ops[i], ops[j]);
            }
        }
        for &(i, j, u) in &maxs {
            if i != j && i < n && j < n {
                let _ = g.add_max_constraint(ops[i], ops[j], u);
            }
        }
        let snapshot = g.clone();
        assert_names(&snapshot, &expected);

        for &(i, d) in &flips {
            if i < n {
                let delay = d.map_or(ExecDelay::Unbounded, ExecDelay::Fixed);
                g.set_delay(ops[i], delay).unwrap();
            }
        }
        assert_names(&g, &expected);
        for &e in &removals {
            let id = g.edges().nth(e).map(|(id, _)| id);
            if let Some(id) = id {
                g.remove_edge(id).unwrap();
            }
        }
        assert_names(&g, &expected);
        g.polarize().unwrap();
        g.reduce_sequencing_edges();
        assert_names(&g, &expected);
        // Mutating the original leaves the clone's names alone.
        assert_names(&snapshot, &expected);

        // `to_text` writes a repeated name, or an operation named like
        // the source or sink, as `name@id`; ids survive because
        // operations are written in id order.
        let parsed = ConstraintGraph::from_text(&g.to_text()).unwrap();
        let renamed: Vec<String> = expected
            .iter()
            .enumerate()
            .map(|(v, name)| {
                let repeated = v >= 2
                    && (name == "source"
                        || name == "sink"
                        || expected[2..].iter().filter(|&m| m == name).count() > 1);
                if repeated {
                    format!("{name}@{v}")
                } else {
                    name.clone()
                }
            })
            .collect();
        assert_names(&parsed, &renamed);
    }
}

/// A suffix `to_text` picks is never a name another operation already
/// has: `a`, `a`, `a@3` cannot render the second `a` as `a@3`.
#[test]
fn suffixed_names_avoid_names_in_use() {
    let mut g = ConstraintGraph::new();
    let ops = ["a", "a", "a@3", "a@3@1", "source", "source@6"]
        .map(|name| g.add_operation(name, ExecDelay::Fixed(1)));
    g.add_dependency(ops[0], ops[1]).unwrap();
    g.add_max_constraint(ops[1], ops[2], 4).unwrap();
    g.polarize().unwrap();
    let text = g.to_text();
    let parsed = ConstraintGraph::from_text(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let expected = [
        "source",
        "sink",
        "a@2",
        "a@3@2",
        "a@3",
        "a@3@1",
        "source@6@1",
        "source@6",
    ]
    .map(str::to_owned);
    assert_names(&parsed, &expected);
    assert_eq!(parsed.to_text(), text);
}
