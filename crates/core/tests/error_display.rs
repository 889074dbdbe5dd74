//! Every error variant renders a meaningful, lowercase, punctuation-free
//! message (C-GOOD-ERR) and threads its source.

use std::error::Error as _;

use rsched_core::ScheduleError;
use rsched_graph::{ConstraintGraph, ExecDelay, GraphError, VertexId};

fn v(i: usize) -> VertexId {
    VertexId::from_index(i)
}

#[test]
fn graph_errors_render() {
    let cases: Vec<(GraphError, &str)> = vec![
        (GraphError::UnknownVertex(v(3)), "unknown vertex v3"),
        (
            GraphError::ForwardCycle {
                from: v(1),
                to: v(2),
            },
            "cycle in the forward constraint graph",
        ),
        (GraphError::SelfLoop(v(4)), "self-loop"),
        (
            GraphError::Polarity {
                from: v(0),
                to: v(1),
            },
            "violates polarity",
        ),
        (
            GraphError::ContradictsDependencies {
                from: v(1),
                to: v(2),
                min: 5,
            },
            "contradicts an existing dependency",
        ),
        (
            GraphError::PositiveCycle { witness: v(7) },
            "positive cycle",
        ),
    ];
    for (err, needle) in cases {
        let text = err.to_string();
        assert!(text.contains(needle), "{err:?} -> {text}");
        assert!(!text.ends_with('.'), "no trailing punctuation: {text}");
    }
}

#[test]
fn schedule_errors_render_and_chain_sources() {
    let cases: Vec<(ScheduleError, &str)> = vec![
        (
            ScheduleError::Unfeasible { witness: v(2) },
            "unfeasible timing constraints",
        ),
        (
            ScheduleError::IllPosed {
                from: v(1),
                to: v(2),
                missing: vec![v(3), v(4)],
            },
            "ill-posed maximum constraint",
        ),
        (
            ScheduleError::CannotSerialize {
                anchor: v(3),
                vertex: v(4),
            },
            "cannot make constraints well-posed",
        ),
        (
            ScheduleError::Inconsistent { iterations: 7 },
            "inconsistent timing constraints",
        ),
        (
            ScheduleError::UnboundedDelayUnsupported { vertex: v(5) },
            "unbounded delay",
        ),
    ];
    for (err, needle) in cases {
        let text = err.to_string();
        assert!(text.contains(needle), "{err:?} -> {text}");
    }
    // Graph-wrapping errors expose their source.
    let wrapped = ScheduleError::Graph(GraphError::SelfLoop(v(1)));
    assert!(wrapped.source().is_some());
    assert!(ScheduleError::Inconsistent { iterations: 1 }
        .source()
        .is_none());
    // From<GraphError> maps positive cycles onto Unfeasible.
    let mapped: ScheduleError = GraphError::PositiveCycle { witness: v(9) }.into();
    assert!(matches!(mapped, ScheduleError::Unfeasible { .. }));
}

#[test]
fn ill_posed_message_lists_missing_anchors() {
    let err = ScheduleError::IllPosed {
        from: v(1),
        to: v(2),
        missing: vec![v(3), v(4)],
    };
    let text = err.to_string();
    assert!(text.contains("v3"));
    assert!(text.contains("v4"));
}

/// Each message text lives in one formatter: `Display` names vertices by
/// id, `render` by the graph's operation names, and an id the graph does
/// not hold stays an id.
#[test]
fn messages_render_by_id_or_by_operation_name() {
    let mut g = ConstraintGraph::new();
    let a = g.add_operation("a", ExecDelay::Fixed(1));
    let b = g.add_operation("b", ExecDelay::Unbounded);
    g.polarize().unwrap();
    let graph_cases: Vec<(GraphError, &str, &str)> = vec![
        (
            GraphError::ForwardCycle { from: b, to: a },
            "edge v3 -> v2 would create a cycle in the forward constraint graph",
            "edge b -> a would create a cycle in the forward constraint graph",
        ),
        (
            GraphError::ContradictsDependencies {
                from: b,
                to: a,
                min: 2,
            },
            "minimum constraint v3 -> v2 of 2 cycles contradicts an existing dependency path v2 -> v3",
            "minimum constraint b -> a of 2 cycles contradicts an existing dependency path a -> b",
        ),
        (
            GraphError::ImmutableVertex(g.sink()),
            "vertex v1 is the source or sink and cannot be mutated",
            "vertex sink is the source or sink and cannot be mutated",
        ),
        (
            GraphError::UnknownVertex(v(9)),
            "unknown vertex v9",
            "unknown vertex v9",
        ),
    ];
    for (err, by_id, by_name) in graph_cases {
        assert_eq!(err.to_string(), by_id);
        assert_eq!(err.render(&g), by_name);
        let wrapped = ScheduleError::Graph(err);
        assert_eq!(wrapped.to_string(), by_id);
        assert_eq!(wrapped.render(&g), by_name);
    }
    let schedule_cases: Vec<(ScheduleError, &str, &str)> = vec![
        (
            ScheduleError::Unfeasible { witness: b },
            "unfeasible timing constraints: positive cycle through v3",
            "unfeasible timing constraints: positive cycle through b",
        ),
        (
            ScheduleError::IllPosed {
                from: a,
                to: g.sink(),
                missing: vec![g.source(), b],
            },
            "ill-posed maximum constraint on backward edge v2 -> v1: anchors [v0, v3] affect v1 but not v2",
            "ill-posed maximum constraint on backward edge a -> sink: anchors [source, b] affect sink but not a",
        ),
        (
            ScheduleError::CannotSerialize {
                anchor: b,
                vertex: a,
            },
            "cannot make constraints well-posed: serializing v2 after v3 would close an unbounded-length cycle",
            "cannot make constraints well-posed: serializing a after b would close an unbounded-length cycle",
        ),
        (
            ScheduleError::UnboundedDelayUnsupported { vertex: b },
            "operation v3 has unbounded delay, which this scheduler does not support",
            "operation b has unbounded delay, which this scheduler does not support",
        ),
    ];
    for (err, by_id, by_name) in schedule_cases {
        assert_eq!(err.to_string(), by_id);
        assert_eq!(err.render(&g), by_name);
    }
}
