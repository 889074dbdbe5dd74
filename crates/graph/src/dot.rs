//! Graphviz DOT export for constraint graphs.
//!
//! Renders the same visual language the paper uses: anchors are
//! double-circled, forward edges solid, backward (maximum-constraint) edges
//! dashed, and every edge is labeled with its weight.

use std::fmt::Write as _;

use crate::graph::{ConstraintGraph, Weight};

/// Rendering options for [`ConstraintGraph::to_dot`].
#[derive(Debug, Clone)]
pub struct DotOptions {
    /// Graph name emitted in the `digraph` header.
    pub name: String,
    /// Include vertex delays in labels.
    pub show_delays: bool,
    /// Include edge weights as labels.
    pub show_weights: bool,
}

impl Default for DotOptions {
    fn default() -> Self {
        DotOptions {
            name: "constraint_graph".to_owned(),
            show_delays: true,
            show_weights: true,
        }
    }
}

impl ConstraintGraph {
    /// Renders the graph in Graphviz DOT syntax.
    ///
    /// ```
    /// use rsched_graph::{ConstraintGraph, DotOptions, ExecDelay};
    ///
    /// let mut g = ConstraintGraph::new();
    /// let a = g.add_operation("a", ExecDelay::Unbounded);
    /// let dot = g.to_dot(&DotOptions::default());
    /// assert!(dot.contains("digraph"));
    /// assert!(dot.contains("doublecircle")); // anchors double-circled
    /// ```
    pub fn to_dot(&self, options: &DotOptions) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph {} {{", options.name);
        let _ = writeln!(out, "  rankdir=TB;");
        for v in self.vertex_ids() {
            let vertex = self.vertex(v);
            let shape = if self.is_anchor(v) {
                "doublecircle"
            } else {
                "circle"
            };
            let label = if options.show_delays {
                format!("{}\\n{}", vertex.name(), vertex.delay())
            } else {
                vertex.name().to_owned()
            };
            let _ = writeln!(out, "  {v} [shape={shape}, label=\"{label}\"];");
        }
        for (_, e) in self.edges() {
            let style = if e.is_backward() {
                ", style=dashed, constraint=false"
            } else {
                ""
            };
            let label = if options.show_weights {
                format!(" [label=\"{}\"{}]", self.weight_label(e.weight()), style)
            } else if e.is_backward() {
                format!(" [{}]", &style[2..])
            } else {
                String::new()
            };
            let _ = writeln!(out, "  {} -> {}{};", e.from(), e.to(), label);
        }
        let _ = writeln!(out, "}}");
        out
    }
}

impl ConstraintGraph {
    /// Like [`ConstraintGraph::to_dot`], but annotates every vertex with
    /// extra per-vertex text (e.g. schedule offsets) supplied by
    /// `annotate`.
    pub fn to_dot_annotated(
        &self,
        options: &DotOptions,
        mut annotate: impl FnMut(crate::graph::VertexId) -> String,
    ) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph {} {{", options.name);
        let _ = writeln!(out, "  rankdir=TB;");
        for v in self.vertex_ids() {
            let vertex = self.vertex(v);
            let shape = if self.is_anchor(v) {
                "doublecircle"
            } else {
                "circle"
            };
            let extra = annotate(v);
            let label = if extra.is_empty() {
                format!("{}\\n{}", vertex.name(), vertex.delay())
            } else {
                format!("{}\\n{}\\n{}", vertex.name(), vertex.delay(), extra)
            };
            let _ = writeln!(out, "  {v} [shape={shape}, label=\"{label}\"];");
        }
        for (_, e) in self.edges() {
            let style = if e.is_backward() {
                ", style=dashed, constraint=false"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  {} -> {} [label=\"{}\"{}];",
                e.from(),
                e.to(),
                self.weight_label(e.weight()),
                style
            );
        }
        let _ = writeln!(out, "}}");
        out
    }

    /// An edge label: the weight with its anchor named as an operation
    /// (`δ(sync)`), like the vertex labels.
    fn weight_label(&self, weight: Weight) -> String {
        let mut label = String::new();
        let _ = weight.write_named(&mut label, &|v| self.display_name(v));
        label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ExecDelay;

    #[test]
    fn dot_contains_all_vertices_and_edges() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("alu", ExecDelay::Fixed(2));
        let b = g.add_operation("wait", ExecDelay::Unbounded);
        g.add_dependency(a, b).unwrap();
        g.add_max_constraint(a, b, 7).unwrap();
        g.polarize().unwrap();
        let dot = g.to_dot(&DotOptions::default());
        assert!(dot.starts_with("digraph constraint_graph {"));
        assert!(dot.contains("alu"));
        assert!(dot.contains("wait"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("-7")); // backward weight
        assert!(dot.contains("label=\"δ(wait)\""), "{dot}"); // anchor named
        assert!(!dot.contains("δ(v"), "{dot}");
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn annotated_dot_includes_extra_text() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("alu", ExecDelay::Fixed(2));
        g.polarize().unwrap();
        let dot = g.to_dot_annotated(&DotOptions::default(), |v| {
            if v == a {
                "σ=3".to_owned()
            } else {
                String::new()
            }
        });
        assert!(dot.contains("σ=3"));
        assert!(dot.contains("alu"));
    }

    #[test]
    fn labels_can_be_suppressed() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(1));
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap();
        let dot = g.to_dot(&DotOptions {
            show_delays: false,
            show_weights: false,
            ..DotOptions::default()
        });
        assert!(!dot.contains("label=\"1\""));
    }
}
