use crate::graph::{ConstraintGraph, VertexId};

/// A topological ordering of the forward constraint graph `G_f`.
///
/// Every scheduling pass of the paper sweeps `G_f` in topological order
/// (the `ftrav` counters of `findAnchorSet` and `IncrementalOffset`
/// implement exactly this); this type lists the order once so sweeps are
/// simple loops. The order is read off the graph's kept forward rank, so
/// it costs no sort.
#[derive(Debug, Clone)]
pub struct ForwardTopo {
    order: Vec<VertexId>,
    position: Vec<usize>,
}

impl ForwardTopo {
    /// Reads a topological order of `G_f` off the rank the graph keeps
    /// (see [`ConstraintGraph::forward_rank`]): `O(|V|)`, visiting no edge.
    /// The order is the source, the operations by rank, then the sink.
    /// It cannot fail: the mutation API rejects every forward cycle, so
    /// the rank is always valid.
    pub fn new(graph: &ConstraintGraph) -> Self {
        let order = graph.forward_order();
        let mut position = vec![0usize; order.len()];
        for (i, v) in order.iter().enumerate() {
            position[v.index()] = i;
        }
        ForwardTopo { order, position }
    }

    /// The vertices in topological order (predecessors before successors).
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }

    /// The position of `v` within the order.
    pub fn position(&self, v: VertexId) -> usize {
        self.position[v.index()]
    }

    /// `true` if `a` precedes `b` in this order.
    ///
    /// Note this is a property of the computed order, not of the graph:
    /// incomparable vertices are still linearly ordered.
    pub fn precedes(&self, a: VertexId, b: VertexId) -> bool {
        self.position(a) < self.position(b)
    }
}

impl ConstraintGraph {
    /// Computes a topological ordering of the forward subgraph `G_f`; see
    /// [`ForwardTopo::new`].
    pub fn forward_topological_order(&self) -> ForwardTopo {
        ForwardTopo::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ExecDelay;

    #[test]
    fn diamond_orders_predecessors_first() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(1));
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        let c = g.add_operation("c", ExecDelay::Fixed(1));
        let d = g.add_operation("d", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap();
        g.add_dependency(a, c).unwrap();
        g.add_dependency(b, d).unwrap();
        g.add_dependency(c, d).unwrap();
        g.polarize().unwrap();
        let topo = g.forward_topological_order();
        assert_eq!(topo.order().len(), g.n_vertices());
        assert!(topo.precedes(g.source(), a));
        assert!(topo.precedes(a, b));
        assert!(topo.precedes(a, c));
        assert!(topo.precedes(b, d));
        assert!(topo.precedes(c, d));
        assert!(topo.precedes(d, g.sink()));
    }

    #[test]
    fn backward_edges_do_not_affect_order() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(1));
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap();
        g.add_max_constraint(a, b, 3).unwrap(); // backward edge b -> a
        g.polarize().unwrap();
        let topo = g.forward_topological_order();
        assert!(topo.precedes(a, b));
    }

    #[test]
    fn every_vertex_appears_exactly_once() {
        let mut g = ConstraintGraph::new();
        for i in 0..10 {
            g.add_operation(format!("op{i}"), ExecDelay::Fixed(i));
        }
        g.polarize().unwrap();
        let topo = g.forward_topological_order();
        let mut seen = vec![false; g.n_vertices()];
        for &v in topo.order() {
            assert!(!seen[v.index()], "vertex repeated in order");
            seen[v.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}
