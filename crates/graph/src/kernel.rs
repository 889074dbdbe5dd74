//! Immutable compressed-sparse-row snapshot of a constraint graph for the
//! scheduling fixpoint: [`ScheduleKernel`].

use std::convert::Infallible;

use crate::graph::ConstraintGraph;

/// A frozen, data-oriented view of one [`ConstraintGraph`] revision.
///
/// The mutable [`ConstraintGraph`] is built for editing: edge-linked
/// adjacency lists, tombstoned edges, symbolic weights. Every
/// iteration of the scheduler, however, is a linear pass — a topological
/// longest-path sweep over the forward edges followed by a batched scan of
/// the backward edges — and pays for that flexibility with pointer-chasing
/// and scattered loads on each step. A kernel freezes one graph revision
/// into flat `u32`/`i64` arrays laid out in exactly the orders the
/// fixpoint consumes them:
///
/// - the forward topological order, read once per snapshot off the
///   graph's kept rank rather than once per scheduling call;
/// - forward in-edges in CSR form, row per head vertex, so a sweep reads
///   `(tail, weight)` pairs from two contiguous arrays;
/// - backward edges as parallel arrays in live [`EdgeId`](crate::EdgeId) order — the
///   exact order the violation scan and `ReadjustOffsets` visit them.
///
/// Weights are stored **zeroed** (`Weight::zeroed`), the paper's
/// convention for every static path computation, so consumers do plain
/// integer arithmetic with no `enum` dispatch. A kernel describes the
/// graph revision it was built from and must be rebuilt after any
/// mutation; the build is a single `O(|V| + |E|)` pass. Build one with
/// [`ScheduleKernel::build`]; every accessor is a cheap slice borrow.
#[derive(Debug, Clone)]
pub struct ScheduleKernel {
    n_vertices: usize,
    /// Vertex ids in forward topological order.
    topo: Vec<u32>,
    /// CSR row offsets into `fin_tail` / `fin_weight`, one row per head
    /// vertex; length `n_vertices + 1`.
    fin_off: Vec<u32>,
    /// Tails of the forward in-edges of each row's head, adjacency order.
    fin_tail: Vec<u32>,
    /// Zeroed weights parallel to `fin_tail`.
    fin_weight: Vec<i64>,
    /// Tails of the backward edges, in live `EdgeId` order.
    back_tail: Vec<u32>,
    /// Heads parallel to `back_tail`.
    back_head: Vec<u32>,
    /// Zeroed weights parallel to `back_tail`.
    back_weight: Vec<i64>,
}

impl ScheduleKernel {
    /// Snapshots `graph` into flat arrays. It cannot fail: the order
    /// comes from the graph's forward rank, which the mutation API keeps
    /// valid. The error type is [`Infallible`], so callers bind the
    /// kernel with an irrefutable `let Ok(kernel) = …;`.
    pub fn build(graph: &ConstraintGraph) -> Result<ScheduleKernel, Infallible> {
        // Fault-injection site: one relaxed load when nothing is armed.
        // Coarse on purpose — once per snapshot, never in the fixpoint
        // inner loops, so the disabled cost is unmeasurable. It takes only
        // `Panic` or `Delay`: an armed `Error` would be discarded here.
        let _ = crate::failpoint!("kernel::build");
        let n = graph.n_vertices();
        let topo: Vec<u32> = graph.forward_order().iter().map(|v| v.0).collect();

        let mut fin_off = Vec::with_capacity(n + 1);
        let mut fin_tail = Vec::new();
        let mut fin_weight = Vec::new();
        for v in graph.vertex_ids() {
            fin_off.push(fin_tail.len() as u32);
            for (_, e) in graph.in_edges(v) {
                if e.is_forward() {
                    fin_tail.push(e.from().0);
                    fin_weight.push(e.weight().zeroed());
                }
            }
        }
        fin_off.push(fin_tail.len() as u32);

        let mut back_tail = Vec::new();
        let mut back_head = Vec::new();
        let mut back_weight = Vec::new();
        for (_, e) in graph.backward_edges() {
            back_tail.push(e.from().0);
            back_head.push(e.to().0);
            back_weight.push(e.weight().zeroed());
        }

        Ok(ScheduleKernel {
            n_vertices: n,
            topo,
            fin_off,
            fin_tail,
            fin_weight,
            back_tail,
            back_head,
            back_weight,
        })
    }

    /// Number of vertices in the snapshotted graph.
    pub fn n_vertices(&self) -> usize {
        self.n_vertices
    }

    /// Number of live backward edges `|E_b|` in the snapshot.
    pub fn n_backward_edges(&self) -> usize {
        self.back_tail.len()
    }

    /// Vertex ids (as raw `u32` indices) in forward topological order.
    pub fn topo_order(&self) -> &[u32] {
        &self.topo
    }

    /// The forward in-edges of vertex index `v` as parallel
    /// `(tails, weights)` slices, in adjacency order.
    pub fn forward_in_edges(&self, v: usize) -> (&[u32], &[i64]) {
        let lo = self.fin_off[v] as usize;
        let hi = self.fin_off[v + 1] as usize;
        (&self.fin_tail[lo..hi], &self.fin_weight[lo..hi])
    }

    /// Backward-edge tails (vertex indices), in live `EdgeId` order.
    pub fn backward_tails(&self) -> &[u32] {
        &self.back_tail
    }

    /// Backward-edge heads (vertex indices), parallel to
    /// [`ScheduleKernel::backward_tails`].
    pub fn backward_heads(&self) -> &[u32] {
        &self.back_head
    }

    /// Backward-edge zeroed weights, parallel to
    /// [`ScheduleKernel::backward_tails`].
    pub fn backward_weights(&self) -> &[i64] {
        &self.back_weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ExecDelay, VertexId};

    fn sample() -> (ConstraintGraph, [VertexId; 3]) {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Unbounded);
        let b = g.add_operation("b", ExecDelay::Fixed(2));
        let c = g.add_operation("c", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap();
        g.add_dependency(b, c).unwrap();
        g.add_max_constraint(b, c, 4).unwrap();
        g.polarize().unwrap();
        (g, [a, b, c])
    }

    #[test]
    fn snapshot_matches_graph_iteration() {
        let (g, _) = sample();
        let Ok(k) = ScheduleKernel::build(&g);
        assert_eq!(k.n_vertices(), g.n_vertices());
        assert_eq!(k.n_backward_edges(), g.n_backward_edges());

        // Topological order matches the graph's.
        let topo = g.forward_topological_order();
        let expect: Vec<u32> = topo.order().iter().map(|v| v.index() as u32).collect();
        assert_eq!(k.topo_order(), expect.as_slice());

        // Forward in-edges of every vertex, in adjacency order.
        for v in g.vertex_ids() {
            let (tails, weights) = k.forward_in_edges(v.index());
            let expect: Vec<(u32, i64)> = g
                .in_edges(v)
                .filter(|(_, e)| e.is_forward())
                .map(|(_, e)| (e.from().index() as u32, e.weight().zeroed()))
                .collect();
            let got: Vec<(u32, i64)> = tails.iter().copied().zip(weights.iter().copied()).collect();
            assert_eq!(got, expect, "forward in-edges of {v}");
        }

        // Backward arrays in EdgeId order.
        for (i, (_, e)) in g.backward_edges().enumerate() {
            assert_eq!(k.backward_tails()[i], e.from().index() as u32);
            assert_eq!(k.backward_heads()[i], e.to().index() as u32);
            assert_eq!(k.backward_weights()[i], e.weight().zeroed());
        }
    }

    #[test]
    fn snapshot_skips_tombstoned_edges() {
        let (mut g, [_, b, c]) = sample();
        let victim = g
            .out_edges(b)
            .find(|(_, e)| e.is_forward() && e.to() == c)
            .map(|(id, _)| id)
            .unwrap();
        g.remove_edge(victim).unwrap();
        let Ok(k) = ScheduleKernel::build(&g);
        let (tails, _) = k.forward_in_edges(c.index());
        assert!(tails.iter().all(|&t| t != b.index() as u32));
        assert_eq!(k.n_backward_edges(), 1);
    }
}
