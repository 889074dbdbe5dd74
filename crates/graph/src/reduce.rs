//! Transitive reduction of sequencing edges.
//!
//! Front ends (and `makeWellposed`) can leave sequencing edges that are
//! implied by longer parallel paths; they change nothing about the
//! schedule but inflate every `O(|E|)` pass and clutter DOT output. This
//! pass removes a sequencing edge `(u, v)` when some other `u → v` path
//! of equal or greater weight exists, which provably preserves all
//! longest paths (and therefore offsets, anchor sets and start times —
//! property-tested in `rsched-core`).
//!
//! Timing-constraint edges are never removed: they carry user intent.

use crate::graph::{ConstraintGraph, Edge, EdgeId, EdgeKind, VertexId};

/// How [`ConstraintGraph::sequencing_keep_mask`] decides an edge.
#[derive(Clone, Copy)]
enum Test {
    /// Never implied: not a sequencing edge, or its tail has no other
    /// forward edge out or its head none in.
    Never,
    /// Implied iff another `u → v` path exists; `witnessed` when `G_f`
    /// holds one of two or more edges.
    Reach { witnessed: bool },
    /// Implied iff the longest other `u → v` path weighs at least `w`.
    Exact,
}

/// Statistics of a [`ConstraintGraph::reduce_sequencing_edges`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReductionReport {
    /// Sequencing edges removed.
    pub removed: usize,
    /// Edges examined.
    pub examined: usize,
}

impl ConstraintGraph {
    /// Removes redundant sequencing edges: an edge `(u, v)` with weight
    /// `w` is dropped when the longest `u → v` path *not using that edge*
    /// (through forward edges only, unbounded weights at 0) is at least
    /// `w` — and, for unbounded edges, when that path also carries `u`'s
    /// anchor tag (so anchor sets are unchanged).
    ///
    /// Rebuilds the graph without the redundant edges and returns how
    /// many were removed. Timing-constraint edges are preserved.
    pub fn reduce_sequencing_edges(&mut self) -> ReductionReport {
        let (keep, report) = self.sequencing_keep_mask(&self.forward_order());
        if report.removed > 0 {
            self.retain_edges(&keep);
        }
        report
    }

    /// Flags redundant sequencing edges without mutating the graph:
    /// `keep[edge] == false` marks an edge [`reduce_sequencing_edges`]
    /// would drop. Canonicalization uses this directly so key derivation
    /// never clones or rebuilds the graph. `order` is a topological order
    /// of `G_f`; it stays one for every kept subgraph.
    ///
    /// Edges are decided one by one in edge-id order, each against the
    /// edges kept so far. Most need no path lengths at all. Forward
    /// weights (unbounded ones at 0) are never negative, since the graph
    /// refuses any delay or bound above `i64::MAX`, and every sequencing
    /// edge out of `u` weighs `δ(u)`. So when no forward edge out of `u`
    /// is lighter than
    /// `w`, every other `u → v` path weighs at least `w`, and `(u, v)` is
    /// implied iff such a path exists at all: a kept parallel edge, or a
    /// path of two or more edges. Dropping an implied edge never changes
    /// reachability, and no path out of a successor of `u` can use
    /// `(u, v)`, so the second case is a property of the unreduced `G_f`,
    /// answered for all edges up front by [`two_step_witnesses`]. The
    /// remaining edges — a lighter edge out of `u`, a bounded first step
    /// under an anchor tail, or a path weight that may overflow an `i64`
    /// — take the exact longest-path test of [`edge_is_implied`].
    ///
    /// [`reduce_sequencing_edges`]: ConstraintGraph::reduce_sequencing_edges
    /// [`two_step_witnesses`]: ConstraintGraph::two_step_witnesses
    /// [`edge_is_implied`]: ConstraintGraph::edge_is_implied
    pub(crate) fn sequencing_keep_mask(&self, order: &[VertexId]) -> (Vec<bool>, ReductionReport) {
        let n = self.n_vertices();
        let mut report = ReductionReport::default();
        // Indexed by raw EdgeId: removal tombstones leave holes, so live
        // ids can exceed the live-edge count.
        let mut keep = vec![true; self.n_all_edge_slots()];
        let mut pos = vec![0u32; n];
        for (i, &v) in order.iter().enumerate() {
            pos[v.index()] = i as u32;
        }

        // Pre-pass: forward degrees, the lightest forward edge out of each
        // vertex, whether an anchor tail has a bounded one, and whether
        // every path weight fits an i64 (the sum of all forward weights
        // does).
        let mut out_deg = vec![0u32; n];
        let mut in_deg = vec![0u32; n];
        let mut lightest = vec![i64::MAX; n];
        let mut bounded_out = vec![false; n];
        let mut total = Some(0i64);
        for (_, e) in self.forward_edges() {
            let (u, w) = (e.from().index(), e.weight().zeroed());
            out_deg[u] += 1;
            in_deg[e.to().index()] += 1;
            lightest[u] = lightest[u].min(w);
            bounded_out[u] |= !e.weight().is_unbounded();
            total = total.and_then(|t| t.checked_add(w));
        }

        let mut test = vec![Test::Never; keep.len()];
        let mut reach_tests = Vec::new();
        for (id, e) in self.edges() {
            if e.kind() != EdgeKind::Sequencing {
                continue;
            }
            let (u, v) = (e.from().index(), e.to().index());
            // An alternative path needs another forward edge out of `u`
            // and another forward edge into `v`.
            test[id.index()] = if out_deg[u] < 2 || in_deg[v] < 2 {
                Test::Never
            } else if total.is_none()
                || lightest[u] < e.weight().zeroed()
                || (e.weight().is_unbounded() && bounded_out[u])
            {
                Test::Exact
            } else {
                reach_tests.push(id);
                Test::Reach { witnessed: false }
            };
        }
        for id in self.two_step_witnesses(order, &pos, &reach_tests) {
            test[id.index()] = Test::Reach { witnessed: true };
        }

        let mut dist: Vec<Option<i64>> = Vec::new();
        for (id, e) in self.edges() {
            if e.kind() != EdgeKind::Sequencing {
                continue;
            }
            report.examined += 1;
            let implied = match test[id.index()] {
                Test::Never => false,
                Test::Reach { witnessed } => {
                    witnessed || self.has_kept_parallel(&keep, &out_deg, &in_deg, id, e)
                }
                Test::Exact => {
                    dist.resize(n, None);
                    self.edge_is_implied(
                        &keep,
                        order,
                        &pos,
                        &mut dist,
                        id.index(),
                        e.from(),
                        e.to(),
                        e.weight().zeroed(),
                    )
                }
            };
            if implied {
                keep[id.index()] = false;
                report.removed += 1;
            }
        }
        (keep, report)
    }

    /// The edges `(u, v)` among `edges` for which `G_f` holds a `u → v`
    /// path of two or more edges.
    ///
    /// Works in topological positions. The heads are dealt, in position
    /// order, into blocks of 64 bits. For each block one reverse sweep
    /// over the window its edges span sets `reach[x]` to the block's heads
    /// that `x` is or reaches; each tail then ORs the strict reach of its
    /// successors. Memory stays `O(|V| + |E|)` for any graph: successor
    /// lists and a few words per vertex, reused block after block.
    fn two_step_witnesses(&self, order: &[VertexId], pos: &[u32], edges: &[EdgeId]) -> Vec<EdgeId> {
        const NONE: u32 = u32::MAX;
        let n = order.len();
        let mut first = Vec::with_capacity(n + 1);
        let mut succ = Vec::with_capacity(self.n_edges());
        for &x in order {
            first.push(succ.len() as u32);
            succ.extend(
                self.out_edges(x)
                    .filter(|(_, e)| e.is_forward())
                    .map(|(_, e)| pos[e.to().index()]),
            );
        }
        first.push(succ.len() as u32);
        let succs = |x: u32| &succ[first[x as usize] as usize..first[x as usize + 1] as usize];
        let ends = |id: EdgeId| {
            let e = self.edge(id);
            (pos[e.from().index()], pos[e.to().index()])
        };

        // Head `k`, in position order, is bit `k % 64` of block `k / 64`.
        let mut bit_of = vec![NONE; n];
        for &id in edges {
            bit_of[ends(id).1 as usize] = 0;
        }
        for (k, bit) in bit_of.iter_mut().filter(|bit| **bit != NONE).enumerate() {
            *bit = k as u32;
        }
        let block_of = |id: EdgeId| bit_of[ends(id).1 as usize] / 64;
        let mut edges = edges.to_vec();
        edges.sort_unstable_by_key(|&id| block_of(id));

        let mut reach = vec![0u64; n];
        // A tail's OR over its successors, computed once a block.
        let mut tail_word = vec![(NONE, 0u64); n];
        let mut witnessed = Vec::new();
        for block in edges.chunk_by(|&a, &b| block_of(a) == block_of(b)) {
            let b = block_of(block[0]);
            let own = |p: u32| {
                let k = bit_of[p as usize];
                if k != NONE && k / 64 == b {
                    1u64 << (k % 64)
                } else {
                    0
                }
            };
            // The window: from the first tail to the last head.
            let lo = block.iter().map(|&id| ends(id).0).min().expect("non-empty");
            let hi = block.iter().map(|&id| ends(id).1).max().expect("non-empty");
            for x in (lo + 1..=hi).rev() {
                let mut word = own(x);
                for &y in succs(x) {
                    if y <= hi {
                        word |= reach[y as usize];
                    }
                }
                reach[x as usize] = word;
            }
            for &id in block {
                let (tail, head) = ends(id);
                let (stamp, word) = &mut tail_word[tail as usize];
                if *stamp != b {
                    *stamp = b;
                    *word = 0;
                    for &x in succs(tail) {
                        if x <= hi {
                            *word |= reach[x as usize] & !own(x);
                        }
                    }
                }
                if *word & own(head) != 0 {
                    witnessed.push(id);
                }
            }
        }
        witnessed
    }

    /// `true` if a kept forward edge other than `skip` (which is `e`) runs
    /// parallel to it. Scans whichever endpoint has fewer forward edges.
    fn has_kept_parallel(
        &self,
        keep: &[bool],
        out_deg: &[u32],
        in_deg: &[u32],
        skip: EdgeId,
        e: &Edge,
    ) -> bool {
        let (u, v) = (e.from(), e.to());
        let parallel = |(id, f): (EdgeId, &Edge)| {
            id != skip && keep[id.index()] && f.is_forward() && f.from() == u && f.to() == v
        };
        if out_deg[u.index()] <= in_deg[v.index()] {
            self.out_edges(u).any(parallel)
        } else {
            self.in_edges(v).any(parallel)
        }
    }

    /// Longest `u → v` forward path avoiding edge `skip` and every edge
    /// already dropped (`!keep`); `None` if no such path. Additionally
    /// requires, for unbounded edges (tail is an anchor), that the
    /// surviving path starts with another unbounded edge of `u` —
    /// otherwise removing the edge could shrink `A(v)`.
    #[allow(clippy::too_many_arguments)]
    fn edge_is_implied(
        &self,
        keep: &[bool],
        order: &[VertexId],
        pos: &[u32],
        dist: &mut [Option<i64>],
        skip: usize,
        u: VertexId,
        v: VertexId,
        w: i64,
    ) -> bool {
        // An alternative path needs another forward edge out of `u` and
        // another forward edge into `v`; most edges fail this for free.
        let viable =
            |id: EdgeId, e: &Edge| id.index() != skip && keep[id.index()] && e.is_forward();
        if !self.out_edges(u).any(|(id, e)| viable(id, e))
            || !self.in_edges(v).any(|(id, e)| viable(id, e))
        {
            return false;
        }
        // dist[x] = longest forward path u -> x avoiding `skip`, where the
        // first edge out of `u` must be unbounded iff the skipped edge is
        // (preserving anchor-set propagation). Any such path only visits
        // vertices topologically between `u` and `v`, so the single DP
        // pass (G_f is acyclic) is confined to that window.
        let skip_unbounded = self.edge(EdgeId(skip as u32)).weight().is_unbounded();
        let (lo, hi) = (pos[u.index()] as usize, pos[v.index()] as usize);
        for &x in &order[lo..=hi] {
            dist[x.index()] = None;
        }
        // Seed with u's other out-edges.
        for (id, e) in self.out_edges(u) {
            if id.index() == skip || !keep[id.index()] || !e.is_forward() {
                continue;
            }
            if skip_unbounded && !e.weight().is_unbounded() {
                continue;
            }
            if pos[e.to().index()] as usize > hi {
                continue;
            }
            let cand = e.weight().zeroed();
            let slot = &mut dist[e.to().index()];
            if slot.is_none_or(|d| cand > d) {
                *slot = Some(cand);
            }
        }
        for &x in &order[lo..hi] {
            if x == u {
                continue;
            }
            let Some(dx) = dist[x.index()] else { continue };
            for (id, e) in self.out_edges(x) {
                if id.index() == skip || !keep[id.index()] || !e.is_forward() {
                    continue;
                }
                if pos[e.to().index()] as usize > hi {
                    continue;
                }
                let cand = dx + e.weight().zeroed();
                let slot = &mut dist[e.to().index()];
                if slot.is_none_or(|d| cand > d) {
                    *slot = Some(cand);
                }
            }
        }
        dist[v.index()].is_some_and(|d| d >= w)
    }

    /// Rebuilds edge storage keeping only the flagged edges.
    fn retain_edges(&mut self, keep: &[bool]) {
        let kept: Vec<Edge> = self
            .edges()
            .filter(|(id, _)| keep[id.index()])
            .map(|(_, e)| *e)
            .collect();
        self.replace_edges(kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ExecDelay;

    #[test]
    fn removes_edge_implied_by_longer_path() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(1));
        let b = g.add_operation("b", ExecDelay::Fixed(2));
        let c = g.add_operation("c", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap();
        g.add_dependency(b, c).unwrap();
        g.add_dependency(a, c).unwrap(); // implied by a -> b -> c (weight 3 >= 1)
        g.polarize().unwrap();
        let before = g.n_edges();
        let report = g.reduce_sequencing_edges();
        assert_eq!(report.removed, 1);
        assert_eq!(g.n_edges(), before - 1);
        assert!(g.has_forward_path(a, c));
        // Longest paths unchanged.
        let lp = g.longest_paths_from(a).unwrap();
        assert_eq!(lp.length_to(c), Some(3));
    }

    #[test]
    fn keeps_edge_longer_than_alternative() {
        // a -> c weight 5 (via a's delay? no: sequencing weight = δ(a));
        // build with δ(a)=5 so direct edge outweighs the 2-hop path.
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(5));
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        let c = g.add_operation("c", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap(); // weight 5
        g.add_dependency(b, c).unwrap(); // weight 1
        g.add_dependency(a, c).unwrap(); // weight 5 > 5+1? no: 6 >= 5 -> implied!
        g.polarize().unwrap();
        // The path a->b->c weighs 6 >= 5: the direct edge IS implied.
        assert_eq!(g.reduce_sequencing_edges().removed, 1);

        // Now a case where it is not: make b cheap to reach but the
        // direct edge heavier than the detour.
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(5));
        let b = g.add_operation("b", ExecDelay::Fixed(0));
        let c = g.add_operation("c", ExecDelay::Fixed(1));
        // Detour via min-constraints of small weight.
        g.add_min_constraint(a, b, 1).unwrap();
        g.add_min_constraint(b, c, 1).unwrap();
        g.add_dependency(a, c).unwrap(); // weight 5 > 2
        g.polarize().unwrap();
        assert_eq!(g.reduce_sequencing_edges().removed, 0);
    }

    #[test]
    fn unbounded_edges_need_unbounded_witness() {
        // anchor -> c directly (unbounded) and anchor -> b -> c where the
        // b path begins with the same unbounded edge: removable.
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Unbounded);
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        let c = g.add_operation("c", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap(); // δ(a)
        g.add_dependency(b, c).unwrap();
        g.add_dependency(a, c).unwrap(); // δ(a), implied via b
        g.polarize().unwrap();
        assert_eq!(g.reduce_sequencing_edges().removed, 1);
        assert!(g.has_forward_path(a, c));

        // But a bounded detour must NOT justify removing an unbounded
        // edge (A(c) would lose the anchor).
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Unbounded);
        let c = g.add_operation("c", ExecDelay::Fixed(1));
        g.add_dependency(a, c).unwrap(); // δ(a)
        g.add_min_constraint(a, c, 3).unwrap(); // bounded... carries δ(a)+3 actually
        g.polarize().unwrap();
        // The min edge is itself unbounded (anchor-sourced), so the
        // sequencing edge IS implied here.
        assert_eq!(g.reduce_sequencing_edges().removed, 1);
    }

    #[test]
    fn constraint_edges_never_removed() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(3));
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap();
        g.add_min_constraint(a, b, 1).unwrap(); // weaker than the dep, but kept
        g.add_max_constraint(a, b, 9).unwrap();
        g.polarize().unwrap();
        let constraints_before = g
            .edges()
            .filter(|(_, e)| e.kind() != EdgeKind::Sequencing)
            .count();
        g.reduce_sequencing_edges();
        let constraints_after = g
            .edges()
            .filter(|(_, e)| e.kind() != EdgeKind::Sequencing)
            .count();
        assert_eq!(constraints_before, constraints_after);
    }

    #[test]
    fn idempotent() {
        let mut g = ConstraintGraph::new();
        let vs: Vec<_> = (0..6)
            .map(|i| g.add_operation(format!("v{i}"), ExecDelay::Fixed(i)))
            .collect();
        for i in 0..vs.len() {
            for j in (i + 1)..vs.len() {
                g.add_dependency(vs[i], vs[j]).unwrap();
            }
        }
        g.polarize().unwrap();
        let first = g.reduce_sequencing_edges();
        assert!(first.removed > 0);
        let second = g.reduce_sequencing_edges();
        assert_eq!(second.removed, 0, "reduction is a fixpoint");
    }
}
