//! Anchor-set analysis: `findAnchorSet`, `relevantAnchor`, `minimumAnchor`.
//!
//! Anchors (the source plus every unbounded-delay operation, Definition 2)
//! are the reference points of relative scheduling. This module computes,
//! for every vertex `v`:
//!
//! * the **anchor set** `A(v)` — anchors whose completion gates the
//!   activation of `v` through the forward graph (Definition 4);
//! * the **relevant anchor set** `R(v) ⊆ A(v)` — anchors with a *defining
//!   path* to `v`, i.e. a path in the full graph whose only unbounded edge
//!   is the anchor's own `δ` edge (Definitions 8–9);
//! * the **irredundant anchor set** `IR(v) ⊆ R(v)` — the minimum set of
//!   anchors needed to compute the start time `T(v)` (Definition 11,
//!   Theorem 6).

use std::collections::VecDeque;
use std::convert::Infallible;
use std::fmt;

use rsched_graph::{ConstraintGraph, EdgeId, VertexId};

use crate::error::ScheduleError;

/// The positions of the set bits of a word, ascending.
struct SetBits(u64);

impl Iterator for SetBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

/// A dense family of anchor sets: one bitset row per vertex over the
/// anchors of a graph.
///
/// Shared representation for `A(v)`, `R(v)` and `IR(v)`.
#[derive(Clone, PartialEq, Eq)]
pub struct AnchorSetFamily {
    anchors: Vec<VertexId>,
    /// Anchor index by vertex index (`None` for non-anchors).
    anchor_index: Vec<Option<u32>>,
    words_per_row: usize,
    bits: Vec<u64>,
    n_vertices: usize,
}

impl fmt::Debug for AnchorSetFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for v in 0..self.n_vertices {
            let v = VertexId::from_index(v);
            map.entry(&v.to_string(), &self.set(v).collect::<Vec<_>>());
        }
        map.finish()
    }
}

impl AnchorSetFamily {
    fn empty(graph: &ConstraintGraph) -> Self {
        let anchors = graph.anchors().to_vec();
        let mut anchor_index = vec![None; graph.n_vertices()];
        for (i, &a) in anchors.iter().enumerate() {
            anchor_index[a.index()] = Some(i as u32);
        }
        let words_per_row = anchors.len().div_ceil(64).max(1);
        AnchorSetFamily {
            bits: vec![0; words_per_row * graph.n_vertices()],
            anchors,
            anchor_index,
            words_per_row,
            n_vertices: graph.n_vertices(),
        }
    }

    /// The anchors of the underlying graph, in id order (source first).
    pub fn anchors(&self) -> &[VertexId] {
        &self.anchors
    }

    /// Number of anchors `|A|`.
    pub fn n_anchors(&self) -> usize {
        self.anchors.len()
    }

    /// The dense index of anchor `a` within [`AnchorSetFamily::anchors`].
    pub fn anchor_index(&self, a: VertexId) -> Option<usize> {
        self.anchor_index
            .get(a.index())
            .copied()
            .flatten()
            .map(|i| i as usize)
    }

    fn row(&self, v: VertexId) -> &[u64] {
        let start = v.index() * self.words_per_row;
        &self.bits[start..start + self.words_per_row]
    }

    /// Raw bitset words of `v`'s row: bit `i` is set iff the anchor with
    /// family index `i` belongs to the set. Bits at or above
    /// [`Self::n_anchors`] are never set. The scheduling kernel reads
    /// these to build its per-chunk column masks.
    pub(crate) fn row_words(&self, v: VertexId) -> &[u64] {
        self.row(v)
    }

    /// The whole bitset, vertex-major with [`Self::words_per_row`]-word
    /// rows back to back. The scheduling kernel's serial path borrows
    /// this directly as its full-width column masks (its mask stride
    /// equals the row stride), avoiding any mask copy.
    pub(crate) fn all_words(&self) -> &[u64] {
        &self.bits
    }

    fn row_mut(&mut self, v: VertexId) -> &mut [u64] {
        let start = v.index() * self.words_per_row;
        &mut self.bits[start..start + self.words_per_row]
    }

    /// `true` if anchor `a` belongs to the set of vertex `v`.
    pub fn contains(&self, v: VertexId, a: VertexId) -> bool {
        match self.anchor_index(a) {
            Some(i) => self.row(v)[i / 64] & (1u64 << (i % 64)) != 0,
            None => false,
        }
    }

    /// Inserts anchor `a` into the set of `v`; returns `true` if new.
    pub(crate) fn insert(&mut self, v: VertexId, a: VertexId) -> bool {
        let i = self
            .anchor_index(a)
            .expect("insert of a non-anchor vertex into an anchor set");
        let word = &mut self.row_mut(v)[i / 64];
        let mask = 1u64 << (i % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Removes anchor `a` from the set of `v`.
    pub(crate) fn remove(&mut self, v: VertexId, a: VertexId) {
        if let Some(i) = self.anchor_index(a) {
            self.row_mut(v)[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Unions the set of `src` into the set of `dst`; returns `true` if
    /// `dst` changed.
    pub(crate) fn union_into(&mut self, dst: VertexId, src: VertexId) -> bool {
        let (s, d) = (src.index(), dst.index());
        let w = self.words_per_row;
        let mut changed = false;
        for k in 0..w {
            let bit = self.bits[s * w + k];
            let slot = &mut self.bits[d * w + k];
            if *slot | bit != *slot {
                *slot |= bit;
                changed = true;
            }
        }
        changed
    }

    /// `true` if the set of `a` is a subset of the set of `b` — the
    /// containment test `A(a) ⊆ A(b)` of Theorem 2.
    pub fn is_subset(&self, a: VertexId, b: VertexId) -> bool {
        self.row(a)
            .iter()
            .zip(self.row(b))
            .all(|(&x, &y)| x & !y == 0)
    }

    /// Iterates over the anchors in the set of `v`, in anchor-index order.
    pub fn set(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.set_indices(v).map(|i| self.anchors[i])
    }

    /// The family indices of the anchors in the set of `v`, ascending:
    /// the set bits of its row, walked word by word.
    pub(crate) fn set_indices(&self, v: VertexId) -> impl Iterator<Item = usize> + '_ {
        self.row(v)
            .iter()
            .enumerate()
            .flat_map(|(k, &word)| SetBits(word).map(move |b| k * 64 + b))
    }

    /// Anchors in the set of `a` but not in the set of `b`.
    pub fn difference(&self, a: VertexId, b: VertexId) -> Vec<VertexId> {
        self.set(a).filter(|&x| !self.contains(b, x)).collect()
    }

    /// Cardinality `|set(v)|`.
    pub fn cardinality(&self, v: VertexId) -> usize {
        self.row(v).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Sum of cardinalities over all operations **and** anchors except the
    /// source and sink — the `Total` column of Table III.
    pub fn total_cardinality(&self, graph: &ConstraintGraph) -> usize {
        graph.operation_ids().map(|v| self.cardinality(v)).sum()
    }

    /// Number of vertex rows.
    pub(crate) fn n_vertices(&self) -> usize {
        self.n_vertices
    }

    /// Sum of cardinalities over every vertex (no graph needed).
    pub(crate) fn total_bits(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Rebuilds the family under a vertex relabeling: `perm[old] = new`
    /// must be a bijection over `0..n_vertices`. The anchor roster is
    /// remapped and re-sorted into id order, and every row moves to its
    /// new vertex with columns re-indexed — so
    /// `out.contains(perm(v), perm(a)) == self.contains(v, a)`.
    ///
    /// Used by the canonical-form schedule cache to move anchor sets
    /// between the original and canonical index spaces. The old → new
    /// column map is built once; rows are then walked word by word, so
    /// the cost is one step per member plus one per word.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `perm` is not a bijection of the right
    /// length.
    pub fn remapped(&self, perm: &[u32]) -> AnchorSetFamily {
        debug_assert_eq!(perm.len(), self.n_vertices);
        // Old columns in new roster order: the roster is id-sorted, so
        // sorting by the mapped id deals out the new columns.
        let mut by_new: Vec<u32> = (0..self.anchors.len() as u32).collect();
        by_new.sort_unstable_by_key(|&i| perm[self.anchors[i as usize].index()]);
        let mut column = vec![0u32; self.anchors.len()];
        let mut anchors = Vec::with_capacity(self.anchors.len());
        let mut anchor_index = vec![None; self.n_vertices];
        for (j, &i) in by_new.iter().enumerate() {
            column[i as usize] = j as u32;
            let a = perm[self.anchors[i as usize].index()];
            debug_assert!(anchor_index[a as usize].is_none(), "perm must be injective");
            anchor_index[a as usize] = Some(j as u32);
            anchors.push(VertexId::from_index(a as usize));
        }
        let w = self.words_per_row;
        let mut bits = vec![0; w * self.n_vertices];
        for (v, &nv) in perm.iter().enumerate() {
            let nv = nv as usize;
            for i in self.set_indices(VertexId::from_index(v)) {
                let j = column[i] as usize;
                bits[nv * w + j / 64] |= 1u64 << (j % 64);
            }
        }
        AnchorSetFamily {
            anchors,
            anchor_index,
            words_per_row: w,
            bits,
            n_vertices: self.n_vertices,
        }
    }
}

/// The full anchor sets `A(v)` of a constraint graph (Definition 4),
/// computed by the paper's `findAnchorSet` traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnchorSets {
    family: AnchorSetFamily,
}

impl AnchorSets {
    /// Runs `findAnchorSet`: a single topological sweep of the forward
    /// graph `G_f`, propagating `{v} ∪ A(v)` across unbounded-weight edges
    /// and `A(v)` across bounded ones. `O(|E_f| · |A|)`.
    ///
    /// The sweep follows the order the graph keeps with its forward rank,
    /// so no sort precedes it and it cannot fail. The error type is
    /// [`Infallible`], so callers bind the sets with an irrefutable
    /// `let Ok(sets) = …;`.
    pub fn compute(graph: &ConstraintGraph) -> Result<Self, Infallible> {
        let topo = graph.forward_topological_order();
        let mut family = AnchorSetFamily::empty(graph);
        for &v in topo.order() {
            // Union predecessors into v according to edge weight kind.
            for (_, e) in graph.in_edges(v) {
                if !e.is_forward() {
                    continue;
                }
                family.union_into(v, e.from());
                if e.weight().is_unbounded() {
                    family.insert(v, e.from());
                }
            }
        }
        Ok(AnchorSets { family })
    }

    /// Incrementally folds one newly added edge into the family,
    /// returning the vertices whose anchor sets grew (in discovery
    /// order; empty for backward edges and no-op additions).
    ///
    /// Anchor sets propagate over forward edges only, and adding an edge
    /// never changes the anchor roster (anchors are the source plus the
    /// unbounded-delay operations), so the update is a monotone forward
    /// BFS from the edge head: `A(head) ∪= A(tail)` (plus the tail itself
    /// when the edge weight is unbounded), repeated along forward
    /// out-edges while sets keep growing. Each vertex re-enters the queue
    /// only when its row gained bits, so the sweep terminates and lands on
    /// the same least fixpoint [`AnchorSets::compute`] would.
    ///
    /// `graph` must already contain the edge and `self` must hold the
    /// exact sets of the graph without it.
    pub fn notify_add_edge(&mut self, graph: &ConstraintGraph, edge: EdgeId) -> Vec<VertexId> {
        let e = graph.edge(edge);
        if !e.is_forward() {
            return Vec::new();
        }
        let (tail, head) = (e.from(), e.to());
        let mut grew = self.family.union_into(head, tail);
        if e.weight().is_unbounded() {
            grew |= self.family.insert(head, tail);
        }
        if !grew {
            return Vec::new();
        }
        let mut changed = vec![head];
        let mut is_changed = vec![false; graph.n_vertices()];
        is_changed[head.index()] = true;
        let mut in_queue = vec![false; graph.n_vertices()];
        in_queue[head.index()] = true;
        let mut queue = VecDeque::from([head]);
        while let Some(v) = queue.pop_front() {
            in_queue[v.index()] = false;
            for (_, oe) in graph.out_edges(v) {
                if !oe.is_forward() {
                    continue;
                }
                let u = oe.to();
                let mut g = self.family.union_into(u, v);
                if oe.weight().is_unbounded() {
                    g |= self.family.insert(u, v);
                }
                if g {
                    if !is_changed[u.index()] {
                        is_changed[u.index()] = true;
                        changed.push(u);
                    }
                    if !in_queue[u.index()] {
                        in_queue[u.index()] = true;
                        queue.push_back(u);
                    }
                }
            }
        }
        changed
    }

    /// Access to the underlying family (`anchors()`, `contains`, `set`, …).
    pub fn family(&self) -> &AnchorSetFamily {
        &self.family
    }

    pub(crate) fn family_mut(&mut self) -> &mut AnchorSetFamily {
        &mut self.family
    }

    /// The anchor set `A(v)`.
    pub fn set(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.family.set(v)
    }

    /// `a ∈ A(v)`.
    pub fn contains(&self, v: VertexId, a: VertexId) -> bool {
        self.family.contains(v, a)
    }

    /// `A(a) ⊆ A(b)`.
    pub fn is_subset(&self, a: VertexId, b: VertexId) -> bool {
        self.family.is_subset(a, b)
    }

    /// The anchors of the graph, in id order.
    pub fn anchors(&self) -> &[VertexId] {
        self.family.anchors()
    }
}

/// The relevant anchor sets `R(v)` (Definition 9), computed by the paper's
/// `relevantAnchor` propagation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelevantAnchors {
    family: AnchorSetFamily,
}

impl RelevantAnchors {
    /// For every anchor `a`, propagates `a` outwards from its unbounded
    /// `δ(a)` edges and onwards through *bounded* edges of the full graph
    /// (forward and backward), marking every vertex reached. `O(|A| · |E|)`.
    pub fn compute(graph: &ConstraintGraph) -> Self {
        let mut family = AnchorSetFamily::empty(graph);
        let anchors = family.anchors().to_vec();
        for &a in &anchors {
            let mut traversed = vec![false; graph.n_vertices()];
            traversed[a.index()] = true;
            // Start: follow only this anchor's own unbounded edges.
            let mut stack: Vec<VertexId> = graph
                .out_edges(a)
                .filter(|(_, e)| e.weight().unbounded_anchor() == Some(a))
                .map(|(_, e)| e.to())
                .collect();
            while let Some(v) = stack.pop() {
                if traversed[v.index()] {
                    continue;
                }
                traversed[v.index()] = true;
                family.insert(v, a);
                // Continue through bounded-weight edges only.
                for (_, e) in graph.out_edges(v) {
                    if !e.weight().is_unbounded() && !traversed[e.to().index()] {
                        stack.push(e.to());
                    }
                }
            }
        }
        RelevantAnchors { family }
    }

    /// Access to the underlying family.
    pub fn family(&self) -> &AnchorSetFamily {
        &self.family
    }

    /// The relevant anchor set `R(v)`.
    pub fn set(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.family.set(v)
    }

    /// `a ∈ R(v)`.
    pub fn contains(&self, v: VertexId, a: VertexId) -> bool {
        self.family.contains(v, a)
    }
}

/// The irredundant anchor sets `IR(v)` (Definition 11) — the minimum
/// anchors needed to compute start times (Theorem 6). Computed by the
/// paper's `minimumAnchor` using longest-path lengths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrredundantAnchors {
    family: AnchorSetFamily,
}

impl IrredundantAnchors {
    /// Runs `minimumAnchor` on every vertex: a relevant anchor `x ∈ R(v)`
    /// is redundant if some other relevant anchor `r ∈ R(v)` with
    /// `x ∈ A(r)` satisfies `σ_x(v) ≤ σ_x(r) + σ_r(v)` on the *minimum
    /// offsets* (Definition 11; the paper phrases the test through its
    /// `length` oracle, and Lemma 6's proof identifies those lengths with
    /// the minimum offsets — using raw full-graph longest paths instead
    /// would over-prune when a backward-edge path leaves the anchor's
    /// anchored cone, where no offset can enforce it).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Unfeasible`] or
    /// [`ScheduleError::Inconsistent`] if the offset oracle detects
    /// unsatisfiable constraints.
    pub fn compute(
        graph: &ConstraintGraph,
        anchor_sets: &AnchorSets,
        relevant: &RelevantAnchors,
    ) -> Result<Self, ScheduleError> {
        let omega = crate::baseline::schedule_by_decomposition_with(graph, anchor_sets)?;
        let mut family = relevant.family.clone();
        for v in graph.vertex_ids() {
            let relevant_of_v: Vec<VertexId> = relevant.set(v).collect();
            for &r in &relevant_of_v {
                for &x in &relevant_of_v {
                    if x == r || !anchor_sets.contains(r, x) {
                        continue;
                    }
                    let (Some(xv), Some(xr), Some(rv)) =
                        (omega.offset(v, x), omega.offset(r, x), omega.offset(v, r))
                    else {
                        // Untracked pairs (possible only on ill-posed
                        // graphs, where R ⊄ A): keep x, conservatively.
                        continue;
                    };
                    if xv <= xr + rv {
                        family.remove(v, x);
                    }
                }
            }
        }
        Ok(IrredundantAnchors { family })
    }

    /// Convenience: computes `A(v)`, `R(v)` and `IR(v)` in one call.
    ///
    /// # Errors
    ///
    /// Returns the errors of [`IrredundantAnchors::compute`].
    pub fn analyze(graph: &ConstraintGraph) -> Result<AnchorAnalysis, ScheduleError> {
        let Ok(anchor_sets) = AnchorSets::compute(graph);
        let relevant = RelevantAnchors::compute(graph);
        let irredundant = Self::compute(graph, &anchor_sets, &relevant)?;
        Ok(AnchorAnalysis {
            anchor_sets,
            relevant,
            irredundant,
        })
    }

    /// Access to the underlying family.
    pub fn family(&self) -> &AnchorSetFamily {
        &self.family
    }

    /// The irredundant anchor set `IR(v)`.
    pub fn set(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.family.set(v)
    }

    /// `a ∈ IR(v)`.
    pub fn contains(&self, v: VertexId, a: VertexId) -> bool {
        self.family.contains(v, a)
    }
}

/// The three anchor-set analyses of a graph, bundled.
#[derive(Debug, Clone)]
pub struct AnchorAnalysis {
    /// Full anchor sets `A(v)`.
    pub anchor_sets: AnchorSets,
    /// Relevant anchor sets `R(v)`.
    pub relevant: RelevantAnchors,
    /// Irredundant anchor sets `IR(v)`.
    pub irredundant: IrredundantAnchors,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig2;
    use rsched_graph::ExecDelay;

    /// Table II: anchor sets of the Fig. 2 graph.
    #[test]
    fn fig2_table2_anchor_sets() {
        let (g, a, [v1, v2, v3, v4]) = fig2();
        let Ok(sets) = AnchorSets::compute(&g);
        let s = g.source();
        assert_eq!(sets.set(s).count(), 0);
        assert_eq!(sets.set(a).collect::<Vec<_>>(), vec![s]);
        assert_eq!(sets.set(v1).collect::<Vec<_>>(), vec![s]);
        assert_eq!(sets.set(v2).collect::<Vec<_>>(), vec![s]);
        assert_eq!(sets.set(v3).collect::<Vec<_>>(), vec![s, a]);
        assert_eq!(sets.set(v4).collect::<Vec<_>>(), vec![s, a]);
    }

    #[test]
    fn anchor_sets_ignore_backward_edges() {
        // A backward edge from a successor of an anchor must not leak the
        // anchor into the tail's anchor set (anchor sets are defined on
        // G_f only).
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Unbounded);
        let u = g.add_operation("u", ExecDelay::Fixed(1));
        let w = g.add_operation("w", ExecDelay::Fixed(1));
        g.add_dependency(a, u).unwrap();
        g.add_max_constraint(w, u, 3).unwrap(); // backward edge u -> w
        g.polarize().unwrap();
        let Ok(sets) = AnchorSets::compute(&g);
        assert!(sets.contains(u, a));
        assert!(!sets.contains(w, a));
    }

    #[test]
    fn min_constraint_from_non_anchor_propagates_but_does_not_add() {
        // a (anchor) -> u (fixed); min constraint u -> w of weight 4.
        // The min edge is bounded, so it propagates A(u) = {v0, a} to w
        // without putting `u` into anything (u is not an anchor).
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Unbounded);
        let u = g.add_operation("u", ExecDelay::Fixed(1));
        let w = g.add_operation("w", ExecDelay::Fixed(1));
        g.add_dependency(a, u).unwrap();
        g.add_min_constraint(u, w, 4).unwrap();
        g.polarize().unwrap();
        let Ok(sets) = AnchorSets::compute(&g);
        assert!(sets.contains(u, a));
        assert!(sets.contains(w, a), "bounded edges propagate the set");
        assert!(sets.contains(w, g.source()));
    }

    #[test]
    fn min_constraint_from_anchor_adds_the_anchor() {
        // A minimum constraint sourced at an anchor is completion-relative
        // (carries δ(a) + l), so the anchor joins the head's anchor set.
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Unbounded);
        let w = g.add_operation("w", ExecDelay::Fixed(1));
        g.add_min_constraint(a, w, 4).unwrap();
        g.polarize().unwrap();
        let Ok(sets) = AnchorSets::compute(&g);
        assert!(sets.contains(w, a));
        let rel = RelevantAnchors::compute(&g);
        assert!(rel.contains(w, a), "the min edge is a defining path for a");
    }

    /// Fig. 5(a): `b` (an anchor downstream of `a`) is a relevant anchor of
    /// `v_i`; `a` is in `A(v_i)` but not relevant (its paths all cross
    /// `b`'s unbounded edge).
    #[test]
    fn fig5a_downstream_anchor_hides_upstream() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Unbounded);
        let b = g.add_operation("b", ExecDelay::Unbounded);
        let vi = g.add_operation("vi", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap();
        g.add_dependency(b, vi).unwrap();
        g.polarize().unwrap();
        let Ok(sets) = AnchorSets::compute(&g);
        let rel = RelevantAnchors::compute(&g);
        assert!(sets.contains(vi, a) && sets.contains(vi, b));
        assert!(rel.contains(vi, b));
        assert!(!rel.contains(vi, a), "a's only path crosses δ(b)");
    }

    /// Fig. 5(b): a backward edge gives `a` a *bounded* continuation to
    /// `v_i`, so `a` is relevant to `v_i` through the backward edge.
    #[test]
    fn fig5b_backward_edge_extends_defining_path() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Unbounded);
        let vj = g.add_operation("vj", ExecDelay::Fixed(1));
        let vi = g.add_operation("vi", ExecDelay::Fixed(1));
        g.add_dependency(a, vj).unwrap();
        // max constraint from vi to vj: backward edge vj -> vi.
        g.add_max_constraint(vi, vj, 2).unwrap();
        g.polarize().unwrap();
        let rel = RelevantAnchors::compute(&g);
        assert!(rel.contains(vj, a));
        assert!(
            rel.contains(vi, a),
            "defining path a -> vj -> (backward) vi exists"
        );
        // But a is NOT in A(vi): anchor sets consider forward paths only.
        let Ok(sets) = AnchorSets::compute(&g);
        assert!(!sets.contains(vi, a));
    }

    /// Fig. 8(a): `a` irredundant — its direct bounded path to `v3` is the
    /// longest path. Fig. 8(b): `a` redundant — the path through anchor `b`
    /// dominates.
    #[test]
    fn fig8_redundant_vs_irredundant() {
        // (a) a -> v1(3) -> v3 direct, and a -> b(δ) -> v3 with shorter
        // bounded length: longest path from a to v3 realized by defining
        // path => irredundant.
        let build = |v1_delay: u64| {
            let mut g = ConstraintGraph::new();
            let a = g.add_operation("a", ExecDelay::Unbounded);
            let v1 = g.add_operation("v1", ExecDelay::Fixed(v1_delay));
            let b = g.add_operation("b", ExecDelay::Unbounded);
            let v3 = g.add_operation("v3", ExecDelay::Fixed(1));
            g.add_dependency(a, v1).unwrap();
            g.add_dependency(v1, v3).unwrap();
            g.add_dependency(a, b).unwrap();
            g.add_dependency(b, v3).unwrap();
            g.polarize().unwrap();
            let analysis = IrredundantAnchors::analyze(&g).unwrap();
            (analysis, a, b, v3)
        };
        // (a) long direct path: length(a, v3) = 3 > length(a,b) + length(b,v3) = 0.
        let (analysis, a, b, v3) = build(3);
        assert!(analysis.irredundant.contains(v3, a));
        assert!(analysis.irredundant.contains(v3, b));
        // (b) zero-length direct path: dominated by the path through b.
        let (analysis, a, b, v3) = build(0);
        assert!(!analysis.irredundant.contains(v3, a), "a dominated via b");
        assert!(analysis.irredundant.contains(v3, b));
    }

    /// Fig. 4 / Fig. 7: a chain of anchors — only the last anchor before
    /// `v_i` is irredundant.
    #[test]
    fn fig4_cascaded_anchors_collapse_to_last() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Unbounded);
        let b = g.add_operation("b", ExecDelay::Unbounded);
        let vi = g.add_operation("vi", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap();
        g.add_dependency(b, vi).unwrap();
        g.polarize().unwrap();
        let analysis = IrredundantAnchors::analyze(&g).unwrap();
        let irs: Vec<VertexId> = analysis.irredundant.set(vi).collect();
        assert_eq!(
            irs,
            vec![b],
            "only the immediately dominating anchor remains"
        );
    }

    #[test]
    fn irredundant_subset_of_relevant_subset_of_anchor_sets() {
        let (g, _, _) = {
            let (g, a, vs) = fig2();
            (g, a, vs)
        };
        let analysis = IrredundantAnchors::analyze(&g).unwrap();
        for v in g.vertex_ids() {
            for a in analysis.irredundant.set(v) {
                assert!(analysis.relevant.contains(v, a), "IR ⊆ R violated");
            }
            for a in analysis.relevant.set(v) {
                assert!(analysis.anchor_sets.contains(v, a), "R ⊆ A violated");
            }
        }
    }

    #[test]
    fn family_set_operations() {
        let (g, a, [v1, _, v3, _]) = fig2();
        let Ok(sets) = AnchorSets::compute(&g);
        let fam = sets.family();
        assert_eq!(fam.n_anchors(), 2);
        assert_eq!(fam.anchors(), &[g.source(), a]);
        assert!(fam.is_subset(v1, v3));
        assert!(!fam.is_subset(v3, v1));
        assert_eq!(fam.difference(v3, v1), vec![a]);
        assert_eq!(fam.cardinality(v3), 2);
        assert_eq!(fam.anchor_index(g.source()), Some(0));
        assert_eq!(fam.anchor_index(v1), None);
    }

    #[test]
    fn many_anchors_cross_word_boundary() {
        // 70 anchors in a chain: exercises multi-word bitset rows.
        let mut g = ConstraintGraph::new();
        let mut prev = g.source();
        let mut anchors = vec![];
        for i in 0..70 {
            let a = g.add_operation(format!("a{i}"), ExecDelay::Unbounded);
            g.add_dependency(prev, a).unwrap();
            anchors.push(a);
            prev = a;
        }
        let tail = g.add_operation("tail", ExecDelay::Fixed(1));
        g.add_dependency(prev, tail).unwrap();
        g.polarize().unwrap();
        let Ok(sets) = AnchorSets::compute(&g);
        assert_eq!(sets.family().cardinality(tail), 71); // source + 70
        let analysis = IrredundantAnchors::analyze(&g).unwrap();
        assert_eq!(
            analysis.irredundant.set(tail).collect::<Vec<_>>(),
            vec![anchors[69]]
        );
    }
}
