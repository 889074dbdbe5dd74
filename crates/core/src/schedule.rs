//! Iterative incremental scheduling (§IV-E) and relative schedules.
//!
//! A *relative schedule* `Ω = {σ_a(v) | a ∈ A(v), ∀v}` assigns every vertex
//! one offset per anchor in its anchor set (Definition 5). The *minimum*
//! relative schedule has every offset equal to the longest weighted path
//! from the anchor (Theorem 3); the iterative incremental algorithm reaches
//! it — or proves the constraints inconsistent — in at most `|E_b| + 1`
//! iterations (Theorem 8, Corollary 2). Each iteration is one
//! `IncrementalOffset` topological sweep of `G_f` followed by a
//! `ReadjustOffsets` sweep over the backward edges.

use std::fmt;

use rsched_graph::{ConstraintGraph, EdgeId, ScheduleKernel, VertexId};

use crate::anchors::{AnchorSetFamily, AnchorSets};
use crate::error::ScheduleError;
use crate::wellposed::{check_well_posed_with, WellPosedness};

/// A relative schedule: one offset `σ_a(v)` per `(vertex, anchor)` pair
/// with `a` in the vertex's tracked anchor set.
///
/// Only those pairs are stored (Definition 3 defines nothing else): the
/// offsets are packed row by row, each vertex's row holding its tracked
/// anchors' offsets in anchor-index order. Storage is therefore
/// `tracked pairs × 8 + (|V| + 1) × 4` bytes, not a dense `|V| × |A|`
/// matrix, and the fixpoint runs in place on these rows (see the kernel
/// section below), so no run ever builds a dense one.
#[derive(Clone, PartialEq, Eq)]
pub struct RelativeSchedule {
    sets: AnchorSetFamily,
    /// Prefix counts of the family's bit rows (`|V| + 1` entries):
    /// `offsets[row_start[v]..row_start[v + 1]]` is `v`'s row.
    row_start: Vec<u32>,
    /// The tracked offsets, packed row by row.
    offsets: Vec<i64>,
    iterations: usize,
}

impl fmt::Debug for RelativeSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("RelativeSchedule");
        s.field("iterations", &self.iterations);
        let rows: Vec<String> = (0..self.n_vertices())
            .map(|vi| {
                let v = VertexId::from_index(vi);
                let offs: Vec<String> = self
                    .offsets_of(v)
                    .map(|(a, o)| format!("σ_{a}={o}"))
                    .collect();
                format!("{v}: [{}]", offs.join(", "))
            })
            .collect();
        s.field("offsets", &rows);
        s.finish()
    }
}

/// The number of set bits of `row` below column `i`: the position of
/// column `i` within a packed row.
#[inline]
fn rank(row: &[u64], i: usize) -> usize {
    let k = i >> 6;
    let below: u32 = row[..k].iter().map(|w| w.count_ones()).sum();
    (below + (row[k] & ((1u64 << (i & 63)) - 1)).count_ones()) as usize
}

/// Calls `f` with the column of every set bit of `row`, ascending.
#[inline]
fn for_each_member(row: &[u64], mut f: impl FnMut(usize)) {
    for (k, &word) in row.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f((k << 6) | bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

impl RelativeSchedule {
    /// Packs `value(v, i)` for every tracked pair (vertex index `v`,
    /// anchor index `i`) of `sets`, row by row.
    fn pack(
        sets: AnchorSetFamily,
        iterations: usize,
        mut value: impl FnMut(usize, usize) -> i64,
    ) -> Self {
        let n = sets.n_vertices();
        let mut row_start = Vec::with_capacity(n + 1);
        let mut offsets = Vec::with_capacity(sets.total_bits());
        row_start.push(0);
        for vi in 0..n {
            for_each_member(sets.row_words(VertexId::from_index(vi)), |i| {
                offsets.push(value(vi, i));
            });
            row_start.push(u32::try_from(offsets.len()).expect("fewer than 2^32 tracked pairs"));
        }
        RelativeSchedule {
            sets,
            row_start,
            offsets,
            iterations,
        }
    }

    /// Packs a run's dense `|V| × |A|` scratch (`data[v * |A| + i]`).
    fn from_dense(sets: AnchorSetFamily, data: &[i64], iterations: usize) -> Self {
        let k = sets.n_anchors();
        Self::pack(sets, iterations, |v, i| data[v * k + i])
    }

    /// A schedule with every tracked offset at zero.
    pub(crate) fn zeroed(sets: AnchorSetFamily) -> Self {
        Self::pack(sets, 0, |_, _| 0)
    }

    /// Raw offset write by anchor index (baselines only); the pair must
    /// be tracked.
    pub(crate) fn set_offset_raw(&mut self, v: VertexId, anchor_index: usize, value: i64) {
        let slot = self.slot(v.index(), anchor_index);
        self.offsets[slot] = value;
    }

    fn n_vertices(&self) -> usize {
        self.row_start.len() - 1
    }

    /// The packed offsets of vertex index `v`, in anchor-index order.
    fn row(&self, v: usize) -> &[i64] {
        &self.offsets[self.row_start[v] as usize..self.row_start[v + 1] as usize]
    }

    /// Position in `offsets` of the tracked pair (vertex index `v`,
    /// anchor index `i`).
    fn slot(&self, v: usize, i: usize) -> usize {
        debug_assert!(
            self.sets.row_words(VertexId::from_index(v))[i >> 6] >> (i & 63) & 1 != 0,
            "untracked pair"
        );
        self.row_start[v] as usize + rank(self.sets.row_words(VertexId::from_index(v)), i)
    }

    /// The offset `σ_a(v)`, or `None` when `a` is not a tracked anchor of
    /// `v`. The offset of an anchor with respect to itself is 0 by
    /// normalization and reported as `None` (it is not a member of `A(a)`).
    pub fn offset(&self, v: VertexId, a: VertexId) -> Option<i64> {
        let ai = self.sets.anchor_index(a)?;
        if self.sets.contains(v, a) {
            Some(self.offsets[self.slot(v.index(), ai)])
        } else {
            None
        }
    }

    /// All `(anchor, offset)` pairs of `v`, in anchor order.
    pub fn offsets_of(&self, v: VertexId) -> impl Iterator<Item = (VertexId, i64)> + '_ {
        let anchors = self.sets.anchors();
        self.sets
            .set_indices(v)
            .zip(self.row(v.index()))
            .map(move |(i, &o)| (anchors[i], o))
    }

    /// The anchor-set family the schedule tracks offsets for (full `A(v)`
    /// when produced by [`schedule`], possibly restricted afterwards).
    pub fn tracked_sets(&self) -> &AnchorSetFamily {
        &self.sets
    }

    /// The anchors of the graph.
    pub fn anchors(&self) -> &[VertexId] {
        self.sets.anchors()
    }

    /// Number of scheduler iterations executed (1 iteration = one
    /// `IncrementalOffset` + one violation check).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// `σ_a^max`: the maximum offset any vertex holds with respect to
    /// anchor `a` (0 if no vertex tracks `a`). Drives control cost (§VI).
    pub fn max_offset(&self, a: VertexId) -> i64 {
        let Some(ai) = self.sets.anchor_index(a) else {
            return 0;
        };
        (0..self.n_vertices())
            .filter(|&vi| self.sets.contains(VertexId::from_index(vi), a))
            .map(|vi| self.offsets[self.slot(vi, ai)])
            .max()
            .unwrap_or(0)
    }

    /// `Σ_a σ_a^max` over all anchors — the paper's Table IV metric, which
    /// is directly related to control-implementation complexity.
    pub fn sum_of_max_offsets(&self) -> i64 {
        self.anchors().iter().map(|&a| self.max_offset(a)).sum()
    }

    /// Total number of tracked `(vertex, anchor)` offsets over the
    /// operations of `graph` (source and sink excluded), as in Table III.
    pub fn n_offsets(&self, graph: &ConstraintGraph) -> usize {
        self.sets.total_cardinality(graph)
    }

    /// Checks every edge inequality of `graph` against these offsets:
    /// for each edge `(u, v)` with (zeroed) weight `w` and each anchor
    /// tracked at both endpoints, `σ_a(v) ≥ σ_a(u) + w` must hold, plus
    /// the base case `σ_a(v) ≥ w` for unbounded edges out of an anchor
    /// tracked at `v`. Returns the violated `(edge, anchor)` pairs (empty
    /// for any valid relative schedule — Definition 3).
    pub fn validate(&self, graph: &ConstraintGraph) -> Vec<(EdgeId, VertexId)> {
        let mut violations = Vec::new();
        for (id, e) in graph.edges() {
            let w = e.weight().zeroed();
            for &a in self.anchors() {
                if let (Some(su), Some(sv)) = (self.offset(e.from(), a), self.offset(e.to(), a)) {
                    if sv < su + w {
                        violations.push((id, a));
                    }
                }
            }
            if let Some(a) = e.weight().unbounded_anchor() {
                if let Some(sv) = self.offset(e.to(), a) {
                    if sv < w {
                        violations.push((id, a));
                    }
                }
            }
        }
        violations
    }

    /// Rebuilds the schedule under a vertex relabeling: `perm[old] = new`
    /// must be a bijection over the vertex indices. The tracked family is
    /// remapped via [`AnchorSetFamily::remapped`] and every tracked
    /// offset moves with its `(vertex, anchor)` pair, so
    /// `out.offset(perm(v), perm(a)) == self.offset(v, a)` and the result
    /// is bit-identical to one computed natively in the target labeling
    /// (the cache-hit contract, fuzzer-enforced).
    pub fn remapped(&self, perm: &[u32]) -> RelativeSchedule {
        let sets = self.sets.remapped(perm);
        // New column of each old anchor index.
        let column: Vec<usize> = self
            .anchors()
            .iter()
            .map(|a| {
                sets.anchor_index(VertexId::from_index(perm[a.index()] as usize))
                    .expect("the roster maps onto the remapped roster")
            })
            .collect();
        // Row `perm(v)` holds as many pairs as row `v`.
        let n = self.n_vertices();
        let mut row_start = vec![0u32; n + 1];
        for (v, &nv) in perm.iter().enumerate() {
            row_start[nv as usize + 1] = self.row_start[v + 1] - self.row_start[v];
        }
        for v in 0..n {
            row_start[v + 1] += row_start[v];
        }
        // Each row is scattered by new column into `by_column`, then
        // gathered in the new row's bit order.
        let mut by_column = vec![0; column.len()];
        let mut offsets = vec![0; self.offsets.len()];
        for (v, &nv) in perm.iter().enumerate() {
            let nv = nv as usize;
            let mut src = self.row(v).iter();
            for_each_member(self.sets.row_words(VertexId::from_index(v)), |i| {
                by_column[column[i]] = *src.next().expect("one offset per member");
            });
            let mut dst = offsets[row_start[nv] as usize..row_start[nv + 1] as usize].iter_mut();
            for_each_member(sets.row_words(VertexId::from_index(nv)), |j| {
                *dst.next().expect("rows keep their size") = by_column[j];
            });
        }
        RelativeSchedule {
            sets,
            row_start,
            offsets,
            iterations: self.iterations,
        }
    }

    /// Reconstructs a schedule from a tracked family plus its explicit
    /// `(vertex, anchor, offset)` triples — the journal-snapshot path
    /// that lets `recover` skip the re-schedule.
    ///
    /// Every triple must name a tracked pair and every tracked pair must
    /// be covered exactly once, over a family of `n_vertices` rows;
    /// returns `None` otherwise (callers fall back to scheduling from
    /// scratch). The result is bit-identical to the schedule that was
    /// serialized.
    pub fn from_offsets(
        sets: AnchorSetFamily,
        n_vertices: usize,
        offsets: &[(VertexId, VertexId, i64)],
        iterations: usize,
    ) -> Option<RelativeSchedule> {
        if sets.n_vertices() != n_vertices || offsets.len() != sets.total_bits() {
            return None;
        }
        let mut omega = RelativeSchedule::zeroed(sets);
        omega.iterations = iterations;
        let mut seen = vec![false; omega.offsets.len()];
        for &(v, a, offset) in offsets {
            if v.index() >= n_vertices || !omega.sets.contains(v, a) {
                return None;
            }
            let ai = omega.sets.anchor_index(a)?;
            let slot = omega.slot(v.index(), ai);
            if seen[slot] {
                return None;
            }
            seen[slot] = true;
            omega.offsets[slot] = offset;
        }
        Some(omega)
    }

    /// Restricts the schedule to a smaller anchor-set family (typically
    /// `IR(v)`), dropping the offsets of anchors outside it.
    ///
    /// By Theorems 4 and 6, start times computed from the restricted
    /// schedule equal those of the full schedule when the restriction is to
    /// relevant or irredundant anchors and the offsets are minimum.
    ///
    /// # Panics
    ///
    /// Panics if `smaller` is not a per-vertex subset of the tracked sets.
    pub fn restrict(&self, smaller: &AnchorSetFamily) -> RelativeSchedule {
        assert_eq!(smaller.n_anchors(), self.sets.n_anchors());
        assert_eq!(smaller.n_vertices(), self.n_vertices());
        for vi in 0..self.n_vertices() {
            let v = VertexId::from_index(vi);
            let (small, own) = (smaller.row_words(v), self.sets.row_words(v));
            assert!(
                small.iter().zip(own).all(|(s, o)| s & !o == 0),
                "restriction must shrink sets"
            );
        }
        RelativeSchedule::pack(smaller.clone(), self.iterations, |v, i| {
            self.offsets[self.slot(v, i)]
        })
    }
}

/// The additive fast path's in-place updates.
impl RelativeSchedule {
    /// Readies the previous fixpoint for a relaxation over `sets`, the
    /// family after an additive edit: re-packed once when `changed_sets`
    /// grew it (surviving pairs keep their offsets, new pairs start at
    /// 0), and marked as one iteration.
    ///
    /// Additive edits keep the roster, so columns match one to one. A row
    /// the edit left alone is copied whole; a grown row is gathered into
    /// an `|A|`-wide buffer by column and rewritten in its own bit order.
    fn regrow(&mut self, sets: &AnchorSetFamily, changed_sets: &[VertexId]) {
        debug_assert_eq!(
            sets.anchors(),
            self.sets.anchors(),
            "additive edits keep the anchor roster"
        );
        self.iterations = 1;
        if changed_sets.is_empty() {
            debug_assert!(self.sets == *sets, "no set change means identical families");
            return;
        }
        let n = sets.n_vertices();
        let mut by_column = vec![0; sets.n_anchors()];
        let mut row_start = Vec::with_capacity(n + 1);
        let mut offsets = Vec::with_capacity(sets.total_bits());
        row_start.push(0);
        for vi in 0..n {
            let v = VertexId::from_index(vi);
            let (new_row, old_row) = (sets.row_words(v), self.sets.row_words(v));
            if new_row == old_row {
                offsets.extend_from_slice(self.row(vi));
            } else {
                let mut src = self.row(vi).iter();
                for_each_member(old_row, |i| {
                    by_column[i] = *src.next().expect("one offset per member");
                });
                for_each_member(new_row, |i| {
                    let kept = old_row[i >> 6] >> (i & 63) & 1 != 0;
                    offsets.push(if kept { by_column[i] } else { 0 });
                });
            }
            row_start.push(u32::try_from(offsets.len()).expect("fewer than 2^32 tracked pairs"));
        }
        self.sets = sets.clone();
        self.row_start = row_start;
        self.offsets = offsets;
    }

    /// One relaxation of the edge `(t, h)` of zeroed weight `w`: every
    /// anchor tracked at both endpoints (found by walking `tail_row &
    /// head_row` a word at a time), plus for forward edges the
    /// `σ_t(t) = 0` base case. Returns whether any head offset rose.
    fn relax_edge(&mut self, t: usize, h: usize, w: i64, forward: bool) -> bool {
        let (tv, hv) = (VertexId::from_index(t), VertexId::from_index(h));
        let (trow, hrow) = (self.sets.row_words(tv), self.sets.row_words(hv));
        let (mut tpos, mut hpos) = (self.row_start[t] as usize, self.row_start[h] as usize);
        let mut raised = false;
        for (&tw, &hw) in trow.iter().zip(hrow) {
            let mut bits = tw & hw;
            while bits != 0 {
                let low = (1u64 << bits.trailing_zeros()) - 1;
                bits &= bits - 1;
                let cand = self.offsets[tpos + (tw & low).count_ones() as usize] + w;
                let slot = &mut self.offsets[hpos + (hw & low).count_ones() as usize];
                if cand > *slot {
                    *slot = cand;
                    raised = true;
                }
            }
            tpos += tw.count_ones() as usize;
            hpos += hw.count_ones() as usize;
        }
        if forward {
            if let Some(ai) = self.sets.anchor_index(tv) {
                if self.sets.contains(hv, tv) {
                    let slot = self.slot(h, ai);
                    if w > self.offsets[slot] {
                        self.offsets[slot] = w;
                        raised = true;
                    }
                }
            }
        }
        raised
    }
}

/// One scheduler iteration snapshot for tracing (Fig. 10 of the paper).
#[derive(Debug, Clone)]
pub struct IterationTrace {
    /// Offsets right after the `IncrementalOffset` sweep.
    pub computed: RelativeSchedule,
    /// Backward edges found violated afterwards (empty on the final
    /// iteration).
    pub violations: Vec<EdgeId>,
    /// Offsets after `ReadjustOffsets` (equal to `computed` when no
    /// violations occurred).
    pub readjusted: RelativeSchedule,
}

/// A traced scheduling run: the final schedule plus per-iteration
/// snapshots.
#[derive(Debug, Clone)]
pub struct ScheduleTrace {
    /// The minimum relative schedule.
    pub schedule: RelativeSchedule,
    /// One entry per executed iteration.
    pub iterations: Vec<IterationTrace>,
}

/// Computes the minimum relative schedule of a well-posed constraint graph
/// (the paper's *iterative incremental scheduling*).
///
/// Checks feasibility and well-posedness first; use
/// [`schedule_with_sets`] to skip the checks or to schedule over
/// restricted anchor sets.
///
/// # Errors
///
/// * [`ScheduleError::Unfeasible`] — positive cycle (Theorem 1);
/// * [`ScheduleError::IllPosed`] — some maximum constraint depends on an
///   unshared unbounded delay (Theorem 2); run
///   [`make_well_posed`](crate::make_well_posed) first;
/// * [`ScheduleError::Inconsistent`] — cannot happen after the feasibility
///   check, but reported if the iteration budget is somehow exhausted.
///
/// # Example
///
/// ```
/// use rsched_graph::{ConstraintGraph, ExecDelay};
/// use rsched_core::schedule;
///
/// # fn main() -> Result<(), rsched_core::ScheduleError> {
/// let mut g = ConstraintGraph::new();
/// let sync = g.add_operation("sync", ExecDelay::Unbounded);
/// let op = g.add_operation("op", ExecDelay::Fixed(2));
/// g.add_dependency(sync, op)?;
/// g.polarize()?;
/// let omega = schedule(&g)?;
/// assert_eq!(omega.offset(op, sync), Some(0)); // op starts when sync completes
/// # Ok(())
/// # }
/// ```
pub fn schedule(graph: &ConstraintGraph) -> Result<RelativeSchedule, ScheduleError> {
    let sets = checked_sets(graph)?;
    let kernel = ScheduleKernel::build(graph)?;
    schedule_with_sets_on(&kernel, sets.family(), 1)
}

/// The anchor sets of `graph`, once the feasibility and well-posedness
/// checks of [`schedule`] pass.
fn checked_sets(graph: &ConstraintGraph) -> Result<AnchorSets, ScheduleError> {
    let sets = AnchorSets::compute(graph)?;
    match check_well_posed_with(graph, &sets) {
        WellPosedness::WellPosed => {}
        WellPosedness::Unfeasible { witness } => return Err(ScheduleError::Unfeasible { witness }),
        WellPosedness::IllPosed { violations } => {
            let v = &violations[0];
            return Err(ScheduleError::IllPosed {
                from: v.from,
                to: v.to,
                missing: v.missing.clone(),
            });
        }
    }
    Ok(sets)
}

/// The pre-kernel adjacency-walking implementation of [`schedule`].
///
/// Retained as the reference the CSR kernel is differentially tested (and
/// benchmarked) against: identical checks, identical offsets, iteration
/// counts and error values — only the execution strategy differs.
///
/// # Errors
///
/// Same conditions as [`schedule`].
pub fn schedule_reference(graph: &ConstraintGraph) -> Result<RelativeSchedule, ScheduleError> {
    let sets = checked_sets(graph)?;
    run(graph, sets.family().clone(), None)
}

/// Iterative incremental scheduling over caller-provided anchor sets.
///
/// `sets` may be the full `A(v)` family, or the relevant/irredundant
/// restriction (Theorems 4 and 6 make the results equivalent). No
/// feasibility or well-posedness pre-checks are performed; inconsistent
/// constraints surface as [`ScheduleError::Inconsistent`] after
/// `|E_b| + 1` iterations (Corollary 2).
///
/// # Errors
///
/// Returns [`ScheduleError::Inconsistent`] for unsatisfiable constraints
/// and graph errors for a cyclic `G_f`.
pub fn schedule_with_sets(
    graph: &ConstraintGraph,
    sets: &AnchorSetFamily,
) -> Result<RelativeSchedule, ScheduleError> {
    let kernel = ScheduleKernel::build(graph)?;
    schedule_with_sets_on(&kernel, sets, 1)
}

/// [`schedule_with_sets`] over a prebuilt [`ScheduleKernel`] snapshot,
/// from zeroed rows — the entry point of every full fixpoint run,
/// including a session's after a non-additive edit.
///
/// `kernel` must snapshot the same graph revision `sets` was computed for.
/// The fixpoint runs serially on the calling thread; `threads` is ignored
/// (it is kept so existing callers compile).
///
/// # Errors
///
/// Same conditions as [`schedule_with_sets`].
pub fn schedule_with_sets_on(
    kernel: &ScheduleKernel,
    sets: &AnchorSetFamily,
    _threads: usize,
) -> Result<RelativeSchedule, ScheduleError> {
    fixpoint(kernel, sets)
}

/// The pre-kernel adjacency-walking implementation of
/// [`schedule_with_sets`], retained as the differential-test reference
/// (see [`schedule_reference`]): no pre-checks, any family.
///
/// # Errors
///
/// Same conditions as [`schedule_with_sets`].
pub fn schedule_with_sets_reference(
    graph: &ConstraintGraph,
    sets: &AnchorSetFamily,
) -> Result<RelativeSchedule, ScheduleError> {
    run(graph, sets.clone(), None)
}

/// [`schedule`] with per-iteration snapshots (used to reproduce Fig. 10).
///
/// # Errors
///
/// Same conditions as [`schedule`].
pub fn schedule_traced(graph: &ConstraintGraph) -> Result<ScheduleTrace, ScheduleError> {
    let sets = AnchorSets::compute(graph)?;
    if let WellPosedness::Unfeasible { witness } = check_well_posed_with(graph, &sets) {
        return Err(ScheduleError::Unfeasible { witness });
    }
    let mut trace = Vec::new();
    let schedule = run(graph, sets.family().clone(), Some(&mut trace))?;
    Ok(ScheduleTrace {
        schedule,
        iterations: trace,
    })
}

/// Local re-relaxation after one *additive* edit — the incremental
/// engine's fast path.
///
/// Preconditions: `prev` is the minimum relative schedule of `graph`
/// *without* the edge `new_edge`; `sets` is the exact anchor-set family
/// of `graph` *with* it; and `changed_sets` lists exactly the vertices
/// whose anchor sets grew under the edit (as returned by
/// [`AnchorSets::notify_add_edge`](crate::AnchorSets::notify_add_edge)).
/// Additive edits never change the anchor roster, so `sets` and
/// `prev.tracked_sets()` share anchors.
///
/// Under those preconditions `prev`'s offsets, re-packed over `sets`
/// (once, and only when `changed_sets` is non-empty), are a pointwise
/// lower bound on the new minimum: surviving `(vertex, anchor)` pairs
/// keep offsets that constraints can only push up, and newly tracked
/// pairs start from zero. They also satisfy every
/// constraint except those headed at a `changed_sets` vertex or at the
/// new edge's head — so relaxing exactly those and worklist-propagating
/// the raises along out-edges converges to the minimum schedule of
/// `graph`, touching only the cone of vertices whose offsets actually
/// move instead of sweeping all `O((|V| + |E|) · |A|)` pairs per
/// iteration. The packed rows are updated **in place**: each edge walks
/// `tail_row & head_row` a word at a time, so an edge costs one step per
/// shared anchor plus one per word, not one membership test per anchor.
///
/// Returns the vertices whose offsets rose (empty when the new constraint
/// was already satisfied).
///
/// # Errors
///
/// Returns [`ScheduleError::Inconsistent`] when relaxation fails to
/// settle within a Bellman–Ford-style per-vertex pop budget. On a graph
/// whose backward edges pass the Theorem 2 containment check this
/// indicates a positive cycle; callers classify authoritatively via
/// [`check_well_posed_with`], exactly as for a [`schedule_with_sets`]
/// budget exhaustion. **On error `prev` is damaged** — offsets have been
/// raised along the divergent cycle past any meaningful minimum — and
/// must not be reused.
pub fn relax_additive(
    graph: &ConstraintGraph,
    sets: &AnchorSetFamily,
    prev: &mut RelativeSchedule,
    new_edge: EdgeId,
    changed_sets: &[VertexId],
) -> Result<Vec<VertexId>, ScheduleError> {
    // One relaxation of `e` — the exact per-edge rules of
    // `incremental_offset` / `readjust_offsets`.
    fn relax_edge(omega: &mut RelativeSchedule, e: &rsched_graph::Edge) -> bool {
        omega.relax_edge(
            e.from().index(),
            e.to().index(),
            e.weight().zeroed(),
            e.is_forward(),
        )
    }

    prev.regrow(sets, changed_sets);
    let omega = prev;
    let mut raised_list = Vec::new();
    let mut is_raised = vec![false; graph.n_vertices()];
    let mut in_queue = vec![false; graph.n_vertices()];
    let mut pops = vec![0u32; graph.n_vertices()];
    // Without positive cycles each vertex settles within |V| pops per
    // anchor column (the longest-path argument behind Bellman–Ford); a
    // vertex exceeding the budget proves divergence. The bound is per
    // column because FIFO order can interleave raises of different
    // columns.
    let cap = (graph.n_vertices().max(2) as u32).saturating_mul(sets.n_anchors().max(1) as u32);
    let mut queue = std::collections::VecDeque::new();
    // Seed: vertices with grown sets have fresh zero columns — their
    // in-constraints need one relaxation now, and their out-constraints
    // (violated even without a raise, e.g. a zero column feeding a
    // positive-weight edge into an anchor-sharing head) are covered by
    // queueing them unconditionally.
    for &v in changed_sets {
        if !in_queue[v.index()] {
            in_queue[v.index()] = true;
            queue.push_back(v);
        }
        let mut grew = false;
        for (_, e) in graph.in_edges(v) {
            grew |= relax_edge(omega, e);
        }
        if grew && !is_raised[v.index()] {
            is_raised[v.index()] = true;
            raised_list.push(v);
        }
    }
    if relax_edge(omega, graph.edge(new_edge)) {
        let h = graph.edge(new_edge).to();
        if !is_raised[h.index()] {
            raised_list.push(h);
            is_raised[h.index()] = true;
        }
        if !in_queue[h.index()] {
            in_queue[h.index()] = true;
            queue.push_back(h);
        }
    }
    while let Some(v) = queue.pop_front() {
        in_queue[v.index()] = false;
        pops[v.index()] += 1;
        if pops[v.index()] > cap {
            return Err(ScheduleError::Inconsistent {
                iterations: graph.n_backward_edges() + 1,
            });
        }
        for (_, e) in graph.out_edges(v) {
            if relax_edge(omega, e) {
                let u = e.to();
                if !is_raised[u.index()] {
                    is_raised[u.index()] = true;
                    raised_list.push(u);
                }
                if !in_queue[u.index()] {
                    in_queue[u.index()] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    Ok(raised_list)
}

/// The reference fixpoint over a run-local dense `|V| × |A|` scratch
/// (`data[v * |A| + i]`, starting at zero; untracked slots are never
/// read), packed into the result — and into each traced snapshot.
fn run(
    graph: &ConstraintGraph,
    sets: AnchorSetFamily,
    mut trace: Option<&mut Vec<IterationTrace>>,
) -> Result<RelativeSchedule, ScheduleError> {
    let mut data = vec![0; graph.n_vertices() * sets.n_anchors()];
    let topo = graph.forward_topological_order()?;
    let budget = graph.n_backward_edges() + 1;
    let snapshot = |data: &[i64]| RelativeSchedule::from_dense(sets.clone(), data, 0);
    for iter in 1..=budget {
        incremental_offset(graph, &topo, &sets, &mut data);
        let violations = find_violations(graph, &sets, &data);
        let computed = trace.as_ref().map(|_| snapshot(&data));
        if violations.is_empty() {
            if let Some(trace) = trace.as_mut() {
                let computed = computed.expect("snapshot exists when tracing");
                trace.push(IterationTrace {
                    computed: computed.clone(),
                    violations: Vec::new(),
                    readjusted: computed,
                });
            }
            return Ok(RelativeSchedule::from_dense(sets, &data, iter));
        }
        readjust_offsets(graph, &sets, &mut data, &violations);
        if let Some(trace) = trace.as_mut() {
            trace.push(IterationTrace {
                computed: computed.expect("snapshot exists when tracing"),
                violations: violations.clone(),
                readjusted: snapshot(&data),
            });
        }
    }
    Err(ScheduleError::Inconsistent { iterations: budget })
}

/// `IncrementalOffset`: one topological longest-path sweep over `G_f`.
/// Offsets only ever increase (Lemma 8).
fn incremental_offset(
    graph: &ConstraintGraph,
    topo: &rsched_graph::ForwardTopo,
    sets: &AnchorSetFamily,
    data: &mut [i64],
) {
    let n_anchors = sets.n_anchors();
    for &v in topo.order() {
        for (_, e) in graph.in_edges(v) {
            if !e.is_forward() {
                continue;
            }
            let p = e.from();
            let w = e.weight().zeroed();
            // For every anchor tracked by both p and v: relax through p.
            for ai in 0..n_anchors {
                let a = sets.anchors()[ai];
                if !sets.contains(p, a) || !sets.contains(v, a) {
                    continue;
                }
                let cand = data[p.index() * n_anchors + ai] + w;
                let slot = &mut data[v.index() * n_anchors + ai];
                if cand > *slot {
                    *slot = cand;
                }
            }
            // Base case σ_p(p) = 0 (Definition 3 normalization): when the
            // tail is itself an anchor tracked at v, the edge contributes
            // `0 + w`. This is what carries a minimum constraint sourced
            // at an anchor (e.g. the source) into its successor's offset;
            // for unbounded edges (w = 0) it is a no-op.
            if let Some(ai) = sets.anchor_index(p) {
                if sets.contains(v, p) {
                    let slot = &mut data[v.index() * n_anchors + ai];
                    if w > *slot {
                        *slot = w;
                    }
                }
            }
        }
    }
}

/// A violated backward edge with the anchors requiring readjustment.
fn find_violations(graph: &ConstraintGraph, sets: &AnchorSetFamily, data: &[i64]) -> Vec<EdgeId> {
    let n_anchors = sets.n_anchors();
    let mut out = Vec::new();
    'edges: for (id, e) in graph.backward_edges() {
        let (t, h) = (e.from(), e.to());
        let w = e.weight().zeroed();
        for ai in 0..n_anchors {
            let a = sets.anchors()[ai];
            if !sets.contains(t, a) || !sets.contains(h, a) {
                continue;
            }
            if data[h.index() * n_anchors + ai] < data[t.index() * n_anchors + ai] + w {
                out.push(id);
                continue 'edges;
            }
        }
    }
    out
}

/// `ReadjustOffsets`: raise each violated head offset to the minimum value
/// satisfying its backward edge.
fn readjust_offsets(
    graph: &ConstraintGraph,
    sets: &AnchorSetFamily,
    data: &mut [i64],
    violations: &[EdgeId],
) {
    let n_anchors = sets.n_anchors();
    for &id in violations {
        let e = graph.edge(id);
        let (t, h) = (e.from(), e.to());
        let w = e.weight().zeroed();
        for ai in 0..n_anchors {
            let a = sets.anchors()[ai];
            if !sets.contains(t, a) || !sets.contains(h, a) {
                continue;
            }
            let required = data[t.index() * n_anchors + ai] + w;
            let slot = &mut data[h.index() * n_anchors + ai];
            if *slot < required {
                *slot = required;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The fixpoint over packed rows
//
// The reference above walks the mutable adjacency lists over a dense
// `|V| × |A|` scratch. `fixpoint` runs the *same* iteration — identical
// per-round states, hence identical offsets, iteration counts and error
// values — in place on a `RelativeSchedule`'s packed rows, as linear
// passes over a [`ScheduleKernel`] snapshot, starting from zeroed rows.
// Per round:
//
// 1. `IncrementalOffset`: for each head vertex in topological order, its
//    packed row is gathered into one reused `|A|`-wide buffer by column;
//    each forward in-tail relaxes the buffer by walking the tail's set
//    bits and its packed row in step; the buffer is written back;
// 2. the scan: the backward edges violated in any column both endpoints
//    track, in EdgeId order — exactly `find_violations`' list;
// 3. `ReadjustOffsets` over that list, in order, each edge walking the
//    union of its endpoints' bits so both packed positions advance in
//    step.
//
// No step finds a column's packed position by counting the bits below
// it: the build targets baseline x86-64, where `count_ones` is a
// software routine. Only a word with nothing to relax is skipped with one
// count per row word.
//
// Two frontiers skip work that cannot change any state.
//
// **Columns.** A column whose readjustment changed nothing is at its
// global fixpoint and retires: the sweep computed its complete forward
// closure (a column's offsets depend only on its own values), and
// "unchanged under readjust" means no backward edge was violated in it,
// since readjusting a violated edge raises its head. Its values never
// move again, so dropping it from later sweeps, scans and readjusts
// removes no state change and no violation.
//
// **Vertices.** After round 1, a vertex is swept only if one of its
// forward in-tails rose since the vertex's previous sweep (in the last
// readjust, or earlier in this sweep), and a backward edge is scanned
// only if its tail rose. A vertex none of whose tails moved would
// recompute a maximum it already holds, since offsets only rise. A
// backward edge that was satisfied at the previous scan, or readjusted
// since, stays satisfied until its tail rises, because its head can only
// rise too.
//
// So every iterate, every violation list and the iteration count equal
// the reference's bit for bit (`tests/kernel_differential.rs`).
// ---------------------------------------------------------------------------

/// An all-ones column bitset over `width` columns (the last word trimmed
/// to the column count).
fn full_bits(width: usize) -> Vec<u64> {
    let words = width.div_ceil(64).max(1);
    let mut bits = vec![u64::MAX; words];
    let rem = width % 64;
    if rem != 0 {
        bits[words - 1] = (1u64 << rem) - 1;
    }
    bits
}

/// Relaxes `buf[i] = max(buf[i], σ_i(tail) + w)` for every column `i`
/// the tail (bits `trow`, packed offsets `tail`) and the head (bits
/// `hrow`) both track and `dirty` keeps live. `buf` is the head's row
/// gathered by column.
#[inline]
fn relax_into(buf: &mut [i64], trow: &[u64], hrow: &[u64], dirty: &[u64], tail: &[i64], w: i64) {
    let mut pos = 0;
    for (k, &tw) in trow.iter().enumerate() {
        if tw == 0 {
            continue;
        }
        let live = tw & hrow[k] & dirty[k];
        if live == 0 {
            pos += tw.count_ones() as usize;
            continue;
        }
        let mut bits = tw;
        // Every tail bit live (the common case: a forward head tracks its
        // tail's anchors, and round 1 keeps every column) needs no test.
        let all = live == tw;
        while bits != 0 {
            let b = bits.trailing_zeros();
            bits &= bits - 1;
            if all || live >> b & 1 != 0 {
                let cand = tail[pos] + w;
                let slot = &mut buf[(k << 6) | b as usize];
                if cand > *slot {
                    *slot = cand;
                }
            }
            pos += 1;
        }
    }
}

/// Calls `f(bit, tail_pos, head_pos)` for every column both rows
/// (`trow`, `hrow`) track and `dirty` keeps live, ascending: `bit` is the
/// column's bit within its word and the positions index the packed
/// offsets, the rows starting at `tp` and `hp`. Stops as soon as `f`
/// returns `true`, and returns whether it did.
#[inline]
fn walk_shared(
    trow: &[u64],
    hrow: &[u64],
    dirty: &[u64],
    mut tp: usize,
    mut hp: usize,
    mut f: impl FnMut(usize, u64, usize, usize) -> bool,
) -> bool {
    for (k, (&tw, &hw)) in trow.iter().zip(hrow).enumerate() {
        let live = tw & hw & dirty[k];
        if live == 0 {
            tp += tw.count_ones() as usize;
            hp += hw.count_ones() as usize;
            continue;
        }
        let mut bits = tw | hw;
        while bits != 0 {
            let bit = bits & bits.wrapping_neg();
            bits ^= bit;
            if live & bit != 0 && f(k, bit, tp, hp) {
                return true;
            }
            tp += usize::from(tw & bit != 0);
            hp += usize::from(hw & bit != 0);
        }
    }
    false
}

/// The iterative fixpoint in place on zeroed packed rows over `sets` (see
/// the section comment): the minimum schedule, with its iteration count,
/// on success.
fn fixpoint(
    kernel: &ScheduleKernel,
    sets: &AnchorSetFamily,
) -> Result<RelativeSchedule, ScheduleError> {
    let mut omega = RelativeSchedule::zeroed(sets.clone());
    let n = kernel.n_vertices();
    let width = omega.sets.n_anchors();
    let budget = kernel.n_backward_edges() + 1;
    if width == 0 {
        // With no columns the first violation scan is vacuously empty.
        omega.iterations = 1;
        return Ok(omega);
    }
    let words = width.div_ceil(64);
    // Column of each anchor vertex, for the σ_a(a) = 0 base case.
    let mut col_of_vertex = vec![u32::MAX; n];
    for (i, a) in omega.sets.anchors().iter().enumerate() {
        col_of_vertex[a.index()] = i as u32;
    }
    let masks = omega.sets.all_words();
    let row = |v: usize| &masks[v * words..(v + 1) * words];
    let starts = &omega.row_start;
    let offsets = &mut omega.offsets;
    let (back_tails, back_heads, back_weights) = (
        kernel.backward_tails(),
        kernel.backward_heads(),
        kernel.backward_weights(),
    );
    let mut dirty = full_bits(width);
    let mut changed = vec![0u64; words];
    // Vertices whose offsets rose since the last scan.
    let mut rose = vec![false; n];
    let mut buf = vec![0i64; width];
    let mut list: Vec<u32> = Vec::new();
    for iter in 1..=budget {
        let first = iter == 1;
        for &v in kernel.topo_order() {
            let v = v as usize;
            let (tails, weights) = kernel.forward_in_edges(v);
            if tails.is_empty() || !first && !tails.iter().any(|&t| rose[t as usize]) {
                continue;
            }
            let hrow = row(v);
            let start = starts[v] as usize;
            let mut pos = start;
            for_each_member(hrow, |i| {
                buf[i] = offsets[pos];
                pos += 1;
            });
            for (&t, &w) in tails.iter().zip(weights) {
                let t = t as usize;
                let tail = &offsets[starts[t] as usize..starts[t + 1] as usize];
                relax_into(&mut buf, row(t), hrow, &dirty, tail, w);
                // Base case σ_a(a) = 0 (Definition 3 normalization): when
                // the tail is itself an anchor tracked at v, the edge
                // contributes `0 + w`. This is what carries a minimum
                // constraint sourced at an anchor (e.g. the source) into
                // its successor's offset; for unbounded edges (w = 0) it
                // is a no-op.
                let c = col_of_vertex[t] as usize;
                if c < width && (hrow[c >> 6] & dirty[c >> 6]) >> (c & 63) & 1 != 0 && w > buf[c] {
                    buf[c] = w;
                }
            }
            let mut pos = start;
            for_each_member(hrow, |i| {
                if buf[i] > offsets[pos] {
                    offsets[pos] = buf[i];
                    rose[v] = true;
                }
                pos += 1;
            });
        }

        list.clear();
        for (i, ((&t, &h), &w)) in back_tails
            .iter()
            .zip(back_heads)
            .zip(back_weights)
            .enumerate()
        {
            let (t, h) = (t as usize, h as usize);
            if !first && !rose[t] {
                continue;
            }
            let (tp, hp) = (starts[t] as usize, starts[h] as usize);
            if walk_shared(row(t), row(h), &dirty, tp, hp, |_, _, tp, hp| {
                offsets[hp] < offsets[tp] + w
            }) {
                list.push(i as u32);
            }
        }
        if list.is_empty() {
            omega.iterations = iter;
            return Ok(omega);
        }

        rose.fill(false);
        changed.fill(0);
        for &i in &list {
            let i = i as usize;
            let (t, h, w) = (
                back_tails[i] as usize,
                back_heads[i] as usize,
                back_weights[i],
            );
            let (tp, hp) = (starts[t] as usize, starts[h] as usize);
            walk_shared(row(t), row(h), &dirty, tp, hp, |k, bit, tp, hp| {
                let required = offsets[tp] + w;
                if offsets[hp] < required {
                    offsets[hp] = required;
                    changed[k] |= bit;
                    rose[h] = true;
                }
                false
            });
        }
        dirty.copy_from_slice(&changed);
    }
    Err(ScheduleError::Inconsistent { iterations: budget })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{fig10, fig2};
    use rsched_graph::ExecDelay;

    /// Table II of the paper: minimum offsets of the Fig. 2 graph.
    #[test]
    fn fig2_table2_offsets() {
        let (g, a, [v1, v2, v3, v4]) = fig2();
        let s = g.source();
        let omega = schedule(&g).unwrap();
        assert_eq!(omega.offset(a, s), Some(0));
        assert_eq!(omega.offset(v1, s), Some(0));
        assert_eq!(omega.offset(v2, s), Some(2));
        assert_eq!(omega.offset(v3, s), Some(3));
        assert_eq!(omega.offset(v3, a), Some(0));
        assert_eq!(omega.offset(v4, s), Some(8));
        assert_eq!(omega.offset(v4, a), Some(5));
        // Anchors not in a vertex's set have no offset.
        assert_eq!(omega.offset(v1, a), None);
        assert_eq!(omega.offset(s, s), None);
    }

    /// Fig. 10: the trace of offsets through the scheduling iterations
    /// matches the paper's table cell by cell.
    #[test]
    fn fig10_trace_matches_paper() {
        let (g, a, [v1, v2, v3, v4, v5, v6]) = fig10();
        let s = g.source();
        let sink = g.sink();
        let trace = schedule_traced(&g).unwrap();
        assert_eq!(trace.iterations.len(), 3, "terminates in the 3rd iteration");

        let it1 = &trace.iterations[0];
        let c = &it1.computed;
        assert_eq!(c.offset(a, s), Some(1));
        assert_eq!((c.offset(v1, s), c.offset(v1, a)), (Some(1), Some(0)));
        assert_eq!((c.offset(v2, s), c.offset(v2, a)), (Some(2), Some(1)));
        assert_eq!((c.offset(v3, s), c.offset(v3, a)), (Some(5), Some(4)));
        assert_eq!((c.offset(v4, s), c.offset(v4, a)), (Some(4), Some(2)));
        assert_eq!((c.offset(v5, s), c.offset(v5, a)), (Some(5), Some(3)));
        assert_eq!((c.offset(v6, s), c.offset(v6, a)), (Some(8), None));
        assert_eq!((c.offset(sink, s), c.offset(sink, a)), (Some(12), Some(5)));
        assert_eq!(it1.violations.len(), 3, "three backward edges violated");
        let r = &it1.readjusted;
        assert_eq!(r.offset(a, s), Some(2));
        assert_eq!((r.offset(v2, s), r.offset(v2, a)), (Some(4), Some(3)));
        assert_eq!((r.offset(v5, s), r.offset(v5, a)), (Some(6), Some(3)));

        let it2 = &trace.iterations[1];
        let c = &it2.computed;
        assert_eq!(c.offset(a, s), Some(2));
        assert_eq!((c.offset(v1, s), c.offset(v1, a)), (Some(2), Some(0)));
        assert_eq!((c.offset(v2, s), c.offset(v2, a)), (Some(4), Some(3)));
        assert_eq!((c.offset(v3, s), c.offset(v3, a)), (Some(6), Some(4)));
        assert_eq!((c.offset(v4, s), c.offset(v4, a)), (Some(4), Some(2)));
        assert_eq!((c.offset(v5, s), c.offset(v5, a)), (Some(6), Some(3)));
        assert_eq!((c.offset(sink, s), c.offset(sink, a)), (Some(12), Some(6)));
        assert_eq!(
            it2.violations.len(),
            1,
            "one backward edge remains violated"
        );
        let r = &it2.readjusted;
        assert_eq!((r.offset(v2, s), r.offset(v2, a)), (Some(5), Some(3)));

        let it3 = &trace.iterations[2];
        assert!(it3.violations.is_empty());
        let f = &trace.schedule;
        assert_eq!(f.offset(a, s), Some(2));
        assert_eq!((f.offset(v1, s), f.offset(v1, a)), (Some(2), Some(0)));
        assert_eq!((f.offset(v2, s), f.offset(v2, a)), (Some(5), Some(3)));
        assert_eq!((f.offset(v3, s), f.offset(v3, a)), (Some(6), Some(4)));
        assert_eq!((f.offset(v4, s), f.offset(v4, a)), (Some(4), Some(2)));
        assert_eq!((f.offset(v5, s), f.offset(v5, a)), (Some(6), Some(3)));
        assert_eq!((f.offset(v6, s), f.offset(v6, a)), (Some(8), None));
        assert_eq!((f.offset(sink, s), f.offset(sink, a)), (Some(12), Some(6)));
        assert_eq!(f.iterations(), 3);
    }

    /// Theorem 3: the minimum offsets equal the longest weighted paths from
    /// each anchor in the full graph.
    #[test]
    fn offsets_equal_longest_paths() {
        let (g, _, _) = fig10();
        let omega = schedule(&g).unwrap();
        for &a in omega.anchors() {
            let lp = g.longest_paths_from(a).unwrap();
            for v in g.vertex_ids() {
                if let Some(off) = omega.offset(v, a) {
                    assert_eq!(Some(off), lp.length_to(v), "σ_{a}({v})");
                }
            }
        }
    }

    #[test]
    fn inconsistent_constraints_detected_within_budget() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(4));
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap();
        g.add_max_constraint(a, b, 2).unwrap(); // b must start within 2, but δ(a)=4
        g.polarize().unwrap();
        // schedule() front-door reports unfeasibility...
        assert!(matches!(
            schedule(&g),
            Err(ScheduleError::Unfeasible { .. })
        ));
        // ...while the raw iteration (no pre-check) detects it via the
        // iteration budget (Corollary 2).
        let sets = AnchorSets::compute(&g).unwrap();
        assert_eq!(
            schedule_with_sets(&g, sets.family()),
            Err(ScheduleError::Inconsistent { iterations: 2 })
        );
    }

    #[test]
    fn ill_posed_graph_rejected_by_schedule() {
        let mut g = ConstraintGraph::new();
        let a1 = g.add_operation("a1", ExecDelay::Unbounded);
        let a2 = g.add_operation("a2", ExecDelay::Unbounded);
        let vi = g.add_operation("vi", ExecDelay::Fixed(1));
        let vj = g.add_operation("vj", ExecDelay::Fixed(1));
        g.add_dependency(a1, vi).unwrap();
        g.add_dependency(a2, vj).unwrap();
        g.add_max_constraint(vi, vj, 4).unwrap();
        g.polarize().unwrap();
        assert!(matches!(schedule(&g), Err(ScheduleError::IllPosed { .. })));
    }

    #[test]
    fn max_offset_and_sum_metrics() {
        let (g, a, _) = fig10();
        let omega = schedule(&g).unwrap();
        assert_eq!(omega.max_offset(g.source()), 12);
        assert_eq!(omega.max_offset(a), 6);
        assert_eq!(omega.sum_of_max_offsets(), 18);
    }

    #[test]
    fn restrict_drops_untracked_offsets() {
        let (g, _, _) = fig10();
        let analysis = crate::anchors::IrredundantAnchors::analyze(&g).unwrap();
        let omega = schedule(&g).unwrap();
        let restricted = omega.restrict(analysis.irredundant.family());
        for v in g.vertex_ids() {
            for &a in omega.anchors() {
                if analysis.irredundant.contains(v, a) {
                    assert_eq!(restricted.offset(v, a), omega.offset(v, a));
                } else {
                    assert_eq!(restricted.offset(v, a), None);
                }
            }
        }
    }

    #[test]
    fn fixed_delay_graph_reduces_to_traditional_asap() {
        // No unbounded operations: the only anchor is the source and the
        // offsets are the classical ASAP start times.
        let mut g = ConstraintGraph::new();
        let x = g.add_operation("x", ExecDelay::Fixed(2));
        let y = g.add_operation("y", ExecDelay::Fixed(3));
        let z = g.add_operation("z", ExecDelay::Fixed(1));
        g.add_dependency(x, y).unwrap();
        g.add_dependency(x, z).unwrap();
        g.polarize().unwrap();
        let omega = schedule(&g).unwrap();
        assert_eq!(omega.anchors(), &[g.source()]);
        assert_eq!(omega.offset(x, g.source()), Some(0));
        assert_eq!(omega.offset(y, g.source()), Some(2));
        assert_eq!(omega.offset(z, g.source()), Some(2));
    }

    #[test]
    fn validate_accepts_minimum_and_rejects_perturbed() {
        let (g, _, _) = fig10();
        let omega = schedule(&g).unwrap();
        assert!(omega.validate(&g).is_empty());
        // Restricting to IR sets keeps validity (fewer tracked pairs).
        let analysis = crate::anchors::IrredundantAnchors::analyze(&g).unwrap();
        assert!(omega
            .restrict(analysis.irredundant.family())
            .validate(&g)
            .is_empty());
    }

    #[test]
    fn debug_output_is_nonempty() {
        let (g, _, _) = fig2();
        let omega = schedule(&g).unwrap();
        let dbg = format!("{omega:?}");
        assert!(dbg.contains("RelativeSchedule"));
        assert!(dbg.contains("σ_"));
    }

    /// A random well-posed design: `n` operations (about one in five
    /// unbounded), forward dependencies, minimum constraints and a few
    /// maximum constraints, made well-posed by serialization. `None` when
    /// the constraints came out unfeasible.
    fn random_graph(seed: u64, n: usize) -> Option<ConstraintGraph> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = ConstraintGraph::new();
        let vs: Vec<VertexId> = (0..n)
            .map(|i| {
                let delay = if rng.gen_bool(0.2) {
                    ExecDelay::Unbounded
                } else {
                    ExecDelay::Fixed(rng.gen_range(0u64..5))
                };
                g.add_operation(format!("op{i}"), delay)
            })
            .collect();
        for j in 1..n {
            for _ in 0..2 {
                let i = rng.gen_range(0..j);
                g.add_dependency(vs[i], vs[j]).unwrap();
            }
        }
        for _ in 0..n / 8 {
            let j = rng.gen_range(1..n);
            let i = rng.gen_range(0..j);
            g.add_min_constraint(vs[i], vs[j], rng.gen_range(0u64..6))
                .unwrap();
        }
        for _ in 0..n / 16 {
            let j = rng.gen_range(1..n);
            let i = rng.gen_range(0..j);
            g.add_max_constraint(vs[i], vs[j], rng.gen_range(20u64..40))
                .unwrap();
        }
        g.polarize().unwrap();
        crate::make_well_posed(&mut g).ok()?;
        Some(g)
    }

    /// fig10 plus the feasible ones of twenty random 60-op designs.
    fn designs() -> Vec<ConstraintGraph> {
        let mut out = vec![fig10().0];
        out.extend((0..20).filter_map(|seed| random_graph(seed, 60)));
        assert!(out.len() > 10, "most random designs are feasible");
        out
    }

    /// Dense `|V| × |A|` reference of a minimum schedule over `sets`:
    /// `σ_a(v)` is the longest path from `a` to `v` (Theorem 3) where
    /// `sets` tracks the pair, `None` elsewhere.
    fn dense_reference(g: &ConstraintGraph, sets: &AnchorSetFamily) -> Vec<Vec<Option<i64>>> {
        let paths: Vec<_> = sets
            .anchors()
            .iter()
            .map(|&a| g.longest_paths_from(a).unwrap())
            .collect();
        g.vertex_ids()
            .map(|v| {
                sets.anchors()
                    .iter()
                    .zip(&paths)
                    .map(|(&a, lp)| sets.contains(v, a).then(|| lp.length_to(v).unwrap()))
                    .collect()
            })
            .collect()
    }

    /// `omega` stores exactly its tracked pairs, each equal to `dense`.
    fn assert_packed(omega: &RelativeSchedule, dense: &[Vec<Option<i64>>]) {
        assert_eq!(omega.offsets.len(), omega.tracked_sets().total_bits());
        assert_eq!(omega.row_start.len(), dense.len() + 1);
        for (vi, row) in dense.iter().enumerate() {
            let v = VertexId::from_index(vi);
            for (&a, &want) in omega.anchors().iter().zip(row) {
                assert_eq!(omega.offset(v, a), want, "σ_{a}({v})");
            }
        }
    }

    #[test]
    fn packed_layout_after_schedule_restrict_and_from_offsets() {
        for g in designs() {
            let omega = schedule(&g).unwrap();
            let full = dense_reference(&g, omega.tracked_sets());
            assert_packed(&omega, &full);

            let ir = crate::anchors::IrredundantAnchors::analyze(&g)
                .unwrap()
                .irredundant;
            let restricted = omega.restrict(ir.family());
            assert_packed(&restricted, &dense_reference(&g, ir.family()));

            let triples: Vec<_> = g
                .vertex_ids()
                .flat_map(|v| omega.offsets_of(v).map(move |(a, o)| (v, a, o)))
                .collect();
            let rebuilt = RelativeSchedule::from_offsets(
                omega.tracked_sets().clone(),
                g.n_vertices(),
                &triples,
                omega.iterations(),
            )
            .unwrap();
            assert_packed(&rebuilt, &full);
            assert_eq!(rebuilt, omega);
        }
    }

    /// A restricted schedule equals the one rebuilt from its own tracked
    /// triples: the dropped pairs leave nothing behind.
    #[test]
    fn restrict_equals_rebuild_from_its_own_offsets() {
        for g in designs() {
            let omega = schedule(&g).unwrap();
            let ir = crate::anchors::IrredundantAnchors::analyze(&g)
                .unwrap()
                .irredundant;
            let restricted = omega.restrict(ir.family());
            let triples: Vec<_> = g
                .vertex_ids()
                .flat_map(|v| restricted.offsets_of(v).map(move |(a, o)| (v, a, o)))
                .collect();
            let rebuilt = RelativeSchedule::from_offsets(
                ir.family().clone(),
                g.n_vertices(),
                &triples,
                restricted.iterations(),
            )
            .unwrap();
            assert_eq!(restricted, rebuilt);
        }
    }

    #[test]
    fn packed_layout_after_remapped_round_trip() {
        for g in designs() {
            let omega = schedule(&g).unwrap();
            let dense = dense_reference(&g, omega.tracked_sets());
            let n = g.n_vertices() as u32;
            // Reverse the ids, then rotate them by a third.
            let perm: Vec<u32> = (0..n).map(|v| (n - 1 - v + n / 3) % n).collect();
            let mut inv = vec![0u32; perm.len()];
            for (v, &p) in perm.iter().enumerate() {
                inv[p as usize] = v as u32;
            }
            let moved = omega.remapped(&perm);
            assert_eq!(moved.offsets.len(), moved.tracked_sets().total_bits());
            for v in g.vertex_ids() {
                let pv = VertexId::from_index(perm[v.index()] as usize);
                for (&a, &want) in omega.anchors().iter().zip(&dense[v.index()]) {
                    let pa = VertexId::from_index(perm[a.index()] as usize);
                    assert_eq!(moved.offset(pv, pa), want);
                }
            }
            let back = moved.remapped(&inv);
            assert_packed(&back, &dense);
            assert_eq!(back, omega);
        }
    }

    /// An additive edit that grows anchor sets re-packs the rows once;
    /// the new pairs start at zero and relax to the minimum.
    #[test]
    fn packed_layout_after_relax_additive_with_growing_sets() {
        let mut grown = 0;
        for g in designs() {
            let omega = schedule(&g).unwrap();
            // An edge from an anchor to an operation that does not track it.
            let Some((a, v)) = omega.anchors().iter().find_map(|&a| {
                g.operation_ids()
                    .filter(|&v| v > a && !omega.tracked_sets().contains(v, a))
                    .last()
                    .map(|v| (a, v))
            }) else {
                continue;
            };
            let mut g = g;
            let mut sets = AnchorSets::compute(&g).unwrap();
            let id = g.add_dependency(a, v).unwrap();
            let changed = sets.notify_add_edge(&g, id);
            assert!(!changed.is_empty(), "the edge grows {v}'s set");
            if !matches!(check_well_posed_with(&g, &sets), WellPosedness::WellPosed) {
                continue;
            }
            let mut relaxed = omega.clone();
            relax_additive(&g, sets.family(), &mut relaxed, id, &changed).unwrap();
            assert_packed(&relaxed, &dense_reference(&g, sets.family()));
            grown += 1;
        }
        assert!(grown > 5, "most designs take a set-growing edge");
    }
}
