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
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

use rsched_graph::{ConstraintGraph, EdgeId, ScheduleKernel, VertexId};

use crate::anchors::{AnchorSetFamily, AnchorSets};
use crate::error::ScheduleError;
use crate::pool::StealDeque;
use crate::wellposed::{check_well_posed_with, WellPosedness};

/// A relative schedule: one offset `σ_a(v)` per `(vertex, anchor)` pair
/// with `a` in the vertex's tracked anchor set.
///
/// Only those pairs are stored (Definition 3 defines nothing else): the
/// offsets are packed row by row, each vertex's row holding its tracked
/// anchors' offsets in anchor-index order. Storage is therefore
/// `tracked pairs × 8 + (|V| + 1) × 4` bytes, not a dense `|V| × |A|`
/// matrix — the fixpoint unpacks into a run-local dense scratch and packs
/// the result, so nothing dense outlives a run.
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
    fn regrow(&mut self, sets: &AnchorSetFamily, changed_sets: &[VertexId]) {
        debug_assert_eq!(
            sets.anchors(),
            self.sets.anchors(),
            "additive edits keep the anchor roster"
        );
        if changed_sets.is_empty() {
            debug_assert!(self.sets == *sets, "no set change means identical families");
        } else {
            let old = std::mem::replace(self, RelativeSchedule::zeroed(sets.clone()));
            for vi in 0..self.n_vertices() {
                let v = VertexId::from_index(vi);
                let (new_row, old_row) = (sets.row_words(v), old.sets.row_words(v));
                let dst = self.row_start[vi] as usize;
                let src = old.row_start[vi] as usize;
                let (mut nbase, mut obase) = (0, 0);
                for (&nw, &ow) in new_row.iter().zip(old_row) {
                    let mut bits = nw & ow;
                    while bits != 0 {
                        let low = (1u64 << bits.trailing_zeros()) - 1;
                        bits &= bits - 1;
                        self.offsets[dst + nbase + (nw & low).count_ones() as usize] =
                            old.offsets[src + obase + (ow & low).count_ones() as usize];
                    }
                    nbase += nw.count_ones() as usize;
                    obase += ow.count_ones() as usize;
                }
            }
        }
        self.iterations = 1;
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
    schedule_threaded(graph, 1)
}

/// [`schedule`] with the per-anchor fixpoint fanned out over `threads`
/// worker threads.
///
/// Anchor offset columns never interact inside the fixpoint — every sweep,
/// scan and readjustment reads and writes a single column — so the columns
/// are distributed over a scoped worker set while the per-iteration
/// violation list (a column-order-independent OR across columns) is joined
/// on the calling thread. The result is **bit-identical** for every
/// `threads` value, including the sequential `threads <= 1` path.
///
/// # Errors
///
/// Same conditions as [`schedule`].
pub fn schedule_threaded(
    graph: &ConstraintGraph,
    threads: usize,
) -> Result<RelativeSchedule, ScheduleError> {
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
    let kernel = ScheduleKernel::build(graph)?;
    schedule_with_sets_on(&kernel, sets.family(), threads)
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

/// [`schedule_with_sets`] over a prebuilt [`ScheduleKernel`] snapshot —
/// the zero-rebuild entry point for long-lived sessions.
///
/// `kernel` must snapshot the same graph revision `sets` was computed for.
/// `threads <= 1` runs the fixpoint sequentially; larger values fan the
/// anchor columns out over scoped worker threads with bit-identical
/// results (see [`schedule_threaded`]).
///
/// # Errors
///
/// Same conditions as [`schedule_with_sets`].
pub fn schedule_with_sets_on(
    kernel: &ScheduleKernel,
    sets: &AnchorSetFamily,
    threads: usize,
) -> Result<RelativeSchedule, ScheduleError> {
    schedule_with_sets_tuned(kernel, sets, FixpointTuning::threaded(threads))
}

/// [`schedule_with_sets_on`] with explicit [`FixpointTuning`] — the
/// entry benches and differential tests use to force the parallel
/// executor or disable frontier compaction. Results are bit-identical
/// across every tuning (see the kernel module comment below).
///
/// # Errors
///
/// Same conditions as [`schedule_with_sets`].
pub fn schedule_with_sets_tuned(
    kernel: &ScheduleKernel,
    sets: &AnchorSetFamily,
    tuning: FixpointTuning,
) -> Result<RelativeSchedule, ScheduleError> {
    let dense = vec![0; kernel.n_vertices() * sets.n_anchors()];
    kernel_run_from(kernel, sets.clone(), dense, tuning)
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

/// Warm-started iterative scheduling — the incremental engine's entry
/// point.
///
/// `sets` must be the up-to-date anchor-set family of `graph`; `prev` is a
/// previously computed fixpoint of a *related* graph. The offset column of
/// every anchor in `warm_anchors` is seeded from `prev` (where both
/// families track the `(vertex, anchor)` pair); all other columns start
/// from zero, and the usual `IncrementalOffset` / `ReadjustOffsets`
/// iteration runs to the fixpoint.
///
/// Seeding is sound whenever the seed is a pointwise *lower bound* on the
/// new minimum offsets: both sweeps are monotone and only ever raise
/// offsets, so iterates stay sandwiched between the seed and the minimum
/// schedule and converge to the same fixpoint as a cold run, within the
/// same `|E_b| + 1` budget (Theorem 8 / Corollary 2). Callers therefore
/// pass as `warm_anchors`:
///
/// - anchors untouched by an edit (their columns are already exact), and
/// - after a purely *additive* edit (new edge/constraint), every anchor —
///   added constraints can only raise minimum offsets;
///
/// and must *exclude* anchors whose paths lost an edge or weight
/// (removals, delay reductions), whose old offsets may overshoot.
///
/// # Errors
///
/// Returns [`ScheduleError::Inconsistent`] when the budget is exhausted —
/// for a graph that passed the anchor-containment check this implies a
/// positive cycle (unfeasible constraints), which callers classify via
/// [`check_well_posed_with`].
pub fn reschedule(
    graph: &ConstraintGraph,
    sets: &AnchorSetFamily,
    prev: &RelativeSchedule,
    warm_anchors: &[VertexId],
) -> Result<RelativeSchedule, ScheduleError> {
    let kernel = ScheduleKernel::build(graph)?;
    reschedule_on(&kernel, sets, prev, warm_anchors, 1)
}

/// [`reschedule`] over a prebuilt [`ScheduleKernel`] snapshot.
///
/// `kernel` must snapshot the same graph revision `sets` describes;
/// `threads` behaves as in [`schedule_with_sets_on`].
///
/// # Errors
///
/// Same conditions as [`reschedule`].
pub fn reschedule_on(
    kernel: &ScheduleKernel,
    sets: &AnchorSetFamily,
    prev: &RelativeSchedule,
    warm_anchors: &[VertexId],
    threads: usize,
) -> Result<RelativeSchedule, ScheduleError> {
    reschedule_tuned(
        kernel,
        sets,
        prev,
        warm_anchors,
        FixpointTuning::threaded(threads),
    )
}

/// [`reschedule_on`] with explicit [`FixpointTuning`] (see
/// [`schedule_with_sets_tuned`]). Warm-seeded columns that are already
/// at their fixpoint retire from the dirty frontier after the first
/// round, so a mostly-warm reschedule pays O(V·dirty) per later round.
///
/// # Errors
///
/// Same conditions as [`reschedule`].
pub fn reschedule_tuned(
    kernel: &ScheduleKernel,
    sets: &AnchorSetFamily,
    prev: &RelativeSchedule,
    warm_anchors: &[VertexId],
    tuning: FixpointTuning,
) -> Result<RelativeSchedule, ScheduleError> {
    let dense = seeded_dense(kernel.n_vertices(), sets, prev, warm_anchors);
    kernel_run_from(kernel, sets.clone(), dense, tuning)
}

/// The pre-kernel adjacency-walking implementation of [`reschedule`],
/// retained as the differential-test reference (see
/// [`schedule_reference`]).
///
/// # Errors
///
/// Same conditions as [`reschedule`].
pub fn reschedule_reference(
    graph: &ConstraintGraph,
    sets: &AnchorSetFamily,
    prev: &RelativeSchedule,
    warm_anchors: &[VertexId],
) -> Result<RelativeSchedule, ScheduleError> {
    let dense = seeded_dense(graph.n_vertices(), sets, prev, warm_anchors);
    run_from(graph, sets.clone(), dense, None)
}

/// A run's dense `|V| × |A|` scratch over `sets`, seeded with `prev`'s
/// offsets on the `warm_anchors` columns (where both families track the
/// `(vertex, anchor)` pair); all other slots start at zero.
///
/// Each row is seeded word-wise: the new row, the previous row and the
/// warm mask are ANDed one `u64` at a time and the set bits scattered.
/// Anchor indices are mapped between the two rosters only when they
/// differ.
fn seeded_dense(
    n_vertices: usize,
    sets: &AnchorSetFamily,
    prev: &RelativeSchedule,
    warm_anchors: &[VertexId],
) -> Vec<i64> {
    let k = sets.n_anchors();
    let mut dense = vec![0; n_vertices * k];
    let same_roster = sets.anchors() == prev.anchors();
    // Warm columns in the new roster, and (only when the rosters differ)
    // each one's column in `prev`.
    let mut warm = vec![0u64; k.div_ceil(64).max(1)];
    let mut old_column = vec![0usize; if same_roster { 0 } else { k }];
    for &a in warm_anchors {
        let (Some(i), Some(oi)) = (sets.anchor_index(a), prev.sets.anchor_index(a)) else {
            continue;
        };
        warm[i >> 6] |= 1 << (i & 63);
        if !same_roster {
            old_column[i] = oi;
        }
    }
    if warm.iter().all(|&w| w == 0) {
        return dense;
    }
    for vi in 0..n_vertices.min(prev.n_vertices()) {
        let v = VertexId::from_index(vi);
        let (new_row, old_row) = (sets.row_words(v), prev.sets.row_words(v));
        let old = prev.row(vi);
        let dst = &mut dense[vi * k..(vi + 1) * k];
        if same_roster {
            let mut base = 0;
            for (w, (&nw, &ow)) in new_row.iter().zip(old_row).enumerate() {
                let mut bits = nw & ow & warm[w];
                while bits != 0 {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    let pos = base + (ow & ((1u64 << b) - 1)).count_ones() as usize;
                    dst[(w << 6) | b as usize] = old[pos];
                }
                base += ow.count_ones() as usize;
            }
        } else {
            for (w, &nw) in new_row.iter().enumerate() {
                let mut bits = nw & warm[w];
                while bits != 0 {
                    let i = (w << 6) | bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let oi = old_column[i];
                    if old_row[oi >> 6] >> (oi & 63) & 1 != 0 {
                        dst[i] = old[rank(old_row, oi)];
                    }
                }
            }
        }
    }
    dense
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
/// pairs start from zero. The seed also satisfies every
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
/// [`check_well_posed_with`], exactly as for a [`reschedule`] budget
/// exhaustion. **On error `prev` is damaged** — offsets have been raised
/// along the divergent cycle past any meaningful minimum — and must not
/// be reused as a warm-start seed.
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

/// [`relax_additive`] over a prebuilt [`ScheduleKernel`] snapshot — the
/// incremental engine's fast path without per-edit adjacency walking.
///
/// `kernel` must snapshot the graph revision *including* `new_edge` (the
/// same revision `sets` describes). Preconditions, in-place update
/// semantics, return value and failure behavior are exactly those of
/// [`relax_additive`]: the worklist visits out-edges in the same adjacency
/// order, so the raised-vertex discovery order is identical too.
///
/// # Errors
///
/// Same conditions as [`relax_additive`], with the same
/// [`ScheduleError::Inconsistent`] iteration count.
pub fn relax_additive_on(
    kernel: &ScheduleKernel,
    sets: &AnchorSetFamily,
    prev: &mut RelativeSchedule,
    new_edge: EdgeId,
    changed_sets: &[VertexId],
) -> Result<Vec<VertexId>, ScheduleError> {
    prev.regrow(sets, changed_sets);
    let omega = prev;
    let n_vertices = kernel.n_vertices();
    let mut raised_list = Vec::new();
    let mut is_raised = vec![false; n_vertices];
    let mut in_queue = vec![false; n_vertices];
    let mut pops = vec![0u32; n_vertices];
    // Same per-vertex pop budget as the reference path: |V| pops per
    // anchor column before divergence is declared.
    let cap = (n_vertices.max(2) as u32).saturating_mul(sets.n_anchors().max(1) as u32);
    let mut queue = std::collections::VecDeque::new();
    // Seed: relax every in-edge of each grown vertex. In-edge relaxations
    // of `v` write only `v`'s own slots and read tails' slots, so visiting
    // the forward CSR row first and the backward in-edges second is
    // equivalent to the reference's interleaved adjacency order.
    for &v in changed_sets {
        if !in_queue[v.index()] {
            in_queue[v.index()] = true;
            queue.push_back(v);
        }
        let mut grew = false;
        let (tails, weights) = kernel.forward_in_edges(v.index());
        for (&t, &w) in tails.iter().zip(weights) {
            grew |= omega.relax_edge(t as usize, v.index(), w, true);
        }
        for &i in kernel.backward_in_edges(v.index()) {
            let i = i as usize;
            let t = kernel.backward_tails()[i];
            let w = kernel.backward_weights()[i];
            grew |= omega.relax_edge(t as usize, v.index(), w, false);
        }
        if grew && !is_raised[v.index()] {
            is_raised[v.index()] = true;
            raised_list.push(v);
        }
    }
    {
        let (t, h, w, forward) = kernel.edge(new_edge);
        if omega.relax_edge(t as usize, h as usize, w, forward) {
            let hv = VertexId::from_index(h as usize);
            if !is_raised[hv.index()] {
                raised_list.push(hv);
                is_raised[hv.index()] = true;
            }
            if !in_queue[hv.index()] {
                in_queue[hv.index()] = true;
                queue.push_back(hv);
            }
        }
    }
    while let Some(v) = queue.pop_front() {
        in_queue[v.index()] = false;
        pops[v.index()] += 1;
        if pops[v.index()] > cap {
            return Err(ScheduleError::Inconsistent {
                iterations: kernel.n_backward_edges() + 1,
            });
        }
        let (heads, weights, forward) = kernel.out_edges(v.index());
        for (k, &h) in heads.iter().enumerate() {
            if omega.relax_edge(v.index(), h as usize, weights[k], forward[k]) {
                let u = VertexId::from_index(h as usize);
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

fn run(
    graph: &ConstraintGraph,
    sets: AnchorSetFamily,
    trace: Option<&mut Vec<IterationTrace>>,
) -> Result<RelativeSchedule, ScheduleError> {
    let dense = vec![0; graph.n_vertices() * sets.n_anchors()];
    run_from(graph, sets, dense, trace)
}

/// The reference fixpoint over the run-local dense scratch `data`
/// (`data[v * |A| + i]`, seeded by the caller; untracked slots are never
/// read), packed into the result — and into each traced snapshot.
fn run_from(
    graph: &ConstraintGraph,
    sets: AnchorSetFamily,
    mut data: Vec<i64>,
    mut trace: Option<&mut Vec<IterationTrace>>,
) -> Result<RelativeSchedule, ScheduleError> {
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
// CSR kernel execution
//
// The fixpoint above interleaves all anchor columns through the mutable
// adjacency lists. The kernel path runs the *same* iteration — identical
// per-iteration states, hence identical offsets, iteration counts and
// error values — as linear passes over a [`ScheduleKernel`] snapshot.
//
// The offset matrix is partitioned into contiguous **anchor-column
// tiles**, each stored vertex-major (`tile[v * width + j]` is column
// `lo + j` at vertex `v` — the serial path uses one tile covering every
// column, which is exactly the `RelativeSchedule` layout, in place).
// Per iteration (one *round*):
//
// 1. per tile: one topological forward sweep (`IncrementalOffset`) —
//    each forward CSR row is read once and relaxes all of the tile's
//    *dirty* columns, so the edge structure is traversed once per tile,
//    not once per column;
// 2. per tile: flag the backward edges any of its dirty columns violate;
// 3. joined: OR the per-tile flags into one violation list in EdgeId
//    order — exactly `find_violations`' list, since it records an edge
//    once if *any* column violates it;
// 4. per tile: `ReadjustOffsets` over that joint list (a non-violated
//    column's readjustment is a no-op, as in the reference), recording
//    which columns actually changed.
//
// **Frontier compaction.** A column whose readjustment changed nothing
// is at its global fixpoint and retires permanently: the sweep already
// computed its complete forward closure (offsets only depend on the
// column's own values — columns never interact), and "unchanged under
// readjust" means no backward edge was violated in that column, since a
// violated edge's head is below `tail + w` and readjusting it raises the
// head. Its values never move again (only a column's own sweeps and
// readjusts write it), so dropping it from later sweeps and scans
// removes no state change and no violation flag — every later joint
// list, iterate, and the iteration count are bit-identical to the
// full-iteration kernel and to the reference. Late rounds therefore
// cost O(V · dirty) instead of O(V · A). `FixpointTuning::
// full_iteration` keeps every column live for differential tests.
//
// **Work stealing.** Multi-worker runs split the columns into ~4 tiles
// per worker. Each round's live tiles form a task list served by a
// shared injector cursor; workers park surplus claims in per-worker
// Chase–Lev deques ([`StealDeque`]) and idle workers steal from busy
// ones instead of waiting at a static chunk barrier. Steps 1, 2 and 4
// write only a tile's own columns (each tile is executed by exactly one
// worker per phase — a mutex hands it over), so the schedule of tiles
// onto workers cannot change any state; step 3 is an order-independent
// OR. That is the determinism argument: every iterate equals the
// reference bit for bit, for any worker count and any steal order.
// ---------------------------------------------------------------------------

/// Serial fallback threshold: a parallel run must give every worker at
/// least this many anchor columns, otherwise phase-coordination overhead
/// dominates the per-tile work (measured on the bench designs: a 2-thread
/// run over fig10's 2 columns paid ~25x over serial) and the run stays on
/// the single-tile in-place path.
pub const MIN_COLUMNS_PER_WORKER: usize = 48;

/// Hardware parallelism, resolved once per process.
/// `available_parallelism` is *not* cheap on Linux — it re-reads the
/// cgroup cpu quota files on every call, microseconds that would land
/// on every single-threaded `schedule()` of a small design.
fn hardware_workers() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Resolves the worker count the fixpoint will actually use: `requested`
/// clamped to available hardware parallelism, then reduced so every
/// worker owns at least [`MIN_COLUMNS_PER_WORKER`] of the `n_columns`
/// anchor columns (small designs run serial regardless of the request).
pub fn effective_workers(requested: usize, n_columns: usize) -> usize {
    if requested <= 1 {
        return 1;
    }
    let req = requested.min(hardware_workers());
    if req <= 1 {
        return 1;
    }
    req.min(n_columns / MIN_COLUMNS_PER_WORKER).max(1)
}

/// Tuning knobs of the kernel fixpoint. Every combination produces
/// bit-identical schedules; the knobs only trade wall-clock and are
/// exposed so benches and differential tests can pin a specific path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixpointTuning {
    /// Worker threads requested; the policy ([`effective_workers`]) may
    /// clamp this down unless `force_parallel` is set.
    pub workers: usize,
    /// Bypass the hardware and columns-per-worker clamps and run the
    /// stealing executor with exactly `workers` workers — the test/bench
    /// entry for exercising the parallel machinery on small graphs.
    pub force_parallel: bool,
    /// Drop quiesced columns out of later rounds (see the module
    /// comment); `false` retains the full-iteration kernel.
    pub compact_frontier: bool,
}

impl FixpointTuning {
    /// The production policy: `workers` requested, heuristics on,
    /// frontier compaction on.
    pub fn threaded(workers: usize) -> FixpointTuning {
        FixpointTuning {
            workers,
            force_parallel: false,
            compact_frontier: true,
        }
    }

    /// Exactly `workers` stealing workers, no fallback heuristics.
    pub fn forced(workers: usize) -> FixpointTuning {
        FixpointTuning {
            workers,
            force_parallel: true,
            compact_frontier: true,
        }
    }

    /// Same run with frontier compaction disabled.
    #[must_use]
    pub fn full_iteration(mut self) -> FixpointTuning {
        self.compact_frontier = false;
        self
    }
}

impl Default for FixpointTuning {
    fn default() -> FixpointTuning {
        FixpointTuning::threaded(1)
    }
}

/// Process-wide fixpoint telemetry cells (relaxed; monotonic).
struct CounterCells {
    runs: AtomicU64,
    parallel_runs: AtomicU64,
    serial_fallbacks: AtomicU64,
    rounds: AtomicU64,
    columns_retired: AtomicU64,
    steals: AtomicU64,
}

static COUNTERS: CounterCells = CounterCells {
    runs: AtomicU64::new(0),
    parallel_runs: AtomicU64::new(0),
    serial_fallbacks: AtomicU64::new(0),
    rounds: AtomicU64::new(0),
    columns_retired: AtomicU64::new(0),
    steals: AtomicU64::new(0),
};

/// A snapshot of the process-wide kernel fixpoint counters — monotonic
/// since process start, shared by every session and batch request, so a
/// saturation run can watch fixpoint behavior in production (the serve
/// `stats` op surfaces this next to the cache block).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Fixpoint runs driven through the kernel (serial or parallel).
    pub runs: u64,
    /// Runs that fanned tiles over the work-stealing executor.
    pub parallel_runs: u64,
    /// Multi-worker requests that fell back to the serial path
    /// (columns-per-worker below [`MIN_COLUMNS_PER_WORKER`]).
    pub serial_fallbacks: u64,
    /// Fixpoint rounds (sweep + violation scan) executed.
    pub rounds: u64,
    /// Columns retired from the dirty frontier before their run ended.
    pub columns_retired: u64,
    /// Tile executions served from another worker's deque.
    pub steals: u64,
}

/// Reads the process-wide kernel counters (relaxed snapshot).
pub fn kernel_counters() -> KernelCounters {
    KernelCounters {
        runs: COUNTERS.runs.load(Ordering::Relaxed),
        parallel_runs: COUNTERS.parallel_runs.load(Ordering::Relaxed),
        serial_fallbacks: COUNTERS.serial_fallbacks.load(Ordering::Relaxed),
        rounds: COUNTERS.rounds.load(Ordering::Relaxed),
        columns_retired: COUNTERS.columns_retired.load(Ordering::Relaxed),
        steals: COUNTERS.steals.load(Ordering::Relaxed),
    }
}

/// Runs the iterative fixpoint over the kernel on the run-local dense
/// scratch `dense` (`dense[v * |A| + i]`, seeded by the caller; the
/// kernel never reads or writes an untracked slot) and packs the result.
fn kernel_run_from(
    kernel: &ScheduleKernel,
    sets: AnchorSetFamily,
    mut dense: Vec<i64>,
    tuning: FixpointTuning,
) -> Result<RelativeSchedule, ScheduleError> {
    let n = kernel.n_vertices();
    let n_anchors = sets.n_anchors();
    let budget = kernel.n_backward_edges() + 1;
    if n_anchors == 0 {
        // With no columns the first violation scan is vacuously empty.
        return Ok(RelativeSchedule::pack(sets, 1, |_, _| 0));
    }
    COUNTERS.runs.fetch_add(1, Ordering::Relaxed);

    // Column index of each anchor vertex (for the σ_a(a) = 0 base case).
    let mut col_of_vertex = vec![u32::MAX; n];
    for (ai, &a) in sets.anchors().iter().enumerate() {
        col_of_vertex[a.index()] = ai as u32;
    }

    let requested = tuning.workers.max(1);
    let workers = if tuning.force_parallel {
        requested
    } else {
        effective_workers(requested, n_anchors)
    };
    if workers <= 1 {
        if requested > 1 {
            COUNTERS.serial_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        // One tile covering every column: the dense scratch is already
        // tile-major, and the masks are borrowed straight from the
        // family's bitset rows — zero mask copies.
        let iterations = kernel_fixpoint_serial(
            kernel,
            &col_of_vertex,
            sets.all_words(),
            &mut dense,
            n_anchors,
            budget,
            tuning.compact_frontier,
        );
        return match iterations {
            Some(iters) => Ok(RelativeSchedule::from_dense(sets, &dense, iters)),
            None => Err(ScheduleError::Inconsistent { iterations: budget }),
        };
    }
    COUNTERS.parallel_runs.fetch_add(1, Ordering::Relaxed);

    // Tile-major scratch: tile `t` owns columns `[t * per, t * per + w_t)`
    // as an `n × w_t` vertex-major block. ~4 tiles per worker gives the
    // stealing executor imbalance slack without drowning in mask copies.
    let n_tiles = (workers * 4).min(n_anchors);
    let per = n_anchors.div_ceil(n_tiles);
    let mut bounds: Vec<(usize, usize)> = Vec::with_capacity(n_tiles);
    let mut lo = 0;
    while lo < n_anchors {
        let width = per.min(n_anchors - lo);
        bounds.push((lo, width));
        lo += width;
    }
    let mut data = vec![0i64; n_anchors * n];
    let mut off = 0;
    for &(lo, width) in &bounds {
        for vi in 0..n {
            let src = vi * n_anchors + lo;
            let dst = off + vi * width;
            data[dst..dst + width].copy_from_slice(&dense[src..src + width]);
        }
        off += n * width;
    }
    drop(dense);

    let iterations = kernel_fixpoint_parallel(
        kernel,
        &sets,
        &col_of_vertex,
        &bounds,
        &mut data,
        budget,
        workers,
        tuning.compact_frontier,
    );
    match iterations {
        Some(iters) => {
            // Column `i` of vertex `v` sits at `base + v * width` in the
            // tile-major scratch: `(base, width)` per column, found once.
            let mut place = Vec::with_capacity(n_anchors);
            for &(lo, width) in &bounds {
                place.extend((0..width).map(|j| (n * lo + j, width)));
            }
            Ok(RelativeSchedule::pack(sets, iters, |v, i| {
                let (base, width) = place[i];
                data[base + v * width]
            }))
        }
        None => Err(ScheduleError::Inconsistent { iterations: budget }),
    }
}

/// Chunk-local column masks: for each vertex, `width.div_ceil(64)` words
/// whose bit `j` is set iff the vertex tracks column `lo + j`. For the
/// single-chunk case (`lo = 0`, full width) this is a straight copy of
/// the family's bitset rows; chunks at a non-zero `lo` stitch each word
/// from two adjacent row words.
fn chunk_masks(sets: &AnchorSetFamily, n: usize, lo: usize, width: usize) -> Vec<u64> {
    let words = width.div_ceil(64).max(1);
    let mut masks = vec![0u64; n * words];
    for vi in 0..n {
        let row = sets.row_words(VertexId::from_index(vi));
        let dst = &mut masks[vi * words..(vi + 1) * words];
        for (k, slot) in dst.iter_mut().enumerate() {
            let base = lo + 64 * k;
            let shift = base % 64;
            let mut word = row.get(base / 64).copied().unwrap_or(0) >> shift;
            if shift != 0 {
                word |= row.get(base / 64 + 1).copied().unwrap_or(0) << (64 - shift);
            }
            let rem = width - 64 * k;
            if rem < 64 {
                word &= (1u64 << rem) - 1;
            }
            *slot = word;
        }
    }
    masks
}

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

/// Population count of a word slice.
fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// Expands a bitset into an ascending index list (reusing `out`).
fn bits_to_list(words: &[u64], out: &mut Vec<u32>) {
    out.clear();
    for (k, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            out.push(((k << 6) | bits.trailing_zeros() as usize) as u32);
            bits &= bits - 1;
        }
    }
}

/// Sequential driver over one tile spanning every column: sweep + scan,
/// build the violation list, readjust, compact the dirty frontier;
/// `None` when the budget is exhausted.
fn kernel_fixpoint_serial(
    kernel: &ScheduleKernel,
    col_of_vertex: &[u32],
    masks: &[u64],
    data: &mut [i64],
    width: usize,
    budget: usize,
    compact: bool,
) -> Option<usize> {
    let ewords = kernel.n_backward_edges().div_ceil(64).max(1);
    let mut dirty = full_bits(width);
    let mut changed = vec![0u64; dirty.len()];
    let mut viol = vec![0u64; ewords];
    let mut list: Vec<u32> = Vec::new();
    for iter in 1..=budget {
        COUNTERS.rounds.fetch_add(1, Ordering::Relaxed);
        viol.fill(0);
        sweep_tile(kernel, col_of_vertex, 0, width, masks, &dirty, data);
        scan_tile(kernel, width, masks, &dirty, data, &mut viol);
        bits_to_list(&viol, &mut list);
        if list.is_empty() {
            return Some(iter);
        }
        changed.fill(0);
        readjust_tile(kernel, width, masks, &dirty, data, &list, &mut changed);
        if compact {
            let before = popcount(&dirty);
            dirty.copy_from_slice(&changed);
            COUNTERS
                .columns_retired
                .fetch_add(before - popcount(&dirty), Ordering::Relaxed);
        }
    }
    None
}

/// One anchor-column tile: a contiguous column block with its
/// vertex-major data block and per-round scratch. The mutex hands the
/// tile between workers across phases — the injector/deque protocol
/// issues each live tile exactly once per phase, and the lock acquisition
/// is the happens-before edge carrying its state to whichever worker
/// runs it next.
struct TileTask<'a> {
    /// First global column of the tile.
    lo: usize,
    /// Column count.
    width: usize,
    /// Offsets + masks + frontier scratch, locked per execution.
    state: Mutex<TileState<'a>>,
}

/// The mutable per-tile state (see [`TileTask`]).
struct TileState<'a> {
    /// Vertex-major offset block: `data[v * width + j]` is column `lo + j`.
    data: &'a mut [i64],
    /// Stitched per-vertex column masks ([`chunk_masks`]).
    masks: Vec<u64>,
    /// Live (non-quiesced) columns of this tile.
    dirty: Vec<u64>,
    /// Backward-edge violation flags from the tile's last sweep phase.
    viol: Vec<u64>,
    /// Columns the last readjust phase raised.
    changed: Vec<u64>,
}

/// Phase commands broadcast to the crew.
#[derive(Clone)]
enum PhaseCmd {
    /// Sweep + scan every live tile; leave violation flags in the tiles.
    Sweep,
    /// Readjust every live tile over the joint violation list.
    Readjust(Arc<Vec<u32>>),
    /// Tear down the worker threads.
    Stop,
}

/// The work-stealing executor for one parallel fixpoint run.
///
/// Each round the driver publishes a phase (command + live-tile list)
/// under `phase` and workers race a shared injector `cursor` for batches
/// of tile indices; surplus claims park in the claimer's [`StealDeque`]
/// and idle workers steal from busy ones instead of waiting at a static
/// partition barrier. `remaining` counts unfinished tiles of the current
/// phase and `executing` the workers inside it; the driver's
/// [`Crew::begin`] refuses to start the next phase while either is
/// nonzero and workers register in `executing` *under the phase lock*,
/// so a late-waking worker can never run a stale command against a
/// recycled cursor or deque.
struct Crew<'t, 'a> {
    /// All tiles of the run (indexed by the task lists).
    tiles: &'t [TileTask<'a>],
    /// `(epoch, command, live tile list)` of the current phase.
    phase: Mutex<(u64, PhaseCmd, Arc<Vec<u32>>)>,
    /// Signals a new phase.
    start: Condvar,
    /// Injector: next unclaimed index into the phase's task list.
    cursor: AtomicUsize,
    /// Tiles of the current phase not yet executed.
    remaining: AtomicUsize,
    /// Workers currently inside [`Crew::execute`].
    executing: AtomicUsize,
    /// Pairs with `done_cv` for phase-completion waits.
    done: Mutex<()>,
    /// Signals `remaining`/`executing` transitions to zero.
    done_cv: Condvar,
    /// One steal deque per worker.
    deques: Vec<StealDeque>,
    /// Tiles executed off another worker's deque this run.
    steals: AtomicU64,
}

impl Crew<'_, '_> {
    /// Publishes the next phase. Waits out any straggler still executing
    /// the previous one before recycling the injector (see the struct
    /// comment for why this cannot race a late joiner).
    fn begin(&self, cmd: PhaseCmd, tasks: Arc<Vec<u32>>) {
        loop {
            let mut phase = self.phase.lock().unwrap_or_else(|e| e.into_inner());
            if self.executing.load(Ordering::SeqCst) == 0 {
                self.cursor.store(0, Ordering::SeqCst);
                self.remaining.store(tasks.len(), Ordering::SeqCst);
                phase.0 += 1;
                phase.1 = cmd;
                phase.2 = tasks;
                drop(phase);
                self.start.notify_all();
                return;
            }
            drop(phase);
            self.wait_done();
        }
    }

    /// Blocks until every tile of the current phase has executed and
    /// every worker has left [`Crew::execute`].
    fn wait_done(&self) {
        let mut guard = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while self.remaining.load(Ordering::SeqCst) > 0 || self.executing.load(Ordering::SeqCst) > 0
        {
            guard = self.done_cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn signal_done(&self) {
        let _guard = self.done.lock().unwrap_or_else(|e| e.into_inner());
        self.done_cv.notify_all();
    }

    /// Claims and executes tiles until neither the injector nor any deque
    /// has work left. The caller must have incremented `executing`
    /// beforehand (workers do so under the phase lock); this method
    /// releases it.
    fn execute(
        &self,
        kernel: &ScheduleKernel,
        col_of_vertex: &[u32],
        me: usize,
        tasks: &[u32],
        cmd: &PhaseCmd,
    ) {
        let n = tasks.len();
        let grab = (n / (self.deques.len() * 4)).clamp(1, 8);
        loop {
            let start = self.cursor.fetch_add(grab, Ordering::SeqCst);
            if start < n {
                let end = (start + grab).min(n);
                for &t in &tasks[start + 1..end] {
                    self.deques[me].push(t);
                }
                self.run_tile(kernel, col_of_vertex, tasks[start] as usize, cmd);
                while let Some(t) = self.deques[me].pop() {
                    self.run_tile(kernel, col_of_vertex, t as usize, cmd);
                }
                continue;
            }
            // Injector drained: sweep the other workers' deques.
            let mut stole = false;
            for (victim, deque) in self.deques.iter().enumerate() {
                if victim == me {
                    continue;
                }
                while let Some(t) = deque.steal() {
                    stole = true;
                    self.steals.fetch_add(1, Ordering::Relaxed);
                    self.run_tile(kernel, col_of_vertex, t as usize, cmd);
                }
            }
            if !stole {
                break;
            }
        }
        if self.executing.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.signal_done();
        }
    }

    /// Runs one phase command on one tile, then retires it from
    /// `remaining`.
    fn run_tile(&self, kernel: &ScheduleKernel, col_of_vertex: &[u32], t: usize, cmd: &PhaseCmd) {
        let tile = &self.tiles[t];
        {
            let mut st = tile.state.lock().unwrap_or_else(|e| e.into_inner());
            let st = &mut *st;
            match cmd {
                PhaseCmd::Sweep => {
                    st.viol.fill(0);
                    sweep_tile(
                        kernel,
                        col_of_vertex,
                        tile.lo,
                        tile.width,
                        &st.masks,
                        &st.dirty,
                        st.data,
                    );
                    scan_tile(
                        kernel,
                        tile.width,
                        &st.masks,
                        &st.dirty,
                        st.data,
                        &mut st.viol,
                    );
                }
                PhaseCmd::Readjust(list) => {
                    st.changed.fill(0);
                    readjust_tile(
                        kernel,
                        tile.width,
                        &st.masks,
                        &st.dirty,
                        st.data,
                        list,
                        &mut st.changed,
                    );
                }
                PhaseCmd::Stop => {}
            }
        }
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.signal_done();
        }
    }
}

/// Worker-thread loop: wait for a new phase epoch, register in
/// `executing` under the phase lock (so [`Crew::begin`] can exclude
/// stragglers), execute it, repeat until [`PhaseCmd::Stop`].
fn crew_worker(crew: &Crew<'_, '_>, kernel: &ScheduleKernel, col_of_vertex: &[u32], me: usize) {
    let mut seen = 0u64;
    loop {
        let (cmd, tasks) = {
            let mut phase = crew.phase.lock().unwrap_or_else(|e| e.into_inner());
            while phase.0 == seen {
                phase = crew.start.wait(phase).unwrap_or_else(|e| e.into_inner());
            }
            seen = phase.0;
            let cmd = phase.1.clone();
            let tasks = Arc::clone(&phase.2);
            if !matches!(cmd, PhaseCmd::Stop) {
                crew.executing.fetch_add(1, Ordering::SeqCst);
            }
            (cmd, tasks)
        };
        if matches!(cmd, PhaseCmd::Stop) {
            return;
        }
        crew.execute(kernel, col_of_vertex, me, &tasks, &cmd);
    }
}

/// Parallel driver: `workers` stealing workers (the caller is one of
/// them) over ~4 tiles per worker; the driver joins violation flags and
/// compacts each tile's frontier between phases. Bit-identical to the
/// sequential driver (see the module comment above). `data` is
/// tile-major with the blocks described by `bounds` laid out back to
/// back.
#[allow(clippy::too_many_arguments)]
fn kernel_fixpoint_parallel(
    kernel: &ScheduleKernel,
    sets: &AnchorSetFamily,
    col_of_vertex: &[u32],
    bounds: &[(usize, usize)],
    data: &mut [i64],
    budget: usize,
    workers: usize,
    compact: bool,
) -> Option<usize> {
    let n = kernel.n_vertices();
    let ewords = kernel.n_backward_edges().div_ceil(64).max(1);
    let n_tiles = bounds.len();

    let mut tiles: Vec<TileTask<'_>> = Vec::with_capacity(n_tiles);
    let mut rest = data;
    for &(lo, width) in bounds {
        let (block, tail) = rest.split_at_mut(width * n);
        rest = tail;
        tiles.push(TileTask {
            lo,
            width,
            state: Mutex::new(TileState {
                data: block,
                masks: chunk_masks(sets, n, lo, width),
                dirty: full_bits(width),
                viol: vec![0u64; ewords],
                changed: vec![0u64; width.div_ceil(64).max(1)],
            }),
        });
    }

    let crew = Crew {
        tiles: &tiles,
        phase: Mutex::new((0, PhaseCmd::Stop, Arc::new(Vec::new()))),
        start: Condvar::new(),
        cursor: AtomicUsize::new(0),
        remaining: AtomicUsize::new(0),
        executing: AtomicUsize::new(0),
        done: Mutex::new(()),
        done_cv: Condvar::new(),
        deques: (0..workers)
            .map(|_| StealDeque::with_capacity(n_tiles.max(1)))
            .collect(),
        steals: AtomicU64::new(0),
    };

    let mut result: Option<usize> = None;
    thread::scope(|s| {
        for me in 1..workers {
            let crew = &crew;
            s.spawn(move || crew_worker(crew, kernel, col_of_vertex, me));
        }
        let mut live: Vec<u32> = (0..n_tiles as u32).collect();
        let mut joint = vec![0u64; ewords];
        let mut list: Vec<u32> = Vec::new();
        for iter in 1..=budget {
            COUNTERS.rounds.fetch_add(1, Ordering::Relaxed);
            let tasks = Arc::new(live.clone());
            crew.begin(PhaseCmd::Sweep, Arc::clone(&tasks));
            crew.executing.fetch_add(1, Ordering::SeqCst);
            crew.execute(kernel, col_of_vertex, 0, &tasks, &PhaseCmd::Sweep);
            crew.wait_done();

            // Joint violation list: OR of the live tiles' flags, in
            // EdgeId order — exactly `find_violations`' list.
            joint.fill(0);
            for &t in &live {
                let st = crew.tiles[t as usize]
                    .state
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                for (k, word) in st.viol.iter().enumerate() {
                    joint[k] |= *word;
                }
            }
            bits_to_list(&joint, &mut list);
            if list.is_empty() {
                result = Some(iter);
                break;
            }

            let shared = Arc::new(list.clone());
            let cmd = PhaseCmd::Readjust(shared);
            crew.begin(cmd.clone(), Arc::clone(&tasks));
            crew.executing.fetch_add(1, Ordering::SeqCst);
            crew.execute(kernel, col_of_vertex, 0, &tasks, &cmd);
            crew.wait_done();

            if compact {
                // A violated edge implies its column changed, so a round
                // that continues always leaves at least one tile live.
                let mut next: Vec<u32> = Vec::with_capacity(live.len());
                let mut retired = 0u64;
                for &t in &live {
                    let mut st = crew.tiles[t as usize]
                        .state
                        .lock()
                        .unwrap_or_else(|e| e.into_inner());
                    let st = &mut *st;
                    let before = popcount(&st.dirty);
                    st.dirty.copy_from_slice(&st.changed);
                    let after = popcount(&st.dirty);
                    retired += before - after;
                    if after > 0 {
                        next.push(t);
                    }
                }
                COUNTERS
                    .columns_retired
                    .fetch_add(retired, Ordering::Relaxed);
                live = next;
            }
        }
        crew.begin(PhaseCmd::Stop, Arc::new(Vec::new()));
    });
    COUNTERS
        .steals
        .fetch_add(crew.steals.load(Ordering::Relaxed), Ordering::Relaxed);
    result
}

/// Disjoint (tail, head) row views into a vertex-major tile. Callers
/// pass rows of distinct vertices (forward edges cannot self-loop — the
/// kernel's topological order exists).
fn two_rows(data: &mut [i64], trow: usize, hrow: usize, width: usize) -> (&[i64], &mut [i64]) {
    if trow < hrow {
        let (lo, hi) = data.split_at_mut(hrow);
        (&lo[trow..trow + width], &mut hi[..width])
    } else {
        let (lo, hi) = data.split_at_mut(trow);
        (&hi[..width], &mut lo[hrow..hrow + width])
    }
}

/// Relaxes `head[j] = max(head[j], tail[j] + w)` for every set bit of
/// `bits` (bit `b` of word `k` is column `64k + b`).
#[inline(always)]
fn relax_word(tail: &[i64], head: &mut [i64], k: usize, mut bits: u64, w: i64) {
    while bits != 0 {
        let j = (k << 6) | bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let cand = tail[j] + w;
        if cand > head[j] {
            head[j] = cand;
        }
    }
}

/// True when any set bit of `bits` names a column violating
/// `head >= tail + w`.
#[inline(always)]
fn violated_word(data: &[i64], trow: usize, hrow: usize, k: usize, mut bits: u64, w: i64) -> bool {
    while bits != 0 {
        let j = (k << 6) | bits.trailing_zeros() as usize;
        bits &= bits - 1;
        if data[hrow + j] < data[trow + j] + w {
            return true;
        }
    }
    false
}

/// `IncrementalOffset` for one tile: a topological longest-path sweep
/// over the forward CSR, relaxing all of the tile's dirty columns per
/// edge. Columns tracked by both endpoints come from the intersection of
/// the endpoint mask rows ANDed against the dirty frontier, so sparse
/// anchor sets and quiesced columns cost one word-AND per 64 columns.
/// The mask words are consumed in groups of four with a combined
/// emptiness test — on x86-64 the compiler turns the group loads and
/// ANDs into 256-bit lanes, and fully-quiesced word groups (the common
/// late-round case) cost one branch. `lo` is the tile's first global
/// column; `col_of_vertex` maps an anchor vertex to its global column
/// for the `σ_a(a) = 0` base case.
fn sweep_tile(
    kernel: &ScheduleKernel,
    col_of_vertex: &[u32],
    lo: usize,
    width: usize,
    masks: &[u64],
    dirty: &[u64],
    data: &mut [i64],
) {
    let words = width.div_ceil(64).max(1);
    for &v in kernel.topo_order() {
        let vi = v as usize;
        let hrow = vi * width;
        let hmask = &masks[vi * words..(vi + 1) * words];
        let (tails, weights) = kernel.forward_in_edges(vi);
        for (&t, &w) in tails.iter().zip(weights) {
            let ti = t as usize;
            let trow = ti * width;
            {
                // For every dirty column tracked by both tail and head:
                // relax.
                let (tail, head) = two_rows(data, trow, hrow, width);
                let tmask = &masks[ti * words..(ti + 1) * words];
                let mut k = 0;
                while k + 4 <= words {
                    let b0 = tmask[k] & hmask[k] & dirty[k];
                    let b1 = tmask[k + 1] & hmask[k + 1] & dirty[k + 1];
                    let b2 = tmask[k + 2] & hmask[k + 2] & dirty[k + 2];
                    let b3 = tmask[k + 3] & hmask[k + 3] & dirty[k + 3];
                    if b0 | b1 | b2 | b3 != 0 {
                        relax_word(tail, head, k, b0, w);
                        relax_word(tail, head, k + 1, b1, w);
                        relax_word(tail, head, k + 2, b2, w);
                        relax_word(tail, head, k + 3, b3, w);
                    }
                    k += 4;
                }
                while k < words {
                    relax_word(tail, head, k, tmask[k] & hmask[k] & dirty[k], w);
                    k += 1;
                }
            }
            // Base case σ_a(a) = 0 (Definition 3 normalization): when the
            // tail is itself an anchor whose column lies in this tile, is
            // still dirty and is tracked at v, the edge contributes
            // `0 + w`. This is what carries a minimum constraint sourced
            // at an anchor (e.g. the source) into its successor's offset;
            // for unbounded edges (w = 0) it is a no-op.
            let a = col_of_vertex[ti] as usize;
            let j = a.wrapping_sub(lo);
            if j < width && dirty[j >> 6] >> (j & 63) & 1 != 0 && hmask[j >> 6] >> (j & 63) & 1 != 0
            {
                let slot = &mut data[hrow + j];
                if w > *slot {
                    *slot = w;
                }
            }
        }
    }
}

/// Flags (sets bits in `viol`, indexed by backward EdgeId) the backward
/// edges any of this tile's dirty columns violate. Same four-word group
/// walk as [`sweep_tile`]; a quiesced column cannot violate (its
/// readjustment was a no-op), so the dirty AND drops no flags.
fn scan_tile(
    kernel: &ScheduleKernel,
    width: usize,
    masks: &[u64],
    dirty: &[u64],
    data: &[i64],
    viol: &mut [u64],
) {
    let words = width.div_ceil(64).max(1);
    let tails = kernel.backward_tails();
    let heads = kernel.backward_heads();
    let weights = kernel.backward_weights();
    'edges: for i in 0..tails.len() {
        let ti = tails[i] as usize;
        let hi = heads[i] as usize;
        let trow = ti * width;
        let hrow = hi * width;
        let toff = ti * words;
        let hoff = hi * words;
        let w = weights[i];
        let mut k = 0;
        while k + 4 <= words {
            let b0 = masks[toff + k] & masks[hoff + k] & dirty[k];
            let b1 = masks[toff + k + 1] & masks[hoff + k + 1] & dirty[k + 1];
            let b2 = masks[toff + k + 2] & masks[hoff + k + 2] & dirty[k + 2];
            let b3 = masks[toff + k + 3] & masks[hoff + k + 3] & dirty[k + 3];
            if b0 | b1 | b2 | b3 != 0 {
                for (kk, bits) in [(k, b0), (k + 1, b1), (k + 2, b2), (k + 3, b3)] {
                    if violated_word(data, trow, hrow, kk, bits, w) {
                        viol[i >> 6] |= 1 << (i & 63);
                        continue 'edges;
                    }
                }
            }
            k += 4;
        }
        while k < words {
            let bits = masks[toff + k] & masks[hoff + k] & dirty[k];
            if violated_word(data, trow, hrow, k, bits, w) {
                viol[i >> 6] |= 1 << (i & 63);
                continue 'edges;
            }
            k += 1;
        }
    }
}

/// `ReadjustOffsets` for one tile over the joint violation list (a
/// non-violated column's readjustment is a no-op, exactly as in the
/// interleaved reference; retired columns are skipped via the dirty AND
/// on the same grounds). Columns actually raised are recorded in
/// `changed` — the next round's dirty frontier.
#[allow(clippy::too_many_arguments)]
fn readjust_tile(
    kernel: &ScheduleKernel,
    width: usize,
    masks: &[u64],
    dirty: &[u64],
    data: &mut [i64],
    list: &[u32],
    changed: &mut [u64],
) {
    let words = width.div_ceil(64).max(1);
    let tails = kernel.backward_tails();
    let heads = kernel.backward_heads();
    let weights = kernel.backward_weights();
    for &i in list {
        let i = i as usize;
        let ti = tails[i] as usize;
        let hi = heads[i] as usize;
        let trow = ti * width;
        let hrow = hi * width;
        let w = weights[i];
        for k in 0..words {
            let mut bits = masks[ti * words + k] & masks[hi * words + k] & dirty[k];
            while bits != 0 {
                let j = (k << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let required = data[trow + j] + w;
                if data[hrow + j] < required {
                    data[hrow + j] = required;
                    changed[k] |= 1 << (j & 63);
                }
            }
        }
    }
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

    /// Warm-started rescheduling converges to the same fixpoint as a cold
    /// run — for additive edits seeding every anchor, for subtractive edits
    /// seeding only the untouched ones.
    #[test]
    fn reschedule_matches_cold_run() {
        let (mut g, a, [_, _, _, _, _, _]) = fig10();
        let before = schedule(&g).unwrap();

        // Additive edit: a new max constraint. All anchors may warm-start.
        let v2 = g
            .vertex_ids()
            .find(|&v| g.vertex(v).name() == "v2")
            .unwrap();
        let e = g.add_max_constraint(v2, g.sink(), 11).unwrap();
        let sets = AnchorSets::compute(&g).unwrap();
        let warm: Vec<VertexId> = sets.family().anchors().to_vec();
        let fast = reschedule(&g, sets.family(), &before, &warm).unwrap();
        let cold = schedule(&g).unwrap();
        for v in g.vertex_ids() {
            for &anchor in cold.anchors() {
                assert_eq!(
                    fast.offset(v, anchor),
                    cold.offset(v, anchor),
                    "σ_{anchor}({v})"
                );
            }
        }

        // Subtractive edit: remove it again. The dirtied anchors (those
        // reaching the edge tail — here all of them) must start cold; an
        // empty warm set is always sound.
        g.remove_edge(e).unwrap();
        let sets = AnchorSets::compute(&g).unwrap();
        let fast = reschedule(&g, sets.family(), &fast, &[]).unwrap();
        let cold = schedule(&g).unwrap();
        for v in g.vertex_ids() {
            for &anchor in cold.anchors() {
                assert_eq!(
                    fast.offset(v, anchor),
                    cold.offset(v, anchor),
                    "σ_{anchor}({v})"
                );
            }
        }
        // Seeding from the exact previous fixpoint (no-op edit) also lands
        // on the same schedule, in one iteration.
        let warm: Vec<VertexId> = sets.family().anchors().to_vec();
        let noop = reschedule(&g, sets.family(), &fast, &warm).unwrap();
        assert_eq!(noop.iterations(), 1);
        for v in g.vertex_ids() {
            for &anchor in cold.anchors() {
                assert_eq!(noop.offset(v, anchor), cold.offset(v, anchor));
            }
        }
        let _ = a;
    }

    /// An unfeasible graph exhausts the warm budget too (the engine's
    /// fallback trigger for re-classification).
    #[test]
    fn reschedule_reports_inconsistent_on_positive_cycle() {
        let mut g = ConstraintGraph::new();
        let x = g.add_operation("x", ExecDelay::Fixed(1));
        let y = g.add_operation("y", ExecDelay::Fixed(1));
        g.add_dependency(x, y).unwrap();
        g.polarize().unwrap();
        let before = schedule(&g).unwrap();
        g.add_min_constraint(x, y, 9).unwrap();
        g.add_max_constraint(x, y, 2).unwrap();
        let sets = AnchorSets::compute(&g).unwrap();
        let warm: Vec<VertexId> = sets.family().anchors().to_vec();
        assert!(matches!(
            reschedule(&g, sets.family(), &before, &warm),
            Err(ScheduleError::Inconsistent { .. })
        ));
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

    /// A changed roster with a mixed warm list (anchors that cannot reach
    /// the edited operation stay warm, the rest and the new anchor start
    /// cold), then an additive edit with every anchor warm.
    #[test]
    fn packed_layout_after_warm_reschedule() {
        let mut mixed = 0;
        for mut g in designs() {
            let prev = schedule(&g).unwrap();
            let Some(v) = g
                .operation_ids()
                .filter(|&v| !g.vertex(v).delay().is_unbounded())
                .nth(3)
            else {
                continue;
            };
            let warm: Vec<VertexId> = prev
                .anchors()
                .iter()
                .copied()
                .filter(|&a| g.longest_paths_from(a).unwrap().length_to(v).is_none())
                .collect();
            mixed += usize::from(!warm.is_empty());
            g.set_delay(v, ExecDelay::Unbounded).unwrap();
            let sets = AnchorSets::compute(&g).unwrap();
            if !matches!(check_well_posed_with(&g, &sets), WellPosedness::WellPosed) {
                continue;
            }
            assert_ne!(sets.anchors(), prev.anchors(), "the roster grew");
            let kernel = ScheduleKernel::build(&g).unwrap();
            let warmed = reschedule_on(&kernel, sets.family(), &prev, &warm, 1).unwrap();
            assert_packed(&warmed, &dense_reference(&g, sets.family()));
            assert_eq!(warmed, schedule_with_sets(&g, sets.family()).unwrap());

            // Same roster, every anchor warm.
            let (s, last) = (g.source(), g.operation_ids().last().unwrap());
            g.add_min_constraint(s, last, 7).unwrap();
            let sets = AnchorSets::compute(&g).unwrap();
            let kernel = ScheduleKernel::build(&g).unwrap();
            let all = sets.anchors().to_vec();
            let rewarmed = reschedule_on(&kernel, sets.family(), &warmed, &all, 1).unwrap();
            assert_packed(&rewarmed, &dense_reference(&g, sets.family()));
        }
        assert!(mixed > 5, "most designs warm some anchors");
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
            for kernel_path in [false, true] {
                let mut g = g.clone();
                let mut sets = AnchorSets::compute(&g).unwrap();
                let id = g.add_dependency(a, v).unwrap();
                let changed = sets.notify_add_edge(&g, id);
                assert!(!changed.is_empty(), "the edge grows {v}'s set");
                if !matches!(check_well_posed_with(&g, &sets), WellPosedness::WellPosed) {
                    continue;
                }
                let mut relaxed = omega.clone();
                if kernel_path {
                    let kernel = ScheduleKernel::build(&g).unwrap();
                    relax_additive_on(&kernel, sets.family(), &mut relaxed, id, &changed).unwrap();
                } else {
                    relax_additive(&g, sets.family(), &mut relaxed, id, &changed).unwrap();
                }
                assert_packed(&relaxed, &dense_reference(&g, sets.family()));
                grown += 1;
            }
        }
        assert!(grown > 10, "most designs take a set-growing edge");
    }
}
