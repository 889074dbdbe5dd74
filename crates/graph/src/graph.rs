use std::fmt;

use crate::error::GraphError;

/// Identifier of a vertex (operation) in a [`ConstraintGraph`].
///
/// Ids are dense indices assigned in insertion order; the source vertex is
/// always id 0 and the sink id 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub(crate) u32);

impl VertexId {
    /// The dense index of this vertex.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `VertexId` from a dense index.
    ///
    /// Only meaningful for indices previously obtained from the same graph.
    pub fn from_index(index: usize) -> Self {
        VertexId(index as u32)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of an edge in a [`ConstraintGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub(crate) u32);

impl EdgeId {
    /// The dense index of this edge.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Execution delay of an operation, in clock cycles.
///
/// Operations are synchronous: a fixed delay is an exact cycle count known
/// at compile time. Synchronization with external events and data-dependent
/// iteration have delays unknown at compile time — *unbounded* delays, which
/// may assume any value in `0..∞` (§II of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecDelay {
    /// Exact delay known at compile time.
    Fixed(u64),
    /// Delay unknown at compile time (external synchronization,
    /// data-dependent loop, procedure of unknown latency).
    Unbounded,
}

impl ExecDelay {
    /// `true` for [`ExecDelay::Unbounded`].
    pub fn is_unbounded(self) -> bool {
        matches!(self, ExecDelay::Unbounded)
    }

    /// The delay value with unbounded delays collapsed to their minimum, 0.
    ///
    /// This is the paper's convention for every static computation
    /// (feasibility, offsets, `length(u, v)`).
    pub fn zeroed(self) -> u64 {
        match self {
            ExecDelay::Fixed(d) => d,
            ExecDelay::Unbounded => 0,
        }
    }
}

impl fmt::Display for ExecDelay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecDelay::Fixed(d) => write!(f, "{d}"),
            ExecDelay::Unbounded => write!(f, "δ(?)"),
        }
    }
}

/// Weight of a constraint-graph edge.
///
/// Sequencing edges out of an anchor `a` carry the symbolic weight `δ(a)`;
/// timing constraints *sourced at* an anchor carry `δ(a) + extra`
/// (completion-relative, the semantics Table II and Fig. 10 of the paper
/// exhibit for constraints out of the source); all other edges carry
/// integer weights (non-negative for forward edges, non-positive for
/// backward edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Weight {
    /// A compile-time-known weight.
    Fixed(i64),
    /// The unbounded execution delay of an anchor, plus a fixed component:
    /// `δ(anchor) + extra`. Pure sequencing edges have `extra = 0`.
    Unbounded {
        /// The anchor whose `δ` this weight depends on.
        anchor: VertexId,
        /// Fixed addend on top of `δ(anchor)` (a minimum timing constraint
        /// sourced at the anchor).
        extra: i64,
    },
}

impl Weight {
    /// The weight with unbounded delays set to 0 (the paper's convention
    /// for all static path computations).
    pub fn zeroed(self) -> i64 {
        match self {
            Weight::Fixed(w) => w,
            Weight::Unbounded { extra, .. } => extra,
        }
    }

    /// `true` if this weight depends on the symbolic delay of an anchor.
    pub fn is_unbounded(self) -> bool {
        matches!(self, Weight::Unbounded { .. })
    }

    /// The anchor whose `δ` this weight depends on, if unbounded.
    pub fn unbounded_anchor(self) -> Option<VertexId> {
        match self {
            Weight::Fixed(_) => None,
            Weight::Unbounded { anchor, .. } => Some(anchor),
        }
    }
}

impl Weight {
    /// Writes the weight to `f`, naming its anchor with `name`;
    /// [`Display`](fmt::Display) names it by id (`δ(v3)`).
    pub fn write_named(
        self,
        f: &mut dyn fmt::Write,
        name: &dyn Fn(VertexId) -> String,
    ) -> fmt::Result {
        match self {
            Weight::Fixed(w) => write!(f, "{w}"),
            Weight::Unbounded { anchor, extra: 0 } => write!(f, "δ({})", name(anchor)),
            Weight::Unbounded { anchor, extra } => write!(f, "δ({})+{extra}", name(anchor)),
        }
    }
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_named(f, &|v| v.to_string())
    }
}

/// The role of an edge, per Table I of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Operation dependency: forward edge `(vi, vj)` weighted `δ(vi)`.
    Sequencing,
    /// Minimum timing constraint `l_ij`: forward edge `(vi, vj)` weighted
    /// `l_ij ≥ 0`.
    MinConstraint,
    /// Maximum timing constraint `u_ij`: backward edge `(vj, vi)` weighted
    /// `-u_ij ≤ 0`.
    MaxConstraint,
}

impl EdgeKind {
    /// `true` for forward edges (members of `E_f`).
    pub fn is_forward(self) -> bool {
        !self.is_backward()
    }

    /// `true` for backward edges (members of `E_b`).
    pub fn is_backward(self) -> bool {
        matches!(self, EdgeKind::MaxConstraint)
    }
}

/// An edge of the constraint graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    pub(crate) from: VertexId,
    pub(crate) to: VertexId,
    pub(crate) weight: Weight,
    pub(crate) kind: EdgeKind,
}

impl Edge {
    /// Tail vertex.
    pub fn from(&self) -> VertexId {
        self.from
    }

    /// Head vertex.
    pub fn to(&self) -> VertexId {
        self.to
    }

    /// Edge weight.
    pub fn weight(&self) -> Weight {
        self.weight
    }

    /// Edge role per Table I.
    pub fn kind(&self) -> EdgeKind {
        self.kind
    }

    /// `true` for forward edges (sequencing or minimum constraint).
    pub fn is_forward(&self) -> bool {
        self.kind.is_forward()
    }

    /// `true` for backward edges (maximum constraints).
    pub fn is_backward(&self) -> bool {
        self.kind.is_backward()
    }
}

/// Index of the outgoing lists in a vertex's `first`/`last` and in the
/// graph's `next`.
const OUT: usize = 0;
/// Index of the incoming list.
const IN: usize = 1;
/// End of an adjacency list.
const NIL: u32 = u32::MAX;

/// A vertex (operation) of the constraint graph, as returned by
/// [`ConstraintGraph::vertex`]: a view of its name and delay that borrows
/// the graph.
#[derive(Debug, Clone, Copy)]
pub struct Vertex<'a> {
    name: &'a str,
    delay: ExecDelay,
}

impl<'a> Vertex<'a> {
    /// Human-readable operation name.
    pub fn name(self) -> &'a str {
        self.name
    }

    /// Execution delay of the operation.
    pub fn delay(self) -> ExecDelay {
        self.delay
    }
}

/// What the graph stores per vertex. The name is not here: it is the
/// span of the graph's `names` arena that ends at `name_end` and starts
/// where the previous vertex's name ends.
#[derive(Debug, Clone)]
struct Slot {
    name_end: usize,
    delay: ExecDelay,
    /// Head and tail of the vertex's outgoing (`[OUT]`) and incoming
    /// (`[IN]`) edge lists, threaded through the graph's `next`; `NIL`
    /// when empty.
    first: [u32; 2],
    last: [u32; 2],
}

/// A polar weighted directed constraint graph `G(V, E)` (§III).
///
/// The graph always contains a *source* vertex (id 0) and a *sink* vertex
/// (id 1). The source models the activation of the sequencing graph and is
/// treated as an unbounded-delay anchor (Definition 2); the sink is a
/// zero-delay no-op. The forward subgraph `G_f = (V, E_f)` is kept acyclic
/// by construction: every mutation that would close a forward cycle is
/// rejected. To make that check cheap the graph also keeps a topological
/// rank of `G_f` (see [`ConstraintGraph::forward_rank`]).
///
/// See the [crate documentation](crate) for a usage example.
#[derive(Debug, Clone)]
pub struct ConstraintGraph {
    vertices: Vec<Slot>,
    /// Every vertex name, concatenated in id order (see [`Slot`]): one
    /// allocation for all names, so building, cloning and dropping a
    /// graph cost no allocation per vertex.
    names: String,
    edges: Vec<Edge>,
    /// Adjacency, parallel to `edges`: `next[OUT][e]` is the edge after
    /// `e` in its tail's outgoing list and `next[IN][e]` the one after it
    /// in its head's incoming list (`NIL` at the end). Every vertex's
    /// edges thus form two singly linked lists in insertion order (forward
    /// star), so building a graph allocates per edge slot, not per vertex
    /// list; in exchange a walk pays one dependent load per edge.
    next: [Vec<u32>; 2],
    /// Tombstones: removed edges stay in `edges` (so surviving [`EdgeId`]s
    /// remain stable and iteration order deterministic) but are skipped by
    /// every iterator and count.
    dead: Vec<bool>,
    n_dead: usize,
    /// The anchor roster in id order, maintained eagerly: only
    /// [`ConstraintGraph::add_operation`] and [`ConstraintGraph::set_delay`]
    /// can change anchor-hood, and vertices are never removed.
    anchors: Vec<VertexId>,
    /// Topological rank of every vertex in `G_f`: distinct, and strictly
    /// increasing along every live forward edge. The source is pinned at 0
    /// and the sink at `u32::MAX` (no forward edge enters the source or
    /// leaves the sink); a new operation takes its own id as rank, so the
    /// operations always share the ranks `2..n`.
    rank: Vec<u32>,
    scratch: RankScratch,
    source: VertexId,
    sink: VertexId,
}

/// Work buffers of the rank upkeep, kept between inserts so re-ranking
/// does not allocate. They carry no graph state between calls: `seen` is
/// all-false and the lists are empty, so a clone starts from fresh ones.
#[derive(Default)]
struct RankScratch {
    seen: Vec<bool>,
    stack: Vec<VertexId>,
    /// Pearce–Kelly's `δF`: reached forward from the new edge's head.
    forward: Vec<VertexId>,
    /// Pearce–Kelly's `δB`: reached backward from the new edge's tail.
    backward: Vec<VertexId>,
    ranks: Vec<u32>,
}

impl RankScratch {
    fn sized(n: usize) -> Self {
        RankScratch {
            seen: vec![false; n],
            ..RankScratch::default()
        }
    }
}

impl Clone for RankScratch {
    fn clone(&self) -> Self {
        RankScratch::default()
    }
}

impl fmt::Debug for RankScratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RankScratch")
    }
}

impl Default for ConstraintGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl ConstraintGraph {
    /// Creates an empty polar graph containing only the source and sink.
    pub fn new() -> Self {
        let mut g = ConstraintGraph {
            vertices: Vec::new(),
            names: String::new(),
            edges: Vec::new(),
            next: [Vec::new(), Vec::new()],
            dead: Vec::new(),
            n_dead: 0,
            anchors: vec![VertexId(0)],
            rank: vec![0, u32::MAX],
            scratch: RankScratch::default(),
            source: VertexId(0),
            sink: VertexId(1),
        };
        g.push_vertex("source", ExecDelay::Unbounded);
        g.push_vertex("sink", ExecDelay::Fixed(0));
        g
    }

    /// Appends a vertex slot and its name to the arena.
    fn push_vertex(&mut self, name: &str, delay: ExecDelay) {
        self.names.push_str(name);
        self.vertices.push(Slot {
            name_end: self.names.len(),
            delay,
            first: [NIL; 2],
            last: [NIL; 2],
        });
    }

    /// The source vertex `v0`.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// The sink vertex `vn`.
    pub fn sink(&self) -> VertexId {
        self.sink
    }

    /// Number of vertices, including source and sink.
    pub fn n_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of live edges (forward and backward).
    pub fn n_edges(&self) -> usize {
        self.edges.len() - self.n_dead
    }

    /// Number of live backward edges `|E_b|` (maximum timing constraints).
    pub fn n_backward_edges(&self) -> usize {
        self.edges().filter(|(_, e)| e.is_backward()).count()
    }

    /// Total edge-id slots ever allocated, live and tombstoned (the
    /// exclusive upper bound on raw [`EdgeId`] indices).
    pub(crate) fn n_all_edge_slots(&self) -> usize {
        self.edges.len()
    }

    /// Adds an operation with the given name and execution delay.
    ///
    /// A fixed delay should not exceed `i64::MAX`: the sequencing edges
    /// out of the operation carry it as a signed weight. Unlike
    /// [`ConstraintGraph::set_delay`] this constructor cannot fail, so a
    /// larger delay is not rejected here; instead every
    /// [`ConstraintGraph::add_dependency`] out of the operation (and so a
    /// [`ConstraintGraph::polarize`] that would link it to the sink)
    /// returns [`GraphError::WeightOverflow`].
    pub fn add_operation(&mut self, name: impl AsRef<str>, delay: ExecDelay) -> VertexId {
        let id = VertexId(self.vertices.len() as u32);
        self.push_vertex(name.as_ref(), delay);
        // Fresh and below the sink's: existing operations hold `2..id`.
        self.rank.push(id.0);
        if delay.is_unbounded() {
            // Ids are assigned in increasing order, so a push keeps the
            // roster sorted.
            self.anchors.push(id);
        }
        id
    }

    /// Looks up a vertex.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this graph.
    pub fn vertex(&self, v: VertexId) -> Vertex<'_> {
        let i = v.index();
        let start = match i {
            0 => 0,
            _ => self.vertices[i - 1].name_end,
        };
        let slot = &self.vertices[i];
        Vertex {
            name: &self.names[start..slot.name_end],
            delay: slot.delay,
        }
    }

    /// The name of `v` for messages: its operation name, or its id
    /// (`v7`) when `v` does not belong to this graph.
    pub fn display_name(&self, v: VertexId) -> String {
        if v.index() < self.vertices.len() {
            self.vertex(v).name().to_owned()
        } else {
            v.to_string()
        }
    }

    /// Looks up an edge.
    ///
    /// # Panics
    ///
    /// Panics if `e` does not belong to this graph.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// Iterates over all vertex ids (source and sink included).
    pub fn vertex_ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertices.len() as u32).map(VertexId)
    }

    /// Iterates over all operation vertex ids (source and sink excluded).
    pub fn operation_ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        (2..self.vertices.len() as u32).map(VertexId)
    }

    /// Iterates over all live edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.dead[i])
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Iterates over the forward edges `E_f`.
    pub fn forward_edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges().filter(|(_, e)| e.is_forward())
    }

    /// Iterates over the backward edges `E_b`.
    pub fn backward_edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges().filter(|(_, e)| e.is_backward())
    }

    /// Outgoing edges of `v` (forward and backward), in insertion order.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.adjacent(v, OUT)
    }

    /// Incoming edges of `v` (forward and backward), in insertion order.
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.adjacent(v, IN)
    }

    fn adjacent(&self, v: VertexId, dir: usize) -> Adjacent<'_> {
        Adjacent {
            edges: &self.edges,
            next_of: &self.next[dir],
            next: self.vertices[v.index()].first[dir],
        }
    }

    /// Forward successors of `v` (heads of forward out-edges).
    pub fn forward_succs(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.out_edges(v)
            .filter(|(_, e)| e.is_forward())
            .map(|(_, e)| e.to)
    }

    /// Forward predecessors of `v` (tails of forward in-edges).
    pub fn forward_preds(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.in_edges(v)
            .filter(|(_, e)| e.is_forward())
            .map(|(_, e)| e.from)
    }

    /// `true` if `v` is an anchor: the source vertex, or any vertex with
    /// unbounded execution delay (Definition 2).
    pub fn is_anchor(&self, v: VertexId) -> bool {
        v == self.source || self.vertices[v.index()].delay.is_unbounded()
    }

    /// All anchors of the graph, in id order. The source is always first.
    ///
    /// The roster is cached and maintained across mutations, so this is a
    /// free borrow rather than a scan-and-allocate.
    pub fn anchors(&self) -> &[VertexId] {
        &self.anchors
    }

    /// Number of anchors `|A|`.
    pub fn n_anchors(&self) -> usize {
        self.anchors.len()
    }

    fn check_vertex(&self, v: VertexId) -> Result<(), GraphError> {
        if v.index() < self.vertices.len() {
            Ok(())
        } else {
            Err(GraphError::UnknownVertex(v))
        }
    }

    /// The topological rank of `v` in `G_f`: `forward_rank(u) <
    /// forward_rank(w)` for every forward edge `(u, w)`, so a forward path
    /// can only climb in rank. Ranks are distinct; the source's is 0 and
    /// the sink's `u32::MAX`. Inserting a forward edge may re-rank other
    /// vertices; removing edges never does.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this graph.
    pub fn forward_rank(&self, v: VertexId) -> u32 {
        self.rank[v.index()]
    }

    /// The vertices in a topological order of `G_f`, read off the rank in
    /// `O(|V|)` without visiting an edge: the source, the operations by
    /// rank, then the sink.
    pub(crate) fn forward_order(&self) -> Vec<VertexId> {
        let n = self.vertices.len();
        let mut order = vec![self.source; n];
        order[n - 1] = self.sink;
        // Operations hold exactly the ranks `2..n`.
        for (v, &r) in self.rank.iter().enumerate().skip(2) {
            order[r as usize - 1] = VertexId(v as u32);
        }
        order
    }

    /// `true` if a directed path of forward edges leads from `a` to `b`.
    ///
    /// This is the paper's predecessor relation: `a ∈ pred(b)` in `G_f`.
    /// `a` is not considered its own predecessor. Answers `false` at once
    /// unless `a` ranks below `b`, and otherwise searches only the
    /// vertices ranked between them.
    pub fn has_forward_path(&self, a: VertexId, b: VertexId) -> bool {
        let (lo, hi) = (self.rank[a.index()], self.rank[b.index()]);
        if lo >= hi {
            return false;
        }
        let mut s = RankScratch::sized(self.vertices.len());
        self.sweep(&mut s, a, true, (lo, hi), b)
    }

    /// Depth-first search of `G_f` from `start` — along forward edges when
    /// `forward`, against them otherwise — through the vertices ranked
    /// strictly inside `window`. Marks every vertex it enters in `s.seen`
    /// and lists it in `s.forward` (or `s.backward`); returns `true` as
    /// soon as an edge leads to `target`.
    fn sweep(
        &self,
        s: &mut RankScratch,
        start: VertexId,
        forward: bool,
        window: (u32, u32),
        target: VertexId,
    ) -> bool {
        let region = if forward {
            &mut s.forward
        } else {
            &mut s.backward
        };
        s.seen[start.index()] = true;
        region.push(start);
        s.stack.push(start);
        let dir = if forward { OUT } else { IN };
        while let Some(u) = s.stack.pop() {
            for (_, edge) in self.adjacent(u, dir) {
                if edge.is_backward() {
                    continue;
                }
                let w = if forward { edge.to } else { edge.from };
                if w == target {
                    s.stack.clear();
                    return true;
                }
                let r = self.rank[w.index()];
                if window.0 < r && r < window.1 && !s.seen[w.index()] {
                    s.seen[w.index()] = true;
                    region.push(w);
                    s.stack.push(w);
                }
            }
        }
        false
    }

    /// Re-ranks `G_f` to admit a new forward edge `(from, to)`, or returns
    /// `false`, leaving the rank unchanged, when `to` already reaches
    /// `from` (the edge would close a forward cycle).
    ///
    /// Pearce & Kelly's dynamic topological order: nothing moves unless
    /// `from` outranks `to`. Then only the affected region moves — `δF`,
    /// the vertices `to` reaches ranked below `from`, and `δB`, the
    /// vertices reaching `from` ranked above `to`. The region's own ranks
    /// are dealt back out, `δB` first, each side keeping its relative
    /// order. The cost is bounded by the edges incident to the region, not
    /// by the graph.
    fn rank_forward_edge(&mut self, from: VertexId, to: VertexId) -> bool {
        let (lo, hi) = (self.rank[to.index()], self.rank[from.index()]);
        if hi < lo {
            return true;
        }
        let mut s = std::mem::take(&mut self.scratch);
        s.seen.resize(self.vertices.len(), false);
        let cycle = self.sweep(&mut s, to, true, (lo, hi), from);
        if !cycle {
            // Disjoint from δF: a vertex in both would put `from` within
            // the forward search's reach.
            let reached = self.sweep(&mut s, from, false, (lo, hi), to);
            debug_assert!(!reached, "δB reached the head of an acyclic insert");
            let rank = &mut self.rank;
            s.forward.sort_unstable_by_key(|v| rank[v.index()]);
            s.backward.sort_unstable_by_key(|v| rank[v.index()]);
            s.ranks
                .extend(s.backward.iter().chain(&s.forward).map(|v| rank[v.index()]));
            s.ranks.sort_unstable();
            for (v, &r) in s.backward.iter().chain(&s.forward).zip(&s.ranks) {
                rank[v.index()] = r;
            }
        }
        for v in s.forward.drain(..).chain(s.backward.drain(..)) {
            s.seen[v.index()] = false;
        }
        s.ranks.clear();
        self.scratch = s;
        !cycle
    }

    /// Rebuilds the edge storage (and adjacency) from the given edges.
    /// Used by the transitive-reduction pass; edge ids are reassigned.
    ///
    /// `edges` must be a subset of the live edges: removing forward edges
    /// keeps the rank valid, so it is not touched.
    pub(crate) fn replace_edges(&mut self, edges: Vec<Edge>) {
        debug_assert!(edges
            .iter()
            .all(|e| e.is_backward() || self.rank[e.from.index()] < self.rank[e.to.index()]));
        self.edges.clear();
        self.next[OUT].clear();
        self.next[IN].clear();
        self.dead.clear();
        self.n_dead = 0;
        for v in &mut self.vertices {
            v.first = [NIL; 2];
            v.last = [NIL; 2];
        }
        for e in edges {
            self.push_edge(e);
        }
    }

    /// Appends `edge` and links it at the tail of its endpoints' lists.
    fn push_edge(&mut self, edge: Edge) -> EdgeId {
        let id = self.edges.len() as u32;
        for (dir, v) in [(OUT, edge.from), (IN, edge.to)] {
            let vertex = &mut self.vertices[v.index()];
            let next = &mut self.next[dir];
            match vertex.last[dir] {
                NIL => vertex.first[dir] = id,
                last => next[last as usize] = id,
            }
            vertex.last[dir] = id;
            next.push(NIL);
        }
        self.edges.push(edge);
        self.dead.push(false);
        EdgeId(id)
    }

    /// Unlinks edge `e` from `v`'s `dir` list: O(position in the list).
    fn unlink(&mut self, v: VertexId, dir: usize, e: u32) {
        let vertex = &mut self.vertices[v.index()];
        let links = &mut self.next[dir];
        let after = links[e as usize];
        let mut prev = NIL;
        let mut at = vertex.first[dir];
        while at != e {
            prev = at;
            at = links[at as usize];
        }
        match prev {
            NIL => vertex.first[dir] = after,
            prev => links[prev as usize] = after,
        }
        if vertex.last[dir] == e {
            vertex.last[dir] = prev;
        }
    }

    /// `true` if `e` names a live edge of this graph.
    pub fn is_live_edge(&self, e: EdgeId) -> bool {
        e.index() < self.edges.len() && !self.dead[e.index()]
    }

    /// Removes an edge, returning a copy of it.
    ///
    /// The removal is a tombstone: every other edge keeps its [`EdgeId`]
    /// and the relative iteration order of surviving edges is unchanged,
    /// so analyses that replay edits stay deterministic. The forward rank
    /// stays valid as it is: dropping an edge only removes constraints.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownEdge`] if `e` is foreign or was already
    /// removed.
    pub fn remove_edge(&mut self, e: EdgeId) -> Result<Edge, GraphError> {
        if !self.is_live_edge(e) {
            return Err(GraphError::UnknownEdge(e));
        }
        let edge = self.edges[e.index()];
        self.dead[e.index()] = true;
        self.n_dead += 1;
        self.unlink(edge.from, OUT, e.0);
        self.unlink(edge.to, IN, e.0);
        Ok(edge)
    }

    /// Changes the execution delay of an operation, re-weighting its
    /// outgoing edges to keep Table I invariants:
    ///
    /// - sequencing edges out of `v` carry `δ(v)` — `Fixed(d)` for a fixed
    ///   delay, the symbolic `Unbounded` weight for an anchor;
    /// - minimum constraints sourced at `v` keep their separation `l` but
    ///   switch between `Fixed(l)` and the completion-relative
    ///   `δ(v) + l` form;
    /// - maximum constraints are delay-independent and are left alone.
    ///
    /// Returns `true` when the delay (and hence possibly the anchor set)
    /// actually changed, `false` for a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownVertex`] for a foreign id,
    /// [`GraphError::ImmutableVertex`] for the source or sink, and
    /// [`GraphError::WeightOverflow`] for a fixed delay above `i64::MAX`.
    pub fn set_delay(&mut self, v: VertexId, delay: ExecDelay) -> Result<bool, GraphError> {
        self.check_vertex(v)?;
        if v == self.source || v == self.sink {
            return Err(GraphError::ImmutableVertex(v));
        }
        if self.vertices[v.index()].delay == delay {
            return Ok(false);
        }
        let weight = match delay {
            ExecDelay::Fixed(d) => Weight::Fixed(checked_weight(d)?),
            ExecDelay::Unbounded => Weight::Unbounded {
                anchor: v,
                extra: 0,
            },
        };
        let was_anchor = self.vertices[v.index()].delay.is_unbounded();
        self.vertices[v.index()].delay = delay;
        if delay.is_unbounded() != was_anchor {
            if delay.is_unbounded() {
                let pos = self.anchors.partition_point(|&a| a < v);
                self.anchors.insert(pos, v);
            } else {
                self.anchors.retain(|&a| a != v);
            }
        }
        let mut e = self.vertices[v.index()].first[OUT];
        while e != NIL {
            let edge = &mut self.edges[e as usize];
            e = self.next[OUT][e as usize];
            match edge.kind {
                EdgeKind::Sequencing => edge.weight = weight,
                EdgeKind::MinConstraint => {
                    let min = edge.weight.zeroed();
                    edge.weight = match delay {
                        ExecDelay::Fixed(_) => Weight::Fixed(min),
                        ExecDelay::Unbounded => Weight::Unbounded {
                            anchor: v,
                            extra: min,
                        },
                    };
                }
                EdgeKind::MaxConstraint => {}
            }
        }
        Ok(true)
    }

    /// Adds a sequencing dependency `(from, to)` with weight `δ(from)`
    /// (Table I, row 1).
    ///
    /// The weight is `Fixed(d)` for a fixed-delay tail and the symbolic
    /// `Unbounded(from)` for an anchor tail (including the source).
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is unknown, if `from == to`, if
    /// `from` has a fixed delay above `i64::MAX`
    /// ([`GraphError::WeightOverflow`]), if the edge would point into the
    /// source or out of the sink, or if it would close a cycle in `G_f`.
    pub fn add_dependency(&mut self, from: VertexId, to: VertexId) -> Result<EdgeId, GraphError> {
        self.check_vertex(from)?;
        self.check_vertex(to)?;
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        let weight = match self.vertices[from.index()].delay {
            ExecDelay::Fixed(d) => Weight::Fixed(checked_weight(d)?),
            ExecDelay::Unbounded => Weight::Unbounded {
                anchor: from,
                extra: 0,
            },
        };
        if to == self.source || from == self.sink {
            return Err(GraphError::Polarity { from, to });
        }
        if !self.rank_forward_edge(from, to) {
            return Err(GraphError::ForwardCycle { from, to });
        }
        Ok(self.push_edge(Edge {
            from,
            to,
            weight,
            kind: EdgeKind::Sequencing,
        }))
    }

    /// Adds a minimum timing constraint: `σ(to) ≥ σ(from) + min` — a
    /// forward edge `(from, to)` with weight `min` (Table I, row 2).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::ContradictsDependencies`] if a dependency path
    /// already runs `to -> from` (the paper deems such constraints invalid;
    /// an `l = 0` constraint in that situation should instead be expressed
    /// as `add_max_constraint(to, from, 0)`), [`GraphError::WeightOverflow`]
    /// if `min` exceeds `i64::MAX`, plus the same structural errors as
    /// [`ConstraintGraph::add_dependency`].
    pub fn add_min_constraint(
        &mut self,
        from: VertexId,
        to: VertexId,
        min: u64,
    ) -> Result<EdgeId, GraphError> {
        self.check_vertex(from)?;
        self.check_vertex(to)?;
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        let min_weight = checked_weight(min)?;
        if to == self.source || from == self.sink {
            return Err(GraphError::Polarity { from, to });
        }
        if !self.rank_forward_edge(from, to) {
            return Err(GraphError::ContradictsDependencies { from, to, min });
        }
        // A minimum constraint sourced at an anchor is completion-relative:
        // the edge carries `δ(from) + min` (the semantics Table II and
        // Fig. 10 of the paper exhibit for constraints out of the source).
        let weight = if self.is_anchor(from) {
            Weight::Unbounded {
                anchor: from,
                extra: min_weight,
            }
        } else {
            Weight::Fixed(min_weight)
        };
        Ok(self.push_edge(Edge {
            from,
            to,
            weight,
            kind: EdgeKind::MinConstraint,
        }))
    }

    /// Adds a maximum timing constraint: `σ(to) ≤ σ(from) + max` — a
    /// *backward* edge `(to, from)` with weight `-max` (Table I, row 3).
    ///
    /// Note the argument order matches the constraint (`u_{from,to}`), while
    /// the stored edge runs from `to` back to `from`.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is unknown, if `from == to`, or
    /// ([`GraphError::WeightOverflow`]) if `max` exceeds `i64::MAX`.
    pub fn add_max_constraint(
        &mut self,
        from: VertexId,
        to: VertexId,
        max: u64,
    ) -> Result<EdgeId, GraphError> {
        self.check_vertex(from)?;
        self.check_vertex(to)?;
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        let weight = Weight::Fixed(-checked_weight(max)?);
        Ok(self.push_edge(Edge {
            from: to,
            to: from,
            weight,
            kind: EdgeKind::MaxConstraint,
        }))
    }

    /// Connects every operation without forward predecessors to the source
    /// and every operation without forward successors to the sink, making
    /// the forward subgraph polar. Adds a direct `source -> sink` edge when
    /// the graph holds no operations.
    ///
    /// Idempotent: vertices already connected are left alone.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`ConstraintGraph::add_dependency`]. The only
    /// one it can meet is [`GraphError::WeightOverflow`], for an operation
    /// without forward successors whose fixed delay exceeds `i64::MAX`
    /// (accepted by [`ConstraintGraph::add_operation`], refused by
    /// [`ConstraintGraph::from_text`]). It is checked before any edge is
    /// linked, so an error leaves the graph unchanged.
    pub fn polarize(&mut self) -> Result<(), GraphError> {
        let source = self.source;
        let sink = self.sink;
        let ops: Vec<VertexId> = self.operation_ids().collect();
        for &v in &ops {
            if let ExecDelay::Fixed(d) = self.vertices[v.index()].delay {
                if self.forward_succs(v).next().is_none() {
                    checked_weight(d)?;
                }
            }
        }
        for &v in &ops {
            if self.forward_preds(v).next().is_none() {
                self.add_dependency(source, v)?;
            }
        }
        for &v in &ops {
            if self.forward_succs(v).next().is_none() {
                self.add_dependency(v, sink)?;
            }
        }
        if self.forward_preds(sink).next().is_none() {
            self.add_dependency(source, sink)?;
        }
        Ok(())
    }

    /// `true` when the forward subgraph is polar: every vertex is reachable
    /// from the source and reaches the sink.
    pub fn is_polar(&self) -> bool {
        let n = self.vertices.len();
        // Reachability from source.
        let mut down = vec![false; n];
        let mut stack = vec![self.source];
        down[self.source.index()] = true;
        while let Some(u) = stack.pop() {
            for s in self.forward_succs(u) {
                if !down[s.index()] {
                    down[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        // Co-reachability of sink.
        let mut up = vec![false; n];
        let mut stack = vec![self.sink];
        up[self.sink.index()] = true;
        while let Some(u) = stack.pop() {
            for p in self.forward_preds(u) {
                if !up[p.index()] {
                    up[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        down.iter().all(|&b| b) && up.iter().all(|&b| b)
    }
}

/// Iterator over one adjacency list of a vertex; see
/// [`ConstraintGraph::out_edges`] and [`ConstraintGraph::in_edges`].
struct Adjacent<'a> {
    edges: &'a [Edge],
    next_of: &'a [u32],
    next: u32,
}

impl<'a> Iterator for Adjacent<'a> {
    type Item = (EdgeId, &'a Edge);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next == NIL {
            return None;
        }
        let e = self.next as usize;
        self.next = self.next_of[e];
        Some((EdgeId(e as u32), &self.edges[e]))
    }
}

/// `value` as an edge weight, or [`GraphError::WeightOverflow`] when it
/// exceeds `i64::MAX` (an `as` cast would wrap it negative).
fn checked_weight(value: u64) -> Result<i64, GraphError> {
    i64::try_from(value).map_err(|_| GraphError::WeightOverflow(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table I row 1: a sequencing edge carries the tail's execution delay.
    #[test]
    fn table1_sequencing_edge_weight_is_tail_delay() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(3));
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        let e = g.add_dependency(a, b).unwrap();
        let edge = g.edge(e);
        assert_eq!(edge.kind(), EdgeKind::Sequencing);
        assert!(edge.is_forward());
        assert_eq!(edge.weight(), Weight::Fixed(3));
    }

    /// Table I row 1, unbounded tail: weight is the symbolic `δ(a)`.
    #[test]
    fn table1_sequencing_edge_from_anchor_is_unbounded() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("sync", ExecDelay::Unbounded);
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        let e = g.add_dependency(a, b).unwrap();
        assert_eq!(
            g.edge(e).weight(),
            Weight::Unbounded {
                anchor: a,
                extra: 0
            }
        );
        assert_eq!(g.edge(e).weight().zeroed(), 0);
        assert!(g.is_anchor(a));
        assert!(!g.is_anchor(b));
    }

    /// Table I row 2: a minimum constraint is a forward edge of weight `l`.
    #[test]
    fn table1_min_constraint_forward_positive() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(1));
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        let e = g.add_min_constraint(a, b, 5).unwrap();
        let edge = g.edge(e);
        assert_eq!(edge.kind(), EdgeKind::MinConstraint);
        assert_eq!((edge.from(), edge.to()), (a, b));
        assert_eq!(edge.weight(), Weight::Fixed(5));
    }

    /// A minimum constraint sourced at an anchor carries `δ(a) + l`
    /// (completion-relative semantics).
    #[test]
    fn table1_min_constraint_from_anchor_is_unbounded_plus_extra() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("sync", ExecDelay::Unbounded);
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        let e = g.add_min_constraint(a, b, 5).unwrap();
        let edge = g.edge(e);
        assert_eq!(edge.kind(), EdgeKind::MinConstraint);
        assert_eq!(
            edge.weight(),
            Weight::Unbounded {
                anchor: a,
                extra: 5
            }
        );
        assert_eq!(edge.weight().zeroed(), 5);
        // Constraints from the source behave the same way.
        let e = g.add_min_constraint(g.source(), b, 3).unwrap();
        assert_eq!(
            g.edge(e).weight(),
            Weight::Unbounded {
                anchor: g.source(),
                extra: 3
            }
        );
    }

    /// Table I row 3: a maximum constraint `u_ij` is a *backward* edge
    /// `(vj, vi)` of weight `-u`.
    #[test]
    fn table1_max_constraint_backward_negative() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(1));
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        let e = g.add_max_constraint(a, b, 4).unwrap();
        let edge = g.edge(e);
        assert_eq!(edge.kind(), EdgeKind::MaxConstraint);
        assert!(edge.is_backward());
        assert_eq!((edge.from(), edge.to()), (b, a));
        assert_eq!(edge.weight(), Weight::Fixed(-4));
    }

    #[test]
    fn source_is_unbounded_anchor_and_sink_is_not() {
        let g = ConstraintGraph::new();
        assert!(g.is_anchor(g.source()));
        assert!(!g.is_anchor(g.sink()));
        assert_eq!(g.vertex(g.source()).delay(), ExecDelay::Unbounded);
        assert_eq!(g.vertex(g.sink()).delay(), ExecDelay::Fixed(0));
    }

    #[test]
    fn forward_cycle_rejected() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(1));
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap();
        assert_eq!(
            g.add_dependency(b, a),
            Err(GraphError::ForwardCycle { from: b, to: a })
        );
    }

    #[test]
    fn min_constraint_against_dependency_rejected() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(1));
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap();
        assert_eq!(
            g.add_min_constraint(b, a, 2),
            Err(GraphError::ContradictsDependencies {
                from: b,
                to: a,
                min: 2
            })
        );
        // The equivalent max constraint is the accepted formulation.
        assert!(g.add_max_constraint(b, a, 0).is_ok());
    }

    #[test]
    fn self_loops_rejected() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(1));
        assert_eq!(g.add_dependency(a, a), Err(GraphError::SelfLoop(a)));
        assert_eq!(g.add_min_constraint(a, a, 1), Err(GraphError::SelfLoop(a)));
        assert_eq!(g.add_max_constraint(a, a, 1), Err(GraphError::SelfLoop(a)));
    }

    #[test]
    fn polarity_enforced_on_forward_edges() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(1));
        let source = g.source();
        let sink = g.sink();
        assert!(matches!(
            g.add_dependency(a, source),
            Err(GraphError::Polarity { .. })
        ));
        assert!(matches!(
            g.add_dependency(sink, a),
            Err(GraphError::Polarity { .. })
        ));
    }

    #[test]
    fn polarize_connects_dangling_operations() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(1));
        let b = g.add_operation("b", ExecDelay::Fixed(2));
        g.add_dependency(a, b).unwrap();
        assert!(!g.is_polar());
        g.polarize().unwrap();
        assert!(g.is_polar());
        assert!(g.has_forward_path(g.source(), a));
        assert!(g.has_forward_path(b, g.sink()));
    }

    #[test]
    fn polarize_empty_graph_links_source_to_sink() {
        let mut g = ConstraintGraph::new();
        g.polarize().unwrap();
        assert!(g.is_polar());
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    fn polarize_is_idempotent() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(1));
        g.polarize().unwrap();
        let edges = g.n_edges();
        g.polarize().unwrap();
        assert_eq!(g.n_edges(), edges);
        assert!(g.has_forward_path(g.source(), a));
    }

    #[test]
    fn anchors_are_source_plus_unbounded() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("wait", ExecDelay::Unbounded);
        let _b = g.add_operation("add", ExecDelay::Fixed(1));
        let c = g.add_operation("loop", ExecDelay::Unbounded);
        assert_eq!(g.anchors(), vec![g.source(), a, c]);
        assert_eq!(g.n_anchors(), 3);
    }

    #[test]
    fn unknown_vertex_rejected() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(1));
        let ghost = VertexId(99);
        assert_eq!(
            g.add_dependency(a, ghost),
            Err(GraphError::UnknownVertex(ghost))
        );
    }

    #[test]
    fn remove_edge_tombstones_preserve_ids() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(1));
        let b = g.add_operation("b", ExecDelay::Fixed(2));
        let c = g.add_operation("c", ExecDelay::Fixed(3));
        let e_ab = g.add_dependency(a, b).unwrap();
        let e_bc = g.add_dependency(b, c).unwrap();
        let e_max = g.add_max_constraint(a, c, 9).unwrap();
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.n_backward_edges(), 1);

        let removed = g.remove_edge(e_bc).unwrap();
        assert_eq!((removed.from(), removed.to()), (b, c));
        assert_eq!(g.n_edges(), 2);
        assert!(!g.is_live_edge(e_bc));
        assert!(g.is_live_edge(e_ab) && g.is_live_edge(e_max));
        // Survivors keep their ids and adjacency no longer mentions e_bc.
        assert_eq!(g.edge(e_max).weight(), Weight::Fixed(-9));
        assert!(g.out_edges(b).all(|(id, _)| id != e_bc));
        assert!(g.in_edges(c).all(|(id, _)| id != e_bc));
        assert!(!g.has_forward_path(a, c));
        // Double removal and foreign ids are rejected.
        assert_eq!(g.remove_edge(e_bc), Err(GraphError::UnknownEdge(e_bc)));
        assert_eq!(
            g.remove_edge(EdgeId(42)),
            Err(GraphError::UnknownEdge(EdgeId(42)))
        );
        // A removed dependency can be re-added (new id).
        let e_new = g.add_dependency(b, c).unwrap();
        assert_ne!(e_new, e_bc);
        assert_eq!(g.n_edges(), 3);
    }

    #[test]
    fn set_delay_reweights_outgoing_edges() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(2));
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        let c = g.add_operation("c", ExecDelay::Fixed(1));
        let seq = g.add_dependency(a, b).unwrap();
        let min = g.add_min_constraint(a, c, 5).unwrap();
        let max = g.add_max_constraint(a, b, 7).unwrap();

        // Fixed -> unbounded: a becomes an anchor, δ(a) shows up in both
        // forward weights, the max constraint is untouched.
        assert!(g.set_delay(a, ExecDelay::Unbounded).unwrap());
        assert!(g.is_anchor(a));
        assert_eq!(
            g.edge(seq).weight(),
            Weight::Unbounded {
                anchor: a,
                extra: 0
            }
        );
        assert_eq!(
            g.edge(min).weight(),
            Weight::Unbounded {
                anchor: a,
                extra: 5
            }
        );
        assert_eq!(g.edge(max).weight(), Weight::Fixed(-7));

        // Unbounded -> fixed restores plain weights, keeping the min value.
        assert!(g.set_delay(a, ExecDelay::Fixed(4)).unwrap());
        assert!(!g.is_anchor(a));
        assert_eq!(g.edge(seq).weight(), Weight::Fixed(4));
        assert_eq!(g.edge(min).weight(), Weight::Fixed(5));
        assert_eq!(g.edge(max).weight(), Weight::Fixed(-7));

        // No-op and error cases.
        assert!(!g.set_delay(a, ExecDelay::Fixed(4)).unwrap());
        assert_eq!(
            g.set_delay(g.source(), ExecDelay::Fixed(0)),
            Err(GraphError::ImmutableVertex(g.source()))
        );
        assert_eq!(
            g.set_delay(g.sink(), ExecDelay::Unbounded),
            Err(GraphError::ImmutableVertex(g.sink()))
        );
        assert_eq!(
            g.set_delay(VertexId(99), ExecDelay::Fixed(1)),
            Err(GraphError::UnknownVertex(VertexId(99)))
        );
    }

    #[test]
    fn weights_above_i64_max_are_rejected() {
        const TOP: u64 = i64::MAX as u64;
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(1));
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        let s = g.add_operation("s", ExecDelay::Unbounded);

        // 2^63 - 1 still fits: stored exactly, negated for max constraints.
        let min = g.add_min_constraint(a, b, TOP).unwrap();
        assert_eq!(g.edge(min).weight(), Weight::Fixed(i64::MAX));
        let anchored = g.add_min_constraint(s, b, TOP).unwrap();
        assert_eq!(g.edge(anchored).weight().zeroed(), i64::MAX);
        let max = g.add_max_constraint(a, b, TOP).unwrap();
        assert_eq!(g.edge(max).weight(), Weight::Fixed(-i64::MAX));
        let seq = g.add_dependency(a, s).unwrap();
        assert!(g.set_delay(a, ExecDelay::Fixed(TOP)).unwrap());
        assert_eq!(g.edge(seq).weight(), Weight::Fixed(i64::MAX));

        // 2^63 would wrap negative: rejected, graph untouched.
        let edges = g.n_edges();
        for huge in [TOP + 1, u64::MAX] {
            let overflow = GraphError::WeightOverflow(huge);
            assert_eq!(g.add_min_constraint(a, b, huge), Err(overflow.clone()));
            assert_eq!(g.add_min_constraint(s, b, huge), Err(overflow.clone()));
            assert_eq!(g.add_max_constraint(a, b, huge), Err(overflow.clone()));
            assert_eq!(g.set_delay(a, ExecDelay::Fixed(huge)), Err(overflow));
        }
        assert_eq!(g.n_edges(), edges);
        assert_eq!(g.vertex(a).delay(), ExecDelay::Fixed(TOP));
        assert_eq!(g.edge(seq).weight(), Weight::Fixed(i64::MAX));
        assert!(GraphError::WeightOverflow(TOP + 1)
            .to_string()
            .contains("9223372036854775808"));
    }

    /// `add_operation` takes any fixed delay, but a dependency out of an
    /// operation whose delay does not fit an `i64` is refused instead of
    /// wrapping to a negative weight, before the rank is touched.
    #[test]
    fn dependency_out_of_delay_above_i64_max_is_rejected() {
        const TOP: u64 = i64::MAX as u64;
        for huge in [TOP + 1, u64::MAX] {
            let mut g = ConstraintGraph::new();
            let b = g.add_operation("b", ExecDelay::Fixed(1));
            let a = g.add_operation("a", ExecDelay::Fixed(huge));
            // `a` outranks `b`, so an accepted `a -> b` would re-rank.
            let ranks = [g.forward_rank(a), g.forward_rank(b)];
            assert_eq!(
                g.add_dependency(a, b),
                Err(GraphError::WeightOverflow(huge))
            );
            assert_eq!(g.n_edges(), 0);
            assert_eq!([g.forward_rank(a), g.forward_rank(b)], ranks);
            // Other edges out of `a` do not carry its delay.
            assert!(g.add_min_constraint(a, b, 2).is_ok());
            assert!(g.add_max_constraint(a, b, 3).is_ok());
            // `polarize` cannot link `a` to the sink, and refuses before
            // linking anything else.
            let mut lone = ConstraintGraph::new();
            lone.add_operation("b", ExecDelay::Fixed(1));
            lone.add_operation("a", ExecDelay::Fixed(huge));
            assert_eq!(lone.polarize(), Err(GraphError::WeightOverflow(huge)));
            assert_eq!(lone.n_edges(), 0);
            // Once the delay fits, the dependency goes in.
            assert!(g.set_delay(a, ExecDelay::Fixed(TOP)).unwrap());
            let e = g.add_dependency(a, b).unwrap();
            assert_eq!(g.edge(e).weight(), Weight::Fixed(i64::MAX));
        }
    }

    #[test]
    fn display_impls_are_nonempty() {
        let g = ConstraintGraph::new();
        assert_eq!(g.source().to_string(), "v0");
        assert_eq!(EdgeId(3).to_string(), "e3");
        assert_eq!(ExecDelay::Fixed(7).to_string(), "7");
        assert_eq!(
            Weight::Unbounded {
                anchor: VertexId(2),
                extra: 0
            }
            .to_string(),
            "δ(v2)"
        );
        assert_eq!(
            Weight::Unbounded {
                anchor: VertexId(2),
                extra: 3
            }
            .to_string(),
            "δ(v2)+3"
        );
    }
}
