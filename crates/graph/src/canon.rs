//! Canonical forms for constraint graphs.
//!
//! Two graphs that differ only in operation names, vertex insertion
//! order, edge insertion order, or redundant sequencing edges describe
//! the same scheduling problem and have (after un-relabeling) the same
//! anchor sets, offsets and verdicts. This module computes a *canonical
//! form* — a deterministically relabeled, transitively reduced copy of
//! the graph plus the relabeling permutation — and a stable content hash
//! over its serialization, so schedule results can be content-addressed
//! and shared across equivalent submissions (the serve-path cache in
//! `rsched-cache`).
//!
//! The relabeling is derived from structure only, never from names: a
//! Weisfeiler–Lehman-style signature refinement over the (reduced) graph
//! assigns every vertex a hash of its role, delay and the multiset of
//! (edge kind, weight, neighbor signature) tuples, iterated until the
//! signature partition stops splitting. Operations are then ordered by
//! final signature (ties broken by original index). Vertices the
//! refinement cannot separate are automorphic in practice for this graph
//! class — and a tie broken "wrong" only costs a cache hit, never
//! correctness, because consumers always map results through the
//! permutation computed for the query graph itself.

use crate::graph::{ConstraintGraph, EdgeKind, ExecDelay, VertexId, Weight};

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice.
fn fnv1a_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let mut hash = seed;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Word-level mixer for refinement signatures: one multiply-xor round per
/// word plus a final avalanche (splitmix64-style). Signatures only decide
/// the canonical *order* — a collision costs a cache hit, never
/// correctness, and the content hash over the serialized bytes stays
/// byte-exact FNV-1a — so the mixer is chosen for latency: the byte-serial
/// FNV chain it replaced dominated refinement (eight dependent multiplies
/// per word).
fn mix_words(seed: u64, words: &[u64]) -> u64 {
    let mut hash = seed;
    for &w in words {
        hash = (hash ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        hash ^= hash >> 29;
    }
    hash ^= hash >> 32;
    hash = hash.wrapping_mul(0xd6e8_feb8_6659_fd93);
    hash ^ (hash >> 32)
}

/// The canonical form of a constraint graph.
///
/// Produced by [`ConstraintGraph::canonical_form`]. `graph` is the
/// relabeled, transitively reduced copy; `key` carries the permutation
/// and content hash shared with the rebuild-free
/// [`ConstraintGraph::canonical_key`] path.
#[derive(Debug, Clone)]
pub struct CanonicalForm {
    /// The canonical graph: operations renamed `v2`, `v3`, … in signature
    /// order, redundant sequencing edges removed, edges inserted in
    /// sorted order. Source and sink keep ids 0 and 1.
    pub graph: ConstraintGraph,
    /// The canonical key (permutation, hash, serialization) — identical
    /// to what [`ConstraintGraph::canonical_key`] returns.
    pub key: CanonicalKey,
}

/// The content-addressing part of a canonical form: the relabeling
/// permutation plus a stable serialization and hash of the canonical
/// constraint system.
///
/// Produced by [`ConstraintGraph::canonical_key`] without building the
/// canonical graph itself — this is the hot path for cache probes, where
/// only the key and the permutation are needed to map results between
/// index spaces.
#[derive(Debug, Clone)]
pub struct CanonicalKey {
    /// `perm[original_index] = canonical_index` (a bijection over all
    /// vertices; source and sink map to themselves).
    pub perm: Vec<u32>,
    /// `inv[canonical_index] = original_index` (the inverse of `perm`).
    pub inv: Vec<u32>,
    /// FNV-1a hash of `bytes` — the cache key.
    pub hash: u64,
    /// The canonical serialization: vertex and descriptor counts, delays
    /// in canonical id order, then the sorted constraint descriptors
    /// `(kind, from, to, value)` in the canonical index space. Stored so
    /// exact equality can guard against 64-bit hash collisions.
    pub bytes: Vec<u8>,
}

impl CanonicalKey {
    /// Maps an original vertex id into the canonical index space.
    pub fn to_canonical(&self, v: VertexId) -> VertexId {
        VertexId::from_index(self.perm[v.index()] as usize)
    }

    /// Maps a canonical vertex id back to the original index space.
    pub fn to_original(&self, v: VertexId) -> VertexId {
        VertexId::from_index(self.inv[v.index()] as usize)
    }
}

impl std::ops::Deref for CanonicalForm {
    type Target = CanonicalKey;

    fn deref(&self) -> &CanonicalKey {
        &self.key
    }
}

/// Signature-relevant class of an edge weight: unbounded-ness plus the
/// fixed component. The anchor inside an unbounded weight is always the
/// edge tail (or, for max constraints, absent), so the neighbor signature
/// already accounts for it — embedding the raw id would break label
/// independence.
fn weight_class(w: Weight) -> (u64, i64) {
    match w {
        Weight::Fixed(v) => (0, v),
        Weight::Unbounded { extra, .. } => (1, extra),
    }
}

fn kind_tag(k: EdgeKind) -> u64 {
    match k {
        EdgeKind::Sequencing => 0,
        EdgeKind::MinConstraint => 1,
        EdgeKind::MaxConstraint => 2,
    }
}

/// The refinement state of one key derivation: every vertex's kept
/// incident edges, flattened once, plus buffers reused across rounds.
///
/// Vertex `v`'s edges are `incident[start[v]..start[v + 1]]`, each as its
/// static signature words — kind tagged with the direction,
/// unboundedness, fixed weight — and the neighbor, sorted by those words.
struct Refinement {
    start: Vec<u32>,
    incident: Vec<([u64; 3], u32)>,
    neighbors: Vec<u64>,
    sorted: Vec<u64>,
}

impl Refinement {
    /// Flattens `g`'s incidence lists, hiding edges flagged redundant by
    /// `keep`.
    fn new(g: &ConstraintGraph, keep: &[bool]) -> Refinement {
        let mut start = Vec::with_capacity(g.n_vertices() + 1);
        let mut incident = Vec::with_capacity(2 * g.n_edges());
        let words = |e: &crate::graph::Edge, dir: u64| {
            let (unb, extra) = weight_class(e.weight());
            [(kind_tag(e.kind()) << 1) | dir, unb, extra as u64]
        };
        for v in g.vertex_ids() {
            let from = incident.len();
            start.push(from as u32);
            for (id, e) in g.out_edges(v) {
                if keep[id.index()] {
                    incident.push((words(e, 0), e.to().index() as u32));
                }
            }
            for (id, e) in g.in_edges(v) {
                if keep[id.index()] {
                    incident.push((words(e, 1), e.from().index() as u32));
                }
            }
            incident[from..].sort_unstable_by_key(|&(words, _)| words);
        }
        start.push(incident.len() as u32);
        Refinement {
            start,
            incident,
            neighbors: Vec::new(),
            sorted: Vec::new(),
        }
    }

    /// One refinement round into `next`: every vertex's new signature
    /// hashes its old one with the sorted multiset of its incident-edge
    /// rows `[static words.., neighbor signature]`. Including the old
    /// signature makes rounds strictly refining (classes only split).
    fn round(&mut self, sig: &[u64], next: &mut [u64]) {
        for (v, out) in next.iter_mut().enumerate() {
            let edges = &self.incident[self.start[v] as usize..self.start[v + 1] as usize];
            // The edges are sorted by their static words already; sorting
            // each run of equal words by neighbor signature sorts the rows.
            self.neighbors.clear();
            self.neighbors
                .extend(edges.iter().map(|&(_, nbr)| sig[nbr as usize]));
            let mut run = 0;
            for (i, pair) in edges.windows(2).enumerate() {
                if pair[0].0 != pair[1].0 {
                    self.neighbors[run..=i].sort_unstable();
                    run = i + 1;
                }
            }
            self.neighbors[run..].sort_unstable();
            let mut h = mix_words(FNV_OFFSET, &[sig[v]]);
            for (&([tag, unb, extra], _), &nbr) in edges.iter().zip(&self.neighbors) {
                h = mix_words(h, &[tag, unb, extra, nbr]);
            }
            *out = h;
        }
    }

    /// Number of distinct signatures in `sig`.
    fn distinct(&mut self, sig: &[u64]) -> usize {
        self.sorted.clear();
        self.sorted.extend_from_slice(sig);
        self.sorted.sort_unstable();
        1 + self.sorted.windows(2).filter(|w| w[0] != w[1]).count()
    }
}

impl ConstraintGraph {
    /// Computes the canonical form of this graph: a transitively reduced
    /// copy with operations relabeled into a deterministic,
    /// structure-derived order, plus the permutation between the two
    /// index spaces and a stable FNV-1a content hash of the canonical
    /// serialization.
    ///
    /// The form is invariant under operation renaming, vertex insertion
    /// order, edge insertion order, and redundant sequencing edges
    /// (anything [`ConstraintGraph::reduce_sequencing_edges`] removes).
    /// It is **not** invariant under changes that alter the constraint
    /// system itself — those are different scheduling problems.
    pub fn canonical_form(&self) -> CanonicalForm {
        let (key, descriptors) = self.canonical_parts();
        let n = self.n_vertices();

        // Rebuild in canonical order with canonical names. Going through
        // the public mutation API regenerates every derived weight (δ
        // tags, completion-relative minimums) in the new index space.
        let mut graph = ConstraintGraph::new();
        for slot in 2..n {
            let orig = VertexId::from_index(key.inv[slot] as usize);
            graph.add_operation(format!("v{slot}"), self.vertex(orig).delay());
        }
        for &(kind, from, to, value) in &descriptors {
            let from = VertexId::from_index(from as usize);
            let to = VertexId::from_index(to as usize);
            let result = match kind {
                0 => graph.add_dependency(from, to).map(|_| ()),
                1 => graph.add_min_constraint(from, to, value as u64).map(|_| ()),
                _ => graph.add_max_constraint(from, to, value as u64).map(|_| ()),
            };
            debug_assert!(result.is_ok(), "canonical rebuild mirrors a legal graph");
            let _ = result;
        }

        CanonicalForm { graph, key }
    }

    /// Computes just the content-addressing key of the canonical form —
    /// the permutation, serialization, and hash — without materializing
    /// the canonical graph.
    ///
    /// This is what cache probes use: deciding a hit and mapping a cached
    /// result between index spaces needs only the key, and skipping the
    /// rebuild (every edge re-inserted through the mutation API) keeps
    /// the probe far cheaper than a cold schedule run. The key agrees
    /// bit-for-bit with [`ConstraintGraph::canonical_form`]'s.
    pub fn canonical_key(&self) -> CanonicalKey {
        self.canonical_parts().0
    }

    /// Longest edge-count path from a root (`depth_f`) and to a leaf
    /// (`depth_b`) over the kept forward subgraph, via one pass each way
    /// along `order`. Backward (max-constraint) edges are ignored.
    fn forward_depths(&self, keep: &[bool], order: &[VertexId]) -> (Vec<u32>, Vec<u32>) {
        let n = self.n_vertices();
        let mut depth_f = vec![0u32; n];
        let mut depth_b = vec![0u32; n];
        for &v in order {
            for (id, e) in self.out_edges(v) {
                if !keep[id.index()] || !e.is_forward() {
                    continue;
                }
                let cand = depth_f[v.index()] + 1;
                let slot = &mut depth_f[e.to().index()];
                *slot = (*slot).max(cand);
            }
        }
        for &v in order.iter().rev() {
            for (id, e) in self.out_edges(v) {
                if !keep[id.index()] || !e.is_forward() {
                    continue;
                }
                let cand = depth_b[e.to().index()] + 1;
                let slot = &mut depth_b[v.index()];
                *slot = (*slot).max(cand);
            }
        }
        (depth_f, depth_b)
    }

    /// Shared canonicalization pipeline: flag redundant sequencing edges,
    /// refine structural signatures, derive the permutation, and
    /// serialize the sorted descriptor list. Returns the key plus the
    /// descriptors (canonical-space, sorted) for callers that rebuild.
    fn canonical_parts(&self) -> (CanonicalKey, Vec<(u64, u32, u32, i64)>) {
        // One topological order of G_f serves the keep mask and the depths.
        let order = self.forward_order();
        let (keep, _) = self.sequencing_keep_mask(&order);
        let n = self.n_vertices();

        // Structural depths over the kept forward subgraph: longest
        // edge-count path from a root and to a leaf. Label-independent
        // (and invariant under the redundant edges `keep` hides), and
        // they separate positions along chains immediately — pure
        // neighborhood refinement needs one round per hop of distance,
        // which made long periodic chains cost O(|V|) rounds.
        let (depth_f, depth_b) = self.forward_depths(&keep, &order);

        // Initial signatures: role (source/sink/operation), delay, and
        // the two depths.
        let mut sig: Vec<u64> = self
            .vertex_ids()
            .map(|v| {
                let role = match v.index() {
                    0 => 0u64,
                    1 => 1,
                    _ => 2,
                };
                let (tag, delay) = match self.vertex(v).delay() {
                    ExecDelay::Fixed(d) => (0u64, d),
                    ExecDelay::Unbounded => (1, 0),
                };
                mix_words(
                    FNV_OFFSET,
                    &[
                        role,
                        tag,
                        delay,
                        u64::from(depth_f[v.index()]),
                        u64::from(depth_b[v.index()]),
                    ],
                )
            })
            .collect();

        // Refine until the partition stops splitting (or is discrete).
        // Rounds only ever split classes, so an unchanged distinct count
        // means a fixpoint; `n` rounds is a hard upper bound.
        let mut refinement = Refinement::new(self, &keep);
        let mut next = vec![0u64; n];
        let mut distinct = refinement.distinct(&sig);
        for _ in 0..n {
            if distinct == n {
                break;
            }
            refinement.round(&sig, &mut next);
            std::mem::swap(&mut sig, &mut next);
            let d = refinement.distinct(&sig);
            if d == distinct {
                break;
            }
            distinct = d;
        }

        // Canonical operation order: by signature, ties by original index
        // (automorphic ties produce the same canonical graph either way).
        let mut ops: Vec<u32> = (2..n as u32).collect();
        ops.sort_by_key(|&i| (sig[i as usize], i));
        let mut perm = vec![0u32; n];
        perm[1] = 1;
        for (slot, &orig) in ops.iter().enumerate() {
            perm[orig as usize] = (slot + 2) as u32;
        }
        let mut inv = vec![0u32; n];
        for (orig, &canon) in perm.iter().enumerate() {
            inv[canon as usize] = orig as u32;
        }

        // Edge descriptors in the canonical space, sorted for a
        // deterministic serialization (and, when rebuilding, insertion
        // order and hence edge ids / iteration order downstream). Walking
        // the vertices in canonical order yields them sorted by kind and
        // `from` already, so only each vertex's own run needs sorting.
        let mut by_kind: [Vec<(u64, u32, u32, i64)>; 3] = Default::default();
        for (slot, &orig) in inv.iter().enumerate() {
            let v = VertexId::from_index(orig as usize);
            let from = slot as u32;
            let runs = by_kind.each_ref().map(Vec::len);
            for (id, e) in self.out_edges(v) {
                if keep[id.index()] {
                    match e.kind() {
                        EdgeKind::Sequencing => by_kind[0].push((0, from, perm[e.to().index()], 0)),
                        EdgeKind::MinConstraint => {
                            by_kind[1].push((1, from, perm[e.to().index()], e.weight().zeroed()))
                        }
                        EdgeKind::MaxConstraint => {}
                    }
                }
            }
            // Max constraints are stored backward; descriptors use the
            // user-facing (from, to, max) orientation.
            for (id, e) in self.in_edges(v) {
                if keep[id.index()] && e.kind() == EdgeKind::MaxConstraint {
                    by_kind[2].push((2, from, perm[e.from().index()], -e.weight().zeroed()));
                }
            }
            for (descriptors, run) in by_kind.iter_mut().zip(runs) {
                descriptors[run..].sort_unstable();
            }
        }
        let [mut descriptors, mins, maxs] = by_kind;
        descriptors.extend(mins);
        descriptors.extend(maxs);

        let bytes = serialize(self, &inv, &descriptors);
        let hash = fnv1a_bytes(FNV_OFFSET, &bytes);
        (
            CanonicalKey {
                perm,
                inv,
                hash,
                bytes,
            },
            descriptors,
        )
    }
}

/// Serializes a canonical constraint system: vertex and descriptor
/// counts, delays in canonical id order, then the sorted descriptors as
/// `(kind, from, to, value)`. Delays plus the user-facing constraint
/// list determine every derived weight, so this is a complete content
/// address of the canonical graph without building it.
fn serialize(g: &ConstraintGraph, inv: &[u32], descriptors: &[(u64, u32, u32, i64)]) -> Vec<u8> {
    let n = g.n_vertices();
    let mut out = Vec::with_capacity(16 + n * 9 + descriptors.len() * 21);
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(descriptors.len() as u64).to_le_bytes());
    for &slot_orig in inv.iter().take(n) {
        let orig = VertexId::from_index(slot_orig as usize);
        match g.vertex(orig).delay() {
            ExecDelay::Fixed(d) => {
                out.push(0);
                out.extend_from_slice(&d.to_le_bytes());
            }
            ExecDelay::Unbounded => {
                out.push(1);
                out.extend_from_slice(&0u64.to_le_bytes());
            }
        }
    }
    for &(kind, from, to, value) in descriptors {
        out.push(kind as u8);
        out.extend_from_slice(&from.to_le_bytes());
        out.extend_from_slice(&to.to_le_bytes());
        out.extend_from_slice(&value.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::graph::{ConstraintGraph, EdgeKind, ExecDelay};

    /// A small well-posed design built with a caller-chosen insertion
    /// order and name set, to exercise label independence.
    fn build(order: &[usize], names: &[&str]) -> ConstraintGraph {
        // Logical ops 0..4: sync (unbounded), alu (2), mul (3), out (1).
        let delays = [
            ExecDelay::Unbounded,
            ExecDelay::Fixed(2),
            ExecDelay::Fixed(3),
            ExecDelay::Fixed(1),
        ];
        let mut g = ConstraintGraph::new();
        let mut ids = [None; 4];
        for &logical in order {
            ids[logical] = Some(g.add_operation(names[logical], delays[logical]));
        }
        let id = |i: usize| ids[i].unwrap();
        g.add_dependency(id(0), id(1)).unwrap();
        g.add_dependency(id(0), id(2)).unwrap();
        g.add_dependency(id(1), id(3)).unwrap();
        g.add_dependency(id(2), id(3)).unwrap();
        g.add_min_constraint(id(1), id(3), 2).unwrap();
        g.add_max_constraint(id(1), id(3), 7).unwrap();
        g.polarize().unwrap();
        g
    }

    #[test]
    fn canonical_form_ignores_names_and_insertion_order() {
        let a = build(&[0, 1, 2, 3], &["sync", "alu", "mul", "out"]);
        let b = build(&[3, 1, 0, 2], &["zz", "qq", "aa", "mm"]);
        let ca = a.canonical_form();
        let cb = b.canonical_form();
        assert_eq!(ca.hash, cb.hash);
        assert_eq!(ca.bytes, cb.bytes);
        assert_eq!(ca.graph.to_text(), cb.graph.to_text());
    }

    #[test]
    fn canonical_form_ignores_redundant_sequencing_edges() {
        let mut with = build(&[0, 1, 2, 3], &["s", "a", "m", "o"]);
        let without = with.clone();
        // Add an edge implied by s -> a -> o (δ(s)=unbounded start).
        let s = with.vertex_ids().find(|&v| with.vertex(v).name() == "s");
        let o = with.vertex_ids().find(|&v| with.vertex(v).name() == "o");
        with.add_dependency(s.unwrap(), o.unwrap()).unwrap();
        assert_ne!(with.n_edges(), without.n_edges());
        assert_eq!(with.canonical_form().hash, without.canonical_form().hash);
        assert_eq!(with.canonical_form().bytes, without.canonical_form().bytes);
    }

    #[test]
    fn different_weights_hash_differently() {
        let base = build(&[0, 1, 2, 3], &["s", "a", "m", "o"]);
        let mut other = base.clone();
        let a = other
            .vertex_ids()
            .find(|&v| other.vertex(v).name() == "a")
            .unwrap();
        other.set_delay(a, ExecDelay::Fixed(5)).unwrap();
        assert_ne!(base.canonical_form().hash, other.canonical_form().hash);
    }

    #[test]
    fn permutation_is_a_bijection_preserving_structure() {
        let g = build(&[2, 0, 3, 1], &["w", "x", "y", "z"]);
        let c = g.canonical_form();
        assert_eq!(c.perm.len(), g.n_vertices());
        assert_eq!(c.perm[0], 0);
        assert_eq!(c.perm[1], 1);
        let mut seen = vec![false; c.perm.len()];
        for &p in &c.perm {
            assert!(!seen[p as usize], "perm must be injective");
            seen[p as usize] = true;
        }
        for v in g.vertex_ids() {
            assert_eq!(c.to_original(c.to_canonical(v)), v);
            assert_eq!(
                g.vertex(v).delay(),
                c.graph.vertex(c.to_canonical(v)).delay()
            );
        }
        // Every non-redundant original edge survives (canonical graph has
        // at most as many edges, constraints always kept).
        assert_eq!(g.backward_edges().count(), c.graph.backward_edges().count());
    }

    #[test]
    fn empty_and_tiny_graphs_canonicalize() {
        let mut g = ConstraintGraph::new();
        g.polarize().unwrap();
        let c = g.canonical_form();
        assert_eq!(c.graph.n_vertices(), 2);
        let mut h = ConstraintGraph::new();
        h.add_operation("only", ExecDelay::Fixed(1));
        h.polarize().unwrap();
        let ch = h.canonical_form();
        assert_ne!(c.hash, ch.hash);
    }

    #[test]
    fn tombstoned_edges_do_not_break_canonicalization() {
        // remove_edge tombstones: live EdgeId indices then exceed the
        // live-edge count, which once overflowed the per-edge keep mask
        // (sized by n_edges instead of raw id slots) on the serve edit
        // path. The canonical key must also equal that of a graph built
        // without the removed edge in the first place.
        let mut g = build(&[0, 1, 2, 3], &["s", "a", "m", "o"]);
        let a = g.vertex_ids().find(|&v| g.vertex(v).name() == "a").unwrap();
        let o = g.vertex_ids().find(|&v| g.vertex(v).name() == "o").unwrap();
        let min_edge = g
            .edges()
            .find(|(_, e)| e.kind() == EdgeKind::MinConstraint)
            .map(|(id, _)| id)
            .unwrap();
        g.remove_edge(min_edge).unwrap();
        let key = g.canonical_key();
        let mut fresh = build(&[0, 1, 2, 3], &["s", "a", "m", "o"]);
        let fresh_min = fresh
            .edges()
            .find(|(_, e)| e.kind() == EdgeKind::MinConstraint)
            .map(|(id, _)| id)
            .unwrap();
        fresh.remove_edge(fresh_min).unwrap();
        assert_eq!(key.bytes, fresh.canonical_key().bytes);
        // The removed constraint is genuinely gone from the key.
        g.add_min_constraint(a, o, 2).unwrap();
        assert_ne!(key.bytes, g.canonical_key().bytes);
    }

    #[test]
    fn hash_is_stable_across_runs() {
        // Content addressing must be stable across processes and
        // versions of the std hasher: pin a concrete value.
        let g = build(&[0, 1, 2, 3], &["sync", "alu", "mul", "out"]);
        let c1 = g.canonical_form();
        let c2 = g.clone().canonical_form();
        assert_eq!(c1.hash, c2.hash);
        assert!(c1.hash != 0);
    }
}
