//! Model-based test of `ConstraintGraph`'s adjacency lists.
//!
//! Seeded random edit sequences run against the graph and against a plain
//! model that keeps one `Vec<EdgeId>` per vertex and direction. Every
//! edit kind takes part, rejected ones included (cycles, self-loops,
//! polarity, unknown vertices, weight overflow, dead edge ids, immutable
//! vertices), and so does transitive reduction, which renumbers the
//! surviving edges. After every step the graph must list exactly the
//! model's edge ids, in the model's (insertion) order, in both
//! directions; count the model's live edges; keep a valid forward rank;
//! and list that rank's order as its topological order. A clone must
//! match too, and the sequence sometimes carries on with the clone.

use rsched_graph::{ConstraintGraph, Edge, EdgeId, ExecDelay, GraphError, VertexId};

/// SplitMix64: a seeded stream with no dependency on a crate version.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// The adjacency the graph must show: per vertex, the ids of its live
/// outgoing and incoming edges in the order they were added.
#[derive(Default)]
struct Model {
    out: Vec<Vec<EdgeId>>,
    inc: Vec<Vec<EdgeId>>,
    live: usize,
}

impl Model {
    fn add_vertex(&mut self) {
        self.out.push(Vec::new());
        self.inc.push(Vec::new());
    }

    fn add_edge(&mut self, id: EdgeId, e: &Edge) {
        self.out[e.from().index()].push(id);
        self.inc[e.to().index()].push(id);
        self.live += 1;
    }

    fn remove_edge(&mut self, id: EdgeId, e: &Edge) {
        self.out[e.from().index()].retain(|&x| x != id);
        self.inc[e.to().index()].retain(|&x| x != id);
        self.live -= 1;
    }

    /// Applies a renumbering (`None`: dropped) to every list.
    fn renumber(&mut self, new_id: impl Fn(EdgeId) -> Option<EdgeId>) {
        for list in self.out.iter_mut().chain(&mut self.inc) {
            *list = list.iter().filter_map(|&e| new_id(e)).collect();
        }
        self.live = self.out.iter().map(Vec::len).sum();
    }
}

fn check(g: &ConstraintGraph, model: &Model) -> Result<(), String> {
    if g.n_vertices() != model.out.len() {
        return Err(format!(
            "{} vertices, model {}",
            g.n_vertices(),
            model.out.len()
        ));
    }
    if g.n_edges() != model.live {
        return Err(format!("{} edges, model {}", g.n_edges(), model.live));
    }
    for v in g.vertex_ids() {
        let out: Vec<EdgeId> = g.out_edges(v).map(|(id, _)| id).collect();
        let inc: Vec<EdgeId> = g.in_edges(v).map(|(id, _)| id).collect();
        if out != model.out[v.index()] || inc != model.inc[v.index()] {
            return Err(format!(
                "{v}: out {out:?} in {inc:?}, model out {:?} in {:?}",
                model.out[v.index()],
                model.inc[v.index()]
            ));
        }
        for (id, e) in g.out_edges(v) {
            if e.from() != v || g.edge(id) != e || !g.is_live_edge(id) {
                return Err(format!("{v}: out-edge {id} is not a live edge from it"));
            }
        }
        for (id, e) in g.in_edges(v) {
            if e.to() != v || g.edge(id) != e || !g.is_live_edge(id) {
                return Err(format!("{v}: in-edge {id} is not a live edge into it"));
            }
        }
    }
    let mut ranks: Vec<u32> = g.vertex_ids().map(|v| g.forward_rank(v)).collect();
    if ranks[g.source().index()] != 0 || ranks[g.sink().index()] != u32::MAX {
        return Err("source or sink left its pinned rank".into());
    }
    for (id, e) in g.forward_edges() {
        if g.forward_rank(e.from()) >= g.forward_rank(e.to()) {
            return Err(format!("forward edge {id} does not climb in rank"));
        }
    }
    ranks.sort_unstable();
    ranks.dedup();
    if ranks.len() != g.n_vertices() {
        return Err("ranks are not distinct".into());
    }
    check_order(g)
}

/// The topological order the graph lists is its rank order: every vertex
/// once, ranks rising, so it climbs along every live forward edge; and
/// `position` is its inverse.
fn check_order(g: &ConstraintGraph) -> Result<(), String> {
    let topo = g.forward_topological_order();
    let mut by_rank: Vec<VertexId> = g.vertex_ids().collect();
    by_rank.sort_unstable_by_key(|&v| g.forward_rank(v));
    if topo.order() != by_rank.as_slice() {
        return Err(format!(
            "order {:?} is not the rank order {by_rank:?}",
            topo.order()
        ));
    }
    for (i, &v) in topo.order().iter().enumerate() {
        if topo.position(v) != i {
            return Err(format!("{v} listed at {i}, position {}", topo.position(v)));
        }
    }
    for (id, e) in g.forward_edges() {
        if !topo.precedes(e.from(), e.to()) {
            return Err(format!("forward edge {id} does not climb in the order"));
        }
    }
    Ok(())
}

fn delay(rng: &mut Rng) -> ExecDelay {
    match rng.below(8) {
        0 | 1 => ExecDelay::Unbounded,
        2 => ExecDelay::Fixed(i64::MAX as u64 + 1 + rng.below(3) as u64),
        _ => ExecDelay::Fixed(rng.below(6) as u64),
    }
}

/// A pair of vertices, or now and then one the graph does not have; in
/// id order three times in four, so most forward inserts are accepted.
fn pair(rng: &mut Rng, n: usize) -> (VertexId, VertexId) {
    let pick = |rng: &mut Rng| {
        if rng.below(40) == 0 {
            VertexId::from_index(n + rng.below(3))
        } else {
            VertexId::from_index(rng.below(n))
        }
    };
    let (a, b) = (pick(rng), pick(rng));
    if rng.below(4) == 0 {
        (a, b)
    } else {
        (a.min(b), a.max(b))
    }
}

/// The live edges as `(id, edge)`, in id order.
fn live_edges(g: &ConstraintGraph) -> Vec<(EdgeId, Edge)> {
    g.edges().map(|(id, e)| (id, *e)).collect()
}

/// Runs one seeded sequence; returns the number of rejected edits.
fn run(seed: u64, steps: usize) -> usize {
    let mut rng = Rng(seed);
    let mut g = ConstraintGraph::new();
    let mut model = Model::default();
    model.add_vertex();
    model.add_vertex();
    let mut slots = 0; // Edge ids handed out so far.
    let mut removed = Vec::new();
    let mut rejected = 0;
    for step in 0..steps {
        let n = g.n_vertices();
        let what = match rng.below(20) {
            0..=2 => {
                let name = format!("op{}", n);
                let v = g.add_operation(name, delay(&mut rng));
                assert_eq!(v.index(), n);
                model.add_vertex();
                "add_operation".to_owned()
            }
            k @ 3..=12 => {
                let (a, b) = pair(&mut rng, n);
                let value = rng.below(9) as u64;
                let value = if rng.below(30) == 0 { u64::MAX } else { value };
                let (kind, result) = match k {
                    3..=7 => ("add_dependency", g.add_dependency(a, b)),
                    8..=10 => ("add_min_constraint", g.add_min_constraint(a, b, value)),
                    _ => ("add_max_constraint", g.add_max_constraint(a, b, value)),
                };
                match result {
                    Ok(id) => {
                        assert_eq!(id.index(), slots, "ids are handed out in order");
                        slots += 1;
                        model.add_edge(id, g.edge(id));
                    }
                    Err(_) => rejected += 1,
                }
                format!("{kind}({a}, {b}, {value})")
            }
            13..=15 => {
                let live = live_edges(&g);
                if !live.is_empty() && rng.below(6) != 0 {
                    let (id, e) = live[rng.below(live.len())];
                    assert_eq!(g.remove_edge(id), Ok(e));
                    model.remove_edge(id, &e);
                    removed.push(id);
                    format!("remove_edge({id})")
                } else {
                    // A removed id or one past the last: both refused.
                    let ghost = match removed.last() {
                        Some(&id) if rng.below(2) == 0 => id,
                        _ => next_edge_id(&g),
                    };
                    assert_eq!(g.remove_edge(ghost), Err(GraphError::UnknownEdge(ghost)));
                    rejected += 1;
                    format!("remove_edge({ghost}) refused")
                }
            }
            16 | 17 => {
                let v = VertexId::from_index(rng.below(n + 1));
                let d = delay(&mut rng);
                if g.set_delay(v, d).is_err() {
                    rejected += 1;
                }
                format!("set_delay({v}, {d:?})")
            }
            18 => {
                let before = slots;
                let result = g.polarize();
                for (id, e) in g.edges().filter(|(id, _)| id.index() >= before) {
                    assert_eq!(id.index(), slots, "ids are handed out in order");
                    slots += 1;
                    model.add_edge(id, e);
                }
                if result.is_err() {
                    rejected += 1;
                }
                "polarize".to_owned()
            }
            _ => {
                // A reduction that drops nothing leaves the graph alone;
                // otherwise it keeps a subsequence of the live edges,
                // renumbered densely in the same order.
                let old = live_edges(&g);
                let report = g.reduce_sequencing_edges();
                let new = live_edges(&g);
                assert_eq!(old.len() - new.len(), report.removed);
                if report.removed == 0 {
                    assert_eq!(new, old);
                } else {
                    let mut new_id = vec![None; slots];
                    let mut rest = old.iter();
                    for (k, (id, e)) in new.iter().enumerate() {
                        assert_eq!(id.index(), k, "reduction renumbers densely");
                        let (old_id, _) = rest
                            .find(|(_, o)| o == e)
                            .expect("reduction keeps a subsequence of the live edges");
                        new_id[old_id.index()] = Some(*id);
                    }
                    model.renumber(|e| new_id[e.index()]);
                    slots = new.len();
                    removed.clear();
                }
                "reduce_sequencing_edges".to_owned()
            }
        };
        if let Err(e) = check(&g, &model) {
            panic!("seed {seed}, step {step} ({what}): {e}");
        }
        let copy = g.clone();
        if let Err(e) = check(&copy, &model) {
            panic!("seed {seed}, step {step} ({what}), clone: {e}");
        }
        if rng.below(8) == 0 {
            g = copy;
        }
    }
    rejected
}

/// The id `g` would hand out next: foreign to `g` until then. `EdgeId`
/// has no public constructor, so a clone hands it out.
fn next_edge_id(g: &ConstraintGraph) -> EdgeId {
    let mut scratch = g.clone();
    let a = scratch.add_operation("ghost-a", ExecDelay::Fixed(0));
    let b = scratch.add_operation("ghost-b", ExecDelay::Fixed(0));
    scratch.add_max_constraint(a, b, 0).unwrap()
}

#[test]
fn adjacency_matches_vec_model_under_random_edits() {
    let mut rejected = 0;
    for seed in 0..300 {
        rejected += run(seed, 150);
    }
    // The sequences must exercise the refusal paths, not just accept.
    assert!(rejected > 1000, "only {rejected} rejected edits");
}
