//! Seeded workload generation: designs, session scripts, Zipf draws,
//! relabeling, and the request frames the client sends.
//!
//! Everything here is a pure function of the seed. Edits are chosen
//! against a mirror [`Session`] so that every generated request is one
//! the server accepts (`"ok":true`); rejected candidates are dropped
//! before they ever become frames.

use rsched_designs::benchmarks::all_benchmarks;
use rsched_designs::cascade::{build_cascade, Cascade};
use rsched_designs::random::{random_constraint_graph, RandomGraphConfig};
use rsched_engine::json::{object, Json};
use rsched_engine::{EditOutcome, Session};
use rsched_graph::{ConstraintGraph, ExecDelay, VertexId};

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// An independent stream derived from this one (for per-item seeds).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }
}

/// Zipf(1/(rank+1)) over `n` ranks: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                total += 1.0 / (r as f64 + 1.0);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty universe");
        let x = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// One session edit, by operation name.
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    SetDelay {
        vertex: String,
        delay: ExecDelay,
    },
    AddMin {
        from: String,
        to: String,
        value: u64,
    },
    AddMax {
        from: String,
        to: String,
        value: u64,
    },
    RemoveEdge {
        from: String,
        to: String,
    },
}

/// The protocol ops the benchmark sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    Open,
    Edit,
    Schedule,
    Recover,
    Close,
    Batch,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Open => "open",
            Op::Edit => "edit",
            Op::Schedule => "schedule",
            Op::Recover => "recover",
            Op::Close => "close",
            Op::Batch => "batch_schedule",
        }
    }
}

/// One request of a script.
#[derive(Debug, Clone)]
pub enum Req {
    Open { session: String, design: String },
    Edit { session: String, edit: Edit },
    Schedule { session: String },
    Recover { session: String },
    Close { session: String },
    Batch { designs: Vec<(String, String)> },
}

impl Req {
    pub fn op(&self) -> Op {
        match self {
            Req::Open { .. } => Op::Open,
            Req::Edit { .. } => Op::Edit,
            Req::Schedule { .. } => Op::Schedule,
            Req::Recover { .. } => Op::Recover,
            Req::Close { .. } => Op::Close,
            Req::Batch { .. } => Op::Batch,
        }
    }

    /// The request as a protocol object carrying `id`.
    pub fn to_json(&self, id: i64) -> Json {
        let base = |op: &str, session: &str| -> Vec<(&'static str, Json)> {
            vec![
                ("id", Json::Int(id)),
                ("op", Json::from(op)),
                ("session", Json::from(session)),
            ]
        };
        match self {
            Req::Open { session, design } => {
                let mut pairs = base("open", session);
                pairs.push(("design", Json::from(design.as_str())));
                object(pairs)
            }
            Req::Edit { session, edit } => {
                let mut pairs = base("edit", session);
                match edit {
                    Edit::SetDelay { vertex, delay } => {
                        pairs.push(("kind", Json::from("set_delay")));
                        pairs.push(("vertex", Json::from(vertex.as_str())));
                        pairs.push((
                            "delay",
                            match delay {
                                ExecDelay::Fixed(d) => Json::Int(*d as i64),
                                ExecDelay::Unbounded => Json::from("unbounded"),
                            },
                        ));
                    }
                    Edit::AddMin { from, to, value } | Edit::AddMax { from, to, value } => {
                        let kind = if matches!(edit, Edit::AddMin { .. }) {
                            "add_min"
                        } else {
                            "add_max"
                        };
                        pairs.push(("kind", Json::from(kind)));
                        pairs.push(("from", Json::from(from.as_str())));
                        pairs.push(("to", Json::from(to.as_str())));
                        pairs.push(("value", Json::Int(*value as i64)));
                    }
                    Edit::RemoveEdge { from, to } => {
                        pairs.push(("kind", Json::from("remove_edge")));
                        pairs.push(("from", Json::from(from.as_str())));
                        pairs.push(("to", Json::from(to.as_str())));
                    }
                }
                object(pairs)
            }
            Req::Schedule { session } => object(base("schedule", session)),
            Req::Recover { session } => object(base("recover", session)),
            Req::Close { session } => object(base("close", session)),
            Req::Batch { designs } => object([
                ("id", Json::Int(id)),
                ("op", Json::from("batch_schedule")),
                (
                    "designs",
                    Json::Array(
                        designs
                            .iter()
                            .map(|(name, design)| {
                                object([
                                    ("name", Json::from(name.as_str())),
                                    ("design", Json::from(design.as_str())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        }
    }
}

/// Applies `edit` to a session through the same calls the service makes.
/// `None` when an endpoint is unknown or no edge joins the pair.
pub fn apply_edit(session: &mut Session, edit: &Edit) -> Option<EditOutcome> {
    let v = |s: &Session, name: &str| s.vertex_named(name);
    Some(match edit {
        Edit::SetDelay { vertex, delay } => {
            let id = v(session, vertex)?;
            session.set_delay(id, *delay)
        }
        Edit::AddMin { from, to, value } => {
            let (f, t) = (v(session, from)?, v(session, to)?);
            session.add_min_constraint(f, t, *value)
        }
        Edit::AddMax { from, to, value } => {
            let (f, t) = (v(session, from)?, v(session, to)?);
            session.add_max_constraint(f, t, *value)
        }
        Edit::RemoveEdge { from, to } => {
            let (f, t) = (v(session, from)?, v(session, to)?);
            let e = session.edge_between(f, t)?;
            session.remove_edge(e)
        }
    })
}

fn op_names(g: &ConstraintGraph) -> Vec<String> {
    g.operation_ids()
        .map(|v| g.vertex(v).name().to_owned())
        .collect()
}

fn has_edge_either_way(g: &ConstraintGraph, a: VertexId, b: VertexId) -> bool {
    g.edges()
        .any(|(_, e)| (e.from() == a && e.to() == b) || (e.from() == b && e.to() == a))
}

/// Chooses `n` edits that the server accepts, applying each to `mirror`.
///
/// About a quarter of the edits are deliberate breaks — a max constraint
/// tighter than the path it bounds, or a fixed delay turned unbounded —
/// and whenever an edit leaves the session ill-posed or unfeasible, a
/// later edit of the same script reverts it.
pub fn gen_edits(rng: &mut Rng, mirror: &mut Session, n: usize) -> Vec<Edit> {
    let names = op_names(mirror.graph());
    let mut edits = Vec::with_capacity(n);
    if names.is_empty() {
        return edits;
    }
    let mut pending_revert: Option<Edit> = None;
    let mut attempts = 0;
    while edits.len() < n && attempts < n * 40 {
        attempts += 1;
        let remaining = n - edits.len();
        let (edit, revert) = if let Some(revert) = pending_revert
            .as_ref()
            .filter(|_| remaining <= 1 || rng.chance(0.5))
        {
            (revert.clone(), None)
        } else {
            candidate(rng, mirror, &names)
        };
        let Some(outcome) = apply_edit(mirror, &edit) else {
            continue;
        };
        if matches!(outcome, EditOutcome::Rejected { .. }) {
            continue;
        }
        if pending_revert.as_ref() == Some(&edit) {
            pending_revert = None;
        } else if pending_revert.is_none()
            && matches!(
                outcome,
                EditOutcome::IllPosed { .. } | EditOutcome::Unfeasible { .. }
            )
        {
            pending_revert = revert.or_else(|| last_edge_revert(mirror, &edit));
        }
        edits.push(edit);
    }
    edits
}

/// The `remove_edge` that undoes an `add_min`/`add_max` just applied.
fn last_edge_revert(mirror: &Session, edit: &Edit) -> Option<Edit> {
    if !matches!(edit, Edit::AddMin { .. } | Edit::AddMax { .. }) {
        return None;
    }
    let g = mirror.graph();
    let (_, e) = g.edges().last()?;
    Some(Edit::RemoveEdge {
        from: g.vertex(e.from()).name().to_owned(),
        to: g.vertex(e.to()).name().to_owned(),
    })
}

/// A random edit plus, for breaks, the edit that reverts it.
fn candidate(rng: &mut Rng, mirror: &Session, names: &[String]) -> (Edit, Option<Edit>) {
    let g = mirror.graph();
    let pick = |rng: &mut Rng| names[rng.below(names.len())].clone();
    let roll = rng.below(100);
    if roll < 12 {
        // Break: a fixed delay turned unbounded (ill-posed when a max
        // constraint spans it), reverted by restoring the old delay.
        let vertex = pick(rng);
        let old = mirror
            .vertex_named(&vertex)
            .map(|v| g.vertex(v).delay())
            .unwrap_or(ExecDelay::Fixed(1));
        if old.is_unbounded() {
            return (
                Edit::SetDelay {
                    vertex,
                    delay: ExecDelay::Fixed(1 + rng.below(4) as u64),
                },
                None,
            );
        }
        let revert = Edit::SetDelay {
            vertex: vertex.clone(),
            delay: old,
        };
        return (
            Edit::SetDelay {
                vertex,
                delay: ExecDelay::Unbounded,
            },
            Some(revert),
        );
    }
    if roll < 40 {
        return (
            Edit::SetDelay {
                vertex: pick(rng),
                delay: ExecDelay::Fixed(rng.below(7) as u64),
            },
            None,
        );
    }
    if roll < 85 && names.len() >= 2 {
        // A constraint between two distinct, not yet joined operations.
        for _ in 0..8 {
            let (a, b) = (pick(rng), pick(rng));
            let (Some(va), Some(vb)) = (mirror.vertex_named(&a), mirror.vertex_named(&b)) else {
                continue;
            };
            if va == vb || has_edge_either_way(g, va, vb) {
                continue;
            }
            let edit = if roll < 60 {
                Edit::AddMin {
                    from: a,
                    to: b,
                    value: rng.below(6) as u64,
                }
            } else if roll < 72 {
                // Break: a max constraint no path can meet.
                Edit::AddMax {
                    from: a,
                    to: b,
                    value: 0,
                }
            } else {
                Edit::AddMax {
                    from: a,
                    to: b,
                    value: 40 + rng.below(200) as u64,
                }
            };
            return (edit, None);
        }
    }
    // Remove a live edge between two operations.
    let edges: Vec<(String, String)> = g
        .edges()
        .filter(|(_, e)| e.from() != g.source() && e.to() != g.sink())
        .filter(|(_, e)| e.from() != g.sink() && e.to() != g.source())
        .map(|(_, e)| {
            (
                g.vertex(e.from()).name().to_owned(),
                g.vertex(e.to()).name().to_owned(),
            )
        })
        .collect();
    if edges.is_empty() {
        return (
            Edit::SetDelay {
                vertex: pick(rng),
                delay: ExecDelay::Fixed(rng.below(7) as u64),
            },
            None,
        );
    }
    let (from, to) = edges[rng.below(edges.len())].clone();
    (Edit::RemoveEdge { from, to }, None)
}

/// Relabels a design text: fresh operation names (derived from `tag`)
/// and shuffled declaration and constraint order. The result is the same
/// scheduling problem, so its canonical key is unchanged.
pub fn relabel(design: &str, tag: &str, rng: &mut Rng) -> String {
    let mut ops: Vec<&str> = Vec::new();
    let mut edges: Vec<Vec<&str>> = Vec::new();
    for line in design.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.first() {
            Some(&"op") => ops.push(line),
            Some(&"dep") | Some(&"min") | Some(&"max") => edges.push(words),
            _ => {}
        }
    }
    let mut order: Vec<usize> = (0..ops.len()).collect();
    rng.shuffle(&mut order);
    let mut fresh = std::collections::HashMap::new();
    let mut out = String::with_capacity(design.len() + design.len() / 4);
    for (k, &i) in order.iter().enumerate() {
        let mut words = ops[i].split_whitespace();
        let (_, name, delay) = (words.next(), words.next().unwrap_or(""), words.next());
        let new_name = format!("{tag}_{k}");
        out.push_str(&format!("op {new_name} {}\n", delay.unwrap_or("0")));
        fresh.insert(name.to_owned(), new_name);
    }
    rng.shuffle(&mut edges);
    let rename = |n: &str| -> String { fresh.get(n).cloned().unwrap_or_else(|| n.to_owned()) };
    for words in edges {
        out.push_str(words[0]);
        for (i, w) in words.iter().enumerate().skip(1) {
            out.push(' ');
            if i <= 2 {
                out.push_str(&rename(w));
            } else {
                out.push_str(w);
            }
        }
        out.push('\n');
    }
    out
}

/// Every sequencing graph of the paper's eight Table III/IV designs
/// (91 in all), lowered to a constraint graph, plus Fig. 10, as
/// `(name, design text)`.
pub fn paper_designs() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for bench in all_benchmarks() {
        let scheduled =
            rsched_sgraph::schedule_design(&bench.design).expect("paper designs schedule");
        for gs in scheduled.graph_schedules() {
            let name = format!("{}/{}", bench.name, gs.name);
            out.push((name, gs.lowered.graph.to_text()));
        }
    }
    let (fig10, _, _) = rsched_designs::paper::fig10();
    out.push(("fig10".to_owned(), fig10.to_text()));
    out
}

fn random_design(seed: u64, n_ops: usize) -> String {
    random_constraint_graph(
        seed,
        &RandomGraphConfig {
            n_ops,
            ..RandomGraphConfig::default()
        },
    )
    .to_text()
}

fn cascade_design(n: usize, links: usize, salt: u64) -> String {
    build_cascade(Cascade { n, links, salt }, 0).to_text()
}

/// How the server runs for a workload, and how the client loads it.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub connections: usize,
    pub workers: usize,
    pub threads: usize,
    pub cache_capacity: usize,
    pub journal: bool,
    /// Requests each connection keeps in flight (closed loop).
    pub window: usize,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "paper_edits",
        connections: 2,
        workers: 2,
        threads: 0,
        cache_capacity: 0,
        journal: false,
        window: 4,
    },
    Spec {
        name: "midsize_sessions",
        connections: 2,
        workers: 2,
        threads: 0,
        cache_capacity: 32,
        journal: true,
        window: 1,
    },
    Spec {
        name: "large_batch",
        connections: 1,
        workers: 4,
        threads: 2,
        cache_capacity: 0,
        journal: false,
        window: 1,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        SPECS.iter().copied().find(|s| s.name == name)
    }

    /// `rsched serve` flags, minus `--listen` (and the journal directory
    /// path, passed separately).
    pub fn server_flags(&self) -> Vec<String> {
        let mut flags = vec!["--workers".to_owned(), self.workers.to_string()];
        if self.threads > 0 {
            flags.extend(["--threads".to_owned(), self.threads.to_string()]);
        }
        if self.cache_capacity > 0 {
            flags.extend([
                "--cache-capacity".to_owned(),
                self.cache_capacity.to_string(),
            ]);
        }
        flags
    }

    /// The engine config the server runs with (journal directory aside).
    pub fn serve_config(&self) -> rsched_engine::ServeConfig {
        rsched_engine::ServeConfig {
            workers: self.workers,
            threads: self.threads,
            cache_capacity: self.cache_capacity,
            ..rsched_engine::ServeConfig::default()
        }
    }
}

/// One connection's request script.
pub struct Conn {
    pub reqs: Vec<Req>,
}

/// A generated workload: the per-connection scripts plus, for journaled
/// workloads, the requests that prefill the journal directory.
pub struct Workload {
    pub spec: Spec,
    pub conns: Vec<Conn>,
    pub prefill: Vec<Req>,
}

impl Workload {
    pub fn generate(spec: Spec, seed: u64) -> Workload {
        let mut rng = Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ spec.name.len() as u64);
        match spec.name {
            "paper_edits" => paper_edits(spec, &mut rng),
            "midsize_sessions" => midsize_sessions(spec, &mut rng),
            _ => large_batch(spec, &mut rng),
        }
    }

    pub fn n_requests(&self) -> usize {
        self.conns.iter().map(|c| c.reqs.len()).sum()
    }
}

/// Session names end in `-<pass>-<salt>` (8 and 2 hex digits). Each pass
/// over a script renames its sessions ([`rename_for_pass`]) so that a
/// reopened session never truncates an earlier pass's WAL file — on ext4
/// with `discard` that truncation is a data flush and a discard per
/// session, and the disk then sets the pace. The salt keeps every name of
/// connection `c` on worker `c`, so the two connections never queue
/// behind each other on one worker.
const PASS_SUFFIX: &str = "-00000000-00";

fn session_name(spec: &Spec, c: usize, base: &str) -> String {
    let mut name = format!("{base}{PASS_SUFFIX}").into_bytes();
    rename_for_pass(&mut name, 0, spec.workers, c % spec.workers);
    String::from_utf8(name).expect("session names are ASCII")
}

/// Rewrites the pass and salt digits that end a session `name` in place,
/// choosing the salt that shards the name to worker `shard`.
pub fn rename_for_pass(name: &mut [u8], pass: u64, workers: usize, shard: usize) {
    let n = name.len();
    write_hex(&mut name[n - 11..n - 3], pass);
    for salt in 0..=255 {
        write_hex(&mut name[n - 2..], salt);
        let text = std::str::from_utf8(name).expect("session names are ASCII");
        if rsched_engine::shard_of(text, workers) == shard {
            return;
        }
    }
    panic!("no salt shards the session to worker {shard}");
}

fn write_hex(out: &mut [u8], mut value: u64) {
    for b in out.iter_mut().rev() {
        *b = b"0123456789abcdef"[(value & 15) as usize];
        value >>= 4;
    }
}

/// Byte range of the session name in a rendered frame, if it has one.
pub fn session_span(frame: &str) -> Option<std::ops::Range<usize>> {
    let at = frame.find("\"session\":\"")? + "\"session\":\"".len();
    let len = frame[at..].find('"')?;
    Some(at..at + len)
}

/// Edits a session script makes on paper-scale designs.
const PAPER_EDITS: usize = 16;
/// Edits per midsize session.
const MIDSIZE_EDITS: usize = 4;
/// Sessions each midsize connection cycles through.
const MIDSIZE_SESSIONS_PER_CONN: usize = 128;
/// Designs in the midsize universe.
const MIDSIZE_UNIVERSE: usize = 64;

fn paper_edits(spec: Spec, rng: &mut Rng) -> Workload {
    let designs = paper_designs();
    // Every connection runs every design, in its own order with its own
    // edits, so both carry the same mix whatever the seed.
    let conns = (0..spec.connections)
        .map(|c| {
            let mut order: Vec<usize> = (0..designs.len()).collect();
            rng.shuffle(&mut order);
            let mut reqs = Vec::new();
            for (k, &d) in order.iter().enumerate() {
                let session = session_name(&spec, c, &format!("c{c}-s{k:04}"));
                paper_script(&mut reqs, session, &designs[d].1, &mut rng.fork());
            }
            Conn { reqs }
        })
        .collect();
    Workload {
        spec,
        conns,
        prefill: Vec::new(),
    }
}

/// `open` → 16 edits interleaved with `schedule` → `schedule` →
/// `recover` → `close`, appended to `reqs`.
fn paper_script(reqs: &mut Vec<Req>, session: String, design: &str, rng: &mut Rng) {
    let graph = ConstraintGraph::from_text(design).expect("paper design parses");
    let mut mirror = Session::open(graph).expect("paper design opens");
    reqs.push(Req::Open {
        session: session.clone(),
        design: design.to_owned(),
    });
    let mut since_schedule = 0;
    for edit in gen_edits(rng, &mut mirror, PAPER_EDITS) {
        reqs.push(Req::Edit {
            session: session.clone(),
            edit,
        });
        since_schedule += 1;
        if since_schedule >= 2 && rng.chance(0.4) {
            reqs.push(Req::Schedule {
                session: session.clone(),
            });
            since_schedule = 0;
        }
    }
    reqs.push(Req::Schedule {
        session: session.clone(),
    });
    reqs.push(Req::Recover {
        session: session.clone(),
    });
    reqs.push(Req::Close { session });
}

/// The midsize universe, rank by rank. Each rank's shape (size, family)
/// is fixed so seeds vary structure, not the workload's cost profile.
pub fn midsize_universe(rng: &mut Rng) -> Vec<String> {
    (0..MIDSIZE_UNIVERSE)
        .map(|r| {
            if r % 4 == 3 {
                let links = 8 + (r * 7) % 25;
                cascade_design(160 + (r * 13) % 80, links, rng.next_u64() % 1000)
            } else {
                random_design(rng.next_u64(), 150 + (r * 97) % 251)
            }
        })
        .collect()
}

fn midsize_sessions(spec: Spec, rng: &mut Rng) -> Workload {
    let universe = midsize_universe(rng);
    let zipf = Zipf::new(universe.len());
    let mut conns: Vec<Conn> = (0..spec.connections)
        .map(|_| Conn { reqs: Vec::new() })
        .collect();
    for (c, conn) in conns.iter_mut().enumerate() {
        for k in 0..MIDSIZE_SESSIONS_PER_CONN {
            let rank = zipf.draw(rng);
            let session = session_name(&spec, c, &format!("c{c}-m{k:04}"));
            let mut srng = rng.fork();
            let design = relabel(&universe[rank], &format!("r{c}x{k}"), &mut srng);
            let graph = ConstraintGraph::from_text(&design).expect("midsize design parses");
            let mut mirror = Session::open(graph).expect("midsize design opens");
            conn.reqs.push(Req::Open {
                session: session.clone(),
                design,
            });
            for edit in gen_edits(&mut srng, &mut mirror, MIDSIZE_EDITS) {
                conn.reqs.push(Req::Edit {
                    session: session.clone(),
                    edit,
                });
            }
            conn.reqs.push(Req::Schedule {
                session: session.clone(),
            });
            conn.reqs.push(Req::Close { session });
        }
    }
    // The journal directory the server boots from: every universe design
    // opened and edited under its own name, never closed.
    let mut prefill = Vec::new();
    for (k, design) in universe.iter().enumerate() {
        let session = format!("boot-{k}");
        let graph = ConstraintGraph::from_text(design).expect("midsize design parses");
        let mut mirror = Session::open(graph).expect("midsize design opens");
        prefill.push(Req::Open {
            session: session.clone(),
            design: design.clone(),
        });
        for edit in gen_edits(rng, &mut mirror, MIDSIZE_EDITS) {
            prefill.push(Req::Edit {
                session: session.clone(),
                edit,
            });
        }
    }
    Workload {
        spec,
        conns,
        prefill,
    }
}

/// Designs in the large-batch pool.
const LARGE_POOL: usize = 16;
/// Batch requests per pass over the pool.
const LARGE_REQUESTS: usize = 32;

/// The large-batch pool: random graphs of 800–1600 ops and 400-op
/// multi-round cascades, sizes fixed by slot.
pub fn large_pool(rng: &mut Rng) -> Vec<String> {
    (0..LARGE_POOL)
        .map(|i| {
            if i % 3 == 2 {
                cascade_design(400, 24 + (i * 5) % 16, rng.next_u64() % 1000)
            } else {
                random_design(rng.next_u64(), 800 + (i * 100) % 900)
            }
        })
        .collect()
}

fn large_batch(spec: Spec, rng: &mut Rng) -> Workload {
    let pool = large_pool(rng);
    let mut reqs = Vec::with_capacity(LARGE_REQUESTS);
    let mut slots: Vec<usize> = Vec::new();
    while reqs.len() < LARGE_REQUESTS {
        if slots.len() < 2 {
            let mut fresh: Vec<usize> = (0..pool.len()).collect();
            rng.shuffle(&mut fresh);
            slots.extend(fresh);
        }
        let (a, b) = (slots.remove(0), slots.remove(0));
        reqs.push(Req::Batch {
            designs: vec![
                (format!("d{a}"), pool[a].clone()),
                (format!("d{b}"), pool[b].clone()),
            ],
        });
    }
    Workload {
        spec,
        conns: vec![Conn { reqs }],
        prefill: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_draws_are_deterministic_per_seed() {
        let zipf = Zipf::new(64);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..500).map(|_| zipf.draw(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let draws = draw(7);
        assert!(draws.iter().all(|&r| r < 64));
        // Rank 0 is drawn far more often than rank 63.
        let count = |r| draws.iter().filter(|&&d| d == r).count();
        assert!(count(0) > 4 * count(63).max(1));
    }

    #[test]
    fn relabel_is_deterministic_and_keeps_the_canonical_key() {
        let design = random_design(11, 60);
        let a = relabel(&design, "t", &mut Rng::new(3));
        let b = relabel(&design, "t", &mut Rng::new(3));
        let c = relabel(&design, "t", &mut Rng::new(4));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, design);
        let key = |text: &str| {
            ConstraintGraph::from_text(text)
                .expect("relabeled design parses")
                .canonical_key()
        };
        let original = key(&design);
        assert_eq!(key(&a).hash, original.hash);
        assert_eq!(key(&a).bytes, original.bytes);
        assert_eq!(key(&c).bytes, original.bytes);
    }

    #[test]
    fn paper_designs_are_every_lowered_graph_plus_fig10() {
        let graphs: usize = all_benchmarks().iter().map(|b| b.design.n_graphs()).sum();
        assert_eq!(graphs, 91);
        assert_eq!(paper_designs().len(), graphs + 1);
    }

    #[test]
    fn renaming_for_a_pass_keeps_the_shard() {
        let spec = Spec::by_name("paper_edits").unwrap();
        for c in 0..2 {
            let name = session_name(&spec, c, "c0-s0001");
            let frame = Req::Close {
                session: name.clone(),
            }
            .to_json(1)
            .render();
            let span = session_span(&frame).expect("frame names its session");
            assert_eq!(&frame[span.clone()], name);
            let mut bytes = frame.into_bytes();
            rename_for_pass(&mut bytes[span.clone()], 0x2a, spec.workers, c);
            let renamed = std::str::from_utf8(&bytes[span]).unwrap();
            assert!(renamed.starts_with("c0-s0001-0000002a-"), "{renamed}");
            assert_eq!(rsched_engine::shard_of(renamed, spec.workers), c);
        }
    }

    #[test]
    fn generated_edits_are_all_accepted() {
        let design = random_design(5, 80);
        let graph = ConstraintGraph::from_text(&design).unwrap();
        let mut mirror = Session::open(graph.clone()).unwrap();
        let edits = gen_edits(&mut Rng::new(9), &mut mirror, 16);
        assert_eq!(edits.len(), 16);
        let mut replay = Session::open(graph).unwrap();
        for edit in &edits {
            let outcome = apply_edit(&mut replay, edit).expect("endpoints exist");
            assert!(!matches!(outcome, EditOutcome::Rejected { .. }));
        }
    }
}
