//! The traced run: each workload's frames replayed in-process through
//! public entry points only.
//!
//! Per request, the service-level calls run exactly as a server worker
//! makes them (`Json::parse`, `Router::route`, `Router::execute`,
//! `Router::sync_journals`, `Json::render`) on a `Router` configured like
//! the server. On traced passes the request is then replayed a second
//! time, layer by layer, against a shadow state (sessions, journals,
//! cache) kept by the tracer: `ConstraintGraph::from_text`, `canonical_key`,
//! `ScheduleCache::lookup`/`insert`, the `Session` op, `Journal`
//! `append`/`sync`/`maybe_compact`/`replay`, and the core entry points
//! (`AnchorSets::compute`, `check_well_posed_with`,
//! `ScheduleKernel::build`, `schedule_with_sets_on` at 1 and 2 threads).
//! Those layer spans are children of the request's `service.execute`
//! span; they run after it on the same input, so self time and coverage
//! are computed from durations.
//!
//! The shadow is a copy of how the engine handles each op, so it is held
//! to the engine: traced passes run on a router of their own, and after
//! each one the shadow's counts (sessions opened, recoveries, compactions,
//! cache hits, misses, inserts and evictions) must equal that router's.
//! Any difference is reported as drift and fails the run.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use rsched_cache::ScheduleCache;
use rsched_core::{check_well_posed_with, schedule_with_sets_on, AnchorSets};
use rsched_engine::json::Json;
use rsched_engine::{EditOutcome, Journal, JournalOp, Router, RouterStats, ServeConfig, Session};
use rsched_graph::{ConstraintGraph, ScheduleKernel};

use crate::gen::{apply_edit, rename_for_pass, session_span, Edit, Op, Req, Workload};
use crate::trace::Tracer;

/// Counters the shadow replay gathers, over every traced pass.
#[derive(Debug, Default)]
pub struct ShadowCounts {
    pub opened: usize,
    pub recoveries: usize,
    pub warm_columns: usize,
    pub cold_columns: usize,
    pub edit_iterations: usize,
    pub rescheduled: usize,
    pub wal_bytes: u64,
    pub wal_edits: usize,
    pub compactions: usize,
    /// Durations (ns) of the `maybe_compact` calls that compacted,
    /// forced ones included.
    pub compact_ns: Vec<f64>,
    pub fixpoint_iterations: Vec<f64>,
    /// Per batch request: Σ per-design layer time (ns).
    pub batch_design_ns: Vec<u64>,
}

struct Entry {
    session: Session,
    journal: Journal,
    wal: Option<PathBuf>,
}

/// Shadow state for the layer-by-layer replay.
struct Shadow {
    sessions: HashMap<String, Entry>,
    cache: ScheduleCache,
    journal_dir: Option<PathBuf>,
    snapshot_every: usize,
    counts: ShadowCounts,
    /// The traced pass in progress: WAL files are per pass, as the
    /// server's are.
    pass: u64,
}

fn journal_op(edit: &Edit) -> JournalOp {
    match edit.clone() {
        Edit::SetDelay { vertex, delay } => JournalOp::SetDelay { vertex, delay },
        Edit::AddMin { from, to, value } => JournalOp::AddMin { from, to, value },
        Edit::AddMax { from, to, value } => JournalOp::AddMax { from, to, value },
        Edit::RemoveEdge { from, to } => JournalOp::RemoveEdge { from, to },
    }
}

fn file_len(path: &Option<PathBuf>) -> u64 {
    path.as_ref()
        .and_then(|p| std::fs::metadata(p).ok())
        .map_or(0, |m| m.len())
}

/// A scheduled graph's kernel and anchor sets, kept to time the crew.
type Fixpoint = (ScheduleKernel, AnchorSets);

/// Cold core decomposition of `graph`, as children of `parent`. With
/// `fixpoint`, also runs the 1-thread fixpoint and returns its inputs so
/// the caller can time the 2-thread crew outside every request span.
fn core_spans(
    tr: &mut Tracer,
    graph: &ConstraintGraph,
    parent: usize,
    rid: u64,
    fixpoint: bool,
    counts: &mut ShadowCounts,
) -> Option<Fixpoint> {
    let (sets, _) = tr.time("core.anchor_sets", Some(parent), rid, || {
        AnchorSets::compute(graph)
    });
    let sets = sets.ok()?;
    let (posed, _) = tr.time("core.well_posed", Some(parent), rid, || {
        check_well_posed_with(graph, &sets)
    });
    let (kernel, _) = tr.time("graph.kernel_build", Some(parent), rid, || {
        ScheduleKernel::build(graph)
    });
    let kernel = kernel.ok()?;
    if !fixpoint || !posed.is_well_posed() {
        return None;
    }
    let (omega, _) = tr.time("core.fixpoint", Some(parent), rid, || {
        schedule_with_sets_on(&kernel, sets.family(), 1)
    });
    counts
        .fixpoint_iterations
        .push(omega.ok()?.iterations() as f64);
    Some((kernel, sets))
}

/// The same fixpoint on the 2-thread crew: a root span, since no serve
/// path runs the crew.
fn crew_span(tr: &mut Tracer, fixpoint: Option<Fixpoint>, rid: u64) {
    if let Some((kernel, sets)) = fixpoint {
        let _ = tr.time("core.fixpoint_t2", None, rid, || {
            schedule_with_sets_on(&kernel, sets.family(), 2)
        });
    }
}

impl Shadow {
    fn run(&mut self, tr: &mut Tracer, req: &Req, parent: usize, rid: u64) {
        let p = Some(parent);
        match req {
            Req::Open { session, design } => {
                let (graph, _) = tr.time("graph.from_text", p, rid, || {
                    ConstraintGraph::from_text(design)
                });
                let Ok(mut graph) = graph else { return };
                if !graph.is_polar() {
                    let _ = tr.time("graph.polarize", p, rid, || graph.polarize());
                }
                let mut seed = None;
                if self.cache.enabled() {
                    let (key, _) = tr.time("cache.key", p, rid, || graph.canonical_key());
                    (seed, _) = tr.time("cache.probe", p, rid, || {
                        self.cache.lookup(&key).map(|c| c.remapped(&key.inv))
                    });
                }
                let seeded = seed.is_some();
                let (opened, sid) = tr.time("session.open", p, rid, || {
                    Session::open_with_seed(graph, seed)
                });
                let Ok(s) = opened else { return };
                self.counts.opened += 1;
                let fixpoint = core_spans(tr, s.graph(), sid, rid, true, &mut self.counts);
                crew_span(tr, fixpoint, rid);
                if self.cache.enabled() && !seeded && s.posedness().is_well_posed() {
                    if let Some(omega) = s.schedule() {
                        let (key, _) = tr.time("cache.key", p, rid, || s.graph().canonical_key());
                        tr.time("cache.insert", p, rid, || {
                            self.cache.insert(&key, omega.remapped(&key.perm))
                        });
                    }
                }
                let wal = self
                    .journal_dir
                    .as_ref()
                    .map(|d| d.join(format!("{session}-{}.wal", self.pass)));
                let (mut journal, _) = tr.time("journal.open", p, rid, || {
                    Journal::open(session.clone(), design.clone(), wal.clone())
                });
                journal.set_snapshot_every(self.snapshot_every);
                if wal.is_some() {
                    tr.time("journal.sync", p, rid, || journal.sync());
                }
                self.sessions.insert(
                    session.clone(),
                    Entry {
                        session: s,
                        journal,
                        wal,
                    },
                );
            }
            Req::Edit { session, edit } => {
                let Some(e) = self.sessions.get_mut(session) else {
                    return;
                };
                let before = e.session.stats().clone();
                let (outcome, sid) =
                    tr.time("session.edit", p, rid, || apply_edit(&mut e.session, edit));
                let Some(outcome) = outcome else { return };
                let _ = core_spans(tr, e.session.graph(), sid, rid, false, &mut self.counts);
                let after = e.session.stats();
                self.counts.warm_columns += after.warm_anchor_columns - before.warm_anchor_columns;
                self.counts.cold_columns += after.cold_anchor_columns - before.cold_anchor_columns;
                if let EditOutcome::Rescheduled { iterations, .. } = &outcome {
                    self.counts.rescheduled += 1;
                    self.counts.edit_iterations += iterations;
                }
                if matches!(
                    outcome,
                    EditOutcome::Rejected { .. } | EditOutcome::Unchanged
                ) {
                    return;
                }
                let len_before = file_len(&e.wal);
                tr.time("journal.append", p, rid, || {
                    e.journal.append(journal_op(edit))
                });
                let (compacted, span) = tr.time("journal.compact", p, rid, || {
                    e.journal.maybe_compact(&e.session)
                });
                if compacted {
                    self.counts.compactions += 1;
                    self.counts.compact_ns.push(tr.spans[span].dur_ns() as f64);
                }
                if matches!(outcome, EditOutcome::Rescheduled { .. }) && self.cache.enabled() {
                    if let Some(omega) = e.session.schedule() {
                        let (key, _) =
                            tr.time("cache.key", p, rid, || e.session.graph().canonical_key());
                        tr.time("cache.insert", p, rid, || {
                            self.cache.insert(&key, omega.remapped(&key.perm))
                        });
                    }
                }
                if e.wal.is_some() {
                    tr.time("journal.sync", p, rid, || e.journal.sync());
                    if !compacted {
                        self.counts.wal_bytes += file_len(&e.wal).saturating_sub(len_before);
                        self.counts.wal_edits += 1;
                    }
                }
            }
            Req::Schedule { session } => {
                let Some(e) = self.sessions.get(session) else {
                    return;
                };
                tr.time("session.schedule", p, rid, || {
                    e.session.schedule().map(|o| o.n_offsets(e.session.graph()))
                });
            }
            Req::Recover { session } => {
                let Some(e) = self.sessions.get_mut(session) else {
                    return;
                };
                let (replayed, _) = tr.time("journal.replay", p, rid, || e.journal.replay());
                if let Ok(s) = replayed {
                    e.session = s;
                    self.counts.recoveries += 1;
                }
                // The server's snapshot interval outlasts these sessions,
                // so compaction is priced by forcing one per recovered
                // session, in a root span outside the request.
                e.journal.set_snapshot_every(1);
                let (compacted, span) = tr.time("journal.compact_forced", None, rid, || {
                    e.journal.maybe_compact(&e.session)
                });
                e.journal.set_snapshot_every(self.snapshot_every);
                if compacted {
                    self.counts.compact_ns.push(tr.spans[span].dur_ns() as f64);
                }
            }
            Req::Close { session } => {
                let entry = self.sessions.remove(session);
                tr.time("journal.close", p, rid, || drop(entry));
            }
            Req::Batch { designs } => {
                let mut design_ns = 0;
                for (_, design) in designs {
                    let d = tr.begin("batch.design", p, rid);
                    let (graph, _) = tr.time("graph.from_text", Some(d), rid, || {
                        ConstraintGraph::from_text(design)
                    });
                    let mut fixpoint = None;
                    if let Ok(mut graph) = graph {
                        if !graph.is_polar() {
                            let _ = tr.time("graph.polarize", Some(d), rid, || graph.polarize());
                        }
                        fixpoint = core_spans(tr, &graph, d, rid, true, &mut self.counts);
                    }
                    tr.end(d);
                    design_ns += tr.spans[d].dur_ns();
                    crew_span(tr, fixpoint, rid);
                }
                self.counts.batch_design_ns.push(design_ns);
            }
        }
    }
}

/// Spans one run may hold: tracing stops after the pass that crosses
/// this, keeping memory and the written trace to a few tens of MB.
const SPAN_BUDGET: usize = 400_000;

/// What the replay measured.
pub struct Replay {
    pub tracer: Tracer,
    pub ops: Vec<Op>,
    pub counts: ShadowCounts,
    /// Median untraced in-process service time per (connection, frame).
    pub service_ns: Vec<Vec<f64>>,
    /// Per traced/untraced pass pair: traced ÷ untraced request time.
    pub overhead_ratios: Vec<f64>,
    pub passes: usize,
    pub mismatches: usize,
    pub cache: rsched_cache::CacheStats,
    /// Counts on which the shadow and the traced router disagree.
    pub drift: Vec<String>,
}

/// Counts the shadow and the traced router both keep, each as
/// `(name, shadow, engine)`.
fn counters(shadow: &Shadow, engine: &RouterStats) -> [(&'static str, u64, u64); 7] {
    let (c, e) = (shadow.cache.stats(), &engine.cache);
    [
        (
            "sessions_opened",
            shadow.counts.opened as u64,
            engine.sessions_opened as u64,
        ),
        (
            "recoveries",
            shadow.counts.recoveries as u64,
            engine.recoveries as u64,
        ),
        (
            "compactions",
            shadow.counts.compactions as u64,
            engine.snapshots as u64,
        ),
        ("cache.hits", c.hits, e.hits),
        ("cache.misses", c.misses, e.misses),
        ("cache.inserts", c.inserts, e.inserts),
        ("cache.evictions", c.evictions, e.evictions),
    ]
}

/// Replays the workload until `until` or the span budget (at least one
/// untraced and one traced pass), alternating untraced and traced passes.
/// `configs` holds the untraced and the traced router's configuration:
/// alike but for their journal directories.
pub fn run(
    workload: &Workload,
    frames: &[Vec<String>],
    expected: &[Vec<String>],
    configs: &[ServeConfig; 2],
    shadow_dir: Option<PathBuf>,
    until: Instant,
) -> Replay {
    let config = &configs[1];
    let routers = configs.each_ref().map(|c| Router::new(c.workers, c));
    let journaled = config.journal_dir.is_some();
    let mut shadow = Shadow {
        sessions: HashMap::new(),
        cache: ScheduleCache::new(config.cache_capacity),
        journal_dir: shadow_dir,
        snapshot_every: config.snapshot_every,
        counts: ShadowCounts::default(),
        pass: 0,
    };
    // Round-robin over connections, as the server sees them.
    let longest = frames.iter().map(Vec::len).max().unwrap_or(0);
    let order: Vec<(usize, usize)> = (0..longest)
        .flat_map(|i| {
            (0..frames.len())
                .filter(move |&c| i < frames[c].len())
                .map(move |c| (c, i))
        })
        .collect();
    let mut tracer = Tracer::new();
    let mut ops = Vec::new();
    let mut service: Vec<Vec<Vec<f64>>> =
        frames.iter().map(|f| vec![Vec::new(); f.len()]).collect();
    let mut overhead_ratios = Vec::new();
    let mut mismatches = 0;
    let mut passes = 0;
    // Sessions are renamed every pass, as the client renames them.
    let mut frames = frames.to_vec();
    let spans: Vec<Vec<_>> = frames
        .iter()
        .map(|conn| conn.iter().map(|f| session_span(f)).collect())
        .collect();
    let rename = |frames: &mut Vec<Vec<String>>, pass: u64| {
        for (c, conn) in frames.iter_mut().enumerate() {
            for (frame, span) in conn.iter_mut().zip(&spans[c]) {
                if let Some(span) = span {
                    let mut bytes = std::mem::take(frame).into_bytes();
                    rename_for_pass(
                        &mut bytes[span.clone()],
                        pass,
                        config.workers,
                        c % config.workers,
                    );
                    *frame = String::from_utf8(bytes).expect("session names are ASCII");
                }
            }
        }
    };
    let mut drift = Vec::new();
    let serve_one = |router: &Router, frame: &str| -> String {
        let request = Json::parse(frame).expect("generated frame parses");
        let id = request.get("id").cloned().unwrap_or(Json::Null);
        let slot = router.route(&id, &request).expect("generated frame routes");
        let response = router.execute(slot, id, &request);
        if journaled {
            router.sync_journals(slot);
        }
        response.render()
    };
    while passes < 2 || (Instant::now() < until && tracer.spans.len() < SPAN_BUDGET) {
        // Untraced pass: request-level calls only, timed per request.
        rename(&mut frames, passes as u64);
        let mut untraced_ns = 0u64;
        for &(c, i) in &order {
            let t0 = Instant::now();
            let text = serve_one(&routers[0], &frames[c][i]);
            let ns = t0.elapsed().as_nanos() as u64;
            untraced_ns += ns;
            service[c][i].push(ns as f64);
            mismatches += usize::from(text != expected[c][i]);
        }
        // Traced pass: the same calls under spans, then the layer replay.
        rename(&mut frames, passes as u64 + 1);
        shadow.pass = passes as u64 + 1;
        let router = &routers[1];
        let mut traced_ns = 0u64;
        for &(c, i) in &order {
            let rid = ops.len() as u64;
            let req = &workload.conns[c].reqs[i];
            ops.push(req.op());
            let root = tracer.begin("request", None, rid);
            let (request, _) = tracer.time("service.frame_parse", Some(root), rid, || {
                Json::parse(&frames[c][i])
            });
            let request = request.expect("generated frame parses");
            let id = request.get("id").cloned().unwrap_or(Json::Null);
            let (slot, _) = tracer.time("service.route", Some(root), rid, || {
                router.route(&id, &request)
            });
            let slot = slot.expect("generated frame routes");
            let (response, exec) = tracer.time("service.execute", Some(root), rid, || {
                router.execute(slot, id, &request)
            });
            if journaled {
                tracer.time("service.sync_journals", Some(root), rid, || {
                    router.sync_journals(slot)
                });
            }
            let (text, _) = tracer.time("service.render", Some(root), rid, || response.render());
            tracer.end(root);
            traced_ns += tracer.spans[root].dur_ns();
            mismatches += usize::from(text != expected[c][i]);
            shadow.run(&mut tracer, req, exec, rid);
        }
        overhead_ratios.push(traced_ns as f64 / untraced_ns.max(1) as f64);
        if drift.is_empty() {
            drift = counters(&shadow, &router.stats())
                .into_iter()
                .filter(|&(_, shadow, engine)| shadow != engine)
                .map(|(name, shadow, engine)| {
                    format!(
                        "{name}: shadow {shadow}, engine {engine} after pass {}",
                        passes + 1
                    )
                })
                .collect();
        }
        passes += 2;
    }
    let service_ns = service
        .into_iter()
        .map(|conn| conn.into_iter().map(|s| crate::stats::median(&s)).collect())
        .collect();
    Replay {
        tracer,
        ops,
        cache: shadow.cache.stats(),
        counts: shadow.counts,
        service_ns,
        overhead_ratios,
        passes,
        mismatches,
        drift,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Spec;

    /// One untraced and one traced pass of each session workload: the
    /// answers match the expectations and the shadow's counts match the
    /// traced router's, with the cache and `recover` exercised.
    #[test]
    fn the_shadow_replay_matches_the_engine() {
        for name in ["paper_edits", "midsize_sessions"] {
            let spec = Spec::by_name(name).unwrap();
            let workload = Workload::generate(spec, 7);
            let expected = crate::expect::build(&workload).expect("workload referees");
            let dir = crate::server::target_dir().join(format!("rsbench-test-replay-{name}"));
            let _ = std::fs::remove_dir_all(&dir);
            let config = |sub: &str| ServeConfig {
                journal_dir: spec.journal.then(|| dir.join(sub)),
                ..spec.serve_config()
            };
            let shadow_dir = spec.journal.then(|| dir.join("shadow"));
            if let Some(d) = &shadow_dir {
                std::fs::create_dir_all(d).unwrap();
            }
            let replay = run(
                &workload,
                &expected.frames,
                &expected.responses,
                &[config("untraced"), config("traced")],
                shadow_dir,
                Instant::now(),
            );
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(replay.passes, 2, "{name}");
            assert_eq!(replay.mismatches, 0, "{name}");
            assert!(replay.drift.is_empty(), "{name}: {:?}", replay.drift);
            if spec.cache_capacity > 0 {
                assert!(
                    replay.cache.hits > 0 && replay.cache.evictions > 0,
                    "{name}"
                );
            } else {
                assert!(replay.counts.recoveries > 0, "{name}");
            }
        }
    }
}
