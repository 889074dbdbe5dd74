//! Differential fuzzing of the canonical-form schedule cache.
//!
//! The cache's whole contract is *invisibility*: a hit must return
//! exactly what the cold kernel would have computed, bit for bit, on the
//! querying graph's own labeling — offsets, anchor sets, and iteration
//! count included. [`fuzz_cache`] attacks that contract from two sides:
//!
//! **Kernel phase.** Every iteration grows a random polar graph
//! ([`GraphMutator`]), derives several *relabelings* — the same structure
//! with operations renamed and re-declared in a shuffled order, so vertex
//! ids, edge ids, and iteration orders all differ — and schedules each
//! labeling twice: cold ([`rsched_core::schedule`]) and through a shared
//! [`ScheduleCache`] ([`schedule_cached`]). The two results must be
//! equal under full [`RelativeSchedule`](rsched_core::RelativeSchedule)
//! equality, and every well-posed cache *hit* is additionally refereed
//! by the first-principles oracle ([`crate::verify`]) against the
//! querying labeling — so a wrong
//! permutation mapping cannot hide behind a correct canonical result.
//!
//! **Serve phase.** The same request script (opens with relabeled
//! duplicate designs, edits, `batch_schedule` with duplicates, stats) is
//! run through two single-worker `serve` instances: cache disabled vs
//! enabled. Every response must be byte-identical apart from the `stats`
//! op's `"cache"` counter object, and the cached run must actually take
//! hits — a cache that never hits trivially passes the differential.
//!
//! Failing designs are written as replayable `.sched` files when a repro
//! directory is configured.

use std::fmt;
use std::io::Cursor;
use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rsched_cache::{schedule_cached, ScheduleCache};
use rsched_core::schedule;
use rsched_graph::ConstraintGraph;

use rsched_engine::json::Json;
use rsched_engine::{serve, ServeConfig};

use crate::fuzz::GraphMutator;

/// Tuning knobs for [`fuzz_cache`].
#[derive(Debug, Clone)]
pub struct CacheFuzzConfig {
    /// PRNG seed; the run is a pure function of the configuration.
    pub seed: u64,
    /// Kernel-phase iterations (one random graph each, several
    /// relabelings per graph).
    pub iters: usize,
    /// Serve-phase rounds (one differential script each).
    pub rounds: usize,
    /// Cache capacity used by both phases.
    pub capacity: usize,
    /// Where to write `.sched` repro files for failures; `None` keeps
    /// everything in memory.
    pub repro_dir: Option<PathBuf>,
}

impl Default for CacheFuzzConfig {
    fn default() -> Self {
        CacheFuzzConfig {
            seed: 0,
            iters: 200,
            rounds: 4,
            capacity: 256,
            repro_dir: None,
        }
    }
}

/// Outcome of a [`fuzz_cache`] run.
#[derive(Debug, Clone, Default)]
pub struct CacheFuzzReport {
    /// Kernel-phase graphs generated.
    pub iters: usize,
    /// Labelings scheduled (cold and cached) across all graphs.
    pub labelings: usize,
    /// Cache hits observed in the kernel phase.
    pub hits: usize,
    /// Hits refereed by the first-principles oracle.
    pub oracle_checked: usize,
    /// Serve-phase differential rounds executed.
    pub serve_rounds: usize,
    /// Request frames sent per serve configuration.
    pub serve_frames: usize,
    /// Cache hits observed by the cached serve runs.
    pub serve_hits: usize,
    /// Contract violations, in discovery order.
    pub failures: Vec<String>,
}

impl CacheFuzzReport {
    /// `true` when every hit was bit-identical and every serve
    /// differential matched.
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for CacheFuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} graph(s), {} labeling(s), {} cache hit(s) ({} oracle-refereed)",
            self.iters, self.labelings, self.hits, self.oracle_checked
        )?;
        writeln!(
            f,
            "{} serve round(s), {} frame(s) per config, {} serve hit(s)",
            self.serve_rounds, self.serve_frames, self.serve_hits
        )?;
        if self.failures.is_empty() {
            writeln!(f, "cache transparency held on every probe")?;
        } else {
            writeln!(f, "{} FAILURE(S):", self.failures.len())?;
            for fail in &self.failures {
                writeln!(f, "  {}", fail.lines().next().unwrap_or_default())?;
            }
        }
        Ok(())
    }
}

/// Runs the cache-transparency fuzzer; see the module docs for the
/// contract it checks.
pub fn fuzz_cache(config: &CacheFuzzConfig) -> CacheFuzzReport {
    let mut report = CacheFuzzReport::default();
    kernel_phase(config, &mut report);
    serve_phase(config, &mut report);
    report
}

/// Kernel phase: random graphs, random relabelings, cached vs cold.
fn kernel_phase(config: &CacheFuzzConfig, report: &mut CacheFuzzReport) {
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0xCAC4E));
    let mut designs = GraphMutator::new(config.seed.wrapping_add(0xCAC4E));
    let cache = ScheduleCache::new(config.capacity);
    for iter in 0..config.iters {
        report.iters += 1;
        let base = designs.grow(rng.gen_range(3usize..=9));
        let base_text = base.to_text();
        let n_labelings = rng.gen_range(2usize..=4);
        for l in 0..n_labelings {
            let text = if l == 0 {
                base_text.clone()
            } else {
                relabel(&mut rng, &base_text, iter * 8 + l)
            };
            let Ok(graph) = ConstraintGraph::from_text(&text) else {
                report
                    .failures
                    .push(format!("iter {iter}: relabeled design no longer parses"));
                write_repro(config, &format!("parse_iter{iter}"), &text, "did not parse");
                continue;
            };
            report.labelings += 1;
            let cold = schedule(&graph);
            let before = cache.stats().hits;
            let cached = schedule_cached(&cache, &graph);
            let hit = cache.stats().hits > before;
            if hit {
                report.hits += 1;
            }
            match (&cold, &cached) {
                (Ok(want), Ok((got, _))) => {
                    if want != got {
                        report.failures.push(format!(
                            "iter {iter} labeling {l}: cached schedule diverges from cold \
                             (hit={hit})"
                        ));
                        write_repro(
                            config,
                            &format!("diverge_iter{iter}_l{l}"),
                            &text,
                            "cached != cold",
                        );
                    } else if hit {
                        // The hit went through canonicalize → probe →
                        // un-canonicalize; referee the final offsets
                        // against the paper's theorems on THIS labeling.
                        report.oracle_checked += 1;
                        if let Some((label, witness)) = crate::verify(&graph, got).first_violation()
                        {
                            report.failures.push(format!(
                                "iter {iter} labeling {l}: oracle violation on hit: \
                                 {label}: {witness}"
                            ));
                            write_repro(
                                config,
                                &format!("oracle_iter{iter}_l{l}"),
                                &text,
                                "oracle violation on hit",
                            );
                        }
                    }
                }
                (Err(want), Err(got)) => {
                    if want != got {
                        report.failures.push(format!(
                            "iter {iter} labeling {l}: cached error '{got}' != cold '{want}'"
                        ));
                        write_repro(
                            config,
                            &format!("error_iter{iter}_l{l}"),
                            &text,
                            "error divergence",
                        );
                    }
                }
                (want, got) => {
                    report.failures.push(format!(
                        "iter {iter} labeling {l}: verdict divergence: cold ok={}, cached ok={}",
                        want.is_ok(),
                        got.is_ok()
                    ));
                    write_repro(
                        config,
                        &format!("verdict_iter{iter}_l{l}"),
                        &text,
                        "verdict divergence",
                    );
                }
            }
            if report.failures.len() >= 5 {
                return;
            }
        }
    }
    if report.iters > 0 && report.hits == 0 {
        report
            .failures
            .push("kernel phase took zero cache hits — harness is not exercising the cache".into());
    }
}

/// Serve phase: the same script through cache-off and cache-on services.
fn serve_phase(config: &CacheFuzzConfig, report: &mut CacheFuzzReport) {
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x5E59E));
    let mut designs = GraphMutator::new(config.seed.wrapping_add(0x5E59E));
    for round in 0..config.rounds {
        report.serve_rounds += 1;
        let script = generate_script(&mut rng, &mut designs, round);
        let n_frames = script.lines().filter(|l| !l.trim().is_empty()).count();
        report.serve_frames = n_frames;
        let run = |capacity: usize| -> Result<Vec<Json>, String> {
            // One worker: per-slot execution is serial and sessions all
            // pin to slot 0, so responses come back in request order and
            // the two runs are comparable line by line.
            let serve_config = ServeConfig {
                workers: 1,
                cache_capacity: capacity,
                ..ServeConfig::default()
            };
            let mut output = Vec::new();
            serve(
                Cursor::new(script.clone().into_bytes()),
                &mut output,
                &serve_config,
            )
            .map_err(|e| format!("serve aborted: {e}"))?;
            String::from_utf8_lossy(&output)
                .lines()
                .filter(|l| !l.trim().is_empty())
                .map(|l| Json::parse(l).map_err(|e| format!("unparseable response: {e}")))
                .collect()
        };
        let (cold, cached) = match (run(0), run(config.capacity)) {
            (Ok(c), Ok(h)) => (c, h),
            (Err(e), _) | (_, Err(e)) => {
                report.failures.push(format!("round {round}: {e}"));
                continue;
            }
        };
        if cold.len() != cached.len() {
            report.failures.push(format!(
                "round {round}: {} cold response(s) vs {} cached",
                cold.len(),
                cached.len()
            ));
            continue;
        }
        let mut hits = 0i64;
        for (i, (want, got)) in cold.iter().zip(&cached).enumerate() {
            if let Some(cache_stats) = got.get("cache") {
                hits = hits.max(cache_stats.get("hits").and_then(Json::as_i64).unwrap_or(0));
            }
            if strip_cache(want) != strip_cache(got) {
                report.failures.push(format!(
                    "round {round} frame {i}: cached response diverges:\n  cold:   {}\n  cached: {}",
                    want.render(),
                    got.render()
                ));
                break;
            }
        }
        report.serve_hits += usize::try_from(hits).unwrap_or(0);
        if hits == 0 {
            report.failures.push(format!(
                "round {round}: cached serve run took zero hits despite duplicate designs"
            ));
        }
        if report.failures.len() >= 5 {
            return;
        }
    }
}

/// One differential script: a known well-posed design opened under two
/// labelings (guaranteeing at least one hit), random designs opened twice
/// each, a `batch_schedule` with internal duplicates, edits against the
/// known design, and a final stats probe.
fn generate_script(rng: &mut StdRng, designs: &mut GraphMutator, round: usize) -> String {
    let mut next_id = 0i64;
    let mut id = || {
        next_id += 1;
        next_id
    };
    let anchor_design =
        "op sync unbounded\nop alu 2\nop out 1\ndep sync alu\ndep alu out\nmax alu out 4\n"
            .to_owned();
    let anchor_relabeled = relabel(rng, &anchor_design, round * 101 + 1);
    let mut script = String::new();
    let mut push = |frame: Json| {
        script.push_str(&frame.render());
        script.push('\n');
    };
    let obj = |pairs: Vec<(&str, Json)>| {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    };
    let open = |id: i64, session: String, design: String| {
        obj(vec![
            ("id", Json::Int(id)),
            ("op", Json::from("open")),
            ("session", Json::Str(session)),
            ("design", Json::Str(design)),
        ])
    };
    push(open(id(), "anchor_a".into(), anchor_design.clone()));
    push(open(id(), "anchor_b".into(), anchor_relabeled));
    for s in 0..rng.gen_range(1usize..=3) {
        let design = designs.grow(rng.gen_range(3usize..=7)).to_text();
        let twin = relabel(rng, &design, round * 101 + 7 + s);
        push(open(id(), format!("r{s}_a"), design));
        push(open(id(), format!("r{s}_b"), twin));
    }
    let entries: Vec<Json> = (0..3)
        .map(|i| {
            obj(vec![
                ("name", Json::Str(format!("d{i}"))),
                ("design", Json::Str(anchor_design.clone())),
            ])
        })
        .collect();
    push(obj(vec![
        ("id", Json::Int(id())),
        ("op", Json::from("batch_schedule")),
        ("designs", Json::Array(entries)),
    ]));
    push(obj(vec![
        ("id", Json::Int(id())),
        ("op", Json::from("edit")),
        ("session", Json::Str("anchor_a".into())),
        ("kind", Json::from("add_min")),
        ("from", Json::from("alu")),
        ("to", Json::from("out")),
        ("value", Json::Int(rng.gen_range(0i64..4))),
    ]));
    for session in ["anchor_a", "anchor_b"] {
        push(obj(vec![
            ("id", Json::Int(id())),
            ("op", Json::from("schedule")),
            ("session", Json::Str(session.to_owned())),
        ]));
    }
    push(obj(vec![
        ("id", Json::Int(id())),
        ("op", Json::from("stats")),
        ("session", Json::Str("anchor_a".into())),
    ]));
    script
}

/// Relabels a design text: operations get fresh names and a shuffled
/// declaration order (constraint lines are shuffled too), which permutes
/// the parsed graph's vertex and edge id spaces without changing its
/// structure. `source`/`sink` references from polarized `to_text` output
/// are preserved verbatim.
fn relabel(rng: &mut StdRng, text: &str, salt: usize) -> String {
    let mut op_lines: Vec<Vec<String>> = Vec::new();
    let mut edge_lines: Vec<Vec<String>> = Vec::new();
    for line in text.lines() {
        let tokens: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        match tokens.first().map(String::as_str) {
            Some("op") => op_lines.push(tokens),
            Some("dep" | "min" | "max") => edge_lines.push(tokens),
            _ => {} // comments / blank lines
        }
    }
    let mut renames: Vec<(String, String)> = op_lines
        .iter()
        .enumerate()
        .map(|(i, tokens)| (tokens[1].clone(), format!("q{salt}_{i}")))
        .collect();
    // Deterministic lookup even if the old names overlap the new ones.
    renames.sort_by_key(|r| std::cmp::Reverse(r.0.len()));
    let rename = |name: &str| -> String {
        renames
            .iter()
            .find(|(old, _)| old == name)
            .map(|(_, new)| new.clone())
            .unwrap_or_else(|| name.to_owned())
    };
    shuffle(rng, &mut op_lines);
    shuffle(rng, &mut edge_lines);
    let mut out = String::new();
    for tokens in &op_lines {
        out.push_str(&format!("op {} {}\n", rename(&tokens[1]), tokens[2]));
    }
    for tokens in &edge_lines {
        out.push_str(&format!(
            "{} {} {}",
            tokens[0],
            rename(&tokens[1]),
            rename(&tokens[2])
        ));
        if let Some(v) = tokens.get(3) {
            out.push_str(&format!(" {v}"));
        }
        out.push('\n');
    }
    out
}

/// Fisher–Yates shuffle (the vendored `rand` has no `seq` module).
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0usize..=i);
        items.swap(i, j);
    }
}

/// Removes the `"cache"` member (latency- and history-bearing counters)
/// from a `stats` response so the cold/cached differential compares
/// everything else byte-for-byte.
fn strip_cache(response: &Json) -> Json {
    match response {
        Json::Object(pairs) => Json::Object(
            pairs
                .iter()
                .filter(|(k, _)| k != "cache")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Writes a failing design as a replayable `.sched` file; IO errors are
/// swallowed (fuzzing must not die on a full disk).
fn write_repro(config: &CacheFuzzConfig, stem: &str, design: &str, detail: &str) {
    let Some(dir) = &config.repro_dir else { return };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut text = String::new();
    for line in detail.lines() {
        text.push_str(&format!("# {line}\n"));
    }
    text.push_str(&format!("# seed {}\n", config.seed));
    text.push_str(design);
    let path = dir.join(format!("cache_seed{}_{stem}.sched", config.seed));
    let _ = std::fs::write(path, text);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_fuzz_smoke_run_is_clean() {
        let report = fuzz_cache(&CacheFuzzConfig {
            seed: 3,
            iters: 40,
            rounds: 2,
            capacity: 64,
            repro_dir: None,
        });
        assert!(report.is_ok(), "cache fuzz failures:\n{report}");
        assert!(report.hits > 0, "kernel phase must take hits: {report}");
        assert!(
            report.serve_hits > 0,
            "serve phase must take hits: {report}"
        );
        assert!(report.oracle_checked > 0, "hits must be refereed: {report}");
    }

    #[test]
    fn relabeling_preserves_structure_but_not_labels() {
        let mut rng = StdRng::seed_from_u64(9);
        let design = "op a 1\nop b 2\nop c unbounded\ndep a b\ndep c b\nmin a b 2\n";
        let twin_text = relabel(&mut rng, design, 7);
        let original = ConstraintGraph::from_text(design).unwrap();
        let twin = ConstraintGraph::from_text(&twin_text).unwrap();
        assert_eq!(original.n_vertices(), twin.n_vertices());
        assert_eq!(original.n_edges(), twin.n_edges());
        let a = original.canonical_key();
        let b = twin.canonical_key();
        assert_eq!(a.hash, b.hash, "relabeling must not change the key");
        assert_eq!(a.bytes, b.bytes);
    }
}
