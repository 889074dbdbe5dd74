//! Journal-replay determinism: recovery must be indistinguishable from
//! never having crashed.
//!
//! A live [`Session`] absorbs a random edit chain while a [`Journal`]
//! records exactly the accepted mutations (the same rule the serve layer
//! uses: rejected and no-op edits are never journaled). After **every**
//! prefix, [`Journal::replay`] rebuilds a fresh session from the design
//! text plus the history, and the rebuilt session must match the live
//! one bit for bit: identical well-posedness verdict (including
//! ill-posedness violation lists and unfeasibility witnesses), identical
//! anchor sets, and identical offsets for every vertex.
//!
//! Well-posed states are additionally judged by the first-principles
//! oracle, so replay is not just pinned to the live engine — both are
//! pinned to an independent re-derivation of the paper's theorems.

use proptest::prelude::*;

use rsched_designs::random::{random_constraint_graph, RandomGraphConfig};
use rsched_engine::{EditOutcome, Journal, JournalOp, Session};
use rsched_graph::{ConstraintGraph, ExecDelay, VertexId};

/// One random edit; indices are resolved modulo the live operation count
/// at application time, exactly as in the differential test.
#[derive(Debug, Clone)]
enum EditSpec {
    AddDep(usize, usize),
    AddMin(usize, usize, u64),
    AddMax(usize, usize, u64),
    /// Removes the first live edge between two picked operations, the
    /// same resolution rule the serve protocol and the journal use.
    RemoveBetween(usize, usize),
    /// `0` means unbounded, `d > 0` means `Fixed(d)`.
    SetDelay(usize, u64),
}

fn edit_spec() -> BoxedStrategy<EditSpec> {
    prop_oneof![
        2 => (0usize..64, 0usize..64).prop_map(|(a, b)| EditSpec::AddDep(a, b)),
        2 => (0usize..64, 0usize..64, 0u64..6).prop_map(|(a, b, l)| EditSpec::AddMin(a, b, l)),
        2 => (0usize..64, 0usize..64, 0u64..12).prop_map(|(a, b, u)| EditSpec::AddMax(a, b, u)),
        2 => (0usize..64, 0usize..64).prop_map(|(a, b)| EditSpec::RemoveBetween(a, b)),
        1 => (0usize..64, 0u64..5).prop_map(|(v, d)| EditSpec::SetDelay(v, d)),
    ]
    .boxed()
}

fn pick(list: &[(VertexId, String)], i: usize) -> (VertexId, String) {
    list[i % list.len()].clone()
}

/// Applies `spec` to the live session; `Some(op)` when the edit was
/// accepted and therefore belongs in the journal.
fn apply_named(spec: &EditSpec, live: &mut Session) -> Option<JournalOp> {
    let ops: Vec<(VertexId, String)> = live
        .graph()
        .operation_ids()
        .map(|v| (v, live.graph().vertex(v).name().to_owned()))
        .collect();
    let (outcome, op) = match *spec {
        EditSpec::AddDep(a, b) => {
            let ((f, fname), (t, tname)) = (pick(&ops, a), pick(&ops, b));
            (
                live.add_dependency(f, t),
                JournalOp::AddDep {
                    from: fname,
                    to: tname,
                },
            )
        }
        EditSpec::AddMin(a, b, value) => {
            let ((f, fname), (t, tname)) = (pick(&ops, a), pick(&ops, b));
            (
                live.add_min_constraint(f, t, value),
                JournalOp::AddMin {
                    from: fname,
                    to: tname,
                    value,
                },
            )
        }
        EditSpec::AddMax(a, b, value) => {
            let ((f, fname), (t, tname)) = (pick(&ops, a), pick(&ops, b));
            (
                live.add_max_constraint(f, t, value),
                JournalOp::AddMax {
                    from: fname,
                    to: tname,
                    value,
                },
            )
        }
        EditSpec::RemoveBetween(a, b) => {
            let ((f, fname), (t, tname)) = (pick(&ops, a), pick(&ops, b));
            let e = live.edge_between(f, t)?;
            (
                live.remove_edge(e),
                JournalOp::RemoveEdge {
                    from: fname,
                    to: tname,
                },
            )
        }
        EditSpec::SetDelay(v, d) => {
            let (v, name) = pick(&ops, v);
            let delay = if d == 0 {
                ExecDelay::Unbounded
            } else {
                ExecDelay::Fixed(d)
            };
            (
                live.set_delay(v, delay),
                JournalOp::SetDelay {
                    vertex: name,
                    delay,
                },
            )
        }
    };
    match outcome {
        EditOutcome::Rejected { .. } | EditOutcome::Unchanged => None,
        _ => Some(op),
    }
}

/// The core comparison: a session rebuilt by replay vs the live one.
fn assert_replay_matches(journal: &Journal, live: &Session, step: usize) {
    let replayed = journal
        .replay()
        .unwrap_or_else(|e| panic!("replay failed at step {step}: {e}"));
    assert_eq!(
        replayed.graph().n_edges(),
        live.graph().n_edges(),
        "edge count divergence at step {step}"
    );
    assert_eq!(
        replayed.posedness(),
        live.posedness(),
        "verdict divergence at step {step}"
    );
    match (replayed.schedule(), live.schedule()) {
        (Some(rebuilt), Some(original)) => {
            assert_eq!(
                rebuilt.anchors(),
                original.anchors(),
                "anchor divergence at step {step}"
            );
            for v in live.graph().vertex_ids() {
                for &a in original.anchors() {
                    assert_eq!(
                        rebuilt.offset(v, a),
                        original.offset(v, a),
                        "σ_{a}({v}) divergence at step {step}"
                    );
                }
            }
            // Independent referee: while the graph is well-posed, the
            // recovered schedule satisfies the paper's theorems on the
            // recovered graph. (Ill-posed sessions retain their last
            // schedule, which only has to match the live one.)
            if live.posedness().is_well_posed() {
                let report = rsched_oracle::verify(replayed.graph(), rebuilt);
                assert!(
                    report.is_ok(),
                    "oracle rejected the replayed schedule at step {step}:\n{report}"
                );
            }
        }
        (None, None) => {}
        (r, l) => panic!(
            "schedule presence divergence at step {step}: replay={}, live={}",
            r.is_some(),
            l.is_some()
        ),
    }
}

/// Distinct WAL path and failpoint scope per proptest case, so parallel
/// test threads never share state.
fn case_token() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0x6a6e6c); // "jnl"
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The design behind `tests/data/legacy-snapshot-with-analysis.wal`.
const LEGACY_DESIGN: &str = "op sync unbounded\nop alu 2\nop mul 3\nop out 1\n\
    dep sync alu\ndep sync mul\ndep alu out\ndep mul out\nmin sync mul 1\nmax alu out 4\n";

/// A WAL from before snapshots dropped the schedule: `rsched serve
/// --journal-dir D --snapshot-every 1` opened session `legacy` on
/// [`LEGACY_DESIGN`] and applied `add_min alu out 3`, so its one line is
/// a snapshot that still carries the saved schedule under `"analysis"`.
/// Recovery reads only that field's iteration count and rebuilds the
/// design plus the edit: the same schedule as the live session's.
#[test]
fn legacy_snapshot_with_analysis_recovers_the_design_plus_its_edit() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data/legacy-snapshot-with-analysis.wal");
    let text = std::fs::read_to_string(&fixture).expect("fixture is checked in");
    assert_eq!(text.lines().count(), 1, "{text}");
    assert!(
        text.starts_with(r#"{"op":"snapshot","session":"legacy","#),
        "{text}"
    );
    assert!(text.contains(r#""analysis":{"#), "{text}");
    // `recover` may rewrite or append to the file: work on a copy.
    let wal = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("legacy-{}.wal", case_token()));
    std::fs::copy(&fixture, &wal).unwrap();
    let (journal, recovered) = Journal::recover(&wal).expect("the legacy WAL recovers");
    assert_eq!(journal.session_name(), "legacy");
    assert!(journal.snapshotted());
    assert_eq!(journal.edits(), 0);

    let graph = ConstraintGraph::from_text(LEGACY_DESIGN).unwrap();
    let mut live = Session::open(graph).unwrap();
    let (alu, out) = (
        live.vertex_named("alu").unwrap(),
        live.vertex_named("out").unwrap(),
    );
    assert!(live.add_min_constraint(alu, out, 3).is_scheduled());
    assert_eq!(recovered.graph().to_text(), live.graph().to_text());
    assert_eq!(recovered.posedness(), live.posedness());
    let (rebuilt, original) = (recovered.schedule().unwrap(), live.schedule().unwrap());
    assert_eq!(rebuilt.anchors(), original.anchors());
    for v in live.graph().vertex_ids() {
        for &a in original.anchors() {
            assert_eq!(rebuilt.offset(v, a), original.offset(v, a), "σ_{a}({v})");
        }
    }
    assert_eq!(rebuilt, original);
    assert_replay_matches(&journal, &live, 1);
    drop(journal);
    let _ = std::fs::remove_file(&wal);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Snapshot compaction is invisible to recovery: a journal that
    /// compacts aggressively (snapshot + delta) replays bit-identically
    /// to an uncompacted full-history journal at every prefix — verdicts,
    /// anchors, offsets, and the oracle's judgement all included. A crash
    /// injected *inside* the snapshot step (failpoint `journal::snapshot`)
    /// must leave the old journal fully recoverable, and the WAL mirror
    /// must end up holding exactly the snapshot-plus-delta history, from
    /// which [`Journal::recover`] rebuilds the live session.
    #[test]
    fn compacted_replay_matches_full_history_replay(
        seed in 0u64..10_000,
        n_ops in 4usize..12,
        snapshot_every in 1usize..4,
        crash_at in 0usize..12,
        edits in proptest::collection::vec(edit_spec(), 1..12),
    ) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use rsched_graph::failpoint::{self, FailAction};

        let design = random_constraint_graph(seed, &RandomGraphConfig {
            n_ops,
            ..RandomGraphConfig::default()
        })
        .to_text();
        let graph = ConstraintGraph::from_text(&design).expect("to_text round-trips");
        let mut live = Session::open(graph).expect("random designs are structurally sound");
        let token = case_token();
        let wal = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("compact-{token}.wal"));
        let mut full = Journal::open("s", design.clone(), None);
        let mut compacted = Journal::open("s", design, Some(wal.clone()));
        compacted.set_snapshot_every(snapshot_every);
        let _scope = failpoint::enter_scope(token);
        for (i, spec) in edits.iter().enumerate() {
            if let Some(op) = apply_named(spec, &mut live) {
                full.append(op.clone());
                compacted.append(op);
                if i == crash_at {
                    // One-shot crash inside the snapshot step. The
                    // attempt may also be a deferral (guards not met);
                    // only an actual unwind consumes the guard.
                    let _guard = failpoint::arm(
                        "journal::snapshot",
                        Some(token),
                        FailAction::Panic,
                        0,
                        Some(1),
                    );
                    let before = (compacted.edits(), compacted.compactions());
                    let crashed =
                        catch_unwind(AssertUnwindSafe(|| compacted.maybe_compact(&live)))
                            .is_err();
                    if crashed {
                        // Nothing moved: same delta, same base.
                        prop_assert_eq!(
                            (compacted.edits(), compacted.compactions()),
                            before
                        );
                    }
                } else {
                    compacted.maybe_compact(&live);
                }
            }
            assert_replay_matches(&full, &live, i + 1);
            assert_replay_matches(&compacted, &live, i + 1);
        }
        // The WAL mirror holds exactly the compacted history: one base
        // line (open or snapshot) plus the delta, every line valid JSON.
        compacted.sync();
        let mirrored = std::fs::read_to_string(&wal).expect("wal mirror exists");
        let lines: Vec<&str> = mirrored.lines().filter(|l| !l.trim().is_empty()).collect();
        prop_assert_eq!(lines.len(), 1 + compacted.edits());
        for line in &lines {
            let record = rsched_engine::json::Json::parse(line)
                .unwrap_or_else(|e| panic!("bad wal line ({e}): {line}"));
            prop_assert!(record.get("op").is_some(), "wal line without op: {}", line);
        }
        let base = rsched_engine::json::Json::parse(lines[0]).expect("parsed above");
        let base_op = base.get("op").and_then(rsched_engine::json::Json::as_str);
        if compacted.snapshotted() {
            prop_assert_eq!(base_op, Some("snapshot"));
        } else {
            prop_assert_eq!(base_op, Some("open"));
        }
        // Boot recovery reads that file back to the live session: every
        // edit kind, unbounded delays and snapshot lines (design and
        // iteration count) go through the WAL line decoder.
        let (recovered, session) = Journal::recover(&wal).expect("the wal mirror recovers");
        prop_assert_eq!(recovered.edits(), compacted.edits());
        prop_assert_eq!(recovered.snapshotted(), compacted.snapshotted());
        prop_assert_eq!(session.schedule(), live.schedule());
        assert_replay_matches(&recovered, &live, edits.len());
        drop(recovered);
        let _ = std::fs::remove_file(&wal);
    }

    /// Random designs, random accepted-edit histories: journal replay is
    /// indistinguishable from the live session at every prefix.
    #[test]
    fn replay_matches_live_at_every_prefix(
        seed in 0u64..10_000,
        n_ops in 4usize..16,
        edits in proptest::collection::vec(edit_spec(), 1..10),
    ) {
        let design = random_constraint_graph(seed, &RandomGraphConfig {
            n_ops,
            ..RandomGraphConfig::default()
        })
        .to_text();
        let graph = ConstraintGraph::from_text(&design).expect("to_text round-trips");
        let mut live = Session::open(graph).expect("random designs are structurally sound");
        let mut journal = Journal::open("s", design, None);
        assert_replay_matches(&journal, &live, 0);
        for (i, spec) in edits.iter().enumerate() {
            if let Some(op) = apply_named(spec, &mut live) {
                journal.append(op);
            }
            assert_replay_matches(&journal, &live, i + 1);
        }
        prop_assert!(journal.edits() <= edits.len());
    }
}
