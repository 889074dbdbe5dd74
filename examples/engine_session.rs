//! Incremental re-scheduling with a long-lived engine `Session`.
//!
//! A bus interface waits on an external handshake (an *anchor* — its
//! delay is unknown until run time), then drives and acknowledges the
//! bus. A designer explores timing constraints interactively: an added
//! edge or constraint repairs the previous answer in place instead of
//! scheduling from scratch, a removal reruns the fixpoint cold, and every
//! verdict — including ill-posedness witnesses — is bit-identical to a
//! cold `rsched_core::schedule()` of the same graph.
//!
//! ```sh
//! cargo run --example engine_session
//! ```

use relative_scheduling::core::WellPosedness;
use relative_scheduling::engine::{EditOutcome, Session};
use relative_scheduling::graph::{ConstraintGraph, ExecDelay};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The starting design: handshake -> drive -> ack, plus a second
    // transfer that waits on its own external ready signal.
    let mut g = ConstraintGraph::new();
    let hs = g.add_operation("handshake", ExecDelay::Unbounded);
    let drive = g.add_operation("drive", ExecDelay::Fixed(2));
    let ack = g.add_operation("ack", ExecDelay::Fixed(1));
    let ready = g.add_operation("ready", ExecDelay::Unbounded);
    let xfer = g.add_operation("xfer", ExecDelay::Fixed(3));
    g.add_dependency(hs, drive)?;
    g.add_dependency(drive, ack)?;
    g.add_dependency(ready, xfer)?;
    g.polarize()?;

    // Opening a session runs the full pipeline once: anchor sets,
    // well-posedness (Theorem 2), minimum schedule (Theorem 8).
    let mut session = Session::open(g)?;
    let omega = session.schedule().expect("initial design is well-posed");
    println!(
        "initial: ack starts {:?} cycles after handshake completes",
        omega.offset(ack, hs)
    );

    // Edit 1: bound the drive->ack latency. The anchor roster cannot
    // change on an additive edit, so the previous offsets seed a
    // worklist relaxation that only touches the perturbed region.
    match session.add_max_constraint(drive, ack, 4) {
        EditOutcome::Rescheduled {
            iterations,
            warm_anchors,
            total_anchors,
        } => {
            println!(
                "max(drive,ack)=4: rescheduled in {iterations} iteration(s), \
                      {warm_anchors}/{total_anchors} anchor columns warm"
            );
        }
        other => println!("max(drive,ack)=4: {other:?}"),
    }

    // Edit 2: an ill-posed constraint — xfer within 6 cycles of drive,
    // but xfer waits on `ready`, whose unbounded delay drive never sees
    // (Theorem 2). The session reports the same witness the cold
    // checker would; the previous schedule is kept but marked stale.
    match session.add_max_constraint(drive, xfer, 6) {
        EditOutcome::IllPosed { violations } => {
            let v = &violations[0];
            let names: Vec<_> = v
                .missing
                .iter()
                .map(|&a| session.graph().vertex(a).name().to_owned())
                .collect();
            println!("max(drive,xfer)=6: ill-posed — head misses anchors {names:?}");
        }
        other => println!("max(drive,xfer)=6: {other:?}"),
    }

    // Edit 3: repair it the way `makeWellposed` would — serialize the
    // missing anchor *before* the constraint head, so drive only starts
    // once `ready` has completed and both ends see the same delay.
    match session.add_dependency(ready, drive) {
        EditOutcome::Rescheduled { .. } => {
            assert!(matches!(session.posedness(), WellPosedness::WellPosed));
            let omega = session.schedule().expect("repaired");
            println!(
                "serialized ready->drive: well-posed again, \
                      xfer offset from ready = {:?}",
                omega.offset(xfer, ready)
            );
        }
        other => println!("repair: {other:?}"),
    }

    // Edit 4: drop the drive->ack bound again. A removal can lower
    // offsets, so the previous answer is no lower bound any more: the
    // session reruns the fixpoint cold and carries no column over.
    let bound = session
        .graph()
        .backward_edges()
        .find(|(_, e)| e.from() == ack && e.to() == drive)
        .map(|(id, _)| id)
        .expect("the max constraint is a backward edge ack -> drive");
    match session.remove_edge(bound) {
        EditOutcome::Rescheduled {
            iterations,
            warm_anchors,
            total_anchors,
        } => {
            println!(
                "removed max(drive,ack): rescheduled cold in {iterations} iteration(s), \
                      {warm_anchors}/{total_anchors} anchor columns warm"
            );
        }
        other => println!("removed max(drive,ack): {other:?}"),
    }

    let st = session.stats();
    println!(
        "session stats: {} edits, {} reschedules, {} warm / {} cold anchor columns",
        st.edits, st.reschedules, st.warm_anchor_columns, st.cold_anchor_columns
    );
    Ok(())
}
