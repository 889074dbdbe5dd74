//! A bus-interface scenario from the paper's introduction: two writes to
//! an external bus must be synchronized against independent handshakes,
//! with a bounded gap between them. The naive specification is ill-posed;
//! `makeWellposed` serializes it minimally, and the simulator validates
//! the result under adversarial handshake delays.
//!
//! Run with `cargo run --example external_sync`.

use relative_scheduling::core::{check_well_posed, make_well_posed, schedule, WellPosedness};
use relative_scheduling::ctrl::{generate, ControlStyle};
use relative_scheduling::graph::{ConstraintGraph, ExecDelay};
use relative_scheduling::sim::{DelaySource, Simulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two bus transactions, each gated by its own handshake; the second
    // write must land within 4 cycles of the first (a bus-protocol
    // window).
    let mut g = ConstraintGraph::new();
    let hs1 = g.add_operation("wait_grant1", ExecDelay::Unbounded);
    let hs2 = g.add_operation("wait_grant2", ExecDelay::Unbounded);
    let w1 = g.add_operation("write_addr", ExecDelay::Fixed(1));
    let w2 = g.add_operation("write_data", ExecDelay::Fixed(1));
    g.add_dependency(hs1, w1)?;
    g.add_dependency(hs2, w2)?;
    g.add_min_constraint(w1, w2, 1)?; // data strictly after address
    g.add_max_constraint(w1, w2, 4)?; // within the protocol window
    g.polarize()?;

    // The max constraint depends on δ(grant2), which write_addr knows
    // nothing about: ill-posed.
    match check_well_posed(&g) {
        WellPosedness::IllPosed { violations } => {
            println!("as specified: ill-posed");
            for v in &violations {
                println!(
                    "  backward edge {} -> {} missing anchors {:?}",
                    v.from, v.to, v.missing
                );
            }
        }
        other => println!("unexpected: {other:?}"),
    }

    // Minimal serialization: write_addr additionally waits for grant2, so
    // both unknowns are resolved before the constrained pair starts.
    let report = make_well_posed(&mut g)?;
    println!(
        "\nmakeWellposed added {} serialization edge(s): {:?}",
        report.len(),
        report
            .added
            .iter()
            .map(|(a, v)| format!("{} -> {}", g.vertex(*a).name(), g.vertex(*v).name()))
            .collect::<Vec<_>>()
    );
    assert!(check_well_posed(&g).is_well_posed());

    // Schedule and simulate under adversarial handshake delays.
    let omega = schedule(&g)?;
    let unit = generate(&g, &omega, ControlStyle::Counter);
    for seed in 0..40u64 {
        let run = Simulator::new(&g, &unit).run(&DelaySource::random(seed, 12))?;
        assert!(run.violations.is_empty(), "seed {seed}");
        let gap = run.start[w2.index()] as i64 - run.start[w1.index()] as i64;
        assert!(
            (1..=4).contains(&gap),
            "seed {seed}: gap {gap} outside [1, 4]"
        );
    }
    println!(
        "\n40 adversarial handshake profiles: write gap always within the \
         [1, 4]-cycle protocol window"
    );
    Ok(())
}
