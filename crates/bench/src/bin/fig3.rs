//! Regenerates Fig. 3: ill-posed vs well-posed timing constraints, and
//! the `makeWellposed` repair of 3(b) into 3(c).

use rsched_core::{check_well_posed, make_well_posed, ScheduleError, WellPosedness};
use rsched_designs::paper::{fig3a, fig3b};
use rsched_graph::DotOptions;

fn main() {
    println!("Fig. 3(a): anchor on the constrained path");
    let (mut ga, a, (vi, _vj)) = fig3a();
    report(&ga);
    match make_well_posed(&mut ga) {
        Err(ScheduleError::CannotSerialize { anchor, vertex }) => println!(
            "  makeWellposed: cannot serialize {vertex} after {anchor} \
             (unbounded cycle) -> constraints are inconsistent\n"
        ),
        other => println!("  unexpected outcome: {other:?}\n"),
    }
    let _ = (a, vi);

    println!("Fig. 3(b): independent synchronizations");
    let (mut gb, (_, a2), (vi, _)) = fig3b();
    report(&gb);
    let fix = make_well_posed(&mut gb).expect("repairable");
    println!(
        "  makeWellposed added {} edge(s): {:?} (Fig. 3(c))",
        fix.len(),
        fix.added
    );
    assert_eq!(fix.added, vec![(a2, vi)]);
    report(&gb);
    println!(
        "\nFig. 3(c) graph in DOT:\n{}",
        gb.to_dot(&DotOptions::default())
    );
}

fn report(g: &rsched_graph::ConstraintGraph) {
    match check_well_posed(g) {
        WellPosedness::WellPosed => println!("  -> well-posed"),
        WellPosedness::Unfeasible { witness } => {
            println!("  -> unfeasible (positive cycle at {witness})")
        }
        WellPosedness::IllPosed { violations } => {
            for v in violations {
                println!(
                    "  -> ill-posed: backward edge {} -> {} missing anchors {:?}",
                    v.from, v.to, v.missing
                );
            }
        }
    }
}
