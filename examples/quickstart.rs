//! Quickstart: build the paper's Fig. 2 constraint graph with the public
//! API, check well-posedness, schedule, and print Table II.
//!
//! Run with `cargo run --example quickstart`.

use relative_scheduling::core::{check_well_posed, profile_for, schedule, start_times, AnchorSets};
use relative_scheduling::graph::{ConstraintGraph, ExecDelay};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Fig. 2 graph: one external synchronization `a`, four fixed
    // operations, a minimum constraint source -> v3 (3 cycles) and a
    // maximum constraint v1 -> v2 (5 cycles).
    let mut g = ConstraintGraph::new();
    let a = g.add_operation("a", ExecDelay::Unbounded);
    let v1 = g.add_operation("v1", ExecDelay::Fixed(2));
    let v2 = g.add_operation("v2", ExecDelay::Fixed(1));
    let v3 = g.add_operation("v3", ExecDelay::Fixed(5));
    let v4 = g.add_operation("v4", ExecDelay::Fixed(1));
    let s = g.source();
    g.add_dependency(s, a)?;
    g.add_dependency(s, v1)?;
    g.add_dependency(v1, v2)?;
    g.add_dependency(a, v3)?;
    g.add_dependency(v2, v4)?;
    g.add_dependency(v3, v4)?;
    g.add_min_constraint(s, v3, 3)?;
    g.add_max_constraint(v1, v2, 5)?;
    g.polarize()?;

    // 1. Are the constraints satisfiable for every value of δ(a)?
    let posedness = check_well_posed(&g);
    println!("well-posedness: {posedness:?}\n");

    // 2. Anchor sets and the minimum relative schedule (Table II).
    let Ok(sets) = AnchorSets::compute(&g);
    let omega = schedule(&g)?;
    println!("vertex   A(v)              σ_v0   σ_a");
    for v in [a, v1, v2, v3, v4] {
        let names: Vec<&str> = sets.set(v).map(|x| g.vertex(x).name()).collect();
        let fmt = |o: Option<i64>| o.map_or("-".into(), |o| o.to_string());
        println!(
            "{:<8} {{{:<14}}} {:>5} {:>5}",
            g.vertex(v).name(),
            names.join(", "),
            fmt(omega.offset(v, s)),
            fmt(omega.offset(v, a)),
        );
    }

    // 3. Concrete start times once δ(a) is known, e.g. 7 cycles:
    //    T(v4) = max(T(v0)+0+8, T(a)+7+5) = 12.
    let profile = profile_for(&g).with_delay(a, 7).build();
    let times = start_times(&g, &omega, &profile);
    println!("\nwith δ(a) = 7: T(v4) = {}", times.time(v4));
    assert_eq!(times.time(v4), 12);
    Ok(())
}
