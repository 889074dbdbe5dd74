//! Regenerates Table II: anchor sets and minimum offsets of the Fig. 2
//! constraint graph.

use rsched_core::{schedule, AnchorSets};
use rsched_designs::paper::fig2;

fn main() {
    let (g, a, _) = fig2();
    let Ok(sets) = AnchorSets::compute(&g);
    let omega = schedule(&g).expect("well-posed");
    println!("Table II — anchor sets and minimum offsets (Fig. 2 graph)");
    println!(
        "{:<8} {:<16} {:>6} {:>6}",
        "vertex", "anchor set A(v)", "σ_v0", "σ_a"
    );
    println!("{}", "-".repeat(40));
    for v in g.vertex_ids() {
        if v == g.sink() {
            continue;
        }
        let set: Vec<String> = sets.set(v).map(|x| g.vertex(x).name().to_owned()).collect();
        let fmt = |o: Option<i64>| o.map_or("-".to_owned(), |o| o.to_string());
        println!(
            "{:<8} {{{:<14}}} {:>6} {:>6}",
            g.vertex(v).name(),
            set.join(", "),
            fmt(omega.offset(v, g.source())),
            fmt(omega.offset(v, a)),
        );
    }
}
