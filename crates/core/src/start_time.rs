//! Start-time evaluation under concrete delay profiles.
//!
//! A relative schedule leaves the unbounded delays symbolic. Once an
//! execution *profile* `{δ(a), a ∈ A}` is known (at run time, or chosen by
//! a simulator), the start time of every operation follows the paper's
//! recursion:
//!
//! ```text
//! T(v) = max_{a ∈ A(v)} { T(a) + δ(a) + σ_a(v) }
//! ```
//!
//! computed here in one topological sweep. Theorems 4 and 6 guarantee the
//! same start times whether the full anchor sets, the relevant sets or the
//! irredundant sets supply the offsets — a property the test-suite checks
//! under random profiles.

use rsched_graph::{ConstraintGraph, EdgeId, ExecDelay, VertexId};

use crate::schedule::RelativeSchedule;

/// A concrete assignment of execution delays: fixed operations keep their
/// compile-time delay, unbounded operations (anchors) receive the value
/// chosen here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelayProfile {
    delays: Vec<u64>,
}

impl DelayProfile {
    /// A profile with every unbounded delay at its minimum, 0.
    pub fn zeros(graph: &ConstraintGraph) -> Self {
        let delays = graph
            .vertex_ids()
            .map(|v| graph.vertex(v).delay().zeroed())
            .collect();
        DelayProfile { delays }
    }

    /// The resolved delay `δ(v)` under this profile.
    pub fn delay(&self, v: VertexId) -> u64 {
        self.delays[v.index()]
    }
}

/// Start times `T(v)` of every vertex under a delay profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartTimes {
    times: Vec<u64>,
}

impl StartTimes {
    /// Wraps externally observed start times (e.g. from a simulator) so
    /// they can be checked with [`verify_start_times`]. `times[i]` is the
    /// start time of the vertex with index `i`.
    pub fn from_raw(times: Vec<u64>) -> Self {
        StartTimes { times }
    }

    /// The start time `T(v)`.
    pub fn time(&self, v: VertexId) -> u64 {
        self.times[v.index()]
    }

    /// All start times, indexed by vertex index.
    pub fn as_slice(&self) -> &[u64] {
        &self.times
    }

    /// The overall latency: the start time of the sink.
    pub fn latency(&self, graph: &ConstraintGraph) -> u64 {
        self.time(graph.sink())
    }
}

/// Evaluates the start-time recursion `T(v) = max_{a ∈ S(v)} {T(a) + δ(a)
/// + σ_a(v)}` over the anchors tracked by `schedule` in one topological
/// sweep of `G_f`.
///
/// The source starts at 0. Operations whose tracked set is empty (only the
/// source itself, in a polar graph) also start at 0. The sweep follows
/// the order the graph keeps with its forward rank, so it cannot fail.
pub fn start_times(
    graph: &ConstraintGraph,
    schedule: &RelativeSchedule,
    profile: &DelayProfile,
) -> StartTimes {
    let topo = graph.forward_topological_order();
    let mut times = vec![0u64; graph.n_vertices()];
    for &v in topo.order() {
        let mut t = 0u64;
        for (a, off) in schedule.offsets_of(v) {
            debug_assert!(off >= 0, "minimum offsets are non-negative");
            let cand = times[a.index()] + profile.delay(a) + off.max(0) as u64;
            t = t.max(cand);
        }
        times[v.index()] = t;
    }
    StartTimes { times }
}

/// Incrementally re-evaluates start times after a schedule's offsets
/// rose at the vertices in `cone`.
///
/// Preconditions: `prev` holds the exact start times (under `profile`) of
/// an earlier schedule whose tracked sets and offsets differ from
/// `schedule` only at `cone` vertices, and only by *growth* — offsets
/// rose or `(vertex, anchor)` pairs were added, never removed. This is
/// precisely the state after [`relax_additive`](crate::relax_additive).
///
/// The recursion `T(v) = max_a {T(a) + δ(a) + σ_a(v)}` only consumes the
/// times of *anchors*, so a vertex's time moves only when its own row
/// changed (a `cone` member) or when an anchor it tracks moved — which
/// the worklist follows transitively. Times are monotone under growth, so
/// re-evaluating from `prev` converges to exactly the times a fresh
/// [`start_times`] sweep would produce, in time proportional to the
/// perturbed region instead of `O(|V| · |A|)`.
///
/// Returns the updated times plus the vertices whose time rose.
pub fn update_start_times(
    graph: &ConstraintGraph,
    schedule: &RelativeSchedule,
    profile: &DelayProfile,
    prev: &StartTimes,
    cone: &[VertexId],
) -> (StartTimes, Vec<VertexId>) {
    let mut times = prev.as_slice().to_vec();
    let sets = schedule.tracked_sets();
    let mut rose = Vec::new();
    let mut is_risen = vec![false; graph.n_vertices()];
    let mut in_queue = vec![false; graph.n_vertices()];
    let mut queue = std::collections::VecDeque::new();
    for &v in cone {
        if !in_queue[v.index()] {
            in_queue[v.index()] = true;
            queue.push_back(v);
        }
    }
    while let Some(v) = queue.pop_front() {
        in_queue[v.index()] = false;
        let mut t = 0u64;
        for (a, off) in schedule.offsets_of(v) {
            debug_assert!(off >= 0, "minimum offsets are non-negative");
            t = t.max(times[a.index()] + profile.delay(a) + off.max(0) as u64);
        }
        if t <= times[v.index()] {
            continue;
        }
        times[v.index()] = t;
        if !is_risen[v.index()] {
            is_risen[v.index()] = true;
            rose.push(v);
        }
        // A risen anchor feeds the recursion of every vertex tracking it.
        if sets.anchor_index(v).is_some() {
            for w in graph.vertex_ids() {
                if sets.contains(w, v) && !in_queue[w.index()] {
                    in_queue[w.index()] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    (StartTimes { times }, rose)
}

/// A timing-constraint violation observed on concrete start times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingViolation {
    /// The violated edge.
    pub edge: EdgeId,
    /// Start time of the edge tail.
    pub tail_time: u64,
    /// Start time of the edge head.
    pub head_time: u64,
    /// The resolved weight the edge required (`T(head) ≥ T(tail) + weight`).
    pub required_weight: i64,
}

/// Checks every edge inequality of the constraint graph against concrete
/// start times: for each edge `(u, v)` with (profile-resolved) weight `w`,
/// `T(v) ≥ T(u) + w` must hold.
///
/// Sequencing edges resolve their unbounded weights through the profile;
/// constraint edges use their fixed weights. Returns every violation (an
/// empty vector means the start times satisfy all dependencies, minimum
/// and maximum timing constraints).
pub fn verify_start_times(
    graph: &ConstraintGraph,
    times: &StartTimes,
    profile: &DelayProfile,
) -> Vec<TimingViolation> {
    let mut violations = Vec::new();
    for (id, e) in graph.edges() {
        let w = match e.weight() {
            rsched_graph::Weight::Fixed(w) => w,
            rsched_graph::Weight::Unbounded { anchor, extra } => {
                profile.delay(anchor) as i64 + extra
            }
        };
        let tu = times.time(e.from());
        let tv = times.time(e.to());
        if (tv as i64) < tu as i64 + w {
            violations.push(TimingViolation {
                edge: id,
                tail_time: tu,
                head_time: tv,
                required_weight: w,
            });
        }
    }
    violations
}

/// Builds a [`DelayProfile`] that validates fixed delays against `graph`.
///
/// Convenience constructor enforcing the "profiles choose only unbounded
/// delays" rule with a graph in hand.
pub fn profile_for(graph: &ConstraintGraph) -> ProfileBuilder<'_> {
    ProfileBuilder {
        graph,
        profile: DelayProfile::zeros(graph),
    }
}

/// Builder for delay profiles; see [`profile_for`].
#[derive(Debug, Clone)]
pub struct ProfileBuilder<'g> {
    graph: &'g ConstraintGraph,
    profile: DelayProfile,
}

impl<'g> ProfileBuilder<'g> {
    /// Chooses the delay of unbounded operation `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` has a fixed execution delay.
    pub fn with_delay(mut self, v: VertexId, delay: u64) -> Self {
        assert!(
            matches!(self.graph.vertex(v).delay(), ExecDelay::Unbounded),
            "cannot override the fixed delay of {v}"
        );
        self.profile.delays[v.index()] = delay;
        self
    }

    /// Finalizes the profile.
    pub fn build(self) -> DelayProfile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig2;
    use crate::schedule::schedule;

    #[test]
    fn fig2_start_times_follow_recursion() {
        let (g, a, [v1, v2, v3, v4]) = fig2();
        let omega = schedule(&g).unwrap();
        // δ(a) = 7: T(v4) = max(T(v0)+0+8, T(a)+7+5) = max(8, 12) = 12.
        let profile = profile_for(&g).with_delay(a, 7).build();
        let times = start_times(&g, &omega, &profile);
        assert_eq!(times.time(g.source()), 0);
        assert_eq!(times.time(a), 0);
        assert_eq!(times.time(v1), 0);
        assert_eq!(times.time(v2), 2);
        assert_eq!(times.time(v3), 7);
        assert_eq!(times.time(v4), 12);
        assert!(verify_start_times(&g, &times, &profile).is_empty());
    }

    #[test]
    fn zero_profile_matches_source_offsets() {
        let (g, _, [v1, v2, v3, v4]) = fig2();
        let omega = schedule(&g).unwrap();
        let profile = DelayProfile::zeros(&g);
        let times = start_times(&g, &omega, &profile);
        for v in [v1, v2, v3, v4] {
            assert_eq!(
                times.time(v) as i64,
                omega.offset(v, g.source()).unwrap(),
                "with all δ = 0 the start times collapse to the source offsets"
            );
        }
        assert!(verify_start_times(&g, &times, &profile).is_empty());
    }

    #[test]
    fn constraints_hold_across_profiles() {
        let (g, a, _) = fig2();
        let omega = schedule(&g).unwrap();
        for d in [0u64, 1, 3, 10, 100] {
            let profile = profile_for(&g).with_delay(a, d).build();
            let times = start_times(&g, &omega, &profile);
            assert!(
                verify_start_times(&g, &times, &profile).is_empty(),
                "violation under δ(a) = {d}"
            );
        }
    }

    #[test]
    fn verify_reports_bogus_times() {
        let (g, _, _) = fig2();
        let profile = DelayProfile::zeros(&g);
        // All-zero start times violate the fixed-delay sequencing edges.
        let times = StartTimes {
            times: vec![0; g.n_vertices()],
        };
        let violations = verify_start_times(&g, &times, &profile);
        assert!(!violations.is_empty());
        assert!(violations.iter().all(|v| v.required_weight > 0));
    }

    #[test]
    #[should_panic(expected = "fixed delay")]
    fn profile_rejects_fixed_delay_override() {
        let (g, _, [v1, ..]) = fig2();
        let _ = profile_for(&g).with_delay(v1, 3);
    }

    /// Theorems 4 & 6: start times from the irredundant restriction equal
    /// start times from the full anchor sets.
    #[test]
    fn irredundant_start_times_equal_full() {
        let (g, a, _) = {
            let (g, a, vs) = fig2();
            (g, a, vs)
        };
        let omega = schedule(&g).unwrap();
        let analysis = crate::anchors::IrredundantAnchors::analyze(&g).unwrap();
        let restricted = omega.restrict(analysis.irredundant.family());
        for d in [0u64, 2, 9, 42] {
            let profile = profile_for(&g).with_delay(a, d).build();
            let full = start_times(&g, &omega, &profile);
            let ir = start_times(&g, &restricted, &profile);
            assert_eq!(full, ir, "δ(a) = {d}");
        }
    }
}
