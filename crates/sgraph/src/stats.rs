//! Bottom-up hierarchical scheduling and the anchor-set statistics of the
//! paper's Tables III and IV.

use rsched_core::{
    check_well_posed_with, make_well_posed, schedule_with_sets, AnchorSets, IrredundantAnchors,
    RelativeSchedule, RelevantAnchors, SerializationReport, WellPosedness,
};
use rsched_graph::ExecDelay;

use crate::design::{Design, SeqGraphId};
use crate::error::SgraphError;
use crate::lower::{lower_graph, LoweredGraph};

/// Scheduling outcome of one sequencing graph of the hierarchy.
#[derive(Debug, Clone)]
pub struct GraphSchedule {
    /// The graph's id within the design.
    pub id: SeqGraphId,
    /// Graph name.
    pub name: String,
    /// The lowered constraint graph and operation → vertex map.
    pub lowered: LoweredGraph,
    /// Full anchor sets `A(v)`.
    pub anchor_sets: AnchorSets,
    /// Irredundant anchor sets `IR(v)`.
    pub irredundant: IrredundantAnchors,
    /// Minimum relative schedule over the full anchor sets.
    pub schedule: RelativeSchedule,
    /// The same schedule restricted to the irredundant anchors.
    pub schedule_ir: RelativeSchedule,
    /// Latency of the graph: fixed when it holds no unbounded operation.
    pub latency: ExecDelay,
    /// Sequencing edges `make_well_posed` had to add (empty when the graph
    /// was well-posed as written).
    pub serialization: SerializationReport,
}

/// A fully scheduled hierarchical design.
#[derive(Debug, Clone)]
pub struct DesignSchedule {
    schedules: Vec<GraphSchedule>,
}

/// Options for [`schedule_design_with`].
#[derive(Debug, Clone)]
pub struct ScheduleOptions {
    /// Repair ill-posed graphs by minimal serialization (`makeWellposed`)
    /// instead of failing. Default `true`, matching the paper's flow
    /// (Fig. 9).
    pub serialize_ill_posed: bool,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions {
            serialize_ill_posed: true,
        }
    }
}

/// Schedules every graph of the design bottom-up (children before parents)
/// with default options — ill-posed graphs are minimally serialized, per
/// the paper's flow.
///
/// # Errors
///
/// Propagates hierarchy errors (recursion, dangling references), lowering
/// errors, and scheduling failures (unfeasible or unserializable
/// constraints).
pub fn schedule_design(design: &Design) -> Result<DesignSchedule, SgraphError> {
    schedule_design_with(design, &ScheduleOptions::default())
}

/// [`schedule_design`] with explicit options.
///
/// # Errors
///
/// Same conditions as [`schedule_design`]; with
/// `serialize_ill_posed = false`, ill-posed graphs fail instead of being
/// repaired.
pub fn schedule_design_with(
    design: &Design,
    options: &ScheduleOptions,
) -> Result<DesignSchedule, SgraphError> {
    let order = design.hierarchy_order()?;
    let mut latencies = vec![ExecDelay::Fixed(0); design.n_graphs()];
    let mut schedules: Vec<Option<GraphSchedule>> = vec![None; design.n_graphs()];
    for id in order {
        let seq = design.graph(id)?;
        let mut lowered = lower_graph(seq, &latencies)?;
        let wrap = |source: rsched_core::ScheduleError| SgraphError::Scheduling {
            graph: seq.name().to_owned(),
            source,
        };

        let Ok(mut sets) = AnchorSets::compute(&lowered.graph);
        let mut serialization = SerializationReport::default();
        match check_well_posed_with(&lowered.graph, &sets) {
            WellPosedness::WellPosed => {}
            WellPosedness::Unfeasible { witness } => {
                return Err(wrap(rsched_core::ScheduleError::Unfeasible { witness }));
            }
            WellPosedness::IllPosed { violations } => {
                if !options.serialize_ill_posed {
                    let v = &violations[0];
                    return Err(wrap(rsched_core::ScheduleError::IllPosed {
                        from: v.from,
                        to: v.to,
                        missing: v.missing.clone(),
                    }));
                }
                serialization = make_well_posed(&mut lowered.graph).map_err(wrap)?;
                Ok(sets) = AnchorSets::compute(&lowered.graph);
            }
        }

        let relevant = RelevantAnchors::compute(&lowered.graph);
        let irredundant =
            IrredundantAnchors::compute(&lowered.graph, &sets, &relevant).map_err(wrap)?;
        let schedule = schedule_with_sets(&lowered.graph, sets.family()).map_err(wrap)?;
        let schedule_ir = schedule.restrict(irredundant.family());

        let has_unbounded = lowered
            .graph
            .operation_ids()
            .any(|v| lowered.graph.vertex(v).delay().is_unbounded());
        let latency = if has_unbounded {
            ExecDelay::Unbounded
        } else {
            let sink_offset = schedule
                .offset(lowered.graph.sink(), lowered.graph.source())
                .unwrap_or(0);
            ExecDelay::Fixed(sink_offset.max(0) as u64)
        };
        latencies[id.index()] = latency;
        schedules[id.index()] = Some(GraphSchedule {
            id,
            name: seq.name().to_owned(),
            lowered,
            anchor_sets: sets,
            irredundant,
            schedule,
            schedule_ir,
            latency,
            serialization,
        });
    }
    Ok(DesignSchedule {
        schedules: schedules
            .into_iter()
            .map(|s| s.expect("every graph scheduled"))
            .collect(),
    })
}

impl DesignSchedule {
    /// Per-graph schedules, indexed by [`SeqGraphId::index`].
    pub fn graph_schedules(&self) -> &[GraphSchedule] {
        &self.schedules
    }

    /// The schedule of one graph.
    ///
    /// # Panics
    ///
    /// Panics for a foreign id.
    pub fn graph_schedule(&self, id: SeqGraphId) -> &GraphSchedule {
        &self.schedules[id.index()]
    }

    /// Aggregates the Tables III and IV statistics over the whole
    /// hierarchy, as the paper does ("the values in the table are based on
    /// results for the entire graph \[hierarchy\]").
    pub fn anchor_stats(&self) -> AnchorStats {
        let mut stats = AnchorStats::default();
        for gs in &self.schedules {
            let g = &gs.lowered.graph;
            stats.n_graphs += 1;
            stats.n_vertices += g.n_vertices();
            stats.n_anchors += g.n_anchors();
            // Totals count operations only (each graph's source and sink
            // excluded) — the convention under which the paper's Table III
            // rows are self-consistent (e.g. traffic: total 8 over
            // |V| = 8 with 6 operations).
            for v in g.operation_ids() {
                stats.total_full += gs.anchor_sets.family().cardinality(v);
                stats.total_irredundant += gs.irredundant.family().cardinality(v);
            }
            for &a in gs.schedule.anchors() {
                let full = gs.schedule.max_offset(a);
                let ir = gs.schedule_ir.max_offset(a);
                stats.max_offset_full = stats.max_offset_full.max(full);
                stats.sum_max_offsets_full += full;
                stats.max_offset_min = stats.max_offset_min.max(ir);
                stats.sum_max_offsets_min += ir;
            }
        }
        stats
    }
}

impl DesignSchedule {
    /// A per-graph breakdown report (the drill-down behind the Table III
    /// and IV aggregates): vertices, anchors, anchor-set totals, offsets
    /// and latency per sequencing graph.
    pub fn report(&self, title: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "design '{title}': {} sequencing graph(s)",
            self.schedules.len()
        );
        let _ = writeln!(
            out,
            "{:<24} {:>4} {:>4} {:>6} {:>7} {:>7} {:>9} {:>7}",
            "graph", "|V|", "|A|", "ΣA(v)", "ΣIR(v)", "σmax", "latency", "serial"
        );
        let _ = writeln!(out, "{}", "-".repeat(76));
        for gs in &self.schedules {
            let g = &gs.lowered.graph;
            let total_full: usize = g
                .operation_ids()
                .map(|v| gs.anchor_sets.family().cardinality(v))
                .sum();
            let total_ir: usize = g
                .operation_ids()
                .map(|v| gs.irredundant.family().cardinality(v))
                .sum();
            let sigma_max: i64 = gs
                .schedule
                .anchors()
                .iter()
                .map(|&a| gs.schedule.max_offset(a))
                .max()
                .unwrap_or(0);
            let latency = match gs.latency {
                ExecDelay::Fixed(l) => l.to_string(),
                ExecDelay::Unbounded => "unb".to_owned(),
            };
            let _ = writeln!(
                out,
                "{:<24} {:>4} {:>4} {:>6} {:>7} {:>7} {:>9} {:>7}",
                gs.name,
                g.n_vertices(),
                g.n_anchors(),
                total_full,
                total_ir,
                sigma_max,
                latency,
                gs.serialization.len()
            );
        }
        let stats = self.anchor_stats();
        let _ = writeln!(
            out,
            "totals: |V| = {}, |A| = {}, ΣA(v) = {} -> ΣIR(v) = {}, Σσmax = {} -> {}",
            stats.n_vertices,
            stats.n_anchors,
            stats.total_full,
            stats.total_irredundant,
            stats.sum_max_offsets_full,
            stats.sum_max_offsets_min
        );
        out
    }
}

/// The aggregate metrics reported in the paper's Tables III and IV.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnchorStats {
    /// Number of sequencing graphs in the hierarchy.
    pub n_graphs: usize,
    /// Total vertices `|V|` across the hierarchy (sources and sinks
    /// included).
    pub n_vertices: usize,
    /// Total anchors `|A|` across the hierarchy (one source per graph plus
    /// the unbounded-delay operations).
    pub n_anchors: usize,
    /// `Σ_v |A(v)|` — Table III, "Total" under full anchor sets.
    pub total_full: usize,
    /// `Σ_v |IR(v)|` — Table III, "Total" under minimum anchor sets.
    pub total_irredundant: usize,
    /// `max_a σ_a^max` with full anchor sets — Table IV "Max".
    pub max_offset_full: i64,
    /// `Σ_a σ_a^max` with full anchor sets — Table IV "Sum of Max".
    pub sum_max_offsets_full: i64,
    /// `max_a σ_a^max` with irredundant anchor sets.
    pub max_offset_min: i64,
    /// `Σ_a σ_a^max` with irredundant anchor sets.
    pub sum_max_offsets_min: i64,
}

impl AnchorStats {
    /// Average `|A(v)|` per vertex (Table III "Average", full sets).
    pub fn avg_full(&self) -> f64 {
        self.total_full as f64 / self.n_vertices.max(1) as f64
    }

    /// Average `|IR(v)|` per vertex (Table III "Average", minimum sets).
    pub fn avg_irredundant(&self) -> f64 {
        self.total_irredundant as f64 / self.n_vertices.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{OpKind, SeqGraph};

    fn two_level_design() -> Design {
        let mut design = Design::new();
        let mut body = SeqGraph::new("body");
        let s1 = body.add_op("sub1", OpKind::fixed(1));
        let s2 = body.add_op("sub2", OpKind::fixed(2));
        body.add_dependency(s1, s2).unwrap();
        let body_id = design.add_graph(body);

        let mut main = SeqGraph::new("main");
        let w = main.add_op(
            "wait",
            OpKind::Wait {
                signal: "go".into(),
            },
        );
        let l = main.add_op("loop", OpKind::Loop { body: body_id });
        let o = main.add_op("out", OpKind::Write { port: "res".into() });
        main.add_dependency(w, l).unwrap();
        main.add_dependency(l, o).unwrap();
        let main_id = design.add_graph(main);
        design.set_root(main_id);
        design
    }

    #[test]
    fn bottom_up_scheduling_computes_latencies() {
        let design = two_level_design();
        let scheduled = schedule_design(&design).unwrap();
        let body = &scheduled.graph_schedules()[0];
        // body: sub1 (1 cycle) then sub2 (2 cycles) => latency 3.
        assert_eq!(body.latency, ExecDelay::Fixed(3));
        let main = &scheduled.graph_schedules()[1];
        // main holds a wait and a loop => unbounded latency.
        assert_eq!(main.latency, ExecDelay::Unbounded);
    }

    #[test]
    fn fixed_call_inherits_latency() {
        let mut design = Design::new();
        let mut callee = SeqGraph::new("callee");
        callee.add_op("op", OpKind::fixed(4));
        let callee_id = design.add_graph(callee);
        let mut main = SeqGraph::new("main");
        let c = main.add_op("call", OpKind::Call { callee: callee_id });
        let after = main.add_op("after", OpKind::fixed(1));
        main.add_dependency(c, after).unwrap();
        let main_id = design.add_graph(main);
        design.set_root(main_id);
        let scheduled = schedule_design(&design).unwrap();
        let main = scheduled.graph_schedule(main_id);
        // after starts when the 4-cycle call completes.
        let g = &main.lowered.graph;
        assert_eq!(
            main.schedule
                .offset(main.lowered.op_vertices[after.index()], g.source()),
            Some(4)
        );
        assert_eq!(main.latency, ExecDelay::Fixed(5));
    }

    #[test]
    fn anchor_stats_count_hierarchy_wide() {
        let design = two_level_design();
        let scheduled = schedule_design(&design).unwrap();
        let stats = scheduled.anchor_stats();
        assert_eq!(stats.n_graphs, 2);
        // body: 2 ops + source + sink = 4; main: 3 ops + 2 = 5.
        assert_eq!(stats.n_vertices, 9);
        // anchors: body source; main source + wait + loop.
        assert_eq!(stats.n_anchors, 4);
        assert!(stats.total_full >= stats.total_irredundant);
        assert!(stats.avg_full() >= stats.avg_irredundant());
    }

    #[test]
    fn report_lists_every_graph_and_totals() {
        let design = two_level_design();
        let scheduled = schedule_design(&design).unwrap();
        let report = scheduled.report("demo");
        assert!(report.contains("design 'demo'"));
        assert!(report.contains("body"));
        assert!(report.contains("main"));
        assert!(report.contains("totals: |V| = 9, |A| = 4"));
        assert!(report.contains("unb"), "main is unbounded");
    }

    #[test]
    fn ill_posed_graph_serialized_by_default() {
        let mut design = Design::new();
        let mut main = SeqGraph::new("main");
        let a1 = main.add_op(
            "wait1",
            OpKind::Wait {
                signal: "s1".into(),
            },
        );
        let a2 = main.add_op(
            "wait2",
            OpKind::Wait {
                signal: "s2".into(),
            },
        );
        let u = main.add_op("u", OpKind::fixed(1));
        let w = main.add_op("w", OpKind::fixed(1));
        main.add_dependency(a1, u).unwrap();
        main.add_dependency(a2, w).unwrap();
        main.add_max_constraint(u, w, 4).unwrap();
        let main_id = design.add_graph(main);
        design.set_root(main_id);
        let scheduled = schedule_design(&design).unwrap();
        assert_eq!(
            scheduled.graph_schedule(main_id).serialization.len(),
            1,
            "one serializing edge repairs the constraint"
        );
        // Strict mode refuses.
        let strict = schedule_design_with(
            &design,
            &ScheduleOptions {
                serialize_ill_posed: false,
            },
        );
        assert!(matches!(strict, Err(SgraphError::Scheduling { .. })));
    }
}
