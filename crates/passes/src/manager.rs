//! The pass manager's old entry point, kept only because the benchmark
//! harness names it: the compiler itself calls [`build_schedule`] on the
//! derived training graph, and ROADMAP item 11 (the harness naming only
//! `pockengine`'s API) deletes this module.

use pe_graph::{Graph, TrainingGraph};

use crate::schedule::{build_schedule, Schedule, ScheduleStrategy};

/// Which update placement [`optimize`] schedules. Kept only because the
/// benchmark harness names it; ROADMAP item 11 deletes it. The compiler
/// takes the same choice from `ScheduleStrategy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizeOptions {
    /// Reorder parameter updates to directly follow their gradients.
    pub reorder_updates: bool,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            reorder_updates: true,
        }
    }
}

/// Fused-region counts. The pipeline has no fusion pass, so `regions` is
/// always 0; the struct stays only because the benchmark harness reports
/// `passes.fused_regions` from it, and goes when ROADMAP item 1 retires
/// that metric.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Fused regions formed: always 0.
    pub regions: usize,
}

/// What [`optimize`] reports. Kept only because the benchmark harness
/// names it; ROADMAP item 11 deletes it.
#[derive(Debug, Clone, Default)]
pub struct OptimizeStats {
    /// Always-zero fused-region counts (see [`FusionStats`]).
    pub fusion: FusionStats,
    /// Kernel launches per step: the graph's non-leaf nodes.
    pub launches_after: usize,
}

/// Counts kernel launches (non-leaf nodes) in a graph.
fn launch_count(graph: &Graph) -> usize {
    graph.nodes().iter().filter(|n| !n.op.is_leaf()).count()
}

/// Schedules a derived training graph, returning it unchanged. Kept only
/// because the benchmark harness names it; ROADMAP item 11 deletes it.
/// Autodiff emits only live nodes, so there is nothing to remove first.
pub fn optimize(
    tg: TrainingGraph,
    opts: OptimizeOptions,
) -> (TrainingGraph, Schedule, OptimizeStats) {
    let strategy = if opts.reorder_updates {
        ScheduleStrategy::Reordered
    } else {
        ScheduleStrategy::Conventional
    };
    let schedule = build_schedule(&tg.graph, strategy);
    let stats = OptimizeStats {
        fusion: FusionStats::default(),
        launches_after: launch_count(&tg.graph),
    };
    (tg, schedule, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_graph::{build_training_graph, GraphBuilder, TrainKind, TrainSpec};
    use pe_tensor::kernels::conv::Conv2dParams;
    use pe_tensor::Rng;

    /// A conv classifier with a branch that feeds no output: the builder
    /// leaves `relu_20` and `scale_21` dangling.
    fn conv_classifier() -> (pe_graph::Graph, pe_graph::NodeId, Vec<pe_graph::NodeId>) {
        let mut rng = Rng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [2, 4, 16, 16]);
        let labels = b.input("labels", [2]);
        let mut h = x;
        let mut weights = Vec::new();
        for i in 0..3 {
            let cin = b.dims_of(h)[1];
            let w = b.weight(&format!("conv{i}.weight"), [8, cin, 3, 3], &mut rng);
            let bias = b.bias(&format!("conv{i}.bias"), 8);
            weights.push(w);
            h = b.conv2d(h, w, Conv2dParams::new(1, 1));
            h = b.add_bias(h, bias);
            h = b.relu(h);
        }
        let p = b.global_avg_pool(h);
        let wfc = b.weight("fc.weight", [4, 8], &mut rng);
        let logits = b.linear(p, wfc, None);
        let dead = b.relu(logits);
        b.scale(dead, 2.0);
        let loss = b.cross_entropy(logits, labels);
        let g = b.finish(vec![loss, logits]);
        (g, loss, weights)
    }

    #[test]
    fn full_pipeline_produces_valid_schedule() {
        let (g, loss, weights) = conv_classifier();
        let mut spec = TrainSpec::new();
        // Freeze the first two convolutions (layer-sparse scheme).
        spec.insert(weights[0], TrainKind::Frozen);
        spec.insert(weights[1], TrainKind::Frozen);
        let tg = build_training_graph(g, loss, &spec);
        let (opt, schedule, stats) = optimize(tg, OptimizeOptions::default());
        assert!(opt.graph.validate().is_empty());
        assert_eq!(schedule.len(), opt.graph.len());
        assert_eq!(stats.fusion, FusionStats::default());
        assert_eq!(stats.launches_after, launch_count(&opt.graph));
        // Nothing removes the dangling branch: the schedule runs it.
        let scheduled: Vec<&str> = schedule
            .order
            .iter()
            .map(|&id| opt.graph.node(id).name.as_str())
            .collect();
        assert!(scheduled.contains(&"relu_20") && scheduled.contains(&"scale_21"));
    }

    #[test]
    fn disabled_pipeline_is_identity_on_structure() {
        let (g, loss, _) = conv_classifier();
        let tg = build_training_graph(g, loss, &TrainSpec::new());
        let before = tg.graph.len();
        let opts = OptimizeOptions {
            reorder_updates: false,
        };
        let (opt, schedule, stats) = optimize(tg, opts);
        assert_eq!(opt.graph.len(), before);
        assert_eq!(stats.launches_after, launch_count(&opt.graph));
        assert_eq!(schedule.strategy, ScheduleStrategy::Conventional);
    }
}
