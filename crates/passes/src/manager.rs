//! The pass manager: a fixed pipeline of training-graph optimisations.

use pe_graph::{Graph, TrainingGraph};

use crate::dce::{eliminate_dead_code, DceStats};
use crate::schedule::{build_schedule, Schedule, ScheduleStrategy};

/// Which optimisations to run. The default enables everything, matching the
/// full PockEngine pipeline; individual flags exist for the ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizeOptions {
    /// Remove dead nodes after pruning.
    pub dce: bool,
    /// Reorder parameter updates to directly follow their gradients.
    pub reorder_updates: bool,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            dce: true,
            reorder_updates: true,
        }
    }
}

impl OptimizeOptions {
    /// Disables every optimisation (the "conventional framework" baseline).
    pub fn none() -> Self {
        OptimizeOptions {
            dce: false,
            reorder_updates: false,
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

/// Statistics collected while optimising a training graph.
#[derive(Debug, Clone, Default)]
pub struct OptimizeStats {
    /// Always-zero fused-region counts (see [`FusionStats`]).
    pub fusion: FusionStats,
    /// Dead-code elimination statistics (if the pass ran).
    pub dce: Option<DceStats>,
    /// Kernel launches before optimisation.
    pub launches_before: usize,
    /// Kernel launches after optimisation.
    pub launches_after: usize,
}

impl OptimizeStats {
    /// Relative reduction in kernel launches, in `[0, 1)`.
    pub fn launch_reduction(&self) -> f64 {
        if self.launches_before == 0 {
            0.0
        } else {
            1.0 - self.launches_after as f64 / self.launches_before as f64
        }
    }
}

/// Counts kernel launches (non-leaf nodes) in a graph.
pub fn launch_count(graph: &Graph) -> usize {
    graph.nodes().iter().filter(|n| !n.op.is_leaf()).count()
}

/// Runs the optimisation pipeline over a training graph and produces the
/// execution schedule.
pub fn optimize(
    mut tg: TrainingGraph,
    opts: OptimizeOptions,
) -> (TrainingGraph, Schedule, OptimizeStats) {
    let mut stats = OptimizeStats {
        launches_before: launch_count(&tg.graph),
        ..Default::default()
    };

    if opts.dce {
        let (pruned, dce_stats) = eliminate_dead_code(&tg);
        tg = pruned;
        stats.dce = Some(dce_stats);
    }
    stats.launches_after = launch_count(&tg.graph);

    let strategy = if opts.reorder_updates {
        ScheduleStrategy::Reordered
    } else {
        ScheduleStrategy::Conventional
    };
    let schedule = build_schedule(&tg.graph, strategy);
    (tg, schedule, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_graph::{build_training_graph, GraphBuilder, TrainKind, TrainSpec};
    use pe_tensor::kernels::conv::Conv2dParams;
    use pe_tensor::Rng;

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
        // A branch that feeds no output, so DCE (the one pass that removes
        // launches) has work to do.
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
        assert!(stats.launch_reduction() > 0.0);
    }

    #[test]
    fn disabled_pipeline_is_identity_on_structure() {
        let (g, loss, _) = conv_classifier();
        let tg = build_training_graph(g, loss, &TrainSpec::new());
        let before = tg.graph.len();
        let (opt, schedule, stats) = optimize(tg, OptimizeOptions::none());
        assert_eq!(opt.graph.len(), before);
        assert!(stats.dce.is_none());
        assert_eq!(schedule.strategy, ScheduleStrategy::Conventional);
    }

    #[test]
    fn optimized_graph_has_fewer_launches_than_unoptimized() {
        let (g, loss, weights) = conv_classifier();
        let mut spec = TrainSpec::new();
        spec.insert(weights[0], TrainKind::Frozen);
        let tg = build_training_graph(g, loss, &spec);
        let launches_raw = launch_count(&tg.graph);
        let (_, _, stats) = optimize(tg, OptimizeOptions::default());
        assert!(stats.launches_after < launches_raw);
    }
}
