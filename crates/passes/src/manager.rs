//! The pass manager: a fixed pipeline of training-graph optimisations.

use pe_graph::TrainingGraph;

use crate::dce::{eliminate_dead_code, DceStats};
use crate::fusion::{fuse_regions, launch_count, FusionLevel, FusionStats};
use crate::schedule::{build_schedule, Schedule, ScheduleStrategy};

/// Which optimisations to run. The default enables everything, matching the
/// full PockEngine pipeline; individual flags exist for the ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizeOptions {
    /// Whether to fuse elementwise operators. The default follows the
    /// `PE_FUSION` environment variable (`off` | `regions`), falling back
    /// to [`FusionLevel::Regions`] when unset.
    pub fusion: FusionLevel,
    /// Remove dead nodes after pruning/fusion.
    pub dce: bool,
    /// Reorder parameter updates to directly follow their gradients.
    pub reorder_updates: bool,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            fusion: FusionLevel::from_env(),
            dce: true,
            reorder_updates: true,
        }
    }
}

impl OptimizeOptions {
    /// Disables every optimisation (the "conventional framework" baseline).
    pub fn none() -> Self {
        OptimizeOptions {
            fusion: FusionLevel::Off,
            dce: false,
            reorder_updates: false,
        }
    }
}

/// Statistics collected while optimising a training graph.
#[derive(Debug, Clone, Default)]
pub struct OptimizeStats {
    /// Fusion pass statistics.
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

    if opts.fusion == FusionLevel::Regions {
        stats.fusion = fuse_regions(&mut tg);
    }
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
        // Pin the fusion level so the test does not depend on `PE_FUSION`.
        let opts = OptimizeOptions {
            fusion: FusionLevel::Regions,
            ..OptimizeOptions::default()
        };
        let (opt, schedule, stats) = optimize(tg, opts);
        assert!(opt.graph.validate().is_empty());
        assert_eq!(schedule.len(), opt.graph.len());
        assert!(stats.fusion.regions >= 3, "got {:?}", stats.fusion);
        assert!(stats.launch_reduction() > 0.0);
    }

    #[test]
    fn region_level_launches_fewer_than_off() {
        let (g, loss, weights) = conv_classifier();
        let mut spec = TrainSpec::new();
        spec.insert(weights[0], TrainKind::Frozen);
        spec.insert(weights[1], TrainKind::Frozen);
        let tg = build_training_graph(g, loss, &spec);
        let off = OptimizeOptions {
            fusion: FusionLevel::Off,
            ..OptimizeOptions::default()
        };
        let regions = OptimizeOptions {
            fusion: FusionLevel::Regions,
            ..OptimizeOptions::default()
        };
        let (_, _, off_stats) = optimize(tg.clone(), off);
        let (_, _, region_stats) = optimize(tg, regions);
        assert!(
            region_stats.launches_after < off_stats.launches_after,
            "regions must launch fewer kernels than off ({} vs {})",
            region_stats.launches_after,
            off_stats.launches_after
        );
    }

    #[test]
    fn disabled_pipeline_is_identity_on_structure() {
        let (g, loss, _) = conv_classifier();
        let tg = build_training_graph(g, loss, &TrainSpec::new());
        let before = tg.graph.len();
        let (opt, schedule, stats) = optimize(tg, OptimizeOptions::none());
        assert_eq!(opt.graph.len(), before);
        assert_eq!(stats.fusion, FusionStats::default());
        assert!(stats.dce.is_none());
        assert_eq!(schedule.strategy, ScheduleStrategy::Conventional);
    }

    #[test]
    fn optimized_graph_has_fewer_launches_than_unoptimized() {
        let (g, loss, weights) = conv_classifier();
        let mut spec = TrainSpec::new();
        spec.insert(weights[0], TrainKind::Frozen);
        let tg = build_training_graph(g, loss, &spec);
        let launches_raw = crate::fusion::launch_count(&tg.graph);
        let opts = OptimizeOptions {
            fusion: FusionLevel::Regions,
            ..OptimizeOptions::default()
        };
        let (_, _, stats) = optimize(tg, opts);
        assert!(stats.launches_after < launches_raw);
    }
}
