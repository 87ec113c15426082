//! Property-based tests over the core data structures and invariants:
//! kernel equivalences (matmul transpose identities), schedule validity,
//! memory-planner non-overlap, and autodiff/DCE invariants over randomly
//! shaped MLPs.

use std::collections::HashMap;

use proptest::prelude::*;

use pockengine::pe_graph::{
    build_training_graph, graph_cost, GraphBuilder, NodeId, TrainKind, TrainSpec,
};
use pockengine::pe_memplan::{
    analyze_lifetimes, plan_memory, plan_memory_with, validate_plan, MemPlanOptions,
};
use pockengine::pe_passes::{
    build_schedule, launch_count, optimize, FusionLevel, OptimizeOptions, Schedule,
    ScheduleStrategy,
};
use pockengine::pe_runtime::{Executor, Optimizer};
use pockengine::pe_tensor::kernels::gemm::matmul;
use pockengine::pe_tensor::kernels::layout::transpose2d;
use pockengine::pe_tensor::{Rng, Tensor};

/// Builds a random MLP training graph from a shape description.
fn random_mlp(
    widths: &[usize],
    batch: usize,
    frozen_prefix: usize,
) -> pockengine::pe_graph::TrainingGraph {
    let mut rng = Rng::seed_from_u64(9);
    let mut b = GraphBuilder::new();
    let x = b.input("x", [batch, widths[0]]);
    let labels = b.input("labels", [batch]);
    let mut h = x;
    let mut spec = TrainSpec::new();
    for (i, pair) in widths.windows(2).enumerate() {
        let w = b.weight(&format!("fc{i}.weight"), [pair[1], pair[0]], &mut rng);
        let bias = b.bias(&format!("fc{i}.bias"), pair[1]);
        if i < frozen_prefix {
            spec.insert(w, TrainKind::Frozen);
            spec.insert(bias, TrainKind::Frozen);
        }
        h = b.linear(h, w, Some(bias));
        h = b.relu(h);
    }
    let head = b.weight("head.weight", [3, *widths.last().unwrap()], &mut rng);
    let logits = b.linear(h, head, None);
    let loss = b.cross_entropy(logits, labels);
    let g = b.finish(vec![loss, logits]);
    build_training_graph(g, loss, &spec)
}

/// Builds a random topological order by Kahn's algorithm with a seeded
/// random tie-break — a "randomized schedule" distinct from both built-in
/// strategies.
fn random_topo_schedule(graph: &pockengine::pe_graph::Graph, seed: u64) -> Schedule {
    let mut rng = Rng::seed_from_u64(seed);
    let consumers = graph.consumers();
    let mut indegree: Vec<usize> = graph.nodes().iter().map(|n| n.inputs.len()).collect();
    let mut ready: Vec<NodeId> = (0..graph.len())
        .filter(|&i| indegree[i] == 0)
        .map(NodeId)
        .collect();
    let mut order = Vec::with_capacity(graph.len());
    while !ready.is_empty() {
        let pick = rng.next_usize(ready.len());
        let id = ready.swap_remove(pick);
        order.push(id);
        for &c in &consumers[id.index()] {
            indegree[c.index()] -= 1;
            if indegree[c.index()] == 0 {
                ready.push(c);
            }
        }
    }
    assert_eq!(order.len(), graph.len(), "graph must be acyclic");
    Schedule {
        order,
        strategy: ScheduleStrategy::Reordered,
    }
}

/// Everything a training run produces, with floats captured as exact bit
/// patterns: `(kernel launches, per-step losses, final graph outputs, final
/// parameters)`.
type BitSnapshot = (
    usize,
    Vec<u32>,
    Vec<(String, Vec<u32>)>,
    Vec<(String, Vec<u32>)>,
);

/// Compiles `random_mlp` at the given fusion level, trains it for three SGD
/// steps on `inputs`, and snapshots the observable results bit-for-bit.
fn train_at_fusion_level(
    widths: &[usize],
    batch: usize,
    frozen_prefix: usize,
    level: FusionLevel,
    arena: bool,
    inputs: &HashMap<String, Tensor>,
) -> BitSnapshot {
    let tg = random_mlp(widths, batch, frozen_prefix);
    let options = OptimizeOptions {
        fusion: level,
        ..OptimizeOptions::default()
    };
    let (tg, schedule, _) = optimize(tg, options);
    let launches = launch_count(&tg.graph);
    let mut exec = if arena {
        Executor::arena(tg, schedule, Optimizer::sgd(0.05))
    } else {
        Executor::boxed(tg, schedule, Optimizer::sgd(0.05))
    };
    let bits = |t: &Tensor| -> Vec<u32> { t.data().iter().map(|f| f.to_bits()).collect() };
    let mut losses = Vec::new();
    let mut outputs: Vec<(String, Vec<u32>)> = Vec::new();
    for step in 0..3 {
        let result = exec.run_step(inputs).unwrap();
        losses.push(result.loss.unwrap().to_bits());
        if step == 2 {
            outputs = result
                .outputs
                .iter()
                .map(|(name, value)| (name.clone(), bits(value)))
                .collect();
            outputs.sort();
        }
    }
    let graph = &exec.training_graph().graph;
    let mut params: Vec<(String, Vec<u32>)> = graph
        .param_ids()
        .into_iter()
        .map(|id| (graph.node(id).name.clone(), bits(&exec.param(id).unwrap())))
        .collect();
    params.sort();
    (launches, losses, outputs, params)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (A·B)ᵀ = Bᵀ·Aᵀ for random shapes.
    #[test]
    fn matmul_transpose_identity(
        m in 1usize..8,
        k in 1usize..8,
        n in 1usize..8,
        seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let a = Tensor::randn([m, k], 1.0, &mut rng);
        let b = Tensor::randn([k, n], 1.0, &mut rng);
        let left = transpose2d(&matmul(&a, &b, false, false));
        let right = matmul(&transpose2d(&b), &transpose2d(&a), false, false);
        prop_assert!(left.allclose(&right, 1e-4));
    }

    /// Every schedule strategy yields a complete, dependency-respecting order,
    /// and the memory planner never overlaps two live buffers.
    #[test]
    fn schedules_and_memory_plans_are_valid(
        depth in 1usize..5,
        width in 4usize..24,
        batch in 1usize..6,
        frozen_prefix in 0usize..3,
        reorder in proptest::bool::ANY,
    ) {
        let widths: Vec<usize> = std::iter::repeat_n(width, depth + 1).collect();
        let tg = random_mlp(&widths, batch, frozen_prefix.min(depth));
        let strategy = if reorder { ScheduleStrategy::Reordered } else { ScheduleStrategy::Conventional };
        let schedule = build_schedule(&tg.graph, strategy);
        prop_assert_eq!(schedule.len(), tg.graph.len());
        let pos = schedule.positions(tg.graph.len());
        for node in tg.graph.nodes() {
            for input in &node.inputs {
                prop_assert!(pos[input.index()] < pos[node.id.index()], "dependency violated");
            }
        }

        let plan = plan_memory(&tg.graph, &schedule);
        prop_assert!(plan.arena_bytes >= plan.peak_transient_bytes);
        let lifetimes = analyze_lifetimes(&tg.graph, &schedule);
        for a in 0..tg.graph.len() {
            for b in (a + 1)..tg.graph.len() {
                let (Some((da, la)), Some((db, lb))) = (lifetimes[a], lifetimes[b]) else { continue };
                if la < db || lb < da { continue; }
                let (sa, sb) = (
                    tg.graph.node(pockengine::pe_graph::NodeId(a)).size_bytes(),
                    tg.graph.node(pockengine::pe_graph::NodeId(b)).size_bytes(),
                );
                if sa == 0 || sb == 0 { continue; }
                let (oa, ob) = (plan.offsets[a].unwrap(), plan.offsets[b].unwrap());
                prop_assert!(oa + sa <= ob || ob + sb <= oa, "overlapping buffers in arena");
            }
        }
    }

    /// Freezing a prefix of the network can only shrink the training graph
    /// and its FLOP count, and the optimisation pipeline preserves validity.
    #[test]
    fn freezing_monotonically_shrinks_the_graph(
        depth in 2usize..5,
        width in 4usize..16,
        batch in 1usize..4,
    ) {
        let widths: Vec<usize> = std::iter::repeat_n(width, depth + 1).collect();
        let full = random_mlp(&widths, batch, 0);
        let frozen = random_mlp(&widths, batch, depth - 1);
        prop_assert!(frozen.graph.len() <= full.graph.len());
        prop_assert!(graph_cost(&frozen.graph).flops <= graph_cost(&full.graph).flops);
        prop_assert!(frozen.updates.len() <= full.updates.len());

        let (opt, schedule, _) = optimize(frozen, OptimizeOptions::default());
        prop_assert!(opt.graph.validate().is_empty());
        prop_assert_eq!(schedule.len(), opt.graph.len());
    }

    /// `plan_memory` never assigns overlapping `[offset, offset + size)`
    /// ranges to buffers with intersecting lifetimes — across *randomized*
    /// topological schedules, not just the two built-in strategies.
    #[test]
    fn planner_never_overlaps_across_random_schedules(
        depth in 1usize..5,
        width in 4usize..20,
        batch in 1usize..5,
        frozen_prefix in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let widths: Vec<usize> = std::iter::repeat_n(width, depth + 1).collect();
        let tg = random_mlp(&widths, batch, frozen_prefix.min(depth));
        let schedule = random_topo_schedule(&tg.graph, seed);
        // The random order must itself be a valid schedule.
        let pos = schedule.positions(tg.graph.len());
        for node in tg.graph.nodes() {
            for input in &node.inputs {
                prop_assert!(pos[input.index()] < pos[node.id.index()], "random schedule not topological");
            }
        }
        let plan = plan_memory(&tg.graph, &schedule);
        prop_assert!(plan.arena_bytes >= plan.peak_transient_bytes);
        prop_assert!(plan.aliases.iter().all(Option::is_none), "default plan must not alias");
        for a in 0..tg.graph.len() {
            for b in (a + 1)..tg.graph.len() {
                let (Some((da, la)), Some((db, lb))) = (plan.lifetimes[a], plan.lifetimes[b]) else { continue };
                if la < db || lb < da { continue; }
                let (sa, sb) = (
                    tg.graph.node(NodeId(a)).size_bytes(),
                    tg.graph.node(NodeId(b)).size_bytes(),
                );
                if sa == 0 || sb == 0 { continue; }
                let (oa, ob) = (plan.offsets[a].unwrap(), plan.offsets[b].unwrap());
                prop_assert!(
                    oa + sa <= ob || ob + sb <= oa,
                    "buffers {} and {} overlap under a randomized schedule", a, b
                );
            }
        }
    }

    /// The plan the arena executor runs (`for_execution`: runtime sizes,
    /// 64-byte alignment, in-place aliasing) passes `validate_plan`, and
    /// buffers whose position-granular lifetimes intersect never share
    /// arena bytes unless they belong to one in-place alias chain — under
    /// the reordered schedule and randomized topological ones.
    #[test]
    fn execution_plans_validate_and_never_overlap_outside_alias_chains(
        depth in 1usize..5,
        width in 4usize..20,
        batch in 1usize..5,
        frozen_prefix in 0usize..3,
        seed in 0u64..10_000,
        reorder in proptest::bool::ANY,
    ) {
        let widths: Vec<usize> = std::iter::repeat_n(width, depth + 1).collect();
        let tg = random_mlp(&widths, batch, frozen_prefix.min(depth));
        let schedule = if reorder {
            build_schedule(&tg.graph, ScheduleStrategy::Reordered)
        } else {
            random_topo_schedule(&tg.graph, seed)
        };
        let opts = MemPlanOptions::for_execution();
        let plan = plan_memory_with(&tg.graph, &schedule, &opts);
        prop_assert_eq!(validate_plan(&tg.graph, &schedule, &opts, &plan), Ok(()));

        let root = |mut i: usize| { while let Some(p) = plan.aliases[i] { i = p.index(); } i };
        let size = |i: usize| tg.graph.node(NodeId(i)).shape.numel() * 4;
        for a in 0..tg.graph.len() {
            for b in (a + 1)..tg.graph.len() {
                let (Some((da, la)), Some((db, lb))) = (plan.lifetimes[a], plan.lifetimes[b]) else { continue };
                if la < db || lb < da { continue; }
                if root(a) == root(b) { continue; }
                let (sa, sb) = (size(a), size(b));
                if sa == 0 || sb == 0 { continue; }
                let (oa, ob) = (plan.offsets[a].unwrap(), plan.offsets[b].unwrap());
                prop_assert!(
                    oa + sa <= ob || ob + sb <= oa,
                    "live buffers {} and {} overlap outside an alias chain", a, b
                );
            }
        }
    }

    /// Broadcast-add then reduce-to-shape is the identity on the gradient
    /// path (the autodiff invariant used for every residual connection).
    #[test]
    fn broadcast_reduce_roundtrip(
        rows in 1usize..6,
        cols in 1usize..6,
        seed in 0u64..1000,
    ) {
        use pockengine::pe_tensor::kernels::elementwise::{add, reduce_to_shape};
        let mut rng = Rng::seed_from_u64(seed);
        let big = Tensor::randn([rows, cols], 1.0, &mut rng);
        let small = Tensor::randn([cols], 1.0, &mut rng);
        let sum = add(&big, &small);
        prop_assert_eq!(sum.dims(), big.dims());
        // The VJP of broadcasting `small` is a row-sum: check linearity.
        let reduced = reduce_to_shape(&Tensor::ones([rows, cols]), small.shape());
        prop_assert!(reduced.data().iter().all(|&v| (v - rows as f32).abs() < 1e-5));
    }

    /// Fusion is a pure dispatch-count optimisation: for random MLPs the
    /// region-fused program produces bit-identical losses, outputs and trained
    /// parameters to the completely unfused program, on both the arena and
    /// boxed backends — while never launching more kernels than no fusion.
    #[test]
    fn region_fusion_is_bit_identical_to_unfused(
        depth in 1usize..4,
        width in 3usize..12,
        batch in 1usize..5,
        frozen_prefix in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let widths: Vec<usize> = std::iter::repeat_n(width, depth + 1).collect();
        let frozen_prefix = frozen_prefix.min(depth);
        let mut data_rng = Rng::seed_from_u64(seed);
        let xs = Tensor::randn([batch, width], 1.0, &mut data_rng);
        let mut ys = Tensor::zeros([batch]);
        for i in 0..batch {
            ys.data_mut()[i] = data_rng.next_usize(3) as f32;
        }
        let inputs = HashMap::from([("x".to_string(), xs), ("labels".to_string(), ys)]);

        for arena in [true, false] {
            let run = |level| train_at_fusion_level(
                &widths, batch, frozen_prefix, level, arena, &inputs,
            );
            let off = run(FusionLevel::Off);
            let regions = run(FusionLevel::Regions);
            prop_assert!(
                regions.0 <= off.0,
                "fusion must never add launches: off={} regions={}",
                off.0, regions.0
            );
            prop_assert_eq!(&off.1, &regions.1, "losses diverged under region fusion (arena={})", arena);
            prop_assert_eq!(&off.2, &regions.2, "outputs diverged under region fusion (arena={})", arena);
            prop_assert_eq!(&off.3, &regions.3, "parameters diverged under region fusion (arena={})", arena);
        }
    }
}
