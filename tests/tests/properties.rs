//! Property-based tests over the core data structures and invariants:
//! kernel equivalences (matmul transpose identities), schedule validity,
//! memory-planner non-overlap, and autodiff/DCE invariants over randomly
//! shaped MLPs.

use proptest::prelude::*;

use pockengine::pe_graph::{
    build_training_graph, graph_cost, GraphBuilder, NodeId, TrainKind, TrainSpec,
};
use pockengine::pe_memplan::{
    analyze_lifetimes, plan_memory, plan_memory_with, validate_plan, MemPlanOptions,
};
use pockengine::pe_passes::{
    build_schedule, optimize, OptimizeOptions, Schedule, ScheduleStrategy,
};
use pockengine::pe_tensor::kernels::elementwise::{binary_into, reduce_to_shape_into, BinaryOp};
use pockengine::pe_tensor::kernels::gemm::{matmul_into, matmul_out_dims};
use pockengine::pe_tensor::kernels::layout::transpose2d_into;
use pockengine::pe_tensor::{Rng, Tensor};

/// `a · b` through the kernel the executor runs.
fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut c = Tensor::zeros(matmul_out_dims(a.dims(), b.dims(), false, false));
    matmul_into(a.view(), b.view(), false, false, c.data_mut());
    c
}

fn transpose2d(x: &Tensor) -> Tensor {
    let mut t = Tensor::zeros([x.dims()[1], x.dims()[0]]);
    transpose2d_into(x.view(), t.data_mut());
    t
}

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
        let left = transpose2d(&matmul(&a, &b));
        let right = matmul(&transpose2d(&b), &transpose2d(&a));
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
        let mut rng = Rng::seed_from_u64(seed);
        let big = Tensor::randn([rows, cols], 1.0, &mut rng);
        let small = Tensor::randn([cols], 1.0, &mut rng);
        let dims = big.shape().broadcast_with(small.shape()).expect("broadcastable");
        let mut sum = Tensor::zeros(dims);
        binary_into(BinaryOp::Add, big.view(), small.view(), sum.data_mut());
        prop_assert_eq!(sum.dims(), big.dims());
        // The VJP of broadcasting `small` is a row-sum: check linearity.
        let mut reduced = Tensor::zeros(small.shape().clone());
        let ones = Tensor::ones([rows, cols]);
        reduce_to_shape_into(ones.view(), small.dims(), reduced.data_mut());
        prop_assert!(reduced.data().iter().all(|&v| (v - rows as f32).abs() < 1e-5));
    }
}
