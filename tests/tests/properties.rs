//! Property-based tests over the core data structures and invariants:
//! kernel equivalences (matmul transpose identities), schedule validity,
//! memory-planner non-overlap outside in-place alias chains, no in-place
//! writer over a buffer read after it (reshape views and activation-VJP
//! aliases included), and autodiff/DCE invariants over randomly shaped
//! MLPs.

use proptest::prelude::*;

use pockengine::pe_graph::{
    build_training_graph, graph_cost, GraphBuilder, NodeId, OpKind, TrainKind, TrainSpec,
};
use pockengine::pe_memplan::{plan_memory, validate_plan, MemoryPlan};
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

/// Builds a random MLP whose layers exercise every alias kind: a rank-3
/// linear (the builder reshapes around its matmul, and those reshapes are
/// views), an activation drawn from all five that have an in-place VJP,
/// applied to a reshape view of the pre-activation, and, when `residual`
/// holds for a layer, a residual add that reads the pre-activation again
/// after the activation: the clobber case, where the activation must not
/// write over its view.
fn random_viewed_mlp(
    width: usize,
    depth: usize,
    batch: usize,
    frozen_prefix: usize,
    seed: u64,
) -> pockengine::pe_graph::TrainingGraph {
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let x = b.input("x", [batch, 2, width]);
    let labels = b.input("labels", [batch * 2]);
    let mut h = x;
    let mut spec = TrainSpec::new();
    for i in 0..depth {
        let w = b.weight(&format!("fc{i}.weight"), [width, width], &mut rng);
        let bias = b.bias(&format!("fc{i}.bias"), width);
        if i < frozen_prefix {
            spec.insert(w, TrainKind::Frozen);
            spec.insert(bias, TrainKind::Frozen);
        }
        let pre = b.linear(h, w, Some(bias));
        let view = b.reshape(pre, vec![batch * 2, width]);
        let act = match rng.next_usize(5) {
            0 => b.relu(view),
            1 => b.gelu(view),
            2 => b.silu(view),
            3 => b.sigmoid(view),
            _ => b.tanh(view),
        };
        h = b.reshape(act, vec![batch, 2, width]);
        if rng.next_usize(2) == 0 {
            h = b.add(h, pre);
        }
    }
    let head = b.weight("head.weight", [3, width], &mut rng);
    let flat = b.reshape(h, vec![batch * 2, width]);
    let logits = b.linear(flat, head, None);
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

/// Checks that `schedule` orders every node after all of its inputs.
fn check_topological(
    graph: &pockengine::pe_graph::Graph,
    schedule: &Schedule,
    order: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(schedule.len(), graph.len());
    let pos = schedule.positions(graph.len());
    for node in graph.nodes() {
        for input in &node.inputs {
            prop_assert!(
                pos[input.index()] < pos[node.id.index()],
                "{} schedule violates a dependency",
                order
            );
        }
    }
    Ok(())
}

/// Checks that buffers whose position-granular lifetimes intersect never
/// share arena bytes unless they belong to one in-place alias chain, whose
/// members all sit at the chain root's offset.
fn check_no_overlap_outside_alias_chains(
    graph: &pockengine::pe_graph::Graph,
    plan: &MemoryPlan,
    order: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(plan.arena_bytes >= plan.peak_transient_bytes);
    let root = |mut i: usize| {
        while let Some(p) = plan.aliases[i] {
            i = p.index();
        }
        i
    };
    let size = |i: usize| graph.node(NodeId(i)).size_bytes();
    for a in 0..graph.len() {
        for b in (a + 1)..graph.len() {
            let (Some((da, la)), Some((db, lb))) = (plan.lifetimes[a], plan.lifetimes[b]) else {
                continue;
            };
            if la < db || lb < da {
                continue;
            }
            let (oa, ob) = (plan.offsets[a].unwrap(), plan.offsets[b].unwrap());
            if root(a) == root(b) {
                prop_assert_eq!(
                    oa,
                    ob,
                    "alias chain members {} and {} sit apart ({} schedule)",
                    a,
                    b,
                    order
                );
                continue;
            }
            let (sa, sb) = (size(a), size(b));
            if sa == 0 || sb == 0 {
                continue;
            }
            prop_assert!(
                oa + sa <= ob || ob + sb <= oa,
                "live buffers {} and {} overlap outside an alias chain ({} schedule)",
                a,
                b,
                order
            );
        }
    }
    Ok(())
}

/// Checks that no node writing its output (every planned node except a
/// reshape view, which writes nothing) shares a byte with a buffer that is
/// defined before it and read after it: whatever the alias chains, no
/// in-place writer clobbers a value that is still to be read.
fn check_writers_never_clobber_later_reads(
    graph: &pockengine::pe_graph::Graph,
    plan: &MemoryPlan,
    order: &str,
) -> Result<(), TestCaseError> {
    let size = |i: usize| graph.node(NodeId(i)).size_bytes();
    let range = |i: usize| {
        let off = plan.offsets[i].unwrap();
        (off, off + size(i))
    };
    for w in 0..graph.len() {
        let Some((pos, _)) = plan.lifetimes[w] else {
            continue;
        };
        let is_view =
            matches!(graph.node(NodeId(w)).op, OpKind::Reshape { .. }) && plan.aliases[w].is_some();
        if is_view || size(w) == 0 {
            continue;
        }
        let (ws, we) = range(w);
        for b in 0..graph.len() {
            let Some((def, last)) = plan.lifetimes[b] else {
                continue;
            };
            if b == w || size(b) == 0 || def >= pos || last <= pos {
                continue;
            }
            let (bs, be) = range(b);
            prop_assert!(
                we <= bs || be <= ws,
                "node {} writes over buffer {}, which is read after it ({} schedule)",
                w,
                b,
                order
            );
        }
    }
    Ok(())
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

    /// Every built-in schedule strategy yields a complete, dependency-respecting
    /// order, and the memory planner never overlaps two live buffers outside
    /// an in-place alias chain.
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
        let (order, strategy) = if reorder {
            ("reordered", ScheduleStrategy::Reordered)
        } else {
            ("conventional", ScheduleStrategy::Conventional)
        };
        let schedule = build_schedule(&tg.graph, strategy);
        check_topological(&tg.graph, &schedule, order)?;
        let plan = plan_memory(&tg.graph, &schedule);
        check_no_overlap_outside_alias_chains(&tg.graph, &plan, order)?;
    }

    /// `plan_memory` never assigns overlapping `[offset, offset + size)`
    /// ranges to buffers with intersecting lifetimes outside an in-place
    /// alias chain — across *randomized* topological schedules, not just the
    /// two built-in strategies — and every alias shares its input's offset.
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
        check_topological(&tg.graph, &schedule, "random")?;
        let plan = plan_memory(&tg.graph, &schedule);
        for (idx, alias) in plan.aliases.iter().enumerate() {
            if let Some(input) = alias {
                prop_assert_eq!(plan.offsets[idx], plan.offsets[input.index()], "alias {} moved off its input", idx);
            }
        }
        check_no_overlap_outside_alias_chains(&tg.graph, &plan, "random")?;
    }

    /// The plan the arena executor runs passes `validate_plan`, and buffers
    /// whose position-granular lifetimes intersect never share arena bytes
    /// unless they belong to one in-place alias chain — under the reordered
    /// schedule and randomized topological ones.
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
        let (order, schedule) = if reorder {
            ("reordered", build_schedule(&tg.graph, ScheduleStrategy::Reordered))
        } else {
            ("random", random_topo_schedule(&tg.graph, seed))
        };
        let plan = plan_memory(&tg.graph, &schedule);
        prop_assert_eq!(validate_plan(&tg.graph, &schedule, &plan), Ok(()));
        check_no_overlap_outside_alias_chains(&tg.graph, &plan, order)?;
        check_writers_never_clobber_later_reads(&tg.graph, &plan, order)?;
    }

    /// On graphs with reshape views, every activation and its VJP, and
    /// residuals that read a viewed buffer after the activation, the plan
    /// validates, never overlaps live buffers outside an alias chain, and
    /// no in-place writer shares a range with a buffer read after it —
    /// under the reordered schedule and randomized topological ones.
    #[test]
    fn views_and_gradient_aliases_never_clobber_a_later_read(
        depth in 1usize..5,
        width in 2usize..12,
        batch in 1usize..4,
        frozen_prefix in 0usize..3,
        seed in 0u64..10_000,
        reorder in proptest::bool::ANY,
    ) {
        let tg = random_viewed_mlp(width, depth, batch, frozen_prefix.min(depth), seed);
        let (order, schedule) = if reorder {
            ("reordered", build_schedule(&tg.graph, ScheduleStrategy::Reordered))
        } else {
            ("random", random_topo_schedule(&tg.graph, seed))
        };
        check_topological(&tg.graph, &schedule, order)?;
        let plan = plan_memory(&tg.graph, &schedule);
        prop_assert_eq!(validate_plan(&tg.graph, &schedule, &plan), Ok(()));
        check_no_overlap_outside_alias_chains(&tg.graph, &plan, order)?;
        check_writers_never_clobber_later_reads(&tg.graph, &plan, order)?;
        let views = (0..tg.graph.len())
            .filter(|&i| matches!(tg.graph.node(NodeId(i)).op, OpKind::Reshape { .. }))
            .filter(|&i| plan.aliases[i].is_some())
            .count();
        prop_assert!(views > 0, "the linear's reshapes are views");
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
