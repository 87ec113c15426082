//! Property-based tests over the core data structures and invariants:
//! kernel equivalences (matmul transpose identities), schedule validity,
//! memory-planner non-overlap outside in-place alias chains, no in-place
//! writer over a buffer read after it (reshape views and activation-VJP
//! aliases included), and autodiff invariants over randomly shaped
//! MLPs.

use pe_tests::support::random_mlp;
use proptest::prelude::*;

use pockengine::pe_graph::{
    build_training_graph, graph_cost, Graph, NodeId, OpKind, TrainSpec, TrainingGraph,
};
use pockengine::pe_memplan::{plan_memory, validate_plan, MemoryPlan};
use pockengine::pe_passes::{build_schedule, Schedule, ScheduleStrategy};
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

/// The training graph of a [`random_mlp`].
fn random_tg((graph, loss, spec): (Graph, NodeId, TrainSpec)) -> TrainingGraph {
    build_training_graph(graph, loss, &spec)
}

/// Builds a random topological order by Kahn's algorithm with a seeded
/// random tie-break — a "randomized schedule" distinct from both built-in
/// strategies.
fn random_topo_schedule(graph: &Graph, seed: u64) -> Schedule {
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
fn check_topological(graph: &Graph, schedule: &Schedule, cell: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(schedule.len(), graph.len());
    let pos = schedule.positions(graph.len());
    for node in graph.nodes() {
        for input in &node.inputs {
            prop_assert!(
                pos[input.index()] < pos[node.id.index()],
                "{} violates a dependency",
                cell
            );
        }
    }
    Ok(())
}

/// Checks that buffers whose position-granular lifetimes intersect never
/// share arena bytes unless they belong to one in-place alias chain, whose
/// members all sit at the chain root's offset.
fn check_no_overlap_outside_alias_chains(
    graph: &Graph,
    plan: &MemoryPlan,
    cell: &str,
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
                    "alias chain members {} and {} sit apart ({})",
                    a,
                    b,
                    cell
                );
                continue;
            }
            let (sa, sb) = (size(a), size(b));
            if sa == 0 || sb == 0 {
                continue;
            }
            prop_assert!(
                oa + sa <= ob || ob + sb <= oa,
                "live buffers {} and {} overlap outside an alias chain ({})",
                a,
                b,
                cell
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
    graph: &Graph,
    plan: &MemoryPlan,
    cell: &str,
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
                "node {} writes over buffer {}, which is read after it ({})",
                w,
                b,
                cell
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
    /// and its FLOP count, and leaves a valid graph that schedules whole.
    #[test]
    fn freezing_monotonically_shrinks_the_graph(
        depth in 2usize..5,
        width in 4usize..16,
        batch in 1usize..4,
    ) {
        let full = random_tg(random_mlp(depth, width, batch, 0, 9, false));
        let frozen = random_tg(random_mlp(depth, width, batch, depth - 1, 9, false));
        prop_assert!(frozen.graph.len() <= full.graph.len());
        prop_assert!(graph_cost(&frozen.graph).flops <= graph_cost(&full.graph).flops);
        prop_assert!(frozen.updates.len() <= full.updates.len());

        let schedule = build_schedule(&frozen.graph, ScheduleStrategy::Reordered);
        prop_assert!(frozen.graph.validate().is_empty());
        prop_assert_eq!(schedule.len(), frozen.graph.len());
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

/// Every check on every cell of `models` x `sources` for one random MLP
/// (depth, width, batch, frozen prefix, schedule seed): the schedule
/// respects every dependency, the plan passes `validate_plan`, every alias
/// sits at its input's offset, live buffers never share bytes outside an
/// in-place alias chain, no in-place writer overlaps a buffer read after
/// it, and a viewed MLP's reshapes are views. The oracles are independent
/// of `validate_plan`.
fn check_cells(
    (depth, width, batch, frozen_prefix, seed): (usize, usize, usize, usize, u64),
    models: &[&str],
    sources: &[&str],
) -> Result<(), TestCaseError> {
    let frozen_prefix = frozen_prefix.min(depth);
    for &model in models {
        let viewed = model == "viewed";
        let tg = random_tg(random_mlp(depth, width, batch, frozen_prefix, seed, viewed));
        let graph = &tg.graph;
        for &source in sources {
            let schedule = match source {
                "conventional" => build_schedule(graph, ScheduleStrategy::Conventional),
                "reordered" => build_schedule(graph, ScheduleStrategy::Reordered),
                _ => random_topo_schedule(graph, seed),
            };
            let cell = format!("{source} schedule, {model} MLP");
            check_topological(graph, &schedule, &cell)?;
            let plan = plan_memory(graph, &schedule);
            prop_assert_eq!(validate_plan(graph, &schedule, &plan), Ok(()), "{}", cell);
            for (idx, alias) in plan.aliases.iter().enumerate() {
                if let Some(input) = alias {
                    prop_assert_eq!(
                        plan.offsets[idx],
                        plan.offsets[input.index()],
                        "alias {} moved off its input ({})",
                        idx,
                        cell
                    );
                }
            }
            check_no_overlap_outside_alias_chains(graph, &plan, &cell)?;
            check_writers_never_clobber_later_reads(graph, &plan, &cell)?;
            let views = (0..graph.len())
                .filter(|&i| matches!(graph.node(NodeId(i)).op, OpKind::Reshape { .. }))
                .filter(|&i| plan.aliases[i].is_some())
                .count();
            prop_assert!(!viewed || views > 0, "no view ({})", cell);
        }
    }
    Ok(())
}

const ALL_SOURCES: [&str; 3] = ["conventional", "reordered", "random"];

proptest! {
    // Every check runs in every cell of {conventional, reordered, random}
    // schedule x {plain, viewed} MLP; each property covers one row or
    // column of that table, 16 cases each.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The built-in strategies on both models.
    #[test]
    fn schedules_and_memory_plans_are_valid(
        depth in 1usize..5, width in 2usize..20, batch in 1usize..5,
        frozen_prefix in 0usize..3, seed in 0u64..10_000,
    ) {
        let shape = (depth, width, batch, frozen_prefix, seed);
        check_cells(shape, &["plain", "viewed"], &["conventional", "reordered"])?;
    }

    /// Randomized topological orders on both models.
    #[test]
    fn planner_never_overlaps_across_random_schedules(
        depth in 1usize..5, width in 2usize..20, batch in 1usize..5,
        frozen_prefix in 0usize..3, seed in 0u64..10_000,
    ) {
        let shape = (depth, width, batch, frozen_prefix, seed);
        check_cells(shape, &["plain", "viewed"], &["random"])?;
    }

    /// Every schedule source on the plain MLP.
    #[test]
    fn execution_plans_validate_and_never_overlap_outside_alias_chains(
        depth in 1usize..5, width in 2usize..20, batch in 1usize..5,
        frozen_prefix in 0usize..3, seed in 0u64..10_000,
    ) {
        let shape = (depth, width, batch, frozen_prefix, seed);
        check_cells(shape, &["plain"], &ALL_SOURCES)?;
    }

    /// Every schedule source on the viewed MLP, whose reshape views and
    /// in-place activation VJPs are the clobber cases.
    #[test]
    fn views_and_gradient_aliases_never_clobber_a_later_read(
        depth in 1usize..5, width in 2usize..20, batch in 1usize..5,
        frozen_prefix in 0usize..3, seed in 0u64..10_000,
    ) {
        let shape = (depth, width, batch, frozen_prefix, seed);
        check_cells(shape, &["viewed"], &ALL_SOURCES)?;
    }
}
