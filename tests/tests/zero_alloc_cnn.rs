//! Counting-allocator proof that the arena executor runs a *convolutional*
//! training step — the GEMM-lowered forward kernels of a frozen backbone
//! with its weight gradients pruned, the forward, grad-input and grad-weight
//! kernels (and their stack panels) of a trainable one, rank-4 bias adds
//! and in-place activations, rank-4 bias-gradient reductions — without ever
//! dispatching an allocating fallback kernel and without touching the heap
//! in steady state. Companion to `zero_alloc.rs`
//! (the MLP variant); this file also holds a single `#[test]` because the
//! global allocator counts every thread in the process.

use std::collections::HashMap;

use pe_tests::support::CountingAlloc;
use pockengine::pe_graph::{build_training_graph, Graph, NodeId, TrainKind, TrainSpec};
use pockengine::pe_graph::{GraphBuilder, OpKind};
use pockengine::pe_passes::{optimize, OptimizeOptions};
use pockengine::pe_runtime::{Executor, Optimizer};
use pockengine::pe_tensor::kernels::conv::Conv2dParams;
use pockengine::pe_tensor::{Rng, Tensor};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Compiles `graph` for the executor through the default pipeline.
fn compile(graph: Graph, loss: NodeId, spec: &TrainSpec) -> Executor {
    let tg = build_training_graph(graph, loss, spec);
    let (tg, schedule, _) = optimize(tg, OptimizeOptions::default());
    Executor::new(tg, schedule, Optimizer::sgd(0.05))
}

/// Nodes of `exec`'s compiled program whose op satisfies `wanted`.
fn count_ops(exec: &Executor, wanted: fn(&OpKind) -> bool) -> usize {
    let nodes = exec.training_graph().graph.nodes();
    nodes.iter().filter(|n| wanted(&n.op)).count()
}

/// Steps `exec` on one seeded batch of `x_dims` images: after a warm-up the
/// steady state must not allocate or fall back, and the loss must fall.
fn assert_steady_state_is_clean(mut exec: Executor, x_dims: [usize; 4], what: &str) {
    let mut data_rng = Rng::seed_from_u64(1);
    let xs = Tensor::randn(x_dims, 1.0, &mut data_rng);
    let mut ys = Tensor::zeros([x_dims[0]]);
    for y in ys.data_mut() {
        *y = data_rng.next_usize(4) as f32;
    }
    let inputs = HashMap::from([("x".to_string(), xs), ("labels".to_string(), ys)]);

    // Warm up before counting.
    let mut losses = Vec::with_capacity(4);
    for _ in 0..3 {
        losses.push(exec.train_step(&inputs).unwrap().unwrap());
    }

    // As in `zero_alloc.rs`: the counter is process-global, so require one
    // clean window out of several rather than an unconditionally clean run.
    let steps = 10;
    let windows = 3;
    let mut sink = 0.0f32;
    let mut counts = Vec::with_capacity(windows);
    for _ in 0..windows {
        let before = ALLOC.count();
        for _ in 0..steps {
            sink += exec.train_step(&inputs).unwrap().unwrap();
        }
        counts.push(ALLOC.count() - before);
    }

    assert!(sink.is_finite(), "{what}: loss must stay finite");
    assert!(
        counts.contains(&0),
        "{what}: steady-state training steps must perform zero heap allocations \
         (allocations per {steps}-step window: {counts:?})"
    );
    assert_eq!(
        exec.fallback_dispatches(),
        0,
        "{what}: the program must not dispatch any allocating fallback kernel"
    );

    // The steps above actually trained the parameters.
    let final_loss = exec.train_step(&inputs).unwrap().unwrap();
    assert!(
        final_loss < losses[0],
        "{what}: loss should decrease: {} -> {final_loss}",
        losses[0]
    );
}

#[test]
fn cnn_training_step_has_zero_fallbacks_and_zero_allocations() {
    // A small CNN in the sparse-backprop regime the paper targets: frozen
    // 3x3 stride-1 convolutions with trainable per-channel biases and a
    // trainable linear head. The backward pass therefore exercises the
    // rank-4 bias reduction and activation gradients but computes no conv
    // weight gradient, while the forward pass runs the lowered convs, their
    // rank-4 bias adds and ReLUs.
    let mut rng = Rng::seed_from_u64(0);
    let mut b = GraphBuilder::new();
    let x = b.input("x", [2, 3, 12, 12]);
    let labels = b.input("labels", [2]);
    let mut h = x;
    let mut spec = TrainSpec::new();
    for i in 0..2 {
        let cin = b.dims_of(h)[1];
        let w = b.weight(&format!("conv{i}.weight"), [8, cin, 3, 3], &mut rng);
        spec.insert(w, TrainKind::Frozen);
        let bias = b.bias(&format!("conv{i}.bias"), 8);
        h = b.conv2d(h, w, Conv2dParams::new(1, 1));
        h = b.add_bias(h, bias);
        h = b.relu(h);
    }
    let p = b.global_avg_pool(h);
    let head = b.weight("head.weight", [4, 8], &mut rng);
    let logits = b.linear(p, head, None);
    let loss = b.cross_entropy(logits, labels);
    let graph = b.finish(vec![loss, logits]);
    let exec = compile(graph, loss, &spec);

    // The program must actually contain the interesting kernels: both frozen
    // convolutions as forward-only lowered convs (sparse backprop prunes
    // their weight gradients) and a rank-4 bias add behind each of them.
    let graph = &exec.training_graph().graph;
    let conv_weights: Vec<&str> = graph
        .nodes()
        .iter()
        .filter(|n| matches!(n.op, OpKind::Conv2d(_)))
        .map(|n| graph.node(n.inputs[1]).name.as_str())
        .collect();
    assert_eq!(
        conv_weights,
        ["conv0.weight", "conv1.weight"],
        "both frozen convs must compile to Conv2d"
    );
    assert_eq!(
        count_ops(&exec, |op| matches!(op, OpKind::Conv2dGradWeight { .. })),
        0,
        "frozen conv weights must get no weight gradient"
    );
    assert_eq!(
        count_ops(&exec, |op| matches!(op, OpKind::AddBias)),
        2,
        "each conv must be followed by its bias add"
    );

    assert_steady_state_is_clean(exec, [2, 3, 12, 12], "frozen backbone");

    // The same shape of program with nothing frozen: behind a first layer
    // (whose input is data and has no gradient) a dense 3x3 stride-2 conv, a
    // depthwise 3x3 and a 1x1 — the three branches of the lowered
    // convolution, each run forward, for its input gradient and for its
    // weight gradient.
    let mut b = GraphBuilder::new();
    let x = b.input("x", [2, 3, 12, 12]);
    let labels = b.input("labels", [2]);
    let first = b.weight("first.weight", [4, 3, 1, 1], &mut rng);
    let dense = b.weight("dense.weight", [8, 4, 3, 3], &mut rng);
    let depthwise = b.weight("depthwise.weight", [8, 1, 3, 3], &mut rng);
    let pointwise = b.weight("pointwise.weight", [16, 8, 1, 1], &mut rng);
    let h = b.conv2d(x, first, Conv2dParams::default());
    let h = b.conv2d(h, dense, Conv2dParams::new(2, 1));
    let h = b.relu(h);
    let h = b.conv2d(h, depthwise, Conv2dParams::new(1, 1).with_groups(8));
    let h = b.relu(h);
    let h = b.conv2d(h, pointwise, Conv2dParams::default());
    let h = b.relu(h);
    let p = b.global_avg_pool(h);
    let head = b.weight("head.weight", [4, 16], &mut rng);
    let logits = b.linear(p, head, None);
    let loss = b.cross_entropy(logits, labels);
    let graph = b.finish(vec![loss, logits]);
    let exec = compile(graph, loss, &TrainSpec::new());
    let count = |wanted| count_ops(&exec, wanted);
    assert_eq!(count(|op| matches!(op, OpKind::Conv2d(_))), 4);
    assert_eq!(count(|op| matches!(op, OpKind::Conv2dGradInput { .. })), 3);
    assert_eq!(count(|op| matches!(op, OpKind::Conv2dGradWeight { .. })), 4);
    assert_steady_state_is_clean(exec, [2, 3, 12, 12], "trainable lowered convs");
}
