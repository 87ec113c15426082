//! Counting-allocator proof that the arena executor runs a convolutional
//! training step without an allocating fallback kernel and without touching
//! the heap in steady state (see `zero_alloc.rs`):
//!
//! * a frozen 3x3 conv stack (lowered forward convs with their weight
//!   gradients pruned, rank-4 bias adds and bias-gradient reductions);
//! * a trainable stack of dense, depthwise and pointwise convs (forward,
//!   grad-input and grad-weight kernels and their stack panels);
//! * the tiny MobileNetV2 under full backpropagation and bias-only updates.
//!
//! A single `#[test]`, because the global allocator counts every thread in
//! the process.

use pe_tests::support::{
    assert_steady_state_is_clean, count_ops, executor, labelled_batch, CountingAlloc,
};
use pockengine::pe_graph::{GraphBuilder, OpKind, TrainKind, TrainSpec};
use pockengine::pe_models::{build_mobilenet, MobileNetV2Config};
use pockengine::pe_runtime::Optimizer;
use pockengine::pe_sparse::UpdateRule;
use pockengine::pe_tensor::kernels::conv::Conv2dParams;
use pockengine::pe_tensor::Rng;
use pockengine::{compile, CompileOptions};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn cnn_training_step_has_zero_fallbacks_and_zero_allocations() {
    // A small CNN in the sparse-backprop regime the paper targets: frozen
    // 3x3 stride-1 convolutions with trainable per-channel biases and a
    // trainable linear head.
    let mut rng = Rng::seed_from_u64(0);
    let images = labelled_batch(&[2, 3, 12, 12], 4);
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
    let exec = executor(graph, loss, &spec, Optimizer::sgd(0.05));
    // Both frozen convolutions compile to forward-only lowered convs (no
    // weight gradient), each followed by its rank-4 bias add.
    let graph = &exec.training_graph().graph;
    let conv_weights: Vec<&str> = graph
        .nodes()
        .iter()
        .filter(|n| matches!(n.op, OpKind::Conv2d(_)))
        .map(|n| graph.node(n.inputs[1]).name.as_str())
        .collect();
    assert_eq!(conv_weights, ["conv0.weight", "conv1.weight"]);
    assert_eq!(
        count_ops(&exec, |op| matches!(op, OpKind::Conv2dGradWeight { .. })),
        0,
        "frozen conv weights must get no weight gradient"
    );
    assert_eq!(count_ops(&exec, |op| matches!(op, OpKind::AddBias)), 2);
    assert_steady_state_is_clean(&ALLOC, exec, &images, 10, "frozen backbone");

    // Nothing frozen: behind a first layer (whose input is data and has no
    // gradient) a dense 3x3 stride-2 conv, a depthwise 3x3 and a 1x1 — the
    // three branches of the lowered convolution, each run forward, for its
    // input gradient and for its weight gradient.
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
    let exec = executor(graph, loss, &TrainSpec::new(), Optimizer::sgd(0.05));
    let count = |wanted| count_ops(&exec, wanted);
    assert_eq!(count(|op| matches!(op, OpKind::Conv2d(_))), 4);
    assert_eq!(count(|op| matches!(op, OpKind::Conv2dGradInput { .. })), 3);
    assert_eq!(count(|op| matches!(op, OpKind::Conv2dGradWeight { .. })), 4);
    let what = "trainable lowered convs";
    assert_steady_state_is_clean(&ALLOC, exec, &images, 10, what);

    // The tiny MobileNetV2 (batch 4, 16x16 images, 3 classes).
    let model = build_mobilenet(&MobileNetV2Config::tiny(4, 3), &mut rng);
    let images = labelled_batch(&[4, 3, 16, 16], 3);
    for (rule, what) in [
        (UpdateRule::Full, "MobileNetV2, full backprop"),
        (UpdateRule::BiasOnly, "MobileNetV2, bias only"),
    ] {
        let options = CompileOptions {
            update_rule: rule,
            optimizer: Optimizer::sgd(0.01),
            ..CompileOptions::default()
        };
        let exec = compile(&model, &options).executor;
        assert_steady_state_is_clean(&ALLOC, exec, &images, 10, what);
    }
}
