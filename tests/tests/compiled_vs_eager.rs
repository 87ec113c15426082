//! The training half of the bit-identity chain on real models: the arena
//! executor over the planner's plan (compile-time autodiff plus every graph
//! optimisation) matches the same executor over a disjoint plan bit for
//! bit, and runtime-autodiff eager mode to tight tolerance
//! (`support::assert_chain`), for CNN and transformer workloads, a graph
//! whose activations read views of live buffers, and random MLPs. This is
//! the functional-preservation guarantee behind every optimisation the
//! compiler applies.

use std::collections::HashMap;
use std::sync::Arc;

use pe_tests::support::{assert_chain, random_mlp, step_inputs};
use pockengine::pe_data::{
    generate_nlp_task, generate_vision_task, NlpTaskConfig, VisionTaskConfig,
};
use pockengine::pe_graph::{build_training_graph, NodeId, OpKind};
use pockengine::pe_memplan::plan_memory;
use pockengine::pe_passes::optimize;
use pockengine::prelude::*;
use proptest::prelude::*;

#[test]
fn cnn_training_is_equivalent_to_eager_baseline() {
    let mut rng = Rng::seed_from_u64(0);
    let model = build_mobilenet(&MobileNetV2Config::tiny(4, 3), &mut rng);
    let mut data_rng = Rng::seed_from_u64(1);
    let task = generate_vision_task(
        "equiv",
        VisionTaskConfig {
            num_classes: 3,
            resolution: 16,
            batch: 4,
            train_batches: 1,
            test_batches: 1,
            noise: 0.5,
            signal: 1.0,
        },
        &mut data_rng,
    );
    let inputs = step_inputs("x", task.train);
    let spec = apply_rule(&model, &UpdateRule::Full);
    assert_chain(
        &model.graph,
        model.loss,
        &spec,
        &inputs,
        3,
        Optimizer::sgd(0.05),
    );
}

#[test]
fn transformer_training_is_equivalent_to_eager_baseline() {
    let mut rng = Rng::seed_from_u64(2);
    let model = build_bert(&BertConfig::tiny(4, 2), &mut rng);
    let mut data_rng = Rng::seed_from_u64(3);
    let task = generate_nlp_task(
        "equiv",
        NlpTaskConfig {
            num_classes: 2,
            vocab: 100,
            seq_len: 16,
            batch: 4,
            train_batches: 1,
            test_batches: 1,
            marker_dropout: 0.0,
        },
        &mut data_rng,
    );
    let inputs = step_inputs("ids", task.train);
    let spec = apply_rule(&model, &UpdateRule::Full);
    assert_chain(
        &model.graph,
        model.loss,
        &spec,
        &inputs,
        2,
        Optimizer::sgd(0.01),
    );
}

#[test]
fn compiled_gradients_match_finite_differences_through_the_whole_stack() {
    // End-to-end gradient check: perturb one weight element of a small MLP
    // and compare the loss change against the update applied by the engine
    // (SGD with lr=1 makes the applied update equal to minus the gradient).
    let mut rng = Rng::seed_from_u64(4);
    let mut b = GraphBuilder::new();
    let x = b.input("x", [4, 6]);
    let labels = b.input("labels", [4]);
    let w1 = b.weight("fc1.weight", [8, 6], &mut rng);
    let b1 = b.bias("fc1.bias", 8);
    let h = b.linear(x, w1, Some(b1));
    let h = b.gelu(h);
    let w2 = b.weight("fc2.weight", [3, 8], &mut rng);
    let logits = b.linear(h, w2, None);
    let loss = b.cross_entropy(logits, labels);
    let graph = b.finish(vec![loss, logits]);

    let mut data_rng = Rng::seed_from_u64(5);
    let xs = Tensor::randn([4, 6], 1.0, &mut data_rng);
    let ys = Tensor::from_vec(vec![0.0, 1.0, 2.0, 0.0], [4]);
    let inputs = HashMap::from([
        ("x".to_string(), xs.clone()),
        ("labels".to_string(), ys.clone()),
    ]);

    // The model handle for compile() comes from the zoo normally; build one
    // by hand for this synthetic graph.
    let model = BuiltModel {
        loss,
        logits,
        feature_input: "x".to_string(),
        label_input: "labels".to_string(),
        num_blocks: 0,
        name: "gradcheck-mlp".to_string(),
        graph,
    };

    // Loss at theta, via an eval-only pass.
    let options = CompileOptions {
        optimizer: Optimizer::sgd(1.0),
        ..CompileOptions::default()
    };
    let mut exec = compile(&model, &options).executor;
    let w_before = exec.param_by_name("fc1.weight").unwrap().clone();
    let loss0 = exec.run_eval(&inputs).unwrap().loss.unwrap();

    // One training step with lr = 1: w_after = w_before - grad.
    exec.run_step(&inputs).unwrap();
    let w_after = exec.param_by_name("fc1.weight").unwrap().clone();

    // Finite differences on a handful of elements: a second program
    // evaluates `w_before` with one element perturbed at a time.
    let mut probe = compile(&model, &options).executor;
    let wid = probe
        .training_graph()
        .graph
        .find_param("fc1.weight")
        .unwrap();
    let eps = 1e-2;
    for idx in [0usize, 7, 13, 29, 41] {
        let grad_engine = w_before.data()[idx] - w_after.data()[idx];
        let mut w = w_before.clone();
        w.data_mut()[idx] += eps;
        probe.set_param(wid, w);
        let loss1 = probe.run_eval(&inputs).unwrap().loss.unwrap();
        let fd = (loss1 - loss0) / eps;
        assert!(
            (fd - grad_engine).abs() < 0.05,
            "gradient mismatch at element {idx}: finite-difference {fd} vs engine {grad_engine}"
        );
    }
}

/// Seeded `[batch, ..]` features and `[labels]` class labels below 3.
fn random_inputs(x_dims: &[usize], labels: usize, seed: u64) -> HashMap<String, Tensor> {
    let mut rng = Rng::seed_from_u64(seed);
    let xs = Tensor::randn(x_dims.to_vec(), 1.0, &mut rng);
    let ys = (0..labels).map(|_| rng.next_usize(3) as f32).collect();
    HashMap::from([
        ("x".to_string(), xs),
        ("labels".to_string(), Tensor::from_vec(ys, [labels])),
    ])
}

/// The clobber case: every activation reads a reshape view of its
/// pre-activation, and residual adds read that pre-activation again after
/// the activation, so the planner views the buffer but may not write over
/// it, while the activations' VJPs write in place. The chain holds on it.
#[test]
fn activation_over_a_view_of_a_live_buffer_matches_the_disjoint_oracle() {
    let (batch, width) = (4, 12);
    let (g, loss, spec) = random_mlp(5, width, batch, 0, 5, true);
    let residuals = g.nodes().iter().filter(|n| matches!(n.op, OpKind::Add));
    assert!(residuals.count() > 0, "no residual reads a viewed buffer");
    let tg = build_training_graph(g.clone(), loss, &spec);
    let (tg, schedule, _) = optimize(tg, Default::default());
    let plan = plan_memory(&tg.graph, &schedule);
    let aliased = |pick: fn(&OpKind) -> bool| {
        (0..tg.graph.len())
            .filter(|&i| plan.aliases[i].is_some() && pick(&tg.graph.node(NodeId(i)).op))
            .count()
    };
    assert!(
        aliased(|op| matches!(op, OpKind::Reshape { .. })) > 0,
        "no view"
    );
    assert!(
        aliased(|op| op.is_backward() && !matches!(op, OpKind::ApplyUpdate { .. })) > 0,
        "no activation VJP written in place"
    );
    let inputs = random_inputs(&[batch, 2, width], batch * 2, 6);
    assert_chain(&g, loss, &spec, &[inputs], 3, Optimizer::sgd(0.05));
}

/// A supplied memory plan is validated, not trusted: a plan with one buffer
/// moved past the end of the arena is refused when the executor is built.
#[test]
#[should_panic(expected = "exceeds arena")]
fn supplied_plan_with_a_buffer_outside_the_arena_panics() {
    let (g, loss, spec) = random_mlp(2, 8, 2, 0, 1, false);
    let (tg, schedule, _) = optimize(build_training_graph(g, loss, &spec), Default::default());
    let mut plan = plan_memory(&tg.graph, &schedule);
    let moved = plan
        .offsets
        .iter()
        .position(Option::is_some)
        .expect("a planned buffer");
    plan.offsets[moved] = Some(plan.arena_bytes);
    let store = Arc::new(ParamStore::from_graph(&tg.graph, Optimizer::sgd(0.05)));
    Executor::with_store_and_plan(tg, schedule, store, Some(plan));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The chain holds on random small MLPs, frozen prefixes included.
    #[test]
    fn planned_arena_matches_disjoint_arena_and_eager_on_random_graphs(
        depth in 1usize..4,
        width in 3usize..12,
        batch in 1usize..5,
        frozen_prefix in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let frozen_prefix = frozen_prefix.min(depth.saturating_sub(1));
        let (g, loss, spec) = random_mlp(depth, width, batch, frozen_prefix, seed, false);
        let inputs = random_inputs(&[batch, width], batch, seed ^ 0x5bd1_e995);
        assert_chain(&g, loss, &spec, &[inputs], 3, Optimizer::sgd(0.05));
    }
}
