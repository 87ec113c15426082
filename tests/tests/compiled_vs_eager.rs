//! Cross-crate integration tests: the compiled engine (compile-time autodiff
//! plus all graph optimisations) must be numerically equivalent to the eager
//! runtime-autodiff baseline, for both CNN and transformer workloads. This is
//! the functional-preservation guarantee behind every optimisation the
//! compiler applies.

use std::collections::HashMap;
use std::sync::Arc;

use pe_tests::support::{assert_planned_matches_disjoint, disjoint_executor};
use pockengine::pe_data::{
    generate_nlp_task, generate_vision_task, NlpTaskConfig, VisionTaskConfig,
};
use pockengine::pe_graph::{build_training_graph, NodeId, OpKind, TrainKind, TrainSpec};
use pockengine::pe_memplan::plan_memory;
use pockengine::pe_passes::optimize;
use pockengine::pe_runtime::EagerEngine;
use pockengine::prelude::*;
use proptest::prelude::*;

/// Per-parameter `(name, compiled_value, eager_value)` snapshots after training.
type ParamPairs = Vec<(String, Tensor, Tensor)>;

fn run_both(
    model: &BuiltModel,
    inputs: &HashMap<String, Tensor>,
    steps: usize,
    lr: f32,
) -> (Vec<f32>, Vec<f32>, ParamPairs) {
    // Compiled engine with every optimisation enabled.
    let program = compile(
        model,
        &CompileOptions {
            optimizer: Optimizer::sgd(lr),
            ..CompileOptions::default()
        },
    );
    let mut exec = program.executor;
    // Eager baseline: runtime autodiff, no optimisations, updates at the end.
    let spec = apply_rule(model, &UpdateRule::Full);
    let mut eager = EagerEngine::new(model.graph.clone(), model.loss, spec, Optimizer::sgd(lr));

    let mut losses_compiled = Vec::new();
    let mut losses_eager = Vec::new();
    for _ in 0..steps {
        losses_compiled.push(exec.run_step(inputs).unwrap().loss.unwrap());
        losses_eager.push(eager.run_step(inputs).unwrap().loss.unwrap());
    }
    let params = model
        .named_params()
        .into_iter()
        .filter_map(|(_, name)| {
            let a = exec.param_by_name(&name)?.clone();
            let b = eager.param_by_name(&name)?.clone();
            Some((name, a, b))
        })
        .collect();
    (losses_compiled, losses_eager, params)
}

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
    let (x, y) = &task.train[0];
    let inputs = HashMap::from([
        ("x".to_string(), x.clone()),
        ("labels".to_string(), y.clone()),
    ]);

    let (compiled, eager, params) = run_both(&model, &inputs, 3, 0.05);
    for (a, b) in compiled.iter().zip(&eager) {
        assert!((a - b).abs() < 1e-4, "loss mismatch: {a} vs {b}");
    }
    for (name, a, b) in params {
        assert!(
            a.allclose(&b, 1e-3),
            "parameter '{name}' diverged after training"
        );
    }
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
    let (ids, labels) = &task.train[0];
    let inputs = HashMap::from([
        ("ids".to_string(), ids.clone()),
        ("labels".to_string(), labels.clone()),
    ]);

    let (compiled, eager, params) = run_both(&model, &inputs, 2, 0.01);
    for (a, b) in compiled.iter().zip(&eager) {
        assert!((a - b).abs() < 1e-4, "loss mismatch: {a} vs {b}");
    }
    for (name, a, b) in params {
        assert!(
            a.allclose(&b, 1e-3),
            "parameter '{name}' diverged after training"
        );
    }
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
    let program = compile(
        &model,
        &CompileOptions {
            optimizer: Optimizer::sgd(1.0),
            ..CompileOptions::default()
        },
    );
    let mut exec = program.executor;
    let w_before = exec.param_by_name("fc1.weight").unwrap().clone();
    let loss0 = exec.run_eval(&inputs).unwrap().loss.unwrap();

    // One training step with lr = 1: w_after = w_before - grad.
    exec.run_step(&inputs).unwrap();
    let w_after = exec.param_by_name("fc1.weight").unwrap().clone();

    // Finite differences on a handful of elements.
    let eps = 1e-2;
    for idx in [0usize, 7, 13, 29, 41] {
        let grad_engine = w_before.data()[idx] - w_after.data()[idx];
        // Perturb and re-evaluate through a fresh program.
        let mut perturbed = compile(
            &model,
            &CompileOptions {
                optimizer: Optimizer::sgd(1.0),
                ..CompileOptions::default()
            },
        );
        let wid = perturbed
            .executor
            .training_graph()
            .graph
            .find_param("fc1.weight")
            .unwrap();
        let mut w = w_before.clone();
        w.data_mut()[idx] += eps;
        perturbed.executor.set_param(wid, w);
        let loss1 = perturbed.executor.run_eval(&inputs).unwrap().loss.unwrap();
        let fd = (loss1 - loss0) / eps;
        assert!(
            (fd - grad_engine).abs() < 0.05,
            "gradient mismatch at element {idx}: finite-difference {fd} vs engine {grad_engine}"
        );
    }
}

/// Builds a random MLP training graph plus matching inputs from a compact
/// parameter tuple, for the executor-parity property below.
#[allow(clippy::type_complexity)]
fn random_program(
    depth: usize,
    width: usize,
    batch: usize,
    frozen_prefix: usize,
    seed: u64,
) -> (
    pockengine::pe_graph::TrainingGraph,
    pockengine::pe_passes::Schedule,
    EagerEngine,
    HashMap<String, Tensor>,
) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let x = b.input("x", [batch, width]);
    let labels = b.input("labels", [batch]);
    let mut h = x;
    let mut spec = TrainSpec::new();
    for i in 0..depth {
        let w = b.weight(&format!("fc{i}.weight"), [width, width], &mut rng);
        let bias = b.bias(&format!("fc{i}.bias"), width);
        if i < frozen_prefix {
            spec.insert(w, TrainKind::Frozen);
            spec.insert(bias, TrainKind::Frozen);
        }
        h = b.linear(h, w, Some(bias));
        h = if i % 2 == 0 { b.relu(h) } else { b.gelu(h) };
    }
    let head = b.weight("head.weight", [3, width], &mut rng);
    let logits = b.linear(h, head, None);
    let loss = b.cross_entropy(logits, labels);
    let g = b.finish(vec![loss, logits]);
    let eager = EagerEngine::new(g.clone(), loss, spec.clone(), Optimizer::sgd(0.05));
    let tg = build_training_graph(g, loss, &spec);
    let (tg, schedule, _) = optimize(tg, OptimizeOptions::default());

    let mut data_rng = Rng::seed_from_u64(seed ^ 0x5bd1_e995);
    let xs = Tensor::randn([batch, width], 1.0, &mut data_rng);
    let mut ys = Tensor::zeros([batch]);
    for i in 0..batch {
        ys.data_mut()[i] = data_rng.next_usize(3) as f32;
    }
    let inputs = HashMap::from([("x".to_string(), xs), ("labels".to_string(), ys)]);
    (tg, schedule, eager, inputs)
}

/// The clobber case: every layer's activation reads a reshape view of its
/// pre-activation, and a residual add reads that pre-activation again after
/// the activation, so the planner views the buffer but may not write over
/// it. Layers cycle through all five activations with an in-place VJP. The
/// planned executor matches the disjoint-plan oracle bit for bit.
#[test]
fn activation_over_a_view_of_a_live_buffer_matches_the_disjoint_oracle() {
    let (batch, width) = (4, 12);
    let mut rng = Rng::seed_from_u64(5);
    let mut b = GraphBuilder::new();
    let x = b.input("x", [batch, 2, width]);
    let labels = b.input("labels", [batch * 2]);
    let mut h = x;
    for i in 0..5 {
        let w = b.weight(&format!("fc{i}.weight"), [width, width], &mut rng);
        let bias = b.bias(&format!("fc{i}.bias"), width);
        let pre = b.linear(h, w, Some(bias));
        let view = b.reshape(pre, vec![batch * 2, width]);
        let act = match i {
            0 => b.relu(view),
            1 => b.gelu(view),
            2 => b.silu(view),
            3 => b.sigmoid(view),
            _ => b.tanh(view),
        };
        let act = b.reshape(act, vec![batch, 2, width]);
        h = b.add(act, pre);
    }
    let head = b.weight("head.weight", [3, width], &mut rng);
    let flat = b.reshape(h, vec![batch * 2, width]);
    let logits = b.linear(flat, head, None);
    let loss = b.cross_entropy(logits, labels);
    let g = b.finish(vec![loss, logits]);
    let spec: TrainSpec = g.params().keys().map(|&id| (id, TrainKind::Full)).collect();
    let (tg, schedule, _) = optimize(build_training_graph(g, loss, &spec), Default::default());

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

    let mut data_rng = Rng::seed_from_u64(6);
    let xs = Tensor::randn([batch, 2, width], 1.0, &mut data_rng);
    let ys = Tensor::from_vec(
        (0..batch * 2)
            .map(|_| data_rng.next_usize(3) as f32)
            .collect(),
        [batch * 2],
    );
    let inputs = HashMap::from([("x".to_string(), xs), ("labels".to_string(), ys)]);
    assert_planned_matches_disjoint(Arc::new(tg), schedule, Optimizer::sgd(0.05), &[inputs], 3);
}

/// A supplied memory plan is validated, not trusted: a plan with one buffer
/// moved past the end of the arena is refused when the executor is built.
#[test]
#[should_panic(expected = "exceeds arena")]
fn supplied_plan_with_a_buffer_outside_the_arena_panics() {
    let (tg, schedule, _, _) = random_program(2, 8, 2, 0, 1);
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

    /// For random small graphs the executor over the planner's plan is
    /// bit-identical to the same executor over a plan that reuses nothing
    /// and aliases nothing (reuse and in-place aliasing change where values
    /// live, never what they are), and both match runtime-autodiff eager
    /// mode to tight numeric tolerance (eager derives its own backward
    /// graph every step, so the test does not hold it to the bit).
    #[test]
    fn planned_arena_matches_disjoint_arena_and_eager_on_random_graphs(
        depth in 1usize..4,
        width in 3usize..12,
        batch in 1usize..5,
        frozen_prefix in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let frozen_prefix = frozen_prefix.min(depth.saturating_sub(1));
        let (tg, schedule, mut eager, inputs) =
            random_program(depth, width, batch, frozen_prefix, seed);
        let lr = 0.05;
        let mut disjoint = disjoint_executor(tg.clone(), schedule.clone(), Optimizer::sgd(lr));
        let mut planned = Executor::new(tg.clone(), schedule.clone(), Optimizer::sgd(lr));

        for _ in 0..3 {
            let ld = disjoint.run_step(&inputs).unwrap().loss.unwrap();
            let lp = planned.run_step(&inputs).unwrap().loss.unwrap();
            let le = eager.run_step(&inputs).unwrap().loss.unwrap();
            prop_assert_eq!(ld.to_bits(), lp.to_bits(), "planned loss != disjoint loss");
            prop_assert!((ld - le).abs() <= 1e-4 + 1e-4 * ld.abs(), "eager loss diverged: {} vs {}", ld, le);
        }
        for id in tg.graph.param_ids() {
            let name = tg.graph.node(id).name.clone();
            let reference = disjoint.param(id).unwrap();
            let planned_value = planned.param(id).unwrap();
            prop_assert_eq!(
                reference.data(), planned_value.data(),
                "parameter '{}' differs between the disjoint and planned plans", name
            );
            if let Some(eager_value) = eager.param_by_name(&name) {
                prop_assert!(
                    reference.allclose(&eager_value, 1e-3),
                    "parameter '{}' diverged from eager", name
                );
            }
        }
        prop_assert_eq!(planned.fallback_dispatches(), 0, "MLP graphs must not hit fallback kernels");
    }
}
