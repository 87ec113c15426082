//! Integration suite for the serving stack: shared `ParamStore`, the staged
//! `Compiler` → `Program` specialization cache, and the `Engine` facade.
//!
//! The load-bearing claim: **one canonical copy of each parameter serves
//! many batch-size specializations with bit-identical training results**
//! versus the old per-executor world where every executor owned private
//! parameter copies.

use std::collections::HashMap;
use std::sync::Arc;

use pockengine::pe_graph::{build_training_graph, GraphBuilder, ParamKey, TrainSpec};
use pockengine::pe_models::BuiltModel;
use pockengine::pe_passes::{optimize, OptimizeOptions};
use pockengine::pe_runtime::{Executor, ExecutorConfig, Optimizer, ParamStore};
use pockengine::pe_tensor::{Rng, Tensor};
use pockengine::{
    compile, CompileOptions, Compiler, Engine, EngineConfig, Outcome, Program, Request, Response,
    ServingKind,
};

const DIM: usize = 16;
const CLASSES: usize = 4;

/// A deterministic two-layer MLP family: same parameter names, shapes and
/// initial values at every batch size (the `ModelFactory` contract).
fn mlp(batch: usize) -> BuiltModel {
    let mut rng = Rng::seed_from_u64(42);
    let mut b = GraphBuilder::new();
    let x = b.input("x", [batch, DIM]);
    let labels = b.input("labels", [batch]);
    let w1 = b.weight("fc1.weight", [32, DIM], &mut rng);
    let b1 = b.bias("fc1.bias", 32);
    let h = b.linear(x, w1, Some(b1));
    let h = b.relu(h);
    let w2 = b.weight("fc2.weight", [CLASSES, 32], &mut rng);
    let b2 = b.bias("fc2.bias", CLASSES);
    let logits = b.linear(h, w2, Some(b2));
    let loss = b.cross_entropy(logits, labels);
    let graph = b.finish(vec![loss, logits]);
    BuiltModel {
        graph,
        loss,
        logits,
        feature_input: "x".to_string(),
        label_input: "labels".to_string(),
        num_blocks: 2,
        name: "mlp-test".to_string(),
    }
}

fn options(optimizer: Optimizer, executor: ExecutorConfig) -> CompileOptions {
    CompileOptions {
        optimizer,
        executor,
        ..CompileOptions::default()
    }
}

fn program(optimizer: Optimizer, executor: ExecutorConfig) -> Program {
    Compiler::new(options(optimizer, executor)).compile(mlp)
}

/// A linearly-separable request: class signal at feature `c * 3`.
fn request(kind: ServingKind, rows: usize, rng: &mut Rng) -> Request {
    let mut features = Tensor::zeros([rows, DIM]);
    let mut labels = Tensor::zeros([rows]);
    for i in 0..rows {
        let c = rng.next_usize(CLASSES);
        for j in 0..DIM {
            features.set(&[i, j], rng.normal() * 0.2);
        }
        features.set(&[i, c * 3], 2.0);
        labels.data_mut()[i] = c as f32;
    }
    Request::new(kind, features, labels)
}

/// Unwraps a slice-serve outcome vector into completed responses.
fn completed(outcomes: Vec<Outcome>) -> Vec<Response> {
    outcomes
        .into_iter()
        .map(|o| o.expect_completed("request should complete"))
        .collect()
}

/// Trains at batch 4 and evals at batches {2, 8} interleaved: the engine
/// must be bit-identical to a dedicated single executor (private parameter
/// copy, the pre-`ParamStore` world) fed the same training batches.
#[test]
fn engine_matches_single_executor_baseline_bit_for_bit() {
    let mut rng = Rng::seed_from_u64(7);
    let mut stream = Vec::new();
    for i in 0..12 {
        stream.push(request(ServingKind::Train, 4, &mut rng));
        let eval_rows = if i % 2 == 0 { 2 } else { 8 };
        stream.push(request(ServingKind::Eval, eval_rows, &mut rng));
    }

    let mut engine = Engine::new(
        program(Optimizer::sgd(0.1), ExecutorConfig::arena()),
        EngineConfig {
            executor: ExecutorConfig::arena(),
            warm_batches: vec![4, 8],
            ..EngineConfig::default()
        },
    );
    let responses = completed(engine.serve(&stream).unwrap());

    // Baseline: the old world — compile() at batch 4, private parameters.
    let mut baseline = compile(
        &mlp(4),
        &options(Optimizer::sgd(0.1), ExecutorConfig::arena()),
    )
    .executor;

    let train_losses: Vec<f32> = responses
        .iter()
        .filter(|r| r.kind == ServingKind::Train)
        .map(|r| r.loss.unwrap())
        .collect();
    assert_eq!(train_losses.len(), 12);
    for (req, &engine_loss) in stream
        .iter()
        .filter(|r| r.kind == ServingKind::Train)
        .zip(&train_losses)
    {
        let inputs = HashMap::from([
            ("x".to_string(), req.features.clone()),
            ("labels".to_string(), req.labels.clone()),
        ]);
        let baseline_loss = baseline.run_step(&inputs).unwrap().loss.unwrap();
        assert_eq!(
            baseline_loss.to_bits(),
            engine_loss.to_bits(),
            "train losses must be bit-identical to the baseline"
        );
    }

    // Final parameters agree bit for bit.
    for name in ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"] {
        let engine_param = engine
            .program()
            .store()
            .get(&ParamKey::new(name))
            .expect("param in store");
        let baseline_param = baseline.param_by_name(name).unwrap();
        assert_eq!(
            engine_param.data(),
            baseline_param.data(),
            "parameter '{name}' diverged from the baseline"
        );
    }

    // One store, >= 2 batch specializations actually used.
    let batches = engine.program().cached_batches();
    assert!(
        batches.len() >= 2,
        "expected >=2 specializations, got {batches:?}"
    );
    // Training improves later evals (one param copy serves them instantly).
    let eval_losses: Vec<f32> = responses
        .iter()
        .filter(|r| r.kind == ServingKind::Eval)
        .map(|r| r.loss.unwrap())
        .collect();
    assert!(
        eval_losses.last().unwrap() < eval_losses.first().unwrap(),
        "training requests should improve evaluation: {eval_losses:?}"
    );
}

/// The arena and boxed backends must agree bit for bit when driven through
/// the engine's shared-store path, exactly as they do standalone.
#[test]
fn engine_backends_agree_bit_for_bit() {
    let make_stream = |seed| {
        let mut rng = Rng::seed_from_u64(seed);
        (0..8)
            .map(|i| {
                let kind = if i % 3 == 2 {
                    ServingKind::Eval
                } else {
                    ServingKind::Train
                };
                request(kind, if i % 2 == 0 { 4 } else { 2 }, &mut rng)
            })
            .collect::<Vec<_>>()
    };
    let stream = make_stream(11);

    let mut results = Vec::new();
    for exec_cfg in [ExecutorConfig::arena(), ExecutorConfig::boxed()] {
        let mut engine = Engine::new(
            program(Optimizer::sgd(0.05), exec_cfg),
            EngineConfig {
                executor: exec_cfg,
                warm_batches: vec![2, 4],
                ..EngineConfig::default()
            },
        );
        let responses = completed(engine.serve(&stream).unwrap());
        let losses: Vec<u32> = responses
            .iter()
            .map(|r| r.loss.unwrap().to_bits())
            .collect();
        let weight = engine
            .program()
            .store()
            .get(&ParamKey::new("fc1.weight"))
            .unwrap();
        results.push((losses, weight));
    }
    assert_eq!(results[0].0, results[1].0, "arena vs boxed losses");
    assert_eq!(
        results[0].1.data(),
        results[1].1.data(),
        "arena vs boxed final weights"
    );
}

/// Padded evaluation must not leak into the reported rows: a 3-row request
/// evaluated through a padded batch-8 specialization returns exactly the
/// logits an exact batch-3 specialization computes.
#[test]
fn eval_padding_does_not_change_real_rows() {
    let mut rng = Rng::seed_from_u64(3);
    let req = request(ServingKind::Eval, 3, &mut rng);

    let mut padded = Engine::new(
        program(Optimizer::sgd(0.1), ExecutorConfig::arena()),
        EngineConfig {
            executor: ExecutorConfig::arena(),
            warm_batches: vec![8],
            ..EngineConfig::default()
        },
    );
    let r_padded = padded
        .serve_one(&req)
        .unwrap()
        .expect_completed("eval should complete");
    assert_eq!(r_padded.rows, 3);
    assert_eq!(r_padded.batch, 8, "must pad to the nearest cached size");
    assert_eq!(padded.metrics().padded_rows, 5);

    let mut exact = Engine::new(
        program(Optimizer::sgd(0.1), ExecutorConfig::arena()),
        EngineConfig {
            executor: ExecutorConfig::arena(),
            warm_batches: vec![3],
            ..EngineConfig::default()
        },
    );
    let r_exact = exact
        .serve_one(&req)
        .unwrap()
        .expect_completed("eval should complete");
    assert_eq!(r_exact.batch, 3);

    let (a, b) = (r_padded.logits.unwrap(), r_exact.logits.unwrap());
    assert_eq!(a.dims(), &[3, CLASSES]);
    assert_eq!(a.data(), b.data(), "padding changed real-row logits");
    assert_eq!(
        r_padded.loss.unwrap().to_bits(),
        r_exact.loss.unwrap().to_bits()
    );
}

/// Consecutive small evals coalesce into one padded micro-batch; cache
/// hit/miss accounting tracks warmup misses and steady-state hits.
#[test]
fn specialization_cache_and_coalescing_accounting() {
    let mut engine = Engine::new(
        program(Optimizer::sgd(0.1), ExecutorConfig::arena()),
        EngineConfig {
            executor: ExecutorConfig::arena(),
            warm_batches: vec![2, 8],
            ..EngineConfig::default()
        },
    );
    let warm = engine.cache_stats();
    assert_eq!(
        (warm.hits, warm.misses),
        (0, 2),
        "warmup compiles the ladder"
    );

    let mut rng = Rng::seed_from_u64(5);
    // Three consecutive 2-row evals pack into one batch (6 rows -> pad 8).
    let stream: Vec<Request> = (0..3)
        .map(|_| request(ServingKind::Eval, 2, &mut rng))
        .collect();
    let responses = completed(engine.serve(&stream).unwrap());
    assert_eq!(responses.len(), 3);
    assert!(responses.iter().all(|r| r.batch == 8 && r.rows == 2));
    let m = engine.metrics();
    assert_eq!(m.eval_batches, 1, "the three evals must coalesce");
    assert_eq!(m.padded_rows, 2);
    assert_eq!(m.rows, 6);
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 2, "no new specialization needed");
    assert_eq!(stats.hits, 1);
    // Per-request accounting: one cached dispatch served three requests;
    // the two warmup compiles served none.
    assert_eq!((stats.request_hits, stats.request_misses), (3, 0));

    // A train request at an uncached size is an exact-size miss.
    let train = request(ServingKind::Train, 5, &mut rng);
    let r = engine
        .serve_one(&train)
        .unwrap()
        .expect_completed("train should complete");
    assert_eq!(r.batch, 5, "training always runs exact");
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 3);
    assert_eq!(
        (stats.request_hits, stats.request_misses),
        (3, 1),
        "the exact-size train dispatch is a one-request miss"
    );
    assert!(engine.program().is_cached(5));
}

/// Concurrent training and evaluation through two executors sharing one
/// store: the store's guard serialises steps, training stays bit-identical
/// to a sequential run, and eval results are well-formed snapshots.
#[test]
fn concurrent_train_and_eval_are_deterministic() {
    let build_pair = |store: &Arc<ParamStore>| {
        let make = |batch: usize| {
            let model = mlp(batch);
            let tg = build_training_graph(model.graph.clone(), model.loss, &TrainSpec::new());
            let (tg, schedule, _) = optimize(tg, OptimizeOptions::default());
            Executor::with_store(tg, schedule, Arc::clone(store), ExecutorConfig::arena())
        };
        (make(4), make(8))
    };

    let mut rng = Rng::seed_from_u64(13);
    let train_reqs: Vec<Request> = (0..20)
        .map(|_| request(ServingKind::Train, 4, &mut rng))
        .collect();
    let eval_req = request(ServingKind::Eval, 8, &mut rng);
    let bind = |req: &Request| {
        HashMap::from([
            ("x".to_string(), req.features.clone()),
            ("labels".to_string(), req.labels.clone()),
        ])
    };

    // Sequential reference trajectory.
    let ref_store = Arc::new(ParamStore::from_graph(&mlp(1).graph, Optimizer::sgd(0.1)));
    let (mut ref_train, _) = build_pair(&ref_store);
    let ref_losses: Vec<u32> = train_reqs
        .iter()
        .map(|r| {
            ref_train
                .run_step(&bind(r))
                .unwrap()
                .loss
                .unwrap()
                .to_bits()
        })
        .collect();

    // Concurrent run: trainer thread + evaluator thread on one store.
    let store = Arc::new(ParamStore::from_graph(&mlp(1).graph, Optimizer::sgd(0.1)));
    let (mut train_exec, mut eval_exec) = build_pair(&store);
    let (losses, evals) = std::thread::scope(|s| {
        let trainer = s.spawn(|| {
            train_reqs
                .iter()
                .map(|r| {
                    train_exec
                        .run_step(&bind(r))
                        .unwrap()
                        .loss
                        .unwrap()
                        .to_bits()
                })
                .collect::<Vec<u32>>()
        });
        let evaluator = s.spawn(|| {
            (0..10)
                .map(|_| eval_exec.run_eval(&bind(&eval_req)).unwrap().loss.unwrap())
                .collect::<Vec<f32>>()
        });
        (trainer.join().unwrap(), evaluator.join().unwrap())
    });

    assert_eq!(
        losses, ref_losses,
        "concurrent eval must not perturb the training trajectory"
    );
    assert_eq!(evals.len(), 10);
    assert!(evals.iter().all(|l| l.is_finite()));
    assert_eq!(store.steps_completed(), 20);
}

/// Regression (set_param semantics): overwriting a parameter mid-training
/// must reset its optimizer state. An executor whose parameters are reset to
/// a fresh executor's values must from then on step exactly like the fresh
/// executor — stale momentum would diverge, and (for Adam) a stale
/// bias-correction step count would shrink the first post-reset updates.
#[test]
fn set_param_resets_optimizer_state() {
    let optimizers = [
        Optimizer::Momentum {
            lr: 0.05,
            momentum: 0.9,
        },
        Optimizer::adam(0.01),
    ];
    for optimizer in optimizers {
        let make = || {
            let model = mlp(4);
            let tg = build_training_graph(model.graph.clone(), model.loss, &TrainSpec::new());
            let (tg, schedule, _) = optimize(tg, OptimizeOptions::default());
            Executor::with_config(tg, schedule, optimizer, ExecutorConfig::arena())
        };
        let mut rng = Rng::seed_from_u64(17);
        let batches: Vec<HashMap<String, Tensor>> = (0..6)
            .map(|_| {
                let r = request(ServingKind::Train, 4, &mut rng);
                HashMap::from([
                    ("x".to_string(), r.features),
                    ("labels".to_string(), r.labels),
                ])
            })
            .collect();

        // Warm executor accumulates optimizer state over three steps.
        let mut warm = make();
        for b in &batches[..3] {
            warm.run_step(b).unwrap();
        }
        // Fresh executor: initial parameters, zero state, step count 0.
        let mut fresh = make();

        // Reset the warm executor's parameters to the fresh initial values.
        let ids: Vec<_> = warm.training_graph().graph.param_ids();
        for id in ids {
            let value = fresh.param(id).unwrap();
            warm.set_param(id, value);
        }

        // From here both must step identically: set_param zeroed the moments
        // and restarted the per-parameter step count.
        for b in &batches[3..] {
            let l_warm = warm.run_step(b).unwrap().loss.unwrap();
            let l_fresh = fresh.run_step(b).unwrap().loss.unwrap();
            assert_eq!(
                l_warm.to_bits(),
                l_fresh.to_bits(),
                "stale {optimizer:?} state must not survive set_param"
            );
        }
        for id in warm.training_graph().graph.param_ids() {
            assert_eq!(
                warm.param(id).unwrap().data(),
                fresh.param(id).unwrap().data(),
                "parameters must evolve identically after the reset ({optimizer:?})"
            );
        }
    }
}

/// The store pays parameter + optimizer bytes once, no matter how many
/// specializations borrow it.
#[test]
fn store_bytes_do_not_grow_with_specializations() {
    let mut p = program(Optimizer::adam(1e-3), ExecutorConfig::arena());
    p.specialize(2);
    let after_one = p.store().resident_bytes();
    p.specialize(4);
    p.specialize(8);
    assert_eq!(
        p.store().resident_bytes(),
        after_one,
        "extra specializations must not duplicate parameters or state"
    );
    assert_eq!(p.cached_batches(), vec![2, 4, 8]);
}
