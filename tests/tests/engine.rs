//! Integration suite for the serving stack: shared `ParamStore`, the staged
//! `Compiler` → `Program` specialization cache, and the `Engine` facade
//! with its admission control.
//!
//! The load-bearing claims:
//!
//! * **One canonical copy of each parameter** serves many batch-size
//!   specializations with bit-identical training results versus the old
//!   per-executor world where every executor owned private parameter
//!   copies.
//! * **Rejections are not cache churn** — a rejected request never
//!   increments the per-request cache accounting.
//! * **Admission decides alike on every path** — the sync and queue paths
//!   reject exactly the infeasible requests; parity with TCP and the fleet
//!   is `fleet_serving.rs`'s every-path test.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use pe_tests::support::{
    assert_runs_agree, deadline_stream, engine, executor, mlp, program, queue_config, request,
    run_everywhere, seeded_engine, Path, Snapshot, CLASSES, FLUSH,
};
use pockengine::pe_graph::{build_training_graph, TrainSpec};
use pockengine::pe_passes::{build_schedule, ScheduleStrategy};
use pockengine::pe_runtime::{Executor, Optimizer, ParamStore};
use pockengine::pe_tensor::{Rng, Tensor};
use pockengine::{
    compile, AdmissionPolicy, CompileOptions, Engine, EngineConfig, Priority, QueueConfig, Request,
    ServingKind, Submit,
};

/// Trains at batch 4 and evals at batches {2, 8} interleaved: the engine
/// must be bit-identical to a dedicated single executor (private parameter
/// copy, the pre-`ParamStore` world) fed the same training batches, down
/// to the store's snapshot bytes.
#[test]
fn engine_matches_single_executor_baseline_bit_for_bit() {
    let mut rng = Rng::seed_from_u64(7);
    let mut stream = Vec::new();
    for i in 0..12 {
        stream.push(request(ServingKind::Train, 4, &mut rng));
        let eval_rows = if i % 2 == 0 { 2 } else { 8 };
        stream.push(request(ServingKind::Eval, eval_rows, &mut rng));
    }
    let [sync] = run_everywhere(&stream, &[Path::Sync]).try_into().unwrap();

    // Baseline: the old world — compile() at batch 4, private parameters.
    let options = CompileOptions {
        optimizer: Optimizer::sgd(0.1),
        ..CompileOptions::default()
    };
    let mut baseline = compile(&mlp(4), &options).executor;
    for (i, req) in stream.iter().enumerate() {
        if req.kind == ServingKind::Train {
            let inputs = HashMap::from([
                ("x".to_string(), req.features.clone()),
                ("labels".to_string(), req.labels.clone()),
            ]);
            let loss = baseline.run_step(&inputs).unwrap().loss.unwrap();
            assert_eq!(sync.losses[i], Some(loss.to_bits()), "request {i}");
        }
    }
    assert_eq!(sync.store, Snapshot(baseline.param_store().snapshot()));

    // Training improves later evals (one param copy serves them instantly).
    let eval_losses: Vec<f32> = (1..stream.len())
        .step_by(2)
        .map(|i| f32::from_bits(sync.losses[i].unwrap()))
        .collect();
    assert!(
        eval_losses.last().unwrap() < eval_losses.first().unwrap(),
        "training requests should improve evaluation: {eval_losses:?}"
    );
}

/// Padded evaluation must not leak into the reported rows: a 3-row request
/// evaluated through a padded batch-8 specialization returns exactly the
/// logits an exact batch-3 specialization computes.
#[test]
fn eval_padding_does_not_change_real_rows() {
    let mut rng = Rng::seed_from_u64(3);
    let req = request(ServingKind::Eval, 3, &mut rng);

    let mut padded = engine(vec![8]);
    let r_padded = padded
        .serve(std::slice::from_ref(&req))
        .unwrap()
        .remove(0)
        .expect_completed("eval should complete");
    assert_eq!(r_padded.rows, 3);
    assert_eq!(r_padded.batch, 8, "must pad to the nearest cached size");
    assert_eq!(padded.metrics().padded_rows, 5);

    let mut exact = engine(vec![3]);
    let r_exact = exact
        .serve(std::slice::from_ref(&req))
        .unwrap()
        .remove(0)
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
    let mut engine = engine(vec![2, 8]);
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
    let outcomes = engine.serve(&stream).unwrap().into_iter();
    let responses: Vec<_> = outcomes.map(|o| o.expect_completed("completes")).collect();
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
        .serve(std::slice::from_ref(&train))
        .unwrap()
        .remove(0)
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
            let schedule = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
            Executor::with_store(tg, schedule, Arc::clone(store))
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
            executor(model.graph, model.loss, &TrainSpec::new(), optimizer)
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
    let mut p = program(Optimizer::adam(1e-3));
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

/// Rejections must not look like cache churn: the per-request cache
/// accounting covers exactly the admitted requests, and a stream of
/// rejections leaves the cache stats untouched.
#[test]
fn rejected_requests_never_count_as_cache_traffic() {
    let mut engine = seeded_engine(AdmissionPolicy::DeadlineFeasible);
    let warm = engine.cache_stats();

    let mut rng = Rng::seed_from_u64(5);
    // All-infeasible stream: everything rejected on arrival.
    let doomed: Vec<Request> = (0..6)
        .map(|i| {
            request(
                if i % 2 == 0 {
                    ServingKind::Train
                } else {
                    ServingKind::Eval
                },
                4,
                &mut rng,
            )
            .deadline(Duration::ZERO)
        })
        .collect();
    let outcomes = engine.serve(&doomed).unwrap();
    assert!(outcomes.iter().all(|o| o.is_rejected()));
    assert_eq!(engine.metrics().rejected, 6);
    assert_eq!(engine.metrics().requests, 0);
    let stats = engine.cache_stats();
    assert_eq!(
        (stats.request_hits, stats.request_misses),
        (warm.request_hits, warm.request_misses),
        "rejections must not touch the per-request cache accounting"
    );
    assert_eq!(
        (stats.hits, stats.misses),
        (warm.hits, warm.misses),
        "rejections must not dispatch at all"
    );

    // A mixed stream: accounting covers exactly the admitted requests.
    let mixed = deadline_stream(21, 9);
    let outcomes = engine.serve(&mixed).unwrap();
    let admitted = outcomes.iter().filter(|o| o.is_completed()).count() as u64;
    let stats = engine.cache_stats();
    assert_eq!(
        stats.request_hits + stats.request_misses,
        admitted,
        "per-request accounting must cover exactly the admitted requests"
    );
}

/// Admission under `DeadlineFeasible` decides the same way on the sync
/// and queue paths: both reject exactly the provably infeasible
/// (zero-budget) requests of a deadline- and priority-carrying stream,
/// admit the ones with a generous budget, and serve the rest bit-identically.
#[test]
fn admission_parity_between_sync_and_queue_paths() {
    let paths = [Path::Sync, Path::Queue];
    let runs = run_everywhere(&deadline_stream(30, 7), &paths);
    let zero_budget: Vec<_> = (0..30usize)
        .filter(|i| matches!(i % 7, 2 | 5))
        .map(|i| (i, Duration::ZERO))
        .collect();
    assert_eq!(runs[0].rejected, zero_budget, "only the zero budgets fail");
    assert_runs_agree(&paths, &runs);
}

/// A rejected request embedded in an eval run must not split the
/// coalescing group on the sync path (mirroring the queue, where a
/// rejected envelope is discarded mid-accumulation).
#[test]
fn sync_rejection_does_not_break_coalescing() {
    let mut engine = seeded_engine(AdmissionPolicy::DeadlineFeasible);
    let mut rng = Rng::seed_from_u64(8);
    let stream = vec![
        request(ServingKind::Eval, 2, &mut rng),
        request(ServingKind::Eval, 2, &mut rng).deadline(Duration::ZERO),
        request(ServingKind::Eval, 2, &mut rng),
    ];
    let outcomes = engine.serve(&stream).unwrap();
    assert!(outcomes[0].is_completed());
    assert!(outcomes[1].is_rejected());
    assert!(outcomes[2].is_completed());
    assert_eq!(
        engine.metrics().eval_batches,
        1,
        "the two admitted evals must still coalesce into one dispatch"
    );
}

/// Priority ordering under a backed-up queue: when the drainer is slower
/// than the producers, queued high-priority evaluations dispatch before
/// older low-priority ones, and trains fence the reordering. Exercised on
/// a raw queue (no drainer) so fullness is deterministic.
#[test]
fn priority_orders_dispatch_under_a_full_queue() {
    let (tx, rx) = pockengine::queue::channel(queue_config(6, FLUSH));
    let mut rng = Rng::seed_from_u64(3);
    // Fill the queue completely: [lo, hi, norm, TRAIN, lo, hi].
    let kinds_and_priorities = [
        (ServingKind::Eval, Priority::Low),
        (ServingKind::Eval, Priority::High),
        (ServingKind::Eval, Priority::Normal),
        (ServingKind::Train, Priority::Low),
        (ServingKind::Eval, Priority::Low),
        (ServingKind::Eval, Priority::High),
    ];
    for (kind, priority) in kinds_and_priorities {
        tx.try_submit(request(kind, 1, &mut rng).priority(priority))
            .expect("queue has room");
    }
    assert!(matches!(
        tx.try_submit(request(ServingKind::Eval, 1, &mut rng)),
        Err(pockengine::SubmitError::Full(_))
    ));
    // Dispatch order: evals before the train by priority (FIFO within a
    // class), then the train (a fence), then the tail by priority.
    let order: Vec<usize> = (0..6).map(|_| rx.try_pop().unwrap().seq()).collect();
    assert_eq!(order, vec![1, 2, 0, 3, 5, 4]);
}

/// The engine-level LRU budget: the cache never exceeds
/// `max_cached_specializations` and evictions are counted.
#[test]
fn engine_cache_budget_evicts_lru_specializations() {
    let mut engine = Engine::new(
        program(Optimizer::sgd(0.1)),
        EngineConfig {
            warm_batches: vec![4, 8],
            max_cached_specializations: Some(3),
            ..EngineConfig::default()
        },
    );
    let mut rng = Rng::seed_from_u64(17);
    // Trains at distinct exact sizes force distinct specializations.
    for rows in [2, 3, 5, 6, 7] {
        let outcome = engine
            .serve(&[request(ServingKind::Train, rows, &mut rng)])
            .unwrap()
            .remove(0);
        assert!(outcome.is_completed());
        assert!(
            engine.program().cached_batches().len() <= 3,
            "budget exceeded: {:?}",
            engine.program().cached_batches()
        );
    }
    let stats = engine.cache_stats();
    assert!(stats.evictions >= 4, "stats: {stats:?}");
    assert_eq!(engine.program().max_specializations(), Some(3));
}

/// The caller-assigned id round-trips through both paths.
#[test]
fn client_ids_echo_back_on_responses() {
    let mut engine = seeded_engine(AdmissionPolicy::AcceptAll);
    let mut rng = Rng::seed_from_u64(21);
    let req = request(ServingKind::Eval, 2, &mut rng).id(777);
    let response = engine
        .serve(std::slice::from_ref(&req))
        .unwrap()
        .remove(0)
        .expect_completed("eval completes");
    assert_eq!(response.client_id, Some(777));

    let async_engine = seeded_engine(AdmissionPolicy::AcceptAll).into_async(QueueConfig::default());
    let ticket = async_engine.submit(req).unwrap();
    let response = ticket
        .wait()
        .unwrap()
        .expect_completed("queued eval completes");
    assert_eq!(response.client_id, Some(777));
    drop(async_engine);
}
