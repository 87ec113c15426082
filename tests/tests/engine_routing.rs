//! Integration suite for the unified serving API: deadline-aware admission
//! control and multi-backend routing over the canonical `Request` type.
//!
//! The load-bearing claims:
//!
//! * **Admission parity** — the same deadline-carrying stream produces the
//!   same `Rejected` set whether replayed through `Engine::serve` or the
//!   async queue (admission is assessed against the request's full budget
//!   on both paths).
//! * **Routing is invisible in results** — an engine owning two executor
//!   backends (arena + boxed) serves a hinted mixed stream
//!   bit-identically to a single-backend engine: backends agree bit for
//!   bit, so routing only moves *where* work runs.
//! * **Rejections are not cache churn** — a rejected request never
//!   increments the per-request cache accounting.

use std::time::Duration;

use proptest::prelude::*;

use pe_tests::support::{deadline_stream, rejected_set, request, routed_engine};
use pockengine::pe_runtime::{ExecutorConfig, Optimizer};
use pockengine::pe_tensor::Rng;
use pockengine::{
    AdmissionPolicy, BackendHint, BackendRoute, Engine, EngineConfig, Outcome, Priority, Program,
    QueueConfig, Request, ServingKind,
};

/// The shared MLP program under this suite's optimizer (SGD 0.1).
fn program(executor: ExecutorConfig) -> Program {
    pe_tests::support::program(Optimizer::sgd(0.1), executor)
}

/// The acceptance criterion: a mixed train/eval stream with deadlines and
/// priorities produces bit-identical params, losses and `Rejected` sets
/// whether driven through `Engine::serve` or the async queue — including
/// when routed across two different executor backends in one engine.
#[test]
fn admission_and_routing_parity_between_sync_and_queue_paths() {
    let stream = deadline_stream(42, 11);

    // Sync slice path.
    let mut sync_engine = routed_engine(AdmissionPolicy::DeadlineFeasible);
    let sync_outcomes = sync_engine.serve(&stream).unwrap();
    assert_eq!(sync_outcomes.len(), stream.len());

    // Queue path: identically constructed and seeded engine. Submit
    // everything, then shut down (draining in flight) before redeeming —
    // generous deadlines would otherwise keep the last group waiting.
    let async_engine = routed_engine(AdmissionPolicy::DeadlineFeasible).into_async(QueueConfig {
        capacity: stream.len(),
        default_deadline: Duration::from_millis(1),
        ..QueueConfig::default()
    });
    let tickets: Vec<_> = stream
        .iter()
        .map(|r| async_engine.submit(r.clone()).expect("queue open"))
        .collect();
    let (drained, batcher_stats) = async_engine.shutdown_with_stats();
    let mut queued_outcomes: Vec<Option<Outcome>> = stream.iter().map(|_| None).collect();
    for ticket in tickets {
        let seq = ticket.seq();
        queued_outcomes[seq] = Some(ticket.wait().expect("well-formed stream"));
    }
    let queued_outcomes: Vec<Outcome> = queued_outcomes
        .into_iter()
        .map(|o| o.expect("every ticket resolves"))
        .collect();

    // Rejected sets are identical.
    let sync_rejected = rejected_set(&sync_outcomes);
    let queued_rejected = rejected_set(&queued_outcomes);
    assert!(
        !sync_rejected.is_empty(),
        "the stream must actually exercise admission control"
    );
    assert_eq!(
        sync_rejected, queued_rejected,
        "both paths must reject exactly the same requests"
    );

    // Per-request losses of completed requests are bit-identical.
    for (i, (s, q)) in sync_outcomes.iter().zip(&queued_outcomes).enumerate() {
        match (s.as_response(), q.as_response()) {
            (Some(sr), Some(qr)) => {
                assert_eq!(sr.rows, stream[i].rows());
                assert_eq!(
                    sr.loss.expect("classification loss").to_bits(),
                    qr.loss.expect("classification loss").to_bits(),
                    "request {i}: losses diverged between paths"
                );
            }
            (None, None) => {}
            other => panic!("request {i}: outcome kinds diverged: {other:?}"),
        }
    }

    // Final parameters are bit-identical.
    for key in drained.program().store().keys().to_vec() {
        assert_eq!(
            drained.program().store().get(&key).unwrap().data(),
            sync_engine.program().store().get(&key).unwrap().data(),
            "parameter '{key}' diverged between ingestion paths"
        );
    }

    // Both paths actually routed work to the alternate backend, and the
    // queue path accounted its rejections.
    assert!(sync_engine.metrics().routed_alternate > 0);
    assert!(drained.metrics().routed_alternate > 0);
    assert_eq!(sync_engine.metrics().rejected as usize, sync_rejected.len());
    assert_eq!(drained.metrics().rejected as usize, queued_rejected.len());
    assert_eq!(
        batcher_stats.admission_rejections as usize,
        queued_rejected.len()
    );
}

/// Rejections must not look like cache churn: the per-request cache
/// accounting covers exactly the admitted requests, and a stream of
/// rejections leaves the cache stats untouched.
#[test]
fn rejected_requests_never_count_as_cache_traffic() {
    let mut engine = routed_engine(AdmissionPolicy::DeadlineFeasible);
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

/// A rejected request embedded in an eval run must not split the
/// coalescing group on the sync path (mirroring the queue, where a
/// rejected envelope is discarded mid-accumulation).
#[test]
fn sync_rejection_does_not_break_coalescing() {
    let mut engine = routed_engine(AdmissionPolicy::DeadlineFeasible);
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
    let (tx, rx) = pockengine::queue::channel(QueueConfig {
        capacity: 6,
        default_deadline: Duration::from_millis(1),
        ..QueueConfig::default()
    });
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
    let exec = ExecutorConfig::arena();
    let mut engine = Engine::new(
        program(exec),
        EngineConfig {
            executor: exec,
            warm_batches: vec![4, 8],
            max_cached_specializations: Some(3),
            ..EngineConfig::default()
        },
    );
    let mut rng = Rng::seed_from_u64(17);
    // Trains at distinct exact sizes force distinct specializations.
    for rows in [2, 3, 5, 6, 7] {
        let outcome = engine
            .serve_one(&request(ServingKind::Train, rows, &mut rng))
            .unwrap();
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
    let mut engine = routed_engine(AdmissionPolicy::AcceptAll);
    let mut rng = Rng::seed_from_u64(21);
    let req = request(ServingKind::Eval, 2, &mut rng).id(777);
    let response = engine
        .serve_one(&req)
        .unwrap()
        .expect_completed("eval completes");
    assert_eq!(response.client_id, Some(777));

    let async_engine = routed_engine(AdmissionPolicy::AcceptAll).into_async(QueueConfig::default());
    let ticket = async_engine.submit(req).unwrap();
    let response = ticket
        .wait()
        .unwrap()
        .expect_completed("queued eval completes");
    assert_eq!(response.client_id, Some(777));
    drop(async_engine);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Routed multi-backend execution is bit-identical to single-backend
    /// execution: a hinted mixed stream served by an arena+boxed engine
    /// produces exactly the losses and final parameters of a pinned
    /// arena-only engine.
    #[test]
    fn routed_multi_backend_matches_single_backend(
        seed in 0u64..1000,
        n in 6usize..18,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let stream: Vec<Request> = (0..n)
            .map(|i| {
                let kind = if rng.next_usize(3) == 0 {
                    ServingKind::Train
                } else {
                    ServingKind::Eval
                };
                let rows = 1 + rng.next_usize(8);
                let mut r = request(kind, rows, &mut rng);
                r = match rng.next_usize(3) {
                    0 => r.backend(BackendHint::Boxed),
                    1 => r.backend(BackendHint::Arena),
                    _ => r,
                };
                r.id(i as u64)
            })
            .collect();

        let default = ExecutorConfig::arena();
        let mut routed = Engine::new(
            program(default),
            EngineConfig {
                executor: default,
                alternates: vec![ExecutorConfig::boxed()],
                route: BackendRoute::HintOrFit,
                warm_batches: vec![4, 8],
                ..EngineConfig::default()
            },
        );
        let mut pinned = Engine::new(
            program(default),
            EngineConfig {
                executor: default,
                alternates: vec![ExecutorConfig::boxed()],
                route: BackendRoute::Pinned,
                warm_batches: vec![4, 8],
                ..EngineConfig::default()
            },
        );

        let routed_losses: Vec<u32> = routed
            .serve(&stream)
            .unwrap()
            .into_iter()
            .map(|o| o.expect_completed("no admission control configured")
                .loss
                .expect("classification loss")
                .to_bits())
            .collect();
        let pinned_losses: Vec<u32> = pinned
            .serve(&stream)
            .unwrap()
            .into_iter()
            .map(|o| o.expect_completed("no admission control configured")
                .loss
                .expect("classification loss")
                .to_bits())
            .collect();
        prop_assert_eq!(routed_losses, pinned_losses);

        for key in routed.program().store().keys().to_vec() {
            let routed_param = routed.program().store().get(&key).unwrap();
            let pinned_param = pinned.program().store().get(&key).unwrap();
            prop_assert_eq!(
                routed_param.data(),
                pinned_param.data(),
                "parameter '{}' diverged under routing", key
            );
        }
        prop_assert_eq!(pinned.metrics().routed_alternate, 0);
    }
}
