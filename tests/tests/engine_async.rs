//! Integration suite for the asynchronous ingestion path: the bounded
//! submission queue, the deadline-aware batcher, and the `AsyncEngine`
//! facade.
//!
//! The load-bearing claim: **queued mixed train/eval streams produce
//! bit-identical parameters and per-request losses to the synchronous
//! slice-based `Engine::serve` baseline** — the batcher may group
//! evaluations differently than slice coalescing (it batches across *time*,
//! not slice adjacency), but training order is FIFO on both paths and
//! padding/packing never leaks into per-request results.

use std::time::{Duration, Instant};

use pe_tests::support::{engine, mixed_stream, request};
use pockengine::pe_runtime::ExecutorConfig;
use pockengine::pe_tensor::Rng;
use pockengine::queue;
use pockengine::{QueueConfig, ServingKind, SubmitError};

/// The acceptance-criterion test: a queued mixed stream is bit-identical —
/// per-request losses and final parameters — to `Engine::serve` over the
/// same slice. Runs under the session's executor fallback so the CI matrix
/// (default / boxed) exercises both backends.
///
/// The queued half is driven **through the generic `Submit` driver** in
/// `pe_tests::support` — the exact driver the network suite runs against a
/// TCP `pe_net::Client` — so this test doubles as the in-process baseline
/// of the transport-independence claim.
#[test]
fn queued_stream_matches_sync_slice_baseline_bit_for_bit() {
    let exec = ExecutorConfig::default();
    let stream = mixed_stream(36, 7);

    // Synchronous slice baseline.
    let mut sync_engine = engine(exec, vec![4, 8]);
    let sync_losses: Vec<u32> = sync_engine
        .serve(&stream)
        .unwrap()
        .into_iter()
        .map(|o| {
            o.expect_completed("sync request must complete")
                .loss
                .expect("classification loss")
                .to_bits()
        })
        .collect();

    // Queued path: identical engine, single producer submitting in order
    // through the transport-generic driver.
    let async_engine = engine(exec, vec![4, 8]).into_async(QueueConfig {
        capacity: 8,
        default_deadline: Duration::from_millis(1),
        ..QueueConfig::default()
    });
    let queued_losses = pe_tests::support::served_loss_bits(&async_engine, &stream);
    let drained = async_engine.shutdown();

    assert_eq!(
        queued_losses, sync_losses,
        "per-request losses must be bit-identical to the sync slice path"
    );
    for key in drained.program().store().keys().to_vec() {
        let queued = drained.program().store().get(&key).unwrap();
        let synced = sync_engine.program().store().get(&key).unwrap();
        assert_eq!(
            queued.data(),
            synced.data(),
            "parameter '{key}' diverged between ingestion paths"
        );
    }
    assert_eq!(
        drained.metrics().requests,
        sync_engine.metrics().requests,
        "both paths served the full stream"
    );
    let stats = drained.cache_stats();
    assert_eq!(
        stats.request_hits + stats.request_misses,
        stream.len() as u64,
        "every request is attributed in the per-request cache accounting"
    );
}

/// Full-queue backpressure: `try_submit` rejects with the request handed
/// back; blocking `submit` applies backpressure instead. Exercised on a raw
/// queue (no drainer) so fullness is deterministic.
#[test]
fn try_submit_rejects_on_a_full_queue() {
    let (tx, rx) = queue::channel(QueueConfig {
        capacity: 2,
        default_deadline: Duration::from_millis(1),
        ..QueueConfig::default()
    });
    let mut rng = Rng::seed_from_u64(1);
    tx.try_submit(request(ServingKind::Eval, 2, &mut rng))
        .unwrap();
    tx.try_submit(request(ServingKind::Eval, 2, &mut rng))
        .unwrap();
    match tx.try_submit(request(ServingKind::Train, 3, &mut rng)) {
        Err(SubmitError::Full(r)) => {
            assert_eq!(r.rows(), 3, "the rejected request is handed back");
            assert_eq!(r.kind, ServingKind::Train);
        }
        other => panic!("expected Full rejection, got {other:?}"),
    }
    // Popping one slot readmits.
    drop(rx.pop(None));
    tx.try_submit(request(ServingKind::Eval, 1, &mut rng))
        .unwrap();
}

/// A request whose deadline already expired dispatches immediately (solo),
/// padded to the nearest cached rung — it must not wait the queue's default
/// budget for companions that may never come.
#[test]
fn expired_deadline_dispatches_solo() {
    let exec = ExecutorConfig::default();
    let async_engine = engine(exec, vec![8]).into_async(QueueConfig {
        capacity: 8,
        default_deadline: Duration::from_secs(30),
        ..QueueConfig::default()
    });
    let mut rng = Rng::seed_from_u64(2);
    let start = Instant::now();
    let ticket = async_engine
        .submit_with_deadline(request(ServingKind::Eval, 2, &mut rng), Duration::ZERO)
        .unwrap();
    let response = ticket
        .wait()
        .unwrap()
        .expect_completed("expired requests still serve under AcceptAll");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "an expired request must not wait for companions"
    );
    assert_eq!(response.rows, 2);
    assert_eq!(response.batch, 8, "padded to the nearest cached rung");
    let stats = async_engine.batcher_stats();
    assert!(stats.expired_dispatches >= 1, "stats: {stats:?}");
    assert_eq!(stats.eval_groups, 1);
    drop(async_engine);
}

/// A lone request with a finite budget waits out its deadline (in case
/// companions arrive) and is then flushed by the deadline, not a barrier.
#[test]
fn lone_request_is_flushed_when_its_deadline_arrives() {
    let exec = ExecutorConfig::default();
    let async_engine = engine(exec, vec![8]).into_async(QueueConfig {
        capacity: 8,
        default_deadline: Duration::from_millis(40),
        ..QueueConfig::default()
    });
    let mut rng = Rng::seed_from_u64(3);
    let start = Instant::now();
    let ticket = async_engine
        .submit(request(ServingKind::Eval, 2, &mut rng))
        .unwrap();
    ticket.wait().unwrap();
    let elapsed = start.elapsed();
    assert!(
        elapsed >= Duration::from_millis(25),
        "dispatched {elapsed:?} before the deadline budget elapsed"
    );
    assert!(async_engine.batcher_stats().deadline_flushes >= 1);
    drop(async_engine);
}

/// Two compatible evaluations submitted back-to-back coalesce into one
/// micro-batch once they fill the target rung — without waiting for their
/// (generous) deadlines.
#[test]
fn compatible_evals_fill_the_target_rung() {
    let exec = ExecutorConfig::default();
    let async_engine = engine(exec, vec![8]).into_async(QueueConfig {
        capacity: 8,
        default_deadline: Duration::from_secs(30),
        ..QueueConfig::default()
    });
    let mut rng = Rng::seed_from_u64(4);
    let start = Instant::now();
    let t1 = async_engine
        .submit(request(ServingKind::Eval, 4, &mut rng))
        .unwrap();
    let t2 = async_engine
        .submit(request(ServingKind::Eval, 4, &mut rng))
        .unwrap();
    let (r1, r2) = (
        t1.wait().unwrap().expect_completed("eval completes"),
        t2.wait().unwrap().expect_completed("eval completes"),
    );
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "a filled rung must dispatch without waiting for deadlines"
    );
    assert_eq!((r1.rows, r2.rows), (4, 4));
    assert_eq!(
        (r1.batch, r2.batch),
        (8, 8),
        "served by one batch-8 dispatch"
    );
    let stats = async_engine.batcher_stats();
    assert!(stats.target_flushes >= 1, "stats: {stats:?}");
    drop(async_engine);
}

/// Shutdown drains in-flight requests: every accepted ticket resolves with
/// a served response even when deadlines lie far in the future.
#[test]
fn shutdown_drains_in_flight_requests() {
    let exec = ExecutorConfig::default();
    let async_engine = engine(exec, vec![4, 8]).into_async(QueueConfig {
        capacity: 64,
        default_deadline: Duration::from_secs(30),
        ..QueueConfig::default()
    });
    let stream = mixed_stream(20, 9);
    let start = Instant::now();
    let tickets: Vec<_> = stream
        .iter()
        .map(|r| async_engine.submit(r.clone()).unwrap())
        .collect();
    let drained = async_engine.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "shutdown must flush pending groups, not wait out their deadlines"
    );
    for (i, ticket) in tickets.into_iter().enumerate() {
        let response = ticket
            .wait()
            .unwrap_or_else(|e| panic!("request {i} errored during shutdown drain: {e}"))
            .expect_completed("request must survive shutdown drain");
        assert_eq!(response.id, i);
    }
    assert_eq!(drained.metrics().requests, stream.len() as u64);
}

/// After shutdown, outstanding submitter clones get an explicit `Closed`
/// rejection with the request handed back.
#[test]
fn submissions_after_shutdown_are_rejected_as_closed() {
    let exec = ExecutorConfig::default();
    let async_engine = engine(exec, vec![4]).into_async(QueueConfig::default());
    let submitter = async_engine.submitter();
    let _ = async_engine.shutdown();
    let mut rng = Rng::seed_from_u64(5);
    match submitter.submit(request(ServingKind::Eval, 2, &mut rng)) {
        Err(SubmitError::Closed(r)) => assert_eq!(r.rows(), 2),
        other => panic!("expected Closed, got {other:?}"),
    }
}

/// Concurrent producers over a deliberately tiny queue: backpressure
/// throttles the fast producers, nothing deadlocks, nothing is lost, and
/// the shared store sees exactly the submitted training steps.
#[test]
fn concurrent_producers_all_resolve_under_backpressure() {
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: usize = 25;
    let exec = ExecutorConfig::default();
    let async_engine = engine(exec, vec![4, 8]).into_async(QueueConfig {
        capacity: 4,
        default_deadline: Duration::from_micros(200),
        ..QueueConfig::default()
    });
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let submitter = async_engine.submitter();
                s.spawn(move || {
                    let mut rng = Rng::seed_from_u64(100 + p as u64);
                    let mut trains = 0u64;
                    let tickets: Vec<_> = (0..PER_PRODUCER)
                        .map(|i| {
                            let kind = if (p + i) % 2 == 0 {
                                trains += 1;
                                ServingKind::Train
                            } else {
                                ServingKind::Eval
                            };
                            let req = request(kind, [2, 4][i % 2], &mut rng);
                            submitter.submit(req).expect("queue open")
                        })
                        .collect();
                    let mut served = 0usize;
                    for ticket in tickets {
                        assert!(ticket.seq() < PRODUCERS * PER_PRODUCER);
                        let outcome = ticket.wait().expect("must be well-formed");
                        assert!(outcome.is_completed(), "must be served: {outcome:?}");
                        served += 1;
                    }
                    (served, trains)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("producer panicked"))
            .collect::<Vec<_>>()
    });
    let drained = async_engine.shutdown();
    let total_served: usize = results.iter().map(|(served, _)| served).sum();
    let total_trains: u64 = results.iter().map(|(_, trains)| trains).sum();
    assert_eq!(total_served, PRODUCERS * PER_PRODUCER);
    assert_eq!(
        drained.metrics().requests,
        (PRODUCERS * PER_PRODUCER) as u64
    );
    assert_eq!(drained.metrics().train_steps, total_trains);
    assert_eq!(
        drained.program().store().steps_completed() as u64,
        total_trains,
        "every queued train request ran exactly one exclusive store step"
    );
}
