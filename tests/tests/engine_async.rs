//! Integration suite for the asynchronous ingestion path: the bounded
//! submission queue, the deadline-aware batcher, and the `AsyncEngine`
//! facade.
//!
//! The load-bearing claim — queued streams are bit-identical to
//! `Engine::serve`, with deadlines, priorities and admission control in
//! the stream — is `fleet_serving.rs`'s every-path test; here a property
//! repeats it for random mixed streams, because the batcher groups
//! evaluations across *time*, not slice adjacency, and how producer and
//! drainer interleave must never leak into results.
//!
//! The suite also pins teardown (shutdown and drop resolve every accepted
//! ticket), race-free batcher stats, and the store's step guard: a snapshot
//! taken while the drainer trains always shows a whole number of steps.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use pe_tests::support::{
    assert_runs_agree, deadline_stream, engine, mixed_stream, queue_config, request,
    run_everywhere, submit_all, Path, CLASSES, DIM, FLUSH,
};
use pockengine::pe_runtime::ExecError;
use pockengine::pe_tensor::{Rng, Tensor};
use pockengine::queue;
use pockengine::{BatcherStats, QueueConfig, Request, ServingKind, Submit, SubmitError};

/// Every batcher snapshot accounts each eval group to exactly one flush
/// cause.
fn assert_flush_causes_add_up(stats: &BatcherStats) {
    assert_eq!(
        stats.eval_groups,
        stats.target_flushes + stats.deadline_flushes + stats.barrier_flushes,
        "flush causes must account for every group: {stats:?}"
    );
}

/// A mixed train/eval stream through the queue is bit-identical to
/// `Engine::serve` over the same slice.
#[test]
fn queued_stream_matches_sync_slice_baseline_bit_for_bit() {
    let paths = [Path::Sync, Path::Queue];
    assert_runs_agree(&paths, &run_everywhere(&mixed_stream(36, 7), &paths));
}

/// A deadline- and priority-carrying stream under `DeadlineFeasible`
/// admission is bit-identical through the queue, rejected set included.
#[test]
fn queued_deadline_stream_is_bit_identical_to_sync() {
    let paths = [Path::Sync, Path::Queue];
    let runs = run_everywhere(&deadline_stream(42, 11), &paths);
    assert!(!runs[0].rejected.is_empty(), "admission must reject some");
    assert_runs_agree(&paths, &runs);
}

/// Full-queue backpressure: `try_submit` rejects with the request handed
/// back; blocking `submit` applies backpressure instead. Exercised on a raw
/// queue (no drainer) so fullness is deterministic.
#[test]
fn try_submit_rejects_on_a_full_queue() {
    let (tx, rx) = queue::channel(queue_config(2, FLUSH));
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
    let async_engine = engine(vec![8]).into_async(queue_config(8, Duration::from_secs(30)));
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
    let async_engine = engine(vec![8]).into_async(queue_config(8, Duration::from_millis(40)));
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
    let async_engine = engine(vec![8]).into_async(queue_config(8, Duration::from_secs(30)));
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

/// A request the program cannot serve (a label out of range, negative,
/// fractional or NaN; features too wide; features and labels that disagree
/// on rows) resolves alone with a typed error. The valid requests submitted
/// around it still form one group and complete, the requests after it are
/// served, and the sync paths return the same errors instead of panicking.
#[test]
fn malformed_requests_resolve_alone_and_never_break_their_group() {
    let async_engine = engine(vec![4]).into_async(queue_config(16, Duration::from_secs(30)));
    let submit = |r: Request| async_engine.submit(r).unwrap();
    let mut rng = Rng::seed_from_u64(12);
    let train = request(ServingKind::Train, 3, &mut rng);
    let mut eval = || request(ServingKind::Eval, 2, &mut rng);
    let labelled =
        |l: [f32; 2]| Request::eval(Tensor::zeros([2, DIM]), Tensor::from_vec(l.into(), [2]));
    let out_of_range = |position| ExecError::InputIndexOutOfRange {
        name: "labels".into(),
        position,
        bound: CLASSES,
    };
    let misshapen = |actual: Vec<usize>| ExecError::InputShapeMismatch {
        name: "x".into(),
        expected: vec![2, DIM],
        actual,
    };
    let features = |dims: [usize; 2]| Request::eval(Tensor::zeros(dims), Tensor::zeros([2]));
    let bad = [
        (labelled([CLASSES as f32, 0.0]), out_of_range(0)),
        (labelled([1.0, -1.0]), out_of_range(1)),
        (labelled([0.0, 2.5]), out_of_range(1)),
        (labelled([f32::NAN, 0.0]), out_of_range(0)),
        (features([2, DIM + 1]), misshapen(vec![2, DIM + 1])),
        (features([3, DIM]), misshapen(vec![3, DIM])),
        // The wire carries rank-0 tensors too.
        (
            Request::eval(Tensor::scalar(0.0), Tensor::zeros([2])),
            misshapen(vec![]),
        ),
    ];

    let deadline = Instant::now() + Duration::from_secs(10);
    let first = submit(eval());
    let bad_tickets: Vec<_> = bad.iter().map(|(r, _)| submit(r.clone())).collect();
    let second = submit(eval());
    for (ticket, (_, want)) in bad_tickets.into_iter().zip(&bad) {
        assert_eq!(&ticket.wait().unwrap_err(), want);
    }
    let r1 = first.wait().unwrap().expect_completed("eval completes");
    let r2 = second.wait().unwrap().expect_completed("eval completes");
    assert!(Instant::now() < deadline, "the pair fills the rung");
    assert_eq!(
        (r1.batch, r2.batch),
        (4, 4),
        "one group around the bad ones"
    );

    let (train, later) = (submit(train), submit(eval()));
    let mut engine = async_engine.shutdown();
    train.wait().unwrap().expect_completed("a later train runs");
    later.wait().unwrap().expect_completed("a later eval runs");
    for (r, want) in &bad {
        assert_eq!(&engine.serve(std::slice::from_ref(r)).unwrap_err(), want);
        assert_eq!(&engine.serve(&[eval(), r.clone()]).unwrap_err(), want);
    }
}

/// Shutdown drains in-flight requests: every accepted ticket resolves with
/// a served response even when deadlines lie far in the future.
#[test]
fn shutdown_drains_in_flight_requests() {
    let async_engine = engine(vec![4, 8]).into_async(queue_config(64, Duration::from_secs(30)));
    let stream = mixed_stream(20, 9);
    let start = Instant::now();
    let tickets = submit_all(&async_engine, &stream);
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
    let async_engine = engine(vec![4]).into_async(QueueConfig::default());
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
    let async_engine = engine(vec![4, 8]).into_async(queue_config(4, Duration::from_micros(200)));
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

/// Shutdown while most of a burst is still queued cancels nothing: every
/// accepted request resolves with a `Response`, and the drained engine
/// accounts the full stream.
#[test]
fn shutdown_with_a_queued_burst_cancels_nothing() {
    let stream = mixed_stream(30, 17);
    let async_engine = engine(vec![4, 8]).into_async(queue_config(stream.len(), FLUSH));
    let tickets = submit_all(&async_engine, &stream);
    let (drained, stats) = async_engine.shutdown_with_stats();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let outcome = ticket.wait().expect("well-formed stream");
        assert!(
            !outcome.is_cancelled(),
            "request {i} was cancelled by an orderly shutdown"
        );
        assert_eq!(outcome.expect_completed("accepted request serves").id, i);
    }
    assert_eq!(drained.metrics().requests, stream.len() as u64);
    assert_flush_causes_add_up(&stats);
}

/// Dropping the facade mid-burst (no explicit shutdown) still resolves
/// every ticket: the drop path closes the queue and joins the drainer,
/// which serves the backlog.
#[test]
fn dropping_the_engine_mid_burst_resolves_every_ticket() {
    let stream = mixed_stream(30, 19);
    let async_engine = engine(vec![4, 8]).into_async(queue_config(stream.len(), FLUSH));
    let tickets = submit_all(&async_engine, &stream);
    drop(async_engine);
    for (i, ticket) in tickets.into_iter().enumerate() {
        let response = ticket
            .wait()
            .expect("well-formed stream")
            .expect_completed("dropping the facade must not abandon accepted requests");
        assert_eq!(response.id, i);
        assert_eq!(response.rows, stream[i].rows());
    }
}

/// A sampler thread hammering `batcher_stats` while the drainer serves a
/// burst never observes a snapshot where the flush-cause counters disagree
/// with `eval_groups`: a group's whole delta merges in one critical
/// section.
#[test]
fn batcher_stats_snapshots_are_internally_consistent_under_load() {
    let stream = mixed_stream(48, 23);
    let async_engine = engine(vec![4, 8]).into_async(queue_config(stream.len(), FLUSH));
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                assert_flush_causes_add_up(&async_engine.batcher_stats());
                std::hint::spin_loop();
            }
        });
        let tickets = submit_all(&async_engine, &stream);
        for ticket in tickets {
            ticket.wait().unwrap().expect_completed("request serves");
        }
        stop.store(true, Ordering::Relaxed);
    });
    let (drained, stats) = async_engine.shutdown_with_stats();
    assert_flush_causes_add_up(&stats);
    assert_eq!(stats.eval_groups, drained.metrics().eval_batches);
    assert_eq!(
        stats.train_dispatches,
        drained.metrics().train_steps,
        "every dispatched train is a training step"
    );
}

/// The step guard's contract, seen from outside: a thread looping
/// `param_store().snapshot()` while the drainer serves a stream in which
/// half the requests train only ever sees a whole number of steps. Every
/// snapshot is byte-equal to one a synchronous twin took between steps.
#[test]
fn snapshots_taken_while_training_match_a_whole_step() {
    let mut rng = Rng::seed_from_u64(29);
    let stream: Vec<Request> = (0..40)
        .map(|i| {
            let kind = if i % 2 == 0 {
                ServingKind::Train
            } else {
                ServingKind::Eval
            };
            request(kind, [4, 8][i % 2], &mut rng)
        })
        .collect();

    // The twin's snapshot before any step and after every train.
    let mut twin = engine(vec![4, 8]);
    let mut whole_steps = HashSet::from([twin.program().store().snapshot()]);
    for r in &stream {
        twin.serve(std::slice::from_ref(r)).unwrap();
        if r.kind == ServingKind::Train {
            whole_steps.insert(twin.program().store().snapshot());
        }
    }
    assert_eq!(
        whole_steps.len(),
        21,
        "every train step is a distinct state"
    );

    let async_engine =
        engine(vec![4, 8]).into_async(queue_config(stream.len(), Duration::from_micros(200)));
    let store = async_engine.param_store();
    let started = Barrier::new(2);
    let stop = AtomicBool::new(false);
    let last = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut taken = 0usize;
            loop {
                // Read the flag first: once it is set every train has run,
                // so this round's snapshot is the final state.
                let done = stop.load(Ordering::Acquire);
                let snapshot = store.snapshot();
                assert!(
                    whole_steps.contains(&snapshot),
                    "snapshot {taken} matches no whole-step state (torn by a train)"
                );
                if taken == 0 {
                    started.wait();
                }
                taken += 1;
                if done {
                    return snapshot;
                }
            }
        });
        // The stream starts only once the sampler is looping.
        started.wait();
        let tickets = submit_all(&async_engine, &stream);
        for ticket in tickets {
            ticket.wait().unwrap().expect_completed("request serves");
        }
        stop.store(true, Ordering::Release);
        sampler.join().expect("sampler panicked")
    });
    drop(async_engine);

    assert_eq!(
        last,
        twin.program().store().snapshot(),
        "the last snapshot is the fully trained state"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Interleaving stress: random mixed streams through the queue stay
    /// bit-identical to the synchronous slice baseline.
    #[test]
    fn queued_stream_matches_sync_under_interleaving_stress(
        seed in 0u64..1000,
        n in 6usize..24,
    ) {
        let paths = [Path::Sync, Path::Queue];
        assert_runs_agree(&paths, &run_everywhere(&mixed_stream(n, seed), &paths));
    }
}
