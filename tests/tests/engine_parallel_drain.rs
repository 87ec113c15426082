//! Concurrency battery for the parallel drain path: eval groups formed by
//! the batcher are executed by a pool of drain workers
//! ([`QueueConfig::drain_workers`]), each owning a sibling executor over the
//! shared parameter store.
//!
//! The load-bearing claims:
//!
//! * **Worker count is invisible in results** — a mixed train/eval stream
//!   with deadlines, priorities and backend hints produces bit-identical
//!   parameters, per-request losses and `Rejected` sets at 1, 2 and 4 drain
//!   workers, and all of them match the synchronous `Engine::serve` slice
//!   baseline. Parallelism moves *where* eval groups run, never what they
//!   compute.
//! * **Trains are strict fences** — no eval group ever observes a
//!   half-stepped parameter store. Every eval's logits correspond exactly
//!   to the parameter snapshot after the integer number of train steps
//!   submitted ahead of it (proven by a version-stamp replay against a
//!   synchronous twin, with the eval-group sleep shim holding groups in
//!   flight while trains arrive).
//! * **Priority classes overtake** — a high-priority group dispatched while
//!   older low-priority groups are still in flight runs immediately on a
//!   free worker; the batcher accounts the overtake.
//! * **Teardown resolves everything** — shutdown with groups in flight
//!   cancels nothing, and dropping the facade mid-burst still resolves
//!   every ticket.
//! * **Stats are race-free** — concurrent `batcher_stats` snapshots always
//!   satisfy `eval_groups == target + deadline + barrier flushes` because
//!   whole-group deltas merge atomically at retirement.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use proptest::prelude::*;

use pockengine::pe_graph::GraphBuilder;
use pockengine::pe_models::BuiltModel;
use pockengine::pe_runtime::{ExecutorConfig, Optimizer};
use pockengine::pe_tensor::{Rng, Tensor};
use pockengine::{
    AdmissionPolicy, BackendHint, BackendRoute, CompileOptions, Compiler, Engine, EngineConfig,
    Outcome, Priority, Program, QueueConfig, RejectReason, Request, ServingKind,
};

const DIM: usize = 16;
const CLASSES: usize = 4;

/// A deterministic two-layer MLP family (the `ModelFactory` contract: same
/// parameters at every batch size).
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
        name: "mlp-parallel-drain-test".to_string(),
    }
}

fn program(executor: ExecutorConfig) -> Program {
    Compiler::new(CompileOptions {
        optimizer: Optimizer::sgd(0.1),
        executor,
        ..CompileOptions::default()
    })
    .compile(mlp)
}

fn engine(executor: ExecutorConfig, warm: Vec<usize>) -> Engine {
    Engine::new(
        program(executor),
        EngineConfig {
            executor,
            warm_batches: warm,
            ..EngineConfig::default()
        },
    )
}

/// A two-backend engine (arena default + boxed alternate) with seeded
/// latency estimates for every rung either backend can dispatch, so
/// `DeadlineFeasible` decisions are deterministic from the first request.
fn routed_engine(admission: AdmissionPolicy) -> Engine {
    let default = ExecutorConfig::arena();
    let alternate = ExecutorConfig::boxed();
    let mut engine = Engine::new(
        program(default),
        EngineConfig {
            executor: default,
            alternates: vec![alternate],
            route: BackendRoute::HintOrFit,
            warm_batches: vec![4, 8],
            admission,
            ..EngineConfig::default()
        },
    );
    for batch in 1..=8 {
        engine.seed_latency_estimate(batch, default, Duration::from_micros(100));
        engine.seed_latency_estimate(batch, alternate, Duration::from_micros(100));
    }
    engine
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

/// Mixed train/eval stream with varying row counts.
fn mixed_stream(n: usize, seed: u64) -> Vec<Request> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let kind = if i % 3 == 0 {
                ServingKind::Train
            } else {
                ServingKind::Eval
            };
            let rows = [2, 4, 8, 3][i % 4];
            request(kind, rows, &mut rng)
        })
        .collect()
}

/// The acceptance-criterion stream: mixed train/eval with deadlines,
/// priorities and backend hints. Budgets are either absent, far above any
/// realistic dispatch latency (always feasible), or zero (always
/// infeasible once an estimate exists), so admission decisions do not
/// depend on timing noise.
fn deadline_stream(n: usize, seed: u64) -> Vec<Request> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let kind = if i % 3 == 0 {
                ServingKind::Train
            } else {
                ServingKind::Eval
            };
            let rows = [2, 4, 8, 3][i % 4];
            let mut r = request(kind, rows, &mut rng)
                .priority([Priority::Low, Priority::Normal, Priority::High][i % 3]);
            r = match i % 5 {
                0 => r.backend(BackendHint::Boxed),
                1 => r.backend(BackendHint::Arena),
                _ => r,
            };
            match i % 7 {
                2 | 5 => r.deadline(Duration::ZERO),
                3 => r.deadline(Duration::from_secs(3600)),
                _ => r,
            }
        })
        .collect()
}

/// Indices and budgets of the rejected outcomes.
fn rejected_set(outcomes: &[Outcome]) -> Vec<(usize, Duration)> {
    outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| {
            o.rejection()
                .map(|RejectReason::DeadlineInfeasible { budget, .. }| (i, *budget))
        })
        .collect()
}

/// Submits the whole stream, shuts down (draining in flight), and redeems
/// every ticket back into submission order.
fn replay_through_queue(
    engine: Engine,
    stream: &[Request],
    workers: usize,
    sleep: Option<Duration>,
) -> (Engine, pockengine::BatcherStats, Vec<Outcome>) {
    let async_engine = engine.into_async(QueueConfig {
        capacity: stream.len().max(1),
        default_deadline: Duration::from_millis(1),
        drain_workers: workers,
        eval_group_sleep: sleep,
    });
    assert_eq!(async_engine.drain_workers(), workers.max(1));
    let tickets: Vec<_> = stream
        .iter()
        .map(|r| async_engine.submit(r.clone()).expect("queue open"))
        .collect();
    let (drained, stats) = async_engine.shutdown_with_stats();
    let mut outcomes: Vec<Option<Outcome>> = stream.iter().map(|_| None).collect();
    for ticket in tickets {
        let seq = ticket.seq();
        outcomes[seq] = Some(ticket.wait().expect("well-formed stream"));
    }
    let outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("every ticket resolves"))
        .collect();
    (drained, stats, outcomes)
}

/// The acceptance criterion: the same deadline/priority/hint-carrying
/// stream is bit-identical — per-request losses, final parameters and
/// `Rejected` sets — at 1, 2 and 4 drain workers, and all three match the
/// synchronous slice baseline. Every snapshot also satisfies the
/// flush-cause accounting invariant.
#[test]
fn parallel_drain_is_bit_identical_across_worker_counts() {
    let stream = deadline_stream(42, 11);

    let mut sync_engine = routed_engine(AdmissionPolicy::DeadlineFeasible);
    let sync_outcomes = sync_engine.serve(&stream).unwrap();
    let sync_rejected = rejected_set(&sync_outcomes);
    assert!(
        !sync_rejected.is_empty(),
        "the stream must actually exercise admission control"
    );
    let sync_trains = sync_outcomes
        .iter()
        .filter(|o| {
            o.as_response()
                .is_some_and(|r| r.kind == ServingKind::Train)
        })
        .count() as u64;

    for workers in [1usize, 2, 4] {
        let (drained, stats, outcomes) = replay_through_queue(
            routed_engine(AdmissionPolicy::DeadlineFeasible),
            &stream,
            workers,
            None,
        );

        assert_eq!(
            rejected_set(&outcomes),
            sync_rejected,
            "{workers} workers: rejected set diverged from the sync baseline"
        );
        for (i, (s, q)) in sync_outcomes.iter().zip(&outcomes).enumerate() {
            match (s.as_response(), q.as_response()) {
                (Some(sr), Some(qr)) => {
                    assert_eq!(qr.rows, stream[i].rows());
                    assert_eq!(
                        sr.loss.expect("classification loss").to_bits(),
                        qr.loss.expect("classification loss").to_bits(),
                        "{workers} workers: request {i} loss diverged from sync"
                    );
                }
                (None, None) => {}
                other => panic!("{workers} workers: request {i} outcome kinds diverged: {other:?}"),
            }
        }
        for key in drained.program().store().keys().to_vec() {
            assert_eq!(
                drained.program().store().get(&key).unwrap().data(),
                sync_engine.program().store().get(&key).unwrap().data(),
                "{workers} workers: parameter '{key}' diverged from sync"
            );
        }

        assert_eq!(
            stats.eval_groups,
            stats.target_flushes + stats.deadline_flushes + stats.barrier_flushes,
            "{workers} workers: flush causes must account for every group: {stats:?}"
        );
        assert_eq!(stats.train_dispatches, sync_trains);
        assert_eq!(stats.admission_rejections as usize, sync_rejected.len());
        assert!(drained.metrics().routed_alternate > 0);
        if workers > 1 {
            assert!(
                stats.max_in_flight >= 1,
                "{workers} workers: groups must actually flow through the pool: {stats:?}"
            );
        } else {
            assert_eq!(
                stats.max_in_flight, 0,
                "inline drain must never expose an in-flight window"
            );
        }
    }
}

/// The train-fence version stamp: with 4 workers and the eval-group sleep
/// shim widening every in-flight window, each eval's logits are exactly
/// the logits computed from the parameter snapshot after the number of
/// train steps submitted ahead of it — never a half-stepped mixture. A
/// synchronous twin replaying the same trains provides the snapshots.
#[test]
fn train_fence_no_eval_observes_half_stepped_params() {
    const TRAINS: usize = 6;
    const PROBES_PER_ROUND: usize = 4;
    let exec = ExecutorConfig::default();

    let mut rng = Rng::seed_from_u64(21);
    let trains: Vec<Request> = (0..TRAINS)
        .map(|_| request(ServingKind::Train, 4, &mut rng))
        .collect();
    // One fixed probe: its logits are a pure function of the store.
    let probe = request(ServingKind::Eval, 4, &mut rng);

    // Synchronous twin: replay each train, then stamp the store by probing.
    let mut twin = engine(exec, vec![4]);
    let snapshots: Vec<Vec<u32>> = trains
        .iter()
        .map(|t| {
            twin.serve(std::slice::from_ref(t)).unwrap();
            twin.serve(std::slice::from_ref(&probe)).unwrap()[0]
                .as_response()
                .expect("probe completes")
                .logits
                .as_ref()
                .expect("program exposes logits")
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();

    // Queued path: train t, then a burst of probes that must all observe
    // snapshot t. The 2ms sleep shim keeps the burst in flight when the
    // next train arrives, forcing a real fence wait.
    let async_engine = engine(exec, vec![4]).into_async(QueueConfig {
        capacity: 64,
        default_deadline: Duration::from_millis(1),
        drain_workers: 4,
        eval_group_sleep: Some(Duration::from_millis(2)),
    });
    let mut train_tickets = Vec::new();
    let mut probe_tickets = Vec::new();
    for (t, train) in trains.iter().enumerate() {
        train_tickets.push(async_engine.submit(train.clone()).unwrap());
        for _ in 0..PROBES_PER_ROUND {
            probe_tickets.push((t, async_engine.submit(probe.clone()).unwrap()));
        }
    }
    for ticket in train_tickets {
        ticket.wait().unwrap().expect_completed("train completes");
    }
    for (t, ticket) in probe_tickets {
        let response = ticket.wait().unwrap().expect_completed("probe completes");
        let bits: Vec<u32> = response
            .logits
            .as_ref()
            .expect("program exposes logits")
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(
            bits, snapshots[t],
            "a probe submitted after train {t} observed logits matching no \
             whole-step parameter snapshot (fence violated)"
        );
    }

    let (drained, stats) = async_engine.shutdown_with_stats();
    assert_eq!(stats.train_dispatches, TRAINS as u64);
    assert!(
        stats.fence_waits >= 1,
        "the shim must force at least one fence to wait on in-flight groups: {stats:?}"
    );
    for key in drained.program().store().keys().to_vec() {
        assert_eq!(
            drained.program().store().get(&key).unwrap().data(),
            twin.program().store().get(&key).unwrap().data(),
            "parameter '{key}' diverged from the synchronous twin"
        );
    }
}

/// Priority overtake: low-priority groups held in flight by the sleep shim
/// do not block a later high-priority group — a free worker picks it up
/// immediately and the batcher accounts the overtake.
#[test]
fn high_priority_groups_overtake_in_flight_low_priority_work() {
    let exec = ExecutorConfig::default();
    let async_engine = engine(exec, vec![4]).into_async(QueueConfig {
        capacity: 16,
        default_deadline: Duration::from_millis(1),
        drain_workers: 4,
        eval_group_sleep: Some(Duration::from_millis(100)),
    });
    let mut rng = Rng::seed_from_u64(33);
    let mut tickets = Vec::new();
    for _ in 0..3 {
        let r = request(ServingKind::Eval, 4, &mut rng).priority(Priority::Low);
        tickets.push(async_engine.submit(r).unwrap());
    }
    // Well inside the 100ms in-flight window of the low-priority groups.
    std::thread::sleep(Duration::from_millis(25));
    let r = request(ServingKind::Eval, 4, &mut rng).priority(Priority::High);
    tickets.push(async_engine.submit(r).unwrap());
    for ticket in tickets {
        ticket.wait().unwrap().expect_completed("eval completes");
    }

    // Every ticket redeemed: retirement already merged each group's delta,
    // and the workers' own accounting is final.
    let stats = async_engine.batcher_stats();
    assert!(
        stats.priority_overtakes >= 1,
        "the high-priority group must overtake in-flight low-priority work: {stats:?}"
    );
    assert!(stats.max_in_flight >= 2, "stats: {stats:?}");
    let worker_stats = async_engine.worker_stats();
    assert_eq!(worker_stats.len(), 4);
    assert_eq!(worker_stats.iter().map(|w| w.groups).sum::<u64>(), 4);
    assert_eq!(worker_stats.iter().map(|w| w.requests).sum::<u64>(), 4);
    let built: u64 = worker_stats.iter().map(|w| w.executors_built).sum();
    assert!(
        (1..=4).contains(&built),
        "each serving worker builds its executor once: {worker_stats:?}"
    );
    // Retirement (the in-flight decrement) lands just *after* the tickets
    // resolve, so give the workers a bounded moment to finish the
    // bookkeeping.
    let settle = std::time::Instant::now();
    while async_engine.in_flight() != 0 {
        assert!(
            settle.elapsed() < Duration::from_secs(10),
            "groups never retired after all tickets resolved"
        );
        std::thread::yield_now();
    }
    drop(async_engine);
}

/// Shutdown with groups in flight cancels nothing: every accepted request
/// resolves with a `Response`, and the drained engine accounts the full
/// stream.
#[test]
fn shutdown_with_in_flight_groups_cancels_nothing() {
    let exec = ExecutorConfig::default();
    let stream = mixed_stream(30, 17);
    let async_engine = engine(exec, vec![4, 8]).into_async(QueueConfig {
        capacity: stream.len(),
        default_deadline: Duration::from_millis(1),
        drain_workers: 4,
        eval_group_sleep: Some(Duration::from_micros(500)),
    });
    let tickets: Vec<_> = stream
        .iter()
        .map(|r| async_engine.submit(r.clone()).expect("queue open"))
        .collect();
    // Shut down immediately: the queue still holds most of the burst and
    // the pool holds in-flight groups.
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
    assert_eq!(
        stats.eval_groups,
        stats.target_flushes + stats.deadline_flushes + stats.barrier_flushes,
        "stats: {stats:?}"
    );
}

/// Dropping the facade mid-burst (no explicit shutdown) still resolves
/// every ticket: the drop path closes the queue and joins the drainer,
/// which drains the backlog through the pool.
#[test]
fn dropping_the_engine_mid_burst_resolves_every_ticket() {
    let exec = ExecutorConfig::default();
    let stream = mixed_stream(30, 19);
    let async_engine = engine(exec, vec![4, 8]).into_async(QueueConfig {
        capacity: stream.len(),
        default_deadline: Duration::from_millis(1),
        drain_workers: 4,
        eval_group_sleep: Some(Duration::from_micros(500)),
    });
    let tickets: Vec<_> = stream
        .iter()
        .map(|r| async_engine.submit(r.clone()).expect("queue open"))
        .collect();
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

/// The stats-race regression: a sampler thread hammering `batcher_stats`
/// while 4 workers retire groups never observes a snapshot where the
/// flush-cause counters disagree with `eval_groups` — group deltas merge
/// atomically at retirement, not counter-by-counter mid-dispatch.
#[test]
fn batcher_stats_snapshots_are_internally_consistent_under_load() {
    let exec = ExecutorConfig::default();
    let stream = mixed_stream(48, 23);
    let async_engine = engine(exec, vec![4, 8]).into_async(QueueConfig {
        capacity: stream.len(),
        default_deadline: Duration::from_millis(1),
        drain_workers: 4,
        eval_group_sleep: Some(Duration::from_micros(200)),
    });
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let st = async_engine.batcher_stats();
                assert_eq!(
                    st.eval_groups,
                    st.target_flushes + st.deadline_flushes + st.barrier_flushes,
                    "torn stats snapshot: {st:?}"
                );
                std::hint::spin_loop();
            }
        });
        let tickets: Vec<_> = stream
            .iter()
            .map(|r| async_engine.submit(r.clone()).expect("queue open"))
            .collect();
        for ticket in tickets {
            ticket.wait().unwrap().expect_completed("request serves");
        }
        stop.store(true, Ordering::Relaxed);
    });
    let (drained, stats) = async_engine.shutdown_with_stats();
    assert_eq!(
        stats.eval_groups,
        stats.target_flushes + stats.deadline_flushes + stats.barrier_flushes,
        "stats: {stats:?}"
    );
    assert_eq!(stats.eval_groups, drained.metrics().eval_batches);
    assert_eq!(
        stats.train_dispatches,
        drained.metrics().train_steps,
        "every dispatched train is a training step"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Interleaving stress: random mixed streams replayed through 4 drain
    /// workers *with the sleep shim holding groups in flight* stay
    /// bit-identical to the synchronous slice baseline — scheduling
    /// interleavings never leak into results.
    #[test]
    fn queued_parallel_stream_matches_sync_under_interleaving_stress(
        seed in 0u64..1000,
        n in 6usize..24,
    ) {
        let exec = ExecutorConfig::default();
        let stream = mixed_stream(n, seed);

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

        let (drained, stats, outcomes) = replay_through_queue(
            engine(exec, vec![4, 8]),
            &stream,
            4,
            Some(Duration::from_micros(300)),
        );
        let queued_losses: Vec<u32> = outcomes
            .into_iter()
            .map(|o| {
                o.expect_completed("queued request must complete")
                    .loss
                    .expect("classification loss")
                    .to_bits()
            })
            .collect();

        prop_assert_eq!(queued_losses, sync_losses);
        for key in drained.program().store().keys().to_vec() {
            let queued = drained.program().store().get(&key).unwrap();
            let synced = sync_engine.program().store().get(&key).unwrap();
            prop_assert_eq!(
                queued.data(),
                synced.data(),
                "parameter '{}' diverged between ingestion paths", key
            );
        }
        prop_assert_eq!(
            stats.eval_groups,
            stats.target_flushes + stats.deadline_flushes + stats.barrier_flushes
        );
    }
}
