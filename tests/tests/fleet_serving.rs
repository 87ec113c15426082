//! Integration suite for the serving fleet (`pe_fleet`): a balancer over
//! multiple `pe-server` worker processes must be indistinguishable from a
//! single in-process engine.
//!
//! The load-bearing claims:
//!
//! * **Fleet transparency** — a mixed train/eval stream with deadlines
//!   and priorities through the balancer and two workers
//!   yields bit-identical losses, rejected sets and final parameters to
//!   the identical stream through the in-process `AsyncEngine`; the
//!   follower converges purely through checkpoint broadcast. A pool of one
//!   worker matches too.
//! * **Worker-loss containment** — killing a worker mid-burst loses no
//!   eval: its in-flight requests re-dispatch to the surviving peer, every
//!   ticket resolves `Completed`, never `Cancelled`, never hangs, and the
//!   fleet keeps serving.
//! * **Checkpoint convergence** — after every train fence, each follower
//!   holds the primary's exact parameter bits (verified by fetching raw
//!   snapshots from each worker directly).

use std::time::{Duration, Instant};

use pe_fleet::{Balancer, BalancerConfig};
use pe_net::{Client, Server, ServerConfig};
use pe_tests::support::{self, engine, program, rejected_set, request, seeded_engine};
use pockengine::pe_runtime::Optimizer;
use pockengine::pe_tensor::Rng;
use pockengine::{
    AdmissionPolicy, Engine, EngineConfig, Outcome, Priority, QueueConfig, Request, ServingKind,
    Submit,
};

/// A queue sized for the suite's bursts, with a short default deadline so
/// groups flush promptly.
fn queue_config(capacity: usize) -> QueueConfig {
    QueueConfig {
        capacity,
        default_deadline: Duration::from_millis(1),
    }
}

/// Boots one in-process worker over the given engine.
fn worker(engine: Engine, capacity: usize) -> Server {
    Server::spawn(
        engine.into_async(queue_config(capacity)),
        ServerConfig::default(),
    )
    .expect("bind loopback worker")
}

/// Fleet config tuned for test snappiness: fast probes so mark-downs and
/// reconnect attempts land within a test's patience.
fn fleet_config(capacity: usize) -> BalancerConfig {
    BalancerConfig {
        queue: queue_config(capacity),
        health_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_secs(2),
        connect_timeout: Duration::from_secs(2),
        initial_backoff: Duration::from_millis(50),
        ..BalancerConfig::default()
    }
}

/// Spawns a balancer over the given workers' addresses.
fn balancer(workers: &[&Server], capacity: usize) -> Balancer {
    let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    Balancer::spawn(&addrs, fleet_config(capacity)).expect("spawn balancer")
}

/// `support::deadline_stream` with the fleet-safe budget: same kinds, rows,
/// priorities and zero-deadline slots, but the "trivially feasible"
/// case is 500 ms instead of 3600 s. Through the fleet, a train holds its
/// fence until every in-flight eval resolves, and a parked eval only
/// flushes at its own group deadline — a 3600 s budget would stall the
/// fence (the in-process queue is immune: its train reaches the same
/// batcher and flushes the group). 500 ms is still 5000× the seeded
/// estimate, so admission decisions stay timing-independent.
fn fleet_stream(n: usize, seed: u64) -> Vec<Request> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let kind = if i % 3 == 0 {
                ServingKind::Train
            } else {
                ServingKind::Eval
            };
            let rows = [2, 4, 8, 3][i % 4];
            let r = request(kind, rows, &mut rng)
                .priority([Priority::Low, Priority::Normal, Priority::High][i % 3]);
            match i % 7 {
                // Provably infeasible: estimates are seeded > 0.
                2 | 5 => r.deadline(Duration::ZERO),
                // Decisively feasible, bounded (see above).
                3 => r.deadline(Duration::from_millis(500)),
                // No deadline: always admitted.
                _ => r,
            }
        })
        .collect()
}

/// Stream fingerprint: the rejected set (index + budget) and the loss bits
/// of the completed requests, in submission order.
fn fingerprint<S: Submit>(transport: &S, stream: &[Request]) -> (Vec<(usize, Duration)>, Vec<u32>) {
    let outcomes = support::serve_outcomes(transport, stream);
    let rejected = rejected_set(&outcomes);
    let losses = outcomes
        .iter()
        .filter_map(|o| o.as_response())
        .map(|r| r.loss.expect("classification loss").to_bits())
        .collect();
    (rejected, losses)
}

/// The tentpole acceptance: a mixed train/eval stream with deadlines,
/// priorities through the balancer and two workers is
/// bit-identical to the in-process engine — same losses, same rejected
/// set, and *both* workers finish with the baseline's exact parameters
/// (the follower converged purely via checkpoint broadcast; it never ran
/// a training step itself).
#[test]
fn fleet_stream_matches_the_in_process_engine_bit_for_bit() {
    let stream = fleet_stream(28, 9);
    let trains = stream
        .iter()
        .filter(|r| r.kind == ServingKind::Train)
        .count() as u64;

    // ---- In-process baseline. ----
    let in_process = seeded_engine(AdmissionPolicy::DeadlineFeasible).into_async(queue_config(64));
    let base_print = fingerprint(&in_process, &stream);
    let baseline = in_process.shutdown();
    assert!(
        !base_print.0.is_empty(),
        "the stream must actually exercise admission control"
    );

    // ---- The same stream through balancer + 2 workers. ----
    let worker_a = worker(seeded_engine(AdmissionPolicy::DeadlineFeasible), 64);
    let worker_b = worker(seeded_engine(AdmissionPolicy::DeadlineFeasible), 64);
    let fleet = balancer(&[&worker_a, &worker_b], 64);
    let client = Client::connect(fleet.local_addr()).expect("connect to balancer");
    let fleet_print = fingerprint(&client, &stream);
    drop(client);
    let stats = fleet.shutdown();
    let drained_a = worker_a.shutdown();
    let drained_b = worker_b.shutdown();

    assert_eq!(fleet_print.0, base_print.0, "rejected sets diverged");
    assert_eq!(fleet_print.1, base_print.1, "per-request losses diverged");
    support::assert_params_identical(&drained_a, &baseline);
    support::assert_params_identical(&drained_b, &baseline);

    // Routing accounting: every train fenced through the primary, every
    // *completed* train broadcast a checkpoint, and nothing was lost.
    let rejected_trains = base_print
        .0
        .iter()
        .filter(|(i, _)| stream[*i].kind == ServingKind::Train)
        .count() as u64;
    assert_eq!(stats.trains_routed, trains, "trains routed");
    assert_eq!(
        stats.checkpoints_broadcast,
        trains - rejected_trains,
        "one broadcast per completed train: {stats:?}"
    );
    assert_eq!(stats.evals_routed, stream.len() as u64 - trains);
    assert_eq!(stats.redispatches, 0, "no worker died: {stats:?}");
    assert_eq!(stats.cancelled, 0, "nothing may be lost: {stats:?}");
    assert_eq!(stats.workers_up(), 2);

    // ---- A pool of one: the lone worker is the primary. ----
    let solo = worker(seeded_engine(AdmissionPolicy::DeadlineFeasible), 64);
    let fleet = balancer(&[&solo], 64);
    let client = Client::connect(fleet.local_addr()).expect("connect to balancer");
    let solo_print = fingerprint(&client, &stream);
    drop(client);
    let stats = fleet.shutdown();
    assert_eq!(solo_print, base_print, "the one-worker fleet diverged");
    support::assert_params_identical(&solo.shutdown(), &baseline);
    assert_eq!(stats.evals_routed, stream.len() as u64 - trains);
    assert_eq!(stats.cancelled, 0, "nothing may be lost: {stats:?}");
    assert_eq!(stats.workers_up(), 1);
}

/// The worker-loss acceptance: kill one worker while it holds parked
/// in-flight evals. Every submitted eval must still resolve `Completed`
/// (re-dispatched to the surviving peer), the dead worker is marked down,
/// and the fleet keeps serving fresh requests.
#[test]
fn killing_a_worker_mid_burst_loses_no_eval() {
    // Workers park 2-row evals behind a 64-row rung and a generous default
    // deadline, guaranteeing genuinely in-flight requests at the kill.
    let park = QueueConfig {
        capacity: 64,
        default_deadline: Duration::from_secs(2),
    };
    let worker_a = Server::spawn(engine(vec![64]).into_async(park), ServerConfig::default())
        .expect("bind worker a");
    let worker_b = Server::spawn(engine(vec![64]).into_async(park), ServerConfig::default())
        .expect("bind worker b");
    let fleet = balancer(&[&worker_a, &worker_b], 64);
    let client = Client::connect(fleet.local_addr()).expect("connect to balancer");
    let mut rng = Rng::seed_from_u64(13);

    let handles: Vec<_> = (0..16)
        .map(|_| {
            client
                .submit(request(ServingKind::Eval, 2, &mut rng))
                .expect("queue open")
        })
        .collect();

    // Wait until the doomed worker actually holds in-flight evals
    // (least-in-flight routing splits the burst across both workers).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = fleet.stats();
        if stats.workers[1].in_flight > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "worker b never saw traffic: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Kill worker b: its shutdown severs the balancer's connection first,
    // so the in-flight evals resolve `Cancelled` balancer-side and re-home.
    let _dead = worker_b.shutdown();

    for (i, handle) in handles.into_iter().enumerate() {
        match handle.wait() {
            Ok(Outcome::Completed(response)) => assert_eq!(response.rows, 2, "request {i}"),
            other => panic!("eval {i} must survive the worker loss, got {other:?}"),
        }
    }
    let stats = fleet.stats();
    assert!(
        stats.redispatches >= 1,
        "no re-dispatch recorded: {stats:?}"
    );
    assert_eq!(stats.cancelled, 0, "an eval was lost: {stats:?}");
    assert!(!stats.workers[1].up, "dead worker still up: {stats:?}");
    assert!(stats.workers[0].up, "survivor marked down: {stats:?}");

    // The fleet is still fully serving: an expired-deadline eval
    // dispatches solo and immediately on the survivor.
    let outcome = client
        .submit_with_deadline(request(ServingKind::Eval, 2, &mut rng), Duration::ZERO)
        .expect("queue open")
        .wait()
        .expect("well-formed");
    assert!(outcome.is_completed(), "{outcome:?}");

    drop(client);
    let stats = fleet.shutdown();
    assert_eq!(stats.evals_routed, 17);
    worker_a.shutdown();
}

/// The convergence acceptance: after each train fence, both workers hold
/// byte-identical parameter snapshots (fetched directly from each worker,
/// not through the balancer), and each round's snapshot differs from the
/// last — the follower is tracking real updates, not standing still. Also
/// pins the health plumbing: `Ping` round-trips to a worker and through
/// the balancer's front door.
#[test]
fn checkpoint_broadcast_converges_followers_after_every_train() {
    let worker_a = worker(engine(vec![8]), 64);
    let worker_b = worker(engine(vec![8]), 64);
    let fleet = balancer(&[&worker_a, &worker_b], 64);
    let client = Client::connect(fleet.local_addr()).expect("connect to balancer");
    let inspect_a = Client::connect(worker_a.local_addr()).expect("inspect worker a");
    let inspect_b = Client::connect(worker_b.local_addr()).expect("inspect worker b");
    let probe = Duration::from_secs(5);

    inspect_a.ping(probe).expect("worker answers Ping");
    client
        .ping(probe)
        .expect("balancer front door answers Ping");

    let mut rng = Rng::seed_from_u64(17);
    let mut last = inspect_a.fetch_snapshot(probe).expect("initial snapshot");
    for round in 0..3 {
        let outcome = client
            .submit(request(ServingKind::Train, 8, &mut rng))
            .expect("queue open")
            .wait()
            .expect("well-formed");
        assert!(outcome.is_completed(), "round {round}: {outcome:?}");
        // `route_train` broadcasts before fulfilling the envelope, so the
        // follower is converged by the time the ticket resolves.
        let snap_a = inspect_a.fetch_snapshot(probe).expect("primary snapshot");
        let snap_b = inspect_b.fetch_snapshot(probe).expect("follower snapshot");
        assert_eq!(snap_a, snap_b, "round {round}: follower diverged");
        assert_ne!(snap_a, last, "round {round}: training changed nothing");
        last = snap_a;
    }

    drop(client);
    drop(inspect_a);
    drop(inspect_b);
    let stats = fleet.shutdown();
    assert_eq!(stats.trains_routed, 3);
    assert_eq!(stats.checkpoints_broadcast, 3);
    worker_a.shutdown();
    worker_b.shutdown();
}

/// Satellite (ParamStore round trip): snapshot mid-training, restore into
/// a freshly-compiled store, continue — the final snapshot is bit-identical
/// to the uninterrupted run's, covering parameters, optimizer state
/// (Adam's moments) and step counts.
#[test]
fn snapshot_restore_mid_training_matches_the_uninterrupted_run() {
    let mut rng = Rng::seed_from_u64(77);
    let stream: Vec<Request> = (0..6)
        .map(|_| request(ServingKind::Train, 4, &mut rng))
        .collect();
    let config = EngineConfig {
        warm_batches: vec![4],
        ..EngineConfig::default()
    };
    let losses = |outcomes: Vec<Outcome>| -> Vec<u32> {
        outcomes
            .into_iter()
            .map(|o| {
                o.expect_completed("train completes")
                    .loss
                    .expect("classification loss")
                    .to_bits()
            })
            .collect()
    };

    // Uninterrupted: all six steps on one engine.
    let mut straight = Engine::new(program(Optimizer::adam(0.05)), config.clone());
    let straight_losses = losses(straight.serve(&stream).expect("uninterrupted run"));

    // Interrupted: three steps, snapshot, restore into a fresh
    // identically-compiled program, three more steps.
    let mut first_half = Engine::new(program(Optimizer::adam(0.05)), config.clone());
    let mut resumed_losses = losses(first_half.serve(&stream[..3]).expect("first half"));
    let checkpoint = first_half.program().store().snapshot();
    drop(first_half);
    let resumed_program = program(Optimizer::adam(0.05));
    resumed_program
        .store()
        .restore(&checkpoint)
        .expect("snapshot restores");
    let mut resumed = Engine::new(resumed_program, config);
    resumed_losses.extend(losses(resumed.serve(&stream[3..]).expect("second half")));

    assert_eq!(
        resumed_losses, straight_losses,
        "losses diverged across the snapshot boundary"
    );
    assert_eq!(
        resumed.program().store().snapshot(),
        straight.program().store().snapshot(),
        "final params/optimizer state/steps diverged"
    );
}

/// Satellite (client hardening): `connect_timeout` fails fast against a
/// non-listening port, and `connect_with_backoff` provably sleeps its
/// schedule (50 + 100 ms for three attempts) before giving up with the
/// final attempt's error — then succeeds immediately against a live
/// server.
#[test]
fn connect_timeout_and_backoff_against_a_dead_port() {
    // Port 1 on loopback: nothing listens there, the OS refuses instantly.
    let err =
        Client::connect_timeout("127.0.0.1:1", Duration::from_millis(250)).expect_err("dead port");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);

    let start = Instant::now();
    let err = Client::connect_with_backoff(
        "127.0.0.1:1",
        3,
        Duration::from_millis(250),
        Duration::from_millis(50),
    )
    .expect_err("dead port survives retries");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    assert!(
        start.elapsed() >= Duration::from_millis(150),
        "three attempts must sleep 50 + 100 ms between them, took {:?}",
        start.elapsed()
    );

    // And against a live worker the same helper connects on attempt one.
    let server = worker(engine(vec![4]), 16);
    let client = Client::connect_with_backoff(
        server.local_addr(),
        3,
        Duration::from_secs(2),
        Duration::from_millis(50),
    )
    .expect("live server");
    client.ping(Duration::from_secs(5)).expect("round trip");
    drop(client);
    server.shutdown();
}
