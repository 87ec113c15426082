//! Integration suite for the serving fleet (`pe_fleet`) and the serving
//! half of the bit-identity chain.
//!
//! The load-bearing claims:
//!
//! * **One stream, every path** — a mixed train/eval stream with deadlines
//!   and priorities yields the same rejected set, the same loss bits and
//!   the same final store snapshot through `Engine::serve`, the queue, a
//!   TCP server, a fleet of one worker and a fleet of two, whose follower
//!   converges purely through checkpoint broadcast
//!   (`support::run_everywhere`).
//! * **Worker-loss containment** — killing a worker mid-burst loses no
//!   eval: its in-flight requests re-dispatch to the surviving peer, every
//!   ticket resolves `Completed`, never `Cancelled`, never hangs, and the
//!   fleet keeps serving.
//! * **Checkpoint convergence** — after every train fence, each follower
//!   holds the primary's exact parameter bits (verified by fetching raw
//!   snapshots from each worker directly).

use std::time::{Duration, Instant};

use pe_net::Client;
use pe_tests::support::{
    assert_runs_agree, balancer, deadline_stream, engine, program, queue_config, request,
    run_everywhere, serve, Path, FLUSH,
};
use pockengine::pe_runtime::Optimizer;
use pockengine::pe_tensor::Rng;
use pockengine::{Engine, EngineConfig, Outcome, Request, ServingKind, Submit};

/// The chain's serving acceptance: one deadline- and priority-carrying
/// stream through every path, each compared with `Engine::serve`. The
/// harness also checks each path's accounting (a fleet routes every train
/// through its primary and broadcasts one checkpoint per completed train).
#[test]
fn one_stream_is_bit_identical_on_every_path() {
    let stream = deadline_stream(28, 9);
    let paths = [
        Path::Sync,
        Path::Queue,
        Path::Tcp,
        Path::Fleet(1),
        Path::Fleet(2),
    ];
    let runs = run_everywhere(&stream, &paths);
    assert!(
        !runs[0].rejected.is_empty(),
        "the stream must actually exercise admission control"
    );
    assert!(runs[0].losses.iter().any(Option::is_some));
    assert_runs_agree(&paths, &runs);
}

/// The worker-loss acceptance: kill one worker while it holds parked
/// in-flight evals. Every submitted eval must still resolve `Completed`
/// (re-dispatched to the surviving peer), the dead worker is marked down,
/// and the fleet keeps serving fresh requests.
#[test]
fn killing_a_worker_mid_burst_loses_no_eval() {
    // Workers park 2-row evals behind a 64-row rung and a generous default
    // deadline, guaranteeing genuinely in-flight requests at the kill.
    let park = queue_config(64, Duration::from_secs(2));
    let worker_a = serve(engine(vec![64]), park);
    let worker_b = serve(engine(vec![64]), park);
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
    let worker_a = serve(engine(vec![8]), queue_config(64, FLUSH));
    let worker_b = serve(engine(vec![8]), queue_config(64, FLUSH));
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
    let server = serve(engine(vec![4]), queue_config(16, FLUSH));
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
