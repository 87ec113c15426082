//! Integration suite for the network front door (`pe_net`): the wire
//! protocol must be a *transparent* transport over the async engine.
//!
//! The load-bearing claims:
//!
//! * **Transport independence** — one client's stream, and four
//!   concurrent clients with mixed priorities and deadlines, produce the
//!   same losses, rejected sets and final store over TCP as on the
//!   in-process queue (`support::run_everywhere`, `support::run_phases`).
//! * **Fault containment** — malformed frames, oversized frames, version
//!   mismatches and abrupt disconnects kill only the offending connection;
//!   the server keeps serving and every outstanding ticket resolves
//!   (`Cancelled`), never hangs.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use pe_net::proto::{self, FrameKind, NackReason, SubmitMode};
use pe_net::{Client, Server, ServerConfig};
use pe_tests::support::{
    assert_runs_agree, deadline_stream, engine, mixed_stream, program, queue_config, request,
    run_everywhere, run_phases, serve, Path, CLASSES, FLUSH,
};
use pockengine::pe_runtime::{ExecError, Optimizer};
use pockengine::pe_tensor::{Rng, Tensor};
use pockengine::{
    Engine, EngineConfig, Outcome, QueueConfig, Request, ServingKind, Submit, SubmitError,
};

/// A single client's mixed train/eval stream over TCP is bit-identical to
/// the same stream through the in-process queue.
#[test]
fn networked_stream_matches_the_in_process_engine_bit_for_bit() {
    let paths = [Path::Queue, Path::Tcp];
    assert_runs_agree(&paths, &run_everywhere(&mixed_stream(24, 7), &paths));
}

/// The multi-client acceptance: four concurrent clients with mixed
/// priorities and deadlines produce the same losses, rejected sets and
/// final store over TCP as on the in-process queue and through
/// `Engine::serve`.
///
/// Phased for determinism: training happens in a solo phase (concurrent
/// trains interleave nondeterministically on every path), then four
/// concurrent eval-only clients hammer the frozen parameters. Evaluations
/// are row-independent and read-only, so their losses depend only on each
/// request's bytes, never on batching order.
#[test]
fn four_concurrent_tcp_clients_match_the_in_process_run() {
    let evals = |seed| -> Vec<Request> {
        let stream = deadline_stream(24, seed).into_iter();
        stream.filter(|r| r.kind == ServingKind::Eval).collect()
    };
    let phases = [
        vec![mixed_stream(12, 11)],
        (0..4).map(|c| evals(500 + c)).collect(),
    ];
    let paths = [Path::Sync, Path::Queue, Path::Tcp];
    let runs = run_phases(&phases, &paths);
    // Only the eval phase carries deadlines.
    assert!(!runs[0].rejected.is_empty(), "no admission control");
    assert_runs_agree(&paths, &runs);
}

/// `try_submit` round-trips over TCP: an accepted submission is explicitly
/// acknowledged and then resolves with the served response.
#[test]
fn try_submit_over_tcp_serves_like_submit() {
    let server = serve(engine(vec![4]), queue_config(64, FLUSH));
    let client = Client::connect(server.local_addr()).expect("connect");
    let mut rng = Rng::seed_from_u64(3);
    let handle = client
        .try_submit(request(ServingKind::Eval, 4, &mut rng))
        .expect("queue has room");
    let response = handle
        .wait()
        .expect("well-formed")
        .expect_completed("eval completes");
    assert_eq!(response.rows, 4);
    drop(client);
    server.shutdown();
}

/// Satellite regression (issue): a client that disconnects after receiving
/// half its stream leaves nothing hung — the unredeemed tickets resolve as
/// `Cancelled` on the client side, the server sheds the connection, and
/// the engine keeps serving new connections.
#[test]
fn disconnect_mid_burst_cancels_outstanding_tickets_and_server_keeps_serving() {
    // Generous default deadline: the second half of the burst sits in the
    // batcher, guaranteeing genuinely outstanding tickets at disconnect.
    let server = serve(engine(vec![8]), queue_config(64, Duration::from_secs(30)));
    let client = Client::connect(server.local_addr()).expect("connect");
    let mut rng = Rng::seed_from_u64(4);

    // First half: expired deadlines dispatch solo and immediately.
    for i in 0..4 {
        let handle = client
            .submit_with_deadline(request(ServingKind::Eval, 2, &mut rng), Duration::ZERO)
            .expect("queue open");
        let outcome = handle.wait().expect("well-formed");
        assert!(outcome.is_completed(), "request {i}: {outcome:?}");
    }
    // Second half: parked in the batcher behind 30-second deadlines
    // (3 × 2 rows stays below the 8-row rung, so nothing dispatches).
    let outstanding: Vec<_> = (0..3)
        .map(|_| {
            client
                .submit(request(ServingKind::Eval, 2, &mut rng))
                .expect("queue open")
        })
        .collect();
    assert!(outstanding.iter().all(|t| !t.is_ready()));

    // Abrupt disconnect: drop the only clone mid-burst.
    drop(client);
    for (i, ticket) in outstanding.into_iter().enumerate() {
        match ticket.wait() {
            Ok(Outcome::Cancelled) => {}
            other => panic!("ticket {i} must cancel on disconnect, got {other:?}"),
        }
    }

    assert_still_serving(server.local_addr(), 4);
    server.shutdown();
}

/// Server shutdown mid-flight severs connections: the client's outstanding
/// tickets cancel, and later submissions report `Closed`.
#[test]
fn server_shutdown_cancels_client_tickets_and_closes_the_transport() {
    let server = serve(engine(vec![8]), queue_config(64, Duration::from_secs(30)));
    let client = Client::connect(server.local_addr()).expect("connect");
    let mut rng = Rng::seed_from_u64(5);
    // 3 × 2 rows stays below the 8-row rung, so the batcher holds them.
    let held: Vec<_> = (0..3)
        .map(|_| {
            client
                .submit(request(ServingKind::Eval, 2, &mut rng))
                .expect("queue open")
        })
        .collect();
    server.shutdown();
    for (i, ticket) in held.into_iter().enumerate() {
        match ticket.wait() {
            Ok(Outcome::Cancelled) => {}
            other => panic!("ticket {i} must cancel on server shutdown, got {other:?}"),
        }
    }
    match client.submit(request(ServingKind::Eval, 2, &mut rng)) {
        Err(SubmitError::Closed(r)) => assert_eq!(r.rows(), 2),
        other => panic!("expected Closed after shutdown, got {other:?}"),
    }
}

/// Performs the raw handshake on a bare socket (for protocol-violation
/// tests that a well-behaved `Client` cannot produce).
fn raw_handshake(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    proto::write_frame(&mut stream, FrameKind::Hello, &proto::encode_hello()).unwrap();
    let ack = proto::read_frame(&mut stream, 1 << 20).expect("handshake ack");
    assert_eq!(FrameKind::from_u8(ack.kind), Some(FrameKind::HelloAck));
    stream
}

/// Reads frames until the connection closes, returning the last `Error`
/// frame's message (if any).
fn drain_to_error(stream: &mut TcpStream) -> Option<String> {
    let mut last = None;
    while let Ok(frame) = proto::read_frame(stream, 1 << 20) {
        if FrameKind::from_u8(frame.kind) == Some(FrameKind::Error) {
            last = proto::decode_error(&frame.payload).ok();
        }
    }
    last
}

/// Asserts the server still serves a full round trip.
fn assert_still_serving(addr: SocketAddr, seed: u64) {
    let client = Client::connect(addr).expect("server must still accept");
    let mut rng = Rng::seed_from_u64(seed);
    let outcome = client
        .submit_with_deadline(request(ServingKind::Eval, 2, &mut rng), Duration::ZERO)
        .expect("queue open")
        .wait()
        .expect("well-formed");
    assert!(outcome.is_completed(), "{outcome:?}");
}

/// A malformed payload (undecodable Submit) draws an `Error` frame and a
/// close for that connection only; the server keeps serving.
#[test]
fn malformed_frames_kill_only_the_offending_connection() {
    let server = serve(engine(vec![8]), queue_config(64, FLUSH));
    let addr = server.local_addr();

    // Garbage Submit payload.
    let mut bad = raw_handshake(addr);
    proto::write_frame(&mut bad, FrameKind::Submit, &[0xde, 0xad, 0xbe, 0xef]).unwrap();
    let message = drain_to_error(&mut bad).expect("an Error frame must come back");
    assert!(message.contains("protocol error"), "{message}");
    assert_still_serving(addr, 21);

    // A frame kind clients may not send after the handshake.
    let mut wrong = raw_handshake(addr);
    proto::write_frame(&mut wrong, FrameKind::HelloAck, &proto::encode_hello_ack()).unwrap();
    let message = drain_to_error(&mut wrong).expect("an Error frame must come back");
    assert!(message.contains("unexpected frame kind"), "{message}");
    assert_still_serving(addr, 22);

    server.shutdown();
}

/// One well-framed `Submit` whose label is out of range draws that
/// request's typed error; it does not take the server's engine down.
#[test]
fn an_out_of_range_label_draws_its_error_and_the_server_keeps_serving() {
    let server = serve(engine(vec![4]), queue_config(64, FLUSH));
    let addr = server.local_addr();
    let client = Client::connect(addr).expect("connect");
    let mut rng = Rng::seed_from_u64(23);
    let mut bad = request(ServingKind::Eval, 2, &mut rng);
    bad.labels = Tensor::from_vec(vec![CLASSES as f32, 0.0], [2]);
    let result = client.submit(bad).expect("queue open").wait();
    let want = ExecError::InputIndexOutOfRange {
        name: "labels".into(),
        position: 0,
        bound: CLASSES,
    };
    assert_eq!(result.unwrap_err(), want);
    assert_still_serving(addr, 24);
    server.shutdown();
}

/// An oversized length prefix is refused before any allocation, with an
/// `Error` frame naming the limit; the server keeps serving.
#[test]
fn oversized_frames_are_refused_without_wedging_the_server() {
    let server = Server::spawn(
        engine(vec![8]).into_async(queue_config(64, FLUSH)),
        ServerConfig {
            max_frame: 4096,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback server");
    let addr = server.local_addr();

    let mut hostile = raw_handshake(addr);
    hostile.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let message = drain_to_error(&mut hostile).expect("an Error frame must come back");
    assert!(message.contains("exceeds"), "{message}");

    // A legitimately-encoded request over the limit is torn down the same
    // way — and the still-open sibling connection keeps working.
    let survivor = Client::connect(addr).expect("connect");
    let mut rng = Rng::seed_from_u64(23);
    let mut too_big = raw_handshake(addr);
    let huge = request(ServingKind::Eval, 64, &mut rng); // 64×16 f32s > 4096 B
    proto::write_frame(
        &mut too_big,
        FrameKind::Submit,
        &proto::encode_submit(1, SubmitMode::Block, &huge),
    )
    .unwrap();
    assert!(drain_to_error(&mut too_big).is_some());
    let outcome = survivor
        .submit_with_deadline(request(ServingKind::Eval, 2, &mut rng), Duration::ZERO)
        .expect("queue open")
        .wait()
        .expect("well-formed");
    assert!(outcome.is_completed(), "{outcome:?}");
    drop(survivor);
    server.shutdown();
}

/// A version-mismatched or magic-less peer is refused during the
/// handshake with a descriptive `Error` frame.
#[test]
fn handshake_rejects_version_and_magic_mismatches() {
    let server = serve(engine(vec![8]), queue_config(64, FLUSH));
    let addr = server.local_addr();

    // Wrong version.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut hello = proto::encode_hello();
    hello[4] = 0xFF; // version low byte
    proto::write_frame(&mut stream, FrameKind::Hello, &hello).unwrap();
    let message = drain_to_error(&mut stream).expect("an Error frame must come back");
    assert!(message.contains("version mismatch"), "{message}");

    // Wrong magic.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut hello = proto::encode_hello();
    hello[0] = b'X';
    proto::write_frame(&mut stream, FrameKind::Hello, &hello).unwrap();
    let message = drain_to_error(&mut stream).expect("an Error frame must come back");
    assert!(message.contains("magic"), "{message}");

    assert_still_serving(addr, 24);
    server.shutdown();
}

/// The connection cap refuses excess peers with an `Error` frame and frees
/// the slot when a connection ends.
#[test]
fn connection_limit_refuses_and_recovers() {
    let server = Server::spawn(
        engine(vec![8]).into_async(queue_config(64, FLUSH)),
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback server");
    let addr = server.local_addr();

    let holder = Client::connect(addr).expect("first connection fits");
    let refused = Client::connect(addr);
    match refused {
        Err(e) => assert!(
            e.to_string().contains("connection limit"),
            "unexpected refusal: {e}"
        ),
        Ok(_) => panic!("second connection must be refused at limit 1"),
    }

    drop(holder);
    // The slot frees asynchronously (the server must notice the EOF).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(addr) {
            Ok(client) => {
                drop(client);
                break;
            }
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("slot never freed after disconnect: {e}"),
        }
    }
    server.shutdown();
}

/// A spoofed one-connection server: it accepts, completes the handshake and
/// runs `script` on the socket, then hangs up.
fn spoof<T: Send + 'static>(
    script: impl FnOnce(TcpStream) -> T + Send + 'static,
) -> (SocketAddr, std::thread::JoinHandle<T>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let hello = proto::read_frame(&mut stream, 1 << 20).unwrap();
        assert_eq!(FrameKind::from_u8(hello.kind), Some(FrameKind::Hello));
        proto::decode_hello(&hello.payload).unwrap();
        proto::write_frame(&mut stream, FrameKind::HelloAck, &proto::encode_hello_ack()).unwrap();
        script(stream)
    });
    (addr, handle)
}

/// Client-side `try_submit` semantics against a spoofed raw-protocol
/// server (the only way to force a deterministic `Nack`): `Full` hands the
/// request back, an `Ack` yields a live handle, and a connection that dies
/// afterwards cancels that handle.
#[test]
fn try_submit_full_hands_the_request_back_over_tcp() {
    let (addr, spoof) = spoof(|mut stream| {
        // First submission: refuse as Full.
        let frame = proto::read_frame(&mut stream, 1 << 20).unwrap();
        let (corr, mode, refused) = proto::decode_submit(&frame.payload).unwrap();
        assert_eq!(mode, SubmitMode::Try);
        proto::write_frame(
            &mut stream,
            FrameKind::Nack,
            &proto::encode_nack(corr, NackReason::Full),
        )
        .unwrap();
        // Second submission: accept, then die before the outcome.
        let frame = proto::read_frame(&mut stream, 1 << 20).unwrap();
        let (corr, _, _) = proto::decode_submit(&frame.payload).unwrap();
        proto::write_frame(&mut stream, FrameKind::Ack, &proto::encode_ack(corr)).unwrap();
        refused
    });

    let client = Client::connect(addr).expect("connect to spoof");
    let mut rng = Rng::seed_from_u64(31);
    let original = request(ServingKind::Eval, 3, &mut rng).id(42);
    match client.try_submit(original.clone()) {
        Err(SubmitError::Full(handed_back)) => {
            assert_eq!(handed_back.rows(), 3);
            assert_eq!(handed_back.meta.id, Some(42));
            assert_eq!(
                handed_back.features.data(),
                original.features.data(),
                "the refused request must come back intact"
            );
        }
        other => panic!("expected Full, got {other:?}"),
    }
    let accepted = client
        .try_submit(request(ServingKind::Eval, 2, &mut rng))
        .expect("spoof acks the second submission");
    // The spoof server hangs up after the Ack; the accepted-but-never-
    // served handle must cancel, not hang.
    let refused = spoof.join().unwrap();
    assert_eq!(refused.rows(), 3, "spoof saw the request we sent");
    match accepted.wait() {
        Ok(Outcome::Cancelled) => {}
        other => panic!("expected Cancelled after server death, got {other:?}"),
    }
    assert!(client.is_closed());
}

/// Blocking-mode refusals honor the `Submit` contract too: a server whose
/// queue has closed answers `Nack` and the client's `submit` returns
/// `SubmitError::Closed` with the request handed back — never an `Ok`
/// handle that cancels later, so a never-admitted request stays
/// distinguishable from a torn-down in-flight one.
#[test]
fn blocking_submit_nacked_closed_hands_the_request_back_over_tcp() {
    let (addr, spoof) = spoof(|mut stream| {
        let frame = proto::read_frame(&mut stream, 1 << 20).unwrap();
        let (corr, mode, _) = proto::decode_submit(&frame.payload).unwrap();
        assert_eq!(mode, SubmitMode::Block);
        proto::write_frame(
            &mut stream,
            FrameKind::Nack,
            &proto::encode_nack(corr, NackReason::Closed),
        )
        .unwrap();
    });

    let client = Client::connect(addr).expect("connect to spoof");
    let mut rng = Rng::seed_from_u64(32);
    let original = request(ServingKind::Eval, 3, &mut rng).id(7);
    match client.submit(original.clone()) {
        Err(SubmitError::Closed(handed_back)) => {
            assert_eq!(handed_back.meta.id, Some(7));
            assert_eq!(
                handed_back.features.data(),
                original.features.data(),
                "the refused request must come back intact"
            );
        }
        other => panic!("expected Closed, got {other:?}"),
    }
    spoof.join().unwrap();
}

/// A saturated worker must keep answering health probes. A block-mode
/// submit stalled on a full queue used to run inline on the connection's
/// reader, so a `Ping` behind it went unanswered until the queue opened —
/// and a balancer would mark the merely-busy worker down after its probe
/// timeout, severing the connection and re-homing every in-flight eval.
/// The reader now polls the socket while the submit waits and answers
/// control frames immediately.
#[test]
fn ping_is_answered_while_a_blocking_submit_waits_on_a_full_queue() {
    let (submitter, receiver) = pockengine::queue::channel(QueueConfig {
        capacity: 1,
        ..QueueConfig::default()
    });
    let core =
        pe_net::ServerCore::spawn(submitter, None, ServerConfig::default()).expect("bind core");
    let client = Client::connect(core.local_addr()).expect("connect");
    let mut rng = Rng::seed_from_u64(77);

    // Fill the queue (admitted and acked), then stall a second blocking
    // submit behind it: nobody drains the receiver, so the server-side
    // reader is now waiting for room.
    let _first = client
        .submit(request(ServingKind::Eval, 3, &mut rng))
        .expect("first submit fills the queue");
    let stalled_request = request(ServingKind::Eval, 3, &mut rng);
    let stalled_client = client.clone();
    let stalled = std::thread::spawn(move || stalled_client.submit(stalled_request));
    // Let the stalled Submit frame reach the reader and start waiting.
    std::thread::sleep(Duration::from_millis(100));

    let depth = client
        .ping(Duration::from_secs(2))
        .expect("probe must be answered during the stall");
    assert_eq!(depth, 1, "the probe reports the full queue's depth");
    assert!(!stalled.is_finished(), "the submit is still backpressured");

    // Opening one slot lets the deferred submit through; its Ack releases
    // the client-side blocking call.
    assert!(matches!(
        receiver.pop(Some(std::time::Instant::now() + Duration::from_secs(2))),
        pockengine::queue::Pop::Item(_)
    ));
    stalled
        .join()
        .unwrap()
        .expect("stalled submit admitted once room opened");
}

/// A stalled blocking submit defers the frames that arrive behind it, and a
/// hostile peer must not turn that into unbounded buffering: once the
/// deferred frames hold `max_frame` bytes the reader stops reading the
/// socket, so TCP flow control stalls the sender's writes.
#[test]
fn a_stalled_blocking_submit_stops_reading_once_its_deferral_holds_a_frame() {
    let (submitter, _undrained) = pockengine::queue::channel(QueueConfig {
        capacity: 1,
        ..QueueConfig::default()
    });
    let config = ServerConfig {
        max_frame: 4096,
        ..ServerConfig::default()
    };
    let core = pe_net::ServerCore::spawn(submitter, None, config).expect("bind core");
    let mut stream = raw_handshake(core.local_addr());
    stream
        .set_write_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut rng = Rng::seed_from_u64(78);
    // The first submit fills the queue; the second stalls the reader.
    for corr in [1, 2] {
        let request = request(ServingKind::Eval, 1, &mut rng);
        let payload = proto::encode_submit(corr, SubmitMode::Block, &request);
        proto::write_frame(&mut stream, FrameKind::Submit, &payload).unwrap();
    }
    const LIMIT: usize = 64 << 20;
    let filler = vec![0u8; 4095];
    let mut sent = 0;
    let stalled = loop {
        if sent >= LIMIT {
            break false;
        }
        match proto::write_frame(&mut stream, FrameKind::Submit, &filler) {
            Ok(()) => sent += 4 + 1 + filler.len(),
            Err(e) => {
                let kind = e.kind();
                assert!(
                    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut),
                    "{e}"
                );
                break true;
            }
        }
    };
    assert!(stalled, "the server read all {sent} bytes the peer sent");
    drop(stream);
    drop(core);
}

/// A spoofed server that reads a blocking `Submit` and a `Ping` and then
/// hangs up without answering either: teardown must release both waiters
/// at once. The submit returns `Closed` with the request handed back
/// intact, and the ping fails `NotConnected` long before its timeout.
#[test]
fn a_server_hanging_up_on_a_submit_and_a_ping_releases_both() {
    let (addr, spoof) = spoof(|mut stream| {
        // The two frames race from two client threads: take either order.
        let mut kinds: Vec<_> = (0..2)
            .map(|_| {
                let frame = proto::read_frame(&mut stream, 1 << 20).unwrap();
                if let Some(FrameKind::Submit) = FrameKind::from_u8(frame.kind) {
                    let (_, mode, _) = proto::decode_submit(&frame.payload).unwrap();
                    assert_eq!(mode, SubmitMode::Block);
                }
                frame.kind
            })
            .collect();
        kinds.sort_unstable();
        assert_eq!(
            kinds,
            [FrameKind::Submit as u8, FrameKind::Ping as u8],
            "one Submit and one Ping"
        );
    });

    let client = Client::connect(addr).expect("connect to spoof");
    let mut rng = Rng::seed_from_u64(33);
    let original = request(ServingKind::Eval, 3, &mut rng).id(9);
    let submitting = client.clone();
    let sent = original.clone();
    let submit = std::thread::spawn(move || submitting.submit(sent));
    let started = std::time::Instant::now();
    let ping = client.ping(Duration::from_secs(30));
    assert_eq!(ping.map_err(|e| e.kind()), Err(io::ErrorKind::NotConnected));
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the ping waited {:?} on a closed connection",
        started.elapsed()
    );
    match submit.join().unwrap() {
        Err(SubmitError::Closed(handed_back)) => {
            assert_eq!(handed_back.meta.id, Some(9));
            assert_eq!(handed_back.labels.data(), original.labels.data());
            assert_eq!(
                handed_back.features.data(),
                original.features.data(),
                "the unanswered request must come back intact"
            );
        }
        other => panic!("expected Closed, got {other:?}"),
    }
    spoof.join().unwrap();
    assert!(client.is_closed());
}

/// Rewrites a snapshot so its first parameter carries one optimizer state
/// row instead of all of them. Layout: magic, version, optimizer tag,
/// global steps, parameter count; then per parameter a length-prefixed
/// name, rank, dims, values, state-row count, rows and update count.
fn with_one_state_row(snapshot: &[u8]) -> Vec<u8> {
    let u32_at = |at: usize| u32::from_le_bytes(snapshot[at..at + 4].try_into().unwrap()) as usize;
    let mut at = 4 + 4 + 1 + 8 + 4;
    at += 4 + u32_at(at);
    let rank = snapshot[at] as usize;
    let numel: usize = (0..rank).map(|d| u32_at(at + 1 + 4 * d)).product();
    at += 1 + 4 * rank + 4 * numel;
    assert_eq!(snapshot[at], 2, "Adam keeps two state rows");
    let second_row = at + 1 + 4 * numel;
    let mut bytes = snapshot[..second_row].to_vec();
    bytes[at] = 1;
    bytes.extend_from_slice(&snapshot[second_row + 4 * numel..]);
    bytes
}

/// A `Checkpoint` whose state rows the store's optimizer cannot use is
/// refused before it touches the store, and the server keeps training.
#[test]
fn a_checkpoint_the_store_cannot_train_is_refused() {
    let adam = Engine::new(
        program(Optimizer::adam(1e-3)),
        EngineConfig {
            warm_batches: vec![4, 8],
            ..EngineConfig::default()
        },
    );
    let server = serve(adam, queue_config(16, FLUSH));
    let addr = server.local_addr();
    let before = Client::connect(addr)
        .and_then(|c| c.fetch_snapshot(Duration::from_secs(10)))
        .expect("fetch snapshot");

    let pusher = Client::connect(addr).expect("connect");
    let refused = pusher.push_checkpoint(&with_one_state_row(&before), Duration::from_secs(10));
    assert!(
        refused.is_err(),
        "a one-row Adam checkpoint must be refused"
    );

    let client = Client::connect(addr).expect("server must still accept");
    assert_eq!(
        client.fetch_snapshot(Duration::from_secs(10)).unwrap(),
        before,
        "a refused checkpoint leaves the store untouched"
    );
    let mut rng = Rng::seed_from_u64(31);
    for kind in [ServingKind::Train, ServingKind::Eval] {
        let outcome = client
            .submit(request(kind, 4, &mut rng))
            .expect("queue open")
            .wait()
            .expect("well-formed");
        assert!(
            outcome.is_completed(),
            "{kind:?} after the refusal: {outcome:?}"
        );
    }
    server.shutdown();
}
