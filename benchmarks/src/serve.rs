//! The `serve_*` workloads: a closed loop of eight callers over loopback.
//!
//! A round compiles the engine(s), spawns the server(s) — and, on the fleet
//! workload, the balancer — and connects eight clients, each driven by its
//! own thread that submits one request, waits for its outcome and submits
//! the next: eight callers that each wait for a reply, eight requests in
//! flight. An op is one request; a slice is 50 ms of wall time.
//!
//! Why not fewer callers with bursts in flight: `Client::submit` returns
//! only once the server has acked, so a burst is in fact a train of
//! ack-gated submissions, and the stack then settles into one of two
//! self-sustaining batching regimes (14k or 30k req/s on the same code, a
//! round at a time). With one request per caller the in-flight count is
//! constant and the regimes are gone.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use pe_fleet::{Balancer, BalancerConfig, FleetStats};
use pe_net::{Client, Server, ServerConfig};
use pockengine::pe_data::serving::{generate_request_stream, RequestStreamConfig};
use pockengine::pe_graph::GraphBuilder;
use pockengine::pe_models::BuiltModel;
use pockengine::pe_runtime::{ExecError, Optimizer};
use pockengine::pe_tensor::{Rng, Tensor};
use pockengine::{
    CompileOptions, Compiler, Engine, EngineConfig, Outcome, QueueConfig, Request, ServingKind,
    Submit,
};

use crate::common::{RoundStats, Stop};
use crate::estimator::{self, Mark, OpLog, SliceLog};
use crate::sys::{instant_ns, now_ns, process_cpu_ns, reserved};
use crate::trace::{SpanId, Tracer, NO_OP};

/// Client connections, one generator thread and one request in flight each.
pub const CLIENTS: usize = 8;
/// Seeded requests per connection; the stream cycles through them.
const POOL: usize = 1024;
/// Untimed requests per connection between set-up and the timed phase.
const WARMUP_REQUESTS: u64 = 256;
/// On the mixed workload every fourth request of connection 0 trains: one
/// request in 32 overall, every train on one connection so that their order
/// — and with it the parameters after each — is fixed by the seed.
const TRAIN_EVERY: usize = 4;
const TRAIN_PHASE: usize = 2;

pub const FEATURES: usize = 32;
pub const CLASSES: usize = 8;
const CONTROL_TIMEOUT: Duration = Duration::from_secs(10);

/// The one knob the serve workloads pin. With the 2 ms default budget the
/// fleet workload sits in two stacked deadline timers and no CPU-side change
/// shows; the committed net and fleet benches pin the same values.
pub fn queue_config() -> QueueConfig {
    QueueConfig {
        capacity: 256,
        default_deadline: Duration::from_micros(200),
        ..QueueConfig::default()
    }
}

/// The served model: a 32 -> 64 -> 8 MLP whose weights follow the seed.
pub fn mlp_factory(seed: u64) -> impl Fn(usize) -> BuiltModel + Send + 'static {
    move |batch| {
        let mut rng = Rng::seed_from_u64(seed ^ 0x31f);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [batch, FEATURES]);
        let labels = b.input("labels", [batch]);
        let w1 = b.weight("fc1.weight", [64, FEATURES], &mut rng);
        let b1 = b.bias("fc1.bias", 64);
        let h = b.linear(x, w1, Some(b1));
        let h = b.relu(h);
        let w2 = b.weight("fc2.weight", [CLASSES, 64], &mut rng);
        let b2 = b.bias("fc2.bias", CLASSES);
        let logits = b.linear(h, w2, Some(b2));
        let loss = b.cross_entropy(logits, labels);
        let graph = b.finish(vec![loss, logits]);
        BuiltModel {
            graph,
            loss,
            logits,
            feature_input: "x".into(),
            label_input: "labels".into(),
            num_blocks: 2,
            name: "bench-mlp".into(),
        }
    }
}

pub fn compile_options() -> CompileOptions {
    CompileOptions {
        optimizer: Optimizer::sgd(0.05),
        ..CompileOptions::default()
    }
}

pub fn engine_config() -> EngineConfig {
    EngineConfig {
        warm_batches: vec![4, 8],
        ..EngineConfig::default()
    }
}

/// Compiles the MLP and warms the `[4, 8]` ladder.
pub fn engine(seed: u64) -> Engine {
    let program = Compiler::new(compile_options()).compile(mlp_factory(seed));
    Engine::new(program, engine_config())
}

/// A seeded eval stream of rows in {1, 2, 4, 8}.
pub fn eval_stream(requests: usize, rng: &mut Rng) -> Vec<Request> {
    let cfg = RequestStreamConfig {
        num_requests: requests,
        batch_sizes: vec![1, 2, 4, 8],
        train_fraction: 0.0,
        num_classes: CLASSES,
        feature_dim: FEATURES,
        ..RequestStreamConfig::default()
    };
    generate_request_stream(&cfg, rng)
}

/// A serve workload's topology, seeded request pools and expected outputs.
pub struct ServeSpec {
    /// Workers behind a balancer; 0 is one server with no balancer.
    pub workers: usize,
    pub seed: u64,
    /// One request pool per connection.
    pub pools: Vec<Vec<Request>>,
    /// Logits an in-process `Engine::serve` gave each pooled request. Only
    /// the eval-only workload can hold responses to them: beside trains, an
    /// eval's logits depend on which trains it happened to follow.
    pub expected: Option<Vec<Vec<Tensor>>>,
}

impl ServeSpec {
    pub fn eval_tcp(seed: u64) -> ServeSpec {
        let pools = ServeSpec::pools(seed);
        let mut reference = engine(seed);
        let expected = pools
            .iter()
            .map(|pool| {
                let outcomes = reference.serve(pool).expect("well-formed pool");
                outcomes
                    .into_iter()
                    .map(|o| o.expect_completed("reference eval").logits.expect("logits"))
                    .collect()
            })
            .collect();
        ServeSpec {
            workers: 0,
            seed,
            pools,
            expected: Some(expected),
        }
    }

    pub fn mixed_fleet(seed: u64) -> ServeSpec {
        let mut pools = ServeSpec::pools(seed);
        for request in pools[0].iter_mut().skip(TRAIN_PHASE).step_by(TRAIN_EVERY) {
            request.kind = ServingKind::Train;
        }
        ServeSpec {
            workers: 2,
            seed,
            pools,
            expected: None,
        }
    }

    fn pools(seed: u64) -> Vec<Vec<Request>> {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5e12e);
        (0..CLIENTS).map(|_| eval_stream(POOL, &mut rng)).collect()
    }

    /// The trains connection 0 has submitted once its cursor reached `ops`.
    fn trains_before(&self, ops: u64) -> Vec<Request> {
        (0..ops as usize)
            .map(|cursor| &self.pools[0][cursor % POOL])
            .filter(|request| request.kind == ServingKind::Train)
            .cloned()
            .collect()
    }
}

/// One connection's pre-allocated buffers.
pub struct ClientBuffers {
    /// Submit-to-resolved of every eval, cut where the slices are.
    pub latency: OpLog,
    /// Submit-to-resolved of every train (mixed workload only).
    pub train_latency: OpLog,
    pub train_losses: Vec<f32>,
    pub tracer: Tracer,
}

pub struct ServeBuffers {
    pub clients: Vec<ClientBuffers>,
    pub slices: SliceLog,
}

impl ServeBuffers {
    /// Room for `seconds` of timed phase per round and, when tracing, the
    /// spans of `traced_ops` ops per connection.
    pub fn new(seconds: f64, traced_ops: usize) -> ServeBuffers {
        let slices = estimator::slices_in(seconds);
        // Four times the 5k req/s a connection sustains here.
        let ops = (seconds * 20_000.0) as usize + WARMUP_REQUESTS as usize;
        let clients = (0..CLIENTS)
            .map(|_| ClientBuffers {
                latency: OpLog::with_capacity(ops, slices),
                train_latency: OpLog::with_capacity(ops / TRAIN_EVERY, 0),
                train_losses: reserved(1.0, ops / TRAIN_EVERY),
                tracer: Tracer::with_capacity(match traced_ops {
                    0 => 0,
                    ops => 3 * (ops + WARMUP_REQUESTS as usize) + 64,
                }),
            })
            .collect();
        ServeBuffers {
            clients,
            slices: SliceLog::with_capacity(slices),
        }
    }
}

/// What one serve round measured, and what its output checks found.
pub struct ServeRound {
    pub stats: RoundStats,
    pub train_p50_ms: Option<f64>,
    pub fleet: Option<FleetStats>,
    pub wrong_outputs: u64,
    pub findings: Vec<String>,
}

#[derive(Default)]
struct Counts {
    attempted: u64,
    failed: u64,
    /// Requests taken from the pool so far.
    cursor: u64,
}

struct Generator<'a> {
    conn: usize,
    client: &'a Client,
    pool: &'a [Request],
    expected: Option<&'a [Tensor]>,
    buf: &'a mut ClientBuffers,
    counts: Counts,
    /// Requests completed by all generators.
    done: &'a AtomicU64,
    /// Slices begun so far, published by the generator that keeps the marks.
    slices_begun: &'a AtomicUsize,
}

impl Generator<'_> {
    /// Submits the next pooled request and waits for its outcome. Allocates
    /// nothing of its own; the request clone is what `Submit::submit` takes
    /// by value from any caller.
    fn request(&mut self, parent: SpanId) {
        let index = self.counts.cursor as usize % POOL;
        let request = &self.pool[index];
        let submitted = Instant::now();
        let ticket = self.client.submit(request.clone());
        let acked = Instant::now();
        let (ok, resolved) = match ticket {
            Ok(ticket) => {
                let (result, resolved) = ticket.wait_timed();
                let latency_ns = resolved.saturating_duration_since(submitted).as_nanos() as u64;
                (self.check(index, &result, latency_ns), resolved.max(acked))
            }
            Err(_) => (false, acked),
        };
        self.counts.attempted += 1;
        self.counts.failed += !ok as u64;
        self.done.fetch_add(1, Ordering::Relaxed);

        let op_id = (self.conn as u64) << 32 | self.counts.cursor;
        let tracer = &mut self.buf.tracer;
        let (start, ack, end) = (
            instant_ns(submitted),
            instant_ns(acked),
            instant_ns(resolved),
        );
        let op = tracer.begin_at("op", parent, op_id, start);
        let submit = tracer.begin_at("net.submit_ack", op, op_id, start);
        tracer.end_at(submit, ack);
        let outcome = tracer.begin_at("net.await_outcome", op, op_id, ack);
        tracer.end_at(outcome, end);
        tracer.end_at(op, end);
        self.counts.cursor += 1;
    }

    /// Records the op's latency and holds its outcome to what was expected.
    fn check(
        &mut self,
        index: usize,
        result: &Result<Outcome, ExecError>,
        latency_ns: u64,
    ) -> bool {
        let request = &self.pool[index];
        let Ok(Outcome::Completed(response)) = result else {
            return false;
        };
        match request.kind {
            ServingKind::Train => {
                self.buf.train_latency.record(latency_ns);
                let losses = &mut self.buf.train_losses;
                if losses.len() < losses.capacity() {
                    losses.push(response.loss.unwrap_or(f32::NAN));
                }
                response.loss.is_some()
            }
            ServingKind::Eval => {
                self.buf
                    .latency
                    .begin_slices(self.slices_begun.load(Ordering::Relaxed));
                self.buf.latency.record(latency_ns);
                let logits = response.logits.as_ref();
                match self.expected {
                    Some(expected) => logits.is_some_and(|got| {
                        let want = &expected[index];
                        got.dims() == want.dims()
                            && got
                                .data()
                                .iter()
                                .map(|v| v.to_bits())
                                .eq(want.data().iter().map(|v| v.to_bits()))
                    }),
                    None => logits.is_some_and(|got| got.dims() == [request.rows(), CLASSES]),
                }
            }
        }
    }
}

/// The front door of a round and everything behind it.
struct Stack {
    servers: Vec<Server>,
    balancer: Option<Balancer>,
    worker_addrs: Vec<String>,
    front: std::net::SocketAddr,
}

fn boot(spec: &ServeSpec, tracer: &mut Tracer, parent: Option<u32>) -> Stack {
    let servers: Vec<Server> = (0..spec.workers.max(1))
        .map(|_| {
            let engine = tracer.scope("core.compile", parent, || engine(spec.seed));
            tracer.scope("net.spawn", parent, || {
                Server::spawn(engine.into_async(queue_config()), ServerConfig::default())
                    .expect("loopback server")
            })
        })
        .collect();
    let worker_addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let balancer = (spec.workers > 0).then(|| {
        tracer.scope("fleet.boot", parent, || {
            Balancer::spawn(&worker_addrs, balancer_config()).expect("spawn balancer")
        })
    });
    let front = balancer
        .as_ref()
        .map_or_else(|| servers[0].local_addr(), Balancer::local_addr);
    Stack {
        servers,
        balancer,
        worker_addrs,
        front,
    }
}

/// The balancer's queue mirrors the workers', so backpressure composes.
pub fn balancer_config() -> BalancerConfig {
    BalancerConfig {
        queue: queue_config(),
        ..BalancerConfig::default()
    }
}

/// One round: cold set-up (compile, spawn, connect, first op), then per
/// connection a warm-up and the timed closed loop, then the output checks
/// that need the servers alive, then teardown.
pub fn run_round(spec: &ServeSpec, stop: Stop, buf: &mut ServeBuffers) -> ServeRound {
    for client in &mut buf.clients {
        client.latency.clear();
        client.train_latency.clear();
        client.train_losses.clear();
    }
    let mut findings = Vec::new();
    let mut wrong_outputs = 0u64;

    // Set-up: first library call to first completed op. Its spans go to
    // connection 0's tracer, which the main thread holds until the
    // generators start.
    let begun = Instant::now();
    let tracer = &mut buf.clients[0].tracer;
    let setup = tracer.begin("setup", None, NO_OP);
    let stack = boot(spec, tracer, setup);
    let clients: Vec<Client> = (0..CLIENTS)
        .map(|_| {
            tracer.scope("net.connect", setup, || {
                Client::connect(stack.front).expect("loopback connect")
            })
        })
        .collect();
    let first = clients[0]
        .submit(spec.pools[0][0].clone())
        .ok()
        .and_then(|ticket| ticket.wait().ok());
    tracer.end(setup);
    let setup_s = begun.elapsed().as_secs_f64();
    if !first.is_some_and(|outcome| outcome.is_completed()) {
        wrong_outputs += 1;
        findings.push("the round's first request did not complete".into());
    }

    // Generator threads exist, warmed up and parked on the barrier before
    // the round's clock starts.
    let done = AtomicU64::new(0);
    let slices_begun = AtomicUsize::new(0);
    let barrier = Barrier::new(CLIENTS);
    let mut slices = Some(&mut buf.slices);
    let counts: Vec<Counts> = std::thread::scope(|scope| {
        let handles: Vec<_> = buf
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client_buf)| {
                let mut generator = Generator {
                    conn,
                    client: &clients[conn],
                    pool: &spec.pools[conn],
                    expected: spec.expected.as_ref().map(|e| e[conn].as_slice()),
                    buf: client_buf,
                    counts: Counts::default(),
                    done: &done,
                    slices_begun: &slices_begun,
                };
                let mut slices = if conn == 0 { slices.take() } else { None };
                let barrier = &barrier;
                scope.spawn(move || {
                    let warmup = generator.buf.tracer.begin("warmup", None, NO_OP);
                    for _ in 0..WARMUP_REQUESTS {
                        generator.request(warmup);
                    }
                    generator.buf.tracer.end(warmup);
                    generator.buf.latency.clear();
                    generator.buf.train_latency.clear();

                    barrier.wait();
                    let origin = now_ns();
                    let warm_ops = generator.counts.cursor;
                    let mut mark = |at_ns: u64, first: bool| {
                        let Some(slices) = slices.as_deref_mut() else {
                            return;
                        };
                        let reading = Mark {
                            wall_ns: at_ns,
                            cpu_ns: process_cpu_ns(),
                            ops: generator.done.load(Ordering::Relaxed),
                        };
                        if first {
                            slices.start(reading);
                        } else if !slices.due(at_ns) || !slices.push(reading) {
                            return;
                        }
                        generator
                            .slices_begun
                            .store(slices.begun(), Ordering::Relaxed);
                    };
                    mark(origin, true);
                    loop {
                        generator.request(None);
                        let now = now_ns();
                        mark(now, false);
                        if stop.reached(now - origin, generator.counts.cursor - warm_ops) {
                            break;
                        }
                    }
                    generator.counts
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });

    // With the servers still up: every worker's parameters must equal an
    // in-process engine that replayed this round's trains in order.
    let mut train_p50_ms = None;
    if spec.workers > 0 {
        let trains = spec.trains_before(counts[0].cursor);
        let mut replay = engine(spec.seed);
        let outcomes = replay.serve(&trains).expect("well-formed trains");
        let losses: Vec<u32> = outcomes
            .iter()
            .map(|o| o.as_response().and_then(|r| r.loss).map_or(0, f32::to_bits))
            .collect();
        let served: Vec<u32> = buf.clients[0]
            .train_losses
            .iter()
            .map(|l| l.to_bits())
            .collect();
        let kept = buf.clients[0].train_losses.capacity();
        if served.len() != losses.len().min(kept) || served[..] != losses[..served.len()] {
            wrong_outputs += 1;
            findings.push(format!(
                "the {} train losses differ from the in-process replay",
                losses.len()
            ));
        }
        let reference = replay.program().store().snapshot();
        for addr in &stack.worker_addrs {
            let snapshot = Client::connect(addr.as_str())
                .and_then(|inspect| inspect.fetch_snapshot(CONTROL_TIMEOUT))
                .unwrap_or_default();
            if snapshot != reference {
                wrong_outputs += 1;
                findings.push(format!(
                    "worker {addr}: parameters differ from the replay of {} trains",
                    trains.len()
                ));
            }
        }
        let mut train_latency = buf.clients[0].train_latency.all().to_vec();
        train_latency.sort_unstable();
        train_p50_ms =
            (!train_latency.is_empty()).then(|| estimator::percentile(&train_latency, 0.5) / 1e6);
    }

    drop(clients);
    let fleet = stack.balancer.map(Balancer::shutdown);
    for server in stack.servers {
        drop(server.shutdown());
    }
    if let Some(stats) = fleet.as_ref().filter(|stats| stats.cancelled > 0) {
        wrong_outputs += stats.cancelled;
        findings.push(format!(
            "the balancer cancelled {} requests",
            stats.cancelled
        ));
    }

    let logs: Vec<&OpLog> = buf.clients.iter().map(|client| &client.latency).collect();
    ServeRound {
        stats: RoundStats {
            setup_s,
            timed: estimator::reduce(&buf.slices.slices(), &logs),
            peak_rss_mb: 0.0,
            attempted: counts.iter().map(|c| c.attempted).sum(),
            failed: counts.iter().map(|c| c.failed).sum(),
        },
        train_p50_ms,
        fleet,
        wrong_outputs,
        findings,
    }
}
