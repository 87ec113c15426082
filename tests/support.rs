//! Shared fixtures and the differential harness of the integration suites.
//!
//! The bit-identity chain — eager ≈ arena over a disjoint plan = arena =
//! `Engine` = queue = TCP = fleet — is held by two functions here, and
//! every parity test calls one of them:
//!
//! * [`assert_chain`] is the training side: one graph trained by eager
//!   runtime autodiff, by the arena executor over the planner's plan, and
//!   by the same executor over [`plan_disjoint`] (no reuse, no aliasing).
//!   Planned and disjoint agree bit for bit; eager within a tolerance.
//! * [`run_everywhere`] is the serving side: one request stream through
//!   every [`Path`], each from an identically seeded [`seeded_engine`],
//!   summarised as a [`Run`] (rejected set, loss bits, final store
//!   snapshot) so that parity is one `assert_eq!` per pair of paths.
//!
//! The model family, request generators, transports and the counting
//! allocator are the single source the engine, queue, network, fleet and
//! zero-alloc suites all build on, so "the same stream" means
//! byte-for-byte the same stream on every transport.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pe_fleet::{Balancer, BalancerConfig};
use pe_net::{Client, Server, ServerConfig};
use pockengine::pe_graph::{
    build_training_graph, Graph, GraphBuilder, NodeId, OpKind, TrainKind, TrainSpec,
};
use pockengine::pe_memplan::{analyze_lifetimes, MemoryPlan};
use pockengine::pe_models::BuiltModel;
use pockengine::pe_passes::{optimize, OptimizeOptions, Schedule};
use pockengine::pe_runtime::{EagerEngine, Executor, Optimizer, ParamStore};
use pockengine::pe_tensor::{Rng, Tensor};
use pockengine::{
    AdmissionPolicy, CompileOptions, Compiler, Engine, EngineConfig, Outcome, Priority, Program,
    QueueConfig, RejectReason, Request, ServingKind, Submit, Ticket,
};

/// The system allocator, counting allocation events and live heap bytes,
/// for the zero-alloc and one-copy suites: each installs one as its
/// `#[global_allocator]` and holds a single `#[test]`, because the counts
/// cover every thread in the process.
pub struct CountingAlloc {
    allocs: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

impl CountingAlloc {
    /// A counter at zero.
    pub const fn new() -> Self {
        CountingAlloc {
            allocs: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Allocations and reallocations so far.
    pub fn count(&self) -> u64 {
        self.allocs.load(Ordering::SeqCst)
    }

    /// Heap bytes allocated and not yet freed.
    pub fn live_bytes(&self) -> u64 {
        self.live.load(Ordering::SeqCst)
    }

    /// The most live heap bytes seen since the last
    /// [`CountingAlloc::reset_peak`] (or since start-up).
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::SeqCst)
    }

    /// Restarts the peak at the current live bytes.
    pub fn reset_peak(&self) {
        self.peak.store(self.live_bytes(), Ordering::SeqCst);
    }

    fn grow(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(&self, bytes: usize) {
        self.live.fetch_sub(bytes as u64, Ordering::Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            self.grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            self.shrink(layout.size());
            self.grow(new_size);
        }
        new
    }
}

/// Trains `exec` on `inputs`: three warm-up steps, then three windows of
/// `steps` steps each. Requires one window to allocate nothing (the counter
/// is process-global, so a harness thread may allocate during a window; an
/// executor allocation would show in every window), no fallback kernel,
/// finite losses and a final loss below the first.
pub fn assert_steady_state_is_clean(
    alloc: &CountingAlloc,
    mut exec: Executor,
    inputs: &HashMap<String, Tensor>,
    steps: usize,
    what: &str,
) {
    let first = exec.train_step(inputs).unwrap().unwrap();
    for _ in 0..2 {
        exec.train_step(inputs).unwrap();
    }
    let mut sink = 0.0f32;
    let counts: Vec<u64> = (0..3)
        .map(|_| {
            let before = alloc.count();
            for _ in 0..steps {
                sink += exec.train_step(inputs).unwrap().unwrap();
            }
            alloc.count() - before
        })
        .collect();
    assert!(sink.is_finite(), "{what}: loss must stay finite");
    assert!(
        counts.contains(&0),
        "{what}: steady-state training steps must perform zero heap allocations \
         (allocations per {steps}-step window: {counts:?})"
    );
    assert_eq!(
        exec.fallback_dispatches(),
        0,
        "{what}: the program must not dispatch any allocating fallback kernel"
    );
    let last = exec.train_step(inputs).unwrap().unwrap();
    assert!(last < first, "{what}: loss must fall: {first} -> {last}");
}

/// Compiles `graph` for the executor through the default pipeline.
pub fn executor(graph: Graph, loss: NodeId, spec: &TrainSpec, optimizer: Optimizer) -> Executor {
    let tg = build_training_graph(graph, loss, spec);
    let (tg, schedule, _) = optimize(tg, OptimizeOptions::default());
    Executor::new(tg, schedule, optimizer)
}

/// Nodes of `exec`'s compiled program whose op satisfies `wanted`.
pub fn count_ops(exec: &Executor, wanted: fn(&OpKind) -> bool) -> usize {
    let nodes = exec.training_graph().graph.nodes();
    nodes.iter().filter(|n| wanted(&n.op)).count()
}

/// One seeded batch: `x_dims` normal features as `x`, labelled with
/// `classes` classes.
pub fn labelled_batch(x_dims: &[usize], classes: usize) -> HashMap<String, Tensor> {
    let mut data_rng = Rng::seed_from_u64(1);
    let xs = Tensor::randn(x_dims.to_vec(), 1.0, &mut data_rng);
    let mut ys = Tensor::zeros([x_dims[0]]);
    for y in ys.data_mut() {
        *y = data_rng.next_usize(classes) as f32;
    }
    HashMap::from([("x".to_string(), xs), ("labels".to_string(), ys)])
}

/// Alignment of every buffer in [`plan_disjoint`]: the executor's own.
const ALIGN_BYTES: usize = 64;

/// A memory plan that reuses nothing: every scheduled buffer owns its own
/// 64-byte-aligned arena range for the whole step, and every alias is
/// `None`, so each node writes fresh memory out of place. An executor over
/// it is the oracle for the planner's reuse and in-place aliasing.
pub fn plan_disjoint(graph: &Graph, schedule: &Schedule) -> MemoryPlan {
    let lifetimes = analyze_lifetimes(graph, schedule);
    let mut offsets = vec![None; graph.len()];
    let mut arena_bytes = 0;
    for (idx, lifetime) in lifetimes.iter().enumerate() {
        if lifetime.is_some() {
            offsets[idx] = Some(arena_bytes);
            let bytes = graph.node(NodeId(idx)).size_bytes();
            arena_bytes += bytes.next_multiple_of(ALIGN_BYTES);
        }
    }
    MemoryPlan {
        aliases: vec![None; graph.len()],
        lifetimes,
        offsets,
        // Every buffer is resident for the whole step.
        peak_transient_bytes: arena_bytes,
        arena_bytes,
    }
}

/// The training side of the bit-identity chain. Trains `graph` under
/// `spec` for `steps` steps on `batches` (cycled) three ways: the arena
/// executor over the planner's plan (the compiler's pipeline: autodiff,
/// optimisation, the reordered schedule), the same executor over
/// [`plan_disjoint`], and eager runtime autodiff. Every loss and every
/// final parameter of the planned run matches the disjoint run bit for bit:
/// reuse, views and in-place writes change where values live, never what
/// they are. Eager derives its own backward graph every step, so it is
/// held to 1e-4 on losses and 1e-3 on parameters, not to the bit.
pub fn assert_chain(
    graph: &Graph,
    loss: NodeId,
    spec: &TrainSpec,
    batches: &[HashMap<String, Tensor>],
    steps: usize,
    optimizer: Optimizer,
) {
    let tg = build_training_graph(graph.clone(), loss, spec);
    let (tg, schedule, _) = optimize(tg, OptimizeOptions::default());
    let tg = Arc::new(tg);
    let mut planned = Executor::new(Arc::clone(&tg), schedule.clone(), optimizer);
    // The oracle: a private store and a plan that reuses nothing, larger
    // than the planned arena so the comparison is not vacuous.
    let plan = plan_disjoint(&tg.graph, &schedule);
    let planned_bytes = planned.memory_report(0, 0).arena_bytes;
    assert!(plan.arena_bytes > planned_bytes, "no reuse to check");
    let store = Arc::new(ParamStore::from_graph(&tg.graph, optimizer));
    let mut disjoint = Executor::with_store_and_plan(Arc::clone(&tg), schedule, store, Some(plan));
    let mut eager = EagerEngine::new(graph.clone(), loss, spec.clone(), optimizer);
    for step in 0..steps {
        let batch = &batches[step % batches.len()];
        let lp = planned.train_step(batch).unwrap().unwrap();
        let ld = disjoint.train_step(batch).unwrap().unwrap();
        let le = eager.run_step(batch).unwrap().loss.unwrap();
        assert_eq!(
            lp.to_bits(),
            ld.to_bits(),
            "step {step}: planned loss {lp} != disjoint loss {ld}"
        );
        assert!((lp - le).abs() < 1e-4, "step {step}: eager {le} vs {lp}");
    }
    for id in tg.graph.param_ids() {
        let name = &tg.graph.node(id).name;
        let value = planned.param(id).unwrap();
        assert_eq!(
            value.data(),
            disjoint.param(id).unwrap().data(),
            "parameter '{name}' differs between the planned and disjoint plans"
        );
        if let Some(eager_value) = eager.param_by_name(name) {
            assert!(
                value.allclose(&eager_value, 1e-3),
                "parameter '{name}' diverged from eager"
            );
        }
    }
    assert_eq!(planned.fallback_dispatches(), 0, "no fallback kernel");
}

/// `(feature, labels)` pairs as step inputs, the feature fed as
/// `feature_name`.
pub fn step_inputs(
    feature_name: &str,
    batches: Vec<(Tensor, Tensor)>,
) -> Vec<HashMap<String, Tensor>> {
    let input = |(x, y)| HashMap::from([(feature_name.to_string(), x), ("labels".to_string(), y)]);
    batches.into_iter().map(input).collect()
}

/// A random MLP of `depth` layers of `width`, its first `frozen_prefix`
/// layers frozen: the graph, its loss and its train spec. Plain, layers
/// alternate ReLU and GELU. `viewed`, every layer exercises every alias
/// kind: a rank-3 linear (the builder's reshapes around its matmul are
/// views), an activation drawn from the five with an in-place VJP over a
/// reshape view of the pre-activation, and at random a residual add that
/// reads the pre-activation after the activation — the clobber case, where
/// the activation must not write over its view.
pub fn random_mlp(
    depth: usize,
    width: usize,
    batch: usize,
    frozen_prefix: usize,
    seed: u64,
    viewed: bool,
) -> (Graph, NodeId, TrainSpec) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let rows = if viewed { batch * 2 } else { batch };
    let mut h = if viewed {
        b.input("x", [batch, 2, width])
    } else {
        b.input("x", [batch, width])
    };
    let labels = b.input("labels", [rows]);
    let mut spec = TrainSpec::new();
    for i in 0..depth {
        let w = b.weight(&format!("fc{i}.weight"), [width, width], &mut rng);
        let bias = b.bias(&format!("fc{i}.bias"), width);
        if i < frozen_prefix {
            spec.insert(w, TrainKind::Frozen);
            spec.insert(bias, TrainKind::Frozen);
        }
        let pre = b.linear(h, w, Some(bias));
        if !viewed {
            h = if i % 2 == 0 { b.relu(pre) } else { b.gelu(pre) };
            continue;
        }
        let view = b.reshape(pre, vec![rows, width]);
        let act = match rng.next_usize(5) {
            0 => b.relu(view),
            1 => b.gelu(view),
            2 => b.silu(view),
            3 => b.sigmoid(view),
            _ => b.tanh(view),
        };
        h = b.reshape(act, vec![batch, 2, width]);
        if rng.next_usize(2) == 0 {
            h = b.add(h, pre);
        }
    }
    let head = b.weight("head.weight", [3, width], &mut rng);
    let flat = if viewed {
        b.reshape(h, vec![rows, width])
    } else {
        h
    };
    let logits = b.linear(flat, head, None);
    let loss = b.cross_entropy(logits, labels);
    (b.finish(vec![loss, logits]), loss, spec)
}

/// Feature width of the shared MLP family.
pub const DIM: usize = 16;
/// Class count of the shared MLP family.
pub const CLASSES: usize = 4;

/// A deterministic two-layer MLP family (the `ModelFactory` contract: same
/// parameters at every batch size).
pub fn mlp(batch: usize) -> BuiltModel {
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
        name: "mlp-async-test".to_string(),
    }
}

/// Compiles the shared MLP family with the given optimizer.
pub fn program(optimizer: Optimizer) -> Program {
    Compiler::new(CompileOptions {
        optimizer,
        ..CompileOptions::default()
    })
    .compile(mlp)
}

/// An engine over the shared family (SGD 0.1) warmed at `warm`.
pub fn engine(warm: Vec<usize>) -> Engine {
    Engine::new(
        program(Optimizer::sgd(0.1)),
        EngineConfig {
            warm_batches: warm,
            ..EngineConfig::default()
        },
    )
}

/// An engine warmed at `[4, 8]` with seeded latency estimates for every
/// rung the suites' streams can dispatch, so `DeadlineFeasible` decisions
/// are deterministic from the first request.
pub fn seeded_engine(admission: AdmissionPolicy) -> Engine {
    let mut engine = Engine::new(
        program(Optimizer::sgd(0.1)),
        EngineConfig {
            warm_batches: vec![4, 8],
            admission,
            ..EngineConfig::default()
        },
    );
    for batch in 1..=8 {
        engine.seed_latency_estimate(batch, Duration::from_micros(100));
    }
    engine
}

/// A linearly-separable request: class signal at feature `c * 3`.
pub fn request(kind: ServingKind, rows: usize, rng: &mut Rng) -> Request {
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
pub fn mixed_stream(n: usize, seed: u64) -> Vec<Request> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let kind = if i % 3 == 0 {
                ServingKind::Train
            } else {
                ServingKind::Eval
            };
            request(kind, [2, 4, 8, 3][i % 4], &mut rng)
        })
        .collect()
}

/// [`mixed_stream`] with priorities and deadlines. Budgets are either
/// absent, zero (always infeasible once an estimate exists) or 500 ms:
/// 5,000× the seeded 100 µs estimate, so admission decisions do not depend
/// on timing noise, yet short enough that a group parked on it flushes
/// promptly on every path (a fleet's train fence waits out its in-flight
/// evals).
pub fn deadline_stream(n: usize, seed: u64) -> Vec<Request> {
    let stream = mixed_stream(n, seed).into_iter().enumerate();
    stream
        .map(|(i, r)| {
            let r = r.priority([Priority::Low, Priority::Normal, Priority::High][i % 3]);
            match i % 7 {
                // Provably infeasible: estimates are seeded > 0.
                2 | 5 => r.deadline(Duration::ZERO),
                3 => r.deadline(Duration::from_millis(500)),
                _ => r,
            }
        })
        .collect()
}

/// Indices and budgets of the rejected outcomes (estimates are
/// timing-dependent EWMA state, so the *set* — position + budget — is the
/// parity contract, not the estimate values).
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

/// A queue of `capacity` whose requests wait at most `default_deadline`
/// for companions.
pub fn queue_config(capacity: usize, default_deadline: Duration) -> QueueConfig {
    QueueConfig {
        capacity,
        default_deadline,
    }
}

/// The default deadline of the harness's queues: short, so groups flush
/// promptly.
pub const FLUSH: Duration = Duration::from_millis(1);

/// A loopback `pe_net` server (a fleet worker, too) over `engine`'s queue.
pub fn serve(engine: Engine, queue: QueueConfig) -> Server {
    let engine = engine.into_async(queue);
    Server::spawn(engine, ServerConfig::default()).expect("bind loopback server")
}

/// A balancer over `workers`, with probes fast enough that mark-downs and
/// reconnects land within a test's patience.
pub fn balancer(workers: &[&Server], capacity: usize) -> Balancer {
    let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    let config = BalancerConfig {
        queue: queue_config(capacity, FLUSH),
        health_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_secs(2),
        connect_timeout: Duration::from_secs(2),
        initial_backoff: Duration::from_millis(50),
        ..BalancerConfig::default()
    };
    Balancer::spawn(&addrs, config).expect("spawn balancer")
}

/// Submits the whole stream in order through any [`Submit`] transport,
/// blocking under backpressure; panics if the transport refuses.
pub fn submit_all<S: Submit>(transport: &S, stream: &[Request]) -> Vec<Ticket> {
    let submit = |r: &Request| transport.submit(r.clone()).expect("transport open");
    stream.iter().map(submit).collect()
}

/// [`submit_all`], then redeems every ticket in order; panics if a request
/// errors.
fn serve_outcomes<S: Submit>(transport: &S, stream: &[Request]) -> Vec<Outcome> {
    let tickets = submit_all(transport, stream).into_iter().enumerate();
    let redeem = |(i, t): (usize, Ticket)| t.wait().unwrap_or_else(|e| panic!("request {i}: {e}"));
    tickets.map(redeem).collect()
}

/// A serving path of the bit-identity chain. Each starts from
/// [`seeded_engine`] under `DeadlineFeasible` admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `Engine::serve`, one call per client stream.
    Sync,
    /// The `AsyncEngine`'s queue, one `Submitter` per client.
    Queue,
    /// A `pe_net::Server` over the engine, one `Client` per client.
    Tcp,
    /// A `pe_fleet::Balancer` over this many in-process workers, one
    /// `Client` per client.
    Fleet(usize),
}

/// A store snapshot's bytes (parameters, optimizer state and counters),
/// printed as its length and FNV-1a hash.
#[derive(PartialEq, Eq)]
pub struct Snapshot(pub Vec<u8>);

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hash = self.0.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        write!(f, "Snapshot({} B, fnv1a {hash:#018x})", self.0.len())
    }
}

/// What one path made of a stream: equal `Run`s are bit-identical serving.
#[derive(Debug, PartialEq)]
pub struct Run {
    /// Position and budget of every rejected request.
    pub rejected: Vec<(usize, Duration)>,
    /// Each request's loss bits, `None` where it was rejected.
    pub losses: Vec<Option<u32>>,
    /// The final snapshot every store of the path holds (a fleet's
    /// followers converge on the primary's by checkpoint broadcast).
    pub store: Snapshot,
}

/// Drives one stream through each of `paths` and summarises each as a
/// [`Run`], in `paths` order.
pub fn run_everywhere(stream: &[Request], paths: &[Path]) -> Vec<Run> {
    run_phases(&[vec![stream.to_vec()]], paths)
}

/// [`run_everywhere`] over phases run one after another; the client
/// streams of a phase run concurrently, one transport each, and a `Run`
/// lists their requests phase by phase, client by client. Concurrent
/// trains interleave nondeterministically on every path, so a phase of
/// more than one client must be eval-only.
///
/// Besides the `Run`, each path asserts its own accounting: every engine
/// counts exactly the admitted requests as served and as cache traffic and
/// the rejected ones as rejections; the queue's batcher accounts every
/// eval group to one flush cause; a fleet routes every train through its
/// primary, broadcasts one checkpoint per completed train, and re-homes or
/// cancels nothing.
pub fn run_phases(phases: &[Vec<Vec<Request>>], paths: &[Path]) -> Vec<Run> {
    paths.iter().map(|&path| run_path(phases, path)).collect()
}

/// One path's [`Run`], after its own accounting checks.
fn run_path(phases: &[Vec<Vec<Request>>], path: Path) -> Run {
    let requests: Vec<&Request> = phases.iter().flatten().flatten().collect();
    let trains = requests.iter().filter(|r| r.kind == ServingKind::Train);
    let trains = trains.count() as u64;
    let engine = || seeded_engine(AdmissionPolicy::DeadlineFeasible);
    // Shorter than the streams, so submissions meet backpressure.
    let capacity = 8;
    let (outcomes, engines) = match path {
        Path::Sync => {
            let mut sync = engine();
            let streams = phases.iter().flatten();
            let outcomes = streams.flat_map(|s| sync.serve(s).expect("sync serve"));
            (outcomes.collect(), vec![sync])
        }
        Path::Queue => {
            let queue = engine().into_async(queue_config(capacity, FLUSH));
            let outcomes = drive(phases, || queue.submitter());
            let (drained, s) = queue.shutdown_with_stats();
            let flushes = s.target_flushes + s.deadline_flushes + s.barrier_flushes;
            let rejected = rejected_set(&outcomes).len() as u64;
            assert_eq!(
                (flushes, s.train_dispatches, s.admission_rejections),
                (s.eval_groups, completed_trains(&outcomes), rejected),
                "Queue: one flush cause per eval group, every train and rejection counted: {s:?}"
            );
            (outcomes, vec![drained])
        }
        Path::Tcp => {
            let server = serve(engine(), queue_config(capacity, FLUSH));
            let outcomes = drive(phases, || Client::connect(server.local_addr()).unwrap());
            (outcomes, vec![server.shutdown()])
        }
        Path::Fleet(n) => {
            let workers: Vec<Server> = (0..n)
                .map(|_| serve(engine(), queue_config(capacity, FLUSH)))
                .collect();
            let fleet = balancer(&workers.iter().collect::<Vec<_>>(), capacity);
            let outcomes = drive(phases, || Client::connect(fleet.local_addr()).unwrap());
            let s = fleet.shutdown();
            assert_eq!(
                (
                    s.trains_routed,
                    s.checkpoints_broadcast,
                    s.redispatches,
                    s.cancelled
                ),
                (trains, completed_trains(&outcomes), 0, 0),
                "{path:?}: trains through the primary, one broadcast per completed train, \
                 nothing re-homed or lost: {s:?}"
            );
            let routed = s.evals_routed + s.trains_routed;
            assert_eq!(
                (routed, s.workers_up()),
                (requests.len() as u64, n),
                "{path:?}"
            );
            (
                outcomes,
                workers.into_iter().map(Server::shutdown).collect(),
            )
        }
    };
    assert_eq!(outcomes.len(), requests.len(), "{path:?}");
    let losses = outcomes
        .iter()
        .zip(&requests)
        .enumerate()
        .map(|(i, (o, r))| match o {
            Outcome::Completed(response) => {
                assert_eq!(response.rows, r.rows(), "{path:?}: request {i} rows");
                Some(response.loss.expect("classification loss").to_bits())
            }
            Outcome::Rejected(_) => None,
            Outcome::Cancelled => panic!("{path:?}: request {i} was cancelled"),
        });
    let losses: Vec<Option<u32>> = losses.collect();
    let rejected = rejected_set(&outcomes);
    // Served, rejected and cache-attributed requests over every engine.
    let counts = engines.iter().fold((0, 0, 0), |(served, rej, cache), e| {
        let stats = e.cache_stats();
        let m = e.metrics();
        (
            served + m.requests,
            rej + m.rejected,
            cache + stats.request_hits + stats.request_misses,
        )
    });
    let admitted = losses.iter().flatten().count() as u64;
    let want = (admitted, rejected.len() as u64, admitted);
    assert_eq!(counts, want, "{path:?}: served, rejected, cache accounting");
    let mut stores = engines.iter().map(|e| e.program().store().snapshot());
    let store = stores.next().expect("a store");
    for (i, other) in stores.enumerate() {
        let worker = i + 1;
        assert!(
            other == store,
            "{path:?}: worker {worker}'s store diverged from the primary's"
        );
    }
    Run {
        rejected,
        losses,
        store: Snapshot(store),
    }
}

/// How many of `outcomes` are completed trains.
fn completed_trains(outcomes: &[Outcome]) -> u64 {
    let responses = outcomes.iter().filter_map(Outcome::as_response);
    responses.filter(|r| r.kind == ServingKind::Train).count() as u64
}

/// Sends each phase's client streams concurrently, one `connect()`ed
/// transport per client, and returns the outcomes in `Run` order.
fn drive<S: Submit>(phases: &[Vec<Vec<Request>>], connect: impl Fn() -> S + Sync) -> Vec<Outcome> {
    let connect = &connect;
    let phase = |clients: &Vec<Vec<Request>>| {
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter()
                .map(|stream| s.spawn(move || serve_outcomes(&connect(), stream)))
                .collect();
            let outcomes = handles
                .into_iter()
                .map(|h| h.join().expect("client panicked"));
            outcomes.flatten().collect::<Vec<_>>()
        })
    };
    phases.iter().flat_map(phase).collect()
}

/// Asserts every run equals the first, naming both paths.
pub fn assert_runs_agree(paths: &[Path], runs: &[Run]) {
    for (path, run) in paths.iter().zip(runs) {
        assert_eq!(run, &runs[0], "{path:?} diverged from {:?}", paths[0]);
    }
}
