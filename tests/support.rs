//! Shared fixtures and generic drivers for the integration suites.
//!
//! The model family, request generators and engine constructors here are
//! the single source the engine, queue, network and fleet suites all build
//! on, so "the same stream" means byte-for-byte the same stream on every
//! transport. The submission drivers are generic over
//! [`pockengine::Submit`]: one driver produces both the in-process
//! baseline (via [`pockengine::AsyncEngine`] / [`pockengine::Submitter`])
//! and the networked run (via `pe_net::Client`), which is what makes the
//! wire protocol's bit-identity claims checkable.
//!
//! [`plan_disjoint`] and [`disjoint_executor`] are the executor's
//! differential oracle: the same executor over a memory plan that reuses
//! nothing and aliases nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pockengine::pe_graph::{Graph, GraphBuilder, NodeId, TrainingGraph};
use pockengine::pe_memplan::{analyze_lifetimes, plan_memory, MemoryPlan};
use pockengine::pe_models::BuiltModel;
use pockengine::pe_passes::Schedule;
use pockengine::pe_runtime::{ExecError, Executor, Optimizer, ParamStore};
use pockengine::pe_tensor::{Rng, Tensor};
use pockengine::{
    AdmissionPolicy, CompileOptions, Compiler, Engine, EngineConfig, Outcome, Priority, Program,
    RejectReason, Request, ServingKind, Submit, Ticket,
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

/// An executor with a private store over [`plan_disjoint`]: the oracle an
/// executor over the planner's own plan must match bit for bit. Asserts the
/// disjoint plan is larger than the planned arena, so the comparison is not
/// vacuous.
pub fn disjoint_executor(
    tg: impl Into<Arc<TrainingGraph>>,
    schedule: Schedule,
    optimizer: Optimizer,
) -> Executor {
    let tg: Arc<TrainingGraph> = tg.into();
    let disjoint = plan_disjoint(&tg.graph, &schedule);
    let planned = plan_memory(&tg.graph, &schedule);
    assert!(
        disjoint.arena_bytes > planned.arena_bytes,
        "the disjoint plan ({} B) must exceed the planned arena ({} B)",
        disjoint.arena_bytes,
        planned.arena_bytes
    );
    let store = Arc::new(ParamStore::from_graph(&tg.graph, optimizer));
    Executor::with_store_and_plan(tg, schedule, store, Some(disjoint))
}

/// Trains an executor over the planner's plan and [`disjoint_executor`]
/// side by side for `steps` steps on `batches` (cycled), asserting every
/// loss and, at the end, every parameter bit-identical: reuse, views and
/// in-place writes change where values live, never what they are.
pub fn assert_planned_matches_disjoint(
    tg: Arc<TrainingGraph>,
    schedule: Schedule,
    optimizer: Optimizer,
    batches: &[HashMap<String, Tensor>],
    steps: usize,
) {
    let mut planned = Executor::new(Arc::clone(&tg), schedule.clone(), optimizer);
    let mut disjoint = disjoint_executor(Arc::clone(&tg), schedule, optimizer);
    for step in 0..steps {
        let batch = &batches[step % batches.len()];
        let lp = planned.train_step(batch).unwrap().unwrap();
        let ld = disjoint.train_step(batch).unwrap().unwrap();
        assert_eq!(
            lp.to_bits(),
            ld.to_bits(),
            "step {step}: planned loss {lp} != disjoint loss {ld}"
        );
    }
    for id in tg.graph.param_ids() {
        assert_eq!(
            planned.param(id).unwrap().data(),
            disjoint.param(id).unwrap().data(),
            "parameter '{}' differs between the planned and disjoint plans",
            tg.graph.node(id).name
        );
    }
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
            let rows = [2, 4, 8, 3][i % 4];
            request(kind, rows, &mut rng)
        })
        .collect()
}

/// Mixed stream with deadlines and priorities. Budgets are either absent,
/// far above any realistic dispatch latency (always feasible), or zero
/// (always infeasible once an estimate exists), so admission decisions do
/// not depend on timing noise.
pub fn deadline_stream(n: usize, seed: u64) -> Vec<Request> {
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
                // Trivially feasible.
                3 => r.deadline(Duration::from_secs(3600)),
                // No deadline: always admitted.
                _ => r,
            }
        })
        .collect()
}

/// Indices and budgets of the rejected outcomes (estimates are
/// timing-dependent EWMA state, so the *set* — position + budget — is the
/// parity contract, not the estimate values).
pub fn rejected_set(outcomes: &[Outcome]) -> Vec<(usize, Duration)> {
    outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| {
            o.rejection()
                .map(|RejectReason::DeadlineInfeasible { budget, .. }| (i, *budget))
        })
        .collect()
}

/// Submits the whole stream in order through any [`Submit`] transport,
/// blocking under backpressure; panics if the transport refuses.
pub fn submit_stream<S: Submit>(transport: &S, stream: &[Request]) -> Vec<Ticket> {
    stream
        .iter()
        .map(|r| {
            transport
                .submit(r.clone())
                .unwrap_or_else(|e| panic!("transport refused a submission: {e:?}"))
        })
        .collect()
}

/// Redeems tickets in submission order into their raw results.
pub fn redeem(tickets: Vec<Ticket>) -> Vec<Result<Outcome, ExecError>> {
    tickets.into_iter().map(Ticket::wait).collect()
}

/// Submits a stream and redeems the outcomes in submission order,
/// panicking on executor errors (admission rejections pass through).
pub fn serve_outcomes<S: Submit>(transport: &S, stream: &[Request]) -> Vec<Outcome> {
    redeem(submit_stream(transport, stream))
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|e| panic!("request {i} errored: {e}")))
        .collect()
}

/// Submits a stream, requires every request to complete, and returns the
/// per-request loss bit patterns — the currency of every bit-identity
/// assertion. Also checks row counts survive the round trip.
pub fn served_loss_bits<S: Submit>(transport: &S, stream: &[Request]) -> Vec<u32> {
    serve_outcomes(transport, stream)
        .into_iter()
        .enumerate()
        .map(|(i, outcome)| {
            let response = outcome.expect_completed("request must be served");
            assert_eq!(response.rows, stream[i].rows(), "request {i} row count");
            response.loss.expect("classification loss").to_bits()
        })
        .collect()
}

/// Asserts two drained engines hold bit-identical parameters.
pub fn assert_params_identical(a: &Engine, b: &Engine) {
    for key in a.program().store().keys().to_vec() {
        let left = a.program().store().get(&key).unwrap();
        let right = b.program().store().get(&key).unwrap();
        assert_eq!(
            left.data(),
            right.data(),
            "parameter '{key}' diverged between serving paths"
        );
    }
}
