//! Shared fixtures and generic drivers for the integration suites.
//!
//! The model family, request generators and engine constructors here are
//! the single source the queue, routing and network suites all build on,
//! so "the same stream" means byte-for-byte the same stream on every
//! transport. The submission drivers are generic over
//! [`pockengine::Submit`]: one driver produces both the in-process
//! baseline (via [`pockengine::AsyncEngine`] / [`pockengine::Submitter`])
//! and the networked run (via `pe_net::Client`), which is what makes the
//! wire protocol's bit-identity claims checkable.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use pockengine::pe_graph::GraphBuilder;
use pockengine::pe_models::BuiltModel;
use pockengine::pe_runtime::{ExecError, ExecutorConfig, Optimizer};
use pockengine::pe_tensor::{Rng, Tensor};
use pockengine::{
    AdmissionPolicy, BackendHint, BackendRoute, CompileOptions, Compiler, Engine, EngineConfig,
    Outcome, Priority, Program, RejectReason, Request, ServingKind, Submit, SubmitHandle,
};

/// The system allocator, counting allocation events, for the zero-alloc
/// suites: each installs one as its `#[global_allocator]` and holds a single
/// `#[test]`, because the count covers every thread in the process.
pub struct CountingAlloc {
    allocs: AtomicU64,
}

impl CountingAlloc {
    /// A counter at zero.
    pub const fn new() -> Self {
        CountingAlloc {
            allocs: AtomicU64::new(0),
        }
    }

    /// Allocations and reallocations so far.
    pub fn count(&self) -> u64 {
        self.allocs.load(Ordering::SeqCst)
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every call forwards to `System` unchanged; the counter is atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
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

/// Compiles the shared MLP family with the given optimizer and executor.
pub fn program(optimizer: Optimizer, executor: ExecutorConfig) -> Program {
    Compiler::new(CompileOptions {
        optimizer,
        executor,
        ..CompileOptions::default()
    })
    .compile(mlp)
}

/// A single-backend engine over the shared family (SGD 0.1).
pub fn engine(executor: ExecutorConfig, warm: Vec<usize>) -> Engine {
    Engine::new(
        program(Optimizer::sgd(0.1), executor),
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
pub fn routed_engine(admission: AdmissionPolicy) -> Engine {
    let default = ExecutorConfig::arena();
    let alternate = ExecutorConfig::boxed();
    let mut engine = Engine::new(
        program(Optimizer::sgd(0.1), default),
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

/// Mixed stream with deadlines, priorities and backend hints. Budgets are
/// either absent, far above any realistic dispatch latency (always
/// feasible), or zero (always infeasible once an estimate exists), so
/// admission decisions do not depend on timing noise.
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
            let mut r = request(kind, rows, &mut rng)
                .priority([Priority::Low, Priority::Normal, Priority::High][i % 3]);
            r = match i % 5 {
                0 => r.backend(BackendHint::Boxed),
                1 => r.backend(BackendHint::Arena),
                _ => r,
            };
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
pub fn submit_stream<S: Submit>(transport: &S, stream: &[Request]) -> Vec<S::Handle> {
    stream
        .iter()
        .map(|r| {
            transport
                .submit(r.clone())
                .unwrap_or_else(|e| panic!("transport refused a submission: {e:?}"))
        })
        .collect()
}

/// Redeems handles in submission order into their raw results.
pub fn redeem<H: SubmitHandle>(handles: Vec<H>) -> Vec<Result<Outcome, ExecError>> {
    handles.into_iter().map(|h| h.wait()).collect()
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
