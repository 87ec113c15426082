//! Counting-allocator proof of the arena executor's zero-allocation claim:
//! after warm-up, a steady-state training step through `train_step` touches
//! the heap exactly zero times — every transient lives at a planner-assigned
//! offset of the preallocated slab, parameters/optimizer state persist, and
//! step inputs are staged into preallocated buffers.
//!
//! This file intentionally holds a single `#[test]`: the global allocator
//! counts every thread in the process, so concurrent tests in the same
//! binary would pollute the measurement.

use std::collections::HashMap;

use pe_tests::support::CountingAlloc;
use pockengine::pe_graph::{build_training_graph, GraphBuilder, TrainSpec};
use pockengine::pe_passes::{optimize, OptimizeOptions};
use pockengine::pe_runtime::{Executor, Optimizer};
use pockengine::pe_tensor::{Rng, Tensor};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn steady_state_training_step_performs_zero_heap_allocations() {
    // An MLP with bias fusion, ReLU/GELU activations and cross-entropy:
    // every op it compiles to has an allocation-free `_into` kernel.
    let mut rng = Rng::seed_from_u64(0);
    let mut b = GraphBuilder::new();
    let x = b.input("x", [8, 16]);
    let labels = b.input("labels", [8]);
    let mut h = x;
    for i in 0..3 {
        let w = b.weight(&format!("fc{i}.weight"), [16, 16], &mut rng);
        let bias = b.bias(&format!("fc{i}.bias"), 16);
        h = b.linear(h, w, Some(bias));
        h = if i % 2 == 0 { b.relu(h) } else { b.gelu(h) };
    }
    let head = b.weight("head.weight", [4, 16], &mut rng);
    let logits = b.linear(h, head, None);
    let loss = b.cross_entropy(logits, labels);
    let graph = b.finish(vec![loss, logits]);
    let tg = build_training_graph(graph, loss, &TrainSpec::new());
    let (tg, schedule, _) = optimize(tg, OptimizeOptions::default());

    // Momentum exercises preallocated optimizer state as well.
    let mut exec = Executor::arena(
        tg,
        schedule,
        Optimizer::Momentum {
            lr: 0.05,
            momentum: 0.9,
        },
    );
    assert_eq!(exec.backend_name(), "arena");

    let mut data_rng = Rng::seed_from_u64(1);
    let xs = Tensor::randn([8, 16], 1.0, &mut data_rng);
    let mut ys = Tensor::zeros([8]);
    for i in 0..8 {
        ys.data_mut()[i] = data_rng.next_usize(4) as f32;
    }
    let inputs = HashMap::from([("x".to_string(), xs), ("labels".to_string(), ys)]);

    // Warm up (first steps may lazily touch thread-local machinery).
    let mut losses = Vec::with_capacity(16);
    for _ in 0..3 {
        losses.push(exec.train_step(&inputs).unwrap().unwrap());
    }

    // The counter is process-global, so unrelated runtime threads (e.g. the
    // libtest harness) can sporadically allocate during a window. Executor
    // allocations, by contrast, are deterministic: they would show up in
    // *every* window. Measure a few windows and require one to be clean.
    let steps = 10;
    let windows = 3;
    let mut sink = 0.0f32;
    let mut counts = Vec::with_capacity(windows);
    for _ in 0..windows {
        let before = ALLOC.count();
        for _ in 0..steps {
            sink += exec.train_step(&inputs).unwrap().unwrap();
        }
        counts.push(ALLOC.count() - before);
    }

    assert!(sink.is_finite(), "loss must stay finite");
    assert!(
        counts.contains(&0),
        "steady-state training steps must perform zero heap allocations \
         (allocations per {steps}-step window: {counts:?})"
    );
    assert_eq!(
        exec.fallback_dispatches(),
        0,
        "the MLP program must not dispatch any allocating fallback kernel"
    );

    // The steps above actually trained: loss keeps decreasing.
    let final_loss = exec.train_step(&inputs).unwrap().unwrap();
    assert!(
        final_loss < losses[0],
        "loss should decrease: {} -> {final_loss}",
        losses[0]
    );
}
