//! Counting-allocator proof of the arena executor's zero-allocation claim:
//! after warm-up, a steady-state training step through `train_step` touches
//! the heap exactly zero times and dispatches no allocating fallback kernel
//! — every transient lives at a planner-assigned offset of the
//! preallocated slab, parameters and optimizer state persist, and step
//! inputs are staged into preallocated buffers. This file covers an MLP
//! (bias adds, ReLU/GELU, cross-entropy) under Momentum, so optimizer state
//! is preallocated too; with `zero_alloc_cnn.rs` and
//! `zero_alloc_encoder.rs` the guarantee holds per op kind rather than per
//! model. All three share `support::assert_steady_state_is_clean`.
//!
//! Each of the three binaries holds a single `#[test]`: the global
//! allocator counts every thread in the process, so concurrent tests in the
//! same binary would pollute the measurement.

use pe_tests::support::{assert_steady_state_is_clean, executor, labelled_batch, CountingAlloc};
use pockengine::pe_graph::{GraphBuilder, TrainSpec};
use pockengine::pe_runtime::Optimizer;
use pockengine::pe_tensor::Rng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn steady_state_training_step_performs_zero_heap_allocations() {
    // An MLP whose every op has an allocation-free `_into` kernel.
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
    let momentum = Optimizer::Momentum {
        lr: 0.05,
        momentum: 0.9,
    };
    let exec = executor(graph, loss, &TrainSpec::new(), momentum);
    assert_steady_state_is_clean(&ALLOC, exec, &labelled_batch(&[8, 16], 4), 10, "MLP");
}
