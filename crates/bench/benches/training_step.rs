//! Criterion benchmarks of one end-to-end training step on the host CPU:
//! compiled engine (full and sparse BP) versus the eager runtime-autodiff
//! baseline, on a tiny MobileNetV2 workload. This is the measured analogue of
//! Figure 7 / Figure 9's framework comparison, executed with real kernels.
//!
//! On top of the framework comparison, the `step_arena` / `step_boxed`
//! benches compare the two executor backends (arena slab vs per-node boxed
//! buffers), and the final `allocation_counts` target reports heap
//! allocations per training step via a counting global allocator —
//! reproducing the zero-allocation claim:
//!
//! ```text
//! cargo bench -p pe_bench --bench training_step
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};
use pockengine::pe_data::{generate_vision_task, VisionTaskConfig};
use pockengine::pe_models::{build_mobilenet, MobileNetV2Config};
use pockengine::pe_runtime::{EagerEngine, Executor, Optimizer};
use pockengine::pe_sparse::{apply_rule, UpdateRule};
use pockengine::pe_tensor::{Rng, Tensor};
use pockengine::{compile, CompileOptions};

/// Counts allocation events so the bench can report allocations per step.
struct CountingAlloc(AtomicU64);

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc(AtomicU64::new(0));

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.0.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.0.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

fn inputs() -> HashMap<String, Tensor> {
    let mut rng = Rng::seed_from_u64(1);
    let task = generate_vision_task(
        "bench",
        VisionTaskConfig {
            num_classes: 3,
            resolution: 16,
            batch: 4,
            train_batches: 1,
            test_batches: 1,
            noise: 0.5,
            signal: 1.0,
        },
        &mut rng,
    );
    let (x, y) = &task.train[0];
    HashMap::from([
        ("x".to_string(), x.clone()),
        ("labels".to_string(), y.clone()),
    ])
}

fn bench_training_step(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(0);
    let cfg = MobileNetV2Config::tiny(4, 3);
    let model = build_mobilenet(&cfg, &mut rng);
    let data = inputs();

    let program = compile(
        &model,
        &CompileOptions {
            optimizer: Optimizer::sgd(0.01),
            ..CompileOptions::default()
        },
    );
    let mut exec_full = program.executor;
    c.bench_function("step_compiled_full_bp", |b| {
        b.iter(|| std::hint::black_box(exec_full.run_step(&data).unwrap()))
    });

    let program = compile(
        &model,
        &CompileOptions {
            update_rule: UpdateRule::BiasOnly,
            optimizer: Optimizer::sgd(0.01),
            ..CompileOptions::default()
        },
    );
    let mut exec_bias = program.executor;
    c.bench_function("step_compiled_bias_only", |b| {
        b.iter(|| std::hint::black_box(exec_bias.run_step(&data).unwrap()))
    });

    let spec = apply_rule(&model, &UpdateRule::Full);
    let mut eager = EagerEngine::new(model.graph.clone(), model.loss, spec, Optimizer::sgd(0.01));
    c.bench_function("step_eager_runtime_autodiff", |b| {
        b.iter(|| std::hint::black_box(eager.run_step(&data).unwrap()))
    });
}

/// Builds one executor per backend over the same compiled program.
fn backends() -> Vec<(&'static str, Executor)> {
    let mut rng = Rng::seed_from_u64(0);
    let cfg = MobileNetV2Config::tiny(4, 3);
    let model = build_mobilenet(&cfg, &mut rng);
    let program = compile(
        &model,
        &CompileOptions {
            optimizer: Optimizer::sgd(0.01),
            ..CompileOptions::default()
        },
    );
    let analysis = program.analysis;
    let make = |build: fn(_, _, _) -> Executor| {
        build(
            analysis.training_graph.clone(),
            analysis.schedule.clone(),
            Optimizer::sgd(0.01),
        )
    };
    vec![
        ("boxed", make(Executor::boxed)),
        ("arena", make(Executor::arena)),
    ]
}

/// Arena executor versus the boxed baseline on the same compiled program:
/// the per-step latency comparison between the two backends.
fn bench_executor_backends(c: &mut Criterion) {
    let data = inputs();
    for (name, mut exec) in backends() {
        c.bench_function(&format!("step_{name}"), |b| {
            b.iter(|| std::hint::black_box(exec.train_step(&data).unwrap()))
        });
    }
}

/// Reports heap allocations per training step for every backend (not a
/// timing bench — printed alongside the Criterion output).
fn report_allocation_counts(_c: &mut Criterion) {
    let data = inputs();
    println!("\nheap allocations per training step (10-step steady state):");
    for (name, mut exec) in backends() {
        for _ in 0..3 {
            exec.train_step(&data).unwrap();
        }
        let before = ALLOC.0.load(Ordering::SeqCst);
        for _ in 0..10 {
            std::hint::black_box(exec.train_step(&data).unwrap());
        }
        let per_step = (ALLOC.0.load(Ordering::SeqCst) - before) as f64 / 10.0;
        println!(
            "  {name:>15}: {per_step:>8.1} allocs/step  (fallback kernel dispatches so far: {})",
            exec.fallback_dispatches()
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_training_step, bench_executor_backends, report_allocation_counts
}
criterion_main!(benches);
