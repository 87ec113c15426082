//! Training-step benchmark: writes `BENCH_training_step.json` (path
//! overridable as the first CLI argument) with per-variant latency and
//! allocations per step.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pe_bench::report::write_report;
use pe_bench::stepbench::measure_training_steps;

/// Counts allocation events so the report can include allocs/step.
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

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_training_step.json".to_string());
    let result = measure_training_steps(20, 5, true, &|| ALLOC.0.load(Ordering::SeqCst));
    println!(
        "training step ({} steps per window, best of {} windows):",
        result.steps, result.trials
    );
    for v in &result.variants {
        println!(
            "  {:>28}: {:>10.1} us/step  {:>8.1} allocs/step",
            v.name,
            v.micros_per_step,
            v.allocs_per_step.unwrap_or(f64::NAN)
        );
    }
    println!(
        "launches/step: {} ({} fallback dispatches)",
        result.launch_count, result.fallback_dispatches
    );
    write_report(&path, &result.to_json()).expect("failed to write report");
    println!("wrote {path}");
}
