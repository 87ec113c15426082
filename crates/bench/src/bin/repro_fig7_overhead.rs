//! Reproduces Figure 7: compile-time versus runtime auto-differentiation.
//! Measures (on this host, with identical kernels) the median per-step cost
//! of the compiled engine against an eager engine that re-derives the
//! backward graph every iteration.

use pe_bench::overhead::measure_autodiff_overhead;

fn main() {
    let steps = 10;
    let report = measure_autodiff_overhead(steps);
    println!(
        "Figure 7: runtime vs compile-time autodiff, measured on this host (tiny MobileNetV2, median of {steps} steps)\n"
    );
    println!(
        "one-time compilation:        {:>10.1} us",
        report.compile_us
    );
    println!(
        "compiled engine per step:    {:>10.1} us",
        report.compiled_step_us
    );
    println!(
        "eager (runtime AD) per step: {:>10.1} us",
        report.eager_step_us
    );
    println!("per-step speedup:            {:>10.2}x", report.speedup());
    println!(
        "compilation amortised after: {:>10.1} steps",
        report.break_even_steps()
    );
}
