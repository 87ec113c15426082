//! Figure 7: compile-time versus runtime auto-differentiation overhead.
//!
//! Conventional frameworks re-derive the backward graph (and re-plan the
//! step) every iteration at runtime; PockEngine does that work once at
//! compile time and only walks a fixed schedule afterwards. This module
//! measures both on the host CPU using the same kernels, so the measured gap
//! is purely the runtime-bookkeeping overhead the paper's Figure 7
//! illustrates.

use pockengine::pe_models::{build_mobilenet, MobileNetV2Config};
use pockengine::pe_runtime::Optimizer;
use pockengine::pe_sparse::UpdateRule;
use pockengine::pe_tensor::Rng;

use crate::speed::{measure_steps, timing, Setup};

/// Timings of the compiled engine versus the eager (runtime-autodiff)
/// baseline over the same steps and kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadReport {
    /// One-time compilation cost of the compiled engine (µs): analysis and
    /// executor construction.
    pub compile_us: f64,
    /// Median per-step wall time of the compiled engine (µs).
    pub compiled_step_us: f64,
    /// Median per-step wall time of the eager baseline (µs), which re-derives
    /// the backward graph every step.
    pub eager_step_us: f64,
    /// Steps measured.
    pub(crate) steps: usize,
}

impl OverheadReport {
    /// Per-step speedup of the compiled engine over the eager baseline.
    pub fn speedup(&self) -> f64 {
        self.eager_step_us / self.compiled_step_us
    }

    /// Number of steps after which the one-time compilation cost is repaid.
    pub fn break_even_steps(&self) -> f64 {
        let saved = self.eager_step_us - self.compiled_step_us;
        if saved <= 0.0 {
            f64::INFINITY
        } else {
            self.compile_us / saved
        }
    }
}

/// Measures compiled versus eager per-step cost on a tiny MobileNetV2
/// workload, as the median of `steps` interleaved steps each.
pub fn measure_autodiff_overhead(steps: usize) -> OverheadReport {
    let model = build_mobilenet(&MobileNetV2Config::tiny(4, 3), &mut Rng::seed_from_u64(0));
    let timings = measure_steps(
        &model,
        &[
            ("compiled", Setup::compiled(UpdateRule::Full)),
            ("eager", Setup::Eager(UpdateRule::Full)),
        ],
        Optimizer::sgd(0.01),
        steps,
    );
    let compiled = timing(&timings, "compiled");
    OverheadReport {
        compile_us: compiled.setup_us,
        compiled_step_us: compiled.step_us,
        eager_step_us: timing(&timings, "eager").step_us,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_report_is_well_formed() {
        // Wall-clock comparisons are unreliable under the parallel test
        // runner; the strict compiled-vs-eager comparison is produced by the
        // `repro_fig7_overhead` binary, which runs standalone. Here we only
        // check that both paths execute and report sane numbers.
        let report = measure_autodiff_overhead(2);
        assert!(report.compile_us > 0.0);
        assert!(report.compiled_step_us > 0.0);
        assert!(report.eager_step_us > 0.0);
        assert_eq!(report.steps, 2);
        assert!(report.speedup() > 0.0);
    }
}
