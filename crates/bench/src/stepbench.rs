//! Machine-readable training-step benchmark (the JSON companion to the
//! Criterion `training_step` bench).
//!
//! Run via the `bench_training_step` binary, which writes
//! `BENCH_training_step.json`:
//!
//! ```text
//! cargo run --release -p pe_bench --bin bench_training_step
//! ```

use std::collections::HashMap;
use std::time::Instant;

use pockengine::pe_data::{generate_vision_task, VisionTaskConfig};
use pockengine::pe_models::{build_mobilenet, MobileNetV2Config};
use pockengine::pe_passes::launch_count;
use pockengine::pe_runtime::{EagerEngine, Optimizer};
use pockengine::pe_sparse::{apply_rule, UpdateRule};
use pockengine::pe_tensor::{Rng, Tensor};
use pockengine::{compile, CompileOptions};

use crate::report::Json;

/// One measured executor variant.
#[derive(Debug, Clone)]
pub struct StepVariant {
    /// Variant label (`"step_arena"`, `"step_eager_runtime_autodiff"`, ...).
    pub name: String,
    /// Mean wall-clock per training step, microseconds.
    pub micros_per_step: f64,
    /// Heap allocations per step over the measured window, if the caller
    /// provided an allocation counter (the binary installs one; library
    /// tests do not).
    pub allocs_per_step: Option<f64>,
}

/// Result of [`measure_training_steps`].
#[derive(Debug, Clone)]
pub struct TrainingStepBenchResult {
    /// Steps measured per window (after warmup).
    pub steps: usize,
    /// Measurement windows per variant (the best is reported).
    pub trials: usize,
    /// Measured variants.
    pub variants: Vec<StepVariant>,
    /// Kernel launches per step of the full-backpropagation program.
    pub launch_count: usize,
    /// Allocating fallback dispatches observed over the whole arena
    /// measurement — the executor invariant says this must be 0.
    pub fallback_dispatches: u64,
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

/// Measures the per-step latency (and optionally allocations) of the
/// compiled executor, the bias-only sparse variant, and the eager
/// runtime-autodiff baseline on a tiny MobileNetV2 workload.
///
/// Each variant is measured over `trials` independent windows of `steps`
/// steps; the **minimum** per-window mean is reported for both time and
/// allocations. The minimum is the right estimator for a gated baseline:
/// scheduler interference and allocator noise only ever *add* to a window,
/// and a real regression (slower kernels, a new per-step allocation) shows
/// up in every window including the best one. Single-window means on a busy
/// CI runner swing far beyond the regression gate's tolerance band.
///
/// `alloc_count` samples the process-wide allocation counter; pass a
/// constant closure when no counting allocator is installed.
pub fn measure_training_steps(
    steps: usize,
    trials: usize,
    count_allocs: bool,
    alloc_count: &dyn Fn() -> u64,
) -> TrainingStepBenchResult {
    assert!(steps > 0 && trials > 0, "steps and trials must be positive");
    let mut rng = Rng::seed_from_u64(0);
    let model = build_mobilenet(&MobileNetV2Config::tiny(4, 3), &mut rng);
    let data = inputs();
    let options = |rule: UpdateRule| CompileOptions {
        update_rule: rule,
        optimizer: Optimizer::sgd(0.01),
        ..CompileOptions::default()
    };

    let mut variants = Vec::new();
    let mut measure = |name: &str, f: &mut dyn FnMut()| {
        for _ in 0..3 {
            f(); // warmup
        }
        let mut best_micros = f64::INFINITY;
        let mut best_allocs = f64::INFINITY;
        for _ in 0..trials {
            let allocs_before = alloc_count();
            let start = Instant::now();
            for _ in 0..steps {
                f();
            }
            let micros = start.elapsed().as_secs_f64() * 1e6 / steps as f64;
            let allocs = (alloc_count() - allocs_before) as f64 / steps as f64;
            best_micros = best_micros.min(micros);
            best_allocs = best_allocs.min(allocs);
        }
        variants.push(StepVariant {
            name: name.to_string(),
            micros_per_step: best_micros,
            allocs_per_step: count_allocs.then_some(best_allocs),
        });
    };

    let mut full = compile(&model, &options(UpdateRule::Full)).executor;
    measure("step_arena", &mut || {
        std::hint::black_box(full.train_step(&data).unwrap());
    });
    let launch_count = launch_count(&full.training_graph().graph);
    let fallback_dispatches = full.fallback_dispatches();

    let mut bias = compile(&model, &options(UpdateRule::BiasOnly)).executor;
    measure("step_bias_only", &mut || {
        std::hint::black_box(bias.train_step(&data).unwrap());
    });

    let spec = apply_rule(&model, &UpdateRule::Full);
    let mut eager = EagerEngine::new(model.graph.clone(), model.loss, spec, Optimizer::sgd(0.01));
    measure("step_eager_runtime_autodiff", &mut || {
        std::hint::black_box(eager.run_step(&data).unwrap());
    });

    TrainingStepBenchResult {
        steps,
        trials,
        variants,
        launch_count,
        fallback_dispatches,
    }
}

impl TrainingStepBenchResult {
    /// The JSON representation written to `BENCH_training_step.json`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("bench", Json::Str("training_step".into())),
            ("steps", Json::Int(self.steps as u64)),
            ("trials", Json::Int(self.trials as u64)),
            ("launch_count", Json::Int(self.launch_count as u64)),
            ("fallback_dispatches", Json::Int(self.fallback_dispatches)),
            (
                "variants",
                Json::Arr(
                    self.variants
                        .iter()
                        .map(|v| {
                            let mut fields = vec![
                                ("name", Json::Str(v.name.clone())),
                                ("micros_per_step", Json::Num(v.micros_per_step)),
                            ];
                            if let Some(a) = v.allocs_per_step {
                                fields.push(("allocs_per_step", Json::Num(a)));
                            }
                            Json::obj(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_all_variants() {
        let result = measure_training_steps(2, 2, false, &|| 0);
        let names: Vec<&str> = result.variants.iter().map(|v| v.name.as_str()).collect();
        assert!(names.contains(&"step_arena"));
        assert!(names.contains(&"step_eager_runtime_autodiff"));
        assert!(result
            .variants
            .iter()
            .all(|v| v.micros_per_step > 0.0 && v.allocs_per_step.is_none()));
        assert!(result.to_json().render().contains("micros_per_step"));
    }

    #[test]
    fn reports_the_fusion_launch_reduction_and_zero_fallbacks() {
        let result = measure_training_steps(1, 1, false, &|| 0);
        assert!(result.launch_count > 0);
        assert_eq!(
            result.fallback_dispatches, 0,
            "the arena program must not dispatch allocating fallbacks"
        );
        let json = result.to_json().render();
        assert!(json.contains("\"launch_count\""));
        assert!(json.contains("fallback_dispatches"));
    }
}
