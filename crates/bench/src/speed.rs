//! Measured training-step speed on the host: Figure 2's schemes, Figure 7's
//! compile-time versus runtime autodiff, Table 5's latency ratio and the
//! graph-optimisation ablation all time their setups with [`measure_steps`].
//!
//! Every baseline the paper compares against exists in-tree as real code:
//! runtime autodiff is [`EagerEngine`], the conventional update placement is
//! [`ScheduleStrategy::Conventional`], and the schemes are [`UpdateRule`]'s
//! `Full`, `BiasOnly` and `Sparse`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use pockengine::pe_memplan::MemoryReport;
use pockengine::pe_models::{
    build_bert, build_llama, build_mobilenet, build_resnet, mcunet_5fps_config, BertConfig,
    BuiltModel, LlamaConfig, MobileNetV2Config, ResNetConfig,
};
use pockengine::pe_passes::ScheduleStrategy;
use pockengine::pe_runtime::{EagerEngine, Executor, Optimizer, ParamStore};
use pockengine::pe_sparse::{
    apply_rule, paper_scheme_bert, paper_scheme_distilbert, paper_scheme_llama,
    paper_scheme_mcunet, paper_scheme_mobilenetv2, paper_scheme_resnet50, SparseScheme, UpdateRule,
};
use pockengine::pe_tensor::{Rng, Tensor};
use pockengine::{analyze, CompileOptions, ProgramAnalysis};

/// The evaluation models of the paper, at paper scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperModel {
    /// MCUNet-5FPS (TinyML CNN, 128x128).
    McuNet,
    /// MobileNetV2 width 1.0 at 224x224.
    MobileNetV2,
    /// ResNet-50 at 224x224.
    ResNet50,
    /// BERT-base at sequence length 128.
    Bert,
    /// DistilBERT at sequence length 128.
    DistilBert,
    /// LlamaV2-7B geometry at sequence length 512.
    Llama7b,
}

impl PaperModel {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PaperModel::McuNet => "MCUNet",
            PaperModel::MobileNetV2 => "MobileNetV2",
            PaperModel::ResNet50 => "ResNet-50",
            PaperModel::Bert => "BERT",
            PaperModel::DistilBert => "DistilBERT",
            PaperModel::Llama7b => "LlamaV2-7B",
        }
    }

    /// Builds the paper-scale model (deferred parameters) at the given batch.
    pub fn build(self, batch: usize, rng: &mut Rng) -> BuiltModel {
        match self {
            PaperModel::McuNet => build_mobilenet(&mcunet_5fps_config(batch), rng),
            PaperModel::MobileNetV2 => build_mobilenet(&MobileNetV2Config::paper(1.0, batch), rng),
            PaperModel::ResNet50 => build_resnet(&ResNetConfig::resnet50(batch), rng),
            PaperModel::Bert => build_bert(&BertConfig::bert_base(batch, 2), rng),
            PaperModel::DistilBert => build_bert(&BertConfig::distilbert(batch, 2), rng),
            PaperModel::Llama7b => build_llama(&LlamaConfig::llama2_7b(batch), rng),
        }
    }

    /// The paper's sparse update scheme for this model.
    pub fn paper_scheme(self) -> SparseScheme {
        match self {
            PaperModel::McuNet => paper_scheme_mcunet(17),
            PaperModel::MobileNetV2 => paper_scheme_mobilenetv2(),
            PaperModel::ResNet50 => paper_scheme_resnet50(),
            PaperModel::Bert => paper_scheme_bert(),
            PaperModel::DistilBert => paper_scheme_distilbert(),
            PaperModel::Llama7b => paper_scheme_llama(),
        }
    }
}

/// Analyses one model under a rule, with reordered updates.
pub fn analyze_model(
    model: &BuiltModel,
    rule: UpdateRule,
    optimizer: Optimizer,
) -> ProgramAnalysis {
    analyze(
        model,
        &CompileOptions {
            update_rule: rule,
            optimizer,
            ..CompileOptions::default()
        },
    )
}

/// How one measured setup trains the model.
#[derive(Debug, Clone)]
pub enum Setup {
    /// Runtime autodiff: [`EagerEngine`] re-derives the unoptimised
    /// backward graph every step and applies every update at its end.
    Eager(UpdateRule),
    /// Compile-time autodiff: the program is analysed once and the arena
    /// executor walks its fixed schedule.
    Compiled {
        /// Which parameters are updated.
        rule: UpdateRule,
        /// Update placement.
        schedule: ScheduleStrategy,
    },
}

impl Setup {
    /// The compiled program under `rule` with reordered updates.
    pub fn compiled(rule: UpdateRule) -> Setup {
        Setup::Compiled {
            rule,
            schedule: ScheduleStrategy::Reordered,
        }
    }

    /// Figure 2's four setups: runtime-autodiff full backpropagation, then
    /// the compiled program under full, bias-only and `sparse`.
    pub fn schemes(sparse: SparseScheme) -> Vec<(&'static str, Setup)> {
        vec![
            ("eager full-bp", Setup::Eager(UpdateRule::Full)),
            ("full-bp", Setup::compiled(UpdateRule::Full)),
            ("bias-only", Setup::compiled(UpdateRule::BiasOnly)),
            ("sparse-bp", Setup::compiled(UpdateRule::Sparse(sparse))),
        ]
    }
}

/// One setup's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct StepTiming {
    /// The setup's label.
    pub label: &'static str,
    /// Wall time to make the setup ready to step (µs): analysis and
    /// executor construction for a compiled setup, which is the whole
    /// compile-time autodiff cost; engine construction for an eager one.
    pub(crate) setup_us: f64,
    /// Median wall time of one training step (µs).
    pub step_us: f64,
    /// Samples (images or sequences) per second at the median step.
    pub samples_per_sec: f64,
    /// The planner's memory report of a compiled program; `None` for an
    /// eager setup, which plans a fresh graph every step.
    pub memory: Option<MemoryReport>,
}

/// One training step of a measured setup.
type Step = Box<dyn FnMut(&HashMap<String, Tensor>)>;

/// A batch of zeros for every input of `model`: a valid image, token-id and
/// label tensor alike. The kernels are dense, so step time does not depend
/// on the values.
fn zero_inputs(model: &BuiltModel) -> HashMap<String, Tensor> {
    model
        .graph
        .inputs()
        .iter()
        .map(|&id| {
            let node = model.graph.node(id);
            (node.name.clone(), Tensor::zeros(node.shape.clone()))
        })
        .collect()
}

/// Times training steps of `model` under each setup on this host: the one
/// step-timing loop behind every speed table.
///
/// Every setup is built first (its build timed as `setup_us`) and warmed
/// with one step. Then `rounds` rounds each time one step of every setup,
/// starting one setup later each round, so ambient load hits all setups
/// alike. The compiled setups share one parameter store, so a paper-scale
/// model holds its weights twice (that store and the eager engine's), not
/// once per setup. All setups train with `optimizer`.
///
/// # Panics
///
/// Panics if `rounds` is zero or a step fails.
pub fn measure_steps(
    model: &BuiltModel,
    setups: &[(&'static str, Setup)],
    optimizer: Optimizer,
    rounds: usize,
) -> Vec<StepTiming> {
    assert!(rounds > 0, "measure_steps needs at least one round");
    let inputs = zero_inputs(model);
    let batch = inputs[&model.feature_input].shape().dims()[0];
    let store = Arc::new(ParamStore::from_graph(&model.graph, optimizer));

    let mut steps: Vec<Step> = Vec::with_capacity(setups.len());
    let mut timings = Vec::with_capacity(setups.len());
    for (label, setup) in setups {
        let start = Instant::now();
        let (step, memory) = match setup {
            Setup::Eager(rule) => {
                let spec = apply_rule(model, rule);
                let mut engine = EagerEngine::new(model.graph.clone(), model.loss, spec, optimizer);
                let step: Step = Box::new(move |inputs| {
                    engine.run_step(inputs).expect("eager step");
                });
                (step, None)
            }
            Setup::Compiled { rule, schedule } => {
                let analysis = analyze(
                    model,
                    &CompileOptions {
                        update_rule: rule.clone(),
                        optimizer,
                        schedule: *schedule,
                        ..CompileOptions::default()
                    },
                );
                let mut exec = Executor::with_store(
                    analysis.training_graph,
                    analysis.schedule,
                    Arc::clone(&store),
                );
                let step: Step = Box::new(move |inputs| {
                    exec.run_step(inputs).expect("compiled step");
                });
                (step, Some(analysis.memory))
            }
        };
        timings.push(StepTiming {
            label,
            setup_us: start.elapsed().as_secs_f64() * 1e6,
            step_us: 0.0,
            samples_per_sec: 0.0,
            memory,
        });
        steps.push(step);
    }

    for step in &mut steps {
        step(&inputs);
    }
    let n = steps.len();
    let mut samples = vec![Vec::with_capacity(rounds); n];
    for round in 0..rounds {
        for k in 0..n {
            let i = (round + k) % n;
            let start = Instant::now();
            steps[i](&inputs);
            samples[i].push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    for (timing, mut us) in timings.iter_mut().zip(samples) {
        timing.step_us = median(&mut us);
        timing.samples_per_sec = batch as f64 * 1e6 / timing.step_us;
    }
    timings
}

/// The median of a non-empty sample.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// The timing labelled `label`.
///
/// # Panics
///
/// Panics if no timing carries that label.
pub fn timing<'a>(timings: &'a [StepTiming], label: &str) -> &'a StepTiming {
    timings
        .iter()
        .find(|t| t.label == label)
        .unwrap_or_else(|| panic!("no setup labelled {label:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_schemes(model: &BuiltModel, sparse: SparseScheme) {
        let setups = Setup::schemes(sparse);
        let timings = measure_steps(model, &setups, Optimizer::sgd(0.01), 2);
        assert_eq!(timings.len(), setups.len());
        for t in &timings {
            // No wall-clock ordering: the parallel test runner makes one
            // flaky. The repro binaries compare medians standalone.
            assert!(
                t.step_us.is_finite() && t.step_us > 0.0,
                "{}: {}",
                t.label,
                t.step_us
            );
            assert!(t.samples_per_sec.is_finite() && t.samples_per_sec > 0.0);
            assert!(t.setup_us > 0.0);
        }
        assert!(timing(&timings, "eager full-bp").memory.is_none());
        let planned = |label| timing(&timings, label).memory.unwrap().total_bytes();
        assert!(planned("bias-only") <= planned("full-bp"));
        assert!(planned("sparse-bp") <= planned("full-bp"));
    }

    #[test]
    fn measures_every_scheme_on_a_tiny_mobilenet() {
        let model = build_mobilenet(&MobileNetV2Config::tiny(2, 4), &mut Rng::seed_from_u64(0));
        check_schemes(&model, paper_scheme_mobilenetv2());
    }

    #[test]
    fn measures_every_scheme_on_a_tiny_encoder() {
        let model = build_bert(&BertConfig::tiny(2, 2), &mut Rng::seed_from_u64(0));
        check_schemes(&model, paper_scheme_distilbert());
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
