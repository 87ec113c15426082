//! # PockEngine-RS
//!
//! A Rust reproduction of **PockEngine: Sparse and Efficient Fine-tuning in a
//! Pocket** (MICRO 2023): a compilation-first training engine for edge
//! devices with system-level support for sparse backpropagation.
//!
//! This crate is the top-level API. It ties together the workspace crates:
//!
//! * [`pe_tensor`] — tensors and the shared forward/backward kernel library;
//! * [`pe_graph`] — the unified IR, graph builder and compile-time autodiff;
//! * [`pe_passes`] — training-graph optimisations (pruning/DCE, operator
//!   reordering) and scheduling;
//! * [`pe_memplan`] — tensor lifetime analysis and memory planning;
//! * [`pe_runtime`] — the slim executor, optimizers and the eager baseline;
//! * [`pe_sparse`] — update schemes and the scheme search;
//! * [`pe_models`] — the model zoo (MCUNet, MobileNetV2, ResNet, BERT,
//!   DistilBERT, Llama);
//! * [`pe_data`] — synthetic workloads.
//!
//! In every workspace crate, `pub` marks what another crate (a test, an
//! example, a binary or the benchmark included) names; everything else is
//! crate-private, so rustc's `dead_code` lint reports what nothing uses.
//!
//! # Quickstart
//!
//! ```
//! use pockengine::prelude::*;
//!
//! let mut rng = Rng::seed_from_u64(0);
//! let model = build_bert(&BertConfig::tiny(4, 2), &mut rng);
//! let options = CompileOptions {
//!     update_rule: UpdateRule::BiasOnly,
//!     optimizer: Optimizer::sgd(0.05),
//!     ..CompileOptions::default()
//! };
//! let program = compile(&model, &options);
//! assert!(program.analysis.memory.total_bytes() > 0);
//! ```

#![deny(missing_docs)]

pub(crate) mod admission;
pub(crate) mod batcher;
pub(crate) mod engine;
pub(crate) mod program;
pub mod queue;
pub(crate) mod submit;

pub use pe_data;
pub use pe_graph;
pub use pe_memplan;
pub use pe_models;
pub use pe_passes;
pub use pe_runtime;
pub use pe_sparse;
pub use pe_tensor;

use std::sync::Arc;

use pe_graph::{build_training_graph, TrainingGraph};
use pe_memplan::{memory_report, MemoryReport};
use pe_models::BuiltModel;
use pe_passes::{optimize, OptimizeOptions, OptimizeStats, Schedule, ScheduleStrategy};
use pe_runtime::{Executor, ExecutorConfig, Optimizer, ParamStore, Trainer};
use pe_sparse::{apply_rule, trainable_elements, UpdateRule};

pub use admission::{AdmissionPolicy, Outcome, RejectReason};
pub use batcher::BatcherStats;
pub use engine::{AsyncEngine, Engine, EngineConfig, EngineMetrics, Response};
pub use pe_data::serving::{Priority, Request, RequestMeta, ServingKind};
pub use program::{CacheStats, Compiler, ModelFactory, Program, Specialization};
pub use queue::{QueueConfig, Resolver, SubmitError, Submitter, Ticket, TicketNotify};
pub use submit::{Submit, SubmitHandle};

/// Everything most users need, in one import.
///
/// The full round-trip — build a model, compile it, train — goes through
/// this module alone, and training reduces the loss:
///
/// ```
/// use pockengine::prelude::*;
///
/// // Build: a tiny BERT-style classifier on a synthetic GLUE-style task.
/// let mut rng = Rng::seed_from_u64(0);
/// let model = build_bert(&BertConfig::tiny(4, 2), &mut rng);
/// let mut data_rng = Rng::seed_from_u64(1);
/// let task = generate_nlp_task(
///     "doc",
///     NlpTaskConfig {
///         num_classes: 2,
///         vocab: 100,
///         seq_len: 16,
///         batch: 4,
///         train_batches: 2,
///         test_batches: 1,
///         marker_dropout: 0.0,
///     },
///     &mut data_rng,
/// );
///
/// // Compile: full backpropagation with every graph optimisation enabled.
/// let program = compile(
///     &model,
///     &CompileOptions {
///         optimizer: Optimizer::sgd(0.05),
///         ..CompileOptions::default()
///     },
/// );
///
/// // Train: epochs over the task reduce the loss.
/// let mut trainer = program.into_trainer();
/// let batches: Vec<Batch> =
///     task.train.iter().map(|(x, y)| Batch::new(x.clone(), y.clone())).collect();
/// let first = trainer.train_epoch(&batches).unwrap();
/// let mut last = first;
/// for _ in 0..4 {
///     last = trainer.train_epoch(&batches).unwrap();
/// }
/// assert!(last < first, "loss should decrease: {first} -> {last}");
/// ```
pub mod prelude {
    pub use crate::{
        analyze, compile, AdmissionPolicy, AsyncEngine, BatcherStats, CacheStats, CompileOptions,
        CompiledProgram, Compiler, Engine, EngineConfig, EngineMetrics, Outcome, Program,
        ProgramAnalysis, QueueConfig, RejectReason, Response, Specialization, Submit, SubmitError,
        Submitter, Ticket, TicketNotify,
    };
    pub use pe_data::{
        generate_instruct_dataset, generate_nlp_task, generate_request_stream,
        generate_vision_task, InstructConfig, NlpTaskConfig, Priority, Request, RequestMeta,
        RequestStreamConfig, ServingKind, VisionTaskConfig,
    };
    pub use pe_graph::{GraphBuilder, ParamKey, TrainKind, TrainSpec};
    pub use pe_models::{
        build_bert, build_llama, build_mobilenet, build_resnet, mcunet_5fps_config,
        mcunet_tiny_config, BertConfig, BuiltModel, LlamaConfig, MobileNetV2Config, ResNetConfig,
    };
    pub use pe_passes::{OptimizeOptions, ScheduleStrategy};
    pub use pe_runtime::{Batch, Executor, Optimizer, ParamStore, Trainer};
    pub use pe_sparse::{
        apply_rule, paper_scheme_bert, paper_scheme_distilbert, paper_scheme_llama,
        paper_scheme_mcunet, paper_scheme_mobilenetv2, paper_scheme_resnet50, SparseScheme,
        UpdateRule,
    };
    pub use pe_tensor::{Rng, Tensor};
}

/// How to compile a training program from a model.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Which parameters to update (the sparse backpropagation scheme).
    pub update_rule: UpdateRule,
    /// Optimizer applied by the `ApplyUpdate` nodes.
    pub optimizer: Optimizer,
    /// Graph optimisation pipeline configuration.
    pub optimize: OptimizeOptions,
    /// Execution order policy (reordered updates vs conventional).
    pub schedule: ScheduleStrategy,
    /// Carries no setting (see [`ExecutorConfig`]); kept only because the
    /// benchmark harness names it.
    pub executor: ExecutorConfig,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            update_rule: UpdateRule::Full,
            optimizer: Optimizer::sgd(0.01),
            optimize: OptimizeOptions::default(),
            schedule: ScheduleStrategy::Reordered,
            executor: ExecutorConfig,
        }
    }
}

/// Compile-time analysis of a training program (no executor, no parameter
/// materialisation) — everything the memory planner and the reports need.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    /// The optimized training graph; a compiled program's executor runs
    /// this same graph, not a copy.
    pub training_graph: Arc<TrainingGraph>,
    /// The execution schedule.
    pub schedule: Schedule,
    /// Optimisation statistics (DCE, launch counts).
    pub stats: OptimizeStats,
    /// Training-memory breakdown.
    pub memory: MemoryReport,
    /// Number of parameter elements that receive updates.
    pub trainable_elements: usize,
    /// Name of the logits output node.
    pub(crate) logits_name: String,
}

/// A fully compiled training program, ready to execute.
#[derive(Debug)]
pub struct CompiledProgram {
    /// The compile-time analysis (graph, schedule, memory breakdown).
    pub analysis: ProgramAnalysis,
    /// The executor holding parameters and optimizer state.
    pub executor: Executor,
    /// Name of the model's feature input.
    pub(crate) feature_input: String,
    /// Name of the model's label input.
    pub(crate) label_input: String,
}

impl CompiledProgram {
    /// Wraps the program in a [`Trainer`] for classification workloads.
    pub fn into_trainer(self) -> Trainer {
        let logits = self.analysis.logits_name.clone();
        Trainer::new(self.executor, self.feature_input, self.label_input, logits)
    }
}

/// Analyses a model under the given options without materialising parameters
/// or building an executor.
///
/// Use this for paper-scale configurations (ResNet-50 at 224x224, BERT-base,
/// Llama-7B) whose graphs are only consumed by the memory planner.
pub fn analyze(model: &BuiltModel, options: &CompileOptions) -> ProgramAnalysis {
    let (tg, schedule, stats, trainable) = lower(model, options);
    let memory = memory_report(
        &tg.graph,
        &schedule,
        trainable,
        options.optimizer.state_slots(),
    );
    ProgramAnalysis {
        training_graph: Arc::new(tg),
        schedule,
        stats,
        memory,
        trainable_elements: trainable,
        logits_name: model.logits_name(),
    }
}

/// Compiles a model into an executable training program.
///
/// The entire pipeline runs at compile time: scheme application, backward
/// graph derivation, graph optimisation, scheduling and memory planning. The
/// returned program's executor performs no graph work at runtime.
pub fn compile(model: &BuiltModel, options: &CompileOptions) -> CompiledProgram {
    let (tg, schedule, stats, trainable) = lower(model, options);
    let tg = Arc::new(tg);
    let store = Arc::new(ParamStore::from_graph(&tg.graph, options.optimizer));
    let executor = Executor::with_store(Arc::clone(&tg), schedule.clone(), store);
    // The memory planner runs once: the report is the executor's own plan.
    let memory = executor.memory_report(trainable, options.optimizer.state_slots());
    CompiledProgram {
        analysis: ProgramAnalysis {
            training_graph: tg,
            schedule,
            stats,
            memory,
            trainable_elements: trainable,
            logits_name: model.logits_name(),
        },
        executor,
        feature_input: model.feature_input.clone(),
        label_input: model.label_input.clone(),
    }
}

/// Lowers `model` to an executor over `store`, with no analysis: a
/// program's batch-size specializations keep only what they run.
pub(crate) fn build_executor(
    model: &BuiltModel,
    options: &CompileOptions,
    store: Arc<ParamStore>,
) -> Executor {
    let (tg, schedule, _, _) = lower(model, options);
    Executor::with_store(tg, schedule, store)
}

/// The compile pipeline before memory planning: scheme application,
/// autodiff, graph optimisation and scheduling. Also returns the number of
/// parameter elements that receive updates.
fn lower(
    model: &BuiltModel,
    options: &CompileOptions,
) -> (TrainingGraph, Schedule, OptimizeStats, usize) {
    let spec = apply_rule(model, &options.update_rule);
    let trainable = trainable_elements(model, &spec);
    let tg = build_training_graph(model.graph.clone(), model.loss, &spec);
    let mut opts = options.optimize;
    opts.reorder_updates = options.schedule == ScheduleStrategy::Reordered;
    let (tg, schedule, stats) = optimize(tg, opts);
    (tg, schedule, stats, trainable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_models::{build_mobilenet, MobileNetV2Config};
    use pe_runtime::Batch;
    use pe_sparse::paper_scheme_mobilenetv2;
    use pe_sparse::BlockSelector;
    use pe_sparse::SparseScheme;
    use pe_sparse::WeightRule;
    use pe_tensor::Rng;

    #[test]
    fn analyze_reports_smaller_memory_for_sparse_schemes() {
        let mut rng = Rng::seed_from_u64(0);
        let model = build_mobilenet(&MobileNetV2Config::paper(0.35, 8), &mut rng);
        let full = analyze(&model, &CompileOptions::default());
        let sparse = analyze(
            &model,
            &CompileOptions {
                update_rule: UpdateRule::Sparse(paper_scheme_mobilenetv2()),
                optimizer: Optimizer::adam(1e-3),
                ..CompileOptions::default()
            },
        );
        assert!(sparse.memory.transient_peak_bytes < full.memory.transient_peak_bytes);
        assert!(sparse.trainable_elements < full.trainable_elements);
        assert!(sparse.training_graph.graph.len() < full.training_graph.graph.len());
    }

    #[test]
    fn compiled_tiny_model_trains_end_to_end() {
        let mut rng = Rng::seed_from_u64(1);
        let model = build_mobilenet(&MobileNetV2Config::tiny(8, 3), &mut rng);
        let scheme = SparseScheme {
            name: "tiny".to_string(),
            bias_last_blocks: 2,
            weight_rules: vec![WeightRule::full("conv1", BlockSelector::LastK(2))],
            train_head: true,
            train_norm: false,
        };
        let program = compile(
            &model,
            &CompileOptions {
                update_rule: UpdateRule::Sparse(scheme),
                optimizer: Optimizer::sgd(0.05),
                ..CompileOptions::default()
            },
        );
        let mut trainer = program.into_trainer();
        let mut data_rng = Rng::seed_from_u64(2);
        let task = pe_data::generate_vision_task(
            "smoke",
            pe_data::VisionTaskConfig {
                num_classes: 3,
                resolution: 16,
                batch: 8,
                train_batches: 6,
                test_batches: 2,
                noise: 0.3,
                signal: 1.2,
            },
            &mut data_rng,
        );
        let batches: Vec<Batch> = task
            .train
            .iter()
            .map(|(x, y)| Batch::new(x.clone(), y.clone()))
            .collect();
        let first = trainer.train_epoch(&batches).unwrap();
        let mut last = first;
        for _ in 0..3 {
            last = trainer.train_epoch(&batches).unwrap();
        }
        assert!(last < first, "loss should decrease: {first} -> {last}");
    }

    #[test]
    fn default_options_are_full_bp_with_all_optimizations() {
        let o = CompileOptions::default();
        assert_eq!(o.update_rule, UpdateRule::Full);
        assert_eq!(o.schedule, ScheduleStrategy::Reordered);
        assert!(o.optimize.dce);
    }
}
