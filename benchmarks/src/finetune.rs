//! The `finetune_*` workloads: one compiled training step in flight.
//!
//! A round builds the model, compiles it and steps through sixteen seeded
//! batches, cycled. An op is one `train_step`; a slice is one op.

use std::collections::HashMap;
use std::time::Instant;

use pockengine::pe_data::serving::{generate_request_stream, RequestStreamConfig};
use pockengine::pe_data::{
    generate_nlp_task, generate_vision_task, NlpTaskConfig, VisionTaskConfig,
};
use pockengine::pe_graph::build_training_graph;
use pockengine::pe_memplan::{memory_report, MemoryReport};
use pockengine::pe_models::{
    build_bert, build_mobilenet, BertConfig, BuiltModel, MobileNetV2Config,
};
use pockengine::pe_passes::{optimize, OptimizeStats, ScheduleStrategy};
use pockengine::pe_runtime::{EagerEngine, Executor, Optimizer};
use pockengine::pe_sparse::{apply_rule, paper_scheme_distilbert, trainable_elements, UpdateRule};
use pockengine::pe_tensor::{Rng, Tensor};
use pockengine::{compile, CompileOptions};

use crate::common::{RoundStats, Stop};
use crate::estimator::{self, Mark, OpLog, SliceLog};
use crate::serve;
use crate::sys::{now_ns, process_cpu_ns, reserved};
use crate::trace::{SpanId, Tracer, NO_OP};

/// Seeded batches per workload; the stream cycles through them.
const BATCHES: usize = 16;
/// Untimed steps between set-up and the timed phase.
const WARMUP_STEPS: u64 = 10;
/// Steps the output check compares against the eager engine, bit for bit.
const EAGER_STEPS: usize = 20;
/// The step by which the loss must have fallen.
pub const LEARNING_STEPS: usize = 200;

pub type StepInputs = HashMap<String, Tensor>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// `MobileNetV2Config::tiny(8, 4)` at 16x16, every parameter updated.
    CnnFull,
    /// A 6-block encoder under the paper's DistilBERT sparse scheme.
    BertSparse,
    /// The serve workloads' MLP at batch 8, every parameter updated. No
    /// workload finetunes it; the per-layer probes of the serve workloads
    /// compile and step it the way the engine does behind the queue.
    ServeMlp,
}

/// A finetune workload's model recipe, compile options and seeded batches.
pub struct FinetuneSpec {
    pub model: Model,
    pub options: CompileOptions,
    pub batches: Vec<StepInputs>,
    seed: u64,
}

/// The encoder of `finetune_bert_sparse`. `BertConfig::tiny` has two blocks,
/// on which the paper's schemes prune nothing; six blocks leave the scheme
/// three frozen ones to cut the backward graph at.
fn bert_config() -> BertConfig {
    BertConfig {
        name: "bert-bench".into(),
        num_blocks: 6,
        hidden: 64,
        heads: 4,
        ffn: 128,
        vocab: 500,
        seq_len: 32,
        batch: 4,
        num_classes: 2,
        deferred: false,
    }
}

impl FinetuneSpec {
    pub fn new(model: Model, seed: u64) -> FinetuneSpec {
        FinetuneSpec::with_rule(model, seed, None)
    }

    /// `rule` overrides the workload's update rule (the speed-up probe runs
    /// the encoder under full backpropagation beside the sparse scheme).
    pub fn with_rule(model: Model, seed: u64, rule: Option<UpdateRule>) -> FinetuneSpec {
        let mut rng = Rng::seed_from_u64(seed ^ 0xda7a);
        let (pairs, feature, default_rule) = match model {
            Model::CnnFull => {
                let task = generate_vision_task(
                    "bench",
                    VisionTaskConfig {
                        num_classes: 4,
                        resolution: 16,
                        batch: 8,
                        train_batches: BATCHES,
                        test_batches: 0,
                        noise: 0.5,
                        signal: 1.0,
                    },
                    &mut rng,
                );
                (task.train, "x", UpdateRule::Full)
            }
            Model::ServeMlp => {
                let stream = generate_request_stream(
                    &RequestStreamConfig {
                        num_requests: BATCHES,
                        batch_sizes: vec![8],
                        train_fraction: 1.0,
                        num_classes: serve::CLASSES,
                        feature_dim: serve::FEATURES,
                        ..RequestStreamConfig::default()
                    },
                    &mut rng,
                );
                let pairs = stream.into_iter().map(|r| (r.features, r.labels)).collect();
                (pairs, "x", UpdateRule::Full)
            }
            Model::BertSparse => {
                let cfg = bert_config();
                let task = generate_nlp_task(
                    "bench",
                    NlpTaskConfig {
                        num_classes: cfg.num_classes,
                        vocab: cfg.vocab,
                        seq_len: cfg.seq_len,
                        batch: cfg.batch,
                        train_batches: BATCHES,
                        test_batches: 0,
                        marker_dropout: 0.1,
                    },
                    &mut rng,
                );
                (
                    task.train,
                    "ids",
                    UpdateRule::Sparse(paper_scheme_distilbert()),
                )
            }
        };
        let batches = pairs
            .into_iter()
            .map(|(x, y)| HashMap::from([(feature.to_string(), x), ("labels".to_string(), y)]))
            .collect();
        FinetuneSpec {
            model,
            options: CompileOptions {
                update_rule: rule.unwrap_or(default_rule),
                optimizer: Optimizer::sgd(0.05),
                ..CompileOptions::default()
            },
            batches,
            seed,
        }
    }

    pub fn build_model(&self) -> BuiltModel {
        let mut rng = Rng::seed_from_u64(self.seed ^ 0x30de1);
        match self.model {
            Model::CnnFull => build_mobilenet(&MobileNetV2Config::tiny(8, 4), &mut rng),
            Model::BertSparse => build_bert(&bert_config(), &mut rng),
            Model::ServeMlp => serve::mlp_factory(self.seed)(8),
        }
    }
}

/// What `pockengine::compile` does, one public call per layer at a time, so
/// a tracer can time each. Must stay equal to `compile` in effect: the
/// output check holds traced rounds to the same losses as untraced ones.
pub struct Staged {
    pub executor: Executor,
    pub stats: OptimizeStats,
    pub memory: MemoryReport,
    pub train_nodes: usize,
    pub trainable_elements: usize,
}

pub fn staged_compile(spec: &FinetuneSpec, tracer: &mut Tracer, parent: SpanId) -> Staged {
    let options = &spec.options;
    let model = tracer.scope("models.build", parent, || spec.build_model());
    let train_spec = tracer.scope("sparse.apply_rule", parent, || {
        apply_rule(&model, &options.update_rule)
    });
    let tg = tracer.scope("graph.autodiff", parent, || {
        build_training_graph(model.graph.clone(), model.loss, &train_spec)
    });
    let (tg, schedule, stats) = tracer.scope("passes.optimize", parent, || {
        let mut opts = options.optimize;
        opts.reorder_updates = options.schedule == ScheduleStrategy::Reordered;
        optimize(tg, opts)
    });
    let trainable = trainable_elements(&model, &train_spec);
    let memory = tracer.scope("memplan.plan", parent, || {
        memory_report(
            &tg.graph,
            &schedule,
            trainable,
            options.optimizer.state_slots(),
        )
    });
    let train_nodes = tg.graph.len();
    let executor = tracer.scope("runtime.executor_build", parent, || {
        Executor::with_config(tg, schedule, options.optimizer, options.executor)
    });
    Staged {
        executor,
        stats,
        memory,
        train_nodes,
        trainable_elements: trainable,
    }
}

/// A round's pre-allocated buffers. Nothing in a timed phase allocates:
/// latencies, slice marks and losses all go to reserved space.
pub struct FinetuneBuffers {
    pub latency: OpLog,
    pub slices: SliceLog,
    pub losses: Vec<f32>,
    pub tracer: Tracer,
}

impl FinetuneBuffers {
    /// Room for `steps` steps over `seconds` per round and, when tracing,
    /// their spans.
    pub fn new(steps: usize, seconds: f64, traced: bool) -> FinetuneBuffers {
        let slices = estimator::slices_in(seconds);
        FinetuneBuffers {
            latency: OpLog::with_capacity(steps, slices),
            slices: SliceLog::with_capacity(slices),
            losses: reserved(1.0, steps),
            tracer: Tracer::with_capacity(if traced { 2 * steps + 64 } else { 0 }),
        }
    }
}

/// One round: cold set-up, warm-up, the timed phase, then — when
/// `min_steps` asks for it — an untimed tail so the loss sequence is long
/// enough for the learning check. Every step's loss lands in `buf.losses`.
pub fn run_round(
    spec: &FinetuneSpec,
    stop: Stop,
    min_steps: usize,
    buf: &mut FinetuneBuffers,
) -> RoundStats {
    buf.latency.clear();
    buf.losses.clear();
    let tracer = &mut buf.tracer;
    let mut failed = 0u64;
    let mut step = 0u64;
    let mut train = |executor: &mut Executor, losses: &mut Vec<f32>, step: &mut u64| {
        let batch = &spec.batches[*step as usize % spec.batches.len()];
        let loss = match executor.train_step(batch) {
            Ok(Some(loss)) if loss.is_finite() => loss,
            _ => {
                failed += 1;
                f32::NAN
            }
        };
        if losses.len() < losses.capacity() {
            losses.push(loss);
        }
        *step += 1;
    };

    // Set-up: first library call to first completed op.
    let begun = Instant::now();
    let setup = tracer.begin("setup", None, NO_OP);
    let mut executor = if setup.is_some() {
        staged_compile(spec, tracer, setup).executor
    } else {
        let model = spec.build_model();
        compile(&model, &spec.options).executor
    };
    train(&mut executor, &mut buf.losses, &mut step);
    tracer.end(setup);
    let setup_s = begun.elapsed().as_secs_f64();

    let warmup = tracer.begin("warmup", None, NO_OP);
    while step < WARMUP_STEPS {
        train(&mut executor, &mut buf.losses, &mut step);
    }
    tracer.end(warmup);

    let origin = now_ns();
    buf.slices.start(Mark {
        wall_ns: origin,
        cpu_ns: process_cpu_ns(),
        ops: 0,
    });
    buf.latency.begin_slices(1);
    let mut ops = 0u64;
    loop {
        let op = tracer.begin("op", None, step);
        let call = tracer.begin("runtime.train_step", op, step);
        let start = now_ns();
        train(&mut executor, &mut buf.losses, &mut step);
        let end = now_ns();
        tracer.end_at(call, end);
        tracer.end_at(op, end);
        ops += 1;
        buf.latency.record(end - start);
        if buf.slices.due(end) {
            buf.slices.push(Mark {
                wall_ns: end,
                cpu_ns: process_cpu_ns(),
                ops,
            });
            buf.latency.begin_slices(buf.slices.begun());
        }
        if stop.reached(end - origin, ops) {
            break;
        }
    }

    while (step as usize) < min_steps {
        train(&mut executor, &mut buf.losses, &mut step);
    }
    drop(executor);
    RoundStats {
        setup_s,
        timed: estimator::reduce(&buf.slices.slices(), &[&buf.latency]),
        peak_rss_mb: 0.0,
        attempted: ops,
        failed,
    }
}

/// The output checks of a finetune run, each counted in failed ops:
/// the first twenty losses are bit-equal to `EagerEngine` on the same
/// batches, the mean loss of the last pass through the batches before step
/// 200 is below the first pass's, and every round's loss sequence equals
/// round 0's as far as both go.
pub fn check_outputs(spec: &FinetuneSpec, round_losses: &[Vec<f32>]) -> (u64, Vec<String>) {
    let mut wrong = 0u64;
    let mut findings = Vec::new();
    let first = &round_losses[0];

    let model = spec.build_model();
    let train_spec = apply_rule(&model, &spec.options.update_rule);
    let mut eager = EagerEngine::with_config(
        model.graph.clone(),
        model.loss,
        train_spec,
        spec.options.optimizer,
        spec.options.executor,
    );
    for step in 0..EAGER_STEPS {
        let batch = &spec.batches[step % spec.batches.len()];
        let reference = eager.run_step(batch).ok().and_then(|r| r.loss);
        let got = first.get(step).copied();
        if reference.map(f32::to_bits) != got.map(f32::to_bits) {
            wrong += 1;
            findings.push(format!(
                "step {step}: loss {got:?} differs from eager {reference:?}"
            ));
        }
    }

    // Learning, judged over whole passes through the batches: a single
    // step's loss is its batch's, and batches differ.
    let pass = spec.batches.len();
    let mean = |losses: &[f32]| losses.iter().sum::<f32>() / losses.len() as f32;
    let learned = first.len() >= LEARNING_STEPS
        && mean(&first[LEARNING_STEPS - pass..LEARNING_STEPS]) < mean(&first[..pass]);
    if !learned {
        wrong += 1;
        findings.push(format!(
            "loss did not fall from the first {pass} steps to the {pass} before step {LEARNING_STEPS}: {:?}",
            &first[..first.len().min(LEARNING_STEPS)]
        ));
    }

    for (round, losses) in round_losses.iter().enumerate().skip(1) {
        let differing = losses
            .iter()
            .zip(first)
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count() as u64;
        if differing > 0 {
            wrong += differing;
            findings.push(format!(
                "round {round}: {differing} losses differ from round 0"
            ));
        }
    }
    (wrong, findings)
}
