//! Exact compile-time counts and loss bits of the two programs the
//! benchmark's finetune workloads train (`benchmarks/src/finetune.rs`): a
//! tiny MobileNetV2 under full backpropagation and a 6-block encoder under
//! the paper's DistilBERT sparse scheme. The arena bytes are
//! `analysis.memory.arena_bytes`: the slab the executor allocates for the
//! step. A pass that adds or removes a kernel launch, or a planner change
//! that moves a byte of the arena, fails here and must restate the count on
//! purpose.
//!
//! The loss pins train each program for [`PINNED_STEPS`] steps on seeded
//! `pe_data` batches and hash the losses' bits, so a kernel or pass change
//! that moves one bit of a step also fails here and must restate the pin on
//! purpose. Those pins hold only for this toolchain and its libm: weight
//! initialisation and the data generators call `ln`, `sin` and `cos`.
//!
//! Derivation leaves nothing dead: on the benchmark's programs and every
//! other model family the repository builds, DCE has no launch to remove.
//!
//! On both programs the executor over the planner's plan (reuse, reshape
//! views, in-place activations and VJPs) also matches the disjoint-plan
//! oracle bit for bit and eager mode to tolerance (`support::assert_chain`),
//! and the planner's peak attribution accounts for every byte of the peak.

use std::collections::HashMap;

use pe_tests::support::{assert_chain, mlp, step_inputs};
use pockengine::pe_data::{
    generate_nlp_task, generate_vision_task, NlpTaskConfig, VisionTaskConfig,
};
use pockengine::pe_graph::{build_training_graph, TrainingGraph};
use pockengine::pe_memplan::{attribute_peak, plan_memory};
use pockengine::pe_models::{
    build_bert, build_mobilenet, mcunet_5fps_config, mcunet_tiny_config, BertConfig, BuiltModel,
    MobileNetV2Config,
};
use pockengine::pe_passes::{optimize, OptimizeOptions};
use pockengine::pe_runtime::Optimizer;
use pockengine::pe_sparse::{
    apply_rule, paper_scheme_bert, paper_scheme_distilbert, paper_scheme_mcunet,
    paper_scheme_mobilenetv2, SparseScheme, UpdateRule,
};
use pockengine::pe_tensor::{Rng, Tensor};
use pockengine::{analyze, compile, CompileOptions, ProgramAnalysis};

/// Training steps behind each loss pin: enough for every kernel of the step
/// to feed a later loss, few enough for a debug build.
const PINNED_STEPS: usize = 6;

/// The benchmark's compile options: SGD over `rule`, everything else default.
fn benchmark_options(rule: UpdateRule) -> CompileOptions {
    CompileOptions {
        update_rule: rule,
        optimizer: Optimizer::sgd(0.05),
        ..CompileOptions::default()
    }
}

fn analyze_benchmark_model(model: &BuiltModel, rule: UpdateRule) -> ProgramAnalysis {
    analyze(model, &benchmark_options(rule))
}

/// `(launches per step, executed arena bytes, fused regions)` of a program.
fn counts(analysis: &ProgramAnalysis) -> (usize, usize, usize) {
    (
        analysis.stats.launches_after,
        analysis.memory.arena_bytes,
        analysis.stats.fusion.regions,
    )
}

fn cnn_model(rng: &mut Rng) -> BuiltModel {
    build_mobilenet(&MobileNetV2Config::tiny(8, 4), rng)
}

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

/// FNV-1a 64 over each loss's bits as little-endian bytes.
fn fnv1a(losses: &[f32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in losses.iter().flat_map(|l| l.to_bits().to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn cnn_task() -> Vec<HashMap<String, Tensor>> {
    let config = VisionTaskConfig {
        num_classes: 4,
        resolution: 16,
        batch: 8,
        train_batches: 4,
        test_batches: 0,
        noise: 0.5,
        signal: 1.0,
    };
    let task = generate_vision_task("pin", config, &mut Rng::seed_from_u64(1));
    step_inputs("x", task.train)
}

fn bert_task() -> Vec<HashMap<String, Tensor>> {
    let cfg = bert_config();
    let config = NlpTaskConfig {
        num_classes: cfg.num_classes,
        vocab: cfg.vocab,
        seq_len: cfg.seq_len,
        batch: cfg.batch,
        train_batches: 4,
        test_batches: 0,
        marker_dropout: 0.1,
    };
    let task = generate_nlp_task("pin", config, &mut Rng::seed_from_u64(1));
    step_inputs("ids", task.train)
}

/// The training chain, and the peak attribution against the plan's peak,
/// on one benchmark program.
fn check_plan(model: &BuiltModel, rule: UpdateRule, batches: &[HashMap<String, Tensor>]) {
    let spec = apply_rule(model, &rule);
    let analysis = analyze_benchmark_model(model, rule);
    let (tg, schedule) = (analysis.training_graph, analysis.schedule);
    let plan = plan_memory(&tg.graph, &schedule);
    let peak = attribute_peak(&tg.graph, &schedule, &plan, 5);
    assert_eq!(peak.total_bytes(), plan.peak_transient_bytes, "{peak:?}");
    assert_eq!(
        plan.peak_transient_bytes,
        analysis.memory.transient_peak_bytes
    );
    assert!(peak.largest.iter().all(|&(_, bytes)| bytes > 0), "{peak:?}");
    assert_chain(
        &model.graph,
        model.loss,
        &spec,
        batches,
        3,
        Optimizer::sgd(0.05),
    );
}

#[test]
fn finetune_cnn_full_plan_matches_the_disjoint_oracle_and_attributes_its_peak() {
    let model = cnn_model(&mut Rng::seed_from_u64(1));
    check_plan(&model, UpdateRule::Full, &cnn_task());
}

#[test]
fn finetune_bert_sparse_plan_matches_the_disjoint_oracle_and_attributes_its_peak() {
    let model = build_bert(&bert_config(), &mut Rng::seed_from_u64(1));
    let rule = UpdateRule::Sparse(paper_scheme_distilbert());
    check_plan(&model, rule, &bert_task());
}

/// Compiles `model` under `rule` and trains it for [`PINNED_STEPS`] steps
/// on `batches`, cycled.
fn loss_hash(model: &BuiltModel, rule: UpdateRule, batches: Vec<HashMap<String, Tensor>>) -> u64 {
    let mut executor = compile(model, &benchmark_options(rule)).executor;
    let losses: Vec<f32> = (0..PINNED_STEPS)
        .map(|step| {
            let batch = &batches[step % batches.len()];
            executor.train_step(batch).unwrap().unwrap()
        })
        .collect();
    assert!(losses.iter().all(|l| l.is_finite()), "losses {losses:?}");
    fnv1a(&losses)
}

#[test]
fn finetune_cnn_full_program_counts_are_exact() {
    let model = cnn_model(&mut Rng::seed_from_u64(0));
    let analysis = analyze_benchmark_model(&model, UpdateRule::Full);
    assert_eq!(counts(&analysis), (132, 787_140, 0));
}

#[test]
fn finetune_bert_sparse_program_counts_are_exact() {
    let model = build_bert(&bert_config(), &mut Rng::seed_from_u64(0));
    let analysis = analyze_benchmark_model(&model, UpdateRule::Sparse(paper_scheme_distilbert()));
    assert_eq!(counts(&analysis), (432, 1_147_268, 0));
}

#[test]
fn finetune_cnn_full_loss_bits_are_pinned() {
    let model = cnn_model(&mut Rng::seed_from_u64(1));
    let hash = loss_hash(&model, UpdateRule::Full, cnn_task());
    assert_eq!(
        hash, 0xd183_6434_6a1a_3e1e,
        "restate the pin on purpose: {hash:#018x}"
    );
}

#[test]
fn finetune_bert_sparse_loss_bits_are_pinned() {
    let model = build_bert(&bert_config(), &mut Rng::seed_from_u64(1));
    let rule = UpdateRule::Sparse(paper_scheme_distilbert());
    let hash = loss_hash(&model, rule, bert_task());
    assert_eq!(
        hash, 0x5c1f_3195_7efe_bab3,
        "restate the pin on purpose: {hash:#018x}"
    );
}

/// Names of the nodes a backward walk from `tg`'s outputs and updates
/// never reaches: the nodes DCE would delete.
fn dead_nodes(tg: &TrainingGraph) -> Vec<&str> {
    let graph = &tg.graph;
    let mut seen = vec![false; graph.len()];
    let mut stack: Vec<_> = graph.outputs().iter().chain(&tg.updates).copied().collect();
    while let Some(id) = stack.pop() {
        if !std::mem::replace(&mut seen[id.index()], true) {
            stack.extend(&graph.node(id).inputs);
        }
    }
    let nodes = graph.nodes().iter().filter(|n| !seen[n.id.index()]);
    nodes.map(|n| n.name.as_str()).collect()
}

/// Asserts derivation left `model` nothing dead under full
/// backpropagation, bias-only and `scheme`: a backward walk reaches every
/// node, and DCE removes no launch.
fn assert_nothing_dead(model: &BuiltModel, scheme: Option<SparseScheme>) {
    let rules = [UpdateRule::Full, UpdateRule::BiasOnly];
    for rule in rules.into_iter().chain(scheme.map(UpdateRule::Sparse)) {
        let spec = apply_rule(model, &rule);
        let tg = build_training_graph(model.graph.clone(), model.loss, &spec);
        let dead = dead_nodes(&tg);
        assert!(dead.is_empty(), "{} {rule:?}: dead {dead:?}", model.name);
        let (_, _, stats) = optimize(tg, OptimizeOptions::default());
        let launches = (stats.launches_before, stats.launches_after);
        assert_eq!(launches.0, launches.1, "{} {rule:?}", model.name);
    }
}

/// Derivation emits only live nodes, in every model family the repository
/// builds: tiny, the serve family, benchmark-shaped and paper-scale (with
/// deferred weights), each under its paper sparse scheme too.
#[test]
fn derivation_leaves_nothing_for_dce_to_remove() {
    let rng = &mut Rng::seed_from_u64(0);
    for config in [mcunet_tiny_config(2, 3), mcunet_5fps_config(1)] {
        let model = build_mobilenet(&config, rng);
        assert_nothing_dead(&model, Some(paper_scheme_mcunet(model.num_blocks)));
    }
    for config in [
        MobileNetV2Config::tiny(4, 3),
        MobileNetV2Config::tiny(8, 4),
        MobileNetV2Config::paper(1.0, 1),
    ] {
        let model = build_mobilenet(&config, rng);
        assert_nothing_dead(&model, Some(paper_scheme_mobilenetv2()));
    }
    for (config, scheme) in [
        (BertConfig::tiny(4, 2), paper_scheme_bert()),
        (bert_config(), paper_scheme_distilbert()),
        (BertConfig::bert_base(1, 2), paper_scheme_bert()),
    ] {
        assert_nothing_dead(&build_bert(&config, rng), Some(scheme));
    }
    assert_nothing_dead(&mlp(4), None);
}
