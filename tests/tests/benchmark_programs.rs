//! Exact compile-time counts of the two programs the benchmark's finetune
//! workloads train (`benchmarks/src/finetune.rs`): a tiny MobileNetV2 under
//! full backpropagation and a 6-block encoder under the paper's DistilBERT
//! sparse scheme. The arena bytes are `analysis.memory.arena_bytes`: the slab
//! the executor allocates for the step. A pass that adds or removes a kernel
//! launch, or a planner change that moves a byte of the arena, fails here and
//! must restate the count on purpose.

use pockengine::pe_models::{
    build_bert, build_mobilenet, BertConfig, BuiltModel, MobileNetV2Config,
};
use pockengine::pe_runtime::Optimizer;
use pockengine::pe_sparse::{paper_scheme_distilbert, UpdateRule};
use pockengine::pe_tensor::Rng;
use pockengine::{analyze, CompileOptions, ProgramAnalysis};

/// The benchmark's compile options: SGD over `rule`, everything else default.
fn analyze_benchmark_model(model: &BuiltModel, rule: UpdateRule) -> ProgramAnalysis {
    let options = CompileOptions {
        update_rule: rule,
        optimizer: Optimizer::sgd(0.05),
        ..CompileOptions::default()
    };
    analyze(model, &options)
}

/// `(launches per step, executed arena bytes, fused regions)` of a program.
fn counts(analysis: &ProgramAnalysis) -> (usize, usize, usize) {
    (
        analysis.stats.launches_after,
        analysis.memory.arena_bytes,
        analysis.stats.fusion.regions,
    )
}

#[test]
fn finetune_cnn_full_program_counts_are_exact() {
    let model = build_mobilenet(&MobileNetV2Config::tiny(8, 4), &mut Rng::seed_from_u64(0));
    let analysis = analyze_benchmark_model(&model, UpdateRule::Full);
    assert_eq!(counts(&analysis), (132, 852_676, 0));
}

#[test]
fn finetune_bert_sparse_program_counts_are_exact() {
    let config = BertConfig {
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
    };
    let model = build_bert(&config, &mut Rng::seed_from_u64(0));
    let analysis = analyze_benchmark_model(&model, UpdateRule::Sparse(paper_scheme_distilbert()));
    assert_eq!(counts(&analysis), (432, 1_343_812, 0));
}
