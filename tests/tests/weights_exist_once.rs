//! Counting-allocator proof that compiling and training a program holds
//! each frozen weight once. The model's initial values are shared by every
//! graph the compiler derives from it and by the parameter store; only a
//! parameter the program updates gets a second, owned buffer. The program
//! is the benchmark's `finetune_bert_sparse` encoder under the paper's
//! DistilBERT sparse scheme, where most weights are frozen. A single
//! `#[test]`, because the global allocator counts every thread in the
//! process.

use std::collections::HashMap;

use pe_tests::support::CountingAlloc;
use pockengine::pe_models::{build_bert, BertConfig};
use pockengine::pe_runtime::Optimizer;
use pockengine::pe_sparse::{paper_scheme_distilbert, UpdateRule};
use pockengine::pe_tensor::{Rng, Tensor};
use pockengine::{compile, CompileOptions};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn compiling_and_training_the_encoder_holds_each_frozen_weight_once() {
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
    let mut data_rng = Rng::seed_from_u64(1);
    let mut ids = Tensor::zeros([config.batch, config.seq_len]);
    for id in ids.data_mut() {
        *id = data_rng.next_usize(config.vocab) as f32;
    }
    let labels = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], [config.batch]);
    let inputs = HashMap::from([("ids".to_string(), ids), ("labels".to_string(), labels)]);

    let base = ALLOC.live_bytes();
    ALLOC.reset_peak();
    let model = build_bert(&config, &mut Rng::seed_from_u64(0));
    let options = CompileOptions {
        update_rule: UpdateRule::Sparse(paper_scheme_distilbert()),
        optimizer: Optimizer::sgd(0.05),
        ..CompileOptions::default()
    };
    let program = compile(&model, &options);
    let mut exec = program.executor;
    for _ in 0..10 {
        exec.train_step(&inputs).unwrap().unwrap();
    }
    let peak = ALLOC.peak_bytes() - base;
    let live = ALLOC.live_bytes() - base;

    let weight_bytes: usize = model
        .graph
        .params()
        .values()
        .filter_map(|p| p.init.tensor())
        .map(|t| t.numel() * 4)
        .sum();
    let arena_bytes = program.analysis.memory.arena_bytes;
    assert_eq!(weight_bytes, 957_192, "the encoder's initial weights");
    assert_eq!(arena_bytes, 1_147_268, "the encoder's arena");
    // Everything else at the peak: the owned copies of the 50,626 updated
    // elements (202,504 B), the training graph (one, shared by the analysis
    // and the executor, whose steps read their ops and dims from it), the
    // schedule, the plan and the step's bookkeeping. Measured at 572,870 B
    // on x86-64 Linux, in debug and release builds alike (peak 2,677,330 B).
    // The bound leaves ~10 % headroom, yet one more copy of the training
    // graph (~107 KB) breaks it, and so does one more copy of the weights.
    // Before initial values were shared, compile held four copies of every
    // weight and the peak was 5,758,077 B; a dead-code pass that rebuilt
    // the training graph added 39,128 B more (its node vector grew to
    // 1,024 slots).
    const OTHER_BYTES: usize = 636_000;
    let bound = (weight_bytes + arena_bytes + OTHER_BYTES) as u64;
    assert!(
        peak <= bound,
        "compiling and training the encoder peaked at {peak} B of live heap, over \
         {bound} B: one copy of the {weight_bytes} B of weights, the {arena_bytes} B \
         arena and {OTHER_BYTES} B for the rest; a weight or a graph is being copied"
    );
    // What stays live after the ten steps, with the model, the analysis and
    // the executor all held: one copy of the weights, the arena, and 538,128
    // B for the rest on x86-64 Linux. The executor keeps only what it runs:
    // not the node-indexed memory plan (30,240 B on this 540-node graph) nor
    // a second schedule (4,320 B), which used to stay live for its whole life.
    // The bound leaves less headroom than the plan.
    const LIVE_OTHER_BYTES: usize = 553_000;
    let live_bound = (weight_bytes + arena_bytes + LIVE_OTHER_BYTES) as u64;
    assert!(
        live <= live_bound,
        "after ten training steps the encoder held {live} B of live heap, over \
         {live_bound} B: one copy of the weights, the arena and {LIVE_OTHER_BYTES} B \
         for the rest; the executor is keeping something it does not run"
    );
}
