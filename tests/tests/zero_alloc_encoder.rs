//! Counting-allocator proof that the arena executor runs a *transformer
//! encoder* training step — head split/merge permutes, batched matmuls,
//! softmax, layer norm, embedding lookups, GELU — without an allocating
//! fallback kernel and without touching the heap in steady state, both under
//! the paper's DistilBERT sparse scheme and under full backpropagation.
//! With `zero_alloc.rs` (MLP) and `zero_alloc_cnn.rs` this makes the
//! guarantee per op kind rather than per model. A single `#[test]`, because
//! the global allocator counts every thread in the process.

use std::collections::HashMap;

use pe_tests::support::CountingAlloc;
use pockengine::pe_graph::OpKind;
use pockengine::pe_models::{build_bert, BertConfig};
use pockengine::pe_runtime::Optimizer;
use pockengine::pe_sparse::{paper_scheme_distilbert, UpdateRule};
use pockengine::pe_tensor::{Rng, Tensor};
use pockengine::{compile, CompileOptions};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn encoder_training_step_has_zero_fallbacks_and_zero_allocations() {
    // `BertConfig::tiny` has two blocks, on which the paper's schemes prune
    // nothing; six leave the DistilBERT scheme frozen blocks to cut the
    // backward graph at (the shape of the benchmark's `finetune_bert_sparse`).
    let config = BertConfig {
        num_blocks: 6,
        ..BertConfig::tiny(2, 2)
    };
    let mut data_rng = Rng::seed_from_u64(1);
    let mut ids = Tensor::zeros([config.batch, config.seq_len]);
    for id in ids.data_mut() {
        *id = data_rng.next_usize(config.vocab) as f32;
    }
    let labels = Tensor::from_vec(vec![0.0, 1.0], [config.batch]);
    let inputs = HashMap::from([("ids".to_string(), ids), ("labels".to_string(), labels)]);

    let mut graph_sizes = Vec::new();
    for (what, rule) in [
        (
            "DistilBERT sparse scheme",
            UpdateRule::Sparse(paper_scheme_distilbert()),
        ),
        ("full backpropagation", UpdateRule::Full),
    ] {
        let model = build_bert(&config, &mut Rng::seed_from_u64(0));
        let options = CompileOptions {
            update_rule: rule,
            optimizer: Optimizer::sgd(0.05),
            ..CompileOptions::default()
        };
        let mut exec = compile(&model, &options).executor;

        // The program must contain the op kinds this file is about.
        let nodes = exec.training_graph().graph.nodes();
        let count = |wanted: fn(&OpKind) -> bool| nodes.iter().filter(|n| wanted(&n.op)).count();
        assert!(count(|op| matches!(op, OpKind::Permute { .. })) >= 4 * config.num_blocks);
        assert!(count(|op| matches!(op, OpKind::BatchMatMul { .. })) >= 2 * config.num_blocks);
        assert!(count(|op| matches!(op, OpKind::Softmax)) >= config.num_blocks);
        assert!(count(|op| matches!(op, OpKind::LayerNorm { .. })) > 2 * config.num_blocks);
        assert_eq!(count(|op| matches!(op, OpKind::Embedding)), 2);
        graph_sizes.push(nodes.len());

        let mut losses = Vec::with_capacity(4);
        for _ in 0..3 {
            losses.push(exec.train_step(&inputs).unwrap().unwrap());
        }

        // As in `zero_alloc.rs`: the counter is process-global, so require
        // one clean window out of several rather than an unconditionally
        // clean run; an executor allocation would show in every window.
        let steps = 5;
        let windows = 3;
        let mut sink = 0.0f32;
        let mut counts = Vec::with_capacity(windows);
        for _ in 0..windows {
            let before = ALLOC.count();
            for _ in 0..steps {
                sink += exec.train_step(&inputs).unwrap().unwrap();
            }
            counts.push(ALLOC.count() - before);
        }
        assert!(sink.is_finite(), "{what}: loss must stay finite");
        assert!(
            counts.contains(&0),
            "{what}: steady-state encoder steps must perform zero heap allocations \
             (allocations per {steps}-step window: {counts:?})"
        );
        assert_eq!(
            exec.fallback_dispatches(),
            0,
            "{what}: the encoder must not dispatch any allocating fallback kernel"
        );
        let final_loss = exec.train_step(&inputs).unwrap().unwrap();
        assert!(
            final_loss < losses[0],
            "{what}: loss should decrease: {} -> {final_loss}",
            losses[0]
        );
    }
    assert!(
        graph_sizes[0] < graph_sizes[1],
        "the sparse scheme must prune the backward graph: {graph_sizes:?}"
    );
}
