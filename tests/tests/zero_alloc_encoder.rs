//! Counting-allocator proof that the arena executor runs a 6-block
//! transformer encoder training step (head split/merge permutes, batched
//! matmuls, softmax, layer norm, embeddings, GELU) without an allocating
//! fallback kernel and without touching the heap in steady state, under
//! the paper's DistilBERT sparse scheme and under full backpropagation (see
//! `zero_alloc.rs`). A single `#[test]`, because the global allocator
//! counts every thread in the process.

use std::collections::HashMap;

use pe_tests::support::{assert_steady_state_is_clean, count_ops, CountingAlloc};
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
    let tokens = HashMap::from([("ids".to_string(), ids), ("labels".to_string(), labels)]);
    let mut graph_sizes = Vec::new();
    for (what, rule) in [
        (
            "encoder, DistilBERT sparse scheme",
            UpdateRule::Sparse(paper_scheme_distilbert()),
        ),
        ("encoder, full backpropagation", UpdateRule::Full),
    ] {
        let model = build_bert(&config, &mut Rng::seed_from_u64(0));
        let options = CompileOptions {
            update_rule: rule,
            optimizer: Optimizer::sgd(0.05),
            ..CompileOptions::default()
        };
        let exec = compile(&model, &options).executor;
        let count = |wanted| count_ops(&exec, wanted);
        let blocks = config.num_blocks;
        assert!(count(|op| matches!(op, OpKind::Permute { .. })) >= 4 * blocks);
        assert!(count(|op| matches!(op, OpKind::BatchMatMul { .. })) >= 2 * blocks);
        assert!(count(|op| matches!(op, OpKind::Softmax)) >= blocks);
        assert!(count(|op| matches!(op, OpKind::LayerNorm { .. })) > 2 * blocks);
        assert_eq!(count(|op| matches!(op, OpKind::Embedding)), 2);
        graph_sizes.push(exec.training_graph().graph.len());
        assert_steady_state_is_clean(&ALLOC, exec, &tokens, 5, what);
    }
    assert!(
        graph_sizes[0] < graph_sizes[1],
        "the sparse scheme must prune the backward graph: {graph_sizes:?}"
    );
}
