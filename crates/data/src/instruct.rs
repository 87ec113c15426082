//! Synthetic instruction-tuning corpus (a stand-in for Stanford Alpaca).
//!
//! The paper fine-tunes LlamaV2-7B on 52K Alpaca instruction/response pairs
//! and evaluates with LLM judges (Alpaca-Eval, MT-Bench). Neither the model
//! weights nor the judges are available here, so the corpus is synthetic:
//! each example is an "instruction" — a task token (copy / reverse / shift)
//! followed by argument tokens — and a deterministic "response". A small
//! decoder can learn the mapping, and "instruction-following accuracy"
//! (exact-match of response tokens on held-out prompts) plays the role of the
//! Alpaca-Eval win rate when comparing full vs sparse backpropagation.

use pe_tensor::{Rng, Tensor};

/// Special tokens of the synthetic instruction grammar.
pub(crate) mod tokens {
    /// Padding / ignored.
    pub(crate) const PAD: usize = 0;
    /// Separator between instruction and response.
    pub(crate) const SEP: usize = 1;
    /// "Copy the arguments" task token.
    pub(crate) const TASK_COPY: usize = 2;
    /// "Reverse the arguments" task token.
    pub(crate) const TASK_REVERSE: usize = 3;
    /// "Shift every argument by +1" task token.
    pub(crate) const TASK_SHIFT: usize = 4;
    /// First argument token id (arguments live in `ARG_BASE..vocab`).
    pub(crate) const ARG_BASE: usize = 8;
}

/// A batch-ready instruction-tuning dataset.
#[derive(Debug, Clone)]
pub struct InstructDataset {
    /// Training batches of `(ids, next_token_labels)`.
    pub train: Vec<(Tensor, Tensor)>,
    /// Held-out prompts: `(ids, next_token_labels)`.
    pub test: Vec<(Tensor, Tensor)>,
}

/// Configuration for [`generate_instruct_dataset`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstructConfig {
    /// Vocabulary size (>= 16).
    pub vocab: usize,
    /// Sequence length (instruction + response fits inside).
    pub seq_len: usize,
    /// Number of argument tokens per instruction.
    pub num_args: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Training batches.
    pub train_batches: usize,
    /// Test batches.
    pub test_batches: usize,
}

impl Default for InstructConfig {
    fn default() -> Self {
        InstructConfig {
            vocab: 64,
            seq_len: 16,
            num_args: 5,
            batch: 8,
            train_batches: 24,
            test_batches: 4,
        }
    }
}

fn response_for(task: usize, args: &[usize], vocab: usize) -> Vec<usize> {
    match task {
        tokens::TASK_COPY => args.to_vec(),
        tokens::TASK_REVERSE => args.iter().rev().copied().collect(),
        tokens::TASK_SHIFT => args
            .iter()
            .map(|&a| {
                let next = a + 1;
                if next >= vocab {
                    tokens::ARG_BASE
                } else {
                    next
                }
            })
            .collect(),
        _ => args.to_vec(),
    }
}

/// Generates a synthetic instruction-tuning dataset with next-token labels.
pub fn generate_instruct_dataset(cfg: InstructConfig, rng: &mut Rng) -> InstructDataset {
    assert!(
        cfg.vocab >= 16,
        "vocabulary must hold the special tokens plus arguments"
    );
    assert!(
        cfg.seq_len >= 2 * cfg.num_args + 2,
        "sequence too short for instruction + response"
    );
    let tasks = [tokens::TASK_COPY, tokens::TASK_REVERSE, tokens::TASK_SHIFT];

    let make = |n_batches: usize, rng: &mut Rng| -> Vec<(Tensor, Tensor)> {
        (0..n_batches)
            .map(|_| {
                let mut ids = Tensor::zeros([cfg.batch, cfg.seq_len]);
                let mut labels = Tensor::zeros([cfg.batch, cfg.seq_len]);
                for i in 0..cfg.batch {
                    let task = tasks[rng.next_usize(tasks.len())];
                    let args: Vec<usize> = (0..cfg.num_args)
                        .map(|_| tokens::ARG_BASE + rng.next_usize(cfg.vocab - tokens::ARG_BASE))
                        .collect();
                    let response = response_for(task, &args, cfg.vocab);
                    // Sequence: TASK a1 .. an SEP r1 .. rn PAD...
                    let mut seq = vec![tokens::PAD; cfg.seq_len];
                    seq[0] = task;
                    seq[1..1 + cfg.num_args].copy_from_slice(&args);
                    seq[1 + cfg.num_args] = tokens::SEP;
                    seq[2 + cfg.num_args..2 + 2 * cfg.num_args].copy_from_slice(&response);
                    for t in 0..cfg.seq_len {
                        ids.set(&[i, t], seq[t] as f32);
                        // Next-token labels (teacher forcing): label[t] = seq[t+1].
                        let next = if t + 1 < cfg.seq_len {
                            seq[t + 1]
                        } else {
                            tokens::PAD
                        };
                        labels.set(&[i, t], next as f32);
                    }
                }
                (ids, labels)
            })
            .collect()
    };

    InstructDataset {
        train: make(cfg.train_batches, rng),
        test: make(cfg.test_batches, rng),
    }
}

/// Measures instruction-following accuracy: the fraction of *response*
/// positions whose next token is predicted correctly. `logits` has shape
/// `[batch, seq, vocab]`, `ids`/`labels` have shape `[batch, seq]`.
pub fn response_accuracy(logits: &Tensor, ids: &Tensor, labels: &Tensor, num_args: usize) -> f32 {
    let (batch, seq, vocab) = (logits.dims()[0], logits.dims()[1], logits.dims()[2]);
    let mut correct = 0usize;
    let mut total = 0usize;
    for i in 0..batch {
        // Response region starts right after the SEP token.
        let start = 1 + num_args; // predicting from the SEP position onwards
        for t in start..(start + num_args).min(seq) {
            let row = &logits.data()[(i * seq + t) * vocab..(i * seq + t + 1) * vocab];
            let pred = row
                .iter()
                .enumerate()
                .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (j, &v)| {
                    if v > bv {
                        (j, v)
                    } else {
                        (bi, bv)
                    }
                })
                .0;
            let truth = labels.at(&[i, t]) as usize;
            if truth == tokens::PAD {
                continue;
            }
            if pred == truth {
                correct += 1;
            }
            total += 1;
        }
        let _ = ids;
    }
    correct as f32 / total.max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_shapes_and_grammar() {
        let mut rng = Rng::seed_from_u64(0);
        let cfg = InstructConfig::default();
        let d = generate_instruct_dataset(cfg, &mut rng);
        let (ids, labels) = &d.train[0];
        assert_eq!(ids.dims(), &[8, 16]);
        assert_eq!(labels.dims(), &[8, 16]);
        for i in 0..8 {
            let task = ids.at(&[i, 0]) as usize;
            assert!([tokens::TASK_COPY, tokens::TASK_REVERSE, tokens::TASK_SHIFT].contains(&task));
            assert_eq!(ids.at(&[i, 1 + cfg.num_args]) as usize, tokens::SEP);
        }
    }

    #[test]
    fn labels_are_shifted_inputs() {
        let mut rng = Rng::seed_from_u64(1);
        let d = generate_instruct_dataset(InstructConfig::default(), &mut rng);
        let (ids, labels) = &d.train[0];
        for i in 0..ids.dims()[0] {
            for t in 0..ids.dims()[1] - 1 {
                assert_eq!(labels.at(&[i, t]), ids.at(&[i, t + 1]));
            }
        }
    }

    #[test]
    fn copy_task_response_matches_args() {
        let args = vec![10, 12, 14];
        assert_eq!(response_for(tokens::TASK_COPY, &args, 64), vec![10, 12, 14]);
        assert_eq!(
            response_for(tokens::TASK_REVERSE, &args, 64),
            vec![14, 12, 10]
        );
        assert_eq!(
            response_for(tokens::TASK_SHIFT, &args, 64),
            vec![11, 13, 15]
        );
        assert_eq!(
            response_for(tokens::TASK_SHIFT, &[63], 64),
            vec![tokens::ARG_BASE]
        );
    }

    #[test]
    fn response_accuracy_of_perfect_predictions_is_one() {
        let mut rng = Rng::seed_from_u64(2);
        let cfg = InstructConfig {
            batch: 4,
            ..InstructConfig::default()
        };
        let d = generate_instruct_dataset(cfg, &mut rng);
        let (ids, labels) = &d.test[0];
        // Build one-hot logits that exactly match the labels.
        let (b, s) = (ids.dims()[0], ids.dims()[1]);
        let mut logits = Tensor::zeros([b, s, cfg.vocab]);
        for i in 0..b {
            for t in 0..s {
                let truth = labels.at(&[i, t]) as usize;
                logits.set(&[i, t, truth], 10.0);
            }
        }
        let acc = response_accuracy(&logits, ids, labels, cfg.num_args);
        assert!((acc - 1.0).abs() < 1e-6);
        // Uniform logits should be far from perfect.
        let uniform = Tensor::zeros([b, s, cfg.vocab]);
        assert!(response_accuracy(&uniform, ids, labels, cfg.num_args) < 0.5);
    }
}
