//! Training-loop utilities: batching, loss tracking and classification
//! metrics shared by the examples and the reproduction harness.

use std::collections::HashMap;

use pe_tensor::Tensor;

use crate::executor::{ExecError, Executor};

/// A labelled classification batch.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Feature tensor (its name must match the graph input).
    pub(crate) features: Tensor,
    /// Integer class labels stored as floats.
    pub(crate) labels: Tensor,
}

impl Batch {
    /// Creates a batch.
    pub fn new(features: Tensor, labels: Tensor) -> Self {
        Batch { features, labels }
    }
}

/// Running record of a training session.
#[derive(Debug, Clone, Default)]
pub struct TrainingHistory {
    /// Loss after each step, in order.
    pub losses: Vec<f32>,
}

/// Drives an [`Executor`] over batches and tracks metrics.
#[derive(Debug)]
pub struct Trainer {
    executor: Executor,
    feature_input: String,
    label_input: String,
    logits_output: String,
    history: TrainingHistory,
}

impl Trainer {
    /// Creates a trainer.
    ///
    /// `feature_input` / `label_input` are the graph input names the batches
    /// bind to, and `logits_output` is the output node name used for
    /// accuracy computation.
    pub fn new(
        executor: Executor,
        feature_input: impl Into<String>,
        label_input: impl Into<String>,
        logits_output: impl Into<String>,
    ) -> Self {
        Trainer {
            executor,
            feature_input: feature_input.into(),
            label_input: label_input.into(),
            logits_output: logits_output.into(),
            history: TrainingHistory::default(),
        }
    }

    /// The training history so far.
    pub fn history(&self) -> &TrainingHistory {
        &self.history
    }

    /// The wrapped executor.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    fn bind(&self, batch: &Batch) -> HashMap<String, Tensor> {
        HashMap::from([
            (self.feature_input.clone(), batch.features.clone()),
            (self.label_input.clone(), batch.labels.clone()),
        ])
    }

    /// Runs one optimisation step on a batch and returns the loss.
    ///
    /// # Errors
    ///
    /// Propagates executor input errors.
    pub(crate) fn train_step(&mut self, batch: &Batch) -> Result<f32, ExecError> {
        let result = self.executor.run_step(&self.bind(batch))?;
        let loss = result.loss.unwrap_or(f32::NAN);
        self.history.losses.push(loss);
        Ok(loss)
    }

    /// Runs an epoch over the given batches, returning the mean loss.
    ///
    /// # Errors
    ///
    /// Propagates executor input errors.
    pub fn train_epoch(&mut self, batches: &[Batch]) -> Result<f32, ExecError> {
        let mut total = 0.0;
        for batch in batches {
            total += self.train_step(batch)?;
        }
        Ok(total / batches.len().max(1) as f32)
    }

    /// Computes classification accuracy over the given batches without
    /// updating parameters.
    ///
    /// # Errors
    ///
    /// Propagates executor input errors.
    pub fn evaluate(&mut self, batches: &[Batch]) -> Result<f32, ExecError> {
        let mut correct = 0usize;
        let mut total = 0usize;
        for batch in batches {
            let result = self.executor.run_eval(&self.bind(batch))?;
            let logits = result
                .outputs
                .get(&self.logits_output)
                .unwrap_or_else(|| panic!("output '{}' not found", self.logits_output));
            let preds = logits.argmax_rows();
            for (i, &p) in preds.iter().enumerate() {
                if p == batch.labels.data()[i] as usize {
                    correct += 1;
                }
                total += 1;
            }
        }
        Ok(correct as f32 / total.max(1) as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Optimizer;
    use pe_graph::{build_training_graph, GraphBuilder, TrainSpec};
    use pe_passes::{build_schedule, ScheduleStrategy};
    use pe_tensor::Rng;

    fn make_trainer(lr: f32) -> Trainer {
        let mut rng = Rng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [16, 8]);
        let labels = b.input("labels", [16]);
        let w = b.weight("fc.weight", [4, 8], &mut rng);
        let bias = b.bias("fc.bias", 4);
        let logits = b.linear(x, w, Some(bias));
        let loss = b.cross_entropy(logits, labels);
        let logits_name = b.graph().node(logits).name.clone();
        let g = b.finish(vec![loss, logits]);
        let tg = build_training_graph(g, loss, &TrainSpec::new());
        let schedule = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
        Trainer::new(
            Executor::new(tg, schedule, Optimizer::sgd(lr)),
            "x",
            "labels",
            logits_name,
        )
    }

    fn toy_batches(n: usize, seed: u64) -> Vec<Batch> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut x = Tensor::zeros([16, 8]);
                let mut y = Tensor::zeros([16]);
                for i in 0..16 {
                    let c = rng.next_usize(4);
                    for j in 0..8 {
                        x.set(&[i, j], rng.normal() * 0.2);
                    }
                    x.set(&[i, c * 2], 2.0);
                    y.data_mut()[i] = c as f32;
                }
                Batch::new(x, y)
            })
            .collect()
    }

    #[test]
    fn training_improves_accuracy() {
        let mut trainer = make_trainer(0.2);
        let train = toy_batches(20, 1);
        let test = toy_batches(4, 2);
        let before = trainer.evaluate(&test).unwrap();
        for _ in 0..5 {
            trainer.train_epoch(&train).unwrap();
        }
        let after = trainer.evaluate(&test).unwrap();
        assert!(
            after > before,
            "accuracy should improve: {before} -> {after}"
        );
        assert!(
            after > 0.9,
            "this separable task should be learned, got {after}"
        );
        let losses = &trainer.history().losses;
        assert!(losses[losses.len() - 1] < losses[0]);
    }

    #[test]
    fn history_tracks_every_step() {
        let mut trainer = make_trainer(0.1);
        let batches = toy_batches(7, 3);
        trainer.train_epoch(&batches).unwrap();
        assert_eq!(trainer.history().losses.len(), 7);
        let tail = &trainer.history().losses[4..];
        assert!(tail.iter().sum::<f32>() / 3.0 > 0.0);
    }

    #[test]
    fn batch_accessors() {
        let b = Batch::new(Tensor::zeros([4, 2]), Tensor::zeros([4]));
        assert_eq!(b.features.dims(), &[4, 2]);
        assert_eq!(b.labels.numel(), 4);
    }
}
