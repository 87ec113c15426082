//! Eager baseline engine (runtime auto-differentiation).
//!
//! Conventional frameworks (PyTorch, TensorFlow eager) re-derive the backward
//! computation every step at runtime and keep all gradients alive until a
//! separate optimizer pass (paper Figure 7). `EagerEngine` reproduces that
//! behaviour on top of the same kernels so that the compile-time engine can
//! be compared against it directly: each call to [`EagerEngine::run_step`]
//! re-runs autodiff, runs no graph optimisations, and schedules every update
//! at the end of the step.

use std::collections::HashMap;
use std::sync::Arc;

use pe_graph::{build_training_graph, Graph, NodeId, TrainSpec};
use pe_passes::{build_schedule, ScheduleStrategy};
use pe_tensor::Tensor;

use crate::executor::{ExecError, Executor, ExecutorConfig, StepResult};
use crate::optimizer::Optimizer;
use crate::store::ParamStore;

/// A deliberately conventional training engine: runtime autodiff, no graph
/// optimisation, updates at the end of the step.
///
/// Parameters live in a shared [`ParamStore`] (like any executor); each step
/// builds a throwaway executor that *borrows* the store, so values persist
/// across steps without the copy-in/copy-out a private parameter map used to
/// require. The expensive part — re-deriving the backward graph — is still
/// paid on every step, which is the point of the baseline.
#[derive(Debug)]
pub struct EagerEngine {
    forward: Graph,
    loss: NodeId,
    spec: TrainSpec,
    store: Arc<ParamStore>,
}

impl EagerEngine {
    /// Creates an eager engine over a forward graph.
    pub fn new(forward: Graph, loss: NodeId, spec: TrainSpec, optimizer: Optimizer) -> Self {
        let store = Arc::new(ParamStore::from_graph(&forward, optimizer));
        EagerEngine {
            forward,
            loss,
            spec,
            store,
        }
    }

    /// [`EagerEngine::new`]: the [`ExecutorConfig`] carries no setting.
    pub fn with_config(
        forward: Graph,
        loss: NodeId,
        spec: TrainSpec,
        optimizer: Optimizer,
        _config: ExecutorConfig,
    ) -> Self {
        EagerEngine::new(forward, loss, spec, optimizer)
    }

    /// Current value of a parameter looked up by name.
    pub fn param_by_name(&self, name: &str) -> Option<Tensor> {
        let id = self.forward.find_param(name)?;
        self.store.get(&self.forward.param_key(id))
    }

    /// Runs one training step, re-deriving the backward graph (runtime
    /// autodiff) before executing it.
    ///
    /// # Errors
    ///
    /// Returns an error if a step input is missing or mis-shaped.
    pub fn run_step(&mut self, inputs: &HashMap<String, Tensor>) -> Result<StepResult, ExecError> {
        // Runtime autodiff: this work is repeated on every step, which is
        // exactly the overhead the compilation-first design removes.
        let tg = build_training_graph(self.forward.clone(), self.loss, &self.spec);
        let schedule = build_schedule(&tg.graph, ScheduleStrategy::Conventional);
        let mut exec = Executor::with_store(tg, schedule, Arc::clone(&self.store));
        exec.run_step(inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_graph::GraphBuilder;
    use pe_tensor::Rng;

    fn forward() -> (Graph, NodeId) {
        let mut rng = Rng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [4, 8]);
        let labels = b.input("labels", [4]);
        let w = b.weight("fc.weight", [3, 8], &mut rng);
        let bias = b.bias("fc.bias", 3);
        let logits = b.linear(x, w, Some(bias));
        let loss = b.cross_entropy(logits, labels);
        let g = b.finish(vec![loss, logits]);
        (g, loss)
    }

    fn batch(rng: &mut Rng) -> HashMap<String, Tensor> {
        let mut x = Tensor::zeros([4, 8]);
        let mut labels = Tensor::zeros([4]);
        for i in 0..4 {
            let c = rng.next_usize(3);
            x.set(&[i, c], 1.5);
            labels.data_mut()[i] = c as f32;
        }
        HashMap::from([("x".to_string(), x), ("labels".to_string(), labels)])
    }

    #[test]
    fn eager_engine_learns() {
        let (g, loss) = forward();
        let mut engine = EagerEngine::new(g, loss, TrainSpec::new(), Optimizer::sgd(0.5));
        let mut rng = Rng::seed_from_u64(1);
        let first = engine.run_step(&batch(&mut rng)).unwrap().loss.unwrap();
        let mut last = first;
        for _ in 0..20 {
            last = engine.run_step(&batch(&mut rng)).unwrap().loss.unwrap();
        }
        assert!(last < first);
        assert_eq!(engine.store.steps_completed(), 21);
    }

    #[test]
    fn eager_and_compiled_agree_numerically() {
        // Same seed, same data, same optimizer: after one step the updated
        // parameters must match between the eager baseline and the compiled
        // engine.
        let (g, loss) = forward();
        let mut eager = EagerEngine::new(g.clone(), loss, TrainSpec::new(), Optimizer::sgd(0.1));
        let tg = build_training_graph(g, loss, &TrainSpec::new());
        let schedule = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
        let mut compiled = Executor::new(tg, schedule, Optimizer::sgd(0.1));

        let mut rng = Rng::seed_from_u64(2);
        let data = batch(&mut rng);
        let l1 = eager.run_step(&data).unwrap().loss.unwrap();
        let l2 = compiled.run_step(&data).unwrap().loss.unwrap();
        assert!((l1 - l2).abs() < 1e-5, "losses diverge: {l1} vs {l2}");

        let w_eager = eager.param_by_name("fc.weight").unwrap();
        let w_compiled = compiled.param_by_name("fc.weight").unwrap();
        assert!(
            w_eager.allclose(&w_compiled, 1e-5),
            "parameters diverge after one step"
        );
    }
}
