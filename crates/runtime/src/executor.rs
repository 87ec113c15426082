//! The compiled-program executor.
//!
//! The executor is the slim runtime the compilation workflow targets: it
//! walks a pre-computed schedule, dispatches each node to the shared kernel
//! library, and applies parameter updates in place when it reaches
//! `ApplyUpdate` nodes. There is no graph construction, autodiff, or shape
//! inference at runtime.
//!
//! There is one executor. It runs out of one preallocated slab sized by the
//! memory planner: every transient buffer is a view at a compile-time
//! offset, so a steady-state training step performs no heap allocation. Its
//! differential oracle is the same executor over a plan that reuses no range
//! and aliases nothing in place (`plan_disjoint` in the integration suites'
//! support module), which the planned executor must match bit for bit.

use std::collections::HashMap;
use std::sync::Arc;

use pe_graph::TrainingGraph;
use pe_passes::Schedule;
use pe_tensor::Tensor;

pub use crate::arena::Executor;
use crate::optimizer::Optimizer;
use crate::store::ParamStore;

/// Executor options. It carries no setting — every executor is the arena
/// executor — and is kept, field-less, only because the benchmark harness
/// names it; the next change to that harness deletes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ExecutorConfig;

/// Error raised when step inputs do not match the program signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A required step input was not provided.
    MissingInput(String),
    /// A provided step input has the wrong shape.
    InputShapeMismatch {
        /// Input name.
        name: String,
        /// Expected dims.
        expected: Vec<usize>,
        /// Provided dims.
        actual: Vec<usize>,
    },
    /// A provided step input holds a value used as a class or token index
    /// that is not an integer in `0..bound`.
    InputIndexOutOfRange {
        /// Input name.
        name: String,
        /// Flat position of the first such value.
        position: usize,
        /// Exclusive bound: the class count or the vocabulary size.
        bound: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::MissingInput(name) => write!(f, "missing step input '{name}'"),
            ExecError::InputShapeMismatch {
                name,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "input '{name}' has shape {actual:?}, expected {expected:?}"
                )
            }
            ExecError::InputIndexOutOfRange {
                name,
                position,
                bound,
            } => write!(
                f,
                "input '{name}' holds a value at {position} that is not an integer in 0..{bound}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Validates one step input against its graph node: presence and shape.
pub(crate) fn check_input<'a>(
    node: &pe_graph::Node,
    inputs: &'a HashMap<String, Tensor>,
) -> Result<&'a Tensor, ExecError> {
    let provided = inputs
        .get(&node.name)
        .ok_or_else(|| ExecError::MissingInput(node.name.clone()))?;
    if provided.shape() != &node.shape {
        return Err(ExecError::InputShapeMismatch {
            name: node.name.clone(),
            expected: node.shape.dims().to_vec(),
            actual: provided.dims().to_vec(),
        });
    }
    Ok(provided)
}

/// Result of executing one training (or evaluation) step.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// Value of the loss node, if the program has one.
    pub loss: Option<f32>,
    /// Values of the graph outputs, keyed by node name.
    pub outputs: HashMap<String, Tensor>,
}

// Executors are moved into the engine's drainer thread, and a served store
// is read by network threads answering snapshot requests. Assert both at
// compile time so a future non-`Send` field (e.g. an `Rc` cache) cannot
// silently break every consumer that owns executors on a background thread.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}
    assert_send::<Executor>();
    assert_send::<ParamStore>();
    assert_sync::<ParamStore>();
};

impl Executor {
    /// Builds an executor with a private parameter store.
    pub fn new(
        tg: impl Into<Arc<TrainingGraph>>,
        schedule: Schedule,
        optimizer: Optimizer,
    ) -> Self {
        let tg = tg.into();
        let store = Arc::new(ParamStore::from_graph(&tg.graph, optimizer));
        Executor::with_store(tg, schedule, store)
    }

    /// [`Executor::new`]: the [`ExecutorConfig`] carries no setting.
    pub fn with_config(
        tg: impl Into<Arc<TrainingGraph>>,
        schedule: Schedule,
        optimizer: Optimizer,
        _config: ExecutorConfig,
    ) -> Self {
        Executor::new(tg, schedule, optimizer)
    }

    /// Builds an executor that borrows parameters and optimizer state from a
    /// shared [`ParamStore`] instead of materialising its own copies, so
    /// several batch-size specializations train one canonical set of
    /// weights. The graph may be passed owned or as an `Arc` the caller
    /// keeps.
    ///
    /// # Panics
    ///
    /// Panics if a parameter of the graph is missing from the store or has a
    /// mismatched shape.
    pub fn with_store(
        tg: impl Into<Arc<TrainingGraph>>,
        schedule: Schedule,
        store: Arc<ParamStore>,
    ) -> Self {
        Executor::with_store_and_plan(tg, schedule, store, None)
    }

    /// Current value of a parameter looked up by name.
    pub fn param_by_name(&self, name: &str) -> Option<Tensor> {
        let id = self.training_graph().graph.find_param(name)?;
        self.param(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_graph::{build_training_graph, GraphBuilder, TrainKind, TrainSpec};
    use pe_passes::{build_schedule, ScheduleStrategy};
    use pe_tensor::Rng;

    /// Builds a small linear-regression-style training program.
    fn compile_mlp(spec_for: impl Fn(&str) -> TrainKind) -> Executor {
        let mut rng = Rng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [8, 4]);
        let labels = b.input("labels", [8]);
        let w1 = b.weight("fc1.weight", [16, 4], &mut rng);
        let b1 = b.bias("fc1.bias", 16);
        let h = b.linear(x, w1, Some(b1));
        let h = b.relu(h);
        let w2 = b.weight("fc2.weight", [3, 16], &mut rng);
        let b2 = b.bias("fc2.bias", 3);
        let logits = b.linear(h, w2, Some(b2));
        let loss = b.cross_entropy(logits, labels);
        let g = b.finish(vec![loss, logits]);
        let mut spec = TrainSpec::new();
        for id in g.params().keys() {
            spec.insert(*id, spec_for(&g.node(*id).name));
        }
        let tg = build_training_graph(g, loss, &spec);
        let schedule = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
        Executor::new(tg, schedule, Optimizer::sgd(0.1))
    }

    fn batch(rng: &mut Rng) -> HashMap<String, Tensor> {
        // Simple separable task: class = argmax of the first 3 features.
        let mut x = Tensor::zeros([8, 4]);
        let mut labels = Tensor::zeros([8]);
        for i in 0..8 {
            let c = rng.next_usize(3);
            for j in 0..4 {
                x.set(&[i, j], rng.normal() * 0.1);
            }
            x.set(&[i, c], 2.0 + rng.normal() * 0.1);
            labels.data_mut()[i] = c as f32;
        }
        HashMap::from([("x".to_string(), x), ("labels".to_string(), labels)])
    }

    #[test]
    fn training_reduces_loss() {
        let mut exec = compile_mlp(|_| TrainKind::Full);
        let mut rng = Rng::seed_from_u64(7);
        let first = exec.run_step(&batch(&mut rng)).unwrap().loss.unwrap();
        let mut last = first;
        for _ in 0..30 {
            last = exec.run_step(&batch(&mut rng)).unwrap().loss.unwrap();
        }
        assert!(
            last < first * 0.7,
            "loss should drop: first {first}, last {last}"
        );
        assert_eq!(exec.param_store().steps_completed(), 31);
    }

    #[test]
    fn bias_only_training_still_learns_but_freezes_weights() {
        let mut exec = compile_mlp(|name| {
            if name.ends_with("bias") {
                TrainKind::Full
            } else {
                TrainKind::Frozen
            }
        });
        let w_before = exec.param_by_name("fc1.weight").unwrap().clone();
        let b_before = exec.param_by_name("fc2.bias").unwrap().clone();
        let mut rng = Rng::seed_from_u64(8);
        for _ in 0..10 {
            exec.run_step(&batch(&mut rng)).unwrap();
        }
        let w_after = exec.param_by_name("fc1.weight").unwrap();
        let b_after = exec.param_by_name("fc2.bias").unwrap();
        assert!(
            w_before.allclose(&w_after, 0.0),
            "frozen weight must not change"
        );
        assert!(
            !b_before.allclose(&b_after, 1e-7),
            "trainable bias must change"
        );
    }

    #[test]
    fn eval_does_not_touch_parameters() {
        let mut exec = compile_mlp(|_| TrainKind::Full);
        let mut rng = Rng::seed_from_u64(9);
        let before = exec.param_by_name("fc1.weight").unwrap().clone();
        let result = exec.run_eval(&batch(&mut rng)).unwrap();
        assert!(result.loss.is_some());
        let after = exec.param_by_name("fc1.weight").unwrap();
        assert!(before.allclose(&after, 0.0));
        assert_eq!(exec.param_store().steps_completed(), 0);
    }

    #[test]
    fn missing_input_is_reported() {
        let mut exec = compile_mlp(|_| TrainKind::Full);
        let err = exec.run_step(&HashMap::new()).unwrap_err();
        assert!(matches!(err, ExecError::MissingInput(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn wrong_shape_is_reported() {
        let mut exec = compile_mlp(|_| TrainKind::Full);
        let inputs = HashMap::from([
            ("x".to_string(), Tensor::zeros([8, 5])),
            ("labels".to_string(), Tensor::zeros([8])),
        ]);
        let err = exec.run_step(&inputs).unwrap_err();
        assert!(matches!(err, ExecError::InputShapeMismatch { .. }));
    }

    #[test]
    fn outputs_contain_logits() {
        let mut exec = compile_mlp(|_| TrainKind::Full);
        let mut rng = Rng::seed_from_u64(10);
        let result = exec.run_step(&batch(&mut rng)).unwrap();
        // The logits node is the second declared output; find it by shape.
        let logits = result.outputs.values().find(|t| t.dims() == [8, 3]);
        assert!(
            logits.is_some(),
            "expected a [8, 3] logits output, got {:?}",
            result.outputs.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn train_step_loss_matches_run_step() {
        let mut a = compile_mlp(|_| TrainKind::Full);
        let mut b = compile_mlp(|_| TrainKind::Full);
        let mut rng = Rng::seed_from_u64(12);
        for _ in 0..4 {
            let data = batch(&mut rng);
            let la = a.train_step(&data).unwrap().unwrap();
            let lb = b.run_step(&data).unwrap().loss.unwrap();
            assert_eq!(la.to_bits(), lb.to_bits());
        }
        assert_eq!(a.fallback_dispatches(), 0, "MLP must not fall back");
    }
}
