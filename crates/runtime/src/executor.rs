//! The compiled-program executor.
//!
//! The executor is the slim runtime the compilation workflow targets: it
//! walks a pre-computed schedule, dispatches each node to the shared kernel
//! library, and applies parameter updates in place when it reaches
//! `ApplyUpdate` nodes. There is no graph construction, autodiff, or shape
//! inference at runtime.
//!
//! Two backends implement that contract:
//!
//! * the **arena** backend (default) executes out of one preallocated slab
//!   sized by the memory planner — every transient buffer is a view at a
//!   compile-time offset, so a steady-state training step performs no heap
//!   allocation;
//! * the **boxed** backend allocates an owned tensor per node and frees it
//!   at its compile-time free position; it is kept as the differential
//!   baseline (`PE_EXECUTOR=boxed`) that the arena backend must match bit
//!   for bit.

use std::collections::HashMap;
use std::sync::Arc;

use pe_graph::{NodeId, TrainingGraph};
use pe_passes::Schedule;
use pe_tensor::{DType, Tensor};

use crate::arena::ArenaExec;
use crate::boxed::BoxedExec;
use crate::optimizer::Optimizer;
use crate::store::ParamStore;

/// Which executor backend runs the compiled program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The arena-slab executor (zero transient allocations). The default.
    #[default]
    Arena,
    /// The per-node-buffer executor kept as the differential baseline.
    Boxed,
}

impl Backend {
    /// Short lowercase name (`"arena"` / `"boxed"`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Arena => "arena",
            Backend::Boxed => "boxed",
        }
    }
}

/// Explicit executor selection, threaded through [`Executor::with_config`],
/// the trainer and the engine instead of ambient environment variables.
///
/// [`ExecutorConfig::default`] (and therefore [`Executor::new`]) still honours
/// `PE_EXECUTOR` as a *fallback default* via [`ExecutorConfig::from_env`], so
/// existing workflows keep working; code that wants a specific backend
/// passes a config explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecutorConfig {
    /// The backend to execute with.
    pub backend: Backend,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig::from_env()
    }
}

impl ExecutorConfig {
    /// Arena backend.
    pub fn arena() -> Self {
        ExecutorConfig {
            backend: Backend::Arena,
        }
    }

    /// Boxed differential-baseline backend.
    pub fn boxed() -> Self {
        ExecutorConfig {
            backend: Backend::Boxed,
        }
    }

    /// Reads the fallback default from the environment: `PE_EXECUTOR=boxed`
    /// selects the boxed baseline (default: arena).
    pub fn from_env() -> Self {
        let backend = std::env::var("PE_EXECUTOR").unwrap_or_default();
        if backend.eq_ignore_ascii_case("boxed") || backend.eq_ignore_ascii_case("hashmap") {
            return ExecutorConfig::boxed();
        }
        ExecutorConfig::arena()
    }
}

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
    /// A provided step input has the wrong logical dtype.
    InputDTypeMismatch {
        /// Input name.
        name: String,
        /// Expected dtype.
        expected: DType,
        /// Provided dtype.
        actual: DType,
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
            ExecError::InputDTypeMismatch {
                name,
                expected,
                actual,
            } => {
                write!(f, "input '{name}' has dtype {actual}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Validates one step input against its graph node: presence, shape, dtype.
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
    if provided.dtype() != node.dtype {
        return Err(ExecError::InputDTypeMismatch {
            name: node.name.clone(),
            expected: node.dtype,
            actual: provided.dtype(),
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

impl StepResult {
    /// Fetches an output tensor by node name.
    pub fn output(&self, name: &str) -> Option<&Tensor> {
        self.outputs.get(name)
    }
}

#[derive(Debug)]
enum Inner {
    Boxed(Box<BoxedExec>),
    Arena(Box<ArenaExec>),
}

/// A recipe for constructing sibling [`Executor`]s over one compiled program
/// and one shared [`ParamStore`], captured with [`Executor::seed`].
///
/// Cloning the seed is cheap relative to recompilation: it holds the already
/// optimized training graph, its schedule, and an `Arc` of the store. It is
/// `Send + Sync`, so a drain pool can hand one seed to N worker threads and
/// let each build its executor lazily on first use.
#[derive(Debug, Clone)]
pub struct ExecutorSeed {
    tg: TrainingGraph,
    schedule: Schedule,
    store: Arc<ParamStore>,
}

impl ExecutorSeed {
    /// Builds a new executor over the seed's program, attached to the shared
    /// store, with the given backend configuration. The arena backend replans
    /// its slab deterministically from the graph + schedule, so siblings are
    /// bit-identical to the executor the seed was captured from.
    pub fn executor(&self, config: ExecutorConfig) -> Executor {
        Executor::with_store(
            self.tg.clone(),
            self.schedule.clone(),
            Arc::clone(&self.store),
            config,
        )
    }

    /// The shared parameter store sibling executors will attach to.
    pub fn param_store(&self) -> &Arc<ParamStore> {
        &self.store
    }
}

/// Executes a compiled training program.
///
/// Parameters and optimizer state live in a shared [`ParamStore`] that the
/// executor *borrows*: [`Executor::new`] / [`Executor::with_config`] create a
/// private store, while [`Executor::with_store`] attaches to an existing one
/// so several batch-size specializations train one canonical set of weights.
/// [`Executor::new`] picks the backend from the environment fallback
/// ([`ExecutorConfig::from_env`]); the other constructors take an explicit
/// [`ExecutorConfig`].
#[derive(Debug)]
pub struct Executor {
    inner: Inner,
}

// Executors are moved into drainer threads by the engine's async ingestion
// path (and shared stores already promise `Sync`). Assert `Send` at compile
// time so a future non-`Send` field (e.g. an `Rc` cache) cannot silently
// break every consumer that owns executors on a background thread.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}
    assert_send::<Executor>();
    assert_send::<ParamStore>();
    // The drain pool shares one seed across N worker threads.
    assert_send::<ExecutorSeed>();
    assert_sync::<ExecutorSeed>();
};

impl Executor {
    /// Builds an executor with a private parameter store, selecting the
    /// backend from the environment fallback ([`ExecutorConfig::from_env`]):
    ///
    /// `PE_EXECUTOR=boxed` picks the boxed baseline (default: arena).
    pub fn new(tg: TrainingGraph, schedule: Schedule, optimizer: Optimizer) -> Self {
        Executor::with_config(tg, schedule, optimizer, ExecutorConfig::default())
    }

    /// Builds an executor with a private parameter store and an explicit
    /// backend configuration.
    pub fn with_config(
        tg: TrainingGraph,
        schedule: Schedule,
        optimizer: Optimizer,
        config: ExecutorConfig,
    ) -> Self {
        let store = Arc::new(ParamStore::from_graph(&tg.graph, optimizer));
        Executor::with_store(tg, schedule, store, config)
    }

    /// Builds an executor that borrows parameters and optimizer state from a
    /// shared [`ParamStore`] instead of materialising its own copies.
    ///
    /// # Panics
    ///
    /// Panics if a parameter of the graph is missing from the store or has a
    /// mismatched shape.
    pub fn with_store(
        tg: TrainingGraph,
        schedule: Schedule,
        store: Arc<ParamStore>,
        config: ExecutorConfig,
    ) -> Self {
        Executor::with_store_and_plan(tg, schedule, store, config, None)
    }

    /// [`Executor::with_store`] with an optional precomputed memory plan
    /// (deserialized from a program artifact). The arena backend validates
    /// the plan against the graph/schedule and silently replans if it does
    /// not hold up; the boxed backend allocates per node and ignores it.
    ///
    /// # Panics
    ///
    /// Panics if a parameter of the graph is missing from the store or has a
    /// mismatched shape.
    pub fn with_store_and_plan(
        tg: TrainingGraph,
        schedule: Schedule,
        store: Arc<ParamStore>,
        config: ExecutorConfig,
        plan: Option<pe_memplan::MemoryPlan>,
    ) -> Self {
        let inner = match config.backend {
            Backend::Boxed => Inner::Boxed(Box::new(BoxedExec::new(tg, schedule, store))),
            Backend::Arena => Inner::Arena(Box::new(ArenaExec::new_with_plan(
                tg, schedule, store, plan,
            ))),
        };
        Executor { inner }
    }

    /// Builds the arena-backed executor with a private parameter store.
    pub fn arena(tg: TrainingGraph, schedule: Schedule, optimizer: Optimizer) -> Self {
        Executor::with_config(tg, schedule, optimizer, ExecutorConfig::arena())
    }

    /// Builds the boxed per-node-buffer executor (differential baseline)
    /// with a private parameter store.
    pub fn boxed(tg: TrainingGraph, schedule: Schedule, optimizer: Optimizer) -> Self {
        Executor::with_config(tg, schedule, optimizer, ExecutorConfig::boxed())
    }

    /// The shared parameter store backing this executor.
    pub fn param_store(&self) -> &Arc<ParamStore> {
        match &self.inner {
            Inner::Boxed(e) => e.param_store(),
            Inner::Arena(e) => e.param_store(),
        }
    }

    /// Short name of the active backend (`"arena"` or `"boxed"`).
    pub fn backend_name(&self) -> &'static str {
        match &self.inner {
            Inner::Boxed(_) => "boxed",
            Inner::Arena(_) => "arena",
        }
    }

    /// The backend configuration this executor was built with.
    pub fn config(&self) -> ExecutorConfig {
        match &self.inner {
            Inner::Boxed(_) => ExecutorConfig::boxed(),
            Inner::Arena(_) => ExecutorConfig::arena(),
        }
    }

    /// Captures a recipe for constructing sibling executors over the same
    /// compiled program and the *same shared* [`ParamStore`].
    ///
    /// The seed clones the (immutable) training graph and schedule once; each
    /// [`ExecutorSeed::executor`] call then builds an independent executor —
    /// its own arena slab or boxed buffers — that reads and writes the
    /// original store. This is how the engine's parallel drain gives every
    /// worker thread a private executor without recompiling: evaluation runs
    /// take the store's shared guard, so sibling executors evaluate
    /// concurrently and serialize only against exclusive training steps.
    pub fn seed(&self) -> ExecutorSeed {
        ExecutorSeed {
            tg: self.training_graph().clone(),
            schedule: self.schedule().clone(),
            store: Arc::clone(self.param_store()),
        }
    }

    /// Builds a sibling executor: same program, same shared store, same
    /// backend configuration, but private execution state (slab/buffers).
    pub fn fork(&self) -> Executor {
        self.seed().executor(self.config())
    }

    /// The training graph being executed.
    pub fn training_graph(&self) -> &TrainingGraph {
        match &self.inner {
            Inner::Boxed(e) => e.training_graph(),
            Inner::Arena(e) => e.training_graph(),
        }
    }

    /// The execution schedule.
    pub fn schedule(&self) -> &Schedule {
        match &self.inner {
            Inner::Boxed(e) => e.schedule(),
            Inner::Arena(e) => e.schedule(),
        }
    }

    /// The optimizer configuration.
    pub fn optimizer(&self) -> Optimizer {
        match &self.inner {
            Inner::Boxed(e) => e.optimizer(),
            Inner::Arena(e) => e.optimizer(),
        }
    }

    /// Number of completed optimisation steps.
    pub fn steps_completed(&self) -> usize {
        match &self.inner {
            Inner::Boxed(e) => e.steps_completed(),
            Inner::Arena(e) => e.steps_completed(),
        }
    }

    /// Current value of a parameter: a snapshot cloned under the store's
    /// shared guard, so it is safe to call while other executors sharing
    /// the [`ParamStore`] are stepping concurrently.
    pub fn param(&self, id: NodeId) -> Option<Tensor> {
        match &self.inner {
            Inner::Boxed(e) => e.param(id),
            Inner::Arena(e) => e.param(id),
        }
    }

    /// Current value of a parameter looked up by name.
    pub fn param_by_name(&self, name: &str) -> Option<Tensor> {
        let id = self.training_graph().graph.find_param(name)?;
        self.param(id)
    }

    /// Overwrites a parameter value (e.g. to load a pre-trained checkpoint)
    /// and resets that parameter's optimizer state: momentum and Adam
    /// moments accumulated for the *old* trajectory would otherwise be
    /// silently applied to the new value. The next step of every executor
    /// sharing the store sees the new value.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is unknown or the shapes do not match.
    pub fn set_param(&mut self, id: NodeId, value: Tensor) {
        match &mut self.inner {
            Inner::Boxed(e) => e.set_param(id, value),
            Inner::Arena(e) => e.set_param(id, value),
        }
    }

    /// Runs one full training step: forward, backward, parameter updates.
    ///
    /// # Errors
    ///
    /// Returns an error if a step input is missing or has the wrong shape or
    /// dtype.
    pub fn run_step(&mut self, inputs: &HashMap<String, Tensor>) -> Result<StepResult, ExecError> {
        match &mut self.inner {
            Inner::Boxed(e) => e.run_step(inputs),
            Inner::Arena(e) => e.run_step(inputs),
        }
    }

    /// Runs one full training step and returns only the loss value.
    ///
    /// On the arena backend this is the zero-allocation hot path: no output
    /// tensors are materialised and the step touches the heap not at all.
    /// The boxed backend falls back to [`Executor::run_step`].
    ///
    /// # Errors
    ///
    /// Returns an error if a step input is missing or has the wrong shape or
    /// dtype.
    pub fn train_step(
        &mut self,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<Option<f32>, ExecError> {
        match &mut self.inner {
            Inner::Boxed(e) => Ok(e.run_step(inputs)?.loss),
            Inner::Arena(e) => e.train_step(inputs),
        }
    }

    /// Runs the forward part only (no parameter updates), for evaluation.
    ///
    /// # Errors
    ///
    /// Returns an error if a step input is missing or has the wrong shape or
    /// dtype.
    pub fn run_eval(&mut self, inputs: &HashMap<String, Tensor>) -> Result<StepResult, ExecError> {
        match &mut self.inner {
            Inner::Boxed(e) => e.run_eval(inputs),
            Inner::Arena(e) => e.run_eval(inputs),
        }
    }

    /// Number of kernel dispatches that fell back to an allocating kernel
    /// because no `_into` variant exists. Every op the compiler emits now has
    /// an arena-resident `_into` kernel, so this is 0 on both backends; the
    /// counter stays as a regression tripwire for future ops.
    pub fn fallback_dispatches(&self) -> u64 {
        match &self.inner {
            Inner::Boxed(_) => 0,
            Inner::Arena(e) => e.fallback_dispatches(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_graph::{build_training_graph, GraphBuilder, TrainKind, TrainSpec};
    use pe_passes::{optimize, OptimizeOptions};
    use pe_tensor::Rng;

    /// Builds a small linear-regression-style training program.
    fn compile_mlp_with(
        spec_for: impl Fn(&str) -> TrainKind,
        make: impl Fn(TrainingGraph, Schedule, Optimizer) -> Executor,
    ) -> Executor {
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
        let (tg, schedule, _) = optimize(tg, OptimizeOptions::default());
        make(tg, schedule, Optimizer::sgd(0.1))
    }

    fn compile_mlp(spec_for: impl Fn(&str) -> TrainKind) -> Executor {
        compile_mlp_with(spec_for, Executor::new)
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
        assert_eq!(exec.steps_completed(), 31);
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
        assert_eq!(exec.steps_completed(), 0);
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
    fn wrong_dtype_is_reported_not_panicked() {
        for make in [Executor::boxed as fn(_, _, _) -> Executor, Executor::arena] {
            let mut exec = compile_mlp_with(|_| TrainKind::Full, make);
            let inputs = HashMap::from([
                (
                    "x".to_string(),
                    Tensor::zeros([8, 4]).with_dtype(DType::F16),
                ),
                ("labels".to_string(), Tensor::zeros([8])),
            ]);
            let err = exec.run_step(&inputs).unwrap_err();
            assert!(matches!(err, ExecError::InputDTypeMismatch { .. }));
            assert!(err.to_string().contains("dtype"));
        }
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
    fn arena_and_boxed_backends_agree_bit_for_bit() {
        let mut rng = Rng::seed_from_u64(11);
        let batches: Vec<_> = (0..5).map(|_| batch(&mut rng)).collect();
        let mut boxed = compile_mlp_with(|_| TrainKind::Full, Executor::boxed);
        let mut arena = compile_mlp_with(|_| TrainKind::Full, Executor::arena);
        for b in &batches {
            let lb = boxed.run_step(b).unwrap().loss.unwrap();
            let la = arena.run_step(b).unwrap().loss.unwrap();
            assert_eq!(lb.to_bits(), la.to_bits(), "boxed vs arena");
        }
        for name in ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"] {
            assert_eq!(
                boxed.param_by_name(name).unwrap().data(),
                arena.param_by_name(name).unwrap().data(),
                "parameter '{name}' diverged across backends"
            );
        }
        assert_eq!(arena.fallback_dispatches(), 0, "MLP must not fall back");
    }

    #[test]
    fn train_step_loss_matches_run_step() {
        let mut a = compile_mlp_with(|_| TrainKind::Full, Executor::arena);
        let mut b = compile_mlp_with(|_| TrainKind::Full, Executor::arena);
        let mut rng = Rng::seed_from_u64(12);
        for _ in 0..4 {
            let data = batch(&mut rng);
            let la = a.train_step(&data).unwrap().unwrap();
            let lb = b.run_step(&data).unwrap().loss.unwrap();
            assert_eq!(la.to_bits(), lb.to_bits());
        }
    }
}
