//! The arena-backed zero-allocation executor.
//!
//! At construction time the memory planner assigns every transient buffer an
//! offset in one slab ([`pe_memplan::plan_memory_with`] with runtime `f32`
//! sizes, 64-byte alignment and in-place aliasing); execution then walks the
//! schedule handing each node a [`TensorView`] at its precomputed offset and
//! dispatching to the kernels' `_into` variants. Parameters, optimizer
//! state, constants and step-input staging buffers are materialised once and
//! reused, so a steady-state training step performs **zero transient heap
//! allocations** (asserted by the counting-allocator test in `tests/`).
//! The schedule is walked on the calling thread, one position at a time.
//!
//! Parameters and optimizer state are **not** owned here: they live in a
//! shared [`ParamStore`] that several specialized executors may borrow at
//! once. A training step takes the store's exclusive guard once and passes
//! the cells down as `&mut [ParamCell]`; an evaluation step takes the shared
//! guard and passes `&[ParamCell]`, so the borrow checker enforces the
//! guard's contract.
//!
//! # Safety
//!
//! The arena is accessed through raw slices carved out of one `UnsafeCell`
//! slab. The invariant making that sound is exactly the planner's: two
//! buffers whose position-granular lifetimes intersect never overlap in
//! `[offset, offset + size)` — except an in-place alias, which is executed
//! with a single mutable slice. Since nodes run one at a time in schedule
//! order, the operands and output of the running node are the only live
//! views. The property-test suite pins the invariant down for randomized
//! graphs and schedules.

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::Arc;

use pe_graph::{NodeId, OpKind, TrainingGraph};
use pe_memplan::{plan_memory_with, validate_plan, MemPlanOptions, MemoryPlan};
use pe_passes::Schedule;
use pe_tensor::kernels::elementwise::{UnaryGradOp, UnaryOp};
use pe_tensor::kernels::{
    conv, elementwise as ew, embedding, gemm, layout, norm, pool as poolk, reduce,
};
use pe_tensor::{Tensor, TensorView};

use crate::executor::{check_input, ExecError, StepResult};
use crate::optimizer::Optimizer;
use crate::store::{resolve_param_slots, ParamCell, ParamStore};

/// Where a node's value lives at runtime.
#[derive(Debug, Clone, Copy)]
enum Loc {
    /// `(offset, len)` in `f32` elements inside the arena slab.
    Arena(usize, usize),
    /// Slot index into the shared [`ParamStore`].
    Param(usize),
    /// Index into the constant store.
    Const(usize),
    /// Index into the step-input staging buffers.
    Input(usize),
}

/// A resolved operand: where it lives plus its static dims.
#[derive(Debug, Clone)]
struct Arg {
    id: NodeId,
    loc: Loc,
    dims: Vec<usize>,
}

#[derive(Debug, Clone)]
enum Task {
    /// Inputs, parameters, constants: nothing to execute.
    Leaf,
    /// Ordinary kernel dispatch into the arena.
    Compute,
    /// In-place parameter update (`slot` indexes the shared store).
    Update { slot: usize, rows: Option<usize> },
}

/// One schedule position, fully resolved at construction.
#[derive(Debug, Clone)]
struct StepNode {
    op: OpKind,
    ins: Vec<Arg>,
    /// Arena placement of the output (`None` for leaves/updates).
    out: Option<(usize, usize)>,
    /// Whether the output aliases `ins[0]`'s buffer (in-place execution).
    inplace: bool,
    task: Task,
}

/// The arena slab. Interior mutability with hand-checked disjointness (see
/// the module-level safety discussion).
struct ArenaBuf(UnsafeCell<Box<[f32]>>);

impl ArenaBuf {
    /// # Safety
    ///
    /// The range must not be written while the returned slice lives (plan
    /// invariant).
    unsafe fn slice(&self, off: usize, len: usize) -> &[f32] {
        std::slice::from_raw_parts((*self.0.get()).as_ptr().add(off), len)
    }

    /// # Safety
    ///
    /// The range must not be read or written through any other slice while
    /// the returned one lives (plan invariant).
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self, off: usize, len: usize) -> &mut [f32] {
        std::slice::from_raw_parts_mut((*self.0.get()).as_mut_ptr().add(off), len)
    }
}

/// Everything a node dispatch reads or writes.
struct Shared {
    steps: Vec<StepNode>,
    arena: ArenaBuf,
    /// The shared canonical parameters, reached only through the guard a
    /// step takes.
    store: Arc<ParamStore>,
    consts: Vec<Tensor>,
    /// Step-input staging, one tensor per graph input.
    inputs: Vec<Tensor>,
}

/// Executes a compiled training program out of one planner-sized slab.
///
/// Parameters and optimizer state live in a shared [`ParamStore`] that the
/// executor *borrows*: [`Executor::new`] creates a private store, while
/// [`Executor::with_store`] attaches to an existing one so several
/// batch-size specializations train one canonical set of weights.
pub struct Executor {
    tg: TrainingGraph,
    schedule: Schedule,
    shared: Shared,
    /// Steps completed by this executor (the store counts globally).
    step: usize,
    /// Store slot of each parameter node in this graph.
    param_slots: HashMap<NodeId, usize>,
    /// Non-update graph outputs: `(name, value location)`.
    outputs: Vec<(String, Arg)>,
    loss_arg: Arg,
    eval_live: Vec<bool>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("nodes", &self.schedule.len())
            .field("steps_completed", &self.step)
            .finish()
    }
}

impl Executor {
    /// [`Executor::with_store`] with an optional precomputed memory plan in
    /// place of the planner's own (`None` plans from scratch). A supplied
    /// plan is structurally validated against the graph and schedule under
    /// the execution options before the executor runs on it.
    ///
    /// # Panics
    ///
    /// Panics if a parameter of the graph is missing from the store or has a
    /// mismatched shape, or if a supplied plan fails [`validate_plan`].
    pub fn with_store_and_plan(
        tg: TrainingGraph,
        schedule: Schedule,
        store: Arc<ParamStore>,
        plan: Option<MemoryPlan>,
    ) -> Self {
        let graph = &tg.graph;

        // Resolve every graph parameter to its slot in the shared store and
        // register optimizer state for the updated ones (allocated exactly
        // once per parameter across all executors sharing the store).
        let param_slots = resolve_param_slots(&tg, &store);
        for node in graph.nodes() {
            if let OpKind::ApplyUpdate { param, .. } = node.op {
                store.ensure_state(param_slots[&param]);
            }
        }

        // Constant and input staging stores.
        let mut const_slots: HashMap<NodeId, usize> = HashMap::new();
        let mut consts: Vec<Tensor> = Vec::new();
        for (id, value) in graph.constants() {
            const_slots.insert(*id, consts.len());
            consts.push(value.clone());
        }
        let mut input_slots: HashMap<NodeId, usize> = HashMap::new();
        let mut inputs: Vec<Tensor> = Vec::new();
        for (i, id) in graph.inputs().iter().enumerate() {
            input_slots.insert(*id, i);
            inputs.push(Tensor::zeros(graph.node(*id).shape.clone()));
        }

        // Memory plan: a supplied one must validate against this exact
        // graph/schedule/options combination.
        let opts = MemPlanOptions::for_execution();
        let plan = match plan {
            Some(p) => {
                validate_plan(graph, &schedule, &opts, &p)
                    .unwrap_or_else(|e| panic!("supplied memory plan is invalid: {e}"));
                p
            }
            None => plan_memory_with(graph, &schedule, &opts),
        };

        // Resolve every schedule position.
        let resolve = |id: NodeId| -> Arg {
            let node = graph.node(id);
            let loc = if let Some(&slot) = param_slots.get(&id) {
                Loc::Param(slot)
            } else if let Some(&slot) = const_slots.get(&id) {
                Loc::Const(slot)
            } else if let Some(&slot) = input_slots.get(&id) {
                Loc::Input(slot)
            } else {
                let off = plan.offsets[id.index()]
                    .unwrap_or_else(|| panic!("transient node {id} has no arena offset"));
                Loc::Arena(off / 4, node.shape.numel())
            };
            Arg {
                id,
                loc,
                dims: node.shape.dims().to_vec(),
            }
        };
        let steps: Vec<StepNode> = schedule
            .order
            .iter()
            .map(|&id| {
                let node = graph.node(id);
                let task = match node.op {
                    OpKind::Input | OpKind::Parameter | OpKind::Constant => Task::Leaf,
                    OpKind::ApplyUpdate { param, rows } => Task::Update {
                        slot: param_slots[&param],
                        rows,
                    },
                    _ => Task::Compute,
                };
                let out = match task {
                    Task::Compute => {
                        let off = plan.offsets[id.index()]
                            .unwrap_or_else(|| panic!("compute node {id} has no arena offset"));
                        Some((off / 4, node.shape.numel()))
                    }
                    _ => None,
                };
                StepNode {
                    op: node.op.clone(),
                    ins: node.inputs.iter().map(|&i| resolve(i)).collect(),
                    out,
                    inplace: plan.aliases[id.index()].is_some(),
                    task,
                }
            })
            .collect();
        let arena = ArenaBuf(UnsafeCell::new(
            vec![0.0f32; plan.arena_bytes.div_ceil(4)].into_boxed_slice(),
        ));

        // Static eval-mode liveness: ancestors of the non-update outputs.
        let roots: Vec<NodeId> = graph
            .outputs()
            .iter()
            .copied()
            .filter(|&o| !graph.node(o).op.is_update())
            .collect();
        let eval_live = graph.ancestors_of(&roots);

        let outputs: Vec<(String, Arg)> = graph
            .outputs()
            .iter()
            .filter(|&&o| !graph.node(o).op.is_update())
            .map(|&o| (graph.node(o).name.clone(), resolve(o)))
            .collect();
        let loss_arg = resolve(tg.loss);

        let shared = Shared {
            steps,
            arena,
            store,
            consts,
            inputs,
        };

        Executor {
            tg,
            schedule,
            shared,
            step: 0,
            param_slots,
            outputs,
            loss_arg,
            eval_live,
        }
    }

    /// The training graph being executed.
    pub fn training_graph(&self) -> &TrainingGraph {
        &self.tg
    }

    /// The execution schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The optimizer configuration.
    pub fn optimizer(&self) -> Optimizer {
        self.shared.store.optimizer()
    }

    /// The shared parameter store backing this executor.
    pub fn param_store(&self) -> &Arc<ParamStore> {
        &self.shared.store
    }

    /// Number of completed optimisation steps.
    pub fn steps_completed(&self) -> usize {
        self.step
    }

    /// Number of kernel dispatches that fell back to an allocating kernel:
    /// always 0, because no allocating kernel is left — every op dispatches
    /// an `_into` kernel writing its arena range. Kept because the benchmark
    /// harness reports it.
    pub fn fallback_dispatches(&self) -> u64 {
        0
    }

    /// Current value of a parameter: a snapshot cloned under the store's
    /// shared guard, so it is safe to call while other executors sharing
    /// the [`ParamStore`] are stepping concurrently.
    pub fn param(&self, id: NodeId) -> Option<Tensor> {
        let slot = *self.param_slots.get(&id)?;
        Some(self.shared.store.lock_shared()[slot].value.clone())
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
        let slot = *self.param_slots.get(&id).expect("unknown parameter");
        // The store resets the parameter's optimizer state.
        self.shared.store.set_slot(slot, value);
    }

    fn bind_inputs(&mut self, inputs: &HashMap<String, Tensor>) -> Result<(), ExecError> {
        for (i, &id) in self.tg.graph.inputs().iter().enumerate() {
            let node = self.tg.graph.node(id);
            let provided = check_input(node, inputs)?;
            self.shared.inputs[i]
                .data_mut()
                .copy_from_slice(provided.data());
        }
        Ok(())
    }

    /// Reads a value (post-execution) as a borrowed view.
    fn value_view<'a>(&'a self, params: &'a [ParamCell], arg: &'a Arg) -> TensorView<'a> {
        // SAFETY: called between steps / after execution; no writers active.
        unsafe { arg_view(&self.shared, params, arg) }
    }

    /// Runs the full schedule over the cells of the store's exclusive guard.
    fn execute_train(&mut self, params: &mut [ParamCell]) {
        self.shared.store.begin_step();
        for pos in 0..self.shared.steps.len() {
            // SAFETY: sequential walk of a position-granular plan.
            unsafe { exec_train_position(&self.shared, params, pos) };
        }
    }

    /// Runs the forward subset over the cells of the store's shared guard.
    fn execute_eval(&mut self, params: &[ParamCell]) {
        for (pos, &id) in self.schedule.order.iter().enumerate() {
            let step = &self.shared.steps[pos];
            if !self.eval_live[id.index()] || !matches!(step.task, Task::Compute) {
                continue;
            }
            // SAFETY: sequential walk; eval runs a subset of the schedule in
            // order, which only shortens lifetimes.
            unsafe { dispatch(&self.shared, params, step) };
        }
    }

    /// Runs one full training step and returns only the loss: the
    /// zero-allocation hot path, which materialises no output tensors.
    ///
    /// # Errors
    ///
    /// Returns an error if a step input is missing or has the wrong shape or
    /// dtype.
    pub fn train_step(
        &mut self,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<Option<f32>, ExecError> {
        self.bind_inputs(inputs)?;
        let store = Arc::clone(&self.shared.store);
        let mut params = store.lock_exclusive();
        self.step += 1;
        self.execute_train(&mut params);
        Ok(Some(self.value_view(&params, &self.loss_arg).data()[0]))
    }

    /// Runs one full training step: forward, backward, parameter updates.
    ///
    /// # Errors
    ///
    /// Returns an error if a step input is missing or has the wrong shape or
    /// dtype.
    pub fn run_step(&mut self, inputs: &HashMap<String, Tensor>) -> Result<StepResult, ExecError> {
        self.bind_inputs(inputs)?;
        let store = Arc::clone(&self.shared.store);
        let mut params = store.lock_exclusive();
        self.step += 1;
        self.execute_train(&mut params);
        Ok(self.collect(&params))
    }

    /// Runs the forward part only (no parameter updates), for evaluation.
    ///
    /// # Errors
    ///
    /// Returns an error if a step input is missing or has the wrong shape or
    /// dtype.
    pub fn run_eval(&mut self, inputs: &HashMap<String, Tensor>) -> Result<StepResult, ExecError> {
        self.bind_inputs(inputs)?;
        let store = Arc::clone(&self.shared.store);
        let params = store.lock_shared();
        self.execute_eval(&params);
        Ok(self.collect(&params))
    }

    fn collect(&self, params: &[ParamCell]) -> StepResult {
        let mut outputs = HashMap::new();
        let mut loss = None;
        for (name, arg) in &self.outputs {
            let value = self.value_view(params, arg).to_tensor();
            if arg.id == self.tg.loss {
                loss = Some(value.data()[0]);
            }
            outputs.insert(name.clone(), value);
        }
        StepResult { loss, outputs }
    }
}

/// Resolves an operand to a borrowed view.
///
/// # Safety
///
/// The caller must guarantee no writer to the operand's arena range while
/// the view lives (plan invariant).
unsafe fn arg_view<'a>(
    shared: &'a Shared,
    params: &'a [ParamCell],
    arg: &'a Arg,
) -> TensorView<'a> {
    match arg.loc {
        Loc::Arena(off, len) => TensorView::new(&arg.dims, shared.arena.slice(off, len)),
        Loc::Param(i) => params[i].value.view(),
        Loc::Const(i) => shared.consts[i].view(),
        Loc::Input(i) => shared.inputs[i].view(),
    }
}

/// Executes the node at schedule position `pos` of a training step.
///
/// # Safety
///
/// The caller must walk the schedule one position at a time over a
/// position-granular plan (module docs).
unsafe fn exec_train_position(shared: &Shared, params: &mut [ParamCell], pos: usize) {
    let step = &shared.steps[pos];
    match step.task {
        Task::Leaf => {}
        Task::Update { slot, rows } => {
            // A gradient is never a parameter, so it resolves without the
            // cells and the update may borrow its own cell mutably.
            let grad = arg_view(shared, &[], &step.ins[0]);
            let cell = &mut params[slot];
            let updated_len = match rows {
                Some(k) => {
                    let row_elems: usize = cell.value.dims()[1..].iter().product::<usize>().max(1);
                    k * row_elems
                }
                None => cell.value.numel(),
            };
            assert_eq!(
                grad.numel(),
                updated_len,
                "gradient size mismatch for update"
            );
            // Per-cell update count: restarts after set_param, so Adam bias
            // correction behaves like a freshly initialized parameter.
            cell.steps += 1;
            shared.store.optimizer().apply(
                &mut cell.value.data_mut()[..updated_len],
                grad.data(),
                &mut cell.state,
                cell.steps,
            );
        }
        Task::Compute => dispatch(shared, params, step),
    }
}

/// Maps an activation-style op to its in-place-safe unary kernel.
fn unary_of(op: &OpKind) -> Option<UnaryOp> {
    Some(match op {
        OpKind::Relu => UnaryOp::Relu,
        OpKind::Relu6 => UnaryOp::Relu6,
        OpKind::Gelu => UnaryOp::Gelu,
        OpKind::Silu => UnaryOp::Silu,
        OpKind::Sigmoid => UnaryOp::Sigmoid,
        OpKind::Tanh => UnaryOp::Tanh,
        OpKind::Scale { factor } => UnaryOp::Scale(*factor),
        _ => return None,
    })
}

unsafe fn dispatch(shared: &Shared, params: &[ParamCell], step: &StepNode) {
    let (off, len) = step.out.expect("compute node has an arena slot");
    // In-place nodes: the output range *is* the first input's range, so only
    // one (mutable) slice may exist.
    if step.inplace {
        let buf = shared.arena.slice_mut(off, len);
        match unary_of(&step.op) {
            Some(op) => ew::unary_inplace(op, buf),
            None => debug_assert!(
                matches!(step.op, OpKind::Reshape { .. }),
                "unexpected in-place op {:?}",
                step.op
            ), // Reshape in place: the data is already there.
        }
        return;
    }

    let v = |i: usize| arg_view(shared, params, &step.ins[i]);
    let out = shared.arena.slice_mut(off, len);

    match &step.op {
        OpKind::MatMul { trans_a, trans_b } => {
            gemm::matmul_into(v(0), v(1), *trans_a, *trans_b, out)
        }
        OpKind::BatchMatMul { trans_a, trans_b } => {
            gemm::batched_matmul_into(v(0), v(1), *trans_a, *trans_b, out)
        }
        OpKind::Conv2d(p) => conv::conv2d_into(v(0), v(1), *p, out),
        OpKind::Conv2dGradInput { params, x_dims } => {
            conv::conv2d_grad_input_into(v(0), v(1), x_dims, *params, out)
        }
        OpKind::Conv2dGradWeight { params, w_dims } => {
            conv::conv2d_grad_weight_into(v(0), v(1), w_dims, *params, out)
        }
        OpKind::Add => ew::binary_into(ew::BinaryOp::Add, v(0), v(1), out),
        OpKind::Sub => ew::binary_into(ew::BinaryOp::Sub, v(0), v(1), out),
        OpKind::Mul => ew::binary_into(ew::BinaryOp::Mul, v(0), v(1), out),
        OpKind::Div => ew::binary_into(ew::BinaryOp::Div, v(0), v(1), out),
        OpKind::Scale { .. }
        | OpKind::Relu
        | OpKind::Relu6
        | OpKind::Gelu
        | OpKind::Silu
        | OpKind::Sigmoid
        | OpKind::Tanh => {
            let op = unary_of(&step.op).expect("activation maps to a unary kernel");
            ew::unary_into(op, v(0), out)
        }
        OpKind::AddBias => ew::add_bias_into(v(0), v(1), out),
        OpKind::BiasGrad => ew::bias_grad_into(v(0), out),
        OpKind::ReluGrad => ew::unary_grad_into(UnaryGradOp::Relu, v(0), v(1), out),
        OpKind::Relu6Grad => ew::unary_grad_into(UnaryGradOp::Relu6, v(0), v(1), out),
        OpKind::GeluGrad => ew::unary_grad_into(UnaryGradOp::Gelu, v(0), v(1), out),
        OpKind::SiluGrad => ew::unary_grad_into(UnaryGradOp::Silu, v(0), v(1), out),
        OpKind::SigmoidGrad => ew::unary_grad_into(UnaryGradOp::Sigmoid, v(0), v(1), out),
        OpKind::TanhGrad => ew::unary_grad_into(UnaryGradOp::Tanh, v(0), v(1), out),
        OpKind::BroadcastGradTo { dims } => ew::reduce_to_shape_into(v(0), dims, out),
        // The reduction output layout with kept dims is byte-identical to
        // the squeezed one, so one `_into` kernel serves both modes.
        OpKind::Reduce { op, axes, .. } => reduce::reduce_into(v(0), *op, axes, out),
        OpKind::ReduceGrad {
            op,
            axes,
            input_dims,
        } => reduce::reduce_grad_into(v(0), *op, input_dims, axes, out),
        OpKind::Reshape { .. } => out.copy_from_slice(v(0).data()),
        OpKind::Transpose2d => layout::transpose2d_into(v(0), out),
        OpKind::Permute { perm } => layout::permute_into(v(0), perm, out),
        OpKind::Slice { axis, start, len } => {
            layout::slice_axis_into(v(0), *axis, *start, *len, out)
        }
        OpKind::Unslice {
            axis,
            start,
            full_dims,
        } => layout::unslice_axis_into(v(0), *axis, *start, full_dims, out),
        OpKind::Concat { axis } => {
            // Views collected on the stack (TensorView is Copy) so the
            // shared concat kernel runs without a heap allocation.
            const MAX_CONCAT: usize = 16;
            assert!(
                step.ins.len() <= MAX_CONCAT,
                "concat fan-in exceeds MAX_CONCAT"
            );
            let mut views = [v(0); MAX_CONCAT];
            for (i, slot) in views.iter_mut().enumerate().take(step.ins.len()).skip(1) {
                *slot = v(i);
            }
            layout::concat_into(&views[..step.ins.len()], *axis, out)
        }
        OpKind::AvgPool2d(p) => poolk::avg_pool2d_into(v(0), *p, out),
        OpKind::AvgPool2dGrad { params, x_dims } => {
            poolk::avg_pool2d_grad_into(v(0), x_dims, *params, out)
        }
        OpKind::MaxPool2d(p) => poolk::max_pool2d_into(v(0), *p, out),
        OpKind::MaxPool2dGrad { params } => {
            poolk::max_pool2d_grad_from_input_into(v(0), v(1), *params, out)
        }
        OpKind::GlobalAvgPool => poolk::global_avg_pool_into(v(0), out),
        OpKind::GlobalAvgPoolGrad { x_dims } => poolk::global_avg_pool_grad_into(v(0), x_dims, out),
        OpKind::Softmax => norm::softmax_into(v(0), out),
        OpKind::SoftmaxGrad => norm::softmax_grad_into(v(0), v(1), out),
        OpKind::LayerNorm { eps } => norm::layer_norm_into(v(0), v(1), v(2), *eps, out),
        OpKind::LayerNormGradX { eps } => norm::layer_norm_grad_x_into(v(0), v(1), v(2), *eps, out),
        OpKind::LayerNormGradGamma { eps } => {
            norm::layer_norm_grad_gamma_into(v(0), v(1), *eps, out)
        }
        OpKind::RmsNorm { eps } => norm::rms_norm_into(v(0), v(1), *eps, out),
        OpKind::RmsNormGradX { eps } => norm::rms_norm_grad_x_into(v(0), v(1), v(2), *eps, out),
        OpKind::RmsNormGradGamma { eps } => norm::rms_norm_grad_gamma_into(v(0), v(1), *eps, out),
        OpKind::Embedding => embedding::gather_into(v(0), v(1), out),
        OpKind::EmbeddingGrad { vocab, dim } => {
            embedding::gather_grad_into(v(0), v(1), *vocab, *dim, out)
        }
        OpKind::CrossEntropyLoss => norm::cross_entropy_loss_into(v(0), v(1), out),
        OpKind::CrossEntropyGrad => {
            let dloss = v(2).data()[0];
            norm::cross_entropy_grad_into(v(0), v(1), dloss, out)
        }
        OpKind::Input | OpKind::Parameter | OpKind::Constant | OpKind::ApplyUpdate { .. } => {
            unreachable!("leaf/update nodes are handled by the task kind")
        }
    }
}
