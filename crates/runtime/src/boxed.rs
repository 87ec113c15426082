//! The original boxed-value executor, kept behind `PE_EXECUTOR=boxed` as the
//! differential-testing baseline for the arena executor.
//!
//! Every node's output is an owned [`Tensor`] slot that is allocated when
//! the node runs and dropped at its compile-time free position. The arena
//! executor must be bit-identical to this path; the property suite in
//! `tests/` asserts exactly that.
//!
//! Parameters and optimizer state are *borrowed* from a shared
//! [`ParamStore`]; the executor only owns transient buffers.

use std::collections::HashMap;
use std::sync::Arc;

use pe_graph::{NodeId, OpKind, TrainingGraph};
use pe_memplan::analyze_lifetimes;
use pe_passes::Schedule;
use pe_tensor::kernels::{
    conv, elementwise as ew, embedding, fused, gemm, layout, norm, pool, reduce,
};
use pe_tensor::{Shape, Tensor};

use crate::executor::{check_input, ExecError, StepResult};
use crate::optimizer::Optimizer;
use crate::store::{resolve_param_slots, ParamStore};

/// Executes a compiled training program with per-node boxed buffers.
#[derive(Debug)]
pub struct BoxedExec {
    tg: TrainingGraph,
    schedule: Schedule,
    /// Shared canonical parameters and optimizer state.
    store: Arc<ParamStore>,
    /// Store slot of each parameter node in this graph.
    slot_of: HashMap<NodeId, usize>,
    /// Free positions: node ids whose buffer can be dropped after executing
    /// the node at a given schedule position.
    frees: Vec<Vec<NodeId>>,
    /// Steps completed by *this* executor (the store tracks the global
    /// count across every executor sharing it).
    steps_here: usize,
}

impl BoxedExec {
    /// Builds an executor over an optimized training graph, schedule and
    /// shared parameter store.
    ///
    /// # Panics
    ///
    /// Panics if a graph parameter is missing from the store or its shape
    /// mismatches the store's canonical tensor.
    pub fn new(tg: TrainingGraph, schedule: Schedule, store: Arc<ParamStore>) -> Self {
        let slot_of = resolve_param_slots(&tg, &store);

        // Register every updated parameter so its optimizer state exists
        // (exactly once per parameter, no matter how many executors share
        // the store).
        for node in tg.graph.nodes() {
            if let OpKind::ApplyUpdate { param, .. } = node.op {
                store.ensure_state(slot_of[&param]);
            }
        }

        // Precompute buffer free positions from the lifetime analysis.
        let lifetimes = analyze_lifetimes(&tg.graph, &schedule);
        let mut frees: Vec<Vec<NodeId>> = vec![Vec::new(); schedule.len().max(1)];
        for (idx, lt) in lifetimes.iter().enumerate() {
            if let Some((_, last)) = lt {
                frees[*last].push(NodeId(idx));
            }
        }

        BoxedExec {
            tg,
            schedule,
            store,
            slot_of,
            frees,
            steps_here: 0,
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

    /// The shared parameter store.
    pub fn param_store(&self) -> &Arc<ParamStore> {
        &self.store
    }

    /// The optimizer configuration.
    pub fn optimizer(&self) -> Optimizer {
        self.store.optimizer()
    }

    /// Number of optimisation steps completed by this executor.
    pub fn steps_completed(&self) -> usize {
        self.steps_here
    }

    /// Current value of a parameter (a snapshot taken under the store's
    /// shared guard).
    pub fn param(&self, id: NodeId) -> Option<Tensor> {
        let slot = *self.slot_of.get(&id)?;
        let _g = self.store.lock_shared();
        // SAFETY: shared guard held — no training step or set can be
        // mutating the cell, so a snapshot clone is sound even while other
        // executors share the store.
        Some(unsafe { (*self.store.cell(slot)).value.clone() })
    }

    /// Overwrites a parameter value, resetting its optimizer state.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is unknown or the shapes do not match.
    pub fn set_param(&mut self, id: NodeId, value: Tensor) {
        let slot = *self.slot_of.get(&id).expect("unknown parameter");
        self.store.set_slot(slot, value);
    }

    /// Runs one full training step: forward, backward, parameter updates.
    ///
    /// # Errors
    ///
    /// Returns an error if a step input is missing or has the wrong shape or
    /// dtype.
    pub fn run_step(&mut self, inputs: &HashMap<String, Tensor>) -> Result<StepResult, ExecError> {
        let store = Arc::clone(&self.store);
        let _guard = store.lock_exclusive();
        store.begin_step();
        self.steps_here += 1;
        self.execute(inputs, true)
    }

    /// Runs the forward part only (no parameter updates), for evaluation.
    ///
    /// # Errors
    ///
    /// Returns an error if a step input is missing or has the wrong shape or
    /// dtype.
    pub fn run_eval(&mut self, inputs: &HashMap<String, Tensor>) -> Result<StepResult, ExecError> {
        let store = Arc::clone(&self.store);
        let _guard = store.lock_shared();
        self.execute(inputs, false)
    }

    fn execute(
        &mut self,
        inputs: &HashMap<String, Tensor>,
        train: bool,
    ) -> Result<StepResult, ExecError> {
        let n = self.tg.graph.len();
        let mut values: Vec<Option<Tensor>> = vec![None; n];

        // Bind step inputs.
        for &input_id in &self.tg.graph.inputs().to_vec() {
            let node = self.tg.graph.node(input_id);
            let provided = check_input(node, inputs)?;
            values[input_id.index()] = Some(provided.clone());
        }

        // In evaluation mode only the ancestors of non-update outputs run.
        let eval_live = if train {
            None
        } else {
            let graph = &self.tg.graph;
            let roots: Vec<NodeId> = graph
                .outputs()
                .iter()
                .copied()
                .filter(|&o| !graph.node(o).op.is_update())
                .collect();
            Some(graph.ancestors_of(&roots))
        };
        let output_ids: Vec<NodeId> = self.tg.graph.outputs().to_vec();

        for pos in 0..self.schedule.len() {
            let id = self.schedule.order[pos];
            let node = self.tg.graph.node(id).clone();
            if let Some(live) = &eval_live {
                if !live[id.index()] {
                    continue;
                }
            }
            match node.op {
                OpKind::Input => {}
                OpKind::Parameter | OpKind::Constant => {}
                OpKind::ApplyUpdate { param, rows } => {
                    if train {
                        let grad = values[node.inputs[0].index()]
                            .as_ref()
                            .expect("gradient must be computed before its update")
                            .clone();
                        self.apply_update(param, rows, &grad);
                    }
                }
                _ => {
                    let out = self.compute_node(&node, &values);
                    values[id.index()] = Some(out);
                }
            }
            // Free buffers whose last use has passed (only in training mode;
            // eval skips nodes so positions are conservative there too).
            for &dead in &self.frees[pos] {
                if !output_ids.contains(&dead) {
                    values[dead.index()] = None;
                }
            }
        }

        // Collect outputs.
        let mut outputs = HashMap::new();
        let mut loss = None;
        for &out in &output_ids {
            let node = self.tg.graph.node(out);
            if node.op.is_update() {
                continue;
            }
            if let Some(v) = &values[out.index()] {
                if out == self.tg.loss {
                    loss = Some(v.data()[0]);
                }
                outputs.insert(node.name.clone(), v.clone());
            }
        }
        Ok(StepResult { loss, outputs })
    }

    fn apply_update(&mut self, param: NodeId, rows: Option<usize>, grad: &Tensor) {
        let slot = self.slot_of[&param];
        // SAFETY: the exclusive store guard is held by `run_step` for the
        // duration of the step.
        let cell = unsafe { &mut *self.store.cell(slot) };

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
        // Optimizer::apply only touches the first `param.len()` elements of
        // each state row, so the full-length rows can be passed directly.
        self.store.optimizer().apply(
            &mut cell.value.data_mut()[..updated_len],
            grad.data(),
            &mut cell.state,
            cell.steps,
        );
    }

    fn value<'a>(&'a self, values: &'a [Option<Tensor>], id: NodeId) -> &'a Tensor {
        if let Some(&slot) = self.slot_of.get(&id) {
            // SAFETY: the appropriate store guard is held by
            // `run_step`/`run_eval` for the duration of the step.
            return unsafe { &(*self.store.cell(slot)).value };
        }
        if let Some(c) = self.tg.graph.constants().get(&id) {
            return c;
        }
        values[id.index()].as_ref().unwrap_or_else(|| {
            panic!("value {id} requested before being computed or after being freed")
        })
    }

    fn compute_node(&self, node: &pe_graph::Node, values: &[Option<Tensor>]) -> Tensor {
        let inp = |slot: usize| self.value(values, node.inputs[slot]);

        match &node.op {
            OpKind::MatMul { trans_a, trans_b } => gemm::matmul(inp(0), inp(1), *trans_a, *trans_b),
            OpKind::BatchMatMul { trans_a, trans_b } => {
                gemm::batched_matmul(inp(0), inp(1), *trans_a, *trans_b)
            }
            OpKind::Conv2d(p) => conv::conv2d(inp(0), inp(1), *p),
            OpKind::Conv2dGradInput { params, x_dims } => {
                conv::conv2d_grad_input(inp(0), inp(1), x_dims, *params)
            }
            OpKind::Conv2dGradWeight { params, w_dims } => {
                conv::conv2d_grad_weight(inp(0), inp(1), w_dims, *params)
            }
            OpKind::Add => ew::add(inp(0), inp(1)),
            OpKind::Sub => ew::sub(inp(0), inp(1)),
            OpKind::Mul => ew::mul(inp(0), inp(1)),
            OpKind::Div => ew::div(inp(0), inp(1)),
            OpKind::Scale { factor } => ew::scale(inp(0), *factor),
            OpKind::AddBias => ew::add_bias(inp(0), inp(1)),
            OpKind::BiasGrad => ew::bias_grad(inp(0)),
            OpKind::Relu => ew::relu(inp(0)),
            OpKind::Relu6 => ew::relu6(inp(0)),
            OpKind::Gelu => ew::gelu(inp(0)),
            OpKind::Silu => ew::silu(inp(0)),
            OpKind::Sigmoid => ew::sigmoid(inp(0)),
            OpKind::Tanh => ew::tanh(inp(0)),
            OpKind::ReluGrad => ew::relu_grad(inp(0), inp(1)),
            OpKind::Relu6Grad => ew::relu6_grad(inp(0), inp(1)),
            OpKind::GeluGrad => ew::gelu_grad(inp(0), inp(1)),
            OpKind::SiluGrad => ew::silu_grad(inp(0), inp(1)),
            OpKind::SigmoidGrad => ew::sigmoid_grad_from_output(inp(0), inp(1)),
            OpKind::TanhGrad => ew::tanh_grad_from_output(inp(0), inp(1)),
            OpKind::BroadcastGradTo { dims } => {
                ew::reduce_to_shape(inp(0), &Shape::new(dims.clone()))
            }
            OpKind::FusedRegion { prog } => {
                let ins: Vec<&Tensor> =
                    node.inputs.iter().map(|&i| self.value(values, i)).collect();
                fused::fused_region(prog, &ins)
            }
            OpKind::Reduce {
                op,
                axes,
                keep_dims,
            } => reduce::reduce(inp(0), *op, axes, *keep_dims),
            OpKind::ReduceGrad {
                op,
                axes,
                input_dims,
            } => reduce::reduce_grad(inp(0), *op, input_dims, axes),
            OpKind::Reshape { dims } => inp(0).reshape(dims.clone()),
            OpKind::Transpose2d => layout::transpose2d(inp(0)),
            OpKind::Permute { perm } => layout::permute(inp(0), perm),
            OpKind::Slice { axis, start, len } => layout::slice_axis(inp(0), *axis, *start, *len),
            OpKind::Unslice {
                axis,
                start,
                full_dims,
            } => layout::unslice_axis(inp(0), *axis, *start, full_dims),
            OpKind::Concat { axis } => {
                let tensors: Vec<&Tensor> =
                    node.inputs.iter().map(|&i| self.value(values, i)).collect();
                layout::concat(&tensors, *axis)
            }
            OpKind::AvgPool2d(p) => pool::avg_pool2d(inp(0), *p),
            OpKind::AvgPool2dGrad { params, x_dims } => {
                pool::avg_pool2d_grad(inp(0), x_dims, *params)
            }
            OpKind::MaxPool2d(p) => pool::max_pool2d_with_indices(inp(0), *p).0,
            OpKind::MaxPool2dGrad { params } => {
                let x = inp(0);
                let (_, indices) = pool::max_pool2d_with_indices(x, *params);
                pool::max_pool2d_grad(inp(1), &indices, x.dims())
            }
            OpKind::GlobalAvgPool => pool::global_avg_pool(inp(0)),
            OpKind::GlobalAvgPoolGrad { x_dims } => pool::global_avg_pool_grad(inp(0), x_dims),
            OpKind::Softmax => norm::softmax(inp(0)),
            OpKind::SoftmaxGrad => norm::softmax_grad_from_output(inp(0), inp(1)),
            OpKind::LayerNorm { eps } => norm::layer_norm(inp(0), inp(1), inp(2), *eps),
            OpKind::LayerNormGradX { eps } => norm::layer_norm_grad(inp(0), inp(1), inp(2), *eps).0,
            OpKind::LayerNormGradGamma { eps } => {
                // gamma does not influence dgamma; pass a ones vector.
                let cols = *inp(0).dims().last().expect("rank >= 1");
                let ones = Tensor::ones([cols]);
                norm::layer_norm_grad(inp(0), &ones, inp(1), *eps).1
            }
            OpKind::RmsNorm { eps } => norm::rms_norm(inp(0), inp(1), *eps),
            OpKind::RmsNormGradX { eps } => norm::rms_norm_grad(inp(0), inp(1), inp(2), *eps).0,
            OpKind::RmsNormGradGamma { eps } => {
                let cols = *inp(0).dims().last().expect("rank >= 1");
                let ones = Tensor::ones([cols]);
                norm::rms_norm_grad(inp(0), &ones, inp(1), *eps).1
            }
            OpKind::Embedding => embedding::gather(inp(0), inp(1)),
            OpKind::EmbeddingGrad { vocab, dim } => {
                embedding::gather_grad(inp(0), inp(1), *vocab, *dim)
            }
            OpKind::CrossEntropyLoss => norm::cross_entropy_loss(inp(0), inp(1)),
            OpKind::CrossEntropyGrad => {
                let dloss = inp(2).data()[0];
                norm::cross_entropy_grad(inp(0), inp(1), dloss)
            }
            OpKind::Input | OpKind::Parameter | OpKind::Constant | OpKind::ApplyUpdate { .. } => {
                unreachable!("leaf/update nodes are handled by the schedule loop")
            }
        }
    }
}
