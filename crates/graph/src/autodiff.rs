//! Compile-time reverse-mode automatic differentiation.
//!
//! This is the heart of the paper's "compilation first" design (§2.5,
//! Figure 7): the backward graph is derived once, ahead of time, from the
//! static forward graph, and expressed with the same primitive operator set.
//! The sparse-backpropagation scheme is applied *during* derivation: frozen
//! parameters simply never request a gradient, so the corresponding weight-
//! gradient nodes, the activations they would have needed, and any
//! backpropagation below the earliest trainable layer are never emitted —
//! there is nothing to mask out at runtime and no dead node for a later pass
//! to remove.

use std::collections::HashMap;

use pe_tensor::{Shape, Tensor};

use crate::graph::Graph;
use crate::op::{NodeId, OpKind, TrainKind};

/// Per-parameter training specification, keyed by parameter node id.
///
/// Parameters missing from the map default to [`TrainKind::Full`], so an
/// empty map yields conventional full backpropagation.
pub type TrainSpec = HashMap<NodeId, TrainKind>;

/// Result of extending a forward graph with its backward and update nodes.
#[derive(Debug, Clone)]
pub struct TrainingGraph {
    /// The extended graph (forward + backward + parameter updates).
    pub graph: Graph,
    /// The loss node the backward pass was seeded from.
    pub loss: NodeId,
    /// Gradient node for every trainable parameter that received one.
    pub param_grads: HashMap<NodeId, NodeId>,
    /// The `ApplyUpdate` nodes, in emission order.
    pub updates: Vec<NodeId>,
}

impl TrainingGraph {
    /// Total number of parameter *elements* that receive updates (counting
    /// only the updated rows for channel-sparse parameters).
    pub fn trainable_element_count(&self) -> usize {
        self.updates
            .iter()
            .map(|&u| match &self.graph.node(u).op {
                OpKind::ApplyUpdate { param, rows } => {
                    let dims = self.graph.node(*param).shape.dims().to_vec();
                    match rows {
                        Some(k) => k * dims[1..].iter().product::<usize>().max(1),
                        None => dims.iter().product(),
                    }
                }
                _ => 0,
            })
            .sum()
    }
}

/// Derives the backward graph and parameter-update nodes for `graph`, seeded
/// at `loss`, honouring the sparse-backpropagation `spec`.
///
/// The input graph is consumed and returned extended; forward nodes keep
/// their ids.
///
/// # Panics
///
/// Panics if `loss` is not a scalar node, or if the graph contains an op with
/// no registered VJP rule on a path that requires gradients.
pub fn build_training_graph(graph: Graph, loss: NodeId, spec: &TrainSpec) -> TrainingGraph {
    let ad = Autodiff::new(graph, spec.clone());
    ad.run(loss)
}

struct Autodiff {
    graph: Graph,
    spec: TrainSpec,
    /// Whether each forward node requires a gradient (depends on a trainable
    /// parameter).
    requires_grad: Vec<bool>,
    /// Accumulated partial gradients per forward node.
    partials: HashMap<NodeId, Vec<NodeId>>,
}

impl Autodiff {
    fn new(graph: Graph, spec: TrainSpec) -> Self {
        let n = graph.len();
        Autodiff {
            graph,
            spec,
            requires_grad: vec![false; n],
            partials: HashMap::new(),
        }
    }

    fn train_kind(&self, param: NodeId) -> TrainKind {
        self.spec.get(&param).copied().unwrap_or(TrainKind::Full)
    }

    fn compute_requires_grad(&mut self) {
        for idx in 0..self.graph.len() {
            let id = NodeId(idx);
            let node = self.graph.node(id);
            let req = match node.op {
                OpKind::Parameter => self.train_kind(id).is_trainable(),
                OpKind::Input | OpKind::Constant => false,
                _ => node.inputs.iter().any(|i| self.requires_grad[i.0]),
            };
            self.requires_grad[idx] = req;
        }
    }

    fn emit(
        &mut self,
        op: OpKind,
        inputs: Vec<NodeId>,
        shape: impl Into<Shape>,
        name: String,
    ) -> NodeId {
        self.graph.push_node(op, inputs, shape.into(), name)
    }

    fn dims(&self, id: NodeId) -> Vec<usize> {
        self.graph.node(id).shape.dims().to_vec()
    }

    fn add_partial(&mut self, target: NodeId, grad: NodeId) {
        self.partials.entry(target).or_default().push(grad);
    }

    /// Sums the partial gradients of a node into a single gradient node.
    fn finalize_grad(&mut self, id: NodeId) -> Option<NodeId> {
        let parts = self.partials.remove(&id)?;
        let mut iter = parts.into_iter();
        let mut acc = iter.next()?;
        for p in iter {
            let shape = self.dims(acc);
            let name = format!("grad_acc.{}", self.graph.node(id).name);
            acc = self.emit(OpKind::Add, vec![acc, p], shape, name);
        }
        Some(acc)
    }

    /// If `grad`'s shape differs from the operand's shape (broadcasting in
    /// the forward op), reduce it back.
    fn reduce_to_operand(&mut self, grad: NodeId, operand: NodeId) -> NodeId {
        let g_dims = self.dims(grad);
        let o_dims = self.dims(operand);
        if g_dims == o_dims {
            grad
        } else {
            let name = format!("grad_bcast.{}", self.graph.node(operand).name);
            self.emit(
                OpKind::BroadcastGradTo {
                    dims: o_dims.clone(),
                },
                vec![grad],
                o_dims,
                name,
            )
        }
    }

    fn run(mut self, loss: NodeId) -> TrainingGraph {
        assert_eq!(
            self.graph.node(loss).shape.rank(),
            0,
            "the loss must be a scalar node"
        );
        self.compute_requires_grad();

        // Seed: dL/dL = 1.
        let seed = {
            let id = self.emit(
                OpKind::Constant,
                vec![],
                Shape::scalar(),
                "grad.seed".to_string(),
            );
            self.graph.mark_constant(id, Tensor::scalar(1.0));
            id
        };
        self.add_partial(loss, seed);

        let forward_len = self.requires_grad.len();
        let mut param_grads: HashMap<NodeId, NodeId> = HashMap::new();

        for idx in (0..forward_len).rev() {
            let id = NodeId(idx);
            if !self.requires_grad[idx] {
                continue;
            }
            let Some(grad) = self.finalize_grad(id) else {
                continue;
            };

            let node = self.graph.node(id).clone();
            match node.op {
                OpKind::Parameter => {
                    param_grads.insert(id, grad);
                }
                _ => self.emit_vjps(&node, grad, &mut param_grads),
            }
        }

        // Emit parameter updates.
        let mut updates = Vec::new();
        let mut param_ids: Vec<NodeId> = param_grads.keys().copied().collect();
        param_ids.sort();
        for pid in param_ids {
            let grad = param_grads[&pid];
            let rows = match self.train_kind(pid) {
                TrainKind::Channels(k) => Some(k),
                _ => None,
            };
            let name = format!("update.{}", self.graph.node(pid).name);
            let u = self.emit(
                OpKind::ApplyUpdate { param: pid, rows },
                vec![grad],
                Shape::scalar(),
                name,
            );
            updates.push(u);
        }

        // Updates join the loss as the graph's outputs: the roots that every
        // live node feeds.
        for &u in &updates {
            self.graph.push_output(u);
        }

        TrainingGraph {
            graph: self.graph,
            loss,
            param_grads,
            updates,
        }
    }

    /// Emits vector-Jacobian products of `node` given the gradient of its
    /// output, accumulating partials into the node's inputs.
    fn emit_vjps(
        &mut self,
        node: &crate::graph::Node,
        dy: NodeId,
        param_grads: &mut HashMap<NodeId, NodeId>,
    ) {
        let id = node.id;
        let inputs = node.inputs.clone();
        let needs: Vec<bool> = inputs.iter().map(|i| self.requires_grad[i.0]).collect();
        let gname = |s: &str| format!("grad.{}.{s}", node.name);

        match node.op.clone() {
            OpKind::MatMul { trans_a, trans_b } => {
                assert!(
                    !trans_a,
                    "autodiff supports matmul with trans_a = false only"
                );
                let (a, b) = (inputs[0], inputs[1]);
                if needs[0] {
                    let da = self.emit(
                        OpKind::MatMul {
                            trans_a: false,
                            trans_b: !trans_b,
                        },
                        vec![dy, b],
                        self.dims(a),
                        gname("lhs"),
                    );
                    self.add_partial(a, da);
                }
                if needs[1] {
                    // Channel-sparse weight update: only the first k output
                    // features receive a gradient.
                    let kind = if matches!(self.graph.node(b).op, OpKind::Parameter) {
                        self.train_kind(b)
                    } else {
                        TrainKind::Full
                    };
                    match kind {
                        TrainKind::Channels(k) if trans_b => {
                            let dyd = self.dims(dy);
                            let sliced = self.emit(
                                OpKind::Slice {
                                    axis: 1,
                                    start: 0,
                                    len: k,
                                },
                                vec![dy],
                                vec![dyd[0], k],
                                gname("dy_rows"),
                            );
                            let bd = self.dims(b);
                            let db = self.emit(
                                OpKind::MatMul {
                                    trans_a: true,
                                    trans_b: false,
                                },
                                vec![sliced, a],
                                vec![k, bd[1]],
                                gname("rhs_rows"),
                            );
                            param_grads.insert(b, db);
                        }
                        _ => {
                            let db = if trans_b {
                                // y = a bᵀ, b is [n, k]: db = dyᵀ a.
                                self.emit(
                                    OpKind::MatMul {
                                        trans_a: true,
                                        trans_b: false,
                                    },
                                    vec![dy, a],
                                    self.dims(b),
                                    gname("rhs"),
                                )
                            } else {
                                // y = a b: db = aᵀ dy.
                                self.emit(
                                    OpKind::MatMul {
                                        trans_a: true,
                                        trans_b: false,
                                    },
                                    vec![a, dy],
                                    self.dims(b),
                                    gname("rhs"),
                                )
                            };
                            self.add_partial(b, db);
                        }
                    }
                }
            }
            OpKind::BatchMatMul { trans_a, trans_b } => {
                assert!(
                    !trans_a,
                    "autodiff supports batch_matmul with trans_a = false only"
                );
                let (a, b) = (inputs[0], inputs[1]);
                if needs[0] {
                    let da = self.emit(
                        OpKind::BatchMatMul {
                            trans_a: false,
                            trans_b: !trans_b,
                        },
                        vec![dy, b],
                        self.dims(a),
                        gname("lhs"),
                    );
                    self.add_partial(a, da);
                }
                if needs[1] {
                    let db = if trans_b {
                        self.emit(
                            OpKind::BatchMatMul {
                                trans_a: true,
                                trans_b: false,
                            },
                            vec![dy, a],
                            self.dims(b),
                            gname("rhs"),
                        )
                    } else {
                        self.emit(
                            OpKind::BatchMatMul {
                                trans_a: true,
                                trans_b: false,
                            },
                            vec![a, dy],
                            self.dims(b),
                            gname("rhs"),
                        )
                    };
                    self.add_partial(b, db);
                }
            }
            OpKind::Conv2d(params) => {
                let (x, w) = (inputs[0], inputs[1]);
                if needs[0] {
                    let dx = self.emit(
                        OpKind::Conv2dGradInput {
                            params,
                            x_dims: self.dims(x),
                        },
                        vec![dy, w],
                        self.dims(x),
                        gname("input"),
                    );
                    self.add_partial(x, dx);
                }
                if needs[1] {
                    let kind = if matches!(self.graph.node(w).op, OpKind::Parameter) {
                        self.train_kind(w)
                    } else {
                        TrainKind::Full
                    };
                    let w_dims = self.dims(w);
                    match kind {
                        TrainKind::Channels(k) => {
                            assert_eq!(
                                params.groups, 1,
                                "channel-sparse conv update requires groups == 1"
                            );
                            let dyd = self.dims(dy);
                            let sliced = self.emit(
                                OpKind::Slice {
                                    axis: 1,
                                    start: 0,
                                    len: k,
                                },
                                vec![dy],
                                vec![dyd[0], k, dyd[2], dyd[3]],
                                gname("dy_channels"),
                            );
                            let mut gshape = w_dims.clone();
                            gshape[0] = k;
                            let dw = self.emit(
                                OpKind::Conv2dGradWeight {
                                    params,
                                    w_dims: w_dims.clone(),
                                },
                                vec![x, sliced],
                                gshape,
                                gname("weight_channels"),
                            );
                            param_grads.insert(w, dw);
                        }
                        _ => {
                            let dw = self.emit(
                                OpKind::Conv2dGradWeight {
                                    params,
                                    w_dims: w_dims.clone(),
                                },
                                vec![x, dy],
                                w_dims,
                                gname("weight"),
                            );
                            self.add_partial(w, dw);
                        }
                    }
                }
            }
            OpKind::Add => {
                for (slot, &input) in inputs.iter().enumerate() {
                    if needs[slot] {
                        let g = self.reduce_to_operand(dy, input);
                        self.add_partial(input, g);
                    }
                }
            }
            OpKind::Mul => {
                let (a, b) = (inputs[0], inputs[1]);
                if needs[0] {
                    let da = self.emit(OpKind::Mul, vec![dy, b], self.dims(dy), gname("lhs"));
                    let g = self.reduce_to_operand(da, a);
                    self.add_partial(a, g);
                }
                if needs[1] {
                    let db = self.emit(OpKind::Mul, vec![dy, a], self.dims(dy), gname("rhs"));
                    let g = self.reduce_to_operand(db, b);
                    self.add_partial(b, g);
                }
            }
            OpKind::Scale { factor } => {
                if needs[0] {
                    let g = self.emit(
                        OpKind::Scale { factor },
                        vec![dy],
                        self.dims(dy),
                        gname("x"),
                    );
                    self.add_partial(inputs[0], g);
                }
            }
            OpKind::AddBias => {
                let (x, bias) = (inputs[0], inputs[1]);
                if needs[0] {
                    self.add_partial(x, dy);
                }
                if needs[1] {
                    let db = self.emit(OpKind::BiasGrad, vec![dy], self.dims(bias), gname("bias"));
                    self.add_partial(bias, db);
                }
            }
            OpKind::Relu | OpKind::Relu6 => {
                if needs[0] {
                    let grad_op = match node.op {
                        OpKind::Relu => OpKind::ReluGrad,
                        _ => OpKind::Relu6Grad,
                    };
                    // ReLU/ReLU6 gradients can be computed from the forward
                    // *output* (the mask is identical), which releases the
                    // pre-activation buffer early and keeps it fusible.
                    let g = self.emit(grad_op, vec![id, dy], self.dims(inputs[0]), gname("x"));
                    self.add_partial(inputs[0], g);
                }
            }
            OpKind::Gelu | OpKind::Silu => {
                if needs[0] {
                    let grad_op = match node.op {
                        OpKind::Gelu => OpKind::GeluGrad,
                        _ => OpKind::SiluGrad,
                    };
                    let g = self.emit(
                        grad_op,
                        vec![inputs[0], dy],
                        self.dims(inputs[0]),
                        gname("x"),
                    );
                    self.add_partial(inputs[0], g);
                }
            }
            OpKind::Sigmoid | OpKind::Tanh | OpKind::Softmax => {
                if needs[0] {
                    let grad_op = match node.op {
                        OpKind::Sigmoid => OpKind::SigmoidGrad,
                        OpKind::Tanh => OpKind::TanhGrad,
                        _ => OpKind::SoftmaxGrad,
                    };
                    // These VJPs use the forward *output* (the node itself).
                    let g = self.emit(grad_op, vec![id, dy], self.dims(inputs[0]), gname("x"));
                    self.add_partial(inputs[0], g);
                }
            }
            OpKind::Reshape { .. } => {
                if needs[0] {
                    let x_dims = self.dims(inputs[0]);
                    let g = self.emit(
                        OpKind::Reshape {
                            dims: x_dims.clone(),
                        },
                        vec![dy],
                        x_dims,
                        gname("x"),
                    );
                    self.add_partial(inputs[0], g);
                }
            }
            OpKind::Permute { perm } => {
                if needs[0] {
                    let inv = pe_tensor::kernels::layout::inverse_perm(&perm);
                    let g = self.emit(
                        OpKind::Permute { perm: inv },
                        vec![dy],
                        self.dims(inputs[0]),
                        gname("x"),
                    );
                    self.add_partial(inputs[0], g);
                }
            }
            OpKind::Slice { axis, start, .. } => {
                if needs[0] {
                    let full = self.dims(inputs[0]);
                    let g = self.emit(
                        OpKind::Unslice {
                            axis,
                            start,
                            full_dims: full.clone(),
                        },
                        vec![dy],
                        full,
                        gname("x"),
                    );
                    self.add_partial(inputs[0], g);
                }
            }
            OpKind::MaxPool2d(params) => {
                if needs[0] {
                    let g = self.emit(
                        OpKind::MaxPool2dGrad { params },
                        vec![inputs[0], dy],
                        self.dims(inputs[0]),
                        gname("x"),
                    );
                    self.add_partial(inputs[0], g);
                }
            }
            OpKind::GlobalAvgPool => {
                if needs[0] {
                    let x_dims = self.dims(inputs[0]);
                    let g = self.emit(
                        OpKind::GlobalAvgPoolGrad {
                            x_dims: x_dims.clone(),
                        },
                        vec![dy],
                        x_dims,
                        gname("x"),
                    );
                    self.add_partial(inputs[0], g);
                }
            }
            OpKind::LayerNorm { eps } => {
                let (x, gamma, beta) = (inputs[0], inputs[1], inputs[2]);
                if needs[0] {
                    let g = self.emit(
                        OpKind::LayerNormGradX { eps },
                        vec![x, gamma, dy],
                        self.dims(x),
                        gname("x"),
                    );
                    self.add_partial(x, g);
                }
                if needs[1] {
                    let g = self.emit(
                        OpKind::LayerNormGradGamma { eps },
                        vec![x, dy],
                        self.dims(gamma),
                        gname("gamma"),
                    );
                    self.add_partial(gamma, g);
                }
                if needs[2] {
                    let g = self.emit(OpKind::BiasGrad, vec![dy], self.dims(beta), gname("beta"));
                    self.add_partial(beta, g);
                }
            }
            OpKind::RmsNorm { eps } => {
                let (x, gamma) = (inputs[0], inputs[1]);
                if needs[0] {
                    let g = self.emit(
                        OpKind::RmsNormGradX { eps },
                        vec![x, gamma, dy],
                        self.dims(x),
                        gname("x"),
                    );
                    self.add_partial(x, g);
                }
                if needs[1] {
                    let g = self.emit(
                        OpKind::RmsNormGradGamma { eps },
                        vec![x, dy],
                        self.dims(gamma),
                        gname("gamma"),
                    );
                    self.add_partial(gamma, g);
                }
            }
            OpKind::Embedding => {
                let (table, ids) = (inputs[0], inputs[1]);
                if needs[0] {
                    let td = self.dims(table);
                    let g = self.emit(
                        OpKind::EmbeddingGrad {
                            vocab: td[0],
                            dim: td[1],
                        },
                        vec![ids, dy],
                        td,
                        gname("table"),
                    );
                    self.add_partial(table, g);
                }
            }
            OpKind::CrossEntropyLoss => {
                let (logits, targets) = (inputs[0], inputs[1]);
                if needs[0] {
                    let g = self.emit(
                        OpKind::CrossEntropyGrad,
                        vec![logits, targets, dy],
                        self.dims(logits),
                        gname("logits"),
                    );
                    self.add_partial(logits, g);
                }
            }
            OpKind::Input | OpKind::Parameter | OpKind::Constant => {}
            other => panic!("no VJP rule registered for {:?}", other.mnemonic()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::op::ParamRole;
    use pe_tensor::Rng;

    /// Three-layer MLP with a cross-entropy loss, as a test fixture.
    fn mlp(spec_of: impl Fn(&str) -> TrainKind) -> (TrainingGraph, Vec<NodeId>) {
        let mut rng = Rng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [4, 16]);
        let labels = b.input("labels", [4]);
        let mut h = x;
        let mut params = Vec::new();
        for (i, out) in [32usize, 32, 10].iter().enumerate() {
            let inf = b.dims_of(h)[1];
            let w = b.weight(&format!("fc{i}.weight"), [*out, inf], &mut rng);
            let bias = b.bias(&format!("fc{i}.bias"), *out);
            params.push(w);
            params.push(bias);
            h = b.linear(h, w, Some(bias));
            if i < 2 {
                h = b.relu(h);
            }
        }
        let loss = b.cross_entropy(h, labels);
        let g = b.finish(vec![loss, h]);
        let mut spec = TrainSpec::new();
        for &p in &params {
            spec.insert(p, spec_of(&g.node(p).name));
        }
        (build_training_graph(g, loss, &spec), params)
    }

    #[test]
    fn full_bp_updates_every_parameter() {
        let (tg, params) = mlp(|_| TrainKind::Full);
        assert_eq!(tg.param_grads.len(), params.len());
        assert_eq!(tg.updates.len(), params.len());
        assert!(tg.graph.validate().is_empty());
        // Every update node consumes the gradient of its parameter.
        for &u in &tg.updates {
            let node = tg.graph.node(u);
            assert!(matches!(node.op, OpKind::ApplyUpdate { .. }));
            assert_eq!(node.inputs.len(), 1);
        }
    }

    #[test]
    fn bias_only_skips_weight_gradients() {
        let (tg, _) = mlp(|name| {
            if name.ends_with("bias") {
                TrainKind::Full
            } else {
                TrainKind::Frozen
            }
        });
        assert_eq!(tg.param_grads.len(), 3);
        // No Conv2dGradWeight / weight-producing matmul gradients: every grad
        // feeding an update must be a BiasGrad.
        for &u in &tg.updates {
            let gid = tg.graph.node(u).inputs[0];
            assert!(
                matches!(tg.graph.node(gid).op, OpKind::BiasGrad),
                "expected BiasGrad, got {:?}",
                tg.graph.node(gid).op
            );
        }
    }

    #[test]
    fn sparse_bp_stops_backprop_before_frozen_prefix() {
        // Only the last layer trains: no gradient should flow through the
        // first linear layer at all.
        let (tg_last, _) = mlp(|name| {
            if name.starts_with("fc2") {
                TrainKind::Full
            } else {
                TrainKind::Frozen
            }
        });
        let (tg_full, _) = mlp(|_| TrainKind::Full);
        assert!(
            tg_last.graph.backward_node_count() < tg_full.graph.backward_node_count(),
            "sparse backward graph should be smaller"
        );
        // The first layer's weight gradient must not exist in the sparse graph.
        let has_fc0_grad = tg_last
            .graph
            .nodes()
            .iter()
            .any(|n| n.name.contains("grad.") && n.name.contains("fc0"));
        assert!(
            !has_fc0_grad,
            "no gradient nodes should reference the frozen first layer"
        );
    }

    #[test]
    fn channel_sparse_updates_partial_rows() {
        let (tg, _) = mlp(|name| {
            if name == "fc1.weight" {
                TrainKind::Channels(8)
            } else if name.ends_with("bias") {
                TrainKind::Full
            } else {
                TrainKind::Frozen
            }
        });
        let update = tg
            .updates
            .iter()
            .find(|&&u| tg.graph.node(u).name == "update.fc1.weight")
            .copied()
            .expect("fc1.weight should be updated");
        match tg.graph.node(update).op {
            OpKind::ApplyUpdate { rows, .. } => assert_eq!(rows, Some(8)),
            _ => unreachable!(),
        }
        // The gradient tensor shape is [8, in], not the full [32, in].
        let gid = tg.graph.node(update).inputs[0];
        assert_eq!(tg.graph.node(gid).shape.dims()[0], 8);
    }

    #[test]
    fn trainable_element_count_accounts_for_rows() {
        let (tg_full, _) = mlp(|_| TrainKind::Full);
        let (tg_sparse, _) = mlp(|name| {
            if name == "fc1.weight" {
                TrainKind::Channels(8)
            } else {
                TrainKind::Frozen
            }
        });
        assert!(tg_sparse.trainable_element_count() < tg_full.trainable_element_count());
        assert_eq!(tg_sparse.trainable_element_count(), 8 * 32);
    }

    #[test]
    fn grad_accumulates_over_residual_branches() {
        // y = relu(x W) + x W  (two consumers of the matmul) -> the gradient
        // of the matmul output must be an accumulation node.
        let mut rng = Rng::seed_from_u64(1);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [2, 8]);
        let labels = b.input("labels", [2]);
        let w = b.weight("w", [8, 8], &mut rng);
        let h = b.linear(x, w, None);
        let r = b.relu(h);
        let y = b.add(r, h);
        let loss = b.cross_entropy(y, labels);
        let g = b.finish(vec![loss]);
        let tg = build_training_graph(g, loss, &TrainSpec::new());
        let has_acc = tg
            .graph
            .nodes()
            .iter()
            .any(|n| n.name.starts_with("grad_acc."));
        assert!(has_acc, "expected a gradient accumulation node");
        assert!(tg.graph.validate().is_empty());
    }

    #[test]
    #[should_panic(expected = "must be a scalar")]
    fn non_scalar_loss_is_rejected() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", [2, 3]);
        let y = b.relu(x);
        let g = b.finish(vec![y]);
        build_training_graph(g, y, &TrainSpec::new());
    }

    #[test]
    fn frozen_everything_produces_no_updates() {
        let mut rng = Rng::seed_from_u64(2);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [2, 4]);
        let labels = b.input("labels", [2]);
        let w = b.weight("w", [3, 4], &mut rng);
        let y = b.linear(x, w, None);
        let loss = b.cross_entropy(y, labels);
        let g = b.finish(vec![loss]);
        let mut spec = TrainSpec::new();
        spec.insert(w, TrainKind::Frozen);
        let tg = build_training_graph(g, loss, &spec);
        assert!(tg.updates.is_empty());
        assert_eq!(tg.trainable_element_count(), 0);
    }

    #[test]
    fn conv_channel_sparse_grad_shape() {
        let mut rng = Rng::seed_from_u64(3);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [1, 4, 8, 8]);
        let labels = b.input("labels", [1]);
        let w = b.weight("conv.weight", [6, 4, 3, 3], &mut rng);
        let h = b.conv2d(x, w, pe_tensor::kernels::conv::Conv2dParams::new(1, 1));
        let p = b.global_avg_pool(h);
        let wfc = b.weight("fc.weight", [3, 6], &mut rng);
        let logits = b.linear(p, wfc, None);
        let loss = b.cross_entropy(logits, labels);
        let g = b.finish(vec![loss]);
        let mut spec = TrainSpec::new();
        spec.insert(w, TrainKind::Channels(2));
        spec.insert(wfc, TrainKind::Frozen);
        let tg = build_training_graph(g, loss, &spec);
        let dw = tg.param_grads[&w];
        assert_eq!(tg.graph.node(dw).shape.dims(), &[2, 4, 3, 3]);
        // Embedding-style roles untouched; graph remains valid.
        assert!(tg.graph.validate().is_empty());
        // Make sure the role metadata survives.
        assert_eq!(tg.graph.params()[&w].role, ParamRole::Weight);
    }
}
