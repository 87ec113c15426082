//! The unified operator set of the PockEngine IR.
//!
//! Forward and backward computation share one primitive operator vocabulary
//! (paper §2.5): a backward pass is just more nodes made of the same kinds of
//! ops, which is what lets inference-style backends and inference-style graph
//! optimisations apply to training graphs.

use pe_tensor::kernels::conv::Conv2dParams;
use pe_tensor::kernels::pool::Pool2dParams;

/// Identifier of a node within a [`crate::Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Role of a parameter tensor, used by update schemes to address
/// "all biases", "attention weights", etc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamRole {
    /// Convolution or linear weight matrix.
    Weight,
    /// Additive bias vector.
    Bias,
    /// Normalisation scale (gamma).
    NormScale,
    /// Normalisation shift (beta).
    NormBias,
    /// Embedding table.
    Embedding,
}

/// How a single parameter participates in backpropagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrainKind {
    /// Gradient computed for the full tensor and applied.
    #[default]
    Full,
    /// Gradient computed only for the first `k` output channels / rows
    /// (sub-layer sparse backpropagation, paper §2.6).
    Channels(usize),
    /// No gradient computed; the parameter stays frozen.
    Frozen,
}

impl TrainKind {
    /// Whether any gradient is computed for this parameter.
    pub(crate) fn is_trainable(self) -> bool {
        !matches!(self, TrainKind::Frozen)
    }
}

/// Operator kind with static attributes.
///
/// Grad-flavoured ops are ordinary graph nodes: the compile-time autodiff
/// emits them, the optimiser passes and the memory planner treat them exactly
/// like forward ops, and the executor dispatches them to the same kernel
/// library.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    // ----- leaves -----
    /// External input fed at every step (activations, labels).
    Input,
    /// Model parameter (weight/bias/...); persistent across steps.
    Parameter,
    /// Constant folded into the program.
    Constant,

    // ----- dense linear algebra -----
    /// 2-D matrix multiply with optional operand transposes.
    MatMul {
        /// Transpose the left operand.
        trans_a: bool,
        /// Transpose the right operand.
        trans_b: bool,
    },
    /// Batched matrix multiply over leading dimensions.
    BatchMatMul {
        /// Transpose the left operand (trailing two dims).
        trans_a: bool,
        /// Transpose the right operand (trailing two dims).
        trans_b: bool,
    },
    /// 2-D convolution, NCHW, inputs `[x, weight]`.
    Conv2d(Conv2dParams),
    /// Convolution input gradient, inputs `[dy, weight]`.
    Conv2dGradInput {
        /// Convolution geometry.
        params: Conv2dParams,
        /// Shape of the forward input.
        x_dims: Vec<usize>,
    },
    /// Convolution weight gradient, inputs `[x, dy]`.
    Conv2dGradWeight {
        /// Convolution geometry.
        params: Conv2dParams,
        /// Shape of the full weight tensor.
        w_dims: Vec<usize>,
    },

    // ----- element-wise -----
    /// Element-wise addition with broadcasting.
    Add,
    /// Element-wise multiplication with broadcasting.
    Mul,
    /// Multiplication by a static scalar.
    Scale {
        /// The constant factor.
        factor: f32,
    },
    /// Adds a per-channel/per-feature bias, inputs `[x, bias]`.
    AddBias,
    /// Bias gradient: sums the upstream gradient over non-channel dims.
    BiasGrad,
    /// ReLU activation.
    Relu,
    /// ReLU6 activation.
    Relu6,
    /// GELU activation (tanh approximation).
    Gelu,
    /// SiLU / swish activation.
    Silu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// ReLU VJP, inputs `[x, dy]`.
    ReluGrad,
    /// ReLU6 VJP, inputs `[x, dy]`.
    Relu6Grad,
    /// GELU VJP, inputs `[x, dy]`.
    GeluGrad,
    /// SiLU VJP, inputs `[x, dy]`.
    SiluGrad,
    /// Sigmoid VJP from the forward output, inputs `[y, dy]`.
    SigmoidGrad,
    /// Tanh VJP from the forward output, inputs `[y, dy]`.
    TanhGrad,
    /// Reduces a broadcasted gradient back to an operand shape.
    BroadcastGradTo {
        /// Target (pre-broadcast) dimensions.
        dims: Vec<usize>,
    },

    // ----- shape ops -----
    /// Reshape to static dimensions.
    Reshape {
        /// New dimensions.
        dims: Vec<usize>,
    },
    /// Dimension permutation.
    Permute {
        /// The permutation.
        perm: Vec<usize>,
    },
    /// Slice `[start, start+len)` along an axis.
    Slice {
        /// Axis to slice.
        axis: usize,
        /// Start index.
        start: usize,
        /// Slice length.
        len: usize,
    },
    /// Scatter a slice gradient back into a zero tensor of the full shape.
    Unslice {
        /// Axis that was sliced.
        axis: usize,
        /// Start index of the slice.
        start: usize,
        /// Full (pre-slice) dimensions.
        full_dims: Vec<usize>,
    },
    // ----- CNN spatial ops -----
    /// Max pooling.
    MaxPool2d(Pool2dParams),
    /// Max pooling gradient, inputs `[x, dy]`.
    MaxPool2dGrad {
        /// Pooling geometry.
        params: Pool2dParams,
    },
    /// Global average pooling `[N,C,H,W] -> [N,C]`.
    GlobalAvgPool,
    /// Global average pooling gradient.
    GlobalAvgPoolGrad {
        /// Forward input shape.
        x_dims: Vec<usize>,
    },

    // ----- normalisation, attention, loss -----
    /// Softmax along the last axis.
    Softmax,
    /// Softmax VJP from the forward output, inputs `[y, dy]`.
    SoftmaxGrad,
    /// Layer normalisation, inputs `[x, gamma, beta]`.
    LayerNorm {
        /// Numerical-stability epsilon.
        eps: f32,
    },
    /// LayerNorm input gradient, inputs `[x, gamma, dy]`.
    LayerNormGradX {
        /// Numerical-stability epsilon.
        eps: f32,
    },
    /// LayerNorm gamma gradient, inputs `[x, dy]`.
    LayerNormGradGamma {
        /// Numerical-stability epsilon.
        eps: f32,
    },
    /// RMS normalisation, inputs `[x, gamma]`.
    RmsNorm {
        /// Numerical-stability epsilon.
        eps: f32,
    },
    /// RMSNorm input gradient, inputs `[x, gamma, dy]`.
    RmsNormGradX {
        /// Numerical-stability epsilon.
        eps: f32,
    },
    /// RMSNorm gamma gradient, inputs `[x, dy]`.
    RmsNormGradGamma {
        /// Numerical-stability epsilon.
        eps: f32,
    },
    /// Embedding lookup, inputs `[table, ids]`.
    Embedding,
    /// Embedding gradient (scatter-add), inputs `[ids, dy]`.
    EmbeddingGrad {
        /// Vocabulary size.
        vocab: usize,
        /// Embedding dimension.
        dim: usize,
    },
    /// Mean cross-entropy loss, inputs `[logits, targets]`; scalar output.
    CrossEntropyLoss,
    /// Cross-entropy gradient w.r.t. logits, inputs `[logits, targets, dloss]`.
    CrossEntropyGrad,

    // ----- optimizer -----
    /// Applies the (already computed) gradient to a parameter in place.
    ///
    /// The optimizer formula (SGD / Adam / Lion) is selected by the runtime;
    /// the node records *where* in the schedule the update happens so that
    /// the operator-reordering pass can move it right after the gradient is
    /// produced and the memory planner can free the gradient buffer early.
    ApplyUpdate {
        /// The parameter node being updated.
        param: NodeId,
        /// When set, only the first `k` rows / output channels are updated
        /// (sub-layer sparse update).
        rows: Option<usize>,
    },
}

impl OpKind {
    /// Short mnemonic used in generated node names and diagnostics.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            OpKind::Input => "input",
            OpKind::Parameter => "param",
            OpKind::Constant => "const",
            OpKind::MatMul { .. } => "matmul",
            OpKind::BatchMatMul { .. } => "bmm",
            OpKind::Conv2d(_) => "conv2d",
            OpKind::Conv2dGradInput { .. } => "conv2d_dx",
            OpKind::Conv2dGradWeight { .. } => "conv2d_dw",
            OpKind::Add => "add",
            OpKind::Mul => "mul",
            OpKind::Scale { .. } => "scale",
            OpKind::AddBias => "add_bias",
            OpKind::BiasGrad => "bias_grad",
            OpKind::Relu => "relu",
            OpKind::Relu6 => "relu6",
            OpKind::Gelu => "gelu",
            OpKind::Silu => "silu",
            OpKind::Sigmoid => "sigmoid",
            OpKind::Tanh => "tanh",
            OpKind::ReluGrad => "relu_grad",
            OpKind::Relu6Grad => "relu6_grad",
            OpKind::GeluGrad => "gelu_grad",
            OpKind::SiluGrad => "silu_grad",
            OpKind::SigmoidGrad => "sigmoid_grad",
            OpKind::TanhGrad => "tanh_grad",
            OpKind::BroadcastGradTo { .. } => "broadcast_grad",
            OpKind::Reshape { .. } => "reshape",
            OpKind::Permute { .. } => "permute",
            OpKind::Slice { .. } => "slice",
            OpKind::Unslice { .. } => "unslice",
            OpKind::MaxPool2d(_) => "max_pool",
            OpKind::MaxPool2dGrad { .. } => "max_pool_grad",
            OpKind::GlobalAvgPool => "gap",
            OpKind::GlobalAvgPoolGrad { .. } => "gap_grad",
            OpKind::Softmax => "softmax",
            OpKind::SoftmaxGrad => "softmax_grad",
            OpKind::LayerNorm { .. } => "layer_norm",
            OpKind::LayerNormGradX { .. } => "layer_norm_dx",
            OpKind::LayerNormGradGamma { .. } => "layer_norm_dgamma",
            OpKind::RmsNorm { .. } => "rms_norm",
            OpKind::RmsNormGradX { .. } => "rms_norm_dx",
            OpKind::RmsNormGradGamma { .. } => "rms_norm_dgamma",
            OpKind::Embedding => "embedding",
            OpKind::EmbeddingGrad { .. } => "embedding_grad",
            OpKind::CrossEntropyLoss => "cross_entropy",
            OpKind::CrossEntropyGrad => "cross_entropy_grad",
            OpKind::ApplyUpdate { .. } => "apply_update",
        }
    }

    /// Whether the node is a graph leaf (holds data rather than computing).
    pub fn is_leaf(&self) -> bool {
        matches!(self, OpKind::Input | OpKind::Parameter | OpKind::Constant)
    }

    /// Whether the op belongs to the backward part of a training graph.
    pub fn is_backward(&self) -> bool {
        matches!(
            self,
            OpKind::Conv2dGradInput { .. }
                | OpKind::Conv2dGradWeight { .. }
                | OpKind::BiasGrad
                | OpKind::ReluGrad
                | OpKind::Relu6Grad
                | OpKind::GeluGrad
                | OpKind::SiluGrad
                | OpKind::SigmoidGrad
                | OpKind::TanhGrad
                | OpKind::BroadcastGradTo { .. }
                | OpKind::MaxPool2dGrad { .. }
                | OpKind::GlobalAvgPoolGrad { .. }
                | OpKind::SoftmaxGrad
                | OpKind::LayerNormGradX { .. }
                | OpKind::LayerNormGradGamma { .. }
                | OpKind::RmsNormGradX { .. }
                | OpKind::RmsNormGradGamma { .. }
                | OpKind::EmbeddingGrad { .. }
                | OpKind::CrossEntropyGrad
                | OpKind::Unslice { .. }
                | OpKind::ApplyUpdate { .. }
        )
    }

    /// Whether the node performs an in-place parameter update.
    pub fn is_update(&self) -> bool {
        matches!(self, OpKind::ApplyUpdate { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(3).to_string(), "%3");
        assert_eq!(NodeId(3).index(), 3);
    }

    #[test]
    fn train_kind_predicates() {
        assert!(TrainKind::Full.is_trainable());
        assert!(TrainKind::Channels(4).is_trainable());
        assert!(!TrainKind::Frozen.is_trainable());
        assert_eq!(TrainKind::default(), TrainKind::Full);
    }

    #[test]
    fn op_classification() {
        assert!(OpKind::Input.is_leaf());
        assert!(!OpKind::Add.is_leaf());
        assert!(OpKind::Conv2dGradWeight {
            params: Conv2dParams::default(),
            w_dims: vec![1, 1, 3, 3]
        }
        .is_backward());
        assert!(!OpKind::Conv2d(Conv2dParams::default()).is_backward());
        assert!(OpKind::ApplyUpdate {
            param: NodeId(0),
            rows: None
        }
        .is_update());
    }

    #[test]
    fn mnemonics_are_unique_enough() {
        assert_eq!(OpKind::Conv2d(Conv2dParams::default()).mnemonic(), "conv2d");
        assert_eq!(OpKind::Softmax.mnemonic(), "softmax");
        assert_ne!(OpKind::Relu.mnemonic(), OpKind::ReluGrad.mnemonic());
    }
}
