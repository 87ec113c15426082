//! Ergonomic construction of forward graphs (the engine "frontend").
//!
//! `GraphBuilder` plays the role of PockEngine's frontend importers: model
//! definitions (from the model zoo in `pe-models` or from user code) are
//! expressed through these methods and lowered into the unified IR with
//! static shapes inferred at build time.

use pe_tensor::kernels::conv::{conv2d_out_dims, Conv2dParams};
use pe_tensor::kernels::pool::Pool2dParams;
use pe_tensor::{Rng, Shape, Tensor};

use crate::graph::Graph;
use crate::op::{NodeId, OpKind, ParamRole};

/// Builder for forward computation graphs.
///
/// # Example
///
/// ```
/// use pe_graph::GraphBuilder;
/// use pe_tensor::{Rng, Tensor};
///
/// let mut rng = Rng::seed_from_u64(0);
/// let mut b = GraphBuilder::new();
/// let x = b.input("x", [8, 16]);
/// let w = b.weight("fc.weight", [4, 16], &mut rng);
/// let bias = b.bias("fc.bias", 4);
/// let y = b.linear(x, w, Some(bias));
/// let labels = b.input("labels", [8]);
/// let loss = b.cross_entropy(y, labels);
/// let graph = b.finish(vec![loss, y]);
/// assert!(graph.validate().is_empty());
/// ```
#[derive(Debug, Default)]
pub struct GraphBuilder {
    graph: Graph,
    defer_init: bool,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        GraphBuilder {
            graph: Graph::new(),
            defer_init: false,
        }
    }

    /// Creates a builder that defers parameter initialisation.
    ///
    /// Use this for paper-scale configurations (hundreds of millions to
    /// billions of parameters) that are only analysed by the memory planner,
    /// never executed: no initial tensors are allocated.
    pub fn new_deferred() -> Self {
        GraphBuilder {
            graph: Graph::new(),
            defer_init: true,
        }
    }

    /// Finishes the build, setting the graph outputs.
    pub fn finish(mut self, outputs: Vec<NodeId>) -> Graph {
        self.graph.set_outputs(outputs);
        self.graph
    }

    /// Shape of an already-added node.
    pub(crate) fn shape_of(&self, id: NodeId) -> &Shape {
        &self.graph.node(id).shape
    }

    /// Dims of an already-added node.
    pub fn dims_of(&self, id: NodeId) -> Vec<usize> {
        self.graph.node(id).shape.dims().to_vec()
    }

    /// Read-only access to the graph under construction.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    fn push(
        &mut self,
        op: OpKind,
        inputs: Vec<NodeId>,
        shape: impl Into<Shape>,
        name: String,
    ) -> NodeId {
        self.graph.push_node(op, inputs, shape.into(), name)
    }

    fn auto_name(&self, mnemonic: &str) -> String {
        format!("{mnemonic}_{}", self.graph.len())
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// Adds a step input (activation, label tensor, ...).
    pub fn input(&mut self, name: &str, dims: impl Into<Shape>) -> NodeId {
        let id = self.push(OpKind::Input, vec![], dims, name.to_string());
        self.graph.mark_input(id);
        id
    }

    /// Adds a parameter with explicit role and initial value.
    pub(crate) fn parameter(&mut self, name: &str, role: ParamRole, init: Tensor) -> NodeId {
        let id = self.push(
            OpKind::Parameter,
            vec![],
            init.shape().clone(),
            name.to_string(),
        );
        self.graph.mark_param(id, role, init);
        id
    }

    /// Adds a parameter whose initial value is deferred (never allocated).
    pub(crate) fn parameter_deferred(
        &mut self,
        name: &str,
        role: ParamRole,
        dims: impl Into<Shape>,
    ) -> NodeId {
        let id = self.push(OpKind::Parameter, vec![], dims, name.to_string());
        self.graph
            .mark_param(id, role, crate::graph::ParamInit::Deferred);
        id
    }

    /// Adds a Kaiming-initialised weight parameter. The fan-in is taken as
    /// the product of all dimensions except the first.
    pub fn weight(&mut self, name: &str, dims: impl Into<Shape>, rng: &mut Rng) -> NodeId {
        let shape: Shape = dims.into();
        if self.defer_init {
            return self.parameter_deferred(name, ParamRole::Weight, shape);
        }
        let fan_in: usize = shape.dims()[1..].iter().product::<usize>().max(1);
        let init = Tensor::kaiming(shape, fan_in, rng);
        self.parameter(name, ParamRole::Weight, init)
    }

    /// Adds a zero-initialised bias parameter of length `n`.
    pub fn bias(&mut self, name: &str, n: usize) -> NodeId {
        if self.defer_init {
            return self.parameter_deferred(name, ParamRole::Bias, [n]);
        }
        self.parameter(name, ParamRole::Bias, Tensor::zeros([n]))
    }

    /// Adds a ones-initialised normalisation scale parameter of length `n`.
    pub fn norm_scale(&mut self, name: &str, n: usize) -> NodeId {
        if self.defer_init {
            return self.parameter_deferred(name, ParamRole::NormScale, [n]);
        }
        self.parameter(name, ParamRole::NormScale, Tensor::ones([n]))
    }

    /// Adds a zeros-initialised normalisation shift parameter of length `n`.
    pub fn norm_bias(&mut self, name: &str, n: usize) -> NodeId {
        if self.defer_init {
            return self.parameter_deferred(name, ParamRole::NormBias, [n]);
        }
        self.parameter(name, ParamRole::NormBias, Tensor::zeros([n]))
    }

    /// Adds an embedding table parameter `[vocab, dim]`.
    pub fn embedding_table(
        &mut self,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut Rng,
    ) -> NodeId {
        if self.defer_init {
            return self.parameter_deferred(name, ParamRole::Embedding, [vocab, dim]);
        }
        let init = Tensor::randn([vocab, dim], 0.02, rng);
        self.parameter(name, ParamRole::Embedding, init)
    }

    /// Adds a constant tensor whose value is baked into the graph.
    pub fn constant(&mut self, name: &str, value: Tensor) -> NodeId {
        let id = self.push(
            OpKind::Constant,
            vec![],
            value.shape().clone(),
            name.to_string(),
        );
        self.graph.mark_constant(id, value);
        id
    }

    // ------------------------------------------------------------------
    // Dense / conv layers
    // ------------------------------------------------------------------

    /// 2-D matrix multiply.
    pub(crate) fn matmul(&mut self, a: NodeId, b: NodeId, trans_a: bool, trans_b: bool) -> NodeId {
        let ad = self.dims_of(a);
        let bd = self.dims_of(b);
        assert_eq!(ad.len(), 2, "matmul lhs must be rank 2");
        assert_eq!(bd.len(), 2, "matmul rhs must be rank 2");
        let (m, k) = if trans_a {
            (ad[1], ad[0])
        } else {
            (ad[0], ad[1])
        };
        let (kb, n) = if trans_b {
            (bd[1], bd[0])
        } else {
            (bd[0], bd[1])
        };
        assert_eq!(k, kb, "matmul contraction mismatch");
        let name = self.auto_name("matmul");
        self.push(
            OpKind::MatMul { trans_a, trans_b },
            vec![a, b],
            [m, n],
            name,
        )
    }

    /// Batched matrix multiply over identical leading dims.
    pub fn batch_matmul(&mut self, a: NodeId, b: NodeId, trans_a: bool, trans_b: bool) -> NodeId {
        let ad = self.dims_of(a);
        let bd = self.dims_of(b);
        let r = ad.len();
        assert!(
            r >= 3 && bd.len() == r,
            "batch_matmul requires equal rank >= 3"
        );
        assert_eq!(&ad[..r - 2], &bd[..r - 2], "batch dims mismatch");
        let (am, ak) = (ad[r - 2], ad[r - 1]);
        let (bm, bk) = (bd[r - 2], bd[r - 1]);
        let (m, k) = if trans_a { (ak, am) } else { (am, ak) };
        let (kb, n) = if trans_b { (bk, bm) } else { (bm, bk) };
        assert_eq!(k, kb, "batch_matmul contraction mismatch");
        let mut out = ad[..r - 2].to_vec();
        out.push(m);
        out.push(n);
        let name = self.auto_name("bmm");
        self.push(
            OpKind::BatchMatMul { trans_a, trans_b },
            vec![a, b],
            out,
            name,
        )
    }

    /// Fully-connected layer `y = x · Wᵀ (+ bias)`.
    ///
    /// `x` may be rank 2 `[N, in]` or rank 3 `[N, T, in]`; rank-3 inputs are
    /// flattened to 2-D for the matmul and restored afterwards.
    pub fn linear(&mut self, x: NodeId, weight: NodeId, bias: Option<NodeId>) -> NodeId {
        let xd = self.dims_of(x);
        let wd = self.dims_of(weight);
        assert_eq!(wd.len(), 2, "linear weight must be [out, in]");
        let in_features = *xd.last().expect("linear input must have rank >= 1");
        assert_eq!(wd[1], in_features, "linear in_features mismatch");
        let out_features = wd[0];

        let x2d = if xd.len() == 2 {
            x
        } else {
            let rows: usize = xd[..xd.len() - 1].iter().product();
            self.reshape(x, vec![rows, in_features])
        };
        let mut y = self.matmul(x2d, weight, false, true);
        if let Some(b) = bias {
            y = self.add_bias(y, b);
        }
        if xd.len() > 2 {
            let mut out_dims = xd[..xd.len() - 1].to_vec();
            out_dims.push(out_features);
            y = self.reshape(y, out_dims);
        }
        y
    }

    /// 2-D convolution (NCHW).
    pub fn conv2d(&mut self, x: NodeId, weight: NodeId, params: Conv2dParams) -> NodeId {
        let xd = self.dims_of(x);
        let wd = self.dims_of(weight);
        let od = conv2d_out_dims(&xd, &wd, params);
        let name = self.auto_name("conv2d");
        self.push(OpKind::Conv2d(params), vec![x, weight], od.to_vec(), name)
    }

    /// Adds a per-channel bias.
    pub fn add_bias(&mut self, x: NodeId, bias: NodeId) -> NodeId {
        let shape = self.dims_of(x);
        let name = self.auto_name("add_bias");
        self.push(OpKind::AddBias, vec![x, bias], shape, name)
    }

    // ------------------------------------------------------------------
    // Element-wise
    // ------------------------------------------------------------------

    fn unary(&mut self, op: OpKind, x: NodeId) -> NodeId {
        let shape = self.dims_of(x);
        let name = self.auto_name(op.mnemonic());
        self.push(op, vec![x], shape, name)
    }

    fn binary_broadcast(&mut self, op: OpKind, a: NodeId, b: NodeId) -> NodeId {
        let sa = self.shape_of(a).clone();
        let sb = self.shape_of(b).clone();
        let out = sa
            .broadcast_with(&sb)
            .unwrap_or_else(|| panic!("shapes {sa} and {sb} not broadcastable"));
        let name = self.auto_name(op.mnemonic());
        self.push(op, vec![a, b], out, name)
    }

    /// ReLU activation.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        self.unary(OpKind::Relu, x)
    }

    /// ReLU6 activation.
    pub fn relu6(&mut self, x: NodeId) -> NodeId {
        self.unary(OpKind::Relu6, x)
    }

    /// GELU activation.
    pub fn gelu(&mut self, x: NodeId) -> NodeId {
        self.unary(OpKind::Gelu, x)
    }

    /// SiLU activation.
    pub fn silu(&mut self, x: NodeId) -> NodeId {
        self.unary(OpKind::Silu, x)
    }

    /// Sigmoid activation.
    pub fn sigmoid(&mut self, x: NodeId) -> NodeId {
        self.unary(OpKind::Sigmoid, x)
    }

    /// Tanh activation.
    pub fn tanh(&mut self, x: NodeId) -> NodeId {
        self.unary(OpKind::Tanh, x)
    }

    /// Element-wise addition with broadcasting.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary_broadcast(OpKind::Add, a, b)
    }

    /// Element-wise multiplication with broadcasting.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary_broadcast(OpKind::Mul, a, b)
    }

    /// Multiplication by a static scalar.
    pub fn scale(&mut self, x: NodeId, factor: f32) -> NodeId {
        let shape = self.dims_of(x);
        let name = self.auto_name("scale");
        self.push(OpKind::Scale { factor }, vec![x], shape, name)
    }

    // ------------------------------------------------------------------
    // Shape ops
    // ------------------------------------------------------------------

    /// Reshape to new static dimensions (volume must match).
    pub fn reshape(&mut self, x: NodeId, dims: Vec<usize>) -> NodeId {
        let vol: usize = dims.iter().product();
        assert_eq!(vol, self.shape_of(x).numel(), "reshape volume mismatch");
        let name = self.auto_name("reshape");
        self.push(OpKind::Reshape { dims: dims.clone() }, vec![x], dims, name)
    }

    /// Dimension permutation.
    pub fn permute(&mut self, x: NodeId, perm: Vec<usize>) -> NodeId {
        let d = self.dims_of(x);
        assert_eq!(perm.len(), d.len(), "perm length mismatch");
        let out: Vec<usize> = perm.iter().map(|&p| d[p]).collect();
        let name = self.auto_name("permute");
        self.push(OpKind::Permute { perm }, vec![x], out, name)
    }

    /// Slice `[start, start+len)` along `axis`.
    pub fn slice(&mut self, x: NodeId, axis: usize, start: usize, len: usize) -> NodeId {
        let mut d = self.dims_of(x);
        assert!(start + len <= d[axis], "slice out of bounds");
        d[axis] = len;
        let name = self.auto_name("slice");
        self.push(OpKind::Slice { axis, start, len }, vec![x], d, name)
    }

    // ------------------------------------------------------------------
    // Spatial ops
    // ------------------------------------------------------------------

    /// Max pooling.
    pub fn max_pool2d(&mut self, x: NodeId, params: Pool2dParams) -> NodeId {
        let d = self.dims_of(x);
        let out = vec![d[0], d[1], params.out_size(d[2]), params.out_size(d[3])];
        let name = self.auto_name("max_pool");
        self.push(OpKind::MaxPool2d(params), vec![x], out, name)
    }

    /// Global average pooling `[N,C,H,W] -> [N,C]`.
    pub fn global_avg_pool(&mut self, x: NodeId) -> NodeId {
        let d = self.dims_of(x);
        assert_eq!(d.len(), 4, "global_avg_pool requires rank 4");
        let name = self.auto_name("gap");
        self.push(OpKind::GlobalAvgPool, vec![x], vec![d[0], d[1]], name)
    }

    // ------------------------------------------------------------------
    // Normalisation, attention, loss
    // ------------------------------------------------------------------

    /// Softmax along the last axis.
    pub fn softmax(&mut self, x: NodeId) -> NodeId {
        self.unary(OpKind::Softmax, x)
    }

    /// Layer normalisation with affine parameters.
    pub fn layer_norm(&mut self, x: NodeId, gamma: NodeId, beta: NodeId, eps: f32) -> NodeId {
        let shape = self.dims_of(x);
        let name = self.auto_name("layer_norm");
        self.push(OpKind::LayerNorm { eps }, vec![x, gamma, beta], shape, name)
    }

    /// RMS normalisation.
    pub fn rms_norm(&mut self, x: NodeId, gamma: NodeId, eps: f32) -> NodeId {
        let shape = self.dims_of(x);
        let name = self.auto_name("rms_norm");
        self.push(OpKind::RmsNorm { eps }, vec![x, gamma], shape, name)
    }

    /// Embedding lookup.
    pub fn embedding(&mut self, table: NodeId, ids: NodeId) -> NodeId {
        let td = self.dims_of(table);
        let mut out = self.dims_of(ids);
        out.push(td[1]);
        let name = self.auto_name("embedding");
        self.push(OpKind::Embedding, vec![table, ids], out, name)
    }

    /// Mean cross-entropy loss (scalar output).
    pub fn cross_entropy(&mut self, logits: NodeId, targets: NodeId) -> NodeId {
        let name = self.auto_name("cross_entropy");
        self.push(
            OpKind::CrossEntropyLoss,
            vec![logits, targets],
            Shape::scalar(),
            name,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_rank2_and_rank3() {
        let mut rng = Rng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x2 = b.input("x2", [4, 8]);
        let w = b.weight("w", [16, 8], &mut rng);
        let bias = b.bias("b", 16);
        let y2 = b.linear(x2, w, Some(bias));
        assert_eq!(b.dims_of(y2), vec![4, 16]);

        let x3 = b.input("x3", [2, 5, 8]);
        let y3 = b.linear(x3, w, Some(bias));
        assert_eq!(b.dims_of(y3), vec![2, 5, 16]);
    }

    #[test]
    fn conv_and_pool_shapes() {
        let mut rng = Rng::seed_from_u64(1);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [2, 3, 32, 32]);
        let w = b.weight("conv.weight", [8, 3, 3, 3], &mut rng);
        let y = b.conv2d(x, w, Conv2dParams::new(2, 1));
        assert_eq!(b.dims_of(y), vec![2, 8, 16, 16]);
        let p = b.max_pool2d(y, Pool2dParams::new(2, 2, 0));
        assert_eq!(b.dims_of(p), vec![2, 8, 8, 8]);
        let g = b.global_avg_pool(p);
        assert_eq!(b.dims_of(g), vec![2, 8]);
    }

    #[test]
    fn attention_style_shapes() {
        let mut b = GraphBuilder::new();
        let q = b.input("q", [2, 4, 8, 16]); // [B, H, T, D]
        let k = b.input("k", [2, 4, 8, 16]);
        let scores = b.batch_matmul(q, k, false, true);
        assert_eq!(b.dims_of(scores), vec![2, 4, 8, 8]);
        let probs = b.softmax(scores);
        assert_eq!(b.dims_of(probs), vec![2, 4, 8, 8]);
    }

    #[test]
    fn shape_ops() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", [2, 3, 4]);
        let r = b.reshape(x, vec![6, 4]);
        assert_eq!(b.dims_of(r), vec![6, 4]);
        let p = b.permute(x, vec![2, 0, 1]);
        assert_eq!(b.dims_of(p), vec![4, 2, 3]);
        let s = b.slice(x, 1, 0, 2);
        assert_eq!(b.dims_of(s), vec![2, 2, 4]);
    }

    #[test]
    fn embedding_and_loss() {
        let mut rng = Rng::seed_from_u64(2);
        let mut b = GraphBuilder::new();
        let table = b.embedding_table("tok", 100, 32, &mut rng);
        let ids = b.input("ids", [4, 10]);
        let e = b.embedding(table, ids);
        assert_eq!(b.dims_of(e), vec![4, 10, 32]);
        let logits = b.input("logits", [4, 7]);
        let labels = b.input("labels", [4]);
        let loss = b.cross_entropy(logits, labels);
        assert_eq!(b.shape_of(loss).rank(), 0);
    }

    #[test]
    fn graph_is_valid_and_has_params() {
        let mut rng = Rng::seed_from_u64(3);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [1, 8]);
        let w = b.weight("w", [4, 8], &mut rng);
        let y = b.linear(x, w, None);
        let g = b.finish(vec![y]);
        assert!(g.validate().is_empty());
        assert_eq!(g.param_count(), 32);
        assert_eq!(g.outputs(), &[y]);
    }

    #[test]
    #[should_panic(expected = "in_features mismatch")]
    fn linear_feature_mismatch_panics() {
        let mut rng = Rng::seed_from_u64(4);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [1, 8]);
        let w = b.weight("w", [4, 9], &mut rng);
        b.linear(x, w, None);
    }
}
