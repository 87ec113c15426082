//! Per-node cost metrics (FLOPs and memory traffic) of the IR: static
//! counts of the work a graph does, not time estimates.

use pe_tensor::kernels::conv::conv2d_flops;
use pe_tensor::kernels::gemm::matmul_flops;

use crate::graph::Graph;
use crate::op::{NodeId, OpKind};

/// Static cost of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeCost {
    /// Floating-point operations (multiply-add counted as 2).
    pub flops: u64,
    /// Bytes read from inputs plus bytes written to the output.
    pub(crate) bytes: u64,
}

impl NodeCost {
    /// Sums two costs.
    pub(crate) fn combine(self, other: NodeCost) -> NodeCost {
        NodeCost {
            flops: self.flops + other.flops,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// Computes the cost of a single node in `graph`.
pub(crate) fn node_cost(graph: &Graph, id: NodeId) -> NodeCost {
    let node = graph.node(id);
    let out_elems = node.shape.numel() as u64;
    let in_bytes: u64 = node
        .inputs
        .iter()
        .map(|&i| graph.node(i).size_bytes() as u64)
        .sum();
    let bytes = in_bytes + node.size_bytes() as u64;

    let dims_of = |i: usize| graph.node(node.inputs[i]).shape.dims().to_vec();

    let flops = match &node.op {
        OpKind::Input | OpKind::Parameter | OpKind::Constant => 0,
        OpKind::MatMul { trans_a, trans_b } => {
            let a = dims_of(0);
            let b = dims_of(1);
            let (m, k) = if *trans_a { (a[1], a[0]) } else { (a[0], a[1]) };
            let n = if *trans_b { b[0] } else { b[1] };
            matmul_flops(m, k, n, 1)
        }
        OpKind::BatchMatMul { trans_a, trans_b } => {
            let a = dims_of(0);
            let b = dims_of(1);
            let r = a.len();
            let batch: usize = a[..r - 2].iter().product();
            let (m, k) = if *trans_a {
                (a[r - 1], a[r - 2])
            } else {
                (a[r - 2], a[r - 1])
            };
            let n = if *trans_b { b[r - 2] } else { b[r - 1] };
            matmul_flops(m, k, n, batch)
        }
        OpKind::Conv2d(p) => conv2d_flops(&dims_of(0), &dims_of(1), *p),
        OpKind::Conv2dGradInput { params, x_dims } => {
            // Same MAC count as the forward convolution.
            conv2d_flops(x_dims, &dims_of(1), *params)
        }
        OpKind::Conv2dGradWeight { params, w_dims } => {
            // Proportional to the number of gradient channels actually computed.
            let full = conv2d_flops(&dims_of(0), w_dims, *params);
            let grad_cout = dims_of(1)[1] as u64;
            full * grad_cout / (w_dims[0] as u64).max(1)
        }
        // Element-wise and shape ops: roughly one (or a few) ops per output element.
        OpKind::Add
        | OpKind::Mul
        | OpKind::Scale { .. }
        | OpKind::AddBias
        | OpKind::Relu
        | OpKind::Relu6
        | OpKind::ReluGrad
        | OpKind::Relu6Grad
        | OpKind::BiasGrad
        | OpKind::BroadcastGradTo { .. }
        | OpKind::Reshape { .. }
        | OpKind::Permute { .. }
        | OpKind::Slice { .. }
        | OpKind::Unslice { .. }
        | OpKind::ApplyUpdate { .. } => out_elems,
        OpKind::Gelu
        | OpKind::Silu
        | OpKind::Sigmoid
        | OpKind::Tanh
        | OpKind::GeluGrad
        | OpKind::SiluGrad
        | OpKind::SigmoidGrad
        | OpKind::TanhGrad
        | OpKind::Softmax
        | OpKind::SoftmaxGrad => 8 * out_elems,
        OpKind::MaxPool2d(p) => out_elems * (p.kernel * p.kernel) as u64,
        OpKind::MaxPool2dGrad { params } => {
            out_elems.max(1) * (params.kernel * params.kernel) as u64
        }
        OpKind::GlobalAvgPool => graph.node(node.inputs[0]).shape.numel() as u64,
        OpKind::GlobalAvgPoolGrad { x_dims } => x_dims.iter().product::<usize>() as u64,
        OpKind::LayerNorm { .. }
        | OpKind::LayerNormGradX { .. }
        | OpKind::LayerNormGradGamma { .. }
        | OpKind::RmsNorm { .. }
        | OpKind::RmsNormGradX { .. }
        | OpKind::RmsNormGradGamma { .. } => 8 * graph.node(node.inputs[0]).shape.numel() as u64,
        OpKind::Embedding => out_elems,
        OpKind::EmbeddingGrad { .. } => graph.node(node.inputs[1]).shape.numel() as u64,
        OpKind::CrossEntropyLoss | OpKind::CrossEntropyGrad => {
            8 * graph.node(node.inputs[0]).shape.numel() as u64
        }
    };

    NodeCost { flops, bytes }
}

/// Total cost of a set of nodes (e.g. a schedule).
pub(crate) fn total_cost(graph: &Graph, ids: &[NodeId]) -> NodeCost {
    ids.iter().fold(NodeCost::default(), |acc, &id| {
        acc.combine(node_cost(graph, id))
    })
}

/// Total cost of every node in the graph.
pub fn graph_cost(graph: &Graph) -> NodeCost {
    total_cost(graph, &graph.topo_order())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autodiff::{build_training_graph, TrainSpec};
    use crate::builder::GraphBuilder;
    use crate::op::TrainKind;
    use pe_tensor::kernels::conv::Conv2dParams;
    use pe_tensor::Rng;

    #[test]
    fn matmul_cost_matches_formula() {
        let mut rng = Rng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [8, 32]);
        let w = b.weight("w", [16, 32], &mut rng);
        let y = b.linear(x, w, None);
        let g = b.finish(vec![y]);
        let mm = g
            .nodes()
            .iter()
            .find(|n| matches!(n.op, OpKind::MatMul { .. }))
            .expect("matmul node");
        let c = node_cost(&g, mm.id);
        assert_eq!(c.flops, 2 * 8 * 32 * 16);
        assert!(c.bytes > 0);
    }

    #[test]
    fn conv_backward_costs_scale_with_channels() {
        let mut rng = Rng::seed_from_u64(1);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [1, 8, 16, 16]);
        let labels = b.input("labels", [1]);
        let w = b.weight("conv.weight", [8, 8, 3, 3], &mut rng);
        let h = b.conv2d(x, w, Conv2dParams::new(1, 1));
        let p = b.global_avg_pool(h);
        let wfc = b.weight("fc.weight", [4, 8], &mut rng);
        let logits = b.linear(p, wfc, None);
        let loss = b.cross_entropy(logits, labels);
        let graph = b.finish(vec![loss]);

        let full = {
            let tg = build_training_graph(graph.clone(), loss, &TrainSpec::new());
            graph_cost(&tg.graph).flops
        };
        let sparse = {
            let mut spec = TrainSpec::new();
            spec.insert(w, TrainKind::Channels(2));
            let tg = build_training_graph(graph, loss, &spec);
            graph_cost(&tg.graph).flops
        };
        assert!(
            sparse < full,
            "channel-sparse training graph must be cheaper ({sparse} vs {full})"
        );
    }

    #[test]
    fn leaves_are_free() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", [4, 4]);
        let g = b.finish(vec![x]);
        assert_eq!(node_cost(&g, x).flops, 0);
    }
}
