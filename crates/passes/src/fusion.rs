//! Operator fusion.
//!
//! IO-bound element-wise ops are folded into the preceding compute op
//! (paper §3.2, "Operator Fusion"): [`fuse_regions`] collapses maximal
//! single-consumer chains of shape-preserving elementwise ops — bias-add,
//! activations, residual adds, activation VJPs — into one
//! [`OpKind::FusedRegion`] node carrying an ordered micro-op program,
//! executed in a single dispatch by the region interpreter
//! (`pe_tensor::kernels::fused`). Fusion reduces kernel launches and
//! intermediate memory traffic; the device cost models charge per-launch
//! overhead, so the measured benefit mirrors the ~1.2x the paper reports
//! for training-graph optimisations.

use pe_graph::{Graph, NodeId, OpKind, TrainingGraph};
use pe_tensor::kernels::elementwise::{BinaryOp, UnaryGradOp, UnaryOp};
use pe_tensor::kernels::fused::{MicroOp, MAX_REGION_INPUTS};

/// Whether the pipeline fuses elementwise operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FusionLevel {
    /// No fusion; the graph keeps one node per primitive (differential
    /// baseline for bit-identity testing).
    Off,
    /// Greedy region growing into single-dispatch composite kernels.
    #[default]
    Regions,
}

impl FusionLevel {
    /// Reads the `PE_FUSION` environment variable (`off` | `regions`);
    /// unset defaults to [`FusionLevel::Regions`].
    ///
    /// # Panics
    ///
    /// Panics on an unrecognised value: a typo should fail loudly, not
    /// silently change the pipeline.
    pub fn from_env() -> FusionLevel {
        match std::env::var("PE_FUSION").ok().as_deref() {
            None | Some("regions") => FusionLevel::Regions,
            Some("off") => FusionLevel::Off,
            Some(other) => panic!("unknown PE_FUSION value '{other}' (expected off|regions)"),
        }
    }
}

/// Statistics from the fusion pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Number of fused regions formed.
    pub regions: usize,
    /// Number of graph nodes folded into regions (each region folds at
    /// least two).
    pub region_ops: usize,
}

/// The micro-op an eligible node contributes to a region, before its extra
/// operand (if any) is assigned a slot in the region's input list.
#[derive(Debug, Clone, Copy)]
enum Micro {
    Unary(UnaryOp),
    Binary(BinaryOp),
    AddBias,
    UnaryGrad(UnaryGradOp),
}

/// How an eligible node participates in a region.
#[derive(Debug, Clone, Copy)]
struct Step {
    micro: Micro,
    /// Which input carries the running value.
    carrier: usize,
    /// Whether the other operand may serve as the carrier instead
    /// (commutative binaries).
    commutative: bool,
}

/// Classifies a node as region-eligible. Eligibility requires the op to be a
/// pure elementwise map over the carrier with every full-shape operand equal
/// to the output shape (no broadcasting), so the region interpreter can walk
/// all operands with one flat index.
fn classify(graph: &Graph, id: NodeId) -> Option<Step> {
    let node = graph.node(id);
    let out_dims = node.shape.dims();
    let same = |i: usize| graph.node(node.inputs[i]).shape.dims() == out_dims;
    let step = |micro, carrier, commutative| {
        Some(Step {
            micro,
            carrier,
            commutative,
        })
    };
    match &node.op {
        OpKind::Relu if same(0) => step(Micro::Unary(UnaryOp::Relu), 0, false),
        OpKind::Relu6 if same(0) => step(Micro::Unary(UnaryOp::Relu6), 0, false),
        OpKind::Gelu if same(0) => step(Micro::Unary(UnaryOp::Gelu), 0, false),
        OpKind::Silu if same(0) => step(Micro::Unary(UnaryOp::Silu), 0, false),
        OpKind::Sigmoid if same(0) => step(Micro::Unary(UnaryOp::Sigmoid), 0, false),
        OpKind::Tanh if same(0) => step(Micro::Unary(UnaryOp::Tanh), 0, false),
        OpKind::Scale { factor } if same(0) => {
            step(Micro::Unary(UnaryOp::Scale(*factor)), 0, false)
        }
        OpKind::Add if same(0) && same(1) => step(Micro::Binary(BinaryOp::Add), 0, true),
        OpKind::Mul if same(0) && same(1) => step(Micro::Binary(BinaryOp::Mul), 0, true),
        OpKind::Sub if same(0) && same(1) => step(Micro::Binary(BinaryOp::Sub), 0, false),
        OpKind::Div if same(0) && same(1) => step(Micro::Binary(BinaryOp::Div), 0, false),
        OpKind::AddBias if same(0) => {
            // Bias addressing must match the region interpreter: rank 2/3
            // broadcast over the last dim, rank 4 over the channel dim.
            let c = match out_dims.len() {
                2 | 3 => *out_dims.last().unwrap(),
                4 => out_dims[1],
                _ => return None,
            };
            let bias = graph.node(node.inputs[1]);
            if bias.shape.numel() != c {
                return None;
            }
            step(Micro::AddBias, 0, false)
        }
        // Activation backward: inputs are `[x_or_y, dy]`; the carrier is the
        // upstream gradient flowing through the chain.
        OpKind::ReluGrad if same(0) && same(1) => {
            step(Micro::UnaryGrad(UnaryGradOp::Relu), 1, false)
        }
        OpKind::Relu6Grad if same(0) && same(1) => {
            step(Micro::UnaryGrad(UnaryGradOp::Relu6), 1, false)
        }
        OpKind::GeluGrad if same(0) && same(1) => {
            step(Micro::UnaryGrad(UnaryGradOp::Gelu), 1, false)
        }
        OpKind::SiluGrad if same(0) && same(1) => {
            step(Micro::UnaryGrad(UnaryGradOp::Silu), 1, false)
        }
        OpKind::SigmoidGrad if same(0) && same(1) => {
            step(Micro::UnaryGrad(UnaryGradOp::Sigmoid), 1, false)
        }
        OpKind::TanhGrad if same(0) && same(1) => {
            step(Micro::UnaryGrad(UnaryGradOp::Tanh), 1, false)
        }
        _ => None,
    }
}

/// Grows maximal single-consumer chains of shape-preserving elementwise ops
/// and collapses each into one [`OpKind::FusedRegion`] node.
///
/// The last node of each chain is rewritten in place (it keeps its id, shape
/// and downstream consumers); interior nodes are orphaned and left for DCE.
/// All region inputs are ids smaller than the rewritten node's id, so the
/// graph's construction-order topology stays valid.
pub fn fuse_regions(tg: &mut TrainingGraph) -> FusionStats {
    let mut stats = FusionStats::default();
    let graph = &mut tg.graph;
    let consumers = graph.consumers();

    // Nodes whose value outlives the fused chain: they may end a region but
    // never disappear into its interior.
    let mut protected = vec![false; graph.len()];
    for &o in graph.outputs() {
        protected[o.index()] = true;
    }
    protected[tg.loss.index()] = true;
    for &g in tg.param_grads.values() {
        protected[g.index()] = true;
    }

    let mut visited = vec![false; graph.len()];
    for idx in 0..graph.len() {
        let id = NodeId(idx);
        if visited[idx] {
            continue;
        }
        let Some(head) = classify(graph, id) else {
            continue;
        };

        // A two-operand head whose extra IS its carrier (e.g. `Add(x, x)`)
        // would put the origin in the region's input list twice; an in-place
        // region aliases its output with the origin, so skip such heads.
        let head_ins = &graph.node(id).inputs;
        if head_ins.len() == 2 && head_ins[0] == head_ins[1] {
            continue;
        }

        // The chain: each member's id plus the input index of its carrier.
        let mut chain: Vec<(NodeId, usize)> = vec![(id, head.carrier)];
        let origin = head_ins[head.carrier];
        // Track the distinct extra operands as the chain grows so it never
        // outruns the interpreter's input limit.
        let note_extra = |extras: &mut Vec<NodeId>, x: NodeId| {
            if !extras.contains(&x) {
                extras.push(x);
            }
        };
        let mut extras: Vec<NodeId> = Vec::new();
        if head_ins.len() == 2 {
            note_extra(&mut extras, head_ins[1 - head.carrier]);
        }

        loop {
            let (tail, _) = *chain.last().unwrap();
            // The tail becomes interior if the chain extends, so it must be
            // free to disappear: unprotected, with exactly one consumer.
            if protected[tail.index()] || consumers[tail.index()].len() != 1 {
                break;
            }
            let c = consumers[tail.index()][0];
            if visited[c.index()] {
                break;
            }
            let Some(next) = classify(graph, c) else {
                break;
            };
            let cnode = graph.node(c);
            if cnode.shape != graph.node(id).shape {
                break;
            }
            // The tail must feed the consumer's carrier slot.
            let carrier_pos = if cnode.inputs[next.carrier] == tail {
                next.carrier
            } else if next.commutative && cnode.inputs[1 - next.carrier] == tail {
                1 - next.carrier
            } else {
                break;
            };
            // The extra operand may not be the chain's origin: an in-place
            // region aliases its output buffer with the (dying) origin, and
            // re-reading it through another slot would alias the write.
            if cnode.inputs.len() == 2 {
                let extra = cnode.inputs[1 - carrier_pos];
                if extra == origin {
                    break;
                }
                note_extra(&mut extras, extra);
                if extras.len() + 1 > MAX_REGION_INPUTS {
                    break;
                }
            }
            chain.push((c, carrier_pos));
        }

        if chain.len() < 2 {
            continue;
        }

        // Emit the program. Input slot 0 is the carrier origin; extras are
        // deduplicated into the remaining slots.
        let mut inputs = vec![origin];
        let slot = |inputs: &mut Vec<NodeId>, x: NodeId| -> usize {
            match inputs[1..].iter().position(|&i| i == x) {
                Some(pos) => pos + 1,
                None => {
                    inputs.push(x);
                    inputs.len() - 1
                }
            }
        };
        let mut prog = Vec::with_capacity(chain.len());
        for &(m, carrier) in &chain {
            let step = classify(graph, m).expect("chain member stays eligible");
            let ins = graph.node(m).inputs.clone();
            let micro = match step.micro {
                Micro::Unary(u) => MicroOp::Unary(u),
                Micro::Binary(b) => MicroOp::Binary(b, slot(&mut inputs, ins[1 - carrier])),
                Micro::AddBias => MicroOp::AddBias(slot(&mut inputs, ins[1])),
                Micro::UnaryGrad(g) => MicroOp::UnaryGrad(g, slot(&mut inputs, ins[0])),
            };
            prog.push(micro);
        }
        debug_assert!(inputs.len() <= MAX_REGION_INPUTS);

        let last = chain.last().unwrap().0;
        for &(m, _) in &chain {
            visited[m.index()] = true;
        }
        stats.regions += 1;
        stats.region_ops += chain.len();
        let node = graph.node_mut(last);
        node.op = OpKind::FusedRegion { prog };
        node.inputs = inputs;
    }
    stats
}

/// Counts kernel launches (non-leaf nodes) in a graph; used to quantify the
/// launch-overhead reduction achieved by fusion.
pub fn launch_count(graph: &Graph) -> usize {
    graph.nodes().iter().filter(|n| !n.op.is_leaf()).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dce::eliminate_dead_code;
    use pe_graph::{build_training_graph, GraphBuilder, TrainSpec};
    use pe_tensor::Rng;

    fn fixture() -> TrainingGraph {
        let mut rng = Rng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [2, 8]);
        let labels = b.input("labels", [2]);
        let w1 = b.weight("fc1.weight", [8, 8], &mut rng);
        let b1 = b.bias("fc1.bias", 8);
        let h = b.linear(x, w1, Some(b1));
        let h = b.relu(h);
        // Residual add + relu.
        let r = b.add(h, x);
        let r = b.relu(r);
        let w2 = b.weight("fc2.weight", [4, 8], &mut rng);
        let b2 = b.bias("fc2.bias", 4);
        let logits = b.linear(r, w2, Some(b2));
        let logits = b.gelu(logits);
        let loss = b.cross_entropy(logits, labels);
        let g = b.finish(vec![loss]);
        build_training_graph(g, loss, &TrainSpec::new())
    }

    /// The micro-op programs of every fused region in `tg`.
    fn programs(tg: &TrainingGraph) -> Vec<Vec<MicroOp>> {
        tg.graph
            .nodes()
            .iter()
            .filter_map(|n| match &n.op {
                OpKind::FusedRegion { prog } => Some(prog.clone()),
                _ => None,
            })
            .collect()
    }

    /// Whether some region runs a bias add straight into `act`.
    fn has_bias_then(progs: &[Vec<MicroOp>], act: UnaryOp) -> bool {
        progs.iter().any(|p| {
            p.windows(2)
                .any(|w| matches!(w, [MicroOp::AddBias(_), MicroOp::Unary(u)] if *u == act))
        })
    }

    #[test]
    fn fuses_bias_activation_and_residual() {
        let mut tg = fixture();
        let stats = fuse_regions(&mut tg);
        let progs = programs(&tg);
        assert_eq!(stats.regions, progs.len());
        // The ReLU-after-bias pair fuses; the GELU-after-bias pair does not,
        // because the GELU backward needs the pre-activation tensor, which
        // therefore has a second consumer in the training graph.
        assert!(has_bias_then(&progs, UnaryOp::Relu), "got {progs:?}");
        assert!(!has_bias_then(&progs, UnaryOp::Gelu), "got {progs:?}");
        assert!(
            progs.iter().any(|p| matches!(
                p[..],
                [
                    MicroOp::Binary(BinaryOp::Add, _),
                    MicroOp::Unary(UnaryOp::Relu)
                ]
            )),
            "residual add+relu must fuse, got {progs:?}"
        );
    }

    #[test]
    fn gelu_after_bias_fuses_when_layer_is_frozen() {
        // With every parameter frozen except the classifier bias, no GeluGrad
        // node references the pre-activation, so the chain becomes fusible —
        // compile-time knowledge only sparse backpropagation provides.
        let mut rng = Rng::seed_from_u64(7);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [2, 8]);
        let labels = b.input("labels", [2]);
        let w1 = b.weight("fc1.weight", [8, 8], &mut rng);
        let b1 = b.bias("fc1.bias", 8);
        let h = b.linear(x, w1, Some(b1));
        let h = b.gelu(h);
        let w2 = b.weight("fc2.weight", [4, 8], &mut rng);
        let b2 = b.bias("fc2.bias", 4);
        let logits = b.linear(h, w2, Some(b2));
        let loss = b.cross_entropy(logits, labels);
        let g = b.finish(vec![loss]);
        let mut spec = TrainSpec::new();
        spec.insert(w1, pe_graph::TrainKind::Frozen);
        spec.insert(b1, pe_graph::TrainKind::Frozen);
        spec.insert(w2, pe_graph::TrainKind::Frozen);
        let mut tg = build_training_graph(g, loss, &spec);
        let stats = fuse_regions(&mut tg);
        assert!(stats.regions >= 1, "got {stats:?}");
        assert!(has_bias_then(&programs(&tg), UnaryOp::Gelu));
    }

    #[test]
    fn fusion_plus_dce_reduces_launches() {
        let tg = fixture();
        let before = launch_count(&tg.graph);
        let mut fused = tg.clone();
        fuse_regions(&mut fused);
        let (pruned, _) = eliminate_dead_code(&fused);
        let after = launch_count(&pruned.graph);
        assert!(
            after < before,
            "fusion + DCE must reduce kernel launches ({after} vs {before})"
        );
    }

    #[test]
    fn regions_fuse_bias_activation_residual_into_one_node() {
        // Freeze every parameter so no backward node consumes the forward
        // chain and the full bias+activation+residual run is single-consumer.
        let mut rng = Rng::seed_from_u64(3);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [2, 8]);
        let labels = b.input("labels", [2]);
        let w1 = b.weight("fc1.weight", [8, 8], &mut rng);
        let b1 = b.bias("fc1.bias", 8);
        let h = b.linear(x, w1, Some(b1));
        let h = b.relu(h);
        let r = b.add(h, x);
        let r = b.relu(r);
        let w2 = b.weight("fc2.weight", [4, 8], &mut rng);
        let b2 = b.bias("fc2.bias", 4);
        let logits = b.linear(r, w2, Some(b2));
        let loss = b.cross_entropy(logits, labels);
        let g = b.finish(vec![loss]);
        let mut spec = TrainSpec::new();
        for p in [w1, b1, w2, b2] {
            spec.insert(p, pe_graph::TrainKind::Frozen);
        }
        let tg = build_training_graph(g, loss, &spec);
        let (unfused, _) = eliminate_dead_code(&tg);

        let mut regions = tg.clone();
        let stats = fuse_regions(&mut regions);
        assert!(stats.regions >= 1, "got {stats:?}");
        let progs = programs(&regions);
        assert!(
            progs.iter().any(|p| p.len() >= 4),
            "bias+relu+residual+relu must collapse into one region, got {progs:?}"
        );
        let (regions, _) = eliminate_dead_code(&regions);
        assert!(regions.graph.validate().is_empty());
        // The four-op chain is one launch: three fewer than unfused.
        assert!(
            launch_count(&regions.graph) + 3 <= launch_count(&unfused.graph),
            "regions must save the chain's launches ({} vs {})",
            launch_count(&regions.graph),
            launch_count(&unfused.graph)
        );
    }

    #[test]
    fn regions_on_training_graph_stay_valid_and_never_launch_more_than_unfused() {
        let tg = fixture();
        let (unfused, _) = eliminate_dead_code(&tg);

        let mut regions = tg.clone();
        let stats = fuse_regions(&mut regions);
        assert!(stats.regions >= 1, "got {stats:?}");
        assert!(stats.region_ops >= 2 * stats.regions);
        let (regions, _) = eliminate_dead_code(&regions);
        assert!(regions.graph.validate().is_empty());
        assert_eq!(
            launch_count(&regions.graph) + stats.region_ops - stats.regions,
            launch_count(&unfused.graph),
            "each region saves one launch per folded node beyond its first"
        );
    }

    #[test]
    fn regions_never_orphan_loss_outputs_or_param_grads() {
        let mut tg = fixture();
        let before_grads = tg.param_grads.len();
        fuse_regions(&mut tg);
        let (pruned, _) = eliminate_dead_code(&tg);
        // The loss, declared outputs and every parameter gradient must
        // survive fusion + DCE (they may end a region, never vanish into one).
        assert!(pruned.graph.validate().is_empty());
        assert!(!pruned.graph.outputs().is_empty());
        assert_eq!(pruned.param_grads.len(), before_grads);
        assert!(pruned.loss.index() < pruned.graph.len());
    }

    #[test]
    fn does_not_fuse_multi_consumer_bias() {
        let mut rng = Rng::seed_from_u64(1);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [2, 4]);
        let labels = b.input("labels", [2]);
        let w = b.weight("w", [4, 4], &mut rng);
        let bias = b.bias("b", 4);
        let pre = b.linear(x, w, Some(bias));
        let a = b.relu(pre);
        // Second consumer of the bias-add output prevents fusion.
        let other = b.sigmoid(pre);
        let sum = b.add(a, other);
        let loss_in = b.cross_entropy(sum, labels);
        let g = b.finish(vec![loss_in]);
        let mut tg = build_training_graph(g, loss_in, &TrainSpec::new());
        fuse_regions(&mut tg);
        assert!(
            matches!(tg.graph.node(pre).op, OpKind::AddBias),
            "the shared bias add must stay its own node"
        );
        let progs = programs(&tg);
        assert!(
            progs
                .iter()
                .all(|p| !p.iter().any(|m| matches!(m, MicroOp::AddBias(_)))),
            "the bias add must not be folded into any region, got {progs:?}"
        );
    }
}
