//! Dead-code elimination.
//!
//! After the sparse-backpropagation scheme prunes gradient *emission* at
//! autodiff time, DCE removes any remaining unreachable nodes (forward
//! activations only needed by pruned branches, and so on). Because this
//! happens on the graph at compile time, the savings are realised as actual
//! buffers never allocated and kernels never launched — the paper's central
//! argument for why sparse BP needs system support.

use std::collections::HashMap;

use pe_graph::{Graph, NodeId, TrainingGraph};

/// Removes every node that is not an ancestor of a graph output, remapping
/// node ids. Graph inputs are kept even when unused so the step-input
/// signature stays stable.
pub(crate) fn eliminate_dead_code(tg: &TrainingGraph) -> TrainingGraph {
    let graph = &tg.graph;

    // Roots: declared outputs (loss, logits, updates) plus step inputs.
    let mut roots: Vec<NodeId> = graph.outputs().to_vec();
    roots.extend_from_slice(graph.inputs());
    let live = graph.ancestors_of(&roots);

    // Build the new graph with remapped ids.
    let mut remap: Vec<Option<NodeId>> = vec![None; graph.len()];
    let mut new_graph = Graph::new();
    for node in graph.nodes() {
        if !live[node.id.index()] {
            continue;
        }
        let new_inputs: Vec<NodeId> = node
            .inputs
            .iter()
            .map(|i| remap[i.index()].expect("live node depends on dead node"))
            .collect();
        let new_id = new_graph.push_node(
            node.op.clone(),
            new_inputs,
            node.shape.clone(),
            node.name.clone(),
        );
        remap[node.id.index()] = Some(new_id);
    }

    // Re-register inputs, outputs, params and constants.
    for &i in graph.inputs() {
        if let Some(ni) = remap[i.index()] {
            new_graph.mark_input(ni);
        }
    }
    new_graph.set_outputs(
        graph
            .outputs()
            .iter()
            .filter_map(|o| remap[o.index()])
            .collect(),
    );
    for (id, info) in graph.params() {
        if let Some(ni) = remap[id.index()] {
            new_graph.mark_param(ni, info.role, info.init.clone());
        }
    }
    for (id, value) in graph.constants() {
        if let Some(ni) = remap[id.index()] {
            new_graph.mark_constant(ni, value.clone());
        }
    }

    // Fix up ApplyUpdate param references.
    for idx in 0..new_graph.len() {
        let id = NodeId(idx);
        if let pe_graph::OpKind::ApplyUpdate { param, rows } = new_graph.node(id).op.clone() {
            let new_param = remap[param.index()].expect("updated parameter must stay live");
            new_graph.node_mut(id).op = pe_graph::OpKind::ApplyUpdate {
                param: new_param,
                rows,
            };
        }
    }

    let param_grads: HashMap<NodeId, NodeId> = tg
        .param_grads
        .iter()
        .filter_map(|(p, g)| Some((remap[p.index()]?, remap[g.index()]?)))
        .collect();
    let updates: Vec<NodeId> = tg.updates.iter().filter_map(|u| remap[u.index()]).collect();
    let loss = remap[tg.loss.index()].expect("loss must stay live");

    TrainingGraph {
        graph: new_graph,
        loss,
        param_grads,
        updates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_graph::{build_training_graph, GraphBuilder, TrainSpec};
    use pe_tensor::Rng;

    fn fixture() -> TrainingGraph {
        let mut rng = Rng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [2, 8]);
        let labels = b.input("labels", [2]);
        let w = b.weight("w", [4, 8], &mut rng);
        let bias = b.bias("b", 4);
        let logits = b.linear(x, w, Some(bias));
        // A dangling branch that feeds no output.
        let dead = b.relu(logits);
        let _dead2 = b.scale(dead, 2.0);
        let loss = b.cross_entropy(logits, labels);
        let g = b.finish(vec![loss]);
        build_training_graph(g, loss, &TrainSpec::new())
    }

    #[test]
    fn removes_unreachable_nodes() {
        let tg = fixture();
        let pruned = eliminate_dead_code(&tg);
        assert!(
            tg.graph.len() - pruned.graph.len() >= 2,
            "the dangling relu/scale chain must be removed"
        );
        assert!(pruned.graph.validate().is_empty());
        assert!(!pruned
            .graph
            .nodes()
            .iter()
            .any(|n| n.name.starts_with("scale_")));
    }

    #[test]
    fn preserves_updates_and_loss() {
        let tg = fixture();
        let n_updates = tg.updates.len();
        let pruned = eliminate_dead_code(&tg);
        assert_eq!(pruned.updates.len(), n_updates);
        assert_eq!(pruned.param_grads.len(), tg.param_grads.len());
        // Loss node still scalar and referenced as an output.
        assert_eq!(pruned.graph.node(pruned.loss).shape.rank(), 0);
        assert!(pruned.graph.outputs().contains(&pruned.loss));
    }

    #[test]
    fn keeps_graph_inputs_alive() {
        let tg = fixture();
        let pruned = eliminate_dead_code(&tg);
        assert_eq!(pruned.graph.inputs().len(), tg.graph.inputs().len());
    }

    #[test]
    fn idempotent() {
        let tg = fixture();
        let once = eliminate_dead_code(&tg);
        let twice = eliminate_dead_code(&once);
        assert_eq!(once.graph.len(), twice.graph.len());
    }
}
