//! Execution scheduling and operator reordering.
//!
//! The paper's operator-reordering optimisation (§3.2) moves each parameter
//! update to immediately after its gradient is produced, so the gradient
//! buffer can be released before backpropagation continues to earlier layers.
//! Conventional frameworks compute all gradients first and run the optimizer
//! afterwards, keeping every gradient alive simultaneously — a large share of
//! peak memory for small-batch sparse training (Table 4).

use std::collections::BinaryHeap;

use pe_graph::{Graph, NodeId, OpKind};

/// Which scheduling policy produced a [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScheduleStrategy {
    /// Framework-conventional order: forward, full backward, then all
    /// parameter updates at the end (gradients all co-resident).
    Conventional,
    /// PockEngine order: each update is issued as soon as its gradient is
    /// ready, releasing the gradient immediately.
    #[default]
    Reordered,
}

/// A total execution order over the nodes of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Node execution order.
    pub order: Vec<NodeId>,
    /// The policy that produced it.
    pub strategy: ScheduleStrategy,
}

impl Schedule {
    /// Number of scheduled nodes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Position of each node in the schedule, indexed by node id.
    pub fn positions(&self, graph_len: usize) -> Vec<usize> {
        let mut pos = vec![usize::MAX; graph_len];
        for (i, id) in self.order.iter().enumerate() {
            pos[id.index()] = i;
        }
        pos
    }
}

/// Builds a schedule for `graph` under the given strategy.
///
/// Both strategies produce valid topological orders; they differ only in
/// where `ApplyUpdate` nodes land.
pub fn build_schedule(graph: &Graph, strategy: ScheduleStrategy) -> Schedule {
    match strategy {
        ScheduleStrategy::Conventional => conventional(graph),
        ScheduleStrategy::Reordered => reordered(graph),
    }
}

fn conventional(graph: &Graph) -> Schedule {
    // Node ids are already a topological order with updates emitted last by
    // the autodiff, so id order is exactly the conventional schedule.
    let mut order: Vec<NodeId> = graph.topo_order();
    // Ensure updates sit at the very end even if a pass inserted nodes after
    // them.
    order.sort_by_key(|&id| (graph.node(id).op.is_update(), id.index()));
    Schedule {
        order,
        strategy: ScheduleStrategy::Conventional,
    }
}

fn reordered(graph: &Graph) -> Schedule {
    // Greedy list scheduling: maintain the ready set; always prefer a ready
    // ApplyUpdate node, otherwise pick the ready node with the smallest id
    // (stable, close to program order).
    //
    // An update mutates its parameter in place, so it carries implicit
    // anti-dependency edges from every other reader of the parameter (the
    // backward pass reads weights for input gradients): the update becomes
    // ready only once those readers are scheduled. This keeps the compiled
    // semantics identical to the eager baseline (no gradient is ever
    // computed from a half-updated parameter), while still issuing the
    // update as early as memory-wise possible.
    let n = graph.len();
    let base_consumers = graph.consumers();
    let mut consumers = base_consumers.clone();
    let mut indegree: Vec<usize> = graph.nodes().iter().map(|node| node.inputs.len()).collect();
    for node in graph.nodes() {
        if let OpKind::ApplyUpdate { param, .. } = node.op {
            for &reader in &base_consumers[param.index()] {
                if reader != node.id {
                    consumers[reader.index()].push(node.id);
                    indegree[node.id.index()] += 1;
                }
            }
        }
    }

    // Max-heap over (is_update, Reverse(id)) — we pop the "largest", so being
    // an update wins, then the smallest id.
    let mut ready: BinaryHeap<(bool, std::cmp::Reverse<usize>)> = BinaryHeap::new();
    for (idx, &d) in indegree.iter().enumerate() {
        if d == 0 {
            ready.push((
                graph.node(NodeId(idx)).op.is_update(),
                std::cmp::Reverse(idx),
            ));
        }
    }

    let mut order = Vec::with_capacity(n);
    while let Some((_, std::cmp::Reverse(idx))) = ready.pop() {
        let id = NodeId(idx);
        order.push(id);
        for &c in &consumers[idx] {
            indegree[c.index()] -= 1;
            if indegree[c.index()] == 0 {
                ready.push((graph.node(c).op.is_update(), std::cmp::Reverse(c.index())));
            }
        }
    }
    assert_eq!(order.len(), n, "cycle detected while scheduling");
    Schedule {
        order,
        strategy: ScheduleStrategy::Reordered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_graph::{build_training_graph, GraphBuilder, TrainSpec};
    use pe_tensor::Rng;

    fn fixture() -> pe_graph::TrainingGraph {
        let mut rng = Rng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [4, 16]);
        let labels = b.input("labels", [4]);
        let mut h = x;
        for i in 0..4 {
            let inf = b.dims_of(h)[1];
            let w = b.weight(&format!("fc{i}.weight"), [16, inf], &mut rng);
            let bias = b.bias(&format!("fc{i}.bias"), 16);
            h = b.linear(h, w, Some(bias));
            h = b.relu(h);
        }
        let wout = b.weight("head.weight", [4, 16], &mut rng);
        let logits = b.linear(h, wout, None);
        let loss = b.cross_entropy(logits, labels);
        let g = b.finish(vec![loss]);
        build_training_graph(g, loss, &TrainSpec::new())
    }

    /// For every `ApplyUpdate` node, the number of schedule slots between the
    /// gradient being produced and the update consuming it. Smaller is better;
    /// the conventional schedule makes this large because updates all run at the
    /// end of the step.
    fn update_latencies(graph: &Graph, schedule: &Schedule) -> Vec<usize> {
        let pos = schedule.positions(graph.len());
        graph
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, OpKind::ApplyUpdate { .. }))
            .map(|n| pos[n.id.index()].saturating_sub(pos[n.inputs[0].index()]))
            .collect()
    }

    fn is_topological(graph: &pe_graph::Graph, schedule: &Schedule) -> bool {
        let pos = schedule.positions(graph.len());
        graph
            .nodes()
            .iter()
            .all(|n| n.inputs.iter().all(|i| pos[i.index()] < pos[n.id.index()]))
    }

    #[test]
    fn both_strategies_are_topological_and_complete() {
        let tg = fixture();
        for strategy in [ScheduleStrategy::Conventional, ScheduleStrategy::Reordered] {
            let s = build_schedule(&tg.graph, strategy);
            assert_eq!(s.len(), tg.graph.len());
            assert!(
                is_topological(&tg.graph, &s),
                "{strategy:?} violated dependencies"
            );
        }
    }

    #[test]
    fn conventional_puts_updates_last() {
        let tg = fixture();
        let s = build_schedule(&tg.graph, ScheduleStrategy::Conventional);
        let n_updates = tg.updates.len();
        let tail = &s.order[s.len() - n_updates..];
        assert!(tail.iter().all(|&id| tg.graph.node(id).op.is_update()));
    }

    #[test]
    fn reordering_moves_updates_earlier() {
        let tg = fixture();
        let conventional = build_schedule(&tg.graph, ScheduleStrategy::Conventional);
        let reordered = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
        let lat_conv: usize = update_latencies(&tg.graph, &conventional).iter().sum();
        let lat_reord: usize = update_latencies(&tg.graph, &reordered).iter().sum();
        assert!(
            lat_reord < lat_conv,
            "reordered update latency {lat_reord} should be below conventional {lat_conv}"
        );
    }

    #[test]
    fn positions_inverse_of_order() {
        let tg = fixture();
        let s = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
        let pos = s.positions(tg.graph.len());
        for (i, id) in s.order.iter().enumerate() {
            assert_eq!(pos[id.index()], i);
        }
    }
}
