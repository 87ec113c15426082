//! # pe-memplan
//!
//! Tensor lifetime analysis and training memory planning.
//!
//! Because the entire training step (forward, backward, parameter updates) is
//! a static graph with a static schedule, the compiler can compute every
//! buffer's lifetime ahead of time, assign arena offsets, and report the peak
//! training memory — the quantity Table 4 of the paper measures. There is one
//! plan, [`plan_memory`]: the arena executor allocates exactly the slab it
//! sizes, and [`memory_report`] reports that slab. The effects reproduced
//! here:
//!
//! * sparse backpropagation shrinks the set of saved activations, so peak
//!   memory drops even at larger batch sizes;
//! * operator reordering (updates issued right after their gradients) lets
//!   gradient buffers die immediately instead of all being co-resident;
//! * a reshape shares its input's buffer, and an activation or activation
//!   gradient overwrites an operand that dies at it, so neither holds a
//!   second copy.

#![deny(missing_docs)]

use pe_graph::{Graph, NodeId, OpKind};
use pe_passes::Schedule;

/// Lifetime of a transient buffer in schedule positions: `[def, last_use]`.
pub(crate) type Lifetime = (usize, usize);

/// Per-node buffer placement produced by [`plan_memory`].
#[derive(Debug, Clone)]
pub struct MemoryPlan {
    /// Lifetime of each node's output buffer (indexed by node id); `None`
    /// for persistent values (parameters, constants) and unscheduled nodes.
    pub lifetimes: Vec<Option<Lifetime>>,
    /// Arena byte offset for each transient buffer.
    pub offsets: Vec<Option<usize>>,
    /// Range sharing: `aliases[n] == Some(i)` means node `n`'s output
    /// shares its arena range with its operand `i`. Either `n` is a reshape
    /// viewing `i` (the executor runs it as a no-op), or `n` writes its
    /// output over `i` in place, and then nothing sharing `i`'s range is
    /// read after `n`.
    pub aliases: Vec<Option<NodeId>>,
    /// Size of the activation arena produced by best-fit assignment: the
    /// slab the executor allocates.
    pub arena_bytes: usize,
    /// Peak of the sum of simultaneously-live transient buffers (a lower
    /// bound on any arena assignment).
    pub peak_transient_bytes: usize,
}

/// Breakdown of the memory needed by one training step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryReport {
    /// Bytes held by model parameters.
    pub params_bytes: usize,
    /// Bytes held by optimizer state (momentum/Adam moments), which only
    /// exists for *trainable* elements.
    pub optimizer_bytes: usize,
    /// Bytes of step inputs (mini-batch and labels).
    pub input_bytes: usize,
    /// Peak bytes of transient buffers (activations + gradients).
    pub transient_peak_bytes: usize,
    /// Arena size chosen by [`plan_memory`] (>= `transient_peak_bytes`): the
    /// slab the executor allocates.
    pub arena_bytes: usize,
}

impl MemoryReport {
    /// Total training memory: parameters + optimizer state + inputs + arena.
    pub fn total_bytes(&self) -> usize {
        self.params_bytes + self.optimizer_bytes + self.input_bytes + self.arena_bytes
    }
}

/// Where a plan's transient bytes peak and what holds them there: the live
/// alias chains at the first schedule position whose live bytes equal
/// [`MemoryPlan::peak_transient_bytes`], split into three classes.
///
/// A chain is *backward* when the member holding its range at the peak is
/// a gradient or backward temporary: a backward op, or any op with a
/// backward operand. Otherwise it holds a forward value, which is *saved
/// for backward* when some member of its chain is read by a backward node,
/// and a *forward temporary* when not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeakAttribution {
    /// Schedule position of the peak.
    pub position: usize,
    /// Bytes of forward values kept alive for the backward pass.
    pub saved_activation_bytes: usize,
    /// Bytes of gradients and backward temporaries.
    pub backward_bytes: usize,
    /// Bytes of forward values that no backward node reads.
    pub forward_temporary_bytes: usize,
    /// The largest live chains: the node holding each range at the peak and
    /// its bytes, largest first.
    pub largest: Vec<(NodeId, usize)>,
}

impl PeakAttribution {
    /// Sum of the three classes: the plan's `peak_transient_bytes`.
    pub fn total_bytes(&self) -> usize {
        self.saved_activation_bytes + self.backward_bytes + self.forward_temporary_bytes
    }
}

/// Attributes `plan`'s peak (see [`PeakAttribution`]), naming the `top`
/// largest live buffers.
pub fn attribute_peak(
    graph: &Graph,
    schedule: &Schedule,
    plan: &MemoryPlan,
    top: usize,
) -> PeakAttribution {
    let n = graph.len();
    let size_of = |idx: usize| graph.node(NodeId(idx)).size_bytes();
    // Gradient-ness, propagated in schedule (topological) order.
    let mut backward = vec![false; n];
    for &id in &schedule.order {
        let node = graph.node(id);
        backward[id.index()] =
            node.op.is_backward() || node.inputs.iter().any(|i| backward[i.index()]);
    }
    let root_of = |mut i: usize| {
        while let Some(p) = plan.aliases[i] {
            i = p.index();
        }
        i
    };
    let root: Vec<usize> = (0..n).map(root_of).collect();
    let mut chain = plan.lifetimes.clone();
    let mut read_by_backward = vec![false; n];
    for idx in 0..n {
        if let (Some((rd, rl)), Some((_, l))) = (chain[root[idx]], plan.lifetimes[idx]) {
            chain[root[idx]] = Some((rd, rl.max(l)));
        }
        if backward[idx] {
            for i in &graph.node(NodeId(idx)).inputs {
                read_by_backward[root[i.index()]] = true;
            }
        }
    }
    // Live bytes per position over chain roots; the first maximum is the peak.
    let mut delta = vec![0isize; schedule.len() + 1];
    for idx in (0..n).filter(|&i| root[i] == i) {
        if let Some((def, last)) = chain[idx] {
            delta[def] += size_of(idx) as isize;
            delta[last + 1] -= size_of(idx) as isize;
        }
    }
    let (mut live, mut peak, mut position) = (0isize, 0isize, 0usize);
    for (pos, d) in delta.iter().enumerate() {
        live += d;
        if live > peak {
            (peak, position) = (live, pos);
        }
    }
    // The member holding each chain's range at the peak: the last defined.
    let mut holder: Vec<Option<(usize, usize)>> = vec![None; n]; // (def, node) per root
    for idx in 0..n {
        if let Some((def, _)) = plan.lifetimes[idx] {
            let h = &mut holder[root[idx]];
            if def <= position && h.is_none_or(|(d, _)| def >= d) {
                *h = Some((def, idx));
            }
        }
    }

    let mut attribution = PeakAttribution {
        position,
        saved_activation_bytes: 0,
        backward_bytes: 0,
        forward_temporary_bytes: 0,
        largest: Vec::new(),
    };
    for r in (0..n).filter(|&i| root[i] == i) {
        match chain[r] {
            Some((def, last)) if def <= position && position <= last => {}
            _ => continue,
        }
        let holder = holder[r].map_or(r, |(_, i)| i);
        let bytes = size_of(r);
        let class = if backward[holder] {
            &mut attribution.backward_bytes
        } else if read_by_backward[r] {
            &mut attribution.saved_activation_bytes
        } else {
            &mut attribution.forward_temporary_bytes
        };
        *class += bytes;
        attribution.largest.push((NodeId(holder), bytes));
    }
    attribution
        .largest
        .sort_by_key(|&(id, bytes)| (std::cmp::Reverse(bytes), id.index()));
    attribution.largest.truncate(top);
    attribution
}

fn is_persistent(graph: &Graph, id: NodeId) -> bool {
    matches!(
        graph.node(id).op,
        OpKind::Parameter | OpKind::Constant | OpKind::Input
    )
}

/// Computes the lifetime of every transient buffer under the given schedule.
///
/// Graph outputs are kept alive until the end of the step (they must be
/// readable after execution).
pub fn analyze_lifetimes(graph: &Graph, schedule: &Schedule) -> Vec<Option<Lifetime>> {
    let positions = schedule.positions(graph.len());
    let consumers = graph.consumers();
    let mut lifetimes: Vec<Option<Lifetime>> = vec![None; graph.len()];

    for node in graph.nodes() {
        let id = node.id;
        if is_persistent(graph, id) {
            continue;
        }
        let def = positions[id.index()];
        if def == usize::MAX {
            continue; // not scheduled (dead)
        }
        let mut last = def;
        for &c in &consumers[id.index()] {
            let p = positions[c.index()];
            if p != usize::MAX {
                last = last.max(p);
            }
        }
        if graph.outputs().contains(&id) {
            last = schedule.len().saturating_sub(1);
        }
        lifetimes[id.index()] = Some((def, last));
    }
    lifetimes
}

/// How a node may share an operand's arena range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Alias {
    /// A reshape: it writes nothing, so it may view a range that later
    /// nodes still read.
    View,
    /// An element-wise op that writes its output over the operand, which is
    /// sound only when nothing reads the operand's range after this node.
    Writer,
}

/// Whether and how a node may share an operand's range, and the operands it
/// may share, in order of preference. Every writer's output element depends
/// only on its operands' elements at the same index.
fn alias_kind(op: &OpKind) -> Option<(Alias, &'static [usize])> {
    match op {
        OpKind::Reshape { .. } => Some((Alias::View, &[0])),
        OpKind::Relu
        | OpKind::Relu6
        | OpKind::Gelu
        | OpKind::Silu
        | OpKind::Sigmoid
        | OpKind::Tanh
        | OpKind::Scale { .. } => Some((Alias::Writer, &[0])),
        OpKind::ReluGrad
        | OpKind::Relu6Grad
        | OpKind::GeluGrad
        | OpKind::SiluGrad
        | OpKind::SigmoidGrad
        | OpKind::TanhGrad => Some((Alias::Writer, &[0, 1])),
        _ => None,
    }
}

/// Every buffer offset is a multiple of this many bytes.
const ALIGN_BYTES: usize = 64;

/// Plans the arena the executor runs: 4-byte `f32` elements, offsets aligned
/// to 64 bytes, every reshape of a transient buffer planned as a view of its
/// input, and the output of an activation, scale or activation VJP written
/// over an operand whose whole alias chain is last read at this node.
///
/// Alias chains share one range, live from their root's definition to their
/// last member's last use; their roots are placed by greedy best fit in
/// order of decreasing size, each taking the lowest aligned offset that does
/// not overlap (in both address range and lifetime) any previously placed
/// root.
pub fn plan_memory(graph: &Graph, schedule: &Schedule) -> MemoryPlan {
    let lifetimes = analyze_lifetimes(graph, schedule);
    let n = graph.len();
    let positions = schedule.positions(n);
    let size_of = |idx: usize| graph.node(NodeId(idx)).size_bytes();

    // Aliasing, in schedule order. A view joins its input's chain whatever
    // the input's lifetime. A writer joins an operand's chain only when the
    // chain (every member so far, views included) is last read here, holds
    // no graph output, and is not also the range of another operand. A
    // member that joins later is this writer's output or a view of it, so
    // the chain lifetime seen here is final for the bytes being overwritten.
    let mut aliases: Vec<Option<NodeId>> = vec![None; n];
    let mut alias_root: Vec<usize> = (0..n).collect();
    // Planning lifetime per chain root, extended as members join.
    let mut chain: Vec<Option<Lifetime>> = lifetimes.clone();
    // Whether a chain holds a graph output, which must survive the step.
    let mut holds_output = vec![false; n];
    for &o in graph.outputs() {
        holds_output[o.index()] = true;
    }
    for &id in &schedule.order {
        let idx = id.index();
        let node = graph.node(id);
        let (Some((kind, operands)), Some((_, last))) = (alias_kind(&node.op), lifetimes[idx])
        else {
            continue;
        };
        let pos = positions[idx];
        let root_of = |input: NodeId| lifetimes[input.index()].map(|_| alias_root[input.index()]);
        let shared = operands.iter().find_map(|&k| {
            let input = *node.inputs.get(k)?;
            let root = root_of(input)?; // persistent or unscheduled input
            if size_of(input.index()) != size_of(idx) {
                return None;
            }
            if kind == Alias::Writer {
                let (_, chain_last) = chain[root]?;
                let other_shares = node
                    .inputs
                    .iter()
                    .enumerate()
                    .any(|(j, &o)| j != k && root_of(o) == Some(root));
                if chain_last != pos || holds_output[root] || other_shares {
                    return None;
                }
            }
            Some((input, root))
        });
        let Some((input, root)) = shared else {
            continue;
        };
        aliases[idx] = Some(input);
        alias_root[idx] = root;
        let (rd, rl) = chain[root].expect("alias root must have a lifetime");
        chain[root] = Some((rd, rl.max(last)));
        holds_output[root] |= holds_output[idx];
    }

    // Peak of simultaneously live bytes over chain roots.
    let mut events: Vec<(usize, isize)> = Vec::new();
    for idx in 0..n {
        if lifetimes[idx].is_none() || alias_root[idx] != idx {
            continue;
        }
        if let Some((def, last)) = chain[idx] {
            let sz = size_of(idx) as isize;
            events.push((def, sz));
            events.push((last + 1, -sz));
        }
    }
    events.sort();
    let mut live = 0isize;
    let mut peak = 0isize;
    for (_, delta) in events {
        live += delta;
        peak = peak.max(live);
    }
    let peak_transient_bytes = peak as usize;

    // Best-fit offsets over chain roots.
    let mut order: Vec<usize> = (0..n)
        .filter(|&i| lifetimes[i].is_some() && alias_root[i] == i)
        .collect();
    order.sort_by_key(|&i| std::cmp::Reverse(size_of(i)));
    let mut placed: Vec<(usize, usize, Lifetime)> = Vec::new(); // (offset, size, lifetime)
    let mut offsets: Vec<Option<usize>> = vec![None; n];
    let mut arena_bytes = 0usize;

    for idx in order {
        let size = size_of(idx);
        if size == 0 {
            offsets[idx] = Some(0);
            continue;
        }
        let (def, last) = chain[idx].expect("filtered to Some");
        // Collect blocking intervals that overlap in time.
        let mut blockers: Vec<(usize, usize)> = placed
            .iter()
            .filter(|(_, _, (d, l))| !(last < *d || *l < def))
            .map(|(off, sz, _)| (*off, *sz))
            .collect();
        blockers.sort();
        // First aligned gap that fits.
        let mut candidate = 0usize;
        for (off, sz) in blockers {
            if candidate + size <= off {
                break;
            }
            candidate = candidate.max(off + sz).next_multiple_of(ALIGN_BYTES);
        }
        offsets[idx] = Some(candidate);
        arena_bytes = arena_bytes.max(candidate + size);
        placed.push((candidate, size, (def, last)));
    }

    // Aliased nodes inherit their chain root's offset.
    for idx in 0..n {
        if lifetimes[idx].is_some() && alias_root[idx] != idx {
            offsets[idx] = offsets[alias_root[idx]];
        }
    }

    MemoryPlan {
        lifetimes,
        offsets,
        aliases,
        arena_bytes,
        peak_transient_bytes,
    }
}

/// Structurally validates a [`MemoryPlan`] built outside [`plan_memory`]
/// (e.g. a test oracle's no-reuse plan) against the graph and schedule it
/// claims to plan.
///
/// The check is much cheaper than re-running best-fit placement, yet strong
/// enough that a corrupted or mismatched plan cannot make the arena executor
/// read or write out of bounds, share memory between concurrently-live
/// buffers, or overwrite a value that is still to be read:
///
/// * every vector is node-indexed and full-length;
/// * lifetimes equal a fresh [`analyze_lifetimes`] pass exactly;
/// * every scheduled buffer has a 4-byte-aligned offset inside the arena;
/// * an alias is a reshape viewing its input, or an element-wise writer
///   (activation, scale, activation VJP) over one of its operands, with
///   matching sizes and offsets;
/// * a writer's operand chain holds no graph output, no member defined
///   before the writer is read after it, and no other operand of the
///   writer lives in that chain;
/// * no two alias-chain roots whose lifetimes overlap share an address
///   range.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_plan(graph: &Graph, schedule: &Schedule, plan: &MemoryPlan) -> Result<(), String> {
    let n = graph.len();
    if plan.lifetimes.len() != n || plan.offsets.len() != n || plan.aliases.len() != n {
        return Err(format!(
            "plan vectors sized {}/{}/{} for a {n}-node graph",
            plan.lifetimes.len(),
            plan.offsets.len(),
            plan.aliases.len()
        ));
    }
    let expected = analyze_lifetimes(graph, schedule);
    if plan.lifetimes != expected {
        return Err("plan lifetimes disagree with the schedule".to_string());
    }
    let size_of = |idx: usize| graph.node(NodeId(idx)).size_bytes();
    for idx in 0..n {
        if plan.lifetimes[idx].is_none() {
            continue;
        }
        let Some(off) = plan.offsets[idx] else {
            return Err(format!("scheduled node {idx} has no arena offset"));
        };
        let size = size_of(idx);
        if size == 0 {
            continue;
        }
        if off % 4 != 0 {
            return Err(format!("offset {off} of node {idx} not 4-byte aligned"));
        }
        if off + size > plan.arena_bytes {
            return Err(format!(
                "node {idx} range [{off}, {}) exceeds arena of {} bytes",
                off + size,
                plan.arena_bytes
            ));
        }
    }
    // Which operand each alias shares, and how.
    let mut writers: Vec<(usize, usize)> = Vec::new(); // (node, operand slot)
    for idx in 0..n {
        let Some(input) = plan.aliases[idx] else {
            continue;
        };
        let node = graph.node(NodeId(idx));
        let Some((kind, operands)) = alias_kind(&node.op) else {
            return Err(format!(
                "node {idx} ({}) aliased but shares no operand",
                node.op.mnemonic()
            ));
        };
        let Some(k) = operands
            .iter()
            .copied()
            .find(|&k| node.inputs.get(k) == Some(&input))
        else {
            return Err(format!(
                "node {idx} aliases {input}, not an operand it may share"
            ));
        };
        if plan.lifetimes[idx].is_none() || plan.lifetimes[input.index()].is_none() {
            return Err(format!(
                "alias {idx} -> {input} involves an unplanned buffer"
            ));
        }
        if size_of(idx) != size_of(input.index()) {
            return Err(format!("alias {idx} -> {input} with mismatched sizes"));
        }
        if plan.offsets[idx] != plan.offsets[input.index()] {
            return Err(format!("alias {idx} -> {input} with different offsets"));
        }
        if kind == Alias::Writer {
            writers.push((idx, k));
        }
    }
    // Alias-chain root of every node.
    let mut root = vec![0usize; n];
    for (idx, r) in root.iter_mut().enumerate() {
        let mut i = idx;
        let mut hops = 0;
        while let Some(p) = plan.aliases[i] {
            i = p.index();
            hops += 1;
            if hops > n {
                return Err("alias cycle in plan".to_string());
            }
        }
        *r = i;
    }
    // A writer overwrites bytes that nothing may read after it.
    let is_output = |i: usize| graph.outputs().contains(&NodeId(i));
    for &(idx, k) in &writers {
        let node = graph.node(NodeId(idx));
        let (pos, _) = plan.lifetimes[idx].expect("checked above");
        let chain_root = root[node.inputs[k].index()];
        for (j, other) in node.inputs.iter().enumerate() {
            if j != k
                && plan.lifetimes[other.index()].is_some()
                && root[other.index()] == chain_root
            {
                return Err(format!(
                    "node {idx} writes over operand {k}, whose range operand {j} also reads"
                ));
            }
        }
        for m in (0..n).filter(|&m| root[m] == chain_root) {
            let Some((def, last)) = plan.lifetimes[m] else {
                continue;
            };
            if def < pos && (last > pos || is_output(m)) {
                return Err(format!(
                    "node {idx} writes over the range of node {m}, which is read after it"
                ));
            }
        }
    }
    // Overlap safety over alias-chain roots. Chain lifetime per root: union
    // of the members' lifetimes.
    let mut chain: Vec<Option<Lifetime>> = plan.lifetimes.clone();
    for (&r, &lifetime) in root.iter().zip(&plan.lifetimes) {
        if let (Some((rd, rl)), Some((_, nl))) = (chain[r], lifetime) {
            chain[r] = Some((rd, rl.max(nl)));
        }
    }
    let roots: Vec<usize> = (0..n)
        .filter(|&idx| plan.lifetimes[idx].is_some() && root[idx] == idx && size_of(idx) > 0)
        .collect();
    for (i, &a) in roots.iter().enumerate() {
        for &b in &roots[i + 1..] {
            let (Some((da, la)), Some((db, lb))) = (chain[a], chain[b]) else {
                continue;
            };
            if la < db || lb < da {
                continue;
            }
            let (oa, ob) = (plan.offsets[a].unwrap(), plan.offsets[b].unwrap());
            let (sa, sb) = (size_of(a), size_of(b));
            if !(oa + sa <= ob || ob + sb <= oa) {
                return Err(format!(
                    "buffers {a} and {b} overlap in both lifetime and address"
                ));
            }
        }
    }
    Ok(())
}

/// Produces the full training-memory breakdown for a scheduled graph by
/// planning it ([`plan_memory`]) and reporting that plan
/// ([`memory_report_for_plan`]).
///
/// `trainable_elements` is the number of parameter elements that receive
/// updates (see `TrainingGraph::trainable_element_count`), and
/// `optimizer_slots` is the number of extra per-element state tensors the
/// optimizer keeps (0 for SGD, 1 for momentum/Lion, 2 for Adam).
pub fn memory_report(
    graph: &Graph,
    schedule: &Schedule,
    trainable_elements: usize,
    optimizer_slots: usize,
) -> MemoryReport {
    let plan = plan_memory(graph, schedule);
    memory_report_for_plan(graph, &plan, trainable_elements, optimizer_slots)
}

/// The training-memory breakdown of `graph` run out of an existing `plan`
/// (for example the one an executor was built on), without planning again.
/// Arguments are as for [`memory_report`].
pub fn memory_report_for_plan(
    graph: &Graph,
    plan: &MemoryPlan,
    trainable_elements: usize,
    optimizer_slots: usize,
) -> MemoryReport {
    let params_bytes: usize = graph
        .params()
        .keys()
        .map(|id| graph.node(*id).size_bytes())
        .sum();
    let input_bytes: usize = graph
        .inputs()
        .iter()
        .map(|id| graph.node(*id).size_bytes())
        .sum();
    MemoryReport {
        params_bytes,
        optimizer_bytes: trainable_elements * 4 * optimizer_slots,
        input_bytes,
        transient_peak_bytes: plan.peak_transient_bytes,
        arena_bytes: plan.arena_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_graph::{build_training_graph, GraphBuilder, TrainKind, TrainSpec, TrainingGraph};
    use pe_passes::{build_schedule, ScheduleStrategy};
    use pe_tensor::Rng;

    /// A deep MLP so that activation and gradient memory dominate.
    fn mlp(depth: usize, spec_of: impl Fn(usize, &str) -> TrainKind) -> TrainingGraph {
        let mut rng = Rng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [8, 64]);
        let labels = b.input("labels", [8]);
        let mut h = x;
        let mut spec = TrainSpec::new();
        for i in 0..depth {
            let w = b.weight(&format!("fc{i}.weight"), [64, 64], &mut rng);
            let bias = b.bias(&format!("fc{i}.bias"), 64);
            spec.insert(w, spec_of(i, "weight"));
            spec.insert(bias, spec_of(i, "bias"));
            h = b.linear(h, w, Some(bias));
            h = b.relu(h);
        }
        let wout = b.weight("head.weight", [10, 64], &mut rng);
        spec.insert(wout, spec_of(depth, "weight"));
        let logits = b.linear(h, wout, None);
        let loss = b.cross_entropy(logits, labels);
        let g = b.finish(vec![loss]);
        build_training_graph(g, loss, &spec)
    }

    /// The clobber case: `h` is viewed by a reshape that feeds a ReLU, and
    /// `h` itself is read again after the ReLU by a residual add. The ReLU
    /// may not write over the view, because that range is `h`'s. Also a
    /// rank-3 linear (reshape views around a matmul) and a GELU, so that
    /// every alias kind appears. Returns the graph with the view's and the
    /// ReLU's ids.
    fn clobber_mlp() -> (TrainingGraph, NodeId, NodeId) {
        let mut rng = Rng::seed_from_u64(1);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [4, 8, 16]);
        let labels = b.input("labels", [32]);
        let w0 = b.weight("fc0.weight", [16, 16], &mut rng);
        let h = b.linear(x, w0, None);
        let view = b.reshape(h, vec![32, 16]);
        let relu = b.relu(view);
        let back = b.reshape(relu, vec![4, 8, 16]);
        let sum = b.add(back, h);
        let w1 = b.weight("fc1.weight", [16, 16], &mut rng);
        let g = b.linear(sum, w1, None);
        let g = b.gelu(g);
        let g = b.reshape(g, vec![32, 16]);
        let head = b.weight("head.weight", [5, 16], &mut rng);
        let logits = b.linear(g, head, None);
        let loss = b.cross_entropy(logits, labels);
        let graph = b.finish(vec![loss]);
        let spec: TrainSpec = graph
            .params()
            .keys()
            .map(|&id| (id, TrainKind::Full))
            .collect();
        (build_training_graph(graph, loss, &spec), view, relu)
    }

    #[test]
    fn reshapes_are_views_and_writers_never_clobber_a_live_chain() {
        let (tg, view, relu) = clobber_mlp();
        let schedule = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
        let plan = plan_memory(&tg.graph, &schedule);
        assert_eq!(validate_plan(&tg.graph, &schedule, &plan), Ok(()));
        let h = tg.graph.node(view).inputs[0];
        assert_eq!(
            plan.aliases[view.index()],
            Some(h),
            "a reshape views its input"
        );
        let (_, h_last) = plan.lifetimes[h.index()].unwrap();
        let relu_pos = schedule.positions(tg.graph.len())[relu.index()];
        assert!(h_last > relu_pos, "the fixture reads h after the ReLU");
        assert_eq!(plan.aliases[relu.index()], None, "the ReLU would clobber h");
        let aliased_grads = (0..tg.graph.len())
            .filter(|&i| plan.aliases[i].is_some())
            .filter(|&i| {
                matches!(
                    tg.graph.node(NodeId(i)).op,
                    OpKind::ReluGrad | OpKind::GeluGrad
                )
            })
            .count();
        assert!(
            aliased_grads > 0,
            "an activation VJP writes over a dying operand"
        );
        assert_concurrent_buffers_disjoint_outside_alias_chains(&tg, &plan);
    }

    #[test]
    fn lifetimes_are_well_formed() {
        let tg = mlp(3, |_, _| TrainKind::Full);
        let schedule = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
        let lifetimes = analyze_lifetimes(&tg.graph, &schedule);
        for (idx, lt) in lifetimes.iter().enumerate() {
            let id = NodeId(idx);
            match lt {
                Some((def, last)) => {
                    assert!(def <= last);
                    assert!(!matches!(
                        tg.graph.node(id).op,
                        OpKind::Parameter | OpKind::Input
                    ));
                }
                None => {
                    assert!(is_persistent(&tg.graph, id) || !schedule.order.contains(&id));
                }
            }
        }
    }

    #[test]
    fn arena_never_smaller_than_peak() {
        let tg = mlp(4, |_, _| TrainKind::Full);
        let schedule = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
        let plan = plan_memory(&tg.graph, &schedule);
        assert!(plan.arena_bytes >= plan.peak_transient_bytes);
        assert!(plan.peak_transient_bytes > 0);
    }

    #[test]
    fn reordered_updates_reduce_peak_memory() {
        let tg = mlp(8, |_, _| TrainKind::Full);
        let conventional = build_schedule(&tg.graph, ScheduleStrategy::Conventional);
        let reordered = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
        let peak_conv = plan_memory(&tg.graph, &conventional).peak_transient_bytes;
        let peak_reord = plan_memory(&tg.graph, &reordered).peak_transient_bytes;
        assert!(
            peak_reord < peak_conv,
            "reordered peak {peak_reord} should be below conventional {peak_conv}"
        );
    }

    #[test]
    fn sparse_bp_reduces_peak_memory() {
        let full = mlp(8, |_, _| TrainKind::Full);
        // Only the last two layers train (layer-sparse scheme).
        let sparse = mlp(8, |i, _| {
            if i >= 7 {
                TrainKind::Full
            } else {
                TrainKind::Frozen
            }
        });
        let sched_full = build_schedule(&full.graph, ScheduleStrategy::Reordered);
        let sched_sparse = build_schedule(&sparse.graph, ScheduleStrategy::Reordered);
        let peak_full = plan_memory(&full.graph, &sched_full).peak_transient_bytes;
        let peak_sparse = plan_memory(&sparse.graph, &sched_sparse).peak_transient_bytes;
        assert!(
            peak_sparse < peak_full,
            "sparse peak {peak_sparse} should be below full {peak_full}"
        );
    }

    #[test]
    fn report_totals_add_up() {
        let tg = mlp(2, |_, _| TrainKind::Full);
        let schedule = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
        let report = memory_report(&tg.graph, &schedule, tg.trainable_element_count(), 2);
        assert_eq!(
            report.total_bytes(),
            report.params_bytes + report.optimizer_bytes + report.input_bytes + report.arena_bytes
        );
        assert!(report.optimizer_bytes > 0);
    }

    #[test]
    fn optimizer_state_scales_with_trainable_elements() {
        let full = mlp(4, |_, _| TrainKind::Full);
        let bias_only = mlp(4, |_, role| {
            if role == "bias" {
                TrainKind::Full
            } else {
                TrainKind::Frozen
            }
        });
        let s_full = build_schedule(&full.graph, ScheduleStrategy::Reordered);
        let s_bias = build_schedule(&bias_only.graph, ScheduleStrategy::Reordered);
        let r_full = memory_report(&full.graph, &s_full, full.trainable_element_count(), 2);
        let r_bias = memory_report(
            &bias_only.graph,
            &s_bias,
            bias_only.trainable_element_count(),
            2,
        );
        assert!(r_bias.optimizer_bytes < r_full.optimizer_bytes / 10);
    }

    #[test]
    fn execution_options_align_offsets_and_alias_activations() {
        let tg = mlp(4, |_, _| TrainKind::Full);
        let schedule = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
        let plan = plan_memory(&tg.graph, &schedule);
        let mut aliased = 0;
        for idx in 0..tg.graph.len() {
            if let Some(off) = plan.offsets[idx] {
                if plan.aliases[idx].is_none() && plan.lifetimes[idx].is_some() {
                    assert_eq!(off % 64, 0, "offset of node {idx} not 64-byte aligned");
                }
            }
            if let Some(input) = plan.aliases[idx] {
                aliased += 1;
                assert_eq!(
                    plan.offsets[idx],
                    plan.offsets[input.index()],
                    "aliased node must share its input's offset"
                );
                // A writer's operand must die exactly at the aliasing node;
                // only a reshape may view a buffer that lives on.
                if !matches!(tg.graph.node(NodeId(idx)).op, OpKind::Reshape { .. }) {
                    let (_, input_last) = plan.lifetimes[input.index()].unwrap();
                    let pos = schedule.positions(tg.graph.len())[idx];
                    assert_eq!(input_last, pos);
                }
            }
        }
        assert!(
            aliased > 0,
            "an MLP has ReLU ops that should alias in place"
        );
    }

    /// Asserts that every two buffers whose lifetimes intersect either
    /// belong to one in-place alias chain, and so share one offset, or
    /// occupy disjoint arena ranges.
    fn assert_concurrent_buffers_disjoint_outside_alias_chains(
        tg: &TrainingGraph,
        plan: &MemoryPlan,
    ) {
        let n = tg.graph.len();
        let size = |i: usize| tg.graph.node(NodeId(i)).size_bytes();
        let root = |mut i: usize| {
            while let Some(p) = plan.aliases[i] {
                i = p.index();
            }
            i
        };
        for a in 0..n {
            for b in (a + 1)..n {
                let (Some((da, la)), Some((db, lb))) = (plan.lifetimes[a], plan.lifetimes[b])
                else {
                    continue;
                };
                if la < db || lb < da {
                    continue;
                }
                let (oa, ob) = (plan.offsets[a].unwrap(), plan.offsets[b].unwrap());
                // Members of one alias chain intentionally share a range.
                if root(a) == root(b) {
                    assert_eq!(
                        oa, ob,
                        "alias chain members {a} and {b} sit at different offsets"
                    );
                    continue;
                }
                let (sa, sb) = (size(a), size(b));
                if sa == 0 || sb == 0 {
                    continue;
                }
                assert!(
                    oa + sa <= ob || ob + sb <= oa,
                    "buffers {a} and {b} overlap in time and space"
                );
            }
        }
    }

    #[test]
    fn offsets_do_not_overlap_for_concurrent_buffers() {
        let sparse = |i: usize, kind: &str| {
            if i == 0 || kind == "bias" {
                TrainKind::Full
            } else {
                TrainKind::Frozen
            }
        };
        for tg in [mlp(3, |_, _| TrainKind::Full), mlp(3, sparse)] {
            for strategy in [ScheduleStrategy::Conventional, ScheduleStrategy::Reordered] {
                let schedule = build_schedule(&tg.graph, strategy);
                let plan = plan_memory(&tg.graph, &schedule);
                assert_concurrent_buffers_disjoint_outside_alias_chains(&tg, &plan);
            }
        }
    }

    #[test]
    fn non_aliased_execution_buffers_never_overlap() {
        let tg = mlp(3, |_, _| TrainKind::Full);
        let schedule = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
        let plan = plan_memory(&tg.graph, &schedule);
        assert_concurrent_buffers_disjoint_outside_alias_chains(&tg, &plan);
    }

    #[test]
    fn fresh_plans_validate_and_corrupted_plans_do_not() {
        let tg = mlp(4, |_, _| TrainKind::Full);
        let schedule = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
        let plan = plan_memory(&tg.graph, &schedule);
        assert_eq!(validate_plan(&tg.graph, &schedule, &plan), Ok(()));

        // Truncated vectors.
        let mut bad = plan.clone();
        bad.offsets.pop();
        assert!(validate_plan(&tg.graph, &schedule, &bad).is_err());

        // An offset pushed past the arena end.
        let mut bad = plan.clone();
        let victim = (0..tg.graph.len())
            .find(|&i| plan.lifetimes[i].is_some() && plan.offsets[i].is_some())
            .unwrap();
        bad.offsets[victim] = Some(bad.arena_bytes);
        assert!(validate_plan(&tg.graph, &schedule, &bad).is_err());

        // Two concurrently-live, non-aliased buffers forced onto one offset.
        let concurrent = |i: usize, j: usize| {
            let (di, li) = plan.lifetimes[i].unwrap();
            let (dj, lj) = plan.lifetimes[j].unwrap();
            !(li < dj || lj < di)
        };
        let live = |i: usize| plan.aliases[i].is_none() && plan.lifetimes[i].is_some();
        let pair = (0..tg.graph.len())
            .flat_map(|i| (0..tg.graph.len()).map(move |j| (i, j)))
            .find(|&(i, j)| {
                i != j
                    && live(i)
                    && live(j)
                    && plan.offsets[i] != plan.offsets[j]
                    && concurrent(i, j)
            });
        let (i, j) = pair.expect("an MLP step has concurrently-live buffers");
        let mut bad = plan.clone();
        bad.offsets[j] = bad.offsets[i];
        assert!(validate_plan(&tg.graph, &schedule, &bad).is_err());

        // Lifetimes that disagree with the schedule.
        let mut bad = plan.clone();
        let victim = (0..tg.graph.len())
            .find(|&i| bad.lifetimes[i].is_some())
            .unwrap();
        bad.lifetimes[victim] = None;
        assert!(validate_plan(&tg.graph, &schedule, &bad).is_err());

        // The new alias kinds: a plan with views and aliased VJPs validates.
        let (tg, view, relu) = clobber_mlp();
        let schedule = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
        let plan = plan_memory(&tg.graph, &schedule);
        assert_eq!(validate_plan(&tg.graph, &schedule, &plan), Ok(()));

        // A view of the wrong size: the same plan over a graph whose view
        // is smaller than the buffer it views.
        let mut shrunk = tg.graph.clone();
        shrunk.node_mut(view).shape = [16, 16].into();
        let err = validate_plan(&shrunk, &schedule, &plan).unwrap_err();
        assert!(err.contains("mismatched sizes"), "{err}");

        // A writer aliased onto a chain that is read after it: the ReLU
        // written over the view of `h`, which the residual add reads later.
        // The ReLU's own views move with it.
        let mut bad = plan.clone();
        bad.aliases[relu.index()] = Some(view);
        for i in 0..tg.graph.len() {
            if plan.offsets[i].is_some() && plan.offsets[i] == plan.offsets[relu.index()] {
                bad.offsets[i] = plan.offsets[view.index()];
            }
        }
        let err = validate_plan(&tg.graph, &schedule, &bad).unwrap_err();
        assert!(err.contains("read after it"), "{err}");
    }

    #[test]
    fn peak_attribution_classes_sum_to_the_peak() {
        let (clobber, _, _) = clobber_mlp();
        for tg in [mlp(4, |_, _| TrainKind::Full), clobber] {
            let schedule = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
            let plan = plan_memory(&tg.graph, &schedule);
            let peak = attribute_peak(&tg.graph, &schedule, &plan, 3);
            assert_eq!(peak.total_bytes(), plan.peak_transient_bytes);
            assert!(peak.position < schedule.len());
            assert!(peak.saved_activation_bytes > 0, "{peak:?}");
            assert!(peak.backward_bytes > 0, "{peak:?}");
            assert_eq!(peak.largest.len(), 3);
            assert!(peak.largest.windows(2).all(|w| w[0].1 >= w[1].1));
        }
    }

    #[test]
    fn live_profile_peak_matches_plan() {
        let tg = mlp(3, |_, _| TrainKind::Full);
        let schedule = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
        let plan = plan_memory(&tg.graph, &schedule);
        // Live bytes per position: an alias chain is one buffer, live from
        // its root's definition to its last member's last use.
        let root = |mut i: usize| {
            while let Some(p) = plan.aliases[i] {
                i = p.index();
            }
            i
        };
        let mut chain = plan.lifetimes.clone();
        for idx in 0..tg.graph.len() {
            let r = root(idx);
            if let (Some((rd, rl)), Some((_, l))) = (chain[r], plan.lifetimes[idx]) {
                chain[r] = Some((rd, rl.max(l)));
            }
        }
        let mut profile = vec![0usize; schedule.len()];
        for idx in (0..tg.graph.len()).filter(|&i| root(i) == i) {
            if let Some((def, last)) = chain[idx] {
                for p in &mut profile[def..=last] {
                    *p += tg.graph.node(NodeId(idx)).size_bytes();
                }
            }
        }
        assert!(plan.aliases.iter().any(Option::is_some));
        assert_eq!(
            profile.iter().copied().max().unwrap_or(0),
            plan.peak_transient_bytes
        );
    }
}
