//! # pe-memplan
//!
//! Tensor lifetime analysis and training memory planning.
//!
//! Because the entire training step (forward, backward, parameter updates) is
//! a static graph with a static schedule, the compiler can compute every
//! buffer's lifetime ahead of time, assign arena offsets, and report the peak
//! training memory — the quantity Table 4 of the paper measures. The effects
//! reproduced here:
//!
//! * sparse backpropagation shrinks the set of saved activations, so peak
//!   memory drops even at larger batch sizes;
//! * operator reordering (updates issued right after their gradients) lets
//!   gradient buffers die immediately instead of all being co-resident.

#![deny(missing_docs)]

use pe_graph::{Graph, NodeId, OpKind};
use pe_passes::Schedule;

/// Lifetime of a transient buffer in schedule positions: `[def, last_use]`.
pub type Lifetime = (usize, usize);

/// Per-node buffer placement produced by [`plan_memory`].
#[derive(Debug, Clone)]
pub struct MemoryPlan {
    /// Lifetime of each node's output buffer (indexed by node id); `None`
    /// for persistent values (parameters, constants) and unscheduled nodes.
    pub lifetimes: Vec<Option<Lifetime>>,
    /// Arena byte offset for each transient buffer.
    pub offsets: Vec<Option<usize>>,
    /// In-place aliasing hints: `aliases[n] == Some(i)` means node `n`'s
    /// output shares its arena range with input `i`, whose last use is `n`
    /// itself; the executor may run such a node in place. Always all-`None`
    /// unless [`MemPlanOptions::inplace`] was set.
    pub aliases: Vec<Option<NodeId>>,
    /// Size of the activation arena produced by best-fit assignment.
    pub arena_bytes: usize,
    /// Peak of the sum of simultaneously-live transient buffers (a lower
    /// bound on any arena assignment).
    pub peak_transient_bytes: usize,
}

/// Options for [`plan_memory_with`].
///
/// The defaults reproduce [`plan_memory`] exactly: logical dtype sizes, no
/// alignment and no in-place aliasing.
#[derive(Debug, Clone, Default)]
pub struct MemPlanOptions {
    /// Round every buffer offset up to this many bytes (0 or 1 = none).
    pub align_bytes: usize,
    /// Size every buffer by its runtime representation (4-byte `f32`)
    /// instead of the logical dtype, which may be narrower (f16/i8). The
    /// executor computes in `f32` regardless of the logical dtype, so arena
    /// plans meant for execution must set this.
    pub runtime_f32_sizes: bool,
    /// Alias the output of safe same-index unary ops (activations, scale,
    /// reshape) onto their input when this node is the input's last use,
    /// eliminating the copy and the extra arena range.
    pub inplace: bool,
}

impl MemPlanOptions {
    /// The configuration the arena executor uses: runtime `f32` sizes,
    /// 64-byte alignment and in-place aliasing.
    pub fn for_execution() -> Self {
        MemPlanOptions {
            align_bytes: 64,
            runtime_f32_sizes: true,
            inplace: true,
        }
    }
}

impl MemoryPlan {
    /// Position-indexed total of live transient bytes (the memory profile
    /// over the step). Useful for plotting and for locating the peak.
    pub fn live_bytes_profile(&self, graph: &Graph, schedule: &Schedule) -> Vec<usize> {
        let mut profile = vec![0usize; schedule.len()];
        for (idx, lt) in self.lifetimes.iter().enumerate() {
            if let Some((def, last)) = lt {
                let sz = graph.node(NodeId(idx)).size_bytes();
                for p in profile.iter_mut().take(*last + 1).skip(*def) {
                    *p += sz;
                }
            }
        }
        profile
    }
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
    /// Arena size chosen by the planner (>= `transient_peak_bytes`).
    pub arena_bytes: usize,
}

impl MemoryReport {
    /// Total training memory: parameters + optimizer state + inputs + arena.
    pub fn total_bytes(&self) -> usize {
        self.params_bytes + self.optimizer_bytes + self.input_bytes + self.arena_bytes
    }

    /// Total in mebibytes.
    pub fn total_mib(&self) -> f64 {
        self.total_bytes() as f64 / (1024.0 * 1024.0)
    }

    /// Total memory for `specializations` executors sharing one canonical
    /// parameter store.
    ///
    /// Parameters and optimizer state are *not* part of a specialization's
    /// transient arena — they live once in the shared `ParamStore` no matter
    /// how many batch-size specializations borrow them — so only the step
    /// inputs and the arena multiply. (This approximates every
    /// specialization with this report's shapes; batch-dependent arenas of
    /// different specializations differ in practice, but the params-shared
    /// vs params-duplicated comparison is what matters.)
    pub fn shared_store_total_bytes(&self, specializations: usize) -> usize {
        self.params_bytes
            + self.optimizer_bytes
            + specializations * (self.input_bytes + self.arena_bytes)
    }
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

/// Greedy best-fit arena assignment over the computed lifetimes.
///
/// Buffers are placed in order of decreasing size; each buffer takes the
/// lowest offset that does not overlap (in both address range and lifetime)
/// any previously placed buffer.
pub fn plan_memory(graph: &Graph, schedule: &Schedule) -> MemoryPlan {
    plan_memory_with(graph, schedule, &MemPlanOptions::default())
}

/// Whether a node may execute in place on its first input's buffer: every
/// output element depends only on the input element at the same index.
fn is_inplace_safe(op: &OpKind) -> bool {
    matches!(
        op,
        OpKind::Relu
            | OpKind::Relu6
            | OpKind::Gelu
            | OpKind::Silu
            | OpKind::Sigmoid
            | OpKind::Tanh
            | OpKind::Scale { .. }
            | OpKind::Reshape { .. }
    )
}

/// Buffer size in planning units (runtime `f32` or logical dtype).
fn plan_size_of(graph: &Graph, opts: &MemPlanOptions, idx: usize) -> usize {
    let node = graph.node(NodeId(idx));
    if opts.runtime_f32_sizes {
        node.shape.numel() * 4
    } else {
        node.size_bytes()
    }
}

/// [`plan_memory`] with explicit [`MemPlanOptions`] (alignment, runtime
/// sizes, and in-place aliasing of safe unary ops).
pub fn plan_memory_with(graph: &Graph, schedule: &Schedule, opts: &MemPlanOptions) -> MemoryPlan {
    let lifetimes = analyze_lifetimes(graph, schedule);
    let n = graph.len();
    let positions = schedule.positions(n);
    let size_of = |idx: usize| plan_size_of(graph, opts, idx);

    // In-place aliasing: a safe unary op whose first input dies at this very
    // node may write straight into the input's range. Chains (e.g.
    // relu -> reshape) collapse onto one root buffer whose lifetime is
    // extended to the end of the chain.
    let mut aliases: Vec<Option<NodeId>> = vec![None; n];
    let mut alias_root: Vec<usize> = (0..n).collect();
    // Planning lifetime per chain root, extended as members join.
    let mut chain: Vec<Option<Lifetime>> = lifetimes.clone();
    if opts.inplace {
        for &id in &schedule.order {
            let idx = id.index();
            let node = graph.node(id);
            if !is_inplace_safe(&node.op) || lifetimes[idx].is_none() {
                continue;
            }
            let input = node.inputs[0];
            let i = input.index();
            let Some((_, input_last)) = lifetimes[i] else {
                continue; // persistent or unscheduled input
            };
            let pos = positions[idx];
            if input_last != pos || graph.outputs().contains(&input) {
                continue;
            }
            if size_of(idx) != size_of(i) {
                continue;
            }
            let root = alias_root[i];
            aliases[idx] = Some(input);
            alias_root[idx] = root;
            let (rd, rl) = chain[root].expect("alias root must have a lifetime");
            let (_, nl) = lifetimes[idx].expect("aliased node is scheduled");
            chain[root] = Some((rd, rl.max(nl)));
        }
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
    let align = opts.align_bytes.max(1);
    let round_up = |v: usize| v.div_ceil(align) * align;
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
            candidate = round_up(candidate.max(off + sz));
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

/// Structurally validates a [`MemoryPlan`] built outside [`plan_memory_with`]
/// (e.g. a test oracle's no-reuse plan) against the graph and schedule it
/// claims to plan.
///
/// The check is much cheaper than re-running best-fit placement, yet strong
/// enough that a corrupted or mismatched plan cannot make the arena executor
/// read or write out of bounds or share memory between concurrently-live
/// buffers:
///
/// * every vector is node-indexed and full-length;
/// * lifetimes equal a fresh [`analyze_lifetimes`] pass exactly;
/// * every scheduled buffer has a 4-byte-aligned offset inside the arena;
/// * aliases only chain safe in-place ops onto their first input with
///   matching sizes and offsets;
/// * no two alias-chain roots whose lifetimes overlap share an address
///   range.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_plan(
    graph: &Graph,
    schedule: &Schedule,
    opts: &MemPlanOptions,
    plan: &MemoryPlan,
) -> Result<(), String> {
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
    let size_of = |idx: usize| plan_size_of(graph, opts, idx);
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
    for idx in 0..n {
        let Some(input) = plan.aliases[idx] else {
            continue;
        };
        let node = graph.node(NodeId(idx));
        if !is_inplace_safe(&node.op) {
            return Err(format!(
                "node {idx} ({}) aliased but not in-place safe",
                node.op.mnemonic()
            ));
        }
        if node.inputs.first() != Some(&input) {
            return Err(format!("node {idx} aliases {input}, not its first input"));
        }
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
    }
    // Overlap safety over alias-chain roots.
    let root_of = |mut i: usize| -> Result<usize, String> {
        let mut hops = 0;
        while let Some(p) = plan.aliases[i] {
            i = p.index();
            hops += 1;
            if hops > n {
                return Err("alias cycle in plan".to_string());
            }
        }
        Ok(i)
    };
    // Chain lifetime per root: union of the members' lifetimes.
    let mut chain: Vec<Option<Lifetime>> = plan.lifetimes.clone();
    for (idx, alias) in plan.aliases.iter().enumerate() {
        if alias.is_none() {
            continue;
        }
        let root = root_of(idx)?;
        if let (Some((rd, rl)), Some((_, nl))) = (chain[root], plan.lifetimes[idx]) {
            chain[root] = Some((rd, rl.max(nl)));
        }
    }
    let mut roots: Vec<usize> = Vec::new();
    for idx in 0..n {
        if plan.lifetimes[idx].is_some() && root_of(idx)? == idx && size_of(idx) > 0 {
            roots.push(idx);
        }
    }
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

/// Produces the full training-memory breakdown for a scheduled graph.
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
    fn offsets_do_not_overlap_for_concurrent_buffers() {
        let tg = mlp(3, |_, _| TrainKind::Full);
        let schedule = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
        let plan = plan_memory(&tg.graph, &schedule);
        let n = tg.graph.len();
        for a in 0..n {
            for b in (a + 1)..n {
                let (Some((da, la)), Some((db, lb))) = (plan.lifetimes[a], plan.lifetimes[b])
                else {
                    continue;
                };
                // Overlapping lifetimes must not overlap in the arena.
                if la < db || lb < da {
                    continue;
                }
                let (oa, ob) = (plan.offsets[a].unwrap(), plan.offsets[b].unwrap());
                let (sa, sb) = (
                    tg.graph.node(NodeId(a)).size_bytes(),
                    tg.graph.node(NodeId(b)).size_bytes(),
                );
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
        assert!(report.total_mib() > 0.0);
    }

    #[test]
    fn shared_store_totals_pay_params_once() {
        let tg = mlp(2, |_, _| TrainKind::Full);
        let schedule = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
        let report = memory_report(&tg.graph, &schedule, tg.trainable_element_count(), 2);
        assert_eq!(report.shared_store_total_bytes(1), report.total_bytes());
        let three = report.shared_store_total_bytes(3);
        // Sharing beats three private copies by exactly two params+opt sets.
        assert_eq!(
            3 * report.total_bytes() - three,
            2 * (report.params_bytes + report.optimizer_bytes)
        );
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
        let plan = plan_memory_with(&tg.graph, &schedule, &MemPlanOptions::for_execution());
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
                // The input must die exactly at the aliasing node.
                let (_, input_last) = plan.lifetimes[input.index()].unwrap();
                let pos = schedule.positions(tg.graph.len())[idx];
                assert_eq!(input_last, pos);
            }
        }
        assert!(
            aliased > 0,
            "an MLP has ReLU ops that should alias in place"
        );
    }

    #[test]
    fn non_aliased_execution_buffers_never_overlap() {
        let tg = mlp(3, |_, _| TrainKind::Full);
        let schedule = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
        let plan = plan_memory_with(&tg.graph, &schedule, &MemPlanOptions::for_execution());
        let n = tg.graph.len();
        let size = |i: usize| tg.graph.node(NodeId(i)).shape.numel() * 4;
        for a in 0..n {
            for b in (a + 1)..n {
                let (Some((da, la)), Some((db, lb))) = (plan.lifetimes[a], plan.lifetimes[b])
                else {
                    continue;
                };
                if la < db || lb < da {
                    continue;
                }
                // Members of one alias chain intentionally share a range.
                let root = |mut i: usize| {
                    while let Some(p) = plan.aliases[i] {
                        i = p.index();
                    }
                    i
                };
                if root(a) == root(b) {
                    continue;
                }
                let (sa, sb) = (size(a), size(b));
                if sa == 0 || sb == 0 {
                    continue;
                }
                let (oa, ob) = (plan.offsets[a].unwrap(), plan.offsets[b].unwrap());
                assert!(
                    oa + sa <= ob || ob + sb <= oa,
                    "buffers {a} and {b} overlap in time and space"
                );
            }
        }
    }

    #[test]
    fn runtime_sizes_account_f32_for_narrow_dtypes() {
        use pe_tensor::DType;
        let mut tg = mlp(2, |_, _| TrainKind::Full);
        // Pretend an activation is stored as f16 for accounting purposes.
        let id = tg
            .graph
            .nodes()
            .iter()
            .find(|n| !n.op.is_leaf())
            .map(|n| n.id)
            .unwrap();
        tg.graph.node_mut(id).dtype = DType::F16;
        let schedule = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
        let logical = plan_memory(&tg.graph, &schedule);
        let runtime = plan_memory_with(
            &tg.graph,
            &schedule,
            &MemPlanOptions {
                runtime_f32_sizes: true,
                ..MemPlanOptions::default()
            },
        );
        assert!(runtime.arena_bytes >= logical.arena_bytes);
        assert_eq!(runtime.arena_bytes % 4, 0);
    }

    #[test]
    fn fresh_plans_validate_and_corrupted_plans_do_not() {
        let tg = mlp(4, |_, _| TrainKind::Full);
        let schedule = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
        let opts = MemPlanOptions::for_execution();
        let plan = plan_memory_with(&tg.graph, &schedule, &opts);
        assert_eq!(validate_plan(&tg.graph, &schedule, &opts, &plan), Ok(()));

        // Truncated vectors.
        let mut bad = plan.clone();
        bad.offsets.pop();
        assert!(validate_plan(&tg.graph, &schedule, &opts, &bad).is_err());

        // An offset pushed past the arena end.
        let mut bad = plan.clone();
        let victim = (0..tg.graph.len())
            .find(|&i| plan.lifetimes[i].is_some() && plan.offsets[i].is_some())
            .unwrap();
        bad.offsets[victim] = Some(bad.arena_bytes);
        assert!(validate_plan(&tg.graph, &schedule, &opts, &bad).is_err());

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
        assert!(validate_plan(&tg.graph, &schedule, &opts, &bad).is_err());

        // Lifetimes that disagree with the schedule.
        let mut bad = plan.clone();
        let victim = (0..tg.graph.len())
            .find(|&i| bad.lifetimes[i].is_some())
            .unwrap();
        bad.lifetimes[victim] = None;
        assert!(validate_plan(&tg.graph, &schedule, &opts, &bad).is_err());
    }

    #[test]
    fn live_profile_peak_matches_plan() {
        let tg = mlp(3, |_, _| TrainKind::Full);
        let schedule = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
        let plan = plan_memory(&tg.graph, &schedule);
        let profile = plan.live_bytes_profile(&tg.graph, &schedule);
        assert_eq!(
            profile.iter().copied().max().unwrap_or(0),
            plan.peak_transient_bytes
        );
    }
}
