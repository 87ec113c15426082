//! Content-addressed compiled-program artifacts and the registry behind
//! instant cold starts.
//!
//! A [`ProgramArtifact`] captures everything a specialization needs to skip
//! compilation: the optimized training graph (stable op/dtype/role encoding
//! from [`pe_graph::encode_op`]), the schedule, the memory plan with
//! alignment/aliasing metadata, the memory/optimisation reports, and a
//! latency profile that seeds the engine's admission model so a fresh
//! worker admits correctly from the first request.
//!
//! Artifacts are **content-addressed**: the file name embeds a 64-bit FNV-1a
//! hash of (base graph structure × compile options) — see [`content_hash`] —
//! plus the batch size, so a registry lookup can never pair a
//! program with a stale or foreign artifact. Anything that
//! fails to line up (version bump, hash mismatch, truncated file, corrupted
//! plan, parameter-store disagreement) is a *registry miss*: the program
//! falls back to JIT compilation and counts the miss in
//! [`crate::CacheStats::registry_misses`] — corruption costs time, never
//! soundness.
//!
//! Serialization is the repository's hand-rolled JSON ([`pe_data::json`]),
//! honouring its constraints: no `null`s (sparse `[index, ...]` arrays
//! instead of optional fields), `f32` constants stored as `u32` bit
//! patterns, insertion-ordered objects. Encoding the same program twice
//! yields byte-identical files (all hash-map walks are sorted), which is
//! what makes a registry diffable and cacheable.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use pe_data::json::Json;
use pe_graph::{
    decode_dtype, decode_op, decode_param_role, encode_dtype, encode_op, encode_param_role,
    graph_fingerprint, Fnv1a, Graph, NodeId, ParamInit, TrainingGraph,
};
use pe_memplan::{validate_plan, MemPlanOptions, MemoryPlan, MemoryReport};
use pe_passes::{OptimizeStats, Schedule, ScheduleStrategy};
use pe_passes::{ScheduleStrategy::Conventional, ScheduleStrategy::Reordered};
use pe_runtime::{Executor, Optimizer, ParamStore};
use pe_sparse::{BlockSelector, UpdateRule};
use pe_tensor::Tensor;

use crate::program::Specialization;
use crate::{CompileOptions, ProgramAnalysis};

/// Format version stamped into (and demanded from) every artifact. Bump it
/// whenever the layout or any stable encoding changes; older files then
/// decode as registry misses instead of misbehaving programs.
pub const ARTIFACT_VERSION: u64 = 5;

/// Flops the executor is assumed to retire per microsecond when
/// deriving the default (deterministic) latency profile. The profile only
/// has to be the right order of magnitude: it arms deadline admission
/// before the first dispatch, and every real dispatch keeps blending the
/// EWMA toward the truth.
const DERIVED_FLOPS_PER_US: u64 = 4_000;

/// Deterministic latency profile for a training step of `flops` total work
/// (used when no measured profile is supplied — this is what keeps double
/// generation byte-identical).
pub fn derived_latency_us(flops: u64) -> u64 {
    (flops / DERIVED_FLOPS_PER_US).max(1)
}

/// Content hash of one (model family × compile options) pair: the address
/// under which every batch rung of the program files its artifacts.
///
/// Hashes the *structure* of the base graph (built at batch size 1 — op
/// encodings, edges, shapes, names, roles, constant bits; parameter values
/// are deliberately excluded, they live in the shared store) plus every
/// compile option that changes the generated program: the update rule, the
/// optimizer and its hyper-parameters, the optimisation flags and the
/// schedule strategy. One address serves every rung: the file name carries
/// the batch.
pub fn content_hash(base_graph: &Graph, options: &CompileOptions) -> u64 {
    let mut h = Fnv1a::new();
    h.update_str("pe-artifact-v1");
    h.update(&graph_fingerprint(base_graph).to_le_bytes());
    hash_update_rule(&mut h, &options.update_rule);
    hash_optimizer(&mut h, options.optimizer);
    h.update(&[
        u8::from(options.optimize.fusion == pe_passes::FusionLevel::Regions),
        u8::from(options.optimize.dce),
        u8::from(options.optimize.reorder_updates),
    ]);
    h.update_str(strategy_name(options.schedule));
    h.finish()
}

fn hash_update_rule(h: &mut Fnv1a, rule: &UpdateRule) {
    match rule {
        UpdateRule::Full => h.update_str("full"),
        UpdateRule::BiasOnly => h.update_str("bias-only"),
        UpdateRule::LastLayerOnly => h.update_str("last-layer"),
        UpdateRule::Sparse(s) => {
            h.update_str("sparse");
            h.update_str(&s.name);
            h.update(&(s.bias_last_blocks as u64).to_le_bytes());
            h.update(&[u8::from(s.train_head), u8::from(s.train_norm)]);
            for wr in &s.weight_rules {
                h.update_str(&wr.pattern);
                match &wr.blocks {
                    BlockSelector::All => h.update_str("all"),
                    BlockSelector::LastK(k) => {
                        h.update_str("last-k");
                        h.update(&(*k as u64).to_le_bytes());
                    }
                    BlockSelector::Indices(v) => {
                        h.update_str("indices");
                        for i in v {
                            h.update(&(*i as u64).to_le_bytes());
                        }
                    }
                }
                h.update(&wr.channel_ratio.to_bits().to_le_bytes());
            }
        }
    }
}

fn hash_optimizer(h: &mut Fnv1a, optimizer: Optimizer) {
    match optimizer {
        Optimizer::Sgd { lr } => {
            h.update_str("sgd");
            h.update(&lr.to_bits().to_le_bytes());
        }
        Optimizer::Momentum { lr, momentum } => {
            h.update_str("momentum");
            h.update(&lr.to_bits().to_le_bytes());
            h.update(&momentum.to_bits().to_le_bytes());
        }
        Optimizer::Adam {
            lr,
            beta1,
            beta2,
            eps,
        } => {
            h.update_str("adam");
            for v in [lr, beta1, beta2, eps] {
                h.update(&v.to_bits().to_le_bytes());
            }
        }
        Optimizer::Lion { lr, beta1, beta2 } => {
            h.update_str("lion");
            for v in [lr, beta1, beta2] {
                h.update(&v.to_bits().to_le_bytes());
            }
        }
    }
}

fn strategy_name(strategy: ScheduleStrategy) -> &'static str {
    match strategy {
        Conventional => "conventional",
        Reordered => "reordered",
    }
}

fn parse_strategy(text: &str) -> Result<ScheduleStrategy, String> {
    match text {
        "conventional" => Ok(Conventional),
        "reordered" => Ok(Reordered),
        other => Err(format!("unknown schedule strategy '{other}'")),
    }
}

/// One serialized specialization: everything
/// [`crate::Program::specialize`] would otherwise compile for a batch
/// rung, ready to be executed or written to an
/// [`ArtifactRegistry`]. See the module docs for the format contract.
#[derive(Debug, Clone)]
pub struct ProgramArtifact {
    /// The content address shared by every rung of the producing program
    /// (see [`content_hash`]).
    pub content_hash: u64,
    /// The batch size baked into the graph.
    pub batch: usize,
    /// Human-readable model family name.
    pub model_name: String,
    /// Name of the feature input node.
    pub feature_input: String,
    /// Name of the label input node.
    pub label_input: String,
    /// The compiled analysis: optimized training graph (parameters decode
    /// as [`ParamInit::Deferred`] — values always come from the consuming
    /// program's store), schedule, optimisation stats, memory report.
    pub analysis: ProgramAnalysis,
    /// The memory plan (offsets, lifetimes, aliases) the executor replays
    /// instead of re-planning.
    pub plan: MemoryPlan,
    /// Latency profile in microseconds, seeded into the engine's admission
    /// model on load.
    pub latency_us: u64,
}

impl ProgramArtifact {
    /// The canonical file name for this artifact:
    /// `{hash:016x}-b{batch}.json`.
    pub fn file_name(&self) -> String {
        artifact_file_name(self.content_hash, self.batch)
    }

    /// The latency profile as a [`Duration`].
    pub fn latency_profile(&self) -> Duration {
        Duration::from_micros(self.latency_us)
    }

    /// Serializes to the canonical JSON document (deterministic: encoding
    /// the same program twice yields byte-identical text).
    pub fn to_json(&self) -> Json {
        let tg = &self.analysis.training_graph;
        let graph = &tg.graph;
        let nodes: Vec<Json> = graph
            .nodes()
            .iter()
            .map(|n| {
                Json::Arr(vec![
                    Json::Str(encode_op(&n.op)),
                    ids(&n.inputs),
                    Json::Arr(
                        n.shape
                            .dims()
                            .iter()
                            .map(|&d| Json::Int(d as u64))
                            .collect(),
                    ),
                    Json::Str(encode_dtype(n.dtype).to_string()),
                    Json::Str(n.name.clone()),
                ])
            })
            .collect();
        let mut params: Vec<(NodeId, &'static str)> = graph
            .params()
            .iter()
            .map(|(&id, info)| (id, encode_param_role(info.role)))
            .collect();
        params.sort();
        let mut constants: Vec<(NodeId, &Tensor)> =
            graph.constants().iter().map(|(&id, t)| (id, t)).collect();
        constants.sort_by_key(|(id, _)| *id);
        let mut grads: Vec<(NodeId, NodeId)> =
            tg.param_grads.iter().map(|(&p, &g)| (p, g)).collect();
        grads.sort();
        let stats = &self.analysis.stats;
        let dce = stats.dce.as_ref().map_or_else(Vec::new, |d| {
            vec![
                Json::Int(d.nodes_before as u64),
                Json::Int(d.nodes_after as u64),
            ]
        });
        Json::obj(vec![
            ("version", Json::Int(ARTIFACT_VERSION)),
            ("content_hash", Json::Int(self.content_hash)),
            ("batch", Json::Int(self.batch as u64)),
            ("model", Json::Str(self.model_name.clone())),
            ("feature_input", Json::Str(self.feature_input.clone())),
            ("label_input", Json::Str(self.label_input.clone())),
            ("logits_name", Json::Str(self.analysis.logits_name.clone())),
            (
                "graph",
                Json::obj(vec![
                    ("nodes", Json::Arr(nodes)),
                    ("inputs", ids(graph.inputs())),
                    ("outputs", ids(graph.outputs())),
                    (
                        "params",
                        Json::Arr(
                            params
                                .into_iter()
                                .map(|(id, role)| {
                                    Json::Arr(vec![
                                        Json::Int(id.index() as u64),
                                        Json::Str(role.to_string()),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "constants",
                        Json::Arr(
                            constants
                                .into_iter()
                                .map(|(id, t)| {
                                    Json::Arr(vec![
                                        Json::Int(id.index() as u64),
                                        Json::Arr(
                                            t.data()
                                                .iter()
                                                .map(|v| Json::Int(u64::from(v.to_bits())))
                                                .collect(),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "training",
                Json::obj(vec![
                    ("loss", Json::Int(tg.loss.index() as u64)),
                    (
                        "param_grads",
                        Json::Arr(
                            grads
                                .into_iter()
                                .map(|(p, g)| {
                                    Json::Arr(vec![
                                        Json::Int(p.index() as u64),
                                        Json::Int(g.index() as u64),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("updates", ids(&tg.updates)),
                ]),
            ),
            (
                "schedule",
                Json::obj(vec![
                    ("order", ids(&self.analysis.schedule.order)),
                    (
                        "strategy",
                        Json::Str(strategy_name(self.analysis.schedule.strategy).to_string()),
                    ),
                ]),
            ),
            (
                "plan",
                Json::obj(vec![
                    (
                        "lifetimes",
                        sparse(&self.plan.lifetimes, |&(start, end)| {
                            vec![Json::Int(start as u64), Json::Int(end as u64)]
                        }),
                    ),
                    (
                        "offsets",
                        sparse(&self.plan.offsets, |&off| vec![Json::Int(off as u64)]),
                    ),
                    (
                        "aliases",
                        sparse(&self.plan.aliases, |tgt: &NodeId| {
                            vec![Json::Int(tgt.index() as u64)]
                        }),
                    ),
                    ("arena_bytes", Json::Int(self.plan.arena_bytes as u64)),
                    (
                        "peak_transient_bytes",
                        Json::Int(self.plan.peak_transient_bytes as u64),
                    ),
                ]),
            ),
            (
                "memory",
                Json::obj(vec![
                    (
                        "params_bytes",
                        Json::Int(self.analysis.memory.params_bytes as u64),
                    ),
                    (
                        "optimizer_bytes",
                        Json::Int(self.analysis.memory.optimizer_bytes as u64),
                    ),
                    (
                        "input_bytes",
                        Json::Int(self.analysis.memory.input_bytes as u64),
                    ),
                    (
                        "transient_peak_bytes",
                        Json::Int(self.analysis.memory.transient_peak_bytes as u64),
                    ),
                    (
                        "arena_bytes",
                        Json::Int(self.analysis.memory.arena_bytes as u64),
                    ),
                ]),
            ),
            (
                "stats",
                Json::obj(vec![
                    ("regions", Json::Int(stats.fusion.regions as u64)),
                    ("region_ops", Json::Int(stats.fusion.region_ops as u64)),
                    ("dce", Json::Arr(dce)),
                    ("launches_before", Json::Int(stats.launches_before as u64)),
                    ("launches_after", Json::Int(stats.launches_after as u64)),
                ]),
            ),
            (
                "trainable_elements",
                Json::Int(self.analysis.trainable_elements as u64),
            ),
            ("latency_us", Json::Int(self.latency_us)),
        ])
    }

    /// Renders the artifact to its canonical on-disk text (one trailing
    /// newline).
    pub fn render(&self) -> String {
        self.to_json().render() + "\n"
    }

    /// Decodes an artifact from its on-disk text.
    ///
    /// The version gate runs first: a document from a different format
    /// version is rejected before anything else is interpreted.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first structural problem
    /// (syntax error, version mismatch, malformed op encoding, inconsistent
    /// graph, non-topological schedule).
    pub fn decode(text: &str) -> Result<ProgramArtifact, String> {
        let json = Json::parse(text)?;
        let version = int(field(&json, "version")?)?;
        if version != ARTIFACT_VERSION {
            return Err(format!(
                "artifact version {version} != supported {ARTIFACT_VERSION}"
            ));
        }
        let content_hash = int(field(&json, "content_hash")?)?;
        let batch = usize_of(field(&json, "batch")?)?;

        // --- graph ---
        let gj = field(&json, "graph")?;
        let mut graph = Graph::new();
        for (i, nj) in arr(field(gj, "nodes")?)?.iter().enumerate() {
            let parts = nj
                .as_arr()
                .ok_or_else(|| format!("node {i}: not an array"))?;
            if parts.len() != 5 {
                return Err(format!("node {i}: expected 5 fields, got {}", parts.len()));
            }
            let op = decode_op(str_of(&parts[0])?)?;
            let inputs = node_ids(&parts[1], graph.len())?;
            let dims: Vec<usize> = arr(&parts[2])?
                .iter()
                .map(usize_of)
                .collect::<Result<_, _>>()?;
            let dtype = decode_dtype(str_of(&parts[3])?)?;
            let name = str_of(&parts[4])?.to_string();
            graph.push_node(op, inputs, dims.into(), dtype, name);
        }
        let n = graph.len();
        for id in node_ids(field(gj, "inputs")?, n)? {
            graph.mark_input(id);
        }
        for pj in arr(field(gj, "params")?)? {
            let pair = pj.as_arr().ok_or("param entry: not an array")?;
            if pair.len() != 2 {
                return Err("param entry: expected [id, role]".to_string());
            }
            let id = node_id(&pair[0], n)?;
            let role = decode_param_role(str_of(&pair[1])?)?;
            // Parameter *values* are never serialized: the consuming
            // program resolves them from its shared store by canonical
            // name, so a decoded graph must never be the source of a store.
            graph.mark_param(id, role, ParamInit::Deferred);
        }
        for cj in arr(field(gj, "constants")?)? {
            let pair = cj.as_arr().ok_or("constant entry: not an array")?;
            if pair.len() != 2 {
                return Err("constant entry: expected [id, bits]".to_string());
            }
            let id = node_id(&pair[0], n)?;
            let bits: Vec<f32> = arr(&pair[1])?
                .iter()
                .map(|b| {
                    let v = int(b)?;
                    u32::try_from(v)
                        .map(f32::from_bits)
                        .map_err(|_| format!("constant bits {v} exceed u32"))
                })
                .collect::<Result<_, _>>()?;
            let shape = graph.node(id).shape.clone();
            if bits.len() != shape.numel() {
                return Err(format!(
                    "constant {id:?}: {} values for a {} element shape",
                    bits.len(),
                    shape.numel()
                ));
            }
            graph.mark_constant(id, Tensor::from_vec(bits, shape));
        }
        graph.set_outputs(node_ids(field(gj, "outputs")?, n)?);
        let problems = graph.validate();
        if !problems.is_empty() {
            return Err(format!("decoded graph invalid: {}", problems.join("; ")));
        }

        // --- training extension ---
        let tj = field(&json, "training")?;
        let loss = node_id(field(tj, "loss")?, n)?;
        let mut param_grads = std::collections::HashMap::new();
        for pg in arr(field(tj, "param_grads")?)? {
            let pair = pg.as_arr().ok_or("param_grads entry: not an array")?;
            if pair.len() != 2 {
                return Err("param_grads entry: expected [param, grad]".to_string());
            }
            param_grads.insert(node_id(&pair[0], n)?, node_id(&pair[1], n)?);
        }
        let updates = node_ids(field(tj, "updates")?, n)?;
        let training_graph = TrainingGraph {
            graph,
            loss,
            param_grads,
            updates,
        };

        // --- schedule ---
        let sj = field(&json, "schedule")?;
        let order = node_ids(field(sj, "order")?, n)?;
        let strategy = parse_strategy(str_of(field(sj, "strategy")?)?)?;
        validate_schedule(&training_graph.graph, &order)?;
        let schedule = Schedule { order, strategy };

        // --- memory plan ---
        let pj = field(&json, "plan")?;
        let mut lifetimes = vec![None; n];
        for (idx, vals) in sparse_entries(field(pj, "lifetimes")?, n, 2)? {
            lifetimes[idx] = Some((usize_of(&vals[0])?, usize_of(&vals[1])?));
        }
        let mut offsets = vec![None; n];
        for (idx, vals) in sparse_entries(field(pj, "offsets")?, n, 1)? {
            offsets[idx] = Some(usize_of(&vals[0])?);
        }
        let mut aliases = vec![None; n];
        for (idx, vals) in sparse_entries(field(pj, "aliases")?, n, 1)? {
            aliases[idx] = Some(node_id(&vals[0], n)?);
        }
        let plan = MemoryPlan {
            lifetimes,
            offsets,
            aliases,
            arena_bytes: usize_of(field(pj, "arena_bytes")?)?,
            peak_transient_bytes: usize_of(field(pj, "peak_transient_bytes")?)?,
        };

        // --- reports ---
        let mj = field(&json, "memory")?;
        let memory = MemoryReport {
            params_bytes: usize_of(field(mj, "params_bytes")?)?,
            optimizer_bytes: usize_of(field(mj, "optimizer_bytes")?)?,
            input_bytes: usize_of(field(mj, "input_bytes")?)?,
            transient_peak_bytes: usize_of(field(mj, "transient_peak_bytes")?)?,
            arena_bytes: usize_of(field(mj, "arena_bytes")?)?,
        };
        let oj = field(&json, "stats")?;
        let dce_arr = arr(field(oj, "dce")?)?;
        let dce = match dce_arr.len() {
            0 => None,
            2 => Some(pe_passes::DceStats {
                nodes_before: usize_of(&dce_arr[0])?,
                nodes_after: usize_of(&dce_arr[1])?,
            }),
            other => return Err(format!("stats.dce: expected 0 or 2 entries, got {other}")),
        };
        let stats = OptimizeStats {
            fusion: pe_passes::FusionStats {
                regions: usize_of(field(oj, "regions")?)?,
                region_ops: usize_of(field(oj, "region_ops")?)?,
            },
            dce,
            launches_before: usize_of(field(oj, "launches_before")?)?,
            launches_after: usize_of(field(oj, "launches_after")?)?,
        };

        Ok(ProgramArtifact {
            content_hash,
            batch,
            model_name: str_of(field(&json, "model")?)?.to_string(),
            feature_input: str_of(field(&json, "feature_input")?)?.to_string(),
            label_input: str_of(field(&json, "label_input")?)?.to_string(),
            analysis: ProgramAnalysis {
                training_graph,
                schedule,
                stats,
                memory,
                trainable_elements: usize_of(field(&json, "trainable_elements")?)?,
                logits_name: str_of(field(&json, "logits_name")?)?.to_string(),
            },
            plan,
            latency_us: int(field(&json, "latency_us")?)?,
        })
    }

    /// Converts the artifact into a ready-to-run [`Specialization`] borrowing
    /// `store`, validating everything a JIT compile would have established:
    /// every parameter resolves in the store at its declared shape, and the
    /// embedded memory plan passes [`pe_memplan::validate_plan`] under the
    /// exact options the executor would replan with.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch; callers treat any error
    /// as a registry miss and fall back to JIT compilation.
    pub fn into_specialization(self, store: Arc<ParamStore>) -> Result<Specialization, String> {
        let graph = &self.analysis.training_graph.graph;
        for (id, key) in graph.param_keys() {
            let Some(value) = store.get(&key) else {
                return Err(format!("parameter '{key}' missing from the store"));
            };
            if value.dims() != graph.node(id).shape.dims() {
                return Err(format!(
                    "parameter '{key}': store shape {:?} != artifact shape {:?}",
                    value.dims(),
                    graph.node(id).shape.dims()
                ));
            }
        }
        // The options the executor plans with, so a plan accepted here is
        // never silently replanned by the executor.
        let opts = MemPlanOptions::for_execution();
        validate_plan(graph, &self.analysis.schedule, &opts, &self.plan)?;
        let latency = self.latency_profile();
        let executor = Executor::with_store_and_plan(
            self.analysis.training_graph.clone(),
            self.analysis.schedule.clone(),
            store,
            Some(self.plan),
        );
        Ok(Specialization {
            batch: self.batch,
            analysis: self.analysis,
            executor,
            latency_profile: Some(latency),
            fork_seed: None,
        })
    }
}

/// The canonical artifact file name for a (hash, batch) rung.
pub fn artifact_file_name(hash: u64, batch: usize) -> String {
    format!("{hash:016x}-b{batch}.json")
}

/// Rejects schedules that are not a topological permutation of the graph —
/// the one property the executors assume instead of checking.
fn validate_schedule(graph: &Graph, order: &[NodeId]) -> Result<(), String> {
    let n = graph.len();
    if order.len() != n {
        return Err(format!("schedule covers {} of {n} nodes", order.len()));
    }
    let mut pos = vec![usize::MAX; n];
    for (i, id) in order.iter().enumerate() {
        if pos[id.index()] != usize::MAX {
            return Err(format!("schedule lists {id:?} twice"));
        }
        pos[id.index()] = i;
    }
    for node in graph.nodes() {
        for input in &node.inputs {
            if pos[input.index()] >= pos[node.id.index()] {
                return Err(format!(
                    "schedule is not topological: {input:?} not before {:?}",
                    node.id
                ));
            }
        }
    }
    Ok(())
}

// --- JSON helpers (decode side) -------------------------------------------

fn field<'a>(json: &'a Json, key: &str) -> Result<&'a Json, String> {
    json.get(key)
        .ok_or_else(|| format!("missing field '{key}'"))
}

fn int(json: &Json) -> Result<u64, String> {
    match json {
        Json::Int(v) => Ok(*v),
        other => Err(format!("expected an integer, found {other:?}")),
    }
}

fn usize_of(json: &Json) -> Result<usize, String> {
    usize::try_from(int(json)?).map_err(|e| e.to_string())
}

fn str_of(json: &Json) -> Result<&str, String> {
    json.as_str()
        .ok_or_else(|| format!("expected a string, found {json:?}"))
}

fn arr(json: &Json) -> Result<&[Json], String> {
    json.as_arr()
        .ok_or_else(|| format!("expected an array, found {json:?}"))
}

fn node_id(json: &Json, len: usize) -> Result<NodeId, String> {
    let idx = usize_of(json)?;
    if idx >= len {
        return Err(format!("node id {idx} out of range (graph has {len})"));
    }
    Ok(NodeId(idx))
}

fn node_ids(json: &Json, len: usize) -> Result<Vec<NodeId>, String> {
    arr(json)?.iter().map(|j| node_id(j, len)).collect()
}

/// Encodes a `Vec<Option<T>>` as a sparse `[[index, ...fields], ...]` array
/// (the no-`null` discipline of [`pe_data::json`]).
fn sparse<T>(values: &[Option<T>], encode: impl Fn(&T) -> Vec<Json>) -> Json {
    Json::Arr(
        values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (i, v)))
            .map(|(i, v)| {
                let mut entry = vec![Json::Int(i as u64)];
                entry.extend(encode(v));
                Json::Arr(entry)
            })
            .collect(),
    )
}

/// Decodes a sparse array back into (index, fields) pairs, checking bounds
/// and arity.
fn sparse_entries(json: &Json, len: usize, fields: usize) -> Result<Vec<(usize, &[Json])>, String> {
    arr(json)?
        .iter()
        .map(|entry| {
            let parts = arr(entry)?;
            if parts.len() != fields + 1 {
                return Err(format!(
                    "sparse entry: expected {} fields, got {}",
                    fields + 1,
                    parts.len()
                ));
            }
            let idx = usize_of(&parts[0])?;
            if idx >= len {
                return Err(format!("sparse index {idx} out of range ({len})"));
            }
            Ok((idx, &parts[1..]))
        })
        .collect()
}

fn ids(ids: &[NodeId]) -> Json {
    Json::Arr(ids.iter().map(|id| Json::Int(id.index() as u64)).collect())
}

/// A directory of [`ProgramArtifact`]s addressed by content hash and rung.
///
/// Point one at a directory populated by the `program-gen` tool (or by
/// [`crate::Program::export_artifacts`]); programs consult it before JIT
/// compiling. Configure it per engine via `EngineConfig::registry`, per
/// program via [`crate::Program::attach_registry`], or process-wide through
/// the `PE_PROGRAM_REGISTRY` environment variable (read once per
/// [`crate::Compiler::compile`]).
#[derive(Debug, Clone)]
pub struct ArtifactRegistry {
    dir: PathBuf,
}

impl ArtifactRegistry {
    /// A registry rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ArtifactRegistry { dir: dir.into() }
    }

    /// The registry named by the `PE_PROGRAM_REGISTRY` environment
    /// variable, if set and non-empty.
    pub fn from_env() -> Option<Self> {
        match std::env::var("PE_PROGRAM_REGISTRY") {
            Ok(dir) if !dir.is_empty() => Some(ArtifactRegistry::new(dir)),
            _ => None,
        }
    }

    /// The registry's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path an artifact for this rung would live at.
    pub fn path_for(&self, hash: u64, batch: usize) -> PathBuf {
        self.dir.join(artifact_file_name(hash, batch))
    }

    /// Writes an artifact into the registry (creating the directory if
    /// needed) and returns its path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn store(&self, artifact: &ProgramArtifact) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(artifact.file_name());
        std::fs::write(&path, artifact.render())?;
        Ok(path)
    }

    /// Loads and fully validates the artifact for a rung: the file must
    /// exist, parse, carry the supported [`ARTIFACT_VERSION`], and agree
    /// with the requested content hash and batch.
    ///
    /// # Errors
    ///
    /// Returns the miss reason (absent file, corruption, version or hash
    /// mismatch); callers fall back to JIT compilation.
    pub fn load(&self, hash: u64, batch: usize) -> Result<ProgramArtifact, String> {
        let path = self.path_for(hash, batch);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let artifact = ProgramArtifact::decode(&text)?;
        if artifact.content_hash != hash {
            return Err(format!(
                "content hash {:016x} != requested {hash:016x}",
                artifact.content_hash
            ));
        }
        if artifact.batch != batch {
            return Err(format!(
                "artifact rung b{} != requested b{batch}",
                artifact.batch
            ));
        }
        Ok(artifact)
    }
}
