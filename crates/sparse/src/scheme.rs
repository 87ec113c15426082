//! Sparse backpropagation update schemes.
//!
//! An [`UpdateRule`] describes *which* parameters train and at what channel
//! granularity, in the vocabulary the paper uses: bias-only updates,
//! layer-sparse updates ("the last k blocks"), and sub-layer channel-sparse
//! updates ("50% of the weights of the first convolution"). Applying a rule
//! to a model yields the per-parameter [`TrainSpec`] consumed by the
//! compile-time autodiff.

use pe_graph::{NodeId, ParamRole, TrainKind, TrainSpec};
use pe_models::BuiltModel;

/// Which blocks a weight rule applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockSelector {
    /// Every block.
    All,
    /// The last `k` blocks (closest to the output).
    LastK(usize),
    /// An explicit list of block indices.
    Indices(Vec<usize>),
}

impl BlockSelector {
    /// Whether the selector matches block `idx` in a model with
    /// `num_blocks` blocks.
    pub(crate) fn matches(&self, idx: usize, num_blocks: usize) -> bool {
        match self {
            BlockSelector::All => true,
            BlockSelector::LastK(k) => idx + k >= num_blocks,
            BlockSelector::Indices(v) => v.contains(&idx),
        }
    }
}

/// A rule selecting weight tensors inside blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightRule {
    /// Substring of the parameter name inside the block, e.g. `"conv1"`,
    /// `"attn."`, or `"ffn.fc1"`.
    pub(crate) pattern: String,
    /// Which blocks the rule covers.
    pub(crate) blocks: BlockSelector,
    /// Fraction of output channels updated (1.0 = the full tensor).
    pub(crate) channel_ratio: f32,
}

impl WeightRule {
    /// Creates a rule updating the full tensors matching `pattern` in the
    /// selected blocks.
    pub fn full(pattern: &str, blocks: BlockSelector) -> Self {
        WeightRule {
            pattern: pattern.to_string(),
            blocks,
            channel_ratio: 1.0,
        }
    }

    /// Creates a rule updating a fraction of output channels.
    pub fn partial(pattern: &str, blocks: BlockSelector, channel_ratio: f32) -> Self {
        WeightRule {
            pattern: pattern.to_string(),
            blocks,
            channel_ratio,
        }
    }
}

/// A named sparse backpropagation scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseScheme {
    /// Scheme name used in reports.
    pub name: String,
    /// Update the biases of the last `bias_last_blocks` blocks.
    pub bias_last_blocks: usize,
    /// Weight selection rules.
    pub weight_rules: Vec<WeightRule>,
    /// Always train the classification / language-model head.
    pub train_head: bool,
    /// Train normalisation parameters inside the selected blocks.
    pub train_norm: bool,
}

/// Which parameters participate in backpropagation.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateRule {
    /// Conventional full backpropagation.
    Full,
    /// Update bias terms (and the head) only; every weight stays frozen.
    BiasOnly,
    /// Update only the classifier / LM head.
    LastLayerOnly,
    /// A paper-style sparse scheme.
    Sparse(SparseScheme),
}

/// Extracts the block index from a parameter name of the form
/// `blocks.{i}.rest`.
pub(crate) fn block_index(name: &str) -> Option<usize> {
    let rest = name.strip_prefix("blocks.")?;
    let (idx, _) = rest.split_once('.')?;
    idx.parse().ok()
}

/// Resolves an [`UpdateRule`] into a per-parameter [`TrainSpec`] for a model.
pub fn apply_rule(model: &BuiltModel, rule: &UpdateRule) -> TrainSpec {
    let mut spec = TrainSpec::new();
    for (id, name) in model.named_params() {
        let kind = decide(model, rule, id, &name);
        spec.insert(id, kind);
    }
    spec
}

fn decide(model: &BuiltModel, rule: &UpdateRule, id: NodeId, name: &str) -> TrainKind {
    let role = model.graph.params()[&id].role;
    // "Head" means the task-specific classifier / LM head, which every scheme
    // (including bias-only) trains; backbone head convolutions and poolers
    // are treated like any other layer.
    let is_head = name.starts_with("head.fc")
        || name.starts_with("head.classifier")
        || name.starts_with("lm_head");
    match rule {
        UpdateRule::Full => TrainKind::Full,
        UpdateRule::BiasOnly => {
            if matches!(role, ParamRole::Bias) || is_head {
                TrainKind::Full
            } else {
                TrainKind::Frozen
            }
        }
        UpdateRule::LastLayerOnly => {
            if is_head {
                TrainKind::Full
            } else {
                TrainKind::Frozen
            }
        }
        UpdateRule::Sparse(s) => {
            if is_head {
                return if s.train_head {
                    TrainKind::Full
                } else {
                    TrainKind::Frozen
                };
            }
            let Some(block) = block_index(name) else {
                // Stem, embeddings and other non-block parameters stay frozen
                // under sparse schemes.
                return TrainKind::Frozen;
            };
            match role {
                ParamRole::Bias => {
                    if block + s.bias_last_blocks >= model.num_blocks {
                        TrainKind::Full
                    } else {
                        TrainKind::Frozen
                    }
                }
                ParamRole::NormScale | ParamRole::NormBias => {
                    if s.train_norm && block + s.bias_last_blocks >= model.num_blocks {
                        TrainKind::Full
                    } else {
                        TrainKind::Frozen
                    }
                }
                ParamRole::Weight | ParamRole::Embedding => {
                    for wr in &s.weight_rules {
                        if name.contains(&wr.pattern) && wr.blocks.matches(block, model.num_blocks)
                        {
                            if wr.channel_ratio >= 1.0 {
                                return TrainKind::Full;
                            }
                            let out_channels = model.graph.node(id).shape.dims()[0];
                            let k = ((out_channels as f32 * wr.channel_ratio).ceil() as usize)
                                .clamp(1, out_channels);
                            return TrainKind::Channels(k);
                        }
                    }
                    TrainKind::Frozen
                }
            }
        }
    }
}

/// Counts how many parameter *elements* a spec trains (channel-sparse
/// parameters count only their updated rows).
pub fn trainable_elements(model: &BuiltModel, spec: &TrainSpec) -> usize {
    model
        .named_params()
        .iter()
        .map(|(id, _)| {
            let dims = model.graph.node(*id).shape.dims().to_vec();
            let all: usize = dims.iter().product();
            match spec.get(id).copied().unwrap_or(TrainKind::Full) {
                TrainKind::Full => all,
                TrainKind::Frozen => 0,
                TrainKind::Channels(k) => k * dims[1..].iter().product::<usize>().max(1),
            }
        })
        .sum()
}

// ---------------------------------------------------------------------------
// Paper schemes (§4.1, "Sparse-BP Schemes for Fine-tuning")
// ---------------------------------------------------------------------------

/// MCUNet scheme: biases of the last 7 blocks; the first point-wise
/// convolution of four intermediate blocks with channel ratios
/// {100%, 100%, 50%, 100%}.
pub fn paper_scheme_mcunet(num_blocks: usize) -> SparseScheme {
    // The four "intermediate" blocks sit just below the last 7.
    let base = num_blocks.saturating_sub(7);
    let picks = [
        (base.saturating_sub(4), 1.0),
        (base.saturating_sub(3), 1.0),
        (base.saturating_sub(2), 0.5),
        (base.saturating_sub(1), 1.0),
    ];
    SparseScheme {
        name: "mcunet".to_string(),
        bias_last_blocks: 7,
        weight_rules: picks
            .iter()
            .map(|&(idx, ratio)| {
                WeightRule::partial("conv1", BlockSelector::Indices(vec![idx]), ratio)
            })
            .collect(),
        train_head: true,
        train_norm: false,
    }
}

/// MobileNetV2 scheme: biases and the first point-wise convolution of the
/// last 7 blocks.
pub fn paper_scheme_mobilenetv2() -> SparseScheme {
    SparseScheme {
        name: "mobilenetv2".to_string(),
        bias_last_blocks: 7,
        weight_rules: vec![WeightRule::full("conv1", BlockSelector::LastK(7))],
        train_head: true,
        train_norm: false,
    }
}

/// ResNet-50 scheme: biases and the first 1x1 convolution of the last 8
/// blocks.
pub fn paper_scheme_resnet50() -> SparseScheme {
    SparseScheme {
        name: "resnet50".to_string(),
        bias_last_blocks: 8,
        weight_rules: vec![WeightRule::full("conv1", BlockSelector::LastK(8))],
        train_head: true,
        train_norm: false,
    }
}

/// BERT scheme: biases of the last 6 blocks; attention weights and the first
/// FFN linear of the last 4 blocks.
pub fn paper_scheme_bert() -> SparseScheme {
    SparseScheme {
        name: "bert".to_string(),
        bias_last_blocks: 6,
        weight_rules: vec![
            WeightRule::full("attn.", BlockSelector::LastK(4)),
            WeightRule::full("ffn.fc1", BlockSelector::LastK(4)),
        ],
        train_head: true,
        train_norm: false,
    }
}

/// DistilBERT scheme: biases of the last 3 blocks; attention weights and the
/// first FFN linear of the last 2 blocks.
pub fn paper_scheme_distilbert() -> SparseScheme {
    SparseScheme {
        name: "distilbert".to_string(),
        bias_last_blocks: 3,
        weight_rules: vec![
            WeightRule::full("attn.", BlockSelector::LastK(2)),
            WeightRule::full("ffn.fc1", BlockSelector::LastK(2)),
        ],
        train_head: true,
        train_norm: false,
    }
}

/// Llama scheme: the attention module and the first (gate) FFN linear of the
/// last 5 blocks; layer norms stay frozen (§5, "Fine-tuning").
pub fn paper_scheme_llama() -> SparseScheme {
    SparseScheme {
        name: "llama".to_string(),
        bias_last_blocks: 5,
        weight_rules: vec![
            WeightRule::full("attn.", BlockSelector::LastK(5)),
            WeightRule::full("ffn.gate", BlockSelector::LastK(5)),
        ],
        train_head: true,
        train_norm: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_models::{build_bert, build_mobilenet, BertConfig, MobileNetV2Config};
    use pe_tensor::Rng;

    #[test]
    fn block_index_parsing() {
        assert_eq!(block_index("blocks.7.conv1.weight"), Some(7));
        assert_eq!(block_index("blocks.12.attn.q.weight"), Some(12));
        assert_eq!(block_index("stem.conv.weight"), None);
        assert_eq!(block_index("head.fc.bias"), None);
    }

    #[test]
    fn block_selector_semantics() {
        assert!(BlockSelector::All.matches(0, 10));
        assert!(BlockSelector::LastK(3).matches(9, 10));
        assert!(BlockSelector::LastK(3).matches(7, 10));
        assert!(!BlockSelector::LastK(3).matches(6, 10));
        assert!(BlockSelector::Indices(vec![2, 5]).matches(5, 10));
        assert!(!BlockSelector::Indices(vec![2, 5]).matches(4, 10));
    }

    #[test]
    fn full_and_bias_only_rules() {
        let mut rng = Rng::seed_from_u64(0);
        let model = build_mobilenet(&MobileNetV2Config::tiny(1, 4), &mut rng);
        let full = apply_rule(&model, &UpdateRule::Full);
        assert!(full.values().all(|k| *k == TrainKind::Full));

        let bias_only = apply_rule(&model, &UpdateRule::BiasOnly);
        let frozen_weights = model
            .named_params()
            .iter()
            .filter(|(id, n)| {
                n.contains("conv") && n.ends_with("weight") && bias_only[id] == TrainKind::Frozen
            })
            .count();
        assert!(frozen_weights > 0);
        assert!(trainable_elements(&model, &bias_only) < trainable_elements(&model, &full));
    }

    #[test]
    fn mobilenet_scheme_selects_first_conv_of_last_blocks() {
        let mut rng = Rng::seed_from_u64(0);
        let model = build_mobilenet(&MobileNetV2Config::tiny(1, 4), &mut rng);
        // tiny has 4 blocks; use a last-2 variant of the paper scheme.
        let scheme = SparseScheme {
            bias_last_blocks: 2,
            weight_rules: vec![WeightRule::full("conv1", BlockSelector::LastK(2))],
            ..paper_scheme_mobilenetv2()
        };
        let spec = apply_rule(&model, &UpdateRule::Sparse(scheme));
        let g = &model.graph;
        let check = |name: &str| spec[&g.find_param(name).unwrap()];
        assert_eq!(check("blocks.3.conv1.weight"), TrainKind::Full);
        assert_eq!(check("blocks.3.conv2.weight"), TrainKind::Frozen);
        assert_eq!(check("blocks.0.conv1.weight"), TrainKind::Frozen);
        assert_eq!(check("blocks.3.conv1.bias"), TrainKind::Full);
        assert_eq!(check("blocks.0.conv1.bias"), TrainKind::Frozen);
        assert_eq!(check("head.fc.weight"), TrainKind::Full);
        assert_eq!(check("stem.conv.weight"), TrainKind::Frozen);
    }

    #[test]
    fn channel_ratio_yields_channel_sparse_kind() {
        let mut rng = Rng::seed_from_u64(0);
        let model = build_mobilenet(&MobileNetV2Config::tiny(1, 4), &mut rng);
        let scheme = SparseScheme {
            name: "half".to_string(),
            bias_last_blocks: 0,
            weight_rules: vec![WeightRule::partial(
                "conv1",
                BlockSelector::Indices(vec![1]),
                0.5,
            )],
            train_head: false,
            train_norm: false,
        };
        let spec = apply_rule(&model, &UpdateRule::Sparse(scheme));
        let id = model.graph.find_param("blocks.1.conv1.weight").unwrap();
        let out_channels = model.graph.node(id).shape.dims()[0];
        assert_eq!(spec[&id], TrainKind::Channels(out_channels.div_ceil(2)));
    }

    #[test]
    fn bert_scheme_trains_attention_and_first_ffn_linear_only() {
        let mut rng = Rng::seed_from_u64(0);
        let model = build_bert(&BertConfig::tiny(1, 2), &mut rng);
        // tiny has 2 blocks; shrink the paper scheme proportionally.
        let scheme = SparseScheme {
            bias_last_blocks: 1,
            weight_rules: vec![
                WeightRule::full("attn.", BlockSelector::LastK(1)),
                WeightRule::full("ffn.fc1", BlockSelector::LastK(1)),
            ],
            ..paper_scheme_bert()
        };
        let spec = apply_rule(&model, &UpdateRule::Sparse(scheme));
        let g = &model.graph;
        let check = |name: &str| spec[&g.find_param(name).unwrap()];
        assert_eq!(check("blocks.1.attn.q.weight"), TrainKind::Full);
        assert_eq!(check("blocks.1.ffn.fc1.weight"), TrainKind::Full);
        assert_eq!(check("blocks.1.ffn.fc2.weight"), TrainKind::Frozen);
        assert_eq!(check("blocks.0.attn.q.weight"), TrainKind::Frozen);
        assert_eq!(check("embed.tokens"), TrainKind::Frozen);
        assert_eq!(check("blocks.1.ffn.fc1.bias"), TrainKind::Full);
        assert_eq!(check("blocks.0.ffn.fc1.bias"), TrainKind::Frozen);
    }

    #[test]
    fn paper_schemes_have_expected_shape() {
        assert_eq!(paper_scheme_mobilenetv2().bias_last_blocks, 7);
        assert_eq!(paper_scheme_resnet50().bias_last_blocks, 8);
        assert_eq!(paper_scheme_bert().weight_rules.len(), 2);
        assert_eq!(paper_scheme_distilbert().bias_last_blocks, 3);
        assert_eq!(paper_scheme_llama().weight_rules.len(), 2);
        let mc = paper_scheme_mcunet(17);
        assert_eq!(mc.weight_rules.len(), 4);
        assert!(mc
            .weight_rules
            .iter()
            .any(|r| (r.channel_ratio - 0.5).abs() < 1e-6));
    }
}
