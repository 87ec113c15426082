//! Shared model-zoo types.

use pe_graph::{Graph, NodeId};

/// A forward graph produced by the model zoo, together with the handles the
/// engine needs to compile and train it.
#[derive(Debug, Clone)]
pub struct BuiltModel {
    /// The forward graph (loss included).
    pub graph: Graph,
    /// The scalar loss node.
    pub loss: NodeId,
    /// The logits node (classification head or language-model head).
    pub logits: NodeId,
    /// Name of the feature / token-id input.
    pub feature_input: String,
    /// Name of the label input.
    pub label_input: String,
    /// Number of repeated blocks (inverted-residual blocks, bottlenecks, or
    /// transformer layers).
    pub num_blocks: usize,
    /// Human-readable model name (e.g. `"mobilenetv2-w0.35"`).
    pub name: String,
}

impl BuiltModel {
    /// Name of the logits node (needed by the trainer to fetch outputs).
    pub fn logits_name(&self) -> String {
        self.graph.node(self.logits).name.clone()
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.graph.param_count()
    }

    /// Parameter node ids along with their names, sorted by id.
    pub fn named_params(&self) -> Vec<(NodeId, String)> {
        self.graph
            .param_ids()
            .into_iter()
            .map(|id| (id, self.graph.node(id).name.clone()))
            .collect()
    }
}

/// Rounds a channel count scaled by a width multiplier to a hardware-friendly
/// multiple of 8 (minimum 8), as MobileNet-family models do.
pub(crate) fn scale_channels(base: usize, width_mult: f64) -> usize {
    // The MobileNet `make_divisible` rule: round to the nearest multiple of
    // 8, never dropping more than 10% below the scaled value.
    let scaled = base as f64 * width_mult;
    let mut rounded = (((scaled + 4.0) as usize) / 8 * 8).max(8);
    if (rounded as f64) < 0.9 * scaled {
        rounded += 8;
    }
    rounded
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_scaling_rounds_to_multiple_of_8() {
        assert_eq!(scale_channels(32, 1.0), 32);
        assert_eq!(scale_channels(32, 0.35), 16);
        assert_eq!(scale_channels(16, 0.35), 8);
        assert_eq!(scale_channels(320, 1.0), 320);
        assert_eq!(scale_channels(24, 0.35), 8);
    }
}
