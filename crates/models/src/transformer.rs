//! Transformer model builders: BERT-style encoders (BERT, DistilBERT,
//! ALBERT-like) and Llama-style decoders.
//!
//! Parameter names follow `blocks.{i}.attn.{q,k,v,out}.weight`,
//! `blocks.{i}.ffn.fc{1,2}.weight` (encoders) and
//! `blocks.{i}.ffn.{gate,up,down}.weight` (Llama), which is the granularity
//! the paper's update schemes are expressed at ("the weights of the attention
//! module and the first linear layer in the FFN for the last k blocks").

use pe_graph::{GraphBuilder, NodeId};
use pe_tensor::{Rng, Tensor};

use crate::common::BuiltModel;

/// Configuration of a BERT-style encoder for sequence classification.
#[derive(Debug, Clone, PartialEq)]
pub struct BertConfig {
    /// Model name used in reports.
    pub name: String,
    /// Number of transformer blocks.
    pub num_blocks: usize,
    /// Hidden size.
    pub hidden: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// FFN intermediate size.
    pub ffn: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Sequence length baked into the static graph.
    pub seq_len: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Number of classification labels.
    pub num_classes: usize,
    /// Build with deferred parameter initialisation.
    pub deferred: bool,
}

impl BertConfig {
    /// BERT-base-uncased (12 blocks, hidden 768) at sequence length 128.
    pub fn bert_base(batch: usize, num_classes: usize) -> Self {
        BertConfig {
            name: "bert-base".to_string(),
            num_blocks: 12,
            hidden: 768,
            heads: 12,
            ffn: 3072,
            vocab: 30522,
            seq_len: 128,
            batch,
            num_classes,
            deferred: true,
        }
    }

    /// DistilBERT-base (6 blocks, hidden 768).
    pub fn distilbert(batch: usize, num_classes: usize) -> Self {
        BertConfig {
            name: "distilbert".to_string(),
            num_blocks: 6,
            ..Self::bert_base(batch, num_classes)
        }
    }

    /// A tiny encoder that trains in milliseconds, for tests and examples.
    pub fn tiny(batch: usize, num_classes: usize) -> Self {
        BertConfig {
            name: "bert-tiny".to_string(),
            num_blocks: 2,
            hidden: 32,
            heads: 4,
            ffn: 64,
            vocab: 100,
            seq_len: 16,
            batch,
            num_classes,
            deferred: false,
        }
    }
}

/// Multi-head self-attention over `[N, T, H]`, returning the projected
/// context. `causal_mask` (a `[T, T]` additive mask constant) enables
/// decoder-style attention.
#[allow(clippy::too_many_arguments)]
fn attention(
    b: &mut GraphBuilder,
    x: NodeId,
    prefix: &str,
    hidden: usize,
    heads: usize,
    batch: usize,
    seq: usize,
    with_bias: bool,
    causal_mask: Option<NodeId>,
    rng: &mut Rng,
) -> NodeId {
    let dh = hidden / heads;
    let proj = |b: &mut GraphBuilder, name: &str, rng: &mut Rng| {
        let w = b.weight(
            &format!("{prefix}.attn.{name}.weight"),
            [hidden, hidden],
            rng,
        );
        let bias = if with_bias {
            Some(b.bias(&format!("{prefix}.attn.{name}.bias"), hidden))
        } else {
            None
        };
        (w, bias)
    };
    let (wq, bq) = proj(b, "q", rng);
    let (wk, bk) = proj(b, "k", rng);
    let (wv, bv) = proj(b, "v", rng);
    let (wo, bo) = proj(b, "out", rng);

    let split = |b: &mut GraphBuilder, t: NodeId| -> NodeId {
        let r = b.reshape(t, vec![batch, seq, heads, dh]);
        b.permute(r, vec![0, 2, 1, 3]) // [N, heads, T, dh]
    };

    let q = b.linear(x, wq, bq);
    let k = b.linear(x, wk, bk);
    let v = b.linear(x, wv, bv);
    let qh = split(b, q);
    let kh = split(b, k);
    let vh = split(b, v);

    let scores = b.batch_matmul(qh, kh, false, true); // [N, heads, T, T]
    let scaled = b.scale(scores, 1.0 / (dh as f32).sqrt());
    let masked = match causal_mask {
        Some(m) => b.add(scaled, m),
        None => scaled,
    };
    let probs = b.softmax(masked);
    let ctx = b.batch_matmul(probs, vh, false, false); // [N, heads, T, dh]
    let merged = b.permute(ctx, vec![0, 2, 1, 3]);
    let merged = b.reshape(merged, vec![batch, seq, hidden]);
    b.linear(merged, wo, bo)
}

/// Builds a BERT-style sequence classifier (token embedding + positional
/// embedding, post-LN encoder blocks, CLS-token classification head).
pub fn build_bert(config: &BertConfig, rng: &mut Rng) -> BuiltModel {
    let mut b = if config.deferred {
        GraphBuilder::new_deferred()
    } else {
        GraphBuilder::new()
    };
    let (n, t, h) = (config.batch, config.seq_len, config.hidden);

    let ids = b.input("ids", [n, t]);
    let labels = b.input("labels", [n]);

    let tok_table = b.embedding_table("embed.tokens", config.vocab, h, rng);
    let pos_table = b.embedding_table("embed.positions", t, h, rng);
    let pos_ids = b.constant(
        "embed.position_ids",
        Tensor::from_vec((0..t).map(|i| i as f32).collect(), [t]),
    );
    let tok = b.embedding(tok_table, ids);
    let pos = b.embedding(pos_table, pos_ids); // [T, H] broadcasts over batch
    let mut hid = b.add(tok, pos);
    let eg = b.norm_scale("embed.ln.gamma", h);
    let eb = b.norm_bias("embed.ln.beta", h);
    hid = b.layer_norm(hid, eg, eb, 1e-5);

    for i in 0..config.num_blocks {
        let prefix = format!("blocks.{i}");
        let attn_out = attention(&mut b, hid, &prefix, h, config.heads, n, t, true, None, rng);
        let res1 = b.add(hid, attn_out);
        let g1 = b.norm_scale(&format!("{prefix}.ln1.gamma"), h);
        let b1 = b.norm_bias(&format!("{prefix}.ln1.beta"), h);
        let norm1 = b.layer_norm(res1, g1, b1, 1e-5);

        let w1 = b.weight(&format!("{prefix}.ffn.fc1.weight"), [config.ffn, h], rng);
        let bb1 = b.bias(&format!("{prefix}.ffn.fc1.bias"), config.ffn);
        let mid = b.linear(norm1, w1, Some(bb1));
        let mid = b.gelu(mid);
        let w2 = b.weight(&format!("{prefix}.ffn.fc2.weight"), [h, config.ffn], rng);
        let bb2 = b.bias(&format!("{prefix}.ffn.fc2.bias"), h);
        let ffn_out = b.linear(mid, w2, Some(bb2));
        let res2 = b.add(norm1, ffn_out);
        let g2 = b.norm_scale(&format!("{prefix}.ln2.gamma"), h);
        let b2 = b.norm_bias(&format!("{prefix}.ln2.beta"), h);
        hid = b.layer_norm(res2, g2, b2, 1e-5);
    }

    // Classification head on the first ([CLS]) token.
    let cls = b.slice(hid, 1, 0, 1);
    let cls = b.reshape(cls, vec![n, h]);
    let wp = b.weight("head.pooler.weight", [h, h], rng);
    let bp = b.bias("head.pooler.bias", h);
    let pooled = b.linear(cls, wp, Some(bp));
    let pooled = b.tanh(pooled);
    let wc = b.weight("head.classifier.weight", [config.num_classes, h], rng);
    let bc = b.bias("head.classifier.bias", config.num_classes);
    let logits = b.linear(pooled, wc, Some(bc));
    let loss = b.cross_entropy(logits, labels);

    let graph = b.finish(vec![loss, logits]);
    BuiltModel {
        graph,
        loss,
        logits,
        feature_input: "ids".to_string(),
        label_input: "labels".to_string(),
        num_blocks: config.num_blocks,
        name: config.name.clone(),
    }
}

/// Configuration of a Llama-style decoder-only language model.
#[derive(Debug, Clone, PartialEq)]
pub struct LlamaConfig {
    /// Model name used in reports.
    pub name: String,
    /// Number of decoder blocks.
    pub num_blocks: usize,
    /// Hidden size.
    pub hidden: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// FFN intermediate size (SwiGLU).
    pub ffn: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Sequence length.
    pub seq_len: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Build with deferred parameter initialisation.
    pub deferred: bool,
}

impl LlamaConfig {
    /// LlamaV2-7B geometry at sequence length 512 (the paper's instruction
    /// tuning setup). Build is deferred: this configuration is used for
    /// memory and latency accounting only.
    pub fn llama2_7b(batch: usize) -> Self {
        LlamaConfig {
            name: "llamav2-7b".to_string(),
            num_blocks: 32,
            hidden: 4096,
            heads: 32,
            ffn: 11008,
            vocab: 32000,
            seq_len: 512,
            batch,
            deferred: true,
        }
    }

    /// A tiny decoder for tests, examples and the instruction-tuning
    /// quality experiment.
    pub fn tiny(batch: usize, seq_len: usize) -> Self {
        LlamaConfig {
            name: "llama-tiny".to_string(),
            num_blocks: 2,
            hidden: 32,
            heads: 4,
            ffn: 64,
            vocab: 64,
            seq_len,
            batch,
            deferred: false,
        }
    }
}

/// Builds a Llama-style decoder with a next-token language-modelling loss.
///
/// Inputs: `ids` of shape `[batch, seq_len]` and `labels` of shape
/// `[batch, seq_len]` (already shifted by the data pipeline).
pub fn build_llama(config: &LlamaConfig, rng: &mut Rng) -> BuiltModel {
    let mut b = if config.deferred {
        GraphBuilder::new_deferred()
    } else {
        GraphBuilder::new()
    };
    let (n, t, h) = (config.batch, config.seq_len, config.hidden);

    let ids = b.input("ids", [n, t]);
    let labels = b.input("labels", [n, t]);

    let tok_table = b.embedding_table("embed.tokens", config.vocab, h, rng);
    let mut hid = b.embedding(tok_table, ids);

    // Additive causal mask: 0 on/below the diagonal, -1e9 above.
    let mut mask = Tensor::zeros([t, t]);
    for i in 0..t {
        for j in (i + 1)..t {
            mask.set(&[i, j], -1e9);
        }
    }
    let mask = b.constant("attn.causal_mask", mask);

    for i in 0..config.num_blocks {
        let prefix = format!("blocks.{i}");
        let g1 = b.norm_scale(&format!("{prefix}.norm1.gamma"), h);
        let normed = b.rms_norm(hid, g1, 1e-6);
        let attn_out = attention(
            &mut b,
            normed,
            &prefix,
            h,
            config.heads,
            n,
            t,
            false,
            Some(mask),
            rng,
        );
        let res1 = b.add(hid, attn_out);

        let g2 = b.norm_scale(&format!("{prefix}.norm2.gamma"), h);
        let normed2 = b.rms_norm(res1, g2, 1e-6);
        // SwiGLU FFN: down( silu(gate(x)) * up(x) ).
        let wg = b.weight(&format!("{prefix}.ffn.gate.weight"), [config.ffn, h], rng);
        let wu = b.weight(&format!("{prefix}.ffn.up.weight"), [config.ffn, h], rng);
        let wd = b.weight(&format!("{prefix}.ffn.down.weight"), [h, config.ffn], rng);
        let gate = b.linear(normed2, wg, None);
        let gate = b.silu(gate);
        let up = b.linear(normed2, wu, None);
        let prod = b.mul(gate, up);
        let down = b.linear(prod, wd, None);
        hid = b.add(res1, down);
    }

    let gf = b.norm_scale("final_norm.gamma", h);
    let hid = b.rms_norm(hid, gf, 1e-6);
    let w_head = b.weight("lm_head.weight", [config.vocab, h], rng);
    let logits = b.linear(hid, w_head, None); // [N, T, vocab]
    let loss = b.cross_entropy(logits, labels);

    let graph = b.finish(vec![loss, logits]);
    BuiltModel {
        graph,
        loss,
        logits,
        feature_input: "ids".to_string(),
        label_input: "labels".to_string(),
        num_blocks: config.num_blocks,
        name: config.name.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_bert_builds_and_validates() {
        let mut rng = Rng::seed_from_u64(0);
        let m = build_bert(&BertConfig::tiny(2, 3), &mut rng);
        assert!(m.graph.validate().is_empty());
        assert_eq!(m.graph.node(m.logits).shape.dims(), &[2, 3]);
        assert!(m
            .named_params()
            .iter()
            .any(|(_, n)| n == "blocks.1.attn.q.weight"));
        assert!(m
            .named_params()
            .iter()
            .any(|(_, n)| n == "blocks.0.ffn.fc1.weight"));
    }

    #[test]
    fn bert_base_param_count_matches_ballpark() {
        let mut rng = Rng::seed_from_u64(0);
        let m = build_bert(&BertConfig::bert_base(1, 2), &mut rng);
        // BERT-base has ~110M parameters.
        let params = m.param_count();
        assert!(
            (90_000_000..130_000_000).contains(&params),
            "params = {params}"
        );
        assert_eq!(m.num_blocks, 12);
    }

    #[test]
    fn distilbert_is_half_depth() {
        let c = BertConfig::distilbert(1, 2);
        assert_eq!(c.num_blocks, 6);
        assert_eq!(c.hidden, 768);
    }

    #[test]
    fn tiny_llama_builds_and_validates() {
        let mut rng = Rng::seed_from_u64(0);
        let m = build_llama(&LlamaConfig::tiny(2, 8), &mut rng);
        assert!(m.graph.validate().is_empty());
        assert_eq!(m.graph.node(m.logits).shape.dims(), &[2, 8, 64]);
        assert!(m
            .named_params()
            .iter()
            .any(|(_, n)| n == "blocks.0.ffn.gate.weight"));
        assert!(m
            .named_params()
            .iter()
            .any(|(_, n)| n == "blocks.1.norm2.gamma"));
    }

    #[test]
    fn llama_7b_param_count_is_about_7b() {
        let mut rng = Rng::seed_from_u64(0);
        let m = build_llama(&LlamaConfig::llama2_7b(1), &mut rng);
        let params = m.param_count();
        assert!(
            (6_000_000_000..8_000_000_000).contains(&params),
            "params = {params}"
        );
        assert_eq!(m.num_blocks, 32);
    }
}
