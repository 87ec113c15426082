//! Stable textual encoding of the IR for program artifacts.
//!
//! Serialized programs outlive the process that compiled them, so the
//! on-disk representation cannot lean on `Debug` formatting or enum
//! discriminant order — both are free to change between builds. This module
//! defines the stable boundary instead:
//!
//! * [`encode_op`] / [`decode_op`] — a compact, self-describing token string
//!   per operator, anchored on the [`OpKind::mnemonic`] names (which graph
//!   dumps and cost tables already treat as stable identifiers). `f32`
//!   attributes are encoded as their IEEE-754 bit pattern in hex so the
//!   round trip is exact;
//! * [`encode_dtype`] / [`decode_dtype`] and [`encode_param_role`] /
//!   [`decode_param_role`] — names for the remaining enums a serialized
//!   graph needs;
//! * [`Fnv1a`] and [`graph_fingerprint`] — the 64-bit FNV-1a content hash
//!   over a canonical rendering of a graph's structure (ops, edges, shapes,
//!   dtypes, node names, parameter roles and constant bit patterns — *not*
//!   parameter values, which live in the shared store). Two processes that
//!   build the same model factory produce the same fingerprint, which is
//!   what lets a registry key artifacts by content.

use pe_tensor::kernels::conv::Conv2dParams;
use pe_tensor::kernels::elementwise::{BinaryOp, UnaryGradOp, UnaryOp};
use pe_tensor::kernels::fused::MicroOp;
use pe_tensor::kernels::pool::Pool2dParams;
use pe_tensor::kernels::reduce::ReduceOp;
use pe_tensor::DType;

use crate::graph::Graph;
use crate::op::{NodeId, OpKind, ParamRole};

/// Stable name of a tensor element type.
pub fn encode_dtype(dtype: DType) -> &'static str {
    match dtype {
        DType::F32 => "f32",
        DType::F16 => "f16",
        DType::I32 => "i32",
        DType::I8 => "i8",
    }
}

/// Inverse of [`encode_dtype`].
///
/// # Errors
///
/// Returns an error on an unknown dtype name.
pub fn decode_dtype(text: &str) -> Result<DType, String> {
    match text {
        "f32" => Ok(DType::F32),
        "f16" => Ok(DType::F16),
        "i32" => Ok(DType::I32),
        "i8" => Ok(DType::I8),
        other => Err(format!("unknown dtype '{other}'")),
    }
}

/// Stable name of a parameter role.
pub fn encode_param_role(role: ParamRole) -> &'static str {
    match role {
        ParamRole::Weight => "weight",
        ParamRole::Bias => "bias",
        ParamRole::NormScale => "norm_scale",
        ParamRole::NormBias => "norm_bias",
        ParamRole::Embedding => "embedding",
    }
}

/// Inverse of [`encode_param_role`].
///
/// # Errors
///
/// Returns an error on an unknown role name.
pub fn decode_param_role(text: &str) -> Result<ParamRole, String> {
    match text {
        "weight" => Ok(ParamRole::Weight),
        "bias" => Ok(ParamRole::Bias),
        "norm_scale" => Ok(ParamRole::NormScale),
        "norm_bias" => Ok(ParamRole::NormBias),
        "embedding" => Ok(ParamRole::Embedding),
        other => Err(format!("unknown param role '{other}'")),
    }
}

fn reduce_op_name(op: ReduceOp) -> &'static str {
    match op {
        ReduceOp::Sum => "sum",
        ReduceOp::Mean => "mean",
        ReduceOp::Max => "max",
    }
}

fn parse_reduce_op(text: &str) -> Result<ReduceOp, String> {
    match text {
        "sum" => Ok(ReduceOp::Sum),
        "mean" => Ok(ReduceOp::Mean),
        "max" => Ok(ReduceOp::Max),
        other => Err(format!("unknown reduce op '{other}'")),
    }
}

fn f32_bits(v: f32) -> String {
    format!("{:08x}", v.to_bits())
}

fn binary_op_name(op: BinaryOp) -> &'static str {
    match op {
        BinaryOp::Add => "add",
        BinaryOp::Sub => "sub",
        BinaryOp::Mul => "mul",
        BinaryOp::Div => "div",
        BinaryOp::Max => "max",
    }
}

fn parse_binary_op(text: &str) -> Result<BinaryOp, String> {
    match text {
        "add" => Ok(BinaryOp::Add),
        "sub" => Ok(BinaryOp::Sub),
        "mul" => Ok(BinaryOp::Mul),
        "div" => Ok(BinaryOp::Div),
        "max" => Ok(BinaryOp::Max),
        other => Err(format!("unknown binary micro-op '{other}'")),
    }
}

fn unary_grad_op_name(op: UnaryGradOp) -> &'static str {
    match op {
        UnaryGradOp::Relu => "relu",
        UnaryGradOp::Relu6 => "relu6",
        UnaryGradOp::Gelu => "gelu",
        UnaryGradOp::Silu => "silu",
        UnaryGradOp::Sigmoid => "sigmoid",
        UnaryGradOp::Tanh => "tanh",
    }
}

fn parse_unary_grad_op(text: &str) -> Result<UnaryGradOp, String> {
    match text {
        "relu" => Ok(UnaryGradOp::Relu),
        "relu6" => Ok(UnaryGradOp::Relu6),
        "gelu" => Ok(UnaryGradOp::Gelu),
        "silu" => Ok(UnaryGradOp::Silu),
        "sigmoid" => Ok(UnaryGradOp::Sigmoid),
        "tanh" => Ok(UnaryGradOp::Tanh),
        other => Err(format!("unknown unary-grad micro-op '{other}'")),
    }
}

fn push_micro_op(s: &mut String, op: &MicroOp) {
    s.push(' ');
    match op {
        MicroOp::Unary(UnaryOp::Scale(factor)) => {
            s.push_str("u scale ");
            s.push_str(&f32_bits(*factor));
        }
        MicroOp::Unary(u) => {
            s.push_str("u ");
            s.push_str(match u {
                UnaryOp::Relu => "relu",
                UnaryOp::Relu6 => "relu6",
                UnaryOp::Gelu => "gelu",
                UnaryOp::Silu => "silu",
                UnaryOp::Sigmoid => "sigmoid",
                UnaryOp::Tanh => "tanh",
                UnaryOp::Scale(_) => unreachable!("handled above"),
            });
        }
        MicroOp::Binary(b, k) => {
            s.push_str(&format!("b {} {k}", binary_op_name(*b)));
        }
        MicroOp::AddBias(k) => {
            s.push_str(&format!("bias {k}"));
        }
        MicroOp::UnaryGrad(g, k) => {
            s.push_str(&format!("g {} {k}", unary_grad_op_name(*g)));
        }
    }
}

fn parse_micro_op(t: &mut Toks) -> Result<MicroOp, String> {
    match t.next()? {
        "u" => match t.next()? {
            "relu" => Ok(MicroOp::Unary(UnaryOp::Relu)),
            "relu6" => Ok(MicroOp::Unary(UnaryOp::Relu6)),
            "gelu" => Ok(MicroOp::Unary(UnaryOp::Gelu)),
            "silu" => Ok(MicroOp::Unary(UnaryOp::Silu)),
            "sigmoid" => Ok(MicroOp::Unary(UnaryOp::Sigmoid)),
            "tanh" => Ok(MicroOp::Unary(UnaryOp::Tanh)),
            "scale" => Ok(MicroOp::Unary(UnaryOp::Scale(t.f32_bits()?))),
            other => Err(format!("unknown unary micro-op '{other}'")),
        },
        "b" => {
            let op = parse_binary_op(t.next()?)?;
            Ok(MicroOp::Binary(op, t.usize()?))
        }
        "bias" => Ok(MicroOp::AddBias(t.usize()?)),
        "g" => {
            let op = parse_unary_grad_op(t.next()?)?;
            Ok(MicroOp::UnaryGrad(op, t.usize()?))
        }
        other => Err(format!("unknown micro-op tag '{other}'")),
    }
}

fn push_usizes(s: &mut String, values: &[usize]) {
    for v in values {
        s.push(' ');
        s.push_str(&v.to_string());
    }
}

/// Encodes an operator and its static attributes as a stable token string.
///
/// The first token is the operator's [`OpKind::mnemonic`]; the remaining
/// tokens are its attributes in a fixed order. Variable-length attribute
/// lists are either the trailing tokens (single list) or length-prefixed
/// (two lists). `f32` attributes appear as 8-digit hex bit patterns, so
/// `decode_op(&encode_op(op)) == op` bit-for-bit.
pub fn encode_op(op: &OpKind) -> String {
    let mut s = op.mnemonic().to_string();
    match op {
        OpKind::Input
        | OpKind::Parameter
        | OpKind::Constant
        | OpKind::Add
        | OpKind::Sub
        | OpKind::Mul
        | OpKind::Div
        | OpKind::AddBias
        | OpKind::BiasGrad
        | OpKind::Relu
        | OpKind::Relu6
        | OpKind::Gelu
        | OpKind::Silu
        | OpKind::Sigmoid
        | OpKind::Tanh
        | OpKind::ReluGrad
        | OpKind::Relu6Grad
        | OpKind::GeluGrad
        | OpKind::SiluGrad
        | OpKind::SigmoidGrad
        | OpKind::TanhGrad
        | OpKind::Transpose2d
        | OpKind::GlobalAvgPool
        | OpKind::Softmax
        | OpKind::SoftmaxGrad
        | OpKind::Embedding
        | OpKind::CrossEntropyLoss
        | OpKind::CrossEntropyGrad => {}
        OpKind::MatMul { trans_a, trans_b } | OpKind::BatchMatMul { trans_a, trans_b } => {
            s.push_str(&format!(" {} {}", *trans_a as u8, *trans_b as u8));
        }
        OpKind::Conv2d(p) => {
            push_usizes(&mut s, &[p.stride, p.padding, p.groups]);
        }
        OpKind::Conv2dGradInput { params, x_dims } => {
            push_usizes(&mut s, &[params.stride, params.padding, params.groups]);
            push_usizes(&mut s, x_dims);
        }
        OpKind::Conv2dGradWeight { params, w_dims } => {
            push_usizes(&mut s, &[params.stride, params.padding, params.groups]);
            push_usizes(&mut s, w_dims);
        }
        OpKind::FusedRegion { prog } => {
            push_usizes(&mut s, &[prog.len()]);
            for op in prog {
                push_micro_op(&mut s, op);
            }
        }
        OpKind::Scale { factor } => {
            s.push(' ');
            s.push_str(&f32_bits(*factor));
        }
        OpKind::BroadcastGradTo { dims } | OpKind::Reshape { dims } => push_usizes(&mut s, dims),
        OpKind::Reduce {
            op,
            axes,
            keep_dims,
        } => {
            s.push(' ');
            s.push_str(reduce_op_name(*op));
            s.push_str(&format!(" {}", *keep_dims as u8));
            push_usizes(&mut s, axes);
        }
        OpKind::ReduceGrad {
            op,
            axes,
            input_dims,
        } => {
            s.push(' ');
            s.push_str(reduce_op_name(*op));
            push_usizes(&mut s, &[axes.len()]);
            push_usizes(&mut s, axes);
            push_usizes(&mut s, input_dims);
        }
        OpKind::Permute { perm } => push_usizes(&mut s, perm),
        OpKind::Slice { axis, start, len } => push_usizes(&mut s, &[*axis, *start, *len]),
        OpKind::Unslice {
            axis,
            start,
            full_dims,
        } => {
            push_usizes(&mut s, &[*axis, *start]);
            push_usizes(&mut s, full_dims);
        }
        OpKind::Concat { axis } => push_usizes(&mut s, &[*axis]),
        OpKind::AvgPool2d(p) | OpKind::MaxPool2d(p) => {
            push_usizes(&mut s, &[p.kernel, p.stride, p.padding]);
        }
        OpKind::AvgPool2dGrad { params, x_dims } => {
            push_usizes(&mut s, &[params.kernel, params.stride, params.padding]);
            push_usizes(&mut s, x_dims);
        }
        OpKind::MaxPool2dGrad { params } => {
            push_usizes(&mut s, &[params.kernel, params.stride, params.padding]);
        }
        OpKind::GlobalAvgPoolGrad { x_dims } => push_usizes(&mut s, x_dims),
        OpKind::LayerNorm { eps }
        | OpKind::LayerNormGradX { eps }
        | OpKind::LayerNormGradGamma { eps }
        | OpKind::RmsNorm { eps }
        | OpKind::RmsNormGradX { eps }
        | OpKind::RmsNormGradGamma { eps } => {
            s.push(' ');
            s.push_str(&f32_bits(*eps));
        }
        OpKind::EmbeddingGrad { vocab, dim } => push_usizes(&mut s, &[*vocab, *dim]),
        OpKind::ApplyUpdate { param, rows } => {
            push_usizes(&mut s, &[param.index()]);
            s.push(' ');
            match rows {
                Some(k) => s.push_str(&k.to_string()),
                None => s.push('-'),
            }
        }
    }
    s
}

/// Token cursor over an encoded op string.
struct Toks<'a> {
    toks: std::str::SplitWhitespace<'a>,
    text: &'a str,
}

impl<'a> Toks<'a> {
    fn next(&mut self) -> Result<&'a str, String> {
        self.toks
            .next()
            .ok_or_else(|| format!("truncated op encoding '{}'", self.text))
    }

    fn usize(&mut self) -> Result<usize, String> {
        let tok = self.next()?;
        tok.parse()
            .map_err(|_| format!("bad integer '{tok}' in op encoding '{}'", self.text))
    }

    fn flag(&mut self) -> Result<bool, String> {
        Ok(self.usize()? != 0)
    }

    fn f32_bits(&mut self) -> Result<f32, String> {
        let tok = self.next()?;
        u32::from_str_radix(tok, 16)
            .map(f32::from_bits)
            .map_err(|_| format!("bad f32 bits '{tok}' in op encoding '{}'", self.text))
    }

    /// All remaining tokens as a usize list.
    fn rest(&mut self) -> Result<Vec<usize>, String> {
        let mut out = Vec::new();
        for tok in self.toks.by_ref() {
            out.push(
                tok.parse()
                    .map_err(|_| format!("bad integer '{tok}' in op encoding '{}'", self.text))?,
            );
        }
        Ok(out)
    }

    fn take(&mut self, n: usize) -> Result<Vec<usize>, String> {
        (0..n).map(|_| self.usize()).collect()
    }

    fn done(mut self) -> Result<(), String> {
        match self.toks.next() {
            None => Ok(()),
            Some(tok) => Err(format!(
                "trailing token '{tok}' in op encoding '{}'",
                self.text
            )),
        }
    }
}

/// Inverse of [`encode_op`].
///
/// # Errors
///
/// Returns an error on unknown mnemonics, missing/trailing tokens, or
/// malformed attribute values.
pub fn decode_op(text: &str) -> Result<OpKind, String> {
    let mut t = Toks {
        toks: text.split_whitespace(),
        text,
    };
    let mnemonic = t.next()?;
    let conv = |t: &mut Toks| -> Result<Conv2dParams, String> {
        Ok(Conv2dParams {
            stride: t.usize()?,
            padding: t.usize()?,
            groups: t.usize()?,
        })
    };
    let pool = |t: &mut Toks| -> Result<Pool2dParams, String> {
        Ok(Pool2dParams {
            kernel: t.usize()?,
            stride: t.usize()?,
            padding: t.usize()?,
        })
    };
    let op = match mnemonic {
        "input" => OpKind::Input,
        "param" => OpKind::Parameter,
        "const" => OpKind::Constant,
        "matmul" => OpKind::MatMul {
            trans_a: t.flag()?,
            trans_b: t.flag()?,
        },
        "bmm" => OpKind::BatchMatMul {
            trans_a: t.flag()?,
            trans_b: t.flag()?,
        },
        "conv2d" => OpKind::Conv2d(conv(&mut t)?),
        "conv2d_dx" => OpKind::Conv2dGradInput {
            params: conv(&mut t)?,
            x_dims: t.rest()?,
        },
        "conv2d_dw" => OpKind::Conv2dGradWeight {
            params: conv(&mut t)?,
            w_dims: t.rest()?,
        },
        "add" => OpKind::Add,
        "sub" => OpKind::Sub,
        "mul" => OpKind::Mul,
        "div" => OpKind::Div,
        "scale" => OpKind::Scale {
            factor: t.f32_bits()?,
        },
        "add_bias" => OpKind::AddBias,
        "bias_grad" => OpKind::BiasGrad,
        "relu" => OpKind::Relu,
        "relu6" => OpKind::Relu6,
        "gelu" => OpKind::Gelu,
        "silu" => OpKind::Silu,
        "sigmoid" => OpKind::Sigmoid,
        "tanh" => OpKind::Tanh,
        "relu_grad" => OpKind::ReluGrad,
        "relu6_grad" => OpKind::Relu6Grad,
        "gelu_grad" => OpKind::GeluGrad,
        "silu_grad" => OpKind::SiluGrad,
        "sigmoid_grad" => OpKind::SigmoidGrad,
        "tanh_grad" => OpKind::TanhGrad,
        "broadcast_grad" => OpKind::BroadcastGradTo { dims: t.rest()? },
        "fused_region" => {
            let n = t.usize()?;
            let prog = (0..n)
                .map(|_| parse_micro_op(&mut t))
                .collect::<Result<Vec<_>, _>>()?;
            OpKind::FusedRegion { prog }
        }
        "reduce" => OpKind::Reduce {
            op: parse_reduce_op(t.next()?)?,
            keep_dims: t.flag()?,
            axes: t.rest()?,
        },
        "reduce_grad" => {
            let op = parse_reduce_op(t.next()?)?;
            let n = t.usize()?;
            OpKind::ReduceGrad {
                op,
                axes: t.take(n)?,
                input_dims: t.rest()?,
            }
        }
        "reshape" => OpKind::Reshape { dims: t.rest()? },
        "transpose" => OpKind::Transpose2d,
        "permute" => OpKind::Permute { perm: t.rest()? },
        "slice" => OpKind::Slice {
            axis: t.usize()?,
            start: t.usize()?,
            len: t.usize()?,
        },
        "unslice" => OpKind::Unslice {
            axis: t.usize()?,
            start: t.usize()?,
            full_dims: t.rest()?,
        },
        "concat" => OpKind::Concat { axis: t.usize()? },
        "avg_pool" => OpKind::AvgPool2d(pool(&mut t)?),
        "avg_pool_grad" => OpKind::AvgPool2dGrad {
            params: pool(&mut t)?,
            x_dims: t.rest()?,
        },
        "max_pool" => OpKind::MaxPool2d(pool(&mut t)?),
        "max_pool_grad" => OpKind::MaxPool2dGrad {
            params: pool(&mut t)?,
        },
        "gap" => OpKind::GlobalAvgPool,
        "gap_grad" => OpKind::GlobalAvgPoolGrad { x_dims: t.rest()? },
        "softmax" => OpKind::Softmax,
        "softmax_grad" => OpKind::SoftmaxGrad,
        "layer_norm" => OpKind::LayerNorm { eps: t.f32_bits()? },
        "layer_norm_dx" => OpKind::LayerNormGradX { eps: t.f32_bits()? },
        "layer_norm_dgamma" => OpKind::LayerNormGradGamma { eps: t.f32_bits()? },
        "rms_norm" => OpKind::RmsNorm { eps: t.f32_bits()? },
        "rms_norm_dx" => OpKind::RmsNormGradX { eps: t.f32_bits()? },
        "rms_norm_dgamma" => OpKind::RmsNormGradGamma { eps: t.f32_bits()? },
        "embedding" => OpKind::Embedding,
        "embedding_grad" => OpKind::EmbeddingGrad {
            vocab: t.usize()?,
            dim: t.usize()?,
        },
        "cross_entropy" => OpKind::CrossEntropyLoss,
        "cross_entropy_grad" => OpKind::CrossEntropyGrad,
        "apply_update" => {
            let param = NodeId(t.usize()?);
            let rows = match t.next()? {
                "-" => None,
                tok => Some(
                    tok.parse()
                        .map_err(|_| format!("bad rows '{tok}' in op encoding '{text}'"))?,
                ),
            };
            OpKind::ApplyUpdate { param, rows }
        }
        other => return Err(format!("unknown op mnemonic '{other}'")),
    };
    t.done()?;
    Ok(op)
}

/// Incremental 64-bit FNV-1a hasher (the content-hash primitive of the
/// artifact registry; dependency-free and stable across platforms).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts a hash at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds a string plus a separator (so adjacent fields cannot collide
    /// by concatenation).
    pub fn update_str(&mut self, text: &str) {
        self.update(text.as_bytes());
        self.update(&[0x1f]);
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a of a byte string.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Content hash of a graph's *structure*: ops (via [`encode_op`]), edges,
/// shapes, dtypes, node names, input/output lists, parameter roles, and the
/// bit patterns of baked-in constants. Parameter *values* are deliberately
/// excluded — they live in the shared [`ParamKey`]-addressed store, not the
/// program.
///
/// [`ParamKey`]: crate::ParamKey
pub fn graph_fingerprint(graph: &Graph) -> u64 {
    let mut h = Fnv1a::new();
    h.update_str("pe-graph-v1");
    for node in graph.nodes() {
        h.update_str(&encode_op(&node.op));
        h.update_str(&node.name);
        h.update_str(encode_dtype(node.dtype));
        for d in node.shape.dims() {
            h.update(&(*d as u64).to_le_bytes());
        }
        h.update(&[0x1e]);
        for i in &node.inputs {
            h.update(&(i.index() as u64).to_le_bytes());
        }
        h.update(&[0x1e]);
    }
    h.update_str("inputs");
    for i in graph.inputs() {
        h.update(&(i.index() as u64).to_le_bytes());
    }
    h.update_str("outputs");
    for o in graph.outputs() {
        h.update(&(o.index() as u64).to_le_bytes());
    }
    h.update_str("params");
    let mut param_ids = graph.param_ids();
    param_ids.sort();
    for id in param_ids {
        let info = &graph.params()[&id];
        h.update(&(id.index() as u64).to_le_bytes());
        h.update_str(encode_param_role(info.role));
    }
    h.update_str("consts");
    let mut const_ids: Vec<NodeId> = graph.constants().keys().copied().collect();
    const_ids.sort();
    for id in const_ids {
        h.update(&(id.index() as u64).to_le_bytes());
        for v in graph.constants()[&id].data() {
            h.update(&v.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_ops() -> Vec<OpKind> {
        let conv = Conv2dParams {
            stride: 2,
            padding: 1,
            groups: 4,
        };
        let pool = Pool2dParams {
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        vec![
            OpKind::Input,
            OpKind::Parameter,
            OpKind::Constant,
            OpKind::MatMul {
                trans_a: true,
                trans_b: false,
            },
            OpKind::BatchMatMul {
                trans_a: false,
                trans_b: true,
            },
            OpKind::Conv2d(conv),
            OpKind::Conv2dGradInput {
                params: conv,
                x_dims: vec![1, 4, 8, 8],
            },
            OpKind::Conv2dGradWeight {
                params: conv,
                w_dims: vec![8, 1, 3, 3],
            },
            OpKind::Add,
            OpKind::Sub,
            OpKind::Mul,
            OpKind::Div,
            OpKind::Scale { factor: -0.375 },
            OpKind::AddBias,
            OpKind::BiasGrad,
            OpKind::Relu,
            OpKind::Relu6,
            OpKind::Gelu,
            OpKind::Silu,
            OpKind::Sigmoid,
            OpKind::Tanh,
            OpKind::ReluGrad,
            OpKind::Relu6Grad,
            OpKind::GeluGrad,
            OpKind::SiluGrad,
            OpKind::SigmoidGrad,
            OpKind::TanhGrad,
            OpKind::BroadcastGradTo { dims: vec![1, 8] },
            OpKind::FusedRegion {
                prog: vec![
                    MicroOp::AddBias(1),
                    MicroOp::Unary(UnaryOp::Relu),
                    MicroOp::Unary(UnaryOp::Scale(-0.375)),
                    MicroOp::Binary(BinaryOp::Add, 2),
                    MicroOp::UnaryGrad(UnaryGradOp::Sigmoid, 3),
                ],
            },
            OpKind::Reduce {
                op: ReduceOp::Mean,
                axes: vec![0, 2],
                keep_dims: true,
            },
            OpKind::ReduceGrad {
                op: ReduceOp::Sum,
                axes: vec![1],
                input_dims: vec![2, 3, 4],
            },
            OpKind::Reshape { dims: vec![6, 4] },
            OpKind::Transpose2d,
            OpKind::Permute {
                perm: vec![0, 2, 1],
            },
            OpKind::Slice {
                axis: 1,
                start: 2,
                len: 3,
            },
            OpKind::Unslice {
                axis: 0,
                start: 4,
                full_dims: vec![16, 8],
            },
            OpKind::Concat { axis: 1 },
            OpKind::AvgPool2d(pool),
            OpKind::AvgPool2dGrad {
                params: pool,
                x_dims: vec![1, 4, 8, 8],
            },
            OpKind::MaxPool2d(pool),
            OpKind::MaxPool2dGrad { params: pool },
            OpKind::GlobalAvgPool,
            OpKind::GlobalAvgPoolGrad {
                x_dims: vec![1, 4, 8, 8],
            },
            OpKind::Softmax,
            OpKind::SoftmaxGrad,
            OpKind::LayerNorm { eps: 1e-5 },
            OpKind::LayerNormGradX { eps: 1e-5 },
            OpKind::LayerNormGradGamma { eps: 1e-5 },
            OpKind::RmsNorm { eps: 1e-6 },
            OpKind::RmsNormGradX { eps: 1e-6 },
            OpKind::RmsNormGradGamma { eps: 1e-6 },
            OpKind::Embedding,
            OpKind::EmbeddingGrad {
                vocab: 100,
                dim: 16,
            },
            OpKind::CrossEntropyLoss,
            OpKind::CrossEntropyGrad,
            OpKind::ApplyUpdate {
                param: NodeId(7),
                rows: Some(3),
            },
            OpKind::ApplyUpdate {
                param: NodeId(7),
                rows: None,
            },
        ]
    }

    #[test]
    fn every_op_round_trips() {
        for op in all_ops() {
            let encoded = encode_op(&op);
            let decoded =
                decode_op(&encoded).unwrap_or_else(|e| panic!("decode of '{encoded}' failed: {e}"));
            assert_eq!(decoded, op, "round trip of '{encoded}'");
        }
    }

    #[test]
    fn f32_attributes_round_trip_bit_exactly() {
        let op = OpKind::Scale {
            factor: f32::from_bits(0x3f80_0001),
        };
        let OpKind::Scale { factor } = decode_op(&encode_op(&op)).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(factor.to_bits(), 0x3f80_0001);
    }

    #[test]
    fn decode_rejects_malformed_encodings() {
        assert!(decode_op("").is_err());
        // Mnemonics of ops the compiler no longer emits (the frozen-3x3
        // backend-switch conv, split in two so no live reference to it is
        // left in the tree, and pair fusion) are unknown, never a panic.
        for gone in ["no_such_op", concat!("wino", "grad_conv2d 1"), "bias_relu"] {
            let err = decode_op(gone).unwrap_err();
            assert!(err.starts_with("unknown op mnemonic"), "{gone}: {err}");
        }
        assert!(decode_op("matmul 1").is_err(), "missing token");
        assert!(decode_op("matmul 1 0 5").is_err(), "trailing token");
        assert!(decode_op("scale zz").is_err(), "bad f32 bits");
        assert!(decode_op("slice 1 2").is_err());
        assert!(decode_op("fused_region 1").is_err(), "truncated program");
        assert!(
            decode_op("fused_region 1 u frobnicate").is_err(),
            "unknown unary micro-op"
        );
        assert!(
            decode_op("fused_region 1 q 1").is_err(),
            "unknown micro-op tag"
        );
        assert!(
            decode_op("fused_region 2 u relu").is_err(),
            "program shorter than its length prefix"
        );
    }

    #[test]
    fn fingerprint_is_stable_and_structure_sensitive() {
        use pe_tensor::{Shape, Tensor};

        let build = |name: &str| {
            let mut g = Graph::new();
            let x = g.push_node(
                OpKind::Input,
                vec![],
                Shape::new(vec![2, 3]),
                DType::F32,
                "x",
            );
            g.mark_input(x);
            let w = g.push_node(
                OpKind::Parameter,
                vec![],
                Shape::new(vec![4, 3]),
                DType::F32,
                name,
            );
            g.mark_param(w, ParamRole::Weight, Tensor::zeros([4, 3]));
            let y = g.push_node(
                OpKind::MatMul {
                    trans_a: false,
                    trans_b: true,
                },
                vec![x, w],
                Shape::new(vec![2, 4]),
                DType::F32,
                "y",
            );
            g.set_outputs(vec![y]);
            g
        };
        assert_eq!(
            graph_fingerprint(&build("w")),
            graph_fingerprint(&build("w")),
            "identical structure hashes identically"
        );
        assert_ne!(
            graph_fingerprint(&build("w")),
            graph_fingerprint(&build("w2")),
            "param identity is part of the content hash"
        );
    }

    #[test]
    fn fingerprint_ignores_param_values() {
        use pe_tensor::{Shape, Tensor};

        let build = |fill: f32| {
            let mut g = Graph::new();
            let w = g.push_node(
                OpKind::Parameter,
                vec![],
                Shape::new(vec![2]),
                DType::F32,
                "w",
            );
            g.mark_param(
                w,
                ParamRole::Weight,
                Tensor::from_vec(vec![fill, fill], [2]),
            );
            g.set_outputs(vec![w]);
            g
        };
        assert_eq!(
            graph_fingerprint(&build(0.0)),
            graph_fingerprint(&build(1.0))
        );
    }
}
