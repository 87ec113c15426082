//! The fused-region micro-op interpreter.
//!
//! A fused region is a maximal single-consumer chain of shape-preserving
//! elementwise ops (bias add, activations, residual adds, activation VJPs,
//! scaling) collapsed by the fusion pass into one graph node carrying an
//! ordered [`MicroOp`] program. This module executes that program in a
//! single pass over the output: each input element is read once, the whole
//! chain is applied in registers, and the result is written once — one
//! kernel dispatch and one memory round-trip where the unfused graph paid
//! one per node.
//!
//! Every micro-op maps onto exactly the scalar function the corresponding
//! standalone kernel applies ([`BinaryOp::apply`], [`UnaryOp::apply`],
//! [`UnaryGradOp::apply`], the `add_bias_into` channel addressing), in the
//! same per-element order, so a fused region is **bit-identical** to the
//! unfused node sequence it replaces.

use crate::kernels::elementwise::{BinaryOp, UnaryGradOp, UnaryOp};
use crate::{Tensor, TensorView};

/// Maximum number of inputs a fused region may reference (the arena
/// executor collects operand views on the stack up to this bound).
pub const MAX_REGION_INPUTS: usize = 16;

/// One step of a fused-region program.
///
/// The program threads an accumulator through the chain: it starts as the
/// carrier input (`inputs[0]`) element and each micro-op transforms it,
/// optionally reading one extra operand (`inputs[k]`) at the same element
/// index (or the broadcast channel index for [`MicroOp::AddBias`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MicroOp {
    /// `acc = op(acc)` — activation or constant scale.
    Unary(UnaryOp),
    /// `acc = op(acc, inputs[k][i])` — same-shape arithmetic (residual add,
    /// elementwise mul/sub/div).
    Binary(BinaryOp, usize),
    /// `acc = acc + inputs[k][channel(i)]` — per-channel bias broadcast
    /// using the same addressing as `add_bias_into` (trailing dim for
    /// rank 2/3, dim 1 for rank 4).
    AddBias(usize),
    /// `acc = op(inputs[k][i], acc)` — activation VJP where `acc` is the
    /// flowing upstream gradient and `inputs[k]` holds the forward input
    /// (Relu/Relu6/Gelu/Silu) or output (Sigmoid/Tanh).
    UnaryGrad(UnaryGradOp, usize),
}

impl MicroOp {
    /// The extra operand this micro-op reads, if any.
    pub fn operand(&self) -> Option<usize> {
        match self {
            MicroOp::Unary(_) => None,
            MicroOp::Binary(_, k) | MicroOp::AddBias(k) | MicroOp::UnaryGrad(_, k) => Some(*k),
        }
    }
}

/// Per-element channel divisor for bias addressing: `bias[(i / hw) % c]`.
/// Rank 2/3 use `hw = 1`, `c = trailing dim` (so the index is `i % f`).
fn bias_addressing(dims: &[usize]) -> (usize, usize) {
    match dims.len() {
        2 | 3 => (1, *dims.last().expect("rank >= 2")),
        4 => (dims[2] * dims[3], dims[1]),
        r => panic!("fused bias unsupported rank {r}"),
    }
}

/// Validates a program against its inputs: operand indices in range, extra
/// operands shape-matched (full region shape for binary/grad, channel
/// length for bias). Called by both execution variants.
fn check_program(prog: &[MicroOp], inputs: &[TensorView], dims: &[usize]) {
    let numel: usize = dims.iter().product();
    assert!(!inputs.is_empty(), "fused region needs a carrier input");
    assert_eq!(
        inputs[0].numel(),
        numel,
        "fused region carrier length mismatch"
    );
    for op in prog {
        match op {
            MicroOp::Unary(_) => {}
            MicroOp::Binary(_, k) | MicroOp::UnaryGrad(_, k) => {
                assert!(*k < inputs.len(), "fused operand index out of range");
                assert_eq!(inputs[*k].numel(), numel, "fused operand length mismatch");
            }
            MicroOp::AddBias(k) => {
                assert!(*k < inputs.len(), "fused bias index out of range");
                let (_, c) = bias_addressing(dims);
                assert_eq!(inputs[*k].numel(), c, "fused bias length mismatch");
            }
        }
    }
}

#[inline(always)]
fn apply_program(
    prog: &[MicroOp],
    inputs: &[TensorView],
    hw: usize,
    c: usize,
    i: usize,
    mut acc: f32,
) -> f32 {
    for op in prog {
        acc = match op {
            MicroOp::Unary(u) => u.apply(acc),
            MicroOp::Binary(b, k) => b.apply(acc, inputs[*k].data()[i]),
            MicroOp::AddBias(k) => acc + inputs[*k].data()[(i / hw) % c],
            MicroOp::UnaryGrad(g, k) => g.apply(inputs[*k].data()[i], acc),
        };
    }
    acc
}

/// Executes a fused-region program in one pass, writing into `out`.
///
/// `inputs[0]` is the carrier (the chain head's data operand); `dims` is
/// the region shape (shared by the carrier, every binary/grad operand and
/// the output).
///
/// # Panics
///
/// Panics on operand index/shape mismatches or a wrong `out` length.
pub fn fused_region_into(prog: &[MicroOp], inputs: &[TensorView], dims: &[usize], out: &mut [f32]) {
    check_program(prog, inputs, dims);
    assert_eq!(
        out.len(),
        inputs[0].numel(),
        "fused region output length mismatch"
    );
    let (hw, c) = if prog.iter().any(|op| matches!(op, MicroOp::AddBias(_))) {
        bias_addressing(dims)
    } else {
        (1, 1)
    };
    for (i, (o, &x)) in out.iter_mut().zip(inputs[0].data()).enumerate() {
        *o = apply_program(prog, inputs, hw, c, i, x);
    }
}

/// In-place variant: the carrier occupies `buf` and is overwritten with the
/// region result. `extras` are the remaining inputs (`inputs[1..]`), so a
/// program operand index `k` reads `extras[k - 1]`; none of them may alias
/// `buf`.
///
/// # Panics
///
/// Panics on operand index/shape mismatches (operand index 0 — the carrier
/// itself — is rejected).
pub fn fused_region_inplace(
    prog: &[MicroOp],
    extras: &[TensorView],
    dims: &[usize],
    buf: &mut [f32],
) {
    for op in prog {
        if op.operand() == Some(0) {
            panic!("in-place fused region cannot re-read its carrier");
        }
    }
    let numel: usize = dims.iter().product();
    assert_eq!(buf.len(), numel, "fused region buffer length mismatch");
    let (hw, c) = if prog.iter().any(|op| matches!(op, MicroOp::AddBias(_))) {
        bias_addressing(dims)
    } else {
        (1, 1)
    };
    // Shift operand indices down by one so `extras` can be indexed directly
    // inside the element loop without re-slicing.
    for (i, v) in buf.iter_mut().enumerate() {
        let mut acc = *v;
        for op in prog {
            acc = match op {
                MicroOp::Unary(u) => u.apply(acc),
                MicroOp::Binary(b, k) => b.apply(acc, extras[*k - 1].data()[i]),
                MicroOp::AddBias(k) => acc + extras[*k - 1].data()[(i / hw) % c],
                MicroOp::UnaryGrad(g, k) => g.apply(extras[*k - 1].data()[i], acc),
            };
        }
        *v = acc;
    }
}

/// Owned-tensor variant: the reference the `_into` forms are tested against.
pub fn fused_region(prog: &[MicroOp], inputs: &[&Tensor]) -> Tensor {
    let views: Vec<TensorView> = inputs.iter().map(|t| t.view()).collect();
    let dims = inputs[0].dims().to_vec();
    let mut out = Tensor::zeros(inputs[0].shape().clone());
    fused_region_into(prog, &views, &dims, out.data_mut());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::elementwise as ew;
    use crate::Rng;

    #[test]
    fn bias_activation_residual_matches_unfused_kernels() {
        let mut rng = Rng::seed_from_u64(3);
        let x = Tensor::randn([2, 3, 4, 4], 1.0, &mut rng);
        let bias = Tensor::randn([3], 0.5, &mut rng);
        let res = Tensor::randn([2, 3, 4, 4], 1.0, &mut rng);

        // Unfused: add_bias -> relu -> add(residual).
        let expect = ew::add(&ew::relu(&ew::add_bias(&x, &bias)), &res);

        let prog = [
            MicroOp::AddBias(1),
            MicroOp::Unary(UnaryOp::Relu),
            MicroOp::Binary(BinaryOp::Add, 2),
        ];
        let fused = fused_region(&prog, &[&x, &bias, &res]);
        assert_eq!(fused.data(), expect.data(), "fused must be bit-identical");
    }

    #[test]
    fn grad_chain_matches_unfused_kernels() {
        let mut rng = Rng::seed_from_u64(4);
        let x = Tensor::randn([4, 8], 1.0, &mut rng);
        let dy = Tensor::randn([4, 8], 1.0, &mut rng);

        // Unfused: relu_grad(x, dy) scaled then multiplied by a mask.
        let mask = Tensor::randn([4, 8], 1.0, &mut rng);
        let expect = ew::mul(&ew::scale(&ew::relu_grad(&x, &dy), 0.5), &mask);

        let prog = [
            MicroOp::UnaryGrad(UnaryGradOp::Relu, 1),
            MicroOp::Unary(UnaryOp::Scale(0.5)),
            MicroOp::Binary(BinaryOp::Mul, 2),
        ];
        let fused = fused_region(&prog, &[&dy, &x, &mask]);
        assert_eq!(fused.data(), expect.data());
    }

    #[test]
    fn inplace_matches_out_of_place() {
        let mut rng = Rng::seed_from_u64(5);
        let x = Tensor::randn([3, 5], 1.0, &mut rng);
        let b = Tensor::randn([5], 1.0, &mut rng);
        let prog = [MicroOp::AddBias(1), MicroOp::Unary(UnaryOp::Gelu)];
        let expect = fused_region(&prog, &[&x, &b]);

        let mut buf = x.data().to_vec();
        fused_region_inplace(&prog, &[b.view()], x.dims(), &mut buf);
        assert_eq!(&buf[..], expect.data());
    }

    #[test]
    #[should_panic(expected = "cannot re-read its carrier")]
    fn inplace_rejects_carrier_reads() {
        let x = Tensor::ones([4]);
        let mut buf = x.data().to_vec();
        fused_region_inplace(
            &[MicroOp::Binary(BinaryOp::Add, 0)],
            &[],
            x.dims(),
            &mut buf,
        );
    }

    #[test]
    #[should_panic(expected = "operand length mismatch")]
    fn mismatched_operand_panics() {
        let x = Tensor::ones([4]);
        let y = Tensor::ones([5]);
        fused_region(&[MicroOp::Binary(BinaryOp::Add, 1)], &[&x, &y]);
    }
}
