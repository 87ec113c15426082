//! Element-wise kernels: arithmetic with broadcasting, activations and their
//! vector-Jacobian products.
//!
//! Every loop here walks contiguous slices with the op chosen *outside* the
//! loop (see `with_unary!` and friends), so the body is straight-line f32
//! arithmetic the autovectoriser takes. The scalar `apply` functions are the
//! single definition of each formula; they use only IEEE `mul`/`add`/`div`,
//! compares and bit moves, so the vectorised loop and a lone scalar call
//! produce the same bits.

use crate::TensorView;

/// Maximum tensor rank supported by the allocation-free broadcast helpers.
pub(crate) const MAX_RANK: usize = 8;

/// A binary element-wise arithmetic operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Element-wise addition.
    Add,
    /// Element-wise multiplication.
    Mul,
}

impl BinaryOp {
    /// Applies the op to one element pair.
    #[inline]
    pub(crate) fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Mul => a * b,
        }
    }
}

/// One arm of the `with_*!` macros: `$body` with `$o` bound to a known op.
macro_rules! bind_op {
    ($o:ident = $known:expr, $body:expr) => {{
        let $o = $known;
        $body
    }};
}

/// Runs `$body` once per variant with `$o` bound to that variant as a
/// *constant*, so the `match` inside `$o.apply(..)` folds away and an
/// element loop in the body is straight-line code with no branch on the op.
macro_rules! with_binary {
    ($op:expr, |$o:ident| $body:expr) => {
        match $op {
            BinaryOp::Add => bind_op!($o = BinaryOp::Add, $body),
            BinaryOp::Mul => bind_op!($o = BinaryOp::Mul, $body),
        }
    };
}

/// `out[r * n + j] = f(big[r * n + j], small[j])` with `n = small.len()`:
/// one operand repeats under every row of the other.
#[inline(always)]
fn rows_into(big: &[f32], small: &[f32], out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
    let n = small.len().max(1);
    for (orow, brow) in out.chunks_exact_mut(n).zip(big.chunks_exact(n)) {
        for ((o, &x), &y) in orow.iter_mut().zip(brow).zip(small) {
            *o = f(x, y);
        }
    }
}

/// Applies a binary op with NumPy-style broadcasting, writing into a
/// preallocated `out`.
///
/// `out` must have the length of the broadcast result shape; it is fully
/// overwritten. Supports ranks up to `MAX_RANK`.
///
/// # Panics
///
/// Panics if the shapes are not broadcast-compatible, the rank exceeds
/// `MAX_RANK`, or `out` has the wrong length.
pub fn binary_into(op: BinaryOp, a: TensorView, b: TensorView, out: &mut [f32]) {
    // Fast paths: one operand's shape is a trailing suffix of the other's
    // (equal shapes included), so it repeats under whole rows.
    if a.dims().ends_with(b.dims()) {
        assert_eq!(out.len(), a.numel(), "binary output length mismatch");
        let (a, b) = (a.data(), b.data());
        with_binary!(op, |op| rows_into(a, b, out, |x, y| op.apply(x, y)));
        return;
    }
    if b.dims().ends_with(a.dims()) {
        assert_eq!(out.len(), b.numel(), "binary output length mismatch");
        let (a, b) = (a.data(), b.data());
        with_binary!(op, |op| rows_into(b, a, out, |y, x| op.apply(x, y)));
        return;
    }
    broadcast_into(op, a, b, out);
}

/// Any broadcast at all, by index arithmetic per element.
fn broadcast_into(op: BinaryOp, a: TensorView, b: TensorView, out: &mut [f32]) {
    let r = a.rank().max(b.rank());
    assert!(r <= MAX_RANK, "binary broadcast rank exceeds MAX_RANK");
    let a_dims = pad_dims(a.dims(), r);
    let b_dims = pad_dims(b.dims(), r);
    let mut out_dims = [1usize; MAX_RANK];
    for d in 0..r {
        let (da, db) = (a_dims[d], b_dims[d]);
        assert!(
            da == db || da == 1 || db == 1,
            "shapes {:?} and {:?} are not broadcastable",
            a.dims(),
            b.dims()
        );
        out_dims[d] = da.max(db);
    }
    let a_strides = padded_strides(&a_dims, r);
    let b_strides = padded_strides(&b_dims, r);
    let out_strides = padded_strides(&out_dims, r);
    let n: usize = out_dims[..r].iter().product();
    assert_eq!(out.len(), n, "binary output length mismatch");
    for (flat, o) in out.iter_mut().enumerate() {
        let mut ai = 0;
        let mut bi = 0;
        let mut rem = flat;
        for d in 0..r {
            let id = rem / out_strides[d];
            rem %= out_strides[d];
            if a_dims[d] != 1 {
                ai += id * a_strides[d];
            }
            if b_dims[d] != 1 {
                bi += id * b_strides[d];
            }
        }
        *o = op.apply(a.data()[ai], b.data()[bi]);
    }
}

pub(crate) fn pad_dims(dims: &[usize], rank: usize) -> [usize; MAX_RANK] {
    let mut out = [1usize; MAX_RANK];
    out[rank - dims.len()..rank].copy_from_slice(dims);
    out
}

pub(crate) fn padded_strides(dims: &[usize; MAX_RANK], rank: usize) -> [usize; MAX_RANK] {
    let mut strides = [1usize; MAX_RANK];
    for i in (0..rank.saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * dims[i + 1];
    }
    strides
}

/// `e^x` in pure f32 `mul`/`add`: the one exponential behind GELU, sigmoid,
/// SiLU, softmax and cross-entropy.
///
/// Cephes `expf` made branch-free: `n = round(x · log2 e)` by adding and
/// subtracting 1.5·2²³, `r = x − n·ln 2` with `ln 2` split in two constants,
/// a degree-5 polynomial for `(e^r − 1 − r) / r²`, and `2^n` assembled from
/// the low bits of `x · log2 e + 1.5·2²³` (an `as i32` here would keep the
/// loop scalar). Relative error is below 1e-7 on the whole finite range.
///
/// Edges, all by compare-select so NaN is never swallowed: NaN gives NaN;
/// below `ln(f32::MIN_POSITIVE)` ≈ −87.34 the result is exactly `0.0` (a
/// −1e9 attention mask must get probability exactly zero); from
/// `127.5 · ln 2` ≈ 88.38 up it is `+inf`, slightly before libm's 88.72 —
/// every caller feeds it `x ≤ 0` or takes `1 / (1 + e^x)`.
#[inline(always)]
pub(crate) fn exp(x: f32) -> f32 {
    const LO: f32 = -87.336_55;
    const HI: f32 = 88.722_84;
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23: ulp 1, so adding it rounds to an integer
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    let c = if x > HI { HI } else { x };
    let c = if c < LO { LO } else { c };
    let t = c * std::f32::consts::LOG2_E + MAGIC;
    let n = t - MAGIC;
    let r = c - n * LN2_HI - n * LN2_LO;
    let p = ((((1.987_569_1e-4 * r + 1.398_2e-3) * r + 8.333_452e-3) * r + 4.166_579_6e-2) * r
        + 1.666_666_5e-1)
        * r
        + 0.5;
    let e_r = p * (r * r) + r + 1.0;
    // bits(t) = bits(MAGIC) + n and bits(MAGIC) has nine trailing zeros, so
    // the shift leaves exactly the biased exponent n + 127 (255, i.e. +inf,
    // for n = 128).
    let two_n = f32::from_bits(t.to_bits().wrapping_add(127) << 23);
    if x < LO {
        0.0
    } else {
        e_r * two_n
    }
}

#[inline(always)]
fn sigmoid_scalar(v: f32) -> f32 {
    1.0 / (1.0 + exp(-v))
}

/// `sqrt(2/pi) * (v + 0.044715 v^3)`, the argument of GELU's tanh.
#[inline(always)]
fn gelu_inner(v: f32) -> f32 {
    0.797_884_6 * (v + 0.044_715 * v * v * v)
}

/// GELU, tanh approximation: `0.5 v (1 + tanh u)` is the identical function
/// `v · σ(2u)`, which costs one `exp` and one `div` and does not cancel in
/// the negative tail the way `1 + tanh u` does.
#[inline(always)]
fn gelu_scalar(v: f32) -> f32 {
    v * sigmoid_scalar(2.0 * gelu_inner(v))
}

/// A unary element-wise operation (activations and constant scaling).
///
/// Every variant reads and writes the same element index, so all of them are
/// safe to execute in place on an aliased buffer (the arena executor's
/// in-place hint relies on this).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnaryOp {
    /// `max(x, 0)`.
    Relu,
    /// `clamp(x, 0, 6)`.
    Relu6,
    /// GELU (tanh approximation).
    Gelu,
    /// `x * sigmoid(x)`.
    Silu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Multiplication by a constant.
    Scale(f32),
}

impl UnaryOp {
    /// Applies the op to one element: the one definition of each formula.
    #[inline(always)]
    pub(crate) fn apply(self, v: f32) -> f32 {
        match self {
            UnaryOp::Relu => v.max(0.0),
            UnaryOp::Relu6 => v.clamp(0.0, 6.0),
            UnaryOp::Gelu => gelu_scalar(v),
            UnaryOp::Silu => v * sigmoid_scalar(v),
            UnaryOp::Sigmoid => sigmoid_scalar(v),
            // libm: `2σ(2v) − 1` would lose relative accuracy near zero.
            UnaryOp::Tanh => v.tanh(),
            UnaryOp::Scale(factor) => v * factor,
        }
    }
}

/// [`with_binary!`] for [`UnaryOp`].
macro_rules! with_unary {
    ($op:expr, |$o:ident| $body:expr) => {
        match $op {
            UnaryOp::Relu => bind_op!($o = UnaryOp::Relu, $body),
            UnaryOp::Relu6 => bind_op!($o = UnaryOp::Relu6, $body),
            UnaryOp::Gelu => bind_op!($o = UnaryOp::Gelu, $body),
            UnaryOp::Silu => bind_op!($o = UnaryOp::Silu, $body),
            UnaryOp::Sigmoid => bind_op!($o = UnaryOp::Sigmoid, $body),
            UnaryOp::Tanh => bind_op!($o = UnaryOp::Tanh, $body),
            UnaryOp::Scale(k) => bind_op!($o = UnaryOp::Scale(k), $body),
        }
    };
}

/// Allocation-free unary op writing into a preallocated `out`.
///
/// # Panics
///
/// Panics if `out` and the input differ in length.
pub fn unary_into(op: UnaryOp, x: TensorView, out: &mut [f32]) {
    assert_eq!(out.len(), x.numel(), "unary output length mismatch");
    with_unary!(op, |op| for (o, &v) in out.iter_mut().zip(x.data()) {
        *o = op.apply(v);
    });
}

/// In-place unary op over a single buffer (used when the memory planner
/// aliases an op's output onto its dying input).
pub fn unary_inplace(op: UnaryOp, buf: &mut [f32]) {
    with_unary!(op, |op| for v in buf.iter_mut() {
        *v = op.apply(*v);
    });
}

/// Reduces a broadcasted gradient back to the operand shape `target` by
/// summing over the broadcast dimensions (the VJP of broadcasting), writing
/// into a preallocated `out`.
///
/// `out` is fully overwritten (zero-filled first, then accumulated).
///
/// # Panics
///
/// Panics if the target is not obtainable from the gradient by broadcasting
/// or if `out` has the wrong length.
pub fn reduce_to_shape_into(grad: TensorView, target: &[usize], out: &mut [f32]) {
    let t_numel: usize = target.iter().product();
    assert_eq!(out.len(), t_numel, "reduce_to_shape output length mismatch");
    if grad.dims() == target {
        out.copy_from_slice(grad.data());
        return;
    }
    let r = grad.rank();
    assert!(r <= MAX_RANK, "reduce_to_shape rank exceeds MAX_RANK");
    let g_dims = pad_dims(grad.dims(), r);
    let t_dims = pad_dims(target, r);
    let g_strides = padded_strides(&g_dims, r);
    let t_strides = padded_strides(&t_dims, r);
    out.fill(0.0);
    for (flat, &g) in grad.data().iter().enumerate() {
        let mut ti = 0;
        let mut rem = flat;
        for d in 0..r {
            let id = rem / g_strides[d];
            rem %= g_strides[d];
            if t_dims[d] != 1 {
                ti += id * t_strides[d];
            }
        }
        out[ti] += g;
    }
}

/// The VJP corresponding to a [`UnaryOp`] activation.
///
/// `Relu`/`Relu6`/`Gelu`/`Silu` gradients take the forward *input* as the
/// first operand; `Sigmoid`/`Tanh` gradients take the forward *output*.
/// `Scale` multiplies the upstream gradient by the constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnaryGradOp {
    /// VJP of ReLU (from the forward input).
    Relu,
    /// VJP of ReLU6 (from the forward input).
    Relu6,
    /// VJP of GELU (from the forward input).
    Gelu,
    /// VJP of SiLU (from the forward input).
    Silu,
    /// VJP of sigmoid (from the forward output).
    Sigmoid,
    /// VJP of tanh (from the forward output).
    Tanh,
}

impl UnaryGradOp {
    /// Applies the VJP to one `(x_or_y, dy)` pair: the one definition of
    /// each formula.
    #[inline(always)]
    pub(crate) fn apply(self, v: f32, g: f32) -> f32 {
        match self {
            UnaryGradOp::Relu => {
                if v > 0.0 {
                    g
                } else {
                    0.0
                }
            }
            UnaryGradOp::Relu6 => {
                if v > 0.0 && v < 6.0 {
                    g
                } else {
                    0.0
                }
            }
            UnaryGradOp::Gelu => {
                // d/dv [v σ(2u)] = σ + 2 v σ (1 − σ) u′.
                let s = sigmoid_scalar(2.0 * gelu_inner(v));
                let d_inner = 0.797_884_6 * (1.0 + 3.0 * 0.044_715 * v * v);
                g * (s + 2.0 * v * s * (1.0 - s) * d_inner)
            }
            UnaryGradOp::Silu => {
                let s = sigmoid_scalar(v);
                g * (s + v * s * (1.0 - s))
            }
            UnaryGradOp::Sigmoid => g * v * (1.0 - v),
            UnaryGradOp::Tanh => g * (1.0 - v * v),
        }
    }
}

/// [`with_binary!`] for [`UnaryGradOp`].
macro_rules! with_unary_grad {
    ($op:expr, |$o:ident| $body:expr) => {
        match $op {
            UnaryGradOp::Relu => bind_op!($o = UnaryGradOp::Relu, $body),
            UnaryGradOp::Relu6 => bind_op!($o = UnaryGradOp::Relu6, $body),
            UnaryGradOp::Gelu => bind_op!($o = UnaryGradOp::Gelu, $body),
            UnaryGradOp::Silu => bind_op!($o = UnaryGradOp::Silu, $body),
            UnaryGradOp::Sigmoid => bind_op!($o = UnaryGradOp::Sigmoid, $body),
            UnaryGradOp::Tanh => bind_op!($o = UnaryGradOp::Tanh, $body),
        }
    };
}

/// Allocation-free activation VJP writing into a preallocated `out`.
///
/// # Panics
///
/// Panics if the operand and output lengths disagree.
pub fn unary_grad_into(op: UnaryGradOp, x_or_y: TensorView, dy: TensorView, out: &mut [f32]) {
    assert_eq!(x_or_y.numel(), dy.numel(), "unary grad shape mismatch");
    assert_eq!(out.len(), dy.numel(), "unary grad output length mismatch");
    let (vs, gs) = (x_or_y.data(), dy.data());
    let each = out.iter_mut().zip(vs).zip(gs);
    with_unary_grad!(op, |op| for ((o, &v), &g) in each {
        *o = op.apply(v, g);
    });
}

/// Which operand of an activation VJP an in-place call overwrites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradOperand {
    /// The forward input or output (`x_or_y`).
    XOrY,
    /// The upstream gradient (`dy`).
    Dy,
}

/// [`unary_grad_into`] with its output written over one of its operands:
/// `buf` holds the operand named by `aliased` and receives the VJP, and
/// `other` is the remaining operand (used when the memory planner aliases
/// the gradient onto whichever operand dies at this node). Each element
/// gets the bits [`unary_grad_into`] gives it.
///
/// # Panics
///
/// Panics if `buf` and `other` differ in length.
pub fn unary_grad_inplace(
    op: UnaryGradOp,
    aliased: GradOperand,
    other: TensorView,
    buf: &mut [f32],
) {
    assert_eq!(buf.len(), other.numel(), "unary grad shape mismatch");
    let other = other.data();
    match aliased {
        GradOperand::XOrY => with_unary_grad!(op, |op| for (v, &g) in buf.iter_mut().zip(other) {
            *v = op.apply(*v, g);
        }),
        GradOperand::Dy => with_unary_grad!(op, |op| for (g, &v) in buf.iter_mut().zip(other) {
            *g = op.apply(v, *g);
        }),
    }
}

/// Adds a per-channel bias to an activation, writing into a preallocated
/// `out`.
///
/// For rank-4 activations `[N, C, H, W]` the bias has shape `[C]`; for rank-2
/// activations `[N, F]` the bias has shape `[F]`; rank-3 `[N, T, F]` uses a
/// `[F]` bias over the trailing dimension.
///
/// # Panics
///
/// Panics on unsupported ranks or bias/output length mismatches.
pub fn add_bias_into(x: TensorView, bias: TensorView, out: &mut [f32]) {
    assert_eq!(out.len(), x.numel(), "add_bias output length mismatch");
    let dims = x.dims();
    match dims.len() {
        2 | 3 => {
            let f = *dims.last().expect("rank >= 2");
            assert_eq!(bias.numel(), f, "bias length mismatch");
            rows_into(x.data(), bias.data(), out, |v, b| v + b);
        }
        4 => {
            let (c, h, w) = (dims[1], dims[2], dims[3]);
            assert_eq!(bias.numel(), c, "bias length mismatch");
            let hw = h * w;
            for (i, (o, &v)) in out.iter_mut().zip(x.data()).enumerate() {
                *o = v + bias.data()[(i / hw) % c];
            }
        }
        r => panic!("add_bias unsupported rank {r}"),
    }
}

/// VJP of [`add_bias_into`] with respect to the bias: sums the upstream
/// gradient over every non-channel dimension into a preallocated `out`.
///
/// `out` is fully overwritten (zero-filled first, then accumulated).
///
/// # Panics
///
/// Panics on unsupported ranks or a wrong `out` length.
pub fn bias_grad_into(dy: TensorView, out: &mut [f32]) {
    let dims = dy.dims();
    out.fill(0.0);
    match dims.len() {
        2 | 3 => {
            let f = *dims.last().expect("rank >= 2");
            assert_eq!(out.len(), f, "bias_grad output length mismatch");
            // Row by row: each column still sums its rows in ascending order.
            for row in dy.data().chunks_exact(f.max(1)) {
                for (o, &g) in out.iter_mut().zip(row) {
                    *o += g;
                }
            }
        }
        4 => {
            let (c, h, w) = (dims[1], dims[2], dims[3]);
            assert_eq!(out.len(), c, "bias_grad output length mismatch");
            let hw = h * w;
            for (i, &g) in dy.data().iter().enumerate() {
                out[(i / hw) % c] += g;
            }
        }
        r => panic!("bias_grad unsupported rank {r}"),
    }
}

/// The per-element index-arithmetic loops `add_bias_into` and
/// `bias_grad_into` were before their rank-2/3 arms became row loops; the
/// tests hold the kernels to these bit for bit, on every rank.
#[cfg(test)]
mod oracle {
    use super::*;

    fn addressing(dims: &[usize]) -> (usize, usize) {
        match *dims {
            [_, c, h, w] => (h * w, c),
            [.., f] => (1, f),
            [] => panic!("rank 0"),
        }
    }

    pub(crate) fn add_bias_into(x: TensorView, bias: &[f32], out: &mut [f32]) {
        let (hw, c) = addressing(x.dims());
        for (i, (o, &v)) in out.iter_mut().zip(x.data()).enumerate() {
            *o = v + bias[(i / hw) % c];
        }
    }

    pub(crate) fn bias_grad_into(dy: TensorView, out: &mut [f32]) {
        let (hw, c) = addressing(dy.dims());
        out.fill(0.0);
        for (i, &g) in dy.data().iter().enumerate() {
            out[(i / hw) % c] += g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::run_into;
    use crate::{Rng, Tensor};

    /// `op(a, b)` into a tensor of the broadcast shape.
    fn binary(op: BinaryOp, a: &Tensor, b: &Tensor) -> Tensor {
        let dims = a.shape().broadcast_with(b.shape()).expect("broadcastable");
        run_into(dims, |o| binary_into(op, a.view(), b.view(), o))
    }

    fn unary(op: UnaryOp, x: &Tensor) -> Tensor {
        run_into(x.dims(), |o| unary_into(op, x.view(), o))
    }

    fn unary_grad(op: UnaryGradOp, x_or_y: &Tensor, dy: &Tensor) -> Tensor {
        let (v, g) = (x_or_y.view(), dy.view());
        run_into(dy.dims(), |o| unary_grad_into(op, v, g, o))
    }

    #[test]
    fn add_same_shape() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], [2]);
        assert_eq!(binary(BinaryOp::Add, &a, &b).data(), &[11.0, 22.0]);
        assert_eq!(binary(BinaryOp::Mul, &a, &b).data(), &[10.0, 40.0]);
    }

    #[test]
    fn broadcast_row_vector() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], [3]);
        let c = binary(BinaryOp::Add, &a, &b);
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcast_column_vector() {
        let a = Tensor::ones([2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0], [2, 1]);
        let c = binary(BinaryOp::Mul, &a, &b);
        assert_eq!(c.data(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn reduce_to_shape_undoes_broadcast() {
        let g = Tensor::ones([2, 3]);
        let r = run_into([3], |o| reduce_to_shape_into(g.view(), &[3], o));
        assert_eq!(r.dims(), &[3]);
        assert_eq!(r.data(), &[2.0, 2.0, 2.0]);
        let r = run_into([2, 1], |o| reduce_to_shape_into(g.view(), &[2, 1], o));
        assert_eq!(r.data(), &[3.0, 3.0]);
    }

    #[test]
    fn relu_and_grad() {
        let x = Tensor::from_vec(vec![-1.0, 0.5, 2.0], [3]);
        let dy = Tensor::ones([3]);
        assert_eq!(unary(UnaryOp::Relu, &x).data(), &[0.0, 0.5, 2.0]);
        let grad = unary_grad(UnaryGradOp::Relu, &x, &dy);
        assert_eq!(grad.data(), &[0.0, 1.0, 1.0]);
        let x6 = Tensor::from_vec(vec![-1.0, 3.0, 8.0], [3]);
        assert_eq!(unary(UnaryOp::Relu6, &x6).data(), &[0.0, 3.0, 6.0]);
        let grad = unary_grad(UnaryGradOp::Relu6, &x6, &dy);
        assert_eq!(grad.data(), &[0.0, 1.0, 0.0]);
    }

    /// Finite-difference check for a scalar activation and its VJP.
    fn check_grad(f: UnaryOp, g: UnaryGradOp) {
        let mut rng = Rng::seed_from_u64(9);
        let x = Tensor::randn([16], 1.0, &mut rng);
        let dy = Tensor::ones([16]);
        let analytic = unary_grad(g, &x, &dy);
        let f = |x: &Tensor| unary(f, x);
        let eps = 1e-3;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (f(&xp).data()[i] - f(&xm).data()[i]) / (2.0 * eps);
            assert!(
                (fd - analytic.data()[i]).abs() < 2e-2,
                "index {i}: fd {fd} vs analytic {}",
                analytic.data()[i]
            );
        }
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        check_grad(UnaryOp::Gelu, UnaryGradOp::Gelu);
    }

    #[test]
    fn silu_grad_matches_finite_difference() {
        check_grad(UnaryOp::Silu, UnaryGradOp::Silu);
    }

    #[test]
    fn sigmoid_tanh_grads_from_output() {
        let mut rng = Rng::seed_from_u64(10);
        let x = Tensor::randn([8], 1.0, &mut rng);
        let dy = Tensor::ones([8]);
        let sigmoid = |x: &Tensor| unary(UnaryOp::Sigmoid, x);
        let y = sigmoid(&x);
        let analytic = unary_grad(UnaryGradOp::Sigmoid, &y, &dy);
        let eps = 1e-3;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (sigmoid(&xp).data()[i] - sigmoid(&xm).data()[i]) / (2.0 * eps);
            assert!((fd - analytic.data()[i]).abs() < 1e-2);
        }
        let tanh = |x: &Tensor| unary(UnaryOp::Tanh, x);
        let y = tanh(&x);
        let analytic = unary_grad(UnaryGradOp::Tanh, &y, &dy);
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (tanh(&xp).data()[i] - tanh(&xm).data()[i]) / (2.0 * eps);
            assert!((fd - analytic.data()[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn bias_add_rank2_and_rank4() {
        let x = Tensor::zeros([2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        let y = run_into(x.dims(), |o| add_bias_into(x.view(), b.view(), o));
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);

        let x = Tensor::zeros([1, 2, 2, 2]);
        let b = Tensor::from_vec(vec![5.0, 7.0], [2]);
        let y = run_into(x.dims(), |o| add_bias_into(x.view(), b.view(), o));
        assert_eq!(y.data(), &[5.0, 5.0, 5.0, 5.0, 7.0, 7.0, 7.0, 7.0]);
    }

    #[test]
    fn bias_grad_sums_over_non_channel_dims() {
        let bias_grad = |dy: &Tensor| run_into([3], |o| bias_grad_into(dy.view(), o));
        let dy = Tensor::ones([2, 3]);
        assert_eq!(bias_grad(&dy).data(), &[2.0, 2.0, 2.0]);
        let dy = Tensor::ones([2, 3, 4, 4]);
        assert_eq!(bias_grad(&dy).data(), &[32.0, 32.0, 32.0]);
        let dy = Tensor::ones([2, 5, 3]);
        assert_eq!(bias_grad(&dy).data(), &[10.0, 10.0, 10.0]);
    }

    #[test]
    fn scale_multiplies() {
        let x = Tensor::from_vec(vec![1.0, -2.0], [2]);
        assert_eq!(unary(UnaryOp::Scale(0.5), &x).data(), &[0.5, -1.0]);
    }

    #[test]
    #[should_panic(expected = "not broadcastable")]
    fn incompatible_broadcast_panics() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 5]);
        binary_into(BinaryOp::Add, a.view(), b.view(), &mut [0.0; 20]);
    }

    #[test]
    fn exp_edges_are_pinned() {
        assert!(exp(f32::NAN).is_nan(), "NaN must not become finite");
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        // Underflow flushes to exactly zero: a masked logit gets no weight.
        for x in [-87.34, -100.0, -1e9, f32::MIN, f32::NEG_INFINITY] {
            assert_eq!(exp(x).to_bits(), 0.0f32.to_bits(), "exp({x})");
        }
        assert!(exp(-87.33) >= f32::MIN_POSITIVE);
        // Overflow saturates to +inf.
        for x in [88.7, 88.73, 1e9, f32::MAX, f32::INFINITY] {
            assert_eq!(exp(x), f32::INFINITY, "exp({x})");
        }
        assert!(exp(88.0).is_finite());
        // The sigmoids built on it saturate instead of going NaN.
        assert_eq!(UnaryOp::Sigmoid.apply(-1e9), 0.0);
        assert_eq!(UnaryOp::Sigmoid.apply(1e9), 1.0);
        assert!(UnaryOp::Sigmoid.apply(f32::NAN).is_nan());
        assert_eq!(UnaryOp::Gelu.apply(-1e9), 0.0);
        assert_eq!(UnaryOp::Gelu.apply(30.0), 30.0);
        assert!(UnaryOp::Gelu.apply(f32::NAN).is_nan());
    }

    #[test]
    fn exp_matches_f64_on_a_dense_grid() {
        let steps = 1_750_000;
        let mut worst = 0.0f64;
        for i in 0..=steps {
            let x = (-87.0 + 175.0 * i as f64 / steps as f64) as f32;
            let want = (x as f64).exp();
            worst = worst.max(((exp(x) as f64 - want) / want).abs());
        }
        assert!(worst <= 2e-7, "worst relative error {worst:e}");
    }

    /// `v · σ(2u)` and its derivative in f64.
    fn gelu_f64(v: f64) -> (f64, f64) {
        let c = (2.0 / std::f64::consts::PI).sqrt();
        let s = 1.0 / (1.0 + (-2.0 * c * (v + 0.044_715 * v * v * v)).exp());
        let du = c * (1.0 + 3.0 * 0.044_715 * v * v);
        (v * s, s + 2.0 * v * s * (1.0 - s) * du)
    }

    #[test]
    fn gelu_and_its_vjp_match_f64() {
        let steps = 240_000;
        for i in 0..=steps {
            let v = (-12.0 + 24.0 * i as f64 / steps as f64) as f32;
            let (want, want_grad) = gelu_f64(v as f64);
            // Relative 1e-5 down to v = -6 (measured 3.7e-6). Further out
            // |2u| > 25 multiplies the f32 rounding of `u` itself into the
            // exponent (measured 1.3e-5), and past 2u = -88.4 (v < -10) the
            // result flushes to zero: a looser bound and an absolute floor.
            let (rel, floor) = if v >= -6.0 {
                (1e-5, 0.0)
            } else {
                (2e-5, 1e-36)
            };
            let got = UnaryOp::Gelu.apply(v) as f64;
            assert!(
                (got - want).abs() <= rel * want.abs() + floor,
                "gelu({v}) = {got:e}, want {want:e}"
            );
            // The derivative crosses zero at v = -0.75: 2e-7 absolute there.
            let got = UnaryGradOp::Gelu.apply(v, 1.0) as f64;
            assert!(
                (got - want_grad).abs() <= rel * want_grad.abs() + floor.max(2e-7),
                "gelu'({v}) = {got:e}, want {want_grad:e}"
            );
        }
    }

    const UNARY_OPS: [UnaryOp; 7] = [
        UnaryOp::Relu,
        UnaryOp::Relu6,
        UnaryOp::Gelu,
        UnaryOp::Silu,
        UnaryOp::Sigmoid,
        UnaryOp::Tanh,
        UnaryOp::Scale(0.37),
    ];
    const UNARY_GRAD_OPS: [UnaryGradOp; 6] = [
        UnaryGradOp::Relu,
        UnaryGradOp::Relu6,
        UnaryGradOp::Gelu,
        UnaryGradOp::Silu,
        UnaryGradOp::Sigmoid,
        UnaryGradOp::Tanh,
    ];

    /// Bit equality, except that any NaN equals any NaN: which operand's
    /// sign and payload a NaN result inherits is the instruction
    /// selector's choice, not the kernel's.
    fn assert_same(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {k} is {g:e}, want {w:e}"
            );
        }
    }

    /// A padded serving batch must give each row the bits the lone request
    /// gets: element `k` of a long (vectorised) buffer equals the same value
    /// run through the same kernel in a 1-element buffer.
    #[test]
    fn an_element_in_a_long_buffer_has_the_bits_of_the_lone_element() {
        const N: usize = 1003; // 17 * 59: odd, so every loop has a scalar tail
        let mut rng = Rng::seed_from_u64(20);
        let mut x = Tensor::randn([17, 59], 3.0, &mut rng);
        let specials = [0.0, -0.0, 90.0, -90.0, 6.0, f32::INFINITY, f32::NAN];
        x.data_mut()[500..500 + specials.len()].copy_from_slice(&specials);
        let dy = Tensor::randn([17, 59], 1.0, &mut rng);
        let (mut out, mut lone) = (vec![0.0f32; N], vec![0.0f32; N]);

        for op in UNARY_OPS {
            let what = format!("{op:?}");
            unary_into(op, x.view(), &mut out);
            for k in 0..N {
                let v = TensorView::new(&[1], &x.data()[k..k + 1]);
                unary_into(op, v, &mut lone[k..k + 1]);
            }
            assert_same(&out, &lone, &what);
            lone.copy_from_slice(x.data());
            unary_inplace(op, &mut lone);
            assert_same(&lone, &out, &what);
        }
        for op in UNARY_GRAD_OPS {
            unary_grad_into(op, x.view(), dy.view(), &mut out);
            for k in 0..N {
                let v = TensorView::new(&[1], &x.data()[k..k + 1]);
                let g = TensorView::new(&[1], &dy.data()[k..k + 1]);
                unary_grad_into(op, v, g, &mut lone[k..k + 1]);
            }
            assert_same(&out, &lone, &format!("{op:?} VJP"));
        }
    }

    /// The in-place VJP gives every element the bits of the out-of-place
    /// one, NaN payloads included, whichever operand it overwrites.
    #[test]
    fn inplace_vjp_has_the_bits_of_unary_grad_into() {
        const N: usize = 1003;
        let mut rng = Rng::seed_from_u64(23);
        let mut x = Tensor::randn([17, 59], 3.0, &mut rng);
        let mut dy = Tensor::randn([17, 59], 1.0, &mut rng);
        let specials = [
            0.0,
            -0.0,
            1.0,
            6.0,
            -6.0,
            90.0,
            -90.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        // Every special against every special, in both operands.
        for (i, &a) in specials.iter().enumerate() {
            for (j, &b) in specials.iter().enumerate() {
                let k = 100 + i * specials.len() + j;
                x.data_mut()[k] = a;
                dy.data_mut()[k] = b;
            }
        }
        let mut want = vec![0.0f32; N];
        for op in UNARY_GRAD_OPS {
            unary_grad_into(op, x.view(), dy.view(), &mut want);
            for (aliased, held, other) in [(GradOperand::XOrY, &x, &dy), (GradOperand::Dy, &dy, &x)]
            {
                let mut buf = held.data().to_vec();
                unary_grad_inplace(op, aliased, other.view(), &mut buf);
                for (k, (g, w)) in buf.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{op:?} over {aliased:?}: element {k} is {g:e}, want {w:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn bias_kernels_match_the_index_arithmetic_loops() {
        let mut rng = Rng::seed_from_u64(21);
        let mut shapes = Vec::new();
        for f in [1, 3, 64, 130] {
            for rows in [1, 7, 128] {
                shapes.push(vec![rows, f]);
                shapes.push(vec![1, rows, f]);
                shapes.push(vec![3, rows, f]);
            }
        }
        // The rank-4 arms did not change; hold them to the same oracle.
        shapes.extend([vec![2, 3, 4, 5], vec![1, 16, 7, 7], vec![3, 1, 1, 9]]);
        for dims in shapes {
            let channels = if dims.len() == 4 {
                dims[1]
            } else {
                dims[dims.len() - 1]
            };
            let x = Tensor::randn(dims.clone(), 2.0, &mut rng);
            let bias = Tensor::randn([channels], 1.0, &mut rng);
            let (mut got, mut want) = (vec![0.0; x.numel()], vec![0.0; x.numel()]);
            add_bias_into(x.view(), bias.view(), &mut got);
            oracle::add_bias_into(x.view(), bias.data(), &mut want);
            assert_same(&got, &want, &format!("add_bias {dims:?}"));
            let zeroed = run_into(x.dims(), |o| add_bias_into(x.view(), bias.view(), o));
            assert_same(zeroed.data(), &want, "add_bias into a zeroed output");
            let (mut got, mut want) = (vec![1.0; channels], vec![2.0; channels]);
            bias_grad_into(x.view(), &mut got);
            oracle::bias_grad_into(x.view(), &mut want);
            assert_same(&got, &want, &format!("bias_grad {dims:?}"));
            let zeroed = run_into([channels], |o| bias_grad_into(x.view(), o));
            assert_same(zeroed.data(), &want, "bias_grad into a zeroed output");
        }
    }

    #[test]
    fn suffix_broadcast_matches_the_general_loop() {
        let mut rng = Rng::seed_from_u64(22);
        let ops = [BinaryOp::Add, BinaryOp::Mul];
        for f in [1, 3, 64, 130] {
            for rows in [1, 7, 128] {
                let big = Tensor::randn([2, rows, f], 1.0, &mut rng);
                for small_dims in [vec![f], vec![rows, f], vec![2, rows, f], vec![]] {
                    let small = Tensor::rand_uniform(small_dims, 0.5, 1.5, &mut rng);
                    let (mut got, mut want) = (vec![0.0; big.numel()], vec![0.0; big.numel()]);
                    for op in ops {
                        // Both operand orders: the broadcast side differs.
                        for (a, b) in [(&big, &small), (&small, &big)] {
                            binary_into(op, a.view(), b.view(), &mut got);
                            broadcast_into(op, a.view(), b.view(), &mut want);
                            let what = format!("{op:?} {:?} {:?}", a.dims(), b.dims());
                            assert_same(&got, &want, &what);
                        }
                    }
                }
            }
        }
    }
}
