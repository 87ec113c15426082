//! General matrix multiplication (GEMM) kernels.
//!
//! `matmul` is the workhorse shared by linear layers, attention, and — via
//! the transpose flags — by every backward pass of a linear layer, exactly as
//! in the paper's Figure 3 where `dY/dW = X^T · G` and `dY/dX = G · W^T` are
//! expressed with the same MatMul primitive.

use crate::{Tensor, TensorView};

/// Output dimensions `[m, n]` of `op(A) · op(B)` for rank-2 operand dims.
///
/// # Panics
///
/// Panics if the operands are not rank-2 or the contraction dimensions do not
/// agree.
pub fn matmul_out_dims(
    a_dims: &[usize],
    b_dims: &[usize],
    trans_a: bool,
    trans_b: bool,
) -> [usize; 2] {
    assert_eq!(a_dims.len(), 2, "matmul lhs must be rank 2");
    assert_eq!(b_dims.len(), 2, "matmul rhs must be rank 2");
    let (m, k) = if trans_a {
        (a_dims[1], a_dims[0])
    } else {
        (a_dims[0], a_dims[1])
    };
    let (kb, n) = if trans_b {
        (b_dims[1], b_dims[0])
    } else {
        (b_dims[0], b_dims[1])
    };
    assert_eq!(k, kb, "matmul contraction dimension mismatch: {k} vs {kb}");
    [m, n]
}

/// 2-D matrix multiplication with optional transposes: `C = op(A) · op(B)`.
///
/// `a` is `[m, k]` (or `[k, m]` when `trans_a`), `b` is `[k, n]`
/// (or `[n, k]` when `trans_b`); the result is `[m, n]`.
///
/// # Panics
///
/// Panics if the operands are not rank-2 or the contraction dimensions do not
/// agree.
pub fn matmul(a: &Tensor, b: &Tensor, trans_a: bool, trans_b: bool) -> Tensor {
    let [m, n] = matmul_out_dims(a.dims(), b.dims(), trans_a, trans_b);
    let mut out = Tensor::zeros([m, n]);
    matmul_into(a.view(), b.view(), trans_a, trans_b, out.data_mut());
    out
}

/// Allocation-free matmul writing into a preallocated `out` of length `m * n`.
///
/// `out` is fully overwritten; its previous contents are ignored.
///
/// # Panics
///
/// Panics on rank/contraction mismatches or if `out` has the wrong length.
pub fn matmul_into(a: TensorView, b: TensorView, trans_a: bool, trans_b: bool, out: &mut [f32]) {
    let [m, n] = matmul_out_dims(a.dims(), b.dims(), trans_a, trans_b);
    let k = if trans_a { a.dims()[0] } else { a.dims()[1] };
    assert_eq!(out.len(), m * n, "matmul output length mismatch");
    matmul_core(a.data(), b.data(), trans_a, trans_b, m, k, n, out);
}

/// `out = op(A) · op(B)` on the dense row-major storage of `matmul_into`.
#[allow(clippy::too_many_arguments)]
fn matmul_core(
    ad: &[f32],
    bd: &[f32],
    trans_a: bool,
    trans_b: bool,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    let a = if trans_a {
        MatRef::transposed(ad, m)
    } else {
        MatRef::row_major(ad, k)
    };
    let b = if trans_b {
        MatRef::transposed(bd, k)
    } else {
        MatRef::row_major(bd, n)
    };
    gemm(m, n, k, a, b, MatMut::row_major(out, n), false);
}

/// A read-only matrix operand of the GEMM core: element `(i, j)` is
/// `data[i * rs + j * cs]`, and one of the two strides is 1.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MatRef<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> MatRef<'a> {
    /// Rows contiguous, `ld` elements apart.
    pub(crate) fn row_major(data: &'a [f32], ld: usize) -> Self {
        MatRef {
            data,
            rs: ld,
            cs: 1,
        }
    }

    /// The transpose of a row-major matrix whose rows are `ld` apart.
    pub(crate) fn transposed(data: &'a [f32], ld: usize) -> Self {
        MatRef {
            data,
            rs: 1,
            cs: ld,
        }
    }

    /// The operand from element `(i, j)` on.
    fn from(self, i: usize, j: usize) -> Self {
        MatRef {
            data: &self.data[i * self.rs + j * self.cs..],
            ..self
        }
    }
}

/// The output operand of the GEMM core, addressed like a [`MatRef`].
#[derive(Debug)]
pub(crate) struct MatMut<'a> {
    data: &'a mut [f32],
    rs: usize,
    cs: usize,
}

impl<'a> MatMut<'a> {
    /// Rows contiguous, `ld` elements apart.
    pub(crate) fn row_major(data: &'a mut [f32], ld: usize) -> Self {
        MatMut {
            data,
            rs: ld,
            cs: 1,
        }
    }

    /// The transpose of a row-major matrix whose rows are `ld` apart.
    pub(crate) fn transposed(data: &'a mut [f32], ld: usize) -> Self {
        MatMut {
            data,
            rs: 1,
            cs: ld,
        }
    }

    /// The operand from element `(i, j)` on.
    fn from(&mut self, i: usize, j: usize) -> MatMut<'_> {
        MatMut {
            data: &mut self.data[i * self.rs + j * self.cs..],
            rs: self.rs,
            cs: self.cs,
        }
    }
}

/// Rows of the register tile: accumulator rows kept live across the `k` loop.
const MR: usize = 4;
/// Columns of the register tile (two 4-lane vectors on a baseline x86-64).
const NR: usize = 8;
/// Contraction block: a `KC x NR` panel of `B` stays in L1 while every row
/// tile of `A` sweeps over it.
const KC: usize = 128;

/// The GEMM core every matmul and convolution lowers onto: `C = A · B`, or
/// `C += A · B` when `accumulate`, for an `m x k` `A` and a `k x n` `B`.
///
/// `k` is blocked by `KC` and `n` by the tile width; each panel of `B` — in
/// place when its rows are contiguous, transposed into 4 KB of stack when its
/// columns are — meets every row tile of `A` in the one microkernel.
///
/// Each output element sums its `k` products in ascending order whatever
/// `m`, `n` and its place in a tile are, so a row computed alone equals the
/// same row computed inside a batch, bit for bit.
pub(crate) fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef,
    b: MatRef,
    mut c: MatMut,
    accumulate: bool,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 && !accumulate {
        for i in 0..m {
            for j in 0..n {
                c.data[i * c.rs + j * c.cs] = 0.0;
            }
        }
    }
    // Only a column-contiguous `B` pays for (and zeroes) the panel, so a
    // small product against a row-major `B` has no set-up at all.
    let mut pack = if b.cs == 1 {
        None
    } else {
        Some([[0.0f32; NR]; KC])
    };
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        let (a, acc) = (a.from(0, k0), accumulate || k0 > 0);
        let mut j0 = 0;
        while j0 < n {
            let width = match n - j0 {
                NR.. => NR,
                4.. => 4,
                _ => 1,
            };
            let bp = match &mut pack {
                None => b.from(k0, j0),
                Some(panel) => {
                    // Columns past `width` repeat the last one; no tile reads them.
                    let cols: [&[f32]; NR] =
                        std::array::from_fn(|j| &b.from(k0, j0 + j.min(width - 1)).data[..kc]);
                    for (p, row) in panel[..kc].iter_mut().enumerate() {
                        *row = std::array::from_fn(|j| cols[j][p]);
                    }
                    MatRef::row_major(panel.as_flattened(), NR)
                }
            };
            match width {
                NR => row_tiles::<NR>(m, kc, a, bp, c.from(0, j0), acc),
                4 => row_tiles::<4>(m, kc, a, bp, c.from(0, j0), acc),
                _ => row_tiles::<1>(m, kc, a, bp, c.from(0, j0), acc),
            }
            j0 += width;
        }
    }
}

/// Every row tile of `A` against one `kc x W` row-major panel of `B`.
#[inline(always)]
fn row_tiles<const W: usize>(
    m: usize,
    kc: usize,
    a: MatRef,
    b: MatRef,
    mut c: MatMut,
    accumulate: bool,
) {
    let mut i0 = 0;
    while i0 + MR <= m {
        tile_of::<MR, W>(kc, a.from(i0, 0), b, c.from(i0, 0), accumulate);
        i0 += MR;
    }
    while i0 < m {
        tile_of::<1, W>(kc, a.from(i0, 0), b, c.from(i0, 0), accumulate);
        i0 += 1;
    }
}

/// One tile, reading `A` by rows or by columns as it is stored.
#[inline(always)]
fn tile_of<const R: usize, const W: usize>(
    kc: usize,
    a: MatRef,
    b: MatRef,
    c: MatMut,
    accumulate: bool,
) {
    if a.cs == 1 {
        let rows: [&[f32]; R] = std::array::from_fn(|i| &a.data[i * a.rs..][..kc]);
        let a_at = |p: usize| std::array::from_fn(|i| rows[i][p]);
        tile::<R, W>(kc, a_at, b, c, accumulate);
    } else {
        let a_at = |p: usize| {
            *a.data[p * a.cs..]
                .first_chunk::<R>()
                .expect("A column holds a full tile height")
        };
        tile::<R, W>(kc, a_at, b, c, accumulate);
    }
}

/// The microkernel: an `R x W` register tile over `kc` contraction steps.
/// The accumulators are fixed-size arrays the autovectoriser keeps in vector
/// registers across the loop; nothing in it depends on the data.
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    kc: usize,
    a_at: impl Fn(usize) -> [f32; R],
    b: MatRef,
    c: MatMut,
    accumulate: bool,
) {
    let mut acc = [[0.0f32; W]; R];
    for p in 0..kc {
        let brow: &[f32; W] = b.data[p * b.rs..]
            .first_chunk()
            .expect("B row holds a full tile width");
        let av = a_at(p);
        for i in 0..R {
            for j in 0..W {
                acc[i][j] += av[i] * brow[j];
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate() {
        if c.cs == 1 {
            let crow: &mut [f32; W] = c.data[i * c.rs..]
                .first_chunk_mut()
                .expect("C row holds a full tile width");
            for j in 0..W {
                crow[j] = if accumulate {
                    crow[j] + acc_row[j]
                } else {
                    acc_row[j]
                };
            }
        } else {
            for (j, &v) in acc_row.iter().enumerate() {
                let cv = &mut c.data[i * c.rs + j * c.cs];
                *cv = if accumulate { *cv + v } else { v };
            }
        }
    }
}

/// Batched matrix multiplication over the leading dimensions.
///
/// `a` is `[..., m, k]` and `b` is `[..., k, n]` (transposes apply to the two
/// trailing dimensions); the leading batch dimensions must match exactly.
///
/// # Panics
///
/// Panics on rank < 2 or mismatched batch/contraction dimensions.
pub fn batched_matmul(a: &Tensor, b: &Tensor, trans_a: bool, trans_b: bool) -> Tensor {
    let dims = batched_matmul_out_dims(a.dims(), b.dims(), trans_a, trans_b);
    let mut out = Tensor::zeros(dims);
    batched_matmul_into(a.view(), b.view(), trans_a, trans_b, out.data_mut());
    out
}

/// Checks the operand dims of a rank > 2 batched matmul and splits them into
/// `(batch dims, m, k, n)` without allocating.
fn batched_matmul_split<'a>(
    a_dims: &'a [usize],
    b_dims: &[usize],
    trans_a: bool,
    trans_b: bool,
) -> (&'a [usize], usize, usize, usize) {
    let (ra, rb) = (a_dims.len(), b_dims.len());
    assert!(ra >= 2 && rb >= 2, "batched_matmul needs rank >= 2");
    assert_eq!(
        ra, rb,
        "batched_matmul requires equal ranks (after broadcasting in the compiler)"
    );
    let batch_dims = &a_dims[..ra - 2];
    assert_eq!(batch_dims, &b_dims[..rb - 2], "batch dimensions mismatch");
    let (am, ak) = (a_dims[ra - 2], a_dims[ra - 1]);
    let (bm, bk) = (b_dims[rb - 2], b_dims[rb - 1]);
    let (m, k) = if trans_a { (ak, am) } else { (am, ak) };
    let (kb, n) = if trans_b { (bk, bm) } else { (bm, bk) };
    assert_eq!(k, kb, "batched_matmul contraction mismatch");
    (batch_dims, m, k, n)
}

/// Output dimensions of a (batched) matmul for the given operand dims.
///
/// # Panics
///
/// Panics on rank < 2 or mismatched batch/contraction dimensions.
pub fn batched_matmul_out_dims(
    a_dims: &[usize],
    b_dims: &[usize],
    trans_a: bool,
    trans_b: bool,
) -> Vec<usize> {
    if a_dims.len() == 2 && b_dims.len() == 2 {
        return matmul_out_dims(a_dims, b_dims, trans_a, trans_b).to_vec();
    }
    let (batch_dims, m, _, n) = batched_matmul_split(a_dims, b_dims, trans_a, trans_b);
    let mut out_dims = batch_dims.to_vec();
    out_dims.push(m);
    out_dims.push(n);
    out_dims
}

/// Allocation-free batched matmul writing into a preallocated `out`.
///
/// `out` is fully overwritten; its previous contents are ignored.
///
/// # Panics
///
/// Panics on rank/batch/contraction mismatches or a wrong `out` length.
pub fn batched_matmul_into(
    a: TensorView,
    b: TensorView,
    trans_a: bool,
    trans_b: bool,
    out: &mut [f32],
) {
    let ra = a.rank();
    if ra == 2 && b.rank() == 2 {
        return matmul_into(a, b, trans_a, trans_b, out);
    }
    let (batch_dims, m, k, n) = batched_matmul_split(a.dims(), b.dims(), trans_a, trans_b);
    let batch: usize = batch_dims.iter().product();
    assert_eq!(out.len(), batch * m * n, "batched_matmul output mismatch");

    let a_stride = a.dims()[ra - 2] * a.dims()[ra - 1];
    let b_stride = b.dims()[ra - 2] * b.dims()[ra - 1];
    for bi in 0..batch {
        matmul_core(
            &a.data()[bi * a_stride..(bi + 1) * a_stride],
            &b.data()[bi * b_stride..(bi + 1) * b_stride],
            trans_a,
            trans_b,
            m,
            k,
            n,
            &mut out[bi * m * n..(bi + 1) * m * n],
        );
    }
}

/// Floating-point operation count of a (batched) matmul with the given
/// operand shapes, counting one multiply-add as two FLOPs.
pub fn matmul_flops(m: usize, k: usize, n: usize, batch: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64) * (batch as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn transpose_flags_are_consistent() {
        let mut rng = Rng::seed_from_u64(2);
        let a = Tensor::randn([4, 6], 1.0, &mut rng);
        let b = Tensor::randn([6, 3], 1.0, &mut rng);
        let reference = matmul(&a, &b, false, false);

        let at = super::super::layout::transpose2d(&a);
        let bt = super::super::layout::transpose2d(&b);
        assert!(matmul(&at, &b, true, false).allclose(&reference, 1e-4));
        assert!(matmul(&a, &bt, false, true).allclose(&reference, 1e-4));
        assert!(matmul(&at, &bt, true, true).allclose(&reference, 1e-4));
    }

    #[test]
    fn identity_is_noop() {
        let mut rng = Rng::seed_from_u64(3);
        let a = Tensor::randn([5, 5], 1.0, &mut rng);
        let i = Tensor::eye(5);
        assert!(matmul(&a, &i, false, false).allclose(&a, 1e-6));
        assert!(matmul(&i, &a, false, false).allclose(&a, 1e-6));
    }

    #[test]
    fn batched_matches_per_batch() {
        let mut rng = Rng::seed_from_u64(4);
        let a = Tensor::randn([2, 3, 4, 5], 1.0, &mut rng);
        let b = Tensor::randn([2, 3, 5, 6], 1.0, &mut rng);
        let c = batched_matmul(&a, &b, false, false);
        assert_eq!(c.dims(), &[2, 3, 4, 6]);
        // Check one arbitrary batch element against a 2-D matmul.
        let a_sub = Tensor::from_vec(a.data()[5 * 20..6 * 20].to_vec(), [4, 5]);
        let b_sub = Tensor::from_vec(b.data()[5 * 30..6 * 30].to_vec(), [5, 6]);
        let expect = matmul(&a_sub, &b_sub, false, false);
        let got = Tensor::from_vec(c.data()[5 * 24..6 * 24].to_vec(), [4, 6]);
        assert!(got.allclose(&expect, 1e-4));
    }

    #[test]
    fn flops_formula() {
        assert_eq!(matmul_flops(2, 3, 4, 1), 48);
        assert_eq!(matmul_flops(2, 3, 4, 5), 240);
    }

    #[test]
    #[should_panic(expected = "contraction dimension mismatch")]
    fn mismatched_inner_dim_panics() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 5]);
        matmul(&a, &b, false, false);
    }

    /// `op(A) · op(B)` in f64 from the operands as stored.
    fn reference(
        a: &Tensor,
        b: &Tensor,
        ta: bool,
        tb: bool,
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<f64> {
        let at = |i: usize, p: usize| a.data()[if ta { p * m + i } else { i * k + p }] as f64;
        let bt = |p: usize, j: usize| b.data()[if tb { j * k + p } else { p * n + j }] as f64;
        let mut out = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] = (0..k).map(|p| at(i, p) * bt(p, j)).sum();
            }
        }
        out
    }

    /// Largest difference relative to the reference's largest magnitude.
    fn rel_err(got: &[f32], want: &[f64]) -> f64 {
        let scale = want.iter().fold(1e-6f64, |m, v| m.max(v.abs()));
        let diff = got.iter().zip(want).map(|(a, b)| (*a as f64 - b).abs());
        diff.fold(0.0f64, f64::max) / scale
    }

    /// Operands of an `m x k` by `k x n` product, stored as the flags say.
    fn operands(
        m: usize,
        k: usize,
        n: usize,
        ta: bool,
        tb: bool,
        rng: &mut Rng,
    ) -> (Tensor, Tensor) {
        let a = Tensor::randn(if ta { [k, m] } else { [m, k] }, 1.0, rng);
        let b = Tensor::randn(if tb { [n, k] } else { [k, n] }, 1.0, rng);
        (a, b)
    }

    #[test]
    fn every_layout_matches_an_f64_reference() {
        // Sizes that do not divide the register tile, and a `k` past one block.
        let mut rng = Rng::seed_from_u64(17);
        for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
            for m in [1, 3, 5, 15, 17, 33] {
                for n in [1, 3, 5, 15, 17, 33] {
                    for k in [1, 5, 33, KC + 3] {
                        let (a, b) = operands(m, k, n, ta, tb, &mut rng);
                        let got = matmul(&a, &b, ta, tb);
                        let err = rel_err(got.data(), &reference(&a, &b, ta, tb, m, k, n));
                        assert!(err <= 1e-5, "{m}x{k}x{n} ta={ta} tb={tb}: {err:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn accumulate_mode_adds_onto_a_strided_output() {
        let mut rng = Rng::seed_from_u64(18);
        let (m, k, n) = (7, 19, 13);
        for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
            let (a, b) = operands(m, k, n, ta, tb, &mut rng);
            let want = reference(&a, &b, ta, tb, m, k, n);
            let am = if ta {
                MatRef::transposed(a.data(), m)
            } else {
                MatRef::row_major(a.data(), k)
            };
            let bm = if tb {
                MatRef::transposed(b.data(), k)
            } else {
                MatRef::row_major(b.data(), n)
            };
            // Row-major with a gap after every row, then transposed.
            for (c_rs, c_cs) in [(n + 2, 1), (1, m + 1)] {
                let mut c = vec![1.5f32; (m + 1) * (n + 2)];
                for _ in 0..2 {
                    let out = if c_cs == 1 {
                        MatMut::row_major(&mut c, c_rs)
                    } else {
                        MatMut::transposed(&mut c, c_cs)
                    };
                    gemm(m, n, k, am, bm, out, true);
                }
                let got: Vec<f32> = (0..m * n).map(|e| c[e / n * c_rs + e % n * c_cs]).collect();
                let twice: Vec<f64> = want.iter().map(|v| 1.5 + 2.0 * v).collect();
                assert!(rel_err(&got, &twice) <= 1e-5, "ta={ta} tb={tb} c_cs={c_cs}");
                let touched = (0..m * n).map(|e| e / n * c_rs + e % n * c_cs);
                let touched: std::collections::HashSet<usize> = touched.collect();
                assert!((0..c.len()).all(|i| touched.contains(&i) || c[i] == 1.5));
            }
        }
    }

    #[test]
    fn a_row_computed_alone_equals_the_row_in_a_batch_bit_for_bit() {
        // The serving stack pads a request into a larger batch and must get
        // the bits the request alone would have produced.
        let mut rng = Rng::seed_from_u64(19);
        let (m, k, n) = (9, 37, 21);
        for tb in [false, true] {
            let (a, b) = operands(m, k, n, false, tb, &mut rng);
            let batch = matmul(&a, &b, false, tb);
            for i in 0..m {
                let row = Tensor::from_vec(a.data()[i * k..(i + 1) * k].to_vec(), [1, k]);
                let alone = matmul(&row, &b, false, tb);
                assert_eq!(
                    alone.data(),
                    &batch.data()[i * n..(i + 1) * n],
                    "row {i} tb={tb}"
                );
            }
        }
    }

    #[test]
    fn zero_times_infinity_is_nan() {
        // No data-dependent skip: IEEE 754 decides, as in any BLAS.
        let a = Tensor::from_vec(vec![0.0, 1.0], [1, 2]);
        let b = Tensor::from_vec(vec![f32::INFINITY, 2.0, 3.0, 4.0], [2, 2]);
        let c = matmul(&a, &b, false, false);
        assert!(c.data()[0].is_nan());
        assert_eq!(c.data()[1], 4.0);
        let bt = super::super::layout::transpose2d(&b);
        assert!(matmul(&a, &bt, false, true).data()[0].is_nan());
    }

    #[test]
    fn empty_contraction_zeroes_the_output() {
        let c = matmul(&Tensor::zeros([2, 0]), &Tensor::zeros([0, 3]), false, false);
        assert_eq!(c.data(), &[0.0; 6]);
    }
}
