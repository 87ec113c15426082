//! General matrix multiplication (GEMM) kernels.
//!
//! [`matmul_into`] is the workhorse shared by linear layers, attention, and — via
//! the transpose flags — by every backward pass of a linear layer, exactly as
//! in the paper's Figure 3 where `dY/dW = X^T · G` and `dY/dX = G · W^T` are
//! expressed with the same MatMul primitive.

use crate::TensorView;

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

/// 2-D matrix multiplication with optional transposes, `C = op(A) · op(B)`,
/// writing into a preallocated `out` of length `m * n`.
///
/// `a` is `[m, k]` (or `[k, m]` when `trans_a`), `b` is `[k, n]`
/// (or `[n, k]` when `trans_b`). `out` is fully overwritten; its previous
/// contents are ignored.
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

/// Rows of the portable register tile: accumulator rows kept live across the
/// `k` loop.
const MR: usize = 4;
/// Columns of the portable register tile (two 4-lane vectors on a baseline
/// x86-64).
const NR: usize = 8;
/// Contraction block: a `KC`-row panel of `B` stays in L1 while every row
/// tile of `A` sweeps over it.
const KC: usize = 128;

/// The GEMM microkernel this process runs: `"avx2"` when the CPU has AVX2
/// (detected at run time), `"portable"` otherwise. Both give the same bits.
pub fn simd_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "portable"
}

/// The GEMM core every matmul and convolution lowers onto: `C = A · B`, or
/// `C += A · B` when `accumulate`, for an `m x k` `A` and a `k x n` `B`.
///
/// Runs the AVX2 microkernels when the CPU has them and the portable ones
/// otherwise, both through the one blocking loop [`drive`], which fixes how
/// every output element is rounded — so which path ran never shows in the
/// result.
pub(crate) fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef,
    b: MatRef,
    c: MatMut,
    accumulate: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the running CPU supports AVX2, detected just above.
        return unsafe { avx2::gemm(m, n, k, a, b, c, accumulate) };
    }
    portable(m, n, k, a, b, c, accumulate);
}

/// [`gemm`] on the autovectorised `MR x NR` tile.
fn portable(m: usize, n: usize, k: usize, a: MatRef, b: MatRef, c: MatMut, accumulate: bool) {
    drive::<NR>(
        m,
        n,
        k,
        a,
        b,
        c,
        accumulate,
        |width, kc, a, b, c, acc| match width {
            NR => row_tiles::<NR>(m, kc, a, b, c, acc),
            4 => row_tiles::<4>(m, kc, a, b, c, acc),
            _ => row_tiles::<1>(m, kc, a, b, c, acc),
        },
    );
}

/// The blocking loop of every tile family, for `B` panels `P` columns wide:
/// `k` is blocked by `KC` and `n` by the widest tile that fits (`P`, 8, 4,
/// 1); each panel of `B` — in place when its rows are contiguous, transposed
/// into `KC x P` floats of stack when its columns are — meets every row tile
/// of `A` in `tiles(width, kc, A, B, C, accumulate)`.
///
/// Every tile starts each output element of a `KC` block from zero, adds the
/// block's products in ascending `k` (each product and sum rounded once) and
/// then stores the block sum, or adds it onto `C`. Nothing else touches `C`,
/// so an element's bits depend on neither `m`, `n`, its place in a tile nor
/// the tile family: a row computed alone equals the same row inside a batch,
/// and the AVX2 path equals the portable one.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn drive<const P: usize>(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef,
    b: MatRef,
    mut c: MatMut,
    accumulate: bool,
    tiles: impl Fn(usize, usize, MatRef, MatRef, MatMut, bool),
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
        Some([[0.0f32; P]; KC])
    };
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        let (a, acc) = (a.from(0, k0), accumulate || k0 > 0);
        let mut j0 = 0;
        while j0 < n {
            let width = match n - j0 {
                rest if rest >= P => P,
                8.. => 8,
                4.. => 4,
                _ => 1,
            };
            let bp = match &mut pack {
                None => b.from(k0, j0),
                Some(panel) => {
                    // Columns past `width` repeat the last one; no tile reads them.
                    let cols: [&[f32]; P] =
                        std::array::from_fn(|j| &b.from(k0, j0 + j.min(width - 1)).data[..kc]);
                    for (p, row) in panel[..kc].iter_mut().enumerate() {
                        *row = std::array::from_fn(|j| cols[j][p]);
                    }
                    MatRef::row_major(panel.as_flattened(), P)
                }
            };
            tiles(width, kc, a, bp, c.from(0, j0), acc);
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

/// The portable microkernel: an `R x W` register tile over `kc` contraction
/// steps. The accumulators are fixed-size arrays the autovectoriser keeps in
/// vector registers across the loop; nothing in it depends on the data.
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
    store(&acc, c, accumulate);
}

/// Writes a finished tile's block sums: `C = acc`, or `C += acc` when
/// `accumulate`.
#[inline(always)]
fn store<const R: usize, const W: usize>(acc: &[[f32; W]; R], c: MatMut, accumulate: bool) {
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

/// The AVX2 tiles: 6 rows by two 8-lane vectors, 12 `__m256` accumulators
/// with `B` read by two unaligned loads and `A` broadcast per `k`. Products
/// and sums are separate `mul`/`add` instructions — no FMA, whose single
/// rounding would give other bits than the portable tile.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    use super::{drive, store, MatMut, MatRef};

    /// Rows of the AVX2 register tile.
    const MR: usize = 6;
    /// Columns of the AVX2 register tile, and the packed panel width.
    const NR: usize = 16;

    /// [`super::gemm`] on the AVX2 tiles: `6 x 16` and its row remainders,
    /// 8-wide for the first column remainder, the portable 4- and 1-wide
    /// tiles (compiled for AVX2 here) for the rest.
    #[target_feature(enable = "avx2")]
    pub(super) fn gemm(
        m: usize,
        n: usize,
        k: usize,
        a: MatRef,
        b: MatRef,
        c: MatMut,
        accumulate: bool,
    ) {
        drive::<NR>(
            m,
            n,
            k,
            a,
            b,
            c,
            accumulate,
            |width, kc, a, b, c, acc| match width {
                NR => row_tiles::<NR>(m, kc, a, b, c, acc),
                8 => row_tiles::<8>(m, kc, a, b, c, acc),
                4 => super::row_tiles::<4>(m, kc, a, b, c, acc),
                _ => super::row_tiles::<1>(m, kc, a, b, c, acc),
            },
        );
    }

    /// Every row tile of `A` against one `kc x W` panel: `MR` rows at a
    /// time, then one tile of the remaining 1..=5.
    #[target_feature(enable = "avx2")]
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
            tile::<MR, W>(kc, a.from(i0, 0), b, c.from(i0, 0), accumulate);
            i0 += MR;
        }
        if i0 < m {
            let (a, c) = (a.from(i0, 0), c.from(i0, 0));
            match m - i0 {
                1 => tile::<1, W>(kc, a, b, c, accumulate),
                2 => tile::<2, W>(kc, a, b, c, accumulate),
                3 => tile::<3, W>(kc, a, b, c, accumulate),
                4 => tile::<4, W>(kc, a, b, c, accumulate),
                _ => tile::<5, W>(kc, a, b, c, accumulate),
            }
        }
    }

    /// One `R x W` tile (`W` is 8 or 16: one or two vectors per row), stored
    /// through a stack temporary by the portable [`store`].
    #[target_feature(enable = "avx2")]
    #[inline]
    fn tile<const R: usize, const W: usize>(
        kc: usize,
        a: MatRef,
        b: MatRef,
        c: MatMut,
        accumulate: bool,
    ) {
        let vectors = W / 8;
        let mut acc = [[_mm256_setzero_ps(); 2]; R];
        assert!(
            b.cs == 1 && holds(b, kc, W),
            "B holds kc rows of the tile width"
        );
        assert!(holds(a, R, kc), "A holds the tile's rows");
        let (ap, bp) = (a.data.as_ptr(), b.data.as_ptr());
        for p in 0..kc {
            let mut bv = [_mm256_setzero_ps(); 2];
            for (v, bv) in bv.iter_mut().enumerate().take(vectors) {
                // SAFETY: `p < kc` and `8 * v + 8 <= W`, inside the B rows asserted above.
                *bv = unsafe { _mm256_loadu_ps(bp.add(p * b.rs + 8 * v)) };
            }
            for (i, acc_row) in acc.iter_mut().enumerate() {
                // SAFETY: `i < R` and `p < kc`, inside the A rows asserted above.
                let ai = _mm256_set1_ps(unsafe { *ap.add(i * a.rs + p * a.cs) });
                for v in 0..vectors {
                    acc_row[v] = _mm256_add_ps(acc_row[v], _mm256_mul_ps(ai, bv[v]));
                }
            }
        }
        let mut sums = [[0.0f32; W]; R];
        for (row, acc_row) in sums.iter_mut().zip(&acc) {
            for (v, &sum) in acc_row.iter().enumerate().take(vectors) {
                // SAFETY: `8 * v + 8 <= W` floats of `row`.
                unsafe { _mm256_storeu_ps(row[8 * v..].as_mut_ptr(), sum) };
            }
        }
        store(&sums, c, accumulate);
    }

    /// Whether every element `(i, j)`, `i < rows`, `j < cols`, of `x` lies
    /// inside its data — the bound the pointer reads rely on, so no product
    /// may wrap.
    fn holds(x: MatRef, rows: usize, cols: usize) -> bool {
        if rows == 0 || cols == 0 {
            return true;
        }
        let last = (rows - 1)
            .checked_mul(x.rs)
            .zip((cols - 1).checked_mul(x.cs))
            .and_then(|(r, c)| r.checked_add(c));
        last.is_some_and(|last| last < x.data.len())
    }
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

/// Batched matrix multiplication writing into a preallocated `out` of
/// dims `[..., m, n]`.
///
/// `a` is `[..., m, k]` and `b` is `[..., k, n]` (transposes apply to the two
/// trailing dimensions); the leading batch dimensions must match exactly.
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
    use crate::kernels::layout::transpose2d_into;
    use crate::kernels::run_into;
    use crate::{Rng, Tensor};

    fn matmul(a: &Tensor, b: &Tensor, trans_a: bool, trans_b: bool) -> Tensor {
        let dims = matmul_out_dims(a.dims(), b.dims(), trans_a, trans_b);
        let (a, b) = (a.view(), b.view());
        run_into(dims, |o| matmul_into(a, b, trans_a, trans_b, o))
    }

    fn transpose2d(x: &Tensor) -> Tensor {
        let dims = [x.dims()[1], x.dims()[0]];
        run_into(dims, |o| transpose2d_into(x.view(), o))
    }

    #[test]
    fn transpose_flags_are_consistent() {
        let mut rng = Rng::seed_from_u64(2);
        let a = Tensor::randn([4, 6], 1.0, &mut rng);
        let b = Tensor::randn([6, 3], 1.0, &mut rng);
        let reference = matmul(&a, &b, false, false);

        let at = transpose2d(&a);
        let bt = transpose2d(&b);
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
        let (av, bv) = (a.view(), b.view());
        let c = run_into([2, 3, 4, 6], |o| {
            batched_matmul_into(av, bv, false, false, o)
        });
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
        matmul_into(a.view(), b.view(), false, false, &mut [0.0; 10]);
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
        // the bits the request alone would have produced: an odd shape, and
        // the serve MLP's first layer (`x[m, 32] · W[64, 32]ᵀ`) at each batch
        // its ladder pads to.
        let mut rng = Rng::seed_from_u64(19);
        let shapes = [
            (9, 37, 21),
            (1, 32, 64),
            (2, 32, 64),
            (4, 32, 64),
            (8, 32, 64),
        ];
        for (m, k, n) in shapes {
            for tb in [false, true] {
                let (a, b) = operands(m, k, n, false, tb, &mut rng);
                let batch = matmul(&a, &b, false, tb);
                for i in 0..m {
                    let row = Tensor::from_vec(a.data()[i * k..(i + 1) * k].to_vec(), [1, k]);
                    let alone = matmul(&row, &b, false, tb);
                    let case = format!("row {i} of {m}x{k}x{n} tb={tb}");
                    assert_same_bits(&case, alone.data(), &batch.data()[i * n..][..n]);
                }
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
        let bt = transpose2d(&b);
        assert!(matmul(&a, &bt, false, true).data()[0].is_nan());
    }

    #[test]
    fn empty_contraction_zeroes_the_output() {
        let c = matmul(&Tensor::zeros([2, 0]), &Tensor::zeros([0, 3]), false, false);
        assert_eq!(c.data(), &[0.0; 6]);
    }

    /// `gemm` through the portable driver and through the AVX2 entry, each on
    /// its own copy of `c` laid out as `(rs, cs)`; `None` without AVX2.
    #[allow(clippy::too_many_arguments)]
    fn both_paths(
        m: usize,
        n: usize,
        k: usize,
        a: MatRef,
        b: MatRef,
        c: &[f32],
        (rs, cs): (usize, usize),
        accumulate: bool,
    ) -> Option<[Vec<f32>; 2]> {
        let mut portable_c = c.to_vec();
        let out = MatMut {
            data: &mut portable_c,
            rs,
            cs,
        };
        portable(m, n, k, a, b, out, accumulate);
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            let mut avx2_c = c.to_vec();
            let out = MatMut {
                data: &mut avx2_c,
                rs,
                cs,
            };
            // SAFETY: the running CPU supports AVX2, detected just above.
            unsafe { avx2::gemm(m, n, k, a, b, out, accumulate) };
            return Some([portable_c, avx2_c]);
        }
        None
    }

    /// Seeded `op(A) · op(B)` with `C` row-major (a 2-float gap after every
    /// row) or transposed (a 1-float gap), through both paths; asserts every
    /// bit of `C`, gaps included, agrees and returns how many floats it
    /// compared.
    #[allow(clippy::too_many_arguments)]
    fn assert_paths_agree(
        what: &str,
        m: usize,
        k: usize,
        n: usize,
        (ta, tb): (bool, bool),
        c_transposed: bool,
        accumulate: bool,
        rng: &mut Rng,
    ) -> usize {
        let (a, b) = operands(m, k, n, ta, tb, rng);
        let a = if ta {
            MatRef::transposed(a.data(), m)
        } else {
            MatRef::row_major(a.data(), k)
        };
        let b = if tb {
            MatRef::transposed(b.data(), k)
        } else {
            MatRef::row_major(b.data(), n)
        };
        let (layout, len) = if c_transposed {
            ((1, m + 1), n * (m + 1))
        } else {
            ((n + 2, 1), m * (n + 2))
        };
        let c = Tensor::randn([len], 1.0, rng);
        let [want, got] = both_paths(m, n, k, a, b, c.data(), layout, accumulate)
            .expect("the caller checked that this CPU has AVX2");
        let case =
            format!("{what}: {m}x{k}x{n} ta={ta} tb={tb} c_t={c_transposed} acc={accumulate}");
        assert_same_bits(&case, &want, &got);
        len
    }

    fn assert_same_bits(case: &str, want: &[f32], got: &[f32]) {
        let differ = want
            .iter()
            .zip(got)
            .position(|(w, g)| w.to_bits() != g.to_bits());
        if let Some(e) = differ {
            panic!(
                "{case}: element {e} is {} portable, {} AVX2",
                want[e], got[e]
            );
        }
    }

    /// Whether this CPU runs the AVX2 tiles; says so when it skips them.
    fn avx2_or_skip() -> bool {
        let avx2 = simd_path() == "avx2";
        if !avx2 {
            eprintln!("skipped: this CPU has no AVX2, so only the portable tiles exist");
        }
        avx2
    }

    const LAYOUTS: [(bool, bool); 4] = [(false, false), (false, true), (true, false), (true, true)];

    #[test]
    fn the_avx2_tiles_equal_the_portable_tiles_bit_for_bit_on_every_remainder() {
        if !avx2_or_skip() {
            return;
        }
        // Every row remainder of the 6-row tile and every column remainder
        // of the 16-, 8-, 4- and 1-wide tiles, `k` around one `KC` block.
        let mut rng = Rng::seed_from_u64(23);
        let mut compared = 0;
        for m in 1..=13 {
            for n in [1, 3, 4, 7, 8, 12, 15, 16, 17, 33] {
                for k in [0, 1, 16, 127, 128, 129, 300] {
                    for flags in LAYOUTS {
                        for c_transposed in [false, true] {
                            for accumulate in [false, true] {
                                compared += assert_paths_agree(
                                    "grid",
                                    m,
                                    k,
                                    n,
                                    flags,
                                    c_transposed,
                                    accumulate,
                                    &mut rng,
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(compared > 1_000_000, "compared only {compared} floats");
    }

    #[test]
    fn the_avx2_tiles_equal_the_portable_tiles_on_the_benchmark_shapes() {
        if !avx2_or_skip() {
            return;
        }
        let (nn, nt, tn) = ((false, false), (false, true), (true, false));
        let shapes = [
            // The encoder's linears (hidden 64, FFN 128, 128 tokens): NT
            // forward, NN input gradient, TN weight gradient.
            ("linear", 128, 64, 64, nt),
            ("ffn up", 128, 64, 128, nt),
            ("ffn down", 128, 128, 64, nt),
            ("linear dx", 128, 64, 64, nn),
            ("ffn up dx", 128, 128, 64, nn),
            ("ffn down dx", 128, 64, 128, nn),
            ("linear dw", 64, 128, 64, tn),
            ("ffn up dw", 128, 128, 64, tn),
            ("ffn down dw", 64, 128, 128, tn),
            // Attention per head (32 tokens, head 16): scores, context and
            // their gradients.
            ("bmm scores", 32, 16, 32, nt),
            ("bmm context", 32, 32, 16, nn),
            ("bmm d-scores", 32, 16, 32, nt),
            ("bmm d-keys", 32, 32, 16, tn),
            // MobileNetV2-tiny: the stem (3 -> 8, 3x3 stride 2 onto 8x8, one
            // 27 x 64 patch panel) forward and weight gradient, a 1x1
            // expansion (8 -> 16 on 8x8) forward, input and weight gradient.
            ("stem", 8, 27, 64, nn),
            ("stem dw", 27, 64, 8, nt),
            ("1x1", 16, 8, 64, nn),
            ("1x1 dx", 8, 16, 64, tn),
            ("1x1 dw", 16, 64, 8, nt),
            // The serve MLP's first layer at one row and at a full rung.
            ("serve mlp", 1, 32, 64, nt),
            ("serve mlp", 8, 32, 64, nt),
        ];
        let mut rng = Rng::seed_from_u64(24);
        for (what, m, k, n, flags) in shapes {
            for c_transposed in [false, true] {
                for accumulate in [false, true] {
                    assert_paths_agree(what, m, k, n, flags, c_transposed, accumulate, &mut rng);
                }
            }
        }
    }

    #[test]
    fn the_avx2_tiles_propagate_nan_like_the_portable_tiles() {
        if !avx2_or_skip() {
            return;
        }
        // `0 · inf` and a NaN operand poison exactly their own outputs.
        let (m, k, n) = (7, 5, 19);
        let mut rng = Rng::seed_from_u64(25);
        let (mut a, mut b) = operands(m, k, n, false, false, &mut rng);
        a.data_mut()[2 * k + 1] = 0.0;
        b.data_mut()[n + 17] = f32::INFINITY;
        a.data_mut()[5 * k + 3] = f32::NAN;
        let (a, b) = (
            MatRef::row_major(a.data(), k),
            MatRef::row_major(b.data(), n),
        );
        let [want, got] =
            both_paths(m, n, k, a, b, &vec![0.0; m * n], (n, 1), false).expect("AVX2 detected");
        assert_same_bits("0 * inf", &want, &got);
        let nan: Vec<usize> = (0..m * n).filter(|&e| got[e].is_nan()).collect();
        let mut poisoned: Vec<usize> = (5 * n..6 * n).collect();
        poisoned.push(2 * n + 17);
        poisoned.sort();
        assert_eq!(nan, poisoned);
        // Elsewhere the infinite column stays infinite.
        assert!((0..m).all(|i| i == 2 || i == 5 || got[i * n + 17].is_infinite()));
    }
}
