//! Layout transformation kernels: transpose, permute (NCHW/NHWC conversion
//! is a permute), concatenation and channel slicing.
//!
//! Layout transforms are one of the training-graph optimisations the paper
//! applies at compile time (§3.2): NCHW is preferred on server GPUs but NHWC
//! is faster on mobile CPUs/DSPs, so the compiler rewrites layouts before
//! code generation.

use crate::kernels::elementwise::{pad_dims, padded_strides, MAX_RANK};
use crate::TensorView;

/// Inverse permutation: permuting by `perm` and then by `inverse_perm(perm)`
/// restores the original layout.
pub fn inverse_perm(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

/// Transposes a rank-2 tensor into a preallocated `out`.
///
/// # Panics
///
/// Panics if the input is not rank 2 or `out` has the wrong length.
pub fn transpose2d_into(x: TensorView, out: &mut [f32]) {
    assert_eq!(x.rank(), 2, "transpose2d requires rank 2");
    assert_eq!(out.len(), x.numel(), "transpose2d output length mismatch");
    let (m, n) = (x.dims()[0], x.dims()[1]);
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = x.data()[i * n + j];
        }
    }
}

/// Permutes tensor dimensions according to `perm` (a permutation of
/// `0..rank`), writing into a preallocated `out`: output axis `d` is input
/// axis `perm[d]`. NCHW → NHWC is `[0, 2, 3, 1]`, NHWC → NCHW `[0, 3, 1, 2]`.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of the axes, the rank exceeds the
/// supported maximum, or `out` has the wrong length.
pub fn permute_into(x: TensorView, perm: &[usize], out: &mut [f32]) {
    let r = x.rank();
    assert_eq!(perm.len(), r, "perm length must equal rank");
    assert!(r <= MAX_RANK, "permute rank exceeds MAX_RANK");
    assert_eq!(out.len(), x.numel(), "permute output length mismatch");
    let mut seen = [false; MAX_RANK];
    for &p in perm {
        assert!(p < r && !seen[p], "perm must be a permutation of 0..rank");
        seen[p] = true;
    }
    if out.is_empty() {
        return;
    }
    let dims = x.dims();
    let in_strides = padded_strides(&pad_dims(dims, r), r);
    // The trailing axes the permutation leaves in place are one contiguous
    // run in both tensors. When the innermost axis itself moves there is no
    // such run, and the last output axis becomes a strided gather instead.
    let fixed = (0..r).rev().take_while(|&d| perm[d] == d).count();
    let (outer, run, step) = if fixed > 0 || r == 0 {
        (r - fixed, dims[r - fixed..].iter().product(), 1)
    } else {
        (r - 1, dims[perm[r - 1]], in_strides[perm[r - 1]])
    };
    // Odometer over the outer output axes: `out` fills front to back while
    // `src` tracks the matching input offset by adding strides, no `/` or `%`.
    let mut idx = [0usize; MAX_RANK];
    let mut src = 0;
    for dst in out.chunks_exact_mut(run) {
        if step == 1 {
            dst.copy_from_slice(&x.data()[src..src + run]);
        } else {
            for (j, o) in dst.iter_mut().enumerate() {
                *o = x.data()[src + j * step];
            }
        }
        for d in (0..outer).rev() {
            let (dim, stride) = (dims[perm[d]], in_strides[perm[d]]);
            idx[d] += 1;
            src += stride;
            if idx[d] < dim {
                break;
            }
            idx[d] = 0;
            src -= dim * stride;
        }
    }
}

/// Concatenates tensors along `axis` into a preallocated `out`. All other
/// dimensions must agree.
///
/// # Panics
///
/// Panics on empty input, rank/dim mismatches, or a wrong `out` length.
pub fn concat_into(inputs: &[TensorView], axis: usize, out: &mut [f32]) {
    assert!(!inputs.is_empty(), "concat requires at least one input");
    let r = inputs[0].rank();
    assert!(axis < r, "concat axis out of range");
    let mut axis_total = 0;
    for t in inputs {
        assert_eq!(t.rank(), r, "concat rank mismatch");
        for (d, (&td, &od)) in t.dims().iter().zip(inputs[0].dims()).enumerate() {
            if d != axis {
                assert_eq!(td, od, "concat non-axis dim mismatch");
            }
        }
        axis_total += t.dims()[axis];
    }
    let outer: usize = inputs[0].dims()[..axis].iter().product();
    let inner: usize = inputs[0].dims()[axis + 1..].iter().product();
    assert_eq!(
        out.len(),
        outer * axis_total * inner,
        "concat output length mismatch"
    );
    let mut axis_off = 0;
    for t in inputs {
        let a = t.dims()[axis];
        for o in 0..outer {
            for ai in 0..a {
                let src = (o * a + ai) * inner;
                let dst = (o * axis_total + axis_off + ai) * inner;
                out[dst..dst + inner].copy_from_slice(&t.data()[src..src + inner]);
            }
        }
        axis_off += a;
    }
}

/// Extracts `[start, start + len)` along `axis` into a preallocated `out`.
///
/// # Panics
///
/// Panics if the slice is out of bounds or `out` has the wrong length.
pub fn slice_axis_into(x: TensorView, axis: usize, start: usize, len: usize, out: &mut [f32]) {
    let r = x.rank();
    assert!(axis < r, "slice axis out of range");
    assert!(start + len <= x.dims()[axis], "slice out of bounds");
    let outer: usize = x.dims()[..axis].iter().product();
    let inner: usize = x.dims()[axis + 1..].iter().product();
    assert_eq!(
        out.len(),
        outer * len * inner,
        "slice output length mismatch"
    );
    let a = x.dims()[axis];
    for o in 0..outer {
        for ai in 0..len {
            let src = (o * a + start + ai) * inner;
            let dst = (o * len + ai) * inner;
            out[dst..dst + inner].copy_from_slice(&x.data()[src..src + inner]);
        }
    }
}

/// Scatter-adds `src` into `out`, shaped like `full_dims`, at
/// `[start, start + src_len)` along `axis`: the VJP of [`slice_axis_into`].
///
/// `out` is fully overwritten (zero-filled first, then scatter-added).
///
/// # Panics
///
/// Panics if `out` does not match `full_dims`.
pub fn unslice_axis_into(
    src: TensorView,
    axis: usize,
    start: usize,
    full_dims: &[usize],
    out: &mut [f32],
) {
    assert_eq!(
        out.len(),
        full_dims.iter().product::<usize>(),
        "unslice output length mismatch"
    );
    out.fill(0.0);
    let len = src.dims()[axis];
    let outer: usize = full_dims[..axis].iter().product();
    let inner: usize = full_dims[axis + 1..].iter().product();
    let a = full_dims[axis];
    for o in 0..outer {
        for ai in 0..len {
            let dst = (o * a + start + ai) * inner;
            let srci = (o * len + ai) * inner;
            for k in 0..inner {
                out[dst + k] += src.data()[srci + k];
            }
        }
    }
}

/// `permute_into` as it was: four divisions and four remainders per element.
/// The tests hold the run-copy version to it bit for bit.
#[cfg(test)]
mod oracle {
    use super::*;

    pub fn permute_into(x: TensorView, perm: &[usize], out: &mut [f32]) {
        let r = x.rank();
        let mut in_strides = [1usize; MAX_RANK];
        for i in (0..r.saturating_sub(1)).rev() {
            in_strides[i] = in_strides[i + 1] * x.dims()[i + 1];
        }
        let mut out_dims = [1usize; MAX_RANK];
        for (d, &p) in perm.iter().enumerate() {
            out_dims[d] = x.dims()[p];
        }
        let mut out_strides = [1usize; MAX_RANK];
        for i in (0..r.saturating_sub(1)).rev() {
            out_strides[i] = out_strides[i + 1] * out_dims[i + 1];
        }
        for (flat, &v) in x.data().iter().enumerate() {
            let mut rem = flat;
            let mut in_idx = [0usize; MAX_RANK];
            for (d, idx) in in_idx.iter_mut().enumerate().take(r) {
                *idx = rem / in_strides[d];
                rem %= in_strides[d];
            }
            let oi: usize = (0..r).map(|d| in_idx[perm[d]] * out_strides[d]).sum();
            out[oi] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::run_into;
    use crate::{Rng, Tensor};

    fn permute(x: &Tensor, perm: &[usize]) -> Tensor {
        let dims: Vec<usize> = perm.iter().map(|&p| x.dims()[p]).collect();
        run_into(dims, |o| permute_into(x.view(), perm, o))
    }

    fn transpose2d(x: &Tensor) -> Tensor {
        let dims = [x.dims()[1], x.dims()[0]];
        run_into(dims, |o| transpose2d_into(x.view(), o))
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = Rng::seed_from_u64(1);
        let x = Tensor::randn([3, 5], 1.0, &mut rng);
        let t = transpose2d(&x);
        assert_eq!(t.dims(), &[5, 3]);
        assert_eq!(t.at(&[4, 2]), x.at(&[2, 4]));
        assert!(transpose2d(&t).allclose(&x, 0.0));
    }

    #[test]
    fn permute_and_inverse() {
        let mut rng = Rng::seed_from_u64(2);
        let x = Tensor::randn([2, 3, 4], 1.0, &mut rng);
        let p = permute(&x, &[2, 0, 1]);
        assert_eq!(p.dims(), &[4, 2, 3]);
        assert_eq!(p.at(&[3, 1, 2]), x.at(&[1, 2, 3]));
        let back = permute(&p, &inverse_perm(&[2, 0, 1]));
        assert!(back.allclose(&x, 0.0));
    }

    #[test]
    fn nchw_nhwc_roundtrip() {
        let mut rng = Rng::seed_from_u64(3);
        let x = Tensor::randn([2, 3, 4, 5], 1.0, &mut rng);
        let nhwc = permute(&x, &[0, 2, 3, 1]);
        assert_eq!(nhwc.dims(), &[2, 4, 5, 3]);
        assert_eq!(nhwc.at(&[1, 2, 3, 0]), x.at(&[1, 0, 2, 3]));
        assert!(permute(&nhwc, &[0, 3, 1, 2]).allclose(&x, 0.0));
    }

    #[test]
    fn concat_axis0_and_axis1() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], [1, 2]);
        let parts = [a.view(), b.view()];
        let c0 = run_into([2, 2], |o| concat_into(&parts, 0, o));
        assert_eq!(c0.dims(), &[2, 2]);
        assert_eq!(c0.data(), &[1.0, 2.0, 3.0, 4.0]);
        let c1 = run_into([1, 4], |o| concat_into(&parts, 1, o));
        assert_eq!(c1.dims(), &[1, 4]);
        assert_eq!(c1.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn slice_then_unslice_restores_positions() {
        let mut rng = Rng::seed_from_u64(4);
        let x = Tensor::randn([2, 6, 3], 1.0, &mut rng);
        let s = run_into([2, 3, 3], |o| slice_axis_into(x.view(), 1, 2, 3, o));
        assert_eq!(s.dims(), &[2, 3, 3]);
        assert_eq!(s.at(&[1, 0, 2]), x.at(&[1, 2, 2]));
        let full = [2, 6, 3];
        let u = run_into(full, |o| unslice_axis_into(s.view(), 1, 2, &full, o));
        assert_eq!(u.at(&[1, 2, 2]), x.at(&[1, 2, 2]));
        assert_eq!(u.at(&[1, 0, 0]), 0.0);
        assert_eq!(u.at(&[1, 5, 0]), 0.0);
    }

    #[test]
    fn slice_full_is_identity() {
        let mut rng = Rng::seed_from_u64(5);
        let x = Tensor::randn([4, 5], 1.0, &mut rng);
        let s = run_into([4, 5], |o| slice_axis_into(x.view(), 0, 0, 4, o));
        assert!(s.allclose(&x, 0.0));
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_out_of_bounds_panics() {
        slice_axis_into(Tensor::zeros([2, 3]).view(), 1, 2, 2, &mut [0.0; 4]);
    }

    /// Every permutation of `0..r`, in lexicographic order.
    fn permutations(r: usize) -> Vec<Vec<usize>> {
        if r == 0 {
            return vec![vec![]];
        }
        let mut all = Vec::new();
        for rest in permutations(r - 1) {
            for slot in 0..r {
                let mut perm = rest.clone();
                perm.insert(slot, r - 1);
                all.push(perm);
            }
        }
        all.sort();
        all
    }

    #[test]
    fn permute_into_matches_the_index_arithmetic_loop() {
        const SIZES: [usize; 5] = [1, 2, 3, 5, 16];
        let mut rng = Rng::seed_from_u64(6);
        let mut cases = Vec::new();
        for r in 0..=4 {
            cases.extend(permutations(r)); // identity first, full reversal last
        }
        for _ in 0..50 {
            let mut perm: Vec<usize> = (0..5 + rng.next_usize(2)).collect();
            rng.shuffle(&mut perm);
            cases.push(perm);
        }
        for perm in cases {
            // Ranks 5 and 6 draw from the small sizes only: 16^6 is too much.
            let sizes = &SIZES[..if perm.len() > 4 { 4 } else { 5 }];
            let dims: Vec<usize> = (0..perm.len())
                .map(|_| sizes[rng.next_usize(sizes.len())])
                .collect();
            let x = Tensor::randn(dims.clone(), 1.0, &mut rng);
            let mut got = vec![f32::NAN; x.numel()];
            let mut want = vec![f32::NAN; x.numel()];
            permute_into(x.view(), &perm, &mut got);
            oracle::permute_into(x.view(), &perm, &mut want);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert!(bits(&got) == bits(&want), "dims {dims:?} perm {perm:?}");
            // Into a zeroed output as well as the NaN-filled one.
            assert!(bits(permute(&x, &perm).data()) == bits(&want));
        }
    }

    #[test]
    fn permute_of_an_empty_tensor_is_a_no_op() {
        let x = Tensor::zeros([2, 0, 3]);
        assert_eq!(permute(&x, &[2, 0, 1]).dims(), &[3, 2, 0]);
    }
}
