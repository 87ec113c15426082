//! Reduction kernels: sum / mean / max along axes and their gradients.

use crate::kernels::elementwise::{pad_dims, padded_strides, MAX_RANK};
use crate::TensorView;

/// Reduction operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Sum of elements.
    Sum,
    /// Arithmetic mean.
    Mean,
    /// Maximum element.
    Max,
}

/// Reduces `x` over `axes`, writing into a preallocated `out`.
///
/// The output layout is the kept-dims layout (reduced dimensions of size 1),
/// which is byte-identical to the squeezed layout, so the same buffer serves
/// both. Accumulation visits input elements in flat order.
///
/// # Panics
///
/// Panics if any axis is out of range, the rank exceeds [`MAX_RANK`], or
/// `out` has the wrong length.
pub fn reduce_into(x: TensorView, op: ReduceOp, axes: &[usize], out: &mut [f32]) {
    let r = x.rank();
    assert!(r <= MAX_RANK, "reduce rank exceeds MAX_RANK");
    for &a in axes {
        assert!(a < r, "reduce axis {a} out of range for rank {r}");
    }
    let dims = pad_dims(x.dims(), r);
    let mut kept = dims;
    let mut count = 1usize;
    for d in 0..r {
        if axes.contains(&d) {
            count *= dims[d];
            kept[d] = 1;
        }
    }
    let in_strides = padded_strides(&dims, r);
    let kept_strides = padded_strides(&kept, r);
    let out_len: usize = kept[..r].iter().product();
    assert_eq!(out.len(), out_len, "reduce output length mismatch");

    let init = match op {
        ReduceOp::Sum | ReduceOp::Mean => 0.0,
        ReduceOp::Max => f32::NEG_INFINITY,
    };
    out.fill(init);
    for (flat, &v) in x.data().iter().enumerate() {
        let mut o = 0usize;
        let mut rem = flat;
        for d in 0..r {
            let id = rem / in_strides[d];
            rem %= in_strides[d];
            if kept[d] != 1 {
                o += id * kept_strides[d];
            }
        }
        match op {
            ReduceOp::Sum | ReduceOp::Mean => out[o] += v,
            ReduceOp::Max => {
                if v > out[o] {
                    out[o] = v;
                }
            }
        }
    }
    if op == ReduceOp::Mean {
        let scale = 1.0 / count.max(1) as f32;
        for v in out.iter_mut() {
            *v *= scale;
        }
    }
}

/// Gradient of a sum/mean reduction: broadcasts `dy` back to `input_dims`,
/// dividing by the reduction count for mean, into a preallocated `out`.
///
/// # Panics
///
/// Panics on a max reduction, a rank above [`MAX_RANK`], or a wrong `out`
/// length.
pub fn reduce_grad_into(
    dy: TensorView,
    op: ReduceOp,
    input_dims: &[usize],
    axes: &[usize],
    out: &mut [f32],
) {
    assert!(
        op != ReduceOp::Max,
        "max reduction gradient requires the forward input; not supported here"
    );
    let r = input_dims.len();
    assert!(r <= MAX_RANK, "reduce_grad rank exceeds MAX_RANK");
    let dims = pad_dims(input_dims, r);
    let mut kept = dims;
    let mut count = 1usize;
    for d in 0..r {
        if axes.contains(&d) {
            count *= dims[d];
            kept[d] = 1;
        }
    }
    let in_strides = padded_strides(&dims, r);
    let kept_strides = padded_strides(&kept, r);
    let n: usize = dims[..r].iter().product();
    assert_eq!(out.len(), n, "reduce_grad output length mismatch");
    let kept_len: usize = kept[..r].iter().product();
    assert_eq!(dy.numel(), kept_len, "reduce_grad dy length mismatch");
    let scale = if op == ReduceOp::Mean {
        1.0 / count.max(1) as f32
    } else {
        1.0
    };

    for (flat, o) in out.iter_mut().enumerate() {
        let mut k = 0usize;
        let mut rem = flat;
        for d in 0..r {
            let id = rem / in_strides[d];
            rem %= in_strides[d];
            if kept[d] != 1 {
                k += id * kept_strides[d];
            }
        }
        *o = dy.data()[k] * scale;
    }
}

/// The index-vector loops `reduce_into` and `reduce_grad_into` replaced,
/// kept as the oracle the tests hold them to bit for bit.
#[cfg(test)]
mod oracle {
    use super::ReduceOp;
    use crate::{Shape, Tensor};

    /// Reduces `x` over `axes`, keeping reduced dimensions as size 1 (the
    /// squeezed layout has the same bytes).
    pub fn reduce(x: &Tensor, op: ReduceOp, axes: &[usize]) -> Tensor {
        let r = x.shape().rank();
        for &a in axes {
            assert!(a < r, "reduce axis {a} out of range for rank {r}");
        }
        let reduce_mask: Vec<bool> = (0..r).map(|d| axes.contains(&d)).collect();
        let out_dims_kept: Vec<usize> = x
            .dims()
            .iter()
            .enumerate()
            .map(|(d, &s)| if reduce_mask[d] { 1 } else { s })
            .collect();
        let out_shape_kept = Shape::new(out_dims_kept);
        let init = match op {
            ReduceOp::Sum | ReduceOp::Mean => 0.0,
            ReduceOp::Max => f32::NEG_INFINITY,
        };
        let mut out = Tensor::full(out_shape_kept.clone(), init);

        for flat in 0..x.numel() {
            let idx = x.shape().unravel(flat);
            let out_idx: Vec<usize> = idx
                .iter()
                .enumerate()
                .map(|(d, &i)| if reduce_mask[d] { 0 } else { i })
                .collect();
            let o = out_shape_kept.ravel(&out_idx);
            let v = x.data()[flat];
            match op {
                ReduceOp::Sum | ReduceOp::Mean => out.data_mut()[o] += v,
                ReduceOp::Max => {
                    if v > out.data()[o] {
                        out.data_mut()[o] = v;
                    }
                }
            }
        }
        if op == ReduceOp::Mean {
            let count: usize = x
                .dims()
                .iter()
                .enumerate()
                .filter(|(d, _)| reduce_mask[*d])
                .map(|(_, &s)| s)
                .product::<usize>()
                .max(1);
            let scale = 1.0 / count as f32;
            for v in out.data_mut() {
                *v *= scale;
            }
        }
        out
    }

    /// Gradient of a sum/mean reduction: broadcasts `dy` back to `input_dims`,
    /// dividing by the reduction count for mean.
    pub fn reduce_grad(dy: &Tensor, op: ReduceOp, input_dims: &[usize], axes: &[usize]) -> Tensor {
        assert!(
            op != ReduceOp::Max,
            "max reduction gradient requires the forward input; not supported here"
        );
        let r = input_dims.len();
        let reduce_mask: Vec<bool> = (0..r).map(|d| axes.contains(&d)).collect();
        let count: usize = input_dims
            .iter()
            .enumerate()
            .filter(|(d, _)| reduce_mask[*d])
            .map(|(_, &s)| s)
            .product::<usize>()
            .max(1);
        let scale = if op == ReduceOp::Mean {
            1.0 / count as f32
        } else {
            1.0
        };

        // dy may have been produced with or without keep_dims; rebuild the kept
        // shape for indexing.
        let kept_dims: Vec<usize> = input_dims
            .iter()
            .enumerate()
            .map(|(d, &s)| if reduce_mask[d] { 1 } else { s })
            .collect();
        let dy_kept = dy.reshape(Shape::new(kept_dims.clone()));
        let kept_shape = Shape::new(kept_dims);

        let in_shape = Shape::new(input_dims.to_vec());
        let mut out = Tensor::zeros(in_shape.clone());
        for flat in 0..out.numel() {
            let idx = in_shape.unravel(flat);
            let out_idx: Vec<usize> = idx
                .iter()
                .enumerate()
                .map(|(d, &i)| if reduce_mask[d] { 0 } else { i })
                .collect();
            out.data_mut()[flat] = dy_kept.data()[kept_shape.ravel(&out_idx)] * scale;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::run_into;
    use crate::{Shape, Tensor};

    #[test]
    fn sum_over_axis0() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let s = run_into([3], |o| reduce_into(x.view(), ReduceOp::Sum, &[0], o));
        assert_eq!(s.dims(), &[3]);
        assert_eq!(s.data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn sum_keep_dims() {
        let x = Tensor::ones([2, 3]);
        let s = run_into([2, 1], |o| reduce_into(x.view(), ReduceOp::Sum, &[1], o));
        assert_eq!(s.dims(), &[2, 1]);
        assert_eq!(s.data(), &[3.0, 3.0]);
    }

    #[test]
    fn mean_and_max() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let m = run_into([2], |o| reduce_into(x.view(), ReduceOp::Mean, &[1], o));
        assert_eq!(m.data(), &[2.0, 5.0]);
        let mx = run_into([3], |o| reduce_into(x.view(), ReduceOp::Max, &[0], o));
        assert_eq!(mx.data(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn reduce_multiple_axes() {
        let x = Tensor::ones([2, 3, 4]);
        let s = run_into([3], |o| reduce_into(x.view(), ReduceOp::Sum, &[0, 2], o));
        assert_eq!(s.dims(), &[3]);
        assert_eq!(s.data(), &[8.0, 8.0, 8.0]);
    }

    #[test]
    fn reduce_all_to_scalar() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        let sum = |o: &mut [f32]| reduce_into(x.view(), ReduceOp::Sum, &[0], o);
        let s = run_into(Shape::scalar(), sum);
        assert_eq!(s.data(), &[6.0]);
    }

    #[test]
    fn sum_grad_broadcasts() {
        let dy = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        let (dyv, sum) = (dy.view(), ReduceOp::Sum);
        let g = run_into([2, 3], |o| reduce_grad_into(dyv, sum, &[2, 3], &[0], o));
        assert_eq!(g.dims(), &[2, 3]);
        assert_eq!(g.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn mean_grad_scales() {
        let dy = Tensor::from_vec(vec![4.0, 8.0], [2]);
        let (dyv, mean) = (dy.view(), ReduceOp::Mean);
        let g = run_into([2, 4], |o| reduce_grad_into(dyv, mean, &[2, 4], &[1], o));
        assert_eq!(g.dims(), &[2, 4]);
        assert_eq!(g.data()[0], 1.0);
        assert_eq!(g.data()[4], 2.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_axis_panics() {
        reduce_into(Tensor::zeros([2]).view(), ReduceOp::Sum, &[3], &mut [0.0]);
    }

    #[test]
    fn reduce_into_matches_allocating_kernel() {
        use crate::Rng;
        let mut rng = Rng::seed_from_u64(7);
        let x = Tensor::randn([2, 3, 4], 1.0, &mut rng);
        for op in [ReduceOp::Sum, ReduceOp::Mean, ReduceOp::Max] {
            for axes in [vec![0], vec![1], vec![0, 2], vec![0, 1, 2]] {
                let expect = oracle::reduce(&x, op, &axes);
                let mut out = vec![0.0f32; expect.numel()];
                reduce_into(x.view(), op, &axes, &mut out);
                assert_eq!(&out[..], expect.data(), "{op:?} over {axes:?}");
            }
        }
    }

    #[test]
    fn reduce_grad_into_matches_allocating_kernel() {
        use crate::Rng;
        let mut rng = Rng::seed_from_u64(8);
        let input_dims = [2usize, 3, 4];
        for op in [ReduceOp::Sum, ReduceOp::Mean] {
            for axes in [vec![0], vec![2], vec![0, 2]] {
                let kept: usize = input_dims
                    .iter()
                    .enumerate()
                    .map(|(d, &s)| if axes.contains(&d) { 1 } else { s })
                    .product();
                let dy = Tensor::randn([kept], 1.0, &mut rng);
                let expect = oracle::reduce_grad(&dy, op, &input_dims, &axes);
                let mut out = vec![0.0f32; expect.numel()];
                reduce_grad_into(dy.view(), op, &input_dims, &axes, &mut out);
                assert_eq!(&out[..], expect.data(), "{op:?} over {axes:?}");
            }
        }
    }
}
