//! Pooling kernels (average, max, global average) and their gradients.

use crate::TensorView;

/// Pooling geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pool2dParams {
    /// Square window size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub padding: usize,
}

impl Pool2dParams {
    /// Creates pooling parameters.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        Pool2dParams {
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial size for the given input size.
    pub fn out_size(&self, in_size: usize) -> usize {
        (in_size + 2 * self.padding - self.kernel) / self.stride + 1
    }
}

/// Average pooling over an `[N, C, H, W]` input, writing into a
/// preallocated `out`.
///
/// # Panics
///
/// Panics if `out` has the wrong length.
pub fn avg_pool2d_into(x: TensorView, p: Pool2dParams, out: &mut [f32]) {
    let [n, c, h, w] = [x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]];
    let (oh, ow) = (p.out_size(h), p.out_size(w));
    assert_eq!(
        out.len(),
        n * c * oh * ow,
        "avg_pool output length mismatch"
    );
    let norm = 1.0 / (p.kernel * p.kernel) as f32;
    for ni in 0..n {
        for ci in 0..c {
            for ohi in 0..oh {
                for owi in 0..ow {
                    let mut acc = 0.0;
                    for kh in 0..p.kernel {
                        let ih = (ohi * p.stride + kh) as isize - p.padding as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        for kw in 0..p.kernel {
                            let iw = (owi * p.stride + kw) as isize - p.padding as isize;
                            if iw < 0 || iw >= w as isize {
                                continue;
                            }
                            acc += x.data()[((ni * c + ci) * h + ih as usize) * w + iw as usize];
                        }
                    }
                    out[((ni * c + ci) * oh + ohi) * ow + owi] = acc * norm;
                }
            }
        }
    }
}

/// Gradient of average pooling, written into a preallocated `out` of
/// `x_dims` (zero-filled first, then accumulated).
///
/// # Panics
///
/// Panics if `out` does not match `x_dims`.
pub fn avg_pool2d_grad_into(dy: TensorView, x_dims: &[usize], p: Pool2dParams, out: &mut [f32]) {
    let [n, c, h, w] = [x_dims[0], x_dims[1], x_dims[2], x_dims[3]];
    let (oh, ow) = (dy.dims()[2], dy.dims()[3]);
    assert_eq!(out.len(), n * c * h * w, "avg_pool_grad output mismatch");
    out.fill(0.0);
    let norm = 1.0 / (p.kernel * p.kernel) as f32;
    for ni in 0..n {
        for ci in 0..c {
            for ohi in 0..oh {
                for owi in 0..ow {
                    let g = dy.data()[((ni * c + ci) * oh + ohi) * ow + owi] * norm;
                    for kh in 0..p.kernel {
                        let ih = (ohi * p.stride + kh) as isize - p.padding as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        for kw in 0..p.kernel {
                            let iw = (owi * p.stride + kw) as isize - p.padding as isize;
                            if iw < 0 || iw >= w as isize {
                                continue;
                            }
                            out[((ni * c + ci) * h + ih as usize) * w + iw as usize] += g;
                        }
                    }
                }
            }
        }
    }
}

/// Max pooling over an `[N, C, H, W]` input (output only, no index buffer),
/// writing into a preallocated `out`.
///
/// # Panics
///
/// Panics if `out` has the wrong length.
pub fn max_pool2d_into(x: TensorView, p: Pool2dParams, out: &mut [f32]) {
    let out_len = out.len();
    max_pool_core(x, p, |o, best, _| out[o] = best, out_len);
}

/// Gradient of max pooling: recomputes the argmax per window from the
/// forward input `x` (no index buffer) and scatter-adds the upstream
/// gradient into `out` (zero-filled first).
///
/// The window scan is [`max_pool2d_into`]'s (the first strictly-greater
/// element wins a tie), so each gradient lands on the element the forward
/// pass selected.
///
/// # Panics
///
/// Panics if `out` does not match the forward input size.
pub fn max_pool2d_grad_from_input_into(
    x: TensorView,
    dy: TensorView,
    p: Pool2dParams,
    out: &mut [f32],
) {
    assert_eq!(out.len(), x.numel(), "max_pool_grad output length mismatch");
    out.fill(0.0);
    let dyd = dy.data();
    max_pool_core(x, p, |o, _, best_idx| out[best_idx] += dyd[o], dyd.len());
}

/// Shared window scan for max pooling: calls `emit(flat_out, best, best_idx)`
/// for every output position.
fn max_pool_core(
    x: TensorView,
    p: Pool2dParams,
    mut emit: impl FnMut(usize, f32, usize),
    out_len: usize,
) {
    let [n, c, h, w] = [x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]];
    let (oh, ow) = (p.out_size(h), p.out_size(w));
    assert_eq!(out_len, n * c * oh * ow, "max_pool output length mismatch");
    for ni in 0..n {
        for ci in 0..c {
            for ohi in 0..oh {
                for owi in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for kh in 0..p.kernel {
                        let ih = (ohi * p.stride + kh) as isize - p.padding as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        for kw in 0..p.kernel {
                            let iw = (owi * p.stride + kw) as isize - p.padding as isize;
                            if iw < 0 || iw >= w as isize {
                                continue;
                            }
                            let idx = ((ni * c + ci) * h + ih as usize) * w + iw as usize;
                            if x.data()[idx] > best {
                                best = x.data()[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    emit(((ni * c + ci) * oh + ohi) * ow + owi, best, best_idx);
                }
            }
        }
    }
}

/// Global average pooling, `[N, C, H, W] -> [N, C]`, writing into a
/// preallocated `out`.
///
/// # Panics
///
/// Panics if `out` has the wrong length.
pub fn global_avg_pool_into(x: TensorView, out: &mut [f32]) {
    let [n, c, h, w] = [x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]];
    assert_eq!(out.len(), n * c, "global_avg_pool output length mismatch");
    let norm = 1.0 / (h * w) as f32;
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            let s: f32 = x.data()[base..base + h * w].iter().sum();
            out[ni * c + ci] = s * norm;
        }
    }
}

/// Gradient of global average pooling, written into a preallocated `out` of
/// `x_dims`.
///
/// # Panics
///
/// Panics if `out` does not match `x_dims`.
pub fn global_avg_pool_grad_into(dy: TensorView, x_dims: &[usize], out: &mut [f32]) {
    let [n, c, h, w] = [x_dims[0], x_dims[1], x_dims[2], x_dims[3]];
    assert_eq!(out.len(), n * c * h * w, "gap_grad output length mismatch");
    let norm = 1.0 / (h * w) as f32;
    for ni in 0..n {
        for ci in 0..c {
            let g = dy.data()[ni * c + ci] * norm;
            let base = (ni * c + ci) * h * w;
            for v in &mut out[base..base + h * w] {
                *v = g;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::run_into;
    use crate::{Rng, Tensor};

    #[test]
    fn avg_pool_known_values() {
        let x = Tensor::from_vec((1..=16).map(|v| v as f32).collect(), [1, 1, 4, 4]);
        let p = Pool2dParams::new(2, 2, 0);
        let y = run_into([1, 1, 2, 2], |o| avg_pool2d_into(x.view(), p, o));
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn avg_pool_grad_distributes_evenly() {
        let dy = Tensor::ones([1, 1, 2, 2]);
        let p = Pool2dParams::new(2, 2, 0);
        let x_dims = [1, 1, 4, 4];
        let dx = run_into(x_dims, |o| avg_pool2d_grad_into(dy.view(), &x_dims, p, o));
        assert!(dx.data().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn max_pool_picks_max_and_routes_gradient() {
        let x = Tensor::from_vec((1..=16).map(|v| v as f32).collect(), [1, 1, 4, 4]);
        let p = Pool2dParams::new(2, 2, 0);
        let y = run_into([1, 1, 2, 2], |o| max_pool2d_into(x.view(), p, o));
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
        let dy = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2]);
        let (xv, dyv) = (x.view(), dy.view());
        let dx = run_into(x.dims(), |o| max_pool2d_grad_from_input_into(xv, dyv, p, o));
        assert_eq!(dx.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(dx.at(&[0, 0, 3, 3]), 4.0);
        assert_eq!(dx.sum(), 10.0);
    }

    #[test]
    fn global_avg_pool_and_grad() {
        let mut rng = Rng::seed_from_u64(5);
        let x = Tensor::randn([2, 3, 4, 4], 1.0, &mut rng);
        let y = run_into([2, 3], |o| global_avg_pool_into(x.view(), o));
        assert_eq!(y.dims(), &[2, 3]);
        let manual: f32 = x.data()[..16].iter().sum::<f32>() / 16.0;
        assert!((y.data()[0] - manual).abs() < 1e-5);

        let dy = Tensor::ones([2, 3]);
        let x_dims = [2, 3, 4, 4];
        let dx = run_into(x_dims, |o| global_avg_pool_grad_into(dy.view(), &x_dims, o));
        assert!((dx.sum() - 6.0).abs() < 1e-4);
    }

    #[test]
    fn pool_with_padding_output_size() {
        let p = Pool2dParams::new(3, 2, 1);
        assert_eq!(p.out_size(8), 4);
        let x = Tensor::ones([1, 1, 8, 8]);
        let y = run_into([1, 1, 4, 4], |o| avg_pool2d_into(x.view(), p, o));
        assert_eq!(y.dims(), &[1, 1, 4, 4]);
    }
}
