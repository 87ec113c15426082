//! Normalisation and loss kernels: softmax, layer norm, RMS norm,
//! cross-entropy, and their gradients.
//!
//! BatchNorm does not appear here: following the paper's setup (§4.1), all
//! normalisation layers of the vision models are fused into the preceding
//! linear operations at export time, so the training graph only contains
//! Conv/Linear/activation ops for CNNs and LayerNorm/RMSNorm for
//! transformers.

use crate::kernels::elementwise::exp;
use crate::TensorView;

/// Softmax along the last axis, writing into a preallocated `out`.
///
/// # Panics
///
/// Panics if `out` and the input differ in length.
pub fn softmax_into(x: TensorView, out: &mut [f32]) {
    assert_eq!(out.len(), x.numel(), "softmax output length mismatch");
    out.copy_from_slice(x.data());
    softmax_rows(out, *x.dims().last().expect("rank >= 1"));
}

/// In-place row softmax over a buffer of `rows * cols` elements.
fn softmax_rows(buf: &mut [f32], cols: usize) {
    let rows = buf.len() / cols.max(1);
    for r in 0..rows {
        let row = &mut buf[r * cols..(r + 1) * cols];
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        // Two passes: the exponentials vectorise, the sum keeps its
        // ascending order.
        for v in row.iter_mut() {
            *v = exp(*v - max);
        }
        let sum: f32 = row.iter().sum();
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// VJP of softmax given the forward *output* `y`,
/// `dx = y * (dy - sum(dy * y, last_axis))`, written into a preallocated `out`.
///
/// # Panics
///
/// Panics on shape or output-length mismatches.
pub fn softmax_grad_into(y: TensorView, dy: TensorView, out: &mut [f32]) {
    assert_eq!(y.dims(), dy.dims(), "softmax_grad shape mismatch");
    assert_eq!(out.len(), y.numel(), "softmax_grad output length mismatch");
    let cols = *y.dims().last().expect("rank >= 1");
    let rows = y.numel() / cols;
    for r in 0..rows {
        let ys = &y.data()[r * cols..(r + 1) * cols];
        let gs = &dy.data()[r * cols..(r + 1) * cols];
        let dot: f32 = ys.iter().zip(gs).map(|(a, b)| a * b).sum();
        let os = &mut out[r * cols..(r + 1) * cols];
        for j in 0..cols {
            os[j] = ys[j] * (gs[j] - dot);
        }
    }
}

/// Mean cross-entropy loss between logits `[N, C]` (or `[N, T, C]` flattened
/// by the caller) and integer class targets stored as floats, writing the
/// scalar result into `out[0]`.
///
/// # Panics
///
/// Panics if the number of targets does not equal the number of logit rows
/// or `out` is empty.
pub fn cross_entropy_loss_into(logits: TensorView, targets: TensorView, out: &mut [f32]) {
    let cols = *logits.dims().last().expect("rank >= 1");
    let rows = logits.numel() / cols;
    assert_eq!(targets.numel(), rows, "one target per logit row required");
    assert_eq!(out.len(), 1, "cross_entropy_loss output must be scalar");
    let mut loss = 0.0;
    for r in 0..rows {
        let xs = &logits.data()[r * cols..(r + 1) * cols];
        let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let logsum = xs.iter().map(|v| exp(v - max)).sum::<f32>().ln() + max;
        let t = targets.data()[r] as usize;
        loss -= xs[t] - logsum;
    }
    out[0] = loss / rows as f32;
}

/// Gradient of the mean cross-entropy loss with respect to the logits,
/// scaled by the upstream scalar gradient `dloss`, written into a
/// preallocated `out`.
///
/// # Panics
///
/// Panics if `out` and the logits differ in length.
pub fn cross_entropy_grad_into(
    logits: TensorView,
    targets: TensorView,
    dloss: f32,
    out: &mut [f32],
) {
    let cols = *logits.dims().last().expect("rank >= 1");
    let rows = logits.numel() / cols;
    softmax_into(logits, out);
    let scale = dloss / rows as f32;
    for r in 0..rows {
        let t = targets.data()[r] as usize;
        out[r * cols + t] -= 1.0;
    }
    for v in out.iter_mut() {
        *v *= scale;
    }
}

/// Layer normalisation along the last axis with affine parameters, writing
/// into a preallocated `out`. `gamma` and `beta` have the size of the last
/// axis.
///
/// # Panics
///
/// Panics on gamma/beta/output size mismatches.
pub fn layer_norm_into(
    x: TensorView,
    gamma: TensorView,
    beta: TensorView,
    eps: f32,
    out: &mut [f32],
) {
    let cols = *x.dims().last().expect("rank >= 1");
    assert_eq!(gamma.numel(), cols, "gamma size mismatch");
    assert_eq!(beta.numel(), cols, "beta size mismatch");
    assert_eq!(out.len(), x.numel(), "layer_norm output length mismatch");
    let rows = x.numel() / cols;
    for r in 0..rows {
        let xs = &x.data()[r * cols..(r + 1) * cols];
        let mean = xs.iter().sum::<f32>() / cols as f32;
        let var = xs.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        let inv_std = 1.0 / (var + eps).sqrt();
        let os = &mut out[r * cols..(r + 1) * cols];
        for j in 0..cols {
            os[j] = (xs[j] - mean) * inv_std * gamma.data()[j] + beta.data()[j];
        }
    }
}

/// LayerNorm input gradient `dx`, written into a preallocated `out`. The
/// beta gradient is [`crate::kernels::elementwise::bias_grad_into`] of `dy`.
///
/// # Panics
///
/// Panics on size mismatches.
pub fn layer_norm_grad_x_into(
    x: TensorView,
    gamma: TensorView,
    dy: TensorView,
    eps: f32,
    out: &mut [f32],
) {
    let cols = *x.dims().last().expect("rank >= 1");
    let rows = x.numel() / cols;
    assert_eq!(out.len(), x.numel(), "layer_norm_grad_x output mismatch");
    for r in 0..rows {
        let xs = &x.data()[r * cols..(r + 1) * cols];
        let gs = &dy.data()[r * cols..(r + 1) * cols];
        let mean = xs.iter().sum::<f32>() / cols as f32;
        let var = xs.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        let inv_std = 1.0 / (var + eps).sqrt();
        let xhat = |j: usize| (xs[j] - mean) * inv_std;
        let dxhat = |j: usize| gs[j] * gamma.data()[j];
        let mean_dxhat = (0..cols).map(&dxhat).sum::<f32>() / cols as f32;
        let mean_dxhat_xhat = (0..cols).map(|j| dxhat(j) * xhat(j)).sum::<f32>() / cols as f32;
        let os = &mut out[r * cols..(r + 1) * cols];
        for (j, o) in os.iter_mut().enumerate() {
            *o = inv_std * (dxhat(j) - mean_dxhat - xhat(j) * mean_dxhat_xhat);
        }
    }
}

/// LayerNorm gamma gradient, written into a preallocated `out` (gamma does
/// not influence its own gradient, so it is not taken).
///
/// `out` is fully overwritten (zero-filled first, then accumulated).
///
/// # Panics
///
/// Panics on size mismatches.
pub fn layer_norm_grad_gamma_into(x: TensorView, dy: TensorView, eps: f32, out: &mut [f32]) {
    let cols = *x.dims().last().expect("rank >= 1");
    let rows = x.numel() / cols;
    assert_eq!(out.len(), cols, "layer_norm_grad_gamma output mismatch");
    out.fill(0.0);
    for r in 0..rows {
        let xs = &x.data()[r * cols..(r + 1) * cols];
        let gs = &dy.data()[r * cols..(r + 1) * cols];
        let mean = xs.iter().sum::<f32>() / cols as f32;
        let var = xs.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        let inv_std = 1.0 / (var + eps).sqrt();
        for j in 0..cols {
            out[j] += gs[j] * (xs[j] - mean) * inv_std;
        }
    }
}

/// RMS normalisation along the last axis (as used by Llama blocks), writing
/// into a preallocated `out`.
///
/// # Panics
///
/// Panics on gamma/output size mismatches.
pub fn rms_norm_into(x: TensorView, gamma: TensorView, eps: f32, out: &mut [f32]) {
    let cols = *x.dims().last().expect("rank >= 1");
    assert_eq!(gamma.numel(), cols, "gamma size mismatch");
    assert_eq!(out.len(), x.numel(), "rms_norm output length mismatch");
    let rows = x.numel() / cols;
    for r in 0..rows {
        let xs = &x.data()[r * cols..(r + 1) * cols];
        let ms = xs.iter().map(|v| v * v).sum::<f32>() / cols as f32;
        let inv = 1.0 / (ms + eps).sqrt();
        let os = &mut out[r * cols..(r + 1) * cols];
        for j in 0..cols {
            os[j] = xs[j] * inv * gamma.data()[j];
        }
    }
}

/// RMSNorm input gradient `dx`, written into a preallocated `out`.
///
/// # Panics
///
/// Panics on size mismatches.
pub fn rms_norm_grad_x_into(
    x: TensorView,
    gamma: TensorView,
    dy: TensorView,
    eps: f32,
    out: &mut [f32],
) {
    let cols = *x.dims().last().expect("rank >= 1");
    let rows = x.numel() / cols;
    assert_eq!(out.len(), x.numel(), "rms_norm_grad_x output mismatch");
    for r in 0..rows {
        let xs = &x.data()[r * cols..(r + 1) * cols];
        let gs = &dy.data()[r * cols..(r + 1) * cols];
        let ms = xs.iter().map(|v| v * v).sum::<f32>() / cols as f32;
        let inv = 1.0 / (ms + eps).sqrt();
        let dot: f32 = (0..cols).map(|k| gs[k] * gamma.data()[k] * xs[k]).sum();
        let os = &mut out[r * cols..(r + 1) * cols];
        for j in 0..cols {
            os[j] = inv * gs[j] * gamma.data()[j] - inv * inv * inv / cols as f32 * xs[j] * dot;
        }
    }
}

/// RMSNorm gamma gradient, written into a preallocated `out` (gamma does not
/// influence its own gradient, so it is not taken).
///
/// `out` is fully overwritten (zero-filled first, then accumulated).
///
/// # Panics
///
/// Panics on size mismatches.
pub fn rms_norm_grad_gamma_into(x: TensorView, dy: TensorView, eps: f32, out: &mut [f32]) {
    let cols = *x.dims().last().expect("rank >= 1");
    let rows = x.numel() / cols;
    assert_eq!(out.len(), cols, "rms_norm_grad_gamma output mismatch");
    out.fill(0.0);
    for r in 0..rows {
        let xs = &x.data()[r * cols..(r + 1) * cols];
        let gs = &dy.data()[r * cols..(r + 1) * cols];
        let ms = xs.iter().map(|v| v * v).sum::<f32>() / cols as f32;
        let inv = 1.0 / (ms + eps).sqrt();
        for j in 0..cols {
            out[j] += gs[j] * xs[j] * inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::elementwise::bias_grad_into;
    use crate::kernels::run_into;
    use crate::{Rng, Shape, Tensor};

    fn softmax(x: &Tensor) -> Tensor {
        run_into(x.dims(), |o| softmax_into(x.view(), o))
    }

    fn cross_entropy_loss(logits: &Tensor, targets: &Tensor) -> Tensor {
        let (l, t) = (logits.view(), targets.view());
        run_into(Shape::scalar(), |o| cross_entropy_loss_into(l, t, o))
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = Rng::seed_from_u64(1);
        let x = Tensor::randn([4, 7], 2.0, &mut rng);
        let y = softmax(&x);
        for r in 0..4 {
            let s: f32 = y.data()[r * 7..(r + 1) * 7].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!(y.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3]);
        let shifted = x.map(|v| v + 100.0);
        assert!(softmax(&x).allclose(&softmax(&shifted), 1e-5));
    }

    #[test]
    fn softmax_grad_matches_finite_difference() {
        let mut rng = Rng::seed_from_u64(2);
        let x = Tensor::randn([2, 5], 1.0, &mut rng);
        let dy = Tensor::randn([2, 5], 1.0, &mut rng);
        let y = softmax(&x);
        let analytic = run_into(y.dims(), |o| softmax_grad_into(y.view(), dy.view(), o));
        let loss = |x: &Tensor| -> f32 {
            softmax(x)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-3;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!((fd - analytic.data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn cross_entropy_on_perfect_prediction_is_small() {
        let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0, -10.0, 10.0, -10.0], [2, 3]);
        let targets = Tensor::from_vec(vec![0.0, 1.0], [2]);
        let loss = cross_entropy_loss(&logits, &targets);
        assert!(loss.data()[0] < 1e-3);
    }

    #[test]
    fn cross_entropy_uniform_is_log_c() {
        let logits = Tensor::zeros([4, 10]);
        let targets = Tensor::from_vec(vec![0.0, 3.0, 7.0, 9.0], [4]);
        let loss = cross_entropy_loss(&logits, &targets);
        assert!((loss.data()[0] - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_grad_matches_finite_difference() {
        let mut rng = Rng::seed_from_u64(3);
        let logits = Tensor::randn([3, 4], 1.0, &mut rng);
        let targets = Tensor::from_vec(vec![1.0, 3.0, 0.0], [3]);
        let (lv, tv) = (logits.view(), targets.view());
        let analytic = run_into(logits.dims(), |o| cross_entropy_grad_into(lv, tv, 1.0, o));
        let eps = 1e-3;
        for i in 0..logits.numel() {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let fd = (cross_entropy_loss(&lp, &targets).data()[0]
                - cross_entropy_loss(&lm, &targets).data()[0])
                / (2.0 * eps);
            assert!((fd - analytic.data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn layer_norm_output_is_normalised() {
        let mut rng = Rng::seed_from_u64(4);
        let x = Tensor::randn([3, 16], 3.0, &mut rng);
        let gamma = Tensor::ones([16]);
        let beta = Tensor::zeros([16]);
        let (xv, gv, bv) = (x.view(), gamma.view(), beta.view());
        let y = run_into(x.dims(), |o| layer_norm_into(xv, gv, bv, 1e-5, o));
        for r in 0..3 {
            let row = &y.data()[r * 16..(r + 1) * 16];
            let mean: f32 = row.iter().sum::<f32>() / 16.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn layer_norm_grad_matches_finite_difference() {
        let mut rng = Rng::seed_from_u64(5);
        let x = Tensor::randn([2, 8], 1.0, &mut rng);
        let gamma = Tensor::rand_uniform([8], 0.5, 1.5, &mut rng);
        let beta = Tensor::randn([8], 0.2, &mut rng);
        let dy = Tensor::randn([2, 8], 1.0, &mut rng);
        let (xv, gv, dyv) = (x.view(), gamma.view(), dy.view());
        let dx = run_into(x.dims(), |o| layer_norm_grad_x_into(xv, gv, dyv, 1e-5, o));
        let dgamma = run_into([8], |o| layer_norm_grad_gamma_into(xv, dyv, 1e-5, o));
        let dbeta = run_into([8], |o| bias_grad_into(dyv, o));
        let loss = |x: &Tensor, g: &Tensor, b: &Tensor| -> f32 {
            let (x, g, b) = (x.view(), g.view(), b.view());
            let y = run_into(x.dims(), |o| layer_norm_into(x, g, b, 1e-5, o));
            y.data().iter().zip(dy.data()).map(|(a, b)| a * b).sum()
        };
        let eps = 1e-3;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (loss(&xp, &gamma, &beta) - loss(&xm, &gamma, &beta)) / (2.0 * eps);
            assert!(
                (fd - dx.data()[i]).abs() < 2e-2,
                "dx[{i}] {fd} vs {}",
                dx.data()[i]
            );
        }
        for i in 0..8 {
            let mut gp = gamma.clone();
            gp.data_mut()[i] += eps;
            let mut gm = gamma.clone();
            gm.data_mut()[i] -= eps;
            let fd = (loss(&x, &gp, &beta) - loss(&x, &gm, &beta)) / (2.0 * eps);
            assert!((fd - dgamma.data()[i]).abs() < 1e-2);
            let mut bp = beta.clone();
            bp.data_mut()[i] += eps;
            let mut bm = beta.clone();
            bm.data_mut()[i] -= eps;
            let fd = (loss(&x, &gamma, &bp) - loss(&x, &gamma, &bm)) / (2.0 * eps);
            assert!((fd - dbeta.data()[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn rms_norm_matches_definition_and_grad() {
        let mut rng = Rng::seed_from_u64(6);
        let x = Tensor::randn([2, 6], 1.0, &mut rng);
        let gamma = Tensor::rand_uniform([6], 0.5, 1.5, &mut rng);
        let y = run_into(x.dims(), |o| rms_norm_into(x.view(), gamma.view(), 1e-6, o));
        // Manual check of one element.
        let row = &x.data()[..6];
        let rms = (row.iter().map(|v| v * v).sum::<f32>() / 6.0 + 1e-6).sqrt();
        assert!((y.data()[0] - row[0] / rms * gamma.data()[0]).abs() < 1e-5);

        let dy = Tensor::randn([2, 6], 1.0, &mut rng);
        let (xv, gv, dyv) = (x.view(), gamma.view(), dy.view());
        let dx = run_into(x.dims(), |o| rms_norm_grad_x_into(xv, gv, dyv, 1e-6, o));
        let dgamma = run_into([6], |o| rms_norm_grad_gamma_into(xv, dyv, 1e-6, o));
        let loss = |x: &Tensor, g: &Tensor| -> f32 {
            let y = run_into(x.dims(), |o| rms_norm_into(x.view(), g.view(), 1e-6, o));
            y.data().iter().zip(dy.data()).map(|(a, b)| a * b).sum()
        };
        let eps = 1e-3;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (loss(&xp, &gamma) - loss(&xm, &gamma)) / (2.0 * eps);
            assert!((fd - dx.data()[i]).abs() < 2e-2);
        }
        for i in 0..6 {
            let mut gp = gamma.clone();
            gp.data_mut()[i] += eps;
            let mut gm = gamma.clone();
            gm.data_mut()[i] -= eps;
            let fd = (loss(&x, &gp) - loss(&x, &gm)) / (2.0 * eps);
            assert!((fd - dgamma.data()[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn softmax_gives_a_masked_logit_exactly_zero() {
        // A causal mask adds -1e9: the masked positions must get no weight
        // at all, not a denormal.
        let x = Tensor::from_vec(vec![0.5, -1e9, 1.5, -1e9], [1, 4]);
        let y = softmax(&x);
        assert_eq!(y.data()[1].to_bits(), 0.0f32.to_bits());
        assert_eq!(y.data()[3].to_bits(), 0.0f32.to_bits());
        assert!((y.data()[0] + y.data()[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_and_cross_entropy_do_not_swallow_nan_or_inf() {
        for poison in [f32::NAN, f32::INFINITY] {
            let x = Tensor::from_vec(vec![1.0, poison, 2.0, 0.0, 1.0, 2.0], [2, 3]);
            let y = softmax(&x);
            assert!(y.data()[..3].iter().all(|v| v.is_nan()), "{poison} row");
            assert!(y.data()[3..].iter().all(|v| v.is_finite()), "clean row");
            let targets = Tensor::from_vec(vec![0.0, 0.0], [2]);
            let loss = cross_entropy_loss(&x, &targets);
            assert!(!loss.data()[0].is_finite(), "{poison} must reach the loss");
        }
        // A row of -inf has no maximum to subtract: NaN, as it always was.
        let y = softmax(&Tensor::full([1, 3], f32::NEG_INFINITY));
        assert!(y.data().iter().all(|v| v.is_nan()));
    }
}
