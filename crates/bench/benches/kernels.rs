//! Criterion micro-benchmarks for the shared kernel library: the GEMM and
//! convolution kernels that dominate training time, and the GEMM and
//! non-GEMM kernels of the benchmark's training steps at their shapes. The
//! first line printed names the GEMM microkernel this CPU runs.

use std::hint::black_box;

use criterion::{criterion_group, Criterion};
use pockengine::pe_tensor::kernels::conv::{
    conv2d_grad_input_into, conv2d_grad_weight_into, conv2d_into, Conv2dParams,
};
use pockengine::pe_tensor::kernels::elementwise::{
    add_bias_into, bias_grad_into, binary_into, unary_grad_into, unary_into, BinaryOp, UnaryGradOp,
    UnaryOp,
};
use pockengine::pe_tensor::kernels::gemm::{batched_matmul_into, matmul_into, simd_path};
use pockengine::pe_tensor::kernels::layout::{permute_into, slice_axis_into};
use pockengine::pe_tensor::kernels::norm::softmax_into;
use pockengine::pe_tensor::{Rng, Tensor};

/// The GEMMs, through the `_into` kernels the arena executor dispatches: a
/// square-ish product with and without a transposed right operand; then
/// `finetune_bert_sparse`'s step shapes: a linear forward (`NT`, hidden 64),
/// the FFN's up projection, a weight gradient (`TN`) and the attention
/// scores (4 batches × 4 heads of 32 tokens × head 16); and a
/// MobileNetV2-tiny 1×1 convolution, which is the GEMM on the image itself.
fn bench_gemm_shapes(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(0);
    let a = Tensor::randn([64, 128], 1.0, &mut rng);
    let b = Tensor::randn([128, 64], 1.0, &mut rng);
    let bt = Tensor::randn([64, 128], 1.0, &mut rng);
    let mut out = vec![0.0f32; 128 * 128];
    let ab = &mut out[..64 * 64];
    c.bench_function("matmul_64x128x64", |bencher| {
        bencher.iter(|| matmul_into(black_box(a.view()), b.view(), false, false, ab))
    });
    c.bench_function("matmul_64x128x64_transposed_rhs", |bencher| {
        bencher.iter(|| matmul_into(black_box(a.view()), bt.view(), false, true, ab))
    });

    let mut rng = Rng::seed_from_u64(3);
    let x = Tensor::randn([128, 64], 1.0, &mut rng);
    let w = Tensor::randn([64, 64], 1.0, &mut rng);
    c.bench_function("matmul_nt_128x64x64", |bencher| {
        bencher.iter(|| {
            matmul_into(
                black_box(x.view()),
                w.view(),
                false,
                true,
                &mut out[..128 * 64],
            )
        })
    });
    let w_up = Tensor::randn([128, 64], 1.0, &mut rng);
    c.bench_function("matmul_nt_128x128x64", |bencher| {
        bencher.iter(|| matmul_into(black_box(x.view()), w_up.view(), false, true, &mut out))
    });
    let dy = Tensor::randn([128, 64], 1.0, &mut rng);
    c.bench_function("matmul_tn_128x64x64", |bencher| {
        bencher.iter(|| {
            matmul_into(
                black_box(dy.view()),
                x.view(),
                true,
                false,
                &mut out[..64 * 64],
            )
        })
    });
    let q = Tensor::randn([4, 4, 32, 16], 1.0, &mut rng);
    let k = Tensor::randn([4, 4, 32, 16], 1.0, &mut rng);
    c.bench_function("bmm_nt_4x4x32x16", |bencher| {
        bencher.iter(|| {
            batched_matmul_into(
                black_box(q.view()),
                k.view(),
                false,
                true,
                &mut out[..16 * 32 * 32],
            )
        })
    });
    let image = Tensor::randn([8, 16, 8, 8], 1.0, &mut rng);
    let w1 = Tensor::randn([16, 16, 1, 1], 0.5, &mut rng);
    c.bench_function("conv2d_pointwise_8x16x8x8", |bencher| {
        bencher.iter(|| {
            conv2d_into(
                black_box(image.view()),
                w1.view(),
                Conv2dParams::default(),
                &mut out[..image.numel()],
            )
        })
    });
    black_box(&out);
}

fn bench_conv(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(1);
    let x = Tensor::randn([1, 16, 32, 32], 1.0, &mut rng);
    let w = Tensor::randn([16, 16, 3, 3], 0.5, &mut rng);
    let dy = Tensor::randn([1, 16, 32, 32], 1.0, &mut rng);
    let p = Conv2dParams::new(1, 1);
    let (xv, wv, dyv) = (x.view(), w.view(), dy.view());
    let (mut y, mut dw) = (vec![0.0f32; x.numel()], vec![0.0f32; w.numel()]);
    c.bench_function("conv2d_direct_16x32x32", |bencher| {
        bencher.iter(|| conv2d_into(black_box(xv), wv, p, &mut y))
    });
    c.bench_function("conv2d_grad_input_16x32x32", |bencher| {
        bencher.iter(|| conv2d_grad_input_into(black_box(dyv), wv, x.dims(), p, &mut y))
    });
    c.bench_function("conv2d_grad_weight_16x32x32", |bencher| {
        bencher.iter(|| conv2d_grad_weight_into(black_box(xv), dyv, w.dims(), p, &mut dw))
    });
    // The same layer at batch 8, where the lowered kernel's per-call set-up
    // is amortised as in training.
    let x8 = Tensor::randn([8, 16, 32, 32], 1.0, &mut rng);
    let mut y8 = vec![0.0f32; x8.numel()];
    c.bench_function("conv2d_direct_16x32x32_batch8", |bencher| {
        bencher.iter(|| conv2d_into(black_box(x8.view()), wv, p, &mut y8))
    });
    // The other two branches of the lowered convolution on the same image.
    let w1 = Tensor::randn([16, 16, 1, 1], 0.5, &mut rng);
    let pointwise = Conv2dParams::default();
    c.bench_function("conv2d_pointwise_16x32x32", |bencher| {
        bencher.iter(|| conv2d_into(black_box(xv), w1.view(), pointwise, &mut y))
    });
    let wd = Tensor::randn([16, 1, 3, 3], 0.5, &mut rng);
    let depthwise = p.with_groups(16);
    c.bench_function("conv2d_depthwise_16x32x32", |bencher| {
        bencher.iter(|| conv2d_into(black_box(xv), wd.view(), depthwise, &mut y))
    });
    // Sparse (channel-pruned) weight gradient: only the first 4 of 16 output
    // channels — the kernel-level effect behind the sub-layer sparse scheme.
    let mut dy4 = Tensor::zeros([1, 4, 32, 32]);
    slice_axis_into(dyv, 1, 0, 4, dy4.data_mut());
    let dw4 = &mut dw[..4 * 16 * 9];
    c.bench_function("conv2d_grad_weight_channel_sparse_4_of_16", |bencher| {
        bencher.iter(|| conv2d_grad_weight_into(black_box(xv), dy4.view(), w.dims(), p, dw4))
    });
    black_box((&y, &y8, &dw));
}

/// What the encoder's step spends outside GEMM, through the `_into` kernels
/// the arena executor dispatches, at `finetune_bert_sparse`'s shapes (batch
/// 4, 32 tokens, hidden 64, 4 heads, FFN 128).
fn bench_encoder_floor(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(2);
    let mut out = vec![0.0f32; 16 * 1024];

    let heads = Tensor::randn([4, 32, 4, 16], 1.0, &mut rng);
    c.bench_function("permute_0213_4x32x4x16", |bencher| {
        bencher.iter(|| {
            permute_into(
                black_box(heads.view()),
                &[0, 2, 1, 3],
                &mut out[..heads.numel()],
            )
        })
    });

    let ffn = Tensor::randn([4, 32, 128], 1.5, &mut rng);
    let dy = Tensor::randn([4, 32, 128], 1.0, &mut rng);
    c.bench_function("gelu_16k", |bencher| {
        bencher.iter(|| unary_into(UnaryOp::Gelu, black_box(ffn.view()), &mut out))
    });
    c.bench_function("gelu_grad_16k", |bencher| {
        bencher.iter(|| {
            unary_grad_into(
                UnaryGradOp::Gelu,
                black_box(ffn.view()),
                black_box(dy.view()),
                &mut out,
            )
        })
    });

    let hidden = Tensor::randn([128, 64], 1.0, &mut rng);
    let bias = Tensor::randn([64], 1.0, &mut rng);
    c.bench_function("add_bias_128x64", |bencher| {
        bencher.iter(|| {
            add_bias_into(
                black_box(hidden.view()),
                black_box(bias.view()),
                &mut out[..128 * 64],
            )
        })
    });
    c.bench_function("bias_grad_128x64", |bencher| {
        bencher.iter(|| bias_grad_into(black_box(hidden.view()), &mut out[..64]))
    });

    let scores = Tensor::randn([4, 4, 32, 32], 2.0, &mut rng);
    c.bench_function("softmax_512x32", |bencher| {
        bencher.iter(|| softmax_into(black_box(scores.view()), &mut out))
    });

    let residual = Tensor::randn([128, 64], 1.0, &mut rng);
    c.bench_function("add_same_shape_8k", |bencher| {
        bencher.iter(|| {
            binary_into(
                BinaryOp::Add,
                black_box(hidden.view()),
                black_box(residual.view()),
                &mut out[..128 * 64],
            )
        })
    });
    black_box(&out);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_gemm_shapes, bench_conv, bench_encoder_floor
}

fn main() {
    // Which GEMM microkernel the numbers below ran on.
    println!("simd_path: {}", simd_path());
    benches();
}
