//! 2-D convolution kernels (NCHW) with grouped/depthwise support, plus the
//! input- and weight-gradient kernels used by the compiled backward graph.

use super::gemm::{gemm, MatMut, MatRef};
use crate::TensorView;

/// Static convolution geometry shared by the forward and backward kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dParams {
    /// Spatial stride (same for height and width).
    pub stride: usize,
    /// Zero padding (same for all four sides).
    pub padding: usize,
    /// Number of groups; `groups == in_channels` gives a depthwise conv.
    pub groups: usize,
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams {
            stride: 1,
            padding: 0,
            groups: 1,
        }
    }
}

impl Conv2dParams {
    /// Creates parameters with the given stride and padding and one group.
    pub fn new(stride: usize, padding: usize) -> Self {
        Conv2dParams {
            stride,
            padding,
            groups: 1,
        }
    }

    /// Sets the group count.
    pub fn with_groups(mut self, groups: usize) -> Self {
        self.groups = groups;
        self
    }

    /// Output spatial size for an input spatial size and kernel size.
    ///
    /// # Panics
    ///
    /// Panics on a zero stride or kernel, and on a kernel larger than the
    /// padded input (which has no output position at all).
    pub fn out_size(&self, in_size: usize, kernel: usize) -> usize {
        assert!(self.stride > 0, "conv2d stride must be positive");
        let padded = in_size + 2 * self.padding;
        assert!(
            (1..=padded).contains(&kernel),
            "conv2d kernel size {kernel} does not fit the padded input size {padded}"
        );
        (padded - kernel) / self.stride + 1
    }
}

/// Output shape `[N, Cout, OH, OW]` of a convolution.
pub fn conv2d_out_dims(x_dims: &[usize], w_dims: &[usize], p: Conv2dParams) -> [usize; 4] {
    let (n, h, w) = (x_dims[0], x_dims[2], x_dims[3]);
    let (cout, kh, kw) = (w_dims[0], w_dims[2], w_dims[3]);
    [n, cout, p.out_size(h, kh), p.out_size(w, kw)]
}

/// Columns (output positions) of the patch panel, and its row stride.
const PANEL_COLS: usize = 64;
/// Rows (patch elements) of the patch panel.
const PANEL_ROWS: usize = 128;
/// The patch panel: a `PANEL_ROWS x PANEL_COLS` window of the im2col matrix,
/// 32 KB on the stack of the convolution call that fills it.
type PatchPanel = [f32; PANEL_ROWS * PANEL_COLS];

/// The windows of a `k x ohow` patch matrix, a panel at a time: `((k0, kc),
/// (j0, nc))`, row blocks innermost so one output window accumulates over `k`.
fn panel_windows(k: usize, ohow: usize) -> impl Iterator<Item = ((usize, usize), (usize, usize))> {
    (0..ohow).step_by(PANEL_COLS).flat_map(move |j0| {
        let cols = (j0, PANEL_COLS.min(ohow - j0));
        let rows = (0..k).step_by(PANEL_ROWS);
        rows.map(move |k0| ((k0, PANEL_ROWS.min(k - k0)), cols))
    })
}

/// Output positions `[lo, hi)` along one axis whose kernel tap `tap` reads
/// inside the input: `pad <= o * stride + tap < pad + in_size`. Both bounds
/// lie within `padding` steps of the ends, so stepping to them is cheaper
/// than the two divisions of the closed form on the per-plane path.
fn tap_range(tap: usize, p: Conv2dParams, in_size: usize, out_size: usize) -> (usize, usize) {
    let (mut lo, mut hi) = (0, out_size);
    while lo < hi && lo * p.stride + tap < p.padding {
        lo += 1;
    }
    while hi > lo && (hi - 1) * p.stride + tap >= p.padding + in_size {
        hi -= 1;
    }
    (lo, hi)
}

/// Checked geometry of one convolution, shared by the three kernels.
#[derive(Clone, Copy)]
struct Geometry {
    p: Conv2dParams,
    n: usize,
    cin: usize,
    h: usize,
    w: usize,
    cout: usize,
    cing: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
}

impl Geometry {
    /// # Panics
    ///
    /// Panics unless `x_dims` and `w_dims` are rank 4 and agree with the group
    /// count.
    fn new(x_dims: &[usize], w_dims: &[usize], p: Conv2dParams) -> Self {
        assert_eq!(x_dims.len(), 4, "conv2d input must be rank 4");
        assert_eq!(w_dims.len(), 4, "conv2d weight must be rank 4");
        let [n, cin, h, w] = [x_dims[0], x_dims[1], x_dims[2], x_dims[3]];
        let [cout, cing, kh, kw] = [w_dims[0], w_dims[1], w_dims[2], w_dims[3]];
        assert!(p.groups > 0, "conv2d needs at least one group");
        assert_eq!(cin, cing * p.groups, "conv2d channel/group mismatch");
        assert_eq!(
            cout % p.groups,
            0,
            "conv2d out channels not divisible by groups"
        );
        let [_, _, oh, ow] = conv2d_out_dims(x_dims, w_dims, p);
        Geometry {
            p,
            n,
            cin,
            h,
            w,
            cout,
            cing,
            kh,
            kw,
            oh,
            ow,
        }
    }

    /// Patch length: the contraction size of the lowered GEMM.
    fn patch(&self) -> usize {
        self.cing * self.kh * self.kw
    }

    /// One filter per channel: no contraction over channels to hand to GEMM.
    fn is_depthwise(&self) -> bool {
        self.cing == 1 && self.cout == self.p.groups
    }

    /// A 1x1, stride-1, unpadded convolution *is* a GEMM on the NCHW image.
    fn is_pointwise(&self) -> bool {
        self.kh == 1 && self.kw == 1 && self.p.stride == 1 && self.p.padding == 0
    }

    /// Visits the patch-panel window of rows `k0..k0 + kc` (patch elements)
    /// and columns `j0..j0 + nc` (output positions) as maximal runs:
    /// `f(panel_offset, len, Some(x_offset))` for a run read from one input
    /// row of the image group starting at `x_offset` (consecutive elements
    /// `stride` apart), `f(panel_offset, len, None)` for a run of padding.
    fn for_each_run(
        &self,
        (k0, kc): (usize, usize),
        (j0, nc): (usize, usize),
        mut f: impl FnMut(usize, usize, Option<usize>),
    ) {
        let Geometry {
            p, h, w, kh, kw, ..
        } = *self;
        let (mut icg, mut khi, mut kwi) = (k0 / (kh * kw), k0 / kw % kh, k0 % kw);
        let first = (j0 / self.ow, j0 % self.ow);
        for r in 0..kc {
            let (col_lo, col_hi) = tap_range(kwi, p, w, self.ow);
            let (mut ohi, mut owi) = first;
            let mut at = r * PANEL_COLS;
            let mut left = nc;
            while left > 0 {
                let end = self.ow.min(owi + left);
                let ih = ohi * p.stride + khi;
                let (lo, hi) = (col_lo.clamp(owi, end), col_hi.clamp(owi, end));
                if ih < p.padding || ih >= p.padding + h || lo >= hi {
                    f(at, end - owi, None);
                } else {
                    let x_at = (icg * h + ih - p.padding) * w + lo * p.stride + kwi - p.padding;
                    f(at, lo - owi, None);
                    f(at + lo - owi, hi - lo, Some(x_at));
                    f(at + hi - owi, end - hi, None);
                }
                at += end - owi;
                left -= end - owi;
                (ohi, owi) = (ohi + 1, 0);
            }
            kwi += 1;
            if kwi == kw {
                (khi, kwi) = (khi + 1, 0);
                if khi == kh {
                    (icg, khi) = (icg + 1, 0);
                }
            }
        }
    }

    /// im2col of one window: fills the panel from image group `xg`, padding
    /// written as zeros.
    fn gather(
        &self,
        xg: &[f32],
        rows: (usize, usize),
        cols: (usize, usize),
        panel: &mut PatchPanel,
    ) {
        let stride = self.p.stride;
        self.for_each_run(rows, cols, |at, len, src| {
            let run = &mut panel[at..at + len];
            match src {
                None => run.fill(0.0),
                Some(x_at) if stride == 1 => run.copy_from_slice(&xg[x_at..x_at + len]),
                Some(x_at) => {
                    for (v, xv) in run.iter_mut().zip(xg[x_at..].iter().step_by(stride)) {
                        *v = *xv;
                    }
                }
            }
        });
    }

    /// col2im of one window: adds the panel into image group `dxg`.
    fn scatter_add(
        &self,
        panel: &PatchPanel,
        rows: (usize, usize),
        cols: (usize, usize),
        dxg: &mut [f32],
    ) {
        let stride = self.p.stride;
        self.for_each_run(rows, cols, |at, len, src| {
            let Some(x_at) = src else { return };
            let run = &panel[at..at + len];
            if stride == 1 {
                for (d, v) in dxg[x_at..x_at + len].iter_mut().zip(run) {
                    *d += *v;
                }
            } else {
                for (d, v) in dxg[x_at..].iter_mut().step_by(stride).zip(run) {
                    *d += *v;
                }
            }
        });
    }

    /// The depthwise kernels' loop nest: `f(tap_block, plane)` for every
    /// kernel tap and channel plane, the block being the output rows and
    /// columns whose tap reads inside the input, so no bounds test is left
    /// for the kernels' inner loops. Planes go in groups small enough to stay
    /// in L1 across the taps, which also shares one block among the group.
    fn for_each_tap_plane(&self, planes: usize, mut f: impl FnMut(&TapBlock, usize)) {
        let Geometry {
            p, h, w, kh, kw, ..
        } = *self;
        let group = (DEPTHWISE_GROUP_ELEMS / (h * w).max(1)).max(1);
        for first in (0..planes).step_by(group) {
            for ky in 0..kh {
                let (row_lo, row_hi) = tap_range(ky, p, h, self.oh);
                for kx in 0..kw {
                    let (col_lo, col_hi) = tap_range(kx, p, w, self.ow);
                    if row_lo >= row_hi || col_lo >= col_hi {
                        continue;
                    }
                    let ih = row_lo * p.stride + ky - p.padding;
                    let block = TapBlock {
                        tap: ky * kw + kx,
                        rows: row_hi - row_lo,
                        len: col_hi - col_lo,
                        x_at: ih * w + col_lo * p.stride + kx - p.padding,
                        x_pitch: p.stride * w,
                        o_at: row_lo * self.ow + col_lo,
                        o_pitch: self.ow,
                    };
                    for plane in first..planes.min(first + group) {
                        f(&block, plane);
                    }
                }
            }
        }
    }
}

/// Input elements of one group of depthwise planes (16 KB; the output planes
/// are no larger).
const DEPTHWISE_GROUP_ELEMS: usize = 4096;

/// The output block one kernel tap contributes to, and the input block it
/// reads: `rows` rows of `len` elements, row `r` starting at `o_at + r *
/// o_pitch` in the output plane and at `x_at + r * x_pitch` in the input
/// plane, where consecutive elements are `stride` apart.
struct TapBlock {
    tap: usize,
    rows: usize,
    len: usize,
    x_at: usize,
    x_pitch: usize,
    o_at: usize,
    o_pitch: usize,
}

/// `dst[t * dst_step] += alpha * src[t * src_step]` for `t < len`.
#[inline(always)]
fn axpy(alpha: f32, src: &[f32], src_step: usize, dst: &mut [f32], dst_step: usize, len: usize) {
    if src_step == 1 && dst_step == 1 {
        for (d, s) in dst[..len].iter_mut().zip(&src[..len]) {
            *d += alpha * *s;
        }
    } else {
        for t in 0..len {
            dst[t * dst_step] += alpha * src[t * src_step];
        }
    }
}

/// Independent partial sums of the depthwise weight-gradient reduction.
const LANES: usize = 4;

/// `acc[t % LANES] += a[t] * b[t * b_step]` for `t < a.len()`.
#[inline(always)]
fn dot_lanes(acc: &mut [f32; LANES], a: &[f32], b: &[f32], b_step: usize) {
    if b_step == 1 {
        let (a4, a_tail) = a.as_chunks::<LANES>();
        let (b4, b_tail) = b[..a.len()].as_chunks::<LANES>();
        for (av, bv) in a4.iter().zip(b4) {
            for l in 0..LANES {
                acc[l] += av[l] * bv[l];
            }
        }
        for (l, (av, bv)) in a_tail.iter().zip(b_tail).enumerate() {
            acc[l] += av * bv;
        }
    } else {
        for (t, av) in a.iter().enumerate() {
            acc[t % LANES] += av * b[t * b_step];
        }
    }
}

/// Forward 2-D convolution writing into a preallocated `out` of
/// [`conv2d_out_dims`].
///
/// `x` is `[N, Cin, H, W]`, `weight` is `[Cout, Cin/groups, KH, KW]`. Per
/// image and group the output is the GEMM `W[Cout x K] · Patches[K x
/// OH·OW]`; the patch matrix is never materialised — a window of it is
/// gathered into a stack panel, and a 1x1 convolution reads the image itself.
/// `out` is fully overwritten.
///
/// # Panics
///
/// Panics on channel/group mismatches or a wrong `out` length.
pub fn conv2d_into(x: TensorView, weight: TensorView, p: Conv2dParams, out: &mut [f32]) {
    let g = Geometry::new(x.dims(), weight.dims(), p);
    let (hw, ohow, k) = (g.h * g.w, g.oh * g.ow, g.patch());
    assert_eq!(
        out.len(),
        g.n * g.cout * ohow,
        "conv2d output length mismatch"
    );
    let (xd, wd) = (x.data(), weight.data());
    if g.is_depthwise() {
        out.fill(0.0);
        g.for_each_tap_plane(g.n * g.cout, |t, plane| {
            let (xp, op) = (&xd[plane * hw..][..hw], &mut out[plane * ohow..][..ohow]);
            let wv = wd[plane % g.cout * k + t.tap];
            for r in 0..t.rows {
                let xrow = &xp[t.x_at + r * t.x_pitch..];
                let orow = &mut op[t.o_at + r * t.o_pitch..];
                axpy(wv, xrow, p.stride, orow, 1, t.len);
            }
        });
        return;
    }
    let cout_g = g.cout / p.groups;
    let mut panel: PatchPanel = [0.0; PANEL_ROWS * PANEL_COLS];
    for ni in 0..g.n {
        for gi in 0..p.groups {
            let xg = &xd[(ni * g.cin + gi * g.cing) * hw..][..g.cing * hw];
            let wg = &wd[gi * cout_g * k..][..cout_g * k];
            let og = &mut out[(ni * g.cout + gi * cout_g) * ohow..][..cout_g * ohow];
            if g.is_pointwise() {
                let (a, b) = (MatRef::row_major(wg, k), MatRef::row_major(xg, hw));
                gemm(cout_g, hw, k, a, b, MatMut::row_major(og, hw), false);
                continue;
            }
            for ((k0, kc), (j0, nc)) in panel_windows(k, ohow) {
                g.gather(xg, (k0, kc), (j0, nc), &mut panel);
                let a = MatRef::row_major(&wg[k0..], k);
                let b = MatRef::row_major(&panel, PANEL_COLS);
                let c = MatMut::row_major(&mut og[j0..], ohow);
                gemm(cout_g, nc, kc, a, b, c, k0 > 0);
            }
        }
    }
}

/// Gradient of a convolution with respect to its input (`dL/dX`), written
/// into a preallocated `out` of `x_dims`, which is fully overwritten.
///
/// `dy` is `[N, Cout, OH, OW]`, the forward output's shape. Per image and
/// group this is the GEMM `Wᵀ[K x Cout] · dY[Cout x OH·OW]`,
/// computed a panel at a time and scattered back onto the image (col2im); a
/// 1x1 convolution writes the product straight into `out`.
///
/// # Panics
///
/// Panics on channel/group mismatches, if `dy` is not the forward output's
/// shape, or if `out` does not match `x_dims`.
pub fn conv2d_grad_input_into(
    dy: TensorView,
    weight: TensorView,
    x_dims: &[usize],
    p: Conv2dParams,
    out: &mut [f32],
) {
    let g = Geometry::new(x_dims, weight.dims(), p);
    let (hw, ohow, k) = (g.h * g.w, g.oh * g.ow, g.patch());
    assert_eq!(
        dy.dims(),
        &[g.n, g.cout, g.oh, g.ow][..],
        "conv2d_dx dy shape is not the forward output shape"
    );
    assert_eq!(
        out.len(),
        g.n * g.cin * hw,
        "conv2d_dx output length mismatch"
    );
    let (dyd, wd) = (dy.data(), weight.data());
    if g.is_depthwise() {
        out.fill(0.0);
        g.for_each_tap_plane(g.n * g.cout, |t, plane| {
            let (dyp, dxp) = (&dyd[plane * ohow..][..ohow], &mut out[plane * hw..][..hw]);
            let wv = wd[plane % g.cout * k + t.tap];
            for r in 0..t.rows {
                let dyrow = &dyp[t.o_at + r * t.o_pitch..];
                let dxrow = &mut dxp[t.x_at + r * t.x_pitch..];
                axpy(wv, dyrow, 1, dxrow, p.stride, t.len);
            }
        });
        return;
    }
    let cout_g = g.cout / p.groups;
    let mut panel: PatchPanel = [0.0; PANEL_ROWS * PANEL_COLS];
    for ni in 0..g.n {
        for gi in 0..p.groups {
            let dyg = &dyd[(ni * g.cout + gi * cout_g) * ohow..][..cout_g * ohow];
            let wg = &wd[gi * cout_g * k..][..cout_g * k];
            let dxg = &mut out[(ni * g.cin + gi * g.cing) * hw..][..g.cing * hw];
            if g.is_pointwise() {
                let (a, b) = (MatRef::transposed(wg, k), MatRef::row_major(dyg, hw));
                gemm(k, hw, cout_g, a, b, MatMut::row_major(dxg, hw), false);
                continue;
            }
            dxg.fill(0.0);
            for ((k0, kc), (j0, nc)) in panel_windows(k, ohow) {
                let a = MatRef::transposed(&wg[k0..], k);
                let b = MatRef::row_major(&dyg[j0..], ohow);
                let c = MatMut::row_major(&mut panel, PANEL_COLS);
                gemm(kc, nc, cout_g, a, b, c, false);
                g.scatter_add(&panel, (k0, kc), (j0, nc), dxg);
            }
        }
    }
}

/// Gradient of a convolution with respect to its weight (`dL/dW`), written
/// into a preallocated `out`, which is fully overwritten.
///
/// `dy` may have fewer output channels than the full layer: `out` covers only
/// its `dy.dims()[1]` channels, `[grad_cout, w_dims[1], w_dims[2],
/// w_dims[3]]`, which is how the sub-layer (channel-sparse) backpropagation
/// scheme computes gradients for only the first `k` output channels.
///
/// Per image and group this accumulates the GEMM `dY[Cout x OH·OW] ·
/// Patchesᵀ[OH·OW x K]` over the same stack panels as the forward pass.
///
/// # Panics
///
/// Panics on channel/group mismatches, if `dy` has more channels than the
/// weight or another batch or spatial size than the forward output, or on a
/// wrong `out` length.
pub fn conv2d_grad_weight_into(
    x: TensorView,
    dy: TensorView,
    w_dims: &[usize],
    p: Conv2dParams,
    out: &mut [f32],
) {
    let g = Geometry::new(x.dims(), w_dims, p);
    let (hw, ohow, k) = (g.h * g.w, g.oh * g.ow, g.patch());
    assert_eq!(dy.rank(), 4, "conv2d_dw dy must be rank 4");
    let grad_cout = dy.dims()[1];
    assert!(grad_cout <= g.cout, "dy has more channels than the weight");
    assert_eq!(
        dy.dims(),
        &[g.n, grad_cout, g.oh, g.ow][..],
        "conv2d_dw dy shape is not the forward output shape"
    );
    assert_eq!(out.len(), grad_cout * k, "conv2d_dw output length mismatch");
    let (xd, dyd) = (x.data(), dy.data());
    out.fill(0.0);
    if g.is_depthwise() {
        // Planes of `dy`: a partial `grad_cout` skips the input's other channels.
        g.for_each_tap_plane(g.n * grad_cout, |t, plane| {
            let (ni, ch) = (plane / grad_cout, plane % grad_cout);
            let xp = &xd[(ni * g.cin + ch) * hw..][..hw];
            let dyp = &dyd[plane * ohow..][..ohow];
            let mut acc = [0.0f32; LANES];
            for r in 0..t.rows {
                let dyrow = &dyp[t.o_at + r * t.o_pitch..][..t.len];
                dot_lanes(&mut acc, dyrow, &xp[t.x_at + r * t.x_pitch..], p.stride);
            }
            out[ch * k + t.tap] += (acc[0] + acc[2]) + (acc[1] + acc[3]);
        });
        return;
    }
    let cout_g = g.cout / p.groups;
    let mut panel: PatchPanel = [0.0; PANEL_ROWS * PANEL_COLS];
    for ni in 0..g.n {
        for gi in 0..p.groups {
            // The gradient channels of this group: all, some or none of it.
            let oc0 = gi * cout_g;
            let mg = cout_g.min(grad_cout.saturating_sub(oc0));
            if mg == 0 {
                break;
            }
            let xg = &xd[(ni * g.cin + gi * g.cing) * hw..][..g.cing * hw];
            let dyg = &dyd[(ni * grad_cout + oc0) * ohow..][..mg * ohow];
            let dwg = &mut out[oc0 * k..][..mg * k];
            if g.is_pointwise() {
                let (a, b) = (MatRef::row_major(dyg, hw), MatRef::transposed(xg, hw));
                gemm(mg, k, hw, a, b, MatMut::row_major(dwg, k), true);
                continue;
            }
            for ((k0, kc), (j0, nc)) in panel_windows(k, ohow) {
                g.gather(xg, (k0, kc), (j0, nc), &mut panel);
                // dWᵀ[K x Cout] += Patches · dYᵀ keeps the panel the
                // row-major operand and the odd-sized K on the row side.
                let a = MatRef::row_major(&panel, PANEL_COLS);
                let b = MatRef::transposed(&dyg[j0..], ohow);
                let c = MatMut::transposed(&mut dwg[k0..], k);
                gemm(kc, mg, nc, a, b, c, true);
            }
        }
    }
}

/// FLOP count of a forward convolution (multiply-add = 2 FLOPs).
pub fn conv2d_flops(x_dims: &[usize], w_dims: &[usize], p: Conv2dParams) -> u64 {
    let od = conv2d_out_dims(x_dims, w_dims, p);
    let cing = w_dims[1];
    let (kh, kw) = (w_dims[2], w_dims[3]);
    2 * od.iter().product::<usize>() as u64 * (cing * kh * kw) as u64
}

/// The direct seven-deep loops the lowered kernels replaced, kept as the
/// oracle the tests compare against.
#[cfg(test)]
mod oracle {
    use super::{conv2d_out_dims, Conv2dParams};
    use crate::Tensor;

    /// Visits `(x index, weight index, output index)` of every multiply-add
    /// of a convolution whose output has `grad_cout` channels.
    fn for_each_mac(
        x_dims: &[usize],
        w_dims: &[usize],
        grad_cout: usize,
        p: Conv2dParams,
        mut f: impl FnMut(usize, usize, usize),
    ) {
        let [n, cin, h, w] = [x_dims[0], x_dims[1], x_dims[2], x_dims[3]];
        let [cout, cing, kh, kw] = [w_dims[0], w_dims[1], w_dims[2], w_dims[3]];
        let [_, _, oh, ow] = conv2d_out_dims(x_dims, w_dims, p);
        let cout_g = cout / p.groups;
        for ni in 0..n {
            for oc in 0..grad_cout {
                let g = oc / cout_g;
                for ohi in 0..oh {
                    for owi in 0..ow {
                        for icg in 0..cing {
                            let ic = g * cing + icg;
                            for khi in 0..kh {
                                let ih = (ohi * p.stride + khi) as isize - p.padding as isize;
                                if ih < 0 || ih >= h as isize {
                                    continue;
                                }
                                for kwi in 0..kw {
                                    let iw = (owi * p.stride + kwi) as isize - p.padding as isize;
                                    if iw < 0 || iw >= w as isize {
                                        continue;
                                    }
                                    let xi = ((ni * cin + ic) * h + ih as usize) * w + iw as usize;
                                    let wi = ((oc * cing + icg) * kh + khi) * kw + kwi;
                                    f(xi, wi, ((ni * grad_cout + oc) * oh + ohi) * ow + owi);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    pub fn conv2d(x: &Tensor, weight: &Tensor, p: Conv2dParams) -> Vec<f32> {
        let od = conv2d_out_dims(x.dims(), weight.dims(), p);
        let mut out = vec![0.0; od.iter().product()];
        for_each_mac(x.dims(), weight.dims(), od[1], p, |xi, wi, oi| {
            out[oi] += x.data()[xi] * weight.data()[wi];
        });
        out
    }

    pub fn conv2d_grad_input(
        dy: &Tensor,
        weight: &Tensor,
        x_dims: &[usize],
        p: Conv2dParams,
    ) -> Vec<f32> {
        let mut dx = vec![0.0; x_dims.iter().product()];
        for_each_mac(x_dims, weight.dims(), weight.dims()[0], p, |xi, wi, oi| {
            dx[xi] += dy.data()[oi] * weight.data()[wi];
        });
        dx
    }

    pub fn conv2d_grad_weight(
        x: &Tensor,
        dy: &Tensor,
        w_dims: &[usize],
        p: Conv2dParams,
    ) -> Vec<f32> {
        let grad_cout = dy.dims()[1];
        let mut dw = vec![0.0; grad_cout * w_dims[1] * w_dims[2] * w_dims[3]];
        for_each_mac(x.dims(), w_dims, grad_cout, p, |xi, wi, oi| {
            dw[wi] += dy.data()[oi] * x.data()[xi];
        });
        dw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::layout::slice_axis_into;
    use crate::kernels::run_into;
    use crate::{Rng, Tensor};

    fn conv2d(x: &Tensor, w: &Tensor, p: Conv2dParams) -> Tensor {
        let dims = conv2d_out_dims(x.dims(), w.dims(), p);
        run_into(dims, |o| conv2d_into(x.view(), w.view(), p, o))
    }

    fn conv2d_grad_input(dy: &Tensor, w: &Tensor, x_dims: &[usize], p: Conv2dParams) -> Tensor {
        let (dy, w) = (dy.view(), w.view());
        run_into(x_dims, |o| conv2d_grad_input_into(dy, w, x_dims, p, o))
    }

    fn conv2d_grad_weight(x: &Tensor, dy: &Tensor, w_dims: &[usize], p: Conv2dParams) -> Tensor {
        let dims = [dy.dims()[1], w_dims[1], w_dims[2], w_dims[3]];
        let (x, dy) = (x.view(), dy.view());
        run_into(dims, |o| conv2d_grad_weight_into(x, dy, w_dims, p, o))
    }

    /// Finite-difference gradient check for both conv gradients.
    fn grad_check(p: Conv2dParams, x_dims: [usize; 4], w_dims: [usize; 4]) {
        let mut rng = Rng::seed_from_u64(42);
        let x = Tensor::randn(&x_dims[..], 1.0, &mut rng);
        let w = Tensor::randn(&w_dims[..], 0.5, &mut rng);
        let dy = Tensor::randn(&conv2d_out_dims(x.dims(), w.dims(), p)[..], 1.0, &mut rng);

        let loss = |x: &Tensor, w: &Tensor| -> f32 {
            conv2d(x, w, p)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum()
        };

        let dx = conv2d_grad_input(&dy, &w, x.dims(), p);
        let dw = conv2d_grad_weight(&x, &dy, w.dims(), p);
        let eps = 1e-2;
        // Spot-check a handful of entries to keep the test fast.
        for i in (0..x.numel()).step_by(x.numel() / 7 + 1) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!(
                (fd - dx.data()[i]).abs() < 0.05,
                "dx[{i}] fd {fd} vs {}",
                dx.data()[i]
            );
        }
        for i in (0..w.numel()).step_by(w.numel() / 7 + 1) {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let fd = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!(
                (fd - dw.data()[i]).abs() < 0.05,
                "dw[{i}] fd {fd} vs {}",
                dw.data()[i]
            );
        }
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // 1x1 conv with identity weight acts per-pixel as a matrix multiply.
        let x = Tensor::from_vec((0..18).map(|v| v as f32).collect(), [1, 2, 3, 3]);
        let mut w = Tensor::zeros([2, 2, 1, 1]);
        w.set(&[0, 0, 0, 0], 1.0);
        w.set(&[1, 1, 0, 0], 1.0);
        let y = conv2d(&x, &w, Conv2dParams::default());
        assert!(y.allclose(&x, 1e-6));
    }

    #[test]
    fn known_3x3_result() {
        // Single-channel 3x3 input with a 3x3 all-ones kernel and padding 1:
        // the centre output equals the sum of all inputs.
        let x = Tensor::ones([1, 1, 3, 3]);
        let w = Tensor::ones([1, 1, 3, 3]);
        let y = conv2d(&x, &w, Conv2dParams::new(1, 1));
        assert_eq!(y.dims(), &[1, 1, 3, 3]);
        assert_eq!(y.at(&[0, 0, 1, 1]), 9.0);
        assert_eq!(y.at(&[0, 0, 0, 0]), 4.0);
    }

    #[test]
    fn stride_and_padding_output_dims() {
        let p = Conv2dParams::new(2, 1);
        assert_eq!(p.out_size(8, 3), 4);
        let x = Tensor::zeros([2, 3, 8, 8]);
        let w = Tensor::zeros([4, 3, 3, 3]);
        assert_eq!(conv2d_out_dims(x.dims(), w.dims(), p), [2, 4, 4, 4]);
    }

    #[test]
    fn depthwise_groups_match_manual() {
        // Depthwise conv: each channel convolved with its own 1-channel filter.
        let mut rng = Rng::seed_from_u64(7);
        let x = Tensor::randn([1, 2, 4, 4], 1.0, &mut rng);
        let w = Tensor::randn([2, 1, 3, 3], 1.0, &mut rng);
        let p = Conv2dParams::new(1, 1).with_groups(2);
        let y = conv2d(&x, &w, p);
        // Compare channel 1 against a single-channel convolution.
        let x1 = Tensor::from_vec(x.data()[16..32].to_vec(), [1, 1, 4, 4]);
        let w1 = Tensor::from_vec(w.data()[9..18].to_vec(), [1, 1, 3, 3]);
        let y1 = conv2d(&x1, &w1, Conv2dParams::new(1, 1));
        let got = Tensor::from_vec(y.data()[16..32].to_vec(), [1, 1, 4, 4]);
        assert!(got.allclose(&y1, 1e-5));
    }

    #[test]
    fn gradients_match_finite_difference_dense() {
        grad_check(Conv2dParams::new(1, 1), [1, 2, 5, 5], [3, 2, 3, 3]);
    }

    #[test]
    fn gradients_match_finite_difference_strided() {
        grad_check(Conv2dParams::new(2, 1), [1, 2, 6, 6], [2, 2, 3, 3]);
    }

    #[test]
    fn gradients_match_finite_difference_depthwise() {
        grad_check(
            Conv2dParams::new(1, 1).with_groups(3),
            [1, 3, 5, 5],
            [3, 1, 3, 3],
        );
    }

    #[test]
    fn partial_weight_gradient_matches_full_prefix() {
        let mut rng = Rng::seed_from_u64(11);
        let p = Conv2dParams::new(1, 1);
        let x = Tensor::randn([2, 3, 6, 6], 1.0, &mut rng);
        let w = Tensor::randn([4, 3, 3, 3], 0.5, &mut rng);
        let dy = Tensor::randn(&conv2d_out_dims(x.dims(), w.dims(), p)[..], 1.0, &mut rng);
        let full = conv2d_grad_weight(&x, &dy, w.dims(), p);
        // First two channels only.
        let dy_sliced = run_into([2, 2, 6, 6], |o| slice_axis_into(dy.view(), 1, 0, 2, o));
        let partial = conv2d_grad_weight(&x, &dy_sliced, w.dims(), p);
        assert_eq!(partial.dims(), &[2, 3, 3, 3]);
        let full_prefix = Tensor::from_vec(full.data()[..partial.numel()].to_vec(), partial.dims());
        assert!(partial.allclose(&full_prefix, 1e-4));
    }

    #[test]
    fn flops_counts_macs_twice() {
        let p = Conv2dParams::new(1, 0);
        // 1x1x2x2 output, 1 input channel, 2x2 kernel: 4 outputs * 4 MACs * 2.
        assert_eq!(conv2d_flops(&[1, 1, 3, 3], &[1, 1, 2, 2], p), 32);
    }

    #[test]
    #[should_panic(expected = "channel/group mismatch")]
    fn mismatched_channels_panic() {
        conv2d(
            &Tensor::zeros([1, 3, 4, 4]),
            &Tensor::zeros([2, 2, 3, 3]),
            Conv2dParams::default(),
        );
    }

    /// Largest difference relative to the reference's largest magnitude.
    fn rel_err(got: &[f32], want: &[f32]) -> f32 {
        assert_eq!(got.len(), want.len());
        let scale = want.iter().fold(1e-6f32, |m, v| m.max(v.abs()));
        let diff = got.iter().zip(want).map(|(a, b)| (a - b).abs());
        diff.fold(0.0f32, f32::max) / scale
    }

    /// Forward, grad-input and grad-weight (with `grad_cout` channels) of one
    /// geometry against the naive oracle.
    fn check_against_oracle(
        x_dims: [usize; 4],
        w_dims: [usize; 4],
        p: Conv2dParams,
        grad_cout: usize,
        rng: &mut Rng,
    ) {
        let what = format!("x {x_dims:?} w {w_dims:?} {p:?} grad_cout {grad_cout}");
        let x = Tensor::randn(&x_dims[..], 1.0, rng);
        let w = Tensor::randn(&w_dims[..], 0.5, rng);
        let [n, cout, oh, ow] = conv2d_out_dims(&x_dims, &w_dims, p);
        let dy = Tensor::randn([n, cout, oh, ow], 1.0, rng);
        let y = conv2d(&x, &w, p);
        assert!(
            rel_err(y.data(), &oracle::conv2d(&x, &w, p)) <= 1e-5,
            "forward: {what}"
        );
        let dx = conv2d_grad_input(&dy, &w, &x_dims, p);
        let want = oracle::conv2d_grad_input(&dy, &w, &x_dims, p);
        assert!(rel_err(dx.data(), &want) <= 1e-5, "grad-input: {what}");
        let dy_part = run_into([n, grad_cout, oh, ow], |o| {
            slice_axis_into(dy.view(), 1, 0, grad_cout, o)
        });
        let dw = conv2d_grad_weight(&x, &dy_part, &w_dims, p);
        let want = oracle::conv2d_grad_weight(&x, &dy_part, &w_dims, p);
        assert_eq!(dw.dims(), &[grad_cout, w_dims[1], w_dims[2], w_dims[3]]);
        assert!(rel_err(dw.data(), &want) <= 1e-5, "grad-weight: {what}");
    }

    #[test]
    fn lowered_kernels_match_the_naive_oracle() {
        // Sizes that divide neither the register tile nor the patch panel.
        const SIZES: [usize; 6] = [1, 3, 5, 15, 17, 33];
        let mut rng = Rng::seed_from_u64(2024);
        let pick = |rng: &mut Rng, at_least: usize, at_most: usize| loop {
            let v = SIZES[rng.next_usize(SIZES.len())];
            if (at_least..=at_most).contains(&v) {
                return v;
            }
        };
        for kernel in [1usize, 3, 5, 7] {
            for stride in [1, 2] {
                for padding in 0..=3 {
                    // groups: dense, two groups, depthwise (one channel each).
                    for grouping in 0..3 {
                        let smallest = kernel.saturating_sub(2 * padding).max(1);
                        let (h, w) = (pick(&mut rng, smallest, 33), pick(&mut rng, smallest, 33));
                        // Keep the naive oracle affordable in a debug build.
                        let most = if h * w * kernel * kernel > 4000 {
                            5
                        } else {
                            17
                        };
                        let (cing, cout_g) = (pick(&mut rng, 1, most), pick(&mut rng, 1, most));
                        let (groups, cing, cout_g) = match grouping {
                            0 => (1, cing, cout_g),
                            1 => (2, cing, cout_g),
                            _ => (cing.max(2), 1, 1),
                        };
                        let n = 1 + rng.next_usize(2);
                        let p = Conv2dParams::new(stride, padding).with_groups(groups);
                        let cout = groups * cout_g;
                        let grad_cout = 1 + rng.next_usize(cout);
                        check_against_oracle(
                            [n, groups * cing, h, w],
                            [cout, cing, kernel, kernel],
                            p,
                            grad_cout,
                            &mut rng,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn patches_longer_and_wider_than_one_panel_match_the_oracle() {
        let mut rng = Rng::seed_from_u64(5);
        // K = 17 * 9 = 153 > PANEL_ROWS, OH * OW = 17 * 15 > PANEL_COLS.
        check_against_oracle(
            [2, 17, 17, 15],
            [5, 17, 3, 3],
            Conv2dParams::new(1, 1),
            3,
            &mut rng,
        );
        // A channel multiplier (one input channel, three filters per group)
        // is grouped, not depthwise.
        check_against_oracle(
            [1, 4, 9, 9],
            [12, 1, 3, 3],
            Conv2dParams::new(2, 1).with_groups(4),
            7,
            &mut rng,
        );
        // A strided 1x1 gathers; an unpadded stride-1 one does not.
        check_against_oracle(
            [2, 6, 9, 7],
            [4, 6, 1, 1],
            Conv2dParams::new(2, 0),
            4,
            &mut rng,
        );
    }

    #[test]
    #[should_panic(expected = "does not fit the padded input")]
    fn kernel_larger_than_padded_input_panics() {
        Conv2dParams::new(1, 1).out_size(2, 5);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_panics() {
        Conv2dParams::new(0, 1).out_size(8, 3);
    }

    #[test]
    #[should_panic(expected = "dy shape is not the forward output shape")]
    fn grad_input_rejects_a_mismatched_gradient() {
        // The forward output is 6x6; a 5x5 gradient must not be sliced.
        conv2d_grad_input(
            &Tensor::zeros([1, 2, 5, 5]),
            &Tensor::zeros([2, 3, 3, 3]),
            &[1, 3, 6, 6],
            Conv2dParams::new(1, 1),
        );
    }

    #[test]
    #[should_panic(expected = "channel/group mismatch")]
    fn grad_input_rejects_inconsistent_groups() {
        conv2d_grad_input(
            &Tensor::zeros([1, 2, 6, 6]),
            &Tensor::zeros([2, 3, 3, 3]),
            &[1, 4, 6, 6],
            Conv2dParams::new(1, 1),
        );
    }

    #[test]
    #[should_panic(expected = "dy shape is not the forward output shape")]
    fn grad_weight_rejects_a_mismatched_gradient() {
        conv2d_grad_weight(
            &Tensor::zeros([2, 3, 6, 6]),
            &Tensor::zeros([1, 2, 6, 6]),
            &[2, 3, 3, 3],
            Conv2dParams::new(1, 1),
        );
    }

    #[test]
    #[should_panic(expected = "more channels than the weight")]
    fn grad_weight_rejects_too_many_gradient_channels() {
        conv2d_grad_weight(
            &Tensor::zeros([1, 3, 6, 6]),
            &Tensor::zeros([1, 5, 6, 6]),
            &[4, 3, 3, 3],
            Conv2dParams::new(1, 1),
        );
    }
}
