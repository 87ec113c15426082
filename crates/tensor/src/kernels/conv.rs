//! 2-D convolution kernels (NCHW) with grouped/depthwise support, plus the
//! input- and weight-gradient kernels used by the compiled backward graph.
//!
//! Dense and grouped convolutions lower onto the GEMM core a stack panel of
//! patches at a time. A depthwise convolution has no channel contraction to
//! hand to GEMM; its forward and input gradient run one padded-row kernel
//! instead. For each band of output rows it stages the input rows those
//! outputs read into the 32 KB patch panel, zero-bordered, and at stride > 1
//! split by column phase, so that every tap reads a contiguous run. It then
//! computes 8-wide output strips of four rows at a time: each strip's
//! accumulators start at +0, take all `kh x kw` taps in `(ky, kx)` order and
//! are stored once. The input gradient is the same loop at stride 1 over
//! `dy`, zero-upsampled by the stride and bordered, with the taps mirrored.
//!
//! Each output therefore sums the taps that read inside the input in the
//! same order as a clipped per-tap loop does, plus padding taps that add
//! `w · 0 = ±0`. A sum that starts at +0 never becomes −0 (round to nearest
//! gives `x + (−x) = +0`), and adding ±0 to any other value leaves it
//! unchanged, so the padding taps change no bit, for finite weights. An
//! infinite or NaN weight makes `w · 0` NaN, which turns a border output
//! the clipped loop leaves at ±inf or finite into NaN. The depthwise weight
//! gradient keeps per-tap clipped blocks and lane-accumulated dots.

use std::ops::Range;

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
    pub(crate) fn out_size(&self, in_size: usize, kernel: usize) -> usize {
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

    /// The depthwise weight gradient's loop nest: `f(tap_block, planes)` for
    /// every kernel tap and group of channel planes, the block being the
    /// output rows and columns whose tap reads inside the input, so no bounds
    /// test is left for the inner loops. A group is small enough to stay in
    /// L1 across the taps.
    fn for_each_tap_block(&self, planes: usize, mut f: impl FnMut(&TapBlock, Range<usize>)) {
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
                    f(&block, first..planes.min(first + group));
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

/// Width of a depthwise output strip: the accumulators one strip keeps in
/// registers across all of its taps.
const STRIP: usize = 8;
/// Elements of the depthwise staging tile: the convolution's patch panel,
/// which a depthwise call does not otherwise use.
const STAGE: usize = PANEL_ROWS * PANEL_COLS;
/// Most taps one depthwise pass takes. A kernel with more runs in passes of
/// whole tap rows, or of pieces of one row when a row alone is longer, so
/// every output still takes its taps in `(ky, kx)` order.
const PASS_TAPS: usize = 64;
/// Output rows whose strips take each tap together: independent
/// accumulator chains, so the adds do not wait on each other.
const ROWS: usize = 4;

/// A depthwise convolution, or its input gradient, as one correlation over
/// zero-bordered rows: output `(r, c)` sums `w[ky][kx] · v(r·step + pos(ky),
/// c·step + pos(kx))` over the taps in `(ky, kx)` order, where `v` is a
/// virtual plane that is zero wherever it has no source element.
///
/// Forward, the source is the input, `step` is the stride, `pos(k) = k`, and
/// `v(a, b) = x[a − pad][b − pad]` is the padded input. For the input
/// gradient the source is `dy`, `step` is 1, the taps are mirrored (`pos(k)
/// = taps − 1 − k`), and `v` is `dy` zero-upsampled by the stride and
/// bordered: `v(a, b) = dy[u / stride][u' / stride]` for `u = a + pad − (kh
/// − 1)` and `u' = b + pad − (kw − 1)` when the stride divides both.
#[derive(Clone, Copy)]
struct Depthwise {
    stride: usize,
    pad: usize,
    kh: usize,
    kw: usize,
    /// Rows and columns of the source plane.
    src: (usize, usize),
    /// Rows and columns of the output plane.
    out: (usize, usize),
    /// The input gradient's mirrored taps over the upsampled `dy`.
    mirrored: bool,
}

/// How one pass of a [`Depthwise`] op cuts the plane and the staging tile.
///
/// A staged row is `phases` phase rows of `len` elements: phase `q` holds
/// virtual columns `(c0 + m)·step + first.1 + q`, so a tap reads one
/// contiguous run at any stride. A band of `band` output rows stages the
/// `(band − 1)·step + rows` virtual rows from `r0·step + first.0` on.
struct Pass {
    rows: usize,
    /// The smallest virtual row and column offsets of the pass's taps.
    first: (usize, usize),
    phases: usize,
    len: usize,
    /// Output columns per column tile, a multiple of [`STRIP`].
    tile_cols: usize,
    band: usize,
    /// Output strips start from +0, not from the previous passes' sums.
    first_pass: bool,
    /// `(weight index, tile offset from an output row's first staged row,
    /// row class)` of each tap, in `(ky, kx)` order; the first `n` are used.
    /// A tap serves only the output rows of its class (see
    /// [`Depthwise::run_planes`]).
    taps: [(usize, usize, usize); PASS_TAPS],
    n: usize,
}

impl Depthwise {
    fn forward(g: &Geometry) -> Self {
        Depthwise {
            stride: g.p.stride,
            pad: g.p.padding,
            kh: g.kh,
            kw: g.kw,
            src: (g.h, g.w),
            out: (g.oh, g.ow),
            mirrored: false,
        }
    }

    fn grad_input(g: &Geometry) -> Self {
        Depthwise {
            src: (g.oh, g.ow),
            out: (g.h, g.w),
            mirrored: true,
            ..Depthwise::forward(g)
        }
    }

    /// Virtual distance between neighbouring outputs.
    fn step(&self) -> usize {
        if self.mirrored {
            1
        } else {
            self.stride
        }
    }

    /// Virtual offset of tap `k` on an axis of `taps` taps.
    fn pos(&self, k: usize, taps: usize) -> usize {
        if self.mirrored {
            taps - 1 - k
        } else {
            k
        }
    }

    /// The source elements behind the virtual coordinates `base + m·gap`,
    /// `m < len`, on an axis of `n` source elements and `taps` taps (`gap`
    /// is 1 when mirrored): `[m0, j0, count, dm, dj]`, the run `m = m0 +
    /// t·dm` reading element `j0 + t·dj` for `t < count`. Every other `m` is
    /// zero.
    fn run(&self, base: usize, gap: usize, len: usize, n: usize, taps: usize) -> [usize; 5] {
        let (s, pad) = (self.stride, self.pad);
        if !self.mirrored {
            // Element `base + m·gap − pad`, inside `0..n`.
            let m0 = pad.saturating_sub(base).div_ceil(gap);
            let end = (pad + n).saturating_sub(base).div_ceil(gap).min(len);
            return [
                m0,
                (base + m0 * gap).saturating_sub(pad),
                end.saturating_sub(m0),
                1,
                gap,
            ];
        }
        // Upsampled index `u = base + m + pad − (taps − 1)`: element `u / s`
        // when `s` divides `u` and `u / s < n`.
        let u0 = (base + pad) as isize - (taps - 1) as isize;
        let j0 = u0.max(0).unsigned_abs().div_ceil(s);
        let end = (u0 + len as isize).max(0).unsigned_abs().div_ceil(s).min(n);
        let m0 = (j0 * s) as isize - u0;
        [m0.max(0).unsigned_abs(), j0, end.saturating_sub(j0), s, 1]
    }

    /// The layout of the pass over taps `ky x kx`.
    fn pass(&self, ky: Range<usize>, kx: Range<usize>) -> Pass {
        let (out_h, out_w) = self.out;
        let step = self.step();
        let (rows, cols) = (ky.len(), kx.len());
        let first = (
            self.pos(ky.start, self.kh)
                .min(self.pos(ky.end - 1, self.kh)),
            self.pos(kx.start, self.kw)
                .min(self.pos(kx.end - 1, self.kw)),
        );
        let phases = step.min(cols);
        // Virtual columns a phase row reaches past its last strip.
        let reach = (cols - 1) / step;
        // At most PASS_TAPS taps leave room for a strip of `rows` staged rows.
        let most = (STAGE / rows / phases - reach) / STRIP * STRIP;
        let tile_cols = most.min(out_w.next_multiple_of(STRIP)).max(STRIP);
        let len = tile_cols + reach;
        let width = phases * len;
        let band = ((STAGE / width - rows) / step + 1).min(out_h).max(1);
        let mut taps = [(0, 0, 0); PASS_TAPS];
        let mut n = 0;
        for y in ky.clone() {
            for x in kx.clone() {
                let (dy, dx) = (
                    self.pos(y, self.kh) - first.0,
                    self.pos(x, self.kw) - first.1,
                );
                let at = dy * width + dx % step * len + dx / step;
                // Mirrored, output row `r` reads upsampled row `r + pad − y`.
                let class = if self.mirrored {
                    (y % self.stride + self.stride - self.pad % self.stride) % self.stride
                } else {
                    0
                };
                taps[n] = (y * self.kw + x, at, class);
                n += 1;
            }
        }
        Pass {
            rows,
            first,
            phases,
            len,
            tile_cols,
            band,
            first_pass: ky.start == 0 && kx.start == 0,
            taps,
            n,
        }
    }

    /// The op over `planes` planes of `src` into `out`, plane `i` filtered
    /// by channel `i % channels` of `w` (`[channels, 1, kh, kw]`).
    ///
    /// Which tile elements a plane's source fills depends only on the band
    /// and the column tile, so the zeros around them are written once per
    /// tile position and each plane only copies its source runs in.
    fn run_planes(
        &self,
        (planes, channels): (usize, usize),
        (src, w): (&[f32], &[f32]),
        out: &mut [f32],
        tile: &mut PatchPanel,
    ) {
        let ((src_h, src_w), (out_h, out_w)) = (self.src, self.out);
        let (src_len, out_len, kernel) = (src_h * src_w, out_h * out_w, self.kh * self.kw);
        let step = self.step();
        // The input gradient's output rows fall in `stride` classes by which
        // upsampled rows they read: a tap whose row is all zeros for a class
        // adds ±0, which leaves a sum started at +0 unchanged, so each class
        // takes only the taps that read `dy`.
        let classes = if self.mirrored { self.stride } else { 1 };
        let mut col_runs = [[0usize; 5]; PASS_TAPS];
        let mut taps = [(0, 0.0f32); PASS_TAPS];
        for (ky, kx) in tap_windows(self.kh, self.kw) {
            let pass = self.pass(ky, kx);
            let width = pass.phases * pass.len;
            let pitches = (classes * step * width, classes * out_w);
            for r0 in (0..out_h).step_by(pass.band) {
                let nr = pass.band.min(out_h - r0);
                let rows = (nr - 1) * step + pass.rows;
                let row_run = self.run(r0 * step + pass.first.0, 1, rows, src_h, self.kh);
                for c0 in (0..out_w).step_by(pass.tile_cols) {
                    let nc = pass.tile_cols.min(out_w - c0);
                    let col_runs = &mut col_runs[..pass.phases];
                    for (q, run) in col_runs.iter_mut().enumerate() {
                        let base = c0 * step + pass.first.1 + q;
                        *run = self.run(base, step, pass.len, src_w, self.kw);
                    }
                    let staged = &mut tile[..rows * width];
                    staged.fill(0.0);
                    for plane in 0..planes {
                        let sp = &src[plane * src_len..][..src_len];
                        stage(sp, src_w, (row_run, col_runs), (width, pass.len), staged);
                        let wp = &w[plane % channels * kernel..][..kernel];
                        let op = &mut out[plane * out_len..][..out_len];
                        for class in 0..classes {
                            let mut n = 0;
                            for &(k, at, c) in &pass.taps[..pass.n] {
                                if c == class {
                                    taps[n] = (at, wp[k]);
                                    n += 1;
                                }
                            }
                            let first = r0 + (class + classes - r0 % classes) % classes;
                            let mut left = (r0 + nr).saturating_sub(first).div_ceil(classes);
                            let mut r = first;
                            while left > 0 {
                                let from = &staged[(r - r0) * step * width..];
                                let to = &mut op[r * out_w + c0..];
                                let block = if left >= ROWS { ROWS } else { 1 };
                                let strip = Strips {
                                    taps: &taps[..n],
                                    pitches,
                                    cols: nc,
                                    first_pass: pass.first_pass,
                                };
                                if block == ROWS {
                                    strips::<ROWS>(from, to, strip);
                                } else {
                                    strips::<1>(from, to, strip);
                                }
                                (r, left) = (r + block * classes, left - block);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Copies one source plane's runs into the staging tile: source row `j0 +
/// t·dj` to staged row `b0 + t·db` for `t < count` (the row run) and, in
/// each, phase `q`'s column run `[m0, i0, n, dm, di]`: source element `i0 +
/// u·di` to phase element `m0 + u·dm` for `u < n`. A staged row is `width`
/// elements, phase rows of `len`.
fn stage(
    src: &[f32],
    src_w: usize,
    ([b0, j0, count, db, dj], col_runs): ([usize; 5], &[[usize; 5]]),
    (width, len): (usize, usize),
    staged: &mut [f32],
) {
    if let [[m0, i0, n0, 1, 2], [m1, i1, n1, 1, 2]] = *col_runs {
        if n0 > 0 && n1 > 0 {
            // Stride 2, both phases: one contiguous source run, split into
            // its even and odd elements in one pass per row. The phase whose
            // run starts first takes the even elements.
            let (lo, total) = (i0.min(i1), n0 + n1);
            let (even, odd) = if i0 < i1 {
                (m0, len + m1)
            } else {
                (len + m1, m0)
            };
            let (mut from, mut to) = (j0 * src_w + lo, b0 * width);
            for _ in 0..count {
                let (pairs, last) = src[from..from + total].as_chunks::<2>();
                let row = &mut staged[to..to + width];
                let (row, odd_row) = row.split_at_mut(even.max(odd));
                let (even_row, odd_row) = if even < odd {
                    (&mut row[even..], &mut odd_row[..])
                } else {
                    (&mut odd_row[..], &mut row[odd..])
                };
                for ((x, e), o) in pairs.iter().zip(even_row.iter_mut()).zip(odd_row) {
                    (*e, *o) = (x[0], x[1]);
                }
                if let [x] = last {
                    even_row[pairs.len()] = *x;
                }
                (from, to) = (from + dj * src_w, to + db * width);
            }
            return;
        }
    }
    for (q, &[m0, i0, n, dm, di]) in col_runs.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let (from_span, to_span) = ((n - 1) * di + 1, (n - 1) * dm + 1);
        let (mut from, mut to) = (j0 * src_w + i0, b0 * width + q * len + m0);
        for _ in 0..count {
            let (f, t) = (&src[from..from + from_span], &mut staged[to..to + to_span]);
            if dm == 1 && di == 1 {
                copy_run(t, f);
            } else if dm == 1 {
                for (d, v) in t.iter_mut().zip(f.chunks(di)) {
                    *d = v[0];
                }
            } else {
                for (d, v) in t.chunks_mut(dm).zip(f) {
                    d[0] = *v;
                }
            }
            (from, to) = (from + dj * src_w, to + db * width);
        }
    }
}

/// `to.copy_from_slice(from)` for the short runs of a staged row: a
/// [`STRIP`] at a time and inline, not through `memcpy`.
#[inline(always)]
fn copy_run(to: &mut [f32], from: &[f32]) {
    let (to8, to_tail) = to.as_chunks_mut::<STRIP>();
    let (from8, from_tail) = from.as_chunks::<STRIP>();
    for (d, v) in to8.iter_mut().zip(from8) {
        *d = *v;
    }
    for (d, v) in to_tail.iter_mut().zip(from_tail) {
        *d = *v;
    }
}

/// The passes of a `kh x kw` kernel, in `(ky, kx)` order: as many whole tap
/// rows as [`PASS_TAPS`] holds, or pieces of one row when a row alone is
/// longer.
fn tap_windows(kh: usize, kw: usize) -> impl Iterator<Item = (Range<usize>, Range<usize>)> {
    let (rows, piece) = ((PASS_TAPS / kw).max(1), kw.min(PASS_TAPS));
    (0..kh).step_by(rows).flat_map(move |y0| {
        let ky = y0..kh.min(y0 + rows);
        (0..kw)
            .step_by(piece)
            .map(move |x0| (ky.clone(), x0..kw.min(x0 + piece)))
    })
}

/// What the strips of one block of output rows share.
#[derive(Clone, Copy)]
struct Strips<'a> {
    /// `(tile offset, weight)` of each tap, in order.
    taps: &'a [(usize, f32)],
    /// Distances between the block's rows in the tile and in the output.
    pitches: (usize, usize),
    cols: usize,
    /// Strips start from +0, not from the previous passes' sums in `out`.
    first_pass: bool,
}

/// `R` output rows, a [`STRIP`] of their columns at a time: each strip's
/// accumulators start at +0 (past the first pass, at `out`), take every tap
/// `(offset, weight)` in order from `tile[offset + r·pitch + column]`, and
/// are stored once. Output row `r` starts at `out[r·out_pitch]`; `tile` is
/// readable a whole strip past each row's last column.
#[inline(always)]
fn strips<const R: usize>(tile: &[f32], out: &mut [f32], s: Strips) {
    let Strips {
        taps,
        pitches: (pitch, out_pitch),
        cols: nc,
        first_pass,
    } = s;
    // Every read of row `r` lies in `rows[r]`; clamping an offset to
    // `span − STRIP` changes none of them and lets the reads go unchecked.
    let span = taps.iter().map(|t| t.0).max().unwrap_or(0) + nc.next_multiple_of(STRIP);
    let rows: [&[f32]; R] = std::array::from_fn(|r| &tile[r * pitch..][..span]);
    for j in (0..nc).step_by(STRIP) {
        let n = STRIP.min(nc - j);
        let mut acc = [[0.0f32; STRIP]; R];
        if !first_pass {
            for (r, a) in acc.iter_mut().enumerate() {
                copy_run(&mut a[..n], &out[r * out_pitch + j..][..n]);
            }
        }
        for &(at, wv) in taps {
            let i = (at + j).min(span - STRIP);
            for (a, row) in acc.iter_mut().zip(&rows) {
                let x: &[f32; STRIP] = row[i..i + STRIP].try_into().unwrap();
                for l in 0..STRIP {
                    a[l] += wv * x[l];
                }
            }
        }
        for (r, a) in acc.iter().enumerate() {
            copy_run(&mut out[r * out_pitch + j..][..n], &a[..n]);
        }
    }
}

/// Independent partial sums of the depthwise weight-gradient reduction.
const LANES: usize = 4;
/// Planes whose weight-gradient dots one call of [`tap_dots`] interleaves.
const DOT_PLANES: usize = 4;

/// Adds tap block `t`'s weight-gradient term of the `P` `dy` planes from
/// `plane` on to `out`. Per plane, lane `l` sums `dy · x` over the block's
/// rows in order and, within a row, over its columns `≡ l (mod LANES)` in
/// order; then `out[ch·taps + tap] += (l0 + l2) + (l1 + l3)`, the planes in
/// order. The planes' lanes are independent chains, so each row's chunks of
/// all `P` planes run interleaved.
#[inline(always)]
fn tap_dots<const P: usize>(
    g: &Geometry,
    t: &TapBlock,
    (plane, grad_cout): (usize, usize),
    (xd, dyd): (&[f32], &[f32]),
    out: &mut [f32],
) {
    let (hw, ohow, stride) = (g.h * g.w, g.oh * g.ow, g.p.stride);
    // `(channel, input plane)` of each `dy` plane.
    let (mut ni, mut ch) = (plane / grad_cout, plane % grad_cout);
    let planes: [(usize, usize); P] = std::array::from_fn(|_| {
        let at = (ch, ni * g.cin + ch);
        ch += 1;
        if ch == grad_cout {
            (ni, ch) = (ni + 1, 0);
        }
        at
    });
    let (chunks, tail) = (t.len / LANES, t.len % LANES);
    let x_len = (t.len - 1) * stride + 1;
    let mut acc = [[0.0f32; LANES]; P];
    for r in 0..t.rows {
        let dy: [&[f32]; P] =
            std::array::from_fn(|i| &dyd[(plane + i) * ohow + t.o_at + r * t.o_pitch..][..t.len]);
        let x: [&[f32]; P] =
            std::array::from_fn(|i| &xd[planes[i].1 * hw + t.x_at + r * t.x_pitch..][..x_len]);
        if stride == 1 {
            for c in 0..chunks {
                for (a, (dy, x)) in acc.iter_mut().zip(dy.iter().zip(&x)) {
                    let (dy, x) = (&dy[c * LANES..][..LANES], &x[c * LANES..][..LANES]);
                    for l in 0..LANES {
                        a[l] += dy[l] * x[l];
                    }
                }
            }
            for l in 0..tail {
                for (a, (dy, x)) in acc.iter_mut().zip(dy.iter().zip(&x)) {
                    a[l] += dy[chunks * LANES + l] * x[chunks * LANES + l];
                }
            }
        } else {
            for u in 0..t.len {
                for (a, (dy, x)) in acc.iter_mut().zip(dy.iter().zip(&x)) {
                    a[u % LANES] += dy[u] * x[u * stride];
                }
            }
        }
    }
    let taps = g.kh * g.kw;
    for (a, &(ch, _)) in acc.iter().zip(&planes) {
        out[ch * taps + t.tap] += (a[0] + a[2]) + (a[1] + a[3]);
    }
}

/// Forward 2-D convolution writing into a preallocated `out` of
/// [`conv2d_out_dims`].
///
/// `x` is `[N, Cin, H, W]`, `weight` is `[Cout, Cin/groups, KH, KW]`. Per
/// image and group the output is the GEMM `W[Cout x K] · Patches[K x
/// OH·OW]`; the patch matrix is never materialised — a window of it is
/// gathered into a stack panel, and a 1x1 convolution reads the image itself.
/// A depthwise convolution runs the padded-row kernel (see the module docs):
/// every output sums its taps in `(ky, kx)` order from +0, padding taps
/// included, which changes no bit unless a weight is infinite or NaN.
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
    let mut panel: PatchPanel = [0.0; PANEL_ROWS * PANEL_COLS];
    if g.is_depthwise() {
        let planes = (g.n * g.cout, g.cout);
        Depthwise::forward(&g).run_planes(planes, (xd, wd), out, &mut panel);
        return;
    }
    let cout_g = g.cout / p.groups;
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
/// 1x1 convolution writes the product straight into `out`. A depthwise
/// convolution runs the forward's padded-row kernel at stride 1 over `dy`
/// zero-upsampled by the stride, with the taps mirrored; a row of `dx`
/// skips the taps whose upsampled row is all zeros. The same caveat on
/// non-finite weights holds.
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
    let mut panel: PatchPanel = [0.0; PANEL_ROWS * PANEL_COLS];
    if g.is_depthwise() {
        let planes = (g.n * g.cout, g.cout);
        Depthwise::grad_input(&g).run_planes(planes, (dyd, wd), out, &mut panel);
        return;
    }
    let cout_g = g.cout / p.groups;
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
/// Patchesᵀ[OH·OW x K]` over the same stack panels as the forward pass. A
/// depthwise convolution sums each tap's clipped block as a 4-lane dot per
/// plane, four planes interleaved.
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
        g.for_each_tap_block(g.n * grad_cout, |t, planes| {
            let mut plane = planes.start;
            while planes.end - plane >= DOT_PLANES {
                tap_dots::<DOT_PLANES>(&g, t, (plane, grad_cout), (xd, dyd), out);
                plane += DOT_PLANES;
            }
            for plane in plane..planes.end {
                tap_dots::<1>(&g, t, (plane, grad_cout), (xd, dyd), out);
            }
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

/// The direct seven-deep loops the lowered kernels replaced, and the
/// one-plane-at-a-time tap-block depthwise loops the padded-row kernel and
/// the interleaved weight-gradient dots replaced, kept as the oracles the
/// tests compare against.
#[cfg(test)]
mod oracle {
    use super::{conv2d_out_dims, Conv2dParams, Geometry, TapBlock, LANES};
    use crate::Tensor;

    /// `f(tap_block, plane)` for every kernel tap and channel plane, taps
    /// in `(ky, kx)` order for each plane.
    fn for_each_tap_plane(g: &Geometry, planes: usize, mut f: impl FnMut(&TapBlock, usize)) {
        g.for_each_tap_block(planes, |t, group| group.for_each(|plane| f(t, plane)));
    }

    /// Depthwise forward as one clipped row `axpy` per kernel tap, taps in
    /// `(ky, kx)` order, into a zeroed output.
    pub(crate) fn depthwise_tap_blocks(x: &Tensor, weight: &Tensor, p: Conv2dParams) -> Vec<f32> {
        let g = Geometry::new(x.dims(), weight.dims(), p);
        let (hw, ohow, k) = (g.h * g.w, g.oh * g.ow, g.patch());
        let mut out = vec![0.0; g.n * g.cout * ohow];
        for_each_tap_plane(&g, g.n * g.cout, |t, plane| {
            let (xp, op) = (
                &x.data()[plane * hw..][..hw],
                &mut out[plane * ohow..][..ohow],
            );
            let wv = weight.data()[plane % g.cout * k + t.tap];
            for r in 0..t.rows {
                let xrow = &xp[t.x_at + r * t.x_pitch..];
                let orow = &mut op[t.o_at + r * t.o_pitch..][..t.len];
                for (c, o) in orow.iter_mut().enumerate() {
                    *o += wv * xrow[c * p.stride];
                }
            }
        });
        out
    }

    /// Depthwise input gradient as one clipped row `axpy` per kernel tap,
    /// taps in `(ky, kx)` order, into a zeroed `dx`.
    pub(crate) fn depthwise_grad_input_tap_blocks(
        dy: &Tensor,
        weight: &Tensor,
        x_dims: &[usize],
        p: Conv2dParams,
    ) -> Vec<f32> {
        let g = Geometry::new(x_dims, weight.dims(), p);
        let (hw, ohow, k) = (g.h * g.w, g.oh * g.ow, g.patch());
        let mut dx = vec![0.0; g.n * g.cin * hw];
        for_each_tap_plane(&g, g.n * g.cout, |t, plane| {
            let (dyp, dxp) = (
                &dy.data()[plane * ohow..][..ohow],
                &mut dx[plane * hw..][..hw],
            );
            let wv = weight.data()[plane % g.cout * k + t.tap];
            for r in 0..t.rows {
                let dyrow = &dyp[t.o_at + r * t.o_pitch..][..t.len];
                let dxrow = &mut dxp[t.x_at + r * t.x_pitch..];
                for (c, d) in dyrow.iter().enumerate() {
                    dxrow[c * p.stride] += wv * d;
                }
            }
        });
        dx
    }

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

    /// `acc[t % LANES] += a[t] * b[t * b_step]` for `t < a.len()`.
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

    /// Depthwise weight gradient one plane at a time: per kernel tap, a
    /// lane-accumulated dot over the tap's clipped block, added to the
    /// zeroed gradient in plane order.
    pub(crate) fn depthwise_grad_weight_tap_blocks(
        x: &Tensor,
        dy: &Tensor,
        w_dims: &[usize],
        p: Conv2dParams,
    ) -> Vec<f32> {
        let g = Geometry::new(x.dims(), w_dims, p);
        let (hw, ohow, k) = (g.h * g.w, g.oh * g.ow, g.patch());
        let grad_cout = dy.dims()[1];
        let mut out = vec![0.0; grad_cout * k];
        for_each_tap_plane(&g, g.n * grad_cout, |t, plane| {
            let (ni, ch) = (plane / grad_cout, plane % grad_cout);
            let xp = &x.data()[(ni * g.cin + ch) * hw..][..hw];
            let dyp = &dy.data()[plane * ohow..][..ohow];
            let mut acc = [0.0f32; LANES];
            for r in 0..t.rows {
                let dyrow = &dyp[t.o_at + r * t.o_pitch..][..t.len];
                dot_lanes(&mut acc, dyrow, &xp[t.x_at + r * t.x_pitch..], p.stride);
            }
            out[ch * k + t.tap] += (acc[0] + acc[2]) + (acc[1] + acc[3]);
        });
        out
    }

    pub(crate) fn conv2d(x: &Tensor, weight: &Tensor, p: Conv2dParams) -> Vec<f32> {
        let od = conv2d_out_dims(x.dims(), weight.dims(), p);
        let mut out = vec![0.0; od.iter().product()];
        for_each_mac(x.dims(), weight.dims(), od[1], p, |xi, wi, oi| {
            out[oi] += x.data()[xi] * weight.data()[wi];
        });
        out
    }

    pub(crate) fn conv2d_grad_input(
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

    pub(crate) fn conv2d_grad_weight(
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

    /// A seeded tensor with exact `0.0` and `-0.0` among its values.
    fn with_signed_zeros(dims: &[usize], scale: f32, rng: &mut Rng) -> Tensor {
        let mut t = Tensor::randn(dims, scale, rng);
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            match i % 7 {
                2 => *v = 0.0,
                5 => *v = -0.0,
                _ => {}
            }
        }
        t
    }

    /// The depthwise forward, input gradient and weight gradient of one
    /// geometry against the tap-block loops, bit for bit.
    fn check_depthwise_bits(x_dims: [usize; 4], kernel: (usize, usize), p: Conv2dParams) {
        let what = format!("x {x_dims:?} kernel {kernel:?} {p:?}");
        let mut rng = Rng::seed_from_u64(x_dims.iter().product::<usize>() as u64);
        let c = x_dims[1];
        let x = with_signed_zeros(&x_dims, 1.0, &mut rng);
        let w = with_signed_zeros(&[c, 1, kernel.0, kernel.1], 0.5, &mut rng);
        let p = p.with_groups(c);
        let dy = with_signed_zeros(&conv2d_out_dims(&x_dims, w.dims(), p), 1.0, &mut rng);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let y = conv2d(&x, &w, p);
        let want = oracle::depthwise_tap_blocks(&x, &w, p);
        assert_eq!(bits(y.data()), bits(&want), "forward: {what}");
        let dx = conv2d_grad_input(&dy, &w, &x_dims, p);
        let want = oracle::depthwise_grad_input_tap_blocks(&dy, &w, &x_dims, p);
        assert_eq!(bits(dx.data()), bits(&want), "grad-input: {what}");
        // The weight gradient of every channel and of a leading few.
        let [n, _, oh, ow] = conv2d_out_dims(&x_dims, w.dims(), p);
        for grad_cout in [c, c.div_ceil(2)] {
            let dy_part = run_into([n, grad_cout, oh, ow], |o| {
                slice_axis_into(dy.view(), 1, 0, grad_cout, o)
            });
            let dw = conv2d_grad_weight(&x, &dy_part, w.dims(), p);
            let want = oracle::depthwise_grad_weight_tap_blocks(&x, &dy_part, w.dims(), p);
            assert_eq!(
                bits(dw.data()),
                bits(&want),
                "grad-weight {grad_cout}: {what}"
            );
        }
    }

    #[test]
    fn depthwise_kernels_match_the_tap_block_loops_bit_for_bit() {
        for kernel in [1usize, 3, 5, 7] {
            for stride in [1, 2, 3] {
                for padding in 0..=kernel {
                    let p = Conv2dParams::new(stride, padding);
                    let k = (kernel, kernel);
                    // Odd, even and non-square planes, at batch 1 and 2.
                    check_depthwise_bits([2, 3, 9, 9], k, p);
                    check_depthwise_bits([1, 2, 8, 12], k, p);
                    check_depthwise_bits([2, 2, 13, 7], k, p);
                    // Paper-scale rows.
                    check_depthwise_bits([2, 2, 7, 112], k, p);
                    check_depthwise_bits([1, 2, 7, 130], k, p);
                }
            }
        }
    }

    #[test]
    fn depthwise_tiling_matches_the_tap_block_loops_bit_for_bit() {
        // Rows too wide for one staging tile, and planes too tall for one
        // band of output rows.
        check_depthwise_bits([1, 2, 3, 3001], (7, 7), Conv2dParams::new(1, 3));
        check_depthwise_bits([1, 2, 2, 2500], (3, 3), Conv2dParams::new(2, 1));
        check_depthwise_bits([2, 1, 1100, 9], (3, 3), Conv2dParams::new(1, 1));
        check_depthwise_bits([1, 2, 1700, 5], (5, 5), Conv2dParams::new(3, 2));
        // Kernels with more taps than one pass: several whole tap rows a
        // pass, and pieces of one tap row.
        check_depthwise_bits([2, 2, 11, 12], (9, 9), Conv2dParams::new(1, 4));
        check_depthwise_bits([1, 2, 10, 9], (9, 9), Conv2dParams::new(2, 2));
        check_depthwise_bits([1, 2, 3, 80], (1, 70), Conv2dParams::new(1, 0));
        check_depthwise_bits([1, 2, 4, 40], (2, 70), Conv2dParams::new(3, 16));
        check_depthwise_bits([1, 2, 80, 3], (70, 1), Conv2dParams::new(2, 1));
        // Padding beyond the kernel, and strides beyond it.
        check_depthwise_bits([2, 2, 5, 6], (3, 3), Conv2dParams::new(1, 5));
        check_depthwise_bits([1, 3, 12, 11], (3, 2), Conv2dParams::new(5, 4));
        check_depthwise_bits([1, 2, 1, 1], (1, 1), Conv2dParams::new(4, 3));
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
